//! Simulation counters.
//!
//! Every component of the hierarchy records its events into a
//! [`MemStats`] snapshot; experiments diff snapshots across phases
//! (for example, user-mode vs checkpoint-time traffic in Figure 12).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Sub;

use crate::Cycles;

/// Per-cache-level hit/miss counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LevelStats {
    /// Accesses that hit in this level.
    pub hits: u64,
    /// Accesses that missed and were forwarded down.
    pub misses: u64,
    /// Dirty lines written back to the next level on eviction.
    pub writebacks: u64,
}

impl LevelStats {
    /// Total accesses observed by the level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when the level saw no traffic.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

// Snapshot diffs saturate instead of panicking: experiments sometimes
// diff snapshots taken from different machines (or after a reset),
// and a nonsensical-but-zero delta beats aborting a whole figure run.
impl Sub for LevelStats {
    type Output = LevelStats;

    fn sub(self, rhs: LevelStats) -> LevelStats {
        LevelStats {
            hits: self.hits.saturating_sub(rhs.hits),
            misses: self.misses.saturating_sub(rhs.misses),
            writebacks: self.writebacks.saturating_sub(rhs.writebacks),
        }
    }
}

/// Aggregate counters for a simulated machine.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MemStats {
    /// Demand loads issued by the core.
    pub loads: u64,
    /// Demand stores issued by the core.
    pub stores: u64,
    /// L1D counters.
    pub l1d: LevelStats,
    /// L2 counters.
    pub l2: LevelStats,
    /// L3 counters.
    pub l3: LevelStats,
    /// Line reads served by DRAM.
    pub dram_reads: u64,
    /// Line writes absorbed by DRAM.
    pub dram_writes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// Line reads served by NVM.
    pub nvm_reads: u64,
    /// Line writes absorbed by NVM.
    pub nvm_writes: u64,
    /// Cycles spent stalled because the NVM write buffer was full.
    pub nvm_write_stall_cycles: Cycles,
    /// Total simulated cycles elapsed.
    pub cycles: Cycles,
    /// Extra (non-demand) accesses injected by snooping hardware such as
    /// the Prosper tracker's bitmap loads/stores.
    pub injected_loads: u64,
    /// Extra stores injected by snooping hardware.
    pub injected_stores: u64,
}

impl Sub for MemStats {
    type Output = MemStats;

    fn sub(self, rhs: MemStats) -> MemStats {
        MemStats {
            loads: self.loads.saturating_sub(rhs.loads),
            stores: self.stores.saturating_sub(rhs.stores),
            l1d: self.l1d - rhs.l1d,
            l2: self.l2 - rhs.l2,
            l3: self.l3 - rhs.l3,
            dram_reads: self.dram_reads.saturating_sub(rhs.dram_reads),
            dram_writes: self.dram_writes.saturating_sub(rhs.dram_writes),
            dram_row_hits: self.dram_row_hits.saturating_sub(rhs.dram_row_hits),
            nvm_reads: self.nvm_reads.saturating_sub(rhs.nvm_reads),
            nvm_writes: self.nvm_writes.saturating_sub(rhs.nvm_writes),
            nvm_write_stall_cycles: self
                .nvm_write_stall_cycles
                .saturating_sub(rhs.nvm_write_stall_cycles),
            cycles: self.cycles.saturating_sub(rhs.cycles),
            injected_loads: self.injected_loads.saturating_sub(rhs.injected_loads),
            injected_stores: self.injected_stores.saturating_sub(rhs.injected_stores),
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} loads={} stores={} (injected {}L/{}S)",
            self.cycles, self.loads, self.stores, self.injected_loads, self.injected_stores
        )?;
        writeln!(
            f,
            "L1D {}/{} L2 {}/{} L3 {}/{} (hits/misses)",
            self.l1d.hits,
            self.l1d.misses,
            self.l2.hits,
            self.l2.misses,
            self.l3.hits,
            self.l3.misses
        )?;
        write!(
            f,
            "DRAM r={} w={} rowhit={} | NVM r={} w={} wstall={}",
            self.dram_reads,
            self.dram_writes,
            self.dram_row_hits,
            self.nvm_reads,
            self.nvm_writes,
            self.nvm_write_stall_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ratios() {
        let l = LevelStats {
            hits: 3,
            misses: 1,
            writebacks: 0,
        };
        assert_eq!(l.accesses(), 4);
        assert!((l.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(LevelStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn snapshot_diff() {
        let a = MemStats {
            loads: 10,
            cycles: 100,
            l1d: LevelStats {
                hits: 8,
                ..LevelStats::default()
            },
            ..MemStats::default()
        };
        let mut b = a;
        b.loads = 25;
        b.cycles = 260;
        b.l1d.hits = 20;
        let d = b - a;
        assert_eq!(d.loads, 15);
        assert_eq!(d.cycles, 160);
        assert_eq!(d.l1d.hits, 12);
    }

    #[test]
    fn reversed_diff_saturates_to_zero() {
        let small = MemStats {
            loads: 1,
            cycles: 10,
            ..MemStats::default()
        };
        let big = MemStats {
            loads: 5,
            cycles: 50,
            nvm_writes: 3,
            l1d: LevelStats {
                hits: 7,
                misses: 2,
                writebacks: 1,
            },
            ..MemStats::default()
        };
        let d = small - big;
        assert_eq!(d.loads, 0);
        assert_eq!(d.cycles, 0);
        assert_eq!(d.nvm_writes, 0);
        assert_eq!(d.l1d, LevelStats::default());
    }

    #[test]
    fn level_reversed_diff_saturates_per_field() {
        let a = LevelStats {
            hits: 10,
            misses: 1,
            writebacks: 0,
        };
        let b = LevelStats {
            hits: 4,
            misses: 6,
            writebacks: 2,
        };
        // Mixed direction: hits grew, misses/writebacks "shrank".
        let d = a - b;
        assert_eq!(
            d,
            LevelStats {
                hits: 6,
                misses: 0,
                writebacks: 0
            }
        );
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", MemStats::default());
        assert!(s.contains("cycles=0"));
        assert!(s.contains("NVM"));
    }
}
