//! Three-level cache hierarchy composition.
//!
//! Implements the Table II hierarchy: per-core L1D and L2 plus an L3
//! slice, all 64 B lines, write-back/write-allocate, with dirty victims
//! propagated downward. The hierarchy reports where an access was
//! served and any line writes that reached memory.

use crate::addr::PhysAddr;
use crate::cache::{AccessKind, Cache};
use crate::config::{MachineConfig, L1D_WAYS, L2_WAYS, L3_WAYS};
use crate::stats::LevelStats;
use crate::Cycles;

/// Where an access was ultimately served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedBy {
    /// Hit in the L1 data cache.
    L1d,
    /// Hit in the unified L2.
    L2,
    /// Hit in the shared L3 slice.
    L3,
    /// Missed everywhere; served by DRAM or NVM.
    Memory,
}

/// Result of pushing one access through the hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyResult {
    /// Which level served the access.
    pub served_by: ServedBy,
    /// Sum of cache-level latencies incurred on the access path (the
    /// memory-device latency is added by the machine).
    pub cache_latency: Cycles,
    /// Dirty lines that were evicted out of the L3 and must be written
    /// to memory, in eviction order. One access evicts at most one L3
    /// line per fill it causes there: the L1 victim's write-back
    /// cascade, the L2 victim's write-back and the L3 demand fill.
    pub memory_writebacks: [Option<PhysAddr>; 3],
}

/// The composed L1D/L2/L3 hierarchy, with Table II's way counts.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1d: Cache<L1D_WAYS>,
    l2: Cache<L2_WAYS>,
    l3: Cache<L3_WAYS>,
}

impl Hierarchy {
    /// Builds an empty hierarchy from a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
        }
    }

    /// Pushes one access through the hierarchy, filling lines upward
    /// and propagating dirty victims downward.
    #[inline]
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> HierarchyResult {
        let mut memory_writebacks = [None; 3];
        let mut latency = self.l1d.config().latency;

        let r1 = self.l1d.access(addr, kind);
        // A dirty L1 victim is written into L2 (write-back).
        if let Some(v) = r1.writeback {
            let r2 = self.l2.access(v, AccessKind::Write);
            if let Some(v2) = r2.writeback {
                memory_writebacks[0] = self.l3.access(v2, AccessKind::Write).writeback;
            }
        }
        if r1.hit {
            return HierarchyResult {
                served_by: ServedBy::L1d,
                cache_latency: latency,
                memory_writebacks,
            };
        }

        latency += self.l2.config().latency;
        // The fill into L1 comes from L2; the L2 sees a read regardless
        // of the demand kind (write-allocate fetches the line first).
        let r2 = self.l2.access(addr, AccessKind::Read);
        if let Some(v) = r2.writeback {
            memory_writebacks[1] = self.l3.access(v, AccessKind::Write).writeback;
        }
        if r2.hit {
            return HierarchyResult {
                served_by: ServedBy::L2,
                cache_latency: latency,
                memory_writebacks,
            };
        }

        latency += self.l3.config().latency;
        let r3 = self.l3.access(addr, AccessKind::Read);
        memory_writebacks[2] = r3.writeback;
        if r3.hit {
            return HierarchyResult {
                served_by: ServedBy::L3,
                cache_latency: latency,
                memory_writebacks,
            };
        }

        HierarchyResult {
            served_by: ServedBy::Memory,
            cache_latency: latency,
            memory_writebacks,
        }
    }

    /// `clwb`-style flush: cleans the line in all levels, returning
    /// `true` if any level held it dirty (a write-back to memory is
    /// then required).
    pub fn clwb(&mut self, addr: PhysAddr) -> bool {
        let d1 = self.l1d.flush_line(addr);
        let d2 = self.l2.flush_line(addr);
        let d3 = self.l3.flush_line(addr);
        d1 || d2 || d3
    }

    /// Per-level counters.
    pub fn level_stats(&self) -> (LevelStats, LevelStats, LevelStats) {
        (self.l1d.stats(), self.l2.stats(), self.l3.stats())
    }

    /// Returns `true` if any level currently holds the line.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.l1d.contains(addr) || self.l2.contains(addr) || self.l3.contains(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn h() -> Hierarchy {
        Hierarchy::new(&MachineConfig::setup_i())
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut hier = h();
        let r = hier.access(PhysAddr::new(0x1000), AccessKind::Read);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(r.cache_latency, 3 + 12 + 20);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut hier = h();
        hier.access(PhysAddr::new(0x1000), AccessKind::Read);
        let r = hier.access(PhysAddr::new(0x1000), AccessKind::Read);
        assert_eq!(r.served_by, ServedBy::L1d);
        assert_eq!(r.cache_latency, 3);
    }

    #[test]
    fn l1_eviction_falls_to_l2() {
        let mut hier = h();
        let base = PhysAddr::new(0);
        // L1D: 64 sets x 8 ways. Touch 9 lines in the same set
        // (stride = sets * line = 4096) to evict the first.
        for i in 0..9 {
            hier.access(base + i * 4096, AccessKind::Read);
        }
        let r = hier.access(base, AccessKind::Read);
        assert_eq!(r.served_by, ServedBy::L2);
    }

    #[test]
    fn dirty_eviction_writes_back_into_l2() {
        let mut hier = h();
        let base = PhysAddr::new(0);
        hier.access(base, AccessKind::Write);
        for i in 1..=8 {
            hier.access(base + i * 4096, AccessKind::Read);
        }
        // base was evicted dirty from L1 into L2; flushing it from L2
        // must report dirty.
        assert!(hier.clwb(base) || hier.contains(base));
    }

    #[test]
    fn clwb_reports_dirty_once() {
        let mut hier = h();
        let a = PhysAddr::new(0x40);
        hier.access(a, AccessKind::Write);
        assert!(hier.clwb(a));
        assert!(!hier.clwb(a));
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut hier = h();
        hier.access(PhysAddr::new(0), AccessKind::Read);
        hier.access(PhysAddr::new(0), AccessKind::Read);
        let (l1, l2, l3) = hier.level_stats();
        assert_eq!(l1.hits, 1);
        assert_eq!(l1.misses, 1);
        assert_eq!(l2.misses, 1);
        assert_eq!(l3.misses, 1);
        assert_eq!(l2.hits, 0);
        assert_eq!(l3.hits, 0);
    }
}
