//! Machine configurations reproducing Table II of the paper.
//!
//! Two setups are used by the paper:
//!
//! * **Setup-I** — the end-to-end checkpoint experiments (GemOS on gem5
//!   with hybrid 3 GB DRAM + 2 GB NVM memory). Used by Figures 8–11 and
//!   the context-switch study.
//! * **Setup-II** — the tracking-overhead experiments (Linux on gem5,
//!   32 GB DRAM). Used by Figures 12–13.
//!
//! Parameters not listed in Table II keep gem5-like defaults; those are
//! documented on each field.

use serde::{Deserialize, Serialize};

use crate::addr::PhysAddr;
use crate::Cycles;

/// Configuration of a single set-associative cache level.
///
/// The associativity is the `WAYS` type parameter of the
/// [`Cache`](crate::cache::Cache) built from it; [`L1D_WAYS`],
/// [`L2_WAYS`] and [`L3_WAYS`] hold Table II's.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Access (hit) latency in core cycles.
    pub latency: Cycles,
    /// Line size in bytes (64 in Table II for all levels).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by size, line size and `ways` ways per
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is not a power
    /// of two, mirroring real-cache constraints.
    pub fn sets(&self, ways: usize) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines * self.line_bytes,
            self.size_bytes,
            "cache size must be a multiple of the line size"
        );
        let ways = ways as u64;
        let sets = lines / ways;
        assert_eq!(
            sets * ways,
            lines,
            "cache lines must divide evenly into ways"
        );
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two"
        );
        sets
    }
}

/// DRAM device timing, modelled on DDR4-2400 (Table II: DDR4-2400 16x4).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct DramConfig {
    /// Row-buffer hit latency in core cycles (CAS only).
    pub row_hit: Cycles,
    /// Row-buffer miss latency in core cycles (precharge + activate + CAS).
    pub row_miss: Cycles,
    /// Number of banks (row buffers tracked per bank); a power of two.
    pub banks: u32,
    /// Row size in bytes (row-buffer granularity); a power of two.
    pub row_bytes: u64,
    /// Sustained bandwidth in bytes per core cycle, used for bulk-copy
    /// and queueing accounting. DDR4-2400 ≈ 19.2 GB/s ≈ 6.4 B/cycle at
    /// 3 GHz.
    pub bytes_per_cycle: f64,
}

/// NVM device timing, modelled on PCM (Table II footnote: PCM timing
/// parameters based on reference \[46\] of the paper).
///
/// The defining characteristics are the large read/write latencies
/// relative to DRAM, strong read/write asymmetry, and a bounded write
/// buffer (Table II: 48 entries) whose exhaustion stalls further
/// writes. Table II's 64-entry read buffer is not modelled: the
/// blocking core never has more than one read outstanding.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Array read latency in core cycles (~150 ns class device ⇒ ~450
    /// cycles at 3 GHz; we use a PCM-like 300).
    pub read_latency: Cycles,
    /// Array write latency in core cycles (PCM writes ~3–5× reads).
    pub write_latency: Cycles,
    /// Entries in the device write buffer (Table II: 48).
    pub write_buffer: u32,
    /// Sustained write bandwidth in bytes per core cycle (Optane-class
    /// devices sustain ~2 GB/s writes ⇒ ~0.7 B/cycle at 3 GHz).
    pub write_bytes_per_cycle: f64,
    /// Sustained read bandwidth in bytes per core cycle.
    pub read_bytes_per_cycle: f64,
}

/// Hybrid physical memory layout: DRAM occupies `[0, dram_bytes)` and
/// NVM occupies `[dram_bytes, dram_bytes + nvm_bytes)` of the physical
/// address space, as in the paper's GemOS port where the process uses
/// DRAM and checkpoints are stored in NVM.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MemoryLayout {
    /// Bytes of DRAM (Setup-I: 3 GB; Setup-II: 32 GB).
    pub dram_bytes: u64,
    /// Bytes of NVM (Setup-I: 2 GB; Setup-II: 0 — Setup-II measures
    /// tracking overhead only and keeps everything in DRAM).
    pub nvm_bytes: u64,
}

impl MemoryLayout {
    /// First physical address of the NVM region.
    pub fn nvm_base(&self) -> PhysAddr {
        PhysAddr::new(self.dram_bytes)
    }
}

/// Full machine configuration (Table II).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core frequency in Hz (Table II: 3 GHz).
    pub core_hz: u64,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified per-core L2.
    pub l2: CacheConfig,
    /// Shared L3 (modelled per-core slice as in Table II: 2 MiB/core).
    pub l3: CacheConfig,
    /// DRAM device parameters.
    pub dram: DramConfig,
    /// NVM device parameters.
    pub nvm: NvmConfig,
    /// Physical memory layout.
    pub layout: MemoryLayout,
}

/// Table II's L1D associativity (Setup-I and Setup-II).
pub const L1D_WAYS: usize = 8;
/// Table II's L2 associativity.
pub const L2_WAYS: usize = 16;
/// Table II's L3 associativity.
pub const L3_WAYS: usize = 16;

impl MachineConfig {
    /// Table II **Setup-I**: end-to-end checkpoint experiments.
    ///
    /// 3 GHz core, 32 KiB 8-way L1D (3 cycles), 512 KiB 16-way L2
    /// (12 cycles), 2 MiB 16-way L3 slice (20 cycles), MSHRs 16/32/32,
    /// 64 B lines, DDR4-2400, PCM NVM with 48/64 write/read buffers,
    /// 3 GB DRAM + 2 GB NVM. The way counts are [`L1D_WAYS`],
    /// [`L2_WAYS`] and [`L3_WAYS`]. The core is blocking, so the MSHR
    /// counts and the read buffer bound nothing and are not modelled.
    pub fn setup_i() -> Self {
        Self {
            core_hz: 3_000_000_000,
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                latency: 3,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                latency: 12,
                line_bytes: 64,
            },
            l3: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                latency: 20,
                line_bytes: 64,
            },
            dram: DramConfig::ddr4_2400(),
            nvm: NvmConfig::pcm(),
            layout: MemoryLayout {
                dram_bytes: 3 * 1024 * 1024 * 1024,
                nvm_bytes: 2 * 1024 * 1024 * 1024,
            },
        }
    }

    /// Table II **Setup-II**: tracking-overhead experiments.
    ///
    /// Identical core-side hierarchy, 32 GB DRAM, no NVM interface.
    pub fn setup_ii() -> Self {
        let mut cfg = Self::setup_i();
        cfg.layout = MemoryLayout {
            dram_bytes: 32 * 1024 * 1024 * 1024,
            nvm_bytes: 0,
        };
        cfg
    }

    /// Cycles in one millisecond at the configured core frequency.
    pub fn cycles_per_ms(&self) -> Cycles {
        self.core_hz / 1000
    }

    /// Converts a cycle count to nanoseconds at the configured core
    /// frequency.
    pub fn cycles_to_ns(&self, cycles: Cycles) -> f64 {
        cycles as f64 * 1e9 / self.core_hz as f64
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::setup_i()
    }
}

impl DramConfig {
    /// DDR4-2400-like timings expressed in 3 GHz core cycles.
    ///
    /// tCL ≈ 14.16 ns ⇒ ~42 cycles row hit at the device; with
    /// controller overheads we charge 60. Row miss adds tRP + tRCD
    /// (~28 ns) ⇒ ~145 total.
    pub fn ddr4_2400() -> Self {
        Self {
            row_hit: 60,
            row_miss: 145,
            banks: 16,
            row_bytes: 8192,
            bytes_per_cycle: 6.4,
        }
    }
}

impl NvmConfig {
    /// PCM-like timings expressed in 3 GHz core cycles, following the
    /// parameters the paper takes from its reference \[46\].
    pub fn pcm() -> Self {
        Self {
            read_latency: 300,
            write_latency: 1000,
            write_buffer: 48,
            write_bytes_per_cycle: 0.7,
            read_bytes_per_cycle: 2.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_i_matches_table_ii() {
        let c = MachineConfig::setup_i();
        assert_eq!(c.core_hz, 3_000_000_000);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(L1D_WAYS, 8);
        assert_eq!(c.l1d.latency, 3);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(L2_WAYS, 16);
        assert_eq!(c.l2.latency, 12);
        assert_eq!(c.l3.size_bytes, 2 * 1024 * 1024);
        assert_eq!(L3_WAYS, 16);
        assert_eq!(c.l3.latency, 20);
        assert_eq!(c.l1d.line_bytes, 64);
        assert_eq!(c.l2.line_bytes, 64);
        assert_eq!(c.l3.line_bytes, 64);
        assert_eq!(c.nvm.write_buffer, 48);
        assert_eq!(c.layout.dram_bytes, 3 * 1024 * 1024 * 1024);
        assert_eq!(c.layout.nvm_bytes, 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn setup_ii_matches_table_ii() {
        let c = MachineConfig::setup_ii();
        assert_eq!(c.layout.dram_bytes, 32 * 1024 * 1024 * 1024);
        assert_eq!(c.layout.nvm_bytes, 0);
        // Core-side hierarchy is shared between setups.
        assert_eq!(c.l1d, MachineConfig::setup_i().l1d);
    }

    #[test]
    fn cache_geometry() {
        let c = MachineConfig::setup_i();
        assert_eq!(c.l1d.sets(L1D_WAYS), 64);
        assert_eq!(c.l2.sets(L2_WAYS), 512);
        assert_eq!(c.l3.sets(L3_WAYS), 2048);
    }

    #[test]
    fn nvm_slower_than_dram_and_write_asymmetric() {
        let c = MachineConfig::setup_i();
        assert!(c.nvm.read_latency > c.dram.row_miss);
        assert!(c.nvm.write_latency > c.nvm.read_latency);
        assert!(c.nvm.write_bytes_per_cycle < c.dram.bytes_per_cycle);
    }

    #[test]
    fn time_conversions() {
        let c = MachineConfig::setup_i();
        assert_eq!(c.cycles_per_ms(), 3_000_000);
        assert!((c.cycles_to_ns(3) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 48 * 1024,
            latency: 3,
            line_bytes: 64,
        }
        .sets(8);
    }
}
