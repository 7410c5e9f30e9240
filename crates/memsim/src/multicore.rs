//! Multi-core machine model.
//!
//! Table II describes per-core L1D/L2 caches with a shared L3 (2 MiB
//! per core) and a shared memory controller; Prosper instantiates one
//! dirty tracker per core (Section III-D). This module composes
//! per-core private levels over a shared L3 and a shared bus, with
//! independent per-core clocks — enough to study concurrent tracking
//! and cache/bus interference between cores.

use crate::addr::{PhysAddr, VirtAddr};
use crate::cache::{AccessKind, Cache};
use crate::config::{CacheConfig, MachineConfig, L1D_WAYS, L2_WAYS, L3_WAYS};
use crate::machine::{lines_of, DirectMap, LineTransfer};
use crate::memctrl::MemoryController;
use crate::stats::LevelStats;
use crate::Cycles;

/// Per-core private state.
#[derive(Debug)]
struct Core {
    l1d: Cache<L1D_WAYS>,
    l2: Cache<L2_WAYS>,
    now: Cycles,
    loads: u64,
    stores: u64,
    injected: u64,
}

/// Counters for one core of a [`MultiCoreMachine`].
#[derive(Clone, Copy, Default, Debug)]
pub struct CoreStats {
    /// Core-local cycle count.
    pub cycles: Cycles,
    /// Demand loads issued.
    pub loads: u64,
    /// Demand stores issued.
    pub stores: u64,
    /// Injected (background) operations issued from this core's
    /// tracker.
    pub injected: u64,
    /// L1D counters.
    pub l1d: LevelStats,
    /// L2 counters.
    pub l2: LevelStats,
}

/// A machine with `n` cores, a shared L3, and a shared memory bus.
///
/// Each core has its own clock (cores run independent instruction
/// streams); the bus serialises line transfers across cores, so a
/// core's miss can queue behind another core's traffic — the
/// cross-core interference channel.
#[derive(Debug)]
pub struct MultiCoreMachine {
    cores: Vec<Core>,
    l3: Cache<L3_WAYS>,
    ctrl: MemoryController,
    translator: DirectMap,
    transfer: LineTransfer,
    bus_free: Cycles,
    cfg: MachineConfig,
}

impl MultiCoreMachine {
    /// Builds an `n`-core machine; the shared L3 is sized at the
    /// per-core slice capacity times `n` (Table II: 2 MiB/core,
    /// shared), rounded up to the next power-of-two core count so the
    /// set count stays a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(cfg: MachineConfig, n: usize) -> Self {
        assert!(n > 0, "need at least one core");
        let l3_cfg = CacheConfig {
            size_bytes: cfg.l3.size_bytes * (n as u64).next_power_of_two(),
            ..cfg.l3
        };
        Self {
            cores: (0..n)
                .map(|_| Core {
                    l1d: Cache::new(cfg.l1d),
                    l2: Cache::new(cfg.l2),
                    now: 0,
                    loads: 0,
                    stores: 0,
                    injected: 0,
                })
                .collect(),
            l3: Cache::new(l3_cfg),
            ctrl: MemoryController::new(cfg.layout, cfg.dram, cfg.nvm),
            translator: DirectMap::new(cfg.layout.dram_bytes),
            transfer: LineTransfer::new(&cfg),
            bus_free: 0,
            cfg,
        }
    }

    /// Core-local clock of core `c`.
    pub fn now(&self, c: usize) -> Cycles {
        self.cores[c].now
    }

    /// Advances core `c` by `cycles` of compute.
    pub fn advance(&mut self, c: usize, cycles: Cycles) {
        self.cores[c].now += cycles;
    }

    /// Counters for core `c`.
    pub fn core_stats(&self, c: usize) -> CoreStats {
        let core = &self.cores[c];
        CoreStats {
            cycles: core.now,
            loads: core.loads,
            stores: core.stores,
            injected: core.injected,
            l1d: core.l1d.stats(),
            l2: core.l2.stats(),
        }
    }

    /// Shared-L3 counters.
    pub fn l3_stats(&self) -> LevelStats {
        self.l3.stats()
    }

    fn bus_transfer(&mut self, issue: Cycles, addr: PhysAddr, is_write: bool) -> Cycles {
        let start = issue.max(self.bus_free);
        let queue_delay = start - issue;
        let device_latency = self.ctrl.access(start, addr, is_write);
        self.bus_free = start + self.transfer.cycles(self.ctrl.device_of(addr), is_write);
        queue_delay + device_latency
    }

    /// Writes a dirty L2 victim into the shared L3; a dirty line the L3
    /// evicts for it goes to memory.
    fn l3_writeback(&mut self, issue: Cycles, victim: PhysAddr) {
        if let Some(v3) = self.l3.access(victim, AccessKind::Write).writeback {
            self.bus_transfer(issue, v3, true);
        }
    }

    /// One line access on core `c`; returns the latency charged to the
    /// core when `demand`, zero otherwise.
    fn line_access(&mut self, c: usize, paddr: PhysAddr, kind: AccessKind, demand: bool) -> Cycles {
        let issue = self.cores[c].now;
        let mut latency = self.cfg.l1d.latency;
        let core = &mut self.cores[c];
        let r1 = core.l1d.access(paddr, kind);
        // Dirty victims cascade down as `Hierarchy::access` cascades
        // them: the L1 victim into the L2, its L2 victim into the L3,
        // and any L3 victim onto the bus.
        if let Some(v) = r1.writeback {
            if let Some(v2) = core.l2.access(v, AccessKind::Write).writeback {
                self.l3_writeback(issue, v2);
            }
        }
        if !r1.hit {
            latency += self.cfg.l2.latency;
            let r2 = self.cores[c].l2.access(paddr, AccessKind::Read);
            if let Some(v) = r2.writeback {
                self.l3_writeback(issue, v);
            }
            if !r2.hit {
                latency += self.cfg.l3.latency;
                let r3 = self.l3.access(paddr, AccessKind::Read);
                if let Some(v3) = r3.writeback {
                    self.bus_transfer(issue, v3, true);
                }
                if !r3.hit {
                    latency += self.bus_transfer(issue, paddr, false);
                }
            }
        }
        if demand {
            latency
        } else {
            0
        }
    }

    /// Demand load on core `c`; advances that core's clock.
    pub fn load(&mut self, c: usize, vaddr: VirtAddr, size: u64) -> Cycles {
        self.cores[c].loads += 1;
        let mut total = 0;
        for line in lines_of(vaddr.raw(), size) {
            let paddr = self.translator.translate(VirtAddr::new(line));
            total += self.line_access(c, paddr, AccessKind::Read, true);
        }
        self.cores[c].now += total;
        total
    }

    /// Demand store on core `c`; advances that core's clock.
    pub fn store(&mut self, c: usize, vaddr: VirtAddr, size: u64) -> Cycles {
        self.cores[c].stores += 1;
        let mut total = 0;
        for line in lines_of(vaddr.raw(), size) {
            let paddr = self.translator.translate(VirtAddr::new(line));
            total += self.line_access(c, paddr, AccessKind::Write, true);
        }
        self.cores[c].now += total;
        total
    }

    /// Background (tracker) store issued from core `c`: no core-clock
    /// charge, but cache and bus effects are real.
    pub fn inject_store(&mut self, c: usize, vaddr: VirtAddr, size: u64) {
        self.cores[c].injected += 1;
        for line in lines_of(vaddr.raw(), size) {
            let paddr = self.translator.translate(VirtAddr::new(line));
            self.line_access(c, paddr, AccessKind::Write, false);
        }
    }

    /// Background load issued from core `c`.
    pub fn inject_load(&mut self, c: usize, vaddr: VirtAddr, size: u64) {
        self.cores[c].injected += 1;
        for line in lines_of(vaddr.raw(), size) {
            let paddr = self.translator.translate(VirtAddr::new(line));
            self.line_access(c, paddr, AccessKind::Read, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CACHE_LINE;

    fn machine(n: usize) -> MultiCoreMachine {
        MultiCoreMachine::new(MachineConfig::setup_i(), n)
    }

    #[test]
    fn cores_have_independent_clocks_and_caches() {
        let mut m = machine(2);
        m.load(0, VirtAddr::new(0x1000), 8);
        assert!(m.now(0) > 0);
        assert_eq!(m.now(1), 0);
        // Core 1 misses its private levels on the same line but hits
        // the shared L3.
        let lat1 = m.load(1, VirtAddr::new(0x1000), 8);
        assert_eq!(lat1, 3 + 12 + 20, "shared-L3 hit for core 1: {lat1}");
    }

    #[test]
    fn shared_l3_is_scaled_by_core_count() {
        let m1 = machine(1);
        let m4 = machine(4);
        assert_eq!(m4.l3.config().size_bytes, 4 * m1.l3.config().size_bytes);
    }

    #[test]
    fn bus_contention_crosses_cores() {
        let mut m = machine(2);
        // Core 1 floods the bus with injected misses.
        for i in 0..200u64 {
            m.inject_store(1, VirtAddr::new(0x200_0000 + i * 64), 8);
        }
        // Core 0's cold miss queues behind them.
        let lat = m.load(0, VirtAddr::new(0x900_0000), 8);
        assert!(lat > 35 + 60, "cross-core queueing visible: {lat}");
        assert_eq!(m.now(1), 0, "injector's clock unaffected");
    }

    #[test]
    fn per_core_stats_are_separate() {
        let mut m = machine(3);
        m.store(0, VirtAddr::new(0x100), 8);
        m.store(0, VirtAddr::new(0x100), 8);
        m.load(2, VirtAddr::new(0x40000), 8);
        let s0 = m.core_stats(0);
        let s2 = m.core_stats(2);
        assert_eq!(s0.stores, 2);
        assert_eq!(s0.loads, 0);
        assert_eq!(s2.loads, 1);
        assert_eq!(m.core_stats(1).loads + m.core_stats(1).stores, 0);
        assert_eq!(s0.l1d.hits, 1);
    }

    #[test]
    fn advance_is_per_core() {
        let mut m = machine(2);
        m.advance(0, 500);
        assert_eq!(m.now(0), 500);
        assert_eq!(m.now(1), 0);
    }

    /// One core over the shared L3 is the composed hierarchy: fed one
    /// seeded stream of loads and stores, both count the same hits and
    /// misses per level and send the same dirty victims to memory.
    #[test]
    fn one_core_cascades_victims_like_the_hierarchy() {
        use crate::hierarchy::{Hierarchy, ServedBy};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let cfg = MachineConfig::setup_i();
        let mut multi = MultiCoreMachine::new(cfg, 1);
        let mut hier = Hierarchy::new(&cfg);
        let mut rng = StdRng::seed_from_u64(11);
        let (mut fills, mut writebacks) = (0u64, 0u64);
        for _ in 0..200_000 {
            // 8 MiB of lines, four times the L3: dirty victims leave
            // every level.
            let addr = rng.gen_range(0..1u64 << 17) * CACHE_LINE;
            let kind = if rng.gen_bool(0.5) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            multi.line_access(0, PhysAddr::new(addr), kind, true);
            let r = hier.access(PhysAddr::new(addr), kind);
            fills += u64::from(r.served_by == ServedBy::Memory);
            writebacks += r.memory_writebacks.iter().flatten().count() as u64;
        }
        let (l1, l2, l3) = hier.level_stats();
        let core = multi.core_stats(0);
        assert_eq!((core.l1d, core.l2, multi.l3_stats()), (l1, l2, l3));
        let dram = multi.ctrl.dram();
        assert!(
            writebacks > 1000,
            "the stream evicts dirty lines: {writebacks}"
        );
        assert_eq!((dram.reads, dram.writes), (fills, writebacks));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        machine(0);
    }
}
