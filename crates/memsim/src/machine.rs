//! The simulated machine: a blocking core in front of the cache
//! hierarchy and the hybrid memory controller.
//!
//! Two access classes exist:
//!
//! * **Demand** accesses ([`Machine::load`] / [`Machine::store`])
//!   advance the core clock by their visible latency.
//! * **Injected** accesses ([`Machine::inject_load`] /
//!   [`Machine::inject_store`]) model traffic generated by hardware
//!   off the critical path — the Prosper tracker's bitmap loads and
//!   stores, Romulus's log writes, SSP's consolidation thread. They do
//!   not advance the core clock directly, but they occupy memory-bus
//!   transfer slots and pollute the caches, so demand misses queue
//!   behind them. This is exactly the interference channel the paper
//!   measures in Figure 12.

use crate::addr::{PhysAddr, VirtAddr};
use crate::cache::AccessKind;
use crate::config::MachineConfig;
use crate::hierarchy::{Hierarchy, ServedBy};
use crate::memctrl::{Device, MemoryController};
use crate::stats::MemStats;
use crate::{Cycles, CACHE_LINE};

/// Identity-style translator: virtual addresses map into DRAM modulo
/// the DRAM size. Adequate for experiments that never alias.
#[derive(Clone, Copy, Debug)]
pub struct DirectMap {
    dram_bytes: u64,
}

impl DirectMap {
    /// Builds a direct mapping over `dram_bytes` of DRAM.
    pub fn new(dram_bytes: u64) -> Self {
        assert!(dram_bytes > 0, "direct map requires non-empty DRAM");
        Self { dram_bytes }
    }

    /// Maps a virtual address to the physical address backing it.
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        PhysAddr::new(vaddr.raw() % self.dram_bytes)
    }
}

/// Bus cycles one line transfer occupies, per device and direction,
/// fixed by the configured bandwidths.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineTransfer {
    dram: Cycles,
    nvm_read: Cycles,
    nvm_write: Cycles,
}

impl LineTransfer {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let cycles = |bytes_per_cycle: f64| (CACHE_LINE as f64 / bytes_per_cycle).ceil() as Cycles;
        Self {
            dram: cycles(cfg.dram.bytes_per_cycle),
            nvm_read: cycles(cfg.nvm.read_bytes_per_cycle),
            nvm_write: cycles(cfg.nvm.write_bytes_per_cycle),
        }
    }

    /// The transfer cycles of one line to or from `device`.
    pub(crate) fn cycles(&self, device: Device, is_write: bool) -> Cycles {
        match device {
            Device::Dram => self.dram,
            Device::Nvm if is_write => self.nvm_write,
            Device::Nvm => self.nvm_read,
        }
    }
}

/// Checkpoint phase a bulk NVM write is charged to, for the
/// write-amplification accounting (`prosper.ckpt.nvm_bytes_*`).
///
/// Write amplification — NVM bytes written divided by dirty bytes — is
/// only meaningful when the writes are split by *why* they happened:
/// the stage copy is proportional to dirty bytes, the seal is a fixed
/// record, the apply rewrites staged bytes a second time in eager
/// mode, and the deferred spine merge rewrites the deduplicated
/// coverage. Tagging each bulk copy with its phase makes the ratio a
/// first-class measured quantity instead of a post-hoc estimate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CkptPhase {
    /// DRAM → NVM staging-buffer copy of dirty runs.
    Stage,
    /// Durability-point record (sequence/commit-record write).
    Seal,
    /// Staging buffer → persistent image copy (eager mode) or
    /// delta-batch append (spine mode).
    Apply,
    /// Deferred spine compaction folding sealed batches.
    Merge,
}

/// NVM bytes written per checkpoint phase (cumulative tally).
///
/// Consumers wanting per-interval figures snapshot the tally at
/// interval boundaries and difference, the same pattern
/// `ProsperMechanism` uses for lookup-table counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct NvmPhaseBytes {
    /// Bytes written by stage copies.
    pub stage: u64,
    /// Bytes written by seal records.
    pub seal: u64,
    /// Bytes written by apply copies / batch appends.
    pub apply: u64,
    /// Bytes written by spine merges.
    pub merge: u64,
}

impl NvmPhaseBytes {
    /// Total NVM bytes across all phases.
    pub fn total(&self) -> u64 {
        self.stage + self.seal + self.apply + self.merge
    }

    /// Per-phase difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &NvmPhaseBytes) -> NvmPhaseBytes {
        NvmPhaseBytes {
            stage: self.stage.saturating_sub(earlier.stage),
            seal: self.seal.saturating_sub(earlier.seal),
            apply: self.apply.saturating_sub(earlier.apply),
            merge: self.merge.saturating_sub(earlier.merge),
        }
    }
}

/// Pre-resolved telemetry handles, created at machine construction
/// only when a telemetry context is installed on that thread. `None`
/// reduces every record site to a single predictable branch.
#[derive(Debug)]
struct MachineTelemetry {
    /// Visible latency of each demand load (cycles).
    demand_load_cycles: prosper_telemetry::Histogram,
    /// Visible latency of each demand store (cycles).
    demand_store_cycles: prosper_telemetry::Histogram,
    /// Bytes moved by bulk checkpoint copies (DRAM→NVM and NVM→NVM).
    bulk_copy_bytes: prosper_telemetry::Counter,
    /// Background (injected/persist) memory operations.
    injected_ops: prosper_telemetry::Counter,
    /// NVM bytes written by stage copies.
    nvm_bytes_stage: prosper_telemetry::Counter,
    /// NVM bytes written by seal records.
    nvm_bytes_seal: prosper_telemetry::Counter,
    /// NVM bytes written by apply copies / batch appends.
    nvm_bytes_apply: prosper_telemetry::Counter,
    /// NVM bytes written by spine merges.
    nvm_bytes_merge: prosper_telemetry::Counter,
}

impl MachineTelemetry {
    fn resolve() -> Option<Self> {
        if !prosper_telemetry::enabled() {
            return None;
        }
        prosper_telemetry::with(|t| {
            let r = t.registry();
            MachineTelemetry {
                demand_load_cycles: r.histogram("prosper.mem.demand_load_cycles"),
                demand_store_cycles: r.histogram("prosper.mem.demand_store_cycles"),
                bulk_copy_bytes: r.counter("prosper.mem.bulk_copy_bytes"),
                injected_ops: r.counter("prosper.mem.injected_ops"),
                nvm_bytes_stage: r.counter("prosper.ckpt.nvm_bytes_stage"),
                nvm_bytes_seal: r.counter("prosper.ckpt.nvm_bytes_seal"),
                nvm_bytes_apply: r.counter("prosper.ckpt.nvm_bytes_apply"),
                nvm_bytes_merge: r.counter("prosper.ckpt.nvm_bytes_merge"),
            }
        })
    }

    fn nvm_phase_counter(&self, phase: CkptPhase) -> &prosper_telemetry::Counter {
        match phase {
            CkptPhase::Stage => &self.nvm_bytes_stage,
            CkptPhase::Seal => &self.nvm_bytes_seal,
            CkptPhase::Apply => &self.nvm_bytes_apply,
            CkptPhase::Merge => &self.nvm_bytes_merge,
        }
    }
}

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use prosper_memsim::config::MachineConfig;
/// use prosper_memsim::machine::Machine;
/// use prosper_memsim::addr::VirtAddr;
///
/// let mut machine = Machine::new(MachineConfig::setup_i());
/// let cold = machine.load(VirtAddr::new(0x1000), 8); // misses to DRAM
/// let warm = machine.load(VirtAddr::new(0x1000), 8); // L1 hit
/// assert!(cold > warm);
/// assert_eq!(machine.now(), cold + warm);
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    hierarchy: Hierarchy,
    ctrl: MemoryController,
    translator: DirectMap,
    transfer: LineTransfer,
    now: Cycles,
    /// Cycle at which the memory bus can accept the next line transfer.
    bus_free: Cycles,
    stats: MemStats,
    /// NVM bytes written per checkpoint phase (cumulative).
    ckpt_nvm: NvmPhaseBytes,
    tel: Option<MachineTelemetry>,
}

impl Machine {
    /// Builds an idle machine whose virtual addresses map directly
    /// into DRAM (see [`DirectMap`]).
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            hierarchy: Hierarchy::new(&cfg),
            ctrl: MemoryController::new(cfg.layout, cfg.dram, cfg.nvm),
            translator: DirectMap::new(cfg.layout.dram_bytes),
            transfer: LineTransfer::new(&cfg),
            now: 0,
            bus_free: 0,
            stats: MemStats::default(),
            ckpt_nvm: NvmPhaseBytes::default(),
            tel: MachineTelemetry::resolve(),
            cfg,
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current core cycle.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Snapshot of all counters (cache levels and devices included).
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        let (l1, l2, l3) = self.hierarchy.level_stats();
        s.l1d = l1;
        s.l2 = l2;
        s.l3 = l3;
        s.dram_reads = self.ctrl.dram().reads;
        s.dram_writes = self.ctrl.dram().writes;
        s.dram_row_hits = self.ctrl.dram().row_hits;
        s.nvm_reads = self.ctrl.nvm().reads;
        s.nvm_writes = self.ctrl.nvm().writes;
        s.nvm_write_stall_cycles = self.ctrl.nvm().write_stall_cycles;
        s.cycles = self.now;
        s
    }

    /// Advances the core clock by `cycles` of pure compute (no memory
    /// traffic).
    pub fn advance(&mut self, cycles: Cycles) {
        self.now += cycles;
    }

    /// Translates a virtual address to the physical address backing it.
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        self.translator.translate(vaddr)
    }

    /// Base physical address of the NVM region.
    pub fn nvm_base(&self) -> PhysAddr {
        self.ctrl.nvm_base()
    }

    /// Core latency of one line access that missed to memory, including
    /// bus queueing.
    fn memory_access(&mut self, addr: PhysAddr, is_write: bool, demand: bool) -> Cycles {
        let issue = self.now;
        let start = issue.max(self.bus_free);
        let queue_delay = start - issue;
        let device_latency = self.ctrl.access(start, addr, is_write);
        // The bus is occupied for the data-transfer slot only; the
        // device latency itself is pipelined across banks/buffers.
        self.bus_free = start + self.transfer.cycles(self.ctrl.device_of(addr), is_write);
        if demand {
            queue_delay + device_latency
        } else {
            // Injected traffic is off the critical path; only its bus
            // occupancy (already recorded) interferes with the core.
            0
        }
    }

    /// Runs one line-granular access through hierarchy + memory.
    fn line_access(&mut self, paddr: PhysAddr, kind: AccessKind, demand: bool) -> Cycles {
        let res = self.hierarchy.access(paddr, kind);
        let mut latency = res.cache_latency;
        if res.served_by == ServedBy::Memory {
            latency += self.memory_access(paddr, false, demand);
        }
        // Dirty L3 victims drain to memory in the background: they take
        // bus slots but do not stall the core.
        for wb in res.memory_writebacks.into_iter().flatten() {
            self.memory_access(wb, true, false);
        }
        latency
    }

    /// Splits a byte access into line accesses.
    fn lines_of(vaddr: VirtAddr, size: u64) -> impl Iterator<Item = VirtAddr> {
        let first = vaddr.cache_line().raw();
        let last = if size == 0 {
            first
        } else {
            (vaddr.raw() + size - 1) & !(CACHE_LINE - 1)
        };
        (first..=last)
            .step_by(CACHE_LINE as usize)
            .map(VirtAddr::new)
    }

    /// Issues a demand load of `size` bytes at `vaddr`; returns the
    /// visible latency and advances the core clock by it.
    pub fn load(&mut self, vaddr: VirtAddr, size: u64) -> Cycles {
        self.stats.loads += 1;
        let mut total = 0;
        for line in Self::lines_of(vaddr, size) {
            let paddr = self.translator.translate(line);
            total += self.line_access(paddr, AccessKind::Read, true);
        }
        self.now += total;
        if let Some(tel) = &self.tel {
            tel.demand_load_cycles.record(total);
        }
        total
    }

    /// Issues a demand store of `size` bytes at `vaddr`; returns the
    /// visible latency and advances the core clock by it.
    pub fn store(&mut self, vaddr: VirtAddr, size: u64) -> Cycles {
        self.stats.stores += 1;
        let mut total = 0;
        for line in Self::lines_of(vaddr, size) {
            let paddr = self.translator.translate(line);
            total += self.line_access(paddr, AccessKind::Write, true);
        }
        self.now += total;
        if let Some(tel) = &self.tel {
            tel.demand_store_cycles.record(total);
        }
        total
    }

    /// Injects a background load (tracker/off-core traffic) at `vaddr`.
    pub fn inject_load(&mut self, vaddr: VirtAddr, size: u64) {
        self.stats.injected_loads += 1;
        if let Some(tel) = &self.tel {
            tel.injected_ops.inc();
        }
        for line in Self::lines_of(vaddr, size) {
            let paddr = self.translator.translate(line);
            self.line_access(paddr, AccessKind::Read, false);
        }
    }

    /// Injects a background store at `vaddr`.
    pub fn inject_store(&mut self, vaddr: VirtAddr, size: u64) {
        self.stats.injected_stores += 1;
        if let Some(tel) = &self.tel {
            tel.injected_ops.inc();
        }
        for line in Self::lines_of(vaddr, size) {
            let paddr = self.translator.translate(line);
            self.line_access(paddr, AccessKind::Write, false);
        }
    }

    /// Injects a batch of background loads — one access of `size`
    /// bytes per address. Equivalent to calling [`Self::inject_load`]
    /// per address, but with a single stats/telemetry update for the
    /// whole batch: the interval flush path drains dozens of
    /// lookup-table entries at once, and per-op bookkeeping was
    /// measurable there.
    pub fn inject_load_batch(&mut self, addrs: &[u64], size: u64) {
        if addrs.is_empty() {
            return;
        }
        self.stats.injected_loads += addrs.len() as u64;
        if let Some(tel) = &self.tel {
            tel.injected_ops.add(addrs.len() as u64);
        }
        for &addr in addrs {
            for line in Self::lines_of(VirtAddr::new(addr), size) {
                let paddr = self.translator.translate(line);
                self.line_access(paddr, AccessKind::Read, false);
            }
        }
    }

    /// Injects a batch of background stores — one access of `size`
    /// bytes per address, with a single stats/telemetry update (see
    /// [`Self::inject_load_batch`]).
    pub fn inject_store_batch(&mut self, addrs: &[u64], size: u64) {
        if addrs.is_empty() {
            return;
        }
        self.stats.injected_stores += addrs.len() as u64;
        if let Some(tel) = &self.tel {
            tel.injected_ops.add(addrs.len() as u64);
        }
        for &addr in addrs {
            for line in Self::lines_of(VirtAddr::new(addr), size) {
                let paddr = self.translator.translate(line);
                self.line_access(paddr, AccessKind::Write, false);
            }
        }
    }

    /// Injects a background store directly at a physical address
    /// (bypassing translation), e.g. an NVM staging-buffer write issued
    /// by the OS copy engine.
    pub fn inject_store_phys(&mut self, paddr: PhysAddr, size: u64) {
        self.stats.injected_stores += 1;
        let first = paddr.cache_line().raw();
        let last = if size == 0 {
            first
        } else {
            (paddr.raw() + size - 1) & !(CACHE_LINE - 1)
        };
        for line in (first..=last).step_by(CACHE_LINE as usize) {
            self.line_access(PhysAddr::new(line), AccessKind::Write, false);
        }
    }

    /// Issues a persist write of `size` bytes at physical address
    /// `paddr` directly to the memory device, bypassing the cache
    /// hierarchy (non-temporal/persist-path semantics used for NVM
    /// shadow pages, logs, and staging buffers). Off the critical
    /// path, but occupies bus transfer slots like any other traffic.
    pub fn persist_write(&mut self, paddr: PhysAddr, size: u64) {
        self.stats.injected_stores += 1;
        let first = paddr.cache_line().raw();
        let last = if size == 0 {
            first
        } else {
            (paddr.raw() + size - 1) & !(CACHE_LINE - 1)
        };
        for line in (first..=last).step_by(CACHE_LINE as usize) {
            self.memory_access(PhysAddr::new(line), true, false);
        }
    }

    /// Executes a `clwb` on the line containing `vaddr`: the line is
    /// cleaned in all levels and, if it was dirty anywhere, written back
    /// to memory. Returns the visible latency (charged to the core).
    pub fn clwb(&mut self, vaddr: VirtAddr) -> Cycles {
        let paddr = self.translator.translate(vaddr);
        // clwb itself retires quickly; the write-back is posted.
        let mut latency = 5;
        if self.hierarchy.clwb(paddr) {
            self.memory_access(paddr, true, false);
            // An sfence-ordered clwb to NVM stalls until the device
            // accepts the line; approximate with the bus queue state.
            if self.ctrl.device_of(paddr) == Device::Nvm {
                latency += self.bus_free.saturating_sub(self.now).min(200);
            }
        }
        self.now += latency;
        latency
    }

    /// Charges a bulk DRAM→NVM copy of `bytes` (a checkpoint copy).
    /// Returns the cycles consumed; the core clock advances by them.
    pub fn bulk_copy_dram_to_nvm(&mut self, bytes: u64) -> Cycles {
        if let Some(tel) = &self.tel {
            tel.bulk_copy_bytes.add(bytes);
        }
        let cycles = self.ctrl.dram_to_nvm_copy_cycles(bytes);
        // Account device traffic at line granularity.
        let lines = bytes.div_ceil(CACHE_LINE);
        self.stats.injected_loads += lines;
        self.stats.injected_stores += lines;
        self.ctrl.nvm_mut().record_bulk_write(bytes);
        self.now += cycles;
        self.bus_free = self.bus_free.max(self.now);
        cycles
    }

    /// Charges a bulk NVM→NVM copy of `bytes` (staging-buffer apply).
    pub fn bulk_copy_nvm_to_nvm(&mut self, bytes: u64) -> Cycles {
        if let Some(tel) = &self.tel {
            tel.bulk_copy_bytes.add(bytes);
        }
        let cycles = self.ctrl.nvm_to_nvm_copy_cycles(bytes);
        self.ctrl.nvm_mut().record_bulk_write(bytes);
        self.now += cycles;
        self.bus_free = self.bus_free.max(self.now);
        cycles
    }

    /// Tallies `bytes` of NVM writes against `phase` in the
    /// write-amplification accounting and bumps the matching
    /// `prosper.ckpt.nvm_bytes_*` counter.
    fn charge_ckpt_nvm(&mut self, phase: CkptPhase, bytes: u64) {
        match phase {
            CkptPhase::Stage => self.ckpt_nvm.stage += bytes,
            CkptPhase::Seal => self.ckpt_nvm.seal += bytes,
            CkptPhase::Apply => self.ckpt_nvm.apply += bytes,
            CkptPhase::Merge => self.ckpt_nvm.merge += bytes,
        }
        if let Some(tel) = &self.tel {
            tel.nvm_phase_counter(phase).add(bytes);
        }
    }

    /// [`Machine::bulk_copy_dram_to_nvm`] with the NVM bytes charged
    /// to `phase` in the write-amplification accounting.
    pub fn bulk_copy_dram_to_nvm_phase(&mut self, bytes: u64, phase: CkptPhase) -> Cycles {
        let cycles = self.bulk_copy_dram_to_nvm(bytes);
        self.charge_ckpt_nvm(phase, bytes);
        cycles
    }

    /// [`Machine::bulk_copy_nvm_to_nvm`] with the NVM bytes charged
    /// to `phase` in the write-amplification accounting.
    pub fn bulk_copy_nvm_to_nvm_phase(&mut self, bytes: u64, phase: CkptPhase) -> Cycles {
        let cycles = self.bulk_copy_nvm_to_nvm(bytes);
        self.charge_ckpt_nvm(phase, bytes);
        cycles
    }

    /// Writes a durability record of `bytes` to NVM via the persist
    /// path (off the critical path; occupies bus slots) and charges it
    /// to the [`CkptPhase::Seal`] tally.
    pub fn persist_seal_record(&mut self, paddr: PhysAddr, bytes: u64) {
        self.persist_write(paddr, bytes);
        self.charge_ckpt_nvm(CkptPhase::Seal, bytes);
    }

    /// Cumulative NVM bytes written per checkpoint phase.
    pub fn ckpt_nvm_bytes(&self) -> NvmPhaseBytes {
        self.ckpt_nvm
    }

    /// Read-only view of the memory controller.
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// Read-only view of the cache hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Machine {
        Machine::new(MachineConfig::setup_i())
    }

    #[test]
    fn demand_load_advances_clock() {
        let mut mach = m();
        let before = mach.now();
        let lat = mach.load(VirtAddr::new(0x1000), 8);
        assert_eq!(mach.now(), before + lat);
        assert!(lat >= 3 + 12 + 20, "cold miss pays full path");
    }

    #[test]
    fn cached_load_is_l1_latency() {
        let mut mach = m();
        mach.load(VirtAddr::new(0x1000), 8);
        let lat = mach.load(VirtAddr::new(0x1000), 8);
        assert_eq!(lat, 3);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut mach = m();
        mach.load(VirtAddr::new(60), 8); // bytes 60..68 span lines 0 and 64
        assert!(mach.hierarchy().contains(PhysAddr::new(0)));
        assert!(mach.hierarchy().contains(PhysAddr::new(64)));
    }

    #[test]
    fn phase_tagged_copies_tally_write_amplification() {
        let mut mach = m();
        mach.bulk_copy_dram_to_nvm_phase(4096, CkptPhase::Stage);
        mach.persist_seal_record(PhysAddr::new(0x100), 8);
        mach.bulk_copy_nvm_to_nvm_phase(4096, CkptPhase::Apply);
        mach.bulk_copy_nvm_to_nvm_phase(1024, CkptPhase::Merge);
        let t = mach.ckpt_nvm_bytes();
        assert_eq!(
            t,
            NvmPhaseBytes {
                stage: 4096,
                seal: 8,
                apply: 4096,
                merge: 1024,
            }
        );
        assert_eq!(t.total(), 4096 + 8 + 4096 + 1024);
        assert_eq!(mach.ckpt_nvm_bytes().since(&t).total(), 0);
        // Untagged copies stay out of the phase tally.
        mach.bulk_copy_dram_to_nvm(512);
        assert_eq!(mach.ckpt_nvm_bytes(), t);
    }

    #[test]
    fn injected_ops_do_not_advance_clock_but_occupy_bus() {
        let mut mach = m();
        let t0 = mach.now();
        for i in 0..100 {
            mach.inject_store(VirtAddr::new(0x10_0000 + i * 64), 8);
        }
        assert_eq!(mach.now(), t0, "injected traffic is off the critical path");
        // A demand miss now queues behind the injected transfers.
        let lat = mach.load(VirtAddr::new(0x90_0000), 8);
        assert!(lat > 3 + 12 + 20 + 60, "demand miss saw queueing delay");
        assert_eq!(mach.stats().injected_stores, 100);
    }

    #[test]
    fn batched_injection_matches_per_op_accounting() {
        let mut per_op = m();
        let mut batched = m();
        let addrs: Vec<u64> = (0..64).map(|i| 0x10_0000 + i * 64).collect();
        for &a in &addrs {
            per_op.inject_load(VirtAddr::new(a), 4);
            per_op.inject_store(VirtAddr::new(a), 4);
        }
        batched.inject_load_batch(&addrs, 4);
        batched.inject_store_batch(&addrs, 4);
        assert_eq!(
            per_op.stats().injected_loads,
            batched.stats().injected_loads
        );
        assert_eq!(
            per_op.stats().injected_stores,
            batched.stats().injected_stores
        );
        assert_eq!(per_op.now(), batched.now(), "both stay off critical path");
        // Both leave the memory system in the same interference state.
        let a = per_op.load(VirtAddr::new(0x90_0000), 8);
        let b = batched.load(VirtAddr::new(0x90_0000), 8);
        assert_eq!(a, b);
        batched.inject_load_batch(&[], 4);
        assert_eq!(batched.stats().injected_loads, 64, "empty batch is free");
    }

    #[test]
    fn advance_models_compute() {
        let mut mach = m();
        mach.advance(1000);
        assert_eq!(mach.now(), 1000);
        assert_eq!(mach.stats().cycles, 1000);
    }

    #[test]
    fn clwb_dirty_line_costs_more_than_clean() {
        let mut mach = m();
        let a = VirtAddr::new(0x2000);
        mach.store(a, 8);
        let dirty = mach.clwb(a);
        let clean = mach.clwb(a);
        assert!(dirty >= clean);
        assert!(mach.stats().dram_writes >= 1);
    }

    #[test]
    fn bulk_copy_charges_nvm_bandwidth() {
        let mut mach = m();
        let t0 = mach.now();
        let cycles = mach.bulk_copy_dram_to_nvm(1 << 20);
        assert_eq!(mach.now() - t0, cycles);
        // 1 MiB at 0.7 B/cycle ≈ 1.5M cycles.
        assert!(cycles > 1_000_000);
    }

    #[test]
    fn persist_write_bypasses_caches() {
        let mut mach = m();
        let base = mach.nvm_base();
        let t0 = mach.now();
        for i in 0..10 {
            mach.persist_write(base + i * 64, 64);
        }
        assert_eq!(mach.now(), t0, "persist writes are off the critical path");
        assert_eq!(mach.stats().nvm_writes, 10, "each line reached the device");
        // Repeated persist writes to one line hit the device every
        // time (no cache absorption).
        for _ in 0..5 {
            mach.persist_write(base, 8);
        }
        assert_eq!(mach.stats().nvm_writes, 15);
        let wear = mach.controller().nvm().wear_stats();
        assert_eq!(wear.max_line_writes, 6);
    }

    #[test]
    fn bulk_copies_record_nvm_volume() {
        let mut mach = m();
        mach.bulk_copy_dram_to_nvm(640);
        assert_eq!(mach.stats().nvm_writes, 10);
        mach.bulk_copy_nvm_to_nvm(64);
        assert_eq!(mach.stats().nvm_writes, 11);
    }

    #[test]
    fn direct_map_translator_wraps() {
        let t = DirectMap::new(1024);
        assert_eq!(t.translate(VirtAddr::new(1030)).raw(), 6);
    }

    #[test]
    fn zero_size_access_touches_one_line() {
        let mut mach = m();
        mach.load(VirtAddr::new(0x40), 0);
        assert_eq!(mach.stats().l1d.accesses(), 1);
    }

    #[test]
    fn stats_snapshot_includes_devices() {
        let mut mach = m();
        mach.store(VirtAddr::new(0x3000), 8);
        let s = mach.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.dram_reads + s.dram_writes, 1, "miss fill read");
    }
}
