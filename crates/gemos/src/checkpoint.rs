//! The OS checkpoint subsystem: the [`MemoryPersistence`] plug-in
//! trait and the [`CheckpointManager`] experiment driver.
//!
//! The paper's GemOS baseline captures all process state incrementally
//! at fixed consistency intervals (10 ms by default). The mutable
//! memory segments (stack, heap) are persisted by a pluggable
//! *mechanism* per region — Prosper, Dirtybit, SSP, Romulus, … — and
//! the register state is appended to every checkpoint. The manager
//! replays a workload trace through the machine model, invokes the
//! per-store hooks of each region's mechanism, and runs the
//! end-of-interval commit protocol, accumulating the costs that become
//! Figures 8–11.
//!
//! # The model worker
//!
//! While it replays an interval, the manager posts the machine
//! operations whose results nobody on that path reads — compute
//! advances, TLB walks, NVM-residence penalties, the demand loads and
//! stores, and whatever the mechanisms' store hooks post — through the
//! machine's posting window (see `prosper_memsim::machine`), so one
//! worker thread per run applies them to the model state while this
//! thread generates the trace and runs the hooks. The window closes
//! before anything reads machine state: before `end_interval`, the
//! register copy and `begin_interval`, so the commit runs with the
//! worker parked and every simulated number is the inline one. The
//! window opens only when the host has more than one core and every
//! region's mechanism declares a store hook that only posts
//! ([`MemoryPersistence::store_hook_only_posts`]).

use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::machine::Machine;
use prosper_memsim::tlb::Tlb;
use prosper_memsim::{host_parallelism, Cycles};
use prosper_telemetry as telemetry;
use prosper_trace::interval::IntervalCollector;
use prosper_trace::record::{AccessKind, MemAccess, Region, TraceEvent};
use prosper_trace::source::TraceSource;
use serde::{Deserialize, Serialize};

use crate::process::RegisterFile;

/// Outcome of one end-of-interval checkpoint for one region.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CheckpointOutcome {
    /// Bytes copied into NVM by this checkpoint.
    pub bytes_copied: u64,
    /// Cycles spent in the checkpoint operation (metadata inspection,
    /// clearing, and data copy).
    pub cycles: Cycles,
    /// The metadata-processing share of `cycles` (bitmap or page-table
    /// inspection and clearing).
    pub metadata_cycles: Cycles,
}

impl CheckpointOutcome {
    /// Sums two outcomes (e.g. stack + heap regions).
    pub fn merge(self, other: CheckpointOutcome) -> CheckpointOutcome {
        CheckpointOutcome {
            bytes_copied: self.bytes_copied + other.bytes_copied,
            cycles: self.cycles + other.cycles,
            metadata_cycles: self.metadata_cycles + other.metadata_cycles,
        }
    }
}

/// Context handed to [`MemoryPersistence::end_interval`].
#[derive(Clone, Copy, Debug)]
pub struct IntervalInfo {
    /// The tracked region (e.g. the reserved stack range).
    pub region: VirtRange,
    /// Maximum active stack region of the interval: `[min_sp, top)`.
    /// For non-stack regions this equals `region`.
    pub active: VirtRange,
    /// SP at the end of the interval (stack regions only).
    pub final_sp: VirtAddr,
}

/// A memory-persistence mechanism for one region of a process.
///
/// Implemented by Prosper (`prosper-core`) and by every baseline
/// (`prosper-baselines`). Mechanisms charge their runtime costs to the
/// [`Machine`]:
///
/// * costs on the store critical path (log writes, `clwb`s, NVM
///   residence penalties) are charged inside [`Self::on_store`];
/// * background traffic (tracker bitmap stores, consolidation threads)
///   is injected off the critical path;
/// * checkpoint-time costs are charged inside [`Self::end_interval`].
pub trait MemoryPersistence {
    /// Mechanism name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Prepares tracking state for a new interval (reset dirty bits,
    /// clear bitmaps, write-protect pages, ...).
    fn begin_interval(&mut self, machine: &mut Machine, region: VirtRange);

    /// Observes one store into the tracked region, charging any
    /// critical-path cost to the machine.
    fn on_store(&mut self, machine: &mut Machine, access: &MemAccess);

    /// Commits the interval: persists the region's modifications and
    /// returns what it cost.
    fn end_interval(&mut self, machine: &mut Machine, info: IntervalInfo) -> CheckpointOutcome;

    /// `true` if the mechanism keeps the tracked region in DRAM
    /// (Prosper, Dirtybit); `false` if the region must live in NVM
    /// (SSP, Romulus, flush/undo/redo), which adds NVM latency to every
    /// demand access (Table I, "Allows stack in DRAM").
    fn region_in_dram(&self) -> bool {
        true
    }

    /// `true` if [`Self::on_store`] only posts to the machine: it calls
    /// nothing but the calls that return nothing ([`Machine::advance`],
    /// `post_load`/`post_store`, the `inject_*` calls,
    /// [`Machine::persist_write`]) and the front-end queries
    /// (`nvm_base`, `translate`, `config`). The manager may then replay
    /// through the machine's posting window, where reading the clock,
    /// the counters or a latency panics. A hook that reads machine
    /// state says `false` and is replayed inline.
    fn store_hook_only_posts(&self) -> bool {
        true
    }
}

/// A no-op mechanism: the region is volatile, nothing is persisted.
/// Used as the "no persistence" normalisation baseline in Figures 8–10.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoPersistence;

impl MemoryPersistence for NoPersistence {
    fn name(&self) -> &'static str {
        "None"
    }

    fn begin_interval(&mut self, _machine: &mut Machine, _region: VirtRange) {}

    fn on_store(&mut self, _machine: &mut Machine, _access: &MemAccess) {}

    fn end_interval(&mut self, _machine: &mut Machine, _info: IntervalInfo) -> CheckpointOutcome {
        CheckpointOutcome::default()
    }
}

/// Aggregate result of a checkpointed run.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Total simulated cycles including checkpoint time.
    pub total_cycles: Cycles,
    /// Cycles spent inside end-of-interval checkpoints.
    pub checkpoint_cycles: Cycles,
    /// Metadata share of the checkpoint cycles.
    pub metadata_cycles: Cycles,
    /// Bytes copied to NVM across all checkpoints.
    pub bytes_copied: u64,
    /// Number of completed intervals.
    pub intervals: u64,
    /// Stack stores observed.
    pub stack_stores: u64,
    /// Heap stores observed.
    pub heap_stores: u64,
}

impl RunResult {
    /// Mean checkpoint size in bytes.
    pub fn mean_checkpoint_bytes(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.bytes_copied as f64 / self.intervals as f64
        }
    }

    /// Mean cycles per checkpoint.
    pub fn mean_checkpoint_cycles(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.checkpoint_cycles as f64 / self.intervals as f64
        }
    }
}

/// Per-access latency penalty (cycles) charged when a region lives in
/// NVM instead of DRAM: the demand access bypasses the DRAM assumption
/// of the machine model and pays the device difference. Derived from
/// the PCM vs DDR4 read-latency gap net of cache hits; kept
/// deliberately moderate because most accesses still hit in cache.
const NVM_RESIDENCE_STORE_PENALTY: Cycles = 6;
const NVM_RESIDENCE_LOAD_PENALTY: Cycles = 2;

/// Drives a workload through the machine with per-region persistence
/// mechanisms, at a fixed checkpoint interval.
pub struct CheckpointManager<'m> {
    machine: &'m mut Machine,
    interval_budget: Cycles,
    /// Data TLB consulted by every demand access (mechanism-neutral
    /// translation costs).
    tlb: Tlb,
    /// Open the posting window even on a one-core host.
    force_window: bool,
}

impl<'m> std::fmt::Debug for CheckpointManager<'m> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointManager")
            .field("interval_budget", &self.interval_budget)
            .field("force_window", &self.force_window)
            .finish()
    }
}

impl<'m> CheckpointManager<'m> {
    /// Creates a manager charging work to `machine`, with the given
    /// per-interval cycle budget.
    ///
    /// # Panics
    ///
    /// Panics if `interval_budget` is zero.
    pub fn new(machine: &'m mut Machine, interval_budget: Cycles) -> Self {
        assert!(interval_budget > 0, "interval budget must be positive");
        Self {
            machine,
            interval_budget,
            tlb: Tlb::new(64),
            force_window: false,
        }
    }

    /// Opens the posting window whatever the host's core count, so the
    /// window's tests run on one CPU too. A run whose mechanisms do not
    /// all declare [`MemoryPersistence::store_hook_only_posts`] still
    /// replays inline.
    #[doc(hidden)]
    pub fn force_window(mut self) -> Self {
        self.force_window = true;
        self
    }

    /// Replays one trace event through the machine, invoking the store
    /// hooks of the stack and (optionally) heap mechanisms. Every
    /// machine call here returns nothing, so inside a posting window
    /// each one is posted to the model worker.
    /// `stack_in_dram` and `heap_in_dram` are the mechanisms'
    /// [`MemoryPersistence::region_in_dram`] answers.
    fn replay_event(
        machine: &mut Machine,
        tlb: &mut Tlb,
        ev: TraceEvent,
        stack_mech: &mut dyn MemoryPersistence,
        heap_mech: Option<&mut (dyn MemoryPersistence + '_)>,
        (stack_in_dram, heap_in_dram): (bool, bool),
        result: &mut RunResult,
    ) {
        let a = match ev {
            TraceEvent::Compute(c) => return machine.advance(c),
            TraceEvent::Access(a) => a,
        };
        let walk = tlb.access(a.vaddr);
        if walk > 0 {
            machine.advance(walk);
        }
        match a.kind {
            AccessKind::Load => {
                machine.post_load(a.vaddr, u64::from(a.size));
                let in_dram = match a.region {
                    Region::Stack => stack_in_dram,
                    Region::Heap => heap_in_dram,
                    Region::Other => true,
                };
                if !in_dram {
                    machine.advance(NVM_RESIDENCE_LOAD_PENALTY);
                }
            }
            AccessKind::Store => {
                machine.post_store(a.vaddr, u64::from(a.size));
                match a.region {
                    Region::Stack => {
                        result.stack_stores += 1;
                        if !stack_in_dram {
                            machine.advance(NVM_RESIDENCE_STORE_PENALTY);
                        }
                        stack_mech.on_store(machine, &a);
                    }
                    Region::Heap => {
                        result.heap_stores += 1;
                        if let Some(m) = heap_mech {
                            if !heap_in_dram {
                                machine.advance(NVM_RESIDENCE_STORE_PENALTY);
                            }
                            m.on_store(machine, &a);
                        }
                    }
                    Region::Other => {}
                }
            }
        }
    }

    /// Runs `intervals` checkpoint intervals of `source` with
    /// `stack_mech` persisting the stack and, if provided, `heap_mech`
    /// persisting the heap region.
    ///
    /// Every checkpoint also persists the register state (one
    /// [`RegisterFile::CHECKPOINT_BYTES`] write per thread), as the
    /// GemOS baseline does.
    ///
    /// The replay of each interval runs through a posting window on one
    /// model worker per run (see the module docs) when the host and the
    /// mechanisms allow it; the worker is joined before this returns,
    /// also when a mechanism panics.
    pub fn run<S: TraceSource>(
        &mut self,
        source: S,
        stack_mech: &mut dyn MemoryPersistence,
        heap_mech: Option<&mut dyn MemoryPersistence>,
        heap_region: VirtRange,
        intervals: u64,
    ) -> RunResult {
        let post_only = stack_mech.store_hook_only_posts()
            && heap_mech.as_ref().is_none_or(|m| m.store_hook_only_posts());
        let windowed = post_only && (self.force_window || host_parallelism() > 1);
        let budget = self.interval_budget;
        let tlb = &mut self.tlb;
        let replay = |machine: &mut Machine| {
            Self::run_intervals(
                machine,
                tlb,
                budget,
                windowed,
                source,
                stack_mech,
                heap_mech,
                heap_region,
                intervals,
            )
        };
        if windowed {
            self.machine.with_worker(replay)
        } else {
            replay(self.machine)
        }
    }

    /// The body of [`Self::run`], replaying through a posting window if
    /// `windowed` (a worker is then attached to `machine`).
    #[allow(clippy::too_many_arguments)]
    fn run_intervals<S: TraceSource>(
        machine: &mut Machine,
        tlb: &mut Tlb,
        budget: Cycles,
        windowed: bool,
        source: S,
        stack_mech: &mut dyn MemoryPersistence,
        mut heap_mech: Option<&mut dyn MemoryPersistence>,
        heap_region: VirtRange,
        intervals: u64,
    ) -> RunResult {
        let stack_region = source.stack().reserved_range();
        let stack_top = source.stack().top();
        let mut collector = IntervalCollector::new(source, budget);
        let mut result = RunResult::default();

        stack_mech.begin_interval(machine, stack_region);
        if let Some(m) = heap_mech.as_deref_mut() {
            m.begin_interval(machine, heap_region);
        }

        let tel = telemetry::enabled();
        for _ in 0..intervals {
            // Each event is replayed as the source yields it; the
            // interval is never buffered.
            let in_dram = (
                stack_mech.region_in_dram(),
                heap_mech.as_ref().is_none_or(|m| m.region_in_dram()),
            );
            if windowed {
                machine.open_window();
            }
            let bounds = collector.stream_interval(|ev| {
                Self::replay_event(
                    machine,
                    tlb,
                    ev,
                    stack_mech,
                    heap_mech.as_deref_mut(),
                    in_dram,
                    &mut result,
                )
            });
            // Everything below reads machine state.
            if windowed {
                machine.close_window();
            }

            let ckpt_start = machine.now();
            // The whole commit is one span; each region's mechanism
            // commit nests inside, categorised by mechanism name so
            // baselines are covered without their own instrumentation.
            if tel {
                telemetry::span_begin(telemetry::names::SPAN_CKPT_INTERVAL, "ckpt", ckpt_start);
            }
            // Stack region commit.
            let info = IntervalInfo {
                region: stack_region,
                active: VirtRange::new(bounds.min_sp, stack_top),
                final_sp: bounds.final_sp,
            };
            if tel {
                telemetry::span_begin(
                    telemetry::names::SPAN_CKPT_COMMIT_STACK,
                    stack_mech.name(),
                    machine.now(),
                );
            }
            let mut outcome = stack_mech.end_interval(machine, info);
            if tel {
                telemetry::span_end(telemetry::names::SPAN_CKPT_COMMIT_STACK, machine.now());
            }
            // Heap region commit.
            if let Some(m) = heap_mech.as_deref_mut() {
                let hinfo = IntervalInfo {
                    region: heap_region,
                    active: heap_region,
                    final_sp: bounds.final_sp,
                };
                if tel {
                    telemetry::span_begin(
                        telemetry::names::SPAN_CKPT_COMMIT_HEAP,
                        m.name(),
                        machine.now(),
                    );
                }
                outcome = outcome.merge(m.end_interval(machine, hinfo));
                if tel {
                    telemetry::span_end(telemetry::names::SPAN_CKPT_COMMIT_HEAP, machine.now());
                }
            }
            // Register state goes into every checkpoint.
            let reg_bytes = RegisterFile::CHECKPOINT_BYTES;
            if tel {
                telemetry::span_begin(telemetry::names::SPAN_CKPT_REGISTERS, "ckpt", machine.now());
            }
            machine.bulk_copy_dram_to_nvm(reg_bytes);
            if tel {
                telemetry::span_end(telemetry::names::SPAN_CKPT_REGISTERS, machine.now());
            }

            // Prepare the next interval.
            stack_mech.begin_interval(machine, stack_region);
            if let Some(m) = heap_mech.as_deref_mut() {
                m.begin_interval(machine, heap_region);
            }

            let ckpt_cycles = machine.now() - ckpt_start;
            if tel {
                telemetry::span_end(telemetry::names::SPAN_CKPT_INTERVAL, machine.now());
            }
            result.checkpoint_cycles += ckpt_cycles;
            result.metadata_cycles += outcome.metadata_cycles;
            result.bytes_copied += outcome.bytes_copied;
            result.intervals += 1;
        }
        result.total_cycles = machine.now();
        result
    }

    /// Convenience: runs with only a stack mechanism.
    pub fn run_stack_only<S: TraceSource>(
        &mut self,
        source: S,
        stack_mech: &mut dyn MemoryPersistence,
        intervals: u64,
    ) -> RunResult {
        let dummy_heap = VirtRange::new(VirtAddr::new(0), VirtAddr::new(0));
        self.run(source, stack_mech, None, dummy_heap, intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosper_memsim::config::MachineConfig;
    use prosper_trace::workloads::{Workload, WorkloadProfile};

    /// A toy mechanism that copies a fixed 4 KiB per interval.
    #[derive(Default, Debug)]
    struct FixedCopy {
        begins: u64,
        stores_seen: u64,
    }

    impl MemoryPersistence for FixedCopy {
        fn name(&self) -> &'static str {
            "FixedCopy"
        }

        fn begin_interval(&mut self, _m: &mut Machine, _r: VirtRange) {
            self.begins += 1;
        }

        fn on_store(&mut self, _m: &mut Machine, _a: &MemAccess) {
            self.stores_seen += 1;
        }

        fn end_interval(&mut self, m: &mut Machine, _i: IntervalInfo) -> CheckpointOutcome {
            let cycles = m.bulk_copy_dram_to_nvm(4096);
            CheckpointOutcome {
                bytes_copied: 4096,
                cycles,
                metadata_cycles: 0,
            }
        }
    }

    #[test]
    fn manager_runs_intervals_and_accumulates() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 20_000);
        let w = Workload::new(WorkloadProfile::gapbs_pr(), 1);
        let mut mech = FixedCopy::default();
        let res = mgr.run_stack_only(w, &mut mech, 5);
        assert_eq!(res.intervals, 5);
        assert_eq!(res.bytes_copied, 5 * 4096);
        assert!(res.checkpoint_cycles > 0);
        assert!(res.total_cycles > res.checkpoint_cycles);
        assert!(res.stack_stores > 0);
        assert_eq!(mech.begins, 6, "one begin per interval plus the initial");
        assert_eq!(mech.stores_seen, res.stack_stores);
    }

    #[test]
    fn no_persistence_copies_only_registers() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 20_000);
        let w = Workload::new(WorkloadProfile::gapbs_pr(), 1);
        let mut none = NoPersistence;
        let res = mgr.run_stack_only(w, &mut none, 3);
        assert_eq!(res.bytes_copied, 0);
        assert_eq!(res.intervals, 3);
    }

    #[test]
    fn nvm_resident_mechanism_is_slower() {
        #[derive(Debug)]
        struct NvmResident;
        impl MemoryPersistence for NvmResident {
            fn name(&self) -> &'static str {
                "NvmResident"
            }
            fn begin_interval(&mut self, _m: &mut Machine, _r: VirtRange) {}
            fn on_store(&mut self, _m: &mut Machine, _a: &MemAccess) {}
            fn end_interval(&mut self, _m: &mut Machine, _i: IntervalInfo) -> CheckpointOutcome {
                CheckpointOutcome::default()
            }
            fn region_in_dram(&self) -> bool {
                false
            }
        }

        let run = |mech: &mut dyn MemoryPersistence| {
            let mut machine = Machine::new(MachineConfig::setup_i());
            let mut mgr = CheckpointManager::new(&mut machine, 20_000);
            let w = Workload::new(WorkloadProfile::gapbs_pr(), 1);
            mgr.run_stack_only(w, mech, 5).total_cycles
        };
        let dram = run(&mut NoPersistence);
        let nvm = run(&mut NvmResident);
        assert!(
            nvm > dram,
            "NVM residence must cost cycles: {nvm} vs {dram}"
        );
    }

    #[test]
    fn heap_mechanism_sees_only_heap_stores() {
        #[derive(Default, Debug)]
        struct Counter {
            stores: u64,
            heap_addrs_ok: bool,
        }
        impl Counter {
            fn new() -> Self {
                Self {
                    stores: 0,
                    heap_addrs_ok: true,
                }
            }
        }
        impl MemoryPersistence for Counter {
            fn name(&self) -> &'static str {
                "Counter"
            }
            fn begin_interval(&mut self, _m: &mut Machine, _r: VirtRange) {}
            fn on_store(&mut self, _m: &mut Machine, a: &MemAccess) {
                self.stores += 1;
                if a.region != prosper_trace::record::Region::Heap {
                    self.heap_addrs_ok = false;
                }
            }
            fn end_interval(&mut self, _m: &mut Machine, _i: IntervalInfo) -> CheckpointOutcome {
                CheckpointOutcome::default()
            }
        }

        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 20_000);
        let w = Workload::new(WorkloadProfile::ycsb_mem(), 2);
        let heap_region = VirtRange::new(
            VirtAddr::new(0x5555_0000_0000),
            VirtAddr::new(0x5556_0000_0000),
        );
        let mut stack = NoPersistence;
        let mut heap = Counter::new();
        let res = mgr.run(w, &mut stack, Some(&mut heap), heap_region, 4);
        assert_eq!(heap.stores, res.heap_stores);
        assert!(heap.stores > 0);
        assert!(heap.heap_addrs_ok, "heap hook only sees heap stores");
    }

    #[test]
    fn metadata_cycles_bounded_by_checkpoint_cycles() {
        #[derive(Debug)]
        struct MetaHeavy;
        impl MemoryPersistence for MetaHeavy {
            fn name(&self) -> &'static str {
                "MetaHeavy"
            }
            fn begin_interval(&mut self, _m: &mut Machine, _r: VirtRange) {}
            fn on_store(&mut self, _m: &mut Machine, _a: &MemAccess) {}
            fn end_interval(&mut self, m: &mut Machine, _i: IntervalInfo) -> CheckpointOutcome {
                let start = m.now();
                m.advance(500);
                let metadata_cycles = m.now() - start;
                m.bulk_copy_dram_to_nvm(256);
                CheckpointOutcome {
                    bytes_copied: 256,
                    cycles: m.now() - start,
                    metadata_cycles,
                }
            }
        }
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 20_000);
        let w = Workload::new(WorkloadProfile::gapbs_pr(), 3);
        let mut mech = MetaHeavy;
        let res = mgr.run_stack_only(w, &mut mech, 3);
        assert!(res.metadata_cycles > 0);
        assert!(res.metadata_cycles <= res.checkpoint_cycles);
        assert_eq!(res.bytes_copied, 3 * 256);
    }

    /// Records whether each store hook ran inside a posting window and
    /// reads the clock when `reads` is set (and then says so). With
    /// `inline` set it says its hook reads the machine although it does
    /// not, which makes the inline reference run.
    #[derive(Default, Debug)]
    struct Probe {
        reads: bool,
        inline: bool,
        windowed: u64,
        unwindowed: u64,
        panic_after: Option<u64>,
    }

    impl MemoryPersistence for Probe {
        fn name(&self) -> &'static str {
            "Probe"
        }
        fn begin_interval(&mut self, m: &mut Machine, _r: VirtRange) {
            m.advance(3);
        }
        fn on_store(&mut self, m: &mut Machine, a: &MemAccess) {
            if self.panic_after == Some(self.windowed + self.unwindowed) {
                panic!("store hook failed");
            }
            if m.window_open() {
                self.windowed += 1;
            } else {
                self.unwindowed += 1;
            }
            if self.reads {
                let _ = m.now();
            }
            m.inject_store(a.vaddr, 4);
            m.persist_write(m.nvm_base(), 8);
        }
        fn end_interval(&mut self, m: &mut Machine, _i: IntervalInfo) -> CheckpointOutcome {
            let cycles = m.bulk_copy_dram_to_nvm(512);
            CheckpointOutcome {
                bytes_copied: 512,
                cycles,
                metadata_cycles: 0,
            }
        }
        fn store_hook_only_posts(&self) -> bool {
            !self.reads && !self.inline
        }
    }

    /// Runs `probe` over gapbs_pr, with the window forced open if
    /// `force`.
    fn probe_run(probe: &mut Probe, force: bool) -> (RunResult, prosper_memsim::stats::MemStats) {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 20_000);
        if force {
            mgr = mgr.force_window();
        }
        let res = mgr.run_stack_only(Workload::new(WorkloadProfile::gapbs_pr(), 4), probe, 4);
        (res, machine.stats())
    }

    #[test]
    fn the_posting_window_changes_no_simulated_number() {
        let mut inline = Probe {
            inline: true,
            ..Probe::default()
        };
        let mut posted = Probe::default();
        let a = probe_run(&mut inline, true);
        let b = probe_run(&mut posted, true);
        assert_eq!(a, b);
        assert_eq!(inline.windowed, 0);
        assert_eq!(posted.unwindowed, 0, "every hook ran inside the window");
        assert_eq!(posted.windowed, inline.unwindowed);
        let mut auto = Probe::default();
        assert_eq!(probe_run(&mut auto, false), a);
        assert_eq!(auto.windowed > 0, host_parallelism() > 1);
    }

    #[test]
    fn a_hook_that_reads_the_machine_replays_inline() {
        let mut probe = Probe {
            reads: true,
            ..Probe::default()
        };
        let (res, _) = probe_run(&mut probe, true);
        assert_eq!(probe.windowed, 0);
        assert_eq!(probe.unwindowed, res.stack_stores);
    }

    #[test]
    fn a_hook_that_panics_inside_the_window_propagates_its_panic() {
        let mut probe = Probe {
            panic_after: Some(5_000),
            ..Probe::default()
        };
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe_run(&mut probe, true)));
        let err = res.expect_err("the hook's panic reaches the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"store hook failed"));
        assert_eq!(probe.windowed, 5_000);
    }

    #[test]
    #[should_panic(expected = "interval budget must be positive")]
    fn zero_interval_budget_rejected() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        CheckpointManager::new(&mut machine, 0);
    }

    #[test]
    fn outcome_merge_adds_fields() {
        let a = CheckpointOutcome {
            bytes_copied: 10,
            cycles: 20,
            metadata_cycles: 5,
        };
        let b = CheckpointOutcome {
            bytes_copied: 1,
            cycles: 2,
            metadata_cycles: 1,
        };
        let m = a.merge(b);
        assert_eq!(m.bytes_copied, 11);
        assert_eq!(m.cycles, 22);
        assert_eq!(m.metadata_cycles, 6);
    }

    #[test]
    fn run_result_means() {
        let r = RunResult {
            bytes_copied: 100,
            checkpoint_cycles: 50,
            intervals: 10,
            ..Default::default()
        };
        assert!((r.mean_checkpoint_bytes() - 10.0).abs() < 1e-12);
        assert!((r.mean_checkpoint_cycles() - 5.0).abs() < 1e-12);
        assert_eq!(RunResult::default().mean_checkpoint_bytes(), 0.0);
    }
}
