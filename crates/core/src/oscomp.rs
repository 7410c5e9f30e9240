//! The Prosper OS component (Section III-A, Figure 5).
//!
//! Implements the [`MemoryPersistence`] plug-in for the GemOS
//! checkpoint manager. Per interval the component:
//!
//! 1. programs the tracker MSRs (range, granularity, bitmap base) and
//!    resets the active-region watermark;
//! 2. lets the tracker record SOIs off the critical path (the bitmap
//!    loads/stores the lookup table emits are injected into the
//!    machine as background traffic);
//! 3. at the interval end runs the **two-step quiescence** protocol —
//!    request a flush, overlap preparation work, poll the outstanding
//!    counters;
//! 4. inspects the dirty bitmap **only over the maximum active stack
//!    region** reported by the tracker, coalescing contiguous bits
//!    into copy runs;
//! 5. copies the runs DRAM → NVM staging buffer, then applies the
//!    staging buffer to the per-thread persistent stack (two-step
//!    commit);
//! 6. clears the inspected bitmap words for the next interval.
//!
//! # Spine mode
//!
//! [`ProsperMechanism::with_spine`] switches step 5's second copy to
//! the staged-delta spine discipline (see [`crate::persist`]): the
//! sealed staging buffer is *appended* to the spine as an immutable
//! delta batch — only a per-run descriptor record is written — and the
//! full apply copy is deferred to a policy-gated **merge** that folds
//! the resident batches' deduplicated coverage in one pass. Because
//! consecutive intervals re-dirty the same hot bytes, the merge writes
//! far fewer NVM bytes than the eager per-interval applies it
//! replaces, which is exactly the write-amplification win the
//! machine's per-phase tally ([`Machine::ckpt_nvm_bytes`]) measures.
//!
//! The cycle model keeps no batches of its own, only their
//! `SpineShape`: the same type the data plane builds from its
//! resident batches, so the descriptor count, the one batch rule (an
//! idle interval seals no batch) and the merge decision are the data
//! plane's by construction.

use prosper_gemos::checkpoint::{CheckpointOutcome, IntervalInfo, MemoryPersistence};
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::machine::{CkptPhase, Machine};
use prosper_memsim::Cycles;
use prosper_trace::record::MemAccess;

use prosper_telemetry as telemetry;

use crate::adaptive::GranularityAdapter;
use crate::bitmap::{BitmapGeometry, CopyRun, PAGE_SPAN_BYTES};
use crate::lookup::{partition_ops, BitmapOp};
use crate::msr::{MSR_READ_CYCLES, MSR_WRITE_CYCLES};
use crate::persist::{SpineConfig, SpineShape};
use crate::tracker::{DirtyTracker, TrackerConfig};

/// Fixed per-run overhead of the copy loop (loop control, address
/// arithmetic, issuing the copy) in cycles.
const PER_RUN_OVERHEAD: Cycles = 60;

/// Bytes of the durability-point record sealed per interval (the
/// commit sequence write).
const SEAL_RECORD_BYTES: u64 = 8;

/// Bytes of the fixed header a spine delta-batch append persists
/// (sequence number and run count — the staged data itself is
/// already in NVM).
const BATCH_HEADER_BYTES: u64 = 16;

/// Bytes per *coalesced* run descriptor in a spine delta-batch
/// append. Seal-time coalescing leaves each batch's runs sorted,
/// disjoint, and granule-aligned, so the descriptor table
/// delta-encodes them as (granule gap from the previous run's end,
/// granule length) — one u16 pair per run instead of the 16 B
/// (start, length) pair an unsorted table would need. This is what
/// flipped the sparse many-tiny-runs pattern from losing on write
/// amplification to winning.
const PACKED_DESC_BYTES: u64 = 4;

/// Cycles for the OS to poll the status MSR until quiescent. The
/// functional tracker quiesces immediately, so a single poll suffices;
/// the paper overlaps preparation work here.
const QUIESCE_POLL_CYCLES: Cycles = MSR_READ_CYCLES;

/// Virtual address where the OS places the per-thread bitmap area.
const DEFAULT_BITMAP_BASE: u64 = 0x1000_0000;

/// Bitmap word addresses containing at least one set bit, derived from
/// the inspection's coalesced runs (ascending, deduplicated). With the
/// summary-indexed bitmap the OS touches exactly these words — clean
/// words in the window are never loaded or written back.
fn dirty_word_addrs(geom: &BitmapGeometry, runs: &[CopyRun], out: &mut Vec<u64>) {
    out.clear();
    for run in runs {
        debug_assert!(run.len > 0, "runs are never empty");
        let (first, _) = geom.locate(run.start);
        let (last, _) = geom.locate(run.start + (run.len - 1));
        let mut w = first;
        // Adjacent runs can share a word; runs are address-ordered, so
        // resuming past the previous word deduplicates.
        if let Some(&prev) = out.last() {
            if w <= prev {
                w = prev + 4;
            }
        }
        while w <= last {
            out.push(w);
            w += 4;
        }
    }
}

/// Collapses word addresses into the eight-byte-aligned addresses the
/// OS actually issues (the paper reads the bitmap eight bytes — two
/// 32-bit words — at a time), deduplicated.
fn paired_addrs(words: &[u64], out: &mut Vec<u64>) {
    out.clear();
    for &w in words {
        let pair = w & !7;
        if out.last() != Some(&pair) {
            out.push(pair);
        }
    }
}

/// Per-interval statistics for the Figure 10/11 analyses.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProsperIntervalStats {
    /// Copy runs produced by inspection.
    pub runs: u64,
    /// Bytes copied to NVM.
    pub bytes: u64,
    /// Bitmap words read during inspection (dirty words only — the
    /// summary index skips clean spans).
    pub words_read: u64,
    /// Bitmap words cleared.
    pub words_cleared: u64,
    /// Bitmap pages probed to cover the inspection window.
    pub pages_probed: u64,
    /// Spine merges performed (0 or 1 per interval; spine mode only).
    pub merges: u64,
    /// Deduplicated bytes written by spine merges (spine mode only).
    pub merged_bytes: u64,
}

/// Cycle timestamps bracketing the checkpoint phases of one interval,
/// recorded into per-phase telemetry histograms.
#[derive(Clone, Copy, Default, Debug)]
struct PhaseCycles {
    /// Bitmap walk + dirty-word loads.
    inspect: Cycles,
    /// Cleared-word write-back stores.
    clear: Cycles,
    /// DRAM → NVM staging-buffer copy.
    stage: Cycles,
    /// Staging buffer → persistent stack copy (eager mode) or
    /// delta-batch descriptor append (spine mode).
    apply: Cycles,
    /// Deferred spine compaction (spine mode only).
    merge: Cycles,
}

/// Prosper as a pluggable memory-persistence mechanism.
#[derive(Debug)]
pub struct ProsperMechanism {
    tracker: DirtyTracker,
    bitmap_base: VirtAddr,
    /// Aggregate of all interval stats.
    pub totals: ProsperIntervalStats,
    /// Stats of the most recent interval.
    pub last_interval: ProsperIntervalStats,
    /// Runs of the most recent interval (for data-plane consumers).
    last_runs: Vec<CopyRun>,
    /// Optional dynamic-granularity policy (future-work extension).
    granularity_adapter: Option<GranularityAdapter>,
    /// Scratch: bitmap ops the tracker emits for one store.
    store_ops: Vec<BitmapOp>,
    /// Scratch: load addresses of the current injected-op batch.
    op_loads: Vec<u64>,
    /// Scratch: store addresses of the current injected-op batch.
    op_stores: Vec<u64>,
    /// Scratch: dirty bitmap word addresses of the current interval.
    word_scratch: Vec<u64>,
    /// Scratch: paired eight-byte access addresses.
    pair_scratch: Vec<u64>,
    /// Stall attribution sink plus the tid charged for checkpoint
    /// stalls, if wired (the stack-only manager runs one thread).
    attribution: Option<(std::sync::Arc<prosper_telemetry::StallAccountant>, u32)>,
    /// Monotone interval counter, used as the attribution sequence.
    interval_seq: u64,
    /// Staged-delta spine policy and the shape of the resident
    /// batches; `None` keeps the eager apply copy.
    spine: Option<(SpineConfig, SpineShape)>,
}

impl ProsperMechanism {
    /// Builds the mechanism with the given tracker configuration.
    pub fn new(cfg: TrackerConfig) -> Self {
        Self {
            tracker: DirtyTracker::new(cfg),
            bitmap_base: VirtAddr::new(DEFAULT_BITMAP_BASE),
            totals: ProsperIntervalStats::default(),
            last_interval: ProsperIntervalStats::default(),
            last_runs: Vec::new(),
            granularity_adapter: None,
            store_ops: Vec::new(),
            op_loads: Vec::new(),
            op_stores: Vec::new(),
            word_scratch: Vec::new(),
            pair_scratch: Vec::new(),
            attribution: None,
            interval_seq: 0,
            spine: None,
        }
    }

    /// Wires a stall accountant into the checkpoint path: every
    /// interval's quiesce/inspect/stage/apply phases are charged to
    /// `tid` as cause-tagged segments under one stall window,
    /// advancing the accountant's virtual clock by the simulated
    /// cycle cost of each phase (1 cycle = 1 virtual ns), so the
    /// micro-workload tax report is fully deterministic.
    pub fn set_attribution(
        &mut self,
        acct: std::sync::Arc<prosper_telemetry::StallAccountant>,
        tid: u32,
    ) {
        self.attribution = Some((acct, tid));
    }

    /// Builds the mechanism with the paper's default configuration
    /// (16-entry table, HWM 24, LWM 8, 8-byte granularity).
    pub fn with_defaults() -> Self {
        Self::new(TrackerConfig::default())
    }

    /// Switches the interval commit to the staged-delta spine: the
    /// sealed staging buffer is appended as a delta batch (descriptor
    /// write only) and the apply copy is deferred to a policy-gated
    /// merge of the deduplicated coverage.
    pub fn with_spine(mut self, cfg: SpineConfig) -> Self {
        self.spine = Some((cfg, SpineShape::default()));
        self
    }

    /// The spine policy, if spine mode is enabled.
    pub fn spine_config(&self) -> Option<SpineConfig> {
        self.spine.as_ref().map(|(cfg, _)| *cfg)
    }

    /// Delta batches currently resident on the spine.
    pub fn spine_batches(&self) -> usize {
        self.spine.as_ref().map_or(0, |(_, shape)| shape.batches())
    }

    /// Enables the OS-layer dynamic-granularity policy (the extension
    /// the paper suggests for Stream-like workloads).
    pub fn with_adaptive_granularity(mut self) -> Self {
        self.granularity_adapter = Some(GranularityAdapter::starting_at(
            self.tracker.config().granularity,
        ));
        self
    }

    /// Current tracking granularity (changes over time under the
    /// adaptive policy).
    pub fn current_granularity(&self) -> u64 {
        self.tracker.config().granularity
    }

    /// The underlying tracker (for Figure 12/13 counters).
    pub fn tracker(&self) -> &DirtyTracker {
        &self.tracker
    }

    /// Copy runs produced by the most recent checkpoint (data-plane
    /// consumers mirror these into a persistent stack store).
    pub fn last_runs(&self) -> &[CopyRun] {
        &self.last_runs
    }

    /// Injects tracker-emitted bitmap traffic into the machine as
    /// background (off-critical-path) operations, batched into one
    /// load group and one store group per drain.
    fn inject_ops(&mut self, machine: &mut Machine, ops: &[BitmapOp]) {
        if ops.is_empty() {
            return;
        }
        partition_ops(ops, &mut self.op_loads, &mut self.op_stores);
        machine.inject_load_batch(&self.op_loads, 4);
        machine.inject_store_batch(&self.op_stores, 4);
    }

    /// Records the just-finished interval's per-phase cycles into the
    /// installed telemetry context's histograms. Runs only at interval
    /// boundaries, never on the per-store path.
    fn report_phase_cycles(&self, phases: PhaseCycles) {
        telemetry::with(|t| {
            let r = t.registry();
            r.histogram("prosper.ckpt.phase.inspect_cycles")
                .record(phases.inspect);
            r.histogram("prosper.ckpt.phase.clear_cycles")
                .record(phases.clear);
            r.histogram("prosper.ckpt.phase.stage_cycles")
                .record(phases.stage);
            r.histogram("prosper.ckpt.phase.apply_cycles")
                .record(phases.apply);
            if self.spine.is_some() {
                r.histogram("prosper.ckpt.phase.merge_cycles")
                    .record(phases.merge);
            }
        });
    }
}

impl MemoryPersistence for ProsperMechanism {
    fn name(&self) -> &'static str {
        "Prosper"
    }

    fn begin_interval(&mut self, machine: &mut Machine, region: VirtRange) {
        // Program the four configuration MSRs + control.
        self.tracker.configure(region, self.bitmap_base);
        self.tracker.reset_watermark();
        machine.advance(5 * MSR_WRITE_CYCLES);
    }

    fn on_store(&mut self, machine: &mut Machine, access: &MemAccess) {
        // The tracker snoops the store without stalling it; only the
        // coalesced bitmap traffic reaches the memory system.
        let mut ops = std::mem::take(&mut self.store_ops);
        ops.clear();
        self.tracker
            .observe_store(access.vaddr, u64::from(access.size), &mut ops);
        self.inject_ops(machine, &ops);
        self.store_ops = ops;
    }

    fn end_interval(&mut self, machine: &mut Machine, info: IntervalInfo) -> CheckpointOutcome {
        let ckpt_start = machine.now();
        let tel = telemetry::enabled();

        // Step 1: request the flush (control MSR write); inject the
        // drained lookup-table entries.
        if tel {
            telemetry::span_begin(
                telemetry::names::SPAN_CKPT_QUIESCE,
                "prosper",
                machine.now(),
            );
        }
        machine.advance(MSR_WRITE_CYCLES);
        let ops = self.tracker.flush();
        self.inject_ops(machine, &ops);

        // Step 2: the OS overlaps preparation, then polls quiescence.
        machine.advance(QUIESCE_POLL_CYCLES);
        debug_assert!(self.tracker.quiescent());
        if tel {
            telemetry::span_end(telemetry::names::SPAN_CKPT_QUIESCE, machine.now());
        }

        // Inspection window: the tracker's watermark bounds the active
        // region; nothing dirty ⇒ nothing to walk.
        let meta_start = machine.now();
        let mut phases = PhaseCycles::default();
        if tel {
            telemetry::span_begin(telemetry::names::SPAN_CKPT_SCAN, "prosper", meta_start);
        }
        let mut stats = ProsperIntervalStats::default();
        self.last_runs.clear();
        if let Some(dirty) = self.tracker.dirty_window() {
            // The tracker's watermarks bound every set bit exactly, so
            // inspection never walks past the dirty window — crucial
            // when tracking a large heap range.
            let lo = dirty.start().max(info.region.start());
            let hi = dirty.end().min(info.region.end()).max(lo);
            let window = VirtRange::new(lo, hi);
            let geom = self.tracker.geometry();
            let ins = self.tracker.bitmap_mut().inspect_and_clear_into(
                &geom,
                window,
                &mut self.last_runs,
            );
            stats.words_read = ins.words_read;
            stats.words_cleared = ins.words_cleared;
            stats.pages_probed = ins.pages_probed;
            if !window.is_empty() {
                // The OS consults the per-page summary index first (one
                // touch per bitmap page covering the window)...
                let first_word = geom.locate(window.start()).0;
                let last_word = geom.locate(window.end() - 1u64).0;
                let mut page = first_word & !(PAGE_SPAN_BYTES - 1);
                while page <= last_word {
                    machine.load(VirtAddr::new(page.max(first_word)), 8);
                    page += PAGE_SPAN_BYTES;
                }
            }
            // ...then loads only the dirty words it steers to, eight
            // bytes (two 32-bit words) at a time.
            dirty_word_addrs(&geom, &self.last_runs, &mut self.word_scratch);
            debug_assert_eq!(
                self.word_scratch.len() as u64,
                ins.words_read,
                "runs and word accounting agree"
            );
            paired_addrs(&self.word_scratch, &mut self.pair_scratch);
            for &addr in &self.pair_scratch {
                machine.load(VirtAddr::new(addr), 8);
            }
            phases.inspect = machine.now() - meta_start;
            if tel {
                telemetry::span_end(telemetry::names::SPAN_CKPT_SCAN, machine.now());
                telemetry::span_begin(telemetry::names::SPAN_CKPT_CLEAR, "prosper", machine.now());
            }
            // Write back the cleared words at the same paired
            // addresses — the clear traffic spreads across the dirty
            // words' cache lines exactly like the read traffic.
            let clear_start = machine.now();
            for &addr in &self.pair_scratch {
                machine.store(VirtAddr::new(addr), 8);
            }
            phases.clear = machine.now() - clear_start;
            if tel {
                telemetry::span_end(telemetry::names::SPAN_CKPT_CLEAR, machine.now());
            }
        } else if tel {
            telemetry::span_end(telemetry::names::SPAN_CKPT_SCAN, machine.now());
        }
        let metadata_cycles = machine.now() - meta_start;

        // Two-step copy: DRAM → NVM staging buffer, then staging →
        // per-thread persistent stack (both in NVM).
        if tel {
            telemetry::span_begin(telemetry::names::SPAN_CKPT_COPY, "prosper", machine.now());
        }
        let stage_start = machine.now();
        let mut bytes = 0u64;
        for run in &self.last_runs {
            machine.advance(PER_RUN_OVERHEAD);
            machine.bulk_copy_dram_to_nvm_phase(run.len, CkptPhase::Stage);
            bytes += run.len;
        }
        phases.stage = machine.now() - stage_start;
        if tel {
            telemetry::span_end(telemetry::names::SPAN_CKPT_COPY, machine.now());
            telemetry::span_begin(telemetry::names::SPAN_CKPT_APPLY, "prosper", machine.now());
        }
        // Seal: the durability-point sequence record, written via the
        // posted persist path (bus traffic, no core stall).
        let seal_paddr = machine.translate(VirtAddr::new(DEFAULT_BITMAP_BASE));
        machine.persist_seal_record(seal_paddr, SEAL_RECORD_BYTES);
        let apply_start = machine.now();
        if let Some((_, shape)) = self.spine.as_mut() {
            // Spine mode: append the sealed batch — only the run
            // descriptors hit NVM; the staged payload stays where the
            // stage copy put it. The apply copy vanishes from the
            // interval's critical path. An idle interval seals no
            // batch.
            let spans = self
                .last_runs
                .iter()
                .map(|r| (r.start.raw(), r.start.raw() + r.len));
            let descs = shape.push(spans) as u64;
            if descs > 0 {
                let desc_bytes = BATCH_HEADER_BYTES + descs * PACKED_DESC_BYTES;
                machine.bulk_copy_nvm_to_nvm_phase(desc_bytes, CkptPhase::Apply);
            }
        } else if bytes > 0 {
            machine.bulk_copy_nvm_to_nvm_phase(bytes, CkptPhase::Apply);
        }
        phases.apply = machine.now() - apply_start;
        if tel {
            telemetry::span_end(telemetry::names::SPAN_CKPT_APPLY, machine.now());
        }

        // Deferred merge: when the policy fires, fold the resident
        // batches' deduplicated coverage into the persistent image in
        // one pass and retire the spine.
        let merge_start = machine.now();
        if let Some((cfg, shape)) = self.spine.as_mut() {
            if shape.should_merge(cfg) {
                let distinct = shape.distinct_bytes();
                let folded = shape.batches() as u64;
                *shape = SpineShape::default();
                machine.advance(PER_RUN_OVERHEAD * folded);
                if distinct > 0 {
                    machine.bulk_copy_nvm_to_nvm_phase(distinct, CkptPhase::Merge);
                }
                stats.merges = 1;
                stats.merged_bytes = distinct;
            }
        }
        phases.merge = machine.now() - merge_start;

        // Stall attribution: the foreground thread is stalled for the
        // whole interval; one stall window charges each phase its
        // simulated cycles (1 cycle = 1 ns), so conservation holds by
        // construction.
        let seq = self.interval_seq;
        self.interval_seq += 1;
        if let Some((acct, tid)) = self.attribution.as_ref() {
            use prosper_telemetry::{Stall, StallCause};
            let tids = [*tid];
            let merged = phases.merge > 0;
            let mut stall = Stall::open(Some(&**acct), &tids, seq, StallCause::Quiesce);
            stall.end(|_| meta_start - ckpt_start, Some(StallCause::Inspect));
            stall.end(|_| metadata_cycles, Some(StallCause::Stage));
            stall.end(|_| phases.stage, Some(StallCause::Apply));
            stall.end(|_| phases.apply, merged.then_some(StallCause::Merge));
            if merged {
                stall.end(|_| phases.merge, None);
            }
            stall.close();
        }

        stats.runs = self.last_runs.len() as u64;
        stats.bytes = bytes;
        self.last_interval = stats;
        self.totals.runs += stats.runs;
        self.totals.bytes += stats.bytes;
        self.totals.words_read += stats.words_read;
        self.totals.words_cleared += stats.words_cleared;
        self.totals.pages_probed += stats.pages_probed;
        self.totals.merges += stats.merges;
        self.totals.merged_bytes += stats.merged_bytes;

        // Adaptive granularity: the inspection above cleared every set
        // bit (the watermark bounds all dirty state), so retuning the
        // geometry here is safe. The MSR rewrite costs a WRMSR.
        if let Some(adapter) = self.granularity_adapter.as_mut() {
            let next = adapter.observe(stats.runs, stats.bytes);
            if next != self.tracker.config().granularity {
                self.tracker.set_granularity(next);
                machine.advance(MSR_WRITE_CYCLES);
                if tel {
                    telemetry::instant("prosper.retune.granularity", machine.now());
                }
            }
        }

        if tel {
            self.report_phase_cycles(phases);
        }

        CheckpointOutcome {
            bytes_copied: bytes,
            cycles: machine.now() - ckpt_start,
            metadata_cycles,
        }
    }

    fn region_in_dram(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosper_gemos::checkpoint::CheckpointManager;
    use prosper_memsim::config::MachineConfig;
    use prosper_trace::micro::{MicroBench, MicroSpec};
    use prosper_trace::workloads::{Workload, WorkloadProfile};

    fn run_micro(
        spec: MicroSpec,
        cfg: TrackerConfig,
        intervals: u64,
    ) -> (ProsperIntervalStats, u64) {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 30_000);
        let mut mech = ProsperMechanism::new(cfg);
        let bench = MicroBench::new(spec, 7);
        let res = mgr.run_stack_only(bench, &mut mech, intervals);
        (mech.totals, res.bytes_copied)
    }

    /// Runs `spec` on a fresh machine, returning the mechanism and
    /// the machine's per-phase NVM byte tally after the run.
    fn run_with_phases(
        spec: MicroSpec,
        mech: &mut ProsperMechanism,
        intervals: u64,
    ) -> prosper_memsim::NvmPhaseBytes {
        let mut machine = Machine::new(MachineConfig::setup_i());
        {
            let mut mgr = CheckpointManager::new(&mut machine, 30_000);
            let bench = MicroBench::new(spec, 7);
            mgr.run_stack_only(bench, mech, intervals);
        }
        machine.ckpt_nvm_bytes()
    }

    #[test]
    fn spine_mode_defers_apply_and_cuts_write_amplification() {
        // Stream re-dirties the same array every interval, so the
        // spine's batches overlap heavily and the merge dedups them.
        let spec = MicroSpec::Stream { array_bytes: 8192 };
        let mut eager_mech = ProsperMechanism::with_defaults();
        let eager = run_with_phases(spec, &mut eager_mech, 6);
        let mut spine_mech = ProsperMechanism::with_defaults().with_spine(SpineConfig::default());
        let spine = run_with_phases(spec, &mut spine_mech, 6);

        assert_eq!(spine.stage, eager.stage, "stage copies are identical");
        assert_eq!(spine.seal, eager.seal, "one seal record per interval");
        assert!(
            spine.apply < eager.apply,
            "batch append ({}) beats the eager apply copy ({})",
            spine.apply,
            eager.apply
        );
        assert!(spine_mech.totals.merges > 0, "the overlap policy fired");
        assert_eq!(eager_mech.totals.merges, 0, "eager mode never merges");
        assert!(spine.merge > 0, "merges wrote the deduplicated coverage");
        assert!(
            spine.merge < eager.apply,
            "merge writes the distinct coverage, not every batch"
        );
        assert!(
            spine.total() < eager.total(),
            "write amplification strictly lower: spine {} vs eager {}",
            spine.total(),
            eager.total()
        );
        assert_eq!(
            spine_mech.spine_config(),
            Some(SpineConfig::default()),
            "policy is observable"
        );
    }

    /// Forwards stores to the mechanism, except in interval `IDLE`,
    /// and mirrors them into a one-stack data plane that commits the
    /// mechanism's runs after every interval.
    struct Mirrored {
        mech: ProsperMechanism,
        plane: crate::recovery::PersistentProcess,
        interval: usize,
        /// Per interval: (cycle-model batches, data-plane batches, runs).
        after: Vec<(usize, usize, usize)>,
    }

    const IDLE: usize = 3;

    impl MemoryPersistence for Mirrored {
        fn name(&self) -> &'static str {
            self.mech.name()
        }

        fn begin_interval(&mut self, machine: &mut Machine, region: VirtRange) {
            self.mech.begin_interval(machine, region);
        }

        fn on_store(&mut self, machine: &mut Machine, access: &MemAccess) {
            if self.interval != IDLE {
                self.mech.on_store(machine, access);
                let bytes = [self.interval as u8 + 1; 8];
                let len = access.size.min(8) as usize;
                self.plane.record_store(0, access.vaddr, &bytes[..len]);
            }
        }

        fn end_interval(&mut self, machine: &mut Machine, info: IntervalInfo) -> CheckpointOutcome {
            let out = self.mech.end_interval(machine, info);
            let runs = self.mech.last_runs().to_vec();
            let n = runs.len();
            self.plane.commit(&[(0, runs)].into());
            let (cycle, data) = (self.mech.spine_batches(), self.plane.spine_batches());
            self.after.push((cycle, data, n));
            self.interval += 1;
            out
        }
    }

    #[test]
    fn cycle_model_and_data_plane_hold_the_same_batches() {
        use prosper_trace::source::TraceSource;
        for cfg in [
            SpineConfig::merge_always(),
            SpineConfig::default(),
            SpineConfig::lazy(3),
        ] {
            let source = Workload::new(WorkloadProfile::mcf(), 5);
            let range = source.stack().reserved_range();
            let mut m = Mirrored {
                mech: ProsperMechanism::with_defaults().with_spine(cfg),
                plane: crate::recovery::PersistentProcess::new_with_spine(&[range], cfg),
                interval: 0,
                after: Vec::new(),
            };
            let mut machine = Machine::new(MachineConfig::setup_i());
            CheckpointManager::new(&mut machine, 30_000).run_stack_only(source, &mut m, 10);
            assert_eq!(m.after.len(), 10, "{cfg:?}");
            for (i, &(cycle, data, runs)) in m.after.iter().enumerate() {
                assert_eq!(
                    i == IDLE,
                    runs == 0,
                    "{cfg:?}: only interval {IDLE} is idle"
                );
                assert_eq!(
                    cycle, data,
                    "{cfg:?}: interval {i}: cycle model holds {cycle} batches, data plane {data}"
                );
            }
            assert!(m.mech.totals.merges > 0, "{cfg:?}: the policy never fired");
            assert_eq!(m.plane.verify_coherent(), Ok(10));
        }
    }

    #[test]
    fn lazy_spine_accumulates_batches_until_count_pressure() {
        let spec = MicroSpec::Sparse { pages: 16 };
        let mut mech = ProsperMechanism::with_defaults().with_spine(SpineConfig::lazy(64));
        run_with_phases(spec, &mut mech, 3);
        assert_eq!(mech.totals.merges, 0, "lazy policy never fired");
        assert!(
            mech.spine_batches() > 0,
            "unmerged batches stay resident on the spine"
        );
    }

    #[test]
    fn end_to_end_copies_dirty_bytes() {
        let (totals, bytes) = run_micro(
            MicroSpec::Stream { array_bytes: 8192 },
            TrackerConfig::default(),
            3,
        );
        assert!(bytes > 0);
        assert_eq!(totals.bytes, bytes);
        assert!(totals.runs > 0);
        assert!(totals.words_read >= totals.words_cleared);
    }

    #[test]
    fn sparse_copies_far_less_than_page_granularity_would() {
        let (totals, _) = run_micro(MicroSpec::Sparse { pages: 16 }, TrackerConfig::default(), 2);
        // 16 pages × 2 intervals at page granularity would be ≥128 KiB;
        // Prosper copies the few dirtied bytes (4 B data + activation
        // records per frame, rounded to 8 B granules).
        assert!(
            totals.bytes < 32 * 1024,
            "sparse checkpoint stayed small: {} B",
            totals.bytes
        );
    }

    #[test]
    fn coarser_granularity_copies_more() {
        let spec = MicroSpec::Sparse { pages: 16 };
        let (fine, _) = run_micro(spec, TrackerConfig::default().with_granularity(8), 2);
        let (coarse, _) = run_micro(spec, TrackerConfig::default().with_granularity(128), 2);
        assert!(
            coarse.bytes >= fine.bytes,
            "coarse {} >= fine {}",
            coarse.bytes,
            fine.bytes
        );
    }

    #[test]
    fn quiescent_after_every_interval() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 20_000);
        let mut mech = ProsperMechanism::with_defaults();
        let w = Workload::new(WorkloadProfile::gapbs_pr(), 1);
        mgr.run_stack_only(w, &mut mech, 4);
        assert!(mech.tracker().quiescent());
        assert_eq!(mech.tracker().resident_entries(), 0);
    }

    #[test]
    fn no_stack_stores_means_free_checkpoint() {
        // A "workload" that never stores to the stack: end_interval
        // must skip inspection entirely (watermark is None).
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mech = ProsperMechanism::with_defaults();
        let region = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7010_0000));
        mech.begin_interval(&mut machine, region);
        let info = IntervalInfo {
            region,
            active: region,
            final_sp: region.end(),
        };
        let outcome = mech.end_interval(&mut machine, info);
        assert_eq!(outcome.bytes_copied, 0);
        assert_eq!(mech.last_interval.words_read, 0);
    }

    #[test]
    fn adaptive_granularity_changes_config_between_intervals() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 40_000);
        let mut mech = ProsperMechanism::with_defaults().with_adaptive_granularity();
        assert_eq!(mech.current_granularity(), 8);
        let bench = MicroBench::new(
            MicroSpec::Stream {
                array_bytes: 64 * 1024,
            },
            3,
        );
        mgr.run_stack_only(bench, &mut mech, 6);
        assert!(
            mech.current_granularity() > 8,
            "dense Stream coarsens: {}",
            mech.current_granularity()
        );
    }

    #[test]
    fn inspection_window_is_bounded_by_dirty_extent() {
        // A single store at a known address must produce a one-word
        // inspection, not a walk of the whole reserved range.
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mech = ProsperMechanism::with_defaults();
        let region = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7080_0000));
        mech.begin_interval(&mut machine, region);
        let a = prosper_trace::record::MemAccess {
            tid: 0,
            kind: prosper_trace::record::AccessKind::Store,
            vaddr: region.start() + 0x40_0000,
            size: 8,
            region: prosper_trace::record::Region::Stack,
            sp: region.start(),
        };
        mech.on_store(&mut machine, &a);
        let info = IntervalInfo {
            region,
            active: region,
            final_sp: region.start(),
        };
        let outcome = mech.end_interval(&mut machine, info);
        assert_eq!(outcome.bytes_copied, 8);
        assert_eq!(
            mech.last_interval.words_read, 1,
            "dirty window bounds the walk to one bitmap word"
        );
    }

    #[test]
    fn metadata_traffic_targets_dirty_words_and_spreads_lines() {
        // Regression (twice over): clear stores must not all land on
        // one cache line, and with the summary-indexed bitmap the
        // read/clear traffic must target exactly the dirty words — no
        // window walk.
        let g = BitmapGeometry {
            range_start: VirtAddr::new(0x7000_0000),
            bitmap_base: VirtAddr::new(0x1000_0000),
            granularity: 8,
        };
        let mut words = Vec::new();
        let mut pairs = Vec::new();
        // One run covering 32 contiguous words (1024 granules).
        let dense = [CopyRun {
            start: VirtAddr::new(0x7000_0000),
            len: 32 * g.bytes_per_word(),
        }];
        dirty_word_addrs(&g, &dense, &mut words);
        assert_eq!(words.len(), 32);
        paired_addrs(&words, &mut pairs);
        assert_eq!(pairs.len(), 16, "two words per eight-byte access");
        let spread = pairs.iter().max().unwrap() - pairs.iter().min().unwrap();
        assert_eq!(spread, 15 * 8, "accesses advance through the window");
        let unique: std::collections::BTreeSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), pairs.len(), "no address repeats");
        let lines: std::collections::BTreeSet<_> = pairs.iter().map(|a| a / 64).collect();
        assert!(
            lines.len() >= 2,
            "a 32-word clear spans multiple cache lines, got {lines:?}"
        );
        // Two sparse runs touch their own two words, not the span
        // between them.
        let sparse = [
            CopyRun {
                start: VirtAddr::new(0x7000_0000),
                len: 8,
            },
            CopyRun {
                start: VirtAddr::new(0x7000_0000) + 100 * g.bytes_per_word(),
                len: 8,
            },
        ];
        dirty_word_addrs(&g, &sparse, &mut words);
        assert_eq!(words, vec![0x1000_0000, 0x1000_0000 + 100 * 4]);
        // Adjacent runs inside one word do not double-count it.
        let adjacent = [
            CopyRun {
                start: VirtAddr::new(0x7000_0000),
                len: 16,
            },
            CopyRun {
                start: VirtAddr::new(0x7000_0000 + 24),
                len: 8,
            },
        ];
        dirty_word_addrs(&g, &adjacent, &mut words);
        assert_eq!(words.len(), 1);
        dirty_word_addrs(&g, &[], &mut words);
        assert!(words.is_empty());
        paired_addrs(&words, &mut pairs);
        assert!(pairs.is_empty());
    }

    #[test]
    fn tracker_traffic_is_injected_not_charged() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mech = ProsperMechanism::with_defaults();
        let region = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7010_0000));
        mech.begin_interval(&mut machine, region);
        // Scatter stores across many bitmap words to force evictions.
        for i in 0..2000u64 {
            let a = prosper_trace::record::MemAccess {
                tid: 0,
                kind: prosper_trace::record::AccessKind::Store,
                vaddr: region.start() + (i * 509) % 0x10_0000,
                size: 8,
                region: prosper_trace::record::Region::Stack,
                sp: region.start(),
            };
            mech.on_store(&mut machine, &a);
        }
        let s = machine.stats();
        assert!(
            s.injected_loads + s.injected_stores > 0,
            "evictions produced bitmap traffic"
        );
    }
}
