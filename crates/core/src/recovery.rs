//! Whole-process recovery: registers + per-thread persistent stacks
//! under one commit boundary.
//!
//! The paper's end-to-end solution checkpoints *all* process state
//! (Section III-D: "The GemOS baseline checkpoint mechanism captures
//! all process states (including the stack) in an incremental manner
//! and stores them in the NVM"). [`PersistentProcess`] is that
//! facade: one `commit` captures every thread's registers and stack
//! runs atomically with respect to recovery — after a crash, the
//! recovered registers and memory always belong to the *same*
//! checkpoint.
//!
//! # The two-phase whole-process commit
//!
//! A naive commit that applies each thread's stack checkpoint and then
//! the register checkpoint independently is torn by a mid-commit
//! crash: thread 0's stack recovers at sequence N+1 while thread 1's
//! stack — or the registers — recover at N. The protocol here extends
//! the paper's two-step stack commit (Section III-B, Figure 6) to the
//! whole process:
//!
//! 1. **Stage**: every thread's dirty runs are copied into its NVM
//!    staging buffer, and the register file is staged into a process
//!    commit record — nothing is applied yet.
//! 2. **Seal**: the process commit record is sealed with one durable
//!    write. This is the commit point: a crash before it discards all
//!    staging (recovery sees sequence N), a crash after it redoes the
//!    apply from the staged state (recovery sees N+1). Either way all
//!    threads and the registers land on the *same* sequence.
//! 3. **Apply**: each staging buffer is applied to its persistent
//!    stack, then every thread's register slot is written; finally the
//!    record is retired.
//!
//! # One commit engine
//!
//! [`PersistentProcess::commit_with`] is the only body of that
//! protocol. [`PersistentProcess::commit`] is a thin wrapper around
//! it, and recovery's redo of a sealed record reuses its phase-two and
//! register-tail step. Every per-stack pass runs on the calling
//! thread, one stack at a time in tid order, so a commit crosses its
//! boundaries in one deterministic sequence. Crash windows, probe
//! events and stall attribution are [`CommitHooks`] on that one body:
//! every step boundary is a named [`CrashSite`] observed by an
//! attached [`FaultInjector`], so the exhaustive crash-point sweep in
//! [`crate::faultinject`] fires a simulated power failure inside the
//! schedule production commits run, and asserts the invariants above.
//!
//! # Spine mode (staged-delta spine)
//!
//! With a [`SpineConfig`] installed
//! ([`PersistentProcess::new_with_spine`]), phase two changes shape:
//! instead of copying each sealed staging buffer into the persistent
//! image, every stack retires its buffer as an immutable delta batch
//! appended to its spine (`PersistentStack::seal_to_spine`, an O(1)
//! pointer swing) — the apply copy disappears from the commit critical
//! path. The seal remains the sole durability point and the register
//! tail is unchanged, so crash atomicity is identical to eager mode.
//! A deferred, policy-gated merge ([`PersistentStack::should_merge`])
//! then folds spines newest-wins into the persistent images off the
//! critical path, charged to [`StallCause::Merge`]; the engine crosses
//! the merge crash windows from the hook of the one fold body,
//! `PersistentStack::merge_spine_with`. Recovery folds any
//! surviving spine the same way, so the recovered image is always
//! byte-identical to what eager apply would have produced (the
//! differential proptests pin this). Merge never crosses an unsealed
//! batch: only sealed-and-appended batches are ever folded, and a
//! crash between merge steps is recovered by simply re-merging — each
//! completed prefix of the newest-first fold writes a value-identical
//! subset of the full fold.

use std::collections::BTreeMap;

use prosper_telemetry as telemetry;
use prosper_telemetry::{Stall, StallAccountant, StallCause};

use prosper_gemos::crash::{CrashInjected, CrashSite, FaultInjector};
use prosper_gemos::process::RegisterFile;
use prosper_gemos::restore::{NoValidCheckpoint, ProcessCheckpointStore};
use prosper_memsim::addr::VirtRange;

use crate::bitmap::CopyRun;
use crate::persist::{MergeStats, PersistentStack, SpineConfig};

/// The NVM process commit record: the staged register file plus the
/// seal marker whose single durable write is the whole-process commit
/// point.
#[derive(Clone, Debug)]
struct ProcessCommitRecord {
    /// Sequence this commit will carry once sealed.
    sequence: u64,
    /// Registers of every thread as staged in phase one.
    staged_regs: Vec<RegisterFile>,
    /// Written last in phase one; a crash before this leaves the whole
    /// commit discardable.
    sealed: bool,
}

/// One protocol-boundary event recorded by a [`CommitProbe`] during a
/// commit. The event stream is the observable ordering of the
/// stage → seal → apply protocol: `prosper-analysis` checks it against
/// the same happens-before invariants its interleaving explorer
/// enforces on the protocol model (all stages before the seal, the
/// seal before all applies, no overlap across sequence numbers).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitProbeEvent {
    /// The engine finished staging thread `tid`'s runs for `sequence`.
    StageThread {
        /// Thread whose runs were staged.
        tid: u32,
        /// Sequence the commit will carry.
        sequence: u64,
    },
    /// The coordinator sealed the process commit record — the single
    /// serial commit point.
    Seal {
        /// Sequence the seal committed.
        sequence: u64,
    },
    /// The engine finished applying thread `tid`'s staging buffer (or,
    /// in spine mode, appending it to the spine).
    ApplyThread {
        /// Thread whose staging buffer was applied.
        tid: u32,
        /// Sequence being applied.
        sequence: u64,
    },
    /// The commit record was retired; the commit is complete.
    Retire {
        /// Sequence that completed.
        sequence: u64,
    },
    /// Deferred spine merge: thread `tid`'s spine was folded into its
    /// persistent image, covering every batch up to and including
    /// `upto`. Merges only ever run between commits — never across an
    /// unsealed batch — which the `prosper-analysis` order checker
    /// enforces on this event.
    MergeThread {
        /// Thread whose spine was folded.
        tid: u32,
        /// Highest committed sequence the fold covered.
        upto: u64,
    },
}

/// Collects [`CommitProbeEvent`]s from the commit engine.
///
/// The engine records each boundary as it crosses it, on the calling
/// thread, so the recorded order is the order the protocol ran in, not
/// a reconstruction.
#[derive(Debug, Default)]
pub struct CommitProbe {
    log: std::cell::RefCell<Vec<CommitProbeEvent>>,
}

impl CommitProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, ev: CommitProbeEvent) {
        self.log.borrow_mut().push(ev);
    }

    /// The events recorded so far, in observation order.
    pub fn events(&self) -> Vec<CommitProbeEvent> {
        self.log.borrow().clone()
    }
}

/// Deterministic virtual-time cost model of the commit engine (see
/// `prosper_telemetry::attribution`).
///
/// The engine advances the [`StallAccountant`]'s virtual clock by
/// these modelled costs as each phase ends, so attributed timelines
/// are byte-identical across runs. A per-stack pass costs
/// [`commit_cost::PHASE_BASE_NS`] plus every stack's share. Units are
/// virtual ns; the values are loosely calibrated to the simulator's
/// cycle costs — they only need to be *stable*, not accurate, because
/// the conservation invariant holds under any clock.
pub mod commit_cost {
    /// Fixed per-phase dispatch overhead.
    pub const PHASE_BASE_NS: u64 = 100;
    /// Staging: per staged run. A modelled figure, not a measured one:
    /// the columnar staging buffer made a staged run cheaper on the
    /// host, but the attribution virtual clock (and so `prosper_obs`)
    /// reads this constant, so it stays until a calibration sweep fits
    /// every constant here together (ROADMAP.md item 5).
    pub const STAGE_RUN_NS: u64 = 60;
    /// Staging: per staged byte.
    pub const STAGE_BYTE_NS: u64 = 1;
    /// The single durable seal write.
    pub const SEAL_NS: u64 = 250;
    /// Coordinator bookkeeping per thread: staging one thread's
    /// register file into the process commit record. Charged to the
    /// **seal** phase — it is serialization-point work, not staging
    /// work (PR 7 regression: the stage stopwatch used to absorb it).
    pub const BOOKKEEP_SLOT_NS: u64 = 20;
    /// Apply: per staged run. Modelled and kept unchanged for the same
    /// reason as [`STAGE_RUN_NS`].
    pub const APPLY_RUN_NS: u64 = 40;
    /// Apply: per staged byte.
    pub const APPLY_BYTE_NS: u64 = 1;
    /// Apply: per register slot (the serial tail).
    pub const REGISTER_SLOT_NS: u64 = 30;
    /// Spine mode: retiring one sealed staging buffer as an immutable
    /// delta batch — a pointer swing plus one durable batch-header
    /// write. This O(1) cost replaces the per-byte apply copy on the
    /// commit critical path; the difference is the headline win the
    /// perf suite's `spine` section measures.
    pub const BATCH_APPEND_NS: u64 = 80;
    /// Spine merge: per deduplicated run written by a fold step.
    pub const MERGE_RUN_NS: u64 = 40;
    /// Spine merge: per deduplicated byte written by a fold step.
    pub const MERGE_BYTE_NS: u64 = 1;
    /// Recovery redo: per staged run replayed.
    pub const RECOVERY_RUN_NS: u64 = 50;
    /// Recovery redo: per staged byte replayed.
    pub const RECOVERY_BYTE_NS: u64 = 1;
    /// Recovery fixed overhead (record scan + register restore).
    pub const RECOVERY_BASE_NS: u64 = 400;
}

/// Optional observers of one [`PersistentProcess::commit_with`] call;
/// `Default` attaches none.
#[derive(Debug, Default)]
pub struct CommitHooks<'a> {
    /// Crash windows: the injector observes every protocol boundary
    /// the commit crosses, in order, and may fire a simulated power
    /// failure at one of them.
    pub faults: Option<&'a mut FaultInjector>,
    /// Protocol-order witness: receives a [`CommitProbeEvent`] at
    /// every stage, seal, apply, retire and merge.
    pub probe: Option<&'a CommitProbe>,
    /// Stall attribution: every phase is charged to every thread as a
    /// cause-tagged segment, inside one stall window per sequence.
    pub acct: Option<&'a StallAccountant>,
}

/// Crosses crash window `site` through the attached injector, if
/// any: a firing aborts the interrupted operation exactly as a power
/// failure would — persistent state is left as-is and the operation
/// never continues.
fn cross(faults: &mut Option<&mut FaultInjector>, site: CrashSite) -> Result<(), CrashInjected> {
    faults.as_deref_mut().map_or(Ok(()), |inj| inj.cross(site))
}

/// Thread `tid`'s share of `batch` at `per_run_ns` a run and
/// `per_byte_ns` a byte (none for a thread the batch does not cover).
fn share_cost(
    batch: &BTreeMap<u32, Vec<CopyRun>>,
    tid: u32,
    per_run_ns: u64,
    per_byte_ns: u64,
) -> u64 {
    batch.get(&tid).map_or(0, |runs| {
        runs.iter().map(|r| per_run_ns + r.len * per_byte_ns).sum()
    })
}

/// A process whose registers and stacks are persisted together.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
///
/// use prosper_core::bitmap::CopyRun;
/// use prosper_core::recovery::PersistentProcess;
/// use prosper_memsim::addr::{VirtAddr, VirtRange};
///
/// let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7001_0000));
/// let mut p = PersistentProcess::new(&[range]);
/// p.record_store(0, VirtAddr::new(0x7000_0100), b"saved");
/// let run = CopyRun { start: VirtAddr::new(0x7000_0100), len: 8 };
/// p.commit(&BTreeMap::from([(0, vec![run])]));
/// p.crash();
/// assert_eq!(p.recover().unwrap().sequence, 1);
/// assert_eq!(p.stack(0).volatile().read(VirtAddr::new(0x7000_0100), 5), b"saved");
/// ```
#[derive(Debug)]
pub struct PersistentProcess {
    registers: ProcessCheckpointStore,
    stacks: BTreeMap<u32, PersistentStack>,
    /// Live register state per thread (what a checkpoint captures).
    live_regs: Vec<RegisterFile>,
    /// NVM: the in-flight commit record, if a commit was interrupted.
    pending: Option<ProcessCommitRecord>,
    /// NVM: sequence number the next commit will use.
    next_sequence: u64,
    /// Staged-delta spine mode: `Some` defers the apply copy behind
    /// per-stack delta batches governed by this merge policy; `None`
    /// is the classic eager apply.
    spine_cfg: Option<SpineConfig>,
}

/// A recovered execution state.
#[derive(Debug)]
pub struct RecoveredState {
    /// Per-thread registers as of the recovered checkpoint.
    pub regs: Vec<RegisterFile>,
    /// Sequence number of the recovered checkpoint.
    pub sequence: u64,
}

/// A sequence-coherence violation found by
/// [`PersistentProcess::verify_coherent`]: two parts of the recovered
/// state belong to different checkpoints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SequenceSkew {
    /// Human-readable description of the skewed component.
    pub detail: String,
}

impl std::fmt::Display for SequenceSkew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sequence skew: {}", self.detail)
    }
}

impl std::error::Error for SequenceSkew {}

impl PersistentProcess {
    /// Creates a persistent process with `threads` threads whose
    /// stacks occupy the given ranges.
    ///
    /// # Panics
    ///
    /// Panics if `stack_ranges` is empty.
    pub fn new(stack_ranges: &[VirtRange]) -> Self {
        assert!(
            !stack_ranges.is_empty(),
            "process needs at least one thread"
        );
        Self {
            registers: ProcessCheckpointStore::new(stack_ranges.len()),
            stacks: stack_ranges
                .iter()
                .enumerate()
                .map(|(tid, r)| (tid as u32, PersistentStack::new(tid as u32, *r)))
                .collect(),
            live_regs: vec![RegisterFile::default(); stack_ranges.len()],
            pending: None,
            next_sequence: 1,
            spine_cfg: None,
        }
    }

    /// [`Self::new`] in staged-delta spine mode: commits append delta
    /// batches instead of eagerly applying, governed by `cfg`'s merge
    /// policy (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `stack_ranges` is empty.
    pub fn new_with_spine(stack_ranges: &[VirtRange], cfg: SpineConfig) -> Self {
        let mut p = Self::new(stack_ranges);
        p.spine_cfg = Some(cfg);
        p
    }

    /// Total delta batches currently on all stacks' spines.
    pub fn spine_batches(&self) -> usize {
        self.stacks
            .values()
            .map(PersistentStack::spine_batches)
            .sum()
    }

    /// Folds every stack's spine into its persistent image regardless
    /// of the merge policy and returns the aggregate stats. Tests call
    /// it to force quiescence before inspecting persistent images
    /// directly.
    pub fn merge_all_spines(&mut self) -> MergeStats {
        let mut total = MergeStats::default();
        for stack in self.stacks.values_mut() {
            let stats = stack.merge_spine();
            total.batches_folded += stats.batches_folded;
            total.input_bytes += stats.input_bytes;
            total.written_bytes += stats.written_bytes;
        }
        total
    }

    /// Mutable access to thread `tid`'s live registers.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist.
    pub fn regs_mut(&mut self, tid: u32) -> &mut RegisterFile {
        &mut self.live_regs[tid as usize]
    }

    /// Records a store into thread `tid`'s stack data plane.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist or the store leaves its
    /// stack range.
    pub fn record_store(&mut self, tid: u32, addr: prosper_memsim::addr::VirtAddr, bytes: &[u8]) {
        self.stacks
            .get_mut(&tid)
            .unwrap_or_else(|| panic!("thread {tid} not registered"))
            .record_store(addr, bytes);
    }

    /// The persistent stack of thread `tid`.
    pub fn stack(&self, tid: u32) -> &PersistentStack {
        &self.stacks[&tid]
    }

    /// Thread `tid`'s live registers.
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist.
    pub fn regs(&self, tid: u32) -> &RegisterFile {
        &self.live_regs[tid as usize]
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.live_regs.len()
    }

    /// Sequence of the last fully-committed whole-process checkpoint.
    pub fn committed_sequence(&self) -> u64 {
        self.registers.committed_sequence
    }

    /// Modelled cost of the stage pass over `batch`.
    fn stage_cost(batch: &BTreeMap<u32, Vec<CopyRun>>, tids: &[u32]) -> u64 {
        let per_stack: u64 = tids
            .iter()
            .map(|&tid| {
                share_cost(
                    batch,
                    tid,
                    commit_cost::STAGE_RUN_NS,
                    commit_cost::STAGE_BYTE_NS,
                )
            })
            .sum();
        commit_cost::PHASE_BASE_NS + per_stack
    }

    /// Modelled cost of the seal: the durable write plus the
    /// bookkeeping of every thread's register slot.
    fn seal_cost(stacks: usize) -> u64 {
        commit_cost::SEAL_NS + stacks as u64 * commit_cost::BOOKKEEP_SLOT_NS
    }

    /// Modelled cost of the phase-two pass over `batch` — an apply copy
    /// per run, or one flat batch append per stack in spine mode —
    /// plus the register tail.
    fn apply_cost(batch: &BTreeMap<u32, Vec<CopyRun>>, spine: bool, tids: &[u32]) -> u64 {
        let per_stack: u64 = tids
            .iter()
            .map(|&tid| {
                if spine {
                    commit_cost::BATCH_APPEND_NS
                } else {
                    share_cost(
                        batch,
                        tid,
                        commit_cost::APPLY_RUN_NS,
                        commit_cost::APPLY_BYTE_NS,
                    )
                }
            })
            .sum();
        commit_cost::PHASE_BASE_NS + per_stack + tids.len() as u64 * commit_cost::REGISTER_SLOT_NS
    }

    /// Commits one whole-process checkpoint: every thread's stack runs
    /// (from its tracker's bitmap inspection) plus every thread's
    /// registers, through [`Self::commit_with`] with no hooks.
    ///
    /// # Panics
    ///
    /// Panics if `runs_per_thread` misses a registered thread.
    pub fn commit(&mut self, runs_per_thread: &BTreeMap<u32, Vec<CopyRun>>) {
        // Without an injector no crash window can fire.
        let _ = self.commit_with(runs_per_thread, CommitHooks::default());
    }

    /// The commit engine: commits `batch` as the next sequence under
    /// the stage → seal → apply protocol, running each per-stack pass
    /// on the calling thread in tid order. The boundaries are, in
    /// order:
    ///
    /// 1. stage — [`CrashSite::PreStage`], then
    ///    [`CrashSite::MidStage`] after each staged run;
    /// 2. seal — [`CrashSite::PreSeal`], the one seal write,
    ///    [`CrashSite::PostSeal`];
    /// 3. per-stack phase two — [`CrashSite::MidApply`] after each
    ///    applied run and [`CrashSite::PostApplyThread`] (eager), or
    ///    [`CrashSite::BatchSeal`] (spine);
    /// 4. register tail — [`CrashSite::PostApplyPreRegisters`], then
    ///    [`CrashSite::MidRegisterApply`] after each slot;
    /// 5. retire — [`CrashSite::PostCommit`];
    /// 6. spine merge — [`CrashSite::MidMerge`] after each fold step
    ///    and [`CrashSite::MergeRetire`] per folded spine.
    ///
    /// `hooks` observe that one body, and within each stage and
    /// phase-two pass the stacks follow one another in tid order, so
    /// the boundary order above is deterministic whether or not an
    /// injector is attached. The telemetry is
    /// `prosper.commit.phase.{stage,seal,apply,merge}_ns`,
    /// `prosper.commit.workers` (always 1) and the `prosper.spine.*`
    /// instruments.
    ///
    /// # Errors
    ///
    /// Returns [`CrashInjected`] if the attached injector fired. The
    /// commit stops there, leaving persistent state exactly as a power
    /// failure at that boundary would: the caller then simulates the
    /// crash ([`Self::crash`]) and recovers ([`Self::recover`]).
    ///
    /// # Panics
    ///
    /// Panics if `batch` misses a registered thread.
    pub fn commit_with(
        &mut self,
        batch: &BTreeMap<u32, Vec<CopyRun>>,
        mut hooks: CommitHooks<'_>,
    ) -> Result<(), CrashInjected> {
        for tid in self.stacks.keys() {
            assert!(batch.contains_key(tid), "no runs supplied for thread {tid}");
        }
        // Every thread is stalled for the whole commit: one stall
        // window, charged one phase at a time under the modelled costs.
        let tids: Vec<u32> = self.stacks.keys().copied().collect();
        let mut stall = Stall::open(hooks.acct, &tids, self.next_sequence, StallCause::Stage);
        let result = self.commit_sequence(batch, &mut hooks, &mut stall);
        stall.close();
        result
    }

    /// The body of [`Self::commit_with`]: stage `batch`, seal, run
    /// phase two, retire, merge.
    fn commit_sequence(
        &mut self,
        batch: &BTreeMap<u32, Vec<CopyRun>>,
        hooks: &mut CommitHooks<'_>,
        stall: &mut Stall<'_>,
    ) -> Result<(), CrashInjected> {
        let sequence = self.next_sequence;
        let probe = hooks.probe;
        // 1. Stage: strictly per-thread state. The stopwatch brackets
        // only the staging pass; staging the register file into the
        // record is seal bookkeeping and is charged to the seal.
        let stage_watch = telemetry::Stopwatch::start();
        cross(&mut hooks.faults, CrashSite::PreStage)?;
        for (&tid, stack) in &mut self.stacks {
            stack.begin_stage_at(sequence);
            for (k, run) in batch[&tid].iter().enumerate() {
                stack.stage_run(run);
                cross(
                    &mut hooks.faults,
                    CrashSite::MidStage {
                        tid,
                        runs_staged: k as u32 + 1,
                    },
                )?;
            }
            if let Some(p) = probe {
                p.record(CommitProbeEvent::StageThread { tid, sequence });
            }
        }
        stall.end(|tids| Self::stage_cost(batch, tids), Some(StallCause::Seal));
        let stage_ns = stage_watch.elapsed_ns();
        // 2. Seal: the register file is staged into the commit record,
        // then the single durable write — the single serialization
        // point — commits the checkpoint.
        let seal_watch = telemetry::Stopwatch::start();
        let mut record = ProcessCommitRecord {
            sequence,
            staged_regs: self.live_regs.clone(),
            sealed: false,
        };
        self.pending = Some(record.clone());
        cross(&mut hooks.faults, CrashSite::PreSeal)?;
        record.sealed = true;
        self.pending = Some(record.clone());
        if let Some(p) = probe {
            p.record(CommitProbeEvent::Seal { sequence });
        }
        let seal_ns = seal_watch.elapsed_ns();
        stall.end(|tids| Self::seal_cost(tids.len()), Some(StallCause::Apply));
        cross(&mut hooks.faults, CrashSite::PostSeal)?;
        // 3–5. Phase two, the register tail, retire.
        let apply_watch = telemetry::Stopwatch::start();
        let spine = self.spine_cfg;
        self.apply_record(&record, spine.is_some(), hooks)?;
        let apply_ns = apply_watch.elapsed_ns();
        stall.end(|tids| Self::apply_cost(batch, spine.is_some(), tids), None);
        cross(&mut hooks.faults, CrashSite::PostCommit)?;
        // 6. Spine merge, off the critical path.
        let merge_watch = telemetry::Stopwatch::start();
        let merged = match spine {
            Some(cfg) => Some(self.merge_spines(cfg, sequence, hooks, stall)?),
            None => None,
        };
        let merge_ns = merge_watch.elapsed_ns();
        if telemetry::enabled() {
            telemetry::with(|t| {
                let r = t.registry();
                r.gauge("prosper.commit.workers").set(1);
                r.histogram("prosper.commit.phase.stage_ns")
                    .record(stage_ns);
                r.histogram("prosper.commit.phase.seal_ns").record(seal_ns);
                r.histogram("prosper.commit.phase.apply_ns")
                    .record(apply_ns);
                if let Some((merges, merged_bytes)) = merged {
                    r.histogram("prosper.commit.phase.merge_ns")
                        .record(merge_ns);
                    if merges > 0 {
                        r.counter("prosper.spine.merges").add(merges);
                        r.counter("prosper.spine.merged_bytes").add(merged_bytes);
                    }
                }
            });
        }
        Ok(())
    }

    /// Phase two and the register tail of the sealed `record`: every
    /// stack's phase two ([`Self::apply_record_stack`]), then every
    /// register slot, then the record retires. Idempotent, so
    /// recovery's redo replays it from any interruption point;
    /// recovery surface, so it stays panic-free (`PA-PANIC004`).
    fn apply_record(
        &mut self,
        record: &ProcessCommitRecord,
        spine: bool,
        hooks: &mut CommitHooks<'_>,
    ) -> Result<(), CrashInjected> {
        debug_assert!(record.sealed, "apply before the seal");
        let sequence = record.sequence;
        let probe = hooks.probe;
        for (&tid, stack) in &mut self.stacks {
            Self::apply_record_stack(stack, tid, sequence, spine, &mut hooks.faults, probe)?;
        }
        cross(&mut hooks.faults, CrashSite::PostApplyPreRegisters)?;
        for (tid, regs) in record.staged_regs.iter().enumerate() {
            self.registers.apply_thread_at(tid, *regs, sequence);
            cross(
                &mut hooks.faults,
                CrashSite::MidRegisterApply { tid: tid as u32 },
            )?;
        }
        self.registers.set_committed_sequence(sequence);
        self.pending = None;
        self.next_sequence = sequence + 1;
        if let Some(p) = probe {
            p.record(CommitProbeEvent::Retire { sequence });
        }
        Ok(())
    }

    /// Phase two of sealed `sequence` for one stack: its staging
    /// buffer is applied to the persistent image, or in `spine` mode
    /// retired to the spine as an immutable delta batch. Redo-safe,
    /// keyed on the buffer's sequence tag: a buffer tagged past
    /// `sequence` belongs to no sealed record and is discarded rather
    /// than applied under this one; a spine seal already done cleared
    /// the tag, so redo does not append the batch twice; and
    /// re-applying an eager buffer is idempotent.
    fn apply_record_stack(
        stack: &mut PersistentStack,
        tid: u32,
        sequence: u64,
        spine: bool,
        faults: &mut Option<&mut FaultInjector>,
        probe: Option<&CommitProbe>,
    ) -> Result<(), CrashInjected> {
        let staged = stack.staging_sequence();
        if staged > sequence {
            stack.discard_staging();
            return Ok(());
        }
        let site = if spine {
            if staged == sequence {
                stack.seal_to_spine(sequence);
            }
            CrashSite::BatchSeal { tid }
        } else {
            for k in 0..stack.staged_runs() {
                stack.apply_run(k);
                cross(
                    faults,
                    CrashSite::MidApply {
                        tid,
                        runs_applied: k as u32 + 1,
                    },
                )?;
            }
            stack.finish_apply(sequence);
            CrashSite::PostApplyThread { tid }
        };
        if let Some(p) = probe {
            p.record(CommitProbeEvent::ApplyThread { tid, sequence });
        }
        cross(faults, site)
    }

    /// The deferred, policy-gated spine merge after `sequence`
    /// retired. It never crosses an unsealed batch: everything on a
    /// spine is sealed by construction, and the commit fully retired
    /// before the first fold step runs. Returns the spines folded and
    /// the deduplicated bytes written.
    fn merge_spines(
        &mut self,
        cfg: SpineConfig,
        sequence: u64,
        hooks: &mut CommitHooks<'_>,
        stall: &mut Stall<'_>,
    ) -> Result<(u64, u64), CrashInjected> {
        let (mut merges, mut folded, mut written) = (0u64, 0u64, 0u64);
        for (&tid, stack) in &mut self.stacks {
            if !stack.should_merge(&cfg) {
                continue;
            }
            if merges == 0 {
                stall.begin(StallCause::Merge);
            }
            merges += 1;
            let stats = stack.merge_spine_with(|done| {
                cross(
                    &mut hooks.faults,
                    CrashSite::MidMerge {
                        tid,
                        batches_folded: u32::try_from(done.batches_folded).unwrap_or(u32::MAX),
                    },
                )
            })?;
            folded += stats.batches_folded;
            written += stats.written_bytes;
            if let Some(p) = hooks.probe {
                p.record(CommitProbeEvent::MergeThread {
                    tid,
                    upto: sequence,
                });
            }
            cross(&mut hooks.faults, CrashSite::MergeRetire { tid })?;
        }
        if merges > 0 {
            stall.end(
                |_| {
                    commit_cost::PHASE_BASE_NS
                        + folded * commit_cost::MERGE_RUN_NS
                        + written * commit_cost::MERGE_BYTE_NS
                },
                None,
            );
        }
        Ok((merges, written))
    }

    /// Simulates a power failure: all live registers and volatile
    /// stack images are lost.
    pub fn crash(&mut self) {
        for stack in self.stacks.values_mut() {
            stack.crash();
        }
        self.live_regs = vec![RegisterFile::default(); self.live_regs.len()];
    }

    /// Recovers the process to one coherent checkpoint.
    ///
    /// If a sealed commit record exists, the crash hit after the
    /// commit point: the apply is **redone** from the staged state
    /// (idempotently), landing every stack and every register slot on
    /// the record's sequence. Without a sealed record, all staging is
    /// discarded and the previous checkpoint stands. Either way no
    /// component can recover at a different sequence than the rest.
    ///
    /// # Errors
    ///
    /// Returns [`NoValidCheckpoint`] if no complete checkpoint exists.
    pub fn recover(&mut self) -> Result<RecoveredState, NoValidCheckpoint> {
        self.recover_attributed(None)
    }

    /// [`Self::recover`] with stall attribution: the whole replay —
    /// redo of a sealed record or discard of an unsealed one — is
    /// charged to every thread as a single `Recovery`-cause segment
    /// with a matching stall window, tagged with the sequence being
    /// redone (0 when nothing was sealed). Under a virtual clock the
    /// replay cost is modelled from the staged runs/bytes actually
    /// replayed, so crash-point choice shows up in the timeline.
    ///
    /// This is a recovery-surface function: it must stay panic-free
    /// (`PA-PANIC004`), which the accountant guarantees by never
    /// panicking on its own lock.
    ///
    /// # Errors
    ///
    /// Returns [`NoValidCheckpoint`] if no complete checkpoint exists.
    pub fn recover_attributed(
        &mut self,
        acct: Option<&StallAccountant>,
    ) -> Result<RecoveredState, NoValidCheckpoint> {
        let Some(acct) = acct else {
            return self.recover_inner();
        };
        let (sequence, replay_ns) = self.replay_cost();
        let tids: Vec<u32> = self.stacks.keys().copied().collect();
        let mut stall = Stall::open(Some(acct), &tids, sequence, StallCause::Recovery);
        let result = self.recover_inner();
        stall.end(|_| replay_ns, None);
        stall.close();
        result
    }

    /// The sequence a recovery replays (0 when nothing was sealed) and
    /// the replay's modelled cost: the base, any sealed record's staged
    /// runs and bytes, and in spine mode the surviving batches, which
    /// the replay re-folds (in eager mode the spines are empty).
    fn replay_cost(&self) -> (u64, u64) {
        let spine_fold_ns: u64 = self
            .stacks
            .values()
            .map(|s| {
                s.spine().iter().map(|b| b.runs() as u64).sum::<u64>()
                    * commit_cost::RECOVERY_RUN_NS
                    + s.spine_bytes() * commit_cost::RECOVERY_BYTE_NS
            })
            .sum();
        match &self.pending {
            Some(record) if record.sealed => (
                record.sequence,
                commit_cost::RECOVERY_BASE_NS
                    + spine_fold_ns
                    + self
                        .stacks
                        .values()
                        .map(|s| {
                            s.staged_runs() as u64 * commit_cost::RECOVERY_RUN_NS
                                + s.staged_bytes() * commit_cost::RECOVERY_BYTE_NS
                        })
                        .sum::<u64>(),
            ),
            _ => (0, commit_cost::RECOVERY_BASE_NS + spine_fold_ns),
        }
    }

    /// Redoes a sealed record through the engine's phase-two and
    /// register-tail step (the seal was the commit point) or discards
    /// an unsealed one. Then every stack's recovery step discards the
    /// staging no sealed record covers — a crash mid-stage leaves no
    /// record at all — folds its surviving spine newest-wins into its
    /// persistent image and rebuilds its volatile image. Recovery
    /// always sees a prefix-closed spine of sealed batches, so the
    /// fold lands byte-identical to eager apply. Panic-free
    /// (`PA-PANIC004`): this whole path is recovery surface.
    fn recover_inner(&mut self) -> Result<RecoveredState, NoValidCheckpoint> {
        match self.pending.clone() {
            Some(record) if record.sealed => {
                // Batches left on a spine are older than the record, so
                // it must land on top of them as a batch too.
                let spine = self.spine_cfg.is_some() || self.spine_batches() > 0;
                // Without an injector no crash window can fire.
                let _ = self.apply_record(&record, spine, &mut CommitHooks::default());
            }
            Some(_) => {
                // The commit never sealed: discard it wholesale.
                self.pending = None;
                for stack in self.stacks.values_mut() {
                    stack.discard_staging();
                }
            }
            None => {}
        }
        for stack in self.stacks.values_mut() {
            stack.recover_after_crash();
        }
        let regs = self.registers.recover()?;
        self.live_regs.clone_from(&regs);
        Ok(RecoveredState {
            regs,
            sequence: self.registers.committed_sequence,
        })
    }

    /// Checks the cross-component sequence invariant: every thread's
    /// stack, every thread's register slot, and the process store
    /// itself agree on one committed sequence. The fault-injection
    /// harness runs this after every recovery.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceSkew`] naming the first disagreeing component.
    pub fn verify_coherent(&self) -> Result<u64, SequenceSkew> {
        let seq = self.registers.committed_sequence;
        for (tid, stack) in &self.stacks {
            if stack.committed_sequence() != seq {
                return Err(SequenceSkew {
                    detail: format!(
                        "thread {tid} stack at sequence {}, process at {seq}",
                        stack.committed_sequence()
                    ),
                });
            }
            // Spine-aware lookup: unmerged batches must form an
            // ascending, prefix-closed run of *committed* sequences —
            // a batch beyond the committed sequence would mean a merge
            // crossed an unsealed batch.
            let mut prev = 0u64;
            for batch in stack.spine() {
                if batch.sequence() <= prev {
                    return Err(SequenceSkew {
                        detail: format!(
                            "thread {tid} spine out of order: batch {} after {prev}",
                            batch.sequence()
                        ),
                    });
                }
                if batch.sequence() > seq {
                    return Err(SequenceSkew {
                        detail: format!(
                            "thread {tid} spine batch {} beyond committed sequence {seq}",
                            batch.sequence()
                        ),
                    });
                }
                prev = batch.sequence();
            }
        }
        if seq > 0 {
            let detailed = self
                .registers
                .recover_detailed()
                .map_err(|_| SequenceSkew {
                    detail: format!("process at sequence {seq} but registers unrecoverable"),
                })?;
            for (tid, (_, reg_seq)) in detailed.iter().enumerate() {
                if *reg_seq != seq {
                    return Err(SequenceSkew {
                        detail: format!(
                            "thread {tid} registers at sequence {reg_seq}, process at {seq}"
                        ),
                    });
                }
            }
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosper_gemos::crash::CrashPlan;
    use prosper_memsim::addr::VirtAddr;

    fn ranges(n: u64) -> Vec<VirtRange> {
        (0..n)
            .map(|i| {
                let top = 0x7000_0000 + (i + 1) * 0x10_0000;
                VirtRange::new(VirtAddr::new(top - 0x8000), VirtAddr::new(top))
            })
            .collect()
    }

    /// One commit through the engine with `inj` attached.
    fn commit_faulted(
        p: &mut PersistentProcess,
        runs: &BTreeMap<u32, Vec<CopyRun>>,
        inj: &mut FaultInjector,
    ) -> Result<(), CrashInjected> {
        p.commit_with(
            runs,
            CommitHooks {
                faults: Some(inj),
                ..CommitHooks::default()
            },
        )
    }

    fn full_runs(p: &PersistentProcess, tids: &[u32]) -> BTreeMap<u32, Vec<CopyRun>> {
        tids.iter()
            .map(|&tid| {
                let r = p.stack(tid).range();
                (
                    tid,
                    vec![CopyRun {
                        start: r.start(),
                        len: r.len(),
                    }],
                )
            })
            .collect()
    }

    #[test]
    fn commit_binds_registers_and_memory() {
        let mut p = PersistentProcess::new(&ranges(2));
        let r0 = p.stack(0).range();
        p.record_store(0, r0.start() + 64, b"thread-zero");
        p.regs_mut(0).rip = 0x1111;
        p.regs_mut(1).rip = 0x2222;
        let runs = full_runs(&p, &[0, 1]);
        p.commit(&runs);

        // Post-commit mutations are lost at the crash.
        p.record_store(0, r0.start() + 64, b"overwrote!!");
        p.regs_mut(0).rip = 0x9999;
        p.crash();
        let rec = p.recover().unwrap();
        assert_eq!(rec.sequence, 1);
        assert_eq!(rec.regs[0].rip, 0x1111);
        assert_eq!(rec.regs[1].rip, 0x2222);
        assert_eq!(
            p.stack(0).volatile().read(r0.start() + 64, 11),
            b"thread-zero"
        );
        assert_eq!(p.verify_coherent().unwrap(), 1);
    }

    #[test]
    fn recover_without_commit_fails() {
        let mut p = PersistentProcess::new(&ranges(1));
        p.crash();
        assert!(p.recover().is_err());
    }

    #[test]
    fn repeated_commits_recover_latest() {
        let mut p = PersistentProcess::new(&ranges(1));
        let runs = full_runs(&p, &[0]);
        for seq in 1..=3u64 {
            p.regs_mut(0).gpr[5] = seq * 7;
            p.commit(&runs);
        }
        p.crash();
        let rec = p.recover().unwrap();
        assert_eq!(rec.sequence, 3);
        assert_eq!(rec.regs[0].gpr[5], 21);
    }

    #[test]
    #[should_panic(expected = "no runs supplied for thread")]
    fn missing_thread_runs_rejected() {
        let mut p = PersistentProcess::new(&ranges(2));
        let runs = full_runs(&p, &[0]); // thread 1 missing
        p.commit(&runs);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_process_rejected() {
        PersistentProcess::new(&[]);
    }

    /// Sets up a two-thread process with one clean commit at sequence
    /// 1 and distinct per-thread data staged for commit 2.
    fn two_thread_mid_commit_setup() -> (PersistentProcess, BTreeMap<u32, Vec<CopyRun>>) {
        let mut p = PersistentProcess::new(&ranges(2));
        for tid in 0..2u32 {
            let r = p.stack(tid).range();
            p.record_store(tid, r.start() + 32, &[0x10 + tid as u8; 16]);
            p.regs_mut(tid).rip = 0x100 + u64::from(tid);
        }
        let runs = full_runs(&p, &[0, 1]);
        p.commit(&runs);
        for tid in 0..2u32 {
            let r = p.stack(tid).range();
            p.record_store(tid, r.start() + 32, &[0x20 + tid as u8; 16]);
            p.regs_mut(tid).rip = 0x200 + u64::from(tid);
        }
        (p, runs)
    }

    /// Satellite regression: a crash **between two thread-stack
    /// applies** must not recover thread 0 at sequence 2 with thread 1
    /// at sequence 1. Under the pre-two-phase commit (each stack
    /// checkpointed independently) this exact schedule was torn.
    #[test]
    fn crash_between_thread_stack_applies_recovers_one_sequence() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        let err = commit_faulted(
            &mut p,
            &runs,
            &mut FaultInjector::at_site(CrashSite::PostApplyThread { tid: 0 }),
        )
        .unwrap_err();
        assert_eq!(err.site, CrashSite::PostApplyThread { tid: 0 });
        p.crash();
        let rec = p.recover().unwrap();
        // The seal preceded the crash: recovery redoes the whole
        // commit, landing both stacks and the registers on sequence 2.
        assert_eq!(rec.sequence, 2);
        assert_eq!(p.verify_coherent().unwrap(), 2);
        for tid in 0..2u32 {
            let r = p.stack(tid).range();
            assert_eq!(
                p.stack(tid).volatile().read(r.start() + 32, 16),
                vec![0x20 + tid as u8; 16],
                "thread {tid} recovered the redone commit"
            );
            assert_eq!(rec.regs[tid as usize].rip, 0x200 + u64::from(tid));
        }
    }

    /// Satellite regression: a crash **between the stack applies and
    /// the register apply** must not recover stacks at sequence 2 with
    /// registers at sequence 1 — the torn state the two-step protocol
    /// exists to prevent.
    #[test]
    fn crash_between_stacks_and_registers_recovers_one_sequence() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        let err = commit_faulted(
            &mut p,
            &runs,
            &mut FaultInjector::at_site(CrashSite::PostApplyPreRegisters),
        )
        .unwrap_err();
        assert_eq!(err.site, CrashSite::PostApplyPreRegisters);
        p.crash();
        let rec = p.recover().unwrap();
        assert_eq!(rec.sequence, 2);
        assert_eq!(p.verify_coherent().unwrap(), 2);
        assert_eq!(rec.regs[0].rip, 0x200, "registers redone with the stacks");
        assert_eq!(rec.regs[1].rip, 0x201);
    }

    /// A crash before the seal discards the whole in-flight commit:
    /// everything recovers at the previous sequence.
    #[test]
    fn crash_before_seal_discards_whole_commit() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        for plan in [
            CrashPlan::AtSite(CrashSite::PreStage),
            CrashPlan::AtSite(CrashSite::MidStage {
                tid: 1,
                runs_staged: 1,
            }),
            CrashPlan::AtSite(CrashSite::PreSeal),
        ] {
            let mut inj = FaultInjector::new(plan);
            commit_faulted(&mut p, &runs, &mut inj).unwrap_err();
            p.crash();
            let rec = p.recover().unwrap();
            assert_eq!(rec.sequence, 1, "pre-seal crash keeps sequence 1");
            assert_eq!(p.verify_coherent().unwrap(), 1);
            for tid in 0..2u32 {
                let r = p.stack(tid).range();
                assert_eq!(
                    p.stack(tid).volatile().read(r.start() + 32, 16),
                    vec![0x10 + tid as u8; 16]
                );
                assert_eq!(rec.regs[tid as usize].rip, 0x100 + u64::from(tid));
            }
            // Rebuild the live state the crash wiped, then retry.
            for tid in 0..2u32 {
                let r = p.stack(tid).range();
                p.record_store(tid, r.start() + 32, &[0x20 + tid as u8; 16]);
                p.regs_mut(tid).rip = 0x200 + u64::from(tid);
            }
        }
        // The interrupted commits retried cleanly.
        p.commit(&runs);
        assert_eq!(p.verify_coherent().unwrap(), 2);
    }

    /// Double crash: a crash during recovery's redo (modelled as a
    /// second crash+recover without a completed first recovery) still
    /// converges to the committed checkpoint.
    #[test]
    fn repeated_recovery_is_idempotent() {
        let (mut p, runs) = two_thread_mid_commit_setup();
        commit_faulted(
            &mut p,
            &runs,
            &mut FaultInjector::at_site(CrashSite::MidApply {
                tid: 0,
                runs_applied: 1,
            }),
        )
        .unwrap_err();
        for _ in 0..3 {
            p.crash();
            let rec = p.recover().unwrap();
            assert_eq!(rec.sequence, 2);
            assert_eq!(p.verify_coherent().unwrap(), 2);
        }
    }

    /// Pins the engine's boundary order literally — one 2-thread
    /// commit with two runs per thread, eager and spine with a merge
    /// due — so a reordering fails here even where a crash sweep would
    /// still recover from every site.
    #[test]
    fn commit_crosses_boundaries_in_protocol_order() {
        use CrashSite::{
            MergeRetire, PostApplyPreRegisters, PostApplyThread, PostCommit, PostSeal, PreSeal,
            PreStage,
        };
        let record = |p: &mut PersistentProcess, runs: &BTreeMap<u32, Vec<CopyRun>>| {
            let mut inj = FaultInjector::new(CrashPlan::Record);
            commit_faulted(p, runs, &mut inj).expect("record mode never fires");
            inj.crossed().to_vec()
        };
        let two_runs = |p: &PersistentProcess| -> BTreeMap<u32, Vec<CopyRun>> {
            (0..2u32)
                .map(|tid| {
                    let r = p.stack(tid).range();
                    let run = |off: u64| CopyRun {
                        start: r.start() + off,
                        len: 16,
                    };
                    (tid, vec![run(0x100), run(0x200)])
                })
                .collect()
        };
        let stage = |tid, runs_staged| CrashSite::MidStage { tid, runs_staged };
        let apply = |tid, runs_applied| CrashSite::MidApply { tid, runs_applied };
        let batch = |tid| CrashSite::BatchSeal { tid };
        let regs = |tid| CrashSite::MidRegisterApply { tid };
        let fold = |tid, batches_folded| CrashSite::MidMerge {
            tid,
            batches_folded,
        };

        let mut eager = PersistentProcess::new(&ranges(2));
        let runs = two_runs(&eager);
        assert_eq!(
            record(&mut eager, &runs),
            vec![
                PreStage,
                stage(0, 1),
                stage(0, 2),
                stage(1, 1),
                stage(1, 2),
                PreSeal,
                PostSeal,
                apply(0, 1),
                apply(0, 2),
                PostApplyThread { tid: 0 },
                apply(1, 1),
                apply(1, 2),
                PostApplyThread { tid: 1 },
                PostApplyPreRegisters,
                regs(0),
                regs(1),
                PostCommit,
            ]
        );

        // A first commit leaves one batch per spine, so merge_always
        // folds both spines after the recorded second commit.
        let mut spine = PersistentProcess::new_with_spine(&ranges(2), SpineConfig::merge_always());
        let runs = two_runs(&spine);
        spine.commit(&runs);
        assert_eq!(
            record(&mut spine, &runs),
            vec![
                PreStage,
                stage(0, 1),
                stage(0, 2),
                stage(1, 1),
                stage(1, 2),
                PreSeal,
                PostSeal,
                batch(0),
                batch(1),
                PostApplyPreRegisters,
                regs(0),
                regs(1),
                PostCommit,
                fold(0, 1),
                fold(0, 2),
                MergeRetire { tid: 0 },
                fold(1, 1),
                fold(1, 2),
                MergeRetire { tid: 1 },
            ]
        );
    }

    /// Satellite regression (PR 7): the stage phase covers only
    /// staging work. Bookkeeping — staging the register file into the
    /// commit record — is charged to the seal phase, in the ledger and
    /// in the cost model alike.
    #[test]
    fn stage_phase_excludes_coordinator_bookkeeping() {
        let mut p = PersistentProcess::new(&ranges(3));
        let tids: Vec<u32> = vec![0, 1, 2];
        for &tid in &tids {
            let r = p.stack(tid).range();
            p.record_store(tid, r.start() + 64, &[0x5a; 32]);
        }
        let runs = full_runs(&p, &tids);
        let acct = StallAccountant::new_virtual();
        p.commit_with(
            &runs,
            CommitHooks {
                acct: Some(&acct),
                ..CommitHooks::default()
            },
        )
        .unwrap();
        let snap = acct.snapshot();
        snap.verify_conservation().unwrap();
        // One run per thread: the pass's base cost plus every run.
        let expected_stage = commit_cost::PHASE_BASE_NS
            + tids
                .iter()
                .map(|tid| {
                    commit_cost::STAGE_RUN_NS + runs[tid][0].len * commit_cost::STAGE_BYTE_NS
                })
                .sum::<u64>();
        let expected_seal =
            commit_cost::SEAL_NS + tids.len() as u64 * commit_cost::BOOKKEEP_SLOT_NS;
        for &tid in &tids {
            let of_cause = |cause: StallCause| -> u64 {
                snap.segments
                    .iter()
                    .filter(|s| s.tid == tid && s.cause == cause)
                    .map(telemetry::StallSegment::duration_ns)
                    .sum()
            };
            assert_eq!(
                of_cause(StallCause::Stage),
                expected_stage,
                "thread {tid}: stage segment must be staging work only"
            );
            assert_eq!(
                of_cause(StallCause::Seal),
                expected_seal,
                "thread {tid}: bookkeeping belongs to the seal segment"
            );
        }
    }

    /// Three commits on four stacks leave one literal probe stream:
    /// every pass runs in tid order, and each sequence stages, seals,
    /// applies and retires before the next one stages.
    #[test]
    fn probe_stream_runs_one_sequence_at_a_time() {
        use CommitProbeEvent as E;
        let stage = |tid, sequence| E::StageThread { tid, sequence };
        let apply = |tid, sequence| E::ApplyThread { tid, sequence };
        let seal = |sequence| E::Seal { sequence };
        let retire = |sequence| E::Retire { sequence };
        let tids: Vec<u32> = (0..4).collect();
        let mut p = PersistentProcess::new(&ranges(4));
        for &tid in &tids {
            let r = p.stack(tid).range();
            p.record_store(tid, r.start() + 16, &[7; 8]);
        }
        let runs = full_runs(&p, &tids);
        let probe = CommitProbe::new();
        for _ in 0..3 {
            let hooks = CommitHooks {
                probe: Some(&probe),
                ..CommitHooks::default()
            };
            p.commit_with(&runs, hooks).unwrap();
        }
        assert_eq!(
            probe.events(),
            vec![
                stage(0, 1),
                stage(1, 1),
                stage(2, 1),
                stage(3, 1),
                seal(1),
                apply(0, 1),
                apply(1, 1),
                apply(2, 1),
                apply(3, 1),
                retire(1),
                stage(0, 2),
                stage(1, 2),
                stage(2, 2),
                stage(3, 2),
                seal(2),
                apply(0, 2),
                apply(1, 2),
                apply(2, 2),
                apply(3, 2),
                retire(2),
                stage(0, 3),
                stage(1, 3),
                stage(2, 3),
                stage(3, 3),
                seal(3),
                apply(0, 3),
                apply(1, 3),
                apply(2, 3),
                apply(3, 3),
                retire(3),
            ]
        );
    }

    /// Drives `commits` identical store/commit rounds through a spine
    /// process and an eager twin, returning both.
    fn twin_processes(commits: u64, cfg: SpineConfig) -> (PersistentProcess, PersistentProcess) {
        let mut spine = PersistentProcess::new_with_spine(&ranges(2), cfg);
        let mut eager = PersistentProcess::new(&ranges(2));
        for seq in 0..commits {
            for p in [&mut spine, &mut eager] {
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    // Hot word rewritten every round + one moving cold run.
                    p.record_store(tid, r.start() + 0x100, &seq.to_le_bytes());
                    p.record_store(tid, r.start() + 0x800 + seq * 32, &[seq as u8; 16]);
                    p.regs_mut(tid).rip = 0x1000 + seq;
                }
                let runs: BTreeMap<u32, Vec<CopyRun>> = (0..2u32)
                    .map(|tid| {
                        let r = p.stack(tid).range();
                        (
                            tid,
                            vec![
                                CopyRun {
                                    start: r.start() + 0x100,
                                    len: 8,
                                },
                                CopyRun {
                                    start: r.start() + 0x800 + seq * 32,
                                    len: 16,
                                },
                            ],
                        )
                    })
                    .collect();
                p.commit(&runs);
            }
        }
        (spine, eager)
    }

    #[test]
    fn spine_commit_keeps_apply_copy_off_critical_path() {
        // A lazy policy never merges during the run: every commit's
        // phase two is an O(1) batch append, and all batches sit on
        // the spine until explicitly drained.
        let (mut spine, eager) = twin_processes(4, SpineConfig::lazy(64));
        assert_eq!(spine.committed_sequence(), eager.committed_sequence());
        assert_eq!(
            spine.spine_batches(),
            2 * 4,
            "one batch per stack per commit"
        );
        // The persistent images lag until the drain...
        let stats = spine.merge_all_spines();
        assert_eq!(stats.batches_folded, 8);
        assert!(
            stats.written_bytes < stats.input_bytes,
            "the repeated hot word must dedup in the fold"
        );
        // ...and then match eager apply byte for byte.
        for tid in 0..2u32 {
            assert!(
                spine
                    .stack(tid)
                    .persistent()
                    .matches(eager.stack(tid).persistent(), spine.stack(tid).range()),
                "thread {tid}: spine fold differs from eager apply"
            );
        }
    }

    #[test]
    fn spine_policy_merges_during_commit_and_stays_coherent() {
        let (mut spine, eager) = twin_processes(6, SpineConfig::merge_always());
        // merge_always folds after every commit, so at most the
        // freshest batch per stack survives — here none, because the
        // policy fires while the spine holds two.
        assert!(
            spine.spine_batches() <= 2,
            "merge_always must keep the spine short, got {}",
            spine.spine_batches()
        );
        spine.merge_all_spines();
        for tid in 0..2u32 {
            assert!(
                spine
                    .stack(tid)
                    .persistent()
                    .matches(eager.stack(tid).persistent(), spine.stack(tid).range()),
                "thread {tid}: spine fold differs from eager apply"
            );
        }
        assert_eq!(spine.verify_coherent().unwrap(), 6);
    }

    #[test]
    fn spine_recovery_folds_to_eager_image() {
        let (mut spine, eager) = twin_processes(5, SpineConfig::lazy(64));
        spine.crash();
        let rec = spine.recover().unwrap();
        assert_eq!(rec.sequence, 5);
        assert_eq!(spine.verify_coherent().unwrap(), 5);
        assert_eq!(spine.spine_batches(), 0, "recovery folds the whole spine");
        for tid in 0..2u32 {
            assert!(
                spine
                    .stack(tid)
                    .volatile()
                    .matches(eager.stack(tid).persistent(), spine.stack(tid).range()),
                "thread {tid}: recovered image differs from eager apply"
            );
            assert_eq!(spine.regs(tid).rip, 0x1000 + 4);
        }
    }

    #[test]
    fn idle_spine_commit_advances_the_sequence_without_a_batch() {
        let mut p = PersistentProcess::new_with_spine(&ranges(2), SpineConfig::lazy(8));
        let r1 = p.stack(1).range();
        p.record_store(1, r1.start() + 0x40, b"seq-one");
        let both = full_runs(&p, &[0, 1]);
        p.commit(&both);
        assert_eq!(p.stack(1).spine_batches(), 1);
        // Sequence 2 stages nothing for thread 1.
        let mut idle = full_runs(&p, &[0]);
        idle.insert(1, Vec::new());
        p.commit(&idle);
        assert_eq!(p.stack(1).committed_sequence(), 2);
        assert_eq!(
            p.stack(1).spine_batches(),
            1,
            "an idle seal appends no batch"
        );
        assert_eq!(p.stack(0).spine_batches(), 2);
        p.crash();
        assert_eq!(p.recover().unwrap().sequence, 2);
        assert_eq!(p.verify_coherent().unwrap(), 2);
        assert_eq!(p.stack(1).volatile().read(r1.start() + 0x40, 7), b"seq-one");
    }

    #[test]
    fn spine_crash_sites_recover_on_the_committed_sequence() {
        // Walk every crash site the spine-mode fault-injected commit
        // exposes; all spine sites are post-seal, so recovery must
        // land on the sealed sequence with the full payload visible.
        let cfg = SpineConfig::merge_always();
        let mut probe_p = PersistentProcess::new_with_spine(&ranges(2), cfg);
        // Two warm-up commits put batches on the spine so the third
        // commit's merge policy fires and MidMerge/MergeRetire appear.
        let sites = {
            let mut inj = FaultInjector::new(CrashPlan::Record);
            for round in 0..3u64 {
                for tid in 0..2u32 {
                    let r = probe_p.stack(tid).range();
                    probe_p.record_store(tid, r.start() + 0x100, &[round as u8; 8]);
                }
                let runs = partial_runs(&probe_p, 0x100, 8);
                commit_faulted(&mut probe_p, &runs, &mut inj).expect("record mode never fires");
            }
            inj.crossed().to_vec()
        };
        assert!(
            sites
                .iter()
                .any(|s| matches!(s, CrashSite::BatchSeal { .. })),
            "spine commit must cross a batch-seal site"
        );
        assert!(
            sites
                .iter()
                .any(|s| matches!(s, CrashSite::MidMerge { .. })),
            "merge_always must cross a mid-merge site"
        );
        assert!(
            sites
                .iter()
                .any(|s| matches!(s, CrashSite::MergeRetire { .. })),
            "merge_always must cross a merge-retire site"
        );
        for (idx, site) in sites.iter().enumerate() {
            let mut p = PersistentProcess::new_with_spine(&ranges(2), cfg);
            let mut inj = FaultInjector::new(CrashPlan::AtIndex(idx as u64));
            let mut expected = 0u64;
            let mut crashed = None;
            for round in 0..3u64 {
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    p.record_store(tid, r.start() + 0x100, &[round as u8; 8]);
                }
                let runs = partial_runs(&p, 0x100, 8);
                match commit_faulted(&mut p, &runs, &mut inj) {
                    Ok(()) => expected = round + 1,
                    Err(c) => {
                        if c.site.is_post_seal() {
                            expected = round + 1;
                        }
                        crashed = Some(c.site);
                        break;
                    }
                }
            }
            let crashed = crashed.unwrap_or_else(|| panic!("site {idx} ({site}) never fired"));
            assert_eq!(crashed, *site, "enumeration must be deterministic");
            p.crash();
            if expected == 0 {
                assert!(p.recover().is_err(), "site {site}: nothing to recover");
                continue;
            }
            let rec = p.recover().unwrap();
            assert_eq!(
                rec.sequence, expected,
                "site {site}: wrong recovered sequence"
            );
            assert_eq!(p.verify_coherent().unwrap(), expected);
            if expected > 0 {
                for tid in 0..2u32 {
                    let r = p.stack(tid).range();
                    assert_eq!(
                        p.stack(tid).volatile().read(r.start() + 0x100, 8),
                        vec![(expected - 1) as u8; 8],
                        "site {site}: payload must match sequence {expected}"
                    );
                }
            }
        }
    }

    fn partial_runs(p: &PersistentProcess, offset: u64, len: u64) -> BTreeMap<u32, Vec<CopyRun>> {
        (0..p.threads() as u32)
            .map(|tid| {
                let r = p.stack(tid).range();
                (
                    tid,
                    vec![CopyRun {
                        start: r.start() + offset,
                        len,
                    }],
                )
            })
            .collect()
    }

    #[test]
    fn spine_commit_attributes_merge_stalls() {
        let acct = StallAccountant::new_virtual();
        let mut p = PersistentProcess::new_with_spine(&ranges(2), SpineConfig::merge_always());
        for round in 0..2u64 {
            for tid in 0..2u32 {
                let r = p.stack(tid).range();
                p.record_store(tid, r.start() + 0x100, &[round as u8; 8]);
            }
            let runs = partial_runs(&p, 0x100, 8);
            let hooks = CommitHooks {
                acct: Some(&acct),
                ..CommitHooks::default()
            };
            p.commit_with(&runs, hooks).unwrap();
        }
        let snap = acct.snapshot();
        snap.verify_conservation().unwrap();
        assert!(
            snap.segments.iter().any(|s| s.cause == StallCause::Merge),
            "merge_always under attribution must record Merge segments"
        );
    }
}
