//! Deterministic crash-point fault injection for the whole checkpoint
//! pipeline.
//!
//! Persistent-stack systems validate recovery by crashing at *every*
//! step boundary, not just the ones a designer thought of (Aksenov et
//! al., *Execution of NVRAM Programs with Persistent Stack*; the
//! memento framework's `fault-injection` tests do the same). This
//! module is that discipline for the Prosper reproduction:
//!
//! 1. a **recording run** drives a deterministic multi-thread
//!    workload — context switches, tracked stores, bitmap inspection,
//!    whole-process two-phase commits — through a
//!    [`FaultInjector`] in [`CrashPlan::Record`] mode, enumerating
//!    every [`CrashSite`] boundary the run crosses;
//! 2. the **exhaustive sweep** re-runs the identical workload once
//!    per enumerated boundary with [`CrashPlan::AtIndex`], fires a
//!    simulated power failure there, recovers, and asserts the
//!    recovery invariants;
//! 3. after each verified recovery the run **resumes** from the
//!    recovered checkpoint and must finish with a state identical to
//!    an uninterrupted run.
//!
//! Every run carries a stall accountant through tracker quiescence,
//! the commit engine and recovery, so the one runner per crash point,
//! [`run_with_crash_at`], returns the outcome together with the run's
//! cause-tagged stall ledger.
//!
//! The invariants checked after every injected crash:
//!
//! * the recovered sequence equals the last *sealed* commit — one
//!   more than the last completed commit when the crash hit after the
//!   seal (redo), exactly the last completed commit otherwise
//!   (discard);
//! * every thread's stack, every thread's register slot, and the
//!   process checkpoint store agree on that one sequence (no skew);
//! * the recovered memory image and registers are byte-identical to
//!   the ground-truth snapshot of that checkpoint;
//! * the restarted tracker is quiescent with an empty lookup table —
//!   bitmap and lookup table hold no stale state;
//! * no stack still holds staging — no runs and no sequence tag — so a
//!   buffer no sealed record covers never outlives recovery;
//! * the run's stall ledger conserves: its cause-tagged segments tile
//!   its stall windows, the torn commit and the recovery replay
//!   included.

use std::collections::BTreeMap;
use std::sync::Arc;

use prosper_gemos::crash::{CrashInjected, CrashPlan, CrashSite, FaultInjector};
use prosper_gemos::image::MemoryImage;
use prosper_gemos::process::RegisterFile;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_telemetry::{AttributionSnapshot, StallAccountant, StallCause};

use crate::bitmap::CopyRun;
use crate::multithread::MultiThreadTracker;
use crate::persist::SpineConfig;
use crate::recovery::{CommitHooks, PersistentProcess};
use crate::tracker::TrackerConfig;

/// Shape of the deterministic workload the crash matrix drives.
#[derive(Clone, Copy, Debug)]
pub struct CrashMatrixConfig {
    /// Software threads (each with its own stack and bitmap area).
    pub threads: u32,
    /// Checkpoint intervals; each ends in a whole-process commit.
    pub intervals: u32,
    /// Stores per thread per interval.
    pub stores_per_interval: u32,
    /// Seed for the deterministic store pattern.
    pub seed: u64,
    /// Staged-delta spine mode: commits append delta batches instead
    /// of eagerly applying, governed by this merge policy. Crash
    /// windows at the batch-seal, mid-merge, and merge-retire
    /// boundaries ([`CrashSite::BatchSeal`], [`CrashSite::MidMerge`],
    /// [`CrashSite::MergeRetire`]) only exist on this schedule. `None`
    /// (the default) keeps the eager-apply schedule and its exact
    /// recorded site counts.
    pub spine: Option<SpineConfig>,
}

impl Default for CrashMatrixConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            intervals: 3,
            stores_per_interval: 12,
            seed: 0x9E37_79B9,
            spine: None,
        }
    }
}

/// One crash point that failed verification.
#[derive(Clone, Debug)]
pub struct CrashFailure {
    /// Boundary index in the enumerated schedule.
    pub index: u64,
    /// The crash site at that boundary.
    pub site: CrashSite,
    /// What invariant broke.
    pub reason: String,
}

/// Outcome of one injected crash that survived verification.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// The site the crash fired at, if the index was in range.
    pub fired: Option<CrashSite>,
    /// Sequence number of the checkpoint recovery landed on.
    pub recovered_sequence: u64,
    /// The run's stall ledger — the torn commit, the recovery replay
    /// and the resumed run — verified to conserve.
    pub ledger: AttributedRun,
}

/// The recording run: the workload run once without a crash.
#[derive(Clone, Debug)]
pub struct CrashSchedule {
    /// Every boundary the workload crosses, in schedule order.
    pub sites: Vec<CrashSite>,
    /// The uncrashed run's stall ledger.
    pub ledger: AttributedRun,
}

/// Result of an exhaustive crash-point sweep.
#[derive(Clone, Debug, Default)]
pub struct CrashMatrixReport {
    /// Every boundary the workload crosses, in schedule order.
    pub sites: Vec<CrashSite>,
    /// The stall ledger of every crash point whose recovery satisfied
    /// every invariant, in schedule order.
    pub ledgers: Vec<AttributedRun>,
    /// Crash points that broke an invariant.
    pub failures: Vec<CrashFailure>,
}

impl CrashMatrixReport {
    /// `true` when every enumerated crash point was survived.
    pub fn all_survived(&self) -> bool {
        self.failures.is_empty() && self.survived() == self.total()
    }

    /// Count of crash points whose recovery satisfied every invariant.
    pub fn survived(&self) -> u64 {
        self.ledgers.len() as u64
    }

    /// Count of enumerated crash points.
    pub fn total(&self) -> u64 {
        self.sites.len() as u64
    }
}

/// splitmix64-style mixer: the deterministic store pattern is a pure
/// function of `(seed, interval, tid, store index)`, so a resumed run
/// regenerates exactly the stores an uninterrupted run performs.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The store thread `tid` performs as its `j`-th store of interval
/// `interval`: an 8-byte-aligned offset into its stack range plus the
/// eight bytes written there.
fn store_pattern(cfg: &CrashMatrixConfig, interval: u32, tid: u32, j: u32) -> (u64, [u8; 8]) {
    let m = mix(
        cfg.seed,
        u64::from(interval) + 1,
        u64::from(tid) + 1,
        u64::from(j) + 1,
    );
    let offset = (m % (STACK_BYTES - 8)) & !7;
    (offset, mix(m, 1, 2, 3).to_le_bytes())
}

const STACK_BYTES: u64 = 0x8000;

fn thread_range(tid: u32) -> VirtRange {
    let top = 0x7000_0000 + (u64::from(tid) + 1) * 0x10_0000;
    VirtRange::new(VirtAddr::new(top - STACK_BYTES), VirtAddr::new(top))
}

fn thread_bitmap_base(tid: u32) -> VirtAddr {
    VirtAddr::new(0x1000_0000 + u64::from(tid) * 0x10_0000)
}

/// Ground truth captured when a commit seals: what recovery of that
/// sequence must reproduce.
#[derive(Clone, Debug)]
struct Snapshot {
    images: Vec<MemoryImage>,
    regs: Vec<RegisterFile>,
}

/// Drives the deterministic workload, owning every layer the crash
/// plane cuts through: machine, multiplexed tracker, persistent
/// process, and ground-truth snapshots.
#[derive(Debug)]
struct Driver {
    cfg: CrashMatrixConfig,
    machine: Machine,
    mt: MultiThreadTracker,
    process: PersistentProcess,
    snapshots: BTreeMap<u64, Snapshot>,
    /// Commits whose apply fully finished.
    commits_completed: u64,
    /// Sequence recovery must land on if a crash fired just now:
    /// bumped past `commits_completed` only once a seal is known to
    /// have been written.
    expected_sequence: u64,
    /// Stall accountant wired through quiescence, commit, and
    /// recovery.
    acct: Arc<StallAccountant>,
    /// Cycles retired by machine epochs that ended in a power
    /// failure; the live machine's clock restarts from zero.
    prior_epochs_cycles: u64,
}

fn fresh_tracker(threads: u32, acct: &Arc<StallAccountant>) -> MultiThreadTracker {
    let mut mt = MultiThreadTracker::new(TrackerConfig::default());
    for tid in 0..threads {
        mt.register_thread(tid, thread_range(tid), thread_bitmap_base(tid));
    }
    mt.set_attribution(Arc::clone(acct));
    mt
}

impl Driver {
    fn new(cfg: CrashMatrixConfig) -> Self {
        assert!(cfg.threads > 0, "crash matrix needs at least one thread");
        let ranges: Vec<VirtRange> = (0..cfg.threads).map(thread_range).collect();
        let acct = Arc::new(StallAccountant::new_virtual());
        Self {
            cfg,
            machine: Machine::new(MachineConfig::setup_i()),
            mt: fresh_tracker(cfg.threads, &acct),
            process: match cfg.spine {
                Some(spine) => PersistentProcess::new_with_spine(&ranges, spine),
                None => PersistentProcess::new(&ranges),
            },
            snapshots: BTreeMap::new(),
            commits_completed: 0,
            expected_sequence: 0,
            acct,
            prior_epochs_cycles: 0,
        }
    }

    /// Freezes the run's stall ledger. Off-machine time is everything
    /// the virtual clock advanced by except the quiesce phases, which
    /// mirror machine cycles already counted in the machine epochs.
    fn ledger(&self) -> AttributedRun {
        let snapshot = self.acct.snapshot();
        let modelled = self
            .acct
            .now_ns()
            .saturating_sub(snapshot.cause_total_ns(StallCause::Quiesce));
        AttributedRun {
            total_cycles: self.prior_epochs_cycles + self.machine.now() + modelled,
            snapshot,
        }
    }

    /// Runs intervals `[from, cfg.intervals)`; stops at the first
    /// injected crash.
    fn run_from(&mut self, from: u32, inj: &mut FaultInjector) -> Result<(), CrashInjected> {
        for interval in from..self.cfg.intervals {
            self.interval(interval, inj)?;
        }
        Ok(())
    }

    /// One interval: each thread is scheduled in turn and performs its
    /// stores; at the end the OS flushes, inspects each thread's
    /// bitmap, and commits the whole process.
    fn interval(&mut self, interval: u32, inj: &mut FaultInjector) -> Result<(), CrashInjected> {
        for tid in 0..self.cfg.threads {
            self.mt.schedule_with_faults(&mut self.machine, tid, inj)?;
            for j in 0..self.cfg.stores_per_interval {
                let (offset, bytes) = store_pattern(&self.cfg, interval, tid, j);
                let addr = thread_range(tid).start() + offset;
                self.mt.observe_store(&mut self.machine, addr, 8);
                self.process.record_store(tid, addr, &bytes);
            }
            // The register state a checkpoint must capture: the resume
            // position (in `rip`) and a per-thread marker.
            let regs = self.process.regs_mut(tid);
            regs.rip = u64::from(interval) + 1;
            regs.gpr[0] = u64::from(tid) ^ mix(self.cfg.seed, u64::from(interval), 0, 0);
        }

        // End of interval: per-thread bitmap inspection.
        let mut runs_per_thread: BTreeMap<u32, Vec<CopyRun>> = BTreeMap::new();
        for tid in 0..self.cfg.threads {
            // Scheduling the thread restores its MSRs (range, bitmap
            // base) and flushes the previously-resident entries.
            self.mt.schedule_with_faults(&mut self.machine, tid, inj)?;
            self.mt.tracker_mut().flush();
            let geom = self.mt.tracker().geometry();
            let (runs, _) = self
                .mt
                .tracker_mut()
                .bitmap_mut()
                .inspect_and_clear(&geom, thread_range(tid));
            runs_per_thread.insert(tid, runs);
            // Crash window: the bitmap words are cleared but the runs
            // they produced are not yet committed anywhere.
            inj.cross(CrashSite::MidBitmapClear { tid })?;
        }

        // Whole-process two-phase commit.
        let sequence = self.commits_completed + 1;
        let snapshot = self.snapshot_now();
        let hooks = CommitHooks {
            faults: Some(inj),
            probe: None,
            acct: Some(&self.acct),
        };
        match self.process.commit_with(&runs_per_thread, hooks) {
            Ok(()) => {
                self.commits_completed = sequence;
                self.expected_sequence = sequence;
                self.snapshots.insert(sequence, snapshot);
                Ok(())
            }
            Err(err) => {
                if err.site.is_post_seal() {
                    // The commit point passed before the crash:
                    // recovery must redo this commit, not discard it.
                    self.expected_sequence = sequence;
                    self.snapshots.insert(sequence, snapshot);
                }
                Err(err)
            }
        }
    }

    /// Ground truth of the process's volatile state right now.
    fn snapshot_now(&self) -> Snapshot {
        Snapshot {
            images: (0..self.cfg.threads)
                .map(|tid| self.process.stack(tid).volatile().clone())
                .collect(),
            regs: (0..self.cfg.threads)
                .map(|tid| *self.process.regs(tid))
                .collect(),
        }
    }

    /// Simulates the power failure and restart, recovers, and checks
    /// every invariant. Returns the recovered sequence.
    fn verify_after_crash(&mut self) -> Result<u64, String> {
        // Power failure: volatile process state and all tracker
        // hardware state vanish; the machine restarts cold.
        self.process.crash();
        self.prior_epochs_cycles += self.machine.now();
        self.machine = Machine::new(MachineConfig::setup_i());
        self.mt = fresh_tracker(self.cfg.threads, &self.acct);
        if !self.mt.tracker().quiescent() || self.mt.tracker().resident_entries() != 0 {
            return Err("restarted tracker is not quiescent/empty".into());
        }

        let expected = self.expected_sequence;
        let recovered = self.process.recover_attributed(Some(&self.acct));
        for tid in 0..self.cfg.threads {
            let stack = self.process.stack(tid);
            if stack.staged_runs() != 0 || stack.staging_sequence() != 0 {
                return Err(format!(
                    "thread {tid} still holds staging for sequence {} after recovery",
                    stack.staging_sequence()
                ));
            }
        }
        match recovered {
            Ok(rec) => {
                if expected == 0 {
                    return Err(format!(
                        "recovered sequence {} before any commit sealed",
                        rec.sequence
                    ));
                }
                if rec.sequence != expected {
                    return Err(format!(
                        "recovered sequence {} but expected {expected}",
                        rec.sequence
                    ));
                }
                let coherent = self
                    .process
                    .verify_coherent()
                    .map_err(|skew| skew.to_string())?;
                if coherent != expected {
                    return Err(format!(
                        "coherent at sequence {coherent}, expected {expected}"
                    ));
                }
                let truth = &self.snapshots[&expected];
                for tid in 0..self.cfg.threads {
                    let range = thread_range(tid);
                    let stack = self.process.stack(tid);
                    if let Some(addr) =
                        truth.images[tid as usize].first_mismatch(stack.volatile(), range)
                    {
                        return Err(format!(
                            "thread {tid} image diverges from checkpoint {expected} at {addr}"
                        ));
                    }
                    if rec.regs[tid as usize] != truth.regs[tid as usize] {
                        return Err(format!(
                            "thread {tid} registers diverge from checkpoint {expected}"
                        ));
                    }
                }
                Ok(rec.sequence)
            }
            Err(_) if expected == 0 => {
                // No commit ever sealed: an unrecoverable process is
                // the correct outcome, and it must restart cleanly.
                for tid in 0..self.cfg.threads {
                    if self.process.stack(tid).committed_sequence() != 0 {
                        return Err(format!(
                            "thread {tid} stack committed without a process commit"
                        ));
                    }
                }
                let ranges: Vec<VirtRange> = (0..self.cfg.threads).map(thread_range).collect();
                self.process = match self.cfg.spine {
                    Some(spine) => PersistentProcess::new_with_spine(&ranges, spine),
                    None => PersistentProcess::new(&ranges),
                };
                Ok(0)
            }
            Err(e) => Err(format!(
                "recovery failed ({e}) though checkpoint {expected} sealed"
            )),
        }
    }

    /// Resumes from the recovered checkpoint (the committed `rip`
    /// holds the interval to restart from) and finishes the workload;
    /// the final state must equal an uninterrupted run's.
    fn resume_and_finish(&mut self, recovered_sequence: u64) -> Result<(), String> {
        let resume_from = recovered_sequence as u32;
        let mut inj = FaultInjector::disabled();
        self.run_from(resume_from, &mut inj)
            .map_err(|_| "disabled injector fired".to_string())?;
        let reference = reference_final_state(&self.cfg);
        for tid in 0..self.cfg.threads {
            let range = thread_range(tid);
            if let Some(addr) = reference.images[tid as usize]
                .first_mismatch(self.process.stack(tid).volatile(), range)
            {
                return Err(format!(
                    "resumed run diverges from uninterrupted run: thread {tid} at {addr}"
                ));
            }
        }
        self.process
            .verify_coherent()
            .map_err(|skew| skew.to_string())?;
        Ok(())
    }
}

/// The final memory state of an uninterrupted run, computed directly
/// from the pure store pattern.
fn reference_final_state(cfg: &CrashMatrixConfig) -> Snapshot {
    let mut images = vec![MemoryImage::new(); cfg.threads as usize];
    let mut regs = vec![RegisterFile::default(); cfg.threads as usize];
    for interval in 0..cfg.intervals {
        for tid in 0..cfg.threads {
            for j in 0..cfg.stores_per_interval {
                let (offset, bytes) = store_pattern(cfg, interval, tid, j);
                images[tid as usize].write(thread_range(tid).start() + offset, &bytes);
            }
            regs[tid as usize].rip = u64::from(interval) + 1;
        }
    }
    Snapshot { images, regs }
}

/// Enumerates every crash-point boundary the workload crosses, in
/// deterministic schedule order, via one recording run, and returns
/// them with that uncrashed run's stall ledger.
pub fn enumerate_crash_sites(cfg: &CrashMatrixConfig) -> CrashSchedule {
    let mut driver = Driver::new(*cfg);
    let mut inj = FaultInjector::new(CrashPlan::Record);
    driver
        .run_from(0, &mut inj)
        .expect("a recording injector never fires");
    CrashSchedule {
        sites: inj.crossed().to_vec(),
        ledger: driver.ledger(),
    }
}

/// Runs the workload with a crash injected at boundary `index`,
/// recovers, verifies every invariant, and resumes to completion. The
/// outcome carries the run's stall ledger; an index past the schedule
/// runs the workload uncrashed.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn run_with_crash_at(cfg: &CrashMatrixConfig, index: u64) -> Result<CrashOutcome, String> {
    let mut driver = Driver::new(*cfg);
    let mut inj = FaultInjector::at_index(index);
    let (fired, recovered_sequence) = match driver.run_from(0, &mut inj) {
        Ok(()) => (None, driver.commits_completed),
        Err(crash) => {
            let recovered = driver.verify_after_crash()?;
            driver.resume_and_finish(recovered)?;
            (Some(crash.site), recovered)
        }
    };
    let ledger = driver.ledger();
    ledger
        .snapshot
        .verify_conservation()
        .map_err(|e| format!("stall ledger: {e}"))?;
    Ok(CrashOutcome {
        fired,
        recovered_sequence,
        ledger,
    })
}

/// A run's cause-tagged stall ledger plus the simulated wall time of
/// the run, for computing useful — non-stalled — time in
/// checkpoint-tax reports.
#[derive(Clone, Debug)]
pub struct AttributedRun {
    /// The cause-tagged stall ledger.
    pub snapshot: AttributionSnapshot,
    /// Simulated wall ns of the run: machine cycles retired across
    /// every epoch **plus** the modelled commit/recovery stall time,
    /// which advances only the accountant's virtual clock (quiesce
    /// is the one cause mirrored on the machine clock). Guarantees
    /// every thread's stall fits inside the wall:
    /// `stall(tid) <= total_cycles`.
    pub total_cycles: u64,
}

/// The exhaustive sweep: enumerates every crash point of the workload
/// and injects a crash at each one, collecting survivals and
/// failures.
pub fn run_crash_matrix(cfg: &CrashMatrixConfig) -> CrashMatrixReport {
    let sites = enumerate_crash_sites(cfg).sites;
    let mut report = CrashMatrixReport {
        sites: sites.clone(),
        ..Default::default()
    };
    for (index, site) in sites.iter().enumerate() {
        match run_with_crash_at(cfg, index as u64) {
            Ok(outcome) => {
                debug_assert_eq!(
                    outcome.fired,
                    Some(*site),
                    "deterministic schedule: index {index} fired a different site"
                );
                report.ledgers.push(outcome.ledger);
            }
            Err(reason) => report.failures.push(CrashFailure {
                index: index as u64,
                site: *site,
                reason,
            }),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_covers_taxonomy() {
        let cfg = CrashMatrixConfig::default();
        let a = enumerate_crash_sites(&cfg).sites;
        let b = enumerate_crash_sites(&cfg).sites;
        assert_eq!(a, b, "same config, same schedule");
        assert!(a.len() > 40, "multi-thread run crosses many boundaries");
        // The eager taxonomy is exercised end to end.
        assert!(a.contains(&CrashSite::PreStage));
        assert!(a.iter().any(|s| matches!(s, CrashSite::MidStage { .. })));
        assert!(a.contains(&CrashSite::PreSeal));
        assert!(a.contains(&CrashSite::PostSeal));
        assert!(a.iter().any(|s| matches!(s, CrashSite::MidApply { .. })));
        assert!(a
            .iter()
            .any(|s| matches!(s, CrashSite::PostApplyThread { .. })));
        assert!(a.contains(&CrashSite::PostApplyPreRegisters));
        assert!(a
            .iter()
            .any(|s| matches!(s, CrashSite::MidRegisterApply { .. })));
        assert!(a.contains(&CrashSite::PostCommit));
        assert!(a
            .iter()
            .any(|s| matches!(s, CrashSite::MidBitmapClear { .. })));
        assert!(a.contains(&CrashSite::MidSwitchSave));
        assert!(a.contains(&CrashSite::MidSwitchRestore));
    }

    #[test]
    fn single_injected_crash_recovers_and_resumes() {
        let cfg = CrashMatrixConfig::default();
        let sites = enumerate_crash_sites(&cfg).sites;
        // A post-seal site mid-run: recovery must redo the commit.
        let (index, _) = sites
            .iter()
            .enumerate()
            .find(|(_, s)| matches!(s, CrashSite::MidApply { .. }))
            .expect("schedule contains a mid-apply boundary");
        let outcome = run_with_crash_at(&cfg, index as u64).expect("recovery survives");
        assert!(outcome.recovered_sequence >= 1);
        assert!(matches!(outcome.fired, Some(CrashSite::MidApply { .. })));
    }

    #[test]
    fn out_of_range_index_completes_without_crash() {
        let cfg = CrashMatrixConfig {
            intervals: 2,
            ..Default::default()
        };
        let sites = enumerate_crash_sites(&cfg).sites;
        let outcome = run_with_crash_at(&cfg, sites.len() as u64 + 100).unwrap();
        assert_eq!(outcome.fired, None);
        assert_eq!(outcome.recovered_sequence, 2, "all commits completed");
    }

    #[test]
    fn exhaustive_sweep_survives_every_crash_point() {
        // The acceptance-criterion sweep, on a reduced config so it
        // stays fast as a unit test; the bench binary runs bigger ones.
        let cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 2,
            stores_per_interval: 6,
            ..Default::default()
        };
        let report = run_crash_matrix(&cfg);
        assert!(
            report.all_survived(),
            "{} of {} crash points failed, first: {:?}",
            report.failures.len(),
            report.total(),
            report.failures.first()
        );
    }

    #[test]
    fn single_thread_matrix_also_survives() {
        let cfg = CrashMatrixConfig {
            threads: 1,
            intervals: 2,
            stores_per_interval: 5,
            ..Default::default()
        };
        let report = run_crash_matrix(&cfg);
        assert!(report.all_survived(), "{:?}", report.failures.first());
    }

    #[test]
    fn spine_schedule_crosses_the_new_sites() {
        let cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 3,
            stores_per_interval: 5,
            spine: Some(SpineConfig::merge_always()),
            ..Default::default()
        };
        let a = enumerate_crash_sites(&cfg).sites;
        let b = enumerate_crash_sites(&cfg).sites;
        assert_eq!(a, b, "same config, same schedule");
        assert!(a.iter().any(|s| matches!(s, CrashSite::BatchSeal { .. })));
        assert!(a.iter().any(|s| matches!(s, CrashSite::MidMerge { .. })));
        assert!(a.iter().any(|s| matches!(s, CrashSite::MergeRetire { .. })));
        assert!(
            !a.iter().any(|s| matches!(s, CrashSite::MidApply { .. })),
            "spine mode has no apply copy on the commit path"
        );
    }

    #[test]
    fn spine_sweep_survives_every_crash_point() {
        // The tentpole acceptance sweep: every batch-seal, mid-merge,
        // and merge-retire boundary must recover onto the committed
        // sequence with a byte-identical image and then resume to the
        // uninterrupted final state.
        let cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 3,
            stores_per_interval: 5,
            spine: Some(SpineConfig::merge_always()),
            ..Default::default()
        };
        let report = run_crash_matrix(&cfg);
        assert!(
            report.all_survived(),
            "{} of {} spine crash points failed, first: {:?}",
            report.failures.len(),
            report.total(),
            report.failures.first()
        );
    }

    #[test]
    fn spine_lazy_policy_sweep_survives_with_deep_spine() {
        // A lazy policy defers every merge past the run's end, so the
        // crash matrix exercises recovery folding a multi-batch spine.
        let cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 3,
            stores_per_interval: 5,
            spine: Some(SpineConfig::lazy(64)),
            ..Default::default()
        };
        let sites = enumerate_crash_sites(&cfg).sites;
        assert!(
            !sites
                .iter()
                .any(|s| matches!(s, CrashSite::MidMerge { .. })),
            "lazy(64) never merges inside this short run"
        );
        let report = run_crash_matrix(&cfg);
        assert!(report.all_survived(), "{:?}", report.failures.first());
    }

    #[test]
    fn spine_mid_merge_crashes_conserve_and_land_on_committed() {
        let cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 3,
            stores_per_interval: 5,
            spine: Some(SpineConfig::merge_always()),
            ..Default::default()
        };
        let sites = enumerate_crash_sites(&cfg).sites;
        let mut merges = 0;
        for (index, site) in sites.iter().enumerate() {
            if !matches!(
                site,
                CrashSite::MidMerge { .. } | CrashSite::MergeRetire { .. }
            ) {
                continue;
            }
            merges += 1;
            let outcome = run_with_crash_at(&cfg, index as u64)
                .unwrap_or_else(|e| panic!("merge crash at {index}: {e}"));
            assert_eq!(outcome.fired, Some(*site));
            assert!(
                outcome.recovered_sequence >= 2,
                "merges only run once the spine holds two batches"
            );
            outcome
                .ledger
                .snapshot
                .verify_conservation()
                .unwrap_or_else(|e| panic!("merge crash at {index}: {e}"));
            assert!(
                outcome
                    .ledger
                    .snapshot
                    .segments
                    .iter()
                    .any(|s| s.cause == prosper_telemetry::StallCause::Merge),
                "a torn merge must still carry Merge-cause segments"
            );
        }
        assert!(merges >= 3, "the schedule crosses several merge windows");
    }

    #[test]
    fn store_pattern_is_pure_and_aligned() {
        let cfg = CrashMatrixConfig::default();
        for (i, t, j) in [(0, 0, 0), (1, 1, 3), (2, 0, 11)] {
            let (off1, val1) = store_pattern(&cfg, i, t, j);
            let (off2, val2) = store_pattern(&cfg, i, t, j);
            assert_eq!((off1, val1), (off2, val2));
            assert_eq!(off1 % 8, 0);
            assert!(off1 + 8 <= STACK_BYTES);
        }
    }
}
