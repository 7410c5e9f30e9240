//! Randomized crash schedules on top of the exhaustive sweep.
//!
//! The exhaustive matrix (`prosper_repro::core::faultinject`) visits
//! every boundary of one fixed workload; these properties vary the
//! workload shape and the crash placement randomly, and additionally
//! drive randomized write/commit/crash interleavings directly against
//! the two-phase whole-process commit.

use proptest::prelude::*;
use prosper_repro::core::bitmap::CopyRun;
use prosper_repro::core::faultinject::{
    enumerate_crash_sites, run_crash_matrix, run_with_crash_at, CrashMatrixConfig,
};
use prosper_repro::core::recovery::{CommitHooks, PersistentProcess};
use prosper_repro::core::SpineConfig;
use prosper_repro::gemos::crash::FaultInjector;
use prosper_repro::gemos::image::MemoryImage;
use prosper_repro::gemos::process::RegisterFile;
use prosper_repro::memsim::addr::{VirtAddr, VirtRange};
use std::collections::BTreeMap;

/// The acceptance-criterion sweep: every enumerated crash point of a
/// multi-thread micro workload is injected and survived.
#[test]
fn exhaustive_sweep_all_crash_points_survive() {
    let cfg = CrashMatrixConfig {
        threads: 2,
        intervals: 2,
        stores_per_interval: 6,
        ..Default::default()
    };
    let report = run_crash_matrix(&cfg);
    assert!(report.total() > 0);
    assert!(
        report.all_survived(),
        "{} of {} crash points failed, first: {:?}",
        report.failures.len(),
        report.total(),
        report.failures.first()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any workload shape, any crash placement: recovery always lands
    /// on a coherent checkpoint and the run resumes to the reference
    /// final state.
    #[test]
    fn random_crash_placement_always_recovers(
        params in (
            (1u32..4, 1u32..4, 1u32..9),
            (any::<u64>(), any::<u64>(), 0u8..3),
        )
    ) {
        let ((threads, intervals, stores_per_interval), (seed, pick, spine_mode)) = params;
        let cfg = CrashMatrixConfig {
            threads,
            intervals,
            stores_per_interval,
            seed,
            spine: match spine_mode {
                0 => None,
                1 => Some(SpineConfig::merge_always()),
                _ => Some(SpineConfig::lazy(64)),
            },
        };
        let sites = enumerate_crash_sites(&cfg).sites;
        prop_assert!(!sites.is_empty());
        let index = pick % sites.len() as u64;
        let outcome = run_with_crash_at(&cfg, index)
            .unwrap_or_else(|reason| panic!("crash at boundary {index}: {reason}"));
        prop_assert_eq!(outcome.fired, Some(sites[index as usize]));
    }
}

const STACK_BYTES: u64 = 0x4000;

fn stack_range(tid: u32) -> VirtRange {
    let top = 0x7000_0000 + (u64::from(tid) + 1) * 0x10_0000;
    VirtRange::new(VirtAddr::new(top - STACK_BYTES), VirtAddr::new(top))
}

/// One step of the randomized process-level schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Thread `tid % threads` writes `len` bytes of `value` at `offset`.
    Write {
        tid: u32,
        offset: u64,
        len: u8,
        value: u8,
    },
    /// Whole-process commit; `crash_pick` chooses a boundary index to
    /// crash at (`None` = commit runs to completion).
    Commit { crash_pick: Option<u64> },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (any::<u32>(), 0u64..(STACK_BYTES - 64), 1u8..64, any::<u8>())
            .prop_map(|(tid, offset, len, value)| Step::Write { tid, offset, len, value }),
        2 => Just(Step::Commit { crash_pick: None }),
        2 => (0u64..48).prop_map(|n| Step::Commit { crash_pick: Some(n) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary interleavings of per-thread writes and (possibly
    /// crashed) whole-process commits: after every step the committed
    /// view is one coherent checkpoint — every stack and register slot
    /// on the same sequence, with the image of that commit.
    #[test]
    fn random_commit_crash_schedules_stay_coherent(
        steps in prop::collection::vec(arb_step(), 1..40),
        threads in 1u32..4,
    ) {
        let ranges: Vec<VirtRange> = (0..threads).map(stack_range).collect();
        let mut p = PersistentProcess::new(&ranges);
        let full_runs: BTreeMap<u32, Vec<CopyRun>> = (0..threads)
            .map(|tid| {
                let r = stack_range(tid);
                (tid, vec![CopyRun { start: r.start(), len: r.len() }])
            })
            .collect();
        // Ground truth: live state, and state of the last effective
        // (completed or sealed) commit.
        let mut live: Vec<MemoryImage> = vec![MemoryImage::new(); threads as usize];
        let mut committed: Vec<MemoryImage> = vec![MemoryImage::new(); threads as usize];
        let mut live_regs: Vec<RegisterFile> = vec![RegisterFile::default(); threads as usize];
        let mut committed_regs: Vec<RegisterFile> = vec![RegisterFile::default(); threads as usize];
        let mut effective_commits: u64 = 0;

        for (step_no, step) in steps.iter().enumerate() {
            match step {
                Step::Write { tid, offset, len, value } => {
                    let tid = tid % threads;
                    let addr = stack_range(tid).start() + *offset;
                    let bytes = vec![*value; *len as usize];
                    p.record_store(tid, addr, &bytes);
                    live[tid as usize].write(addr, &bytes);
                    let regs = p.regs_mut(tid);
                    regs.rip = step_no as u64 + 1;
                    live_regs[tid as usize].rip = step_no as u64 + 1;
                }
                Step::Commit { crash_pick } => {
                    let mut inj = match crash_pick {
                        Some(n) => FaultInjector::at_index(*n),
                        None => FaultInjector::disabled(),
                    };
                    let hooks = CommitHooks {
                        faults: Some(&mut inj),
                        ..CommitHooks::default()
                    };
                    match p.commit_with(&full_runs, hooks) {
                        Ok(()) => {
                            effective_commits += 1;
                            committed.clone_from(&live);
                            committed_regs.clone_from(&live_regs);
                        }
                        Err(crash) => {
                            if crash.site.is_post_seal() {
                                // The commit point passed: recovery
                                // redoes this commit.
                                effective_commits += 1;
                                committed.clone_from(&live);
                                committed_regs.clone_from(&live_regs);
                            }
                            p.crash();
                            if effective_commits == 0 {
                                prop_assert!(
                                    p.recover().is_err(),
                                    "recovered before any commit sealed"
                                );
                                p = PersistentProcess::new(&ranges);
                            } else {
                                let rec = p.recover().expect("a sealed commit must recover");
                                prop_assert_eq!(rec.sequence, effective_commits);
                            }
                            live.clone_from(&committed);
                            live_regs.clone_from(&committed_regs);
                        }
                    }
                }
            }
            // Invariants, after every step.
            let seq = p.verify_coherent().expect("no cross-component skew");
            prop_assert_eq!(seq, effective_commits);
            for tid in 0..threads {
                let range = stack_range(tid);
                prop_assert!(
                    p.stack(tid).volatile().matches(&live[tid as usize], range),
                    "thread {} volatile image diverged at {:?}",
                    tid,
                    p.stack(tid).volatile().first_mismatch(&live[tid as usize], range)
                );
                prop_assert!(
                    p.stack(tid).persistent().matches(&committed[tid as usize], range),
                    "thread {} persistent image diverged at {:?}",
                    tid,
                    p.stack(tid).persistent().first_mismatch(&committed[tid as usize], range)
                );
                prop_assert_eq!(p.regs(tid).rip, live_regs[tid as usize].rip);
            }
        }
    }
}
