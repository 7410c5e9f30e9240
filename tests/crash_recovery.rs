//! Integration: crash consistency of the full Prosper pipeline —
//! tracker → bitmap inspection → copy runs → the whole-process
//! stage/seal/apply commit — with crashes injected between commits and
//! inside one, mirroring the paper's "kill gem5 mid-run and restart"
//! validation.

use std::collections::BTreeMap;

use prosper_repro::core::bitmap::CopyRun;
use prosper_repro::core::recovery::{CommitHooks, PersistentProcess};
use prosper_repro::core::tracker::{DirtyTracker, TrackerConfig};
use prosper_repro::gemos::crash::{CrashSite, FaultInjector};
use prosper_repro::memsim::addr::{VirtAddr, VirtRange};
use prosper_repro::trace::interval::IntervalCollector;
use prosper_repro::trace::record::TraceEvent;
use prosper_repro::trace::source::TraceSource;
use prosper_repro::trace::workloads::{Workload, WorkloadProfile};

/// Runs `intervals` tracked+checkpointed intervals of a workload on a
/// one-thread persistent process, mirroring store values into its
/// stack's data plane and committing each interval's runs. Returns
/// (tracker, process, stack range, per-interval run lists).
fn tracked_run(
    intervals: u64,
) -> (
    DirtyTracker,
    PersistentProcess,
    VirtRange,
    Vec<Vec<CopyRun>>,
) {
    let workload = Workload::new(WorkloadProfile::perlbench(), 17);
    let range = workload.stack().reserved_range();
    let top = workload.stack().top();
    let mut tracker = DirtyTracker::new(TrackerConfig::default());
    tracker.configure(range, VirtAddr::new(0x1000_0000));
    let mut process = PersistentProcess::new(&[range]);
    let mut collector = IntervalCollector::new(workload, 40_000);
    let mut all_runs = Vec::new();

    let mut ops = Vec::new();
    for interval in 0..intervals {
        let iv = collector.next_interval();
        for ev in &iv.events {
            if let TraceEvent::Access(a) = ev {
                if a.is_stack_store() {
                    tracker.observe_store(a.vaddr, u64::from(a.size), &mut ops);
                    let val = (a.vaddr.raw() as u8).wrapping_add(interval as u8);
                    process.record_store(0, a.vaddr, &vec![val; a.size as usize]);
                }
            }
        }
        tracker.flush();
        let geom = tracker.geometry();
        let watermark = tracker.min_soi_watermark().unwrap_or(top);
        let active = VirtRange::new(watermark, top);
        let (runs, _) = tracker.bitmap_mut().inspect_and_clear(&geom, active);
        process.commit(&BTreeMap::from([(0, runs.clone())]));
        tracker.reset_watermark();
        all_runs.push(runs);
    }
    (tracker, process, range, all_runs)
}

/// Simulates the power failure and recovers; returns the recovered
/// sequence.
fn crash_and_recover(process: &mut PersistentProcess) -> u64 {
    process.crash();
    process
        .recover()
        .expect("a sealed commit always recovers")
        .sequence
}

#[test]
fn recovery_after_clean_checkpoints_restores_everything() {
    let (_, mut process, range, runs) = tracked_run(4);
    assert_eq!(process.committed_sequence(), 4);
    assert!(runs.iter().all(|r| !r.is_empty()), "every interval dirtied");

    let before = process.stack(0).persistent().clone();
    crash_and_recover(&mut process);
    assert_eq!(process.committed_sequence(), 4);
    assert!(
        process.stack(0).volatile().matches(&before, range),
        "recovered image equals the pre-crash persistent image"
    );
}

#[test]
fn writes_after_last_checkpoint_are_lost_but_consistent() {
    let (mut tracker, mut process, range, _) = tracked_run(3);
    // Extra writes without a checkpoint.
    let addr = range.end() - 256u64;
    tracker.observe_store(addr, 8, &mut Vec::new());
    process.record_store(0, addr, &[0xEE; 8]);
    let committed = process.committed_sequence();

    crash_and_recover(&mut process);
    assert_eq!(process.committed_sequence(), committed);
    assert_ne!(
        process.stack(0).volatile().read(addr, 8),
        vec![0xEE; 8],
        "uncommitted write must not survive"
    );
}

#[test]
fn crash_between_stage_and_apply_is_idempotent() {
    let (_, mut process, range, _) = tracked_run(2);
    let addr = range.end() - 512u64;
    process.record_store(0, addr, &[0x42; 16]);
    let runs = BTreeMap::from([(
        0,
        vec![CopyRun {
            start: addr,
            len: 16,
        }],
    )]);
    // Seal the process record, then crash before the apply.
    let mut inj = FaultInjector::at_site(CrashSite::PostSeal);
    let crashed = process.commit_with(
        &runs,
        CommitHooks {
            faults: Some(&mut inj),
            ..CommitHooks::default()
        },
    );
    assert_eq!(crashed.map_err(|c| c.site), Err(CrashSite::PostSeal));
    assert_eq!(crash_and_recover(&mut process), 3);
    assert_eq!(
        process.stack(0).volatile().read(addr, 16),
        vec![0x42; 16],
        "sealed staging buffer replays on recovery"
    );
    // A second recovery changes nothing (idempotence).
    let seq = process.committed_sequence();
    crash_and_recover(&mut process);
    assert_eq!(process.committed_sequence(), seq);
    assert_eq!(process.stack(0).volatile().read(addr, 16), vec![0x42; 16]);
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    let (_, mut process, range, _) = tracked_run(5);
    let reference = process.stack(0).persistent().clone();
    for _ in 0..5 {
        crash_and_recover(&mut process);
        assert!(process.stack(0).volatile().matches(&reference, range));
    }
}

#[test]
fn tracker_runs_bound_the_data_plane() {
    // Every copy run produced by bitmap inspection must fall inside
    // the tracked range — otherwise staging would read outside the
    // thread's stack. Run a few intervals and assert the invariant
    // explicitly.
    let (_, process, range, all_runs) = tracked_run(3);
    for runs in &all_runs {
        for run in runs {
            assert!(range.contains(run.start));
            assert!(run.start + run.len <= range.end());
        }
    }
    assert!(process.committed_sequence() == 3);
}
