//! Conservation tests for the causal stall-attribution layer.
//!
//! The load-bearing invariant: for every thread, the cause-tagged
//! stall segments must exactly tile the measured stall windows —
//! attributed ns sum to measured stall ns with no gaps and no
//! overlaps. Exact (not approximate) under the deterministic virtual
//! clock, across the micro-workload, the commit path, and a
//! crash+recover run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use prosper_core::bitmap::CopyRun;
use prosper_core::faultinject::{enumerate_crash_sites, run_with_crash_at, CrashMatrixConfig};
use prosper_core::recovery::{CommitHooks, CommitProbe, CommitProbeEvent, PersistentProcess};
use prosper_core::ProsperMechanism;
use prosper_gemos::checkpoint::CheckpointManager;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_telemetry::{AttributionSnapshot, StallAccountant, StallCause};
use prosper_trace::micro::{MicroBench, MicroSpec};

fn small() -> CrashMatrixConfig {
    CrashMatrixConfig {
        threads: 2,
        intervals: 2,
        stores_per_interval: 6,
        ..Default::default()
    }
}

#[test]
fn clean_commit_runs_conserve() {
    let run = enumerate_crash_sites(&small()).ledger;
    run.snapshot
        .verify_conservation()
        .unwrap_or_else(|e| panic!("{e}"));
    let per = run.snapshot.per_thread();
    assert_eq!(per.len(), 2, "both threads stalled");
    for (tid, t) in &per {
        assert_eq!(
            t.attributed_ns, t.window_ns,
            "thread {tid}: attributed must sum to measured stall"
        );
        assert!(t.attributed_ns > 0, "thread {tid} never stalled?");
        assert!(
            t.window_ns <= run.total_cycles,
            "thread {tid}: stall must fit inside the run's wall time"
        );
    }
    // Every commit phase and tracker quiescence shows up.
    for cause in [
        StallCause::Stage,
        StallCause::Seal,
        StallCause::Apply,
        StallCause::Quiesce,
    ] {
        assert!(
            run.snapshot.cause_total_ns(cause) > 0,
            "no {cause:?} time attributed"
        );
    }
    assert!(run.total_cycles > 0);
}

#[test]
fn attributed_runs_are_deterministic() {
    let a = enumerate_crash_sites(&small()).ledger;
    let b = enumerate_crash_sites(&small()).ledger;
    assert_eq!(a.snapshot, b.snapshot, "same config ⇒ identical ledger");
    assert_eq!(a.total_cycles, b.total_cycles);
}

#[test]
fn crash_and_recover_runs_conserve_with_recovery_attributed() {
    let cfg = small();
    let sites = enumerate_crash_sites(&cfg).sites;
    assert!(!sites.is_empty());
    // Sweep a spread of crash points, always including the last one
    // (deep in the final commit, post-seal ⇒ redo recovery).
    let picks = [0, sites.len() as u64 / 2, sites.len() as u64 - 1];
    let mut saw_recovery = false;
    for &index in &picks {
        let outcome =
            run_with_crash_at(&cfg, index).unwrap_or_else(|e| panic!("crash at {index}: {e}"));
        assert!(outcome.fired.is_some(), "index {index} in range must fire");
        let run = &outcome.ledger;
        run.snapshot
            .verify_conservation()
            .unwrap_or_else(|e| panic!("crash at {index}: {e}"));
        if run.snapshot.cause_total_ns(StallCause::Recovery) > 0 {
            saw_recovery = true;
        }
    }
    assert!(
        saw_recovery,
        "at least one crash point must attribute recovery replay time"
    );
}

#[test]
fn torn_commit_ledger_closes_at_the_crash_instant() {
    // Crash at every site of a tiny run: whatever partial commit the
    // crash tears, the ledger must still conserve exactly — the
    // commit engine closes the open segment and window at the crash
    // instant.
    let cfg = CrashMatrixConfig {
        threads: 1,
        intervals: 1,
        stores_per_interval: 4,
        ..Default::default()
    };
    let total = enumerate_crash_sites(&cfg).sites.len() as u64;
    for index in 0..total {
        let outcome =
            run_with_crash_at(&cfg, index).unwrap_or_else(|e| panic!("crash at {index}: {e}"));
        outcome
            .ledger
            .snapshot
            .verify_conservation()
            .unwrap_or_else(|e| panic!("crash at {index}: {e}"));
    }
}

#[test]
fn micro_workload_checkpoints_conserve() {
    let acct = Arc::new(StallAccountant::new_virtual());
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, 200_000);
    let mut mech = ProsperMechanism::with_defaults();
    mech.set_attribution(Arc::clone(&acct), 0);
    let bench = MicroBench::new(MicroSpec::Quicksort { elements: 512 }, 0xB0B);
    let res = mgr.run_stack_only(bench, &mut mech, 4);
    assert!(res.total_cycles > 0);

    let snap = acct.snapshot();
    snap.verify_conservation()
        .expect("micro workload conserves");
    let per = snap.per_thread();
    let t0 = &per[&0];
    assert_eq!(t0.windows, 4, "one stall window per interval");
    assert_eq!(t0.attributed_ns, t0.window_ns);
    for cause in [StallCause::Quiesce, StallCause::Inspect, StallCause::Stage] {
        assert!(
            snap.cause_total_ns(cause) > 0,
            "no {cause:?} time in the micro run"
        );
    }
    // The stall ledger is bounded by the run: the foreground thread
    // cannot stall longer than the machine ran.
    assert!(t0.window_ns <= res.total_cycles);

    // Determinism: an identical second run yields an identical ledger.
    let acct2 = Arc::new(StallAccountant::new_virtual());
    let mut machine2 = Machine::new(MachineConfig::setup_i());
    let mut mgr2 = CheckpointManager::new(&mut machine2, 200_000);
    let mut mech2 = ProsperMechanism::with_defaults();
    mech2.set_attribution(Arc::clone(&acct2), 0);
    let bench2 = MicroBench::new(MicroSpec::Quicksort { elements: 512 }, 0xB0B);
    mgr2.run_stack_only(bench2, &mut mech2, 4);
    assert_eq!(snap, acct2.snapshot());
}

#[test]
fn probe_event_stream_is_the_causal_witness_for_the_ledger() {
    // One commit run, two observers: the PR-4 `CommitProbe` (the
    // protocol-order witness) and the stall accountant (the ledger).
    // They must tell the same causal story — same commit sequences,
    // same per-thread phase structure, and segment boundaries ordered
    // the way the probe saw the phases happen (stage → seal → apply,
    // contiguously).
    const THREADS: u32 = 3;
    let ranges: Vec<VirtRange> = (0..u64::from(THREADS))
        .map(|i| {
            let top = 0x7000_0000 + (i + 1) * 0x10_0000;
            VirtRange::new(VirtAddr::new(top - 0x8000), VirtAddr::new(top))
        })
        .collect();
    let mut p = PersistentProcess::new(&ranges);
    let runs: BTreeMap<u32, Vec<CopyRun>> = (0..THREADS)
        .map(|tid| {
            let r = p.stack(tid).range();
            (
                tid,
                vec![CopyRun {
                    start: r.start(),
                    len: 256,
                }],
            )
        })
        .collect();

    let probe = CommitProbe::new();
    let acct = StallAccountant::new_virtual();
    for _ in 0..3 {
        let hooks = CommitHooks {
            faults: None,
            probe: Some(&probe),
            acct: Some(&acct),
        };
        p.commit_with(&runs, hooks)
            .expect("no injector is attached");
    }
    let snap = acct.snapshot();
    snap.verify_conservation().expect("witnessed run conserves");

    // Both observers agree on which commit sequences happened.
    let probe_seqs: BTreeSet<u64> = probe
        .events()
        .iter()
        .filter_map(|e| match *e {
            CommitProbeEvent::Seal { sequence } => Some(sequence),
            _ => None,
        })
        .collect();
    let ledger_seqs: BTreeSet<u64> = snap.segments.iter().map(|s| s.sequence).collect();
    assert_eq!(probe_seqs.len(), 3, "three commits sealed");
    assert_eq!(
        probe_seqs, ledger_seqs,
        "probe and ledger must witness the same commit sequences"
    );

    // Per sequence the probe saw every thread stage and apply; the
    // ledger must charge every thread one segment per commit phase.
    for &seq in &probe_seqs {
        let staged: BTreeSet<u32> = probe
            .events()
            .iter()
            .filter_map(|e| match *e {
                CommitProbeEvent::StageThread { tid, sequence } if sequence == seq => Some(tid),
                _ => None,
            })
            .collect();
        assert_eq!(staged.len() as u32, THREADS, "seq {seq}: all threads stage");
        for tid in staged {
            let phases: Vec<&prosper_telemetry::StallSegment> = snap
                .segments
                .iter()
                .filter(|s| s.tid == tid && s.sequence == seq)
                .collect();
            let causes: Vec<StallCause> = phases.iter().map(|s| s.cause).collect();
            assert_eq!(
                causes,
                vec![StallCause::Stage, StallCause::Seal, StallCause::Apply],
                "seq {seq} tid {tid}: ledger phases must match the probe's \
                 stage → seal → apply order"
            );
            // Contiguous boundaries: the same telescoping instants the
            // probe's ordering implies.
            assert_eq!(phases[0].end_ns, phases[1].start_ns);
            assert_eq!(phases[1].end_ns, phases[2].start_ns);
        }
    }
}

#[test]
fn snapshot_survives_serde_roundtrip() {
    let run = enumerate_crash_sites(&small()).ledger;
    let json = serde_json::to_string(&run.snapshot).expect("serialize");
    let back: AttributionSnapshot = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(run.snapshot, back);
    back.verify_conservation().expect("roundtrip conserves");
}
