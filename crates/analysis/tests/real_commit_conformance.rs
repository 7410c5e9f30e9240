//! Conformance of the *real* commit path to the protocol order
//! invariants.
//!
//! The model explorer (see `interleave_explorer.rs`) proves the
//! protocol *design* safe; this suite ties the design to the
//! implementation: `CommitProbe` logs recorded inside
//! `PersistentProcess::commit_with` are mapped onto the same
//! `OrderEvent` trace format and checked with the same `check_order`
//! — one checker, two witnesses.

use prosper_analysis::interleave::{check_order, OrderEvent};
use prosper_core::bitmap::CopyRun;
use prosper_core::recovery::{CommitHooks, CommitProbe, CommitProbeEvent, PersistentProcess};
use prosper_gemos::crash::FaultInjector;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use std::collections::BTreeMap;

fn ranges(n: u64) -> Vec<VirtRange> {
    (0..n)
        .map(|i| {
            let top = 0x7000_0000 + (i + 1) * 0x10_0000;
            VirtRange::new(VirtAddr::new(top - 0x8000), VirtAddr::new(top))
        })
        .collect()
}

fn full_runs(p: &PersistentProcess, threads: u32) -> BTreeMap<u32, Vec<CopyRun>> {
    (0..threads)
        .map(|tid| {
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

/// Maps the probe's event log onto the order checker's trace format.
fn to_trace(events: &[CommitProbeEvent]) -> Vec<OrderEvent> {
    events
        .iter()
        .map(|e| match *e {
            CommitProbeEvent::StageThread { tid, sequence } => {
                OrderEvent::Stage { seq: sequence, tid }
            }
            CommitProbeEvent::Seal { sequence } => OrderEvent::Seal { seq: sequence },
            CommitProbeEvent::ApplyThread { tid, sequence } => {
                OrderEvent::Apply { seq: sequence, tid }
            }
            CommitProbeEvent::Retire { sequence } => OrderEvent::Retire { seq: sequence },
            CommitProbeEvent::MergeThread { tid, upto } => OrderEvent::Merge { seq: upto, tid },
        })
        .collect()
}

/// Commits `runs` through the commit engine with `probe` attached
/// (and `inj`, when given).
fn commit_probed(
    p: &mut PersistentProcess,
    runs: &BTreeMap<u32, Vec<CopyRun>>,
    probe: &CommitProbe,
    inj: Option<&mut FaultInjector>,
) {
    let hooks = CommitHooks {
        faults: inj,
        probe: Some(probe),
        acct: None,
    };
    p.commit_with(runs, hooks)
        .expect("no injector that fires is attached");
}

fn probe_commit(threads: u32, commits: u64) -> Vec<OrderEvent> {
    let mut p = PersistentProcess::new(&ranges(u64::from(threads)));
    let runs = full_runs(&p, threads);
    let probe = CommitProbe::new();
    for _ in 0..commits {
        commit_probed(&mut p, &runs, &probe, None);
    }
    to_trace(&probe.events())
}

/// Drives the real staged-delta-spine commit (`commit_with` on a
/// spine-configured process) and returns its probe stream.
fn probe_spine(threads: u32, commits: u64) -> Vec<OrderEvent> {
    let mut p = PersistentProcess::new_with_spine(
        &ranges(u64::from(threads)),
        prosper_core::SpineConfig::merge_always(),
    );
    let runs = full_runs(&p, threads);
    let probe = CommitProbe::new();
    for _ in 0..commits {
        commit_probed(&mut p, &runs, &probe, None);
    }
    to_trace(&probe.events())
}

/// Probe streams of commits run with a disabled injector attached, as
/// the crash matrix runs them: four eager commits, and three spine
/// commits that merge. One trace per process.
fn probe_crash_windowed(threads: u32) -> [Vec<OrderEvent>; 2] {
    let mut inj = FaultInjector::disabled();
    let mut eager = PersistentProcess::new(&ranges(u64::from(threads)));
    let runs = full_runs(&eager, threads);
    let probe = CommitProbe::new();
    for _ in 0..4 {
        commit_probed(&mut eager, &runs, &probe, Some(&mut inj));
    }
    let eager_trace = to_trace(&probe.events());

    let mut spine = PersistentProcess::new_with_spine(
        &ranges(u64::from(threads)),
        prosper_core::SpineConfig::merge_always(),
    );
    let probe = CommitProbe::new();
    for _ in 0..3 {
        commit_probed(&mut spine, &runs, &probe, Some(&mut inj));
    }
    [eager_trace, to_trace(&probe.events())]
}

#[test]
fn crash_windowed_commit_conforms() {
    // The body the crash matrix crashes emits a probe stream, and the
    // same checker accepts it.
    let [eager, spine] = probe_crash_windowed(3);
    for (mode, trace) in [("eager", &eager), ("spine", &spine)] {
        let violations = check_order(trace);
        assert!(
            violations.is_empty(),
            "{mode}: crash-windowed commit violated protocol order: \
             {violations:?}\ntrace: {trace:?}"
        );
    }
    // Per sequence: 3 stages + 1 seal + 3 applies + 1 retire.
    assert_eq!(eager.len(), 4 * 8, "four commits");
    assert!(
        spine.iter().any(|e| matches!(e, OrderEvent::Merge { .. })),
        "merge_always spine commits must emit merges"
    );
}

#[test]
fn real_spine_commit_conforms_and_merges_after_seal() {
    // PR 8: the spine schedule's probe stream — including the
    // MergeThread events the merge loop emits — passes the checker,
    // and every merge folds only sealed batches.
    let trace = probe_spine(2, 3);
    let violations = check_order(&trace);
    assert!(
        violations.is_empty(),
        "spine commit violated protocol order: {violations:?}\ntrace: {trace:?}"
    );
    assert!(
        trace.iter().any(|e| matches!(e, OrderEvent::Merge { .. })),
        "merge-always policy must emit merges"
    );
}

#[test]
fn checker_rejects_merge_before_seal_forgery() {
    // Slide a genuine merge event back before its batch's seal: the
    // merge-never-crosses-an-unsealed-batch rule must catch it.
    let mut trace = probe_spine(2, 2);
    assert!(check_order(&trace).is_empty());
    let merge = trace
        .iter()
        .position(|e| matches!(e, OrderEvent::Merge { .. }))
        .expect("spine trace has merges");
    let merge_seq = trace[merge].seq();
    let seal = trace
        .iter()
        .position(|e| matches!(e, OrderEvent::Seal { seq } if *seq == merge_seq))
        .expect("merged batch sealed");
    assert!(seal < merge, "genuine trace merges after the seal");
    let ev = trace.remove(merge);
    trace.insert(seal, ev); // now before seal(merge_seq)
    let violations = check_order(&trace);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            prosper_analysis::interleave::OrderViolation::MergeCrossesUnsealedBatch { .. }
        )),
        "checker accepted a merge-before-seal forgery: {violations:?}"
    );
}

#[test]
fn real_commit_respects_protocol_order() {
    let trace = probe_commit(4, 2);
    // Per commit: 4 stages + 1 seal + 4 applies + 1 retire.
    assert_eq!(trace.len(), 20, "unexpected event count");
    let violations = check_order(&trace);
    assert!(
        violations.is_empty(),
        "real commit path violated protocol order: {violations:?}\ntrace: {trace:?}"
    );
}

#[test]
fn real_commit_trace_has_single_seal_per_sequence() {
    let trace = probe_commit(2, 3);
    for seq in 1..=3u64 {
        let seals = trace
            .iter()
            .filter(|e| matches!(e, OrderEvent::Seal { seq: s } if *s == seq))
            .count();
        assert_eq!(seals, 1, "sequence {seq} must seal exactly once");
    }
}

#[test]
fn checker_rejects_pipelined_stage_before_prior_seal_forgery() {
    // Pipeline a genuine stage of sequence N+1 back past seal(N): the
    // one-sequence-at-a-time rule must catch exactly this.
    let mut trace = probe_commit(2, 2);
    assert!(check_order(&trace).is_empty());
    let second_seq = trace
        .iter()
        .map(OrderEvent::seq)
        .filter(|s| *s > trace[0].seq())
        .min()
        .expect("two commits, two sequences");
    let seal_n = trace
        .iter()
        .position(|e| matches!(e, OrderEvent::Seal { seq } if *seq == second_seq - 1))
        .expect("sequence N seals");
    let stage_n1 = trace
        .iter()
        .position(|e| matches!(e, OrderEvent::Stage { seq, .. } if *seq == second_seq))
        .expect("sequence N+1 stages");
    assert!(seal_n < stage_n1, "genuine trace stages N+1 after seal(N)");
    let ev = trace.remove(stage_n1);
    trace.insert(seal_n, ev); // now before seal(N)
    let violations = check_order(&trace);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            prosper_analysis::interleave::OrderViolation::SequenceOverlap { .. }
        )),
        "checker accepted a stage-before-prior-seal forgery: {violations:?}"
    );
}

#[test]
fn checker_rejects_reordered_real_trace() {
    // Take a genuine trace and forge the one reordering the protocol
    // exists to prevent: a stage sliding past its seal. The shared
    // checker must reject the forgery — otherwise the conformance
    // test above would be vacuous.
    let mut trace = probe_commit(2, 1);
    let seal = trace
        .iter()
        .position(|e| matches!(e, OrderEvent::Seal { .. }))
        .expect("trace has a seal");
    let stage = trace[..seal]
        .iter()
        .position(|e| matches!(e, OrderEvent::Stage { .. }))
        .expect("trace has a pre-seal stage");
    let ev = trace.remove(stage);
    trace.insert(seal, ev); // now after the seal
    let violations = check_order(&trace);
    assert!(
        !violations.is_empty(),
        "checker accepted a stage-after-seal forgery: {trace:?}"
    );
}
