//! Exhaustive exploration of the commit-protocol model: correct
//! configurations at 1, 2, and 4 workers are clean; every seeded bug
//! is detected (the regression suite that proves the checker has
//! teeth).

use prosper_analysis::interleave::{
    commit_program, explore, Bug, CommitConfig, ExploreReport, ExplorerConfig, OrderViolation,
};

fn run(workers: usize, stacks: usize, sequences: u64, bug: Bug, bound: usize) -> ExploreReport {
    run_model(workers, stacks, sequences, bug, bound, false)
}

fn run_pipelined(
    workers: usize,
    stacks: usize,
    sequences: u64,
    bug: Bug,
    bound: usize,
) -> ExploreReport {
    run_model(workers, stacks, sequences, bug, bound, true)
}

fn run_model(
    workers: usize,
    stacks: usize,
    sequences: u64,
    bug: Bug,
    bound: usize,
    pipelined: bool,
) -> ExploreReport {
    let program = commit_program(&CommitConfig {
        workers,
        stacks,
        sequences,
        pipelined,
        bug,
    });
    let report = explore(
        &program,
        &ExplorerConfig {
            preemption_bound: bound,
            max_schedules: 2_000_000,
        },
    );
    assert!(
        !report.truncated,
        "exploration truncated at {} schedules — tighten the config",
        report.schedules
    );
    report
}

#[test]
fn one_worker_commit_is_clean() {
    let r = run(1, 4, 2, Bug::None, 2);
    assert!(r.schedules > 0);
    assert!(r.is_clean(), "findings in correct 1-worker protocol: {r:?}");
}

#[test]
fn two_worker_commit_is_clean() {
    let r = run(2, 4, 2, Bug::None, 1);
    assert!(
        r.schedules > 100,
        "suspiciously few schedules: {}",
        r.schedules
    );
    assert!(r.is_clean(), "findings in correct 2-worker protocol: {r:?}");
}

#[test]
fn four_worker_commit_is_clean() {
    let r = run(4, 4, 1, Bug::None, 1);
    assert!(
        r.schedules > 1000,
        "suspiciously few schedules: {}",
        r.schedules
    );
    assert!(r.is_clean(), "findings in correct 4-worker protocol: {r:?}");
}

#[test]
fn broken_serial_seal_guard_is_caught() {
    // The seeded seal-reordering bug: the coordinator seals without
    // joining the stage workers. The explorer must reproduce the
    // stage-after-seal ordering.
    let r = run(2, 2, 1, Bug::SealBeforeStageDone, 1);
    assert!(
        r.order_violations
            .iter()
            .any(|(v, _)| matches!(v, OrderViolation::StageAfterSeal { .. })),
        "seal-before-stage-done not detected: {r:?}"
    );
    // The witness schedule is recorded for replay.
    let (_, witness) = &r.order_violations[0];
    assert!(!witness.is_empty());
}

#[test]
fn shared_apply_cursor_race_is_caught() {
    let r = run(2, 2, 1, Bug::SharedApplyCursor, 1);
    assert!(
        r.races.iter().any(|race| race.location == "apply_cursor"),
        "shared-cursor race not detected: {r:?}"
    );
}

#[test]
fn skipped_quiescence_handshake_is_caught() {
    let r = run(1, 2, 1, Bug::SkipQuiesceHandshake, 1);
    assert!(
        r.races
            .iter()
            .any(|race| race.location.starts_with("bitmap")),
        "bitmap race without quiescence not detected: {r:?}"
    );
}

#[test]
fn overlapped_sequences_are_caught() {
    // Without the apply join, the coordinator seals sequence N+1 with
    // sequence N's drain window (apply join + record retire) still
    // open — the sharpened invariant's second half.
    let r = run(2, 2, 2, Bug::OverlappedSequences, 1);
    assert!(
        r.order_violations
            .iter()
            .any(|(v, _)| matches!(v, OrderViolation::SealBeforePriorRetire { .. })),
        "cross-sequence overlap not detected: {r:?}"
    );
}

#[test]
fn pipelined_commit_is_clean_at_every_worker_count() {
    // PR 7 acceptance: the pipelined protocol — stage(N+1) overlapping
    // apply(N) behind seal(N) — explores clean at 1, 2, and 4 workers.
    // Two sequences keep the overlap window open at 1 and 2 workers;
    // at 4 workers the two-sequence schedule space exceeds the cap,
    // so the 4-worker run covers a single pipelined burst (the final
    // drain join) and the prosper-interleave binary adds a 3-worker
    // two-sequence sweep in release mode.
    for (workers, sequences, bound) in [(1, 2, 2), (2, 2, 1), (4, 1, 1)] {
        let r = run_pipelined(workers, 4, sequences, Bug::None, bound);
        assert!(r.schedules > 0);
        assert!(
            r.is_clean(),
            "findings in correct pipelined {workers}-worker protocol: {r:?}"
        );
    }
}

#[test]
fn stage_before_prior_seal_is_caught() {
    // The pipelined-only seed: the commit point drifts behind the
    // staged-ahead work, violating the sharpened invariant's first
    // half (no stage(N+1) before seal(N)).
    let r = run_pipelined(2, 2, 2, Bug::StageBeforePriorSeal, 1);
    assert!(
        r.order_violations
            .iter()
            .any(|(v, _)| matches!(v, OrderViolation::StageBeforePriorSeal { .. })),
        "stage-before-prior-seal not detected: {r:?}"
    );
}

#[test]
fn every_seeded_bug_is_detected() {
    for &bug in Bug::ALL {
        // StageBeforePriorSeal only exists on the pipelined path.
        let pipelined = bug == Bug::StageBeforePriorSeal;
        let r = run_model(2, 2, 2, bug, 1, pipelined);
        assert!(
            !r.is_clean(),
            "seeded bug {} went undetected across {} schedules",
            bug.name(),
            r.schedules
        );
    }
}
