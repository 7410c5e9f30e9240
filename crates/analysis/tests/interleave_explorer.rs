//! Exhaustive exploration of the commit-protocol model: the correct
//! coordinator/tracker protocol is clean; every seeded bug is detected
//! (the regression suite that proves the checker has teeth).

use prosper_analysis::interleave::{
    commit_program, explore, Bug, CommitConfig, ExploreReport, ExplorerConfig,
};

fn run(stacks: usize, sequences: u64, bug: Bug, bound: usize) -> ExploreReport {
    let program = commit_program(&CommitConfig {
        stacks,
        sequences,
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
    let r = run(4, 2, Bug::None, 2);
    assert!(r.schedules > 0);
    assert!(r.is_clean(), "findings in correct protocol: {r:?}");
}

#[test]
fn skipped_quiescence_handshake_is_caught() {
    let r = run(2, 1, Bug::SkipQuiesceHandshake, 1);
    assert!(
        r.races
            .iter()
            .any(|race| race.location.starts_with("bitmap")),
        "bitmap race without quiescence not detected: {r:?}"
    );
}

#[test]
fn skipped_resume_handshake_is_caught() {
    // The tracker dirties sequence 1 while the coordinator still
    // inspects and stages sequence 0.
    let r = run(2, 2, Bug::SkipResumeHandshake, 1);
    for loc in ["bitmap", "volatile"] {
        assert!(
            r.races.iter().any(|race| race.location.starts_with(loc)),
            "{loc} race without the resume wait not detected: {r:?}"
        );
    }
}

#[test]
fn every_seeded_bug_is_detected() {
    for &bug in Bug::ALL {
        let r = run(2, 2, bug, 1);
        assert!(
            !r.is_clean(),
            "seeded bug {} went undetected across {} schedules",
            bug.name(),
            r.schedules
        );
    }
}
