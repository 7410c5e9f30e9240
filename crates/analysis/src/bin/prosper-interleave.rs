//! Exhaustive interleaving checker for the commit protocol.
//!
//! ```text
//! cargo run -p prosper-analysis --bin prosper-interleave [-- --json] [--skip-self-test]
//! ```
//!
//! Explores every bounded-preemption schedule of the modelled commit
//! protocol at 1, 2, and 4 workers (the engine runs the 1-worker
//! schedule; more workers over-approximate it) — in both the classic
//! stage/seal/apply form and the PR-7 pipelined form where stage(N+1)
//! overlaps apply(N) — and reports races, commit-order violations,
//! and deadlocks. By default it also runs the
//! *self-test*: each deliberately seeded protocol bug must be
//! detected, proving the checker has teeth. Exits nonzero when a
//! correct configuration has findings, or when a seeded bug goes
//! undetected.

#![forbid(unsafe_code)]

use prosper_analysis::diag::json_string;
use prosper_analysis::interleave::{
    commit_program, explore, Bug, CommitConfig, ExploreReport, ExplorerConfig,
};

struct RunSpec {
    cfg: CommitConfig,
    bound: usize,
}

fn correct_configs() -> Vec<RunSpec> {
    vec![
        RunSpec {
            cfg: CommitConfig {
                workers: 1,
                stacks: 4,
                sequences: 2,
                pipelined: false,
                bug: Bug::None,
            },
            bound: 2,
        },
        RunSpec {
            cfg: CommitConfig {
                workers: 2,
                stacks: 4,
                sequences: 2,
                pipelined: false,
                bug: Bug::None,
            },
            bound: 1,
        },
        RunSpec {
            cfg: CommitConfig {
                workers: 4,
                stacks: 4,
                sequences: 1,
                pipelined: false,
                bug: Bug::None,
            },
            bound: 1,
        },
        // The PR-7 pipelined protocol: stage(N+1) overlaps apply(N).
        // Two sequences so the overlap window actually opens.
        RunSpec {
            cfg: CommitConfig {
                workers: 1,
                stacks: 4,
                sequences: 2,
                pipelined: true,
                bug: Bug::None,
            },
            bound: 2,
        },
        RunSpec {
            cfg: CommitConfig {
                workers: 2,
                stacks: 4,
                sequences: 2,
                pipelined: true,
                bug: Bug::None,
            },
            bound: 1,
        },
        // Widest exhaustive overlap-window exploration: 3 workers
        // with uneven chunks. (4 workers x 2 sequences exceeds the
        // schedule cap even at bound 0.)
        RunSpec {
            cfg: CommitConfig {
                workers: 3,
                stacks: 4,
                sequences: 2,
                pipelined: true,
                bug: Bug::None,
            },
            bound: 1,
        },
        // The 4-worker pipelined path for a single burst: the final
        // drain join replaces the per-sequence apply join.
        RunSpec {
            cfg: CommitConfig {
                workers: 4,
                stacks: 4,
                sequences: 1,
                pipelined: true,
                bug: Bug::None,
            },
            bound: 1,
        },
    ]
}

fn bug_configs() -> Vec<RunSpec> {
    Bug::ALL
        .iter()
        .map(|&bug| RunSpec {
            cfg: CommitConfig {
                workers: 2,
                stacks: 2,
                sequences: 2,
                // StageBeforePriorSeal only exists on the pipelined
                // path; the other seeds break the classic protocol.
                pipelined: bug == Bug::StageBeforePriorSeal,
                bug,
            },
            bound: 1,
        })
        .collect()
}

fn run_spec(spec: &RunSpec) -> ExploreReport {
    let program = commit_program(&spec.cfg);
    explore(
        &program,
        &ExplorerConfig {
            preemption_bound: spec.bound,
            max_schedules: 2_000_000,
        },
    )
}

fn describe(spec: &RunSpec, report: &ExploreReport) -> String {
    format!(
        "workers={} stacks={} sequences={} pipelined={} bug={} bound={}: {} schedule(s), \
         {} race(s), {} order violation(s), {} deadlock(s){}",
        spec.cfg.workers,
        spec.cfg.stacks,
        spec.cfg.sequences,
        spec.cfg.pipelined,
        spec.cfg.bug.name(),
        spec.bound,
        report.schedules,
        report.races.len(),
        report.order_violations.len(),
        report.deadlocks,
        if report.truncated { " [truncated]" } else { "" },
    )
}

fn json_entry(out: &mut String, spec: &RunSpec, report: &ExploreReport, ok: bool) {
    out.push_str("{\"workers\":");
    out.push_str(&spec.cfg.workers.to_string());
    out.push_str(",\"stacks\":");
    out.push_str(&spec.cfg.stacks.to_string());
    out.push_str(",\"sequences\":");
    out.push_str(&spec.cfg.sequences.to_string());
    out.push_str(",\"pipelined\":");
    out.push_str(if spec.cfg.pipelined { "true" } else { "false" });
    out.push_str(",\"bug\":");
    json_string(out, spec.cfg.bug.name());
    out.push_str(",\"schedules\":");
    out.push_str(&report.schedules.to_string());
    out.push_str(",\"races\":[");
    for (i, r) in report.races.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"location\":");
        json_string(out, &r.location);
        out.push_str(",\"threads\":[");
        json_string(out, &r.thread_a);
        out.push(',');
        json_string(out, &r.thread_b);
        out.push_str("],\"label\":");
        json_string(out, &r.label);
        out.push('}');
    }
    out.push_str("],\"order_violations\":[");
    for (i, (v, _)) in report.order_violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, &v.to_string());
    }
    out.push_str("],\"deadlocks\":");
    out.push_str(&report.deadlocks.to_string());
    out.push_str(",\"ok\":");
    out.push_str(if ok { "true" } else { "false" });
    out.push('}');
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let self_test = !args.iter().any(|a| a == "--skip-self-test");
    if args
        .iter()
        .any(|a| a != "--json" && a != "--skip-self-test")
    {
        eprintln!("usage: prosper-interleave [--json] [--skip-self-test]");
        std::process::exit(2);
    }

    let mut failed = false;
    let mut out = String::from("{\"correct\":[");

    for (i, spec) in correct_configs().iter().enumerate() {
        let report = run_spec(spec);
        let ok = report.is_clean() && !report.truncated;
        failed |= !ok;
        if json {
            if i > 0 {
                out.push(',');
            }
            json_entry(&mut out, spec, &report, ok);
        } else {
            println!(
                "[{}] {}",
                if ok { "ok" } else { "FAIL" },
                describe(spec, &report)
            );
            for (v, _) in &report.order_violations {
                println!("      order violation: {v}");
            }
            for r in &report.races {
                println!(
                    "      race on {} between {} and {} ({})",
                    r.location, r.thread_a, r.thread_b, r.label
                );
            }
        }
    }
    out.push_str("],\"self_test\":[");

    if self_test {
        for (i, spec) in bug_configs().iter().enumerate() {
            let report = run_spec(spec);
            // A seeded bug *must* be detected.
            let ok = !report.is_clean();
            failed |= !ok;
            if json {
                if i > 0 {
                    out.push(',');
                }
                json_entry(&mut out, spec, &report, ok);
            } else {
                println!(
                    "[{}] {}",
                    if ok { "ok" } else { "FAIL" },
                    describe(spec, &report)
                );
            }
        }
    }
    out.push_str("],\"ok\":");
    out.push_str(if failed { "false" } else { "true" });
    out.push('}');

    if json {
        println!("{out}");
    } else {
        println!(
            "prosper-interleave: {}",
            if failed { "FAIL" } else { "all checks passed" }
        );
    }
    if failed {
        std::process::exit(1);
    }
}
