//! Exhaustive interleaving checker for the commit protocol.
//!
//! ```text
//! cargo run -p prosper-analysis --bin prosper-interleave [-- --json] [--skip-self-test]
//! ```
//!
//! Explores every bounded-preemption schedule of the modelled commit
//! protocol — the coordinator running stage, seal and apply in
//! program order, and the tracker answering its quiescence handshake
//! — and reports races, commit-order violations, and deadlocks. By
//! default it also runs the *self-test*: each deliberately seeded
//! protocol bug must be detected, proving the checker has teeth.
//! Exits nonzero when a correct configuration has findings, or when a
//! seeded bug goes undetected.

#![forbid(unsafe_code)]

use prosper_analysis::diag::json_string;
use prosper_analysis::interleave::{
    commit_program, explore, Bug, CommitConfig, ExploreReport, ExplorerConfig,
};

struct RunSpec {
    cfg: CommitConfig,
    bound: usize,
}

/// The correct protocol over 2 and 4 stacks and 2 and 3 sequences.
/// With two model threads the schedule space stays small, so each
/// runs at preemption bound 4.
fn correct_configs() -> Vec<RunSpec> {
    [(2, 2), (4, 2), (2, 3), (4, 3)]
        .into_iter()
        .map(|(stacks, sequences)| RunSpec {
            cfg: CommitConfig {
                stacks,
                sequences,
                bug: Bug::None,
            },
            bound: 4,
        })
        .collect()
}

fn bug_configs() -> Vec<RunSpec> {
    Bug::ALL
        .iter()
        .map(|&bug| RunSpec {
            cfg: CommitConfig {
                stacks: 2,
                sequences: 2,
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
        "stacks={} sequences={} bug={} bound={}: {} schedule(s), \
         {} race(s), {} order violation(s), {} deadlock(s){}",
        spec.cfg.stacks,
        spec.cfg.sequences,
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
    out.push_str("{\"stacks\":");
    out.push_str(&spec.cfg.stacks.to_string());
    out.push_str(",\"sequences\":");
    out.push_str(&spec.cfg.sequences.to_string());
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
