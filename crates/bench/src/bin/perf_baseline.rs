//! Runs the gated performance checks.
//!
//! Runs the [`prosper_bench::perf`] suite — bitmap-inspection speedups
//! and the staged-delta spine study — prints the tables and one verdict
//! per gate, and exits nonzero if any gate fails (sparse-stack
//! inspection speedup < 5x, spine critical-path latency above eager,
//! spine write amplification above eager on any pattern, or not
//! strictly below eager on repeated hot words). Every gate is judged
//! and printed, so a failing host-timed gate never hides the
//! deterministic spine gates.
//!
//! ```sh
//! cargo run --release -p prosper-bench --bin perf_baseline
//! ```

use std::process::ExitCode;

use prosper_bench::perf;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: perf_baseline (takes no arguments)");
        return ExitCode::from(2);
    }
    println!("Prosper perf baseline\n");

    let report = perf::run_all();
    for table in perf::render(&report) {
        table.print();
    }

    println!("gates:");
    let mut failed = 0;
    for (gate, verdict) in perf::verdicts(&report) {
        match verdict {
            Ok(detail) => println!("  PASS {gate}: {detail}"),
            Err(why) => {
                failed += 1;
                println!("  FAIL {gate}: {why}");
            }
        }
    }

    if failed > 0 {
        eprintln!("\nRESULT: FAIL ({failed} gate(s))");
        return ExitCode::FAILURE;
    }
    println!("\nRESULT: PASS");
    ExitCode::SUCCESS
}
