//! Exhaustive crash-point sweep of the checkpoint pipeline.
//!
//! Enumerates every step boundary of the two-phase whole-process
//! commit (plus the OS-side bitmap-clear and context-switch windows),
//! injects a simulated power failure at each one, and verifies that
//! recovery lands on a coherent checkpoint and the workload resumes
//! to the same final state as an uninterrupted run.
//!
//! ```sh
//! cargo run --release -p prosper-bench --bin crash_matrix
//! cargo run --release -p prosper-bench --bin crash_matrix -- --quick
//! # additionally archive the cause-tagged stall attribution of the
//! # full matrix (the ledger every point's run carries, conservation
//! # verified at each one):
//! cargo run --release -p prosper-bench --bin crash_matrix -- \
//!     --telemetry-snapshot matrix_attribution.json
//! ```
//!
//! Exits nonzero if any crash point fails verification.

use std::process::ExitCode;

use prosper_bench::crash_matrix::{
    default_suite, kind_coverage, matrix_attribution, quick_suite, run_suite, MatrixRow,
};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let snapshot_path = argv
        .iter()
        .position(|a| a == "--telemetry-snapshot")
        .map(|i| match argv.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("--telemetry-snapshot needs a path argument");
                std::process::exit(2);
            }
        });
    let suite = if quick {
        quick_suite()
    } else {
        default_suite()
    };

    let rows = run_suite(&suite);

    println!("Crash-point matrix: exhaustive sweep of the checkpoint pipeline");
    println!(
        "{} workload shape(s), one injected power failure per enumerated boundary\n",
        rows.len()
    );

    let mut any_failed = false;
    for row in &rows {
        println!(
            "[{}] threads={} intervals={} stores/interval={}",
            row.label, row.cfg.threads, row.cfg.intervals, row.cfg.stores_per_interval
        );
        println!(
            "  crash points exercised: {:>4}   survived: {:>4}   failed: {}",
            row.report.total(),
            row.report.survived(),
            row.report.failures.len()
        );
        for kc in kind_coverage(&row.report) {
            println!(
                "    {:<26} exercised {:>3}   failed {}",
                kc.kind, kc.exercised, kc.failed
            );
        }
        for failure in &row.report.failures {
            any_failed = true;
            println!(
                "  FAIL  boundary #{} at {}: {}",
                failure.index, failure.site, failure.reason
            );
        }
        println!();
    }

    let sum = |f: fn(&MatrixRow) -> u64| rows.iter().map(f).sum::<u64>();
    println!(
        "total: {} crash points, {} survived, {} failed",
        sum(|r| r.report.total()),
        sum(|r| r.report.survived()),
        sum(|r| r.report.failures.len() as u64)
    );

    if let Some(path) = &snapshot_path {
        let archive = matrix_attribution(&rows);
        let total_points: u64 = archive.rows.iter().map(|r| r.points).sum();
        let json = serde_json::to_string_pretty(&archive).expect("archive serializes");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("failed to write {path}: {e}");
            any_failed = true;
        } else {
            println!(
                "\narchived stall attribution of {total_points} crash points \
                 (conservation verified at every one) to {path}"
            );
        }
    }

    if any_failed {
        println!("\nRESULT: FAIL");
        ExitCode::FAILURE
    } else {
        println!("\nRESULT: PASS");
        ExitCode::SUCCESS
    }
}
