//! Artifact-style results verification.
//!
//! The paper's artifact ships "expected" output files and scripts that
//! compare a fresh run against them. This binary is the equivalent:
//! it loads the JSON produced by `all_figures --json` and runs
//! [`prosper_bench::verify::check_results`] on it, printing PASS/FAIL
//! per check and exiting nonzero if any check fails.
//!
//! ```sh
//! cargo run --release -p prosper-bench --bin all_figures -- --json results.json
//! cargo run --release -p prosper-bench --bin verify_results -- results.json
//! ```

use prosper_bench::verify::check_results;
use serde_json::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results.json".into());
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let data: Value = match serde_json::from_str(&json) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("malformed results file: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checks = check_results(&data);
    for c in &checks {
        let verdict = if c.ok { "PASS" } else { "FAIL" };
        println!("{verdict}  {} ({})", c.name, c.detail);
    }
    let passed = checks.iter().filter(|c| c.ok).count();
    println!("\n{passed}/{} checks passed", checks.len());
    if passed == checks.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
