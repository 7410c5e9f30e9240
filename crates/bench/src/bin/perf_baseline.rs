//! Records the performance baseline.
//!
//! Runs the [`prosper_bench::perf`] suite — bitmap-inspection
//! speedups, parallel-commit scaling (classic and pipelined),
//! checkpoint-latency percentiles, end-to-end workload runtimes and
//! the staged-delta spine study — prints the tables, and
//! writes the JSON report to the path given with `--out`, which is
//! required: the committed records (`BENCH_pr3.json`,
//! `BENCH_pr7.json`, `BENCH_pr8.json`, `BENCH_pr9.json`) are never
//! overwritten by default.
//!
//! ```sh
//! cargo run --release -p prosper-bench --bin perf_baseline -- --out BENCH_new.json
//! cargo run --release -p prosper-bench --bin perf_baseline -- --quick --out BENCH_smoke.json
//! ```
//!
//! Exits nonzero if the acceptance gate fails (sparse-stack
//! inspection speedup < 5x, adaptive pipelined commit below 1.0x
//! serial on a multi-core host, spine critical-path latency above
//! eager, spine write amplification not at-or-below eager on every
//! pattern, missing sections) or the emitted JSON does not parse back.
//!
//! Gates that depend on host parallelism are auto-skipped on
//! single-core hosts; when that happens a prominent warning is
//! printed, because the recorded baseline then proves less than a
//! multi-core record would (the BENCH_pr7.json lesson: it was
//! recorded on a 1-core host with `gate_enforced: false` and nobody
//! noticed).

use std::process::ExitCode;

use prosper_bench::perf::{self, PerfConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let Some(out) = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
    else {
        eprintln!("usage: perf_baseline [--quick] --out <path>");
        return ExitCode::from(2);
    };

    let cfg = if quick {
        PerfConfig::quick()
    } else {
        PerfConfig::full()
    };
    println!(
        "Prosper perf baseline ({} budgets) -> {out}\n",
        if quick { "quick" } else { "full" }
    );

    let report = perf::run_all(&cfg);
    for table in perf::render(&report) {
        table.print();
    }

    let s = &report.summary;
    println!("summary:");
    println!(
        "  sparse-stack inspect speedup: {:.1}x (gate: >= {:.0}x)",
        s.sparse_stack_speedup,
        perf::SPARSE_STACK_GATE
    );
    println!(
        "  commit speedup at {} workers: {:.2}x",
        s.max_commit_workers, s.commit_speedup_at_max_workers
    );
    println!(
        "  pipelined adaptive pick: {} worker(s) at {:.2}x serial (gate {})",
        s.pipelined_adaptive_workers,
        s.pipelined_adaptive_speedup,
        if report.pipeline.gate_enforced {
            "enforced"
        } else {
            "skipped: single-core host"
        }
    );
    println!(
        "  checkpoint interval p99: {} cycles",
        s.ckpt_interval_p99_cycles
    );
    println!(
        "  hot-words NVM write amplification: spine {} vs eager {} milli \
         (gate: strictly lower)",
        s.spine_hot_words_write_amp_milli, s.eager_hot_words_write_amp_milli
    );

    if !report.pipeline.gate_enforced {
        eprintln!(
            "\n=========================================================================\n\
             WARNING: host parallelism is {} — the adaptive pipelined-commit speedup\n\
             gate was AUTO-SKIPPED (gate_enforced: false in the artifact). This\n\
             baseline does NOT demonstrate pipelined-commit scaling; re-record it on\n\
             a multi-core host before treating it as the reference.\n\
             =========================================================================",
            report.host_parallelism
        );
    }

    if let Err(why) = perf::validate(&report) {
        eprintln!("\nRESULT: FAIL ({why})");
        return ExitCode::FAILURE;
    }

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("\nRESULT: FAIL (serialize: {e:?})");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("\nRESULT: FAIL (write {out}: {e})");
        return ExitCode::FAILURE;
    }

    // Read the artifact back and check it is well-formed JSON with the
    // sections the consumers (CI, EXPERIMENTS.md) rely on.
    match std::fs::read_to_string(&out)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            serde_json::from_str::<serde_json::Value>(&text).map_err(|e| format!("{e:?}"))
        }) {
        Ok(v) => {
            let schema_ok = v.get("schema").and_then(|s| s.as_str()) == Some(perf::SCHEMA);
            let rows = v
                .get("bitmap")
                .and_then(|b| b.as_array())
                .map_or(0, Vec::len);
            if !schema_ok || rows == 0 {
                eprintln!("\nRESULT: FAIL ({out} is malformed or empty)");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("\nRESULT: FAIL (re-read {out}: {e})");
            return ExitCode::FAILURE;
        }
    }

    println!("\nwrote {out}");
    println!("RESULT: PASS");
    ExitCode::SUCCESS
}
