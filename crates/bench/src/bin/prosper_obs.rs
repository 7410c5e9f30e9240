//! `prosper-obs`: the checkpoint-tax attribution report.
//!
//! Runs the attributed workloads — one report section each: the micro
//! checkpoint loop eager (`micro`) and in spine mode (`micro_spine`),
//! the whole-process commit (`commit`) and a crash and its recovery
//! replay (`crash_recover`) — verifies the conservation invariant on
//! every ledger, and renders the results as a text HUD, a
//! `prosper-checkpoint-tax/v3` JSON report, and a Chrome-trace
//! interference timeline of the commit run.
//!
//! ```sh
//! cargo run --release -p prosper-bench --bin prosper_obs -- --quick
//! cargo run --release -p prosper-bench --bin prosper_obs -- \
//!     --quick --out tax.json --trace-dir traces/
//! # regression gate against a committed report (deterministic):
//! cargo run --release -p prosper-bench --bin prosper_obs -- \
//!     --quick --diff tax.json
//! ```
//!
//! Exits nonzero on a conservation violation or on any drift against
//! the given previous report.

use std::process::ExitCode;

use prosper_bench::obs::{collect, diff_reports, render_text, timeline_json, TaxReport};

struct Args {
    quick: bool,
    out: Option<String>,
    trace_dir: Option<String>,
    diff: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: None,
        trace_dir: None,
        diff: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a path argument"))
        };
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?),
            "--trace-dir" => args.trace_dir = Some(value("--trace-dir")?),
            "--diff" => args.diff = Some(value("--diff")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let (report, commit_ledger) = collect(args.quick)?;
    print!("{}", render_text(&report));

    if let Some(path) = &args.out {
        let json = serde_json::to_string_pretty(&report).map_err(|e| format!("{e:?}"))?;
        std::fs::write(path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote tax report to {path}");
    }

    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir}: {e}"))?;
        // The commit run's per-thread interference picture, which the
        // HUD aggregates away.
        let path = format!("{dir}/stall_timeline.json");
        std::fs::write(&path, timeline_json(&commit_ledger))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote timeline to {path}");
    }

    if let Some(path) = &args.diff {
        let json =
            std::fs::read_to_string(path).map_err(|e| format!("read diff base {path}: {e}"))?;
        let base: TaxReport =
            serde_json::from_str(&json).map_err(|e| format!("parse diff base {path}: {e:?}"))?;
        let drift = diff_reports(&base, &report);
        if drift.is_empty() {
            println!("no drift against {path}");
        } else {
            for line in &drift {
                println!("DRIFT: {line}");
            }
            return Err(format!("{} drift line(s) against {path}", drift.len()));
        }
    }

    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("prosper-obs: {e}");
            ExitCode::FAILURE
        }
    }
}
