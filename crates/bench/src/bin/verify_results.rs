//! Artifact-style results verification.
//!
//! The paper's artifact ships "expected" output files and scripts that
//! compare a fresh run against them. This binary is the equivalent:
//! it loads the JSON produced by `all_figures --json` and checks every
//! headline claim of the evaluation, printing PASS/FAIL per check.
//!
//! ```sh
//! cargo run --release -p prosper-bench --bin all_figures -- --json results.json
//! cargo run --release -p prosper-bench --bin verify_results -- results.json
//! ```

use serde_json::Value;
use std::process::ExitCode;

struct Verifier {
    failures: u32,
    checks: u32,
}

impl Verifier {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks += 1;
        if ok {
            println!("PASS  {name} ({detail})");
        } else {
            self.failures += 1;
            println!("FAIL  {name} ({detail})");
        }
    }
}

fn f(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

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
    let mut v = Verifier {
        failures: 0,
        checks: 0,
    };

    // Figure 1: stack fractions ordered Gapbs > SSSP > Ycsb, Gapbs near 70%.
    let fig1 = data["fig1"].as_array().expect("fig1 present");
    let frac = |name: &str| {
        fig1.iter()
            .find(|r| r["workload"].as_str().unwrap_or("").contains(name))
            .map(|r| f(&r["stack_fraction"]))
            .unwrap_or(f64::NAN)
    };
    v.check(
        "fig1.ordering",
        frac("Gapbs") > frac("G500") && frac("G500") > frac("Ycsb"),
        format!(
            "Gapbs {:.2} > sssp {:.2} > ycsb {:.2}",
            frac("Gapbs"),
            frac("G500"),
            frac("Ycsb")
        ),
    );
    v.check(
        "fig1.gapbs-near-70%",
        (0.55..0.85).contains(&frac("Gapbs")),
        format!("{:.2}", frac("Gapbs")),
    );

    // Figure 2: beyond-final-SP fraction substantial (paper >36%).
    let beyond = f(&data["fig2_beyond_fraction"]);
    v.check(
        "fig2.beyond-final-sp",
        beyond > 0.15,
        format!("{:.0}%", beyond * 100.0),
    );

    // Figure 3: SP awareness always helps; overheads stay > 1x.
    let fig3 = data["fig3"].as_array().expect("fig3 present");
    let aware_helps = fig3
        .iter()
        .all(|r| f(&r["with_awareness"]) <= f(&r["no_awareness"]));
    let always_overhead = fig3.iter().all(|r| f(&r["with_awareness"]) > 1.0);
    v.check(
        "fig3.sp-awareness-helps",
        aware_helps,
        format!("{} rows", fig3.len()),
    );
    v.check(
        "fig3.overhead-remains",
        always_overhead,
        "all rows > 1x".into(),
    );

    // Figure 4: page/byte reduction in the tens for every workload.
    let fig4 = data["fig4"].as_array().expect("fig4 present");
    let min_reduction = fig4
        .iter()
        .map(|r| f(&r["page_bytes"]) / f(&r["byte_bytes"]).max(1.0))
        .fold(f64::INFINITY, f64::min);
    v.check(
        "fig4.reduction",
        min_reduction > 8.0,
        format!("min {min_reduction:.1}x (paper: 33-300x)"),
    );

    // Figure 8: Prosper wins against Romulus and all SSP settings.
    let fig8 = data["fig8"].as_array().expect("fig8 present");
    let mut fig8_ok = true;
    let mut worst = String::new();
    for row in fig8 {
        let get = |name: &str| {
            row["mechanisms"]
                .as_array()
                .unwrap()
                .iter()
                .find(|m| m[0].as_str() == Some(name))
                .map(|m| f(&m[1]))
                .unwrap_or(f64::NAN)
        };
        let prosper = get("Prosper");
        if !(prosper < get("Romulus")
            && prosper < get("SSP-10us")
            && prosper < get("SSP-1ms")
            && get("SSP-10us") >= get("SSP-1ms"))
        {
            fig8_ok = false;
            worst = row["workload"].as_str().unwrap_or("?").to_string();
        }
    }
    v.check(
        "fig8.prosper-wins",
        fig8_ok,
        if fig8_ok {
            "all workloads".into()
        } else {
            format!("violated on {worst}")
        },
    );

    // Figure 9: SSP+Prosper <= SSP everywhere.
    let fig9 = data["fig9"].as_array().expect("fig9 present");
    let fig9_ok = fig9
        .iter()
        .all(|r| f(&r["ssp_prosper"]) <= f(&r["ssp_only"]));
    v.check("fig9.combo-wins", fig9_ok, format!("{} rows", fig9.len()));

    // Figure 9: a longer consolidation interval lowers every column of
    // every workload, from 10 µs to 1 ms.
    let at = |workload: &str, interval: &str| {
        fig9.iter().find(|r| {
            r["workload"].as_str() == Some(workload) && r["ssp_interval"].as_str() == Some(interval)
        })
    };
    let mut longer_ok = !fig9.is_empty();
    let mut longer_detail = Vec::new();
    for row in fig9
        .iter()
        .filter(|r| r["ssp_interval"].as_str() == Some("10us"))
    {
        let workload = row["workload"].as_str().unwrap_or("?");
        let Some(slow) = at(workload, "1ms") else {
            longer_ok = false;
            longer_detail.push(format!("{workload}: no 1ms row"));
            continue;
        };
        for column in ["ssp_only", "ssp_dirtybit", "ssp_prosper"] {
            let falls = f(&slow[column]) < f(&row[column]);
            if !falls {
                longer_ok = false;
                longer_detail.push(format!(
                    "{workload} {column}: {:.2}x -> {:.2}x",
                    f(&row[column]),
                    f(&slow[column])
                ));
            }
        }
    }
    v.check(
        "fig9.longer-interval-helps",
        longer_ok,
        if longer_ok {
            "every column falls from 10us to 1ms".into()
        } else {
            longer_detail.join("; ")
        },
    );

    // Figure 12: tracking overhead below 5%.
    let fig12 = data["fig12"].as_array().expect("fig12 present");
    let min_speedup = fig12
        .iter()
        .flat_map(|r| r["speedups"].as_array().unwrap().iter().map(f))
        .fold(f64::INFINITY, f64::min);
    v.check(
        "fig12.overhead-small",
        min_speedup > 0.95,
        format!("min speedup {min_speedup:.4} (paper: <1% avg overhead)"),
    );

    // Figure 13: SSSP improves with HWM; mcf does not improve as much.
    let fig13 = data["fig13"].as_array().expect("fig13 present");
    let trend = |name: &str| {
        let row = fig13
            .iter()
            .find(|r| r["workload"].as_str().unwrap_or("").contains(name))
            .expect("workload present");
        let sweep = row["hwm_sweep"].as_array().unwrap();
        let ops = |p: &Value| f(&p["loads"]) + f(&p["stores"]);
        ops(sweep.last().unwrap()) / ops(&sweep[0]).max(1.0)
    };
    v.check(
        "fig13.trend-contrast",
        trend("mcf") > trend("sssp"),
        format!("mcf {:.2} vs sssp {:.2}", trend("mcf"), trend("sssp")),
    );

    // Context switch: hundreds of cycles (paper ~870).
    let ctx = f(&data["ctx_switch"]["mean_overhead_cycles"]);
    v.check(
        "ctx-switch.ballpark",
        (300.0..1800.0).contains(&ctx),
        format!("{ctx:.0} cycles (paper ~870)"),
    );

    println!("\n{}/{} checks passed", v.checks - v.failures, v.checks);
    if v.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
