//! The paper-claim checks behind the `verify_results` binary.
//!
//! The paper's artifact ships "expected" output files and scripts that
//! compare a fresh run against them. [`check_results`] is this
//! repository's copy of that comparison: it reads the JSON that
//! `all_figures --json` writes and judges every headline claim of the
//! evaluation. A figure missing from the JSON fails the checks that
//! read it instead of aborting the rest.

use serde_json::Value;

/// One paper-claim check's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Check name, e.g. `fig8.prosper-wins`.
    pub name: &'static str,
    /// Whether the claim holds.
    pub ok: bool,
    /// The measured values behind the verdict, or what was missing.
    pub detail: String,
}

/// A check's verdict and detail, or why it could not be judged.
type Outcome = Result<(bool, String), String>;

/// One check: judges the results JSON.
type Judge = fn(&Value) -> Outcome;

fn f(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// The rows of figure `key`.
fn rows<'a>(data: &'a Value, key: &str) -> Result<&'a [Value], String> {
    data[key]
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("{key} missing"))
}

/// The number at `key` of `data`.
fn number(data: &Value, key: &str) -> Result<f64, String> {
    data[key].as_f64().ok_or_else(|| format!("{key} missing"))
}

/// Figure 1: the stack fraction of the first workload whose name
/// contains `name`.
fn stack_fraction(fig1: &[Value], name: &str) -> f64 {
    fig1.iter()
        .find(|r| r["workload"].as_str().unwrap_or("").contains(name))
        .map_or(f64::NAN, |r| f(&r["stack_fraction"]))
}

fn fig1_ordering(data: &Value) -> Outcome {
    let fig1 = rows(data, "fig1")?;
    let (gapbs, sssp, ycsb) = (
        stack_fraction(fig1, "Gapbs"),
        stack_fraction(fig1, "G500"),
        stack_fraction(fig1, "Ycsb"),
    );
    Ok((
        gapbs > sssp && sssp > ycsb,
        format!("Gapbs {gapbs:.2} > sssp {sssp:.2} > ycsb {ycsb:.2}"),
    ))
}

fn fig1_gapbs_near_70(data: &Value) -> Outcome {
    let gapbs = stack_fraction(rows(data, "fig1")?, "Gapbs");
    Ok(((0.55..0.85).contains(&gapbs), format!("{gapbs:.2}")))
}

fn fig2_beyond_final_sp(data: &Value) -> Outcome {
    let beyond = number(data, "fig2_beyond_fraction")?;
    Ok((beyond > 0.15, format!("{:.0}%", beyond * 100.0)))
}

fn fig3_awareness_helps(data: &Value) -> Outcome {
    let fig3 = rows(data, "fig3")?;
    let helps = fig3
        .iter()
        .all(|r| f(&r["with_awareness"]) <= f(&r["no_awareness"]));
    Ok((helps, format!("{} rows", fig3.len())))
}

fn fig3_overhead_remains(data: &Value) -> Outcome {
    let fig3 = rows(data, "fig3")?;
    let remains = fig3.iter().all(|r| f(&r["with_awareness"]) > 1.0);
    Ok((remains, "all rows > 1x".into()))
}

fn fig4_reduction(data: &Value) -> Outcome {
    let min_reduction = rows(data, "fig4")?
        .iter()
        .map(|r| f(&r["page_bytes"]) / f(&r["byte_bytes"]).max(1.0))
        .fold(f64::INFINITY, f64::min);
    Ok((
        min_reduction > 8.0,
        format!("min {min_reduction:.1}x (paper: 33-300x)"),
    ))
}

/// Figure 8: Prosper beats Romulus and both SSP settings, and the
/// shorter SSP interval costs no less than the longer one.
fn fig8_prosper_wins(data: &Value) -> Outcome {
    let mut worst = None;
    for row in rows(data, "fig8")? {
        let get = |name: &str| {
            row["mechanisms"]
                .as_array()
                .and_then(|ms| ms.iter().find(|m| m[0].as_str() == Some(name)))
                .map_or(f64::NAN, |m| f(&m[1]))
        };
        let prosper = get("Prosper");
        if !(prosper < get("Romulus")
            && prosper < get("SSP-10us")
            && prosper < get("SSP-1ms")
            && get("SSP-10us") >= get("SSP-1ms"))
        {
            worst = Some(row["workload"].as_str().unwrap_or("?").to_string());
        }
    }
    Ok(match worst {
        None => (true, "all workloads".into()),
        Some(workload) => (false, format!("violated on {workload}")),
    })
}

fn fig9_combo_wins(data: &Value) -> Outcome {
    let fig9 = rows(data, "fig9")?;
    let wins = fig9
        .iter()
        .all(|r| f(&r["ssp_prosper"]) <= f(&r["ssp_only"]));
    Ok((wins, format!("{} rows", fig9.len())))
}

/// Figure 9: a longer consolidation interval lowers every column of
/// every workload, from 10 µs to 1 ms.
fn fig9_longer_interval_helps(data: &Value) -> Outcome {
    let fig9 = rows(data, "fig9")?;
    let at = |workload: &str, interval: &str| {
        fig9.iter().find(|r| {
            r["workload"].as_str() == Some(workload) && r["ssp_interval"].as_str() == Some(interval)
        })
    };
    let mut ok = !fig9.is_empty();
    let mut detail = Vec::new();
    for row in fig9
        .iter()
        .filter(|r| r["ssp_interval"].as_str() == Some("10us"))
    {
        let workload = row["workload"].as_str().unwrap_or("?");
        let Some(slow) = at(workload, "1ms") else {
            ok = false;
            detail.push(format!("{workload}: no 1ms row"));
            continue;
        };
        for column in ["ssp_only", "ssp_dirtybit", "ssp_prosper"] {
            let falls = f(&slow[column]) < f(&row[column]);
            if !falls {
                ok = false;
                detail.push(format!(
                    "{workload} {column}: {:.2}x -> {:.2}x",
                    f(&row[column]),
                    f(&slow[column])
                ));
            }
        }
    }
    Ok(if ok {
        (true, "every column falls from 10us to 1ms".into())
    } else {
        (false, detail.join("; "))
    })
}

fn fig12_overhead_small(data: &Value) -> Outcome {
    let mut min_speedup = f64::INFINITY;
    for row in rows(data, "fig12")? {
        let speedups = row["speedups"]
            .as_array()
            .ok_or("fig12 row without speedups")?;
        min_speedup = speedups.iter().map(f).fold(min_speedup, f64::min);
    }
    Ok((
        min_speedup > 0.95,
        format!("min speedup {min_speedup:.4} (paper: <1% avg overhead)"),
    ))
}

/// Figure 13: the bitmap-traffic ratio between the last and the first
/// HWM setting of the first workload whose name contains `name`.
fn hwm_trend(fig13: &[Value], name: &str) -> Result<f64, String> {
    let row = fig13
        .iter()
        .find(|r| r["workload"].as_str().unwrap_or("").contains(name))
        .ok_or_else(|| format!("fig13 has no {name} row"))?;
    let sweep = row["hwm_sweep"].as_array().map_or(&[][..], Vec::as_slice);
    let (Some(first), Some(last)) = (sweep.first(), sweep.last()) else {
        return Err(format!("fig13 {name} has no HWM sweep"));
    };
    let ops = |p: &Value| f(&p["loads"]) + f(&p["stores"]);
    Ok(ops(last) / ops(first).max(1.0))
}

fn fig13_trend_contrast(data: &Value) -> Outcome {
    let fig13 = rows(data, "fig13")?;
    let (mcf, sssp) = (hwm_trend(fig13, "mcf")?, hwm_trend(fig13, "sssp")?);
    Ok((mcf > sssp, format!("mcf {mcf:.2} vs sssp {sssp:.2}")))
}

fn ctx_switch_ballpark(data: &Value) -> Outcome {
    let ctx = number(&data["ctx_switch"], "mean_overhead_cycles")?;
    Ok((
        (300.0..1800.0).contains(&ctx),
        format!("{ctx:.0} cycles (paper ~870)"),
    ))
}

/// Judges every headline claim of the evaluation on `data`, the JSON
/// that `all_figures --json` writes: 12 checks, always in this order,
/// each failed (not skipped) when a figure it reads is missing.
#[must_use]
pub fn check_results(data: &Value) -> Vec<Check> {
    let checks: [(&'static str, Judge); 12] = [
        ("fig1.ordering", fig1_ordering),
        ("fig1.gapbs-near-70%", fig1_gapbs_near_70),
        ("fig2.beyond-final-sp", fig2_beyond_final_sp),
        ("fig3.sp-awareness-helps", fig3_awareness_helps),
        ("fig3.overhead-remains", fig3_overhead_remains),
        ("fig4.reduction", fig4_reduction),
        ("fig8.prosper-wins", fig8_prosper_wins),
        ("fig9.combo-wins", fig9_combo_wins),
        ("fig9.longer-interval-helps", fig9_longer_interval_helps),
        ("fig12.overhead-small", fig12_overhead_small),
        ("fig13.trend-contrast", fig13_trend_contrast),
        ("ctx-switch.ballpark", ctx_switch_ballpark),
    ];
    checks
        .into_iter()
        .map(|(name, judge)| match judge(data) {
            Ok((ok, detail)) => Check { name, ok, detail },
            Err(detail) => Check {
                name,
                ok: false,
                detail,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `results.json` at the workspace root.
    fn committed() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results.json");
        let json = std::fs::read_to_string(path).expect("committed results.json is readable");
        serde_json::from_str(&json).expect("committed results.json parses")
    }

    #[test]
    fn committed_results_pass_every_paper_claim() {
        let checks = check_results(&committed());
        assert_eq!(checks.len(), 12);
        let failed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
        assert!(failed.is_empty(), "paper claims fail: {failed:?}");
    }

    #[test]
    fn missing_figures_fail_their_checks_without_a_panic() {
        let checks = check_results(&serde_json::from_str("{}").unwrap());
        assert_eq!(checks.len(), 12);
        for c in &checks {
            assert!(!c.ok, "{} passed on an empty results file", c.name);
        }
        let fig13 = checks
            .iter()
            .find(|c| c.name == "fig13.trend-contrast")
            .unwrap();
        assert_eq!(fig13.detail, "fig13 missing");
    }
}
