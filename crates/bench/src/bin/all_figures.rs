//! Runs every table and figure of the evaluation in sequence.
//!
//! Flags (combinable, order-free):
//!
//! * `--json <path>` — write the structured figure results consumed by
//!   EXPERIMENTS.md.
//! * `--trace <path>` — capture one Prosper checkpoint run with
//!   telemetry installed and write a Chrome `trace_event` document
//!   (open in Perfetto or `chrome://tracing`).
//! * `--telemetry <path>` — per-figure wall-clock timings and metric
//!   deltas (default `bench_telemetry.json`; `-` disables the file).
//! * `--prometheus` — print the aggregate metrics snapshot in
//!   Prometheus text exposition format after the figures.

#![forbid(unsafe_code)]
// Figure timings measure host wall-clock time by design; exempt from
// the determinism ban (clippy.toml disallowed-methods, PA-DET005).
#![allow(clippy::disallowed_methods)]

use prosper_telemetry as telemetry;
use prosper_telemetry::{MetricsSnapshot, NoopSink, Telemetry};
use serde::Serialize;

#[derive(Serialize)]
struct AllResults {
    fig1: Vec<prosper_bench::fig_motivation::Fig1Row>,
    fig2_beyond_fraction: f64,
    fig3: Vec<prosper_bench::fig_motivation::Fig3Row>,
    fig4: Vec<prosper_bench::fig_motivation::Fig4Row>,
    fig8: Vec<prosper_bench::fig_performance::Fig8Row>,
    fig9: Vec<prosper_bench::fig_performance::Fig9Row>,
    fig10: Vec<prosper_bench::fig_micro::Fig10Row>,
    fig11: Vec<prosper_bench::fig_micro::Fig11Row>,
    fig12: Vec<prosper_bench::fig_overhead::Fig12Row>,
    fig13: Vec<prosper_bench::fig_overhead::Fig13Row>,
    ctx_switch: prosper_bench::misc::CtxSwitchResult,
}

/// One figure's cost: wall time plus the telemetry it reported.
#[derive(Serialize)]
struct FigureTiming {
    name: String,
    wall_ms: f64,
    /// Metric deltas attributable to this figure (absent only when no
    /// telemetry context is installed).
    metrics: Option<MetricsSnapshot>,
}

#[derive(Serialize)]
struct BenchTelemetry {
    figures: Vec<FigureTiming>,
    total_wall_ms: f64,
}

#[derive(Default)]
struct Args {
    json: Option<String>,
    trace: Option<String>,
    telemetry: Option<String>,
    prometheus: bool,
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut path_arg = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a path argument"))
        };
        match flag.as_str() {
            "--json" => out.json = Some(path_arg("--json")),
            "--trace" => out.trace = Some(path_arg("--trace")),
            "--telemetry" => out.telemetry = Some(path_arg("--telemetry")),
            "--prometheus" => out.prometheus = true,
            other => panic!("unknown flag {other}"),
        }
    }
    out
}

/// Runs one figure, recording wall time and the metric deltas it
/// reported into the installed telemetry context.
fn timed<T>(name: &str, rows: &mut Vec<FigureTiming>, f: impl FnOnce() -> T) -> T {
    let before = telemetry::with(|t| t.registry().snapshot());
    let start = std::time::Instant::now();
    let value = f();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let metrics = telemetry::with(|t| t.registry().snapshot())
        .zip(before)
        .map(|(after, before)| after - before);
    rows.push(FigureTiming {
        name: name.to_string(),
        wall_ms,
        metrics,
    });
    value
}

fn main() {
    let args = parse_args();
    let total_start = std::time::Instant::now();

    // A traced Prosper run goes first so its context does not mix
    // with the figure-level metrics context installed below.
    if let Some(path) = &args.trace {
        let cap = prosper_bench::trace_capture::capture_prosper_run(3);
        let doc = telemetry::chrome_trace(&cap.events);
        std::fs::write(path, doc).expect("write trace file");
        eprintln!(
            "wrote {path} ({} events, {} intervals)",
            cap.events.len(),
            cap.result.intervals
        );
    }

    // Metrics-only context for the figures: spans are discarded, metric
    // deltas are attributed per figure by `timed`.
    telemetry::install(Telemetry::new(Box::new(NoopSink)));
    let mut timings = Vec::new();

    prosper_bench::misc::table1().print();
    let (fig1, t) = timed("fig1", &mut timings, prosper_bench::fig_motivation::fig1);
    t.print();
    let (_, fig2_beyond_fraction, t) =
        timed("fig2", &mut timings, prosper_bench::fig_motivation::fig2);
    t.print();
    let (fig3, t) = timed("fig3", &mut timings, prosper_bench::fig_motivation::fig3);
    t.print();
    let (fig4, t) = timed("fig4", &mut timings, prosper_bench::fig_motivation::fig4);
    t.print();
    let (fig8, t) = timed("fig8", &mut timings, prosper_bench::fig_performance::fig8);
    t.print();
    let (fig9, t) = timed("fig9", &mut timings, prosper_bench::fig_performance::fig9);
    t.print();
    let (fig10, ta, tb) = timed("fig10", &mut timings, prosper_bench::fig_micro::fig10);
    ta.print();
    tb.print();
    let (fig11, t) = timed("fig11", &mut timings, prosper_bench::fig_micro::fig11);
    t.print();
    let (fig12, t) = timed("fig12", &mut timings, prosper_bench::fig_overhead::fig12);
    t.print();
    let (fig13, t) = timed("fig13", &mut timings, prosper_bench::fig_overhead::fig13);
    t.print();
    let (ctx_switch, t) = timed(
        "ctx_switch",
        &mut timings,
        prosper_bench::misc::ctx_switch_overhead,
    );
    t.print();
    prosper_bench::misc::energy_area().print();

    let ctx = telemetry::uninstall().expect("figure context was installed");
    if args.prometheus {
        print!(
            "{}",
            prosper_telemetry::prometheus_text(&ctx.registry().snapshot())
        );
    }

    let telemetry_path = args
        .telemetry
        .unwrap_or_else(|| "bench_telemetry.json".to_string());
    if telemetry_path != "-" {
        let doc = BenchTelemetry {
            figures: timings,
            total_wall_ms: total_start.elapsed().as_secs_f64() * 1e3,
        };
        let json = serde_json::to_string_pretty(&doc).expect("timings serialize");
        std::fs::write(&telemetry_path, json).expect("write telemetry file");
        eprintln!("wrote {telemetry_path}");
    }

    if let Some(path) = args.json {
        let all = AllResults {
            fig1,
            fig2_beyond_fraction,
            fig3,
            fig4,
            fig8,
            fig9,
            fig10,
            fig11,
            fig12,
            fig13,
            ctx_switch,
        };
        let json = serde_json::to_string_pretty(&all).expect("results serialize");
        std::fs::write(&path, json).expect("write results file");
        eprintln!("wrote {path}");
    }
}
