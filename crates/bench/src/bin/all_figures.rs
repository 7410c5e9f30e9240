//! Runs every table and figure of the evaluation in sequence.
//!
//! Flags (combinable, order-free):
//!
//! * `--json <path>` — write the structured figure results consumed by
//!   EXPERIMENTS.md.
//! * `--trace <path>` — capture one Prosper checkpoint run with
//!   telemetry installed and write a Chrome `trace_event` document
//!   (open in Perfetto or `chrome://tracing`).

#![forbid(unsafe_code)]

use prosper_telemetry as telemetry;
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

#[derive(Default)]
struct Args {
    json: Option<String>,
    trace: Option<String>,
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
            other => panic!("unknown flag {other}"),
        }
    }
    out
}

fn main() {
    let args = parse_args();

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

    prosper_bench::misc::table1().print();
    let (fig1, t) = prosper_bench::fig_motivation::fig1();
    t.print();
    let (_, fig2_beyond_fraction, t) = prosper_bench::fig_motivation::fig2();
    t.print();
    let (fig3, t) = prosper_bench::fig_motivation::fig3();
    t.print();
    let (fig4, t) = prosper_bench::fig_motivation::fig4();
    t.print();
    let (fig8, t) = prosper_bench::fig_performance::fig8();
    t.print();
    let (fig9, t) = prosper_bench::fig_performance::fig9();
    t.print();
    let (fig10, ta, tb) = prosper_bench::fig_micro::fig10();
    ta.print();
    tb.print();
    let (fig11, t) = prosper_bench::fig_micro::fig11();
    t.print();
    let (fig12, t) = prosper_bench::fig_overhead::fig12();
    t.print();
    let (fig13, t) = prosper_bench::fig_overhead::fig13();
    t.print();
    let (ctx_switch, t) = prosper_bench::misc::ctx_switch_overhead();
    t.print();
    prosper_bench::misc::energy_area().print();

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
