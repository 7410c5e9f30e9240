//! End-to-end and per-layer benchmark of the Prosper checkpoint path.
//!
//! ```text
//! prosper-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! prosper-perfbench --selfcheck [--seed <n>]
//! ```
//!
//! A run replays one workload through `CheckpointManager::run` with
//! `ProsperMechanism` (see `harness`), checks the mirrored data plane,
//! and prints, as its last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! `--selfcheck` runs the transparency, repeatability and held-out-seed
//! checks and exits non-zero if any fails.

#![allow(clippy::disallowed_methods)]

mod alloc;
mod check;
mod harness;
mod refsim;
mod spans;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use prosper_trace::source::TraceSource;
use prosper_trace::workloads::Workload;

use harness::{
    run_pass, DataPlane, IntervalTime, Pass, WorkloadSpec, INTERVALS_PER_SECOND, WARMUP, WORKLOADS,
};
use spans::Recorder;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Where traced runs write their spans, relative to the checkout root.
const SPANS_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=600).contains(&args.seconds) {
        return Err(format!("--seconds {} out of 1..=600", args.seconds));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The final result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite JSON number (non-finite values, which only a broken run
/// can produce, become 0 and the run is marked incorrect elsewhere).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn per(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Intervals per reference block: each timed interval's host time is
/// scaled by the median reference slice of its block.
const BLOCK: usize = 25;

/// Host-speed normalisation of one pass's timed window: per interval,
/// the speed factor of the median reference slice of its block.
struct HostScale {
    intervals: Vec<IntervalTime>,
    scale: Vec<f64>,
}

impl HostScale {
    fn of(pass: &harness::PassOut) -> Self {
        let intervals = pass.intervals();
        let scale = intervals
            .chunks(BLOCK)
            .flat_map(|block| {
                let refs: Vec<u64> = block.iter().map(|i| i.ref_ns).collect();
                std::iter::repeat_n(refsim::speed_factor(refsim::median(&refs)), block.len())
            })
            .collect();
        Self { intervals, scale }
    }

    /// Median over blocks of accesses per normalised host second, in M/s.
    fn rate(&self) -> f64 {
        let mut blocks: Vec<f64> = self
            .intervals
            .chunks(BLOCK)
            .zip(self.scale.chunks(BLOCK))
            .map(|(iv, sc)| {
                let ns: f64 = iv.iter().zip(sc).map(|(i, f)| i.ns as f64 * f).sum();
                iv.iter().map(|i| i.accesses).sum::<u64>() as f64 / ns * 1e3
            })
            .collect();
        median(&mut blocks)
    }

    /// Raw accesses per host second over the window, in M/s.
    fn raw_rate(&self) -> f64 {
        let ns: u64 = self.intervals.iter().map(|i| i.ns).sum();
        self.intervals.iter().map(|i| i.accesses).sum::<u64>() as f64 / ns as f64 * 1e3
    }

    /// Median reference slice over the window.
    fn ref_ns(&self) -> f64 {
        let refs: Vec<u64> = self.intervals.iter().map(|i| i.ref_ns).collect();
        refsim::median(&refs)
    }
}

/// The timed commits' host ns, each scaled by the copy reference of
/// its block (the median over `BLOCK` commits of measured ÷ nominal
/// reference time), and the median of that ratio over the window.
fn commit_scaled(plane: &DataPlane) -> (Vec<u64>, f64) {
    let mut slow: Vec<f64> = plane
        .ref_ns
        .iter()
        .zip(&plane.ref_nominal_ns)
        .map(|(&r, &n)| r as f64 / n)
        .collect();
    let scaled = plane
        .commit_ns
        .chunks(BLOCK)
        .zip(slow.chunks(BLOCK))
        .flat_map(|(c, s)| {
            let f = median(&mut s.to_vec());
            c.iter().map(move |&c| (c as f64 / f) as u64)
        })
        .collect();
    (scaled, median(&mut slow))
}

/// The untraced run: `SETUP_REPS` complete set-ups (construction and
/// warm-up), the last continuing into the timed window; the output
/// check; then the no-persistence pass of the same trace that
/// normalises `exec_overhead_ppm`.
fn untraced(spec: &WorkloadSpec, seed: u64, seconds: u64) -> Report {
    let timed = INTERVALS_PER_SECOND * seconds;
    let total = WARMUP + timed;
    let mut setup = Vec::new();
    let mut raw_setup = Vec::new();
    let mut run = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let intervals = if last { total } else { WARMUP };
        let t0 = Instant::now();
        let p = run_pass(spec, seed, WARMUP, intervals, Pass::Prosper, None);
        let (ns, ref_ns) = p.setup(t0);
        raw_setup.push(ns as f64 / 1e9);
        setup.push(ns as f64 / 1e9 * refsim::speed_factor(ref_ns));
        if last {
            run = Some(p);
        }
    }
    let mut p = run.expect("the last set-up continues into the timed window");
    let check = p.check();
    let plane = p.plane.take().expect("a Prosper pass has a data plane");
    let norm = run_pass(spec, seed, WARMUP, total, Pass::Normaliser, None);
    let same_trace = p.accesses() == norm.accesses();
    for problem in &check.problems {
        println!("check: {problem}");
    }
    if !same_trace {
        println!("check: the two passes replayed different traces");
    }
    let host = HostScale::of(&p);
    let (mut commit_ns, copy_speed) = commit_scaled(&plane);
    commit_ns.sort_unstable();
    let mut raw_commit = plane.commit_ns.clone();
    raw_commit.sort_unstable();
    println!(
        "samples: {timed} timed intervals, {} commits timed, {} accesses",
        commit_ns.len(),
        p.accesses(),
    );
    println!(
        "raw host time: {:.4} M/s, commit p50 {:.3} us p99 {:.3} us, setup {:.4} s; \
         median reference slice {:.0} ns (nominal {:.0}), median copy reference {:.3}x nominal",
        host.raw_rate(),
        percentile(&raw_commit, 50.0) / 1e3,
        percentile(&raw_commit, 99.0) / 1e3,
        median(&mut raw_setup),
        host.ref_ns(),
        refsim::NOMINAL_NS,
        copy_speed,
    );
    let correct = check.failed == 0
        && check.problems.is_empty()
        && p.accounting_ok
        && norm.accounting_ok
        && same_trace
        && commit_ns.len() as u64 == timed;
    let nvm = p.end.nvm.total() - p.start.nvm.total();
    Report {
        correct,
        attempted: check.attempted,
        failed: check.failed,
        metrics: vec![
            Metric {
                name: "sim_maccess_per_s",
                value: host.rate(),
                unit: "M/s",
            },
            Metric {
                name: "commit_us_p50",
                value: percentile(&commit_ns, 50.0) / 1e3,
                unit: "us",
            },
            Metric {
                name: "commit_us_p99",
                value: percentile(&commit_ns, 99.0) / 1e3,
                unit: "us",
            },
            Metric {
                name: "setup_s",
                value: median(&mut setup),
                unit: "s",
            },
            Metric {
                name: "peak_heap_mib",
                value: p.peak_live_mib(),
                unit: "MiB",
            },
            Metric {
                name: "exec_overhead_ppm",
                value: (p.cycles() as f64 / norm.cycles() as f64 - 1.0) * 1e6,
                unit: "ppm",
            },
            Metric {
                name: "ckpt_bytes_per_interval",
                value: per(p.ckpt_bytes, timed),
                unit: "B",
            },
            Metric {
                name: "ckpt_cycles_per_interval",
                value: per(p.ckpt_cycles, timed),
                unit: "cycles",
            },
            Metric {
                name: "nvm_bytes_per_interval",
                value: per(nvm, timed),
                unit: "B",
            },
        ],
    }
}

/// Host ns per event of a generation-only pass over `events` events of
/// the workload's trace at `seed`, scaled by reference slices run just
/// before it.
fn generation_ns_per_event(spec: &WorkloadSpec, seed: u64, events: u64) -> f64 {
    let refs: Vec<u64> = (0..9).map(|_| refsim::slice()).collect();
    let mut w = Workload::new((spec.profile)(), seed);
    let t = Instant::now();
    for _ in 0..events {
        std::hint::black_box(w.next_event());
    }
    let ns = t.elapsed().as_nanos() as f64 / events.max(1) as f64;
    ns * refsim::speed_factor(refsim::median(&refs))
}

/// The traced run: an untraced pass as the overhead reference, the
/// traced pass, and a generation-only pass of the same seed.
fn traced(spec: &WorkloadSpec, seed: u64, seconds: u64) -> Report {
    let timed = INTERVALS_PER_SECOND * seconds;
    let total = WARMUP + timed;
    let plain = run_pass(spec, seed, WARMUP, total, Pass::Prosper, None);
    let plain_rate = HostScale::of(&plain).rate();
    let plain_fp = plain.cycle_fingerprint();
    drop(plain);

    let mut t = run_pass(
        spec,
        seed,
        WARMUP,
        total,
        Pass::Prosper,
        Some(Recorder::install()),
    );
    let mut rec = t
        .recorder
        .take()
        .expect("a traced pass returns its recorder");
    rec.finish();
    let host = HostScale::of(&t);
    let rate = host.rate();
    // Per-layer host times are scaled to nominal host speed by the
    // pass's median reference slice.
    let f = refsim::speed_factor(host.ref_ns());
    let check = t.check();
    for problem in &check.problems {
        println!("check: {problem}");
    }
    let same_cycles = plain_fp == t.cycle_fingerprint();
    if !same_cycles {
        println!("check: tracing moved the cycle domain");
    }
    let events = t.end.events - t.start.events;
    let trace_ns = generation_ns_per_event(spec, seed, events);

    let _ = std::fs::create_dir_all(SPANS_DIR);
    let path =
        std::path::Path::new(SPANS_DIR).join(format!("{}-seed{seed}.spans.jsonl", spec.name));
    match std::fs::write(&path, rec.to_jsonl()) {
        Ok(()) => println!(
            "spans: {} written to {} (per-store and generator spans sampled 1/{})",
            rec.spans.len(),
            path.display(),
            harness::SAMPLE_EVERY
        ),
        Err(e) => println!("spans: not written to {}: {e}", path.display()),
    }

    let accesses = t.accesses();
    let stores = t.end.stores - t.start.stores;
    let commits = t.plane.as_ref().map_or(0, |p| p.commit_ns.len() as u64);
    let replay = rec.total_ns("replay");
    let children = rec.total_ns("trace.next_event")
        + rec.total_ns("tracker.on_store")
        + rec.total_ns("persist.record_store");
    let d = |f: fn(&harness::MechCounters) -> u64| -> u64 {
        t.mech.iter().map(|(a, b)| f(b) - f(a)).sum()
    };
    let mem = |f: fn(&prosper_memsim::stats::MemStats) -> u64| f(&t.end.mem) - f(&t.start.mem);
    let phase = |i: usize| per(rec.phase_cycles[1][i] - rec.phase_cycles[0][i], timed);
    let workers = rec.workers.iter().sum::<i64>() as f64 / rec.workers.len().max(1) as f64;

    let mut metrics = vec![
        Metric {
            name: "trace.ns_per_event",
            value: trace_ns,
            unit: "ns",
        },
        Metric {
            name: "memsim.self_ns_per_access",
            value: f * per(replay.saturating_sub(children), accesses),
            unit: "ns",
        },
        Metric {
            name: "memsim.l1d_miss_ratio",
            value: per(mem(|m| m.l1d.misses), mem(|m| m.l1d.accesses())),
            unit: "ratio",
        },
        Metric {
            name: "memsim.l3_miss_ratio",
            value: per(mem(|m| m.l3.misses), mem(|m| m.l3.accesses())),
            unit: "ratio",
        },
        Metric {
            name: "memsim.injected_ops_per_interval",
            value: per(mem(|m| m.injected_loads + m.injected_stores), timed),
            unit: "count",
        },
        Metric {
            name: "memsim.nvm_stall_cycles_per_interval",
            value: per(mem(|m| m.nvm_write_stall_cycles), timed),
            unit: "cycles",
        },
        Metric {
            name: "tracker.ns_per_store",
            value: f * per(rec.total_ns("tracker.on_store"), stores),
            unit: "ns",
        },
        Metric {
            name: "tracker.table_hit_ratio",
            value: per(d(|m| m.lookup.hits), d(|m| m.lookup.searches)),
            unit: "ratio",
        },
        Metric {
            name: "tracker.flush_hwm",
            value: per(d(|m| m.lookup.hwm_flushes), timed),
            unit: "1/interval",
        },
        Metric {
            name: "tracker.evict_lwm",
            value: per(d(|m| m.lookup.lwm_evictions), timed),
            unit: "1/interval",
        },
        Metric {
            name: "tracker.evict_random",
            value: per(d(|m| m.lookup.random_evictions), timed),
            unit: "1/interval",
        },
        Metric {
            name: "tracker.bitmap_ops_per_store",
            value: per(
                d(|m| m.lookup.bitmap_loads + m.lookup.bitmap_stores),
                stores,
            ),
            unit: "count",
        },
        Metric {
            name: "oscomp.end_interval_us",
            value: f * per(rec.total_ns("oscomp.end_interval"), timed) / 1e3,
            unit: "us",
        },
        Metric {
            name: "bitmap.words_read_per_interval",
            value: per(d(|m| m.totals.words_read), timed),
            unit: "count",
        },
        Metric {
            name: "bitmap.pages_probed_per_interval",
            value: per(d(|m| m.totals.pages_probed), timed),
            unit: "count",
        },
        Metric {
            name: "bitmap.runs_per_interval",
            value: per(d(|m| m.totals.runs), timed),
            unit: "count",
        },
    ];
    for (i, name) in [
        "oscomp.quiesce_cycles",
        "oscomp.inspect_cycles",
        "oscomp.clear_cycles",
        "oscomp.stage_cycles",
        "oscomp.apply_cycles",
        "oscomp.merge_cycles",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.push(Metric {
            name,
            value: phase(i),
            unit: "cycles",
        });
    }
    metrics.extend([
        Metric {
            name: "persist.record_store_ns",
            value: f * per(rec.total_ns("persist.record_store"), stores),
            unit: "ns",
        },
        Metric {
            name: "recovery.stage_ns",
            value: f * per(rec.total_ns("recovery.stage"), commits),
            unit: "ns",
        },
        Metric {
            name: "recovery.seal_ns",
            value: f * per(rec.total_ns("recovery.seal"), commits),
            unit: "ns",
        },
        Metric {
            name: "recovery.apply_ns",
            value: f * per(rec.total_ns("recovery.apply"), commits),
            unit: "ns",
        },
        Metric {
            name: "recovery.workers_per_commit",
            value: workers,
            unit: "count",
        },
        Metric {
            name: "persist.merges_per_interval",
            value: per(rec.merges, timed),
            unit: "count",
        },
        Metric {
            name: "persist.merged_bytes_per_interval",
            value: per(rec.merged_bytes, timed),
            unit: "B",
        },
        Metric {
            name: "recovery.recover_ms",
            value: f * check.recover_ms,
            unit: "ms",
        },
        Metric {
            name: "tracing.overhead_pct",
            value: (plain_rate / rate - 1.0) * 100.0,
            unit: "%",
        },
    ]);
    Report {
        correct: check.failed == 0 && check.problems.is_empty() && t.accounting_ok && same_cycles,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
    }
}

/// Transparency, repeatability and held-out-seed checks.
fn selfcheck(seed: u64) -> bool {
    use prosper_bench::fig_performance::{fig8, prosper_everywhere};
    use prosper_bench::scale::{DEFAULT_INTERVALS, SEED};

    let mut ok = true;
    let mut report = |name: &str, pass: bool, detail: String| {
        println!("{} {name}: {detail}", if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    };
    let ratio = |spec: &WorkloadSpec| {
        let p = run_pass(spec, SEED, 0, DEFAULT_INTERVALS, Pass::Prosper, None);
        let n = run_pass(spec, SEED, 0, DEFAULT_INTERVALS, Pass::Normaliser, None);
        p.end.cycles as f64 / n.end.cycles as f64
    };
    let spec = |name: &str| harness::workload(name).expect("a listed workload");

    let (rows, _) = fig8();
    let fig = rows
        .iter()
        .find(|r| r.workload == "Gapbs_pr")
        .map(|r| r.of("Prosper"));
    let ours = ratio(spec("gapbs_stack"));
    report(
        "transparency fig8 Gapbs_pr Prosper",
        fig == Some(ours),
        format!("fig8 {fig:?}, wrapped {ours}"),
    );
    let (rows, _) = prosper_everywhere();
    let fig = rows
        .iter()
        .find(|r| r.workload == "Ycsb_mem")
        .map(|r| r.prosper_heap);
    let ours = ratio(spec("ycsb_everywhere"));
    report(
        "transparency prosper_everywhere Ycsb_mem Prosper-heap",
        fig == Some(ours),
        format!("figure {fig:?}, wrapped {ours}"),
    );

    for w in &WORKLOADS {
        let short = |s: u64, rec: Option<Recorder>| run_pass(w, s, 20, 320, Pass::Prosper, rec);
        let mut a = short(seed, None);
        let b = short(seed, None);
        let mut c = short(seed, Some(Recorder::install()));
        if let Some(mut r) = c.recorder.take() {
            r.finish();
        }
        report(
            &format!("{} cycle domain repeats bit for bit", w.name),
            a.cycle_fingerprint() == b.cycle_fingerprint()
                && a.cycle_fingerprint() == c.cycle_fingerprint(),
            format!("{:?}", a.cycle_fingerprint()),
        );
        let held_out = seed.wrapping_add(1_000_003);
        for (s, p) in [(seed, &mut a), (held_out, &mut short(held_out, None))] {
            let out = p.check();
            report(
                &format!("{} output check, seed {s}", w.name),
                out.failed == 0 && out.problems.is_empty() && p.accounting_ok,
                format!(
                    "{} attempted, {} failed {:?}",
                    out.attempted, out.failed, out.problems
                ),
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: prosper-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       prosper-perfbench --selfcheck [--seed <n>]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return if selfcheck(args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(spec) = harness::workload(&args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // Warm the host-speed reference and count what the benchmark
    // itself holds as its own footprint.
    refsim::slice();
    alloc::set_baseline();
    println!(
        "host: available_parallelism={}",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let report = if args.trace {
        traced(spec, args.seed, args.seconds)
    } else {
        untraced(spec, args.seed, args.seconds)
    };
    println!("{}", report.json());
    ExitCode::SUCCESS
}
