//! Traced-pass instrumentation: host-time spans around the calls the
//! benchmark's wrappers make into each layer, plus readings of the
//! program's own `prosper.ckpt.phase.*` / `prosper.commit.phase.*`
//! telemetry. Spans are kept in memory and written out at the end.
//!
//! Span tree per timed interval (the span ID is the interval index):
//!
//! ```text
//! interval
//! ├── replay                      boundary → first end_interval
//! │   ├── trace.next_event        sampled 1/SAMPLE_EVERY, scaled up
//! │   ├── tracker.on_store        sampled 1/SAMPLE_EVERY, scaled up
//! │   └── persist.record_store    sampled 1/SAMPLE_EVERY, scaled up
//! │                               (each sample less the empty-span cost)
//! └── checkpoint                  first end_interval → boundary
//!     ├── oscomp.end_interval     one per region
//!     └── recovery.commit
//!         ├── recovery.stage      program stopwatch
//!         ├── recovery.seal       program stopwatch
//!         ├── recovery.apply      program stopwatch
//!         └── recovery.merge      program stopwatch (spine only)
//! ```
//!
//! `replay`'s self time (its span minus its children) is the memory
//! simulator: the manager's TLB walk and `Machine` load/store calls.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use prosper_telemetry::{names, Event, EventSink, Histogram, Telemetry};

use crate::harness::SAMPLE_EVERY;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Interval index.
    pub id: u64,
    /// Parent span name (`""` for the root).
    pub parent: &'static str,
    /// Host ns since the recorder started.
    pub start_ns: u64,
    /// Host ns (scaled-up estimate for sampled spans).
    pub dur_ns: u64,
    /// Built from a 1/`SAMPLE_EVERY` sample of the calls.
    pub sampled: bool,
}

/// Adds up the simulated cycles of the program's quiesce spans.
#[derive(Debug)]
struct QuiesceSink {
    open: Option<u64>,
    total: Rc<Cell<u64>>,
}

impl EventSink for QuiesceSink {
    fn record(&mut self, ev: &Event) {
        match ev {
            Event::SpanBegin { name, ts, .. } if name == names::SPAN_CKPT_QUIESCE => {
                self.open = Some(*ts);
            }
            Event::SpanEnd { name, ts, .. } if name == names::SPAN_CKPT_QUIESCE => {
                if let Some(begin) = self.open.take() {
                    self.total.set(self.total.get() + (ts - begin));
                }
            }
            _ => {}
        }
    }
}

/// The checkpoint phases the program times in simulated cycles.
const CKPT_PHASES: [&str; 5] = ["inspect", "clear", "stage", "apply", "merge"];
/// The commit phases the program times in host ns.
const COMMIT_PHASES: [&str; 4] = ["stage", "seal", "apply", "merge"];
const COMMIT_SPANS: [&str; 4] = [
    "recovery.stage",
    "recovery.seal",
    "recovery.apply",
    "recovery.merge",
];

/// Program telemetry readings taken around one commit.
#[derive(Clone, Copy, Debug)]
pub struct CommitProbe {
    phase_ns: [u64; 4],
    merges: u64,
    merged_bytes: u64,
}

/// Host ns an empty timed span reads: the median over many back-to-back
/// clock-read pairs. Sampled spans subtract it before they are scaled up.
fn empty_span_ns() -> u64 {
    let mut v: Vec<u64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Per-pass span recorder; installing it turns the program's
/// telemetry on for this thread until [`Recorder::finish`].
pub struct Recorder {
    origin: Instant,
    /// What timing an empty span costs, subtracted from every sampled
    /// per-call span (see [`Recorder::sampled_ns`]).
    pub span_cost_ns: u64,
    /// Every recorded span, in order.
    pub spans: Vec<Span>,
    /// Open interval: index and start.
    open: Option<(u64, Instant)>,
    replay_end: Option<Instant>,
    trace_ns_at_open: u64,
    tracker_ns: u64,
    record_ns: u64,
    ckpt_cycles: Vec<Histogram>,
    commit_ns: Vec<Histogram>,
    quiesce: Rc<Cell<u64>>,
    /// Checkpoint phase cycles (quiesce first, then [`CKPT_PHASES`])
    /// at the first timed boundary and at the end of the pass.
    pub phase_cycles: [[u64; 6]; 2],
    /// `prosper.commit.workers` after each timed commit.
    pub workers: Vec<i64>,
    /// Spine merges the data plane made in timed commits.
    pub merges: u64,
    /// Bytes those merges wrote.
    pub merged_bytes: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("spans", &self.spans.len())
            .finish()
    }
}

impl Recorder {
    /// Installs the program's telemetry on this thread (before the
    /// pass builds its machine) and starts an empty recorder.
    pub fn install() -> Self {
        let quiesce = Rc::new(Cell::new(0));
        let tel = prosper_telemetry::install(Telemetry::new(Box::new(QuiesceSink {
            open: None,
            total: Rc::clone(&quiesce),
        })));
        let r = tel.registry();
        Self {
            origin: Instant::now(),
            span_cost_ns: empty_span_ns(),
            spans: Vec::new(),
            open: None,
            replay_end: None,
            trace_ns_at_open: 0,
            tracker_ns: 0,
            record_ns: 0,
            ckpt_cycles: CKPT_PHASES
                .iter()
                .map(|p| r.histogram(&format!("prosper.ckpt.phase.{p}_cycles")))
                .collect(),
            commit_ns: COMMIT_PHASES
                .iter()
                .map(|p| r.histogram(&format!("prosper.commit.phase.{p}_ns")))
                .collect(),
            quiesce,
            phase_cycles: [[0; 6]; 2],
            workers: Vec::new(),
            merges: 0,
            merged_bytes: 0,
        }
    }

    /// Turns the program's telemetry off again.
    pub fn finish(&mut self) {
        self.phase_cycles[1] = self.read_phase_cycles();
        prosper_telemetry::uninstall();
    }

    fn read_phase_cycles(&self) -> [u64; 6] {
        let mut out = [0; 6];
        out[0] = self.quiesce.get();
        for (slot, h) in out[1..].iter_mut().zip(&self.ckpt_cycles) {
            *slot = h.snapshot().sum;
        }
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, id: u64, parent: &'static str, start: u64, dur: u64) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: start,
            dur_ns: dur,
            sampled: false,
        });
    }

    /// An interval boundary after `ended` intervals (`ended` ≥ the
    /// warm-up): closes interval `ended - 1` unless this is the first
    /// timed boundary, and opens interval `ended`.
    /// `at` is the boundary and `after` the end of its reference slice.
    pub fn boundary(&mut self, ended: u64, at: Instant, after: Instant, trace_sampled_ns: u64) {
        if let (Some((id, start)), Some(replay_end)) = (self.open, self.replay_end) {
            let s = self.ns(start);
            let r = self.ns(replay_end);
            let e = self.ns(at);
            self.push("interval", id, "", s, e - s);
            self.push("replay", id, "interval", s, r - s);
            for (name, ns) in [
                ("trace.next_event", trace_sampled_ns - self.trace_ns_at_open),
                ("tracker.on_store", self.tracker_ns),
                ("persist.record_store", self.record_ns),
            ] {
                self.spans.push(Span {
                    name,
                    id,
                    parent: "replay",
                    start_ns: s,
                    dur_ns: ns * SAMPLE_EVERY,
                    sampled: true,
                });
            }
            self.push("checkpoint", id, "interval", r, e - r);
        } else {
            self.phase_cycles[0] = self.read_phase_cycles();
        }
        self.open = Some((ended, after));
        self.replay_end = None;
        self.trace_ns_at_open = trace_sampled_ns;
        self.tracker_ns = 0;
        self.record_ns = 0;
    }

    /// The first `end_interval` of the open interval begins.
    pub fn replay_end(&mut self, at: Instant) {
        self.replay_end = Some(at);
    }

    /// A sampled span's ns without the cost of timing it.
    pub fn sampled_ns(&self, ns: u64) -> u64 {
        ns.saturating_sub(self.span_cost_ns)
    }

    /// One sampled store: ns in the mechanism and in the mirror.
    pub fn sampled_store(&mut self, tracker_ns: u64, record_ns: u64) {
        self.tracker_ns += self.sampled_ns(tracker_ns);
        self.record_ns += self.sampled_ns(record_ns);
    }

    /// One region's `end_interval` call.
    pub fn end_interval(&mut self, id: u64, start: Instant, dur_ns: u64) {
        let s = self.ns(start);
        self.push("oscomp.end_interval", id, "checkpoint", s, dur_ns);
    }

    /// Reads the program telemetry a commit is about to move.
    pub fn commit_probe(&self) -> CommitProbe {
        let mut phase_ns = [0; 4];
        for (slot, h) in phase_ns.iter_mut().zip(&self.commit_ns) {
            *slot = h.snapshot().sum;
        }
        let (merges, merged_bytes) = prosper_telemetry::with(|t| {
            let r = t.registry();
            (
                r.counter("prosper.spine.merges").get(),
                r.counter("prosper.spine.merged_bytes").get(),
            )
        })
        .unwrap_or_default();
        CommitProbe {
            phase_ns,
            merges,
            merged_bytes,
        }
    }

    /// One timed commit of interval `id`, with the probe read before it.
    pub fn commit(&mut self, id: u64, start: Instant, dur_ns: u64, before: CommitProbe) {
        let after = self.commit_probe();
        let mut at = self.ns(start);
        self.push("recovery.commit", id, "checkpoint", at, dur_ns);
        for (i, name) in COMMIT_SPANS.iter().enumerate() {
            let d = after.phase_ns[i] - before.phase_ns[i];
            if d > 0 {
                self.push(name, id, "recovery.commit", at, d);
                at += d;
            }
        }
        self.merges += after.merges - before.merges;
        self.merged_bytes += after.merged_bytes - before.merged_bytes;
        let workers =
            prosper_telemetry::with(|t| t.registry().gauge("prosper.commit.workers").get());
        self.workers.extend(workers);
    }

    /// Total ns of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"sampled\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.dur_ns, s.sampled
            );
        }
        out
    }
}
