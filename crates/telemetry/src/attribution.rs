//! Causal stall attribution: who paid for every nanosecond of
//! foreground delay, and why.
//!
//! The per-phase histograms from the metrics registry say *how long*
//! checkpointing took; they never say *which thread* was stalled, by
//! *which phase*, in *which commit sequence*. This module closes that
//! gap with an explicit ledger:
//!
//! * a [`StallSegment`] is one cause-tagged interval of delay charged
//!   to one thread (`tid`, [`StallCause`], commit `sequence`,
//!   `[start_ns, end_ns)`);
//! * a [`StallWindow`] is one independently-measured interval in which
//!   a thread was *known to be stalled*, with no cause attached;
//! * the [`StallAccountant`] collects both from instrumented probe
//!   sites and freezes them into an [`AttributionSnapshot`].
//!
//! The load-bearing invariant is **conservation**, checked by
//! [`AttributionSnapshot::verify_conservation`]: for every thread, the
//! cause-tagged segments must *exactly tile* the measured windows —
//! same total, no gaps, no overlaps, nothing outside a window. Because
//! every probe site records the window and its segments from the same
//! clock readings, the phase boundaries telescope and the check is
//! exact, not approximate: an uninstrumented phase inside a stall
//! window shows up as a gap and fails the check, so the tax report is
//! provably complete rather than vibes.
//!
//! # One virtual clock
//!
//! The accountant owns a single monotone time axis: a deterministic
//! counter advanced only by [`StallAccountant::advance`]. Simulator
//! probe sites advance it by simulated-cycle deltas (1 cycle = 1
//! virtual ns); the parallel commit path advances it from a
//! deterministic cost model computed on the coordinator, so timelines
//! are byte-reproducible and still sensitive to worker count. Host
//! time is measured elsewhere, through [`crate::Stopwatch`].
//!
//! Like the rest of the crate, the accountant must never take the
//! simulation down: lock poisoning degrades to dropped records, never
//! a panic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::metrics::Histogram;

/// Why a thread was stalled. The taxonomy mirrors the checkpoint-tax
/// split reported by `prosper-obs`: everything that is not one of
/// these causes is, by definition, useful foreground work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StallCause {
    /// Dirty-metadata inspection (bitmap scan + clear).
    Inspect,
    /// Staging dirty data into the redo log.
    Stage,
    /// The serial seal point: the single durable commit-record write.
    Seal,
    /// Applying staged runs to the persistent image.
    Apply,
    /// Tracker quiescence handshake (MSR write + flush + poll).
    Quiesce,
    /// Deferred spine-merge compaction: folding delta batches into
    /// the persistent image, off the commit critical path.
    Merge,
    /// Redo replay after a crash.
    Recovery,
}

impl StallCause {
    /// Every cause, in tax-report column order.
    pub const ALL: [StallCause; 7] = [
        StallCause::Inspect,
        StallCause::Stage,
        StallCause::Seal,
        StallCause::Apply,
        StallCause::Quiesce,
        StallCause::Merge,
        StallCause::Recovery,
    ];

    /// Stable lowercase label (`"stage"`, `"quiesce"`, ...).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StallCause::Inspect => "inspect",
            StallCause::Stage => "stage",
            StallCause::Seal => "seal",
            StallCause::Apply => "apply",
            StallCause::Quiesce => "quiesce",
            StallCause::Merge => "merge",
            StallCause::Recovery => "recovery",
        }
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One cause-tagged interval of delay charged to one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSegment {
    pub tid: u32,
    pub cause: StallCause,
    /// Commit sequence the stall belongs to; 0 when the stall is not
    /// tied to a commit (quiescence on a context switch, recovery of
    /// an unsealed image).
    pub sequence: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl StallSegment {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One independently-measured interval in which a thread was stalled,
/// with no cause attached. Windows are the "total" side of the
/// conservation ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallWindow {
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl StallWindow {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Ledger {
    segments: Vec<StallSegment>,
    windows: Vec<StallWindow>,
}

/// Collects stall segments and windows from probe sites. `Sync` by
/// design: one accountant is shared, behind an `Arc`, by the tracker's
/// quiescence probe, the commit engine and recovery.
#[derive(Debug)]
pub struct StallAccountant {
    virtual_ns: AtomicU64,
    ledger: Mutex<Ledger>,
}

impl StallAccountant {
    /// Deterministic accountant: time advances only via
    /// [`StallAccountant::advance`].
    #[must_use]
    pub fn new_virtual() -> Self {
        StallAccountant {
            virtual_ns: AtomicU64::new(0),
            ledger: Mutex::new(Ledger::default()),
        }
    }

    /// Current position on the accountant's time axis.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.virtual_ns.load(Ordering::Relaxed)
    }

    /// Advances the clock by `ns`. Probe sites in simulator code call
    /// this with simulated-cycle deltas; the commit engine and
    /// recovery call it with modelled costs.
    pub fn advance(&self, ns: u64) {
        self.virtual_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one cause-tagged segment. Inverted intervals are
    /// clamped to zero length rather than rejected — telemetry never
    /// panics the caller.
    pub fn record_segment(
        &self,
        tid: u32,
        cause: StallCause,
        sequence: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let end_ns = end_ns.max(start_ns);
        if let Ok(mut ledger) = self.ledger.lock() {
            ledger.segments.push(StallSegment {
                tid,
                cause,
                sequence,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records one measured stall window.
    pub fn record_window(&self, tid: u32, start_ns: u64, end_ns: u64) {
        let end_ns = end_ns.max(start_ns);
        if let Ok(mut ledger) = self.ledger.lock() {
            ledger.windows.push(StallWindow {
                tid,
                start_ns,
                end_ns,
            });
        }
    }

    /// Freezes the ledger. Segments and windows are sorted by
    /// `(tid, start, end)` so equal histories snapshot identically
    /// regardless of probe arrival order.
    #[must_use]
    pub fn snapshot(&self) -> AttributionSnapshot {
        let (mut segments, mut windows) = match self.ledger.lock() {
            Ok(ledger) => (ledger.segments.clone(), ledger.windows.clone()),
            Err(_) => (Vec::new(), Vec::new()),
        };
        segments.sort_by_key(|s| (s.tid, s.start_ns, s.end_ns, s.cause));
        windows.sort_by_key(|w| (w.tid, w.start_ns, w.end_ns));
        AttributionSnapshot { segments, windows }
    }
}

/// Frozen attribution ledger; serializable for archiving alongside a
/// metrics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributionSnapshot {
    pub segments: Vec<StallSegment>,
    pub windows: Vec<StallWindow>,
}

/// Conservation violation: the cause-tagged segments of one thread do
/// not exactly tile its measured windows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConservationError {
    pub tid: u32,
    /// Total measured window ns for the thread.
    pub window_ns: u64,
    /// Total attributed segment ns for the thread.
    pub attributed_ns: u64,
    pub detail: String,
}

impl std::fmt::Display for ConservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conservation violated for tid {}: attributed {} ns vs measured {} ns ({})",
            self.tid, self.attributed_ns, self.window_ns, self.detail
        )
    }
}

impl std::error::Error for ConservationError {}

/// Per-thread totals derived from a snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadStallTotals {
    /// Total attributed ns per cause label (tax-report columns).
    pub by_cause: BTreeMap<String, u64>,
    /// Total attributed ns (sum of `by_cause`).
    pub attributed_ns: u64,
    /// Total measured stall ns (sum of window durations).
    pub window_ns: u64,
    pub segments: u64,
    pub windows: u64,
}

impl AttributionSnapshot {
    /// Per-thread cause totals, keyed by tid.
    #[must_use]
    pub fn per_thread(&self) -> BTreeMap<u32, ThreadStallTotals> {
        let mut out: BTreeMap<u32, ThreadStallTotals> = BTreeMap::new();
        for seg in &self.segments {
            let t = out.entry(seg.tid).or_default();
            *t.by_cause
                .entry(seg.cause.as_str().to_string())
                .or_insert(0) += seg.duration_ns();
            t.attributed_ns += seg.duration_ns();
            t.segments += 1;
        }
        for win in &self.windows {
            let t = out.entry(win.tid).or_default();
            t.window_ns += win.duration_ns();
            t.windows += 1;
        }
        out
    }

    /// Sum of attributed ns for one cause across all threads.
    #[must_use]
    pub fn cause_total_ns(&self, cause: StallCause) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.cause == cause)
            .map(StallSegment::duration_ns)
            .sum()
    }

    /// Verifies the conservation invariant: for every thread the
    /// segments exactly tile the windows — windows are disjoint,
    /// every segment lies inside a window, segments within a window
    /// are contiguous from its start to its end. This is strictly
    /// stronger than "sums match": a gap and an overlap that cancel
    /// still fail.
    ///
    /// # Errors
    ///
    /// Returns the first per-thread violation found (threads checked
    /// in tid order).
    pub fn verify_conservation(&self) -> Result<(), ConservationError> {
        let mut segs: BTreeMap<u32, Vec<&StallSegment>> = BTreeMap::new();
        for s in &self.segments {
            segs.entry(s.tid).or_default().push(s);
        }
        let mut wins: BTreeMap<u32, Vec<&StallWindow>> = BTreeMap::new();
        for w in &self.windows {
            wins.entry(w.tid).or_default().push(w);
        }
        let tids: std::collections::BTreeSet<u32> =
            segs.keys().chain(wins.keys()).copied().collect();
        for tid in tids {
            let mut segments: Vec<&StallSegment> =
                segs.get(&tid).map(|v| v.as_slice()).unwrap_or(&[]).to_vec();
            segments.sort_by_key(|s| (s.start_ns, s.end_ns));
            let mut windows: Vec<&StallWindow> =
                wins.get(&tid).map(|v| v.as_slice()).unwrap_or(&[]).to_vec();
            windows.sort_by_key(|w| (w.start_ns, w.end_ns));

            let window_ns: u64 = windows.iter().map(|w| w.duration_ns()).sum();
            let attributed_ns: u64 = segments.iter().map(|s| s.duration_ns()).sum();
            let err = |detail: String| ConservationError {
                tid,
                window_ns,
                attributed_ns,
                detail,
            };

            for pair in windows.windows(2) {
                if pair[1].start_ns < pair[0].end_ns {
                    return Err(err(format!(
                        "overlapping windows [{}, {}) and [{}, {})",
                        pair[0].start_ns, pair[0].end_ns, pair[1].start_ns, pair[1].end_ns
                    )));
                }
            }

            let mut seg_iter = segments.iter().peekable();
            for win in &windows {
                let mut cursor = win.start_ns;
                // Consume segments until this window is fully tiled.
                while cursor < win.end_ns {
                    match seg_iter.peek() {
                        Some(s) if s.start_ns == cursor && s.end_ns <= win.end_ns => {
                            cursor = s.end_ns;
                            seg_iter.next();
                        }
                        Some(s) if s.start_ns == cursor => {
                            return Err(err(format!(
                                "segment {} [{}, {}) overruns window end {}",
                                s.cause, s.start_ns, s.end_ns, win.end_ns
                            )));
                        }
                        Some(s) if s.start_ns < cursor => {
                            return Err(err(format!(
                                "overlapping segments: {} starts at {} before cursor {}",
                                s.cause, s.start_ns, cursor
                            )));
                        }
                        _ => {
                            return Err(err(format!(
                                "unattributed gap [{}, ...) inside window [{}, {})",
                                cursor, win.start_ns, win.end_ns
                            )));
                        }
                    }
                }
                // Zero-length segments sitting exactly on the cursor
                // belong to this window too.
                while seg_iter
                    .peek()
                    .is_some_and(|s| s.start_ns == cursor && s.end_ns == cursor)
                {
                    seg_iter.next();
                }
            }
            if let Some(s) = seg_iter.next() {
                return Err(err(format!(
                    "segment {} [{}, {}) outside every window",
                    s.cause, s.start_ns, s.end_ns
                )));
            }
        }
        Ok(())
    }
}

/// Tracks one latency objective per thread: p50/p95/p99/p999
/// percentiles and error-budget burn rate, built on the crate's
/// log-linear histograms.
#[derive(Debug)]
pub struct SloTracker {
    objective_ns: u64,
    /// Allowed violation fraction (e.g. `0.001` = 99.9% target).
    error_budget: f64,
    inner: Mutex<SloInner>,
}

#[derive(Debug, Default)]
struct SloInner {
    per_thread: BTreeMap<u32, (Histogram, u64)>, // (latencies, violations)
}

/// Frozen SLO stats for one thread.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloThreadStats {
    pub count: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub violations: u64,
    /// Fraction of samples over the objective.
    pub violation_rate: f64,
    /// `violation_rate / error_budget`; > 1.0 means the budget is
    /// burning faster than allowed.
    pub burn_rate: f64,
}

/// Frozen SLO report across threads. Keys are decimal tids (string
/// keys keep the report directly JSON-serializable).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    pub objective_ns: u64,
    pub error_budget: f64,
    pub per_thread: BTreeMap<String, SloThreadStats>,
}

impl SloTracker {
    /// `objective_ns` is the latency target; `error_budget` the
    /// allowed violation fraction (clamped to a sane positive range
    /// so burn rate is always finite).
    #[must_use]
    pub fn new(objective_ns: u64, error_budget: f64) -> Self {
        SloTracker {
            objective_ns,
            error_budget: error_budget.clamp(1e-9, 1.0),
            inner: Mutex::new(SloInner::default()),
        }
    }

    /// Records one observed latency for `tid`.
    pub fn record(&self, tid: u32, latency_ns: u64) {
        if let Ok(mut inner) = self.inner.lock() {
            let (hist, violations) = inner.per_thread.entry(tid).or_default();
            hist.record(latency_ns);
            if latency_ns > self.objective_ns {
                *violations += 1;
            }
        }
    }

    /// Freezes percentiles and burn rates per thread.
    #[must_use]
    pub fn report(&self) -> SloReport {
        let mut per_thread = BTreeMap::new();
        if let Ok(inner) = self.inner.lock() {
            for (tid, (hist, violations)) in &inner.per_thread {
                let snap = hist.snapshot();
                let violation_rate = if snap.count == 0 {
                    0.0
                } else {
                    *violations as f64 / snap.count as f64
                };
                per_thread.insert(
                    tid.to_string(),
                    SloThreadStats {
                        count: snap.count,
                        p50_ns: snap.quantile(0.50),
                        p95_ns: snap.quantile(0.95),
                        p99_ns: snap.quantile(0.99),
                        p999_ns: snap.quantile(0.999),
                        violations: *violations,
                        violation_rate,
                        burn_rate: violation_rate / self.error_budget,
                    },
                );
            }
        }
        SloReport {
            objective_ns: self.objective_ns,
            error_budget: self.error_budget,
            per_thread,
        }
    }
}

/// Publishes an SLO report into the registry under the registered
/// `prosper.slo.*` names: the percentile gauges hold the worst
/// per-thread value (the thread closest to blowing the objective),
/// `violations` accumulates across threads, and the burn rate is
/// exported in milli-units (1000 = the whole error budget).
pub fn slo_to_registry(report: &SloReport, registry: &crate::Registry) {
    let mut worst = SloThreadStats::default();
    for stats in report.per_thread.values() {
        worst.p50_ns = worst.p50_ns.max(stats.p50_ns);
        worst.p95_ns = worst.p95_ns.max(stats.p95_ns);
        worst.p99_ns = worst.p99_ns.max(stats.p99_ns);
        worst.p999_ns = worst.p999_ns.max(stats.p999_ns);
        worst.violations += stats.violations;
        worst.burn_rate = worst.burn_rate.max(stats.burn_rate);
    }
    let as_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    registry
        .gauge("prosper.slo.p50_ns")
        .set(as_i64(worst.p50_ns));
    registry
        .gauge("prosper.slo.p95_ns")
        .set(as_i64(worst.p95_ns));
    registry
        .gauge("prosper.slo.p99_ns")
        .set(as_i64(worst.p99_ns));
    registry
        .gauge("prosper.slo.p999_ns")
        .set(as_i64(worst.p999_ns));
    registry
        .counter("prosper.slo.violations")
        .add(worst.violations);
    let milli = (worst.burn_rate * 1000.0).clamp(0.0, i64::MAX as f64);
    registry
        .gauge("prosper.slo.burn_rate_milli")
        .set(milli as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_and_guards_record() {
        let acct = StallAccountant::new_virtual();
        assert_eq!(acct.now_ns(), 0);
        let start = acct.now_ns();
        acct.advance(120);
        let end = acct.now_ns();
        acct.record_segment(3, StallCause::Quiesce, 7, start, end);
        acct.record_window(3, start, end);
        let snap = acct.snapshot();
        assert_eq!(snap.segments.len(), 1);
        assert_eq!(snap.windows.len(), 1);
        let s = snap.segments[0];
        assert_eq!((s.tid, s.cause, s.sequence), (3, StallCause::Quiesce, 7));
        assert_eq!((s.start_ns, s.end_ns), (0, 120));
        snap.verify_conservation()
            .expect("one segment tiling its window conserves");
    }

    #[test]
    fn conservation_accepts_exact_tiling() {
        let acct = StallAccountant::new_virtual();
        // Two threads share commit boundaries 10..40: stage 10..25,
        // seal 25..30, apply 30..40.
        for tid in [0u32, 1] {
            acct.record_segment(tid, StallCause::Stage, 1, 10, 25);
            acct.record_segment(tid, StallCause::Seal, 1, 25, 30);
            acct.record_segment(tid, StallCause::Apply, 1, 30, 40);
            acct.record_window(tid, 10, 40);
        }
        let snap = acct.snapshot();
        snap.verify_conservation().unwrap();
        let per = snap.per_thread();
        assert_eq!(per[&0].attributed_ns, 30);
        assert_eq!(per[&0].window_ns, 30);
        assert_eq!(per[&1].by_cause["seal"], 5);
    }

    #[test]
    fn conservation_rejects_gap() {
        let acct = StallAccountant::new_virtual();
        acct.record_segment(0, StallCause::Stage, 1, 10, 20);
        // Uninstrumented 20..25 hole.
        acct.record_segment(0, StallCause::Apply, 1, 25, 40);
        acct.record_window(0, 10, 40);
        let err = acct.snapshot().verify_conservation().unwrap_err();
        assert!(err.detail.contains("gap"), "{err}");
        assert_eq!(err.window_ns, 30);
        assert_eq!(err.attributed_ns, 25);
    }

    #[test]
    fn conservation_rejects_overlap_even_when_sums_match() {
        let acct = StallAccountant::new_virtual();
        // Sums match (30 = 30) but 15..20 is double-charged and
        // 25..30 is unattributed.
        acct.record_segment(0, StallCause::Stage, 1, 10, 20);
        acct.record_segment(0, StallCause::Seal, 1, 15, 25);
        acct.record_segment(0, StallCause::Apply, 1, 30, 40);
        acct.record_window(0, 10, 40);
        let err = acct.snapshot().verify_conservation().unwrap_err();
        assert_eq!(err.attributed_ns, err.window_ns, "sums alone look fine");
        assert!(
            err.detail.contains("overlap") || err.detail.contains("gap"),
            "{err}"
        );
    }

    #[test]
    fn conservation_rejects_segment_outside_window() {
        let acct = StallAccountant::new_virtual();
        acct.record_segment(0, StallCause::Quiesce, 0, 5, 9);
        let err = acct.snapshot().verify_conservation().unwrap_err();
        assert!(err.detail.contains("outside"), "{err}");
    }

    #[test]
    fn conservation_rejects_window_with_no_segments() {
        let acct = StallAccountant::new_virtual();
        acct.record_window(2, 100, 200);
        let err = acct.snapshot().verify_conservation().unwrap_err();
        assert_eq!(err.tid, 2);
        assert_eq!(err.window_ns, 100);
        assert_eq!(err.attributed_ns, 0);
    }

    #[test]
    fn zero_length_segments_and_windows_are_conserved() {
        let acct = StallAccountant::new_virtual();
        acct.record_segment(0, StallCause::Seal, 1, 10, 10);
        acct.record_window(0, 10, 10);
        acct.snapshot().verify_conservation().unwrap();
    }

    #[test]
    fn snapshot_is_order_independent() {
        let a = StallAccountant::new_virtual();
        a.record_segment(1, StallCause::Stage, 1, 0, 5);
        a.record_segment(0, StallCause::Stage, 1, 0, 5);
        let b = StallAccountant::new_virtual();
        b.record_segment(0, StallCause::Stage, 1, 0, 5);
        b.record_segment(1, StallCause::Stage, 1, 0, 5);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let acct = StallAccountant::new_virtual();
        acct.record_segment(0, StallCause::Recovery, 3, 0, 9);
        acct.record_window(0, 0, 9);
        let snap = acct.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"Recovery\""), "unit-variant cause: {json}");
        let back: AttributionSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn slo_tracker_percentiles_and_burn_rate() {
        let slo = SloTracker::new(100, 0.01);
        for v in 1..=100u64 {
            slo.record(0, v); // zero violations
        }
        for v in 1..=100u64 {
            slo.record(1, v * 10); // 90 of 100 over objective
        }
        let rep = slo.report();
        assert_eq!(rep.per_thread["0"].violations, 0);
        assert_eq!(rep.per_thread["0"].burn_rate, 0.0);
        let t1 = &rep.per_thread["1"];
        assert_eq!(t1.count, 100);
        assert_eq!(t1.violations, 90);
        assert!((t1.violation_rate - 0.9).abs() < 1e-9);
        assert!((t1.burn_rate - 90.0).abs() < 1e-6);
        assert!(t1.p50_ns <= t1.p95_ns && t1.p95_ns <= t1.p99_ns && t1.p99_ns <= t1.p999_ns);
    }
}
