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
//! * the [`StallAccountant`] collects both and freezes them into an
//!   [`AttributionSnapshot`];
//! * a [`Stall`] is the one way a probe site charges a stall: it opens
//!   a window for a set of threads, ends each phase with its cost, and
//!   closes the window, recording the segments and the window from the
//!   same clock readings.
//!
//! The load-bearing invariant is **conservation**, checked by
//! [`AttributionSnapshot::verify_conservation`]: for every thread, the
//! cause-tagged segments must *exactly tile* the measured windows —
//! same total, no gaps, no overlaps, nothing outside a window. Because
//! every segment and window comes out of a [`Stall`], the phase
//! boundaries telescope and the check is exact, not approximate: an
//! uninstrumented phase inside a stall window shows up as a gap and
//! fails the check, so the tax report is provably complete rather than
//! vibes.
//!
//! # One virtual clock
//!
//! The accountant owns a single monotone time axis: a deterministic
//! counter advanced only when a [`Stall`] phase ends. Simulator probe
//! sites charge simulated-cycle deltas (1 cycle = 1 virtual ns); the
//! commit engine and recovery charge a deterministic cost model, so
//! timelines are byte-reproducible. Host time is measured elsewhere,
//! through [`crate::Stopwatch`].
//!
//! Like the rest of the crate, the accountant must never take the
//! simulation down: lock poisoning degrades to dropped records, never
//! a panic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

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

/// Collects stall segments and windows from [`Stall`]s. `Sync` by
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

    /// Advances the clock by `ns`: the cost of a [`Stall`] phase.
    fn advance(&self, ns: u64) {
        self.virtual_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one cause-tagged segment. Inverted intervals are
    /// clamped to zero length rather than rejected — telemetry never
    /// panics the caller.
    fn record_segment(
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
    fn record_window(&self, tid: u32, start_ns: u64, end_ns: u64) {
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

/// One stall window in progress — the only way to charge a stall.
///
/// It is opened for the stalled threads and the commit sequence the
/// stall belongs to, with its first phase open. When a phase ends, the
/// accountant's clock advances by the phase's cost and the phase is
/// charged to every thread as one segment: the threads share one set of
/// phase boundaries. [`Stall::close`] records the window. A crash that
/// cuts the window short leaves a phase open; closing then records that
/// phase up to the crash instant without charging it, so even a torn
/// window is exactly tiled by its segments. A no-op without an
/// accountant.
#[derive(Debug)]
#[must_use = "a stall window records nothing until it is closed"]
pub struct Stall<'a> {
    acct: Option<&'a StallAccountant>,
    tids: &'a [u32],
    sequence: u64,
    window_start: u64,
    phase_start: u64,
    open: Option<StallCause>,
}

impl<'a> Stall<'a> {
    /// Opens a window for `tids` and `sequence` with `first` as its
    /// open phase.
    #[inline]
    pub fn open(
        acct: Option<&'a StallAccountant>,
        tids: &'a [u32],
        sequence: u64,
        first: StallCause,
    ) -> Self {
        let now = acct.map_or(0, StallAccountant::now_ns);
        Stall {
            acct,
            tids,
            sequence,
            window_start: now,
            phase_start: now,
            open: Some(first),
        }
    }

    /// Ends the open phase, charging its `cost` (evaluated only under
    /// an accountant, with the window's threads), and opens `next`;
    /// with `None` no phase is open until [`Stall::begin`].
    #[inline]
    pub fn end(&mut self, cost: impl FnOnce(&[u32]) -> u64, next: Option<StallCause>) {
        if let Some(a) = self.acct {
            a.advance(cost(self.tids));
            self.close_phase(a);
        }
        self.open = next;
    }

    /// Opens `cause` when no phase is open.
    #[inline]
    pub fn begin(&mut self, cause: StallCause) {
        debug_assert!(self.open.is_none(), "a phase is already open");
        self.open = Some(cause);
    }

    /// Closes the window: after its last phase ended, or at the crash
    /// instant with a phase still open.
    #[inline]
    pub fn close(mut self) {
        if let Some(a) = self.acct {
            self.close_window(a);
        }
    }

    // The recording paths are cold: only attribution runs attach an
    // accountant, so an unattributed commit inlines one branch per
    // call and keeps the recording code out of its instruction stream.

    /// Records the open phase's segment up to now.
    #[cold]
    fn close_phase(&mut self, a: &StallAccountant) {
        let Some(cause) = self.open else {
            return;
        };
        let now = a.now_ns();
        for &tid in self.tids {
            a.record_segment(tid, cause, self.sequence, self.phase_start, now);
        }
        self.phase_start = now;
    }

    /// Records the open phase, if any, and the window.
    #[cold]
    fn close_window(&mut self, a: &StallAccountant) {
        self.close_phase(a);
        for &tid in self.tids {
            a.record_window(tid, self.window_start, self.phase_start);
        }
    }
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
    fn stall_is_a_noop_without_an_accountant() {
        let mut stall = Stall::open(None, &[0, 1], 1, StallCause::Stage);
        stall.end(
            |_| panic!("cost evaluated without an accountant"),
            Some(StallCause::Seal),
        );
        stall.end(|_| panic!("cost evaluated without an accountant"), None);
        stall.begin(StallCause::Merge);
        stall.close();
    }

    #[test]
    fn stall_charges_every_thread_one_segment_per_phase() {
        let acct = StallAccountant::new_virtual();
        let mut stall = Stall::open(Some(&acct), &[0, 1], 7, StallCause::Stage);
        stall.end(|tids| 10 * tids.len() as u64, Some(StallCause::Seal));
        // A phase ended at cost 0 still leaves a zero-length segment.
        stall.end(|_| 0, Some(StallCause::Apply));
        stall.end(|_| 5, None);
        stall.begin(StallCause::Merge);
        stall.end(|_| 3, None);
        stall.close();
        assert_eq!(acct.now_ns(), 28);
        let snap = acct.snapshot();
        snap.verify_conservation().unwrap();
        for tid in [0, 1] {
            let segs: Vec<(StallCause, u64, u64, u64)> = snap
                .segments
                .iter()
                .filter(|s| s.tid == tid)
                .map(|s| (s.cause, s.sequence, s.start_ns, s.end_ns))
                .collect();
            assert_eq!(
                segs,
                [
                    (StallCause::Stage, 7, 0, 20),
                    (StallCause::Seal, 7, 20, 20),
                    (StallCause::Apply, 7, 20, 25),
                    (StallCause::Merge, 7, 25, 28),
                ]
            );
        }
        assert_eq!(
            snap.windows,
            [
                StallWindow {
                    tid: 0,
                    start_ns: 0,
                    end_ns: 28
                },
                StallWindow {
                    tid: 1,
                    start_ns: 0,
                    end_ns: 28
                },
            ]
        );
    }

    #[test]
    fn closing_after_a_crash_leaves_the_torn_phase_uncharged() {
        let acct = StallAccountant::new_virtual();
        let mut torn = Stall::open(Some(&acct), &[3], 2, StallCause::Stage);
        torn.end(|_| 40, Some(StallCause::Seal));
        // Another thread's stall moves the clock on before the crash.
        let mut other = Stall::open(Some(&acct), &[9], 0, StallCause::Quiesce);
        other.end(|_| 15, None);
        other.close();
        // The crash hits with the seal phase open.
        torn.close();
        assert_eq!(acct.now_ns(), 55, "closing charges nothing");
        let snap = acct.snapshot();
        snap.verify_conservation().unwrap();
        let torn_segs: Vec<(StallCause, u64, u64)> = snap
            .segments
            .iter()
            .filter(|s| s.tid == 3)
            .map(|s| (s.cause, s.start_ns, s.end_ns))
            .collect();
        assert_eq!(
            torn_segs,
            [(StallCause::Stage, 0, 40), (StallCause::Seal, 40, 55)]
        );
        assert!(snap.windows.contains(&StallWindow {
            tid: 3,
            start_ns: 0,
            end_ns: 55
        }));
    }
}
