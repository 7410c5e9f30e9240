//! Gated checks of the performance architecture (DESIGN.md §9).
//!
//! Two sections, each kept because a gate reads it:
//!
//! 1. **Bitmap inspection** (host time) — `inspect_and_clear` over
//!    sparse-stack, clustered and dense dirty patterns, hierarchical
//!    [`DirtyBitmap`] vs the retained [`SparseDirtyBitmap`] BTreeMap
//!    reference. Gate: ≥ 5× on the sparse-stack pattern.
//! 2. **Staged-delta spine** (deterministic) — eager-apply vs
//!    spine-mode commit critical path on the virtual clock across
//!    dirty patterns and merge policies (the deferred merge is broken
//!    out; it is off the critical path by construction), and NVM write
//!    amplification from the machine model's per-phase byte tally.
//!    Gates: spine critical path ≤ eager on every pattern × policy,
//!    spine write amplification ≤ eager on every pattern, and strictly
//!    below eager, at equal stage bytes, on repeated hot words.
//!
//! The host gate judges one timed run and reports no spread; the
//! `prosper-perfbench` benchmark (`perfbench/`) is the harness that
//! times the host with repeated trials and a noise bound per metric.
//!
//! [`run_all`] produces a [`PerfReport`]; the `perf_baseline` binary
//! prints [`render`]'s tables and every gate's [`verdicts`], and exits
//! nonzero if any gate fails.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use prosper_core::bitmap::reference::SparseDirtyBitmap;
use prosper_core::bitmap::{BitmapGeometry, CopyRun, DirtyBitmap};
use prosper_core::oscomp::ProsperMechanism;
use prosper_core::recovery::{CommitHooks, PersistentProcess};
use prosper_gemos::checkpoint::CheckpointManager;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_telemetry::{StallAccountant, StallCause};
use prosper_trace::micro::{MicroBench, MicroSpec};

use crate::obs::NvmBytesRow;
use crate::report::{ratio, Table};
use crate::scale::SEED;

/// Minimum sparse-stack inspection speedup.
pub const SPARSE_STACK_GATE: f64 = 5.0;

/// Timed inspections per bitmap pattern and implementation.
const BITMAP_ITERS: u64 = 30;
/// Commits per spine latency arm.
const COMMIT_ITERS: u64 = 4;
/// Consistency intervals per write-amplification arm.
const AMP_INTERVALS: u64 = 3;

// ---------------------------------------------------------------------------
// Section 1: bitmap inspection
// ---------------------------------------------------------------------------

/// Bitmap words in the inspected window (each word covers 32 granules).
const WINDOW_WORDS: u64 = 4096;
const RANGE_START: u64 = 0x7000_0000;
const BITMAP_BASE: u64 = 0x1000_0000;
const GRANULARITY: u64 = 8;

/// One inspection pattern's measurements.
#[derive(Clone, Debug)]
pub struct BitmapRow {
    /// Pattern name (`sparse-stack`, `clustered`, `dense`).
    pub pattern: String,
    /// Dirty bitmap words per iteration.
    pub dirty_words: u64,
    /// Mean `inspect_and_clear` wall time, hierarchical bitmap (ns).
    pub hier_ns_mean: f64,
    /// Mean `inspect_and_clear` wall time, sparse reference (ns).
    pub sparse_ns_mean: f64,
    /// Window granules scanned per second, hierarchical bitmap.
    pub hier_granules_per_sec: f64,
    /// Window granules scanned per second, sparse reference.
    pub sparse_granules_per_sec: f64,
    /// `sparse_ns_mean / hier_ns_mean`.
    pub speedup: f64,
}

fn perf_geom() -> BitmapGeometry {
    BitmapGeometry {
        range_start: VirtAddr::new(RANGE_START),
        bitmap_base: VirtAddr::new(BITMAP_BASE),
        granularity: GRANULARITY,
    }
}

fn perf_window() -> VirtRange {
    VirtRange::new(
        VirtAddr::new(RANGE_START),
        VirtAddr::new(RANGE_START + WINDOW_WORDS * 32 * GRANULARITY),
    )
}

/// (word index, word value) pairs dirtied before every inspection.
fn pattern_words(pattern: &str) -> Vec<(u64, u32)> {
    match pattern {
        // A few dozen live frames scattered over a large reserved
        // window: the shape a real program stack leaves behind.
        "sparse-stack" => (0..WINDOW_WORDS)
            .step_by(100)
            .map(|w| (w, 0x0000_00ffu32))
            .collect(),
        // Bursts of fully dirty words (hot frames), clean in between.
        "clustered" => (0..8u64)
            .flat_map(|c| (0..16u64).map(move |i| (c * 512 + i, u32::MAX)))
            .collect(),
        // Worst case for the fast path: everything dirty.
        "dense" => (0..WINDOW_WORDS).map(|w| (w, u32::MAX)).collect(),
        other => panic!("unknown pattern {other}"),
    }
}

/// Times `iters` populate+inspect rounds; only the inspection is
/// accumulated. Returns total inspection nanoseconds.
fn time_inspections<B, I>(words: &[(u64, u32)], iters: u64, bitmap: &mut B, mut inspect: I) -> u64
where
    I: FnMut(&mut B) -> (Vec<CopyRun>, prosper_core::bitmap::InspectStats),
    B: DirtyWords,
{
    let mut total_ns = 0u64;
    for _ in 0..iters {
        for &(w, v) in words {
            bitmap.merge(BITMAP_BASE + w * 4, v);
        }
        let t = Instant::now();
        let out = inspect(bitmap);
        total_ns += t.elapsed().as_nanos() as u64;
        black_box(out);
    }
    total_ns
}

/// Uniform `merge_word` access for the two bitmap implementations.
trait DirtyWords {
    fn merge(&mut self, addr: u64, value: u32);
}

impl DirtyWords for DirtyBitmap {
    fn merge(&mut self, addr: u64, value: u32) {
        self.merge_word(addr, value);
    }
}

impl DirtyWords for SparseDirtyBitmap {
    fn merge(&mut self, addr: u64, value: u32) {
        self.merge_word(addr, value);
    }
}

/// Runs the bitmap-inspection comparison for every pattern.
#[must_use]
pub fn bitmap_section() -> Vec<BitmapRow> {
    let geom = perf_geom();
    let window = perf_window();
    let mut rows = Vec::new();
    for pattern in ["sparse-stack", "clustered", "dense"] {
        let words = pattern_words(pattern);

        // Sanity: both implementations agree on this pattern.
        let mut h = DirtyBitmap::new();
        let mut s = SparseDirtyBitmap::new();
        for &(w, v) in &words {
            h.merge_word(BITMAP_BASE + w * 4, v);
            s.merge_word(BITMAP_BASE + w * 4, v);
        }
        let (hr, hs) = h.inspect_and_clear(&geom, window);
        let (sr, ss) = s.inspect_and_clear(&geom, window);
        assert_eq!(hr, sr, "implementations diverged on {pattern}");
        assert_eq!(hs, ss, "stats diverged on {pattern}");

        let hier_ns = time_inspections(&words, BITMAP_ITERS, &mut DirtyBitmap::new(), |b| {
            b.inspect_and_clear(&geom, window)
        });
        let sparse_ns =
            time_inspections(&words, BITMAP_ITERS, &mut SparseDirtyBitmap::new(), |b| {
                b.inspect_and_clear(&geom, window)
            });

        let window_granules = WINDOW_WORDS * 32;
        let hier_mean = hier_ns as f64 / BITMAP_ITERS as f64;
        let sparse_mean = sparse_ns as f64 / BITMAP_ITERS as f64;
        let per_sec = |mean_ns: f64| window_granules as f64 / (mean_ns / 1e9);
        rows.push(BitmapRow {
            pattern: pattern.to_string(),
            dirty_words: words.len() as u64,
            hier_ns_mean: hier_mean,
            sparse_ns_mean: sparse_mean,
            hier_granules_per_sec: per_sec(hier_mean),
            sparse_granules_per_sec: per_sec(sparse_mean),
            speedup: sparse_mean / hier_mean.max(1.0),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Section 2: staged-delta spine
// ---------------------------------------------------------------------------

/// Threads in the spine latency fixture.
const SPINE_THREADS: u64 = 4;
/// Stack bytes per thread in the spine latency fixture.
const SPINE_STACK_BYTES: u64 = 64 * 1024;

/// One pattern × policy comparison of eager-apply vs spine-mode
/// commit critical-path latency on the deterministic virtual clock.
#[derive(Clone, Debug)]
pub struct SpineLatencyRow {
    /// Dirty pattern (`sparse-stack`, `clustered`, `dense`).
    pub pattern: String,
    /// Merge policy the spine arm ran (`merge-always`, `default`,
    /// `lazy`).
    pub policy: String,
    /// Commits measured per arm.
    pub commits: u64,
    /// Eager-apply critical-path ns (all stall causes except merge).
    pub eager_critical_ns: u64,
    /// Spine-mode critical-path ns — the gated number.
    pub spine_critical_ns: u64,
    /// Deferred merge ns the spine arm spent off the critical path.
    pub spine_merge_ns: u64,
    /// Delta batches still unmerged when the sweep finished.
    pub spine_batches_left: usize,
}

/// One workload's NVM write-amplification comparison from the machine
/// model's per-phase byte tally.
#[derive(Clone, Debug)]
pub struct SpineAmpRow {
    /// Workload label.
    pub pattern: String,
    /// Consistency intervals executed per arm.
    pub intervals: u64,
    /// Eager-apply per-phase NVM bytes.
    pub eager: NvmBytesRow,
    /// Spine-mode per-phase NVM bytes.
    pub spine: NvmBytesRow,
}

/// The staged-delta spine study.
#[derive(Clone, Debug)]
pub struct SpineSection {
    /// Threads (stacks) in the latency fixture.
    pub threads: usize,
    /// Latency comparison, one row per dirty pattern × merge policy.
    pub latency: Vec<SpineLatencyRow>,
    /// Write-amplification comparison across dirty patterns (default
    /// merge policy), gated spine ≤ eager on every row: seal-time run
    /// coalescing plus the packed descriptor table removed the
    /// overhead that let many-tiny-runs patterns lose.
    pub write_amp: Vec<SpineAmpRow>,
    /// The steady-state repeated-hot-words workload — the strictly
    /// gated write-amplification win.
    pub hot_words: SpineAmpRow,
}

fn spine_ranges() -> Vec<VirtRange> {
    (0..SPINE_THREADS)
        .map(|i| {
            let top = 0x7400_0000 + (i + 1) * 0x10_0000;
            VirtRange::new(VirtAddr::new(top - SPINE_STACK_BYTES), VirtAddr::new(top))
        })
        .collect()
}

/// Copy runs modeling one dirty pattern over the spine fixture.
fn spine_pattern_runs(pattern: &str) -> BTreeMap<u32, Vec<CopyRun>> {
    let per_thread = |start: VirtAddr| -> Vec<CopyRun> {
        match pattern {
            // A few live frames scattered over the reserved window.
            "sparse-stack" => (0..8u64)
                .map(|k| CopyRun {
                    start: start + k * 8192,
                    len: 64,
                })
                .collect(),
            // Hot frame clusters.
            "clustered" => (0..4u64)
                .map(|k| CopyRun {
                    start: start + k * 16384,
                    len: 2048,
                })
                .collect(),
            // The whole stack dirty.
            "dense" => vec![CopyRun {
                start,
                len: SPINE_STACK_BYTES,
            }],
            other => panic!("unknown spine pattern {other}"),
        }
    };
    spine_ranges()
        .iter()
        .enumerate()
        .map(|(tid, r)| (tid as u32, per_thread(r.start())))
        .collect()
}

/// Commits `commits` times on the virtual clock and splits the stall
/// ledger into (critical-path ns, merge ns).
fn spine_commit_cost(
    process: &mut PersistentProcess,
    runs: &BTreeMap<u32, Vec<CopyRun>>,
    commits: u64,
) -> (u64, u64) {
    let acct = StallAccountant::new_virtual();
    for _ in 0..commits {
        let hooks = CommitHooks {
            acct: Some(&acct),
            ..CommitHooks::default()
        };
        process
            .commit_with(runs, hooks)
            .expect("no injector is attached, so the commit cannot crash");
    }
    let snap = acct.snapshot();
    let merge = snap.cause_total_ns(StallCause::Merge);
    let total: u64 = StallCause::ALL
        .iter()
        .map(|&c| snap.cause_total_ns(c))
        .sum();
    (total - merge, merge)
}

/// Runs one micro workload to completion and returns the machine's
/// per-phase NVM byte tally.
fn spine_amp_arm(
    spec: MicroSpec,
    intervals: u64,
    spine: Option<prosper_core::SpineConfig>,
) -> NvmBytesRow {
    let mut machine = Machine::new(MachineConfig::setup_i());
    {
        let mut mgr = CheckpointManager::new(&mut machine, 30_000);
        let mut mech = match spine {
            Some(cfg) => ProsperMechanism::with_defaults().with_spine(cfg),
            None => ProsperMechanism::with_defaults(),
        };
        mgr.run_stack_only(MicroBench::new(spec, SEED), &mut mech, intervals);
    }
    NvmBytesRow::from_phases(machine.ckpt_nvm_bytes())
}

fn spine_amp_row(pattern: &str, spec: MicroSpec, intervals: u64) -> SpineAmpRow {
    SpineAmpRow {
        pattern: pattern.to_string(),
        intervals,
        eager: spine_amp_arm(spec, intervals, None),
        spine: spine_amp_arm(spec, intervals, Some(prosper_core::SpineConfig::default())),
    }
}

/// Measures the staged-delta spine against eager apply. Deterministic:
/// nothing here reads the host clock.
#[must_use]
pub fn spine_section() -> SpineSection {
    use prosper_core::SpineConfig;
    let policies = [
        ("merge-always", SpineConfig::merge_always()),
        ("default", SpineConfig::default()),
        ("lazy", SpineConfig::lazy(64)),
    ];
    let mut latency = Vec::new();
    for pattern in ["sparse-stack", "clustered", "dense"] {
        let runs = spine_pattern_runs(pattern);
        for (policy, spine_cfg) in policies {
            let mut eager = PersistentProcess::new(&spine_ranges());
            let (eager_critical_ns, _) = spine_commit_cost(&mut eager, &runs, COMMIT_ITERS);
            let mut spined = PersistentProcess::new_with_spine(&spine_ranges(), spine_cfg);
            let (spine_critical_ns, spine_merge_ns) =
                spine_commit_cost(&mut spined, &runs, COMMIT_ITERS);
            latency.push(SpineLatencyRow {
                pattern: pattern.to_string(),
                policy: policy.to_string(),
                commits: COMMIT_ITERS,
                eager_critical_ns,
                spine_critical_ns,
                spine_merge_ns,
                spine_batches_left: spined.spine_batches(),
            });
        }
    }

    let write_amp = vec![
        spine_amp_row("sparse", MicroSpec::Sparse { pages: 16 }, AMP_INTERVALS),
        spine_amp_row(
            "clustered",
            MicroSpec::Random { array_bytes: 65536 },
            AMP_INTERVALS,
        ),
        spine_amp_row(
            "dense",
            MicroSpec::Stream { array_bytes: 65536 },
            AMP_INTERVALS,
        ),
    ];
    // Steady state: the same hot words dirtied every interval, so the
    // spine's deferred fold dedups what eager apply copies each time.
    // Six intervals give the default merge policy batches to fold.
    let hot_words = spine_amp_row(
        "repeated-hot-words",
        MicroSpec::Stream { array_bytes: 8192 },
        6,
    );

    SpineSection {
        threads: SPINE_THREADS as usize,
        latency,
        write_amp,
        hot_words,
    }
}

// ---------------------------------------------------------------------------
// Report and gates
// ---------------------------------------------------------------------------

/// Everything the gates read.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Section 1: bitmap inspection comparison.
    pub bitmap: Vec<BitmapRow>,
    /// Section 2: staged-delta spine vs eager apply.
    pub spine: SpineSection,
}

/// Runs every section.
#[must_use]
pub fn run_all() -> PerfReport {
    PerfReport {
        bitmap: bitmap_section(),
        spine: spine_section(),
    }
}

/// One gate's outcome: the measured values, as `Ok` when the gate
/// holds and as `Err` when it is violated.
pub type Verdict = Result<String, String>;

fn gate(holds: bool, detail: String) -> Verdict {
    if holds {
        Ok(detail)
    } else {
        Err(detail)
    }
}

fn bitmap_gate(rows: &[BitmapRow]) -> Verdict {
    let sparse = rows
        .iter()
        .find(|r| r.pattern == "sparse-stack")
        .ok_or("no sparse-stack bitmap row")?;
    gate(
        sparse.speedup >= SPARSE_STACK_GATE,
        format!(
            "sparse-stack inspection {:.2}x the BTreeMap reference (gate >= {SPARSE_STACK_GATE}x)",
            sparse.speedup
        ),
    )
}

/// A spine gate checked on each of `rows` rows: holds when no row
/// produced a violation.
fn every_row(rows: usize, violations: Vec<String>) -> Verdict {
    if violations.is_empty() {
        Ok(format!("spine <= eager on all {rows} rows"))
    } else {
        Err(violations.join("; "))
    }
}

/// The three spine gates, judged on the section alone.
fn spine_verdicts(s: &SpineSection) -> [(&'static str, Verdict); 3] {
    let slow: Vec<String> = s
        .latency
        .iter()
        .filter(|r| r.spine_critical_ns > r.eager_critical_ns)
        .map(|r| {
            format!(
                "{} ns exceeds eager {} ns on pattern {} / policy {}",
                r.spine_critical_ns, r.eager_critical_ns, r.pattern, r.policy
            )
        })
        .collect();

    let amplified: Vec<String> = s
        .write_amp
        .iter()
        .filter(|r| r.spine.write_amp_milli > r.eager.write_amp_milli)
        .map(|r| {
            format!(
                "{} exceeds eager {} on pattern {}",
                r.spine.write_amp_milli, r.eager.write_amp_milli, r.pattern
            )
        })
        .collect();

    let hw = &s.hot_words;
    let hot_words = if hw.eager.stage == hw.spine.stage {
        gate(
            hw.spine.write_amp_milli < hw.eager.write_amp_milli,
            format!(
                "spine {} vs eager {} milli (gate: strictly lower)",
                hw.spine.write_amp_milli, hw.eager.write_amp_milli
            ),
        )
    } else {
        Err(format!(
            "arms staged different byte counts ({} vs {}) — the \
             amplification comparison is apples to oranges",
            hw.eager.stage, hw.spine.stage
        ))
    };

    [
        ("spine critical path", every_row(s.latency.len(), slow)),
        (
            "spine write amplification",
            every_row(s.write_amp.len(), amplified),
        ),
        ("spine hot-words amplification", hot_words),
    ]
}

/// Every gate's verdict, in section order. Each gate is judged on its
/// own, so a failing host-timed gate never hides a deterministic one.
#[must_use]
pub fn verdicts(report: &PerfReport) -> Vec<(&'static str, Verdict)> {
    let mut all = vec![("bitmap sparse-stack speedup", bitmap_gate(&report.bitmap))];
    all.extend(spine_verdicts(&report.spine));
    all
}

/// Checks every gate.
///
/// # Errors
///
/// Returns one `gate: violation` line per failing gate.
pub fn validate(report: &PerfReport) -> Result<(), Vec<String>> {
    let failed: Vec<String> = verdicts(report)
        .into_iter()
        .filter_map(|(name, verdict)| verdict.err().map(|why| format!("{name}: {why}")))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed)
    }
}

/// Renders the report as printable tables.
#[must_use]
pub fn render(report: &PerfReport) -> Vec<Table> {
    let mut tables = Vec::new();

    let mut t = Table::new(
        "Bitmap inspection: hierarchical vs BTreeMap reference",
        &[
            "pattern",
            "dirty words",
            "hier ns",
            "sparse ns",
            "hier Mgranule/s",
            "speedup",
        ],
    );
    for r in &report.bitmap {
        t.push_row(&[
            r.pattern.clone(),
            r.dirty_words.to_string(),
            format!("{:.0}", r.hier_ns_mean),
            format!("{:.0}", r.sparse_ns_mean),
            format!("{:.1}", r.hier_granules_per_sec / 1e6),
            ratio(r.speedup),
        ]);
    }
    tables.push(t);

    let s = &report.spine;
    let mut t = Table::new(
        format!(
            "Staged-delta spine: commit critical path, {} threads x {} commits (virtual ns)",
            s.threads,
            s.latency.first().map_or(0, |r| r.commits)
        ),
        &[
            "pattern",
            "policy",
            "eager crit",
            "spine crit",
            "merge (deferred)",
            "batches left",
        ],
    );
    for r in &s.latency {
        t.push_row(&[
            r.pattern.clone(),
            r.policy.clone(),
            r.eager_critical_ns.to_string(),
            r.spine_critical_ns.to_string(),
            r.spine_merge_ns.to_string(),
            r.spine_batches_left.to_string(),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "Staged-delta spine: NVM write amplification (milli = bytes per 1000 dirty bytes)",
        &[
            "workload",
            "intervals",
            "eager amp",
            "spine amp",
            "eager bytes",
            "spine bytes",
        ],
    );
    for r in s.write_amp.iter().chain(std::iter::once(&s.hot_words)) {
        t.push_row(&[
            r.pattern.clone(),
            r.intervals.to_string(),
            r.eager.write_amp_milli.to_string(),
            r.spine.write_amp_milli.to_string(),
            r.eager.total().to_string(),
            r.spine.total().to_string(),
        ]);
    }
    tables.push(t);

    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose host-timed section is made up — the host gate
    /// holds — so a test can judge the gates without timing anything.
    fn untimed_report() -> PerfReport {
        let bitmap = ["sparse-stack", "clustered", "dense"]
            .map(|pattern| BitmapRow {
                pattern: pattern.to_string(),
                dirty_words: 1,
                hier_ns_mean: 100.0,
                sparse_ns_mean: 1000.0,
                hier_granules_per_sec: 1e9,
                sparse_granules_per_sec: 1e8,
                speedup: 10.0,
            })
            .to_vec();
        PerfReport {
            bitmap,
            spine: spine_section(),
        }
    }

    #[test]
    fn quick_suite_produces_valid_report() {
        let report = run_all();
        if let Err(failed) = validate(&report) {
            panic!("the report fails its gates:\n{}", failed.join("\n"));
        }
        assert_eq!(report.bitmap.len(), 3);
        // 3 patterns x 3 policies, and 3 write-amplification patterns.
        assert_eq!(report.spine.latency.len(), 9);
        assert_eq!(report.spine.write_amp.len(), 3);
    }

    #[test]
    fn render_covers_every_section() {
        let tables = render(&untimed_report());
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} has rows", t.title);
        }
    }

    #[test]
    fn spine_gates_hold_without_host_timing() {
        let spine = spine_section();
        assert_eq!(spine.latency.len(), 9);
        assert_eq!(spine.write_amp.len(), 3);
        for (name, verdict) in spine_verdicts(&spine) {
            assert!(verdict.is_ok(), "{name}: {verdict:?}");
        }
    }

    #[test]
    fn failing_host_gate_does_not_hide_a_spine_violation() {
        let mut report = untimed_report();
        report.bitmap[0].speedup = 1.0;
        let row = report
            .spine
            .latency
            .iter_mut()
            .find(|r| r.pattern == "clustered" && r.policy == "default")
            .unwrap();
        row.spine_critical_ns = row.eager_critical_ns + 1;
        let failed = validate(&report).expect_err("two gates fail");
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(
            failed[0].starts_with("bitmap sparse-stack speedup"),
            "{failed:?}"
        );
        assert!(
            failed[1].starts_with("spine critical path")
                && failed[1].contains("pattern clustered / policy default"),
            "{failed:?}"
        );
    }

    #[test]
    fn bitmap_patterns_are_sane() {
        let rows = bitmap_section();
        let dense = rows.iter().find(|r| r.pattern == "dense").unwrap();
        assert_eq!(dense.dirty_words, WINDOW_WORDS);
        let sparse = rows.iter().find(|r| r.pattern == "sparse-stack").unwrap();
        assert!(sparse.dirty_words < 64);
        assert!(sparse.hier_granules_per_sec > sparse.sparse_granules_per_sec);
    }
}
