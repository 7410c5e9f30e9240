//! Performance baseline suite for the hierarchical dirty bitmap and
//! the parallel whole-process commit (PR 3).
//!
//! Five sections, each with wall-clock measurements taken via
//! [`std::time::Instant`] (this is host time, not the simulator's
//! cycle domain — the point is the cost of the *implementation*, not
//! of the modeled machine):
//!
//! 1. **Bitmap inspection** — `inspect_and_clear` over sparse-stack,
//!    clustered, and dense dirty patterns, hierarchical
//!    [`DirtyBitmap`] vs the retained [`SparseDirtyBitmap`] BTreeMap
//!    reference, reported as granules scanned per second and a
//!    speedup ratio. The acceptance gate requires ≥ 5× on the
//!    sparse-stack pattern.
//! 2. **Parallel commit scaling** — single commits through
//!    `PersistentProcess::commit_with` on an 8-thread process across
//!    worker counts, with the telemetry per-phase timers
//!    (`stage`/`seal`/`apply`) broken out per configuration. A
//!    companion subsection sweeps the PR 7 *pipelined* burst (a
//!    multi-batch `commit_with`, where stage(N+1) overlaps apply(N))
//!    over the same worker counts plus
//!    the adaptive selector's own pick, and gates the adaptive
//!    configuration at ≥ 1.0× serial — skipped automatically on
//!    single-core hosts, where no overlap is physically possible.
//! 3. **Checkpoint latency** — interval-latency percentiles and
//!    per-phase cycle timers from the telemetry registry while a
//!    workload runs under [`ProsperMechanism`].
//! 4. **End-to-end runtime** — micro workloads through the
//!    checkpoint manager and the timeslice scheduler across process
//!    counts.
//! 5. **Staged-delta spine (PR 8)** — eager-apply vs spine-mode
//!    commit, two comparisons: commit *critical-path* latency on the
//!    deterministic virtual clock across sparse-stack/clustered/dense
//!    dirty patterns and merge policies (the deferred merge is broken
//!    out separately — it is off the critical path by construction),
//!    and NVM write amplification from the machine model's per-phase
//!    byte tally. The gates require spine critical latency ≤ eager at
//!    every pattern×policy, spine write amplification ≤ eager on
//!    *every* pattern (seal-time descriptor coalescing reclaimed the
//!    sparse many-tiny-runs arm that used to lose), and strictly
//!    lower steady-state amplification on repeated-hot-words.
//!
//! [`run_all`] produces a [`PerfReport`]; the `perf_baseline` binary
//! renders it, writes the JSON artifact to its required `--out` path
//! (the committed records are `BENCH_pr3.json`, `BENCH_pr7.json`,
//! `BENCH_pr8.json` and `BENCH_pr9.json`), and enforces [`validate`].

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
use prosper_telemetry as telemetry;
use prosper_telemetry::{HistogramSnapshot, MetricsSnapshot, NoopSink, Telemetry};
use prosper_telemetry::{StallAccountant, StallCause};
use prosper_trace::micro::{MicroBench, MicroSpec};
use prosper_trace::workloads::{Workload, WorkloadProfile};
use serde::Serialize;

use crate::obs::NvmBytesRow;
use crate::report::{ratio, Table};
use crate::scale::SEED;
use crate::scheduler::run_scheduled;

/// Schema tag stamped into the JSON report. `v2` added the
/// `pipeline` section (pipelined commit scaling + adaptive gate);
/// `v3` added the `spine` section (staged-delta spine latency and
/// write-amplification comparison) and a top-level
/// `host_parallelism`; `v4` added the `alloc` section (lock-free
/// frame-allocator throughput vs the serial reference) and the
/// `fleet` section (staggered vs aligned NVM bandwidth smoothing),
/// and tightened the spine write-amplification arms from
/// reported-only to gated; `v5` removed the `alloc` section and its
/// two summary fields with the frame allocator itself; `v6` removed
/// the `fleet` section and its two summary fields with the fleet
/// orchestrator.
pub const SCHEMA: &str = "prosper-perf-baseline/v6";

/// Minimum sparse-stack inspection speedup the baseline must record.
pub const SPARSE_STACK_GATE: f64 = 5.0;

/// Minimum adaptive pipelined-commit speedup vs serial, enforced only
/// on hosts where parallelism exists to be won (`host_parallelism >
/// 1`). The adaptive selector may *pick* serial — then the speedup is
/// 1.0 by construction — but it must never pick a losing fan-out.
pub const PIPELINE_GATE: f64 = 1.0;

/// Iteration budgets for one suite run.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Shrink every budget for a CI smoke run.
    pub quick: bool,
}

impl PerfConfig {
    /// Full-fidelity budgets (the committed baseline).
    #[must_use]
    pub fn full() -> Self {
        Self { quick: false }
    }

    /// Reduced budgets for CI smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self { quick: true }
    }

    fn bitmap_iters(&self) -> u64 {
        if self.quick {
            30
        } else {
            300
        }
    }

    fn commit_iters(&self) -> u64 {
        if self.quick {
            4
        } else {
            12
        }
    }

    fn commit_workers(&self) -> &'static [usize] {
        if self.quick {
            &[1, 2, 4]
        } else {
            &[1, 2, 4, 8]
        }
    }

    fn ckpt_intervals(&self) -> u64 {
        if self.quick {
            8
        } else {
            48
        }
    }

    fn workload_intervals(&self) -> u64 {
        if self.quick {
            3
        } else {
            12
        }
    }

    fn schedule_counts(&self) -> &'static [usize] {
        if self.quick {
            &[1, 2]
        } else {
            &[1, 2, 4]
        }
    }

    fn schedule_slices(&self) -> u64 {
        if self.quick {
            16
        } else {
            48
        }
    }
}

// ---------------------------------------------------------------------------
// Section 1: bitmap inspection
// ---------------------------------------------------------------------------

/// Bitmap words in the inspected window (each word covers 32 granules).
const WINDOW_WORDS: u64 = 4096;
const RANGE_START: u64 = 0x7000_0000;
const BITMAP_BASE: u64 = 0x1000_0000;
const GRANULARITY: u64 = 8;

/// One inspection pattern's measurements.
#[derive(Clone, Debug, Serialize)]
pub struct BitmapRow {
    /// Pattern name (`sparse-stack`, `clustered`, `dense`).
    pub pattern: String,
    /// Granules covered by the inspected window.
    pub window_granules: u64,
    /// Dirty bitmap words per iteration.
    pub dirty_words: u64,
    /// Dirty granule bits per iteration.
    pub dirty_bits: u64,
    /// Timed inspections per implementation.
    pub iterations: u64,
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
pub fn bitmap_section(cfg: &PerfConfig) -> Vec<BitmapRow> {
    let geom = perf_geom();
    let window = perf_window();
    let iters = cfg.bitmap_iters();
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

        let hier_ns = time_inspections(&words, iters, &mut DirtyBitmap::new(), |b| {
            b.inspect_and_clear(&geom, window)
        });
        let sparse_ns = time_inspections(&words, iters, &mut SparseDirtyBitmap::new(), |b| {
            b.inspect_and_clear(&geom, window)
        });

        let window_granules = WINDOW_WORDS * 32;
        let hier_mean = hier_ns as f64 / iters as f64;
        let sparse_mean = sparse_ns as f64 / iters as f64;
        let per_sec = |mean_ns: f64| window_granules as f64 / (mean_ns / 1e9);
        rows.push(BitmapRow {
            pattern: pattern.to_string(),
            window_granules,
            dirty_words: words.len() as u64,
            dirty_bits: words.iter().map(|&(_, v)| u64::from(v.count_ones())).sum(),
            iterations: iters,
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
// Section 2: parallel commit scaling
// ---------------------------------------------------------------------------

/// One worker-count configuration of the commit-scaling study.
#[derive(Clone, Debug, Serialize)]
pub struct CommitRow {
    /// Staging/apply workers used.
    pub workers: usize,
    /// Timed commits.
    pub iterations: u64,
    /// Mean whole-commit wall time (ns).
    pub mean_ns: f64,
    /// Speedup vs the single-worker (serial) configuration.
    pub speedup_vs_serial: f64,
    /// Mean stage-phase wall time per commit (ns, telemetry).
    pub stage_ns_mean: f64,
    /// Mean seal-phase wall time per commit (ns, telemetry).
    pub seal_ns_mean: f64,
    /// Mean apply-phase wall time per commit (ns, telemetry).
    pub apply_ns_mean: f64,
}

/// The commit-scaling study: fixed workload shape, varying workers.
#[derive(Clone, Debug, Serialize)]
pub struct CommitSection {
    /// `available_parallelism()` on the recording host. Worker counts
    /// above this add thread overhead without concurrency, so flat or
    /// negative scaling past it is expected, not a regression.
    pub host_parallelism: usize,
    /// Threads (stacks) in the committed process.
    pub threads: usize,
    /// Copy runs supplied per thread.
    pub runs_per_thread: usize,
    /// Bytes staged+applied per commit across all threads.
    pub bytes_per_commit: u64,
    /// One row per worker count.
    pub rows: Vec<CommitRow>,
}

const THREADS: usize = 8;
const STACK_BYTES: u64 = 256 * 1024;
const RUNS_PER_THREAD: u64 = 64;

/// The shared commit workload: an 8-thread process with full-stack
/// copy runs per thread (the shape both the classic and the pipelined
/// scaling studies measure).
fn commit_fixture() -> (PersistentProcess, BTreeMap<u32, Vec<CopyRun>>) {
    let ranges: Vec<VirtRange> = (0..THREADS as u64)
        .map(|i| {
            let top = 0x7100_0000 + (i + 1) * 0x100_0000;
            VirtRange::new(VirtAddr::new(top - STACK_BYTES), VirtAddr::new(top))
        })
        .collect();
    let mut process = PersistentProcess::new(&ranges);
    let run_len = STACK_BYTES / RUNS_PER_THREAD;
    let mut runs: BTreeMap<u32, Vec<CopyRun>> = BTreeMap::new();
    for (tid, range) in ranges.iter().enumerate() {
        let tid = tid as u32;
        // Give each stack distinct content so staging copies real data.
        process.record_store(tid, range.start() + 64, &[0xA0 + tid as u8; 128]);
        runs.insert(
            tid,
            (0..RUNS_PER_THREAD)
                .map(|r| CopyRun {
                    start: range.start() + r * run_len,
                    len: run_len,
                })
                .collect(),
        );
    }
    (process, runs)
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Commits `batches` through the commit engine at `workers`, with no
/// hooks attached.
fn commit_at(
    process: &mut PersistentProcess,
    batches: &[BTreeMap<u32, Vec<CopyRun>>],
    workers: usize,
) {
    process
        .commit_with(batches, workers, CommitHooks::default())
        .expect("no injector is attached, so the commit cannot crash");
}

/// Measures single commits across worker counts.
#[must_use]
pub fn commit_section(cfg: &PerfConfig) -> CommitSection {
    let (mut process, runs) = commit_fixture();
    let iters = cfg.commit_iters();
    let mut rows = Vec::new();
    let mut serial_mean = 0.0f64;
    for &workers in cfg.commit_workers() {
        let batches = std::slice::from_ref(&runs);
        commit_at(&mut process, batches, workers); // warm-up
        let before = registry_snapshot();
        let t = Instant::now();
        for _ in 0..iters {
            commit_at(&mut process, batches, workers);
        }
        let total_ns = t.elapsed().as_nanos() as u64;
        let delta = registry_snapshot() - before;
        let mean_ns = total_ns as f64 / iters as f64;
        if workers == 1 {
            serial_mean = mean_ns;
        }
        let phase = |name: &str| hist(&delta, name).mean();
        rows.push(CommitRow {
            workers,
            iterations: iters,
            mean_ns,
            speedup_vs_serial: if serial_mean > 0.0 {
                serial_mean / mean_ns
            } else {
                1.0
            },
            stage_ns_mean: phase("prosper.commit.phase.stage_ns"),
            seal_ns_mean: phase("prosper.commit.phase.seal_ns"),
            apply_ns_mean: phase("prosper.commit.phase.apply_ns"),
        });
    }

    CommitSection {
        host_parallelism: host_parallelism(),
        threads: THREADS,
        runs_per_thread: RUNS_PER_THREAD as usize,
        bytes_per_commit: STACK_BYTES * THREADS as u64,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Section 2b: pipelined commit scaling (PR 7)
// ---------------------------------------------------------------------------

/// One worker-count configuration of the pipelined-burst study.
#[derive(Clone, Debug, Serialize)]
pub struct PipelineRow {
    /// Staging/apply workers used.
    pub workers: usize,
    /// Timed bursts.
    pub iterations: u64,
    /// Mean whole-burst wall time (ns).
    pub mean_ns: f64,
    /// Speedup vs the single-worker (serial) configuration.
    pub speedup_vs_serial: f64,
    /// Mean burst wall time from the telemetry histogram
    /// (`prosper.commit.pipeline.burst_ns`).
    pub burst_ns_mean: f64,
}

/// The pipelined commit-scaling study: multi-batch bursts over the
/// same workload shape as [`CommitSection`], plus the
/// adaptive selector's own configuration.
#[derive(Clone, Debug, Serialize)]
pub struct PipelineSection {
    /// `available_parallelism()` on the recording host. The speedup
    /// gate is only meaningful above 1.
    pub host_parallelism: usize,
    /// Threads (stacks) in the committed process.
    pub threads: usize,
    /// Sequences committed per pipelined burst.
    pub batches: usize,
    /// Copy runs supplied per thread per sequence.
    pub runs_per_thread: usize,
    /// Bytes staged+applied per sequence across all threads.
    pub bytes_per_batch: u64,
    /// Worker count the adaptive selector picked for this burst.
    pub adaptive_workers: usize,
    /// Mean burst wall time at the adaptive worker count (ns).
    pub adaptive_mean_ns: f64,
    /// Adaptive-configuration speedup vs serial — the gated number.
    pub adaptive_speedup_vs_serial: f64,
    /// Whether [`validate`] enforces the [`PIPELINE_GATE`] on this
    /// report (false on single-core hosts: no overlap is physically
    /// possible, so the selector correctly picks serial).
    pub gate_enforced: bool,
    /// One row per swept worker count.
    pub rows: Vec<PipelineRow>,
}

/// Measures pipelined bursts across worker counts and the adaptive
/// selector's pick.
///
/// # Panics
///
/// Panics if the swept worker counts do not include the serial
/// configuration (the speedup denominator).
#[must_use]
pub fn pipeline_section(cfg: &PerfConfig) -> PipelineSection {
    const BATCHES: usize = 3;
    let (mut process, runs) = commit_fixture();
    let batches: Vec<BTreeMap<u32, Vec<CopyRun>>> = vec![runs; BATCHES];

    let iters = cfg.commit_iters();
    let time_bursts = |process: &mut PersistentProcess, workers: usize| {
        commit_at(process, &batches, workers); // warm-up
        let before = registry_snapshot();
        let t = Instant::now();
        for _ in 0..iters {
            commit_at(process, &batches, workers);
        }
        let total_ns = t.elapsed().as_nanos() as u64;
        let delta = registry_snapshot() - before;
        (
            total_ns as f64 / iters as f64,
            hist(&delta, "prosper.commit.pipeline.burst_ns").mean(),
        )
    };

    let mut rows = Vec::new();
    let mut serial_mean = 0.0f64;
    for &workers in cfg.commit_workers() {
        let (mean_ns, burst_ns_mean) = time_bursts(&mut process, workers);
        if workers == 1 {
            serial_mean = mean_ns;
        }
        assert!(serial_mean > 0.0, "worker sweep must start at serial");
        rows.push(PipelineRow {
            workers,
            iterations: iters,
            mean_ns,
            speedup_vs_serial: serial_mean / mean_ns,
            burst_ns_mean,
        });
    }

    // The adaptive configuration reuses the sweep's measurement when
    // the selector lands on a swept count — the gate then compares
    // one timed configuration against another, not two noisy timings
    // of the same one.
    let adaptive_workers = process.planned_workers(&batches);
    let adaptive_mean_ns = match rows.iter().find(|r| r.workers == adaptive_workers) {
        Some(row) => row.mean_ns,
        None => time_bursts(&mut process, adaptive_workers).0,
    };
    let host_parallelism = host_parallelism();

    PipelineSection {
        host_parallelism,
        threads: THREADS,
        batches: BATCHES,
        runs_per_thread: RUNS_PER_THREAD as usize,
        bytes_per_batch: STACK_BYTES * THREADS as u64,
        adaptive_workers,
        adaptive_mean_ns,
        adaptive_speedup_vs_serial: serial_mean / adaptive_mean_ns,
        gate_enforced: host_parallelism > 1,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Section 3: checkpoint latency percentiles
// ---------------------------------------------------------------------------

/// Summary statistics of one telemetry histogram.
#[derive(Clone, Debug, Default, Serialize)]
pub struct LatencyStats {
    /// Recorded samples.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// 50th percentile (bucket lower bound).
    pub p50: u64,
    /// 90th percentile (bucket lower bound).
    pub p90: u64,
    /// 99th percentile (bucket lower bound).
    pub p99: u64,
    /// Maximum recorded value.
    pub max: u64,
}

impl LatencyStats {
    fn from_hist(h: &HistogramSnapshot) -> Self {
        Self {
            count: h.count,
            mean: h.mean(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            max: h.max,
        }
    }
}

/// Checkpoint-latency study: one workload, telemetry-derived timings.
#[derive(Clone, Debug, Serialize)]
pub struct CheckpointSection {
    /// Workload driving the checkpoints.
    pub workload: String,
    /// Consistency intervals executed.
    pub intervals: u64,
    /// Whole-interval checkpoint latency (simulated cycles).
    pub interval_cycles: LatencyStats,
    /// Per-phase checkpoint timers (simulated cycles), keyed by phase
    /// name (`inspect`, `clear`, `stage`, `apply`).
    pub phase_cycles: BTreeMap<String, LatencyStats>,
}

/// Runs a workload under [`ProsperMechanism`] and reads the latency
/// percentiles back out of the telemetry registry.
#[must_use]
pub fn checkpoint_section(cfg: &PerfConfig) -> CheckpointSection {
    let intervals = cfg.ckpt_intervals();
    let before = registry_snapshot();
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, 30_000);
    let mut mech = ProsperMechanism::with_defaults();
    let w = Workload::new(WorkloadProfile::gapbs_pr(), SEED);
    mgr.run_stack_only(w, &mut mech, intervals);
    let delta = registry_snapshot() - before;

    let mut phase_cycles = BTreeMap::new();
    for phase in ["inspect", "clear", "stage", "apply"] {
        let h = hist(&delta, &format!("prosper.ckpt.phase.{phase}_cycles"));
        phase_cycles.insert(phase.to_string(), LatencyStats::from_hist(&h));
    }
    CheckpointSection {
        workload: "gapbs_pr".to_string(),
        intervals,
        interval_cycles: LatencyStats::from_hist(&hist(&delta, "prosper.ckpt.interval_cycles")),
        phase_cycles,
    }
}

// ---------------------------------------------------------------------------
// Section 4: end-to-end runtime
// ---------------------------------------------------------------------------

/// End-to-end run of one micro workload through the checkpoint manager.
#[derive(Clone, Debug, Serialize)]
pub struct WorkloadRow {
    /// Micro-benchmark name.
    pub name: String,
    /// Consistency intervals executed.
    pub intervals: u64,
    /// Simulated cycles for the whole run.
    pub total_cycles: u64,
    /// Simulated cycles spent checkpointing.
    pub checkpoint_cycles: u64,
    /// Bytes the checkpoints copied.
    pub bytes_copied: u64,
    /// Host wall time for the run (ms).
    pub wall_ms: f64,
}

/// End-to-end run of the timeslice scheduler at one process count.
#[derive(Clone, Debug, Serialize)]
pub struct ScheduleRow {
    /// Concurrently scheduled processes.
    pub processes: usize,
    /// Context switches performed.
    pub switches: u64,
    /// Simulated cycles for the whole run.
    pub total_cycles: u64,
    /// Host wall time for the run (ms).
    pub wall_ms: f64,
}

/// Runs the micro-workload sweep.
#[must_use]
pub fn workload_section(cfg: &PerfConfig) -> Vec<WorkloadRow> {
    let intervals = cfg.workload_intervals();
    let specs = [
        MicroSpec::Stream { array_bytes: 65536 },
        MicroSpec::Random { array_bytes: 65536 },
        MicroSpec::Sparse { pages: 16 },
        MicroSpec::Recursive { depth: 96 },
    ];
    specs
        .iter()
        .map(|&spec| {
            let t = Instant::now();
            let mut machine = Machine::new(MachineConfig::setup_i());
            let mut mgr = CheckpointManager::new(&mut machine, 30_000);
            let mut mech = ProsperMechanism::with_defaults();
            let res = mgr.run_stack_only(MicroBench::new(spec, SEED), &mut mech, intervals);
            WorkloadRow {
                name: spec.name().to_string(),
                intervals: res.intervals,
                total_cycles: res.total_cycles,
                checkpoint_cycles: res.checkpoint_cycles,
                bytes_copied: res.bytes_copied,
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Runs the scheduler sweep across process counts.
#[must_use]
pub fn schedule_section(cfg: &PerfConfig) -> Vec<ScheduleRow> {
    let pool = [
        WorkloadProfile::gapbs_pr(),
        WorkloadProfile::ycsb_mem(),
        WorkloadProfile::mcf(),
        WorkloadProfile::g500_sssp(),
    ];
    cfg.schedule_counts()
        .iter()
        .map(|&n| {
            let profiles: Vec<_> = pool.iter().cloned().cycle().take(n).collect();
            let t = Instant::now();
            let res = run_scheduled(&profiles, 20_000, 60_000, cfg.schedule_slices());
            ScheduleRow {
                processes: n,
                switches: res.switches,
                total_cycles: res.total_cycles,
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Section 5: staged-delta spine (PR 8)
// ---------------------------------------------------------------------------

/// Threads in the spine latency fixture.
const SPINE_THREADS: u64 = 4;
/// Stack bytes per thread in the spine latency fixture.
const SPINE_STACK_BYTES: u64 = 64 * 1024;

/// One pattern × policy comparison of eager-apply vs spine-mode
/// commit critical-path latency on the deterministic virtual clock.
#[derive(Clone, Debug, Serialize)]
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
#[derive(Clone, Debug, Serialize)]
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

/// Section 5: the staged-delta spine study.
#[derive(Clone, Debug, Serialize)]
pub struct SpineSection {
    /// `available_parallelism()` on the recording host.
    pub host_parallelism: usize,
    /// Threads (stacks) in the latency fixture.
    pub threads: usize,
    /// Latency comparison, one row per dirty pattern × merge policy.
    pub latency: Vec<SpineLatencyRow>,
    /// Write-amplification comparison across dirty patterns (default
    /// merge policy). Gated spine ≤ eager on every row since v4:
    /// seal-time run coalescing plus the packed descriptor table
    /// removed the overhead that let many-tiny-runs patterns lose.
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
            .commit_with(std::slice::from_ref(runs), 1, hooks)
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

/// Measures the staged-delta spine against eager apply.
#[must_use]
pub fn spine_section(cfg: &PerfConfig) -> SpineSection {
    use prosper_core::SpineConfig;
    let commits = cfg.commit_iters();
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
            let (eager_critical_ns, _) = spine_commit_cost(&mut eager, &runs, commits);
            let mut spined = PersistentProcess::new_with_spine(&spine_ranges(), spine_cfg);
            let (spine_critical_ns, spine_merge_ns) =
                spine_commit_cost(&mut spined, &runs, commits);
            latency.push(SpineLatencyRow {
                pattern: pattern.to_string(),
                policy: policy.to_string(),
                commits,
                eager_critical_ns,
                spine_critical_ns,
                spine_merge_ns,
                spine_batches_left: spined.spine_batches(),
            });
        }
    }

    let intervals = cfg.workload_intervals();
    let write_amp = vec![
        spine_amp_row("sparse", MicroSpec::Sparse { pages: 16 }, intervals),
        spine_amp_row(
            "clustered",
            MicroSpec::Random { array_bytes: 65536 },
            intervals,
        ),
        spine_amp_row("dense", MicroSpec::Stream { array_bytes: 65536 }, intervals),
    ];
    // Steady state: the same hot words dirtied every interval, so the
    // spine's deferred fold dedups what eager apply copies each time.
    let hot_words = spine_amp_row(
        "repeated-hot-words",
        MicroSpec::Stream { array_bytes: 8192 },
        intervals.max(6),
    );

    SpineSection {
        host_parallelism: host_parallelism(),
        threads: SPINE_THREADS as usize,
        latency,
        write_amp,
        hot_words,
    }
}

// ---------------------------------------------------------------------------
// Report assembly
// ---------------------------------------------------------------------------

/// Headline numbers the acceptance criteria read directly.
#[derive(Clone, Debug, Serialize)]
pub struct Summary {
    /// Sparse-stack `inspect_and_clear` speedup, hierarchical vs
    /// BTreeMap reference.
    pub sparse_stack_speedup: f64,
    /// Largest worker count the commit study measured.
    pub max_commit_workers: usize,
    /// Commit speedup at that worker count vs serial.
    pub commit_speedup_at_max_workers: f64,
    /// Worker count the pipelined burst's adaptive selector picked.
    pub pipelined_adaptive_workers: usize,
    /// Pipelined adaptive-configuration speedup vs serial (gated at
    /// [`PIPELINE_GATE`] when the host has parallelism).
    pub pipelined_adaptive_speedup: f64,
    /// p99 whole-interval checkpoint latency (simulated cycles).
    pub ckpt_interval_p99_cycles: u64,
    /// Eager-apply NVM write amplification (milli-units: bytes
    /// written per 1000 dirty bytes) on the repeated-hot-words
    /// workload.
    pub eager_hot_words_write_amp_milli: u64,
    /// Spine-mode write amplification on the same workload — gated
    /// strictly below the eager number.
    pub spine_hot_words_write_amp_milli: u64,
    /// Mean per-phase checkpoint cycles (telemetry timers).
    pub ckpt_phase_mean_cycles: BTreeMap<String, f64>,
    /// Mean per-phase commit wall time at the max worker count (ns).
    pub commit_phase_mean_ns: BTreeMap<String, f64>,
}

/// The full perf-baseline report, serialized to `BENCH_pr3.json`.
#[derive(Clone, Debug, Serialize)]
pub struct PerfReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Whether the reduced CI budgets were used.
    pub quick: bool,
    /// `available_parallelism()` on the recording host — the number
    /// every auto-skipped gate is judged against.
    pub host_parallelism: usize,
    /// Section 1: bitmap inspection comparison.
    pub bitmap: Vec<BitmapRow>,
    /// Section 2: parallel commit scaling.
    pub commit: CommitSection,
    /// Section 2b: pipelined commit scaling and the adaptive gate.
    pub pipeline: PipelineSection,
    /// Section 3: checkpoint latency percentiles.
    pub checkpoint: CheckpointSection,
    /// Section 4a: micro-workload end-to-end runs.
    pub workloads: Vec<WorkloadRow>,
    /// Section 4b: scheduler end-to-end runs across process counts.
    pub scheduler: Vec<ScheduleRow>,
    /// Section 5: staged-delta spine vs eager apply.
    pub spine: SpineSection,
    /// Headline numbers.
    pub summary: Summary,
}

fn registry_snapshot() -> MetricsSnapshot {
    telemetry::with(|t| t.registry().snapshot()).unwrap_or_default()
}

fn hist(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    snap.histograms.get(name).cloned().unwrap_or_default()
}

/// Runs every section and assembles the report. Installs a telemetry
/// context for the duration if none is active (the phase timers and
/// latency histograms come from the registry).
#[must_use]
pub fn run_all(cfg: &PerfConfig) -> PerfReport {
    let installed = if telemetry::enabled() {
        false
    } else {
        telemetry::install(Telemetry::new(Box::new(NoopSink)));
        true
    };

    let bitmap = bitmap_section(cfg);
    let commit = commit_section(cfg);
    let pipeline = pipeline_section(cfg);
    let checkpoint = checkpoint_section(cfg);
    let workloads = workload_section(cfg);
    let scheduler = schedule_section(cfg);
    let spine = spine_section(cfg);

    if installed {
        let _ = telemetry::uninstall();
    }

    let sparse_stack_speedup = bitmap
        .iter()
        .find(|r| r.pattern == "sparse-stack")
        .map_or(0.0, |r| r.speedup);
    let max_row = commit.rows.iter().max_by_key(|r| r.workers);
    let summary = Summary {
        sparse_stack_speedup,
        max_commit_workers: max_row.map_or(0, |r| r.workers),
        commit_speedup_at_max_workers: max_row.map_or(0.0, |r| r.speedup_vs_serial),
        pipelined_adaptive_workers: pipeline.adaptive_workers,
        pipelined_adaptive_speedup: pipeline.adaptive_speedup_vs_serial,
        ckpt_interval_p99_cycles: checkpoint.interval_cycles.p99,
        eager_hot_words_write_amp_milli: spine.hot_words.eager.write_amp_milli,
        spine_hot_words_write_amp_milli: spine.hot_words.spine.write_amp_milli,
        ckpt_phase_mean_cycles: checkpoint
            .phase_cycles
            .iter()
            .map(|(k, v)| (k.clone(), v.mean))
            .collect(),
        commit_phase_mean_ns: max_row.map_or_else(BTreeMap::new, |r| {
            BTreeMap::from([
                ("stage".to_string(), r.stage_ns_mean),
                ("seal".to_string(), r.seal_ns_mean),
                ("apply".to_string(), r.apply_ns_mean),
            ])
        }),
    };

    PerfReport {
        schema: SCHEMA.to_string(),
        quick: cfg.quick,
        host_parallelism: host_parallelism(),
        bitmap,
        commit,
        pipeline,
        checkpoint,
        workloads,
        scheduler,
        spine,
        summary,
    }
}

/// Checks the report against the PR's acceptance criteria.
///
/// # Errors
///
/// Returns a description of the first violated criterion.
pub fn validate(report: &PerfReport) -> Result<(), String> {
    if report.schema != SCHEMA {
        return Err(format!("unexpected schema tag {:?}", report.schema));
    }
    if report.bitmap.is_empty() {
        return Err("bitmap section is empty".into());
    }
    let sparse = report
        .bitmap
        .iter()
        .find(|r| r.pattern == "sparse-stack")
        .ok_or("no sparse-stack bitmap row")?;
    if sparse.speedup < SPARSE_STACK_GATE {
        return Err(format!(
            "sparse-stack speedup {:.2}x below the {SPARSE_STACK_GATE}x gate",
            sparse.speedup
        ));
    }
    if report.commit.rows.iter().all(|r| r.workers < 4) {
        return Err("commit scaling never reached 4 workers".into());
    }
    let p = &report.pipeline;
    if p.rows.iter().all(|r| r.workers < 4) {
        return Err("pipelined scaling never reached 4 workers".into());
    }
    if p.adaptive_workers == 0 || p.adaptive_mean_ns <= 0.0 {
        return Err("pipelined adaptive configuration was not measured".into());
    }
    if p.gate_enforced != (p.host_parallelism > 1) {
        return Err("pipeline gate flag disagrees with host parallelism".into());
    }
    if p.gate_enforced && p.adaptive_speedup_vs_serial < PIPELINE_GATE {
        return Err(format!(
            "adaptive pipelined commit ({} workers) is {:.2}x serial, below \
             the {PIPELINE_GATE}x gate on a {}-way host",
            p.adaptive_workers, p.adaptive_speedup_vs_serial, p.host_parallelism
        ));
    }
    if report.checkpoint.interval_cycles.count == 0 {
        return Err("no checkpoint-latency samples recorded".into());
    }
    if report.workloads.is_empty() || report.scheduler.is_empty() {
        return Err("end-to-end section is empty".into());
    }
    let s = &report.spine;
    if s.latency.is_empty() || s.write_amp.is_empty() {
        return Err("spine section is empty".into());
    }
    for row in &s.latency {
        if row.spine_critical_ns > row.eager_critical_ns {
            return Err(format!(
                "spine critical-path latency {} ns exceeds eager {} ns on \
                 pattern {} / policy {}",
                row.spine_critical_ns, row.eager_critical_ns, row.pattern, row.policy
            ));
        }
    }
    // v4: seal-time descriptor coalescing flipped every write-amp arm
    // from reported-only to gated — including the sparse
    // many-tiny-runs pattern that used to lose to descriptor
    // overhead.
    for row in &s.write_amp {
        if row.spine.write_amp_milli > row.eager.write_amp_milli {
            return Err(format!(
                "spine write amplification {} exceeds eager {} on pattern {}",
                row.spine.write_amp_milli, row.eager.write_amp_milli, row.pattern
            ));
        }
    }
    let hw = &s.hot_words;
    if hw.eager.stage != hw.spine.stage {
        return Err(format!(
            "hot-words arms staged different byte counts ({} vs {}) — the \
             amplification comparison is apples to oranges",
            hw.eager.stage, hw.spine.stage
        ));
    }
    if hw.spine.write_amp_milli >= hw.eager.write_amp_milli {
        return Err(format!(
            "spine write amplification {} not strictly below eager {} on the \
             repeated-hot-words workload",
            hw.spine.write_amp_milli, hw.eager.write_amp_milli
        ));
    }
    Ok(())
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

    let mut t = Table::new(
        format!(
            "Parallel commit: {} threads, {} runs/thread, {} B/commit, host parallelism {}",
            report.commit.threads,
            report.commit.runs_per_thread,
            report.commit.bytes_per_commit,
            report.commit.host_parallelism
        ),
        &[
            "workers",
            "mean µs",
            "stage µs",
            "seal µs",
            "apply µs",
            "speedup",
        ],
    );
    for r in &report.commit.rows {
        t.push_row(&[
            r.workers.to_string(),
            format!("{:.1}", r.mean_ns / 1e3),
            format!("{:.1}", r.stage_ns_mean / 1e3),
            format!("{:.1}", r.seal_ns_mean / 1e3),
            format!("{:.1}", r.apply_ns_mean / 1e3),
            ratio(r.speedup_vs_serial),
        ]);
    }
    tables.push(t);

    let p = &report.pipeline;
    let mut t = Table::new(
        format!(
            "Pipelined commit: {} batches/burst, adaptive pick {} worker(s), gate {}",
            p.batches,
            p.adaptive_workers,
            if p.gate_enforced {
                "enforced"
            } else {
                "skipped (single-core host)"
            }
        ),
        &["workers", "mean µs", "telemetry burst µs", "speedup"],
    );
    for r in &p.rows {
        t.push_row(&[
            r.workers.to_string(),
            format!("{:.1}", r.mean_ns / 1e3),
            format!("{:.1}", r.burst_ns_mean / 1e3),
            ratio(r.speedup_vs_serial),
        ]);
    }
    t.push_row(&[
        format!("adaptive({})", p.adaptive_workers),
        format!("{:.1}", p.adaptive_mean_ns / 1e3),
        "-".to_string(),
        ratio(p.adaptive_speedup_vs_serial),
    ]);
    tables.push(t);

    let c = &report.checkpoint;
    let mut t = Table::new(
        format!(
            "Checkpoint latency: {} over {} intervals (simulated cycles)",
            c.workload, c.intervals
        ),
        &["timer", "count", "mean", "p50", "p90", "p99", "max"],
    );
    let stat_row = |name: &str, s: &LatencyStats| {
        vec![
            name.to_string(),
            s.count.to_string(),
            format!("{:.0}", s.mean),
            s.p50.to_string(),
            s.p90.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]
    };
    t.push_row(&stat_row("interval", &c.interval_cycles));
    for (phase, s) in &c.phase_cycles {
        t.push_row(&stat_row(&format!("phase.{phase}"), s));
    }
    tables.push(t);

    let mut t = Table::new(
        "End-to-end micro workloads",
        &[
            "workload",
            "intervals",
            "total cycles",
            "ckpt cycles",
            "bytes",
            "wall ms",
        ],
    );
    for r in &report.workloads {
        t.push_row(&[
            r.name.clone(),
            r.intervals.to_string(),
            r.total_cycles.to_string(),
            r.checkpoint_cycles.to_string(),
            r.bytes_copied.to_string(),
            format!("{:.1}", r.wall_ms),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "End-to-end scheduler across process counts",
        &["processes", "switches", "total cycles", "wall ms"],
    );
    for r in &report.scheduler {
        t.push_row(&[
            r.processes.to_string(),
            r.switches.to_string(),
            r.total_cycles.to_string(),
            format!("{:.1}", r.wall_ms),
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

    /// Minimal budgets so the suite stays test-sized.
    fn tiny() -> PerfConfig {
        PerfConfig { quick: true }
    }

    #[test]
    fn quick_suite_produces_valid_report() {
        let report = run_all(&tiny());
        validate(&report).expect("quick report passes the acceptance gate");
        assert_eq!(report.bitmap.len(), 3);
        assert!(report.summary.sparse_stack_speedup >= SPARSE_STACK_GATE);
        assert!(report.summary.max_commit_workers >= 4);
        assert!(report.checkpoint.interval_cycles.count > 0);
        // Phase timers made it into the summary.
        assert_eq!(report.summary.ckpt_phase_mean_cycles.len(), 4);
        assert_eq!(report.summary.commit_phase_mean_ns.len(), 3);
        // The pipelined study ran and its summary fields agree.
        assert!(report.pipeline.rows.iter().any(|r| r.workers >= 4));
        assert_eq!(
            report.summary.pipelined_adaptive_workers,
            report.pipeline.adaptive_workers
        );
        assert!(report.pipeline.adaptive_workers >= 1);
        // The spine study ran: 3 patterns x 3 policies, and the
        // hot-words amplification win made it into the summary.
        assert_eq!(report.spine.latency.len(), 9);
        assert_eq!(report.spine.write_amp.len(), 3);
        assert!(
            report.summary.spine_hot_words_write_amp_milli
                < report.summary.eager_hot_words_write_amp_milli
        );
        assert!(report.host_parallelism >= 1);
        // The report serializes and re-parses.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        assert_eq!(
            v.get("bitmap").and_then(|b| b.as_array()).map(Vec::len),
            Some(3)
        );
    }

    #[test]
    fn render_covers_every_section() {
        let report = run_all(&tiny());
        let tables = render(&report);
        assert_eq!(tables.len(), 8);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} has rows", t.title);
        }
    }

    #[test]
    fn pipeline_gate_skips_on_single_core_and_rejects_losing_picks() {
        let mut report = run_all(&tiny());
        // The flag must track the recording host exactly.
        assert_eq!(
            report.pipeline.gate_enforced,
            report.pipeline.host_parallelism > 1
        );
        // A losing adaptive configuration fails validation on a
        // parallel host and sails through on a single-core one.
        report.pipeline.adaptive_speedup_vs_serial = 0.5;
        report.pipeline.host_parallelism = 4;
        report.pipeline.gate_enforced = true;
        let err = validate(&report).expect_err("losing pick must fail the gate");
        assert!(err.contains("below"), "unexpected gate error: {err}");
        report.pipeline.host_parallelism = 1;
        report.pipeline.gate_enforced = false;
        validate(&report).expect("single-core host skips the speedup gate");
    }

    #[test]
    fn bitmap_patterns_are_sane() {
        let rows = bitmap_section(&tiny());
        let dense = rows.iter().find(|r| r.pattern == "dense").unwrap();
        assert_eq!(dense.dirty_words, WINDOW_WORDS);
        let sparse = rows.iter().find(|r| r.pattern == "sparse-stack").unwrap();
        assert!(sparse.dirty_words < 64);
        assert!(sparse.hier_granules_per_sec > sparse.sparse_granules_per_sec);
    }
}
