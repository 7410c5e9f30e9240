//! # prosper-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! the paper's evaluation. Each `fig*` binary in `src/bin/` calls into
//! the corresponding module here and prints the same rows/series the
//! paper reports; `all_figures` runs the full set and emits the JSON
//! consumed by EXPERIMENTS.md.
//!
//! ## Scaling
//!
//! The paper simulates 10 ms consistency intervals (30 M cycles at
//! 3 GHz) and, for the tracking-overhead study, 6000 of them. A
//! cycle-accounting model in a test harness cannot afford 180 G cycles
//! per configuration, so every experiment here scales the interval to
//! [`scale::INTERVAL_10MS`] budget cycles and runs
//! [`scale::DEFAULT_INTERVALS`] intervals. All reported quantities are
//! either normalized (execution-time ratios) or per-interval averages,
//! so the scaling preserves the comparisons the paper makes; absolute
//! checkpoint sizes shrink with the interval and are reported as
//! measured. See EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]
// The bench harness measures host wall-clock time by design; the
// determinism contract (clippy.toml disallowed-methods, PA-DET005)
// applies to simulator crates, not to the thing doing the measuring.
#![allow(clippy::disallowed_methods)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod crash_matrix;
pub mod endurance;
pub mod fig_micro;
pub mod fig_motivation;
pub mod fig_overhead;
pub mod fig_performance;
pub mod misc;
pub mod multicore_study;
pub mod obs;
pub mod perf;
pub mod report;
pub mod scale;
pub mod trace_capture;
pub mod verify;
