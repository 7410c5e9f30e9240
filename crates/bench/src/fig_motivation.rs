//! The motivation experiments: Figures 1–4 (Section II).

use prosper_baselines::logging::{replay_baseline, replay_logging, LoggingScheme};
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_trace::interval::IntervalCollector;
use prosper_trace::workloads::{Workload, WorkloadProfile};
use serde::Serialize;

use crate::report::{ratio, Table};
use crate::scale::{DEFAULT_INTERVALS, FIG2_INTERVALS, INTERVAL_10MS, SEED};

/// One workload's Figure 1 row.
#[derive(Clone, Debug, Serialize)]
pub struct Fig1Row {
    /// Workload name.
    pub workload: String,
    /// Fraction of memory operations (loads + stores) to the stack.
    pub stack_fraction: f64,
    /// Fraction of stores among the stack operations.
    pub stack_write_share: f64,
}

/// Figure 1: fraction of memory operations in the stack region.
pub fn fig1() -> (Vec<Fig1Row>, Table) {
    let mut rows = Vec::new();
    for profile in WorkloadProfile::applications() {
        let name = profile.name.to_string();
        let mut w = Workload::new(profile, SEED);
        let (mut stack_writes, mut stack_reads, mut other) = (0u64, 0u64, 0u64);
        let mut collector = IntervalCollector::new(&mut w, INTERVAL_10MS);
        for _ in 0..DEFAULT_INTERVALS {
            let s = collector.next_interval().stack_stats();
            stack_writes += s.stack_writes;
            stack_reads += s.stack_reads;
            other += s.other_accesses;
        }
        let stack = stack_writes + stack_reads;
        rows.push(Fig1Row {
            workload: name,
            stack_fraction: stack as f64 / (stack + other) as f64,
            stack_write_share: stack_writes as f64 / stack.max(1) as f64,
        });
    }
    let mut table = Table::new(
        "Figure 1: fraction of memory operations to the stack region",
        &["workload", "stack ops", "of which writes"],
    );
    for r in &rows {
        table.push_row(&[
            r.workload.clone(),
            format!("{:.0}%", r.stack_fraction * 100.0),
            format!("{:.0}%", r.stack_write_share * 100.0),
        ]);
    }
    (rows, table)
}

/// One interval's Figure 2 data point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig2Point {
    /// Interval index.
    pub interval: u64,
    /// Stack writes in the interval.
    pub total_writes: u64,
    /// Writes below the interval-final SP.
    pub beyond_final_sp: u64,
}

/// Figure 2: stack writes vs writes beyond the final SP (Ycsb_mem).
pub fn fig2() -> (Vec<Fig2Point>, f64, Table) {
    let w = Workload::new(WorkloadProfile::ycsb_mem(), SEED);
    let mut collector = IntervalCollector::new(w, INTERVAL_10MS);
    let mut points = Vec::new();
    let mut total = 0u64;
    let mut beyond = 0u64;
    for i in 0..FIG2_INTERVALS {
        let iv = collector.next_interval();
        let s = iv.stack_stats();
        total += s.stack_writes;
        beyond += s.writes_beyond_final_sp;
        points.push(Fig2Point {
            interval: i,
            total_writes: s.stack_writes,
            beyond_final_sp: s.writes_beyond_final_sp,
        });
    }
    let fraction = beyond as f64 / total.max(1) as f64;
    let mut table = Table::new(
        format!(
            "Figure 2: Ycsb_mem stack writes beyond the final SP \
             ({} intervals, aggregate {:.0}%)",
            FIG2_INTERVALS,
            fraction * 100.0
        ),
        &["interval", "stack writes", "beyond final SP"],
    );
    // Print every fourth interval to keep the table readable.
    for p in points.iter().step_by(4) {
        table.push_row(&[
            p.interval.to_string(),
            p.total_writes.to_string(),
            p.beyond_final_sp.to_string(),
        ]);
    }
    (points, fraction, table)
}

/// One bar of Figure 3.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: String,
    /// Scheme name (flush/undo/redo).
    pub scheme: String,
    /// Execution time without SP awareness, normalized to the
    /// DRAM-no-persistence baseline.
    pub no_awareness: f64,
    /// Execution time with SP awareness, normalized likewise.
    pub with_awareness: f64,
}

/// Figure 3: benefit of SP awareness for flush/undo/redo.
pub fn fig3() -> (Vec<Fig3Row>, Table) {
    let mut rows = Vec::new();
    for profile in WorkloadProfile::applications() {
        let baseline = {
            let mut machine = Machine::new(MachineConfig::setup_i());
            let w = Workload::new(profile.clone(), SEED);
            replay_baseline(&mut machine, w, INTERVAL_10MS, DEFAULT_INTERVALS) as f64
        };
        for scheme in LoggingScheme::all() {
            let run = |aware: bool| {
                let mut machine = Machine::new(MachineConfig::setup_i());
                let w = Workload::new(profile.clone(), SEED);
                replay_logging(
                    &mut machine,
                    w,
                    scheme,
                    aware,
                    INTERVAL_10MS,
                    DEFAULT_INTERVALS,
                );
                machine.now() as f64
            };
            rows.push(Fig3Row {
                workload: profile.name.to_string(),
                scheme: scheme.name().to_string(),
                no_awareness: run(false) / baseline,
                with_awareness: run(true) / baseline,
            });
        }
    }
    let mut table = Table::new(
        "Figure 3: flush/undo/redo with and without SP awareness \
         (normalized to DRAM, no persistence)",
        &["workload", "scheme", "no SP awareness", "SP awareness"],
    );
    for r in &rows {
        table.push_row(&[
            r.workload.clone(),
            r.scheme.clone(),
            ratio(r.no_awareness),
            ratio(r.with_awareness),
        ]);
    }
    (rows, table)
}

/// One workload's Figure 4 row.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Row {
    /// Workload name.
    pub workload: String,
    /// Mean per-interval copy size at 4 KiB page granularity (bytes).
    pub page_bytes: f64,
    /// Mean per-interval copy size at 8-byte granularity (bytes).
    pub byte_bytes: f64,
}

impl Fig4Row {
    /// The reduction factor (page / byte).
    pub fn reduction(&self) -> f64 {
        self.page_bytes / self.byte_bytes.max(1.0)
    }
}

/// Figure 4: checkpoint copy size — page vs 8-byte dirty tracking.
pub fn fig4() -> (Vec<Fig4Row>, Table) {
    let mut rows = Vec::new();
    for profile in WorkloadProfile::applications() {
        let name = profile.name.to_string();
        let w = Workload::new(profile, SEED);
        let mut collector = IntervalCollector::new(w, INTERVAL_10MS);
        let mut page = 0u64;
        let mut byte = 0u64;
        for _ in 0..DEFAULT_INTERVALS {
            let iv = collector.next_interval();
            page += iv.checkpoint_bytes(4096);
            byte += iv.checkpoint_bytes(8);
        }
        rows.push(Fig4Row {
            workload: name,
            page_bytes: page as f64 / DEFAULT_INTERVALS as f64,
            byte_bytes: byte as f64 / DEFAULT_INTERVALS as f64,
        });
    }
    let mut table = Table::new(
        "Figure 4: per-interval stack checkpoint copy size, \
         page (4 KiB) vs byte (8 B) granularity dirty tracking",
        &[
            "workload",
            "page-granularity",
            "8B-granularity",
            "reduction",
        ],
    );
    for r in &rows {
        table.push_row(&[
            r.workload.clone(),
            crate::report::bytes(r.page_bytes),
            crate::report::bytes(r.byte_bytes),
            ratio(r.reduction()),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper_ordering() {
        let (rows, table) = fig1();
        assert_eq!(rows.len(), 3);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.workload.contains(name))
                .unwrap()
                .stack_fraction
        };
        assert!(get("Gapbs") > 0.55, "Gapbs ~70% in the paper");
        assert!(get("Ycsb") < 0.35, "Ycsb ~15% in the paper");
        assert!(get("Gapbs") > get("G500"));
        assert!(get("G500") > get("Ycsb"));
        assert_eq!(table.rows.len(), 3);
    }

    #[test]
    fn fig2_beyond_fraction_substantial() {
        let (points, fraction, _) = fig2();
        assert_eq!(points.len() as u64, FIG2_INTERVALS);
        assert!(
            fraction > 0.10,
            "paper reports >36% beyond final SP; got {fraction}"
        );
        for p in &points {
            assert!(p.beyond_final_sp <= p.total_writes);
        }
    }

    #[test]
    fn fig3_awareness_always_helps() {
        let (rows, _) = fig3();
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.with_awareness <= r.no_awareness,
                "{} {}: awareness must not hurt",
                r.workload,
                r.scheme
            );
            assert!(
                r.with_awareness > 1.0,
                "{} {}: overhead remains significant even with awareness",
                r.workload,
                r.scheme
            );
        }
    }

    #[test]
    fn fig4_byte_granularity_wins_big() {
        let (rows, _) = fig4();
        for r in &rows {
            assert!(
                r.reduction() > 4.0,
                "{}: page/byte reduction {} (paper: 33x-300x)",
                r.workload,
                r.reduction()
            );
        }
    }
}
