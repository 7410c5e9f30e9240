//! Crash-matrix harness: drives the exhaustive crash-point sweep of
//! [`prosper_core::faultinject`] over a set of workload shapes and
//! aggregates the results for reporting.
//!
//! This is the artifact-style counterpart of the paper's "kill gem5
//! mid-run and check the application resumes" validation: instead of a
//! handful of manual kills, every step boundary of the checkpoint
//! pipeline is enumerated and crashed exactly once, per workload
//! shape. The stall ledgers the sweep's runs carry aggregate into an
//! attribution archive.

use std::collections::BTreeMap;

use prosper_core::faultinject::{run_crash_matrix, CrashMatrixConfig, CrashMatrixReport};
use prosper_core::SpineConfig;
use prosper_gemos::crash::CrashSite;
use serde::{Deserialize, Serialize};

/// One suite entry: a labelled workload shape and its sweep result.
#[derive(Debug)]
pub struct MatrixRow {
    /// Human-readable shape label (e.g. `2t x 3iv`).
    pub label: String,
    /// The workload shape that was swept.
    pub cfg: CrashMatrixConfig,
    /// The sweep result.
    pub report: CrashMatrixReport,
}

/// Coverage of one crash-site kind within a sweep.
#[derive(Debug)]
pub struct KindCoverage {
    /// The site kind (the variant name, without per-site parameters).
    pub kind: &'static str,
    /// Crash points of this kind that were exercised.
    pub exercised: u64,
    /// Of those, how many failed verification.
    pub failed: u64,
}

/// The crash-site kind: variant name without the per-site parameters,
/// for coverage reporting.
pub fn site_kind(site: &CrashSite) -> &'static str {
    match site {
        CrashSite::PreStage => "pre-stage",
        CrashSite::MidStage { .. } => "mid-stage",
        CrashSite::PreSeal => "pre-seal",
        CrashSite::PostSeal => "post-seal",
        CrashSite::MidApply { .. } => "mid-apply",
        CrashSite::PostApplyThread { .. } => "post-apply-thread",
        CrashSite::PostApplyPreRegisters => "post-apply-pre-registers",
        CrashSite::MidRegisterApply { .. } => "mid-register-apply",
        CrashSite::PostCommit => "post-commit",
        CrashSite::MidBitmapClear { .. } => "mid-bitmap-clear",
        CrashSite::MidSwitchSave => "mid-switch-save",
        CrashSite::MidSwitchRestore => "mid-switch-restore",
        CrashSite::BatchSeal { .. } => "batch-seal",
        CrashSite::MidMerge { .. } => "mid-merge",
        CrashSite::MergeRetire { .. } => "merge-retire",
    }
}

/// Per-kind coverage of one sweep, in taxonomy order.
pub fn kind_coverage(report: &CrashMatrixReport) -> Vec<KindCoverage> {
    let order = [
        "pre-stage",
        "mid-stage",
        "pre-seal",
        "post-seal",
        "mid-apply",
        "post-apply-thread",
        "post-apply-pre-registers",
        "mid-register-apply",
        "post-commit",
        "mid-bitmap-clear",
        "mid-switch-save",
        "mid-switch-restore",
        "batch-seal",
        "mid-merge",
        "merge-retire",
    ];
    order
        .iter()
        .map(|kind| KindCoverage {
            kind,
            exercised: report
                .sites
                .iter()
                .filter(|s| site_kind(s) == *kind)
                .count() as u64,
            failed: report
                .failures
                .iter()
                .filter(|f| site_kind(&f.site) == *kind)
                .count() as u64,
        })
        .collect()
}

/// The workload shapes the default sweep covers: single-thread,
/// multi-thread, and a longer multi-interval run.
pub fn default_suite() -> Vec<(&'static str, CrashMatrixConfig)> {
    vec![
        (
            "1 thread x 2 intervals",
            CrashMatrixConfig {
                threads: 1,
                intervals: 2,
                stores_per_interval: 8,
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 12,
                ..Default::default()
            },
        ),
        (
            "3 threads x 2 intervals",
            CrashMatrixConfig {
                threads: 3,
                intervals: 2,
                stores_per_interval: 10,
                seed: 0xC0FF_EE00,
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals + spine merge-always",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 10,
                spine: Some(SpineConfig::merge_always()),
                ..Default::default()
            },
        ),
        (
            "2 threads x 3 intervals + lazy spine",
            CrashMatrixConfig {
                threads: 2,
                intervals: 3,
                stores_per_interval: 8,
                spine: Some(SpineConfig::lazy(64)),
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 8,
                ..Default::default()
            },
        ),
    ]
}

/// A reduced suite for quick smoke runs (CI micro workloads).
pub fn quick_suite() -> Vec<(&'static str, CrashMatrixConfig)> {
    vec![
        (
            "1 thread x 2 intervals",
            CrashMatrixConfig {
                threads: 1,
                intervals: 2,
                stores_per_interval: 5,
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 6,
                ..Default::default()
            },
        ),
        (
            "2 threads x 2 intervals + spine merge-always",
            CrashMatrixConfig {
                threads: 2,
                intervals: 2,
                stores_per_interval: 5,
                spine: Some(SpineConfig::merge_always()),
                ..Default::default()
            },
        ),
        (
            "1 thread x 1 interval",
            CrashMatrixConfig {
                threads: 1,
                intervals: 1,
                stores_per_interval: 4,
                ..Default::default()
            },
        ),
    ]
}

/// Runs every shape of `suite` through the exhaustive sweep.
pub fn run_suite(suite: &[(&'static str, CrashMatrixConfig)]) -> Vec<MatrixRow> {
    suite
        .iter()
        .map(|(label, cfg)| MatrixRow {
            label: (*label).to_string(),
            cfg: *cfg,
            report: run_crash_matrix(cfg),
        })
        .collect()
}

/// Schema tag of the crash-matrix attribution archive.
pub const MATRIX_ATTR_SCHEMA: &str = "prosper-crashmatrix-attribution/v1";

/// Attribution aggregate of one workload shape's full sweep: the stall
/// ledgers of its crash points.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatrixAttributionRow {
    /// The shape label.
    pub label: String,
    /// Crash points swept (and conservation-verified) for this shape.
    pub points: u64,
    /// Total stall ns per cause, summed across all points' ledgers.
    pub by_cause: BTreeMap<String, u64>,
    /// Total attributed stall ns across all points.
    pub stall_ns: u64,
    /// Total simulated wall ns across all points' runs.
    pub wall_ns: u64,
}

/// Attribution archive of a full matrix sweep, written by the
/// `crash_matrix` binary's `--telemetry-snapshot` flag.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatrixAttribution {
    /// Always [`MATRIX_ATTR_SCHEMA`].
    pub schema: String,
    /// One row per workload shape, in suite order.
    pub rows: Vec<MatrixAttributionRow>,
}

/// Aggregates the cause-tagged stall ledgers of every survived crash
/// point of `rows` into an archive. The sweep's runner verified each
/// ledger's conservation — torn commits and recovery replays included
/// — and failed any point whose ledger does not tile.
///
/// Deterministic: equal suites produce byte-identical archives.
#[must_use]
pub fn matrix_attribution(rows: &[MatrixRow]) -> MatrixAttribution {
    let rows = rows
        .iter()
        .map(|matrix_row| {
            let mut row = MatrixAttributionRow {
                label: matrix_row.label.clone(),
                ..Default::default()
            };
            for run in &matrix_row.report.ledgers {
                for (_, totals) in run.snapshot.per_thread() {
                    for (cause, ns) in &totals.by_cause {
                        *row.by_cause.entry(cause.clone()).or_insert(0) += ns;
                    }
                    row.stall_ns += totals.window_ns;
                }
                row.wall_ns += run.total_cycles;
                row.points += 1;
            }
            row
        })
        .collect();
    MatrixAttribution {
        schema: MATRIX_ATTR_SCHEMA.to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosper_core::faultinject::enumerate_crash_sites;

    #[test]
    fn attributed_sweep_conserves_and_is_deterministic() {
        let suite = [(
            "tiny",
            CrashMatrixConfig {
                threads: 1,
                intervals: 1,
                stores_per_interval: 4,
                ..Default::default()
            },
        )];
        let sweep = || {
            let rows = run_suite(&suite);
            assert!(
                rows[0].report.all_survived(),
                "sweep conserves: {:?}",
                rows[0].report.failures.first()
            );
            matrix_attribution(&rows)
        };
        let a = sweep();
        let b = sweep();
        assert_eq!(a, b);
        assert_eq!(a.schema, MATRIX_ATTR_SCHEMA);
        let row = &a.rows[0];
        assert!(row.points > 0);
        assert_eq!(row.stall_ns, row.by_cause.values().sum::<u64>());
        assert!(
            row.by_cause.contains_key("recovery"),
            "post-seal crash points attribute recovery: {:?}",
            row.by_cause
        );
        assert!(row.stall_ns <= row.wall_ns);
    }

    #[test]
    fn quick_suite_survives_everything() {
        for row in &run_suite(&quick_suite()) {
            assert!(
                row.report.all_survived(),
                "{}: {:?}",
                row.label,
                row.report.failures.first()
            );
        }
    }

    #[test]
    fn kind_coverage_spans_the_taxonomy() {
        // The spine schedule is the only one that crosses
        // batch-seal/mid-merge/merge-retire, the eager schedule the
        // only one with an apply copy. Together the two shapes cover
        // the whole taxonomy.
        let eager_cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 2,
            stores_per_interval: 6,
            ..Default::default()
        };
        let spine_cfg = CrashMatrixConfig {
            threads: 2,
            intervals: 2,
            stores_per_interval: 6,
            spine: Some(SpineConfig::merge_always()),
            ..Default::default()
        };
        let eager_cov = kind_coverage(&run_crash_matrix(&eager_cfg));
        let spine_cov = kind_coverage(&run_crash_matrix(&spine_cfg));
        assert_eq!(eager_cov.len(), 15, "one row per site kind");
        assert_eq!(spine_cov.len(), 15, "one row per site kind");
        for (e, s) in eager_cov.iter().zip(&spine_cov) {
            assert!(
                e.exercised + s.exercised > 0,
                "kind {} never exercised by either schedule",
                e.kind
            );
            assert_eq!(e.failed + s.failed, 0, "kind {} has failures", e.kind);
        }
        let exercised = |cov: &[KindCoverage], kind: &str| {
            cov.iter().find(|k| k.kind == kind).unwrap().exercised
        };
        // Schedule exclusivity: the apply copy exists only on the
        // eager schedule, the spine sites only on the spine schedule.
        assert_eq!(exercised(&spine_cov, "mid-apply"), 0);
        assert_eq!(exercised(&eager_cov, "batch-seal"), 0);
        assert!(exercised(&spine_cov, "batch-seal") > 0);
        assert!(exercised(&spine_cov, "mid-merge") > 0);
        assert!(exercised(&spine_cov, "merge-retire") > 0);
    }

    /// Every quick-suite shape enumerates exactly the boundaries its
    /// schedule crosses; a count change means the commit protocol or
    /// the driven workload changed shape.
    #[test]
    fn quick_suite_shape_sizes_are_pinned() {
        let sizes: Vec<usize> = quick_suite()
            .iter()
            .map(|(_, cfg)| enumerate_crash_sites(cfg).sites.len())
            .collect();
        assert_eq!(sizes, [43, 85, 63, 19]);
    }
}
