//! Fixture-driven tests for every lint rule: each rule has a
//! must-pass and a must-fail corpus under `fixtures/<RULE>/`.
//!
//! Fixture files encode workspace-relative paths in their names with
//! `__` standing for `/`, so one flat directory can model a miniature
//! multi-crate workspace.

use prosper_analysis::rules::{self, LintConfig};
use prosper_analysis::source::SourceFile;
use std::path::Path;

/// Loads every fixture in `fixtures/<group>/<sub>/` as scanned
/// sources with decoded paths.
fn load(group: &str, sub: &str) -> Vec<SourceFile> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(group)
        .join(sub);
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing fixture dir {}: {e}", dir.display()))
        .flatten()
        .collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    entries
        .iter()
        .map(|entry| {
            let raw = std::fs::read_to_string(entry.path()).expect("fixture readable");
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = name.trim_end_matches(".rs").replace("__", "/");
            SourceFile::parse(&format!("{path}.rs"), &raw)
        })
        .collect()
}

/// Runs the full rule set and returns unsuppressed findings of one
/// rule.
fn findings(rule: &str, files: &[SourceFile]) -> Vec<String> {
    rules::run(files, &LintConfig::workspace_default())
        .unsuppressed()
        .filter(|d| d.rule == rule)
        .map(|d| format!("{d}"))
        .collect()
}

fn assert_rule(rule: &str, min_fail_findings: usize) {
    let pass = load(rule, "pass");
    let fail = load(rule, "fail");
    assert!(
        findings(rule, &pass).is_empty(),
        "{rule}: must-pass fixtures produced findings: {:?}",
        findings(rule, &pass)
    );
    let got = findings(rule, &fail);
    assert!(
        got.len() >= min_fail_findings,
        "{rule}: expected at least {min_fail_findings} finding(s) from must-fail \
         fixtures, got {got:?}"
    );
}

#[test]
fn nvm001_durable_write_discipline() {
    // The rogue file calls begin_stage, begin_stage_at, stage_run and
    // seal_to_spine, and pokes `sealed` directly.
    assert_rule("PA-NVM001", 5);
}

#[test]
fn crash002_exhaustiveness() {
    // `MidApply`, the pipelined overlap's `MidPipelineStage`, and the
    // spine's `MidMerge` are each missing both an injection point and
    // a matrix ref; the covered spine sites (`BatchSeal`,
    // `MergeRetire`) and `MidSwitchSave`, injected from a second
    // injection file, must not be flagged.
    assert_rule("PA-CRASH002", 6);
    let fail = load("PA-CRASH002", "fail");
    let got = findings("PA-CRASH002", &fail);
    assert!(
        got.iter().all(|m| m.contains("MidApply")
            || m.contains("MidPipelineStage")
            || m.contains("MidMerge")),
        "only the uncovered variants should be flagged: {got:?}"
    );
    for uncovered in ["MidApply", "MidPipelineStage", "MidMerge"] {
        assert_eq!(
            got.iter().filter(|m| m.contains(uncovered)).count(),
            2,
            "{uncovered} should be flagged once per coverage surface: {got:?}"
        );
    }
}

#[test]
fn tel003_name_hygiene() {
    // Typo + kind mismatch + ill-formed name, plus the
    // crash-matrix/tracker misuse corpus (typo, two kind mismatches,
    // one unregistered name) and the spine/write-amp misuse corpus
    // (typo, kind mismatch, unregistered phase counter).
    assert_rule("PA-TEL003", 10);
}

#[test]
fn panic004_recovery_paths() {
    // unwrap + expect + panic! inside recovery-surface functions; the
    // pass corpus has unwraps in non-recovery fns and in cfg(test).
    assert_rule("PA-PANIC004", 3);
}

#[test]
fn det005_determinism() {
    // Instant::now + thread_rng in a simulator crate; the pass corpus
    // uses Stopwatch there and Instant::now in the exempt bench crate.
    assert_rule("PA-DET005", 2);
}

#[test]
fn unsafe006_forbid_unsafe() {
    // Missing attribute + an unsafe block.
    assert_rule("PA-UNSAFE006", 2);
}

#[test]
fn atomic007_ordering_discipline() {
    // A Relaxed publication fetch_or, a raw fetch_sub, and a Relaxed
    // durable-flag store; the pass corpus holds the exempt telemetry
    // counter, the sanctioned fetch_update/AcqRel shapes, and a
    // justified suppression.
    assert_rule("PA-ATOMIC007", 3);
}

#[test]
fn atomic007_findings_carry_offsets() {
    let fail = load("PA-ATOMIC007", "fail");
    let report = rules::run(&fail, &LintConfig::workspace_default());
    for d in report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "PA-ATOMIC007")
    {
        let (off, col) = (
            d.offset.expect("token rules attach byte offsets"),
            d.col.expect("token rules attach columns"),
        );
        // The offset really points at the finding in the fixture.
        let f = fail.iter().find(|f| f.path == d.file).unwrap();
        assert_eq!(f.line_of(off), d.line);
        assert_eq!(f.col_of(off), col);
        let at = &f.raw[off..];
        assert!(
            at.starts_with("Ordering::Relaxed") || at.starts_with(".fetch_sub("),
            "offset {off} does not point at a banned token: {:?}",
            &at[..at.len().min(24)]
        );
    }
}

#[test]
fn justified_suppression_downgrades_finding() {
    let files = load("suppression", "pass");
    let report = rules::run(&files, &LintConfig::workspace_default());
    assert_eq!(
        report.failure_count(),
        0,
        "justified suppression must not fail"
    );
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PA-DET005")
        .expect("the finding is still reported");
    assert!(d.suppressed);
    assert!(d.justification.as_deref().is_some_and(|j| !j.is_empty()));
}

#[test]
fn bare_suppression_marker_is_rejected() {
    let files = load("suppression", "fail");
    let report = rules::run(&files, &LintConfig::workspace_default());
    // The original finding still fails the build…
    assert!(report
        .unsuppressed()
        .any(|d| d.rule == "PA-DET005" && !d.suppressed));
    // …and the reasonless marker is flagged on top.
    assert!(report.unsuppressed().any(|d| d.rule == "PA-META000"));
}

#[test]
fn json_report_is_machine_readable() {
    let files = load("PA-TEL003", "fail");
    let report = rules::run(&files, &LintConfig::workspace_default());
    let json = report.to_json();
    assert!(json.contains("\"rule\":\"PA-TEL003\""));
    assert!(json.contains("\"failures\":"));
}
