//! The lint rule catalogue.
//!
//! | ID | Enforces |
//! |----|----------|
//! | `PA-NVM001` | durable-write discipline: staging/NVM mutation only via `persist.rs`/`recovery.rs` |
//! | `PA-CRASH002` | `CrashSite` exhaustiveness: every variant has an injection point and a crash-matrix reference |
//! | `PA-TEL003` | telemetry-name hygiene: literals are registered, well-formed, kind-correct, unique |
//! | `PA-PANIC004` | no `panic!`/`unwrap`/`expect` in recovery/redo/apply/restore paths |
//! | `PA-DET005` | no wall-clock or ambient randomness in deterministic simulator crates |
//! | `PA-UNSAFE006` | every crate root carries `#![forbid(unsafe_code)]` and no `unsafe` token appears |
//! | `PA-ATOMIC007` | atomic-ordering discipline: no `Ordering::Relaxed` or raw `fetch_sub` in protocol code |
//!
//! Suppression: `// lint:allow(RULE-ID): reason` on the finding's line
//! or the line above. A marker without a reason is itself reported
//! (`PA-META000`).

mod atomic;
mod crashsite;
mod determinism;
mod nvm;
mod panic_free;
mod telemetry_names;
mod unsafe_code;

use crate::diag::{Diagnostic, LintReport, RuleInfo};
use crate::source::SourceFile;

/// Paths and prefixes a rule run is parameterised by, so fixture
/// corpora can model miniature workspaces with the same defaults the
/// real workspace uses.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Files allowed to call raw staging/NVM mutation APIs.
    pub staging_allowlist: Vec<String>,
    /// The file that declares the crash-site enum.
    pub crash_enum_file: String,
    /// Name of the crash-site enum.
    pub crash_enum_name: String,
    /// Files where deterministic injection points may live.
    pub injection_files: Vec<String>,
    /// Files that must reference every crash site (the crash matrix).
    pub matrix_files: Vec<String>,
    /// Path prefixes of crates that must stay deterministic.
    pub sim_path_prefixes: Vec<String>,
    /// Path prefixes exempt from telemetry-literal checks (the
    /// registry itself).
    pub telemetry_exempt_prefixes: Vec<String>,
    /// Function-name prefixes that mark recovery/redo paths.
    pub recovery_fn_prefixes: Vec<String>,
    /// Path prefixes exempt from atomic-ordering discipline
    /// (`PA-ATOMIC007`): racy-by-design observability counters.
    pub atomic_exempt_prefixes: Vec<String>,
}

impl LintConfig {
    /// The configuration for the real Prosper workspace.
    #[must_use]
    pub fn workspace_default() -> Self {
        Self {
            staging_allowlist: vec![
                "crates/core/src/persist.rs".into(),
                "crates/core/src/recovery.rs".into(),
            ],
            crash_enum_file: "crates/gemos/src/crash.rs".into(),
            crash_enum_name: "CrashSite".into(),
            injection_files: vec![
                "crates/core/src/recovery.rs".into(),
                "crates/core/src/multithread.rs".into(),
                "crates/core/src/faultinject.rs".into(),
                "crates/core/src/oscomp.rs".into(),
            ],
            matrix_files: vec!["crates/bench/src/crash_matrix.rs".into()],
            sim_path_prefixes: vec![
                "crates/core/".into(),
                "crates/gemos/".into(),
                "crates/memsim/".into(),
                "crates/trace/".into(),
                "crates/baselines/".into(),
            ],
            telemetry_exempt_prefixes: vec!["crates/telemetry/".into()],
            recovery_fn_prefixes: vec![
                "recover".into(),
                "redo".into(),
                "apply_record".into(),
                "apply_pending".into(),
                "restore".into(),
            ],
            atomic_exempt_prefixes: vec!["crates/telemetry/".into()],
        }
    }
}

/// A lint rule: an id, a one-line summary, and a checker over the
/// scanned workspace.
pub trait Rule {
    /// Stable identifier, e.g. `PA-NVM001`.
    fn id(&self) -> &'static str;
    /// One-line description for the report header.
    fn summary(&self) -> &'static str;
    /// Runs the rule over every scanned file.
    fn check(&self, files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic>;
}

impl std::fmt::Debug for dyn Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rule({})", self.id())
    }
}

/// Every rule, in catalogue order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(nvm::DurableWriteDiscipline),
        Box::new(crashsite::CrashSiteExhaustiveness),
        Box::new(telemetry_names::TelemetryNameHygiene),
        Box::new(panic_free::PanicFreeRecovery),
        Box::new(determinism::DeterministicSim),
        Box::new(unsafe_code::ForbidUnsafe),
        Box::new(atomic::AtomicDiscipline),
    ]
}

/// The crash-site variants the `PA-CRASH002` parser sees in this
/// workspace, in declaration order — exposed so tests can cross-check
/// the textual parse against the compiled enum's `VARIANT_NAMES`.
#[must_use]
pub fn crash_variant_names(files: &[SourceFile], cfg: &LintConfig) -> Vec<String> {
    files
        .iter()
        .find(|f| f.path == cfg.crash_enum_file)
        .map(|f| {
            crashsite::parse_enum_variants(f, &cfg.crash_enum_name)
                .into_iter()
                .map(|(name, _)| name)
                .collect()
        })
        .unwrap_or_default()
}

/// Runs every rule, applies suppression markers, and reports
/// malformed markers under `PA-META000`.
#[must_use]
pub fn run(files: &[SourceFile], cfg: &LintConfig) -> LintReport {
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for rule in all_rules() {
        let mut diags = rule.check(files, cfg);
        for d in &mut diags {
            if let Some(f) = files.iter().find(|f| f.path == d.file) {
                if let Some(s) = f.suppression_for(&d.rule, d.line) {
                    d.suppressed = true;
                    d.justification = Some(s.reason.clone());
                }
            }
        }
        report.rules.push(RuleInfo {
            id: rule.id().to_owned(),
            summary: rule.summary().to_owned(),
            findings: diags.len(),
        });
        report.diagnostics.extend(diags);
    }
    // Malformed suppression markers: a marker that names a rule but
    // carries no justification is noise that silently rots; flag it.
    let mut meta = 0;
    for f in files {
        for s in &f.suppressions {
            if s.reason.is_empty() {
                report.diagnostics.push(Diagnostic::new(
                    "PA-META000",
                    &f.path,
                    s.line,
                    format!(
                        "suppression marker for {} has no justification; write \
                         `// lint:allow({}): reason`",
                        s.rule, s.rule
                    ),
                    f.line_text(s.line),
                ));
                meta += 1;
            }
        }
    }
    report.rules.push(RuleInfo {
        id: "PA-META000".into(),
        summary: "suppression markers must carry a justification".into(),
        findings: meta,
    });
    report
}
