//! `PA-NVM001` — durable-write discipline.
//!
//! The persistence model only holds if every mutation of NVM-resident
//! state flows through the staging pipeline in
//! `crates/core/src/persist.rs` (and its orchestrator,
//! `recovery.rs`): stage into the staging buffer, seal the commit
//! record, apply idempotently. A raw `stage_run`/`apply_run` call
//! from anywhere else can write NVM outside a sealed record and break
//! crash consistency in a way no test will see until the wrong crash
//! point is hit. Outside `prosper-core` the compiler already refuses
//! these calls (the stack's mutators are `pub(crate)`); the rule
//! keeps the crate's other modules off them, and flags the retired
//! per-stack calls should one come back.

use super::{LintConfig, Rule};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Method-call tokens that mutate staging or NVM state directly.
const STAGING_TOKENS: &[&str] = &[
    ".begin_stage(",
    ".begin_stage_at(",
    ".stage_run(",
    ".stage_partial(",
    ".seal(",
    ".apply_run(",
    ".finish_apply(",
    ".discard_staging(",
    ".seal_to_spine(",
    ".sealed = ",
];

/// See module docs.
#[derive(Debug)]
pub struct DurableWriteDiscipline;

impl Rule for DurableWriteDiscipline {
    fn id(&self) -> &'static str {
        "PA-NVM001"
    }

    fn summary(&self) -> &'static str {
        "staging/NVM mutation APIs may only be called from the persistence layer"
    }

    fn check(&self, files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in files {
            if cfg.staging_allowlist.iter().any(|a| &file.path == a) {
                continue;
            }
            for tok in STAGING_TOKENS {
                for off in file.code_matches(tok) {
                    let line = file.line_of(off);
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            &file.path,
                            line,
                            format!(
                                "`{}` mutates staging/NVM state; only {} may do that \
                                 — route this through the commit pipeline",
                                tok.trim_matches(|c| c == '.' || c == '(' || c == ' '),
                                cfg.staging_allowlist.join(", "),
                            ),
                            file.line_text(line),
                        )
                        .with_offset(off, file.col_of(off)),
                    );
                }
            }
        }
        out
    }
}
