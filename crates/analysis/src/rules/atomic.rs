//! `PA-ATOMIC007` — atomic-ordering discipline.
//!
//! The commit protocol's correctness argument (the `interleave` model
//! and DESIGN.md §10) rests on its sync edges: staged bytes are
//! ordered before the seal that makes them the commit point, and a
//! stage or apply pass is visible to the seal or retire that follows
//! it. `prosper-interleave` explores those edges as release/acquire
//! pairs, so a weakened ordering in protocol code deletes an edge the
//! model assumes — precisely the class of defect that never shows up
//! in testing and always shows up in a crash dump. `Ordering::Relaxed`
//! in protocol code is therefore a bug until justified. The commit
//! engine itself runs on one thread and holds no atomic; the rule
//! guards whatever protocol code adds one.
//!
//! The second half of the discipline is counter updates: a raw
//! `fetch_sub` on a shared counter underflows past zero when two
//! decrements race for its last unit. Decrements go through a checked
//! `fetch_update`-based helper (such as `try_dec`), which refuses to
//! go below zero.
//!
//! Telemetry counters are exempt by path prefix
//! ([`LintConfig::atomic_exempt_prefixes`]): observability counters
//! are monotonic, racy-by-design, and never published as protocol
//! state. Anything else needs a justified
//! `// lint:allow(PA-ATOMIC007): reason` marker.

use super::{LintConfig, Rule};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// See module docs.
#[derive(Debug)]
pub struct AtomicDiscipline;

impl Rule for AtomicDiscipline {
    fn id(&self) -> &'static str {
        "PA-ATOMIC007"
    }

    fn summary(&self) -> &'static str {
        "no Relaxed atomics or raw fetch_sub in protocol code; counters go through checked helpers"
    }

    fn check(&self, files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in files {
            if cfg
                .atomic_exempt_prefixes
                .iter()
                .any(|p| file.path.starts_with(p.as_str()))
            {
                continue;
            }
            for off in file.code_token_matches("Ordering::Relaxed") {
                let line = file.line_of(off);
                out.push(
                    Diagnostic::new(
                        self.id(),
                        &file.path,
                        line,
                        "`Ordering::Relaxed` in protocol code; publication stores \
                         need Release and counter RMWs need AcqRel so the model \
                         checker's sync edges match the binary's",
                        file.line_text(line),
                    )
                    .with_offset(off, file.col_of(off)),
                );
            }
            for off in file.code_matches(".fetch_sub(") {
                let line = file.line_of(off);
                out.push(
                    Diagnostic::new(
                        self.id(),
                        &file.path,
                        line,
                        "raw `fetch_sub` on a shared counter can underflow under a \
                         racing free; decrement through the checked fetch_update \
                         helper (`try_dec`) instead",
                        file.line_text(line),
                    )
                    .with_offset(off, file.col_of(off)),
                );
            }
        }
        out
    }
}
