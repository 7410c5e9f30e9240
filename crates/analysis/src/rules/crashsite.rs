//! `PA-CRASH002` — crash-site exhaustiveness.
//!
//! The deterministic fault injector is only as good as its coverage:
//! a `CrashSite` variant that exists in the enum but is never
//! injected (no `FaultInjector::cross` site references it) or
//! never exercised by the crash matrix is a crash point the test
//! suite silently does not test. This rule parses the enum from
//! source and demands, for every variant, at least one reference in
//! an injection file and at least one in a crash-matrix file.

use super::{LintConfig, Rule};
use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// See module docs.
#[derive(Debug)]
pub struct CrashSiteExhaustiveness;

/// Parses the variants of `enum <name>` from a scanned file, in
/// declaration order. Returns `(variant, line)` pairs.
#[must_use]
pub fn parse_enum_variants(file: &SourceFile, name: &str) -> Vec<(String, usize)> {
    let needle = format!("enum {name}");
    let Some(pos) = file
        .code_token_matches(&needle)
        .into_iter()
        .next()
        .or_else(|| file.masked.find(&needle))
    else {
        return Vec::new();
    };
    let bytes = file.masked.as_bytes();
    let Some(open) = file.masked[pos..].find('{').map(|i| pos + i) else {
        return Vec::new();
    };
    // Split the body at depth-1 commas; the first identifier of each
    // chunk that is not an attribute is the variant name.
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut chunk_start = open + 1;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    push_variant(file, chunk_start, i, &mut variants);
                    break;
                }
            }
            b',' if depth == 1 => {
                push_variant(file, chunk_start, i, &mut variants);
                chunk_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

fn push_variant(file: &SourceFile, start: usize, end: usize, out: &mut Vec<(String, usize)>) {
    let bytes = file.masked.as_bytes();
    let mut i = start;
    while i < end {
        // Skip attributes like #[non_exhaustive] on the variant.
        if bytes[i] == b'#' {
            while i < end && bytes[i] != b']' {
                i += 1;
            }
            i += 1;
            continue;
        }
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let name_start = i;
            while i < end && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((
                file.masked[name_start..i].to_owned(),
                file.line_of(name_start),
            ));
            return;
        }
        i += 1;
    }
}

impl Rule for CrashSiteExhaustiveness {
    fn id(&self) -> &'static str {
        "PA-CRASH002"
    }

    fn summary(&self) -> &'static str {
        "every CrashSite variant needs an injection point and a crash-matrix reference"
    }

    fn check(&self, files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic> {
        let Some(enum_file) = files.iter().find(|f| f.path == cfg.crash_enum_file) else {
            // The enum file is simply absent from this (fixture)
            // workspace: nothing to check.
            return Vec::new();
        };
        let variants = parse_enum_variants(enum_file, &cfg.crash_enum_name);
        let mut out = Vec::new();
        if variants.is_empty() {
            out.push(Diagnostic::new(
                self.id(),
                &enum_file.path,
                1,
                format!(
                    "could not parse any variants of enum {} — the exhaustiveness \
                     check is blind",
                    cfg.crash_enum_name
                ),
                "",
            ));
            return out;
        }
        for (variant, line) in &variants {
            let token = format!("{}::{}", cfg.crash_enum_name, variant);
            let referenced = |paths: &[String]| {
                files
                    .iter()
                    .filter(|f| paths.iter().any(|p| &f.path == p))
                    .any(|f| !f.code_token_matches(&token).is_empty())
            };
            if !referenced(&cfg.injection_files) {
                out.push(Diagnostic::new(
                    self.id(),
                    &enum_file.path,
                    *line,
                    format!(
                        "crash site {token} has no injection point in {}",
                        cfg.injection_files.join(", ")
                    ),
                    enum_file.line_text(*line),
                ));
            }
            if !referenced(&cfg.matrix_files) {
                out.push(Diagnostic::new(
                    self.id(),
                    &enum_file.path,
                    *line,
                    format!(
                        "crash site {token} is never exercised by the crash matrix ({})",
                        cfg.matrix_files.join(", ")
                    ),
                    enum_file.line_text(*line),
                ));
            }
        }
        out
    }
}
