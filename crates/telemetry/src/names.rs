//! The registered telemetry namespace.
//!
//! Every metric and span name the workspace emits outside test code is
//! declared here, once, with its instrument kind. The catalogue is the
//! ground truth for the `PA-TEL003` lint rule in `prosper-analysis`:
//! a string literal passed to `counter`/`gauge`/`histogram`/
//! `span_begin` that is not registered here — or is registered under a
//! different kind — fails the workspace lint. That makes typos
//! (`prosper.spine.merge` vs `prosper.spine.merges`) and
//! kind collisions (one name used as both counter and histogram)
//! compile-adjacent errors instead of silently forked time series.
//!
//! Naming rules, enforced by this module's tests and re-checked by the
//! linter:
//!
//! * names are lowercase `[a-z0-9_.]`, dot-separated segments;
//! * every name lives under the `prosper.` namespace;
//! * a name is globally unique — it appears once, with one kind
//!   (spans and metrics share the one namespace).
//!
//! Span names form the checkpoint *phase taxonomy*: the same phase
//! name (for example [`SPAN_CKPT_SCAN`]) is deliberately emitted by
//! several mechanisms — the span's category label tells them apart —
//! so sharing a span name across call sites is allowed; inventing an
//! unregistered one is not.

/// What kind of instrument a registered name belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstrumentKind {
    /// Monotonic counter ([`crate::metrics::Counter`]).
    Counter,
    /// Point-in-time gauge ([`crate::metrics::Gauge`]).
    Gauge,
    /// Log-linear histogram ([`crate::metrics::Histogram`]).
    Histogram,
    /// Span name used with [`crate::span_begin`]/[`crate::span_end`].
    Span,
}

impl std::fmt::Display for InstrumentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
            InstrumentKind::Span => "span",
        })
    }
}

/// Checkpoint-phase span: tracker quiescence handshake.
pub const SPAN_CKPT_QUIESCE: &str = "prosper.ckpt.quiesce";
/// Checkpoint-phase span: dirty-metadata scan (bitmap inspection).
pub const SPAN_CKPT_SCAN: &str = "prosper.ckpt.scan";
/// Checkpoint-phase span: dirty-bitmap clear stores.
pub const SPAN_CKPT_CLEAR: &str = "prosper.ckpt.clear";
/// Checkpoint-phase span: dirty-byte copy into the staging buffer.
pub const SPAN_CKPT_COPY: &str = "prosper.ckpt.copy";
/// Checkpoint-phase span: staged runs applied to the persistent image.
pub const SPAN_CKPT_APPLY: &str = "prosper.ckpt.apply";
/// Whole checkpoint interval (outermost span).
pub const SPAN_CKPT_INTERVAL: &str = "prosper.ckpt.interval";
/// Stack-mechanism commit inside an interval.
pub const SPAN_CKPT_COMMIT_STACK: &str = "prosper.ckpt.commit.stack";
/// Heap-mechanism commit inside an interval.
pub const SPAN_CKPT_COMMIT_HEAP: &str = "prosper.ckpt.commit.heap";
/// Register-file checkpoint inside an interval.
pub const SPAN_CKPT_REGISTERS: &str = "prosper.ckpt.registers";

/// Every registered name with its kind, sorted by name: the metrics
/// a program reads back, plus the checkpoint spans and instants.
pub const REGISTERED: &[(&str, InstrumentKind)] = &[
    (SPAN_CKPT_APPLY, InstrumentKind::Span),
    (SPAN_CKPT_CLEAR, InstrumentKind::Span),
    (SPAN_CKPT_COMMIT_HEAP, InstrumentKind::Span),
    (SPAN_CKPT_COMMIT_STACK, InstrumentKind::Span),
    (SPAN_CKPT_COPY, InstrumentKind::Span),
    (SPAN_CKPT_INTERVAL, InstrumentKind::Span),
    ("prosper.ckpt.phase.apply_cycles", InstrumentKind::Histogram),
    ("prosper.ckpt.phase.clear_cycles", InstrumentKind::Histogram),
    (
        "prosper.ckpt.phase.inspect_cycles",
        InstrumentKind::Histogram,
    ),
    ("prosper.ckpt.phase.merge_cycles", InstrumentKind::Histogram),
    ("prosper.ckpt.phase.stage_cycles", InstrumentKind::Histogram),
    (SPAN_CKPT_QUIESCE, InstrumentKind::Span),
    (SPAN_CKPT_REGISTERS, InstrumentKind::Span),
    (SPAN_CKPT_SCAN, InstrumentKind::Span),
    ("prosper.commit.phase.apply_ns", InstrumentKind::Histogram),
    ("prosper.commit.phase.merge_ns", InstrumentKind::Histogram),
    ("prosper.commit.phase.seal_ns", InstrumentKind::Histogram),
    ("prosper.commit.phase.stage_ns", InstrumentKind::Histogram),
    ("prosper.commit.workers", InstrumentKind::Gauge),
    ("prosper.retune.granularity", InstrumentKind::Span),
    ("prosper.spine.merged_bytes", InstrumentKind::Counter),
    ("prosper.spine.merges", InstrumentKind::Counter),
];

/// The kind `name` is registered under, if any.
pub fn lookup(name: &str) -> Option<InstrumentKind> {
    REGISTERED.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
}

/// Whether `name` is registered (under any kind).
pub fn is_registered(name: &str) -> bool {
    lookup(name).is_some()
}

/// Whether `name` is well-formed: lowercase `[a-z0-9_.]` segments
/// under the `prosper.` namespace, no empty segments.
pub fn is_well_formed(name: &str) -> bool {
    name.starts_with("prosper.")
        && !name.ends_with('.')
        && !name.contains("..")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_is_well_formed() {
        for (name, _) in REGISTERED {
            assert!(is_well_formed(name), "malformed telemetry name: {name}");
        }
    }

    #[test]
    fn names_are_globally_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, kind) in REGISTERED {
            assert!(
                seen.insert(*name),
                "telemetry name registered twice: {name} (second kind: {kind})"
            );
        }
    }

    #[test]
    fn lookup_finds_kind() {
        assert_eq!(
            lookup("prosper.commit.workers"),
            Some(InstrumentKind::Gauge)
        );
        assert_eq!(lookup(SPAN_CKPT_QUIESCE), Some(InstrumentKind::Span));
        assert_eq!(
            lookup("prosper.ckpt.phase.merge_cycles"),
            Some(InstrumentKind::Histogram)
        );
        assert_eq!(
            lookup("prosper.spine.merged_bytes"),
            Some(InstrumentKind::Counter)
        );
        assert_eq!(lookup("prosper.spine.batches"), None, "copy retired");
        assert_eq!(lookup("prosper.not.a.metric"), None);
        assert!(!is_registered("ckpt.intervals"), "legacy name retired");
    }

    #[test]
    fn malformed_names_rejected() {
        for bad in [
            "ckpt.intervals",          // missing namespace
            "prosper.Ckpt.intervals",  // uppercase
            "prosper.ckpt..intervals", // empty segment
            "prosper.ckpt.intervals.", // trailing dot
            "prosper.ckpt intervals",  // space
        ] {
            assert!(!is_well_formed(bad), "{bad} should be malformed");
        }
    }
}
