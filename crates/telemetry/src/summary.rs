//! Prometheus-style exposition text of a metrics snapshot.

use std::collections::BTreeMap;

use crate::metrics::MetricsSnapshot;

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Injective per-snapshot name mapping. `sanitize` alone is lossy —
/// `prosper.commit` and `prosper_commit` both render as
/// `prosper_commit`, silently folding two series into one — so the
/// exposition builds one mapping per snapshot and disambiguates
/// collisions deterministically: the first name (in counters → gauges
/// → histograms order, BTreeMap-sorted within each) keeps the plain
/// sanitized form, later colliders get `_dup2`, `_dup3`, ... suffixes
/// (skipping any suffix that is itself taken). The rendered text
/// flags every renamed series with a `# WARNING` comment so the
/// collision is visible, not silent.
fn sanitized_names<'a>(names: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, String> {
    let mut taken: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut out = BTreeMap::new();
    for name in names {
        let base = sanitize(name);
        let mut candidate = base.clone();
        let mut n = 1usize;
        while !taken.insert(candidate.clone()) {
            n += 1;
            candidate = format!("{base}_dup{n}");
        }
        out.insert(name, candidate);
    }
    out
}

/// Prometheus text exposition of every metric in the snapshot.
/// Histograms render as cumulative `_bucket{le=...}` series plus
/// `_sum` and `_count`, counters and gauges as plain samples.
/// Sanitized-name collisions are detected and disambiguated (see
/// [`sanitized_names`]); the output never folds two metrics into one
/// series.
#[must_use]
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let names = sanitized_names(
        snap.counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str),
    );
    let warn = |out: &mut String, name: &str, rendered: &str| {
        if rendered != sanitize(name) {
            out.push_str(&format!(
                "# WARNING metric name collision: {name} rendered as {rendered}\n"
            ));
        }
    };
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = &names[name.as_str()];
        warn(&mut out, name, n);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = &names[name.as_str()];
        warn(&mut out, name, n);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = &names[name.as_str()];
        warn(&mut out, name, n);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for &(lower, count) in &h.buckets {
            cumulative += count;
            out.push_str(&format!("{n}_bucket{{le=\"{lower}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("tracker.soi_stores").add(42);
        r.gauge("table.resident").set(7);
        let h = r.histogram("ckpt.copy_cycles");
        h.record(3);
        h.record(100);
        r.snapshot()
    }

    #[test]
    fn prometheus_text_shape() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE tracker_soi_stores counter\ntracker_soi_stores 42\n"));
        assert!(text.contains("# TYPE table_resident gauge\ntable_resident 7\n"));
        assert!(text.contains("# TYPE ckpt_copy_cycles histogram\n"));
        assert!(text.contains("ckpt_copy_cycles_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("ckpt_copy_cycles_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("ckpt_copy_cycles_sum 103\n"));
        assert!(text.contains("ckpt_copy_cycles_count 2\n"));
    }

    #[test]
    fn colliding_names_render_as_distinct_series() {
        // `prosper.commit` and `prosper_commit` sanitize identically;
        // the regression this guards is both rendering as ONE series.
        let r = Registry::new();
        r.counter("prosper.commit").add(1);
        r.counter("prosper_commit").add(2);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("\nprosper_commit 1\n"), "{text}");
        assert!(text.contains("\nprosper_commit_dup2 2\n"), "{text}");
        assert!(
            text.contains("# WARNING metric name collision: prosper_commit"),
            "collision must be flagged, not silent: {text}"
        );
        // Exactly one TYPE line per series, two series total.
        assert_eq!(text.matches("# TYPE ").count(), 2);
    }

    #[test]
    fn collisions_across_instrument_kinds_are_detected() {
        // Same sanitized name used by a counter and a histogram: the
        // histogram's derived _sum/_count/_bucket series must not
        // shadow or merge with the counter sample.
        let r = Registry::new();
        r.counter("prosper.stall").add(9);
        r.histogram("prosper_stall").record(5);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE prosper_stall counter\nprosper_stall 9\n"));
        assert!(text.contains("# TYPE prosper_stall_dup2 histogram\n"));
        assert!(text.contains("prosper_stall_dup2_count 1\n"));
    }

    #[test]
    fn disambiguation_is_deterministic_and_skips_taken_suffixes() {
        let r = Registry::new();
        r.counter("a.b").add(1);
        r.counter("a_b").add(2);
        r.counter("a_b_dup2").add(3); // already occupies the suffix
        let text = prometheus_text(&r.snapshot());
        let text2 = prometheus_text(&r.snapshot());
        assert_eq!(text, text2, "rendering is deterministic");
        assert!(text.contains("\na_b 1\n"));
        assert!(text.contains("\na_b_dup2 3\n") || text.contains("\na_b_dup2 2\n"));
        // All three values survive as three distinct series.
        let series: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let unique: std::collections::BTreeSet<&str> = series.iter().copied().collect();
        assert_eq!(unique.len(), 3, "{series:?}");
    }

    #[test]
    fn registered_namespace_is_collision_free() {
        // Our own catalogue must never need disambiguation: sanitized
        // registered names are pairwise distinct.
        let mut seen = BTreeMap::new();
        for (name, _) in crate::names::REGISTERED {
            if let Some(prev) = seen.insert(sanitize(name), *name) {
                panic!("registered names {prev} and {name} collide after sanitize");
            }
        }
    }
}
