//! Metrics registry: named counters, gauges, and log-linear
//! histograms.
//!
//! Handles are `Arc<Atomic*>` — incrementing one is a single relaxed
//! atomic op with no lock. The registry's mutex is taken only on
//! registration and snapshotting, both off the hot path. Snapshots
//! subtract (`Sub`) with saturating semantics, matching the
//! `MemStats` interval-diffing idiom used across the simulator.

use std::collections::BTreeMap;
use std::ops::Sub;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Monotonic event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed level (queue depths, resident entries, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power-of-two decade.
const LINEAR_SUB: usize = 4;
/// Values below this get one exact bucket each.
const EXACT_LIMIT: u64 = LINEAR_SUB as u64;
/// Enough buckets for the full u64 range: 4 exact + 62 decades × 4.
pub const HISTOGRAM_BUCKETS: usize = 4 + 62 * LINEAR_SUB;

/// Maps a value to its log-linear bucket: exact below 4, then four
/// linear sub-buckets per doubling (relative error ≤ 25%).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (msb - 2)) & 0x3) as usize;
        4 + (msb - 2) * LINEAR_SUB + sub
    }
}

/// Inclusive lower bound of a bucket, inverse of [`bucket_index`].
#[must_use]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < EXACT_LIMIT as usize {
        index as u64
    } else {
        let msb = 2 + (index - 4) / LINEAR_SUB;
        let sub = ((index - 4) % LINEAR_SUB) as u64;
        (1u64 << msb) + (sub << (msb - 2))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Log-linear latency/size distribution.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        let core = &*self.0;
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.min.fetch_min(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        let count = core.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                core.min.load(Ordering::Relaxed)
            },
            max: core.max.load(Ordering::Relaxed),
            buckets: core
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_lower_bound(i), n))
                })
                .collect(),
        }
    }
}

/// Frozen view of one histogram: `(bucket_lower_bound, count)` pairs
/// for non-empty buckets only.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values, 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket containing the q-quantile
    /// (`0.0 ..= 1.0`).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for &(lower, n) in &self.buckets {
            seen += n;
            if seen >= target.max(1) {
                return lower;
            }
        }
        self.max
    }
}

impl Sub for HistogramSnapshot {
    type Output = HistogramSnapshot;

    /// Interval delta: later minus earlier, saturating. Bucket counts
    /// subtract pairwise by lower bound; min/max are taken from the
    /// later snapshot (they are not recoverable for an interval).
    fn sub(self, earlier: HistogramSnapshot) -> HistogramSnapshot {
        let before: BTreeMap<u64, u64> = earlier.buckets.into_iter().collect();
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .into_iter()
            .filter_map(|(lower, n)| {
                let delta = n.saturating_sub(before.get(&lower).copied().unwrap_or(0));
                (delta > 0).then_some((lower, delta))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Name → metric handle map. Cloning a handle out of the registry is
/// the intended usage: resolve once at construction, increment
/// lock-free afterwards.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Freezes every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Frozen view of a whole registry; `Sub` yields the interval delta.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Sub for MetricsSnapshot {
    type Output = MetricsSnapshot;

    /// Later minus earlier, saturating. Gauges keep the later level
    /// (a level, not a rate). Metrics absent from `earlier` pass
    /// through unchanged.
    fn sub(self, earlier: MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .into_iter()
                .map(|(k, v)| {
                    let before = earlier.counters.get(&k).copied().unwrap_or(0);
                    (k, v.saturating_sub(before))
                })
                .collect(),
            gauges: self.gauges,
            histograms: self
                .histograms
                .into_iter()
                .map(|(k, v)| {
                    let before = earlier.histograms.get(&k).cloned().unwrap_or_default();
                    (k, v - before)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        // Exact buckets.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        // Every power of two starts a decade's first sub-bucket.
        for msb in 2..63usize {
            let v = 1u64 << msb;
            let i = bucket_index(v);
            assert_eq!(bucket_lower_bound(i), v, "2^{msb}");
            // One below the power of two lands in the previous bucket.
            assert_eq!(i, bucket_index(v - 1) + 1, "2^{msb} - 1");
        }
        // Monotone, and lower bound never exceeds the value.
        let mut prev = 0;
        for v in [0, 1, 3, 4, 5, 7, 8, 100, 1000, u32::MAX as u64, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "monotone at {v}");
            assert!(bucket_lower_bound(i) <= v, "lower bound at {v}");
            assert!(i < HISTOGRAM_BUCKETS);
            prev = i;
        }
        // Relative error bound: bucket width is 2^(msb-2), i.e. 25%.
        for v in [5u64, 9, 17, 100, 12345, 1 << 40] {
            let lower = bucket_lower_bound(bucket_index(v));
            assert!((v - lower) as f64 <= v as f64 * 0.25, "error at {v}");
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // p50 bucket lower bound must be within 25% below 50.
        let p50 = s.quantile(0.5);
        assert!((38..=50).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0) <= 100);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_sub_saturates() {
        let h = Histogram::default();
        h.record(10);
        h.record(10);
        let early = h.snapshot();
        h.record(10);
        h.record(1 << 20);
        let late = h.snapshot();
        let delta = late.clone() - early.clone();
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 10 + (1 << 20));
        let lower10 = bucket_lower_bound(bucket_index(10));
        assert!(delta.buckets.contains(&(lower10, 1)));
        // Reversed subtraction saturates to zero rather than panicking.
        let reversed = early - late;
        assert_eq!(reversed.count, 0);
        assert_eq!(reversed.sum, 0);
        assert!(reversed.buckets.is_empty());
    }

    #[test]
    fn registry_handles_and_delta() {
        let r = Registry::new();
        let c = r.counter("stores");
        c.add(5);
        r.counter("stores").inc(); // same underlying cell
        assert_eq!(r.counter("stores").get(), 6);
        r.gauge("depth").set(3);
        r.histogram("lat").record(7);

        let early = r.snapshot();
        c.add(4);
        r.gauge("depth").set(1);
        r.histogram("lat").record(9);
        let delta = r.snapshot() - early;
        assert_eq!(delta.counters["stores"], 4);
        assert_eq!(delta.gauges["depth"], 1, "gauges keep the later level");
        assert_eq!(delta.histograms["lat"].count, 1);
    }
}
