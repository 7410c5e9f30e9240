//! Metrics registry: named counters, gauges, and log-linear
//! histograms.
//!
//! Handles are `Arc<Atomic*>` — incrementing one is a single relaxed
//! atomic op with no lock. The registry's mutex is taken only on
//! registration and snapshotting, both off the hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic event count.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
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

/// Frozen view of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
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
    fn histogram_stats() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 100);
        assert_eq!(Histogram::default().snapshot().min, 0, "empty min");
    }

    #[test]
    fn registry_handles_and_delta() {
        let r = Registry::new();
        let c = r.counter("stores");
        c.add(5);
        r.counter("stores").add(1); // same underlying cell
        assert_eq!(r.counter("stores").get(), 6);
        r.gauge("depth").set(3);
        r.histogram("lat").record(7);

        let early = r.snapshot();
        c.add(4);
        r.gauge("depth").set(1);
        r.histogram("lat").record(9);
        let late = r.snapshot();
        // A snapshot is frozen: later updates move only later snapshots.
        assert_eq!(late.counters["stores"] - early.counters["stores"], 4);
        assert_eq!((early.gauges["depth"], late.gauges["depth"]), (3, 1));
        assert_eq!(early.histograms["lat"].count, 1);
        assert_eq!(late.histograms["lat"].count, 2);
    }
}
