//! The metrics registry.
//!
//! Hot paths never write here. The simulator records into plain per-run
//! structs ([`Histogram`], local `u64`s) and merges them into the registry
//! once at end of run; the registry's own primitives ([`Counter`],
//! [`Gauge`]) are atomics so concurrent sweep workers can merge without a
//! data race. `snapshot()` copies everything out for rendering as CSV
//! or Prometheus text.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge with last-write and high-water-mark semantics.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values with `floor(log2(v)) == i - 1`, i.e. `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (latencies, depths).
///
/// Plain (non-atomic) by design: one lives per run / per controller on
/// the hot path and is merged into the registry at end of run. Quantiles
/// come from the bucket CDF, using each bucket's upper bound clamped to
/// the exact observed maximum — which guarantees `p50 ≤ p95 ≤ p99 ≤ max`
/// by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the target rank, clamped to the observed maximum.
    ///
    /// Pinned edge behavior (the `--metrics` CSV and the `/metrics` page
    /// read percentiles straight off this, so the contract is
    /// load-bearing):
    ///
    /// * an **empty** histogram reports 0 for every `q` — never a bucket
    ///   upper bound like 1;
    /// * `q = 0.0` reports the bucket bound of the smallest sample,
    ///   `q = 1.0` reports exactly the observed maximum;
    /// * out-of-range `q` clamps into `[0.0, 1.0]`; a NaN `q` is treated
    ///   as 1.0 (the conservative end), so a caller bug over-reports a
    ///   latency instead of under-reporting it;
    /// * `quantile` is monotone in `q`, hence `p50 ≤ p95 ≤ p99 ≤ max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The raw per-bucket counts (`BUCKETS` entries). Bucket 0 holds the
    /// value 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. Exposed for the
    /// Prometheus renderer, which needs the full CDF, not just quantiles.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// The inclusive upper bound of bucket `i` (the Prometheus `le`
    /// value): 0 for bucket 0, `2^i - 1` for `1 ≤ i < 64`, `u64::MAX`
    /// for the last bucket.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

/// One histogram's rendered summary inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// A point-in-time copy of the registry, ready for rendering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Histogram name → summary, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as CSV with a uniform header.
    ///
    /// Counters and gauges fill only the `value` column; histograms fill
    /// `value` with their mean plus the count/quantile columns.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value,count,p50,p95,p99,max\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},{v},,,,,\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{name},{v},,,,,\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist,{name},{:.3},{},{},{},{},{}\n",
                h.mean, h.count, h.p50, h.p95, h.p99, h.max
            ));
        }
        out
    }
}

/// A metrics registry: one per observer that wants metrics (a CLI
/// command, a service), shared by reference with whatever records into it.
///
/// Counter/gauge updates take a read lock plus one atomic RMW; histogram
/// merges serialise on a mutex (they happen once per run, not per event).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            c.add(delta);
            return;
        }
        self.counters
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .add(delta);
    }

    /// Raises the named gauge to `v` if larger (high-water mark).
    pub fn gauge_max(&self, name: &str, v: u64) {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            g.record_max(v);
            return;
        }
        self.gauges
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .record_max(v);
    }

    /// Overwrites the named gauge.
    pub fn gauge_set(&self, name: &str, v: u64) {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            g.set(v);
            return;
        }
        self.gauges
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .set(v);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        let mut histograms = self.histograms.lock().unwrap();
        match histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => histograms.entry(name.to_string()).or_default().record(v),
        }
    }

    /// Merges a per-run histogram into the named registry histogram.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if h.is_empty() {
            return;
        }
        self.histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .read()
            .unwrap()
            .get(name)
            .map_or(0, Counter::get)
    }

    /// Current value of a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.read().unwrap().get(name).map_or(0, Gauge::get)
    }

    /// A copy of the named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.lock().unwrap().get(name).cloned()
    }

    /// A name-sorted copy of every raw histogram. The Prometheus renderer
    /// uses this (it needs bucket counts, which [`Registry::snapshot`]
    /// deliberately summarises away).
    pub fn histograms_raw(&self) -> Vec<(String, Histogram)> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect()
    }

    /// A point-in-time copy of every metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: h.count(),
                        mean: h.mean(),
                        p50: h.p50(),
                        p95: h.p95(),
                        p99: h.p99(),
                        max: h.max(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 7, 9, 100, 1000, 65_537] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 65_537);
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max());
        assert!((3..=7).contains(&p50), "p50={p50}");
    }

    #[test]
    fn histogram_empty_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_single_value_quantiles_hit_it() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p99(), 42);
        assert_eq!(h.max(), 42);
    }

    #[test]
    fn quantile_domain_edges_are_pinned() {
        // Regression: exported percentiles come from quantile(), so its
        // edge behavior is a published contract.
        let empty = Histogram::new();
        for q in [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }
        let mut h = Histogram::new();
        for v in [3u64, 9, 17, 1200, 40_000] {
            h.record(v);
        }
        // q = 1.0 is exactly the observed maximum, and anything at or
        // beyond the boundaries clamps rather than indexing nonsense.
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.quantile(2.0), h.max());
        assert_eq!(h.quantile(f64::NAN), h.max());
        assert_eq!(h.quantile(0.0), h.quantile(-5.0));
        // q = 0.0 lands in the smallest sample's bucket (3 ∈ [2, 4)).
        assert_eq!(h.quantile(0.0), 3);
    }

    #[test]
    fn quantiles_are_monotone_over_many_shapes() {
        // p50 ≤ p95 ≤ p99 ≤ max must hold for any sample set; sweep a
        // deterministic xorshift stream over several sizes and spreads.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for size in [1usize, 2, 3, 10, 100, 1000] {
            let mut h = Histogram::new();
            for _ in 0..size {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.record(x % 1_000_003);
            }
            let mut prev = 0u64;
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let v = h.quantile(q);
                assert!(v >= prev, "quantile({q}) = {v} < {prev} at size {size}");
                assert!(v <= h.max(), "quantile({q}) above max at size {size}");
                prev = v;
            }
            assert!(h.p50() <= h.p95() && h.p95() <= h.p99() && h.p99() <= h.max());
        }
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
        assert_eq!(a.sum(), 505);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let r = Registry::default();
        r.add("x.count", 2);
        r.add("x.count", 3);
        assert_eq!(r.counter("x.count"), 5);
        r.gauge_max("x.peak", 7);
        r.gauge_max("x.peak", 4);
        assert_eq!(r.gauge("x.peak"), 7);
        r.observe("x.lat", 10);
        r.observe("x.lat", 20);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 2);
        let csv = snap.to_csv();
        assert!(csv.starts_with("kind,name,value"));
        assert!(csv.contains("counter,x.count,5"));
        assert!(Registry::default().snapshot().is_empty());
    }
}
