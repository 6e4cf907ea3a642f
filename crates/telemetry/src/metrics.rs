//! Counters, gauges, and deterministic log2-bucket histograms, registered
//! by name in a process-global registry beside the region registry of
//! [`crate::span`].
//!
//! Handles are cheap clones of `Arc<Atomic…>` cells, so the hot path of an
//! instrumented loop is a relaxed atomic add — no lock, no allocation. The
//! registry lock is taken only on lookup of a name and on snapshot; a
//! lookup allocates the first time a name is seen and never after.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::export::line;
use crate::json::Json;

/// Number of log2 buckets: bucket `i` (for `i > 0`) holds values in
/// `[2^(i-1), 2^i - 1]`; bucket 0 holds the value 0. Values at or above
/// `2^62` saturate into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge carrying an `f64` (stored as raw bits).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared histogram storage.
pub(crate) struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a recorded value: 0 for 0, otherwise the bit width of
/// the value, capped at the last bucket.
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper boundary of a bucket — the value percentiles report, so
/// percentile estimates are deterministic and never under-state a latency.
pub fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        (1u64 << idx) - 1
    }
}

/// A log2-bucket histogram of non-negative integer observations (typically
/// nanoseconds or iteration counts).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        let cells = &self.0;
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
        cells.min.fetch_min(v, Ordering::Relaxed);
        cells.max.fetch_max(v, Ordering::Relaxed);
        cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current state.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let cells = &self.0;
        let nonzero = |(idx, b): (usize, &AtomicU64)| {
            let n = b.load(Ordering::Relaxed);
            (n != 0).then_some((idx, n))
        };
        HistogramSnapshot {
            count: cells.count.load(Ordering::Relaxed),
            sum: cells.sum.load(Ordering::Relaxed),
            min: cells.min.load(Ordering::Relaxed),
            max: cells.max.load(Ordering::Relaxed),
            buckets: cells
                .buckets
                .iter()
                .enumerate()
                .filter_map(nonzero)
                .collect(),
        }
    }
}

/// One registered metric cell.
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

/// Span wall-time histograms by span leaf name: a span close looks its leaf
/// up as it stands in the path, and a snapshot names the histogram
/// `span.<leaf>`, so no name is built per close.
static SPAN_WALL: Mutex<BTreeMap<String, Histogram>> = Mutex::new(BTreeMap::new());

/// The cell under `name`, which is `make()` the first time the name is seen
/// — the only time the key is cloned.
fn lookup<T: Clone>(map: &Mutex<BTreeMap<String, T>>, name: &str, make: fn() -> T) -> T {
    let mut map = map.lock().unwrap();
    if let Some(cell) = map.get(name) {
        return cell.clone();
    }
    map.entry(name.to_string()).or_insert_with(make).clone()
}

fn new_histogram() -> Histogram {
    Histogram(Arc::new(HistogramCells::new()))
}

/// Get or create the counter named `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Counter {
    match lookup(&REGISTRY, name, || {
        Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
    }) {
        Metric::Counter(c) => c,
        other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
    }
}

/// Get or create the gauge named `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Gauge {
    match lookup(&REGISTRY, name, || {
        Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
    }) {
        Metric::Gauge(g) => g,
        other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
    }
}

/// Get or create the histogram named `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Histogram {
    match lookup(&REGISTRY, name, || Metric::Histogram(new_histogram())) {
        Metric::Histogram(h) => h,
        other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
    }
}

/// Record one span's wall time under its leaf name.
pub(crate) fn record_span_wall(leaf: &str, wall_ns: u64) {
    lookup(&SPAN_WALL, leaf, new_histogram).record(wall_ns);
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty buckets as `(index, count)` pairs, index order.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Deterministic percentile estimate: the upper boundary of the first
    /// bucket whose cumulative count reaches `q * count` (q in 0..=1).
    /// `None` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Never report past the true extremes.
                return Some(bucket_upper(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// Point-in-time copy of the whole metric registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Render as `qcd-metrics/v1` JSON lines: one self-describing object per
    /// metric. Histogram lines carry the non-empty buckets and the
    /// deterministic p50/p90/p99 estimates.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&metric_line(
                "counter",
                name,
                vec![("value".into(), Json::Num(*v as f64))],
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&metric_line(
                "gauge",
                name,
                vec![("value".into(), Json::Num(*v))],
            ));
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<Json> = h
                .buckets
                .iter()
                .map(|&(idx, n)| {
                    Json::Obj(vec![
                        ("le".into(), Json::Num(bucket_upper(idx) as f64)),
                        ("count".into(), Json::Num(n as f64)),
                    ])
                })
                .collect();
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&metric_line(
                "histogram",
                name,
                vec![
                    ("count".into(), Json::Num(h.count as f64)),
                    ("sum".into(), Json::Num(h.sum as f64)),
                    ("min".into(), Json::Num(min as f64)),
                    ("max".into(), Json::Num(h.max as f64)),
                    ("p50".into(), percentile_json(h, 0.50)),
                    ("p90".into(), percentile_json(h, 0.90)),
                    ("p99".into(), percentile_json(h, 0.99)),
                    ("buckets".into(), Json::Arr(buckets)),
                ],
            ));
        }
        out
    }
}

fn percentile_json(h: &HistogramSnapshot, q: f64) -> Json {
    match h.percentile(q) {
        Some(v) => Json::Num(v as f64),
        None => Json::Null,
    }
}

fn metric_line(kind: &str, name: &str, rest: Vec<(String, Json)>) -> String {
    let mut members = vec![("name".to_string(), Json::Str(name.into()))];
    members.extend(rest);
    line(kind, members)
}

/// Copy every registered metric, the span wall-time histograms included
/// (as `span.<leaf>`).
pub fn metrics_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (name, metric) in REGISTRY.lock().unwrap().iter() {
        match metric {
            Metric::Counter(c) => {
                snap.counters.insert(name.clone(), c.get());
            }
            Metric::Gauge(g) => {
                snap.gauges.insert(name.clone(), g.get());
            }
            Metric::Histogram(h) => {
                snap.histograms.insert(name.clone(), h.snapshot());
            }
        }
    }
    for (leaf, h) in SPAN_WALL.lock().unwrap().iter() {
        snap.histograms.insert(format!("span.{leaf}"), h.snapshot());
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_partition_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for idx in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper(idx)), idx);
            assert_eq!(bucket_index(bucket_upper(idx) + 1), idx + 1);
        }
    }

    #[test]
    fn percentiles_are_deterministic_bucket_boundaries() {
        let h = new_histogram();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        // p50 of 1..=100 lands in the bucket holding 50 (i.e. [32,63]).
        assert_eq!(snap.percentile(0.50), Some(63));
        assert_eq!(snap.percentile(0.99), Some(100)); // clamped to max
        assert_eq!(snap.percentile(0.0), Some(1)); // clamped to min
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        };
        assert_eq!(h.percentile(0.5), None);
    }
}
