//! Named counters, gauges, and log-bucketed histograms behind
//! lock-free atomics.
//!
//! A [`Registry`] maps dotted names to metric handles. Lookup takes a
//! short-lived lock (get-or-create in a map), so hot paths resolve
//! their handle once — typically into a `OnceLock<Arc<Counter>>` —
//! and then record with single relaxed atomic operations. Histograms
//! bucket by powers of two, which is exact enough for latency
//! distributions (every bucket spans a 2× band) while keeping
//! recording to two `fetch_add`s plus one indexed `fetch_add`;
//! p50/p95/p99 are derived from the bucket counts at read time, on
//! whichever side of the wire wants them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, resident bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: value 0, then one bucket per power of two up to
/// `u64::MAX` (bucket `i` holds `2^(i-1) ..= 2^i - 1`).
const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` samples (by convention,
/// nanoseconds when the name ends in `_ns`).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold (its reported quantile bound).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution. Concurrent recording
    /// makes the copy approximate (count/sum/buckets are read
    /// independently), which is fine for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A copied histogram state with derived statistics.
#[derive(Clone)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the top of
    /// the log bucket the quantile rank lands in, so the true value is
    /// within 2× below the returned bound. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// The summary object the service's `stats` response embeds:
    /// `{"count", "sum", "mean", "p50", "p95", "p99"}` (quantiles are
    /// log-bucket upper bounds).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            self.count,
            self.sum,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A namespace of named metrics. Library code shares
/// [`Registry::global`]; embedders that need isolation (one service
/// instance per test, say) hold their own [`Registry::new`].
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty, private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry the engine, STA, and pool record into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, created on first use. Hot paths
    /// should cache the returned handle.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        match inner.counters.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::default());
                inner.counters.insert(name.to_owned(), c.clone());
                c
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        match inner.gauges.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Arc::new(Gauge::default());
                inner.gauges.insert(name.to_owned(), g.clone());
                g
            }
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.lock();
        match inner.histograms.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::default());
                inner.histograms.insert(name.to_owned(), h.clone());
                h
            }
        }
    }

    /// Histogram snapshots for every registered histogram whose name
    /// starts with `prefix` (pass `""` for all), in name order.
    pub fn histograms_with_prefix(&self, prefix: &str) -> Vec<(String, HistogramSnapshot)> {
        let inner = self.lock();
        inner
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// Renders the whole registry:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: summary}}`.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"counters\": {");
        for (i, (name, c)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", crate::json_string(name), c.get()));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, g)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", crate::json_string(name), g.get()));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {}",
                crate::json_string(name),
                h.snapshot().summary_json()
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b").get(), 5, "same name, same handle");
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge("depth").get(), 7);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let h = Histogram::default();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1100);
        // p50 rank lands among the tens; its bucket bound covers them.
        let p50 = snap.quantile(0.50);
        assert!((30..64).contains(&p50), "p50 bound {p50}");
        // p99 must reach the outlier's bucket.
        let p99 = snap.quantile(0.99);
        assert!(p99 >= 1000, "p99 bound {p99}");
        assert!(snap.mean() > 200.0 && snap.mean() < 250.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn registries_are_isolated() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("x").inc();
        assert_eq!(b.counter("x").get(), 0);
    }

    #[test]
    fn to_json_is_valid_and_complete() {
        let r = Registry::new();
        r.counter("jobs").add(3);
        r.gauge("depth").set(-2);
        r.histogram("wait_ns").record(100);
        let json = r.to_json();
        assert!(json.contains("\"jobs\": 3"));
        assert!(json.contains("\"depth\": -2"));
        assert!(json.contains("\"wait_ns\": {\"count\": 1"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn prefix_listing_filters() {
        let r = Registry::new();
        r.histogram("serve.pass_ns.compile").record(5);
        r.histogram("serve.queue_wait_ns.high").record(9);
        let passes = r.histograms_with_prefix("serve.pass_ns.");
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].0, "serve.pass_ns.compile");
    }
}
