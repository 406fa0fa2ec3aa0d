//! A small metrics registry with Prometheus text exposition.
//!
//! The daemon needs counters, gauges and latency histograms that are
//! cheap to update from many worker threads at once.
//! The registry keeps one name → metric map behind one mutex:
//! *registration* and the per-request labelled lookups take that lock,
//! while *updates* (the hot path) are plain atomic operations on the
//! `Arc`-shared metric — no lock is held while counting.
//!
//! Rendering ([`MetricsRegistry::render`]) walks the map in name order and
//! emits the Prometheus text format, so scrapes are deterministic
//! byte-for-byte for a given set of counter values.
//!
//! Histograms use fixed exponential bucket bounds and expose
//! summary-style `quantile` lines (p50/p95/p99 interpolated from bucket
//! counts) plus `_sum`/`_count`, which is what the serving layer's latency
//! SLO dashboards read.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sync;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub(crate) struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub(crate) fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable gauge holding a non-negative integer (e.g. a queue depth).
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub(crate) fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Increments by one.
    pub(crate) fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one (saturating at zero).
    pub(crate) fn dec(&self) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket upper bounds, in milliseconds: exponential
/// from 0.25 ms to ~128 s. Values above the last bound land in the
/// implicit `+Inf` bucket.
pub(crate) const DEFAULT_BUCKETS_MS: [f64; 20] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
    8192.0, 16384.0, 32768.0, 65536.0, 131072.0,
];

/// A fixed-bucket latency histogram with atomic bucket counters.
#[derive(Debug)]
pub(crate) struct Histogram {
    bounds: Vec<f64>,
    /// `buckets[i]` counts observations `<= bounds[i]`; the last slot is
    /// the `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    /// Sum of observations in micro-units (value × 1000, rounded), so the
    /// atomic stays an integer.
    sum_milli: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub(crate) fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_milli: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// A histogram with the default millisecond bounds.
    pub(crate) fn default_ms() -> Self {
        Self::new(&DEFAULT_BUCKETS_MS)
    }

    /// Records one observation.
    pub(crate) fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let milli = (value.max(0.0) * 1000.0).round() as u64;
        self.sum_milli.fetch_add(milli, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub(crate) fn sum(&self) -> f64 {
        self.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// The `q`-quantile (`0 < q <= 1`), linearly interpolated within the
    /// containing bucket; 0 when empty. Values in the `+Inf` bucket report
    /// the last finite bound.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if seen + n >= target {
                if i >= self.bounds.len() {
                    // invariant: `new` asserts at least one bound.
                    return *self.bounds.last().expect("bounds are non-empty");
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let into = (target - seen) as f64 / n.max(1) as f64;
                return lo + (hi - lo) * into;
            }
            seen += n;
        }
        // invariant: `new` asserts at least one bound.
        *self.bounds.last().expect("bounds are non-empty")
    }

    /// A `(count, sum, p50, p95, p99)` snapshot.
    pub(crate) fn snapshot(&self) -> (u64, f64, f64, f64, f64) {
        (
            self.count(),
            self.sum(),
            self.quantile(0.5),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// One registered metric.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    help: String,
    metric: Metric,
}

/// A registry of named metrics rendering to Prometheus text.
///
/// Metric names may carry inline Prometheus labels
/// (`requests_total{code="200"}`); the family name before the brace is
/// what `# HELP` / `# TYPE` comments are grouped by.
pub(crate) struct MetricsRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self {
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Gets or creates a counter. The help text of the first registration
    /// wins.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub(crate) fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.get_or_create(name, help, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// Gets or creates a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub(crate) fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_create(name, help, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// Gets or creates a histogram with the default millisecond buckets.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub(crate) fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_create(name, help, || {
            Metric::Histogram(Arc::new(Histogram::default_ms()))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` is already registered with a different kind"),
        }
    }

    /// The one entry-or-insert: the metric registered as `name`, made by
    /// `create` on first use.
    fn get_or_create(&self, name: &str, help: &str, create: impl FnOnce() -> Metric) -> Metric {
        let mut entries = sync::lock(&self.entries);
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            metric: create(),
        });
        entry.metric.clone()
    }

    /// Renders every metric in Prometheus text exposition format, sorted
    /// by name (deterministic for fixed counter values).
    pub(crate) fn render(&self) -> String {
        let entries = sync::lock(&self.entries);
        let mut out = String::new();
        let mut last_family = "";
        for (name, entry) in entries.iter() {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let kind = match entry.metric {
                    Metric::Histogram(_) => "summary",
                    _ if family.ends_with("_total") => "counter",
                    _ => "gauge",
                };
                let help = &entry.help;
                out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
                last_family = family;
            }
            match &entry.metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let (count, sum, p50, p95, p99) = h.snapshot();
                    out.push_str(&format!(
                        "{family}{{quantile=\"0.5\"}} {p50}\n\
                         {family}{{quantile=\"0.95\"}} {p95}\n\
                         {family}{{quantile=\"0.99\"}} {p99}\n\
                         {family}_sum {sum}\n\
                         {family}_count {count}\n"
                    ));
                }
            }
        }
        out
    }
}

/// The service's metric handles: one registry (shared with the event
/// loop's [`crate::net`] series, so `/metrics` is one exposition for the
/// whole daemon) and a handle per fixed series; per-endpoint and
/// per-reason counters register on first use.
pub(crate) struct ServiceMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) search_latency: Arc<Histogram>,
    pub(crate) degraded: Arc<Counter>,
    pub(crate) fallbacks: Arc<Counter>,
    pub(crate) repairs: Arc<Counter>,
    pub(crate) seq_conflicts: Arc<Counter>,
    pub(crate) response_cache_hits: Arc<Counter>,
    pub(crate) response_cache_misses: Arc<Counter>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) observations: Arc<Counter>,
    pub(crate) store_quarantined: Arc<Gauge>,
}

impl ServiceMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        Self {
            queue_depth: registry.gauge(
                "nshard_serve_queue_depth",
                "Planning jobs waiting in the admission queue",
            ),
            search_latency: registry.histogram(
                "nshard_serve_search_latency_ms",
                "Wall-clock latency of admitted planning jobs, ms",
            ),
            degraded: registry.counter(
                "nshard_serve_degraded_total",
                "Requests answered with a degraded (non-primary) plan",
            ),
            fallbacks: registry.counter(
                "nshard_serve_fallback_total",
                "Plans produced by a fallback stage or the size-balanced last resort",
            ),
            repairs: registry.counter(
                "nshard_serve_repair_total",
                "Plans that needed the repair engine",
            ),
            seq_conflicts: registry.counter(
                "nshard_serve_seq_conflict_total",
                "Plan adoptions the store refused",
            ),
            response_cache_hits: registry.counter(
                "nshard_serve_response_cache_hits_total",
                "Planning jobs answered from the identical-request response cache",
            ),
            response_cache_misses: registry.counter(
                "nshard_serve_response_cache_misses_total",
                "Planning jobs that missed the response cache (cache enabled only)",
            ),
            cache_hits: registry.counter(
                "nshard_serve_cache_hits_total",
                "Prediction-cache hits of requests",
            ),
            cache_misses: registry.counter(
                "nshard_serve_cache_misses_total",
                "Prediction-cache misses of requests",
            ),
            observations: registry.counter(
                "nshard_serve_observations_total",
                "Ground-truth cost observations accepted via POST /v1/observations",
            ),
            store_quarantined: registry.gauge(
                "nshard_serve_store_quarantined",
                "Unreadable plan files the store set aside when it opened",
            ),
            registry,
        }
    }

    pub(crate) fn count_request(&self, endpoint: &str, code: u16) {
        self.registry
            .counter(
                &format!("nshard_serve_requests_total{{endpoint=\"{endpoint}\",code=\"{code}\"}}"),
                "Requests by endpoint and status code",
            )
            .inc();
    }

    pub(crate) fn count_rejection(&self, reason: &str) {
        self.registry
            .counter(
                &format!("nshard_serve_rejected_total{{reason=\"{reason}\"}}"),
                "Requests shed by admission control",
            )
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_count() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x_total", "help");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying counter.
        assert_eq!(reg.counter("x_total", "other").get(), 5);

        let g = reg.gauge("depth", "queue depth");
        g.set(3);
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 2);
        g.set(0);
        g.dec();
        assert_eq!(g.get(), 0, "gauge saturates at zero");
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_interpolated() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for _ in 0..50 {
            h.observe(0.5);
        }
        for _ in 0..40 {
            h.observe(5.0);
        }
        for _ in 0..10 {
            h.observe(50.0);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 <= 1.0, "median falls in the first bucket");
        assert!(p99 > 10.0, "p99 falls in the last bucket");
        // Overflow lands in +Inf and reports the last finite bound.
        h.observe(1e9);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default_ms();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn render_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total{code=\"200\"}", "bs").add(2);
        reg.counter("b_total{code=\"429\"}", "bs").inc();
        reg.gauge("a_depth", "depth").set(7);
        reg.histogram("c_latency_ms", "latency").observe(3.0);
        let text = reg.render();
        let a = text.find("a_depth 7").expect("gauge rendered");
        let b = text
            .find("b_total{code=\"200\"} 2")
            .expect("counter rendered");
        let b2 = text
            .find("b_total{code=\"429\"} 1")
            .expect("counter rendered");
        let c = text
            .find("c_latency_ms_count 1")
            .expect("histogram rendered");
        assert!(a < b && b < b2 && b2 < c, "sorted by name");
        assert!(text.contains("# TYPE a_depth gauge"));
        assert!(text.contains("# TYPE b_total counter"));
        assert!(text.contains("# TYPE c_latency_ms summary"));
        // One HELP/TYPE pair per family, not per labeled series.
        assert_eq!(text.matches("# TYPE b_total").count(), 1);
        // Rendering twice with no updates is byte-identical.
        assert_eq!(text, reg.render());
    }

    #[test]
    fn updates_are_thread_safe() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hammer_total", "hammered");
        let h = reg.histogram("hammer_ms", "hammered");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(f64::from(i % 100));
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", "h");
        reg.gauge("m", "h");
    }
}
