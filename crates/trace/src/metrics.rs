//! The metrics registry: named monotonic counters, gauges, and fixed
//! log-bucket `u64` histograms.
//!
//! Handles returned by the registry are cheap `Arc` clones over atomics,
//! so a hot loop can look its counter up once and bump it without
//! touching the registry lock again. All atomics use relaxed ordering —
//! metrics are statistics, not synchronization.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::expo::Exposition;

/// A named monotonic counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named last-value-wins gauge handle (stores `f64` bits atomically).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Replaces the gauge value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: one for zero plus one per bit length.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A fixed log-bucket histogram of `u64` samples.
///
/// Bucket `0` holds zeros; bucket `i >= 1` holds values with bit length
/// `i`, i.e. the half-open range `[2^(i-1), 2^i)`. Good enough to answer
/// "how big do Dijkstra trees get" without configuring bucket bounds.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds every sample of `samples`, as if each had been recorded.
    pub fn merge(&self, samples: &HistogramSnapshot) {
        self.0.count.fetch_add(samples.count, Ordering::Relaxed);
        self.0.sum.fetch_add(samples.sum, Ordering::Relaxed);
        for &(lower, count) in &samples.buckets {
            self.0.buckets[bucket_of(lower)].fetch_add(count, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then(|| {
                    let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    (lower, count)
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A copy of a [`Histogram`]'s state: total count, total sum, and the
/// non-empty buckets as `(lower_bound, count)` pairs in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// The bucket index of `value`: its bit length.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl HistogramSnapshot {
    /// Adds one sample, keeping the buckets ascending — a local
    /// accumulator for [`crate::Tracer::record`].
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        let lower = if value == 0 {
            0
        } else {
            1 << (bucket_of(value) - 1)
        };
        match self.buckets.binary_search_by_key(&lower, |&(l, _)| l) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (lower, 1)),
        }
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The exclusive upper bound of the bucket whose inclusive lower
    /// bound is `lower`, as `f64` (the top bucket saturates at
    /// `u64::MAX`).
    fn bucket_upper(lower: u64) -> f64 {
        if lower == 0 {
            // The zero bucket holds exactly the value 0.
            0.0
        } else if lower >= 1 << 63 {
            u64::MAX as f64
        } else {
            (lower << 1) as f64
        }
    }

    /// Folds another snapshot into this one: counts and sums add
    /// (saturating), buckets merge by lower bound and stay ascending.
    /// This is how `merced stat` and the cluster router aggregate
    /// latency distributions across processes — the merged snapshot is
    /// exactly what one process would have recorded had it seen every
    /// sample.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(la, ca)), Some(&&(lb, cb))) => match la.cmp(&lb) {
                    std::cmp::Ordering::Less => {
                        merged.push((la, ca));
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((lb, cb));
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((la, ca.saturating_add(cb)));
                        a.next();
                        b.next();
                    }
                },
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) estimated by linear
    /// interpolation inside the log bucket the rank falls in — the same
    /// estimate Prometheus' `histogram_quantile` would compute over the
    /// exposed `_bucket` series. Returns `0.0` for an empty histogram.
    ///
    /// Buckets are coarse (powers of two), so the estimate is exact only
    /// at bucket boundaries; within a bucket it assumes a uniform spread.
    /// The top bucket (`[2^63, u64::MAX]`) saturates rather than
    /// extrapolating, so the result never exceeds `u64::MAX`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut below = 0u64;
        for &(lower, count) in &self.buckets {
            let through = below.saturating_add(count);
            if through as f64 >= target {
                if lower == 0 {
                    return 0.0;
                }
                let fraction = if count == 0 {
                    0.0
                } else {
                    ((target - below as f64) / count as f64).clamp(0.0, 1.0)
                };
                let lo = lower as f64;
                return lo + fraction * (Self::bucket_upper(lower) - lo);
            }
            below = through;
        }
        // Unreachable when count == Σ bucket counts; be safe anyway.
        self.buckets
            .last()
            .map_or(0.0, |&(lower, _)| Self::bucket_upper(lower))
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The registry of all named metrics produced by one traced run.
///
/// Names are `&'static str` by design: every instrumentation site names
/// its metric with a literal, so recording never allocates.
#[derive(Debug, Default)]
pub struct Metrics {
    registry: Mutex<Registry>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut reg = self.registry.lock().unwrap();
        reg.counters.entry(name).or_default().clone()
    }

    /// Adds `delta` to the counter named `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut reg = self.registry.lock().unwrap();
        reg.gauges.entry(name).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut reg = self.registry.lock().unwrap();
        reg.histograms.entry(name).or_default().clone()
    }

    /// All counter values, sorted by name.
    #[must_use]
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        let reg = self.registry.lock().unwrap();
        reg.counters
            .iter()
            .map(|(name, c)| ((*name).to_owned(), c.get()))
            .collect()
    }

    /// All gauge values, sorted by name.
    #[must_use]
    pub fn gauges_snapshot(&self) -> BTreeMap<String, f64> {
        let reg = self.registry.lock().unwrap();
        reg.gauges
            .iter()
            .map(|(name, g)| ((*name).to_owned(), g.get()))
            .collect()
    }

    /// All histogram states, sorted by name.
    #[must_use]
    pub fn histograms_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        let reg = self.registry.lock().unwrap();
        reg.histograms
            .iter()
            .map(|(name, h)| ((*name).to_owned(), h.snapshot()))
            .collect()
    }

    /// A point-in-time snapshot of every metric as an [`Exposition`],
    /// keyed like [`crate::expo::parse`] keys a scrape: the base name
    /// mapped onto the Prometheus name charset `[a-zA-Z0-9_:]` (`.` and
    /// any other character become `_`), the label block kept verbatim.
    /// A site that wants labels embeds them in its name literal using
    /// the normal Prometheus syntax, e.g. `serve.latency_us{outcome="hit"}`
    /// becomes the series `serve_latency_us{outcome="hit"}`.
    ///
    /// [`Exposition::render_prometheus`] turns the snapshot into the
    /// `/metrics` text.
    ///
    /// # Examples
    ///
    /// ```
    /// let m = ppet_trace::Metrics::new();
    /// m.counter("serve.requests").add(2);
    /// m.histogram("serve.latency_us{outcome=\"hit\"}").record(100);
    /// let text = m.exposition().render_prometheus();
    /// assert!(text.contains("# TYPE serve_requests counter\n"));
    /// assert!(text.contains("serve_latency_us_bucket{outcome=\"hit\",le=\"127\"} 1\n"));
    /// ```
    #[must_use]
    pub fn exposition(&self) -> Exposition {
        fn keyed<V, T>(series: &BTreeMap<&str, V>, value: fn(&V) -> T) -> BTreeMap<String, T> {
            series
                .iter()
                .map(|(n, v)| (series_key(n), value(v)))
                .collect()
        }
        let reg = self.registry.lock().unwrap();
        Exposition {
            counters: keyed(&reg.counters, Counter::get),
            gauges: keyed(&reg.gauges, Gauge::get),
            histograms: keyed(&reg.histograms, Histogram::snapshot),
        }
    }
}

/// The exposition key of a registry name (see [`Metrics::exposition`]).
fn series_key(name: &str) -> String {
    let (base, labels) = name.split_at(name.find('{').unwrap_or(name.len()));
    let valid = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    base.chars()
        .map(|c| if valid(c) { c } else { '_' })
        .chain(labels.chars())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_monotone() {
        let metrics = Metrics::new();
        let a = metrics.counter("x");
        let b = metrics.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(metrics.counter("x").get(), 3);

        // Monotone: successive snapshots never decrease.
        let mut last = 0;
        for _ in 0..10 {
            a.inc();
            let now = metrics.counters_snapshot()["x"];
            assert!(now > last);
            last = now;
        }
    }

    #[test]
    fn gauges_store_last_value() {
        let metrics = Metrics::new();
        metrics.gauge("g").set(-2.5);
        assert_eq!(metrics.gauge("g").get(), -2.5);
        metrics.gauge("g").set(7.0);
        assert_eq!(metrics.gauges_snapshot()["g"], 7.0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 9);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 2 + 3 + 4 + 7 + 8 + 1000)
                .wrapping_add(u64::MAX)
        );
        // zero bucket, [1,2), [2,4) x2, [4,8) x2, [8,16), [512,1024), top.
        assert_eq!(
            snap.buckets,
            vec![
                (0, 1),
                (1, 1),
                (2, 2),
                (4, 2),
                (8, 1),
                (512, 1),
                (1 << 63, 1)
            ]
        );
        assert!(snap.mean() > 0.0);
    }

    #[test]
    fn a_locally_accumulated_batch_merges_as_its_samples() {
        let (one_by_one, batched) = (Histogram::default(), Histogram::default());
        let mut local = HistogramSnapshot::default();
        for v in [5u64, 0, 700, 3, 5, 1 << 40, 6] {
            one_by_one.record(v);
            local.record(v);
        }
        assert_eq!(local, one_by_one.snapshot());
        batched.merge(&local);
        batched.merge(&local);
        let mut twice = local.clone();
        twice.merge(&local);
        assert_eq!(batched.snapshot(), twice);
    }

    #[test]
    fn snapshot_merge_is_sample_union() {
        let (a, b, c) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in [0u64, 3, 100] {
            a.record(v);
            c.record(v);
        }
        for v in [3u64, 9000, u64::MAX] {
            b.record(v);
            c.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, c.snapshot(), "merge == recording every sample");
        let mut empty = HistogramSnapshot::default();
        empty.merge(&a.snapshot());
        assert_eq!(empty, a.snapshot());
    }

    #[test]
    fn quantile_of_an_empty_histogram_is_zero() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.quantile(0.0), 0.0);
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_of_a_single_sample_stays_inside_its_bucket() {
        let h = Histogram::default();
        h.record(100);
        let snap = h.snapshot();
        // 100 lives in [64, 128); every quantile interpolates inside it.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = snap.quantile(q);
            assert!((64.0..=128.0).contains(&v), "q={q} -> {v}");
        }
        assert_eq!(snap.quantile(1.0), 128.0);
        // Out-of-range q clamps instead of extrapolating.
        assert_eq!(snap.quantile(2.0), snap.quantile(1.0));
        assert_eq!(snap.quantile(-1.0), snap.quantile(0.0));
    }

    #[test]
    fn quantile_interpolates_linearly_within_a_bucket() {
        let h = Histogram::default();
        for v in [4, 5, 6, 7] {
            h.record(v);
        }
        let snap = h.snapshot();
        // All four samples share bucket [4, 8): the median sits halfway.
        assert_eq!(snap.quantile(0.5), 6.0);
        assert_eq!(snap.quantile(0.25), 5.0);
        assert_eq!(snap.quantile(1.0), 8.0);
    }

    #[test]
    fn quantile_saturates_at_the_top_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let snap = h.snapshot();
        let top = snap.quantile(1.0);
        assert!(top <= u64::MAX as f64, "no extrapolation past u64::MAX");
        assert!(top >= (1u64 << 63) as f64);
    }

    #[test]
    fn quantile_crosses_buckets_at_the_right_rank() {
        let h = Histogram::default();
        h.record(0); // zero bucket
        for v in [10, 11, 12] {
            h.record(v); // [8, 16)
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.1), 0.0, "rank 0.4 is in the zero bucket");
        let p75 = snap.quantile(0.75);
        assert!(
            (8.0..=16.0).contains(&p75),
            "rank 3 of 4 -> [8,16), got {p75}"
        );
    }

    #[test]
    fn prometheus_rendering_groups_families_and_mangles_names() {
        let m = Metrics::new();
        m.counter("serve.requests").add(3);
        m.gauge("serve.queue_depth").set(2.0);
        m.histogram("serve.latency_us{outcome=\"hit\"}").record(100);
        m.histogram("serve.latency_us{outcome=\"miss\"}").record(3);
        let text = m.exposition().render_prometheus();

        assert!(text.contains("# HELP serve_requests "), "{text}");
        assert!(text.contains("# TYPE serve_requests counter\n"), "{text}");
        assert!(text.contains("serve_requests 3\n"), "{text}");
        assert!(text.contains("# TYPE serve_queue_depth gauge\n"), "{text}");
        assert!(text.contains("serve_queue_depth 2\n"), "{text}");

        // One family header covers both labelled series.
        assert_eq!(
            text.matches("# TYPE serve_latency_us histogram\n").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("serve_latency_us_bucket{outcome=\"hit\",le=\"127\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_us_bucket{outcome=\"hit\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_us_sum{outcome=\"hit\"} 100\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_us_bucket{outcome=\"miss\",le=\"3\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_us_count{outcome=\"miss\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_count() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        for v in [0, 1, 5, 5, 900, u64::MAX] {
            h.record(v);
        }
        let text = m.exposition().render_prometheus();
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!buckets.is_empty());
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 6, "+Inf bucket equals count");
        assert!(text.contains("lat_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(
            text.contains(&format!("lat_bucket{{le=\"{}\"}} 6\n", u64::MAX)),
            "{text}"
        );
        assert!(text.contains("lat_count 6\n"), "{text}");
    }

    #[test]
    fn registry_exposition_bytes_are_pinned() {
        let m = Metrics::new();
        m.counter("serve.requests").add(7);
        m.counter("store.hits").add(2);
        m.gauge("serve.queue_depth").set(3.0);
        m.gauge("store.delta_ratio").set(0.25);
        // An empty bucket between samples, a zero sample, a top bucket.
        let hit = m.histogram("serve.latency_us{outcome=\"hit\"}");
        for v in [0, 5, 6, 100] {
            hit.record(v);
        }
        m.histogram("serve.latency_us{outcome=\"miss\"}")
            .record(u64::MAX);
        let text = m.exposition().render_prometheus();
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with("# HELP ")).collect();
        assert_eq!(
            samples,
            [
                "# TYPE serve_requests counter",
                "serve_requests 7",
                "# TYPE store_hits counter",
                "store_hits 2",
                "# TYPE serve_queue_depth gauge",
                "serve_queue_depth 3",
                "# TYPE store_delta_ratio gauge",
                "store_delta_ratio 0.25",
                "# TYPE serve_latency_us histogram",
                "serve_latency_us_bucket{outcome=\"hit\",le=\"0\"} 1",
                "serve_latency_us_bucket{outcome=\"hit\",le=\"7\"} 3",
                "serve_latency_us_bucket{outcome=\"hit\",le=\"127\"} 4",
                "serve_latency_us_bucket{outcome=\"hit\",le=\"+Inf\"} 4",
                "serve_latency_us_sum{outcome=\"hit\"} 111",
                "serve_latency_us_count{outcome=\"hit\"} 4",
                "serve_latency_us_bucket{outcome=\"miss\",le=\"18446744073709551615\"} 1",
                "serve_latency_us_bucket{outcome=\"miss\",le=\"+Inf\"} 1",
                "serve_latency_us_sum{outcome=\"miss\"} 18446744073709551615",
                "serve_latency_us_count{outcome=\"miss\"} 1",
            ]
        );
        // Every family still carries exactly one HELP line.
        assert_eq!(text.matches("# HELP ").count(), 5, "{text}");
    }
}
