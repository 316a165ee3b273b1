//! Metrics registry: counters, gauges and one distribution type, the
//! log-linear [`Histogram`], with a serializable, mergeable snapshot.
//!
//! Counter and gauge handles are `Arc`s onto shared atomics (one relaxed
//! atomic op per update); a histogram is a short-held mutex over its
//! buckets. The registry's name maps are locked only at registration and
//! snapshot time. A [`Registry`] is cheap to clone (it *is* an `Arc`); the
//! simulator owns one per run so results stay attributable and
//! deterministic under parallel tests, while the process-wide
//! [`global()`](crate::global) registry backs the CLI and the daemon.
//!
//! Every histogram has the same fixed bucket layout: 16 linear sub-buckets
//! per power-of-two octave over `[2^-20, 2^44)`, plus one underflow bucket
//! (zero, negatives, tiny values) and one overflow bucket. An interpolated
//! quantile is therefore within 1/16 relative of the exact nearest-rank
//! value, and two histograms merge by adding bucket counts. A snapshot
//! carries its non-empty buckets, so [`Registry::absorb`] of a snapshot
//! loses nothing: it is the one way registries are folded together. Span
//! timers ([`span!`](crate::span)) are histograms of nanosecond durations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Monotone event count. Cloning shares the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point value (with a max-tracking helper for
/// high-water marks). Cloning shares the underlying atomic.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Keep the maximum of the current value and `v` (high-water mark).
    #[inline]
    pub fn record_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Lowest resolved octave: values below `2^MIN_EXP` underflow.
const MIN_EXP: i32 = -20;
/// Values at or above `2^MAX_EXP` overflow.
const MAX_EXP: i32 = 44;
/// Linear sub-buckets per octave: the top `SUB_BITS` mantissa bits.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Underflow bucket, the resolved buckets, overflow bucket.
const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUBS + 2;

/// The bucket `v` (not NaN) falls in, from its exponent and top mantissa
/// bits.
fn bucket_of(v: f64) -> usize {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if v <= 0.0 || exp < MIN_EXP {
        0
    } else if exp >= MAX_EXP {
        BUCKETS - 1
    } else {
        1 + (exp - MIN_EXP) as usize * SUBS + (bits >> (52 - SUB_BITS)) as usize % SUBS
    }
}

/// Lower edge of resolved bucket `i` (`1 ≤ i < BUCKETS`).
fn lower_edge(i: usize) -> f64 {
    let (octave, sub) = ((i - 1) / SUBS, (i - 1) % SUBS);
    (SUBS + sub) as f64 * 2f64.powi(MIN_EXP + octave as i32 - SUB_BITS as i32)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Log-linear histogram over the fixed layout in the [module
/// docs](self): per-bucket counts plus exact count/sum/min/max. Bucket
/// storage grows only as far as the largest bucket recorded, so a fresh
/// histogram allocates nothing.
#[derive(Debug, Default)]
pub struct Histogram(Mutex<Dist>);

#[derive(Debug, Default)]
struct Dist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Dist {
    fn add(
        &mut self,
        buckets: impl Iterator<Item = (usize, u64)>,
        n: u64,
        sum: f64,
        lo: f64,
        hi: f64,
    ) {
        if n == 0 {
            return;
        }
        for (i, c) in buckets {
            if i >= self.buckets.len() {
                self.buckets.resize(i + 1, 0);
            }
            self.buckets[i] += c;
        }
        (self.min, self.max) =
            if self.count == 0 { (lo, hi) } else { (self.min.min(lo), self.max.max(hi)) };
        self.count += n;
        self.sum += sum;
    }
}

impl Histogram {
    /// Record one observation. NaN is ignored — one NaN sample must
    /// neither panic the registry nor poison `sum`. Infinities count as
    /// `±f64::MAX`, so `sum` only ever adds finite values and cannot
    /// become NaN.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let v = v.clamp(-f64::MAX, f64::MAX);
        lock(&self.0).add(std::iter::once((bucket_of(v), 1)), 1, v, v, v);
    }

    /// Add a snapshot's buckets and count/sum/min/max to this histogram.
    fn merge(&self, s: &HistogramSnapshot) {
        let buckets = s.buckets.iter().map(|&(i, c)| (usize::from(i), c));
        lock(&self.0).add(buckets, s.count, s.sum, s.min, s.max);
    }

    /// Point-in-time summary: exact count/sum/min/max, interpolated
    /// quantiles, and the non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let d = lock(&self.0);
        let buckets: Vec<(u16, u64)> = (0..d.buckets.len())
            .filter(|&i| d.buckets[i] > 0)
            .map(|i| (i as u16, d.buckets[i]))
            .collect();
        let (count, min, max) = (d.count, d.min, d.max);
        // Nearest rank, interpolated inside its bucket and clamped to the
        // observed range; the underflow/overflow buckets report min/max.
        let at = |q: f64| -> f64 {
            let target = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for &(i, c) in &buckets {
                if seen + c >= target {
                    let v = match usize::from(i) {
                        0 => min,
                        i if i + 1 >= BUCKETS => max,
                        i => {
                            let lo = lower_edge(i);
                            lo + (lower_edge(i + 1) - lo) * (target - seen) as f64 / c as f64
                        }
                    };
                    return v.max(min).min(max);
                }
                seen += c;
            }
            max
        };
        let [p50, p90, p95, p99] =
            if count == 0 { [0.0; 4] } else { [0.5, 0.9, 0.95, 0.99].map(at) };
        HistogramSnapshot { count, sum: d.sum, min, max, p50, p90, p95, p99, buckets }
    }
}

/// Serializable summary of one [`Histogram`]; complete, so
/// [`Registry::absorb`] can merge it back.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Median estimate (within 1/16 relative of the nearest-rank value).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Non-empty buckets as `(index, count)`, ascending: 0 is underflow,
    /// the last index of the layout overflow.
    pub buckets: Vec<(u16, u64)>,
}

/// A plain wall-clock stopwatch. This is the sanctioned way for the
/// serving and runner layers to measure elapsed time when the duration
/// feeds a metric (raw `Instant::now()` timing outside this crate is
/// grep-gated by `scripts/check.sh`), keeping every timing source in
/// one place.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { started: Instant::now() }
    }

    /// Elapsed nanoseconds since [`start`](Stopwatch::start).
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Elapsed milliseconds, fractional.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e6
    }

    /// Elapsed seconds, fractional.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

type Named<T> = Mutex<BTreeMap<String, T>>;

/// Get or create the entry `name`.
fn named<T: Clone + Default>(map: &Named<T>, name: &str) -> T {
    let mut map = lock(map);
    if let Some(v) = map.get(name) {
        return v.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

fn read<T, S>(map: &Named<T>, f: impl Fn(&T) -> S) -> BTreeMap<String, S> {
    lock(map).iter().map(|(k, v)| (k.clone(), f(v))).collect()
}

#[derive(Default)]
struct Inner {
    counters: Named<Counter>,
    gauges: Named<Gauge>,
    histograms: Named<Arc<Histogram>>,
    spans: Named<Arc<Histogram>>,
}

/// A metrics registry. Clones share state.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        named(&self.inner.counters, name)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        named(&self.inner.gauges, name)
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        named(&self.inner.histograms, name)
    }

    /// Record one span of `elapsed_ns` under `label` (what a
    /// [`span!`](crate::span) guard does when it drops).
    pub fn record_span_ns(&self, label: &str, elapsed_ns: u64) {
        named(&self.inner.spans, label).record(elapsed_ns as f64);
    }

    /// Fold a snapshot of another registry into this one: counters add,
    /// gauges take the snapshot's value (last writer wins), histograms and
    /// spans merge bucket by bucket. This is how per-run registries (the
    /// simulator's, each runner job's) surface in the process-wide
    /// [`global`](crate::global) registry.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name).merge(h);
        }
        for (label, h) in &snap.spans {
            named(&self.inner.spans, label).merge(h);
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read(&self.inner.counters, Counter::get),
            gauges: read(&self.inner.gauges, Gauge::get),
            histograms: read(&self.inner.histograms, |h| h.snapshot()),
            spans: read(&self.inner.spans, |h| h.snapshot()),
        }
    }
}

/// Serializable copy of a [`Registry`]'s state at one instant; fold it
/// into a registry with [`Registry::absorb`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span wall times by label, as histograms of nanoseconds.
    pub spans: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Number of distinct metrics across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len() + self.spans.len()
    }

    /// True when no metric of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges verbatim, histograms as
    /// `summary` series (p50/p90/p95/p99 quantile labels + `_sum`/
    /// `_count`), and spans as summaries `ibox_span_<label>_seconds`.
    /// Metric names are sanitized to `[a-zA-Z0-9_:]` and prefixed `ibox_`.
    pub fn to_prometheus(&self) -> String {
        fn name(raw: &str) -> String {
            let mut out = String::with_capacity(raw.len() + 5);
            out.push_str("ibox_");
            for c in raw.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn num(v: f64) -> String {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            }
        }
        fn summary(out: &mut String, n: &str, h: &HistogramSnapshot, per_unit: f64) {
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", num(v / per_unit)));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", num(h.sum / per_unit), h.count));
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = name(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = name(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", num(*v)));
        }
        for (k, h) in &self.histograms {
            summary(&mut out, &name(k), h, 1.0);
        }
        for (k, h) in &self.spans {
            summary(&mut out, &name(&format!("span.{k}.seconds")), h, 1e9);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal exposition-format check: every line is a `# TYPE`
    /// comment or `name[{labels}] value` with a legal metric name and a
    /// parseable float value.
    fn assert_prometheus_grammar(text: &str) {
        fn legal_name(s: &str) -> bool {
            !s.is_empty()
                && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        for line in text.lines().filter(|l| !l.is_empty()) {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_ascii_whitespace();
                let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                assert!(legal_name(name), "bad TYPE name in {line:?}");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary" | "histogram"),
                    "bad TYPE kind in {line:?}"
                );
                continue;
            }
            let (series, value) =
                line.rsplit_once(' ').unwrap_or_else(|| panic!("no value in {line:?}"));
            let name = series.split('{').next().unwrap();
            assert!(legal_name(name), "bad metric name in {line:?}");
            if let Some(labels) = series.strip_prefix(name) {
                if !labels.is_empty() {
                    assert!(
                        labels.starts_with('{') && labels.ends_with('}'),
                        "bad labels in {line:?}"
                    );
                }
            }
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    /// Deterministic uniform draws in (0, 1) (SplitMix64).
    fn uniform(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 + 0.5 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// Standard normal draws (Box–Muller over [`uniform`] pairs).
    fn normal(seed: u64, n: usize) -> Vec<f64> {
        let u = uniform(seed, 2 * n);
        u.chunks(2)
            .map(|p| (-2.0 * p[0].ln()).sqrt() * (std::f64::consts::TAU * p[1]).cos())
            .collect()
    }

    #[test]
    fn prometheus_exposition_covers_every_metric_kind() {
        let reg = Registry::new();
        reg.counter("fitcache.hit").add(3);
        reg.gauge("serve.uptime_s").set(12.5);
        reg.histogram("serve.latency.fit_ms").record(4.0);
        reg.record_span_ns("model-fit", 2_000_000);
        let text = reg.snapshot().to_prometheus();
        assert_prometheus_grammar(&text);
        assert!(text.contains("# TYPE ibox_fitcache_hit counter\nibox_fitcache_hit 3\n"));
        assert!(text.contains("ibox_serve_uptime_s 12.5\n"));
        assert!(text.contains("# TYPE ibox_serve_latency_fit_ms summary\n"));
        assert!(text.contains("ibox_serve_latency_fit_ms{quantile=\"0.95\"} 4\n"));
        assert!(text.contains("ibox_serve_latency_fit_ms_count 1\n"));
        assert!(text.contains("# TYPE ibox_span_model_fit_seconds summary\n"));
        assert!(text.contains("ibox_span_model_fit_seconds{quantile=\"0.5\"} 0.002\n"));
        assert!(text.contains("ibox_span_model_fit_seconds_sum 0.002\n"));
    }

    #[test]
    fn counters_and_gauges_record() {
        let reg = Registry::new();
        let c = reg.counter("events");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Same name → same underlying counter.
        reg.counter("events").inc();
        assert_eq!(c.get(), 11);

        let g = reg.gauge("depth");
        g.set(3.5);
        g.record_max(2.0); // lower: ignored
        assert_eq!(g.get(), 3.5);
        g.record_max(7.25);
        assert_eq!(g.get(), 7.25);
    }

    #[test]
    fn buckets_are_sixteen_linear_steps_per_octave() {
        assert_eq!(lower_edge(1), 2f64.powi(MIN_EXP));
        assert_eq!(lower_edge(BUCKETS - 1), 2f64.powi(MAX_EXP));
        for i in 1..BUCKETS - 1 {
            let (lo, hi) = (lower_edge(i), lower_edge(i + 1));
            assert_eq!(bucket_of(lo), i, "lower edge {lo} of bucket {i}");
            assert_eq!(bucket_of(hi.next_down()), i, "just below the upper edge {hi}");
            assert!((hi - lo) / lo <= 1.0 / 16.0, "bucket {i} is wider than 1/16");
        }
        assert_eq!(bucket_of(1.0), 1 + 20 * SUBS);
        assert_eq!(bucket_of(1.0625), 2 + 20 * SUBS);
    }

    #[test]
    fn hostile_values_land_in_the_edge_buckets_and_never_poison_sum() {
        // One NaN latency sample must not panic the whole registry (a sort
        // by partial_cmp().unwrap() once did; total_cmp fixed it), and no
        // value may make sum NaN.
        let last = BUCKETS - 1;
        let table: [(f64, Option<usize>); 12] = [
            (f64::NAN, None),
            (-f64::NAN, None),
            (-1.0, Some(0)),
            (-0.0, Some(0)),
            (0.0, Some(0)),
            (5e-324, Some(0)), // subnormal
            (f64::MIN_POSITIVE, Some(0)),
            (2f64.powi(MIN_EXP).next_down(), Some(0)),
            (f64::NEG_INFINITY, Some(0)),
            (2f64.powi(MAX_EXP), Some(last)),
            (f64::MAX, Some(last)),
            (f64::INFINITY, Some(last)),
        ];
        let all = Histogram::default();
        for (v, bucket) in table {
            let h = Histogram::default();
            h.record(v);
            all.record(v);
            let s = h.snapshot();
            assert_eq!(
                s.buckets,
                bucket.map(|b| (b as u16, 1)).into_iter().collect::<Vec<_>>(),
                "{v}"
            );
            assert_eq!(s.count, u64::from(bucket.is_some()), "{v}");
            assert!(!s.sum.is_nan() && !s.p50.is_nan() && !s.max.is_nan(), "{v}: {s:?}");
        }
        let s = all.snapshot();
        assert_eq!(s.count, 10);
        assert!(!s.sum.is_nan(), "sum of every hostile value: {}", s.sum);
        assert_eq!((s.min, s.max), (-f64::MAX, f64::MAX));
    }

    #[test]
    fn quantiles_are_within_a_sixteenth_of_nearest_rank() {
        let n = 2_000;
        let cases: [(&str, Vec<f64>); 4] = [
            ("uniform(1, 1000)", uniform(1, n).iter().map(|u| 1.0 + 999.0 * u).collect()),
            ("N(55, 3) ms", normal(2, n).iter().map(|z| 55.0 + 3.0 * z).collect()),
            (
                "lognormal(19.4 ms, 0.55)",
                normal(3, n).iter().map(|z| 19.4 * (0.55 * z).exp()).collect(),
            ),
            (
                "loss in (0.001, 0.5)",
                uniform(4, n).iter().map(|u| 0.001 * 500f64.powf(*u)).collect(),
            ),
        ];
        for (name, sample) in cases {
            let h = Histogram::default();
            sample.iter().for_each(|&v| h.record(v));
            let s = h.snapshot();
            let mut sorted = sample.clone();
            sorted.sort_by(f64::total_cmp);
            for (q, got) in [(0.5, s.p50), (0.9, s.p90), (0.95, s.p95), (0.99, s.p99)] {
                let exact = sorted[(q * n as f64).ceil() as usize - 1];
                assert!(
                    (got - exact).abs() <= exact / 16.0,
                    "{name}: p{} = {got}, nearest rank {exact}",
                    q * 100.0
                );
            }
            assert_eq!((s.min, s.max), (sorted[0], sorted[n - 1]), "{name}");
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn span_timers_nest_and_aggregate() {
        let scope = crate::scoped();
        {
            let _outer = crate::span!("outer");
            for _ in 0..3 {
                let _inner = crate::span!("inner");
                std::hint::black_box((0..1000u64).sum::<u64>());
            }
        }
        let snap = scope.finish().snapshot();
        let (outer, inner) = (&snap.spans["outer"], &snap.spans["inner"]);
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        // The outer span encloses all inner spans.
        assert!(outer.sum >= inner.sum);
        assert!(inner.max <= inner.sum);
    }

    fn every_kind() -> Registry {
        let reg = Registry::new();
        reg.counter("a").add(7);
        reg.gauge("b").set(2.5);
        for v in [0.0, 0.3, 42.0, 1e6, 3e15] {
            reg.histogram("c").record(v);
        }
        reg.histogram("empty");
        reg.record_span_ns("e", 123);
        reg.record_span_ns("e", 4_567_890);
        reg
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = every_kind().snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.len(), 5);
    }

    #[test]
    fn absorbing_a_snapshot_into_an_empty_registry_reproduces_it() {
        let snap = every_kind().snapshot();
        let target = Registry::new();
        target.absorb(&snap);
        assert_eq!(target.snapshot(), snap);
    }

    #[test]
    fn absorb_accumulates_counters_histograms_and_spans() {
        let per_run = Registry::new();
        per_run.counter("n").add(5);
        per_run.gauge("g").set(3.0);
        per_run.histogram("h").record(9.0);
        per_run.record_span_ns("s", 100);

        let target = Registry::new();
        target.counter("n").add(2);
        target.gauge("g").set(1.0);
        target.histogram("h").record(0.5);
        target.record_span_ns("s", 40);
        target.absorb(&per_run.snapshot());
        target.absorb(&per_run.snapshot());

        let snap = target.snapshot();
        assert_eq!(snap.counters["n"], 12);
        assert_eq!(snap.gauges["g"], 3.0);
        let h = &snap.histograms["h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 18.5, 0.5, 9.0));
        assert_eq!(h.buckets, vec![(bucket_of(0.5) as u16, 1), (bucket_of(9.0) as u16, 2)]);
        let s = &snap.spans["s"];
        assert_eq!((s.count, s.sum, s.min, s.max), (3, 240.0, 40.0, 100.0));
    }
}
