//! # `dcgn_metrics` — the stack-wide runtime metrics registry
//!
//! Every layer of the DCGN stack (device DMA, fabric, payload pool, rmpi
//! point-to-point, the comm thread's collective engine, the GPU polling
//! thread) reports into one registry through three instrument kinds:
//!
//! * [`Counter`] — a monotonically increasing relaxed-ordering atomic.
//! * [`Gauge`] — a current value with lock-free high-water tracking.
//! * [`Histogram`] — log-bucketed latencies: 64 fixed power-of-two buckets,
//!   recorded with two relaxed atomic adds and zero allocation, with
//!   p50/p90/p99 derived at snapshot time.
//!
//! Instruments are resolved *once* by name from a [`MetricsHandle`] (a
//! cheaply cloneable reference to the registry) and then updated without
//! any locking: the hot path touches only relaxed atomics.  A handle can
//! also be **disabled** ([`MetricsHandle::disabled`]), in which case every
//! instrument it hands out is a no-op — the branch on an `Option` is the
//! entire overhead.  The repository benchmark's `metrics.counter_inc_ns`
//! probe times an enabled counter's increment.
//!
//! [`MetricsHandle::snapshot`] produces a point-in-time [`MetricsSnapshot`]:
//! sorted name → value maps that serialize to (and parse from) a small JSON
//! object of `counters`, `gauges` and `histograms`, one entry per line with
//! integer values ([`MetricsSnapshot::to_json`]), support subtraction
//! ([`MetricsSnapshot::delta_since`]) for per-run attribution, and can merge
//! per-node instrument instances into stack-wide totals
//! ([`MetricsSnapshot::aggregated`]).
//!
//! Naming convention: dot-separated, lowest layer first, with per-instance
//! suffixes `…​.node{N}` (and `…​.node{N}.gpu{G}` for per-GPU-thread
//! instruments) so [`MetricsSnapshot::aggregated`] can fold instances.
//!
//! ```
//! use dcgn_metrics::MetricsHandle;
//!
//! let metrics = MetricsHandle::new();
//! let frames = metrics.counter("fabric.frames.node0");
//! frames.add(3);
//! let lat = metrics.histogram("collective.latency.comm0.barrier.star.node0");
//! lat.record(1500);
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("fabric.frames.node0"), 3);
//! let reparsed = dcgn_metrics::MetricsSnapshot::parse(&snap.to_json()).unwrap();
//! assert_eq!(reparsed.counter("fabric.frames.node0"), 3);
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two latency buckets.  Bucket `i` holds values whose
/// bit length is `i` (bucket 0 holds only zero), i.e. the half-open value
/// range `[2^(i-1), 2^i)`; every `u64` maps to exactly one bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.  Cloning shares the underlying
/// atomic; a disabled counter ignores updates and reads zero.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter: `add`/`inc` do nothing, `get` reads 0.
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Add `n` to the counter (relaxed ordering — safe for concurrent
    /// hot-path use, totals are exact).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(v) = &self.0 {
            v.fetch_add(n, Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |v| v.load(Relaxed))
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicU64,
    high_water: AtomicU64,
}

/// A current-value instrument (queue depth, pool occupancy) that also
/// tracks its lifetime maximum lock-free via `fetch_max`; a snapshot's
/// [`GaugeStats`] reads it.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeInner>>);

impl Gauge {
    /// A no-op gauge.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Set the gauge to `v`, raising the high-water mark if `v` exceeds it.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.value.store(v, Relaxed);
            g.high_water.fetch_max(v, Relaxed);
        }
    }

    /// Add `n` to the gauge, raising the high-water mark as needed.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(g) = &self.0 {
            let now = g.value.fetch_add(n, Relaxed) + n;
            g.high_water.fetch_max(now, Relaxed);
        }
    }

    /// Subtract `n` (saturating at zero under well-ordered use; concurrent
    /// under-decrements wrap like any atomic — callers own pairing).
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(g) = &self.0 {
            g.value.fetch_sub(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.value.load(Relaxed))
    }
}

struct HistInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistInner {
    fn new() -> Self {
        HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for HistInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistInner")
            .field("count", &self.count.load(Relaxed))
            .field("sum", &self.sum.load(Relaxed))
            .field("max", &self.max.load(Relaxed))
            .finish_non_exhaustive()
    }
}

/// Bucket index for a recorded value: its bit length (0 for 0), so bucket
/// `i ≥ 1` covers `[2^(i-1), 2^i)` and the quantile upper bound for the
/// bucket is `2^i − 1`.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound of the value range bucket `i` covers (the value a quantile
/// falling in that bucket reports).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log-bucketed latency histogram.  Recording is two relaxed atomic adds
/// plus a `fetch_max` — no locks, no allocation.  Quantiles are derived at
/// snapshot time from the fixed power-of-two buckets, so a reported pXX is
/// an upper bound accurate to within 2× (one bucket).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistInner>>);

impl Histogram {
    /// A no-op histogram.
    pub fn disabled() -> Self {
        Histogram(None)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v) % HISTOGRAM_BUCKETS].fetch_add(1, Relaxed);
            h.count.fetch_add(1, Relaxed);
            h.sum.fetch_add(v, Relaxed);
            h.max.fetch_max(v, Relaxed);
        }
    }

    /// Snapshot this histogram's state.
    pub fn stats(&self) -> HistogramStats {
        match &self.0 {
            None => HistogramStats::default(),
            Some(h) => {
                let buckets: Vec<u64> = h.buckets.iter().map(|b| b.load(Relaxed)).collect();
                // Quantiles walk the cumulative counts; with racing
                // recorders the per-bucket loads may straggle behind
                // `count`, so quantile targets use the bucket total.
                let total: u64 = buckets.iter().sum();
                let quantile = |q: f64| -> u64 {
                    if total == 0 {
                        return 0;
                    }
                    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
                    let mut cum = 0u64;
                    for (i, &c) in buckets.iter().enumerate() {
                        cum += c;
                        if cum >= target {
                            return bucket_upper_bound(i);
                        }
                    }
                    bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
                };
                HistogramStats {
                    count: h.count.load(Relaxed),
                    sum: h.sum.load(Relaxed),
                    max: h.max.load(Relaxed),
                    p50: quantile(0.50),
                    p90: quantile(0.90),
                    p99: quantile(0.99),
                }
            }
        }
    }
}

/// Point-in-time view of one histogram: totals plus bucket-resolution
/// quantiles (each pXX is the upper bound of the bucket the quantile
/// falls in).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
    /// 50th-percentile upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

/// Point-in-time view of one gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeStats {
    /// Value at snapshot time.
    pub value: u64,
    /// Lifetime maximum at snapshot time.
    pub high_water: u64,
}

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeInner>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistInner>>>,
}

/// A cheaply cloneable reference to a metrics registry.  Resolving an
/// instrument by name takes a short-lived registry lock (do it once at
/// setup); the returned instrument updates lock-free thereafter.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle {
    inner: Option<Arc<Registry>>,
}

impl MetricsHandle {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        MetricsHandle {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// A disabled handle: every instrument it resolves is a no-op and
    /// [`MetricsHandle::snapshot`] is empty.  Use to measure (or opt out
    /// of) instrumentation overhead.
    pub fn disabled() -> Self {
        MetricsHandle { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(reg) => {
                let mut map = reg.counters.lock().expect("metrics registry poisoned");
                Counter(Some(Arc::clone(map.entry(name.to_string()).or_default())))
            }
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(reg) => {
                let mut map = reg.gauges.lock().expect("metrics registry poisoned");
                Gauge(Some(Arc::clone(map.entry(name.to_string()).or_default())))
            }
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(reg) => {
                let mut map = reg.histograms.lock().expect("metrics registry poisoned");
                Histogram(Some(Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistInner::new())),
                )))
            }
        }
    }

    /// A point-in-time snapshot of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(reg) = &self.inner else {
            return snap;
        };
        for (name, v) in reg
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
        {
            snap.counters.insert(name.clone(), v.load(Relaxed));
        }
        for (name, g) in reg.gauges.lock().expect("metrics registry poisoned").iter() {
            snap.gauges.insert(
                name.clone(),
                GaugeStats {
                    value: g.value.load(Relaxed),
                    high_water: g.high_water.load(Relaxed),
                },
            );
        }
        for (name, h) in reg
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
        {
            snap.histograms
                .insert(name.clone(), Histogram(Some(Arc::clone(h))).stats());
        }
        snap
    }
}

/// The process-wide default registry.  Substrate singletons (the payload
/// pool, fabrics) and anything not handed an explicit [`MetricsHandle`]
/// report here.
pub fn global() -> &'static MetricsHandle {
    static GLOBAL: OnceLock<MetricsHandle> = OnceLock::new();
    GLOBAL.get_or_init(MetricsHandle::new)
}

/// A point-in-time capture of a registry: sorted `name → value` maps, with
/// JSON round-tripping, deltas, and per-node aggregation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values and high-water marks by name.
    pub gauges: BTreeMap<String, GaugeStats>,
    /// Histogram stats by name.
    pub histograms: BTreeMap<String, HistogramStats>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_sum_by_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Gauge stats by name (zeroes if absent).
    pub fn gauge(&self, name: &str) -> GaugeStats {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// Histogram stats by name (zeroes if absent).
    pub fn histogram(&self, name: &str) -> HistogramStats {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// The change since `earlier`: counters and histogram count/sum
    /// subtract (saturating); gauges and histogram max/quantiles take this
    /// snapshot's value (they are states, not accumulations).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut delta = self.clone();
        for (name, v) in delta.counters.iter_mut() {
            *v = v.saturating_sub(earlier.counter(name));
        }
        for (name, h) in delta.histograms.iter_mut() {
            let prev = earlier.histogram(name);
            h.count = h.count.saturating_sub(prev.count);
            h.sum = h.sum.saturating_sub(prev.sum);
        }
        delta
    }

    /// Fold per-instance instruments (`…​.node{N}` / `…​.node{N}.gpu{G}`
    /// suffixes) into stack-wide totals keyed by the stripped name.
    /// Counters sum; gauge values sum and high-waters take the max (the
    /// per-instance marks need not coincide in time, so the aggregate
    /// high-water is a lower bound); histogram count/sum sum while
    /// max/quantiles take the max (an upper bound).
    pub fn aggregated(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::default();
        for (name, &v) in &self.counters {
            *agg.counters.entry(strip_instance(name)).or_insert(0) += v;
        }
        for (name, g) in &self.gauges {
            let e = agg.gauges.entry(strip_instance(name)).or_default();
            e.value += g.value;
            e.high_water = e.high_water.max(g.high_water);
        }
        for (name, h) in &self.histograms {
            let e = agg.histograms.entry(strip_instance(name)).or_default();
            e.count += h.count;
            e.sum += h.sum;
            e.max = e.max.max(h.max);
            e.p50 = e.p50.max(h.p50);
            e.p90 = e.p90.max(h.p90);
            e.p99 = e.p99.max(h.p99);
        }
        agg
    }

    /// Serialize as one JSON object with three sections, `counters`
    /// (name → integer), `gauges` (name → `{ value, high_water }`) and
    /// `histograms` (name → `{ count, sum, max, p50, p90, p99 }`): one
    /// entry per line, sorted names, integers only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("    \"{name}\": {v}"));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (name, g) in &self.gauges {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!(
                "    \"{name}\": {{ \"value\": {}, \"high_water\": {} }}",
                g.value, g.high_water
            ));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!(
                "    \"{name}\": {{ \"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                h.count, h.sum, h.max, h.p50, h.p90, h.p99
            ));
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Parse a snapshot previously rendered by [`MetricsSnapshot::to_json`].
    /// Returns `None` on any structural surprise (the parser accepts
    /// exactly this crate's dialect, not general JSON).
    pub fn parse(text: &str) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::default();
        let counters = section(text, "counters")?;
        for (name, body) in entries(counters) {
            snap.counters.insert(name, body.trim().parse().ok()?);
        }
        let gauges = section(text, "gauges")?;
        for (name, body) in entries(gauges) {
            snap.gauges.insert(
                name,
                GaugeStats {
                    value: obj_field(&body, "value")?,
                    high_water: obj_field(&body, "high_water")?,
                },
            );
        }
        let histograms = section(text, "histograms")?;
        for (name, body) in entries(histograms) {
            snap.histograms.insert(
                name,
                HistogramStats {
                    count: obj_field(&body, "count")?,
                    sum: obj_field(&body, "sum")?,
                    max: obj_field(&body, "max")?,
                    p50: obj_field(&body, "p50")?,
                    p90: obj_field(&body, "p90")?,
                    p99: obj_field(&body, "p99")?,
                },
            );
        }
        Some(snap)
    }
}

/// Strip a trailing per-instance suffix: `a.b.node3` → `a.b`,
/// `gpu.polls.node1.gpu0` → `gpu.polls`.  Names without such a suffix pass
/// through unchanged.
fn strip_instance(name: &str) -> String {
    let mut parts: Vec<&str> = name.split('.').collect();
    while parts.len() > 1 {
        let last = parts[parts.len() - 1];
        let instance = ["node", "gpu"].iter().any(|p| {
            last.strip_prefix(p)
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        });
        if !instance {
            break;
        }
        parts.pop();
    }
    parts.join(".")
}

/// Extract the body between the braces of `"key": { … }`, tracking brace
/// depth so nested objects survive.
fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = text.find(&tag)? + tag.len();
    let rest = text[start..].trim_start();
    let open = text.len() - rest.len();
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, ch) in text[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[open + 1..open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Iterate `"name": value` entries of an object body, where value is
/// either a bare integer or a `{ … }` object (no deeper nesting).
fn entries(body: &str) -> impl Iterator<Item = (String, String)> + '_ {
    let mut rest = body;
    std::iter::from_fn(move || {
        let open = rest.find('"')?;
        let after = &rest[open + 1..];
        let close = after.find('"')?;
        let name = after[..close].to_string();
        let after_colon = after[close + 1..].trim_start().strip_prefix(':')?;
        let after_colon = after_colon.trim_start();
        let (value, remaining) = if let Some(obj) = after_colon.strip_prefix('{') {
            let end = obj.find('}')?;
            (obj[..end].to_string(), &obj[end + 1..])
        } else {
            let end = after_colon.find([',', '\n']).unwrap_or(after_colon.len());
            (after_colon[..end].to_string(), &after_colon[end..])
        };
        rest = remaining;
        Some((name, value))
    })
}

/// Read the integer field `key` out of a flat object body.
fn obj_field(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag)? + tag.len();
    let rest = body[start..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_sum_exactly_across_threads() {
        let metrics = MetricsHandle::new();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        thread::scope(|s| {
            for _ in 0..THREADS {
                let c = metrics.counter("test.hits");
                let g = metrics.gauge("test.depth");
                let h = metrics.histogram("test.lat");
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        g.add(1);
                        g.sub(1);
                        h.record(i);
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("test.hits"), THREADS as u64 * PER_THREAD);
        assert_eq!(snap.gauge("test.depth").value, 0);
        assert!(snap.gauge("test.depth").high_water >= 1);
        assert_eq!(
            snap.histogram("test.lat").count,
            THREADS as u64 * PER_THREAD
        );
        assert_eq!(snap.histogram("test.lat").max, PER_THREAD - 1);
    }

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = MetricsHandle::new().histogram("empty");
        assert_eq!(h.stats(), HistogramStats::default());
    }

    #[test]
    fn single_sample_histogram_puts_every_quantile_in_its_bucket() {
        let h = MetricsHandle::new().histogram("one");
        h.record(100); // bit length 7 → bucket upper bound 127
        let s = h.stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 100);
        assert_eq!(s.max, 100);
        assert_eq!((s.p50, s.p90, s.p99), (127, 127, 127));
    }

    #[test]
    fn quantiles_split_across_buckets() {
        let h = MetricsHandle::new().histogram("q");
        // 90 fast samples (bucket ≤ [8,15]) and 10 slow (bucket [1024,2047]).
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        let s = h.stats();
        assert_eq!(s.p50, 15);
        assert_eq!(s.p90, 15); // the 90th sample is still fast
        assert_eq!(s.p99, 2047);
        assert_eq!(s.max, 1500);
    }

    #[test]
    fn zero_values_land_in_bucket_zero() {
        let h = MetricsHandle::new().histogram("z");
        h.record(0);
        let s = h.stats();
        assert_eq!((s.count, s.sum, s.max, s.p50), (1, 0, 0, 0));
    }

    #[test]
    fn disabled_handle_is_inert() {
        let metrics = MetricsHandle::disabled();
        assert!(!metrics.is_enabled());
        let c = metrics.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = metrics.gauge("y");
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = metrics.histogram("z");
        h.record(1);
        assert_eq!(h.stats().count, 0);
        assert_eq!(metrics.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn instruments_share_state_by_name() {
        let metrics = MetricsHandle::new();
        metrics.counter("shared").add(2);
        metrics.counter("shared").add(3);
        assert_eq!(metrics.snapshot().counter("shared"), 5);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let metrics = MetricsHandle::new();
        metrics.counter("fabric.frames.node0").add(12);
        metrics.counter("fabric.frames.node1").add(7);
        metrics.gauge("pool.retained").set(42);
        let h = metrics.histogram("collective.latency.comm0.barrier.star.node0");
        h.record(1000);
        h.record(2000);
        let snap = metrics.snapshot();
        let json = snap.to_json();
        let parsed = MetricsSnapshot::parse(&json).expect("own dialect parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_snapshot_json_roundtrips() {
        let snap = MetricsSnapshot::default();
        let parsed = MetricsSnapshot::parse(&snap.to_json()).expect("empty dialect parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(MetricsSnapshot::parse(""), None);
        assert_eq!(MetricsSnapshot::parse("{}"), None);
        assert_eq!(MetricsSnapshot::parse("{\"counters\": {\"a\": x}}"), None);
    }

    #[test]
    fn delta_subtracts_counters_and_histogram_totals() {
        let metrics = MetricsHandle::new();
        let c = metrics.counter("c");
        let h = metrics.histogram("h");
        c.add(10);
        h.record(100);
        let before = metrics.snapshot();
        c.add(5);
        h.record(200);
        let delta = metrics.snapshot().delta_since(&before);
        assert_eq!(delta.counter("c"), 5);
        assert_eq!(delta.histogram("h").count, 1);
        assert_eq!(delta.histogram("h").sum, 200);
    }

    #[test]
    fn aggregation_strips_instance_suffixes() {
        let metrics = MetricsHandle::new();
        metrics.counter("fabric.frames.node0").add(3);
        metrics.counter("fabric.frames.node1").add(4);
        metrics.counter("gpu.polls.node0.gpu1").add(9);
        metrics.gauge("comm.queue_depth.node0").set(2);
        metrics.gauge("comm.queue_depth.node1").set(5);
        let agg = metrics.snapshot().aggregated();
        assert_eq!(agg.counter("fabric.frames"), 7);
        assert_eq!(agg.counter("gpu.polls"), 9);
        assert_eq!(agg.gauge("comm.queue_depth").value, 7);
        assert_eq!(agg.gauge("comm.queue_depth").high_water, 5);
        assert_eq!(strip_instance("plain.name"), "plain.name");
        assert_eq!(strip_instance("a.nodeX"), "a.nodeX");
        assert_eq!(strip_instance("node1"), "node1");
    }
}
