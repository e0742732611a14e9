//! Named counters and histograms with deterministic thread-merged
//! aggregation.
//!
//! Metrics are `static` items registered lazily on first use. All stored
//! state is either a `u64` tally (whose atomic additions commute, so the
//! merged total is independent of thread interleaving) or an
//! order-independent extremum, which is what makes the aggregate
//! bit-identical at every thread count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets: bucket 0 collects non-positive (and
/// non-finite) observations; buckets `1..NUM_BUCKETS` are logarithmic with
/// [`BUCKETS_PER_DECADE`] buckets per decade, spanning `1e-12` up to `1e12`
/// (the last bucket is the overflow bucket).
pub(crate) const NUM_BUCKETS: usize = 96;
/// Resolution of the logarithmic buckets.
const BUCKETS_PER_DECADE: f64 = 4.0;
/// `log10` of the lowest positive bucket boundary (`1e-12`).
const LOW_DECADE: f64 = -12.0;

/// A named, monotonically increasing `u64` metric.
///
/// Define one as a `static` and call [`Counter::add`] /
/// [`Counter::increment`] from any thread; additions are atomic and commute,
/// so the total is deterministic regardless of scheduling.
///
/// # Examples
///
/// ```
/// use pnc_obs::Counter;
///
/// static ITERATIONS: Counter = Counter::new("doc.iterations");
/// ITERATIONS.add(17);
/// ITERATIONS.increment();
/// assert_eq!(ITERATIONS.value(), 18);
/// ```
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates a counter. Use as a `static` initializer; the counter
    /// self-registers in the process-wide registry on first use.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The metric name (dot-separated, catalogued in `docs/METRICS.md`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter.
    pub fn add(&'static self, n: u64) {
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Registers the counter without changing its value, so it appears in
    /// snapshots (at zero) even before the first [`Counter::add`].
    /// Instrumented crates register their whole metric set up front so
    /// end-of-run summaries always carry the full documented catalogue.
    pub fn register(&'static self) {
        self.ensure_registered();
    }

    /// Adds 1 to the counter.
    pub fn increment(&'static self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if first_use(&self.registered) {
            registry()
                .counters
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(self);
        }
    }
}

/// A named histogram of `f64` observations over fixed logarithmic buckets.
///
/// The aggregate state is the observation count, per-bucket tallies (all
/// `u64`, hence order-independent under concurrent merging) and the running
/// min/max (extrema, also order-independent). A *sum* is deliberately **not**
/// kept: floating-point summation depends on the order of additions, which
/// would break the bit-identical-across-thread-counts contract. Consumers
/// needing a central tendency read the bucket distribution.
///
/// Buckets: bucket 0 holds non-positive and non-finite values; the rest are
/// logarithmic at 4 buckets per decade from `1e-12` to `1e12`, with the last
/// bucket collecting overflow. This spans every quantity the workspace
/// observes (KCL residuals ~1e-10, fit costs ~1e-6, RMSE volts ~1e-2,
/// durations in seconds).
///
/// # Examples
///
/// ```
/// use pnc_obs::Histogram;
///
/// static RESIDUAL: Histogram = Histogram::new("doc.residual");
/// RESIDUAL.observe(2.5e-10);
/// RESIDUAL.observe(4.0e-10);
/// let snap = pnc_obs::snapshot();
/// let h = snap.histogram("doc.residual").expect("registered");
/// assert_eq!(h.count, 2);
/// assert_eq!(h.min, Some(2.5e-10));
/// assert_eq!(h.max, Some(4.0e-10));
/// ```
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Bit pattern of the running minimum (`f64::INFINITY` when empty).
    min_bits: AtomicU64,
    /// Bit pattern of the running maximum (`f64::NEG_INFINITY` when empty).
    max_bits: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// Creates a histogram. Use as a `static` initializer; the histogram
    /// self-registers in the process-wide registry on first use.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            count: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            registered: AtomicBool::new(false),
        }
    }

    /// The metric name (dot-separated, catalogued in `docs/METRICS.md`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation.
    pub fn observe(&'static self, v: f64) {
        self.ensure_registered();
        self.count.fetch_add(1, Ordering::Relaxed);
        // pnc-lint: allow(panic-reachability) — bucket_index clamps to 0..NUM_BUCKETS for every f64 including NaN/inf (unit-tested below)
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            update_extremum(&self.min_bits, v, |new, cur| new < cur);
            update_extremum(&self.max_bits, v, |new, cur| new > cur);
        }
    }

    /// The number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Registers the histogram without recording an observation (see
    /// [`Counter::register`]).
    pub fn register(&'static self) {
        self.ensure_registered();
    }

    fn ensure_registered(&'static self) {
        if first_use(&self.registered) {
            registry()
                .histograms
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(self);
        }
    }
}

/// A named `u64` level metric holding an order-independent **running
/// maximum** — the gauge flavor that fits the determinism contract, because
/// `max` commutes like the histogram extrema do.
///
/// The canonical use is process peak RSS ([`crate::record_peak_rss`]):
/// a measurement of the *environment* rather than of the computation, so —
/// like the `_seconds` histograms — a gauge's **value** is exempt from the
/// bit-identical-across-thread-counts contract; its registration and name
/// are not. See `docs/METRICS.md` ("Gauges").
///
/// # Examples
///
/// ```
/// use pnc_obs::Gauge;
///
/// static WATERMARK: Gauge = Gauge::new("doc.watermark");
/// WATERMARK.record(10);
/// WATERMARK.record(7); // lower: ignored
/// assert_eq!(WATERMARK.value(), Some(10));
/// ```
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    /// Whether any value has been recorded (distinguishes "never measured"
    /// from a genuine zero).
    set: AtomicBool,
    registered: AtomicBool,
}

impl Gauge {
    /// Creates a gauge. Use as a `static` initializer; the gauge
    /// self-registers in the process-wide registry on first use.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
            set: AtomicBool::new(false),
            registered: AtomicBool::new(false),
        }
    }

    /// The metric name (dot-separated, catalogued in `docs/METRICS.md`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records a measurement; the gauge keeps the maximum seen so far.
    pub fn record(&'static self, v: u64) {
        self.ensure_registered();
        self.value.fetch_max(v, Ordering::Relaxed);
        self.set.store(true, Ordering::Release);
    }

    /// The largest recorded value, or `None` if nothing was recorded yet.
    pub fn value(&self) -> Option<u64> {
        self.set
            .load(Ordering::Acquire)
            .then(|| self.value.load(Ordering::Relaxed))
    }

    /// Registers the gauge without recording a value (see
    /// [`Counter::register`]).
    pub fn register(&'static self) {
        self.ensure_registered();
    }

    fn ensure_registered(&'static self) {
        if first_use(&self.registered) {
            registry()
                .gauges
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(self);
        }
    }
}

/// `true` exactly once per flag: for the one caller that flips `registered`
/// from false to true. Once the flag is set this is a single relaxed load,
/// so a metric update past its first costs no locked instruction beyond its
/// own tally (a failed compare-exchange is still a locked read-modify-write
/// on x86).
fn first_use(registered: &AtomicBool) -> bool {
    !registered.load(Ordering::Relaxed)
        && registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
}

/// CAS loop replacing the stored extremum when `better(new, current)` holds.
/// The final value depends only on the *set* of observations, never on their
/// order — which keeps histograms inside the determinism contract.
fn update_extremum(slot: &AtomicU64, v: f64, better: impl Fn(f64, f64) -> bool) {
    let mut current = slot.load(Ordering::Relaxed);
    while better(v, f64::from_bits(current)) {
        match slot.compare_exchange_weak(current, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(actual) => current = actual,
        }
    }
}

/// Maps an observation to its bucket index (see [`Histogram`] docs).
fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let raw = (v.log10() * BUCKETS_PER_DECADE - LOW_DECADE * BUCKETS_PER_DECADE).floor();
    let clamped = raw.clamp(0.0, (NUM_BUCKETS - 2) as f64);
    1 + clamped as usize
}

/// Exclusive upper bound of bucket `idx`, `None` for the non-positive bucket
/// (0) and the overflow bucket (the last one).
fn bucket_upper_bound(idx: usize) -> Option<f64> {
    if idx == 0 || idx >= NUM_BUCKETS - 1 {
        return None;
    }
    Some(10f64.powf(LOW_DECADE + idx as f64 / BUCKETS_PER_DECADE))
}

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    gauges: Mutex<Vec<&'static Gauge>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
    })
}

/// Point-in-time value of one [`Counter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Total at snapshot time.
    pub value: u64,
}

/// Point-in-time aggregate of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Smallest finite observation, `None` when empty.
    pub min: Option<f64>,
    /// Largest finite observation, `None` when empty.
    pub max: Option<f64>,
    /// Non-empty buckets as `(exclusive upper bound, count)`; the bound is
    /// `None` for the non-positive bucket and the overflow bucket.
    pub buckets: Vec<(Option<f64>, u64)>,
}

/// Point-in-time value of one [`Gauge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Largest recorded value, `None` when never recorded.
    pub value: Option<u64>,
}

/// A deterministic, name-sorted snapshot of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All registered gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
}

impl MetricsSnapshot {
    /// The value of the counter called `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The snapshot of the histogram called `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The recorded value of the gauge called `name`, if registered and
    /// ever recorded.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .and_then(|g| g.value)
    }

    /// Serializes the snapshot as a stable JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": value, ...},
    ///   "histograms": {"name": {"count": n, "min": x, "max": x,
    ///                           "buckets": [[upper_bound, count], ...]}, ...},
    ///   "gauges": {"name": value_or_null, ...}
    /// }
    /// ```
    ///
    /// Keys are sorted by metric name; a `null` bucket bound marks the
    /// non-positive and overflow buckets. Non-finite min/max serialize as
    /// `null`, as does a gauge that was registered but never recorded.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(c.name), c.value));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                escape(h.name),
                h.count,
                json_f64_opt(h.min),
                json_f64_opt(h.max)
            ));
            for (j, (bound, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{}, {}]", json_f64_opt(*bound), count));
            }
            out.push_str("]}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = match g.value {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!("\n    \"{}\": {}", escape(g.name), value));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// JSON-escapes a metric name (names are ASCII identifiers in practice; the
/// escape keeps the writer safe regardless).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an optional f64 as a JSON number or `null` (also `null` for
/// non-finite values, which JSON cannot represent).
pub(crate) fn json_f64_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format_f64(x),
        _ => "null".to_string(),
    }
}

/// Formats a finite f64 as a JSON number (Rust's shortest-roundtrip `{}`
/// display never produces exponent-free invalid JSON, but integers need a
/// trailing `.0` guard to stay floats on re-read — not required by JSON, so
/// plain display is used).
pub(crate) fn format_f64(v: f64) -> String {
    format!("{v}")
}

/// Takes a deterministic, name-sorted snapshot of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut counters: Vec<CounterSnapshot> = reg
        .counters
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|c| CounterSnapshot {
            name: c.name,
            value: c.value(),
        })
        .collect();
    counters.sort_by_key(|c| c.name);
    let mut histograms: Vec<HistogramSnapshot> = reg
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|h| {
            let count = h.count();
            let buckets: Vec<(Option<f64>, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(idx, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper_bound(idx), n))
                })
                .collect();
            let min = f64::from_bits(h.min_bits.load(Ordering::Relaxed));
            let max = f64::from_bits(h.max_bits.load(Ordering::Relaxed));
            HistogramSnapshot {
                name: h.name,
                count,
                min: min.is_finite().then_some(min),
                max: max.is_finite().then_some(max),
                buckets,
            }
        })
        .collect();
    histograms.sort_by_key(|h| h.name);
    let mut gauges: Vec<GaugeSnapshot> = reg
        .gauges
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|g| GaugeSnapshot {
            name: g.name,
            value: g.value(),
        })
        .collect();
    gauges.sort_by_key(|g| g.name);
    MetricsSnapshot {
        counters,
        histograms,
        gauges,
    }
}

/// Resets every registered metric to its empty state (counters to zero,
/// histograms to no observations). Intended for tests and for benchmark
/// binaries that measure several configurations in one process.
pub fn reset() {
    let reg = registry();
    for c in reg
        .counters
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in reg
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        h.count.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.min_bits.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        h.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
    for g in reg
        .gauges
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        g.set.store(false, Ordering::Relaxed);
        g.value.store(0, Ordering::Relaxed);
    }
}

/// Writes [`snapshot`]`().to_json()` to `path` — the end-of-run metrics
/// summary the `fig4` binary and the pipeline example emit next to their
/// main output.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_summary(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_spans_the_documented_range() {
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), 0);
        assert_eq!(bucket_index(1e-13), 1, "below range clamps to first");
        assert_eq!(bucket_index(1e13), NUM_BUCKETS - 1, "above range clamps");
        // Monotone in v.
        let mut prev = 0;
        for exp in -48..=48 {
            let v = 10f64.powf(exp as f64 / 4.0) * 1.0001;
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index must be monotone");
            prev = idx;
        }
    }

    #[test]
    fn bucket_upper_bounds_bracket_their_values() {
        for v in [1e-10, 3.3e-4, 0.02, 1.0, 7.5, 1234.5] {
            let idx = bucket_index(v);
            if let Some(ub) = bucket_upper_bound(idx) {
                assert!(v <= ub * 1.0000001, "v={v} above its bound {ub}");
            }
            if let Some(lb) = bucket_upper_bound(idx - 1) {
                assert!(v >= lb * 0.9999999, "v={v} below its bucket start {lb}");
            }
        }
    }

    #[test]
    fn json_formatting_is_valid() {
        assert_eq!(json_f64_opt(None), "null");
        assert_eq!(json_f64_opt(Some(f64::NAN)), "null");
        assert_eq!(json_f64_opt(Some(0.5)), "0.5");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn gauge_keeps_the_maximum_and_distinguishes_unset_from_zero() {
        static TEST_MAX_GAUGE: Gauge = Gauge::new("test.gauge.max");
        assert_eq!(TEST_MAX_GAUGE.value(), None);
        TEST_MAX_GAUGE.record(7);
        TEST_MAX_GAUGE.record(3);
        assert_eq!(TEST_MAX_GAUGE.value(), Some(7));
        TEST_MAX_GAUGE.record(11);
        assert_eq!(TEST_MAX_GAUGE.value(), Some(11));
        let snap = snapshot();
        assert_eq!(snap.gauge("test.gauge.max"), Some(11));
    }

    #[test]
    fn concurrent_first_use_registers_each_metric_once() {
        static RACE_COUNTER: Counter = Counter::new("test.race.counter");
        static RACE_HISTOGRAM: Histogram = Histogram::new("test.race.histogram");
        static RACE_GAUGE: Gauge = Gauge::new("test.race.gauge");
        const THREADS: u64 = 4;
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    RACE_COUNTER.add(1);
                    RACE_HISTOGRAM.observe(1.0);
                    RACE_GAUGE.record(t);
                });
            }
        });
        let snap = snapshot();
        let named = |names: Vec<&str>, name: &str| names.iter().filter(|n| **n == name).count();
        let counters = snap.counters.iter().map(|c| c.name).collect();
        let histograms = snap.histograms.iter().map(|h| h.name).collect();
        let gauges = snap.gauges.iter().map(|g| g.name).collect();
        assert_eq!(named(counters, "test.race.counter"), 1);
        assert_eq!(named(histograms, "test.race.histogram"), 1);
        assert_eq!(named(gauges, "test.race.gauge"), 1);
        assert_eq!(snap.counter("test.race.counter"), Some(THREADS));
        assert_eq!(
            snap.histogram("test.race.histogram").map(|h| h.count),
            Some(THREADS)
        );
        assert_eq!(snap.gauge("test.race.gauge"), Some(THREADS - 1));
    }

    #[test]
    fn never_recorded_gauge_serializes_as_null() {
        static TEST_UNSET_GAUGE: Gauge = Gauge::new("test.gauge.unset");
        TEST_UNSET_GAUGE.register();
        let snap = snapshot();
        assert_eq!(snap.gauge("test.gauge.unset"), None);
        assert!(snap.to_json().contains("\"test.gauge.unset\": null"));
    }
}
