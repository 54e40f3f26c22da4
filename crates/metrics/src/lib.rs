//! Zero-dependency metrics for DigitalBridge-RS.
//!
//! Three instrument kinds, chosen for the simulator's needs:
//!
//! * [`Counter`] — monotonic `u64`, for event totals (traps delivered,
//!   requests served, memoization hits);
//! * [`Gauge`] — signed instantaneous level with a high watermark, for
//!   queue depth and other "current value" observations;
//! * [`Histogram`] — fixed 65-bucket log2 histogram over `u64` samples
//!   with exact count/sum and conservative p50/p90/p99 readout, for
//!   per-request cycle distributions.
//!
//! All instruments are lock-free atomics and `Sync`; a [`Registry`] hands
//! out `Arc`-shared instruments by name and renders the whole set two
//! ways: a `bridge-metrics/1` JSON document and a Prometheus-style text
//! exposition. Both orderings come from a `BTreeMap`, so exposition is
//! deterministic for deterministic inputs.
//!
//! Determinism contract: instruments measuring the *simulated-cycle*
//! domain (exec cycles, trap counts) are exactly reproducible run-to-run
//! because the simulator itself is. Nothing in this crate reads host
//! time — any wall-clock metric must be fed by the caller and is
//! nondeterministic by nature, which the caller should document.
//!
//! Histogram buckets are value-indexed: bucket 0 holds the sample `0`,
//! bucket `i >= 1` holds samples in `[2^(i-1), 2^i)`, i.e. upper bound
//! `2^i - 1`. Quantiles are *conservative*: [`Histogram::quantile`]
//! returns the inclusive upper bound of the bucket containing the
//! requested rank, so the true quantile is never under-reported.

pub mod timeseries;

pub use timeseries::{
    Alert, AlertRules, AlertState, CounterWindow, GaugeWindow, HistogramWindow, SloKind, SloSpec,
    SloStatus, TimeSeries, Window, ALERTS_SCHEMA,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema tag of the JSON document [`Registry::to_json`] renders.
pub const SCHEMA: &str = "bridge-metrics/1";

/// Number of histogram buckets: one for zero plus one per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level with a high watermark. `set`/`add`/`sub`
/// move the level; the watermark remembers the highest level ever
/// observed (useful for "peak queue depth" without sampling).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Moves the level up by `n`.
    pub fn add(&self, n: i64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high.fetch_max(now, Ordering::Relaxed);
    }

    /// Moves the level down by `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever set or reached via `add`.
    pub fn high_watermark(&self) -> i64 {
        self.high.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram over `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index for sample `v`: 0 for zero, `ilog2(v) + 1` otherwise.
fn bucket_of(v: u64) -> usize {
    match v {
        0 => 0,
        n => n.ilog2() as usize + 1,
    }
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`, saturating at
/// `u64::MAX` for the top bucket).
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples (wrapping only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, zero when empty.
    pub fn mean(&self) -> u64 {
        match self.count() {
            0 => 0,
            n => self.sum() / n,
        }
    }

    /// The conservative `q`-quantile (`0.0..=1.0`): the inclusive upper
    /// bound of the bucket holding the sample of that rank. Zero when
    /// empty. Deterministic — a pure function of the recorded samples.
    pub fn quantile(&self, q: f64) -> u64 {
        // Snapshot the buckets once and derive the total (and hence the
        // rank) from that snapshot. Reading `count()` separately would
        // race with a concurrent `observe` between the two loads and
        // could make the rank exceed the bucket sum, spuriously falling
        // through to `u64::MAX`.
        let snapshot: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let n: u64 = snapshot.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in snapshot.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        unreachable!("rank <= snapshot sum by construction")
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// `(inclusive upper bound, count)` for each non-empty bucket,
    /// ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper(i), n))
            })
            .collect()
    }

    /// A consistent point-in-time copy of every bucket count, for
    /// windowed (delta) quantile computation in [`timeseries`].
    pub(crate) fn bucket_snapshot(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The conservative `q`-quantile over an explicit bucket-count array
/// (same convention as [`Histogram::quantile`], but over a caller-built
/// snapshot — [`timeseries`] uses it on per-window bucket deltas).
pub(crate) fn quantile_of(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> u64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_upper(i);
        }
    }
    unreachable!("rank <= bucket sum by construction")
}

/// A named set of shared instruments. Cloning the `Arc`-wrapped registry
/// is the intended sharing pattern; instrument lookups are get-or-create
/// and hand back `Arc`s so hot paths can cache the handle and bypass the
/// name map entirely.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    help: Mutex<BTreeMap<String, String>>,
    /// One monotonic sequence shared by *every* sampler of this registry
    /// — [`HealthSampler`] snapshots and [`timeseries::TimeSeries`]
    /// ticks both draw from it, so interleaved health/alert scrapes can
    /// be totally ordered no matter which thread produced them.
    sample_seq: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Attaches a `# HELP` description to the instrument named `name`
    /// (by its registered, pre-sanitization name). Undescribed
    /// instruments fall back to their registered name as help text, so
    /// the exposition always carries a HELP line per family.
    pub fn describe(&self, name: &str, help: &str) {
        self.help
            .lock()
            .expect("metrics lock")
            .insert(name.to_string(), help.to_string());
    }

    fn help_for(&self, name: &str) -> String {
        self.help
            .lock()
            .expect("metrics lock")
            .get(name)
            .cloned()
            .unwrap_or_else(|| name.to_string())
    }

    /// Draws the next value from the registry-wide monotonic sample
    /// sequence (starts at 1). Every health snapshot and every
    /// time-series window tick over this registry consumes exactly one
    /// value, so sequence numbers totally order interleaved samplers.
    pub fn next_sample_seq(&self) -> u64 {
        self.sample_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Number of registered instruments across all kinds.
    pub fn len(&self) -> usize {
        self.counters.lock().expect("metrics lock").len()
            + self.gauges.lock().expect("metrics lock").len()
            + self.histograms.lock().expect("metrics lock").len()
    }

    /// Whether no instrument was ever requested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the registry as a single-object `bridge-metrics/1` JSON
    /// document. Instruments appear in name order within their kind, so
    /// the document is a pure function of the recorded values.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"counters\":{");
        let counters = self.counters.lock().expect("metrics lock");
        for (i, (name, c)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", c.get()));
        }
        drop(counters);
        out.push_str("},\"gauges\":{");
        let gauges = self.gauges.lock().expect("metrics lock");
        for (i, (name, g)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"high_watermark\":{}}}",
                g.get(),
                g.high_watermark()
            ));
        }
        drop(gauges);
        out.push_str("},\"histograms\":{");
        let histograms = self.histograms.lock().expect("metrics lock");
        for (i, (name, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"sum\":{},\"mean\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99()
            ));
        }
        drop(histograms);
        out.push_str("}}");
        out
    }

    /// Renders the registry as a Prometheus-style text exposition: a
    /// `# HELP` line then a `# TYPE` line per family, counters and
    /// gauges as bare samples, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`. Metric names
    /// are sanitized (`.` and `-` become `_`) to the conventional
    /// charset; HELP text is escaped per the exposition format
    /// (backslash and newline).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.lock().expect("metrics lock").iter() {
            let n = sanitize(name);
            let help = escape_help(&self.help_for(name));
            out.push_str(&format!(
                "# HELP {n} {help}\n# TYPE {n} counter\n{n} {}\n",
                c.get()
            ));
        }
        for (name, g) in self.gauges.lock().expect("metrics lock").iter() {
            let n = sanitize(name);
            let help = escape_help(&self.help_for(name));
            // The watermark is a distinct metric name, so it needs its
            // own `# TYPE` line — conformant scrapers reject a sample
            // whose name differs from the preceding TYPE declaration.
            out.push_str(&format!(
                "# HELP {n} {help}\n# TYPE {n} gauge\n{n} {}\n\
                 # HELP {n}_high_watermark {help} (high watermark)\n\
                 # TYPE {n}_high_watermark gauge\n{n}_high_watermark {}\n",
                g.get(),
                g.high_watermark()
            ));
        }
        for (name, h) in self.histograms.lock().expect("metrics lock").iter() {
            let n = sanitize(name);
            let help = escape_help(&self.help_for(name));
            out.push_str(&format!("# HELP {n} {help}\n# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (upper, count) in h.nonzero_buckets() {
                cumulative += count;
                out.push_str(&format!("{n}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{n}_bucket{{le=\"+Inf\"}} {}\n{n}_sum {}\n{n}_count {}\n",
                h.count(),
                h.sum(),
                h.count()
            ));
        }
        out
    }
}

/// Escapes help text for a `# HELP` line: backslash and newline are the
/// two characters the exposition format requires escaping in help text.
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Schema tag of the one-line JSON document [`HealthSnapshot::to_json_line`]
/// renders.
pub const HEALTH_SCHEMA: &str = "bridge-health/1";

/// Rolling-window view of one counter: the cumulative total, the delta
/// over the sampling window, and the derived per-second rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterHealth {
    /// Instrument name as registered.
    pub name: String,
    /// Cumulative total at sample time.
    pub total: u64,
    /// Increase since the previous sample (the full total on the first).
    pub delta: u64,
    /// `delta` scaled to events per second over the window (integer,
    /// rounded down; zero when the window is zero).
    pub rate_per_sec: u64,
    /// The counter went *backwards* since the previous sample — the
    /// instrument was reset (its context evicted and rebuilt between
    /// samples). The baseline restarts: `delta` is the new total, not a
    /// clamped zero, and the JSON line carries a `"reset":true` marker.
    pub reset: bool,
}

/// Point-in-time view of one gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeHealth {
    /// Instrument name as registered.
    pub name: String,
    /// Current level.
    pub value: i64,
    /// Highest level ever observed.
    pub high_watermark: i64,
}

/// Rolling-window view of one histogram: cumulative quantiles plus the
/// sample delta over the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramHealth {
    /// Instrument name as registered.
    pub name: String,
    /// Cumulative samples at sample time.
    pub count: u64,
    /// Samples recorded since the previous sample.
    pub delta: u64,
    /// Conservative cumulative quantile upper bounds.
    pub p50: u64,
    /// 90th percentile upper bound.
    pub p90: u64,
    /// 99th percentile upper bound.
    pub p99: u64,
}

/// One fleet-health observation: every instrument in a [`Registry`] at a
/// moment in time, with counter/histogram deltas and rates computed over
/// the window since the previous [`HealthSampler::sample`] call. Renders
/// as a single JSON line (`bridge-health/1`) so a fleet of contexts can
/// each append one line per sampling tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Caller-supplied context label (e.g. `kernel/strategy/threshold`).
    pub context: String,
    /// Position in the registry-wide monotonic sample sequence
    /// ([`Registry::next_sample_seq`]) — shared with time-series window
    /// ticks, so interleaved health and alert scrapes can be totally
    /// ordered and out-of-order deltas detected.
    pub seq: u64,
    /// Window length in microseconds, as supplied by the caller. This
    /// crate never reads host time — wall windows are the caller's,
    /// simulated-cycle windows stay deterministic.
    pub window_us: u64,
    /// Counter views, name-ordered.
    pub counters: Vec<CounterHealth>,
    /// Gauge views, name-ordered.
    pub gauges: Vec<GaugeHealth>,
    /// Histogram views, name-ordered.
    pub histograms: Vec<HistogramHealth>,
}

impl HealthSnapshot {
    /// Renders the snapshot as one JSON line. Instruments appear in name
    /// order, so the line is a pure function of the sampled values.
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{\"schema\":\"");
        out.push_str(HEALTH_SCHEMA);
        out.push_str("\",\"context\":\"");
        for c in self.context.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str(&format!(
            "\",\"seq\":{},\"window_us\":{},\"counters\":{{",
            self.seq, self.window_us
        ));
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"total\":{},\"delta\":{},\"rate_per_sec\":{}{}}}",
                c.name,
                c.total,
                c.delta,
                c.rate_per_sec,
                if c.reset { ",\"reset\":true" } else { "" }
            ));
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"value\":{},\"high_watermark\":{}}}",
                g.name, g.value, g.high_watermark
            ));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"delta\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.name, h.count, h.delta, h.p50, h.p90, h.p99
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Computes rolling-window deltas over successive looks at a [`Registry`].
/// Holds the previous sample's counter totals and histogram counts; each
/// [`HealthSampler::sample`] call returns the registry's current state
/// with deltas and rates relative to the last call (the first call's
/// deltas are the cumulative totals).
///
/// One sampler per registry: mixing registries would make deltas
/// meaningless. Not thread-safe by itself — wrap in a `Mutex` if several
/// threads sample the same window history.
#[derive(Debug, Default)]
pub struct HealthSampler {
    last_counters: BTreeMap<String, u64>,
    last_hist_counts: BTreeMap<String, u64>,
}

impl HealthSampler {
    /// A sampler with no history (first sample reports totals as deltas).
    pub fn new() -> HealthSampler {
        HealthSampler::default()
    }

    /// Samples every instrument in `registry` and advances the window.
    /// `window_us` is the wall (or simulated) time covered since the
    /// previous sample, used only for rate derivation. The snapshot is
    /// stamped with the registry's shared monotonic sample sequence.
    pub fn sample(&mut self, registry: &Registry, context: &str, window_us: u64) -> HealthSnapshot {
        let seq = registry.next_sample_seq();
        let rate = |delta: u64| {
            if window_us == 0 {
                0
            } else {
                (delta as u128 * 1_000_000 / window_us as u128) as u64
            }
        };
        let counters = registry
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(name, c)| {
                let total = c.get();
                let prev = self.last_counters.insert(name.clone(), total).unwrap_or(0);
                // A counter that went backwards was reset (the context
                // behind it was evicted and rebuilt between samples).
                // Restart the baseline at zero — the window's delta is
                // everything the reborn counter accumulated — and say so,
                // instead of silently clamping the delta to zero.
                let reset = total < prev;
                let delta = if reset { total } else { total - prev };
                CounterHealth {
                    name: name.clone(),
                    total,
                    delta,
                    rate_per_sec: rate(delta),
                    reset,
                }
            })
            .collect();
        let gauges = registry
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(name, g)| GaugeHealth {
                name: name.clone(),
                value: g.get(),
                high_watermark: g.high_watermark(),
            })
            .collect();
        let histograms = registry
            .histograms
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(name, h)| {
                let count = h.count();
                let prev = self
                    .last_hist_counts
                    .insert(name.clone(), count)
                    .unwrap_or(0);
                HistogramHealth {
                    name: name.clone(),
                    count,
                    delta: count.saturating_sub(prev),
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                }
            })
            .collect();
        HealthSnapshot {
            context: context.to_string(),
            seq,
            window_us,
            counters,
            gauges,
            histograms,
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_level_and_watermark() {
        let g = Gauge::new();
        g.add(5);
        g.add(3);
        g.sub(6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_watermark(), 8);
        g.set(1);
        assert_eq!(g.high_watermark(), 8, "watermark never regresses");
    }

    #[test]
    fn histogram_buckets_are_log2_with_zero_bucket() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.mean(), 221);
        // Rank 3 of 5 is the sample 3, bucket [2,3] → upper bound 3.
        assert_eq!(h.p50(), 3);
        // p90 → rank 5 → sample 1000, bucket [512,1023] → 1023.
        assert_eq!(h.p90(), 1023);
        assert_eq!(h.p99(), 1023);
        assert!(h.p99() >= 1000, "true quantile never under-reported");
        assert_eq!(Histogram::new().p50(), 0, "empty histogram reads zero");
    }

    #[test]
    fn registry_shares_instruments_by_name() {
        let r = Registry::new();
        r.counter("a.b").inc();
        r.counter("a.b").inc();
        assert_eq!(r.counter("a.b").get(), 2);
        assert_eq!(r.len(), 1);
        r.gauge("q").set(3);
        r.histogram("h").observe(7);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn json_document_is_deterministic_and_ordered() {
        let build = || {
            let r = Registry::new();
            r.counter("z.traps").add(3);
            r.counter("a.requests").add(9);
            r.gauge("queue.depth").set(4);
            r.histogram("exec.cycles").observe(100);
            r.to_json()
        };
        let doc = build();
        assert_eq!(doc, build(), "pure function of recorded values");
        assert!(doc.starts_with("{\"schema\":\"bridge-metrics/1\""));
        assert!(
            doc.find("a.requests").unwrap() < doc.find("z.traps").unwrap(),
            "name order, not insertion order"
        );
        assert!(doc.contains("\"queue.depth\":{\"value\":4,\"high_watermark\":4}"));
        assert!(doc.contains("\"count\":1,\"sum\":100"));
        assert!(doc.ends_with("}}"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("serve.requests").add(14);
        r.gauge("serve.queue-depth").set(2);
        let h = r.histogram("serve.exec_cycles");
        h.observe(5);
        h.observe(900);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 14\n"));
        assert!(
            text.contains("serve_queue_depth 2\n"),
            "dots/dashes sanitized"
        );
        assert!(text.contains("# TYPE serve_exec_cycles histogram\n"));
        assert!(text.contains("serve_exec_cycles_bucket{le=\"7\"} 1\n"));
        assert!(
            text.contains("serve_exec_cycles_bucket{le=\"1023\"} 2\n"),
            "bucket counts are cumulative"
        );
        assert!(text.contains("serve_exec_cycles_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_exec_cycles_sum 905\n"));
        assert!(text.contains("serve_exec_cycles_count 2\n"));
    }

    #[test]
    fn gauge_watermark_gets_its_own_type_line() {
        let r = Registry::new();
        r.gauge("queue.depth").set(7);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 7\n"));
        assert!(
            text.contains(
                "# TYPE queue_depth_high_watermark gauge\nqueue_depth_high_watermark 7\n"
            ),
            "watermark series is a distinct metric and needs its own TYPE: {text}"
        );
    }

    #[test]
    fn empty_registry_expositions_are_empty_but_well_formed() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(
            r.to_json(),
            "{\"schema\":\"bridge-metrics/1\",\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert_eq!(r.to_prometheus(), "");
        let snap = HealthSampler::new().sample(&r, "empty", 0);
        assert_eq!(
            snap.to_json_line(),
            "{\"schema\":\"bridge-health/1\",\"context\":\"empty\",\"seq\":1,\"window_us\":0,\
             \"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn prometheus_every_sample_name_matches_a_type_declaration() {
        let r = Registry::new();
        r.counter("dbt.traps").add(3);
        r.gauge("serve.edge.queue.depth").set(2);
        r.histogram("serve.exec_cycles").observe(100);
        r.histogram("serve.edge.queue_wait_us").observe(0);
        let text = r.to_prometheus();
        // Parse line by line the way a conformant scraper does: every
        // sample must belong to the family most recently declared by a
        // `# TYPE` line (same name, or `name_bucket`/`name_sum`/`name_count`
        // for histograms), and every TYPE line is preceded by a HELP
        // line for the same family.
        let mut declared: Option<(String, String)> = None;
        let mut last_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                last_help = Some(
                    rest.split_whitespace()
                        .next()
                        .expect("HELP line has a name")
                        .to_string(),
                );
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest
                    .split_whitespace()
                    .next()
                    .expect("TYPE line has a name");
                assert_eq!(
                    last_help.as_deref(),
                    Some(name),
                    "every TYPE line is preceded by its family's HELP line"
                );
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("TYPE line has a name").to_string();
                let kind = it.next().expect("TYPE line has a kind").to_string();
                assert!(matches!(kind.as_str(), "counter" | "gauge" | "histogram"));
                declared = Some((name, kind));
                continue;
            }
            let sample_name = line
                .split([' ', '{'])
                .next()
                .expect("sample line has a name");
            let (family, kind) = declared.as_ref().expect("sample precedes any TYPE line");
            let ok = match kind.as_str() {
                "histogram" => {
                    sample_name == format!("{family}_bucket")
                        || sample_name == format!("{family}_sum")
                        || sample_name == format!("{family}_count")
                }
                _ => sample_name == family.as_str(),
            };
            assert!(ok, "sample `{sample_name}` under TYPE `{family}` ({kind})");
        }
    }

    #[test]
    fn quantile_is_torn_snapshot_free_under_concurrent_observe() {
        use std::sync::atomic::AtomicBool;
        let h = Arc::new(Histogram::new());
        h.observe(1); // never empty, so quantile always walks buckets
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.observe(v);
                        v = v.wrapping_mul(2999).wrapping_add(1) % 10_000;
                    }
                })
            })
            .collect();
        // Before the fix, `count()` could read a total larger than the
        // bucket sum seen by the walk, falling through to u64::MAX.
        for _ in 0..200_000 {
            let q = h.quantile(0.99);
            assert!(q <= bucket_upper(bucket_of(9_999)), "torn snapshot: {q}");
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("writer thread");
        }
    }

    #[test]
    fn health_sampler_windows_deltas_and_rates() {
        let r = Registry::new();
        let c = r.counter("serve.requests");
        c.add(10);
        r.gauge("serve.edge.queue.depth").set(3);
        let h = r.histogram("serve.exec_cycles");
        h.observe(100);
        let mut s = HealthSampler::new();
        let first = s.sample(&r, "ctx-a", 1_000_000);
        assert_eq!(first.counters[0].total, 10);
        assert_eq!(first.counters[0].delta, 10, "first window reports totals");
        assert_eq!(first.counters[0].rate_per_sec, 10);
        assert_eq!(first.histograms[0].delta, 1);
        c.add(5);
        h.observe(200);
        h.observe(300);
        let second = s.sample(&r, "ctx-a", 500_000);
        assert_eq!(second.counters[0].total, 15);
        assert_eq!(second.counters[0].delta, 5);
        assert_eq!(second.counters[0].rate_per_sec, 10, "5 events / 0.5s");
        assert_eq!(second.histograms[0].delta, 2);
        assert_eq!(second.gauges[0].value, 3);
        let line = second.to_json_line();
        assert!(line.starts_with("{\"schema\":\"bridge-health/1\",\"context\":\"ctx-a\""));
        assert!(line.contains("\"serve.requests\":{\"total\":15,\"delta\":5,\"rate_per_sec\":10}"));
        assert!(line.ends_with("}}"));
        assert_eq!(line.matches('\n').count(), 0, "one line per snapshot");
    }

    /// Regression: a counter that goes *backwards* between samples (its
    /// context was evicted and rebuilt, so the instrument restarted at
    /// zero) used to clamp to a silent zero delta. The sampler must flag
    /// the reset, restart the baseline, and report the reborn counter's
    /// accumulation as the window's delta.
    #[test]
    fn health_sampler_flags_counter_resets() {
        let mut s = HealthSampler::new();
        let r1 = Registry::new();
        r1.counter("cache.insertions").add(10);
        let first = s.sample(&r1, "ctx", 1_000_000);
        assert!(!first.counters[0].reset);
        assert!(!first.to_json_line().contains("\"reset\""));

        // The context is rebuilt: same instrument name, fresh counter
        // that has only accumulated 3 since its rebirth.
        let r2 = Registry::new();
        r2.counter("cache.insertions").add(3);
        let snap = s.sample(&r2, "ctx", 1_000_000);
        let c = &snap.counters[0];
        assert!(c.reset, "backwards counter must be reported as a reset");
        assert_eq!(c.total, 3);
        assert_eq!(c.delta, 3, "baseline restarts at zero, not clamped to 0");
        assert_eq!(c.rate_per_sec, 3);
        assert!(snap.to_json_line().contains(
            "\"cache.insertions\":{\"total\":3,\"delta\":3,\"rate_per_sec\":3,\"reset\":true}"
        ));

        // The next window resumes ordinary deltas from the new baseline.
        r2.counter("cache.insertions").add(2);
        let third = s.sample(&r2, "ctx", 1_000_000);
        assert!(!third.counters[0].reset);
        assert_eq!(third.counters[0].delta, 2);
    }

    #[test]
    fn health_context_labels_are_json_escaped() {
        let r = Registry::new();
        let snap = HealthSampler::new().sample(&r, "k\"ern\\el\n", 0);
        assert!(snap
            .to_json_line()
            .contains("\"context\":\"k\\\"ern\\\\el\\u000a\""));
    }

    /// Satellite: the exposition carries a `# HELP` line per family —
    /// described instruments use their description, undescribed ones
    /// fall back to the registered (pre-sanitization) name — and help
    /// text / metric names are escaped/sanitized.
    #[test]
    fn prometheus_help_lines_with_escaping() {
        let r = Registry::new();
        r.counter("dbt.traps").add(3);
        r.describe(
            "dbt.traps",
            "Misalignment traps delivered\nto the OS \\ handler",
        );
        r.gauge("queue.depth").set(2);
        r.counter("odd-name.with spaces").inc();
        let text = r.to_prometheus();
        // Described counter: help text with newline and backslash escaped.
        assert!(
            text.contains(
                "# HELP dbt_traps Misalignment traps delivered\\nto the OS \\\\ handler\n\
                 # TYPE dbt_traps counter\ndbt_traps 3\n"
            ),
            "escaped HELP precedes TYPE: {text}"
        );
        // Undescribed gauge: the registered dotted name is the help text,
        // and the watermark family gets its own HELP + TYPE pair.
        assert!(text.contains("# HELP queue_depth queue.depth\n# TYPE queue_depth gauge\n"));
        assert!(text.contains(
            "# HELP queue_depth_high_watermark queue.depth (high watermark)\n\
             # TYPE queue_depth_high_watermark gauge\n"
        ));
        // Name sanitization still applies to the sample and both comment
        // lines (label charset: [a-zA-Z0-9_:]).
        assert!(text.contains("# HELP odd_name_with_spaces odd-name.with spaces\n"));
        assert!(text.contains("# TYPE odd_name_with_spaces counter\nodd_name_with_spaces 1\n"));
        assert_eq!(escape_help("plain"), "plain");
    }

    /// Satellite fix: health snapshots and time-series ticks draw from
    /// ONE registry-wide monotonic sequence, so two racing scrapers can
    /// never observe duplicate or out-of-order sequence numbers.
    #[test]
    fn sample_seq_is_shared_and_monotonic_across_racing_scrapers() {
        let r = Arc::new(Registry::new());
        r.counter("serve.requests").add(1);
        let seqs: Vec<std::thread::JoinHandle<Vec<u64>>> = (0..2)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut sampler = HealthSampler::new();
                    let mut ts = timeseries::TimeSeries::new(8);
                    let mut seen = Vec::new();
                    for _ in 0..500 {
                        // One scraper takes health snapshots, the other
                        // advances alert windows — the interleaving the
                        // shared sequence has to order.
                        if i == 0 {
                            seen.push(sampler.sample(&r, "ctx", 1000).seq);
                        } else {
                            seen.push(ts.tick(&r, 1000).seq);
                        }
                    }
                    seen
                })
            })
            .collect();
        let mut all: Vec<u64> = Vec::new();
        for h in seqs {
            let seen = h.join().expect("scraper thread");
            assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "each scraper sees strictly increasing seqs"
            );
            all.extend(seen);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "no duplicate seq across racing scrapers");
        assert_eq!(*all.first().unwrap(), 1);
        assert_eq!(*all.last().unwrap(), 1000);
    }
}
