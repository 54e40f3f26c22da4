//! Rolling-window time-series and SLO burn-rate alerting over a
//! [`Registry`].
//!
//! The registry's instruments are cumulative: counters only grow,
//! histogram quantiles are since-birth. Continuous monitoring needs the
//! *windowed* view — what happened in the last tick, at what rate — so
//! [`TimeSeries`] keeps a fixed-capacity ring of [`Window`] records,
//! each a delta snapshot of every instrument between two ticks. The
//! caller decides what a tick is: the engine advances by simulated
//! cycles (deterministic), the serve layer calls
//! [`TimeSeries::tick`] explicitly per scrape or period (wall time).
//!
//! On top of the ring, [`AlertRules`] evaluates declarative [`SloSpec`]
//! objectives (windowed quantile below a bound, counter-ratio below a
//! ceiling, counter-delta below a ceiling) as **fast/slow burn-rate
//! rules**: an alert fires when every window of the short lookback
//! violates the objective *and* at least half of the long lookback
//! does; it resolves when the short lookback is fully clean. The two
//! lookbacks give the classic burn-rate hysteresis — a single bad
//! window cannot flap an alert, and a recovered system resolves within
//! `fast_windows` ticks. Transitions are typed [`Alert`] records and
//! the whole state renders as a `bridge-alerts/1` JSON document.
//!
//! Everything here is pure observation: nothing reads host time, and
//! ticking a registry never perturbs the instruments it samples.

use crate::{json, quantile_of, Registry, HISTOGRAM_BUCKETS};
use std::collections::{BTreeMap, VecDeque};

/// Schema tag of the JSON document [`AlertRules::to_json`] renders.
pub const ALERTS_SCHEMA: &str = "bridge-alerts/1";

/// One counter's view over a single window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterWindow {
    /// Instrument name as registered.
    pub name: String,
    /// Cumulative total at the window's closing tick.
    pub total: u64,
    /// Increase within the window (the full total on the first tick;
    /// a reset counter restarts the baseline like `HealthSampler`).
    pub delta: u64,
    /// `delta` scaled to events per 1e6 elapsed units (per second for
    /// microsecond ticks, per Mcycle for cycle ticks).
    pub rate_per_m: u64,
}

/// One gauge's view at a window's closing tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeWindow {
    /// Instrument name as registered.
    pub name: String,
    /// Level at the closing tick.
    pub value: i64,
    /// Highest level ever observed.
    pub high_watermark: i64,
}

/// One histogram's view over a single window: the sample delta and
/// conservative quantiles computed over *only the samples recorded in
/// this window* (bucket-count deltas, not since-birth counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramWindow {
    /// Instrument name as registered.
    pub name: String,
    /// Samples recorded within the window.
    pub delta: u64,
    /// Windowed conservative p50 upper bound (0 when the window is
    /// empty).
    pub p50: u64,
    /// Windowed p90 upper bound.
    pub p90: u64,
    /// Windowed p99 upper bound.
    pub p99: u64,
}

/// One closed rolling window: every instrument's delta view between two
/// consecutive [`TimeSeries::tick`] calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Position in the registry-wide monotonic sample sequence
    /// ([`Registry::next_sample_seq`]) — shared with
    /// [`crate::HealthSampler`] snapshots.
    pub seq: u64,
    /// Window length in the caller's units (µs serve-side, simulated
    /// cycles engine-side).
    pub elapsed_units: u64,
    /// Counter views, name-ordered.
    pub counters: Vec<CounterWindow>,
    /// Gauge views, name-ordered.
    pub gauges: Vec<GaugeWindow>,
    /// Histogram views, name-ordered.
    pub histograms: Vec<HistogramWindow>,
}

impl Window {
    /// The named counter's delta within this window (0 if absent).
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.delta)
    }

    /// The named histogram's windowed quantile (0 if absent or empty).
    pub fn hist_quantile(&self, name: &str, q: f64) -> u64 {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| match q {
                q if q <= 0.50 => h.p50,
                q if q <= 0.90 => h.p90,
                _ => h.p99,
            })
    }
}

/// A fixed-capacity ring of rolling windows over one [`Registry`].
///
/// Not thread-safe by itself (wrap in a `Mutex` to share); one series
/// per registry, like [`crate::HealthSampler`].
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    windows: VecDeque<Window>,
    last_counters: BTreeMap<String, u64>,
    last_buckets: BTreeMap<String, [u64; HISTOGRAM_BUCKETS]>,
    total_ticks: u64,
}

impl TimeSeries {
    /// An empty series retaining at most `capacity` windows (min 1).
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            last_counters: BTreeMap::new(),
            last_buckets: BTreeMap::new(),
            total_ticks: 0,
        }
    }

    /// Closes the current window: snapshots every instrument in
    /// `registry`, computes deltas against the previous tick, pushes the
    /// window into the ring (evicting the oldest past capacity) and
    /// returns it. `elapsed_units` is the window's length in the
    /// caller's units and is used only for rate derivation.
    pub fn tick(&mut self, registry: &Registry, elapsed_units: u64) -> &Window {
        let seq = registry.next_sample_seq();
        let rate = |delta: u64| {
            if elapsed_units == 0 {
                0
            } else {
                (delta as u128 * 1_000_000 / elapsed_units as u128) as u64
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
                let delta = if total < prev { total } else { total - prev };
                CounterWindow {
                    name: name.clone(),
                    total,
                    delta,
                    rate_per_m: rate(delta),
                }
            })
            .collect();
        let gauges = registry
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(name, g)| GaugeWindow {
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
                let now = h.bucket_snapshot();
                let prev = self
                    .last_buckets
                    .insert(name.clone(), now)
                    .unwrap_or([0; HISTOGRAM_BUCKETS]);
                // Windowed bucket deltas; a reset histogram (bucket went
                // backwards) restarts the baseline at its reborn counts.
                let mut win = [0u64; HISTOGRAM_BUCKETS];
                let mut reset = false;
                for i in 0..HISTOGRAM_BUCKETS {
                    if now[i] < prev[i] {
                        reset = true;
                        break;
                    }
                    win[i] = now[i] - prev[i];
                }
                if reset {
                    win = now;
                }
                HistogramWindow {
                    name: name.clone(),
                    delta: win.iter().sum(),
                    p50: quantile_of(&win, 0.50),
                    p90: quantile_of(&win, 0.90),
                    p99: quantile_of(&win, 0.99),
                }
            })
            .collect();
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
        }
        self.windows.push_back(Window {
            seq,
            elapsed_units,
            counters,
            gauges,
            histograms,
        });
        self.total_ticks += 1;
        self.windows.back().expect("just pushed")
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl DoubleEndedIterator<Item = &Window> {
        self.windows.iter()
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&Window> {
        self.windows.back()
    }

    /// Windows currently retained.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has closed yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks ever taken (including windows already evicted).
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }
}

/// What an [`SloSpec`] holds below its bound.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// The named histogram's *windowed* `q`-quantile must stay below
    /// `bound` (e.g. `edge p99 exec_us < 1_000_000`). Empty windows read
    /// 0 and comply.
    QuantileBelow {
        /// Histogram name as registered.
        metric: String,
        /// Quantile in `0.0..=1.0` (snapped to p50/p90/p99).
        q: f64,
        /// Exclusive upper bound on the windowed quantile.
        bound: u64,
    },
    /// Per-window `num` delta over `den` delta must stay below
    /// `max_permille`/1000 (e.g. shed ratio < 5%). Windows with a zero
    /// denominator comply.
    RatioBelow {
        /// Numerator counter name.
        num: String,
        /// Denominator counter name.
        den: String,
        /// Exclusive ceiling in permille (parts per thousand).
        max_permille: u64,
    },
    /// The named counter's per-window delta must stay at or below
    /// `max_delta` (e.g. zero re-diverged sites per window).
    DeltaAtMost {
        /// Counter name as registered.
        metric: String,
        /// Inclusive ceiling on the per-window delta.
        max_delta: u64,
    },
}

/// A declarative SLO objective evaluated as a fast/slow burn-rate rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable rule name (JSON key, dashboard label).
    pub name: String,
    /// The objective.
    pub kind: SloKind,
    /// Short lookback: the alert fires only when **every** one of the
    /// last `fast_windows` windows violates, and resolves when none do.
    pub fast_windows: usize,
    /// Long lookback: firing additionally requires at least half of the
    /// last `slow_windows` windows to violate (burn-rate confirmation).
    pub slow_windows: usize,
}

impl SloSpec {
    /// A rule with 1-window fast and 4-window slow lookbacks.
    pub fn new(name: &str, kind: SloKind) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            kind,
            fast_windows: 1,
            slow_windows: 4,
        }
    }

    /// Builder-style: set both lookbacks (each min 1; slow is raised to
    /// at least fast).
    pub fn with_lookbacks(mut self, fast: usize, slow: usize) -> SloSpec {
        self.fast_windows = fast.max(1);
        self.slow_windows = slow.max(self.fast_windows);
        self
    }

    /// Whether `window` violates the objective.
    pub fn violated(&self, window: &Window) -> bool {
        match &self.kind {
            SloKind::QuantileBelow { metric, q, bound } => {
                window.hist_quantile(metric, *q) >= *bound
            }
            SloKind::RatioBelow {
                num,
                den,
                max_permille,
            } => {
                let d = window.counter_delta(den);
                d > 0 && window.counter_delta(num) * 1000 / d >= *max_permille
            }
            SloKind::DeltaAtMost { metric, max_delta } => window.counter_delta(metric) > *max_delta,
        }
    }

    /// One-line description of the objective (dashboard / alert detail).
    pub fn objective(&self) -> String {
        match &self.kind {
            SloKind::QuantileBelow { metric, q, bound } => {
                format!("windowed p{:.0} {metric} < {bound}", q * 100.0)
            }
            SloKind::RatioBelow {
                num,
                den,
                max_permille,
            } => format!("{num}/{den} < {max_permille}permille"),
            SloKind::DeltaAtMost { metric, max_delta } => {
                format!("{metric} delta <= {max_delta} per window")
            }
        }
    }
}

/// Alert lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The burn-rate rule is in violation.
    Firing,
    /// A previously firing rule has recovered.
    Resolved,
}

impl AlertState {
    /// Stable lowercase tag (JSON, metrics suffixes).
    pub fn tag(self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One typed alert transition: the moment a rule changed state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// The rule's [`SloSpec::name`].
    pub slo: String,
    /// The state entered at this transition.
    pub state: AlertState,
    /// Sample sequence of the window that triggered the transition.
    pub seq: u64,
    /// Fraction of the fast lookback violating, in permille.
    pub fast_burn_permille: u64,
    /// Fraction of the slow lookback violating, in permille.
    pub slow_burn_permille: u64,
    /// Human-readable objective text.
    pub detail: String,
}

/// Live evaluation status of one rule (rendered in JSON and dashboard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloStatus {
    /// Rule name.
    pub name: String,
    /// Whether the rule is currently firing.
    pub firing: bool,
    /// Fast-lookback burn in permille.
    pub fast_burn_permille: u64,
    /// Slow-lookback burn in permille.
    pub slow_burn_permille: u64,
    /// Objective text.
    pub objective: String,
}

/// A set of burn-rate rules with firing state and a transition log.
#[derive(Debug, Default)]
pub struct AlertRules {
    slos: Vec<SloSpec>,
    firing: Vec<bool>,
    transitions: Vec<Alert>,
}

/// Retained transition-log bound — old transitions beyond it are
/// dropped oldest-first (the counts in `serve.alerts.*` are cumulative).
const MAX_TRANSITIONS: usize = 1024;

impl AlertRules {
    /// An empty rule set.
    pub fn new() -> AlertRules {
        AlertRules::default()
    }

    /// Adds a rule (initially not firing).
    pub fn add(&mut self, spec: SloSpec) {
        self.slos.push(spec);
        self.firing.push(false);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.slos.len()
    }

    /// Whether no rule is registered.
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Burn fraction in permille over the last `lookback` windows.
    fn burn_permille(spec: &SloSpec, ts: &TimeSeries, lookback: usize) -> u64 {
        let lookback = lookback.max(1);
        let considered: Vec<&Window> = ts.windows().rev().take(lookback).collect();
        if considered.is_empty() {
            return 0;
        }
        let violated = considered.iter().filter(|w| spec.violated(w)).count();
        (violated * 1000 / considered.len()) as u64
    }

    /// Evaluates every rule against the series' current ring and
    /// returns the transitions (newly fired / newly resolved) this
    /// evaluation produced. Firing requires a full fast-lookback burn
    /// (1000 permille) **and** at least a half slow-lookback burn, with
    /// the ring holding at least `fast_windows` windows; resolving
    /// requires a zero fast burn.
    pub fn evaluate(&mut self, ts: &TimeSeries) -> Vec<Alert> {
        let Some(latest_seq) = ts.latest().map(|w| w.seq) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (spec, firing) in self.slos.iter().zip(self.firing.iter_mut()) {
            let fast = Self::burn_permille(spec, ts, spec.fast_windows);
            let slow = Self::burn_permille(spec, ts, spec.slow_windows);
            let next = if *firing {
                fast > 0 // hold until the fast lookback is fully clean
            } else {
                ts.len() >= spec.fast_windows && fast >= 1000 && slow >= 500
            };
            if next != *firing {
                *firing = next;
                out.push(Alert {
                    slo: spec.name.clone(),
                    state: if next {
                        AlertState::Firing
                    } else {
                        AlertState::Resolved
                    },
                    seq: latest_seq,
                    fast_burn_permille: fast,
                    slow_burn_permille: slow,
                    detail: spec.objective(),
                });
            }
        }
        for a in &out {
            self.transitions.push(a.clone());
        }
        if self.transitions.len() > MAX_TRANSITIONS {
            let drop = self.transitions.len() - MAX_TRANSITIONS;
            self.transitions.drain(..drop);
        }
        out
    }

    /// Current status of every rule against `ts` (no state change).
    pub fn statuses(&self, ts: &TimeSeries) -> Vec<SloStatus> {
        self.slos
            .iter()
            .zip(self.firing.iter())
            .map(|(spec, &firing)| SloStatus {
                name: spec.name.clone(),
                firing,
                fast_burn_permille: Self::burn_permille(spec, ts, spec.fast_windows),
                slow_burn_permille: Self::burn_permille(spec, ts, spec.slow_windows),
                objective: spec.objective(),
            })
            .collect()
    }

    /// Whether the named rule is currently firing.
    pub fn is_firing(&self, name: &str) -> bool {
        self.slos
            .iter()
            .position(|s| s.name == name)
            .is_some_and(|i| self.firing[i])
    }

    /// The retained transition log, oldest first.
    pub fn transitions(&self) -> &[Alert] {
        &self.transitions
    }

    /// Renders rule statuses and the transition log as a
    /// `bridge-alerts/1` JSON document (one object, deterministic
    /// ordering: rules in registration order, transitions oldest
    /// first).
    pub fn to_json(&self, ts: &TimeSeries) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.str("schema", ALERTS_SCHEMA)
                .u64("seq", ts.latest().map_or(0, |w| w.seq))
                .u64("windows", ts.len() as u64)
                .u64("ticks", ts.total_ticks())
                .array("slos", |a| {
                    for s in self.statuses(ts) {
                        a.object(|o| {
                            o.str("name", &s.name)
                                .str("state", if s.firing { "firing" } else { "ok" })
                                .u64("fast_burn_permille", s.fast_burn_permille)
                                .u64("slow_burn_permille", s.slow_burn_permille)
                                .str("objective", &s.objective);
                        });
                    }
                })
                .array("transitions", |a| {
                    for t in &self.transitions {
                        a.object(|o| {
                            o.str("slo", &t.slo)
                                .str("state", t.state.tag())
                                .u64("seq", t.seq)
                                .u64("fast_burn_permille", t.fast_burn_permille)
                                .u64("slow_burn_permille", t.slow_burn_permille);
                        });
                    }
                });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_carry_deltas_and_windowed_quantiles() {
        let r = Registry::new();
        let c = r.counter("dbt.traps");
        let h = r.histogram("exec.us");
        let mut ts = TimeSeries::new(4);

        c.add(10);
        h.observe(5);
        let w1 = ts.tick(&r, 1000).clone();
        assert_eq!(w1.counter_delta("dbt.traps"), 10);
        assert_eq!(w1.counters[0].rate_per_m, 10_000, "10 per 1000 units");
        assert_eq!(w1.histograms[0].delta, 1);
        assert_eq!(w1.histograms[0].p99, 7, "bucket [4,7] upper bound");

        // The second window sees only what happened inside it: the
        // cumulative histogram now holds {5, 1000} but the windowed p50
        // reflects 1000 alone.
        c.add(2);
        h.observe(1000);
        let w2 = ts.tick(&r, 500).clone();
        assert_eq!(w2.counter_delta("dbt.traps"), 2);
        assert_eq!(w2.counters[0].total, 12);
        assert_eq!(w2.counters[0].rate_per_m, 4000, "2 per 500 units");
        assert_eq!(w2.histograms[0].delta, 1);
        assert_eq!(w2.histograms[0].p50, 1023, "windowed, not cumulative");
        assert!(w2.seq > w1.seq, "shared sequence advances per tick");

        // An empty window reads zero everywhere.
        let w3 = ts.tick(&r, 500).clone();
        assert_eq!(w3.counter_delta("dbt.traps"), 0);
        assert_eq!(w3.histograms[0].delta, 0);
        assert_eq!(w3.histograms[0].p99, 0);
    }

    #[test]
    fn ring_is_fixed_capacity() {
        let r = Registry::new();
        r.counter("x").inc();
        let mut ts = TimeSeries::new(3);
        for _ in 0..10 {
            ts.tick(&r, 1);
        }
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.capacity(), 3);
        assert_eq!(ts.total_ticks(), 10);
        // Oldest-first iteration covers exactly the last 3 ticks.
        let seqs: Vec<u64> = ts.windows().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![8, 9, 10]);
        assert_eq!(ts.latest().unwrap().seq, 10);
    }

    #[test]
    fn burn_rate_fires_and_resolves_with_hysteresis() {
        let r = Registry::new();
        let shed = r.counter("edge.shed");
        let req = r.counter("edge.requests");
        let mut ts = TimeSeries::new(8);
        let mut rules = AlertRules::new();
        rules.add(
            SloSpec::new(
                "shed_ratio",
                SloKind::RatioBelow {
                    num: "edge.shed".into(),
                    den: "edge.requests".into(),
                    max_permille: 100, // < 10%
                },
            )
            .with_lookbacks(1, 4),
        );

        // Healthy window: 1 shed / 100 requests.
        req.add(100);
        shed.add(1);
        ts.tick(&r, 1000);
        assert!(rules.evaluate(&ts).is_empty());
        assert!(!rules.is_firing("shed_ratio"));

        // One fully burning window fires (fast=1 window at 1000‰,
        // slow=2 windows at 500‰).
        req.add(100);
        shed.add(50);
        ts.tick(&r, 1000);
        let fired = rules.evaluate(&ts);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].state, AlertState::Firing);
        assert_eq!(fired[0].fast_burn_permille, 1000);
        assert!(rules.is_firing("shed_ratio"));

        // Still violating: no new transition (level-triggered record,
        // edge-triggered log).
        req.add(100);
        shed.add(50);
        ts.tick(&r, 1000);
        assert!(rules.evaluate(&ts).is_empty());

        // One clean window resolves (fast lookback = 1 window).
        req.add(100);
        ts.tick(&r, 1000);
        let resolved = rules.evaluate(&ts);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
        assert!(!rules.is_firing("shed_ratio"));

        // The log kept both transitions in order.
        let log = rules.transitions();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].state, AlertState::Firing);
        assert_eq!(log[1].state, AlertState::Resolved);
        assert!(log[0].seq < log[1].seq);
    }

    #[test]
    fn slow_lookback_suppresses_one_bad_window_in_a_long_history() {
        let r = Registry::new();
        let bad = r.counter("watch.rediverged");
        let mut ts = TimeSeries::new(16);
        let mut rules = AlertRules::new();
        rules.add(
            SloSpec::new(
                "rediverge",
                SloKind::DeltaAtMost {
                    metric: "watch.rediverged".into(),
                    max_delta: 0,
                },
            )
            .with_lookbacks(2, 8),
        );
        // Six clean windows of history.
        for _ in 0..6 {
            ts.tick(&r, 1);
            rules.evaluate(&ts);
        }
        // One violating window: fast lookback (2) is only half burnt.
        bad.inc();
        ts.tick(&r, 1);
        assert!(rules.evaluate(&ts).is_empty(), "one bad window cannot fire");
        // A second consecutive violation burns fast fully, but slow is
        // 2/8 = 250‰ < 500‰ — still suppressed.
        bad.inc();
        ts.tick(&r, 1);
        assert!(rules.evaluate(&ts).is_empty(), "slow burn not confirmed");
        // Sustained violation crosses the slow threshold and fires.
        let mut fired = false;
        for _ in 0..4 {
            bad.inc();
            ts.tick(&r, 1);
            fired |= !rules.evaluate(&ts).is_empty();
        }
        assert!(fired, "sustained burn fires");
        assert!(rules.is_firing("rediverge"));
    }

    #[test]
    fn quantile_slo_watches_the_windowed_tail() {
        let r = Registry::new();
        let h = r.histogram("edge.exec_us");
        let mut ts = TimeSeries::new(4);
        let mut rules = AlertRules::new();
        rules.add(SloSpec::new(
            "exec_p99",
            SloKind::QuantileBelow {
                metric: "edge.exec_us".into(),
                q: 0.99,
                bound: 1024,
            },
        ));
        // Slow history, then a fast window: the *windowed* p99 recovers
        // even though the cumulative p99 stays slow forever.
        for _ in 0..10 {
            h.observe(50_000);
        }
        ts.tick(&r, 1000);
        let t = rules.evaluate(&ts);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].state, AlertState::Firing);
        for _ in 0..10 {
            h.observe(10);
        }
        ts.tick(&r, 1000);
        let t = rules.evaluate(&ts);
        assert_eq!(t.len(), 1, "cumulative quantiles would never resolve");
        assert_eq!(t[0].state, AlertState::Resolved);
    }

    #[test]
    fn alerts_json_is_wellformed_and_deterministic() {
        let r = Registry::new();
        r.counter("watch.rediverged").inc();
        let mut ts = TimeSeries::new(4);
        let mut rules = AlertRules::new();
        rules.add(SloSpec::new(
            "redi\"verge",
            SloKind::DeltaAtMost {
                metric: "watch.rediverged".into(),
                max_delta: 0,
            },
        ));
        ts.tick(&r, 7);
        rules.evaluate(&ts);
        let doc = rules.to_json(&ts);
        assert!(doc.starts_with("{\"schema\":\"bridge-alerts/1\",\"seq\":1,\"windows\":1"));
        assert!(doc.contains("\"name\":\"redi\\\"verge\",\"state\":\"firing\""));
        assert!(doc.contains("\"transitions\":[{\"slo\":\"redi\\\"verge\",\"state\":\"firing\""));
        assert!(doc.ends_with("]}"));
        assert_eq!(doc, rules.to_json(&ts), "pure function of state");
        assert_eq!(doc.matches('\n').count(), 0, "single-line document");
    }

    #[test]
    fn transition_log_is_bounded() {
        let r = Registry::new();
        let c = r.counter("flap");
        let mut ts = TimeSeries::new(2);
        let mut rules = AlertRules::new();
        rules.add(SloSpec::new(
            "flappy",
            SloKind::DeltaAtMost {
                metric: "flap".into(),
                max_delta: 0,
            },
        ));
        // Alternate violating/clean windows to generate 2 transitions
        // per cycle; the log must stay bounded.
        for _ in 0..(MAX_TRANSITIONS) {
            c.inc();
            ts.tick(&r, 1);
            rules.evaluate(&ts);
            ts.tick(&r, 1);
            rules.evaluate(&ts);
        }
        assert!(rules.transitions().len() <= MAX_TRANSITIONS);
        assert_eq!(
            rules.transitions().last().unwrap().state,
            AlertState::Resolved,
            "newest transitions are the ones retained"
        );
    }
}
