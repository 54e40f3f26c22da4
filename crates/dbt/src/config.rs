//! DBT configuration: strategy selection and tuning knobs (the paper's
//! Table II).

use crate::profile::StaticProfile;
use crate::shared::SharedCodeCache;
use bridge_metrics::Registry;
pub use bridge_trace::{SpanConfig, TraceConfig, WatchConfig};
use std::sync::Arc;

/// The MDA handling mechanism under evaluation (the paper's §III–IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MdaStrategy {
    /// QEMU-style: every non-byte memory operation becomes the MDA code
    /// sequence (§III-A). Never traps; pays the sequence everywhere.
    Direct,
    /// FX!32-style: a training run's profile decides which sites get the
    /// sequence (§III-B). Requires [`DbtConfig::static_profile`]. Sites the
    /// training run missed trap on every dynamic MDA and are fixed up in
    /// software by the OS handler.
    StaticProfiling,
    /// IA-32 EL-style: phase-1 profiling decides (§III-C). Sites that never
    /// misaligned during the profiling window trap on every dynamic MDA.
    DynamicProfiling,
    /// The paper's proposed mechanism (§IV): translate everything as
    /// aligned; on the first trap at a site, patch it into a branch to an
    /// MDA-sequence stub in the code cache. Optionally rearrange code to
    /// restore locality ([`DbtConfig::rearrange`]).
    ExceptionHandling,
    /// Dynamic Profiling + Exception Handling (§IV-B): phase-1 profiling
    /// catches the early sites at translation time; the exception handler
    /// catches the rest. Supports [`DbtConfig::retranslate`] (§IV-C) and
    /// [`DbtConfig::multiversion`] (§IV-D).
    Dpeh,
}

impl MdaStrategy {
    /// All five mechanisms, in the paper's presentation order.
    pub const ALL: [MdaStrategy; 5] = [
        MdaStrategy::Direct,
        MdaStrategy::StaticProfiling,
        MdaStrategy::DynamicProfiling,
        MdaStrategy::ExceptionHandling,
        MdaStrategy::Dpeh,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MdaStrategy::Direct => "Direct Method",
            MdaStrategy::StaticProfiling => "Static Profiling",
            MdaStrategy::DynamicProfiling => "Dynamic Profiling",
            MdaStrategy::ExceptionHandling => "Exception Handling",
            MdaStrategy::Dpeh => "DPEH",
        }
    }

    /// Short machine-friendly slug (CLI flags, span scopes, flame
    /// frames) — the same spellings `trace_report --strategy` accepts.
    pub fn slug(self) -> &'static str {
        match self {
            MdaStrategy::Direct => "direct",
            MdaStrategy::StaticProfiling => "static",
            MdaStrategy::DynamicProfiling => "dynamic",
            MdaStrategy::ExceptionHandling => "eh",
            MdaStrategy::Dpeh => "dpeh",
        }
    }
}

impl std::fmt::Display for MdaStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct DbtConfig {
    /// The mechanism under evaluation.
    pub strategy: MdaStrategy,
    /// Heating threshold: a block is translated after this many
    /// interpretations (the paper sweeps 10–5000 in Figure 10; 50 is the
    /// balance point).
    pub hot_threshold: u64,
    /// Training-run profile for [`MdaStrategy::StaticProfiling`]. Held
    /// behind an [`Arc`] so a multi-guest service can build the profile
    /// once and hand every guest the same immutable artifact by reference
    /// (FX!32's database model); single-guest callers pass an owned
    /// profile and never notice.
    pub static_profile: Option<Arc<StaticProfile>>,
    /// Exception handling: reposition MDA code inline (retranslating the
    /// block) instead of branching to a distant stub (§IV-A, Figure 6/11).
    pub rearrange: bool,
    /// DPEH: invalidate and retranslate a block once
    /// [`DbtConfig::retranslate_threshold`] traps have hit it (§IV-C,
    /// Figure 13).
    pub retranslate: bool,
    /// Trap count per block that triggers retranslation (the paper uses 4).
    pub retranslate_threshold: u32,
    /// Cap on retranslations per block, to bound thrashing on adversarial
    /// phase behaviour (not in the paper; documented in DESIGN.md).
    pub max_retranslations: u32,
    /// DPEH: emit alignment-checked two-version code for sites whose
    /// profile shows both aligned and misaligned executions (§IV-D,
    /// Figure 14).
    pub multiversion: bool,
    /// Minimum samples in each class before a site is considered mixed.
    pub multiversion_min_samples: u64,
    /// DPEH: emit the paper's Figure 8 "truly adaptive" code instead of
    /// plain MDA sequences — an alignment-checked sequence that counts
    /// consecutive aligned executions and asks the monitor to revert the
    /// site to a plain access once the streak reaches
    /// [`DbtConfig::reversion_threshold`]. The paper describes this method
    /// in §IV-D and argues it is not worth its overhead; this option exists
    /// to measure that claim.
    pub adaptive_reversion: bool,
    /// Consecutive aligned executions before an adaptive site reverts
    /// (Figure 8 uses 1000; must fit an Alpha 8-bit operate literal).
    pub reversion_threshold: u8,
    /// Link translated blocks directly (branch chaining). On by default,
    /// as in DigitalBridge.
    pub chaining: bool,
    /// In-code-cache dispatch: emit an inline IBTC probe at every
    /// `ret`/computed-target exit so translated→translated transfers stay
    /// inside the code cache, and backpatch exit stubs lazily the first
    /// time the monitor sees the target translated. Off by default so the
    /// paper's experiments reproduce byte-identically (see DESIGN.md
    /// "Dispatch").
    pub in_cache_dispatch: bool,
    /// With [`DbtConfig::in_cache_dispatch`]: also push a shadow return
    /// stack entry on translated `call` and pop it on `ret`, falling back
    /// to the IBTC probe on tag mismatch. No effect unless
    /// `in_cache_dispatch` is on.
    pub shadow_ras: bool,
    /// Emit a retired-guest-instruction counter increment at every block
    /// entry, so [`RunReport::guest_insns_retired`] is exact. Off by
    /// default (one extra host instruction per block).
    ///
    /// [`RunReport::guest_insns_retired`]: crate::report::RunReport::guest_insns_retired
    pub count_retired: bool,
    /// Structured tracing ([`bridge_trace`]): `Some` attaches an enabled
    /// [`Tracer`](bridge_trace::Tracer) recording per-site telemetry, phase
    /// timelines and a bounded event ring, read back afterwards via
    /// [`Dbt::trace_snapshot`](crate::Dbt::trace_snapshot). `None` (the
    /// default) installs the no-op tracer; tracing never charges simulated
    /// cycles, so results are identical either way.
    pub trace: Option<TraceConfig>,
    /// Hierarchical span recording ([`bridge_trace::span`]): `Some`
    /// attaches an enabled
    /// [`SpanRecorder`](bridge_trace::SpanRecorder) that measures
    /// translate / execute / trap-fixup / image-restore intervals per TB
    /// under a per-run root span, read back afterwards via
    /// [`Dbt::span_snapshot`](crate::Dbt::span_snapshot). Spans never
    /// charge simulated cycles — results are byte-identical with or
    /// without them (asserted by the perf harness span leg).
    pub spans: Option<SpanConfig>,
    /// Continuous per-site re-divergence watch
    /// ([`bridge_trace::watch`]): `Some` attaches a
    /// [`SiteWatch`](bridge_trace::SiteWatch) fed from the engine's
    /// event stream and advanced by simulated cycles, read back
    /// afterwards via [`Dbt::watch_snapshot`](crate::Dbt::watch_snapshot)
    /// or [`Dbt::take_watch`](crate::Dbt::take_watch). Watching never
    /// charges simulated cycles — results are byte-identical with or
    /// without it (asserted across all strategies by the perf harness
    /// watch leg).
    pub watch: Option<WatchConfig>,
    /// Shared metrics registry ([`bridge_metrics`]): `Some` makes
    /// [`Dbt::run`](crate::Dbt::run) add the run's event counts (traps,
    /// patches, fixups, flushes, translations, code-cache and dispatch-hint
    /// hits) to it when it returns, `Ok` or `Err`; the registry lags a
    /// running engine. Like tracing, metrics never charge simulated
    /// cycles — results are identical with or without them. The `Arc`
    /// lets a multi-guest service aggregate every engine into one
    /// registry.
    pub metrics: Option<Arc<Registry>>,
    /// The translation cache to use. Every engine has exactly one
    /// [`SharedCodeCache`], shared or alone: `Some` makes this engine one
    /// vCPU executor over a fleet's cache — installs are served from
    /// fleet entries when a valid one exists (translation happens once per
    /// variant fleet-wide) and guest-code patches publish to every
    /// attached engine. `None` (the default) means the engine creates its
    /// own cache of [`DbtConfig::code_bytes`]. Either way the engine pays
    /// the full *simulated* translation charge on every install, so
    /// results are byte-identical; sharing saves host-side translation
    /// work only. The code region evicts least-recently-used blocks when
    /// it fills; the stub region ([`DbtConfig::stub_bytes`]) flushes the
    /// whole cache. A supplied cache's capacity must not exceed
    /// [`DbtConfig::code_bytes`].
    pub shared_cache: Option<Arc<SharedCodeCache>>,
    /// Translate every statically reachable block before execution starts,
    /// as FX!32's offline translator did (Figure 3's pre-execution phase).
    /// Most useful with [`MdaStrategy::StaticProfiling`].
    pub pretranslate: bool,
    /// Bytes reserved for translated blocks.
    pub code_bytes: u64,
    /// Bytes reserved for exception-handler stubs.
    pub stub_bytes: u64,
    /// Maximum guest instructions translated into one block.
    pub max_block_insns: usize,
}

impl DbtConfig {
    /// Configuration with the paper's defaults for a given strategy
    /// (threshold 50, retranslation threshold 4, chaining on, options off).
    pub fn new(strategy: MdaStrategy) -> DbtConfig {
        DbtConfig {
            strategy,
            hot_threshold: 50,
            static_profile: None,
            rearrange: false,
            retranslate: false,
            retranslate_threshold: 4,
            max_retranslations: 8,
            multiversion: false,
            multiversion_min_samples: 2,
            adaptive_reversion: false,
            reversion_threshold: 200,
            chaining: true,
            in_cache_dispatch: false,
            shadow_ras: true,
            count_retired: false,
            trace: None,
            spans: None,
            watch: None,
            metrics: None,
            shared_cache: None,
            pretranslate: false,
            code_bytes: 2 * 1024 * 1024,
            stub_bytes: 1024 * 1024,
            max_block_insns: 64,
        }
    }

    /// Builder-style: set the heating threshold.
    pub fn with_threshold(mut self, threshold: u64) -> DbtConfig {
        self.hot_threshold = threshold;
        self
    }

    /// Builder-style: supply a training profile (implies nothing about the
    /// strategy; only [`MdaStrategy::StaticProfiling`] consults it).
    /// Accepts an owned [`StaticProfile`] or a shared `Arc<StaticProfile>`,
    /// so single-guest callers and the sharded service use the same entry
    /// point.
    pub fn with_static_profile(mut self, profile: impl Into<Arc<StaticProfile>>) -> DbtConfig {
        self.static_profile = Some(profile.into());
        self
    }

    /// Builder-style: enable code rearrangement.
    pub fn with_rearrange(mut self, on: bool) -> DbtConfig {
        self.rearrange = on;
        self
    }

    /// Builder-style: enable retranslation.
    pub fn with_retranslate(mut self, on: bool) -> DbtConfig {
        self.retranslate = on;
        self
    }

    /// Builder-style: enable multi-version code.
    pub fn with_multiversion(mut self, on: bool) -> DbtConfig {
        self.multiversion = on;
        self
    }

    /// Builder-style: enable Figure 8 adaptive reversion.
    pub fn with_adaptive_reversion(mut self, on: bool) -> DbtConfig {
        self.adaptive_reversion = on;
        self
    }

    /// Builder-style: enable or disable block chaining.
    pub fn with_chaining(mut self, on: bool) -> DbtConfig {
        self.chaining = on;
        self
    }

    /// Builder-style: enable FX!32-style offline pretranslation.
    pub fn with_pretranslate(mut self, on: bool) -> DbtConfig {
        self.pretranslate = on;
        self
    }

    /// Builder-style: enable in-code-cache dispatch (IBTC + lazy chaining).
    pub fn with_in_cache_dispatch(mut self, on: bool) -> DbtConfig {
        self.in_cache_dispatch = on;
        self
    }

    /// Builder-style: enable or disable the shadow return stack.
    pub fn with_shadow_ras(mut self, on: bool) -> DbtConfig {
        self.shadow_ras = on;
        self
    }

    /// Builder-style: enable the exact retired-instruction counter.
    pub fn with_count_retired(mut self, on: bool) -> DbtConfig {
        self.count_retired = on;
        self
    }

    /// Builder-style: attach structured tracing with the given bounds.
    pub fn with_trace(mut self, trace: TraceConfig) -> DbtConfig {
        self.trace = Some(trace);
        self
    }

    /// Builder-style: attach hierarchical span recording with the given
    /// bounds.
    pub fn with_spans(mut self, spans: SpanConfig) -> DbtConfig {
        self.spans = Some(spans);
        self
    }

    /// Builder-style: attach a continuous per-site re-divergence watch
    /// with the given rolling-window parameters.
    pub fn with_watch(mut self, watch: WatchConfig) -> DbtConfig {
        self.watch = Some(watch);
        self
    }

    /// Builder-style: attach a shared metrics registry the engine adds
    /// its event counts to when each run returns.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> DbtConfig {
        self.metrics = Some(registry);
        self
    }

    /// Builder-style: attach a fleet-shared translation cache, making
    /// this engine one vCPU executor over it.
    pub fn with_shared_cache(mut self, cache: Arc<SharedCodeCache>) -> DbtConfig {
        self.shared_cache = Some(cache);
        self
    }
}

impl Default for DbtConfig {
    fn default() -> DbtConfig {
        DbtConfig::new(MdaStrategy::Dpeh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DbtConfig::new(MdaStrategy::Dpeh);
        assert_eq!(c.hot_threshold, 50);
        assert_eq!(c.retranslate_threshold, 4);
        assert!(c.chaining);
        assert!(!c.rearrange && !c.retranslate && !c.multiversion);
        // In-cache dispatch is an opt-in: the paper's tables must
        // reproduce byte-identically with the defaults.
        assert!(!c.in_cache_dispatch);
        assert!(!c.count_retired);
        assert!(c.trace.is_none(), "tracing is opt-in");
        assert!(c.spans.is_none(), "span recording is opt-in");
        assert!(c.watch.is_none(), "re-divergence watch is opt-in");
        assert!(c.metrics.is_none(), "metrics are opt-in");
        assert!(
            c.shared_cache.is_none(),
            "no cache supplied: the engine creates its own"
        );
    }

    #[test]
    fn span_builder_attaches_config() {
        let c = DbtConfig::new(MdaStrategy::ExceptionHandling)
            .with_spans(SpanConfig::default().with_ring_capacity(128));
        assert_eq!(c.spans.as_ref().unwrap().ring_capacity, 128);
        assert!(
            !c.spans.as_ref().unwrap().wall_clock,
            "engine spans stay pure"
        );
    }

    #[test]
    fn strategy_slugs_are_cli_spellings() {
        let slugs: Vec<&str> = MdaStrategy::ALL.iter().map(|s| s.slug()).collect();
        assert_eq!(slugs, ["direct", "static", "dynamic", "eh", "dpeh"]);
    }

    #[test]
    fn shared_cache_builder_attaches() {
        let sh = SharedCodeCache::new(1 << 20);
        let c = DbtConfig::new(MdaStrategy::Dpeh).with_shared_cache(Arc::clone(&sh));
        assert!(Arc::ptr_eq(c.shared_cache.as_ref().unwrap(), &sh));
    }

    #[test]
    fn metrics_builder_attaches_registry() {
        let registry = Arc::new(Registry::new());
        let c = DbtConfig::new(MdaStrategy::Dpeh).with_metrics(Arc::clone(&registry));
        c.metrics.as_ref().unwrap().counter("probe").inc();
        assert_eq!(registry.counter("probe").get(), 1, "same shared registry");
    }

    #[test]
    fn trace_builder_attaches_config() {
        let c = DbtConfig::new(MdaStrategy::ExceptionHandling)
            .with_trace(TraceConfig::default().with_bucket_cycles(1 << 12));
        assert_eq!(c.trace.as_ref().unwrap().bucket_cycles, 1 << 12);
    }

    #[test]
    fn dispatch_builders_chain() {
        let c = DbtConfig::new(MdaStrategy::Dpeh)
            .with_in_cache_dispatch(true)
            .with_shadow_ras(false)
            .with_count_retired(true);
        assert!(c.in_cache_dispatch);
        assert!(!c.shadow_ras);
        assert!(c.count_retired);
    }

    #[test]
    fn builder_chains() {
        let c = DbtConfig::new(MdaStrategy::ExceptionHandling)
            .with_threshold(500)
            .with_rearrange(true)
            .with_chaining(false);
        assert_eq!(c.hot_threshold, 500);
        assert!(c.rearrange);
        assert!(!c.chaining);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(MdaStrategy::ALL.len(), 5);
        for s in MdaStrategy::ALL {
            assert!(!s.name().is_empty());
        }
        assert_eq!(MdaStrategy::Dpeh.to_string(), "DPEH");
    }
}
