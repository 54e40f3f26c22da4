//! Multi-guest sharded execution service for DigitalBridge-RS.
//!
//! The paper evaluates its five MDA mechanisms one guest at a time; the
//! ROADMAP north-star is a production-scale service handling many guests
//! at once. This crate is that throughput backbone: one dispatch loop in
//! which worker threads drain a [`FairQueue`] of [`RunRequest`]s, each
//! running an independent [`Dbt`] instance. Two submitters feed it:
//! [`ExecService::run_batch`] queues a whole batch and aggregates the
//! results deterministically, and the network [`edge`] admits requests
//! one at a time and answers each over its socket. The loop is the same
//! for both; only the delivery of each answer differs.
//!
//! # Shared read-only artifacts
//!
//! FX!32 kept its static profile in an on-disk database produced by a
//! background optimizer from complete representative runs, consulted by
//! every later execution (PAPER.md §2.2). The service reproduces that
//! model in memory: per [`KernelSpec`] it builds the kernel image and —
//! for [`MdaStrategy::StaticProfiling`] guests — the [`StaticProfile`]
//! from the spec's full training input ([`KernelSpec::training_spec`])
//! **once**, then hands every shard the same immutable artifact behind an
//! [`Arc`]. The naive per-request path ([`ExecService::run_sequential`])
//! re-derives both for every request, which is exactly the redundancy the
//! service amortizes away; on a training-dominated batch the pooled path
//! wins ≥2x wall-clock without needing a second CPU (the `perf` harness
//! and the `serve_speedup` test assert this).
//!
//! # Determinism contract
//!
//! Every guest is an isolated engine: own [`Dbt`], own simulated machine,
//! own memory. Worker assignment therefore cannot influence any result —
//! only wall-clock. Aggregation is keyed by **request slot index** (the
//! position in the submitted batch), never by worker or completion order:
//! merged [`Stats`] fold in slot order, [`BatchReport::guests`] is indexed
//! by slot, and the merged site table keys rows by `(slot, guest PC)`.
//! Consequently a batch's [`BatchReport`] — stats, per-guest reports,
//! memory read-back and merged JSONL trace tables — is byte-identical
//! across shard counts, including `shards = 1` and the sequential
//! baseline. The `serve_determinism` integration tests pin this.
//!
//! # Shared translation cache
//!
//! Every engine has exactly one translation cache
//! ([`bridge_dbt::SharedCodeCache`]), shared or alone. The pooled shards
//! are vCPU workers sharing one: per *translation context* —
//! `(kernel spec, strategy, hot threshold)`, see
//! [`RunRequest::translation_context`] — the service memoizes one cache,
//! and every request in that context attaches to it. Translation then
//! happens once per context fleet-wide; later guests validate and reuse
//! the products. Because engines still pay the full *simulated*
//! translation charge on every install, results stay byte-identical to an
//! engine alone on its own cache — the determinism contract above is
//! unchanged, and [`ExecService::run_sequential`], whose engines each get
//! a cache of their own, doubles as its witness. The saving is host-side
//! translation work, visible in the `dbt.blocks_translated` and
//! `dbt.code_cache.*` counters.

pub mod deadline;
pub mod edge;
pub mod request;
pub mod tenant;

pub use deadline::Deadline;
pub use edge::{EdgeClient, EdgeConfig, EdgeResponse, EdgeServer, EdgeStatus, EDGE_SCHEMA};
pub use request::{KernelSpec, RunRequest};
pub use tenant::{FairQueue, QuotaLedger};

use crate::tenant::TryPushError;
use bridge_dbt::engine::profile_program;
use bridge_dbt::image::{content_hash, ImageError, ImageKey, ImageStore, TranslationImage};
use bridge_dbt::{
    Dbt, DbtConfig, MdaStrategy, RunReport, SharedCacheStats, SharedCodeCache, StaticProfile,
};
use bridge_metrics::{
    Alert, AlertRules, AlertState, CounterHealth, GaugeHealth, HealthSampler, HealthSnapshot,
    Registry, SloSpec, TimeSeries,
};
use bridge_sim::cost::CostModel;
use bridge_sim::stats::Stats;
use bridge_trace::{
    MergedSiteTable, SiteVerdict, SiteWatch, SpanConfig, SpanId, SpanKind, SpanRecorder,
    TraceConfig, TraceEvent, Tracer, WatchConfig,
};
use bridge_workloads::kernels::Kernel;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Fuel budget per guest (large; kernels halt by construction).
pub const FUEL: u64 = 200_000_000_000;

/// Service tuning: batch pool width, tracing, persistence and telemetry.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads [`ExecService::run_batch`] runs the dispatch loop on.
    pub shards: usize,
    /// Trace bounds applied to guests whose request asks for tracing.
    pub trace: TraceConfig,
    /// Directory of persistent AOT translation images. When set, every
    /// new translation context warm-starts from the store's artifact if a valid one
    /// exists, and [`ExecService::run_batch`] persists each context's
    /// cache back after the batch. Results are byte-identical with or
    /// without a store — only host-side translation work differs.
    pub image_store: Option<PathBuf>,
    /// Record request-lifecycle spans (enqueue → queue-wait → dispatch →
    /// warm-start → engine run → aggregate) into a service-level
    /// [`SpanRecorder`], and enable cycle-domain engine spans on every
    /// guest. Off by default. Like `serve.edge.queue_wait_us`, the serve-layer
    /// spans carry host wall-clock stamps and are nondeterministic
    /// utilization diagnostics; batch *results* stay byte-identical with
    /// spans on or off (the `serve_spans` tests pin this).
    pub spans: bool,
    /// Attach a per-site re-divergence watch to every guest engine. The
    /// watch is pure observation (watched runs are byte-identical to
    /// bare — the `serve_watch` and `bench` watch tests pin this); each
    /// run's sealed [`SiteWatch`] lands in [`GuestResult::watch`] and is
    /// merged into the fleet-wide watch the dashboard reports. Off by
    /// default.
    pub watch: Option<WatchConfig>,
    /// Declarative SLO burn-rate rules evaluated on every telemetry tick
    /// ([`ExecService::tick`]); transitions surface as typed
    /// [`Alert`] records, `serve.alerts.*` metrics and the `OP_ALERTS`
    /// edge document. Empty by default.
    pub slos: Vec<SloSpec>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 4,
            trace: TraceConfig::default(),
            image_store: None,
            spans: false,
            watch: None,
            slos: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// Builder-style: set the worker count (at least 1).
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style: set the trace bounds for tracing guests.
    pub fn with_trace(mut self, trace: TraceConfig) -> ServeConfig {
        self.trace = trace;
        self
    }

    /// Builder-style: warm-start from (and persist to) an artifact store
    /// rooted at `dir`.
    pub fn with_image_store(mut self, dir: impl Into<PathBuf>) -> ServeConfig {
        self.image_store = Some(dir.into());
        self
    }

    /// Builder-style: enable request-lifecycle span recording.
    pub fn with_spans(mut self, on: bool) -> ServeConfig {
        self.spans = on;
        self
    }

    /// Builder-style: attach the re-divergence watch to every guest.
    pub fn with_watch(mut self, watch: WatchConfig) -> ServeConfig {
        self.watch = Some(watch);
        self
    }

    /// Builder-style: register one SLO burn-rate rule (callable
    /// repeatedly; rules evaluate in registration order).
    pub fn with_slo(mut self, slo: SloSpec) -> ServeConfig {
        self.slos.push(slo);
        self
    }
}

/// What one guest produced: the engine report plus the read-back of the
/// kernel's observed memory ranges and the optional trace snapshot.
#[derive(Debug, Clone)]
pub struct GuestResult {
    /// The request this guest executed.
    pub request: RunRequest,
    /// The engine's run report.
    pub report: RunReport,
    /// Final guest memory over [`KernelSpec::observed_ranges`], in range
    /// order — the determinism tests' memory witness.
    pub memory: Vec<(u32, Vec<u8>)>,
    /// Trace snapshot, when the request asked for tracing.
    pub tracer: Option<Tracer>,
    /// The engine's cycle-domain span snapshot, when the service records
    /// spans ([`ServeConfig::spans`]). Also adopted into the service
    /// recorder under this request's dispatch span.
    pub spans: Option<SpanRecorder>,
    /// The sealed per-site re-divergence watch, when the service attaches
    /// one ([`ServeConfig::watch`]). Also merged into the fleet watch.
    pub watch: Option<SiteWatch>,
}

/// Aggregated batch outcome, deterministic in the submitted order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// All guests' [`Stats`] folded in slot order via [`Stats::merge`].
    pub merged_stats: Stats,
    /// Per-guest results indexed by request slot.
    pub guests: Vec<GuestResult>,
}

impl BatchReport {
    fn from_guests(guests: Vec<GuestResult>) -> BatchReport {
        let mut merged_stats = Stats::new();
        for g in &guests {
            merged_stats.merge(&g.report.stats);
        }
        BatchReport {
            merged_stats,
            guests,
        }
    }

    /// The merged per-site trace table over every traced guest, keyed by
    /// `(slot, guest PC)`.
    pub fn merged_sites(&self) -> MergedSiteTable {
        let mut table = MergedSiteTable::new();
        for (slot, g) in self.guests.iter().enumerate() {
            if let Some(t) = &g.tracer {
                table.add_guest(slot as u64, t);
            }
        }
        table
    }

    /// Every guest's [`RunReport`] rendered to text, slot-prefixed — the
    /// byte-comparable form (reports hold hash maps and have no `Eq`).
    pub fn reports_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (slot, g) in self.guests.iter().enumerate() {
            let _ = writeln!(
                out,
                "== guest {slot}: {} / {} ==\n{}",
                g.request.kernel.name(),
                g.request.strategy,
                g.report,
            );
        }
        out
    }
}

/// Per-spec shared artifacts, each built at most once.
#[derive(Default)]
struct SpecArtifacts {
    kernel: OnceLock<Arc<Kernel>>,
    profile: OnceLock<Arc<StaticProfile>>,
}

/// One translation context's shared cache plus its warm-start pedigree.
#[derive(Clone)]
struct ContextCache {
    cache: Arc<SharedCodeCache>,
    /// Whether the cache was pre-populated from a persistent AOT image.
    preloaded: bool,
}

/// One queued run: the request, its admission stamps, and `reply` — what
/// the submitter needs to route the answer (a batch slot, or an edge
/// connection and request id).
struct Job<R> {
    req: RunRequest,
    deadline: Deadline,
    enqueued: Instant,
    /// The request's root span and its enqueue wall stamp, so the worker
    /// can close the queue-wait span it never saw open.
    req_span: SpanId,
    enq_us: Option<u64>,
    reply: R,
}

/// Content hash of a kernel's guest image: code bytes plus layout (base,
/// entry, data placement, stack top). Two kernels with equal hashes are
/// identical translation inputs, so one's persisted translation products
/// serve the other — the guest half of an [`ImageKey`].
pub fn kernel_hash(kernel: &Kernel) -> u64 {
    let base = kernel.program.base().to_le_bytes();
    let entry = kernel.program.entry().to_le_bytes();
    let stack = kernel.stack_top.to_le_bytes();
    let addrs: Vec<[u8; 4]> = kernel.data.iter().map(|(a, _)| a.to_le_bytes()).collect();
    let mut parts: Vec<&[u8]> = vec![&base, &entry, &stack, kernel.program.image()];
    for ((_, bytes), addr) in kernel.data.iter().zip(&addrs) {
        parts.push(addr);
        parts.push(bytes);
    }
    content_hash(&parts)
}

/// The execution service: a [`ServeConfig`] plus the memoized shared
/// artifacts and the service-wide metrics registry. One instance serves
/// many batches; artifacts and metrics persist across them.
///
/// # Metrics
///
/// Every service owns a [`Registry`] (read it via
/// [`ExecService::metrics`]) and feeds it from both layers: the service
/// itself (requests served, per-request simulated exec cycles, artifact
/// memoization hits/misses, and — from the dispatch loop, whichever
/// submitter fed it — queue depth with high watermark, host-side queue
/// wait and host-side exec time) and every guest engine (`dbt.*` and
/// `dispatch.hint_*` counters, via [`DbtConfig::with_metrics`], which
/// each engine adds when its run returns — a request's engine counts
/// land before its response). Instruments in the
/// simulated-cycle domain — `serve.exec_cycles`, all `dbt.*` counters,
/// `serve.requests` — are exactly reproducible run-to-run.
/// `serve.edge.queue_wait_us` and `serve.edge.exec_us` measure *host*
/// wall-clock time; they are nondeterministic by nature and exist for
/// utilization diagnostics, not for byte-comparison. The batch results
/// themselves stay byte-identical with or without anyone reading the
/// registry.
pub struct ExecService {
    cfg: ServeConfig,
    artifacts: Mutex<HashMap<KernelSpec, Arc<SpecArtifacts>>>,
    /// One shared translation cache per translation context (see
    /// [`RunRequest::translation_context`]): only deterministic replicas
    /// share, which is what keeps shared-mode results byte-identical.
    shared_caches: Mutex<HashMap<(KernelSpec, MdaStrategy, u64), ContextCache>>,
    /// The persistent artifact store, when [`ServeConfig::image_store`]
    /// names one.
    store: Option<ImageStore>,
    /// Service-level warm-start trace: `image_load` / `image_reject`
    /// records at cycle 0 (engines attribute per-block `image_hit`s to
    /// their own tracers).
    warm_tracer: Mutex<Tracer>,
    metrics: Arc<Registry>,
    /// Request-lifecycle span recorder (scope `serve`, wall stamping on),
    /// present when [`ServeConfig::spans`] asks for it. Serve spans live
    /// in the wall domain (cycle extents mostly zero); adopted engine
    /// subtrees carry the cycle attribution.
    spans: Option<Mutex<SpanRecorder>>,
    /// Rolling-window health state: the registry sampler plus per-context
    /// shared-cache counter baselines for delta derivation.
    health: Mutex<HealthState>,
    /// Continuous telemetry: the rolling-window time-series over the
    /// registry, the SLO burn-rate rules, and the fleet-merged site
    /// watch. Advanced by [`ExecService::tick`].
    telemetry: Mutex<Telemetry>,
}

/// Delta baselines for [`ExecService::health_report`].
struct HealthState {
    sampler: HealthSampler,
    /// Previous shared-cache counter totals per translation context.
    per_context: HashMap<(KernelSpec, MdaStrategy, u64), SharedCacheStats>,
    /// Start of the current window: service creation, then the previous
    /// `health_report` call.
    window_start: Instant,
}

/// Continuous-telemetry state behind [`ExecService::tick`].
struct Telemetry {
    /// Rolling windows over every registry instrument. Window elapsed
    /// units are host wall µs (tick-to-tick), so rates are utilization
    /// diagnostics like `serve.edge.queue_wait_us` — never byte-comparison
    /// artifacts.
    series: TimeSeries,
    /// The SLO burn-rate rules from [`ServeConfig::slos`].
    rules: AlertRules,
    /// Every completed watched run's [`SiteWatch`], merged fleet-wide
    /// (pessimistic verdicts, additive totals).
    fleet_watch: SiteWatch,
    /// Start of the current telemetry window: service creation, then the
    /// previous `tick`.
    window_start: Instant,
}

/// Rolling windows the telemetry ring retains (fast/slow burn lookbacks
/// are far smaller; the surplus is dashboard history).
const TELEMETRY_WINDOWS: usize = 64;

/// Hottest sites the dashboard prints (traps+fixups descending).
pub const DASHBOARD_TOP_SITES: usize = 8;

/// Registers `# HELP` text for the service-layer instruments scrapers
/// see most; called once per service so every exposition carries it.
fn describe_serve_metrics(metrics: &Registry) {
    metrics.describe("serve.requests", "Requests the service has executed");
    metrics.describe(
        "serve.exec_cycles",
        "Per-request simulated guest cycles (deterministic)",
    );
    metrics.describe(
        "serve.edge.queue_wait_us",
        "Host wall-clock queue wait per request (nondeterministic)",
    );
    metrics.describe(
        "serve.alerts.fired",
        "SLO burn-rate alerts that transitioned to firing",
    );
    metrics.describe(
        "serve.alerts.resolved",
        "SLO burn-rate alerts that transitioned back to resolved",
    );
    metrics.describe("serve.alerts.firing", "SLO rules currently firing");
    metrics.describe(
        "serve.watch.rediverged",
        "Site re-divergence verdicts observed across watched runs",
    );
    metrics.describe(
        "serve.watch.converged",
        "Site convergence verdicts observed across watched runs",
    );
    metrics.describe(
        "serve.watch.sites",
        "Distinct guest PCs tracked by the fleet-merged site watch",
    );
}

impl ExecService {
    /// A service with the given tuning and an empty artifact store.
    pub fn new(cfg: ServeConfig) -> ExecService {
        let store = cfg.image_store.as_ref().map(ImageStore::new);
        let warm_tracer = Mutex::new(Tracer::new(&cfg.trace));
        let spans = cfg.spans.then(|| {
            let mut r = SpanRecorder::new(&SpanConfig::default().with_wall_clock(true));
            r.set_scope("serve");
            Mutex::new(r)
        });
        let mut rules = AlertRules::new();
        for slo in &cfg.slos {
            rules.add(slo.clone());
        }
        let telemetry = Mutex::new(Telemetry {
            series: TimeSeries::new(TELEMETRY_WINDOWS),
            rules,
            fleet_watch: SiteWatch::new(cfg.watch.unwrap_or_default()),
            window_start: Instant::now(),
        });
        let metrics = Arc::new(Registry::new());
        describe_serve_metrics(&metrics);
        ExecService {
            cfg,
            artifacts: Mutex::new(HashMap::new()),
            shared_caches: Mutex::new(HashMap::new()),
            store,
            warm_tracer,
            metrics,
            spans,
            health: Mutex::new(HealthState {
                sampler: HealthSampler::new(),
                per_context: HashMap::new(),
                window_start: Instant::now(),
            }),
            telemetry,
        }
    }

    /// The service tuning.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The service-wide metrics registry (see the type-level docs for the
    /// instrument inventory and the determinism caveats).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Clone of the service span recorder — request-lifecycle spans plus
    /// every adopted engine subtree — or `None` when spans are off.
    pub fn span_snapshot(&self) -> Option<SpanRecorder> {
        self.spans
            .as_ref()
            .map(|m| m.lock().expect("span lock never poisoned").clone())
    }

    /// Opens a serve-layer span under `parent` (explicit parenting: the
    /// shards share one recorder, so innermost-open inference would
    /// cross request boundaries). No-op returning NONE with spans off.
    fn span_start(&self, kind: SpanKind, parent: SpanId) -> SpanId {
        self.spans.as_ref().map_or(SpanId::NONE, |m| {
            m.lock()
                .expect("span lock never poisoned")
                .start_at(0, kind, None, parent)
        })
    }

    /// Closes a serve-layer span. `end_cycle` joins the simulated-cycle
    /// domain where one applies (a dispatch span ends at the guest's
    /// final cycle count); pure wall-domain spans pass 0.
    fn span_end(&self, id: SpanId, end_cycle: u64) {
        if let Some(m) = &self.spans {
            m.lock()
                .expect("span lock never poisoned")
                .end(id, end_cycle);
        }
    }

    /// Wall microseconds since the recorder's epoch (None with spans off).
    fn span_now_us(&self) -> Option<u64> {
        self.spans
            .as_ref()
            .and_then(|m| m.lock().expect("span lock never poisoned").now_epoch_us())
    }

    /// Records a closed wall-domain serve span from externally captured
    /// stamps (enqueue and queue-wait intervals).
    fn span_complete(
        &self,
        kind: SpanKind,
        parent: SpanId,
        wall_start_us: Option<u64>,
        wall_end_us: Option<u64>,
    ) {
        if let Some(m) = &self.spans {
            m.lock().expect("span lock never poisoned").complete_with(
                kind,
                None,
                parent,
                0,
                0,
                wall_start_us,
                wall_end_us,
            );
        }
    }

    /// Adopts a guest engine's span subtree under `parent` in the service
    /// recorder.
    fn span_adopt(&self, engine: &SpanRecorder, parent: SpanId) {
        if let Some(m) = &self.spans {
            m.lock()
                .expect("span lock never poisoned")
                .adopt(engine, parent);
        }
    }

    fn entry(&self, spec: KernelSpec) -> Arc<SpecArtifacts> {
        Arc::clone(
            self.artifacts
                .lock()
                .expect("artifact lock never poisoned")
                .entry(spec)
                .or_default(),
        )
    }

    /// The shared, memoized kernel image for `spec`. Built on first use;
    /// every later caller gets the same `Arc`.
    pub fn shared_kernel(&self, spec: KernelSpec) -> Arc<Kernel> {
        let entry = self.entry(spec);
        let mut built = false;
        let k = entry.kernel.get_or_init(|| {
            built = true;
            Arc::new(spec.build())
        });
        self.count_memo(built);
        Arc::clone(k)
    }

    /// The shared, memoized training profile for `spec` (the FX!32
    /// database row). Built by interpreting the spec's training input
    /// ([`KernelSpec::training_spec`]) once; every guest thereafter reads
    /// the same immutable profile by reference.
    pub fn shared_profile(&self, spec: KernelSpec) -> Arc<StaticProfile> {
        let entry = self.entry(spec);
        let mut built = false;
        let p = entry.profile.get_or_init(|| {
            built = true;
            Arc::new(train(spec))
        });
        self.count_memo(built);
        Arc::clone(p)
    }

    /// Exact memoization accounting: `get_or_init` ran its closure (a
    /// miss that built the artifact) or returned an existing value (a
    /// hit). The hit rate is the amortization story in two counters.
    fn count_memo(&self, built: bool) {
        let name = if built {
            "serve.memo.misses"
        } else {
            "serve.memo.hits"
        };
        self.metrics.counter(name).inc();
    }

    /// The memoized shared translation cache for a request's translation
    /// context, created (at the engine-default capacity) on first use —
    /// and warm-started from the artifact store when one is configured
    /// and holds a valid image for the context.
    pub fn shared_cache_for(&self, req: &RunRequest) -> Arc<SharedCodeCache> {
        let mut caches = self
            .shared_caches
            .lock()
            .expect("shared-cache lock never poisoned");
        if let Some(c) = caches.get(&req.translation_context()) {
            return Arc::clone(&c.cache);
        }
        let built = self.build_context(req);
        let cache = Arc::clone(&built.cache);
        caches.insert(req.translation_context(), built);
        cache
    }

    /// Whether a request's translation context was warm-started from a
    /// persistent image (false for contexts not yet built).
    pub fn context_preloaded(&self, req: &RunRequest) -> bool {
        self.shared_caches
            .lock()
            .expect("shared-cache lock never poisoned")
            .get(&req.translation_context())
            .is_some_and(|c| c.preloaded)
    }

    /// The image key a request's translation context persists under.
    pub fn image_key_for(&self, req: &RunRequest) -> ImageKey {
        ImageKey {
            guest_hash: kernel_hash(&self.shared_kernel(req.kernel)),
            strategy: req.strategy,
            hot_threshold: req.hot_threshold,
        }
    }

    /// Builds one translation context's cache, restoring the store's
    /// artifact into it when a valid one exists. Any validation or
    /// restore failure rejects the artifact whole — the context falls
    /// back to a pristine cache and fresh translation, counted in
    /// `serve.warm_start.image_rejected` (absent artifacts count as
    /// `image_misses`, not rejections).
    fn build_context(&self, req: &RunRequest) -> ContextCache {
        let code_bytes = DbtConfig::new(req.strategy).code_bytes;
        let cache = SharedCodeCache::new(code_bytes);
        let Some(store) = &self.store else {
            return ContextCache {
                cache,
                preloaded: false,
            };
        };
        let key = self.image_key_for(req);
        let restored = store.load(key).and_then(|img| {
            let blocks = img.populate(&cache)?;
            Ok((img, blocks))
        });
        match restored {
            Ok((img, blocks)) => {
                self.metrics.counter("serve.warm_start.image_loads").inc();
                self.metrics
                    .counter("serve.warm_start.blocks_preloaded")
                    .add(blocks as u64);
                self.record_warm(TraceEvent::ImageLoad {
                    blocks: blocks as u64,
                });
                // Seed the FX!32 database row: the image carries the
                // training profile, so the warm process skips the
                // training interpretation entirely.
                if let Some(p) = img.static_profile() {
                    let _ = self.entry(req.kernel).profile.set(Arc::new(p));
                }
                ContextCache {
                    cache,
                    preloaded: true,
                }
            }
            Err(ImageError::Missing) => {
                self.metrics.counter("serve.warm_start.image_misses").inc();
                ContextCache {
                    cache,
                    preloaded: false,
                }
            }
            Err(e) => {
                self.metrics
                    .counter("serve.warm_start.image_rejected")
                    .inc();
                self.record_warm(TraceEvent::ImageReject { code: e.code() });
                // A populate failure can leave partial entries behind;
                // discard that cache for a pristine one (never serve a
                // half-load).
                ContextCache {
                    cache: SharedCodeCache::new(code_bytes),
                    preloaded: false,
                }
            }
        }
    }

    fn record_warm(&self, event: TraceEvent) {
        self.warm_tracer
            .lock()
            .expect("warm tracer lock never poisoned")
            .record(0, event);
    }

    /// Snapshot of the service-level warm-start trace: one `image_load`
    /// record per restored artifact and one `image_reject` per artifact
    /// that failed validation, all stamped at cycle 0 (warm start
    /// happens before any engine runs).
    pub fn warm_start_trace(&self) -> Tracer {
        self.warm_tracer
            .lock()
            .expect("warm tracer lock never poisoned")
            .clone()
    }

    /// Captures every context cache holding translations into the
    /// artifact store; a no-op (returning 0) without one. Returns how
    /// many images were written, counted in
    /// `serve.warm_start.image_saves`. Contexts whose layout is unstable
    /// (evictions or guest patches) and I/O failures are skipped —
    /// persistence is best-effort and never perturbs results.
    /// [`ExecService::run_batch`] calls this after every batch.
    pub fn persist_images(&self) -> usize {
        let Some(store) = &self.store else { return 0 };
        let contexts: Vec<((KernelSpec, MdaStrategy, u64), Arc<SharedCodeCache>)> = self
            .shared_caches
            .lock()
            .expect("shared-cache lock never poisoned")
            .iter()
            .map(|(k, c)| (*k, Arc::clone(&c.cache)))
            .collect();
        let mut saved = 0;
        for ((spec, strategy, threshold), cache) in contexts {
            if cache.stats().insertions == 0 {
                continue;
            }
            let key = ImageKey {
                guest_hash: kernel_hash(&self.shared_kernel(spec)),
                strategy,
                hot_threshold: threshold,
            };
            let profile = (strategy == MdaStrategy::StaticProfiling)
                .then(|| self.entry(spec).profile.get().cloned())
                .flatten();
            let Ok(image) = TranslationImage::capture(&cache, key, profile.as_deref()) else {
                continue;
            };
            if store.save(&image).is_ok() {
                self.metrics.counter("serve.warm_start.image_saves").inc();
                saved += 1;
            }
        }
        saved
    }

    /// Samples the fleet into rolling-window health lines (schema
    /// `bridge-health/1`): the service-wide registry snapshot first
    /// (context `service` — request rates, queue-wait quantiles, every
    /// `dbt.*` instrument), then one line per live translation context
    /// with its shared-cache counters, label-ordered. Also publishes the
    /// headline `serve.health.*` gauges (`contexts`,
    /// `requests_per_sec`, `queue_wait_p99_us`, `exec_cycles_p50`) into
    /// the registry. The window is wall-clock — service creation to
    /// first call, then call to call — so, like `serve.edge.queue_wait_us`,
    /// the rates are utilization diagnostics, not byte-comparison
    /// artifacts; batch results are unaffected.
    pub fn health_report(&self) -> Vec<String> {
        let mut st = self.health.lock().expect("health lock never poisoned");
        let window_us = (st.window_start.elapsed().as_micros() as u64).max(1);
        st.window_start = Instant::now();
        let service = st.sampler.sample(&self.metrics, "service", window_us);

        let counter_rate = |name: &str| {
            service
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.rate_per_sec)
        };
        let hist = |name: &str, pick: fn(&bridge_metrics::HistogramHealth) -> u64| {
            service
                .histograms
                .iter()
                .find(|h| h.name == name)
                .map_or(0, pick)
        };
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;

        // (context key, cache, preloaded, display label)
        type ContextRow = (
            (KernelSpec, MdaStrategy, u64),
            Arc<SharedCodeCache>,
            bool,
            String,
        );
        let mut contexts: Vec<ContextRow> = self
            .shared_caches
            .lock()
            .expect("shared-cache lock never poisoned")
            .iter()
            .map(|(k, c)| {
                let (spec, strategy, threshold) = *k;
                let label = format!("{}/{}/{}", spec.name(), strategy.slug(), threshold);
                (*k, Arc::clone(&c.cache), c.preloaded, label)
            })
            .collect();
        // Label-ordered, with the full spec as tiebreak (two sizes of one
        // kernel share a name), so the line order is stable run to run.
        contexts.sort_by_key(|(k, _, _, label)| (label.clone(), format!("{:?}", k.0)));

        self.metrics
            .gauge("serve.health.contexts")
            .set(contexts.len() as i64);
        self.metrics
            .gauge("serve.health.requests_per_sec")
            .set(clamp(counter_rate("serve.requests")));
        self.metrics
            .gauge("serve.health.queue_wait_p99_us")
            .set(clamp(hist("serve.edge.queue_wait_us", |h| h.p99)));
        self.metrics
            .gauge("serve.health.exec_cycles_p50")
            .set(clamp(hist("serve.exec_cycles", |h| h.p50)));

        let mut lines = vec![service.to_json_line()];
        for (key, cache, preloaded, label) in contexts {
            let stats = cache.stats();
            let prev = st.per_context.get(&key).copied().unwrap_or_default();
            let counter = |name: &str, total: u64, prev: u64| {
                // A context evicted and rebuilt between samples restarts
                // its cache counters at zero; report the reset (with the
                // reborn counter's full total as the window delta) rather
                // than clamping to a silent zero delta.
                let reset = total < prev;
                let delta = if reset { total } else { total - prev };
                CounterHealth {
                    name: name.to_string(),
                    total,
                    delta,
                    rate_per_sec: (u128::from(delta) * 1_000_000 / u128::from(window_us)) as u64,
                    reset,
                }
            };
            let gauge = |name: &str, v: u64| GaugeHealth {
                name: name.to_string(),
                value: clamp(v),
                high_watermark: clamp(v),
            };
            let snap = HealthSnapshot {
                context: label,
                seq: self.metrics.next_sample_seq(),
                window_us,
                counters: vec![
                    counter("cache.evictions", stats.evictions, prev.evictions),
                    counter("cache.hits", stats.hits, prev.hits),
                    counter("cache.insertions", stats.insertions, prev.insertions),
                    counter(
                        "cache.invalidations",
                        stats.invalidations,
                        prev.invalidations,
                    ),
                    counter("cache.misses", stats.misses, prev.misses),
                ],
                gauges: vec![
                    gauge("cache.bytes_used", stats.bytes_used),
                    gauge("cache.capacity_bytes", stats.capacity_bytes),
                    gauge("cache.preloaded", u64::from(preloaded)),
                ],
                histograms: Vec::new(),
            };
            lines.push(snap.to_json_line());
            st.per_context.insert(key, stats);
        }
        lines
    }

    /// Advances the telemetry clock one window: samples every registry
    /// instrument into the rolling ring (elapsed units are wall µs since
    /// the previous tick), evaluates the SLO burn-rate rules, and
    /// returns the alert transitions this tick produced. Also bumps
    /// `serve.alerts.fired` / `serve.alerts.resolved` counters and the
    /// `serve.alerts.firing` gauge. The engine side advances its own
    /// watch windows in simulated cycles; this is the serve-side clock.
    pub fn tick(&self) -> Vec<Alert> {
        let mut t = self
            .telemetry
            .lock()
            .expect("telemetry lock never poisoned");
        self.tick_locked(&mut t)
    }

    fn tick_locked(&self, t: &mut Telemetry) -> Vec<Alert> {
        let elapsed_us = (t.window_start.elapsed().as_micros() as u64).max(1);
        t.window_start = Instant::now();
        t.series.tick(&self.metrics, elapsed_us);
        let transitions = t.rules.evaluate(&t.series);
        for a in &transitions {
            match a.state {
                AlertState::Firing => self.metrics.counter("serve.alerts.fired").inc(),
                AlertState::Resolved => self.metrics.counter("serve.alerts.resolved").inc(),
            }
        }
        let firing = t
            .rules
            .statuses(&t.series)
            .iter()
            .filter(|s| s.firing)
            .count();
        self.metrics.gauge("serve.alerts.firing").set(firing as i64);
        transitions
    }

    /// Ticks the telemetry window and renders the `bridge-alerts/1` JSON
    /// document (rule statuses plus the retained transition log) — the
    /// `OP_ALERTS` edge body.
    pub fn alerts_json(&self) -> String {
        let mut t = self
            .telemetry
            .lock()
            .expect("telemetry lock never poisoned");
        self.tick_locked(&mut t);
        let mut doc = t.rules.to_json(&t.series);
        doc.push('\n');
        doc
    }

    /// Snapshot of the fleet-merged site watch (every completed watched
    /// run folded in, pessimistic verdicts).
    pub fn fleet_watch(&self) -> SiteWatch {
        self.telemetry
            .lock()
            .expect("telemetry lock never poisoned")
            .fleet_watch
            .clone()
    }

    /// Ticks the telemetry window and renders the plain-text fleet
    /// dashboard — the `OP_DASHBOARD` edge body. Deterministic layout:
    /// SLOs in registration order, sites hottest-first (traps+fixups
    /// descending, PC ascending tiebreak), top
    /// [`DASHBOARD_TOP_SITES`] only.
    pub fn dashboard(&self) -> String {
        use std::fmt::Write as _;
        let mut t = self
            .telemetry
            .lock()
            .expect("telemetry lock never poisoned");
        self.tick_locked(&mut t);
        let mut out = String::new();
        let _ = writeln!(out, "== bridge fleet dashboard ==");
        let latest = t.series.latest().expect("tick_locked pushed a window");
        let _ = writeln!(
            out,
            "window: seq={} elapsed_us={} ticks={}",
            latest.seq,
            latest.elapsed_units,
            t.series.total_ticks()
        );
        let _ = writeln!(
            out,
            "requests: total={} window_delta={} exec_cycles_p99={}",
            self.metrics.counter("serve.requests").get(),
            latest.counter_delta("serve.requests"),
            latest.hist_quantile("serve.exec_cycles", 0.99)
        );
        let _ = writeln!(out, "-- slos ({}) --", t.rules.len());
        for s in t.rules.statuses(&t.series) {
            let _ = writeln!(
                out,
                "slo {}: {} fast={}permille slow={}permille objective: {}",
                s.name,
                if s.firing { "FIRING" } else { "ok" },
                s.fast_burn_permille,
                s.slow_burn_permille,
                s.objective
            );
        }
        let fired = t
            .rules
            .transitions()
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .count();
        let resolved = t.rules.transitions().len() - fired;
        let _ = writeln!(out, "alerts: fired={fired} resolved={resolved}");
        let w = &t.fleet_watch;
        let _ = writeln!(
            out,
            "-- watch: sites={} rediverged={} converged={} windows={} events={} --",
            w.site_count(),
            w.rediverged_sites(),
            w.converged_sites(),
            w.windows_closed(),
            w.events()
        );
        let mut sites: Vec<(u32, bridge_trace::SiteWatchStats)> = w.sites().collect();
        sites.sort_by_key(|(pc, s)| (std::cmp::Reverse(s.traps + s.fixups), *pc));
        for (pc, s) in sites.into_iter().take(DASHBOARD_TOP_SITES) {
            let _ = writeln!(
                out,
                "site {pc:#010x}: {} traps={} fixups={} patches={} rediverges={}",
                s.verdict.tag(),
                s.traps,
                s.fixups,
                s.patches,
                s.rediverge_count
            );
        }
        out
    }

    fn config_for(
        &self,
        req: &RunRequest,
        profile: Option<Arc<StaticProfile>>,
        cache: Option<Arc<SharedCodeCache>>,
    ) -> DbtConfig {
        let mut cfg = DbtConfig::new(req.strategy).with_threshold(req.hot_threshold);
        if let Some(p) = profile {
            cfg = cfg.with_static_profile(p);
        }
        if req.trace {
            cfg = cfg.with_trace(self.cfg.trace.clone());
        }
        if let Some(c) = cache {
            cfg = cfg.with_shared_cache(c);
        }
        if self.spans.is_some() {
            // Cycle-domain engine spans (translate / execute / trap-fixup
            // / image-restore); the engine charges them zero cycles.
            cfg = cfg.with_spans(SpanConfig::default());
        }
        if let Some(w) = self.cfg.watch {
            cfg = cfg.with_watch(w);
        }
        cfg.with_metrics(Arc::clone(&self.metrics))
    }

    /// Executes one request on the calling thread, using (and populating)
    /// the shared artifact store. With spans on, the run is recorded as a
    /// root request span over the engine subtree.
    pub fn run_one(&self, req: RunRequest) -> GuestResult {
        let request = self.span_start(SpanKind::Request, SpanId::NONE);
        let result = self.run_one_spanned(req, request);
        self.span_end(request, result.report.stats.cycles);
        result
    }

    /// [`ExecService::run_one`] with the caller's span as parent: the
    /// warm-start span and the adopted engine subtree land under it.
    fn run_one_spanned(&self, req: RunRequest, parent: SpanId) -> GuestResult {
        // Build (and possibly warm-start) the translation context before
        // anything else: a restored image may carry the training
        // profile, which must be seeded before `shared_profile` would
        // re-derive it from a training run.
        let warm = self.span_start(SpanKind::WarmStart, parent);
        let cache = self.shared_cache_for(&req);
        let preloaded = self.context_preloaded(&req);
        self.span_end(warm, 0);
        let kernel = self.shared_kernel(req.kernel);
        let profile =
            (req.strategy == MdaStrategy::StaticProfiling).then(|| self.shared_profile(req.kernel));
        let cfg = self.config_for(&req, profile, Some(cache));
        let result = execute(&kernel, cfg, req);
        if let Some(engine) = &result.spans {
            self.span_adopt(engine, parent);
        }
        self.metrics.counter("serve.requests").inc();
        if preloaded {
            self.metrics.counter("serve.warm_start.image_hits").inc();
        }
        self.metrics
            .histogram("serve.exec_cycles")
            .observe(result.report.stats.cycles);
        if let Some(w) = &result.watch {
            self.absorb_watch(w);
        }
        result
    }

    /// Folds one completed run's watch into the fleet watch and bumps
    /// the `serve.watch.*` instruments from its verdict transitions.
    fn absorb_watch(&self, w: &SiteWatch) {
        let rediverged = w
            .transitions()
            .iter()
            .filter(|t| t.verdict == SiteVerdict::Rediverged)
            .count() as u64;
        let converged = w
            .transitions()
            .iter()
            .filter(|t| t.verdict == SiteVerdict::Converged)
            .count() as u64;
        let mut t = self
            .telemetry
            .lock()
            .expect("telemetry lock never poisoned");
        t.fleet_watch.merge(w);
        self.metrics
            .counter("serve.watch.rediverged")
            .add(rediverged);
        self.metrics.counter("serve.watch.converged").add(converged);
        self.metrics
            .gauge("serve.watch.sites")
            .set(t.fleet_watch.site_count() as i64);
    }

    /// Submits one run to a dispatch queue under `tenant`, never
    /// blocking: opens the request's root span, stamps the enqueue, and
    /// pushes. A refused push ends the span and hands the job back.
    fn submit<R>(
        &self,
        queue: &FairQueue<Job<R>>,
        tenant: u32,
        req: RunRequest,
        deadline: Deadline,
        reply: R,
    ) -> Result<(), TryPushError<Job<R>>> {
        let req_span = self.span_start(SpanKind::Request, SpanId::NONE);
        let enq_us = self.span_now_us();
        let job = Job {
            req,
            deadline,
            enqueued: Instant::now(),
            req_span,
            enq_us,
            reply,
        };
        queue.try_push(tenant, job).inspect_err(|_| {
            self.span_end(req_span, 0);
        })?;
        self.metrics.gauge("serve.edge.queue.depth").add(1);
        self.span_complete(SpanKind::Enqueue, req_span, enq_us, self.span_now_us());
        Ok(())
    }

    /// The dispatch loop every worker runs, whichever submitter fed the
    /// queue. Pops jobs until the queue is closed and drained. A job whose
    /// deadline expired while queued is shed, never executed; the rest
    /// run with the engine's span tree grafted under the request. Each
    /// answer goes to `deliver` with the job's tenant and reply route:
    /// `Ok` with the result, or `Err(waited_us)` for a deadline shed.
    fn dispatch_loop<R>(
        &self,
        queue: &FairQueue<Job<R>>,
        mut deliver: impl FnMut(u32, R, Result<GuestResult, u64>),
    ) {
        let depth = self.metrics.gauge("serve.edge.queue.depth");
        let wait = self.metrics.histogram("serve.edge.queue_wait_us");
        let exec = self.metrics.histogram("serve.edge.exec_us");
        while let Some((tenant, job)) = queue.pop() {
            let waited_us = job.enqueued.elapsed().as_micros() as u64;
            depth.sub(1);
            wait.observe(waited_us);
            // The queue-wait span joins the interval the histogram measures.
            self.span_complete(
                SpanKind::QueueWait,
                job.req_span,
                job.enq_us,
                self.span_now_us(),
            );
            if job.deadline.expired() {
                self.span_end(job.req_span, 0);
                deliver(tenant, job.reply, Err(waited_us));
                continue;
            }
            let dispatch = self.span_start(SpanKind::Dispatch, job.req_span);
            let started = Instant::now();
            let result = self.run_one_spanned(job.req, dispatch);
            exec.observe(started.elapsed().as_micros() as u64);
            self.span_end(dispatch, result.report.stats.cycles);
            self.span_end(job.req_span, result.report.stats.cycles);
            deliver(tenant, job.reply, Ok(result));
        }
    }

    /// Executes a batch across the worker pool: every request is
    /// submitted in slot order to a queue sized to the batch — so
    /// submission never blocks or sheds — under one tenant with no
    /// deadline. Then `shards` workers run the dispatch loop and land
    /// each result in its slot. Output is independent of the worker
    /// count (see the crate docs' determinism contract).
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker (a guest failing to halt is a
    /// harness bug, as in the bench crate).
    pub fn run_batch(&self, requests: &[RunRequest]) -> BatchReport {
        let queue = FairQueue::new(requests.len());
        for (slot, &req) in requests.iter().enumerate() {
            if self
                .submit(&queue, 0, req, Deadline::unbounded(), slot)
                .is_err()
            {
                unreachable!("an open queue sized to the batch has room");
            }
        }
        queue.close();
        let slots: Mutex<Vec<Option<GuestResult>>> =
            Mutex::new(requests.iter().map(|_| None).collect());
        std::thread::scope(|s| {
            for _ in 0..self.cfg.shards.max(1) {
                s.spawn(|| {
                    self.dispatch_loop(&queue, |_, slot, result| {
                        let result = result.expect("an unbounded deadline never expires");
                        slots.lock().expect("slot lock never poisoned")[slot] = Some(result);
                    })
                });
            }
        });
        let guests = slots
            .into_inner()
            .expect("slot lock never poisoned")
            .into_iter()
            .map(|g| g.expect("every slot filled by the pool"))
            .collect();
        // Persist what this batch translated (no-op without a store):
        // the next process warm-starts from it.
        let aggregate = self.span_start(SpanKind::Aggregate, SpanId::NONE);
        self.persist_images();
        let report = BatchReport::from_guests(guests);
        self.span_end(aggregate, 0);
        report
    }

    /// The naive per-request baseline the service exists to beat: executes
    /// the batch on the calling thread, re-building the kernel and —
    /// for static-profiling guests — re-running the full training-input
    /// interpretation for **every** request, sharing nothing (each engine
    /// creates its own translation cache). Results are byte-identical to
    /// [`ExecService::run_batch`] (every derivation is deterministic and
    /// a shared cache lays code out exactly as a lone one does); only the
    /// redundant work differs.
    pub fn run_sequential(&self, requests: &[RunRequest]) -> BatchReport {
        let guests = requests
            .iter()
            .map(|&req| {
                let kernel = req.kernel.build();
                let profile = (req.strategy == MdaStrategy::StaticProfiling)
                    .then(|| Arc::new(train(req.kernel)));
                execute(&kernel, self.config_for(&req, profile, None), req)
            })
            .collect();
        BatchReport::from_guests(guests)
    }
}

/// Interprets the spec's training input once and distills its static
/// profile (the pre-execution training phase, Figure 3). The training
/// kernel shares the request kernel's code layout, so its sites apply
/// directly.
fn train(spec: KernelSpec) -> StaticProfile {
    let kernel = spec.training_spec().build();
    let (_, profile) = profile_program(
        &kernel.program,
        &kernel.data,
        Some(kernel.stack_top),
        &CostModel::es40(),
        FUEL,
    )
    .expect("training run halts");
    profile.to_static_profile()
}

/// Runs one guest to completion and captures its witnesses.
fn execute(kernel: &Kernel, cfg: DbtConfig, req: RunRequest) -> GuestResult {
    let mut dbt = Dbt::new(cfg);
    kernel.load_into(&mut dbt);
    let report = dbt.run(FUEL).expect("kernel halts within fuel");
    let tracer = dbt.trace_snapshot();
    let spans = dbt.take_span_recorder();
    let watch = dbt.take_watch();
    let memory = req
        .kernel
        .observed_ranges()
        .into_iter()
        .map(|(addr, len)| {
            let mut buf = vec![0u8; len];
            dbt.machine().mem().read_bytes(u64::from(addr), &mut buf);
            (addr, buf)
        })
        .collect();
    GuestResult {
        request: req,
        report,
        memory,
        tracer,
        spans,
        watch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_batch() -> Vec<RunRequest> {
        let spec = KernelSpec::PhaseChangeSum {
            aligned: 60,
            misaligned: 60,
        };
        vec![
            RunRequest::new(spec, MdaStrategy::StaticProfiling).with_threshold(10),
            RunRequest::new(spec, MdaStrategy::Dpeh).with_threshold(10),
            RunRequest::new(
                KernelSpec::MemcpyUnaligned { len: 64 },
                MdaStrategy::ExceptionHandling,
            )
            .with_threshold(10),
        ]
    }

    #[test]
    fn batch_matches_sequential() {
        let svc = ExecService::new(ServeConfig::default().with_shards(2));
        let reqs = small_batch();
        let pooled = svc.run_batch(&reqs);
        let serial = svc.run_sequential(&reqs);
        assert_eq!(pooled.merged_stats, serial.merged_stats);
        assert_eq!(pooled.reports_text(), serial.reports_text());
        for (p, s) in pooled.guests.iter().zip(&serial.guests) {
            assert_eq!(p.memory, s.memory);
        }
    }

    #[test]
    fn shared_artifacts_are_memoized() {
        let svc = ExecService::new(ServeConfig::default());
        let spec = KernelSpec::MemcpyUnaligned { len: 64 };
        let k1 = svc.shared_kernel(spec);
        let k2 = svc.shared_kernel(spec);
        assert!(Arc::ptr_eq(&k1, &k2), "one kernel image per spec");
        let p1 = svc.shared_profile(spec);
        let p2 = svc.shared_profile(spec);
        assert!(Arc::ptr_eq(&p1, &p2), "one training profile per spec");
    }

    #[test]
    fn shared_cache_is_memoized_per_context() {
        let svc = ExecService::new(ServeConfig::default());
        let spec = KernelSpec::MemcpyUnaligned { len: 64 };
        let req = RunRequest::new(spec, MdaStrategy::Dpeh).with_threshold(10);
        let c1 = svc.shared_cache_for(&req);
        let c2 = svc.shared_cache_for(&req.with_trace(true));
        assert!(
            Arc::ptr_eq(&c1, &c2),
            "tracing does not change the translation context"
        );
        let c3 = svc.shared_cache_for(&req.with_threshold(50));
        assert!(!Arc::ptr_eq(&c1, &c3), "different threshold, new cache");
    }

    /// The tentpole contract: attaching the fleet to a shared translation
    /// cache changes how much *host* translation work happens, and nothing
    /// else. Identical requests translate once fleet-wide.
    #[test]
    fn shared_cache_translates_once_per_context() {
        let spec = KernelSpec::PhaseChangeSum {
            aligned: 60,
            misaligned: 60,
        };
        let reqs: Vec<RunRequest> = (0..3)
            .map(|_| RunRequest::new(spec, MdaStrategy::ExceptionHandling).with_threshold(10))
            .collect();

        let unshared = ExecService::new(ServeConfig::default());
        let shared = ExecService::new(ServeConfig::default().with_shards(2));
        let a = unshared.run_sequential(&reqs);
        let b = shared.run_batch(&reqs);

        // Byte-identical results: the shared cache replays the exact
        // translation products (and code layout) every engine would have
        // produced alone on its own cache.
        assert_eq!(a.merged_stats, b.merged_stats);
        assert_eq!(a.reports_text(), b.reports_text());
        for (p, s) in a.guests.iter().zip(&b.guests) {
            assert_eq!(p.memory, s.memory);
        }

        // `dbt.blocks_translated` counts actual translator invocations.
        // Three replicas over a shared cache translate each block once;
        // three engines on caches of their own translate it three times.
        let translated_unshared = unshared.metrics().counter("dbt.blocks_translated").get();
        let translated_shared = shared.metrics().counter("dbt.blocks_translated").get();
        assert!(
            translated_shared * 3 == translated_unshared,
            "replicas shared every translation: {translated_shared} shared vs \
             {translated_unshared} unshared"
        );
        // The installs-from-shared show up as code-cache hits.
        let m = shared.metrics();
        assert_eq!(
            m.counter("dbt.code_cache.hits").get(),
            translated_shared * 2,
            "two later replicas reused each translated block"
        );
        assert_eq!(m.counter("dbt.code_cache.misses").get(), translated_shared);
        assert!(m.gauge("dbt.code_cache.bytes").get() > 0);
        // Both expositions carry the counter families, and the scraped
        // hit count is the registry's.
        let prom = m.to_prometheus();
        for family in [
            "serve_requests",
            "dbt_code_cache_hits",
            "dispatch_hint_hits",
        ] {
            assert!(
                prom.contains(&format!("# TYPE {family} counter\n")),
                "{family}"
            );
        }
        let hits = format!("dbt_code_cache_hits {}", translated_shared * 2);
        assert!(prom.lines().any(|l| l == hits), "{hits}");
        assert!(m.to_json().contains("\"dbt.code_cache.hits\""));
    }

    #[test]
    fn merged_stats_fold_in_slot_order() {
        let svc = ExecService::new(ServeConfig::default().with_shards(3));
        let reqs = small_batch();
        let batch = svc.run_batch(&reqs);
        let mut expect = Stats::new();
        for g in &batch.guests {
            expect.merge(&g.report.stats);
        }
        assert_eq!(batch.merged_stats, expect);
        assert_eq!(batch.guests.len(), reqs.len());
        for (g, r) in batch.guests.iter().zip(&reqs) {
            assert_eq!(g.request, *r, "slot order preserved");
        }
    }

    #[test]
    fn metrics_observe_the_batch() {
        let svc = ExecService::new(ServeConfig::default().with_shards(2));
        let reqs = small_batch();
        svc.run_batch(&reqs);
        let m = svc.metrics();
        assert_eq!(m.counter("serve.requests").get(), reqs.len() as u64);
        let h = m.histogram("serve.exec_cycles");
        assert_eq!(h.count(), reqs.len() as u64);
        assert!(h.sum() > 0, "simulated cycles observed per request");
        // Engine-level counters flowed into the same registry: the batch
        // includes EH/DPEH guests, which trap and patch by design.
        assert!(m.counter("dbt.traps").get() > 0);
        assert!(m.counter("dbt.patches").get() > 0);
        assert!(m.counter("dbt.blocks_translated").get() > 0);
        // The dispatch loop saw every request wait exactly once.
        assert_eq!(
            m.histogram("serve.edge.queue_wait_us").count(),
            reqs.len() as u64
        );
        // Queue drained, watermark bounded by what was ever enqueued.
        let depth = m.gauge("serve.edge.queue.depth");
        assert_eq!(depth.get(), 0);
        assert!(depth.high_watermark() >= 0 && depth.high_watermark() <= reqs.len() as i64);
        // The first batch built each artifact once; re-running the same
        // batch is all hits.
        let misses_before = m.counter("serve.memo.misses").get();
        svc.run_batch(&reqs);
        assert_eq!(m.counter("serve.memo.misses").get(), misses_before);
        assert!(m.counter("serve.memo.hits").get() >= reqs.len() as u64);
        // And the whole registry renders both ways.
        assert!(m.to_json().starts_with("{\"schema\":\"bridge-metrics/1\""));
        assert!(m.to_prometheus().contains("# TYPE serve_requests counter"));
    }

    /// Metrics must not perturb results: the same batch through a fresh
    /// metered service and through plain per-request configs agrees.
    #[test]
    fn metrics_leave_results_unchanged() {
        let reqs = small_batch();
        let a = ExecService::new(ServeConfig::default().with_shards(2)).run_batch(&reqs);
        let b = ExecService::new(ServeConfig::default().with_shards(1)).run_batch(&reqs);
        assert_eq!(a.merged_stats, b.merged_stats);
        assert_eq!(a.reports_text(), b.reports_text());
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-warm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The warm-start contract end to end: a cold service persists its
    /// translations, a second service restores them, translates (almost)
    /// nothing, and produces byte-identical results.
    #[test]
    fn warm_start_round_trip() {
        let dir = temp_store("roundtrip");
        let reqs = small_batch();

        let cold = ExecService::new(ServeConfig::default().with_shards(2).with_image_store(&dir));
        let a = cold.run_batch(&reqs);
        let m = cold.metrics();
        assert_eq!(m.counter("serve.warm_start.image_misses").get(), 3);
        assert_eq!(m.counter("serve.warm_start.image_hits").get(), 0);
        assert!(m.counter("serve.warm_start.image_saves").get() >= 3);
        let cold_translated = m.counter("dbt.blocks_translated").get();
        assert!(cold_translated > 0);

        let warm = ExecService::new(ServeConfig::default().with_shards(2).with_image_store(&dir));
        let b = warm.run_batch(&reqs);
        let m = warm.metrics();
        assert_eq!(m.counter("serve.warm_start.image_loads").get(), 3);
        assert_eq!(m.counter("serve.warm_start.image_hits").get(), 3);
        assert_eq!(m.counter("serve.warm_start.image_rejected").get(), 0);
        assert!(m.counter("serve.warm_start.blocks_preloaded").get() > 0);
        assert_eq!(
            m.counter("dbt.blocks_translated").get(),
            0,
            "every install was served from the restored images"
        );
        assert!(m.counter("dbt.image.block_hits").get() > 0);

        assert_eq!(a.merged_stats, b.merged_stats);
        assert_eq!(a.reports_text(), b.reports_text());
        for (c, w) in a.guests.iter().zip(&b.guests) {
            assert_eq!(c.memory, w.memory);
        }

        // The service-level trace attributed every load at cycle 0.
        let trace = warm.warm_start_trace();
        assert_eq!(trace.event_count(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The image carries the training profile: a warm static-profiling
    /// context seeds the FX!32 database row instead of re-training.
    #[test]
    fn warm_start_seeds_the_training_profile() {
        let dir = temp_store("profile");
        let spec = KernelSpec::PhaseChangeSum {
            aligned: 60,
            misaligned: 60,
        };
        let req = RunRequest::new(spec, MdaStrategy::StaticProfiling).with_threshold(10);

        let cold = ExecService::new(ServeConfig::default().with_image_store(&dir));
        let a = cold.run_one(req);
        cold.persist_images();
        let trained = cold.shared_profile(spec);
        assert!(!trained.is_empty(), "training flagged misaligned sites");

        let warm = ExecService::new(ServeConfig::default().with_image_store(&dir));
        let b = warm.run_one(req);
        // The profile came from the image (a memo hit, not a training
        // miss), and matches the cold training exactly.
        assert_eq!(*warm.shared_profile(spec), *trained);
        assert_eq!(a.report.to_string(), b.report.to_string());
        assert_eq!(a.memory, b.memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A corrupt artifact is rejected whole: the context falls back to a
    /// pristine cache, translation happens fresh, and results match a
    /// never-warmed service.
    #[test]
    fn corrupt_artifact_falls_back_to_fresh_translation() {
        let dir = temp_store("corrupt");
        let reqs =
            vec![
                RunRequest::new(KernelSpec::MemcpyUnaligned { len: 64 }, MdaStrategy::Dpeh)
                    .with_threshold(10),
            ];

        let cold = ExecService::new(ServeConfig::default().with_image_store(&dir));
        let baseline = cold.run_batch(&reqs);

        // Flip one byte mid-file in the stored artifact.
        let path = cold
            .store
            .as_ref()
            .unwrap()
            .path_for(cold.image_key_for(&reqs[0]));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let warm = ExecService::new(ServeConfig::default().with_image_store(&dir));
        let again = warm.run_batch(&reqs);
        let m = warm.metrics();
        assert_eq!(m.counter("serve.warm_start.image_rejected").get(), 1);
        assert_eq!(m.counter("serve.warm_start.image_loads").get(), 0);
        assert_eq!(m.counter("serve.warm_start.image_hits").get(), 0);
        assert!(
            m.counter("dbt.blocks_translated").get() > 0,
            "fell back to fresh translation"
        );
        assert_eq!(baseline.merged_stats, again.merged_stats);
        assert_eq!(baseline.reports_text(), again.reports_text());
        let trace = warm.warm_start_trace();
        assert_eq!(trace.event_count(), 1, "one image_reject record");
        // The batch end re-persisted a good image over the corrupt one.
        assert!(
            ExecService::new(ServeConfig::default().with_image_store(&dir))
                .run_batch(&reqs)
                .merged_stats
                == baseline.merged_stats
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Purity: span recording observes, it never perturbs. The same batch
    /// with and without spans is byte-identical in every witness, for
    /// every MDA strategy.
    #[test]
    fn spans_leave_results_byte_identical_across_strategies() {
        let spec = KernelSpec::PhaseChangeSum {
            aligned: 60,
            misaligned: 60,
        };
        let reqs: Vec<RunRequest> = MdaStrategy::ALL
            .iter()
            .map(|&s| RunRequest::new(spec, s).with_threshold(10).with_trace(true))
            .collect();
        let bare = ExecService::new(ServeConfig::default().with_shards(2));
        let spanned = ExecService::new(ServeConfig::default().with_shards(2).with_spans(true));
        let a = bare.run_batch(&reqs);
        let b = spanned.run_batch(&reqs);
        assert_eq!(a.merged_stats, b.merged_stats);
        assert_eq!(a.reports_text(), b.reports_text());
        assert_eq!(a.merged_sites().to_jsonl(), b.merged_sites().to_jsonl());
        for (p, s) in a.guests.iter().zip(&b.guests) {
            assert_eq!(p.memory, s.memory);
        }
        assert!(bare.span_snapshot().is_none());
        assert!(spanned.span_snapshot().is_some());
    }

    /// The request lifecycle lands as one tree per request: enqueue and
    /// queue-wait joined to the wall domain, the dispatch span carrying
    /// the adopted cycle-domain engine subtree.
    #[test]
    fn request_spans_join_the_engine_subtree() {
        let svc = ExecService::new(ServeConfig::default().with_shards(2).with_spans(true));
        let reqs = small_batch();
        svc.run_batch(&reqs);
        let rec = svc.span_snapshot().expect("spans on");
        assert_eq!(rec.scope(), "serve");
        let by_kind = |k: SpanKind| rec.spans().filter(|r| r.kind == k).count();
        assert_eq!(by_kind(SpanKind::Request), reqs.len());
        assert_eq!(by_kind(SpanKind::Enqueue), reqs.len());
        assert_eq!(by_kind(SpanKind::QueueWait), reqs.len());
        assert_eq!(by_kind(SpanKind::Dispatch), reqs.len());
        assert_eq!(by_kind(SpanKind::WarmStart), reqs.len());
        assert_eq!(by_kind(SpanKind::Aggregate), 1);
        assert_eq!(
            by_kind(SpanKind::Run),
            reqs.len(),
            "engine subtrees adopted"
        );
        assert!(by_kind(SpanKind::Translate) > 0);
        assert!(by_kind(SpanKind::Execute) > 0);
        // Every non-root span's parent exists; requests and the
        // aggregate are the only roots.
        let ids: std::collections::HashSet<u64> = rec.spans().map(|r| r.id).collect();
        for r in rec.spans() {
            if r.parent == 0 {
                assert!(matches!(r.kind, SpanKind::Request | SpanKind::Aggregate));
            } else {
                assert!(ids.contains(&r.parent), "parent committed");
            }
        }
        // Dispatch spans end at their guest's final simulated cycle.
        assert!(rec
            .spans()
            .filter(|r| r.kind == SpanKind::Dispatch)
            .all(|r| r.end_cycle > 0));
        // The flame view roots engine frames under the request path.
        let folded = rec.folded();
        assert!(
            folded.contains("serve;request;dispatch;run"),
            "engine run folds under serve;request;dispatch:\n{folded}"
        );
        // Serve spans carry wall stamps (the recorder stamps walls).
        assert!(rec
            .spans()
            .filter(|r| r.kind == SpanKind::QueueWait)
            .all(|r| r.wall_start_us.is_some() && r.wall_end_us.is_some()));
        // Adopted engine spans are cycle-domain only: the engine
        // recorder never stamped walls.
        assert!(rec
            .spans()
            .filter(|r| r.kind == SpanKind::Execute)
            .all(|r| r.wall_start_us.is_none()));
    }

    #[test]
    fn bare_run_one_records_a_request_root() {
        let svc = ExecService::new(ServeConfig::default().with_spans(true));
        let req = RunRequest::new(KernelSpec::MemcpyUnaligned { len: 64 }, MdaStrategy::Dpeh)
            .with_threshold(10);
        let result = svc.run_one(req);
        assert!(result.spans.is_some(), "engine snapshot rides the result");
        let rec = svc.span_snapshot().unwrap();
        let root = rec
            .spans()
            .find(|r| r.kind == SpanKind::Request)
            .expect("request root");
        assert_eq!(root.parent, 0);
        assert_eq!(root.end_cycle, result.report.stats.cycles);
        let warm = rec
            .spans()
            .find(|r| r.kind == SpanKind::WarmStart)
            .expect("warm-start span");
        assert_eq!(warm.parent, root.id);
    }

    #[test]
    fn health_report_samples_service_and_contexts() {
        let svc = ExecService::new(ServeConfig::default().with_shards(2));
        let reqs = small_batch();
        svc.run_batch(&reqs);
        let lines = svc.health_report();
        // One service line plus one per translation context (small_batch
        // spans three distinct contexts).
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with(&format!(
                "{{\"schema\":\"{}\"",
                bridge_metrics::HEALTH_SCHEMA
            )));
            assert!(line.ends_with('}'));
        }
        assert!(lines[0].contains("\"context\":\"service\""));
        assert!(lines[0].contains("\"serve.requests\""));
        // Context lines are label-ordered and carry cache counters.
        assert!(lines[1].contains("\"cache.insertions\""));
        let labels: Vec<&str> = lines[1..]
            .iter()
            .map(|l| {
                let start = l.find("\"context\":\"").unwrap() + 11;
                &l[start..start + l[start..].find('"').unwrap()]
            })
            .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted, "context lines label-ordered");
        assert!(labels.iter().any(|l| l.contains("/dpeh/")));
        // Headline gauges published.
        let m = svc.metrics();
        assert_eq!(m.gauge("serve.health.contexts").get(), 3);
        assert!(m.gauge("serve.health.exec_cycles_p50").get() > 0);
        // A second idle sample reports zero deltas but keeps totals.
        let again = svc.health_report();
        assert!(again[0].contains("\"serve.requests\":{\"total\":3,\"delta\":0"));
        assert!(again[1].contains("\"delta\":0"));
    }

    /// Regression: a translation context evicted and rebuilt between
    /// health samples restarts its cache counters at zero. The old
    /// `saturating_sub` clamped that to a silent zero delta; the report
    /// must instead carry a `"reset":true` marker and restart the
    /// baseline.
    #[test]
    fn health_report_flags_rebuilt_context_counters() {
        let svc = ExecService::new(ServeConfig::default().with_shards(2));
        let reqs = small_batch();
        svc.run_batch(&reqs);
        svc.health_report(); // establish per-context baselines

        // Evict and rebuild one context: a pristine cache whose counters
        // are behind the recorded baseline.
        let key = reqs[0].translation_context();
        let code_bytes = DbtConfig::new(reqs[0].strategy).code_bytes;
        svc.shared_caches
            .lock()
            .expect("shared-cache lock never poisoned")
            .insert(
                key,
                ContextCache {
                    cache: SharedCodeCache::new(code_bytes),
                    preloaded: false,
                },
            );

        let lines = svc.health_report();
        let rebuilt = lines
            .iter()
            .find(|l| l.contains("/static/"))
            .expect("rebuilt static-profiling context line present");
        assert!(
            rebuilt.contains("\"reset\":true"),
            "rebuilt context must surface the counter reset: {rebuilt}"
        );
        assert!(
            rebuilt.contains(
                "\"cache.insertions\":{\"total\":0,\"delta\":0,\"rate_per_sec\":0,\"reset\":true}"
            ),
            "baseline restarts at the reborn counter's total: {rebuilt}"
        );
        // Untouched contexts stay reset-free.
        let steady = lines
            .iter()
            .find(|l| l.contains("/eh/"))
            .expect("untouched context line present");
        assert!(
            !steady.contains("\"reset\""),
            "no spurious resets: {steady}"
        );

        // The next window, after fresh activity in the rebuilt context,
        // reports ordinary deltas from the new baseline.
        svc.run_batch(&reqs[..1]);
        let again = svc.health_report();
        let line = again.iter().find(|l| l.contains("/static/")).unwrap();
        assert!(!line.contains("\"reset\""), "baseline restarted: {line}");
    }

    #[test]
    fn traced_guests_feed_the_merged_table() {
        let svc = ExecService::new(ServeConfig::default().with_shards(2));
        let spec = KernelSpec::PhaseChangeSum {
            aligned: 60,
            misaligned: 60,
        };
        let reqs = vec![
            RunRequest::new(spec, MdaStrategy::ExceptionHandling)
                .with_threshold(10)
                .with_trace(true),
            RunRequest::new(spec, MdaStrategy::Dpeh).with_threshold(10),
        ];
        let batch = svc.run_batch(&reqs);
        assert!(batch.guests[0].tracer.is_some());
        assert!(batch.guests[1].tracer.is_none());
        let table = batch.merged_sites();
        assert!(!table.is_empty(), "the traced guest contributed sites");
        assert!(
            table.rows().all(|((guest, _), _)| guest == 0),
            "rows keyed by the traced guest's slot"
        );
    }
}
