//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! Nothing inside the program is instrumented: every figure is timed or
//! counted here, around calls into a layer's public functions, or read
//! from the service's own registry. An edge workload's traced run repeats
//! its live phases (set-up, unloaded, a shorter mid step with scrapes,
//! then the rate ladder) and replays the unloaded requests in-process on
//! twin services with the same history. The replay decomposes each
//! request the way `ExecService::run_one` executes it — context lookup,
//! kernel and profile memo, engine set-up, engine run, memory read-back —
//! and compares the sum with `run_one` itself, timed on another twin
//! (`ledger.residual_pct`).
//!
//! `repro` sends no requests. Its engine rows come from the paper's
//! benchmark programs, trained and run the way the gain figures run them;
//! its serve and edge rows come from a session of `edge_warm`'s traffic in
//! the same process, so that every row is a measurement.

use crate::edge::{self, canaries, pct, serve_config, EdgeLoad, Live};
use crate::load;
use crate::report::{RunOutput, PER_LAYER};
use crate::stats::Samples;
use crate::wire;
use crate::{repro, Kind, Lengths};
use bridge_dbt::cfg::discover_blocks;
use bridge_dbt::engine::{profile_program, GuestProgram};
use bridge_dbt::translator::{translate_block, DispatchOpts, SitePlan};
use bridge_dbt::{Dbt, DbtConfig, MdaStrategy, RunReport, StaticProfile};
use bridge_metrics::Registry;
use bridge_serve::{ExecService, FairQueue, KernelSpec, QuotaLedger, RunRequest, ServeConfig};
use bridge_sim::cost::CostModel;
use bridge_sim::mem::Memory;
use bridge_trace::{SpanConfig, TraceConfig, WatchConfig};
use bridge_workloads::spec::{selected_benchmarks, InputSet};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Guest-instruction budget of every replayed run (programs halt by
/// construction; this only bounds a broken build).
const FUEL: u64 = bridge_serve::FUEL;

/// Every per-layer metric; the run must set each one.
struct Layers {
    values: BTreeMap<&'static str, Option<(f64, usize)>>,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|s| (s.name, None)).collect(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64, n: usize) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = Some((value, n));
    }

    fn into_output(self, out: &mut RunOutput) {
        for (name, v) in self.values {
            let (value, n) = v.unwrap_or_else(|| panic!("{name} was not measured"));
            out.put(name, value, n);
        }
    }
}

pub fn run(kind: Kind, seed: u64, lengths: &Lengths) -> RunOutput {
    let mut layers = Layers::new();
    let mut out = match kind {
        Kind::Edge(load) => edge_layers(load, seed, lengths, &mut layers),
        Kind::Repro => {
            let mut out = edge_layers(edge::WARM, seed, lengths, &mut layers);
            repro_layers(&mut layers, &mut out);
            out
        }
    };
    layers.into_output(&mut out);
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f`, returning its value and the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Mean microseconds of `reps` calls of `f`.
fn mean_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    us(t.elapsed()) / f64::from(reps)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn pct_over(a: Duration, b: Duration) -> f64 {
    100.0 * (a.as_secs_f64() / b.as_secs_f64() - 1.0)
}

/// A guest program with its initial data, as both kernels and SPEC
/// stand-ins provide it.
struct Guest<'a> {
    program: &'a GuestProgram,
    data: &'a [(u32, Vec<u8>)],
    stack_top: u32,
}

impl Guest<'_> {
    /// The training run of the FX!32 scheme: interpret the program and
    /// keep its profile.
    fn train(&self) -> StaticProfile {
        profile_program(
            self.program,
            self.data,
            Some(self.stack_top),
            &CostModel::es40(),
            FUEL,
        )
        .expect("training run halts")
        .1
        .to_static_profile()
    }
}

/// Host cost of one guest program in each engine layer, each layer called
/// directly.
#[derive(Default, Clone, Copy)]
struct ProgramCost {
    builds: u64,
    build_ns: f64,
    trains: u64,
    train_ns: f64,
    interp_ns: f64,
    interp_insns: u64,
    translate_ns: f64,
    translated_insns: u64,
    blocks: u64,
}

impl ProgramCost {
    /// Interpreter and translator cost on `g`, with the measured build and
    /// training times of its workload.
    fn measure(g: &Guest<'_>, builds: &[Duration], trains: &[Duration]) -> ProgramCost {
        let ((_, profile), took) = timed(|| {
            profile_program(
                g.program,
                g.data,
                Some(g.stack_top),
                &CostModel::es40(),
                FUEL,
            )
            .expect("guest halts under the interpreter")
        });
        let mut mem = Memory::new();
        mem.write_bytes(u64::from(g.program.base()), g.program.image());
        let max_insns = DbtConfig::new(MdaStrategy::Dpeh).max_block_insns;
        let t = Instant::now();
        let found = discover_blocks(&mem, g.program.entry(), max_insns, 1 << 16);
        let mut base = 0x1000_0000u64;
        let (mut insns, mut blocks) = (0u64, 0u64);
        for &pc in &found.block_entries {
            let mut plan = |_, _| SitePlan::Normal;
            if let Ok(tb) = translate_block(
                &mem,
                pc,
                base,
                max_insns,
                &mut plan,
                DispatchOpts::default(),
            ) {
                insns += u64::from(tb.guest_insn_count);
                blocks += 1;
                base += 4 * tb.words.len() as u64;
            }
        }
        let ns = |d: &[Duration]| d.iter().map(|d| d.as_secs_f64() * 1e9).sum();
        ProgramCost {
            builds: builds.len() as u64,
            build_ns: ns(builds),
            trains: trains.len() as u64,
            train_ns: ns(trains),
            interp_ns: took.as_secs_f64() * 1e9,
            interp_insns: profile.guest_insns,
            translate_ns: t.elapsed().as_secs_f64() * 1e9,
            translated_insns: insns,
            blocks,
        }
    }

    fn plus(self, c: &ProgramCost) -> ProgramCost {
        ProgramCost {
            builds: self.builds + c.builds,
            build_ns: self.build_ns + c.build_ns,
            trains: self.trains + c.trains,
            train_ns: self.train_ns + c.train_ns,
            interp_ns: self.interp_ns + c.interp_ns,
            interp_insns: self.interp_insns + c.interp_insns,
            translate_ns: self.translate_ns + c.translate_ns,
            translated_insns: self.translated_insns + c.translated_insns,
            blocks: self.blocks + c.blocks,
        }
    }

    fn interp_ns_per_insn(&self) -> f64 {
        self.interp_ns / self.interp_insns.max(1) as f64
    }

    fn translate_ns_per_insn(&self) -> f64 {
        self.translate_ns / self.translated_insns.max(1) as f64
    }

    fn insns_per_block(&self) -> f64 {
        self.translated_insns as f64 / self.blocks.max(1) as f64
    }
}

/// What the engine runs of a replay add up to.
#[derive(Default)]
struct Engine {
    runs: u64,
    setup: Duration,
    run: Duration,
    interp_insns: u64,
    blocks_translated: u64,
    /// Interpretation and translation time of the runs, each priced at
    /// its program's measured per-instruction cost.
    interp_est_ns: f64,
    translate_est_ns: f64,
    traps: u64,
    os_fixups: u64,
    patches: u64,
    monitor_exits: u64,
    hint_hits: u64,
    hint_misses: u64,
    host_insns: u64,
    cycles: u64,
}

impl Engine {
    fn add(&mut self, r: &RunReport, cost: &ProgramCost, translated_blocks: u64) {
        self.runs += 1;
        self.interp_insns += r.guest_insns_interpreted;
        self.blocks_translated += translated_blocks;
        self.interp_est_ns += r.guest_insns_interpreted as f64 * cost.interp_ns_per_insn();
        self.translate_est_ns +=
            translated_blocks as f64 * cost.insns_per_block() * cost.translate_ns_per_insn();
        self.traps += r.traps();
        self.os_fixups += r.os_fixups;
        self.patches += r.patched_sites;
        self.monitor_exits += r.monitor_exits;
        self.hint_hits += r.hint_hits;
        self.hint_misses += r.hint_misses;
        self.host_insns += r.stats.insns;
        self.cycles += r.stats.cycles;
    }

    /// Sets every engine row: per run, and per call of each layer over
    /// the distinct programs in `costs`.
    fn report(&self, layers: &mut Layers, costs: &[ProgramCost]) {
        let n = self.runs.max(1) as f64;
        let runs = self.runs as usize;
        let sum = costs.iter().fold(ProgramCost::default(), ProgramCost::plus);
        let per_req = |v: u64| v as f64 / n;
        layers.set(
            "workloads.build_us",
            sum.build_ns / 1e3 / sum.builds.max(1) as f64,
            sum.builds as usize,
        );
        layers.set(
            "dbt.train_us",
            sum.train_ns / 1e3 / sum.trains.max(1) as f64,
            sum.trains as usize,
        );
        layers.set("dbt.setup_us", us(self.setup) / n, runs);
        layers.set("dbt.run_us", us(self.run) / n, runs);
        layers.set("dbt.interp_insns_per_req", per_req(self.interp_insns), runs);
        layers.set(
            "dbt.interp_ns_per_insn",
            sum.interp_ns_per_insn(),
            costs.len(),
        );
        layers.set(
            "dbt.translate_ns_per_guest_insn",
            sum.translate_ns_per_insn(),
            costs.len(),
        );
        layers.set(
            "dbt.blocks_translated_per_req",
            per_req(self.blocks_translated),
            runs,
        );
        layers.set(
            "dbt.hint_hit_ratio",
            ratio(self.hint_hits, self.hint_hits + self.hint_misses),
            runs,
        );
        layers.set("dbt.traps_per_req", per_req(self.traps), runs);
        layers.set("dbt.os_fixups_per_req", per_req(self.os_fixups), runs);
        layers.set("dbt.patches_per_req", per_req(self.patches), runs);
        layers.set(
            "dbt.monitor_exits_per_req",
            per_req(self.monitor_exits),
            runs,
        );
        layers.set("sim.host_insns_per_req", per_req(self.host_insns), runs);
        layers.set("sim.cycles_per_req", per_req(self.cycles), runs);
        // Execution is what the run took beyond interpretation and
        // translation.
        let run_ns = self.run.as_secs_f64() * 1e9;
        let exec_ns = (run_ns - self.interp_est_ns - self.translate_est_ns).max(1.0);
        layers.set(
            "dbt.exec_share_pct",
            100.0 * exec_ns / run_ns.max(1.0),
            runs,
        );
        layers.set("sim.mips", self.host_insns as f64 / (exec_ns / 1e3), runs);
    }
}

/// Host time of the same runs with observation off, with spans + watch
/// (+ the SLO on the serve side), and with tracing on.
#[derive(Default)]
struct Observation {
    runs: usize,
    bare: Duration,
    observed: Duration,
    traced: Duration,
    spans: u64,
}

impl Observation {
    fn report(&self, layers: &mut Layers) {
        let n = self.runs;
        layers.set(
            "observe.overhead_pct",
            pct_over(self.observed, self.bare),
            n,
        );
        layers.set(
            "trace.traced_req_overhead_pct",
            pct_over(self.traced, self.bare),
            n,
        );
        layers.set(
            "trace.spans_per_req",
            self.spans as f64 / n.max(1) as f64,
            n,
        );
    }
}

/// The registry values the mid step moves.
struct Counters {
    values: Vec<u64>,
    hist: [(u64, u64); 2],
}

const COUNTERS: [&str; 5] = [
    "serve.requests",
    "dbt.code_cache.hits",
    "dbt.code_cache.misses",
    "serve.memo.hits",
    "serve.memo.misses",
];

impl Counters {
    fn take(reg: &Registry) -> Counters {
        let h = |name: &str| {
            let h = reg.histogram(name);
            (h.sum(), h.count())
        };
        Counters {
            values: COUNTERS.iter().map(|c| reg.counter(c).get()).collect(),
            hist: [h("serve.edge.queue_wait_us"), h("serve.edge.exec_us")],
        }
    }

    fn delta(&self, later: &Counters, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a tracked counter");
        later.values[i] - self.values[i]
    }

    fn hit_ratio(&self, later: &Counters, hits: &str, misses: &str) -> f64 {
        let h = self.delta(later, hits);
        ratio(h, h + self.delta(later, misses))
    }

    /// Exact mean of a histogram over the interval: sum and count deltas,
    /// not bucket bounds.
    fn hist_mean(&self, later: &Counters, i: usize) -> f64 {
        let (s0, c0) = self.hist[i];
        let (s1, c1) = later.hist[i];
        ratio(s1 - s0, c1 - c0)
    }
}

/// The engine configuration `ExecService::run_one` builds for `req`
/// (shared cache, optional profile, observation per the service config).
fn engine_config(
    svc: &ExecService,
    req: &RunRequest,
    profile: Option<Arc<StaticProfile>>,
) -> DbtConfig {
    let serve = svc.config();
    let mut cfg = DbtConfig::new(req.strategy).with_threshold(req.hot_threshold);
    if let Some(p) = profile {
        cfg = cfg.with_static_profile(p);
    }
    if req.trace {
        cfg = cfg.with_trace(serve.trace.clone());
    }
    cfg = cfg.with_shared_cache(svc.shared_cache_for(req));
    if serve.spans {
        cfg = cfg.with_spans(SpanConfig::default());
    }
    if let Some(w) = serve.watch {
        cfg = cfg.with_watch(w);
    }
    cfg.with_metrics(Arc::clone(svc.metrics()))
}

/// Per-request layer times of the decomposed replay.
#[derive(Default)]
struct Serve {
    context: Duration,
    readback: Duration,
    encode: Duration,
}

/// `run_one` decomposed, each layer timed from outside. Returns the time
/// the layers account for and the witnesses the edge would send.
fn decomposed(
    svc: &ExecService,
    req: RunRequest,
    cost: &ProgramCost,
    serve: &mut Serve,
    engine: &mut Engine,
) -> (Duration, wire::RunBody) {
    let (cache, t_ctx) = timed(|| svc.shared_cache_for(&req));
    let (kernel, t_kernel) = timed(|| svc.shared_kernel(req.kernel));
    let (profile, t_profile) = timed(|| {
        (req.strategy == MdaStrategy::StaticProfiling).then(|| svc.shared_profile(req.kernel))
    });
    let inserted = cache.stats().insertions;
    let (mut dbt, t_setup) = timed(|| {
        let mut dbt = Dbt::new(engine_config(svc, &req, profile));
        kernel.load_into(&mut dbt);
        dbt
    });
    let (report, t_run) = timed(|| dbt.run(FUEL).expect("kernel halts within fuel"));
    let (memory, t_read) = timed(|| {
        req.kernel
            .observed_ranges()
            .into_iter()
            .map(|(addr, len)| {
                let mut buf = vec![0u8; len];
                dbt.machine().mem().read_bytes(u64::from(addr), &mut buf);
                (addr, buf)
            })
            .collect::<Vec<_>>()
    });
    let (body, t_encode) = timed(|| {
        let body = wire::RunBody {
            cycles: report.stats.cycles,
            report_text: report.to_string(),
            memory,
        };
        std::hint::black_box(wire::encode_run_response(0, &body));
        body
    });
    serve.context += t_ctx;
    serve.readback += t_read;
    serve.encode += t_encode;
    engine.setup += t_setup;
    engine.run += t_run;
    engine.add(&report, cost, cache.stats().insertions - inserted);
    (
        t_ctx + t_kernel + t_profile + t_setup + t_run + t_read,
        body,
    )
}

/// The traced run of an edge workload: the live figures, then the replay.
fn edge_layers(load: EdgeLoad, seed: u64, lengths: &Lengths, layers: &mut Layers) -> RunOutput {
    let mut live = Live::start(load, seed, lengths);
    let mut rtt = Samples::default();
    for o in &live.unloaded {
        rtt.push(o.latency_ms() * 1e3);
    }

    // The mid step, with scrapes, and the service's registry around it.
    let reg = Arc::clone(live.session.edge.service().metrics());
    let before = Counters::take(&reg);
    let mid = live.step(load.r_mid, lengths.traced_mid, true);
    let after = Counters::take(&reg);
    live.out.attempted += (mid.runs.len() + mid.scrapes.len()) as u64;
    live.out.failed += mid.failed as u64;
    let served = before.delta(&after, "serve.requests") as usize;
    layers.set(
        "edge.queue_wait_mean_us",
        before.hist_mean(&after, 0),
        served,
    );
    layers.set("edge.exec_mean_us", before.hist_mean(&after, 1), served);
    layers.set(
        "edge.shed_ratio.mid",
        mid.failed as f64 / (mid.runs.len() + mid.scrapes.len()) as f64,
        mid.runs.len() + mid.scrapes.len(),
    );
    let scrapes = mid.scrapes.len();
    layers.set("edge.scrape_p50_ms", pct(&mid.scrapes, 50.0), scrapes);
    layers.set("edge.scrape_p95_ms", pct(&mid.scrapes, 95.0), scrapes);
    layers.set("gen.late_p99_ms", pct(&mid.late, 99.0), mid.late.len());
    layers.set(
        "dbt.code_cache_hit_ratio",
        before.hit_ratio(&after, "dbt.code_cache.hits", "dbt.code_cache.misses"),
        served,
    );
    layers.set(
        "serve.memo_hit_ratio",
        before.hit_ratio(&after, "serve.memo.hits", "serve.memo.misses"),
        served,
    );

    // The scrape documents, rendered from the live service's state.
    let svc = live.session.edge.service();
    layers.set("serve.contexts", (svc.health_report().len() - 1) as f64, 1);
    let mut prom_len = 0;
    layers.set(
        "metrics.prom_us",
        mean_us(5, || prom_len = reg.to_prometheus().len()),
        5,
    );
    layers.set("metrics.exposition_bytes", prom_len as f64, 1);
    layers.set("metrics.json_us", mean_us(5, || drop(reg.to_json())), 5);
    layers.set(
        "serve.health_us",
        mean_us(5, || drop(svc.health_report())),
        5,
    );
    layers.set("serve.alerts_us", mean_us(5, || drop(svc.alerts_json())), 5);

    let steps = live.ladder(lengths);
    layers.set("edge.knee_rps", edge::knee(&steps), steps.len());

    let reqs = live.unloaded_reqs.clone();
    let mut out = live.finish();
    replay_edge(&load, &reqs, &rtt, layers, &mut out.mismatches);
    out
}

/// The unloaded requests replayed in-process on twins of the edge's
/// service, each primed with the canaries as the edge's set-up primed it.
fn replay_edge(
    load: &EdgeLoad,
    reqs: &[RunRequest],
    rtt: &Samples,
    layers: &mut Layers,
    mismatches: &mut Vec<String>,
) {
    let config = serve_config(load);
    let twin_run = ExecService::new(config.clone());
    let twin_parts = ExecService::new(config);
    let bare = ExecService::new(ServeConfig::default());
    let observed = ExecService::new(serve_config(&EdgeLoad {
        observed: true,
        ..*load
    }));
    let traced = ExecService::new(ServeConfig::default());
    for svc in [&twin_run, &twin_parts, &bare, &observed, &traced] {
        for req in canaries() {
            svc.run_one(req);
        }
    }

    // Each layer's cost per call on every distinct kernel: a build, a
    // training run on its training input, interpretation, translation.
    let mut costs: HashMap<KernelSpec, ProgramCost> = HashMap::new();
    for req in reqs {
        costs.entry(req.kernel).or_insert_with(|| {
            let (k, build) = timed(|| req.kernel.build());
            let t = req.kernel.training_spec().build();
            let training = Guest {
                program: &t.program,
                data: &t.data,
                stack_top: t.stack_top,
            };
            let train = timed(|| training.train()).1;
            let guest = Guest {
                program: &k.program,
                data: &k.data,
                stack_top: k.stack_top,
            };
            ProgramCost::measure(&guest, &[build], &[train])
        });
    }

    let mut serve = Serve::default();
    let mut engine = Engine::default();
    let mut obs = Observation::default();
    let (mut t_run_one, mut t_parts) = (Duration::ZERO, Duration::ZERO);
    for &req in reqs {
        let (whole, t) = timed(|| twin_run.run_one(req));
        t_run_one += t;
        let (t, body) = decomposed(
            &twin_parts,
            req,
            &costs[&req.kernel],
            &mut serve,
            &mut engine,
        );
        t_parts += t;
        if load::digest(&body) != load::digest(&edge::body(&whole)) {
            mismatches.push(format!(
                "decomposed run differs from run_one for {}",
                edge::label(&req)
            ));
        }
        let plain = req.with_trace(false);
        obs.runs += 1;
        obs.bare += timed(|| bare.run_one(plain)).1;
        let (r, t) = timed(|| observed.run_one(plain));
        obs.observed += t;
        obs.spans += r.spans.map_or(0, |s| s.len() as u64 + s.dropped());
        obs.traced += timed(|| traced.run_one(plain.with_trace(true))).1;
    }
    let n = reqs.len();
    let per = |d: Duration| us(d) / n.max(1) as f64;

    // Memo lookups that hit: every kernel and profile is built by now.
    let (_, t_kernel) = timed(|| {
        for req in reqs {
            std::hint::black_box(twin_parts.shared_kernel(req.kernel));
        }
    });
    let static_reqs: Vec<&RunRequest> = reqs
        .iter()
        .filter(|r| r.strategy == MdaStrategy::StaticProfiling)
        .collect();
    let (_, t_profile) = timed(|| {
        for req in &static_reqs {
            std::hint::black_box(twin_parts.shared_profile(req.kernel));
        }
    });

    layers.set("serve.run_one_us", per(t_run_one), n);
    layers.set("serve.context_us", per(serve.context), n);
    layers.set("serve.kernel_memo_us", per(t_kernel), n);
    layers.set(
        "serve.profile_memo_us",
        us(t_profile) / static_reqs.len().max(1) as f64,
        static_reqs.len(),
    );
    layers.set(
        "serve.readback_encode_us",
        per(serve.readback + serve.encode),
        n,
    );
    layers.set(
        "ledger.residual_pct",
        100.0 * (t_run_one.as_secs_f64() - t_parts.as_secs_f64()).abs() / t_run_one.as_secs_f64(),
        n,
    );
    engine.report(layers, &costs.values().copied().collect::<Vec<_>>());
    obs.report(layers);

    // The edge around run_one: round trip, client codec, admission.
    let rtt_us = rtt.mean().expect("the unloaded phase ran");
    layers.set("edge.rtt_us", rtt_us, rtt.len());
    layers.set("edge.overhead_us", rtt_us - per(t_run_one), n);
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| wire::encode_run_response(0, &edge::body(&bare.run_one(r.with_trace(false)))))
        .collect();
    let mut i = 0;
    layers.set(
        "edge.client_encode_us",
        mean_us(n as u32 * 10, || {
            std::hint::black_box(wire::encode_run(i as u64, 7, &reqs[i % n]));
            i += 1;
        }),
        n,
    );
    let mut i = 0;
    layers.set(
        "edge.client_decode_us",
        mean_us(n as u32 * 10, || {
            let r = wire::decode_response(&frames[i % n]).expect("well-formed frame");
            std::hint::black_box(r.run.as_ref().map(load::digest));
            i += 1;
        }),
        n,
    );
    layers.set("edge.admission_ns", admission_ns(), 1);
}

/// One request's trip through the edge's admission gates: per-tenant
/// quota admit and release, fair-queue push and pop.
fn admission_ns() -> f64 {
    const ROUNDS: u32 = 200_000;
    let ledger = QuotaLedger::new(32);
    let queue: FairQueue<u32> = FairQueue::new(64);
    let t = Instant::now();
    for i in 0..ROUNDS {
        let tenant = i % 4;
        assert!(ledger.admit(tenant), "quota free");
        assert!(queue.try_push(tenant, i).is_ok(), "queue has room");
        let (t, _) = queue.pop().expect("just pushed");
        ledger.release(t);
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(ROUNDS)
}

/// The engine rows of `repro`: each of the paper's benchmark programs
/// trained on its `train` input and run on its `ref` input, as the gain
/// figures run them, at the workload's scale.
fn repro_layers(layers: &mut Layers, out: &mut RunOutput) {
    let scale = repro::SCALE;
    let mut engine = Engine::default();
    let mut obs = Observation::default();
    let mut costs = Vec::new();
    let (mut t_whole, mut t_parts) = (Duration::ZERO, Duration::ZERO);
    for bench in selected_benchmarks() {
        out.attempted += 1;
        let (whole, t) = timed(|| {
            std::hint::black_box(bridge_bench::train_profile(bench, scale));
            bridge_bench::run_dbt(bench, scale, bridge_bench::dpeh_config())
        });
        t_whole += t;

        let spec = bench.workload(scale);
        let (train_w, tb1) = timed(|| bridge_workloads::build(&spec, InputSet::Train));
        let training = Guest {
            program: &train_w.program,
            data: &train_w.data,
            stack_top: train_w.stack_top,
        };
        let tt = timed(|| std::hint::black_box(training.train())).1;
        let (w, tb2) = timed(|| bridge_workloads::build(&spec, InputSet::Ref));
        let (mut dbt, ts) = timed(|| {
            let mut dbt = Dbt::new(bridge_bench::dpeh_config());
            w.load_into(&mut dbt);
            dbt
        });
        let (report, tr) = timed(|| dbt.run(FUEL).expect("workload halts"));
        t_parts += tb1 + tt + tb2 + ts + tr;
        if report.stats.cycles != whole.stats.cycles {
            out.mismatches.push(format!(
                "{}: decomposed run took {} cycles, run_dbt {}",
                bench.name, report.stats.cycles, whole.stats.cycles
            ));
        }
        let guest = Guest {
            program: &w.program,
            data: &w.data,
            stack_top: w.stack_top,
        };
        let cost = ProgramCost::measure(&guest, &[tb1, tb2], &[tt]);
        engine.setup += ts;
        engine.run += tr;
        engine.add(&report, &cost, report.blocks_translated);
        costs.push(cost);

        let run = |cfg: DbtConfig| {
            let mut dbt = Dbt::new(cfg);
            w.load_into(&mut dbt);
            let (r, t) = timed(|| dbt.run(FUEL).expect("workload halts"));
            (r, t, dbt)
        };
        let (bare, t, _) = run(bridge_bench::dpeh_config());
        obs.bare += t;
        let (observed, t, mut dbt) = run(bridge_bench::dpeh_config()
            .with_spans(SpanConfig::default())
            .with_watch(WatchConfig::default()));
        obs.observed += t;
        obs.spans += dbt
            .take_span_recorder()
            .map_or(0, |s| s.len() as u64 + s.dropped());
        let (traced, t, _) = run(bridge_bench::dpeh_config().with_trace(TraceConfig::default()));
        obs.traced += t;
        obs.runs += 1;
        for (what, r) in [("observed", &observed), ("traced", &traced)] {
            if r.stats.cycles != bare.stats.cycles {
                out.mismatches.push(format!(
                    "{}: {what} run took {} cycles, bare {}",
                    bench.name, r.stats.cycles, bare.stats.cycles
                ));
            }
        }
    }
    engine.report(layers, &costs);
    obs.report(layers);
    // Private caches only: no shared code cache to hit.
    layers.set("dbt.code_cache_hit_ratio", 0.0, obs.runs);
    layers.set(
        "ledger.residual_pct",
        100.0 * (t_whole.as_secs_f64() - t_parts.as_secs_f64()).abs() / t_whole.as_secs_f64(),
        obs.runs,
    );
}
