//! The edge workloads: a `bridge-edge/1` client driving an in-process
//! `EdgeServer` over loopback TCP.
//!
//! Every edge run has the same three phases: set-up (start the edge,
//! connect, run the canaries), an unloaded phase of one caller waiting for
//! each reply, and a mid phase of open-loop Poisson arrivals at the
//! workload's fixed rate. The traced run adds a ladder of rising
//! open-loop rates that stops at the first rate missing the latency limit
//! twice.

use crate::load::{self, Conn, Op, Outcome, Planned};
use crate::report::RunOutput;
use crate::stats::{Samples, Windowed};
use crate::wire;
use crate::{golden, Lengths};
use bridge_dbt::MdaStrategy;
use bridge_metrics::{SloKind, SloSpec};
use bridge_serve::{
    EdgeConfig, EdgeServer, ExecService, GuestResult, KernelSpec, RunRequest, ServeConfig,
};
use bridge_trace::WatchConfig;
use bridge_workloads::rng::SplitMix64;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A ladder step passes when its p99 is within this limit and it leaves
/// no growing backlog: the median latency of the requests due in its last
/// tenth is within the limit too. (A backlog grows toward the end of a
/// step; one slow reply near the end is not a backlog.)
pub const LIMIT_MS: f64 = 20.0;

/// Ladder step `k` offers `R_mid · FIRST_STEP · GROWTH^k`, k < STEPS.
const FIRST_STEP: f64 = 1.25;
const GROWTH: f64 = 1.1;
const STEPS: i32 = 16;

/// Cold requests are checked against the in-process service one in this
/// many; warm requests all are.
const COLD_CHECK_EVERY: usize = 16;

/// Scrape rate of the observed workload during the open-loop phases.
const SCRAPE_EVERY: Duration = Duration::from_millis(20);

/// How long a step waits for replies after the last one arrived.
const GRACE: Duration = Duration::from_secs(5);

/// Width of the windows the mid step's percentiles are taken in: 1200
/// requests or more at the mid rates, so a window's p99 has at least ten
/// samples beyond it.
const WINDOW_MS: f64 = 2000.0;

/// Which requests an edge workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Uniform over the six canaries: every memo and cache lookup hits.
    Warm,
    /// A fresh draw of kernel, size, strategy and threshold per request:
    /// nearly every request is a new translation context.
    Cold,
}

/// One edge workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct EdgeLoad {
    pub mix: Mix,
    /// Offered rate of the mid phase, and the base of the ladder.
    pub r_mid: f64,
    /// Spans, the re-divergence watch and an SLO on the service; every
    /// 8th request traced; scrapes at 50 Hz on the same connection.
    pub observed: bool,
}

/// `edge_warm`'s traffic, also the reference session of `repro`'s traced
/// run.
pub const WARM: EdgeLoad = EdgeLoad {
    mix: Mix::Warm,
    r_mid: 800.0,
    observed: false,
};

/// The six fixed warm requests, also every edge workload's set-up
/// canaries. The last one traps about 1000 times per request.
pub fn canaries() -> [RunRequest; 6] {
    let phase = KernelSpec::PhaseChangeSum {
        aligned: 1000,
        misaligned: 1000,
    };
    [
        RunRequest::new(
            KernelSpec::MemcpyUnaligned { len: 8192 },
            MdaStrategy::ExceptionHandling,
        ),
        RunRequest::new(phase, MdaStrategy::Dpeh),
        RunRequest::new(
            KernelSpec::PackedStructSum { count: 2000 },
            MdaStrategy::StaticProfiling,
        ),
        RunRequest::new(
            KernelSpec::LinkedListChase { count: 2000 },
            MdaStrategy::DynamicProfiling,
        ),
        RunRequest::new(
            KernelSpec::MisalignedStack { iterations: 1000 },
            MdaStrategy::Direct,
        ),
        RunRequest::new(phase, MdaStrategy::DynamicProfiling),
    ]
}

/// One cold request: kernel, size n in [512, 2048), strategy and
/// threshold in {10, 50, 200}, all drawn from `rng`.
pub fn cold_request(rng: &mut SplitMix64) -> RunRequest {
    let n = 512 + rng.next_u32() % 1536;
    let kernel = match rng.next_u32() % 5 {
        0 => KernelSpec::MemcpyUnaligned { len: 4 * n },
        1 => KernelSpec::PackedStructSum { count: n },
        2 => KernelSpec::MisalignedStack { iterations: n },
        3 => KernelSpec::LinkedListChase { count: n },
        _ => KernelSpec::PhaseChangeSum {
            aligned: n,
            misaligned: n,
        },
    };
    let strategy = MdaStrategy::ALL[(rng.next_u32() % 5) as usize];
    let threshold = [10, 50, 200][(rng.next_u32() % 3) as usize];
    RunRequest::new(kernel, strategy).with_threshold(threshold)
}

/// The request stream of one run, drawn from the seed.
pub struct Stream {
    rng: SplitMix64,
    load: EdgeLoad,
    tenants: [u32; 4],
    sent: u64,
}

impl Stream {
    pub fn new(seed: u64, load: EdgeLoad) -> Stream {
        let mut rng = SplitMix64::new(seed);
        let tenants = std::array::from_fn(|_| rng.next_u32());
        Stream {
            rng,
            load,
            tenants,
            sent: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let req = match self.load.mix {
            Mix::Warm => canaries()[(self.rng.next_u32() % 6) as usize],
            Mix::Cold => cold_request(&mut self.rng),
        };
        let traced = self.load.observed && self.sent % 8 == 7;
        let tenant = self.tenants[(self.sent % 4) as usize];
        self.sent += 1;
        Op::Run {
            req: req.with_trace(traced),
            tenant,
        }
    }
}

/// The service configuration of a workload.
pub fn serve_config(load: &EdgeLoad) -> ServeConfig {
    let cfg = ServeConfig::default();
    if !load.observed {
        return cfg;
    }
    cfg.with_spans(true)
        .with_watch(WatchConfig::default())
        .with_slo(SloSpec::new(
            "fleet-rediverge",
            SloKind::DeltaAtMost {
                metric: "serve.watch.rediverged".to_string(),
                max_delta: 0,
            },
        ))
}

/// Compares socket results with the in-process service: every warm
/// reply, one cold reply in [`COLD_CHECK_EVERY`].
pub struct Checker {
    twin: ExecService,
    oracle: HashMap<RunRequest, u64>,
    every: usize,
    seen: usize,
    pub mismatches: Vec<String>,
}

/// The witnesses of an in-process result, as the edge would send them.
pub fn body(r: &GuestResult) -> wire::RunBody {
    wire::RunBody {
        cycles: r.report.stats.cycles,
        report_text: r.report.to_string(),
        memory: r.memory.clone(),
    }
}

/// Cycles, traps and witness digest of the in-process service's result
/// for `req`.
pub fn reference_digest(svc: &ExecService, req: RunRequest) -> (u64, u64, u64) {
    let r = svc.run_one(req);
    (
        r.report.stats.cycles,
        r.report.traps(),
        load::digest(&body(&r)),
    )
}

/// A request label without spaces: kernel and wire parameters, strategy,
/// threshold.
pub fn label(req: &RunRequest) -> String {
    let (_, a, b) = req.kernel.to_wire();
    format!(
        "{}:{a}:{b}/{}/t{}",
        req.kernel.name(),
        req.strategy.slug(),
        req.hot_threshold
    )
}

impl Checker {
    fn new(mix: Mix) -> Checker {
        Checker {
            twin: ExecService::new(ServeConfig::default()),
            oracle: HashMap::new(),
            every: if mix == Mix::Warm {
                1
            } else {
                COLD_CHECK_EVERY
            },
            seen: 0,
            mismatches: Vec::new(),
        }
    }

    fn expected(&mut self, req: RunRequest) -> u64 {
        // Tracing observes a run and never alters it.
        let req = req.with_trace(false);
        if let Some(&d) = self.oracle.get(&req) {
            return d;
        }
        let d = reference_digest(&self.twin, req).2;
        self.oracle.insert(req, d);
        d
    }

    /// Checks every sampled `Ok` reply of a phase.
    fn check(&mut self, plan: &[Op], outcomes: &[Outcome]) {
        for (op, o) in plan.iter().zip(outcomes) {
            let (Op::Run { req, .. }, Some(got)) = (op, o.digest) else {
                continue;
            };
            self.seen += 1;
            if !self.seen.is_multiple_of(self.every) {
                continue;
            }
            if self.expected(*req) != got {
                self.mismatches.push(format!(
                    "socket result differs from in-process run_one for {}",
                    label(req)
                ));
            }
        }
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A running edge with one client connection.
pub struct Session {
    pub edge: EdgeServer,
    pub conn: Conn,
}

impl Session {
    /// Starts the edge, connects and runs the canaries once; returns the
    /// session and the canary outcomes.
    pub fn start(load: &EdgeLoad) -> (Session, Vec<Outcome>) {
        let edge = EdgeServer::start(EdgeConfig::default().with_serve(serve_config(load)))
            .expect("edge binds a loopback port");
        let mut conn = Conn::connect(edge.addr()).expect("client connects");
        let ops: Vec<Op> = canaries()
            .into_iter()
            .map(|req| Op::Run { req, tenant: 0 })
            .collect();
        let out = conn.closed_loop(&ops);
        (Session { edge, conn }, out)
    }

    pub fn stop(self) {
        drop(self.conn);
        self.edge.shutdown();
    }
}

/// The open-loop plan of one step: Poisson arrivals at `rate` for
/// `length`, plus scrapes at 50 Hz when `scrapes` is set.
pub fn plan_step(
    stream: &mut Stream,
    arrivals: &mut SplitMix64,
    rate: f64,
    length: Duration,
    scrapes: bool,
) -> Vec<Planned> {
    let mut plan: Vec<Planned> = load::poisson_times(arrivals, rate, length)
        .into_iter()
        .map(|due| Planned {
            due,
            op: stream.next_op(),
        })
        .collect();
    if scrapes {
        let codes = [wire::OP_METRICS_PROM, wire::OP_HEALTH, wire::OP_ALERTS];
        let n = (length.as_nanos() / SCRAPE_EVERY.as_nanos()) as usize;
        plan.extend((0..n).map(|k| Planned {
            due: SCRAPE_EVERY * k as u32,
            op: Op::Scrape(codes[k % codes.len()]),
        }));
        plan.sort_by_key(|p| p.due);
    }
    plan
}

/// What one open-loop step measured.
pub struct Step {
    pub rate: f64,
    pub runs: Samples,
    /// The run latencies again, by due-time window.
    pub windows: Windowed,
    pub scrapes: Samples,
    pub late: Samples,
    /// Operations (runs and scrapes) without an `Ok` reply.
    pub failed: usize,
    /// Latencies of the run requests due in the step's last tenth.
    pub tail: Samples,
}

impl Step {
    pub fn p99(&self) -> f64 {
        pct(&self.runs, 99.0)
    }

    pub fn passes(&self) -> bool {
        pct(&self.tail, 50.0) <= LIMIT_MS && self.p99() <= LIMIT_MS
    }
}

/// The highest rate meeting the limit: the crossing of the limit,
/// interpolated on log p99 between the last passing step and the first
/// failing one; the last passing rate when the failing step shed or left
/// a backlog.
pub fn knee(steps: &[Step]) -> f64 {
    let Some(first_fail) = steps.iter().position(|s| !s.passes()) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let fail = &steps[first_fail];
    let Some(pass) = first_fail.checked_sub(1).map(|i| &steps[i]) else {
        // Even the first step missed: scale its rate by how far it missed.
        let p99 = fail.p99();
        let scale = if p99.is_finite() {
            (LIMIT_MS / p99).min(1.0)
        } else {
            0.5
        };
        return fail.rate * scale;
    };
    let (pa, pb) = (pass.p99(), fail.p99());
    if pct(&fail.tail, 50.0) > LIMIT_MS || !pb.is_finite() || pb <= pa {
        return pass.rate;
    }
    let x = (LIMIT_MS.ln() - pa.ln()) / (pb.ln() - pa.ln());
    pass.rate * (fail.rate / pass.rate).powf(x.clamp(0.0, 1.0))
}

/// A live edge after set-up and the unloaded phase, ready for open-loop
/// steps.
pub struct Live {
    pub load: EdgeLoad,
    pub session: Session,
    pub stream: Stream,
    arrivals: SplitMix64,
    checker: Checker,
    /// Seconds of each set-up.
    pub setups: Vec<f64>,
    /// The unloaded phase's requests and outcomes, and its wall seconds.
    pub unloaded_reqs: Vec<RunRequest>,
    pub unloaded: Vec<Outcome>,
    pub unloaded_wall: f64,
    pub out: RunOutput,
}

impl Live {
    /// Set-up (several times; the last session carries the run), the
    /// golden pins, and the unloaded phase.
    pub fn start(load: EdgeLoad, seed: u64, lengths: &Lengths) -> Live {
        let mut out = RunOutput::default();
        let mut checker = Checker::new(load.mix);
        golden::check_canaries(&checker.twin, &mut out.mismatches);
        if load.mix == Mix::Cold && seed == golden::DEFAULT_SEED {
            let first = golden::first_cold(seed);
            golden::check_cold(&checker.twin, &first, &mut out.mismatches);
        }
        let canary_ops: Vec<Op> = canaries()
            .into_iter()
            .map(|req| Op::Run { req, tenant: 0 })
            .collect();
        let mut setups = Vec::new();
        let mut session = None;
        for _ in 0..lengths.setups {
            if let Some(s) = session.take() {
                Session::stop(s);
            }
            let t = Instant::now();
            let (s, canary_out) = Session::start(&load);
            setups.push(t.elapsed().as_secs_f64());
            checker.check(&canary_ops, &canary_out);
            if canary_out.iter().any(|o| o.done.is_none()) {
                out.mismatches
                    .push("a set-up canary was not answered Ok".into());
            }
            session = Some(s);
        }
        let mut session = session.expect("at least one set-up");

        let mut stream = Stream::new(seed, load);
        let ops: Vec<Op> = (0..lengths.unloaded).map(|_| stream.next_op()).collect();
        let t = Instant::now();
        let unloaded = session.conn.closed_loop(&ops);
        let unloaded_wall = t.elapsed().as_secs_f64();
        checker.check(&ops, &unloaded);
        out.attempted += unloaded.len() as u64;
        out.failed += unloaded.iter().filter(|o| o.done.is_none()).count() as u64;
        let unloaded_reqs = ops
            .iter()
            .map(|op| match op {
                Op::Run { req, .. } => *req,
                Op::Scrape(_) => unreachable!("the unloaded phase only runs"),
            })
            .collect();
        Live {
            load,
            session,
            stream,
            arrivals: SplitMix64::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0),
            checker,
            setups,
            unloaded_reqs,
            unloaded,
            unloaded_wall,
            out,
        }
    }

    /// One open-loop step at `rate` for `length`, replies checked. The
    /// observed workload always scrapes; `scrapes` adds scrapes to the
    /// others.
    pub fn step(&mut self, rate: f64, length: Duration, scrapes: bool) -> Step {
        let scrapes = scrapes || self.load.observed;
        let plan = plan_step(&mut self.stream, &mut self.arrivals, rate, length, scrapes);
        let out = self.session.conn.open_loop(&plan, GRACE);
        let ops: Vec<Op> = plan.iter().map(|p| p.op).collect();
        self.checker.check(&ops, &out);
        let tail_from = length.mul_f64(0.9);
        let mut step = Step {
            rate,
            runs: Samples::default(),
            windows: Windowed::new(WINDOW_MS),
            scrapes: Samples::default(),
            late: Samples::default(),
            failed: out.iter().filter(|o| o.done.is_none()).count(),
            tail: Samples::default(),
        };
        for o in &out {
            step.late.push(o.late_ms());
            if o.is_scrape {
                step.scrapes.push(o.latency_ms());
                continue;
            }
            step.runs.push(o.latency_ms());
            step.windows.push(o.due.as_secs_f64() * 1e3, o.latency_ms());
            if o.due >= tail_from {
                step.tail.push(o.latency_ms());
            }
        }
        step
    }

    /// Rising open-loop rates until a rate misses the limit twice in a
    /// row (the repeat keeps one hiccup of a shared host from ending the
    /// ladder early); returns every step kept.
    pub fn ladder(&mut self, lengths: &Lengths) -> Vec<Step> {
        let mut steps = Vec::new();
        for k in 0..STEPS {
            let rate = self.load.r_mid * FIRST_STEP * GROWTH.powi(k);
            let mut step = self.step(rate, lengths.step, false);
            if !step.passes() {
                step = self.step(rate, lengths.step, false);
            }
            let pass = step.passes();
            steps.push(step);
            if !pass {
                break;
            }
        }
        steps
    }

    /// Stops the edge and returns the run's accounting and mismatches.
    pub fn finish(mut self) -> RunOutput {
        self.session.stop();
        self.out.mismatches.append(&mut self.checker.mismatches);
        self.out
    }
}

/// Runs one edge workload with tracing off: the end-to-end metrics.
pub fn run(load: EdgeLoad, seed: u64, lengths: &Lengths) -> RunOutput {
    let mut live = Live::start(load, seed, lengths);
    let mid = live.step(load.r_mid, lengths.mid, false);
    // Memory after a fixed amount of traffic.
    let rss = peak_rss_mb();
    let mut lat = Samples::default();
    for o in &live.unloaded {
        lat.push(o.latency_ms());
    }
    let setup = crate::stats::median(&live.setups);
    let out = &mut live.out;
    out.attempted += (mid.runs.len() + mid.scrapes.len()) as u64;
    out.failed += mid.failed as u64;
    out.put("setup_s", setup, live.setups.len());
    out.put("wall_s", live.unloaded_wall, lat.len());
    out.put("lat_p50_ms.unloaded", pct(&lat, 50.0), lat.len());
    out.put("lat_p90_ms.unloaded", pct(&lat, 90.0), lat.len());
    let quiet = |p| mid.windows.quiet_percentile(p).unwrap_or(f64::INFINITY);
    out.put("lat_p50_ms.mid", quiet(50.0), mid.runs.len());
    out.put("lat_p99_ms.mid", quiet(99.0), mid.runs.len());
    out.put("peak_rss_mb", rss, 1);
    live.finish()
}

pub fn pct(s: &Samples, p: f64) -> f64 {
    s.percentile(p).unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, latencies: &[f64], tail: &[f64]) -> Step {
        let mut s = Step {
            rate,
            runs: Samples::default(),
            windows: Windowed::new(WINDOW_MS),
            scrapes: Samples::default(),
            late: Samples::default(),
            failed: 0,
            tail: Samples::default(),
        };
        for &l in latencies {
            s.runs.push(l);
            s.failed += usize::from(l.is_infinite());
        }
        for &l in tail {
            s.tail.push(l);
        }
        s
    }

    #[test]
    fn step_passes_within_the_limit_without_backlog() {
        let fast = vec![2.0; 200];
        assert!(step(1000.0, &fast, &[2.0; 20]).passes());
        // Two sheds in a hundred push p99 to infinity.
        let mut shed = vec![2.0; 98];
        shed.extend([f64::INFINITY; 2]);
        assert!(!step(1000.0, &shed, &[2.0; 10]).passes());
        // A fine p99 but a growing backlog at the end of the step.
        assert!(!step(1000.0, &fast, &[30.0, 40.0, 50.0]).passes());
        // One slow reply near the end is not a backlog.
        assert!(step(1000.0, &fast, &[2.0, 2.0, 90.0]).passes());
    }

    #[test]
    fn knee_interpolates_between_pass_and_miss() {
        let pass = step(1000.0, &[10.0; 100], &[10.0]);
        let miss = step(1100.0, &[40.0; 100], &[10.0]);
        let k = knee(&[pass, miss]);
        // log p99 crosses 20 ms halfway between 10 and 40 ms.
        assert!((k - 1000.0 * 1.1f64.sqrt()).abs() < 1e-6, "{k}");
        // A miss that shed: the last passing rate.
        let pass = step(1000.0, &[10.0; 100], &[10.0]);
        let shed = step(1100.0, &[f64::INFINITY; 100], &[f64::INFINITY]);
        assert_eq!(knee(&[pass, shed]), 1000.0);
        // Every step passed: the ladder's top rate.
        let top = step(1200.0, &[5.0; 100], &[5.0]);
        assert_eq!(knee(&[top]), 1200.0);
    }

    #[test]
    fn streams_are_seeded() {
        let load = EdgeLoad {
            mix: Mix::Cold,
            r_mid: 1.0,
            observed: true,
        };
        let draw = |seed| {
            let mut s = Stream::new(seed, load);
            (0..16)
                .map(|_| match s.next_op() {
                    Op::Run { req, tenant } => (label(&req), req.trace, tenant),
                    Op::Scrape(_) => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        // Every 8th request of the observed stream is traced.
        let traced: Vec<bool> = draw(3).iter().map(|d| d.1).collect();
        assert_eq!(traced.iter().filter(|t| **t).count(), 2);
        assert!(traced[7] && traced[15]);
    }
}
