//! Experiment harness for DigitalBridge-RS.
//!
//! Every table and figure of the paper's evaluation (§VI) has a module
//! under [`experiments`] that regenerates it, and a binary under
//! `src/bin/` that prints it:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table I (MDA statistics, 54 benchmarks) | [`experiments::table1`] | `table1` |
//! | Figure 1 (native alignment-flag speedups) | [`experiments::fig1`] | `fig1` |
//! | Figure 10 (dynamic-profiling threshold sweep) | [`experiments::fig10`] | `fig10` |
//! | Figure 11 (code rearrangement gain/loss) | [`experiments::fig11`] | `fig11` |
//! | Figure 12 (DPEH vs exception handling) | [`experiments::fig12`] | `fig12` |
//! | Figure 13 (retranslation gain/loss) | [`experiments::fig13`] | `fig13` |
//! | Figure 14 (multi-version code gain/loss) | [`experiments::fig14`] | `fig14` |
//! | Figure 15 (MDA-instruction alignment-ratio classes) | [`experiments::fig15`] | `fig15` |
//! | Figure 16 (overall mechanism comparison) | [`experiments::fig16`] | `fig16` |
//! | Table III (MDAs undetected at threshold 50) | [`experiments::table3`] | `table3` |
//! | Table IV (MDAs remaining after train profiling) | [`experiments::table4`] | `table4` |
//!
//! `repro_all` runs the lot. Absolute numbers are not expected to match the
//! paper (different substrate, scaled workloads); the *shape* — who wins,
//! by roughly what factor, where the pathologies sit — is the reproduction
//! target. EXPERIMENTS.md records paper-vs-measured for each artifact.

pub mod baseline;
pub mod experiments;
pub mod serve;

use bridge_dbt::engine::profile_program;
use bridge_dbt::{Dbt, DbtConfig, MdaStrategy, Profile, RunReport, StaticProfile};
use bridge_sim::cost::CostModel;
use bridge_workloads::spec::{InputSet, Scale, SpecBenchmark};
use bridge_workloads::{build, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fuel budget handed to every DBT run (large; programs halt by
/// construction).
pub const FUEL: u64 = 200_000_000_000;

/// Parses the experiment scale from process args (`--scale
/// test|quick|paper`, default `quick`).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--scale" {
            return match w[1].as_str() {
                "test" => Scale::test(),
                "paper" | "full" => Scale::paper(),
                _ => Scale::quick(),
            };
        }
    }
    Scale::quick()
}

/// Parses the worker count from process args (`--jobs N`). Defaults to the
/// machine's available parallelism; always at least 1.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--jobs" {
            if let Ok(n) = w[1].parse::<usize>() {
                return n.max(1);
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every experiment in [`experiments::ALL`] across `jobs` worker
/// threads and returns the results **in canonical order**, each with its
/// wall-clock duration.
///
/// Each experiment is self-contained (it builds its own workloads and
/// machines), so the only shared state is the work queue. Results are
/// identical to a serial run — `jobs` affects wall-clock only, never table
/// contents.
///
/// # Panics
///
/// Propagates a panic from any experiment after all workers finish.
pub fn run_experiments_parallel(
    scale: Scale,
    jobs: usize,
) -> Vec<(&'static str, experiments::Table, Duration)> {
    let jobs = jobs.clamp(1, experiments::ALL.len());
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(experiments::Table, Duration)>>> =
        Mutex::new((0..experiments::ALL.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, run)) = experiments::ALL.get(i) else {
                    break;
                };
                let start = Instant::now();
                let table = run(scale);
                slots.lock().expect("no poisoned slot lock")[i] = Some((table, start.elapsed()));
            });
        }
    });
    experiments::ALL
        .iter()
        .zip(slots.into_inner().expect("no poisoned slot lock"))
        .map(|(&(name, _), slot)| {
            let (table, took) = slot.expect("every experiment ran");
            (name, table, took)
        })
        .collect()
}

/// Runs one benchmark's `ref` workload through the DBT under `cfg`.
///
/// # Panics
///
/// Panics if the workload does not halt within [`FUEL`] (a harness bug).
pub fn run_dbt(bench: &SpecBenchmark, scale: Scale, cfg: DbtConfig) -> RunReport {
    let w = build(&bench.workload(scale), InputSet::Ref);
    run_dbt_on(&w, cfg)
}

/// Runs a prebuilt workload through the DBT under `cfg`.
///
/// # Panics
///
/// Panics if the workload does not halt within [`FUEL`].
pub fn run_dbt_on(w: &Workload, cfg: DbtConfig) -> RunReport {
    let mut dbt = Dbt::new(cfg);
    w.load_into(&mut dbt);
    dbt.run(FUEL).expect("workload halts within fuel")
}

/// Runs an in-tree micro-kernel through the DBT under `cfg` (the dispatch
/// benchmark's workloads).
///
/// # Panics
///
/// Panics if the kernel does not halt within [`FUEL`].
pub fn run_kernel(k: &bridge_workloads::kernels::Kernel, cfg: DbtConfig) -> RunReport {
    let mut dbt = Dbt::new(cfg);
    k.load_into(&mut dbt);
    dbt.run(FUEL).expect("kernel halts within fuel")
}

/// Runs an in-tree micro-kernel with structured tracing attached and
/// returns the report plus the trace snapshot (site table, timelines and
/// event ring with the execution profile folded in).
///
/// # Panics
///
/// Panics if the kernel does not halt within [`FUEL`].
pub fn run_kernel_traced(
    k: &bridge_workloads::kernels::Kernel,
    cfg: DbtConfig,
    trace: bridge_trace::TraceConfig,
) -> (RunReport, bridge_trace::Tracer) {
    let mut dbt = Dbt::new(cfg.with_trace(trace));
    k.load_into(&mut dbt);
    let report = dbt.run(FUEL).expect("kernel halts within fuel");
    let tracer = dbt.trace_snapshot().expect("tracing was configured");
    (report, tracer)
}

/// Runs an in-tree micro-kernel with span recording attached and returns
/// the report plus the engine's cycle-domain span snapshot (translate /
/// execute / trap-fixup / image-restore tree, scoped to the strategy
/// slug). Spans never charge simulated cycles, so the report is
/// byte-identical to a bare run's.
///
/// # Panics
///
/// Panics if the kernel does not halt within [`FUEL`].
pub fn run_kernel_spanned(
    k: &bridge_workloads::kernels::Kernel,
    cfg: DbtConfig,
    spans: bridge_trace::SpanConfig,
) -> (RunReport, bridge_trace::SpanRecorder) {
    let mut dbt = Dbt::new(cfg.with_spans(spans));
    k.load_into(&mut dbt);
    let report = dbt.run(FUEL).expect("kernel halts within fuel");
    let recorder = dbt.take_span_recorder().expect("spans were configured");
    (report, recorder)
}

/// Runs an in-tree micro-kernel with the continuous re-divergence watch
/// attached and returns the report plus the sealed
/// [`SiteWatch`](bridge_trace::SiteWatch) (per-site verdicts and
/// transitions). Watching never charges simulated cycles, so the report
/// is byte-identical to a bare run's.
///
/// # Panics
///
/// Panics if the kernel does not halt within [`FUEL`].
pub fn run_kernel_watched(
    k: &bridge_workloads::kernels::Kernel,
    cfg: DbtConfig,
    watch: bridge_trace::WatchConfig,
) -> (RunReport, bridge_trace::SiteWatch) {
    let mut dbt = Dbt::new(cfg.with_watch(watch));
    k.load_into(&mut dbt);
    let report = dbt.run(FUEL).expect("kernel halts within fuel");
    let watch = dbt.take_watch().expect("watch was configured");
    (report, watch)
}

/// Everything a streamed kernel run produces: the run report, the
/// retained trace snapshot (ring tail + aggregates), the sink's final
/// summary (or the I/O error that detached it), and — for in-memory
/// sinks — the recovered byte buffer.
pub struct StreamedRun {
    /// The DBT run report (identical to an untraced run's).
    pub report: RunReport,
    /// The trace snapshot after the run (ring retained by `finish_sink`).
    pub tracer: bridge_trace::Tracer,
    /// The sink's closing summary, or the error that detached it mid-run.
    pub summary: Result<bridge_trace::SinkSummary, String>,
    /// The streamed bytes, when the sink was a `StreamingJsonl<Vec<u8>>`.
    pub output: Option<Vec<u8>>,
}

/// Runs an in-tree micro-kernel with tracing *and* a streaming sink
/// attached: every ring-evicted record flows to the sink in order, and
/// the ring tail is drained at the end, so the sink sees the full event
/// stream regardless of ring capacity.
///
/// # Panics
///
/// Panics if the kernel does not halt within [`FUEL`] or if tracing is
/// disabled in `trace` (a sink needs a tracer to feed it).
pub fn run_kernel_streamed(
    k: &bridge_workloads::kernels::Kernel,
    cfg: DbtConfig,
    trace: bridge_trace::TraceConfig,
    sink: Box<dyn bridge_trace::TraceSink>,
) -> StreamedRun {
    let mut dbt = Dbt::new(cfg.with_trace(trace));
    assert!(
        dbt.attach_trace_sink(sink),
        "streaming needs tracing enabled"
    );
    k.load_into(&mut dbt);
    let report = dbt.run(FUEL).expect("kernel halts within fuel");
    let summary = dbt.finish_trace_sink().expect("a sink was attached");
    let output = dbt.take_trace_sink_output();
    let tracer = dbt.trace_snapshot().expect("tracing was configured");
    StreamedRun {
        report,
        tracer,
        summary,
        output,
    }
}

/// Produces the `train`-input profile for static profiling (the paper's
/// pre-execution phase, Figure 3).
///
/// # Panics
///
/// Panics if the training run does not halt (a harness bug).
pub fn train_profile(bench: &SpecBenchmark, scale: Scale) -> StaticProfile {
    let w = build(&bench.workload(scale), InputSet::Train);
    let (_, profile) = profile_program(
        &w.program,
        &w.data,
        Some(w.stack_top),
        &CostModel::es40(),
        FUEL,
    )
    .expect("training run halts");
    profile.to_static_profile()
}

/// Reference-interprets the `ref` workload, returning its full profile
/// (Table I / Figure 15 measurements).
///
/// # Panics
///
/// Panics if the run does not halt (a harness bug).
pub fn reference_profile(bench: &SpecBenchmark, scale: Scale) -> Profile {
    let w = build(&bench.workload(scale), InputSet::Ref);
    let (_, profile) = profile_program(
        &w.program,
        &w.data,
        Some(w.stack_top),
        &CostModel::es40(),
        FUEL,
    )
    .expect("reference run halts");
    profile
}

/// A DPEH configuration with the paper's defaults (the baseline most
/// figures are normalized to builds on).
pub fn dpeh_config() -> DbtConfig {
    DbtConfig::new(MdaStrategy::Dpeh)
}

/// An Exception Handling configuration with the paper's defaults.
pub fn eh_config() -> DbtConfig {
    DbtConfig::new(MdaStrategy::ExceptionHandling)
}

/// Geometric mean (the paper reports geomeans over the 21 benchmarks).
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Formats a ratio as a signed percentage gain (positive = faster than the
/// baseline), the form the paper's gain/loss figures use.
pub fn gain_percent(baseline_cycles: u64, variant_cycles: u64) -> f64 {
    100.0 * (baseline_cycles as f64 - variant_cycles as f64) / baseline_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "geomean of nothing")]
    fn geomean_empty_panics() {
        geomean(&[]);
    }

    #[test]
    fn gain_sign_convention() {
        assert!(gain_percent(100, 90) > 0.0, "faster is a gain");
        assert!(gain_percent(100, 110) < 0.0, "slower is a loss");
        assert!((gain_percent(200, 100) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn harness_smoke_one_benchmark() {
        use bridge_workloads::spec::benchmark;
        let b = benchmark("470.lbm").unwrap();
        let scale = Scale::test();
        let r = run_dbt(b, scale, eh_config());
        assert!(r.cycles() > 0);
        let p = reference_profile(b, scale);
        assert!(p.mdas > 0);
        let sp = train_profile(b, scale);
        // lbm has no input-dependent sites: train catches everything.
        assert!(!sp.is_empty());
    }
}
