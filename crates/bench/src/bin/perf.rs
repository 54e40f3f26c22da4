//! In-tree performance harness for the simulator itself.
//!
//! Usage: `cargo run --release --bin perf [-- --scale test|quick|paper]`
//!
//! Measures, on this machine:
//!
//! 1. **Alpha simulator MIPS** (host-simulated millions of instructions per
//!    second) on a representative load/store/ALU kernel, under the
//!    superblock engine, the current per-instruction engine, and the
//!    vendored **pre-change baseline** (the seed's engine, frozen in
//!    `bridge_bench::baseline`);
//! 2. **Figure 1 simulation wall-clock**: the exact variant kernels the
//!    Figure 1 experiment runs, replayed on the trace engine and on the
//!    baseline engine — the end-to-end speedup this PR's engine work buys.
//!    The harness asserts both engines report *identical cycle counts*, so
//!    the speedup is measured on provably equivalent accounting;
//! 3. **in-cache-code dispatch** monitor-exit reduction on call/ret-heavy
//!    kernels (inline IBTC + shadow return stack off vs on);
//! 4. **observability overhead**: the same kernels untraced, ring-traced,
//!    under the full pipeline (streaming JSONL sink + metrics registry),
//!    and span-recorded (cycle-attribution spans folded into flamegraph
//!    stacks every run). Cycle totals must be identical across all four
//!    (observability never charges simulated time) and every enabled mode
//!    must stay under 10% wall-clock — the layer's performance contract.
//!    The metrics registry the streamed runs feed is exported as a
//!    `bridge-metrics/1` document summary in the JSON. A separate watch
//!    leg runs the phase-change kernel bare vs with the continuous
//!    re-divergence watch attached, under the same cycle-equality and
//!    <10% wall-clock budget, and requires the watch to flag the
//!    phase-change site `Rediverged`;
//! 5. **multi-guest service throughput**: the standard mixed-strategy
//!    batch on the naive per-request path vs the execution service at 4
//!    shards. Results must be byte-identical and the service must clear
//!    `SERVE_SPEEDUP_FLOOR`: ≥2x amortization of each kernel's training
//!    profile;
//! 6. **shared translation cache**: a 4-guest fleet of identical vCPUs on
//!    a chain-heavy kernel, one cache per engine vs one shared cache. Asserts
//!    byte-identical reports, ≥50% fleet translation-work reduction, and
//!    that the chained next-TB hint resolves ≥50% of TB-lookup demand;
//!    the one-thread-per-vCPU vs single-threaded fleet speedup is
//!    recorded, not asserted;
//! 7. **AOT warm start**: the all-strategy batch against an empty
//!    artifact store (cold — translate and persist) and again on a fresh
//!    service over the populated store (warm — restore). Warm results
//!    must be byte-identical to cold and the warm first batch must
//!    translate ≥5x fewer blocks (in practice ≈0);
//! 8. **per-experiment wall-clock** for the full `repro_all` suite (one
//!    worker, superblock engine), so regressions in any one experiment are
//!    visible.
//!
//! Results go to stdout and to `BENCH_simulator.json` in the working
//! directory. Unlike the experiment tables, these numbers are machine- and
//! load-dependent — they are for tracking relative change, not for
//! byte-for-byte diffing.

use bridge_alpha::builder::CodeBuilder;
use bridge_alpha::insn::{BrOp, MemOp, OpFn};
use bridge_alpha::reg::Reg;
use bridge_alpha::PAL_HALT;
use bridge_bench::baseline;
use bridge_bench::experiments as exp;
use bridge_dbt::RunReport;
use bridge_sim::native::{NativeExit, NativeMachine};
use bridge_sim::{Exit, Machine};
use bridge_workloads::kernels::{self, Kernel};
use bridge_workloads::spec::selected_benchmarks;
use exp::fig1::Layout;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const BASE: u64 = 0x8000_0000;

/// Timed measurements repeat this many times and keep the fastest run —
/// the standard low-noise estimator on shared machines, where transient
/// load only ever makes a run *slower*.
const REPS: u32 = 7;

/// Builds the MIPS kernel: `iters` passes of a 16-instruction loop mixing
/// quadword/longword memory traffic with ALU work — roughly the mix
/// translated guest code generates.
fn mips_kernel(iters: u32) -> Vec<u32> {
    let mut b = CodeBuilder::new(BASE);
    b.load_imm32(Reg::R1, iters as i32);
    b.load_imm32(Reg::R2, 0x10_0000); // data pointer
    b.load_imm32(Reg::R3, 0);
    let top = b.new_label();
    b.bind(top);
    b.mem(MemOp::Stq, Reg::R3, 0, Reg::R2);
    b.mem(MemOp::Ldq, Reg::R4, 0, Reg::R2);
    b.mem(MemOp::Stl, Reg::R4, 8, Reg::R2);
    b.mem(MemOp::Ldl, Reg::R5, 8, Reg::R2);
    b.op(OpFn::Addq, Reg::R3, Reg::R4, Reg::R3);
    b.op(OpFn::Xor, Reg::R3, Reg::R5, Reg::R6);
    b.op_lit(OpFn::Addq, Reg::R2, 16, Reg::R2);
    b.op_lit(OpFn::And, Reg::R2, 0xFF, Reg::R7); // wrap detector (dummy)
    b.op(OpFn::Bis, Reg::R6, Reg::R7, Reg::R8);
    b.op_lit(OpFn::Srl, Reg::R8, 3, Reg::R9);
    b.op(OpFn::Subq, Reg::R9, Reg::R7, Reg::R10);
    b.op_lit(OpFn::Sll, Reg::R10, 1, Reg::R11);
    b.op(OpFn::Addq, Reg::R11, Reg::R3, Reg::R3);
    b.op_lit(OpFn::Subq, Reg::R1, 1, Reg::R1);
    b.br_label(BrOp::Bne, Reg::R1, top);
    b.call_pal(PAL_HALT);
    b.finish().expect("mips kernel builds")
}

/// Fastest of [`REPS`] timed runs of `f`, with the payload of the last run.
fn best_of<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut payload = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let t = f();
        best = best.min(start.elapsed());
        payload = Some(t);
    }
    (best, payload.expect("REPS >= 1"))
}

/// Interleaved best-of-[`REPS`] for an A/B comparison: each rep times `a`
/// then `b`, so transient machine load degrades both sides of the ratio
/// rather than whichever happened to run during the spike. Returns
/// `((best_a, payload_a), (best_b, payload_b))`.
fn best_of_pair<T, U>(
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> ((Duration, T), (Duration, U)) {
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    let mut pay_a = None;
    let mut pay_b = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let t = a();
        best_a = best_a.min(start.elapsed());
        pay_a = Some(t);
        let start = Instant::now();
        let u = b();
        best_b = best_b.min(start.elapsed());
        pay_b = Some(u);
    }
    (
        (best_a, pay_a.expect("REPS >= 1")),
        (best_b, pay_b.expect("REPS >= 1")),
    )
}

/// Runs the kernel once on a full ES40-modelled machine; returns
/// (insns, cycles).
fn mips_once(superblocks: bool, words: &[u32]) -> (u64, u64) {
    let mut m = Machine::new();
    m.set_superblocks(superblocks);
    m.write_code(BASE, words);
    m.set_pc(BASE);
    let exit = m.run(u64::MAX);
    assert_eq!(exit, Exit::Halted, "mips kernel halts");
    (m.stats().insns, m.stats().cycles)
}

/// Same kernel, one run on the vendored pre-change engine.
fn mips_once_baseline(words: &[u32]) -> (u64, u64) {
    let mut m = baseline::Machine::new();
    m.write_code(BASE, words);
    m.set_pc(BASE);
    let exit = m.run(u64::MAX);
    assert_eq!(exit, Exit::Halted, "mips kernel halts on baseline");
    (m.stats().insns, m.stats().cycles)
}

/// Instructions-per-microsecond → MIPS.
fn mips(insns: u64, took: Duration) -> f64 {
    insns as f64 / took.as_secs_f64() / 1e6
}

/// All variant kernels the Figure 1 experiment executes at `scale`.
fn fig1_images(scale: bridge_workloads::spec::Scale) -> Vec<Vec<u8>> {
    let passes = exp::fig1::passes_for(scale);
    let mut images = Vec::new();
    for bench in selected_benchmarks() {
        for layout in [Layout::Default, Layout::Pathscale, Layout::Icc] {
            images.push(exp::fig1::variant_image(bench, layout, passes));
        }
    }
    images
}

/// Replays every Figure 1 kernel once on the current native machine (trace
/// engine); returns the total cycle count.
fn fig1_once_current(images: &[Vec<u8>]) -> u64 {
    let mut cycles = 0;
    for image in images {
        let mut m = NativeMachine::new(exp::fig1::ENTRY);
        m.mem_mut().write_bytes(u64::from(exp::fig1::ENTRY), image);
        let exit = m.run(exp::fig1::VARIANT_FUEL);
        assert_eq!(exit, NativeExit::Halted, "fig1 kernel halts");
        cycles += m.stats().cycles;
    }
    cycles
}

/// Replays every Figure 1 kernel once on the vendored pre-change engine;
/// returns the total cycle count.
fn fig1_once_baseline(images: &[Vec<u8>]) -> u64 {
    let mut cycles = 0;
    for image in images {
        let mut m = baseline::NativeMachine::new(exp::fig1::ENTRY);
        m.mem_mut().write_bytes(u64::from(exp::fig1::ENTRY), image);
        let exit = m.run(exp::fig1::VARIANT_FUEL);
        assert_eq!(exit, NativeExit::Halted, "fig1 kernel halts on baseline");
        cycles += m.stats().cycles;
    }
    cycles
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One kernel's numbers for the in-cache-dispatch section: dispatch off,
/// IBTC probe only, and IBTC + shadow return stack.
struct DispatchRow {
    name: &'static str,
    off: RunReport,
    ibtc: RunReport,
    on: RunReport,
    secs_off: f64,
    secs_on: f64,
}

/// The call/ret- and loop-heavy in-tree kernels the dispatch benchmark
/// replays (the same micro-patterns the Figure 1 kernels are built from).
fn dispatch_kernels(iters: u32) -> Vec<(&'static str, Kernel)> {
    vec![
        ("misaligned_stack", kernels::misaligned_stack(iters)),
        (
            "packed_struct_sum",
            kernels::packed_struct_sum(0x10_0002, 16, 6, iters),
        ),
        (
            "linked_list_chase",
            kernels::linked_list_chase(0x20_0000, iters),
        ),
        (
            "memcpy_unaligned",
            kernels::memcpy_unaligned(0x30_0001, 0x38_0000, iters * 4),
        ),
    ]
}

/// Replays each kernel with in-cache-code dispatch off and on (DPEH,
/// paper-default thresholds) and collects the monitor-exit reduction the
/// inline IBTC + shadow return stack buy.
fn measure_dispatch(iters: u32) -> Vec<DispatchRow> {
    let mut rows = Vec::new();
    for (name, kernel) in dispatch_kernels(iters) {
        let cfg_off = bridge_bench::dpeh_config();
        let cfg_ibtc = bridge_bench::dpeh_config()
            .with_in_cache_dispatch(true)
            .with_shadow_ras(false);
        let cfg_on = bridge_bench::dpeh_config().with_in_cache_dispatch(true);
        let ((took_off, off), (took_on, on)) = best_of_pair(
            || bridge_bench::run_kernel(&kernel, cfg_off.clone()),
            || bridge_bench::run_kernel(&kernel, cfg_on.clone()),
        );
        let ibtc = bridge_bench::run_kernel(&kernel, cfg_ibtc);
        assert_eq!(
            off.final_state.regs, on.final_state.regs,
            "{name}: dispatch changed guest results"
        );
        assert_eq!(
            off.final_state.regs, ibtc.final_state.regs,
            "{name}: ibtc-only dispatch changed guest results"
        );
        rows.push(DispatchRow {
            name,
            off,
            ibtc,
            on,
            secs_off: took_off.as_secs_f64(),
            secs_on: took_on.as_secs_f64(),
        });
    }
    rows
}

/// Traced-vs-untraced wall-clock and accounting on the dispatch kernels:
/// the overhead guard for the observability layer. Four interleaved
/// legs: untraced, ring-traced, the full pipeline (streaming JSONL
/// sink + metrics registry attached), and span-recorded (the
/// request-tracing layer's cycle-attribution spans). Asserts that no
/// observer ever changes simulated cycles, and that every enabled mode
/// stays under the 10% wall-clock budget.
struct TraceOverhead {
    secs_off: f64,
    secs_on: f64,
    overhead_pct: f64,
    events: usize,
    sites: usize,
    dropped: u64,
    secs_stream: f64,
    stream_overhead_pct: f64,
    streamed_events: u64,
    secs_spans: f64,
    span_overhead_pct: f64,
    span_count: usize,
    span_dropped: u64,
    folded_frames: usize,
}

fn measure_trace_overhead(
    iters: u32,
    registry: &std::sync::Arc<bridge_metrics::Registry>,
) -> TraceOverhead {
    use bridge_trace::{StreamingJsonl, TraceConfig};
    let kernels = dispatch_kernels(iters);
    // Amortize per-run timing noise over several whole-suite passes:
    // the overhead budgets below are single-digit percentages, so each
    // timed leg has to be long enough that a scheduler blip is small
    // relative to it.
    const INNER: usize = 10;
    let run_plain = || {
        let mut cycles = 0u64;
        for _ in 0..INNER {
            for (_, k) in &kernels {
                cycles += bridge_bench::run_kernel(k, bridge_bench::dpeh_config()).cycles();
            }
        }
        cycles
    };
    let run_traced = || {
        let (mut cycles, mut events, mut sites, mut dropped) = (0u64, 0usize, 0usize, 0u64);
        for _ in 0..INNER {
            for (_, k) in &kernels {
                let (r, t) = bridge_bench::run_kernel_traced(
                    k,
                    bridge_bench::dpeh_config(),
                    TraceConfig::default(),
                );
                cycles += r.cycles();
                events += t.event_count();
                sites += t.sites().count();
                dropped += t.dropped();
            }
        }
        (cycles, events, sites, dropped)
    };
    // The full observability pipeline: every record streamed to a sink
    // (io::sink() — measures serialization, not disk) with the engine's
    // metric counters attached.
    let run_streamed = || {
        let (mut cycles, mut streamed) = (0u64, 0u64);
        for _ in 0..INNER {
            for (_, k) in &kernels {
                let cfg = bridge_bench::dpeh_config().with_metrics(std::sync::Arc::clone(registry));
                let run = bridge_bench::run_kernel_streamed(
                    k,
                    cfg,
                    TraceConfig::default(),
                    Box::new(StreamingJsonl::new(std::io::sink())),
                );
                cycles += run.report.cycles();
                streamed += run.summary.expect("io::sink never fails").events;
            }
        }
        (cycles, streamed)
    };

    // The span-recording leg: the cycle-attribution span layer attached
    // (translate/execute/trap-fixup trees per run), no tracing.
    let run_spanned = || {
        let (mut cycles, mut spans, mut dropped, mut folded) = (0u64, 0usize, 0u64, 0usize);
        for _ in 0..INNER {
            for (_, k) in &kernels {
                let (r, rec) = bridge_bench::run_kernel_spanned(
                    k,
                    bridge_bench::dpeh_config(),
                    bridge_trace::SpanConfig::default(),
                );
                cycles += r.cycles();
                spans += rec.len();
                dropped += rec.dropped();
                folded += rec.folded().lines().count();
            }
        }
        (cycles, spans, dropped, folded)
    };

    // Interleave all four legs each rep so transient load degrades every
    // side of the ratios, then keep the fastest of each. One untimed
    // warmup pass first settles CPU frequency and page-cache state so
    // the first timed rep is not systematically the slowest.
    run_plain();
    run_spanned();
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut best_stream = Duration::MAX;
    let mut best_spans = Duration::MAX;
    let mut cyc_off = 0u64;
    let mut traced = (0u64, 0usize, 0usize, 0u64);
    let mut streamed = (0u64, 0u64);
    let mut spanned = (0u64, 0usize, 0u64, 0usize);
    for _ in 0..REPS {
        let start = Instant::now();
        cyc_off = run_plain();
        best_off = best_off.min(start.elapsed());
        let start = Instant::now();
        traced = run_traced();
        best_on = best_on.min(start.elapsed());
        let start = Instant::now();
        streamed = run_streamed();
        best_stream = best_stream.min(start.elapsed());
        let start = Instant::now();
        spanned = run_spanned();
        best_spans = best_spans.min(start.elapsed());
    }
    let (cyc_on, events, sites, dropped) = traced;
    let (cyc_stream, streamed_events) = streamed;
    let (cyc_spans, span_count, span_dropped, folded_frames) = spanned;
    assert_eq!(
        cyc_off, cyc_on,
        "tracing changed simulated cycle accounting"
    );
    assert_eq!(
        cyc_off, cyc_stream,
        "streaming sink + metrics changed simulated cycle accounting"
    );
    assert_eq!(
        cyc_off, cyc_spans,
        "span recording changed simulated cycle accounting"
    );
    let overhead_pct = (best_on.as_secs_f64() / best_off.as_secs_f64() - 1.0) * 100.0;
    assert!(
        overhead_pct < 10.0,
        "enabled tracing costs {overhead_pct:.1}% wall-clock (budget: 10%)"
    );
    let stream_overhead_pct = (best_stream.as_secs_f64() / best_off.as_secs_f64() - 1.0) * 100.0;
    assert!(
        stream_overhead_pct < 10.0,
        "streaming + metrics cost {stream_overhead_pct:.1}% wall-clock (budget: 10%)"
    );
    // The span leg folds its stacks every run (the profiler's full cost),
    // so the budget covers capture *and* attribution.
    let span_overhead_pct = (best_spans.as_secs_f64() / best_off.as_secs_f64() - 1.0) * 100.0;
    assert!(
        span_overhead_pct < 10.0,
        "span recording costs {span_overhead_pct:.1}% wall-clock (budget: 10%)"
    );
    assert!(span_count > 0, "the span leg must record spans");
    TraceOverhead {
        secs_off: best_off.as_secs_f64(),
        secs_on: best_on.as_secs_f64(),
        overhead_pct,
        events,
        sites,
        dropped,
        secs_stream: best_stream.as_secs_f64(),
        stream_overhead_pct,
        streamed_events,
        secs_spans: best_spans.as_secs_f64(),
        span_overhead_pct,
        span_count,
        span_dropped,
        folded_frames,
    }
}

/// Watched-vs-bare wall-clock and accounting on the phase-change kernel:
/// the continuous re-divergence watch's overhead guard.
struct WatchOverhead {
    kernel_iters: u32,
    secs_off: f64,
    secs_watched: f64,
    overhead_pct: f64,
    sites: usize,
    rediverged: usize,
    converged: usize,
    transitions: usize,
    windows_closed: u64,
}

/// Interleaved bare-vs-watched legs on `phase_change_sum` under dynamic
/// profiling — the strategy whose steady-state trap storm keeps the
/// watch busiest (one `observe` per trap and fixup). Asserts identical
/// simulated cycles (the watch is a pure observer), the <10% wall-clock
/// budget, and that the watch actually classifies: the phase-change site
/// must come back `Rediverged`.
fn measure_watch_overhead(iters: u32) -> WatchOverhead {
    use bridge_dbt::{DbtConfig, MdaStrategy};
    use bridge_trace::WatchConfig;
    let kernel = kernels::phase_change_sum(iters / 2, iters - iters / 2);
    let watch_cfg = WatchConfig::default()
        .with_window_cycles(20_000)
        .with_rediverge_traps(4)
        .with_quiet_windows(2);
    const INNER: usize = 20;
    let run_plain_once = || {
        bridge_bench::run_kernel(&kernel, DbtConfig::new(MdaStrategy::DynamicProfiling)).cycles()
    };
    let run_watched_once = || {
        let (r, w) = bridge_bench::run_kernel_watched(
            &kernel,
            DbtConfig::new(MdaStrategy::DynamicProfiling),
            watch_cfg,
        );
        (r.cycles(), w)
    };
    run_plain_once();
    run_watched_once();
    // Alternate single runs *within* each rep and keep the cleanest
    // rep's ratio: this host time-slices hard enough that two coarse
    // blocks per rep can land one side squarely in a throttle window,
    // reporting scheduler noise as overhead. Fine interleaving spreads
    // any burst across both sides of the ratio.
    let mut best_off = Duration::MAX;
    let mut best_watched = Duration::MAX;
    let mut best_ratio = f64::MAX;
    let mut watched = None;
    for _ in 0..REPS {
        let mut rep_off = Duration::ZERO;
        let mut rep_on = Duration::ZERO;
        let (mut cyc_off, mut cyc_on) = (0u64, 0u64);
        for _ in 0..INNER {
            let start = Instant::now();
            cyc_off += run_plain_once();
            rep_off += start.elapsed();
            let start = Instant::now();
            let (c, w) = run_watched_once();
            rep_on += start.elapsed();
            cyc_on += c;
            watched = Some(w);
        }
        assert_eq!(
            cyc_off, cyc_on,
            "watching changed simulated cycle accounting"
        );
        best_off = best_off.min(rep_off);
        best_watched = best_watched.min(rep_on);
        best_ratio = best_ratio.min(rep_on.as_secs_f64() / rep_off.as_secs_f64());
    }
    let w = watched.expect("REPS * INNER >= 1");
    assert!(
        w.rediverged_sites() >= 1,
        "the watch must flag the phase-change site Rediverged"
    );
    let overhead_pct = (best_ratio - 1.0) * 100.0;
    assert!(
        overhead_pct < 10.0,
        "re-divergence watch costs {overhead_pct:.1}% wall-clock (budget: 10%)"
    );
    WatchOverhead {
        kernel_iters: iters,
        secs_off: best_off.as_secs_f64(),
        secs_watched: best_watched.as_secs_f64(),
        overhead_pct,
        sites: w.site_count(),
        rediverged: w.rediverged_sites(),
        converged: w.converged_sites(),
        transitions: w.transitions().len(),
        windows_closed: w.windows_closed(),
    }
}

/// Shared-translation-cache numbers: next-TB hint effectiveness, fleet
/// translation-work reduction, and single- vs multi-thread wall-clock.
struct SharedCacheNumbers {
    vcpus: usize,
    hint_hits: u64,
    hint_misses: u64,
    hint_hit_rate: f64,
    translated_private: u64,
    translated_shared: u64,
    translation_reduction: f64,
    secs_single: f64,
    secs_multi: f64,
    mt_speedup: f64,
    parallelism: usize,
}

/// A fleet of identical vCPUs on the chain-heavy `misaligned_stack`
/// kernel (DPEH defaults): one cache per engine vs one shared cache, with the
/// registry's `dbt.blocks_translated` counting actual translator work on
/// each side. Asserts byte-identical per-guest reports and the ≥50% hint
/// and translation-reduction floors; the multi-thread speedup is
/// recorded only.
fn measure_shared_cache(iters: u32) -> SharedCacheNumbers {
    use bridge_dbt::SharedCodeCache;
    use std::sync::Arc;
    const VCPUS: usize = 4;
    let kernel = kernels::misaligned_stack(iters);
    let code_bytes = bridge_bench::dpeh_config().code_bytes;

    // Hint effectiveness on one guest: every call/ret monitor round-trip
    // is a TB-lookup the direct-mapped hint can memoize away.
    let solo = bridge_bench::run_kernel(&kernel, bridge_bench::dpeh_config());
    let demand = solo.hint_hits + solo.hint_misses;
    assert!(demand > 0, "the chain-heavy kernel must exercise dispatch");
    let hint_hit_rate = solo.hint_hits as f64 / demand as f64;
    assert!(
        hint_hit_rate >= 0.5,
        "the next-TB hint must eliminate >= 50% of TB lookups (got {:.1}% of {demand})",
        hint_hit_rate * 100.0
    );

    // Fleet translation work, private vs shared, same guests either way.
    let reg_private = Arc::new(bridge_metrics::Registry::new());
    let private: Vec<RunReport> = (0..VCPUS)
        .map(|_| {
            let cfg = bridge_bench::dpeh_config().with_metrics(Arc::clone(&reg_private));
            bridge_bench::run_kernel(&kernel, cfg)
        })
        .collect();
    let reg_shared = Arc::new(bridge_metrics::Registry::new());
    let cache = SharedCodeCache::new(code_bytes);
    let shared: Vec<RunReport> = (0..VCPUS)
        .map(|_| {
            let cfg = bridge_bench::dpeh_config()
                .with_metrics(Arc::clone(&reg_shared))
                .with_shared_cache(Arc::clone(&cache));
            bridge_bench::run_kernel(&kernel, cfg)
        })
        .collect();
    for (i, (p, s)) in private.iter().zip(&shared).enumerate() {
        assert_eq!(
            p.to_string(),
            s.to_string(),
            "vCPU {i}: shared cache changed the report"
        );
    }
    let translated_private = reg_private.counter("dbt.blocks_translated").get();
    let translated_shared = reg_shared.counter("dbt.blocks_translated").get();
    let translation_reduction = 1.0 - translated_shared as f64 / translated_private.max(1) as f64;
    assert!(
        translation_reduction >= 0.5,
        "sharing must eliminate >= 50% of fleet translation work \
         ({translated_shared} shared vs {translated_private} private)"
    );

    // Wall-clock: the same fleet single-threaded vs one thread per vCPU,
    // each leg over its own fresh shared cache, interleaved best-of.
    let single_fleet = || {
        let cache = SharedCodeCache::new(code_bytes);
        for _ in 0..VCPUS {
            let cfg = bridge_bench::dpeh_config().with_shared_cache(Arc::clone(&cache));
            bridge_bench::run_kernel(&kernel, cfg);
        }
    };
    let multi_fleet = || {
        let cache = SharedCodeCache::new(code_bytes);
        std::thread::scope(|s| {
            for _ in 0..VCPUS {
                let cache = Arc::clone(&cache);
                let kernel = &kernel;
                s.spawn(move || {
                    let cfg = bridge_bench::dpeh_config().with_shared_cache(cache);
                    bridge_bench::run_kernel(kernel, cfg);
                });
            }
        });
    };
    let ((took_single, ()), (took_multi, ())) = best_of_pair(single_fleet, multi_fleet);
    let mt_speedup = took_single.as_secs_f64() / took_multi.as_secs_f64();
    let parallelism = bridge_bench::serve::available_parallelism();

    SharedCacheNumbers {
        vcpus: VCPUS,
        hint_hits: solo.hint_hits,
        hint_misses: solo.hint_misses,
        hint_hit_rate,
        translated_private,
        translated_shared,
        translation_reduction,
        secs_single: took_single.as_secs_f64(),
        secs_multi: took_multi.as_secs_f64(),
        mt_speedup,
        parallelism,
    }
}

fn main() {
    let scale = bridge_bench::scale_from_args();
    println!(
        "DigitalBridge-RS simulator performance (scale: {} outer iterations)\n",
        scale.outer_iters
    );

    // 1. Raw Alpha-simulator throughput: superblock engine vs the current
    //    per-instruction engine vs the frozen pre-change baseline. The
    //    superblock/baseline pair — the headline ratio — is interleaved.
    let iters = 1_250_000; // 16 insns/pass + prologue → ~20M instructions
    let words = mips_kernel(iters);
    let ((took_sb, (insns, cycles_sb)), (took_base, (_, cycles_base))) =
        best_of_pair(|| mips_once(true, &words), || mips_once_baseline(&words));
    let (took_stepper, (_, cycles_stepper)) = best_of(|| mips_once(false, &words));
    assert_eq!(cycles_sb, cycles_stepper, "engines disagree on cycles");
    assert_eq!(cycles_sb, cycles_base, "baseline disagrees on cycles");
    let (mips_sb, mips_stepper, mips_base) = (
        mips(insns, took_sb),
        mips(insns, took_stepper),
        mips(insns, took_base),
    );
    let mips_speedup = mips_sb / mips_base;
    println!("Alpha machine, {insns} instructions (ES40 cache + cost model):");
    println!("  superblock engine:        {mips_sb:8.1} MIPS");
    println!("  per-instruction engine:   {mips_stepper:8.1} MIPS");
    println!("  pre-change baseline:      {mips_base:8.1} MIPS");
    println!("  speedup vs baseline:      {mips_speedup:8.2}x\n");

    // 2. Figure 1 simulation end-to-end: the experiment's exact variant
    //    kernels on the trace engine vs the pre-change baseline. Identical
    //    cycle totals are asserted, so this compares equivalent work.
    let images = fig1_images(scale);
    let ((fig1_cur, cyc_cur), (fig1_base, cyc_base)) = best_of_pair(
        || fig1_once_current(&images),
        || fig1_once_baseline(&images),
    );
    assert_eq!(cyc_cur, cyc_base, "fig1 engines disagree on cycles");
    let fig1_speedup = fig1_base.as_secs_f64() / fig1_cur.as_secs_f64();
    println!(
        "Figure 1 simulation wall-clock ({} kernels, identical cycle totals):",
        images.len()
    );
    println!("  trace engine:             {fig1_cur:8.2?}");
    println!("  pre-change baseline:      {fig1_base:8.2?}");
    println!("  speedup vs baseline:      {fig1_speedup:8.2}x\n");

    // 3. In-cache-code dispatch: monitor-exit counts with the inline IBTC
    //    + shadow return stack off vs on, per call/ret-heavy kernel.
    let dispatch_iters = (scale.outer_iters as u32).clamp(200, 5_000);
    let dispatch_rows = measure_dispatch(dispatch_iters);
    let exits_off: u64 = dispatch_rows.iter().map(|r| r.off.monitor_exits).sum();
    let exits_on: u64 = dispatch_rows.iter().map(|r| r.on.monitor_exits).sum();
    let exit_reduction = exits_off as f64 / exits_on.max(1) as f64;
    println!("In-cache-code dispatch ({dispatch_iters} kernel iterations, DPEH):");
    println!(
        "  {:<20} {:>10} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "kernel", "exits off", "ibtc", "ibtc+ras", "cyc ibtc", "cyc +ras", "ibtc hits", "ras hits"
    );
    for r in &dispatch_rows {
        let cyc_ibtc = r.off.cycles() as f64 / r.ibtc.cycles() as f64;
        let cyc_on = r.off.cycles() as f64 / r.on.cycles() as f64;
        println!(
            "  {:<20} {:>10} {:>9} {:>9} {:>8.2}x {:>8.2}x {:>10} {:>10}",
            r.name,
            r.off.monitor_exits,
            r.ibtc.monitor_exits,
            r.on.monitor_exits,
            cyc_ibtc,
            cyc_on,
            r.on.ibtc_hits,
            r.on.ras_hits,
        );
    }
    println!("  monitor-exit reduction:   {exit_reduction:8.2}x");
    assert!(
        exit_reduction >= 2.0,
        "in-cache dispatch must at least halve monitor exits (got {exit_reduction:.2}x)"
    );
    println!();

    // 4. Observability overhead: untraced vs ring-traced vs the full
    //    streaming + metrics pipeline. Identical cycle totals and the
    //    <10% wall-clock budget are asserted for both enabled modes. The
    //    iteration count is floored so per-run fixed costs (engine setup,
    //    sink finish) can't dominate the ratio at tiny scales — the
    //    budget is a steady-state contract.
    let trace_iters = dispatch_iters.max(2_000);
    let registry = std::sync::Arc::new(bridge_metrics::Registry::new());
    let trace_oh = measure_trace_overhead(trace_iters, &registry);
    println!("Observability ({trace_iters} kernel iterations, DPEH):");
    println!(
        "  untraced:                 {:8.2?}",
        Duration::from_secs_f64(trace_oh.secs_off)
    );
    println!(
        "  traced:                   {:8.2?}",
        Duration::from_secs_f64(trace_oh.secs_on)
    );
    println!(
        "  streamed + metered:       {:8.2?}",
        Duration::from_secs_f64(trace_oh.secs_stream)
    );
    println!(
        "  span-recorded:            {:8.2?}",
        Duration::from_secs_f64(trace_oh.secs_spans)
    );
    println!("  traced overhead:          {:8.2}%", trace_oh.overhead_pct);
    println!(
        "  streamed overhead:        {:8.2}%",
        trace_oh.stream_overhead_pct
    );
    println!(
        "  span overhead:            {:8.2}%",
        trace_oh.span_overhead_pct
    );
    println!(
        "  events {} / sites {} / dropped {} / streamed {} (cycles identical)",
        trace_oh.events, trace_oh.sites, trace_oh.dropped, trace_oh.streamed_events
    );
    println!(
        "  spans {} / folded frames {} / span dropped {}",
        trace_oh.span_count, trace_oh.folded_frames, trace_oh.span_dropped
    );
    // The registry the streamed leg fed: well-formedness is part of the
    // contract — a `bridge-metrics/1` JSON document and a Prometheus-style
    // exposition with the engine counters present and consistent.
    let metrics_doc = registry.to_json();
    let metrics_prom = registry.to_prometheus();
    assert!(
        metrics_doc.starts_with("{\"schema\":\"bridge-metrics/1\""),
        "metrics document must carry the bridge-metrics/1 schema"
    );
    assert!(
        metrics_prom.contains("# TYPE dbt_traps counter"),
        "exposition must carry the engine trap counter"
    );
    // Note: dbt.traps can legitimately be zero here — DPEH's profiling
    // component handles these kernels' sites at translation time. The
    // translation counter is the one every run must bump.
    let dbt_traps = registry.counter("dbt.traps").get();
    let dbt_blocks = registry.counter("dbt.blocks_translated").get();
    assert!(dbt_blocks > 0, "the DBT must translate blocks");
    println!(
        "  metrics: {} instruments / dbt.traps {} / dbt.blocks_translated {}\n",
        registry.len(),
        dbt_traps,
        dbt_blocks
    );

    // 4b. Continuous re-divergence watch: bare vs watched on the
    //     phase-change kernel under dynamic profiling. Cycle-equal and
    //     <10% wall are asserted inside measure_watch_overhead.
    // Floored like trace_iters: short legs make the <10% budget
    // noise-flaky on a loaded host.
    let watch_iters = dispatch_iters.max(2_000);
    let watch_oh = measure_watch_overhead(watch_iters);
    println!("Re-divergence watch (phase_change x {watch_iters}, dynamic profiling):");
    println!(
        "  bare:                     {:8.2?}",
        Duration::from_secs_f64(watch_oh.secs_off)
    );
    println!(
        "  watched:                  {:8.2?}",
        Duration::from_secs_f64(watch_oh.secs_watched)
    );
    println!("  watch overhead:           {:8.2}%", watch_oh.overhead_pct);
    println!(
        "  sites {} / rediverged {} / converged {} / transitions {} / windows {} \
         (cycles identical)\n",
        watch_oh.sites,
        watch_oh.rediverged,
        watch_oh.converged,
        watch_oh.transitions,
        watch_oh.windows_closed
    );

    // 5. Multi-guest service throughput: naive per-request sequential vs
    //    the sharded service on the standard batch. Byte-identical results
    //    are asserted inside measure_serve; the amortization floor here.
    let serve_batch = bridge_bench::serve::throughput_batch(scale);
    let serve = bridge_bench::serve::measure_serve(4, &serve_batch, REPS);
    let serve_floor = bridge_bench::serve::SERVE_SPEEDUP_FLOOR;
    println!(
        "Multi-guest service ({} requests, {} specs, 4 shards):",
        serve.requests, serve.specs
    );
    println!(
        "  sequential:               {:8.2?}",
        Duration::from_secs_f64(serve.secs_sequential)
    );
    println!(
        "  service:                  {:8.2?}",
        Duration::from_secs_f64(serve.secs_service)
    );
    println!("  speedup:                  {:8.2}x", serve.speedup);
    println!(
        "  merged: {} cycles, {} traps (identical on both paths)",
        serve.merged_cycles, serve.merged_traps
    );
    println!(
        "  host parallelism: {} (floor {serve_floor:.2}x)\n",
        serve.parallelism
    );
    assert!(
        serve.speedup >= serve_floor,
        "service must be >= {serve_floor:.2}x over sequential at 4 shards (got {:.2}x)",
        serve.speedup
    );

    // 6. Shared translation cache: the tentpole's fleet contract.
    let shared = measure_shared_cache(dispatch_iters);
    println!(
        "Shared translation cache ({} vCPUs, misaligned_stack x {dispatch_iters}, DPEH):",
        shared.vcpus
    );
    println!(
        "  hint hit rate:            {:8.1}%  ({} hits / {} misses)",
        shared.hint_hit_rate * 100.0,
        shared.hint_hits,
        shared.hint_misses
    );
    println!(
        "  fleet translations:       {:>8} private -> {} shared ({:.0}% less work)",
        shared.translated_private,
        shared.translated_shared,
        shared.translation_reduction * 100.0
    );
    println!(
        "  single-thread fleet:      {:8.2?}",
        Duration::from_secs_f64(shared.secs_single)
    );
    println!(
        "  one thread per vCPU:      {:8.2?}",
        Duration::from_secs_f64(shared.secs_multi)
    );
    println!(
        "  mt speedup:               {:8.2}x ({}-way host)\n",
        shared.mt_speedup, shared.parallelism
    );

    // 7. AOT warm start: cold-vs-warm over a temporary artifact store.
    //    Byte identity of the warm results is asserted inside
    //    measure_warm_start; the ≥5x translation-reduction floor here.
    let warm_dir = std::env::temp_dir().join(format!("perf-images-{}", std::process::id()));
    let warm_batch = bridge_bench::serve::warm_start_batch(scale);
    let warm = bridge_bench::serve::measure_warm_start(&warm_dir, &warm_batch);
    println!(
        "AOT warm start ({} requests, {} strategies):",
        warm.requests, warm.strategies
    );
    println!(
        "  first-batch translations: {:>8} cold -> {} warm ({:.1}x reduction)",
        warm.cold_blocks_translated, warm.warm_blocks_translated, warm.translation_reduction
    );
    println!(
        "  images:                   {:>8} saved / {} restored / {} blocks preloaded",
        warm.images_saved, warm.images_loaded, warm.blocks_preloaded
    );
    println!(
        "  warm preloaded requests:  {:>8} ({} image-served installs)\n",
        warm.image_hits, warm.image_block_hits
    );
    assert!(
        warm.translation_reduction >= 5.0,
        "warm start must cut first-batch translations >= 5x (got {:.1}x)",
        warm.translation_reduction
    );

    // 8. Per-experiment wall-clock, superblock engine, one worker.
    let results = bridge_bench::run_experiments_parallel(scale, 1);
    println!("Per-experiment wall-clock (1 worker):");
    for (name, _, took) in &results {
        println!("  {name:<45} {took:8.2?}");
    }
    let total: Duration = results.iter().map(|(_, _, d)| *d).sum();
    println!("  {:<45} {total:8.2?}", "TOTAL");

    // Emit BENCH_simulator.json (hand-rolled: no serde in-tree).
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"schema\": \"digitalbridge-sim-perf/11\",");
    let _ = writeln!(j, "  \"scale_outer_iters\": {},", scale.outer_iters);
    let _ = writeln!(j, "  \"mips\": {{");
    let _ = writeln!(j, "    \"kernel_insns\": {insns},");
    let _ = writeln!(j, "    \"superblock\": {mips_sb:.2},");
    let _ = writeln!(j, "    \"per_insn\": {mips_stepper:.2},");
    let _ = writeln!(j, "    \"baseline\": {mips_base:.2},");
    let _ = writeln!(j, "    \"speedup\": {mips_speedup:.3}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"fig1\": {{");
    let _ = writeln!(j, "    \"trace_secs\": {:.4},", fig1_cur.as_secs_f64());
    let _ = writeln!(j, "    \"baseline_secs\": {:.4},", fig1_base.as_secs_f64());
    let _ = writeln!(j, "    \"speedup\": {fig1_speedup:.3}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"dispatch\": {{");
    let _ = writeln!(j, "    \"strategy\": \"DPEH\",");
    let _ = writeln!(j, "    \"kernel_iters\": {dispatch_iters},");
    let _ = writeln!(j, "    \"monitor_exits_off\": {exits_off},");
    let _ = writeln!(j, "    \"monitor_exits_on\": {exits_on},");
    let _ = writeln!(j, "    \"monitor_exit_reduction\": {exit_reduction:.3},");
    let _ = writeln!(j, "    \"kernels\": [");
    for (i, r) in dispatch_rows.iter().enumerate() {
        let comma = if i + 1 < dispatch_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "      {{\"name\": \"{}\", \"monitor_exits_off\": {}, \"monitor_exits_ibtc\": {}, \
             \"monitor_exits_on\": {}, \
             \"ibtc_hits\": {}, \"ras_hits\": {}, \"chains\": {}, \
             \"cycles_off\": {}, \"cycles_ibtc\": {}, \"cycles_on\": {}, \
             \"secs_off\": {:.4}, \"secs_on\": {:.4}}}{comma}",
            json_escape(r.name),
            r.off.monitor_exits,
            r.ibtc.monitor_exits,
            r.on.monitor_exits,
            r.on.ibtc_hits,
            r.on.ras_hits,
            r.on.chains,
            r.off.cycles(),
            r.ibtc.cycles(),
            r.on.cycles(),
            r.secs_off,
            r.secs_on
        );
    }
    let _ = writeln!(j, "    ]");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"trace\": {{");
    let _ = writeln!(j, "    \"kernel_iters\": {trace_iters},");
    let _ = writeln!(j, "    \"secs_off\": {:.4},", trace_oh.secs_off);
    let _ = writeln!(j, "    \"secs_on\": {:.4},", trace_oh.secs_on);
    let _ = writeln!(
        j,
        "    \"enabled_overhead_pct\": {:.3},",
        trace_oh.overhead_pct
    );
    let _ = writeln!(j, "    \"cycles_equal\": true,");
    let _ = writeln!(j, "    \"events\": {},", trace_oh.events);
    let _ = writeln!(j, "    \"sites\": {},", trace_oh.sites);
    let _ = writeln!(j, "    \"dropped\": {},", trace_oh.dropped);
    let _ = writeln!(j, "    \"secs_stream\": {:.4},", trace_oh.secs_stream);
    let _ = writeln!(
        j,
        "    \"stream_overhead_pct\": {:.3},",
        trace_oh.stream_overhead_pct
    );
    let _ = writeln!(j, "    \"stream_cycles_equal\": true,");
    let _ = writeln!(j, "    \"streamed_events\": {}", trace_oh.streamed_events);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"spans\": {{");
    let _ = writeln!(j, "    \"kernel_iters\": {trace_iters},");
    let _ = writeln!(j, "    \"secs_off\": {:.4},", trace_oh.secs_off);
    let _ = writeln!(j, "    \"secs_spans\": {:.4},", trace_oh.secs_spans);
    let _ = writeln!(
        j,
        "    \"span_overhead_pct\": {:.3},",
        trace_oh.span_overhead_pct
    );
    let _ = writeln!(j, "    \"cycles_equal\": true,");
    let _ = writeln!(j, "    \"span_count\": {},", trace_oh.span_count);
    let _ = writeln!(j, "    \"folded_frames\": {},", trace_oh.folded_frames);
    let _ = writeln!(j, "    \"dropped\": {}", trace_oh.span_dropped);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"watch\": {{");
    let _ = writeln!(j, "    \"kernel_iters\": {},", watch_oh.kernel_iters);
    let _ = writeln!(j, "    \"secs_off\": {:.4},", watch_oh.secs_off);
    let _ = writeln!(j, "    \"secs_watched\": {:.4},", watch_oh.secs_watched);
    let _ = writeln!(
        j,
        "    \"watch_overhead_pct\": {:.3},",
        watch_oh.overhead_pct
    );
    let _ = writeln!(j, "    \"cycles_equal\": true,");
    let _ = writeln!(j, "    \"sites\": {},", watch_oh.sites);
    let _ = writeln!(j, "    \"rediverged\": {},", watch_oh.rediverged);
    let _ = writeln!(j, "    \"converged\": {},", watch_oh.converged);
    let _ = writeln!(j, "    \"transitions\": {},", watch_oh.transitions);
    let _ = writeln!(j, "    \"windows_closed\": {}", watch_oh.windows_closed);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"metrics\": {{");
    let _ = writeln!(j, "    \"document_schema\": \"bridge-metrics/1\",");
    let _ = writeln!(j, "    \"well_formed\": true,");
    let _ = writeln!(j, "    \"instruments\": {},", registry.len());
    let _ = writeln!(j, "    \"dbt_traps\": {dbt_traps},");
    let _ = writeln!(j, "    \"dbt_blocks_translated\": {dbt_blocks}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"serve\": {{");
    let _ = writeln!(j, "    \"shards\": {},", serve.shards);
    let _ = writeln!(j, "    \"requests\": {},", serve.requests);
    let _ = writeln!(j, "    \"specs\": {},", serve.specs);
    let _ = writeln!(j, "    \"secs_sequential\": {:.4},", serve.secs_sequential);
    let _ = writeln!(j, "    \"secs_service\": {:.4},", serve.secs_service);
    let _ = writeln!(j, "    \"speedup\": {:.3},", serve.speedup);
    let _ = writeln!(j, "    \"available_parallelism\": {},", serve.parallelism);
    let _ = writeln!(j, "    \"stats_equal\": true");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"shared_cache\": {{");
    let _ = writeln!(j, "    \"vcpus\": {},", shared.vcpus);
    let _ = writeln!(j, "    \"kernel_iters\": {dispatch_iters},");
    let _ = writeln!(j, "    \"hint_hits\": {},", shared.hint_hits);
    let _ = writeln!(j, "    \"hint_misses\": {},", shared.hint_misses);
    let _ = writeln!(j, "    \"hint_hit_rate\": {:.3},", shared.hint_hit_rate);
    let _ = writeln!(
        j,
        "    \"translated_private\": {},",
        shared.translated_private
    );
    let _ = writeln!(
        j,
        "    \"translated_shared\": {},",
        shared.translated_shared
    );
    let _ = writeln!(
        j,
        "    \"translation_reduction\": {:.3},",
        shared.translation_reduction
    );
    let _ = writeln!(j, "    \"secs_single\": {:.4},", shared.secs_single);
    let _ = writeln!(j, "    \"secs_multi\": {:.4},", shared.secs_multi);
    let _ = writeln!(j, "    \"mt_speedup\": {:.3},", shared.mt_speedup);
    let _ = writeln!(j, "    \"available_parallelism\": {},", shared.parallelism);
    let _ = writeln!(j, "    \"stats_equal\": true");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"warm_start\": {{");
    let _ = writeln!(j, "    \"requests\": {},", warm.requests);
    let _ = writeln!(j, "    \"strategies\": {},", warm.strategies);
    let _ = writeln!(
        j,
        "    \"cold_blocks_translated\": {},",
        warm.cold_blocks_translated
    );
    let _ = writeln!(
        j,
        "    \"warm_blocks_translated\": {},",
        warm.warm_blocks_translated
    );
    let _ = writeln!(
        j,
        "    \"translation_reduction\": {:.3},",
        warm.translation_reduction
    );
    let _ = writeln!(j, "    \"images_saved\": {},", warm.images_saved);
    let _ = writeln!(j, "    \"images_loaded\": {},", warm.images_loaded);
    let _ = writeln!(j, "    \"blocks_preloaded\": {},", warm.blocks_preloaded);
    let _ = writeln!(j, "    \"image_hits\": {},", warm.image_hits);
    let _ = writeln!(j, "    \"stats_equal\": true");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"experiments\": [");
    for (i, (name, _, took)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"secs\": {:.4}}}{comma}",
            json_escape(name),
            took.as_secs_f64()
        );
    }
    let _ = writeln!(j, "  ]");
    j.push_str("}\n");
    match std::fs::write("BENCH_simulator.json", &j) {
        Ok(()) => println!("\nwrote BENCH_simulator.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_simulator.json: {e}"),
    }
}
