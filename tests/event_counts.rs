//! One count per engine event, seen three ways. The trace's per-kind
//! event counts, the run report's counters and the metrics registry the
//! engine publishes to when a run returns must agree: for every strategy
//! and option row, across a restart, on a second engine that reuses a
//! shared cache, and on a run that runs out of fuel.

use digitalbridge::dbt::engine::GuestProgram;
use digitalbridge::dbt::{Dbt, DbtConfig, DbtError, MdaStrategy, RunReport, SharedCodeCache};
use digitalbridge::metrics::Registry;
use digitalbridge::trace::{TraceConfig, Tracer};
use digitalbridge::workloads::kernels::{misaligned_stack, Kernel, KERNEL_BASE};
use digitalbridge::x86::asm::Assembler;
use digitalbridge::x86::cond::Cond;
use digitalbridge::x86::insn::{AluOp, MemRef};
use digitalbridge::x86::reg::Reg32::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const FUEL: u64 = 500_000_000;
const ALIGNED: u32 = 0x10_0000;
const MISALIGNED: u32 = 0x10_0201;

/// Four sites in one block over `first` until the loop counter reaches
/// `switch_at`, then over `second`: aligned-then-misaligned makes each
/// site trap after translation (and a DPEH block reach its retranslation
/// threshold); misaligned-then-aligned gives adaptive code the aligned
/// streak that reverts it.
fn four_sites(first: u32, second: u32, switch_at: i32) -> Kernel {
    let words: Vec<u8> = (0u8..64).collect();
    let mut a = Assembler::new(KERNEL_BASE);
    a.mov_ri(Ebx, first as i32);
    a.mov_ri(Ecx, 600);
    let top = a.here_label();
    for disp in [0, 8, 16, 24] {
        a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, disp));
    }
    a.alu_ri(AluOp::Cmp, Ecx, switch_at);
    let skip = a.new_label();
    a.jcc(Cond::Ne, skip);
    a.mov_ri(Ebx, second as i32);
    a.bind(skip);
    a.alu_ri(AluOp::Sub, Ecx, 1);
    a.jcc(Cond::Ne, top);
    a.hlt();
    Kernel {
        program: GuestProgram::new(KERNEL_BASE, a.finish().expect("assembles")),
        data: vec![(first, words.clone()), (second, words)],
        stack_top: 0x00F0_0000,
    }
}

fn kernels() -> Vec<(&'static str, Kernel)> {
    vec![
        ("to_misaligned", four_sites(ALIGNED, MISALIGNED, 500)),
        ("to_aligned", four_sites(MISALIGNED, ALIGNED, 560)),
        ("misaligned_stack", misaligned_stack(300)),
    ]
}

/// Every strategy with and without in-cache dispatch, plus the handler
/// options and a stub region small enough to flush.
fn rows() -> Vec<(String, DbtConfig)> {
    let base = |s: MdaStrategy| DbtConfig::new(s).with_threshold(10);
    let mut rows = Vec::new();
    for s in MdaStrategy::ALL {
        rows.push((s.slug().to_string(), base(s)));
        rows.push((
            format!("{}+in_cache_dispatch", s.slug()),
            base(s).with_in_cache_dispatch(true),
        ));
    }
    let eh = || base(MdaStrategy::ExceptionHandling);
    let dpeh = || base(MdaStrategy::Dpeh);
    rows.push(("eh+rearrange".into(), eh().with_rearrange(true)));
    rows.push(("dpeh+retranslate".into(), dpeh().with_retranslate(true)));
    rows.push((
        "dpeh+adaptive_reversion".into(),
        dpeh().with_adaptive_reversion(true),
    ));
    let mut tiny_stubs = eh();
    tiny_stubs.stub_bytes = 64;
    rows.push(("eh+tiny_stub_region".into(), tiny_stubs));
    rows
}

/// Events per `TraceEvent::kind()`, from a ring that dropped nothing.
fn kinds(trace: &Tracer) -> BTreeMap<&'static str, u64> {
    assert_eq!(trace.dropped(), 0, "the ring holds every event");
    let mut n = BTreeMap::new();
    for rec in trace.events() {
        *n.entry(rec.event.kind()).or_insert(0) += 1;
    }
    n
}

fn engine(cfg: &DbtConfig, registry: &Arc<Registry>) -> Dbt {
    let trace = TraceConfig::default().with_ring_capacity(1 << 20);
    Dbt::new(
        cfg.clone()
            .with_trace(trace)
            .with_metrics(Arc::clone(registry)),
    )
}

/// The report's counters against the trace's event counts.
fn assert_events_match_report(ctx: &str, ev: &BTreeMap<&str, u64>, r: &RunReport) {
    let n = |kind: &str| ev.get(kind).copied().unwrap_or(0);
    for (kind, reported) in [
        ("monitor_exit", r.monitor_exits),
        ("chain", r.chains),
        ("os_fixup", r.os_fixups),
        ("patch", r.patched_sites),
        ("rearrange", r.rearrangements),
        ("reversion", r.reversions),
        ("retranslate", r.retranslations),
        ("ibtc_miss", r.ibtc_misses),
        ("translate", r.blocks_translated),
        ("flush", r.cache_flushes),
        ("trap", r.traps()),
    ] {
        assert_eq!(n(kind), reported, "{ctx}: `{kind}` events vs report\n{r}");
    }
}

/// The registry against the report (cumulative over the engine's runs).
fn assert_registry_matches_report(ctx: &str, m: &Registry, r: &RunReport) {
    let c = |name: &str| m.counter(name).get();
    for (name, reported) in [
        ("dbt.traps", r.traps()),
        ("dbt.os_fixups", r.os_fixups),
        ("dbt.patches", r.patched_sites + r.rearrangements),
        ("dbt.cache_flushes", r.cache_flushes),
        ("dispatch.hint_hits", r.hint_hits),
        ("dispatch.hint_misses", r.hint_misses),
    ] {
        assert_eq!(c(name), reported, "{ctx}: `{name}` vs report\n{r}");
    }
    assert_eq!(
        c("dbt.code_cache.hits") + c("dbt.code_cache.misses"),
        r.blocks_translated,
        "{ctx}: every install is a cache hit or a miss"
    );
    assert_eq!(
        c("dbt.blocks_translated"),
        c("dbt.code_cache.misses"),
        "{ctx}: a block translated here is a cache miss"
    );
}

#[test]
fn trace_report_and_registry_count_each_event_once() {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (kname, k) in kernels() {
        for (row, cfg) in rows() {
            let ctx = format!("{kname}/{row}");
            let registry = Arc::new(Registry::new());
            let mut dbt = engine(&cfg, &registry);
            k.load_into(&mut dbt);
            let first = dbt.run(FUEL).expect("kernel halts");
            let ev = kinds(&dbt.trace_snapshot().expect("tracing on"));
            assert_events_match_report(&ctx, &ev, &first);
            assert_registry_matches_report(&ctx, &registry, &first);

            // A second run continues the counts: the report is
            // cumulative, and the registry gains only the difference.
            dbt.restart_at(k.program.entry());
            let second = dbt.run(FUEL).expect("kernel halts again");
            let ctx = format!("{ctx} (restarted)");
            let ev = kinds(&dbt.trace_snapshot().expect("tracing on"));
            assert_events_match_report(&ctx, &ev, &second);
            assert_registry_matches_report(&ctx, &registry, &second);
            for (kind, n) in ev {
                *totals.entry(kind).or_insert(0) += n;
            }
            *totals.entry("hint_hit").or_insert(0) += second.hint_hits;
            *totals.entry("hint_miss").or_insert(0) += second.hint_misses;
        }
    }
    // Every count the test compares was exercised somewhere.
    for name in [
        "monitor_exit",
        "chain",
        "os_fixup",
        "patch",
        "rearrange",
        "reversion",
        "retranslate",
        "ibtc_miss",
        "translate",
        "flush",
        "trap",
        "hint_hit",
        "hint_miss",
    ] {
        let total = totals.get(name).copied().unwrap_or(0);
        assert!(total > 0, "no row exercised `{name}`");
    }
}

#[test]
fn a_second_engine_on_a_shared_cache_counts_hits() {
    let k = four_sites(ALIGNED, MISALIGNED, 500);
    let cfg = DbtConfig::new(MdaStrategy::Dpeh)
        .with_threshold(10)
        .with_shared_cache(SharedCodeCache::new(2 * 1024 * 1024));
    let mut reports = Vec::new();
    for i in 0..2 {
        let registry = Arc::new(Registry::new());
        let mut dbt = engine(&cfg, &registry);
        k.load_into(&mut dbt);
        let r = dbt.run(FUEL).expect("kernel halts");
        let ctx = format!("engine {i}");
        assert_events_match_report(&ctx, &kinds(&dbt.trace_snapshot().unwrap()), &r);
        assert_registry_matches_report(&ctx, &registry, &r);
        reports.push((r, registry));
    }
    let (r, m) = &reports[1];
    assert!(r.blocks_translated > 0);
    assert_eq!(
        m.counter("dbt.code_cache.hits").get(),
        r.blocks_translated,
        "the replica reuses every block the first engine translated"
    );
    assert_eq!(m.counter("dbt.blocks_translated").get(), 0);
}

#[test]
fn a_run_that_runs_out_of_fuel_still_publishes() {
    let k = four_sites(ALIGNED, MISALIGNED, 500);
    let registry = Arc::new(Registry::new());
    let cfg = DbtConfig::new(MdaStrategy::ExceptionHandling).with_threshold(10);
    let mut dbt = engine(&cfg, &registry);
    k.load_into(&mut dbt);
    assert!(matches!(dbt.run(5_000), Err(DbtError::FuelExhausted)));
    let ev = kinds(&dbt.trace_snapshot().expect("tracing on"));
    let n = |kind: &str| ev.get(kind).copied().unwrap_or(0);
    let c = |name: &str| registry.counter(name).get();
    assert!(
        n("translate") > 0,
        "the run translated before the fuel ran out"
    );
    assert_eq!(c("dbt.code_cache.misses"), n("translate"));
    assert_eq!(c("dbt.blocks_translated"), n("translate"));
    assert_eq!(c("dbt.traps"), n("trap"));
    assert_eq!(c("dbt.patches"), n("patch"));
    assert!(registry.gauge("dbt.code_cache.bytes").get() > 0);
}
