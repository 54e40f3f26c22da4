//! End-to-end tests of the full-fidelity streaming trace pipeline: a
//! run whose event stream overflows the in-memory ring many times over
//! still serializes *every* record, in order, byte-deterministically —
//! and attaching the whole observability stack (streaming sink + metrics
//! registry) never changes simulated results.

use digitalbridge::dbt::{DbtConfig, MdaStrategy};
use digitalbridge::metrics::{json, Registry};
use digitalbridge::trace::{jsonl, ScannedTrace, StreamingJsonl, TraceConfig};
use digitalbridge::workloads::kernels::{phase_change_sum, Kernel};
use digitalbridge::Dbt;
use std::sync::Arc;

const FUEL: u64 = 100_000_000_000;

fn phase_kernel() -> Kernel {
    phase_change_sum(200, 400)
}

/// Runs the kernel with a tiny event ring and an in-memory streaming
/// sink; returns (report, full JSONL bytes, streamed-event count).
fn run_streamed(cfg: DbtConfig, ring: usize) -> (digitalbridge::dbt::RunReport, Vec<u8>, u64) {
    let tc = TraceConfig::default()
        .with_bucket_cycles(1 << 12)
        .with_ring_capacity(ring);
    let mut dbt = Dbt::new(cfg.with_trace(tc));
    assert!(
        dbt.attach_trace_sink(Box::new(StreamingJsonl::new(Vec::new()))),
        "tracing is enabled, the sink attaches"
    );
    phase_kernel().load_into(&mut dbt);
    let report = dbt.run(FUEL).expect("kernel halts");
    let summary = dbt
        .finish_trace_sink()
        .expect("a sink was attached")
        .expect("Vec<u8> writes never fail");
    let bytes = dbt.take_trace_sink_output().expect("in-memory sink");
    (report, bytes, summary.events)
}

/// The headline property: with a ring far smaller than the event stream,
/// the streamed file still holds every event — nothing is dropped, and
/// the scanned-back aggregates match a run with an unbounded ring.
#[test]
fn streaming_captures_full_fidelity_past_ring_capacity() {
    const RING: usize = 32;
    let (report, bytes, streamed) =
        run_streamed(DbtConfig::new(MdaStrategy::DynamicProfiling), RING);
    assert!(report.traps() > 0, "the workload traps");

    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    let scanned = ScannedTrace::scan(&text);
    assert!(!scanned.warnings.any(), "our own stream scans clean");
    assert_eq!(scanned.events, streamed, "every streamed event is a line");
    assert!(
        scanned.events > RING as u64,
        "the stream must overflow the ring ({} events, ring {RING})",
        scanned.events
    );
    assert_eq!(scanned.dropped, 0, "a healthy sink drops nothing");

    // The same run with a ring big enough to hold everything: the
    // aggregate snapshot agrees with the streamed file's totals.
    let tc = TraceConfig::default()
        .with_bucket_cycles(1 << 12)
        .with_ring_capacity(1 << 16);
    let mut dbt = Dbt::new(DbtConfig::new(MdaStrategy::DynamicProfiling).with_trace(tc));
    phase_kernel().load_into(&mut dbt);
    let wide = dbt.run(FUEL).expect("kernel halts");
    let trace = dbt.trace_snapshot().expect("tracing configured");
    assert_eq!(wide.stats, report.stats, "ring size never changes results");
    assert_eq!(scanned.events, trace.event_count() as u64);
    let wide_scan = ScannedTrace::scan(&jsonl::to_string(&trace));
    assert_eq!(scanned.total_traps(), wide_scan.total_traps());
    assert_eq!(
        scanned.timeline.traps(),
        wide_scan.timeline.traps(),
        "streamed and aggregate timelines agree bucket for bucket"
    );

    // In-order: event cycle stamps are non-decreasing across the file.
    let mut last = 0u64;
    for line in text
        .lines()
        .filter(|l| json::str_member(l, "type") == Some("event"))
    {
        let c = json::u64_member(line, "cycle").expect("events carry cycles");
        assert!(c >= last, "events stream in cycle order");
        last = c;
    }
}

/// Two identical runs stream byte-identical files — the property that
/// makes streamed traces diffable across runs and machines.
#[test]
fn streamed_trace_is_byte_deterministic() {
    let (_, a, _) = run_streamed(DbtConfig::new(MdaStrategy::ExceptionHandling), 16);
    let (_, b, _) = run_streamed(DbtConfig::new(MdaStrategy::ExceptionHandling), 16);
    assert!(!a.is_empty());
    assert_eq!(a, b, "streamed traces must diff clean");
}

/// Purity across the whole observability stack: streaming sink attached,
/// metrics registry attached, tiny ring — simulated statistics and guest
/// results are identical to a bare run.
#[test]
fn streaming_and_metrics_never_change_simulated_results() {
    let k = phase_kernel();
    for strategy in [MdaStrategy::ExceptionHandling, MdaStrategy::Dpeh] {
        let mut plain = Dbt::new(DbtConfig::new(strategy));
        k.load_into(&mut plain);
        let bare = plain.run(FUEL).expect("kernel halts");

        let registry = Arc::new(Registry::new());
        let (full, _, _) = run_streamed(
            DbtConfig::new(strategy).with_metrics(Arc::clone(&registry)),
            8,
        );
        assert_eq!(bare.stats, full.stats, "{strategy:?}: cycle accounting");
        assert_eq!(
            bare.final_state.regs, full.final_state.regs,
            "{strategy:?}: guest results"
        );
        // The registry saw the run: the engine's counters line up with
        // the report's own accounting.
        assert_eq!(
            registry.counter("dbt.traps").get(),
            full.traps(),
            "{strategy:?}: metric counter matches the report"
        );
        assert!(registry.counter("dbt.blocks_translated").get() > 0);
    }
}

/// The cross-run diff on real streamed traces answers the paper's
/// question: EH (as A) traps less than dynamic profiling (as B), and the
/// verdicts differ — A converged, B never patched.
#[test]
fn diff_of_streamed_eh_and_dynamic_runs_has_paper_direction() {
    let (_, eh, _) = run_streamed(DbtConfig::new(MdaStrategy::ExceptionHandling), 16);
    let (_, dynp, _) = run_streamed(DbtConfig::new(MdaStrategy::DynamicProfiling), 16);
    let a = ScannedTrace::scan(&String::from_utf8(eh).unwrap());
    let b = ScannedTrace::scan(&String::from_utf8(dynp).unwrap());
    let d = digitalbridge::trace::diff::diff(&a, &b);
    assert!(
        d.total_traps > 0,
        "dynamic profiling must trap more than EH (got delta {})",
        d.total_traps
    );
    assert!(d.verdict_changed(), "EH converges, dynamic never patches");
    assert_eq!(
        d.verdict_a,
        digitalbridge::trace::ConvergenceVerdict::Converged
    );
    assert_eq!(
        d.verdict_b,
        digitalbridge::trace::ConvergenceVerdict::NoPatches
    );
}
