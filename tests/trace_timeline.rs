//! End-to-end tests of the structured-tracing layer, read back through the
//! JSONL sink the way an external tool would.
//!
//! The load-bearing claim is the paper's temporal argument: under the
//! adaptive mechanisms (Exception Handling, DPEH) the trap-rate timeline
//! decays to zero after the last patch, while under Dynamic Profiling a
//! phase-changing workload keeps trapping per occurrence forever. The
//! tests also pin the layer's purity contract — tracing never changes
//! simulated results — and the determinism of the serialized trace across
//! threads (the property `repro_all --jobs` relies on).

use digitalbridge::dbt::{DbtConfig, MdaStrategy};
use digitalbridge::metrics::json;
use digitalbridge::trace::{jsonl, TraceConfig, Tracer};
use digitalbridge::workloads::kernels::{phase_change_sum, Kernel};
use digitalbridge::Dbt;

const FUEL: u64 = 100_000_000_000;

/// The showcase workload: 200 aligned iterations (covering the profiling
/// window at threshold 50), then 400 misaligned ones.
fn phase_kernel() -> Kernel {
    phase_change_sum(200, 400)
}

fn run_traced(cfg: DbtConfig, k: &Kernel) -> (digitalbridge::dbt::RunReport, Tracer) {
    let mut dbt = Dbt::new(cfg.with_trace(TraceConfig::default().with_bucket_cycles(1 << 12)));
    k.load_into(&mut dbt);
    let report = dbt.run(FUEL).expect("kernel halts");
    let trace = dbt.trace_snapshot().expect("tracing configured");
    (report, trace)
}

/// Parses the bucket series out of a JSONL trace: (traps, patches) per
/// bucket index.
fn bucket_series(text: &str) -> Vec<(u64, u64)> {
    text.lines()
        .filter(|l| json::str_member(l, "type") == Some("bucket"))
        .map(|l| {
            (
                json::u64_member(l, "traps").expect("traps field"),
                json::u64_member(l, "patches").expect("patches field"),
            )
        })
        .collect()
}

/// Adaptive mechanisms: after the last patch bucket, the trap series is
/// all zeros — read from the serialized JSONL, not the in-memory tracer.
#[test]
fn eh_and_dpeh_trap_rate_decays_after_last_patch() {
    for strategy in [MdaStrategy::ExceptionHandling, MdaStrategy::Dpeh] {
        let (report, trace) = run_traced(DbtConfig::new(strategy), &phase_kernel());
        assert!(report.patched_sites >= 1, "{strategy:?} patches the site");

        let text = jsonl::to_string(&trace);
        let buckets = bucket_series(&text);
        let last_patch = buckets
            .iter()
            .rposition(|&(_, p)| p > 0)
            .expect("a patch bucket exists");
        let traps_after: u64 = buckets[last_patch + 1..].iter().map(|&(t, _)| t).sum();
        assert_eq!(
            traps_after, 0,
            "{strategy:?}: traps after the last patch bucket"
        );
        assert!(trace.timeline().trap_rate_converged(), "{strategy:?}");

        // The site table tells the same story: discovery then fix.
        let site = text
            .lines()
            .find(|l| {
                json::str_member(l, "type") == Some("site")
                    && json::u64_member(l, "traps").unwrap_or(0) > 0
            })
            .expect("the trapping site is in the table");
        let first_trap = json::u64_member(site, "first_trap_cycle").expect("discovered");
        let patched = json::u64_member(site, "patch_cycle").expect("fixed");
        assert!(patched >= first_trap, "{strategy:?}: fix after discovery");
    }
}

/// Dynamic profiling on the same workload: no patches ever, and the trap
/// rate stays flat — traps keep landing in the tail of the timeline.
#[test]
fn dynamic_profiling_trap_rate_stays_flat() {
    let (report, trace) = run_traced(
        DbtConfig::new(MdaStrategy::DynamicProfiling),
        &phase_kernel(),
    );
    assert_eq!(report.patched_sites, 0);
    assert_eq!(report.os_fixups, report.traps());
    assert!(report.traps() > 100, "per-occurrence trapping");

    let buckets = bucket_series(&jsonl::to_string(&trace));
    assert!(buckets.iter().all(|&(_, p)| p == 0), "no patch buckets");
    // Traps land in the final third of the active span: the rate never
    // decays, which is exactly what the convergence predicate rejects.
    let tail_start = buckets.len() - buckets.len() / 3;
    let tail_traps: u64 = buckets[tail_start..].iter().map(|&(t, _)| t).sum();
    assert!(tail_traps > 0, "trap rate stays flat to the end");
    assert!(!trace.timeline().trap_rate_converged());
}

/// Purity: for every strategy, a traced run and an untraced run of the
/// same kernel produce identical simulated statistics and guest results.
#[test]
fn tracing_never_changes_simulated_results() {
    let k = phase_kernel();
    for strategy in MdaStrategy::ALL {
        let mut cfg = DbtConfig::new(strategy);
        if strategy == MdaStrategy::StaticProfiling {
            cfg = cfg.with_static_profile(digitalbridge::dbt::StaticProfile::new());
        }
        let (traced, _) = run_traced(cfg.clone(), &k);
        let mut dbt = Dbt::new(cfg);
        k.load_into(&mut dbt);
        let plain = dbt.run(FUEL).expect("kernel halts");
        assert_eq!(plain.stats, traced.stats, "{strategy:?}: cycle accounting");
        assert_eq!(
            plain.final_state.regs, traced.final_state.regs,
            "{strategy:?}: guest results"
        );
        assert_eq!(plain.traps(), traced.traps(), "{strategy:?}");
    }
}

/// The serialized trace is byte-identical across threads: per-site
/// telemetry iterates in guest-PC order and the event ring is a
/// deterministic function of the (deterministic) simulation, so parallel
/// reproduction runs diff clean.
#[test]
fn jsonl_trace_is_deterministic_across_threads() {
    let texts: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let (_, trace) = run_traced(DbtConfig::new(MdaStrategy::Dpeh), &phase_kernel());
                    jsonl::to_string(&trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(!texts[0].is_empty());
    assert_eq!(texts[0], texts[1], "serialized traces must diff clean");
}
