//! End-to-end coherence of in-cache-code dispatch: the inline IBTC, the
//! shadow return stack, and lazy chaining must never let stale host code
//! run after `write_guest_code`, an LRU eviction or a cache flush, and
//! turning the fast path on must not change guest-visible results under
//! any MDA strategy.

use digitalbridge::dbt::engine::{profile_program, states_equivalent, GuestProgram};
use digitalbridge::dbt::{Dbt, DbtConfig, MdaStrategy, StaticProfile};
use digitalbridge::metrics::Registry;
use digitalbridge::sim::{CostModel, Machine};
use digitalbridge::x86::asm::Assembler;
use digitalbridge::x86::cond::Cond;
use digitalbridge::x86::insn::{AluOp, MemRef};
use digitalbridge::x86::reg::Reg32::*;
use std::sync::Arc;

const ENTRY: u32 = 0x0040_0000;

fn cfg_for(strategy: MdaStrategy) -> DbtConfig {
    let mut cfg = DbtConfig::new(strategy).with_threshold(3);
    if strategy == MdaStrategy::StaticProfiling {
        cfg = cfg.with_static_profile(StaticProfile::new());
    }
    cfg
}

fn run_dbt(prog: &GuestProgram, cfg: DbtConfig) -> digitalbridge::dbt::RunReport {
    let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
    dbt.load(prog);
    dbt.set_stack(0x00F0_0000);
    dbt.run(500_000_000).expect("halts")
}

/// Call/ret loop over a misaligned stack frame: exercises dynamic-target
/// dispatch and every strategy's MDA machinery at the same time. The
/// callee ends in `add eax, 1; ret` (6 + 1 bytes), so the add sits at
/// `ENTRY + len - 7` for the self-modification test.
fn mda_call_loop(iters: i32, misaligned: bool) -> GuestProgram {
    let mut a = Assembler::new(ENTRY);
    let f = a.new_label();
    if misaligned {
        a.mov_ri(Esp, 0x00F0_0000 - 2);
    }
    a.mov_ri(Ecx, iters);
    a.mov_ri(Eax, 0);
    let top = a.here_label();
    a.call(f);
    a.alu_ri(AluOp::Sub, Ecx, 1);
    a.jcc(Cond::Ne, top);
    a.hlt();
    a.bind(f);
    a.alu_rm(AluOp::Add, Eax, MemRef::abs(0x10_0000));
    a.alu_ri(AluOp::Add, Eax, 1);
    a.ret();
    GuestProgram::new(ENTRY, a.finish().expect("assembles"))
}

/// Satellite: all five strategies produce identical final guest state and
/// identical guest instruction totals with in-cache dispatch on vs off,
/// and the fast path strictly reduces monitor round-trips.
#[test]
fn dispatch_on_off_equivalent_for_every_strategy() {
    let prog = mda_call_loop(400, true);
    let ref_state = profile_program(
        &prog,
        &[],
        Some(0x00F0_0000),
        &CostModel::flat(),
        50_000_000,
    )
    .expect("halts")
    .0;
    for strategy in MdaStrategy::ALL {
        // Retranslation re-runs block tails through the interpreter, which
        // makes the retired counter inexact; keep it off for the equality.
        let base = cfg_for(strategy)
            .with_retranslate(false)
            .with_count_retired(true);
        let off = run_dbt(&prog, base.clone().with_in_cache_dispatch(false));
        let on = run_dbt(&prog, base.with_in_cache_dispatch(true));
        assert!(
            states_equivalent(&off.final_state, &ref_state),
            "{strategy:?}"
        );
        assert!(
            states_equivalent(&on.final_state, &ref_state),
            "{strategy:?}"
        );
        assert_eq!(
            on.guest_insns_interpreted + on.guest_insns_retired,
            off.guest_insns_interpreted + off.guest_insns_retired,
            "{strategy:?}: dispatch path must not change instruction totals"
        );
        assert!(
            on.monitor_exits < off.monitor_exits,
            "{strategy:?}: {} monitor exits on vs {} off",
            on.monitor_exits,
            off.monitor_exits
        );
        assert!(on.ibtc_hits + on.ras_hits > 0, "{strategy:?}");
        assert_eq!(
            off.ibtc_hits + off.ras_hits,
            0,
            "{strategy:?}: off means off"
        );
    }
}

/// Satellite: after `write_guest_code` invalidates a translated, chained,
/// IBTC-known callee, control must re-enter the monitor — no stale host
/// entry may run — and the rewritten semantics must take effect, for every
/// strategy with the full dispatch fast path enabled.
#[test]
fn write_guest_code_reenters_monitor_for_every_strategy() {
    for strategy in MdaStrategy::ALL {
        let prog = mda_call_loop(200, true);
        let cfg = cfg_for(strategy).with_in_cache_dispatch(true);
        let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
        dbt.load(&prog);
        dbt.set_stack(0x00F0_0000);
        let first = dbt.run(500_000_000).expect("halts");
        assert_eq!(first.final_state.reg(Eax), 200, "{strategy:?}");
        assert!(
            first.ibtc_hits + first.ras_hits > 0,
            "{strategy:?}: fast path must be exercised before the rewrite"
        );

        // Rewrite the callee's trailing `add eax, 1` (6 bytes, before the
        // 1-byte ret) to `add eax, 7`.
        let add_pc = ENTRY + prog.image().len() as u32 - 7;
        let mut patch = Assembler::new(add_pc);
        patch.alu_ri(AluOp::Add, Eax, 7);
        dbt.write_guest_code(add_pc, &patch.finish().expect("assembles"));

        // The stale translation is gone and nothing chains into it.
        assert!(
            dbt.code_cache_blocks()
                .all(|b| !b.guest_pcs.contains(&add_pc)),
            "{strategy:?}: stale translation survived the code write"
        );
        for b in dbt.code_cache_blocks() {
            for s in &b.exit_slots {
                assert!(
                    !(s.chained && s.target == add_pc),
                    "{strategy:?}: stale chain into rewritten code"
                );
            }
        }

        dbt.restart_at(ENTRY);
        let second = dbt.run(500_000_000).expect("halts");
        assert_eq!(
            second.final_state.reg(Eax),
            200 * 7,
            "{strategy:?}: stale host code ran after invalidation"
        );
    }
}

/// Two call/ret loops over a misaligned stack taking turns `outer` times,
/// `inner` calls each: a working set whose halves can evict each other.
fn alternating_call_loops(outer: i32, inner: i32) -> GuestProgram {
    let mut a = Assembler::new(ENTRY);
    let (f1, f2) = (a.new_label(), a.new_label());
    a.mov_ri(Esp, 0x00F0_0000 - 2);
    a.mov_ri(Eax, 0);
    a.mov_ri(Edx, outer);
    let top = a.here_label();
    for f in [f1, f2] {
        a.mov_ri(Ecx, inner);
        let lp = a.here_label();
        a.call(f);
        a.alu_ri(AluOp::Sub, Ecx, 1);
        a.jcc(Cond::Ne, lp);
    }
    a.alu_ri(AluOp::Sub, Edx, 1);
    a.jcc(Cond::Ne, top);
    a.hlt();
    for (f, n) in [(f1, 1), (f2, 2)] {
        a.bind(f);
        a.alu_rm(AluOp::Add, Eax, MemRef::abs(0x10_0000));
        a.alu_ri(AluOp::Add, Eax, n);
        a.ret();
    }
    GuestProgram::new(ENTRY, a.finish().expect("assembles"))
}

/// Satellite: LRU eviction and whole-cache flushes clear the IBTC and
/// shadow return stack along with the blocks, for every strategy. A code
/// region two-thirds the size of the working set evicts one loop's blocks
/// at every turn; a stub region with room for one stub flushes
/// everything. Results stay correct while the fast path keeps hitting.
#[test]
fn cache_flush_with_dispatch_preserves_results() {
    let prog = alternating_call_loops(20, 30);
    let ref_state = profile_program(
        &prog,
        &[],
        Some(0x00F0_0000),
        &CostModel::flat(),
        50_000_000,
    )
    .expect("halts")
    .0;
    for strategy in MdaStrategy::ALL {
        let run = |code_bytes: u64, stub_bytes: u64| {
            let registry = Arc::new(Registry::new());
            let mut cfg = cfg_for(strategy)
                .with_in_cache_dispatch(true)
                .with_metrics(Arc::clone(&registry));
            cfg.code_bytes = code_bytes;
            cfg.stub_bytes = stub_bytes;
            let r = run_dbt(&prog, cfg);
            assert!(
                states_equivalent(&r.final_state, &ref_state),
                "{strategy:?} code={code_bytes} stubs={stub_bytes}"
            );
            assert_eq!(r.final_state.reg(Eax), 20 * 30 * 3, "{strategy:?}");
            assert!(r.ibtc_hits + r.ras_hits > 0, "{strategy:?}: {r}");
            let evictions = registry.counter("dbt.code_cache.evictions").get();
            let working_set = registry.gauge("dbt.code_cache.bytes").get() as u64;
            (r, evictions, working_set)
        };
        let (_, evictions, working_set) = run(2 << 20, 1 << 20);
        assert_eq!(evictions, 0, "{strategy:?}");

        // Word-aligned, since the stub region starts right after it.
        let (r, evictions, _) = run((working_set * 2 / 3) & !3, 1 << 20);
        assert!(evictions > 0, "{strategy:?}: code pressure must evict");
        assert_eq!(r.cache_flushes, 0, "{strategy:?}: eviction is not a flush");

        // Exception handling patches every site through a stub (the
        // profiling strategies saw the misaligned stack before
        // translating): a one-stub region forces whole-cache flushes.
        if strategy == MdaStrategy::ExceptionHandling {
            assert!(r.patched_sites > 0, "{strategy:?}: {r}");
            let (r, _, _) = run(2 << 20, 64);
            assert!(r.cache_flushes >= 1, "{strategy:?}: {r}");
        }
    }
}
