//! Shared-translation-cache coherence: N executor threads over one
//! fleet-shared cache must be byte-identical to engines alone on their own
//! caches, survive concurrent guest-code patching and capacity-pressure
//! eviction, and never execute a stale translation — for every MDA
//! strategy.

use digitalbridge::dbt::engine::{profile_program, states_equivalent, GuestProgram};
use digitalbridge::dbt::{Dbt, DbtConfig, MdaStrategy, SharedCodeCache, StaticProfile};
use digitalbridge::sim::{CostModel, Machine};
use digitalbridge::workloads::kernels::phase_change_sum;
use digitalbridge::x86::asm::Assembler;
use digitalbridge::x86::cond::Cond;
use digitalbridge::x86::insn::{AluOp, MemRef};
use digitalbridge::x86::reg::Reg32::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const ENTRY: u32 = 0x0040_0000;
const VCPUS: usize = 3;
const FUEL: u64 = 500_000_000;

fn cfg_for(strategy: MdaStrategy) -> DbtConfig {
    let mut cfg = DbtConfig::new(strategy).with_threshold(3);
    if strategy == MdaStrategy::StaticProfiling {
        cfg = cfg.with_static_profile(StaticProfile::new());
    }
    cfg
}

/// Call/ret loop over a misaligned stack frame (same shape as the
/// dispatch-coherence suite): the callee ends in `add eax, 1; ret`
/// (6 + 1 bytes), so the add sits at `ENTRY + len - 7` for patching.
fn mda_call_loop(iters: i32) -> GuestProgram {
    let mut a = Assembler::new(ENTRY);
    let f = a.new_label();
    a.mov_ri(Esp, 0x00F0_0000 - 2);
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

/// Many distinct hot blocks, each with a misaligned site: the working set
/// a tiny shared cache cannot hold.
fn many_blocks_program(block_count: u32, passes: i32) -> GuestProgram {
    let mut a = Assembler::new(ENTRY);
    a.mov_ri(Ebx, 0x10_0001);
    a.mov_ri(Ecx, passes);
    let top = a.here_label();
    for i in 0..block_count {
        a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, (i * 8) as i32));
        a.alu_ri(AluOp::Test, Edx, 1); // edx = 0 → never taken
        let next = a.new_label();
        a.jcc(Cond::Ne, next);
        a.bind(next);
    }
    a.alu_ri(AluOp::Sub, Ecx, 1);
    a.jcc(Cond::Ne, top);
    a.hlt();
    GuestProgram::new(ENTRY, a.finish().expect("assembles"))
}

fn attached(strategy: MdaStrategy, shared: &Arc<SharedCodeCache>, prog: &GuestProgram) -> Dbt {
    let cfg = cfg_for(strategy).with_shared_cache(Arc::clone(shared));
    let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
    dbt.load(prog);
    dbt.set_stack(0x00F0_0000);
    dbt
}

/// Byte identity: under the full cost model (I-cache included), a guest on
/// a shared cache — whether it translates every block itself or installs
/// every block from another engine's products — reports *exactly* what a
/// guest alone on its own cache reports, for every strategy.
#[test]
fn shared_cache_reports_are_byte_identical_for_every_strategy() {
    let kernel = phase_change_sum(100, 200);
    for strategy in MdaStrategy::ALL {
        let run = |shared: Option<Arc<SharedCodeCache>>| {
            let mut cfg = cfg_for(strategy);
            if let Some(sh) = shared {
                cfg = cfg.with_shared_cache(sh);
            }
            let mut dbt = Dbt::new(cfg);
            kernel.load_into(&mut dbt);
            dbt.run(FUEL).expect("halts").to_string()
        };
        let alone = run(None);
        let shared = SharedCodeCache::new(2 << 20);
        let first = run(Some(Arc::clone(&shared))); // populates the cache
        let reuse = run(Some(Arc::clone(&shared))); // installs from it
        assert!(
            shared.stats().hits > 0,
            "{strategy:?}: the second guest must reuse translations"
        );
        assert_eq!(alone, first, "{strategy:?}: translator-side identity");
        assert_eq!(alone, reuse, "{strategy:?}: install-from-shared identity");
    }
}

/// No stale block executes: vCPU threads populate the shared cache, one
/// thread rewrites the hot callee, and every vCPU's re-run must see the
/// new semantics — byte-identical to a single engine doing the same
/// run/patch/re-run over its own shared cache.
#[test]
fn concurrent_patch_invalidates_for_every_vcpu() {
    for strategy in MdaStrategy::ALL {
        let prog = mda_call_loop(200);
        let add_pc = ENTRY + prog.image().len() as u32 - 7;
        let mut patch = Assembler::new(add_pc);
        patch.alu_ri(AluOp::Add, Eax, 7);
        let patch_bytes = patch.finish().expect("assembles");

        // Single-engine reference over its own shared cache.
        let ref_shared = SharedCodeCache::new(2 << 20);
        let mut reference = attached(strategy, &ref_shared, &prog);
        let ref_first = reference.run(FUEL).expect("halts");
        reference.write_guest_code(add_pc, &patch_bytes);
        reference.restart_at(ENTRY);
        let ref_second = reference.run(FUEL).expect("halts");
        assert_eq!(ref_first.final_state.reg(Eax), 200, "{strategy:?}");
        assert_eq!(ref_second.final_state.reg(Eax), 200 * 7, "{strategy:?}");

        let shared = SharedCodeCache::new(2 << 20);
        let ran = Barrier::new(VCPUS + 1);
        let patched = Barrier::new(VCPUS + 1);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..VCPUS)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    let (prog, ran, patched) = (&prog, &ran, &patched);
                    s.spawn(move || {
                        let mut dbt = attached(strategy, &shared, prog);
                        let first = dbt.run(FUEL).expect("halts");
                        ran.wait();
                        patched.wait();
                        dbt.restart_at(ENTRY);
                        let second = dbt.run(FUEL).expect("halts");
                        (first, second)
                    })
                })
                .collect();

            // The patcher is its own engine on the same shared cache; its
            // publish must reach every vCPU before their next dispatch.
            ran.wait();
            let mut patcher = attached(strategy, &shared, &prog);
            patcher.write_guest_code(add_pc, &patch_bytes);
            patched.wait();

            for w in workers {
                let (first, second) = w.join().expect("vCPU thread panicked");
                assert!(
                    states_equivalent(&first.final_state, &ref_first.final_state),
                    "{strategy:?}: pre-patch divergence"
                );
                assert!(
                    states_equivalent(&second.final_state, &ref_second.final_state),
                    "{strategy:?}: a stale translation executed after the patch"
                );
            }
        });
    }
}

/// Capacity-pressure stress: vCPU threads thrash a tiny shared cache (LRU
/// evicting each other's entries, reusing freed code addresses) while a
/// patcher thread concurrently republishes the callee's own bytes — every
/// invalidation and eviction is semantically invisible, so every vCPU must
/// land exactly on the single-threaded reference state.
#[test]
fn eviction_and_patch_storm_preserves_results() {
    let blocks = many_blocks_program(24, 30);
    let calls = mda_call_loop(150);
    let (blocks_ref, _) = profile_program(
        &blocks,
        &[],
        Some(0x00F0_0000),
        &CostModel::flat(),
        50_000_000,
    )
    .expect("reference halts");
    let (calls_ref, _) = profile_program(
        &calls,
        &[],
        Some(0x00F0_0000),
        &CostModel::flat(),
        50_000_000,
    )
    .expect("reference halts");
    let add_pc = ENTRY + calls.image().len() as u32 - 7;
    let identity = &calls.image()[calls.image().len() - 7..calls.image().len() - 1];

    for strategy in [MdaStrategy::ExceptionHandling, MdaStrategy::Dpeh] {
        // 512 bytes hold only a fraction of the working set: constant LRU eviction.
        let tiny = SharedCodeCache::new(512);
        std::thread::scope(|s| {
            for _ in 0..VCPUS {
                let tiny = Arc::clone(&tiny);
                let (blocks, blocks_ref) = (&blocks, &blocks_ref);
                s.spawn(move || {
                    let r = attached(strategy, &tiny, blocks)
                        .run(FUEL)
                        .expect("halts under eviction pressure");
                    assert!(
                        states_equivalent(&r.final_state, blocks_ref),
                        "{strategy:?}: eviction changed results"
                    );
                });
            }
        });
        assert!(
            tiny.stats().evictions > 0,
            "{strategy:?}: the tiny cache must evict"
        );

        // Identity-patch storm against a hot callee, concurrent with the
        // vCPUs executing it.
        let shared = SharedCodeCache::new(2 << 20);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let done = &done;
            let workers: Vec<_> = (0..VCPUS)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    let (calls, calls_ref) = (&calls, &calls_ref);
                    s.spawn(move || {
                        let r = attached(strategy, &shared, calls)
                            .run(FUEL)
                            .expect("halts under patch storm");
                        assert!(
                            states_equivalent(&r.final_state, calls_ref),
                            "{strategy:?}: patch storm changed results"
                        );
                    })
                })
                .collect();
            let storm = {
                let shared = Arc::clone(&shared);
                let calls = &calls;
                s.spawn(move || {
                    let mut patcher = attached(strategy, &shared, calls);
                    // Do-while: the final write lands after the vCPUs are
                    // done, when their live entries are certain to exist —
                    // so at least one write always invalidates something.
                    loop {
                        patcher.write_guest_code(add_pc, identity);
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                })
            };
            for w in workers {
                w.join().expect("vCPU thread panicked");
            }
            done.store(true, Ordering::Release);
            storm.join().expect("patcher thread panicked");
        });
        assert!(
            shared.stats().invalidations > 0,
            "{strategy:?}: the storm must have invalidated live entries"
        );
    }
}
