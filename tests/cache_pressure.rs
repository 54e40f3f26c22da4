//! Failure injection: code-region and stub-region exhaustion, interpreter
//! fallback blocks, and misaligned traps at awkward instruction positions.
//! Correctness must survive all of it. A full code region evicts
//! least-recently-used blocks; a full stub region flushes the whole cache.

use digitalbridge::dbt::engine::{states_equivalent, GuestProgram};
use digitalbridge::dbt::{Dbt, DbtConfig, MdaStrategy, RunReport};
use digitalbridge::metrics::Registry;
use digitalbridge::sim::{CostModel, Machine};
use digitalbridge::x86::asm::Assembler;
use digitalbridge::x86::cond::Cond;
use digitalbridge::x86::insn::{AluOp, Ext, MemRef, Width};
use digitalbridge::x86::reg::Reg32::*;
use std::sync::Arc;

const ENTRY: u32 = 0x0040_0000;

/// A program with many distinct hot blocks (each with a misaligned site),
/// to put pressure on the code cache.
fn many_blocks_program(block_count: u32, passes: i32) -> GuestProgram {
    let mut a = Assembler::new(ENTRY);
    a.mov_ri(Ebx, 0x10_0001);
    a.mov_ri(Ecx, passes);
    let top = a.here_label();
    for i in 0..block_count {
        // Each chunk ends with a branch, forcing its own basic block.
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

/// Runs `prog` under EH with the given region sizes; returns the report
/// and the `dbt.code_cache.evictions` count.
fn run_with_cache(prog: &GuestProgram, code_bytes: u64, stub_bytes: u64) -> (RunReport, u64) {
    let registry = Arc::new(Registry::new());
    let mut cfg = DbtConfig::new(MdaStrategy::ExceptionHandling)
        .with_threshold(2)
        .with_metrics(Arc::clone(&registry));
    cfg.code_bytes = code_bytes;
    cfg.stub_bytes = stub_bytes;
    let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
    dbt.load(prog);
    dbt.set_stack(0x00F0_0000);
    let r = dbt.run(200_000_000).expect("halts under cache pressure");
    let evictions = registry.counter("dbt.code_cache.evictions").get();
    (r, evictions)
}

#[test]
fn tiny_code_cache_evicts_but_stays_correct() {
    let prog = many_blocks_program(40, 50);
    let (big, no_pressure_evictions) = run_with_cache(&prog, 2 << 20, 1 << 20);
    assert_eq!(no_pressure_evictions, 0);
    // 2 KiB of code: 40 blocks cannot fit.
    let (small, evictions) = run_with_cache(&prog, 2 << 10, 4 << 10);
    assert!(evictions > 0, "tiny code region must evict");
    assert_eq!(small.cache_flushes, 0, "a full code region never flushes");
    assert_eq!(
        big.final_state.regs, small.final_state.regs,
        "evictions must not change results"
    );
}

#[test]
fn tiny_stub_region_forces_flushes_but_stays_correct() {
    let prog = many_blocks_program(30, 40);
    let (big, _) = run_with_cache(&prog, 2 << 20, 1 << 20);
    // Room for only a couple of stubs (~10 words each).
    let (small, _) = run_with_cache(&prog, 2 << 20, 128);
    assert!(small.cache_flushes > 0, "tiny stub region must flush");
    assert_eq!(big.final_state.regs, small.final_state.regs);
}

#[test]
fn interp_only_fallback_blocks_still_compute_correctly() {
    // A block whose jcc consumes flags from the previous block: the
    // translator refuses it and the engine interprets it forever.
    let mut a = Assembler::new(ENTRY);
    a.mov_ri(Ecx, 500);
    let top = a.here_label();
    a.alu_ri(AluOp::Sub, Ecx, 1); // flags set here...
    let mid = a.new_label();
    a.jmp(mid); // ...but a jmp ends the block...
    a.bind(mid);
    let done = a.new_label();
    a.jcc(Cond::E, done); // ...so this jcc starts a flagless block.
    a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
    a.jmp(top);
    a.bind(done);
    a.hlt();
    let prog = GuestProgram::new(ENTRY, a.finish().expect("assembles"));

    let mut dbt = Dbt::with_machine(
        DbtConfig::new(MdaStrategy::Dpeh).with_threshold(3),
        Machine::without_caches(CostModel::flat()),
    );
    dbt.load(&prog);
    dbt.set_stack(0x00F0_0000);
    let r = dbt.run(500_000_000).expect("halts");
    assert!(
        r.interp_only_blocks >= 1,
        "the flagless block must fall back"
    );
    // The flags crossing from the translated `sub; jmp` block into the
    // interp-only `jcc` block must be exact: the loop runs all 500 times.
    assert_eq!(r.final_state.reg(Ecx), 0);
}

#[test]
fn trap_on_first_instruction_of_a_block() {
    // The very first instruction of the hot block is the misaligned load.
    let mut a = Assembler::new(ENTRY);
    a.mov_ri(Ebx, 0x10_0003);
    a.mov_ri(Ecx, 100);
    let top = a.here_label();
    a.load(Width::W4, Ext::Zero, Eax, MemRef::base_disp(Ebx, 0));
    a.alu_ri(AluOp::Sub, Ecx, 1);
    a.jcc(Cond::Ne, top);
    a.hlt();
    let prog = GuestProgram::new(ENTRY, a.finish().expect("assembles"));

    for rearrange in [false, true] {
        let mut dbt = Dbt::with_machine(
            DbtConfig::new(MdaStrategy::ExceptionHandling)
                .with_threshold(5)
                .with_rearrange(rearrange),
            Machine::without_caches(CostModel::flat()),
        );
        dbt.load(&prog);
        dbt.set_stack(0x00F0_0000);
        dbt.write_guest_memory(0x10_0003, &0xAABBCCDDu32.to_le_bytes());
        let r = dbt.run(100_000_000).expect("halts");
        assert_eq!(r.final_state.reg(Eax), 0xAABBCCDD, "rearrange={rearrange}");
        assert_eq!(r.traps(), 1, "rearrange={rearrange}");
    }
}

#[test]
fn trap_on_store_slot_of_rmw() {
    // `add [mem], reg`: the load is slot 0, the store slot 1. Force only
    // the *store* to trap by patching... both slots share the address, so
    // both trap — the first (load) trap patches slot 0, the store then
    // traps separately. Verify two patches on one instruction.
    let mut a = Assembler::new(ENTRY);
    a.mov_ri(Ebx, 0x10_0001);
    a.mov_ri(Edx, 7);
    a.mov_ri(Ecx, 50);
    let top = a.here_label();
    a.alu_mr(AluOp::Add, MemRef::base_disp(Ebx, 0), Edx);
    a.alu_ri(AluOp::Sub, Ecx, 1);
    a.jcc(Cond::Ne, top);
    a.hlt();
    let prog = GuestProgram::new(ENTRY, a.finish().expect("assembles"));

    let mut dbt = Dbt::with_machine(
        DbtConfig::new(MdaStrategy::ExceptionHandling).with_threshold(5),
        Machine::without_caches(CostModel::flat()),
    );
    dbt.load(&prog);
    dbt.set_stack(0x00F0_0000);
    let r = dbt.run(100_000_000).expect("halts");
    assert_eq!(r.traps(), 2, "load slot and store slot each trap once");
    assert_eq!(r.patched_sites, 2);
    // 50 increments of 7 over an initially zero location.
    assert_eq!(
        dbt.machine().mem().read_int(0x10_0001, 4),
        350,
        "RMW result intact through double patching"
    );
}

#[test]
fn equivalence_under_pressure_matches_reference() {
    use digitalbridge::dbt::engine::profile_program;
    let prog = many_blocks_program(25, 30);
    let (ref_state, _) = profile_program(
        &prog,
        &[],
        Some(0x00F0_0000),
        &CostModel::flat(),
        50_000_000,
    )
    .expect("reference halts");
    let mut cfg = DbtConfig::new(MdaStrategy::Dpeh)
        .with_threshold(2)
        .with_retranslate(true);
    cfg.code_bytes = 8 << 10;
    cfg.stub_bytes = 2 << 10;
    let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
    dbt.load(&prog);
    dbt.set_stack(0x00F0_0000);
    let r = dbt.run(500_000_000).expect("halts");
    assert!(states_equivalent(&r.final_state, &ref_state));
}
