//! Eviction policy of the shared translation cache, observed end-to-end:
//! LRU order is deterministic, evicted blocks retranslate correctly, and
//! every eviction is announced by exactly one `evict` trace event carrying
//! the victim's guest PC.

use digitalbridge::dbt::engine::GuestProgram;
use digitalbridge::dbt::{Dbt, DbtConfig, MdaStrategy, SharedCodeCache};
use digitalbridge::metrics::json;
use digitalbridge::sim::{CostModel, Machine};
use digitalbridge::trace::{jsonl, TraceConfig, TraceEvent};
use digitalbridge::x86::asm::Assembler;
use digitalbridge::x86::cond::Cond;
use digitalbridge::x86::insn::{AluOp, MemRef};
use digitalbridge::x86::reg::Reg32::*;
use std::sync::Arc;

const ENTRY: u32 = 0x0040_0000;

/// A round-robin working set of hot blocks larger than the tiny cache.
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

/// One traced run; returns final registers, the evict-event PC sequence,
/// the shared cache's own eviction count, and retranslations.
fn run_traced(
    prog: &GuestProgram,
    capacity: u64,
) -> (Vec<u32>, Vec<u32>, u64, digitalbridge::dbt::RunReport) {
    let shared = SharedCodeCache::new(capacity);
    let cfg = DbtConfig::new(MdaStrategy::ExceptionHandling)
        .with_threshold(2)
        .with_shared_cache(Arc::clone(&shared))
        .with_trace(TraceConfig::default());
    let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
    dbt.load(prog);
    dbt.set_stack(0x00F0_0000);
    let r = dbt.run(200_000_000).expect("halts under eviction pressure");
    let trace = dbt.trace_snapshot().expect("tracing configured");
    let evicted: Vec<u32> = trace
        .events()
        .filter_map(|rec| match rec.event {
            TraceEvent::CacheEvict { block_pc } => Some(block_pc),
            _ => None,
        })
        .collect();
    let regs = r.final_state.regs.to_vec();
    (regs, evicted, shared.stats().evictions, r)
}

#[test]
fn lru_eviction_is_deterministic_and_traced() {
    let prog = many_blocks_program(24, 30);
    let code_end = ENTRY + prog.image().len() as u32;

    // Ample capacity: no evictions, no evict events.
    let (regs_ample, evicted_ample, count_ample, _) = run_traced(&prog, 2 << 20);
    assert_eq!(count_ample, 0);
    assert!(evicted_ample.is_empty());

    // 512 bytes hold only a fraction of the 24-block working set.
    let (regs_tiny, evicted, count, report) = run_traced(&prog, 512);
    assert!(count > 0, "the tiny cache must evict");
    assert_eq!(
        evicted.len() as u64,
        count,
        "exactly one trace event per eviction"
    );
    assert!(
        evicted.iter().all(|&pc| (ENTRY..code_end).contains(&pc)),
        "every victim is a translated guest block"
    );
    assert_eq!(regs_ample, regs_tiny, "eviction must not change results");

    // The round-robin loop revisits every block, so some victim was
    // retranslated after eviction — and then evicted again.
    let mut seen = std::collections::HashSet::new();
    assert!(
        evicted.iter().any(|pc| !seen.insert(*pc)),
        "a block must be evicted, retranslated, and evicted again"
    );
    assert!(report.blocks_translated > 0);

    // Same program, fresh cache: the LRU sequence replays exactly.
    let (_, evicted_again, count_again, _) = run_traced(&prog, 512);
    assert_eq!(count, count_again, "eviction count is deterministic");
    assert_eq!(evicted, evicted_again, "LRU victim order is deterministic");
}

/// The evict event round-trips through the JSONL sink with its guest PC,
/// so external tools see evictions the same way the in-memory ring does.
#[test]
fn evict_events_serialize_with_their_guest_pc() {
    let prog = many_blocks_program(24, 30);
    let shared = SharedCodeCache::new(512);
    let cfg = DbtConfig::new(MdaStrategy::ExceptionHandling)
        .with_threshold(2)
        .with_shared_cache(Arc::clone(&shared))
        .with_trace(TraceConfig::default());
    let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
    dbt.load(&prog);
    dbt.set_stack(0x00F0_0000);
    dbt.run(200_000_000).expect("halts");
    let trace = dbt.trace_snapshot().expect("tracing configured");

    let text = jsonl::to_string(&trace);
    let evict_lines: Vec<&str> = text
        .lines()
        .filter(|l| {
            json::str_member(l, "type") == Some("event")
                && json::str_member(l, "kind") == Some("evict")
        })
        .collect();
    assert_eq!(evict_lines.len() as u64, shared.stats().evictions);
    let in_ring: Vec<u64> = trace
        .events()
        .filter_map(|rec| match rec.event {
            TraceEvent::CacheEvict { block_pc } => Some(u64::from(block_pc)),
            _ => None,
        })
        .collect();
    let in_jsonl: Vec<u64> = evict_lines
        .iter()
        .map(|l| json::u64_member(l, "pc").expect("evict line carries its pc"))
        .collect();
    assert_eq!(in_ring, in_jsonl);
}
