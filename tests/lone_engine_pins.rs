//! Byte-identity pins for a lone engine. Every strategy × option row runs
//! five kernels on a full-cost-model `Dbt::new` (I-cache included, so the
//! cycle count also pins the code-cache layout) with no shared cache
//! supplied, and hashes each run's report text together with the guest
//! memory the kernel leaves behind. The hashes were recorded when a lone
//! engine still bump-allocated blocks in a cache of its own; a lone engine
//! must keep reproducing them exactly.

use digitalbridge::dbt::engine::{profile_program, GuestProgram};
use digitalbridge::dbt::image::content_hash;
use digitalbridge::dbt::{Dbt, DbtConfig, MdaStrategy};
use digitalbridge::sim::CostModel;
use digitalbridge::workloads::kernels::{self, Kernel, KERNEL_BASE};
use digitalbridge::x86::asm::Assembler;
use digitalbridge::x86::cond::Cond;
use digitalbridge::x86::insn::{AluOp, MemRef};
use digitalbridge::x86::reg::Reg32::*;

const FUEL: u64 = 500_000_000;
const MEMCPY_SRC: u32 = 0x0030_0001;
const MEMCPY_DST: u32 = 0x0038_0000;
const MEMCPY_LEN: u32 = 512;

/// The option rows every strategy runs under.
const ROWS: [&str; 8] = [
    "defaults",
    "rearrange",
    "retranslate",
    "multiversion",
    "adaptive_reversion",
    "in_cache_dispatch",
    "chaining_off",
    "pretranslate",
];

fn row_cfg(strategy: MdaStrategy, row: &str, kernel: &Kernel) -> DbtConfig {
    let mut cfg = DbtConfig::new(strategy).with_threshold(10);
    if strategy == MdaStrategy::StaticProfiling {
        let (_, train) = profile_program(
            &kernel.program,
            &kernel.data,
            Some(kernel.stack_top),
            &CostModel::flat(),
            10_000_000,
        )
        .expect("training run halts");
        cfg = cfg.with_static_profile(train.to_static_profile());
    }
    match row {
        "defaults" => cfg,
        "rearrange" => cfg.with_rearrange(true),
        "retranslate" => cfg.with_retranslate(true),
        "multiversion" => cfg.with_multiversion(true),
        "adaptive_reversion" => cfg.with_adaptive_reversion(true),
        "in_cache_dispatch" => cfg.with_in_cache_dispatch(true),
        "chaining_off" => cfg.with_chaining(false),
        "pretranslate" => cfg.with_pretranslate(true),
        other => unreachable!("unknown row {other}"),
    }
}

fn kernel(data: Vec<(u32, Vec<u8>)>, build: impl FnOnce(&mut Assembler)) -> Kernel {
    let mut a = Assembler::new(KERNEL_BASE);
    build(&mut a);
    Kernel {
        program: GuestProgram::new(KERNEL_BASE, a.finish().expect("assembles")),
        data,
        stack_top: 0x00F0_0000,
    }
}

/// Four sites in one block, aligned while the block heats and misaligned
/// after: each traps once, so the block reaches the retranslation
/// threshold.
fn four_site_phase_change() -> Kernel {
    let words: Vec<u8> = (0u8..64).collect();
    kernel(vec![(0x10_0000, words.clone()), (0x10_0201, words)], |a| {
        a.mov_ri(Ebx, 0x10_0000);
        a.mov_ri(Ecx, 400);
        let top = a.here_label();
        for disp in [0, 8, 16, 24] {
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, disp));
        }
        a.alu_ri(AluOp::Cmp, Ecx, 300);
        let skip = a.new_label();
        a.jcc(Cond::Ne, skip);
        a.mov_ri(Ebx, 0x10_0201);
        a.bind(skip);
        a.alu_ri(AluOp::Sub, Ecx, 1);
        a.jcc(Cond::Ne, top);
        a.hlt();
    })
}

/// One site alternating between an aligned and a misaligned base on
/// every iteration — the mixed site multi-version code exists for.
fn alternating_site() -> Kernel {
    kernel(
        vec![(0x10_0000, vec![5; 8]), (0x10_0102, vec![9; 8])],
        |a| {
            a.mov_ri(Ebx, 0x10_0000);
            a.mov_ri(Esi, 0x10_0102);
            a.mov_ri(Ecx, 400);
            let top = a.here_label();
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
            a.alu_mr(AluOp::Add, MemRef::base_disp(Ebx, 4), Ecx);
            a.mov_rr(Edx, Ebx);
            a.mov_rr(Ebx, Esi);
            a.mov_rr(Esi, Edx);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        },
    )
}

/// The kernels each row runs, with the guest memory windows it observes
/// afterwards: the data it was given, anything it wrote, and the top of
/// its stack.
fn kernels() -> Vec<(Kernel, Vec<(u32, u32)>)> {
    let with_stack = |k: Kernel, extra: &[(u32, u32)]| {
        let mut windows: Vec<(u32, u32)> =
            k.data.iter().map(|(a, b)| (*a, b.len() as u32)).collect();
        windows.extend_from_slice(extra);
        windows.push((k.stack_top - 64, 64));
        (k, windows)
    };
    vec![
        with_stack(kernels::phase_change_sum(60, 240), &[]),
        with_stack(kernels::misaligned_stack(300), &[]),
        with_stack(four_site_phase_change(), &[]),
        with_stack(alternating_site(), &[]),
        with_stack(
            kernels::memcpy_unaligned(MEMCPY_SRC, MEMCPY_DST, MEMCPY_LEN),
            &[(MEMCPY_DST, MEMCPY_LEN)],
        ),
    ]
}

/// One hash over every kernel's report text and observed memory.
fn row_hash(strategy: MdaStrategy, row: &str) -> u64 {
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for (kernel, windows) in kernels() {
        let mut dbt = Dbt::new(row_cfg(strategy, row, &kernel));
        kernel.load_into(&mut dbt);
        let report = dbt.run(FUEL).expect("kernel halts");
        parts.push(report.to_string().into_bytes());
        for (addr, len) in windows {
            let mut buf = vec![0u8; len as usize];
            dbt.machine().mem().read_bytes(u64::from(addr), &mut buf);
            parts.push(buf);
        }
    }
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    content_hash(&refs)
}

/// `(strategy slug, row, hash)`.
const PINNED: [(&str, &str, u64); 40] = [
    ("direct", "defaults", 0xf9a5fde96e33ac75),
    ("direct", "rearrange", 0xf9a5fde96e33ac75),
    ("direct", "retranslate", 0xf9a5fde96e33ac75),
    ("direct", "multiversion", 0xf9a5fde96e33ac75),
    ("direct", "adaptive_reversion", 0xf9a5fde96e33ac75),
    ("direct", "in_cache_dispatch", 0x61071b30910da5b2),
    ("direct", "chaining_off", 0x6ffc9a066ac594cd),
    ("direct", "pretranslate", 0xeda46e6034b75d88),
    ("static", "defaults", 0x62957c07fcaaa127),
    ("static", "rearrange", 0x62957c07fcaaa127),
    ("static", "retranslate", 0x62957c07fcaaa127),
    ("static", "multiversion", 0x62957c07fcaaa127),
    ("static", "adaptive_reversion", 0x62957c07fcaaa127),
    ("static", "in_cache_dispatch", 0xbbe6aa7ab2e1dd49),
    ("static", "chaining_off", 0x322f2a04a8a44eed),
    ("static", "pretranslate", 0x6c4d0f083ba53e25),
    ("dynamic", "defaults", 0x20552f80e063d539),
    ("dynamic", "rearrange", 0x20552f80e063d539),
    ("dynamic", "retranslate", 0x20552f80e063d539),
    ("dynamic", "multiversion", 0x20552f80e063d539),
    ("dynamic", "adaptive_reversion", 0x20552f80e063d539),
    ("dynamic", "in_cache_dispatch", 0x17b50e0b520795b7),
    ("dynamic", "chaining_off", 0x67fc53203da505e6),
    ("dynamic", "pretranslate", 0xbb2afea1e50641b1),
    ("eh", "defaults", 0xd45ef403e0e07768),
    ("eh", "rearrange", 0xf18af592e6172d3e),
    ("eh", "retranslate", 0xd45ef403e0e07768),
    ("eh", "multiversion", 0xd45ef403e0e07768),
    ("eh", "adaptive_reversion", 0xd45ef403e0e07768),
    ("eh", "in_cache_dispatch", 0xaf92a27f5e2e8ed4),
    ("eh", "chaining_off", 0x504622ce30b7f64c),
    ("eh", "pretranslate", 0xa10ab7b29ee24479),
    ("dpeh", "defaults", 0xd4e13b7efb18cc8d),
    ("dpeh", "rearrange", 0xa6b7da10446d1e29),
    ("dpeh", "retranslate", 0xb8d42c0977567b29),
    ("dpeh", "multiversion", 0x10cba3ccb26ebea6),
    ("dpeh", "adaptive_reversion", 0x0cff37cd70ba87d4),
    ("dpeh", "in_cache_dispatch", 0x2d4e51eeb6cb2f61),
    ("dpeh", "chaining_off", 0xaab96ce7d002024c),
    ("dpeh", "pretranslate", 0xa10ab7b29ee24479),
];

#[test]
fn lone_engine_reports_match_the_pinned_hashes() {
    let mut actual = Vec::new();
    for strategy in MdaStrategy::ALL {
        for row in ROWS {
            actual.push((strategy.slug(), row, row_hash(strategy, row)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(s, r, h)| format!("    ({s:?}, {r:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        PINNED.as_slice(),
        "lone-engine output drifted; actual table:\n{table}"
    );
}
