//! Differential test of the Alpha machine's two engines: the superblock
//! engine (slab blocks with cached successor links) against the
//! per-instruction engine (`set_superblocks(false)`), the oracle.
//!
//! Random short programs of linked blocks run on both engines in short
//! fuel slices. Between slices the same code patches land on both
//! machines, aimed mostly at block entries — exactly the words that
//! cached successor links lead to — so a stale link shows up as a
//! difference in exits, `Stats`, registers, PC or data memory. Seeds are
//! fixed and the budget is bounded, so the test is deterministic.

use bridge_alpha::encode::encode;
use bridge_alpha::insn::{BrOp, Insn, JumpKind, MemOp, OpFn, Rb};
use bridge_alpha::reg::Reg;
use bridge_alpha::{PAL_EXIT_MONITOR, PAL_HALT};
use bridge_sim::{Exit, Machine};
use bridge_workloads::rng::SplitMix64;

/// Code base: low enough that every block address fits `ldah`+`lda`.
const BASE: u64 = 0x10_0000;
/// Data base, held in `R20` and never overwritten by generated code.
const DATA: u64 = 0x2000;
const DATA_REG: Reg = Reg::R20;
/// Jump-target register, loaded right before each `jsr`.
const JUMP_REG: Reg = Reg::R21;

const PROGRAMS: u64 = 1000;
const SLICES: usize = 16;

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.next_u32() as usize % items.len()]
}

/// A register generated code may write: `R0`–`R9`, or the zero register.
fn work_reg(rng: &mut SplitMix64) -> Reg {
    if rng.next_u32().is_multiple_of(8) {
        Reg::ZERO
    } else {
        Reg::from_index(rng.next_u32() as usize % 10)
    }
}

/// One random straight-line instruction: an operate, `lda`/`ldah`, or a
/// load or store at a small (possibly misaligned) offset from `R20`.
fn body_insn(rng: &mut SplitMix64) -> Insn {
    match rng.next_u32() % 3 {
        0 => Insn::Mem {
            op: pick(rng, &[MemOp::Lda, MemOp::Ldah]),
            ra: work_reg(rng),
            rb: work_reg(rng),
            disp: rng.next_u32() as i16,
        },
        1 => Insn::Mem {
            op: pick(
                rng,
                &[
                    MemOp::Ldbu,
                    MemOp::Ldwu,
                    MemOp::Ldl,
                    MemOp::Ldq,
                    MemOp::LdqU,
                    MemOp::Stb,
                    MemOp::Stw,
                    MemOp::Stl,
                    MemOp::Stq,
                    MemOp::StqU,
                ],
            ),
            ra: work_reg(rng),
            rb: DATA_REG,
            // Mostly aligned; some accesses trap.
            disp: if rng.next_u32().is_multiple_of(4) {
                (rng.next_u32() % 256) as i16
            } else {
                (8 * (rng.next_u32() % 32)) as i16
            },
        },
        _ => Insn::Op {
            op: pick(rng, &OpFn::ALL),
            ra: work_reg(rng),
            rb: if rng.next_u32().is_multiple_of(2) {
                Rb::Reg(work_reg(rng))
            } else {
                Rb::Lit(rng.next_u32() as u8)
            },
            rc: work_reg(rng),
        },
    }
}

/// A branch at `at` to `target`.
fn branch(op: BrOp, ra: Reg, at: u64, target: u64) -> Insn {
    let disp = (target as i64 - (at as i64 + 4)) / 4;
    Insn::Br {
        op,
        ra,
        disp: disp as i32,
    }
}

/// How a generated block ends.
#[derive(Clone, Copy)]
enum End {
    Cond(BrOp, Reg, usize),
    Br(usize),
    Bsr(usize),
    Jsr(usize),
    Monitor,
    Halt,
}

struct Program {
    words: Vec<u32>,
    /// Address of every block's first word.
    entries: Vec<u64>,
    /// Words a patch must not touch: the `ldah`/`lda` pairs that load a
    /// jump target, so every `jsr` still lands on a block entry.
    protected: Vec<u64>,
}

/// A prologue that seeds `R0`–`R9` and the data base, then 2–6 blocks of
/// 1–6 random instructions, each ending in a branch to a random block, a
/// call, a jump through a register, a monitor exit or a halt. The last
/// block halts.
fn generate(rng: &mut SplitMix64) -> Program {
    let mut prologue = vec![Insn::Mem {
        op: MemOp::Lda,
        ra: DATA_REG,
        rb: Reg::ZERO,
        disp: DATA as i16,
    }];
    for r in 0..10 {
        prologue.push(Insn::Mem {
            op: MemOp::Lda,
            ra: Reg::from_index(r),
            rb: Reg::ZERO,
            disp: rng.next_u32() as i16,
        });
    }
    let n = 2 + rng.next_u32() as usize % 5;
    let mut blocks = Vec::new();
    for b in 0..n {
        let body: Vec<Insn> = (0..1 + rng.next_u32() % 6)
            .map(|_| body_insn(rng))
            .collect();
        let target = rng.next_u32() as usize % n;
        let end = if b == n - 1 {
            End::Halt
        } else {
            match rng.next_u32() % 10 {
                0..=3 => End::Cond(
                    pick(
                        rng,
                        &[
                            BrOp::Beq,
                            BrOp::Bne,
                            BrOp::Blt,
                            BrOp::Ble,
                            BrOp::Bgt,
                            BrOp::Bge,
                            BrOp::Blbc,
                            BrOp::Blbs,
                        ],
                    ),
                    work_reg(rng),
                    target,
                ),
                4 | 5 => End::Br(target),
                6 => End::Bsr(target),
                7 => End::Jsr(target),
                8 => End::Monitor,
                _ => End::Halt,
            }
        };
        blocks.push((body, end));
    }
    // Lay out: the prologue falls into block 0; a jsr costs two extra
    // words for its target load.
    let mut entries = Vec::new();
    let mut at = BASE + 4 * prologue.len() as u64;
    for (body, end) in &blocks {
        entries.push(at);
        let extra = if matches!(end, End::Jsr(_)) { 3 } else { 1 };
        at += 4 * (body.len() as u64 + extra);
    }
    let mut insns = prologue;
    let mut protected = Vec::new();
    for (body, end) in &blocks {
        insns.extend(body);
        let here = BASE + 4 * insns.len() as u64;
        match *end {
            End::Cond(op, ra, t) => insns.push(branch(op, ra, here, entries[t])),
            End::Br(t) => insns.push(branch(BrOp::Br, Reg::ZERO, here, entries[t])),
            End::Bsr(t) => insns.push(branch(BrOp::Bsr, Reg::R26, here, entries[t])),
            End::Jsr(t) => {
                let target = entries[t] as i64;
                let lo = target as i16;
                let hi = ((target - i64::from(lo)) >> 16) as i16;
                insns.push(Insn::Mem {
                    op: MemOp::Ldah,
                    ra: JUMP_REG,
                    rb: Reg::ZERO,
                    disp: hi,
                });
                insns.push(Insn::Mem {
                    op: MemOp::Lda,
                    ra: JUMP_REG,
                    rb: JUMP_REG,
                    disp: lo,
                });
                protected.extend([here, here + 4]);
                insns.push(Insn::Jmp {
                    kind: JumpKind::Jsr,
                    ra: Reg::R26,
                    rb: JUMP_REG,
                });
            }
            End::Monitor => insns.push(Insn::CallPal {
                func: PAL_EXIT_MONITOR,
            }),
            End::Halt => insns.push(Insn::CallPal { func: PAL_HALT }),
        }
    }
    Program {
        words: insns.iter().map(encode).collect(),
        entries,
        protected,
    }
}

/// The word a patch writes at `at`: a straight-line instruction, a branch
/// to a block entry, or a halt.
fn patch_word(rng: &mut SplitMix64, prog: &Program, at: u64) -> u32 {
    let insn = match rng.next_u32() % 4 {
        0 | 1 => body_insn(rng),
        2 => {
            let target = pick(rng, &prog.entries);
            branch(
                pick(rng, &[BrOp::Br, BrOp::Bne, BrOp::Beq]),
                work_reg(rng),
                at,
                target,
            )
        }
        _ => Insn::CallPal { func: PAL_HALT },
    };
    encode(&insn)
}

/// Everything a caller can observe of a machine between runs.
fn observe(m: &Machine) -> (bridge_sim::Stats, Vec<u64>, u64, Vec<u8>) {
    let regs = Reg::ALL.iter().map(|&r| m.reg(r)).collect();
    let mut data = vec![0u8; 512];
    m.mem().read_bytes(DATA, &mut data);
    (*m.stats(), regs, m.pc(), data)
}

fn machine(words: &[u32], superblocks: bool) -> Machine {
    let mut m = Machine::new(); // ES40 caches: cycles include miss penalties
    m.set_superblocks(superblocks);
    m.write_code(BASE, words);
    m.set_pc(BASE);
    m
}

#[test]
fn random_programs_agree_across_engines_under_patching() {
    let mut linked_patches = 0u64;
    for seed in 0..PROGRAMS {
        let mut rng = SplitMix64::new(0x5EED_0000 + seed);
        let prog = generate(&mut rng);
        let mut fast = machine(&prog.words, true);
        let mut oracle = machine(&prog.words, false);
        for slice in 0..SLICES {
            let fuel = 1 + u64::from(rng.next_u32() % 200);
            let exit = fast.run(fuel);
            assert_eq!(exit, oracle.run(fuel), "seed {seed} slice {slice}: exits");
            assert_eq!(
                observe(&fast),
                observe(&oracle),
                "seed {seed} slice {slice}: state after {exit:?}"
            );
            match exit {
                Exit::Halted | Exit::Fault(bridge_sim::MachineFault::IllegalInstruction { .. }) => {
                    break
                }
                Exit::Unaligned(info) => {
                    // Skip the faulting access, as a fixup would.
                    fast.set_pc(info.pc + 4);
                    oracle.set_pc(info.pc + 4);
                }
                _ => {}
            }
            // Patch the same words on both machines, mostly block entries:
            // the targets of cached successor links.
            if rng.next_u32().is_multiple_of(2) {
                let at = if !rng.next_u32().is_multiple_of(4) {
                    pick(&mut rng, &prog.entries)
                } else {
                    BASE + 4 * u64::from(rng.next_u32() % prog.words.len() as u32)
                };
                if prog.protected.contains(&at) {
                    continue;
                }
                linked_patches += u64::from(prog.entries.contains(&at));
                if rng.next_u32().is_multiple_of(2) {
                    let word = patch_word(&mut rng, &prog, at);
                    fast.patch_code_word(at, word);
                    oracle.patch_code_word(at, word);
                } else {
                    if prog.protected.contains(&(at + 4)) {
                        continue;
                    }
                    let words = [patch_word(&mut rng, &prog, at), fast.mem().read_u32(at + 4)];
                    fast.write_code(at, &words);
                    oracle.write_code(at, &words);
                }
            }
        }
    }
    assert!(linked_patches > 500, "patches must hit block entries");
}

/// Block A ends in a branch to block B, so A caches B as a successor.
/// After B is patched and B's old slab slot is reused by another block,
/// the next run of A must execute the new word at B, not whatever the
/// stale link's slot now holds.
#[test]
fn patched_successor_is_never_entered_through_a_stale_link() {
    let a = BASE;
    let b = BASE + 8;
    let c = BASE + 0x100;
    let addq = |lit| {
        encode(&Insn::Op {
            op: OpFn::Addq,
            ra: Reg::R1,
            rb: Rb::Lit(lit),
            rc: Reg::R1,
        })
    };
    let halt = encode(&Insn::CallPal { func: PAL_HALT });
    let mut engines = [true, false].map(|superblocks| {
        let mut m = machine(
            &[addq(1), encode(&branch(BrOp::Br, Reg::ZERO, a + 4, b))],
            superblocks,
        );
        m.write_code(b, &[addq(10), halt]);
        m.write_code(c, &[addq(100), halt]);
        m
    });
    for m in &mut engines {
        // A -> B: r1 = 1 + 10, and A now links to B.
        assert_eq!(m.run(100), Exit::Halted);
        assert_eq!(m.reg(Reg::R1), 11);
        // Patch B's first word, then decode C first so it can take the
        // slab slot B gave up.
        m.patch_code_word(b, addq(20));
        m.set_pc(c);
        assert_eq!(m.run(100), Exit::Halted);
        assert_eq!(m.reg(Reg::R1), 111);
        // Run A again: the link to B is stale and must not be followed.
        m.set_pc(a);
        assert_eq!(m.run(100), Exit::Halted);
        assert_eq!(m.reg(Reg::R1), 111 + 1 + 20, "the patched word at B ran");
    }
    let [fast, oracle] = &engines;
    assert_eq!(observe(fast), observe(oracle));
}
