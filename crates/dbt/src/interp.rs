//! Phase-1 interpreter: executes guest basic blocks with light MDA
//! profiling (the left-hand side of the paper's Figure 4).

use crate::profile::{Profile, SiteId};
use bridge_sim::cost::CostModel;
use bridge_sim::hashing::FxHashMap;
use bridge_sim::mem::Memory;
use bridge_x86::decode::{decode, DecodeError, Decoded};
use bridge_x86::exec::{execute, Next};
use bridge_x86::state::CpuState;
use std::fmt;

/// A decode cache for the interpreter. Guest code only changes through
/// [`Dbt::write_guest_code`], which invalidates the affected range here
/// (and the translated blocks over it), so decoded instructions are cached
/// by guest PC. Purely a simulator-side speedup: the cycle model already
/// charges the full per-instruction interpretation cost.
///
/// [`Dbt::write_guest_code`]: crate::engine::Dbt::write_guest_code
#[derive(Debug, Default)]
pub struct DecodeCache {
    map: FxHashMap<u32, Decoded>,
}

impl DecodeCache {
    /// Empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Drops every cached decode that may have read a byte in
    /// `[start, end)` (the decoder reads up to 16 bytes from its PC).
    pub fn invalidate_range(&mut self, start: u32, end: u32) {
        self.map
            .retain(|&pc, _| pc >= end || pc.wrapping_add(16) <= start);
    }

    fn get_or_decode(&mut self, mem: &Memory, pc: u32) -> Result<Decoded, InterpError> {
        if let Some(d) = self.map.get(&pc) {
            return Ok(*d);
        }
        let mut buf = [0u8; 16];
        mem.read_bytes(u64::from(pc), &mut buf);
        let d = decode(&buf, pc).map_err(|err| InterpError::Decode { pc, err })?;
        self.map.insert(pc, d);
        Ok(d)
    }
}

/// Outcome of interpreting one basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpOutcome {
    /// Guest PC the block transfers to (undefined when `halted`).
    pub next_pc: u32,
    /// Whether the block ended in `hlt`.
    pub halted: bool,
    /// Guest instructions executed.
    pub guest_insns: u64,
    /// Cycles the interpretation cost (per the cost model).
    pub cycles: u64,
}

/// Interpretation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpError {
    /// Undecodable guest bytes.
    Decode {
        /// Address of the undecodable instruction.
        pc: u32,
        /// Decoder diagnosis.
        err: DecodeError,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Decode { pc, err } => write!(f, "decode error at {pc:#x}: {err}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Interprets one basic block starting at `state.eip`, updating guest state
/// and memory, recording every memory access (with its misalignment) in
/// `profile`, and pricing the work with `cost`.
///
/// # Errors
///
/// [`InterpError::Decode`] if the guest bytes do not decode.
pub fn interp_block(
    state: &mut CpuState,
    mem: &mut Memory,
    profile: &mut Profile,
    cost: &CostModel,
) -> Result<InterpOutcome, InterpError> {
    interp_block_cached(state, mem, profile, cost, &mut DecodeCache::new())
}

/// [`interp_block`] with a caller-owned decode cache (the engine keeps one
/// for the life of a run).
///
/// # Errors
///
/// [`InterpError::Decode`] if the guest bytes do not decode.
pub fn interp_block_cached(
    state: &mut CpuState,
    mem: &mut Memory,
    profile: &mut Profile,
    cost: &CostModel,
    cache: &mut DecodeCache,
) -> Result<InterpOutcome, InterpError> {
    let mut insns = 0u64;
    let mut cycles = 0u64;
    loop {
        let pc = state.eip;
        let d = cache.get_or_decode(mem, pc)?;
        let result = execute(&d.insn, d.len, state, mem);
        insns += 1;
        cycles += cost.interp_per_guest_insn;
        profile.guest_insns += 1;
        for (slot, acc) in result.accesses.iter().enumerate() {
            cycles += cost.interp_per_mem_access;
            profile.record_access(SiteId::new(pc, slot as u8), acc.misaligned());
        }
        match result.next {
            Next::Halt => {
                return Ok(InterpOutcome {
                    next_pc: state.eip,
                    halted: true,
                    guest_insns: insns,
                    cycles,
                });
            }
            Next::Jump(t) => {
                return Ok(InterpOutcome {
                    next_pc: t,
                    halted: false,
                    guest_insns: insns,
                    cycles,
                });
            }
            Next::Fall => {
                if d.insn.ends_block() {
                    // Untaken conditional branch ends the block too.
                    return Ok(InterpOutcome {
                        next_pc: state.eip,
                        halted: false,
                        guest_insns: insns,
                        cycles,
                    });
                }
            }
        }
    }
}

/// Runs the whole program interpretively (the golden reference used by the
/// equivalence tests, the training runs for static profiling, and the
/// Table I measurement).
///
/// # Errors
///
/// [`InterpError::Decode`] on undecodable bytes. Returns `Ok(false)` if
/// `max_insns` ran out before `hlt`.
pub fn run_interp_only(
    state: &mut CpuState,
    mem: &mut Memory,
    profile: &mut Profile,
    cost: &CostModel,
    max_insns: u64,
) -> Result<bool, InterpError> {
    let mut budget = max_insns;
    let mut cache = DecodeCache::new();
    loop {
        let out = interp_block_cached(state, mem, profile, cost, &mut cache)?;
        if out.halted {
            return Ok(true);
        }
        if out.guest_insns >= budget {
            return Ok(false);
        }
        budget -= out.guest_insns;
        state.eip = out.next_pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bridge_x86::asm::Assembler;
    use bridge_x86::cond::Cond;
    use bridge_x86::insn::{AluOp, Ext, MemRef, Width};
    use bridge_x86::reg::Reg32::*;

    fn setup(build: impl FnOnce(&mut Assembler)) -> (CpuState, Memory) {
        let entry = 0x40_0000;
        let mut a = Assembler::new(entry);
        build(&mut a);
        let image = a.finish().unwrap();
        let mut mem = Memory::new();
        mem.write_bytes(u64::from(entry), &image);
        (CpuState::new(entry), mem)
    }

    #[test]
    fn block_stops_at_branch() {
        let (mut st, mut mem) = setup(|a| {
            a.mov_ri(Eax, 1);
            a.alu_ri(AluOp::Add, Eax, 1);
            let l = a.new_label();
            a.jmp(l);
            a.bind(l);
            a.hlt();
        });
        let mut p = Profile::new();
        let cost = CostModel::flat();
        let out = interp_block(&mut st, &mut mem, &mut p, &cost).unwrap();
        assert!(!out.halted);
        assert_eq!(out.guest_insns, 3);
        assert_eq!(st.reg(Eax), 2);
        st.eip = out.next_pc;
        let out2 = interp_block(&mut st, &mut mem, &mut p, &cost).unwrap();
        assert!(out2.halted);
    }

    #[test]
    fn untaken_jcc_ends_block() {
        let (mut st, mut mem) = setup(|a| {
            a.alu_ri(AluOp::Cmp, Eax, 1); // eax=0 → not equal
            let l = a.new_label();
            a.jcc(Cond::E, l);
            a.nop();
            a.bind(l);
            a.hlt();
        });
        let mut p = Profile::new();
        let out = interp_block(&mut st, &mut mem, &mut p, &CostModel::flat()).unwrap();
        assert!(!out.halted);
        assert_eq!(
            out.guest_insns, 2,
            "block ends at the jcc even when untaken"
        );
    }

    #[test]
    fn profiles_misalignment_per_site() {
        let (mut st, mut mem) = setup(|a| {
            a.mov_ri(Ebx, 0x1002);
            a.load(Width::W4, Ext::Zero, Eax, MemRef::base_disp(Ebx, 0)); // MDA
            a.load(Width::W4, Ext::Zero, Ecx, MemRef::abs(0x2000)); // aligned
            a.hlt();
        });
        let mut p = Profile::new();
        interp_block(&mut st, &mut mem, &mut p, &CostModel::flat()).unwrap();
        assert_eq!(p.mem_accesses, 2);
        assert_eq!(p.mdas, 1);
        assert_eq!(p.nmi(), 1);
        let mda_site = SiteId::new(0x40_0005, 0);
        assert!(p.saw_mda(mda_site));
    }

    #[test]
    fn cycles_follow_cost_model() {
        let (mut st, mut mem) = setup(|a| {
            a.load(Width::W4, Ext::Zero, Eax, MemRef::abs(0x2000));
            a.hlt();
        });
        let mut p = Profile::new();
        let cost = CostModel::flat();
        let out = interp_block(&mut st, &mut mem, &mut p, &cost).unwrap();
        assert_eq!(
            out.cycles,
            2 * cost.interp_per_guest_insn + cost.interp_per_mem_access
        );
    }

    #[test]
    fn run_to_halt_and_budget() {
        let (mut st, mut mem) = setup(|a| {
            a.mov_ri(Ecx, 10);
            let top = a.here_label();
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let mut p = Profile::new();
        let cost = CostModel::flat();
        let halted = run_interp_only(&mut st, &mut mem, &mut p, &cost, 1_000_000).unwrap();
        assert!(halted);
        assert_eq!(st.reg(Ecx), 0);

        let (mut st2, mut mem2) = setup(|a| {
            let top = a.here_label();
            a.jmp(top);
        });
        let halted2 = run_interp_only(&mut st2, &mut mem2, &mut p, &cost, 100).unwrap();
        assert!(!halted2);
    }

    #[test]
    fn decode_error_reported() {
        let mut mem = Memory::new();
        mem.write_bytes(0x40_0000, &[0xCC]);
        let mut st = CpuState::new(0x40_0000);
        let mut p = Profile::new();
        let err = interp_block(&mut st, &mut mem, &mut p, &CostModel::flat()).unwrap_err();
        assert!(matches!(err, InterpError::Decode { pc: 0x40_0000, .. }));
    }
}
