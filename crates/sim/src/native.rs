//! Native-x86 machine cost model, used only by the Figure 1 experiment.
//!
//! The paper's Figure 1 measures, on real x86 hardware, how much enforcing
//! data alignment with compiler flags (pathscale / icc) actually helps — and
//! finds ~1–2% mean speedup, because x86 hardware completes misaligned
//! accesses with only a small split-access penalty while the padding that
//! alignment requires grows the data working set. This module models exactly
//! that trade-off: misaligned accesses cost a little extra (and a second
//! cache access when they straddle a line), and the cache hierarchy makes
//! working-set growth visible.

use crate::cache::Cache;
use crate::hashing::FxHashMap;
use crate::mem::Memory;
use bridge_x86::decode::{decode, Decoded};
use bridge_x86::exec::{execute, Next};
use bridge_x86::state::CpuState;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

const LINE_BYTES: u64 = 64;

/// Maximum instructions per decoded trace (x86 insns are variable-length,
/// so this bounds decode waste, not bytes).
const TRACE_MAX_INSNS: usize = 32;

/// Cycle costs of the native x86 machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeCost {
    /// Base cost per instruction.
    pub insn_base: u64,
    /// Extra cycles per load (L1 hit).
    pub load_extra: u64,
    /// Extra cycles per store (L1 hit).
    pub store_extra: u64,
    /// Extra cycles for a taken branch.
    pub branch_taken_extra: u64,
    /// Extra cycles for an L1 miss that hits L2.
    pub l1_miss: u64,
    /// Extra cycles for an L2 miss.
    pub l2_miss: u64,
    /// Extra cycles for any misaligned access (hardware split).
    pub misaligned_extra: u64,
}

impl Default for NativeCost {
    fn default() -> NativeCost {
        NativeCost {
            insn_base: 1,
            load_extra: 2,
            store_extra: 1,
            branch_taken_extra: 1,
            l1_miss: 10,
            l2_miss: 100,
            // Mid-2000s x86 cores (the paper's era) paid roughly this much
            // for a split access even within a line.
            misaligned_extra: 3,
        }
    }
}

/// Statistics from a native run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Total cycles.
    pub cycles: u64,
    /// Guest instructions executed.
    pub insns: u64,
    /// Memory accesses performed.
    pub mem_accesses: u64,
    /// Misaligned accesses among them.
    pub mdas: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
}

/// Why the native machine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeExit {
    /// The program executed `hlt`.
    Halted,
    /// Fuel ran out.
    OutOfFuel,
    /// Undecodable bytes at the given address.
    DecodeError {
        /// Address of the undecodable instruction.
        eip: u32,
    },
}

impl fmt::Display for NativeExit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeExit::Halted => write!(f, "halted"),
            NativeExit::OutOfFuel => write!(f, "out of fuel"),
            NativeExit::DecodeError { eip } => write!(f, "decode error at {eip:#x}"),
        }
    }
}

/// An x86 machine executing the guest program natively (no translation),
/// with hardware-handled misaligned accesses.
///
/// Like the Alpha [`Machine`](crate::cpu::Machine) it has a block-granular
/// engine: straight-line runs decode once into a dense trace of
/// [`Decoded`] instructions keyed by entry `eip`, executed with no
/// per-instruction map probe. Native code is never patched (there is no
/// `write_code` on this machine), so traces need no invalidation — the
/// same invariant the original per-instruction decode cache relied on.
#[derive(Debug)]
pub struct NativeMachine {
    mem: Memory,
    state: CpuState,
    cost: NativeCost,
    dcache: Cache,
    l2: Cache,
    stats: NativeStats,
    /// Per-instruction engine's decode cache — the pre-trace baseline,
    /// deliberately left on the default hasher so `run_legacy` stays
    /// byte-for-byte the original engine for perf comparisons.
    decode_cache: HashMap<u32, Decoded>,
    traces: FxHashMap<u32, Arc<Vec<Decoded>>>,
    use_traces: bool,
    /// D-cache line of the most recent data access, or `u64::MAX`. Data
    /// accesses are the *only* D-cache traffic (this machine has no
    /// modelled I-cache and never patches code), so an access to this line
    /// is a guaranteed MRU hit: it changes no LRU state, touches no L2 and
    /// bumps no counter — [`NativeMachine::data_access`] can return
    /// immediately with identical accounting.
    last_data_line: u64,
}

/// Batched counts of data accesses whose cycle charge is a per-kind
/// constant (`load_extra`/`store_extra`). The trace runner accumulates
/// these in registers and posts them to [`NativeStats`] on exit.
#[derive(Default)]
struct AccessTally {
    loads: u64,
    stores: u64,
}

impl NativeMachine {
    /// New machine with default costs, executing from `entry`.
    pub fn new(entry: u32) -> NativeMachine {
        NativeMachine::with_cost(entry, NativeCost::default())
    }

    /// New machine with explicit costs.
    pub fn with_cost(entry: u32, cost: NativeCost) -> NativeMachine {
        NativeMachine {
            mem: Memory::new(),
            state: CpuState::new(entry),
            cost,
            dcache: Cache::es40_l1(),
            l2: Cache::es40_l2(),
            stats: NativeStats::default(),
            decode_cache: HashMap::new(),
            traces: FxHashMap::default(),
            use_traces: true,
            last_data_line: u64::MAX,
        }
    }

    /// Selects the execution engine: `true` = trace engine, `false` =
    /// per-instruction engine. Identical results either way.
    pub fn set_traces(&mut self, on: bool) {
        self.use_traces = on;
        if !on {
            self.traces.clear();
        }
    }

    /// Memory access for loading the image and data.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Guest CPU state.
    pub fn state(&self) -> &CpuState {
        &self.state
    }

    /// Mutable guest CPU state (e.g. to preset the stack pointer).
    pub fn state_mut(&mut self) -> &mut CpuState {
        &mut self.state
    }

    /// Run statistics.
    pub fn stats(&self) -> &NativeStats {
        &self.stats
    }

    fn data_access(&mut self, line_addr: u64) {
        // Same-line fast path; see the `last_data_line` field docs.
        if line_addr == self.last_data_line {
            return;
        }
        self.last_data_line = line_addr;
        if !self.dcache.access(line_addr) {
            self.stats.dcache_misses += 1;
            self.stats.cycles += self.cost.l1_miss;
            if !self.l2.access(line_addr) {
                self.stats.l2_misses += 1;
                self.stats.cycles += self.cost.l2_miss;
            }
        }
    }

    /// Executes one instruction; `None` to continue.
    pub fn step(&mut self) -> Option<NativeExit> {
        let eip = self.state.eip;
        let decoded = match self.decode_cache.get(&eip) {
            Some(d) => *d,
            None => {
                let mut buf = [0u8; 16];
                self.mem.read_bytes(u64::from(eip), &mut buf);
                match decode(&buf, eip) {
                    Ok(d) => {
                        self.decode_cache.insert(eip, d);
                        d
                    }
                    Err(_) => return Some(NativeExit::DecodeError { eip }),
                }
            }
        };
        self.exec_decoded(&decoded)
    }

    /// Executes one already-decoded instruction; shared by both engines.
    #[inline]
    fn exec_decoded(&mut self, decoded: &Decoded) -> Option<NativeExit> {
        self.stats.insns += 1;
        self.stats.cycles += self.cost.insn_base;
        self.exec_decoded_uncounted(decoded)
    }

    /// [`NativeMachine::exec_decoded`] without the per-instruction
    /// `insns`/`insn_base` bookkeeping — the trace runner batches those
    /// two counters and flushes them on exit, which is observation-
    /// equivalent because statistics are only read between runs.
    #[inline]
    fn exec_decoded_uncounted(&mut self, decoded: &Decoded) -> Option<NativeExit> {
        let mut tally = AccessTally::default();
        let exit = self.exec_decoded_tallied(decoded, &mut tally);
        self.flush_tally(&tally);
        exit
    }

    /// Adds a batched [`AccessTally`] to the statistics. Loads and stores
    /// each charge a fixed extra, so `n` of them can be charged as one
    /// multiply instead of `n` read-modify-writes.
    #[inline]
    fn flush_tally(&mut self, tally: &AccessTally) {
        self.stats.mem_accesses += tally.loads + tally.stores;
        self.stats.cycles +=
            tally.loads * self.cost.load_extra + tally.stores * self.cost.store_extra;
    }

    /// Executes one decoded instruction, accumulating per-access constant
    /// charges into `tally` instead of the statistics. Irregular charges
    /// (cache misses, misalignment, taken branches) still post directly.
    #[inline]
    fn exec_decoded_tallied(
        &mut self,
        decoded: &Decoded,
        tally: &mut AccessTally,
    ) -> Option<NativeExit> {
        let result = execute(&decoded.insn, decoded.len, &mut self.state, &mut self.mem);

        for acc in result.accesses.iter() {
            if acc.store {
                tally.stores += 1;
            } else {
                tally.loads += 1;
            }
            let first = u64::from(acc.addr);
            let last = first + u64::from(acc.width.bytes()) - 1;
            self.data_access(first & !(LINE_BYTES - 1));
            if acc.misaligned() {
                self.stats.mdas += 1;
                self.stats.cycles += self.cost.misaligned_extra;
                if last & !(LINE_BYTES - 1) != first & !(LINE_BYTES - 1) {
                    // Line-crossing split: second cache access.
                    self.data_access(last & !(LINE_BYTES - 1));
                }
            }
        }

        match result.next {
            Next::Halt => Some(NativeExit::Halted),
            Next::Jump(_) => {
                self.stats.cycles += self.cost.branch_taken_extra;
                None
            }
            Next::Fall => None,
        }
    }

    /// Runs until halt, decode error or `fuel` instructions, using the
    /// engine selected by [`NativeMachine::set_traces`].
    pub fn run(&mut self, fuel: u64) -> NativeExit {
        if self.use_traces {
            self.run_traces(fuel)
        } else {
            self.run_legacy(fuel)
        }
    }

    /// Runs on the per-instruction engine (the pre-trace baseline).
    pub fn run_legacy(&mut self, mut fuel: u64) -> NativeExit {
        loop {
            if fuel == 0 {
                return NativeExit::OutOfFuel;
            }
            fuel -= 1;
            if let Some(exit) = self.step() {
                return exit;
            }
        }
    }

    fn run_traces(&mut self, mut fuel: u64) -> NativeExit {
        // Per-instruction `insns`/`insn_base` accounting and the per-access
        // load/store constants are accumulated here and flushed at every
        // exit path — identical totals, several fewer memory
        // read-modify-writes per instruction.
        let mut executed: u64 = 0;
        let mut tally = AccessTally::default();
        macro_rules! exit_with {
            ($e:expr) => {{
                self.stats.insns += executed;
                self.stats.cycles += executed * self.cost.insn_base;
                self.flush_tally(&tally);
                return $e;
            }};
        }
        loop {
            let entry = self.state.eip;
            let trace = match self.traces.get(&entry) {
                Some(t) => Arc::clone(t),
                None => match self.decode_trace(entry) {
                    Some(t) => t,
                    None => {
                        // Undecodable bytes at the entry itself.
                        if fuel == 0 {
                            exit_with!(NativeExit::OutOfFuel);
                        }
                        exit_with!(NativeExit::DecodeError { eip: entry });
                    }
                },
            };
            // Re-enter the same trace without a map probe while control
            // keeps returning to its entry — the common case for tight
            // loops. Native code is never patched, so the cached `Arc`
            // cannot go stale.
            loop {
                for d in trace.iter() {
                    if fuel == 0 {
                        exit_with!(NativeExit::OutOfFuel);
                    }
                    fuel -= 1;
                    executed += 1;
                    let fall_through = self.state.eip.wrapping_add(d.len);
                    if let Some(exit) = self.exec_decoded_tallied(d, &mut tally) {
                        exit_with!(exit);
                    }
                    if self.state.eip != fall_through {
                        // Control transfer (taken branch / jump / call /
                        // ret): stop executing this trace here.
                        break;
                    }
                }
                if self.state.eip != entry {
                    break;
                }
            }
        }
    }

    /// Decodes the straight-line instruction run starting at `entry` into a
    /// cached trace. Returns `None` (caching nothing) if the entry bytes do
    /// not decode; a decode failure *after* at least one instruction ends
    /// the trace there, so executing the prefix falls through to the bad
    /// bytes and reports the error with exact accounting.
    fn decode_trace(&mut self, entry: u32) -> Option<Arc<Vec<Decoded>>> {
        let mut insns = Vec::new();
        let mut eip = entry;
        loop {
            let mut buf = [0u8; 16];
            self.mem.read_bytes(u64::from(eip), &mut buf);
            let d = match decode(&buf, eip) {
                Ok(d) => d,
                Err(_) => break,
            };
            eip = eip.wrapping_add(d.len);
            let ends = d.insn.ends_block();
            insns.push(d);
            if ends || insns.len() == TRACE_MAX_INSNS {
                break;
            }
        }
        if insns.is_empty() {
            return None;
        }
        let trace = Arc::new(insns);
        self.traces.insert(entry, Arc::clone(&trace));
        Some(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bridge_x86::asm::Assembler;
    use bridge_x86::insn::{AluOp, Ext, MemRef, Width};
    use bridge_x86::reg::Reg32::*;

    fn load_and_run(build: impl FnOnce(&mut Assembler), fuel: u64) -> (NativeMachine, NativeExit) {
        let entry = 0x40_0000;
        let mut a = Assembler::new(entry);
        build(&mut a);
        let image = a.finish().expect("assembles");
        let mut m = NativeMachine::new(entry);
        m.mem_mut().write_bytes(u64::from(entry), &image);
        let exit = m.run(fuel);
        (m, exit)
    }

    #[test]
    fn runs_simple_program() {
        let (m, exit) = load_and_run(
            |a| {
                a.mov_ri(Eax, 2);
                a.alu_ri(AluOp::Add, Eax, 40);
                a.hlt();
            },
            100,
        );
        assert_eq!(exit, NativeExit::Halted);
        assert_eq!(m.state().reg(Eax), 42);
        assert_eq!(m.stats().insns, 3);
    }

    #[test]
    fn counts_mdas_with_split_penalty() {
        let (m, exit) = load_and_run(
            |a| {
                a.mov_ri(Ebx, 0x1_0000);
                // Aligned load.
                a.load(Width::W4, Ext::Zero, Eax, MemRef::base_disp(Ebx, 0));
                // Misaligned, within one 64-byte line.
                a.load(Width::W4, Ext::Zero, Eax, MemRef::base_disp(Ebx, 2));
                // Misaligned, crossing a line boundary (offset 62..66).
                a.load(Width::W4, Ext::Zero, Eax, MemRef::base_disp(Ebx, 62));
                a.hlt();
            },
            100,
        );
        assert_eq!(exit, NativeExit::Halted);
        assert_eq!(m.stats().mem_accesses, 3);
        assert_eq!(m.stats().mdas, 2);
        // Two lines were touched; the line-crossing access touched line 2
        // as well. Compulsory misses: line at 0x10000 and line at 0x10040.
        assert_eq!(m.stats().dcache_misses, 2);
    }

    #[test]
    fn misaligned_costs_more_than_aligned() {
        let run = |offset: i32| {
            let (m, _) = load_and_run(
                |a| {
                    a.mov_ri(Ebx, 0x1_0000);
                    a.mov_ri(Ecx, 1000);
                    let top = a.here_label();
                    a.load(Width::W4, Ext::Zero, Eax, MemRef::base_disp(Ebx, offset));
                    a.alu_ri(AluOp::Sub, Ecx, 1);
                    a.jcc(bridge_x86::cond::Cond::Ne, top);
                    a.hlt();
                },
                100_000,
            );
            m.stats().cycles
        };
        let aligned = run(0);
        let misaligned = run(2);
        assert!(misaligned > aligned);
        // But only mildly so — the point of Figure 1 (every access in this
        // loop is misaligned, so the upper bound is generous).
        assert!((misaligned - aligned) as f64 / aligned as f64 <= 0.80);
    }

    /// Trace and per-instruction engines must agree on state and cycles.
    #[test]
    fn trace_engine_matches_legacy() {
        let build = |a: &mut Assembler| {
            a.mov_ri(Ebx, 0x1_0000);
            a.mov_ri(Ecx, 500);
            let top = a.here_label();
            a.load(Width::W4, Ext::Zero, Eax, MemRef::base_disp(Ebx, 2)); // MDA
            a.store(Width::W4, Eax, MemRef::base_disp(Ebx, 62)); // line-split MDA
            a.alu_ri(AluOp::Add, Ebx, 4);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(bridge_x86::cond::Cond::Ne, top);
            a.hlt();
        };
        let run = |traces: bool| {
            let entry = 0x40_0000;
            let mut a = Assembler::new(entry);
            build(&mut a);
            let image = a.finish().expect("assembles");
            let mut m = NativeMachine::new(entry);
            m.set_traces(traces);
            m.mem_mut().write_bytes(u64::from(entry), &image);
            let exit = m.run(1_000_000);
            assert_eq!(exit, NativeExit::Halted);
            (*m.stats(), m.state().reg(Eax), m.state().eip)
        };
        let (fast, fast_eax, fast_eip) = run(true);
        let (slow, slow_eax, slow_eip) = run(false);
        assert_eq!(fast_eax, slow_eax);
        assert_eq!(fast_eip, slow_eip);
        assert_eq!(fast, slow, "stats must be identical across engines");
        assert!(fast.mdas > 0, "the loop exercises misaligned accesses");
    }

    #[test]
    fn decode_error_surfaces() {
        let entry = 0x40_0000;
        let mut m = NativeMachine::new(entry);
        m.mem_mut().write_bytes(u64::from(entry), &[0xCC]);
        assert_eq!(m.run(10), NativeExit::DecodeError { eip: entry });
    }

    #[test]
    fn fuel_runs_out() {
        let (_, exit) = load_and_run(
            |a| {
                let top = a.here_label();
                a.jmp(top);
            },
            50,
        );
        assert_eq!(exit, NativeExit::OutOfFuel);
    }
}
