//! The host CPU: fetches, decodes and executes encoded Alpha words from
//! simulated memory, with alignment enforcement and cycle accounting.
//!
//! # Execution engines
//!
//! The machine has two functionally identical engines:
//!
//! * the **superblock engine** (default) decodes straight-line runs of
//!   instruction words into superblocks held in a slab, executes each
//!   block's instructions by index with the executor inlined into the
//!   loop, and moves from block to block through cached successor links,
//!   so a block exit costs no map probe once the link is cached, and
//! * the **per-instruction engine** ([`Machine::run_legacy`], or
//!   [`Machine::step`]) decodes one word at a time through a
//!   decoded-instruction map — kept for single-stepping embedders and as
//!   the differential oracle for the block engine.
//!
//! Both engines charge *exactly* the same cycles, cache accesses and
//! counters per architectural instruction: the superblock cache is a
//! decode-amortisation, not a timing change. Code patching through
//! [`Machine::write_code`] / [`Machine::patch_code_word`] invalidates every
//! superblock overlapping the patched word, so — exactly as with the
//! per-instruction engine — a patch takes effect on the very next fetch of
//! the patched address. This is the property the exception-handling MDA
//! mechanisms rely on (DESIGN.md §"Execution engine").
//!
//! # Successor links and generations
//!
//! Each superblock remembers its two most recent exits as links
//! `(next pc, slab slot, generation)`. Invalidating a block frees its slot
//! and bumps the slot's generation, so a link to the old block no longer
//! matches and the runner falls back to the entry-PC map; a freed slot can
//! be reused safely because every older link carries an older generation.

use crate::cache::Cache;
use crate::cost::CostModel;
use crate::hashing::FxHashMap;
use crate::mem::Memory;
use crate::stats::Stats;
use crate::trap::{Exit, MachineFault, UnalignedInfo};
use bridge_alpha::insn::{Insn, MemOp, Rb};
use bridge_alpha::reg::Reg;
use bridge_alpha::{decode, op, PAL_EXIT_MONITOR, PAL_HALT, PAL_REQUEST_MONITOR};
use std::collections::HashMap;

/// Maximum instructions per superblock. Bounds re-decode waste after a
/// patch and keeps a block within at most two 4 KB pages.
const SB_MAX_INSNS: usize = 64;

/// Page granularity of the superblock invalidation index. Independent of
/// [`Memory`]'s internal page size — it is just a partition of the address
/// space for finding blocks that overlap a patched word.
const SB_PAGE_SHIFT: u32 = 12;

/// A cached successor: control left the owning block for `pc`, which is
/// the entry of the block in slab slot `slot`. Valid only while that
/// slot's generation still equals `generation`.
#[derive(Debug, Clone, Copy)]
struct Link {
    pc: u64,
    slot: u32,
    generation: u64,
}

impl Link {
    /// An empty link. No block is entered at `u64::MAX` (entries are
    /// 4-aligned), so it never matches a real PC.
    const NONE: Link = Link {
        pc: u64::MAX,
        slot: 0,
        generation: 0,
    };
}

/// A decoded straight-line run of instructions starting at [`Superblock::entry`].
///
/// Ends at (and includes) the first control-flow instruction, or earlier at
/// [`SB_MAX_INSNS`] or just before an undecodable word. The instructions
/// are immutable once built; only the successor links change.
#[derive(Debug, Clone)]
struct Superblock {
    entry: u64,
    insns: Box<[Insn]>,
    /// The two most recently taken exits, most recent first. A
    /// conditional branch has two successors, so both stay cached.
    succ: [Link; 2],
    /// Bumped each time this slot is freed, so every link that named the
    /// slot's previous occupant goes stale at once. 64 bits, so it never
    /// wraps back to a value an old link still carries.
    generation: u64,
}

impl Superblock {
    /// One past the address of the last instruction word.
    #[inline]
    fn end(&self) -> u64 {
        self.entry + 4 * self.insns.len() as u64
    }

    /// Empties a freed slot: drops the instructions and links and bumps
    /// the generation, which stales every link that names the slot.
    fn retire(&mut self) {
        self.entry = u64::MAX;
        self.insns = Box::default();
        self.succ = [Link::NONE; 2];
        self.generation += 1;
    }
}

/// Superblock cache: a slab of blocks, a map from entry PC to slab slot,
/// and the page-granular index used to invalidate precisely on code
/// patches.
#[derive(Debug, Clone, Default)]
struct SbCache {
    slab: Vec<Superblock>,
    /// Entry PC → slab slot of the live block entered there.
    blocks: FxHashMap<u64, u32>,
    /// Freed slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Page index → entry PCs of blocks overlapping that page. Entries may
    /// be stale (block already removed); they are dropped lazily on the
    /// next scan of the page.
    by_page: FxHashMap<u64, Vec<u64>>,
}

impl SbCache {
    fn clear(&mut self) {
        // Emptying the slab drops every link with the blocks that held
        // them; no link survives to name a reused slot.
        self.slab.clear();
        self.blocks.clear();
        self.free.clear();
        self.by_page.clear();
    }

    /// The slot a cached successor of `slot` names for `pc`, if that
    /// link is still current.
    #[inline]
    fn successor(&self, slot: usize, pc: u64) -> Option<usize> {
        let link = self.slab[slot].succ.iter().find(|l| l.pc == pc)?;
        let target = link.slot as usize;
        (self.slab[target].generation == link.generation).then_some(target)
    }

    /// Caches `to` as the most recent successor of `from`.
    fn link(&mut self, from: usize, to: usize) {
        let link = Link {
            pc: self.slab[to].entry,
            slot: to as u32,
            generation: self.slab[to].generation,
        };
        let succ = &mut self.slab[from].succ;
        succ[1] = succ[0];
        succ[0] = link;
    }

    /// Stores a new block in a free slot (or a new one) and indexes it.
    fn insert(&mut self, entry: u64, insns: Box<[Insn]>) -> usize {
        let slot = match self.free.pop() {
            // A retired slot keeps its bumped generation and has no links.
            Some(slot) => {
                let s = &mut self.slab[slot as usize];
                s.entry = entry;
                s.insns = insns;
                slot as usize
            }
            None => {
                self.slab.push(Superblock {
                    entry,
                    insns,
                    succ: [Link::NONE; 2],
                    generation: 0,
                });
                self.slab.len() - 1
            }
        };
        let end = self.slab[slot].end();
        for page in (entry >> SB_PAGE_SHIFT)..=((end - 1) >> SB_PAGE_SHIFT) {
            self.by_page.entry(page).or_default().push(entry);
        }
        self.blocks.insert(entry, slot as u32);
        slot
    }
}

/// The simulated Alpha machine.
///
/// Executes real encoded instruction words out of its [`Memory`], so the
/// DBT's code patching takes effect on the very next fetch of the patched
/// address. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Machine {
    mem: Memory,
    regs: [u64; 32],
    pc: u64,
    cost: CostModel,
    icache: Option<Cache>,
    dcache: Option<Cache>,
    l2: Option<Cache>,
    stats: Stats,
    /// Decoded-instruction cache for the per-instruction engine. Sound
    /// because *all* code writes go through [`Machine::write_code`], which
    /// invalidates it; guest stores cannot reach the code-cache region (it
    /// lies above the 32-bit guest address space). Purely a simulator
    /// speedup — no cycle effect. Deliberately a default-hasher `HashMap`:
    /// this is the pre-superblock engine preserved byte-for-byte as the
    /// perf harness's baseline.
    decoded: HashMap<u64, Insn>,
    /// Superblock cache for the block engine; same soundness argument,
    /// with precise overlap invalidation in [`Machine::write_code`].
    sb: SbCache,
    use_superblocks: bool,
    /// D-cache line of the most recent data access, or `u64::MAX`. Data
    /// accesses through [`Machine::data_cost`] are the only D-cache
    /// traffic, so an access to this line is a guaranteed MRU hit: no LRU
    /// state change and no L2 traffic, letting `data_cost` charge the hit
    /// without walking the cache model. Reset when the D-cache is flushed.
    last_data_line: u64,
}

impl Machine {
    /// Machine with the ES40 cost model and cache geometry.
    pub fn new() -> Machine {
        Machine::with_cost(CostModel::es40())
    }

    /// Machine with a custom cost model and the ES40 cache geometry.
    pub fn with_cost(cost: CostModel) -> Machine {
        Machine {
            mem: Memory::new(),
            regs: [0; 32],
            pc: 0,
            cost,
            icache: Some(Cache::es40_l1()),
            dcache: Some(Cache::es40_l1()),
            l2: Some(Cache::es40_l2()),
            stats: Stats::new(),
            decoded: HashMap::new(),
            sb: SbCache::default(),
            use_superblocks: true,
            last_data_line: u64::MAX,
        }
    }

    /// Machine without cache modelling (cycle counts become purely
    /// instruction-proportional; useful for deterministic tests).
    pub fn without_caches(cost: CostModel) -> Machine {
        Machine {
            icache: None,
            dcache: None,
            l2: None,
            ..Machine::with_cost(cost)
        }
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Shared access to memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory (guest data, image loading).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Reads an integer register (`R31` reads as zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an integer register (`R31` writes are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not 4-aligned.
    pub fn set_pc(&mut self, pc: u64) {
        assert_eq!(pc & 3, 0, "pc must be 4-aligned");
        self.pc = pc;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Selects the execution engine for subsequent [`Machine::run`] calls:
    /// `true` = superblock engine, `false` = per-instruction engine. Both
    /// produce identical architectural state and cycle counts.
    pub fn set_superblocks(&mut self, on: bool) {
        self.use_superblocks = on;
        if !on {
            self.sb.clear();
        }
    }

    /// Number of superblocks currently cached (diagnostics).
    pub fn superblock_count(&self) -> usize {
        self.sb.blocks.len()
    }

    /// Charges extra cycles (used by the DBT engine for its runtime
    /// services: interpretation, translation, handler work).
    pub fn charge(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Adds an externally raised misalignment trap to the counters (the OS
    /// fixup path, where the engine emulates the access in software rather
    /// than resuming through patched code).
    pub fn count_external_trap(&mut self) {
        self.stats.unaligned_traps += 1;
    }

    /// Writes instruction words at `addr` (4-aligned) and invalidates the
    /// corresponding I-cache lines, as the DBT's code-cache writes must.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-aligned.
    pub fn write_code(&mut self, addr: u64, words: &[u32]) {
        assert_eq!(addr & 3, 0, "code must be 4-aligned");
        for (i, &w) in words.iter().enumerate() {
            let a = addr + 4 * i as u64;
            // Invalidate *before* the write lands: once this returns, no
            // engine may serve a pre-patch decode of `a`.
            self.invalidate_superblocks_at(a);
            self.decoded.remove(&a);
            self.mem.write_u32_aligned(a, w);
            if let Some(ic) = &mut self.icache {
                ic.invalidate(a);
            }
        }
    }

    /// Drops every cached superblock whose instruction range covers `addr`.
    ///
    /// This is the block engine's correctness contract with code patching:
    /// the EH mechanisms overwrite live translated code and the next fetch
    /// of the patched address must see the new word.
    fn invalidate_superblocks_at(&mut self, addr: u64) {
        let SbCache {
            slab,
            blocks,
            free,
            by_page,
        } = &mut self.sb;
        if let Some(entries) = by_page.get_mut(&(addr >> SB_PAGE_SHIFT)) {
            entries.retain(|&entry| match blocks.get(&entry) {
                Some(&slot) => {
                    let b = &mut slab[slot as usize];
                    if addr >= b.entry && addr < b.end() {
                        blocks.remove(&entry);
                        b.retire();
                        free.push(slot);
                        // The entry may linger in the *other* page's list
                        // when the block straddled a boundary; that copy is
                        // dropped lazily on that page's next scan.
                        false
                    } else {
                        true
                    }
                }
                None => false, // stale: block removed via another page
            });
        }
    }

    /// Overwrites a single instruction word (the exception handler's patch
    /// primitive) and invalidates its I-cache line.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-aligned.
    pub fn patch_code_word(&mut self, addr: u64, word: u32) {
        self.write_code(addr, &[word]);
    }

    /// Flushes all cache state (used between benchmark runs).
    pub fn flush_caches(&mut self) {
        for c in [&mut self.icache, &mut self.dcache, &mut self.l2]
            .into_iter()
            .flatten()
        {
            c.flush();
        }
        self.last_data_line = u64::MAX;
    }

    fn fetch_cost(&mut self, pc: u64) {
        self.stats.cycles += self.cost.insn_base;
        if self.icache.is_some() {
            self.stats.icache_accesses += 1;
        }
        self.fetch_walk(pc);
    }

    /// The I-cache walk of [`Machine::fetch_cost`] *without* the
    /// per-instruction `insn_base`/`icache_accesses` charges — those are
    /// batched by the superblock runner and flushed on exit.
    #[inline]
    fn fetch_walk(&mut self, pc: u64) {
        if let Some(ic) = &mut self.icache {
            if !ic.access(pc) {
                self.stats.icache_misses += 1;
                self.stats.cycles += self.cost.l1_miss;
                if let Some(l2) = &mut self.l2 {
                    self.stats.l2_accesses += 1;
                    if !l2.access(pc) {
                        self.stats.l2_misses += 1;
                        self.stats.cycles += self.cost.l2_miss;
                    }
                }
            }
        }
    }

    fn data_cost(&mut self, addr: u64, is_store: bool) {
        self.stats.cycles += if is_store {
            self.cost.store_extra
        } else {
            self.cost.load_extra
        };
        if let Some(dc) = &mut self.dcache {
            self.stats.dcache_accesses += 1;
            // Same-line fast path; see the `last_data_line` field docs.
            let line = addr >> dc.line_shift();
            if line == self.last_data_line {
                return;
            }
            self.last_data_line = line;
            if !dc.access(addr) {
                self.stats.dcache_misses += 1;
                self.stats.cycles += self.cost.l1_miss;
                if let Some(l2) = &mut self.l2 {
                    self.stats.l2_accesses += 1;
                    if !l2.access(addr) {
                        self.stats.l2_misses += 1;
                        self.stats.cycles += self.cost.l2_miss;
                    }
                }
            }
        }
    }

    /// Executes one instruction through the per-instruction engine.
    /// Returns `None` to continue, or the exit / trap that stopped the
    /// machine. On an [`Exit::Unaligned`] the PC still addresses the
    /// faulting instruction.
    pub fn step(&mut self) -> Option<Exit> {
        let pc = self.pc;
        self.fetch_cost(pc);
        self.stats.insns += 1;
        let insn = match self.decoded.get(&pc) {
            Some(i) => *i,
            None => {
                let word = self.mem.read_u32_aligned(pc);
                match decode(word) {
                    Ok(i) => {
                        self.decoded.insert(pc, i);
                        i
                    }
                    Err(_) => {
                        return Some(Exit::Fault(MachineFault::IllegalInstruction { pc, word }));
                    }
                }
            }
        };
        self.exec_insn(pc, insn)
    }

    /// Executes one already-decoded instruction at `pc`. Shared by both
    /// engines; charges data-side costs and updates the PC exactly as the
    /// original per-instruction interpreter did. Inlined into both loops:
    /// a call per instruction (and the large `Option<Exit>` return) would
    /// cost about as much as a short instruction itself.
    #[inline(always)]
    fn exec_insn(&mut self, pc: u64, insn: Insn) -> Option<Exit> {
        match insn {
            Insn::Mem { op, ra, rb, disp } => {
                let ea = self.reg(rb).wrapping_add(disp as i64 as u64);
                match op {
                    MemOp::Lda => self.set_reg(ra, ea),
                    MemOp::Ldah => {
                        let v = self.reg(rb).wrapping_add(((disp as i64) << 16) as u64);
                        self.set_reg(ra, v);
                    }
                    _ => {
                        let align = op.required_alignment();
                        if align > 1 && ea & u64::from(align - 1) != 0 {
                            self.stats.unaligned_traps += 1;
                            self.stats.cycles += self.cost.unaligned_trap;
                            return Some(Exit::Unaligned(UnalignedInfo {
                                pc,
                                addr: ea,
                                size: op.size(),
                                is_store: op.is_store(),
                                // The handler reads the faulting word from
                                // the exception context.
                                insn_word: self.mem.read_u32(pc),
                            }));
                        }
                        let access_addr = match op {
                            MemOp::LdqU | MemOp::StqU => ea & !7,
                            _ => ea,
                        };
                        self.data_cost(access_addr, op.is_store());
                        // Width-specialised accesses: after the alignment
                        // check (or the ldq_u/stq_u mask) 4- and 8-byte
                        // accesses are naturally aligned, so the aligned
                        // page-cached fast paths apply.
                        if op.is_store() {
                            self.stats.stores += 1;
                            let v = self.reg(ra);
                            match op.size() {
                                8 => self.mem.write_u64_aligned(access_addr, v),
                                4 => self.mem.write_u32_aligned(access_addr, v as u32),
                                size => self.mem.write_int(access_addr, size, v),
                            }
                        } else {
                            self.stats.loads += 1;
                            let raw = match op.size() {
                                8 => self.mem.load_u64_aligned(access_addr),
                                4 => u64::from(self.mem.load_u32_aligned(access_addr)),
                                size => self.mem.load_int(access_addr, size),
                            };
                            let v = match op {
                                MemOp::Ldl => raw as u32 as i32 as i64 as u64,
                                _ => raw,
                            };
                            self.set_reg(ra, v);
                        }
                    }
                }
                self.pc = pc.wrapping_add(4);
            }
            Insn::Br { op, ra, disp } => {
                let link = pc.wrapping_add(4);
                let taken = op.taken(self.reg(ra));
                if op.is_unconditional() {
                    self.set_reg(ra, link);
                }
                if taken {
                    self.stats.taken_branches += 1;
                    self.stats.cycles += self.cost.branch_taken_extra;
                    self.pc = bridge_alpha::builder::branch_target(pc, disp);
                } else {
                    self.pc = link;
                }
            }
            Insn::Jmp { ra, rb, .. } => {
                let link = pc.wrapping_add(4);
                let target = self.reg(rb) & !3;
                self.set_reg(ra, link);
                self.stats.taken_branches += 1;
                self.stats.cycles += self.cost.branch_taken_extra;
                self.pc = target;
            }
            Insn::Op { op, ra, rb, rc } => {
                let av = self.reg(ra);
                let bv = match rb {
                    Rb::Reg(r) => self.reg(r),
                    Rb::Lit(l) => u64::from(l),
                };
                if op.is_cmov() {
                    if op.cmov_taken(av) {
                        self.set_reg(rc, bv);
                    }
                } else {
                    self.set_reg(rc, op::eval(op, av, bv));
                }
                self.pc = pc.wrapping_add(4);
            }
            Insn::CallPal { func } => {
                self.pc = pc.wrapping_add(4);
                return match func {
                    PAL_HALT => Some(Exit::Halted),
                    PAL_EXIT_MONITOR => Some(Exit::Monitor),
                    PAL_REQUEST_MONITOR => Some(Exit::Request),
                    _ => Some(Exit::Fault(MachineFault::UnknownPal { pc, func })),
                };
            }
        }
        None
    }

    /// Runs until an exit, a trap, or `fuel` instructions have executed,
    /// using the engine selected by [`Machine::set_superblocks`].
    pub fn run(&mut self, fuel: u64) -> Exit {
        if self.use_superblocks {
            self.run_superblocks(fuel)
        } else {
            self.run_legacy(fuel)
        }
    }

    /// Runs on the per-instruction engine regardless of the engine
    /// selection (the pre-superblock baseline; also what the perf harness
    /// measures against).
    pub fn run_legacy(&mut self, mut fuel: u64) -> Exit {
        loop {
            if fuel == 0 {
                return Exit::Fault(MachineFault::OutOfFuel);
            }
            fuel -= 1;
            if let Some(exit) = self.step() {
                return exit;
            }
        }
    }

    fn run_superblocks(&mut self, mut fuel: u64) -> Exit {
        // Same-line fetch fast path. Within this call nothing but our own
        // fetches touches the I-cache (data costs go to the D-cache, and
        // code patches cannot happen mid-run), so a fetch from the line of
        // the previous *charged* fetch is a guaranteed MRU hit: charging it
        // moves MRU→MRU (no LRU state change) and a hit never touches the
        // shared L2. We can therefore skip the cache-model walk entirely —
        // byte-identical accounting to [`Machine::fetch_cost`], at a
        // fraction of the cost.
        //
        // Without an I-cache `fetch_walk` charges nothing, so any shift
        // will do; 63 makes every code address one "line".
        let line_shift = self.icache.as_ref().map_or(63, Cache::line_shift);
        let mut last_line = u64::MAX; // conservatively cold at entry

        // Per-instruction `insns`/`insn_base`/`icache_accesses` accounting
        // is accumulated here and flushed at every exit path — identical
        // totals, three fewer memory read-modify-writes per instruction.
        let mut executed: u64 = 0;
        macro_rules! exit_with {
            ($e:expr) => {{
                self.stats.insns += executed;
                self.stats.cycles += executed * self.cost.insn_base;
                if self.icache.is_some() {
                    self.stats.icache_accesses += executed;
                }
                return $e;
            }};
        }
        // The block for `self.pc`: from the map, or freshly decoded. An
        // undecodable word at the entry itself is charged as a fetch,
        // exactly as the per-instruction engine does, before the fault.
        macro_rules! find_block {
            () => {{
                let entry = self.pc;
                match self.sb.blocks.get(&entry) {
                    Some(&slot) => slot as usize,
                    None => match self.decode_superblock(entry) {
                        Some(slot) => slot,
                        None => {
                            if fuel == 0 {
                                exit_with!(Exit::Fault(MachineFault::OutOfFuel));
                            }
                            executed += 1;
                            self.fetch_walk(entry);
                            let word = self.mem.read_u32_aligned(entry);
                            exit_with!(Exit::Fault(MachineFault::IllegalInstruction {
                                pc: entry,
                                word
                            }));
                        }
                    },
                }
            }};
        }
        let mut cur = find_block!();
        loop {
            // Only the final instruction of a block can transfer control,
            // so `self.pc` walks `entry, entry+4, …` while the block runs
            // and the loop needs no per-instruction dispatch. Fuel is
            // charged per block: run at most `fuel` instructions of it,
            // then stop exactly where the fuel ran out.
            let len = self.sb.slab[cur].insns.len();
            let n = len.min(usize::try_from(fuel).unwrap_or(usize::MAX));
            for i in 0..n {
                executed += 1;
                let pc = self.pc;
                if pc >> line_shift != last_line {
                    last_line = pc >> line_shift;
                    self.fetch_walk(pc);
                }
                let insn = self.sb.slab[cur].insns[i];
                if let Some(exit) = self.exec_insn(pc, insn) {
                    exit_with!(exit);
                }
            }
            fuel -= n as u64;
            if n < len {
                exit_with!(Exit::Fault(MachineFault::OutOfFuel));
            }
            // Follow a cached successor link when it is still current;
            // otherwise find the next block and cache it as a successor.
            // Code patches cannot happen mid-run, so no link goes stale
            // inside this loop.
            cur = match self.sb.successor(cur, self.pc) {
                Some(next) => next,
                None => {
                    let next = find_block!();
                    self.sb.link(cur, next);
                    next
                }
            };
        }
    }

    /// Decodes the straight-line run starting at `entry` into a cached
    /// superblock and returns its slab slot. Returns `None` (and caches
    /// nothing) if the entry word itself does not decode.
    fn decode_superblock(&mut self, entry: u64) -> Option<usize> {
        let mut insns = Vec::new();
        let mut pc = entry;
        loop {
            let word = self.mem.read_u32_aligned(pc);
            let insn = match decode(word) {
                Ok(i) => i,
                // Stop *before* an undecodable word; executing the prefix
                // falls through to it and faults with exact accounting.
                Err(_) => break,
            };
            insns.push(insn);
            let ends_block = matches!(
                insn,
                Insn::Br { .. } | Insn::Jmp { .. } | Insn::CallPal { .. }
            );
            if ends_block || insns.len() == SB_MAX_INSNS {
                break;
            }
            pc += 4;
        }
        if insns.is_empty() {
            return None;
        }
        Some(self.sb.insert(entry, insns.into_boxed_slice()))
    }
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bridge_alpha::builder::CodeBuilder;
    use bridge_alpha::insn::{BrOp, JumpKind, OpFn};

    const BASE: u64 = 0x8000_0000;

    fn run_fragment(build: impl FnOnce(&mut CodeBuilder)) -> (Machine, Exit) {
        let mut b = CodeBuilder::new(BASE);
        build(&mut b);
        let words = b.finish().expect("fragment builds");
        let mut m = Machine::without_caches(CostModel::flat());
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        let exit = m.run(100_000);
        (m, exit)
    }

    #[test]
    fn arithmetic_loop() {
        // r1 = 10; r2 = 0; while (r1 != 0) { r2 += r1; r1 -= 1 } → r2 = 55
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 10);
            b.load_imm32(Reg::R2, 0);
            let top = b.new_label();
            b.bind(top);
            b.op(OpFn::Addq, Reg::R2, Reg::R1, Reg::R2);
            b.op_lit(OpFn::Subq, Reg::R1, 1, Reg::R1);
            b.br_label(BrOp::Bne, Reg::R1, top);
            b.call_pal(PAL_HALT);
        });
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(Reg::R2), 55);
    }

    #[test]
    fn aligned_memory_roundtrip() {
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 0x1000);
            b.load_imm32(Reg::R2, -123);
            b.mem(MemOp::Stl, Reg::R2, 0, Reg::R1);
            b.mem(MemOp::Ldl, Reg::R3, 0, Reg::R1);
            b.mem(MemOp::Ldq, Reg::R4, 0x40, Reg::R1); // untouched → 0
            b.call_pal(PAL_HALT);
        });
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(Reg::R3), (-123i64) as u64); // ldl sign-extends
        assert_eq!(m.reg(Reg::R4), 0);
    }

    #[test]
    fn misaligned_ldl_traps() {
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 0x1002);
            b.mem(MemOp::Ldl, Reg::R2, 0, Reg::R1);
            b.call_pal(PAL_HALT);
        });
        let info = exit.unaligned().expect("should trap");
        assert_eq!(info.addr, 0x1002);
        assert_eq!(info.size, 4);
        assert!(!info.is_store);
        // PC still points at the faulting ldl.
        assert_eq!(m.pc(), info.pc);
        assert_eq!(m.stats().unaligned_traps, 1);
        assert!(m.stats().cycles >= m.cost().unaligned_trap);
    }

    #[test]
    fn misaligned_store_traps_with_store_flag() {
        let (_, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 0x1001);
            b.mem(MemOp::Stw, Reg::R2, 0, Reg::R1);
            b.call_pal(PAL_HALT);
        });
        let info = exit.unaligned().expect("should trap");
        assert!(info.is_store);
        assert_eq!(info.size, 2);
    }

    #[test]
    fn ldq_u_never_traps() {
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 0x1007);
            b.mem(MemOp::LdqU, Reg::R2, 0, Reg::R1);
            b.call_pal(PAL_HALT);
        });
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(Reg::R2), 0);
        assert_eq!(m.stats().unaligned_traps, 0);
    }

    #[test]
    fn mda_sequence_loads_unaligned_value() {
        use bridge_alpha::mda_seq::{emit_unaligned_load, AccessWidth, SeqTemps};
        let mut b = CodeBuilder::new(BASE);
        b.load_imm32(Reg::R2, 0x2001);
        emit_unaligned_load(
            &mut b,
            AccessWidth::W4,
            Reg::R1,
            Reg::R2,
            0,
            true,
            &SeqTemps::default(),
        );
        b.call_pal(PAL_HALT);
        let words = b.finish().unwrap();
        let mut m = Machine::without_caches(CostModel::flat());
        m.mem_mut().write_int(0x2001, 4, 0x8899_AABB);
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        assert_eq!(m.run(1000), Exit::Halted);
        assert_eq!(m.reg(Reg::R1), 0x8899_AABBu32 as i32 as i64 as u64);
        assert_eq!(m.stats().unaligned_traps, 0);
    }

    #[test]
    fn monitor_exit_advances_pc() {
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R16, 0x40_0000);
            b.call_pal(PAL_EXIT_MONITOR);
        });
        assert_eq!(exit, Exit::Monitor);
        assert_eq!(m.reg(Reg::R16), 0x40_0000);
        // PC is after the call_pal: 2 insns for load_imm32? (one lda) + pal
        assert_eq!(m.pc() & 3, 0);
    }

    #[test]
    fn request_monitor_exit() {
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R16, 0x1234);
            b.call_pal(bridge_alpha::PAL_REQUEST_MONITOR);
        });
        assert_eq!(exit, Exit::Request);
        assert_eq!(m.reg(Reg::R16), 0x1234);
    }

    #[test]
    fn unknown_pal_faults() {
        let (_, exit) = run_fragment(|b| b.call_pal(0x3FF));
        assert!(matches!(
            exit,
            Exit::Fault(MachineFault::UnknownPal { func: 0x3FF, .. })
        ));
    }

    #[test]
    fn illegal_instruction_faults() {
        let mut m = Machine::without_caches(CostModel::flat());
        m.write_code(BASE, &[0x07u32 << 26]);
        m.set_pc(BASE);
        assert!(matches!(
            m.run(10),
            Exit::Fault(MachineFault::IllegalInstruction { pc: BASE, .. })
        ));
    }

    #[test]
    fn fuel_exhaustion() {
        let mut b = CodeBuilder::new(BASE);
        let top = b.new_label();
        b.bind(top);
        b.br_label(BrOp::Br, Reg::ZERO, top);
        let words = b.finish().unwrap();
        let mut m = Machine::without_caches(CostModel::flat());
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        assert_eq!(m.run(100), Exit::Fault(MachineFault::OutOfFuel));
    }

    #[test]
    fn jump_and_link() {
        // Placed low so the absolute target fits load_imm32's i32 range.
        let base = 0x10_0000u64;
        let mut b = CodeBuilder::new(base);
        b.load_imm32(Reg::R5, (base + 4 * 4) as i32); // target: final halt
        b.jump(JumpKind::Jsr, Reg::R26, Reg::R5);
        b.call_pal(PAL_HALT); // skipped
        b.call_pal(PAL_HALT); // skipped
        b.call_pal(PAL_HALT); // jump target
        let words = b.finish().unwrap();
        assert_eq!(words.len(), 6, "ldah+lda, jsr, three halts");
        let mut m = Machine::without_caches(CostModel::flat());
        m.write_code(base, &words);
        m.set_pc(base);
        assert_eq!(m.run(100), Exit::Halted);
        // Link register holds the return address (after the jsr at +8).
        assert_eq!(m.reg(Reg::R26), base + 3 * 4);
        // Only the jump target executed: ldah+lda+jsr+halt.
        assert_eq!(m.stats().insns, 4);
    }

    #[test]
    fn cmov_conditional_write() {
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 0); // condition: zero
            b.load_imm32(Reg::R2, 7);
            b.load_imm32(Reg::R3, 100);
            b.op(OpFn::Cmoveq, Reg::R1, Reg::R2, Reg::R3); // taken: r3 = 7
            b.op(OpFn::Cmovne, Reg::R1, Reg::R2, Reg::R4); // not taken
            b.call_pal(PAL_HALT);
        });
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(Reg::R3), 7);
        assert_eq!(m.reg(Reg::R4), 0);
    }

    #[test]
    fn r31_is_hardwired_zero() {
        let (m, exit) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 55);
            b.op(OpFn::Addq, Reg::R1, Reg::R1, Reg::R31); // write discarded
            b.op(OpFn::Addq, Reg::R31, Reg::R31, Reg::R2); // 0 + 0
            b.call_pal(PAL_HALT);
        });
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(Reg::R31), 0);
        assert_eq!(m.reg(Reg::R2), 0);
    }

    #[test]
    fn patching_takes_effect_on_next_fetch() {
        // A loop that exits only after its body is patched from nop to
        // "subq r1, 1, r1" — emulates the exception handler's patch.
        let mut b = CodeBuilder::new(BASE);
        b.load_imm32(Reg::R1, 1);
        let top = b.new_label();
        b.bind(top);
        b.emit(bridge_alpha::Insn::NOP); // will be patched
        b.br_label(BrOp::Bne, Reg::R1, top);
        b.call_pal(PAL_HALT);
        let words = b.finish().unwrap();
        let mut m = Machine::without_caches(CostModel::flat());
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        // Run a few instructions: the loop spins.
        for _ in 0..10 {
            assert!(m.step().is_none());
        }
        // Patch the nop (at BASE + 4, after the 1-insn load_imm32).
        let patched = bridge_alpha::encode::encode(&bridge_alpha::Insn::Op {
            op: OpFn::Subq,
            ra: Reg::R1,
            rb: bridge_alpha::Rb::Lit(1),
            rc: Reg::R1,
        });
        m.patch_code_word(BASE + 4, patched);
        assert_eq!(m.run(100), Exit::Halted);
        assert_eq!(m.reg(Reg::R1), 0);
    }

    /// The ISSUE's correctness-critical regression: with the superblock
    /// engine, patch a word of a *cached, previously executed* block via
    /// `write_code` and the next execution must fetch the patched word.
    #[test]
    fn superblock_cache_serves_patched_word() {
        // r1 = 2; top: nop; bne r1, top — spins forever until the nop is
        // patched to "subq r1, 1, r1".
        let mut b = CodeBuilder::new(BASE);
        b.load_imm32(Reg::R1, 2);
        let top = b.new_label();
        b.bind(top);
        b.emit(bridge_alpha::Insn::NOP);
        b.br_label(BrOp::Bne, Reg::R1, top);
        b.call_pal(PAL_HALT);
        let words = b.finish().unwrap();
        let mut m = Machine::without_caches(CostModel::flat());
        m.set_superblocks(true);
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        // The loop spins: blocks get decoded and cached.
        assert_eq!(m.run(50), Exit::Fault(MachineFault::OutOfFuel));
        assert!(m.superblock_count() > 0, "blocks should be cached");
        let before = m.superblock_count();
        // Patch the nop (at BASE + 4) inside the cached loop body.
        let patched = bridge_alpha::encode::encode(&bridge_alpha::Insn::Op {
            op: OpFn::Subq,
            ra: Reg::R1,
            rb: bridge_alpha::Rb::Lit(1),
            rc: Reg::R1,
        });
        m.patch_code_word(BASE + 4, patched);
        assert!(
            m.superblock_count() < before,
            "patch must invalidate the overlapping superblock"
        );
        // If the stale block were served, this would still spin (OutOfFuel).
        assert_eq!(m.run(100), Exit::Halted);
        assert_eq!(m.reg(Reg::R1), 0);
    }

    /// Both engines must produce identical architectural state *and*
    /// identical counters/cycles on the same program.
    #[test]
    fn engines_agree_on_state_and_cycles() {
        let mut b = CodeBuilder::new(BASE);
        b.load_imm32(Reg::R1, 200);
        b.load_imm32(Reg::R2, 0x1000);
        b.load_imm32(Reg::R3, 0);
        let top = b.new_label();
        b.bind(top);
        b.mem(MemOp::Stq, Reg::R1, 0, Reg::R2);
        b.mem(MemOp::Ldq, Reg::R4, 0, Reg::R2);
        b.op(OpFn::Addq, Reg::R3, Reg::R4, Reg::R3);
        b.op_lit(OpFn::Addq, Reg::R2, 8, Reg::R2);
        b.op_lit(OpFn::Subq, Reg::R1, 1, Reg::R1);
        b.br_label(BrOp::Bne, Reg::R1, top);
        b.call_pal(PAL_HALT);
        let words = b.finish().unwrap();

        let run_engine = |superblocks: bool| {
            let mut m = Machine::new(); // full ES40 caches + cost model
            m.set_superblocks(superblocks);
            m.write_code(BASE, &words);
            m.set_pc(BASE);
            let exit = m.run(100_000);
            assert_eq!(exit, Exit::Halted);
            (*m.stats(), m.reg(Reg::R3), m.pc())
        };
        let (fast, fast_r3, fast_pc) = run_engine(true);
        let (slow, slow_r3, slow_pc) = run_engine(false);
        assert_eq!(fast_r3, slow_r3);
        assert_eq!(fast_pc, slow_pc);
        assert_eq!(fast.insns, slow.insns);
        assert_eq!(fast.cycles, slow.cycles);
        assert_eq!(fast.icache_misses, slow.icache_misses);
        assert_eq!(fast.dcache_misses, slow.dcache_misses);
        assert_eq!(fast.l2_misses, slow.l2_misses);
    }

    /// Unaligned traps must report the same context (and leave the PC on
    /// the faulting instruction) under the superblock engine, since the EH
    /// mechanisms resume from exactly that state.
    #[test]
    fn superblock_engine_trap_context() {
        let mut b = CodeBuilder::new(BASE);
        b.load_imm32(Reg::R1, 0x1002);
        b.emit(bridge_alpha::Insn::NOP); // mid-block padding
        b.mem(MemOp::Ldl, Reg::R2, 0, Reg::R1);
        b.call_pal(PAL_HALT);
        let words = b.finish().unwrap();
        let mut m = Machine::without_caches(CostModel::flat());
        m.set_superblocks(true);
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        let exit = m.run(1000);
        let info = exit.unaligned().expect("should trap");
        assert_eq!(info.addr, 0x1002);
        assert_eq!(m.pc(), info.pc, "PC stays on the faulting instruction");
        assert_eq!(info.insn_word, m.mem().read_u32(info.pc));
        // Resuming without a fix re-traps at the same spot.
        assert!(m.run(1000).unaligned().is_some());
    }

    /// Fuel exhaustion mid-superblock must stop with exact instruction
    /// accounting, not round up to the block boundary.
    #[test]
    fn superblock_fuel_is_exact() {
        let mut b = CodeBuilder::new(BASE);
        for _ in 0..10 {
            b.emit(bridge_alpha::Insn::NOP);
        }
        b.call_pal(PAL_HALT);
        let words = b.finish().unwrap();
        let mut m = Machine::without_caches(CostModel::flat());
        m.set_superblocks(true);
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        assert_eq!(m.run(7), Exit::Fault(MachineFault::OutOfFuel));
        assert_eq!(m.stats().insns, 7);
        assert_eq!(m.pc(), BASE + 7 * 4);
        // Resume with enough fuel: finishes the remaining 4 instructions.
        assert_eq!(m.run(100), Exit::Halted);
        assert_eq!(m.stats().insns, 11);
    }

    #[test]
    fn cycle_accounting_flat_model() {
        let (m, _) = run_fragment(|b| {
            b.load_imm32(Reg::R1, 1);
            b.call_pal(PAL_HALT);
        });
        // flat model: 1 cycle per instruction, 2 instructions.
        assert_eq!(m.stats().cycles, 2);
        assert_eq!(m.stats().insns, 2);
    }

    #[test]
    fn cache_stats_populated_with_caches_enabled() {
        let mut b = CodeBuilder::new(BASE);
        b.load_imm32(Reg::R1, 0x1000);
        b.mem(MemOp::Ldl, Reg::R2, 0, Reg::R1);
        b.call_pal(PAL_HALT);
        let words = b.finish().unwrap();
        let mut m = Machine::new();
        m.write_code(BASE, &words);
        m.set_pc(BASE);
        assert_eq!(m.run(100), Exit::Halted);
        assert!(m.stats().icache_accesses >= 3);
        assert_eq!(m.stats().dcache_accesses, 1);
        assert!(m.stats().icache_misses >= 1); // cold caches
        assert!(m.stats().cycles > m.stats().insns); // miss penalties landed
    }
}
