//! The per-engine code cache: the installed-block table, exception stubs,
//! block chaining and invalidation.
//!
//! Layout within the host address space (see [`crate::regmap`]):
//!
//! ```text
//! CODE_CACHE_ADDR ──┬───────────────────────┬──────────────────────┐
//!                   │ translated blocks ... │ exception stubs ...  │
//!                   └───────────────────────┴──────────────────────┘
//!                        code region             stub region
//! ```
//!
//! Every engine owns exactly one translation cache, a
//! [`SharedCodeCache`](crate::SharedCodeCache) — shared with a fleet when
//! one supplies it, otherwise created for the engine alone. That cache
//! allocates the code region and evicts least-recently-used blocks when
//! it fills; this module only records which blocks are installed where.
//! The stub region is the engine's own: [`CodeCache::alloc_stub`] bumps
//! through it, and when it is exhausted the engine flushes the whole
//! cache (the Dynamo policy the paper contrasts its block-granularity
//! invalidation with).
//!
//! Stubs live in their own region at the tail — deliberately far from the
//! blocks that branch to them, reproducing the code-locality cost the paper
//! attributes to the exception-handling method (§IV-A) and that code
//! rearrangement wins back.

use crate::profile::SiteId;
use crate::translator::TranslatedBlock;
use std::collections::HashMap;

/// A chainable exit of an installed block.
#[derive(Debug, Clone, Copy)]
pub struct ExitSlot {
    /// Host address of the patch point (first word of the exit stub).
    pub host_addr: u64,
    /// Guest target the exit transfers to.
    pub target: u32,
    /// The word originally at `host_addr`, restored when unchaining.
    pub original_word: u32,
    /// Whether the slot is currently chained to a block.
    pub chained: bool,
}

/// An installed translated block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Guest address of the block entry.
    pub guest_pc: u32,
    /// Host address of the block's first word.
    pub host_addr: u64,
    /// Length in words.
    pub words_len: u32,
    /// Guest instructions covered.
    pub guest_insn_count: u32,
    /// Guest PCs of the covered instructions.
    pub guest_pcs: Vec<u32>,
    /// `(guest pc, word index)` of each instruction's first word.
    pub insn_starts: Vec<(u32, u32)>,
    /// Map from trappable host instruction address to its site.
    pub site_at_host: HashMap<u64, SiteId>,
    /// Chainable exits.
    pub exit_slots: Vec<ExitSlot>,
    /// Host addresses of IBTC-miss `call_pal exit_monitor` words (empty
    /// unless translated with in-code-cache dispatch).
    pub indirect_exits: Vec<u64>,
    /// Misalignment traps taken inside this block since (re)translation.
    pub trap_count: u32,
    /// How many times the block has been retranslated.
    pub retrans_count: u32,
}

impl Block {
    /// Builds the installed-block record for a translation product whose
    /// words were written at `host_addr`. `exit_original_words` are the
    /// original first words of each exit stub (restored when unchaining).
    pub fn from_tb(tb: &TranslatedBlock, host_addr: u64, exit_original_words: Vec<u32>) -> Block {
        assert_eq!(tb.exits.len(), exit_original_words.len());
        let exit_slots = tb
            .exits
            .iter()
            .zip(exit_original_words)
            .map(|(e, w)| ExitSlot {
                host_addr: e.host_addr,
                target: e.target,
                original_word: w,
                chained: false,
            })
            .collect();
        Block {
            guest_pc: tb.guest_pc,
            host_addr,
            words_len: tb.words.len() as u32,
            guest_insn_count: tb.guest_insn_count,
            guest_pcs: tb.guest_pcs.clone(),
            insn_starts: tb.insn_starts.clone(),
            site_at_host: tb.trap_sites.iter().copied().collect(),
            exit_slots,
            indirect_exits: tb.indirect_exits.clone(),
            trap_count: 0,
            retrans_count: 0,
        }
    }
}

/// The stub region is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFull;

impl std::fmt::Display for CacheFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stub region full")
    }
}

impl std::error::Error for CacheFull {}

/// The block table and stub region.
#[derive(Debug)]
pub struct CodeCache {
    stub_base: u64,
    stub_limit: u64,
    stub_next: u64,
    blocks: HashMap<u32, Block>,
    /// guest target → chain slots waiting for that target to be translated.
    pending_chains: HashMap<u32, Vec<(u32, usize)>>, // (source block pc, slot index)
}

impl CodeCache {
    /// Creates a cache at `base` with the given region sizes; the stub
    /// region starts `code_bytes` past `base`.
    pub fn new(base: u64, code_bytes: u64, stub_bytes: u64) -> CodeCache {
        CodeCache {
            stub_base: base + code_bytes,
            stub_limit: base + code_bytes + stub_bytes,
            stub_next: base + code_bytes,
            blocks: HashMap::new(),
            pending_chains: HashMap::new(),
        }
    }

    /// Number of installed blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of stubs currently allocated.
    pub fn stub_bytes_used(&self) -> u64 {
        self.stub_next - self.stub_base
    }

    /// Looks up the installed block for a guest PC.
    pub fn block(&self, guest_pc: u32) -> Option<&Block> {
        self.blocks.get(&guest_pc)
    }

    /// Mutable lookup.
    pub fn block_mut(&mut self, guest_pc: u32) -> Option<&mut Block> {
        self.blocks.get_mut(&guest_pc)
    }

    /// Reserves space for an exception stub of `words` length. (Block
    /// space comes from the engine's [`SharedCodeCache`](crate::SharedCodeCache),
    /// which evicts LRU blocks rather than failing.)
    ///
    /// # Errors
    ///
    /// [`CacheFull`] when the stub region is exhausted; the engine then
    /// flushes the whole cache.
    pub fn alloc_stub(&mut self, words: usize) -> Result<u64, CacheFull> {
        let bytes = 4 * words as u64;
        if self.stub_next + bytes > self.stub_limit {
            return Err(CacheFull);
        }
        let addr = self.stub_next;
        self.stub_next += bytes;
        Ok(addr)
    }

    /// Installs a translated block whose words were written at `host_addr`
    /// (allocated by the engine's shared cache). `exit_original_words` are
    /// the original first words of each exit stub (for unchaining).
    pub fn install(&mut self, tb: &TranslatedBlock, host_addr: u64, exit_original_words: Vec<u32>) {
        self.blocks.insert(
            tb.guest_pc,
            Block::from_tb(tb, host_addr, exit_original_words),
        );
    }

    /// Registers an exit slot as waiting for `target` to be translated.
    pub fn add_pending_chain(&mut self, source_pc: u32, slot_index: usize, target: u32) {
        self.pending_chains
            .entry(target)
            .or_default()
            .push((source_pc, slot_index));
    }

    /// Takes the pending chain slots for a newly translated target.
    pub fn take_pending_chains(&mut self, target: u32) -> Vec<(u32, usize)> {
        self.pending_chains.remove(&target).unwrap_or_default()
    }

    /// Removes a block from the table, returning it (the engine restores
    /// the incoming chain patches and re-registers them as pending).
    pub fn remove_block(&mut self, guest_pc: u32) -> Option<Block> {
        // Drop this block's own pending registrations.
        for slots in self.pending_chains.values_mut() {
            slots.retain(|(src, _)| *src != guest_pc);
        }
        self.pending_chains.retain(|_, v| !v.is_empty());
        self.blocks.remove(&guest_pc)
    }

    /// Incoming chained exit slots pointing at `target`, as
    /// `(source block pc, slot index)` pairs.
    pub fn chained_into(&self, target: u32) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        for b in self.blocks.values() {
            for (i, s) in b.exit_slots.iter().enumerate() {
                if s.chained && s.target == target {
                    out.push((b.guest_pc, i));
                }
            }
        }
        out
    }

    /// Empties the block table and stub region (Dynamo-style flush on
    /// stub exhaustion).
    pub fn flush(&mut self) {
        self.blocks.clear();
        self.pending_chains.clear();
        self.stub_next = self.stub_base;
    }

    /// Iterates over installed blocks.
    pub fn iter_blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::ExitStub;

    fn dummy_tb(guest_pc: u32, words: usize, exits: Vec<ExitStub>) -> TranslatedBlock {
        TranslatedBlock {
            guest_pc,
            guest_end: guest_pc + 10,
            guest_insn_count: 3,
            words: vec![0; words],
            trap_sites: vec![(0x1_0000_0010, SiteId::new(guest_pc + 2, 0))],
            exits,
            indirect_exits: vec![],
            guest_pcs: vec![guest_pc, guest_pc + 2, guest_pc + 7],
            insn_starts: vec![(guest_pc, 0), (guest_pc + 2, 2), (guest_pc + 7, 5)],
        }
    }

    const BASE: u64 = 0x1_0000_0000;

    #[test]
    fn install_records_the_block() {
        let mut cc = CodeCache::new(BASE, 4096, 1024);
        let tb = dummy_tb(0x400000, 8, vec![]);
        cc.install(&tb, BASE, vec![]);
        assert_eq!(cc.block_count(), 1);
        let b = cc.block(0x400000).unwrap();
        assert_eq!(b.host_addr, BASE);
        assert_eq!(b.words_len, 8);
        // Site lookup by host address.
        assert_eq!(
            b.site_at_host.get(&0x1_0000_0010),
            Some(&SiteId::new(0x400002, 0))
        );
    }

    #[test]
    fn stub_region_exhaustion() {
        let mut cc = CodeCache::new(BASE, 64, 64);
        assert!(cc.alloc_stub(16).is_ok());
        assert_eq!(cc.alloc_stub(1), Err(CacheFull));
    }

    #[test]
    fn stubs_live_past_the_code_region() {
        let mut cc = CodeCache::new(BASE, 1 << 20, 1 << 20);
        assert_eq!(cc.alloc_stub(16).unwrap(), BASE + (1 << 20));
    }

    #[test]
    fn pending_chains_roundtrip() {
        let mut cc = CodeCache::new(BASE, 4096, 1024);
        cc.add_pending_chain(0x400000, 0, 0x400100);
        cc.add_pending_chain(0x400050, 1, 0x400100);
        let slots = cc.take_pending_chains(0x400100);
        assert_eq!(slots.len(), 2);
        assert!(cc.take_pending_chains(0x400100).is_empty());
    }

    #[test]
    fn remove_block_drops_its_pending_registrations() {
        let mut cc = CodeCache::new(BASE, 4096, 1024);
        let tb = dummy_tb(0x400000, 4, vec![]);
        cc.install(&tb, BASE, vec![]);
        cc.add_pending_chain(0x400000, 0, 0x400100);
        let removed = cc.remove_block(0x400000).unwrap();
        assert_eq!(removed.guest_pc, 0x400000);
        assert!(cc.take_pending_chains(0x400100).is_empty());
    }

    #[test]
    fn chained_into_finds_sources() {
        let mut cc = CodeCache::new(BASE, 4096, 1024);
        let exits = vec![ExitStub {
            host_addr: 0x1_0000_0020,
            target: 0x400100,
        }];
        let tb = dummy_tb(0x400000, 16, exits);
        cc.install(&tb, BASE, vec![0xDEAD_BEEF]);
        assert!(cc.chained_into(0x400100).is_empty());
        cc.block_mut(0x400000).unwrap().exit_slots[0].chained = true;
        assert_eq!(cc.chained_into(0x400100), vec![(0x400000, 0)]);
    }

    #[test]
    fn flush_resets_everything() {
        let mut cc = CodeCache::new(BASE, 4096, 1024);
        let tb = dummy_tb(0x400000, 8, vec![]);
        cc.install(&tb, BASE, vec![]);
        cc.alloc_stub(4).unwrap();
        cc.flush();
        assert_eq!(cc.block_count(), 0);
        assert_eq!(cc.stub_bytes_used(), 0);
    }
}
