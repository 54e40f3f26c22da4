//! The translation cache: the `SharedState` half of the
//! SharedState/PerCpuState split (tcg-rs model).
//!
//! Every [`Dbt`](crate::Dbt) owns exactly one [`SharedCodeCache`] — the
//! fleet's when one is supplied, otherwise one created for the engine
//! alone. A lone engine is simply the one-consumer case: the code path is
//! the same.
//!
//! # Model
//!
//! Each [`Dbt`](crate::Dbt) owns a simulated machine whose memory holds
//! both guest code and translated host code, so executors cannot share
//! mapped code pages the way a native DBT would. What they *can* share is
//! the translation **product**: the emitted words, the site/exit metadata,
//! and — crucially — the host address the block was emitted for. The
//! [`SharedCodeCache`] centralizes address allocation and keeps one entry
//! per `(guest PC, site-plan vector, dispatch options)` translation
//! variant; every executor that validates against an entry installs the
//! same pristine words at the same address in its own memory. Translation
//! work is paid once per variant fleet-wide; the *simulated* translation
//! charge is still paid by every engine, so an engine reusing fleet
//! entries reports exactly what it would alone on its own cache (the
//! determinism tests pin this).
//!
//! Executors running the same deterministic workload request blocks in
//! the same order with the same sizes, so the central bump allocator
//! reproduces exactly the layout each engine would have chosen alone —
//! which keeps the simulated I-cache behaviour, and therefore cycles,
//! identical however many engines share the cache. When the code region
//! fills, [`SharedCodeCache::alloc`] evicts least-recently-used entries.
//!
//! # Concurrency
//!
//! The hot dispatch path takes no lock at all: it is one `Acquire` load
//! of the generation counter (see [`SharedCodeCache::generation`]).
//! Lookups and inserts take the short state mutex; actual translation
//! happens under a separate translation mutex (one translation in flight
//! fleet-wide, the classic QEMU `tb_lock` discipline) with a
//! double-checked lookup so racing executors never translate the same
//! variant twice.
//!
//! # Coherence
//!
//! Cross-engine `write_guest_code` publishes the patch to an append-only
//! log and invalidates overlapping entries; every invalidation or
//! eviction bumps the generation counter. Executors compare the
//! generation once per dispatch and, on mismatch, apply pending guest
//! patches to their own memory and drop local installs whose shared entry
//! is no longer valid — no stale block executes past its next dispatch.

use crate::profile::SiteId;
use crate::regmap::CODE_CACHE_ADDR;
use crate::translator::{DispatchOpts, PlanFn, SiteAccess, SitePlan, TranslatedBlock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The per-site decisions a translation was produced under, in plan-query
/// order. An entry is valid for an executor only if re-evaluating the
/// executor's own plan function over these sites yields the same
/// decisions — strategy state (forced sites, profiles) is re-validated,
/// never assumed.
pub type PlanVector = Vec<(SiteId, SiteAccess, SitePlan)>;

/// One shared translation product: pristine words plus metadata at a
/// centrally allocated host address.
#[derive(Debug)]
pub struct SharedBlock {
    /// The translation product (words are emitted for `host_addr`).
    pub tb: TranslatedBlock,
    /// The fleet-wide host address of the block.
    pub host_addr: u64,
    /// Which local (re)translation of this guest PC the entry serves: an
    /// engine's first translation of a PC is variant 0, the translation
    /// after its first invalidation is variant 1, and so on. Keying on
    /// the variant makes a retranslation allocate fresh space even when
    /// its site plans come out identical to an older translation's — an
    /// engine alone bumps the allocator for every retranslation, so a hit
    /// at the old address would change code layout (and with it the
    /// simulated I-cache behaviour). Deterministic replicas reach the
    /// same variant numbers in the same order, so sharing across the
    /// fleet is unaffected.
    pub variant: u32,
    /// The decisions the block was translated under.
    pub plans: PlanVector,
    /// The dispatch features the block was emitted with.
    pub opts: DispatchOpts,
    /// Whether the entry was restored from a persistent AOT image
    /// ([`SharedCodeCache::restore`]) rather than translated this process
    /// — engines attribute installs served by such entries to the image.
    pub preloaded: bool,
    /// Cleared on eviction or invalidation; installers must re-check.
    valid: AtomicBool,
    /// LRU stamp: the global use tick at last lookup/install.
    last_use: AtomicU64,
}

impl SharedBlock {
    /// Whether the entry is still current (not evicted or invalidated).
    pub fn is_valid(&self) -> bool {
        self.valid.load(Ordering::Acquire)
    }

    fn bytes(&self) -> u64 {
        4 * self.tb.words.len() as u64
    }
}

/// One published guest-code patch, applied by every executor at its next
/// generation sync.
#[derive(Debug, Clone)]
pub struct GuestPatch {
    /// Guest address the patch starts at.
    pub addr: u32,
    /// The new bytes.
    pub bytes: Vec<u8>,
}

/// Monotonic operational counters (host-side; never charged to simulated
/// cycles). Snapshot via [`SharedCodeCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that validated an existing entry.
    pub hits: u64,
    /// Lookups that found no valid matching entry.
    pub misses: u64,
    /// Entries inserted (actual translations performed fleet-wide).
    pub insertions: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
    /// Entries invalidated by published guest-code writes.
    pub invalidations: u64,
    /// Bytes currently held by valid entries.
    pub bytes_used: u64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
}

#[derive(Debug)]
struct SharedState {
    /// Variants per guest PC (usually one; strategies that force sites
    /// mid-run add more).
    entries: HashMap<u32, Vec<Arc<SharedBlock>>>,
    /// Bump pointer for fresh allocations (the layout a lone engine gets,
    /// while capacity lasts).
    next: u64,
    /// Coalesced free ranges `(addr, bytes)` reclaimed by eviction,
    /// sorted by address.
    free: Vec<(u64, u64)>,
    /// Published guest-code patches, append-only; executors track how
    /// many they have applied.
    patch_log: Vec<GuestPatch>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
    bytes_used: u64,
}

/// The result of a shared allocation: the address, plus the guest PCs of
/// any entries evicted to make room (the caller traces them).
#[derive(Debug)]
pub struct SharedAlloc {
    /// Allocated host address.
    pub addr: u64,
    /// Guest PCs evicted by this allocation, in eviction (LRU) order.
    pub evicted: Vec<u32>,
}

/// The shared, read-mostly translation cache (see the module docs).
pub struct SharedCodeCache {
    base: u64,
    limit: u64,
    /// Bumped (`Release`) on every eviction, invalidation and published
    /// guest patch; executors compare with one `Acquire` load per
    /// dispatch.
    generation: AtomicU64,
    /// Global LRU tick source.
    use_tick: AtomicU64,
    state: Mutex<SharedState>,
    /// Held across translate-and-insert so one translation is in flight
    /// fleet-wide (QEMU's `tb_lock` discipline).
    translate_mutex: Mutex<()>,
}

impl std::fmt::Debug for SharedCodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SharedCodeCache")
            .field("base", &self.base)
            .field("capacity", &(self.limit - self.base))
            .field("generation", &self.generation())
            .field("stats", &s)
            .finish()
    }
}

impl SharedCodeCache {
    /// A shared cache over the standard code-cache region, holding at
    /// most `code_bytes` of translated words. Engines attaching to it
    /// must reserve at least `code_bytes` in their own code region
    /// (allocated addresses are handed to every executor verbatim).
    pub fn new(code_bytes: u64) -> Arc<SharedCodeCache> {
        Arc::new(SharedCodeCache {
            base: CODE_CACHE_ADDR,
            limit: CODE_CACHE_ADDR + code_bytes,
            generation: AtomicU64::new(0),
            use_tick: AtomicU64::new(0),
            state: Mutex::new(SharedState {
                entries: HashMap::new(),
                next: CODE_CACHE_ADDR,
                free: Vec::new(),
                patch_log: Vec::new(),
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                invalidations: 0,
                bytes_used: 0,
            }),
            translate_mutex: Mutex::new(()),
        })
    }

    /// Capacity of the shared code region in bytes. Engines attaching to
    /// this cache must configure at least this much local code space, or
    /// shared allocations could land in their stub regions.
    pub fn capacity(&self) -> u64 {
        self.limit - self.base
    }

    /// The current coherence generation. One `Acquire` load — this is the
    /// whole lock-free dispatch fast path: while the value an executor
    /// cached is unchanged, nothing it installed can have gone stale.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    fn lock(&self) -> MutexGuard<'_, SharedState> {
        self.state.lock().expect("shared cache lock never poisoned")
    }

    /// Operational counters snapshot.
    pub fn stats(&self) -> SharedCacheStats {
        let s = self.lock();
        SharedCacheStats {
            hits: s.hits,
            misses: s.misses,
            insertions: s.insertions,
            evictions: s.evictions,
            invalidations: s.invalidations,
            bytes_used: s.bytes_used,
            capacity_bytes: self.limit - self.base,
        }
    }

    /// Serializes translation work fleet-wide. Callers take this, re-run
    /// [`SharedCodeCache::lookup`] (double-check), and only then
    /// translate.
    pub fn translate_lock(&self) -> MutexGuard<'_, ()> {
        self.translate_mutex
            .lock()
            .expect("translate lock never poisoned")
    }

    /// Finds a valid entry for `guest_pc` at the caller's translation
    /// variant whose dispatch options match and whose recorded plan
    /// vector re-validates against the caller's plan function. Stamps the
    /// entry's LRU tick on a hit.
    pub fn lookup(
        &self,
        guest_pc: u32,
        variant: u32,
        opts: DispatchOpts,
        plan: &mut PlanFn<'_>,
    ) -> Option<Arc<SharedBlock>> {
        let mut s = self.lock();
        let found = s.entries.get(&guest_pc).and_then(|variants| {
            variants
                .iter()
                .find(|e| {
                    e.is_valid()
                        && e.variant == variant
                        && e.opts == opts
                        && e.plans
                            .iter()
                            .all(|&(site, acc, decided)| plan(site, acc) == decided)
                })
                .cloned()
        });
        match &found {
            Some(e) => {
                s.hits += 1;
                e.last_use.store(
                    self.use_tick.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
            }
            None => s.misses += 1,
        }
        found
    }

    /// The address the next allocation will most likely land at, for
    /// translating against before the block's size is known. If the final
    /// allocation differs (first-fit into an evicted hole), the caller
    /// retranslates at the final address — host-side work only.
    pub fn candidate_addr(&self) -> u64 {
        let s = self.lock();
        if s.next < self.limit {
            s.next
        } else {
            s.free.first().map_or(s.next, |&(addr, _)| addr)
        }
    }

    /// Allocates `words` of code space, evicting least-recently-used
    /// entries under capacity pressure (clearing their valid bit, freeing
    /// their ranges and bumping the generation once per eviction).
    ///
    /// Returns `None` when the block cannot fit even with every entry
    /// evicted.
    pub fn alloc(&self, words: usize) -> Option<SharedAlloc> {
        let bytes = 4 * words as u64;
        if bytes > self.limit - self.base {
            return None;
        }
        let mut s = self.lock();
        let mut evicted = Vec::new();
        loop {
            // Bump first: while capacity lasts, every engine gets the
            // layout it would have had alone.
            if s.next + bytes <= self.limit {
                let addr = s.next;
                s.next += bytes;
                return Some(SharedAlloc { addr, evicted });
            }
            // First-fit over reclaimed holes.
            if let Some(i) = s.free.iter().position(|&(_, len)| len >= bytes) {
                let (addr, len) = s.free[i];
                if len == bytes {
                    s.free.remove(i);
                } else {
                    s.free[i] = (addr + bytes, len - bytes);
                }
                return Some(SharedAlloc { addr, evicted });
            }
            // Evict the LRU valid entry and retry.
            match self.evict_lru(&mut s) {
                Some(pc) => evicted.push(pc),
                None => return None,
            }
        }
    }

    /// Clears the valid bit of the least-recently-used entry, frees its
    /// range and bumps the generation. Returns its guest PC.
    fn evict_lru(&self, s: &mut SharedState) -> Option<u32> {
        let victim = s
            .entries
            .values()
            .flatten()
            .filter(|e| e.is_valid())
            .min_by_key(|e| (e.last_use.load(Ordering::Relaxed), e.host_addr))
            .cloned()?;
        victim.valid.store(false, Ordering::Release);
        s.bytes_used -= victim.bytes();
        s.evictions += 1;
        Self::free_range(&mut s.free, victim.host_addr, victim.bytes());
        self.bump_generation();
        Some(victim.tb.guest_pc)
    }

    /// Returns `(addr, bytes)` to the free list, coalescing neighbours.
    fn free_range(free: &mut Vec<(u64, u64)>, addr: u64, bytes: u64) {
        let i = free.partition_point(|&(a, _)| a < addr);
        free.insert(i, (addr, bytes));
        // Coalesce with the successor, then the predecessor.
        if i + 1 < free.len() && free[i].0 + free[i].1 == free[i + 1].0 {
            free[i].1 += free[i + 1].1;
            free.remove(i + 1);
        }
        if i > 0 && free[i - 1].0 + free[i - 1].1 == free[i].0 {
            free[i - 1].1 += free[i].1;
            free.remove(i);
        }
    }

    /// Publishes a translation product at its allocated address. The
    /// caller holds the translate lock and obtained `host_addr` from
    /// [`SharedCodeCache::alloc`]; `tb.words` were emitted for it.
    pub fn insert(
        &self,
        tb: TranslatedBlock,
        host_addr: u64,
        variant: u32,
        plans: PlanVector,
        opts: DispatchOpts,
    ) -> Arc<SharedBlock> {
        let entry = Arc::new(SharedBlock {
            host_addr,
            variant,
            plans,
            opts,
            preloaded: false,
            valid: AtomicBool::new(true),
            last_use: AtomicU64::new(self.use_tick.fetch_add(1, Ordering::Relaxed)),
            tb,
        });
        let mut s = self.lock();
        s.bytes_used += entry.bytes();
        s.insertions += 1;
        s.entries
            .entry(entry.tb.guest_pc)
            .or_default()
            .push(Arc::clone(&entry));
        entry
    }

    /// Every valid entry, sorted by host address — which, in a cache that
    /// never evicted or invalidated (the bump-only layout a clean
    /// deterministic run produces), is exactly insertion order. This is
    /// the capture order for persistent translation images
    /// ([`crate::image::TranslationImage`]).
    pub fn snapshot_entries(&self) -> Vec<Arc<SharedBlock>> {
        let s = self.lock();
        let mut entries: Vec<Arc<SharedBlock>> = s
            .entries
            .values()
            .flatten()
            .filter(|e| e.is_valid())
            .cloned()
            .collect();
        entries.sort_by_key(|e| e.host_addr);
        entries
    }

    /// Restores one captured translation product during warm start,
    /// marking it [`SharedBlock::preloaded`]. Entries must arrive in host
    /// address order starting at the cache base with no gaps — the layout
    /// a bump-only cold run produces and the only layout
    /// [`crate::image::TranslationImage::capture`] will serialize — so a
    /// restored cache is bit-for-bit the state a cold fleet would have
    /// reached after translating the same blocks.
    ///
    /// # Errors
    ///
    /// Rejects out-of-order or overlapping addresses and entries past the
    /// capacity limit; the cache is left exactly as it was before the
    /// failing call (earlier restored entries remain — callers discard
    /// the whole cache on error, never serve from a half-load).
    pub fn restore(
        &self,
        tb: TranslatedBlock,
        host_addr: u64,
        variant: u32,
        plans: PlanVector,
        opts: DispatchOpts,
    ) -> Result<Arc<SharedBlock>, &'static str> {
        let bytes = 4 * tb.words.len() as u64;
        let mut s = self.lock();
        if host_addr != s.next {
            return Err("image entry breaks the bump layout");
        }
        if host_addr + bytes > self.limit {
            return Err("image exceeds the cache capacity");
        }
        let entry = Arc::new(SharedBlock {
            host_addr,
            variant,
            plans,
            opts,
            preloaded: true,
            valid: AtomicBool::new(true),
            last_use: AtomicU64::new(self.use_tick.fetch_add(1, Ordering::Relaxed)),
            tb,
        });
        s.next = host_addr + bytes;
        s.bytes_used += entry.bytes();
        s.insertions += 1;
        s.entries
            .entry(entry.tb.guest_pc)
            .or_default()
            .push(Arc::clone(&entry));
        Ok(entry)
    }

    /// Publishes a guest-code rewrite fleet-wide: appends the patch to
    /// the log, invalidates every entry whose block may decode bytes from
    /// `[addr, addr+len)` (the 16-byte x86 decode window, matching
    /// [`Dbt::write_guest_code`](crate::Dbt::write_guest_code)), frees
    /// their ranges and bumps the generation. Every executor applies the
    /// patch to its own memory at its next dispatch. Returns the guest
    /// PCs invalidated.
    pub fn write_guest_code(&self, addr: u32, bytes: &[u8]) -> Vec<u32> {
        let start = addr;
        let end = addr.wrapping_add(bytes.len() as u32);
        let mut s = self.lock();
        s.patch_log.push(GuestPatch {
            addr,
            bytes: bytes.to_vec(),
        });
        let mut dropped = Vec::new();
        for variants in s.entries.values() {
            for e in variants {
                if e.is_valid()
                    && e.tb
                        .guest_pcs
                        .iter()
                        .any(|&p| p < end && p.wrapping_add(16) > start)
                {
                    e.valid.store(false, Ordering::Release);
                    dropped.push(Arc::clone(e));
                }
            }
        }
        for e in &dropped {
            s.bytes_used -= e.bytes();
            s.invalidations += 1;
            Self::free_range(&mut s.free, e.host_addr, e.bytes());
        }
        self.bump_generation();
        dropped.into_iter().map(|e| e.tb.guest_pc).collect()
    }

    /// The guest patches published after the first `seen` entries, with
    /// the new log length (the caller's next `seen`).
    pub fn patches_since(&self, seen: usize) -> (Vec<GuestPatch>, usize) {
        let s = self.lock();
        (
            s.patch_log[seen.min(s.patch_log.len())..].to_vec(),
            s.patch_log.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::ExitStub;

    fn tb(guest_pc: u32, words: usize) -> TranslatedBlock {
        TranslatedBlock {
            guest_pc,
            guest_end: guest_pc + 8,
            guest_insn_count: 2,
            words: vec![0x47FF_041F; words],
            trap_sites: vec![],
            exits: Vec::<ExitStub>::new(),
            indirect_exits: vec![],
            guest_pcs: vec![guest_pc, guest_pc + 4],
            insn_starts: vec![(guest_pc, 0), (guest_pc + 4, 1)],
        }
    }

    fn no_plans(_: SiteId, _: SiteAccess) -> SitePlan {
        SitePlan::Normal
    }

    #[test]
    fn bump_allocation_lays_blocks_end_to_end() {
        let sh = SharedCodeCache::new(4096);
        let a = sh.alloc(8).unwrap();
        let b = sh.alloc(16).unwrap();
        assert_eq!(a.addr, CODE_CACHE_ADDR);
        assert_eq!(b.addr, CODE_CACHE_ADDR + 32);
        assert!(a.evicted.is_empty() && b.evicted.is_empty());
    }

    #[test]
    fn lookup_validates_plans_and_opts() {
        let sh = SharedCodeCache::new(4096);
        let site = SiteId::new(0x400004, 0);
        let acc = SiteAccess {
            width: bridge_x86::insn::Width::W4,
            is_store: false,
        };
        let a = sh.alloc(4).unwrap();
        sh.insert(
            tb(0x400000, 4),
            a.addr,
            0,
            vec![(site, acc, SitePlan::Sequence)],
            DispatchOpts::default(),
        );
        // Matching plans hit.
        let mut seq = |_: SiteId, _: SiteAccess| SitePlan::Sequence;
        assert!(sh
            .lookup(0x400000, 0, DispatchOpts::default(), &mut seq)
            .is_some());
        // Diverged strategy state misses.
        let mut normal = no_plans;
        assert!(sh
            .lookup(0x400000, 0, DispatchOpts::default(), &mut normal)
            .is_none());
        // Different dispatch options miss.
        let opts = DispatchOpts {
            ibtc: true,
            ..DispatchOpts::default()
        };
        assert!(sh.lookup(0x400000, 0, opts, &mut seq).is_none());
        let st = sh.stats();
        assert_eq!((st.hits, st.misses), (1, 2));
    }

    #[test]
    fn lru_eviction_is_deterministic_and_coalesces() {
        // Capacity for exactly two 8-word blocks.
        let sh = SharedCodeCache::new(64);
        for pc in [0x40_0000u32, 0x40_0010] {
            let a = sh.alloc(8).unwrap();
            sh.insert(tb(pc, 8), a.addr, 0, vec![], DispatchOpts::default());
        }
        // Touch the first block so the second becomes LRU.
        let mut p = no_plans;
        assert!(sh
            .lookup(0x40_0000, 0, DispatchOpts::default(), &mut p)
            .is_some());
        let gen_before = sh.generation();
        let a = sh.alloc(8).unwrap();
        assert_eq!(a.evicted, vec![0x40_0010], "LRU entry evicted first");
        assert_eq!(a.addr, CODE_CACHE_ADDR + 32, "hole reused first-fit");
        assert_eq!(sh.generation(), gen_before + 1, "eviction bumps generation");
        sh.insert(tb(0x40_0020, 8), a.addr, 0, vec![], DispatchOpts::default());
        // Evicting both remaining entries coalesces into one big hole.
        let b = sh.alloc(16).unwrap();
        assert_eq!(b.evicted, vec![0x40_0000, 0x40_0020]);
        assert_eq!(b.addr, CODE_CACHE_ADDR);
        assert_eq!(sh.stats().evictions, 3);
    }

    #[test]
    fn oversized_block_is_rejected() {
        let sh = SharedCodeCache::new(64);
        assert!(sh.alloc(17).is_none());
        assert!(sh.alloc(16).is_some());
    }

    #[test]
    fn write_guest_code_invalidates_and_logs() {
        let sh = SharedCodeCache::new(4096);
        let a = sh.alloc(8).unwrap();
        let entry = sh.insert(tb(0x40_0000, 8), a.addr, 0, vec![], DispatchOpts::default());
        let b = sh.alloc(8).unwrap();
        sh.insert(tb(0x50_0000, 8), b.addr, 0, vec![], DispatchOpts::default());
        let gen = sh.generation();
        let dropped = sh.write_guest_code(0x40_0004, &[0x90]);
        assert_eq!(dropped, vec![0x40_0000], "overlapping entry invalidated");
        assert!(!entry.is_valid());
        assert!(sh.generation() > gen);
        let (patches, seen) = sh.patches_since(0);
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].addr, 0x40_0004);
        assert_eq!(seen, 1);
        assert!(sh.patches_since(seen).0.is_empty());
        // The far entry survived; a fresh lookup still hits it.
        let mut p = no_plans;
        assert!(sh
            .lookup(0x50_0000, 0, DispatchOpts::default(), &mut p)
            .is_some());
        assert!(sh
            .lookup(0x40_0000, 0, DispatchOpts::default(), &mut p)
            .is_none());
    }
}
