//! Set-associative cache *cost* model (tags only, LRU replacement).
//!
//! The caches track which lines would be resident, not their contents; the
//! simulator uses hit/miss outcomes purely for cycle accounting. This is
//! what the paper's evaluation needs: the exception-handling mechanism's
//! code-locality effects (stubs far from their blocks) show up as extra
//! I-cache misses, and code rearrangement wins them back.

/// Sentinel for an empty way. Unreachable as a real tag: tags are
/// `addr >> line_shift >> set_bits`, far below `2^64 - 1` for any address
/// the simulator produces.
const EMPTY: u64 = u64::MAX;

/// A set-associative tag cache with LRU replacement.
///
/// Tags live in one flat array of `set_count * ways` slots — no per-set
/// `Vec`, no heap indirection on the access path. Within a set's slice the
/// resident tags are kept **contiguous at the end**, most recently used
/// last, with `EMPTY` slots at the front; this preserves the exact LRU
/// order (and therefore the exact hit/miss and eviction sequence) of a
/// naive push/remove representation.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2(line size)
    line_shift: u32,
    set_mask: u64,
    /// log2(set count): how far a line number shifts down to its tag.
    tag_shift: u32,
    ways: usize,
    /// Flat `set_count * ways` tag slots; see struct docs for layout.
    tags: Vec<u64>,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` ways and `line_bytes`
    /// lines. All three must be powers of two and consistent.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two or `ways` exceeds the
    /// number of lines.
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Cache {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            ways.is_power_of_two(),
            "associativity must be a power of two"
        );
        let lines = size_bytes / line_bytes;
        assert!(ways as u64 <= lines, "more ways than lines");
        let set_count = lines / ways as u64;
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: set_count - 1,
            tag_shift: set_count.trailing_zeros(),
            ways,
            tags: vec![EMPTY; (set_count as usize) * ways],
        }
    }

    /// 64 KB, 2-way, 64-byte lines: the ES40's L1 geometry (§V-A of the
    /// paper).
    pub fn es40_l1() -> Cache {
        Cache::new(64 * 1024, 2, 64)
    }

    /// 2 MB direct-mapped, 64-byte lines: the ES40's L2 geometry.
    pub fn es40_l2() -> Cache {
        Cache::new(2 * 1024 * 1024, 1, 64)
    }

    /// log2 of the line size (so embedders can reason about line
    /// granularity, e.g. the machine's same-line fetch fast path).
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.tag_shift)
    }

    /// Touches `addr`; returns `true` on hit. On miss the line is filled
    /// (evicting LRU).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        // Direct-mapped fast path: one slot, no ordering to maintain.
        if set.len() == 1 {
            let hit = set[0] == tag;
            set[0] = tag;
            return hit;
        }
        // MRU-last scan from the back: the MRU slot hits most often.
        if let Some(pos) = set.iter().rposition(|&t| t == tag) {
            // Move to MRU (end), shifting intervening tags down one slot.
            set.copy_within(pos + 1.., pos);
            *set.last_mut().expect("ways >= 1") = tag;
            true
        } else {
            // Miss: shift the whole set down, dropping slot 0 — the LRU
            // resident tag when the set is full, an EMPTY slot otherwise —
            // and fill the MRU slot.
            set.copy_within(1.., 0);
            *set.last_mut().expect("ways >= 1") = tag;
            false
        }
    }

    /// Invalidates the line containing `addr` if resident (used when the
    /// DBT patches code).
    pub fn invalidate(&mut self, addr: u64) {
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Shift older tags up into the gap, keeping residents
            // contiguous at the end in LRU order, and open an EMPTY slot
            // at the front.
            set.copy_within(..pos, 1);
            set[0] = EMPTY;
        }
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Number of resident lines (diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0x0));
        assert!(c.access(0x0));
        assert!(c.access(0x3F)); // same line
        assert!(!c.access(0x40)); // next line
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets of 2 ways, 64B lines → addresses 0x00, 0x80, 0x100 share set 0.
        let mut c = Cache::new(256, 2, 64);
        assert!(!c.access(0x000));
        assert!(!c.access(0x080));
        assert!(c.access(0x000)); // refresh LRU: now 0x080 is LRU
        assert!(!c.access(0x100)); // evicts 0x080
        assert!(c.access(0x000));
        assert!(!c.access(0x080)); // was evicted
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(128, 1, 64);
        assert!(!c.access(0x00));
        assert!(!c.access(0x80)); // conflicts with 0x00
        assert!(!c.access(0x00)); // conflict again
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(0x200);
        assert!(c.access(0x200));
        c.invalidate(0x200);
        assert!(!c.access(0x200));
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::es40_l1();
        for a in (0..4096u64).step_by(64) {
            c.access(a);
        }
        assert!(c.resident_lines() > 0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn es40_geometries() {
        let l1 = Cache::es40_l1();
        let l2 = Cache::es40_l2();
        // Working set exactly the cache size stays resident under LRU.
        let mut l1m = l1.clone();
        for pass in 0..2 {
            for a in (0..64 * 1024u64).step_by(64) {
                let hit = l1m.access(a);
                if pass == 1 {
                    assert!(hit, "L1 should retain 64KB working set at {a:#x}");
                }
            }
        }
        let mut l2m = l2;
        for pass in 0..2 {
            for a in (0..2 * 1024 * 1024u64).step_by(64) {
                let hit = l2m.access(a);
                if pass == 1 {
                    assert!(hit, "L2 should retain 2MB working set at {a:#x}");
                }
            }
        }
        drop(l1);
    }
}
