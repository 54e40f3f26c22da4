//! Execution and misalignment profiles (the paper's "Execution Profile" box
//! in Figures 3 and 4).

use bridge_sim::hashing::FxHashMap;
use std::collections::HashSet;

/// Identity of one static memory-access site: the guest instruction address
/// plus the access slot within it (read-modify-write instructions have a
/// load slot 0 and a store slot 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId {
    /// Guest address of the instruction.
    pub pc: u32,
    /// Access slot within the instruction (0 or 1).
    pub slot: u8,
}

impl SiteId {
    /// Site for an instruction's first (or only) access.
    pub fn new(pc: u32, slot: u8) -> SiteId {
        SiteId { pc, slot }
    }
}

/// Per-site dynamic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Dynamic executions of this access.
    pub execs: u64,
    /// How many of them were misaligned.
    pub mdas: u64,
}

impl SiteStats {
    /// Fraction of executions that were misaligned (0.0 if never executed).
    pub fn mda_ratio(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.mdas as f64 / self.execs as f64
        }
    }
}

/// The profile a run accumulates: per-site misalignment statistics, block
/// heat, and whole-program counters (Table I's columns).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    sites: FxHashMap<SiteId, SiteStats>,
    block_heat: FxHashMap<u32, u64>,
    /// Total guest instructions executed (interpreted or translated-block
    /// equivalents when known).
    pub guest_insns: u64,
    /// Total dynamic memory accesses observed.
    pub mem_accesses: u64,
    /// Total dynamic misaligned accesses observed.
    pub mdas: u64,
}

impl Profile {
    /// Empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Records one dynamic access at `site`.
    #[inline]
    pub fn record_access(&mut self, site: SiteId, misaligned: bool) {
        let s = self.sites.entry(site).or_default();
        s.execs += 1;
        self.mem_accesses += 1;
        if misaligned {
            s.mdas += 1;
            self.mdas += 1;
        }
    }

    /// Records an MDA discovered via a runtime trap (no execs counterpart —
    /// translated-code aligned executions are not individually profiled).
    #[inline]
    pub fn record_trap_mda(&mut self, site: SiteId) {
        let s = self.sites.entry(site).or_default();
        s.execs += 1;
        s.mdas += 1;
    }

    /// Statistics for one site.
    pub fn site(&self, site: SiteId) -> SiteStats {
        self.sites.get(&site).copied().unwrap_or_default()
    }

    /// Whether the site misaligned at least once so far — the criterion the
    /// paper's dynamic-profiling translator uses ("if the instruction has
    /// performed MDA once during the profiling stage", §III-C).
    pub fn saw_mda(&self, site: SiteId) -> bool {
        self.site(site).mdas > 0
    }

    /// Iterates over all sites with their statistics.
    pub fn iter_sites(&self) -> impl Iterator<Item = (SiteId, SiteStats)> + '_ {
        self.sites.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of distinct instructions that performed at least one MDA —
    /// the paper's **NMI** column in Table I (slot-level sites collapsed to
    /// instructions).
    pub fn nmi(&self) -> usize {
        let pcs: HashSet<u32> = self
            .sites
            .iter()
            .filter(|(_, s)| s.mdas > 0)
            .map(|(id, _)| id.pc)
            .collect();
        pcs.len()
    }

    /// MDA ratio over all memory accesses — Table I's **Ratio** column.
    pub fn mda_ratio(&self) -> f64 {
        if self.mem_accesses == 0 {
            0.0
        } else {
            self.mdas as f64 / self.mem_accesses as f64
        }
    }

    /// Bumps a block's heat counter; returns the new value.
    pub fn heat_block(&mut self, pc: u32) -> u64 {
        let h = self.block_heat.entry(pc).or_insert(0);
        *h += 1;
        *h
    }

    /// A block's current heat.
    pub fn block_heat(&self, pc: u32) -> u64 {
        self.block_heat.get(&pc).copied().unwrap_or(0)
    }

    /// Resets the heat and per-site statistics of every site whose PC is in
    /// `pcs` — used when a block is invalidated for retranslation so the
    /// new profiling window observes only the program's *current*
    /// behaviour.
    pub fn reset_block(&mut self, block_pc: u32, pcs: &HashSet<u32>) {
        self.block_heat.insert(block_pc, 0);
        self.sites.retain(|id, _| !pcs.contains(&id.pc));
    }

    /// Extracts the set of MDA sites as a training profile for static
    /// profiling.
    pub fn to_static_profile(&self) -> StaticProfile {
        StaticProfile {
            mda_sites: self
                .sites
                .iter()
                .filter(|(_, s)| s.mdas > 0)
                .map(|(id, _)| *id)
                .collect(),
        }
    }
}

/// A training-run profile for [`MdaStrategy::StaticProfiling`]: the set of
/// sites that misaligned at least once during the training run.
///
/// [`MdaStrategy::StaticProfiling`]: crate::config::MdaStrategy::StaticProfiling
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticProfile {
    mda_sites: HashSet<SiteId>,
}

impl StaticProfile {
    /// Empty profile (every site translated as aligned).
    pub fn new() -> StaticProfile {
        StaticProfile::default()
    }

    /// Builds a profile from an explicit site list.
    pub fn from_sites<I: IntoIterator<Item = SiteId>>(sites: I) -> StaticProfile {
        StaticProfile {
            mda_sites: sites.into_iter().collect(),
        }
    }

    /// Whether the training run saw an MDA at this site.
    pub fn contains(&self, site: SiteId) -> bool {
        self.mda_sites.contains(&site)
    }

    /// Number of flagged sites.
    pub fn len(&self) -> usize {
        self.mda_sites.len()
    }

    /// Whether no site was flagged.
    pub fn is_empty(&self) -> bool {
        self.mda_sites.is_empty()
    }

    /// The flagged sites in `(pc, slot)` order — the deterministic
    /// serialization order for persistent artifacts.
    pub fn sorted_sites(&self) -> Vec<SiteId> {
        let mut sites: Vec<SiteId> = self.mda_sites.iter().copied().collect();
        sites.sort();
        sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_ratios() {
        let mut p = Profile::new();
        let s1 = SiteId::new(0x100, 0);
        let s2 = SiteId::new(0x200, 0);
        for _ in 0..3 {
            p.record_access(s1, true);
        }
        p.record_access(s1, false);
        p.record_access(s2, false);
        assert_eq!(p.site(s1).execs, 4);
        assert_eq!(p.site(s1).mdas, 3);
        assert!((p.site(s1).mda_ratio() - 0.75).abs() < 1e-12);
        assert!(p.saw_mda(s1));
        assert!(!p.saw_mda(s2));
        assert_eq!(p.mem_accesses, 5);
        assert_eq!(p.mdas, 3);
        assert_eq!(p.nmi(), 1);
        assert!((p.mda_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nmi_counts_instructions_not_slots() {
        let mut p = Profile::new();
        p.record_access(SiteId::new(0x100, 0), true);
        p.record_access(SiteId::new(0x100, 1), true); // same instruction, RMW store
        p.record_access(SiteId::new(0x200, 0), true);
        assert_eq!(p.nmi(), 2);
    }

    #[test]
    fn block_heat_accumulates() {
        let mut p = Profile::new();
        assert_eq!(p.heat_block(0x400), 1);
        assert_eq!(p.heat_block(0x400), 2);
        assert_eq!(p.block_heat(0x400), 2);
        assert_eq!(p.block_heat(0x999), 0);
    }

    #[test]
    fn reset_block_clears_sites_and_heat() {
        let mut p = Profile::new();
        p.heat_block(0x400);
        p.record_access(SiteId::new(0x404, 0), true);
        p.record_access(SiteId::new(0x800, 0), true);
        let pcs: HashSet<u32> = [0x404].into_iter().collect();
        p.reset_block(0x400, &pcs);
        assert_eq!(p.block_heat(0x400), 0);
        assert!(!p.saw_mda(SiteId::new(0x404, 0)));
        assert!(p.saw_mda(SiteId::new(0x800, 0)));
        // Whole-program counters are preserved (Table I reporting).
        assert_eq!(p.mdas, 2);
    }

    #[test]
    fn static_profile_extraction() {
        let mut p = Profile::new();
        p.record_access(SiteId::new(0x1, 0), true);
        p.record_access(SiteId::new(0x2, 0), false);
        let sp = p.to_static_profile();
        assert_eq!(sp.len(), 1);
        assert!(sp.contains(SiteId::new(0x1, 0)));
        assert!(!sp.contains(SiteId::new(0x2, 0)));
        assert!(!sp.is_empty());
        assert!(StaticProfile::new().is_empty());
    }

    #[test]
    fn trap_recording() {
        let mut p = Profile::new();
        p.record_trap_mda(SiteId::new(0x10, 0));
        assert!(p.saw_mda(SiteId::new(0x10, 0)));
        assert_eq!(p.site(SiteId::new(0x10, 0)).execs, 1);
    }
}
