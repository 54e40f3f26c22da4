//! Run reports: everything the experiments need to print the paper's
//! tables and figures.

use crate::profile::Profile;
use bridge_sim::stats::Stats;
use bridge_x86::state::CpuState;
use std::fmt;

/// The result of a completed DBT run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Guest-visible final state (flags are not synchronized from
    /// translated code; compare registers and memory).
    pub final_state: CpuState,
    /// Host machine statistics, including total cycles and trap counts.
    pub stats: Stats,
    /// Guest instructions executed by the phase-1 interpreter.
    pub guest_insns_interpreted: u64,
    /// Estimated guest instructions executed as translated code (block
    /// entries × block length; chained executions are counted via host
    /// block entries where observable).
    pub blocks_translated: u64,
    /// Block retranslations performed (§IV-C).
    pub retranslations: u64,
    /// Sites patched by the exception handler (§IV).
    pub patched_sites: u64,
    /// Blocks rearranged inline by the handler (§IV-A).
    pub rearrangements: u64,
    /// Figure 8 adaptive reversions (sites converted back to plain
    /// accesses after a long aligned streak).
    pub reversions: u64,
    /// Misaligned accesses fixed up in software by the OS-style handler
    /// (per occurrence — the profiling-based mechanisms' failure mode).
    pub os_fixups: u64,
    /// Exit slots chained into direct branches.
    pub chains: u64,
    /// Monitor round-trips out of translated code (`Exit::Monitor`). This
    /// is the count in-code-cache dispatch exists to shrink.
    pub monitor_exits: u64,
    /// Dynamic transfers resolved by the inline IBTC probe without leaving
    /// the code cache.
    pub ibtc_hits: u64,
    /// Dynamic-target exits that missed the IBTC and paid the monitor.
    pub ibtc_misses: u64,
    /// Returns resolved by the shadow return stack (an IBTC probe was not
    /// even needed).
    pub ras_hits: u64,
    /// Guest instructions retired by translated code — exact when the run
    /// used [`DbtConfig::count_retired`], zero otherwise.
    ///
    /// [`DbtConfig::count_retired`]: crate::config::DbtConfig::count_retired
    pub guest_insns_retired: u64,
    /// Whole-cache flushes forced by stub-region exhaustion. A full code
    /// region never flushes: it evicts least-recently-used blocks (the
    /// `dbt.code_cache.evictions` counter).
    pub cache_flushes: u64,
    /// Blocks permanently left to the interpreter (translator fallback).
    pub interp_only_blocks: u64,
    /// Monitor dispatches resolved by the next-TB hint without a
    /// block-table lookup. Deterministic (a pure host-side memo), so it
    /// is safe in the report the determinism tests compare.
    pub hint_hits: u64,
    /// Monitor dispatches to a translated block that needed the
    /// block-table lookup (the hint missed). `hint_hits + hint_misses`
    /// is the total TB-lookup demand the hint is measured against;
    /// dispatches to untranslated blocks count in neither.
    pub hint_misses: u64,
    /// The accumulated profile (Table I columns, Figure 15 ratios).
    pub profile: Profile,
}

impl RunReport {
    /// Total cycles of the run (the paper's execution-time metric).
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Total misalignment traps delivered (Table III's undetected MDAs
    /// under dynamic profiling are exactly these).
    pub fn traps(&self) -> u64 {
        self.stats.unaligned_traps
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles            {:>16}", self.cycles())?;
        writeln!(f, "traps             {:>16}", self.traps())?;
        writeln!(f, "os fixups         {:>16}", self.os_fixups)?;
        writeln!(f, "patched sites     {:>16}", self.patched_sites)?;
        writeln!(f, "rearrangements    {:>16}", self.rearrangements)?;
        writeln!(f, "reversions        {:>16}", self.reversions)?;
        writeln!(f, "retranslations    {:>16}", self.retranslations)?;
        writeln!(f, "blocks translated {:>16}", self.blocks_translated)?;
        writeln!(f, "chains            {:>16}", self.chains)?;
        writeln!(f, "monitor exits     {:>16}", self.monitor_exits)?;
        writeln!(f, "ibtc hits         {:>16}", self.ibtc_hits)?;
        writeln!(f, "ibtc misses       {:>16}", self.ibtc_misses)?;
        writeln!(f, "ras hits          {:>16}", self.ras_hits)?;
        writeln!(f, "cache flushes     {:>16}", self.cache_flushes)?;
        writeln!(f, "interp-only       {:>16}", self.interp_only_blocks)?;
        writeln!(f, "hint hits         {:>16}", self.hint_hits)?;
        writeln!(f, "hint misses       {:>16}", self.hint_misses)?;
        writeln!(f, "interp insns      {:>16}", self.guest_insns_interpreted)?;
        writeln!(f, "retired insns     {:>16}", self.guest_insns_retired)?;
        writeln!(f, "guest mdas seen   {:>16}", self.profile.mdas)?;
        write!(f, "host: {}", self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_counters() {
        let r = RunReport {
            final_state: CpuState::new(0),
            stats: Stats {
                cycles: 123,
                unaligned_traps: 4,
                ..Stats::new()
            },
            guest_insns_interpreted: 10,
            blocks_translated: 2,
            retranslations: 1,
            patched_sites: 3,
            rearrangements: 0,
            reversions: 0,
            os_fixups: 7,
            chains: 5,
            monitor_exits: 42,
            ibtc_hits: 9,
            ibtc_misses: 2,
            ras_hits: 6,
            guest_insns_retired: 11,
            cache_flushes: 8,
            interp_only_blocks: 0,
            hint_hits: 13,
            hint_misses: 4,
            profile: Profile::new(),
        };
        let s = r.to_string();
        assert!(s.contains("123"));
        assert!(s.contains("traps"));
        // Every dispatch counter the BENCH dispatch section reads must be
        // visible in the human-readable report too.
        assert!(s.contains("monitor exits"));
        assert!(s.contains("ibtc hits"));
        assert!(s.contains("ibtc misses"));
        assert!(s.contains("ras hits"));
        assert!(s.contains("chains"));
        assert!(s.contains("retired insns"));
        assert!(s.contains("cache flushes"));
        assert!(s.contains("hint hits"));
        assert!(s.contains("hint misses"));
        // And their values actually flow through to the text.
        for val in ["42", "9", "2", "6", "5", "11", "8", "13"] {
            assert!(s.contains(val), "missing counter value {val} in:\n{s}");
        }
        assert_eq!(r.cycles(), 123);
        assert_eq!(r.traps(), 4);
    }
}
