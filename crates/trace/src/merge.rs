//! Merging per-guest site tables from a multi-guest run.
//!
//! The execution service runs N independent guests, each with its own
//! [`Tracer`]; this module folds their site tables into one view keyed by
//! `(guest, pc)`. The key is the guest's *request slot index*, never the
//! worker thread that happened to execute it — worker assignment is a
//! scheduling accident, the slot index is part of the batch's identity.
//! That choice is what makes the merged table deterministic: the same
//! batch produces byte-identical JSONL whether it ran on one shard or
//! eight.

use crate::{jsonl, SiteTelemetry, Tracer};
use std::collections::BTreeMap;

/// Schema tag written in the merged table's `meta` line.
pub const MERGED_SCHEMA: &str = "bridge-trace-merged/1";

/// A multi-guest site table: per-site telemetry keyed by
/// `(guest index, guest PC)`, with deterministic iteration and export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergedSiteTable {
    rows: BTreeMap<(u64, u32), SiteTelemetry>,
}

impl MergedSiteTable {
    /// An empty table.
    pub fn new() -> MergedSiteTable {
        MergedSiteTable::default()
    }

    /// Folds one guest's site table in under index `guest`. Adding the
    /// same guest twice merges row-wise (counters accumulate). The index
    /// is `u64` so any batch slot fits without a narrowing cast — a
    /// `slot as u32` at the call site used to alias slots 2^32 apart
    /// into one row.
    pub fn add_guest(&mut self, guest: u64, tracer: &Tracer) {
        for (pc, s) in tracer.sites() {
            self.rows.entry((guest, pc)).or_default().merge(s);
        }
    }

    /// Number of `(guest, pc)` rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no guest contributed any site.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows in `(guest, pc)` order.
    pub fn rows(&self) -> impl Iterator<Item = ((u64, u32), &SiteTelemetry)> {
        self.rows.iter().map(|(k, s)| (*k, s))
    }

    /// Collapses across guests: one row per guest PC, counters summed,
    /// first-occurrence cycles taking the earliest across guests.
    pub fn collapse_by_pc(&self) -> BTreeMap<u32, SiteTelemetry> {
        let mut out: BTreeMap<u32, SiteTelemetry> = BTreeMap::new();
        for (&(_, pc), s) in &self.rows {
            out.entry(pc).or_default().merge(s);
        }
        out
    }

    /// The `n` hottest PCs across all guests, ordered by
    /// `cycles_attributed` descending, then trap count descending, then
    /// PC ascending (see [`hot_n`]).
    pub fn hot_sites(&self, n: usize) -> Vec<(u32, SiteTelemetry)> {
        hot_n(self.collapse_by_pc().into_iter(), n)
    }

    /// Serializes the table as JSONL: a `meta` line, then one
    /// `merged_site` line per `(guest, pc)` row in key order. Output is a
    /// pure function of the table contents.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let guests = self
            .rows
            .keys()
            .map(|&(g, _)| g)
            .collect::<std::collections::BTreeSet<u64>>()
            .len();
        jsonl::push_line(&mut out, |o| {
            o.str("type", "meta")
                .str("schema", MERGED_SCHEMA)
                .u64("rows", self.rows.len() as u64)
                .u64("guests", guests as u64);
        });
        for (&(guest, pc), s) in &self.rows {
            jsonl::push_line(&mut out, |o| {
                o.str("type", "merged_site")
                    .u64("guest", guest)
                    .u64("pc", u64::from(pc));
                jsonl::site_fields(o, s);
            });
        }
        out
    }
}

/// The `n` hottest entries of a `(pc, telemetry)` sequence, ordered by
/// `cycles_attributed` descending, then trap count descending, then PC
/// ascending. Every level is deterministic: two sites that cost the same
/// and trapped the same always come out in PC order, so hot-site tables
/// are reproducible across runs and platforms.
pub fn hot_n(
    sites: impl Iterator<Item = (u32, SiteTelemetry)>,
    n: usize,
) -> Vec<(u32, SiteTelemetry)> {
    let mut v: Vec<(u32, SiteTelemetry)> = sites.collect();
    v.sort_by(|a, b| {
        b.1.cycles_attributed
            .cmp(&a.1.cycles_attributed)
            .then(b.1.traps.cmp(&a.1.traps))
            .then(a.0.cmp(&b.0))
    });
    v.truncate(n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, TraceEvent};
    use bridge_metrics::json::{str_member, u64_member};

    fn guest_tracer(pc: u32, traps: u64, cost: u64) -> Tracer {
        let mut t = Tracer::new(&TraceConfig::default().with_bucket_cycles(100));
        for i in 0..traps {
            t.record(
                10 + i,
                TraceEvent::Trap {
                    site_pc: pc,
                    slot: 0,
                    cycles: cost,
                },
            );
        }
        t
    }

    #[test]
    fn rows_keyed_by_guest_then_pc() {
        let mut m = MergedSiteTable::new();
        m.add_guest(1, &guest_tracer(0x80, 1, 10));
        m.add_guest(0, &guest_tracer(0x40, 2, 10));
        let keys: Vec<(u64, u32)> = m.rows().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(0, 0x40), (1, 0x80)]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn collapse_sums_across_guests() {
        let mut m = MergedSiteTable::new();
        m.add_guest(0, &guest_tracer(0x40, 2, 10));
        m.add_guest(1, &guest_tracer(0x40, 3, 10));
        let collapsed = m.collapse_by_pc();
        assert_eq!(collapsed.len(), 1);
        let s = &collapsed[&0x40];
        assert_eq!(s.traps, 5);
        assert_eq!(s.cycles_attributed, 50);
        assert_eq!(s.first_trap_cycle, Some(10));
    }

    #[test]
    fn hot_sites_order_by_cost_then_pc() {
        let mut m = MergedSiteTable::new();
        m.add_guest(0, &guest_tracer(0x40, 1, 100));
        m.add_guest(0, &guest_tracer(0x80, 4, 100));
        m.add_guest(1, &guest_tracer(0x90, 1, 100));
        let hot = m.hot_sites(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, 0x80, "most cycles first");
        assert_eq!(hot[1].0, 0x40, "tie broken by PC ascending");
    }

    /// Regression for the full tie-break chain: equal attributed cycles
    /// order by trap count descending, and equal cycles *and* traps order
    /// by PC ascending — on both the merged table and the per-run tracer.
    #[test]
    fn hot_sites_tie_break_is_fully_deterministic() {
        // 0x90: 2 traps x 50 = 100 cycles; 0x40/0x80: 1 trap x 100 = 100.
        let mut m = MergedSiteTable::new();
        m.add_guest(0, &guest_tracer(0x80, 1, 100));
        m.add_guest(0, &guest_tracer(0x90, 2, 50));
        m.add_guest(0, &guest_tracer(0x40, 1, 100));
        let hot: Vec<u32> = m.hot_sites(3).into_iter().map(|(pc, _)| pc).collect();
        assert_eq!(
            hot,
            vec![0x90, 0x40, 0x80],
            "equal cycles: more traps first, then PC ascending"
        );

        // Same ordering out of a single tracer's hot_sites.
        let mut t = Tracer::new(&TraceConfig::default().with_bucket_cycles(100));
        for (pc, traps, cost) in [(0x80u32, 1u64, 100u64), (0x90, 2, 50), (0x40, 1, 100)] {
            for i in 0..traps {
                t.record(
                    10 + i,
                    TraceEvent::Trap {
                        site_pc: pc,
                        slot: 0,
                        cycles: cost,
                    },
                );
            }
        }
        let hot: Vec<u32> = t.hot_sites(3).into_iter().map(|(pc, _)| pc).collect();
        assert_eq!(hot, vec![0x90, 0x40, 0x80]);
    }

    /// Regression: the guest key is `u64`, so slot indices 2^32 apart
    /// stay distinct rows. Under the old `u32` key (and the `slot as
    /// u32` cast at the serve call site) both guests below aliased to
    /// index 1 and their telemetry merged into a single row.
    #[test]
    fn guest_indices_past_u32_do_not_alias() {
        let mut m = MergedSiteTable::new();
        m.add_guest(1, &guest_tracer(0x40, 2, 10));
        m.add_guest((1u64 << 32) | 1, &guest_tracer(0x40, 3, 10));
        assert_eq!(m.len(), 2, "high slot must not collapse onto slot 1");
        let keys: Vec<(u64, u32)> = m.rows().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(1, 0x40), ((1u64 << 32) | 1, 0x40)]);
        // Each row keeps its own counters rather than a silent merge.
        let traps: Vec<u64> = m.rows().map(|(_, s)| s.traps).collect();
        assert_eq!(traps, vec![2, 3]);
        // The JSONL export round-trips the full 64-bit index.
        let s = m.to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(u64_member(lines[0], "guests"), Some(2));
        assert_eq!(u64_member(lines[2], "guest"), Some((1u64 << 32) | 1));
    }

    #[test]
    fn jsonl_is_deterministic_and_scannable() {
        let mut a = MergedSiteTable::new();
        a.add_guest(1, &guest_tracer(0x80, 1, 10));
        a.add_guest(0, &guest_tracer(0x40, 2, 10));
        // Same contents, different insertion order.
        let mut b = MergedSiteTable::new();
        b.add_guest(0, &guest_tracer(0x40, 2, 10));
        b.add_guest(1, &guest_tracer(0x80, 1, 10));
        assert_eq!(a.to_jsonl(), b.to_jsonl());

        let s = a.to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(str_member(lines[0], "type"), Some("meta"));
        assert_eq!(str_member(lines[0], "schema"), Some(MERGED_SCHEMA));
        assert_eq!(u64_member(lines[0], "rows"), Some(2));
        assert_eq!(u64_member(lines[0], "guests"), Some(2));
        assert_eq!(str_member(lines[1], "type"), Some("merged_site"));
        assert_eq!(u64_member(lines[1], "guest"), Some(0));
        assert_eq!(u64_member(lines[1], "pc"), Some(0x40));
        assert_eq!(u64_member(lines[1], "traps"), Some(2));
    }
}
