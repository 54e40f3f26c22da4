//! JSONL serialization of traces.
//!
//! One self-describing JSON object per line, in a fixed order: a `meta`
//! header, the per-site table (ordered by guest PC), the timeline buckets
//! (ordered by index), then the retained events (oldest first). Every
//! line goes through the workspace's one JSON writer
//! ([`bridge_metrics::json`]), and readers — the scanner, `trace_report`
//! and the tests — take lines apart with its reader
//! ([`json::member`], [`json::u64_member`], [`json::str_member`]).

use crate::{SiteTelemetry, TraceEvent, TraceRecord, Tracer};
use bridge_metrics::json::{self, Object};

/// Schema tag written in the `meta` line.
pub const SCHEMA: &str = "bridge-trace/1";

/// Serializes the tracer to JSONL.
pub fn to_string(t: &Tracer) -> String {
    let mut out = String::new();
    let tl = t.timeline();
    push_line(&mut out, |o| {
        o.str("type", "meta")
            .str("schema", SCHEMA)
            .u64("bucket_cycles", tl.bucket_cycles())
            .u64("buckets", tl.active_buckets() as u64)
            .bool("truncated", tl.truncated())
            .u64("folded_traps", tl.folded_traps())
            .u64("sites", t.sites().count() as u64)
            .u64("ring_events", t.event_count() as u64)
            .u64("dropped", t.dropped());
    });
    push_aggregates(&mut out, t);
    for rec in t.events() {
        push_event_line(&mut out, rec);
    }
    out
}

/// Appends one newline-terminated JSON object line.
pub(crate) fn push_line(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    json::object(out, body);
    out.push('\n');
}

/// Appends the `site` lines (by guest PC) then the `bucket` lines (by
/// index) — the aggregate block shared by the whole-tracer serializer
/// above and the streaming sink's finish
/// ([`crate::sink::StreamingJsonl`]).
pub(crate) fn push_aggregates(out: &mut String, t: &Tracer) {
    for (pc, s) in t.sites() {
        push_line(out, |o| {
            o.str("type", "site").u64("pc", u64::from(pc));
            site_fields(o, s);
        });
    }
    let tl = t.timeline();
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    for i in 0..tl.active_buckets() {
        push_line(out, |o| {
            o.str("type", "bucket")
                .u64("index", i as u64)
                .u64("traps", at(tl.traps(), i))
                .u64("monitor_exits", at(tl.monitor_exits(), i))
                .u64("patches", at(tl.patches(), i))
                .u64("guest_insns", at(tl.guest_insns(), i));
        });
    }
}

/// Appends one `event` line. This is the hot path of full-fidelity
/// streaming — the sink serializes every ring-evicted record through it
/// into a reused buffer — and the writer's integer path keeps it free
/// of allocation and `format!` machinery.
pub fn push_event_line(out: &mut String, rec: &TraceRecord) {
    push_line(out, |o| {
        o.str("type", "event")
            .u64("cycle", rec.cycle)
            .str("kind", rec.event.kind())
            .opt_u64("pc", rec.event.guest_pc().map(u64::from));
        match rec.event {
            TraceEvent::Trap { cycles, slot, .. } | TraceEvent::EhPatch { cycles, slot, .. } => {
                o.u64("slot", u64::from(slot)).u64("cost", cycles)
            }
            TraceEvent::OsFixup { cycles, .. } => o.u64("cost", cycles),
            TraceEvent::Rearrangement {
                block_pc, cycles, ..
            } => o.u64("block", u64::from(block_pc)).u64("cost", cycles),
            TraceEvent::InCacheHits { ibtc, ras } => o.u64("ibtc", ibtc).u64("ras", ras),
            TraceEvent::ChainBackpatch { target_pc, .. } => o.u64("target", u64::from(target_pc)),
            TraceEvent::CacheFlush { blocks } | TraceEvent::ImageLoad { blocks } => {
                o.u64("blocks", blocks)
            }
            TraceEvent::ImageReject { code } => o.u64("code", u64::from(code)),
            TraceEvent::EdgeAdmit { tenant, id } => {
                o.u64("tenant", u64::from(tenant)).u64("id", id)
            }
            TraceEvent::EdgeShed { tenant, id, code } => o
                .u64("tenant", u64::from(tenant))
                .u64("id", id)
                .u64("code", u64::from(code)),
            TraceEvent::EdgeDeadline {
                tenant,
                id,
                waited_us,
            } => o
                .u64("tenant", u64::from(tenant))
                .u64("id", id)
                .u64("waited_us", waited_us),
            _ => o,
        };
    });
}

/// The shared field tail of a site line (everything after the key
/// fields), used by both the per-run lines above and the merged
/// multi-guest table ([`crate::merge::MergedSiteTable::to_jsonl`]) so
/// readers scan one layout.
pub(crate) fn site_fields(o: &mut Object<'_>, s: &SiteTelemetry) {
    o.u64("traps", s.traps)
        .u64("os_fixups", s.os_fixups)
        .u64("patches", s.patches)
        .u64("rearrangements", s.rearrangements)
        .u64("reversions", s.reversions)
        .opt_u64("first_trap_cycle", s.first_trap_cycle)
        .opt_u64("patch_cycle", s.patch_cycle)
        .u64("cycles_attributed", s.cycles_attributed)
        .u64("execs", s.execs)
        .u64("mdas", s.mdas);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;
    use json::{str_member, u64_member};

    fn sample() -> Tracer {
        let mut t = Tracer::new(
            &TraceConfig::default()
                .with_bucket_cycles(100)
                .with_ring_capacity(8),
        );
        t.record(
            10,
            TraceEvent::Trap {
                site_pc: 0x40,
                slot: 0,
                cycles: 1000,
            },
        );
        t.record(
            20,
            TraceEvent::EhPatch {
                site_pc: 0x40,
                slot: 0,
                cycles: 334,
            },
        );
        t.record(150, TraceEvent::MonitorExit { next_pc: 0x44 });
        t.record(160, TraceEvent::InCacheHits { ibtc: 5, ras: 2 });
        t.progress(180, 400);
        t.merge_profile_site(0x40, 12, 7);
        t
    }

    #[test]
    fn roundtrip_via_scanners() {
        let s = to_string(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(str_member(lines[0], "type"), Some("meta"));
        assert_eq!(str_member(lines[0], "schema"), Some(SCHEMA));
        assert_eq!(u64_member(lines[0], "bucket_cycles"), Some(100));
        assert_eq!(u64_member(lines[0], "sites"), Some(1));

        let site = lines
            .iter()
            .find(|l| str_member(l, "type") == Some("site"))
            .unwrap();
        assert_eq!(u64_member(site, "pc"), Some(0x40));
        assert_eq!(u64_member(site, "traps"), Some(1));
        assert_eq!(u64_member(site, "patch_cycle"), Some(20));
        assert_eq!(u64_member(site, "execs"), Some(12));
        assert_eq!(u64_member(site, "mdas"), Some(7));

        let buckets: Vec<&&str> = lines
            .iter()
            .filter(|l| str_member(l, "type") == Some("bucket"))
            .collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(u64_member(buckets[0], "traps"), Some(1));
        assert_eq!(u64_member(buckets[0], "patches"), Some(1));
        assert_eq!(u64_member(buckets[1], "monitor_exits"), Some(1));
        assert_eq!(u64_member(buckets[1], "guest_insns"), Some(400));

        let events: Vec<&&str> = lines
            .iter()
            .filter(|l| str_member(l, "type") == Some("event"))
            .collect();
        assert_eq!(events.len(), 4);
        assert_eq!(str_member(events[0], "kind"), Some("trap"));
        assert_eq!(u64_member(events[0], "cost"), Some(1000));
        assert_eq!(str_member(events[3], "kind"), Some("in_cache_hits"));
        assert_eq!(u64_member(events[3], "ibtc"), Some(5));
        assert_eq!(u64_member(events[3], "pc"), None, "no attribution is null");
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(to_string(&sample()), to_string(&sample()));
    }
}
