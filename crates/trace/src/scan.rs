//! Whole-trace scanner: reads a JSONL trace back into aggregate form.
//!
//! Accepts both trace layouts — the in-memory serializer's
//! `bridge-trace/1` (aggregates first, retained events last) and the
//! streaming sink's `bridge-trace-stream/1` (events first, aggregates and
//! a `summary` line at finish) — since both use the same line shapes. The
//! scanner rebuilds the site table and the [`Timeline`] series, counts
//! events, and *counts* everything it cannot interpret instead of
//! silently skipping it: unknown schema versions, unknown record types
//! and malformed lines all land in [`ScanWarnings`], which `trace_report`
//! prints so a reader knows when a trace was written by a newer tool.
//!
//! The scanner is the input side of the cross-run diff
//! ([`crate::diff`]): two scanned traces of the same workload align by
//! guest PC and by timeline bucket.

use crate::{jsonl, SiteTelemetry, Timeline};
use bridge_metrics::json::{member, str_member, u64_member};
use std::collections::BTreeMap;

/// Schema versions this scanner knows how to interpret.
pub const KNOWN_SCHEMAS: [&str; 2] = [jsonl::SCHEMA, crate::sink::STREAM_SCHEMA];

/// Counts of lines the scanner could not fully interpret. Non-zero values
/// do not abort the scan — known line shapes are still read — but they
/// mean the trace holds more than this reader understands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanWarnings {
    /// Lines declaring a schema version outside [`KNOWN_SCHEMAS`].
    pub unknown_schema: u64,
    /// Lines whose `type` tag is not a known record type.
    pub unknown_records: u64,
    /// Lines with no parsable `type` tag at all (or a known type missing
    /// its key fields).
    pub malformed: u64,
}

impl ScanWarnings {
    /// Whether anything at all was skipped or only partially read.
    pub fn any(&self) -> bool {
        self.unknown_schema > 0 || self.unknown_records > 0 || self.malformed > 0
    }

    /// Total problematic lines.
    pub fn total(&self) -> u64 {
        self.unknown_schema + self.unknown_records + self.malformed
    }
}

/// A trace read back from JSONL: the aggregate state needed for reports
/// and diffs, plus the scan's warning counters.
#[derive(Debug, Clone)]
pub struct ScannedTrace {
    /// The schema tag of the first `meta` line, if one was present.
    pub schema: Option<String>,
    /// Per-site telemetry keyed by guest PC.
    pub sites: BTreeMap<u32, SiteTelemetry>,
    /// The reconstructed timeline (bucket series + truncation state).
    pub timeline: Timeline,
    /// `event` lines seen.
    pub events: u64,
    /// Records the writer evicted without streaming (from the
    /// `meta`/`summary` line's `dropped` field).
    pub dropped: u64,
    /// What the scanner could not interpret.
    pub warnings: ScanWarnings,
}

impl ScannedTrace {
    /// Scans a whole JSONL document. Never fails: unreadable lines are
    /// counted in [`ScannedTrace::warnings`] and skipped. Empty input
    /// yields an empty trace with zero warnings.
    pub fn scan(text: &str) -> ScannedTrace {
        let mut schema: Option<String> = None;
        let mut sites: BTreeMap<u32, SiteTelemetry> = BTreeMap::new();
        let mut traps: Vec<u64> = Vec::new();
        let mut monitor_exits: Vec<u64> = Vec::new();
        let mut patches: Vec<u64> = Vec::new();
        let mut guest_insns: Vec<u64> = Vec::new();
        let mut bucket_cycles: u64 = 1;
        let mut truncated = false;
        let mut folded_traps: u64 = 0;
        let mut events: u64 = 0;
        let mut dropped: u64 = 0;
        let mut warnings = ScanWarnings::default();

        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Some(ty) = str_member(line, "type") else {
                warnings.malformed += 1;
                continue;
            };
            match ty {
                "meta" | "summary" => {
                    match str_member(line, "schema") {
                        Some(s) if KNOWN_SCHEMAS.contains(&s) => {
                            schema.get_or_insert_with(|| s.to_string());
                        }
                        Some(s) => {
                            warnings.unknown_schema += 1;
                            schema.get_or_insert_with(|| s.to_string());
                        }
                        None => warnings.malformed += 1,
                    }
                    if let Some(v) = u64_member(line, "bucket_cycles") {
                        bucket_cycles = v;
                    }
                    if member(line, "truncated") == Some("true") {
                        truncated = true;
                    }
                    if let Some(v) = u64_member(line, "folded_traps") {
                        folded_traps = v;
                    }
                    if let Some(v) = u64_member(line, "dropped") {
                        dropped = v;
                    }
                }
                "site" => match u64_member(line, "pc") {
                    Some(pc) => {
                        sites.insert(pc as u32, scan_site(line));
                    }
                    None => warnings.malformed += 1,
                },
                "bucket" => match u64_member(line, "index") {
                    Some(i) => {
                        let i = i as usize;
                        set_at(&mut traps, i, u64_member(line, "traps"));
                        set_at(&mut monitor_exits, i, u64_member(line, "monitor_exits"));
                        set_at(&mut patches, i, u64_member(line, "patches"));
                        set_at(&mut guest_insns, i, u64_member(line, "guest_insns"));
                    }
                    None => warnings.malformed += 1,
                },
                "event" => events += 1,
                // The merged multi-guest table shares the line reader
                // but not this aggregate shape.
                _ => warnings.unknown_records += 1,
            }
        }

        ScannedTrace {
            schema,
            sites,
            timeline: Timeline::from_parts(
                bucket_cycles,
                traps,
                monitor_exits,
                patches,
                guest_insns,
                truncated,
                folded_traps,
            ),
            events,
            dropped,
            warnings,
        }
    }

    /// Total traps across all sites.
    pub fn total_traps(&self) -> u64 {
        self.sites.values().map(|s| s.traps).sum()
    }
}

fn scan_site(line: &str) -> SiteTelemetry {
    let f = |key| u64_member(line, key).unwrap_or(0);
    SiteTelemetry {
        traps: f("traps"),
        os_fixups: f("os_fixups"),
        patches: f("patches"),
        rearrangements: f("rearrangements"),
        reversions: f("reversions"),
        first_trap_cycle: u64_member(line, "first_trap_cycle"),
        patch_cycle: u64_member(line, "patch_cycle"),
        cycles_attributed: f("cycles_attributed"),
        execs: f("execs"),
        mdas: f("mdas"),
    }
}

fn set_at(v: &mut Vec<u64>, i: usize, n: Option<u64>) {
    let Some(n) = n else { return };
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] = n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sink::StreamingJsonl, ConvergenceVerdict, TraceConfig, TraceEvent, Tracer};

    fn sample_tracer() -> Tracer {
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
        t.progress(180, 400);
        t.merge_profile_site(0x40, 12, 7);
        t
    }

    #[test]
    fn scan_roundtrips_the_aggregate_serializer() {
        let t = sample_tracer();
        let scanned = ScannedTrace::scan(&jsonl::to_string(&t));
        assert_eq!(scanned.schema.as_deref(), Some(jsonl::SCHEMA));
        assert!(!scanned.warnings.any());
        assert_eq!(scanned.events, 3);
        assert_eq!(scanned.sites.len(), 1);
        let s = &scanned.sites[&0x40];
        assert_eq!((s.traps, s.patches, s.execs, s.mdas), (1, 1, 12, 7));
        assert_eq!(s.patch_cycle, Some(20));
        // The serializer writes every bucket up to the active span, so a
        // series may come back padded with trailing zeros; the *content*
        // must round-trip exactly.
        assert_eq!(scanned.timeline.traps()[..1], t.timeline().traps()[..]);
        assert_eq!(scanned.timeline.traps()[1..], [0]);
        assert_eq!(
            scanned.timeline.guest_insns(),
            t.timeline().guest_insns(),
            "the longest series is unpadded"
        );
        assert_eq!(scanned.timeline.verdict(), t.timeline().verdict());
        assert_eq!(scanned.timeline.verdict(), ConvergenceVerdict::Converged);
    }

    #[test]
    fn scan_roundtrips_the_streaming_sink() {
        let mut t = sample_tracer();
        t.set_sink(Box::new(StreamingJsonl::new(Vec::new())));
        // Re-record through the streaming path to exercise evictions.
        for i in 0..20u64 {
            t.record(
                200 + i,
                TraceEvent::Trap {
                    site_pc: 0x80,
                    slot: 1,
                    cycles: 10,
                },
            );
        }
        t.finish_sink().unwrap().unwrap();
        let text = String::from_utf8(t.take_sink_output().unwrap()).unwrap();
        let scanned = ScannedTrace::scan(&text);
        assert_eq!(scanned.schema.as_deref(), Some(crate::sink::STREAM_SCHEMA));
        assert!(!scanned.warnings.any());
        // Streaming is full fidelity: all 23 records (3 before attach, 20
        // after) reach the sink — the pre-attach ones via later eviction.
        assert_eq!(scanned.events, 23);
        assert_eq!(scanned.dropped, 0);
        assert_eq!(scanned.sites[&0x80].traps, 20);
        assert_eq!(scanned.total_traps(), 21);
    }

    /// Satellite: unknown schema versions are a *counted warning*, not a
    /// silent skip — and known line shapes in the same file still load.
    #[test]
    fn unknown_schema_is_counted_not_silent() {
        let text = "{\"type\":\"meta\",\"schema\":\"bridge-trace/99\",\"bucket_cycles\":50}\n\
                    {\"type\":\"site\",\"pc\":64,\"traps\":3,\"cycles_attributed\":30}\n\
                    {\"type\":\"hologram\",\"pc\":1}\n\
                    not json at all\n";
        let scanned = ScannedTrace::scan(text);
        assert_eq!(scanned.warnings.unknown_schema, 1);
        assert_eq!(scanned.warnings.unknown_records, 1);
        assert_eq!(scanned.warnings.malformed, 1);
        assert_eq!(scanned.warnings.total(), 3);
        assert!(scanned.warnings.any());
        // The declared (unknown) schema is still reported for diagnostics,
        // and the site line was read anyway.
        assert_eq!(scanned.schema.as_deref(), Some("bridge-trace/99"));
        assert_eq!(scanned.sites[&64].traps, 3);
        assert_eq!(scanned.timeline.bucket_cycles(), 50);
    }

    #[test]
    fn empty_input_scans_clean() {
        let scanned = ScannedTrace::scan("");
        assert!(!scanned.warnings.any());
        assert_eq!(scanned.events, 0);
        assert!(scanned.sites.is_empty());
        assert_eq!(scanned.schema, None);
    }
}
