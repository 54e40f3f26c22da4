//! Structured tracing and per-site MDA telemetry for DigitalBridge-RS.
//!
//! The paper's whole argument is *temporal and per-site*: the adaptive
//! mechanisms (Exception Handling, DPEH) win because misaligned sites are
//! discovered one trap at a time and patched, while the profiling-based
//! mechanisms keep trapping at every un-caught site forever. End-of-run
//! aggregates cannot show that; this crate records *when* and *where*
//! things happened:
//!
//! * [`TraceEvent`] — compact enum events for every engine decision point
//!   (translation, retranslation, misalignment trap, EH patch,
//!   rearrangement, reversion, phase transition, IBTC hit/miss, RAS hit,
//!   chain backpatch, cache invalidate/flush), each stamped with the
//!   simulated cycle count and guest-PC attribution and kept in a bounded
//!   ring buffer ([`Tracer`]);
//! * [`SiteTelemetry`] — a per-guest-PC table (traps seen, misaligned
//!   executions, cycles attributed to handling, first-trap cycle, patch
//!   cycle) reproducing the paper's site-level story;
//! * [`Timeline`] — fixed-width cycle-bucket histograms of trap rate,
//!   monitor exits, patches and guest progress, which make the adaptive
//!   convergence curve of EH/DPEH (traps decay to zero after the last
//!   patch) vs. the flat trap rate of dynamic profiling directly visible;
//! * [`jsonl`] — a zero-dependency JSONL sink plus the line-scanning
//!   helpers tests and tools use to read it back;
//! * [`span`] — hierarchical request-scoped spans (parent IDs, dual
//!   wall + simulated-cycle timestamps) with JSONL, Chrome trace-event
//!   and folded-stack flamegraph exports.
//!
//! A disabled tracer ([`Tracer::disabled`]) reduces every record call to a
//! single predictable branch and allocates nothing — and recording never
//! charges simulated cycles, so traced and untraced runs produce identical
//! experiment tables by construction (asserted by the perf harness and the
//! `trace_timeline` integration tests).

pub mod diff;
pub mod jsonl;
pub mod merge;
pub mod scan;
pub mod sink;
pub mod site;
pub mod span;
pub mod timeline;
pub mod watch;

pub use diff::TraceDiff;
pub use merge::MergedSiteTable;
pub use scan::ScannedTrace;
pub use sink::{SinkSummary, StreamingJsonl, TraceSink};
pub use site::SiteTelemetry;
pub use span::{SpanConfig, SpanId, SpanKind, SpanRecord, SpanRecorder};
pub use timeline::{ConvergenceVerdict, Timeline};
pub use watch::{
    SiteTransition, SiteVerdict, SiteWatch, SiteWatchStats, WatchConfig, WindowEvidence,
};

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Tuning knobs for a [`Tracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum records retained in the event ring; the oldest records are
    /// evicted (and counted as dropped) beyond this. Aggregates — the site
    /// table and the timelines — are cumulative and unaffected by
    /// eviction, so memory stays bounded on arbitrarily long runs.
    pub ring_capacity: usize,
    /// Width of one timeline bucket in simulated cycles.
    pub bucket_cycles: u64,
    /// Maximum number of timeline buckets; activity past the end
    /// accumulates in the last bucket and sets
    /// [`Timeline::truncated`](timeline::Timeline::truncated).
    pub max_buckets: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            ring_capacity: 1 << 16,
            bucket_cycles: 1 << 15,
            max_buckets: 4096,
        }
    }
}

impl TraceConfig {
    /// Builder-style: set the timeline bucket width in cycles.
    pub fn with_bucket_cycles(mut self, cycles: u64) -> TraceConfig {
        self.bucket_cycles = cycles.max(1);
        self
    }

    /// Builder-style: set the event-ring capacity.
    pub fn with_ring_capacity(mut self, cap: usize) -> TraceConfig {
        self.ring_capacity = cap;
        self
    }
}

/// One engine event. Guest-PC attribution is carried inline; events that
/// summarize batched machine work ([`TraceEvent::InCacheHits`]) carry
/// counts instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A block was translated and installed.
    BlockTranslated {
        /// Guest PC of the block entry.
        guest_pc: u32,
    },
    /// A block crossed its trap threshold and was invalidated for
    /// retranslation (§IV-C).
    Retranslation {
        /// Guest PC of the block entry.
        block_pc: u32,
    },
    /// The very first translation of the run: the program left the
    /// interpret-and-profile phase (the two-phase engine's phase 1 → 2
    /// transition; under DPEH this is where profiling decisions freeze and
    /// the exception handler takes over discovery).
    PhaseTransition {
        /// Guest PC of the first translated block.
        guest_pc: u32,
    },
    /// A misalignment trap was delivered to the engine's handler.
    Trap {
        /// Guest PC of the faulting instruction.
        site_pc: u32,
        /// Access slot within the instruction (0 or 1).
        slot: u8,
        /// Cycles the trap delivery itself cost (kernel entry + signal).
        cycles: u64,
    },
    /// The OS-style software fixup emulated the access (the
    /// profiling-based mechanisms' per-occurrence failure mode).
    OsFixup {
        /// Guest PC of the faulting instruction.
        site_pc: u32,
        /// Cycles the fixup cost on top of trap delivery.
        cycles: u64,
    },
    /// The exception handler patched the site into a branch to an MDA
    /// stub (§IV, Figure 5).
    EhPatch {
        /// Guest PC of the patched instruction.
        site_pc: u32,
        /// Access slot within the instruction (0 or 1).
        slot: u8,
        /// Cycles charged for stub build + code patch.
        cycles: u64,
    },
    /// The handler retranslated the block with the site inlined (§IV-A).
    Rearrangement {
        /// Guest PC of the containing block.
        block_pc: u32,
        /// Guest PC of the discovered site.
        site_pc: u32,
        /// Cycles charged for the relocation work.
        cycles: u64,
    },
    /// Figure 8 adaptive code observed a long aligned streak and reverted
    /// the site to a plain access.
    Reversion {
        /// Guest PC of the reverted site.
        site_pc: u32,
    },
    /// Translated code exited to the monitor for dispatch.
    MonitorExit {
        /// Guest PC being dispatched to.
        next_pc: u32,
    },
    /// An inline IBTC probe missed and paid the monitor round-trip.
    IbtcMiss {
        /// Guest PC the probe was resolving.
        next_pc: u32,
    },
    /// Batched in-cache dispatch hits since the last machine exit (the
    /// emitted probes bump counter registers; the engine reads the deltas).
    InCacheHits {
        /// Transfers resolved by the inline IBTC probe.
        ibtc: u64,
        /// Returns resolved by the shadow return stack.
        ras: u64,
    },
    /// An exit slot was backpatched into a direct branch.
    ChainBackpatch {
        /// Guest PC of the chaining block.
        block_pc: u32,
        /// Guest PC of the chain target.
        target_pc: u32,
    },
    /// A translated block was invalidated (code write, rearrangement,
    /// retranslation or reversion).
    CacheInvalidate {
        /// Guest PC of the removed block.
        block_pc: u32,
    },
    /// The whole code cache was flushed (allocation pressure).
    CacheFlush {
        /// Number of blocks discarded.
        blocks: u64,
    },
    /// A shared-cache entry was evicted under capacity pressure (LRU
    /// policy). Emitted exactly once per evicted block, by the engine
    /// whose allocation forced the eviction.
    CacheEvict {
        /// Guest PC of the evicted block.
        block_pc: u32,
    },
    /// A persistent AOT translation image was validated and restored
    /// into a shared cache at warm start. Emitted once per restored
    /// image by the serving layer (cycle 0 — before any engine runs).
    ImageLoad {
        /// Number of translated blocks restored from the artifact.
        blocks: u64,
    },
    /// An engine's install was served by a block restored from an AOT
    /// image instead of invoking the translator.
    ImageHit {
        /// Guest PC of the preloaded block.
        block_pc: u32,
    },
    /// A persistent artifact was present but failed validation (bad
    /// magic, version, checksum, or stale key) and was rejected whole —
    /// the context falls back to fresh translation.
    ImageReject {
        /// Stable reject code (`ImageError::code` in `bridge-dbt`).
        code: u32,
    },
    /// The network edge admitted a request into the bounded work queue
    /// (recorded by the serving layer at cycle 0 — admission happens in
    /// the wall domain, before any engine runs).
    EdgeAdmit {
        /// Submitting tenant.
        tenant: u32,
        /// Client-assigned request id, echoed in the response.
        id: u64,
    },
    /// The edge shed a request instead of queuing it: the queue was
    /// full, the tenant was over quota, or the listener was shutting
    /// down. The client received a typed rejection.
    EdgeShed {
        /// Submitting tenant.
        tenant: u32,
        /// Client-assigned request id.
        id: u64,
        /// Stable shed code (`EdgeStatus` discriminant in `bridge-serve`).
        code: u32,
    },
    /// A request's deadline expired — at admission, or while it sat in
    /// the queue (in which case it was dropped at dispatch, *never*
    /// executed).
    EdgeDeadline {
        /// Submitting tenant.
        tenant: u32,
        /// Client-assigned request id.
        id: u64,
        /// Wall microseconds the request had waited when it was shed.
        waited_us: u64,
    },
}

impl TraceEvent {
    /// Short machine-readable kind tag (the JSONL `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::BlockTranslated { .. } => "translate",
            TraceEvent::Retranslation { .. } => "retranslate",
            TraceEvent::PhaseTransition { .. } => "phase",
            TraceEvent::Trap { .. } => "trap",
            TraceEvent::OsFixup { .. } => "os_fixup",
            TraceEvent::EhPatch { .. } => "patch",
            TraceEvent::Rearrangement { .. } => "rearrange",
            TraceEvent::Reversion { .. } => "reversion",
            TraceEvent::MonitorExit { .. } => "monitor_exit",
            TraceEvent::IbtcMiss { .. } => "ibtc_miss",
            TraceEvent::InCacheHits { .. } => "in_cache_hits",
            TraceEvent::ChainBackpatch { .. } => "chain",
            TraceEvent::CacheInvalidate { .. } => "invalidate",
            TraceEvent::CacheFlush { .. } => "flush",
            TraceEvent::CacheEvict { .. } => "evict",
            TraceEvent::ImageLoad { .. } => "image_load",
            TraceEvent::ImageHit { .. } => "image_hit",
            TraceEvent::ImageReject { .. } => "image_reject",
            TraceEvent::EdgeAdmit { .. } => "edge_admit",
            TraceEvent::EdgeShed { .. } => "edge_shed",
            TraceEvent::EdgeDeadline { .. } => "edge_deadline",
        }
    }

    /// The guest PC this event is attributed to, when it has one.
    pub fn guest_pc(&self) -> Option<u32> {
        match *self {
            TraceEvent::BlockTranslated { guest_pc } => Some(guest_pc),
            TraceEvent::Retranslation { block_pc } => Some(block_pc),
            TraceEvent::PhaseTransition { guest_pc } => Some(guest_pc),
            TraceEvent::Trap { site_pc, .. } => Some(site_pc),
            TraceEvent::OsFixup { site_pc, .. } => Some(site_pc),
            TraceEvent::EhPatch { site_pc, .. } => Some(site_pc),
            TraceEvent::Rearrangement { site_pc, .. } => Some(site_pc),
            TraceEvent::Reversion { site_pc } => Some(site_pc),
            TraceEvent::MonitorExit { next_pc } => Some(next_pc),
            TraceEvent::IbtcMiss { next_pc } => Some(next_pc),
            TraceEvent::InCacheHits { .. } => None,
            TraceEvent::ChainBackpatch { block_pc, .. } => Some(block_pc),
            TraceEvent::CacheInvalidate { block_pc } => Some(block_pc),
            TraceEvent::CacheFlush { .. } => None,
            TraceEvent::CacheEvict { block_pc } => Some(block_pc),
            TraceEvent::ImageLoad { .. } => None,
            TraceEvent::ImageHit { block_pc } => Some(block_pc),
            TraceEvent::ImageReject { .. } => None,
            TraceEvent::EdgeAdmit { .. } => None,
            TraceEvent::EdgeShed { .. } => None,
            TraceEvent::EdgeDeadline { .. } => None,
        }
    }
}

/// One ring entry: an event stamped with the simulated cycle count at
/// which the engine recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycles at record time (after the event's cost was
    /// charged, so the timestamp includes the handling work).
    pub cycle: u64,
    /// The event.
    pub event: TraceEvent,
}

/// The recorder: a bounded event ring plus cumulative aggregates (site
/// table, timelines). Construct with [`Tracer::new`] to record or
/// [`Tracer::disabled`] for the no-op used on default runs.
///
/// With a [`TraceSink`] attached ([`Tracer::set_sink`]), ring evictions
/// stream to the sink instead of being dropped, and
/// [`Tracer::finish_sink`] drains the retained tail — full-fidelity event
/// streams under the same bounded memory.
pub struct Tracer {
    enabled: bool,
    ring_capacity: usize,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    streamed: u64,
    sites: BTreeMap<u32, SiteTelemetry>,
    timeline: Timeline,
    sink: Option<Box<dyn TraceSink>>,
    finished_sink: Option<Box<dyn TraceSink>>,
    sink_error: Option<String>,
}

/// Clones the recorder state. Sinks are not cloneable (they own writers);
/// a clone starts with no sink attached — which is exactly what snapshot
/// clones (`Dbt::trace_snapshot`) want.
impl Clone for Tracer {
    fn clone(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            ring_capacity: self.ring_capacity,
            ring: self.ring.clone(),
            dropped: self.dropped,
            streamed: self.streamed,
            sites: self.sites.clone(),
            timeline: self.timeline.clone(),
            sink: None,
            finished_sink: None,
            sink_error: self.sink_error.clone(),
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("ring_capacity", &self.ring_capacity)
            .field("ring_len", &self.ring.len())
            .field("dropped", &self.dropped)
            .field("streamed", &self.streamed)
            .field("sites", &self.sites.len())
            .field("sink", &self.sink.is_some())
            .field("sink_error", &self.sink_error)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// An enabled tracer with the given bounds.
    pub fn new(cfg: &TraceConfig) -> Tracer {
        Tracer {
            enabled: true,
            ring_capacity: cfg.ring_capacity.max(1),
            ring: VecDeque::new(),
            dropped: 0,
            streamed: 0,
            sites: BTreeMap::new(),
            timeline: Timeline::new(cfg.bucket_cycles, cfg.max_buckets),
            sink: None,
            finished_sink: None,
            sink_error: None,
        }
    }

    /// The no-op tracer: every record call is one predictable branch, no
    /// allocation ever happens.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ring_capacity: 0,
            ring: VecDeque::new(),
            dropped: 0,
            streamed: 0,
            sites: BTreeMap::new(),
            timeline: Timeline::new(1, 0),
            sink: None,
            finished_sink: None,
            sink_error: None,
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event at `cycle`. On a disabled tracer this is a no-op.
    #[inline(always)]
    pub fn record(&mut self, cycle: u64, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.record_enabled(cycle, event);
    }

    #[cold]
    fn record_enabled(&mut self, cycle: u64, event: TraceEvent) {
        match event {
            TraceEvent::Trap {
                site_pc, cycles, ..
            } => {
                let s = self.sites.entry(site_pc).or_default();
                s.traps += 1;
                s.cycles_attributed += cycles;
                s.first_trap_cycle.get_or_insert(cycle);
                self.timeline.bump_trap(cycle);
            }
            TraceEvent::OsFixup { site_pc, cycles } => {
                let s = self.sites.entry(site_pc).or_default();
                s.os_fixups += 1;
                s.cycles_attributed += cycles;
            }
            TraceEvent::EhPatch {
                site_pc, cycles, ..
            } => {
                let s = self.sites.entry(site_pc).or_default();
                s.patches += 1;
                s.cycles_attributed += cycles;
                s.patch_cycle.get_or_insert(cycle);
                self.timeline.bump_patch(cycle);
            }
            TraceEvent::Rearrangement {
                site_pc, cycles, ..
            } => {
                let s = self.sites.entry(site_pc).or_default();
                s.rearrangements += 1;
                s.cycles_attributed += cycles;
                s.patch_cycle.get_or_insert(cycle);
                self.timeline.bump_patch(cycle);
            }
            TraceEvent::Reversion { site_pc } => {
                self.sites.entry(site_pc).or_default().reversions += 1;
            }
            TraceEvent::MonitorExit { .. } => self.timeline.bump_monitor_exit(cycle),
            _ => {}
        }
        if self.ring.len() == self.ring_capacity {
            let old = self.ring.pop_front().expect("ring at capacity >= 1");
            self.flush_evicted(&old);
        }
        self.ring.push_back(TraceRecord { cycle, event });
    }

    /// Routes one evicted record: to the sink when one is attached (a
    /// failing sink is detached and its error kept), to the dropped
    /// counter otherwise.
    fn flush_evicted(&mut self, old: &TraceRecord) {
        match self.sink.as_mut() {
            Some(sink) => {
                if let Err(e) = sink.emit(old) {
                    self.sink_error = Some(e.to_string());
                    self.sink = None;
                    self.dropped += 1;
                } else {
                    self.streamed += 1;
                }
            }
            None => self.dropped += 1,
        }
    }

    /// Adds `guest_insns` of guest progress ending at `cycle` to the
    /// timeline (the MIPS series). No-op when disabled or zero.
    #[inline(always)]
    pub fn progress(&mut self, cycle: u64, guest_insns: u64) {
        if !self.enabled || guest_insns == 0 {
            return;
        }
        self.timeline.add_insns(cycle, guest_insns);
    }

    /// Folds a run's per-site execution profile into the telemetry table
    /// (the engine calls this once at snapshot time): `execs` dynamic
    /// executions, `mdas` of them misaligned — the MDA sequences executed
    /// or emulated at the site.
    pub fn merge_profile_site(&mut self, pc: u32, execs: u64, mdas: u64) {
        if !self.enabled || (execs == 0 && mdas == 0) {
            return;
        }
        let s = self.sites.entry(pc).or_default();
        s.execs += execs;
        s.mdas += mdas;
    }

    /// The per-site telemetry table, ordered by guest PC (deterministic).
    pub fn sites(&self) -> impl Iterator<Item = (u32, &SiteTelemetry)> {
        self.sites.iter().map(|(pc, s)| (*pc, s))
    }

    /// Telemetry for one guest PC.
    pub fn site(&self, pc: u32) -> Option<&SiteTelemetry> {
        self.sites.get(&pc)
    }

    /// The `n` hottest sites, ordered by `cycles_attributed` descending,
    /// then trap count descending, then guest PC ascending — fully
    /// deterministic even when sites tie on both cost and traps.
    pub fn hot_sites(&self, n: usize) -> Vec<(u32, SiteTelemetry)> {
        merge::hot_n(self.sites().map(|(pc, s)| (pc, *s)), n)
    }

    /// The cycle-bucket timelines.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The retained event records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of retained event records.
    pub fn event_count(&self) -> usize {
        self.ring.len()
    }

    /// Records evicted from the ring (aggregates still include them).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records streamed to the attached sink (evictions so far, plus the
    /// final drain once [`Tracer::finish_sink`] runs).
    pub fn streamed(&self) -> u64 {
        self.streamed
    }

    /// The error that detached the sink, if its writer ever failed.
    /// Evictions after a sink failure fall back to counted drops.
    pub fn sink_error(&self) -> Option<&str> {
        self.sink_error.as_deref()
    }

    /// Attaches a streaming sink; subsequent ring evictions are emitted to
    /// it in order instead of being dropped. Returns `false` (and drops
    /// the sink) on a disabled tracer — nothing will ever be recorded, so
    /// an empty trace file would be a lie. Replaces any prior sink without
    /// finishing it.
    ///
    /// Sink I/O is host-side only: attaching one never charges simulated
    /// cycles, preserving the traced==untraced accounting contract.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) -> bool {
        if !self.enabled {
            return false;
        }
        self.sink = Some(sink);
        self.sink_error = None;
        true
    }

    /// Completes the stream: drains the retained ring (oldest first) into
    /// the sink — so the sink has seen *every* record of the run exactly
    /// once — then hands the sink the aggregate state via
    /// [`TraceSink::finish`]. The ring itself is left intact for
    /// in-memory snapshots.
    ///
    /// Returns `None` when no sink is attached, otherwise the summary or
    /// the I/O error message. The sink is detached either way; recover a
    /// buffered sink's bytes with [`Tracer::take_sink_output`].
    pub fn finish_sink(&mut self) -> Option<Result<SinkSummary, String>> {
        let mut sink = self.sink.take()?;
        for rec in &self.ring {
            match sink.emit(rec) {
                Ok(()) => self.streamed += 1,
                Err(e) => {
                    let msg = e.to_string();
                    self.sink_error = Some(msg.clone());
                    return Some(Err(msg));
                }
            }
        }
        if let Err(e) = sink.finish(self) {
            let msg = e.to_string();
            self.sink_error = Some(msg.clone());
            return Some(Err(msg));
        }
        self.finished_sink = Some(sink);
        Some(Ok(SinkSummary {
            events: self.streamed,
            sites: self.sites.len(),
            buckets: self.timeline.active_buckets(),
        }))
    }

    /// Recovers the bytes of a finished in-memory [`StreamingJsonl`]
    /// sink (one constructed over a `Vec<u8>`). `None` when the sink was
    /// never finished or writes elsewhere. Used by tests and tools that
    /// stream to memory.
    pub fn take_sink_output(&mut self) -> Option<Vec<u8>> {
        let sink = self.finished_sink.take()?;
        sink.into_any()
            .downcast::<StreamingJsonl<Vec<u8>>>()
            .ok()
            .map(|s| s.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(bucket: u64, ring: usize) -> Tracer {
        Tracer::new(
            &TraceConfig::default()
                .with_bucket_cycles(bucket)
                .with_ring_capacity(ring),
        )
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(
            100,
            TraceEvent::Trap {
                site_pc: 0x40,
                slot: 0,
                cycles: 1000,
            },
        );
        t.progress(100, 50);
        t.merge_profile_site(0x40, 10, 5);
        assert!(!t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.sites().count(), 0);
        assert_eq!(t.timeline().active_buckets(), 0);
    }

    #[test]
    fn site_table_accumulates_and_orders_by_pc() {
        let mut t = tracer(100, 16);
        t.record(
            50,
            TraceEvent::Trap {
                site_pc: 0x80,
                slot: 0,
                cycles: 1000,
            },
        );
        t.record(
            60,
            TraceEvent::Trap {
                site_pc: 0x40,
                slot: 1,
                cycles: 1000,
            },
        );
        t.record(
            70,
            TraceEvent::EhPatch {
                site_pc: 0x40,
                slot: 1,
                cycles: 334,
            },
        );
        t.merge_profile_site(0x40, 9, 3);
        let pcs: Vec<u32> = t.sites().map(|(pc, _)| pc).collect();
        assert_eq!(pcs, vec![0x40, 0x80]);
        let s = t.site(0x40).unwrap();
        assert_eq!(s.traps, 1);
        assert_eq!(s.patches, 1);
        assert_eq!(s.first_trap_cycle, Some(60));
        assert_eq!(s.patch_cycle, Some(70));
        assert_eq!(s.cycles_attributed, 1334);
        assert_eq!((s.execs, s.mdas), (9, 3));
        assert_eq!(t.site(0x80).unwrap().patch_cycle, None);
    }

    #[test]
    fn ring_is_bounded_but_aggregates_are_not() {
        let mut t = tracer(10, 4);
        for i in 0..10u64 {
            t.record(
                i,
                TraceEvent::Trap {
                    site_pc: 0x10,
                    slot: 0,
                    cycles: 1,
                },
            );
        }
        assert_eq!(t.event_count(), 4);
        assert_eq!(t.dropped(), 6);
        // The site table and timeline saw all ten.
        assert_eq!(t.site(0x10).unwrap().traps, 10);
        assert_eq!(t.timeline().traps().iter().sum::<u64>(), 10);
        // Oldest evicted first.
        assert_eq!(t.events().next().unwrap().cycle, 6);
    }

    #[test]
    fn first_trap_cycle_sticks() {
        let mut t = tracer(100, 16);
        t.record(
            10,
            TraceEvent::Trap {
                site_pc: 1,
                slot: 0,
                cycles: 5,
            },
        );
        t.record(
            20,
            TraceEvent::Trap {
                site_pc: 1,
                slot: 0,
                cycles: 5,
            },
        );
        assert_eq!(t.site(1).unwrap().first_trap_cycle, Some(10));
        assert_eq!(t.site(1).unwrap().traps, 2);
    }

    #[test]
    fn event_kind_and_pc_attribution() {
        let ev = TraceEvent::EhPatch {
            site_pc: 0x1234,
            slot: 0,
            cycles: 1,
        };
        assert_eq!(ev.kind(), "patch");
        assert_eq!(ev.guest_pc(), Some(0x1234));
        assert_eq!(TraceEvent::CacheFlush { blocks: 3 }.guest_pc(), None);
        assert_eq!(
            TraceEvent::InCacheHits { ibtc: 1, ras: 2 }.kind(),
            "in_cache_hits"
        );
    }
}
