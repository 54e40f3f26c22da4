//! Streaming trace sinks: full-fidelity traces under bounded memory.
//!
//! The event ring bounds the tracer's memory, which means long runs evict
//! their oldest records — exactly the discovery-phase evidence the paper's
//! temporal argument hinges on. A [`TraceSink`] attached to the tracer
//! receives every record the ring evicts, *in order*, at the moment of
//! eviction, and the remaining ring is drained into it at
//! [`Tracer::finish_sink`] time — so the sink sees the complete event
//! stream oldest-first while the tracer's resident memory never exceeds
//! the ring capacity.
//!
//! [`StreamingJsonl`] is the standard sink: incremental JSONL over any
//! [`io::Write`], emitting the same event-line layout as the in-memory
//! serializer ([`crate::jsonl::to_string`]) plus the aggregate site table,
//! buckets and a trailing `summary` line at finish. Its output is a pure
//! function of the recorded event sequence, so two identical runs produce
//! byte-identical trace files — the property the cross-run diff tool and
//! the determinism tests rely on.
//!
//! Sink I/O happens purely on the host side: attaching a sink never
//! charges simulated cycles, so traced-and-streamed runs keep the
//! traced==untraced accounting contract.
//!
//! [`Tracer::finish_sink`]: crate::Tracer::finish_sink

use crate::{jsonl, TraceRecord, Tracer};
use std::io;

/// Schema tag written in a streaming trace's `meta` line. The body layout
/// (event/site/bucket lines) is shared with `bridge-trace/1`; the distinct
/// tag records that events precede aggregates and that a `summary` line
/// closes the file.
pub const STREAM_SCHEMA: &str = "bridge-trace-stream/1";

/// A destination for trace records leaving the tracer. Implementations
/// must be `Send`: the execution service moves tracers across worker
/// threads.
pub trait TraceSink: Send {
    /// Receives one record. Called for each ring eviction as it happens
    /// and once per retained record at finish time, oldest first — the
    /// concatenation of all `emit` calls is the run's complete, ordered
    /// event stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the tracer detaches the sink on the first
    /// error and surfaces it via [`Tracer::sink_error`].
    ///
    /// [`Tracer::sink_error`]: crate::Tracer::sink_error
    fn emit(&mut self, rec: &TraceRecord) -> io::Result<()>;

    /// Called exactly once after the final `emit`, with the tracer's
    /// aggregate state (site table, timeline, counts).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn finish(&mut self, tracer: &Tracer) -> io::Result<()>;

    /// Type-erasure escape hatch: lets callers recover a concrete finished
    /// sink (e.g. the buffer of a `StreamingJsonl<Vec<u8>>`) via
    /// [`Tracer::take_sink_output`](crate::Tracer::take_sink_output).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// What a finished sink processed, returned by
/// [`Tracer::finish_sink`](crate::Tracer::finish_sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkSummary {
    /// Total records emitted to the sink (streamed evictions + the final
    /// ring drain) — the full-fidelity event count.
    pub events: u64,
    /// Sites in the aggregate table at finish.
    pub sites: usize,
    /// Active timeline buckets at finish.
    pub buckets: usize,
}

/// Incremental JSONL writer: a `meta` header, then one `event` line per
/// record as it arrives, then (at finish) the site table, the timeline
/// buckets and a closing `summary` line with the totals a reader needs to
/// verify it got the whole stream.
pub struct StreamingJsonl<W: io::Write + Send> {
    w: W,
    events: u64,
    header_written: bool,
    /// Reused per-event line buffer: `emit` is the full-fidelity hot
    /// path, so it must not allocate per record.
    line: String,
}

impl<W: io::Write + Send> StreamingJsonl<W> {
    /// A sink over `w`. The header line is written lazily with the first
    /// record (or at finish, for a run that recorded nothing).
    pub fn new(w: W) -> StreamingJsonl<W> {
        StreamingJsonl {
            w,
            events: 0,
            header_written: false,
            line: String::with_capacity(128),
        }
    }

    /// Events emitted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            self.line.clear();
            jsonl::push_line(&mut self.line, |o| {
                o.str("type", "meta").str("schema", STREAM_SCHEMA);
            });
            self.w.write_all(self.line.as_bytes())?;
            self.header_written = true;
        }
        Ok(())
    }
}

impl<W: io::Write + Send + 'static> TraceSink for StreamingJsonl<W> {
    fn emit(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.ensure_header()?;
        self.line.clear();
        jsonl::push_event_line(&mut self.line, rec);
        self.w.write_all(self.line.as_bytes())?;
        self.events += 1;
        Ok(())
    }

    fn finish(&mut self, tracer: &Tracer) -> io::Result<()> {
        self.ensure_header()?;
        self.line.clear();
        jsonl::push_aggregates(&mut self.line, tracer);
        let tl = tracer.timeline();
        jsonl::push_line(&mut self.line, |o| {
            o.str("type", "summary")
                .str("schema", STREAM_SCHEMA)
                .u64("events", self.events)
                .u64("sites", tracer.sites().count() as u64)
                .u64("buckets", tl.active_buckets() as u64)
                .u64("bucket_cycles", tl.bucket_cycles())
                .bool("truncated", tl.truncated())
                .u64("folded_traps", tl.folded_traps())
                .u64("dropped", tracer.dropped());
        });
        self.w.write_all(self.line.as_bytes())?;
        self.w.flush()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, TraceEvent};
    use bridge_metrics::json::{str_member, u64_member};

    fn trap(pc: u32) -> TraceEvent {
        TraceEvent::Trap {
            site_pc: pc,
            slot: 0,
            cycles: 10,
        }
    }

    fn small_ring_tracer() -> Tracer {
        Tracer::new(
            &TraceConfig::default()
                .with_bucket_cycles(100)
                .with_ring_capacity(4),
        )
    }

    #[test]
    fn evicted_records_stream_in_order_and_nothing_is_lost() {
        let mut t = small_ring_tracer();
        assert!(t.set_sink(Box::new(StreamingJsonl::new(Vec::new()))));
        for i in 0..10u64 {
            t.record(i, trap(0x40));
        }
        // Six evictions went to the sink, not to the floor.
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.streamed(), 6);
        let summary = t.finish_sink().expect("sink attached").expect("no error");
        assert_eq!(summary.events, 10, "evictions + final drain");
        assert_eq!(summary.sites, 1);
        // The ring itself still holds the newest four for snapshots.
        assert_eq!(t.event_count(), 4);
    }

    #[test]
    fn streamed_jsonl_is_complete_ordered_and_deterministic() {
        let run = || {
            let mut t = small_ring_tracer();
            t.set_sink(Box::new(StreamingJsonl::new(Vec::new())));
            for i in 0..12u64 {
                t.record(i * 3, trap(0x40 + (i as u32 % 2) * 4));
            }
            t.progress(40, 100);
            t.finish_sink().unwrap().unwrap();
            t.take_sink_output().expect("jsonl sink output")
        };
        let a = run();
        assert_eq!(a, run(), "byte-identical across identical runs");

        let text = String::from_utf8(a).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(str_member(lines[0], "type"), Some("meta"));
        assert_eq!(str_member(lines[0], "schema"), Some(STREAM_SCHEMA));
        let cycles: Vec<u64> = lines
            .iter()
            .filter(|l| str_member(l, "type") == Some("event"))
            .map(|l| u64_member(l, "cycle").unwrap())
            .collect();
        assert_eq!(cycles.len(), 12, "full fidelity past the ring capacity");
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "oldest first");
        let summary = lines.last().unwrap();
        assert_eq!(str_member(summary, "type"), Some("summary"));
        assert_eq!(u64_member(summary, "events"), Some(12));
        assert_eq!(u64_member(summary, "dropped"), Some(0));
    }

    #[test]
    fn sink_on_disabled_tracer_is_refused() {
        let mut t = Tracer::disabled();
        assert!(!t.set_sink(Box::new(StreamingJsonl::new(Vec::new()))));
        assert!(t.finish_sink().is_none());
    }

    #[test]
    fn empty_run_still_writes_header_and_summary() {
        let mut t = small_ring_tracer();
        t.set_sink(Box::new(StreamingJsonl::new(Vec::new())));
        t.finish_sink().unwrap().unwrap();
        let bytes = t.take_sink_output().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "meta + summary");
        assert_eq!(u64_member(lines[1], "events"), Some(0));
    }

    /// An erroring writer detaches the sink and surfaces the error instead
    /// of panicking the record path.
    #[test]
    fn sink_error_detaches_and_is_surfaced() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut t = small_ring_tracer();
        t.set_sink(Box::new(StreamingJsonl::new(Broken)));
        for i in 0..10u64 {
            t.record(i, trap(0x40));
        }
        assert!(t.sink_error().is_some_and(|e| e.contains("disk gone")));
        // Post-error evictions fall back to counted drops.
        assert!(t.dropped() > 0);
        assert!(t.finish_sink().is_none(), "sink already detached");
        // The aggregates are unaffected by the sink failure.
        assert_eq!(t.site(0x40).unwrap().traps, 10);
    }
}
