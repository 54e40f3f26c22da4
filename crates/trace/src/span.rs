//! Hierarchical spans: the causal, request-scoped layer over the flat
//! event ring.
//!
//! A [`SpanRecord`] is an interval, not a point: it has a start and end in
//! the *simulated-cycle* domain, optionally a start and end in the host
//! *wall-clock* domain, a kind ([`SpanKind`]), an optional guest-PC
//! attribution, and a parent ID — so a whole run folds into a tree
//! (strategy → run → translate/execute/trap-fixup per TB, or request →
//! queue-wait/dispatch/warm-start in the serving layer). The
//! [`SpanRecorder`] keeps completed spans in a bounded ring (oldest
//! evicted and counted, like the event ring) and renders them three ways:
//!
//! * [`SpanRecorder::to_jsonl`] — one self-describing JSON object per
//!   line, schema [`SCHEMA`] (`bridge-trace-span/1`);
//! * [`SpanRecorder::to_chrome_json`] — a Chrome trace-event / Perfetto
//!   JSON document of `ph:"X"` complete events in the cycle domain, one
//!   track per span tree;
//! * [`SpanRecorder::folded`] — inferno-compatible folded-stack text
//!   (`frame;frame;frame self_cycles` per line) for flamegraph tooling.
//!
//! Purity contract, same as the event tracer: recording never charges
//! simulated cycles and a disabled recorder reduces every call to one
//! predictable branch, so span-instrumented runs produce byte-identical
//! stats and artifacts to bare runs. Wall-clock stamps are opt-in
//! ([`SpanConfig::wall_clock`]) precisely because they make the *span
//! artifact itself* nondeterministic; everything cycle-domain — the
//! JSONL with wall stamps off, the Chrome export, the folded stacks — is
//! a pure function of the simulated execution.

use bridge_metrics::json;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Schema tag written in the `span_meta` JSONL line.
pub const SCHEMA: &str = "bridge-trace-span/1";

/// What a span measures. Engine kinds come first (per-TB work inside one
/// `Dbt`), then the serving layer's request-lifecycle kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One whole `Dbt::run` invocation (the engine's root span).
    Run,
    /// Decode + emit + install of one translation block (includes the
    /// charged translation cycles).
    Translate,
    /// One in-cache execution segment (entry to the translated code
    /// until the machine exits to the monitor).
    Execute,
    /// One misalignment-trap handling episode: trap delivery through the
    /// strategy's response (OS fixup, EH patch, or rearrangement).
    TrapFixup,
    /// A block install served from a restored AOT image instead of the
    /// translator.
    ImageRestore,
    /// One request's whole lifetime in the serving layer.
    Request,
    /// Request admission into the bounded dispatch queue.
    Enqueue,
    /// Time between enqueue and a worker picking the request up (joined
    /// to the `serve.edge.queue_wait_us` histogram).
    QueueWait,
    /// A vCPU worker executing the request (wraps the engine run).
    Dispatch,
    /// Per-context warm start: image-store lookup, validation, restore.
    WarmStart,
    /// Slot-ordered aggregation of per-guest reports into the batch
    /// report.
    Aggregate,
}

impl SpanKind {
    /// Short machine-readable tag (the JSONL `kind` field and the flame
    /// frame name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Translate => "translate",
            SpanKind::Execute => "execute",
            SpanKind::TrapFixup => "trap_fixup",
            SpanKind::ImageRestore => "image_restore",
            SpanKind::Request => "request",
            SpanKind::Enqueue => "enqueue",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Dispatch => "dispatch",
            SpanKind::WarmStart => "warm_start",
            SpanKind::Aggregate => "aggregate",
        }
    }
}

/// Opaque handle to an open span. The disabled recorder hands out
/// [`SpanId::NONE`], which every other call ignores — callers never
/// branch on enablement themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The null handle (disabled recorder, or "no parent").
    pub const NONE: SpanId = SpanId(0);

    /// Whether this handle refers to a real span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Recorder-unique ID, starting at 1.
    pub id: u64,
    /// Enclosing span's ID, 0 for roots.
    pub parent: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Guest-PC attribution, when the work has one.
    pub guest_pc: Option<u32>,
    /// Simulated cycles at span start.
    pub start_cycle: u64,
    /// Simulated cycles at span end (`>= start_cycle`).
    pub end_cycle: u64,
    /// Microseconds since the recorder's epoch at start, when wall
    /// stamping is on.
    pub wall_start_us: Option<u64>,
    /// Microseconds since the recorder's epoch at end.
    pub wall_end_us: Option<u64>,
}

impl SpanRecord {
    /// Simulated-cycle extent.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// The flame/Chrome frame name: `kind@0xPC` when attributed, bare
    /// kind otherwise.
    pub fn frame(&self) -> String {
        match self.guest_pc {
            Some(pc) => format!("{}@0x{pc:x}", self.kind.name()),
            None => self.kind.name().to_string(),
        }
    }
}

/// Tuning knobs for a [`SpanRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanConfig {
    /// Maximum completed spans retained; the oldest are evicted (and
    /// counted as dropped) beyond this.
    pub ring_capacity: usize,
    /// Whether to stamp spans with host wall-clock offsets. Off by
    /// default: wall stamps make the span artifact nondeterministic,
    /// which engine-side consumers (deterministic flame output, byte-diff
    /// tests) must not see. The serving layer turns it on for its
    /// wall-domain request lifecycle, following the `serve.edge.queue_wait_us`
    /// precedent.
    pub wall_clock: bool,
}

impl Default for SpanConfig {
    fn default() -> SpanConfig {
        SpanConfig {
            ring_capacity: 1 << 16,
            wall_clock: false,
        }
    }
}

impl SpanConfig {
    /// Builder-style: set the completed-span ring capacity.
    pub fn with_ring_capacity(mut self, cap: usize) -> SpanConfig {
        self.ring_capacity = cap;
        self
    }

    /// Builder-style: turn host wall-clock stamping on or off.
    pub fn with_wall_clock(mut self, on: bool) -> SpanConfig {
        self.wall_clock = on;
        self
    }
}

/// An open span awaiting its `end` call.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    id: u64,
    parent: u64,
    kind: SpanKind,
    guest_pc: Option<u32>,
    start_cycle: u64,
    wall_start_us: Option<u64>,
}

/// The span recorder: an open-span stack (parents are inferred from
/// nesting) over a bounded ring of completed spans.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    enabled: bool,
    scope: String,
    ring_capacity: usize,
    spans: VecDeque<SpanRecord>,
    open: Vec<OpenSpan>,
    dropped: u64,
    next_id: u64,
    epoch: Option<Instant>,
}

impl SpanRecorder {
    /// An enabled recorder with the given bounds.
    pub fn new(cfg: &SpanConfig) -> SpanRecorder {
        SpanRecorder {
            enabled: true,
            scope: String::new(),
            ring_capacity: cfg.ring_capacity.max(1),
            spans: VecDeque::new(),
            open: Vec::new(),
            dropped: 0,
            next_id: 1,
            epoch: cfg.wall_clock.then(Instant::now),
        }
    }

    /// The no-op recorder: every call is one predictable branch, nothing
    /// allocates.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder {
            enabled: false,
            scope: String::new(),
            ring_capacity: 0,
            spans: VecDeque::new(),
            open: Vec::new(),
            dropped: 0,
            next_id: 1,
            epoch: None,
        }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the scope label — the root frame of every folded stack
    /// (engine runs use the strategy name, the serving layer uses
    /// `serve`).
    pub fn set_scope(&mut self, scope: &str) {
        if self.enabled {
            self.scope = scope.to_string();
        }
    }

    /// The scope label.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Opens a span at `cycle`, parented to the innermost still-open
    /// span. Returns [`SpanId::NONE`] on a disabled recorder.
    #[inline(always)]
    pub fn start(&mut self, cycle: u64, kind: SpanKind, guest_pc: Option<u32>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.start_enabled(cycle, kind, guest_pc)
    }

    fn start_enabled(&mut self, cycle: u64, kind: SpanKind, guest_pc: Option<u32>) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map_or(0, |o| o.id);
        self.open.push(OpenSpan {
            id,
            parent,
            kind,
            guest_pc,
            start_cycle: cycle,
            wall_start_us: self.now_us(),
        });
        SpanId(id)
    }

    /// Closes the span `id` at `cycle` and commits it to the ring. Spans
    /// may close out of stack order (a parent finishing while a child is
    /// still open adopts nothing — the child keeps its recorded parent).
    /// Unknown or [`SpanId::NONE`] handles are ignored.
    #[inline(always)]
    pub fn end(&mut self, id: SpanId, cycle: u64) {
        if !self.enabled || !id.is_some() {
            return;
        }
        self.end_enabled(id, cycle);
    }

    fn end_enabled(&mut self, id: SpanId, cycle: u64) {
        let Some(pos) = self.open.iter().rposition(|o| o.id == id.0) else {
            return;
        };
        let o = self.open.remove(pos);
        let wall_end_us = self.now_us();
        self.commit(SpanRecord {
            id: o.id,
            parent: o.parent,
            kind: o.kind,
            guest_pc: o.guest_pc,
            start_cycle: o.start_cycle,
            end_cycle: cycle.max(o.start_cycle),
            wall_start_us: o.wall_start_us,
            wall_end_us,
        });
    }

    /// Records a closed span in one call (leaf work with no interior
    /// children), parented to the innermost open span. Used for
    /// zero-extent marks like image-restore installs.
    #[inline(always)]
    pub fn complete(&mut self, kind: SpanKind, guest_pc: Option<u32>, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map_or(0, |o| o.id);
        let wall = self.now_us();
        self.commit(SpanRecord {
            id,
            parent,
            kind,
            guest_pc,
            start_cycle: start,
            end_cycle: end.max(start),
            wall_start_us: wall,
            wall_end_us: wall,
        });
    }

    /// Opens a span at `cycle` under an explicit `parent`, bypassing
    /// innermost-open inference. Concurrent callers sharing one recorder
    /// behind a lock (serve shards) use this: the open-span stack would
    /// interleave across requests there, so each caller threads its own
    /// parent handle instead. Close with [`SpanRecorder::end`] as usual.
    pub fn start_at(
        &mut self,
        cycle: u64,
        kind: SpanKind,
        guest_pc: Option<u32>,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(OpenSpan {
            id,
            parent: parent.0,
            kind,
            guest_pc,
            start_cycle: cycle,
            wall_start_us: self.now_us(),
        });
        SpanId(id)
    }

    /// Records a closed span with explicit parent, cycle extent, and wall
    /// extent in one call. The serving layer joins externally measured
    /// intervals this way (queue wait: wall start captured at enqueue,
    /// wall end at dispatch). Wall stamps are dropped unless wall-clock
    /// stamping is enabled on this recorder, so a wall-free configuration
    /// stays wall-free no matter what callers pass.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_with(
        &mut self,
        kind: SpanKind,
        guest_pc: Option<u32>,
        parent: SpanId,
        start_cycle: u64,
        end_cycle: u64,
        wall_start_us: Option<u64>,
        wall_end_us: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let stamped = self.epoch.is_some();
        self.commit(SpanRecord {
            id,
            parent: parent.0,
            kind,
            guest_pc,
            start_cycle,
            end_cycle: end_cycle.max(start_cycle),
            wall_start_us: if stamped { wall_start_us } else { None },
            wall_end_us: if stamped { wall_end_us } else { None },
        });
    }

    /// Microseconds elapsed since this recorder's epoch; `None` when
    /// wall-clock stamping is off (or the recorder is disabled). Callers
    /// capture these to feed [`SpanRecorder::complete_with`].
    pub fn now_epoch_us(&self) -> Option<u64> {
        self.now_us()
    }

    fn commit(&mut self, rec: SpanRecord) {
        if self.spans.len() == self.ring_capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(rec);
    }

    fn now_us(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_micros() as u64)
    }

    /// Merges another recorder's completed spans as a subtree under
    /// `parent` (pass [`SpanId::NONE`] to merge at the root). IDs are
    /// remapped into this recorder's sequence; the child's root spans are
    /// re-parented to `parent`. The serving layer uses this to join each
    /// request's engine spans to its request span.
    pub fn adopt(&mut self, child: &SpanRecorder, parent: SpanId) {
        if !self.enabled {
            return;
        }
        let mut remap: FxMap<u64> =
            FxMap::with_capacity_and_hasher(child.spans.len(), Default::default());
        for rec in &child.spans {
            remap.insert(rec.id, self.next_id);
            self.next_id += 1;
        }
        for rec in &child.spans {
            let mut r = *rec;
            r.id = remap[&rec.id];
            r.parent = remap.get(&rec.parent).copied().unwrap_or(parent.0);
            self.commit(r);
        }
        self.dropped += child.dropped;
    }

    /// Completed spans, oldest-committed first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Number of completed spans retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was ever completed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans started but not yet ended.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Serializes the completed spans as JSONL: a `span_meta` header then
    /// one `span` line per record, oldest first. With wall stamping off
    /// this is a pure function of the simulated execution.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        crate::jsonl::push_line(&mut out, |o| {
            o.str("type", "span_meta")
                .str("schema", SCHEMA)
                .str("scope", &self.scope)
                .u64("spans", self.spans.len() as u64)
                .u64("dropped", self.dropped)
                .u64("open", self.open.len() as u64);
        });
        for rec in &self.spans {
            crate::jsonl::push_line(&mut out, |o| {
                o.str("type", "span")
                    .u64("id", rec.id)
                    .opt_u64("parent", (rec.parent != 0).then_some(rec.parent))
                    .str("kind", rec.kind.name())
                    .opt_u64("pc", rec.guest_pc.map(u64::from))
                    .u64("start_cycle", rec.start_cycle)
                    .u64("end_cycle", rec.end_cycle)
                    .opt_u64("wall_start_us", rec.wall_start_us)
                    .opt_u64("wall_end_us", rec.wall_end_us);
            });
        }
        out
    }

    /// Renders the completed spans as a Chrome trace-event / Perfetto
    /// JSON document: `ph:"X"` complete events with `ts`/`dur` in the
    /// *cycle* domain (cycles render as microseconds in the viewer — the
    /// scale is arbitrary, the attribution exact and deterministic).
    /// Each span tree gets its own `tid` track (the root ancestor's ID),
    /// so overlapping requests from different shards stay readable.
    pub fn to_chrome_json(&self) -> String {
        let parent_of: HashMap<u64, u64> = self.spans.iter().map(|r| (r.id, r.parent)).collect();
        let root_of = |mut id: u64| -> u64 {
            let mut hops = 0;
            while let Some(&p) = parent_of.get(&id) {
                if p == 0 || hops > 64 {
                    break;
                }
                id = p;
                hops += 1;
            }
            id
        };
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.str("displayTimeUnit", "ms").array("traceEvents", |a| {
                for rec in &self.spans {
                    a.object(|o| {
                        o.str("name", &rec.frame())
                            .str("cat", rec.kind.name())
                            .str("ph", "X")
                            .u64("ts", rec.start_cycle)
                            .u64("dur", rec.cycles())
                            .u64("pid", 1)
                            .u64("tid", root_of(rec.id))
                            .object("args", |o| {
                                o.u64("id", rec.id)
                                    .opt_u64("parent", (rec.parent != 0).then_some(rec.parent))
                                    .opt_str(
                                        "pc",
                                        rec.guest_pc.map(|pc| format!("0x{pc:x}")).as_deref(),
                                    );
                            });
                    });
                }
            });
        });
        out
    }

    /// Folds the span tree into inferno-compatible folded-stack text:
    /// one `frame;frame;frame self_cycles` line per distinct stack, the
    /// weight being the span's *self* cycles (extent minus children's
    /// extents, clamped at zero). Stacks are rooted at the scope label,
    /// aggregated, and emitted in lexicographic order — deterministic
    /// across runs of the same workload.
    pub fn folded(&self) -> String {
        let by_id: FxMap<&SpanRecord> = self.spans.iter().map(|r| (r.id, r)).collect();
        let mut child_cycles: FxMap<u64> = FxMap::default();
        for rec in &self.spans {
            if rec.parent != 0 && by_id.contains_key(&rec.parent) {
                *child_cycles.entry(rec.parent).or_insert(0) += rec.cycles();
            }
        }
        // Ancestor paths are memoized by id — a child's path is its
        // parent's path plus one frame — and leaves (the vast majority:
        // one execute span per in-cache segment) are formatted into a
        // reused scratch buffer and looked up borrowed, so the table
        // costs O(spans) string work with no per-leaf allocation on
        // repeated stacks. This is the hot half of the <10% span-leg
        // budget the perf harness asserts.
        let mut paths: FxMap<String> = FxMap::default();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut scratch = String::new();
        for rec in &self.spans {
            let self_cycles = rec
                .cycles()
                .saturating_sub(child_cycles.get(&rec.id).copied().unwrap_or(0));
            if self_cycles == 0 {
                continue;
            }
            scratch.clear();
            // A parent evicted from the ring truncates the walk: the
            // stack re-roots at the survivor.
            if rec.parent != 0 && by_id.contains_key(&rec.parent) {
                ensure_ancestor_path(rec.parent, &by_id, &mut paths, &self.scope);
                scratch.push_str(&paths[&rec.parent]);
            } else {
                scratch.push_str(&self.scope);
            }
            if !scratch.is_empty() {
                scratch.push(';');
            }
            push_frame(&mut scratch, rec);
            match folded.get_mut(scratch.as_str()) {
                Some(total) => *total += self_cycles,
                None => {
                    folded.insert(scratch.clone(), self_cycles);
                }
            }
        }
        let mut out = String::new();
        for (stack, cycles) in folded {
            let _ = writeln!(out, "{stack} {cycles}");
        }
        out
    }
}

/// Multiply-rotate hasher for the u64-keyed span maps (the same Fx
/// scheme as `bridge_sim::hashing`, duplicated so this crate stays
/// dependency-free). SipHash's DoS resistance buys nothing here — every
/// key is a recorder-assigned sequential ID — and its cost sits on the
/// folded()/adopt() per-span path.
#[derive(Debug, Clone, Copy, Default)]
struct FxU64 {
    hash: u64,
}

impl Hasher for FxU64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<V> = HashMap<u64, V, BuildHasherDefault<FxU64>>;

/// Guarantees `paths` holds the root-to-`id` frame path, walking up to
/// the nearest memoized ancestor (or the root, or the first parent
/// missing from the ring) and filling the chain downward. `id` must be
/// present in `by_id`.
fn ensure_ancestor_path(
    id: u64,
    by_id: &FxMap<&SpanRecord>,
    paths: &mut FxMap<String>,
    scope: &str,
) {
    if paths.contains_key(&id) {
        return;
    }
    let mut pending: Vec<&SpanRecord> = Vec::new();
    let mut cur = id;
    let mut hops = 0;
    let mut path = loop {
        if let Some(p) = paths.get(&cur) {
            break p.clone();
        }
        match by_id.get(&cur) {
            Some(r) => {
                pending.push(r);
                if r.parent == 0 || hops > 64 {
                    break scope.to_string();
                }
                cur = r.parent;
                hops += 1;
            }
            None => break scope.to_string(),
        }
    };
    for r in pending.iter().rev() {
        if !path.is_empty() {
            path.push(';');
        }
        push_frame(&mut path, r);
        paths.insert(r.id, path.clone());
    }
}

/// Appends `kind@0xPC` (or the bare kind) without `format!` machinery;
/// must stay byte-identical to [`SpanRecord::frame`].
fn push_frame(out: &mut String, rec: &SpanRecord) {
    out.push_str(rec.kind.name());
    if let Some(pc) = rec.guest_pc {
        out.push_str("@0x");
        let mut buf = [0u8; 8];
        let mut i = buf.len();
        let mut v = pc;
        loop {
            i -= 1;
            buf[i] = b"0123456789abcdef"[(v & 0xf) as usize];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[i..]).expect("hex digits are ASCII"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> SpanRecorder {
        let mut r = SpanRecorder::new(&SpanConfig::default());
        r.set_scope("eh");
        r
    }

    /// A two-level tree: run(0..1000) containing translate@0x40(100..250)
    /// and execute@0x40(250..900) which itself contains
    /// trap_fixup@0x44(400..700).
    fn sample() -> SpanRecorder {
        let mut r = recorder();
        let run = r.start(0, SpanKind::Run, None);
        let t = r.start(100, SpanKind::Translate, Some(0x40));
        r.end(t, 250);
        let e = r.start(250, SpanKind::Execute, Some(0x40));
        let f = r.start(400, SpanKind::TrapFixup, Some(0x44));
        r.end(f, 700);
        r.end(e, 900);
        r.complete(SpanKind::ImageRestore, Some(0x48), 900, 900);
        r.end(run, 1000);
        r
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = SpanRecorder::disabled();
        let id = r.start(0, SpanKind::Run, None);
        assert_eq!(id, SpanId::NONE);
        r.end(id, 100);
        r.complete(SpanKind::Translate, Some(0x40), 0, 50);
        r.set_scope("eh");
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.open_count(), 0);
        assert_eq!(r.scope(), "");
    }

    #[test]
    fn nesting_assigns_parents() {
        let r = sample();
        assert_eq!(r.len(), 5);
        assert_eq!(r.open_count(), 0);
        let spans: Vec<&SpanRecord> = r.spans().collect();
        // Commit order is end order: translate, trap_fixup, execute,
        // image_restore, run.
        let translate = spans[0];
        let fixup = spans[1];
        let execute = spans[2];
        let restore = spans[3];
        let run = spans[4];
        assert_eq!(run.kind, SpanKind::Run);
        assert_eq!(run.parent, 0);
        assert_eq!(translate.parent, run.id);
        assert_eq!(execute.parent, run.id);
        assert_eq!(fixup.parent, execute.id);
        assert_eq!(
            restore.parent, run.id,
            "complete() nests under the open top"
        );
        assert_eq!(fixup.cycles(), 300);
        assert_eq!(restore.cycles(), 0);
    }

    #[test]
    fn out_of_order_end_is_tolerated() {
        let mut r = recorder();
        let a = r.start(0, SpanKind::Run, None);
        let b = r.start(10, SpanKind::Execute, Some(0x40));
        r.end(a, 100); // parent first
        r.end(b, 50);
        r.end(b, 60); // double-end ignored
        r.end(SpanId::NONE, 70);
        assert_eq!(r.len(), 2);
        let spans: Vec<&SpanRecord> = r.spans().collect();
        assert_eq!(spans[0].kind, SpanKind::Run);
        assert_eq!(spans[1].parent, spans[0].id, "recorded parent survives");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut r = SpanRecorder::new(&SpanConfig::default().with_ring_capacity(3));
        for i in 0..10u64 {
            r.complete(SpanKind::Execute, Some(0x40), i * 10, i * 10 + 5);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.spans().next().unwrap().start_cycle, 70);
    }

    #[test]
    fn jsonl_layout_and_determinism() {
        let r = sample();
        let out = r.to_jsonl();
        assert_eq!(out, sample().to_jsonl(), "wall stamps off => pure");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(json::str_member(lines[0], "type"), Some("span_meta"));
        assert_eq!(json::str_member(lines[0], "schema"), Some(SCHEMA));
        assert_eq!(json::str_member(lines[0], "scope"), Some("eh"));
        assert_eq!(json::u64_member(lines[0], "spans"), Some(5));
        assert_eq!(json::u64_member(lines[0], "dropped"), Some(0));
        let span = lines[1];
        assert_eq!(json::str_member(span, "type"), Some("span"));
        assert_eq!(json::str_member(span, "kind"), Some("translate"));
        assert_eq!(json::u64_member(span, "pc"), Some(0x40));
        assert_eq!(json::u64_member(span, "start_cycle"), Some(100));
        assert_eq!(json::u64_member(span, "end_cycle"), Some(250));
        assert_eq!(json::u64_member(span, "wall_start_us"), None);
        let run = lines[5];
        assert_eq!(json::str_member(run, "kind"), Some("run"));
        assert_eq!(json::member(run, "parent"), Some("null"));
    }

    #[test]
    fn wall_stamps_are_optional_and_monotone() {
        let mut r = SpanRecorder::new(&SpanConfig::default().with_wall_clock(true));
        let a = r.start(0, SpanKind::Request, None);
        r.end(a, 10);
        let rec = r.spans().next().unwrap();
        let (s, e) = (rec.wall_start_us.unwrap(), rec.wall_end_us.unwrap());
        assert!(e >= s);
    }

    #[test]
    fn folded_stacks_attribute_self_cycles() {
        let out = sample().folded();
        assert_eq!(out, sample().folded(), "deterministic");
        let lines: Vec<&str> = out.lines().collect();
        // run self = 1000 - (150 translate + 650 execute) = 200;
        // execute self = 650 - 300 fixup = 350; image_restore has zero
        // self and is omitted.
        assert!(lines.contains(&"eh;run 200"), "{out}");
        assert!(lines.contains(&"eh;run;translate@0x40 150"), "{out}");
        assert!(lines.contains(&"eh;run;execute@0x40 350"), "{out}");
        assert!(
            lines.contains(&"eh;run;execute@0x40;trap_fixup@0x44 300"),
            "{out}"
        );
        assert_eq!(lines.len(), 4, "zero-self spans omitted: {out}");
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "lexicographic order");
    }

    #[test]
    fn chrome_export_shape() {
        let out = sample().to_chrome_json();
        assert_eq!(out, sample().to_chrome_json(), "deterministic");
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(out.ends_with("]}"));
        assert!(out.contains(
            "\"name\":\"trap_fixup@0x44\",\"cat\":\"trap_fixup\",\"ph\":\"X\",\
             \"ts\":400,\"dur\":300"
        ));
        // Every span in the sample tree shares the run root's track.
        let tid_count = out.matches("\"tid\":1,").count() + out.matches("\"tid\":1}").count();
        assert_eq!(out.matches("\"ph\":\"X\"").count(), 5);
        assert_eq!(tid_count, 5, "one track per tree: {out}");
    }

    #[test]
    fn adopt_remaps_ids_and_reparents_roots() {
        let mut parent = SpanRecorder::new(&SpanConfig::default());
        parent.set_scope("serve");
        let req = parent.start(0, SpanKind::Request, None);
        let child = sample();
        parent.adopt(&child, req);
        parent.end(req, 2000);
        assert_eq!(parent.len(), 6);
        let ids: Vec<u64> = parent.spans().map(|r| r.id).collect();
        assert_eq!(ids.len(), {
            let mut d = ids.clone();
            d.dedup();
            d.len()
        });
        let adopted_run = parent
            .spans()
            .find(|r| r.kind == SpanKind::Run)
            .expect("child root adopted");
        let req_rec = parent
            .spans()
            .find(|r| r.kind == SpanKind::Request)
            .expect("request span");
        assert_eq!(adopted_run.parent, req_rec.id);
        let fixup = parent
            .spans()
            .find(|r| r.kind == SpanKind::TrapFixup)
            .unwrap();
        let exec = parent
            .spans()
            .find(|r| r.kind == SpanKind::Execute)
            .unwrap();
        assert_eq!(fixup.parent, exec.id, "interior links survive remap");
        // The folded view now roots at the request.
        assert!(parent
            .folded()
            .contains("serve;request;run;execute@0x40 350"));
    }

    #[test]
    fn explicit_parent_spans_ignore_the_open_stack() {
        let mut rec = SpanRecorder::new(&SpanConfig::default());
        rec.set_scope("serve");
        // Two interleaved "requests" sharing one recorder: innermost-open
        // inference would cross-link them; explicit parents must not.
        let a = rec.start_at(0, SpanKind::Request, None, SpanId::NONE);
        let b = rec.start_at(0, SpanKind::Request, None, SpanId::NONE);
        let da = rec.start_at(0, SpanKind::Dispatch, None, a);
        rec.complete_with(SpanKind::QueueWait, None, b, 0, 0, Some(5), Some(9));
        rec.end(da, 100);
        rec.end(b, 120);
        rec.end(a, 150);
        let wait = rec
            .spans()
            .find(|r| r.kind == SpanKind::QueueWait)
            .expect("queue-wait span");
        let dispatch = rec
            .spans()
            .find(|r| r.kind == SpanKind::Dispatch)
            .expect("dispatch span");
        let (ra, rb): (Vec<&SpanRecord>, Vec<&SpanRecord>) = rec
            .spans()
            .filter(|r| r.kind == SpanKind::Request)
            .partition(|r| r.end_cycle == 150);
        assert_eq!(dispatch.parent, ra[0].id);
        assert_eq!(wait.parent, rb[0].id);
        assert_eq!(ra[0].parent, 0);
        assert_eq!(rb[0].parent, 0);
        // Wall stamps are honoured only when the recorder stamps walls.
        assert_eq!(wait.wall_start_us, None);
        let mut stamped = SpanRecorder::new(&SpanConfig::default().with_wall_clock(true));
        stamped.complete_with(
            SpanKind::QueueWait,
            None,
            SpanId::NONE,
            0,
            0,
            Some(5),
            Some(9),
        );
        let w = stamped.spans().next().unwrap();
        assert_eq!((w.wall_start_us, w.wall_end_us), (Some(5), Some(9)));
    }
}
