//! The DBT engine: dispatch loop, guest-state synchronization, strategy
//! dispatch on misalignment traps, block chaining, retranslation and code
//! rearrangement.

use crate::codecache::{Block, CodeCache};
use crate::config::{DbtConfig, MdaStrategy};
use crate::exception::{self, HandlerError};
use crate::interp::{self, InterpError};
use crate::profile::{Profile, SiteId};
use crate::regmap::{
    host_gpr, ibtc_slot_addr, ibtc_tag, CODE_CACHE_ADDR, DISPATCH_BASE_ADDR, DISPATCH_BASE_REG,
    EXIT_PC_REG, FLAG_A, FLAG_B, FLAG_KIND_ADD, FLAG_KIND_DIRECT, FLAG_KIND_LOGIC, FLAG_KIND_REG,
    FLAG_KIND_SHIFT, FLAG_KIND_SUB, IBTC_BYTES, IBTC_HIT_CTR, MMX_IN_REGS, MMX_REGS, RAS_BYTES,
    RAS_ENTRIES, RAS_ENTRY_BYTES, RAS_HIT_CTR, RETIRE_CTR, STATE_BASE_REG, STATE_BLOCK_ADDR,
};
use crate::report::RunReport;
use crate::shared::{PlanVector, SharedBlock, SharedCodeCache};
use crate::translator::{self, DispatchOpts, SiteAccess, SitePlan, TranslatedBlock};
use bridge_alpha::builder::branch_disp;
use bridge_alpha::encode::encode as encode_alpha;
use bridge_alpha::insn::{BrOp, Insn as AInsn};
use bridge_alpha::reg::Reg;
use bridge_sim::cost::CostModel;
use bridge_sim::cpu::Machine;
use bridge_sim::trap::{Exit, MachineFault, UnalignedInfo};
use bridge_trace::{SiteWatch, SpanId, SpanKind, SpanRecorder, TraceEvent, TraceSink, Tracer};
use bridge_x86::insn::Width;
use bridge_x86::reg::Reg32;
use bridge_x86::state::CpuState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Fuel units charged per interpreted guest instruction (an interpreted
/// instruction is roughly this many host instructions of work).
const INTERP_FUEL_PER_INSN: u64 = 8;

/// Entries in the direct-mapped next-TB dispatch hint (QEMU's
/// `tb_jmp_cache` shape): one `(guest pc, host entry)` pair per slot,
/// probed before the block-table lookup on every monitor dispatch.
const HINT_ENTRIES: usize = 256;

/// A guest program image.
#[derive(Debug, Clone)]
pub struct GuestProgram {
    base: u32,
    entry: u32,
    image: Vec<u8>,
}

impl GuestProgram {
    /// Program loaded at `base` with entry at its first byte.
    pub fn new(base: u32, image: Vec<u8>) -> GuestProgram {
        GuestProgram {
            base,
            entry: base,
            image,
        }
    }

    /// Overrides the entry point.
    pub fn with_entry(mut self, entry: u32) -> GuestProgram {
        self.entry = entry;
        self
    }

    /// Load address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Image bytes.
    pub fn image(&self) -> &[u8] {
        &self.image
    }
}

/// Engine failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbtError {
    /// `run` called before `load`.
    NotLoaded,
    /// The fuel budget ran out before the guest executed `hlt`.
    FuelExhausted,
    /// The host machine faulted (a translator or engine bug).
    Machine(MachineFault),
    /// The interpreter hit undecodable guest bytes.
    Interp(InterpError),
    /// The exception handler failed (an engine bug).
    Handler(HandlerError),
    /// An internal invariant was violated.
    Internal(&'static str),
}

impl fmt::Display for DbtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbtError::NotLoaded => write!(f, "no guest program loaded"),
            DbtError::FuelExhausted => write!(f, "fuel exhausted before guest halt"),
            DbtError::Machine(m) => write!(f, "host machine fault: {m}"),
            DbtError::Interp(e) => write!(f, "interpreter error: {e}"),
            DbtError::Handler(e) => write!(f, "exception handler error: {e}"),
            DbtError::Internal(s) => write!(f, "internal invariant violated: {s}"),
        }
    }
}

impl std::error::Error for DbtError {}

impl From<InterpError> for DbtError {
    fn from(e: InterpError) -> DbtError {
        DbtError::Interp(e)
    }
}

impl From<HandlerError> for DbtError {
    fn from(e: HandlerError) -> DbtError {
        DbtError::Handler(e)
    }
}

/// How to resume after the misalignment handler ran.
enum Resume {
    /// Continue on the host machine; optionally redirect to a host address.
    Machine(Option<u64>),
    /// Return to the dispatcher and interpret from this guest PC.
    Interp(u32),
}

/// The engine's event counts. [`Dbt::trace`] bumps them, one `match`
/// on the event, so each count has exactly one source; the last three
/// have no event and one increment site each. [`Dbt::build_report`]
/// reads them and [`Dbt::publish_metrics`] copies them to the registry.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    /// Blocks installed, translated here or reused from the cache.
    blocks_translated: u64,
    retranslations: u64,
    traps: u64,
    os_fixups: u64,
    patched_sites: u64,
    rearrangements: u64,
    reversions: u64,
    monitor_exits: u64,
    ibtc_misses: u64,
    chains: u64,
    cache_flushes: u64,
    evictions: u64,
    /// Installs served by blocks restored from a persistent AOT image.
    image_hits: u64,
    /// Blocks this engine translated itself. Installs of another
    /// engine's cache entries do not count, so the fleet-wide sum
    /// measures real translation work.
    own_translations: u64,
    hint_hits: u64,
    hint_misses: u64,
}

impl Counts {
    /// The registry counters the counts publish, by name.
    fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("dbt.traps", self.traps),
            ("dbt.os_fixups", self.os_fixups),
            ("dbt.patches", self.patched_sites + self.rearrangements),
            ("dbt.cache_flushes", self.cache_flushes),
            ("dbt.blocks_translated", self.own_translations),
            ("dispatch.hint_hits", self.hint_hits),
            ("dispatch.hint_misses", self.hint_misses),
            (
                "dbt.code_cache.hits",
                self.blocks_translated - self.own_translations,
            ),
            ("dbt.code_cache.misses", self.own_translations),
            ("dbt.code_cache.evictions", self.evictions),
            ("dbt.image.block_hits", self.image_hits),
        ]
    }
}

/// The dynamic binary translator.
pub struct Dbt {
    cfg: DbtConfig,
    machine: Machine,
    state: CpuState,
    profile: Profile,
    cache: CodeCache,
    /// host block start → guest pc, for trap attribution.
    host_blocks: BTreeMap<u64, u32>,
    interp_only: HashSet<u32>,
    /// Sites the exception handler has converted to MDA sequences; they
    /// stay sequences across retranslations until explicitly reverted.
    forced_sequence: HashSet<SiteId>,
    /// Sites the Figure 8 adaptive code has reverted to plain accesses.
    forced_normal: HashSet<SiteId>,
    decode_cache: interp::DecodeCache,
    loaded: bool,
    guest_insns_interpreted: u64,
    counts: Counts,
    /// The counts as of the last [`Dbt::publish_metrics`].
    published: Counts,
    /// The most bytes the translation cache held after any install here,
    /// for the code-cache gauge's high watermark.
    cache_bytes_peak: u64,
    /// Last observed values of the in-machine hit counter registers, so
    /// each `run_machine` round can charge exactly the new hits.
    seen_ibtc_hits: u64,
    seen_ras_hits: u64,
    /// Last observed retired-instruction counter, for the tracer's guest
    /// progress series (only advances with `count_retired`).
    seen_retired: u64,
    /// Structured event recorder; the no-op tracer unless
    /// [`DbtConfig::trace`] is set. Recording never charges simulated
    /// cycles, so traced and untraced runs are identical.
    tracer: Tracer,
    /// Hierarchical span recorder; the no-op recorder unless
    /// [`DbtConfig::spans`] is set. Like the tracer, recording never
    /// charges simulated cycles.
    spans: SpanRecorder,
    /// Continuous per-site re-divergence watch; `None` unless
    /// [`DbtConfig::watch`] is set. Fed from the same event funnel as
    /// the tracer and advanced by simulated cycles at progress points —
    /// pure observation, never charges cycles.
    watch: Option<SiteWatch>,
    /// The engine's translation cache: the fleet's when one supplied it
    /// ([`DbtConfig::shared_cache`]), otherwise one created for this
    /// engine alone. It allocates the code region and evicts LRU blocks
    /// when it fills.
    shared: Arc<SharedCodeCache>,
    /// Shared entries this engine has installed locally, for the stale
    /// sweep at each coherence sync.
    shared_installs: HashMap<u32, Arc<SharedBlock>>,
    /// Local (re)translation count per guest PC — the shared-cache
    /// variant key (see [`SharedBlock::variant`]).
    install_counts: HashMap<u32, u32>,
    /// Shared-cache generation at the last sync.
    seen_shared_gen: u64,
    /// Shared guest-patch log entries already applied locally.
    seen_patch_seq: usize,
    /// Direct-mapped next-TB dispatch hint: `(guest pc, host entry)`,
    /// host 0 = empty. A pure host-side memo — hits skip the block-table
    /// lookup but charge exactly the same simulated cycles.
    hint: Vec<(u32, u64)>,
}

impl Dbt {
    /// Engine with the ES40 cost model and cache hierarchy.
    pub fn new(cfg: DbtConfig) -> Dbt {
        Dbt::with_machine(cfg, Machine::new())
    }

    /// Engine over a custom host machine (cost model, cache configuration).
    pub fn with_machine(cfg: DbtConfig, machine: Machine) -> Dbt {
        let cache = CodeCache::new(CODE_CACHE_ADDR, cfg.code_bytes, cfg.stub_bytes);
        let tracer = match &cfg.trace {
            Some(tc) => Tracer::new(tc),
            None => Tracer::disabled(),
        };
        let spans = match &cfg.spans {
            Some(sc) => {
                let mut s = SpanRecorder::new(sc);
                s.set_scope(cfg.strategy.slug());
                s
            }
            None => SpanRecorder::disabled(),
        };
        let watch = cfg.watch.map(SiteWatch::new);
        let shared = match &cfg.shared_cache {
            Some(sh) => Arc::clone(sh),
            None => SharedCodeCache::new(cfg.code_bytes),
        };
        assert!(
            shared.capacity() <= cfg.code_bytes,
            "shared cache capacity exceeds the engine's code region \
             (shared allocations would overlap the stub region)"
        );
        Dbt {
            cfg,
            machine,
            state: CpuState::new(0),
            profile: Profile::new(),
            cache,
            host_blocks: BTreeMap::new(),
            interp_only: HashSet::new(),
            forced_sequence: HashSet::new(),
            forced_normal: HashSet::new(),
            decode_cache: interp::DecodeCache::new(),
            loaded: false,
            guest_insns_interpreted: 0,
            counts: Counts::default(),
            published: Counts::default(),
            cache_bytes_peak: 0,
            seen_ibtc_hits: 0,
            seen_ras_hits: 0,
            seen_retired: 0,
            tracer,
            spans,
            watch,
            shared,
            shared_installs: HashMap::new(),
            install_counts: HashMap::new(),
            seen_shared_gen: 0,
            seen_patch_seq: 0,
            hint: vec![(0, 0); HINT_ENTRIES],
        }
    }

    /// Loads a guest program, resetting guest state.
    pub fn load(&mut self, prog: &GuestProgram) {
        self.machine
            .mem_mut()
            .write_bytes(u64::from(prog.base), prog.image());
        self.state = CpuState::new(prog.entry());
        self.machine.set_reg(STATE_BASE_REG, STATE_BLOCK_ADDR);
        self.machine.set_reg(DISPATCH_BASE_REG, DISPATCH_BASE_ADDR);
        self.loaded = true;
    }

    /// Presets the guest stack pointer.
    pub fn set_stack(&mut self, esp: u32) {
        self.state.set_reg(Reg32::Esp, esp);
    }

    /// Writes guest data memory (arrays the program will access).
    pub fn write_guest_memory(&mut self, addr: u32, bytes: &[u8]) {
        self.machine.mem_mut().write_bytes(u64::from(addr), bytes);
    }

    /// Rewrites guest *code* bytes, keeping every translation structure
    /// coherent: translated blocks overlapping `[addr, addr+len)` are
    /// invalidated (which also unchains incoming links and purges their
    /// IBTC/shadow-return-stack entries), and the interpreter's decode
    /// cache drops the range. The next execution of the region re-decodes
    /// the new bytes.
    ///
    /// The patch is published through the engine's translation cache:
    /// overlapping entries are invalidated there, and every other engine
    /// sharing the cache applies the same byte rewrite to its own guest
    /// memory at its next dispatch (see [`SharedCodeCache`]).
    pub fn write_guest_code(&mut self, addr: u32, bytes: &[u8]) {
        self.shared.write_guest_code(addr, bytes);
        // The sync applies our own patch (and any earlier unseen ones)
        // locally, in publish order.
        self.sync_shared();
    }

    /// The local half of a guest-code rewrite: invalidate overlapping
    /// translations, write the bytes, drop the decode-cache range.
    fn apply_guest_code(&mut self, addr: u32, bytes: &[u8]) {
        let start = addr;
        let end = addr.wrapping_add(bytes.len() as u32);
        // An x86 instruction decodes at most 16 bytes, so an instruction
        // starting within 16 bytes before the range may overlap it.
        let overlapping: Vec<u32> = self
            .cache
            .iter_blocks()
            .filter(|b| {
                b.guest_pcs
                    .iter()
                    .any(|&p| p < end && p.wrapping_add(16) > start)
            })
            .map(|b| b.guest_pc)
            .collect();
        for pc in overlapping {
            self.invalidate_block(pc, false);
        }
        self.machine.mem_mut().write_bytes(u64::from(addr), bytes);
        self.decode_cache.invalidate_range(start, end);
    }

    /// Resets the guest program counter so a halted program can be re-run
    /// (e.g. after [`Dbt::write_guest_code`]); all translations, profiles
    /// and statistics carry over.
    pub fn restart_at(&mut self, entry: u32) {
        self.state.eip = entry;
    }

    /// The host machine (statistics, memory inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The accumulated profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbtConfig {
        &self.cfg
    }

    /// A snapshot of the structured trace, with the run's per-site
    /// execution profile (dynamic executions, misaligned executions)
    /// folded into the telemetry table. `None` unless the engine was
    /// configured with [`DbtConfig::trace`].
    pub fn trace_snapshot(&self) -> Option<Tracer> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let mut t = self.tracer.clone();
        for (site, stats) in self.profile.iter_sites() {
            t.merge_profile_site(site.pc, stats.execs, stats.mdas);
        }
        Some(t)
    }

    /// The one funnel for engine events: counts the event, then records
    /// it at the current simulated cycle count. Recording is a single
    /// predictable branch when tracing is off. The re-divergence watch
    /// rides the same funnel, so every site-relevant event the tracer can
    /// see, the watch sees too.
    #[inline(always)]
    fn trace(&mut self, event: TraceEvent) {
        let c = &mut self.counts;
        match event {
            TraceEvent::BlockTranslated { .. } => c.blocks_translated += 1,
            TraceEvent::Retranslation { .. } => c.retranslations += 1,
            TraceEvent::Trap { .. } => c.traps += 1,
            TraceEvent::OsFixup { .. } => c.os_fixups += 1,
            TraceEvent::EhPatch { .. } => c.patched_sites += 1,
            TraceEvent::Rearrangement { .. } => c.rearrangements += 1,
            TraceEvent::Reversion { .. } => c.reversions += 1,
            TraceEvent::MonitorExit { .. } => c.monitor_exits += 1,
            TraceEvent::IbtcMiss { .. } => c.ibtc_misses += 1,
            TraceEvent::ChainBackpatch { .. } => c.chains += 1,
            TraceEvent::CacheFlush { .. } => c.cache_flushes += 1,
            TraceEvent::CacheEvict { .. } => c.evictions += 1,
            TraceEvent::ImageHit { .. } => c.image_hits += 1,
            _ => {}
        }
        let cycles = self.machine.stats().cycles;
        if let Some(w) = &mut self.watch {
            w.observe(cycles, &event);
        }
        self.tracer.record(cycles, event);
    }

    /// Advances the watch's rolling windows to the current simulated
    /// cycle count (no event), so quiet sites converge on time.
    #[inline(always)]
    fn watch_advance(&mut self) {
        if let Some(w) = &mut self.watch {
            w.advance(self.machine.stats().cycles);
        }
    }

    /// A sealed snapshot of the re-divergence watch: rolling windows are
    /// closed (the final partial window counts) and verdicts finalized.
    /// The engine's own watch keeps running — snapshots are cheap reads
    /// for monitoring mid-run. `None` unless the engine was configured
    /// with [`DbtConfig::watch`].
    pub fn watch_snapshot(&self) -> Option<SiteWatch> {
        self.watch.as_ref().map(|w| {
            let mut snap = w.clone();
            snap.seal();
            snap
        })
    }

    /// Takes the watch out of the engine, sealed, leaving `None`
    /// (subsequent runs observe nothing). The clone-free variant of
    /// [`Dbt::watch_snapshot`] for callers done with the engine.
    pub fn take_watch(&mut self) -> Option<SiteWatch> {
        self.watch.take().map(|mut w| {
            w.seal();
            w
        })
    }

    /// A snapshot of the hierarchical span recorder (completed spans,
    /// scope, drop counter). `None` unless the engine was configured with
    /// [`DbtConfig::spans`]. Spans from a run that ended in an error keep
    /// their root open; completed subtrees are still present.
    pub fn span_snapshot(&self) -> Option<SpanRecorder> {
        self.spans.is_enabled().then(|| self.spans.clone())
    }

    /// Takes the span recorder out of the engine, leaving a disabled one
    /// (subsequent runs record nothing). The clone-free variant of
    /// [`Dbt::span_snapshot`] for callers done with the engine — a
    /// profiler harvesting thousands of execute spans per run should not
    /// pay a full ring copy to read them.
    pub fn take_span_recorder(&mut self) -> Option<SpanRecorder> {
        self.spans
            .is_enabled()
            .then(|| std::mem::replace(&mut self.spans, SpanRecorder::disabled()))
    }

    /// Opens a span at the current simulated cycle count.
    #[inline(always)]
    fn span_start(&mut self, kind: SpanKind, guest_pc: Option<u32>) -> SpanId {
        self.spans
            .start(self.machine.stats().cycles, kind, guest_pc)
    }

    /// Closes a span at the current simulated cycle count.
    #[inline(always)]
    fn span_end(&mut self, id: SpanId) {
        self.spans.end(id, self.machine.stats().cycles);
    }

    /// Attaches a streaming trace sink: ring evictions flow to it in
    /// order, so arbitrarily long runs keep a full-fidelity event stream
    /// under the ring's bounded memory. Returns `false` when the engine
    /// is not tracing ([`DbtConfig::trace`] unset). Sink I/O is host-side
    /// only and never charges simulated cycles.
    pub fn attach_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> bool {
        self.tracer.set_sink(sink)
    }

    /// Completes an attached streaming sink: drains the retained ring
    /// tail into it and writes the aggregate footer. `None` when no sink
    /// is attached; see [`Tracer::finish_sink`].
    pub fn finish_trace_sink(&mut self) -> Option<Result<bridge_trace::SinkSummary, String>> {
        self.tracer.finish_sink()
    }

    /// Recovers the bytes of a finished in-memory streaming sink (see
    /// [`Tracer::take_sink_output`]).
    pub fn take_trace_sink_output(&mut self) -> Option<Vec<u8>> {
        self.tracer.take_sink_output()
    }

    /// Iterates over the currently installed translated blocks (for the
    /// [`crate::dump`] listings and diagnostics).
    pub fn code_cache_blocks(&self) -> impl Iterator<Item = &crate::codecache::Block> {
        self.cache.iter_blocks()
    }

    fn state_to_machine(&mut self) {
        for r in Reg32::ALL {
            let v = self.state.reg(r) as i32 as i64 as u64; // canonical sign-extended
            self.machine.set_reg(host_gpr(r), v);
        }
        for (i, hr) in MMX_REGS.iter().enumerate() {
            self.machine.set_reg(*hr, self.state.mm[i]);
        }
        for i in MMX_IN_REGS..8 {
            self.machine
                .mem_mut()
                .write_u64(STATE_BLOCK_ADDR + 8 * i as u64, self.state.mm[i]);
        }
        self.machine.set_reg(STATE_BASE_REG, STATE_BLOCK_ADDR);
        self.machine.set_reg(DISPATCH_BASE_REG, DISPATCH_BASE_ADDR);
        // Pack the interpreter's flags into the lazy-flag registers so they
        // survive translated blocks that set no flags of their own.
        let f = self.state.flags;
        let packed =
            u64::from(f.zf) | u64::from(f.sf) << 1 | u64::from(f.cf) << 2 | u64::from(f.of) << 3;
        self.machine
            .set_reg(FLAG_KIND_REG, u64::from(FLAG_KIND_DIRECT));
        self.machine.set_reg(FLAG_A, packed);
        self.machine.set_reg(FLAG_B, 0);
    }

    fn machine_to_state(&mut self) {
        for r in Reg32::ALL {
            self.state.set_reg(r, self.machine.reg(host_gpr(r)) as u32);
        }
        for (i, hr) in MMX_REGS.iter().enumerate() {
            self.state.mm[i] = self.machine.reg(*hr);
        }
        for i in MMX_IN_REGS..8 {
            self.state.mm[i] = self.machine.mem().read_u64(STATE_BLOCK_ADDR + 8 * i as u64);
        }
        self.state.flags = self.flags_from_machine();
    }

    /// Reconstructs exact EFLAGS from the lazy-flag registers (the kind tag
    /// every live flag setter writes, plus its operand snapshots).
    fn flags_from_machine(&self) -> bridge_x86::state::Flags {
        use bridge_x86::exec::alu;
        use bridge_x86::insn::AluOp;
        use bridge_x86::state::Flags;
        let kind = self.machine.reg(FLAG_KIND_REG) as u8;
        let a = self.machine.reg(FLAG_A) as u32;
        let b = self.machine.reg(FLAG_B) as u32;
        match kind {
            FLAG_KIND_ADD => alu(AluOp::Add, a, b).1,
            FLAG_KIND_SUB => alu(AluOp::Sub, a, b).1,
            FLAG_KIND_LOGIC => Flags {
                zf: a == 0,
                sf: (a as i32) < 0,
                cf: false,
                of: false,
            },
            FLAG_KIND_SHIFT => Flags {
                zf: a == 0,
                sf: (a as i32) < 0,
                cf: b & 1 != 0,
                of: false,
            },
            FLAG_KIND_DIRECT => Flags {
                zf: a & 1 != 0,
                sf: a & 2 != 0,
                cf: a & 4 != 0,
                of: a & 8 != 0,
            },
            _ => Flags::default(), // FLAG_KIND_CLEARED
        }
    }

    /// Runs the loaded program to `hlt`, within a fuel budget (roughly host
    /// instructions; each interpreted guest instruction costs several fuel
    /// units).
    ///
    /// Publishes the run's counts to [`DbtConfig::metrics`] on every
    /// return, `Ok` or `Err`.
    ///
    /// # Errors
    ///
    /// See [`DbtError`]. Programs that do not halt exhaust the fuel.
    pub fn run(&mut self, fuel: u64) -> Result<RunReport, DbtError> {
        let result = self.run_to_exit(fuel);
        self.publish_metrics();
        result
    }

    /// The body of [`Dbt::run`].
    fn run_to_exit(&mut self, fuel: u64) -> Result<RunReport, DbtError> {
        if !self.loaded {
            return Err(DbtError::NotLoaded);
        }
        let run_span = self.span_start(SpanKind::Run, Some(self.state.eip));
        if self.cfg.pretranslate && self.counts.blocks_translated == 0 {
            self.pretranslate()?;
        }
        let mut remaining = fuel;
        let mut in_machine = false;
        let mut pc = self.state.eip;

        loop {
            // Translation-cache coherence point: a single atomic load and
            // compare unless an eviction or patch happened.
            self.sync_shared();
            // Next-TB hint first — a hit skips the block-table lookup
            // entirely (same simulated cost; the saving is host work).
            let host = match self.hint_probe(pc) {
                Some(h) => Some(h),
                None => {
                    let found = self.cache.block(pc).map(|b| b.host_addr);
                    if let Some(h) = found {
                        self.hint_fill(pc, h);
                    }
                    found
                }
            };
            if let Some(host_entry) = host {
                if self.cfg.in_cache_dispatch {
                    // Every monitor dispatch seeds the IBTC, so the next
                    // dynamic transfer to this guest PC stays in-cache.
                    self.ibtc_fill(pc, host_entry);
                }
                if !in_machine {
                    self.state_to_machine();
                    in_machine = true;
                }
                self.machine.set_pc(host_entry);
                // One execute span per in-cache segment; trap-fixup spans
                // opened inside `run_machine` nest under it.
                let exec_span = self.span_start(SpanKind::Execute, Some(pc));
                let outcome = self.run_machine(&mut remaining);
                self.span_end(exec_span);
                match outcome? {
                    MachineOutcome::Dispatch(next) => {
                        pc = next;
                    }
                    MachineOutcome::SwitchToInterp(next) => {
                        self.machine_to_state();
                        in_machine = false;
                        pc = next;
                    }
                    MachineOutcome::Halted(final_pc) => {
                        self.machine_to_state();
                        self.state.eip = final_pc;
                        self.span_end(run_span);
                        return Ok(self.build_report());
                    }
                }
            } else {
                if in_machine {
                    self.machine_to_state();
                    in_machine = false;
                }
                self.state.eip = pc;
                let cost = self.machine.cost().clone();
                let out = {
                    // Split borrows: interpreter needs machine memory and
                    // the profile simultaneously.
                    let Dbt {
                        machine,
                        state,
                        profile,
                        decode_cache,
                        ..
                    } = self;
                    interp::interp_block_cached(
                        state,
                        machine.mem_mut(),
                        profile,
                        &cost,
                        decode_cache,
                    )?
                };
                self.machine.charge(out.cycles);
                self.guest_insns_interpreted += out.guest_insns;
                self.tracer
                    .progress(self.machine.stats().cycles, out.guest_insns);
                self.watch_advance();
                let spent = out.guest_insns.saturating_mul(INTERP_FUEL_PER_INSN);
                if spent >= remaining {
                    return Err(DbtError::FuelExhausted);
                }
                remaining -= spent;
                if out.halted {
                    self.span_end(run_span);
                    return Ok(self.build_report());
                }
                let heat = self.profile.heat_block(pc);
                if heat >= self.cfg.hot_threshold && !self.interp_only.contains(&pc) {
                    self.translate_and_install(pc, 0)?;
                }
                pc = out.next_pc;
            }
        }
    }

    /// FX!32-style offline pass: statically discovers every directly
    /// reachable basic block from the entry point and translates it before
    /// execution (translation costs are charged as usual). Indirectly
    /// reached blocks still go through the two-phase runtime. Returns the
    /// number of blocks translated.
    ///
    /// # Errors
    ///
    /// Fails only for a block larger than the whole code region.
    pub fn pretranslate(&mut self) -> Result<usize, DbtError> {
        let discovery = crate::cfg::discover_blocks(
            self.machine.mem(),
            self.state.eip,
            self.cfg.max_block_insns,
            8192,
        );
        let mut translated = 0usize;
        for pc in discovery.block_entries {
            if self.cache.block(pc).is_none()
                && !self.interp_only.contains(&pc)
                && self.translate_and_install(pc, 0)?
            {
                translated += 1;
            }
        }
        Ok(translated)
    }

    /// Runs the host machine until it needs the engine.
    fn run_machine(&mut self, remaining: &mut u64) -> Result<MachineOutcome, DbtError> {
        loop {
            if *remaining == 0 {
                return Err(DbtError::FuelExhausted);
            }
            let before = self.machine.stats().insns;
            let exit = self.machine.run(*remaining);
            let executed = self.machine.stats().insns - before;
            *remaining = remaining.saturating_sub(executed);
            if self.cfg.in_cache_dispatch {
                self.charge_in_cache_hits();
            }
            self.watch_advance();
            if self.tracer.is_enabled() && self.cfg.count_retired {
                let now = self.machine.reg(RETIRE_CTR);
                self.tracer.progress(
                    self.machine.stats().cycles,
                    now.wrapping_sub(self.seen_retired),
                );
                self.seen_retired = now;
            }
            match exit {
                Exit::Monitor => {
                    let d = self.machine.cost().dispatch;
                    self.machine.charge(d);
                    let next = self.machine.reg(EXIT_PC_REG) as u32;
                    self.trace(TraceEvent::MonitorExit { next_pc: next });
                    if self.cfg.in_cache_dispatch {
                        self.classify_monitor_exit(next);
                    }
                    return Ok(MachineOutcome::Dispatch(next));
                }
                Exit::Halted => {
                    let final_pc = self.machine.reg(EXIT_PC_REG) as u32;
                    return Ok(MachineOutcome::Halted(final_pc));
                }
                Exit::Request => {
                    let gpc = self.handle_reversion_request()?;
                    return Ok(MachineOutcome::SwitchToInterp(gpc));
                }
                Exit::Unaligned(info) => match self.handle_trap(info)? {
                    Resume::Machine(None) => continue,
                    Resume::Machine(Some(host)) => {
                        self.machine.set_pc(host);
                        continue;
                    }
                    Resume::Interp(gpc) => return Ok(MachineOutcome::SwitchToInterp(gpc)),
                },
                Exit::Fault(MachineFault::OutOfFuel) => return Err(DbtError::FuelExhausted),
                Exit::Fault(f) => return Err(DbtError::Machine(f)),
            }
        }
    }

    /// The registered misalignment exception handler.
    fn handle_trap(&mut self, info: UnalignedInfo) -> Result<Resume, DbtError> {
        let block_pc = self
            .host_blocks
            .range(..=info.pc)
            .next_back()
            .map(|(_, g)| *g)
            .ok_or(DbtError::Internal("trap outside any translated block"))?;
        let site = {
            let block = self
                .cache
                .block(block_pc)
                .ok_or(DbtError::Internal("host map points at a missing block"))?;
            *block
                .site_at_host
                .get(&info.pc)
                .ok_or(DbtError::Internal("trap at an unrecorded site"))?
        };
        self.profile.record_trap_mda(site);
        let trap_cost = self.machine.cost().unaligned_trap;
        self.trace(TraceEvent::Trap {
            site_pc: site.pc,
            slot: site.slot,
            cycles: trap_cost,
        });

        // The trap-fixup span covers the whole handling episode — trap
        // delivery through the strategy's response (including any nested
        // retranslation, which opens its own translate child span).
        let span = self.span_start(SpanKind::TrapFixup, Some(site.pc));
        let resume = self.trap_response(block_pc, site, &info);
        self.span_end(span);
        resume
    }

    /// The active strategy's response to a delivered misalignment trap.
    fn trap_response(
        &mut self,
        block_pc: u32,
        site: SiteId,
        info: &UnalignedInfo,
    ) -> Result<Resume, DbtError> {
        match self.cfg.strategy {
            MdaStrategy::Direct => Err(DbtError::Internal("direct method cannot trap")),
            MdaStrategy::StaticProfiling | MdaStrategy::DynamicProfiling => {
                self.os_fixup(info)?;
                let fixup_cost = self.machine.cost().unaligned_fixup;
                self.trace(TraceEvent::OsFixup {
                    site_pc: site.pc,
                    cycles: fixup_cost,
                });
                Ok(Resume::Machine(None))
            }
            MdaStrategy::ExceptionHandling => {
                if self.cfg.rearrange {
                    self.rearrange_block(block_pc, site)
                } else {
                    self.patch_site(block_pc, site, info)
                }
            }
            MdaStrategy::Dpeh => {
                if self.cfg.rearrange {
                    return self.rearrange_block(block_pc, site);
                }
                let resume = self.patch_site(block_pc, site, info)?;
                if let Some(block) = self.cache.block(block_pc) {
                    if self.cfg.retranslate
                        && block.trap_count >= self.cfg.retranslate_threshold
                        && block.retrans_count < self.cfg.max_retranslations
                    {
                        self.invalidate_block(block_pc, true);
                        return Ok(Resume::Interp(site.pc));
                    }
                }
                Ok(resume)
            }
        }
    }

    /// Handles a Figure 8 reversion request: the adaptive code at the site
    /// whose guest PC is in `R16` observed a long aligned streak, so both
    /// of its access slots revert to plain accesses and the containing
    /// block is retranslated (the next dispatch re-heats it through one
    /// interpretation). Returns the guest PC to resume interpretation at.
    fn handle_reversion_request(&mut self) -> Result<u32, DbtError> {
        let site_pc = self.machine.reg(EXIT_PC_REG) as u32;
        let host_pc = self.machine.pc();
        let block_pc = self
            .host_blocks
            .range(..=host_pc)
            .next_back()
            .map(|(_, g)| *g)
            .ok_or(DbtError::Internal("reversion request outside any block"))?;
        for slot in 0..2 {
            let site = SiteId::new(site_pc, slot);
            self.forced_normal.insert(site);
            self.forced_sequence.remove(&site);
        }
        self.invalidate_block(block_pc, false);
        let c = self.machine.cost().patch_base;
        self.machine.charge(c);
        self.trace(TraceEvent::Reversion { site_pc });
        Ok(site_pc)
    }

    /// The OS software fixup path (profiling-based strategies): emulate the
    /// access and resume after the faulting instruction — paid on *every*
    /// MDA at undetected sites.
    fn os_fixup(&mut self, info: &UnalignedInfo) -> Result<(), DbtError> {
        let fa = exception::decode_faulting(info)?;
        if fa.is_store {
            let v = self.machine.reg(fa.ra);
            self.machine.mem_mut().write_int(info.addr, info.size, v);
        } else {
            let raw = self.machine.mem().read_int(info.addr, info.size);
            let v = if fa.sign_extend {
                raw as u32 as i32 as i64 as u64
            } else {
                raw
            };
            self.machine.set_reg(fa.ra, v);
        }
        let c = self.machine.cost().unaligned_fixup;
        self.machine.charge(c);
        self.machine.set_pc(info.pc + 4);
        Ok(())
    }

    /// Exception-handling patch: build a stub and redirect the faulting
    /// instruction to it (Figure 5).
    fn patch_site(
        &mut self,
        block_pc: u32,
        site: SiteId,
        info: &UnalignedInfo,
    ) -> Result<Resume, DbtError> {
        let fa = exception::decode_faulting(info)?;
        let len = exception::stub_len(&fa);
        let stub_addr = match self.cache.alloc_stub(len) {
            Ok(a) => a,
            Err(_) => {
                // Stub region exhausted: flush everything and restart this
                // block through the interpreter.
                self.flush_cache();
                return Ok(Resume::Interp(site.pc));
            }
        };
        let words = exception::build_stub(&fa, stub_addr, info.pc + 4)?;
        self.machine.write_code(stub_addr, &words);
        let patch = exception::patch_word(info.pc, stub_addr)?;
        self.machine.patch_code_word(info.pc, patch);
        let cost = self.machine.cost();
        let charge = cost.patch_base + cost.patch_per_word * (len as u64 + 1);
        self.machine.charge(charge);
        if let Some(block) = self.cache.block_mut(block_pc) {
            block.trap_count += 1;
        }
        self.forced_sequence.insert(site);
        self.forced_normal.remove(&site);
        self.trace(TraceEvent::EhPatch {
            site_pc: site.pc,
            slot: site.slot,
            cycles: charge,
        });
        Ok(Resume::Machine(None))
    }

    /// Code rearrangement (§IV-A): retranslate the block with every
    /// handler-discovered site inlined as an MDA sequence, preserving
    /// spatial locality at the price of relocation work.
    fn rearrange_block(&mut self, block_pc: u32, site: SiteId) -> Result<Resume, DbtError> {
        let retrans_count = match self.cache.block(block_pc) {
            Some(b) => b.retrans_count,
            None => return Err(DbtError::Internal("rearranging a missing block")),
        };
        self.forced_sequence.insert(site);
        self.forced_normal.remove(&site);
        self.invalidate_block(block_pc, false);
        if !self.translate_and_install(block_pc, retrans_count)? {
            // Translation now fails (cannot happen in practice — it
            // succeeded before); fall back to interpretation.
            return Ok(Resume::Interp(site.pc));
        }
        // Charge relocation on top of translation (target-address fixup
        // over the block body).
        let (resume, words_len) = {
            let block = self
                .cache
                .block(block_pc)
                .ok_or(DbtError::Internal("rearranged block vanished"))?;
            let off = block
                .insn_starts
                .iter()
                .find(|(g, _)| *g == site.pc)
                .map(|(_, w)| *w)
                .ok_or(DbtError::Internal(
                    "faulting pc missing from rearranged block",
                ))?;
            (block.host_addr + 4 * u64::from(off), block.words_len)
        };
        let cost = self.machine.cost();
        let charge = cost.patch_base + cost.patch_per_word * u64::from(words_len);
        self.machine.charge(charge);
        self.trace(TraceEvent::Rearrangement {
            block_pc,
            site_pc: site.pc,
            cycles: charge,
        });
        Ok(Resume::Machine(Some(resume)))
    }

    /// The dispatch features the translator should emit for this config.
    fn dispatch_opts(&self) -> DispatchOpts {
        DispatchOpts {
            ibtc: self.cfg.in_cache_dispatch,
            shadow_ras: self.cfg.in_cache_dispatch && self.cfg.shadow_ras,
            count_retired: self.cfg.count_retired,
        }
    }

    /// Writes `pc → host` into the direct-mapped IBTC slot (skipping the
    /// write when the slot already holds exactly this entry).
    fn ibtc_fill(&mut self, pc: u32, host: u64) {
        let slot = ibtc_slot_addr(pc);
        let tag = ibtc_tag(pc);
        let mem = self.machine.mem_mut();
        if mem.read_u64(slot) == tag && mem.read_u64(slot + 8) == host {
            return;
        }
        mem.write_u64(slot, tag);
        mem.write_u64(slot + 8, host);
    }

    /// Charges the cheap in-cache cost for every IBTC/RAS-resolved transfer
    /// the machine performed since the last call (the emitted probe bumps a
    /// counter register per hit).
    fn charge_in_cache_hits(&mut self) {
        let ibtc_now = self.machine.reg(IBTC_HIT_CTR);
        let ras_now = self.machine.reg(RAS_HIT_CTR);
        let ibtc = ibtc_now.wrapping_sub(self.seen_ibtc_hits);
        let ras = ras_now.wrapping_sub(self.seen_ras_hits);
        let delta = ibtc + ras;
        if delta > 0 {
            let c = self.machine.cost().in_cache_dispatch * delta;
            self.machine.charge(c);
            self.trace(TraceEvent::InCacheHits { ibtc, ras });
        }
        self.seen_ibtc_hits = ibtc_now;
        self.seen_ras_hits = ras_now;
    }

    /// Attributes a monitor exit to the pal word that raised it: an IBTC
    /// probe miss (counted), or a constant-target exit stub — which is
    /// lazily chained on this first use if its target is already
    /// translated (with in-cache dispatch the engine does not keep a
    /// pending-chain registry; exits chain when actually taken).
    fn classify_monitor_exit(&mut self, next: u32) {
        // CallPal advances the machine pc past the pal word before exiting.
        let pal_addr = self.machine.pc().wrapping_sub(4);
        let Some(block_pc) = self
            .host_blocks
            .range(..=pal_addr)
            .next_back()
            .map(|(_, g)| *g)
        else {
            return;
        };
        let Some(block) = self.cache.block(block_pc) else {
            return;
        };
        if pal_addr >= block.host_addr + 4 * u64::from(block.words_len) {
            return; // exit from a stub, not a block body
        }
        if block.indirect_exits.contains(&pal_addr) {
            self.trace(TraceEvent::IbtcMiss { next_pc: next });
            return;
        }
        // A constant-target exit stub is load_imm32 (1–2 words) + call_pal.
        let slot_idx = block.exit_slots.iter().position(|s| {
            !s.chained && s.target == next && s.host_addr < pal_addr && pal_addr <= s.host_addr + 8
        });
        if let (Some(i), true) = (slot_idx, self.cfg.chaining) {
            let target_host = if next == block_pc {
                Some(block.host_addr)
            } else {
                self.cache.block(next).map(|b| b.host_addr)
            };
            if let Some(t) = target_host {
                self.chain_slot(block_pc, i, t);
            }
        }
    }

    /// Purges dispatch structures that may reference a removed block: its
    /// own IBTC slot (tag-checked — the direct-mapped slot may by now
    /// belong to another guest PC) and any shadow-return-stack host
    /// snapshot pointing into its host range.
    fn dispatch_purge(&mut self, block: &Block) {
        let slot = ibtc_slot_addr(block.guest_pc);
        let mem = self.machine.mem_mut();
        if mem.read_u64(slot) == ibtc_tag(block.guest_pc) {
            mem.write_u64(slot, 0);
            mem.write_u64(slot + 8, 0);
        }
        let lo = block.host_addr;
        let hi = block.host_addr + 4 * u64::from(block.words_len);
        let ras_base = DISPATCH_BASE_ADDR + IBTC_BYTES;
        for i in 0..RAS_ENTRIES {
            let host_at = ras_base + i * RAS_ENTRY_BYTES + 8;
            let h = mem.read_u64(host_at);
            if h >= lo && h < hi {
                mem.write_u64(host_at, 0);
            }
        }
    }

    /// Zeroes the whole IBTC and shadow return stack (cache flush).
    fn dispatch_flush(&mut self) {
        let mem = self.machine.mem_mut();
        for off in (0..IBTC_BYTES + RAS_BYTES).step_by(8) {
            mem.write_u64(DISPATCH_BASE_ADDR + off, 0);
        }
    }

    /// Removes a block: unchains incoming links and (optionally, for
    /// retranslation) resets its profile so the next profiling window sees
    /// only current behaviour.
    fn invalidate_block(&mut self, block_pc: u32, reset_profile: bool) {
        let incoming = self.cache.chained_into(block_pc);
        let Some(block) = self.cache.remove_block(block_pc) else {
            return;
        };
        self.host_blocks.remove(&block.host_addr);
        self.hint_drop(block_pc);
        self.shared_installs.remove(&block_pc);
        if self.cfg.in_cache_dispatch {
            self.dispatch_purge(&block);
        }
        for (src, slot_idx) in incoming {
            if src == block_pc {
                continue; // the removed block's own slot is dead code
            }
            if let Some(sb) = self.cache.block_mut(src) {
                let slot = &mut sb.exit_slots[slot_idx];
                let (addr, orig) = (slot.host_addr, slot.original_word);
                slot.chained = false;
                self.machine.patch_code_word(addr, orig);
                if !self.cfg.in_cache_dispatch {
                    // Lazy mode re-chains on first use instead.
                    self.cache.add_pending_chain(src, slot_idx, block_pc);
                }
            }
        }
        if reset_profile {
            let pcs: HashSet<u32> = block.guest_pcs.iter().copied().collect();
            self.profile.reset_block(block_pc, &pcs);
            // Re-decide the block's sites from the fresh profiling window.
            self.forced_sequence.retain(|s| !pcs.contains(&s.pc));
            self.forced_normal.retain(|s| !pcs.contains(&s.pc));
        }
        let c = self.machine.cost().invalidate_block;
        self.machine.charge(c);
        self.trace(TraceEvent::CacheInvalidate { block_pc });
        if reset_profile {
            self.trace(TraceEvent::Retranslation { block_pc });
        }
    }

    /// Empties this engine's block table and stub region (stub-region
    /// exhaustion; a full code region evicts LRU blocks instead).
    fn flush_cache(&mut self) {
        let blocks = self.cache.block_count() as u64;
        self.cache.flush();
        self.host_blocks.clear();
        self.hint.fill((0, 0));
        self.shared_installs.clear();
        if self.cfg.in_cache_dispatch {
            self.dispatch_flush();
        }
        let c = self.machine.cost().invalidate_block * blocks;
        self.machine.charge(c);
        self.machine.flush_caches();
        self.trace(TraceEvent::CacheFlush { blocks });
    }

    /// Translates `block_pc` with the active strategy's site plans and
    /// installs it. Returns `false` if the block is untranslatable (it is
    /// then permanently interpreted).
    fn translate_and_install(
        &mut self,
        block_pc: u32,
        retrans_count: u32,
    ) -> Result<bool, DbtError> {
        let span = self.span_start(SpanKind::Translate, Some(block_pc));
        let installed = self.translate_or_reuse(block_pc, retrans_count);
        self.span_end(span);
        installed
    }

    /// Validate-and-reuse a cache entry when one exists, otherwise
    /// translate once under the cache's translate lock and publish the
    /// product. Either way the engine pays the full simulated translation
    /// charge in [`Dbt::install_block`] — only *host* translation work is
    /// elided, so an engine reusing another's products reports exactly
    /// what it would have reported translating them itself.
    fn translate_or_reuse(&mut self, block_pc: u32, retrans_count: u32) -> Result<bool, DbtError> {
        let sh = Arc::clone(&self.shared);
        // Bring local bookkeeping current before touching shared space:
        // another executor's evictions may have reclaimed addresses our
        // stale local installs still occupy.
        self.sync_shared();
        let variant = self.install_counts.get(&block_pc).copied().unwrap_or(0);
        if let Some(e) = self.shared_lookup(block_pc, variant) {
            self.install_shared(&e, retrans_count);
            return Ok(true);
        }
        // Miss: translate under the cache lock, double-checking first so
        // racing executors never translate the same variant twice.
        let guard = sh.translate_lock();
        if let Some(e) = self.shared_lookup(block_pc, variant) {
            drop(guard);
            self.install_shared(&e, retrans_count);
            return Ok(true);
        }
        let base = sh.candidate_addr();
        let Some((tb, plans)) = self.translate_recording(block_pc, base) else {
            self.interp_only.insert(block_pc);
            return Ok(false);
        };
        let Some(alloc) = sh.alloc(tb.words.len()) else {
            return Err(DbtError::Internal("block larger than the code region"));
        };
        for &pc in &alloc.evicted {
            self.trace(TraceEvent::CacheEvict { block_pc: pc });
        }
        if !alloc.evicted.is_empty() {
            // Our own local installs may sit in the reclaimed space.
            self.sync_shared();
        }
        let tb = if alloc.addr == base {
            tb
        } else {
            // First-fit handed us a reclaimed hole, not the bump address
            // we translated against; re-emit for the final address
            // (host-side work only — translation is deterministic).
            match self.translate_recording(block_pc, alloc.addr) {
                Some((tb, _)) => tb,
                None => {
                    self.interp_only.insert(block_pc);
                    return Ok(false);
                }
            }
        };
        let entry = sh.insert(tb, alloc.addr, variant, plans, self.dispatch_opts());
        drop(guard);
        self.counts.own_translations += 1;
        self.install_shared(&entry, retrans_count);
        Ok(true)
    }

    /// Installs a shared entry into this engine's memory and block table,
    /// recording it for the coherence stale sweep.
    fn install_shared(&mut self, entry: &Arc<SharedBlock>, retrans_count: u32) {
        let restore_span = if entry.preloaded {
            self.trace(TraceEvent::ImageHit {
                block_pc: entry.tb.guest_pc,
            });
            self.span_start(SpanKind::ImageRestore, Some(entry.tb.guest_pc))
        } else {
            SpanId::NONE
        };
        self.install_block(&entry.tb, entry.host_addr, retrans_count);
        self.span_end(restore_span);
        self.shared_installs
            .insert(entry.tb.guest_pc, Arc::clone(entry));
        *self.install_counts.entry(entry.tb.guest_pc).or_insert(0) += 1;
        let bytes = self.shared.stats().bytes_used;
        self.cache_bytes_peak = self.cache_bytes_peak.max(bytes);
    }

    /// Translates `block_pc` against `base` with the active strategy's
    /// plan function, recording every per-site decision — the validation
    /// key other executors re-check before reusing the product. `None`
    /// when the block is untranslatable.
    fn translate_recording(
        &self,
        block_pc: u32,
        base: u64,
    ) -> Option<(TranslatedBlock, PlanVector)> {
        let mut plans: PlanVector = Vec::new();
        let mut plan = |site: SiteId, acc: SiteAccess| -> SitePlan {
            let p = self.plan(site, acc);
            plans.push((site, acc, p));
            p
        };
        let tb = translator::translate_block(
            self.machine.mem(),
            block_pc,
            base,
            self.cfg.max_block_insns,
            &mut plan,
            self.dispatch_opts(),
        )
        .ok()?;
        Some((tb, plans))
    }

    /// Cache lookup with this engine's current plan function as the
    /// validator (see [`SharedCodeCache::lookup`]).
    fn shared_lookup(&self, block_pc: u32, variant: u32) -> Option<Arc<SharedBlock>> {
        let mut plan = |site: SiteId, acc: SiteAccess| self.plan(site, acc);
        self.shared
            .lookup(block_pc, variant, self.dispatch_opts(), &mut plan)
    }

    /// The per-site translation decision for each strategy (the table in
    /// the crate docs). With [`DbtConfig::adaptive_reversion`] on, DPEH
    /// upgrades would-be sequences to Figure 8 adaptive code.
    fn plan(&self, site: SiteId, acc: SiteAccess) -> SitePlan {
        if acc.width == Width::W1 {
            return SitePlan::Normal; // bytes cannot misalign
        }
        let strategy = self.cfg.strategy;
        let sequence = || {
            if self.cfg.adaptive_reversion && strategy == MdaStrategy::Dpeh {
                SitePlan::Adaptive {
                    threshold: self.cfg.reversion_threshold,
                }
            } else {
                SitePlan::Sequence
            }
        };
        if self.forced_sequence.contains(&site) {
            return sequence();
        }
        if self.forced_normal.contains(&site) {
            return SitePlan::Normal;
        }
        match strategy {
            MdaStrategy::Direct => SitePlan::Sequence,
            MdaStrategy::StaticProfiling => {
                if self
                    .cfg
                    .static_profile
                    .as_ref()
                    .is_some_and(|p| p.contains(site))
                {
                    SitePlan::Sequence
                } else {
                    SitePlan::Normal
                }
            }
            MdaStrategy::DynamicProfiling => {
                if self.profile.saw_mda(site) {
                    SitePlan::Sequence
                } else {
                    SitePlan::Normal
                }
            }
            MdaStrategy::ExceptionHandling => SitePlan::Normal,
            MdaStrategy::Dpeh => {
                let s = self.profile.site(site);
                let mv_min = self.cfg.multiversion_min_samples;
                if s.mdas == 0 {
                    SitePlan::Normal
                } else if self.cfg.multiversion && s.mdas >= mv_min && s.execs - s.mdas >= mv_min {
                    SitePlan::MultiVersion
                } else {
                    sequence()
                }
            }
        }
    }

    /// Brings per-CPU state current with the shared cache: applies guest
    /// patches published by other executors and drops local installs
    /// whose shared entry was evicted or invalidated. The fast path —
    /// generation unchanged — is one atomic load and a compare; no lock.
    fn sync_shared(&mut self) {
        let gen = self.shared.generation();
        if gen == self.seen_shared_gen {
            return;
        }
        self.seen_shared_gen = gen;
        let (patches, seen) = self.shared.patches_since(self.seen_patch_seq);
        self.seen_patch_seq = seen;
        for p in patches {
            self.apply_guest_code(p.addr, &p.bytes);
        }
        let stale: Vec<u32> = self
            .shared_installs
            .iter()
            .filter(|(_, e)| !e.is_valid())
            .map(|(&pc, _)| pc)
            .collect();
        for pc in stale {
            self.shared_installs.remove(&pc);
            self.invalidate_block(pc, false);
        }
    }

    /// Probes the next-TB hint for a dispatch to `pc`.
    #[inline]
    fn hint_probe(&mut self, pc: u32) -> Option<u64> {
        let (hpc, host) = self.hint[(pc as usize) & (HINT_ENTRIES - 1)];
        if host != 0 && hpc == pc {
            self.counts.hint_hits += 1;
            Some(host)
        } else {
            None
        }
    }

    /// Fills the hint slot after a block-table lookup found `pc`
    /// translated (a dispatch the hint failed to eliminate).
    fn hint_fill(&mut self, pc: u32, host: u64) {
        self.counts.hint_misses += 1;
        self.hint[(pc as usize) & (HINT_ENTRIES - 1)] = (pc, host);
    }

    /// Drops the hint slot for an invalidated block.
    fn hint_drop(&mut self, pc: u32) {
        let slot = &mut self.hint[(pc as usize) & (HINT_ENTRIES - 1)];
        if slot.0 == pc {
            *slot = (0, 0);
        }
    }

    fn install_block(&mut self, tb: &TranslatedBlock, addr: u64, retrans_count: u32) {
        self.machine.write_code(addr, &tb.words);
        let originals: Vec<u32> = tb
            .exits
            .iter()
            .map(|e| tb.words[((e.host_addr - addr) / 4) as usize])
            .collect();
        self.cache.install(tb, addr, originals);
        self.host_blocks.insert(addr, tb.guest_pc);
        if let Some(b) = self.cache.block_mut(tb.guest_pc) {
            b.retrans_count = retrans_count;
        }
        let cost = self.machine.cost();
        let charge = cost.translate_per_block
            + cost.translate_per_guest_insn * u64::from(tb.guest_insn_count);
        self.machine.charge(charge);
        if self.counts.blocks_translated == 0 {
            // First translation: the run leaves the interpret-and-profile
            // phase (profiling decisions freeze under DPEH).
            self.trace(TraceEvent::PhaseTransition {
                guest_pc: tb.guest_pc,
            });
        }
        self.trace(TraceEvent::BlockTranslated {
            guest_pc: tb.guest_pc,
        });

        if self.cfg.chaining {
            // Outgoing exits whose targets already exist.
            for (i, exit) in tb.exits.iter().enumerate() {
                let target_host = if exit.target == tb.guest_pc {
                    Some(addr)
                } else {
                    self.cache.block(exit.target).map(|b| b.host_addr)
                };
                match target_host {
                    Some(t) => self.chain_slot(tb.guest_pc, i, t),
                    None if !self.cfg.in_cache_dispatch => {
                        self.cache.add_pending_chain(tb.guest_pc, i, exit.target);
                    }
                    // Lazy mode: the exit chains the first time it is
                    // actually taken (classify_monitor_exit).
                    None => {}
                }
            }
            // Incoming exits waiting for this block.
            for (src, slot_idx) in self.cache.take_pending_chains(tb.guest_pc) {
                if self.cache.block(src).is_some() {
                    self.chain_slot(src, slot_idx, addr);
                }
            }
        }
    }

    /// Patches one exit slot into a direct branch to `target_host`.
    fn chain_slot(&mut self, block_pc: u32, slot_idx: usize, target_host: u64) {
        let Some(block) = self.cache.block_mut(block_pc) else {
            return;
        };
        let slot = &mut block.exit_slots[slot_idx];
        if slot.chained {
            return;
        }
        let disp = branch_disp(slot.host_addr, target_host)
            .expect("code cache regions are within branch range");
        let word = encode_alpha(&AInsn::Br {
            op: BrOp::Br,
            ra: Reg::ZERO,
            disp,
        });
        let addr = slot.host_addr;
        let target_pc = slot.target;
        slot.chained = true;
        self.machine.patch_code_word(addr, word);
        let c = self.machine.cost().patch_per_word;
        self.machine.charge(c);
        self.trace(TraceEvent::ChainBackpatch {
            block_pc,
            target_pc,
        });
    }

    fn build_report(&self) -> RunReport {
        let c = &self.counts;
        RunReport {
            final_state: self.state.clone(),
            stats: *self.machine.stats(),
            guest_insns_interpreted: self.guest_insns_interpreted,
            blocks_translated: c.blocks_translated,
            retranslations: c.retranslations,
            patched_sites: c.patched_sites,
            rearrangements: c.rearrangements,
            reversions: c.reversions,
            os_fixups: c.os_fixups,
            chains: c.chains,
            monitor_exits: c.monitor_exits,
            ibtc_hits: self.machine.reg(IBTC_HIT_CTR),
            ibtc_misses: c.ibtc_misses,
            ras_hits: self.machine.reg(RAS_HIT_CTR),
            guest_insns_retired: self.machine.reg(RETIRE_CTR),
            cache_flushes: c.cache_flushes,
            interp_only_blocks: self.interp_only.len() as u64,
            hint_hits: c.hint_hits,
            hint_misses: c.hint_misses,
            profile: self.profile.clone(),
        }
    }

    /// Adds the counts since the last publish to [`DbtConfig::metrics`]:
    /// the engine's only registry write, made when a run returns. Every
    /// name is written, zero or not, so the instrument set does not
    /// depend on what the run did. The code-cache gauge moves only when
    /// the run installed a block: to the peak after any install (its
    /// high watermark), then to the current size.
    fn publish_metrics(&mut self) {
        let Some(r) = self.cfg.metrics.as_deref() else {
            return;
        };
        let was = std::mem::replace(&mut self.published, self.counts);
        for ((name, now), (_, before)) in self.counts.counters().into_iter().zip(was.counters()) {
            r.counter(name).add(now - before);
        }
        let bytes = r.gauge("dbt.code_cache.bytes");
        if self.counts.blocks_translated > was.blocks_translated {
            bytes.set(self.cache_bytes_peak as i64);
            bytes.set(self.shared.stats().bytes_used as i64);
        }
    }
}

enum MachineOutcome {
    /// Monitor exit: dispatch to this guest PC.
    Dispatch(u32),
    /// The handler asked for interpretation from this guest PC.
    SwitchToInterp(u32),
    /// Guest `hlt`, with the final guest PC.
    Halted(u32),
}

/// Convenience: interpret a program start-to-finish with full profiling —
/// the golden reference for equivalence tests, the training runs for
/// static profiling, and the Table I measurement.
///
/// Returns the final state and profile.
///
/// # Errors
///
/// [`DbtError::Interp`] on undecodable guest bytes;
/// [`DbtError::FuelExhausted`] if `max_insns` guest instructions run
/// without a `hlt`.
pub fn profile_program(
    prog: &GuestProgram,
    data: &[(u32, Vec<u8>)],
    stack: Option<u32>,
    cost: &CostModel,
    max_insns: u64,
) -> Result<(CpuState, Profile), DbtError> {
    let mut mem = bridge_sim::mem::Memory::new();
    mem.write_bytes(u64::from(prog.base()), prog.image());
    for (addr, bytes) in data {
        mem.write_bytes(u64::from(*addr), bytes);
    }
    let mut state = CpuState::new(prog.entry());
    if let Some(esp) = stack {
        state.set_reg(Reg32::Esp, esp);
    }
    let mut profile = Profile::new();
    let halted = interp::run_interp_only(&mut state, &mut mem, &mut profile, cost, max_insns)?;
    if !halted {
        return Err(DbtError::FuelExhausted);
    }
    Ok((state, profile))
}

/// Compares two guest states for architectural equivalence: registers, MMX
/// state and condition flags (the engine reconstructs exact EFLAGS from the
/// lazy-flag registers whenever control leaves translated code).
pub fn states_equivalent(a: &CpuState, b: &CpuState) -> bool {
    a.regs == b.regs && a.mm == b.mm && a.flags == b.flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StaticProfile;
    use bridge_metrics::Registry;
    use bridge_x86::asm::Assembler;
    use bridge_x86::cond::Cond;
    use bridge_x86::insn::{AluOp, MemRef};
    use bridge_x86::reg::Reg32::*;
    use bridge_x86::reg::RegMm;

    fn program(build: impl FnOnce(&mut Assembler)) -> GuestProgram {
        let mut a = Assembler::new(0x40_0000);
        build(&mut a);
        GuestProgram::new(0x40_0000, a.finish().unwrap())
    }

    fn run_with(cfg: DbtConfig, prog: &GuestProgram) -> RunReport {
        let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
        dbt.load(prog);
        dbt.set_stack(0x00F0_0000);
        dbt.run(200_000_000).expect("program halts")
    }

    fn sum_loop_program(base_addr: i32, iters: i32) -> GuestProgram {
        program(|a| {
            a.mov_ri(Ebx, base_addr);
            a.mov_ri(Ecx, iters);
            a.mov_ri(Eax, 0);
            let top = a.here_label();
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        })
    }

    #[test]
    fn all_strategies_agree_with_reference() {
        let prog = sum_loop_program(0x10_0002, 300); // misaligned hot loop
        let (ref_state, _) = profile_program(
            &prog,
            &[(0x10_0002, 7u32.to_le_bytes().to_vec())],
            Some(0x00F0_0000),
            &CostModel::flat(),
            1_000_000,
        )
        .unwrap();

        for strategy in MdaStrategy::ALL {
            let mut cfg = DbtConfig::new(strategy).with_threshold(10);
            if strategy == MdaStrategy::StaticProfiling {
                cfg = cfg.with_static_profile(StaticProfile::new());
            }
            let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
            dbt.load(&prog);
            dbt.set_stack(0x00F0_0000);
            dbt.write_guest_memory(0x10_0002, &7u32.to_le_bytes());
            let report = dbt.run(200_000_000).expect("halts");
            assert!(
                states_equivalent(&report.final_state, &ref_state),
                "{strategy:?}: {:?} vs {:?}",
                report.final_state.regs,
                ref_state.regs
            );
            assert_eq!(report.final_state.reg(Eax), 2100, "{strategy:?}");
        }
    }

    #[test]
    fn direct_never_traps() {
        let prog = sum_loop_program(0x10_0001, 200);
        let report = run_with(DbtConfig::new(MdaStrategy::Direct).with_threshold(5), &prog);
        assert_eq!(report.traps(), 0);
        assert!(report.blocks_translated >= 1);
    }

    #[test]
    fn exception_handling_traps_once_per_site() {
        let prog = sum_loop_program(0x10_0001, 500);
        let report = run_with(
            DbtConfig::new(MdaStrategy::ExceptionHandling).with_threshold(5),
            &prog,
        );
        // One trappable MDA site → exactly one trap, then patched.
        assert_eq!(report.traps(), 1);
        assert_eq!(report.patched_sites, 1);
        assert_eq!(report.os_fixups, 0);
    }

    #[test]
    fn dynamic_profiling_catches_hot_site_without_traps() {
        let prog = sum_loop_program(0x10_0001, 500);
        let report = run_with(
            DbtConfig::new(MdaStrategy::DynamicProfiling).with_threshold(50),
            &prog,
        );
        // The site misaligns during the 50 profiling iterations, so the
        // translation uses the sequence: zero traps.
        assert_eq!(report.traps(), 0);
        assert_eq!(report.os_fixups, 0);
    }

    #[test]
    fn dynamic_profiling_pays_per_occurrence_on_late_sites() {
        // Phase change: aligned for the first 100 iterations, misaligned
        // for the next 400 — profiling at threshold 10 sees only aligned.
        let prog = program(|a| {
            a.mov_ri(Ebx, 0x10_0000); // aligned base
            a.mov_ri(Ecx, 500);
            let top = a.here_label();
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
            // at iteration 400 remaining (i.e. after 100 done): switch base
            a.alu_ri(AluOp::Cmp, Ecx, 400);
            let skip = a.new_label();
            a.jcc(Cond::Ne, skip);
            a.mov_ri(Ebx, 0x10_0101); // misaligned base
            a.bind(skip);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let report = run_with(
            DbtConfig::new(MdaStrategy::DynamicProfiling).with_threshold(10),
            &prog,
        );
        // Hundreds of per-occurrence fixups: the paper's Table III effect.
        assert!(report.os_fixups > 100, "fixups: {}", report.os_fixups);
        assert_eq!(report.traps(), report.os_fixups);

        // Exception handling patches it once instead.
        let report_eh = run_with(
            DbtConfig::new(MdaStrategy::ExceptionHandling).with_threshold(10),
            &prog,
        );
        assert!(report_eh.traps() <= 3, "traps: {}", report_eh.traps());
        assert!(report_eh.cycles() < report.cycles());
    }

    #[test]
    fn static_profile_from_train_run() {
        let prog = sum_loop_program(0x10_0001, 500);
        // Training run with the same behaviour.
        let (_, train_profile) =
            profile_program(&prog, &[], Some(0x00F0_0000), &CostModel::flat(), 1_000_000).unwrap();
        let cfg = DbtConfig::new(MdaStrategy::StaticProfiling)
            .with_threshold(5)
            .with_static_profile(train_profile.to_static_profile());
        let report = run_with(cfg, &prog);
        assert_eq!(report.traps(), 0, "train profile covers the site");
    }

    #[test]
    fn chaining_reduces_monitor_exits() {
        let prog = sum_loop_program(0x10_0000, 2000);
        let chained = run_with(
            DbtConfig::new(MdaStrategy::ExceptionHandling).with_threshold(5),
            &prog,
        );
        let unchained = run_with(
            DbtConfig::new(MdaStrategy::ExceptionHandling)
                .with_threshold(5)
                .with_chaining(false),
            &prog,
        );
        assert!(chained.chains >= 1);
        assert_eq!(unchained.chains, 0);
        assert!(
            chained.cycles() < unchained.cycles(),
            "chaining must pay off"
        );
    }

    #[test]
    fn retranslation_triggers_on_repeated_traps() {
        // Four sites, all aligned during the profiling window, then all
        // misaligned after a phase change: each traps once after
        // translation, so the block accumulates 4 traps and is
        // retranslated (the paper's Figure 7 flow, threshold 4).
        let prog = program(|a| {
            a.mov_ri(Ebx, 0x10_0000); // aligned base for phase 1
            a.mov_ri(Ecx, 600);
            let top = a.here_label();
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
            a.alu_rm(AluOp::Add, Edx, MemRef::base_disp(Ebx, 8));
            a.alu_rm(AluOp::Add, Esi, MemRef::base_disp(Ebx, 16));
            a.alu_rm(AluOp::Add, Edi, MemRef::base_disp(Ebx, 24));
            a.alu_ri(AluOp::Cmp, Ecx, 500);
            let skip = a.new_label();
            a.jcc(Cond::Ne, skip);
            a.mov_ri(Ebx, 0x10_0201); // phase 2: misaligned base
            a.bind(skip);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let cfg = DbtConfig::new(MdaStrategy::Dpeh)
            .with_threshold(10)
            .with_retranslate(true);
        let report = run_with(cfg, &prog);
        assert!(report.retranslations >= 1, "report: {report}");

        // Without retranslation the same program just patches the sites.
        let cfg2 = DbtConfig::new(MdaStrategy::Dpeh).with_threshold(10);
        let report2 = run_with(cfg2, &prog);
        assert_eq!(report2.retranslations, 0);
        assert!(report2.patched_sites >= 4, "report: {report2}");
    }

    #[test]
    fn multiversion_handles_mixed_sites_without_traps() {
        // A site that is aligned half the time: multi-version code executes
        // the plain path when aligned and the sequence when not.
        let prog = program(|a| {
            a.mov_ri(Ebx, 0x10_0000);
            a.mov_ri(Esi, 0x10_0102);
            a.mov_ri(Ecx, 600);
            let top = a.here_label();
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
            a.mov_rr(Edx, Ebx);
            a.mov_rr(Ebx, Esi);
            a.mov_rr(Esi, Edx);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let cfg = DbtConfig::new(MdaStrategy::Dpeh)
            .with_threshold(20)
            .with_multiversion(true);
        let report = run_with(cfg, &prog);
        assert_eq!(
            report.traps(),
            0,
            "multi-version code never traps: {report}"
        );
    }

    #[test]
    fn rearrangement_inlines_instead_of_stubs() {
        let prog = sum_loop_program(0x10_0001, 800);
        let cfg = DbtConfig::new(MdaStrategy::ExceptionHandling)
            .with_threshold(5)
            .with_rearrange(true);
        let report = run_with(cfg, &prog);
        assert!(report.rearrangements >= 1);
        assert_eq!(report.patched_sites, 0, "no stub patches when rearranging");
        // Still only one trap.
        assert_eq!(report.traps(), 1);
    }

    #[test]
    fn tracer_attributes_trap_and_patch_to_the_site() {
        let prog = sum_loop_program(0x10_0001, 500);
        let cfg = DbtConfig::new(MdaStrategy::ExceptionHandling)
            .with_threshold(5)
            .with_trace(bridge_trace::TraceConfig::default().with_bucket_cycles(64));
        let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
        dbt.load(&prog);
        dbt.set_stack(0x00F0_0000);
        let report = dbt.run(200_000_000).expect("halts");
        let trace = dbt.trace_snapshot().expect("tracing is on");

        // The one trappable site: one trap, one patch, discovery before fix.
        let (_, site) = trace
            .sites()
            .find(|(_, s)| s.traps > 0)
            .expect("the misaligned add shows up in the site table");
        assert_eq!(site.traps, 1);
        assert_eq!(site.patches, 1);
        assert!(site.discovery_to_fix_cycles().is_some());
        assert!(site.mdas > 0 && site.execs >= site.mdas);
        assert!(site.cycles_attributed > 0);
        // The trap-rate timeline converges: no traps after the patch.
        assert!(trace.timeline().trap_rate_converged());
        // Event stream saw the phase transition and the patch.
        let kinds: Vec<&str> = trace.events().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"phase"));
        assert!(kinds.contains(&"patch"));
        assert_eq!(trace.dropped(), 0);

        // An identical untraced run produces the same cycles and counters:
        // recording never charges simulated time.
        let plain = run_with(
            DbtConfig::new(MdaStrategy::ExceptionHandling).with_threshold(5),
            &prog,
        );
        assert_eq!(plain.cycles(), report.cycles());
        assert_eq!(plain.stats, report.stats);
        assert!(states_equivalent(&plain.final_state, &report.final_state));
    }

    #[test]
    fn trace_snapshot_is_none_by_default() {
        let prog = sum_loop_program(0x10_0001, 100);
        let mut dbt = Dbt::with_machine(
            DbtConfig::new(MdaStrategy::Dpeh).with_threshold(5),
            Machine::without_caches(CostModel::flat()),
        );
        dbt.load(&prog);
        dbt.set_stack(0x00F0_0000);
        dbt.run(200_000_000).expect("halts");
        assert!(dbt.trace_snapshot().is_none());
    }

    #[test]
    fn pretranslation_discovers_and_translates_everything() {
        let prog = sum_loop_program(0x10_0001, 300);
        // Offline mode: no interpretation before translated execution.
        let mut cfg = DbtConfig::new(MdaStrategy::StaticProfiling)
            .with_pretranslate(true)
            .with_static_profile(StaticProfile::new());
        cfg.hot_threshold = u64::MAX; // runtime heating would never fire
        let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
        dbt.load(&prog);
        dbt.set_stack(0x00F0_0000);
        dbt.write_guest_memory(0x10_0001, &7u32.to_le_bytes());
        let report = dbt.run(200_000_000).expect("halts");
        // All blocks translated ahead of time; nothing interpreted.
        assert!(report.blocks_translated >= 2, "{report}");
        assert_eq!(report.guest_insns_interpreted, 0, "{report}");
        assert_eq!(report.final_state.reg(Eax), 2100);
        // Empty train profile → per-occurrence fixups on the MDA site.
        assert!(report.os_fixups > 0);
    }

    #[test]
    fn adaptive_reversion_converts_back_to_plain_access() {
        // The site misaligns during profiling (so DPEH would emit a
        // sequence) but then turns permanently aligned: the Figure 8
        // adaptive code must observe the aligned streak and revert it.
        let prog = program(|a| {
            a.mov_ri(Ebx, 0x10_0002); // misaligned in phase 1
            a.mov_ri(Ecx, 3000);
            let top = a.here_label();
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
            a.alu_ri(AluOp::Cmp, Ecx, 2900);
            let skip = a.new_label();
            a.jcc(Cond::Ne, skip);
            a.mov_ri(Ebx, 0x10_0000); // phase 2: permanently aligned
            a.bind(skip);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let cfg = DbtConfig::new(MdaStrategy::Dpeh)
            .with_threshold(10)
            .with_adaptive_reversion(true);
        let report = run_with(cfg, &prog);
        assert!(
            report.reversions >= 1,
            "streak must trigger reversion: {report}"
        );

        // And the result matches the plain-DPEH run.
        let plain = run_with(DbtConfig::new(MdaStrategy::Dpeh).with_threshold(10), &prog);
        assert_eq!(report.final_state.regs, plain.final_state.regs);
        assert_eq!(plain.reversions, 0);
    }

    #[test]
    fn adaptive_reversion_roundtrip_with_renewed_misalignment() {
        // Misaligned → long aligned streak (revert) → misaligned again:
        // the reverted plain access traps and is re-patched to a sequence.
        let prog = program(|a| {
            a.mov_ri(Ebx, 0x10_0002);
            a.mov_ri(Ecx, 3000);
            let top = a.here_label();
            a.alu_rm(AluOp::Add, Eax, MemRef::base_disp(Ebx, 0));
            a.alu_ri(AluOp::Cmp, Ecx, 2900);
            let s1 = a.new_label();
            a.jcc(Cond::Ne, s1);
            a.mov_ri(Ebx, 0x10_0000); // aligned phase
            a.bind(s1);
            a.alu_ri(AluOp::Cmp, Ecx, 300);
            let s2 = a.new_label();
            a.jcc(Cond::Ne, s2);
            a.mov_ri(Ebx, 0x10_0002); // misaligned again
            a.bind(s2);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let cfg = DbtConfig::new(MdaStrategy::Dpeh)
            .with_threshold(10)
            .with_adaptive_reversion(true);
        let report = run_with(cfg, &prog);
        assert!(report.reversions >= 1, "{report}");
        assert!(
            report.traps() >= 1,
            "the reverted site must trap when misalignment returns: {report}"
        );
        let plain = run_with(DbtConfig::new(MdaStrategy::Dpeh).with_threshold(10), &prog);
        assert_eq!(report.final_state.regs, plain.final_state.regs);
    }

    #[test]
    fn os_fixup_handles_every_width() {
        // 2-, 4- and 8-byte misaligned stores and loads fixed up in
        // software under static profiling with an empty training profile.
        let prog = program(|a| {
            a.mov_ri(Ebx, 0x10_0001);
            a.mov_ri(Ecx, 60);
            a.mov_ri(Eax, 0x1234_5678);
            let top = a.here_label();
            a.store(bridge_x86::insn::Width::W2, Eax, MemRef::base_disp(Ebx, 0));
            a.store(bridge_x86::insn::Width::W4, Eax, MemRef::base_disp(Ebx, 8));
            a.movq_load(RegMm::Mm0, MemRef::base_disp(Ebx, 8));
            a.movq_store(RegMm::Mm0, MemRef::base_disp(Ebx, 16));
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let mut dbt = Dbt::with_machine(
            DbtConfig::new(MdaStrategy::StaticProfiling)
                .with_threshold(5)
                .with_static_profile(StaticProfile::new()),
            Machine::without_caches(CostModel::flat()),
        );
        dbt.load(&prog);
        dbt.set_stack(0x00F0_0000);
        let report = dbt.run(100_000_000).expect("halts");
        assert!(report.os_fixups > 100, "{report}");
        // Fixed-up stores really landed.
        assert_eq!(dbt.machine().mem().read_int(0x10_0001, 2), 0x5678);
        assert_eq!(dbt.machine().mem().read_int(0x10_0009, 4), 0x1234_5678);
        assert_eq!(dbt.machine().mem().read_int(0x10_0011, 8), 0x1234_5678);
        assert_eq!(report.final_state.mm(RegMm::Mm0), 0x1234_5678);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let prog = program(|a| {
            let top = a.here_label();
            a.jmp(top);
        });
        let mut dbt = Dbt::with_machine(
            DbtConfig::new(MdaStrategy::ExceptionHandling),
            Machine::without_caches(CostModel::flat()),
        );
        dbt.load(&prog);
        assert!(matches!(dbt.run(10_000), Err(DbtError::FuelExhausted)));
    }

    #[test]
    fn not_loaded_is_an_error() {
        let mut dbt = Dbt::new(DbtConfig::default());
        assert!(matches!(dbt.run(1000), Err(DbtError::NotLoaded)));
    }

    #[test]
    fn call_ret_across_blocks() {
        let prog = program(|a| {
            let func = a.new_label();
            a.mov_ri(Eax, 1);
            a.call(func);
            a.alu_ri(AluOp::Add, Eax, 100);
            a.hlt();
            a.bind(func);
            a.alu_ri(AluOp::Add, Eax, 10);
            a.ret();
        });
        for strategy in MdaStrategy::ALL {
            let mut cfg = DbtConfig::new(strategy).with_threshold(1);
            if strategy == MdaStrategy::StaticProfiling {
                cfg = cfg.with_static_profile(StaticProfile::new());
            }
            let report = run_with(cfg, &prog);
            assert_eq!(report.final_state.reg(Eax), 111, "{strategy:?}");
        }
    }

    /// A call/ret-heavy loop: `iters` calls through a tiny callee, the
    /// worst case for monitor-exit dispatch (every `ret` is dynamic).
    fn call_ret_loop_program(iters: i32) -> GuestProgram {
        program(|a| {
            let func = a.new_label();
            a.mov_ri(Ecx, iters);
            a.mov_ri(Eax, 0);
            let top = a.here_label();
            a.call(func);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
            a.bind(func);
            a.alu_ri(AluOp::Add, Eax, 1);
            a.ret();
        })
    }

    #[test]
    fn in_cache_dispatch_cuts_monitor_exits() {
        let prog = call_ret_loop_program(2000);
        let off = run_with(
            DbtConfig::new(MdaStrategy::ExceptionHandling).with_threshold(5),
            &prog,
        );
        let on = run_with(
            DbtConfig::new(MdaStrategy::ExceptionHandling)
                .with_threshold(5)
                .with_in_cache_dispatch(true),
            &prog,
        );
        assert_eq!(on.final_state.reg(Eax), 2000);
        assert_eq!(on.final_state.regs, off.final_state.regs);
        assert!(
            on.monitor_exits * 2 <= off.monitor_exits,
            "monitor exits: {} on vs {} off",
            on.monitor_exits,
            off.monitor_exits
        );
        assert!(on.ras_hits + on.ibtc_hits > 1000, "{on}");
        assert!(on.cycles() < off.cycles(), "in-cache dispatch must pay off");
        assert_eq!(off.ras_hits + off.ibtc_hits, 0, "off means off");
    }

    #[test]
    fn shadow_ras_resolves_returns_before_ibtc() {
        let prog = call_ret_loop_program(1500);
        let with_ras = run_with(
            DbtConfig::new(MdaStrategy::Dpeh)
                .with_threshold(5)
                .with_in_cache_dispatch(true),
            &prog,
        );
        let without_ras = run_with(
            DbtConfig::new(MdaStrategy::Dpeh)
                .with_threshold(5)
                .with_in_cache_dispatch(true)
                .with_shadow_ras(false),
            &prog,
        );
        assert_eq!(with_ras.final_state.regs, without_ras.final_state.regs);
        assert!(with_ras.ras_hits > 1000, "{with_ras}");
        assert_eq!(without_ras.ras_hits, 0);
        assert!(without_ras.ibtc_hits > 1000, "{without_ras}");
    }

    #[test]
    fn count_retired_matches_across_dispatch_modes() {
        let prog = call_ret_loop_program(800);
        let mk = |dispatch: bool| {
            DbtConfig::new(MdaStrategy::ExceptionHandling)
                .with_threshold(5)
                .with_in_cache_dispatch(dispatch)
                .with_count_retired(true)
        };
        let off = run_with(mk(false), &prog);
        let on = run_with(mk(true), &prog);
        assert!(on.guest_insns_retired > 0);
        assert_eq!(
            on.guest_insns_retired + on.guest_insns_interpreted,
            off.guest_insns_retired + off.guest_insns_interpreted,
            "total guest instructions must not depend on the dispatch path"
        );
    }

    #[test]
    fn write_guest_code_invalidates_chained_blocks() {
        // Entry block falls into a hot loop whose body we rewrite in
        // place; the write must drop the stale translations (and any
        // chains into them) so the new semantics take effect.
        let prog = program(|a| {
            a.mov_ri(Eax, 0);
            a.mov_ri(Ecx, 50);
            let top = a.here_label();
            a.alu_ri(AluOp::Add, Eax, 10);
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let add_pc = 0x40_000A; // after the two 5-byte movs
        for strategy in MdaStrategy::ALL {
            for dispatch in [false, true] {
                let mut cfg = DbtConfig::new(strategy)
                    .with_threshold(1)
                    .with_in_cache_dispatch(dispatch);
                if strategy == MdaStrategy::StaticProfiling {
                    cfg = cfg.with_static_profile(StaticProfile::new());
                }
                let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
                dbt.load(&prog);
                dbt.set_stack(0x00F0_0000);
                let r = dbt.run(200_000_000).expect("halts");
                assert_eq!(r.final_state.reg(Eax), 500, "{strategy:?}");
                assert!(
                    dbt.code_cache_blocks().any(|b| b.guest_pc == add_pc),
                    "{strategy:?}: loop block must be translated"
                );
                // Re-assemble the add with a different immediate (same
                // 6-byte 0x81-form encoding, so the rest is intact).
                let mut asm = Assembler::new(add_pc);
                asm.alu_ri(AluOp::Add, Eax, 32);
                let bytes = asm.finish().unwrap();
                dbt.write_guest_code(add_pc, &bytes);
                assert!(
                    dbt.code_cache_blocks().all(|b| b.guest_pc != add_pc),
                    "{strategy:?}: stale block must be gone"
                );
                // No surviving chain may bypass the monitor into stale code.
                for b in dbt.code_cache_blocks() {
                    for s in &b.exit_slots {
                        assert!(
                            !(s.chained && s.target == add_pc),
                            "{strategy:?}: stale chain into rewritten code"
                        );
                    }
                }
                dbt.restart_at(0x40_0000);
                let r = dbt.run(200_000_000).expect("halts");
                assert_eq!(
                    r.final_state.reg(Eax),
                    50 * 32,
                    "{strategy:?} dispatch={dispatch}: rewritten code must run"
                );
            }
        }
    }

    #[test]
    fn flush_clears_ibtc_and_ras() {
        // Two call/ret loops taking turns over a misaligned stack (so EH
        // patches their sites through stubs), under two pressures. A code
        // region holding one loop's blocks but not both evicts LRU blocks
        // at every turn; a tiny stub region flushes the whole cache.
        // Either way no IBTC/RAS entry may outlive its block (a returning
        // call would jump into reused code): the reference state is the
        // witness.
        let prog = program(|a| {
            let (f1, f2) = (a.new_label(), a.new_label());
            a.mov_ri(Esp, 0x00F0_0000 - 2);
            a.mov_ri(Eax, 0);
            a.mov_ri(Edx, 20);
            let outer = a.here_label();
            for f in [f1, f2] {
                a.mov_ri(Ecx, 30);
                let inner = a.here_label();
                a.call(f);
                a.alu_ri(AluOp::Sub, Ecx, 1);
                a.jcc(Cond::Ne, inner);
            }
            a.alu_ri(AluOp::Sub, Edx, 1);
            a.jcc(Cond::Ne, outer);
            a.hlt();
            for (f, n) in [(f1, 1), (f2, 2)] {
                a.bind(f);
                a.alu_ri(AluOp::Add, Eax, n);
                a.ret();
            }
        });
        let (ref_state, _) =
            profile_program(&prog, &[], None, &CostModel::flat(), 1_000_000).unwrap();
        for (code_bytes, stub_bytes) in [(400, 1 << 20), (2 << 20, 64)] {
            let registry = Arc::new(Registry::new());
            let mut cfg = DbtConfig::new(MdaStrategy::ExceptionHandling)
                .with_threshold(3)
                .with_in_cache_dispatch(true)
                .with_metrics(Arc::clone(&registry));
            cfg.code_bytes = code_bytes;
            cfg.stub_bytes = stub_bytes;
            let mut dbt = Dbt::with_machine(cfg, Machine::without_caches(CostModel::flat()));
            dbt.load(&prog);
            let r = dbt.run(400_000_000).expect("halts");
            let evictions = registry.counter("dbt.code_cache.evictions").get();
            if code_bytes == 400 {
                assert!(evictions > 0, "{r}");
                assert_eq!(r.cache_flushes, 0, "a full code region never flushes");
            } else {
                assert_eq!(evictions, 0, "{r}");
                assert!(r.cache_flushes >= 1, "{r}");
            }
            assert!(r.patched_sites > 0 && r.ras_hits > 0, "{r}");
            assert_eq!(r.final_state.reg(Eax), 1800);
            assert!(states_equivalent(&r.final_state, &ref_state));
        }
    }

    #[test]
    fn movq_8byte_mda_handled() {
        let prog = program(|a| {
            a.mov_ri(Ebx, 0x10_0003); // 8-byte misaligned
            a.mov_ri(Ecx, 300);
            let top = a.here_label();
            a.movq_load(RegMm::Mm0, MemRef::base_disp(Ebx, 0));
            a.movq_store(RegMm::Mm0, MemRef::base_disp(Ebx, 16));
            a.alu_ri(AluOp::Sub, Ecx, 1);
            a.jcc(Cond::Ne, top);
            a.hlt();
        });
        let mut dbt = Dbt::with_machine(
            DbtConfig::new(MdaStrategy::Dpeh).with_threshold(10),
            Machine::without_caches(CostModel::flat()),
        );
        dbt.load(&prog);
        dbt.write_guest_memory(0x10_0003, &0xAABB_CCDD_EEFF_0011u64.to_le_bytes());
        let report = dbt.run(100_000_000).expect("halts");
        assert_eq!(report.traps(), 0, "profiled 8-byte MDAs get sequences");
        assert_eq!(
            dbt.machine().mem().read_int(0x10_0013, 8),
            0xAABB_CCDD_EEFF_0011
        );
        assert_eq!(report.final_state.mm(RegMm::Mm0), 0xAABB_CCDD_EEFF_0011);
    }
}
