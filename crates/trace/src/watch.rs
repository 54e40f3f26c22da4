//! Per-site re-divergence watch: continuous online classification of
//! MDA sites from the event stream.
//!
//! The paper's temporal argument (Table III / Figure 16) is that a site
//! which looked aligned during profiling can turn misaligned in steady
//! state — and only *continuous* per-site observation catches the turn.
//! [`SiteWatch`] consumes the engine's event stream incrementally (fed
//! from the same funnel as the tracer — no second ring) and folds each
//! site's trap/fixup/patch activity into rolling windows of
//! `window_cycles` simulated cycles. Closing a window advances a small
//! per-site verdict machine:
//!
//! - a window whose `traps + fixups` reach
//!   [`WatchConfig::rediverge_traps`] with no patch activity means the
//!   installed strategy is paying per-occurrence cost again — the site
//!   is [`SiteVerdict::Rediverged`], and the transition carries the
//!   closed window as [`WindowEvidence`];
//! - a window with patch activity (EH patch, rearrangement) is a
//!   hand-off in progress: the verdict holds and the quiet streak
//!   restarts;
//! - after any patch has landed, [`WatchConfig::quiet_windows`]
//!   consecutive windows with no site activity (gap windows count)
//!   mean the strategy absorbed the site: [`SiteVerdict::Converged`];
//! - low non-zero activity holds the current verdict — the watch never
//!   flaps on a single stray trap.
//!
//! Verdict *changes* are recorded as typed [`SiteTransition`]s — the
//! detection signal the closed-loop auto-tuning roadmap item needs.
//! Everything is keyed by guest PC and driven by simulated cycles, so a
//! watch over a run is a pure function of the event stream: replaying a
//! streamed JSONL trace through [`SiteWatch::observe_kind`] offline
//! (`trace_report --watch`) reproduces the live verdicts exactly, and
//! watching a run never charges simulated cycles.

use crate::TraceEvent;
use std::collections::BTreeMap;

/// Rolling-window parameters for a [`SiteWatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchConfig {
    /// Window length in simulated cycles.
    pub window_cycles: u64,
    /// `traps + fixups` within one window that flag a site
    /// [`SiteVerdict::Rediverged`] (when the window saw no patch).
    pub rediverge_traps: u64,
    /// Consecutive quiet windows after a patch that flag a site
    /// [`SiteVerdict::Converged`].
    pub quiet_windows: u64,
    /// Bound on tracked sites; activity at further PCs is counted in
    /// [`SiteWatch::ignored_sites`] but not classified.
    pub max_sites: usize,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            window_cycles: 1 << 15,
            rediverge_traps: 4,
            quiet_windows: 2,
            max_sites: 256,
        }
    }
}

impl WatchConfig {
    /// Builder-style: set the window length (min 1 cycle).
    pub fn with_window_cycles(mut self, cycles: u64) -> WatchConfig {
        self.window_cycles = cycles.max(1);
        self
    }

    /// Builder-style: set the re-divergence trap threshold (min 1).
    pub fn with_rediverge_traps(mut self, traps: u64) -> WatchConfig {
        self.rediverge_traps = traps.max(1);
        self
    }

    /// Builder-style: set the convergence quiet-window count (min 1).
    pub fn with_quiet_windows(mut self, windows: u64) -> WatchConfig {
        self.quiet_windows = windows.max(1);
        self
    }

    /// Builder-style: set the tracked-site bound (min 1).
    pub fn with_max_sites(mut self, sites: usize) -> WatchConfig {
        self.max_sites = sites.max(1);
        self
    }
}

/// Online classification of one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteVerdict {
    /// Not enough window evidence either way (every site starts here).
    Indeterminate,
    /// A patch landed and the site has been quiet since — the installed
    /// strategy absorbed it.
    Converged,
    /// The site is paying per-occurrence trap cost again in steady
    /// state — the profiling-time decision no longer holds.
    Rediverged,
}

impl SiteVerdict {
    /// Stable lowercase tag (JSON, dashboard).
    pub fn tag(self) -> &'static str {
        match self {
            SiteVerdict::Indeterminate => "indeterminate",
            SiteVerdict::Converged => "converged",
            SiteVerdict::Rediverged => "rediverged",
        }
    }
}

/// The closed window that triggered a verdict transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowEvidence {
    /// First cycle of the closed window.
    pub window_start_cycle: u64,
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Traps delivered for the site within the window.
    pub traps: u64,
    /// OS-style fixups within the window.
    pub fixups: u64,
    /// Patch-class events (EH patch, rearrangement) within the window.
    pub patches: u64,
    /// `traps + fixups` scaled to events per Mcycle.
    pub rate_per_mcycle: u64,
}

/// One verdict change at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteTransition {
    /// Guest PC of the site.
    pub pc: u32,
    /// The verdict entered.
    pub verdict: SiteVerdict,
    /// The window whose close produced the transition.
    pub evidence: WindowEvidence,
}

/// Cumulative per-site totals alongside the live verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteWatchStats {
    /// Current verdict.
    pub verdict: SiteVerdict,
    /// Traps ever observed at the site.
    pub traps: u64,
    /// Fixups ever observed.
    pub fixups: u64,
    /// Patch-class events ever observed.
    pub patches: u64,
    /// Times the site entered [`SiteVerdict::Rediverged`].
    pub rediverge_count: u64,
}

#[derive(Debug, Clone)]
struct SiteState {
    // Open-window accumulators.
    cur_window: u64,
    w_traps: u64,
    w_fixups: u64,
    w_patches: u64,
    // Verdict machine.
    verdict: SiteVerdict,
    patched_ever: bool,
    quiet_streak: u64,
    // Cumulative totals.
    traps: u64,
    fixups: u64,
    patches: u64,
    rediverge_count: u64,
}

impl SiteState {
    fn new(window: u64) -> SiteState {
        SiteState {
            cur_window: window,
            w_traps: 0,
            w_fixups: 0,
            w_patches: 0,
            verdict: SiteVerdict::Indeterminate,
            patched_ever: false,
            quiet_streak: 0,
            traps: 0,
            fixups: 0,
            patches: 0,
            rediverge_count: 0,
        }
    }
}

/// Rolling per-PC trap-rate windows over the event stream, with typed
/// verdict transitions. Feed it live via [`SiteWatch::observe`], or
/// replay a JSONL trace through [`SiteWatch::observe_kind`]; both
/// produce identical verdicts for the same stream.
#[derive(Debug, Clone)]
pub struct SiteWatch {
    cfg: WatchConfig,
    sites: BTreeMap<u32, SiteState>,
    transitions: Vec<SiteTransition>,
    last_cycle: u64,
    events: u64,
    windows_closed: u64,
    ignored_sites: u64,
    sealed: bool,
}

impl SiteWatch {
    /// An empty watch.
    pub fn new(cfg: WatchConfig) -> SiteWatch {
        SiteWatch {
            cfg,
            sites: BTreeMap::new(),
            transitions: Vec::new(),
            last_cycle: 0,
            events: 0,
            windows_closed: 0,
            ignored_sites: 0,
            sealed: false,
        }
    }

    /// The configuration the watch was built with.
    pub fn config(&self) -> WatchConfig {
        self.cfg
    }

    /// Feeds one live event. Events without site relevance (dispatch,
    /// cache traffic, edge admission) are ignored; cycles still drive
    /// window closes via [`SiteWatch::advance`] at the call site.
    pub fn observe(&mut self, cycle: u64, event: &TraceEvent) {
        let (kind, pc) = (event.kind(), event.guest_pc());
        self.observe_kind(cycle, kind, pc);
    }

    /// Kind-tag entry point shared by live observation and offline
    /// JSONL replay (`kind` is the event line's `kind` field). Unknown
    /// kinds and site-less events are ignored, so replaying a stream
    /// with future event kinds degrades gracefully.
    pub fn observe_kind(&mut self, cycle: u64, kind: &str, pc: Option<u32>) {
        if self.sealed {
            return;
        }
        self.last_cycle = self.last_cycle.max(cycle);
        let class = match kind {
            "trap" => 0u8,
            "os_fixup" => 1,
            "patch" | "rearrange" => 2,
            _ => return,
        };
        let Some(pc) = pc else { return };
        self.events += 1;
        let window = cycle / self.cfg.window_cycles;
        if !self.sites.contains_key(&pc) {
            if self.sites.len() >= self.cfg.max_sites {
                self.ignored_sites += 1;
                return;
            }
            self.sites.insert(pc, SiteState::new(window));
        }
        // Close any windows the stream skipped past for this site, then
        // account the event into the (possibly fresh) open window.
        Self::roll_to(
            &self.cfg,
            &mut self.transitions,
            &mut self.windows_closed,
            pc,
            self.sites.get_mut(&pc).expect("just ensured"),
            window,
        );
        let s = self.sites.get_mut(&pc).expect("just ensured");
        match class {
            0 => {
                s.w_traps += 1;
                s.traps += 1;
            }
            1 => {
                s.w_fixups += 1;
                s.fixups += 1;
            }
            _ => {
                s.w_patches += 1;
                s.patches += 1;
            }
        }
    }

    /// Advances simulated time without an event: closes every site
    /// window that `cycle` has moved past. Call this at engine progress
    /// points so quiet sites converge even when nothing fires.
    pub fn advance(&mut self, cycle: u64) {
        if self.sealed {
            return;
        }
        self.last_cycle = self.last_cycle.max(cycle);
        let window = cycle / self.cfg.window_cycles;
        for (&pc, s) in self.sites.iter_mut() {
            Self::roll_to(
                &self.cfg,
                &mut self.transitions,
                &mut self.windows_closed,
                pc,
                s,
                window,
            );
        }
    }

    /// Closes every open window (treating the final partial window as
    /// complete) and freezes the watch. Idempotent; further observes
    /// are ignored.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let final_window = self.last_cycle / self.cfg.window_cycles;
        for (&pc, s) in self.sites.iter_mut() {
            // Roll to the final window, then close it too.
            Self::roll_to(
                &self.cfg,
                &mut self.transitions,
                &mut self.windows_closed,
                pc,
                s,
                final_window,
            );
            Self::close_one(
                &self.cfg,
                &mut self.transitions,
                &mut self.windows_closed,
                pc,
                s,
            );
            s.cur_window += 1;
        }
        self.sealed = true;
    }

    /// Whether [`SiteWatch::seal`] has run.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Closes site windows up to (not including) `target`, bulk-settling
    /// fully quiet gap windows.
    fn roll_to(
        cfg: &WatchConfig,
        transitions: &mut Vec<SiteTransition>,
        windows_closed: &mut u64,
        pc: u32,
        s: &mut SiteState,
        target: u64,
    ) {
        if target <= s.cur_window {
            return;
        }
        Self::close_one(cfg, transitions, windows_closed, pc, s);
        let gap = target - s.cur_window - 1;
        if gap > 0 {
            // Gap windows are quiet by construction: settle the streak
            // in bulk and place the convergence crossing precisely.
            *windows_closed += gap;
            let before = s.quiet_streak;
            s.quiet_streak = s.quiet_streak.saturating_add(gap);
            if s.patched_ever
                && s.verdict != SiteVerdict::Converged
                && s.quiet_streak >= cfg.quiet_windows
            {
                let crossing = s.cur_window + 1 + (cfg.quiet_windows - before - 1);
                s.verdict = SiteVerdict::Converged;
                transitions.push(SiteTransition {
                    pc,
                    verdict: SiteVerdict::Converged,
                    evidence: WindowEvidence {
                        window_start_cycle: crossing * cfg.window_cycles,
                        window_cycles: cfg.window_cycles,
                        traps: 0,
                        fixups: 0,
                        patches: 0,
                        rate_per_mcycle: 0,
                    },
                });
            }
        }
        s.cur_window = target;
    }

    /// Closes the site's current open window and steps the verdict
    /// machine with its counts.
    fn close_one(
        cfg: &WatchConfig,
        transitions: &mut Vec<SiteTransition>,
        windows_closed: &mut u64,
        pc: u32,
        s: &mut SiteState,
    ) {
        *windows_closed += 1;
        let (t, f, p) = (s.w_traps, s.w_fixups, s.w_patches);
        s.w_traps = 0;
        s.w_fixups = 0;
        s.w_patches = 0;
        let evidence = WindowEvidence {
            window_start_cycle: s.cur_window * cfg.window_cycles,
            window_cycles: cfg.window_cycles,
            traps: t,
            fixups: f,
            patches: p,
            rate_per_mcycle: ((t + f) as u128 * 1_000_000 / cfg.window_cycles as u128) as u64,
        };
        if p > 0 {
            // Hand-off in progress: the strategy is absorbing the site.
            s.patched_ever = true;
            s.quiet_streak = 0;
        } else if t + f >= cfg.rediverge_traps {
            s.quiet_streak = 0;
            if s.verdict != SiteVerdict::Rediverged {
                s.verdict = SiteVerdict::Rediverged;
                s.rediverge_count += 1;
                transitions.push(SiteTransition {
                    pc,
                    verdict: SiteVerdict::Rediverged,
                    evidence,
                });
            }
        } else if t + f == 0 {
            s.quiet_streak += 1;
            if s.patched_ever
                && s.verdict != SiteVerdict::Converged
                && s.quiet_streak >= cfg.quiet_windows
            {
                s.verdict = SiteVerdict::Converged;
                transitions.push(SiteTransition {
                    pc,
                    verdict: SiteVerdict::Converged,
                    evidence,
                });
            }
        } else {
            // Low non-zero activity: hold the verdict, break the streak.
            s.quiet_streak = 0;
        }
    }

    /// Current verdict for one site.
    pub fn verdict(&self, pc: u32) -> Option<SiteVerdict> {
        self.sites.get(&pc).map(|s| s.verdict)
    }

    /// Every tracked site with totals and verdict, PC-ordered.
    pub fn sites(&self) -> impl Iterator<Item = (u32, SiteWatchStats)> + '_ {
        self.sites.iter().map(|(&pc, s)| {
            (
                pc,
                SiteWatchStats {
                    verdict: s.verdict,
                    traps: s.traps,
                    fixups: s.fixups,
                    patches: s.patches,
                    rediverge_count: s.rediverge_count,
                },
            )
        })
    }

    /// All verdict transitions in stream order.
    pub fn transitions(&self) -> &[SiteTransition] {
        &self.transitions
    }

    /// Sites currently classified [`SiteVerdict::Rediverged`].
    pub fn rediverged_sites(&self) -> usize {
        self.sites
            .values()
            .filter(|s| s.verdict == SiteVerdict::Rediverged)
            .count()
    }

    /// Sites currently classified [`SiteVerdict::Converged`].
    pub fn converged_sites(&self) -> usize {
        self.sites
            .values()
            .filter(|s| s.verdict == SiteVerdict::Converged)
            .count()
    }

    /// Tracked sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Site-relevant events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Windows closed across all sites (gap windows included).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Events at PCs beyond the [`WatchConfig::max_sites`] bound.
    pub fn ignored_sites(&self) -> u64 {
        self.ignored_sites
    }

    /// Latest cycle the watch has seen.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Folds another watch's per-site totals and transitions into this
    /// one (fleet aggregation serve-side). Verdicts merge pessimistic:
    /// `Rediverged` beats `Converged` beats `Indeterminate`.
    pub fn merge(&mut self, other: &SiteWatch) {
        for (pc, stats) in other.sites() {
            if !self.sites.contains_key(&pc) && self.sites.len() >= self.cfg.max_sites {
                self.ignored_sites += 1;
                continue;
            }
            let s = self
                .sites
                .entry(pc)
                .or_insert_with(|| SiteState::new(other.last_cycle / self.cfg.window_cycles));
            s.traps += stats.traps;
            s.fixups += stats.fixups;
            s.patches += stats.patches;
            s.rediverge_count += stats.rediverge_count;
            let rank = |v: SiteVerdict| match v {
                SiteVerdict::Indeterminate => 0,
                SiteVerdict::Converged => 1,
                SiteVerdict::Rediverged => 2,
            };
            if rank(stats.verdict) > rank(s.verdict) {
                s.verdict = stats.verdict;
            }
        }
        self.transitions.extend_from_slice(&other.transitions);
        self.events += other.events;
        self.windows_closed += other.windows_closed;
        self.ignored_sites += other.ignored_sites;
        self.last_cycle = self.last_cycle.max(other.last_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchConfig {
        WatchConfig::default()
            .with_window_cycles(100)
            .with_rediverge_traps(4)
            .with_quiet_windows(2)
    }

    fn trap(pc: u32) -> TraceEvent {
        TraceEvent::Trap {
            site_pc: pc,
            slot: 0,
            cycles: 10,
        }
    }

    fn fixup(pc: u32) -> TraceEvent {
        TraceEvent::OsFixup {
            site_pc: pc,
            cycles: 20,
        }
    }

    fn patch(pc: u32) -> TraceEvent {
        TraceEvent::EhPatch {
            site_pc: pc,
            slot: 0,
            cycles: 30,
        }
    }

    /// The dynamic-profiling failure mode: a site quiet through the
    /// profiling window starts trapping per occurrence in steady state.
    /// The verdict lands within one window of the phase change.
    #[test]
    fn steady_state_trap_storm_rediverges_within_one_window() {
        let mut w = SiteWatch::new(cfg());
        // Window 0: profiling, site quiet (unrelated site translates).
        w.observe(10, &TraceEvent::BlockTranslated { guest_pc: 0x10 });
        // Window 1: the phase change — per-occurrence trap+fixup storm.
        for i in 0..4u64 {
            w.observe(100 + i * 10, &trap(0x40));
            w.observe(105 + i * 10, &fixup(0x40));
        }
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Indeterminate));
        // The window closes as cycle time moves past it.
        w.advance(200);
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Rediverged));
        let t = w.transitions();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].pc, 0x40);
        assert_eq!(t[0].verdict, SiteVerdict::Rediverged);
        assert_eq!(t[0].evidence.window_start_cycle, 100);
        assert_eq!(t[0].evidence.traps, 4);
        assert_eq!(t[0].evidence.fixups, 4);
        assert_eq!(t[0].evidence.patches, 0);
        assert_eq!(t[0].evidence.rate_per_mcycle, 80_000, "8 per 100 cycles");
        assert_eq!(w.rediverged_sites(), 1);
    }

    /// The EH hand-off: one trap, one patch, then silence — the site
    /// converges after the configured quiet streak.
    #[test]
    fn patched_then_quiet_site_converges() {
        let mut w = SiteWatch::new(cfg());
        w.observe(10, &trap(0x40));
        w.observe(15, &patch(0x40));
        w.advance(120); // closes window 0: patched, hold
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Indeterminate));
        w.advance(220); // quiet window 1
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Indeterminate));
        w.advance(320); // quiet window 2 → streak reaches 2
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Converged));
        let t = w.transitions();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].verdict, SiteVerdict::Converged);
        assert_eq!(w.converged_sites(), 1);
    }

    /// A long event gap counts as quiet windows in bulk, and the
    /// convergence crossing lands at the right window.
    #[test]
    fn gap_windows_count_toward_the_quiet_streak() {
        let mut w = SiteWatch::new(cfg());
        w.observe(10, &trap(0x40));
        w.observe(15, &patch(0x40));
        // Next event is 50 windows later: the gap alone converges it.
        w.observe(5010, &trap(0x40));
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Converged));
        let t = w.transitions();
        assert_eq!(t.len(), 1);
        // Patched window 0 closed, quiet windows 1 and 2 crossed the
        // streak threshold at window 2.
        assert_eq!(t[0].evidence.window_start_cycle, 200);
    }

    /// Re-divergence after convergence: the strategy hand-off story in
    /// both directions, and the rediverge counter tracks entries.
    #[test]
    fn converged_site_can_rediverge_again() {
        let mut w = SiteWatch::new(cfg());
        w.observe(10, &trap(0x40));
        w.observe(15, &patch(0x40));
        w.advance(320); // converged via two quiet windows
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Converged));
        for i in 0..5u64 {
            w.observe(400 + i, &trap(0x40));
        }
        w.advance(520);
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Rediverged));
        let stats: Vec<_> = w.sites().collect();
        assert_eq!(stats[0].1.rediverge_count, 1);
        assert_eq!(stats[0].1.traps, 6);
        assert_eq!(stats[0].1.patches, 1);
        assert_eq!(w.transitions().len(), 2);
    }

    /// One stray trap per window never flips a verdict (hysteresis).
    #[test]
    fn low_activity_holds_the_verdict() {
        let mut w = SiteWatch::new(cfg());
        for win in 0..10u64 {
            w.observe(win * 100 + 10, &trap(0x40));
        }
        w.seal();
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Indeterminate));
        assert!(w.transitions().is_empty());
    }

    /// Seal closes the final partial window so short runs still classify.
    #[test]
    fn seal_closes_the_partial_window() {
        let mut w = SiteWatch::new(cfg());
        for i in 0..6u64 {
            w.observe(10 + i, &trap(0x40));
        }
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Indeterminate));
        w.seal();
        assert_eq!(w.verdict(0x40), Some(SiteVerdict::Rediverged));
        assert!(w.is_sealed());
        // Sealed watches ignore further input.
        w.observe(1000, &patch(0x40));
        assert_eq!(w.events(), 6);
    }

    /// The site bound is enforced; overflow is counted, not classified.
    #[test]
    fn max_sites_bound_is_enforced() {
        let mut w = SiteWatch::new(cfg().with_max_sites(2));
        w.observe(10, &trap(0x40));
        w.observe(11, &trap(0x44));
        w.observe(12, &trap(0x48));
        w.observe(13, &trap(0x4c));
        assert_eq!(w.site_count(), 2);
        assert_eq!(w.ignored_sites(), 2);
        assert!(w.verdict(0x48).is_none());
    }

    /// Replaying kind tags (the JSONL path) matches live observation.
    #[test]
    fn kind_replay_matches_live_observation() {
        let mut live = SiteWatch::new(cfg());
        let mut replay = SiteWatch::new(cfg());
        let events: Vec<(u64, TraceEvent)> = (0..20u64)
            .map(|i| {
                let e = match i % 3 {
                    0 => trap(0x40 + (i as u32 % 2) * 4),
                    1 => fixup(0x40),
                    _ => patch(0x44),
                };
                (i * 37, e)
            })
            .collect();
        for (cycle, e) in &events {
            live.observe(*cycle, e);
            replay.observe_kind(*cycle, e.kind(), e.guest_pc());
        }
        live.seal();
        replay.seal();
        assert_eq!(live.transitions(), replay.transitions());
        assert_eq!(
            live.sites().collect::<Vec<_>>(),
            replay.sites().collect::<Vec<_>>()
        );
        // Unknown kinds are ignored, not fatal.
        let mut w = SiteWatch::new(cfg());
        w.observe_kind(10, "hologram", Some(0x40));
        assert_eq!(w.events(), 0);
    }

    /// Fleet merge folds totals and takes the pessimistic verdict.
    #[test]
    fn merge_is_pessimistic_and_additive() {
        let mut a = SiteWatch::new(cfg());
        a.observe(10, &trap(0x40));
        a.observe(15, &patch(0x40));
        a.advance(320);
        a.seal();
        assert_eq!(a.verdict(0x40), Some(SiteVerdict::Converged));

        let mut b = SiteWatch::new(cfg());
        for i in 0..5u64 {
            b.observe(100 + i, &trap(0x40));
            b.observe(200 + i, &trap(0x48));
        }
        b.seal();
        assert_eq!(b.verdict(0x40), Some(SiteVerdict::Rediverged));

        let mut fleet = SiteWatch::new(cfg());
        fleet.merge(&a);
        fleet.merge(&b);
        assert_eq!(fleet.verdict(0x40), Some(SiteVerdict::Rediverged));
        assert_eq!(fleet.verdict(0x48), Some(SiteVerdict::Rediverged));
        let stats: BTreeMap<u32, SiteWatchStats> = fleet.sites().collect();
        assert_eq!(stats[&0x40].traps, 6);
        assert_eq!(stats[&0x40].patches, 1);
        assert_eq!(fleet.transitions().len(), 3);
    }
}
