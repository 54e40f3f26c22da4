//! Human-readable structured-trace report for an in-tree kernel.
//!
//! Runs one micro-kernel through the DBT with tracing attached and prints
//! the per-site MDA telemetry table and the phase timelines — the
//! temporal story behind the paper's end-of-run aggregates. Compare
//! `--strategy eh` (trap rate decays to zero after the last patch) with
//! `--strategy dynamic` on the `phase_change` kernel (flat per-occurrence
//! trap rate forever).
//!
//! Usage:
//!   trace_report [--kernel phase_change|memcpy|packed_struct|linked_list|stack]
//!                [--strategy direct|static|dynamic|eh|dpeh]
//!                [--iters N] [--bucket-cycles N] [--top N] [--jsonl PATH]
//!                [--stream PATH] [--flame PATH] [--spans PATH]
//!   trace_report --health [--kernel ...] [--strategy ...] [--iters N]
//!   trace_report --diff A.jsonl B.jsonl
//!   trace_report --images DIR
//!   trace_report --watch TRACE.jsonl [--window-cycles N]
//!
//! `--watch PATH` is an offline replay mode: feed a previously captured
//! trace (a `--stream` file for full fidelity — event lines drive the
//! replay) through the continuous per-site re-divergence watch and print
//! every site's verdict plus the typed transition log with window
//! evidence. The replay path (`observe_kind`) classifies identically to
//! a live in-engine watch over the same stream.
//!
//! Exit codes: `0` success, `1` usage/IO failure, `3` when the
//! convergence verdict is INDETERMINATE (live timeline or either side of
//! a `--diff`), `4` when a scanned trace counted malformed or
//! unknown-schema lines (code 4 wins when both apply — the verdict of a
//! damaged capture is not trustworthy).
//!
//! `--flame PATH` runs the same kernel with engine span recording and
//! writes the cycle-attribution flamegraph as inferno-style folded stacks
//! (`scope;frame;frame self_cycles` per line, deterministic — cycle
//! domain only). `PATH` of `-` prints to stdout. `--spans PATH` writes
//! the span tree as Chrome trace-event JSON (load in a `chrome://tracing`
//! or Perfetto UI; timestamps are simulated cycles).
//!
//! `--health` is a separate mode: run a small batch of the chosen
//! kernel/strategy through the sharded exec service and print its fleet
//! health snapshot — one `bridge-health/1` JSON line for the service and
//! one per translation context.
//!
//! `--top N` appends the hottest N sites ranked by attributed cycles — the
//! "where did the time go" view over the full PC-ordered table.
//!
//! `--stream PATH` attaches an incremental JSONL sink to the run: every
//! ring-evicted record is written in order, so the file holds the *full*
//! event stream even when the run overflows the in-memory ring — the
//! full-fidelity capture mode for long runs.
//!
//! `--diff A B` is a separate mode: scan two previously written traces of
//! the same workload (aggregate `--jsonl` or streamed `--stream` files
//! both work) and report per-site deltas, bucket-aligned trap deltas and
//! the convergence-verdict pair. All deltas are `B - A`, so diffing an
//! exception-handling run as A against a dynamic-profiling run as B shows
//! positive trap deltas — the direction the paper predicts.
//!
//! `--images DIR` is an audit mode: list every AOT translation image in
//! the artifact store at DIR — key, guest hash, strategy, size, TB count
//! and whether the file validates — so an operator can see what a
//! warm-starting service would restore and what it would reject.

use bridge_dbt::image::{strategy_tag, ImageStore};
use bridge_dbt::{DbtConfig, MdaStrategy, StaticProfile};
use bridge_metrics::json;
use bridge_serve::{ExecService, KernelSpec, RunRequest, ServeConfig};
use bridge_trace::{
    jsonl, ConvergenceVerdict, ScannedTrace, SiteWatch, SpanConfig, StreamingJsonl, TraceConfig,
    WatchConfig,
};
use bridge_workloads::kernels::{self, Kernel};
use std::io::BufWriter;
use std::process::ExitCode;

/// The convergence verdict was INDETERMINATE (truncated timeline).
const EXIT_INDETERMINATE: u8 = 3;
/// A scanned trace counted malformed or unknown-schema lines.
const EXIT_SCAN_WARNINGS: u8 = 4;

struct Opts {
    kernel: String,
    strategy: String,
    iters: u32,
    bucket_cycles: u64,
    top: Option<usize>,
    jsonl: Option<String>,
    stream: Option<String>,
    diff: Option<(String, String)>,
    images: Option<String>,
    flame: Option<String>,
    spans: Option<String>,
    health: bool,
    watch: Option<String>,
    window_cycles: u64,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        kernel: "phase_change".into(),
        strategy: "eh".into(),
        iters: 600,
        bucket_cycles: 1 << 12,
        top: None,
        jsonl: None,
        stream: None,
        diff: None,
        images: None,
        flame: None,
        spans: None,
        health: false,
        watch: None,
        window_cycles: WatchConfig::default().window_cycles,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--health" {
            o.health = true;
            i += 1;
            continue;
        }
        if flag == "--diff" {
            let a = args
                .get(i + 1)
                .ok_or("--diff needs two trace paths (A B)")?;
            let b = args
                .get(i + 2)
                .ok_or("--diff needs two trace paths (A B)")?;
            o.diff = Some((a.clone(), b.clone()));
            i += 3;
            continue;
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--kernel" => o.kernel = val.clone(),
            "--strategy" => o.strategy = val.clone(),
            "--iters" => o.iters = val.parse().map_err(|_| format!("bad --iters {val}"))?,
            "--bucket-cycles" => {
                o.bucket_cycles = val
                    .parse()
                    .map_err(|_| format!("bad --bucket-cycles {val}"))?;
            }
            "--top" => {
                let n: usize = val.parse().map_err(|_| format!("bad --top {val}"))?;
                if n == 0 {
                    return Err("--top needs at least 1".into());
                }
                o.top = Some(n);
            }
            "--jsonl" => o.jsonl = Some(val.clone()),
            "--stream" => o.stream = Some(val.clone()),
            "--images" => o.images = Some(val.clone()),
            "--watch" => o.watch = Some(val.clone()),
            "--window-cycles" => {
                o.window_cycles = val
                    .parse()
                    .map_err(|_| format!("bad --window-cycles {val}"))?;
            }
            "--flame" => o.flame = Some(val.clone()),
            "--spans" => o.spans = Some(val.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(o)
}

fn kernel_by_name(name: &str, iters: u32) -> Result<Kernel, String> {
    Ok(match name {
        // The phase-change kernel is the trace layer's showcase: an
        // aligned profiling window followed by a misaligned steady state.
        "phase_change" => kernels::phase_change_sum(iters / 3, iters - iters / 3),
        "memcpy" => kernels::memcpy_unaligned(0x30_0001, 0x38_0000, (iters.max(1)) * 4),
        "packed_struct" => kernels::packed_struct_sum(0x10_0002, 16, 6, iters),
        "linked_list" => kernels::linked_list_chase(0x20_0000, iters),
        "stack" => kernels::misaligned_stack(iters),
        other => return Err(format!("unknown kernel {other}")),
    })
}

fn config_by_name(name: &str) -> Result<DbtConfig, String> {
    Ok(match name {
        "direct" => DbtConfig::new(MdaStrategy::Direct),
        // An empty training profile: the classic stale-profile setup where
        // every site is undetected and pays per-occurrence fixups.
        "static" => {
            DbtConfig::new(MdaStrategy::StaticProfiling).with_static_profile(StaticProfile::new())
        }
        "dynamic" => DbtConfig::new(MdaStrategy::DynamicProfiling),
        "eh" => DbtConfig::new(MdaStrategy::ExceptionHandling),
        "dpeh" => DbtConfig::new(MdaStrategy::Dpeh),
        other => return Err(format!("unknown strategy {other}")),
    })
}

/// The serve-layer spelling of `kernel_by_name`: the same kernels and
/// scale parameters, as memoizable [`KernelSpec`]s.
fn spec_by_name(name: &str, iters: u32) -> Result<KernelSpec, String> {
    Ok(match name {
        "phase_change" => KernelSpec::PhaseChangeSum {
            aligned: iters / 3,
            misaligned: iters - iters / 3,
        },
        "memcpy" => KernelSpec::MemcpyUnaligned {
            len: iters.max(1) * 4,
        },
        "packed_struct" => KernelSpec::PackedStructSum { count: iters },
        "linked_list" => KernelSpec::LinkedListChase { count: iters },
        "stack" => KernelSpec::MisalignedStack { iterations: iters },
        other => return Err(format!("unknown kernel {other}")),
    })
}

fn strategy_by_name(name: &str) -> Result<MdaStrategy, String> {
    MdaStrategy::ALL
        .iter()
        .copied()
        .find(|s| s.slug() == name)
        .ok_or_else(|| format!("unknown strategy {name}"))
}

/// The `--health` mode: push a small batch of the chosen kernel/strategy
/// through the sharded exec service and print its fleet health snapshot.
fn run_health(opts: &Opts) -> Result<(), String> {
    let spec = spec_by_name(&opts.kernel, opts.iters)?;
    let strategy = strategy_by_name(&opts.strategy)?;
    let svc = ExecService::new(ServeConfig::default());
    let reqs: Vec<RunRequest> = (0..3)
        .map(|_| RunRequest::new(spec, strategy).with_threshold(50))
        .collect();
    let batch = svc.run_batch(&reqs);
    println!(
        "fleet health after {} requests ({} / {}, merged {} cycles):",
        reqs.len(),
        opts.kernel,
        opts.strategy,
        batch.merged_stats.cycles
    );
    for line in svc.health_report() {
        println!("{line}");
    }
    Ok(())
}

fn opt_cycle(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |c| c.to_string())
}

/// Reads and scans one trace file, printing counted scanner warnings (the
/// scanner never fails outright — unknown schemas and malformed lines are
/// tallied, not silently skipped).
fn load_scan(path: &str) -> Result<ScannedTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scanned = ScannedTrace::scan(&text);
    if scanned.warnings.any() {
        println!(
            "warning: {path}: {} suspect lines (unknown schema {}, unknown record types {}, malformed {})",
            scanned.warnings.total(),
            scanned.warnings.unknown_schema,
            scanned.warnings.unknown_records,
            scanned.warnings.malformed,
        );
    }
    Ok(scanned)
}

/// The `--watch PATH` mode: replay a captured trace through the
/// continuous re-divergence watch offline. Event lines drive
/// [`SiteWatch::observe_kind`], which classifies identically to a live
/// in-engine watch over the same stream.
fn run_watch(path: &str, window_cycles: u64) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scanned = ScannedTrace::scan(&text);
    let mut watch = SiteWatch::new(WatchConfig::default().with_window_cycles(window_cycles));
    let mut events = 0u64;
    for line in text.lines() {
        if json::str_member(line, "type") != Some("event") {
            continue;
        }
        let (Some(cycle), Some(kind)) = (
            json::u64_member(line, "cycle"),
            json::str_member(line, "kind"),
        ) else {
            continue;
        };
        let pc = json::u64_member(line, "pc").map(|p| p as u32);
        watch.observe_kind(cycle, kind, pc);
        events += 1;
    }
    watch.seal();

    println!(
        "watch replay of {path}: {events} event lines / window {window_cycles} cycles / \
         {} windows closed",
        watch.windows_closed()
    );
    if events == 0 {
        println!("note: no event lines found — replay wants a full-fidelity --stream capture");
    }
    println!(
        "sites {} / rediverged {} / converged {} / events observed {}\n",
        watch.site_count(),
        watch.rediverged_sites(),
        watch.converged_sites(),
        watch.events()
    );
    println!("Per-site verdicts (guest PC order):");
    println!(
        "  {:>10} {:>15} {:>6} {:>7} {:>8} {:>11}",
        "pc", "verdict", "traps", "fixups", "patches", "rediverges"
    );
    for (pc, s) in watch.sites() {
        println!(
            "  {:#10x} {:>15} {:>6} {:>7} {:>8} {:>11}",
            pc,
            s.verdict.tag(),
            s.traps,
            s.fixups,
            s.patches,
            s.rediverge_count
        );
    }
    if watch.transitions().is_empty() {
        println!("\nno verdict transitions");
    } else {
        println!("\nVerdict transitions (stream order, with window evidence):");
        for t in watch.transitions() {
            println!(
                "  {:#10x} -> {:<10} window [{}, {}) traps {} fixups {} patches {} \
                 rate {}/Mcycle",
                t.pc,
                t.verdict.tag(),
                t.evidence.window_start_cycle,
                t.evidence.window_start_cycle + t.evidence.window_cycles,
                t.evidence.traps,
                t.evidence.fixups,
                t.evidence.patches,
                t.evidence.rate_per_mcycle
            );
        }
    }
    if scanned.warnings.any() {
        println!(
            "\nwarning: {path}: {} suspect lines — exiting {EXIT_SCAN_WARNINGS}",
            scanned.warnings.total()
        );
        return Ok(ExitCode::from(EXIT_SCAN_WARNINGS));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--diff A B` mode: align two traces of the same workload by guest
/// PC and timeline bucket, report `B - A` deltas and the verdict pair.
fn run_diff(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let a = load_scan(path_a)?;
    let b = load_scan(path_b)?;
    let d = bridge_trace::diff::diff(&a, &b);

    println!("trace diff (all deltas are B - A):");
    println!(
        "  A: {path_a} ({} events, {} sites, verdict {})",
        a.events,
        a.sites.len(),
        d.verdict_a.label()
    );
    println!(
        "  B: {path_b} ({} events, {} sites, verdict {})",
        b.events,
        b.sites.len(),
        d.verdict_b.label()
    );
    println!(
        "\n  totals: traps {:+}, attributed cycles {:+}",
        d.total_traps, d.total_cycles
    );

    if d.changed_sites().next().is_none() {
        println!("\n  no per-site differences");
    } else {
        println!("\n  per-site deltas (changed sites only, guest PC order):");
        println!(
            "  {:>10} {:>7} {:>7} {:>8} {:>12} {:>5}",
            "pc", "traps", "fixups", "patches", "cycles", "in"
        );
        for s in d.changed_sites() {
            let presence = match (s.in_a, s.in_b) {
                (true, true) => "A+B",
                (true, false) => "A",
                (false, true) => "B",
                (false, false) => "-",
            };
            println!(
                "  {:#10x} {:>+7} {:>+7} {:>+8} {:>+12} {:>5}",
                s.pc, s.traps, s.os_fixups, s.patches, s.cycles_attributed, presence
            );
        }
    }

    match &d.bucket_traps {
        Some(bt) => {
            let width = d.bucket_cycles.expect("aligned diff carries the width");
            let nonzero: Vec<(usize, i64)> = bt
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t != 0)
                .map(|(i, &t)| (i, t))
                .collect();
            println!(
                "\n  bucket trap deltas ({width} cycles/bucket, {} of {} buckets differ):",
                nonzero.len(),
                bt.len()
            );
            // Long flat tails (the per-occurrence signature) compress to
            // an elision line; the shape is visible from the head alone.
            const SHOWN: usize = 20;
            for &(i, t) in nonzero.iter().take(SHOWN) {
                println!("  {i:>6} {t:>+7}");
            }
            if nonzero.len() > SHOWN {
                let rest: i64 = nonzero[SHOWN..].iter().map(|&(_, t)| t).sum();
                println!(
                    "  ({} more buckets, {rest:+} traps in total)",
                    nonzero.len() - SHOWN
                );
            }
        }
        None => println!("\n  bucket widths differ: timeline deltas skipped"),
    }

    if d.verdict_changed() {
        println!(
            "\nconvergence verdict CHANGED: A {} -> B {}",
            d.verdict_a.label(),
            d.verdict_b.label()
        );
    } else {
        println!("\nconvergence verdict unchanged: {}", d.verdict_a.label());
    }
    match d.total_traps {
        t if t > 0 => println!("B trapped {t} more times than A"),
        t if t < 0 => println!("B trapped {} fewer times than A", -t),
        _ => println!("A and B trapped equally often"),
    }
    if a.warnings.any() || b.warnings.any() {
        return Ok(ExitCode::from(EXIT_SCAN_WARNINGS));
    }
    if d.verdict_a == ConvergenceVerdict::Indeterminate
        || d.verdict_b == ConvergenceVerdict::Indeterminate
    {
        return Ok(ExitCode::from(EXIT_INDETERMINATE));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--images DIR` mode: audit an AOT artifact store. Every `.dbti`
/// file is loaded through the same full-validation path the warm-starting
/// service uses, so "valid" here means "a serve fleet would restore it"
/// and "CORRUPT" means "a serve fleet would reject it and translate
/// fresh".
fn run_images(dir: &str) -> Result<(), String> {
    let store = ImageStore::new(dir);
    if !store.dir().is_dir() {
        return Err(format!("{dir} is not a directory"));
    }
    let entries = store.list();
    println!("AOT artifact store {dir}: {} image files", entries.len());
    if entries.is_empty() {
        return Ok(());
    }
    println!(
        "  {:<18} {:<8} {:>6} {:>9} {:>4} {:>6} {:>8}  status",
        "guest hash", "strategy", "thresh", "bytes", "TBs", "words", "profile"
    );
    let (mut valid, mut corrupt) = (0usize, 0usize);
    for (path, loaded) in &entries {
        let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        match loaded {
            Ok(img) => {
                valid += 1;
                println!(
                    "  {:016x}   {:<8} {:>6} {:>9} {:>4} {:>6} {:>8}  valid",
                    img.key.guest_hash,
                    strategy_tag(img.key.strategy),
                    img.key.hot_threshold,
                    size,
                    img.blocks.len(),
                    img.total_words(),
                    if img.static_profile().is_some() {
                        "yes"
                    } else {
                        "-"
                    },
                );
            }
            Err(e) => {
                corrupt += 1;
                println!(
                    "  {name:<18} {:<8} {:>6} {size:>9} {:>4} {:>6} {:>8}  CORRUPT: {e} (code {})",
                    "?",
                    "?",
                    "?",
                    "?",
                    "?",
                    e.code()
                );
            }
        }
    }
    println!("\n  {valid} valid / {corrupt} corrupt");
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("trace_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((a, b)) = &opts.diff {
        return match run_diff(a, b) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("trace_report: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(path) = &opts.watch {
        return match run_watch(path, opts.window_cycles) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("trace_report: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(dir) = &opts.images {
        return match run_images(dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("trace_report: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.health {
        return match run_health(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("trace_report: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let kernel = match kernel_by_name(&opts.kernel, opts.iters) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("trace_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match config_by_name(&opts.strategy) {
        Ok(c) => c.with_threshold(50),
        Err(e) => {
            eprintln!("trace_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The flame / Chrome-export run: same kernel, same config, engine
    // span recording on. A separate deterministic run keeps the trace
    // and span captures independent (both are pure observers, so the
    // reports agree cycle for cycle).
    if opts.flame.is_some() || opts.spans.is_some() {
        let (span_report, rec) =
            bridge_bench::run_kernel_spanned(&kernel, cfg.clone(), SpanConfig::default());
        if let Some(path) = &opts.flame {
            let folded = rec.folded();
            if path == "-" {
                print!("{folded}");
            } else if let Err(e) = std::fs::write(path, &folded) {
                eprintln!("trace_report: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            } else {
                println!(
                    "wrote folded stacks to {path} ({} spans, {} cycles)",
                    rec.len(),
                    span_report.cycles()
                );
            }
        }
        if let Some(path) = &opts.spans {
            if let Err(e) = std::fs::write(path, rec.to_chrome_json()) {
                eprintln!("trace_report: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote Chrome trace events to {path} ({} spans)", rec.len());
        }
    }
    let tc = TraceConfig::default().with_bucket_cycles(opts.bucket_cycles);
    let mut streamed = None;
    let (report, trace) = if let Some(path) = &opts.stream {
        let f = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("trace_report: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let sink = Box::new(StreamingJsonl::new(BufWriter::new(f)));
        let run = bridge_bench::run_kernel_streamed(&kernel, cfg, tc, sink);
        match run.summary {
            Ok(s) => streamed = Some(s),
            Err(e) => {
                eprintln!("trace_report: streaming to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        (run.report, run.tracer)
    } else {
        bridge_bench::run_kernel_traced(&kernel, cfg, tc)
    };

    println!(
        "kernel {} / strategy {} / {} iterations / bucket {} cycles",
        opts.kernel, opts.strategy, opts.iters, opts.bucket_cycles
    );
    if let (Some(s), Some(path)) = (&streamed, &opts.stream) {
        println!(
            "streamed {} events / {} sites / {} buckets to {path}",
            s.events, s.sites, s.buckets
        );
    }
    println!(
        "cycles {} / traps {} / patches {} / fixups {} / events {} (dropped {})\n",
        report.cycles(),
        report.traps(),
        report.patched_sites,
        report.os_fixups,
        trace.event_count(),
        trace.dropped()
    );

    println!("Per-site MDA telemetry (guest PC order):");
    println!(
        "  {:>10} {:>6} {:>7} {:>7} {:>10} {:>10} {:>9} {:>11} {:>8} {:>8}",
        "pc",
        "traps",
        "fixups",
        "patches",
        "1st trap",
        "patched",
        "disc→fix",
        "cycles",
        "execs",
        "mdas"
    );
    for (pc, s) in trace.sites() {
        println!(
            "  {:#10x} {:>6} {:>7} {:>7} {:>10} {:>10} {:>9} {:>11} {:>8} {:>8}",
            pc,
            s.traps,
            s.os_fixups,
            s.patches + s.rearrangements,
            opt_cycle(s.first_trap_cycle),
            opt_cycle(s.patch_cycle),
            opt_cycle(s.discovery_to_fix_cycles()),
            s.cycles_attributed,
            s.execs,
            s.mdas,
        );
    }

    if let Some(n) = opts.top {
        println!("\nHot sites (top {n} by attributed cycles):");
        println!(
            "  {:>4} {:>10} {:>11} {:>6} {:>7} {:>8} {:>8}",
            "rank", "pc", "cycles", "traps", "patches", "execs", "mdas"
        );
        for (rank, (pc, s)) in trace.hot_sites(n).iter().enumerate() {
            println!(
                "  {:>4} {:#10x} {:>11} {:>6} {:>7} {:>8} {:>8}",
                rank + 1,
                pc,
                s.cycles_attributed,
                s.traps,
                s.patches + s.rearrangements,
                s.execs,
                s.mdas,
            );
        }
    }

    let tl = trace.timeline();
    println!("\nPhase timeline ({} cycles/bucket):", tl.bucket_cycles());
    println!(
        "  {:>6} {:>7} {:>9} {:>8} {:>12}",
        "bucket", "traps", "mon.exits", "patches", "guest insns"
    );
    let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    for i in 0..tl.active_buckets() {
        println!(
            "  {:>6} {:>7} {:>9} {:>8} {:>12}",
            i,
            get(tl.traps(), i),
            get(tl.monitor_exits(), i),
            get(tl.patches(), i),
            get(tl.guest_insns(), i),
        );
    }
    if tl.truncated() {
        println!("  (activity past the last bucket folded into it)");
    }
    let mut exit = ExitCode::SUCCESS;
    match tl.last_patch_bucket() {
        Some(b) if tl.trap_rate_converged() => {
            println!("\ntrap rate CONVERGED: no traps after the last patch (bucket {b})");
        }
        Some(b) if tl.traps_after(b) > 0 => {
            println!(
                "\ntrap rate NOT converged: {} traps after the last patch (bucket {b})",
                tl.traps_after(b)
            );
        }
        Some(b) => {
            // traps_after(b) == 0 yet not converged: the timeline was
            // truncated with the last patch in the final bucket, so the
            // folded traps' order relative to the patch is unknown.
            println!(
                "\ntrap rate INDETERMINATE: timeline truncated at bucket {b} with {} folded traps",
                tl.folded_traps()
            );
            exit = ExitCode::from(EXIT_INDETERMINATE);
        }
        None if report.traps() > 0 => {
            println!(
                "\nno patches: {} traps paid per-occurrence (profiling-based handling)",
                report.traps()
            );
        }
        None => println!("\nno traps, no patches: every site handled at translation time"),
    }

    if let Some(path) = &opts.jsonl {
        if let Err(e) = std::fs::write(path, jsonl::to_string(&trace)) {
            eprintln!("trace_report: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    exit
}
