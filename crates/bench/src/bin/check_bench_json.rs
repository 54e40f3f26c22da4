//! Schema validator for `BENCH_simulator.json` (the `perf` harness's
//! output), used by `ci.sh`.
//!
//! Every contract is one row of [`RULES`]: a section, a key in it, and
//! the rule its value must meet. One loop applies the rows; keys the
//! table does not name are ignored. Each lookup is scoped to its own
//! section's braces, so a key missing from one section is never
//! satisfied by the same name in another. Lookups go through the
//! workspace's one JSON reader ([`bridge_metrics::json`]), which finds
//! only an object's top-level members.
//!
//! Usage: `check_bench_json [path]` (default `BENCH_simulator.json`).
//! Exits non-zero with a diagnostic on the first violation.

use bridge_bench::serve::SERVE_SPEEDUP_FLOOR;
use bridge_metrics::json::{elements, member};
use std::process::ExitCode;

/// The one schema version this validator understands.
const KNOWN_SCHEMA_VERSION: u64 = 11;

/// What a value must be.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// A number greater than zero.
    Positive,
    /// Any number (zero allowed), as long as it is present.
    Numeric,
    /// A number no smaller than the floor.
    AtLeast(f64),
    /// A number strictly below the budget.
    Below(f64),
    /// The literal `true`.
    True,
    /// The given string.
    Str(&'static str),
}
use Rule::*;

/// `(section, key, rule)`. The section is a dot path from the document
/// root (`""` is the root itself); a trailing `[]` applies the row to
/// every element of a non-empty array.
const RULES: &[(&str, &str, Rule)] = &[
    ("", "scale_outer_iters", Positive),
    // Raw simulator throughput against the frozen pre-change engine.
    ("mips", "kernel_insns", Positive),
    ("mips", "superblock", Positive),
    ("mips", "per_insn", Positive),
    ("mips", "baseline", Positive),
    ("mips", "speedup", Positive),
    // Simulator throughput on the warm canary requests' translated code.
    ("request_mips", "mips", Positive),
    ("fig1", "trace_secs", Positive),
    ("fig1", "baseline_secs", Positive),
    ("fig1", "speedup", Positive),
    // In-cache dispatch must at least halve monitor exits.
    ("dispatch", "monitor_exits_off", Positive),
    ("dispatch", "monitor_exits_on", Positive),
    ("dispatch", "monitor_exit_reduction", AtLeast(2.0)),
    ("dispatch.kernels[]", "cycles_off", Positive),
    // Observers never change simulated cycles and stay under 10% wall
    // clock; each must actually have observed something.
    ("trace", "secs_off", Positive),
    ("trace", "secs_on", Positive),
    ("trace", "enabled_overhead_pct", Below(10.0)),
    ("trace", "cycles_equal", True),
    ("trace", "events", Positive),
    ("trace", "sites", Positive),
    ("trace", "dropped", Numeric),
    ("trace", "secs_stream", Positive),
    ("trace", "stream_overhead_pct", Below(10.0)),
    ("trace", "stream_cycles_equal", True),
    ("trace", "streamed_events", Positive),
    ("spans", "secs_off", Positive),
    ("spans", "secs_spans", Positive),
    ("spans", "span_overhead_pct", Below(10.0)),
    ("spans", "cycles_equal", True),
    ("spans", "span_count", Positive),
    ("spans", "folded_frames", Positive),
    ("spans", "dropped", Numeric),
    // The watch must flag the phase-change site as re-diverged.
    ("watch", "secs_off", Positive),
    ("watch", "secs_watched", Positive),
    ("watch", "watch_overhead_pct", Below(10.0)),
    ("watch", "cycles_equal", True),
    ("watch", "sites", Positive),
    ("watch", "rediverged", Positive),
    ("watch", "converged", Numeric),
    ("watch", "transitions", Positive),
    ("watch", "windows_closed", Positive),
    // dbt_traps may be zero: DPEH handles these kernels' sites at
    // translation time.
    ("metrics", "document_schema", Str("bridge-metrics/1")),
    ("metrics", "well_formed", True),
    ("metrics", "instruments", Positive),
    ("metrics", "dbt_traps", Numeric),
    ("metrics", "dbt_blocks_translated", Positive),
    // The service's amortization floor holds whatever the host's
    // parallelism, and never changes merged stats.
    ("serve", "shards", Positive),
    ("serve", "requests", Positive),
    ("serve", "specs", Positive),
    ("serve", "secs_sequential", Positive),
    ("serve", "secs_service", Positive),
    ("serve", "speedup", AtLeast(SERVE_SPEEDUP_FLOOR)),
    ("serve", "available_parallelism", Positive),
    ("serve", "stats_equal", True),
    // The next-TB hint resolves half of TB lookups and sharing removes
    // half the fleet's translations; the threaded speedup is recorded.
    ("shared_cache", "vcpus", Positive),
    ("shared_cache", "hint_hits", Positive),
    ("shared_cache", "hint_misses", Numeric),
    ("shared_cache", "hint_hit_rate", AtLeast(0.5)),
    ("shared_cache", "translated_private", Positive),
    ("shared_cache", "translated_shared", Positive),
    ("shared_cache", "translation_reduction", AtLeast(0.5)),
    ("shared_cache", "secs_single", Positive),
    ("shared_cache", "secs_multi", Positive),
    ("shared_cache", "mt_speedup", Positive),
    ("shared_cache", "available_parallelism", Positive),
    ("shared_cache", "stats_equal", True),
    // A warm first batch over all five strategies translates >= 5x
    // fewer blocks than cold, with identical results.
    ("warm_start", "requests", Positive),
    ("warm_start", "strategies", AtLeast(5.0)),
    ("warm_start", "cold_blocks_translated", Positive),
    ("warm_start", "warm_blocks_translated", Numeric),
    ("warm_start", "translation_reduction", AtLeast(5.0)),
    ("warm_start", "images_saved", Positive),
    ("warm_start", "images_loaded", Positive),
    ("warm_start", "blocks_preloaded", Positive),
    ("warm_start", "image_hits", Positive),
    ("warm_start", "stats_equal", True),
    ("experiments[]", "secs", Positive),
];

/// The objects a rule's section path names.
fn sections<'a>(json: &'a str, path: &str) -> Result<Vec<&'a str>, String> {
    let (names, each) = match path.strip_suffix("[]") {
        Some(names) => (names, true),
        None => (path, false),
    };
    let mut obj = json;
    for name in names.split('.').filter(|s| !s.is_empty()) {
        obj = member(obj, name).ok_or_else(|| format!("missing section \"{path}\""))?;
    }
    if !each {
        return Ok(vec![obj]);
    }
    let items = elements(obj);
    if items.is_empty() {
        return Err(format!("section \"{path}\" has no entries"));
    }
    Ok(items)
}

/// Whether `raw` meets `rule`, and what the rule asks for.
fn meets(raw: &str, rule: Rule) -> (bool, String) {
    let num = raw.parse::<f64>().ok().filter(|v| v.is_finite());
    match rule {
        Positive => (num.is_some_and(|v| v > 0.0), "be positive".into()),
        Numeric => (num.is_some(), "be a number".into()),
        AtLeast(floor) => (num.is_some_and(|v| v >= floor), format!("be >= {floor}")),
        Below(budget) => (num.is_some_and(|v| v < budget), format!("be < {budget}")),
        True => (raw == "true", "be true".into()),
        Str(s) => (raw == format!("\"{s}\""), format!("be \"{s}\"")),
    }
}

fn check(json: &str) -> Result<(), String> {
    // Schema marker first: everything else is defined relative to it.
    // The version is parsed, not string-compared, so an *unknown* suffix
    // — in particular one newer than this binary — fails loudly instead
    // of passing a document whose contract the validator has never seen.
    let schema = member(json, "schema").ok_or("missing key \"schema\"")?;
    let version: u64 = schema
        .strip_prefix("\"digitalbridge-sim-perf/")
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| {
            format!("schema must be \"digitalbridge-sim-perf/<version>\" (got {schema})")
        })?
        .parse()
        .map_err(|_| format!("schema version is not a number (got {schema})"))?;
    if version < KNOWN_SCHEMA_VERSION {
        return Err(format!(
            "schema version {version} is older than this validator \
             (knows {KNOWN_SCHEMA_VERSION}) — regenerate the file with the current perf harness"
        ));
    }
    if version > KNOWN_SCHEMA_VERSION {
        return Err(format!(
            "schema version {version} is newer than this validator \
             (knows {KNOWN_SCHEMA_VERSION}) — rebuild check_bench_json before trusting the file"
        ));
    }

    for &(path, key, rule) in RULES {
        let at = if path.is_empty() { "" } else { "." };
        let at = format!("{path}{at}");
        for obj in sections(json, path)? {
            let raw = member(obj, key).ok_or_else(|| format!("missing key \"{at}{key}\""))?;
            let (ok, want) = meets(raw, rule);
            if !ok {
                return Err(format!("{at}{key} must {want} (got {raw})"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_simulator.json".into());
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("check_bench_json: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&json) {
        Ok(()) => {
            println!("{path}: schema digitalbridge-sim-perf/{KNOWN_SCHEMA_VERSION} OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check_bench_json: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "schema": "digitalbridge-sim-perf/11",
  "scale_outer_iters": 240,
  "mips": {
    "kernel_insns": 1000,
    "superblock": 80.0,
    "per_insn": 30.0,
    "baseline": 28.0,
    "speedup": 2.85
  },
  "request_mips": {
    "requests": 6,
    "host_insns": 240460,
    "cycles": 1771974,
    "secs_run": 0.0023,
    "mips": 104.5
  },
  "fig1": {
    "trace_secs": 0.05,
    "baseline_secs": 0.2,
    "speedup": 4.0
  },
  "dispatch": {
    "strategy": "DPEH",
    "kernel_iters": 240,
    "monitor_exits_off": 194,
    "monitor_exits_on": 6,
    "monitor_exit_reduction": 32.3,
    "kernels": [
      {"name": "misaligned_stack", "monitor_exits_off": 191, "monitor_exits_ibtc": 3, "monitor_exits_on": 3, "ibtc_hits": 0, "ras_hits": 189, "chains": 4, "cycles_off": 100, "cycles_ibtc": 97, "cycles_on": 105, "secs_off": 0.001, "secs_on": 0.001}
    ]
  },
  "trace": {
    "kernel_iters": 240,
    "secs_off": 0.004,
    "secs_on": 0.0041,
    "enabled_overhead_pct": 2.5,
    "cycles_equal": true,
    "events": 512,
    "sites": 12,
    "dropped": 0,
    "secs_stream": 0.0042,
    "stream_overhead_pct": 4.1,
    "stream_cycles_equal": true,
    "streamed_events": 2048
  },
  "spans": {
    "kernel_iters": 240,
    "secs_off": 0.004,
    "secs_spans": 0.0041,
    "span_overhead_pct": 2.1,
    "cycles_equal": true,
    "span_count": 96,
    "folded_frames": 18,
    "dropped": 0
  },
  "watch": {
    "kernel_iters": 1000,
    "secs_off": 0.01,
    "secs_watched": 0.0103,
    "watch_overhead_pct": 3.0,
    "cycles_equal": true,
    "sites": 1,
    "rediverged": 1,
    "converged": 0,
    "transitions": 1,
    "windows_closed": 26
  },
  "metrics": {
    "document_schema": "bridge-metrics/1",
    "well_formed": true,
    "instruments": 5,
    "dbt_traps": 160,
    "dbt_blocks_translated": 96
  },
  "serve": {
    "shards": 4,
    "requests": 14,
    "specs": 2,
    "secs_sequential": 0.2,
    "secs_service": 0.07,
    "speedup": 2.85,
    "available_parallelism": 1,
    "stats_equal": true
  },
  "shared_cache": {
    "vcpus": 4,
    "kernel_iters": 240,
    "hint_hits": 800,
    "hint_misses": 12,
    "hint_hit_rate": 0.985,
    "translated_private": 96,
    "translated_shared": 24,
    "translation_reduction": 0.75,
    "secs_single": 0.02,
    "secs_multi": 0.021,
    "mt_speedup": 0.95,
    "available_parallelism": 1,
    "stats_equal": true
  },
  "warm_start": {
    "requests": 10,
    "strategies": 5,
    "cold_blocks_translated": 45,
    "warm_blocks_translated": 0,
    "translation_reduction": 45.0,
    "images_saved": 10,
    "images_loaded": 10,
    "blocks_preloaded": 15,
    "image_hits": 10,
    "stats_equal": true
  },
  "experiments": [
    {"name": "Table I", "secs": 1.2}
  ]
}
"#;

    /// Byte range of `"key": value` for a row's key in `GOOD`, found by
    /// plain text search: each path segment, then the key, after the
    /// previous match.
    fn locate(path: &str, key: &str) -> (usize, usize) {
        let mut at = 0;
        for seg in path.split('.').filter(|s| !s.is_empty()) {
            let needle = format!("\"{}\":", seg.trim_end_matches("[]"));
            at += GOOD[at..].find(&needle).expect("section in GOOD");
        }
        let needle = format!("\"{key}\":");
        let start = at + GOOD[at..].find(&needle).expect("key in GOOD");
        let len = GOOD[start..].find([',', '\n', '}']).expect("value ends");
        (start, start + len)
    }

    /// A value that breaks `rule`.
    fn breaking(rule: Rule) -> String {
        match rule {
            Positive => "0".into(),
            Numeric => "\"n/a\"".into(),
            AtLeast(floor) => format!("{}", floor - 1.0),
            Below(budget) => format!("{budget}"),
            True => "false".into(),
            Str(_) => "\"other\"".into(),
        }
    }

    #[test]
    fn accepts_wellformed() {
        assert_eq!(check(GOOD), Ok(()));
    }

    /// Every row rejects a value that breaks its rule and a document
    /// without its key, naming the key; every section rejects its own
    /// absence, naming the section.
    #[test]
    fn every_rule_rejects_its_breaking_value_and_its_absence() {
        for &(path, key, rule) in RULES {
            let (start, end) = locate(path, key);
            let broken = format!(
                "{}\"{key}\": {}{}",
                &GOOD[..start],
                breaking(rule),
                &GOOD[end..]
            );
            let removed = format!("{}{}", &GOOD[..start], &GOOD[end..]);
            for (what, doc) in [("broken", broken), ("removed", removed)] {
                match check(&doc) {
                    Err(e) => assert!(e.contains(key), "{path}.{key} {what}: error {e:?}"),
                    Ok(()) => panic!("{path}.{key} {what}: document accepted"),
                }
            }
        }
        for &(path, _, _) in RULES.iter().filter(|r| !r.0.is_empty()) {
            let section = path.split('.').next().unwrap().trim_end_matches("[]");
            let doc = GOOD.replace(&format!("\"{section}\":"), &format!("\"{section}_x\":"));
            let err = check(&doc).expect_err(section);
            assert!(err.contains(section), "renamed {section}: error {err:?}");
        }
    }

    /// A key missing from its own section fails even when a later section
    /// carries the same name: `cycles_equal` and `dropped` also appear in
    /// `spans`.
    #[test]
    fn key_missing_from_its_section_is_rejected() {
        let trace = GOOD.find("\"trace\":").unwrap();
        for key in ["\"cycles_equal\": true,", "\"dropped\": 0,"] {
            let at = trace + GOOD[trace..].find(key).unwrap();
            let doc = format!("{}{}", &GOOD[..at], &GOOD[at + key.len()..]);
            let err = check(&doc).expect_err(key);
            assert!(err.contains("trace"), "{key}: error {err:?}");
        }
    }

    #[test]
    fn rejects_old_schema() {
        let old = GOOD.replace("sim-perf/11", "sim-perf/10");
        assert!(check(&old).unwrap_err().contains("older"));
    }

    /// The loud-failure fix: a file claiming a schema *newer* than this
    /// validator must be rejected, never silently passed.
    #[test]
    fn rejects_newer_schema() {
        let newer = GOOD.replace("sim-perf/11", "sim-perf/12");
        let err = check(&newer).unwrap_err();
        assert!(err.contains("newer"), "must fail loudly, got: {err}");
        let much_newer = GOOD.replace("sim-perf/11", "sim-perf/123");
        assert!(check(&much_newer).unwrap_err().contains("newer"));
    }

    #[test]
    fn rejects_unknown_schema_suffix() {
        let junk = GOOD.replace("sim-perf/11", "sim-perf/x");
        assert!(check(&junk).unwrap_err().contains("not a number"));
        let other = GOOD.replace("digitalbridge-sim-perf/11", "other-schema/11");
        assert!(check(&other).unwrap_err().contains("schema"));
    }

    /// Every speedup is checked in its own section: the mips and fig1
    /// ratios only have to be positive, the serve ratio must clear the
    /// amortization floor whatever the host's parallelism, and the vCPU
    /// fleet's ratio is recorded as any positive number.
    #[test]
    fn speedups_are_checked_per_section() {
        let bad = GOOD.replace("\"speedup\": 4.0", "\"speedup\": 0.0");
        assert!(check(&bad).unwrap_err().contains("fig1.speedup"));
        let weak = GOOD.replace("\"speedup\": 2.85,", "\"speedup\": 1.4,");
        assert!(check(&weak).unwrap_err().contains("serve.speedup"));
        let multi = GOOD.replace(
            "\"speedup\": 2.85,\n    \"available_parallelism\": 1,",
            "\"speedup\": 2.2,\n    \"available_parallelism\": 8,",
        );
        assert_eq!(check(&multi), Ok(()));
        let bad = GOOD.replace("\"mt_speedup\": 0.95", "\"mt_speedup\": 0.0");
        assert!(check(&bad).unwrap_err().contains("mt_speedup"));
        let multi = GOOD.replace(
            "\"mt_speedup\": 0.95,\n    \"available_parallelism\": 1,",
            "\"mt_speedup\": 0.95,\n    \"available_parallelism\": 4,",
        );
        assert_eq!(check(&multi), Ok(()));
    }
}
