//! The metric dictionary and the run output.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the one list of metrics; a test
//! checks that `BENCHMARK.json` names exactly these, with the same units,
//! directions and bounds.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one; the
/// README says what each means on each workload.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.24),
    e2e("lat_p50_ms.unloaded", "ms", Lower, 0.24),
    e2e("lat_p90_ms.unloaded", "ms", Lower, 0.24),
    e2e("lat_p50_ms.mid", "ms", Lower, 0.24),
    e2e("lat_p99_ms.mid", "ms", Lower, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Single layers, from the traced run. Each is timed or counted from
/// outside the program, around calls into the layer's public functions,
/// or read from the service's registry. See README.md for each one.
pub const PER_LAYER: &[Spec] = &[
    // bridge-workloads and bridge-dbt, per call on the workload's programs.
    layer("workloads.build_us", "us", Lower),
    layer("dbt.train_us", "us", Lower),
    layer("dbt.setup_us", "us", Lower),
    layer("dbt.run_us", "us", Lower),
    layer("dbt.interp_insns_per_req", "count", Lower),
    layer("dbt.interp_ns_per_insn", "ns", Lower),
    layer("dbt.translate_ns_per_guest_insn", "ns", Lower),
    layer("dbt.blocks_translated_per_req", "count", Lower),
    layer("dbt.code_cache_hit_ratio", "ratio", Higher),
    layer("dbt.hint_hit_ratio", "ratio", Higher),
    layer("dbt.traps_per_req", "count", Lower),
    layer("dbt.os_fixups_per_req", "count", Lower),
    layer("dbt.patches_per_req", "count", Lower),
    layer("dbt.monitor_exits_per_req", "count", Lower),
    layer("dbt.exec_share_pct", "%", Higher),
    // bridge-sim.
    layer("sim.host_insns_per_req", "count", Lower),
    layer("sim.cycles_per_req", "count", Lower),
    layer("sim.mips", "Minsn/s", Higher),
    // bridge-serve: the service.
    layer("serve.run_one_us", "us", Lower),
    layer("serve.context_us", "us", Lower),
    layer("serve.kernel_memo_us", "us", Lower),
    layer("serve.profile_memo_us", "us", Lower),
    layer("serve.memo_hit_ratio", "ratio", Higher),
    layer("serve.contexts", "count", Lower),
    layer("serve.readback_encode_us", "us", Lower),
    layer("serve.health_us", "us", Lower),
    layer("serve.alerts_us", "us", Lower),
    // bridge-serve: the edge.
    layer("edge.rtt_us", "us", Lower),
    layer("edge.overhead_us", "us", Lower),
    layer("edge.client_encode_us", "us", Lower),
    layer("edge.client_decode_us", "us", Lower),
    layer("edge.admission_ns", "ns", Lower),
    layer("edge.queue_wait_mean_us", "us", Lower),
    layer("edge.exec_mean_us", "us", Lower),
    layer("edge.shed_ratio.mid", "ratio", Lower),
    layer("edge.scrape_p50_ms", "ms", Lower),
    layer("edge.scrape_p95_ms", "ms", Lower),
    layer("edge.knee_rps", "1/s", Higher),
    // bridge-metrics.
    layer("metrics.prom_us", "us", Lower),
    layer("metrics.json_us", "us", Lower),
    layer("metrics.exposition_bytes", "B", Lower),
    // bridge-trace.
    layer("trace.traced_req_overhead_pct", "%", Lower),
    layer("trace.spans_per_req", "count", Lower),
    layer("observe.overhead_pct", "%", Lower),
    // The harness.
    layer("gen.late_p99_ms", "ms", Lower),
    layer("ledger.residual_pct", "%", Lower),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub metrics: Vec<Measured>,
    /// Operations attempted in the phases that must not fail.
    pub attempted: u64,
    /// Of those, operations without an `Ok` reply.
    pub failed: u64,
    /// Correctness failures, each naming the request or table.
    pub mismatches: Vec<String>,
}

/// Latencies are exact samples; a shed or lost request is infinite. JSON
/// has no infinity, so one is printed as this many milliseconds.
pub const INFINITE_MS: f64 = 1e6;

impl RunOutput {
    pub fn put(&mut self, name: &'static str, value: f64, n: usize) {
        let value = if value.is_finite() {
            value
        } else {
            INFINITE_MS
        };
        self.metrics.push(Measured { name, value, n });
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The metrics in dictionary order, restricted to `specs`. Panics if
    /// the run did not measure one of them: a benchmark bug.
    fn ordered<'a>(&'a self, specs: &'static [Spec]) -> Vec<(&'static Spec, &'a Measured)> {
        specs
            .iter()
            .map(|s| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == s.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", s.name));
                (s, m)
            })
            .collect()
    }

    /// The human-readable lines (`workload metric value unit n=<samples>`)
    /// followed by the one-line JSON document, which is always last.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        use std::fmt::Write as _;
        let specs = if traced { PER_LAYER } else { END_TO_END };
        let ordered = self.ordered(specs);
        let mut out = String::new();
        for (s, m) in &ordered {
            let _ = writeln!(
                out,
                "{workload} {} {} {} n={}",
                s.name, m.value, s.unit, m.n
            );
        }
        // A pass repeats its checks: name each mismatch once.
        let mut named = std::collections::BTreeSet::new();
        for mm in &self.mismatches {
            if named.insert(mm) {
                let _ = writeln!(out, "{workload} MISMATCH {mm}");
            }
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (s, m)) in ordered.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name,
                json_number(m.value),
                s.unit
            );
        }
        out.push_str("}}\n");
        out
    }
}

/// A finite `f64` with all its digits, always with a decimal point or
/// exponent so every reader sees a number.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A JSON value, enough to read `BENCHMARK.json` and the run output.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
                _ => panic!("not an object"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(m) => m.keys().map(String::as_str).collect(),
                _ => panic!("not an object"),
            }
        }

        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                _ => panic!("not an array"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = value(b, &mut pos);
        skip_ws(b, &mut pos);
        assert_eq!(pos, b.len(), "trailing input");
        v
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        skip_ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut m = BTreeMap::new();
                loop {
                    skip_ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(m);
                    }
                    let Json::Str(k) = value(b, pos) else {
                        panic!("object key")
                    };
                    skip_ws(b, pos);
                    assert_eq!(b[*pos], b':');
                    *pos += 1;
                    assert!(m.insert(k, value(b, pos)).is_none(), "duplicate key");
                    skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut v = Vec::new();
                loop {
                    skip_ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(v);
                    }
                    v.push(value(b, pos));
                    skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'"' => {
                let end = *pos + 1 + b[*pos + 1..].iter().position(|&c| c == b'"').unwrap();
                let s = std::str::from_utf8(&b[*pos + 1..end]).unwrap().to_string();
                assert!(!s.contains('\\'), "escapes are not needed here");
                *pos = end + 1;
                Json::Str(s)
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if b[*pos..].starts_with(word.as_bytes()) {
                        *pos += word.len();
                        return v;
                    }
                }
                panic!("bad literal")
            }
            _ => {
                let end = *pos
                    + b[*pos..]
                        .iter()
                        .position(|c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                        .unwrap_or(b.len() - *pos);
                let n = std::str::from_utf8(&b[*pos..end]).unwrap().parse().unwrap();
                *pos = end;
                Json::Num(n)
            }
        }
    }

    fn full_output(specs: &'static [Spec]) -> RunOutput {
        let mut out = RunOutput {
            attempted: 10,
            ..RunOutput::default()
        };
        for (i, s) in specs.iter().enumerate() {
            out.put(s.name, 1.25 + i as f64, 3);
        }
        out
    }

    /// `BENCHMARK.json` names exactly the metrics this program measures,
    /// with the same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let doc = parse(include_str!("../../BENCHMARK.json"));
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).arr();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (j, s) in listed.iter().zip(specs) {
                assert_eq!(j.get("name").str(), s.name);
                assert_eq!(j.get("unit").str(), s.unit, "{}", s.name);
                assert_eq!(j.get("better").str(), s.better.as_str(), "{}", s.name);
                match s.bound {
                    Some(b) => assert_eq!(j.get("bound"), &Json::Num(b), "{}", s.name),
                    None => assert_eq!(j.keys(), ["better", "name", "unit"]),
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        let ours: Vec<&str> = crate::WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(workloads, ours);
        // set-up carries the largest bound.
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|s| s.bound <= setup.bound));
    }

    /// The last output line is one JSON object with exactly the four
    /// keys, naming every metric of the run's kind once.
    #[test]
    fn json_line_names_exactly_the_metrics() {
        for (traced, specs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let text = full_output(specs).render("w", traced);
            let last = text.lines().last().unwrap();
            let doc = parse(last);
            assert_eq!(doc.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), &Json::Bool(true));
            let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
            names.sort_unstable();
            assert_eq!(doc.get("metrics").keys(), names);
            for s in specs {
                let m = doc.get("metrics").get(s.name);
                assert_eq!(m.keys(), ["unit", "value"]);
                assert_eq!(m.get("unit").str(), s.unit);
            }
            assert_eq!(text.lines().count(), specs.len() + 1);
        }
    }

    #[test]
    fn a_mismatch_makes_the_run_incorrect() {
        let mut out = full_output(END_TO_END);
        out.mismatches
            .push("golden canary.0: expected a, got b".into());
        assert!(!out.correct());
        let text = out.render("w", false);
        assert!(text.contains("w MISMATCH golden canary.0"));
        let doc = parse(text.lines().last().unwrap());
        assert_eq!(doc.get("correct"), &Json::Bool(false));
    }

    #[test]
    fn infinite_latencies_stay_numbers() {
        let mut out = RunOutput::default();
        out.put("x", f64::INFINITY, 1);
        assert_eq!(out.metrics[0].value, INFINITE_MS);
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
