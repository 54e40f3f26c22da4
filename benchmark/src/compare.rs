//! `benchmark compare PARENT CHANGE`: judges a change against its parent,
//! metric by metric and workload by workload.
//!
//! Each file holds the printed lines of several runs (`workload metric
//! value unit n=<samples>`); the i-th run of one side pairs with the i-th
//! run of the other, so run the two sides alternately. For every metric
//! and workload the verdict follows the measuring rules of the
//! choosing-metrics method:
//!
//! * `gain`: the change wins at least 9 in 10 pairs (ties count for
//!   neither) and the medians differ by more than the parent's own
//!   interquartile range;
//! * `regressed`: the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * `unresolved`: the parent's spread is wider than the bound, so a
//!   difference within it cannot be called, unless every change run beats
//!   every parent run;
//! * `same`: none of the above.
//!
//! Per-layer metrics have no bound: they get a `gain` or `same` only.

use crate::report::{Better, Spec, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

type Runs = BTreeMap<(String, &'static str), Vec<f64>>;

/// Reads the `workload metric value unit n=<samples>` lines of a file.
fn parse(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 || !f[4].starts_with("n=") {
            continue;
        }
        let Some(spec) = spec(f[1]) else {
            return Err(format!("unknown metric in line: {line}"));
        };
        let v: f64 = f[2]
            .parse()
            .map_err(|_| format!("bad value in line: {line}"))?;
        runs.entry((f[0].to_string(), spec.name))
            .or_default()
            .push(v);
    }
    Ok(runs)
}

fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// How `change` compares with `parent` on one metric.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regressed,
    Unresolved,
    Same,
}

impl Verdict {
    fn as_str(&self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// The verdict for one metric; `parent` and `change` need two runs each.
pub fn judge(spec: &Spec, parent: &[f64], change: &[f64]) -> Verdict {
    // Oriented so that larger is better.
    let sign = match spec.better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let improved = sign * (mc - mp);
    if improved > 0.0 && 10 * wins >= 9 * pairs && improved > q3 - q1 {
        return Verdict::Gain;
    }
    let Some(bound) = spec.bound else {
        return Verdict::Same;
    };
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    if -improved / scale > bound {
        return Verdict::Regressed;
    }
    let spread = (q3 - q1) / scale;
    let worst_change = change
        .iter()
        .map(|c| sign * c)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|p| sign * p)
        .fold(f64::NEG_INFINITY, f64::max);
    if spread > bound && worst_change <= best_parent {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

pub fn main(parent_path: &str, change_path: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let parent = parse(&read(parent_path)?)?;
    let change = parse(&read(change_path)?)?;
    let mut regressed = false;
    for ((workload, name), p) in &parent {
        let Some(c) = change.get(&(workload.clone(), name)) else {
            continue;
        };
        if p.len() < 2 || c.len() < 2 {
            return Err(format!("{workload} {name}: need two runs on each side"));
        }
        let spec = spec(name).expect("parsed metrics are known");
        let verdict = judge(spec, p, c);
        regressed |= verdict == Verdict::Regressed;
        let (pq1, pq3) = quartiles(p);
        let (cq1, cq3) = quartiles(c);
        let (mp, mc) = (median(p), median(c));
        let wins = p
            .iter()
            .zip(c)
            .filter(|(a, b)| match spec.better {
                Better::Lower => b < a,
                Better::Higher => b > a,
            })
            .count();
        println!(
            "{workload} {name} parent={mp:.6}[{pq1:.6},{pq3:.6}] change={mc:.6}[{cq1:.6},{cq3:.6}] \
             {} ({}) delta={:+.2}% wins={wins}/{} bound={} {}",
            spec.unit,
            spec.better.as_str(),
            100.0 * (mc - mp) / mp.abs().max(f64::MIN_POSITIVE),
            p.len().min(c.len()),
            spec.bound.map_or("-".to_string(), |b| b.to_string()),
            verdict.as_str()
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> &'static Spec {
        spec("lat_p50_ms.mid").unwrap()
    }

    #[test]
    fn clear_gain_needs_nine_in_ten_wins() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.1 * f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 2.0).collect();
        assert_eq!(judge(lat(), &parent, &change), Verdict::Gain);
        // Two losing pairs out of ten: no longer a gain.
        let mut mixed = change.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_eq!(judge(lat(), &parent, &mixed), Verdict::Same);
    }

    #[test]
    fn worse_beyond_the_bound_regresses() {
        let parent = vec![10.0, 10.1, 9.9, 10.0, 10.05];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(judge(lat(), &parent, &change), Verdict::Regressed);
        let slightly: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(judge(lat(), &parent, &slightly), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = vec![5.0, 15.0, 6.0, 14.0, 10.0, 7.0];
        let change = vec![9.0, 11.0, 10.0, 12.0, 8.0, 13.0];
        assert_eq!(judge(lat(), &parent, &change), Verdict::Unresolved);
    }

    #[test]
    fn reads_the_printed_lines() {
        let runs = parse("edge_warm lat_p50_ms.mid 1.5 ms n=9\n{\"correct\": true}\n").unwrap();
        assert_eq!(
            runs[&("edge_warm".to_string(), "lat_p50_ms.mid")],
            vec![1.5]
        );
        assert!(parse("edge_warm nope 1 ms n=1").is_err());
    }
}
