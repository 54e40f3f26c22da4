//! Golden correctness pins in `golden/`: what the outputs must be, fixed
//! when the benchmark was defined.
//!
//! * `golden/edge.txt`: cycles, traps and a digest of the report text and
//!   memory for each set-up canary, and for the first cold requests at
//!   the default seed;
//! * `golden/repro.txt`: a content hash of each experiment table.
//!
//! `benchmark bless` rewrites both files from the current code; do that
//! only for a change meant to alter results, and say so.

use crate::edge::{self, Mix, Stream};
use crate::load::Op;
use crate::repro;
use bridge_serve::{ExecService, RunRequest, ServeConfig};
use bridge_workloads::spec::Scale;
use std::collections::BTreeMap;

pub const EDGE: &str = include_str!("../golden/edge.txt");
pub const REPRO: &str = include_str!("../golden/repro.txt");

/// Cold requests pinned at the default seed.
pub const COLD_PINNED: usize = 64;

/// The seed the cold pins were taken at (and `--seed`'s default).
pub const DEFAULT_SEED: u64 = 1;

/// `key → value` lines of a golden file (`#` starts a comment).
pub fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect()
}

fn pin(svc: &ExecService, req: RunRequest) -> String {
    let (cycles, traps, digest) = edge::reference_digest(svc, req);
    format!(
        "{} cycles={cycles} traps={traps} digest={digest:016x}",
        edge::label(&req)
    )
}

/// Compares one pinned value, naming the entry on a mismatch.
fn expect(pins: &BTreeMap<String, String>, key: &str, got: &str, mismatches: &mut Vec<String>) {
    match pins.get(key) {
        Some(want) if want == got => {}
        Some(want) => mismatches.push(format!("golden {key}: expected `{want}`, got `{got}`")),
        None => mismatches.push(format!("golden {key}: no pinned value")),
    }
}

pub fn check_canaries_against(pins: &str, svc: &ExecService, mismatches: &mut Vec<String>) {
    let pins = parse(pins);
    for (i, req) in edge::canaries().into_iter().enumerate() {
        expect(&pins, &format!("canary.{i}"), &pin(svc, req), mismatches);
    }
}

pub fn check_canaries(svc: &ExecService, mismatches: &mut Vec<String>) {
    check_canaries_against(EDGE, svc, mismatches);
}

pub fn check_cold(svc: &ExecService, first: &[RunRequest], mismatches: &mut Vec<String>) {
    let pins = parse(EDGE);
    for (i, req) in first.iter().enumerate() {
        expect(&pins, &format!("cold.{i}"), &pin(svc, *req), mismatches);
    }
}

/// The first [`COLD_PINNED`] requests of the cold stream at `seed`.
pub fn first_cold(seed: u64) -> Vec<RunRequest> {
    let mut stream = Stream::new(
        seed,
        edge::EdgeLoad {
            mix: Mix::Cold,
            r_mid: 0.0,
            observed: false,
        },
    );
    (0..COLD_PINNED)
        .map(|_| match stream.next_op() {
            Op::Run { req, .. } => req,
            Op::Scrape(_) => unreachable!("cold streams only run"),
        })
        .collect()
}

pub fn table_hash(text: &str) -> String {
    format!(
        "{:016x}",
        bridge_dbt::image::content_hash(&[text.as_bytes()])
    )
}

pub fn check_table(scale: Scale, slug: &str, text: &str, mismatches: &mut Vec<String>) {
    let key = format!("repro.{}.{slug}", scale.outer_iters);
    expect(&parse(REPRO), &key, &table_hash(text), mismatches);
}

/// Renders both golden files from the current code.
pub fn render() -> (String, String) {
    let svc = ExecService::new(ServeConfig::default());
    let mut edge_txt = String::from(
        "# Pinned run results: label cycles traps digest(report text, memory).\n\
         # canary.N: the six set-up canaries; cold.N: the first cold requests at seed 1.\n",
    );
    for (i, req) in edge::canaries().into_iter().enumerate() {
        edge_txt.push_str(&format!("canary.{i} {}\n", pin(&svc, req)));
    }
    for (i, req) in first_cold(DEFAULT_SEED).into_iter().enumerate() {
        edge_txt.push_str(&format!("cold.{i} {}\n", pin(&svc, req)));
    }
    let mut repro_txt =
        String::from("# Content hash of each experiment table: repro.<outer_iters>.<slug>.\n");
    for scale in [repro::SETUP_SCALE, repro::SCALE] {
        for (i, (_, run)) in bridge_bench::experiments::ALL.iter().enumerate() {
            let text = run(scale).to_string();
            repro_txt.push_str(&format!(
                "repro.{}.{} {}\n",
                scale.outer_iters,
                repro::SLUGS[i],
                table_hash(&text)
            ));
        }
    }
    (edge_txt, repro_txt)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A perturbed pin fails the check and names the entry; the committed
    /// pins pass.
    #[test]
    fn perturbed_golden_entry_fails() {
        let svc = ExecService::new(ServeConfig::default());
        let mut ok = Vec::new();
        check_canaries_against(EDGE, &svc, &mut ok);
        assert!(ok.is_empty(), "{ok:?}");

        let line = EDGE.lines().find(|l| l.starts_with("canary.2 ")).unwrap();
        let digest = line.rsplit_once("digest=").unwrap().1;
        let flipped = if digest.starts_with('0') { "1" } else { "0" };
        let bad_line = format!(
            "{}digest={flipped}{}",
            line.rsplit_once("digest=").unwrap().0,
            &digest[1..]
        );
        let perturbed = EDGE.replace(line, &bad_line);
        let mut bad = Vec::new();
        check_canaries_against(&perturbed, &svc, &mut bad);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("golden canary.2:"), "{}", bad[0]);
    }

    #[test]
    fn every_experiment_has_a_slug_and_pins() {
        assert_eq!(bridge_bench::experiments::ALL.len(), repro::SLUGS.len());
        let pins = parse(REPRO);
        for scale in [repro::SETUP_SCALE, repro::SCALE] {
            for slug in repro::SLUGS {
                assert!(pins.contains_key(&format!("repro.{}.{slug}", scale.outer_iters)));
            }
        }
        let edge = parse(EDGE);
        assert!(edge.contains_key(&format!("cold.{}", COLD_PINNED - 1)));
    }
}
