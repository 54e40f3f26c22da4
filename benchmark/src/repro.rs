//! The `repro` workload: the paper's 13 experiments, in-process, one after
//! another, as `repro_all --jobs 1` runs them. It uses one engine per run
//! and private caches, and no serve, edge, shared cache or telemetry.
//!
//! Passes over all 13 experiments repeat for the length of the run, each
//! in an order drawn from the seed (the experiments' inputs are fixed by
//! the paper), and every figure is built from each experiment's fastest
//! time over the passes. On a shared host, slow spells come and go over
//! seconds and can cover most of a run; noise only ever adds time to a
//! deterministic computation, so the fastest of many short samples reads
//! the code's own cost. The scale is small so that one experiment takes
//! tens of milliseconds and fits between slow spells.

use crate::report::RunOutput;
use crate::stats::Samples;
use crate::{golden, Lengths};
use bridge_bench::experiments;
use bridge_workloads::rng::SplitMix64;
use bridge_workloads::spec::Scale;
use std::time::Instant;

/// File-name slug of each experiment, in `experiments::ALL` order.
pub const SLUGS: [&str; 13] = [
    "table1",
    "fig1",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig8_adaptive",
    "fig15",
    "fig16",
    "table3",
    "table4",
    "ablation_chaining",
];

/// The scale the measured passes run at (about 0.45 s a pass on the
/// reference host).
pub const SCALE: Scale = Scale { outer_iters: 12 };

/// The smallest scale: the set-up passes. Their cost is the part of the
/// reproduction that does not grow with the input.
pub const SETUP_SCALE: Scale = Scale { outer_iters: 1 };

/// One pass over every experiment in a seeded order: per-experiment
/// wall seconds in `experiments::ALL` order. Every table is checked
/// against its pin.
pub fn pass(scale: Scale, rng: &mut SplitMix64, mismatches: &mut Vec<String>) -> [f64; 13] {
    let mut order: Vec<usize> = (0..SLUGS.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut took = [0.0; 13];
    for i in order {
        let t = Instant::now();
        let table = (experiments::ALL[i].1)(scale);
        took[i] = t.elapsed().as_secs_f64();
        golden::check_table(scale, SLUGS[i], &table.to_string(), mismatches);
    }
    took
}

/// Each experiment's fastest seconds over `passes`.
fn best(passes: &[[f64; 13]]) -> [f64; 13] {
    std::array::from_fn(|i| {
        passes
            .iter()
            .map(|took| took[i])
            .fold(f64::INFINITY, f64::min)
    })
}

/// Runs the workload end to end. A set-up pass at the smallest scale
/// follows every measured pass, so that both sample the whole run.
pub fn run(seed: u64, lengths: &Lengths) -> RunOutput {
    let mut out = RunOutput::default();
    let mut rng = SplitMix64::new(seed);
    let (mut setups, mut passes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while passes.len() < lengths.setups || start.elapsed() < lengths.mid {
        passes.push(pass(SCALE, &mut rng, &mut out.mismatches));
        setups.push(pass(SETUP_SCALE, &mut rng, &mut out.mismatches));
    }
    out.attempted = (SLUGS.len() * (passes.len() + setups.len())) as u64;
    let best_setup = best(&setups);
    let best_pass = best(&passes);

    // One caller is the only load a batch job has: its "mid" figures are
    // the unloaded ones. Latency is per experiment; its percentiles run
    // over the 13 experiments.
    let mut lat = Samples::default();
    for t in best_pass {
        lat.push(t * 1e3);
    }
    let n = SLUGS.len() * passes.len();
    let p = |q| lat.percentile(q).expect("13 experiments");
    out.put("setup_s", best_setup.iter().sum::<f64>(), setups.len());
    out.put("wall_s", best_pass.iter().sum::<f64>(), n);
    out.put("lat_p50_ms.unloaded", p(50.0), n);
    out.put("lat_p90_ms.unloaded", p(90.0), n);
    out.put("lat_p50_ms.mid", p(50.0), n);
    out.put("lat_p99_ms.mid", p(99.0), n);
    out.put("peak_rss_mb", crate::edge::peak_rss_mb(), 1);
    out
}
