//! Multi-guest execution service throughput benchmark.
//!
//! Usage: `cargo run --release --bin serve_bench [-- --scale test|quick|paper]`
//!
//! Replays the standard throughput batch (mixed strategies, dominated by
//! static-profiling guests sharing two kernel specs) on the naive
//! per-request sequential path and on the service at 1, 2 and 4 shards,
//! printing the wall-clock table and the merged hot-site view. Asserts:
//!
//! * the service's merged `Stats`, per-guest reports and memory
//!   read-backs are byte-identical to the sequential baseline at every
//!   shard count (checked inside `measure_serve` before timing), and
//! * 4 shards beat the sequential baseline by `SERVE_SPEEDUP_FLOOR`
//!   (≥2x): the amortization win of sharing each kernel's training
//!   profile instead of re-deriving it per request. Host parallelism is
//!   printed beside it, not asserted on.
//!
//! After the traced merge pass, the service's metrics registry is dumped
//! twice: as the single-line `bridge-metrics/1` JSON document and as a
//! Prometheus-style text exposition — the scrape formats an external
//! collector would consume.

use bridge_bench::serve::{
    available_parallelism, measure_serve, measure_warm_start, throughput_batch, warm_start_batch,
    SERVE_SPEEDUP_FLOOR,
};
use bridge_dbt::MdaStrategy;
use bridge_serve::{ExecService, RunRequest, ServeConfig};

const REPS: u32 = 3;

fn main() {
    let scale = bridge_bench::scale_from_args();
    let batch = throughput_batch(scale);
    println!(
        "Multi-guest execution service (scale: {} outer iterations)\n",
        scale.outer_iters
    );
    println!(
        "batch: {} requests over {} kernel specs ({} static-profiling)\n",
        batch.len(),
        bridge_bench::serve::distinct_specs(&batch),
        batch
            .iter()
            .filter(|r| r.strategy == MdaStrategy::StaticProfiling)
            .count(),
    );

    println!(
        "  {:<10} {:>14} {:>14} {:>9}",
        "shards", "sequential", "service", "speedup"
    );
    let mut at4 = None;
    for shards in [1usize, 2, 4] {
        let m = measure_serve(shards, &batch, REPS);
        println!(
            "  {:<10} {:>12.4}s {:>12.4}s {:>8.2}x",
            m.shards, m.secs_sequential, m.secs_service, m.speedup
        );
        if shards == 4 {
            at4 = Some(m);
        }
    }
    let at4 = at4.expect("4-shard row measured");
    println!(
        "\n  merged: {} cycles, {} traps (identical on every path)",
        at4.merged_cycles, at4.merged_traps
    );
    let floor = SERVE_SPEEDUP_FLOOR;
    println!(
        "  host parallelism: {} (speedup floor {floor:.2}x)",
        available_parallelism()
    );
    assert!(
        at4.speedup >= floor,
        "service at 4 shards must be >= {floor:.2}x over sequential (got {:.2}x)",
        at4.speedup
    );

    // The merged multi-shard site table, eyeballed via hot-site top-N:
    // re-run the batch with tracing on and collapse across guests.
    let traced: Vec<RunRequest> = batch.iter().map(|r| r.with_trace(true)).collect();
    let svc = ExecService::new(ServeConfig::default().with_shards(4));
    let report = svc.run_batch(&traced);
    let table = report.merged_sites();
    println!(
        "\nmerged site table: {} (guest, pc) rows across {} guests",
        table.len(),
        report.guests.len()
    );
    println!(
        "  {:<10} {:>10} {:>8} {:>8} {:>12}",
        "hot pc", "cycles", "traps", "patches", "mdas"
    );
    for (pc, s) in table.hot_sites(5) {
        println!(
            "  {pc:#010x} {:>10} {:>8} {:>8} {:>12}",
            s.cycles_attributed, s.traps, s.patches, s.mdas
        );
    }

    // The registry that batch fed, in both scrape formats. The simulated-
    // domain instruments (request counts, exec-cycle histogram, engine
    // counters) are deterministic; the wall-clock wait and exec
    // histograms are scheduling-dependent by design.
    let metrics = svc.metrics();
    println!("\nservice metrics ({} instruments):", metrics.len());
    println!("{}", metrics.to_json());
    println!("\nPrometheus exposition:");
    print!("{}", metrics.to_prometheus());
    assert!(
        metrics
            .to_json()
            .starts_with("{\"schema\":\"bridge-metrics/1\""),
        "metrics document must carry the bridge-metrics/1 schema"
    );

    // Cold vs warm AOT start: run the all-strategy batch against an
    // empty artifact store (cold: translate everything, persist images),
    // then again on a fresh service over the populated store (warm:
    // restore and translate ≈nothing). `measure_warm_start` asserts the
    // warm results are byte-identical to cold before returning.
    let dir = std::env::temp_dir().join(format!("serve-bench-images-{}", std::process::id()));
    let w = measure_warm_start(&dir, &warm_start_batch(scale));
    println!(
        "\nAOT warm start: {} requests over {} strategies",
        w.requests, w.strategies
    );
    println!(
        "  first-batch translations: cold {} -> warm {} ({:.1}x reduction)",
        w.cold_blocks_translated, w.warm_blocks_translated, w.translation_reduction
    );
    println!(
        "  images: {} saved cold, {} restored warm ({} blocks preloaded)",
        w.images_saved, w.images_loaded, w.blocks_preloaded
    );
    println!(
        "  warm requests on preloaded contexts: {} ({} image-served installs)",
        w.image_hits, w.image_block_hits
    );
    println!("\nwarm-start Prometheus exposition:");
    print!("{}", w.warm_prometheus);
    assert!(
        w.translation_reduction >= 5.0,
        "warm start must cut first-batch translations >= 5x (got {:.1}x: \
         cold {} vs warm {})",
        w.translation_reduction,
        w.cold_blocks_translated,
        w.warm_blocks_translated
    );

    println!("\nserve_bench OK");
}
