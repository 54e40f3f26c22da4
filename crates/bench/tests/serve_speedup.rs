//! The multi-guest service's throughput contract: on the standard batch,
//! the service at 4 shards beats the naive per-request sequential path by
//! `SERVE_SPEEDUP_FLOOR` while producing byte-identical results.
//!
//! The win is amortization — each kernel's training profile is built once
//! and shared instead of re-derived per request — so the 2x bar holds on
//! any host, whether or not the shards overlap in time. `measure_serve`
//! asserts result equality before any timing is taken; this test
//! re-checks only the ratio.

use bridge_bench::serve::{measure_serve, throughput_batch, SERVE_SPEEDUP_FLOOR};
use bridge_workloads::spec::Scale;

#[test]
fn service_at_four_shards_beats_sequential() {
    let batch = throughput_batch(Scale::test());
    let m = measure_serve(4, &batch, 2);
    let floor = SERVE_SPEEDUP_FLOOR;
    assert!(
        m.speedup >= floor,
        "service at 4 shards must be >= {floor:.2}x over sequential \
         (got {:.2}x: sequential {:.4}s, service {:.4}s)",
        m.speedup,
        m.secs_sequential,
        m.secs_service
    );
}
