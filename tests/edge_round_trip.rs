//! Socket round trips through a real `bridge-edge/1` listener.
//!
//! Every reply must equal the in-process service's result for the same
//! request, and a lone caller must not wait on TCP: each frame leaves in
//! one write on a `TCP_NODELAY` socket, so a request's round trip is its
//! run time plus loopback latency. A frame split into a length write and
//! a payload write is held by Nagle until the client's delayed ACK
//! (about 40 ms on Linux) and fails the latency bound below.

use digitalbridge::serve::{
    EdgeClient, EdgeConfig, EdgeServer, EdgeStatus, ExecService, KernelSpec, RunRequest,
    ServeConfig,
};
use digitalbridge::MdaStrategy;
use std::time::{Duration, Instant};

const CALLS: u64 = 20;

/// Far above a warm run plus loopback (about 1 ms), far below one
/// delayed-ACK stall.
const MEDIAN_RTT_BOUND: Duration = Duration::from_millis(20);

#[test]
fn sequential_runs_match_in_process_without_a_delayed_ack_stall() {
    let req = RunRequest::new(
        KernelSpec::MemcpyUnaligned { len: 64 },
        MdaStrategy::ExceptionHandling,
    )
    .with_threshold(10);
    let local = ExecService::new(ServeConfig::default()).run_one(req);
    let edge = EdgeServer::start(EdgeConfig::default()).unwrap();
    let mut client = EdgeClient::connect(edge.addr()).unwrap();
    let mut rtts = Vec::new();
    for id in 1..=CALLS {
        let start = Instant::now();
        let resp = client.run(id, 1, 0, req).unwrap();
        rtts.push(start.elapsed());
        assert_eq!((resp.id, resp.status), (id, EdgeStatus::Ok));
        let out = resp.outcome.expect("run body");
        assert_eq!(out.cycles, local.report.stats.cycles);
        assert_eq!(out.report_text, local.report.to_string());
        assert_eq!(out.memory, local.memory);
    }
    edge.shutdown();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < MEDIAN_RTT_BOUND,
        "median round trip {median:?} over {CALLS} calls (bound {MEDIAN_RTT_BOUND:?}): {rtts:?}"
    );
}
