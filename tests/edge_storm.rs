//! A pipelined request storm through real sockets into an overloaded edge.
//!
//! Four connections each pipeline 25 run requests into two workers behind
//! a 16-deep queue, and every eighth request carries a 1 ms deadline, so
//! every shed path can fire. Which requests run and which are shed depends
//! on scheduling; the contracts below do not:
//!
//! - every request is answered exactly once, with `Ok` or a typed shed;
//! - every `Ok` outcome equals the in-process service's answer;
//! - shed work never reaches an engine, and the edge's counters balance.
//!
//! The storm finishing at all shows that a client which pipelines its
//! whole window before reading cannot wedge the edge. No assertion
//! depends on timing.

use digitalbridge::serve::edge::RunOutcome;
use digitalbridge::serve::{
    EdgeClient, EdgeConfig, EdgeServer, EdgeStatus, ExecService, KernelSpec, RunRequest,
    ServeConfig,
};
use digitalbridge::MdaStrategy;

const CONNECTIONS: usize = 4;
const PER_CONNECTION: usize = 25;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 16;

fn specs() -> [RunRequest; 3] {
    [
        RunRequest::new(
            KernelSpec::MemcpyUnaligned { len: 64 },
            MdaStrategy::ExceptionHandling,
        ),
        RunRequest::new(
            KernelSpec::PhaseChangeSum {
                aligned: 40,
                misaligned: 40,
            },
            MdaStrategy::Dpeh,
        ),
        RunRequest::new(
            KernelSpec::PackedStructSum { count: 40 },
            MdaStrategy::Direct,
        ),
    ]
    .map(|r| r.with_threshold(10))
}

#[test]
fn overloaded_storm_answers_every_request_once_and_balances() {
    // Connection `c` sends `specs[(c + i) % 3]` as its `i`-th request.
    let specs = specs();
    let reference = ExecService::new(ServeConfig::default());
    let expected: Vec<RunOutcome> = specs
        .iter()
        .map(|&req| {
            let g = reference.run_one(req);
            RunOutcome {
                cycles: g.report.stats.cycles,
                report_text: g.report.to_string(),
                memory: g.memory,
            }
        })
        .collect();

    let edge = EdgeServer::start(
        EdgeConfig::default()
            .with_workers(WORKERS)
            .with_queue_depth(QUEUE_DEPTH)
            .with_per_tenant_inflight(QUEUE_DEPTH),
    )
    .unwrap();
    let addr = edge.addr();
    let (ok, shed) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (specs, expected) = (&specs, &expected);
                s.spawn(move || {
                    let mut client = EdgeClient::connect(addr).unwrap();
                    for i in 0..PER_CONNECTION {
                        let deadline_ms = if i % 8 == 7 { 1 } else { 0 };
                        client
                            .submit_run(i as u64, c as u32, deadline_ms, specs[(c + i) % 3])
                            .unwrap();
                    }
                    let mut answered = [false; PER_CONNECTION];
                    let (mut ok, mut shed) = (0u64, 0u64);
                    for _ in 0..PER_CONNECTION {
                        let resp = client.read_response().unwrap();
                        let i = resp.id as usize;
                        assert!(!answered[i], "connection {c}: id {i} answered twice");
                        answered[i] = true;
                        match resp.status {
                            EdgeStatus::Ok => {
                                let out = resp.outcome.expect("Ok carries the run");
                                let want = &expected[(c + i) % 3];
                                assert_eq!(&out, want, "connection {c}: id {i} diverged");
                                ok += 1;
                            }
                            EdgeStatus::ShedQueueFull
                            | EdgeStatus::ShedQuota
                            | EdgeStatus::ShedDeadline
                            | EdgeStatus::ShedDeadlineQueued => shed += 1,
                            other => panic!("connection {c}: id {i} got {other:?}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(o, s), (ok, shed)| (o + ok, s + shed))
    });
    let submitted = (CONNECTIONS * PER_CONNECTION) as u64;
    assert_eq!(ok + shed, submitted, "Ok + typed sheds == submitted");

    let m = edge.service().metrics();
    let counter = |name: &str| m.counter(name).get();
    assert_eq!(counter("serve.edge.ok"), ok, "edge Ok counter");
    assert_eq!(
        counter("serve.requests"),
        counter("serve.edge.ok"),
        "shed requests never reach an engine"
    );
    let sheds: u64 = [
        "serve.edge.shed_queue_full",
        "serve.edge.shed_quota",
        "serve.edge.shed_deadline",
        "serve.edge.shed_deadline_queued",
    ]
    .into_iter()
    .map(counter)
    .sum();
    assert_eq!(
        counter("serve.edge.ok") + sheds,
        submitted,
        "edge counters balance"
    );
    edge.shutdown();
}
