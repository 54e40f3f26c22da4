//! Continuous-telemetry integration: the fleet watch riding every guest,
//! SLO burn-rate alerts over the serve-side tick clock, and the
//! `OP_ALERTS` / `OP_DASHBOARD` edge surface — including scrapes racing
//! a pipelined run storm.

use bridge_dbt::MdaStrategy;
use bridge_metrics::{AlertState, SloKind, SloSpec};
use bridge_serve::{
    EdgeClient, EdgeConfig, EdgeServer, EdgeStatus, ExecService, KernelSpec, RunRequest,
    ServeConfig,
};
use bridge_trace::{SiteVerdict, WatchConfig};

fn watch_cfg() -> WatchConfig {
    WatchConfig::default()
        .with_window_cycles(20_000)
        .with_rediverge_traps(4)
        .with_quiet_windows(2)
}

/// Zero re-diverged sites per telemetry window — the rule the
/// phase-change storm violates and the EH hand-off satisfies.
fn rediverge_slo() -> SloSpec {
    SloSpec::new(
        "fleet-rediverge",
        SloKind::DeltaAtMost {
            metric: "serve.watch.rediverged".to_string(),
            max_delta: 0,
        },
    )
}

fn phase_change(strategy: MdaStrategy) -> RunRequest {
    phase_change_sized(strategy, 400)
}

fn phase_change_sized(strategy: MdaStrategy, iters: u32) -> RunRequest {
    let spec = KernelSpec::PhaseChangeSum {
        aligned: iters,
        misaligned: iters,
    };
    RunRequest::new(spec, strategy).with_threshold(50)
}

fn mixed_batch() -> Vec<RunRequest> {
    let spec = KernelSpec::PhaseChangeSum {
        aligned: 60,
        misaligned: 60,
    };
    vec![
        RunRequest::new(spec, MdaStrategy::DynamicProfiling).with_threshold(10),
        RunRequest::new(spec, MdaStrategy::ExceptionHandling).with_threshold(10),
        RunRequest::new(KernelSpec::MemcpyUnaligned { len: 64 }, MdaStrategy::Dpeh)
            .with_threshold(10),
    ]
}

/// The watch is pure observation at the service layer too: a watched
/// batch is byte-identical to a bare one — stats, report text and
/// memory read-back.
#[test]
fn watched_batch_is_byte_identical_to_bare() {
    let reqs = mixed_batch();
    let bare = ExecService::new(ServeConfig::default().with_shards(2)).run_batch(&reqs);
    let watched_svc = ExecService::new(
        ServeConfig::default()
            .with_shards(2)
            .with_watch(watch_cfg()),
    );
    let watched = watched_svc.run_batch(&reqs);
    assert_eq!(bare.merged_stats, watched.merged_stats);
    assert_eq!(bare.reports_text(), watched.reports_text());
    for (b, w) in bare.guests.iter().zip(&watched.guests) {
        assert_eq!(b.memory, w.memory);
        assert!(b.watch.is_none(), "bare service attaches no watch");
        assert!(w.watch.is_some(), "watched service seals a watch per run");
    }
    let fleet = watched_svc.fleet_watch();
    assert!(fleet.site_count() > 0, "fleet watch absorbed the runs");
}

/// The end-to-end alert story: the dynamic-profiling phase change bumps
/// `serve.watch.rediverged`, the next tick fires the SLO; the EH
/// hand-off leaves the counter flat and the tick after resolves it.
#[test]
fn phase_change_fires_then_handoff_resolves_the_slo() {
    let svc = ExecService::new(
        ServeConfig::default()
            .with_watch(watch_cfg())
            .with_slo(rediverge_slo()),
    );
    // Baseline window: nothing re-diverged yet.
    assert!(svc.tick().is_empty(), "no alert on the baseline window");

    let dynamic = svc.run_one(phase_change(MdaStrategy::DynamicProfiling));
    let w = dynamic.watch.as_ref().expect("watch attached");
    assert_eq!(w.rediverged_sites(), 1, "the phase-change site re-diverged");

    let fired = svc.tick();
    assert_eq!(fired.len(), 1, "the rediverge SLO fired");
    assert_eq!(fired[0].slo, "fleet-rediverge");
    assert_eq!(fired[0].state, AlertState::Firing);
    assert_eq!(svc.metrics().counter("serve.alerts.fired").get(), 1);
    assert_eq!(svc.metrics().gauge("serve.alerts.firing").get(), 1);

    // Hand the workload to exception handling: the same site converges
    // and the rediverge counter stays flat. The EH run is long enough
    // (~340k cycles) to close quiet windows after the one patch.
    let eh = svc.run_one(phase_change_sized(MdaStrategy::ExceptionHandling, 4000));
    let hot = w
        .transitions()
        .iter()
        .find(|t| t.verdict == SiteVerdict::Rediverged)
        .expect("dynamic re-diverged")
        .pc;
    assert_eq!(
        eh.watch.as_ref().and_then(|w| w.verdict(hot)),
        Some(SiteVerdict::Converged),
        "EH converged the site that re-diverged under dynamic profiling"
    );

    let resolved = svc.tick();
    assert_eq!(resolved.len(), 1, "the alert resolved after the hand-off");
    assert_eq!(resolved[0].state, AlertState::Resolved);
    assert_eq!(svc.metrics().counter("serve.alerts.resolved").get(), 1);
    assert_eq!(svc.metrics().gauge("serve.alerts.firing").get(), 0);

    // The transition log retains the full story, and the JSON document
    // carries it.
    let doc = svc.alerts_json();
    assert!(doc.starts_with("{\"schema\":\"bridge-alerts/1\""));
    assert!(
        doc.contains("\"state\":\"firing\""),
        "fired transition kept"
    );
    assert!(doc.contains("\"state\":\"resolved\""), "resolve kept");
}

/// `OP_ALERTS` and `OP_DASHBOARD` ride the same socket as runs: the
/// phase change fires the alert and the dashboard names the re-diverged
/// site; the exception-handling hand-off then resolves it, and both
/// alert edges are counted.
#[test]
fn alerts_and_dashboard_over_the_socket() {
    let edge = EdgeServer::start(
        EdgeConfig::default().with_workers(2).with_serve(
            ServeConfig::default()
                .with_watch(watch_cfg())
                .with_slo(rediverge_slo()),
        ),
    )
    .unwrap();
    let mut client = EdgeClient::connect(edge.addr()).unwrap();
    // Baseline tick, then the storm, then the scrape that fires.
    let baseline = client.alerts().unwrap();
    assert!(!baseline.contains("\"state\":\"firing\""), "{baseline}");
    let resp = client
        .run(1, 1, 0, phase_change(MdaStrategy::DynamicProfiling))
        .unwrap();
    assert_eq!(resp.status, EdgeStatus::Ok);
    let alerts = client.alerts().unwrap();
    assert!(alerts.starts_with("{\"schema\":\"bridge-alerts/1\""));
    assert!(
        alerts.contains("\"slo\":\"fleet-rediverge\",\"state\":\"firing\""),
        "fired transition visible over the socket: {alerts}"
    );
    let dash = client.dashboard().unwrap();
    assert!(dash.starts_with("== bridge fleet dashboard =="), "{dash}");
    assert!(dash.contains("slo fleet-rediverge:"), "{dash}");
    assert!(
        dash.contains("rediverged=1"),
        "fleet watch counts the site: {dash}"
    );
    assert!(
        dash.contains("site 0x00400020: rediverged"),
        "the hot site is named: {dash}"
    );
    // The hand-off: exception handling converges the site, the rediverge
    // counter stays flat, and the next scrape resolves the alert.
    let resp = client
        .run(
            2,
            1,
            0,
            phase_change_sized(MdaStrategy::ExceptionHandling, 4000),
        )
        .unwrap();
    assert_eq!(resp.status, EdgeStatus::Ok);
    let alerts = client.alerts().unwrap();
    assert!(
        alerts.contains("\"slo\":\"fleet-rediverge\",\"state\":\"resolved\""),
        "resolved transition visible over the socket: {alerts}"
    );
    let dash = client.dashboard().unwrap();
    assert!(dash.contains("alerts: fired=1 resolved=1"), "{dash}");
    edge.shutdown();
}

/// Scrape-under-load: every observability opcode races a pipelined run
/// storm on its own connection. Every scrape parses, and every run
/// response arrives whole — correct id, `Ok` status, a complete body.
#[test]
fn scrapes_race_a_pipelined_run_storm() {
    const STORM: u64 = 24;
    let edge = EdgeServer::start(
        EdgeConfig::default()
            .with_workers(2)
            .with_queue_depth(STORM as usize)
            .with_serve(
                ServeConfig::default()
                    .with_watch(watch_cfg())
                    .with_slo(rediverge_slo()),
            ),
    )
    .unwrap();
    let addr = edge.addr();
    let storm = std::thread::spawn(move || {
        let mut client = EdgeClient::connect(addr).unwrap();
        let req = RunRequest::new(
            KernelSpec::PhaseChangeSum {
                aligned: 60,
                misaligned: 60,
            },
            MdaStrategy::DynamicProfiling,
        )
        .with_threshold(10);
        for id in 1..=STORM {
            client.submit_run(id, (id % 4) as u32, 0, req).unwrap();
        }
        let mut seen = vec![false; STORM as usize + 1];
        for _ in 0..STORM {
            let resp = client.read_response().unwrap();
            assert_eq!(resp.status, EdgeStatus::Ok, "id {} shed", resp.id);
            let out = resp.outcome.expect("run body intact");
            assert!(out.cycles > 0 && !out.report_text.is_empty());
            assert!(!seen[resp.id as usize], "duplicate response");
            seen[resp.id as usize] = true;
        }
        assert!(seen[1..].iter().all(|&s| s), "every run answered");
    });
    let mut scraper = EdgeClient::connect(addr).unwrap();
    for _ in 0..12 {
        let prom = scraper.metrics_prometheus().unwrap();
        assert!(prom.contains("# TYPE"), "prometheus scrape parsed");
        let health = scraper.health().unwrap();
        assert!(health.starts_with("{\"schema\":\"bridge-health/1\""));
        let alerts = scraper.alerts().unwrap();
        assert!(alerts.starts_with("{\"schema\":\"bridge-alerts/1\""));
        let dash = scraper.dashboard().unwrap();
        assert!(dash.starts_with("== bridge fleet dashboard =="));
    }
    storm.join().unwrap();
    edge.shutdown();
}

/// Health snapshots and telemetry ticks draw from one monotonic sample
/// sequence: two scrapers racing both paths never observe a duplicate.
#[test]
fn racing_scrapers_share_one_sample_sequence() {
    fn seqs_in(doc: &str) -> Vec<u64> {
        doc.match_indices("\"seq\":")
            .map(|(i, tag)| {
                doc[i + tag.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .expect("seq is numeric")
            })
            .collect()
    }
    let svc = std::sync::Arc::new(ExecService::new(
        ServeConfig::default().with_slo(rediverge_slo()),
    ));
    svc.run_one(phase_change(MdaStrategy::ExceptionHandling));
    let mut all: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let svc = std::sync::Arc::clone(&svc);
                s.spawn(move || {
                    let mut seqs = Vec::new();
                    for _ in 0..16 {
                        seqs.extend(seqs_in(&svc.health_report().join("\n")));
                        seqs.extend(seqs_in(&svc.alerts_json()));
                    }
                    seqs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    all.sort_unstable();
    let n = all.len();
    all.dedup();
    assert_eq!(all.len(), n, "duplicate sample sequence observed");
}
