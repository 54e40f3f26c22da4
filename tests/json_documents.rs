//! Whole-document pins for every JSON (and Prometheus) document the
//! system emits. Each document is rendered from a fixed input and
//! compared byte for byte against the text the writers produced before
//! they shared one JSON writer, so a change to any writer that moves a
//! single byte — a comma, a `null`, an escape, a key's position — fails
//! here with both documents printed.

use digitalbridge::metrics::{
    AlertRules, CounterHealth, GaugeHealth, HealthSnapshot, HistogramHealth, Registry, SloKind,
    SloSpec, TimeSeries,
};
use digitalbridge::trace::{
    jsonl, MergedSiteTable, SpanConfig, SpanKind, SpanRecorder, StreamingJsonl, TraceConfig,
    TraceEvent, Tracer,
};

/// Every event variant once, two trap sites, a site known only from the
/// profile (both first-occurrence cycles `null`), and a `u64::MAX` count
/// to exercise the widest integer.
fn record_all(t: &mut Tracer) {
    use TraceEvent::*;
    let events = [
        (0, PhaseTransition { guest_pc: 0x1000 }),
        (5, BlockTranslated { guest_pc: 0x1000 }),
        (
            10,
            Trap {
                site_pc: 0x1004,
                slot: 1,
                cycles: 1000,
            },
        ),
        (
            12,
            OsFixup {
                site_pc: 0x1004,
                cycles: 250,
            },
        ),
        (
            20,
            EhPatch {
                site_pc: 0x1004,
                slot: 1,
                cycles: 334,
            },
        ),
        (
            30,
            Trap {
                site_pc: 0x1010,
                slot: 0,
                cycles: 1000,
            },
        ),
        (
            40,
            Rearrangement {
                block_pc: 0x1000,
                site_pc: 0x1010,
                cycles: 77,
            },
        ),
        (45, Retranslation { block_pc: 0x1000 }),
        (50, Reversion { site_pc: 0x1010 }),
        (150, MonitorExit { next_pc: 0x1020 }),
        (151, IbtcMiss { next_pc: 0x1030 }),
        (
            160,
            InCacheHits {
                ibtc: u64::MAX,
                ras: 0,
            },
        ),
        (
            170,
            ChainBackpatch {
                block_pc: 0x1000,
                target_pc: 0x1020,
            },
        ),
        (180, CacheInvalidate { block_pc: 0x1000 }),
        (190, CacheFlush { blocks: 3 }),
        (200, CacheEvict { block_pc: 0x1020 }),
        (210, ImageLoad { blocks: 12 }),
        (220, ImageHit { block_pc: 0x1040 }),
        (230, ImageReject { code: 4 }),
        (240, EdgeAdmit { tenant: 7, id: 99 }),
        (
            250,
            EdgeShed {
                tenant: 7,
                id: 100,
                code: 2,
            },
        ),
        (
            260,
            EdgeDeadline {
                tenant: 8,
                id: 101,
                waited_us: 1500,
            },
        ),
    ];
    for (cycle, event) in events {
        t.record(cycle, event);
    }
    t.progress(120, 400);
    t.progress(260, 90);
    t.merge_profile_site(0x1004, 12, 7);
    t.merge_profile_site(0x1050, 3, 0);
}

fn tracer(ring: usize) -> Tracer {
    Tracer::new(
        &TraceConfig::default()
            .with_bucket_cycles(100)
            .with_ring_capacity(ring),
    )
}

fn trace_doc() -> String {
    let mut t = tracer(64);
    record_all(&mut t);
    jsonl::to_string(&t)
}

/// The streaming capture, with a ring small enough that most events
/// reach the sink by eviction before the final drain.
fn stream_doc() -> String {
    let mut t = tracer(4);
    assert!(t.set_sink(Box::new(StreamingJsonl::new(Vec::new()))));
    record_all(&mut t);
    t.finish_sink()
        .expect("sink attached")
        .expect("Vec never fails");
    String::from_utf8(t.take_sink_output().expect("in-memory sink")).expect("UTF-8")
}

fn merged_doc() -> String {
    let mut a = tracer(64);
    record_all(&mut a);
    let mut b = tracer(64);
    b.record(
        10,
        TraceEvent::Trap {
            site_pc: 0x1004,
            slot: 0,
            cycles: 9,
        },
    );
    let mut table = MergedSiteTable::new();
    table.add_guest(0, &a);
    table.add_guest((1 << 32) | 1, &b);
    table.to_jsonl()
}

/// Two span trees: an engine run with nested work, and a serving-layer
/// request whose root has no guest PC.
fn spans() -> SpanRecorder {
    let mut r = SpanRecorder::new(&SpanConfig::default());
    r.set_scope("eh");
    let run = r.start(0, SpanKind::Run, Some(0x1000));
    let t = r.start(100, SpanKind::Translate, Some(0x40));
    r.end(t, 250);
    let e = r.start(250, SpanKind::Execute, Some(0x40));
    let f = r.start(400, SpanKind::TrapFixup, Some(0x44));
    r.end(f, 700);
    r.end(e, 900);
    r.complete(SpanKind::ImageRestore, Some(0x48), 900, 900);
    r.end(run, 1000);
    let req = r.start(1000, SpanKind::Request, None);
    r.complete(SpanKind::QueueWait, None, 1000, 1010);
    r.complete(SpanKind::Dispatch, Some(0xdead_beef), 1010, 1400);
    r.end(req, 1500);
    r
}

fn registry() -> Registry {
    let r = Registry::new();
    r.counter("dbt.traps").add(41);
    r.counter("serve.requests").inc();
    r.counter("zero-count");
    let g = r.gauge("edge.queue_depth");
    g.set(9);
    g.set(-3);
    r.gauge("idle");
    let h = r.histogram("exec.cycles");
    for v in [0, 1, 5, 5, 1000, u64::from(u32::MAX)] {
        h.observe(v);
    }
    r.histogram("empty.hist");
    r.describe("dbt.traps", "Misalignment traps \\ delivered\nper run");
    r
}

fn health_doc() -> String {
    HealthSnapshot {
        context: "phase_change_sum/dpeh/50".into(),
        seq: 7,
        window_us: 250_000,
        counters: vec![
            CounterHealth {
                name: "cache.insertions".into(),
                total: 3,
                delta: 3,
                rate_per_sec: 12,
                reset: true,
            },
            CounterHealth {
                name: "serve.requests".into(),
                total: 18,
                delta: 2,
                rate_per_sec: 8,
                reset: false,
            },
        ],
        gauges: vec![GaugeHealth {
            name: "edge.queue_depth".into(),
            value: -1,
            high_watermark: 6,
        }],
        histograms: vec![HistogramHealth {
            name: "exec.us".into(),
            count: 20,
            delta: 2,
            p50: 127,
            p90: 511,
            p99: 1023,
        }],
    }
    .to_json_line()
}

/// One rule fires and then resolves; a second never fires. The first
/// rule's name carries a quote and a control character.
fn alerts_doc() -> String {
    let r = Registry::new();
    let redi = r.counter("watch.rediverged");
    r.counter("edge.requests").add(10);
    let mut ts = TimeSeries::new(4);
    let mut rules = AlertRules::new();
    rules.add(
        SloSpec::new(
            "redi\"verge\u{1}",
            SloKind::DeltaAtMost {
                metric: "watch.rediverged".into(),
                max_delta: 0,
            },
        )
        .with_lookbacks(1, 2),
    );
    rules.add(SloSpec::new(
        "exec_p99",
        SloKind::QuantileBelow {
            metric: "exec.us".into(),
            q: 0.99,
            bound: 1_000_000,
        },
    ));
    redi.inc();
    ts.tick(&r, 1000);
    assert_eq!(rules.evaluate(&ts).len(), 1, "fires");
    ts.tick(&r, 1000);
    assert_eq!(rules.evaluate(&ts).len(), 1, "resolves");
    rules.to_json(&ts)
}

/// Fails with both documents printed whole, so a drift is easy to read.
fn pin(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "document drifted\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn trace_jsonl_is_pinned() {
    pin(&trace_doc(), TRACE);
}

#[test]
fn stream_capture_is_pinned() {
    pin(&stream_doc(), STREAM);
}

#[test]
fn merged_site_table_is_pinned() {
    pin(&merged_doc(), MERGED);
}

#[test]
fn span_jsonl_is_pinned() {
    pin(&spans().to_jsonl(), SPAN_JSONL);
}

#[test]
fn chrome_export_is_pinned() {
    pin(&spans().to_chrome_json(), CHROME);
}

#[test]
fn folded_stacks_are_pinned() {
    pin(&spans().folded(), FOLDED);
}

#[test]
fn metrics_document_is_pinned() {
    pin(&registry().to_json(), METRICS);
}

#[test]
fn prometheus_exposition_is_pinned() {
    pin(&registry().to_prometheus(), PROMETHEUS);
}

#[test]
fn health_line_is_pinned() {
    pin(&health_doc(), HEALTH);
}

#[test]
fn alerts_document_is_pinned() {
    pin(&alerts_doc(), ALERTS);
}

const TRACE: &str = r##"{"type":"meta","schema":"bridge-trace/1","bucket_cycles":100,"buckets":3,"truncated":false,"folded_traps":0,"sites":3,"ring_events":22,"dropped":0}
{"type":"site","pc":4100,"traps":1,"os_fixups":1,"patches":1,"rearrangements":0,"reversions":0,"first_trap_cycle":10,"patch_cycle":20,"cycles_attributed":1584,"execs":12,"mdas":7}
{"type":"site","pc":4112,"traps":1,"os_fixups":0,"patches":0,"rearrangements":1,"reversions":1,"first_trap_cycle":30,"patch_cycle":40,"cycles_attributed":1077,"execs":0,"mdas":0}
{"type":"site","pc":4176,"traps":0,"os_fixups":0,"patches":0,"rearrangements":0,"reversions":0,"first_trap_cycle":null,"patch_cycle":null,"cycles_attributed":0,"execs":3,"mdas":0}
{"type":"bucket","index":0,"traps":2,"monitor_exits":0,"patches":2,"guest_insns":0}
{"type":"bucket","index":1,"traps":0,"monitor_exits":1,"patches":0,"guest_insns":400}
{"type":"bucket","index":2,"traps":0,"monitor_exits":0,"patches":0,"guest_insns":90}
{"type":"event","cycle":0,"kind":"phase","pc":4096}
{"type":"event","cycle":5,"kind":"translate","pc":4096}
{"type":"event","cycle":10,"kind":"trap","pc":4100,"slot":1,"cost":1000}
{"type":"event","cycle":12,"kind":"os_fixup","pc":4100,"cost":250}
{"type":"event","cycle":20,"kind":"patch","pc":4100,"slot":1,"cost":334}
{"type":"event","cycle":30,"kind":"trap","pc":4112,"slot":0,"cost":1000}
{"type":"event","cycle":40,"kind":"rearrange","pc":4112,"block":4096,"cost":77}
{"type":"event","cycle":45,"kind":"retranslate","pc":4096}
{"type":"event","cycle":50,"kind":"reversion","pc":4112}
{"type":"event","cycle":150,"kind":"monitor_exit","pc":4128}
{"type":"event","cycle":151,"kind":"ibtc_miss","pc":4144}
{"type":"event","cycle":160,"kind":"in_cache_hits","pc":null,"ibtc":18446744073709551615,"ras":0}
{"type":"event","cycle":170,"kind":"chain","pc":4096,"target":4128}
{"type":"event","cycle":180,"kind":"invalidate","pc":4096}
{"type":"event","cycle":190,"kind":"flush","pc":null,"blocks":3}
{"type":"event","cycle":200,"kind":"evict","pc":4128}
{"type":"event","cycle":210,"kind":"image_load","pc":null,"blocks":12}
{"type":"event","cycle":220,"kind":"image_hit","pc":4160}
{"type":"event","cycle":230,"kind":"image_reject","pc":null,"code":4}
{"type":"event","cycle":240,"kind":"edge_admit","pc":null,"tenant":7,"id":99}
{"type":"event","cycle":250,"kind":"edge_shed","pc":null,"tenant":7,"id":100,"code":2}
{"type":"event","cycle":260,"kind":"edge_deadline","pc":null,"tenant":8,"id":101,"waited_us":1500}
"##;

const STREAM: &str = r##"{"type":"meta","schema":"bridge-trace-stream/1"}
{"type":"event","cycle":0,"kind":"phase","pc":4096}
{"type":"event","cycle":5,"kind":"translate","pc":4096}
{"type":"event","cycle":10,"kind":"trap","pc":4100,"slot":1,"cost":1000}
{"type":"event","cycle":12,"kind":"os_fixup","pc":4100,"cost":250}
{"type":"event","cycle":20,"kind":"patch","pc":4100,"slot":1,"cost":334}
{"type":"event","cycle":30,"kind":"trap","pc":4112,"slot":0,"cost":1000}
{"type":"event","cycle":40,"kind":"rearrange","pc":4112,"block":4096,"cost":77}
{"type":"event","cycle":45,"kind":"retranslate","pc":4096}
{"type":"event","cycle":50,"kind":"reversion","pc":4112}
{"type":"event","cycle":150,"kind":"monitor_exit","pc":4128}
{"type":"event","cycle":151,"kind":"ibtc_miss","pc":4144}
{"type":"event","cycle":160,"kind":"in_cache_hits","pc":null,"ibtc":18446744073709551615,"ras":0}
{"type":"event","cycle":170,"kind":"chain","pc":4096,"target":4128}
{"type":"event","cycle":180,"kind":"invalidate","pc":4096}
{"type":"event","cycle":190,"kind":"flush","pc":null,"blocks":3}
{"type":"event","cycle":200,"kind":"evict","pc":4128}
{"type":"event","cycle":210,"kind":"image_load","pc":null,"blocks":12}
{"type":"event","cycle":220,"kind":"image_hit","pc":4160}
{"type":"event","cycle":230,"kind":"image_reject","pc":null,"code":4}
{"type":"event","cycle":240,"kind":"edge_admit","pc":null,"tenant":7,"id":99}
{"type":"event","cycle":250,"kind":"edge_shed","pc":null,"tenant":7,"id":100,"code":2}
{"type":"event","cycle":260,"kind":"edge_deadline","pc":null,"tenant":8,"id":101,"waited_us":1500}
{"type":"site","pc":4100,"traps":1,"os_fixups":1,"patches":1,"rearrangements":0,"reversions":0,"first_trap_cycle":10,"patch_cycle":20,"cycles_attributed":1584,"execs":12,"mdas":7}
{"type":"site","pc":4112,"traps":1,"os_fixups":0,"patches":0,"rearrangements":1,"reversions":1,"first_trap_cycle":30,"patch_cycle":40,"cycles_attributed":1077,"execs":0,"mdas":0}
{"type":"site","pc":4176,"traps":0,"os_fixups":0,"patches":0,"rearrangements":0,"reversions":0,"first_trap_cycle":null,"patch_cycle":null,"cycles_attributed":0,"execs":3,"mdas":0}
{"type":"bucket","index":0,"traps":2,"monitor_exits":0,"patches":2,"guest_insns":0}
{"type":"bucket","index":1,"traps":0,"monitor_exits":1,"patches":0,"guest_insns":400}
{"type":"bucket","index":2,"traps":0,"monitor_exits":0,"patches":0,"guest_insns":90}
{"type":"summary","schema":"bridge-trace-stream/1","events":22,"sites":3,"buckets":3,"bucket_cycles":100,"truncated":false,"folded_traps":0,"dropped":0}
"##;

const MERGED: &str = r##"{"type":"meta","schema":"bridge-trace-merged/1","rows":4,"guests":2}
{"type":"merged_site","guest":0,"pc":4100,"traps":1,"os_fixups":1,"patches":1,"rearrangements":0,"reversions":0,"first_trap_cycle":10,"patch_cycle":20,"cycles_attributed":1584,"execs":12,"mdas":7}
{"type":"merged_site","guest":0,"pc":4112,"traps":1,"os_fixups":0,"patches":0,"rearrangements":1,"reversions":1,"first_trap_cycle":30,"patch_cycle":40,"cycles_attributed":1077,"execs":0,"mdas":0}
{"type":"merged_site","guest":0,"pc":4176,"traps":0,"os_fixups":0,"patches":0,"rearrangements":0,"reversions":0,"first_trap_cycle":null,"patch_cycle":null,"cycles_attributed":0,"execs":3,"mdas":0}
{"type":"merged_site","guest":4294967297,"pc":4100,"traps":1,"os_fixups":0,"patches":0,"rearrangements":0,"reversions":0,"first_trap_cycle":10,"patch_cycle":null,"cycles_attributed":9,"execs":0,"mdas":0}
"##;

const SPAN_JSONL: &str = r##"{"type":"span_meta","schema":"bridge-trace-span/1","scope":"eh","spans":8,"dropped":0,"open":0}
{"type":"span","id":2,"parent":1,"kind":"translate","pc":64,"start_cycle":100,"end_cycle":250,"wall_start_us":null,"wall_end_us":null}
{"type":"span","id":4,"parent":3,"kind":"trap_fixup","pc":68,"start_cycle":400,"end_cycle":700,"wall_start_us":null,"wall_end_us":null}
{"type":"span","id":3,"parent":1,"kind":"execute","pc":64,"start_cycle":250,"end_cycle":900,"wall_start_us":null,"wall_end_us":null}
{"type":"span","id":5,"parent":1,"kind":"image_restore","pc":72,"start_cycle":900,"end_cycle":900,"wall_start_us":null,"wall_end_us":null}
{"type":"span","id":1,"parent":null,"kind":"run","pc":4096,"start_cycle":0,"end_cycle":1000,"wall_start_us":null,"wall_end_us":null}
{"type":"span","id":7,"parent":6,"kind":"queue_wait","pc":null,"start_cycle":1000,"end_cycle":1010,"wall_start_us":null,"wall_end_us":null}
{"type":"span","id":8,"parent":6,"kind":"dispatch","pc":3735928559,"start_cycle":1010,"end_cycle":1400,"wall_start_us":null,"wall_end_us":null}
{"type":"span","id":6,"parent":null,"kind":"request","pc":null,"start_cycle":1000,"end_cycle":1500,"wall_start_us":null,"wall_end_us":null}
"##;

const CHROME: &str = r##"{"displayTimeUnit":"ms","traceEvents":[{"name":"translate@0x40","cat":"translate","ph":"X","ts":100,"dur":150,"pid":1,"tid":1,"args":{"id":2,"parent":1,"pc":"0x40"}},{"name":"trap_fixup@0x44","cat":"trap_fixup","ph":"X","ts":400,"dur":300,"pid":1,"tid":1,"args":{"id":4,"parent":3,"pc":"0x44"}},{"name":"execute@0x40","cat":"execute","ph":"X","ts":250,"dur":650,"pid":1,"tid":1,"args":{"id":3,"parent":1,"pc":"0x40"}},{"name":"image_restore@0x48","cat":"image_restore","ph":"X","ts":900,"dur":0,"pid":1,"tid":1,"args":{"id":5,"parent":1,"pc":"0x48"}},{"name":"run@0x1000","cat":"run","ph":"X","ts":0,"dur":1000,"pid":1,"tid":1,"args":{"id":1,"parent":null,"pc":"0x1000"}},{"name":"queue_wait","cat":"queue_wait","ph":"X","ts":1000,"dur":10,"pid":1,"tid":6,"args":{"id":7,"parent":6,"pc":null}},{"name":"dispatch@0xdeadbeef","cat":"dispatch","ph":"X","ts":1010,"dur":390,"pid":1,"tid":6,"args":{"id":8,"parent":6,"pc":"0xdeadbeef"}},{"name":"request","cat":"request","ph":"X","ts":1000,"dur":500,"pid":1,"tid":6,"args":{"id":6,"parent":null,"pc":null}}]}"##;

const FOLDED: &str = r##"eh;request 100
eh;request;dispatch@0xdeadbeef 390
eh;request;queue_wait 10
eh;run@0x1000 200
eh;run@0x1000;execute@0x40 350
eh;run@0x1000;execute@0x40;trap_fixup@0x44 300
eh;run@0x1000;translate@0x40 150
"##;

const METRICS: &str = r##"{"schema":"bridge-metrics/1","counters":{"dbt.traps":41,"serve.requests":1,"zero-count":0},"gauges":{"edge.queue_depth":{"value":-3,"high_watermark":9},"idle":{"value":0,"high_watermark":0}},"histograms":{"empty.hist":{"count":0,"sum":0,"mean":0,"p50":0,"p90":0,"p99":0},"exec.cycles":{"count":6,"sum":4294968306,"mean":715828051,"p50":7,"p90":4294967295,"p99":4294967295}}}"##;

const PROMETHEUS: &str = r##"# HELP dbt_traps Misalignment traps \\ delivered\nper run
# TYPE dbt_traps counter
dbt_traps 41
# HELP serve_requests serve.requests
# TYPE serve_requests counter
serve_requests 1
# HELP zero_count zero-count
# TYPE zero_count counter
zero_count 0
# HELP edge_queue_depth edge.queue_depth
# TYPE edge_queue_depth gauge
edge_queue_depth -3
# HELP edge_queue_depth_high_watermark edge.queue_depth (high watermark)
# TYPE edge_queue_depth_high_watermark gauge
edge_queue_depth_high_watermark 9
# HELP idle idle
# TYPE idle gauge
idle 0
# HELP idle_high_watermark idle (high watermark)
# TYPE idle_high_watermark gauge
idle_high_watermark 0
# HELP empty_hist empty.hist
# TYPE empty_hist histogram
empty_hist_bucket{le="+Inf"} 0
empty_hist_sum 0
empty_hist_count 0
# HELP exec_cycles exec.cycles
# TYPE exec_cycles histogram
exec_cycles_bucket{le="0"} 1
exec_cycles_bucket{le="1"} 2
exec_cycles_bucket{le="7"} 4
exec_cycles_bucket{le="1023"} 5
exec_cycles_bucket{le="4294967295"} 6
exec_cycles_bucket{le="+Inf"} 6
exec_cycles_sum 4294968306
exec_cycles_count 6
"##;

const HEALTH: &str = r##"{"schema":"bridge-health/1","context":"phase_change_sum/dpeh/50","seq":7,"window_us":250000,"counters":{"cache.insertions":{"total":3,"delta":3,"rate_per_sec":12,"reset":true},"serve.requests":{"total":18,"delta":2,"rate_per_sec":8}},"gauges":{"edge.queue_depth":{"value":-1,"high_watermark":6}},"histograms":{"exec.us":{"count":20,"delta":2,"p50":127,"p90":511,"p99":1023}}}"##;

const ALERTS: &str = r##"{"schema":"bridge-alerts/1","seq":2,"windows":2,"ticks":2,"slos":[{"name":"redi\"verge\u0001","state":"ok","fast_burn_permille":0,"slow_burn_permille":500,"objective":"watch.rediverged delta <= 0 per window"},{"name":"exec_p99","state":"ok","fast_burn_permille":0,"slow_burn_permille":0,"objective":"windowed p99 exec.us < 1000000"}],"transitions":[{"slo":"redi\"verge\u0001","state":"firing","seq":1,"fast_burn_permille":1000,"slow_burn_permille":1000},{"slo":"redi\"verge\u0001","state":"resolved","seq":2,"fast_burn_permille":0,"slow_burn_permille":500}]}"##;
