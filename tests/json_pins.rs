//! Byte pins for every persisted or wire JSON schema, and a round trip of
//! hostile strings through every emitter that takes one.
//!
//! Each pin case builds one document from fixed inputs and compares it
//! with the exact bytes the encoders produced when the pin was recorded.
//! Sweep caches, journals, telemetry and anatomy dumps written by earlier
//! builds must keep loading, and the benchmark's recorded `to_json_full`
//! hashes must keep matching, so any change to separators, escaping or the
//! number rule shows up here first, one named case at a time.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_bench::harness::{BenchParams, BenchReport, WorkloadResult};
use noc_bench::sweep::{Journal, JournalHeader};
use noc_obs::serve::{
    serve_accepted_line, serve_done_line, serve_error_line, serve_preset_request_line,
    serve_result_line, serve_status_line, serve_status_request_line, serve_sweep_request_line,
};
use noc_obs::{
    sweep_manifest_json, window_jsonl, AnatomyCollector, AnatomyDump, AnatomyHeader, HopRecord,
    JsonValue, Profiler, RouterCounters, SweepManifestPoint, TelemetryDump, TelemetryHeader,
    WindowSnapshot,
};
use noc_sim::{Engine, Run, SimConfig, SimResult, TelemetryOptions, TopologyKind};

fn seeded_run() -> SimResult {
    let cfg = SimConfig {
        injection_rate: 0.1,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    Run::new(&cfg, 100, 200)
        .telemetry(TelemetryOptions::recording())
        .go()
        .unwrap()
        .result
}

fn profiler() -> Profiler {
    Profiler {
        phase_nanos: [1_500, 250_000, 3_000_000, 12_345, 7],
        phase_events: [10, 20, 30, 40, 50],
        wall_nanos: 4_000_000,
        cycles: 300,
    }
}

fn telemetry_header() -> TelemetryHeader {
    TelemetryHeader {
        digest: "0123456789abcdef0123456789abcdef".to_string(),
        label: "mesh 2x1x2 @ 0.3".to_string(),
        window: 100,
        match_every: 1,
        routers: 2,
        warmup: 100,
        measure: 200,
    }
}

fn window() -> WindowSnapshot {
    let row = |k: u64| RouterCounters {
        out_flits: k,
        occupancy: 3,
        busy_vcs: 2,
        active: 40 + k,
        credit_stall: 5,
        vca_stall: 6,
        sa_stall: 7,
        empty: 42,
        match_granted: 9,
        match_max: 11,
    };
    WindowSnapshot {
        window: 2,
        cycle: 200,
        injected: 17,
        ejected: 15,
        in_flight: 4,
        routers: vec![row(1), row(2)],
    }
}

fn hop(packet_id: u64, router: u32, arrive: u64, depart: u64, stages: [u64; 4]) -> HopRecord {
    HopRecord {
        packet_id,
        router,
        in_port: 1,
        in_vc: 0,
        arrive,
        depart,
        vca: stages[0],
        sa: stages[1],
        credit: stages[2],
        active: stages[3],
    }
}

fn anatomy() -> (AnatomyCollector, AnatomyHeader) {
    let mut c = AnatomyCollector::new(4, 2);
    c.ingest_hop(hop(1, 0, 3, 5, [1, 1, 0, 1]));
    c.ingest_hop(hop(1, 1, 7, 8, [0, 0, 0, 2]));
    c.eject_head(1, 0, 2, 9);
    c.eject_tail(1, 0, 12, true);
    c.ingest_hop(hop(0xfeed_beef_0000_0002, 3, 11, 12, [0, 0, 0, 2]));
    c.eject_head(0xfeed_beef_0000_0002, 10, 10, 13);
    c.eject_tail(0xfeed_beef_0000_0002, 1, 14, true);
    let header = AnatomyHeader {
        digest: "a".repeat(32),
        label: "mesh 8x8 @ 0.25".to_string(),
        routers: 64,
        warmup: 10,
        measure: 100,
        capacity: 4,
        top_k: 2,
    };
    (c, header)
}

/// A journal named `name` holding one entry labelled `label`, as text.
fn journal_text(tag: &str, name: &str, label: &str) -> String {
    let dir = std::env::temp_dir().join(format!("noc-json-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("pins.journal");
    let header = JournalHeader {
        name: name.to_string(),
        spec_digest: "5e5e".to_string(),
        points: 2,
    };
    let (journal, _) = Journal::open(&path, &header).unwrap();
    journal.append("d1g3st", label, "computed", 12).unwrap();
    drop(journal);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

fn manifest() -> String {
    let points = [
        SweepManifestPoint {
            label: "mesh @ 0.1".to_string(),
            digest: "d1".to_string(),
            source: "computed",
            wall_ms: 5,
            telemetry: Some("d1.telemetry.jsonl".to_string()),
            anatomy: Some("d1.anatomy.jsonl".to_string()),
        },
        SweepManifestPoint {
            label: "fbfly @ 0.2".to_string(),
            digest: "d2".to_string(),
            source: "cache",
            wall_ms: 0,
            telemetry: None,
            anatomy: None,
        },
    ];
    sweep_manifest_json("smoke", "noc-sweep/v1", "5e5e", 1, 1, 0, 7, &points)
}

fn bench_report(result: SimResult) -> String {
    let mut idle = profiler();
    idle.wall_nanos = 0;
    BenchReport {
        schema: "noc-bench/v1".to_string(),
        created_unix: 1_754_500_000,
        params: BenchParams {
            quick: true,
            warmup: 100,
            measure: 200,
            reps: 3,
            engine: Engine::Sequential,
        },
        workloads: vec![
            WorkloadResult {
                name: "mesh8x8_c1_r0.1".to_string(),
                result: result.clone(),
                cycles: 300,
                wall_nanos: 4_000_000,
                cycles_per_sec: 75_000.0,
                profile: profiler(),
            },
            WorkloadResult {
                name: "idle".to_string(),
                result,
                cycles: 0,
                wall_nanos: 0,
                cycles_per_sec: f64::NAN,
                profile: idle,
            },
        ],
    }
    .to_json()
}

/// Every pinned document, by case name.
fn cases() -> Vec<(&'static str, String)> {
    let run = seeded_run();
    let mut idle = profiler();
    idle.wall_nanos = 0;
    let (col, header) = anatomy();
    let empty = AnatomyCollector::new(4, 2);
    vec![
        ("sim_full", run.to_json_full()),
        ("profile", profiler().to_json()),
        ("profile_idle", idle.to_json()),
        ("telemetry_header", telemetry_header().to_json()),
        ("telemetry_window", window_jsonl(&window())),
        ("anatomy_dump", col.to_jsonl(&header)),
        ("anatomy_summary", col.summary().to_json()),
        ("anatomy_empty_summary", empty.summary().to_json()),
        (
            "serve_sweep_request",
            serve_sweep_request_line("c1", "{\n \"name\": \"s\"\n}\n", Some("seq")),
        ),
        (
            "serve_sweep_request_default_engine",
            serve_sweep_request_line("c1", "{\"name\":\"s\"}", None),
        ),
        (
            "serve_preset_request",
            serve_preset_request_line("c2", "smoke", Some("par")),
        ),
        ("serve_status_request", serve_status_request_line("c3")),
        ("serve_accepted", serve_accepted_line("c1", 4, 3)),
        (
            "serve_result",
            serve_result_line("c1", "d1", "mesh @ 0.1", "computed", 12, "{\"x\":1}"),
        ),
        ("serve_done", serve_done_line("c1", 3, 4, 2, 0, 1, 40)),
        ("serve_status", serve_status_line("c3", 5, 6, 7, 1, 9)),
        ("serve_error", serve_error_line("c1", "request: bad spec")),
        ("journal", journal_text("pins", "smoke", "mesh 8x8 @ 0.1")),
        ("manifest", manifest()),
        ("bench_report", bench_report(run)),
    ]
}

/// The recorded bytes, by case name.
const PINNED: &[(&str, &str)] = &[
    (
        "sim_full",
        r#"{"offered":0.1,"avg_latency":17.166666666666668,"request_latency":17.278947368421054,"reply_latency":17.0531914893617,"latency_std_dev":6.608109317597253,"latency_p99":35,"throughput":0.087734375,"stable":true,"ci95":null,"seeds":1,"warmup_detected":null,"telemetry":{"schema":"noc-telemetry/v1","window":100,"windows":3,"max_stalled_windows":0,"efficiency":[null,1,1],"flits":[3310,3002,4139],"in_flight":[86,65,89]},"percentiles":{"p50":17,"p90":26,"p95":29,"p99":35,"p999":38,"max":38},"router_stats":{"nonspec_grants":7092,"spec_requests":3822,"spec_grants":3398,"spec_masked":351,"spec_invalid":18,"vca_requests":3822,"vca_grants":3526},"max_router_throughput":0.94,"min_router_throughput":0.10333333333333333,"routers":[{"router":0,"throughput":0.21,"worst_port":0,"worst_port_stall":0},{"router":1,"throughput":0.3933333333333333,"worst_port":0,"worst_port_stall":0.005},{"router":2,"throughput":0.5433333333333333,"worst_port":0,"worst_port_stall":0.0033333333333333335},{"router":3,"throughput":0.4766666666666667,"worst_port":0,"worst_port_stall":0.005},{"router":4,"throughput":0.5866666666666667,"worst_port":1,"worst_port_stall":0.006666666666666667},{"router":5,"throughput":0.5466666666666666,"worst_port":0,"worst_port_stall":0.01},{"router":6,"throughput":0.45666666666666667,"worst_port":2,"worst_port_stall":0.008333333333333333},{"router":7,"throughput":0.23,"worst_port":3,"worst_port_stall":0.0016666666666666668},{"router":8,"throughput":0.42333333333333334,"worst_port":0,"worst_port_stall":0},{"router":9,"throughput":0.5833333333333334,"worst_port":2,"worst_port_stall":0.01},{"router":10,"throughput":0.6933333333333334,"worst_port":0,"worst_port_stall":0.0016666666666666668},{"router":11,"throughput":0.6433333333333333,"worst_port":1,"worst_port_stall":0.005},{"router":12,"throughput":0.7366666666666667,"worst_port":0,"worst_port_stall":0.013333333333333334},{"router":13,"throughput":0.6266666666666667,"worst_port":0,"worst_port_stall":0.008333333333333333},{"router":14,"throughput":0.58,"worst_port":1,"worst_port_stall":0.013333333333333334},{"router":15,"throughput":0.30333333333333334,"worst_port":4,"worst_port_stall":0.0016666666666666668},{"router":16,"throughput":0.46,"worst_port":0,"worst_port_stall":0},{"router":17,"throughput":0.6966666666666667,"worst_port":2,"worst_port_stall":0.02},{"router":18,"throughput":0.7766666666666666,"worst_port":0,"worst_port_stall":0.005},{"router":19,"throughput":0.81,"worst_port":1,"worst_port_stall":0.011666666666666667},{"router":20,"throughput":0.94,"worst_port":1,"worst_port_stall":0.03},{"router":21,"throughput":0.7133333333333334,"worst_port":2,"worst_port_stall":0.008333333333333333},{"router":22,"throughput":0.6866666666666666,"worst_port":0,"worst_port_stall":0.008333333333333333},{"router":23,"throughput":0.4033333333333333,"worst_port":0,"worst_port_stall":0.006666666666666667},{"router":24,"throughput":0.5733333333333334,"worst_port":1,"worst_port_stall":0.006666666666666667},{"router":25,"throughput":0.6966666666666667,"worst_port":0,"worst_port_stall":0.0033333333333333335},{"router":26,"throughput":0.6966666666666667,"worst_port":1,"worst_port_stall":0.006666666666666667},{"router":27,"throughput":0.7466666666666667,"worst_port":2,"worst_port_stall":0.01},{"router":28,"throughput":0.82,"worst_port":0,"worst_port_stall":0.013333333333333334},{"router":29,"throughput":0.8433333333333334,"worst_port":0,"worst_port_stall":0.008333333333333333},{"router":30,"throughput":0.7166666666666667,"worst_port":0,"worst_port_stall":0.005},{"router":31,"throughput":0.5166666666666667,"worst_port":2,"worst_port_stall":0.0033333333333333335},{"router":32,"throughput":0.47333333333333333,"worst_port":3,"worst_port_stall":0.01},{"router":33,"throughput":0.6133333333333333,"worst_port":3,"worst_port_stall":0.006666666666666667},{"router":34,"throughput":0.54,"worst_port":1,"worst_port_stall":0.0033333333333333335},{"router":35,"throughput":0.7466666666666667,"worst_port":0,"worst_port_stall":0.01},{"router":36,"throughput":0.7033333333333334,"worst_port":1,"worst_port_stall":0.006666666666666667},{"router":37,"throughput":0.7566666666666667,"worst_port":3,"worst_port_stall":0.0033333333333333335},{"router":38,"throughput":0.7066666666666667,"worst_port":0,"worst_port_stall":0.0033333333333333335},{"router":39,"throughput":0.51,"worst_port":3,"worst_port_stall":0.01},{"router":40,"throughput":0.37666666666666665,"worst_port":1,"worst_port_stall":0.0033333333333333335},{"router":41,"throughput":0.57,"worst_port":1,"worst_port_stall":0.0016666666666666668},{"router":42,"throughput":0.56,"worst_port":2,"worst_port_stall":0.005},{"router":43,"throughput":0.6966666666666667,"worst_port":1,"worst_port_stall":0.008333333333333333},{"router":44,"throughput":0.6766666666666666,"worst_port":1,"worst_port_stall":0.008333333333333333},{"router":45,"throughput":0.63,"worst_port":3,"worst_port_stall":0.006666666666666667},{"router":46,"throughput":0.6033333333333334,"worst_port":3,"worst_port_stall":0.01},{"router":47,"throughput":0.4266666666666667,"worst_port":0,"worst_port_stall":0},{"router":48,"throughput":0.35,"worst_port":1,"worst_port_stall":0.008333333333333333},{"router":49,"throughput":0.47,"worst_port":0,"worst_port_stall":0.006666666666666667},{"router":50,"throughput":0.47,"worst_port":0,"worst_port_stall":0},{"router":51,"throughput":0.5433333333333333,"worst_port":0,"worst_port_stall":0.0016666666666666668},{"router":52,"throughput":0.5733333333333334,"worst_port":0,"worst_port_stall":0.0033333333333333335},{"router":53,"throughput":0.5733333333333334,"worst_port":3,"worst_port_stall":0.013333333333333334},{"router":54,"throughput":0.54,"worst_port":0,"worst_port_stall":0},{"router":55,"throughput":0.36333333333333334,"worst_port":0,"worst_port_stall":0},{"router":56,"throughput":0.27,"worst_port":0,"worst_port_stall":0},{"router":57,"throughput":0.3,"worst_port":2,"worst_port_stall":0.0016666666666666668},{"router":58,"throughput":0.30333333333333334,"worst_port":0,"worst_port_stall":0.0033333333333333335},{"router":59,"throughput":0.30333333333333334,"worst_port":0,"worst_port_stall":0},{"router":60,"throughput":0.33666666666666667,"worst_port":0,"worst_port_stall":0},{"router":61,"throughput":0.33666666666666667,"worst_port":0,"worst_port_stall":0.01},{"router":62,"throughput":0.28,"worst_port":0,"worst_port_stall":0},{"router":63,"throughput":0.10333333333333333,"worst_port":0,"worst_port_stall":0}],"hist":{"min":5,"max":38,"buckets":[[5,10],[6,4],[7,8],[8,4],[9,29],[10,4],[11,28],[12,5],[13,31],[14,11],[15,39],[16,8],[17,33],[18,6],[19,29],[20,9],[21,27],[22,11],[23,20],[24,3],[25,19],[26,8],[27,9],[28,4],[29,5],[30,3],[31,2],[32,1],[33,2],[34,1],[35,2],[36,2],[38,1]]}}"#,
    ),
    (
        "profile",
        r#"{"cycles":300,"wall_nanos":4000000,"cycles_per_sec":75000,"other_share":0.184037,"phases":{"route":{"nanos":1500,"share":0.000375,"events":10},"vc_alloc":{"nanos":250000,"share":0.0625,"events":20},"sw_alloc":{"nanos":3000000,"share":0.75,"events":30},"traversal":{"nanos":12345,"share":0.00308625,"events":40},"credit":{"nanos":7,"share":0.00000175,"events":50}}}"#,
    ),
    (
        "profile_idle",
        r#"{"cycles":300,"wall_nanos":0,"cycles_per_sec":null,"other_share":1,"phases":{"route":{"nanos":1500,"share":0,"events":10},"vc_alloc":{"nanos":250000,"share":0,"events":20},"sw_alloc":{"nanos":3000000,"share":0,"events":30},"traversal":{"nanos":12345,"share":0,"events":40},"credit":{"nanos":7,"share":0,"events":50}}}"#,
    ),
    (
        "telemetry_header",
        r#"{"schema":"noc-telemetry/v1","digest":"0123456789abcdef0123456789abcdef","label":"mesh 2x1x2 @ 0.3","window":100,"match_every":1,"routers":2,"warmup":100,"measure":200}"#,
    ),
    (
        "telemetry_window",
        r#"{"window":2,"cycle":200,"injected":17,"ejected":15,"in_flight":4,"routers":[[1,3,2,41,5,6,7,42,9,11],[2,3,2,42,5,6,7,42,9,11]]}"#,
    ),
    (
        "anatomy_dump",
        r#"{"schema":"noc-anatomy/v1","digest":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa","label":"mesh 8x8 @ 0.25","routers":64,"warmup":10,"measure":100,"capacity":4,"top_k":2}
{"packets":2,"requests":1,"replies":1,"dropped":0,"sums":[2,1,1,0,5,3,4],"hists":[{"min":0,"max":2,"buckets":[[0,1],[2,1]]},{"min":0,"max":1,"buckets":[[0,1],[1,1]]},{"min":0,"max":1,"buckets":[[0,1],[1,1]]},{"min":0,"max":0,"buckets":[[0,2]]},{"min":2,"max":3,"buckets":[[2,1],[3,1]]},{"min":1,"max":2,"buckets":[[1,1],[2,1]]},{"min":1,"max":3,"buckets":[[1,1],[3,1]]},{"min":4,"max":12,"buckets":[[4,1],[12,1]]}]}
{"pkt":["0000000000000001",0,0,12,2,2,1,1,0,3,2,3]}
{"pkt":["feedbeef00000002",1,10,14,1,0,0,0,0,2,1,1]}
{"slow":["0000000000000001",0,0,12,2,2,1,1,0,3,2,3],"hops":[[0,1,0,3,5,1,1,0,1],[1,1,0,7,8,0,0,0,2]]}
{"slow":["feedbeef00000002",1,10,14,1,0,0,0,0,2,1,1],"hops":[[3,1,0,11,12,0,0,0,2]]}
"#,
    ),
    (
        "anatomy_summary",
        r#"{"schema":"noc-anatomy/v1","packets":2,"requests":1,"replies":1,"dropped":0,"stages":{"src_queue":{"sum":2,"mean":1,"p50":0,"p99":2,"max":2},"vca":{"sum":1,"mean":0.5,"p50":0,"p99":1,"max":1},"sa":{"sum":1,"mean":0.5,"p50":0,"p99":1,"max":1},"credit":{"sum":0,"mean":0,"p50":0,"p99":0,"max":0},"active":{"sum":5,"mean":2.5,"p50":2,"p99":3,"max":3},"wire":{"sum":3,"mean":1.5,"p50":1,"p99":2,"max":2},"serialization":{"sum":4,"mean":2,"p50":1,"p99":3,"max":3},"total":{"sum":16,"mean":8,"p50":4,"p99":12,"max":12}}}"#,
    ),
    (
        "anatomy_empty_summary",
        r#"{"schema":"noc-anatomy/v1","packets":0,"requests":0,"replies":0,"dropped":0,"stages":{"src_queue":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0},"vca":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0},"sa":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0},"credit":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0},"active":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0},"wire":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0},"serialization":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0},"total":{"sum":0,"mean":null,"p50":null,"p99":null,"max":0}}}"#,
    ),
    (
        "serve_sweep_request",
        r#"{"schema":"noc-serve/v1","type":"sweep","id":"c1","engine":"seq","spec":{  "name": "s" }}"#,
    ),
    (
        "serve_sweep_request_default_engine",
        r#"{"schema":"noc-serve/v1","type":"sweep","id":"c1","spec":{"name":"s"}}"#,
    ),
    (
        "serve_preset_request",
        r#"{"schema":"noc-serve/v1","type":"preset","id":"c2","engine":"par","preset":"smoke"}"#,
    ),
    (
        "serve_status_request",
        r#"{"schema":"noc-serve/v1","type":"status","id":"c3"}"#,
    ),
    (
        "serve_accepted",
        r#"{"schema":"noc-serve/v1","type":"accepted","id":"c1","total":4,"unique":3}"#,
    ),
    (
        "serve_result",
        r#"{"schema":"noc-serve/v1","type":"result","id":"c1","digest":"d1","label":"mesh @ 0.1","source":"computed","wall_ms":12,"result":{"x":1}}"#,
    ),
    (
        "serve_done",
        r#"{"schema":"noc-serve/v1","type":"done","id":"c1","unique":3,"total":4,"scheduled":2,"cache_hits":0,"coalesced":1,"wall_ms":40}"#,
    ),
    (
        "serve_status",
        r#"{"schema":"noc-serve/v1","type":"status","id":"c3","computed":5,"cache_hits":6,"coalesced":7,"inflight":1,"clients":9}"#,
    ),
    (
        "serve_error",
        r#"{"schema":"noc-serve/v1","type":"error","id":"c1","message":"request: bad spec"}"#,
    ),
    (
        "journal",
        r#"{"schema":"noc-sweep-journal/v1","name":"smoke","spec_digest":"5e5e","points":2}
{"digest":"d1g3st","label":"mesh 8x8 @ 0.1","source":"computed","wall_ms":12}
"#,
    ),
    (
        "manifest",
        r#"{"schema":"noc-sweep-manifest/v1","name":"smoke","sweep_schema":"noc-sweep/v1","spec_digest":"5e5e","points":2,"computed":1,"cache_hits":1,"journal_skips":0,"wall_ms":7,"results":[{"label":"mesh @ 0.1","digest":"d1","source":"computed","wall_ms":5,"telemetry":"d1.telemetry.jsonl","anatomy":"d1.anatomy.jsonl"},{"label":"fbfly @ 0.2","digest":"d2","source":"cache","wall_ms":0}]}"#,
    ),
    (
        "bench_report",
        r#"{"schema":"noc-bench/v1","created_unix":1754500000,"quick":true,"warmup":100,"measure":200,"reps":3,"engine":"seq","workloads":[{"name":"mesh8x8_c1_r0.1","offered":0.1,"avg_latency":17.166666666666668,"latency_p99":35,"throughput":0.087734375,"cycles":300,"wall_nanos":4000000,"cycles_per_sec":75000,"profile":{"cycles":300,"wall_nanos":4000000,"cycles_per_sec":75000,"other_share":0.184037,"phases":{"route":{"nanos":1500,"share":0.000375,"events":10},"vc_alloc":{"nanos":250000,"share":0.0625,"events":20},"sw_alloc":{"nanos":3000000,"share":0.75,"events":30},"traversal":{"nanos":12345,"share":0.00308625,"events":40},"credit":{"nanos":7,"share":0.00000175,"events":50}}}},{"name":"idle","offered":0.1,"avg_latency":17.166666666666668,"latency_p99":35,"throughput":0.087734375,"cycles":0,"wall_nanos":0,"cycles_per_sec":null,"profile":{"cycles":300,"wall_nanos":0,"cycles_per_sec":null,"other_share":1,"phases":{"route":{"nanos":1500,"share":0,"events":10},"vc_alloc":{"nanos":250000,"share":0,"events":20},"sw_alloc":{"nanos":3000000,"share":0,"events":30},"traversal":{"nanos":12345,"share":0,"events":40},"credit":{"nanos":7,"share":0,"events":50}}}}]}"#,
    ),
];

#[test]
fn every_schema_is_byte_identical_to_its_pin() {
    let cases = cases();
    assert_eq!(cases.len(), PINNED.len(), "every case has exactly one pin");
    for ((name, got), (pin_name, want)) in cases.iter().zip(PINNED) {
        assert_eq!(
            name, pin_name,
            "cases and pins are listed in the same order"
        );
        assert_eq!(got, want, "{name}: encoder output drifted from its pin");
    }
}

/// Every character class the string escaper treats specially: a quote, a
/// backslash, the named control characters, an unnamed one, and non-ASCII.
const HOSTILE: &str = "a\"b\\c\nd\te\rf\u{1}g\u{1f}é";

fn str_member<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string member {key:?}"))
}

fn parsed(doc: &str) -> JsonValue {
    JsonValue::parse(doc).unwrap_or_else(|e| panic!("emitted invalid JSON ({e}): {doc}"))
}

#[test]
fn hostile_strings_round_trip_through_every_string_emitter() {
    let point = SweepManifestPoint {
        label: HOSTILE.to_string(),
        digest: HOSTILE.to_string(),
        source: "computed",
        wall_ms: 1,
        telemetry: Some(HOSTILE.to_string()),
        anatomy: Some(HOSTILE.to_string()),
    };
    let manifest = parsed(&sweep_manifest_json(
        HOSTILE,
        HOSTILE,
        HOSTILE,
        1,
        0,
        0,
        1,
        &[point],
    ));
    for key in ["name", "sweep_schema", "spec_digest"] {
        assert_eq!(str_member(&manifest, key), HOSTILE, "manifest {key}");
    }
    let row = &manifest
        .get("results")
        .and_then(JsonValue::as_array)
        .unwrap()[0];
    for key in ["label", "digest", "telemetry", "anatomy"] {
        assert_eq!(str_member(row, key), HOSTILE, "manifest row {key}");
    }

    let serve = [
        (serve_error_line(HOSTILE, HOSTILE), vec!["id", "message"]),
        (
            serve_result_line(HOSTILE, HOSTILE, HOSTILE, HOSTILE, 1, "{}"),
            vec!["id", "digest", "label", "source"],
        ),
        (
            serve_preset_request_line(HOSTILE, HOSTILE, Some(HOSTILE)),
            vec!["id", "preset", "engine"],
        ),
        (
            serve_sweep_request_line(HOSTILE, "{}", Some(HOSTILE)),
            vec!["id", "engine"],
        ),
        (serve_status_request_line(HOSTILE), vec!["id"]),
        (serve_accepted_line(HOSTILE, 1, 1), vec!["id"]),
        (serve_done_line(HOSTILE, 1, 1, 1, 0, 0, 1), vec!["id"]),
        (serve_status_line(HOSTILE, 0, 0, 0, 0, 0), vec!["id"]),
    ];
    for (line, keys) in serve {
        assert!(!line.contains('\n'), "wire lines stay one line: {line}");
        let v = parsed(&line);
        for key in keys {
            assert_eq!(str_member(&v, key), HOSTILE, "serve {key} in {line}");
        }
    }

    let journal = journal_text("hostile", HOSTILE, HOSTILE);
    let mut lines = journal.lines();
    let header = parsed(lines.next().unwrap());
    assert_eq!(str_member(&header, "name"), HOSTILE, "journal name");
    let entry = parsed(lines.next().unwrap());
    assert_eq!(str_member(&entry, "label"), HOSTILE, "journal label");

    let mut telemetry = telemetry_header();
    telemetry.label = HOSTILE.to_string();
    let dump = format!("{}\n{}\n", telemetry.to_json(), window_jsonl(&window()));
    let dump = TelemetryDump::parse(&dump).unwrap();
    assert_eq!(dump.header.label, HOSTILE, "telemetry label");

    let (col, mut anatomy_header) = anatomy();
    anatomy_header.label = HOSTILE.to_string();
    let dump = AnatomyDump::parse(&col.to_jsonl(&anatomy_header)).unwrap();
    assert_eq!(dump.header.label, HOSTILE, "anatomy label");
}
