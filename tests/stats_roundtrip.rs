//! Round-trip tests: `SimResult::to_json` must be strict JSON that the
//! in-repo reader parses back losslessly, with NaN mapped to `null`.

use noc_obs::JsonValue;
use noc_sim::{run_sim_engine, Engine, Run, SimConfig, TopologyKind};

fn mesh(rate: f64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    }
}

#[test]
fn single_run_summary_round_trips_with_nan_as_null() {
    let r = run_sim_engine(&mesh(0.1), 500, 1_500, Engine::Sequential);
    let v = JsonValue::parse(&r.to_json()).expect("to_json must be strict JSON");
    // Plain runs have no CI estimate: NaN must serialize as null and read
    // back as NaN through num_or_nan.
    assert!(r.ci95.is_nan());
    assert!(v.get("ci95").expect("ci95 key").is_null());
    assert!(v.num_or_nan("ci95").is_nan());
    assert!(v.get("warmup_detected").expect("key").is_null());
    assert_eq!(v.num_or_nan("seeds"), 1.0);
    // Finite metrics survive exactly.
    assert_eq!(v.num_or_nan("avg_latency"), r.avg_latency);
    assert_eq!(v.num_or_nan("throughput"), r.throughput);
    assert_eq!(v.num_or_nan("latency_p99"), r.latency_p99);
    assert_eq!(v.get("stable").and_then(JsonValue::as_bool), Some(r.stable));
    // The percentile table is part of the schema now.
    let pct = v.get("percentiles").expect("percentiles object");
    assert_eq!(pct.num_or_nan("p50"), r.hist.percentile(0.5));
    assert_eq!(pct.num_or_nan("p99"), r.hist.percentile(0.99));
    assert_eq!(pct.num_or_nan("max"), r.hist.percentile(1.0));
}

#[test]
fn replicated_run_summary_round_trips_ci_and_warmup() {
    let r = Run::auto(&mesh(0.1), 2_000)
        .seeds(3)
        .go()
        .expect("no telemetry, no trip")
        .result;
    let v = JsonValue::parse(&r.to_json()).expect("strict JSON");
    assert_eq!(v.num_or_nan("seeds"), 3.0);
    assert!(r.ci95.is_finite());
    assert_eq!(v.num_or_nan("ci95"), r.ci95);
    assert_eq!(
        v.num_or_nan("warmup_detected"),
        r.warmup_detected.unwrap() as f64
    );
}

#[test]
fn empty_run_serializes_every_nan_as_null() {
    // Zero injection: nothing is delivered, every latency metric is NaN.
    let r = run_sim_engine(&mesh(0.0), 100, 200, Engine::Sequential);
    let json = r.to_json();
    assert!(!json.contains("NaN"), "raw NaN leaked into JSON: {json}");
    let v = JsonValue::parse(&json).expect("strict JSON");
    for key in ["avg_latency", "request_latency", "latency_p99", "ci95"] {
        assert!(v.num_or_nan(key).is_nan(), "{key} should read back NaN");
    }
}
