//! Acceptance tests for the observability layer (`noc-obs`): CLI export
//! formats, stall-attribution invariants, and trace-event consistency.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_obs::{validate_json, CountingSink, FlitEventKind};
use noc_sim::{run_sim_engine, Engine, Run, SimConfig, TopologyKind};
use std::process::Command;

fn noc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_noc"))
        .args(args)
        .output()
        .expect("failed to spawn noc binary")
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-obs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cli_exports_are_machine_readable() {
    let dir = scratch_dir("cli");
    let csv_path = dir.join("metrics.csv");
    let trace_path = dir.join("trace.json");
    let out = noc(&[
        "sim",
        "--topology",
        "mesh",
        "--vcs",
        "1",
        "--rate",
        "0.1",
        "--warmup",
        "200",
        "--measure",
        "600",
        "--sample-interval",
        "50",
        "--metrics",
        csv_path.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout: one valid JSON object including the per-router breakdown.
    let text = String::from_utf8_lossy(&out.stdout);
    validate_json(text.trim()).unwrap_or_else(|e| panic!("summary not JSON: {e}\n{text}"));
    for key in [
        "\"avg_latency\"",
        "\"router_stats\"",
        "\"max_router_throughput\"",
        "\"min_router_throughput\"",
        "\"routers\":[",
        "\"worst_port_stall\"",
    ] {
        assert!(text.contains(key), "summary missing {key}: {text}");
    }

    // CSV: exact header, uniform field counts, both record types present.
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "record,cycle,router,port,vc,name,value"
    );
    for l in lines {
        assert_eq!(l.split(',').count(), 7, "ragged CSV row: {l}");
    }
    assert!(csv.contains("\ncounter,"));
    assert!(csv.contains("\ngauge,"));
    assert!(csv.contains("sa_stall"));
    assert!(csv.contains("utilization"));

    // Chrome trace: one well-formed JSON object with slices and spans.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    validate_json(&trace).unwrap_or_else(|e| panic!("trace not JSON: {e}"));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"ph\":\"b\""));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_metrics_json_extension_selects_json_lines() {
    let dir = scratch_dir("jsonl");
    let path = dir.join("metrics.jsonl");
    let out = noc(&[
        "sim",
        "--topology",
        "mesh",
        "--vcs",
        "1",
        "--rate",
        "0.05",
        "--warmup",
        "100",
        "--measure",
        "300",
        "--metrics",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&path).unwrap();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(line.contains("\"record\":"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stall_fractions_partition_every_cycle() {
    let cfg = SimConfig {
        injection_rate: 0.25,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    let total = 1_500u64;
    let run = Run::new(&cfg, 500, total - 500)
        .go()
        .expect("no telemetry, no trip");
    assert!(!run.router_obs.is_empty());
    for (r, obs) in run.router_obs.iter().enumerate() {
        for (idx, s) in obs.vc.iter().enumerate() {
            // Exactly one bucket per cycle: the counters partition the run.
            assert_eq!(
                s.cycles(),
                total,
                "router {r} vc slot {idx}: buckets don't partition the run"
            );
            let (c, v, a, e) = s.fractions();
            let sum = c + v + a + e;
            assert!(
                (0.0..=1.0 + 1e-9).contains(&sum),
                "router {r} vc slot {idx}: stall fractions sum to {sum}"
            );
            assert!(s.stall_fraction() <= 1.0 + 1e-9);
        }
        let (_, worst) = obs.worst_port_stall();
        assert!((0.0..=1.0).contains(&worst));
    }
    // The per-router breakdown mirrors the raw counters.
    assert_eq!(run.result.routers.len(), run.router_obs.len());
    for b in &run.result.routers {
        assert!(b.throughput.is_finite() && b.throughput >= 0.0);
        assert!((0.0..=1.0).contains(&b.worst_port_stall));
    }
}

#[test]
fn trace_events_are_consistent_with_run_statistics() {
    let cfg = SimConfig {
        injection_rate: 0.15,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    };
    let mut sink = CountingSink::default();
    let run = Run::new(&cfg, 300, 900)
        .sink(&mut sink)
        .go()
        .expect("no telemetry, no trip");
    let s = &sink;
    assert!(s.count(FlitEventKind::Inject) > 0);
    // Conservation: a flit must be injected before it can eject or move.
    assert!(s.count(FlitEventKind::Eject) <= s.count(FlitEventKind::Inject));
    assert!(s.count(FlitEventKind::SwitchTraversal) >= s.count(FlitEventKind::Eject));
    // Grant events mirror the router counters exactly.
    let rs = run.result.router_stats;
    assert_eq!(s.count(FlitEventKind::SaGrant), rs.nonspec_grants);
    assert_eq!(s.count(FlitEventKind::SaSpecGrant), rs.spec_grants);
    assert_eq!(s.count(FlitEventKind::SaSpecMasked), rs.spec_masked);
    assert_eq!(s.count(FlitEventKind::SaSpecInvalid), rs.spec_invalid);
    assert_eq!(s.count(FlitEventKind::SaSpecRequest), rs.spec_requests);
    assert_eq!(s.count(FlitEventKind::VcaRequest), rs.vca_requests);
    assert_eq!(s.count(FlitEventKind::VcaGrant), rs.vca_grants);
}

#[test]
fn traced_and_untraced_runs_agree_exactly() {
    // The observability layer must not perturb simulation behaviour: a
    // traced run and a plain run of the same configuration are identical.
    let cfg = SimConfig {
        injection_rate: 0.2,
        ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
    };
    let plain = run_sim_engine(&cfg, 400, 800, Engine::Sequential);
    let mut sink = CountingSink::default();
    let traced = Run::new(&cfg, 400, 800)
        .sink(&mut sink)
        .metrics(64)
        .go()
        .expect("no telemetry, no trip");
    assert_eq!(
        plain.avg_latency.to_bits(),
        traced.result.avg_latency.to_bits()
    );
    assert_eq!(
        plain.throughput.to_bits(),
        traced.result.throughput.to_bits()
    );
    assert_eq!(
        plain.router_stats.nonspec_grants,
        traced.result.router_stats.nonspec_grants
    );
    assert_eq!(
        plain.router_stats.spec_requests,
        traced.result.router_stats.spec_requests
    );
    let m = traced.metrics.expect("sampling was enabled");
    assert!(!m.samples.is_empty());
    for s in &m.samples {
        assert!((0.0..=1.0 + 1e-9).contains(&s.utilization), "{s:?}");
    }
}
