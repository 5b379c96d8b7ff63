//! Differential tests proving the fast-path engines cycle-exact.
//!
//! The two-phase parallel engine and the active-set (idle-router-skipping)
//! engine exist purely for speed; they must be *bit-identical* to the
//! sequential reference on every workload. Two layers of evidence:
//!
//! 1. **Result equivalence** — the full bench workload matrix (mesh and
//!    flattened butterfly, every injection rate), three seeds each, run on
//!    all three engines: the `SimResult` JSON must match byte for byte.
//! 2. **Trace equivalence** — the same workloads run with a [`DigestSink`]
//!    attached: the order-sensitive FNV-1a digest over every flit event
//!    must match, and on a mismatch the test names the first diverging
//!    cycle so the bug is bisectable.

use noc_bench::workload_matrix;
use noc_obs::{metrics_csv, window_jsonl, AnatomyHeader, DigestSink, ANATOMY_SCHEMA};
use noc_sim::{run_sim_engine, Engine, Network, Run, SimConfig, TelemetryOptions};

const WARMUP: u64 = 500;
const MEASURE: u64 = 1500;
const TRACE_CYCLES: u64 = 1000;
const SEEDS: u64 = 3;

/// The non-reference engines under test. Four worker threads exercises
/// real sharding even on smaller CI hosts (the pool clamps to the router
/// count anyway).
fn fast_engines() -> [Engine; 2] {
    [Engine::Parallel(4), Engine::ActiveSet]
}

fn seeded(cfg: &SimConfig, off: u64) -> SimConfig {
    let mut cfg = cfg.clone();
    cfg.seed = cfg.seed.wrapping_add(off);
    cfg
}

/// Layer 1: identical `SimResult` JSON across engines for every workload
/// with the given name prefix, across seeds.
fn assert_results_identical(prefix: &str) {
    for (name, cfg) in workload_matrix() {
        if !name.starts_with(prefix) {
            continue;
        }
        for off in 0..SEEDS {
            let cfg = seeded(&cfg, off);
            let reference = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential).to_json();
            for engine in fast_engines() {
                let got = run_sim_engine(&cfg, WARMUP, MEASURE, engine).to_json();
                assert_eq!(
                    got,
                    reference,
                    "{name} seed+{off}: engine '{}' diverged from sequential SimResult",
                    engine.label()
                );
            }
        }
    }
}

/// Runs `cfg` for `cycles` cycles on `engine` with a digest sink attached
/// and returns the finished sink.
fn trace_digest(cfg: &SimConfig, engine: Engine, cycles: u64) -> DigestSink {
    let mut net = Network::with_sink(cfg.clone(), DigestSink::with_cycle_digests());
    engine.run(&mut net, cycles);
    let mut sink = net.sink;
    sink.finish_cycles(cycles);
    sink
}

/// Layer 2: identical flit-event digests across engines; a mismatch
/// reports the first cycle whose cumulative digest differs.
fn assert_traces_identical(prefix: &str) {
    for (name, cfg) in workload_matrix() {
        if !name.starts_with(prefix) {
            continue;
        }
        let reference = trace_digest(&cfg, Engine::Sequential, TRACE_CYCLES);
        for engine in fast_engines() {
            let got = trace_digest(&cfg, engine, TRACE_CYCLES);
            if got.digest() != reference.digest() {
                let cycle =
                    DigestSink::first_divergence(got.cycle_digests(), reference.cycle_digests());
                panic!(
                    "{name}: engine '{}' trace digest {:#018x} != sequential {:#018x} \
                     ({} vs {} events); first diverging cycle: {:?}",
                    engine.label(),
                    got.digest(),
                    reference.digest(),
                    got.events(),
                    reference.events(),
                    cycle
                );
            }
            assert_eq!(
                got.events(),
                reference.events(),
                "{name}: engine '{}' event count diverged with equal digests",
                engine.label()
            );
        }
    }
}

#[test]
fn mesh_results_bit_identical_across_engines() {
    assert_results_identical("mesh8x8");
}

#[test]
fn fbfly_results_bit_identical_across_engines() {
    assert_results_identical("fbfly4x4");
}

#[test]
fn mesh_flit_traces_identical_across_engines() {
    assert_traces_identical("mesh8x8");
}

#[test]
fn fbfly_flit_traces_identical_across_engines() {
    assert_traces_identical("fbfly4x4");
}

/// Runs `cfg` with the flight recorder attached and returns every telemetry
/// window as its dump-file JSONL line, plus the result JSON.
fn telemetry_lines(cfg: &SimConfig, engine: Engine) -> (String, Vec<String>) {
    let opts = TelemetryOptions {
        watchdog: None,
        ..TelemetryOptions::recording()
    };
    let mut lines = Vec::new();
    let outcome = Run::new(cfg, WARMUP, MEASURE)
        .engine(engine)
        .telemetry(opts)
        .on_window(|snap| lines.push(window_jsonl(snap)))
        .go();
    let res = match outcome {
        Ok(out) => out.result,
        Err(trip) => panic!("run cannot trip without a watchdog: {}", trip.describe()),
    };
    (res.to_json(), lines)
}

/// Layer 3: the flight recorder is part of the cycle-exact contract. Every
/// per-window JSONL line — per-router counters, stall mix, matching-quality
/// samples — must be byte-identical across engines, so a recorded dump is
/// reproducible evidence regardless of which engine produced it.
#[test]
fn telemetry_dumps_byte_identical_across_engines() {
    for (name, cfg) in workload_matrix() {
        // One mid-load workload per topology keeps the recorded layer
        // cheap; the result/trace layers above already sweep the matrix.
        if name != "mesh8x8_c2_r0.25" && name != "fbfly4x4_c2_r0.2" {
            continue;
        }
        let (ref_json, ref_lines) = telemetry_lines(&cfg, Engine::Sequential);
        assert!(
            !ref_lines.is_empty(),
            "{name}: recorder produced no windows"
        );
        for engine in fast_engines() {
            let (got_json, got_lines) = telemetry_lines(&cfg, engine);
            assert_eq!(
                got_json,
                ref_json,
                "{name}: engine '{}' recorded-run SimResult diverged",
                engine.label()
            );
            assert_eq!(
                got_lines,
                ref_lines,
                "{name}: engine '{}' telemetry windows diverged",
                engine.label()
            );
        }
    }
}

/// Runs `cfg` with the per-packet latency ledger attached and returns the
/// result JSON plus the full `noc-anatomy/v1` dump text.
fn anatomy_dump(cfg: &SimConfig, engine: Engine) -> (String, String) {
    let out = match Run::new(cfg, WARMUP, MEASURE)
        .engine(engine)
        .anatomy(1 << 16, 4)
        .go()
    {
        Ok(out) => out,
        Err(trip) => panic!("run cannot trip without telemetry: {}", trip.describe()),
    };
    let (res, col) = match out.anatomy {
        Some(col) => (out.result, col),
        None => panic!("anatomy run returned no ledger"),
    };
    let header = anatomy_header(cfg);
    (res.to_json(), col.to_jsonl(&header))
}

/// The `noc-anatomy/v1` identity line of a `WARMUP + MEASURE` run of `cfg`.
fn anatomy_header(cfg: &SimConfig) -> AnatomyHeader {
    AnatomyHeader {
        digest: cfg.digest(WARMUP, MEASURE, ANATOMY_SCHEMA),
        label: cfg.label(),
        routers: cfg.topology.build().num_routers(),
        warmup: WARMUP,
        measure: MEASURE,
        capacity: 1 << 16,
        top_k: 4,
    }
}

/// Layer 4: the latency-anatomy ledger is part of the cycle-exact contract.
/// Hop records cross the engine boundary (drained in router-id order) and
/// fold on ejection, so the full dump — totals, histograms, every retained
/// per-packet row, the top-K waterfalls — must be byte-identical across
/// engines, and attaching the ledger must not perturb the result.
#[test]
fn anatomy_dumps_byte_identical_across_engines() {
    for (name, cfg) in workload_matrix() {
        // Same two mid-load workloads as the telemetry layer: the
        // result/trace layers above already sweep the matrix.
        if name != "mesh8x8_c2_r0.25" && name != "fbfly4x4_c2_r0.2" {
            continue;
        }
        let plain = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential).to_json();
        let (ref_json, ref_dump) = anatomy_dump(&cfg, Engine::Sequential);
        assert_eq!(
            ref_json, plain,
            "{name}: attaching the anatomy ledger changed the sequential SimResult"
        );
        for engine in fast_engines() {
            let (got_json, got_dump) = anatomy_dump(&cfg, engine);
            assert_eq!(
                got_json,
                ref_json,
                "{name}: engine '{}' anatomy-run SimResult diverged",
                engine.label()
            );
            assert_eq!(
                got_dump,
                ref_dump,
                "{name}: engine '{}' anatomy dump diverged",
                engine.label()
            );
        }
    }
}

/// The parallel engine must give the same answer whatever the worker
/// count — sharding is a performance knob, not a semantic one.
#[test]
fn parallel_engine_thread_count_does_not_change_results() {
    let (name, cfg) = workload_matrix().swap_remove(1);
    let reference = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential).to_json();
    for threads in [1, 2, 3, 7, 64, 200] {
        let got = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Parallel(threads)).to_json();
        assert_eq!(got, reference, "{name}: {threads} threads diverged");
    }
}

/// Everything an observed run produces, rendered for byte comparison.
struct Observed {
    /// `SimResult::to_json` with the telemetry block removed.
    result: String,
    telemetry: Vec<String>,
    anatomy: String,
    metrics: String,
    trace_digest: u64,
    violations: u64,
}

/// Runs `cfg` on `engine` with every observer attached at once: trace
/// sink, metrics, telemetry, anatomy, profiler and invariant checker.
fn observe_everything(cfg: &SimConfig, engine: Engine) -> Observed {
    let mut sink = DigestSink::new();
    let mut telemetry = Vec::new();
    let opts = TelemetryOptions {
        watchdog: None,
        ..TelemetryOptions::recording()
    };
    let outcome = Run::new(cfg, WARMUP, MEASURE)
        .engine(engine)
        .sink(&mut sink)
        .metrics(100)
        .telemetry(opts)
        .on_window(|snap| telemetry.push(window_jsonl(snap)))
        .anatomy(1 << 16, 4)
        .profile()
        .verify()
        .go();
    let out = match outcome {
        Ok(out) => out,
        Err(trip) => panic!("run cannot trip without a watchdog: {}", trip.describe()),
    };
    let (Some(col), Some(prof), Some(rep)) = (&out.anatomy, &out.profile, &out.verify) else {
        panic!("an observer asked for returned nothing");
    };
    assert_eq!(prof.cycles, WARMUP + MEASURE);
    assert!(
        out.result.telemetry.is_some(),
        "recording adds a telemetry block"
    );
    let mut result = out.result.clone();
    result.telemetry = None;
    Observed {
        result: result.to_json(),
        telemetry,
        anatomy: col.to_jsonl(&anatomy_header(cfg)),
        metrics: metrics_csv(&out.router_obs, out.metrics.as_ref()),
        trace_digest: sink.digest(),
        violations: rep.total_violations,
    }
}

/// Layer 5: every observer at once, on every engine. The result is the
/// plain run's, the dumps are byte-identical across engines, and the
/// checker finds no violation.
#[test]
fn all_observers_together_are_pure_and_engine_identical() {
    for (name, cfg) in workload_matrix() {
        if name != "mesh8x8_c2_r0.25" && name != "fbfly4x4_c2_r0.2" {
            continue;
        }
        let plain = run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential).to_json();
        let reference = observe_everything(&cfg, Engine::Sequential);
        assert_eq!(
            reference.result, plain,
            "{name}: attaching every observer changed the SimResult"
        );
        assert_eq!(reference.violations, 0, "{name}: invariant violations");
        for engine in fast_engines() {
            let got = observe_everything(&cfg, engine);
            let label = engine.label();
            assert_eq!(got.result, plain, "{name}: engine '{label}' SimResult");
            assert_eq!(got.violations, 0, "{name}: engine '{label}' violations");
            assert_eq!(
                got.telemetry, reference.telemetry,
                "{name}: engine '{label}' telemetry dump"
            );
            assert_eq!(
                got.anatomy, reference.anatomy,
                "{name}: engine '{label}' anatomy dump"
            );
            assert_eq!(
                got.metrics, reference.metrics,
                "{name}: engine '{label}' metrics"
            );
            assert_eq!(
                got.trace_digest, reference.trace_digest,
                "{name}: engine '{label}' trace digest"
            );
        }
    }
}
