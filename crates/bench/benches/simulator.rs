//! Criterion benchmarks: network-simulation cycle rate for the paper's two
//! topologies, and the per-engine step cost of the fast-path loops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_obs::CountingSink;
use noc_sim::{Engine, Network, SimConfig, TopologyKind};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_cycles");
    group.sample_size(10);
    for (label, topo, vcs) in [
        ("mesh_2x1x1", TopologyKind::Mesh8x8, 1),
        ("mesh_2x1x4", TopologyKind::Mesh8x8, 4),
        ("fbfly_2x2x4", TopologyKind::FlattenedButterfly4x4, 4),
    ] {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(topo, vcs)
        };
        // No observer: every trace site compiles away. Compare against
        // run_500_traced below to measure instrumentation overhead.
        group.bench_with_input(BenchmarkId::new("run_500", label), &cfg, |b, cfg| {
            b.iter(|| {
                let mut net = Network::new(cfg.clone());
                net.run(500);
                net.total_flits_injected()
            })
        });
        group.bench_with_input(BenchmarkId::new("run_500_traced", label), &cfg, |b, cfg| {
            b.iter(|| {
                let mut sink = CountingSink::default();
                Engine::Sequential.run_with(&mut Network::new(cfg.clone()), 500, &mut sink);
                sink.total()
            })
        });
    }
    group.finish();
}

/// One steady-state cycle on each engine, at a light load (where the
/// active-set engine skips most routers) and at the compute-bound 0.4
/// load (where the parallel engine amortizes its handshake).
fn bench_step_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_cycle");
    group.sample_size(10);
    for rate in [0.05, 0.4] {
        let cfg = SimConfig {
            injection_rate: rate,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        for engine in [Engine::Sequential, Engine::Parallel(4), Engine::ActiveSet] {
            let id = BenchmarkId::new(engine.label(), format!("mesh_r{rate}"));
            group.bench_with_input(id, &cfg, |b, cfg| {
                // Warm into steady state once, then time 200-cycle batches
                // that keep advancing the same network: the parallel pool
                // is per-run, so its spin-up cost is amortized here exactly
                // as in real workloads.
                let mut net = Network::new(cfg.clone());
                Engine::Sequential.run(&mut net, 500);
                b.iter(|| {
                    engine.run(&mut net, 200);
                    net.total_flits_injected()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_step_cycle);
criterion_main!(benches);
