//! The network workloads: a latency curve of load points simulated one
//! after another, repeated until the run's time is spent.
//!
//! Every repetition simulates exactly the same configurations, so each
//! point's result must hash the same as in the first repetition; the first
//! repetition is also re-run on the active and par engines after the timed
//! window, and for the default seed compared with the recorded hashes.

use crate::check::{fnv, matches_recorded};
use crate::host::HostSpeed;
use crate::trace::{median, quantile, Tracer};
use crate::{mix, Ctx, EndToEnd, Layers, Tally};
use noc_core::{AllocatorKind, SwitchAllocatorKind};
use noc_obs::{Profiler, PHASES};
use noc_sim::{run_sim_engine, summarize, Engine, Network, SimConfig, TopologyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One latency curve: a base configuration swept over injection rates.
pub struct Curve {
    pub name: &'static str,
    base: SimConfig,
    rates: Vec<f64>,
    warmup: u64,
    measure: u64,
}

impl Curve {
    /// Fig. 13(b): mesh 8×8, 2×1×2 VCs, the paper baseline (sep_if/rr VC
    /// and switch allocation, sparse VCA, pessimistic speculation),
    /// uniform random traffic, zero load up to saturation. Every allocator
    /// is at most 64 wide. Points run 500+1500 cycles, the repository's
    /// shortest simulator runs, so the loaded points are mostly filled.
    pub fn mesh_curve() -> Curve {
        Curve {
            name: "mesh_curve",
            base: SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2),
            rates: (1..=10).map(|i| 0.04 * i as f64).collect(),
            warmup: 500,
            measure: 1500,
        }
    }

    /// fbfly 4×4, 2×2×4 VCs (P=10, UGAL), wavefront VC and switch
    /// allocation: the sparse VC sub-allocators are 80 wide, past the
    /// 64-bit kernels. Three points of 300+700 cycles: a cycle costs over
    /// ten times a mesh cycle, and 1000 cycles from empty carry 96% of the
    /// steady load at r=0.5 (see the README).
    pub fn fbfly_wide() -> Curve {
        Curve {
            name: "fbfly_wide",
            base: SimConfig {
                vca_kind: AllocatorKind::Wavefront,
                sa_kind: SwitchAllocatorKind::Wavefront,
                ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 4)
            },
            rates: vec![0.1, 0.3, 0.5],
            warmup: 300,
            measure: 700,
        }
    }

    /// A short mesh curve that measures the network layers in the traced
    /// runs of workloads that simulate no network.
    pub fn probe() -> Curve {
        Curve {
            name: "probe_curve",
            base: SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2),
            rates: vec![0.05, 0.4],
            warmup: 100,
            measure: 200,
        }
    }

    fn cycles(&self) -> u64 {
        self.warmup + self.measure
    }

    fn configs(&self, seed: u64) -> Vec<SimConfig> {
        self.rates
            .iter()
            .enumerate()
            .map(|(i, &injection_rate)| SimConfig {
                injection_rate,
                seed: mix(seed, i as u64),
                ..self.base.clone()
            })
            .collect()
    }

    fn run_point(&self, cfg: &SimConfig, engine: Engine) -> u64 {
        fnv(run_sim_engine(cfg, self.warmup, self.measure, engine)
            .to_json_full()
            .as_bytes())
    }

    /// Re-runs every point on the active and par engines and, for the
    /// default seed, compares with the recorded hashes. Returns which
    /// points disagree.
    fn verify(&self, cfgs: &[SimConfig], reference: &[u64], ctx: &Ctx) -> Vec<bool> {
        cfgs.iter()
            .zip(reference)
            .enumerate()
            .map(|(i, (cfg, &d))| {
                let engines_agree = [Engine::ActiveSet, Engine::Parallel(ctx.threads())]
                    .into_iter()
                    .all(|e| self.run_point(cfg, e) == d);
                let recorded =
                    !ctx.default_seed() || matches_recorded(&format!("{}.{i}", self.name), d);
                !(engines_agree && recorded)
            })
            .collect()
    }
}

/// Untraced run: repeat the curve on the seq engine until the time is
/// spent, building the curve's networks once more between repetitions as
/// a timed set-up. Every time is nominal (see [`HostSpeed`]); each load
/// point and the set-up are reported at their median over the run.
pub fn run(curve: &Curve, ctx: &Ctx) -> EndToEnd {
    let cfgs = curve.configs(ctx.seed);
    // One network at a time, as the workload holds them, so that peak
    // memory is the workload's own.
    let setup = || {
        let mut secs = 0.0;
        for c in &cfgs {
            let t = Instant::now();
            let net = Network::new(c.clone());
            secs += t.elapsed().as_secs_f64();
            drop(net);
        }
        secs
    };
    let mut host = HostSpeed::new();
    let mut setup_s = vec![setup() * host.factor()];
    let routers = Network::new(cfgs[0].clone()).router_count() as u64;
    let mut point_ms = vec![Vec::new(); cfgs.len()];
    let mut reference = Vec::new();
    let mut mismatched = vec![0u64; cfgs.len()];
    let mut reps = 0;
    let start = Instant::now();
    while start.elapsed() < ctx.seconds {
        for (i, cfg) in cfgs.iter().enumerate() {
            let t = Instant::now();
            let result = run_sim_engine(cfg, curve.warmup, curve.measure, Engine::Sequential);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            point_ms[i].push(ms * host.factor());
            let d = fnv(result.to_json_full().as_bytes());
            if reference.len() == i {
                reference.push(d);
            } else if reference[i] != d {
                mismatched[i] += 1;
            }
        }
        reps += 1;
        let s = setup();
        setup_s.push(s * host.factor());
    }
    let bad = curve.verify(&cfgs, &reference, ctx);
    let failed = (0..cfgs.len())
        .map(|i| if bad[i] { reps } else { mismatched[i] })
        .sum();
    let router_cycles = (routers * curve.cycles() * cfgs.len() as u64) as f64;
    let op_ms: Vec<f64> = point_ms.iter().map(|v| median(v)).collect();
    EndToEnd {
        tally: Tally {
            attempted: reps * cfgs.len() as u64,
            failed,
        },
        work_per_s: router_cycles / (op_ms.iter().sum::<f64>() / 1e3),
        work_alias: "router_cycles_per_s",
        op_ms,
        op_alias: "point",
        setup_s: median(&setup_s),
        engine: "seq",
        threads: 1,
        runs: reps as usize,
    }
}

/// Traced pass over the curve: `Network::step_profiled` per cycle with a
/// span around each step and around each `Network::new`. Returns the
/// point hashes.
fn traced_pass(curve: &Curve, cfgs: &[SimConfig], t: &mut Tracer, prof: &mut Profiler) -> Vec<u64> {
    let (pass, new, step) = (
        t.name("sim.traced_pass"),
        t.name("network.new"),
        t.name("network.step"),
    );
    let root = t.open(pass, None);
    let mut out = Vec::new();
    for cfg in cfgs {
        let mut net = t.span(new, Some(root), || Network::new(cfg.clone()));
        net.stats.set_window(curve.warmup, curve.cycles());
        for _ in 0..curve.cycles() {
            let s = t.open(step, Some(root));
            net.step_profiled(prof);
            t.close(s, 1);
        }
        out.push(fnv(summarize(&net).to_json_full().as_bytes()));
    }
    t.close(root, cfgs.len() as u64);
    out
}

/// Overhead pass over the curve: each pair of cycles has one step as a
/// traced pass does it (a span around `Network::step_profiled`) and one
/// plain `Network::step`, in an order a seeded coin picks, so the two
/// kinds sample the same network states and the same host speed. Adds each
/// kind's wall nanoseconds and step count to `sums` (`[plain, traced]`);
/// returns the point hashes.
fn overhead_pass(
    curve: &Curve,
    cfgs: &[SimConfig],
    coin: &mut StdRng,
    t: &mut Tracer,
    sums: &mut [(f64, u64); 2],
) -> Vec<u64> {
    let step = t.name("sim.overhead_step");
    let mut prof = Profiler::default();
    let mut out = Vec::new();
    for cfg in cfgs {
        let mut net = Network::new(cfg.clone());
        net.stats.set_window(curve.warmup, curve.cycles());
        let mut traced = false;
        for cycle in 0..curve.cycles() {
            traced = if cycle % 2 == 0 {
                coin.gen_bool(0.5)
            } else {
                !traced
            };
            let t0 = Instant::now();
            if traced {
                let s = t.open(step, None);
                net.step_profiled(&mut prof);
                t.close(s, 1);
            } else {
                net.step();
            }
            let sum = &mut sums[usize::from(traced)];
            sum.0 += t0.elapsed().as_nanos() as f64;
            sum.1 += 1;
        }
        out.push(fnv(summarize(&net).to_json_full().as_bytes()));
    }
    out
}

/// Traced run of a curve: the points once through `run_sim_engine` for
/// the reference hashes, then traced and overhead passes in turn while
/// `budget` lasts (at least one of each), then `Engine::run` timed on each
/// engine. Returns the checks and the tracing overhead: the mean traced
/// step over the mean plain step of the overhead passes, minus one.
pub fn traced(
    curve: &Curve,
    ctx: &Ctx,
    budget: Duration,
    t: &mut Tracer,
    layers: &mut Layers,
) -> (Tally, f64) {
    let cfgs = curve.configs(ctx.seed);
    let routers = Network::new(cfgs[0].clone()).router_count() as f64;
    let router_cycles = routers * (curve.cycles() * cfgs.len() as u64) as f64;
    let mut tally = Tally::default();
    let mut prof = Profiler::default();
    let mut coin = StdRng::seed_from_u64(mix(ctx.seed, 400));
    let mut sums = [(0.0, 0); 2];
    let reference: Vec<u64> = cfgs
        .iter()
        .map(|c| curve.run_point(c, Engine::Sequential))
        .collect();
    let mut passes = 0u32;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < budget {
        let traced_hashes = traced_pass(curve, &cfgs, t, &mut prof);
        let mixed_hashes = overhead_pass(curve, &cfgs, &mut coin, t, &mut sums);
        passes += 1;
        for (h, r) in traced_hashes
            .iter()
            .chain(&mixed_hashes)
            .zip(reference.iter().cycle())
        {
            tally.attempted += 1;
            tally.failed += u64::from(h != r);
        }
    }
    let mean = |(ns, n): (f64, u64)| ns / n.max(1) as f64;
    let overhead = mean(sums[1]) / mean(sums[0]) - 1.0;
    let passes = f64::from(passes);
    for (engine, label) in [
        (Engine::Sequential, "seq"),
        (Engine::ActiveSet, "active"),
        (Engine::Parallel(ctx.threads()), "par"),
    ] {
        let name = t.name(&format!("sim.{label}.run"));
        for (cfg, &r) in cfgs.iter().zip(&reference) {
            let mut net = Network::new(cfg.clone());
            net.stats.set_window(curve.warmup, curve.cycles());
            t.span(name, None, || engine.run(&mut net, curve.cycles()));
            tally.attempted += 1;
            tally.failed += u64::from(fnv(summarize(&net).to_json_full().as_bytes()) != r);
        }
        let (ns, _) = t.total(&format!("sim.{label}.run"));
        layers.insert(
            format!("sim.{label}.router_cycles_per_s"),
            (router_cycles / (ns * 1e-9), "1/s"),
        );
    }
    if ctx.default_seed() && curve.name != "probe_curve" {
        for (i, &r) in reference.iter().enumerate() {
            tally.failed += u64::from(!matches_recorded(&format!("{}.{i}", curve.name), r));
        }
    }
    let steps = t.durations("network.step");
    let (step_ns, _) = t.total("network.step");
    let phase_ns: u64 = prof.phase_nanos.iter().sum();
    for phase in PHASES {
        let name = phase.name();
        layers.insert(
            format!("router.{name}.ns_per_router_cycle"),
            (prof.nanos(phase) as f64 / (router_cycles * passes), "ns"),
        );
        layers.insert(
            format!("router.{name}.events"),
            (prof.events(phase) as f64 / passes, "count"),
        );
    }
    layers.insert(
        "network.step_us_p50".to_string(),
        (median(&steps) / 1e3, "us"),
    );
    layers.insert(
        "network.step_us_p99".to_string(),
        (quantile(&steps, 0.99) / 1e3, "us"),
    );
    layers.insert(
        "network.other_share".to_string(),
        (1.0 - phase_ns as f64 / step_ns, "share"),
    );
    layers.insert(
        "network.new_ms".to_string(),
        (median(&t.durations("network.new")) / 1e6, "ms"),
    );
    (tally, overhead)
}
