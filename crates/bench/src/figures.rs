//! Data-series computation for every figure in the paper's evaluation.

use crate::points::DesignPoint;
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind};
use noc_hw::builders::sw_alloc::synthesize_switch_allocator;
use noc_hw::builders::vc_alloc::synthesize_vc_allocator;
use noc_hw::{SynthError, SynthResult, Synthesizer};
use noc_quality::{
    sw_quality_curve, vc_quality_curve, QualityCurve, SwQualityConfig, VcQualityConfig,
};
use noc_sim::sim::{latency_curve_with, run_sim_engine, Engine};
use noc_sim::{SimConfig, SimResult};

/// The runner signature every simulation-driven series accepts: a plain
/// sequential run reproduces the legacy behavior; the sweep
/// orchestrator's cache-backed runner makes the same computation
/// resumable and shareable across binaries.
pub type SimRunner = dyn Fn(&SimConfig, u64, u64) -> SimResult + Sync;

/// The direct (uncached) runner: a plain sequential [`run_sim_engine`].
pub fn direct_runner() -> impl Fn(&SimConfig, u64, u64) -> SimResult + Sync {
    |cfg, warmup, measure| run_sim_engine(cfg, warmup, measure, Engine::Sequential)
}

/// One VC-allocator cost point (Figures 5/6): a variant in dense and
/// sparse organization.
pub struct VcCostPoint {
    /// Architecture label (`sep_if/m`, …).
    pub variant: &'static str,
    /// Allocator kind.
    pub kind: AllocatorKind,
    /// Dense (un-optimized) synthesis outcome.
    pub dense: Result<SynthResult, SynthError>,
    /// Sparse (§4.2-optimized) synthesis outcome.
    pub sparse: Result<SynthResult, SynthError>,
}

/// Synthesizes all VC-allocator variants of one design point (Figures 5/6).
pub fn vc_cost_data(point: &DesignPoint) -> Vec<VcCostPoint> {
    let synth = Synthesizer::default();
    let spec = point.spec();
    AllocatorKind::COST_FIGURE_KINDS
        .iter()
        .map(|&kind| VcCostPoint {
            variant: kind.label(),
            kind,
            dense: synthesize_vc_allocator(&synth, &spec, kind, false),
            sparse: synthesize_vc_allocator(&synth, &spec, kind, true),
        })
        .collect()
}

/// The §4.3.1 headline: best-case savings of sparse over dense VC
/// allocation across a set of cost points (delay, area, power in percent).
pub fn sparse_savings(points: &[Vec<VcCostPoint>]) -> (f64, f64, f64) {
    let (mut d, mut a, mut p) = (0.0f64, 0.0f64, 0.0f64);
    for point in points {
        for vc in point {
            if let (Ok(dense), Ok(sparse)) = (&vc.dense, &vc.sparse) {
                d = d.max(100.0 * (1.0 - sparse.delay_ns / dense.delay_ns));
                a = a.max(100.0 * (1.0 - sparse.area_um2 / dense.area_um2));
                p = p.max(100.0 * (1.0 - sparse.power_mw / dense.power_mw));
            }
        }
    }
    (d, a, p)
}

/// One switch-allocator cost point (Figures 10/11): a variant across the
/// three speculation schemes.
pub struct SwCostPoint {
    /// Architecture label.
    pub variant: String,
    /// Switch allocator kind.
    pub kind: SwitchAllocatorKind,
    /// `[nonspec, pessimistic, conventional]` synthesis outcomes — the
    /// three connected data points per curve in Figures 10/11.
    pub modes: [Result<SynthResult, SynthError>; 3],
}

/// Switch-allocator variants plotted in Figures 10/11.
pub fn sw_variants() -> Vec<SwitchAllocatorKind> {
    use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
    vec![
        SwitchAllocatorKind::SepIf(Matrix),
        SwitchAllocatorKind::SepIf(RoundRobin),
        SwitchAllocatorKind::SepOf(Matrix),
        SwitchAllocatorKind::SepOf(RoundRobin),
        SwitchAllocatorKind::Wavefront,
    ]
}

/// Synthesizes all switch-allocator variants of one design point
/// (Figures 10/11).
pub fn sw_cost_data(point: &DesignPoint) -> Vec<SwCostPoint> {
    let synth = Synthesizer::default();
    let spec = point.spec();
    let (p, v) = (spec.ports(), spec.total_vcs());
    sw_variants()
        .into_iter()
        .map(|kind| SwCostPoint {
            variant: kind.label(),
            kind,
            modes: [
                synthesize_switch_allocator(&synth, kind, p, v, SpecMode::NonSpeculative),
                synthesize_switch_allocator(&synth, kind, p, v, SpecMode::Pessimistic),
                synthesize_switch_allocator(&synth, kind, p, v, SpecMode::Conventional),
            ],
        })
        .collect()
}

/// The §5.3.1 headline: best-case delay saving of pessimistic vs
/// conventional speculation, in percent.
pub fn pessimistic_delay_saving(points: &[Vec<SwCostPoint>]) -> f64 {
    let mut best = 0.0f64;
    for point in points {
        for sw in point {
            if let (Ok(pess), Ok(conv)) = (&sw.modes[1], &sw.modes[2]) {
                best = best.max(100.0 * (1.0 - pess.delay_ns / conv.delay_ns));
            }
        }
    }
    best
}

/// The request-rate grid of the quality figures (x axis 0 → 1).
pub fn quality_rates() -> Vec<f64> {
    (1..=10).map(|i| i as f64 * 0.1).collect()
}

/// Figure 7 series for one design point: matching-quality curves for the
/// three architectures.
pub fn vc_quality_data(point: &DesignPoint, trials: usize) -> Vec<QualityCurve> {
    let cfg = VcQualityConfig {
        spec: point.spec(),
        trials,
        seed: 0x5c09,
    };
    let rates = quality_rates();
    AllocatorKind::QUALITY_FIGURE_KINDS
        .iter()
        .map(|&k| vc_quality_curve(&cfg, k, &rates))
        .collect()
}

/// Figure 12 series for one design point.
pub fn sw_quality_data(point: &DesignPoint, trials: usize) -> Vec<QualityCurve> {
    use noc_arbiter::ArbiterKind::RoundRobin;
    let spec = point.spec();
    let cfg = SwQualityConfig {
        ports: spec.ports(),
        vcs: spec.total_vcs(),
        trials,
        seed: 0x5c09,
    };
    let rates = quality_rates();
    [
        SwitchAllocatorKind::SepIf(RoundRobin),
        SwitchAllocatorKind::SepOf(RoundRobin),
        SwitchAllocatorKind::Wavefront,
    ]
    .iter()
    .map(|&k| sw_quality_curve(&cfg, k, &rates))
    .collect()
}

/// A labeled latency-vs-injection-rate curve (one line of Figures 13/14).
pub struct LatencyCurve {
    /// Legend label.
    pub label: String,
    /// The configuration that produced the curve.
    pub cfg: SimConfig,
    /// One result per rate of the design point's grid.
    pub results: Vec<SimResult>,
}

impl LatencyCurve {
    /// Saturation estimate: the highest offered rate that stayed stable.
    pub fn saturation(&self) -> f64 {
        self.results
            .iter()
            .filter(|r| r.stable)
            .map(|r| r.offered)
            .fold(0.0, f64::max)
    }

    /// Bisection-refined saturation rate: narrows the bracket between the
    /// last stable and the first unstable grid point with a few extra runs
    /// of the given configuration.
    pub fn refined_saturation(&self, warmup: u64, measure: u64) -> f64 {
        self.refined_saturation_with(warmup, measure, &direct_runner())
    }

    /// As [`LatencyCurve::refined_saturation`], with the probe runs
    /// produced by `run` (the probe sequence is deterministic, so a cache
    /// makes the refinement free on re-runs).
    pub fn refined_saturation_with(&self, warmup: u64, measure: u64, run: &SimRunner) -> f64 {
        let cfg = &self.cfg;
        let mut lo = self.saturation();
        if lo == 0.0 {
            return 0.0;
        }
        let mut hi = self
            .results
            .iter()
            .filter(|r| !r.stable && r.offered > lo)
            .map(|r| r.offered)
            .fold(f64::INFINITY, f64::min);
        if !hi.is_finite() {
            // Stable across the whole grid; extend upward once.
            hi = (lo * 1.4).min(1.0);
        }
        for _ in 0..3 {
            let mid = 0.5 * (lo + hi);
            let r = run(
                &SimConfig {
                    injection_rate: mid,
                    ..cfg.clone()
                },
                warmup,
                measure,
            );
            if r.stable {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Latency at the lowest measured rate (zero-load proxy).
    pub fn min_rate_latency(&self) -> f64 {
        self.results.first().map_or(f64::NAN, |r| r.avg_latency)
    }
}

/// Figure 13: latency curves for the three switch-allocator architectures
/// on one design point (VC allocator fixed to `sep_if`, pessimistic
/// speculation — §5.3.3).
pub fn sa_latency_data(point: &DesignPoint, warmup: u64, measure: u64) -> Vec<LatencyCurve> {
    sa_latency_data_with(point, warmup, measure, &direct_runner())
}

/// [`sa_latency_data`] with an injectable runner (see [`SimRunner`]).
pub fn sa_latency_data_with(
    point: &DesignPoint,
    warmup: u64,
    measure: u64,
    run: &SimRunner,
) -> Vec<LatencyCurve> {
    use noc_arbiter::ArbiterKind::RoundRobin;
    let base = SimConfig::paper_baseline(point.topology, point.vcs_per_class);
    let rates = point.rate_grid();
    [
        ("sep_if", SwitchAllocatorKind::SepIf(RoundRobin)),
        ("sep_of", SwitchAllocatorKind::SepOf(RoundRobin)),
        ("wf", SwitchAllocatorKind::Wavefront),
    ]
    .iter()
    .map(|(label, kind)| {
        let cfg = SimConfig {
            sa_kind: *kind,
            ..base.clone()
        };
        LatencyCurve {
            label: label.to_string(),
            results: latency_curve_with(&cfg, &rates, warmup, measure, run),
            cfg,
        }
    })
    .collect()
}

/// Figure 14: latency curves for the three speculation schemes on one
/// design point (switch allocator fixed to `sep_if` — §5.3.3).
pub fn spec_latency_data(point: &DesignPoint, warmup: u64, measure: u64) -> Vec<LatencyCurve> {
    spec_latency_data_with(point, warmup, measure, &direct_runner())
}

/// [`spec_latency_data`] with an injectable runner (see [`SimRunner`]).
pub fn spec_latency_data_with(
    point: &DesignPoint,
    warmup: u64,
    measure: u64,
    run: &SimRunner,
) -> Vec<LatencyCurve> {
    let base = SimConfig::paper_baseline(point.topology, point.vcs_per_class);
    let rates = point.rate_grid();
    SpecMode::ALL
        .iter()
        .map(|&mode| {
            let cfg = SimConfig {
                spec_mode: mode,
                ..base.clone()
            };
            LatencyCurve {
                label: mode.label().to_string(),
                results: latency_curve_with(&cfg, &rates, warmup, measure, run),
                cfg,
            }
        })
        .collect()
}

/// Zero-load latency at 1% load for an arbitrary configuration (used by
/// the Figure 14 summaries).
pub fn zero_load(cfg: &SimConfig, measure: u64) -> f64 {
    let cfg = SimConfig {
        injection_rate: 0.01,
        ..cfg.clone()
    };
    run_sim_engine(&cfg, 2_000, measure, Engine::Sequential).avg_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::TopologyKind;

    fn synth(delay: f64, area: f64, power: f64) -> SynthResult {
        SynthResult {
            name: "t".into(),
            delay_ns: delay,
            area_um2: area,
            power_mw: power,
            cells: 1,
            dffs: 0,
            buffers_inserted: 0,
            sizing_iterations: 0,
        }
    }

    #[test]
    fn sparse_savings_arithmetic() {
        let points = vec![vec![VcCostPoint {
            variant: "x",
            kind: AllocatorKind::SepIfRr,
            dense: Ok(synth(2.0, 1000.0, 10.0)),
            sparse: Ok(synth(1.0, 100.0, 2.0)),
        }]];
        let (d, a, p) = sparse_savings(&points);
        assert!((d - 50.0).abs() < 1e-9);
        assert!((a - 90.0).abs() < 1e-9);
        assert!((p - 80.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_savings_skips_oom_points() {
        let points = vec![vec![VcCostPoint {
            variant: "x",
            kind: AllocatorKind::Wavefront,
            dense: Err(noc_hw::SynthError::OutOfMemory {
                cells: 1,
                budget: 0,
            }),
            sparse: Ok(synth(1.0, 100.0, 2.0)),
        }]];
        assert_eq!(sparse_savings(&points), (0.0, 0.0, 0.0));
    }

    #[test]
    fn pessimistic_saving_uses_best_point() {
        let points = vec![vec![SwCostPoint {
            variant: "x".into(),
            kind: SwitchAllocatorKind::Wavefront,
            modes: [
                Ok(synth(1.0, 1.0, 1.0)),
                Ok(synth(0.8, 1.0, 1.0)),
                Ok(synth(1.0, 1.0, 1.0)),
            ],
        }]];
        assert!((pessimistic_delay_saving(&points) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn latency_curve_saturation_logic() {
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1);
        let mk = |offered: f64, stable: bool| SimResult {
            offered,
            avg_latency: 20.0,
            request_latency: 20.0,
            reply_latency: 20.0,
            latency_std_dev: 1.0,
            latency_p99: 32.0,
            throughput: offered,
            stable,
            ci95: f64::NAN,
            seeds: 1,
            warmup_detected: None,
            telemetry: None,
            hist: Default::default(),
            router_stats: Default::default(),
            routers: Vec::new(),
        };
        let c = LatencyCurve {
            label: "t".into(),
            cfg: base,
            results: vec![mk(0.1, true), mk(0.2, true), mk(0.3, false)],
        };
        assert!((c.saturation() - 0.2).abs() < 1e-12);
        assert!((c.min_rate_latency() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn quality_rate_grid_is_the_unit_interval() {
        let r = quality_rates();
        assert_eq!(r.len(), 10);
        assert!((r[9] - 1.0).abs() < 1e-12);
    }
}
