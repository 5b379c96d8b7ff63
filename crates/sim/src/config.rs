//! Simulation configuration.

use crate::routing::RoutingKind;
use crate::topology::TopologyKind;
use crate::traffic::TrafficPattern;
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind, VcAllocSpec};

/// Full configuration of one network simulation (§3.2's setup plus the
/// allocator design choices under study).
///
/// ```
/// use noc_sim::{run_sim_engine, Engine, SimConfig, TopologyKind};
///
/// let cfg = SimConfig {
///     injection_rate: 0.1,
///     ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
/// };
/// let result = run_sim_engine(&cfg, 500, 1_000, Engine::Sequential);
/// assert!(result.stable);
/// assert!(result.avg_latency > 10.0 && result.avg_latency < 40.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Topology (fixes P and the routing algorithm).
    pub topology: TopologyKind,
    /// VCs per class, `C` in the `MxRxC` notation (M and R follow from the
    /// topology: mesh 2×1×C, fbfly 2×2×C).
    pub vcs_per_class: usize,
    /// Flits per VC buffer (paper: 8).
    pub buf_depth: usize,
    /// VC allocator architecture (paper's network results use `sep_if`).
    pub vca_kind: AllocatorKind,
    /// Sparse VC allocator organization.
    pub vca_sparse: bool,
    /// Switch allocator architecture.
    pub sa_kind: SwitchAllocatorKind,
    /// Speculation scheme.
    pub spec_mode: SpecMode,
    /// Offered load in flits/cycle/terminal (requests + replies).
    pub injection_rate: f64,
    /// Request packets per transaction burst. 1 reproduces the paper's
    /// traffic; larger values model the DMA-like throughput-oriented
    /// workloads of §5.4 (bursts of write requests to one destination).
    pub burst: usize,
    /// Payload flits carried by data-bearing packets (write requests and
    /// read replies). The paper's traffic model uses 4, giving 5-flit data
    /// packets and 6-flit transactions; the offered-load calibration in the
    /// terminals derives its divisor from this value.
    pub payload_flits: usize,
    /// Spatial traffic pattern.
    pub pattern: TrafficPattern,
    /// RNG seed (simulations are fully deterministic given the seed).
    pub seed: u64,
    /// Routing algorithm override. `None` (the paper's configurations)
    /// derives the algorithm from the topology; `Some` forces one — used
    /// by negative fixtures such as
    /// [`RoutingKind::TorusNoDateline`], the deliberately deadlock-prone
    /// configuration the stall watchdog is tested against.
    pub routing_override: Option<RoutingKind>,
}

impl SimConfig {
    /// The paper's baseline configuration for a topology and VC count:
    /// separable input-first VC and switch allocation with round-robin
    /// arbiters, pessimistic speculation, uniform random traffic.
    pub fn paper_baseline(topology: TopologyKind, vcs_per_class: usize) -> Self {
        SimConfig {
            topology,
            vcs_per_class,
            buf_depth: 8,
            vca_kind: AllocatorKind::SepIfRr,
            vca_sparse: true,
            sa_kind: SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
            spec_mode: SpecMode::Pessimistic,
            injection_rate: 0.1,
            burst: 1,
            payload_flits: crate::packet::DEFAULT_PAYLOAD_FLITS,
            pattern: TrafficPattern::UniformRandom,
            seed: 0x5c09_2009,
            routing_override: None,
        }
    }

    /// The VC class structure implied by topology + C.
    pub fn vc_spec(&self) -> VcAllocSpec {
        match self.topology {
            TopologyKind::Mesh8x8 => VcAllocSpec::mesh(self.vcs_per_class),
            TopologyKind::FlattenedButterfly4x4 => VcAllocSpec::fbfly(self.vcs_per_class),
            TopologyKind::Torus8x8 => VcAllocSpec::torus(self.vcs_per_class),
        }
    }

    /// The routing algorithm: the topology's (§3.2) unless overridden.
    pub fn routing(&self) -> RoutingKind {
        if let Some(kind) = self.routing_override {
            return kind;
        }
        match self.topology {
            TopologyKind::Mesh8x8 => RoutingKind::DimensionOrder,
            TopologyKind::FlattenedButterfly4x4 => RoutingKind::Ugal { threshold: 3 },
            TopologyKind::Torus8x8 => RoutingKind::TorusDateline,
        }
    }

    /// Design-point label (`mesh 2x1x4`, `fbfly 2x2x2`, ...).
    pub fn label(&self) -> String {
        format!("{} {}", self.topology.label(), self.vc_spec().label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        assert_eq!(c.buf_depth, 8);
        assert_eq!(c.vc_spec().total_vcs(), 4);
        assert_eq!(c.vc_spec().label(), "2x1x2");
        assert_eq!(c.label(), "mesh 2x1x2");
        let f = SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 4);
        assert_eq!(f.vc_spec().total_vcs(), 16);
        assert_eq!(f.vc_spec().ports(), 10);
    }
}
