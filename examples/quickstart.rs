//! Quickstart: the three allocator architectures on a toy request matrix,
//! a VC allocation round, and a short network simulation.
//!
//! Run with `cargo run --release --example quickstart`.

use noc_core::SwitchAllocatorKind;
use noc_core::{AllocatorKind, BitMatrix, SpecMode, SpeculativeSwitchAllocator, SwitchRequests};
use noc_sim::{run_sim_engine, Engine, SimConfig, TopologyKind};

fn main() {
    // --- 1. General allocation: 4 requesters x 4 resources --------------
    let requests = BitMatrix::from_entries(
        4,
        4,
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)],
    );
    println!("request matrix:\n{requests:?}\n");
    for kind in [
        AllocatorKind::SepIfRr,
        AllocatorKind::SepOfRr,
        AllocatorKind::Wavefront,
        AllocatorKind::MaxSize,
    ] {
        let mut alloc = kind.build(4, 4);
        let grants = alloc.allocate(&requests);
        println!(
            "{:<9} -> {} grants: {:?}",
            kind.label(),
            grants.count_ones(),
            grants.iter_set().collect::<Vec<_>>()
        );
        assert!(grants.is_matching_for(&requests));
    }

    // --- 2. Speculative switch allocation (Figure 9) ---------------------
    let mut sa = SpeculativeSwitchAllocator::new(
        SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
        5,
        2,
        SpecMode::Pessimistic,
    );
    let mut nonspec = SwitchRequests::new(5, 2);
    nonspec.request(0, 0, 3); // established packet at input 0 wants output 3
    let mut spec = SwitchRequests::new(5, 2);
    spec.request(1, 0, 3); // head flit at input 1 speculates for output 3
    spec.request(2, 1, 4); // head flit at input 2 speculates for output 4
    let res = sa.allocate(&nonspec, &spec);
    println!(
        "\nspeculative SA: {} nonspec grant(s), {} spec grant(s), {} masked",
        res.nonspec.len(),
        res.spec.len(),
        res.masked.len()
    );
    // Output 3 is nonspec-requested, so the input-1 speculation is masked
    // pessimistically; output 4 is free, so input 2 speculates successfully.
    assert_eq!(res.spec.len(), 1);
    assert_eq!(res.spec[0].out_port, 4);

    // --- 3. A short network simulation (mesh 8x8, 2x1x2 VCs) -------------
    let cfg = SimConfig {
        injection_rate: 0.15,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
    };
    let r = run_sim_engine(&cfg, 1_000, 4_000, Engine::Sequential);
    println!(
        "\nmesh 2x1x2 @ 0.15 flits/cycle/node: avg latency {:.1} cycles, throughput {:.3}, stable={}",
        r.avg_latency, r.throughput, r.stable
    );
    println!(
        "speculation: {} clean grants, {} masked, {} invalid",
        r.router_stats.spec_grants, r.router_stats.spec_masked, r.router_stats.spec_invalid
    );
}
