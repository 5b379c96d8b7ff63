//! Design-space walkthrough for one router configuration: the complete
//! §4/§5 methodology on a single design point — hardware cost (delay,
//! area, power) from the synthesis model, matching quality from the
//! open-loop harness, and network-level impact from the simulator.
//!
//! Run with `cargo run --release --example design_space [mesh|fbfly] [C]`.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind, VcAllocSpec};
use noc_hw::builders::sw_alloc::synthesize_switch_allocator;
use noc_hw::builders::vc_alloc::synthesize_vc_allocator;
use noc_hw::Synthesizer;
use noc_quality::{vc_quality_curve, VcQualityConfig};
use noc_sim::{run_sim_engine, Engine, SimConfig, TopologyKind};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fbfly = args.get(1).map(String::as_str) == Some("fbfly");
    let c: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let (spec, topo) = if fbfly {
        (VcAllocSpec::fbfly(c), TopologyKind::FlattenedButterfly4x4)
    } else {
        (VcAllocSpec::mesh(c), TopologyKind::Mesh8x8)
    };
    println!(
        "design point: {} {} (P={}, V={})\n",
        topo.label(),
        spec.label(),
        spec.ports(),
        spec.total_vcs()
    );

    // --- 1. VC allocator cost: dense vs sparse ---------------------------
    let synth = Synthesizer::default();
    println!("VC allocator synthesis (45nm-LP-like model):");
    for kind in [AllocatorKind::SepIfRr, AllocatorKind::Wavefront] {
        for sparse in [false, true] {
            let tag = format!(
                "{} {}",
                kind.label(),
                if sparse { "sparse" } else { "dense" }
            );
            match synthesize_vc_allocator(&synth, &spec, kind, sparse) {
                Ok(r) => println!(
                    "  {tag:<18} {:>6.3} ns {:>9.0} um2 {:>7.2} mW ({} cells)",
                    r.delay_ns,
                    r.area_um2,
                    r.power_mw,
                    r.cells + r.dffs
                ),
                Err(e) => println!("  {tag:<18} {e}"),
            }
        }
    }

    // --- 2. Switch allocator cost across speculation schemes -------------
    println!("\nswitch allocator synthesis (sep_if/rr):");
    let sa = SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin);
    for mode in SpecMode::ALL {
        let r = synthesize_switch_allocator(&synth, sa, spec.ports(), spec.total_vcs(), mode)
            .expect("switch allocators are small");
        println!(
            "  {:<10} {:>6.3} ns {:>9.0} um2 {:>7.2} mW",
            mode.label(),
            r.delay_ns,
            r.area_um2,
            r.power_mw
        );
    }

    // --- 3. Matching quality at full request rate ------------------------
    println!("\nVC-allocation matching quality at rate 1.0 (open loop):");
    let qcfg = VcQualityConfig {
        spec: spec.clone(),
        trials: 2_000,
        seed: 1,
    };
    for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
        let q = vc_quality_curve(&qcfg, kind, &[1.0]).points[0].quality();
        println!("  {:<8} {q:.3}", kind.family());
    }

    // --- 4. Network-level check ------------------------------------------
    let cfg = SimConfig {
        injection_rate: 0.2,
        ..SimConfig::paper_baseline(topo, c)
    };
    let r = run_sim_engine(&cfg, 2_000, 5_000, Engine::Sequential);
    println!(
        "\nnetwork @ 0.2 flits/cycle/terminal: {:.1} cycles avg latency (requests {:.1}, replies {:.1})",
        r.avg_latency, r.request_latency, r.reply_latency
    );
}
