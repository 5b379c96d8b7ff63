//! Torus dateline-routing extension (§4.2's other resource-class example):
//! topology, routing and full-network behaviour.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use noc_sim::packet::RouteState;
use noc_sim::routing::{route_at, RoutingKind};
use noc_sim::{run_sim_engine, Engine, Network, SimConfig, Topology, TopologyKind};

#[test]
fn torus_links_are_symmetric_and_complete() {
    let t = TopologyKind::Torus8x8.build();
    assert_eq!(t.num_routers(), 64);
    for r in 0..64 {
        for p in 1..5 {
            let l = t.link(r, p).expect("every torus port connected");
            assert_eq!(l.latency, 1);
            let back = t.link(l.to_router, l.to_port).unwrap();
            assert_eq!((back.to_router, back.to_port), (r, p));
        }
    }
    // Wraparound: router 7 (x=7,y=0) +x reaches router 0.
    assert_eq!(t.link(7, 1).unwrap().to_router, 0);
    assert_eq!(t.link(0, 2).unwrap().to_router, 7);
}

#[test]
fn torus_min_hops_uses_wraparound() {
    let t = TopologyKind::Torus8x8.build();
    // Corner to corner: 2 hops via wrap instead of 14.
    assert_eq!(t.min_hops(0, 63), 2);
    assert_eq!(t.min_hops(0, 36), 8); // (4,4): max distance
}

/// Walk a packet through the torus, collecting routers and VC classes.
fn walk(topo: &Topology, src: usize, dest: usize) -> (Vec<usize>, Vec<usize>) {
    let (mut r, _) = topo.terminal_attach(src);
    let mut state = RouteState::default();
    let mut path = vec![r];
    let mut classes = Vec::new();
    for _ in 0..40 {
        let (la, s) = route_at(topo, RoutingKind::TorusDateline, r, dest, state);
        state = s;
        classes.push(la.resource_class);
        if let Some(t) = topo.port_terminal(r, la.out_port) {
            assert_eq!(t, dest);
            return (path, classes);
        }
        r = topo.link(r, la.out_port).unwrap().to_router;
        path.push(r);
    }
    panic!("routing loop from {src} to {dest}");
}

#[test]
fn torus_routing_is_minimal_for_all_pairs() {
    let topo = TopologyKind::Torus8x8.build();
    for src in [0usize, 5, 27, 63] {
        for dest in 0..64 {
            if src == dest {
                continue;
            }
            let (path, _) = walk(&topo, src, dest);
            assert_eq!(
                path.len() - 1,
                topo.min_hops(src, dest),
                "{src}->{dest}: {path:?}"
            );
        }
    }
}

#[test]
fn dateline_class_transitions_follow_the_discipline() {
    let topo = TopologyKind::Torus8x8.build();
    // 6 -> 1 in the same row: +x over the wrap; classes 0 (pre-dateline)
    // then 1 after crossing x=7 -> x=0.
    let (path, classes) = walk(&topo, 6, 1);
    assert_eq!(path, vec![6, 7, 0, 1]);
    // Hops: 6->7 pre (0), 7->0 crossing (1), 0->1 post (1), eject.
    assert_eq!(&classes[..3], &[0, 1, 1]);

    // Cross in x, then route in y without wrap: class resets to 0.
    // src terminal 6 (x=6,y=0) -> dest (x=1, y=2) = router 17.
    let (_, classes) = walk(&topo, 6, 17);
    // x hops: 6->7 (0), 7->0 (1), 0->1 (1); y hops 1->9 (0), 9->17 (0).
    assert_eq!(&classes[..5], &[0, 1, 1, 0, 0]);

    // No wrap at all: all class 0 until ejection.
    let (_, classes) = walk(&topo, 0, 2);
    assert_eq!(&classes[..2], &[0, 0]);
}

#[test]
fn torus_network_delivers_and_drains() {
    for c in [1usize, 2] {
        let mut net = Network::new(SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::Torus8x8, c)
        });
        net.stats.set_window(0, u64::MAX);
        net.run(2_500);
        assert!(net.total_flits_injected() > 1_000);
        net.config_mut().injection_rate = 0.0;
        let mut drained = false;
        for _ in 0..5_000 {
            net.step();
            if net.is_drained() {
                drained = true;
                break;
            }
        }
        assert!(drained, "torus C={c} failed to drain");
        assert_eq!(net.total_flits_injected(), net.stats.flits_ejected);
    }
}

#[test]
fn torus_beats_mesh_on_latency_and_saturation() {
    // Half the average distance -> lower zero-load latency; doubled
    // bisection -> higher saturation.
    let mesh = run_sim_engine(
        &SimConfig {
            injection_rate: 0.02,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        },
        1_500,
        5_000,
        Engine::Sequential,
    );
    let torus = run_sim_engine(
        &SimConfig {
            injection_rate: 0.02,
            ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 2)
        },
        1_500,
        5_000,
        Engine::Sequential,
    );
    assert!(
        torus.avg_latency < mesh.avg_latency,
        "torus {} !< mesh {}",
        torus.avg_latency,
        mesh.avg_latency
    );
    // At a load the mesh cannot sustain, the torus still can.
    let hot = SimConfig {
        injection_rate: 0.5,
        ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 2)
    };
    let r = run_sim_engine(&hot, 2_000, 4_000, Engine::Sequential);
    assert!(
        r.stable,
        "torus should sustain 0.5 flits/cycle/node uniform"
    );
}

#[test]
fn torus_high_load_no_deadlock_with_single_vc_per_class() {
    // The dateline discipline is what makes C=1 deadlock-free on rings;
    // run well above saturation and confirm forward progress throughout.
    let mut net = Network::new(SimConfig {
        injection_rate: 0.9,
        ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 1)
    });
    net.stats.set_window(0, u64::MAX);
    let mut last = 0;
    for _ in 0..6 {
        net.run(1_000);
        let now = net.stats.packets;
        assert!(now > last, "no forward progress: {last} -> {now}");
        last = now;
    }
}
