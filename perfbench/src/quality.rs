//! The open-loop quality workload (Figs. 7 and 12): seeded random request
//! sets on all six design points, allocated by the dense VC allocators and
//! the switch allocators and scored against maximum size. No network runs.
//!
//! A round runs every allocator over every request set after `reset`, so
//! each round must produce the grant counts of the first. After the timed
//! window one more round captures the grants and checks them against this
//! benchmark's own matching rules and maximum-matching oracle.

use crate::check::{matches_recorded, sw_grants, sw_max, vc_grants, vc_max};
use crate::host::HostSpeed;
use crate::trace::{median, overhead_share, Tracer};
use crate::{mix, Ctx, EndToEnd, Layers, Tally};
use noc_arbiter::ArbiterKind::RoundRobin;
use noc_core::{
    AllocatorKind, BitMatrix, DenseVcAllocator, OutVc, SwitchAllocator, SwitchAllocatorKind,
    SwitchGrant, SwitchRequests, VcAllocSpec, VcAllocator, VcRequest,
};
use noc_quality::sw_quality::{max_switch_grants, random_sw_requests};
use noc_quality::vc_quality::random_vc_requests;
use noc_quality::{sw_quality_curve, vc_quality_curve, SwQualityConfig, VcQualityConfig};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Request probabilities per input VC, from light load to every VC asking.
pub const RATES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
/// Request sets per rate, per design point and per allocator type.
const SETS_PER_RATE: usize = 16;
/// Trials per rate for the timed `vc_quality_curve`/`sw_quality_curve` calls.
const CURVE_TRIALS: usize = 20;

pub const VC_KINDS: [(AllocatorKind, &str); 4] = [
    (AllocatorKind::SepIfRr, "sep_if_rr"),
    (AllocatorKind::SepOfRr, "sep_of_rr"),
    (AllocatorKind::Wavefront, "wf"),
    (AllocatorKind::MaxSize, "maxsize"),
];
pub const SW_KINDS: [(SwitchAllocatorKind, &str); 3] = [
    (SwitchAllocatorKind::SepIf(RoundRobin), "sep_if_rr"),
    (SwitchAllocatorKind::SepOf(RoundRobin), "sep_of_rr"),
    (SwitchAllocatorKind::Wavefront, "wf"),
];

/// The paper's six design points, subfigures (a)–(f).
pub fn design_points() -> [(char, &'static str, VcAllocSpec); 6] {
    [
        ('a', "mesh_c1", VcAllocSpec::mesh(1)),
        ('b', "mesh_c2", VcAllocSpec::mesh(2)),
        ('c', "mesh_c4", VcAllocSpec::mesh(4)),
        ('d', "fbfly_c1", VcAllocSpec::fbfly(1)),
        ('e', "fbfly_c2", VcAllocSpec::fbfly(2)),
        ('f', "fbfly_c4", VcAllocSpec::fbfly(4)),
    ]
}

/// Design points whose allocator calls are reported per layer.
const REPORTED: [&str; 3] = ["mesh_c2", "fbfly_c2", "fbfly_c4"];

struct Point {
    name: &'static str,
    spec: VcAllocSpec,
    vc_sets: Vec<Vec<Option<VcRequest>>>,
    sw_sets: Vec<SwitchRequests>,
    free: BitMatrix,
    vca: Vec<DenseVcAllocator>,
    swa: Vec<Box<dyn SwitchAllocator + Send>>,
}

/// Generates one design point's request sets and builds its allocators.
fn point(seed: u64, d: usize, name: &'static str, spec: VcAllocSpec) -> Point {
    let (p, v) = (spec.ports(), spec.total_vcs());
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, d as u64));
    let (mut vc_sets, mut sw_sets) = (Vec::new(), Vec::new());
    for rate in RATES {
        for _ in 0..SETS_PER_RATE {
            vc_sets.push(random_vc_requests(&spec, &mut rng, rate));
            sw_sets.push(random_sw_requests(p, v, &mut rng, rate));
        }
    }
    let mut free = BitMatrix::new(p, v);
    for port in 0..p {
        for vc in 0..v {
            free.set(port, vc, true);
        }
    }
    Point {
        name,
        vca: VC_KINDS
            .iter()
            .map(|&(k, _)| DenseVcAllocator::new(spec.clone(), k))
            .collect(),
        swa: SW_KINDS.iter().map(|&(k, _)| k.build(p, v)).collect(),
        spec,
        vc_sets,
        sw_sets,
        free,
    }
}

fn setup(seed: u64) -> Vec<Point> {
    design_points()
        .into_iter()
        .enumerate()
        .map(|(d, (_, name, spec))| point(seed, d, name, spec))
        .collect()
}

/// Seconds to set up every design point again, one point at a time and
/// each dropped before the next, so that peak memory stays the workload's.
fn timed_setup(seed: u64) -> f64 {
    let mut secs = 0.0;
    for (d, (_, name, spec)) in design_points().into_iter().enumerate() {
        let t = Instant::now();
        let p = point(seed, d, name, spec);
        secs += t.elapsed().as_secs_f64();
        drop(p);
    }
    secs
}

fn sets_per_round(points: &[Point]) -> usize {
    points
        .iter()
        .map(|p| p.vc_sets.len() + p.sw_sets.len())
        .sum()
}

/// Span names for one point, in the order [`round`] uses its allocators.
fn span_names(t: &mut Tracer, p: &Point) -> Vec<u32> {
    let vc = VC_KINDS
        .iter()
        .map(|(_, k)| format!("vca_dense.{}.{k}", p.name));
    let sw = SW_KINDS.iter().map(|(_, k)| format!("swa.{}.{k}", p.name));
    let all: Vec<String> = vc.chain(sw).chain([format!("sw_max.{}", p.name)]).collect();
    all.iter().map(|n| t.name(n)).collect()
}

/// One round over every point; pushes one grant count per (allocator,
/// request set) into `counts` and each point's wall seconds into `secs`.
/// With `spans`, each allocator's pass over a point's request sets (the
/// calls and the counting of their grants) is one span whose count is the
/// number of calls.
fn round(
    points: &mut [Point],
    counts: &mut Vec<u32>,
    secs: &mut [f64],
    mut spans: Option<(&mut Tracer, &[Vec<u32>])>,
) {
    counts.clear();
    let mut vc_out: Vec<Option<OutVc>> = Vec::new();
    let mut sw_out: Vec<SwitchGrant> = Vec::new();
    let open = |spans: &mut Option<(&mut Tracer, &[Vec<u32>])>, d: usize, k: usize| {
        spans.as_mut().map(|(t, ids)| t.open(ids[d][k], None))
    };
    let close = |spans: &mut Option<(&mut Tracer, &[Vec<u32>])>, s: Option<usize>, n: usize| {
        if let (Some(s), Some((t, _))) = (s, spans.as_mut()) {
            t.close(s, n as u64);
        }
    };
    for (d, p) in points.iter_mut().enumerate() {
        let start = Instant::now();
        for (k, a) in p.vca.iter_mut().enumerate() {
            a.reset();
            let s = open(&mut spans, d, k);
            for set in &p.vc_sets {
                a.allocate_into(set, &p.free, &mut vc_out);
                counts.push(vc_out.iter().filter(|g| g.is_some()).count() as u32);
            }
            close(&mut spans, s, p.vc_sets.len());
        }
        for (k, a) in p.swa.iter_mut().enumerate() {
            a.reset();
            let s = open(&mut spans, d, VC_KINDS.len() + k);
            for set in &p.sw_sets {
                a.allocate_into(set, &mut sw_out);
                counts.push(sw_out.len() as u32);
            }
            close(&mut spans, s, p.sw_sets.len());
        }
        let s = open(&mut spans, d, VC_KINDS.len() + SW_KINDS.len());
        for set in &p.sw_sets {
            counts.push(max_switch_grants(set) as u32);
        }
        close(&mut spans, s, p.sw_sets.len());
        secs[d] = start.elapsed().as_secs_f64();
    }
}

/// For each count slot of [`round`], the index of its request set.
fn set_index(points: &[Point]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut base = 0;
    for p in points {
        let (nv, ns) = (p.vc_sets.len(), p.sw_sets.len());
        for _ in 0..VC_KINDS.len() {
            out.extend(base..base + nv);
        }
        for _ in 0..=SW_KINDS.len() {
            out.extend(base + nv..base + nv + ns);
        }
        base += nv + ns;
    }
    out
}

/// Re-runs one round keeping the grants and checks every request set:
/// grants form a valid matching, the max-size allocator reaches the
/// oracle's maximum, no allocator exceeds it, the counts equal `first`'s
/// and, for the default seed, the totals equal the recorded ones.
/// Returns which request sets failed.
fn verify(points: &mut [Point], first: &[u32], ctx: &Ctx) -> Vec<bool> {
    let mut bad = vec![false; sets_per_round(points)];
    let mut slot = 0;
    let mut base = 0;
    let mut vc_out = Vec::new();
    let mut sw_out = Vec::new();
    for p in points.iter_mut() {
        let (nv, ns) = (p.vc_sets.len(), p.sw_sets.len());
        let mut vc_counts = vec![vec![0usize; nv]; VC_KINDS.len()];
        for (k, a) in p.vca.iter_mut().enumerate() {
            a.reset();
            for (s, set) in p.vc_sets.iter().enumerate() {
                a.allocate_into(set, &p.free, &mut vc_out);
                match vc_grants(&p.spec, set, &vc_out) {
                    Some(n) if n as u32 == first[slot] => vc_counts[k][s] = n,
                    _ => bad[base + s] = true,
                }
                slot += 1;
            }
        }
        let mut sw_counts = vec![vec![0usize; ns]; SW_KINDS.len() + 1];
        for (k, a) in p.swa.iter_mut().enumerate() {
            a.reset();
            for (s, set) in p.sw_sets.iter().enumerate() {
                a.allocate_into(set, &mut sw_out);
                match sw_grants(set, &sw_out) {
                    Some(n) if n as u32 == first[slot] => sw_counts[k][s] = n,
                    _ => bad[base + nv + s] = true,
                }
                slot += 1;
            }
        }
        for (s, set) in p.sw_sets.iter().enumerate() {
            sw_counts[SW_KINDS.len()][s] = max_switch_grants(set);
            bad[base + nv + s] |= sw_counts[SW_KINDS.len()][s] as u32 != first[slot];
            slot += 1;
        }
        for (s, set) in p.vc_sets.iter().enumerate() {
            let max = vc_counts[VC_KINDS.len() - 1][s];
            bad[base + s] |= max != vc_max(&p.spec, set) || vc_counts.iter().any(|c| c[s] > max);
        }
        for (s, set) in p.sw_sets.iter().enumerate() {
            let max = sw_counts[SW_KINDS.len()][s];
            bad[base + nv + s] |= max != sw_max(set) || sw_counts.iter().any(|c| c[s] > max);
        }
        if ctx.default_seed() {
            let vc = VC_KINDS
                .iter()
                .zip(&vc_counts)
                .map(|((_, k), c)| (format!("vc.{k}"), c));
            let sw_names = SW_KINDS
                .iter()
                .map(|(_, k)| format!("sw.{k}"))
                .chain(["sw.max".to_string()]);
            let sw = sw_names.zip(&sw_counts);
            for (kind, c) in vc.chain(sw) {
                let total: usize = c.iter().sum();
                if !matches_recorded(&format!("quality.{}.{kind}", p.name), total as u64) {
                    bad[base..base + nv + ns].fill(true);
                }
            }
        }
        base += nv + ns;
    }
    bad
}

/// Untraced run: rounds until the time is spent, generating the inputs
/// once more between rounds as a timed set-up. Every time is nominal (see
/// [`HostSpeed`]); each design point's batch and the set-up are reported
/// at their median over the run.
pub fn run(ctx: &Ctx) -> EndToEnd {
    let mut host = HostSpeed::new();
    let t = Instant::now();
    let mut points = setup(ctx.seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64() * host.factor()];
    let sets = sets_per_round(&points);
    let slots = set_index(&points);
    let (mut counts, mut first) = (Vec::new(), Vec::new());
    let mut secs = vec![0.0; points.len()];
    let mut point_ms = vec![Vec::new(); points.len()];
    let mut mismatched = vec![0u64; sets];
    let mut rounds = 0;
    let start = Instant::now();
    while start.elapsed() < ctx.seconds {
        round(&mut points, &mut counts, &mut secs, None);
        let factor = host.factor();
        for (ms, s) in point_ms.iter_mut().zip(&secs) {
            ms.push(s * 1e3 * factor);
        }
        rounds += 1;
        if first.is_empty() {
            first = counts.clone();
        }
        let mut round_bad = vec![false; sets];
        for (i, (c, f)) in counts.iter().zip(&first).enumerate() {
            round_bad[slots[i]] |= c != f;
        }
        for (m, b) in mismatched.iter_mut().zip(round_bad) {
            *m += u64::from(b);
        }
        let s = timed_setup(ctx.seed);
        setup_s.push(s * host.factor());
    }
    let bad = verify(&mut points, &first, ctx);
    let failed = bad
        .iter()
        .zip(&mismatched)
        .map(|(&b, &m)| if b { rounds } else { m })
        .sum();
    let op_ms: Vec<f64> = point_ms.iter().map(|v| median(v)).collect();
    EndToEnd {
        tally: Tally {
            attempted: rounds * sets as u64,
            failed,
        },
        work_per_s: sets as f64 / (op_ms.iter().sum::<f64>() / 1e3),
        work_alias: "allocs_per_s",
        op_ms,
        op_alias: "design_point",
        setup_s: median(&setup_s),
        engine: "none",
        threads: 1,
        runs: rounds as usize,
    }
}

/// Traced run: traced rounds while `budget` lasts (at least one), then
/// the quality-curve functions timed once per design point. Returns the
/// checks and the tracing overhead, which is the cost of a round's spans
/// over the median round's wall time.
pub fn traced(ctx: &Ctx, budget: Duration, t: &mut Tracer, layers: &mut Layers) -> (Tally, f64) {
    let mut points = setup(ctx.seed);
    let ids: Vec<Vec<u32>> = points.iter().map(|p| span_names(t, p)).collect();
    let sets = sets_per_round(&points) as u64;
    let mut tally = Tally::default();
    let (mut counts, mut first) = (Vec::new(), Vec::new());
    let mut round_ns = Vec::new();
    let mut spans = 0;
    let mut secs = vec![0.0; points.len()];
    let start = Instant::now();
    while round_ns.is_empty() || start.elapsed() < budget {
        let before = t.len();
        let t0 = Instant::now();
        round(
            &mut points,
            &mut counts,
            &mut secs,
            Some((&mut *t, &ids[..])),
        );
        round_ns.push(t0.elapsed().as_nanos() as f64);
        spans = t.len() - before;
        if first.is_empty() {
            first = counts.clone();
        }
        tally.attempted += sets;
        tally.failed += u64::from(counts != first) * sets;
    }
    let overhead = overhead_share(spans, median(&round_ns));
    let bad = verify(&mut points, &first, ctx);
    tally.attempted += sets;
    tally.failed += bad.iter().filter(|&&b| b).count() as u64;
    for p in points.iter().filter(|p| REPORTED.contains(&p.name)) {
        for (_, k) in VC_KINDS {
            let us = t.ns_per_unit(&format!("vca_dense.{}.{k}", p.name)) / 1e3;
            layers.insert(format!("core.vca_dense_us.{}.{k}", p.name), (us, "us"));
        }
        for (_, k) in SW_KINDS {
            let us = t.ns_per_unit(&format!("swa.{}.{k}", p.name)) / 1e3;
            layers.insert(format!("core.swa_us.{}.{k}", p.name), (us, "us"));
        }
    }
    for (d, (tag, _, spec)) in design_points().into_iter().enumerate() {
        let vc_cfg = VcQualityConfig {
            spec: spec.clone(),
            trials: CURVE_TRIALS,
            seed: mix(ctx.seed, 100 + d as u64),
        };
        let sw_cfg = SwQualityConfig {
            ports: spec.ports(),
            vcs: spec.total_vcs(),
            trials: CURVE_TRIALS,
            seed: mix(ctx.seed, 200 + d as u64),
        };
        let (vc_name, sw_name) = (
            format!("quality.vca_curve_s.{tag}"),
            format!("quality.swa_curve_s.{tag}"),
        );
        let (vc_id, sw_id) = (t.name(&vc_name), t.name(&sw_name));
        let mut curves = Vec::new();
        for &(kind, _) in &VC_KINDS[..3] {
            curves.push(t.span(vc_id, None, || vc_quality_curve(&vc_cfg, kind, &RATES)));
        }
        for &(kind, _) in &SW_KINDS {
            curves.push(t.span(sw_id, None, || sw_quality_curve(&sw_cfg, kind, &RATES)));
        }
        for point in curves.iter().flat_map(|c| &c.points) {
            tally.attempted += 1;
            tally.failed += u64::from(point.grants > point.max_grants || point.max_grants == 0);
        }
        layers.insert(vc_name.clone(), (t.total(&vc_name).0 / 1e9, "s"));
        layers.insert(sw_name.clone(), (t.total(&sw_name).0 / 1e9, "s"));
    }
    (tally, overhead)
}
