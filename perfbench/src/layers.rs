//! The traced run: every per-layer metric, whichever workload is traced.
//!
//! The traced workload measures its own layers over the run's full time
//! and reports its tracing overhead. The layers it does not reach are
//! measured by short probes on seeded inputs, so every traced run reports
//! every metric. The arbiter and allocator micro-probes always run: their
//! widths and kinds cover design points no workload simulates.

use crate::check::vc_grants;
use crate::quality::{design_points, RATES};
use crate::sims::Curve;
use crate::trace::Tracer;
use crate::{mix, quality, serve, sims, Ctx, Layers, Tally};
use noc_arbiter::{ArbiterBank, ArbiterKind, Bits};
use noc_core::{AllocatorKind, BitMatrix, SparseVcAllocator, VcAllocator};
use noc_quality::vc_quality::random_vc_requests;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time of one micro-probe span.
const PROBE_TIME: Duration = Duration::from_millis(20);
const ARBITERS: [(ArbiterKind, &str); 2] =
    [(ArbiterKind::RoundRobin, "rr"), (ArbiterKind::Matrix, "m")];

/// Runs every layer measurement; returns the checks and the traced
/// workload's tracing overhead.
pub fn run_all(
    workload: &str,
    ctx: &Ctx,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<(Tally, f64), String> {
    let budget = |w: &str| {
        if w == workload {
            ctx.seconds
        } else {
            Duration::ZERO
        }
    };
    let mut tally = micro(ctx, t, layers);
    let curve = match workload {
        "mesh_curve" => Curve::mesh_curve(),
        "fbfly_wide" => Curve::fbfly_wide(),
        _ => Curve::probe(),
    };
    let (sim_tally, sim_overhead) = sims::traced(&curve, ctx, budget(curve.name), t, layers);
    let (q_tally, q_overhead) = quality::traced(ctx, budget("quality_open_loop"), t, layers);
    let (s_tally, s_overhead) = serve::traced(ctx, budget("serve_mixed"), t, layers)?;
    for part in [sim_tally, q_tally, s_tally] {
        tally.add(part);
    }
    let overhead = match workload {
        "quality_open_loop" => q_overhead,
        "serve_mixed" => s_overhead,
        _ => sim_overhead,
    };
    Ok((tally, overhead))
}

/// Times `pass`, which makes `calls` calls, in one span repeated until
/// [`PROBE_TIME`] has passed; returns nanoseconds per call.
fn batch(t: &mut Tracer, name: &str, calls: u64, mut pass: impl FnMut()) -> f64 {
    let id = t.name(name);
    let span = t.open(id, None);
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < PROBE_TIME {
        pass();
        n += calls;
    }
    t.close(span, n);
    t.ns_per_unit(name)
}

/// Arbiter picks, general allocators and sparse VC allocators on seeded
/// random inputs. Each probe's outputs are checked once before timing.
fn micro(ctx: &Ctx, t: &mut Tracer, layers: &mut Layers) -> Tally {
    let mut tally = Tally::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(ctx.seed, 300));
    for (kind, k) in ARBITERS {
        for w in [5usize, 10, 20, 40] {
            let words: Vec<u64> = (0..1024)
                .map(|_| (rng.next_u64() & ((1u64 << w) - 1)).max(1))
                .collect();
            let mut bank = ArbiterBank::new(kind, 8, w);
            for (i, &r) in words.iter().enumerate() {
                let win = bank.arbitrate(i % 8, r);
                tally.attempted += 1;
                tally.failed += u64::from(win.is_none_or(|x| r >> x & 1 == 0));
                if let Some(x) = win {
                    bank.update(i % 8, x);
                }
            }
            let ns = batch(
                t,
                &format!("arbiter.bank_ns.{k}.w{w}"),
                words.len() as u64,
                || {
                    for (i, &r) in words.iter().enumerate() {
                        if let Some(x) = bank.arbitrate(i % 8, black_box(r)) {
                            bank.update(i % 8, black_box(x));
                        }
                    }
                },
            );
            layers.insert(format!("arbiter.bank_ns.{k}.w{w}"), (ns, "ns"));
        }
        for w in [80usize, 160] {
            let reqs: Vec<Bits> = (0..256)
                .map(|_| {
                    let mut idx: Vec<usize> = (0..w).filter(|_| rng.gen_bool(0.3)).collect();
                    idx.push(rng.gen_range(0..w));
                    Bits::from_indices(w, idx)
                })
                .collect();
            let mut arb = kind.build(w);
            for r in &reqs {
                let win = arb.arbitrate(r);
                tally.attempted += 1;
                tally.failed += u64::from(win.is_none_or(|x| !r.get(x)));
                if let Some(x) = win {
                    arb.update(x);
                }
            }
            let ns = batch(
                t,
                &format!("arbiter.boxed_ns.{k}.w{w}"),
                reqs.len() as u64,
                || {
                    for r in &reqs {
                        if let Some(x) = arb.arbitrate(black_box(r)) {
                            arb.update(black_box(x));
                        }
                    }
                },
            );
            layers.insert(format!("arbiter.boxed_ns.{k}.w{w}"), (ns, "ns"));
        }
    }
    for w in [10usize, 40, 80, 160] {
        let reqs: Vec<BitMatrix> = (0..64)
            .map(|_| {
                let mut m = BitMatrix::new(w, w);
                for r in 0..w {
                    for c in 0..w {
                        if rng.gen_bool(0.2) {
                            m.set(r, c, true);
                        }
                    }
                }
                m
            })
            .collect();
        for (kind, k) in [
            (AllocatorKind::SepIfMatrix, "sep_if_m"),
            (AllocatorKind::SepIfRr, "sep_if_rr"),
            (AllocatorKind::SepOfMatrix, "sep_of_m"),
            (AllocatorKind::SepOfRr, "sep_of_rr"),
            (AllocatorKind::Wavefront, "wf"),
        ] {
            let mut alloc = kind.build(w, w);
            let mut grants = BitMatrix::new(w, w);
            for r in &reqs {
                alloc.allocate_into(r, &mut grants);
                tally.attempted += 1;
                tally.failed += u64::from(!is_matching(r, &grants, w));
            }
            let ns = batch(
                t,
                &format!("core.alloc_ns.{k}.w{w}"),
                reqs.len() as u64,
                || {
                    for r in &reqs {
                        alloc.allocate_into(black_box(r), &mut grants);
                    }
                },
            );
            layers.insert(format!("core.alloc_ns.{k}.w{w}"), (ns, "ns"));
        }
    }
    for (_, name, spec) in design_points()
        .into_iter()
        .filter(|(_, n, _)| ["mesh_c2", "fbfly_c2", "fbfly_c4"].contains(n))
    {
        let sets: Vec<_> = RATES
            .iter()
            .flat_map(|&rate| {
                (0..8)
                    .map(|_| random_vc_requests(&spec, &mut rng, rate))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut free = BitMatrix::new(spec.ports(), spec.total_vcs());
        for p in 0..spec.ports() {
            for v in 0..spec.total_vcs() {
                free.set(p, v, true);
            }
        }
        for (kind, k) in [
            (AllocatorKind::SepIfRr, "sep_if_rr"),
            (AllocatorKind::SepOfRr, "sep_of_rr"),
            (AllocatorKind::Wavefront, "wf"),
        ] {
            let mut alloc = SparseVcAllocator::new(spec.clone(), kind);
            let mut out = Vec::new();
            for set in &sets {
                alloc.allocate_into(set, &free, &mut out);
                tally.attempted += 1;
                tally.failed += u64::from(vc_grants(&spec, set, &out).is_none());
            }
            let ns = batch(
                t,
                &format!("core.vca_sparse_us.{name}.{k}"),
                sets.len() as u64,
                || {
                    for set in &sets {
                        alloc.allocate_into(black_box(set), &free, &mut out);
                    }
                },
            );
            layers.insert(format!("core.vca_sparse_us.{name}.{k}"), (ns / 1e3, "us"));
        }
    }
    tally
}

/// Grants are a subset of requests with at most one per row and column.
fn is_matching(requests: &BitMatrix, grants: &BitMatrix, w: usize) -> bool {
    let mut cols = vec![false; w];
    (0..w).all(|r| {
        let row: Vec<usize> = (0..w).filter(|&c| grants.get(r, c)).collect();
        row.len() <= 1
            && row
                .iter()
                .all(|&c| requests.get(r, c) && !std::mem::replace(&mut cols[c], true))
    })
}
