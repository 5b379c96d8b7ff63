//! Input-queued VC router with the paper's two-stage pipeline (§3.2).
//!
//! Stage 1 performs VC allocation and (speculative) switch allocation in
//! parallel; stage 2 is switch traversal. Lookahead routing is modeled by
//! computing each head flit's next-hop routing decision while it traverses
//! the switch, so the decision is already available when it arrives
//! downstream. Buffers are statically partitioned, eight flits per VC, with
//! credit-based flow control.

use crate::packet::Flit;
use crate::routing::{route_at, RoutingKind};
use crate::topology::Topology;
use crate::verify::InvariantChecker;
use noc_arbiter::Bits;
use noc_core::{
    AllocatorKind, BitMatrix, DenseVcAllocator, OutVc, SparseVcAllocator, SpecAllocResult,
    SpecMode, SpeculativeSwitchAllocator, SwitchAllocatorKind, SwitchRequests, VcAllocSpec,
    VcAllocator, VcRequest,
};
use noc_obs::{
    FlitEvent, FlitEventKind, HopRecord, NopProfiler, NopSink, Phase, PhaseProfiler,
    RouterCounters, RouterObs, TraceSink,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Router microarchitecture configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// VC class structure (also fixes the port count).
    pub spec: VcAllocSpec,
    /// Buffer depth per VC in flits (the paper uses 8).
    pub buf_depth: usize,
    /// VC allocator architecture.
    pub vca_kind: AllocatorKind,
    /// Use the sparse VC allocator organization (§4.2).
    pub vca_sparse: bool,
    /// Switch allocator architecture.
    pub sa_kind: SwitchAllocatorKind,
    /// Speculation scheme (§5.2).
    pub spec_mode: SpecMode,
    /// Routing algorithm (used for lookahead computation).
    pub routing: RoutingKind,
}

impl RouterConfig {
    /// The paper's default router for a topology: separable input-first VC
    /// allocator (§5.3.3), separable input-first switch allocator,
    /// pessimistic speculation, 8-flit buffers.
    pub fn paper_default(spec: VcAllocSpec, routing: RoutingKind) -> Self {
        RouterConfig {
            spec,
            buf_depth: 8,
            vca_kind: AllocatorKind::SepIfRr,
            vca_sparse: true,
            sa_kind: SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
            spec_mode: SpecMode::Pessimistic,
            routing,
        }
    }
}

// Per-output-VC state is kept struct-of-arrays on [`Router`]
// (`out_owner` / `out_credits` / `free_out`): the credit-gating sweep of
// stage 1b touches only credits and the VC-allocation free map touches only
// ownership, so splitting the former `{owner, credits}` array-of-structs
// halves the bytes each hot loop pulls through the cache and lets the free
// map live as a bit matrix the allocator kernels consume directly.

/// A flit leaving the router this cycle.
#[derive(Clone, Debug)]
pub struct OutgoingFlit {
    /// Output port.
    pub port: usize,
    /// VC at that output (downstream input VC index).
    pub vc: usize,
    /// The flit itself (lookahead fields updated).
    pub flit: Flit,
}

/// Products of one router cycle, for the network to distribute.
#[derive(Clone, Debug, Default)]
pub struct RouterOutputs {
    /// Flits entering links this cycle.
    pub flits: Vec<OutgoingFlit>,
    /// Credits to return upstream: `(input port, input VC)` slots freed.
    pub credits: Vec<(usize, usize)>,
    /// Hop-attribution records for head flits that traversed the switch
    /// this cycle (empty unless the packet ledger is enabled). Drained by
    /// the network's commit phase in router-id order, which is what makes
    /// anatomy dumps byte-identical across engines.
    pub hops: Vec<HopRecord>,
}

impl RouterOutputs {
    /// Output lists pre-sized to the per-cycle worst case — one switch
    /// traversal (flit + credit + hop record) per output port — so a
    /// steady-state engine reusing the buffers never reallocates them.
    pub fn with_capacity(ports: usize) -> Self {
        RouterOutputs {
            flits: Vec::with_capacity(ports),
            credits: Vec::with_capacity(ports),
            hops: Vec::with_capacity(ports),
        }
    }

    /// Empties all lists, keeping their capacity for reuse next cycle.
    pub fn clear(&mut self) {
        self.flits.clear();
        self.credits.clear();
        self.hops.clear();
    }

    /// True when the cycle produced neither flits nor credits (a hop
    /// record always accompanies a departing flit, so it needs no check).
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty()
    }
}

/// Reusable per-cycle buffers for the router hot path. Everything a step
/// needs — stall-attribution flags, VC-allocation requests and grants, the
/// free-VC map, switch request matrices and grant lists — lives here, so
/// steady-state stepping performs no heap allocation.
struct StepScratch {
    /// Input VCs that pushed a flit into the switch this cycle. These six
    /// per-input-VC flag sets are bit masks rather than `Vec<bool>`: one
    /// `P*V`-wide [`Bits`] (inline words, no heap indirection) per flag
    /// keeps the whole stall-attribution state in a couple of cache lines.
    moved: Bits,
    /// Input VCs granted an output VC this cycle.
    va_winner: Bits,
    /// Input VCs whose non-speculative bid was blocked on credits.
    credit_blocked: Bits,
    /// Input VCs that issued a non-speculative switch request.
    bid: Bits,
    /// Input VCs that issued a speculative switch request.
    spec_bid: Bits,
    /// Input VCs that won the switch for next cycle.
    granted: Bits,
    /// VC-allocation request per input VC (live entries recycled through
    /// `spare_reqs` so their `classes` vectors keep their allocation).
    vca_reqs: Vec<Option<VcRequest>>,
    spare_reqs: Vec<VcRequest>,
    /// VC-allocation grants (filled by `allocate_into`).
    vca_grants: Vec<Option<OutVc>>,
    /// Non-speculative and speculative switch request matrices.
    nonspec: SwitchRequests,
    spec: SwitchRequests,
    /// Speculative switch allocation result (filled by `allocate_into`).
    sa_result: SpecAllocResult,
    /// Swap buffer for the ST stage so `st_stage` keeps its capacity.
    st_prev: Vec<(usize, usize)>,
}

impl StepScratch {
    fn new(ports: usize, vcs: usize) -> Self {
        let n = ports * vcs;
        StepScratch {
            moved: Bits::new(n),
            va_winner: Bits::new(n),
            credit_blocked: Bits::new(n),
            bid: Bits::new(n),
            spec_bid: Bits::new(n),
            granted: Bits::new(n),
            vca_reqs: vec![None; n],
            // Pre-primed pool: at most one live request per input VC, and
            // each request carries at most `vcs` candidate classes, so the
            // steady-state loop never grows these vectors.
            spare_reqs: (0..n)
                .map(|_| VcRequest {
                    out_port: 0,
                    classes: Vec::with_capacity(vcs),
                })
                .collect(),
            vca_grants: Vec::new(),
            nonspec: SwitchRequests::new(ports, vcs),
            spec: SwitchRequests::new(ports, vcs),
            sa_result: SpecAllocResult::with_capacity(ports),
            st_prev: Vec::with_capacity(ports),
        }
    }
}

/// Opt-in matching-quality sampler: every `period` cycles, compares the
/// switch grants actually issued against an exact maximum matching of the
/// same cycle's port-level request matrix. The accumulated ratio
/// `granted / max` is the allocator's *matching efficiency* — the metric
/// the paper's Figure 4 uses to separate wavefront from separable
/// allocators, here observable live on a running network. Sampling (rather
/// than evaluating every cycle) keeps the Hopcroft-Karp-style augmenting
/// search off the hot path; `period` is chosen by the telemetry layer.
#[derive(Clone, Debug)]
struct MatchSampler {
    /// Sample cadence in cycles.
    period: u64,
    /// Switch grants issued on sampled cycles (cumulative).
    granted: u64,
    /// Maximum-matching sizes on sampled cycles (cumulative).
    max: u64,
    /// Reusable port-level request matrix (union of non-speculative and
    /// speculative requests).
    req: BitMatrix,
}

/// Per-input-VC stage accumulator for the packet ledger: how many cycles
/// the head flit currently at (or headed for) the front of the VC has been
/// charged to each pipeline stage.
#[derive(Clone, Copy, Debug, Default)]
struct HopAcc {
    vca: u64,
    sa: u64,
    credit: u64,
    active: u64,
}

/// Opt-in per-packet latency ledger (the substrate of `noc explain`):
/// arrival cycles of buffered head flits plus a stage accumulator per
/// input VC. Disabled (`None` on [`Router::anatomy`]) it costs one branch
/// per cycle, mirroring the [`MatchSampler`] pattern; the [`Flit`] struct
/// itself stays untouched.
#[derive(Clone, Debug)]
struct RouterAnatomy {
    /// Arrival cycle of each buffered head flit, `[port * V + vc]`, FIFO
    /// (a VC never reorders packets, so pops match pushes).
    arrivals: Vec<VecDeque<u64>>,
    /// Stage accumulator per input VC for the head flit at the front.
    acc: Vec<HopAcc>,
}

/// Counters for the speculation-efficiency analysis (§5.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    /// Switch grants to non-speculative requests.
    pub nonspec_grants: u64,
    /// Speculative grants that survived masking and validation.
    pub spec_grants: u64,
    /// Speculative grants discarded by the masking stage.
    pub spec_masked: u64,
    /// Speculative grants that survived masking but failed validation
    /// (VC allocation lost or no credit).
    pub spec_invalid: u64,
    /// Speculative switch requests issued (one per head flit per cycle in
    /// which it bid for the switch alongside VC allocation). Every
    /// speculative request either loses switch arbitration outright or
    /// lands in exactly one of `spec_grants`, `spec_masked`,
    /// `spec_invalid`, so their sum never exceeds this.
    pub spec_requests: u64,
    /// VC allocation grants.
    pub vca_grants: u64,
    /// VC allocation requests (one per head flit per cycle spent waiting);
    /// `vca_requests / vca_grants - 1` is the average number of retry
    /// cycles per packet — the "time head flits have to wait before being
    /// assigned an output VC" of §1.
    pub vca_requests: u64,
}

/// One router instance.
pub struct Router {
    /// Router id (index in the topology).
    pub id: usize,
    cfg: RouterConfig,
    ports: usize,
    vcs: usize,
    /// Input buffers, `[port * V + vc]`.
    in_buf: Vec<VecDeque<Flit>>,
    /// Output VC held by each input VC (flat output id), if any.
    in_out_vc: Vec<Option<usize>>,
    /// Input VC currently holding each output VC, `[port * V + vc]`
    /// (struct-of-arrays with `out_credits` / `free_out`).
    out_owner: Vec<Option<u32>>,
    /// Credits per output VC: free buffer slots in the downstream input VC.
    out_credits: Vec<u32>,
    /// Free output-VC map — bit `(p, vc)` set iff `out_owner[p * V + vc]`
    /// is `None`. Maintained incrementally at grant and tail-release so VC
    /// allocation reads it directly instead of rebuilding it every cycle.
    free_out: BitMatrix,
    vca: Box<dyn VcAllocator + Send>,
    sa: SpeculativeSwitchAllocator,
    /// Switch grants issued last cycle, traversing this cycle:
    /// `(input flat id, output port)`.
    st_stage: Vec<(usize, usize)>,
    /// Reusable per-cycle buffers.
    scratch: StepScratch,
    /// Cycles the active-set engine skipped this router for, still owed to
    /// the per-VC `empty` stall counters (reconciled lazily by
    /// [`Router::flush_skipped`]).
    skipped_cycles: u64,
    /// Statistics.
    pub stats: RouterStats,
    /// Always-on observability counters (per-port flit counts and
    /// per-input-VC stall-cause attribution).
    pub obs: RouterObs,
    /// Matching-quality sampler; `None` (the default) costs one branch per
    /// cycle.
    match_sampler: Option<MatchSampler>,
    /// Packet-ledger state; `None` (the default) costs one branch per
    /// cycle plus one per accepted head flit.
    anatomy: Option<RouterAnatomy>,
    /// Test-only failure injection: panic when stepped at this cycle.
    /// `None` in all production paths; costs one comparison per step.
    test_panic_at: Option<u64>,
}

impl Router {
    /// Arms a one-shot injected panic: the router panics when stepped at
    /// `cycle`. Exists solely for the engine panic-safety regression
    /// tests (`crates/sim/tests/par_panic.rs`).
    #[doc(hidden)]
    pub fn arm_test_panic(&mut self, cycle: u64) {
        self.test_panic_at = Some(cycle);
    }

    /// Creates a router with empty buffers and full credits.
    pub fn new(id: usize, cfg: RouterConfig) -> Self {
        let ports = cfg.spec.ports();
        let vcs = cfg.spec.total_vcs();
        let n = ports * vcs;
        let vca: Box<dyn VcAllocator + Send> = if cfg.vca_sparse {
            Box::new(SparseVcAllocator::new(cfg.spec.clone(), cfg.vca_kind))
        } else {
            Box::new(DenseVcAllocator::new(cfg.spec.clone(), cfg.vca_kind))
        };
        let sa = SpeculativeSwitchAllocator::new(cfg.sa_kind, ports, vcs, cfg.spec_mode);
        Router {
            id,
            ports,
            vcs,
            // Pre-sized to the credit limit: the overflow assertion in
            // `accept_flit` bounds occupancy at `buf_depth`, so these never
            // reallocate and the steady state stays allocation-free.
            in_buf: (0..n)
                .map(|_| VecDeque::with_capacity(cfg.buf_depth))
                .collect(),
            in_out_vc: vec![None; n],
            out_owner: vec![None; n],
            out_credits: vec![cfg.buf_depth as u32; n],
            free_out: {
                let mut free = BitMatrix::new(ports, vcs);
                for p in 0..ports {
                    for vc in 0..vcs {
                        free.set(p, vc, true);
                    }
                }
                free
            },
            vca,
            sa,
            // At most one traversal per output port per cycle.
            st_stage: Vec::with_capacity(ports),
            scratch: StepScratch::new(ports, vcs),
            skipped_cycles: 0,
            stats: RouterStats::default(),
            obs: RouterObs::new(ports, vcs),
            match_sampler: None,
            anatomy: None,
            test_panic_at: None,
            cfg,
        }
    }

    /// Enables the packet ledger: per-hop stage attribution for every head
    /// flit passing through, emitted as [`HopRecord`]s on
    /// [`RouterOutputs::hops`] at switch traversal.
    pub fn enable_anatomy(&mut self) {
        let n = self.ports * self.vcs;
        self.anatomy = Some(RouterAnatomy {
            arrivals: (0..n).map(|_| VecDeque::new()).collect(),
            acc: vec![HopAcc::default(); n],
        });
    }

    /// Enables matching-quality sampling every `period` cycles (telemetry
    /// opt-in; see [`MatchSampler`]).
    pub fn enable_match_sampling(&mut self, period: u64) {
        assert!(period > 0, "matching sample period must be positive");
        self.match_sampler = Some(MatchSampler {
            period,
            granted: 0,
            max: 0,
            req: BitMatrix::new(self.ports, self.ports),
        });
    }

    /// Ports on this router.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// VCs per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Buffer occupancy (flits) in input VC `(port, vc)`.
    pub fn input_occupancy(&self, port: usize, vc: usize) -> usize {
        self.in_buf[port * self.vcs + vc].len()
    }

    /// Downstream occupancy estimate for UGAL: credits consumed across the
    /// VCs of `(msg_class, rc)` at `out_port`.
    pub fn output_occupancy(&self, out_port: usize, msg_class: usize, rc: usize) -> usize {
        let base = self.cfg.spec.class_base(msg_class, rc);
        (base..base + self.cfg.spec.vcs_per_class())
            .map(|v| self.cfg.buf_depth - self.out_credits[out_port * self.vcs + v] as usize)
            .sum()
    }

    /// Credits currently available at output VC `(port, vc)` — free buffer
    /// slots in the downstream input VC.
    pub fn output_credits(&self, port: usize, vc: usize) -> usize {
        self.out_credits[port * self.vcs + vc] as usize
    }

    /// Accepts a flit delivered by a link into input VC `(port, vc)` at
    /// cycle `now` (the arrival cycle feeds the packet ledger's hop spans;
    /// without the ledger it is unused).
    pub fn accept_flit(&mut self, port: usize, vc: usize, flit: Flit, now: u64) {
        let idx = port * self.vcs + vc;
        assert!(
            self.in_buf[idx].len() < self.cfg.buf_depth,
            "router {} input ({port},{vc}) overflow — credit protocol violated",
            self.id
        );
        if flit.head {
            if let Some(an) = &mut self.anatomy {
                an.arrivals[idx].push_back(now);
            }
        }
        self.in_buf[idx].push_back(flit);
    }

    /// Accepts a credit for output VC `(port, vc)`.
    pub fn accept_credit(&mut self, port: usize, vc: usize) {
        let c = &mut self.out_credits[port * self.vcs + vc];
        *c += 1;
        assert!(
            *c as usize <= self.cfg.buf_depth,
            "router {} credit overflow at ({port},{vc})",
            self.id
        );
    }

    /// Runs one cycle without tracing or profiling, returning a fresh
    /// output buffer (a convenience over [`Router::step_into`] for unit
    /// tests; the network engines reuse their buffers).
    pub fn step(&mut self, topo: &Topology, now: u64) -> RouterOutputs {
        let mut out = RouterOutputs::default();
        self.step_into(topo, now, &mut out, &mut NopSink, &mut NopProfiler);
        out
    }

    /// Core of one router cycle, writing this cycle's link flits and
    /// upstream credits into a caller-owned buffer (cleared first). All
    /// intermediate state lives in the router's scratch arena, so in steady
    /// state a step performs no heap allocation — the property the
    /// `step_cycle` microbenchmark tracks. The two-phase engines call this
    /// directly: it only mutates this router (and `out`), reading nothing
    /// from other routers, which is what makes the compute phase safe to run
    /// for all routers in parallel before any output is committed.
    pub fn step_into<S: TraceSink, P: PhaseProfiler>(
        &mut self,
        topo: &Topology,
        now: u64,
        out: &mut RouterOutputs,
        sink: &mut S,
        prof: &mut P,
    ) {
        if self.test_panic_at == Some(now) {
            panic!("injected router panic (router {} cycle {now})", self.id);
        }
        out.clear();
        self.flush_skipped();
        let v = self.vcs;
        let n = self.ports * v;
        let id = self.id as u32;
        let ev = move |kind, port: usize, vc: usize, f: &Flit| FlitEvent {
            cycle: now,
            kind,
            router: id,
            port: port as u16,
            vc: vc as u16,
            packet_id: f.packet_id,
            flit_index: f.flit_index as u32,
        };
        macro_rules! trace {
            ($kind:expr, $port:expr, $vc:expr, $flit:expr) => {
                if S::ACTIVE {
                    sink.record(ev($kind, $port, $vc, $flit));
                }
            };
        }

        // Input VCs that pushed a flit into the switch this cycle (for
        // stall attribution).
        self.scratch.moved.clear();

        // ---- Stage 2: switch traversal of last cycle's grants ----------
        let st_timer = P::ACTIVE.then(Instant::now);
        let mut route_nanos = 0u64;
        let mut route_events = 0u64;
        // Swap (not take) so both grant buffers keep their capacity.
        std::mem::swap(&mut self.st_stage, &mut self.scratch.st_prev);
        let st_flits = self.scratch.st_prev.len() as u64;
        for &(in_flat, out_port) in &self.scratch.st_prev {
            let Some(out_flat) = self.in_out_vc[in_flat] else {
                unreachable!("ST without an output VC")
            };
            debug_assert_eq!(out_flat / v, out_port);
            let Some(mut flit) = self.in_buf[in_flat].pop_front() else {
                unreachable!("ST grant with empty buffer")
            };
            assert!(
                self.out_credits[out_flat] > 0,
                "ST without downstream credit"
            );
            self.out_credits[out_flat] -= 1;
            out.credits.push((in_flat / v, in_flat % v));
            if flit.tail {
                self.out_owner[out_flat] = None;
                self.free_out.set(out_flat / v, out_flat % v, true);
                self.in_out_vc[in_flat] = None;
            }
            self.scratch.moved.set(in_flat, true);
            self.obs.out_flits[out_port] += 1;
            if flit.head {
                if let Some(an) = &mut self.anatomy {
                    // Close this head's hop ledger. The departure cycle
                    // itself is switch traversal (`+ 1`); cycles the head
                    // spent buffered behind an earlier packet were never
                    // classified (only the VC front is) and are
                    // head-of-line blocking — time waiting to even request
                    // an output VC — so the residual folds into `vca`.
                    let arrive = an.arrivals[in_flat].pop_front().unwrap_or(now);
                    let acc = std::mem::take(&mut an.acc[in_flat]);
                    let counted = acc.vca + acc.sa + acc.credit + acc.active + 1;
                    let span = now - arrive + 1;
                    debug_assert!(
                        counted <= span,
                        "router {}: hop ledger overcounted ({counted} > {span})",
                        self.id
                    );
                    out.hops.push(HopRecord {
                        packet_id: flit.packet_id,
                        router: id,
                        in_port: (in_flat / v) as u16,
                        in_vc: (in_flat % v) as u16,
                        arrive,
                        depart: now,
                        vca: acc.vca + (span - counted),
                        sa: acc.sa,
                        credit: acc.credit,
                        active: acc.active + 1,
                    });
                }
            }
            // Lookahead routing for the next router (head flits on network
            // links only; ejected flits need no further routing).
            if flit.head {
                if let Some(link) = topo.link(self.id, out_port) {
                    let route_timer = P::ACTIVE.then(Instant::now);
                    let (la, rs) = route_at(
                        topo,
                        self.cfg.routing,
                        link.to_router,
                        flit.dest,
                        flit.route_state,
                    );
                    if let Some(t) = route_timer {
                        route_nanos += t.elapsed().as_nanos() as u64;
                        route_events += 1;
                    }
                    flit.lookahead = la;
                    flit.route_state = rs;
                    if S::ACTIVE {
                        sink.record(FlitEvent {
                            router: link.to_router as u32,
                            ..ev(FlitEventKind::Route, la.out_port, 0, &flit)
                        });
                    }
                }
            }
            trace!(
                FlitEventKind::SwitchTraversal,
                out_port,
                out_flat % v,
                &flit
            );
            out.flits.push(OutgoingFlit {
                port: out_port,
                vc: out_flat % v,
                flit,
            });
        }
        self.scratch.st_prev.clear();
        if let Some(t) = st_timer {
            // Lookahead route computation happens *during* traversal, so
            // attribute its share separately and the remainder to ST.
            let total = t.elapsed().as_nanos() as u64;
            prof.record(Phase::Route, route_nanos, route_events);
            prof.record(
                Phase::Traversal,
                total.saturating_sub(route_nanos),
                st_flits,
            );
        }

        // ---- Stage 1a: VC allocation ------------------------------------
        let va_timer = P::ACTIVE.then(Instant::now);
        for slot in self.scratch.vca_reqs.iter_mut() {
            if let Some(r) = slot.take() {
                self.scratch.spare_reqs.push(r);
            }
        }
        let mut any_vca = false;
        for in_flat in 0..n {
            if self.in_out_vc[in_flat].is_some() {
                continue;
            }
            if let Some(f) = self.in_buf[in_flat].front() {
                debug_assert!(
                    f.head,
                    "router {}: body flit at head of VC without output VC",
                    self.id
                );
                let mut req = self.scratch.spare_reqs.pop().unwrap_or_else(|| VcRequest {
                    out_port: 0,
                    classes: Vec::new(),
                });
                req.out_port = f.lookahead.out_port;
                req.classes.clear();
                req.classes.push(f.lookahead.resource_class);
                self.scratch.vca_reqs[in_flat] = Some(req);
                any_vca = true;
                self.stats.vca_requests += 1;
                trace!(FlitEventKind::VcaRequest, in_flat / v, in_flat % v, f);
            }
        }
        self.scratch.va_winner.clear();
        if any_vca {
            self.vca.allocate_into(
                &self.scratch.vca_reqs,
                &self.free_out,
                &mut self.scratch.vca_grants,
            );
            debug_assert!(noc_core::validate_vc_grants(
                &self.cfg.spec,
                &self.scratch.vca_reqs,
                &self.free_out,
                &self.scratch.vca_grants
            )
            .is_ok());
            for in_flat in 0..n {
                if let Some(OutVc { port, vc }) = self.scratch.vca_grants[in_flat] {
                    let out_flat = port * v + vc;
                    self.in_out_vc[in_flat] = Some(out_flat);
                    self.out_owner[out_flat] = Some(in_flat as u32);
                    self.free_out.set(port, vc, false);
                    self.scratch.va_winner.set(in_flat, true);
                    self.stats.vca_grants += 1;
                    if S::ACTIVE {
                        if let Some(f) = self.in_buf[in_flat].front() {
                            trace!(FlitEventKind::VcaGrant, in_flat / v, in_flat % v, f);
                        }
                    }
                }
            }
        }

        if let Some(t) = va_timer {
            let reqs = self.scratch.vca_reqs.iter().filter(|r| r.is_some()).count() as u64;
            prof.record(Phase::VcAlloc, t.elapsed().as_nanos() as u64, reqs);
        }

        // ---- Stage 1b: switch allocation --------------------------------
        let sa_timer = P::ACTIVE.then(Instant::now);
        self.scratch.nonspec.clear();
        self.scratch.spec.clear();
        let mut any_req = false;
        // Stall attribution inputs: why each input VC did (or could) bid.
        self.scratch.credit_blocked.clear();
        self.scratch.bid.clear();
        self.scratch.spec_bid.clear();
        for in_flat in 0..n {
            if self.in_buf[in_flat].is_empty() {
                continue;
            }
            match self.in_out_vc[in_flat] {
                Some(out_flat) if !self.scratch.va_winner.get(in_flat) => {
                    // Established packet: non-speculative request, gated on
                    // credit availability.
                    if self.out_credits[out_flat] > 0 {
                        self.scratch
                            .nonspec
                            .request(in_flat / v, in_flat % v, out_flat / v);
                        any_req = true;
                        self.scratch.bid.set(in_flat, true);
                        if S::ACTIVE {
                            if let Some(f) = self.in_buf[in_flat].front() {
                                trace!(FlitEventKind::SaRequest, in_flat / v, in_flat % v, f);
                            }
                        }
                    } else {
                        self.scratch.credit_blocked.set(in_flat, true);
                    }
                }
                _ => {
                    // Head flit performing (or having just performed) VC
                    // allocation this cycle: speculative request, issued in
                    // parallel with VA so it cannot depend on its outcome.
                    if self.cfg.spec_mode != SpecMode::NonSpeculative {
                        if let Some(f) = self.in_buf[in_flat].front() {
                            if f.head || self.scratch.va_winner.get(in_flat) {
                                self.scratch.spec.request(
                                    in_flat / v,
                                    in_flat % v,
                                    f.lookahead.out_port,
                                );
                                any_req = true;
                                self.scratch.spec_bid.set(in_flat, true);
                                self.stats.spec_requests += 1;
                                trace!(FlitEventKind::SaSpecRequest, in_flat / v, in_flat % v, f);
                            }
                        }
                    }
                }
            }
        }
        self.scratch.granted.clear();
        if any_req {
            self.sa.allocate_into(
                &self.scratch.nonspec,
                &self.scratch.spec,
                &mut self.scratch.sa_result,
            );
            let res = &self.scratch.sa_result;
            self.stats.spec_masked += res.masked.len() as u64;
            if S::ACTIVE {
                for g in &res.masked {
                    let in_flat = g.in_port * v + g.vc;
                    if let Some(f) = self.in_buf[in_flat].front() {
                        trace!(FlitEventKind::SaSpecMasked, g.in_port, g.vc, f);
                    }
                }
            }
            for g in &res.nonspec {
                self.stats.nonspec_grants += 1;
                let in_flat = g.in_port * v + g.vc;
                self.scratch.granted.set(in_flat, true);
                self.st_stage.push((in_flat, g.out_port));
                if S::ACTIVE {
                    if let Some(f) = self.in_buf[in_flat].front() {
                        trace!(FlitEventKind::SaGrant, g.in_port, g.vc, f);
                    }
                }
            }
            for g in &res.spec {
                let in_flat = g.in_port * v + g.vc;
                // Validate: the VC must have won VC allocation this very
                // cycle for the same output port, with a credit available.
                let valid = self.scratch.va_winner.get(in_flat)
                    && self.in_out_vc[in_flat]
                        .is_some_and(|of| of / v == g.out_port && self.out_credits[of] > 0);
                let kind = if valid {
                    self.stats.spec_grants += 1;
                    self.scratch.granted.set(in_flat, true);
                    self.st_stage.push((in_flat, g.out_port));
                    FlitEventKind::SaSpecGrant
                } else {
                    self.stats.spec_invalid += 1;
                    FlitEventKind::SaSpecInvalid
                };
                if S::ACTIVE {
                    if let Some(f) = self.in_buf[in_flat].front() {
                        trace!(kind, g.in_port, g.vc, f);
                    }
                }
            }
        }
        if let Some(t) = sa_timer {
            let reqs = (self.scratch.bid.count_ones() + self.scratch.spec_bid.count_ones()) as u64;
            prof.record(Phase::SwAlloc, t.elapsed().as_nanos() as u64, reqs);
        }

        // ---- Matching-quality sample (opt-in telemetry) -----------------
        // Runs after stage 1b so `st_stage` holds exactly this cycle's
        // grants. Kept outside the `sa_timer` scope so the profiler's
        // switch-allocation phase is not polluted by the exact-matching
        // search.
        if let Some(ms) = &mut self.match_sampler {
            if any_req && now.is_multiple_of(ms.period) {
                ms.req.clear();
                for in_flat in 0..n {
                    let (p, vc) = (in_flat / v, in_flat % v);
                    if let Some(o) = self.scratch.nonspec.get(p, vc) {
                        ms.req.set(p, o, true);
                    }
                    if let Some(o) = self.scratch.spec.get(p, vc) {
                        ms.req.set(p, o, true);
                    }
                }
                ms.granted += self.st_stage.len() as u64;
                ms.max += noc_core::max_matching(&ms.req) as u64;
            }
        }

        // ---- Stall-cause attribution ------------------------------------
        // Each input VC lands in exactly one bucket per cycle. A VC that
        // pushed a flit into the switch, or just won the switch for next
        // cycle, is "active"; otherwise the blocker is whichever stage
        // refused it this cycle.
        for in_flat in 0..n {
            let s = &mut self.obs.vc[in_flat];
            if self.scratch.moved.get(in_flat) || self.scratch.granted.get(in_flat) {
                s.active += 1;
            } else if self.in_buf[in_flat].is_empty() {
                s.empty += 1;
            } else if self.scratch.credit_blocked.get(in_flat) {
                s.credit_stall += 1;
            } else if self.scratch.bid.get(in_flat)
                || (self.scratch.spec_bid.get(in_flat) && self.scratch.va_winner.get(in_flat))
            {
                // Bid for the switch with all resources in hand, lost
                // arbitration (or, for a fresh VA winner, lost / was masked
                // on the speculative path).
                s.sa_stall += 1;
            } else {
                // Still waiting for an output VC.
                s.vca_stall += 1;
            }
        }

        // ---- Packet-ledger stamping (opt-in anatomy) --------------------
        // Mirrors the attribution above, but charges the cycle to the hop
        // accumulator of the head flit at the VC front. Every scratch flag
        // describes the *post-traversal* front (ST ran first), so `moved`
        // is deliberately not consulted: a departing head was charged its
        // final cycle at emission time, and whichever head now fronts the
        // VC earns this cycle's verdict instead.
        if let Some(an) = &mut self.anatomy {
            for in_flat in 0..n {
                let Some(f) = self.in_buf[in_flat].front() else {
                    continue;
                };
                if !f.head {
                    continue;
                }
                let a = &mut an.acc[in_flat];
                if self.scratch.granted.get(in_flat) {
                    a.active += 1;
                } else if self.scratch.credit_blocked.get(in_flat) {
                    a.credit += 1;
                } else if self.scratch.bid.get(in_flat)
                    || (self.scratch.spec_bid.get(in_flat) && self.scratch.va_winner.get(in_flat))
                {
                    a.sa += 1;
                } else {
                    a.vca += 1;
                }
            }
        }
    }

    /// Records that the active-set engine skipped this router for a cycle.
    /// A skippable router is fully idle, so the only observable effect of
    /// the skipped step — one `empty` stall count per input VC — is owed to
    /// `obs` and settled lazily by [`Router::flush_skipped`].
    pub fn note_skipped(&mut self) {
        debug_assert!(self.is_idle(), "active-set engine skipped a busy router");
        self.skipped_cycles += 1;
    }

    /// Settles stall-attribution debt from skipped cycles. Called at the
    /// start of every real step and before any observability read-out.
    pub fn flush_skipped(&mut self) {
        if self.skipped_cycles > 0 {
            for s in self.obs.vc.iter_mut() {
                s.empty += self.skipped_cycles;
            }
            self.skipped_cycles = 0;
        }
    }

    /// Cumulative telemetry counters for the flight recorder. Reads only —
    /// pending skipped-cycle debt is folded in arithmetically rather than
    /// flushed, so sampling never perturbs engine-equivalence state and the
    /// active-set engine reports byte-identical telemetry to the others.
    pub fn telemetry_counters(&self) -> RouterCounters {
        let mut active = 0u64;
        let mut credit_stall = 0u64;
        let mut vca_stall = 0u64;
        let mut sa_stall = 0u64;
        let mut empty = 0u64;
        for s in &self.obs.vc {
            active += s.active;
            credit_stall += s.credit_stall;
            vca_stall += s.vca_stall;
            sa_stall += s.sa_stall;
            empty += s.empty;
        }
        // Skipped cycles are owed one `empty` count per input VC.
        empty += self.skipped_cycles * self.obs.vc.len() as u64;
        let (match_granted, match_max) = match &self.match_sampler {
            Some(ms) => (ms.granted, ms.max),
            None => (0, 0),
        };
        RouterCounters {
            out_flits: self.obs.total_out_flits(),
            occupancy: self.buffered_flits() as u32,
            busy_vcs: self.busy_vcs() as u32,
            active,
            credit_stall,
            vca_stall,
            sa_stall,
            empty,
            match_granted,
            match_max,
        }
    }

    /// Runs the router-local runtime invariants against the post-step
    /// state: switch-grant matching legality (at most one grant per input
    /// VC and per output port, each backed by an output VC, a downstream
    /// credit and a buffered flit), the input-VC/output-VC ownership
    /// bijection, buffer/credit bounds, and the no-flit-without-VC rule.
    /// With a `!ACTIVE` checker this compiles to nothing.
    pub fn check_invariants<K: InvariantChecker>(&self, chk: &mut K) {
        if !K::ACTIVE {
            return;
        }
        let v = self.vcs;
        let n = self.ports * v;
        let depth = self.cfg.buf_depth;
        let mut checks = 0u64;

        // Matching legality over the grants traversing next cycle. `Bits`
        // rather than `Vec<bool>`: this runs per cycle whenever the checker
        // is active (including debug-assertion builds) and must not
        // allocate in steady state.
        let mut in_used = noc_arbiter::Bits::new(n);
        let mut out_used = noc_arbiter::Bits::new(self.ports);
        for &(in_flat, out_port) in &self.st_stage {
            checks += 5;
            if in_used.get(in_flat) {
                chk.violation(format!(
                    "router {}: two switch grants for input VC ({}, {})",
                    self.id,
                    in_flat / v,
                    in_flat % v
                ));
            }
            in_used.set(in_flat, true);
            if out_used.get(out_port) {
                chk.violation(format!(
                    "router {}: two switch grants for output port {out_port}",
                    self.id
                ));
            }
            out_used.set(out_port, true);
            match self.in_out_vc[in_flat] {
                None => chk.violation(format!(
                    "router {}: switch grant without an output VC at input ({}, {})",
                    self.id,
                    in_flat / v,
                    in_flat % v
                )),
                Some(of) => {
                    if of / v != out_port {
                        chk.violation(format!(
                            "router {}: switch grant to port {out_port} but input ({}, {}) \
                             holds output VC ({}, {})",
                            self.id,
                            in_flat / v,
                            in_flat % v,
                            of / v,
                            of % v
                        ));
                    }
                    if self.out_credits[of] == 0 {
                        chk.violation(format!(
                            "router {}: switch grant for input ({}, {}) with zero \
                             downstream credits",
                            self.id,
                            in_flat / v,
                            in_flat % v
                        ));
                    }
                    if self.out_owner[of] != Some(in_flat as u32) {
                        chk.violation(format!(
                            "router {}: granted input ({}, {}) does not own its output VC",
                            self.id,
                            in_flat / v,
                            in_flat % v
                        ));
                    }
                }
            }
            if self.in_buf[in_flat].is_empty() {
                chk.violation(format!(
                    "router {}: switch grant with empty buffer at input ({}, {})",
                    self.id,
                    in_flat / v,
                    in_flat % v
                ));
            }
        }

        // Ownership bijection, buffer bounds, no-flit-without-VC.
        for in_flat in 0..n {
            checks += 2;
            match self.in_out_vc[in_flat] {
                Some(of) => {
                    if self.out_owner[of] != Some(in_flat as u32) {
                        chk.violation(format!(
                            "router {}: input ({}, {}) holds output VC ({}, {}) it \
                             does not own",
                            self.id,
                            in_flat / v,
                            in_flat % v,
                            of / v,
                            of % v
                        ));
                    }
                }
                None => {
                    if self.in_buf[in_flat].front().is_some_and(|f| !f.head) {
                        chk.violation(format!(
                            "router {}: body flit at head of input ({}, {}) without \
                             an output VC",
                            self.id,
                            in_flat / v,
                            in_flat % v
                        ));
                    }
                }
            }
            if self.in_buf[in_flat].len() > depth {
                chk.violation(format!(
                    "router {}: input ({}, {}) holds {} flits, buffer depth {}",
                    self.id,
                    in_flat / v,
                    in_flat % v,
                    self.in_buf[in_flat].len(),
                    depth
                ));
            }
        }
        for out_flat in 0..n {
            checks += 3;
            if self.out_credits[out_flat] as usize > depth {
                chk.violation(format!(
                    "router {}: output VC ({}, {}) has {} credits, buffer depth {}",
                    self.id,
                    out_flat / v,
                    out_flat % v,
                    self.out_credits[out_flat],
                    depth
                ));
            }
            if let Some(owner) = self.out_owner[out_flat] {
                if self.in_out_vc.get(owner as usize).copied().flatten() != Some(out_flat) {
                    chk.violation(format!(
                        "router {}: output VC ({}, {}) owned by input {} which does \
                         not hold it",
                        self.id,
                        out_flat / v,
                        out_flat % v,
                        owner
                    ));
                }
            }
            // The incrementally maintained free map must track ownership
            // exactly — it is what the VC-allocation kernels consume.
            if self.free_out.get(out_flat / v, out_flat % v) != self.out_owner[out_flat].is_none() {
                chk.violation(format!(
                    "router {}: free map out of sync at output VC ({}, {})",
                    self.id,
                    out_flat / v,
                    out_flat % v
                ));
            }
        }
        chk.add_checks(checks);
    }

    /// Flits currently buffered across all input VCs.
    pub fn buffered_flits(&self) -> usize {
        self.in_buf.iter().map(VecDeque::len).sum()
    }

    /// Input VCs currently holding at least one flit.
    pub fn busy_vcs(&self) -> usize {
        self.in_buf.iter().filter(|b| !b.is_empty()).count()
    }

    /// True if the router holds no flits and no in-flight grants (used by
    /// drain checks in tests).
    pub fn is_idle(&self) -> bool {
        self.st_stage.is_empty() && self.in_buf.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Lookahead, PacketKind, RouteState};
    use crate::topology::TopologyKind;

    fn mesh_router(spec_mode: SpecMode) -> (Router, Topology) {
        let topo = TopologyKind::Mesh8x8.build();
        let spec = VcAllocSpec::mesh(1);
        let cfg = RouterConfig {
            spec_mode,
            ..RouterConfig::paper_default(spec, RoutingKind::DimensionOrder)
        };
        // Router 27 — interior router with all links present.
        (Router::new(27, cfg), topo)
    }

    fn head_flit(dest: usize, out_port: usize) -> Flit {
        Flit {
            packet_id: 1,
            flit_index: 0,
            head: true,
            tail: true,
            kind: PacketKind::ReadRequest,
            src: 0,
            dest,
            birth: 0,
            injected: 0,
            lookahead: Lookahead {
                out_port,
                resource_class: 0,
            },
            route_state: RouteState::default(),
        }
    }

    #[test]
    fn speculative_single_flit_cuts_through_in_two_cycles() {
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        // Single-flit packet heading out port 1.
        r.accept_flit(0, 0, head_flit(63, 1), 0);
        let out = r.step(&topo, 0);
        assert!(out.flits.is_empty(), "flit cannot leave in its VA cycle");
        assert_eq!(r.stats.spec_grants, 1, "speculation should have won");
        let out = r.step(&topo, 1);
        assert_eq!(out.flits.len(), 1, "ST in the second cycle");
        assert_eq!(out.flits[0].port, 1);
        assert_eq!(out.credits, vec![(0, 0)]);
        assert!(r.is_idle());
    }

    #[test]
    fn nonspeculative_head_takes_three_cycles() {
        let (mut r, topo) = mesh_router(SpecMode::NonSpeculative);
        r.accept_flit(0, 0, head_flit(63, 1), 0);
        let out = r.step(&topo, 0); // VA
        assert!(out.flits.is_empty());
        let out = r.step(&topo, 1); // SA
        assert!(out.flits.is_empty());
        let out = r.step(&topo, 2); // ST
        assert_eq!(out.flits.len(), 1);
    }

    #[test]
    fn lookahead_updated_on_departure() {
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        // Dest terminal 31 = router 31 (x=7,y=3); router 27 is (3,3): DOR
        // goes +x (port 1); at router 28 the lookahead should again be +x.
        r.accept_flit(0, 0, head_flit(31, 1), 0);
        r.step(&topo, 0);
        let out = r.step(&topo, 1);
        let f = &out.flits[0].flit;
        assert_eq!(f.lookahead.out_port, 1);
    }

    #[test]
    fn credits_bound_inflight_flits() {
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        // 12 single-flit packets on the same input VC, all to out port 1,
        // with no credits ever returned: only buf_depth(8) flits may leave.
        for i in 0..8 {
            let mut f = head_flit(63, 1);
            f.packet_id = i;
            r.accept_flit(0, 0, f, 0);
        }
        let mut sent = 0;
        for t in 0..40 {
            sent += r.step(&topo, t).flits.len();
        }
        assert_eq!(sent, 8, "exactly buf_depth flits without credit return");
        // Returning one credit frees one more slot... but the buffer is
        // empty now; push more flits and watch them flow after credits.
        for i in 0..2 {
            let mut f = head_flit(63, 1);
            f.packet_id = 100 + i;
            r.accept_flit(0, 0, f, 40);
        }
        for t in 40..50 {
            sent += r.step(&topo, t).flits.len();
        }
        assert_eq!(sent, 8, "still blocked with zero credits");
        r.accept_credit(1, 0);
        r.accept_credit(1, 0);
        for t in 50..60 {
            sent += r.step(&topo, t).flits.len();
        }
        assert_eq!(sent, 10);
    }

    #[test]
    fn multi_flit_packet_holds_vc_until_tail() {
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        // 5-flit write request.
        for i in 0..5 {
            let mut f = head_flit(63, 1);
            f.kind = PacketKind::WriteRequest;
            f.flit_index = i;
            f.head = i == 0;
            f.tail = i == 4;
            r.accept_flit(0, 0, f, 0);
        }
        let mut sent = 0;
        let mut vc_freed_before_tail = false;
        for t in 0..12 {
            let out = r.step(&topo, t);
            sent += out.flits.len();
            if sent > 0 && sent < 5 && r.out_owner[r.vcs].is_none() {
                vc_freed_before_tail = true;
            }
        }
        assert_eq!(sent, 5);
        assert!(!vc_freed_before_tail, "output VC released early");
        assert!(r.out_owner[r.vcs].is_none(), "VC not released after tail");
    }

    #[test]
    fn two_inputs_same_output_serialize() {
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        let mut f0 = head_flit(63, 1);
        f0.packet_id = 1;
        let mut f1 = head_flit(63, 1);
        f1.packet_id = 2;
        // Different input ports, same output port; mesh(1) has V=2 VCs
        // (one per message class), both packets are requests -> they
        // compete for the single request-class output VC.
        r.accept_flit(2, 0, f0, 0);
        r.accept_flit(3, 0, f1, 0);
        let mut sent = Vec::new();
        for t in 0..8 {
            for of in r.step(&topo, t).flits {
                sent.push((t, of.flit.packet_id, of.vc));
            }
        }
        assert_eq!(sent.len(), 2);
        // Same output VC -> strictly serialized.
        assert_eq!(sent[0].2, sent[1].2);
        assert!(sent[1].0 > sent[0].0);
    }

    #[test]
    fn speculation_accounting_identity_for_lone_request() {
        // A lone speculative request wins its arbitration, so it must land
        // in exactly one outcome bucket and the accounting identity
        // `spec_grants + spec_masked + spec_invalid == spec_requests`
        // holds with equality — in both speculation schemes.
        for mode in [SpecMode::Pessimistic, SpecMode::Conventional] {
            let (mut r, topo) = mesh_router(mode);
            r.accept_flit(0, 0, head_flit(63, 1), 0);
            r.step(&topo, 0);
            let s = r.stats;
            assert_eq!(s.spec_requests, 1, "{mode:?}");
            assert_eq!(s.spec_grants, 1, "{mode:?}: lone spec request must win");
            assert_eq!(s.spec_masked, 0, "{mode:?}");
            assert_eq!(s.spec_invalid, 0, "{mode:?}");
            assert_eq!(
                s.spec_grants + s.spec_masked + s.spec_invalid,
                s.spec_requests,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn speculation_masking_is_counted_exactly() {
        // An established packet's non-speculative request masks a fresh
        // head's speculative grant for the same output port. Every spec
        // request in this scenario wins its own arbitration, so the
        // accounting identity holds with equality and the masked grant is
        // classified as masked, not invalid.
        for mode in [SpecMode::Pessimistic, SpecMode::Conventional] {
            let (mut r, topo) = mesh_router(mode);
            // 2-flit packet on port 2 establishes a stream to out port 1.
            for i in 0..2 {
                let mut f = head_flit(63, 1);
                f.kind = PacketKind::WriteRequest;
                f.flit_index = i;
                f.head = i == 0;
                f.tail = i == 1;
                r.accept_flit(2, 0, f, 0);
            }
            r.step(&topo, 0); // head wins VA + speculative SA
            assert_eq!(r.stats.spec_requests, 1, "{mode:?}");
            assert_eq!(r.stats.spec_grants, 1, "{mode:?}");
            // Fresh head on port 3 contends with the body flit's
            // non-speculative request for out port 1 next cycle.
            let mut g = head_flit(63, 1);
            g.packet_id = 7;
            r.accept_flit(3, 0, g, 1);
            r.step(&topo, 1);
            let s = r.stats;
            assert_eq!(s.spec_requests, 2, "{mode:?}");
            assert_eq!(s.nonspec_grants, 1, "{mode:?}: body wins non-speculatively");
            assert_eq!(s.spec_masked, 1, "{mode:?}: contending spec grant masked");
            assert_eq!(s.spec_invalid, 0, "{mode:?}");
            assert_eq!(
                s.spec_grants + s.spec_masked + s.spec_invalid,
                s.spec_requests,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn speculation_outcomes_never_exceed_requests_under_contention() {
        // Two heads racing for the same output VC: one spec request loses
        // switch arbitration outright (no outcome bucket), so the sum of
        // outcomes stays strictly below the request count while the run
        // still delivers both flits.
        for mode in [SpecMode::Pessimistic, SpecMode::Conventional] {
            let (mut r, topo) = mesh_router(mode);
            let mut f0 = head_flit(63, 1);
            f0.packet_id = 1;
            let mut f1 = head_flit(63, 1);
            f1.packet_id = 2;
            r.accept_flit(2, 0, f0, 0);
            r.accept_flit(3, 0, f1, 0);
            let mut sent = 0;
            for t in 0..10 {
                sent += r.step(&topo, t).flits.len();
            }
            assert_eq!(sent, 2, "{mode:?}");
            let s = r.stats;
            assert!(s.spec_requests >= 2, "{mode:?}: {s:?}");
            assert!(
                s.spec_grants + s.spec_masked + s.spec_invalid <= s.spec_requests,
                "{mode:?}: outcome buckets exceed requests: {s:?}"
            );
            assert!(s.spec_grants >= 1, "{mode:?}: someone must cut through");
        }
    }

    #[test]
    fn nonspeculative_mode_issues_no_spec_requests() {
        let (mut r, topo) = mesh_router(SpecMode::NonSpeculative);
        r.accept_flit(0, 0, head_flit(63, 1), 0);
        for t in 0..6 {
            r.step(&topo, t);
        }
        let s = r.stats;
        assert_eq!(s.spec_requests, 0);
        assert_eq!(s.spec_grants + s.spec_masked + s.spec_invalid, 0);
        assert!(s.nonspec_grants >= 1);
    }

    #[test]
    fn stall_attribution_partitions_cycles() {
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        r.accept_flit(0, 0, head_flit(63, 1), 0);
        let total = 6u64;
        for t in 0..total {
            r.step(&topo, t);
        }
        for (idx, s) in r.obs.vc.iter().enumerate() {
            assert_eq!(s.cycles(), total, "vc slot {idx}");
        }
        // The lone flit's VC: VA+spec-SA cycle and ST cycle are active,
        // the remaining cycles empty.
        let s = &r.obs.vc[0];
        assert_eq!(s.active, 2, "{s:?}");
        assert_eq!(s.empty, total - 2, "{s:?}");
    }

    #[test]
    fn misspeculation_counted_when_vc_allocation_fails() {
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        // Block the request-class output VC at port 1 by a fake owner
        // (keeping the free map in sync, as every real ownership change
        // does).
        r.out_owner[r.vcs] = Some(99);
        r.free_out.set(1, 0, false);
        r.accept_flit(0, 0, head_flit(63, 1), 0);
        r.step(&topo, 0);
        assert_eq!(r.stats.vca_grants, 0);
        // The speculative request may have won the switch but must have
        // been discarded as invalid.
        assert_eq!(r.stats.spec_grants, 0);
        assert!(r.stats.spec_invalid + r.stats.spec_masked >= 1);
    }

    #[test]
    fn anatomy_hop_record_for_speculative_cutthrough() {
        // A lone head that wins VA and speculative SA in the same cycle
        // spends exactly two active cycles in the router: the grant cycle
        // and the traversal (pop) cycle.
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        r.enable_anatomy();
        r.accept_flit(0, 0, head_flit(63, 1), 0);
        assert!(r.step(&topo, 0).hops.is_empty());
        let out = r.step(&topo, 1);
        assert_eq!(out.hops.len(), 1);
        let h = out.hops[0];
        assert_eq!((h.arrive, h.depart), (0, 1));
        assert_eq!((h.vca, h.sa, h.credit, h.active), (0, 0, 0, 2));
        assert!(h.reconciles());
    }

    #[test]
    fn anatomy_charges_vca_wait_without_speculation() {
        // Without speculation the head burns one cycle in VC allocation
        // before it may even bid for the switch.
        let (mut r, topo) = mesh_router(SpecMode::NonSpeculative);
        r.enable_anatomy();
        r.accept_flit(0, 0, head_flit(63, 1), 0);
        let mut hops = Vec::new();
        for t in 0..4 {
            hops.extend(r.step(&topo, t).hops);
        }
        assert_eq!(hops.len(), 1);
        let h = hops[0];
        assert_eq!((h.vca, h.sa, h.credit, h.active), (1, 0, 0, 2));
        assert_eq!(h.span(), 3);
        assert!(h.reconciles());
    }

    #[test]
    fn anatomy_folds_head_of_line_wait_into_vca() {
        // Two single-flit packets queued on the same input VC: the second
        // head waits behind the first without ever being at the front, and
        // that residual must land in its vca bucket while the per-hop
        // identity still holds exactly.
        let (mut r, topo) = mesh_router(SpecMode::Pessimistic);
        r.enable_anatomy();
        for i in 0..2 {
            let mut f = head_flit(63, 1);
            f.packet_id = i;
            r.accept_flit(0, 0, f, 0);
        }
        let mut hops = Vec::new();
        for t in 0..6 {
            hops.extend(r.step(&topo, t).hops);
        }
        assert_eq!(hops.len(), 2);
        for h in &hops {
            assert!(h.reconciles(), "{h:?}");
        }
        assert_eq!(hops[0].packet_id, 0);
        assert!(
            hops[1].vca >= 1,
            "head-of-line wait must charge vca: {:?}",
            hops[1]
        );
    }
}
