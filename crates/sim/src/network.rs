//! The full network: routers, terminals, and links with credit channels.

use crate::config::SimConfig;
use crate::observer::Observer;
use crate::packet::Flit;
use crate::router::{Router, RouterConfig, RouterOutputs, RouterStats};
use crate::stats::NetStats;
use crate::terminal::{RouterProbe, Terminal};
use crate::topology::Topology;
use crate::verify::StrictChecker;
use noc_obs::{FlitEvent, FlitEventKind, Phase, Profiler, RouterBreakdown, RouterObs};
use par_protocol as pp;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

/// One reverse-link entry: `(upstream router, its output port, latency)`
/// for a network input port, or `None` for terminal-facing ports.
type RevLink = Option<(usize, usize, u64)>;

pub mod par_protocol {
    //! The parallel engine's epoch/done/stop protocol constants, named so the
    //! `noc-mc` model checker's encoding can be pinned to them (see
    //! `crates/sim/tests/protocol_drift.rs` — if either side changes alone,
    //! that test fails and the machine-checked proof in `crates/mc` must be
    //! re-run against the new protocol).
    //!
    //! The happens-before argument these orderings carry is §11 of DESIGN.md:
    //! main's shard writes are released by [`EPOCH_PUBLISH`] and acquired by
    //! each worker's [`EPOCH_WAIT`]; each worker's shard writes are released
    //! by [`DONE_SIGNAL`] and acquired by main's [`DONE_WAIT`]. [`DONE_RESET`]
    //! may be relaxed *only because* it is program-ordered before the release
    //! publication on the same thread.

    use std::sync::atomic::Ordering;

    /// Iterations of `spin_loop` before yielding the timeslice.
    pub const SPIN_LIMIT: u32 = 64;

    /// The protocol's phase order within one cycle (epoch), shared
    /// verbatim with `noc_mc::protocol::PHASES`.
    pub const PHASES: [&str; 7] = [
        "deliver_inject",
        "reset_done",
        "publish_epoch",
        "worker_step",
        "signal_done",
        "commit",
        "finish",
    ];

    /// `epoch.fetch_add(1, _)` on the main thread: releases the
    /// deliver-phase shard writes to the workers.
    pub const EPOCH_PUBLISH: Ordering = Ordering::Release;
    /// `done.store(0, _)` on the main thread.
    // RELAXED: sound because the program-order-later `EPOCH_PUBLISH`
    // release fence-orders the reset before any worker can observe the
    // new epoch (mutant `done-reset-after-publish` in crates/mc deadlocks).
    pub const DONE_RESET: Ordering = Ordering::Relaxed;
    /// `done.fetch_add(1, _)` on each worker: releases its shard writes.
    pub const DONE_SIGNAL: Ordering = Ordering::Release;
    /// Main's `done.load(_)` spin: acquires every worker's shard writes.
    pub const DONE_WAIT: Ordering = Ordering::Acquire;
    /// Worker's `epoch.load(_)` spin: acquires main's shard writes.
    pub const EPOCH_WAIT: Ordering = Ordering::Acquire;
    /// `stop.store(true, _)` when the run ends (or unwinds).
    pub const STOP_PUBLISH: Ordering = Ordering::Release;
    /// Worker's `stop.load(_)` check.
    pub const STOP_WAIT: Ordering = Ordering::Acquire;

    /// Worker `k`'s contiguous shard `[lo, hi)` of `n` routers across
    /// `threads` workers. Shards partition `0..n` exactly — the
    /// disjointness the mutual-exclusion argument quantifies over.
    pub fn shard_range(k: usize, n: usize, threads: usize) -> (usize, usize) {
        (k * n / threads, (k + 1) * n / threads)
    }
}

/// An event in flight on a link or credit wire.
#[derive(Clone, Debug)]
enum Event {
    FlitToRouter {
        router: usize,
        port: usize,
        vc: usize,
        flit: Flit,
    },
    CreditToRouter {
        router: usize,
        port: usize,
        vc: usize,
    },
    FlitToTerminal {
        term: usize,
        /// Output VC the flit used at the ejecting router (for the credit).
        vc: usize,
        flit: Flit,
    },
    CreditToTerminal {
        term: usize,
        vc: usize,
    },
}

/// Fixed-latency event delivery (latencies are small: 1–3 cycles).
struct TimingWheel {
    slots: Vec<Vec<Event>>,
    /// Recycled slot buffer: [`TimingWheel::take`] hands out the current
    /// slot and replaces it with this spare; [`TimingWheel::recycle`]
    /// returns the drained buffer. Capacities converge to the high-water
    /// mark, so steady-state scheduling never allocates.
    spare: Vec<Event>,
}

impl TimingWheel {
    /// Pre-sizes every slot (and the recycled spare) to `cap` events. Each
    /// link direction delivers at most one flit and one credit per cycle
    /// and every slot drains once per wheel revolution, so a capacity of
    /// two events per port plus two per terminal makes steady-state
    /// scheduling allocation-free from the first cycle.
    fn with_slot_capacity(cap: usize) -> Self {
        TimingWheel {
            slots: (0..8).map(|_| Vec::with_capacity(cap)).collect(),
            spare: Vec::with_capacity(cap),
        }
    }

    fn schedule(&mut self, now: u64, delay: u64, ev: Event) {
        assert!(delay >= 1 && delay < self.slots.len() as u64);
        let idx = ((now + delay) % self.slots.len() as u64) as usize;
        self.slots[idx].push(ev);
    }

    fn take(&mut self, now: u64) -> Vec<Event> {
        let idx = (now % self.slots.len() as u64) as usize;
        std::mem::replace(&mut self.slots[idx], std::mem::take(&mut self.spare))
    }

    /// Returns a buffer obtained from [`TimingWheel::take`] for reuse.
    fn recycle(&mut self, mut events: Vec<Event>) {
        events.clear();
        self.spare = events;
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

/// A complete simulated network. It holds no observer: each engine run
/// takes one (see [`Observer`]), and the plain [`Network::step`] and
/// [`Network::run`] pass `()`, with which every hook compiles away.
pub struct Network {
    /// Topology in use.
    pub topo: Topology,
    cfg: SimConfig,
    /// Routers in id order. The parallel engine's workers step them where
    /// they are, through pointers that stay valid only while the vector
    /// keeps its length, so nothing outside this module gets the vector.
    routers: Vec<Router>,
    terminals: Vec<Terminal>,
    wheel: TimingWheel,
    /// Reverse link table: `rev[router][port]`, see [`RevLink`].
    rev: Vec<Vec<RevLink>>,
    /// Per-router output buffers for the two-phase step: the compute phase
    /// fills `out_buf[r]`, the commit phase drains it into the timing
    /// wheel. Kept across cycles so steady-state stepping does not
    /// allocate.
    out_buf: Vec<RouterOutputs>,
    /// Current cycle.
    pub now: u64,
    /// Measurement statistics.
    pub stats: NetStats,
}

impl Network {
    /// Builds a network in its reset state.
    pub fn new(cfg: SimConfig) -> Self {
        let topo = cfg.topology.build();
        let spec = cfg.vc_spec();
        let routing = cfg.routing();
        let rcfg = RouterConfig {
            spec: spec.clone(),
            buf_depth: cfg.buf_depth,
            vca_kind: cfg.vca_kind,
            vca_sparse: cfg.vca_sparse,
            sa_kind: cfg.sa_kind,
            spec_mode: cfg.spec_mode,
            routing,
        };
        let routers: Vec<Router> = (0..topo.num_routers())
            .map(|r| Router::new(r, rcfg.clone()))
            .collect();
        let terminals: Vec<Terminal> = (0..topo.num_terminals())
            .map(|t| {
                Terminal::new(
                    t,
                    &topo,
                    &spec,
                    routing,
                    cfg.buf_depth,
                    cfg.payload_flits,
                    cfg.seed,
                )
            })
            .collect();
        // Reverse links for credit routing.
        let mut rev = vec![vec![None; topo.ports]; topo.num_routers()];
        for r in 0..topo.num_routers() {
            for p in 0..topo.ports {
                if let Some(l) = topo.link(r, p) {
                    rev[l.to_router][l.to_port] = Some((r, p, l.latency));
                }
            }
        }
        let mut stats = NetStats::default();
        stats.init_sources(topo.num_terminals());
        let out_buf = routers
            .iter()
            .map(|r| RouterOutputs::with_capacity(r.ports()))
            .collect();
        let wheel_cap = 2 * routers.iter().map(Router::ports).sum::<usize>() + 2 * terminals.len();
        Network {
            topo,
            cfg,
            routers,
            terminals,
            wheel: TimingWheel::with_slot_capacity(wheel_cap),
            rev,
            out_buf,
            now: 0,
            stats,
        }
    }

    /// Arms a one-shot injected panic in router `r` at cycle `cycle` (see
    /// [`Router::arm_test_panic`]); panic-safety regression tests only.
    #[doc(hidden)]
    pub fn arm_router_panic(&mut self, r: usize, cycle: u64) {
        self.routers[r].arm_test_panic(cycle);
    }

    /// Number of routers currently held by the network — the panic-safety
    /// tests assert this survives an unwinding engine run.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// The routers, in id order (for observers).
    pub(crate) fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// The routers, in id order, to switch on router-local producers.
    pub(crate) fn routers_mut(&mut self) -> &mut [Router] {
        &mut self.routers
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable access to the configuration — e.g. to stop injection
    /// (`injection_rate = 0`) for drain phases.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// Runs one network cycle.
    pub fn step(&mut self) {
        self.cycle::<_, false>(&mut (), None);
    }

    /// Runs one network cycle, attributing wall time to pipeline phases.
    pub fn step_profiled(&mut self, prof: &mut Profiler) {
        self.cycle::<_, false>(prof, None);
    }

    /// Runs `cycles` network cycles.
    pub fn run(&mut self, cycles: u64) {
        self.run_in_order::<_, false>(cycles, &mut ());
    }

    /// Runs `cycles` cycles of the cycle body on this thread, routers in
    /// router-id order, with `obs` attached: the sequential engine, or with
    /// `SKIP_IDLE` the active-set engine (whose skip debts are settled
    /// before returning, so stall-cause read-outs such as
    /// [`Network::router_obs`] match the sequential engine exactly).
    pub(crate) fn run_in_order<O: Observer, const SKIP_IDLE: bool>(
        &mut self,
        cycles: u64,
        obs: &mut O,
    ) {
        for _ in 0..cycles {
            self.cycle::<O, SKIP_IDLE>(obs, None);
        }
        if SKIP_IDLE {
            for r in &mut self.routers {
                r.flush_skipped();
            }
        }
    }

    /// Runs `cycles` cycles on the parallel engine: the router compute
    /// phase is sharded across a persistent pool of `threads` workers.
    /// Workers spin between cycles, so this is a throughput engine for
    /// batch runs, not for interactive stepping.
    ///
    /// Cycle-identical to [`Network::run`]: the compute phase of each
    /// router reads nothing outside the router, and the commit phase runs
    /// on this thread in router-id order, so the timing-wheel event order
    /// matches the sequential engine exactly.
    pub fn run_parallel(&mut self, cycles: u64, threads: usize) {
        self.run_pool(cycles, threads, &mut ());
    }

    /// [`Network::run_parallel`] with `obs` attached. With one thread, or
    /// while `obs` hooks inside router compute ([`Observer::in_compute`]),
    /// routers are computed in router-id order on this thread instead, so
    /// flit events and phase timings arrive in the sequential order. Every
    /// other hook runs on this thread either way.
    pub(crate) fn run_pool<O: Observer>(&mut self, cycles: u64, threads: usize, obs: &mut O) {
        let threads = threads.clamp(1, self.routers.len().max(1));
        if threads == 1 || obs.in_compute() {
            return self.run_in_order::<O, false>(cycles, obs);
        }
        if cycles == 0 {
            return;
        }
        let shared = Shared::default();
        std::thread::scope(|s| {
            let mut pool = Pool::spawn(s, &shared, threads, self.routers.len());
            for _ in 0..cycles {
                self.cycle::<O, false>(obs, Some(&mut pool));
            }
        });
    }

    /// The one cycle body every engine shares.
    ///
    /// Delivery and injection, the commit of every router's outputs in
    /// router-id order and the end-of-cycle hook run on this thread.
    /// Router compute runs here too, each router committed right after it
    /// is computed, unless `pool` is given: then the pool computes every
    /// router first. Compute touches only the router itself and commit
    /// only schedules wheel events with delay >= 1, so both orders are
    /// cycle-identical.
    ///
    /// With `SKIP_IDLE` (the active-set engine) routers with no buffered
    /// flit and no flit in switch traversal are skipped. That is
    /// cycle-identical: an idle router's step produces no outputs and
    /// touches no allocator state; its only observable effect — one `empty`
    /// stall count per input VC — is accrued as a debt settled by
    /// [`Router::flush_skipped`].
    fn cycle<O: Observer, const SKIP_IDLE: bool>(&mut self, obs: &mut O, pool: Option<&mut Pool>) {
        let now = self.now;
        self.deliver_and_inject(obs);
        if let Some(pool) = pool {
            pool.compute(&self.topo, now, &mut self.routers, &mut self.out_buf);
            for r in 0..self.routers.len() {
                self.commit(r, obs);
            }
        } else {
            for r in 0..self.routers.len() {
                if SKIP_IDLE && self.routers[r].is_idle() {
                    self.routers[r].note_skipped();
                    continue;
                }
                self.routers[r].step_into(&self.topo, now, &mut self.out_buf[r], obs);
                self.commit(r, obs);
            }
        }
        if cfg!(debug_assertions) {
            // Debug builds run the (cheap) router-local invariants on every
            // cycle, so the whole test suite exercises them; the credit
            // audit runs only with a `StrictChecker` attached.
            let mut strict = StrictChecker::default();
            for r in &self.routers {
                r.check_invariants(&mut strict);
            }
            assert!(
                strict.violations.is_empty(),
                "cycle {now}: router invariant violations: {:?}",
                strict.violations
            );
        }
        obs.cycle_end(self);
        self.now += 1;
    }

    /// Pre-router phase of a cycle: deliver timing-wheel events landing
    /// this cycle, then let every terminal generate and (if possible)
    /// inject traffic.
    fn deliver_and_inject<O: Observer>(&mut self, obs: &mut O) {
        let now = self.now;
        let traced = obs.in_compute();
        // --- deliver link/credit events landing this cycle ----------------
        let wheel_timer = obs.timed().then(Instant::now);
        let mut wheel_events = 0u64;
        // Take the slot, drain it, hand the buffer back: nothing schedules
        // into the *current* slot (delays are >= 1 and < the wheel size), so
        // the buffer is free to recycle once the loop ends.
        let mut events = self.wheel.take(now);
        for ev in events.drain(..) {
            wheel_events += 1;
            match ev {
                Event::FlitToRouter {
                    router,
                    port,
                    vc,
                    flit,
                } => {
                    self.routers[router].accept_flit(port, vc, flit, now);
                }
                Event::CreditToRouter { router, port, vc } => {
                    self.routers[router].accept_credit(port, vc);
                }
                Event::FlitToTerminal { term, vc, flit } => {
                    self.stats.record_flit_ejected(now);
                    obs.eject(&flit, now, self.stats.in_window(now));
                    if flit.tail {
                        self.stats
                            .record_packet_from(now, flit.birth, flit.msg_class(), flit.src);
                    }
                    self.terminals[term].receive(&flit, now);
                    // Ideal sink: return the credit immediately.
                    let (router, port) = self.topo.terminal_attach(term);
                    if traced {
                        obs.flit(FlitEvent {
                            cycle: now,
                            kind: FlitEventKind::Eject,
                            router: router as u32,
                            port: port as u16,
                            vc: vc as u16,
                            packet_id: flit.packet_id,
                            flit_index: flit.flit_index as u32,
                        });
                    }
                    self.wheel
                        .schedule(now, 1, Event::CreditToRouter { router, port, vc });
                }
                Event::CreditToTerminal { term, vc } => {
                    self.terminals[term].accept_credit(vc);
                }
            }
        }
        self.wheel.recycle(events);
        if let Some(t) = wheel_timer {
            obs.phase(Phase::Credit, t.elapsed().as_nanos() as u64, wheel_events);
        }

        // --- terminals: traffic generation and injection -------------------
        let (cfg, geom) = (&self.cfg, self.topo.geometry());
        for term in &mut self.terminals {
            term.generate_traffic_burst(cfg.injection_rate, cfg.pattern, geom, now, cfg.burst);
            // A terminal with nothing queued and nothing in flight cannot
            // inject and its step consumes no RNG, so skipping it is exact on
            // every engine.
            if term.backlog_packets() == 0 {
                continue;
            }
            let (router, port) = (term.router, term.port);
            let out = term.step(&self.topo, &RouterProbe(&self.routers[router]), now);
            if let Some((vc, flit)) = out.flit {
                self.stats.record_flit_injected(now);
                if traced {
                    obs.flit(FlitEvent {
                        cycle: now,
                        kind: FlitEventKind::Inject,
                        router: router as u32,
                        port: port as u16,
                        vc: vc as u16,
                        packet_id: flit.packet_id,
                        flit_index: flit.flit_index as u32,
                    });
                }
                self.wheel.schedule(
                    now,
                    1,
                    Event::FlitToRouter {
                        router,
                        port,
                        vc,
                        flit,
                    },
                );
            }
        }
    }

    /// Commit phase for one router: hand its hop records to `obs`, then
    /// drain its output buffer into the timing wheel. Commits run in
    /// router-id order on every engine, so what `obs` folds is
    /// engine-invariant. All scheduled events carry delay >= 1, so commits
    /// never feed back into the current cycle — the property that makes
    /// the two-phase split cycle-identical to the interleaved step.
    fn commit<O: Observer>(&mut self, r: usize, obs: &mut O) {
        let now = self.now;
        let out = &mut self.out_buf[r];
        for h in out.hops.drain(..) {
            obs.hop(h);
        }
        for of in out.flits.drain(..) {
            if let Some(term) = self.topo.port_terminal(r, of.port) {
                self.wheel.schedule(
                    now,
                    1,
                    Event::FlitToTerminal {
                        term,
                        vc: of.vc,
                        flit: of.flit,
                    },
                );
            } else {
                let Some(link) = self.topo.link(r, of.port) else {
                    unreachable!("flit sent to port {} of router {r} with no link", of.port)
                };
                self.wheel.schedule(
                    now,
                    link.latency,
                    Event::FlitToRouter {
                        router: link.to_router,
                        port: link.to_port,
                        vc: of.vc,
                        flit: of.flit,
                    },
                );
            }
        }
        for (in_port, in_vc) in out.credits.drain(..) {
            if let Some(term) = self.topo.port_terminal(r, in_port) {
                self.wheel
                    .schedule(now, 1, Event::CreditToTerminal { term, vc: in_vc });
            } else {
                let Some((ur, up, lat)) = self.rev[r][in_port] else {
                    unreachable!("credit return on port {in_port} of router {r} with no link")
                };
                self.wheel.schedule(
                    now,
                    lat,
                    Event::CreditToRouter {
                        router: ur,
                        port: up,
                        vc: in_vc,
                    },
                );
            }
        }
    }

    /// Verifies credit conservation on every channel: upstream credits plus
    /// in-flight flits plus downstream occupancy plus in-flight return
    /// credits must equal the buffer depth, for router→router links,
    /// terminal injection channels and terminal ejection channels alike.
    pub(crate) fn audit_credit_conservation(&self, chk: &mut StrictChecker) {
        use std::collections::HashMap;
        let depth = self.cfg.buf_depth;
        let Some(first) = self.routers.first() else {
            return;
        };
        let vcs = first.vcs();
        // One pass over the timing wheel counts every in-flight event.
        let mut flit_to_router: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let mut credit_to_router: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let mut flit_to_term: HashMap<(usize, usize), usize> = HashMap::new();
        let mut credit_to_term: HashMap<(usize, usize), usize> = HashMap::new();
        for slot in &self.wheel.slots {
            for ev in slot {
                match ev {
                    Event::FlitToRouter {
                        router, port, vc, ..
                    } => *flit_to_router.entry((*router, *port, *vc)).or_default() += 1,
                    Event::CreditToRouter { router, port, vc } => {
                        *credit_to_router.entry((*router, *port, *vc)).or_default() += 1
                    }
                    Event::FlitToTerminal { term, vc, .. } => {
                        *flit_to_term.entry((*term, *vc)).or_default() += 1
                    }
                    Event::CreditToTerminal { term, vc } => {
                        *credit_to_term.entry((*term, *vc)).or_default() += 1
                    }
                }
            }
        }
        let count3 = |m: &HashMap<(usize, usize, usize), usize>, k| m.get(&k).copied().unwrap_or(0);
        let count2 = |m: &HashMap<(usize, usize), usize>, k| m.get(&k).copied().unwrap_or(0);
        let mut checks = 0u64;
        for r in 0..self.routers.len() {
            for p in 0..self.topo.ports {
                if let Some(l) = self.topo.link(r, p) {
                    for vc in 0..vcs {
                        checks += 1;
                        let total = self.routers[r].output_credits(p, vc)
                            + count3(&flit_to_router, (l.to_router, l.to_port, vc))
                            + self.routers[l.to_router].input_occupancy(l.to_port, vc)
                            + count3(&credit_to_router, (r, p, vc));
                        if total != depth {
                            chk.violation(format!(
                                "cycle {}: credit conservation broken on link \
                                 {r}:{p} -> {}:{} vc {vc}: credits + in-flight + \
                                 occupancy = {total}, buffer depth {depth}",
                                self.now, l.to_router, l.to_port
                            ));
                        }
                    }
                } else if let Some(term) = self.topo.port_terminal(r, p) {
                    for vc in 0..vcs {
                        checks += 2;
                        // Ejection channel (ideal sink: no terminal buffer).
                        let eject = self.routers[r].output_credits(p, vc)
                            + count2(&flit_to_term, (term, vc))
                            + count3(&credit_to_router, (r, p, vc));
                        if eject != depth {
                            chk.violation(format!(
                                "cycle {}: credit conservation broken on ejection \
                                 channel {r}:{p} -> terminal {term} vc {vc}: \
                                 credits + in-flight = {eject}, buffer depth {depth}",
                                self.now
                            ));
                        }
                        // Injection channel.
                        let inject = self.terminals[term].credits(vc)
                            + count3(&flit_to_router, (r, p, vc))
                            + self.routers[r].input_occupancy(p, vc)
                            + count2(&credit_to_term, (term, vc));
                        if inject != depth {
                            chk.violation(format!(
                                "cycle {}: credit conservation broken on injection \
                                 channel terminal {term} -> {r}:{p} vc {vc}: \
                                 credits + in-flight + occupancy = {inject}, \
                                 buffer depth {depth}",
                                self.now
                            ));
                        }
                    }
                }
            }
        }
        chk.add_checks(checks);
    }

    /// True when no flit is buffered, in flight, or queued anywhere.
    pub fn is_drained(&self) -> bool {
        self.wheel.is_empty()
            && self.routers.iter().all(Router::is_idle)
            && self.terminals.iter().all(|t| t.backlog_packets() == 0)
    }

    /// Aggregated router statistics (speculation counters etc.).
    pub fn router_stats(&self) -> RouterStats {
        let mut agg = RouterStats::default();
        for r in &self.routers {
            agg.nonspec_grants += r.stats.nonspec_grants;
            agg.spec_grants += r.stats.spec_grants;
            agg.spec_masked += r.stats.spec_masked;
            agg.spec_invalid += r.stats.spec_invalid;
            agg.spec_requests += r.stats.spec_requests;
            agg.vca_grants += r.stats.vca_grants;
            agg.vca_requests += r.stats.vca_requests;
        }
        agg
    }

    /// Snapshot of every router's observability counters, in router-id
    /// order (feeds the `noc-obs` exporters).
    pub fn router_obs(&self) -> Vec<RouterObs> {
        self.routers.iter().map(|r| r.obs.clone()).collect()
    }

    /// Per-router digests: link throughput since reset and the
    /// worst-stalled input port.
    pub fn router_breakdowns(&self) -> Vec<RouterBreakdown> {
        let cycles = self.now.max(1) as f64;
        self.routers
            .iter()
            .map(|r| {
                let (worst_port, worst_port_stall) = r.obs.worst_port_stall();
                RouterBreakdown {
                    router: r.id,
                    throughput: r.obs.total_out_flits() as f64 / cycles,
                    worst_port,
                    worst_port_stall,
                }
            })
            .collect()
    }

    /// Total request-queue backlog across terminals (saturation indicator).
    pub fn total_backlog(&self) -> usize {
        self.terminals.iter().map(Terminal::backlog_packets).sum()
    }

    /// Total flits injected since reset.
    pub fn total_flits_injected(&self) -> u64 {
        self.terminals.iter().map(|t| t.flits_injected).sum()
    }

    /// UGAL route-choice split since reset: `(minimal, non-minimal)`
    /// packets started.
    pub fn ugal_split(&self) -> (u64, u64) {
        (
            self.terminals.iter().map(|t| t.minimal_started).sum(),
            self.terminals.iter().map(|t| t.nonminimal_started).sum(),
        )
    }
}

/// One epoch's work order, written by the main thread before it publishes
/// the epoch: where the routers, their output buffers and the topology
/// live, and the cycle to compute.
#[derive(Clone, Copy)]
struct Job {
    topo: *const Topology,
    routers: *mut Router,
    outs: *mut RouterOutputs,
    now: u64,
}

/// The state the parallel engine's main thread shares with its workers.
///
/// Safety protocol (machine-checked as the `run_par` model in
/// `crates/mc`, see DESIGN.md §11): access alternates in phases. Between
/// the main thread's epoch publication (`par_protocol::EPOCH_PUBLISH`)
/// and a worker's completion signal (`par_protocol::DONE_SIGNAL`) only
/// that worker touches its disjoint index range `[lo, hi)` of the routers
/// and output buffers, and the main thread touches neither them nor
/// `job`; at every other time (delivery, commit, finish) only the main
/// thread does. The epoch/done atomics carry the Acquire/Release edges
/// ordering those accesses.
#[derive(Default)]
struct Shared {
    epoch: AtomicU64,
    done: AtomicUsize,
    stop: AtomicBool,
    /// Set by a worker that unwinds: it will never signal `done`, so
    /// without this flag the main thread would spin forever instead of
    /// propagating the panic.
    poisoned: AtomicBool,
    job: UnsafeCell<Option<Job>>,
}

// SAFETY: `job` is the only field that is not `Sync`; the main thread
// writes it only while every worker is parked between epochs, and workers
// read it only after acquiring the epoch it was published with.
unsafe impl Sync for Shared {}

/// Spin briefly, then yield the timeslice: on oversubscribed or
/// single-core hosts a pure spin burns a whole scheduler quantum before
/// the peer thread can make the awaited progress.
fn spin_or_yield(spins: &mut u32) {
    *spins += 1;
    if *spins < pp::SPIN_LIMIT {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Sets the poison flag if the worker holding it unwinds.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, pp::STOP_PUBLISH);
        }
    }
}

impl Shared {
    /// A worker's life: wait for each epoch, step routers `[lo, hi)` of its
    /// job, signal done; return once `stop` is published.
    fn work(&self, lo: usize, hi: usize) {
        let _poison = PoisonOnPanic(&self.poisoned);
        let mut seen = 0u64;
        loop {
            let mut spins = 0u32;
            loop {
                let e = self.epoch.load(pp::EPOCH_WAIT);
                if e > seen {
                    seen = e;
                    break;
                }
                if self.stop.load(pp::STOP_WAIT) {
                    return;
                }
                spin_or_yield(&mut spins);
            }
            // SAFETY: the main thread wrote `job` before publishing the
            // epoch just acquired and writes it again only after every
            // worker has signalled `done` (see `Shared`).
            let Some(job) = (unsafe { *self.job.get() }) else {
                unreachable!("an epoch is published with its job")
            };
            // SAFETY: the topology outlives the run and nothing mutates it
            // while a job is out.
            let topo = unsafe { &*job.topo };
            for i in lo..hi {
                // SAFETY: this worker owns indices [lo, hi) of both arrays
                // until it signals `done`: `par_protocol::shard_range`
                // partitions `0..n` disjointly across workers, and the main
                // thread touches neither array until every worker is done.
                let (router, out) = unsafe { (&mut *job.routers.add(i), &mut *job.outs.add(i)) };
                router.step_into(topo, job.now, out, &mut ());
            }
            self.done.fetch_add(1, pp::DONE_SIGNAL);
        }
    }
}

/// The parallel engine's persistent worker pool, one per
/// [`Network::run_parallel`] call. Dropping it publishes `stop`, on the
/// normal path and on unwind alike, so `thread::scope` can join the
/// workers instead of hanging when the main thread panics.
struct Pool<'s> {
    shared: &'s Shared,
    workers: Vec<ScopedJoinHandle<'s, ()>>,
}

impl<'s> Pool<'s> {
    /// Starts `threads` workers sharding `n` routers.
    fn spawn(s: &'s Scope<'s, '_>, shared: &'s Shared, threads: usize, n: usize) -> Pool<'s> {
        let workers = (0..threads)
            .map(|k| {
                let (lo, hi) = pp::shard_range(k, n, threads);
                s.spawn(move || shared.work(lo, hi))
            })
            .collect();
        Pool { shared, workers }
    }

    /// Computes every router for cycle `now` on the workers and waits for
    /// them. The routers never move: each epoch's job carries fresh
    /// pointers into the vectors, taken without creating a reference.
    fn compute(
        &mut self,
        topo: &Topology,
        now: u64,
        routers: &mut Vec<Router>,
        outs: &mut Vec<RouterOutputs>,
    ) {
        let job = Job {
            topo,
            routers: routers.as_mut_ptr(),
            outs: outs.as_mut_ptr(),
            now,
        };
        let sh = self.shared;
        // SAFETY: every worker is parked awaiting the next epoch and reads
        // `job` only after acquiring it, so this thread has sole access.
        unsafe { *sh.job.get() = Some(job) };
        // RELAXED: ordered before the workers' reads by the
        // program-order-later `EPOCH_PUBLISH` release on this same
        // thread (mutant `done-reset-after-publish` in crates/mc shows why
        // the order, not the ordering, is what matters).
        sh.done.store(0, pp::DONE_RESET);
        sh.epoch.fetch_add(1, pp::EPOCH_PUBLISH);
        let mut spins = 0u32;
        while sh.done.load(pp::DONE_WAIT) < self.workers.len() {
            if sh.poisoned.load(pp::STOP_WAIT) {
                // A worker is unwinding and will never signal. Stop
                // touching the routers, release the surviving workers, and
                // re-raise the worker's own panic payload (`thread::scope`
                // would otherwise replace it with a generic "a scoped
                // thread panicked").
                sh.stop.store(true, pp::STOP_PUBLISH);
                for w in self.workers.drain(..) {
                    if let Err(payload) = w.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                unreachable!("a poisoned pool holds a panicked worker");
            }
            spin_or_yield(&mut spins);
        }
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        self.shared.stop.store(true, pp::STOP_PUBLISH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn quick_cfg(topology: TopologyKind, c: usize, rate: f64) -> SimConfig {
        SimConfig {
            injection_rate: rate,
            ..SimConfig::paper_baseline(topology, c)
        }
    }

    #[test]
    fn mesh_delivers_all_traffic_and_drains() {
        let mut net = Network::new(quick_cfg(TopologyKind::Mesh8x8, 1, 0.1));
        net.stats.set_window(0, 3000);
        net.run(3000);
        let injected = net.total_flits_injected();
        assert!(injected > 500, "injected only {injected}");
        // Stop traffic and drain.
        let mut cfg = net.cfg.clone();
        cfg.injection_rate = 0.0;
        net.cfg = cfg;
        for _ in 0..4000 {
            net.step();
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained(), "network failed to drain");
    }

    #[test]
    fn fbfly_delivers_all_traffic_and_drains() {
        for c in [1usize, 2] {
            let mut net = Network::new(quick_cfg(TopologyKind::FlattenedButterfly4x4, c, 0.2));
            net.stats.set_window(0, 2000);
            net.run(2000);
            assert!(net.total_flits_injected() > 1000);
            net.cfg.injection_rate = 0.0;
            for _ in 0..4000 {
                net.step();
                if net.is_drained() {
                    break;
                }
            }
            assert!(net.is_drained(), "fbfly C={c} failed to drain");
        }
    }

    #[test]
    fn conservation_flits_in_equals_flits_out_after_drain() {
        let mut net = Network::new(quick_cfg(TopologyKind::Mesh8x8, 2, 0.15));
        net.stats.set_window(0, u64::MAX);
        net.run(2500);
        net.cfg.injection_rate = 0.0;
        for _ in 0..4000 {
            net.step();
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained());
        assert_eq!(
            net.total_flits_injected(),
            net.stats.flits_ejected,
            "flits lost or duplicated"
        );
    }

    #[test]
    fn zero_load_latency_is_sane_for_mesh() {
        // At near-zero load, the average mesh packet latency should be a
        // couple dozen cycles (pipeline + links + serialization), far from
        // both 0 and saturation values.
        let mut net = Network::new(quick_cfg(TopologyKind::Mesh8x8, 1, 0.01));
        net.stats.set_window(1000, 6000);
        net.run(6000);
        let lat = net.stats.avg_latency();
        assert!(lat > 8.0 && lat < 40.0, "zero-load latency {lat}");
    }

    #[test]
    fn zero_load_latency_fbfly_below_mesh() {
        let mut mesh = Network::new(quick_cfg(TopologyKind::Mesh8x8, 1, 0.01));
        mesh.stats.set_window(1000, 6000);
        mesh.run(6000);
        let mut fb = Network::new(quick_cfg(TopologyKind::FlattenedButterfly4x4, 1, 0.01));
        fb.stats.set_window(1000, 6000);
        fb.run(6000);
        assert!(
            fb.stats.avg_latency() < mesh.stats.avg_latency(),
            "fbfly {} !< mesh {}",
            fb.stats.avg_latency(),
            mesh.stats.avg_latency()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut net = Network::new(quick_cfg(TopologyKind::Mesh8x8, 2, 0.2));
            net.stats.set_window(500, 2500);
            net.run(2500);
            (
                net.stats.latency_sum,
                net.stats.packets,
                net.stats.flits_ejected,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn speculation_reduces_zero_load_latency() {
        // §5.3.3: speculative switch allocation cuts mesh zero-load latency
        // (the paper reports up to 23%).
        let mut spec = Network::new(quick_cfg(TopologyKind::Mesh8x8, 1, 0.02));
        spec.stats.set_window(1000, 8000);
        spec.run(8000);
        let mut nonspec_cfg = quick_cfg(TopologyKind::Mesh8x8, 1, 0.02);
        nonspec_cfg.spec_mode = noc_core::SpecMode::NonSpeculative;
        let mut nons = Network::new(nonspec_cfg);
        nons.stats.set_window(1000, 8000);
        nons.run(8000);
        let (ls, ln) = (spec.stats.avg_latency(), nons.stats.avg_latency());
        assert!(ls < ln, "spec {ls} !< nonspec {ln}");
        let gain = (ln - ls) / ln;
        assert!(gain > 0.10, "speculation gain only {:.1}%", gain * 100.0);
    }
}
