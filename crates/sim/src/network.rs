//! The full network: routers, terminals, and links with credit channels.

use crate::config::SimConfig;
use crate::packet::Flit;
use crate::router::{Router, RouterConfig, RouterOutputs, RouterStats};
use crate::stats::NetStats;
use crate::terminal::{RouterProbe, Terminal};
use crate::topology::Topology;
use crate::verify::{InvariantChecker, NopChecker};
use noc_obs::{
    AnatomyCollector, FlightRecorder, FlitEvent, FlitEventKind, MetricsRegistry, NopProfiler,
    NopSink, Phase, PhaseProfiler, RouterBreakdown, RouterObs, TraceSink,
};
use std::time::Instant;

/// One reverse-link entry: `(upstream router, its output port, latency)`
/// for a network input port, or `None` for terminal-facing ports.
type RevLink = Option<(usize, usize, u64)>;

/// The parallel engine's epoch/done/stop protocol constants, named so the
/// `noc-mc` model checker's encoding can be pinned to them (see
/// `crates/sim/tests/protocol_drift.rs` — if either side changes alone,
/// that test fails and the machine-checked proof in `crates/mc` must be
/// re-run against the new protocol).
///
/// The happens-before argument these orderings carry is §11 of DESIGN.md:
/// main's shard writes are released by [`EPOCH_PUBLISH`] and acquired by
/// each worker's [`EPOCH_WAIT`]; each worker's shard writes are released
/// by [`DONE_SIGNAL`] and acquired by main's [`DONE_WAIT`]. [`DONE_RESET`]
/// may be relaxed *only because* it is program-ordered before the release
/// publication on the same thread.
pub mod par_protocol {
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

/// A complete simulated network, generic over the trace sink. The default
/// [`NopSink`] compiles all flit-event instrumentation away.
pub struct Network<S: TraceSink = NopSink> {
    /// Topology in use.
    pub topo: Topology,
    cfg: SimConfig,
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
    /// Flit-event sink.
    pub sink: S,
    /// Opt-in sampled time series (see [`Network::enable_metrics`]).
    pub metrics: Option<MetricsRegistry>,
    /// Opt-in windowed flight recorder (see
    /// [`Network::enable_telemetry`]).
    pub telemetry: Option<FlightRecorder>,
    /// Opt-in per-packet latency ledger (see
    /// [`Network::enable_anatomy`]). Folded on the main thread only: hop
    /// records travel through [`RouterOutputs::hops`] and are ingested at
    /// commit in router-id order, ejections fold during delivery in wheel
    /// order — both engine-invariant, so dumps are byte-identical across
    /// engines.
    pub anatomy: Option<AnatomyCollector>,
}

impl Network<NopSink> {
    /// Builds an untraced network in its reset state.
    pub fn new(cfg: SimConfig) -> Self {
        Network::with_sink(cfg, NopSink)
    }
}

impl<S: TraceSink> Network<S> {
    /// Builds a network in its reset state, reporting flit events to
    /// `sink`.
    pub fn with_sink(cfg: SimConfig, sink: S) -> Self {
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
            sink,
            metrics: None,
            telemetry: None,
            anatomy: None,
        }
    }

    /// Turns on occupancy / channel-utilization sampling every
    /// `sample_interval` cycles.
    pub fn enable_metrics(&mut self, sample_interval: u64) {
        self.metrics = Some(MetricsRegistry::new(sample_interval, self.routers.len()));
    }

    /// Turns on the flight recorder: a window snapshot every `window`
    /// cycles, the last `capacity` snapshots retained. A non-zero
    /// `matching_period` additionally enables matching-quality sampling in
    /// every router, every `matching_period` cycles (an exact maximum
    /// matching per router per sample — keep the period well above 1 for
    /// production runs).
    pub fn enable_telemetry(&mut self, window: u64, capacity: usize, matching_period: u64) {
        self.telemetry = Some(FlightRecorder::new(window, capacity));
        if matching_period > 0 {
            for r in &mut self.routers {
                r.enable_match_sampling(matching_period);
            }
        }
    }

    /// Turns on the per-packet latency ledger: every router stamps its
    /// buffered heads each cycle, ejections fold into per-stage histograms
    /// (`capacity` bounds retained per-packet records, `top_k` the slowest
    /// waterfalls kept). Costs one branch per router per cycle when off.
    pub fn enable_anatomy(&mut self, capacity: usize, top_k: usize) {
        self.anatomy = Some(AnatomyCollector::new(capacity, top_k));
        for r in &mut self.routers {
            r.enable_anatomy();
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
        self.cycle::<_, _, false>(&mut NopProfiler, &mut NopChecker);
    }

    /// Runs one network cycle, attributing wall time to pipeline phases.
    /// With [`NopProfiler`] every clock read compiles away and this is the
    /// plain [`Network::step`] fast path.
    pub fn step_profiled<P: PhaseProfiler>(&mut self, prof: &mut P) {
        self.cycle::<_, _, false>(prof, &mut NopChecker);
    }

    /// Runs `cycles` cycles of the cycle body on this thread, routers in
    /// router-id order, with `prof` and `chk` attached: the sequential
    /// engine, or with `SKIP_IDLE` the active-set engine (whose skip debts
    /// are settled before returning, so stall-cause read-outs such as
    /// [`Network::router_obs`] match the sequential engine exactly).
    pub(crate) fn run_in_order<P: PhaseProfiler, K: InvariantChecker, const SKIP_IDLE: bool>(
        &mut self,
        cycles: u64,
        prof: &mut P,
        chk: &mut K,
    ) {
        for _ in 0..cycles {
            self.cycle::<P, K, SKIP_IDLE>(prof, chk);
        }
        if SKIP_IDLE {
            for r in &mut self.routers {
                r.flush_skipped();
            }
        }
    }

    /// The one cycle body every engine shares (the parallel engine's pool
    /// aside, which shards the same router compute across threads).
    ///
    /// With `SKIP_IDLE` (the active-set engine) routers with no buffered
    /// flit and no flit in switch traversal are skipped. That is
    /// cycle-identical: an idle router's step produces no outputs and
    /// touches no allocator state; its only observable effect — one `empty`
    /// stall count per input VC — is accrued as a debt settled by
    /// [`Router::flush_skipped`].
    ///
    /// With [`NopProfiler`] and [`NopChecker`] every clock read and check
    /// compiles away; an active checker additionally runs the per-router
    /// matching-legality invariants and a whole-network credit-conservation
    /// audit after the cycle.
    fn cycle<P: PhaseProfiler, K: InvariantChecker, const SKIP_IDLE: bool>(
        &mut self,
        prof: &mut P,
        chk: &mut K,
    ) {
        let now = self.now;
        deliver_and_inject(
            &self.topo,
            &self.cfg,
            &mut self.wheel,
            &mut self.routers,
            &mut self.terminals,
            &mut self.stats,
            &mut self.sink,
            &mut self.anatomy,
            now,
            prof,
        );

        // --- routers: two-phase (compute into out_buf, commit to wheel) ----
        // Compute only touches the router itself; commit only schedules
        // wheel events with delay >= 1, so interleaving compute/commit per
        // router (here) is cycle-identical to computing all routers first
        // (the parallel engine) as long as commits stay in router-id order.
        for r in 0..self.routers.len() {
            if SKIP_IDLE && self.routers[r].is_idle() {
                self.routers[r].note_skipped();
                continue;
            }
            {
                let (routers, out_buf, topo, sink) = (
                    &mut self.routers,
                    &mut self.out_buf,
                    &self.topo,
                    &mut self.sink,
                );
                routers[r].step_into(topo, now, &mut out_buf[r], sink, prof);
            }
            commit_outputs(
                &self.topo,
                &self.rev,
                &mut self.wheel,
                r,
                &mut self.out_buf[r],
                &mut self.anatomy,
                now,
            );
        }

        // --- runtime invariants --------------------------------------------
        if K::ACTIVE {
            for r in &self.routers {
                r.check_invariants(chk);
            }
            self.audit_credit_conservation(chk);
        }
        finish_cycle(
            &self.routers,
            &self.terminals,
            &self.stats,
            &mut self.metrics,
            &mut self.telemetry,
            K::ACTIVE,
            now,
        );
        self.now += 1;
    }

    /// Runs `cycles` cycles on the parallel engine: the router compute
    /// phase is sharded across a persistent pool of `threads` workers.
    /// Workers spin between cycles, so this is a throughput engine for
    /// batch runs, not for interactive stepping.
    ///
    /// Cycle-identical to [`Network::run`]: the compute phase of each
    /// router reads nothing outside the router, and the commit phase runs
    /// on this thread in router-id order, so the timing-wheel event order
    /// matches the sequential engine exactly. With one thread or an active
    /// trace sink it computes routers in router-id order on this thread
    /// (the sequential cycle body), so trace event order is preserved too.
    pub fn run_parallel(&mut self, cycles: u64, threads: usize) {
        let threads = threads.clamp(1, self.routers.len().max(1));
        if threads == 1 || S::ACTIVE {
            self.run(cycles);
            return;
        }
        if cycles == 0 {
            return;
        }

        use par_protocol as pp;
        use std::cell::UnsafeCell;
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

        /// Shared view of the router and output-buffer cells.
        ///
        /// Safety protocol (machine-checked as the `run_par` model in
        /// `crates/mc`, see DESIGN.md §11): access alternates in phases.
        /// Between the main thread's epoch publication
        /// ([`par_protocol::EPOCH_PUBLISH`]) and a worker's completion
        /// signal ([`par_protocol::DONE_SIGNAL`]) only that worker touches
        /// its disjoint index range `[lo, hi)`; at every other time
        /// (delivery, commit, finish) only the main thread touches any
        /// cell. The epoch/done atomics carry the Acquire/Release edges
        /// ordering those accesses.
        struct Shards<'a> {
            routers: &'a [UnsafeCell<Router>],
            outs: &'a [UnsafeCell<RouterOutputs>],
        }
        // SAFETY: sharing the raw cells across worker threads is exactly
        // what the epoch/done protocol above makes sound; without this
        // impl the cells could not cross the `thread::scope` boundary.
        unsafe impl Sync for Shards<'_> {}

        /// Moves the drained router and output-buffer cells back into the
        /// network on drop — on the normal path *and* on unwind, so a
        /// panic below (a worker's, or the main thread's in
        /// commit/deliver) cannot leave the `Network` with empty router
        /// state. After an unwind the routers may reflect a partially
        /// computed cycle; the guarantee is structural (every router is
        /// back, memory-safe), not transactional.
        struct Restore<'a> {
            router_cells: Vec<UnsafeCell<Router>>,
            out_cells: Vec<UnsafeCell<RouterOutputs>>,
            routers: &'a mut Vec<Router>,
            out_buf: &'a mut Vec<RouterOutputs>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.routers
                    .extend(self.router_cells.drain(..).map(UnsafeCell::into_inner));
                self.out_buf
                    .extend(self.out_cells.drain(..).map(UnsafeCell::into_inner));
            }
        }

        /// Publishes `stop` when dropped, releasing every parked worker.
        /// Lives at the top of the scope closure so both the normal exit
        /// and a main-thread unwind set it *before* `thread::scope` joins
        /// — otherwise a panic in commit would hang the join forever.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, pp::STOP_PUBLISH);
            }
        }

        /// Worker-side unwind detector: a panicking worker never signals
        /// `done`, so without this flag the main thread would spin on
        /// `done < threads` forever instead of propagating the panic.
        struct PoisonOnPanic<'a>(&'a AtomicBool);
        impl Drop for PoisonOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, pp::STOP_PUBLISH);
                }
            }
        }

        let Network {
            topo,
            cfg,
            routers,
            terminals,
            wheel,
            rev,
            out_buf,
            now,
            stats,
            sink: _,
            metrics,
            telemetry,
            anatomy,
        } = self;
        let n = routers.len();
        let guard = Restore {
            router_cells: routers.drain(..).map(UnsafeCell::new).collect(),
            out_cells: out_buf.drain(..).map(UnsafeCell::new).collect(),
            routers,
            out_buf,
        };
        let shards = Shards {
            routers: &guard.router_cells,
            outs: &guard.out_cells,
        };
        let epoch = AtomicU64::new(0);
        let done = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let poisoned = AtomicBool::new(false);
        let base_now = *now;
        let topo_ref: &Topology = topo;

        // Spin briefly, then yield the timeslice: on oversubscribed or
        // single-core hosts a pure spin burns a whole scheduler quantum
        // before the peer thread can make the awaited progress.
        fn spin_or_yield(spins: &mut u32) {
            *spins += 1;
            if *spins < pp::SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }

        std::thread::scope(|s| {
            let stop_guard = StopOnDrop(&stop);
            let mut handles = Vec::with_capacity(threads);
            for k in 0..threads {
                let (lo, hi) = pp::shard_range(k, n, threads);
                let (shards, epoch, done, stop, poisoned) =
                    (&shards, &epoch, &done, &stop, &poisoned);
                handles.push(s.spawn(move || {
                    let _poison_guard = PoisonOnPanic(poisoned);
                    let mut seen = 0u64;
                    loop {
                        let mut spins = 0u32;
                        loop {
                            let e = epoch.load(pp::EPOCH_WAIT);
                            if e > seen {
                                seen = e;
                                break;
                            }
                            if stop.load(pp::STOP_WAIT) {
                                return;
                            }
                            spin_or_yield(&mut spins);
                        }
                        let cycle_now = base_now + (seen - 1);
                        for i in lo..hi {
                            // SAFETY: this worker owns indices [lo, hi) for
                            // the duration of the epoch (see `Shards`);
                            // `par_protocol::shard_range` partitions `0..n`
                            // disjointly across workers.
                            let router = unsafe { &mut *shards.routers[i].get() };
                            // SAFETY: as above — same owner, same window.
                            let out = unsafe { &mut *shards.outs[i].get() };
                            router.step_into(
                                topo_ref,
                                cycle_now,
                                out,
                                &mut NopSink,
                                &mut NopProfiler,
                            );
                        }
                        done.fetch_add(1, pp::DONE_SIGNAL);
                    }
                }));
            }

            for c in 0..cycles {
                let cycle_now = base_now + c;
                {
                    // SAFETY: workers are parked awaiting the next epoch, so
                    // the main thread has exclusive access to every cell;
                    // `UnsafeCell` is `repr(transparent)` over its payload.
                    let routers_mut: &mut [Router] = unsafe {
                        std::slice::from_raw_parts_mut(
                            guard.router_cells.as_ptr() as *mut Router,
                            n,
                        )
                    };
                    deliver_and_inject(
                        topo_ref,
                        cfg,
                        wheel,
                        routers_mut,
                        terminals,
                        stats,
                        &mut NopSink,
                        anatomy,
                        cycle_now,
                        &mut NopProfiler,
                    );
                }
                // RELAXED: ordered before the workers' reads by the
                // program-order-later `EPOCH_PUBLISH` release on this same
                // thread (mutant `done-reset-after-publish` in crates/mc
                // shows why the order, not the ordering, is what matters).
                done.store(0, pp::DONE_RESET);
                epoch.fetch_add(1, pp::EPOCH_PUBLISH);
                let mut spins = 0u32;
                loop {
                    if done.load(pp::DONE_WAIT) >= threads {
                        break;
                    }
                    if poisoned.load(pp::STOP_WAIT) {
                        // A worker is unwinding and will never signal.
                        // Stop touching the cells, release the surviving
                        // workers, and re-raise the worker's own panic
                        // payload (`thread::scope` would otherwise
                        // replace it with a generic "a scoped thread
                        // panicked"); `guard` restores the router state
                        // on the way out.
                        stop.store(true, pp::STOP_PUBLISH);
                        for h in handles.drain(..) {
                            if let Err(payload) = h.join() {
                                std::panic::resume_unwind(payload);
                            }
                        }
                        return;
                    }
                    spin_or_yield(&mut spins);
                }
                // SAFETY: every worker signalled `done` for this epoch, so
                // the main thread again has exclusive access.
                let outs_mut: &mut [RouterOutputs] = unsafe {
                    std::slice::from_raw_parts_mut(
                        guard.out_cells.as_ptr() as *mut RouterOutputs,
                        n,
                    )
                };
                for r in 0..n {
                    commit_outputs(
                        topo_ref,
                        rev,
                        wheel,
                        r,
                        &mut outs_mut[r],
                        anatomy,
                        cycle_now,
                    );
                }
                // SAFETY: same exclusive-access window as the commit above.
                let routers_ref: &[Router] = unsafe {
                    std::slice::from_raw_parts(guard.router_cells.as_ptr() as *const Router, n)
                };
                finish_cycle(
                    routers_ref,
                    terminals,
                    stats,
                    metrics,
                    telemetry,
                    false,
                    cycle_now,
                );
            }
            *now = base_now + cycles;
            drop(stop_guard);
        });
    }

    /// Verifies credit conservation on every channel: upstream credits plus
    /// in-flight flits plus downstream occupancy plus in-flight return
    /// credits must equal the buffer depth, for router→router links,
    /// terminal injection channels and terminal ejection channels alike.
    fn audit_credit_conservation<K: InvariantChecker>(&self, chk: &mut K) {
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

    /// Runs `cycles` network cycles.
    pub fn run(&mut self, cycles: u64) {
        self.run_in_order::<_, _, false>(cycles, &mut NopProfiler, &mut NopChecker);
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

/// Pre-router phase of a cycle: deliver timing-wheel events landing this
/// cycle, then let every terminal generate and (if possible) inject
/// traffic. Free function (not a method) so the persistent-pool parallel
/// engine can call it on destructured network fields while worker threads
/// hold the topology borrow.
#[allow(clippy::too_many_arguments)]
fn deliver_and_inject<S: TraceSink, P: PhaseProfiler>(
    topo: &Topology,
    cfg: &SimConfig,
    wheel: &mut TimingWheel,
    routers: &mut [Router],
    terminals: &mut [Terminal],
    stats: &mut NetStats,
    sink: &mut S,
    anatomy: &mut Option<AnatomyCollector>,
    now: u64,
    prof: &mut P,
) {
    // --- deliver link/credit events landing this cycle ----------------
    let wheel_timer = P::ACTIVE.then(Instant::now);
    let mut wheel_events = 0u64;
    // Take the slot, drain it, hand the buffer back: nothing schedules
    // into the *current* slot (delays are >= 1 and < the wheel size), so
    // the buffer is free to recycle once the loop ends.
    let mut events = wheel.take(now);
    for ev in events.drain(..) {
        wheel_events += 1;
        match ev {
            Event::FlitToRouter {
                router,
                port,
                vc,
                flit,
            } => {
                routers[router].accept_flit(port, vc, flit, now);
            }
            Event::CreditToRouter { router, port, vc } => {
                routers[router].accept_credit(port, vc);
            }
            Event::FlitToTerminal { term, vc, flit } => {
                stats.record_flit_ejected(now);
                if let Some(col) = anatomy {
                    // Fold in wheel-delivery order: identical on every
                    // engine (delivery always runs on the main thread).
                    if flit.head {
                        col.eject_head(flit.packet_id, flit.birth, flit.injected, now);
                    }
                    if flit.tail {
                        col.eject_tail(
                            flit.packet_id,
                            flit.msg_class() as u8,
                            now,
                            stats.in_window(now),
                        );
                    }
                }
                if flit.tail {
                    stats.record_packet_from(now, flit.birth, flit.msg_class(), flit.src);
                }
                terminals[term].receive(&flit, now);
                // Ideal sink: return the credit immediately.
                let (router, port) = topo.terminal_attach(term);
                if S::ACTIVE {
                    sink.record(FlitEvent {
                        cycle: now,
                        kind: FlitEventKind::Eject,
                        router: router as u32,
                        port: port as u16,
                        vc: vc as u16,
                        packet_id: flit.packet_id,
                        flit_index: flit.flit_index as u32,
                    });
                }
                wheel.schedule(now, 1, Event::CreditToRouter { router, port, vc });
            }
            Event::CreditToTerminal { term, vc } => {
                terminals[term].accept_credit(vc);
            }
        }
    }
    wheel.recycle(events);
    if let Some(t) = wheel_timer {
        prof.record(Phase::Credit, t.elapsed().as_nanos() as u64, wheel_events);
    }

    // --- terminals: traffic generation and injection -------------------
    let n_term = terminals.len();
    let geom = topo.geometry();
    for t in 0..n_term {
        terminals[t].generate_traffic_burst(cfg.injection_rate, cfg.pattern, geom, now, cfg.burst);
        // A terminal with nothing queued and nothing in flight cannot
        // inject and its step consumes no RNG, so skipping it is exact on
        // every engine.
        if terminals[t].backlog_packets() == 0 {
            continue;
        }
        let router = terminals[t].router;
        let port = terminals[t].port;
        let out = terminals[t].step(topo, &RouterProbe(&routers[router]), now);
        if let Some((vc, flit)) = out.flit {
            stats.record_flit_injected(now);
            if S::ACTIVE {
                sink.record(FlitEvent {
                    cycle: now,
                    kind: FlitEventKind::Inject,
                    router: router as u32,
                    port: port as u16,
                    vc: vc as u16,
                    packet_id: flit.packet_id,
                    flit_index: flit.flit_index as u32,
                });
            }
            wheel.schedule(
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

/// Commit phase for one router: drain its output buffer into the timing
/// wheel. All scheduled events carry delay >= 1, so commits never feed
/// back into the current cycle — the property that makes the two-phase
/// split cycle-identical to the interleaved sequential step.
fn commit_outputs(
    topo: &Topology,
    rev: &[Vec<RevLink>],
    wheel: &mut TimingWheel,
    r: usize,
    out: &mut RouterOutputs,
    anatomy: &mut Option<AnatomyCollector>,
    now: u64,
) {
    // Ingest hop records before the wheel drain: commit runs in router-id
    // order on every engine, so collector state is engine-invariant.
    match anatomy {
        Some(col) => {
            for h in out.hops.drain(..) {
                col.ingest_hop(h);
            }
        }
        None => out.hops.clear(),
    }
    for of in out.flits.drain(..) {
        if let Some(term) = topo.port_terminal(r, of.port) {
            wheel.schedule(
                now,
                1,
                Event::FlitToTerminal {
                    term,
                    vc: of.vc,
                    flit: of.flit,
                },
            );
        } else {
            let Some(link) = topo.link(r, of.port) else {
                unreachable!("flit sent to port {} of router {r} with no link", of.port)
            };
            wheel.schedule(
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
        if let Some(term) = topo.port_terminal(r, in_port) {
            wheel.schedule(now, 1, Event::CreditToTerminal { term, vc: in_vc });
        } else {
            let Some((ur, up, lat)) = rev[r][in_port] else {
                unreachable!("credit return on port {in_port} of router {r} with no link")
            };
            wheel.schedule(
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

/// Post-commit bookkeeping: debug-build invariant checks, sampled time
/// series, and flight-recorder window snapshots. Does not advance `now` —
/// callers own the clock.
fn finish_cycle(
    routers: &[Router],
    terminals: &[Terminal],
    stats: &NetStats,
    metrics: &mut Option<MetricsRegistry>,
    telemetry: &mut Option<FlightRecorder>,
    checker_active: bool,
    now: u64,
) {
    if cfg!(debug_assertions) && !checker_active {
        // Debug builds run the (cheap) router-local invariants on the
        // ordinary step path too, so the whole test suite exercises
        // them; the credit audit stays opt-in via an active checker.
        let mut strict = crate::verify::StrictChecker::default();
        for r in routers {
            r.check_invariants(&mut strict);
        }
        assert!(
            strict.violations.is_empty(),
            "cycle {now}: router invariant violations: {:?}",
            strict.violations
        );
    }

    // --- sampled time series -------------------------------------------
    if let Some(m) = metrics {
        if m.due(now) {
            m.sample(
                now,
                routers.iter().map(|r| {
                    (
                        r.buffered_flits() as u32,
                        r.busy_vcs() as u32,
                        r.obs.total_out_flits(),
                        r.ports(),
                    )
                }),
            );
        }
    }

    // --- flight recorder ------------------------------------------------
    // Keyed purely on the cycle number, so every engine records identical
    // windows regardless of chunking or skipping.
    if let Some(rec) = telemetry {
        if rec.due(now) {
            let injected: u64 = terminals.iter().map(|t| t.flits_injected).sum();
            rec.record(
                now,
                injected,
                stats.total_flits_ejected,
                routers.iter().map(Router::telemetry_counters),
            );
        }
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
