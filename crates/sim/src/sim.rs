//! Running simulations: the [`Run`] builder (every engine, every
//! observer, one or more seeds), latency-vs-injection-rate curves
//! (Figures 13/14) and saturation-rate extraction.

use crate::config::SimConfig;
use crate::network::Network;
use crate::observer::Observer;
use crate::router::RouterStats;
use crate::steady;
use crate::verify::{StrictChecker, VerifyReport};
use noc_obs::{
    percentile_table_json, AnatomyCollector, FlightRecorder, HdrHistogram, JsonValue, JsonWriter,
    MetricsRegistry, Profiler, RouterBreakdown, RouterObs, TelemetrySummary, WindowSnapshot,
    DEFAULT_QUANTILES,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Average latency beyond which a run is declared saturated.
pub const LATENCY_CAP: f64 = 400.0;

/// Result of one simulation run at a fixed injection rate.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Offered load, flits/cycle/terminal.
    pub offered: f64,
    /// Average packet latency over the measurement window (cycles); `NaN`
    /// if nothing was delivered.
    pub avg_latency: f64,
    /// Average request-packet latency.
    pub request_latency: f64,
    /// Average reply-packet latency.
    pub reply_latency: f64,
    /// Sample standard deviation of packet latency (cycles).
    pub latency_std_dev: f64,
    /// 99th-percentile packet latency, interpolated from the log-linear
    /// histogram (≤ ~3% relative error).
    pub latency_p99: f64,
    /// Accepted throughput, flits/cycle/terminal.
    pub throughput: f64,
    /// True if the network kept up with the offered load (latency under
    /// [`LATENCY_CAP`] and no unbounded source backlog).
    pub stable: bool,
    /// Half-width of the 95% confidence interval on `avg_latency` — from
    /// replicate means ([`Run::seeds`]) or batch means over the latency
    /// timeline ([`Run::auto`] with one seed); NaN for plain single runs,
    /// which carry no interval estimate.
    pub ci95: f64,
    /// Independent seeds aggregated into this result (1 for single runs).
    pub seeds: usize,
    /// Warmup cycle count chosen by MSER steady-state detection, for
    /// [`Run::auto`] runs; `None` when the warmup was fixed by the caller.
    pub warmup_detected: Option<u64>,
    /// Whole-run telemetry summary (per-window matching efficiency, flit
    /// motion and in-flight series), when the run had the flight recorder
    /// enabled; `None` otherwise.
    pub telemetry: Option<TelemetrySummary>,
    /// Full latency histogram over the measurement window (merged across
    /// replicates for replicated runs).
    pub hist: HdrHistogram,
    /// Aggregated router counters.
    pub router_stats: RouterStats,
    /// Per-router digests (throughput and worst-stalled port), in
    /// router-id order.
    pub routers: Vec<RouterBreakdown>,
}

impl SimResult {
    /// Highest per-router link throughput (flits/cycle); NaN without
    /// breakdown data.
    pub fn max_router_throughput(&self) -> f64 {
        self.routers
            .iter()
            .map(|r| r.throughput)
            .fold(f64::NAN, f64::max)
    }

    /// Lowest per-router link throughput (flits/cycle); NaN without
    /// breakdown data.
    pub fn min_router_throughput(&self) -> f64 {
        self.routers
            .iter()
            .map(|r| r.throughput)
            .fold(f64::NAN, f64::min)
    }

    /// The router with the worst-stalled input port, as
    /// `(router, port, stall fraction)`.
    pub fn worst_stall(&self) -> Option<(usize, usize, f64)> {
        self.routers
            .iter()
            .max_by(|a, b| a.worst_port_stall.total_cmp(&b.worst_port_stall))
            .map(|r| (r.router, r.worst_port, r.worst_port_stall))
    }

    /// Serializes the result (including the per-router breakdown) as one
    /// JSON object.
    pub fn to_json(&self) -> String {
        self.encode(false)
    }

    /// As [`SimResult::to_json`], extended with the raw histogram state so
    /// the result round-trips losslessly through [`SimResult::from_json`]
    /// (the cache-file format of the sweep orchestrator). The derived
    /// members of [`SimResult::to_json`] (`percentiles`, router throughput
    /// extremes) stay in place, so a full record is also a superset of the
    /// plain report.
    pub fn to_json_full(&self) -> String {
        self.encode(true)
    }

    fn encode(&self, full: bool) -> String {
        let s = &self.router_stats;
        JsonWriter::object(|w| {
            w.key("offered").f64(self.offered);
            w.key("avg_latency").f64(self.avg_latency);
            w.key("request_latency").f64(self.request_latency);
            w.key("reply_latency").f64(self.reply_latency);
            w.key("latency_std_dev").f64(self.latency_std_dev);
            w.key("latency_p99").f64(self.latency_p99);
            w.key("throughput").f64(self.throughput);
            w.key("stable").bool(self.stable);
            w.key("ci95").f64(self.ci95);
            w.key("seeds").u64(self.seeds as u64);
            w.key("warmup_detected").opt_u64(self.warmup_detected);
            if let Some(t) = &self.telemetry {
                w.key("telemetry").raw(&t.to_json());
            }
            w.key("percentiles").raw(&percentile_table_json(
                &self.hist.percentile_table(&DEFAULT_QUANTILES),
            ));
            w.key("router_stats").obj(|w| {
                w.key("nonspec_grants").u64(s.nonspec_grants);
                w.key("spec_requests").u64(s.spec_requests);
                w.key("spec_grants").u64(s.spec_grants);
                w.key("spec_masked").u64(s.spec_masked);
                w.key("spec_invalid").u64(s.spec_invalid);
                w.key("vca_requests").u64(s.vca_requests);
                w.key("vca_grants").u64(s.vca_grants);
            });
            if !self.routers.is_empty() {
                w.key("max_router_throughput")
                    .f64(self.max_router_throughput());
                w.key("min_router_throughput")
                    .f64(self.min_router_throughput());
                w.key("routers").arr(|w| {
                    for r in &self.routers {
                        w.obj(|w| {
                            w.key("router").u64(r.router as u64);
                            w.key("throughput").f64(r.throughput);
                            w.key("worst_port").u64(r.worst_port as u64);
                            w.key("worst_port_stall").f64(r.worst_port_stall);
                        });
                    }
                });
            }
            if full {
                w.key("hist");
                self.hist.write_json(w);
            }
        })
    }

    /// Reconstructs a result from [`SimResult::to_json_full`] output.
    ///
    /// The round-trip is bit-exact: floats are serialized with Rust's
    /// shortest-roundtrip formatting and NaN maps through `null`, so
    /// `from_json(r.to_json_full())` re-serializes to the identical
    /// string (asserted by `full_json_round_trip_is_bit_exact`).
    pub fn from_json(s: &str) -> Result<SimResult, String> {
        let v = JsonValue::parse(s)?;
        let stats = v.field("router_stats")?;
        let routers = match v.get("routers").and_then(JsonValue::as_array) {
            None => Vec::new(),
            Some(rows) => rows
                .iter()
                .map(|r| {
                    Ok(RouterBreakdown {
                        router: r.u64_field("router")? as usize,
                        throughput: r.f64_field("throughput")?,
                        worst_port: r.u64_field("worst_port")? as usize,
                        worst_port_stall: r.f64_field("worst_port_stall")?,
                    })
                })
                .collect::<Result<_, String>>()
                .map_err(|e| format!("router row: {e}"))?,
        };
        Ok(SimResult {
            offered: v.f64_field("offered")?,
            avg_latency: v.f64_field("avg_latency")?,
            request_latency: v.f64_field("request_latency")?,
            reply_latency: v.f64_field("reply_latency")?,
            latency_std_dev: v.f64_field("latency_std_dev")?,
            latency_p99: v.f64_field("latency_p99")?,
            throughput: v.f64_field("throughput")?,
            stable: v
                .get("stable")
                .and_then(JsonValue::as_bool)
                .ok_or("missing field \"stable\"")?,
            ci95: v.f64_field("ci95")?,
            seeds: v.u64_field("seeds")? as usize,
            warmup_detected: v.get("warmup_detected").and_then(JsonValue::as_u64),
            telemetry: match v.get("telemetry") {
                Some(t @ JsonValue::Obj(_)) => {
                    Some(TelemetrySummary::from_value(t).map_err(|e| format!("telemetry: {e}"))?)
                }
                _ => None,
            },
            hist: HdrHistogram::from_json(v.field("hist")?).map_err(|e| format!("hist: {e}"))?,
            router_stats: RouterStats {
                nonspec_grants: stats.u64_field("nonspec_grants")?,
                spec_requests: stats.u64_field("spec_requests")?,
                spec_grants: stats.u64_field("spec_grants")?,
                spec_masked: stats.u64_field("spec_masked")?,
                spec_invalid: stats.u64_field("spec_invalid")?,
                vca_requests: stats.u64_field("vca_requests")?,
                vca_grants: stats.u64_field("vca_grants")?,
            },
            routers,
        })
    }
}

/// Simulation engine: how [`run_sim_engine`] drives the network's cycle
/// loop. All engines are cycle-identical — same flit movements, same
/// statistics, same trace digests (proven by `tests/engine_equivalence.rs`)
/// — and differ only in wall-clock speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Classic in-order step loop.
    Sequential,
    /// Two-phase compute/commit with a persistent worker pool of the given
    /// size; `Parallel(0)` sizes the pool to the available cores.
    Parallel(usize),
    /// Sequential two-phase step that skips idle routers (fastest at low
    /// load, where most routers are empty most cycles).
    ActiveSet,
}

impl Engine {
    /// Parses a CLI engine name: `seq`, `par`, `active`, or `auto` (which
    /// resolves to `par` on multi-core hosts and `seq` otherwise).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "seq" | "sequential" => Some(Engine::Sequential),
            "par" | "parallel" => Some(Engine::Parallel(0)),
            "active" | "active-set" => Some(Engine::ActiveSet),
            "auto" => Some(Engine::auto()),
            _ => None,
        }
    }

    /// The engine `auto` picks for this host.
    pub fn auto() -> Engine {
        match std::thread::available_parallelism() {
            Ok(p) if p.get() >= 2 => Engine::Parallel(0),
            _ => Engine::Sequential,
        }
    }

    /// Worker-pool size the parallel engine will use (1 for the others).
    pub fn threads(self) -> usize {
        match self {
            Engine::Parallel(0) => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            Engine::Parallel(t) => t,
            _ => 1,
        }
    }

    /// Short name for reports and bench records.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Sequential => "seq",
            Engine::Parallel(_) => "par",
            Engine::ActiveSet => "active",
        }
    }

    /// Drives `net` for `cycles` cycles on this engine.
    pub fn run(self, net: &mut Network, cycles: u64) {
        self.run_with(net, cycles, &mut ());
    }

    /// As [`Engine::run`], with `obs` attached (first [`Observer::attach`],
    /// then every hook of every cycle). The parallel engine keeps its
    /// worker pool unless `obs` hooks inside router compute (see
    /// [`Network::run_parallel`]), so results, traces and dumps stay
    /// byte-identical across engines.
    pub fn run_with<O: Observer>(self, net: &mut Network, cycles: u64, obs: &mut O) {
        obs.attach(net);
        match self {
            Engine::Sequential => net.run_in_order::<O, false>(cycles, obs),
            Engine::ActiveSet => net.run_in_order::<O, true>(cycles, obs),
            Engine::Parallel(_) => net.run_pool(cycles, self.threads(), obs),
        }
    }
}

/// A plain run of `cfg` on `engine`: `warmup` cycles to reach steady
/// state, then a `measure`-cycle window. The result is bit-identical
/// across engines. Shorthand for
/// `Run::new(cfg, warmup, measure).engine(engine).go()`.
pub fn run_sim_engine(cfg: &SimConfig, warmup: u64, measure: u64, engine: Engine) -> SimResult {
    match Run::new(cfg, warmup, measure).engine(engine).go() {
        Ok(out) => out.result,
        Err(trip) => unreachable!(
            "a run without telemetry has no watchdog: {}",
            trip.describe()
        ),
    }
}

/// A [`Run::on_window`] callback.
type WindowHook<'a> = Box<dyn FnMut(&WindowSnapshot) + 'a>;

/// One simulation run: any engine, any mix of observers, one or more
/// seeds.
///
/// Built from a window ([`Run::new`] or [`Run::auto`]) and the setters
/// below, then executed by [`Run::go`]. Every observer is a pure observer:
/// the [`SimResult`] is bit-identical to the plain run's on every engine,
/// apart from the `telemetry` block that recording adds.
///
/// ```
/// use noc_sim::{Engine, Run, SimConfig, TopologyKind};
///
/// let cfg = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1);
/// let out = Run::new(&cfg, 200, 400)
///     .engine(Engine::ActiveSet)
///     .anatomy(1 << 10, 2)
///     .verify()
///     .go()
///     .expect("a run without telemetry cannot trip the watchdog");
/// assert!(out.verify.is_some_and(|rep| rep.passed()));
/// assert!(out.anatomy.is_some());
/// ```
pub struct Run<'a> {
    cfg: &'a SimConfig,
    /// Cycles before the measurement window; `None` lets a pilot run
    /// pick them (MSER truncation).
    warmup: Option<u64>,
    total: u64,
    engine: Engine,
    seeds: usize,
    sink: Option<&'a mut dyn Observer>,
    metrics: Option<u64>,
    telemetry: Option<TelemetryOptions>,
    on_window: Option<WindowHook<'a>>,
    anatomy: Option<(usize, usize)>,
    profile: bool,
    verify: bool,
}

/// What a [`Run`] produced: the summary plus each artifact that was asked
/// for (`None` for the rest).
pub struct RunOutput {
    /// Standard run summary (aggregated over replicates for several seeds).
    pub result: SimResult,
    /// Per-router observability counters of the base-seed replicate.
    pub router_obs: Vec<RouterObs>,
    /// Sampled time series ([`Run::metrics`]).
    pub metrics: Option<MetricsRegistry>,
    /// The flight recorder ([`Run::telemetry`]).
    pub telemetry: Option<FlightRecorder>,
    /// The per-packet latency ledger ([`Run::anatomy`]).
    pub anatomy: Option<AnatomyCollector>,
    /// Per-phase wall time, stamped with the run's cycles and wall time
    /// ([`Run::profile`]).
    pub profile: Option<Profiler>,
    /// The invariant checker's report ([`Run::verify`]).
    pub verify: Option<VerifyReport>,
}

impl<'a> Run<'a> {
    /// A run of `warmup` cycles to reach steady state, then a
    /// `measure`-cycle window, on the sequential engine with one seed and
    /// no observers.
    pub fn new(cfg: &'a SimConfig, warmup: u64, measure: u64) -> Run<'a> {
        Run::with_window(cfg, Some(warmup), warmup + measure)
    }

    /// A run of `total` cycles with automatic steady-state detection: a
    /// pilot run finds the initialization transient (MSER over windowed
    /// latency means), then the run measures only `[warmup, total)`. The
    /// result carries the detected warmup and, with one seed, a
    /// batch-means 95% confidence interval on the mean latency.
    pub fn auto(cfg: &'a SimConfig, total: u64) -> Run<'a> {
        Run::with_window(cfg, None, total)
    }

    fn with_window(cfg: &'a SimConfig, warmup: Option<u64>, total: u64) -> Run<'a> {
        Run {
            cfg,
            warmup,
            total,
            engine: Engine::Sequential,
            seeds: 1,
            sink: None,
            metrics: None,
            telemetry: None,
            on_window: None,
            anatomy: None,
            profile: false,
            verify: false,
        }
    }

    /// Drives the cycle loop with `engine` (default sequential).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Replicates the run over `n` seeds: `cfg.seed, cfg.seed+1, ...`, so
    /// an `n`-seed run nests inside an `m`-seed run for `n < m`. Latency
    /// metrics are averaged across replicates (mean of means) with a
    /// Student-t 95% confidence interval; histograms are merged, so
    /// percentiles reflect the pooled distribution; router counters are
    /// summed; the run is stable only if every replicate was. Observers
    /// attach to the base-seed replicate only — the run the caller gets
    /// with one seed — while the others run alongside on the same engine.
    pub fn seeds(mut self, n: usize) -> Self {
        self.seeds = n.max(1);
        self
    }

    /// Lends `sink` every hook of the run (a trace sink takes every flit
    /// event); the caller reads it after [`Run::go`].
    pub fn sink(mut self, sink: &'a mut impl Observer) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Samples the occupancy/utilization time series every
    /// `sample_interval` cycles.
    pub fn metrics(mut self, sample_interval: u64) -> Self {
        self.metrics = Some(sample_interval);
        self
    }

    /// Turns the flight recorder on. The engine then runs in window-sized
    /// chunks (chunking is cycle-exact on every engine), and the stall
    /// watchdog, if set, is checked between chunks.
    pub fn telemetry(mut self, opts: TelemetryOptions) -> Self {
        self.telemetry = Some(opts);
        self
    }

    /// Calls `f` with each telemetry window's snapshot as the window
    /// closes (the live `noc top` / `--record` streaming hook). Needs
    /// [`Run::telemetry`].
    pub fn on_window(mut self, f: impl FnMut(&WindowSnapshot) + 'a) -> Self {
        self.on_window = Some(Box::new(f));
        self
    }

    /// Turns the per-packet latency ledger on: every router stamps its
    /// waiting heads each cycle and ejections fold into the collector
    /// (`capacity` per-packet rows retained, `top_k` slowest waterfalls
    /// kept). The fold order is engine-invariant, so dumps are
    /// byte-identical across engines.
    pub fn anatomy(mut self, capacity: usize, top_k: usize) -> Self {
        self.anatomy = Some((capacity, top_k));
        self
    }

    /// Attributes wall time and event counts to the router pipeline
    /// phases.
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Runs the invariant checker on every cycle: matching legality,
    /// credit conservation, no flit without a VC.
    pub fn verify(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Executes the run. Returns the summary plus every artifact asked
    /// for, or the [`WatchdogTrip`] if the base-seed replicate stopped
    /// moving.
    pub fn go(self) -> Result<RunOutput, Box<WatchdogTrip>> {
        let (cfg, engine, n, total) = (self.cfg, self.engine, self.seeds, self.total);
        let warmup = self
            .warmup
            .unwrap_or_else(|| detect_warmup(cfg, total, engine));
        let detected = self.warmup.is_none().then_some(warmup);
        if n == 1 {
            return self.observe(warmup, detected);
        }
        std::thread::scope(|s| {
            let others = s.spawn(|| {
                run_many(n - 1, |i| {
                    let mut net = Network::new(SimConfig {
                        seed: cfg.seed.wrapping_add(i as u64 + 1),
                        ..cfg.clone()
                    });
                    net.stats.set_window(warmup, total);
                    engine.run(&mut net, total);
                    summarize(&net)
                })
            });
            let base = self.observe(warmup, detected);
            let others = others
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            let mut out = base?;
            out.result = aggregate(cfg, out.result, others, detected);
            Ok(out)
        })
    }

    /// Runs the base-seed replicate with every observer attached: one
    /// tuple of them, or `()` when none was asked for.
    fn observe(self, warmup: u64, detected: Option<u64>) -> Result<RunOutput, Box<WatchdogTrip>> {
        let total = self.total;
        let mut net = Network::new(self.cfg.clone());
        if detected.is_some() {
            net.stats.enable_timeline(timeline_window_for(total));
        }
        net.stats.set_window(warmup, total);
        let watched = self.sink.is_some()
            || self.metrics.is_some()
            || self.telemetry.is_some()
            || self.anatomy.is_some()
            || self.profile
            || self.verify;
        let mut sink = self.sink;
        let mut metrics = self
            .metrics
            .map(|interval| MetricsRegistry::new(interval, net.router_count()));
        let mut telemetry = self
            .telemetry
            .map(|t| FlightRecorder::new(t.window, t.capacity).with_matching(t.matching_period()));
        let mut anatomy = self
            .anatomy
            .map(|(capacity, top_k)| AnatomyCollector::new(capacity, top_k));
        let mut prof = self.profile.then(Profiler::default);
        let mut chk = self.verify.then(StrictChecker::default);
        let engine = self.engine;
        let watchdog = self.telemetry.and_then(|t| t.watchdog);
        let chunk = self.telemetry.map_or(total, |t| t.window);
        let mut on_window = self.on_window;
        let mut done = 0u64;
        while done < total {
            let cycles = chunk.min(total - done);
            let start = prof.is_some().then(Instant::now);
            if watched {
                let mut obs = (
                    &mut sink,
                    &mut metrics,
                    &mut telemetry,
                    &mut anatomy,
                    &mut prof,
                    &mut chk,
                );
                engine.run_with(&mut net, cycles, &mut obs);
            } else {
                engine.run(&mut net, cycles);
            }
            if let (Some(p), Some(t)) = (&mut prof, start) {
                p.wall_nanos += t.elapsed().as_nanos() as u64;
            }
            done += cycles;
            let Some(rec) = &telemetry else {
                continue;
            };
            if let Some(snap) = rec.latest().filter(|snap| snap.cycle == done) {
                if let Some(f) = &mut on_window {
                    f(snap);
                }
            }
            let stalled = rec.stalled_windows();
            if watchdog.is_some_and(|threshold| stalled >= threshold) {
                let in_flight = rec.latest().map_or(0, |snap| snap.in_flight);
                let (cycle, window) = (net.now, rec.window());
                if let Some(recorder) = telemetry.take() {
                    return Err(Box::new(WatchdogTrip {
                        cycle,
                        stalled_windows: stalled,
                        window,
                        in_flight,
                        recorder,
                    }));
                }
            }
        }
        let mut result = summarize(&net);
        result.warmup_detected = detected;
        result.telemetry = telemetry.as_ref().map(FlightRecorder::summary);
        if let Some(p) = &mut prof {
            p.cycles = total;
        }
        Ok(RunOutput {
            result,
            router_obs: net.router_obs(),
            metrics,
            telemetry,
            anatomy,
            profile: prof,
            verify: chk.map(StrictChecker::into_report),
        })
    }
}

/// Builds a [`SimResult`] from a network that has finished running (with
/// no telemetry block: the flight recorder is an observer, not part of
/// the network).
pub fn summarize(net: &Network) -> SimResult {
    let cfg = net.config();
    let terminals = net.topo.num_terminals();
    let avg = net.stats.avg_latency();
    let throughput = net.stats.throughput(terminals);
    // Stability: the measured backlog per terminal must stay small and the
    // latency bounded.
    let backlog = net.total_backlog() as f64 / terminals as f64;
    let stable = avg.is_finite() && avg < LATENCY_CAP && backlog < 12.0;
    // With a latency timeline enabled, a batch-means confidence interval
    // comes for free; plain runs report NaN (no interval estimate).
    let ci95 = if net.stats.timeline_window() > 0 {
        let finite: Vec<f64> = net
            .stats
            .timeline_means()
            .into_iter()
            .filter(|m| m.is_finite())
            .collect();
        if finite.len() >= 2 * MIN_BATCHES {
            steady::ci95_half_width(&steady::batch_means(&finite, MIN_BATCHES))
        } else {
            f64::NAN
        }
    } else {
        f64::NAN
    };
    SimResult {
        offered: cfg.injection_rate,
        avg_latency: avg,
        request_latency: net.stats.class_avg_latency(0),
        reply_latency: net.stats.class_avg_latency(1),
        latency_std_dev: net.stats.latency_std_dev(),
        latency_p99: net.stats.latency_percentile(0.99),
        throughput,
        stable,
        ci95,
        seeds: 1,
        warmup_detected: None,
        telemetry: None,
        hist: net.stats.histogram().clone(),
        router_stats: net.router_stats(),
        routers: net.router_breakdowns(),
    }
}

/// Flight-recorder configuration for a recorded run
/// ([`Run::telemetry`]).
#[derive(Clone, Copy, Debug)]
pub struct TelemetryOptions {
    /// Telemetry window length in cycles.
    pub window: u64,
    /// Matching-quality sample cadence in *windows*: every
    /// `match_every`-th window contributes one sampled cycle (an exact
    /// maximum matching per router). 0 disables matching sampling.
    pub match_every: u64,
    /// Flight-recorder ring capacity, in windows.
    pub capacity: usize,
    /// Stall-watchdog threshold in consecutive motionless windows (zero
    /// flit motion with flits in flight); `None` disables the watchdog.
    pub watchdog: Option<u64>,
}

impl TelemetryOptions {
    /// Full recording defaults: 100-cycle windows, a matching sample every
    /// window, a 256-window post-mortem ring, watchdog at 100 motionless
    /// windows (10k cycles).
    pub fn recording() -> TelemetryOptions {
        TelemetryOptions {
            window: 100,
            match_every: 1,
            capacity: 256,
            watchdog: Some(100),
        }
    }

    /// Watchdog-only defaults: coarse windows, no matching sampling, a
    /// small ring for the post-mortem dump; trips after roughly
    /// `threshold_cycles` cycles without flit motion.
    pub fn watchdog_only(threshold_cycles: u64) -> TelemetryOptions {
        let window = 500;
        TelemetryOptions {
            window,
            match_every: 0,
            capacity: 64,
            watchdog: Some(threshold_cycles.div_ceil(window).max(1)),
        }
    }

    /// Matching sample period in cycles (0 when sampling is off).
    fn matching_period(&self) -> u64 {
        self.match_every.saturating_mul(self.window)
    }
}

/// A stall-watchdog termination: the network went `stalled_windows`
/// consecutive windows with zero flit motion while `in_flight` flits were
/// stuck in the network — the dynamic signature of a deadlock or total
/// livelock. Carries the flight recorder for the post-mortem dump.
#[derive(Debug)]
pub struct WatchdogTrip {
    /// Cycle count when the watchdog fired.
    pub cycle: u64,
    /// Consecutive motionless windows observed.
    pub stalled_windows: u64,
    /// Telemetry window length in cycles.
    pub window: u64,
    /// Flits in flight when motion stopped.
    pub in_flight: u64,
    /// The recorder, ring intact, for the post-mortem dump.
    pub recorder: FlightRecorder,
}

impl WatchdogTrip {
    /// One-line diagnosis for error messages.
    pub fn describe(&self) -> String {
        format!(
            "no flit motion for {} windows ({} cycles) with {} flits in flight at cycle {} \
             — possible deadlock/livelock",
            self.stalled_windows,
            self.stalled_windows * self.window,
            self.in_flight,
            self.cycle
        )
    }
}

/// Default warmup/measurement lengths used by the figure benches.
pub const DEFAULT_WARMUP: u64 = 5_000;
/// Default measurement window.
pub const DEFAULT_MEASURE: u64 = 10_000;

/// Batches used for batch-means confidence intervals.
const MIN_BATCHES: usize = 20;

/// Timeline window length (cycles) for a run of `total` cycles: ~1% of
/// the run, clamped so short tests still get several windows and long
/// runs keep per-window counts meaningful.
fn timeline_window_for(total: u64) -> u64 {
    (total / 100).clamp(50, 1_000)
}

/// Runs `jobs` independent closures on a bounded worker pool (at most
/// [`std::thread::available_parallelism`] OS threads) and collects their
/// results in index order. Shared by [`latency_curve`] and
/// [`Run::seeds`]; previously every job spawned its own thread,
/// which oversubscribed small CI machines on wide sweeps.
///
/// A panicking job aborts the pool and re-raises the panic on the calling
/// thread with the originating job index and the original payload, instead
/// of surfacing later as an inexplicable missing result.
pub fn run_many<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(jobs);
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..jobs).map(|_| OnceLock::new()).collect();
    type Failure = Option<(usize, Box<dyn std::any::Any + Send>)>;
    let failure: Mutex<Failure> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // RELAXED: pure work-stealing ticket; each slot is written
                // once through its own OnceLock, which carries the ordering.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                // Catch instead of letting the scope propagate: the scope
                // would surface "a scoped thread panicked" with no hint of
                // which job died.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(v) => {
                        if slots[i].set(v).is_err() {
                            unreachable!("job {i} claimed twice");
                        }
                    }
                    Err(payload) => {
                        let mut fail = failure.lock().unwrap_or_else(|e| e.into_inner());
                        fail.get_or_insert((i, payload));
                        break;
                    }
                }
            });
        }
    });
    if let Some((i, payload)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        panic!("run_many job {i} panicked: {msg}");
    }
    slots
        .into_iter()
        .map(|s| {
            // Workers either fill their slot or record a failure, and a
            // failure re-raised above, so every slot is filled here.
            s.into_inner()
                .unwrap_or_else(|| unreachable!("scoped workers fill every slot before join"))
        })
        .collect()
}

/// Runs one simulation per injection rate, in parallel on a bounded
/// worker pool (each run is independent and deterministic).
pub fn latency_curve(base: &SimConfig, rates: &[f64], warmup: u64, measure: u64) -> Vec<SimResult> {
    latency_curve_with(base, rates, warmup, measure, &sequential)
}

/// A plain sequential-engine run: the point runner of [`latency_curve`]
/// and [`saturation_rate`].
fn sequential(cfg: &SimConfig, warmup: u64, measure: u64) -> SimResult {
    run_sim_engine(cfg, warmup, measure, Engine::Sequential)
}

/// As [`latency_curve`], but every point is produced by `run` instead of
/// a plain sequential run. A cache-backed runner (the sweep
/// orchestrator's) plugs in here to make curve computation resumable.
pub fn latency_curve_with<F>(
    base: &SimConfig,
    rates: &[f64],
    warmup: u64,
    measure: u64,
    run: &F,
) -> Vec<SimResult>
where
    F: Fn(&SimConfig, u64, u64) -> SimResult + Sync + ?Sized,
{
    run_many(rates.len(), |i| {
        let cfg = SimConfig {
            injection_rate: rates[i],
            ..base.clone()
        };
        run(&cfg, warmup, measure)
    })
}

/// Detects the warmup transient of `cfg` with a pilot run of `total`
/// cycles on `engine`: the run records a latency timeline, and MSER
/// truncation picks the first window of the steady state. Returns the
/// warmup in cycles (a multiple of the timeline window).
fn detect_warmup(cfg: &SimConfig, total: u64, engine: Engine) -> u64 {
    let window = timeline_window_for(total);
    let mut pilot = Network::new(cfg.clone());
    pilot.stats.set_window(0, total);
    pilot.stats.enable_timeline(window);
    engine.run(&mut pilot, total);
    steady::mser_truncation(&pilot.stats.timeline_means()) as u64 * window
}

/// Folds the base-seed result and the other replicates' into one (see
/// [`Run::seeds`]).
fn aggregate(
    cfg: &SimConfig,
    base: SimResult,
    others: Vec<SimResult>,
    detected: Option<u64>,
) -> SimResult {
    let runs: Vec<&SimResult> = std::iter::once(&base).chain(&others).collect();
    let mean_of = |get: fn(&SimResult) -> f64| {
        let xs: Vec<f64> = runs
            .iter()
            .map(|r| get(r))
            .filter(|x| x.is_finite())
            .collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let rep_means: Vec<f64> = runs.iter().map(|r| r.avg_latency).collect();
    let mut hist = HdrHistogram::new();
    let mut router_stats = RouterStats::default();
    for r in &runs {
        hist.merge(&r.hist);
        router_stats.nonspec_grants += r.router_stats.nonspec_grants;
        router_stats.spec_grants += r.router_stats.spec_grants;
        router_stats.spec_masked += r.router_stats.spec_masked;
        router_stats.spec_invalid += r.router_stats.spec_invalid;
        router_stats.spec_requests += r.router_stats.spec_requests;
        router_stats.vca_grants += r.router_stats.vca_grants;
        router_stats.vca_requests += r.router_stats.vca_requests;
    }
    SimResult {
        offered: cfg.injection_rate,
        avg_latency: mean_of(|r| r.avg_latency),
        request_latency: mean_of(|r| r.request_latency),
        reply_latency: mean_of(|r| r.reply_latency),
        latency_std_dev: mean_of(|r| r.latency_std_dev),
        latency_p99: hist.percentile(0.99),
        throughput: mean_of(|r| r.throughput),
        stable: runs.iter().all(|r| r.stable),
        ci95: steady::ci95_half_width(&rep_means),
        seeds: runs.len(),
        warmup_detected: detected,
        hist,
        router_stats,
        // Per-router rows and the telemetry summary come from the base
        // replicate, the one the observers watched.
        ..base
    }
}

/// Measures the zero-load latency: the average packet latency at a very
/// light load (1% of capacity).
pub fn zero_load_latency(base: &SimConfig) -> f64 {
    let cfg = SimConfig {
        injection_rate: 0.01,
        ..base.clone()
    };
    sequential(&cfg, 2_000, 12_000).avg_latency
}

/// Finds the saturation rate by bisection: the highest offered load the
/// network sustains with bounded latency and backlog.
pub fn saturation_rate(base: &SimConfig, warmup: u64, measure: u64) -> f64 {
    saturation_rate_with(base, warmup, measure, &sequential)
}

/// As [`saturation_rate`], with every probe run produced by `run` — the
/// probe sequence is deterministic, so a content-addressed cache makes
/// even this adaptive search fully resumable.
pub fn saturation_rate_with<F>(base: &SimConfig, warmup: u64, measure: u64, run: &F) -> f64
where
    F: Fn(&SimConfig, u64, u64) -> SimResult + Sync + ?Sized,
{
    let stable_at = |rate: f64| {
        let cfg = SimConfig {
            injection_rate: rate,
            ..base.clone()
        };
        run(&cfg, warmup, measure).stable
    };
    // Exponential probe upward from a safe floor.
    let mut lo = 0.02f64;
    if !stable_at(lo) {
        return 0.0;
    }
    let mut hi = 0.04f64;
    while hi < 1.0 && stable_at(hi) {
        lo = hi;
        hi *= 1.5;
    }
    let mut hi = hi.min(1.0);
    // Bisect to ~1% resolution.
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if stable_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    /// A 500 + 1500-cycle run of `cfg` with the latency ledger attached.
    fn anatomy_run(cfg: &SimConfig, engine: Engine, top_k: usize) -> (SimResult, AnatomyCollector) {
        let out = Run::new(cfg, 500, 1_500)
            .engine(engine)
            .anatomy(1 << 16, top_k)
            .go()
            .expect("no telemetry, no trip");
        (out.result, out.anatomy.expect("ledger attached"))
    }

    /// A recorded run of `cfg` on the sequential engine.
    fn recorded(
        cfg: &SimConfig,
        warmup: u64,
        measure: u64,
        opts: TelemetryOptions,
    ) -> Result<(SimResult, FlightRecorder), Box<WatchdogTrip>> {
        let out = Run::new(cfg, warmup, measure).telemetry(opts).go()?;
        Ok((out.result, out.telemetry.expect("recorder attached")))
    }

    #[test]
    fn low_load_runs_are_stable() {
        let cfg = SimConfig {
            injection_rate: 0.05,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
        };
        let r = run_sim_engine(&cfg, 1_000, 3_000, Engine::Sequential);
        assert!(r.stable);
        assert!(r.avg_latency.is_finite());
        assert!(r.throughput > 0.03, "throughput {}", r.throughput);
    }

    #[test]
    fn overload_is_detected_as_unstable() {
        let cfg = SimConfig {
            injection_rate: 0.95,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
        };
        let r = run_sim_engine(&cfg, 1_000, 3_000, Engine::Sequential);
        assert!(!r.stable, "0.95 flits/cycle cannot be stable on a mesh");
    }

    #[test]
    fn latency_grows_with_load() {
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        let curve = latency_curve(&base, &[0.05, 0.25], 1_500, 4_000);
        assert!(curve[1].avg_latency > curve[0].avg_latency);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let base = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
        };
        let r = run_sim_engine(&base, 2_000, 6_000, Engine::Sequential);
        assert!(r.stable);
        assert!(
            (r.throughput - 0.2).abs() < 0.02,
            "accepted {} vs offered 0.2",
            r.throughput
        );
    }

    #[test]
    fn run_many_propagates_worker_panics_with_job_index() {
        let result = std::panic::catch_unwind(|| {
            run_many(8, |i| {
                if i == 5 {
                    panic!("boom at job {i}");
                }
                i
            })
        });
        let payload = result.expect_err("worker panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("job 5"), "message should name the job: {msg}");
        assert!(
            msg.contains("boom at job 5"),
            "message should carry the original payload: {msg}"
        );
    }

    #[test]
    fn engine_parse_covers_cli_names() {
        assert_eq!(Engine::parse("seq"), Some(Engine::Sequential));
        assert_eq!(Engine::parse("par"), Some(Engine::Parallel(0)));
        assert_eq!(Engine::parse("active"), Some(Engine::ActiveSet));
        assert!(Engine::parse("auto").is_some());
        assert_eq!(Engine::parse("warp"), None);
        assert!(Engine::Parallel(0).threads() >= 1);
        assert_eq!(Engine::Parallel(3).threads(), 3);
        assert_eq!(Engine::Sequential.label(), "seq");
    }

    #[test]
    fn engines_agree_on_a_short_run() {
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let seq = run_sim_engine(&cfg, 500, 1_500, Engine::Sequential);
        let par = run_sim_engine(&cfg, 500, 1_500, Engine::Parallel(4));
        let act = run_sim_engine(&cfg, 500, 1_500, Engine::ActiveSet);
        assert_eq!(seq.to_json(), par.to_json());
        assert_eq!(seq.to_json(), act.to_json());
    }

    #[test]
    fn full_json_round_trip_is_bit_exact() {
        let cfg = SimConfig {
            injection_rate: 0.12,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let r = run_sim_engine(&cfg, 500, 1_500, Engine::Sequential);
        let full = r.to_json_full();
        let back = SimResult::from_json(&full).expect("round-trip parse");
        // Bit-exact re-serialization: every float (shortest-roundtrip
        // formatted), the histogram (so derived percentiles too), router
        // rows and counters survive the cache file format unchanged.
        assert_eq!(back.to_json_full(), full);
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.hist, r.hist);
        assert_eq!(back.hist.percentile(0.999), r.hist.percentile(0.999));
    }

    #[test]
    fn from_json_rejects_malformed_records() {
        assert!(SimResult::from_json("{}").is_err());
        assert!(SimResult::from_json("not json").is_err());
        // A plain (non-full) record has no histogram and must be refused
        // rather than silently reconstructed with an empty one.
        let r = run_sim_engine(
            &SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1),
            200,
            500,
            Engine::Sequential,
        );
        assert!(SimResult::from_json(&r.to_json()).is_err());
    }

    #[test]
    fn recorded_run_matches_plain_run_and_attaches_telemetry() {
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let plain = run_sim_engine(&cfg, 500, 1_500, Engine::Sequential);
        let mut windows_seen = 0u64;
        let out = Run::new(&cfg, 500, 1_500)
            .telemetry(TelemetryOptions::recording())
            .on_window(|_| windows_seen += 1)
            .go()
            .expect("healthy run must not trip the watchdog");
        let (rec_res, rec) = (out.result, out.telemetry.expect("recorder attached"));
        // Telemetry must be a pure observer: every simulation metric is
        // identical to the unrecorded run.
        assert_eq!(rec_res.avg_latency.to_bits(), plain.avg_latency.to_bits());
        assert_eq!(rec_res.throughput.to_bits(), plain.throughput.to_bits());
        assert_eq!(rec_res.hist, plain.hist);
        assert_eq!(rec.windows(), 20); // 2000 cycles / 100-cycle windows
        assert_eq!(windows_seen, 20);
        let summary = rec_res.telemetry.as_ref().expect("telemetry attached");
        assert_eq!(summary.windows, 20);
        // Uniform traffic at 0.1 keeps flits moving: mean matching
        // efficiency is a real number in (0, 1].
        let eff = summary.mean_efficiency();
        assert!(eff > 0.0 && eff <= 1.0, "mean efficiency {eff}");
        // The telemetry block survives the JSON round trip bit-exactly.
        let back = SimResult::from_json(&rec_res.to_json_full()).expect("parse");
        assert_eq!(back.to_json(), rec_res.to_json());
        assert_eq!(back.telemetry.unwrap().to_json(), summary.to_json());
    }

    #[test]
    fn recorded_runs_are_engine_identical() {
        let cfg = SimConfig {
            injection_rate: 0.15,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let opts = TelemetryOptions::recording();
        let run = |engine| {
            let out = Run::new(&cfg, 500, 1_500)
                .engine(engine)
                .telemetry(opts)
                .go()
                .expect("no trip");
            let rec = out.telemetry.expect("recorder attached");
            (out.result.to_json(), rec.summary().to_json())
        };
        let seq = run(Engine::Sequential);
        assert_eq!(seq, run(Engine::Parallel(4)));
        assert_eq!(seq, run(Engine::ActiveSet));
    }

    #[test]
    fn anatomy_run_is_a_pure_observer() {
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let plain = run_sim_engine(&cfg, 500, 1_500, Engine::Sequential);
        let (res, col) = anatomy_run(&cfg, Engine::Sequential, 4);
        // Every simulation metric must be bit-identical to the plain run.
        assert_eq!(res.avg_latency.to_bits(), plain.avg_latency.to_bits());
        assert_eq!(res.throughput.to_bits(), plain.throughput.to_bits());
        assert_eq!(res.hist, plain.hist);
        assert_eq!(res.to_json(), plain.to_json());
        assert!(col.totals.packets > 0);
    }

    #[test]
    fn anatomy_reconciles_exactly_with_measured_latency() {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let (res, col) = anatomy_run(&cfg, Engine::Sequential, 8);
        assert!(col.totals.packets > 100, "window too thin to be meaningful");
        assert_eq!(col.totals.dropped, 0);
        assert_eq!(col.records.len() as u64, col.totals.packets);
        // The tentpole invariant, packet by packet: the seven stages
        // partition eject - birth with no cycle lost or double-counted.
        for p in &col.records {
            assert!(p.reconciles(), "{p:?}");
        }
        for w in col.slowest() {
            assert!(w.packet.reconciles(), "{:?}", w.packet);
            for h in &w.hops {
                assert!(h.reconciles(), "{h:?}");
            }
        }
        // And in aggregate: the stage sums rebuild the measured average
        // latency bit for bit (same population, same dividend).
        let mean = col.totals.total_sum() as f64 / col.totals.packets as f64;
        assert_eq!(
            mean.to_bits(),
            res.avg_latency.to_bits(),
            "anatomy mean {mean} != measured {}",
            res.avg_latency
        );
    }

    #[test]
    fn anatomy_dumps_are_engine_identical() {
        let cfg = SimConfig {
            injection_rate: 0.15,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let header = noc_obs::AnatomyHeader {
            digest: cfg.digest(500, 1_500, "noc-anatomy/v1"),
            label: cfg.label(),
            routers: 64,
            warmup: 500,
            measure: 1_500,
            capacity: 1 << 16,
            top_k: 4,
        };
        let run = |engine| {
            let (res, col) = anatomy_run(&cfg, engine, 4);
            (res.to_json(), col.to_jsonl(&header))
        };
        let seq = run(Engine::Sequential);
        assert_eq!(seq, run(Engine::Parallel(4)));
        assert_eq!(seq, run(Engine::ActiveSet));
    }

    #[test]
    fn watchdog_trips_on_torus_without_dateline() {
        // The no-dateline torus fixture deadlocks under load: packets wrap
        // around the rings and form cyclic credit dependencies. The
        // watchdog must terminate the run with a usable post-mortem.
        let cfg = SimConfig {
            topology: TopologyKind::Torus8x8,
            injection_rate: 0.35,
            routing_override: Some(crate::routing::RoutingKind::TorusNoDateline),
            ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 1)
        };
        let opts = TelemetryOptions {
            watchdog: Some(10),
            ..TelemetryOptions::recording()
        };
        let trip =
            recorded(&cfg, 5_000, 45_000, opts).expect_err("no-dateline torus must deadlock");
        assert_eq!(trip.stalled_windows, 10);
        assert!(trip.in_flight > 0, "a stall needs stuck flits");
        assert!(
            trip.recorder.latest().is_some(),
            "post-mortem ring must hold the stalled windows"
        );
        assert!(trip.describe().contains("possible deadlock"));
    }

    #[test]
    fn watchdog_stays_quiet_on_dateline_torus() {
        // Same load on the correct dateline routing: no trip.
        let cfg = SimConfig {
            topology: TopologyKind::Torus8x8,
            injection_rate: 0.35,
            ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 1)
        };
        let opts = TelemetryOptions {
            watchdog: Some(10),
            ..TelemetryOptions::recording()
        };
        let (res, rec) = recorded(&cfg, 2_000, 8_000, opts).expect("no trip");
        assert!(res.throughput > 0.0);
        assert_eq!(rec.max_stalled_windows(), 0);
    }

    #[test]
    fn replicated_runs_attach_observers_to_the_base_seed() {
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let (single, col) = anatomy_run(&cfg, Engine::Sequential, 4);
        let out = Run::new(&cfg, 500, 1_500)
            .engine(Engine::ActiveSet)
            .seeds(3)
            .anatomy(1 << 16, 4)
            .go()
            .expect("no telemetry, no trip");
        assert_eq!(out.result.seeds, 3);
        assert_eq!(out.result.warmup_detected, None, "fixed window");
        assert!(out.result.ci95.is_finite());
        let base = out.anatomy.expect("ledger attached");
        assert_eq!(base.summary().to_json(), col.summary().to_json());
        let rows = |r: &SimResult| format!("{:?}", r.routers);
        assert_eq!(
            rows(&out.result),
            rows(&single),
            "per-router rows are the base seed's"
        );
    }

    #[test]
    fn profiles_count_the_same_events_on_every_engine() {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let events = |engine| {
            let out = Run::new(&cfg, 200, 600)
                .engine(engine)
                .profile()
                .go()
                .expect("no telemetry, no trip");
            let prof = out.profile.expect("profiler attached");
            assert_eq!(prof.cycles, 800);
            assert!(prof.wall_nanos > 0);
            (out.result.to_json(), prof.phase_events)
        };
        let seq = events(Engine::Sequential);
        // par computes routers in order while profiling: same counts.
        assert_eq!(seq, events(Engine::Parallel(4)));
        // active skips idle routers, which record no events anyway.
        assert_eq!(seq, events(Engine::ActiveSet));
    }

    #[test]
    fn saturation_rate_is_in_plausible_band() {
        // Mesh 2x1x1 under uniform request/reply traffic saturates well
        // below the 0.5 bisection bound and above 0.15 (Figure 13(a) shows
        // ~0.3 for the paper's setup).
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1);
        let sat = saturation_rate(&base, 1_500, 3_000);
        assert!((0.15..0.5).contains(&sat), "mesh 2x1x1 saturation {sat}");
    }
}
