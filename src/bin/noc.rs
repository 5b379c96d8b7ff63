#![forbid(unsafe_code)]
//! `noc` — command-line front end for the allocator study toolkit.
//!
//! Subcommands:
//!
//! * `noc sim`     — run one network simulation and print latency/throughput
//! * `noc explain` — decompose end-to-end packet latency into pipeline stages
//! * `noc check`   — statically verify a design (deadlock freedom, liveness,
//!   allocator wiring)
//! * `noc bench`   — run the perf-regression workload matrix
//! * `noc synth`   — synthesize a VC or switch allocator design point
//! * `noc quality` — measure open-loop matching quality
//! * `noc verilog` — emit structural Verilog for a design point
//! * `noc sweep`   — run/resume cached, journaled experiment sweeps
//! * `noc serve`   — sweep-as-a-service daemon deduplicating concurrent clients
//! * `noc client`  — send one sweep/preset/status request to a serve daemon
//! * `noc top`     — live/offline congestion + matching-efficiency view
//! * `noc replay`  — recompute a run summary from a telemetry dump
//!
//! Run `noc help` (or any subcommand with `--help`) for flags. Argument
//! parsing is deliberately dependency-free.

use noc_bench::harness::sig3;
use noc_bench::{
    compare_baseline, parse_report, report_filename, run_bench, workload_matrix, BenchParams,
};
use noc_check::{check_design, check_fixture, fixtures, RouteModel};
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind, VcAllocSpec};
use noc_obs::{
    anatomy_chrome_trace, chrome_trace, metrics_csv, metrics_jsonl, render_top, render_waterfall,
    window_jsonl, AnatomyCollector, AnatomyHeader, JsonWriter, TelemetryDump, TelemetryHeader,
    VecSink, WindowSnapshot, ANATOMY_SCHEMA, PHASES, TELEMETRY_SCHEMA,
};
use noc_sim::{
    Engine, RoutingKind, Run, SimConfig, TelemetryOptions, TopologyKind, TrafficPattern,
};
use std::collections::HashMap;
use std::process::ExitCode;

const HELP: &str = "\
noc — allocator implementations for network-on-chip routers (SC'09 reproduction)

USAGE:
  noc sim     [--topology mesh|fbfly|torus] [--vcs C] [--rate R] [--sa KIND]
              [--vca KIND] [--spec nonspec|spec_gnt|spec_req] [--pattern P]
              [--buf-depth N] [--burst B] [--warmup N] [--measure N] [--seed S]
              [--seeds N] [--profile] [--trace FILE] [--metrics FILE]
              [--sample-interval N] [--json] [--verify]
              [--engine seq|par|active|auto] [--threads N]
              [--record FILE] [--top] [--window N] [--match-every K]
              [--routing dor|dateline|nodateline] [--no-watchdog]
              [--anatomy] [--anatomy-out FILE] [--capacity N] [--top-k K]
  noc explain [sim config flags] [--warmup N] [--measure N] [--seed S]
              [--engine seq|par|active|auto] [--threads N] [--top-k K]
              [--capacity N] [--out FILE] [--trace FILE] [--json]
  noc check   [--topology mesh|fbfly|torus] [--vcs C] [--all]
              [--fixture no-dateline|cyclic-vc]
  noc bench   [--quick] [--out DIR] [--baseline FILE] [--tolerance PCT]
              [--reps N] [--engine seq|par|active|auto] [--threads N]
  noc synth   (vca|swa) [--topology mesh|fbfly|torus] [--vcs C] [--alloc KIND]
              [--dense] [--spec nonspec|spec_gnt|spec_req]
  noc quality (vca|swa) [--topology mesh|fbfly|torus] [--vcs C] [--rate R]
              [--trials N]
  noc verilog (vca|swa) [--topology mesh|fbfly|torus] [--vcs C] [--alloc KIND]
              [--dense] [--spec nonspec|spec_gnt|spec_req]
  noc sweep   (run|resume|status|clean) [--preset NAME | --spec FILE]
              [--out DIR] [--cache-dir DIR] [--engine seq|par|active|auto]
              [--threads N] [--quiet] [--no-render] [--telemetry] [--anatomy]
  noc serve   [--addr HOST:PORT] [--cache-dir DIR] [--out DIR] [--workers N]
              [--quiet] [--selftest N]
  noc client  (--preset NAME | --spec FILE | --status) [--addr HOST:PORT]
              [--engine seq|par|active|auto] [--id ID] [--quiet]
  noc top     DUMP [--once]
  noc replay  DUMP
  noc audit   [--root DIR] [--fixtures]
  noc mc      [--workers N] [--routers N] [--cycles N]
  noc help

KIND (allocator): sep_if_rr sep_if_m sep_of_rr sep_of_m wf
PATTERN:          uniform bitcomp transpose tornado shuffle

Every subcommand rejects flags it does not list above. The noc sim
observer flags (--trace, --metrics, --record, --top, --anatomy, --profile,
--verify) combine freely with each other, with --engine and with --seeds.

Observability (noc sim):
  --trace FILE            write a Chrome Trace Event Format flit timeline
                          (load in chrome://tracing or Perfetto)
  --metrics FILE          write counters + sampled gauges; .json/.jsonl
                          selects JSON lines, anything else CSV
  --sample-interval N     gauge sampling period in cycles (default 100)
  --json                  print the run summary as one JSON object

Telemetry & live view (noc sim / noc top / noc replay):
  --record FILE           flight-record the run: one noc-telemetry/v1 JSONL
                          window snapshot every --window cycles, keyed by
                          the config's content digest; the summary joins
                          the --json report as a \"telemetry\" block
  --top                   redraw a live congestion heatmap + matching-
                          efficiency sparkline as the run progresses
  --window N              telemetry window length in cycles (default 100)
  --match-every K         sample matching efficiency (grants vs an exact
                          maximum matching of the same cycle's requests)
                          once every K windows; 0 disables (default 1)
  --routing KIND          override the topology's routing algorithm; the
                          'nodateline' torus fixture deadlocks by design
                          (watchdog demo)
  --no-watchdog           disable the stall watchdog (default: terminate
                          after ~10k motionless cycles with flits stuck,
                          writing a post-mortem dump)
  noc top DUMP [--once]   render the latest frame of a dump and follow it
                          as it grows (--once renders a single frame)
  noc replay DUMP         recompute the run's telemetry summary from the
                          dump (byte-identical to the in-process block)

Latency anatomy (noc explain / noc sim --anatomy):
  noc explain runs one simulation with the per-packet latency ledger on
  and prints the blame report: mean/p50/p99/max cycles per pipeline stage
  (src_queue, vca, sa, credit, active, wire, serialization), each stage's
  share of total latency, and hop-by-hop waterfalls for the slowest
  packets. Per-packet stage sums reconcile exactly with end-to-end
  latency; the command exits nonzero if they do not.
  --top-k K               waterfalls to retain for the slowest packets
                          (default 4; 0 disables)
  --capacity N            per-packet ledger rows to retain (default 65536;
                          the blame report always covers every packet)
  --out FILE              write the full noc-anatomy/v1 JSONL dump, keyed
                          by the config's content digest (byte-identical
                          across --engine seq/par/active)
  --trace FILE            write the slowest packets as Chrome Trace spans
                          (one row per packet, one span per stage/hop)
  noc sim --anatomy       append the same blame report to a plain run's
                          summary (--anatomy-out FILE also writes the dump)
  noc sweep run --anatomy write a <digest>.anatomy.jsonl dump per computed
                          point, linked from the sweep manifest

Performance engines (noc sim, noc bench):
  --engine NAME           cycle-loop engine: seq (in-order reference), par
                          (two-phase step, router compute sharded across a
                          worker pool), active (skips idle routers), auto
                          (par on multi-core hosts). All engines are
                          cycle-identical; only wall-clock speed differs.
                          --trace and --profile observe inside router
                          compute: while either is on, par computes
                          routers in router-id order on the main thread.
                          Every other observer (--verify included) runs
                          on the main thread after commit, so par keeps
                          its pool; results and dumps stay byte-identical
  --threads N             worker-pool size for --engine par (default: all
                          available cores)

Soundness (noc audit / noc mc):
  noc audit               static soundness gate: walks every workspace .rs
                          file and fails on `unsafe` outside the allowlist,
                          `unsafe` without a nearby SAFETY: comment,
                          `Ordering::Relaxed` without a RELAXED: audit
                          note, or a crate root missing its unsafe-code
                          lint guard
  --root DIR              workspace root to audit (default .)
  --fixtures              also check the negative fixtures under
                          crates/check/fixtures/audit: every one must be
                          flagged, proving the auditor has teeth
  noc mc                  exhaustive interleaving model check of the
                          parallel engine's epoch/done/stop protocol: the
                          faithful model must pass (race-free, deadlock-
                          free, all executions terminate) and every
                          weakened mutant must be rejected with a printed
                          counterexample schedule
  --workers N             modeled worker threads (default 3)
  --routers N             modeled router shards  (default 4)
  --cycles N              modeled epochs         (default 2)

Statistics (noc sim):
  --seeds N               replicate the run over N seeds: auto-detected
                          warmup (MSER), mean latency with a 95% CI. The
                          replicates run on --engine; observers watch the
                          base-seed replicate only, the run you get
                          without --seeds
  --profile               attribute simulator wall time to the router
                          pipeline phases and print per-phase shares
  --verify                run with the per-cycle invariant checker enabled
                          (matching legality, credit conservation,
                          no-flit-without-VC); exits nonzero on violations

Static analysis (noc check):
  checks deadlock freedom (channel-dependency graph over the sparse VC
  transition masks; prints a minimal offending cycle), VC reachability /
  starvation / dateline discipline, and allocator wiring; exits nonzero
  if any checked design fails
  --all                   check the paper's designs (mesh, fbfly, torus at
                          C = 1, 2, 4) and every bench-matrix workload
  --fixture NAME          check a deliberately deadlocked negative fixture
                          (no-dateline | cyclic-vc) — expected to FAIL

Benchmarking (noc bench):
  runs a fixed workload matrix (mesh + flattened butterfly at three load
  points) and writes BENCH_<unix>.json (schema noc-bench/v1)
  --quick                 CI-sized runs (500+1500 cycles, median of 3)
  --out DIR               existing directory for the report (default .)
  --baseline FILE         compare cycles/sec against a previous report;
                          exits nonzero on regression
  --tolerance PCT         allowed slowdown vs baseline (default 15)
  --reps N                timed repetitions per workload (median wins)

Experiment sweeps (noc sweep):
  runs a declarative grid of simulations with a content-addressed result
  cache and a crash-safe completion journal, so interrupted sweeps resume
  with zero recomputation; preset sweeps reprint their legacy figure
  binary's stdout bit-identically from cache
  run                     run (or continue) a sweep; with --preset, the
                          figure text follows on stdout
  resume                  like run, but requires an existing journal
  status                  list journals (done/total points) and cache size
  clean                   delete cached results, journals, and manifests
  --preset NAME           fig13 | fig14 | ablation-traffic |
                          ablation-speculation | smoke
  --spec FILE             JSON sweep spec (grammar in DESIGN.md)
  --out DIR               journal/manifest directory (default results/sweeps)
  --cache-dir DIR         result cache directory (default results/cache)
  --engine NAME           override the cycle-loop engine for computed points
  --quiet                 suppress per-point progress lines on stderr
  --no-render             skip the figure render after a preset run

Sweep service (noc serve / noc client):
  a long-running daemon over the same cache + journal: clients send one
  noc-serve/v1 JSON request line over local TCP and stream JSONL results
  back; overlapping requests are normalized to SimConfig digests and
  deduplicated, so across any number of concurrent clients every unique
  point is simulated at most once — including across kill -9 + restart
  (journaled points are served from cache, recomputing nothing)
  noc serve               start the daemon (prints the bound address on
                          stdout; runs until killed)
  --addr HOST:PORT        listen/connect address (default 127.0.0.1:4009;
                          port 0 picks a free port)
  --workers N             concurrent simulations (default: cores, max 8)
  --selftest N            run the built-in load driver instead: N
                          concurrent overlapping clients against a fresh
                          in-process daemon; asserts computed points ==
                          unique digests, then restarts the daemon and
                          asserts zero recomputation
  noc client              send one request and print the response JSONL
  --preset NAME           request an in-repo preset by name
  --spec FILE             request the sweep spec in FILE (same grammar as
                          noc sweep --spec)
  --status                request daemon-lifetime counters instead
  --id ID                 request id echoed on every response line
  --quiet                 suppress the JSONL tee; keep the summary line

Examples:
  noc sim --topology fbfly --vcs 4 --rate 0.3 --sa wf
  noc sim --rate 0.2 --verify
  noc explain --rate 0.4 --top-k 3
  noc explain --topology fbfly --rate 0.35 --out anatomy.jsonl --json
  noc sim --rate 0.3 --anatomy
  noc check --all
  noc check --fixture no-dateline
  noc sim --rate 0.25 --metrics out.csv --trace trace.json --json
  noc sim --rate 0.15 --seeds 8 --json
  noc sim --rate 0.4 --record run.jsonl --json
  noc sim --rate 0.3 --top
  noc sim --topology torus --routing nodateline --rate 0.35
  noc top run.jsonl --once
  noc replay run.jsonl
  noc bench --quick --baseline results/bench_baseline.json
  noc synth vca --topology mesh --vcs 2 --alloc sep_if_rr
  noc quality swa --topology fbfly --vcs 4 --rate 0.5 --trials 5000
  noc verilog swa --vcs 2 --alloc sep_if_rr > swa.v
  noc sweep run --preset fig13 --engine auto
  noc sweep status
  noc serve --addr 127.0.0.1:4009 &
  noc client --preset smoke
  noc client --status
  noc serve --selftest 4
";

/// Default per-packet ledger row retention for `noc explain` and
/// `noc sim --anatomy` (the blame report always covers every packet).
const DEFAULT_ANATOMY_CAPACITY: usize = 1 << 16;

/// Default slowest-packet waterfall count for the anatomy surfaces.
const DEFAULT_ANATOMY_TOP_K: usize = 4;

/// Parsed `--key value` flags plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// The flags subcommand `cmd` accepts, as space-separated `(flags taking
/// a value, bare flags)`; `None` for an unknown subcommand. [`Args::parse`]
/// rejects any other flag.
fn accepted_flags(cmd: &str) -> Option<(String, &'static str)> {
    // Design point, window and engine: shared by `noc sim` and `noc explain`.
    const SIM: &str = "topology vcs rate sa vca spec pattern buf-depth burst seed routing \
                       warmup measure engine threads";
    let (valued, bare) = match cmd {
        "sim" => (
            "seeds trace metrics sample-interval record window match-every anatomy-out \
             capacity top-k",
            "json profile verify top no-watchdog anatomy",
        ),
        "explain" => ("top-k capacity out trace", "json"),
        "check" => ("topology vcs fixture", "all"),
        "bench" => ("out baseline tolerance reps engine threads", "quick"),
        "synth" | "verilog" => ("topology vcs alloc spec", "dense"),
        "quality" => ("topology vcs rate trials", ""),
        "sweep" => (
            "preset spec out cache-dir engine threads",
            "quiet no-render telemetry anatomy",
        ),
        "serve" => ("addr cache-dir out workers selftest", "quiet"),
        "client" => ("preset spec addr engine id", "status quiet"),
        "top" => ("", "once"),
        "replay" | "help" => ("", ""),
        "audit" => ("root", "fixtures"),
        "mc" => ("workers routers cycles", ""),
        _ => return None,
    };
    let shared = if matches!(cmd, "sim" | "explain") {
        SIM
    } else {
        ""
    };
    Some((format!("{shared} {valued}"), bare))
}

impl Args {
    /// Parses `argv` (subcommand first). `--help` anywhere selects the
    /// `help` subcommand; an unknown subcommand, an unknown flag or a
    /// missing flag value is an error.
    fn parse(argv: &[String]) -> Result<Args, String> {
        if argv.iter().any(|a| a == "--help") {
            return Ok(Args {
                positional: vec!["help".to_string()],
                flags: HashMap::new(),
            });
        }
        let cmd = argv.first().map(String::as_str).unwrap_or("help");
        let (valued, bare) =
            accepted_flags(cmd).ok_or_else(|| format!("unknown command '{cmd}'\n\n{HELP}"))?;
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            let listed = |names: &str| names.split_whitespace().any(|name| name == key);
            let value = if listed(bare) {
                "true".to_string()
            } else if listed(&valued) {
                it.next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?
                    .clone()
            } else {
                return Err(format!(
                    "unknown flag --{key} for 'noc {cmd}' (see 'noc help')"
                ));
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Args { positional, flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    fn topology(&self) -> Result<TopologyKind, String> {
        match self.flags.get("topology").map(String::as_str) {
            None | Some("mesh") => Ok(TopologyKind::Mesh8x8),
            Some("fbfly") => Ok(TopologyKind::FlattenedButterfly4x4),
            Some("torus") => Ok(TopologyKind::Torus8x8),
            Some(other) => Err(format!("unknown topology '{other}'")),
        }
    }

    fn spec_for(&self, topo: TopologyKind, c: usize) -> VcAllocSpec {
        match topo {
            TopologyKind::Mesh8x8 => VcAllocSpec::mesh(c),
            TopologyKind::FlattenedButterfly4x4 => VcAllocSpec::fbfly(c),
            TopologyKind::Torus8x8 => VcAllocSpec::torus(c),
        }
    }

    fn alloc_kind(&self, key: &str) -> Result<AllocatorKind, String> {
        match self.flags.get(key).map(String::as_str) {
            None | Some("sep_if_rr") => Ok(AllocatorKind::SepIfRr),
            Some("sep_if_m") => Ok(AllocatorKind::SepIfMatrix),
            Some("sep_of_rr") => Ok(AllocatorKind::SepOfRr),
            Some("sep_of_m") => Ok(AllocatorKind::SepOfMatrix),
            Some("wf") => Ok(AllocatorKind::Wavefront),
            Some(other) => Err(format!("unknown allocator '{other}'")),
        }
    }

    fn sw_kind(&self, key: &str) -> Result<SwitchAllocatorKind, String> {
        use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
        match self.flags.get(key).map(String::as_str) {
            None | Some("sep_if_rr") | Some("sep_if") => Ok(SwitchAllocatorKind::SepIf(RoundRobin)),
            Some("sep_if_m") => Ok(SwitchAllocatorKind::SepIf(Matrix)),
            Some("sep_of_rr") | Some("sep_of") => Ok(SwitchAllocatorKind::SepOf(RoundRobin)),
            Some("sep_of_m") => Ok(SwitchAllocatorKind::SepOf(Matrix)),
            Some("wf") => Ok(SwitchAllocatorKind::Wavefront),
            Some(other) => Err(format!("unknown switch allocator '{other}'")),
        }
    }

    fn spec_mode(&self) -> Result<SpecMode, String> {
        match self.flags.get("spec").map(String::as_str) {
            Some("nonspec") => Ok(SpecMode::NonSpeculative),
            Some("spec_gnt") | Some("conventional") => Ok(SpecMode::Conventional),
            None | Some("spec_req") | Some("pessimistic") => Ok(SpecMode::Pessimistic),
            Some(other) => Err(format!("unknown speculation mode '{other}'")),
        }
    }

    fn engine(&self) -> Result<Engine, String> {
        let engine = match self.flags.get("engine").map(String::as_str) {
            None => Engine::Sequential,
            Some(name) => Engine::parse(name)
                .ok_or_else(|| format!("unknown engine '{name}' (seq|par|active|auto)"))?,
        };
        match (engine, self.flags.get("threads")) {
            (Engine::Parallel(_), Some(_)) => {
                let t: usize = self.get("threads", 0)?;
                if t == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                Ok(Engine::Parallel(t))
            }
            (_, Some(_)) => Err("--threads requires --engine par".to_string()),
            (engine, None) => Ok(engine),
        }
    }

    fn routing_override(&self) -> Result<Option<RoutingKind>, String> {
        match self.flags.get("routing").map(String::as_str) {
            None => Ok(None),
            Some("dor") => Ok(Some(RoutingKind::DimensionOrder)),
            Some("dateline") => Ok(Some(RoutingKind::TorusDateline)),
            Some("nodateline") => Ok(Some(RoutingKind::TorusNoDateline)),
            Some(other) => Err(format!(
                "unknown routing '{other}' (dor|dateline|nodateline)"
            )),
        }
    }

    fn pattern(&self) -> Result<TrafficPattern, String> {
        match self.flags.get("pattern").map(String::as_str) {
            None | Some("uniform") => Ok(TrafficPattern::UniformRandom),
            Some("bitcomp") => Ok(TrafficPattern::BitComplement),
            Some("transpose") => Ok(TrafficPattern::Transpose),
            Some("tornado") => Ok(TrafficPattern::Tornado),
            Some("shuffle") => Ok(TrafficPattern::Shuffle),
            Some(other) => Err(format!("unknown pattern '{other}'")),
        }
    }
}

/// Builds the simulated design point from the shared `noc sim` /
/// `noc explain` config flags.
fn sim_config(args: &Args) -> Result<SimConfig, String> {
    Ok(SimConfig {
        injection_rate: args.get("rate", 0.2)?,
        vca_kind: args.alloc_kind("vca")?,
        sa_kind: args.sw_kind("sa")?,
        spec_mode: args.spec_mode()?,
        pattern: args.pattern()?,
        buf_depth: args.get("buf-depth", 8)?,
        burst: args.get("burst", 1)?,
        seed: args.get("seed", 0x5c09_2009u64)?,
        routing_override: args.routing_override()?,
        ..SimConfig::paper_baseline(args.topology()?, args.get("vcs", 2)?)
    })
}

fn cmd_sim(args: &Args) -> Result<(), String> {
    let cfg = sim_config(args)?;
    let warmup: u64 = args.get("warmup", 3000u64)?;
    let measure: u64 = args.get("measure", 6000u64)?;
    let engine = args.engine()?;
    let seeds: usize = args.get("seeds", 1usize)?;
    let trace_path = args.flags.get("trace");
    let metrics_path = args.flags.get("metrics");
    let record_path = args.flags.get("record");
    let want_top = args.flags.contains_key("top");
    let window: u64 = args.get("window", 100u64)?;
    let anatomy_out = args.flags.get("anatomy-out");
    let anatomy_capacity: usize = args.get("capacity", DEFAULT_ANATOMY_CAPACITY)?;
    let anatomy_top_k: usize = args.get("top-k", DEFAULT_ANATOMY_TOP_K)?;
    if window == 0 {
        return Err("--window must be at least 1 cycle".to_string());
    }
    // --record/--top record every window the user asked for; otherwise a
    // coarse watchdog-only recorder guards the run, so a deadlocked
    // network terminates with a post-mortem dump instead of burning cycles
    // until the measure window runs out.
    let recording = record_path.is_some() || want_top;
    let watchdog = !args.flags.contains_key("no-watchdog");
    let telemetry = if recording {
        Some(TelemetryOptions {
            window,
            match_every: args.get("match-every", 1u64)?,
            capacity: 256,
            watchdog: watchdog.then(|| 10_000u64.div_ceil(window).max(1)),
        })
    } else {
        watchdog.then(|| TelemetryOptions::watchdog_only(10_000))
    };
    eprintln!(
        "simulating {} @ {} flits/cycle/terminal ({} + {} cycles, engine {})...",
        cfg.label(),
        cfg.injection_rate,
        warmup,
        measure,
        engine.label()
    );
    let label = format!("{} @ {}", cfg.label(), cfg.injection_rate);
    let capacity_flits = (cfg.vc_spec().total_vcs() * cfg.buf_depth) as u32;
    let mut lines: Vec<String> = Vec::new();
    let mut eff: Vec<f64> = Vec::new();
    let mut sink = VecSink::default();
    let mut run = if seeds > 1 {
        // Replicated runs detect the warmup (MSER), so --warmup only
        // contributes to the total cycle count.
        Run::auto(&cfg, warmup + measure).seeds(seeds)
    } else {
        Run::new(&cfg, warmup, measure)
    }
    .engine(engine);
    if let Some(opts) = telemetry {
        run = run.telemetry(opts);
    }
    if recording {
        run = run.on_window(|snap| {
            lines.push(window_jsonl(snap));
            if want_top {
                eff.push(snap.efficiency());
                // ANSI clear + home; frames go to stderr so a --json
                // summary on stdout stays machine-readable.
                eprint!(
                    "\x1b[2J\x1b[H{}",
                    render_top(&label, snap, &eff, capacity_flits)
                );
            }
        });
    }
    if metrics_path.is_some() {
        run = run.metrics(args.get("sample-interval", 100u64)?);
    }
    if args.flags.contains_key("anatomy") || anatomy_out.is_some() {
        run = run.anatomy(anatomy_capacity, anatomy_top_k);
    }
    if args.flags.contains_key("profile") {
        run = run.profile();
    }
    if args.flags.contains_key("verify") {
        run = run.verify();
    }
    if trace_path.is_some() {
        run = run.sink(&mut sink);
    }
    let outcome = run.go();
    let header = telemetry.map(|t| TelemetryHeader {
        digest: cfg.digest(warmup, measure, TELEMETRY_SCHEMA),
        label: label.clone(),
        window: t.window,
        match_every: t.match_every,
        routers: cfg.topology.build().num_routers(),
        warmup,
        measure,
    });
    let out = match (outcome, &header) {
        (Ok(out), _) => out,
        (Err(trip), Some(header)) => {
            let (lines, hint) = if recording {
                (lines, "")
            } else {
                let ring = trip.recorder.ring().map(window_jsonl).collect();
                (
                    ring,
                    "\n(rerun with --no-watchdog to let the simulation spin)",
                )
            };
            let path = record_path
                .cloned()
                .unwrap_or_else(|| format!("noc-postmortem-{}.jsonl", header.digest));
            write_telemetry_dump(&path, header, &lines)?;
            return Err(format!(
                "{}\npost-mortem telemetry dump ({} windows): {path}{hint}",
                trip.describe(),
                lines.len()
            ));
        }
        (Err(trip), None) => return Err(trip.describe()),
    };
    let mut r = out.result;
    if !recording {
        // The guard recorder is internal; keep the default report
        // identical to an unrecorded run.
        r.telemetry = None;
    }
    if let (Some(path), Some(header)) = (record_path, &header) {
        write_telemetry_dump(path, header, &lines)?;
        eprintln!("wrote {} telemetry windows to {path}", lines.len());
    }
    if let Some(path) = trace_path {
        std::fs::write(path, chrome_trace(&sink.events))
            .map_err(|e| format!("writing trace '{path}': {e}"))?;
        eprintln!("{}", trace_report(&sink, path));
    }
    if let Some(path) = metrics_path {
        let text = if path.ends_with(".json") || path.ends_with(".jsonl") {
            metrics_jsonl(&out.router_obs, out.metrics.as_ref())
        } else {
            metrics_csv(&out.router_obs, out.metrics.as_ref())
        };
        std::fs::write(path, text).map_err(|e| format!("writing metrics '{path}': {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    if let (Some(path), Some(col)) = (anatomy_out, &out.anatomy) {
        let header = anatomy_header(&cfg, warmup, measure, anatomy_capacity, anatomy_top_k);
        std::fs::write(path, col.to_jsonl(&header))
            .map_err(|e| format!("cannot write anatomy dump '{path}': {e}"))?;
        eprintln!(
            "wrote anatomy dump ({} packets, {} waterfalls) to {path}",
            col.totals.packets,
            col.slow.len()
        );
    }
    if let Some(rep) = &out.verify {
        eprintln!(
            "invariants       {} checks, {} violations",
            rep.checks, rep.total_violations
        );
        if !rep.passed() {
            let mut msg = format!("{} runtime invariant violation(s):", rep.total_violations);
            for v in rep.violations.iter().take(10) {
                msg.push_str("\n  ");
                msg.push_str(v);
            }
            return Err(msg);
        }
    }
    if args.flags.contains_key("json") {
        if out.profile.is_none() && out.anatomy.is_none() {
            println!("{}", r.to_json());
            return Ok(());
        }
        let json = JsonWriter::object(|w| {
            w.key("result").raw(&r.to_json());
            if let Some(p) = &out.profile {
                w.key("profile").raw(&p.to_json());
            }
            if let Some(col) = &out.anatomy {
                w.key("anatomy").raw(&col.summary().to_json());
            }
        });
        println!("{json}");
        return Ok(());
    }
    println!("offered          {:.4} flits/cycle/terminal", r.offered);
    println!("accepted         {:.4} flits/cycle/terminal", r.throughput);
    println!(
        "latency          {:.2} cycles (std dev {:.2}, p99 <= {:.0})",
        r.avg_latency, r.latency_std_dev, r.latency_p99
    );
    println!(
        "  requests       {:.2} cycles / replies {:.2} cycles",
        r.request_latency, r.reply_latency
    );
    if r.seeds > 1 {
        println!(
            "replication      {} seeds, 95% CI on latency ±{:.2} cycles",
            r.seeds, r.ci95
        );
    }
    if let Some(w) = r.warmup_detected {
        println!("warmup detected  {w} cycles (MSER steady-state truncation)");
    }
    println!("stable           {}", r.stable);
    if let Some(t) = &r.telemetry {
        println!(
            "telemetry        {} windows x {} cycles, mean matching efficiency {:.3}",
            t.windows,
            t.window,
            t.mean_efficiency()
        );
        println!(
            "  worst stall streak {} consecutive motionless windows",
            t.max_stalled_windows
        );
    }
    let s = r.router_stats;
    println!(
        "switch grants    {} non-speculative, {} speculative ({} masked, {} invalid)",
        s.nonspec_grants, s.spec_grants, s.spec_masked, s.spec_invalid
    );
    if s.vca_grants > 0 {
        println!(
            "VC allocation    {} grants, {:.2} request-cycles per grant",
            s.vca_grants,
            s.vca_requests as f64 / s.vca_grants as f64
        );
    }
    if !r.routers.is_empty() {
        println!(
            "router traffic   {:.2}..{:.2} flits/cycle (min..max per router)",
            r.min_router_throughput(),
            r.max_router_throughput()
        );
        if let Some((router, port, stall)) = r.worst_stall() {
            println!(
                "worst stall      router {router} port {port}: stalled {:.1}% of cycles",
                stall * 100.0
            );
        }
    }
    if let Some(p) = &out.profile {
        println!(
            "simulator speed  {} cycles/s ({} cycles in {:.1} ms)",
            sig3(p.cycles_per_sec()),
            p.cycles,
            p.wall_nanos as f64 / 1e6
        );
        let shares = p.shares();
        for phase in PHASES {
            println!(
                "  {:<14} {:>5.1}% of wall time, {} events",
                phase.name(),
                shares[phase as usize] * 100.0,
                p.events(phase)
            );
        }
        println!(
            "  {:<14} {:>5.1}% (traffic generation, event scheduling, stats)",
            "other",
            p.other_share() * 100.0
        );
    }
    if let Some(col) = &out.anatomy {
        println!("latency anatomy (cycles per packet, decomposed by pipeline stage):");
        print!("{}", col.summary().render());
        println!("{}", check_reconciliation(col, &r)?);
    }
    Ok(())
}

/// The `noc-anatomy/v1` dump identity line for a run of `cfg`.
fn anatomy_header(
    cfg: &SimConfig,
    warmup: u64,
    measure: u64,
    capacity: usize,
    top_k: usize,
) -> AnatomyHeader {
    AnatomyHeader {
        digest: cfg.digest(warmup, measure, ANATOMY_SCHEMA),
        label: format!("{} @ {}", cfg.label(), cfg.injection_rate),
        routers: cfg.topology.build().num_routers(),
        warmup,
        measure,
        capacity: capacity as u64,
        top_k: top_k as u64,
    }
}

/// Verifies the tentpole invariant on a finished run and renders the
/// one-line receipt CI greps for: every retained per-packet row's stage
/// components must sum to its end-to-end latency, and the full-population
/// stage-sum mean must be bit-identical to the measured mean latency.
fn check_reconciliation(col: &AnatomyCollector, r: &noc_sim::SimResult) -> Result<String, String> {
    let exact = col.records.iter().filter(|p| p.reconciles()).count();
    if exact != col.records.len() {
        return Err(format!(
            "latency anatomy failed to reconcile: {}/{} retained packets have stage sums != \
             eject - birth",
            col.records.len() - exact,
            col.records.len()
        ));
    }
    if r.seeds > 1 {
        // The ledger watched the base-seed replicate; the measured mean is
        // averaged over every replicate, so only the rows can be checked.
        return Ok(format!(
            "reconciliation   {exact}/{} retained packets exact (base-seed replicate)",
            col.records.len()
        ));
    }
    let mean_exact = col.totals.packets == 0
        || (col.totals.total_sum() as f64 / col.totals.packets as f64).to_bits()
            == r.avg_latency.to_bits();
    if !mean_exact {
        return Err(format!(
            "latency anatomy failed to reconcile: stage-sum mean {} != measured mean latency {}",
            col.totals.total_sum() as f64 / col.totals.packets as f64,
            r.avg_latency
        ));
    }
    Ok(format!(
        "reconciliation   {exact}/{} retained packets exact; stage-sum mean == measured latency",
        col.records.len()
    ))
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let cfg = sim_config(args)?;
    let warmup: u64 = args.get("warmup", 3000u64)?;
    let measure: u64 = args.get("measure", 6000u64)?;
    let engine = args.engine()?;
    let capacity: usize = args.get("capacity", DEFAULT_ANATOMY_CAPACITY)?;
    let top_k: usize = args.get("top-k", DEFAULT_ANATOMY_TOP_K)?;
    eprintln!(
        "explaining {} @ {} flits/cycle/terminal ({} + {} cycles, engine {})...",
        cfg.label(),
        cfg.injection_rate,
        warmup,
        measure,
        engine.label()
    );
    let out = Run::new(&cfg, warmup, measure)
        .engine(engine)
        .anatomy(capacity, top_k)
        .go()
        .map_err(|trip| trip.describe())?;
    let (r, col) = match out.anatomy {
        Some(col) => (out.result, col),
        None => return Err("the anatomy run returned no ledger".to_string()),
    };
    let receipt = check_reconciliation(&col, &r)?;
    if let Some(path) = args.flags.get("out") {
        let header = anatomy_header(&cfg, warmup, measure, capacity, top_k);
        std::fs::write(path, col.to_jsonl(&header))
            .map_err(|e| format!("cannot write anatomy dump '{path}': {e}"))?;
        eprintln!(
            "wrote anatomy dump ({} packets, {} waterfalls) to {path}",
            col.totals.packets,
            col.slow.len()
        );
    }
    if let Some(path) = args.flags.get("trace") {
        std::fs::write(path, anatomy_chrome_trace(&col.slowest()))
            .map_err(|e| format!("cannot write anatomy trace '{path}': {e}"))?;
        eprintln!(
            "wrote {} slowest-packet stage timelines to {path}",
            col.slow.len()
        );
    }
    if args.flags.contains_key("json") {
        let json = JsonWriter::object(|w| {
            w.key("result").raw(&r.to_json());
            w.key("anatomy").raw(&col.summary().to_json());
        });
        println!("{json}");
        return Ok(());
    }
    println!(
        "offered          {:.4} flits/cycle/terminal, accepted {:.4}",
        r.offered, r.throughput
    );
    print!("{}", col.summary().render());
    println!("{receipt}");
    let slowest = col.slowest();
    if !slowest.is_empty() {
        println!("slowest packets:");
        for w in slowest {
            print!("{}", render_waterfall(w));
        }
    }
    Ok(())
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let c: usize = args.get("vcs", 2)?;
    let mut reports = Vec::new();
    if let Some(name) = args.flags.get("fixture") {
        let f = fixtures::by_name(name, c)
            .ok_or_else(|| format!("unknown fixture '{name}' (no-dateline | cyclic-vc)"))?;
        reports.push(check_fixture(&f));
    } else if args.flags.contains_key("all") {
        // The paper's designs across topologies and VC counts...
        for topo in ["mesh", "fbfly", "torus"] {
            for c in [1usize, 2, 4] {
                reports.push(check_fixture(&fixtures::paper_design(topo, c)));
            }
        }
        // ...plus every configuration the bench matrix actually simulates.
        for (name, cfg) in workload_matrix() {
            let topo = cfg.topology.build();
            let model = RouteModel::Simulator(cfg.routing());
            reports.push(check_design(&name, &topo, &model, &cfg.vc_spec()));
        }
    } else {
        let label = match args.topology()? {
            TopologyKind::Mesh8x8 => "mesh",
            TopologyKind::FlattenedButterfly4x4 => "fbfly",
            TopologyKind::Torus8x8 => "torus",
        };
        reports.push(check_fixture(&fixtures::paper_design(label, c)));
    }
    let mut failed = 0usize;
    for rep in &reports {
        print!("{}", rep.render());
        if !rep.passed() {
            failed += 1;
        }
    }
    println!(
        "{}/{} design(s) passed",
        reports.len() - failed,
        reports.len()
    );
    if failed > 0 {
        return Err(format!("{failed} design(s) failed verification"));
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let mut params = if args.flags.contains_key("quick") {
        BenchParams::quick()
    } else {
        BenchParams::full()
    };
    params.reps = args.get("reps", params.reps)?;
    params.engine = args.engine()?;
    let out_dir: String = args.get("out", ".".to_string())?;
    let tolerance: f64 = args.get("tolerance", 15.0)?;
    // Check the inputs and the output directory before the matrix runs,
    // not after minutes of simulation.
    if !std::path::Path::new(&out_dir).is_dir() {
        return Err(format!("--out '{out_dir}' is not an existing directory"));
    }
    let baseline = match args.flags.get("baseline") {
        Some(bpath) => {
            let text = std::fs::read_to_string(bpath)
                .map_err(|e| format!("reading baseline '{bpath}': {e}"))?;
            Some((bpath, parse_report(&text)?))
        }
        None => None,
    };
    eprintln!(
        "running bench matrix ({} mode, {} rep(s) per workload, engine {})...",
        if params.quick { "quick" } else { "full" },
        params.reps,
        params.engine.label()
    );
    let report = run_bench(&params, |line| eprintln!("  {line}"));
    let path = std::path::Path::new(&out_dir).join(report_filename(report.created_unix));
    std::fs::write(&path, report.to_json())
        .map_err(|e| format!("writing report '{}': {e}", path.display()))?;
    println!("wrote {}", path.display());
    if let Some((bpath, baseline)) = baseline {
        match compare_baseline(&report, &baseline, tolerance) {
            Ok(lines) => {
                println!("baseline check passed (tolerance {tolerance}%):");
                for l in lines {
                    println!("  {l}");
                }
            }
            Err(regressions) => {
                let mut msg =
                    format!("performance regression vs '{bpath}' (tolerance {tolerance}%):");
                for l in &regressions {
                    msg.push_str("\n  ");
                    msg.push_str(l);
                }
                return Err(msg);
            }
        }
    }
    Ok(())
}

fn cmd_synth(args: &Args) -> Result<(), String> {
    use noc_hw::builders::{sw_alloc, vc_alloc};
    let what = args.positional.get(1).map(String::as_str).unwrap_or("vca");
    let topo = args.topology()?;
    let spec = args.spec_for(topo, args.get("vcs", 2)?);
    let synth = noc_hw::Synthesizer::default();
    let result = match what {
        "vca" => vc_alloc::synthesize_vc_allocator(
            &synth,
            &spec,
            args.alloc_kind("alloc")?,
            !args.flags.contains_key("dense"),
        ),
        "swa" => sw_alloc::synthesize_switch_allocator(
            &synth,
            args.sw_kind("alloc")?,
            spec.ports(),
            spec.total_vcs(),
            args.spec_mode()?,
        ),
        other => return Err(format!("unknown synth target '{other}' (vca|swa)")),
    };
    match result {
        Ok(r) => {
            println!("design           {}", r.name);
            println!("min cycle time   {:.3} ns", r.delay_ns);
            println!("cell area        {:.0} um^2", r.area_um2);
            println!("average power    {:.2} mW (activity 0.5)", r.power_mw);
            println!(
                "cells            {} combinational + {} flops ({} buffers inserted)",
                r.cells, r.dffs, r.buffers_inserted
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_quality(args: &Args) -> Result<(), String> {
    let what = args.positional.get(1).map(String::as_str).unwrap_or("vca");
    let topo = args.topology()?;
    let spec = args.spec_for(topo, args.get("vcs", 2)?);
    let rate: f64 = args.get("rate", 0.5)?;
    let trials: usize = args.get("trials", 3000)?;
    match what {
        "vca" => {
            let cfg = noc_quality::VcQualityConfig {
                spec,
                trials,
                seed: 0x5c09,
            };
            println!("VC allocation quality @ rate {rate} ({trials} trials):");
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let q = noc_quality::vc_quality_curve(&cfg, kind, &[rate]).points[0].quality();
                println!("  {:<8} {q:.4}", kind.family());
            }
        }
        "swa" => {
            let cfg = noc_quality::SwQualityConfig {
                ports: spec.ports(),
                vcs: spec.total_vcs(),
                trials,
                seed: 0x5c09,
            };
            println!("switch allocation quality @ rate {rate} ({trials} trials):");
            for (label, kind) in [
                ("sep_if", args.sw_kind("__none")?),
                (
                    "sep_of",
                    SwitchAllocatorKind::SepOf(noc_arbiter::ArbiterKind::RoundRobin),
                ),
                ("wf", SwitchAllocatorKind::Wavefront),
            ] {
                let q = noc_quality::sw_quality_curve(&cfg, kind, &[rate]).points[0].quality();
                println!("  {label:<8} {q:.4}");
            }
        }
        other => return Err(format!("unknown quality target '{other}' (vca|swa)")),
    }
    Ok(())
}

fn cmd_verilog(args: &Args) -> Result<(), String> {
    use noc_hw::builders::{sw_alloc, vc_alloc};
    let what = args.positional.get(1).map(String::as_str).unwrap_or("vca");
    let topo = args.topology()?;
    let spec = args.spec_for(topo, args.get("vcs", 1)?);
    let nl = match what {
        "vca" => vc_alloc::vc_allocator_netlist(
            &spec,
            args.alloc_kind("alloc")?,
            !args.flags.contains_key("dense"),
        ),
        "swa" => sw_alloc::speculative_switch_allocator_netlist(
            args.sw_kind("alloc")?,
            spec.ports(),
            spec.total_vcs(),
            args.spec_mode()?,
        ),
        other => return Err(format!("unknown verilog target '{other}' (vca|swa)")),
    };
    eprintln!(
        "// '{}': {} cells, {} flops",
        nl.name,
        nl.cells().len(),
        nl.dffs().len()
    );
    print!(
        "{}",
        noc_hw::to_verilog(&nl, &noc_hw::VerilogOptions::default())
    );
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    use std::path::PathBuf;
    let sub = args.positional.get(1).map(String::as_str).unwrap_or("run");
    let out_dir = PathBuf::from(
        args.flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| "results/sweeps".to_string()),
    );
    let cache_dir = PathBuf::from(
        args.flags
            .get("cache-dir")
            .cloned()
            .unwrap_or_else(|| "results/cache".to_string()),
    );
    match sub {
        "run" => sweep_run(args, out_dir, cache_dir, false),
        "resume" => sweep_run(args, out_dir, cache_dir, true),
        "status" => sweep_status(&out_dir, &cache_dir),
        "clean" => sweep_clean(&out_dir, &cache_dir),
        other => Err(format!(
            "unknown sweep subcommand '{other}' (run|resume|status|clean)"
        )),
    }
}

fn sweep_run(
    args: &Args,
    out_dir: std::path::PathBuf,
    cache_dir: std::path::PathBuf,
    require_journal: bool,
) -> Result<(), String> {
    use noc_bench::sweep::{
        cached_runner, render, run_sweep, ResultCache, SweepOptions, SweepSpec,
    };
    let preset_name = args.flags.get("preset");
    let spec = match (preset_name, args.flags.get("spec")) {
        (Some(name), None) => noc_bench::sweep::preset(name).ok_or_else(|| {
            format!(
                "unknown preset '{name}' (available: {})",
                noc_bench::sweep::preset_names().join(", ")
            )
        })?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))?;
            SweepSpec::from_json(&text)?
        }
        (Some(_), Some(_)) => return Err("--preset and --spec are mutually exclusive".to_string()),
        (None, None) => return Err("sweep run needs --preset NAME or --spec FILE".to_string()),
    };
    let engine = match args.flags.get("engine") {
        Some(_) => Some(args.engine()?),
        None => None,
    };
    let opts = SweepOptions {
        cache_dir: cache_dir.clone(),
        out_dir,
        engine,
        quiet: args.flags.contains_key("quiet"),
        require_journal,
        telemetry: args.flags.contains_key("telemetry"),
        anatomy: args.flags.contains_key("anatomy"),
    };
    let outcome = run_sweep(&spec, &opts)?;
    eprintln!(
        "sweep {}: {} points — {} computed, {} cache hits, {} journal skips in {:.1}s",
        outcome.name,
        outcome.total,
        outcome.computed,
        outcome.cache_hits,
        outcome.journal_skips,
        outcome.wall_ms as f64 / 1000.0
    );
    eprintln!("manifest: {}", outcome.manifest_path.display());
    if let Some(name) = preset_name {
        if !args.flags.contains_key("no-render") {
            // Re-render the legacy figure through the cache: every grid
            // point is a hit; only adaptive saturation probes (cached for
            // next time) may still simulate.
            let runner = cached_runner(
                ResultCache::new(&cache_dir)?,
                engine.unwrap_or(noc_sim::Engine::Sequential),
            );
            if let Some(text) = render::render_preset(name, &runner) {
                print!("{text}");
            }
        }
    }
    Ok(())
}

fn sweep_status(out_dir: &std::path::Path, cache_dir: &std::path::Path) -> Result<(), String> {
    use noc_bench::sweep::{journal::read_status, ResultCache};
    let mut journals: Vec<std::path::PathBuf> = std::fs::read_dir(out_dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "journal"))
        .collect();
    journals.sort();
    if journals.is_empty() {
        println!("no sweep journals in {}", out_dir.display());
    }
    for path in journals {
        match read_status(&path) {
            Some((header, done)) => {
                let state = if done >= header.points {
                    "complete"
                } else {
                    "partial"
                };
                println!(
                    "{:<24} {:>5}/{:<5} {:<9} spec {}",
                    header.name, done, header.points, state, header.spec_digest
                );
            }
            None => println!("unreadable journal: {}", path.display()),
        }
    }
    let cached = if cache_dir.is_dir() {
        ResultCache::new(cache_dir)?.len()
    } else {
        0
    };
    println!("cache: {} results in {}", cached, cache_dir.display());
    Ok(())
}

fn sweep_clean(out_dir: &std::path::Path, cache_dir: &std::path::Path) -> Result<(), String> {
    use noc_bench::sweep::ResultCache;
    let removed_cache = if cache_dir.is_dir() {
        ResultCache::new(cache_dir)?.clear()?
    } else {
        0
    };
    let mut removed_files = 0usize;
    for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".journal") || name.ends_with(".manifest.json") {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            removed_files += 1;
        }
    }
    println!("removed {removed_cache} cached results, {removed_files} journal/manifest files");
    Ok(())
}

/// Default `noc serve` listen address, shared with `noc client`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:4009";

/// Default serve worker-pool width: one simulation per core, capped.
fn default_serve_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(2)
}

/// `noc serve` — the sweep-as-a-service daemon (or, with `--selftest N`,
/// its built-in concurrent-client load driver).
fn cmd_serve(args: &Args) -> Result<(), String> {
    use noc_bench::sweep::serve::{run_selftest, start, ServeOptions};
    use std::path::PathBuf;
    let cache_dir = PathBuf::from(
        args.flags
            .get("cache-dir")
            .cloned()
            .unwrap_or_else(|| "results/cache".to_string()),
    );
    let out_dir = PathBuf::from(
        args.flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| "results/sweeps".to_string()),
    );
    let workers = args.get("workers", default_serve_workers())?;
    if args.flags.contains_key("selftest") {
        let clients: usize = args.get("selftest", 4)?;
        return run_selftest(clients, &cache_dir, &out_dir, workers);
    }
    let opts = ServeOptions {
        addr: args
            .flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string()),
        cache_dir,
        out_dir,
        workers,
        quiet: args.flags.contains_key("quiet"),
    };
    let daemon = start(&opts)?;
    // The resolved address goes to stdout so scripts binding port 0 can
    // capture it; everything else the daemon prints is stderr.
    println!("{}", daemon.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.wait();
    Ok(())
}

/// `noc client` — send one request line to a serve daemon, tee the
/// response JSONL to stdout, and summarize on stderr.
fn cmd_client(args: &Args) -> Result<(), String> {
    use noc_bench::sweep::serve::request;
    use noc_bench::sweep::SweepSpec;
    use noc_obs::{
        serve_preset_request_line, serve_status_request_line, serve_sweep_request_line, ServeEvent,
    };
    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string());
    let id = args
        .flags
        .get("id")
        .cloned()
        .unwrap_or_else(|| format!("cli-{}", std::process::id()));
    let engine = match args.flags.get("engine") {
        Some(name) => {
            // Validate locally for a pre-connection diagnostic; the
            // daemon re-validates on its side.
            Engine::parse(name).ok_or_else(|| format!("unknown engine '{name}'"))?;
            Some(name.as_str())
        }
        None => None,
    };
    let status = args.flags.contains_key("status");
    let line = match (status, args.flags.get("preset"), args.flags.get("spec")) {
        (true, None, None) => serve_status_request_line(&id),
        (false, Some(name), None) => serve_preset_request_line(&id, name, engine),
        (false, None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))?;
            // Validate client-side so a typo fails with the spec
            // grammar's diagnostics instead of a remote error line.
            SweepSpec::from_json(&text)?;
            serve_sweep_request_line(&id, &text, engine)
        }
        _ => {
            return Err(
                "client needs exactly one of --preset NAME, --spec FILE, --status".to_string(),
            )
        }
    };
    let quiet = args.flags.contains_key("quiet");
    let mut status_counters = None;
    let outcome = request(&addr, &line, |raw, event| {
        if !quiet {
            println!("{raw}");
        }
        if let ServeEvent::Status {
            computed, clients, ..
        } = event
        {
            status_counters = Some((*computed, *clients));
        }
    })?;
    if let Some((computed, clients)) = status_counters {
        eprintln!("client {id}: daemon has computed {computed} points for {clients} requests");
    } else {
        eprintln!(
            "client {id}: {} points ({} scheduled, {} cache, {} coalesced) in {} ms",
            outcome.unique,
            outcome.scheduled,
            outcome.cache_hits,
            outcome.coalesced,
            outcome.wall_ms
        );
    }
    Ok(())
}

/// Writes a `noc-telemetry/v1` dump: the header line followed by one
/// pre-rendered JSONL line per window.
fn write_telemetry_dump(
    path: &str,
    header: &TelemetryHeader,
    lines: &[String],
) -> Result<(), String> {
    let mut text = header.to_json();
    text.push('\n');
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write telemetry dump '{path}': {e}"))
}

fn load_dump(args: &Args) -> Result<TelemetryDump, String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: noc top DUMP [--once] | noc replay DUMP")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read telemetry dump '{path}': {e}"))?;
    TelemetryDump::parse(&text)
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let dump = load_dump(args)?;
    println!("{}", dump.summary().to_json());
    Ok(())
}

/// Renders the dump's latest window the way the live `--top` view would.
///
/// The header does not carry buffer capacities, so the occupancy heatmap is
/// scaled by the largest occupancy seen anywhere in the dump: relative
/// hotspots stay visible even without the absolute scale.
fn render_dump_top(dump: &TelemetryDump) -> Option<String> {
    let latest = dump.windows.last()?;
    let capacity = dump
        .windows
        .iter()
        .flat_map(|w| w.routers.iter().map(|r| r.occupancy))
        .max()
        .unwrap_or(0)
        .max(1);
    let eff: Vec<f64> = dump
        .windows
        .iter()
        .map(WindowSnapshot::efficiency)
        .collect();
    let label = format!("{} (replay)", dump.header.label);
    Some(render_top(&label, latest, &eff, capacity))
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: noc top DUMP [--once]")?
        .clone();
    let once = args.flags.contains_key("once");
    let mut last_len = 0usize;
    loop {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read telemetry dump '{path}': {e}"))?;
        if text.len() != last_len {
            last_len = text.len();
            let dump = TelemetryDump::parse(&text)?;
            match render_dump_top(&dump) {
                Some(frame) if once => {
                    print!("{frame}");
                    return Ok(());
                }
                Some(frame) => {
                    print!("\x1b[2J\x1b[H{frame}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
                None if once => return Err(format!("'{path}' contains no telemetry windows")),
                None => {}
            }
        } else if once {
            return Err(format!("'{path}' contains no telemetry windows"));
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

/// `noc audit` — the static soundness gate (see `noc_check::audit`).
/// Exits nonzero on any finding, so CI can call it directly; `--fixtures`
/// additionally requires every negative fixture to be flagged.
fn cmd_audit(args: &Args) -> Result<(), String> {
    let root = std::path::PathBuf::from(args.flags.get("root").map(String::as_str).unwrap_or("."));
    if !root.join("crates").is_dir() {
        return Err(format!(
            "'{}' does not look like the workspace root (no crates/ \
             directory); pass --root DIR",
            root.display()
        ));
    }
    let report =
        noc_check::audit_workspace(&root).map_err(|e| format!("audit walk failed: {e}"))?;
    print!("{}", report.render());
    let mut failed = !report.passed();
    if args.flags.contains_key("fixtures") {
        let fixtures =
            noc_check::audit_fixtures(&root).map_err(|e| format!("fixture walk failed: {e}"))?;
        if fixtures.is_empty() {
            return Err("no audit fixtures found".to_string());
        }
        for (path, rep) in fixtures {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            if rep.passed() {
                println!("[FAIL] fixture {name}: not flagged — the auditor has lost its teeth");
                failed = true;
            } else {
                println!(
                    "[OK]   fixture {name}: flagged as expected ({})",
                    rep.findings
                        .iter()
                        .map(|f| f.rule)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
    }
    if failed {
        Err("audit failed".to_string())
    } else {
        Ok(())
    }
}

/// `noc mc` — exhaustive interleaving model check of the `run_parallel`
/// epoch/done/stop protocol. The faithful model must pass and every
/// weakened mutant must be rejected; a rejected mutant prints its
/// counterexample schedule so the failure mode is inspectable.
fn cmd_mc(args: &Args) -> Result<(), String> {
    use noc_mc::{explore, ExploreError, Limits, RunParModel};
    let workers: usize = args.get("workers", 3)?;
    let routers: usize = args.get("routers", 4)?;
    let cycles: u64 = args.get("cycles", 2)?;
    if workers == 0 || routers == 0 || cycles == 0 {
        return Err("--workers, --routers, and --cycles must be positive".to_string());
    }
    let mut failed = false;

    let spec = RunParModel::faithful(workers, routers, cycles);
    let model = spec.build();
    match explore(&model, Limits::default()) {
        Ok(o) => println!(
            "[PASS] {}: {} executions, {} transitions, max schedule depth {}",
            model.name, o.executions, o.transitions, o.max_depth
        ),
        Err(e) => {
            println!("[FAIL] {}:\n{}", model.name, e.render(&model));
            failed = true;
        }
    }

    for spec in RunParModel::mutants(workers, routers, cycles) {
        let model = spec.build();
        match explore(&model, Limits::default()) {
            Err(ExploreError::Violation(cx)) => {
                println!("[OK]   {} rejected:", model.name);
                print!("{}", cx.render(&model));
            }
            Err(e @ ExploreError::LimitExceeded { .. }) => {
                println!("[FAIL] {}: {}", model.name, e.render(&model));
                failed = true;
            }
            Ok(o) => {
                println!(
                    "[FAIL] {} PASSED exploration ({} executions) — the \
                     checker has lost its teeth",
                    model.name, o.executions
                );
                failed = true;
            }
        }
    }

    if failed {
        Err("model check failed".to_string())
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| {
        match args
            .positional
            .first()
            .map(String::as_str)
            .unwrap_or("help")
        {
            "sim" => cmd_sim(&args),
            "explain" => cmd_explain(&args),
            "check" => cmd_check(&args),
            "bench" => cmd_bench(&args),
            "synth" => cmd_synth(&args),
            "quality" => cmd_quality(&args),
            "verilog" => cmd_verilog(&args),
            "sweep" => cmd_sweep(&args),
            "serve" => cmd_serve(&args),
            "client" => cmd_client(&args),
            "top" => cmd_top(&args),
            "replay" => cmd_replay(&args),
            "audit" => cmd_audit(&args),
            "mc" => cmd_mc(&args),
            _ => {
                println!("{HELP}");
                Ok(())
            }
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The stderr line for a written trace. A sink that filled up kept the
/// run's first events only, so the line then also names the events it
/// dropped and the last cycle the file covers.
fn trace_report(sink: &VecSink, path: &str) -> String {
    let mut line = format!("wrote {} flit events to {path}", sink.events.len());
    if sink.dropped > 0 {
        let last = sink.events.last().map_or(0, |ev| ev.cycle);
        line.push_str(&format!(
            "; the trace reached its cap of {} events: {} later events were dropped \
             and the file ends at cycle {last}",
            sink.capacity(),
            sink.dropped
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_report_names_dropped_events_and_the_last_cycle() {
        let ev = |cycle| noc_obs::FlitEvent {
            cycle,
            kind: noc_obs::FlitEventKind::Inject,
            router: 0,
            port: 0,
            vc: 0,
            packet_id: cycle,
            flit_index: 0,
        };
        let mut full = VecSink::with_capacity(2);
        for cycle in [3, 5, 8, 9] {
            full.record(ev(cycle));
        }
        assert_eq!(
            trace_report(&full, "t.json"),
            "wrote 2 flit events to t.json; the trace reached its cap of 2 events: \
             2 later events were dropped and the file ends at cycle 5"
        );
        let mut roomy = VecSink::with_capacity(8);
        roomy.record(ev(3));
        assert_eq!(
            trace_report(&roomy, "t.json"),
            "wrote 1 flit events to t.json"
        );
    }

    fn args(s: &str) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = args("sim --topology fbfly --rate 0.3 --vcs 4");
        assert_eq!(a.positional, vec!["sim"]);
        assert_eq!(a.topology().unwrap(), TopologyKind::FlattenedButterfly4x4);
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(a.get::<usize>("vcs", 1).unwrap(), 4);
    }

    #[test]
    fn defaults_apply() {
        let a = args("sim");
        assert_eq!(a.topology().unwrap(), TopologyKind::Mesh8x8);
        assert_eq!(a.get::<usize>("vcs", 2).unwrap(), 2);
        assert_eq!(a.spec_mode().unwrap(), SpecMode::Pessimistic);
        assert_eq!(a.pattern().unwrap(), TrafficPattern::UniformRandom);
    }

    #[test]
    fn rejects_bad_values() {
        let a = args("sim --topology hypercube");
        assert!(a.topology().is_err());
        let a = args("sim --rate abc");
        assert!(a.get::<f64>("rate", 0.0).is_err());
        let a = args("synth vca --alloc frobnicator");
        assert!(a.alloc_kind("alloc").is_err());
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        let argv = vec!["sim".to_string(), "--rate".to_string()];
        assert!(Args::parse(&argv).is_err());
    }

    #[test]
    fn dense_is_a_bare_flag() {
        let a = args("synth vca --dense --vcs 2");
        assert!(a.flags.contains_key("dense"));
        assert_eq!(a.positional, vec!["synth", "vca"]);
    }

    #[test]
    fn json_is_a_bare_flag() {
        let a = args("sim --json --rate 0.2");
        assert!(a.flags.contains_key("json"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn verify_and_all_are_bare_flags() {
        let a = args("sim --verify --rate 0.2");
        assert!(a.flags.contains_key("verify"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
        let a = args("check --all");
        assert!(a.flags.contains_key("all"));
        assert_eq!(a.positional, vec!["check"]);
    }

    #[test]
    fn check_fixture_takes_a_value() {
        let a = args("check --fixture no-dateline --vcs 2");
        assert_eq!(
            a.flags.get("fixture").map(String::as_str),
            Some("no-dateline")
        );
        assert!(fixtures::by_name("no-dateline", 2).is_some());
        assert!(fixtures::by_name("cyclic-vc", 2).is_some());
        assert!(fixtures::by_name("bogus", 2).is_none());
    }

    #[test]
    fn engine_flag_parses_and_validates() {
        assert_eq!(args("sim").engine().unwrap(), Engine::Sequential);
        assert_eq!(
            args("sim --engine seq").engine().unwrap(),
            Engine::Sequential
        );
        assert_eq!(
            args("sim --engine par").engine().unwrap(),
            Engine::Parallel(0)
        );
        assert_eq!(
            args("sim --engine par --threads 4").engine().unwrap(),
            Engine::Parallel(4)
        );
        assert_eq!(
            args("bench --engine active").engine().unwrap(),
            Engine::ActiveSet
        );
        assert!(args("bench --engine auto").engine().is_ok());
        assert!(args("sim --engine warp").engine().is_err());
        assert!(args("sim --engine seq --threads 4").engine().is_err());
        assert!(args("sim --engine par --threads 0").engine().is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        let a = args("sim --record run.jsonl --window 250 --match-every 4");
        assert_eq!(a.flags.get("record").map(String::as_str), Some("run.jsonl"));
        assert_eq!(a.get::<u64>("window", 100).unwrap(), 250);
        assert_eq!(a.get::<u64>("match-every", 1).unwrap(), 4);
        // top / once / no-watchdog / telemetry are bare flags.
        let a = args("sim --top --no-watchdog --rate 0.2");
        assert!(a.flags.contains_key("top"));
        assert!(a.flags.contains_key("no-watchdog"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
        let a = args("top run.jsonl --once");
        assert!(a.flags.contains_key("once"));
        assert_eq!(a.positional, vec!["top", "run.jsonl"]);
        let a = args("sweep run --telemetry");
        assert!(a.flags.contains_key("telemetry"));
    }

    #[test]
    fn anatomy_flags_parse() {
        // --anatomy is bare in both surfaces that accept it.
        let a = args("sim --anatomy --rate 0.3");
        assert!(a.flags.contains_key("anatomy"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.3).abs() < 1e-12);
        let a = args("sweep run --anatomy --preset smoke");
        assert!(a.flags.contains_key("anatomy"));
        assert_eq!(a.positional, vec!["sweep", "run"]);
        // explain takes sim-style config flags plus its own knobs.
        let a = args("explain --rate 0.4 --top-k 3 --capacity 1024 --out anatomy.jsonl");
        assert_eq!(a.positional, vec!["explain"]);
        assert_eq!(a.get::<usize>("top-k", DEFAULT_ANATOMY_TOP_K).unwrap(), 3);
        assert_eq!(
            a.get::<usize>("capacity", DEFAULT_ANATOMY_CAPACITY)
                .unwrap(),
            1024
        );
        assert_eq!(
            a.flags.get("out").map(String::as_str),
            Some("anatomy.jsonl")
        );
        // --anatomy-out implies --anatomy in cmd_sim; it takes a value.
        let a = args("sim --anatomy-out dump.jsonl");
        assert_eq!(
            a.flags.get("anatomy-out").map(String::as_str),
            Some("dump.jsonl")
        );
    }

    #[test]
    fn serve_and_client_flags_parse() {
        // --selftest takes a value (the client count).
        let a = args("serve --selftest 4 --workers 2");
        assert_eq!(a.positional, vec!["serve"]);
        assert_eq!(a.get::<usize>("selftest", 0).unwrap(), 4);
        assert_eq!(a.get::<usize>("workers", 8).unwrap(), 2);
        let a = args("serve --addr 127.0.0.1:0 --quiet");
        assert_eq!(a.flags.get("addr").map(String::as_str), Some("127.0.0.1:0"));
        assert!(a.flags.contains_key("quiet"));
        // --status is a bare flag on the client side.
        let a = args("client --status --addr 127.0.0.1:4009");
        assert!(a.flags.contains_key("status"));
        assert_eq!(a.positional, vec!["client"]);
        let a = args("client --preset smoke --engine par --id c1");
        assert_eq!(a.flags.get("preset").map(String::as_str), Some("smoke"));
        assert_eq!(a.flags.get("id").map(String::as_str), Some("c1"));
        assert!(Engine::parse(a.flags.get("engine").unwrap()).is_some());
    }

    #[test]
    fn routing_override_table() {
        assert_eq!(args("sim").routing_override().unwrap(), None);
        assert_eq!(
            args("sim --routing dor").routing_override().unwrap(),
            Some(RoutingKind::DimensionOrder)
        );
        assert_eq!(
            args("sim --routing dateline").routing_override().unwrap(),
            Some(RoutingKind::TorusDateline)
        );
        assert_eq!(
            args("sim --routing nodateline").routing_override().unwrap(),
            Some(RoutingKind::TorusNoDateline)
        );
        assert!(args("sim --routing minimal").routing_override().is_err());
    }

    #[test]
    fn allocator_kind_table() {
        for (s, k) in [
            ("sep_if_rr", AllocatorKind::SepIfRr),
            ("sep_if_m", AllocatorKind::SepIfMatrix),
            ("sep_of_rr", AllocatorKind::SepOfRr),
            ("sep_of_m", AllocatorKind::SepOfMatrix),
            ("wf", AllocatorKind::Wavefront),
        ] {
            let a = args(&format!("synth vca --alloc {s}"));
            assert_eq!(a.alloc_kind("alloc").unwrap(), k, "{s}");
            // noc sim / noc explain name the VC allocator --vca.
            let a = args(&format!("sim --vca {s}"));
            assert_eq!(sim_config(&a).unwrap().vca_kind, k, "{s}");
        }
    }

    #[test]
    fn unknown_flags_and_commands_are_rejected() {
        let parse =
            |s: &str| Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let err = parse("sim --bogus-flag 3").err().unwrap();
        assert!(err.contains("--bogus-flag"), "{err}");
        // A flag another subcommand accepts is still unknown here.
        assert!(parse("quality vca --alloc wf").is_err());
        assert!(parse("frobnicate")
            .err()
            .unwrap()
            .contains("unknown command"));
        // --help anywhere selects help, whatever else is on the line.
        assert_eq!(
            parse("sim --rate 0.2 --help").unwrap().positional,
            vec!["help"]
        );
        // Every subcommand dispatched by main has a flag list.
        for cmd in [
            "sim", "explain", "check", "bench", "synth", "quality", "verilog", "sweep", "serve",
            "client", "top", "replay", "audit", "mc", "help",
        ] {
            assert!(accepted_flags(cmd).is_some(), "{cmd}");
        }
    }
}
