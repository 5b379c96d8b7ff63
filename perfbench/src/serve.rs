//! The sweep-service workload: the `noc serve` daemon started in-process
//! on loopback, driven by closed-loop clients (one per core, at most four).
//!
//! Every client alternates a request for a point already in the daemon's
//! cache (a read through the protocol and `ResultCache::load`) with a
//! request for a point nobody asked for before (a write: compute, store
//! with fsync, journal append). Afterwards every result is compared with a
//! direct `run_sim_engine` of the same configuration, and the daemon's
//! counters and journal must show each new point computed exactly once.

use crate::check::fnv;
use crate::trace::{median, overhead_share, Tracer};
use crate::{mix, Ctx, EndToEnd, Layers, Tally};
use noc_bench::sweep::serve::{request, start, Daemon, ServeOptions};
use noc_bench::sweep::{Journal, JournalHeader, ResultCache};
use noc_obs::serve::serve_sweep_request_line;
use noc_obs::ServeEvent;
use noc_sim::{run_sim_engine, Engine, SimConfig, TopologyKind};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Daemon start-ups timed per run (each with its cache prefill); the
/// median is reported. A start-up waits for up to one 20 ms accept poll.
const SETUP_REPS: usize = 15;
/// Points prefilled into the cache; the hit requests draw from these.
const HIT_POINTS: u64 = 8;
/// Run window of every served point: short, so that a miss costs a few
/// milliseconds of simulation rather than dominating the request.
const WARMUP: u64 = 20;
const MEASURE: u64 = 60;
/// Requests made by the probe session of other workloads' traced runs.
const PROBE_REQUESTS: usize = 16;
/// Daemon state lives here, relative to the repository root.
const WORK_DIR: &str = "perfbench/work";

/// One served point: mesh 8×8 baseline at a seeded rate and traffic seed.
#[derive(Clone, Copy)]
struct Pt {
    rate: f64,
    seed: u64,
}

impl Pt {
    fn new(seed: u64, stream: u64) -> Pt {
        let h = mix(seed, stream);
        Pt {
            rate: (5 + h % 21) as f64 / 100.0,
            seed: h >> 32,
        }
    }

    fn grid(&self) -> String {
        format!(
            "{{\"topology\":\"mesh\",\"vcs\":2,\"rates\":[{}],\"seeds\":[{}],\"warmup\":{WARMUP},\"measure\":{MEASURE}}}",
            self.rate, self.seed
        )
    }

    fn direct(&self) -> u64 {
        let cfg = SimConfig {
            injection_rate: self.rate,
            seed: self.seed,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        fnv(run_sim_engine(&cfg, WARMUP, MEASURE, Engine::Sequential)
            .to_json_full()
            .as_bytes())
    }
}

fn spec(name: &str, points: &[Pt]) -> String {
    let grids: Vec<String> = points.iter().map(Pt::grid).collect();
    format!("{{\"name\":\"{name}\",\"grids\":[{}]}}", grids.join(","))
}

/// A running daemon over fresh directories, with its cache prefilled.
struct Session {
    dir: PathBuf,
    daemon: Daemon,
    addr: String,
    hits: Vec<Pt>,
}

impl Session {
    fn start(ctx: &Ctx, tag: &str) -> Result<Session, String> {
        let dir = PathBuf::from(WORK_DIR).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: dir.join("cache"),
            out_dir: dir.join("out"),
            workers: ctx.threads(),
            quiet: true,
        };
        let daemon = start(&opts)?;
        let addr = daemon.addr().to_string();
        let hits: Vec<Pt> = (0..HIT_POINTS).map(|i| Pt::new(ctx.seed, i)).collect();
        let line = serve_sweep_request_line("prefill", &spec("prefill", &hits), Some("seq"));
        let outcome = request(&addr, &line, |_, _| {})?;
        if outcome.scheduled != hits.len() {
            return Err(format!(
                "serve: prefill scheduled {} of {} points",
                outcome.scheduled,
                hits.len()
            ));
        }
        Ok(Session {
            dir,
            daemon,
            addr,
            hits,
        })
    }

    /// Shuts the daemon down and removes its directories.
    fn finish(self) {
        self.daemon.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        // Only succeeds once no other session is left.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// One client request as the client saw it.
struct Record {
    hit: bool,
    pt: Pt,
    start: Instant,
    accepted: Option<Instant>,
    end: Instant,
    /// (scheduled, cache_hits, unique, digest, result hash) or the error.
    outcome: Result<(usize, usize, usize, String, u64), String>,
}

impl Record {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// How long clients keep sending.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Requests(usize),
}

/// Closed-loop clients: each sends its next request when the previous
/// one has completed, alternating a cached point and a new one.
fn drive(session: &Session, ctx: &Ctx, clients: usize, until: Until) -> Vec<Record> {
    let client = |c: usize| {
        let mut out = Vec::new();
        for j in 0.. {
            match until {
                Until::Deadline(d) if Instant::now() >= d => break,
                Until::Requests(n) if j >= n => break,
                _ => {}
            }
            let hit = j % 2 == 0;
            let pt = if hit {
                session.hits[(mix(ctx.seed, 1 << 20 | j as u64) % HIT_POINTS) as usize]
            } else {
                Pt::new(ctx.seed, HIT_POINTS + ((c as u64) << 32 | j as u64))
            };
            let line =
                serve_sweep_request_line(&format!("c{c}-{j}"), &spec("bench", &[pt]), Some("seq"));
            let start = Instant::now();
            let mut accepted = None;
            let mut result = None;
            let outcome = request(&session.addr, &line, |_, event| match event {
                ServeEvent::Accepted { .. } => accepted = Some(Instant::now()),
                ServeEvent::Result {
                    digest,
                    result_json,
                    ..
                } => {
                    result = Some((digest.clone(), fnv(result_json.as_bytes())));
                }
                _ => {}
            });
            let end = Instant::now();
            let outcome = outcome.and_then(|o| {
                let (digest, hash) = result.ok_or("serve: no result line")?;
                Ok((o.scheduled, o.cache_hits, o.unique, digest, hash))
            });
            out.push(Record {
                hit,
                pt,
                start,
                accepted,
                end,
                outcome,
            });
        }
        out
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Direct `run_sim_engine` hashes of the given points, on `threads` threads.
fn direct_hashes(points: &[Pt], threads: usize) -> Vec<u64> {
    let chunk = points.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = points
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(Pt::direct).collect::<Vec<u64>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Checks every record and the daemon's bookkeeping; returns the tally.
/// A request fails when it errored, its result differs from a direct run,
/// a hit was not served from the cache, a miss was not scheduled, or its
/// digest was journaled more than once. If the daemon's computed count is
/// not exactly the prefill plus one per miss, every miss fails.
fn verify(session: &Session, records: &[Record], ctx: &Ctx) -> Tally {
    let points: Vec<Pt> = records.iter().map(|r| r.pt).collect();
    let direct = direct_hashes(&points, ctx.threads());
    let journal = std::fs::read_to_string(session.daemon.journal_path()).unwrap_or_default();
    let mut journaled: HashMap<&str, usize> = HashMap::new();
    for line in journal.lines().skip(1) {
        if let Some(d) = line
            .split("\"digest\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        {
            *journaled.entry(d).or_default() += 1;
        }
    }
    let misses = records.iter().filter(|r| !r.hit).count();
    let computed = session.daemon.counters().computed;
    let exactly_once = computed == HIT_POINTS as usize + misses
        && journaled.len() == computed
        && journaled.values().all(|&n| n == 1);
    if !exactly_once {
        eprintln!(
            "check: serve computed {computed}, journaled {} digests, {misses} misses",
            journaled.len()
        );
    }
    let mut tally = Tally::default();
    for (r, &want) in records.iter().zip(&direct) {
        let ok = match &r.outcome {
            Ok((scheduled, cache_hits, unique, digest, hash)) => {
                *hash == want
                    && *unique == 1
                    && if r.hit {
                        *cache_hits == 1 && *scheduled == 0
                    } else {
                        *scheduled == 1
                            && exactly_once
                            && journaled.get(digest.as_str()) == Some(&1)
                    }
            }
            Err(e) => {
                eprintln!("check: serve request failed: {e}");
                false
            }
        };
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    }
    tally
}

/// Untraced run: repeated daemon start-ups, then a timed closed loop.
pub fn run(ctx: &Ctx) -> Result<EndToEnd, String> {
    let mut setup_s = Vec::new();
    let mut session: Option<Session> = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = session.take() {
            s.finish();
        }
        let t = Instant::now();
        session = Some(Session::start(ctx, &format!("setup{rep}"))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let session = session.ok_or("serve: no session")?;
    let clients = ctx.threads();
    let start = Instant::now();
    let records = drive(&session, ctx, clients, Until::Deadline(start + ctx.seconds));
    let elapsed = start.elapsed().as_secs_f64();
    let tally = verify(&session, &records, ctx);
    session.finish();
    Ok(EndToEnd {
        tally,
        work_per_s: records.len() as f64 / elapsed,
        work_alias: "points_per_s",
        op_ms: records.iter().map(Record::ms).collect(),
        op_alias: "request",
        setup_s: median(&setup_s),
        engine: "seq",
        threads: clients,
        runs: records.len(),
    })
}

/// Traced run: one session for the whole budget, or a short probe
/// session without one. Spans are recorded from the clients' timestamps
/// once the session ends, so the tracing overhead is their cost over the
/// session's wall time.
pub fn traced(
    ctx: &Ctx,
    budget: Duration,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<(Tally, f64), String> {
    let mut tally = Tally::default();
    let (clients, until) = if budget.is_zero() {
        (1, Until::Requests(PROBE_REQUESTS))
    } else {
        (ctx.threads(), Until::Deadline(Instant::now() + budget))
    };
    let session = Session::start(ctx, "traced")?;
    let start = Instant::now();
    let records = drive(&session, ctx, clients, until);
    let wall_ns = start.elapsed().as_nanos() as f64;
    tally.add(verify(&session, &records, ctx));
    let before = t.len();
    let (req, acc) = (t.name("serve.request"), t.name("serve.accepted"));
    let (hit_id, miss_id) = (t.name("serve.hit"), t.name("serve.miss"));
    for r in &records {
        let kind = if r.hit { hit_id } else { miss_id };
        let root = t.record(req, None, r.start, r.end, 1);
        t.record(kind, Some(root), r.start, r.end, 1);
        if let Some(a) = r.accepted {
            t.record(acc, Some(root), r.start, a, 1);
        }
    }
    let overhead = overhead_share(t.len() - before, wall_ns);
    let ms = |t: &Tracer, name: &str| median(&t.durations(name)) / 1e6;
    layers.insert(
        "serve.accepted_ms_p50".to_string(),
        (ms(t, "serve.accepted"), "ms"),
    );
    layers.insert("serve.hit_ms_p50".to_string(), (ms(t, "serve.hit"), "ms"));
    layers.insert("serve.miss_ms_p50".to_string(), (ms(t, "serve.miss"), "ms"));
    let (hits, unique) = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .fold((0, 0), |(h, u), o| (h + o.1, u + o.2));
    layers.insert(
        "serve.hit_ratio".to_string(),
        (hits as f64 / unique.max(1) as f64, "share"),
    );
    layers.insert(
        "serve.computed".to_string(),
        (session.daemon.counters().computed as f64, "count"),
    );
    let digests: Vec<String> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|o| o.3.clone()))
        .take(32)
        .collect();
    tally.add(store_layer(&session, &digests, t)?);
    layers.insert(
        "sweep.cache_load_us".to_string(),
        (median(&t.durations("sweep.cache_load")) / 1e3, "us"),
    );
    layers.insert(
        "sweep.cache_store_ms".to_string(),
        (ms(t, "sweep.cache_store"), "ms"),
    );
    layers.insert(
        "sweep.journal_append_ms".to_string(),
        (ms(t, "sweep.journal_append"), "ms"),
    );
    session.finish();
    Ok((tally, overhead))
}

/// Times `ResultCache::load` on the daemon's cache, and `ResultCache::store`
/// and `Journal::append` into spare copies, for the served digests.
fn store_layer(session: &Session, digests: &[String], t: &mut Tracer) -> Result<Tally, String> {
    let cache = ResultCache::new(&session.dir.join("cache"))?;
    let spare = ResultCache::new(&session.dir.join("store_probe"))?;
    let header = JournalHeader {
        name: "perfbench".to_string(),
        spec_digest: "0".repeat(32),
        points: digests.len(),
    };
    let (journal, _) = Journal::open(
        &session.dir.join("journal_probe/perfbench.journal"),
        &header,
    )?;
    let (load, store, append) = (
        t.name("sweep.cache_load"),
        t.name("sweep.cache_store"),
        t.name("sweep.journal_append"),
    );
    let mut tally = Tally::default();
    for d in digests {
        let result = t.span(load, None, || cache.load(d));
        tally.attempted += 1;
        let Some(result) = result else {
            tally.failed += 1;
            continue;
        };
        t.span(store, None, || spare.store(d, &result))?;
        t.span(append, None, || {
            journal.append(d, "perfbench", "computed", 0)
        })?;
        tally.failed +=
            u64::from(spare.load(d).map(|r| r.to_json_full()) != Some(result.to_json_full()));
    }
    Ok(tally)
}
