//! The sweep executor: bounded-parallel, cached, journaled, resumable.
//!
//! [`run_sweep`] expands a [`SweepSpec`] and satisfies each point from
//! the cheapest source available:
//!
//! 1. **journal skip** — the point is recorded complete in the journal
//!    and its result is in the cache: nothing runs;
//! 2. **cache hit** — the result exists in the content-addressed cache
//!    (written by another sweep, a figure binary, or an earlier schema-
//!    compatible run): the completion is journaled, nothing runs;
//! 3. **computed** — the point is simulated (via [`run_many`]'s worker
//!    pool), stored in the cache, then journaled.
//!
//! The journal append happens only after the cache store succeeds, so a
//! crash at any instant leaves the invariant "journaled ⇒ cached" intact
//! and the resumed run recomputes zero points.

use crate::figures::{direct_runner, SimRunner};
use crate::sweep::cache::ResultCache;
use crate::sweep::journal::{Journal, JournalHeader};
use crate::sweep::spec::{SweepPoint, SweepSpec};
use crate::sweep::SWEEP_SCHEMA;
use noc_obs::{
    sweep_manifest_json, window_jsonl, AnatomyHeader, ProgressMeter, SweepManifestPoint,
    TelemetryHeader,
};
use noc_sim::{run_many, run_sim_engine, Engine, Run, SimConfig, SimResult, TelemetryOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where and how a sweep runs.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Content-addressed result store (shared across sweeps).
    pub cache_dir: PathBuf,
    /// Journal + manifest directory.
    pub out_dir: PathBuf,
    /// Engine override for every point (`None` keeps per-point engines).
    pub engine: Option<Engine>,
    /// Suppress the per-point progress lines on stderr.
    pub quiet: bool,
    /// Refuse to start without an existing journal (`noc sweep resume`).
    pub require_journal: bool,
    /// Record a telemetry dump (`<digest>.telemetry.jsonl` in the cache
    /// directory) for every point this run computes; the manifest links
    /// each point to its dump.
    pub telemetry: bool,
    /// Record a latency-anatomy dump (`<digest>.anatomy.jsonl` in the
    /// cache directory) for every point this run computes; the manifest
    /// links each point to its dump.
    pub anatomy: bool,
}

impl SweepOptions {
    /// Options rooted at the repo's conventional result directories.
    pub fn default_dirs() -> SweepOptions {
        SweepOptions {
            cache_dir: PathBuf::from("results/cache"),
            out_dir: PathBuf::from("results/sweeps"),
            engine: None,
            quiet: false,
            require_journal: false,
            telemetry: false,
            anatomy: false,
        }
    }
}

/// File name (relative to the cache directory) of a point's telemetry dump.
fn telemetry_filename(digest: &str) -> String {
    format!("{digest}.telemetry.jsonl")
}

/// File name (relative to the cache directory) of a point's anatomy dump.
fn anatomy_filename(digest: &str) -> String {
    format!("{digest}.anatomy.jsonl")
}

/// Per-packet ledger rows retained per anatomy-enabled sweep point.
const SWEEP_ANATOMY_CAPACITY: usize = 1 << 16;
/// Slowest-packet waterfalls kept per anatomy-enabled sweep point.
const SWEEP_ANATOMY_TOP_K: usize = 8;

/// Simulates one point with whichever dump observers are on — the flight
/// recorder, the per-packet latency ledger, or both on the same run — and
/// writes each `noc-telemetry/v1` / `noc-anatomy/v1` dump next to the
/// cached result. Both observers are pure, and the telemetry summary is
/// stripped before the result is stored, so the dumps stay out of both the
/// point digest and the cached `SimResult`: dump-enabled and plain sweeps
/// share cache entries byte for byte.
fn compute_with_dumps(
    point: &SweepPoint,
    engine: Engine,
    opts: &SweepOptions,
    digest: &str,
) -> Result<SimResult, String> {
    let topts = TelemetryOptions {
        // A watchdog trip would poison the whole sweep; sweep specs are
        // assumed deadlock-free and long stalls simply show in the dump.
        watchdog: None,
        ..TelemetryOptions::recording()
    };
    let routers = point.cfg.topology.build().num_routers();
    let mut telemetry = TelemetryHeader {
        digest: digest.to_string(),
        label: point.label.clone(),
        window: topts.window,
        match_every: topts.match_every,
        routers,
        warmup: point.warmup,
        measure: point.measure,
    }
    .to_json();
    telemetry.push('\n');
    let mut run = Run::new(&point.cfg, point.warmup, point.measure).engine(engine);
    if opts.telemetry {
        run = run.telemetry(topts).on_window(|snap| {
            telemetry.push_str(&window_jsonl(snap));
            telemetry.push('\n');
        });
    }
    if opts.anatomy {
        run = run.anatomy(SWEEP_ANATOMY_CAPACITY, SWEEP_ANATOMY_TOP_K);
    }
    let out = run.go().map_err(|trip| {
        format!(
            "telemetry: watchdog tripped with no watchdog set: {}",
            trip.describe()
        )
    })?;
    let write = |name: String, text: &str| {
        let path = opts.cache_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    if opts.telemetry {
        write(telemetry_filename(digest), &telemetry)?;
    }
    if let Some(col) = &out.anatomy {
        let header = AnatomyHeader {
            digest: digest.to_string(),
            label: point.label.clone(),
            routers,
            warmup: point.warmup,
            measure: point.measure,
            capacity: SWEEP_ANATOMY_CAPACITY as u64,
            top_k: SWEEP_ANATOMY_TOP_K as u64,
        };
        write(anatomy_filename(digest), &col.to_jsonl(&header))?;
    }
    let mut r = out.result;
    r.telemetry = None;
    Ok(r)
}

/// What a sweep run did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Sweep name.
    pub name: String,
    /// Digest of the expanded spec.
    pub spec_digest: String,
    /// Total points in the sweep.
    pub total: usize,
    /// Points simulated in this run.
    pub computed: usize,
    /// Points satisfied from the cache (journaled this run).
    pub cache_hits: usize,
    /// Points skipped because the journal already recorded them.
    pub journal_skips: usize,
    /// Wall-clock for the whole run, in milliseconds.
    pub wall_ms: u64,
    /// One result per point, in spec expansion order.
    pub results: Vec<SimResult>,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
    /// Where the journal lives.
    pub journal_path: PathBuf,
}

/// Runs (or resumes) a sweep. See the module docs for the source
/// hierarchy; the returned outcome carries per-source counts, so "resume
/// recomputed nothing" is checkable as `computed == 0`.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let start = Instant::now();
    let points = spec.expand();
    let digests: Vec<String> = points.iter().map(|p| p.digest()).collect();
    let spec_digest = spec.digest();
    let cache = ResultCache::new(&opts.cache_dir)?;
    // The spec digest participates in the file names, so the same preset
    // at a different run window is a *new* sweep (own journal, own
    // manifest) rather than a refused resume; the header check below
    // still guards against tampered or collided files.
    let tag = &spec_digest[..12];
    let journal_path = opts.out_dir.join(format!("{}-{tag}.journal", spec.name));
    if opts.require_journal && !journal_path.exists() {
        return Err(format!(
            "resume: no journal at {} — start with `noc sweep run`",
            journal_path.display()
        ));
    }
    let header = JournalHeader {
        name: spec.name.clone(),
        spec_digest: spec_digest.clone(),
        points: points.len(),
    };
    let (journal, done) = Journal::open(&journal_path, &header)?;
    let meter = ProgressMeter::new(points.len());

    let outcomes: Vec<Result<(SimResult, &'static str, u64), String>> =
        run_many(points.len(), |i| {
            let point = &points[i];
            let digest = &digests[i];
            let journaled = done.contains(digest);
            let t0 = Instant::now();
            let (result, source): (SimResult, &'static str) = match cache.load(digest) {
                Some(r) if journaled => (r, "journal"),
                Some(r) => (r, "cache"),
                // A journaled-but-evicted point is recomputed like a miss;
                // re-journaling it is harmless (the done-set dedups).
                None => {
                    let engine = opts.engine.unwrap_or(point.engine);
                    let r = if opts.telemetry || opts.anatomy {
                        compute_with_dumps(point, engine, opts, digest)?
                    } else {
                        run_sim_engine(&point.cfg, point.warmup, point.measure, engine)
                    };
                    cache.store(digest, &r)?;
                    (r, "computed")
                }
            };
            let wall_ms = t0.elapsed().as_millis() as u64;
            if source != "journal" {
                journal.append(digest, &point.label, source, wall_ms)?;
            }
            meter.tick();
            if !opts.quiet {
                eprintln!("[sweep {}] {} {}", spec.name, meter.line(), point.label);
            }
            Ok((result, source, wall_ms))
        });

    let mut results = Vec::with_capacity(points.len());
    let mut manifest_points = Vec::with_capacity(points.len());
    let (mut computed, mut cache_hits, mut journal_skips) = (0usize, 0usize, 0usize);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (result, source, wall_ms) = outcome?;
        match source {
            "computed" => computed += 1,
            "cache" => cache_hits += 1,
            _ => journal_skips += 1,
        }
        // Dumps from this run or any earlier telemetry-enabled run are
        // linked the same way: by presence on disk next to the cache entry.
        let dump = telemetry_filename(&digests[i]);
        let anatomy_dump = anatomy_filename(&digests[i]);
        manifest_points.push(SweepManifestPoint {
            label: points[i].label.clone(),
            digest: digests[i].clone(),
            source,
            wall_ms,
            telemetry: opts.cache_dir.join(&dump).is_file().then_some(dump),
            anatomy: opts
                .cache_dir
                .join(&anatomy_dump)
                .is_file()
                .then_some(anatomy_dump),
        });
        results.push(result);
    }

    let wall_ms = start.elapsed().as_millis() as u64;
    let manifest = sweep_manifest_json(
        &spec.name,
        SWEEP_SCHEMA,
        &spec_digest,
        computed,
        cache_hits,
        journal_skips,
        wall_ms,
        &manifest_points,
    );
    let manifest_path = opts
        .out_dir
        .join(format!("{}-{tag}.manifest.json", spec.name));
    std::fs::write(&manifest_path, manifest)
        .map_err(|e| format!("manifest: cannot write {}: {e}", manifest_path.display()))?;

    Ok(SweepOutcome {
        name: spec.name.clone(),
        spec_digest,
        total: points.len(),
        computed,
        cache_hits,
        journal_skips,
        wall_ms,
        results,
        manifest_path,
        journal_path,
    })
}

/// A point runner backed by the content-addressed cache:
/// hits load, misses compute on `engine` and store. The figure renderers
/// take this to make their grid points *and* their adaptive
/// bisection/saturation probes resumable.
pub fn cached_runner(
    cache: ResultCache,
    engine: Engine,
) -> impl Fn(&SimConfig, u64, u64) -> SimResult + Sync {
    move |cfg, warmup, measure| {
        let digest = cfg.digest(warmup, measure, SWEEP_SCHEMA);
        if let Some(r) = cache.load(&digest) {
            return r;
        }
        let r = run_sim_engine(cfg, warmup, measure, engine);
        if let Err(e) = cache.store(&digest, &r) {
            // A read-only cache degrades to uncached, never to failure.
            eprintln!("warning: {e}");
        }
        r
    }
}

/// The runner a figure binary uses: a plain sequential run normally, or the
/// cache at `$NOC_SWEEP_CACHE` when that variable names a directory —
/// which is how `noc sweep run --preset <fig>` makes the binaries' exact
/// output reproducible without re-simulating.
pub fn env_runner() -> Box<SimRunner> {
    match std::env::var("NOC_SWEEP_CACHE") {
        Ok(dir) if !dir.is_empty() => match ResultCache::new(Path::new(&dir)) {
            Ok(cache) => Box::new(cached_runner(cache, Engine::Sequential)),
            Err(e) => {
                eprintln!("warning: {e}; running uncached");
                Box::new(direct_runner())
            }
        },
        _ => Box::new(direct_runner()),
    }
}
