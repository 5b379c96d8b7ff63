//! `noc serve --selftest N`: the built-in load driver.
//!
//! Fires `N` concurrent clients at an in-process daemon, each requesting
//! the smoke preset's grid plus one client-unique rate — so every pair
//! of clients overlaps on the smoke points and differs on one. The test
//! then asserts the daemon's computed-point counter equals the number of
//! unique digests across all requests (every shared point computed
//! exactly once), restarts the daemon over the same directories, replays
//! the union of every grid, and asserts zero recomputation.

use crate::sweep::presets::{preset_windows, SMOKE_RATES};
use crate::sweep::serve::client::{request, ClientOutcome};
use crate::sweep::serve::daemon::{start, ServeOptions};
use crate::sweep::spec::SweepSpec;
use noc_obs::serve::serve_sweep_request_line;
use noc_obs::JsonWriter;
use std::collections::HashSet;
use std::path::Path;

/// The client-unique extra injection rate for client `i`. Divides so the
/// double's shortest decimal form (what lands in the request JSON)
/// parses back to the identical double — the wire round-trip preserves
/// digests.
fn extra_rate(i: usize) -> f64 {
    (i as f64 + 1.0) / 100.0
}

/// The selftest sweep spec as request-line JSON: smoke's grid plus
/// `extras`.
fn spec_json(warmup: u64, measure: u64, extras: &[f64]) -> String {
    JsonWriter::object(|w| {
        w.key("name").str("selftest");
        w.key("grids").arr(|w| {
            w.obj(|w| {
                w.key("topology").str("mesh");
                w.key("vcs").u64(1);
                w.key("rates").arr(|w| {
                    for &r in SMOKE_RATES.iter().chain(extras) {
                        w.f64(r);
                    }
                });
                w.key("warmup").u64(warmup);
                w.key("measure").u64(measure);
            });
        });
    })
}

fn check_client(i: usize, outcome: &ClientOutcome, want_unique: usize) -> Result<(), String> {
    if outcome.unique != want_unique {
        return Err(format!(
            "selftest: client {i} got {} unique points, wanted {want_unique}",
            outcome.unique
        ));
    }
    let accounted = outcome.scheduled + outcome.cache_hits + outcome.coalesced;
    if accounted != outcome.unique {
        return Err(format!(
            "selftest: client {i} accounting leak: {} scheduled + {} cache + {} coalesced != {} unique",
            outcome.scheduled, outcome.cache_hits, outcome.coalesced, outcome.unique
        ));
    }
    Ok(())
}

/// Runs the two-phase selftest against fresh daemon instances over
/// `cache_dir`/`out_dir`. Prints one summary line per phase on success.
pub fn run_selftest(
    clients: usize,
    cache_dir: &Path,
    out_dir: &Path,
    workers: usize,
) -> Result<(), String> {
    let clients = clients.max(1);
    let (warmup, measure) = preset_windows("smoke").ok_or("selftest: smoke preset missing")?;
    let specs: Vec<String> = (0..clients)
        .map(|i| spec_json(warmup, measure, &[extra_rate(i)]))
        .collect();
    // The ground truth the daemon's counter must match: unique digests
    // across all requests, computed independently of the daemon.
    let mut expected = HashSet::new();
    for s in &specs {
        for p in SweepSpec::from_json(s)?.expand() {
            expected.insert(p.digest());
        }
    }
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: cache_dir.to_path_buf(),
        out_dir: out_dir.to_path_buf(),
        workers,
        quiet: true,
    };

    // Phase 1: N concurrent overlapping clients against a fresh daemon.
    let daemon = start(&opts)?;
    let addr = daemon.addr().to_string();
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let line = serve_sweep_request_line(&format!("selftest-{i}"), spec, None);
                    request(addr, &line, |_, _| {})
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("selftest: client thread panicked".to_string()))
            })
            .collect()
    });
    let per_point = SMOKE_RATES.len() + 1;
    for (i, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().map_err(|e| format!("client {i}: {e}"))?;
        check_client(i, outcome, per_point)?;
    }
    let counters = daemon.shutdown();
    if counters.computed != expected.len() {
        return Err(format!(
            "selftest: dedup FAILED — computed {} points for {} unique digests \
             (shared points were recomputed)",
            counters.computed,
            expected.len()
        ));
    }
    println!(
        "serve selftest: {clients} clients x {per_point} points, {} unique digests, computed={} — dedup OK",
        expected.len(),
        counters.computed
    );

    // Phase 2: restart over the same directories, replay the union of
    // every grid in one request — everything must come from the cache.
    let extras: Vec<f64> = (0..clients).map(extra_rate).collect();
    let union = spec_json(warmup, measure, &extras);
    let daemon = start(&opts)?;
    let addr = daemon.addr().to_string();
    let line = serve_sweep_request_line("selftest-union", &union, None);
    let outcome = request(&addr, &line, |_, _| {})?;
    let counters = daemon.shutdown();
    if counters.computed != 0 || outcome.cache_hits != outcome.unique {
        return Err(format!(
            "selftest: restart FAILED — recomputed {} points, {} of {} from cache \
             (wanted 0 recomputed, all cached)",
            counters.computed, outcome.cache_hits, outcome.unique
        ));
    }
    println!(
        "serve selftest: restart served {} points with 0 recomputed — resume OK",
        outcome.unique
    );
    Ok(())
}
