//! End-to-end tests for `noc serve`: real TCP, concurrent clients with
//! overlapping grids, dedup accounting, and restart-with-zero-recompute.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc_bench::sweep::serve::{
    request, start, ClientOutcome, ServeOptions, MAX_REQUEST_BYTES, MAX_REQUEST_POINTS,
};
use noc_bench::sweep::SweepSpec;
use noc_obs::serve::{serve_status_request_line, serve_sweep_request_line, ServeEvent};
use noc_obs::JsonValue;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "noc-serve-it-{}-{tag}-{}",
        std::process::id(),
        // RELAXED: unique-name ticket only; nothing is published.
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn opts(root: &Path) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: root.join("cache"),
        out_dir: root.join("sweeps"),
        workers: 2,
        quiet: true,
    }
}

/// A tiny mesh grid over `rates`, milliseconds to simulate.
fn spec_json(rates: &[f64]) -> String {
    let rates: Vec<String> = rates.iter().map(|r| format!("{r}")).collect();
    format!(
        "{{\"name\":\"e2e\",\"grids\":[{{\"topology\":\"mesh\",\"vcs\":1,\"rates\":[{}],\"warmup\":50,\"measure\":100}}]}}",
        rates.join(",")
    )
}

/// The digests a spec expands to, computed without the daemon.
fn digests_of(spec: &str) -> HashSet<String> {
    SweepSpec::from_json(spec)
        .unwrap()
        .expand()
        .iter()
        .map(|p| p.digest())
        .collect()
}

/// The `computed` digests recorded in a serve journal, with multiplicity.
fn journaled_digests(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .unwrap()
        .lines()
        .skip(1)
        .filter_map(|l| JsonValue::parse(l).ok())
        .filter_map(|v| {
            v.get("digest")
                .and_then(JsonValue::as_str)
                .map(String::from)
        })
        .collect()
}

/// Two clients with overlapping grids, concurrently: every shared digest
/// is computed exactly once, both clients receive complete result sets,
/// and the journal records each computed digest exactly once.
#[test]
fn concurrent_overlapping_clients_compute_each_shared_digest_once() {
    let root = scratch("overlap");
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();

    let spec_a = spec_json(&[0.05, 0.10, 0.20]);
    let spec_b = spec_json(&[0.05, 0.10, 0.30]);
    let union: HashSet<String> = digests_of(&spec_a)
        .union(&digests_of(&spec_b))
        .cloned()
        .collect();
    assert_eq!(union.len(), 4, "2 shared + 1 unique per client");

    let (out_a, out_b) = std::thread::scope(|scope| {
        let run = |id: &'static str, spec: &str| {
            let line = serve_sweep_request_line(id, spec, None);
            let addr = addr.clone();
            let spec = spec.to_string();
            scope.spawn(move || {
                let mut results: HashMap<String, String> = HashMap::new();
                let outcome = request(&addr, &line, |_, event| {
                    if let ServeEvent::Result {
                        digest,
                        result_json,
                        source,
                        ..
                    } = event
                    {
                        assert!(
                            source == "computed" || source == "cache",
                            "unexpected source {source}"
                        );
                        results.insert(digest.clone(), result_json.clone());
                    }
                })
                .unwrap();
                assert_eq!(
                    results.keys().cloned().collect::<HashSet<_>>(),
                    digests_of(&spec),
                    "{id} received exactly its spec's digests"
                );
                (outcome, results)
            })
        };
        let a = run("client-a", &spec_a);
        let b = run("client-b", &spec_b);
        (a.join().unwrap(), b.join().unwrap())
    });

    let (oa, results_a): (ClientOutcome, HashMap<String, String>) = out_a;
    let (ob, results_b) = out_b;
    assert_eq!(oa.unique, 3);
    assert_eq!(ob.unique, 3);
    // Every point was satisfied exactly once daemon-wide.
    let counters = daemon.counters();
    assert_eq!(
        counters.computed,
        union.len(),
        "each unique digest computed exactly once across both clients"
    );
    assert_eq!(counters.clients, 2);
    // Cross-client agreement: shared digests carry identical results.
    for (digest, json) in &results_a {
        if let Some(other) = results_b.get(digest) {
            assert_eq!(json, other, "shared digest {digest} byte-identical");
        }
    }
    // The journal saw each computed digest once — no duplicate work.
    let journal = daemon.journal_path();
    let shutdown_counters = daemon.shutdown();
    assert_eq!(shutdown_counters.computed, union.len());
    let mut recorded = journaled_digests(&journal);
    let n = recorded.len();
    recorded.sort();
    recorded.dedup();
    assert_eq!(recorded.len(), n, "no digest journaled twice");
    assert_eq!(recorded.into_iter().collect::<HashSet<_>>(), union);
    let _ = fs::remove_dir_all(&root);
}

/// Restarting the daemon over the same directories serves every
/// previously computed point from the cache: zero recomputation, and the
/// journal gains no new records.
#[test]
fn restart_resumes_with_zero_recomputation() {
    let root = scratch("restart");
    let spec = spec_json(&[0.05, 0.10]);
    let expected = digests_of(&spec);

    // Life 1: compute everything.
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();
    let outcome = request(
        &addr,
        &serve_sweep_request_line("first", &spec, None),
        |_, _| {},
    )
    .unwrap();
    assert_eq!(outcome.scheduled, expected.len());
    let journal = daemon.journal_path();
    assert_eq!(daemon.shutdown().computed, expected.len());
    let journal_before = fs::read_to_string(&journal).unwrap();

    // Life 2: same directories — everything is a cache hit.
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();
    let mut sources = Vec::new();
    let outcome = request(
        &addr,
        &serve_sweep_request_line("second", &spec, None),
        |_, event| {
            if let ServeEvent::Result { source, .. } = event {
                sources.push(source.clone());
            }
        },
    )
    .unwrap();
    assert_eq!(outcome.cache_hits, expected.len());
    assert_eq!(outcome.scheduled, 0);
    assert!(sources.iter().all(|s| s == "cache"), "{sources:?}");
    let counters = daemon.shutdown();
    assert_eq!(counters.computed, 0, "restart recomputed nothing");
    assert_eq!(
        fs::read_to_string(&journal).unwrap(),
        journal_before,
        "journal unchanged across the restart run"
    );
    let _ = fs::remove_dir_all(&root);
}

/// The status request and malformed requests over the real wire.
#[test]
fn status_and_error_paths_answer_over_tcp() {
    let root = scratch("status");
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();

    let spec = spec_json(&[0.05]);
    request(
        &addr,
        &serve_sweep_request_line("warm", &spec, None),
        |_, _| {},
    )
    .unwrap();

    let mut seen = None;
    request(&addr, &serve_status_request_line("st"), |_, event| {
        if let ServeEvent::Status {
            computed, clients, ..
        } = event
        {
            seen = Some((*computed, *clients));
        }
    })
    .unwrap();
    assert_eq!(seen, Some((1, 1)), "status reports the computed point");

    // A malformed request is refused with an error line, not a hang.
    let err = request(
        &addr,
        "{\"schema\":\"noc-serve/v1\",\"type\":\"sweep\",\"id\":\"x\"}",
        |_, _| {},
    )
    .unwrap_err();
    assert!(err.contains("daemon refused"), "{err}");

    // An engine override rides the request through to completion.
    let line = serve_sweep_request_line("eng", &spec_json(&[0.07]), Some("seq"));
    let outcome = request(&addr, &line, |_, _| {}).unwrap();
    assert_eq!(outcome.unique, 1);
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// Over-cap requests — a line past the byte cap, a grid past the points
/// cap — are each refused with an error line, and the daemon goes on
/// serving the next client.
#[test]
fn oversized_requests_are_refused_and_the_daemon_keeps_serving() {
    let root = scratch("caps");
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();

    let padded = format!(
        "{{\"schema\":\"noc-serve/v1\",\"type\":\"status\",\"id\":\"{}\"}}",
        "x".repeat(MAX_REQUEST_BYTES)
    );
    let err = request(&addr, &padded, |_, _| {}).unwrap_err();
    assert!(
        err.contains(&format!("line longer than {MAX_REQUEST_BYTES} bytes")),
        "{err}"
    );

    let rates: Vec<String> = (1..=MAX_REQUEST_POINTS + 1)
        .map(|i| format!("{}", i as f64 / 1e5))
        .collect();
    let huge = format!(
        "{{\"name\":\"huge\",\"grids\":[{{\"topology\":\"mesh\",\"rates\":[{}]}}]}}",
        rates.join(",")
    );
    let err = request(
        &addr,
        &serve_sweep_request_line("huge", &huge, None),
        |_, _| {},
    )
    .unwrap_err();
    assert!(
        err.contains(&format!("{} points", MAX_REQUEST_POINTS + 1)),
        "{err}"
    );

    let outcome = request(
        &addr,
        &serve_sweep_request_line("next", &spec_json(&[0.05]), None),
        |_, _| {},
    )
    .unwrap();
    assert_eq!(outcome.unique, 1, "the daemon still serves the next client");
    assert_eq!(
        daemon.shutdown().computed,
        1,
        "no over-cap point was computed"
    );
    let _ = fs::remove_dir_all(&root);
}
