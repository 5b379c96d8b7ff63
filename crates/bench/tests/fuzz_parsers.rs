//! Property tests over the input parsers: random bytes, torn prefixes of
//! valid lines, oversized grids and deep nesting go to
//! `ServeRequest::parse`, `SweepSpec::from_json` and `JsonValue::parse`,
//! and `Journal::open` reads journals with a garbage or torn tail. Every
//! call must return `Ok` or `Err`; a panic or an abort fails the test.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc_bench::sweep::serve::{ServeRequest, MAX_REQUEST_POINTS};
use noc_bench::sweep::{Journal, JournalHeader, SweepSpec};
use noc_obs::serve::{
    serve_preset_request_line, serve_status_request_line, serve_sweep_request_line,
};
use noc_obs::JsonValue;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const SPEC: &str = r#"{"name":"fz","grids":[{"topology":["mesh","fbfly"],"vcs":[1,2],"sa":["sep_if_rr","wf"],"rates":[0.05,0.1],"warmup":10,"measure":20,"engine":"seq"}]}"#;

/// Valid documents the parsers accept, to tear and mutate.
fn valid_lines() -> Vec<String> {
    vec![
        SPEC.to_string(),
        serve_sweep_request_line("c1", SPEC, Some("par")),
        serve_preset_request_line("p1", "smoke", None),
        serve_status_request_line("s1"),
    ]
}

/// Feeds `text` to every string parser; each must return, not panic.
fn parse_everything(text: &str) {
    let _ = JsonValue::parse(text);
    let _ = SweepSpec::from_json(text);
    let _ = ServeRequest::parse(text);
}

/// `n` opening brackets or object prefixes, closed when `close` is set.
fn nested(n: usize, object: bool, close: bool) -> String {
    let (open, shut) = if object { ("{\"a\":", "}") } else { ("[", "]") };
    let mut s = open.repeat(n);
    s.push('1');
    if close {
        s.push_str(&shut.repeat(n));
    }
    s
}

fn scratch_journal() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "noc-fuzz-journal-{}-{}.journal",
        std::process::id(),
        // RELAXED: unique-name ticket only; nothing is published.
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(prop::num::u8::ANY, 0..512)) {
        parse_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn torn_and_mutated_lines_never_panic(
        which in 0usize..4,
        cut in 0usize..4096,
        flip in prop::option::of((0usize..4096, prop::num::u8::ANY)),
    ) {
        let mut line = valid_lines()[which].clone().into_bytes();
        if let Some((at, byte)) = flip {
            let at = at % line.len();
            line[at] = byte;
        }
        line.truncate(cut % (line.len() + 1));
        parse_everything(&String::from_utf8_lossy(&line));
    }

    #[test]
    fn deep_nesting_is_refused_without_a_stack_overflow(
        depth in 1usize..200_000,
        object in prop::bool::ANY,
        close in prop::bool::ANY,
    ) {
        let doc = nested(depth, object, close);
        parse_everything(&doc);
        let request = serve_sweep_request_line("deep", &doc, None);
        prop_assert!(ServeRequest::parse(&request).is_err());
        if depth > noc_obs::json::MAX_DEPTH {
            prop_assert!(JsonValue::parse(&doc).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oversized_grids_parse_and_the_daemon_refuses_them(
        rates in 1usize..600,
        seeds in 1usize..600,
        vcs in 1usize..40,
    ) {
        let list = |n: usize, f: &dyn Fn(usize) -> String| {
            (0..n).map(f).collect::<Vec<_>>().join(",")
        };
        let spec = format!(
            r#"{{"name":"big","grids":[{{"rates":[{}],"seeds":[{}],"vcs":[{}]}}]}}"#,
            list(rates, &|i| format!("{}", (i + 1) as f64 / 1e4)),
            list(seeds, &|i| i.to_string()),
            list(vcs, &|i| (i + 1).to_string()),
        );
        let parsed = SweepSpec::from_json(&spec).unwrap();
        let points = rates * seeds * vcs;
        prop_assert_eq!(parsed.point_count(), points);
        let served = ServeRequest::parse(&serve_sweep_request_line("big", &spec, None));
        prop_assert_eq!(served.is_ok(), points <= MAX_REQUEST_POINTS);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn journals_with_a_garbage_or_torn_tail_open_cleanly(
        records in 0usize..4,
        tail in prop::collection::vec(prop::num::u8::ANY, 0..200),
        torn in prop::bool::ANY,
        cut in 0usize..200,
    ) {
        let path = scratch_journal();
        let header = JournalHeader {
            name: "fz".to_string(),
            spec_digest: "d".to_string(),
            points: 8,
        };
        {
            let (journal, done) = Journal::open(&path, &header).unwrap();
            prop_assert!(done.is_empty());
            for i in 0..records {
                journal.append(&format!("p{i}"), "label", "computed", 1).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        if torn {
            // The last record's line, cut short by a crash.
            let record = br#"{"digest":"torn","label":"l","source":"computed","wall_ms":3}"#;
            bytes.extend_from_slice(&record[..cut % record.len()]);
        } else {
            bytes.extend_from_slice(&tail);
        }
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open(&path, &header) {
            Ok((_journal, done)) => {
                for i in 0..records {
                    prop_assert!(done.contains(&format!("p{i}")), "record {} lost", i);
                }
            }
            // Only a tail that is not UTF-8 may make the file unreadable.
            Err(e) => prop_assert!(!torn && e.contains("cannot read"), "{}", e),
        }
        let _ = std::fs::remove_file(&path);
    }
}
