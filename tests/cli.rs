//! End-to-end tests of the `noc` command-line interface.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::process::Command;

fn noc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_noc"))
        .args(args)
        .output()
        .expect("failed to spawn noc binary")
}

#[test]
fn help_lists_all_subcommands() {
    let out = noc(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "noc sim",
        "noc bench",
        "noc synth",
        "noc quality",
        "noc verilog",
    ] {
        assert!(text.contains(cmd), "help missing '{cmd}'");
    }
}

#[test]
fn unknown_command_fails_with_help() {
    let out = noc(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn synth_prints_cost_report() {
    let out = noc(&["synth", "vca", "--topology", "mesh", "--vcs", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("min cycle time"));
    assert!(text.contains("cell area"));
    assert!(text.contains("average power"));
}

#[test]
fn synth_reports_oom_for_hopeless_designs() {
    let out = noc(&[
        "synth",
        "vca",
        "--topology",
        "fbfly",
        "--vcs",
        "4",
        "--alloc",
        "wf",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of memory"));
}

#[test]
fn sim_runs_and_reports_latency() {
    let out = noc(&[
        "sim",
        "--topology",
        "mesh",
        "--vcs",
        "1",
        "--rate",
        "0.1",
        "--warmup",
        "300",
        "--measure",
        "700",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("latency"));
    assert!(text.contains("stable           true"));
}

#[test]
fn profiled_sim_prints_its_speed_to_three_significant_figures() {
    let out = noc(&[
        "sim",
        "--vcs",
        "1",
        "--rate",
        "0.1",
        "--warmup",
        "100",
        "--measure",
        "200",
        "--profile",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    let speed = text
        .lines()
        .find_map(|l| l.strip_prefix("simulator speed"))
        .unwrap_or_else(|| panic!("no speed line: {text}"));
    let (number, rest) = speed.trim_start().split_once(' ').unwrap();
    assert!(rest.starts_with("cycles/s ("), "{speed}");
    assert!(number.parse::<f64>().unwrap() > 0.0, "{speed}");
    let digits: String = number.chars().filter(char::is_ascii_digit).collect();
    let significant = digits.trim_start_matches('0').trim_end_matches('0');
    assert!(
        (1..=3).contains(&significant.len()),
        "{number} is not three significant figures"
    );
}

#[test]
fn quality_reports_three_architectures() {
    let out = noc(&[
        "quality",
        "vca",
        "--topology",
        "mesh",
        "--vcs",
        "2",
        "--rate",
        "0.8",
        "--trials",
        "200",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for arch in ["sep_if", "sep_of", "wf"] {
        assert!(text.contains(arch), "missing {arch}");
    }
}

#[test]
fn verilog_emits_a_module() {
    let out = noc(&["verilog", "vca", "--topology", "mesh", "--vcs", "1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("// Generated by noc-hw"));
    assert!(text.contains("module "));
    assert!(text.trim_end().ends_with("endmodule"));
}

#[test]
fn invalid_flag_value_is_a_clean_error() {
    let out = noc(&["sim", "--rate", "not-a-number"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
}

#[test]
fn sim_reads_the_vc_allocator_from_vca() {
    // `noc sim` names the VC allocator `--vca`, as its help says; `--alloc`
    // belongs to synth and verilog.
    let run = |extra: &[&str]| {
        let mut args = vec![
            "sim",
            "--rate",
            "0.3",
            "--warmup",
            "200",
            "--measure",
            "600",
            "--seed",
            "7",
            "--json",
        ];
        args.extend_from_slice(extra);
        let out = noc(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let default = run(&[]);
    assert_eq!(default, run(&["--vca", "sep_if_rr"]));
    assert_ne!(default, run(&["--vca", "wf"]));
}

#[test]
fn unknown_flags_are_rejected() {
    let out = noc(&["sim", "--bogus-flag", "3"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--bogus-flag"), "{err}");
    // A flag that exists elsewhere is still unknown to this subcommand.
    let out = noc(&["quality", "vca", "--alloc", "wf"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--alloc"));
}

#[test]
fn bench_checks_the_output_directory_before_running() {
    let missing = std::env::temp_dir().join(format!("noc-no-such-dir-{}", std::process::id()));
    let out = noc(&["bench", "--quick", "--out", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not an existing directory"), "{err}");
    assert!(
        !err.contains("running bench matrix"),
        "ran before failing: {err}"
    );
}

#[test]
fn every_observer_combines_with_every_other_and_any_engine() {
    // No observer excludes another, on any engine or seed count.
    let dir = std::env::temp_dir().join(format!("noc-cli-observers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (trace, metrics, anatomy, record) = (
        path("t.json"),
        path("m.csv"),
        path("a.jsonl"),
        path("r.jsonl"),
    );
    let out = noc(&[
        "sim",
        "--engine",
        "active",
        "--seeds",
        "2",
        "--profile",
        "--verify",
        "--trace",
        &trace,
        "--metrics",
        &metrics,
        "--anatomy-out",
        &anatomy,
        "--record",
        &record,
        "--warmup",
        "200",
        "--measure",
        "500",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for file in [&trace, &metrics, &anatomy, &record] {
        let len = std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
        assert!(len > 0, "{file} was not written");
    }
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replication      2 seeds"), "{text}");
    assert!(text.contains("simulator speed"), "{text}");
    assert!(text.contains("reconciliation"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
