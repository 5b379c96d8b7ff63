#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is mesh_curve, fbfly_wide, quality_open_loop, serve_mixed, or `all`
to run the four in turn. The seed defaults to the benchmark's default seed
(2009) and the measured seconds to `run_seconds` in BENCHMARK.json. The benchmark is built from source (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build` at the repository
root. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
human-readable report. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["mesh_curve", "fbfly_wide", "quality_open_loop", "serve_mixed"]
# Each run must end within 180 s; the build before the first run is not
# counted against this.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a report names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "perfbench" / "Cargo.toml"]
    for pattern in ["crates/*/Cargo.toml", "crates/*/src/**/*.rs", "perfbench/src/**/*.rs"]:
        files.extend(ROOT.glob(pattern))
    for f in sorted(set(files)):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "noc-perfbench"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    return {m["name"] for m in spec()["per_layer" if trace else "end_to_end"]}


def run_one(binary, env, workload, args):
    cmd = [str(binary), "--workload", workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{workload} exited with code {out.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"{workload} metrics differ from BENCHMARK.json: {sorted(missing)}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    os.chdir(ROOT)
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(ROOT / env.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(env)
    git_rev = capture(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none"
    env["PERFBENCH_GIT_REV"] = git_rev
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    if args.workload != "all":
        print(json.dumps(run_one(binary, env, args.workload, args)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, env, workload, args)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()
