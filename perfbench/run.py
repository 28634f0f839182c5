#!/usr/bin/env python3
"""Run one workload of the powerburst benchmark and print its metrics.

    python3 perfbench/run.py --workload fig4 --seed 7 --seconds 10 --trace 0

Builds the `perfbench` Cargo package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build/` at the repository root), runs
it, writes the full result with its provenance to
`perfbench/out/<workload>-seed<n>-trace<0|1>.json`, prints every metric by
name and unit, and ends stdout with one JSON line:

    {"correct": true, "attempted": 165, "failed": 0, "metrics": {...}}

`--trace 0` gives the end-to-end metrics (tracing and obs off); `--trace 1`
gives the per-layer table of a traced run, whose spans are written to
`perfbench/out/spans-<workload>-seed<n>.jsonl`. Regenerate that table from
the span file alone with `<target>/release/perfbench layers <file>`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ["fig4", "tcp-faulted", "city-10k"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Mirrors [profile.release] in perfbench/Cargo.toml.
PROFILE = "release (lto=thin, codegen-units=1, debug=line-tables-only)"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else ROOT / ".bench_build"


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return False
    return True


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git history."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for base in [ROOT / "crates", BENCH / "src"]:
        files += [p for p in base.rglob("*") if p.is_file() and (p.suffix == ".rs" or p.name == "Cargo.toml")]
    for p in sorted(set(files)):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(doc):
    rev, dirty = None, None
    if (ROOT / ".git").exists():
        rev = command_output(["git", "rev-parse", "HEAD"])
        status = command_output(["git", "status", "--porcelain"])
        dirty = None if status is None else bool(status)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "build_profile": PROFILE,
        "threads": doc.get("threads"),
        "seed": doc.get("seed"),
        "unix_time": int(time.time()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    target = target_dir()
    if not build(target):
        return 1
    binary = target / "release" / "perfbench"
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"run failed with exit code {done.returncode}")
        return 1
    doc = json.loads(lines[-1])

    result = {"provenance": provenance(doc), **doc}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: correct={doc['correct']} "
          f"attempted={doc['attempted']} failed={doc['failed']} -> {path.relative_to(ROOT)}")
    for check in doc.get("checks", []):
        print(f"  FAILED: {check}")
    for name, m in doc["metrics"].items():
        print(f"  {name:32} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
