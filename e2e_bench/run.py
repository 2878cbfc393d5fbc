#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; prints one JSON result line.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_bench/run.py --smoke [--bin PATH]

The first form builds the library and e2e_bench/vbatch_bench from source into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root, runs one
workload, and prints as its last stdout line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). The traced run also writes a Chrome trace next
to the run's full JSON record, under <build dir>/runs/.

--smoke runs every workload on small inputs plus one traced run, and checks
the printed names and units against BENCHMARK.json (the perf_smoke ctest).
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e_bench"


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(out), "--target", "vbatch_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return out / "vbatch_bench"


def commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, traced, smoke=False):
    """Runs one workload; returns (exit code, full JSON record) or exits on a crash."""
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{seed}-t{int(traced)}{'-smoke' if smoke else ''}"
    out = runs / (stem + ".json")
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", str(out), "--commit", commit()]
    if traced:
        cmd += ["--trace", str(runs / (stem + ".trace.json"))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not out.exists():
        log(f"{workload}: benchmark exited with {proc.returncode} and no result")
        sys.exit(1)
    with open(out) as f:
        return proc.returncode, json.load(f)


def select(record, wanted):
    """The contract's metric object; exits if a metric is missing or malformed."""
    have = {m["name"]: m for m in record["metrics"]}
    metrics = {}
    for spec in wanted:
        m = have.get(spec["name"])
        if m is None or m["unit"] != spec["unit"] or m["value"] is None or \
                not math.isfinite(m["value"]):
            log(f"metric {spec['name']} missing or malformed: {m}")
            sys.exit(1)
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return metrics


def smoke(binary):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    failures = 0
    for workload, traced in [(w, False) for w in names] + [("replay_storm", True)]:
        code, record = run_binary(binary, workload, 2016, 1, traced, smoke=True)
        select(record, spec["per_layer" if traced else "end_to_end"])
        if code != 0 or not record["correct"]:
            log(f"{workload}: correctness checks failed: {record['failures']}")
            failures += 1
        if traced:
            trace = build_dir() / "runs" / f"{workload}-s2016-t1-smoke.trace.json"
            with open(trace) as f:
                json.load(f)
        log(f"smoke {workload}{' (traced)' if traced else ''}: ok")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this vbatch_bench instead of building one")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").exists() or not (ROOT / "src" / "CMakeLists.txt").exists():
        log("run from a full checkout: BENCHMARK.json and src/ are required")
        sys.exit(1)
    binary = Path(args.bin) if args.bin else build()
    if args.smoke:
        sys.exit(smoke(binary))

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        sys.exit(2)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    code, record = run_binary(binary, args.workload, args.seed, seconds, args.trace == 1)
    metrics = select(record, spec["per_layer" if args.trace else "end_to_end"])
    result = {"correct": bool(record["correct"]) and code == 0,
              "attempted": int(record["attempted"]), "failed": int(record["failed"]),
              "metrics": metrics}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
