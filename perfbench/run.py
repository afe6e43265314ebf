#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check

The first form builds the perfbench binary (CMake, into .bench_build/, or
$CARGO_TARGET_DIR when set) and runs one workload from BENCHMARK.json with
the parameters perfbench/workloads.json fixes for it. Its standard output is
the binary's: metrics by name with units, a manifest line, a detail line and,
last, the one-line JSON result. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones from a separate traced run. The exit code is
non-zero when the build fails or any operation failed its correctness check.

--check is the quick self-check: it runs every workload for a few steps with
--trace 0 and 1 and verifies that the metric names and units printed are
exactly those BENCHMARK.json declares, and that no operation failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def src_digest():
    """SHA-256 over the library sources (path + bytes), so two results can be
    matched to the code they measured even outside a git checkout."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def workload_args(spec, name):
    args = []
    for key, value in spec["workloads"][name].get("params", {}).items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args += ["--param", f"{key}={value}"]
    return args


def command(binary, spec, workload, seed, seconds, trace, quick=False):
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--quick", "1" if quick else "0",
            "--git-sha", git_sha(), "--src-digest", src_digest(),
            "--work-dir", build_dir()] + workload_args(spec, workload)


def check(binary, bench, spec):
    """Runs every workload briefly in both modes and validates the output."""
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    for name in names:
        if name not in spec["workloads"]:
            problems.append(f"{name}: missing from perfbench/workloads.json")
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = subprocess.run(command(binary, spec, name, 1, 2, trace, quick=True), cwd=ROOT,
                               capture_output=True, text=True, timeout=600)
            lines = r.stdout.strip().splitlines()
            where = f"{name} --trace {trace}"
            if r.returncode != 0 or not lines:
                problems.append(f"{where}: exit {r.returncode}: {r.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            for n in sorted(set(want) - set(got)):
                problems.append(f"{where}: metric {n} declared but not printed")
            for n in sorted(set(got) - set(want)):
                problems.append(f"{where}: metric {n} printed but not declared")
            for n in sorted(set(want) & set(got)):
                if want[n] != got[n]:
                    problems.append(f"{where}: {n} unit {got[n]} != declared {want[n]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            log(f"checked {where}: {len(got)} metrics, attempted {result['attempted']}")
    for p in problems:
        log(f"CHECK FAILED: {p}")
    if not problems:
        log("check passed: every printed metric matches BENCHMARK.json")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="quick self-check of every workload")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "workloads.json"))
    binary = build()
    if args.check:
        return check(binary, bench, spec)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    return subprocess.run(command(binary, spec, args.workload, args.seed, seconds, args.trace),
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
