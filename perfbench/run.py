#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark binary is built from source
with cargo (into $CARGO_TARGET_DIR, default perfbench/target).  Its last
stdout line is checked against BENCHMARK.json -- every metric named
there for the mode, with its unit, and nothing else -- and printed as
the result.  A name mismatch turns the result incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    """Builds the benchmark; returns the binary's path or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def expected_metrics(trace):
    """{name: unit} BENCHMARK.json names for one mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def mismatches(result, expected):
    """Why `result` does not match the expected metric names and units."""
    problems = []
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    for name in sorted(expected.keys() - got.keys()):
        problems.append("missing metric " + name)
    for name in sorted(got.keys() - expected.keys()):
        problems.append("metric not in BENCHMARK.json: " + name)
    for name in sorted(expected.keys() & got.keys()):
        if got[name] != expected[name]:
            problems.append("%s: unit %s, BENCHMARK.json says %s" % (name, got[name], expected[name]))
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(name + ": value is not a number")
    return problems


def run(binary, workload, seed, seconds, trace, size="full"):
    """Runs one workload; returns (result dict, problems) or exits non-zero."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    if trace:
        spans = os.path.join(HERE, "out", "spans-%s-seed%s.jsonl" % (workload, seed))
        cmd += ["--spans", os.path.relpath(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % workload)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: %s exited with %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: last line is not JSON: " + lines[-1])
    return result, mismatches(result, expected_metrics(trace))


def selftest():
    """Every output check fails on corrupted results; names match."""
    binary = build()
    ok = subprocess.run([binary, "--selftest"]).returncode == 0
    for workload in ("fig4-mix", "replay-tiers", "fleet-screen"):
        for trace in (0, 1):
            result, problems = run(binary, workload, 5, 1, trace, size="tiny")
            good = not problems and result["correct"] and result["failed"] == 0
            print("selftest %s: %s --trace %d prints exactly the BENCHMARK.json metrics, all checks pass"
                  % ("ok    " if good else "FAILED", workload, trace))
            for problem in problems:
                print("  " + problem)
            ok = ok and good
            doctored = json.loads(json.dumps(result))
            name = next(iter(doctored["metrics"]))
            doctored["metrics"][name + "_renamed"] = doctored["metrics"].pop(name)
            caught = bool(mismatches(doctored, expected_metrics(trace)))
            print("selftest %s: a renamed %s metric is caught"
                  % ("ok    " if caught else "FAILED", workload))
            ok = ok and caught
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    binary = build()
    result, problems = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
