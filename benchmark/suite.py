#!/usr/bin/env python3
"""Runs every workload, each in a fresh process, and prints every metric
by name with its unit. Called by run.sh, which builds
the binary first. Standard library only."""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
# Run and reported here, but left out of BENCHMARK.json: see UNGATED in
# src/workloads/mod.rs (a test holds the two lists together).
UNGATED = ["hashjoin_skew"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + UNGATED
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
# Timed jobs of a traced run: span recording alternates, so 10 are traced.
TRACED_JOBS = 20


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=HERE).stdout.strip()
    except OSError:
        return ""


def machine_shape():
    """What a number depends on besides the code. Two result files are
    compared only when these agree."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "rustc": capture(["rustc", "-V"]) or "unknown",
    }


def run_workload(binary, name, seed, traced, smoke):
    cmd = [binary, "--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
           "--out-dir", OUT]
    if smoke:
        cmd.append("--smoke")
    elif traced:
        cmd += ["--jobs", str(TRACED_JOBS)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{name}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(binary, seed, traced, smoke):
    results = {name: run_workload(binary, name, seed, traced, smoke) for name in WORKLOADS}
    return {
        "shape": machine_shape(),
        "git_commit": capture(["git", "rev-parse", "HEAD"]) or "unknown",
        "seed": seed,
        "mode": ("traced" if traced else "end_to_end") + ("-smoke" if smoke else ""),
        "jobs": {name: r["attempted"] for name, r in results.items()},
        "workloads": results,
    }


def save(result, label):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"results-{label}-seed{result['seed']}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"\nresults written to {os.path.relpath(path)}")


def print_set(result):
    shape = result["shape"]
    print(f"machine: nproc {shape['nproc']}, kernel {shape['kernel']}, {shape['rustc']}; "
          f"commit {result['git_commit'][:12]}; seed {result['seed']}; mode {result['mode']}")
    for name, r in result["workloads"].items():
        print(f"\n{name}: attempted {r['attempted']} failed {r['failed']} "
              f"correct {str(r['correct']).lower()}")
        for metric, v in r["metrics"].items():
            print(f"  {metric:<40} {v['value']:>16.6f} {v['unit']}")
    if not result["mode"].startswith("end_to_end"):
        return
    span = lambda w: result["workloads"][w]["metrics"]["makespan_s"]["value"]
    print("\nderived (not gated):")
    print(f"  skew slowdown  clicklog_skew / clicklog_uniform makespan_s           "
          f"{span('clicklog_skew') / span('clicklog_uniform'):.3f}")
    print(f"  plane cost     clicklog_skew_rpc_durable / clicklog_skew makespan_s  "
          f"{span('clicklog_skew_rpc_durable') / span('clicklog_skew'):.3f}")


def failed_jobs(result):
    return sum(r["failed"] for r in result["workloads"].values())


def compare(a, b, symmetric):
    """Prints workload x metric: both values, their relative difference
    and the bound. Every end-to-end metric is lower-is-better, so B is
    worse when it is larger; `symmetric` (two runs of one commit) counts
    a difference in either direction. Returns how many exceed the bound,
    the ungated workloads' not counted."""
    for key in ("shape", "jobs", "mode"):
        if a[key] != b[key]:
            sys.exit(f"refusing to compare: {key} differs\n  A: {a[key]}\n  B: {b[key]}")
    over = 0
    print(f"{'workload':<28} {'metric':<12} {'A':>12} {'B':>12} {'diff':>8} {'bound':>6}")
    for name in a["workloads"]:
        for metric, bound in BOUNDS.items():
            va = a["workloads"][name]["metrics"][metric]["value"]
            vb = b["workloads"][name]["metrics"][metric]["value"]
            diff = (vb - va) / va
            exceeded = (abs(diff) if symmetric else diff) > bound
            over += exceeded and name not in UNGATED
            print(f"{name:<28} {metric:<12} {va:>12.4f} {vb:>12.4f} {diff:>+8.1%} {bound:>6.0%}"
                  f"{'  EXCEEDS BOUND' if exceeded else ''}{'  (ungated)' if name in UNGATED else ''}")
    return over


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--bin", required=True, help="the built hurricane-benchmark binary")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--traced", action="store_true", help="per-layer metrics instead")
    p.add_argument("--smoke", action="store_true", help="1/100 inputs, 3 jobs per workload")
    p.add_argument("--check-repeat", action="store_true",
                   help="run the end-to-end set twice and compare against the bounds")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    args = p.parse_args()

    if args.compare:
        a, b = (json.load(open(path)) for path in args.compare)
        sys.exit(1 if compare(a, b, symmetric=False) else 0)
    if args.check_repeat:
        first = run_set(args.bin, args.seed, False, args.smoke)
        second = run_set(args.bin, args.seed, False, args.smoke)
        save(first, "repeat-a")
        save(second, "repeat-b")
        over = compare(first, second, symmetric=True)
        sys.exit(1 if over or failed_jobs(first) or failed_jobs(second) else 0)
    result = run_set(args.bin, args.seed, args.traced, args.smoke)
    print_set(result)
    save(result, result["mode"])
    sys.exit(1 if failed_jobs(result) else 0)


if __name__ == "__main__":
    main()
