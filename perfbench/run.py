"""Benchmark of neutralrep's check, verify and blend operations.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout.  Each workload runs as whole rounds, one
fresh interpreter per round (perfbench/child.py), one after another, until
at least --seconds have passed and at least three rounds have run.  A
single caller drives each round in a closed loop: every operation starts
when the previous one returns.  The first round's outputs are checked
against the oracles in perfbench/oracles.py; every later round must produce
byte-identical outputs.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of the
traced run instead.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from spans import reported_metrics  # noqa: E402
from workloads import KINDS, TAIL_PERCENTILE  # noqa: E402

WORKLOADS = ["cyclic-sweep", "cold-groups", "cli-session"]
MIN_ROUNDS = 3
# A run must end within 180 s; no round starts once this much has passed,
# or when the previous round's length would carry the run past it.
ROUND_START_LIMIT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("check_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("verify_per_s", "1/s"),
    ("blend_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]


class RunError(Exception):
    """A round could not be run to its end."""


def run_round(workload, seed, index, trace, timeout):
    argv = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--round", str(index),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} round {index} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{workload} round {index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def nearest_rank(values, percentile):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def run_workload(workload, seed, seconds, trace):
    for stale in glob.glob(os.path.join(OUT, f"{workload}.round*.spans.json.gz")):
        os.remove(stale)
    rounds = []
    start = perf_counter()
    last = 0.0
    while True:
        elapsed = perf_counter() - start
        if rounds and elapsed >= seconds and len(rounds) >= MIN_ROUNDS:
            break
        if rounds and elapsed + last > ROUND_START_LIMIT_S:
            break
        began = perf_counter()
        timeout = max(1.0, 170 - elapsed)
        rounds.append(run_round(workload, seed, len(rounds), trace, timeout))
        last = perf_counter() - began
    return summarise(workload, rounds)


def round_metrics(workload, r):
    done = {k: r["attempted"][k] - r["failed"][k] for k in KINDS}
    checks = r["latencies_s"]["check"]
    return {
        "setup_s": r["setup_s"],
        "check_per_s": done["check"] / r["busy_s"]["check"],
        "check_p50_ms": 1000 * statistics.median(checks),
        "check_tail_ms": 1000 * nearest_rank(checks, TAIL_PERCENTILE[workload]),
        "verify_per_s": done["verify"] / r["busy_s"]["verify"],
        "blend_per_s": done["blend"] / r["busy_s"]["blend"],
        "peak_rss_mib": r["peak_rss_mib"],
    }


def summarise(workload, rounds):
    """Every metric is the median over rounds of its value in each round."""
    first = rounds[0]
    problems = list(first["problems"])
    for i, r in enumerate(rounds[1:], 1):
        if r["digest"] != first["digest"]:
            problems.append(f"round {i} outputs differ from round 0's")
        if r["attempted"] != first["attempted"] or r["failed"] != first["failed"]:
            problems.append(f"round {i} attempted or failed other operations than round 0")
    per_round = [round_metrics(workload, r) for r in rounds]
    metrics = {name: statistics.median(m[name] for m in per_round) for name, _ in END_TO_END}
    unnormalised = {
        "setup_s": statistics.median(r["raw_setup_s"] for r in rounds),
        **{
            f"{k}_per_s": statistics.median(
                (r["attempted"][k] - r["failed"][k]) / r["raw_busy_s"][k] for r in rounds
            )
            for k in KINDS
        },
    }
    layers = None
    if "layers" in first:
        layers = {
            name: statistics.median(r["layers"][name] for r in rounds)
            for name, _ in reported_metrics()
        }
    return {
        "workload": workload,
        "rounds": len(rounds),
        "problems": problems,
        "attempted": {k: sum(r["attempted"][k] for r in rounds) for k in KINDS},
        "failed": {k: sum(r["failed"][k] for r in rounds) for k in KINDS},
        "failures": sorted(set(f for r in rounds for f in r["failures"])),
        "checks_completed": sum(len(r["latencies_s"]["check"]) for r in rounds),
        "metrics": metrics,
        "unnormalised": unnormalised,
        "layers": layers,
    }


def print_summary(s, trace):
    w = s["workload"]
    print(f"{w}: {s['rounds']} rounds, {s['checks_completed']} checks completed, "
          f"check_tail_ms at p{TAIL_PERCENTILE[w]}")
    for k in KINDS:
        print(f"  {k}: attempted {s['attempted'][k]}, failed {s['failed'][k]}")
    for f in s["failures"]:
        print(f"  failure: {f}")
    label = "traced, for the overhead only" if trace else "untraced"
    for name, unit in END_TO_END:
        print(f"  {name} = {s['metrics'][name]:.6g} {unit} ({label})")
    for name, value in s["unnormalised"].items():
        print(f"  unnormalised {name} = {value:.6g}")
    if s["layers"] is not None:
        for name, unit in reported_metrics():
            print(f"  {name} = {s['layers'][name]:.6g} {unit} (per round)")
    for p in s["problems"][:20]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    problems = oracles.selftest()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, args.trace))
            print_summary(summaries[-1], args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def values(s):
        if args.trace:
            return {n: {"value": s["layers"][n], "unit": u} for n, u in reported_metrics()}
        return {n: {"value": s["metrics"][n], "unit": u} for n, u in END_TO_END}

    if len(summaries) == 1:
        metrics = values(summaries[0])
    else:
        metrics = {f"{s['workload']}.{n}": v for s in summaries for n, v in values(s).items()}
    result = {
        "correct": not any(s["problems"] for s in summaries),
        "attempted": sum(sum(s["attempted"].values()) for s in summaries),
        "failed": sum(sum(s["failed"].values()) for s in summaries),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.result.json"), "w") as handle:
        json.dump({"summaries": summaries, "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
