"""One round of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py --workload NAME --seed N --round K
           --trace 0|1

Times ``import neutralrep`` plus building the inputs (set-up), runs the
round's operations, and prints one JSON line with the timings, the
per-layer figures when traced, a digest of every output, and, in round 0,
the outcome of checking the outputs against the oracles.
``neutralrep`` is imported from the ``src`` directory of the checkout that
holds this file and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["cyclic-sweep", "cold-groups", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    name = args.workload

    sampler = hostspeed.Sampler()
    with sampler:
        start = perf_counter()
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import neutralrep as nr
        import neutralrep.cli

        source = os.path.realpath(nr.__file__)
        if not source.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
            print(f"neutralrep was imported from {source}, outside this checkout", file=sys.stderr)
            return 1
        if name == "cli-session":
            items = workloads.build_cli_inputs(args.seed, os.path.join(OUT, "work", name))
        else:
            items = workloads.build_library_inputs(nr, name, args.seed)
        setup = (start, perf_counter())

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        rnd = workloads.Round((nr.errors.NeutralRepError, workloads.CliError), tracer)
        if name == "cli-session":
            records = workloads.run_cli_round(nr.cli, items, rnd)
        else:
            records = workloads.run_library_round(nr, items, rnd)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": sampler.normalise(*setup),
        "raw_setup_s": setup[1] - setup[0],
        "peak_rss_mib": peak_rss_mib,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "failures": rnd.failures,
        **rnd.times(sampler),
        "digest": workloads.digest_outputs(records),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{name}.round{args.round}.spans.json.gz"))
    if args.round == 0:
        if name == "cli-session":
            problems = workloads.check_cli_round(items, records)
        else:
            problems = workloads.check_library_round(items, records)
        result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
