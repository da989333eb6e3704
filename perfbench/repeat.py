"""Repeat one workload over several seeds and report each metric's spread.

Usage::

    python3 perfbench/repeat.py --workload edit-refresh --seeds 1,2,3,4,5 [--seconds 20] [--trace 0]

For every metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the distance between the quartiles as a share of the median — the
spread ``BENCHMARK.json``'s bounds are checked against.  The raw results are
printed as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    values = {}
    runs = []
    for seed in args.seeds.split(","):
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", seed,
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True,
        )
        took = time.perf_counter() - started
        if completed.returncode != 0:
            print(f"seed {seed}: exit code {completed.returncode}", flush=True)
            return completed.returncode
        result = json.loads(completed.stdout.rstrip("\n").split("\n")[-1])
        runs.append({"seed": seed, "seconds": took, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              f"took {took:.1f}s", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    print(f"{'metric':<44}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}")
    for name, series in values.items():
        middle = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (middle, middle, middle)
        spread = (q3 - q1) / middle if middle else 0.0
        print(f"{name:<44}{middle:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}")
    print(json.dumps({"workload": args.workload, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
