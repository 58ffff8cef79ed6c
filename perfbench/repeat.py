"""Run each workload several times, one seed per run, and summarise every metric.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]

Run from the root of the repository.  Every workload runs untraced with
seeds first-seed, first-seed+1, ...; runs interleave the workloads so that a change in machine load
touches all of them.  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
A spread at or above a third of the bound is marked ``!``.  Each run
measures for the run_seconds of BENCHMARK.json.
"""
import argparse
import json
import os
import sys

from benchlib.common import BENCH_DIR, WORKLOADS, quartiles, run_benchmark


def benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    config = benchmark_json()

    results = {name: [] for name in WORKLOADS}
    for i in range(args.runs):
        for name in WORKLOADS:
            res = run_benchmark(name, args.first_seed + i, config["run_seconds"], 0)
            results[name].append(res)
            print(f"# {name} seed {args.first_seed + i}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)

    limits = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"{'workload':8} {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name:8} {'runs correct':36} {sum(r['correct'] for r in runs):>14}"
              f" of {len(runs)}; failed share {shares}")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = limits.get(metric)
            mark = "!" if bound is not None and spread >= bound / 3 else " "
            print(f"{name:8} {metric + ' [' + first['unit'] + ']':36} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f}{mark}{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
