"""Traced runs: every per-layer metric and the tracing overhead, per workload.

    python3 perfbench/trace.py

Run from the root of the repository.  Each workload is run twice with
``--trace 1`` and seed 1, for the run_seconds of BENCHMARK.json.  The
table shows the first run, and the last column says whether every count
(``.calls``, steps, points, bytes) came out the same in both runs.
"""
import argparse
import sys

from benchlib.common import WORKLOADS, run_benchmark
from repeat import benchmark_json


SEED = 1


def is_count(unit: str) -> bool:
    return unit in ("count", "bytes")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    seconds = benchmark_json()["run_seconds"]
    runs = {name: [run_benchmark(name, SEED, seconds, 1) for _ in range(2)]
            for name in WORKLOADS}
    first = runs[WORKLOADS[0]][0]["metrics"]
    print(f"{'metric':36} {'unit':6}" + "".join(f" {name:>14}" for name in WORKLOADS)
          + "  counts repeat")
    all_repeat = True
    for metric, info in first.items():
        cells = [runs[name][0]["metrics"][metric]["value"] for name in WORKLOADS]
        repeat = ""
        if is_count(info["unit"]):
            same = all(runs[n][0]["metrics"][metric] == runs[n][1]["metrics"][metric]
                       for n in WORKLOADS)
            all_repeat = all_repeat and same
            repeat = "yes" if same else "NO"
        print(f"{metric:36} {info['unit']:6}" + "".join(f" {v:14.6g}" for v in cells)
              + f"  {repeat}")
    for name in WORKLOADS:
        r = runs[name][0]
        print(f"# {name}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
    return 0 if all_repeat else 1


if __name__ == "__main__":
    sys.exit(main())
