"""extkit benchmark: one run of one workload, result as JSON on the last line.

    python3 perfbench/run.py --workload flow|gates|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout: extkit is imported from ./src, never
from an installed copy.  With ``--trace 0`` the result holds the
end-to-end metrics (wall_s, setup_s, peak_rss_mib); with ``--trace 1``
the per-layer metrics.  Outputs are checked against the oracles after
the timed passes.  ``correct`` is false when any check fails, or when
an operation fails, since its output then goes unchecked; the problems
go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from benchlib import checks, cli_workload
from benchlib.common import (BENCH_DIR, SPAWN_REFERENCE_S, WORKLOADS, another_pass,
                             at_reference_speed, child_env, clock, median, run_child,
                             spawn_reference_time)
from benchlib.tracer import LAYER_METRICS, layer_values, merge

SETUP_PROBES = 5
WORKER = os.path.join(BENCH_DIR, "worker.py")
RUNS_DIR = ".perfbench_runs"
EXTRA_UNITS = {"cli.import_s": "s", "cli.output_bytes": "bytes", "trace.overhead_s": "s"}


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def layer_units() -> dict:
    return {**{m[0]: m[4] for m in LAYER_METRICS}, **EXTRA_UNITS}


def setup_s(workload: str, seed: int, env: dict, rundir: str) -> float:
    """Median time from a fresh interpreter to a workload ready to run.

    It is scaled to the reference host speed by the median of a spawned
    reference timed before each probe: one probe and one reference vary
    too much apart to scale each other.
    """
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(spawn_reference_time(env, rundir))
        res = run_child([sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
                         "--setup-only"], cwd=os.getcwd(), env=env, scratch=rundir)
        if res.code != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{res.stderr.decode()}")
        times.append(float(res.stdout.decode()) - res.started)
    return median(times) / median(refs) * SPAWN_REFERENCE_S


def run_numeric(args, env: dict, rundir: str) -> dict:
    out_path = os.path.join(rundir, "result.json")
    res = run_child([sys.executable, WORKER, "--workload", args.workload, "--seed",
                     str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--out", out_path], cwd=os.getcwd(), env=env, scratch=rundir)
    if res.code != 0:
        raise RuntimeError(f"worker failed:\n{res.stderr.decode()}")
    with open(out_path) as fh:
        result = json.load(fh)
    outputs = result["outputs"]
    errors = [o for o in outputs if "error" in o]
    check = checks.check_flow if args.workload == "flow" else checks.check_gates
    problems = check(outputs)
    if not result["repeatable"]:
        problems.append("outputs differ between passes of the same inputs")
    passes = len(result["walls"]) + len(result.get("traced_walls", []))
    out = {"problems": problems, "errors": [f"{o['op']}: {o['error']}" for o in errors],
           "attempted": passes * result["ops_per_pass"], "failed": passes * len(errors)}
    if args.trace:
        values = dict(result["layers"])
        values["cli.import_s"] = result["import_s"]
        values["cli.output_bytes"] = 0
        values["trace.overhead_s"] = median(result["traced_walls"]) - median(result["walls"])
        out["metrics"] = metric_block(values, layer_units())
    else:
        values = {"wall_s": median(result["walls"]),
                  "setup_s": setup_s(args.workload, args.seed, env, rundir),
                  "peak_rss_mib": res.maxrss_mib}
        out["metrics"] = metric_block(values, {"wall_s": "s", "setup_s": "s",
                                               "peak_rss_mib": "MiB"})
    return out


def run_cli(args, env: dict, rundir: str) -> dict:
    invs = cli_workload.invocations(args.seed, rundir)
    plain, traced = [], []
    start = now = clock()
    last = 0.0
    while another_pass(now - start, len(plain) + len(traced), last, args.seconds,
                       cli_workload.MIN_PASSES):
        plain.append(cli_workload.run_pass(invs, rundir, env, traced=False))
        if args.trace:
            traced.append(cli_workload.run_pass(invs, rundir, env, traced=True))
        last = clock() - now
        now += last
    passes = plain + traced
    failed = sum(rec["code"] != 0 for p in passes for rec in p)
    errors = [f"{rec['name']} exited {rec['code']}: {rec['stderr'].decode()[-300:]}"
              for rec in passes[0] if rec["code"] != 0]
    out = {"problems": checks.check_cli(invs, passes), "errors": errors,
           "attempted": len(passes) * len(invs), "failed": failed}

    def wall(p):
        return at_reference_speed([rec["wall_s"] for rec in p], [rec["ref_s"] for rec in p],
                                  SPAWN_REFERENCE_S)

    if args.trace:
        layers = [layer_values(merge([rec["spans"]["snapshot"] for rec in p])) for p in traced]
        values = {name: median(run[name] for run in layers) for name in layers[0]}
        values["cli.import_s"] = median(rec["spans"]["import_s"] for p in traced for rec in p)
        values["cli.output_bytes"] = cli_workload.output_bytes(plain[0])
        values["trace.overhead_s"] = median(map(wall, traced)) - median(map(wall, plain))
        out["metrics"] = metric_block(values, layer_units())
    else:
        values = {"wall_s": median(map(wall, plain)),
                  "setup_s": setup_s("cli", args.seed, env, rundir),
                  "peak_rss_mib": median(max(rec["maxrss_mib"] for rec in p) for p in plain)}
        out["metrics"] = metric_block(values, {"wall_s": "s", "setup_s": "s",
                                               "peak_rss_mib": "MiB"})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "extkit", "cli.py")):
        sys.stderr.write("run.py: no extkit sources under ./src; "
                         "run it from the root of an extkit checkout\n")
        return 2
    env = child_env(src)
    os.makedirs(RUNS_DIR, exist_ok=True)
    rundir = tempfile.mkdtemp(dir=RUNS_DIR)
    try:
        if args.workload == "cli":
            out = run_cli(args, env, os.path.abspath(rundir))
        else:
            out = run_numeric(args, env, os.path.abspath(rundir))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass
    for error in out["errors"]:
        sys.stderr.write(f"operation failed: {error}\n")
    for problem in out["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({"correct": not out["problems"] and not out["failed"],
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
