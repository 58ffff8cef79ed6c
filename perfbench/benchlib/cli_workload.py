"""The `cli` workload: the README command lines, each in a fresh interpreter.

Runs in the parent process, one child at a time.  The seed jitters the
`extend` state and the initial state of the `integrate` config; extkit
sees only those values.  The sampling commands keep the README's
``--seed`` values (or the CLI's default), because their gates fail on a
few sample sets for reasons the benchmark leaves out (see README.md).
"""
from __future__ import annotations

import copy
import json
import os
import random
import sys

from . import cases
from .common import BENCH_DIR, run_child, spawn_reference_time

MIN_PASSES = 2
CLIRUN = os.path.join(BENCH_DIR, "clirun.py")


def invocations(seed: int, rundir: str) -> list[dict]:
    """The command lines of one pass; writes the integrate config to ``rundir``."""
    rng = random.Random(seed)

    def jitter(v: float) -> float:
        return v + rng.uniform(-cases.FLOW_JITTER, cases.FLOW_JITTER)

    ext = cases.CLI_EXTEND
    q1 = ["--system", "quartic1"] + [tok for key in ("c", "c0", "C", "m", "n")
                                     for tok in (f"--{key}", repr(ext[key]))]
    state = [jitter(v) for v in cases.CLI_EXTEND_STATE]
    cfg = copy.deepcopy(cases.CLI_INTEGRATE_CONFIG)
    init = cfg["initial_state"]
    init["u"], init["p_u"] = jitter(init["u"]), jitter(init["p_u"])
    init["base"] = [jitter(v) for v in init["base"]]
    with open(os.path.join(rundir, "run.json"), "w") as fh:
        json.dump(cfg, fh)
    return [
        {"name": "list", "args": ["list"]},
        {"name": "show", "args": ["show", "--system", "quartic1"]},
        {"name": "check-pde", "report": "-",
         "args": ["check-pde", "--system", "quartic1", "--samples", "100", "--seed", "1234"]},
        {"name": "gn-compare", "report": "-",
         "args": ["gn-compare", "--n-max", "8", "--samples", "200", "--seed", "7"]},
        {"name": "extend", "report": "-", "state": state,
         "args": ["extend", *q1, "--state", ",".join(repr(v) for v in state)]},
        {"name": "check-kn", "report": "-", "args": ["check-kn"]},
        {"name": "bracket", "report": "-", "args": ["bracket", *q1]},
        {"name": "rank", "report": "-",
         "args": ["rank", "--system", "vortex_opposite", "--c", "0", "--c0", "0.5", "--C", "1",
                  "--m", "1", "--n", "1", "--fields", "H,X1t,Y2t,K_re"]},
        {"name": "integrate", "report": cfg["output"]["report"],
         "files": [cfg["output"]["csv"], cfg["output"]["report"]],
         "args": ["integrate", "--config", "run.json", "--t-final", repr(cases.CLI_T_FINAL)]},
    ]


def run_pass(invs: list[dict], rundir: str, env: dict, traced: bool) -> list[dict]:
    """Run every command line once, in order; one record per command.

    Untraced, each runs as ``python3 -m extkit.cli``; traced, through
    ``clirun.py``.  The spawned reference (a fresh interpreter importing
    scipy.integrate) is timed right before each, for scaling its time.
    """
    records = []
    spans_path = os.path.join(rundir, "spans.json")
    for inv in invs:
        for name in inv.get("files", []) + ["spans.json"]:
            if os.path.exists(os.path.join(rundir, name)):
                os.remove(os.path.join(rundir, name))
        if traced:
            cmd = [sys.executable, CLIRUN, spans_path, *inv["args"]]
        else:
            cmd = [sys.executable, "-m", "extkit.cli", *inv["args"]]
        ref = spawn_reference_time(env, rundir)
        res = run_child(cmd, cwd=rundir, env=env, scratch=rundir)
        files = {}
        for name in inv.get("files", []):
            path = os.path.join(rundir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        rec = {"name": inv["name"], "code": res.code, "wall_s": res.wall_s, "ref_s": ref,
               "maxrss_mib": res.maxrss_mib, "stdout": res.stdout, "stderr": res.stderr,
               "files": files}
        if traced:
            with open(spans_path) as fh:
                rec["spans"] = json.load(fh)
        records.append(rec)
    return records


def output_bytes(records: list[dict]) -> int:
    return sum(len(r["stdout"]) + sum(len(b) for b in r["files"].values()) for r in records)
