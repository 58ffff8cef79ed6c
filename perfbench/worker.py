"""Worker process of the `flow` and `gates` workloads, started by run.py.

    python3 perfbench/worker.py --workload flow --seed 1 --setup-only
    python3 perfbench/worker.py --workload flow --seed 1 --seconds 20 --trace 0 --out r.json

With ``--setup-only`` it imports extkit, sets the workload up and prints
the monotonic clock, so the parent can time set-up from process start;
for `cli` set-up is the import of ``extkit.cli`` alone.
Otherwise it runs whole passes of the workload until ``--seconds`` have
passed, and at least MIN_PASSES while they fit in 2 x ``--seconds``
(``benchlib.common.another_pass``).  It writes the pass times (at the
reference host speed, see ``benchlib.common.REFERENCE_S``) and the
outputs of the first pass.
With ``--trace 1`` it alternates untraced passes with traced ones and
writes the per-layer totals of a traced pass (median over traced passes).
"""
import argparse
import json
import statistics
import sys
import time

MIN_PASSES = 3


def clock() -> float:
    # Not benchlib.common.clock: nothing from benchlib is imported before
    # the timed import of extkit.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("flow", "gates", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    if args.workload == "cli":
        import extkit.cli  # noqa: F401
        return _ready()

    t0 = clock()
    import extkit  # noqa: F401  (timed: the package import is part of set-up)
    import_s = clock() - t0
    from benchlib import workloads

    setup = workloads.SETUPS[args.workload]
    ops = setup(args.seed)
    if args.setup_only:
        return _ready()

    if args.trace:
        result = traced_run(setup, ops, args)
    else:
        result = plain_run(ops, args)
    result["import_s"] = import_s
    result["ops_per_pass"] = len(ops)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _ready() -> int:
    """Print the clock at the end of set-up."""
    print(repr(clock()), flush=True)
    return 0


def _timed_pass(ops):
    """Outputs of one pass, and its time at the reference host speed."""
    from benchlib.common import at_reference_speed, reference_time
    from benchlib.workloads import run_op  # imported after extkit, whose import is timed

    outputs, times, refs = [], [], []
    for name, op in ops:
        refs.append(reference_time())
        t = clock()
        outputs.append(run_op(name, op))
        times.append(clock() - t)
    return at_reference_speed(times, refs), outputs


def plain_run(ops, args) -> dict:
    from benchlib.common import another_pass

    walls = []
    first = None
    repeatable = True
    start = now = clock()
    last = 0.0
    while another_pass(now - start, len(walls), last, args.seconds, MIN_PASSES):
        wall, outputs = _timed_pass(ops)
        walls.append(wall)
        last = clock() - now
        now += last
        if first is None:
            first = outputs
        repeatable = repeatable and outputs == first
    return {"walls": walls, "outputs": first, "repeatable": repeatable}


def traced_run(setup, ops, args) -> dict:
    """Alternate untraced and traced passes over two separate set-ups.

    The traced set-up is made with the tracer installed, so that closures
    built at set-up (flows, local seeds) carry their spans; the tracer is
    uninstalled again around every untraced pass.
    """
    from benchlib.tracer import Tracer, count_values, layer_values

    tracer = Tracer()
    tracer.install()
    traced_ops = setup(args.seed)
    setup_snap = tracer.snapshot()
    tracer.uninstall()

    walls, traced_walls, layers = [], [], []
    first = None
    repeatable = True
    counts = None
    start = clock()
    while clock() - start < args.seconds or len(walls) < 1:
        wall, outputs = _timed_pass(ops)
        walls.append(wall)
        tracer.reset()
        tracer.install()
        try:
            traced_wall, traced_outputs = _timed_pass(traced_ops)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        traced_walls.append(traced_wall)
        layers.append(layer_values(snap))
        if first is None:
            first, counts = outputs, count_values(snap)
        repeatable = repeatable and outputs == first and traced_outputs == first
        if count_values(snap) != counts:
            raise RuntimeError("per-layer counts differ between two traced passes")
    layer = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    # Entries are instantiated at set-up, once, not in the passes.
    key = "catalog.instantiate.self_ms"
    layer[key] += layer_values(setup_snap)[key]
    return {"walls": walls, "traced_walls": traced_walls, "layers": layer,
            "outputs": first, "repeatable": repeatable, "passes_traced": len(traced_walls)}


if __name__ == "__main__":
    sys.exit(main())
