"""Run one extkit command line under the tracer (the traced `cli` pass).

    python3 perfbench/clirun.py SPANS.json ARGS...

behaves like ``python3 -m extkit.cli ARGS...`` and also writes the time
taken by ``import extkit.cli`` and the tracer's totals to SPANS.json.
"""
import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    from extkit import cli
    import_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    from benchlib.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.timed("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "snapshot": tracer.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main())
