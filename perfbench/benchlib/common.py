"""Child processes, clocks and statistics shared by the benchmark commands."""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

WORKLOADS = ("flow", "gates", "cli")
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A child that outlives this is killed, as hung: the pass loops below end
# by 2 x --seconds plus set-up, well before.
CHILD_TIMEOUT_S = 150.0


def clock() -> float:
    """CLOCK_MONOTONIC, which parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def another_pass(elapsed: float, passes: int, last: float, seconds: float,
                 min_passes: int) -> bool:
    """Whether a pass loop starts another pass.

    It runs passes for ``seconds``, then on up to ``min_passes`` while the
    next pass, as long as the ``last`` one, would end within 2 x ``seconds``.
    So a slower program gets fewer passes, not a run that overruns.
    """
    if elapsed < seconds:
        return True
    return passes < min_passes and elapsed + last <= 2 * seconds


def median(values) -> float:
    return float(statistics.median(values))


# The host is shared: the same pass takes anywhere from 1x to 1.8x as long
# while other tenants load its physical cores, in spells that outlast a
# run.  So a reference is timed next to every timed operation, and times
# are reported at the host speed where the reference takes its nominal
# time: REFERENCE_S for the in-process loop below.
REFERENCE_S = 0.012


def reference_time() -> float:
    """Seconds this host takes, now, for the fixed reference loop.

    Half of the loop is plain interpreter arithmetic and half is small
    numpy arrays with Python floats, so that its slowdown under load
    tracks extkit's: over 4 minutes of alternating runs, the log of an
    operation's time followed the log of this loop's with slope 0.98
    (correlation 0.90), against 1.16 and 0.80 for either half alone.
    """
    import numpy as np

    t = clock()
    acc = 0
    for i in range(75_000):
        acc += i * i % 7
    g = np.zeros(3)
    total = 0.0
    for i in range(2000):
        a = g * 1.5 + float(i)
        total += a[0] - a[1] + a @ g
    return clock() - t


# The same for work that starts a fresh interpreter (command lines, set-up
# probes).  Its cost is mostly the import of numpy and scipy.integrate,
# which is what extkit imports from outside, so the reference is a fresh
# interpreter importing those and no extkit code.  Back-to-back fresh
# interpreters vary by +-15 % each, independently, so the references are
# pooled over a run; what they track is a host slow spell that lasts
# minutes and moves imports by up to 25 %, which a reference importing
# numpy alone missed.
SPAWN_REFERENCE_S = 0.75


def spawn_reference_time(env: dict, scratch: str) -> float:
    """Seconds this host takes, now, to start Python and import scipy.integrate."""
    return run_child([sys.executable, "-c", "import scipy.integrate"], cwd=scratch, env=env,
                     scratch=scratch).wall_s


def at_reference_speed(times, refs, nominal=REFERENCE_S) -> float:
    """The sum of ``times`` at the speed where each reference takes ``nominal``.

    ``refs`` holds one reference time per entry of ``times``, timed next to
    it.  They are pooled (sum over sum), since a single 12 ms loop is noisy.
    """
    return sum(times) / sum(refs) * len(refs) * nominal


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_mib: float
    stdout: bytes
    stderr: bytes
    started: float


def run_child(cmd: list[str], cwd: str, env: dict, scratch: str) -> ChildResult:
    """Run ``cmd`` to its end; time it and read its peak resident memory.

    Output goes through files in ``scratch`` rather than pipes, so the
    child can never block on a full pipe while we wait for it.
    """
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = clock()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = clock() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux.
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr, started)


def child_env(src: str) -> dict:
    """The environment of every child: extkit comes from the checkout's src.

    EXTKIT_SEED is dropped, since it would override the CLI's sampling seeds.
    """
    env = dict(os.environ)
    env.pop("EXTKIT_SEED", None)
    env["PYTHONPATH"] = src
    return env


def run_benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of run.py from the current directory; its parsed result line."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
