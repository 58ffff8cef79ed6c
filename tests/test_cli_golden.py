"""Golden reports: the README command lines and the benchmark's cli lines.

Each expected file under ``tests/golden/`` is the stdout (or report and
CSV) of one command line, compared byte for byte.  A change that alters
one of them says why in CHANGES.md and saves the new output of the same
command line in its place.  The same bytes must come out whichever kernel
OpenBLAS picks for the host's CPU.
"""
import contextlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from extkit import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
Q1_EXT = ["--c", "1", "--c0", "1", "--C", "1", "--m", "1", "--n", "1"]
VO_EXT = ["--c", "0", "--c0", "0.5", "--C", "1", "--m", "1", "--n", "1"]

STDOUT_CASES = {
    "list.txt": ["list"],
    "show_quartic1.txt": ["show", "--system", "quartic1"],
    "check_pde_quartic1.json": ["check-pde", "--system", "quartic1", "--samples", "100",
                                "--seed", "1234"],
    "gn_compare.json": ["gn-compare", "--n-max", "8", "--samples", "200", "--seed", "7"],
    "extend_quartic1.json": ["extend", "--system", "quartic1", *Q1_EXT,
                             "--state", "0.6,0.4,0.9,-0.7"],
    "check_pde_quartic2b.json": ["check-pde", "--system", "quartic2b", "--samples", "40",
                                 "--seed", "1234"],
    # the seeds whose jets run complex arithmetic, at a size that takes the cloud path
    **{f"check_pde_{key}.json": ["check-pde", "--system", key, "--samples", "100",
                                 "--seed", "1234"]
       for key in ("vortex_equal", "vortex_opposite")},
    "check_pde_quartic1_poly_f.json": [
        "check-pde", "--system", "quartic1",
        "--param", 'f={"kind": "poly", "coeffs": [0.3, -0.2, 0.1]}'],
    # the benchmark's cli lines
    "check_kn_default.json": ["check-kn"],
    "bracket_quartic1.json": ["bracket", "--system", "quartic1", "--c", "1.0", "--c0", "1.0",
                              "--C", "1.0", "--m", "1", "--n", "1"],
    # a complex K: H takes a bracket with each of K_re and K_im
    "bracket_vortex_opposite.json": ["bracket", "--system", "vortex_opposite", *VO_EXT],
    "bracket_vortex_opposite_omega.json": ["bracket", "--system", "vortex_opposite", *VO_EXT,
                                           "--omega", "0.2"],
    "rank_vortex_opposite.json": ["rank", "--system", "vortex_opposite", "--c", "0",
                                  "--c0", "0.5", "--C", "1", "--m", "1", "--n", "1",
                                  "--fields", "H,X1t,Y2t,K_re"],
    # the catalog as the CLI shows it, one file per entry
    "list.json": ["list", "--json"],
    **{f"show_{key}.json": ["show", "--system", key, "--json"]
       for key in ("quartic1", "quartic2a", "quartic2b", "square_polar", "vortex_equal",
                   "vortex_opposite", "lotka_volterra", "euler_top")},
}

README_INTEGRATE_CONFIG = {
    "system": "vortex_opposite",
    "extension": {"c": 0.0, "c0": 0.5, "C": 1.0, "m": 1, "n": 1},
    "initial_state": {"u": 0.7, "p_u": 0.3, "base": [0.8, -0.4, 0.5, 0.9]},
    "integration": {"method": "rk4", "dt": 0.001, "t_final": 10.0, "stride": 10},
    "output": {"csv": "trajectory.csv", "report": "report.json"},
}


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("EXTKIT_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_matches_golden(name, capsysbinary):
    code = cli.main(STDOUT_CASES[name])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()


def test_readme_integrate_matches_golden(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(README_INTEGRATE_CONFIG))
    code = cli.main(["integrate", "--config", "run.json", "--t-final", "1"])
    assert code == 0
    assert capsysbinary.readouterr().out == b""
    assert (tmp_path / "report.json").read_bytes() == \
        (GOLDEN / "integrate_vortex_opposite.json").read_bytes()
    assert (tmp_path / "trajectory.csv").read_bytes() == \
        (GOLDEN / "integrate_vortex_opposite.csv").read_bytes()


def test_quartic2b_pole_run_matches_golden(capsysbinary):
    # fixed-step rk4 crosses the pole of quartic2b.L and runs on until L
    # overflows, so the drifts it reports hang on the last bit of every step
    code = cli.main(["integrate", "--system", "quartic2b", *Q1_EXT,
                     "--state", "0.6,0.4,1.0,0.5", "--t-final", "5"])
    assert code == 1
    assert capsysbinary.readouterr().out == (GOLDEN / "integrate_quartic2b_pole.json").read_bytes()


# ------------------------------------------------------ every BLAS kernel


def _run(argv) -> tuple:
    """``cli.main(argv)`` in this process: its exit code and its stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue().encode()


def golden_mismatches() -> list:
    """The golden files that their command lines, run in this process, do not
    reproduce byte for byte (with their exit codes)."""
    bad = [name for name, argv in sorted(STDOUT_CASES.items())
           if _run(argv) != (0, (GOLDEN / name).read_bytes())]
    if _run(["integrate", "--system", "quartic2b", *Q1_EXT, "--state", "0.6,0.4,1.0,0.5",
             "--t-final", "5"]) != (1, (GOLDEN / "integrate_quartic2b_pole.json").read_bytes()):
        bad.append("integrate_quartic2b_pole.json")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pathlib.Path("run.json").write_text(json.dumps(README_INTEGRATE_CONFIG))
            ran = _run(["integrate", "--config", "run.json", "--t-final", "1"]) == (0, b"")
            made = {"integrate_vortex_opposite.json": "report.json",
                    "integrate_vortex_opposite.csv": "trajectory.csv"}
            bad += [golden for golden, path in made.items()
                    if not ran or pathlib.Path(path).read_bytes() != (GOLDEN / golden).read_bytes()]
        finally:
            os.chdir(here)
    return bad


# OpenBLAS kernels (OPENBLAS_CORETYPE), each with the CPU features it needs
# (numpy's names): SSE only, AVX2 with fused multiply-add, AVX-512
BLAS_KERNELS = {"Nehalem": (), "Haswell": ("AVX2", "FMA3"), "SkylakeX": ("AVX512_SKX",)}
CHILD = """
import json, sys
sys.path[:0] = {paths!r}
import test_cli_golden
print(json.dumps(test_cli_golden.golden_mismatches()))
"""


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # a numpy that reports no build configuration
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def test_every_golden_is_the_same_under_each_blas_kernel():
    # no printed number may hang on the BLAS kernel OpenBLAS picks for the
    # host: each kernel this CPU can run is forced in a child process of its
    # own, which runs every golden command line in-process
    if platform.machine().lower() not in ("x86_64", "amd64") or not _openblas():
        pytest.skip("numpy is not on OpenBLAS on an x86-64 host")
    features = _cpu_features()
    kernels = [k for k, needs in BLAS_KERNELS.items() if all(features.get(f) for f in needs)]
    paths = [str(pathlib.Path(cli.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    env = {k: v for k, v in os.environ.items() if k not in ("EXTKIT_SEED", "OPENBLAS_CORETYPE")}
    children = {k: subprocess.Popen([sys.executable, "-c", CHILD.format(paths=paths)],
                                    env={**env, "OPENBLAS_CORETYPE": k}, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for k in kernels}
    found = {}
    for kernel, child in children.items():
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, f"{kernel}: {err}"
        found[kernel] = json.loads(out.splitlines()[-1])
    assert found == dict.fromkeys(kernels, [])
