"""Golden reports: the README command lines and the benchmark's cli lines.

Each expected file under ``tests/golden/`` is the stdout (or report and
CSV) of one command line, compared byte for byte.  A change that alters
one of them says why in CHANGES.md and saves the new output of the same
command line in its place.
"""
import json
import pathlib

import pytest

from extkit import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
Q1_EXT = ["--c", "1", "--c0", "1", "--C", "1", "--m", "1", "--n", "1"]

STDOUT_CASES = {
    "list.txt": ["list"],
    "show_quartic1.txt": ["show", "--system", "quartic1"],
    "check_pde_quartic1.json": ["check-pde", "--system", "quartic1", "--samples", "100",
                                "--seed", "1234"],
    "gn_compare.json": ["gn-compare", "--n-max", "8", "--samples", "200", "--seed", "7"],
    "extend_quartic1.json": ["extend", "--system", "quartic1", *Q1_EXT,
                             "--state", "0.6,0.4,0.9,-0.7"],
    "check_pde_quartic1_poly_f.json": [
        "check-pde", "--system", "quartic1",
        "--param", 'f={"kind": "poly", "coeffs": [0.3, -0.2, 0.1]}'],
    # the benchmark's cli lines
    "check_kn_default.json": ["check-kn"],
    "bracket_quartic1.json": ["bracket", "--system", "quartic1", "--c", "1.0", "--c0", "1.0",
                              "--C", "1.0", "--m", "1", "--n", "1"],
    "rank_vortex_opposite.json": ["rank", "--system", "vortex_opposite", "--c", "0",
                                  "--c0", "0.5", "--C", "1", "--m", "1", "--n", "1",
                                  "--fields", "H,X1t,Y2t,K_re"],
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
