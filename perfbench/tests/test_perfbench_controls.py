"""Negative controls: each output check of the benchmark fails on a wrong input.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests`` from the
root of the repository.
"""
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import extkit as ek  # noqa: E402
from benchlib import cases, checks, oracles, workloads  # noqa: E402
from benchlib.tracer import Tracer  # noqa: E402

README_STATE = cases.CLI_EXTEND_STATE


@pytest.mark.parametrize("key", cases.PDE_ENTRIES)
def test_pde_check_fails_on_scaled_c0(key):
    built = ek.instantiate(key)
    c, c0 = built.seed.meta["pair"]
    spec = ek.SampleSpec(intervals=ek.get_entry(key).default_box, count=40, seed=3,
                         margin=cases.PDE_MARGIN)
    assert checks.check_pde(workloads.pde_op(key, built, c, c0, spec)) == []
    wrong = workloads.pde_op(key, built, c, c0 * 1.1 if c0 else 0.1, spec)
    assert wrong["max_residual"] >= 0.04
    assert checks.check_pde(wrong)


@pytest.mark.parametrize("label", ["quartic1_m1n1", "quartic1_m3n2", "vortex_opposite"])
def test_bracket_check_fails_on_k_of_the_next_index(label):
    _, key, consts, (m, n) = next(c for c in cases.BRACKET_CASES if c[0] == label)
    good = workloads.bracket_op(label, *workloads.bracket_inputs(key, consts, (m, n), 5))
    assert checks.check_bracket(good) == []
    wrong = workloads.bracket_op(
        label, *workloads.bracket_inputs(key, consts, (m, n), 5, k_mn=(m + 1, n)))
    assert wrong["max_normalized"] >= 0.05
    assert checks.check_bracket(wrong)


def test_euler_check_fails_on_the_wrong_sign():
    system, field, spec = workloads.euler_inputs(11)
    good = workloads.euler_op(system, field, 1, spec)
    assert checks.check_euler(good) == []
    wrong = workloads.euler_op(system, field, -1, spec)
    assert wrong["max_rel"] > 0.9
    assert checks.check_euler(wrong)


def test_ellipf_oracle_rejects_a_scaled_seed():
    system, field, spec = workloads.euler_inputs(11)
    out = workloads.euler_op(system, field, 1, spec)
    out["values"] = [v * (1 + 1e-8) for v in out["values"]]
    assert any("mpmath" in p for p in checks.check_euler(out))


def test_power_check_fails_on_the_wrong_first_index():
    out = workloads.power_op([[0.25, -1.5, 0.75], [1.125, 0.5, -2.0]])
    assert checks.check_power(out) == []
    for row in out["rows"]:
        m, n, r, p_u, gam, lam = row[:6]
        if r:
            row[6:] = ek.power_coeffs(m + 1, n, r, p_u, gam, lam)
    assert checks.check_power(out)


def test_hand_oracle_matches_extkit_at_the_readme_state():
    built = ek.instantiate("quartic1")
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**cases.CLI_EXTEND))
    state = ek.ExtendedState(README_STATE[0], README_STATE[1], np.array(README_STATE[2:]))
    model = oracles.Quartic1(**cases.CLI_EXTEND)
    report = {"metrics": {"H": ext.hamiltonian(state), "K": ext.integral(state)}}
    assert checks.check_extend(report, README_STATE) == []
    assert abs(model.hamiltonian(README_STATE) - report["metrics"]["H"]) <= 1e-15
    assert abs(model.integral(README_STATE) - report["metrics"]["K"]) <= 1e-14


def test_hand_oracle_rejects_a_perturbed_hamiltonian():
    consts = dict(cases.CLI_EXTEND, c0=1.0 + 1e-9)
    model = oracles.Quartic1(**consts)
    exact = oracles.Quartic1(**cases.CLI_EXTEND)
    report = {"metrics": {"H": exact.hamiltonian(README_STATE),
                          "K": exact.integral(README_STATE)}}
    assert checks.check_extend(report, README_STATE, model=model)


def test_hand_rk4_rejects_a_perturbed_flow():
    label, key, consts, (m, n), centre = cases.FLOW_CASES[0]
    assert label == cases.FLOW_HAND_CASE
    built = ek.instantiate(key)
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(m=m, n=n, **consts))
    make_rhs = ext.flow
    out = workloads.trajectory_op(label, make_rhs, np.array(centre), {}, "rk4",
                                  cases.FLOW_DT, cases.FLOW_STRIDE)
    assert checks.check_hand_flow(out) == []
    # c0 only shifts H by a constant here, so the profile constant C is perturbed.
    perturbed = oracles.Quartic1(m=m, n=n, **dict(consts, C=consts["C"] * (1 + 1e-6)))
    assert checks.check_hand_flow(out, model=perturbed)


def test_flow_checks_reject_drift_truncation_and_wrong_order():
    out = {"op": "euler_top", "truncated": False, "reason": "", "drifts": {"L": 0.0, "M": 0.0}}
    assert checks.check_flow([out]) == []
    assert checks.check_flow([dict(out, drifts={"L": 2e-6, "M": 0.0})])
    assert checks.check_flow([dict(out, drifts={"L": 0.0})])
    assert checks.check_flow([dict(out, truncated=True, reason="pole")])
    assert checks.check_halving(16e-9, 1e-9) == []
    assert checks.check_halving(4e-9, 1e-9)


def test_cli_check_fails_on_a_corrupted_csv_header():
    body = b"\n0,1,2,3,4,5,6,7,8,9,10\n"
    assert checks.check_csv_header(cases.CLI_CSV_HEADER.encode() + body) == []
    assert checks.check_csv_header(b"t,u,p_u,X1t,X2t,Y1t,Y2t,H,L,K_re,K_im" + body)
    assert checks.check_csv_header(b"t,u,p_u,X1t,Y1t,X2t,Y2t,H,L,K" + body)


def test_cli_check_fails_on_differing_reruns_and_failed_gates():
    invs = [{"name": "gn-compare", "report": "-"}]
    ok = b'{"gates": [{"name": "g", "pass": true}]}'
    bad = b'{"gates": [{"name": "g", "pass": false}]}'

    def rec(stdout, code=0):
        return {"code": code, "stdout": stdout, "files": {}}

    assert checks.check_cli(invs, [[rec(ok)], [rec(ok)]]) == []
    assert checks.check_cli(invs, [[rec(ok)], [rec(ok + b" ")]])
    # A failing gate makes extkit exit with code 1; its report is still checked.
    gate_failed = rec(bad, checks.EXIT_GATE)
    assert checks.check_cli(invs, [[gate_failed], [gate_failed]]) == [
        "gn-compare: gates failed: ['g']"]
    # A crash also exits 1 and leaves no report: a failed operation, not a check.
    assert checks.check_cli(invs, [[rec(b"", 1)], [rec(b"", 1)]]) == []


def test_cli_check_reads_the_report_of_a_real_gate_failure(capsys):
    # This sample set meets the level-set fault of pde_residual (CHANGES.md),
    # so extkit's own gate fails and the command exits 1.
    from extkit import cli

    args = ["check-pde", "--system", "quartic1", "--samples", "100", "--seed", "2005244980"]
    code = cli.main(args)
    stdout = capsys.readouterr().out.encode()
    assert code == checks.EXIT_GATE
    invs = [{"name": "check-pde", "report": "-"}]
    record = {"code": code, "stdout": stdout, "files": {}}
    assert checks.check_cli(invs, [[record], [record]])


def test_tracer_counts_spans_and_restores_the_originals():
    from extkit import jets, verify

    originals = (jets.ScalarField.jet2, verify.apply_xl2, ek.sample_points)
    built = ek.instantiate("quartic1")
    spec = ek.SampleSpec(intervals=ek.get_entry("quartic1").default_box, count=20, seed=2)
    plain = workloads.pde_op("quartic1", built, 1.0, 1.0, spec)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.pde_op("quartic1", built, 1.0, 1.0, spec)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["poisson.apply_xl2"] == 20
    assert tracer.calls["jets.jet2"] == 40
    assert tracer.counts["verify.points_evaluated"] == 20
    assert tracer.self_ns["poisson.apply_xl2"] > 0
    assert (jets.ScalarField.jet2, verify.apply_xl2, ek.sample_points) == originals
