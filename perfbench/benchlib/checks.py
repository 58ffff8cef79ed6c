"""Output checks of the three workloads, run outside the timed region.

Each check takes a workload's outputs and returns a list of problems,
empty when the outputs are right.  The checks rest on properties the
method must have (small residuals, conserved observables, fourth-order
convergence, repeatable reports) or on the oracles in ``oracles.py``;
none compares with stored output.  Outputs that carry an ``error`` are
failed operations: they are counted apart, and run.py reports a run with
a failed operation as not correct, since its output went unchecked.
"""
from __future__ import annotations

import json
from fractions import Fraction

from . import cases, oracles


def _ok(outputs):
    return {o["op"]: o for o in outputs if "error" not in o}


def _rel(got, want):
    return abs(got - want) / abs(want) if want != 0 else abs(got)


# ------------------------------------------------------------------ flow


def _flow_case(label):
    base = label.removesuffix("_half").removesuffix("_rkf45")
    return next(case for case in cases.FLOW_CASES if case[0] == base)


def check_flow(outputs) -> list[str]:
    problems = []
    ok = _ok(outputs)
    for label, out in ok.items():
        if out["truncated"]:
            problems.append(f"{label}: trajectory truncated: {out['reason']}")
        expected = set(cases.FLOW_OBSERVABLES[_flow_case(label)[0]])
        if set(out["drifts"]) != expected:
            problems.append(f"{label}: observables {sorted(out['drifts'])}, "
                            f"expected {sorted(expected)}")
        for name, drift in out["drifts"].items():
            if not drift <= cases.TOL_DRIFT:
                problems.append(f"{label}: drift of {name} {drift:.3e} > {cases.TOL_DRIFT:g}")
    full = ok.get(cases.FLOW_HALVING_CASE)
    half = ok.get(cases.FLOW_HALVING_CASE + "_half")
    if full and half:
        problems += check_halving(full["drifts"]["H"], half["drifts"]["H"])
    hand = ok.get(cases.FLOW_HAND_CASE)
    if hand:
        problems += check_hand_flow(hand)
    return problems


def check_halving(drift_dt, drift_half) -> list[str]:
    """rk4 is fourth order: halving dt divides the H drift by about 16."""
    lo, hi = cases.HALVING_RATIO
    ratio = drift_dt / drift_half if drift_half > 0 else float("inf")
    if lo <= ratio <= hi:
        return []
    return [f"halving dt shrinks the H drift by {ratio:.3g}, outside [{lo:g}, {hi:g}]"]


def check_hand_flow(out, model=None) -> list[str]:
    """extkit's final state against the hand-written rk4 of quartic1."""
    _, _, consts, (m, n), _ = _flow_case(out["op"])
    model = model or oracles.Quartic1(m=m, n=n, **consts)
    want = model.rk4(out["y0"], cases.FLOW_T, out["dt"])
    scale = max(1.0, max(abs(v) for v in want))
    err = max(abs(a - b) for a, b in zip(out["final"], want)) / scale
    if err <= cases.TOL_FINAL_STATE:
        return []
    return [f"{out['op']}: final state differs from the hand rk4 by {err:.3e} "
            f"> {cases.TOL_FINAL_STATE:g}"]


# ----------------------------------------------------------------- gates


def check_gates(outputs) -> list[str]:
    problems = []
    for name, out in _ok(outputs).items():
        if name.startswith("pde_"):
            problems += check_pde(out)
        elif name.startswith("bracket_"):
            problems += check_bracket(out)
        elif name == "recursion_sweep":
            if not out["max_rel"] <= cases.TOL_RECURSION:
                problems.append(f"recursion vs closed form {out['max_rel']:.3e} "
                                f"> {cases.TOL_RECURSION:g}")
        elif name == "power_coeffs":
            problems += check_power(out)
        elif name == "euler_local_seed":
            problems += check_euler(out)
        else:
            problems.append(f"unknown gates operation {name}")
    return problems


def check_pde(out) -> list[str]:
    if out["kept"] and out["max_residual"] <= cases.TOL_PDE:
        return []
    return [f"pde_residual on {out['entry']}: {out['max_residual']:.3e} over "
            f"{out['kept']} points > {cases.TOL_PDE:g}"]


def check_bracket(out) -> list[str]:
    if out["kept"] and out["max_normalized"] <= cases.TOL_BRACKET:
        return []
    return [f"bracket {out['label']}: {out['max_normalized']:.3e} over {out['kept']} "
            f"states > {cases.TOL_BRACKET:g}"]


def check_power(out) -> list[str]:
    """power_coeffs against exact rationals at the very floats it was given."""
    worst = 0.0
    for m, n, r, p_u, gam, lam, big_p, big_d in out["rows"]:
        exact = oracles.shift_power_exact(m, n, r, Fraction(p_u), Fraction(gam), Fraction(lam))
        for got, want in zip((big_p, big_d), exact):
            worst = max(worst, abs(got - float(want)) / max(abs(float(want)), 1.0))
    if out["rows"] and worst <= cases.TOL_COFACTOR:
        return []
    return [f"power_coeffs vs the rational model: {worst:.3e} > {cases.TOL_COFACTOR:g}"]


def check_euler(out) -> list[str]:
    problems = []
    total = out["kept"] + out["skipped"]
    if not out["max_rel"] <= cases.TOL_LOCAL_SEED:
        problems.append(f"euler_top first-order residual {out['max_rel']:.3e} "
                        f"> {cases.TOL_LOCAL_SEED:g}")
    if out["kept"] < cases.MIN_KEPT_SHARE * total:
        problems.append(f"euler_top kept {out['kept']} of {total} points")
    worst = 0.0
    for point, value in zip(out["points"], out["values"]):
        want = oracles.euler_seed_mp(point, cases.EULER_MOMENTS, *cases.EULER_PAIR)
        if want is None:
            problems.append(f"euler_top seed evaluated off its region at {point}")
            continue
        worst = max(worst, _rel(value, want))
    if worst > cases.TOL_ELLIPF:
        problems.append(f"euler_top seed vs mpmath.ellipf: {worst:.3e} > {cases.TOL_ELLIPF:g}")
    return problems


# ------------------------------------------------------------------- cli

# extkit's exit code when a command ran to its end but one of its gates failed.
EXIT_GATE = 1


def check_cli(invs, passes) -> list[str]:
    """Gates, repeatability, the CSV header and the hand H and K.

    ``passes`` holds one list of records per pass.  A command that exits
    with EXIT_GATE still wrote its report, and each failing gate in it is
    a problem; the other checks need a command that exited 0.
    """
    problems = []
    first = passes[0]
    for inv, rec in zip(invs, first):
        if rec["code"] not in (0, EXIT_GATE):
            continue
        try:
            report = _report_of(inv, rec)
        except ValueError:  # a crash also exits 1, and leaves no report
            continue
        if report is not None:
            failing = [g["name"] for g in report.get("gates", []) if not g["pass"]]
            if failing:
                problems.append(f"{inv['name']}: gates failed: {failing}")
        if rec["code"] != 0:
            continue
        if inv["name"] == "extend":
            problems += check_extend(report, inv["state"])
        if inv["name"] == "integrate":
            csv = rec["files"].get("trajectory.csv", b"")
            problems += check_csv_header(csv)
    for later in passes[1:]:
        for inv, a, b in zip(invs, first, later):
            same = (a["stdout"], a["files"]) == (b["stdout"], b["files"])
            if a["code"] == 0 and b["code"] == 0 and not same:
                problems.append(f"{inv['name']}: two runs gave different output")
    return problems


def _report_of(inv, rec):
    where = inv.get("report")
    if where is None:
        return None
    raw = rec["stdout"] if where == "-" else rec["files"].get(where, b"")
    return json.loads(raw)


def check_csv_header(csv: bytes) -> list[str]:
    header = csv.split(b"\n", 1)[0].decode()
    if header == cases.CLI_CSV_HEADER:
        return []
    return [f"integrate CSV header {header!r}, expected {cases.CLI_CSV_HEADER!r}"]


def check_extend(report, state, model=None) -> list[str]:
    """H and K reported by `extend` against the hand-written quartic1."""
    ext = cases.CLI_EXTEND
    model = model or oracles.Quartic1(**ext)
    metrics = report["metrics"]
    problems = []
    for name, want in (("H", model.hamiltonian(state)), ("K", model.integral(state))):
        err = _rel(metrics[name], want)
        if not err <= cases.TOL_HAND_HK:
            problems.append(f"extend {name} = {metrics[name]!r} but the hand oracle gives "
                            f"{want!r} (relative {err:.3e})")
    return problems
