"""Acceptance gates for the whole package, one criterion per test.

Every test prints one PASS/FAIL line.  Tolerances are pinned here and
nowhere else; sampling seeds are fixed so reruns are bit-reproducible.
"""
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import extkit as ek
from extkit.poisson import apply_xl, apply_xl2, base_flow, jacobi_residual

import oracles

# pinned tolerances
TOL_PROFILE = 1e-12
TOL_RECURSION = 1e-10
TOL_COFACTOR = 1e-9
TOL_PDE = 1e-7
TOL_PDE_CONTROL = 1e-2
TOL_BRACKET = 1e-5
TOL_DRIFT = 1e-6
TOL_EXPONENT_DRIFT = 1e-8
TOL_INTEGER_FLAG = 1e-9
TOL_K_ON_LEVEL = 1e-6
TOL_LOCAL_SEED = 1e-5
TOL_LOCAL_SEED_JET = 1e-12
TOL_LOCAL_SEED_CONTROL = 1e-2
TOL_INVARIANT = 1e-12
TOL_LV_DRIFT = 1e-8
TOL_JACOBI = 1e-9

GRID_POINTS = 1000
PDE_POINTS = 100
BRACKET_STATES = 50
RANK_STATES = 20

PROFILE_REGIMES = [
    # (c, C, window start, window end)
    (1.0, 1.0, 0.06, math.pi - 0.06),
    (0.5, 2.0, 0.06, math.pi / 2 - 0.06),
    (1.0, -1.0, 0.06, 4.0),
    (-1.0, 0.5, 0.06, 4.0),
    (2.0, 0.0, 0.06, 4.0),
    (0.0, 2.0, -4.0, 4.0),
]

PDE_ENTRIES = ["quartic1", "quartic2a", "square_polar",
               "vortex_equal", "vortex_opposite"]

# (label, entry key, extension constants, trajectory start)
FLOW_CONFIGS = [
    ("quartic1 round profile", "quartic1",
     dict(c=1.0, c0=1.0, C=1.0, omega=0.0),
     (0.2, 1.2), [0.6, 0.4, 0.9, -0.7]),
    ("quartic1 hyperbolic profile", "quartic1",
     dict(c=1.0, c0=1.0, C=-1.0, omega=0.0),
     (0.5, 1.2), [0.8, 0.4, 0.9, -0.7]),
    ("vortex_opposite linear profile", "vortex_opposite",
     dict(c=0.0, c0=0.5, C=1.0, omega=0.0),
     (0.3, 1.5), [0.7, 0.3, 0.8, -0.4, 0.5, 0.9]),
    ("quartic1 centrifugal", "quartic1",
     dict(c=1.0, c0=1.0, C=1.0, omega=0.3),
     (0.2, 1.2), [0.6, 0.4, 0.9, -0.7]),
    ("vortex_opposite centrifugal", "vortex_opposite",
     dict(c=0.0, c0=0.5, C=1.0, omega=0.2),
     (0.3, 1.5), [0.7, 0.3, 0.8, -0.4, 0.5, 0.9]),
]

INDEX_PAIRS = [(1, 1), (2, 1), (3, 2)]


def report(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def extension_for(key, consts, m, n):
    b = ek.instantiate(key)
    p = ek.ExtensionParams(c=consts["c"], c0=consts["c0"], C=consts["C"],
                           m=m, n=n, omega=consts["omega"])
    return b, ek.build_extension(b.system, b.seed, p)


def extended_states(b, key, count, seed, u_range):
    box = ek.get_entry(key).default_box
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = np.array([rng.uniform(a, bb) for a, bb in box])
        if b.singular is not None and b.singular(base, 0.15):
            continue
        out.append(np.concatenate([
            [rng.uniform(*u_range), rng.uniform(-1.0, 1.0)], base]))
    return out


def test_criterion_1_profile_equation_residual():
    worst = 0.0
    covered = set()
    for c, C, lo, hi in PROFILE_REGIMES:
        params = ek.RiccatiParams(c, C)
        if c == 0.0:
            covered.add("linear")
        elif C == 0.0:
            covered.add("flat")
        elif C / c > 0:
            covered.add("round")
        else:
            covered.add("hyperbolic")
        for u in np.linspace(lo, hi, GRID_POINTS):
            y, yp, _ = ek.riccati_eval(params, u)
            worst = max(worst, abs(yp + c * y * y + C))
    assert covered == {"round", "flat", "hyperbolic", "linear"}
    report(1, worst <= TOL_PROFILE,
           f"max profile residual {worst:.3e} over {len(PROFILE_REGIMES)} regimes, "
           f"tol {TOL_PROFILE:g}")


def test_criterion_2_chain_recursion_vs_closed_form():
    res = ek.recursion_closed_sweep(8, 200, 50, 7)
    report(2, res["max_rel"] <= TOL_RECURSION,
           f"max relative gap {res['max_rel']:.3e} for orders 1..8 on "
           f"200 real + 50 complex triples, tol {TOL_RECURSION:g}")


def test_criterion_3_cofactors_match_exact_operator_algebra():
    rng = np.random.default_rng(29)
    worst = 0.0
    for m, n in [(1, 1), (2, 1), (3, 2), (4, 3)]:
        pg, dg = oracles.split_pg(oracles.shift_operator_power(m, n))
        for _ in range(50):
            trip = [Fraction(int(v), 1000)
                    for v in rng.integers(-2000, 2001, 3)]
            pu, gam, lam = trip
            p_exact = oracles.eval_cofactor(pg, pu, gam, lam)
            d_exact = oracles.eval_cofactor(dg, pu, gam, lam)
            P, D = ek.power_coeffs(m, n, m, float(pu), float(gam), float(lam))
            for got, want in ((P, p_exact), (D, d_exact)):
                denom = max(abs(float(want)), 1.0)
                worst = max(worst, abs(got - float(want)) / denom)
    report(3, worst <= TOL_COFACTOR,
           f"max cofactor gap vs exact rational operator algebra {worst:.3e}, "
           f"tol {TOL_COFACTOR:g}")


def test_criterion_4_defining_identity_with_negative_control():
    details = []
    ok = True
    for key in PDE_ENTRIES:
        b = ek.instantiate(key)
        sd = b.seed
        c, c0 = sd.meta["pair"]
        spec = ek.SampleSpec(intervals=ek.get_entry(key).default_box,
                             count=PDE_POINTS, seed=31, margin=0.15)
        good = ek.pde_residual(b.system, sd.field, c, c0, spec,
                               singular=b.singular)
        bad_c0 = c0 * 1.1 if c0 != 0.0 else 0.1
        control = ek.pde_residual(b.system, sd.field, c, bad_c0, spec,
                                  singular=b.singular)
        ok = ok and good.max_residual <= TOL_PDE \
            and control.max_residual >= TOL_PDE_CONTROL
        details.append(f"{key} {good.max_residual:.1e}/{control.max_residual:.1e}")
    gated = ek.instantiate("quartic2b").seed.verified
    details.append(f"quartic2b build-gate={'pass' if gated else 'fail'} (reported only)")
    report(4, ok, "identity/control residuals " + "; ".join(details))


def test_criterion_5_involution_of_h_and_k():
    ok = True
    details = []
    for label, key, consts, u_range, _ in FLOW_CONFIGS:
        m, n = (2, 1) if consts["omega"] != 0.0 and key == "quartic1" else (1, 1)
        b, ext = extension_for(key, consts, m, n)
        states = extended_states(b, key, BRACKET_STATES, 42, u_range)
        struct = ext.structure()
        obs = ext.conserved_quantities()
        knames = [k for k in obs if k.startswith("K")]
        worst = 0.0
        for vec in states:
            for kname in knames:
                worst = max(worst, ek.fd_bracket_normalized(
                    struct, obs["H"], obs[kname], vec))
        ok = ok and worst <= TOL_BRACKET
        details.append(f"{label} {worst:.1e}")
    report(5, ok, f"normalized bracket over {BRACKET_STATES} states each: "
           + "; ".join(details) + f", tol {TOL_BRACKET:g}")


def test_criterion_6_conservation_along_extended_flow():
    ok = True
    worst_overall = 0.0
    runs = 0
    for label, key, consts, _, y0 in FLOW_CONFIGS:
        pairs = INDEX_PAIRS if consts["omega"] == 0.0 else [(2, 1), (1, 1)]
        for m, n in pairs:
            _, ext = extension_for(key, consts, m, n)
            traj = ek.integrate(ext.flow(), np.array(y0), 10.0,
                                method="rk4", dt=1e-3)
            rep = ek.conservation_report(traj, ext.conserved_quantities(),
                                         stride=10)
            worst = max(rep.drifts.values())
            ok = ok and not traj.truncated and worst <= TOL_DRIFT
            worst_overall = max(worst_overall, worst)
            runs += 1
    # halving the step must show fourth order on the energy drift
    _, ext = extension_for("quartic1",
                           dict(c=1.0, c0=1.0, C=1.0, omega=0.3), 2, 1)
    hdrift = []
    for dt in (1e-3, 5e-4):
        traj = ek.integrate(ext.flow(), np.array([0.6, 0.4, 0.9, -0.7]),
                            10.0, method="rk4", dt=dt)
        rep = ek.conservation_report(
            traj, {"H": ext.conserved_quantities()["H"]}, stride=10)
        hdrift.append(rep.drifts["H"])
    ratio = hdrift[0] / hdrift[1]
    ok = ok and 8.0 <= ratio <= 32.0
    report(6, ok, f"{runs} trajectories, worst drift {worst_overall:.2e} "
           f"(tol {TOL_DRIFT:g}), halving ratio {ratio:.1f} in [8, 32]")


def test_criterion_7_functional_independence():
    consts = dict(c=0.0, c0=0.5, C=1.0, omega=0.0)
    b, ext = extension_for("vortex_opposite", consts, 1, 1)
    obs = ext.conserved_quantities()
    fns = [obs["H"],
           lambda vec: float(vec[2]),      # conserved coordinate X1t
           lambda vec: float(vec[5]),      # conserved coordinate Y2t
           obs["K_re"]]
    states = extended_states(b, "vortex_opposite", RANK_STATES, 12, (0.3, 1.5))
    rank = ek.independence_rank(fns, states)
    report(7, rank == 4,
           f"rank of (H, X1t, Y2t, K) is {rank} at {RANK_STATES} states, need 4")


def test_criterion_8_single_valuedness_exponent():
    # alpha = 1/4 makes the exponent equal to the squared pair radius
    b = ek.instantiate("vortex_equal", {"alpha": 0.25})
    expo = b.meta["exponent"]
    flag = b.meta["single_valued"]

    base0 = np.array([1.0, 0.4, 2.0, -0.3])   # exponent exactly 8
    ok = flag(base0, TOL_INTEGER_FLAG)
    ok = ok and not flag(np.array([0.5, 0.1, 0.7, 0.2]), TOL_INTEGER_FLAG)

    traj = ek.integrate(base_flow(b.system), base0, 10.0, dt=1e-3)
    rep = ek.conservation_report(traj, {"E": lambda v: expo(v)}, stride=10)
    edrift = rep.drifts["E"]
    ok = ok and edrift <= TOL_EXPONENT_DRIFT

    c, c0 = b.seed.meta["pair"]
    p = ek.ExtensionParams(c=c, c0=c0, C=1.0, m=1, n=1)
    ext = ek.build_extension(b.system, b.seed, p)
    y0 = np.concatenate([[0.7, 0.3], base0])
    traj = ek.integrate(ext.flow(), y0, 10.0, dt=1e-3)
    crossings = int(np.sum(np.diff(np.sign(traj.states[:, 2])) != 0))
    rep = ek.conservation_report(traj, ext.conserved_quantities(), stride=10)
    kdrift = max(rep.drifts["K_re"], rep.drifts["K_im"])
    ok = ok and not traj.truncated and kdrift <= TOL_K_ON_LEVEL
    report(8, ok, f"exponent drift {edrift:.1e} (tol {TOL_EXPONENT_DRIFT:g}), "
           f"integer flag behaves at {TOL_INTEGER_FLAG:g}, K drift {kdrift:.1e} "
           f"on the integer level set ({crossings} branch crossings)")


def test_criterion_9_systems_without_global_seed():
    blv = ek.instantiate("lotka_volterra")
    bet = ek.instantiate("euler_top")
    ok = blv.seeds == [] and bet.seeds == []

    # elliptic-integral local seed checked through flow differentiation
    field = bet.meta["local_seed_builder"](0.0, -0.5, branch=1)
    spec = ek.SampleSpec(intervals=((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2)),
                         count=40, seed=9, margin=0.0)
    rep = ek.first_order_residual(bet.system, field, 0.0, -0.5, 1, spec,
                                  step=1e-6)
    ok = ok and len(rep.rel_residuals) >= 30 and rep.max_rel <= TOL_LOCAL_SEED

    rng = np.random.default_rng(2)
    winv = 0.0
    mfun = bet.system.observables["M"]
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 3)
        winv = max(winv, abs(apply_xl(bet.system, mfun, x)),
                   abs(apply_xl(bet.system, bet.system.hamiltonian, x)))
    ok = ok and winv <= TOL_INVARIANT

    traj = ek.integrate(base_flow(blv.system), np.array([1.2, 0.8]), 10.0,
                        dt=1e-3)
    ham = blv.system.hamiltonian
    lrep = ek.conservation_report(traj, {"L": lambda v: ham.value(v)},
                                  stride=10)
    ok = ok and lrep.drifts["L"] <= TOL_LV_DRIFT

    jrng = np.random.default_rng(4)
    wj = 0.0
    for _ in range(10):
        wj = max(wj, jacobi_residual(blv.system.structure,
                                     jrng.uniform(0.3, 3.0, 2)))
        wj = max(wj, jacobi_residual(bet.system.structure,
                                     jrng.uniform(-1.5, 1.5, 3)))
    ok = ok and wj <= TOL_JACOBI
    report(9, ok, f"no seeds served; local-seed residual {rep.max_rel:.1e} "
           f"(tol {TOL_LOCAL_SEED:g}); invariants {winv:.1e}; "
           f"prey-predator drift {lrep.drifts['L']:.1e}; jacobi {wj:.1e}")


def _local_seed_residuals(system, field, c, c0, sign, points):
    """Exact-jet residuals of X_L G = sign sqrt(-2 (c L + c0)) G and of
    X_L^2 G = -2 (c L + c0) G, with the shape modulus kappa, per point."""
    i1, i2, i3 = 3.0, 2.0, 1.0
    rows = []
    for x in points:
        try:
            g = field.value(x)
            xg = apply_xl(system, field, x)
            xxg = apply_xl2(system, field, x)
        except ek.EvaluationError:
            continue
        lam = c * system.hamiltonian.value(x) + c0
        first = sign * math.sqrt(-2.0 * lam) * g
        second = -2.0 * lam * g
        m1, m2, m3 = x
        x1 = i2 * (i1 - i3) * m1 * m1 + i1 * (i2 - i3) * m2 * m2
        x2 = i3 * (i2 - i1) * m1 * m1 + i1 * (i2 - i3) * m3 * m3
        rows.append((abs(xg - first) / (abs(xg) + abs(first) + 1e-12),
                     abs(xxg - second) / (abs(xxg) + abs(second) + 1e-12),
                     i3 * (i1 - i2) * x1 / (i2 * (i1 - i3) * x2)))
    return np.array(rows)


def test_criterion_9b_local_seed_exact_jets():
    # The seed runs on jets, so both flow identities are checked exactly,
    # next to the finite-difference gate of criterion 9.
    bet = ek.instantiate("euler_top")
    build = bet.meta["local_seed_builder"]
    spec = ek.SampleSpec(intervals=((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2)),
                         count=400, seed=9, margin=0.0)
    points = ek.sample_points(spec)
    res = _local_seed_residuals(bet.system, build(0.0, -0.5), 0.0, -0.5, 1, points)
    first = float(res[:, 0].max())
    ok = len(res) >= 350 and first <= TOL_LOCAL_SEED_JET

    # X_L^2 contracts the Hessian with the flow twice, and the derivatives
    # across the level sets blow up at the separatrix 2 I2 L = M.  Their
    # rounding, about 1e-14 relative against mpmath, cancels only partly:
    # over 10 x 400 points the residual grew roughly like 1e-16 kappa^2
    # (1.6e-12 at kappa = 77, 1.7e-10 at kappa = 1.1e3).  The tight gate is
    # taken where kappa <= 10, 98 percent of the box.
    near = res[:, 2] <= 10.0
    second = float(res[near, 1].max())
    ok = ok and near.sum() >= 350 and second <= TOL_LOCAL_SEED_JET

    # negative controls: a seed for another c0, and the other sign
    wrong_c0 = _local_seed_residuals(bet.system, build(0.0, -0.55), 0.0, -0.5, 1, points)
    wrong_sign = _local_seed_residuals(bet.system, build(0.0, -0.5), 0.0, -0.5, -1, points)
    c0_ctrl = float(wrong_c0[:, 0].max())
    sign_ctrl = float(wrong_sign[:, 0].min())
    ok = ok and c0_ctrl >= TOL_LOCAL_SEED_CONTROL and sign_ctrl >= 0.99
    report("9b", ok, f"local seed on jets over {len(res)} points: first order "
           f"{first:.1e}, second order {second:.1e} for kappa <= 10 "
           f"({float(res[:, 1].max()):.1e} at kappa <= {float(res[:, 2].max()):.0f}), "
           f"tol {TOL_LOCAL_SEED_JET:g}; controls: c0 x 1.1 reads {c0_ctrl:.1e}, "
           f"sign -1 reads {sign_ctrl:.3f}")


def test_criterion_10_reports_are_reproducible(tmp_path):
    cmds = [
        ["check-pde", "--system", "quartic2a", "--samples", "30", "--seed", "13"],
        ["gn-compare", "--n-max", "6", "--samples", "50", "--seed", "13"],
    ]
    ok = True
    for i, cmd in enumerate(cmds):
        outs = []
        for j in range(2):
            path = tmp_path / f"r{i}_{j}.json"
            code = subprocess.run(
                [sys.executable, "-m", "extkit.cli"] + cmd
                + ["--report", str(path)]).returncode
            ok = ok and code == 0
            outs.append(path.read_bytes())
        ok = ok and outs[0] == outs[1]
        json.loads(outs[0])  # well formed
    report(10, ok, "two commands rerun with fixed config and seed produce "
           "byte-identical reports")
