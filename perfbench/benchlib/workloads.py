"""The `flow` and `gates` workloads, run inside the worker process.

``setup(seed)`` draws every input from the seed, instantiates the
catalog entries and builds the extensions.  It returns a list of
(name, operation) pairs; ``run_op`` runs one and returns its JSON-ready
output, or the error that stopped it.

extkit is reached through module attributes looked up at call time
(``ek.instantiate``, ``verify.integrate``, ``field.value(x)``), so that
the tracer's rebinding applies to set-ups made after it is installed.
"""
from __future__ import annotations

from functools import partial

import numpy as np

import extkit as ek
from extkit import verify

from . import cases, oracles


def _sub_seeds(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(2**31))


# ------------------------------------------------------------------ flow


def trajectory_op(label, make_rhs, y0, observables, method, dt, stride):
    """One integration and its conservation report."""
    traj = verify.integrate(make_rhs(), y0, cases.FLOW_T, method=method, dt=dt)
    rep = verify.conservation_report(traj, observables, stride=stride)
    return {
        "op": label, "method": method, "dt": dt,
        "y0": [float(v) for v in y0],
        "final": [float(v) for v in traj.states[-1]],
        "truncated": bool(traj.truncated), "reason": traj.reason,
        "drifts": {k: float(v) for k, v in rep.drifts.items()},
        "stats": {k: int(v) for k, v in traj.stats.items()},
    }


def _base_observables(system):
    """L and the system's own observables, over base vectors."""
    fields = {"L": system.hamiltonian, **system.observables}
    return {name: (lambda vec, f=f: f.value(vec)) for name, f in fields.items()}


def flow_setup(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for label, key, consts, mn, centre in cases.FLOW_CASES:
        y0 = np.array(centre) + rng.uniform(-cases.FLOW_JITTER, cases.FLOW_JITTER, len(centre))
        built = ek.instantiate(key)
        if consts is None:
            make_rhs = partial(ek.base_flow, built.system)
            obs = _base_observables(built.system)
        else:
            params = ek.ExtensionParams(m=mn[0], n=mn[1], **consts)
            ext = ek.build_extension(built.system, built.seed, params)
            make_rhs = ext.flow
            obs = ext.conserved_quantities()
            for name, f in built.system.observables.items():
                obs[name] = lambda vec, f=f: f.value(vec[2:])
        run = partial(trajectory_op, make_rhs=make_rhs, y0=y0, observables=obs)
        ops.append((label, partial(run, label, method="rk4", dt=cases.FLOW_DT,
                                   stride=cases.FLOW_STRIDE)))
        if label == cases.FLOW_HALVING_CASE:
            ops.append((label + "_half", partial(run, label + "_half", method="rk4",
                                                 dt=cases.FLOW_DT / 2,
                                                 stride=2 * cases.FLOW_STRIDE)))
        if label == cases.FLOW_RKF45_CASE:
            ops.append((label + "_rkf45", partial(run, label + "_rkf45", method="rkf45",
                                                  dt=cases.FLOW_DT, stride=1)))
    return ops


# ----------------------------------------------------------------- gates


def pde_op(entry, built, c, c0, spec):
    """Defining-identity residual of the entry's seed at sampled points.

    Sampling skips the entry's singular set and the neighbourhood of the
    level set c L + c0 = 0 (see ``cases.PDE_LAMBDA_FLOOR``).
    """
    singular = built.singular
    ham = built.system.hamiltonian

    def skip(x, margin):
        if singular is not None and singular(x, margin):
            return True
        return abs(c * ham.value(x) + c0) <= cases.PDE_LAMBDA_FLOOR

    rep = verify.pde_residual(built.system, built.seed.field, c, c0, spec, singular=skip)
    return {"entry": entry, "max_residual": rep.max_residual,
            "kept": int(len(rep.residuals)), "skipped": int(rep.skipped)}


def bracket_op(label, structure, h_fn, k_fns, spec, pred):
    """Worst normalised {H, K} by finite differences over sampled states."""
    states = verify.sample_points(spec, pred)
    worst = 0.0
    kept = skipped = 0
    for vec in states:
        try:
            value = max(verify.fd_bracket_normalized(structure, h_fn, k, vec) for k in k_fns)
        except ek.EvaluationError:
            skipped += 1
            continue
        kept += 1
        worst = max(worst, value)
    return {"label": label, "max_normalized": worst, "kept": kept, "skipped": skipped}


def bracket_inputs(key, consts, mn, seed, k_mn=None):
    """Structure, H, the K parts and the state sampler of one bracket case.

    ``k_mn`` takes K from another index pair than H, a wrong input for
    the negative controls.
    """
    built = ek.instantiate(key)
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(m=mn[0], n=mn[1], **consts))
    k_ext = ext if k_mn is None else ek.build_extension(
        built.system, built.seed, ek.ExtensionParams(m=k_mn[0], n=k_mn[1], **consts))
    obs = ext.conserved_quantities()
    k_obs = k_ext.conserved_quantities()
    k_fns = [k_obs[name] for name in k_obs if name.startswith("K")]
    spec = ek.SampleSpec(
        intervals=(cases.BRACKET_U_RANGE, cases.BRACKET_PU_RANGE) + ek.get_entry(key).default_box,
        count=cases.BRACKET_STATES, seed=seed, margin=cases.BRACKET_MARGIN)
    sing = built.singular
    pred = None if sing is None else (lambda vec, margin: sing(vec[2:], margin))
    return ext.structure(), obs["H"], k_fns, spec, pred


def sweep_op(seed):
    res = verify.recursion_closed_sweep(seed=seed, **cases.SWEEP_ARGS)
    return {"max_rel": float(res["max_rel"])}


def power_op(triples):
    """power_coeffs for every index pair and operator power at each triple."""
    rows = []
    for m, n in cases.POWER_INDEX_PAIRS:
        for p_u, gam, lam in triples:
            for r in range(m + 1):
                big_p, big_d = ek.power_coeffs(m, n, r, p_u, gam, lam)
                rows.append([m, n, r, p_u, gam, lam, float(big_p), float(big_d)])
    return {"rows": rows}


def euler_op(system, field, sign, spec):
    """First-order residual of the local seed, and its values where kept."""
    c, c0 = cases.EULER_PAIR
    rep = verify.first_order_residual(system, field, c, c0, sign, spec,
                                      singular=near_separatrix, step=cases.EULER_STEP)
    points = [[float(v) for v in x] for x in rep.points]
    return {"max_rel": rep.max_rel, "kept": int(len(rep.rel_residuals)),
            "skipped": int(rep.skipped), "points": points,
            "values": [float(field.value(x)) for x in rep.points]}


def near_separatrix(x, margin):
    """Sampling predicate: kappa above ``cases.EULER_KAPPA_MAX``."""
    kappa = oracles.euler_level_set(*x, cases.EULER_MOMENTS)[3]
    return kappa is not None and kappa > cases.EULER_KAPPA_MAX


def euler_inputs(seed):
    i1, i2, i3 = cases.EULER_MOMENTS
    built = ek.instantiate("euler_top", {"I1": i1, "I2": i2, "I3": i3})
    field = built.meta["local_seed_builder"](*cases.EULER_PAIR, branch=1)
    spec = ek.SampleSpec(intervals=cases.EULER_BOX, count=cases.EULER_POINTS, seed=seed)
    return built.system, field, spec


def gates_setup(seed: int) -> list:
    seeds = _sub_seeds(seed)
    ops = []
    for key in cases.PDE_ENTRIES:
        built = ek.instantiate(key)
        c, c0 = built.seed.meta["pair"]
        spec = ek.SampleSpec(intervals=ek.get_entry(key).default_box, count=cases.PDE_POINTS,
                             seed=next(seeds), margin=cases.PDE_MARGIN)
        ops.append((f"pde_{key}", partial(pde_op, key, built, c, c0, spec)))
    for label, key, consts, mn in cases.BRACKET_CASES:
        inputs = bracket_inputs(key, consts, mn, next(seeds))
        ops.append((f"bracket_{label}", partial(bracket_op, label, *inputs)))
    ops.append(("recursion_sweep", partial(sweep_op, next(seeds))))
    rng = np.random.default_rng(next(seeds))
    triples = [[float(v) / 1000 for v in row]
               for row in rng.integers(-2000, 2001, size=(cases.POWER_TRIPLES, 3))]
    ops.append(("power_coeffs", partial(power_op, triples)))
    system, field, spec = euler_inputs(next(seeds))
    ops.append(("euler_local_seed", partial(euler_op, system, field, 1, spec)))
    return ops


SETUPS = {"flow": flow_setup, "gates": gates_setup}


def run_op(name, op) -> dict:
    """One operation's output; a raised error is the output of a failed one."""
    try:
        out = op()
    except Exception as exc:  # one failed operation must not stop the pass
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return {"op": name, **out}
