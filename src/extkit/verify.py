"""Numerical verification utilities.

Rejection sampling away from declared singular sets, relative residuals
of the defining equation and of its first-order factorization, fixed and
adaptive Runge-Kutta integration, conservation drift reports, finite
difference brackets and rank-based independence checks.  Everything is
deterministic given a sample seed.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .extension import DerivPair, _closed_chain, _recursion_chain
from .jets import EvaluationError, ScalarField, _integer, _real, _sign, sqrt
from .poisson import (HamiltonianSystem, PoissonStructure, _dot, _exactly_antisymmetric,
                      apply_xl2, apply_xl2_cloud, base_flow)
from .riccati import _POLE_TOL

__all__ = [
    "RejectionError",
    "SampleSpec",
    "sample_points",
    "ResidualReport",
    "pde_residual",
    "FirstOrderReport",
    "first_order_residual",
    "Trajectory",
    "integrate",
    "ConservationReport",
    "conservation_report",
    "fd_gradient",
    "fd_bracket_normalized",
    "bracket_sweep",
    "state_ranks",
    "independence_rank",
    "recursion_closed_sweep",
]

_TINY = 1e-12
# The most steps rk4 takes in one run: 50 times the longest run in the tests
# and the benchmark (20 000 steps), and 48 MB of stored states for six
# coordinates.
RK4_MAX_STEPS = 1_000_000
# The fewest points pde_residual evaluates in one cloud pass.  A field's first
# pass records and prunes the tapes of L and G and replays them, about
# 0.6-7 ms for a cloud of 16 points (quartic1 to square_polar), and one point
# by apply_xl2 on fresh fields cost 80-380 us while its fixed-order sums ran
# over (1,) arrays, so that pass broke even at 8-20 points (best of 5 on a
# shared 2-vCPU Linux host); on plain numbers a warm point costs 40-160 us
# (quartic1 to vortex_equal, best of 7).  Later passes replay the kept tapes,
# 0.14-1.4 ms fixed.  32 is the break-even of the first pass as it was when
# apply_xl2 cost 40-140 us a point; the benchmark's tracer test pins the
# point-by-point path at 20 points.
CLOUD_MIN_POINTS = 32
# Defaults the command line shares: the finite-difference step and rank
# threshold of the bracket and rank checks, the step of the first-order
# residual, rk4's step and rkf45's tolerance, and the gate on the defining
# identity (check-pde, and quartic2b's build).
FD_STEP = 1e-5
RANK_THRESHOLD = 1e-6
FIRST_ORDER_STEP = 1e-6
RK4_DT = 1e-3
RKF45_TOL = 1e-10
PDE_TOL = 1e-7


def _rel(a, b) -> float:
    """|a - b| / (|a| + |b| + 1e-12), the relative residual of every gate."""
    return abs(a - b) / (abs(a) + abs(b) + _TINY)


def _sweep(points: Sequence, fn: Callable) -> tuple[list, list, int]:
    """``fn`` at each point; a point where it raises EvaluationError is skipped.

    Returns the values, the points they came from and the skipped count.
    """
    vals, kept = [], []
    for x in points:
        try:
            vals.append(fn(x))
        except EvaluationError:
            continue
        kept.append(x)
    return vals, kept, len(points) - len(kept)


class RejectionError(Exception):
    """Rejection sampling could not find enough admissible points."""


@dataclass(frozen=True)
class SampleSpec:
    """A sampling request: box, point count, RNG seed, singular margin."""

    intervals: tuple[tuple[float, float], ...]
    count: int
    seed: int
    margin: float = 0.0

    def __post_init__(self):
        _integer(self.count, "count", 1)
        if not self.intervals:
            raise ValueError("sampling needs at least one interval")
        for lo, hi in self.intervals:
            if not _real(lo, "sampling interval bound") < _real(hi, "sampling interval bound"):
                raise ValueError(f"bad sampling interval ({lo}, {hi})")
        _real(self.margin, "sampling margin", "nonnegative")
        _integer(self.seed, "seed", 0)


def sample_points(spec: SampleSpec,
                  singular: Callable[[np.ndarray, float], bool] | None = None) -> np.ndarray:
    """Uniform points in the box, rejecting the margin-fattened singular set.

    Raises :class:`RejectionError` once more than 99 percent of a large
    trial budget has been rejected.
    """
    rng = np.random.default_rng(spec.seed)
    lo = np.array([iv[0] for iv in spec.intervals])
    hi = np.array([iv[1] for iv in spec.intervals])
    taken: list[np.ndarray] = []
    drawn = 0
    batch_size = max(64, spec.count)
    while len(taken) < spec.count:
        batch = lo + rng.uniform(size=(batch_size, len(lo))) * (hi - lo)
        drawn += batch_size
        for row in batch:
            if singular is None or not singular(row, spec.margin):
                taken.append(row)
                if len(taken) == spec.count:
                    break
        if drawn >= 100 * spec.count and len(taken) < 0.01 * drawn:
            rate = 100.0 * (1.0 - len(taken) / drawn)
            raise RejectionError(
                f"rejected {rate:.1f}% of {drawn} draws; "
                "singular set saturates the sampling box"
            )
    return np.array(taken)


@dataclass
class ResidualReport:
    """Per-point relative residuals of the defining equation."""

    residuals: np.ndarray
    points: np.ndarray
    skipped: int

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else math.inf

    @property
    def mean_residual(self) -> float:
        return float(np.mean(self.residuals)) if len(self.residuals) else math.inf


def pde_residual(system: HamiltonianSystem, seed_field: ScalarField,
                 c: float, c0: float, spec: SampleSpec,
                 singular: Callable[[np.ndarray, float], bool] | None = None) -> ResidualReport:
    """Relative residual of X_L^2 G = -2 (c L + c0) G at sampled points.

    Residuals are :func:`_rel` of the two sides.  Points where
    evaluation fails are skipped and counted.  A sample of at least
    :data:`CLOUD_MIN_POINTS` points takes both sides from one pass over
    the whole sample (:func:`apply_xl2_cloud`): X_L^2 G, and the values of
    L and G that its second jets carry.  A point that pass marks, and every
    point of a smaller sample, gets :func:`apply_xl2` and the two fields'
    ``value`` on its own, which give the same numbers or raise what skips
    the point.
    """
    pred = singular if singular is not None else seed_field.singular
    ham = system.hamiltonian
    points = sample_points(spec, pred)
    marked = [True] * len(points)
    if len(points) >= CLOUD_MIN_POINTS:
        lhs, marked, l_vals, g_vals = apply_xl2_cloud(system, seed_field, points)
        l_vals, g_vals = l_vals.tolist(), g_vals.tolist()

    def residual(i):
        x = points[i]
        if marked[i]:
            side, l, g = apply_xl2(system, seed_field, x), ham.value(x), seed_field.value(x)
        else:
            side, l, g = lhs[i], l_vals[i], g_vals[i]
        return _rel(side, -2.0 * (c * l + c0) * g)

    vals, kept, skipped = _sweep(range(len(points)), residual)
    return ResidualReport(np.array(vals), np.array([points[i] for i in kept]), skipped)


@dataclass
class FirstOrderReport:
    """Residuals of the factorized first-order relation along the flow."""

    abs_residuals: np.ndarray
    rel_residuals: np.ndarray
    points: np.ndarray
    skipped: int

    @property
    def max_abs(self) -> float:
        return float(np.max(self.abs_residuals)) if len(self.abs_residuals) else math.inf

    @property
    def max_rel(self) -> float:
        return float(np.max(self.rel_residuals)) if len(self.rel_residuals) else math.inf


def first_order_residual(system: HamiltonianSystem, field_g: ScalarField,
                         c: float, c0: float, sign: int, spec: SampleSpec,
                         singular: Callable[[np.ndarray, float], bool] | None = None,
                         step: float = FIRST_ORDER_STEP) -> FirstOrderReport:
    """Residual of X_L G = sign * sqrt(-2 (c L + c0)) G at sampled points.

    The derivative along the flow is taken by a central difference over
    one tight Runge-Kutta step each way, so the check uses field values
    only and stays independent of the jet arithmetic.  Points where the
    radicand is negative for a real field, or where evaluation fails,
    are skipped and counted.
    """
    _sign(sign, "sign")
    _real(step, "step", "positive")
    rk4 = _stepper(base_flow(system))

    def sides(x):
        g0 = field_g.value(x)
        xs = x.tolist()
        xp = rk4(xs, step)
        xm = rk4(xs, -step)
        deriv = (field_g.value(xp) - field_g.value(xm)) / (2.0 * step)
        rad = -2.0 * (c * system.hamiltonian.value(x) + c0)
        if rad < 0 and field_g.codomain == "real":
            raise EvaluationError("negative radicand for a real field")
        return deriv, sign * sqrt(rad) * g0

    pairs, kept, skipped = _sweep(sample_points(spec, singular), sides)
    return FirstOrderReport(np.array([abs(d - t) for d, t in pairs]),
                            np.array([_rel(d, t) for d, t in pairs]), np.array(kept), skipped)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    method: str
    truncated: bool = False
    reason: str = ""
    stats: dict = field(default_factory=dict)


def _components(v, d: int) -> list:
    """A right-hand side's output as a list of ``d`` numbers.  The steppers
    call it only for an output that is not already a list of ``d``."""
    if type(v) is not list:
        v = np.asarray(v).tolist()
    if type(v) is not list or len(v) != d:
        raise ValueError(f"right-hand side must return {d} numbers, got shape {np.shape(v)}")
    return v


def _rk4_step(rhs, y: list, h: float) -> list:
    # each component as numpy evaluates y + 0.5 * h * k1 and
    # y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) on arrays
    d = len(y)
    a = 0.5 * h
    k1 = rhs(y)
    if type(k1) is not list or len(k1) != d:
        k1 = _components(k1, d)
    k2 = rhs([yi + a * k for yi, k in zip(y, k1)])
    if type(k2) is not list or len(k2) != d:
        k2 = _components(k2, d)
    k3 = rhs([yi + a * k for yi, k in zip(y, k2)])
    if type(k3) is not list or len(k3) != d:
        k3 = _components(k3, d)
    k4 = rhs([yi + h * k for yi, k in zip(y, k3)])
    if type(k4) is not list or len(k4) != d:
        k4 = _components(k4, d)
    b = h / 6.0
    return [yi + b * (((p + 2.0 * q) + 2.0 * r) + s)
            for yi, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _stepper(rhs) -> Callable[[list, float], list]:
    """The rk4 step ``(y, h) -> list`` taken for ``rhs``.

    A library flow (:func:`~extkit.poisson.base_flow`,
    :func:`~extkit.extension.extended_flow`, which name their system and
    constants in ``rhs._flow``) gets its fused step (:func:`_fused_rk4`).
    Where that step is in doubt or raises, the step is redone by
    :func:`_rk4_step`, which then gives the result or raises the error; any
    other callable gets :func:`_rk4_step` alone.
    """
    flow = getattr(rhs, "_flow", None)
    fused = None if flow is None else _fused_rk4(*flow)
    if fused is None:
        return functools.partial(_rk4_step, rhs)

    def step(y, h):
        try:
            out = fused(y, h)
        except Exception:  # the general step redoes it: raises the flow's error, or recovers
            out = None
        return _rk4_step(rhs, y, h) if out is None else out

    return step


def _fused_rk4(system: HamiltonianSystem, params) -> Callable | None:
    """The fused rk4 step of the base flow (``params`` None) or of the
    extended flow of ``system``, or None where none is made: a bivector of
    another dimension than L, or a constant one with two nonzero entries in
    a row (none in the catalog).

    The step ``(y, h) -> list | None`` runs the four stages of
    :func:`_rk4_step` as straight-line code over plain numbers, with the
    right-hand side inlined at each: the profile of its regime as
    :func:`~extkit.riccati.riccati_eval` forms it, a call of L's compiled
    kernel (``ScalarField._kernel``) and the contraction as
    ``PoissonStructure.contract`` sums it, row by row from 0.0.  A constant
    bivector's nonzero entries are constants of the step.  An entry rule is
    read from ``structure.entries`` at each step, so a reassigned rule is the
    one called, and its rows at each stage must pass the exact test
    :func:`~extkit.poisson._exactly_antisymmetric`.  Every operation is the
    general step's, in its order, so its result is that step's bit for bit.
    It returns None, deciding nothing, where the general step may not
    return the same: L switched off its kernel for good, a point on L's
    singular set, a profile or centrifugal pole within ``_POLE_TOL``, a
    value or gradient entry that is not a finite real number, or rows that
    fail the exact test (the general step's contraction has them judged by
    ``PoissonStructure._within_tolerance``).  A kernel not compiled yet, or
    dropped with a reassigned ``fn``, is compiled first by the one
    ``value_grad`` call at the state that the general step's first stage
    would make, so a run makes the same calls of the flow whether or not L
    was warm when it began.
    """
    ham, structure = system.hamiltonian, system.structure
    if structure.dim != ham.dim:
        return None
    consts = {"ham": ham, "structure": structure, "isfinite": math.isfinite}
    if structure._sparse is not None:
        cols = tuple(j for j, _ in structure._sparse)
        consts.update((f"P{i}", p) for i, (_, p) in enumerate(structure._sparse))
    elif structure.entries is None:
        return None
    else:
        cols = "rule"
        consts["exact"] = _exactly_antisymmetric(ham.dim)
    regime = None
    omega = params is not None and params.omega != 0.0
    if params is not None:
        # the constants extended_flow and riccati_eval form, formed the same way
        k2 = params.k**2
        consts.update(k2=k2, t2=2.0 * k2 * params.c0, nk2=-k2)
        if omega:
            consts.update(w2=2.0 * params.omega, tol=_POLE_TOL)
        rp = params._riccati
        if rp is None:
            regime = "zero"
        elif rp.c == 0.0:
            regime = "linear"
            consts.update(off=rp.offset, nC=-rp.C)
        else:
            regime = "flat" if rp._tag is None else "curved"
            consts.update(off=rp.offset, rc=rp.c, nrc=-rp.c, m2c=-2.0 * rp.c, tol=_POLE_TOL)
            if rp._tag is not None:
                consts["r"], consts["sin"], consts["cos"] = rp._tag
    return _step_maker((ham.dim, cols, regime, omega), tuple(consts))(**consts)


@functools.lru_cache(maxsize=64)
def _step_maker(shape: tuple, names: tuple) -> Callable:
    """``make(**constants) -> step`` for a flow of ``shape``, compiled once
    per shape and constant names: (L's dimension, the sparse bivector's
    column per row or "rule" for an entry rule, the profile regime or None
    for the base flow, whether omega != 0)."""
    namespace: dict = {}
    exec(compile(_step_source(shape, names), f"<fused rk4 step {shape}>", "exec"), namespace)
    return namespace["make"]


def _step_source(shape: tuple, names: tuple) -> str:
    """The source of :func:`_step_maker`'s ``make``; see :func:`_fused_rk4`."""
    d, cols, regime, omega = shape
    base = 0 if regime is None else 2
    n = base + d
    grads = [f"G{j}" for j in range(d)]
    lines = [f"{''.join(f'y{j}, ' for j in range(n))}= y",
             "if ham._kernel[0] is not ham.fn:",
             f"    ham.value_grad([{', '.join(f'y{j}' for j in range(base, n))}])",
             "kernel = ham._kernel[1]",
             "if not kernel:",
             "    return None",
             "sing = ham.singular",
             *["rule = structure.entries"] * (cols == "rule"),
             "a = 0.5 * h"]
    ins = [f"y{j}" for j in range(n)]
    for s in range(1, 5):
        out = [f"k{s}_{j}" for j in range(n)]
        if regime is not None:
            # profile_at(params, float(vec[0])), then riccati_eval's arithmetic
            lines += {
                "zero": ["g = dg = ddg = 0.0"],
                "linear": [f"du = float({ins[0]}) - off", "g = nC * du", "dg = nC",
                           "ddg = 0.0"],
                "flat": [f"sv = rc * (float({ins[0]}) - off)", "cv = 1.0"],
                "curved": [f"rx = r * (rc * (float({ins[0]}) - off))", "sv = sin(rx) / r",
                         "cv = cos(rx)"],
            }[regime]
            if regime in ("flat", "curved"):
                lines += ["if abs(sv) <= tol:", "    return None",
                          "g = cv / sv", "dg = nrc / (sv * sv)", "ddg = m2c * g * dg"]
            if omega:
                lines += ["if abs(g) <= tol:", "    return None"]
        # ham_field: L.value_grad's kernel call and checks, then the contraction
        lines += [f"xs = [{', '.join(ins[base:])}]",
                  "if sing is not None and sing(xs, 0.0):", "    return None",
                  "lval, grad = kernel(xs)",
                  f"{''.join(f'{g}, ' for g in grads)}= grad",
                  # value_grad's test: the sum, and entry by entry where it overflows
                  f"if not isfinite(lval + {' + '.join(grads)}) and not (isfinite(lval)"
                  f"{''.join(f' and isfinite({g})' for g in grads)}):", "    return None"]
        # the contraction, as PoissonStructure.contract sums each row
        if cols == "rule":
            entries = [[f"a{i}_{j}" for j in range(d)] for i in range(d)]
            lines += ["rows = rule(xs)", "if not exact(rows):", "    return None",
                      "".join(f"({''.join(f'{e}, ' for e in row)}), " for row in entries)
                      + "= rows"]
            pi_grad = ["(0.0" + "".join(f" + {e} * {g}" for e, g in zip(row, grads)) + ")"
                       for row in entries]
        else:
            pi_grad = [f"(0.0 + P{i} * G{j})" for i, j in enumerate(cols)]
        if regime is None:
            lines += [f"{k} = {w}" for k, w in zip(out, pi_grad)]
        else:
            # extended_flow's p_u' and its rescaled base field
            lines += ["dpu = k2 * ddg * lval - t2 * g * dg"]
            if omega:
                lines.append("dpu += w2 * dg / g ** 3")
            lines += ["sc = nk2 * dg", f"{out[0]} = float({ins[1]})", f"{out[1]} = dpu"]
            lines += [f"{k} = sc * {w}" for k, w in zip(out[2:], pi_grad)]
        if s < 4:
            step = "h" if s == 3 else "a"
            ins = [f"z{j}" for j in range(n)]
            lines += [f"z{j} = y{j} + {step} * k{s}_{j}" for j in range(n)]
    lines += ["b = h / 6.0",
              "return [" + ", ".join(f"y{j} + b * (((k1_{j} + 2.0 * k2_{j}) + 2.0 * k3_{j})"
                                     f" + k4_{j})" for j in range(n)) + "]"]
    return "\n".join([f"def make({', '.join(names)}):",
                      "    def step(y, h):",
                      *(f"        {line}" for line in lines),
                      "    return step"])


# Fehlberg 4(5) tableau.
_FB = (
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_FB4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_FB5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def _fehlberg_sum(y: list, h: float, weights: tuple, ks: list, *start) -> list:
    """y + h * (w0 k1 + w1 k2 + ...) per component, the products summed
    left to right from ``start`` when given, as numpy sums arrays."""
    return [yi + h * functools.reduce(operator.add, map(operator.mul, weights, kk), *start)
            for yi, *kk in zip(y, *ks)]


def integrate(rhs: Callable[[list], Sequence[float]], y0, t_final: float,
              method: str = "rk4", dt: float = RK4_DT, tol: float = RKF45_TOL,
              dt_min: float = 1e-9, dt_max: float = 0.5) -> Trajectory:
    """Integrate y' = rhs(y) from 0 to ``t_final``.

    ``rhs`` receives the state as a list of floats and returns any
    sequence of as many numbers (a list, or an ndarray).  The trajectory
    holds ndarrays.  ``rk4`` takes ceil(t_final / dt - 1e-12) steps, each
    min(dt, t_final - t) with t the running sum of the steps so far.  It
    ends at that rounded sum, which can miss ``t_final``: 10000 steps of
    1e-3 end at 9.999999999999897.  A run of more than
    :data:`RK4_MAX_STEPS` steps is refused with a ValueError before any
    state is stored.  ``rkf45`` is an embedded adaptive pair
    controlled by ``tol``, with step sizes kept within [``dt_min``,
    ``dt_max``]; its ``stats`` count accepted and rejected steps, and as
    ``n_forced`` the accepted steps whose error exceeded the tolerance
    once the step size had reached ``dt_min``.  A flow evaluation error
    or a non-finite state truncates the trajectory and records the reason.

    ``rk4`` steps a library flow (``base_flow``, ``extended_flow``) by its
    fused step (:func:`_fused_rk4`): the four stages in one generated
    function that calls L's compiled kernel, compiling it first if need be,
    and does not call ``rhs``.  On any doubt (L off its kernel for good, a
    singular point, a pole, a non-finite or complex value, any exception)
    the step is redone by the general step, which calls ``rhs``, so the
    trajectory, its truncation and its reason are bit for bit what the
    general step gives.  A wrapper that copies the flow's ``__dict__``
    (``functools.wraps``) is stepped the same way, and is not called by rk4.
    ``rkf45`` calls ``rhs`` at every stage.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError(f"y0 must be a flat vector, got shape {y0.shape}")
    y0 = y0.tolist()
    _real(t_final, "t_final", "positive")
    _real(dt, "dt", "positive")
    if method == "rk4":
        return _integrate_rk4(rhs, y0, t_final, dt)
    if method == "rkf45":
        _real(tol, "tol", "positive")
        _real(dt_min, "dt_min", "positive")
        _real(dt_max, "dt_max", "positive")
        if dt_min > dt_max:
            raise ValueError(f"dt_min must not exceed dt_max, got {dt_min!r} > {dt_max!r}")
        return _integrate_rkf45(rhs, y0, t_final, dt, tol, dt_min, dt_max)
    raise ValueError(f"unknown integration method {method!r}")


def _integrate_rk4(rhs, y0: list, t_final, dt) -> Trajectory:
    steps = t_final / dt - 1e-12
    if steps > RK4_MAX_STEPS:
        raise ValueError(f"dt = {dt!r} and t_final = {t_final!r} ask for {steps:.3g} rk4 "
                         f"steps, more than the budget of {RK4_MAX_STEPS}")
    n_steps = max(1, int(math.ceil(steps)))
    times = [0.0]
    states = np.empty((n_steps + 1, len(y0)))
    states[0] = y0
    step = _stepper(rhs)
    y = y0
    t = 0.0
    truncated = False
    reason = ""
    for i in range(1, n_steps + 1):
        h = min(dt, t_final - t)
        try:
            y = step(y, h)
        except EvaluationError as e:
            truncated, reason = True, f"flow evaluation failed at t = {t:.6g}: {e}"
            break
        if not all(map(cmath.isfinite, y)):
            truncated, reason = True, f"state became non-finite at t = {t + h:.6g}"
            break
        t += h
        times.append(t)
        try:
            states[i] = y
        except TypeError:  # a complex state
            states = states.astype(complex)
            states[i] = y
    n = len(times)
    return Trajectory(
        np.array(times), states if n == len(states) else states[:n].copy(), "rk4",
        truncated, reason, stats={"n_steps": n - 1},
    )


def _integrate_rkf45(rhs, y0: list, t_final, dt, tol, dt_min, dt_max) -> Trajectory:
    d = len(y0)
    times = [0.0]
    states = [y0]
    y = y0
    t = 0.0
    h = min(dt, t_final)
    accepted = 0
    rejected = 0
    forced = 0
    truncated = False
    reason = ""
    while t < t_final - 1e-14 * t_final:
        h = min(h, t_final - t)
        # each component as numpy evaluates the stages on arrays: the first
        # y + (h * a0) * k1, each later one by _fehlberg_sum
        try:
            c = h * _FB[0][0]
            ks = []
            for i in range(6):
                k = rhs(y if i == 0 else [yi + c * ki for yi, ki in zip(y, ks[0])] if i == 1
                        else _fehlberg_sum(y, h, _FB[i - 1], ks))
                if type(k) is not list or len(k) != d:
                    k = _components(k, d)
                ks.append(k)
        except EvaluationError as e:
            truncated, reason = True, f"flow evaluation failed at t = {t:.6g}: {e}"
            break
        y4 = _fehlberg_sum(y, h, _FB4, ks, 0)
        y5 = _fehlberg_sum(y, h, _FB5, ks, 0)
        scale = tol * (1.0 + float(np.max(np.abs(y))))
        err = float(np.max(np.abs([a - b for a, b in zip(y5, y4)])))
        if not math.isfinite(err):
            truncated, reason = True, f"step error became non-finite at t = {t:.6g}"
            break
        if err <= scale or h <= dt_min * (1 + 1e-12):
            if err > scale:
                forced += 1
            t += h
            y = y5
            times.append(t)
            states.append(y)
            accepted += 1
        else:
            rejected += 1
        factor = 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0
        h = min(max(h * min(max(factor, 0.2), 5.0), dt_min), dt_max)
    return Trajectory(
        np.array(times), np.array(states), "rkf45", truncated, reason,
        stats={"n_accepted": accepted, "n_rejected": rejected, "n_forced": forced},
    )


@dataclass
class ConservationReport:
    times: np.ndarray
    states: np.ndarray
    series: dict[str, np.ndarray]
    drifts: dict[str, float]


def conservation_report(traj: Trajectory, observables: dict[str, Callable],
                        stride: int = 1) -> ConservationReport:
    """Observable series along a trajectory and their relative drifts.

    Drift of O is max_t |O(t) - O(0)| / max(|O(0)|, 1e-12).  ``stride``
    subsamples the stored states, which the report keeps with their
    times; the final state is always included.
    The states are walked once, every observable evaluated at each, so
    the observables of :meth:`~extkit.extension.Extension.conserved_quantities`
    read one evaluation by parts per state, which their extension keeps
    until another vector is asked.
    """
    _integer(stride, "stride", 1)
    n = len(traj.states)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    states = traj.states[idx]
    fns = list(observables.values())
    rows = [[fn(state) for fn in fns] for state in states]
    series = {}
    drifts = {}
    for j, name in enumerate(observables):
        vals = np.array([row[j] for row in rows])
        series[name] = vals
        ref = vals[0]
        drifts[name] = float(np.max(np.abs(vals - ref)) / max(abs(ref), _TINY))
    return ConservationReport(traj.times[idx], states, series, drifts)


def _stencil_points(x: np.ndarray, h):
    """The points of :func:`fd_gradient`'s stencil, each a new array, in
    its order: x + h e_0, x - h e_0, x + h e_1, ..."""
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += h
        yield xp
        xm = x.copy()
        xm[i] -= h
        yield xm


def fd_gradient(fn: Callable, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a callable over flat vectors.

    Entry i is (v+ - v-) / (2.0 * h), with v+ and v- the values at
    x + h e_i and x - h e_i.  The values are ``fn``'s at each point, asked
    in the order x + h e_0, x - h e_0, x + h e_1, ..., or, where the type
    of ``fn`` has an ``at_stencil`` method, ``fn.at_stencil(x, h)``: the
    values at all the points in that order, bit for bit ``fn``'s.  The
    observables of :meth:`~extkit.extension.Extension.conserved_quantities`
    have one, which forms H, L and K by parts in one pass.  The method is
    looked up on the type, so a wrapper, even one that copies ``fn``'s
    attributes (``functools.wraps``), is called at each point.
    """
    _real(h, "finite-difference step", "positive")
    x = np.asarray(x, dtype=float)
    at_stencil = getattr(type(fn), "at_stencil", None)
    values = iter(map(fn, _stencil_points(x, h)) if at_stencil is None
                  else at_stencil(fn, x, h))
    return np.array([(vp - vm) / (2.0 * h) for vp, vm in zip(values, values)])


def fd_bracket_normalized(structure: PoissonStructure, f: Callable, g: Callable,
                          x: np.ndarray, h: float = FD_STEP) -> float:
    """|{F, G}| scaled by the gradient sizes and the bivector norm:
    |gf . pi gg| / (|gf| |pi| |gg| + 1e-12), with gf and gg the
    :func:`fd_gradient` of F and G and pi the bivector's rows at ``x``.

    G's gradient is formed before F's.  Neither reads the other, so the
    order leaves the result alone (where both raise, G's error is the one
    raised); but with F = H and G = K of an
    :class:`~extkit.extension.Extension`, K's stencil is formed first and
    kept, and H's reads its profiles and the L values of its base parts.
    pi gg is summed by rows as :meth:`PoissonStructure.contract` sums them,
    and gf . (pi gg) and each |g|^2 = 0.0 + (re^2 + im^2) + ... the same
    way (:func:`~extkit.poisson._dot`), the roots taken by ``math.sqrt``;
    |pi| is :meth:`PoissonStructure.spectral_norm`.  No sum is left to
    numpy's products, so the value rounds the same on every host.
    """
    gg = fd_gradient(g, x, h).tolist()
    gf = fd_gradient(f, x, h).tolist()
    pi = structure._rows_at(np.asarray(x, dtype=float).tolist())
    val = abs(_dot(gf, [_dot(row, gg) for row in pi]))
    return val / (_norm(gf) * structure.spectral_norm(pi) * _norm(gg) + _TINY)


def _norm(g: list) -> float:
    """The 2-norm of a list of real or complex numbers: the square root of
    0.0 + (re_0^2 + im_0^2) + (re_1^2 + im_1^2) + ..., added left to right
    (for a real number, re^2 + 0.0 is re^2 bit for bit)."""
    return math.sqrt(functools.reduce(operator.add,
                                      (v.real * v.real + v.imag * v.imag for v in g), 0.0))


def bracket_sweep(structure: PoissonStructure, h_fn: Callable, fns: dict[str, Callable],
                  states: Sequence[np.ndarray], h: float = FD_STEP) -> tuple:
    """Largest :func:`fd_bracket_normalized` {H, F} over the states, for each named F.

    Each (F, state) pair is one :func:`fd_bracket_normalized` call, state by
    state and F in name order, looked up in this module at each call, so a
    function rebound there (a tracer's counting wrapper) sees every bracket.
    A pair is skipped where F, H or the bivector raises
    :class:`EvaluationError`.  H's values at a stencil come from its
    extension's kept evaluation where H has an ``at_stencil`` method (see
    :func:`fd_gradient`); a plain callable H is evaluated once per F.
    Returns the worst value (inf if no bracket was checked), the (name,
    state) it came from (None if no bracket is positive), and the counts of
    brackets checked and skipped.
    """
    pairs = [(name, x) for x in states for name in fns]
    vals, kept, skipped = _sweep(
        pairs, lambda pair: fd_bracket_normalized(structure, h_fn, fns[pair[0]], pair[1], h))
    worst, where = max(((v, pair) for v, pair in zip(vals, kept) if v > 0),
                       key=lambda vp: vp[0], default=(0.0 if vals else math.inf, None))
    return worst, where, len(vals), skipped


def state_ranks(fns: Sequence[Callable], states: Sequence[np.ndarray],
                h: float = FD_STEP, threshold: float = RANK_THRESHOLD) -> tuple[list, list, int]:
    """Numerical rank of the gradient stack at each state, through :func:`_sweep`.

    Gradients come from central differences, and each gradient row is
    scaled to unit length, so a constant factor on a field leaves the
    rank unchanged.  Singular values below ``threshold`` (in (0, 1))
    times the largest are treated as zero.  A complex observable whose
    imaginary gradient is negligible contributes its real part only;
    otherwise real and imaginary parts each get a row.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"rank threshold must lie in (0, 1), got {threshold!r}")

    def rank_at(x) -> int:
        rows = []
        for fn in fns:
            gr = fd_gradient(fn, x, h)
            rows.append(gr.real)
            if np.iscomplexobj(gr) and np.max(np.abs(gr.imag)) > 1e-12 * np.max(np.abs(gr)):
                rows.append(gr.imag)
        rows = np.array(rows)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        sv = np.linalg.svd(rows / np.where(norms > 0, norms, 1.0), compute_uv=False)
        return int(np.sum(sv > threshold * sv[0])) if sv[0] > 0 else 0

    return _sweep(states, rank_at)


def independence_rank(fns: Sequence[Callable], states: Sequence[np.ndarray],
                      h: float = FD_STEP, threshold: float = RANK_THRESHOLD) -> int:
    """Minimum of :func:`state_ranks` over the states where every field evaluates."""
    ranks = state_ranks(fns, states, h, threshold)[0]
    if not ranks:
        raise ValueError("independence_rank needs a state where every field evaluates")
    return min(ranks)


def recursion_closed_sweep(n_max: int, count_real: int, count_complex: int,
                           seed: int) -> dict:
    """Compare recursive and closed chain members on random triples.

    Returns the worst relative disagreement overall and per index, over
    ``count_real`` real and ``count_complex`` complex (G, X_L G, lam)
    triples drawn deterministically from ``seed``.
    """
    for name, v, least in (("n_max", n_max, 1), ("count_real", count_real, 0),
                           ("count_complex", count_complex, 0), ("seed", seed, 0)):
        _integer(v, name, least)
    if count_real + count_complex == 0:
        raise ValueError("count_real and count_complex draw no triple between them")
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count_real):
        g, xg, lam = rng.uniform(-2.0, 2.0, size=3)
        triples.append((float(g), float(xg), float(lam)))
    for _ in range(count_complex):
        v = rng.uniform(-1.0, 1.0, size=6)
        triples.append((complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5])))
    per_n = dict.fromkeys(range(1, n_max + 1), 0.0)
    for g, xg, lam in triples:
        pair = DerivPair(g, xg)
        chains = zip(_recursion_chain(n_max, pair, lam), _closed_chain(n_max, pair, lam))
        for n, (a, b) in enumerate(chains, 1):
            per_n[n] = max(per_n[n], _rel(a.value, b.value), _rel(a.xl, b.xl))
    return {"max_rel": max(per_n.values()), "per_n": per_n}
