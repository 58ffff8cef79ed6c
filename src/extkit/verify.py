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
from .jets import EvaluationError, ScalarField, sqrt
from .poisson import (HamiltonianSystem, PoissonStructure, apply_xl2, apply_xl2_cloud,
                      base_flow)

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
# The fewest points pde_residual evaluates in one cloud pass.  Recording a
# tape and replaying it costs about 0.9-12 ms whatever the size of the cloud
# (quartic1 to vortex_equal), and one point by apply_xl2 0.1-0.25 ms, so the
# pass breaks even at 12-50 points; 32 keeps the worst loss on either side
# of the threshold near 4 ms.
CLOUD_MIN_POINTS = 32


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


def _check_positive(value: float, name: str):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


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
        if self.count < 1:
            raise ValueError("sample count must be positive")
        if not self.intervals:
            raise ValueError("sampling needs at least one interval")
        for lo, hi in self.intervals:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad sampling interval ({lo}, {hi})")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError(f"sampling margin must be finite and nonnegative, got {self.margin!r}")
        if self.seed < 0:
            raise ValueError(f"sampling seed must be nonnegative, got {self.seed!r}")


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
                         step: float = 1e-6) -> FirstOrderReport:
    """Residual of X_L G = sign * sqrt(-2 (c L + c0)) G at sampled points.

    The derivative along the flow is taken by a central difference over
    one tight Runge-Kutta step each way, so the check uses field values
    only and stays independent of the jet arithmetic.  Points where the
    radicand is negative for a real field, or where evaluation fails,
    are skipped and counted.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_positive(step, "step")
    rhs_fn = base_flow(system)

    def sides(x):
        g0 = field_g.value(x)
        xs = x.tolist()
        xp = _rk4_step(rhs_fn, xs, step)
        xm = _rk4_step(rhs_fn, xs, -step)
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
    """A right-hand side's output as a list of ``d`` numbers."""
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
    k1 = _components(rhs(y), d)
    k2 = _components(rhs([yi + a * k for yi, k in zip(y, k1)]), d)
    k3 = _components(rhs([yi + a * k for yi, k in zip(y, k2)]), d)
    k4 = _components(rhs([yi + h * k for yi, k in zip(y, k3)]), d)
    b = h / 6.0
    return [yi + b * (((p + 2.0 * q) + 2.0 * r) + s)
            for yi, p, q, r, s in zip(y, k1, k2, k3, k4)]


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
              method: str = "rk4", dt: float = 1e-3, tol: float = 1e-10,
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
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError(f"y0 must be a flat vector, got shape {y0.shape}")
    y0 = y0.tolist()
    _check_positive(t_final, "t_final")
    _check_positive(dt, "dt")
    if method == "rk4":
        return _integrate_rk4(rhs, y0, t_final, dt)
    if method == "rkf45":
        _check_positive(tol, "tol")
        _check_positive(dt_min, "dt_min")
        _check_positive(dt_max, "dt_max")
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
    y = y0
    t = 0.0
    truncated = False
    reason = ""
    for i in range(1, n_steps + 1):
        h = min(dt, t_final - t)
        try:
            y = _rk4_step(rhs, y, h)
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
            ks = [_components(rhs(y), d)]
            c = h * _FB[0][0]
            ks.append(_components(rhs([yi + c * k for yi, k in zip(y, ks[0])]), d))
            for row in _FB[1:]:
                ks.append(_components(rhs(_fehlberg_sum(y, h, row, ks)), d))
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
    observables that share per-state work (the real and imaginary parts
    of a complex K) meet it while it is still memoised.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
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


def fd_gradient(fn: Callable, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a callable over flat vectors."""
    _check_positive(h, "finite-difference step")
    x = np.asarray(x, dtype=float)
    out = []
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out.append((fn(xp) - fn(xm)) / (2.0 * h))
    return np.array(out)


def fd_bracket_normalized(structure: PoissonStructure, f: Callable, g: Callable,
                          x: np.ndarray, h: float = 1e-5) -> float:
    """|{F, G}| scaled by the gradient sizes and the bivector norm."""
    gf = fd_gradient(f, x, h)
    gg = fd_gradient(g, x, h)
    pi = structure.matrix(x)
    val = abs(gf @ pi @ gg)
    scale = float(np.linalg.norm(gf) * structure.spectral_norm(pi) * np.linalg.norm(gg))
    return val / (scale + _TINY)


def bracket_sweep(structure: PoissonStructure, h_fn: Callable, fns: dict[str, Callable],
                  states: Sequence[np.ndarray], h: float = 1e-5) -> tuple:
    """Largest :func:`fd_bracket_normalized` {H, F} over the states, for each named F.

    Each (F, state) bracket is one point of :func:`_sweep`.  Returns the
    worst value (inf if no bracket was checked), the (name, state) it came
    from (None if no bracket is positive), and the counts of brackets
    checked and skipped.
    """
    vals, kept, skipped = _sweep([(name, x) for x in states for name in fns], lambda p:
                                 fd_bracket_normalized(structure, h_fn, fns[p[0]], p[1], h))
    worst, where = max(((v, p) for v, p in zip(vals, kept) if v > 0), key=lambda vp: vp[0],
                       default=(0.0 if vals else math.inf, None))
    return worst, where, len(vals), skipped


def state_ranks(fns: Sequence[Callable], states: Sequence[np.ndarray],
                h: float = 1e-5, threshold: float = 1e-6) -> tuple[list, list, int]:
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
                      h: float = 1e-5, threshold: float = 1e-6) -> int:
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
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            raise ValueError(f"{name} must be an integer of at least {least}, got {v!r}")
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
