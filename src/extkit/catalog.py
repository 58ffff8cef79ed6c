"""Catalog of base systems with seed solutions for extension building.

Each entry bundles a Poisson structure, a Hamiltonian L and, where one
is known in closed form, one or more seed functions G solving
X_L^2 G = -2 (c L + c0) G for a specific constant pair.  Entries
without a closed-form seed (the predator-prey system and the free
rigid body) are served for their base dynamics and invariants; the
rigid body additionally exposes an elliptic-integral local seed valid on
bounded level sets.

Parameter values are validated against per-entry constraints and
unknown names are rejected.  Function-valued parameters accept either a
jet-capable callable or a small declarative spec understood by
:func:`build_function`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .extension import ExtensionSeed
from .jets import Jet, ScalarField, SingularPointError, cos, exp, log, sin, sqrt
from .poisson import HamiltonianSystem, PoissonStructure, canonical_structure
from .verify import SampleSpec, pde_residual

__all__ = [
    "CatalogError",
    "ParamSpec",
    "CatalogEntry",
    "BuiltSystem",
    "build_function",
    "entry_ids",
    "get_entry",
    "instantiate",
    "euler_local_seed_field",
]


class CatalogError(Exception):
    """Unknown entry, unknown parameter, or a violated parameter constraint."""


def _nonzero(v):
    return None if v != 0 else "must be nonzero"


def _positive(v):
    return None if v > 0 else "must be positive"


def _finite_num(v):
    if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v):
        return None
    return "must be a finite real number"


def _finite_complex(v):
    if isinstance(v, bool):
        return "must be a real or complex number"
    try:
        z = complex(v)
    except TypeError:
        return "must be a real or complex number"
    if math.isfinite(z.real) and math.isfinite(z.imag):
        return None
    return "must be finite"


@dataclass(frozen=True)
class ParamSpec:
    default: Any
    desc: str
    check: Callable[[Any], str | None] = _finite_num
    function: bool = False


def build_function(spec) -> Callable:
    """Turn a function parameter into a jet-capable callable.

    Callables pass through unchanged and must themselves accept jets.
    Declarative specs are dicts with a ``kind`` key:

      {"kind": "zero"}
      {"kind": "const", "value": v}
      {"kind": "poly", "coeffs": [a0, a1, ...]}
      {"kind": "sin"|"cos", "amplitude": a, "frequency": w, "phase": p}
    """
    if callable(spec):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise CatalogError(
            "function parameters take a callable or a dict with a 'kind' key"
        )
    kind = spec["kind"]
    known = {"zero", "const", "poly", "sin", "cos"}
    if kind not in known:
        raise CatalogError(f"unknown function kind {kind!r}; known kinds: {sorted(known)}")
    extra = set(spec) - {"kind", "value", "coeffs", "amplitude", "frequency", "phase"}
    if extra:
        raise CatalogError(f"unknown function spec keys {sorted(extra)}")
    if kind == "zero":
        return lambda t: 0.0
    if kind == "const":
        v = float(spec.get("value", 0.0))
        return lambda t: v
    if kind == "poly":
        coeffs = [float(a) for a in spec.get("coeffs", [])]
        if not coeffs:
            return lambda t: 0.0

        def poly(t):
            acc = coeffs[-1]
            for a in reversed(coeffs[:-1]):
                acc = acc * t + a
            return acc

        return poly
    amp = float(spec.get("amplitude", 1.0))
    freq = float(spec.get("frequency", 1.0))
    phase = float(spec.get("phase", 0.0))
    osc = sin if kind == "sin" else cos
    return lambda t: amp * osc(freq * t + phase)


@dataclass
class CatalogEntry:
    key: str
    title: str
    coord_names: tuple[str, ...]
    csv_order: tuple[int, ...]
    has_seed: bool
    params: dict[str, ParamSpec]
    builder: Callable[[dict], "BuiltSystem"]
    default_box: tuple[tuple[float, float], ...]
    notes: str = ""

    @property
    def dim(self) -> int:
        return len(self.coord_names)


@dataclass
class BuiltSystem:
    """An instantiated entry: system, served seeds and helpers."""

    entry_key: str
    system: HamiltonianSystem
    seeds: list[ExtensionSeed]
    params: dict
    singular: Callable[[np.ndarray, float], bool] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def seed(self) -> ExtensionSeed:
        if not self.seeds:
            raise CatalogError(f"entry '{self.entry_key}' has no seed solution")
        return self.seeds[0]


# ---------------------------------------------------------------- quartic1


def _build_quartic1(p: dict) -> BuiltSystem:
    c1, c2, c3 = p["C1"], p["C2"], p["C3"]
    c, c0 = p["c"], p["c0"]
    f = p["f"]

    def lfun(co):
        q, pp = co
        fq = f(q)
        n = (
            16 * c1 * pp * pp
            + 8 * c1 * fq * pp
            + 2 * c * c1 * q * q
            + 4 * c * c2 * q
            + c1 * fq * fq
            + 8 * c1 * c3
        )
        return n * n / (256 * c1 * c1) - c0 / c

    def gfun(co):
        return c1 * co[0] + c2

    system = HamiltonianSystem(
        structure=canonical_structure(2),
        hamiltonian=ScalarField(lfun, 2, label="quartic1.L"),
    )
    seed = ExtensionSeed(
        field=ScalarField(gfun, 2, label="quartic1.G"),
        meta={"pair": (c, c0)},
    )
    return BuiltSystem("quartic1", system, [seed], p)


# ------------------------------------------------------- quartic2 variants


def _shift_pole_pred(c1: float, c2: float):
    def pred(x, margin):
        return abs(c1 * x[0] + c2) <= margin

    return pred


def _build_quartic2a(p: dict) -> BuiltSystem:
    c1, c2, c3, c4 = p["C1"], p["C2"], p["C3"], p["C4"]
    c, c0 = p["c"], p["c0"]

    def ffun(q):
        s = c1 * q + c2
        return q * q * c / 16 + c * c2 * q / (8 * c1) - c3 / (2 * c1 * s * s) + c4

    def lfun(co):
        q, pp = co
        fq = ffun(q)
        return pp**4 + fq * pp * pp + fq * fq / 4 - c0 / c

    def gfun(co):
        return (c1 * co[0] + c2) * co[1]

    pred = _shift_pole_pred(c1, c2) if c3 != 0 else None
    system = HamiltonianSystem(
        structure=canonical_structure(2),
        hamiltonian=ScalarField(lfun, 2, singular=pred, label="quartic2a.L"),
    )
    seed = ExtensionSeed(
        field=ScalarField(gfun, 2, label="quartic2a.G"),
        meta={"pair": (c, c0)},
    )
    return BuiltSystem("quartic2a", system, [seed], p, singular=pred)


def _quartic2b_fields(p: dict):
    c1, c2, c3, c4 = p["C1"], p["C2"], p["C3"], p["C4"]
    c, c0 = p["c"], p["c0"]

    def lfun(co):
        q, pp = co
        s = c1 * q + c2
        fq = s * s * c / (16 * c1 * c1) + c3 / (s * s)
        p7 = (
            -(c1**7) * c**3 * q**7
            - 8 * c1**6 * c2 * c**3 * q**6
            - 28 * c1**5 * c2**2 * c**3 * q**5
            - 56 * c1**4 * c2**3 * c**3 * q**4
            + (-70 * c1**3 * c2**4 * c**3 + 1024 * c0 * c1**7 - 32 * c1**5 * c3 * c**2) * q**3
            + (4096 * c0 * c1**6 * c2 - 128 * c1**4 * c2 * c3 * c**2 - 56 * c1**2 * c2**5 * c**3)
            * q**2
            + (-28 * c1 * c2**6 * c**3 + 6144 * c0 * c1**5 * c2**2 - 192 * c1**3 * c2**2 * c3 * c**2)
            * q
            - 8 * c2**7 * c**3
            + 4096 * c0 * c1**4 * c2**3
            - 128 * c1**2 * c2**3 * c3 * c**2
        )
        v = (c4 - q * p7 / (1024 * c * c1**3)) / s**4
        return pp**4 + fq * pp * pp + v

    def gfun(co):
        return (c1 * co[0] + c2) * co[1]

    return lfun, gfun


def _build_quartic2b(p: dict) -> BuiltSystem:
    c1, c2 = p["C1"], p["C2"]
    c, c0 = p["c"], p["c0"]
    lfun, gfun = _quartic2b_fields(p)
    pred = _shift_pole_pred(c1, c2)
    system = HamiltonianSystem(
        structure=canonical_structure(2),
        hamiltonian=ScalarField(lfun, 2, singular=pred, label="quartic2b.L"),
    )
    gfield = ScalarField(gfun, 2, label="quartic2b.G")
    # Build gate: the defining identity at fixed points with
    # 0.4 <= |C1 q + C2| <= 2, clear of the pole of L.
    q_box = tuple(sorted(((-2.0 - c2) / c1, (2.0 - c2) / c1)))
    probe = SampleSpec(intervals=(q_box, (-2.0, 2.0)), count=24, seed=20250, margin=0.4)
    gate = pde_residual(system, gfield, c, c0, probe, singular=pred)
    seed = ExtensionSeed(field=gfield, verified=gate.max_residual <= 1e-7,
                         meta={"pair": (c, c0)})
    return BuiltSystem("quartic2b", system, [seed], p, singular=pred)


# ------------------------------------------------------------ square_polar


def _build_square_polar(p: dict) -> BuiltSystem:
    c1, c2, c3 = p["C1"], p["C2"], p["C3"]
    c = p["c"]
    ffun = p["F"]

    def lfun(co):
        q1, q2, p1, p2 = co
        s = sin(q2)
        co2 = cos(q2)
        quad_coef = (2 * s * co2 * c2 * c3 + (c3 * c3 - c2 * c2) * co2 * co2) / (c3 * c3)
        v = (
            c / 8 * quad_coef * q1 * q1
            + c / 4 * (co2 / c3) * c1 * q1
            + ffun((s * c3 - co2 * c2) * q1)
        )
        return (p1 * p1 + p2 * p2 / (q1 * q1) + v) ** 2

    def gfun(co):
        q1, q2 = co[0], co[1]
        return (sin(q2) * c2 + cos(q2) * c3) * q1 + c1

    def pred(x, margin):
        return x[0] <= margin

    system = HamiltonianSystem(
        structure=canonical_structure(4),
        hamiltonian=ScalarField(lfun, 4, singular=pred, label="square_polar.L"),
    )
    seed = ExtensionSeed(
        field=ScalarField(gfun, 4, label="square_polar.G"),
        meta={"pair": (c, 0.0)},
    )
    return BuiltSystem("square_polar", system, [seed], p, singular=pred)


# ------------------------------------------------------------ point vortices


def _check_vortex_seed_consts(p: dict):
    if complex(p["F1"]) == 0 and complex(p["F2"]) == 0:
        raise CatalogError(
            "parameters 'F1' and 'F2' must not both vanish: the seed would be identically zero"
        )


def _build_vortex_equal(p: dict) -> BuiltSystem:
    _check_vortex_seed_consts(p)
    k, alpha, c0 = p["k"], p["alpha"], p["c0"]
    f1, f2 = complex(p["F1"]), complex(p["F2"])
    ecoef = math.sqrt(2 * c0) / (4 * alpha * k**3)

    def lfun(co):
        x1, y1 = co[0], co[2]
        return -alpha * k * k * log(4 * x1 * x1 + y1 * y1 / (k * k))

    def gfun(co):
        x1, y1 = co[0], co[2]
        q1 = 4 * k * k * x1 * x1 + y1 * y1
        e = ecoef * q1
        w = (y1 + (2j * k) * x1) / sqrt(q1)
        # w ** e as exp(e log w) on numbers too, so the value and jet paths
        # run one formula
        lw = log(w)
        return f1 * exp(e * lw) + f2 * exp(-e * lw)

    def radius(x):
        return math.hypot(2 * k * x[0], x[2])

    def lpred(x, margin):
        return radius(x) <= margin

    def gpred(x, margin):
        if radius(x) <= margin:
            return True
        # branch cut of the principal power: negative real axis of y1 + 2ik x1
        return x[2] < 0 and abs(2 * k * x[0]) <= margin * max(1.0, abs(x[2]))

    def exponent(x):
        q1 = 4 * k * k * x[0] ** 2 + x[2] ** 2
        return ecoef * q1

    def single_valued(x, tol=1e-9):
        e = exponent(x)
        return abs(e - round(e)) <= tol

    system = HamiltonianSystem(
        structure=canonical_structure(4),
        hamiltonian=ScalarField(lfun, 4, singular=lpred, label="vortex_equal.L"),
    )
    seed = ExtensionSeed(
        field=ScalarField(gfun, 4, codomain="complex", singular=gpred, label="vortex_equal.G"),
        meta={"pair": (0.0, c0)},
    )
    return BuiltSystem(
        "vortex_equal", system, [seed], p, singular=gpred,
        meta={"exponent": exponent, "single_valued": single_valued},
    )


def _build_vortex_opposite(p: dict) -> BuiltSystem:
    _check_vortex_seed_consts(p)
    k, alpha, c0 = p["k"], p["alpha"], p["c0"]
    f1, f2 = complex(p["F1"]), complex(p["F2"])
    pcoef = math.sqrt(2 * c0) / (2 * alpha * k * k)

    def lfun(co):
        x1, y2 = co[0], co[3]
        return alpha * k * k * log(4 * x1 * x1 + y2 * y2 / (k * k))

    def gfun(co):
        x1, x2, y2 = co[0], co[1], co[3]
        q2 = 4 * k * k * x1 * x1 + y2 * y2
        ph = pcoef * q2 * x2 / y2
        return f1 * sin(ph) + f2 * cos(ph)

    def pred(x, margin):
        return abs(x[3]) <= margin or math.hypot(2 * k * x[0], x[3]) <= margin

    system = HamiltonianSystem(
        structure=canonical_structure(4),
        hamiltonian=ScalarField(lfun, 4, singular=pred, label="vortex_opposite.L"),
        observables={
            "X1t": ScalarField(lambda co: co[0], 4, label="X1t"),
            "Y2t": ScalarField(lambda co: co[3], 4, label="Y2t"),
        },
    )
    seed = ExtensionSeed(
        field=ScalarField(gfun, 4, codomain="complex", singular=pred, label="vortex_opposite.G"),
        meta={"pair": (0.0, c0)},
    )
    return BuiltSystem("vortex_opposite", system, [seed], p, singular=pred)


# --------------------------------------------------------------- no-seed pair


def _build_lotka_volterra(p: dict) -> BuiltSystem:
    a, b, d, g = p["a"], p["b"], p["d"], p["g"]

    def entries(co):
        x, y = co
        amp = -(x ** (1 + g)) * y ** (1 + a) * exp(-b * y - d * x)
        return [[0.0, amp], [-1.0 * amp, 0.0]]

    def lfun(co):
        x, y = co
        return x ** (-g) * y ** (-a) * exp(d * x + b * y)

    def pred(x, margin):
        return x[0] <= margin or x[1] <= margin

    system = HamiltonianSystem(
        structure=PoissonStructure(2, entries=entries, label="lotka_volterra.pi"),
        hamiltonian=ScalarField(lfun, 2, singular=pred, label="lotka_volterra.L"),
    )
    return BuiltSystem("lotka_volterra", system, [], p, singular=pred)


def _build_euler_top(p: dict) -> BuiltSystem:
    i1, i2, i3 = p["I1"], p["I2"], p["I3"]

    def entries(co):
        m1, m2, m3 = co
        return [[0.0, -1.0 * m3, m2], [m3, 0.0, -1.0 * m1], [-1.0 * m2, m1, 0.0]]

    def lfun(co):
        m1, m2, m3 = co
        return 0.5 * (m1 * m1 / i1 + m2 * m2 / i2 + m3 * m3 / i3)

    system = HamiltonianSystem(
        structure=PoissonStructure(3, entries=entries, label="euler_top.pi"),
        hamiltonian=ScalarField(lfun, 3, label="euler_top.L"),
        observables={
            "M": ScalarField(lambda co: co[0] ** 2 + co[1] ** 2 + co[2] ** 2, 3, label="M"),
        },
    )

    def local_seed(c, c0, branch=1):
        return euler_local_seed_field(i1, i2, i3, c, c0, branch=branch)

    return BuiltSystem(
        "euler_top", system, [], p, meta={"local_seed_builder": local_seed},
    )


def euler_local_seed_field(i1: float, i2: float, i3: float, c: float, c0: float,
                           branch: int = 1) -> ScalarField:
    """Elliptic-integral local seed for the free rigid body.

    Real-valued on level sets where both I1 I2 (M - 2 I3 L) and
    I1 I3 (2 I2 L - M) are positive and c L + c0 < 0, which requires
    the ordering I1 > I2 > I3.  The exponent is the incomplete elliptic
    integral of the first kind

        int_0^x dt / sqrt((1 - t^2)(1 + kap t^2)) = x R_F(1 - x^2, 1 + kap x^2, 1)

    at a normalized m1 = x, with a signed shape modulus kap.  It runs on
    jets like every other field; points off the valid region raise a
    singular-point error.
    """
    if branch not in (1, -1):
        raise CatalogError("branch must be +1 or -1")

    def value(co):
        m1, m2, m3 = co
        lval = 0.5 * (m1 * m1 / i1 + m2 * m2 / i2 + m3 * m3 / i3)
        # I1 I2 (M - 2 I3 L) and I1 I3 (2 I2 L - M), expanded: their m3^2 and
        # m2^2 terms cancel exactly, and leaving them out keeps x2 accurate
        # near the separatrix x2 = 0
        x1 = i2 * (i1 - i3) * (m1 * m1) + i1 * (i2 - i3) * (m2 * m2)
        x2 = i3 * (i2 - i1) * (m1 * m1) + i1 * (i2 - i3) * (m3 * m3)
        if _val(x1) <= 0 or _val(x2) <= 0:
            raise SingularPointError("level-set factors are not both positive here")
        amp2 = i2 * (i1 - i3) / x1
        if _val(amp2) <= 0:
            raise SingularPointError("needs the moment ordering I1 > I2 > I3")
        rad = -2.0 * (c * lval + c0) / x2
        if _val(rad) <= 0:
            raise SingularPointError("needs c L + c0 < 0 on this level set")
        xval = m1 * sqrt(amp2)
        kap = i3 * (i1 - i2) * x1 / (i2 * (i1 - i3) * x2)
        xx = xval * xval
        y = 1 + kap * xx
        if abs(_val(xval)) >= 1 or _val(y) <= 0:
            raise SingularPointError("elliptic argument leaves the valid interval")
        fj = xval * _carlson_rf(1 - xx, y, 1.0)
        pref = i1 * i2 * i3 / math.sqrt(i2 * (i1 - i3))
        return exp(branch * pref * sqrt(rad) * fj)

    return ScalarField(value, 3, label="euler_top.localG")


def _val(a):
    return a.value if isinstance(a, Jet) else a


def _carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z) by duplication.

    Arguments are nonnegative with at most one zero, plain numbers or
    jets.  The loop stops once the argument values lie within 1e-3 of
    their mean, relative to it, and the fifth-order series then leaves
    a relative truncation error near 1e-19 (B. C. Carlson, Numer.
    Algorithms 10 (1995); DLMF 19.36.1).
    """
    while True:
        mu = (x + y + z) / 3.0
        m = _val(mu)
        if max(abs(_val(x) - m), abs(_val(y) - m), abs(_val(z) - m)) <= 1e-3 * m:
            break
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25
    ex = 1.0 - x / mu
    ey = 1.0 - y / mu
    ez = -(ex + ey)
    e2 = ex * ey - ez * ez
    e3 = ex * ey * ez
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(mu)


# ------------------------------------------------------------------ registry


def _num(default, desc, check=_finite_num):
    return ParamSpec(default=default, desc=desc, check=check)


def _numc(default, desc, extra):
    def check(v):
        return _finite_num(v) or extra(v)

    return ParamSpec(default=default, desc=desc, check=check)


def _fn_param(desc):
    return ParamSpec(default={"kind": "zero"}, desc=desc, check=lambda v: None, function=True)


_QUARTIC_BOX = ((-2.0, 2.0), (-2.0, 2.0))
_SHIFTED_BOX = ((0.4, 2.5), (-2.0, 2.0))

_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry):
    _ENTRIES[entry.key] = entry


_register(CatalogEntry(
    key="quartic1",
    title="Quartic oscillator family, seed linear in position",
    coord_names=("q", "p"),
    csv_order=(0, 1),
    has_seed=True,
    params={
        "C1": _numc(1.0, "seed slope", _nonzero),
        "C2": _num(0.0, "seed intercept"),
        "C3": _num(0.0, "energy shift inside the squared bracket"),
        "c": _numc(1.0, "defining-equation coefficient of L", _nonzero),
        "c0": _num(1.0, "defining-equation constant term"),
        "f": _fn_param("momentum-coupling profile f(q)"),
    },
    builder=_build_quartic1,
    default_box=_QUARTIC_BOX,
    notes="globally defined seed; any finite f(q) works",
))

_register(CatalogEntry(
    key="quartic2a",
    title="Quartic momentum family, regular potential branch",
    coord_names=("q", "p"),
    csv_order=(0, 1),
    has_seed=True,
    params={
        "C1": _numc(1.0, "seed slope", _nonzero),
        "C2": _num(0.0, "seed intercept"),
        "C3": _num(1.0, "strength of the inverse-square part of f"),
        "C4": _num(0.0, "constant part of f"),
        "c": _numc(1.0, "defining-equation coefficient of L", _nonzero),
        "c0": _num(1.0, "defining-equation constant term"),
    },
    builder=_build_quartic2a,
    default_box=_SHIFTED_BOX,
    notes="potential is f^2/4 up to a constant; pole at C1 q + C2 = 0 when C3 != 0",
))

_register(CatalogEntry(
    key="quartic2b",
    title="Quartic momentum family, rational potential branch",
    coord_names=("q", "p"),
    csv_order=(0, 1),
    has_seed=True,
    params={
        "C1": _numc(1.0, "seed slope", _nonzero),
        "C2": _num(0.0, "seed intercept"),
        "C3": _num(1.0, "strength of the inverse-square part of f"),
        "C4": _num(0.0, "numerator constant of the potential"),
        "c": _numc(1.0, "defining-equation coefficient of L", _nonzero),
        "c0": _num(1.0, "defining-equation constant term"),
    },
    builder=_build_quartic2b,
    default_box=_SHIFTED_BOX,
    notes="potential carries an explicit degree-7 numerator; residual-gated when built",
))

_register(CatalogEntry(
    key="square_polar",
    title="Squared natural Hamiltonian in polar-type coordinates",
    coord_names=("q1", "q2", "p1", "p2"),
    csv_order=(0, 1, 2, 3),
    has_seed=True,
    params={
        "C1": _num(0.5, "seed offset"),
        "C2": _num(0.5, "seed sine coefficient"),
        "C3": _numc(1.0, "seed cosine coefficient", _nonzero),
        "c": _numc(1.0, "defining-equation coefficient of L", _nonzero),
        "F": _fn_param("free potential profile of the seed argument"),
    },
    builder=_build_square_polar,
    default_box=((0.3, 2.0), (-3.0, 3.0), (-2.0, 2.0), (-2.0, 2.0)),
    notes="defining equation holds with constant pair (c, 0); radial coordinate kept positive",
))

_register(CatalogEntry(
    key="vortex_equal",
    title="Two identical point vortices, reduced coordinates",
    coord_names=("X1t", "X2t", "Y1t", "Y2t"),
    csv_order=(0, 2, 1, 3),
    has_seed=True,
    params={
        "k": _numc(1.0, "common vortex strength", _positive),
        "alpha": ParamSpec(default=0.125 / math.pi, desc="interaction scale", check=lambda v: _finite_num(v) or _positive(v)),
        "c0": _numc(0.5, "defining-equation constant term", _positive),
        "F1": ParamSpec(default=1.0, desc="coefficient of the forward power", check=_finite_complex),
        "F2": ParamSpec(default=0.0, desc="coefficient of the inverse power", check=_finite_complex),
    },
    builder=_build_vortex_equal,
    default_box=((0.2, 1.5), (-1.0, 1.0), (0.2, 1.5), (-1.0, 1.0)),
    notes="complex seed; single-valued exactly on level sets with integer exponent",
))

_register(CatalogEntry(
    key="vortex_opposite",
    title="Two opposite point vortices, reduced coordinates",
    coord_names=("X1t", "X2t", "Y1t", "Y2t"),
    csv_order=(0, 2, 1, 3),
    has_seed=True,
    params={
        "k": _numc(1.0, "vortex strength magnitude", _positive),
        "alpha": ParamSpec(default=0.125 / math.pi, desc="interaction scale", check=lambda v: _finite_num(v) or _positive(v)),
        "c0": _numc(0.5, "defining-equation constant term", _positive),
        "F1": ParamSpec(default=1.0, desc="sine coefficient", check=_finite_complex),
        "F2": ParamSpec(default=0.0, desc="cosine coefficient", check=_finite_complex),
    },
    builder=_build_vortex_opposite,
    default_box=((0.2, 1.5), (-1.0, 1.0), (-1.0, 1.0), (0.3, 1.5)),
    notes="both X1t and Y2t are conserved by the base flow",
))

_register(CatalogEntry(
    key="lotka_volterra",
    title="Predator-prey system on a nonconstant Poisson structure",
    coord_names=("x", "y"),
    csv_order=(0, 1),
    has_seed=False,
    params={
        "a": _numc(1.0, "prey growth rate", _positive),
        "b": _numc(1.0, "predation rate", _positive),
        "d": _numc(1.0, "predator growth rate", _positive),
        "g": _numc(1.0, "predator death rate", _positive),
    },
    builder=_build_lotka_volterra,
    default_box=((0.3, 3.0), (0.3, 3.0)),
    notes="no closed-form seed is served; base invariants only",
))

_register(CatalogEntry(
    key="euler_top",
    title="Free rigid body on angular momenta",
    coord_names=("m1", "m2", "m3"),
    csv_order=(0, 1, 2),
    has_seed=False,
    params={
        "I1": _numc(3.0, "first moment of inertia", _positive),
        "I2": _numc(2.0, "second moment of inertia", _positive),
        "I3": _numc(1.0, "third moment of inertia", _positive),
    },
    builder=_build_euler_top,
    default_box=((-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)),
    notes="no global seed; the elliptic-integral local one needs I1 > I2 > I3",
))


def entry_ids() -> list[str]:
    return list(_ENTRIES)


def get_entry(key: str) -> CatalogEntry:
    try:
        return _ENTRIES[key]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry {key!r}; available: {', '.join(_ENTRIES)}"
        ) from None


def instantiate(key: str, params: dict | None = None) -> BuiltSystem:
    """Build an entry with defaults merged under validated overrides."""
    entry = get_entry(key)
    overrides = dict(params or {})
    unknown = sorted(set(overrides) - set(entry.params))
    if unknown:
        raise CatalogError(
            f"unknown parameter(s) {unknown} for entry '{key}'; "
            f"known: {sorted(entry.params)}"
        )
    resolved = {}
    for name, spec in entry.params.items():
        v = overrides.get(name, spec.default)
        if spec.function:
            v = build_function(v)
        else:
            msg = spec.check(v)
            if msg:
                raise CatalogError(f"parameter '{name}' of entry '{key}' {msg} (got {v!r})")
        resolved[name] = v
    built = entry.builder(resolved)
    return built
