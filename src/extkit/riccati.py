"""Closed-form solutions of the constant-coefficient Riccati equation.

The equation is ``y' + c*y**2 + C = 0`` with constants ``(c, C)`` not
both zero.  Solutions are expressed through curvature-tagged circular /
hyperbolic functions: for curvature ``kappa``,

    S_kappa(x) = sin(sqrt(kappa) x)/sqrt(kappa)   (kappa > 0)
                 x                                 (kappa = 0)
                 sinh(sqrt(-kappa) x)/sqrt(-kappa) (kappa < 0)

with C_kappa the matching cosine and T_kappa = S_kappa / C_kappa, so
that C_kappa**2 + kappa * S_kappa**2 = 1 identically.  With c != 0 and
kappa = C/c the solution is y(u) = C_kappa(c u)/S_kappa(c u); with
c = 0 it is y(u) = -C u.  An optional offset shifts the origin in u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .jets import EvaluationError

__all__ = ["PoleError", "tagged_trig", "RiccatiParams", "riccati_eval"]

# Distance below which a trig denominator counts as an exact pole.
_POLE_TOL = 1e-12


class PoleError(EvaluationError):
    """Evaluation landed on a pole of T_kappa or of the Riccati solution."""


def _sc(kappa: float, x: float) -> tuple[float, float]:
    if kappa > 0.0:
        r = math.sqrt(kappa)
        return math.sin(r * x) / r, math.cos(r * x)
    if kappa < 0.0:
        r = math.sqrt(-kappa)
        return math.sinh(r * x) / r, math.cosh(r * x)
    return x, 1.0


def tagged_trig(kappa: float, x: float) -> tuple[float, float, float]:
    """S_kappa, C_kappa and T_kappa at ``x``.

    Raises :class:`PoleError` when ``x`` sits on a pole of T_kappa.
    """
    s, c = _sc(kappa, x)
    if abs(c) <= _POLE_TOL:
        raise PoleError(f"T_{kappa:g} has a pole at x = {x!r}")
    return s, c, s / c


@dataclass(frozen=True)
class RiccatiParams:
    """Coefficients ``(c, C)`` and origin offset for y' + c y^2 + C = 0."""

    c: float
    C: float
    offset: float = 0.0

    def __post_init__(self):
        if self.c == 0.0 and self.C == 0.0:
            raise ValueError("Riccati coefficients c and C must not both vanish")
        for name in ("c", "C", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Riccati parameter {name} must be finite")

    @property
    def kappa(self) -> float:
        if self.c == 0.0:
            raise ValueError("curvature ratio C/c undefined for c = 0")
        return self.C / self.c


def riccati_eval(params: RiccatiParams, u: float) -> tuple[float, float, float]:
    """Solution value, slope and curvature at ``u``.

    Returns ``(y, y', y'')`` with ``y'' = -2 c y y'`` (differentiate the
    equation once; C is constant).  Near a pole of the solution, points
    within ``1e-12`` of the pole raise :class:`PoleError`.
    """
    du = u - params.offset
    if params.c == 0.0:
        return -params.C * du, -params.C, 0.0
    s, c = _sc(params.kappa, params.c * du)
    if abs(s) <= _POLE_TOL:
        raise PoleError(f"Riccati solution has a pole at u = {params.offset!r}"
                        f" (+ period); got u = {u!r}")
    y = c / s
    dy = -params.c / (s * s)
    return y, dy, -2.0 * params.c * y * dy
