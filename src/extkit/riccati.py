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

from .jets import EvaluationError, NonFiniteError, _real

__all__ = ["PoleError", "RiccatiParams", "riccati_eval"]

# Distance below which a trig denominator counts as an exact pole.
_POLE_TOL = 1e-12


class PoleError(EvaluationError):
    """Evaluation landed on a pole of the Riccati solution or of omega / y^2."""


def _tag(kappa: float) -> tuple | None:
    """(sqrt |kappa|, sine, cosine) of the curvature ``kappa``: circular for
    kappa > 0, hyperbolic for kappa < 0, and None for kappa = 0."""
    if kappa > 0.0:
        return math.sqrt(kappa), math.sin, math.cos
    if kappa < 0.0:
        return math.sqrt(-kappa), math.sinh, math.cosh
    return None


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
            _real(getattr(self, name), f"Riccati parameter {name}")
        # the curvature's tag, formed once here rather than on every evaluation
        object.__setattr__(self, "_tag", None if self.c == 0.0 else _tag(self.kappa))

    @property
    def kappa(self) -> float:
        if self.c == 0.0:
            raise ValueError("curvature ratio C/c undefined for c = 0")
        return self.C / self.c


def riccati_eval(params: RiccatiParams, u: float) -> tuple[float, float, float]:
    """Solution value, slope and curvature at ``u``.

    Returns ``(y, y', y'')`` with ``y'' = -2 c y y'`` (differentiate the
    equation once; C is constant).  Near a pole of the solution, points
    within ``1e-12`` of the pole raise :class:`PoleError`, and a hyperbolic
    profile so far out in u that sinh and cosh overflow raises
    :class:`~extkit.jets.NonFiniteError`.  The flows call
    it at every stage, so it reads the curvature's tag (:func:`_tag`) from
    ``params``, where it was formed once, and computes S and C inline.
    """
    du = u - params.offset
    if params.c == 0.0:
        return -params.C * du, -params.C, 0.0
    x = params.c * du
    if params._tag is None:
        s, c = x, 1.0
    else:
        r, sin, cos = params._tag
        try:
            s, c = sin(r * x) / r, cos(r * x)
        except OverflowError:
            # sinh and cosh pass the largest float once |r x| exceeds about 710
            raise NonFiniteError(f"Riccati solution overflows at u = {u!r}: "
                                 f"sinh and cosh of {r * x!r}") from None
    if abs(s) <= _POLE_TOL:
        raise PoleError(f"Riccati solution has a pole at u = {params.offset!r}"
                        f" (+ period); got u = {u!r}")
    y = c / s
    dy = -params.c / (s * s)
    return y, dy, -2.0 * params.c * y * dy
