"""Forward-mode jets to second order over real and complex scalars.

A jet carries a value together with its gradient (and, at second order,
its Hessian) with respect to a fixed set of real coordinates.  Scalar
fields are evaluated by seeding one jet per coordinate and running the
field's defining expression through overloaded arithmetic, so the
reported derivatives are exact to rounding and Hessians are symmetric
by construction.  Values may turn complex mid-expression (principal
branches throughout); gradients follow through numpy dtype promotion.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "EvaluationError",
    "SingularPointError",
    "NonFiniteError",
    "Jet",
    "ScalarField",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "tan",
    "sinh",
    "cosh",
    "tanh",
]


class EvaluationError(Exception):
    """A scalar field could not be evaluated at the requested point."""


class SingularPointError(EvaluationError):
    """Evaluation was attempted on a declared singular set."""


class NonFiniteError(EvaluationError):
    """Evaluation produced a non-finite value."""


_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


def _either(mfn, cfn):
    def scalar(v):
        return cfn(v) if isinstance(v, complex) else mfn(v)

    return scalar


def _scalar_log(v):
    if isinstance(v, complex):
        return cmath.log(v)
    if v > 0.0:
        return math.log(v)
    if v == 0.0:
        raise EvaluationError("logarithm evaluated at zero")
    return cmath.log(complex(v))


def _scalar_sqrt(v):
    if isinstance(v, complex):
        return cmath.sqrt(v)
    if v >= 0.0:
        return math.sqrt(v)
    return cmath.sqrt(complex(v))


class Jet:
    """Value, gradient and optional Hessian; truncated Taylor arithmetic.

    ``hess is None`` marks a first-order jet, which skips all Hessian
    work.  Both operands of a binary operation carry the same order.
    """

    __slots__ = ("value", "grad", "hess")
    __array_ufunc__ = None

    def __init__(self, value, grad, hess=None):
        self.value = value
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Jet({self.value!r}, {self.grad!r}, {self.hess!r})"

    def __neg__(self):
        h = self.hess
        return Jet(-self.value, -self.grad, None if h is None else -h)

    def __add__(self, o):
        if isinstance(o, Jet):
            h = self.hess
            return Jet(self.value + o.value, self.grad + o.grad,
                       None if h is None else h + o.hess)
        if isinstance(o, _SCALARS):
            return Jet(self.value + o, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet):
            h = self.hess
            return Jet(self.value - o.value, self.grad - o.grad,
                       None if h is None else h - o.hess)
        if isinstance(o, _SCALARS):
            return Jet(self.value - o, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _SCALARS):
            h = self.hess
            return Jet(o - self.value, -self.grad, None if h is None else -h)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Jet):
            a, b = self.value, o.value
            grad = a * o.grad + b * self.grad
            if self.hess is None:
                return Jet(a * b, grad)
            cross = np.outer(self.grad, o.grad)
            return Jet(a * b, grad, a * o.hess + b * self.hess + cross + cross.T)
        if isinstance(o, _SCALARS):
            h = self.hess
            return Jet(self.value * o, self.grad * o, None if h is None else h * o)
        return NotImplemented

    __rmul__ = __mul__

    def _inv(self):
        w = 1.0 / self.value
        return _chain(self, w, -w * w, 2.0 * w * w * w)

    def __truediv__(self, o):
        if isinstance(o, Jet):
            return self * o._inv()
        if isinstance(o, _SCALARS):
            return self * (1.0 / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _SCALARS):
            return self._inv() * o
        return NotImplemented

    def __pow__(self, e):
        if isinstance(e, Jet):
            return exp(e * log(self))
        v = self.value
        if isinstance(e, numbers.Integral):
            n = int(e)
            if n == 0:
                return Jet(1.0, np.zeros_like(self.grad),
                           None if self.hess is None else np.zeros_like(self.hess))
            f2 = 0.0 if self.hess is None or n == 1 else n * (n - 1) * v ** (n - 2)
            return _chain(self, v**n, n * v ** (n - 1), f2)
        if isinstance(v, complex) or v <= 0.0:
            return exp(e * log(self))
        f2 = None if self.hess is None else e * (e - 1) * v ** (e - 2)
        return _chain(self, v**e, e * v ** (e - 1), f2)

    def __rpow__(self, base):
        if isinstance(base, _SCALARS):
            return exp(self * _scalar_log(base))
        return NotImplemented


def _chain(j: Jet, f0, f1, f2) -> Jet:
    """f(j) from the value f0 and the derivatives f1, f2 of f at j.value.

    ``f2`` is only read, and only needs computing, when ``j`` carries a
    Hessian.
    """
    g = j.grad
    if j.hess is None:
        return Jet(f0, f1 * g)
    return Jet(f0, f1 * g, f1 * j.hess + f2 * np.outer(g, g))


def _elementary(scalar, d1, d2):
    """Lift ``scalar`` to jets; ``d1(v, f0)`` and ``d2(v, f0)`` are its
    first and second derivatives at ``v``, where ``f0 = scalar(v)``."""

    def fn(x):
        if not isinstance(x, Jet):
            return scalar(x)
        v = x.value
        f0 = scalar(v)
        return _chain(x, f0, d1(v, f0), None if x.hess is None else d2(v, f0))

    return fn


_sin_of = _either(math.sin, cmath.sin)
_cos_of = _either(math.cos, cmath.cos)
_sinh_of = _either(math.sinh, cmath.sinh)
_cosh_of = _either(math.cosh, cmath.cosh)

exp = _elementary(_either(math.exp, cmath.exp), lambda v, f: f, lambda v, f: f)
log = _elementary(_scalar_log, lambda v, f: 1.0 / v, lambda v, f: -(1.0 / v) * (1.0 / v))
sqrt = _elementary(_scalar_sqrt, lambda v, f: 0.5 / f, lambda v, f: -0.25 * f / v**2)
sin = _elementary(_sin_of, lambda v, f: _cos_of(v), lambda v, f: -f)
cos = _elementary(_cos_of, lambda v, f: -_sin_of(v), lambda v, f: -f)
sinh = _elementary(_sinh_of, lambda v, f: _cosh_of(v), lambda v, f: f)
cosh = _elementary(_cosh_of, lambda v, f: _sinh_of(v), lambda v, f: f)
tan = _elementary(_either(math.tan, cmath.tan),
                  lambda v, t: 1.0 + t * t, lambda v, t: 2.0 * t * (1.0 + t * t))
tanh = _elementary(_either(math.tanh, cmath.tanh),
                   lambda v, t: 1.0 - t * t, lambda v, t: -2.0 * t * (1.0 - t * t))


def _finite(v):
    try:
        ok = math.isfinite(abs(v))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise NonFiniteError("field evaluation produced a non-finite value")
    return v


@dataclass
class ScalarField:
    """A scalar-valued field over a fixed number of real coordinates.

    ``fn`` receives one ring element per coordinate (plain numbers or
    jets, interchangeably) and combines them with ordinary arithmetic
    and the math functions exported by this module.  ``singular`` is an
    optional predicate ``(point, margin) -> bool`` declaring where the
    field must not be evaluated.
    """

    fn: Callable[[list], Any]
    dim: int
    codomain: str = "real"
    singular: Callable[[np.ndarray, float], bool] | None = None
    label: str = ""

    def __post_init__(self):
        if self.codomain not in ("real", "complex"):
            raise ValueError(f"codomain must be 'real' or 'complex', got {self.codomain!r}")
        if self.dim < 1:
            raise ValueError("field dimension must be positive")

    def _pre(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            name = self.label or "field"
            raise EvaluationError(
                f"dimension mismatch: {name} expects {self.dim} coordinates, got shape {x.shape}"
            )
        if self.singular is not None and self.singular(x, 0.0):
            name = self.label or "field"
            raise SingularPointError(f"{name} evaluated on its singular set at {x.tolist()}")
        return x

    def _run(self, x: np.ndarray, args: list):
        try:
            return self.fn(args)
        except ZeroDivisionError:
            raise NonFiniteError(f"{self.label or 'field'} divides by zero "
                                 f"at {x.tolist()}") from None
        except OverflowError:
            raise NonFiniteError(f"{self.label or 'field'} overflows "
                                 f"at {x.tolist()}") from None

    def value(self, x):
        x = self._pre(x)
        return _finite(self._run(x, x.tolist()))

    __call__ = value

    def jet1(self, x) -> Jet:
        """Value and gradient at ``x``."""
        return self._jet(x, second_order=False)

    def jet2(self, x) -> Jet:
        """Value, gradient and Hessian at ``x``."""
        return self._jet(x, second_order=True)

    def _jet(self, x, second_order: bool) -> Jet:
        x = self._pre(x)
        d = self.dim
        eye = np.eye(d)
        zero = np.zeros((d, d)) if second_order else None
        out = self._run(x, [Jet(v, eye[i], zero) for i, v in enumerate(x.tolist())])
        if not isinstance(out, Jet):
            out = Jet(out, np.zeros(d), np.zeros((d, d)) if second_order else None)
        _finite(out.value)
        return out
