"""Forward-mode jets to second order over real and complex scalars.

A jet carries a value together with its gradient (and, at second order,
its Hessian) with respect to a fixed set of real coordinates.  Scalar
fields are evaluated by seeding one jet per coordinate and running the
field's defining expression through overloaded arithmetic, so the
reported derivatives are exact to rounding and Hessians are symmetric
by construction.  Values may turn complex mid-expression (principal
branches throughout).

Inside jet arithmetic a gradient is a tuple of plain Python numbers,
real or complex entry by entry, and a Hessian is a flat row-major tuple
of the same kind, so propagation at either order allocates no numpy
arrays.  Each Hessian entry is formed with the association numpy would
use on the full matrices (``f2 * (g[i] * g[k])`` for the outer-product
term), so real results match an array implementation bit for bit.  At
the :class:`ScalarField` boundary ``jet1``/``jet2`` hand the gradient
back as an ndarray of shape ``(dim,)`` and the Hessian as one of shape
``(dim, dim)``, complex when any entry turned complex, and reject
non-finite values, gradients and Hessians with :class:`NonFiniteError`.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from operator import add as _add, sub as _sub
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

    Inside arithmetic the gradient is a tuple of plain numbers and the
    Hessian, when carried, a flat row-major tuple of d*d plain numbers,
    so no arithmetic allocates arrays.  ``hess is None`` marks a
    first-order jet, which skips all Hessian work.  Both operands of a
    binary operation carry the same order.  :class:`ScalarField` hands
    gradients and Hessians out as ndarrays.
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
        return Jet(-self.value, _neg(self.grad), None if h is None else _neg(h))

    def __add__(self, o):
        if isinstance(o, Jet):
            h = self.hess
            return Jet(self.value + o.value, tuple(map(_add, self.grad, o.grad)),
                       None if h is None else tuple(map(_add, h, o.hess)))
        if isinstance(o, _SCALARS):
            return Jet(self.value + o, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet):
            h = self.hess
            return Jet(self.value - o.value, tuple(map(_sub, self.grad, o.grad)),
                       None if h is None else tuple(map(_sub, h, o.hess)))
        if isinstance(o, _SCALARS):
            return Jet(self.value - o, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _SCALARS):
            h = self.hess
            return Jet(o - self.value, _neg(self.grad), None if h is None else _neg(h))
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Jet):
            a, b = self.value, o.value
            grad = tuple([a * y + b * x for x, y in zip(self.grad, o.grad)])
            if self.hess is None:
                return Jet(a * b, grad)
            # a H_o + b H_self + (g_self g_o^T) + (g_self g_o^T)^T
            cross = [x * y for x in self.grad for y in o.grad]
            return Jet(a * b, grad, tuple([
                a * y + b * x + c + cross[t]
                for x, y, c, t in zip(self.hess, o.hess, cross, _transposed(len(grad)))]))
        if isinstance(o, _SCALARS):
            h = self.hess
            return Jet(self.value * o, tuple([g * o for g in self.grad]),
                       None if h is None else tuple([x * o for x in h]))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            # q = a / b: b grad q = grad a - q grad b, and the Hessian
            # follows from differentiating a = q b twice
            b = o.value
            q = self.value / b
            grad = tuple([(x - q * y) / b for x, y in zip(self.grad, o.grad)])
            if self.hess is None:
                return Jet(q, grad)
            cross = [x * y for x in grad for y in o.grad]
            return Jet(q, grad, tuple([
                (x - q * y - c - cross[t]) / b
                for x, y, c, t in zip(self.hess, o.hess, cross, _transposed(len(grad)))]))
        if isinstance(o, _SCALARS):
            h = self.hess
            return Jet(self.value / o, tuple([g / o for g in self.grad]),
                       None if h is None else tuple([x / o for x in h]))
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _SCALARS):
            v = self.value
            w = o / v
            return _chain(self, w, -w / v, None if self.hess is None else 2.0 * w / (v * v))
        return NotImplemented

    def __pow__(self, e):
        if isinstance(e, Jet):
            return exp(e * log(self))
        v = self.value
        if isinstance(e, (int, np.integer)):
            n = int(e)
            if n == 0:
                h = self.hess
                return Jet(1.0, (0.0,) * len(self.grad), None if h is None else (0.0,) * len(h))
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


def _neg(t: tuple) -> tuple:
    return tuple([-x for x in t])


@functools.cache
def _transposed(d: int) -> tuple:
    """Position in a flat row-major d x d matrix of each entry's transpose."""
    return tuple(k * d + i for i in range(d) for k in range(d))


def _chain(j: Jet, f0, f1, f2) -> Jet:
    """f(j) from the value f0 and the derivatives f1, f2 of f at j.value.

    ``f2`` is only read, and only needs computing, when ``j`` carries a
    Hessian.
    """
    g = j.grad
    grad = tuple([f1 * x for x in g])
    if j.hess is None:
        return Jet(f0, grad)
    # f1 H + f2 (g g^T)
    outer = [x * y for x in g for y in g]
    return Jet(f0, grad, tuple([f1 * h + f2 * c for h, c in zip(j.hess, outer)]))


@functools.cache
def _unit_rows(d: int) -> tuple:
    return tuple(tuple(1.0 if i == k else 0.0 for k in range(d)) for i in range(d))


def _seeds(xs: list, second_order: bool = False) -> list:
    """One jet per coordinate value, seeded with the unit gradient rows."""
    d = len(xs)
    zero = (0.0,) * (d * d) if second_order else None
    return [Jet(v, row, zero) for v, row in zip(xs, _unit_rows(d))]


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

    def _finite(self, x: np.ndarray, v):
        """``v`` itself if it is a finite number, else :class:`NonFiniteError`."""
        try:
            if cmath.isfinite(v):
                return v
            how = "overflows" if cmath.isinf(v) else "is not a number"
        except OverflowError:
            how = "overflows"
        except TypeError:
            how = "is not a number"
        raise NonFiniteError(f"{self.label or 'field'} {how} at {x.tolist()}")

    def value(self, x):
        x = self._pre(x)
        return self._finite(x, self._run(x, x.tolist()))

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
        out = self._run(x, _seeds(x.tolist(), second_order))
        if not isinstance(out, Jet):
            return Jet(self._finite(x, out), np.zeros(d),
                       np.zeros((d, d)) if second_order else None)
        self._finite(x, out.value)
        if not all(map(cmath.isfinite, out.grad)):
            raise NonFiniteError(f"{self.label or 'field'} has a non-finite gradient "
                                 f"at {x.tolist()}")
        if not second_order:
            return Jet(out.value, np.array(out.grad))
        if not all(map(cmath.isfinite, out.hess)):
            raise NonFiniteError(f"{self.label or 'field'} has a non-finite Hessian "
                                 f"at {x.tolist()}")
        return Jet(out.value, np.array(out.grad), np.array(out.hess).reshape(d, d))
