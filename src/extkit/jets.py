"""Forward-mode jets to second order over real and complex scalars.

A jet carries a value together with its gradient (and, at second order,
its Hessian) with respect to a fixed set of real coordinates.  Scalar
fields are evaluated by seeding one jet per coordinate and running the
field's defining expression through overloaded arithmetic, so the
reported derivatives are exact to rounding.  A Hessian is symmetric to
rounding, not always bit for bit: the product and quotient rules add their
two cross terms in one order for entry (i, k) and in the other for (k, i).
Values may turn complex mid-expression (principal branches throughout).

Inside jet arithmetic a gradient is a tuple of plain Python numbers,
real or complex entry by entry, and a Hessian is a flat row-major tuple
of the same kind, so propagation at either order allocates no numpy
arrays.  Each Hessian entry is formed with the association numpy would
use on the full matrices (``f2 * (g[i] * g[k])`` for the outer-product
term), so real results match an array implementation bit for bit.

At the :class:`ScalarField` boundary every evaluation rejects a point of
the wrong dimension or on the declared singular set.  One rule
(``ScalarField._result``) takes what ``fn`` returned on every path (a
compiled kernel's result was held to it when recorded): a plain
number, whose derivatives are zero, or a jet of the order asked for with a
gradient of ``dim`` entries and, at second order, a Hessian of ``dim**2``.
A result of another order or size raises :class:`EvaluationError`, and a
non-finite value, gradient or Hessian :class:`NonFiniteError`.  There is
one first-order entry point, ``value_grad``: a list of floats in, the
value and the gradient tuple out, no numpy on the way.  The flows call
it once per right-hand side.  ``jet1`` is ``value_grad`` for any
coordinate sequence, with the gradient handed back as an ndarray of
shape ``(dim,)``; ``jet2`` adds the Hessian as one of shape
``(dim, dim)``.  An ndarray is complex when any entry turned complex.

``value_grad`` compiles.  Its first call runs ``fn`` on jets whose values
are tape scalars, so the unchanged jet rules record every scalar operation
in order, as structured ops (operation, destination register, operand
registers) on a tape in the sense of Griewank & Walther, *Evaluating
Derivatives*, 2008, ch. 3 and 6.  It generates one straight-line Python
function over plain numbers from the ops and compiles it.  That call and
every later one run the kernel, and ``fn`` no longer runs.  Constants reach
the kernel by reference.  The scalar dispatchers (math or cmath) are
recorded as calls, so the kernel still picks on each call.  A comparison
on a value becomes a guard.  The kernel runs inside the same error mapping
and finiteness checks as the jet path, so its values, gradients, errors and
messages are bit for bit those of the jet path.

The kernel and the cloud replay below run the ops :meth:`_Tape.pruned`
leaves, a common-subexpression and dead-code pass in the sense of Griewank
& Walther, ch. 6.  Constants of one type and value share a register.  An op
on the same registers as an earlier op of its kind, and a guard met before,
are merged into the earlier one, which runs first and so raises first.
``x * 1.0``, ``1.0 * x`` and ``x / 1.0`` read ``x`` where ``x`` is a float
at every point.  Last, an op that nothing reads is dropped where it cannot
raise: ``+``, ``-`` and ``*`` of floats and complexes, ``neg`` and ``abs``
of a float.  Every division, power, call, complex ``abs`` and guard stays,
so a dead op that raises still raises and a cloud marks the points it
marked.  Nothing is folded: every recorded op reads a tape scalar, and none
of these steps turns one into a constant.  ``x * 0.0`` stays, since it is
NaN at an infinite ``x`` and takes ``x``'s sign.  Each step keeps every
value and its type at float coordinates, so a kernel's first guard fails
on a coordinate that is not a float: ``(-0-1j) * 1.0`` is ``(0-1j)``, and
``3 * 1.0`` is ``3.0``.  On the catalog it takes square_polar.L's gradient
tape from 231 ops to 105 and its Hessian tape from 1563 to 400.

The contract: ``fn`` is a pure function of its coordinates and of closure
constants that are fixed once the field is built.  A field stays on jets
for good when its recording fails: ``fn`` tests the type of a value
(``isinstance``), applies unary plus to one, calls ``float()``, ``bool()``,
``complex()``, numpy or math on one, or raises while recording.  The
recording is made at the first point asked, so a ``fn`` that raises there
runs on jets from that call on; the singular test comes first, so a point
on the declared singular set records nothing.  A tape records no type, so
the jet rules test none on a value: :meth:`Jet.__pow__` asks ``type()`` of
its base, which never consults a tape scalar.  Its sign guard cannot
compare a complex one, so a field that takes a non-integer number power of
a complex value stays on jets too, as does a field whose guard fails: that
call and every later one run on jets.
A caller of ``value_grad`` hands it floats, as when it was recorded; a
coordinate that is not a float sends the field to jets the same way.
Reassigning ``fn`` drops the kernel.

Second order runs over clouds of points.
``jet2_cloud`` records ``fn``'s second-order jet once, at one point of the
first cloud of B points, and replays the ops over all of them at once: each
tape temporary becomes an ndarray of shape (B,), dropped after its last
use.  The replay interprets the ops and compiles nothing.  A Hessian tape
is about d times longer than a gradient tape: square_polar.L's has some
1500 ops, 400 once pruned.  In a prototype (before pruning), compiling it
peaked near 3.7 MiB and raised the peak memory of the sampled-gates
benchmark by 5.5 %, while at B = 300 the interpreter ran as fast as the
compiled source and a replay peaks below 1 MiB, its recording included.
The checked and pruned ops are kept on the field, a list of tuples, and
every later cloud of the same ``fn`` replays them: reassigning ``fn`` drops
them, as it drops the kernel, and a recording that fails is not kept.  A
later cloud gets the numbers a recording of its own would give: a row whose
branch differs from the recorded one fails a guard and is marked, as any
row of the first cloud can.
Each value the replay leaves at a point is the one ``jet2`` computes
there, bit for bit: numpy does only the real arithmetic and complex + and
-, complex * follows CPython's own formula on the parts, and complex /,
``**`` and the dispatchers run through CPython, point by point
(:meth:`_Tape.replay`).  A point where that cannot hold is marked, and its
caller asks ``jet2`` there.  ``jet2`` and ``value`` run
``fn`` on jets and on numbers, and their values agree: a jet takes every
power's value from ``**``, as a number does.  So ``pde_residual`` takes
X_L^2 G, L and G at each unmarked point from the cloud.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from operator import add as _add, sub as _sub
from typing import Any, Callable, Sequence

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


# The number rule: the one test of every integer, sign and finite-real argument
# the package takes (indices, counts, seeds, strides, dimensions, steps,
# tolerances, constants).  A bool is never a number, numpy integer and float
# scalars are, and an integer argument refuses 2.0.  A refusal is a ValueError
# "<name> must be ..., got <value>".  The tests are on exact types: they leave
# out bool without a test of their own, and they are the cheapest form on the
# hot path of K, where each power_coeffs call checks three integers.

def _integer(value, name: str, least: int):
    """``value``, once it is a Python or numpy integer of at least ``least``."""
    if not (type(value) is int or isinstance(value, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return value


def _sign(value, name: str):
    """``value`` must be the integer +1 or -1."""
    if not (type(value) is int or isinstance(value, np.integer)) or abs(value) != 1:
        raise ValueError(f"{name} must be the integer +1 or -1, got {value!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a finite Python or numpy int or float; an int
    too large for a float is not."""
    try:
        return ((type(value) in (int, float) or isinstance(value, (np.integer, np.floating)))
                and math.isfinite(value))
    except OverflowError:
        return False


def _real(value, name: str = "value", bound: str = "") -> float:
    """``value`` as a float, once :func:`_is_real` holds and, where ``bound``
    is "positive" or "nonnegative", the value is."""
    if not _is_real(value) or bound and (value <= 0 if bound == "positive" else value < 0):
        what = f"finite and {bound}" if bound else "a finite real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return float(value)


# The scalar dispatchers pick math or cmath by the argument's type.  On a
# tape scalar they record a call to themselves, so a compiled kernel picks
# on every call as the jet path does.

def _either(mfn, cfn):
    def scalar(v):
        if type(v) is _Var:
            return v.call(scalar)
        return cfn(v) if isinstance(v, complex) else mfn(v)

    scalar.float_to_float = True  # a float in gives a float out (_Tape.pruned)
    return scalar


def _scalar_log(v):
    if type(v) is _Var:
        return v.call(_scalar_log)
    if isinstance(v, complex):
        return cmath.log(v)
    if v > 0.0:
        return math.log(v)
    if v == 0.0:
        raise EvaluationError("logarithm evaluated at zero")
    return cmath.log(complex(v))


def _scalar_sqrt(v):
    if type(v) is _Var:
        return v.call(_scalar_sqrt)
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
    gradients and Hessians out as ndarrays; a handed-out jet keeps its
    flat Hessian for the rules, so arithmetic on it stays exact.
    """

    # the rules read _hess; _matrix is set only by ScalarField.jet2
    __slots__ = ("value", "grad", "_hess", "_matrix")
    __array_ufunc__ = None

    def __init__(self, value, grad, hess=None):
        self.value = value
        self.grad = grad
        self._hess = hess

    @property
    def hess(self):
        """None at first order, the flat tuple inside arithmetic, and an
        ndarray of shape (d, d) on a jet that :meth:`ScalarField.jet2`
        hands out."""
        return getattr(self, "_matrix", self._hess)

    def __repr__(self):
        return f"Jet({self.value!r}, {self.grad!r}, {self.hess!r})"

    def __neg__(self):
        h = self._hess
        return Jet(-self.value, _neg(self.grad), None if h is None else _neg(h))

    def __add__(self, o):
        if isinstance(o, Jet):
            h = self._hess
            return Jet(self.value + o.value, tuple(map(_add, self.grad, o.grad)),
                       None if h is None else tuple(map(_add, h, o._hess)))
        if isinstance(o, _SCALARS):
            return Jet(self.value + o, self.grad, self._hess)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet):
            h = self._hess
            return Jet(self.value - o.value, tuple(map(_sub, self.grad, o.grad)),
                       None if h is None else tuple(map(_sub, h, o._hess)))
        if isinstance(o, _SCALARS):
            return Jet(self.value - o, self.grad, self._hess)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _SCALARS):
            h = self._hess
            return Jet(o - self.value, _neg(self.grad), None if h is None else _neg(h))
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, Jet):
            a, b = self.value, o.value
            grad = tuple([a * y + b * x for x, y in zip(self.grad, o.grad)])
            if self._hess is None:
                return Jet(a * b, grad)
            # a H_o + b H_self + (g_self g_o^T) + (g_self g_o^T)^T
            cross = [x * y for x in self.grad for y in o.grad]
            return Jet(a * b, grad, tuple([
                a * y + b * x + c + cross[t]
                for x, y, c, t in zip(self._hess, o._hess, cross, _transposed(len(grad)))]))
        if isinstance(o, _SCALARS):
            h = self._hess
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
            if self._hess is None:
                return Jet(q, grad)
            cross = [x * y for x in grad for y in o.grad]
            return Jet(q, grad, tuple([
                (x - q * y - c - cross[t]) / b
                for x, y, c, t in zip(self._hess, o._hess, cross, _transposed(len(grad)))]))
        if isinstance(o, _SCALARS):
            h = self._hess
            return Jet(self.value / o, tuple([g / o for g in self.grad]),
                       None if h is None else tuple([x / o for x in h]))
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _SCALARS):
            v = self.value
            w = o / v
            return _chain(self, w, -w / v, None if self._hess is None else 2.0 * w / (v * v))
        return NotImplemented

    # Every power takes its value from ``**``, as a plain number does.  A jet
    # exponent, or a non-integer power of a negative or complex base, takes
    # its derivatives from exp(e log v), built first so that a logarithm at
    # zero raises before the value is formed.  A zero base to a number power
    # takes the real power rule, whose ``**`` gives finite derivatives or
    # raises ZeroDivisionError.
    def __pow__(self, e):
        v = self.value
        if isinstance(e, Jet):
            return _revalued(exp(e * log(self)), v ** e.value)
        if isinstance(e, (int, np.integer)):
            n = int(e)
            if n == 0:
                h = self._hess
                return Jet(v**n, (0.0,) * len(self.grad), None if h is None else (0.0,) * len(h))
            f2 = 0.0 if self._hess is None or n == 1 else n * (n - 1) * v ** (n - 2)
            return _chain(self, v**n, n * v ** (n - 1), f2)
        if issubclass(type(v), complex) or v < 0.0:
            return _revalued(exp(e * log(self)), v**e)
        f2 = None if self._hess is None else e * (e - 1) * v ** (e - 2)
        return _chain(self, v**e, e * v ** (e - 1), f2)

    def __rpow__(self, base):
        if isinstance(base, _SCALARS):
            return _revalued(exp(self * _scalar_log(base)), base**self.value)
        return NotImplemented


def _revalued(j: Jet, value) -> Jet:
    return Jet(value, j.grad, j._hess)


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
    if j._hess is None:
        return Jet(f0, grad)
    # f1 H + f2 (g g^T)
    outer = [x * y for x in g for y in g]
    return Jet(f0, grad, tuple([f1 * h + f2 * c for h, c in zip(j._hess, outer)]))


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
        return _chain(x, f0, d1(v, f0), None if x._hess is None else d2(v, f0))

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


# ------------------------------------------------------------------- tapes


class _Untraceable(BaseException):
    """``fn`` asked a tape scalar for something a tape cannot replay.

    A BaseException, so that an ``except Exception`` inside ``fn`` cannot
    catch it and go on down a branch the jet path would not take.
    """


class _GuardFailed(Exception):
    """A kernel guard saw a decision go the other way than when recorded."""


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "**": operator.pow}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "==": operator.eq, "!=": operator.ne}
_UNARY = {"neg": "-{}", "abs": "abs({})"}
# the constant types a cloud replay takes as operands, which numpy combines
# with float64 and complex128 arrays as Python combines them with numbers
_CLOUD_CONSTS = (bool, int, float, complex)


class _Tape:
    """The scalar operations of one run of a field's ``fn``, in order.

    Every number the run meets gets a register: the coordinates first, then
    each constant and each result as it appears.  ``vals`` holds each
    register's value in this run, and ``consts`` the constant registers.
    ``ops`` holds one ``(op, dest, a, b)`` per operation, ``a`` and ``b``
    registers:

    - ``op`` in :data:`_BINARY`: register ``dest`` = ``a op b``;
    - ``"neg"``, ``"abs"``: ``dest`` = ``op(a)``, ``b`` unused;
    - ``"call"``: ``dest`` = ``b(a)``, ``b`` holding a scalar dispatcher;
    - ``op`` in :data:`_COMPARE`: a guard that ``a op b`` comes out as
      ``dest``, the recorded outcome.

    :meth:`compile` turns the ops into the source of a first-order kernel,
    and :meth:`replay` runs them over a cloud of points at once, both from
    the op list :meth:`pruned` leaves.
    """

    def __init__(self, xs: list):
        self.dim = len(xs)
        self.vals: list = list(xs)
        self.consts: list[int] = []
        self.ops: list[tuple] = []
        self._regs: dict[int, int] = {}

    def const(self, obj) -> int:
        # vals keeps obj alive, so its id stays its own
        reg = self._regs.get(id(obj))
        if reg is None:
            reg = self._regs[id(obj)] = len(self.vals)
            self.vals.append(obj)
            self.consts.append(reg)
        return reg

    def operand(self, o) -> int | None:
        """The register of a tape scalar or a number, else None."""
        if type(o) is _Var:
            return o.reg
        return self.const(o) if isinstance(o, _SCALARS) else None

    def emit(self, op: str, a: int, b, val) -> "_Var":
        reg = len(self.vals)
        self.vals.append(val)
        self.ops.append((op, reg, a, b))
        return _Var(self, reg, val)

    def guard(self, op: str, a: int, b: int, outcome):
        """Replays go on only while ``a op b`` comes out as it did here."""
        self.ops.append((op, outcome, a, b))

    def outputs(self, out, d: int, second_order: bool) -> tuple:
        """The registers of ``fn``'s result ``out``: its value's, then its
        gradient's and Hessian's as lists, both None when ``fn`` returned a
        plain number.  A result :func:`_sized` refuses cannot be replayed."""
        def reg(o):
            r = self.operand(o)
            if r is None:
                raise _Untraceable
            return r

        value, grad, hess = _unpack(out)
        if not _sized(grad, hess, d, second_order):
            raise _Untraceable
        return (reg(value), None if grad is None else [reg(g) for g in grad],
                None if hess is None else [reg(h) for h in hess])

    def pruned(self, wanted: list) -> tuple:
        """``(ops, wanted)``: the ops that still give the registers
        ``wanted``, and the registers that then hold them.

        At every point where the coordinates are floats, each kept op and
        each register handed back holds what the whole tape holds there, of
        the same type, and the first op that raises, or the first guard
        that fails, is the same; a cloud replay marks the same points.
        In one pass over the ops, in order:

        - constants of one type (int, float or complex) and one ``repr``
          share the first one's register (a NaN keeps its own);
        - an op on the same operand registers as an earlier op of its kind,
          or a guard the same as an earlier one, is dropped, its register
          read from the earlier op, which runs first and so raises first;
        - ``x * 1.0``, ``1.0 * x`` and ``x / 1.0`` read ``x`` where ``x``
          is a float at every such point: a coordinate, a float constant,
          ``+``, ``-``, ``*`` or ``/`` of floats and int constants,
          ``neg`` of a float, any ``abs``, a float to an int constant
          power, a base that a passed guard holds at or above zero to a
          real power, or a dispatcher that keeps a float a float
          (``float_to_float``).  For a complex ``x`` these would change
          signed zeros and infinities;
        - last, an op whose result nothing kept reads is dropped when it
          cannot raise: ``+``, ``-`` and ``*`` with no constant operand
          but floats and complexes, ``neg``, and ``abs`` of a float.  Every
          ``/``, ``**``, call, complex ``abs`` and guard stays, since it
          may raise or mark a point.

        ``x * 0.0`` is left alone: it is NaN at an infinite or NaN ``x``,
        and its sign follows ``x``'s.  No op is folded: every recorded op
        reads a tape scalar, and no step above turns one into a constant.
        """
        vals, consts = self.vals, set(self.consts)
        alias = list(range(len(vals)))
        shared: dict = {}
        for r in self.consts:
            v = vals[r]
            if type(v) in (int, float, complex) and v == v:
                alias[r] = shared.setdefault((type(v), repr(v)), r)
        ints = {r for r in consts if type(vals[r]) in (bool, int)}
        ones = {r for r in consts if type(vals[r]) is float and vals[r] == 1.0}
        flt = [r < self.dim or r in consts and type(v) is float for r, v in enumerate(vals)]
        nonneg = set()  # registers a passed guard holds at or above zero
        seen: dict = {}
        ops = []
        for op, dest, a, b in self.ops:
            a = alias[a]
            if op in _BINARY or op in _COMPARE:
                b = alias[b]
            if op in _COMPARE:
                if (op, dest, a, b) not in seen:
                    seen[op, dest, a, b] = dest
                    ops.append((op, dest, a, b))
                    if op == "<" and not dest and b in consts and (flt[b] or b in ints) \
                            and vals[b] >= 0:
                        nonneg.add(a)  # a >= 0 or NaN, so a float
                continue
            if op in ("*", "/") and flt[a] and b in ones:
                alias[dest] = a
                continue
            if op == "*" and a in ones and flt[b]:
                alias[dest] = b
                continue
            if (op, a, b) in seen:
                alias[dest] = seen[op, a, b]
                continue
            seen[op, a, b] = dest
            ops.append((op, dest, a, b))
            if op == "**":
                flt[dest] = flt[a] and b in ints or a in nonneg and (flt[b] or b in ints)
            elif op in _BINARY:
                flt[dest] = flt[a] and (flt[b] or b in ints) or a in ints and flt[b]
            elif op == "call":
                flt[dest] = flt[a] and getattr(vals[b], "float_to_float", False)
            else:
                flt[dest] = op == "abs" or flt[a]
        wanted = [alias[r] for r in wanted]
        live = set(wanted)
        kept = []
        for op, dest, a, b in reversed(ops):
            if dest in live or op in _COMPARE or not (
                    op == "neg" or op == "abs" and flt[a] or op in ("+", "-", "*") and all(
                        r not in consts or type(vals[r]) in (float, complex) for r in (a, b))):
                kept.append((op, dest, a, b))
                live.update((a, b))
        return kept[::-1], wanted

    def compile(self, out, d: int, label: str):
        """``kernel(xs) -> (value, gradient tuple)``, or ``(value, None)``
        when ``fn`` returned a plain number: the :meth:`pruned` ops as
        straight-line Python over the names ``r<register>``, constants
        passed by reference.  A coordinate that is not a float fails the
        kernel's first guard, since the pruning holds at float coordinates."""
        value, grad, _ = self.outputs(out, d, False)
        ops, regs = self.pruned([value, *(grad or ())])
        value, grad = regs[0], None if grad is None else regs[1:]
        lines = [f"if {' or '.join(f'type(r{i}) is not float' for i in range(d))}: raise R"]
        for op, dest, a, b in ops:
            if op in _COMPARE:
                test = f"r{a} {op} r{b}"
                lines.append(f"if not ({test}): raise R" if dest else f"if {test}: raise R")
            elif op == "call":
                lines.append(f"r{dest} = r{b}(r{a})")
            elif op in _BINARY:
                lines.append(f"r{dest} = r{a} {op} r{b}")
            else:
                lines.append(f"r{dest} = {_UNARY[op].format(f'r{a}')}")
        ret = "None" if grad is None else f"({''.join(f'r{g}, ' for g in grad)})"
        src = "\n".join([
            f"def make({', '.join(['R'] + [f'r{i}' for i in self.consts])}):",
            "    def kernel(xs):",
            f"        {''.join(f'r{i}, ' for i in range(d))}= xs",
            *(f"        {line}" for line in lines),
            f"        return r{value}, {ret}",
            "    return kernel",
        ])
        namespace: dict = {}
        exec(compile(src, f"<jet1 kernel of {label or 'field'}>", "exec"), namespace)
        return namespace["make"](_GuardFailed, *(self.vals[i] for i in self.consts))

    def replay(self, wanted: list) -> Callable[[list, np.ndarray], list]:
        """``run(cols, marked)``: the registers ``wanted`` over a cloud of
        points, one ndarray each, from the ops :meth:`pruned` leaves.

        The types are checked, the ops pruned and the frees scheduled here,
        once, and ``run`` serves any number of clouds.  ``cols[i]`` holds
        coordinate ``i`` at every point.  Each result register becomes an
        ndarray over the cloud, of the type it had here, and is dropped
        after its last use.  Every value at a point left unmarked is the one
        the scalar run makes there, bit for bit:

        - numpy does real +, -, *, /, negation, abs and comparisons, and
          complex + and -, which match Python's float and complex rules;
        - complex * follows CPython's own formula on the parts;
        - complex /, ``**``, abs of a complex value and every recorded call
          run through the same Python scalar function, one point at a time
          (numpy's complex / rounds apart from CPython's).

        ``run`` marks a point (sets it in ``marked``) where the scalar run
        raises or leaves the tape: a zero divisor, an exception in a
        per-point call, a guard that comes out the other way, or a result of
        another type than recorded.  Its values are then meaningless.  No
        value of the recording reaches a result: each register ``run`` reads
        is a coordinate, a constant or an earlier op's.  A tape holding a
        value the replay cannot keep as an array raises :class:`_Untraceable`.
        """
        vals = self.vals
        ops = self.ops
        cplx = [type(v) is complex for v in vals]
        for r in self.consts:
            if type(vals[r]) not in _CLOUD_CONSTS:
                cplx[r] = None  # not an operand the replay can take
        for op, dest, a, b in ops:
            if op in _COMPARE:
                continue
            if type(vals[dest]) not in (float, complex) or cplx[a] is None or (
                    op in _BINARY and cplx[b] is None):
                raise _Untraceable
            if op in ("**", "call") or op == "abs" and cplx[a]:
                continue
            want = op != "abs" and (cplx[a] or op in _BINARY and cplx[b])
            if cplx[dest] != want:
                raise _Untraceable
        if any(cplx[r] is None for r in wanted):
            raise _Untraceable
        ops, wanted = self.pruned(wanted)
        keep = set(wanted).union(self.consts)
        last = {}
        for k, (op, dest, a, b) in enumerate(ops):
            last[a] = k
            if op in _BINARY or op in _COMPARE:
                last[b] = k
            if op not in _COMPARE:
                last[dest] = k  # a result nothing reads is dropped at once
        drop = [[] for _ in ops]
        for r, k in last.items():
            if r not in keep:
                drop[k].append(r)

        def run(cols: list, marked: np.ndarray) -> list:
            regs = list(vals)
            regs[:len(cols)] = cols
            with np.errstate(all="ignore"):
                for (op, dest, a, b), gone in zip(ops, drop):
                    x = regs[a]
                    if op in _COMPARE:
                        marked |= _COMPARE[op](x, regs[b]) != dest
                    elif op == "call":
                        regs[dest] = _each(regs[b], (x,), type(vals[dest]), marked)
                    elif op == "**":
                        regs[dest] = _each(operator.pow, (x, regs[b]), type(vals[dest]), marked)
                    elif op in _BINARY:
                        y = regs[b]
                        if not (cplx[a] or cplx[b]):
                            if op == "/":
                                marked |= y == 0
                            regs[dest] = _BINARY[op](x, y)
                        elif op == "*":
                            regs[dest] = _complex_mul(x, y, cplx[a], cplx[b])
                        elif op == "/":
                            regs[dest] = _each(operator.truediv, (x, y), complex, marked)
                        else:
                            regs[dest] = _BINARY[op](x, y)
                    elif op == "neg":
                        regs[dest] = -x
                    elif cplx[a]:
                        regs[dest] = _each(abs, (x,), float, marked)
                    else:
                        regs[dest] = np.abs(x)
                    for r in gone:
                        regs[r] = None
            n = len(marked)
            return [regs[r] if type(regs[r]) is np.ndarray else np.full(n, regs[r])
                    for r in wanted]

        return run


def _each(fn, args: tuple, kind: type, marked: np.ndarray) -> np.ndarray:
    """``fn`` over the cloud one point at a time, on Python numbers; a point
    where it raises or returns another type than ``kind`` is marked."""
    n = len(marked)
    cols = [a.tolist() if type(a) is np.ndarray else [a] * n for a in args]
    try:
        out = list(map(fn, *cols))
    except Exception:
        out = []
        for i, xs in enumerate(zip(*cols)):
            try:
                out.append(fn(*xs))
            except Exception:
                marked[i] = True
                out.append(kind())
    if set(map(type, out)) != {kind}:
        for i, v in enumerate(out):
            if type(v) is not kind:
                marked[i] = True
                out[i] = kind()
    return np.array(out, dtype=kind)


def _parts(v, is_complex: bool) -> tuple:
    """Real and imaginary parts as CPython converts an operand to complex."""
    return (v.real, v.imag) if is_complex else (v, 0.0)


def _to_complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _complex_mul(x, y, cx: bool, cy: bool) -> np.ndarray:
    """``x * y`` as CPython's ``_Py_c_prod`` forms it at each point."""
    ar, ai = _parts(x, cx)
    br, bi = _parts(y, cy)
    return _to_complex(ar * br - ai * bi, ar * bi + ai * br)


class _Var:
    """A tape scalar: a number that records each operation made with it.

    Arithmetic with numbers and other tape scalars computes the result and
    records the operation, both operands in place.  A comparison records a
    guard on its outcome.  A type test cannot be recorded: ``__class__``,
    which ``isinstance`` asks, raises, so that no test can read a tape
    scalar as a plain number of the wrong type and fix a branch the kernel
    would not guard.  Nor can unary plus or anything that needs a plain
    number (``float()``, ``bool()``, numpy, math).
    """

    __slots__ = ("tape", "reg", "val")
    __array_ufunc__ = None
    __hash__ = None

    def __init__(self, tape: _Tape, reg: int, val):
        self.tape = tape
        self.reg = reg
        self.val = val

    @property
    def __class__(self):
        raise _Untraceable

    def call(self, fn) -> "_Var":
        return self.tape.emit("call", self.reg, self.tape.const(fn), fn(self.val))

    def __neg__(self):
        return self.tape.emit("neg", self.reg, None, -self.val)

    def __abs__(self):
        return self.tape.emit("abs", self.reg, None, abs(self.val))

    def _untraceable(self, *args):
        raise _Untraceable

    __bool__ = __float__ = __complex__ = __int__ = __index__ = _untraceable


def _var_binary(sym, op, reflected):
    def method(self, o):
        reg = self.tape.operand(o)
        if reg is None:
            return NotImplemented
        oval = o.val if type(o) is _Var else o
        if reflected:
            return self.tape.emit(sym, reg, self.reg, op(oval, self.val))
        return self.tape.emit(sym, self.reg, reg, op(self.val, oval))

    return method


def _var_compare(sym, op):
    def method(self, o):
        reg = self.tape.operand(o)
        if reg is None:
            return NotImplemented
        out = op(self.val, o.val if type(o) is _Var else o)
        self.tape.guard(sym, self.reg, reg, out)
        return out

    return method


for _sym, _op in _BINARY.items():
    setattr(_Var, f"__{_op.__name__}__", _var_binary(_sym, _op, False))
    setattr(_Var, f"__r{_op.__name__}__", _var_binary(_sym, _op, True))
for _sym, _op in _COMPARE.items():
    setattr(_Var, f"__{_op.__name__}__", _var_compare(_sym, _op))


def _unpack(out) -> tuple:
    """``fn``'s result as (value, gradient, Hessian); a plain number has
    neither derivative."""
    if isinstance(out, Jet):
        return out.value, out.grad, out._hess
    return out, None, None


def _sized(grad, hess, d: int, second_order: bool) -> bool:
    """Whether ``fn`` returned a result of the order asked for over ``d``
    coordinates: a plain number (no derivatives), or a gradient tuple of
    ``d`` entries with, at second order only, a Hessian tuple of ``d * d``."""
    if grad is None:
        return hess is None
    return type(grad) is tuple and len(grad) == d and (
        type(hess) is tuple and len(hess) == d * d if second_order else hess is None)


def _record(fn, xs: list, second_order: bool) -> tuple:
    """A tape of one run of ``fn`` on jets seeded at ``xs`` whose values are
    tape scalars, and what the run returned."""
    tape = _Tape(xs)
    return tape, fn(_seeds([_Var(tape, i, v) for i, v in enumerate(xs)], second_order))


def _compile_jet1(fn, xs: list, label: str):
    """A kernel that replays ``fn``'s first-order jet at any point, recorded
    by one run of ``fn`` at ``xs``; False when that run cannot be recorded."""
    try:
        tape, out = _record(fn, xs, False)
        return tape.compile(out, len(xs), label)
    except (Exception, _Untraceable):
        return False


@dataclass
class ScalarField:
    """A scalar-valued field over a fixed number of real coordinates.

    ``fn`` receives one ring element per coordinate (plain numbers or
    jets, interchangeably) and combines them with ordinary arithmetic
    and the math functions exported by this module.  It must be a pure
    function of its coordinates and of closure constants fixed after
    construction: ``value_grad`` compiles it on its first call (module
    notes).  A ``fn`` that tests the type of a value is not compiled:
    ``value_grad`` runs it on jets at every call, and ``jet2_cloud`` marks
    every row.  ``singular`` is an optional predicate ``(point, margin) ->
    bool`` declaring where the field must not be evaluated; it receives
    the point as a sequence of floats (a list, when this class asks).
    """

    fn: Callable[[list], Any]
    dim: int
    codomain: str = "real"
    singular: Callable[[Sequence[float], float], bool] | None = None
    label: str = ""
    # (fn, kernel) after the first value_grad call of fn: kernel is the
    # compiled kernel, or False once the field stays on jets
    _kernel: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    # (fn, run): run is the kept cloud replay of that fn's second-order tape
    # (_Tape.replay), None before a recording of it succeeds
    _cloud: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.codomain not in ("real", "complex"):
            raise ValueError(f"codomain must be 'real' or 'complex', got {self.codomain!r}")
        _integer(self.dim, "field dimension", 1)

    def _coords(self, x) -> list:
        """``x`` as a list of ``dim`` floats, else the dimension-mismatch error."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise self._dim_error(x.shape)
        return x.tolist()

    def _dim_error(self, shape) -> EvaluationError:
        return EvaluationError(f"dimension mismatch: {self.label or 'field'} expects "
                               f"{self.dim} coordinates, got shape {shape}")

    def _on_chart(self, xs: list) -> list:
        """``xs`` itself, or :class:`SingularPointError` on the singular set."""
        if self.singular is not None and self.singular(xs, 0.0):
            raise SingularPointError(f"{self.label or 'field'} evaluated on its singular "
                                     f"set at {xs}")
        return xs

    def _run(self, xs: list, fn, args: list):
        try:
            return fn(args)
        except (ZeroDivisionError, OverflowError) as exc:
            raise self._non_finite(xs, exc) from None

    def _non_finite(self, xs: list, exc: ArithmeticError) -> NonFiniteError:
        """The error for a division by zero or an overflow ``exc`` at ``xs``."""
        how = "divides by zero" if isinstance(exc, ZeroDivisionError) else "overflows"
        return NonFiniteError(f"{self.label or 'field'} {how} at {xs}")

    def _finite(self, xs: list, v):
        """``v`` itself if it is a finite number, else :class:`NonFiniteError`."""
        try:
            if cmath.isfinite(v):
                return v
            how = "overflows" if cmath.isinf(v) else "is not a number"
        except OverflowError:
            how = "overflows"
        except TypeError:
            how = "is not a number"
        raise NonFiniteError(f"{self.label or 'field'} {how} at {xs}")

    def value(self, x):
        xs = self._on_chart(self._coords(x))
        return self._finite(xs, self._run(xs, self.fn, xs))

    __call__ = value

    def value_grad(self, xs: list) -> tuple:
        """Value and gradient tuple at the coordinate list ``xs``.

        The one first-order entry point: ``xs`` is a list of ``dim``
        floats, taken as it is.  The first call of each ``fn`` records and
        compiles it, and every call runs the kernel while the field has one
        (see the module notes).
        Every first-order request comes here, the flows' once per
        right-hand side, so the kernel runs inline: the singular test,
        the call and the finiteness test add no frame while they pass.
        """
        if len(xs) != self.dim:
            raise self._dim_error((len(xs),))
        if self.singular is not None and self.singular(xs, 0.0):
            self._on_chart(xs)
        fn, kernel = self._kernel
        if fn is not self.fn:
            fn, kernel = self._kernel = (self.fn, _compile_jet1(self.fn, xs, self.label))
        if kernel:
            try:
                # the recording held the result to _sized.  A sum of finite
                # numbers may overflow but a sum with a NaN or an infinity is
                # never finite, so _finite_jet runs for a plain number's None
                # gradient, to name a fault, or to clear an overflowing sum
                value, grad = kernel(xs)
                if grad is not None and cmath.isfinite(value + sum(grad)):
                    return value, grad
                return self._finite_jet(xs, value, grad)
            except (_GuardFailed, TypeError):
                # a decision went the other way, or a comparison met a
                # complex value: this call and every later one run on jets
                self._kernel = (fn, False)
            except (ZeroDivisionError, OverflowError) as exc:
                raise self._non_finite(xs, exc) from None
        return self._result(xs, self._run(xs, fn, _seeds(xs)), False)[:2]

    def jet1(self, x) -> Jet:
        """Value and gradient at ``x``: :meth:`value_grad` with the
        gradient as an ndarray."""
        value, grad = self.value_grad(self._coords(x))
        return Jet(value, np.array(grad))

    def jet2(self, x) -> Jet:
        """Value, gradient and Hessian at ``x``."""
        xs = self._on_chart(self._coords(x))
        out = self._run(xs, self.fn, _seeds(xs, second_order=True))
        value, grad, hess = self._result(xs, out, True)
        jet = Jet(value, np.array(grad), hess)
        jet._matrix = np.array(hess).reshape(self.dim, self.dim)
        return jet

    def jet2_cloud(self, points) -> tuple:
        """:meth:`jet2` at every row of ``points``, shape (B, dim), in one pass.

        Returns the values (B,), gradients (B, dim) and Hessians
        (B, dim, dim), and a boolean mask of the marked rows.  At an unmarked
        row the three are ``jet2``'s bit for bit, of the same dtypes.  A
        marked row holds no answer: a point on the singular set, or one where
        the replay of the tape cannot stand in for ``jet2`` (see
        :meth:`_Tape.replay`), or where ``jet2`` would find a non-finite
        number.  ``jet2`` there returns or raises what it does.  The tape is
        recorded at the first row off the singular set of the first cloud,
        and its replay kept for every later cloud of the same ``fn``; a
        recording that fails, or where ``fn`` returns a plain number, marks
        every row and is not kept.
        """
        pts = np.asarray(points, dtype=float)
        d = self.dim
        n = len(pts)
        marked = np.ones(n, dtype=bool)
        blank = (np.zeros(n), np.zeros((n, d)), np.zeros((n, d, d)), marked)
        if pts.shape != (n, d):
            return blank
        rows = pts.tolist()
        if self.singular is not None:
            for i, xs in enumerate(rows):
                try:
                    marked[i] = bool(self.singular(xs, 0.0))
                except Exception:
                    pass
        else:
            marked[:] = False
        clear = np.flatnonzero(~marked)
        if not len(clear):
            return blank
        try:
            fn, run = self._cloud
            if fn is not self.fn or run is None:
                tape, out = _record(self.fn, rows[clear[0]], True)
                value, grad, hess = tape.outputs(out, d, True)
                if grad is None:  # a plain number: every row goes to jet2
                    raise _Untraceable
                run = tape.replay([value, *grad, *hess])
                self._cloud = (self.fn, run)
            cols = run(list(np.ascontiguousarray(pts.T)), marked)
            value = cols[0]
            grads = np.stack(cols[1:d + 1], axis=1)
            hessians = np.stack(cols[d + 1:], axis=1).reshape(n, d, d)
        except (Exception, _Untraceable):
            marked[:] = True
            return blank
        marked |= ~(np.isfinite(value) & np.isfinite(grads).all(axis=1)
                    & np.isfinite(hessians).all(axis=(1, 2)))
        return value, grads, hessians, marked

    def _result(self, xs: list, out, second_order: bool) -> tuple:
        """``fn``'s result ``out`` at ``xs`` as (value, gradient, Hessian),
        the derivatives tuples, the Hessian None at first order: the one rule
        for what ``fn`` may return.  A plain number's derivatives are zeros;
        a result :func:`_sized` refuses raises :class:`EvaluationError`, a
        non-finite one :class:`NonFiniteError` (:meth:`_finite_jet`)."""
        value, grad, hess = _unpack(out)
        d = self.dim
        if not _sized(grad, hess, d, second_order):
            raise EvaluationError(f"{self.label or 'field'} returned no "
                                  f"{'second' if second_order else 'first'}-order jet "
                                  f"over {d} coordinates at {xs}")
        if grad is None:
            grad, hess = (0.0,) * d, (0.0,) * (d * d) if second_order else None
        return (*self._finite_jet(xs, value, grad, hess), hess)

    def _finite_jet(self, xs: list, value, grad, hess=None) -> tuple:
        """``(value, grad)`` once the value and every entry of ``grad`` and
        ``hess`` are finite, else :class:`NonFiniteError`; ``grad`` None, a
        plain number's, reads as zeros."""
        self._finite(xs, value)
        if grad is None:
            return value, (0.0,) * self.dim
        if not all(map(cmath.isfinite, grad)):
            raise NonFiniteError(f"{self.label or 'field'} has a non-finite gradient at {xs}")
        if hess is not None and not all(map(cmath.isfinite, hess)):
            raise NonFiniteError(f"{self.label or 'field'} has a non-finite Hessian at {xs}")
        return value, grad
