"""Poisson structures, brackets and Hamiltonian derivative operators.

A structure is a coordinate-dependent antisymmetric bivector pi, backed
by either a constant matrix or an entry rule over the coordinate ring.
The canonical structure on 2d coordinates ordered (q1..qd, p1..pd) is
the constant block matrix ((0, I), (-I, 0)), so {q_i, p_i} = +1.

The Hamiltonian vector field of L is v = pi grad L, the bracket is
{F, G} = grad F . pi grad G, and X_L F = {F, L}.  The second-order
operator is assembled exactly from second jets:

    X_L^2 F = v . (hess F) v + (J v) . grad F,
    J[i,k] = d_k v_i = sum_j (d_k pi_ij) (d_j L) + (pi hess L)[i,k].
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .jets import Jet, ScalarField, _integer, _seeds

__all__ = [
    "PoissonStructure",
    "canonical_structure",
    "HamiltonianSystem",
    "ham_field",
    "base_flow",
    "apply_xl2",
    "apply_xl2_cloud",
    "extend_structure",
    "jacobi_residual",
]

_ANTISYM_TOL = 1e-14


def _dot(a, b, total=0.0):
    """``total + a[0] * b[0] + a[1] * b[1] + ...``, added left to right.

    Every contraction whose value a report prints is formed this way, of
    elementwise IEEE products and sums, on plain numbers or on (B,) columns
    alike, so it rounds the same on every host and for every cloud size.
    numpy's products (``@``, ``dot``, ``matmul``, ``einsum``) hand the sum to
    the BLAS kernel the host picks, which may add in another order or fuse a
    multiply with an add.
    """
    return functools.reduce(operator.add, map(operator.mul, a, b), total)


@functools.lru_cache(maxsize=64)
def _exactly_antisymmetric(d: int) -> Callable[[list], bool]:
    """``test(rows)``, true when ``rows`` is a list of ``d`` lists of ``d``
    entries whose diagonal entries are ``== 0.0``, whose entries below the
    diagonal equal the negated entries above, and whose diagonal and upper
    entries, added to 0.0, give a finite Python float: so none is NaN or
    infinite, and each is a float or a number, such as an int, that float
    arithmetic takes in as a float (a numpy scalar or a complex is not).
    Such rows pass :meth:`PoissonStructure._within_tolerance` too: each
    |m + m^T| is zero.  The test is straight-line code, compiled once per
    dimension; it may raise on entries it cannot compare or sum."""
    rows = [f"r{i}" for i in range(d)]
    a = [[f"a{i}_{j}" for j in range(d)] for i in range(d)]
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    summed = " + ".join(["0.0"] + [a[i][i] for i in range(d)] + [a[i][j] for i, j in upper])
    tests = ([f"{a[i][i]} == 0.0" for i in range(d)]
             + [f"{a[j][i]} == -{a[i][j]}" for i, j in upper]
             + [f"type(total := {summed}) is float", "isfinite(total)"])
    src = "\n".join([
        "def test(rows):",
        "    if type(rows) is not list:",
        "        return False",
        f"    {''.join(f'{r}, ' for r in rows)}= rows",
        f"    if {' or '.join(f'type({r}) is not list' for r in rows)}:",
        "        return False",
        *(f"    {''.join(f'{e}, ' for e in a[i])}= {r}" for i, r in enumerate(rows)),
        f"    return {' and '.join(tests)}",
    ])
    namespace = {"isfinite": math.isfinite}
    exec(compile(src, f"<antisymmetry test of {d} rows>", "exec"), namespace)
    return namespace["test"]


@dataclass
class PoissonStructure:
    """Antisymmetric bivector on ``dim`` coordinates.

    Exactly one of a constant matrix or an entry rule
    ``entries(coords) -> nested sequence`` backs the structure.  Entry
    rules must accept jets so entry derivatives are available.
    """

    dim: int
    entries: Callable[[list], Any] | None = None
    const: np.ndarray | None = None
    label: str = ""
    # a constant bivector's rows, as lists of floats; else None
    _rows: list | None = field(default=None, init=False, repr=False, compare=False)
    # for a constant bivector whose rows each hold at most one nonzero
    # entry, (column, entry) per row; else None
    _sparse: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # a constant bivector's spectral norm, once asked for
    _norm: float | None = field(default=None, init=False, repr=False, compare=False)
    # for the block sum made by extend_structure, the base structure
    _base: "PoissonStructure | None" = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        _integer(self.dim, "bivector dimension", 1)
        if (self.entries is None) == (self.const is None):
            raise ValueError("a Poisson structure needs exactly one of an entry rule "
                             "and a constant matrix")
        if self.const is not None:
            self.const = np.asarray(self.const, dtype=float)
            if self.const.shape != (self.dim, self.dim):
                raise ValueError(f"constant bivector {self.label or ''} has the wrong shape "
                                 f"{self.const.shape}, not ({self.dim}, {self.dim})")
            rows = self._rows = self._check_antisym(self.const.tolist())
            self.const.setflags(write=False)
            nonzero = [[(j, v) for j, v in enumerate(row) if v != 0.0] for row in rows]
            if all(len(row) <= 1 for row in nonzero):
                self._sparse = tuple(row[0] if row else (0, 0.0) for row in nonzero)

    def _check_antisym(self, rows: list, floats: bool = False) -> list:
        """``rows``, entry values nested by row, once they are ``dim`` rows of
        ``dim`` and every |m + m^T| is within the tolerance scaled by
        max(1, max |m|), else the ValueError that names the fault.

        Rows that are exactly antisymmetric are accepted by one generated
        test (:func:`_exactly_antisymmetric`), which the flows' entry rules
        pass at every call, and come back as they are.  Any other input, and
        any input on which that test raises, goes to
        :meth:`_within_tolerance`, the one judge of tolerance, NaN, infinity,
        shape and type; with ``floats`` the rows it accepts come back as
        lists of floats.
        """
        try:
            if _exactly_antisymmetric(self.dim)(rows):
                return rows
        except Exception:  # whatever the test cannot read, the judge rules on
            pass
        rows = self._within_tolerance(rows)
        return np.array(rows, dtype=float).tolist() if floats else rows

    def _within_tolerance(self, rows) -> list:
        """:meth:`_check_antisym` in one pass over the pairs i <= j.  A NaN
        or infinite entry fails: its sum with its transpose is NaN or
        infinite, which the running total keeps where a comparison would
        drop it."""
        d = self.dim
        try:
            if len(rows) != d or set(map(len, rows)) != {d}:
                raise self._shape_error(rows)
        except TypeError:  # a row that is no sequence, such as one flat row
            raise self._shape_error(rows) from None
        big = 1.0
        worst = total = 0.0
        for i, row in enumerate(rows):
            for j in range(i, d):
                a, b = row[j], rows[j][i]
                s = abs(a + b)
                total += s
                if s > worst:
                    worst = s
                a, b = abs(a), abs(b)
                if a > big:
                    big = a
                if b > big:
                    big = b
        if not (total < math.inf and worst <= _ANTISYM_TOL * big):
            raise ValueError(
                f"bivector {self.label or ''} is not antisymmetric within {_ANTISYM_TOL:g}"
            )
        return rows

    def _shape_error(self, rows) -> ValueError:
        """The error for entry values that are not ``dim`` rows of ``dim``."""
        d = self.dim
        try:
            found = f"rows of lengths {[len(row) for row in rows]}"
        except TypeError:
            found = "a row that is not a sequence"
        return ValueError(f"bivector {self.label or ''} has {found}, not {d} rows of {d}")

    def matrix(self, x) -> np.ndarray:
        """The bivector evaluated at ``x``."""
        if self.const is not None:
            return self.const
        return np.array(self._rows_at(np.asarray(x, dtype=float).tolist()), dtype=float)

    def _rows_at(self, xs: list) -> list:
        """The bivector's rows at the coordinate list ``xs``: a constant
        bivector's kept rows, else the entry rule's, checked by
        :meth:`_check_antisym`: as the rule gives them where they are exactly
        antisymmetric, as the catalog's are, else as lists of floats."""
        if self.entries is None:
            return self._rows
        return self._check_antisym(self.entries(xs), floats=True)

    def spectral_norm(self, m) -> float:
        """The spectral norm of ``m``, the bivector at a point as
        :meth:`matrix` or :meth:`_rows_at` gives it, in closed form wherever
        one applies, read from its diagonal and upper entries:

        - a constant bivector whose rows each hold at most one nonzero
          entry: the largest |entry|;
        - the block sum made by :func:`extend_structure`: max(1, the base
          structure's norm of the base block);
        - one or two coordinates: |m_00| or |m_01|;
        - three: sqrt(m_01^2 + m_02^2 + m_12^2), the length of the axial
          vector, with the entries scaled by a power of two first, which
          changes no bit unless a square would over- or underflow.

        Any other bivector (none in the catalog) takes LAPACK's
        ``np.linalg.norm(m, 2)``.  A constant bivector's norm is computed
        once; an entry rule's at every call.
        """
        if self._norm is not None:
            return self._norm
        if self._sparse is not None:
            norm = max(abs(p) for _, p in self._sparse)
        elif self._base is not None:
            norm = max(1.0, self._base.spectral_norm(np.asarray(m, dtype=float)[2:, 2:]))
        elif self.dim <= 2:
            norm = abs(float(m[0][-1]))
        elif self.dim == 3:
            upper = [float(m[0][1]), float(m[0][2]), float(m[1][2])]
            # scaled by a power of two, exactly, so that no square over- or underflows
            e = math.frexp(max(map(abs, upper)))[1]
            a, b, c = (math.ldexp(v, -e) for v in upper)
            norm = math.ldexp(math.sqrt(a * a + b * b + c * c), e)
        else:
            norm = float(np.linalg.norm(np.asarray(m, dtype=float), 2))
        if self.const is not None:
            self._norm = norm
        return norm

    def matrix_with_grads(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Bivector and its entry derivatives.

        Returns ``(pi, dpi)`` with ``dpi[k, i, j] = d pi_ij / d x_k``.
        """
        d = self.dim
        if self.const is not None:
            return self.const, np.zeros((d, d, d))
        zero = (0.0,) * d
        entries = self.entries(_seeds(np.asarray(x, dtype=float).tolist()))
        try:
            rows = [[e if isinstance(e, Jet) else Jet(e, zero) for e in row] for row in entries]
        except TypeError:
            raise self._shape_error(entries) from None
        m = np.array(self._check_antisym([[e.value for e in row] for row in rows]), dtype=float)
        dm = np.array([[e.grad for e in row] for row in rows], dtype=float)
        return m, np.ascontiguousarray(dm.transpose(2, 0, 1))

    def contract(self, xs: list, grad) -> list:
        """pi grad at the coordinate list ``xs``, as a list.

        Each row i is :func:`_dot` of the bivector's row and ``grad``, 0.0 +
        m_i0 grad[0] + m_i1 grad[1] + ..., added left to right with its zero
        products kept, over the rows of :meth:`_rows_at`.  A constant
        bivector whose rows each hold at most one nonzero entry p, at column
        j, gives 0.0 + p grad[j], which for a finite gradient is the same sum
        bit for bit: its zero products leave a sum from +0.0 as it is.  No
        numpy product is used, so no flow drifts with the host's BLAS
        kernel, and the fused rk4 step (:func:`~extkit.verify._fused_rk4`)
        forms the same sums inline.
        """
        sparse = self._sparse
        if sparse is not None:
            return [0.0 + p * grad[j] for j, p in sparse]
        return [_dot(row, grad) for row in self._rows_at(xs)]


def canonical_structure(dim: int, label: str = "") -> PoissonStructure:
    if _integer(dim, "canonical structure dimension", 1) % 2 != 0:
        raise ValueError("canonical structure needs an even dimension")
    half = dim // 2
    block = np.zeros((dim, dim))
    block[:half, half:] = np.eye(half)
    block[half:, :half] = -np.eye(half)
    return PoissonStructure(dim=dim, const=block, label=label)


@dataclass
class HamiltonianSystem:
    """A Poisson structure with a Hamiltonian and named observables."""

    structure: PoissonStructure
    hamiltonian: ScalarField
    observables: dict[str, ScalarField] = field(default_factory=dict)

    def __post_init__(self):
        if self.hamiltonian.dim != self.structure.dim:
            raise ValueError("Hamiltonian dimension does not match the structure")

    @property
    def dim(self) -> int:
        return self.structure.dim


def ham_field(system: HamiltonianSystem, x) -> tuple[Any, list]:
    """L's value at ``x`` and the Hamiltonian vector field pi grad L there,
    the one way every caller gets them.

    ``x`` is a list of floats, taken as it is, or any other coordinate
    sequence, turned into one; the field comes back as a list.  L's value
    and gradient come from :meth:`ScalarField.value_grad` (its compiled
    kernel), which raises every evaluation error, and the field
    from :meth:`PoissonStructure.contract`.
    """
    ham = system.hamiltonian
    xs = x if type(x) is list else ham._coords(x)
    lval, grad = ham.value_grad(xs)
    return lval, system.structure.contract(xs, grad)


def base_flow(system: HamiltonianSystem) -> Callable[[Sequence[float]], list]:
    """Right-hand side ``x -> pi grad L`` for integrators: any float
    sequence in, a list out, by :func:`ham_field`."""

    def rhs(x):
        return ham_field(system, x)[1]

    rhs._flow = (system, None)  # what integrate's fused rk4 step is built from
    return rhs


def _xl2(gl, hl, gf, hf, pi: list, dpi_grad_l: list | None):
    """X_L^2 F from the gradient entries ``gl[k]`` and Hessian entries
    ``hl[j][k]`` of L, ``gf`` and ``hf`` of F, each a number at one point or
    a (B,) column over a cloud of B points; the bivector ``pi`` as d rows of
    floats, and ``dpi_grad_l[i][k]`` = sum_j d_k pi_ij d_j L, also d rows of
    numbers, or None for a constant bivector.

    With v = pi grad L and J v = (dpi grad L) v + pi (hess L v), this is
    v . (hess F v) + (J v) . grad F.  Each entry of each factor is a
    :func:`_dot`, one sum continuing the other where two add up, and a zero
    entry of ``pi`` or ``dpi_grad_l`` adds no product: for finite entries
    that is the same sum bit for bit.  Every operation is elementwise IEEE
    arithmetic, so a point's value is the same in any cloud and on plain
    numbers (:func:`apply_xl2`), and on any host.
    """
    def apply(m, cols, totals=None):  # m cols, added on to ``totals`` where given
        return [functools.reduce(operator.add, (p * c for p, c in zip(row, cols) if p != 0.0),
                                 0.0 if totals is None else totals[i])
                for i, row in enumerate(m)]

    v = apply(pi, gl)
    hv = [_dot(row, v) for row in hl]
    jv = apply(pi, hv, None if dpi_grad_l is None else apply(dpi_grad_l, v))
    return _dot(jv, gf, _dot(v, [_dot(row, v) for row in hf]))


def _dpi_grad(dpi: np.ndarray, grad_l: list) -> list:
    """``[i][k]`` = sum_j dpi[k, i, j] grad_l[j], each a :func:`_dot` over j,
    as d rows of numbers."""
    per_k = dpi.tolist()
    return [[_dot(per_k[k][i], grad_l) for k in range(len(grad_l))]
            for i in range(len(grad_l))]


def apply_xl2(system: HamiltonianSystem, f: ScalarField, x):
    """X_L(X_L F) at ``x``, exact through second jets: :func:`_xl2` on the
    plain numbers of one point, which give the cloud's row bit for bit."""
    jl = system.hamiltonian.jet2(x)
    jf = f.jet2(x)
    structure = system.structure
    pi, dpi = structure.matrix_with_grads(x)
    grad_l = jl.grad.tolist()
    dpi_grad_l = None if structure.const is not None else _dpi_grad(dpi, grad_l)
    return _xl2(grad_l, jl.hess.tolist(), jf.grad.tolist(), jf.hess.tolist(), pi.tolist(),
                dpi_grad_l)


def apply_xl2_cloud(system: HamiltonianSystem, f: ScalarField, points) -> tuple:
    """:func:`apply_xl2` at every row of ``points`` in one pass.

    Returns the values (B,), a boolean mask of the marked rows, and the
    value columns (B,) of L and of F from the same two passes
    (:meth:`ScalarField.jet2_cloud`).  A row either pass marks is marked; an
    entry-rule bivector, or a field or points of another dimension, mark
    every row, and then neither pass runs.  At an unmarked row the values
    are ``apply_xl2``'s and the ``jet2`` values of L and F, bit for bit, and
    these are ``value``'s (module notes of :mod:`extkit.jets`).
    A marked row holds no value: ``apply_xl2`` there returns or raises.
    """
    pts = np.asarray(points, dtype=float)
    structure = system.structure
    ham = system.hamiltonian
    n, d = len(pts), structure.dim
    if structure.const is None or pts.shape != (n, d) or ham.dim != d or f.dim != d:
        return np.zeros(n), np.ones(n, dtype=bool), np.zeros(n), np.zeros(n)
    l_vals, grad_l, hess_l, marked = ham.jet2_cloud(pts)
    f_vals, grad_f, hess_f, marked_f = f.jet2_cloud(pts)
    marked |= marked_f
    # the entries as (B,) columns: gradients (d, B), Hessians (d, d, B)
    gl, gf = (np.ascontiguousarray(g.T) for g in (grad_l, grad_f))
    hl, hf = (np.ascontiguousarray(h.transpose(1, 2, 0)) for h in (hess_l, hess_f))
    with np.errstate(all="ignore"):
        xl2 = _xl2(gl, hl, gf, hf, structure._rows, None)
    return xl2, marked, l_vals, f_vals


def extend_structure(structure: PoissonStructure) -> PoissonStructure:
    """Append a canonical pair ``(u, p_u)`` ahead of the base coordinates.

    The result acts on ``(u, p_u, x_1 .. x_n)`` as the direct sum of the
    2x2 block ((0, 1), (-1, 0)) and the base bivector, which it keeps for
    :meth:`PoissonStructure.spectral_norm`.
    """
    n = structure.dim
    label = f"extended({structure.label})" if structure.label else "extended"
    if structure.const is not None:
        big = np.zeros((n + 2, n + 2))
        big[0, 1] = 1.0
        big[1, 0] = -1.0
        big[2:, 2:] = structure.const
        extended = PoissonStructure(dim=n + 2, const=big, label=label)
    else:
        base_entries = structure.entries

        def entries(coords: list):
            base = base_entries(coords[2:])
            rows = [[0.0] * (n + 2) for _ in range(n + 2)]
            rows[0][1] = 1.0
            rows[1][0] = -1.0
            for i in range(n):
                for j in range(n):
                    rows[i + 2][j + 2] = base[i][j]
            return rows

        extended = PoissonStructure(dim=n + 2, entries=entries, label=label)
    extended._base = structure
    return extended


def jacobi_residual(structure: PoissonStructure, x) -> float:
    """Max over index triples of the cyclic Jacobi combination.

    sum_l (pi_il d_l pi_jk + pi_jl d_l pi_ki + pi_kl d_l pi_ij) vanishes
    identically for a Poisson bivector.  Each a_ijk = sum_l pi_il d_l pi_jk
    is a :func:`_dot` over l, and the combination is (a_ijk + a_kij) +
    a_jki, so the value rounds the same on every host.
    """
    pi, dpi = structure.matrix_with_grads(x)
    rows = pi.tolist()
    # per (j, k): d_l pi_jk over l
    cols = np.ascontiguousarray(dpi.transpose(1, 2, 0)).tolist()
    a = [[[_dot(row, col) for col in per_j] for per_j in cols] for row in rows]
    r = range(len(rows))
    return float(np.max(np.abs([(a[i][j][k] + a[k][i][j]) + a[j][k][i]
                                for i in r for j in r for k in r])))
