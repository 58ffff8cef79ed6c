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

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import add, ge
from typing import Any, Callable, Sequence

import numpy as np

from .jets import Jet, ScalarField, _seeds

__all__ = [
    "PoissonStructure",
    "canonical_structure",
    "HamiltonianSystem",
    "ham_field",
    "base_flow",
    "bracket",
    "apply_xl",
    "apply_xl2",
    "apply_xl2_cloud",
    "extend_structure",
    "jacobi_residual",
]

_ANTISYM_TOL = 1e-14


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
    # for a constant bivector whose rows each hold at most one nonzero
    # entry, (column, entry) per row; else None
    _sparse: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # a constant bivector's spectral norm, once asked for
    _norm: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.entries is None) == (self.const is None):
            raise ValueError("a Poisson structure needs exactly one of an entry rule "
                             "and a constant matrix")
        if self.const is not None:
            self.const = np.asarray(self.const, dtype=float)
            if self.const.shape != (self.dim, self.dim):
                raise ValueError(f"constant bivector {self.label or ''} has the wrong shape "
                                 f"{self.const.shape}, not ({self.dim}, {self.dim})")
            rows = self._check_antisym(self.const.tolist())
            self.const.setflags(write=False)
            nonzero = [[(j, v) for j, v in enumerate(row) if v != 0.0] for row in rows]
            if all(len(row) <= 1 for row in nonzero):
                self._sparse = tuple(row[0] if row else (0, 0.0) for row in nonzero)

    def _check_antisym(self, rows: list) -> list:
        """``rows``, entry values nested by row, once they are ``dim`` rows of
        ``dim`` and every |m + m^T| is within the tolerance scaled by
        max(1, max |m|).  A NaN entry fails: its sum is NaN, which no bound
        holds, where ``max`` would drop it.  An infinite entry fails: it makes
        the bound infinite, which none is."""
        d = self.dim
        try:
            flat = list(chain.from_iterable(rows))
            cols = list(zip(*rows))  # zip stops at the shortest row
        except TypeError:  # a row that is no sequence, such as one flat row
            raise self._shape_error(rows) from None
        if len(rows) != d or len(flat) != d * d or len(cols) != d:
            raise self._shape_error(rows)
        bound = _ANTISYM_TOL * max(1.0, max(map(abs, flat)))
        transposed = chain.from_iterable(cols)
        if bound == math.inf or not all(map(partial(ge, bound),
                                            map(abs, map(add, flat, transposed)))):
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
        return self._at(np.asarray(x, dtype=float).tolist())

    def _at(self, xs: list) -> np.ndarray:
        """The entry rule's bivector at the coordinate list ``xs``."""
        return np.array(self._check_antisym(self.entries(xs)), dtype=float)

    def spectral_norm(self, m) -> float:
        """The spectral norm of ``m``, a value of :meth:`matrix`.  A constant
        bivector's is computed once; an entry rule's at every call."""
        if self.const is None:
            return np.linalg.norm(np.asarray(m, dtype=float), 2)
        if self._norm is None:
            self._norm = np.linalg.norm(self.const, 2)
        return self._norm

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

        For a finite real gradient this is numpy's ``matrix(xs) @ grad``
        bit for bit: a row with one nonzero entry p at column j reads
        0.0 + p grad[j], and any other bivector goes through that product.
        """
        sparse = self._sparse
        if sparse is not None:
            return [0.0 + p * grad[j] for j, p in sparse]
        m = self.const if self.entries is None else self._at(xs)
        return (m @ np.array(grad)).tolist()


def canonical_structure(dim: int, label: str = "") -> PoissonStructure:
    if dim % 2 != 0:
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
    """L's value at ``x`` and the Hamiltonian vector field pi grad L there.

    ``x`` is a list of floats, taken as it is, or any other coordinate
    sequence; the field comes back as a list.
    """
    ham = system.hamiltonian
    xs = x if type(x) is list else ham._coords(x)
    lval, grad = ham.value_grad(xs)
    return lval, system.structure.contract(xs, grad)


def base_flow(system: HamiltonianSystem) -> Callable[[Sequence[float]], list]:
    """Right-hand side ``x -> pi grad L`` for integrators: any float
    sequence in, a list out."""
    return lambda x: ham_field(system, x)[1]


def bracket(structure: PoissonStructure, f: ScalarField, g: ScalarField, x):
    """{F, G} = grad F . pi grad G at ``x``."""
    gf = f.jet1(x).grad
    gg = g.jet1(x).grad
    return gf @ structure.matrix(x) @ gg


def apply_xl(system: HamiltonianSystem, f: ScalarField, x):
    """X_L F = {F, L} at ``x``."""
    return f.jet1(x).grad @ np.array(ham_field(system, x)[1])


def _xl2(grad_l, hess_l, grad_f, hess_f, pi, dpi_grad_l) -> np.ndarray:
    """X_L^2 F over a stack of B points, from the gradients (B, d) and
    Hessians (B, d, d) of L and F, the bivector (d, d) or (B, d, d), and
    ``dpi_grad_l[b, i, k]`` = sum_j d_k pi_ij(b) d_j L(b) as (B, d, d).

    Every product is one stacked ``np.matmul``, which forms each point's
    result as numpy's ``@`` forms it for that point alone.
    """
    v = np.matmul(pi, grad_l[:, :, None])
    jac = dpi_grad_l + np.matmul(pi, hess_l)
    vt = v.transpose(0, 2, 1)
    jv = np.matmul(jac, v).transpose(0, 2, 1)
    return (np.matmul(np.matmul(vt, hess_f), v) + np.matmul(jv, grad_f[:, :, None]))[:, 0, 0]


def _dpi_grad(dpi: np.ndarray, grad_l: np.ndarray) -> np.ndarray:
    return np.einsum("kij,j->ik", dpi, grad_l)


def apply_xl2(system: HamiltonianSystem, f: ScalarField, x):
    """X_L(X_L F) at ``x``, exact through second jets: :func:`_xl2` on a
    cloud of one point."""
    jl = system.hamiltonian.jet2(x)
    jf = f.jet2(x)
    pi, dpi = system.structure.matrix_with_grads(x)
    return _xl2(jl.grad[None], jl.hess[None], jf.grad[None], jf.hess[None], pi,
                _dpi_grad(dpi, jl.grad)[None])[0]


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
    dpi_grad_l = np.zeros((n, d, d), dtype=grad_l.dtype)
    with np.errstate(all="ignore"):
        xl2 = _xl2(grad_l, hess_l, grad_f, hess_f, structure.const, dpi_grad_l)
    return xl2, marked, l_vals, f_vals


def extend_structure(structure: PoissonStructure) -> PoissonStructure:
    """Append a canonical pair ``(u, p_u)`` ahead of the base coordinates.

    The result acts on ``(u, p_u, x_1 .. x_n)`` as the direct sum of the
    2x2 block ((0, 1), (-1, 0)) and the base bivector.
    """
    n = structure.dim
    if structure.const is not None:
        big = np.zeros((n + 2, n + 2))
        big[0, 1] = 1.0
        big[1, 0] = -1.0
        big[2:, 2:] = structure.const
        return PoissonStructure(
            dim=n + 2, const=big,
            label=f"extended({structure.label})" if structure.label else "extended",
        )

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

    return PoissonStructure(
        dim=n + 2, entries=entries,
        label=f"extended({structure.label})" if structure.label else "extended",
    )


def jacobi_residual(structure: PoissonStructure, x) -> float:
    """Max over index triples of the cyclic Jacobi combination.

    sum_l (pi_il d_l pi_jk + pi_jl d_l pi_ki + pi_kl d_l pi_ij) vanishes
    identically for a Poisson bivector.
    """
    pi, dpi = structure.matrix_with_grads(x)
    a = np.einsum("il,ljk->ijk", pi, dpi)
    total = a + a.transpose(1, 2, 0) + a.transpose(2, 0, 1)
    return float(np.max(np.abs(total)))
