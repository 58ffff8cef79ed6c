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

from dataclasses import dataclass, field
from typing import Any, Callable

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

    def __post_init__(self):
        if (self.entries is None) == (self.const is None):
            raise ValueError("a Poisson structure needs exactly one of an entry rule "
                             "and a constant matrix")
        if self.const is not None:
            self.const = np.asarray(self.const, dtype=float)
            if self.const.shape != (self.dim, self.dim):
                raise ValueError("constant bivector has the wrong shape")
            self._check_antisym(self.const)
            self.const.setflags(write=False)

    def _check_antisym(self, m: np.ndarray):
        # max |m + m^T| against the tolerance scaled by max(1, max |m|);
        # builtin max over lists beats numpy reductions at these sizes
        scale = max(1.0, max(map(abs, m.ravel().tolist())))
        if max(map(abs, (m + m.T).ravel().tolist())) > _ANTISYM_TOL * scale:
            raise ValueError(
                f"bivector {self.label or ''} is not antisymmetric within {_ANTISYM_TOL:g}"
            )

    def _assemble(self, values) -> np.ndarray:
        """Entry values, nested by row, as a float matrix checked for antisymmetry."""
        m = np.array(values, dtype=float)
        self._check_antisym(m)
        return m

    def matrix(self, x) -> np.ndarray:
        """The bivector evaluated at ``x``."""
        if self.const is not None:
            return self.const
        return self._assemble(self.entries(np.asarray(x, dtype=float).tolist()))

    def matrix_with_grads(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Bivector and its entry derivatives.

        Returns ``(pi, dpi)`` with ``dpi[k, i, j] = d pi_ij / d x_k``.
        """
        d = self.dim
        if self.const is not None:
            return self.const, np.zeros((d, d, d))
        zero = (0.0,) * d
        rows = [[e if isinstance(e, Jet) else Jet(e, zero) for e in row]
                for row in self.entries(_seeds(np.asarray(x, dtype=float).tolist()))]
        m = self._assemble([[e.value for e in row] for row in rows])
        dm = np.array([[e.grad for e in row] for row in rows], dtype=float)
        return m, np.ascontiguousarray(dm.transpose(2, 0, 1))


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


def ham_field(system: HamiltonianSystem, x) -> tuple[Jet, np.ndarray]:
    """L's first jet at ``x`` and the Hamiltonian vector field pi grad L there."""
    jl = system.hamiltonian.jet1(x)
    return jl, system.structure.matrix(x) @ jl.grad


def base_flow(system: HamiltonianSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side ``x -> pi grad L`` for integrators."""
    return lambda x: ham_field(system, x)[1]


def bracket(structure: PoissonStructure, f: ScalarField, g: ScalarField, x):
    """{F, G} = grad F . pi grad G at ``x``."""
    gf = f.jet1(x).grad
    gg = g.jet1(x).grad
    return gf @ structure.matrix(x) @ gg


def apply_xl(system: HamiltonianSystem, f: ScalarField, x):
    """X_L F = {F, L} at ``x``."""
    return f.jet1(x).grad @ ham_field(system, x)[1]


def apply_xl2(system: HamiltonianSystem, f: ScalarField, x):
    """X_L(X_L F) at ``x``, exact through second jets."""
    jl = system.hamiltonian.jet2(x)
    jf = f.jet2(x)
    pi, dpi = system.structure.matrix_with_grads(x)
    v = pi @ jl.grad
    jac = np.einsum("kij,j->ik", dpi, jl.grad) + pi @ jl.hess
    return v @ jf.hess @ v + (jac @ v) @ jf.grad


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
