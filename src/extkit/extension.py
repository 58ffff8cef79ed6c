"""Extension of a Hamiltonian system by one canonical degree of freedom.

Starting from a system with Hamiltonian L on a Poisson manifold and a
seed function G solving

    X_L^2 G = -2 (c L + c0) G,      (c, c0) != (0, 0),

the extended Hamiltonian on (u, p_u, x) is

    H = p_u^2 / 2 - k^2 y'(u) L + k^2 c0 y(u)^2 + omega / y(u)^2,

where y solves y' + c y^2 + C = 0 and k = m/n is a rational constant.
H admits an extra first integral built from powers of the shift
operator U = p_u + (m/n^2) y X_L applied to members of the seed chain

    G_1 = G,   G_{i+1} = X_L(G) G_i + (1/i) G X_L(G_i),

namely K = U^m(G_n) when omega = 0 and, for omega != 0 and even first
index, a binomial combination of even operator powers.  Odd first index
with omega != 0 is handled by doubling both indices, which leaves k and
hence H unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Sequence

import numpy as np

from .jets import ScalarField, _integer, _real
from .poisson import (HamiltonianSystem, PoissonStructure, _plain_field, extend_structure,
                      ham_field)
from .riccati import _POLE_TOL, PoleError, RiccatiParams, riccati_eval

__all__ = [
    "ExtensionBuildError",
    "ExtensionParams",
    "ExtensionSeed",
    "ExtendedState",
    "DerivPair",
    "seed_pair",
    "recursion_term",
    "recursion_term_closed",
    "power_coeffs",
    "profile_at",
    "extended_flow",
    "Extension",
    "build_extension",
]


class ExtensionBuildError(Exception):
    """The requested extension is not well formed."""


@dataclass(frozen=True)
class ExtensionParams:
    """Constants defining one extension.

    ``c`` and ``c0`` enter the defining equation of the seed, ``C`` is
    the inhomogeneity of the profile equation y' + c y^2 + C = 0,
    ``m``/``n`` fix the coupling ratio k = m/n, and ``omega`` adds the
    centrifugal term omega / y^2.  ``offset`` shifts the profile origin
    in u.
    """

    c: float
    c0: float
    C: float
    m: int
    n: int
    omega: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.c == 0.0 and self.c0 == 0.0:
            raise ValueError("extension constants c and c0 must not both vanish")
        for name in ("c", "c0", "C", "omega", "offset"):
            _real(getattr(self, name), f"extension parameter {name}")
        for name in ("m", "n"):
            _integer(getattr(self, name), f"index {name}", 1)
        if self.c == 0.0 and self.C == 0.0 and self.omega != 0.0:
            raise ValueError("omega != 0 needs a profile that is not identically zero")
        # The profile's Riccati constants, validated here once rather than on
        # every profile evaluation; None stands for the zero profile.
        object.__setattr__(self, "_riccati", None if self.c == 0.0 and self.C == 0.0
                           else RiccatiParams(self.c, self.C, self.offset))

    @property
    def k(self) -> float:
        return self.m / self.n


def profile_at(params: ExtensionParams, u: float) -> tuple[float, float, float]:
    """Profile value, slope and curvature at ``u``.

    The degenerate pair (c, C) = (0, 0) has the identically-zero
    profile; otherwise this is the closed-form Riccati solution.  With
    omega != 0, a profile value within 1e-12 of zero is a pole of the
    centrifugal term omega / y^2 and raises :class:`PoleError`.
    """
    if params._riccati is None:
        return 0.0, 0.0, 0.0
    y = riccati_eval(params._riccati, u)
    if params.omega != 0.0 and abs(y[0]) <= _POLE_TOL:
        raise PoleError(f"centrifugal term omega / y^2 has a pole at u = {u!r}, where y = 0")
    return y


@dataclass
class ExtensionSeed:
    """A seed function together with the constant pair it solves.

    ``meta["pair"]`` is the pair (c, c0) for which the defining equation
    holds; :func:`build_extension` accepts no other.  ``verified``
    records the outcome of an instantiation-time residual gate where one
    is run (None means the gate was not run).
    """

    field: ScalarField
    meta: dict = field(default_factory=dict)
    verified: bool | None = None


@dataclass
class ExtendedState:
    """A point (u, p_u, base coordinates) of the extended manifold."""

    u: float
    p_u: float
    base: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)

    @classmethod
    def from_vector(cls, vec) -> "ExtendedState":
        vec = np.asarray(vec, dtype=float)
        return cls(u=float(vec[0]), p_u=float(vec[1]), base=vec[2:].copy())

    def vector(self) -> np.ndarray:
        return np.concatenate(([self.u, self.p_u], self.base))


class DerivPair:
    """A function value paired with its image under a fixed derivation."""

    __slots__ = ("value", "xl")

    def __init__(self, value, xl):
        self.value = value
        self.xl = xl


def seed_pair(system: HamiltonianSystem, seed_field: ScalarField, x) -> tuple[DerivPair, float]:
    """(G, X_L G) as a pair at ``x``, plus the value of L there."""
    lval, v = ham_field(system, x)
    jg = seed_field.jet1(x)
    return DerivPair(jg.value, jg.grad @ np.array(v)), lval


def _recursion_chain(n_max: int, pair: DerivPair, lam) -> list:
    """G_1 ... G_{n_max} by direct recursion, in one pass.

    Works on streams of successive derivation images, truncated after
    n_max + 1 terms and closed under the two rules D(G) = X_L G and
    D(X_L G) = -2 lam G.  Term k of a Leibniz product reads only terms
    0..k of its factors, so after step i the first two terms are
    G_{i+1}'s value and X_L image, bit for bit what a run truncated at
    that index gives.
    """
    w = -2.0 * lam
    g_ext = [w ** (i // 2) * (pair.value if i % 2 == 0 else pair.xl) for i in range(n_max + 2)]
    g, xg = g_ext[:-1], g_ext[1:]
    cur = g
    chain = [DerivPair(cur[0], cur[1])]
    for i in range(1, n_max):
        # cur <- X_L(G) cur + (1/i) G X_L(cur), one term shorter
        nxt = []
        for k in range(len(cur) - 1):
            a = b = 0.0
            for j in range(k + 1):
                c = comb(k, j)
                a += c * xg[j] * cur[k - j]
                b += c * g[j] * cur[k + 1 - j]
            nxt.append(a + b / i)
        cur = nxt
        chain.append(DerivPair(cur[0], cur[1]))
    return chain


def _pair_powers(value, xl, count: int) -> list:
    # (value, xl) ** j for j < count, each a Leibniz product with (value, xl)
    out = [(1.0, 0.0)]
    for _ in range(count - 1):
        pv, px = out[-1]
        out.append((pv * value, px * value + pv * xl))
    return out


def _closed_chain(n_max: int, pair: DerivPair, lam) -> list:
    """G_1 ... G_{n_max} in closed form, from one table of powers.

    Each term is formed with the operations, in the order, of the pair
    expression comb * (-2 lam)^k * pair**(2k+1) * xg**(n-2k-1), with
    Leibniz products and the powers of :func:`_pair_powers`.
    """
    w = -2.0 * lam
    g_pow = _pair_powers(pair.value, pair.xl, n_max + 1)
    xg_pow = _pair_powers(pair.xl, w * pair.value, n_max)
    w_pow = [w**k for k in range((n_max + 1) // 2)]
    chain = []
    for n in range(1, n_max + 1):
        for k in range((n - 1) // 2 + 1):
            s = comb(n, 2 * k + 1) * w_pow[k]
            if isinstance(s, np.generic):
                # as numpy's object loop, which hands a pair the factor as a Python number
                s = s.item()
            gv, gx = g_pow[2 * k + 1]
            gv, gx = gv * s, gx * s
            qv, qx = xg_pow[n - 2 * k - 1]
            tv, tx = gv * qv, gx * qv + gv * qx
            if k == 0:
                value, xl = tv, tx
            else:
                value, xl = value + tv, xl + tx
        chain.append(DerivPair(value, xl))
    return chain


def recursion_term(n: int, pair: DerivPair, lam) -> DerivPair:
    """n-th member of the seed chain, evaluated by direct recursion.

    Returns the value and first derivative of the chain member; see
    :func:`_recursion_chain`.  Agreement with
    :func:`recursion_term_closed` is part of the test surface.
    """
    _integer(n, "chain index n", 1)
    return _recursion_chain(n, pair, lam)[-1]


def recursion_term_closed(n: int, pair: DerivPair, lam) -> DerivPair:
    """n-th member of the seed chain in closed form.

    G_n = sum_k binom(n, 2k+1) (-2 lam)^k G^(2k+1) (X_L G)^(n-2k-1).
    """
    _integer(n, "chain index n", 1)
    return _closed_chain(n, pair, lam)[-1]


def power_coeffs(m: int, n: int, r: int, p_u: float, gam: float, lam) -> tuple:
    """Coefficients (P, D) with U_{m,n}^r (G_n) = P G_n + D X_L(G_n).

    U_{m,n} = p_u + (m/n^2) gam X_L, and the closed form follows from
    X_L^2(G_n) = -2 n^2 lam G_n:

      P = sum_j binom(r, 2j)   (m gam/n)^(2j)   p_u^(r-2j)   (-2 lam)^j
      D = sum_j binom(r, 2j+1) (m gam/n)^(2j+1) p_u^(r-2j-1) (-2 lam)^j / n
    """
    _integer(m, "chain index m", 1)
    _integer(n, "chain index n", 1)
    _integer(r, "operator power r", 0)
    if r > m:
        raise ValueError(f"operator power r = {r} exceeds the first index m = {m}")
    return _cofactors(m, n, r, p_u, gam, lam)


def _cofactors(m: int, n: int, r: int, p_u, gam, lam) -> tuple:
    # power_coeffs with indices that are already known to be good
    kg = m * gam / n
    w = -2.0 * lam
    p_total = 0.0
    for j in range(r // 2 + 1):
        p_total += comb(r, 2 * j) * kg ** (2 * j) * p_u ** (r - 2 * j) * w**j
    d_total = 0.0
    for j in range((r - 1) // 2 + 1):
        d_total += comb(r, 2 * j + 1) * kg ** (2 * j + 1) * p_u ** (r - 2 * j - 1) * w**j
    return p_total, d_total / n


def extended_flow(system: HamiltonianSystem, params: ExtensionParams
                  ) -> Callable[[Sequence[float]], list]:
    """Right-hand side of Hamilton's equations for the extended system.

    Acts on flat vectors (u, p_u, x), any float sequence, and returns a
    list; the base block is the rescaled base field -k^2 y'(u) pi grad L.
    A list state takes its base block from the base system's
    :func:`~extkit.poisson._plain_field` where that answers, and
    :func:`ham_field` gives every other one and raises the errors.
    """
    k2 = params.k**2
    c0 = params.c0
    omega = params.omega
    plain = _plain_field(system)

    def rhs(vec: Sequence[float]) -> list:
        gam, dgam, ddgam = profile_at(params, float(vec[0]))
        out = plain(vec[2:]) if type(vec) is list else None
        lval, v = ham_field(system, vec[2:]) if out is None else out
        dpu = k2 * ddgam * lval - 2.0 * k2 * c0 * gam * dgam
        if omega != 0.0:
            dpu += 2.0 * omega * dgam / gam**3
        scale = -k2 * dgam
        return [float(vec[1]), dpu, *[scale * w for w in v]]

    return rhs


def _chain_indices(params: ExtensionParams) -> tuple[int, int]:
    """(s, r): K is built on the chain member G_r, with r = n for omega = 0,
    and (s, r) = (m/2, n) for even m and (m, 2n) for odd m otherwise."""
    if params.omega != 0.0 and params.m % 2:
        return params.m, 2 * params.n
    return params.m // 2, params.n


def _integral_from_parts(params: ExtensionParams, chain: DerivPair, lam, gam, p_u):
    """The characteristic first integral K from its two parts: the chain
    member (G_r, X_L G_r) and lam = c L + c0, which depend on the base
    point only, and the profile value gam = y(u) and p_u.

    For omega = 0 this is U_{m,n}^m (G_n).  For omega != 0 the even-index
    combination sum_j binom(s,j) (2 omega/y^2)^j U_{2s,r}^{2(s-j)} (G_r)
    is used (see :func:`_chain_indices`).
    """
    if params.omega == 0.0:
        p_c, d_c = _cofactors(params.m, params.n, params.m, p_u, gam, lam)
        return p_c * chain.value + d_c * chain.xl
    s, r = _chain_indices(params)
    w = 2.0 * params.omega / gam**2
    total = 0.0
    for j in range(s + 1):
        p_c, d_c = _cofactors(2 * s, r, 2 * (s - j), p_u, gam, lam)
        total = total + comb(s, j) * w**j * (p_c * chain.value + d_c * chain.xl)
    return total


def _vector_parts(vec) -> tuple[float, float, np.ndarray]:
    """(u, p_u, base coordinates) of a flat extended vector."""
    vec = np.asarray(vec, dtype=float)
    return float(vec[0]), float(vec[1]), vec[2:]


# Entries kept by each memo of an Extension, the oldest dropped first:
# base points with their chain member and lam, and, for a complex K, whole
# vectors with their K.  At least 2 (d + 2) = 12, the points of one
# central-difference stencil over (u, p_u, x) on the largest catalog base
# (d = 4), which hold 2d + 1 = 9 distinct base points; and far below the
# hundreds of points one sampled gate visits.
SEED_PAIR_MEMO_SIZE = 32


def _keep(memo: dict, key, value):
    """``value``, stored under ``key`` after the oldest entry is dropped
    from a full ``memo``."""
    if len(memo) >= SEED_PAIR_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


@dataclass(frozen=True)
class Extension:
    """A built extension: system, seed and constants, ready to evaluate.

    K is evaluated in two parts (:func:`_integral_from_parts`).  The base
    point fixes the chain member (G_r, X_L G_r), formed from
    :func:`seed_pair`'s (G, X_L G) by :func:`recursion_term_closed`, and
    lam = c L + c0.  These are kept for the last
    :data:`SEED_PAIR_MEMO_SIZE` distinct base points, keyed by the exact
    bytes of the base coordinates.  (u, p_u) then costs one profile value
    and the cofactor sums.  So a finite-difference stencil builds the
    chain once per distinct base point: its u and p_u steps keep the base
    point.  The bound covers one stencil but not a repeated pass over a
    point cloud.  An evaluation error is not kept.  The instance is
    frozen, so the kept parts cannot outlive the system and seed they
    came from.
    """

    system: HamiltonianSystem
    seed: ExtensionSeed
    params: ExtensionParams
    _seed_pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _base_part(self, base: np.ndarray) -> tuple[DerivPair, float]:
        """The chain member (G_r, X_L G_r) and lam = c L + c0 at ``base``."""
        key = base.tobytes()
        hit = self._seed_pairs.get(key)
        if hit is None:
            params = self.params
            pair, lval = seed_pair(self.system, self.seed.field, base)
            lam = params.c * lval + params.c0
            hit = _keep(self._seed_pairs, key,
                        (recursion_term_closed(_chain_indices(params)[1], pair, lam), lam))
        return hit

    def _integral_at(self, u: float, p_u: float, base: np.ndarray):
        chain, lam = self._base_part(base)
        return _integral_from_parts(self.params, chain, lam, profile_at(self.params, u)[0], p_u)

    def _hamiltonian_at(self, u: float, p_u: float, base: np.ndarray) -> float:
        params = self.params
        gam, dgam, _ = profile_at(params, u)
        lval = self.system.hamiltonian.value(base)
        k2 = params.k**2
        h = 0.5 * p_u**2 - k2 * dgam * lval + k2 * params.c0 * gam * gam
        if params.omega != 0.0:
            h += params.omega / gam**2
        return h

    def hamiltonian(self, state: ExtendedState) -> float:
        """H = p_u^2/2 - k^2 y' L + k^2 c0 y^2 + omega / y^2 at ``state``."""
        return self._hamiltonian_at(state.u, state.p_u, state.base)

    def integral(self, state: ExtendedState):
        """K at ``state``; see :func:`_integral_from_parts`."""
        return self._integral_at(state.u, state.p_u, state.base)

    def flow(self) -> Callable[[np.ndarray], np.ndarray]:
        return extended_flow(self.system, self.params)

    def structure(self) -> PoissonStructure:
        return extend_structure(self.system.structure)

    def conserved_quantities(self) -> dict[str, Callable[[np.ndarray], float]]:
        """Observables over flat extended vectors, for drift reports.

        Each reads (u, p_u, base) from the vector, with the numbers of
        :meth:`hamiltonian` and :meth:`integral`.  Complex-valued integrals
        are split into real and imaginary parts so every observable is
        real.  The two parts share one evaluation of K: the last
        :data:`SEED_PAIR_MEMO_SIZE` vectors asked about, by their bytes,
        and their K are kept, so the imaginary part's finite-difference
        stencil reads the values of the real part's.
        """
        ham = self.system.hamiltonian
        out: dict[str, Callable[[np.ndarray], float]] = {
            "H": lambda vec: self._hamiltonian_at(*_vector_parts(vec)),
            "L": lambda vec: ham.value(vec[2:]),
        }
        if self.seed.field.codomain == "complex":
            kept: dict = {}

            def k_at(vec) -> complex:
                key = np.asarray(vec, dtype=float).tobytes()
                k = kept.get(key)
                if k is None:
                    k = _keep(kept, key, complex(self._integral_at(*_vector_parts(vec))))
                return k

            out["K_re"] = lambda vec: k_at(vec).real
            out["K_im"] = lambda vec: k_at(vec).imag
        else:
            out["K"] = lambda vec: float(self._integral_at(*_vector_parts(vec)))
        return out


def build_extension(system: HamiltonianSystem, seed: ExtensionSeed,
                    params: ExtensionParams) -> Extension:
    """Validate compatibility and assemble an :class:`Extension`.

    Rejects a seed of another dimension, and constants (c, c0) either
    of which differs from its entry r of the seed's ``meta["pair"]`` by
    more than 1e-12 max(1, |r|).
    """
    if seed.field.dim != system.dim:
        raise ExtensionBuildError("seed dimension does not match the system")
    pair = seed.meta.get("pair")
    if pair is None or any(abs(v - ref) > 1e-12 * max(1.0, abs(ref))
                           for v, ref in zip((params.c, params.c0), pair)):
        raise ExtensionBuildError(
            f"seed {seed.field.label} does not solve the defining equation "
            f"for (c, c0) = ({params.c}, {params.c0})"
        )
    return Extension(system=system, seed=seed, params=params)
