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
from .poisson import HamiltonianSystem, PoissonStructure, _dot, extend_structure, ham_field
from .riccati import _POLE_TOL, PoleError, RiccatiParams, riccati_eval

__all__ = [
    "ExtensionBuildError",
    "ExtensionParams",
    "ExtensionSeed",
    "ExtendedState",
    "DerivPair",
    "seed_pair",
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

    def vector(self) -> np.ndarray:
        return np.concatenate(([self.u, self.p_u], self.base))


class DerivPair:
    """A function value paired with its image under a fixed derivation."""

    __slots__ = ("value", "xl")

    def __init__(self, value, xl):
        self.value = value
        self.xl = xl


def seed_pair(system: HamiltonianSystem, seed_field: ScalarField, x) -> tuple[DerivPair, float]:
    """(G, X_L G) as a pair at ``x``, plus the value of L there.

    ``x`` is a list of floats, taken as it is, or any other coordinate
    sequence, turned into one; L and G both read that list through
    :meth:`ScalarField.value_grad`.  X_L G is grad G . pi grad L, summed
    left to right from 0.0 (:func:`~extkit.poisson._dot`), so it rounds
    the same whatever the host's BLAS kernel.
    """
    xs = x if type(x) is list else system.hamiltonian._coords(x)
    lval, v = ham_field(system, xs)
    value, grad = seed_field.value_grad(xs)
    return DerivPair(value, _dot(grad, v)), lval


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


def _closed_chain(n_max: int, pair: DerivPair, lam, first: int = 1) -> list:
    """G_first ... G_{n_max} in closed form, from one table of powers.

    Each term is formed with the operations, in the order, of the pair
    expression comb * (-2 lam)^k * pair**(2k+1) * xg**(n-2k-1), with
    Leibniz products and the powers of :func:`_pair_powers`.  Each member
    reads the tables alone, so it comes out the same whatever ``first``.
    """
    w = -2.0 * lam
    g_pow = _pair_powers(pair.value, pair.xl, n_max + 1)
    xg_pow = _pair_powers(pair.xl, w * pair.value, n_max)
    w_pow = [w**k for k in range((n_max + 1) // 2)]
    chain = []
    for n in range(first, n_max + 1):
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


def recursion_term_closed(n: int, pair: DerivPair, lam) -> DerivPair:
    """n-th member of the seed chain in closed form.

    G_n = sum_k binom(n, 2k+1) (-2 lam)^k G^(2k+1) (X_L G)^(n-2k-1).
    """
    _integer(n, "chain index n", 1)
    return _closed_chain(n, pair, lam, n)[0]


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
    Every state takes L and pi grad L from :func:`ham_field` at ``vec[2:]``
    and the profile from :func:`profile_at`, which raise the errors.
    """
    k2 = params.k**2
    c0 = params.c0
    omega = params.omega

    def rhs(vec: Sequence[float]) -> list:
        gam, dgam, ddgam = profile_at(params, float(vec[0]))
        lval, v = ham_field(system, vec[2:])
        dpu = k2 * ddgam * lval - 2.0 * k2 * c0 * gam * dgam
        if omega != 0.0:
            dpu += 2.0 * omega * dgam / gam**3
        scale = -k2 * dgam
        return [float(vec[1]), dpu, *[scale * w for w in v]]

    rhs._flow = (system, params)  # what integrate's fused rk4 step is built from
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


def _hamiltonian_from_parts(params: ExtensionParams, profile, lval, p_u) -> float:
    """H = p_u^2/2 - k^2 y' L + k^2 c0 y^2 + omega / y^2 from the profile
    (y, y', y'') at u, the value of L at the base point and p_u."""
    gam, dgam, _ = profile
    k2 = params.k**2
    h = 0.5 * p_u**2 - k2 * dgam * lval + k2 * params.c0 * gam * gam
    if params.omega != 0.0:
        h += params.omega / gam**2
    return h


# How a K observable gives K's value at a point: a real K as a float, a
# complex one as the real and imaginary parts of a complex.
_K_PARTS = {"K": float, "K_re": lambda k: complex(k).real, "K_im": lambda k: complex(k).imag}


class _Point:
    """H, L and K by parts at one flat vector (u, p_u, base): the one-point
    form of the evaluation, of which a :class:`_Stencil` shares one per
    distinct value of u and base point.

    Its parts are the profile at u and, at the base point, the base part
    (:meth:`Extension._base_part`) or, until K asks for that, L's
    ``value``.  Each is formed when first read and is not kept where it
    raises.  The base point is a list of its own: a view of the caller's
    vector would let a write to it reach the parts not formed yet.
    """

    __slots__ = ("ext", "u", "p_u", "base", "y", "part", "k")

    def __init__(self, ext: "Extension", u, p_u, base: list):
        self.ext, self.u, self.p_u, self.base = ext, u, p_u, base
        self.y = self.part = self.k = None

    def profile(self) -> tuple:
        if self.y is None:
            self.y = profile_at(self.ext.params, self.u)
        return self.y

    def base_part(self) -> tuple:
        part = self.part
        if part is None or part[0] is None:
            part = self.part = self.ext._base_part(self.base)
        return part

    def l_value(self):
        # L from the base part, which agrees with L's value bit for bit, else
        # from L's value, kept as a part (None, None, L) until K asks
        if self.part is None:
            self.part = (None, None, self.ext.system.hamiltonian.value(self.base))
        return self.part[2]

    def hamiltonian(self) -> float:
        return _hamiltonian_by_parts(self, self.p_u, self)

    def integral(self):
        """K here, formed once."""
        if self.k is None:
            self.k = _integral_by_parts(self, self.p_u, self)
        return self.k


def _hamiltonian_by_parts(at_u: _Point, p_u, at_base: _Point) -> float:
    """H with the profile of ``at_u`` and L of ``at_base``, the profile
    formed first."""
    return _hamiltonian_from_parts(at_u.ext.params, at_u.profile(), at_base.l_value(), p_u)


def _integral_by_parts(at_u: _Point, p_u, at_base: _Point):
    """K with the profile of ``at_u`` and the base part of ``at_base``, the
    base part formed first."""
    chain, lam, _ = at_base.base_part()
    return _integral_from_parts(at_u.ext.params, chain, lam, at_u.profile()[0], p_u)


class _Stencil:
    """H, L and K by parts at the points of one central-difference stencil.

    The points are :func:`~extkit.verify.fd_gradient`'s at the flat vector
    x = (u, p_u, base) with step h, in its order: x + h e_0, x - h e_0,
    x + h e_1, ...  Their 2 (d + 2) coordinate vectors hold three values of
    u and 2d + 1 base points, and share one :class:`_Point` for each, so the
    profile is formed once per value of u, and the base part or L's value
    once per base point, each when the first point that reads it is
    evaluated.  So each point is evaluated as each observable alone would
    evaluate it at one vector, in its order (K: base part, then profile; H:
    profile, then L), and every value and every error is that
    evaluation's; H and L never evaluate G, and L never the profile.
    """

    __slots__ = ("points", "kept")

    def __init__(self, ext: "Extension", x: np.ndarray, h):
        xs, up, down = x.tolist(), (x + h).tolist(), (x - h).tolist()
        base, p_u = xs[2:], xs[1]
        centre = _Point(ext, xs[0], p_u, base)
        # (point of its u, p_u, point of its base point) at each point
        self.points = ([(_Point(ext, up[0], p_u, base), p_u, centre),
                        (_Point(ext, down[0], p_u, base), p_u, centre),
                        (centre, up[1], centre), (centre, down[1], centre)]
                       + [(centre, p_u,
                           _Point(ext, xs[0], p_u, [*base[:j], s[j + 2], *base[j + 1:]]))
                          for j in range(len(base)) for s in (up, down)])
        self.kept: dict = {}

    def values(self, name: str) -> list:
        """The values at the points of the observable ``name``: "H", "L",
        "K", "K_re", "K_im" or "integral" (K as it is), K's parts reading one
        evaluation of K."""
        vals = self.kept.get(name)
        if vals is None:
            if name == "H":
                vals = [_hamiltonian_by_parts(*point) for point in self.points]
            elif name == "L":
                vals = [at_base.l_value() for _, _, at_base in self.points]
            elif name == "integral":
                vals = [_integral_by_parts(*point) for point in self.points]
            else:
                vals = list(map(_K_PARTS[name], self.values("integral")))
            self.kept[name] = vals
        return vals


# Each observable's value at one vector, from its _Point.
_AT_POINT = {"H": _Point.hamiltonian, "L": _Point.l_value,
             **{name: lambda one, part=part: part(one.integral())
                for name, part in _K_PARTS.items()}}


class _Observable:
    """H, L, K, K_re or K_im of an extension, over flat extended vectors.

    Called, it evaluates one vector; :meth:`at_stencil` gives its values at
    the points of a central-difference stencil, for
    :func:`~extkit.verify.fd_gradient`.  Both read the extension's one kept
    evaluation by parts (:meth:`Extension._kept_evaluation`).
    """

    __slots__ = ("ext", "name", "_at_point")

    def __init__(self, ext: "Extension", name: str):
        self.ext, self.name, self._at_point = ext, name, _AT_POINT[name]

    def __call__(self, vec) -> float:
        return self._at_point(self.ext._kept_evaluation(np.asarray(vec, dtype=float), None))

    def at_stencil(self, x: np.ndarray, h) -> list:
        """The values at x + h e_0, x - h e_0, x + h e_1, ..., bit for bit the
        observable's at each of those points, or the error of the first
        point that raises."""
        return self.ext._kept_evaluation(x, h).values(self.name)


@dataclass(frozen=True)
class Extension:
    """A built extension: system, seed and constants, ready to evaluate.

    K is evaluated in two parts (:func:`_integral_from_parts`).  The base
    point fixes the chain member (G_r, X_L G_r), formed from
    :func:`seed_pair`'s (G, X_L G) by :func:`recursion_term_closed`, and
    lam = c L + c0 (:meth:`_base_part`, which also gives L's value); (u,
    p_u) adds one profile value and the cofactor sums.  H is formed from
    the profile, L's value and p_u (:func:`_hamiltonian_from_parts`).

    Every value of H, L and K comes from one evaluation by parts, at one
    vector (:class:`_Point`) or at the points of a central-difference
    stencil (:class:`_Stencil`, which shares one :class:`_Point` per
    distinct u and per distinct base point): one profile per distinct u
    and one base part (or, where K is not asked, one L value) per distinct
    base point.  So H, L and K at one state form the profile once and L
    once, and one bracket state builds the chain 2d + 1 times and evaluates
    the profile 3 times.  The last evaluation is kept, keyed by the exact
    bytes of its vector and its step (None for one vector), so every
    observable asked at the same vector, or the same stencil, reads one
    pass.  An evaluation error is not kept.  The instance is frozen, so the
    kept evaluation cannot outlive the system and seed it came from.
    """

    system: HamiltonianSystem
    seed: ExtensionSeed
    params: ExtensionParams
    # the last evaluation: [(vector bytes, step or None), _Point or _Stencil]
    _last: list = field(default_factory=lambda: [None, None], init=False, repr=False,
                        compare=False)

    def _base_part(self, base) -> tuple[DerivPair, float, float]:
        """The chain member (G_r, X_L G_r), lam = c L + c0 and L at ``base``."""
        params = self.params
        pair, lval = seed_pair(self.system, self.seed.field, base)
        lam = params.c * lval + params.c0
        return recursion_term_closed(_chain_indices(params)[1], pair, lam), lam, lval

    def _kept_evaluation(self, x: np.ndarray, h) -> _Point | _Stencil:
        """The evaluation by parts at the flat vector ``x`` (``h`` None) or
        at its stencil with step ``h``: the kept one where its key is (x's
        bytes, h), else a new one, kept in its place."""
        key = (x.tobytes(), h)
        last = self._last
        if last[0] != key:
            if h is None:
                xs = x.tolist()
                last[:] = key, _Point(self, xs[0], xs[1], xs[2:])
            else:
                last[:] = key, _Stencil(self, x, h)
        return last[1]

    def hamiltonian(self, state: ExtendedState) -> float:
        """H = p_u^2/2 - k^2 y' L + k^2 c0 y^2 + omega / y^2 at ``state``."""
        return self._kept_evaluation(state.vector(), None).hamiltonian()

    def integral(self, state: ExtendedState):
        """K at ``state``; see :func:`_integral_from_parts`."""
        return self._kept_evaluation(state.vector(), None).integral()

    def flow(self) -> Callable[[np.ndarray], np.ndarray]:
        return extended_flow(self.system, self.params)

    def structure(self) -> PoissonStructure:
        return extend_structure(self.system.structure)

    def conserved_quantities(self) -> dict[str, Callable[[np.ndarray], float]]:
        """H, L and K as observables over flat extended vectors, for drift
        reports and finite-difference gradients.

        Each reads (u, p_u, base) from the vector, with the numbers of
        :meth:`hamiltonian`, L's ``value`` and :meth:`integral`.  A complex
        K is split into its real and imaginary parts, K_re and K_im, so every
        observable is real.  Each is an :class:`_Observable`: called at one
        vector, or asked for a stencil's values
        (:meth:`_Observable.at_stencil`), all of them read the extension's
        one evaluation by parts (:meth:`_kept_evaluation`), bit for bit their
        values and errors at each point.
        """
        names = ["H", "L", *(["K_re", "K_im"] if self.seed.field.codomain == "complex"
                             else ["K"])]
        return {name: _Observable(self, name) for name in names}


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
