"""Reference algorithms that the tests hold the library to.

:class:`Pair` is :class:`~extkit.extension.DerivPair` with sums and
Leibniz products, so polynomial expressions in pairs carry exact first
derivatives.  The library multiplies pairs out on tuples; this arithmetic
serves the reference algorithms of the tests, and the library's
evaluation of K must equal :func:`integral_from_pair` bit for bit.
:func:`observable` is each observable of ``Extension.conserved_quantities``
at one vector from these, with nothing kept.

:func:`bracket` and :func:`apply_xl` are the first-order bracket and
derivation by their definitions, for checks of the catalog's identities.
:func:`check_antisym` is the one-pass tolerance check that
``PoissonStructure._check_antisym`` must agree with, result or message.
"""
import math
from math import comb

import numpy as np

from extkit.extension import (DerivPair, power_coeffs, profile_at, recursion_term_closed,
                              seed_pair)
from extkit.poisson import ham_field


class Pair(DerivPair):
    """A :class:`DerivPair` with the arithmetic of a derivation's pairs."""

    __slots__ = ()

    def __add__(self, o):
        if isinstance(o, DerivPair):
            return Pair(self.value + o.value, self.xl + o.xl)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, DerivPair):
            return Pair(self.value * o.value, self.xl * o.value + self.value * o.xl)
        if isinstance(o, (int, float, complex)):
            return Pair(self.value * o, self.xl * o)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Pair(1.0, 0.0)
        for _ in range(n):
            out = out * self
        return out


def integral_from_pair(params, pair: DerivPair, lval, u: float, p_u: float):
    """K from the seed pair (G, X_L G), the value of L at the base point,
    and (u, p_u), in one pass: every part formed again at every call.

    For omega = 0 this is U_{m,n}^m (G_n).  For omega != 0 the even-index
    combination sum_j binom(s,j) (2 omega/y^2)^j U_{2s,r}^{2(s-j)} (G_r)
    is used, with (s, r) = (m/2, n) for even m and (m, 2n) for odd m.
    """
    lam = params.c * lval + params.c0
    gam, _, _ = profile_at(params, u)
    if params.omega == 0.0:
        chain = recursion_term_closed(params.n, pair, lam)
        p_c, d_c = power_coeffs(params.m, params.n, params.m, p_u, gam, lam)
        return p_c * chain.value + d_c * chain.xl
    if params.m % 2 == 0:
        s, r = params.m // 2, params.n
    else:
        s, r = params.m, 2 * params.n
    chain = recursion_term_closed(r, pair, lam)
    w = 2.0 * params.omega / gam**2
    total = 0.0
    for j in range(s + 1):
        p_c, d_c = power_coeffs(2 * s, r, 2 * (s - j), p_u, gam, lam)
        total = total + comb(s, j) * w**j * (p_c * chain.value + d_c * chain.xl)
    return total


def hamiltonian_from_value(params, lval, u: float, p_u: float):
    """H = p_u^2/2 - k^2 y' L + k^2 c0 y^2 + omega / y^2 from the value of L
    at the base point and (u, p_u)."""
    gam, dgam, _ = profile_at(params, u)
    k2 = params.k**2
    h = 0.5 * p_u**2 - k2 * dgam * lval + k2 * params.c0 * gam * gam
    if params.omega != 0.0:
        h += params.omega / gam**2
    return h


# K as each K observable gives it: a real K as a float, a complex one split
K_PARTS = {"K": float, "K_re": lambda k: complex(k).real, "K_im": lambda k: complex(k).imag,
           "integral": lambda k: k}


def observable(ext, name, vec):
    """H, L, K, K_re, K_im or K as it is ("integral") of the extension
    ``ext`` at the flat vector ``vec``, every part formed again, each asked
    in the order the observable asks for it: H the profile, then L's value;
    L its value alone; K the seed pair with L's value
    (:func:`~extkit.extension.seed_pair`), then :func:`integral_from_pair`,
    which forms the profile.  So the value, or the first error raised, is
    the observable's."""
    vec = np.asarray(vec, dtype=float)
    u, p_u, base = float(vec[0]), float(vec[1]), vec[2:]
    if name == "L":
        return ext.system.hamiltonian.value(base)
    if name == "H":
        profile_at(ext.params, u)
        return hamiltonian_from_value(ext.params, ext.system.hamiltonian.value(base), u, p_u)
    pair, lval = seed_pair(ext.system, ext.seed.field, base)
    return K_PARTS[name](integral_from_pair(ext.params, pair, lval, u, p_u))


def bracket(structure, f, g, x):
    """{F, G} = grad F . pi grad G at ``x``."""
    return f.jet1(x).grad @ structure.matrix(x) @ g.jet1(x).grad


def apply_xl(system, f, x):
    """X_L F = {F, L} at ``x``."""
    return f.jet1(x).grad @ np.array(ham_field(system, x)[1])


def check_antisym(structure, rows):
    """``rows`` once they are ``structure.dim`` rows of as many entries and
    every |m + m^T| is within 1e-14 scaled by max(1, max |m|), in one pass
    over the pairs i <= j, else the library's ValueError: the check as one
    loop, for every input."""
    d = structure.dim
    try:
        if len(rows) != d or set(map(len, rows)) != {d}:
            raise structure._shape_error(rows)
    except TypeError:
        raise structure._shape_error(rows) from None
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
    if not (total < math.inf and worst <= 1e-14 * big):
        raise ValueError(f"bivector {structure.label or ''} is not antisymmetric within 1e-14")
    return rows
