"""Reference algorithms that the library's evaluation of K must equal bit
for bit.

:class:`Pair` is :class:`~extkit.extension.DerivPair` with sums and
Leibniz products, so polynomial expressions in pairs carry exact first
derivatives.  The library multiplies pairs out on tuples; this arithmetic
serves the reference algorithms of the tests.
"""
from math import comb

from extkit.extension import DerivPair, power_coeffs, profile_at, recursion_term_closed


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
