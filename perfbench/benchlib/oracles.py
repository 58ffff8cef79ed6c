"""Oracles computed apart from extkit.

Nothing here imports extkit or the repository's tests.  Each oracle
rebuilds one quantity from the formulas of the method:

* ``shift_power_exact``: U^r(G_n) = P G_n + D X_L G_n in exact rationals,
  from the action of U = p_u + (m/n^2) y X_L on span{G_n, X_L G_n};
* ``Quartic1``: L, grad L, H, K and the extended flow of the quartic1
  entry written out by hand, with a plain rk4 over it;
* ``euler_seed_mp``: the rigid-body local seed with its exponent taken
  from ``mpmath.ellipf`` instead of quadrature.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import comb


def shift_power_exact(m: int, n: int, r: int, p_u: Fraction, gam: Fraction,
                      lam: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (P, D) with U^r(G_n) = P G_n + D X_L(G_n).

    X_L acts on the coefficient pair (a, b) of a G_n + b X_L G_n as
    (a, b) -> (-2 n^2 lam b, a), because X_L^2 G_n = -2 n^2 lam G_n and
    p_u, y and lam = c L + c0 are constant along X_L.
    """
    a, b = Fraction(1), Fraction(0)
    coef = Fraction(m, n * n) * gam
    for _ in range(r):
        a, b = p_u * a + coef * (-2 * n * n * lam * b), p_u * b + coef * a
    return a, b


class Quartic1:
    """quartic1 with f = 0 and its default constants C1 = 1, C2 = C3 = 0,
    extended with constants (c, c0, C, m, n) and omega = 0.

    L = N^2 / 256 - c0/c with N = 16 p^2 + 2 c q^2, and seed G = q.  On
    (u, p_u, q, p):

        H = p_u^2/2 - k^2 y' L + k^2 c0 y^2,
        u' = p_u,  p_u' = k^2 y'' L - 2 k^2 c0 y y',
        q' = -k^2 y' dL/dp,  p' = k^2 y' dL/dq,

    where y solves y' + c y^2 + C = 0: y = C_kappa(c u)/S_kappa(c u) with
    kappa = C/c, so y' = -c / S_kappa(c u)^2 and y'' = -2 c y y'.
    """

    def __init__(self, c=1.0, c0=1.0, C=1.0, m=1, n=1):
        if c == 0.0:
            raise ValueError("quartic1 needs c != 0")
        self.c, self.c0, self.C = c, c0, C
        self.m, self.n = m, n
        self.k2 = (m / n) ** 2

    def base(self, q, p):
        """L, dL/dq, dL/dp."""
        c = self.c
        big_n = 16 * p * p + 2 * c * q * q
        lval = big_n * big_n / 256 - self.c0 / c
        dq = 2 * big_n * (4 * c * q) / 256
        dp = 2 * big_n * (32 * p) / 256
        return lval, dq, dp

    def profile(self, u):
        """y, y', y''."""
        c = self.c
        kappa = self.C / c
        x = c * u
        if kappa > 0:
            r = math.sqrt(kappa)
            s, co = math.sin(r * x) / r, math.cos(r * x)
        elif kappa < 0:
            r = math.sqrt(-kappa)
            s, co = math.sinh(r * x) / r, math.cosh(r * x)
        else:
            s, co = x, 1.0
        y = co / s
        dy = -c / (s * s)
        return y, dy, -2 * c * y * dy

    def hamiltonian(self, state):
        u, p_u, q, p = state
        y, dy, _ = self.profile(u)
        lval = self.base(q, p)[0]
        return 0.5 * p_u * p_u - self.k2 * dy * lval + self.k2 * self.c0 * y * y

    def integral(self, state):
        """K = U^m(G_n)."""
        u, p_u, q, p = state
        y, _, _ = self.profile(u)
        lval, _, dp = self.base(q, p)
        lam = self.c * lval + self.c0
        g = q
        w = dp                                # X_L G = {G, L} = G_q L_p
        n, m = self.n, self.m
        g_n = 0.0
        xg_n = 0.0
        for k in range((n - 1) // 2 + 1):
            a, b = 2 * k + 1, n - 2 * k - 1
            coef = comb(n, a) * (-2 * lam) ** k
            g_n += coef * g**a * w**b
            # X_L(G^a W^b) = a G^(a-1) W^(b+1) - 2 lam b G^(a+1) W^(b-1)
            xg_n += coef * a * g ** (a - 1) * w ** (b + 1)
            if b:
                xg_n += coef * (-2 * lam) * b * g ** (a + 1) * w ** (b - 1)
        big_p, big_d = 1.0, 0.0
        coef = m / (n * n) * y
        for _ in range(m):
            big_p, big_d = (p_u * big_p - 2 * n * n * lam * coef * big_d,
                            p_u * big_d + coef * big_p)
        return big_p * g_n + big_d * xg_n

    def rhs(self, state):
        u, p_u, q, p = state
        y, dy, ddy = self.profile(u)
        lval, dq, dp = self.base(q, p)
        k2 = self.k2
        dpu = k2 * ddy * lval - 2 * k2 * self.c0 * y * dy
        return [p_u, dpu, -k2 * dy * dp, k2 * dy * dq]

    def rk4(self, y0, t_final, dt):
        """Classical rk4 with steps of dt; the last one lands on t_final."""
        y = [float(v) for v in y0]
        t = 0.0
        for _ in range(max(1, math.ceil(t_final / dt - 1e-12))):
            h = min(dt, t_final - t)
            k1 = self.rhs(y)
            k2 = self.rhs([a + 0.5 * h * b for a, b in zip(y, k1)])
            k3 = self.rhs([a + 0.5 * h * b for a, b in zip(y, k2)])
            k4 = self.rhs([a + h * b for a, b in zip(y, k3)])
            y = [a + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            t += h
        return y


def euler_seed_mp(point, moments, c, c0):
    """The rigid-body local seed (branch +1) at ``point``, or None off its valid region.

    With L = (m1^2/I1 + m2^2/I2 + m3^2/I3)/2 and M = |m|^2, the level-set
    factors x1 = I1 I2 (M - 2 I3 L) and x2 = I1 I3 (2 I2 L - M) give the
    normalised coordinate x = m1 sqrt(I2 (I1 - I3) / x1) and the signed
    modulus kappa = I3 (I1 - I2) x1 / (I2 (I1 - I3) x2).  The exponent is
    int_0^x dt / sqrt((1 - t^2)(1 + kappa t^2)) = F(asin x | -kappa), the
    incomplete elliptic integral of the first kind.
    """
    import mpmath

    i1, i2, i3 = moments
    with mpmath.workdps(30):
        m1, m2, m3 = (mpmath.mpf(v) for v in point)
        lval, x1, x2, kappa = euler_level_set(m1, m2, m3, moments)
        if x1 <= 0 or x2 <= 0:
            return None
        rad = -2 * (c * lval + c0) / x2
        if rad <= 0:
            return None
        x = m1 * mpmath.sqrt(i2 * (i1 - i3) / x1)
        if abs(x) >= 1 or 1 + kappa * x * x <= 0:
            return None
        expo = mpmath.ellipf(mpmath.asin(x), -kappa)
        pref = i1 * i2 * i3 / mpmath.sqrt(i2 * (i1 - i3))
        return float(mpmath.exp(pref * mpmath.sqrt(rad) * expo))


def euler_level_set(m1, m2, m3, moments):
    """L, the level-set factors x1 and x2, and kappa (None unless x2 > 0)."""
    i1, i2, i3 = moments
    lval = (m1 * m1 / i1 + m2 * m2 / i2 + m3 * m3 / i3) / 2
    mval = m1 * m1 + m2 * m2 + m3 * m3
    x1 = i1 * i2 * (mval - 2 * i3 * lval)
    x2 = i1 * i3 * (2 * i2 * lval - mval)
    kappa = i3 * (i1 - i2) * x1 / (i2 * (i1 - i3) * x2) if x2 > 0 else None
    return lval, x1, x2, kappa
