"""Profile equation y' + c y^2 + C = 0 and the tagged trig helpers."""
import math
import re

import numpy as np
import pytest

import extkit as ek

# (c, C) pairs spanning every curvature regime
REGIMES = [
    (1.0, 1.0),     # kappa = 1
    (1.0, -1.0),    # kappa = -1
    (2.0, 0.0),     # kappa = 0, c nonzero
    (-1.0, 0.5),    # kappa = -0.5
    (0.5, 2.0),     # kappa = 4
    (0.0, 2.0),     # linear profile
]

# windows clear of the first pole of each regime
WINDOWS = {
    (1.0, 1.0): (0.06, math.pi - 0.06),
    (1.0, -1.0): (0.06, 4.0),
    (2.0, 0.0): (0.06, 4.0),
    (-1.0, 0.5): (0.06, 4.0),
    (0.5, 2.0): (0.06, math.pi / 2 - 0.06),
    (0.0, 2.0): (-4.0, 4.0),
}


def test_tagged_trig_flat():
    s, c, t = ek.tagged_trig(0.0, 1.7)
    assert (s, c, t) == (1.7, 1.0, 1.7)


def test_tagged_trig_round():
    s, c, t = ek.tagged_trig(1.0, 0.4)
    assert abs(s - math.sin(0.4)) < 1e-15
    assert abs(c - math.cos(0.4)) < 1e-15
    assert abs(t - math.tan(0.4)) < 1e-15


def test_tagged_trig_hyperbolic_scaled():
    # kappa = -4 rescales the argument by 2
    s, c, t = ek.tagged_trig(-4.0, 0.3)
    assert abs(s - math.sinh(0.6) / 2) < 1e-15
    assert abs(c - math.cosh(0.6)) < 1e-15
    assert abs(t - math.tanh(0.6) / 2) < 1e-15


def test_tagged_trig_pythagorean_identity():
    rng = np.random.default_rng(101)
    for _ in range(200):
        kappa = rng.uniform(-4.0, 4.0)
        x = rng.uniform(-1.2, 1.2)
        try:
            s, c, _ = ek.tagged_trig(kappa, x)
        except ek.PoleError:
            continue
        assert abs(c * c + kappa * s * s - 1.0) < 1e-12


def test_tagged_trig_pole_raises():
    with pytest.raises(ek.PoleError):
        ek.tagged_trig(1.0, math.pi / 2)


def test_profile_linear_case():
    y, yp, ypp = ek.riccati_eval(ek.RiccatiParams(0.0, 2.0), 3.0)
    assert (y, yp, ypp) == (-6.0, -2.0, 0.0)


def test_profile_flat_kappa():
    # c=1, C=0: y = 1/u
    y, yp, ypp = ek.riccati_eval(ek.RiccatiParams(1.0, 0.0), 2.0)
    assert abs(y - 0.5) < 1e-15
    assert abs(yp + 0.25) < 1e-15
    assert abs(ypp - 0.25) < 1e-15


def test_profile_round_kappa_frozen():
    # c=C=1 at u=pi/4: y = cot(pi/4) = 1, y' = -1/sin^2 = -2, y'' = 4
    y, yp, ypp = ek.riccati_eval(ek.RiccatiParams(1.0, 1.0), math.pi / 4)
    assert abs(y - 1.0) < 1e-14
    assert abs(yp + 2.0) < 1e-13
    assert abs(ypp - 4.0) < 1e-13


def test_profile_offset_shifts_origin():
    p0 = ek.RiccatiParams(1.0, 1.0)
    p1 = ek.RiccatiParams(1.0, 1.0, offset=0.25)
    a = ek.riccati_eval(p0, 0.75)
    b = ek.riccati_eval(p1, 1.0)
    assert a == b


def test_profile_ode_residual_all_regimes():
    for c, C in REGIMES:
        lo, hi = WINDOWS[(c, C)]
        us = np.linspace(lo, hi, 500)
        p = ek.RiccatiParams(c, C)
        worst = 0.0
        for u in us:
            y, yp, _ = ek.riccati_eval(p, u)
            worst = max(worst, abs(yp + c * y * y + C))
        assert worst <= 1e-12, (c, C, worst)


def test_profile_second_derivative_vs_fd():
    rng = np.random.default_rng(77)
    for c, C in REGIMES:
        lo, hi = WINDOWS[(c, C)]
        p = ek.RiccatiParams(c, C)
        for _ in range(25):
            u = rng.uniform(lo + 0.02, hi - 0.02)
            h = 1e-6
            _, yp_m, _ = ek.riccati_eval(p, u - h)
            _, yp_p, _ = ek.riccati_eval(p, u + h)
            _, _, ypp = ek.riccati_eval(p, u)
            num = (yp_p - yp_m) / (2 * h)
            assert abs(ypp - num) <= 1e-5 * max(1.0, abs(num))


def test_profile_pole_raises():
    with pytest.raises(ek.PoleError):
        ek.riccati_eval(ek.RiccatiParams(1.0, 1.0), math.pi)


def test_degenerate_pair_rejected():
    with pytest.raises(ValueError):
        ek.RiccatiParams(0.0, 0.0)


def test_kappa_property():
    assert ek.RiccatiParams(2.0, 1.0).kappa == 0.5
    with pytest.raises(ValueError):
        _ = ek.RiccatiParams(0.0, 1.0).kappa


@pytest.mark.parametrize("c, C, u", [(1.0, -0.5, 2000.0), (-1.0, 0.5, -1500.0),
                                     (1.0, -1.0, 1e300)])
def test_a_hyperbolic_profile_that_overflows_raises_a_typed_error(c, C, u):
    # sinh and cosh overflow once |sqrt(-kappa) c (u - offset)| passes about 710,
    # and stay finite below it
    params = ek.RiccatiParams(c, C)
    with pytest.raises(ek.NonFiniteError,
                       match=f"^Riccati solution overflows at u = {re.escape(repr(u))}:"):
        ek.riccati_eval(params, u)
    assert all(map(math.isfinite, ek.riccati_eval(params, 700.0 / math.sqrt(-C / c) / c)))


def test_an_overflowing_profile_truncates_an_integration():
    # rkf45 runs u out along p_u until the profile overflows
    built = ek.instantiate("quartic2a")
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(c=1.0, c0=1.0, C=-0.5, m=1, n=1))
    traj = ek.integrate(ext.flow(), [1.0, 0.0, 1.0, -2.0], 0.2, method="rkf45")
    assert traj.truncated
    assert re.fullmatch(r"flow evaluation failed at t = \S+: Riccati solution overflows "
                        r"at u = \S+: sinh and cosh of \S+", traj.reason)
