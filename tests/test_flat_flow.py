"""The flows on plain floats against the ndarray integrators they replaced.

``integrate`` steps lists of floats, and the extended and base flows take
and return lists.  The reference here is the ndarray code that did the
same work before: its rk4 and rkf45 steppers, and right-hand sides built
from ``jet1`` and ``PoissonStructure.matrix``.  Wherever the bivector is
constant the two must give the same trajectories bit for bit.  Where an
entry rule builds it, the flows sum pi grad L by rows from 0.0, left to
right: bit for bit what the reference gives with that sum, and within
1e-15 relative per state of its ``@`` over an rk4 run.  Errors inside a
right-hand side must keep the class and message of the field or profile
evaluation that raised them.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import extkit as ek
from test_jet1_kernel import jets_only

# ------------------------------------------------------ ndarray reference


def ref_base_flow(system):
    def rhs(x):
        return system.structure.matrix(x) @ system.hamiltonian.jet1(x).grad

    return rhs


def fixed_order_base_flow(system):
    """``ref_base_flow`` with each row of pi grad L summed left to right from
    0.0, as an ndarray."""
    def rhs(x):
        grad = system.hamiltonian.jet1(x).grad.tolist()
        out = []
        for row in system.structure.matrix(x).tolist():
            total = 0.0
            for p, g in zip(row, grad):
                total = total + p * g
            out.append(total)
        return np.array(out)

    return rhs


def ref_extended_flow(system, params):
    k2 = params.k**2
    c0 = params.c0
    omega = params.omega

    def rhs(vec):
        gam, dgam, ddgam = ek.profile_at(params, float(vec[0]))
        jl = system.hamiltonian.jet1(vec[2:])
        v = system.structure.matrix(vec[2:]) @ jl.grad
        dpu = k2 * ddgam * jl.value - 2.0 * k2 * c0 * gam * dgam
        if omega != 0.0:
            dpu += 2.0 * omega * dgam / gam**3
        out = np.empty(vec.shape)
        out[0] = vec[1]
        out[1] = dpu
        out[2:] = (-k2 * dgam) * v
        return out

    return rhs


def ref_rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_FB = (
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_FB4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_FB5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def ref_integrate(rhs, y0, t_final, method, dt=1e-3, tol=1e-10, dt_min=1e-9, dt_max=0.5,
                  step=ref_rk4_step):
    """(times, states, truncated, reason, stats) as the ndarray integrators gave them."""
    y = np.asarray(y0, dtype=float)
    times, states = [0.0], [y]
    t = 0.0
    truncated, reason = False, ""
    if method == "rk4":
        for _ in range(max(1, int(math.ceil(t_final / dt - 1e-12)))):
            h = min(dt, t_final - t)
            try:
                y = step(rhs, y, h)
            except ek.EvaluationError as e:
                truncated, reason = True, f"flow evaluation failed at t = {t:.6g}: {e}"
                break
            if not np.all(np.isfinite(y)):
                truncated, reason = True, f"state became non-finite at t = {t + h:.6g}"
                break
            t += h
            times.append(t)
            states.append(y)
        return (np.array(times), np.array(states), truncated, reason,
                {"n_steps": len(times) - 1})
    h = min(dt, t_final)
    accepted = rejected = forced = 0
    while t < t_final - 1e-14 * t_final:
        h = min(h, t_final - t)
        try:
            k1 = rhs(y)
            k2 = rhs(y + h * _FB[0][0] * k1)
            k3 = rhs(y + h * (_FB[1][0] * k1 + _FB[1][1] * k2))
            k4 = rhs(y + h * (_FB[2][0] * k1 + _FB[2][1] * k2 + _FB[2][2] * k3))
            k5 = rhs(y + h * (_FB[3][0] * k1 + _FB[3][1] * k2 + _FB[3][2] * k3 + _FB[3][3] * k4))
            k6 = rhs(y + h * (_FB[4][0] * k1 + _FB[4][1] * k2 + _FB[4][2] * k3
                              + _FB[4][3] * k4 + _FB[4][4] * k5))
        except ek.EvaluationError as e:
            truncated, reason = True, f"flow evaluation failed at t = {t:.6g}: {e}"
            break
        ks = (k1, k2, k3, k4, k5, k6)
        y4 = y + h * sum(b * k for b, k in zip(_FB4, ks))
        y5 = y + h * sum(b * k for b, k in zip(_FB5, ks))
        scale = tol * (1.0 + float(np.max(np.abs(y))))
        err = float(np.max(np.abs(y5 - y4)))
        if not math.isfinite(err):
            truncated, reason = True, f"step error became non-finite at t = {t:.6g}"
            break
        if err <= scale or h <= dt_min * (1 + 1e-12):
            if err > scale:
                forced += 1
            t += h
            y = y5
            times.append(t)
            states.append(y)
            accepted += 1
            if not np.all(np.isfinite(y)):
                truncated, reason = True, f"state became non-finite at t = {t:.6g}"
                break
        else:
            rejected += 1
        factor = 0.9 * (scale / err) ** 0.2 if err > 0 else 5.0
        h = min(max(h * min(max(factor, 0.2), 5.0), dt_min), dt_max)
    return (np.array(times), np.array(states), truncated, reason,
            {"n_accepted": accepted, "n_rejected": rejected, "n_forced": forced})


def assert_same_trajectory(traj, want, rel=None):
    """Bit for bit, or with ``rel`` given, states within rel * max |state|."""
    times, states, truncated, reason, stats = want
    assert (traj.truncated, traj.reason, traj.stats) == (truncated, reason, stats)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.shape == states.shape and traj.states.dtype == states.dtype
    if rel is None:
        assert traj.states.tobytes() == states.tobytes()
    else:
        for got, ref in zip(traj.states, states):
            assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


# --------------------------------------------------------------- parity

# rkf45 steps no shorter than this, so that a start near a pole of L
# costs at most a few hundred steps
DT_MIN = 1e-3

BUILT = {key: ek.instantiate(key) for key in ek.entry_ids()}
CONSTANT_PI = [key for key, b in BUILT.items()
               if b.seeds and b.system.structure.const is not None]
ENTRY_RULE_PI = ["lotka_volterra", "euler_top"]


def test_the_parity_cases_cover_every_catalog_structure():
    assert {"quartic1", "quartic2a", "square_polar", "vortex_opposite",
            "vortex_equal"} <= set(CONSTANT_PI)
    assert all(BUILT[k].system.structure.entries is not None for k in ENTRY_RULE_PI)
    assert set(CONSTANT_PI) | set(ENTRY_RULE_PI) == set(BUILT)


def base_point(data, key, margin=0.05):
    built = BUILT[key]
    box = ek.get_entry(key).default_box
    x = [data.draw(st.floats(lo, hi)) for lo, hi in box]
    assume(built.singular is None or not built.singular(x, margin))
    return built, x


@pytest.mark.parametrize("key", CONSTANT_PI)
@pytest.mark.parametrize("method, t_final", [("rk4", 0.05), ("rkf45", 0.2)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_extended_flow_equals_the_ndarray_reference_bit_for_bit(key, method, t_final, data):
    built, base = base_point(data, key)
    c, c0 = built.seed.meta["pair"]
    params = ek.ExtensionParams(
        c=c, c0=c0, C=1.0, m=data.draw(st.integers(1, 3)), n=data.draw(st.integers(1, 3)),
        omega=data.draw(st.sampled_from([0.0, 0.3])))
    y0 = [data.draw(st.floats(0.3, 1.2)), data.draw(st.floats(-1.0, 1.0)), *base]
    ext = ek.build_extension(built.system, built.seed, params)
    traj = ek.integrate(ext.flow(), y0, t_final, method=method, dt_min=DT_MIN)
    assert_same_trajectory(traj, ref_integrate(ref_extended_flow(built.system, params), y0,
                                               t_final, method, dt_min=DT_MIN))


@pytest.mark.parametrize("key", CONSTANT_PI + ENTRY_RULE_PI)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_base_flow_matches_the_ndarray_reference(key, data):
    # an entry rule's pi grad L is a fixed-order sum, which numpy's @ need not
    # round alike: rk4 holds to @ within 1e-15, and both methods to the same
    # fixed-order sum bit for bit (rkf45's step control turns a last-bit
    # difference into other step times, so it is held to that sum alone)
    built, x = base_point(data, key)
    system = built.system
    rule = system.structure.const is None
    for method, t_final in (("rk4", 0.05), ("rkf45", 0.2)):
        traj = ek.integrate(ek.base_flow(system), x, t_final, method=method, dt_min=DT_MIN)
        if rule:
            assert_same_trajectory(traj, ref_integrate(fixed_order_base_flow(system), x,
                                                       t_final, method, dt_min=DT_MIN))
        if not rule or method == "rk4":
            assert_same_trajectory(traj, ref_integrate(ref_base_flow(system), x, t_final,
                                                       method, dt_min=DT_MIN),
                                   rel=1e-15 if rule else None)


def test_parity_check_fails_on_a_stepper_that_sums_the_stages_in_another_order():
    # negative control: (k1 + k4) + 2 (k2 + k3) is the same rk4 step in exact
    # arithmetic, but not in floating point
    def reordered(rhs, y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * ((k1 + k4) + 2.0 * (k2 + k3))

    built = ek.instantiate("quartic1")
    params = ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=3, n=2)
    y0 = [0.6, 0.4, 0.9, -0.7]
    traj = ek.integrate(ek.build_extension(built.system, built.seed, params).flow(), y0, 0.05)
    rhs = ref_extended_flow(built.system, params)
    assert_same_trajectory(traj, ref_integrate(rhs, y0, 0.05, "rk4"))
    with pytest.raises(AssertionError):
        assert_same_trajectory(traj, ref_integrate(rhs, y0, 0.05, "rk4", step=reordered))


# ------------------------------------------------------ errors in the rhs


def raised(call):
    with pytest.raises(ek.EvaluationError) as info:
        call()
    return type(info.value), str(info.value)


def warm(rhs, state):
    # the recording: this call and later ones run the compiled kernel
    rhs(state)


def extended(key, **consts):
    built = ek.instantiate(key)
    c, c0 = built.seed.meta["pair"]
    params = ek.ExtensionParams(c=c, c0=c0, **{"C": 1.0, "m": 1, "n": 1, **consts})
    return built, ek.build_extension(built.system, built.seed, params).flow()


@pytest.mark.parametrize("key, good, bad, cls", [
    # y2 = 0: on the singular set of L
    ("vortex_opposite", [0.7, 0.3, 0.8, 0.5], [0.7, 0.3, 0.8, 0.0], ek.SingularPointError),
    # q ** 7 overflows far from the pole
    ("quartic2b", [1.5, 0.3], [1e60, 0.3], ek.NonFiniteError),
])
def test_extended_rhs_raises_what_the_field_raises(key, good, bad, cls):
    built, rhs = extended(key)
    warm(rhs, [0.6, 0.4, *good])
    got = raised(lambda: rhs([0.6, 0.4, *bad]))
    assert got == raised(lambda: jets_only(built.system.hamiltonian).jet1(bad))
    assert got[0] is cls


def test_extended_rhs_raises_what_the_profile_raises_at_a_centrifugal_pole():
    # c = 0, C = 1 gives y = -u, a pole of omega / y^2 at u = 0
    built, rhs = extended("vortex_opposite", omega=0.4)
    base = [0.7, 0.3, 0.8, 0.5]
    warm(rhs, [0.6, 0.4, *base])
    got = raised(lambda: rhs([0.0, 0.4, *base]))
    params = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1, omega=0.4)
    assert got == raised(lambda: ek.profile_at(params, 0.0)) and got[0] is ek.PoleError


@pytest.mark.parametrize("key, good, bad", [("lotka_volterra", [1.2, 0.8], [0.0, 0.8]),
                                            ("vortex_opposite", [0.7, 0.3, 0.8, 0.5],
                                             [0.7, 0.3, 0.8, 0.0])])
def test_base_flow_raises_what_the_field_raises(key, good, bad):
    system = ek.instantiate(key).system
    rhs = ek.base_flow(system)
    warm(rhs, good)
    got = raised(lambda: rhs(bad))
    assert got == raised(lambda: jets_only(system.hamiltonian).jet1(bad))
    assert got[0] is ek.SingularPointError


def test_an_antisymmetry_fault_in_an_entry_rule_stops_the_base_flow():
    system = ek.instantiate("lotka_volterra").system
    rule = system.structure.entries

    def skewed(co):
        rows = rule(co)
        return [rows[0], [rows[1][0] * (1.0 + 1e-12), rows[1][1]]]

    system.structure.entries = skewed
    with pytest.raises(ValueError, match="not antisymmetric within 1e-14"):
        ek.base_flow(system)([1.2, 0.8])
