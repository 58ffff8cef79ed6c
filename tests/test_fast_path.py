"""The flows on a list state against the same flows on an ndarray state.

``base_flow`` and ``extended_flow`` take L and pi grad L from ``ham_field``
at every state, through ``ScalarField.value_grad`` and its compiled kernel.
A state comes in as one of two input types: a list of floats, taken as it
is, or any other sequence, which ``ScalarField._coords`` turns into one.
These tests hold a list-state call to the same right-hand side called on
``np.array(state)``: the same values bit for bit, or the same error class
and message, also where the kernel cannot answer (no kernel yet, a
reassigned ``fn``, the singular set, a failed guard, a kernel that raises,
a non-finite value or gradient).  ``integrate``'s rk4 steps a list state
by the flow's fused step (``verify._fused_rk4``), so the trajectory parity
holds that step to the ndarray way too.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import jets, verify


def outcome(call):
    """``("ok", bytes, entry types)`` of a flow's output, or ``("raised",
    class, message)``."""
    try:
        out = call()
    except (ek.EvaluationError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", np.array(out).tobytes(), [type(v) for v in out])


def plane(fn, label="plain"):
    """A canonical 2-d system with Hamiltonian ``fn``."""
    return ek.HamiltonianSystem(ek.canonical_structure(2), ek.ScalarField(fn, 2, label=label))


def branch_on_sign(co):
    return co[0] * co[1] if co[0].value > 0 else jets.exp(co[0]) - co[1]


def asks_a_type(co):
    return co[0] * co[1] if isinstance(co[0].value, complex) else co[0] * co[0] * co[1]


def skew(system):
    """An entry rule off antisymmetry by 1e-12 relative."""
    rule = system.structure.entries

    def skewed(co):
        rows = rule(co)
        return [rows[0], [rows[1][0] * (1.0 + 1e-12), rows[1][1]]]

    system.structure.entries = skewed


def reassign(system):
    fn = system.hamiltonian.fn
    system.hamiltonian.fn = lambda co: 2.0 * fn(co)


def base(system, good, bad, raises=True, after_warm=None, compiled=True):
    return system, None, good, bad, raises, after_warm, compiled


def extended(key, consts, good, bad, raises=True):
    built = ek.instantiate(key)
    c, c0 = built.seed.meta["pair"]
    return (built.system, ek.ExtensionParams(c=c, c0=c0, **consts), good, bad, raises, None,
            True)


Q1 = dict(C=1.0, m=3, n=2)
CASES = {
    "singular-extended": extended("vortex_opposite", dict(C=1.0, m=1, n=1),
                                  [0.6, 0.4, 0.7, 0.3, 0.8, 0.5], [0.6, 0.4, 0.7, 0.3, 0.8, 0.0]),
    "singular-base": base(ek.instantiate("lotka_volterra").system, [1.2, 0.8], [0.0, 0.8]),
    "guard-flips": base(plane(branch_on_sign), [0.5, 1.0], [-0.3, 1.0], raises=False),
    "stays-on-jets": base(plane(asks_a_type), [0.5, 1.0], [0.7, -2.0], raises=False,
                          compiled=False),
    "non-finite-value": base(plane(lambda co: co[0] * co[0] * co[0]), [0.5, 1.0], [1e120, 1.0]),
    "non-finite-gradient": base(plane(lambda co: co[0] * co[1] * co[1]), [0.5, 1.0],
                                [1e-300, 1e200]),
    "division-by-zero": base(plane(lambda co: co[1] / co[0]), [0.5, 1.0], [0.0, 1.0]),
    "riccati-pole": extended("quartic1", Q1, [0.6, 0.4, 0.9, -0.7], [0.0, 0.4, 0.9, -0.7]),
    "omega-pole": extended("vortex_opposite", dict(C=1.0, m=1, n=1, omega=0.4),
                           [0.6, 0.4, 0.7, 0.3, 0.8, 0.5], [0.0, 0.4, 0.7, 0.3, 0.8, 0.5]),
    "zero-profile": extended("vortex_opposite", dict(C=0.0, m=1, n=1),
                             [0.6, 0.4, 0.7, 0.3, 0.8, 0.5], [0.9, -0.4, 0.7, 0.3, 0.8, 0.5],
                             raises=False),
    "wrong-length": extended("quartic1", Q1, [0.6, 0.4, 0.9, -0.7], [0.6, 0.4, 0.9, -0.7, 0.1]),
    "ndarray-extended": extended("square_polar", dict(C=1.0, m=1, n=1),
                                 [0.6, 0.4, 1.0, 0.5, 0.3, -0.2], [0.7, 0.3, 0.9, 0.4, 0.2, 0.1],
                                 raises=False),
    "ndarray-base": base(ek.instantiate("euler_top").system, [0.5, 0.9, 0.7], [0.4, 0.8, 0.6],
                         raises=False),
    "fn-reassigned": base(ek.instantiate("quartic1").system, [0.9, -0.7], [0.8, -0.6],
                          raises=False, after_warm=reassign),
    "not-antisymmetric": base(ek.instantiate("lotka_volterra").system, [1.2, 0.8], [1.1, 0.7],
                              after_warm=skew),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_list_state_gets_what_the_general_way_gives(case):
    system, params, good, bad, raises, after_warm, compiled = CASES[case]
    rhs = ek.base_flow(system) if params is None else ek.extended_flow(system, params)
    rhs(list(good))  # the recording
    assert callable(system.hamiltonian._kernel[1]) is compiled
    if after_warm is not None:
        after_warm(system)
    got = outcome(lambda: rhs(list(bad)))
    assert got == outcome(lambda: rhs(np.array(bad)))
    assert got[0] == ("raised" if raises else "ok")
    if case != "not-antisymmetric":
        # and at the good point again, now that the kernel may be gone
        assert outcome(lambda: rhs(list(good))) == outcome(lambda: rhs(np.array(good)))


def test_a_reassigned_fn_is_the_one_that_runs():
    system = ek.instantiate("quartic1").system
    rhs = ek.base_flow(system)
    for _ in range(2):
        rhs([0.9, -0.7])
    fn = system.hamiltonian.fn
    system.hamiltonian.fn = lambda co: 2.0 * fn(co)
    assert rhs([0.8, -0.6]) == [2.0 * v for v in ek.base_flow(plane(fn))([0.8, -0.6])]


# ------------------------------------------------------------- parity

BUILT = {key: ek.instantiate(key) for key in ek.entry_ids()}


def general(rhs):
    """``rhs`` on an ndarray state."""
    return lambda y: rhs(np.array(y))


def run(rhs, y0, t_final, method="rk4"):
    """A trajectory as bytes, or the error that escaped ``integrate``: a
    hyperbolic profile far out overflows in ``math.sinh`` on either way."""
    try:
        t = ek.integrate(rhs, y0, t_final, method=method, dt_min=1e-3)
    except OverflowError as exc:
        return type(exc), str(exc)
    return (t.truncated, t.reason, t.stats, t.times.tobytes(), t.states.dtype,
            t.states.tobytes())


def probes(rhs, y0, t_final):
    """One rk4 step of size 1 from each state of ``rhs``'s rk4 run to
    ``t_final``.  A step that long moves the state further than its rounding,
    so a last-bit change in one right-hand side shows in its result, where a
    step of the run's size may round it away."""
    states = ek.integrate(rhs, y0, t_final).states.tolist()
    return [outcome(lambda: verify._rk4_step(rhs, y, 1.0)) for y in states]


@pytest.mark.parametrize("key", list(BUILT))
@pytest.mark.parametrize("method, t_final", [("rk4", 0.05), ("rkf45", 0.2)])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_fast_and_general_trajectories_agree_bit_for_bit(key, method, t_final, data):
    built = BUILT[key]
    x = [data.draw(st.floats(lo, hi)) for lo, hi in ek.get_entry(key).default_box]
    assume(built.singular is None or not built.singular(x, 0.05))
    flows = [(ek.base_flow(built.system), x)]
    if built.seeds:
        c, c0 = built.seed.meta["pair"]
        big_c = data.draw(st.sampled_from([1.0, -0.5, 0.0]))
        omega = data.draw(st.sampled_from([0.0, 0.3]))
        assume(c != 0.0 or big_c != 0.0 or omega == 0.0)
        params = ek.ExtensionParams(c=c, c0=c0, C=big_c, m=data.draw(st.integers(1, 3)),
                                    n=data.draw(st.integers(1, 3)), omega=omega)
        u = [data.draw(st.floats(0.3, 1.2)), data.draw(st.floats(-1.0, 1.0))]
        flows.append((ek.extended_flow(built.system, params), u + x))
    for rhs, y0 in flows:
        assert run(rhs, y0, t_final, method) == run(general(rhs), y0, t_final, method)
        if method == "rk4":
            assert probes(rhs, y0, t_final) == probes(general(rhs), y0, t_final)


def test_the_parity_checks_see_an_ndarray_state_off_by_one_ulp(monkeypatch):
    # negative control: only the ndarray side goes through _coords, here one
    # ulp up in every coordinate.  One call shows it at once; a trajectory
    # shows it where the change survives the step's rounding of the state,
    # which it does not on every entry (quartic1's rk4 run keeps every bit),
    # and the probe steps along the run show it on every entry
    coords = jets.ScalarField._coords

    def off(self, x):
        return [math.nextafter(v, math.inf) for v in coords(self, x)]

    monkeypatch.setattr(jets.ScalarField, "_coords", off)
    rhs = ek.base_flow(BUILT["quartic1"].system)
    assert outcome(lambda: rhs([0.9, -0.7])) != outcome(lambda: rhs(np.array([0.9, -0.7])))
    for key, method, t_final in [("square_polar", "rk4", 0.05), ("lotka_volterra", "rkf45", 0.2)]:
        rhs = ek.base_flow(BUILT[key].system)
        y0 = [(lo + hi) / 2 + 0.01 for lo, hi in ek.get_entry(key).default_box]
        assert run(rhs, y0, t_final, method) != run(general(rhs), y0, t_final, method)
    for key in BUILT:
        rhs = ek.base_flow(BUILT[key].system)
        box = ek.get_entry(key).default_box
        starts = ([(lo + hi) / 2 + 0.01 for lo, hi in box],
                  [0.6 * lo + 0.4 * hi for lo, hi in box])
        assert ([probes(rhs, y0, 0.05) for y0 in starts]
                != [probes(general(rhs), y0, 0.05) for y0 in starts])
