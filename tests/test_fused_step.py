"""The fused rk4 step of the library flows against the general step.

``integrate`` steps ``base_flow`` and ``extended_flow`` by one generated
function per flow (``verify._fused_rk4``): the four stages of
``verify._rk4_step`` unrolled, each with its profile, L's compiled kernel and
the contraction inline.  It answers only where it is sure and leaves every
other step to ``_rk4_step``.  These tests hold each fused step to the general
step bit for bit, each run of ``integrate`` to the same run on a callable that
is not a library flow, and show that the comparisons see a one-ulp change.
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import verify

BUILT = {key: ek.instantiate(key) for key in ek.entry_ids()}


def bits(out):
    """A step's output as its entry types and bytes."""
    return [type(v) for v in out], np.array(out).tobytes()


def answers_alike(rhs, fused, y, h):
    """Whether the fused step gives the general step's result bit for bit at
    ``y``, or does not answer where the general step raises; and that result."""
    try:
        want = verify._rk4_step(rhs, y, h)
    except Exception:
        try:
            return fused(y, h) is None, None
        except Exception:
            return True, None
    if not callable(rhs._flow[0].hamiltonian._kernel[1]):
        return True, None  # a guard sent L to jets for good: every step is the general one
    got = fused(y, h)
    return got is not None and bits(got) == bits(want), want


def first_difference(rhs, fused, y, h, steps, probe=1.0):
    """The first ``(step, size)`` along ``steps`` general steps of size ``h``
    from ``y`` where the fused step differs from the general step, at ``h``
    or at a probe step of size ``probe`` from the same state; else None.

    A probe step moves the state further than its rounding, so a last-bit
    change in a stage shows more often in its result.  The walk ends where
    the general step raises, leaves a non-finite state or switches L's
    kernel off.
    """
    for i in range(steps):
        for size in (probe, h):
            alike, want = answers_alike(rhs, fused, y, size)
            if not alike:
                return i, size
        if want is None or not all(map(math.isfinite, want)):
            return None
        y = want
    return None


def warm(rhs, y):
    """One call, so L's kernel is compiled: the recording."""
    rhs(list(y))


def flow_params(data):
    """Extension constants over the four profile regimes and the zero profile."""
    c = data.draw(st.sampled_from([1.0, -0.7, 0.0]), label="c")
    c0 = data.draw(st.sampled_from([1.0, 0.0]), label="c0")
    big_c = data.draw(st.sampled_from([1.0, -0.5, 0.0]), label="C")
    omega = data.draw(st.sampled_from([0.0, 0.3]), label="omega")
    assume(c != 0.0 or c0 != 0.0)
    assume(c != 0.0 or big_c != 0.0 or omega == 0.0)
    return ek.ExtensionParams(c=c, c0=c0, C=big_c,
                              m=data.draw(st.integers(1, 3)), n=data.draw(st.integers(1, 3)),
                              omega=omega, offset=data.draw(st.sampled_from([0.0, 0.25])))


@pytest.mark.parametrize("key", list(BUILT))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_fused_step_is_the_general_step_bit_for_bit(key, data):
    built = BUILT[key]
    x = [data.draw(st.floats(lo, hi)) for lo, hi in ek.get_entry(key).default_box]
    assume(built.singular is None or not built.singular(x, 0.05))
    if data.draw(st.booleans(), label="extended"):
        params = flow_params(data)
        rhs = ek.extended_flow(built.system, params)
        y = [data.draw(st.floats(0.3, 1.2)), data.draw(st.floats(-1.0, 1.0))] + x
    else:
        params, rhs, y = None, ek.base_flow(built.system), x
    warm(rhs, y)
    assert callable(built.system.hamiltonian._kernel[1])
    fused = verify._fused_rk4(built.system, params)
    h = data.draw(st.sampled_from([1e-3, 0.05, 0.3]), label="h")
    assert first_difference(rhs, fused, y, h, 20) is None


@pytest.mark.parametrize("params, y", [
    (None, [-0.0, -0.0]),
    (ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=1, n=1), [0.5, -0.0, -0.0, -0.0]),
    (ek.ExtensionParams(c=0.0, c0=1.0, C=0.0, m=1, n=1), [-0.0, -0.0, -0.0, -0.0]),
])
def test_signed_zeros_at_rest_are_the_general_steps(params, y):
    # at quartic1's critical point every field entry is a zero whose sign
    # the contraction's 0.0 + p * grad[j] and the profile decide
    system = BUILT["quartic1"].system
    rhs = ek.base_flow(system) if params is None else ek.extended_flow(system, params)
    warm(rhs, [0.5] * len(y))
    assert first_difference(rhs, verify._fused_rk4(system, params), y, 1e-3, 3) is None


def test_signed_zeros_at_rest_on_an_entry_rule_are_the_general_steps():
    # at rest every product in an entry rule's contraction is a signed zero.
    # On the Euler top two of each row's products differ in sign; on the
    # rule pi_01 = q with L = p - q, at q = -0.0, both of the first row's
    # are -0.0, and only the sum from +0.0 gives that entry's sign
    scaled = ek.HamiltonianSystem(
        ek.PoissonStructure(2, entries=lambda co: [[0.0, co[0]], [-1.0 * co[0], 0.0]]),
        ek.ScalarField(lambda co: co[1] - co[0], 2))
    params = ek.ExtensionParams(c=1.0, c0=0.5, C=1.0, m=1, n=1)
    for system in (BUILT["euler_top"].system, scaled):
        for base in itertools.product([0.0, -0.0], repeat=system.dim):
            for p, y in ((None, list(base)), (params, [0.5, -0.0, *base])):
                rhs = ek.base_flow(system) if p is None else ek.extended_flow(system, p)
                warm(rhs, [0.5] * len(y))
                assert first_difference(rhs, verify._fused_rk4(system, p), y, 1e-3, 3) is None


def test_a_dense_constant_bivector_takes_the_general_step():
    # no catalog bivector is constant with two nonzero entries in a row, so
    # none has a fused step: rk4 takes the general step, whose contraction
    # sums the constant's rows as contract sums them
    dense = np.array([[0.0, 1.0, 2.0, -0.5], [-1.0, 0.0, 0.75, 3.0],
                      [-2.0, -0.75, 0.0, 1.25], [0.5, -3.0, -1.25, 0.0]])
    system = ek.HamiltonianSystem(
        ek.PoissonStructure(4, const=dense),
        ek.ScalarField(lambda co: 0.5 * (co[0] * co[0] + co[1] * co[1]) + co[2] * co[3], 4))
    params = ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=2, n=1)
    h = 2.0 ** -10  # 20 steps of it sum to 20 h exactly
    for p, y in ((None, [0.3, -0.7, 1.1, 0.4]), (params, [0.6, 0.4, 0.3, -0.7, 1.1, 0.4])):
        rhs = ek.base_flow(system) if p is None else ek.extended_flow(system, p)
        assert verify._fused_rk4(system, p) is None
        step = verify._stepper(rhs)
        assert step.func is verify._rk4_step and step.args == (rhs,)
        want = [y]
        for _ in range(20):
            want.append(verify._rk4_step(rhs, want[-1], h))
        traj = ek.integrate(rhs, y, 20 * h, dt=h)
        assert traj.states.tobytes() == np.array(want).tobytes()


def test_a_gradient_whose_entries_sum_past_the_largest_float_is_fused():
    # value_grad keeps a finite value and gradient whose sum overflows, and so
    # does the fused step: where the sum fails it tests entry by entry
    fn = ek.ScalarField(lambda co: 1e308 * co[0] + 1e308 * co[1], 2)
    system = ek.HamiltonianSystem(ek.canonical_structure(2), fn)
    rhs = ek.base_flow(system)
    warm(rhs, [0.0, 0.0])
    got = verify._fused_rk4(system, None)([0.0, 0.0], 1e-310)
    assert got is not None and bits(got) == bits(verify._rk4_step(rhs, [0.0, 0.0], 1e-310))


# A fixed flow per regime, on which the negative controls must fail.
CONTROLS = {
    "circular": ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=3, n=2), [0.6, 0.4, 0.9, -0.7]),
    "hyperbolic-omega": ("quartic2a", dict(c=1.0, c0=1.0, C=-0.5, m=2, n=1, omega=0.3),
                         [0.6, 0.4, 1.2, -0.5]),
    "linear": ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1),
               [0.7, 0.3, 0.8, -0.4, 0.5, 0.9]),
    "flat-offset": ("square_polar", dict(c=1.0, c0=0.0, C=0.0, m=1, n=3, offset=0.25),
                    [0.6, 0.4, 1.0, 0.5, 0.3, -0.2]),
    "entry-rule": ("euler_top", dict(c=1.0, c0=0.5, C=1.0, m=2, n=1),
                   [0.6, 0.4, 0.5, 0.9, 0.7]),
}


def control_difference(regime):
    key, consts, y = CONTROLS[regime]
    system = ek.instantiate(key).system
    params = ek.ExtensionParams(**consts)
    rhs = ek.extended_flow(system, params)
    warm(rhs, y)
    fused = verify._fused_rk4(system, params)
    return [first_difference(rhs, fused, y, h, 40) for h in (1e-3, 0.05)]


@pytest.mark.parametrize("regime", list(CONTROLS))
def test_the_controls_pass_unchanged(regime):
    assert control_difference(regime) == [None, None]


@pytest.mark.parametrize("regime, name", [
    ("circular", "k2"), ("circular", "m2c"), ("hyperbolic-omega", "w2"), ("hyperbolic-omega", "r"),
    ("linear", "nC"), ("linear", "t2"), ("flat-offset", "off"), ("flat-offset", "P0"),
    ("entry-rule", "nk2"),
])
def test_a_constant_one_ulp_off_fails_the_parity(regime, name, monkeypatch):
    maker = verify._step_maker

    def nudged(shape, names):
        make = maker(shape, names)
        return lambda **consts: make(**{**consts, name: math.nextafter(consts[name], math.inf)})

    monkeypatch.setattr(verify, "_step_maker", nudged)
    assert control_difference(regime) != [None, None]


@pytest.mark.parametrize("regime", list(CONTROLS))
def test_a_reordered_stage_sum_fails_the_parity(regime, monkeypatch):
    source = verify._step_source

    def reordered(shape, names):
        # (k1 + 2 k2) + 2 k3 summed as k1 + (2 k2 + 2 k3)
        return re.sub(r"\(\(\(k1_(\d+) \+ 2\.0 \* k2_\1\) \+ 2\.0 \* k3_\1\)",
                      r"((k1_\1 + (2.0 * k2_\1 + 2.0 * k3_\1))", source(shape, names))

    assert "((k1_0 + (2.0 * k2_0 + 2.0 * k3_0))" in reordered((2, (1, 0), None, False), ())
    monkeypatch.setattr(verify, "_step_maker", verify._step_maker.__wrapped__)
    monkeypatch.setattr(verify, "_step_source", reordered)
    assert control_difference(regime) != [None, None]


# ------------------------------------------------ whole runs through integrate


def general(rhs):
    """``rhs`` as a callable that is not a library flow: the general step."""
    return lambda y: rhs(np.array(y))


def run(rhs, y0, t_final, **kw):
    t = ek.integrate(rhs, y0, t_final, **kw)
    return (t.truncated, t.reason, t.stats, t.times.tobytes(), t.states.dtype,
            t.states.tobytes())


@pytest.mark.parametrize("key, consts, y0, t_final, reason", [
    # a start on the singular set Y2 = 0, which the flow keeps
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1),
     [0.7, 0.3, 0.8, -0.4, 0.5, 0.0], 0.1, "singular set"),
    # the second stage of the first step lands on u = 0, where y = -C u = 0
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1, omega=0.3),
     [0.0005, -1.0, 0.8, -0.4, 0.5, 0.9], 0.1, "centrifugal term"),
    # ... and within 1e-13 of it, inside the pole tolerance but not on it
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1, omega=0.3),
     [0.0005 + 1e-13, -1.0, 0.8, -0.4, 0.5, 0.9], 0.1, "centrifugal term"),
    # so does a circular profile's pole at u = 0
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=1, n=1), [0.0005 + 1e-13, -1.0, 0.9, -0.7],
     0.1, "Riccati solution has a pole"),
    # at rest at L's critical point with c0 = 0, where the profile's huge
    # values multiply zeros and every number stays finite
    ("quartic1", dict(c=1.0, c0=0.0, C=1.0, m=1, n=1), [1e-13, 0.0, 0.0, 0.0], 0.1,
     "Riccati solution has a pole"),
    # u crosses 0 between stages, drawn in by omega < 0
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1, omega=-0.3),
     [0.3, -3.0, 0.8, -0.4, 0.5, 0.9], 1.0, ""),
    # sinh and cosh of a hyperbolic profile overflow near u = 1004.8
    ("quartic2a", dict(c=1.0, c0=1.0, C=-0.5, m=1, n=1), [1003.9, 1.0, 1.0, -0.5], 1.0,
     "Riccati solution overflows"),
    # rk4 steps through the pole of quartic2b.L until L overflows
    ("quartic2b", dict(c=1.0, c0=1.0, C=1.0, m=1, n=1), [0.6, 0.4, 1.0, 0.5], 5.0,
     "quartic2b.L overflows"),
])
def test_a_truncated_run_is_the_general_run(key, consts, y0, t_final, reason):
    system = ek.instantiate(key).system
    rhs = ek.extended_flow(system, ek.ExtensionParams(**consts))
    warm(rhs, [0.7, 0.3] + [(lo + hi) / 2 for lo, hi in ek.get_entry(key).default_box])
    got = run(rhs, y0, t_final)
    assert got == run(general(rhs), y0, t_final)
    assert got[0] == bool(reason) and reason in got[1]


def crossing(co):
    """p^2/2 + V(q) with V' = 1 for q > 0 and 2 below: a guard on the sign of q."""
    q, p = co
    return 0.5 * p * p + (q if q.value > 0 else 2.0 * q)


def test_a_guard_failing_mid_run_gives_the_general_run():
    # q falls through 0 near t = 0.05, where the kernel's guard fails and L
    # stays on jets; the fused step hands that step and every later one over
    systems = [ek.HamiltonianSystem(ek.canonical_structure(2), ek.ScalarField(crossing, 2))
               for _ in range(2)]
    rhs, other = (ek.base_flow(s) for s in systems)
    for f in (rhs, other):
        warm(f, [0.05, -1.0])
    assert callable(systems[0].hamiltonian._kernel[1])
    got = run(rhs, [0.05, -1.0], 0.2)
    assert systems[0].hamiltonian._kernel[1] is False
    assert got == run(general(other), [0.05, -1.0], 0.2)
    assert got[-1] != run(general(other), [0.05, -1.0], 0.04)[-1]


@pytest.mark.parametrize("params", [None, ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=3, n=2)])
def test_a_reassigned_fn_runs_in_the_next_integrate(params):
    system = ek.instantiate("quartic1").system
    rhs = (ek.base_flow(system) if params is None
           else ek.extended_flow(system, params))
    y0 = [0.9, -0.7] if params is None else [0.6, 0.4, 0.9, -0.7]
    before = run(rhs, y0, 0.05)
    fn = system.hamiltonian.fn
    system.hamiltonian.fn = lambda co: 2.0 * fn(co)
    after = run(rhs, y0, 0.05)
    assert after != before
    assert after == run(general(rhs), y0, 0.05)
    twice = ek.HamiltonianSystem(system.structure, ek.ScalarField(system.hamiltonian.fn, 2))
    fresh = ek.base_flow(twice) if params is None else ek.extended_flow(twice, params)
    assert after == run(general(fresh), y0, 0.05)


def test_the_first_order_residual_takes_the_same_steps(monkeypatch):
    built = BUILT["quartic1"]
    c, c0 = built.seed.meta["pair"]
    spec = ek.SampleSpec(intervals=ek.get_entry("quartic1").default_box, count=20, seed=5,
                         margin=0.15)

    def report():
        rep = ek.first_order_residual(built.system, built.seed.field, c, c0, -1, spec)
        return rep.abs_residuals.tobytes(), rep.rel_residuals.tobytes(), rep.skipped

    answered = []
    make = verify._fused_rk4

    def counted(system, params):
        step = make(system, params)

        def counted_step(y, h):
            out = step(y, h)
            answered.append(out is not None)
            return out

        return counted_step

    monkeypatch.setattr(verify, "_fused_rk4", counted)
    fused = report()
    assert sum(answered) >= 30  # two steps a point, once L's kernel is warm
    monkeypatch.setattr(verify, "_fused_rk4", lambda system, params: None)
    assert fused == report()


@pytest.mark.parametrize("key", ["lotka_volterra", "euler_top"])
def test_a_warm_entry_rule_step_runs_no_general_step_and_no_tolerance_loop(key, monkeypatch):
    # the benchmark's trace cannot see inside the fused step, so this count is
    # the guard that the entry-rule flows keep the general step, the tolerance
    # loop and the ndarray contraction off the rk4 hot path
    built = BUILT[key]
    rhs = ek.base_flow(built.system)
    y = [0.7 * lo + 0.3 * hi for lo, hi in ek.get_entry(key).default_box]
    step = verify._stepper(rhs)
    y = step(y, 1e-3)  # compiles L's kernel
    calls = dict.fromkeys(["general", "loop", "contract", "matrix"], 0)

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    monkeypatch.setattr(verify, "_rk4_step", counted("general", verify._rk4_step))
    for name, attr in (("loop", "_within_tolerance"), ("contract", "contract"),
                       ("matrix", "matrix")):
        monkeypatch.setattr(ek.PoissonStructure, attr,
                            counted(name, getattr(ek.PoissonStructure, attr)))
    for _ in range(3):
        y = step(y, 1e-3)
    assert calls == {"general": 0, "loop": 0, "contract": 0, "matrix": 0}
    # control: a rule assigned after the stepper was built, off antisymmetry by
    # one part in 1e15, is the one the step reads: it fails the exact test, so
    # the general step redoes the step, and its four contractions take the loop
    rule = built.system.structure.entries
    monkeypatch.setattr(built.system.structure, "entries", lambda co: [
        [v * (1.0 + 1e-15) if i > j else v for j, v in enumerate(row)]
        for i, row in enumerate(rule(co))])
    step(y, 1e-3)
    assert calls == {"general": 1, "loop": 4, "contract": 4, "matrix": 0}
