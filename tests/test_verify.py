"""Sampling, integrators, drift reports, finite-difference brackets."""
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import verify
from extkit.verify import RejectionError


def harmonic_rhs(y):
    return np.array([y[1], -y[0]])


def test_sampling_is_deterministic():
    spec = ek.SampleSpec(intervals=((0.0, 1.0), (-2.0, 2.0)), count=25, seed=5)
    a = ek.sample_points(spec, None)
    b = ek.sample_points(spec, None)
    assert len(a) == 25
    np.testing.assert_array_equal(np.array(a), np.array(b))


def test_sampling_respects_margin_predicate():
    spec = ek.SampleSpec(intervals=((-1.0, 1.0),), count=40, seed=6, margin=0.2)
    pts = ek.sample_points(spec, lambda x, m: abs(x[0]) <= m)
    assert all(abs(p[0]) > 0.2 for p in pts)


def test_sampling_gives_up_on_empty_region():
    spec = ek.SampleSpec(intervals=((0.0, 1.0),), count=10, seed=7)
    with pytest.raises(RejectionError):
        ek.sample_points(spec, lambda x, m: True)


def test_rk4_order_on_harmonic_oscillator():
    y0 = np.array([1.0, 0.0])
    errs = []
    for dt in (2e-2, 1e-2):
        traj = ek.integrate(harmonic_rhs, y0, 2.0, method="rk4", dt=dt)
        exact = np.array([math.cos(2.0), -math.sin(2.0)])
        errs.append(float(np.max(np.abs(traj.states[-1] - exact))))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0  # fourth order halving


def test_rk4_final_time_hit_exactly():
    traj = ek.integrate(harmonic_rhs, np.array([1.0, 0.0]), 1.0005, dt=1e-3)
    assert abs(traj.times[-1] - 1.0005) < 1e-12


def test_rkf45_adapts_and_meets_tolerance():
    y0 = np.array([1.0, 0.0])
    traj = ek.integrate(harmonic_rhs, y0, 6.0, method="rkf45", tol=1e-10)
    exact = np.array([math.cos(6.0), -math.sin(6.0)])
    assert float(np.max(np.abs(traj.states[-1] - exact))) < 1e-7
    steps = np.diff(traj.times)
    assert steps.min() > 0
    assert steps.max() / steps.min() > 1.0 + 1e-9  # dt actually adapted


def test_rkf45_counts_steps_forced_at_dt_min():
    # at h = dt_min = 0.1 the local error is about 1e-7, far above tol, so
    # every step is accepted only because h cannot shrink further
    traj = ek.integrate(harmonic_rhs, np.array([1.0, 0.0]), 1.0, method="rkf45",
                        dt=0.5, tol=1e-14, dt_min=0.1, dt_max=0.5)
    assert traj.stats["n_forced"] > 0
    assert traj.stats["n_forced"] == traj.stats["n_accepted"] == 10
    assert traj.stats["n_rejected"] == 1
    default = ek.integrate(harmonic_rhs, np.array([1.0, 0.0]), 6.0, method="rkf45")
    assert default.stats["n_accepted"] > 0 and default.stats["n_forced"] == 0


def test_trajectory_truncates_on_singularity():
    def rhs(y):
        if y[0] >= 0.5:
            raise ek.EvaluationError("left the chart")
        return np.array([1.0])

    traj = ek.integrate(rhs, np.array([0.0]), 10.0, dt=1e-2)
    assert traj.truncated
    assert "left the chart" in traj.reason
    assert traj.times[-1] < 10.0


NON_FINITE_FLOWS = {
    "blow-up of y' = y^2": (lambda y: [y[0] * y[0]], [1.0], 2.0),
    "constant inf": (lambda y: [math.inf], [0.0], 1.0),
    "constant nan": (lambda y: [math.nan], [0.0], 1.0),
    "inf past a threshold": (lambda y: [math.inf if y[0] > 0.5 else 1.0], [0.0], 1.0),
    "nan in one of two": (lambda y: [1.0, math.nan if y[0] > 0.2 else 0.0], [0.0, 0.0], 1.0),
}


@pytest.mark.parametrize("case", NON_FINITE_FLOWS)
def test_a_state_driven_non_finite_truncates_each_method_with_its_reason(case):
    # rkf45 never stores a non-finite state: a non-finite component of the
    # fifth-order solution makes its difference from the fourth-order one
    # non-finite, so the step error check truncates first
    rhs, y0, t_final = NON_FINITE_FLOWS[case]
    for method, reason in (("rk4", "state became non-finite at t = "),
                           ("rkf45", "step error became non-finite at t = ")):
        traj = ek.integrate(rhs, y0, t_final, method=method, dt=1e-2)
        assert traj.truncated and traj.reason.startswith(reason), (method, traj.reason)
        assert np.isfinite(traj.states).all() and traj.times[-1] < t_final


def test_conservation_report_drift_formula():
    from extkit.verify import Trajectory

    times = np.linspace(0.0, 1.0, 11)
    states = np.stack([np.linspace(2.0, 2.2, 11), np.zeros(11)], axis=1)
    traj = Trajectory(times, states, "rk4", False, "", {})
    rep = ek.conservation_report(traj, {"A": lambda y: float(y[0])}, stride=1)
    assert abs(rep.drifts["A"] - 0.2 / 2.0) < 1e-14


def test_conservation_report_stride_includes_endpoint():
    times = np.linspace(0.0, 1.0, 11)
    states = np.stack([np.linspace(0.0, 1.0, 11), np.zeros(11)], axis=1)
    from extkit.verify import Trajectory
    traj = Trajectory(times, states, "rk4", False, "", {})
    rep = ek.conservation_report(traj, {"A": lambda y: float(y[0])}, stride=4)
    assert rep.times[-1] == 1.0


def test_conservation_report_evaluates_a_complex_seed_once_per_state(monkeypatch):
    import extkit.extension as extension

    built = ek.instantiate("vortex_opposite")
    params = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1)
    state = ek.ExtendedState(0.7, 0.3, np.array([0.8, -0.4, 0.5, 0.9]))
    ext = ek.build_extension(built.system, built.seed, params)
    traj = ek.integrate(ext.flow(), state.vector(), 0.5, dt=1e-3)
    obs = ext.conserved_quantities()
    assert {"K_re", "K_im"} <= set(obs)
    calls = []
    original = extension.seed_pair

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(extension, "seed_pair", counted)
    rep = ek.conservation_report(traj, obs, stride=10)
    assert len(calls) == len(rep.times) == 51
    # one observable at a time over every state, as reports were first made
    monkeypatch.setattr(extension, "seed_pair", original)
    ref_obs = ek.build_extension(built.system, built.seed, params).conserved_quantities()
    idx = list(range(0, len(traj.states), 10))
    for name, fn in ref_obs.items():
        vals = np.array([fn(traj.states[i]) for i in idx])
        np.testing.assert_array_equal(rep.series[name], vals)
        assert rep.drifts[name] == float(np.max(np.abs(vals - vals[0]))
                                         / max(abs(vals[0]), 1e-12))


def test_fd_bracket_canonical_pair():
    st_ = ek.canonical_structure(2)
    f = lambda y: float(y[0])
    g = lambda y: float(y[1])
    val = ek.fd_bracket_normalized(st_, f, g, np.array([0.4, -1.1]))
    assert abs(val - 1.0) < 1e-9


def test_fd_bracket_normalized_scale_invariance():
    st_ = ek.canonical_structure(2)
    f = lambda y: 1000.0 * y[0] * y[1]
    g = lambda y: 1e-3 * (y[0] ** 2 - y[1] ** 2)
    x = np.array([0.8, 0.6])
    raw = ek.fd_bracket_normalized(st_, f, g, x)
    scaled = ek.fd_bracket_normalized(st_, lambda y: 7.0 * f(y), g, x)
    assert abs(raw - scaled) <= 1e-6 * max(raw, scaled)


def left_to_right(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total = total + x * y
    return total


@pytest.mark.parametrize("key", ["quartic1", "vortex_opposite", "euler_top"])
def test_the_normalized_bracket_is_a_fixed_order_sum(key, monkeypatch):
    # |gf . pi gg| / (|gf| |pi| |gg| + 1e-12) with each sum added left to
    # right from 0.0 and the roots by math.sqrt, bit for bit: a BLAS dot or
    # norm may round otherwise, and the bracket gates print this number.
    # fd_gradient is stubbed to give the drawn gradients.
    structure = ek.extend_structure(ek.instantiate(key).system.structure)
    rng = np.random.default_rng(8)
    box = ((0.3, 1.2), (-1.0, 1.0)) + ek.get_entry(key).default_box
    for _ in range(40):
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        gf, gg = rng.uniform(-2.0, 2.0, (2, len(x)))
        drawn = {"f": gf, "g": gg}
        monkeypatch.setattr(verify, "fd_gradient", lambda fn, *args: drawn.pop(fn))
        pi = structure.matrix(x)
        pi_gg = [left_to_right(row, gg.tolist()) for row in pi.tolist()]
        scale = (math.sqrt(left_to_right(gf.tolist(), gf.tolist()))
                 * structure.spectral_norm(pi) * math.sqrt(left_to_right(gg.tolist(), gg.tolist())))
        want = abs(left_to_right(gf.tolist(), pi_gg)) / (scale + 1e-12)
        assert verify.fd_bracket_normalized(structure, "f", "g", x) == want
        assert drawn == {}


def refusing(where, fn):
    """``fn``, raising SingularPointError at every ``y`` where ``where(y)``."""
    def wrapped(y):
        if where(y):
            raise ek.SingularPointError("refused")
        return fn(y)

    return wrapped


def test_bracket_sweep_gives_what_fd_bracket_normalized_gives_pair_by_pair():
    # H refuses the first state and b the second: a state H refuses skips
    # each of its pairs, and one F refuses skips its pair alone
    structure = ek.canonical_structure(2)
    h_fn = refusing(lambda y: y[0] < -0.5, lambda y: 0.5 * (y[0] ** 2 + y[1] ** 2) + y[0] ** 3)
    fns = {"a": lambda y: y[0] * y[1], "b": refusing(lambda y: y[1] > 1.0, lambda y: y[1]),
           "c": lambda y: y[0] ** 2 + y[1] ** 2}
    states = [np.array(s) for s in ([-0.8, 0.3], [0.4, 1.2], [0.6, -0.2], [0.1, 0.5])]
    vals, kept = [], []
    for x in states:
        for name, fn in fns.items():
            try:
                vals.append(ek.fd_bracket_normalized(structure, h_fn, fn, x))
            except ek.EvaluationError:
                continue
            kept.append((name, x))
    worst, where, checked, skipped = ek.bracket_sweep(structure, h_fn, fns, states)
    assert (checked, skipped) == (len(vals), 12 - len(vals)) == (8, 4)
    i = vals.index(max(vals))
    assert worst == vals[i] and where[0] == kept[i][0] and where[1] is kept[i][1]


def test_bracket_sweep_takes_each_bracket_through_fd_bracket_normalized(monkeypatch):
    # one call of the module's fd_bracket_normalized per (K part, state), as
    # a counting wrapper rebound in the module sees them; the third state is
    # on the singular set x3 = 0, so both its brackets raise and are skipped.
    # Control: a sweep that keeps its own reference to the function is not seen
    built = ek.instantiate("vortex_opposite")
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1))
    obs = ext.conserved_quantities()
    ks = {name: fn for name, fn in obs.items() if name.startswith("K")}
    states = [np.array(s) for s in ([0.7, 0.3, 0.8, -0.4, 0.5, 0.9],
                                    [0.6, 0.2, 0.7, -0.3, 0.4, 0.8],
                                    [0.7, 0.3, 0.8, -0.4, 0.5, 0.0],
                                    [0.8, 0.1, 0.6, -0.5, 0.3, 0.7])]
    pinned = types.FunctionType(verify.bracket_sweep.__code__, dict(vars(verify)),
                                argdefs=verify.bracket_sweep.__defaults__)
    seen = {"ok": 0, "raised": 0}
    original = verify.fd_bracket_normalized

    def counted(*args):
        try:
            out = original(*args)
        except ek.EvaluationError:
            seen["raised"] += 1
            raise
        seen["ok"] += 1
        return out

    monkeypatch.setattr(verify, "fd_bracket_normalized", counted)
    result = verify.bracket_sweep(ext.structure(), obs["H"], ks, states)
    assert result[2:] == (seen["ok"], seen["raised"]) == (6, 2)
    assert seen["ok"] + seen["raised"] == 2 * len(states)
    seen.update(ok=0, raised=0)
    assert pinned(ext.structure(), obs["H"], ks, states) == result
    assert seen == {"ok": 0, "raised": 0}


def test_independence_rank_detects_dependence():
    states = [np.array([0.3, 1.2]), np.array([-0.7, 0.4]), np.array([1.1, -0.9])]
    f1 = lambda y: float(y[0])
    f2 = lambda y: float(y[1])
    f3 = lambda y: 2.0 * y[0] - 3.0 * y[1]
    assert ek.independence_rank([f1, f2], states) == 2
    assert ek.independence_rank([f1, f2, f3], states) == 2


def test_independence_rank_complex_gradients():
    states = [np.array([0.4, 0.9]), np.array([1.3, -0.2])]
    f1 = lambda y: complex(y[0], y[1])
    f2 = lambda y: float(y[0] + y[1])
    # real and imaginary parts of f1 already span the plane
    assert ek.independence_rank([f1, f2], states) == 2


def test_independence_rank_is_scale_free():
    b = ek.instantiate("quartic1")
    p = ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=1, n=1)
    obs = ek.build_extension(b.system, b.seed, p).conserved_quantities()
    spec = ek.SampleSpec(((0.3, 1.2), (-1.0, 1.0), (-2.0, 2.0), (-2.0, 2.0)), 20, seed=8)
    states = ek.sample_points(spec)
    fns = [obs["H"], obs["L"], obs["K"]]
    scaled = [obs["H"], obs["L"], lambda v: 1e6 * obs["K"](v)]
    assert ek.independence_rank(fns, states) == 3
    assert ek.independence_rank(scaled, states) == 3


@pytest.mark.parametrize("value", [1.5, 2 + 1j])
def test_fd_gradient_evaluates_only_its_stencil(value):
    # two points per coordinate and no third at x itself
    seen = []

    def fn(v):
        seen.append(v.tolist())
        return value * (v[0] * v[1] + v[2] ** 2)

    x = np.array([0.3, -1.2, 0.7])
    h = 1e-5
    grad = ek.verify.fd_gradient(fn, x, h)
    assert len(seen) == 2 * len(x) and x.tolist() not in seen
    assert grad.dtype == np.asarray(value).dtype
    for i in range(len(x)):
        step = np.eye(len(x))[i] * h
        assert grad[i] == (fn(x + step) - fn(x - step)) / (2.0 * h)


@pytest.mark.parametrize("threshold", [0.0, 1.0, -1e-6, math.nan])
def test_independence_rank_rejects_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(ValueError, match="threshold"):
        ek.independence_rank([lambda v: float(v[0])], [np.array([1.0, 2.0])],
                             threshold=threshold)


def test_independence_rank_skips_a_state_that_cannot_be_evaluated():
    def f(v):
        if v[0] < 0:
            raise ek.SingularPointError("left half-plane")
        return float(v[0] * v[1])

    states = [np.array([-0.5, 1.0]), np.array([0.5, 1.0])]
    assert ek.verify.state_ranks([f, lambda v: float(v[1])], states)[1:] == ([states[1]], 1)
    assert ek.independence_rank([f, lambda v: float(v[1])], states) == 2
    with pytest.raises(ValueError, match="evaluates"):
        ek.independence_rank([f], states[:1])


@pytest.mark.parametrize("args, name", [
    ((0, 5, 5, 1), "n_max"),
    ((3, -3, 5, 1), "count_real"),
    ((3, 5, -1, 1), "count_complex"),
    ((3, 0, 0, 1), "no triple"),
    ((3, 5, 5, -1), "seed"),
])
def test_recursion_sweep_rejects_a_sweep_that_compares_nothing(args, name):
    with pytest.raises(ValueError, match=name):
        ek.recursion_closed_sweep(*args)


@pytest.mark.parametrize("args, name", [
    ((True, 5, 5, 1), "n_max"),
    ((2.5, 10, 0, 1), "n_max"),
    ((3, 10.5, 0, 1), "count_real"),
    ((3, 5, True, 1), "count_complex"),
    ((3, 5, 5, True), "seed"),
])
def test_recursion_sweep_refuses_bools_and_floats(args, name):
    # True once counted as 1, and a float escaped as numpy's or range's TypeError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ek.recursion_closed_sweep(*args)


@pytest.mark.parametrize("field, value", [("margin", math.nan), ("margin", math.inf),
                                          ("margin", -0.1), ("seed", -1)])
def test_sample_spec_rejects_a_margin_or_seed_without_meaning(field, value):
    kwargs = {"margin": 0.0, "seed": 1, field: value}
    with pytest.raises(ValueError, match=field):
        ek.SampleSpec(((0.0, 1.0),), 5, **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"count": 2.5}, "count"),  # once drew 64 points: len(taken) never equalled 2.5
    ({"count": True}, "count"),
    ({"seed": 1.5}, "seed"),  # once numpy's TypeError from SeedSequence
    ({"seed": True}, "seed"),
])
def test_sample_spec_refuses_bools_and_non_integer_counts(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ek.SampleSpec(((0.0, 1.0), (0.0, 1.0)), **{"count": 3, "seed": 1, **kwargs})


def test_sample_spec_refuses_a_bool_margin_and_takes_numpy_integers():
    with pytest.raises(ValueError, match="margin"):
        ek.SampleSpec(((0.0, 1.0),), 3, 1, margin=True)
    spec = ek.SampleSpec(((0.0, 1.0),), np.int64(3), np.int64(1))
    assert len(ek.sample_points(spec)) == 3


@pytest.mark.parametrize("intervals, needle", [
    (((1.0, 0.0),), "bad sampling interval (1.0, 0.0)"),
    (((0.0, 1.0), (0.5, 0.5)), "bad sampling interval (0.5, 0.5)"),
    ((), "sampling needs at least one interval"),
])
def test_sample_spec_refuses_an_empty_or_reversed_interval(intervals, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        ek.SampleSpec(intervals, 5, 1)


def test_integrate_refuses_an_unknown_method_before_any_step():
    calls = []

    def rhs(y):
        calls.append(1)
        return harmonic_rhs(y)

    with pytest.raises(ValueError, match="unknown integration method 'rk5'"):
        ek.integrate(rhs, np.array([1.0, 0.0]), 1.0, method="rk5")
    assert calls == []


@pytest.mark.parametrize("stride", [2.5, True, 0])
def test_conservation_report_refuses_a_stride_that_is_no_positive_integer(stride):
    from extkit.verify import Trajectory

    traj = Trajectory(np.linspace(0.0, 1.0, 5), np.zeros((5, 1)), "rk4")
    with pytest.raises(ValueError, match="stride must be an integer"):
        ek.conservation_report(traj, {"A": lambda y: float(y[0])}, stride=stride)
    assert len(ek.conservation_report(traj, {"A": lambda y: 0.0}, np.int64(2)).times) == 3


def test_recursion_sweep_shape():
    res = ek.recursion_closed_sweep(4, 20, 5, 123)
    assert set(res["per_n"]) == {1, 2, 3, 4}
    assert res["max_rel"] <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.3, max_value=2.0),
       st.floats(min_value=-1.5, max_value=1.5))
def test_rk4_energy_drift_small_property(q0, p0):
    y0 = np.array([q0, p0])
    traj = ek.integrate(harmonic_rhs, y0, 1.0, dt=5e-3)
    e = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
    assert np.max(np.abs(e - e[0])) <= 1e-9 * max(1.0, e[0])


@pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf])
def test_fd_gradient_rejects_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="step"):
        ek.verify.fd_gradient(lambda v: float(v[0]), np.array([1.0, 2.0]), h)


def test_state_ranks_reads_rank_0_where_every_gradient_vanishes():
    states = [np.array([0.3, -0.2]), np.array([1.0, 2.0])]
    assert ek.verify.state_ranks([lambda v: 1.5, lambda v: -2.0], states)[0] == [0, 0]
    # control: one field that moves gives rank 1
    assert ek.verify.state_ranks([lambda v: 1.5, lambda v: float(v[0])], states)[0] == [1, 1]


@pytest.mark.parametrize("c0, kept", [(-0.125, 5), (0.125, 0)], ids=["radicand-1/4",
                                                                     "radicand--1/4"])
def test_first_order_residual_keeps_a_real_point_whose_radicand_is_in_0_1(c0, kept):
    # L = q p / 2 gives X_L q = q / 2; with (c, c0) = (0, -1/8) the radicand
    # -2 (c L + c0) is 1/4 at every point and G = q solves the first-order
    # identity there, while (0, 1/8) makes it -1/4, which a real field skips
    system = ek.HamiltonianSystem(ek.canonical_structure(2),
                                  ek.ScalarField(lambda co: 0.5 * co[0] * co[1], 2))
    g = ek.ScalarField(lambda co: co[0], 2)
    spec = ek.SampleSpec(((0.5, 1.5), (-1.0, 1.0)), count=5, seed=1)
    rep = ek.first_order_residual(system, g, 0.0, c0, 1, spec)
    assert len(rep.rel_residuals) == kept and rep.skipped == 5 - kept
    if kept:
        assert rep.max_rel <= 1e-8


def test_first_order_residual_rejects_a_zero_step():
    built = ek.instantiate("euler_top")
    field = built.meta["local_seed_builder"](0.0, -0.5)
    spec = ek.SampleSpec(((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2)), count=3, seed=1)
    with pytest.raises(ValueError, match="step"):
        ek.first_order_residual(built.system, field, 0.0, -0.5, 1, spec, step=0.0)


@pytest.mark.parametrize("kwargs, name", [
    (dict(t_final=math.inf), "t_final"),
    (dict(t_final=math.nan), "t_final"),
    (dict(t_final=1.0, dt=math.nan), "dt"),
    (dict(t_final=1.0, method="rkf45", dt=0.0), "dt"),
    (dict(t_final=1.0, method="rkf45", tol=-1.0), "tol"),
    (dict(t_final=1.0, method="rkf45", tol=math.nan), "tol"),
    (dict(t_final=1.0, method="rkf45", tol=math.inf), "tol"),
    (dict(t_final=1.0, dt=math.inf), "dt"),
    # a negative dt_max once made h negative: t walked backwards for good
    (dict(t_final=1.0, method="rkf45", dt_max=-1.0), "dt_max"),
    (dict(t_final=1.0, method="rkf45", dt_max=math.nan), "dt_max"),
    (dict(t_final=1.0, method="rkf45", dt_min=-1.0), "dt_min"),
    (dict(t_final=1.0, method="rkf45", dt_min=math.nan), "dt_min"),
    (dict(t_final=1.0, method="rkf45", dt_min=0.1, dt_max=0.01), "dt_min must not exceed"),
    # more rk4 steps than the budget, so many that their count overflows
    (dict(t_final=1e300, dt=1e-300), "ask for inf rk4 steps"),
])
def test_integrate_rejects_meaningless_numbers(kwargs, name):
    calls = []

    def rhs(y):
        calls.append(1)
        return harmonic_rhs(y)

    with pytest.raises(ValueError, match=name):
        ek.integrate(rhs, np.array([1.0, 0.0]), **kwargs)
    assert calls == []  # rejected before any step


def test_integrate_hands_rhs_a_list_and_takes_any_sequence_back():
    seen = []

    def rhs(y):
        seen.append(type(y))
        return (y[1], -y[0]) if len(seen) % 2 else np.array([y[1], -y[0]])

    for method in ("rk4", "rkf45"):
        seen.clear()
        traj = ek.integrate(rhs, (1.0, 0.0), 0.1, method=method, dt=1e-2)
        assert set(seen) == {list}
        assert traj.states.dtype == np.float64 and traj.times.dtype == np.float64
        assert traj.states.shape == (len(traj.times), 2)
        np.testing.assert_allclose(traj.states[-1], [math.cos(0.1), -math.sin(0.1)],
                                   atol=1e-9)


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_integrate_keeps_a_state_that_turns_complex(method):
    # y' = i y from y = 1: exp(i t)
    traj = ek.integrate(lambda y: [1j * y[0]], [1.0], 1.0, method=method)
    assert traj.states.dtype == np.complex128 and not traj.truncated
    assert abs(traj.states[-1, 0] - complex(math.cos(1.0), math.sin(1.0))) <= 1e-9
    assert traj.states[0, 0] == 1.0


@pytest.mark.parametrize("rhs, y0, needle", [
    (lambda y: [1.0], [0.0, 0.0], "must return 2 numbers, got shape (1,)"),
    (lambda y: 1.0, [0.0], "must return 1 numbers, got shape ()"),
    (harmonic_rhs, [[1.0, 0.0]], "y0 must be a flat vector"),
])
def test_integrate_rejects_a_state_or_rhs_of_the_wrong_shape(rhs, y0, needle):
    for method in ("rk4", "rkf45"):
        with pytest.raises(ValueError, match=re.escape(needle)):
            ek.integrate(rhs, y0, 0.1, method=method)


def test_a_truncated_rk4_trajectory_keeps_only_its_states():
    def rhs(y):
        if y[0] >= 0.5:
            raise ek.EvaluationError("left the chart")
        return [1.0, 0.0]

    traj = ek.integrate(rhs, [0.0, 0.0], 10.0, dt=1e-2)
    assert traj.truncated and traj.states.shape == (len(traj.times), 2)
    assert traj.states.base is None  # not a view of the whole step budget
    np.testing.assert_array_equal(traj.states[:, 0], traj.times)


def test_conservation_report_keeps_the_subsampled_states():
    from extkit.verify import Trajectory

    times = np.linspace(0.0, 1.0, 11)
    states = np.stack([times, -times], axis=1)
    traj = Trajectory(times, states, "rk4", False, "", {})
    rep = ek.conservation_report(traj, {"A": lambda y: float(y[0])}, stride=4)
    np.testing.assert_array_equal(rep.times, times[[0, 4, 8, 10]])
    np.testing.assert_array_equal(rep.states, states[[0, 4, 8, 10]])
    np.testing.assert_array_equal(rep.series["A"], rep.states[:, 0])


def test_rk4_refuses_a_run_over_its_step_budget_before_storing_a_state(monkeypatch):
    from extkit import verify

    def no_storage(*args, **kwargs):
        raise AssertionError("rk4 allocated its states")

    # the package's longest run is 20 000 steps
    assert verify.RK4_MAX_STEPS >= 50 * 20_000
    monkeypatch.setattr(verify.np, "empty", no_storage)
    with pytest.raises(ValueError, match=r"dt = 1e-12 and t_final = 10\.0 ask for 1e\+13"):
        ek.integrate(harmonic_rhs, [1.0, 0.0], 10.0, dt=1e-12)
    with pytest.raises(ValueError, match="budget"):
        ek.integrate(harmonic_rhs, [1.0, 0.0], 1.0, dt=1.0 / (verify.RK4_MAX_STEPS + 1))
