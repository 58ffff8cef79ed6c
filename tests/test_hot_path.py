"""Structural guards on the hot paths: what one right-hand side call and
one finite-difference bracket state run, and that a warm flow call runs
no jet arithmetic.

These count calls rather than time them, so a change that brings per-call
set-up back into the extended flow, or recomputes K's base-point part
within one bracket stencil, fails here, on any host.
"""
import functools

import numpy as np
import pytest

import extkit as ek
from extkit import extension, jets, poisson, riccati, verify
from reference import observable


@pytest.fixture
def calls(monkeypatch):
    """Field evaluations, profile evaluations and Riccati constant sets made."""
    seen = {"value_grad": [], "jet1": [], "jet2": [], "value": [], "riccati_eval": 0,
            "riccati_params": 0}

    def spy(name):
        original = getattr(jets.ScalarField, name)

        def wrapped(self, x):
            seen[name].append(self.label)
            return original(self, x)

        monkeypatch.setattr(jets.ScalarField, name, wrapped)

    for name in ("value_grad", "jet1", "jet2", "value"):
        spy(name)
    monkeypatch.setattr(jets.ScalarField, "__call__", jets.ScalarField.value)

    post_init = riccati.RiccatiParams.__post_init__

    def counted_post_init(self):
        seen["riccati_params"] += 1
        post_init(self)

    evaluate = extension.riccati_eval

    def counted_eval(params, u):
        seen["riccati_eval"] += 1
        return evaluate(params, u)

    monkeypatch.setattr(riccati.RiccatiParams, "__post_init__", counted_post_init)
    monkeypatch.setattr(extension, "riccati_eval", counted_eval)
    return seen


CASES = [
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=3, n=2), [0.6, 0.4, 0.9, -0.7]),
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=2, n=1, omega=0.3), [0.6, 0.4, 0.9, -0.7]),
    ("square_polar", dict(c=1.0, c0=0.0, C=1.0, m=1, n=1), [0.6, 0.4, 1.0, 0.5, 0.3, -0.2]),
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1),
     [0.7, 0.3, 0.8, -0.4, 0.5, 0.9]),
]


@pytest.mark.parametrize("key, consts, state", CASES)
def test_one_extended_rhs_call(key, consts, state, calls):
    built = ek.instantiate(key)
    params = ek.ExtensionParams(**consts)
    rhs = ek.build_extension(built.system, built.seed, params).flow()
    assert calls["riccati_params"] == 1  # built once, with the extension constants
    for name in ("value_grad", "jet1", "jet2", "value"):
        calls[name].clear()
    calls["riccati_params"] = 0

    out = rhs(np.array(state))
    assert np.all(np.isfinite(out))
    # L once, through the first-order entry point, and no ndarray jet
    assert calls["value_grad"] == [built.system.hamiltonian.label]
    assert calls["jet1"] == [] and calls["jet2"] == [] and calls["value"] == []
    assert calls["riccati_eval"] == 1
    assert calls["riccati_params"] == 0

    # the counter itself sees a construction
    ek.RiccatiParams(1.0, 1.0)
    assert calls["riccati_params"] == 1


@pytest.mark.parametrize("key, consts, state", CASES)
def test_one_state_s_observables_form_the_profile_once_and_l_s_value_once(
        key, consts, state, calls):
    # H, L and K (or K_re and K_im) at one vector, as a drift report asks
    # them, read one evaluation by parts: one profile, one L value for H and
    # L, and one base part for K, whose seed pair reads L and G through
    # value_grad; another vector forms them again
    built = ek.instantiate(key)
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**consts))
    obs = ext.conserved_quantities()
    ham, seed = built.system.hamiltonian.label, built.seed.field.label
    for x in (np.array(state), 1.01 * np.array(state)):
        for name in ("value_grad", "jet1", "jet2", "value"):
            calls[name].clear()
        calls["riccati_eval"] = 0
        got = [fn(x) for fn in obs.values()]
        assert calls["riccati_eval"] == 1
        assert calls["value"] == [ham] and calls["value_grad"] == [ham, seed]
        assert calls["jet1"] == calls["jet2"] == []
        want = [observable(ext, name, x) for name in obs]
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]


def test_zero_profile_builds_no_riccati_constants(calls):
    built = ek.instantiate("vortex_opposite")
    params = ek.ExtensionParams(c=0.0, c0=0.5, C=0.0, m=1, n=1)
    rhs = ek.build_extension(built.system, built.seed, params).flow()
    rhs(np.array([0.7, 0.3, 0.8, -0.4, 0.5, 0.9]))
    assert calls["riccati_params"] == 0 and calls["riccati_eval"] == 0
    assert ek.profile_at(params, 0.6) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("key, state", [("lotka_volterra", [1.2, 0.8]),
                                        ("euler_top", [0.5, 0.9, 0.7])])
def test_entry_rule_bivector_calls_its_rule_once(key, state, calls):
    system = ek.instantiate(key).system
    rule = system.structure.entries
    seen = []

    def counted(coords):
        seen.append(coords)
        return rule(coords)

    system.structure.entries = counted
    x = np.array(state)
    system.structure.matrix(x)
    assert len(seen) == 1 and all(type(v) is float for v in seen[0])
    system.structure.matrix_with_grads(x)
    assert len(seen) == 2 and all(isinstance(v, ek.Jet) for v in seen[1])

    # one base-flow call: one rule call and one first-order evaluation of L
    calls["value_grad"].clear()
    calls["jet1"].clear()
    ek.base_flow(system)(x)
    assert len(seen) == 3
    assert calls["value_grad"] == [system.hamiltonian.label]
    assert calls["jet1"] == [] and calls["jet2"] == []


BRACKET_STATES = [
    # 2 d + 1 distinct base points in a stencil over (u, p_u, x), d = dim x
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1),
     [0.7, 0.3, 0.8, -0.4, 0.5, 0.9], 9),
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=1, n=1), [0.6, 0.4, 0.9, -0.7], 5),
]


@pytest.mark.parametrize("key, consts, state, per_field", BRACKET_STATES)
def test_one_bracket_state_computes_each_seed_pair_once(key, consts, state, per_field, calls):
    # the u and p_u steps keep the base point, and K_im and H read K_re's stencil
    built = ek.instantiate(key)
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**consts))
    obs = ext.conserved_quantities()
    structure = ext.structure()
    for name in ("value_grad", "jet1", "jet2", "value"):
        calls[name].clear()
    for name in obs:
        if name.startswith("K"):
            ek.fd_bracket_normalized(structure, obs["H"], obs[name], np.array(state))
    # every first-order evaluation, jet1's included, goes through value_grad
    ham, seed = built.system.hamiltonian.label, built.seed.field.label
    assert calls["value_grad"].count(ham) == calls["value_grad"].count(seed) == per_field
    assert len(calls["value_grad"]) == 2 * per_field and calls["jet2"] == []
    # K's stencil goes first and keeps L at each base point, where H's reads
    # it; H's stencil alone, on a fresh instance, calls L's value once at each
    # base point, and control: point by point, at each of its 2 (d + 2) points
    assert calls["value"] == []
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**consts))
    h_obs = ext.conserved_quantities()["H"]
    ek.fd_gradient(h_obs, np.array(state))
    assert calls["value"] == [ham] * per_field
    assert calls["value_grad"] == [ham, seed] * per_field  # H's stencil never evaluates G
    calls["value"].clear()
    ek.fd_gradient(lambda vec: h_obs(vec), np.array(state))
    assert calls["value"] == [ham] * 2 * len(state)


@pytest.mark.parametrize("key, consts, state, per_field", BRACKET_STATES)
def test_one_bracket_state_runs_the_profile_three_times(key, consts, state, per_field, calls,
                                                        monkeypatch):
    # a stencil holds three values of u and 2 d + 1 base points, and H, K_re
    # and K_im read one pass over it: per state, riccati_eval runs 3 times and
    # seed_pair 2 d + 1 times, whether the brackets are taken one K part at a
    # time or by bracket_sweep
    built = ek.instantiate(key)
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**consts))
    obs = ext.conserved_quantities()
    ks = {name: fn for name, fn in obs.items() if name.startswith("K")}
    pairs = []
    seed_pair = extension.seed_pair
    monkeypatch.setattr(extension, "seed_pair", lambda *args: pairs.append(1) or seed_pair(*args))
    structure = ext.structure()
    states = [np.array(state), 1.01 * np.array(state)]
    calls["riccati_eval"] = 0
    for k in ks.values():
        ek.fd_bracket_normalized(structure, obs["H"], k, states[0])
    assert (calls["riccati_eval"], len(pairs)) == (3, per_field)
    assert ek.bracket_sweep(structure, obs["H"], ks, states[1:])[2:] == (len(ks), 0)
    assert (calls["riccati_eval"], len(pairs)) == (6, 2 * per_field)


def test_a_bracket_sweep_forms_h_s_values_once_per_stencil_point(monkeypatch):
    # K_re and K_im each take H's bracket, and H's values are formed once per
    # stencil point, whether the sweep takes the (K part, state) pairs or
    # they are taken one fd_bracket_normalized call at a time
    key, consts, state, _ = BRACKET_STATES[0]
    built = ek.instantiate(key)
    states = [np.array(state), 1.01 * np.array(state)]
    runs = []
    formula = extension._hamiltonian_from_parts
    monkeypatch.setattr(extension, "_hamiltonian_from_parts",
                        lambda *args: runs.append(args) or formula(*args))

    def h_runs(pairwise: bool) -> int:
        ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**consts))
        obs = ext.conserved_quantities()
        ks = {name: fn for name, fn in obs.items() if name.startswith("K")}
        runs.clear()
        if pairwise:
            for x in states:
                for k in ks.values():
                    verify.fd_bracket_normalized(ext.structure(), obs["H"], k, x)
        else:
            assert verify.bracket_sweep(ext.structure(), obs["H"], ks, states)[2:] == (4, 0)
        return len(runs)

    assert h_runs(False) == h_runs(True) == 2 * len(state) * len(states) == 24


def bracket_counts(key, consts, state, monkeypatch) -> dict:
    """Chain members built, (p_u, y) parts evaluated and ExtendedStates made
    by the bracket of H with each part of K at one state."""
    built = ek.instantiate(key)
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**consts))
    obs = ext.conserved_quantities()
    seen = {"chain": 0, "parts": 0, "states": 0}

    def counting(name, fn):
        def counted(*args):
            seen[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(extension, "recursion_term_closed",
                        counting("chain", extension.recursion_term_closed))
    monkeypatch.setattr(extension, "_integral_from_parts",
                        counting("parts", extension._integral_from_parts))
    monkeypatch.setattr(extension.ExtendedState, "__post_init__",
                        counting("states", extension.ExtendedState.__post_init__))
    for name in obs:
        if name.startswith("K"):
            ek.fd_bracket_normalized(ext.structure(), obs["H"], obs[name], np.array(state))
    return seen


@pytest.mark.parametrize("key, consts, state, bases", BRACKET_STATES)
def test_one_bracket_state_builds_each_chain_once_and_k_once_per_point(
        key, consts, state, bases, monkeypatch):
    # K_re and K_im of a complex K share the stencil's 2 (d + 2) points
    seen = bracket_counts(key, consts, state, monkeypatch)
    assert seen == {"chain": bases, "parts": 2 * len(state), "states": 0}


@pytest.mark.parametrize("key, consts, state, bases", BRACKET_STATES)
def test_a_base_part_kept_per_vector_fails_the_count(key, consts, state, bases, monkeypatch):
    # negative control: formed at each point, the base part is built at every
    # stencil point, though the u and p_u steps keep the base point
    def per_point(at_u, p_u, at_base):
        chain, lam, _ = at_base.ext._base_part(at_base.base)
        gam = at_u.profile()[0]
        return extension._integral_from_parts(at_u.ext.params, chain, lam, gam, p_u)

    monkeypatch.setattr(extension, "_integral_by_parts", per_point)
    seen = bracket_counts(key, consts, state, monkeypatch)
    assert seen["chain"] == 2 * len(state) > bases


@pytest.mark.parametrize("key, run", [
    ("quartic1", lambda b: ek.build_extension(
        b.system, b.seed, ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=3, n=2)).flow()),
    ("lotka_volterra", lambda b: ek.base_flow(b.system)),
], ids=["quartic1-extended-rhs", "lotka_volterra-base-flow"])
def test_a_warm_flow_call_runs_no_jet_arithmetic(key, run, monkeypatch):
    # from its first call on, value_grad replays a compiled kernel over
    # plain numbers: L's fn does not run, and no jet is built at all
    built = ek.instantiate(key)
    ham = built.system.hamiltonian
    fn_calls = []
    fn = ham.fn

    def counted_fn(co):
        fn_calls.append(1)
        return fn(co)

    ham.fn = counted_fn
    state = {"quartic1": [0.6, 0.4, 0.9, -0.7], "lotka_volterra": [1.2, 0.8]}[key]
    rhs = run(built)
    x = np.array(state)
    rhs(x)  # warm-up: the recording
    fn_calls.clear()
    grads = []
    init = jets.Jet.__init__

    def counted_init(self, value, grad, hess=None):
        grads.append(type(grad))
        init(self, value, grad, hess)

    monkeypatch.setattr(jets.Jet, "__init__", counted_init)
    out = rhs(x * 0.99)
    assert np.all(np.isfinite(out))
    assert fn_calls == []
    assert grads == []


@pytest.mark.parametrize("key", ["quartic1", "vortex_equal"])
def test_a_clean_cloud_makes_no_jet2_call(key, calls, monkeypatch):
    # pde_residual evaluates X_L^2 G over its whole sample in one replay of each
    # field's recorded second-order tape; jet2 and apply_xl2 run only at marked points
    from extkit import verify

    built = ek.instantiate(key)
    c, c0 = built.seed.meta["pair"]
    per_point = []
    apply_xl2 = verify.apply_xl2

    def counted(system, f, x):
        per_point.append(x)
        return apply_xl2(system, f, x)

    monkeypatch.setattr(verify, "apply_xl2", counted)
    spec = ek.SampleSpec(intervals=ek.get_entry(key).default_box, count=40, seed=2,
                         margin=0.15)
    for name in ("value_grad", "jet1", "jet2", "value"):
        calls[name].clear()
    rep = ek.pde_residual(built.system, built.seed.field, c, c0, spec)
    assert len(rep.residuals) == 40 and rep.skipped == 0
    assert calls["jet2"] == [] and per_point == []
    # the right side takes L and G from the same pass's value columns
    assert calls["value"] == []


@pytest.mark.parametrize("count", [1, 20, 31])
def test_a_sample_below_the_cloud_threshold_goes_point_by_point(count, calls, monkeypatch):
    # a pass's fixed cost outweighs its gain on a small sample (verify.CLOUD_MIN_POINTS)
    from extkit import verify

    assert count < verify.CLOUD_MIN_POINTS
    built = ek.instantiate("quartic1")
    c, c0 = built.seed.meta["pair"]
    per_point = []
    apply_xl2 = verify.apply_xl2

    def counted(system, f, x):
        per_point.append(x)
        return apply_xl2(system, f, x)

    def no_cloud(*args):
        raise AssertionError("apply_xl2_cloud on a small sample")

    monkeypatch.setattr(verify, "apply_xl2", counted)
    monkeypatch.setattr(verify, "apply_xl2_cloud", no_cloud)
    spec = ek.SampleSpec(intervals=ek.get_entry("quartic1").default_box, count=count,
                         seed=2, margin=0.15)
    calls["jet2"].clear()
    rep = ek.pde_residual(built.system, built.seed.field, c, c0, spec)
    assert len(rep.residuals) == count and rep.skipped == 0
    assert len(per_point) == count
    assert sorted(calls["jet2"]) == sorted(
        [built.system.hamiltonian.label, built.seed.field.label] * count)


@pytest.mark.parametrize("key, make, state", [
    ("quartic1", lambda b: ek.build_extension(
        b.system, b.seed, ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=3, n=2)).flow(),
     [0.6, 0.4, 0.9, -0.7]),
    ("square_polar", lambda b: ek.build_extension(
        b.system, b.seed, ek.ExtensionParams(c=1.0, c0=0.0, C=1.0, m=1, n=1)).flow(),
     [0.6, 0.4, 1.0, 0.5, 0.3, -0.2]),
    ("lotka_volterra", lambda b: ek.base_flow(b.system), [1.2, 0.8]),
], ids=["quartic1-extended-rhs", "square_polar-extended-rhs", "lotka_volterra-base-flow"])
def test_a_warm_list_state_call_runs_the_kernel_alone(key, make, state, calls, monkeypatch):
    # a list state takes the one first-order path: one value_grad call, which
    # runs L's compiled kernel once, and no jet is built
    built = ek.instantiate(key)
    rhs = make(built)
    rhs(list(state))  # the recording
    ham = built.system.hamiltonian
    fn, kernel = ham._kernel
    assert callable(kernel)
    kernel_calls = []

    def counted(xs):
        kernel_calls.append(xs)
        return kernel(xs)

    ham._kernel = (fn, counted)
    grads = []
    init = jets.Jet.__init__

    def counted_init(self, value, grad, hess=None):
        grads.append(type(grad))
        init(self, value, grad, hess)

    monkeypatch.setattr(jets.Jet, "__init__", counted_init)
    for name in ("value_grad", "jet1", "jet2", "value"):
        calls[name].clear()
    calls["riccati_eval"] = 0
    out = rhs([v * 0.99 for v in state])
    assert type(out) is list and np.all(np.isfinite(out))
    assert calls["value_grad"] == [ham.label] and len(kernel_calls) == 1
    assert calls["riccati_eval"] == (0 if key == "lotka_volterra" else 1)
    assert calls["jet1"] == calls["jet2"] == calls["value"] == [] and grads == []


def test_a_complex_k_is_evaluated_once_per_state(monkeypatch):
    # K_re and K_im of vortex_opposite read one evaluation of K at each state
    built = ek.instantiate("vortex_opposite")
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1))
    evaluated = []
    from_parts = extension._integral_from_parts

    def counted(*args):
        evaluated.append(args)
        return from_parts(*args)

    monkeypatch.setattr(extension, "_integral_from_parts", counted)
    traj = ek.integrate(ext.flow(), [0.7, 0.3, 0.8, -0.4, 0.5, 0.9], 0.05, dt=1e-2)
    obs = ext.conserved_quantities()
    assert {"K_re", "K_im"} <= set(obs)
    rep = ek.conservation_report(traj, obs)
    assert len(evaluated) == len(traj.states) == len(rep.series["K_re"])
    # the parts are those of K itself
    k = [complex(ext.integral(ek.ExtendedState(*v[:2].tolist(), v[2:]))) for v in traj.states]
    assert rep.series["K_re"].tolist() == [z.real for z in k]
    assert rep.series["K_im"].tolist() == [z.imag for z in k]


# The flow cases of the benchmark (perfbench/benchlib/cases.py FLOW_CASES):
# entry, extension constants or None for the base flow, and the start.
FLOW_SHAPES = [
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=3, n=2), [0.6, 0.4, 0.9, -0.7]),
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=2, n=1, omega=0.3), [0.6, 0.4, 0.9, -0.7]),
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1),
     [0.7, 0.3, 0.8, -0.4, 0.5, 0.9]),
    ("square_polar", dict(c=1.0, c0=0.0, C=1.0, m=1, n=1), [0.6, 0.4, 1.0, 0.5, 0.3, -0.2]),
    ("lotka_volterra", None, [1.2, 0.8]),
    ("euler_top", None, [0.5, 0.9, 0.7]),
]


def traced_flow(key, consts):
    """A fresh system and its flow wrapped as the benchmark's tracer wraps it
    (``functools.wraps``, which keeps the flow's ``_flow``), with the list of
    states the wrapper was called on."""
    system = ek.instantiate(key).system
    flow = (ek.base_flow(system) if consts is None
            else ek.extended_flow(system, ek.ExtensionParams(**consts)))
    rhs_calls = []

    @functools.wraps(flow)
    def rhs(y):
        rhs_calls.append(y)
        return flow(y)

    return system, rhs, rhs_calls


@pytest.mark.parametrize("key, consts, state", FLOW_SHAPES,
                         ids=["quartic1_m3n2", "quartic1_omega", "vortex_opposite",
                              "square_polar", "lotka_volterra", "euler_top"])
def test_a_warm_rk4_step_runs_the_kernel_four_times_and_nothing_else(key, consts, state,
                                                                     calls, monkeypatch):
    # integrate takes a library flow's fused step: its four stages call L's
    # kernel and no rhs, ham_field, value_grad or riccati_eval
    system, rhs, rhs_calls = traced_flow(key, consts)
    rhs(list(state))  # the recording
    ham = system.hamiltonian
    fn, kernel = ham._kernel
    assert callable(kernel)
    kernel_calls = []

    def counted(xs):
        kernel_calls.append(xs)
        return kernel(xs)

    ham._kernel = (fn, counted)
    fields = []
    for module in (poisson, extension):
        original = module.ham_field
        monkeypatch.setattr(module, "ham_field",
                            lambda system, x, original=original: fields.append(x)
                            or original(system, x))
    rhs_calls.clear()
    for name in ("value_grad", "jet1", "jet2", "value"):
        calls[name].clear()
    calls["riccati_eval"] = 0
    traj = ek.integrate(rhs, state, 1e-3)  # one step of the default dt
    assert traj.stats == {"n_steps": 1} and not traj.truncated
    assert len(kernel_calls) == 4
    assert rhs_calls == [] and fields == [] and calls["riccati_eval"] == 0
    assert calls["value_grad"] == calls["jet1"] == calls["jet2"] == calls["value"] == []


@pytest.mark.parametrize("key, consts, state", [FLOW_SHAPES[0], FLOW_SHAPES[-1]],
                         ids=["quartic1_m3n2", "euler_top"])
def test_a_run_calls_the_flow_alike_whether_l_starts_cold_or_warm(key, consts, state):
    # the fused step compiles a cold kernel itself, so a traced pass over a
    # fresh set-up counts what the next pass over the same set-up counts
    system, rhs, rhs_calls = traced_flow(key, consts)
    assert system.hamiltonian._kernel == (None, None)
    runs = []
    for _ in range(2):
        traj = ek.integrate(rhs, state, 0.01)
        runs.append((len(rhs_calls), traj.times.tobytes(), traj.states.tobytes()))
    assert callable(system.hamiltonian._kernel[1])
    assert runs[0] == runs[1] and runs[0][0] == 0
