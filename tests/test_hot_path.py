"""Structural guards on the hot paths: what one right-hand side call and
one finite-difference bracket state run, and that a warm flow call runs
no jet arithmetic.

These count calls rather than time them, so a change that brings per-call
set-up back into the extended flow, or recomputes K's base-point part
within one bracket stencil, fails here, on any host.
"""
import numpy as np
import pytest

import extkit as ek
from extkit import extension, jets, riccati


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
    # the u and p_u steps keep the base point, and K_im asks where K_re did
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
    # negative control: keyed on the whole vector, the base part is built at
    # every stencil point, though the u and p_u steps keep the base point
    kept = {}

    def keyed_on_vector(self, u, p_u, base):
        key = np.concatenate(([u, p_u], base)).tobytes()
        if key not in kept:
            pair, lval = extension.seed_pair(self.system, self.seed.field, base)
            lam = self.params.c * lval + self.params.c0
            r = extension._chain_indices(self.params)[1]
            kept[key] = extension.recursion_term_closed(r, pair, lam), lam
        chain, lam = kept[key]
        gam = ek.profile_at(self.params, u)[0]
        return extension._integral_from_parts(self.params, chain, lam, gam, p_u)

    monkeypatch.setattr(ek.Extension, "_integral_at", keyed_on_vector)
    seen = bracket_counts(key, consts, state, monkeypatch)
    assert seen["chain"] == 2 * len(state) > bases


@pytest.mark.parametrize("key, run", [
    ("quartic1", lambda b: ek.build_extension(
        b.system, b.seed, ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=3, n=2)).flow()),
    ("lotka_volterra", lambda b: ek.base_flow(b.system)),
], ids=["quartic1-extended-rhs", "lotka_volterra-base-flow"])
def test_a_warm_flow_call_runs_no_jet_arithmetic(key, run, monkeypatch):
    # from its second call on, value_grad replays a compiled kernel over
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
    rhs(x)
    rhs(x * 1.01)  # warm-up: the jet path, then the recording
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
def test_a_warm_list_state_call_runs_the_kernel_alone(key, make, state, calls):
    # a list state goes straight to L's compiled kernel: no value_grad, no jets
    built = ek.instantiate(key)
    rhs = make(built)
    rhs(list(state))
    rhs([v * 1.01 for v in state])  # the jet path, then the recording
    ham = built.system.hamiltonian
    fn, kernel = ham._kernel
    assert callable(kernel)
    kernel_calls = []

    def counted(xs):
        kernel_calls.append(xs)
        return kernel(xs)

    ham._kernel = (fn, counted)
    for name in ("value_grad", "jet1", "jet2", "value"):
        calls[name].clear()
    calls["riccati_eval"] = 0
    out = rhs([v * 0.99 for v in state])
    assert type(out) is list and np.all(np.isfinite(out))
    assert len(kernel_calls) == 1
    assert calls["riccati_eval"] == (0 if key == "lotka_volterra" else 1)
    assert calls["value_grad"] == calls["jet1"] == calls["jet2"] == calls["value"] == []


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
    k = [complex(ext.integral(ek.ExtendedState.from_vector(v))) for v in traj.states]
    assert rep.series["K_re"].tolist() == [z.real for z in k]
    assert rep.series["K_im"].tolist() == [z.imag for z in k]
