"""Structural guards on the hot paths: what one right-hand side call and
one finite-difference bracket state run.

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
    seen = {"jet1": [], "jet2": [], "value": [], "riccati_eval": 0, "riccati_params": 0}

    def spy(name):
        original = getattr(jets.ScalarField, name)

        def wrapped(self, x):
            seen[name].append(self.label)
            return original(self, x)

        monkeypatch.setattr(jets.ScalarField, name, wrapped)

    for name in ("jet1", "jet2", "value"):
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
    for name in ("jet1", "jet2", "value"):
        calls[name].clear()
    calls["riccati_params"] = 0

    out = rhs(np.array(state))
    assert np.all(np.isfinite(out))
    assert calls["jet1"] == [built.system.hamiltonian.label]
    assert calls["jet2"] == [] and calls["value"] == []
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

    # one base-flow call: one rule call and one jet1 of L
    calls["jet1"].clear()
    ek.base_flow(system)(x)
    assert len(seen) == 3
    assert calls["jet1"] == [system.hamiltonian.label] and calls["jet2"] == []


@pytest.mark.parametrize("key, consts, state, per_field", [
    # 2 d + 1 distinct base points in a stencil over (u, p_u, x), d = dim x
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, m=1, n=1),
     [0.7, 0.3, 0.8, -0.4, 0.5, 0.9], 9),
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, m=1, n=1), [0.6, 0.4, 0.9, -0.7], 5),
])
def test_one_bracket_state_computes_each_seed_pair_once(key, consts, state, per_field, calls):
    # the u and p_u steps keep the base point, and K_im asks where K_re did
    built = ek.instantiate(key)
    ext = ek.build_extension(built.system, built.seed, ek.ExtensionParams(**consts))
    obs = ext.conserved_quantities()
    structure = ext.structure()
    for name in ("jet1", "jet2", "value"):
        calls[name].clear()
    for name in obs:
        if name.startswith("K"):
            ek.fd_bracket_normalized(structure, obs["H"], obs[name], np.array(state))
    ham, seed = built.system.hamiltonian.label, built.seed.field.label
    assert calls["jet1"].count(ham) == calls["jet1"].count(seed) == per_field
    assert len(calls["jet1"]) == 2 * per_field and calls["jet2"] == []
