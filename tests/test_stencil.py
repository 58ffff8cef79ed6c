"""H, L and K over a finite-difference stencil, from one pass by parts.

``fd_gradient`` takes the values of the observables of
``Extension.conserved_quantities`` at a stencil's points from their
``at_stencil`` (``extension._Stencil``): one profile per distinct u and one
base part per distinct base point, kept for the last (centre, step) of each
extension.  Every gradient it forms that way must be the one formed point by
point from nothing kept (``reference.observable``), bit for bit, or the same
error with the same message; and so must every value an observable gives at
one vector, from the same evaluation in its one-point form.
"""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import extkit as ek
from extkit import extension
from reference import observable

FD_STEP = ek.verify.FD_STEP
STEPS = [FD_STEP, 1e-4, 2.5e-6]
# the four profile regimes, on a real and a complex seed, as in test_extension
REGIMES = {
    "c=0": dict(c=0.0, C=1.0),
    "kappa>0": dict(c=1.0, C=1.0),
    "kappa<0": dict(c=1.0, C=-1.0),
    "C=0": dict(c=1.0, C=0.0),
}


def outcome(fn):
    """``fn()``'s gradient as (dtype, bytes), or its value as (type, repr),
    or its error as (class, message)."""
    try:
        got = fn()
    except Exception as e:  # every error must match, whatever its class
        return type(e), str(e)
    if isinstance(got, np.ndarray):
        return got.dtype.str, got.tobytes()
    return type(got), repr(got)


def mismatches(ext, asks) -> list:
    """The (name, centre, step) asks where fd_gradient on the observable,
    or for a step of None its value at the centre, differs from the
    reference's, formed point by point from nothing kept."""
    obs = ext.conserved_quantities()
    bad = []
    for name, x, h in asks:
        fn = obs[name]
        if h is None:
            got, want = outcome(lambda: fn(x)), outcome(lambda: observable(ext, name, x))
        else:
            got = outcome(lambda: ek.fd_gradient(fn, x, h))
            want = outcome(lambda: ek.fd_gradient(lambda v: observable(ext, name, v), x, h))
        if got != want:
            bad.append((name, x.tolist(), h))
    return bad


def asks_at(ext, x, x_same_u, h, h_other, order) -> list:
    """The observables, those ``order`` names first, at (x, h), at x alone
    (step None), at (x, another step), and at (another centre with x's u,
    that step) and that centre alone: an evaluation kept under a key that
    leaves out the step, or all but u, is read where it does not apply."""
    names = list(ext.conserved_quantities())
    names = [names[i % len(names)] for i in order] + names
    return [(name, y, s) for y, s in ((x, h), (x, None), (x, h_other), (x_same_u, h_other),
                                      (x_same_u, None))
            for name in names]


def near(values, h):
    # a value at, or one step from, each of ``values``
    return st.sampled_from([v + d for v in values for d in (0.0, h, -h, 0.5 * h)])


@st.composite
def cases(draw, built):
    """An extension, a stencil centre that may sit near a profile pole, a
    centrifugal pole or a singular set, another centre with the same u, and
    two steps."""
    if draw(st.booleans()):
        key, consts, (m, n) = draw(st.sampled_from(conftest.BRACKET_CASES))
        params = ek.ExtensionParams(m=m, n=n, **consts)
    else:
        key = draw(st.sampled_from(["quartic1", "vortex_opposite"]))
        params = ek.ExtensionParams(
            c0=0.5, m=draw(st.integers(1, 3)), n=draw(st.integers(1, 2)),
            omega=draw(st.sampled_from([0.0, 0.3])), offset=draw(st.sampled_from([0.0, 0.25])),
            **REGIMES[draw(st.sampled_from(sorted(REGIMES)))])
    h, h_other = draw(st.permutations(STEPS))[:2]
    box = ek.get_entry(key).default_box
    # the profile's pole sits at the offset, and y = 0 a quarter period on
    u = draw(st.floats(0.3, 1.2) | near([params.offset, params.offset + math.pi / 2], h))
    # every catalog singular set here lies at a zero coordinate
    bases = [[draw(st.floats(lo, hi) | near([0.0], h)) for lo, hi in box] for _ in range(2)]
    p_us = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    x, x_same_u = (np.array([u, p_u, *base]) for p_u, base in zip(p_us, bases))
    order = draw(st.lists(st.integers(0, 3), max_size=3))
    return built[key], params, x, x_same_u, h, h_other, order


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_observable_s_gradient_is_the_per_point_gradient(built, data):
    entry, params, x, x_same_u, h, h_other, order = data.draw(cases(built))
    ext = ek.Extension(entry.system, entry.seed, params)
    assert mismatches(ext, asks_at(ext, x, x_same_u, h, h_other, order)) == []
    assert ext._last[0] is not None  # the stencil path was taken


def evaluation(ext, x, h):
    """A new evaluation by parts at ``x`` (``h`` None) or at its stencil."""
    if h is None:
        xs = x.tolist()
        return extension._Point(ext, xs[0], xs[1], xs[2:])
    return extension._Stencil(ext, x, h)


def keyed(key):
    """A faulty ``Extension._kept_evaluation`` that keeps the last evaluation
    under ``key(x, h)``."""
    def kept_evaluation(self, x, h):
        last = self._last
        if last[0] != key(x, h):
            last[:] = key(x, h), evaluation(self, x, h)
        return last[1]

    return kept_evaluation


STATES = {
    "quartic1": (dict(c=1.0, c0=1.0, C=1.0, m=3, n=2), [0.6, 0.4, 0.9, -0.7]),
    "vortex_opposite": (dict(c=0.0, c0=0.5, C=1.0, m=1, n=1), [0.7, 0.3, 0.8, -0.4, 0.5, 0.9]),
}


@pytest.mark.parametrize("fault", [lambda x, h: x.tobytes(), lambda x, h: (x[:1].tobytes(), h)],
                         ids=["without-h", "on-u-alone"])
@pytest.mark.parametrize("key", sorted(STATES))
def test_a_stencil_kept_under_a_short_key_fails_the_check(key, fault, built, monkeypatch):
    consts, state = STATES[key]

    def ext():
        return ek.build_extension(built[key].system, built[key].seed,
                                  ek.ExtensionParams(**consts))

    x = np.array(state)
    x_same_u = x.copy()
    x_same_u[1:] *= 1.01
    asks = asks_at(ext(), x, x_same_u, FD_STEP, 1e-4, [])
    assert mismatches(ext(), asks) == []
    monkeypatch.setattr(ek.Extension, "_kept_evaluation", keyed(fault))
    assert mismatches(ext(), asks) != []


@pytest.mark.parametrize("key", sorted(STATES))
def test_h_and_k_of_two_extensions_share_no_stencil(key, built, monkeypatch):
    # the benchmark's k_mn control: K from the extension of the next index
    # pair, H from this one, at one centre and step
    consts, state = STATES[key]
    x = np.array(state)

    def pair():
        h_ext = ek.build_extension(built[key].system, built[key].seed,
                                   ek.ExtensionParams(**consts))
        k_consts = {**consts, "m": consts["m"] + 1}
        k_ext = ek.build_extension(built[key].system, built[key].seed,
                                   ek.ExtensionParams(**k_consts))
        return h_ext.conserved_quantities(), k_ext.conserved_quantities()

    def h_after_k() -> bool:
        # H's gradient after K's, against H point by point from nothing kept
        h_obs, k_obs = pair()
        for name in k_obs:
            if name.startswith("K"):
                ek.fd_gradient(k_obs[name], x)
        got = ek.fd_gradient(h_obs["H"], x)
        h_ext = h_obs["H"].ext
        return got.tobytes() == ek.fd_gradient(lambda v: observable(h_ext, "H", v), x).tobytes()

    assert h_after_k()
    # control: one stencil kept for every extension, under the right key
    shared = [None, None]

    def kept_evaluation(self, x, h):
        if shared[0] != (x.tobytes(), h):
            shared[:] = (x.tobytes(), h), evaluation(self, x, h)
        return shared[1]

    monkeypatch.setattr(ek.Extension, "_kept_evaluation", kept_evaluation)
    assert not h_after_k()


@pytest.mark.parametrize("key", sorted(STATES))
def test_a_wrapper_takes_the_per_point_path(key, built):
    # fd_gradient looks at_stencil up on the observable's type, so a wrapper,
    # one made by functools.wraps too, is called at each point, and each call
    # evaluates that one vector
    consts, state = STATES[key]
    ext = ek.build_extension(built[key].system, built[key].seed, ek.ExtensionParams(**consts))
    obs = ext.conserved_quantities()
    x = np.array(state)
    for name, fn in obs.items():
        seen = []

        @functools.wraps(fn)
        def wrapper(vec, fn=fn):
            seen.append(vec)
            return fn(vec)

        assert wrapper.__wrapped__ is fn and not hasattr(type(wrapper), "at_stencil")
        got = ek.fd_gradient(wrapper, x).tobytes()
        assert len(seen) == 2 * len(x) and ext._last[0] == (seen[-1].tobytes(), None)
        assert got == ek.fd_gradient(lambda v: observable(ext, name, v), x).tobytes()
        assert got == ek.fd_gradient(fn, x).tobytes()
        assert ext._last[0] == (x.tobytes(), FD_STEP)
    # a wrapper alone forms no stencil
    fresh = ek.build_extension(built[key].system, built[key].seed, ek.ExtensionParams(**consts))
    ek.fd_gradient(functools.wraps(fresh.conserved_quantities()["H"])(lambda v: 0.0), x)
    assert fresh._last == [None, None]
