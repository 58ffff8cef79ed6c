"""Extended Hamiltonian, chain elements, cofactors, first integrals."""
import dataclasses
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import extkit as ek
from extkit import extension
from extkit.extension import (
    _closed_chain,
    _recursion_chain,
    recursion_term_closed,
    seed_pair,
)
from reference import Pair, observable


def const_level_system(value=3.0):
    f = ek.ScalarField(lambda x: value + 0.0 * x[0], dim=2)
    return ek.HamiltonianSystem(ek.canonical_structure(2), f)


def linear_seed_system():
    # L = (p^2 + q^2)/2, G = q; along the flow G'' = -q = -2 (0 L + 1/2) G,
    # so the defining identity holds with the pair (0, 1/2)
    f = ek.ScalarField(lambda x: 0.5 * (x[1] ** 2 + x[0] ** 2), dim=2)
    sys = ek.HamiltonianSystem(ek.canonical_structure(2), f)
    g = ek.ScalarField(lambda x: x[0], dim=2)
    return sys, g


def test_worked_hamiltonian_value():
    # c=0, C=1, c0=1/2, omega=0, m/n=2, u=2, p_u=1, level L=3 gives 20.5
    p = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=2, n=1)
    sys = const_level_system(3.0)
    state = ek.ExtendedState(2.0, 1.0, np.array([0.3, 0.4]))
    assert ek.Extension(sys, None, p).hamiltonian(state) == 20.5


def test_worked_flow_rhs():
    # same data: du/dt = 1, dp_u/dt = -8, base frozen on a level set
    p = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=2, n=1)
    sys = const_level_system(3.0)
    rhs = ek.extended_flow(sys, p)
    out = rhs(np.array([2.0, 1.0, 0.3, 0.4]))
    np.testing.assert_allclose(out, [1.0, -8.0, 0.0, 0.0], atol=1e-13)


def test_params_validation():
    with pytest.raises(ValueError):
        ek.ExtensionParams(c=0.0, c0=0.0, C=1.0, m=1, n=1)
    with pytest.raises(ValueError):
        ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=0, n=1)
    with pytest.raises(ValueError):
        # flat profile cannot carry a centrifugal term
        ek.ExtensionParams(c=0.0, c0=1.0, C=0.0, m=1, n=1, omega=0.5)
    # bool is an int subclass, but never a meaningful index or constant
    with pytest.raises(ValueError):
        ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=True, n=1)
    with pytest.raises(ValueError):
        ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=1, n=True)
    with pytest.raises(ValueError):
        ek.ExtensionParams(c=1.0, c0=1.0, C=True, m=1, n=1)
    with pytest.raises(ValueError):
        ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=1, n=1, omega=False)


def test_index_ratio():
    assert ek.ExtensionParams(c=1.0, c0=0.0, C=1.0, m=3, n=2).k == 1.5


def test_profile_at_degenerate_pair():
    p = ek.ExtensionParams(c=1.0, c0=1.0, C=0.0, m=1, n=1)
    # (c, C) = (0, 0) is the only all-zero profile; c=1, C=0 is 1/u
    y, yp, ypp = ek.profile_at(p, 2.0)
    assert abs(y - 0.5) < 1e-15
    p0 = ek.ExtensionParams(c=0.0, c0=1.0, C=0.0, m=1, n=1)
    assert ek.profile_at(p0, 1.3) == (0.0, 0.0, 0.0)


def test_deriv_pair_leibniz():
    a = Pair(2.0, 3.0)
    b = Pair(-1.0, 4.0)
    prod = a * b
    assert prod.value == -2.0
    assert prod.xl == 2.0 * 4.0 + 3.0 * (-1.0)
    sq = a ** 2
    assert sq.value == 4.0 and sq.xl == 12.0


def test_chain_elements_low_orders():
    g, w, lam = 0.7, -1.3, 0.4
    pair = Pair(g, w)
    g2 = _recursion_chain(2, pair, lam)[-1]
    assert abs(g2.value - 2 * g * w) < 1e-14
    g3 = _recursion_chain(3, pair, lam)[-1]
    expect = 3 * g * w * w - 2 * lam * g ** 3
    assert abs(g3.value - expect) < 1e-13


def test_chain_recursion_matches_closed_form():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(100):
        g, w = rng.uniform(-2, 2, 2)
        lam = rng.uniform(-2, 2)
        pair = Pair(g, w)
        for n in range(1, 9):
            a = _recursion_chain(n, pair, lam)[-1]
            b = recursion_term_closed(n, pair, lam)
            scale = max(abs(b.value), abs(b.xl), 1e-12)
            worst = max(worst, abs(a.value - b.value) / scale,
                        abs(a.xl - b.xl) / scale)
    assert worst <= 1e-10


def test_chain_defining_identity():
    # second derivative along the flow: X^2 G_n = -2 n^2 lam G_n.
    # With the stream model X(G)=W, X(W)=-2 lam G this is checkable
    # through one extra recursion order on perturbed seeds.
    g, w, lam = 0.9, 0.6, -0.8
    h = 1e-6

    def gn(gv, wv, n):
        return recursion_term_closed(n, Pair(gv, wv), lam).value

    for n in (2, 3, 5):
        # advance (g, w) along the flow to second order in s
        def at(s):
            gv = g + s * w - s * s * lam * g
            wv = w - 2 * s * lam * g - s * s * lam * w
            return gn(gv, wv, n)

        num = (at(h) - 2 * at(0.0) + at(-h)) / (h * h)
        expect = -2 * n * n * lam * gn(g, w, n)
        assert abs(num - expect) <= 2e-3 * max(1.0, abs(expect))


def test_power_coeffs_first_order():
    P, D = ek.power_coeffs(1, 3, 1, p_u=0.7, gam=-1.3, lam=0.4)
    assert P == 0.7
    assert abs(D - (-1.3) / 9) < 1e-16


def test_power_coeffs_zero_order():
    P, D = ek.power_coeffs(4, 3, 0, p_u=0.7, gam=-1.3, lam=0.4)
    assert (P, D) == (1.0, 0.0)


def test_power_coeffs_order_cap():
    with pytest.raises(ValueError):
        ek.power_coeffs(2, 1, 3, p_u=0.7, gam=-1.3, lam=0.4)


@pytest.mark.parametrize("call, name", [
    (lambda: recursion_term_closed(True, Pair(0.5, 0.3), 0.2), "chain index n"),
    (lambda: ek.power_coeffs(True, 1, 1, 0.5, 0.3, 0.2), "chain index m"),
    (lambda: ek.power_coeffs(1, True, 1, 0.5, 0.3, 0.2), "chain index n"),
    (lambda: ek.power_coeffs(1, 1, True, 0.5, 0.3, 0.2), "operator power r"),
    (lambda: ek.power_coeffs(2, 1, 1.0, 0.5, 0.3, 0.2), "operator power r"),
], ids=["closed-bool", "m-bool", "n-bool", "r-bool", "r-float"])
def test_chain_indices_refuse_bools_and_floats(call, name):
    # True once passed as the index 1: power_coeffs(True, 1, True, ...) gave (0.5, 0.3)
    with pytest.raises(ValueError, match=name):
        call()


def test_first_integral_lowest_index():
    # m = n = 1: K = p_u G + gamma (X_L G)
    sys, gfield = linear_seed_system()
    seed = ek.ExtensionSeed(field=gfield, meta={"pair": (0.0, 0.5)})
    p = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1)
    state = ek.ExtendedState(0.8, 0.45, np.array([1.1, -0.6]))
    gam, _, _ = ek.profile_at(p, 0.8)
    k = ek.Extension(sys, seed, p).integral(state)
    expect = 0.45 * 1.1 + gam * (-0.6)
    assert abs(k - expect) < 1e-14


@pytest.mark.parametrize("key", ["quartic1", "quartic2b", "square_polar", "vortex_equal",
                                 "vortex_opposite"])
def test_seed_pair_sums_x_l_g_left_to_right(key):
    # X_L G = grad G . pi grad L, each product added left to right from 0.0,
    # bit for bit, for real and complex seeds: a BLAS dot may round otherwise
    built = ek.instantiate(key)
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(40):
        x = [rng.uniform(lo, hi) for lo, hi in ek.get_entry(key).default_box]
        if built.singular is not None and built.singular(x, 0.1):
            continue
        pair, _ = seed_pair(built.system, built.seed.field, np.array(x))
        grad = built.seed.field.value_grad(x)[1]
        total = 0.0
        for g, v in zip(grad, ek.ham_field(built.system, x)[1]):
            total = total + g * v
        assert type(pair.xl) is type(total) and pair.xl == total
        checked += 1
    assert checked >= 20


def test_centrifugal_integral_even_reduction():
    # omega != 0, m=2, n=1 reduces to s=1, r=1:
    # K = U^2(G_1) + (2 omega / gamma^2) G_1
    sys, gfield = linear_seed_system()
    seed = ek.ExtensionSeed(field=gfield, meta={"pair": (0.0, 0.5)})
    p = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=2, n=1, omega=0.3)
    state = ek.ExtendedState(0.8, 0.45, np.array([1.1, -0.6]))
    gam, _, _ = ek.profile_at(p, 0.8)
    pair, lval = seed_pair(sys, gfield, state.base)
    lam = p.c * lval + p.c0
    P, D = ek.power_coeffs(2, 1, 2, state.p_u, gam, lam)
    plain = P * pair.value + D * pair.xl
    expect = plain + (2 * 0.3 / gam ** 2) * pair.value
    got = ek.Extension(sys, seed, p).integral(state)
    assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_centrifugal_odd_index_doubles():
    # omega != 0 with odd m falls back to s=m, r=2n
    sys, gfield = linear_seed_system()
    seed = ek.ExtensionSeed(field=gfield, meta={"pair": (0.0, 0.5)})
    p = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1, omega=0.3)
    state = ek.ExtendedState(0.8, 0.45, np.array([1.1, -0.6]))
    gam, _, _ = ek.profile_at(p, 0.8)
    pair, lval = seed_pair(sys, gfield, state.base)
    lam = p.c * lval + p.c0
    g2 = recursion_term_closed(2, pair, lam)
    w = 2 * 0.3 / gam ** 2
    expect = 0.0
    for j, coef in ((0, 1.0), (1, 1.0)):
        P, D = ek.power_coeffs(2, 2, 2 * (1 - j), state.p_u, gam, lam)
        expect += coef * w ** j * (P * g2.value + D * g2.xl)
    got = ek.Extension(sys, seed, p).integral(state)
    assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_integral_is_flow_invariant_here():
    # direct spot check away from the catalog: L = p^2/2, G = q
    sys, gfield = linear_seed_system()
    seed = ek.ExtensionSeed(field=gfield, meta={"pair": (0.0, 0.5)})
    p = ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1)
    ext = ek.build_extension(sys, seed, p)
    traj = ek.integrate(ext.flow(), np.array([0.7, 0.2, 1.0, 0.4]), 5.0, dt=1e-3)
    rep = ek.conservation_report(traj, ext.conserved_quantities(), stride=20)
    assert traj.truncated is False
    assert max(rep.drifts.values()) <= 1e-7


def test_pole_in_centrifugal_hamiltonian():
    p = ek.ExtensionParams(c=1.0, c0=0.5, C=1.0, m=1, n=1, omega=0.4)
    sys = const_level_system()
    # gamma vanishes at u = pi/2 for c = C = 1
    state = ek.ExtendedState(np.pi / 2, 1.0, np.array([0.0, 0.0]))
    with pytest.raises(ek.PoleError):
        ek.Extension(sys, None, p).hamiltonian(state)


POLE_EVALUATIONS = {
    "profile": lambda ext, state: ek.profile_at(ext.params, state.u),
    "H": lambda ext, state: ext.hamiltonian(state),
    "K": lambda ext, state: ext.integral(state),
    "rhs": lambda ext, state: ext.flow()(state.vector()),
}


@pytest.mark.parametrize("what", sorted(POLE_EVALUATIONS))
def test_centrifugal_pole_is_one_error_wherever_y_vanishes(what):
    # c = 0, C = 1 gives y = -u, which vanishes at u = 0: a pole of omega / y^2
    # for omega != 0, and no pole at all for omega = 0
    sys, gfield = linear_seed_system()
    seed = ek.ExtensionSeed(field=gfield, meta={"pair": (0.0, 0.5)})
    state = ek.ExtendedState(0.0, 0.3, np.array([0.7, -0.2]))
    evaluate = POLE_EVALUATIONS[what]
    ext = ek.build_extension(sys, seed, ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1,
                                                           omega=0.4))
    with pytest.raises(ek.PoleError, match=r"^centrifugal term omega / y\^2 has a pole "
                                           r"at u = 0\.0, where y = 0$"):
        evaluate(ext, state)
    flat = ek.build_extension(sys, seed, ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1))
    assert np.all(np.isfinite(evaluate(flat, state)))


def test_build_extension_rejects_dim_mismatch():
    sys, _ = linear_seed_system()
    g3 = ek.ScalarField(lambda x: x[0], dim=3)
    seed = ek.ExtensionSeed(field=g3, meta={"pair": (1.0, 0.5)})
    p = ek.ExtensionParams(c=1.0, c0=0.5, C=1.0, m=1, n=1)
    with pytest.raises(ek.ExtensionBuildError):
        ek.build_extension(sys, seed, p)


def test_build_extension_rejects_unsupported_pair():
    sys, gfield = linear_seed_system()
    seed = ek.ExtensionSeed(field=gfield, meta={"pair": (2.0, 0.5)})
    p = ek.ExtensionParams(c=1.0, c0=0.5, C=1.0, m=1, n=1)
    with pytest.raises(ek.ExtensionBuildError):
        ek.build_extension(sys, seed, p)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=4))
def test_cofactor_split_reassembles_shift_power(m, n):
    # P G_n + D (X G_n) must equal applying the shift operator m times
    rng = np.random.default_rng(m * 17 + n)
    g, w = rng.uniform(-1.5, 1.5, 2)
    lam, p_u, gam = rng.uniform(-1.0, 1.0, 3)
    P, D = ek.power_coeffs(m, n, m, p_u, gam, lam)
    coef = m / n ** 2
    cur = Pair(g, w)
    for _ in range(m):
        # U = p_u + coef gamma X, with X(value)=xl, X(xl) = -2 n^2 lam value
        cur = Pair(p_u * cur.value + coef * gam * cur.xl,
                        p_u * cur.xl + coef * gam * (-2 * n * n * lam) * cur.value)
    assembled = P * g + D * w
    assert abs(assembled - cur.value) <= 1e-10 * max(1.0, abs(cur.value))


@pytest.mark.parametrize("key, consts, mn", conftest.BRACKET_CASES)
def test_kept_seed_pairs_change_no_bit_of_k(key, consts, mn, monkeypatch):
    # every value of K the bracket stencils give, K_re's and K_im's, equals K
    # on a fresh instance, so with nothing kept, at the same point bit for
    # bit; a stencil evaluates K once at each of its points
    built = ek.instantiate(key)
    params = ek.ExtensionParams(m=mn[0], n=mn[1], **consts)
    ext = ek.build_extension(built.system, built.seed, params)
    seen = []
    parts = extension._integral_from_parts
    monkeypatch.setattr(extension, "_integral_from_parts",
                        lambda *args: seen.append(args) or parts(*args))
    obs = ext.conserved_quantities()
    ks = [name for name in obs if name.startswith("K")]
    structure = ext.structure()
    spec = ek.SampleSpec(((0.3, 1.2), (-1.0, 1.0)) + ek.get_entry(key).default_box,
                         count=4, seed=17, margin=0.1)
    sing = built.singular
    pred = None if sing is None else (lambda vec, margin: sing(vec[2:], margin))
    asked = []
    for vec in ek.sample_points(spec, pred):
        for name in ks:
            ek.fd_bracket_normalized(structure, obs["H"], obs[name], vec)
            asked.append((name, vec, ext._last[1].values(name)))
    assert len(seen) == 4 * 2 * len(vec)
    as_asked = {"K": float, "K_re": lambda z: complex(z).real,
                "K_im": lambda z: complex(z).imag}
    for name, vec, got in asked:
        assert len(got) == 2 * len(vec)
        for p, value in zip(stencil(vec), got):
            fresh = ek.Extension(built.system, built.seed, params)
            want = as_asked[name](fresh.integral(ek.ExtendedState(*p[:2].tolist(), p[2:])))
            assert type(value) is type(want) and value == want, (key, name, p.tolist())


def test_failed_seed_pair_is_not_kept():
    built = ek.instantiate("vortex_opposite")
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(c=0.0, c0=0.5, C=1.0, m=1, n=1))
    obs = ext.conserved_quantities()
    # y2 = 0 lies on the singular set of L and G: the stencil's last point,
    # at y2 = h - h, raises there at every ask, the error K raises there
    # from nothing kept
    h = ek.verify.FD_STEP
    x = np.array([0.7, 0.3, 0.8, -0.4, 0.5, h])
    with pytest.raises(ek.SingularPointError) as per_point:
        observable(ext, "K_re", stencil(x)[-1])
    for _ in range(3):
        with pytest.raises(ek.SingularPointError) as kept:
            ek.fd_gradient(obs["K_re"], x)
        assert str(kept.value) == str(per_point.value)
    # the parts before it are kept, and no part or value of K after it
    assert ext._last[0] == (x.tobytes(), h)
    stencil_kept = ext._last[1]
    parts = [at_base.part for _, _, at_base in stencil_kept.points]
    assert parts[-1] is None and None not in parts[:-1]
    assert stencil_kept.kept == {}
    # so too at one vector: no base part and no K is kept
    state = ek.ExtendedState(0.7, 0.3, np.array([0.8, -0.4, 0.5, 0.0]))
    for _ in range(3):
        with pytest.raises(ek.SingularPointError):
            ext.integral(state)
        assert ext._last[1].part is None and ext._last[1].k is None


def test_an_extension_keeps_its_last_stencil_alone():
    built = ek.instantiate("quartic1")
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=1, n=1))
    obs = ext.conserved_quantities()
    h = ek.verify.FD_STEP
    states = [np.array([0.6, 0.4, 0.1 + 0.01 * i, -0.7]) for i in range(3)]
    for x in states:
        ek.fd_gradient(obs["K"], x)
        assert ext._last[0] == (x.tobytes(), h)
    kept = ext._last[1]
    # H at the same centre and step reads the kept stencil; another step,
    # or another centre, forms a new one in its place
    ek.fd_gradient(obs["H"], states[-1], np.float64(h))
    assert ext._last[1] is kept and set(kept.kept) == {"integral", "K", "H"}
    ek.fd_gradient(obs["H"], states[-1], 2 * h)
    assert ext._last[0] == (states[-1].tobytes(), 2 * h) and ext._last[1] is not kept
    ek.fd_gradient(obs["K"], states[0])
    assert ext._last[0] == (states[0].tobytes(), h)


def test_a_write_to_a_vector_does_not_reach_its_kept_evaluation():
    # H at x keeps x's evaluation, whose base part is formed only when K is
    # asked; a write to x in between must not reach it, so K at a copy of x
    # as it was is the reference's
    built = ek.instantiate("quartic1")
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=3, n=2))
    obs = ext.conserved_quantities()
    x = np.array([0.6, 0.4, 0.9, -0.7])
    was = x.copy()
    obs["H"](x)
    x[2:] = [0.2, 0.3]
    got = obs["K"](was)
    assert ext._last[0] == (was.tobytes(), None)
    assert repr(got) == repr(observable(ext, "K", was))


def test_extension_is_frozen():
    built = ek.instantiate("quartic1")
    ext = ek.build_extension(built.system, built.seed,
                             ek.ExtensionParams(c=1.0, c0=1.0, C=1.0, m=1, n=1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ext.seed = built.seed


# The per-index algorithms the one-pass chains replaced, verbatim but for the
# index checks: the reference the chains must equal bit for bit.
def ref_stream_mul(a: list, b: list) -> list:
    # Leibniz convolution of truncated derivative streams.
    order = min(len(a), len(b))
    out = []
    for k in range(order):
        acc = 0.0
        for i in range(k + 1):
            acc += comb(k, i) * a[i] * b[k - i]
        out.append(acc)
    return out


def ref_recursion_term(n: int, pair: Pair, lam) -> Pair:
    w = -2.0 * lam
    g_ext = []
    for i in range(n + 2):
        base = pair.value if i % 2 == 0 else pair.xl
        g_ext.append(w ** (i // 2) * base)
    g_stream = g_ext[: n + 1]
    xg_stream = g_ext[1 : n + 2]
    cur = list(g_stream)
    for i in range(1, n):
        a = ref_stream_mul(xg_stream, cur)
        b = ref_stream_mul(g_stream, cur[1:])
        cur = [a[k] + b[k] / i for k in range(len(b))]
    return Pair(cur[0], cur[1])


def ref_recursion_term_closed(n: int, pair: Pair, lam) -> Pair:
    pair = Pair(pair.value, pair.xl)
    xg = Pair(pair.xl, -2.0 * lam * pair.value)
    total = None
    for k in range((n - 1) // 2 + 1):
        term = comb(n, 2 * k + 1) * (-2.0 * lam) ** k * pair ** (2 * k + 1) * xg ** (n - 2 * k - 1)
        total = term if total is None else total + term
    return total


def reversed_closed_chain(n_max: int, pair: Pair, lam) -> list:
    # negative control: the closed form with its terms summed from the last k
    pair = Pair(pair.value, pair.xl)
    xg = Pair(pair.xl, -2.0 * lam * pair.value)
    chain = []
    for n in range(1, n_max + 1):
        total = None
        for k in reversed(range((n - 1) // 2 + 1)):
            term = comb(n, 2 * k + 1) * (-2.0 * lam) ** k * pair ** (2 * k + 1) * xg ** (n - 2 * k - 1)
            total = term if total is None else total + term
        chain.append(total)
    return chain


def same_bits(x, y) -> bool:
    # repr is exact for floats and shows the sign of every zero part
    return type(x) is type(y) and x == y and repr(x) == repr(y)


def chain_mismatches(chain_fn, ref_fn, n_max: int, pair: Pair, lam) -> list:
    """Indices n where member n of ``chain_fn``'s chain differs from ``ref_fn(n)``."""
    chain = chain_fn(n_max, pair, lam)
    assert len(chain) == n_max
    bad = []
    for n, got in enumerate(chain, 1):
        ref = ref_fn(n, pair, lam)
        if not (same_bits(got.value, ref.value) and same_bits(got.xl, ref.xl)):
            bad.append(n)
    return bad


_reals = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
                   st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
_numbers = st.one_of(_reals, st.builds(complex, _reals, _reals), _reals.map(np.float64))


@settings(max_examples=300, deadline=None)
@given(_numbers, _numbers, st.one_of(st.sampled_from([0.0, -0.0, np.float64(-0.0)]), _numbers),
       st.integers(min_value=1, max_value=12))
def test_chains_equal_the_per_index_algorithms_bit_for_bit(g, xg, lam, n_max):
    # real, complex and np.float64 entries, mixed freely, so that numpy scalars
    # meet Python numbers as in Extension.integral
    pair = Pair(g, xg)
    assert chain_mismatches(_recursion_chain, ref_recursion_term, n_max, pair, lam) == []
    assert chain_mismatches(_closed_chain, ref_recursion_term_closed, n_max, pair, lam) == []


def test_a_closed_form_summed_in_reverse_fails_the_bit_check():
    rng = np.random.default_rng(4)
    changed = 0
    for g, xg, lam in rng.uniform(-2.0, 2.0, size=(200, 3)).tolist():
        pair = Pair(g, xg)
        assert chain_mismatches(_closed_chain, ref_recursion_term_closed, 8, pair, lam) == []
        changed += len(chain_mismatches(reversed_closed_chain, ref_recursion_term_closed,
                                        8, pair, lam))
    assert changed > 0


def ref_recursion_closed_sweep(n_max, count_real, count_complex, seed) -> dict:
    # the sweep before its one pass per triple, checks left out
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count_real):
        g, xg, lam = rng.uniform(-2.0, 2.0, size=3)
        triples.append((float(g), float(xg), float(lam)))
    for _ in range(count_complex):
        v = rng.uniform(-1.0, 1.0, size=6)
        triples.append((complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5])))
    per_n = {}
    for n in range(1, n_max + 1):
        worst = 0.0
        for g, xg, lam in triples:
            pair = Pair(g, xg)
            a = ref_recursion_term(n, pair, lam)
            b = ref_recursion_term_closed(n, pair, lam)
            worst = max(worst, ek.verify._rel(a.value, b.value), ek.verify._rel(a.xl, b.xl))
        per_n[n] = worst
    return {"max_rel": max(per_n.values()), "per_n": per_n}


def sweep_reprs(res: dict) -> tuple:
    return repr(res["max_rel"]), [(n, repr(v)) for n, v in res["per_n"].items()]


@pytest.mark.parametrize("seed", [7, 13, 99])
@pytest.mark.parametrize("n_max", [1, 3, 8, 12])
def test_recursion_sweep_equals_the_per_index_loop(seed, n_max):
    ref = ref_recursion_closed_sweep(n_max, 200, 50, seed)
    assert sweep_reprs(ek.recursion_closed_sweep(n_max, 200, 50, seed)) == sweep_reprs(ref)


def test_recursion_sweep_with_a_reversed_closed_form_differs(monkeypatch):
    monkeypatch.setattr(ek.verify, "_closed_chain", reversed_closed_chain)
    ref = ref_recursion_closed_sweep(8, 200, 50, 7)
    assert sweep_reprs(ek.recursion_closed_sweep(8, 200, 50, 7)) != sweep_reprs(ref)


# K by parts against the one-pass reference (tests/reference.py): a real and a
# complex seed, each under all four profile regimes.  Extension is built
# directly, so (c, c0) need not be the seed's pair: the comparison is of the
# arithmetic, which holds for any constants.
PART_SEEDS = {"real": "quartic1", "complex": "vortex_opposite"}
PART_REGIMES = {
    "c=0": dict(c=0.0, C=1.0),
    "kappa>0": dict(c=1.0, C=1.0),
    "kappa<0": dict(c=1.0, C=-1.0),
    "C=0": dict(c=1.0, C=0.0),
}


def stencil(vec, h=ek.verify.FD_STEP):
    # the points of fd_gradient's central-difference stencil, in its order
    points = []
    for i in range(len(vec)):
        for step in (h, -h):
            p = vec.copy()
            p[i] += step
            points.append(p)
    return points


def evaluated(fn, *args):
    try:
        return fn(*args)
    except ek.EvaluationError as e:
        return type(e)


def reference(ext, name, p):
    """K, H or L at ``p`` as ``name`` gives it, formed from nothing kept
    (``reference.observable``), or the type of the evaluation error raised."""
    return evaluated(observable, ext, "H" if name == "hamiltonian" else name, p)


def same_values(got, want) -> bool:
    return type(got) is type(want) and got == want


def k_mismatches(ext, visits) -> list:
    """The (name, point) visits whose K, H or L differs from the reference
    in type or value.

    Each visit asks an observable (K, K_re, K_im, H or L), or ``integral``
    or ``hamiltonian`` of an ExtendedState, at one point, or, for a name
    "stencil <observable>", the observable's values at the points of
    fd_gradient's stencil about the point (``at_stencil``); the reference
    forms each value from nothing kept.  A stencil must give the
    reference's values, or raise the error of its first point that raises.
    """
    obs = ext.conserved_quantities()
    bad = []
    for name, p in visits:
        if name.startswith("stencil "):
            name = name.split()[1]
            got = evaluated(obs[name].at_stencil, p, ek.verify.FD_STEP)
            want = []
            for q in stencil(p):
                w = reference(ext, name, q)
                if isinstance(w, type):
                    want = w
                    break
                want.append(w)
            ok = (got is want if isinstance(want, type) else type(got) is list
                  and len(got) == len(want) and all(map(same_values, got, want)))
        else:
            if name in ("integral", "hamiltonian"):
                got = evaluated(getattr(ext, name), ek.ExtendedState(*p[:2].tolist(), p[2:]))
            else:
                got = evaluated(obs[name], p)
            ok = same_values(got, reference(ext, name, p))
        if not ok:
            bad.append((name, p.tolist()))
    return bad


def part_case(kind, regime, m, n, omega, offset):
    built = ek.instantiate(PART_SEEDS[kind])
    params = ek.ExtensionParams(c0=0.5, m=m, n=n, omega=omega, offset=offset,
                                **PART_REGIMES[regime])
    return built, ek.Extension(built.system, built.seed, params)


def part_visits(kind, built, ext, seed, centres, shuffle):
    names = ["K_re", "K_im"] if kind == "complex" else ["K"]
    names += ["integral", "H", "hamiltonian", "L"]
    centre_points = conftest.sample_extended(PART_SEEDS[kind], centres, seed, margin=0.1,
                                             system=built)
    visits = [(name, p) for c in centre_points for p in stencil(c) for name in names]
    # K's stencil first, so H's and L's read the L values of its base parts
    visits += [(f"stencil {name}", c) for c in centre_points
               for name in names if name[0] in "KHL"]
    visits += visits  # a second pass reads what the first one kept
    if shuffle:
        np.random.default_rng(seed).shuffle(visits)
    return visits


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PART_SEEDS)), st.sampled_from(sorted(PART_REGIMES)),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.25]),
       st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=3),
       st.booleans())
def test_k_by_parts_is_the_reference_bit_for_bit(kind, regime, m, n, omega, offset, seed,
                                                 centres, shuffle):
    # up to three stencils about different centres, so a kept stencil is
    # dropped and formed again on the way
    built, ext = part_case(kind, regime, m, n, omega, offset)
    assert k_mismatches(ext, part_visits(kind, built, ext, seed, centres, shuffle)) == []


def stale_lam():
    # a faulty base part: the chain at this base point, but lam kept from the
    # first base point asked
    first = []

    def base_part(self, base):
        pair, lval = seed_pair(self.system, self.seed.field, base)
        if not first:
            first.append(self.params.c * lval + self.params.c0)
        r = extension._chain_indices(self.params)[1]
        return recursion_term_closed(r, pair, first[0]), first[0], lval

    return base_part


def keyed_on_first_coordinate():
    # a faulty base part: kept by the first base coordinate alone
    memo = {}

    def base_part(self, base):
        key = np.asarray(base, dtype=float)[:1].tobytes()
        if key not in memo:
            pair, lval = seed_pair(self.system, self.seed.field, base)
            lam = self.params.c * lval + self.params.c0
            memo[key] = recursion_term_closed(extension._chain_indices(self.params)[1],
                                              pair, lam), lam, lval
        return memo[key]

    return base_part


def stale_l():
    # a faulty base part: chain and lam right, but L kept from the first base
    # point asked, so only H and L, which read L from K's base parts, are wrong
    first = []

    def base_part(self, base):
        pair, lval = seed_pair(self.system, self.seed.field, base)
        if not first:
            first.append(lval)
        lam = self.params.c * lval + self.params.c0
        r = extension._chain_indices(self.params)[1]
        return recursion_term_closed(r, pair, lam), lam, first[0]

    return base_part


@pytest.mark.parametrize("faulty", [stale_lam, keyed_on_first_coordinate, stale_l])
@pytest.mark.parametrize("kind", sorted(PART_SEEDS))
def test_a_base_part_kept_wrongly_fails_the_bit_check(faulty, kind, monkeypatch):
    built, ext = part_case(kind, "kappa>0", 3, 2, 0.0, 0.25)
    visits = part_visits(kind, built, ext, 5, 2, False)
    assert k_mismatches(ext, visits) == []
    monkeypatch.setattr(ek.Extension, "_base_part", faulty())
    built, ext = part_case(kind, "kappa>0", 3, 2, 0.0, 0.25)
    assert k_mismatches(ext, visits) != []
