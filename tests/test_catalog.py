"""Catalog entries: frozen values, defining-identity residuals, parameters."""
import math

import numpy as np
import pytest

import extkit as ek
import extkit.catalog as cat
from extkit.poisson import apply_xl, base_flow, jacobi_residual

SEEDED = ["quartic1", "quartic2a", "quartic2b", "square_polar",
          "vortex_equal", "vortex_opposite"]


def test_entry_listing_stable():
    assert ek.entry_ids() == SEEDED + ["lotka_volterra", "euler_top"]


def test_quartic1_level_frozen():
    # defaults C1=1, C2=0, C3=0, c=c0=1, f=0 at (q,p)=(1,1):
    # bracket = 16 + 2 = 18, L = 18^2/256 - 1 = 17/64
    b = ek.instantiate("quartic1")
    assert b.system.hamiltonian.value(np.array([1.0, 1.0])) == 17.0 / 64.0
    assert b.seed.field.value(np.array([1.0, 1.0])) == 1.0


def test_quartic2a_level_frozen():
    # defaults C3=1: f(1) = 1/16 - 1/2 = -7/16,
    # L = 1 - 7/16 + 49/1024 - 1 = -399/1024
    b = ek.instantiate("quartic2a")
    got = b.system.hamiltonian.value(np.array([1.0, 1.0]))
    assert abs(got - (-399.0 / 1024.0)) < 1e-15
    assert b.seed.field.value(np.array([1.0, 1.0])) == 1.0


@pytest.mark.parametrize("key", SEEDED)
def test_seeded_entries_satisfy_identity(key):
    b = ek.instantiate(key)
    sd = b.seed
    c, c0 = sd.meta["pair"]
    spec = ek.SampleSpec(intervals=ek.get_entry(key).default_box,
                         count=40, seed=501, margin=0.15)
    rep = ek.pde_residual(b.system, sd.field, c, c0, spec, singular=b.singular)
    assert len(rep.residuals) == 40
    assert rep.max_residual <= 1e-7, (key, rep.max_residual)


@pytest.mark.parametrize("key", ek.entry_ids())
def test_entry_declarations_agree_with_the_built_system(key):
    entry, built = ek.get_entry(key), ek.instantiate(key)
    assert entry.has_seed == bool(built.seeds)
    assert entry.dim == built.system.dim == len(entry.default_box)
    assert sorted(entry.csv_order) == list(range(entry.dim))

    def build(seed, c, c0):
        params = ek.ExtensionParams(c=c, c0=c0, C=1.0, m=1, n=1)
        return ek.build_extension(built.system, seed, params)

    for seed in built.seeds:
        pair = seed.meta["pair"]
        build(seed, *pair)
        for i, v in enumerate(pair):
            if v != 0:
                off = list(pair)
                off[i] = v * (1 + 1e-9)
                with pytest.raises(ek.ExtensionBuildError):
                    build(seed, *off)


def test_quartic2b_build_gate_reported():
    b = ek.instantiate("quartic2b")
    assert b.seed.verified is True


def test_vortex_equal_radius_identity():
    # Q1 = k^2 exp(-L / (alpha k^2)), a direct consequence of the level form
    b = ek.instantiate("vortex_equal")
    pars = b.params
    k, al = pars["k"], pars["alpha"]
    rng = np.random.default_rng(88)
    for _ in range(50):
        x = np.array([rng.uniform(0.2, 1.5), rng.uniform(-1, 1),
                      rng.uniform(0.2, 1.5), rng.uniform(-1, 1)])
        q1 = 4 * k * k * x[0] ** 2 + x[2] ** 2
        lv = b.system.hamiltonian.value(x)
        assert abs(q1 - k * k * math.exp(-lv / (al * k * k))) <= 1e-12 * q1


def test_vortex_opposite_radius_identity():
    b = ek.instantiate("vortex_opposite")
    pars = b.params
    k, al = pars["k"], pars["alpha"]
    rng = np.random.default_rng(89)
    for _ in range(50):
        x = np.array([rng.uniform(0.2, 1.5), rng.uniform(-1, 1),
                      rng.uniform(-1, 1), rng.uniform(0.3, 1.5)])
        q2 = 4 * k * k * x[0] ** 2 + x[3] ** 2
        lv = b.system.hamiltonian.value(x)
        assert abs(q2 - k * k * math.exp(lv / (al * k * k))) <= 1e-12 * q2


def test_vortex_conserved_coordinates():
    # X1t and Y2t generate the opposite-pair translation symmetries
    b = ek.instantiate("vortex_opposite")
    x1 = b.system.observables["X1t"]
    y2 = b.system.observables["Y2t"]
    rng = np.random.default_rng(90)
    for _ in range(20):
        x = np.array([rng.uniform(0.2, 1.5), rng.uniform(-1, 1),
                      rng.uniform(-1, 1), rng.uniform(0.3, 1.5)])
        assert abs(apply_xl(b.system, x1, x)) <= 1e-12
        assert abs(apply_xl(b.system, y2, x)) <= 1e-12


def test_lotka_volterra_flow_is_classic():
    b = ek.instantiate("lotka_volterra", {"a": 2.0, "b": 0.5, "d": 0.3, "g": 1.2})
    rhs = base_flow(b.system)
    x = np.array([1.3, 0.7])
    expect = [2.0 * 1.3 - 0.5 * 1.3 * 0.7, 0.3 * 1.3 * 0.7 - 1.2 * 0.7]
    np.testing.assert_allclose(rhs(x), expect, rtol=1e-12)


def test_lotka_volterra_exposes_no_seed():
    b = ek.instantiate("lotka_volterra")
    assert b.seeds == []
    with pytest.raises(ek.CatalogError):
        _ = b.seed


def test_euler_flow_is_rigid_body():
    b = ek.instantiate("euler_top")
    rhs = base_flow(b.system)
    m = np.array([0.4, -0.7, 1.1])
    om = m / np.array([3.0, 2.0, 1.0])
    np.testing.assert_allclose(rhs(m), np.cross(m, om), rtol=1e-12, atol=1e-14)


def test_euler_casimir_and_level_invariant():
    b = ek.instantiate("euler_top")
    mfun = b.system.observables["M"]
    rng = np.random.default_rng(91)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 3)
        assert abs(apply_xl(b.system, mfun, x)) <= 1e-12
        assert abs(apply_xl(b.system, b.system.hamiltonian, x)) <= 1e-12


def test_nonconstant_bivectors_satisfy_jacobi():
    blv = ek.instantiate("lotka_volterra")
    be = ek.instantiate("euler_top")
    rng = np.random.default_rng(92)
    for _ in range(10):
        assert jacobi_residual(blv.system.structure,
                               rng.uniform(0.3, 3.0, 2)) <= 1e-9
        assert jacobi_residual(be.system.structure,
                               rng.uniform(-1.5, 1.5, 3)) <= 1e-9


def test_euler_local_seed_domain_guard():
    b = ek.instantiate("euler_top")
    field = b.meta["local_seed_builder"](0.0, -0.5, branch=1)
    # m2 = m3 = 0 puts the level pair on the boundary
    with pytest.raises(ek.SingularPointError):
        field.value(np.array([0.5, 0.0, 0.0]))
    v = field.value(np.array([0.2, 0.8, 0.6]))
    assert np.isfinite(v) and v != 0.0
    # the guards read jet values, so the jet path refuses the same points
    with pytest.raises(ek.SingularPointError):
        field.jet2(np.array([0.5, 0.0, 0.0]))
    assert field.jet2(np.array([0.2, 0.8, 0.6])).value == pytest.approx(v, rel=1e-14)


def test_carlson_rf_closed_forms():
    # x R_F(1 - x^2, 1, 1) = asin x and x R_F(1 - x^2, 1 - x^2, 1) = atanh x
    for x in np.linspace(-0.99, 0.99, 40):
        x = float(x)
        asin = x * cat._carlson_rf(1 - x * x, 1.0, 1.0)
        atanh = x * cat._carlson_rf(1 - x * x, 1 - x * x, 1.0)
        assert abs(asin - math.asin(x)) <= 2e-15 * abs(math.asin(x))
        assert abs(atanh - math.atanh(x)) <= 2e-15 * abs(math.atanh(x))


def test_carlson_rf_matches_mpmath_ellipf():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(400):
        # shape modulus over (-1, 0) and over [1e-3, 1e6], as the seed meets it
        kap = -rng.uniform(0.0, 0.99) if i % 4 == 0 else 10 ** rng.uniform(-3.0, 6.0)
        x = rng.uniform(-0.999, 0.999)
        got = x * cat._carlson_rf(1 - x * x, 1 + kap * x * x, 1.0)
        with mpmath.workdps(30):
            want = float(mpmath.ellipf(mpmath.asin(x), -kap))
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-14


CHECK_KN_BOX = ((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2))


def test_jet1_and_jet2_agree_bitwise_on_every_catalog_field(built):
    # one chain rule per function: first-order jets round like the value
    # and gradient parts of second-order ones
    for key, b in built.items():
        fields = [b.system.hamiltonian, *b.system.observables.values(),
                  *(s.field for s in b.seeds)]
        box = ek.get_entry(key).default_box
        if key == "euler_top":
            fields.append(b.meta["local_seed_builder"](0.0, -0.5))
            box = CHECK_KN_BOX
        pts = ek.sample_points(ek.SampleSpec(box, 30, seed=5, margin=0.1), b.singular)
        for f in fields:
            kept = 0
            for x in pts:
                try:
                    j1, j2 = f.jet1(x), f.jet2(x)
                except ek.EvaluationError:
                    continue
                kept += 1
                assert j1.value == j2.value, f.label
                assert np.array_equal(j1.grad, j2.grad), f.label
            assert kept >= 20, f.label


def _catalog_fields(built, count, seed):
    """(field, sample points) for every catalog field, the local seed included."""
    out = []
    for key, b in built.items():
        fields = [b.system.hamiltonian, *b.system.observables.values(),
                  *(s.field for s in b.seeds)]
        box = ek.get_entry(key).default_box
        if key == "euler_top":
            fields.append(b.meta["local_seed_builder"](0.0, -0.5))
            box = CHECK_KN_BOX
        pts = ek.sample_points(ek.SampleSpec(box, count, seed=seed, margin=0.1), b.singular)
        out += [(f, pts) for f in fields]
    return out


def test_value_and_jet_value_agree_bitwise_on_every_catalog_field(built):
    # true division on jets: the value and jet paths run the same float
    # operations in the same order
    for f, pts in _catalog_fields(built, 100, seed=11):
        kept = 0
        for x in pts:
            try:
                v, j = f.value(x), f.jet1(x)
            except ek.EvaluationError:
                continue
            kept += 1
            assert v == j.value, (f.label, x.tolist())
        assert kept >= 80, f.label


def test_gradient_contract_at_the_field_boundary(built):
    # consumers do pi @ grad, einsum on it, dm[:, i, j] = grad and v @ hess @ v
    for f, pts in _catalog_fields(built, 30, seed=5):
        kept = 0
        for x in pts:
            try:
                j1, j2 = f.jet1(x), f.jet2(x)
            except ek.EvaluationError:
                continue
            kept += 1
            dtype = np.complex128 if isinstance(j1.value, complex) else np.float64
            for g in (j1.grad, j2.grad):
                assert type(g) is np.ndarray and g.shape == (f.dim,), f.label
                assert g.dtype == dtype, f.label
            assert type(j2.hess) is np.ndarray and j2.hess.shape == (f.dim, f.dim), f.label
            assert j2.hess.dtype == dtype, f.label
        assert kept >= 20, f.label
        if f.codomain == "real":
            assert dtype == np.float64, f.label


def test_function_registry_poly_ascending():
    f = cat.build_function({"kind": "poly", "coeffs": [2.0, -1.0, 0.5]})
    assert f(0.0) == 2.0
    assert f(2.0) == 2.0 - 2.0 + 0.5 * 4.0


def test_function_registry_trig():
    f = cat.build_function({"kind": "sin", "amplitude": 2.0,
                            "frequency": 3.0, "phase": 0.5})
    assert abs(f(0.2) - 2.0 * math.sin(0.2 * 3.0 + 0.5)) < 1e-15


def test_function_registry_rejects_unknown_kind():
    with pytest.raises(ek.CatalogError):
        cat.build_function({"kind": "spline", "coeffs": [1.0]})


def test_function_registry_rejects_stray_keys():
    with pytest.raises(ek.CatalogError):
        cat.build_function({"kind": "const", "value": 1.0, "slope": 2.0})


def test_unknown_entry_rejected():
    with pytest.raises(ek.CatalogError, match="no_such"):
        ek.instantiate("no_such")


def test_unknown_parameter_names_entry():
    with pytest.raises(ek.CatalogError, match="quartic1"):
        ek.instantiate("quartic1", {"C9": 1.0})


def test_parameter_check_message_names_parameter():
    with pytest.raises(ek.CatalogError, match="C1"):
        ek.instantiate("quartic1", {"C1": 0.0})


def test_null_vortex_seed_rejected():
    with pytest.raises(ek.CatalogError):
        ek.instantiate("vortex_equal", {"F1": 0.0, "F2": 0.0})


def test_quartic2a_pole_predicate():
    b = ek.instantiate("quartic2a", {"C1": 1.0, "C2": -1.0})
    assert b.singular(np.array([1.0, 0.3]), 0.05)
    assert not b.singular(np.array([2.0, 0.3]), 0.05)


def test_square_polar_identity_with_trig_profile():
    # swap in a bounded profile for the free function and re-gate
    b = ek.instantiate("square_polar",
                       {"F": {"kind": "cos", "amplitude": 0.7, "frequency": 1.3}})
    sd = b.seed
    c, c0 = sd.meta["pair"]
    spec = ek.SampleSpec(intervals=ek.get_entry("square_polar").default_box,
                         count=30, seed=74, margin=0.15)
    rep = ek.pde_residual(b.system, sd.field, c, c0, spec, singular=b.singular)
    assert rep.max_residual <= 1e-7


def test_quartic1_identity_with_poly_profile():
    b = ek.instantiate("quartic1", {"f": {"kind": "poly", "coeffs": [0.3, -0.2, 0.1]}})
    sd = b.seed
    c, c0 = sd.meta["pair"]
    spec = ek.SampleSpec(intervals=ek.get_entry("quartic1").default_box,
                         count=30, seed=75, margin=0.1)
    rep = ek.pde_residual(b.system, sd.field, c, c0, spec, singular=b.singular)
    assert rep.max_residual <= 1e-7


@pytest.mark.parametrize("key, name", [("quartic1", "C1"), ("quartic1", "c0"),
                                       ("vortex_equal", "alpha"), ("vortex_equal", "F1"),
                                       ("vortex_opposite", "F2")])
def test_boolean_number_parameters_rejected(key, name):
    # bool is an int subclass, but never a meaningful constant
    with pytest.raises(ek.CatalogError, match=name):
        ek.instantiate(key, {name: True})


QUARTIC2B_PARAMS = [{}, {"C1": 2.0, "C2": 0.5}, {"C1": -1.5, "C2": 1.0, "C3": 0.3},
                    {"c": 2.0, "c0": -0.5}]


@pytest.mark.parametrize("params", QUARTIC2B_PARAMS)
def test_quartic2b_build_gate_fails_when_l_has_c0_ten_percent_off(params, monkeypatch):
    assert ek.instantiate("quartic2b", params).seed.verified is True
    fields = cat._quartic2b_fields

    def off(p):
        lfun, _ = fields({**p, "c0": 1.1 * p["c0"]})
        return lfun, fields(p)[1]

    monkeypatch.setattr(cat, "_quartic2b_fields", off)
    assert ek.instantiate("quartic2b", params).seed.verified is False
