"""Poisson structures, derivations along the flow, structure extension."""
import math
import re

import numpy as np
import pytest

import extkit as ek
from extkit import jets
from extkit.poisson import apply_xl, apply_xl2, base_flow, bracket, jacobi_residual


def harmonic():
    f = ek.ScalarField(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2), dim=2)
    return ek.HamiltonianSystem(ek.canonical_structure(2), f)


def test_canonical_block_signs():
    m = ek.canonical_structure(4).matrix(np.zeros(4))
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = 1.0
    expect[2, 0] = expect[3, 1] = -1.0
    np.testing.assert_array_equal(m, expect)


def test_canonical_bracket_of_coordinates():
    st = ek.canonical_structure(2)
    q = ek.ScalarField(lambda x: x[0], dim=2)
    p = ek.ScalarField(lambda x: x[1], dim=2)
    x = np.array([0.3, -1.2])
    assert bracket(st, q, p, x) == 1.0
    assert bracket(st, p, q, x) == -1.0
    assert bracket(st, q, q, x) == 0.0


def test_odd_canonical_dim_rejected():
    with pytest.raises(ValueError):
        ek.canonical_structure(3)


def test_antisymmetry_enforced_for_const():
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        ek.PoissonStructure(2, const=bad)


ROTATION = [[0.0, 1.0], [-1.0, 0.0]]


@pytest.mark.parametrize("backing", [{}, {"entries": lambda co: ROTATION,
                                          "const": np.array(ROTATION)}])
def test_structure_needs_exactly_one_backing(backing):
    with pytest.raises(ValueError, match="exactly one"):
        ek.PoissonStructure(2, **backing)


def test_ham_vector_field_harmonic():
    sys = harmonic()
    rhs = base_flow(sys)
    np.testing.assert_allclose(rhs(np.array([1.0, 2.0])), [2.0, -1.0])


def test_apply_xl_linear_growth():
    sys = harmonic()
    f = ek.ScalarField(lambda x: x[0], dim=2)
    # dq/dt = p
    assert apply_xl(sys, f, np.array([0.7, -0.3])) == -0.3


def test_apply_xl2_vs_nested_fd():
    sys = harmonic()
    f = ek.ScalarField(lambda x: x[0] ** 3 * x[1] + jets.sin(x[1]), dim=2)
    x = np.array([0.8, 0.5])
    got = apply_xl2(sys, f, x)

    rhs = base_flow(sys)

    def xlf(pt):
        j = f.jet1(pt)
        return float(np.real(j.grad @ rhs(pt)))

    h = 1e-5
    num = 0.0
    grad = np.zeros(2)
    for i in range(2):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        grad[i] = (xlf(xp) - xlf(xm)) / (2 * h)
    num = grad @ rhs(x)
    assert abs(got - num) <= 1e-6 * max(1.0, abs(num))


def plane_entries(co):
    a = co[0] * co[1]
    return [[0.0, a], [-a, 0.0]]


def test_nonconstant_structure_gradients():
    st = ek.PoissonStructure(2, entries=plane_entries)
    x = np.array([1.5, -2.0])
    m, dm = st.matrix_with_grads(x)
    assert m[0, 1] == -3.0
    assert m[1, 0] == 3.0
    np.testing.assert_allclose(dm[0][0, 1], -2.0)  # d(x1 x2)/dx1 at x2=-2
    np.testing.assert_allclose(dm[1][0, 1], 1.5)


@pytest.mark.parametrize("skew", [-1.0, 1.0 + 1e-13])
def test_antisymmetry_enforced_for_entry_rules(skew):
    # pi_21 = skew * x1 x2 against pi_12 = -x1 x2: symmetric, or off by 1e-13
    def entries(co):
        a = co[0] * co[1]
        return [[0.0, -a], [skew * a, 0.0]]

    st = ek.PoissonStructure(2, entries=entries, label="skewed")
    x = np.array([1.5, -2.0])
    with pytest.raises(ValueError, match="bivector skewed is not antisymmetric within 1e-14"):
        st.matrix(x)
    with pytest.raises(ValueError, match="bivector skewed is not antisymmetric within 1e-14"):
        st.matrix_with_grads(x)
    # control: the antisymmetric rule passes both
    fine = ek.PoissonStructure(2, entries=lambda co: [[0.0, -co[0] * co[1]], [co[0] * co[1], 0.0]])
    fine.matrix(x), fine.matrix_with_grads(x)


def test_entry_rule_assembly_matches_closed_form():
    # the rigid body: pi_ij = -eps_ijk m_k, so d_k pi_ij = -eps_ijk
    st = ek.instantiate("euler_top").system.structure
    x = np.array([0.5, -0.9, 0.7])
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    m, dm = st.matrix_with_grads(x)
    np.testing.assert_array_equal(st.matrix(x), m)
    np.testing.assert_array_equal(m, -np.einsum("ijk,k->ij", eps, x))
    np.testing.assert_array_equal(dm, -eps.transpose(2, 0, 1))
    assert m.dtype == dm.dtype == np.float64 and dm.flags.c_contiguous


def test_jacobi_residual_zero_in_dim_two():
    st = ek.PoissonStructure(2, entries=plane_entries)
    assert jacobi_residual(st, np.array([0.4, 1.1])) <= 1e-9


def test_jacobi_residual_catches_violation():
    # pi_12 = x3, pi_13 = x1 fails the cyclic identity
    def entries(co):
        return [[0.0, co[2], co[0]],
                [-co[2], 0.0, 0.0],
                [-co[0], 0.0, 0.0]]

    st = ek.PoissonStructure(3, entries=entries)
    assert jacobi_residual(st, np.array([1.0, 2.0, 3.0])) > 0.1


def test_extend_structure_constant():
    st = ek.canonical_structure(2)
    ext = ek.extend_structure(st)
    m = ext.matrix(np.zeros(4))
    assert m[0, 1] == 1.0 and m[1, 0] == -1.0
    np.testing.assert_array_equal(m[2:, 2:], st.matrix(np.zeros(2)))
    assert np.all(m[0:2, 2:] == 0.0)


def test_extend_structure_entries():
    st = ek.PoissonStructure(2, entries=plane_entries)
    ext = ek.extend_structure(st)
    x = np.array([9.0, 9.0, 1.5, -2.0])  # u, p_u prepended
    m = ext.matrix(x)
    assert m[0, 1] == 1.0
    assert m[2, 3] == -3.0
    # gradients must live in the extended index space
    _, dm = ext.matrix_with_grads(x)
    assert dm.shape == (4, 4, 4)
    np.testing.assert_allclose(dm[2][2, 3], -2.0)
    np.testing.assert_allclose(dm[0][2, 3], 0.0)


def test_system_dim_consistency():
    f = ek.ScalarField(lambda x: x[0], dim=3)
    with pytest.raises(ValueError):
        ek.HamiltonianSystem(ek.canonical_structure(2), f)


@pytest.mark.parametrize("rows", [[[0.0, math.nan], [1.0, 0.0]], [[math.nan, 1.0], [-1.0, 0.0]]],
                         ids=["nan-off-diagonal", "nan-first"])
def test_antisymmetry_check_rejects_a_nan_entry(rows):
    # builtin max drops a NaN that does not come first, and nan > tol is false
    # when it does: both once passed the check
    st = ek.PoissonStructure(2, entries=lambda co: rows, label="holed")
    x = np.array([0.5, 0.25])
    needle = "bivector holed is not antisymmetric within 1e-14"
    with pytest.raises(ValueError, match=needle):
        st.matrix(x)
    with pytest.raises(ValueError, match=needle):
        st.matrix_with_grads(x)
    with pytest.raises(ValueError, match=needle):
        st.contract(x.tolist(), [1.0, 2.0])
    with pytest.raises(ValueError, match="bivector  is not antisymmetric"):
        ek.PoissonStructure(2, const=np.array(rows))


@pytest.mark.parametrize("rows", [[[0.0]], [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
                                  [[0.0, 1.0, 0.0], [-1.0]]],
                         ids=["1x1", "2x3", "ragged"])
def test_entry_rows_of_the_wrong_shape_are_refused_first(rows):
    # the shape is tested before antisymmetry, which a 1 x 1 rule passes and
    # a 2 x 3 rule fails for the wrong reason
    st = ek.PoissonStructure(2, entries=lambda co: rows, label="cramped")
    system = ek.HamiltonianSystem(st, ek.ScalarField(lambda co: co[0] * co[1], 2))
    lengths = [len(row) for row in rows]
    needle = re.escape(f"bivector cramped has rows of lengths {lengths}, not 2 rows of 2")
    x = np.array([0.5, 0.25])
    for route in (st.matrix, st.matrix_with_grads, base_flow(system)):
        with pytest.raises(ValueError, match=needle):
            route(x)


@pytest.mark.parametrize("rows", [[0.0, 1.0], 1.0], ids=["flat-row", "scalar"])
def test_entry_rows_that_are_no_sequences_are_refused_by_shape(rows):
    # a flat row once escaped as TypeError ("'float' object is not iterable")
    st = ek.PoissonStructure(2, entries=lambda co: rows, label="flat")
    system = ek.HamiltonianSystem(st, ek.ScalarField(lambda co: co[0] * co[1], 2))
    needle = "bivector flat has a row that is not a sequence, not 2 rows of 2"
    for route in (st.matrix, st.matrix_with_grads, base_flow(system)):
        with pytest.raises(ValueError, match=needle):
            route(np.array([0.1, 0.2]))


def test_flat_constant_bivector_is_refused_by_shape():
    with pytest.raises(ValueError, match=re.escape("constant bivector flat has the wrong shape "
                                                   "(2,), not (2, 2)")):
        ek.PoissonStructure(2, const=[0.0, 1.0], label="flat")


INFINITE_ROWS = {"inf-off-diagonal": [[0.0, math.inf], [1.0, 0.0]],
                 "antisymmetric-inf-pair": [[0.0, math.inf], [-math.inf, 0.0]]}
ANTISYM_ROUTES = {
    "matrix": lambda st, x: st.matrix(x),
    "contract": lambda st, x: st.contract(x.tolist(), [1.0, 2.0]),
    "matrix_with_grads": lambda st, x: st.matrix_with_grads(x),
    "const": lambda st, x: ek.PoissonStructure(2, const=np.array(st.entries(x)), label="blown"),
}


@pytest.mark.parametrize("rows", INFINITE_ROWS.values(), ids=INFINITE_ROWS)
@pytest.mark.parametrize("route", ANTISYM_ROUTES)
def test_antisymmetry_check_rejects_an_infinite_entry(route, rows):
    # an infinite entry made the bound 1e-14 max |m| infinite, and |inf + 1| = inf
    # held it: matrix and matrix_with_grads handed inf on, and contract gave [inf, 1.0]
    st = ek.PoissonStructure(2, entries=lambda co: rows, label="blown")
    with pytest.raises(ValueError, match="bivector blown is not antisymmetric within 1e-14"):
        ANTISYM_ROUTES[route](st, np.array([0.5, 0.25]))


@pytest.mark.parametrize("route", ANTISYM_ROUTES)
def test_antisymmetry_tolerance_still_scales_with_the_largest_finite_entry(route):
    x = np.array([0.5, 0.25])
    big = ek.PoissonStructure(2, entries=lambda co: [[0.0, 1e300], [-1e300 * (1 + 5e-15), 0.0]],
                              label="big")
    ANTISYM_ROUTES[route](big, x)
    off = ek.PoissonStructure(2, entries=lambda co: [[0.0, 1.0], [-1.0 - 2e-14, 0.0]],
                              label="blown")
    with pytest.raises(ValueError, match="not antisymmetric"):
        ANTISYM_ROUTES[route](off, x)


def test_spectral_norm_of_a_constant_bivector_is_computed_once(monkeypatch):
    st = ek.canonical_structure(4)
    want = np.linalg.norm(st.const, 2)
    norms = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        norms.append(kwargs.get("ord", args[1] if len(args) > 1 else None))
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    f = ek.ScalarField(lambda co: co[0] * co[2] + co[1], 4)
    g = ek.ScalarField(lambda co: co[3] * co[3] - co[1] * co[0], 4)
    for x in ([0.1, 0.2, 0.3, 0.4], [0.5, -0.6, 0.7, 0.8], [1.0, 0.5, -0.25, 2.0]):
        ek.fd_bracket_normalized(st, f, g, np.array(x))
    assert norms.count(2) == 1
    assert st.spectral_norm(st.const) == want
    # an entry rule's bivector changes from point to point: its norm is taken each call
    rule = ek.PoissonStructure(2, entries=plane_entries)
    for x in ([1.5, -2.0], [0.5, 3.0]):
        m = rule.matrix(np.array(x))
        assert rule.spectral_norm(m) == norm(m, 2)
