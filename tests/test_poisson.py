"""Poisson structures, derivations along the flow, structure extension."""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import jets
from extkit.poisson import apply_xl2, base_flow, jacobi_residual
from reference import apply_xl, bracket, check_antisym


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


def jacobi_left_to_right(structure, x, order=lambda d: range(d)):
    """The residual with each sum over l added from 0.0 in ``order(d)``
    (left to right by default), one product at a time."""
    pi, dpi = structure.matrix_with_grads(x)
    d = structure.dim

    def a(i, j, k):
        total = 0.0
        for m in order(d):
            total = total + float(pi[i, m]) * float(dpi[m, j, k])
        return total

    return max(abs((a(i, j, k) + a(k, i, j)) + a(j, k, i))
               for i, j, k in itertools.product(range(d), repeat=3))


def dense_rule(seed, d=4):
    """An antisymmetric entry rule linear in the coordinates, every entry
    above the diagonal nonzero: not Poisson, so its residual is no zero."""
    coef = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(d, d, d)).tolist()

    def entries(co):
        rows = [[0.0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                rows[i][j] = sum(c * v for c, v in zip(coef[i][j], co))
                rows[j][i] = -rows[i][j]
        return rows

    return ek.PoissonStructure(d, entries=entries)


def test_jacobi_residual_sums_each_contraction_left_to_right(built):
    rng = np.random.default_rng(8)
    const = rng.uniform(-1.0, 1.0, size=(4, 4))
    cases = [(built["euler_top"].system.structure, ((-1.0, 1.0),) * 3),
             (ek.extend_structure(built["lotka_volterra"].system.structure), ((0.2, 2.0),) * 4),
             (dense_rule(3), ((-2.0, 2.0),) * 4),
             (ek.PoissonStructure(4, const=const - const.T), ((-1.0, 1.0),) * 4)]
    reordered = 0
    for structure, box in cases:
        lo, hi = np.array(box).T
        for x in lo + rng.uniform(size=(30, len(lo))) * (hi - lo):
            got = jacobi_residual(structure, x)
            want = jacobi_left_to_right(structure, x)
            assert type(got) is float and repr(got) == repr(want), (structure.label, x)
            # control: the same sums from the last l give other bits somewhere
            reordered += want != jacobi_left_to_right(structure, x, lambda d: reversed(range(d)))
    assert reordered > 0


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


def test_extend_structure_entries_is_the_block_sum_on_a_3d_rule():
    # on a 2-d base a column j - 2 reads j + 2 modulo 4; on euler_top's 3-d
    # rule every entry of the extended bivector and of its gradients must sit
    # in the block sum (0 1; -1 0) + pi
    st = ek.instantiate("euler_top").system.structure
    ext = ek.extend_structure(st)
    x = np.array([0.4, -1.3, 0.5, -0.9, 0.7])
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    pi, dpi = st.matrix_with_grads(x[2:])
    want = np.zeros((5, 5))
    want[:2, :2] = block
    want[2:, 2:] = pi
    assert ext.matrix(x).tolist() == want.tolist()
    m, dm = ext.matrix_with_grads(x)
    assert m.tolist() == want.tolist()
    want_d = np.zeros((5, 5, 5))
    want_d[2:, 2:, 2:] = dpi
    assert dm.shape == want_d.shape and dm.tolist() == want_d.tolist()


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
    # a sparse constant's norm is its largest |entry|, in closed form; a dense
    # 4 x 4 constant has none and takes LAPACK's, once
    norms = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        norms.append(kwargs.get("ord", args[1] if len(args) > 1 else None))
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    dense = np.array([[0.0, 1.0, 2.0, -0.5], [-1.0, 0.0, 0.75, 3.0],
                      [-2.0, -0.75, 0.0, 1.25], [0.5, -3.0, -1.25, 0.0]])
    f = ek.ScalarField(lambda co: co[0] * co[2] + co[1], 4)
    g = ek.ScalarField(lambda co: co[3] * co[3] - co[1] * co[0], 4)
    for st_, lapack_calls in ((ek.canonical_structure(4), 0),
                              (ek.PoissonStructure(4, const=dense), 1)):
        for x in ([0.1, 0.2, 0.3, 0.4], [0.5, -0.6, 0.7, 0.8], [1.0, 0.5, -0.25, 2.0]):
            ek.fd_bracket_normalized(st_, f, g, np.array(x))
        assert norms.count(2) == lapack_calls
        assert st_.spectral_norm(st_.const) == norm(st_.const, 2)
    assert norms.count(2) == 1
    # an entry rule's bivector changes from point to point: its norm is taken
    # each call, |m_01| for two coordinates, with no call of LAPACK
    rule = ek.PoissonStructure(2, entries=plane_entries)
    for x in ([1.5, -2.0], [0.5, 3.0]):
        m = rule.matrix(np.array(x))
        assert rule.spectral_norm(m) == abs(m[0, 1]) == norm(m, 2)
    assert norms.count(2) == 1


def antisymmetric(d, data):
    scale = data.draw(st.sampled_from([1.0, 1e-200, 1e200]), label="scale")
    upper = {(i, j): scale * data.draw(st.floats(-1e3, 1e3))
             for i in range(d) for j in range(i + 1, d)}
    return [[upper[i, j] if i < j else -upper[j, i] if i > j else 0.0 for j in range(d)]
            for i in range(d)]


@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_form_spectral_norms_are_lapacks_to_rounding(d, data):
    # the closed forms of entry rules with 1-3 coordinates and of their
    # extensions, against LAPACK's largest singular value, also where the
    # squares of the entries would over- or underflow
    rows = antisymmetric(d, data)
    rule = ek.PoissonStructure(d, entries=lambda co: rows)
    extended = ek.extend_structure(rule)
    for structure in (rule, extended):
        m = structure.matrix(np.zeros(structure.dim))
        want = np.linalg.norm(m, 2)
        assert abs(structure.spectral_norm(m) - want) <= 1e-15 * want
    m = extended.matrix(np.zeros(d + 2))
    assert extended.spectral_norm(m) == max(1.0, rule.spectral_norm(m[2:, 2:]))


ENTRY = st.one_of(
    st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.inf, math.nan]), st.integers(-3, 3),
    st.complex_numbers(max_magnitude=4.0))


@st.composite
def entry_rows(draw):
    """``(d, rows)``: d in 1..4, and rows exactly antisymmetric, within the
    tolerance, beyond it or drawn freely, of floats, ints, complexes, NaN or
    infinity, as nested lists, tuples or ndarrays, or of the wrong shape."""
    d = draw(st.integers(1, 4))
    m = [[draw(ENTRY) for _ in range(d)] for _ in range(d)]
    how = draw(st.sampled_from(["exact", "within", "beyond", "free"]))
    if how != "free":
        scale = {"exact": 0.0, "within": 1e-15, "beyond": 1e-12}[how]
        for i in range(d):
            m[i][i] = draw(st.sampled_from([0.0, -0.0, scale]))
            for j in range(i + 1, d):
                m[j][i] = -m[i][j] * (1.0 + draw(st.sampled_from([0.0, scale, -scale])))
    shape = draw(st.sampled_from(["lists"] * 4 + ["tuples", "ndarray", "row arrays",
                                                  "short row", "extra row", "flat"]))
    if shape == "tuples":
        return d, tuple(tuple(row) for row in m)
    if shape == "ndarray":
        return d, np.array(m)
    if shape == "row arrays":
        return d, [np.array(row) for row in m]
    if shape == "short row":
        m[draw(st.integers(0, d - 1))].pop()
    elif shape == "extra row":
        m.append([0.0] * d)
    elif shape == "flat":
        return d, [v for row in m for v in row]
    return d, m


def antisym_outcome(check, structure, rows):
    """``("ok", rows returned as they came)`` or ``("raised", class, message)``."""
    try:
        out = check(structure, rows)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", out is rows)


@settings(max_examples=400, deadline=None)
@given(case=entry_rows())
def test_the_exact_accept_gives_what_the_one_loop_check_gives(case):
    d, rows = case
    structure = ek.PoissonStructure(d, entries=lambda co: rows, label="drawn")
    with np.errstate(all="ignore"):
        got = antisym_outcome(ek.PoissonStructure._check_antisym, structure, rows)
        want = antisym_outcome(check_antisym, structure, rows)
    assert got == want


@pytest.mark.parametrize("rows, exact", [
    ([[0.0, 1.5, -2.0], [-1.5, 0.0, 0.25], [2.0, -0.25, -0.0]], True),
    ([[0, 2], [-2, 0]], True),
    ([[0.0, 1.0], [-1.0 - 1e-15, 0.0]], False),  # within the tolerance: the loop's
    ((([0.0, 1.0]), ([-1.0, 0.0])), False),  # a tuple of rows: the loop's
    ([[0.0, 1j], [-1j, 0.0]], False),  # no finite real sum: the loop's
    ([[0.0, math.inf], [-math.inf, 0.0]], False),
    # numpy scalars: a sum of products with them would not be a float's
    ([[0.0, np.float64(1.5)], [np.float64(-1.5), 0.0]], False),
    ([[np.float32(0.0), 1.5], [-1.5, 0.0]], False),
], ids=["floats", "ints", "within", "tuple", "complex", "inf", "float64", "float32-diagonal"])
def test_only_exactly_antisymmetric_nested_lists_pass_the_exact_test(rows, exact):
    d = len(rows)
    try:
        passed = bool(ek.poisson._exactly_antisymmetric(d)(rows))
    except TypeError:
        passed = False
    assert passed is exact


def left_to_right(rows, grad, start=(0.0,)):
    """Each row's sum of products with ``grad``, added left to right from
    ``start`` (from the first product where ``start`` is empty)."""
    out = []
    for row in rows:
        terms = list(start) + [r * g for r, g in zip(row, grad)]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        out.append(total)
    return out


def bits(values):
    return [type(v) for v in values], np.array(values, dtype=complex).tobytes()


SIGNED = st.sampled_from([0.0, -0.0])


@pytest.mark.parametrize("key", ["lotka_volterra", "euler_top"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_contract_is_the_matrix_product_of_an_entry_rule(key, data):
    # the product summed left to right from +0.0 over the rule's rows, bit for
    # bit, for real gradients with signed zeros and for complex ones
    structure = ek.instantiate(key).system.structure
    box = ek.get_entry(key).default_box
    xs = [data.draw(st.one_of(st.floats(lo, hi), SIGNED) if lo < 0 < hi else st.floats(lo, hi))
          for lo, hi in box]
    number = st.one_of(st.floats(-1e3, 1e3), SIGNED)
    if data.draw(st.booleans(), label="complex"):
        number = st.one_of(number, st.complex_numbers(max_magnitude=1e3),
                           st.builds(complex, SIGNED, SIGNED))
    grad = tuple(data.draw(number) for _ in xs)
    got = structure.contract(xs, grad)
    assert bits(got) == bits(left_to_right(structure.entries(xs), grad))
    if all(type(g) is float for g in grad):
        assert [type(v) for v in got] == [float] * len(xs)


@pytest.mark.parametrize("rule", [
    lambda co: ((0.0, co[0]), (-co[0], 0.0)),
    lambda co: np.array([[0.0, co[0]], [-co[0], 0.0]], dtype=np.float32),
    lambda co: [[np.float32(0.0), co[0]], [-co[0], 0.0]],
    lambda co: [[0.0, co[0]], [-co[0] * (1.0 + 2e-16), 0.0]],
], ids=["tuples", "float32-array", "float32-entry", "within-tolerance"])
def test_contract_sums_rows_the_exact_test_refuses_as_floats(rule):
    # rows the exact test refuses are judged by the tolerance loop and summed
    # as matrix(xs) holds them, as floats
    structure = ek.PoissonStructure(2, entries=rule)
    for xs in ([0.3, -1.7], [1.0 / 3.0, 2.0]):
        grad = (0.1, -2.0 / 7.0)
        got = structure.contract(xs, grad)
        assert bits(got) == bits(left_to_right(structure.matrix(xs).tolist(), grad))
        assert [type(v) for v in got] == [float, float]


def test_contract_parity_fails_on_a_reordered_sum():
    # negative control: a row summed as r1 g1 + r0 g0 + r2 g2 is the same
    # product in exact arithmetic; on euler_top, whose rows each hold one
    # zero, the comparison above sees it at signed zeros
    structure = ek.instantiate("euler_top").system.structure
    values = [0.0, -0.0, 1.5, -0.5]
    differ = 0
    for xs in itertools.product(values, repeat=3):
        xs = list(xs)
        rows = structure.entries(xs)
        swapped = [[row[1], row[0], *row[2:]] for row in rows]
        for grad in itertools.product(values, repeat=3):
            got = structure.contract(xs, grad)
            assert bits(got) == bits(left_to_right(rows, grad))
            want = left_to_right(swapped, [grad[1], grad[0], *grad[2:]], start=())
            differ += bits(got) != bits(want)
    assert differ > 0


def test_one_row_keeps_the_sum_from_plus_zero():
    # -0.0 * 3.0 is -0.0, and the sum from +0.0 makes it +0.0, as the sparse
    # path's 0.0 + p * grad[j] does; a complex product's zeros likewise
    one = ek.PoissonStructure(1, entries=lambda co: [[-0.0]])
    sparse = ek.PoissonStructure(1, const=np.array([[-0.0]]))
    for grad in ((3.0,), (-0.0,), (complex(-0.0, -2.0),)):
        want = [0.0 + -0.0 * grad[0]]
        assert bits(one.contract([0.5], grad)) == bits(sparse.contract([0.5], grad)) == bits(want)
    assert bits(one.contract([0.5], (3.0,))) == bits([0.0]) != bits([-0.0 * 3.0])
