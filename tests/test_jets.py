"""First and second order jet propagation against finite differences."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import jets

E2 = math.exp(2.0)


def fd_hessian(fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    d = len(x)
    out = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            out[i, j] = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4 * h * h)
    return out


def test_square_jet2():
    f = ek.ScalarField(lambda x: x[0] * x[0], dim=1)
    j = f.jet2(np.array([3.0]))
    assert j.value == 9.0
    assert j.grad[0] == 6.0
    assert j.hess[0, 0] == 2.0


def test_constant_field_jets():
    f = ek.ScalarField(lambda x: 5.0 + 0.0 * x[0], dim=2)
    j = f.jet2(np.array([1.0, -2.0]))
    assert j.value == 5.0
    assert np.all(j.grad == 0.0)
    assert np.all(j.hess == 0.0)


def test_exp_product_jet2_frozen():
    # f = exp(x1 x2) at (1, 2): value e^2, grad (2 e^2, e^2),
    # hessian ((4 e^2, 3 e^2), (3 e^2, e^2)), worked out by hand
    f = ek.ScalarField(lambda x: jets.exp(x[0] * x[1]), dim=2)
    j = f.jet2(np.array([1.0, 2.0]))
    assert abs(j.value - E2) < 1e-14 * E2
    np.testing.assert_allclose(j.grad, [2 * E2, E2], rtol=1e-13)
    np.testing.assert_allclose(j.hess, [[4 * E2, 3 * E2], [3 * E2, E2]], rtol=1e-13)


def test_jet2_matches_fd_on_mixed_expression():
    def raw(x):
        return jets.sin(x[0]) * jets.exp(x[1]) + x[0] ** 3 / (1.0 + x[1] ** 2)

    f = ek.ScalarField(raw, dim=2)
    x = np.array([0.7, -0.4])
    j = f.jet2(x)
    num_h = fd_hessian(lambda v: raw(v), x)
    np.testing.assert_allclose(j.hess, num_h, rtol=1e-5, atol=1e-7)


def test_division_and_negative_powers():
    f = ek.ScalarField(lambda x: 1.0 / x[0] + x[0] ** -2, dim=1)
    j = f.jet2(np.array([2.0]))
    assert abs(j.value - 0.75) < 1e-15
    assert abs(j.grad[0] - (-0.25 - 2 / 8)) < 1e-15
    assert abs(j.hess[0, 0] - (0.25 + 6 / 16)) < 1e-15


def test_jet_exponent_power():
    # x ** y with both arguments varying
    def raw(x):
        return x[0] ** x[1]

    f = ek.ScalarField(raw, dim=2)
    x = np.array([1.5, 2.5])
    j = f.jet2(x)
    v = 1.5 ** 2.5
    assert abs(j.value - v) < 1e-13
    assert abs(j.grad[0] - 2.5 * 1.5 ** 1.5) < 1e-12
    assert abs(j.grad[1] - v * math.log(1.5)) < 1e-12


def test_complex_codomain_field():
    f = ek.ScalarField(lambda x: jets.exp(1j * x[0]), dim=1, codomain="complex")
    j = f.jet1(np.array([0.5]))
    assert abs(j.value - complex(math.cos(0.5), math.sin(0.5))) < 1e-14
    assert abs(j.grad[0] - 1j * j.value) < 1e-14


def test_log_branch_for_negative_base():
    # principal branch: log(-2) = log 2 + i pi
    val = jets._scalar_log(-2.0)
    assert abs(val - complex(math.log(2.0), math.pi)) < 1e-14


def test_log_at_zero_raises():
    f = ek.ScalarField(lambda x: jets.log(x[0]), dim=1)
    with pytest.raises(ek.EvaluationError):
        f.value(np.array([0.0]))


def test_nonfinite_detection():
    f = ek.ScalarField(lambda x: 1.0 / (x[0] - 1.0), dim=1)
    with pytest.raises(ek.NonFiniteError):
        f.value(np.array([1.0]))


def test_singular_predicate_blocks_evaluation():
    f = ek.ScalarField(lambda x: 1.0 / x[0], dim=1,
                       singular=lambda x, m: abs(x[0]) <= m)
    with pytest.raises(ek.SingularPointError):
        f.value(np.array([0.0]))
    assert f.value(np.array([0.5])) == 2.0


def test_dim_mismatch_rejected():
    f = ek.ScalarField(lambda x: x[0], dim=2)
    with pytest.raises(ek.EvaluationError):
        f.value(np.array([1.0]))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_gradient_matches_fd_property(a, b):
    def raw(x):
        return jets.cos(x[0]) * x[1] ** 2 + jets.sinh(0.3 * x[0] * x[1])

    f = ek.ScalarField(raw, dim=2)
    x = np.array([a, b])
    j = f.jet1(x)
    h = 1e-6
    for i in range(2):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        num = (raw(xp) - raw(xm)) / (2 * h)
        assert abs(j.grad[i] - num) < 1e-7 * max(1.0, abs(num))


def test_one_jet_type_for_both_orders():
    f = ek.ScalarField(lambda x: jets.exp(x[0]) * x[1], dim=2)
    x = np.array([0.3, 2.0])
    j1, j2 = f.jet1(x), f.jet2(x)
    assert type(j1) is type(j2) is ek.Jet
    assert j1.hess is None
    assert j2.hess.shape == (2, 2)


# (function, first derivative, second derivative) at a real point
ELEMENTARY = [
    (jets.exp, math.exp, math.exp),
    (jets.log, lambda v: 1 / v, lambda v: -1 / v**2),
    (jets.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 * v**-1.5),
    (jets.sin, math.cos, lambda v: -math.sin(v)),
    (jets.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    (jets.tan, lambda v: 1 / math.cos(v) ** 2, lambda v: 2 * math.tan(v) / math.cos(v) ** 2),
    (jets.sinh, math.cosh, math.sinh),
    (jets.cosh, math.sinh, math.cosh),
    (jets.tanh, lambda v: 1 / math.cosh(v) ** 2,
     lambda v: -2 * math.tanh(v) / math.cosh(v) ** 2),
    (lambda t: 1.0 / t, lambda v: -1 / v**2, lambda v: 2 / v**3),
    (lambda t: t**2.5, lambda v: 2.5 * v**1.5, lambda v: 3.75 * v**0.5),
    (lambda t: t**3, lambda v: 3 * v**2, lambda v: 6 * v),
]


@pytest.mark.parametrize("fn, d1, d2", ELEMENTARY)
def test_elementary_chain_rule(fn, d1, d2):
    # the argument 2 t - 1 has a nonzero gradient and a zero Hessian
    v = 0.7
    f = ek.ScalarField(lambda x: fn(2.0 * x[0] - 1.0), dim=1)
    x = np.array([(v + 1.0) / 2.0])
    j1, j2 = f.jet1(x), f.jet2(x)
    assert j1.value == j2.value and np.array_equal(j1.grad, j2.grad)
    assert abs(j2.grad[0] - 2.0 * d1(v)) <= 1e-14 * abs(2.0 * d1(v))
    assert abs(j2.hess[0, 0] - 4.0 * d2(v)) <= 1e-14 * abs(4.0 * d2(v))


@pytest.mark.parametrize("query", ["value", "jet1", "jet2"])
def test_overflow_is_a_typed_error(query):
    f = ek.ScalarField(lambda x: x[0] ** 7, dim=1, label="p7")
    with pytest.raises(ek.NonFiniteError, match="p7 overflows"):
        getattr(f, query)(np.array([1e60]))


# (field, value at X_DIV by plain float arithmetic, gradient, Hessian); each
# quotient rounds differently when computed as a product with a reciprocal
X_DIV = [0.3, 0.7]
DIVISIONS = [
    (lambda x: x[0] / 7.0, 0.3 / 7.0, [1 / 7.0, 0.0], [[0.0, 0.0], [0.0, 0.0]]),
    (lambda x: 1.3 / x[1], 1.3 / 0.7, [0.0, -1.3 / 0.49], [[0.0, 0.0], [0.0, 2.6 / 0.343]]),
    (lambda x: x[0] / x[1], 0.3 / 0.7, [1 / 0.7, -0.3 / 0.49],
     [[0.0, -1 / 0.49], [-1 / 0.49, 0.6 / 0.343]]),
]


@pytest.mark.parametrize("fn, value, grad, hess", DIVISIONS)
def test_division_is_a_true_division(fn, value, grad, hess):
    assert 0.3 / 7.0 != 0.3 * (1 / 7.0)
    assert 1.3 / 0.7 != 1.3 * (1 / 0.7) and 0.3 / 0.7 != 0.3 * (1 / 0.7)
    f = ek.ScalarField(fn, dim=2)
    j1, j2 = f.jet1(X_DIV), f.jet2(X_DIV)
    assert f.value(X_DIV) == j1.value == j2.value == value
    assert np.array_equal(j1.grad, j2.grad)
    np.testing.assert_allclose(j2.grad, grad, rtol=1e-15, atol=1e-300)
    np.testing.assert_allclose(j2.hess, hess, rtol=1e-14, atol=1e-300)
    np.testing.assert_array_equal(j2.hess, j2.hess.T)


def test_division_by_zero_is_a_typed_error():
    for fn in (lambda x: x[0] / 0.0, lambda x: 1.0 / (x[0] - 0.3),
               lambda x: x[1] / (x[0] - 0.3)):
        f = ek.ScalarField(fn, dim=2, label="quot")
        for query in ("value", "jet1", "jet2"):
            with pytest.raises(ek.NonFiniteError, match="quot divides by zero"):
                getattr(f, query)(X_DIV)


@pytest.mark.parametrize("query", ["jet1", "jet2"])
def test_non_finite_gradient_is_a_typed_error(query):
    # log at the smallest subnormal: the value is -744.44, but 1/x overflows
    f = ek.ScalarField(lambda x: jets.log(x[0]), dim=1, label="lg")
    assert f.value([5e-324]) == math.log(5e-324)
    with np.errstate(invalid="ignore"), pytest.raises(
            ek.NonFiniteError, match=r"lg has a non-finite gradient at \[5e-324\]"):
        getattr(f, query)([5e-324])


def test_non_finite_hessian_is_a_typed_error():
    # at 1e-200 the value and the gradient 1e200 are finite, but -1/x^2 is not
    f = ek.ScalarField(lambda x: jets.log(x[0]), dim=1, label="lg")
    assert f.jet1([1e-200]).grad[0] == 1e200
    with pytest.raises(ek.NonFiniteError, match=r"lg has a non-finite Hessian at \[1e-200\]"):
        f.jet2([1e-200])


def test_non_finite_value_names_the_field_and_the_point():
    # float products overflow to inf without raising; inf * 0 is nan
    f = ek.ScalarField(lambda x: x[0] * x[0], dim=1, label="sq")
    g = ek.ScalarField(lambda x: (x[0] * x[0]) * 0.0, dim=1, label="zi")
    for query in ("value", "jet1", "jet2"):
        with pytest.raises(ek.NonFiniteError, match=r"sq overflows at \[1e\+200\]"):
            getattr(f, query)([1e200])
        with np.errstate(invalid="ignore"), pytest.raises(
                ek.NonFiniteError, match=r"zi is not a number at \[1e\+200\]"):
            getattr(g, query)([1e200])


def test_gradients_are_tuples_inside_arithmetic():
    seen = []

    def fn(x):
        out = x[0] * x[1] + jets.sin(x[0]) / x[1]
        seen.append(out)
        return out

    for query in ("jet1", "jet2"):
        j = getattr(ek.ScalarField(fn, dim=2), query)([0.4, 1.3])
        assert type(seen[-1].grad) is tuple
        assert all(type(g) is float for g in seen[-1].grad)
        assert isinstance(j.grad, np.ndarray) and j.grad.shape == (2,)
    # the Hessian is flat and row-major inside arithmetic
    assert type(seen[-1].hess) is tuple and len(seen[-1].hess) == 4
    assert all(type(h) is float for h in seen[-1].hess)
    assert isinstance(j.hess, np.ndarray) and j.hess.shape == (2, 2)
    assert j.hess.tolist() == [list(seen[-1].hess[:2]), list(seen[-1].hess[2:])]
