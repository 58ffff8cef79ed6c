"""The cloud replay of second-order tapes against ``ScalarField.jet2``.

``jet2_cloud`` records a field's ``fn`` once on second-order jets and replays
the tape over every point of a cloud at once.  These tests hold every point
it leaves unmarked to ``jet2`` there, bit for bit and type for type; check
that each point the replay cannot follow is marked, and that the scalar path
then gives its own value or error there; and hold ``pde_residual``, which
evaluates its sample in one pass, to the point-by-point loop it replaced.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import jets, poisson, verify
from extkit.poisson import apply_xl2, apply_xl2_cloud, base_flow
from test_jet1_kernel import FIELDS, boxed_points
from test_jet1_kernel import assert_parity as kernel_parity
from test_jet1_kernel import on_jets as on_first_order_jets

PDE_ENTRIES = ["quartic1", "quartic2a", "quartic2b", "square_polar", "vortex_equal",
               "vortex_opposite"]


def on_jets(field, x):
    """``("ok", value, gradient, Hessian)`` of ``jet2``, or ``("raised", class, message)``."""
    try:
        j = field.jet2(x)
    except ek.EvaluationError as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", j.value, j.grad, j.hess)


def assert_row_is_jet2(cloud, i, want):
    """Row ``i`` of ``jet2_cloud``'s output equals ``jet2``'s outcome ``want``
    entry by entry, bit for bit (signed zeros too), of the same types."""
    values, grads, hessians, _ = cloud
    assert want[0] == "ok", want
    _, value, grad, hess = want
    got = values.tolist()[i]
    assert type(got) is type(value) and np.array(got).tobytes() == np.array(value).tobytes()
    for a, b in ((grads[i], grad), (hessians[i], hess)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert [type(v) for v in a.ravel().tolist()] == [type(v) for v in b.ravel().tolist()]


def assert_marked_only_where_jet2_raises(field, points, marked):
    if field.label != "euler_top.localG":
        # Carlson's loop count varies from point to point; no other field
        # makes a decision that the default box can flip
        for x, m in zip(points, marked):
            assert not m or on_jets(field, x)[0] == "raised", (field.label, x)


def assert_parity(field, points) -> np.ndarray:
    """Every unmarked row of ``field.jet2_cloud(points)`` is ``jet2`` there,
    and every row where ``jet2`` raises is marked.  Returns the mask."""
    cloud = field.jet2_cloud(np.array(points, dtype=float))
    marked = cloud[3]
    for i, x in enumerate(points):
        want = on_jets(field, x)
        if want[0] == "raised":
            assert marked[i], (field.label, x, want)
        elif not marked[i]:
            assert_row_is_jet2(cloud, i, want)
    return marked


@pytest.mark.parametrize("key, field, box", FIELDS, ids=[f.label for _, f, _ in FIELDS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cloud_matches_jet2_on_every_catalog_field(key, field, box, data):
    points = data.draw(boxed_points(box, 8))
    assert_marked_only_where_jet2_raises(field, points, assert_parity(field, points))


def test_catalog_fields_replay_a_300_point_cloud_with_no_marks():
    rng = np.random.default_rng(12)
    for _, field, box in FIELDS:
        lo, hi = np.array(box).T
        points = lo + rng.uniform(size=(300, len(lo))) * (hi - lo)
        assert_marked_only_where_jet2_raises(field, points, assert_parity(field, points))


def xl2_on_columns(system, field, x):
    """X_L^2 F at ``x`` as a cloud of one point: ``_xl2`` over (1,) columns."""
    jl, jf = system.hamiltonian.jet2(x), field.jet2(x)
    structure = system.structure
    pi, dpi = structure.matrix_with_grads(x)
    dpi_grad_l = None if structure.const is not None else poisson._dpi_grad(dpi, jl.grad.tolist())
    gl, gf = jl.grad[:, None], jf.grad[:, None]
    hl, hf = jl.hess[:, :, None], jf.hess[:, :, None]
    return poisson._xl2(gl, hl, gf, hf, pi.tolist(), dpi_grad_l)[0]


@pytest.mark.parametrize("key, field, box", FIELDS, ids=[f.label for _, f, _ in FIELDS])
def test_apply_xl2_on_plain_numbers_is_the_cloud_row(key, field, box, built):
    # apply_xl2 forms X_L^2 F on the numbers of one point: bit for bit, and of
    # one dtype, the row of a cloud of that point alone and, where the
    # bivector is constant, the row of the whole cloud
    system = built[key].system
    lo, hi = np.array(box).T
    points = lo + np.random.default_rng(31).uniform(size=(12, len(lo))) * (hi - lo)
    rows, marked, _, _ = apply_xl2_cloud(system, field, points)
    assert marked.all() == (system.structure.const is None), field.label
    for i, x in enumerate(points):
        try:
            got = np.array(apply_xl2(system, field, x))
        except ek.EvaluationError:
            assert marked[i]
            continue
        for want in [xl2_on_columns(system, field, x)] + ([] if marked[i] else [rows[i]]):
            assert got.dtype == np.array(want).dtype, (field.label, x)
            assert got.tobytes() == np.array(want).tobytes(), (field.label, x)


@pytest.mark.parametrize("key", PDE_ENTRIES)
def test_the_value_column_is_value_at_every_point_of_a_seeded_entry(key, built):
    # pde_residual reads L and G from these columns in place of value()
    b = built[key]
    lo, hi = np.array(ek.get_entry(key).default_box).T
    points = lo + np.random.default_rng(21).uniform(size=(2000, len(lo))) * (hi - lo)
    for field in (b.system.hamiltonian, b.seed.field):
        values, _, _, marked = field.jet2_cloud(points)
        assert not marked.any(), field.label
        for got, x in zip(values.tolist(), points):
            want = field.value(x)
            assert type(got) is type(want), (field.label, x)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (field.label, x)


def test_a_power_of_a_negative_base_is_where_the_value_column_leaves_value():
    # a jet takes the value of v ** e from **, as value does; exp(e log v),
    # which gives its derivatives, rounds apart from it at some of these points
    field = ek.ScalarField(lambda co: co[0] ** 0.3 + co[1], 2, label="root")
    rng = np.random.default_rng(0)
    points = np.column_stack([rng.uniform(-2.0, -0.1, 200), rng.uniform(-1.0, 1.0, 200)])
    values, _, _, marked = field.jet2_cloud(points)
    assert not marked.any()
    assert_parity(field, points.tolist())
    apart = [got != field.value(x) for got, x in zip(values.tolist(), points)]
    assert sum(apart) == 0


def boxed(rng, box, count=200):
    return np.column_stack([rng.uniform(a, b, count) for a, b in box])


# the powers whose derivatives come from exp(e log v), and a zeroth power,
# whose value is a complex 1 for a complex base
POWER_FORMS = {
    "negative base to a float": (lambda co: co[0] ** 0.3 + co[1], ((-2.0, -0.1), (-1.0, 1.0))),
    "jet to a jet": (lambda co: co[0] ** co[1], ((0.1, 2.0), (-1.5, 1.5))),
    "number to a jet": (lambda co: 2.0 ** co[0] - co[1], ((-3.0, 3.0), (-1.0, 1.0))),
    "complex base to the zeroth": (lambda co: (1j * co[0] + co[1]) ** 0,
                                   ((-1.0, 1.0), (-1.0, 1.0))),
}


@pytest.mark.parametrize("form", POWER_FORMS)
def test_every_path_takes_a_power_s_value_from_pow(form):
    # value, jet1 (the kernel, and the jet path), jet2 and the cloud's value
    # column agree bit for bit and in type
    fn, box = POWER_FORMS[form]
    field = ek.ScalarField(fn, 2, label="power")
    points = boxed(np.random.default_rng(3), box)
    cloud, _, _, marked = field.jet2_cloud(points)
    assert not marked.any()
    for got, x in zip(cloud.tolist(), points):
        want = field.value(x)
        for v in (got, field.jet1(x).value, on_first_order_jets(field, x).value,
                  field.jet2(x).value):
            assert type(v) is type(want), (form, x)
            assert np.array(v).tobytes() == np.array(want).tobytes(), (form, x)
    assert callable(field._kernel[1])


def branch_on_sign(co):
    return co[0] * co[1] if co[0].value > 0 else jets.exp(co[0]) - co[1]


# (fn, singular predicate, points, the row the scalar path takes elsewhere,
#  what jet2 does there)
MARKED_CASES = {
    "singular-point": (lambda co: co[0] * co[1], lambda x, m: x[0] <= m,
                       [[0.5, 1.0], [-0.5, 1.0], [0.25, 2.0]], 1,
                       (ek.SingularPointError, "f evaluated on its singular set at [-0.5, 1.0]")),
    "zero-divisor": (lambda co: co[1] / co[0], None,
                     [[0.5, 1.0], [0.0, 1.0], [0.25, 2.0]], 1,
                     (ek.NonFiniteError, "f divides by zero at [0.0, 1.0]")),
    # numpy's 1 / 0 = inf passes the guard and leaves a finite output
    "zero-divisor-read-by-a-guard": (
        lambda co: co[1] * co[1] if (1.0 / co[0]).value > 0 else -co[1], None,
        [[0.5, 1.0], [0.0, 1.0], [0.25, 2.0]], 1,
        (ek.NonFiniteError, "f divides by zero at [0.0, 1.0]")),
    "complex-zero-divisor-read-by-a-guard": (
        lambda co: co[1] * co[1] if (1.0 / (co[0] * 1j)).value != 0 else -co[1], None,
        [[0.5, 1.0], [0.0, 1.0], [0.25, 2.0]], 1,
        (ek.NonFiniteError, "f divides by zero at [0.0, 1.0]")),
    "overflow-in-power": (lambda co: co[0] ** 2.5 * co[1], None,
                          [[0.5, 1.0], [1e200, 1.0], [2.0, 1.0]], 1,
                          (ek.NonFiniteError, "f overflows at [1e+200, 1.0]")),
    "log-at-zero": (lambda co: jets.log(co[0]) * co[1], None,
                    [[0.5, 2.0], [0.0, 1.0], [0.75, 1.0]], 1,
                    (ek.EvaluationError, "logarithm evaluated at zero")),
    "non-finite-value": (lambda co: co[0] * co[0] * co[1], None,
                         [[0.5, 2.0], [1e200, 1.0], [0.75, 1.0]], 1,
                         (ek.NonFiniteError, "f overflows at [1e+200, 1.0]")),
    "flipped-guard": (branch_on_sign, None, [[0.5, 1.0], [-0.3, 1.0], [0.2, -1.0]], 1, None),
    "another-type": (lambda co: jets.sqrt(co[0]) * co[1], None,
                     [[0.5, 1.0], [-0.5, 1.0], [0.25, 3.0]], 1, complex),
    # complex quotients, each with signed zeros among its operands and an
    # exact zero divisor at the marked row; at [-0.9, 0.3] numpy's complex /
    # rounds apart from CPython's
    "complex-over-complex": (lambda co: (co[1] - 1j * co[1]) / (co[0] + 1j * co[0]), None,
                             [[0.5, -0.0], [0.0, 1.0], [-0.9, 0.3]], 1,
                             (ek.NonFiniteError, "f divides by zero at [0.0, 1.0]")),
    "complex-over-real": (lambda co: (co[1] - 1j * co[1]) / co[0], None,
                          [[-0.5, -0.0], [0.0, 1.0], [0.25, 0.0]], 1,
                          (ek.NonFiniteError, "f divides by zero at [0.0, 1.0]")),
    "real-over-complex": (lambda co: co[1] / (co[0] - 1j * co[0]), None,
                          [[-0.5, -0.0], [0.0, 1.0], [0.25, 0.0]], 1,
                          (ek.NonFiniteError, "f divides by zero at [0.0, 1.0]")),
}


@pytest.mark.parametrize("case", MARKED_CASES.values(), ids=MARKED_CASES)
def test_a_point_the_replay_cannot_follow_is_marked_and_left_to_the_scalar_path(case):
    fn, singular, points, row, scalar = case
    field = ek.ScalarField(fn, 2, singular=singular, label="f")
    marked = assert_parity(field, points)
    assert marked.tolist() == [i == row for i in range(len(points))]
    want = on_jets(field, points[row])
    if isinstance(scalar, tuple):
        assert want[0] == "raised" and want[1:] == scalar
    elif scalar is complex:
        assert want[0] == "ok" and type(want[1]) is complex
    else:
        assert want[0] == "ok"
    # apply_xl2_cloud marks the row too, and apply_xl2 there raises what jet2 does
    system = ek.HamiltonianSystem(ek.canonical_structure(2),
                                  ek.ScalarField(lambda co: 0.5 * co[0] + co[1] * co[1], 2))
    lhs, xl2_marked, _, _ = apply_xl2_cloud(system, field, np.array(points))
    assert xl2_marked.tolist() == marked.tolist()
    for i, x in enumerate(points):
        if i == row and want[0] == "raised":
            with pytest.raises(want[1]) as info:
                apply_xl2(system, field, np.array(x))
            assert str(info.value) == want[2]
        elif i != row:
            got = apply_xl2(system, field, np.array(x))
            assert np.array(lhs[i]).tobytes() == np.array(got).tobytes()


def test_a_recording_that_fails_marks_the_whole_cloud():
    # math on a value cannot be recorded; jet2 still answers at every point
    import math

    field = ek.ScalarField(lambda co: co[0] * math.sin(co[0].value) + co[1], 2, label="f")
    points = [[0.2, 1.0], [0.4, 2.0], [-0.6, 1.5]]
    assert assert_parity(field, points).all()
    assert all(on_jets(field, x)[0] == "ok" for x in points)


def counting_recordings(monkeypatch) -> list:
    """The ``fn`` of each second-order recording made from here on."""
    seen = []
    record = jets._record

    def counted(fn, xs, second_order):
        if second_order:
            seen.append(fn)
        return record(fn, xs, second_order)

    monkeypatch.setattr(jets, "_record", counted)
    return seen


def test_a_gates_pass_records_each_second_order_tape_once(monkeypatch):
    # the pde gates of the benchmark, L and G of each entry, twice over, each
    # pass on its own sample: only the first pass records, once per field
    cases = []
    for key in PDE_ENTRIES:
        b = ek.instantiate(key)
        system = dataclasses.replace(b.system, hamiltonian=dataclasses.replace(b.system.hamiltonian))
        cases.append((key, system, dataclasses.replace(b.seed.field), b.seed.meta["pair"]))
    seen = counting_recordings(monkeypatch)
    for seed in (1, 2):
        for key, system, g, (c, c0) in cases:
            spec = ek.SampleSpec(intervals=ek.get_entry(key).default_box, count=40, seed=seed)
            ek.pde_residual(system, g, c, c0, spec)
        assert seen == [f.fn for _, system, g, _ in cases for f in (system.hamiltonian, g)]


def test_a_kept_replay_leaves_the_rows_off_its_recorded_branch_to_jet2():
    field = ek.ScalarField(branch_on_sign, 2, label="f")
    assert assert_parity(field, [[0.5, 1.0], [-0.3, 1.0]]).tolist() == [False, True]
    # recorded where q > 0, so on a later cloud the rows where q < 0 are
    # marked; a recording at this cloud's first row marks the others
    points = [[-0.2, 1.0], [0.4, 2.0], [-0.7, 0.5]]
    assert assert_parity(field, points).tolist() == [True, False, True]
    assert assert_parity(dataclasses.replace(field), points).tolist() == [False, True, False]


def test_a_failed_recording_is_retried_and_a_new_fn_drops_the_kept_replay(monkeypatch):
    seen = counting_recordings(monkeypatch)
    field = ek.ScalarField(lambda co: co[1] / co[0], 2, label="f")
    points = [[0.0, 1.0], [0.5, 1.0], [0.25, 2.0]]
    # the recording divides by zero at the first row: every row is marked,
    # and nothing is kept
    assert assert_parity(field, points).all()
    assert field._cloud == (None, None)
    # the next call records again, and keeps what it recorded
    assert assert_parity(field, points[1:] + points[:1]).tolist() == [False, False, True]
    assert assert_parity(field, points).tolist() == [True, False, False]
    assert len(seen) == 2
    field.fn = branch_on_sign
    assert not assert_parity(field, points[1:]).any()
    assert seen[2:] == [branch_on_sign]


def type_test_on_a_value(co):
    return co[0] * co[1] if isinstance(co[0].value, float) else co[1] - co[0]


def plus_on_a_value(co):
    return co[0] * co[1] if +co[0].value > 0 else co[1] - co[0]


@pytest.mark.parametrize("fn", [type_test_on_a_value, plus_on_a_value])
def test_a_field_that_tests_a_type_or_applies_plus_to_a_value_stays_on_jets(fn):
    # a tape records neither, so the recording at the first call fails:
    # value_grad runs fn on jets at that call and every later one, and the
    # cloud leaves every row to jet2
    field = ek.ScalarField(fn, 2, label="f")
    points = [[0.3, 0.4], [0.5, -0.6], [0.7, 0.9]]
    for x in points:
        value, grad = field.value_grad(x)
        want = fn(jets._seeds(x))
        assert type(value) is type(want.value)
        assert np.array(value).tobytes() == np.array(want.value).tobytes()
        assert np.array(grad).tobytes() == np.array(want.grad).tobytes()
        assert field._kernel == (fn, False)
    assert assert_parity(field, points).all()


def every_op(co):
    x, y = co
    v = x.value
    # each comparison is recorded as a guard; all six come out False here
    if v < 0.0 or v <= 0.0 or not v > 0.0 or not v >= 0.0 or v == 1.0 or not v != 1.0:
        return y
    if abs(v - 1.0) < 0.25:
        return x
    return -(x * y) / (x + 1.0) - jets.exp(y) + x ** 2.5


def test_the_tape_records_only_the_op_kinds_both_back_ends_run():
    # the compiled kernel and the cloud replay each interpret every op kind:
    # a kind added to the tape and one back end but not the other fails here
    kinds = {*jets._BINARY, "neg", "abs", "call", *jets._COMPARE}
    assert {*jets._BINARY, *jets._UNARY, "call", *jets._COMPARE} == kinds
    for second_order in (False, True):
        tape, _ = jets._record(every_op, [0.5, 0.3], second_order)
        assert {op for op, *_ in tape.ops} == kinds
    field = ek.ScalarField(every_op, 2, label="every_op")
    points = boxed(np.random.default_rng(6), ((0.1, 0.7), (-1.0, 1.0)), 50).tolist()
    assert callable(kernel_parity(field, points)._kernel[1])
    assert not assert_parity(field, points).any()


NUMPY_TWO = np.float64(2.0)


def short_gradient(co):
    h = co[0].hess
    return ek.Jet(co[0].value, co[0].grad[:1], None if h is None else h[:1])


def half_hessian(co):
    h = co[0].hess
    return ek.Jet(co[0].value, co[0].grad, None if h is None else h[:1])


# fn's that a tape records but cannot replay over a cloud, and whether the
# first-order kernel still compiles
UNREPLAYABLE = {
    # an operand the replay cannot keep as an array (_Tape.replay)
    "numpy closure constant": (lambda co: NUMPY_TWO * co[0] + co[1], True),
    # a result of another order or size (_Tape.outputs)
    "shorter gradient": (short_gradient, False),
    "Hessian of another size": (half_hessian, True),
    # a result that is no number (_Tape.outputs)
    "string": (lambda co: "q", False),
    # an output register the replay cannot hand back as an array (_Tape.replay)
    "numpy constant as the value": (lambda co: ek.Jet(NUMPY_TWO, co[0].grad, co[0].hess),
                                    True),
}


@pytest.mark.parametrize("case", UNREPLAYABLE)
def test_a_tape_the_replay_cannot_take_marks_the_whole_cloud(case):
    fn, compiles = UNREPLAYABLE[case]
    field = ek.ScalarField(fn, 2, label="f")
    points = [[0.3, 0.4], [0.5, 0.6], [0.7, 0.9], [-0.2, 1.1]]
    assert field.jet2_cloud(np.array(points))[3].all()
    # value_grad, through jet1, gives the jet path's value, gradient or error
    kernel = kernel_parity(field, points)._kernel[1]
    assert callable(kernel) if compiles else kernel is False


def first_order_at_second(co):
    return ek.Jet(co[0].value, co[0].grad)


# fn's whose result is of the wrong order or size at second order; short_gradient
# is wrong at first order too
MALFORMED = {"short gradient": short_gradient, "Hessian of another size": half_hessian,
             "first-order jet at second order": first_order_at_second}


def oscillator():
    return ek.HamiltonianSystem(
        ek.canonical_structure(2),
        ek.ScalarField(lambda co: 0.5 * (co[0] * co[0] + co[1] * co[1]), 2, label="L"))


@pytest.mark.parametrize("case", MALFORMED)
def test_a_result_of_the_wrong_order_or_size_raises_on_every_path(case):
    g = ek.ScalarField(MALFORMED[case], 2, label="badG")
    x = [0.3, 0.4]
    needle = r"badG returned no (first|second)-order jet over 2 coordinates at \[0.3, 0.4\]"
    with pytest.raises(ek.EvaluationError, match=needle):
        g.jet2(x)
    for _ in range(2):  # the second round through a kernel, where one compiles
        if case == "short gradient":
            for call in (g.value_grad, g.jet1):
                with pytest.raises(ek.EvaluationError, match=needle):
                    call(x)
        else:
            assert len(g.value_grad(x)[1]) == 2 and g.jet1(x).grad.shape == (2,)
    system = oscillator()
    with pytest.raises(ek.EvaluationError, match=needle):
        apply_xl2(system, g, np.array(x))
    points = ek.sample_points(ek.SampleSpec(intervals=((-1.0, 1.0), (-1.0, 1.0)), count=40,
                                            seed=11))
    assert g.jet2_cloud(points)[3].all()
    assert apply_xl2_cloud(system, g, points)[1].all()
    for count in (10, 40):  # point by point, and through the cloud
        spec = ek.SampleSpec(intervals=((-1.0, 1.0), (-1.0, 1.0)), count=count, seed=11)
        rep = ek.pde_residual(system, g, 0.0, 0.5, spec)
        assert rep.skipped == count and len(rep.residuals) == 0


def test_a_short_gradient_in_l_truncates_the_base_flow():
    system = ek.HamiltonianSystem(ek.canonical_structure(2),
                                  ek.ScalarField(short_gradient, 2, label="badL"))
    traj = ek.integrate(base_flow(system), [0.3, 0.4], 1.0)
    assert traj.truncated and len(traj.times) == 1
    assert traj.reason == ("flow evaluation failed at t = 0: badL returned no first-order "
                           "jet over 2 coordinates at [0.3, 0.4]")


def numpy_complex_mul(x, y, cx, cy):
    return x * y


def test_parity_check_fails_on_numpy_complex_multiplication(monkeypatch):
    # negative control: numpy's own complex loops round differently from
    # CPython's _Py_c_prod on some hosts, and the parity test must see it
    rng = np.random.default_rng(1)
    a = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    if (a * b).tolist() == [p * q for p, q in zip(a.tolist(), b.tolist())]:
        pytest.skip("numpy's complex multiplication rounds as CPython's on this host")
    field = next(f for _, f, _ in FIELDS if f.label == "vortex_equal.G")
    box = ek.get_entry("vortex_equal").default_box
    lo, hi = np.array(box).T
    points = (lo + np.random.default_rng(4).uniform(size=(50, 4)) * (hi - lo)).tolist()
    assert_parity(field, points)
    monkeypatch.setattr(jets, "_complex_mul", numpy_complex_mul)
    with pytest.raises(AssertionError):
        assert_parity(field, points)


def test_replay_frees_each_temporary_after_its_last_use():
    # square_polar.L records about 1500 operations; with every temporary kept
    # alive a 300-point replay peaks near 3.8 MiB, with each freed near 0.9 MiB
    field = next(f for _, f, _ in FIELDS if f.label == "square_polar.L")
    lo, hi = np.array(ek.get_entry("square_polar").default_box).T
    points = lo + np.random.default_rng(5).uniform(size=(300, 4)) * (hi - lo)
    field.jet2_cloud(points)
    tracemalloc.start()
    try:
        marked = field.jet2_cloud(points)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not marked.any()
    assert peak < 1.5 * 2**20


def per_point_report(system, g, c, c0, points):
    """pde_residual over ``points`` as one apply_xl2 per point."""
    vals, kept = [], []
    for x in points:
        try:
            lhs = apply_xl2(system, g, x)
            rhs = -2.0 * (c * system.hamiltonian.value(x) + c0) * g.value(x)
        except ek.EvaluationError:
            continue
        vals.append(verify._rel(lhs, rhs))
        kept.append(x)
    return np.array(vals), np.array(kept), len(points) - len(kept)


@pytest.mark.parametrize("key", PDE_ENTRIES)
@pytest.mark.parametrize("margin", [0.0, 0.15])
def test_pde_residual_reports_what_the_per_point_loop_reports(key, margin, built):
    b = built[key]
    c, c0 = b.seed.meta["pair"]
    g = dataclasses.replace(b.seed.field)
    for seed, singular in ((3, None), (4, b.singular)):
        spec = ek.SampleSpec(intervals=ek.get_entry(key).default_box, count=100, seed=seed,
                             margin=margin)
        rep = ek.pde_residual(b.system, g, c, c0, spec, singular=singular)
        points = ek.sample_points(spec, singular if singular is not None else g.singular)
        vals, kept, skipped = per_point_report(b.system, g, c, c0, points)
        assert rep.skipped == skipped
        assert rep.residuals.dtype == vals.dtype and rep.residuals.tobytes() == vals.tobytes()
        assert rep.points.shape == kept.shape and rep.points.tobytes() == kept.tobytes()


def sign_branch_with_a_kink(co):
    # a decision on the sign of q, and sqrt(q^2 + p^2), whose jet at the
    # origin divides by zero where its value does not
    q = co[0].value if isinstance(co[0], ek.Jet) else co[0]
    branch = co[0] * co[1] if q > 0 else jets.exp(co[0]) - co[1]
    return jets.sqrt(co[0] * co[0] + co[1] * co[1]) + branch


def test_pde_residual_gets_marked_points_from_the_scalar_path(monkeypatch):
    # about half the sample sits across the guard from the recorded point,
    # and at the origin apply_xl2 raises, which skips the point
    system = ek.HamiltonianSystem(ek.canonical_structure(2),
                                  ek.ScalarField(lambda co: co[0] * co[0] + co[1] * co[1], 2))
    g = ek.ScalarField(sign_branch_with_a_kink, 2, label="kinked")
    spec = ek.SampleSpec(intervals=((-1.0, 1.0), (-1.0, 1.0)), count=40, seed=8)
    points = ek.sample_points(spec)
    points[5] = 0.0
    assert 5 < apply_xl2_cloud(system, g, points)[1].sum() < 25
    monkeypatch.setattr(verify, "sample_points", lambda spec_, pred: points)
    rep = ek.pde_residual(system, g, 1.0, 0.0, spec)
    vals, kept, skipped = per_point_report(system, g, 1.0, 0.0, points)
    assert rep.skipped == skipped == 1
    assert rep.residuals.tobytes() == vals.tobytes()
    assert rep.points.tobytes() == kept.tobytes()


UNCOVERED_SEEDS = {
    "entry-rule bivector": ek.ScalarField(lambda co: co[0], 2, label="G"),
    "constant seed": ek.ScalarField(lambda co: 2.0, 2, label="G"),
    "seed of another dimension": ek.ScalarField(lambda co: co[0], 3, label="G"),
}


@pytest.mark.parametrize("case", UNCOVERED_SEEDS)
def test_inputs_the_catalog_never_builds_go_point_by_point(case):
    # no catalog entry pairs a seed with an entry-rule bivector or serves a
    # constant seed: apply_xl2_cloud marks every row, so pde_residual takes
    # each point from apply_xl2
    structure = (ek.PoissonStructure(2, entries=lambda co: [[0.0, 1.0], [-1.0, 0.0]])
                 if case == "entry-rule bivector" else ek.canonical_structure(2))
    system = ek.HamiltonianSystem(
        structure, ek.ScalarField(lambda co: 0.5 * (co[0] * co[0] + co[1] * co[1]), 2))
    g = dataclasses.replace(UNCOVERED_SEEDS[case])
    spec = ek.SampleSpec(intervals=((-1.0, 1.0), (-1.0, 1.0)), count=40, seed=11)
    points = ek.sample_points(spec)
    assert len(points) >= verify.CLOUD_MIN_POINTS
    assert apply_xl2_cloud(system, g, points)[1].all()
    rep = ek.pde_residual(system, g, 0.0, 0.5, spec)
    vals, kept, skipped = per_point_report(system, g, 0.0, 0.5, points)
    assert rep.skipped == skipped == (40 if g.dim != 2 else 0)
    assert rep.residuals.tobytes() == vals.tobytes()
    assert rep.points.tobytes() == kept.tobytes()
    if case == "entry-rule bivector":
        # X_L^2 q = -q for the harmonic oscillator, the pair (0, 1/2)
        assert rep.max_residual <= 1e-12


@pytest.mark.parametrize("case", ["entry-rule bivector", "seed of another dimension"])
def test_apply_xl2_cloud_marks_a_cloud_it_cannot_serve_before_either_pass(case, monkeypatch):
    structure = (ek.PoissonStructure(2, entries=lambda co: [[0.0, 1.0], [-1.0, 0.0]])
                 if case == "entry-rule bivector" else ek.canonical_structure(2))
    system = ek.HamiltonianSystem(
        structure, ek.ScalarField(lambda co: 0.5 * (co[0] * co[0] + co[1] * co[1]), 2))
    passes = []
    cloud = jets.ScalarField.jet2_cloud

    def counted(self, points):
        passes.append(self.label)
        return cloud(self, points)

    monkeypatch.setattr(jets.ScalarField, "jet2_cloud", counted)
    points = ek.sample_points(ek.SampleSpec(intervals=((-1.0, 1.0), (-1.0, 1.0)), count=40,
                                            seed=11))
    xl2, marked, l_vals, g_vals = apply_xl2_cloud(system, UNCOVERED_SEEDS[case], points)
    assert passes == []
    assert marked.dtype == bool and marked.tolist() == [True] * 40
    for column in (xl2, l_vals, g_vals):
        assert column.dtype == float and column.tolist() == [0.0] * 40
