"""The compiled first-order kernel of ``ScalarField.jet1`` against the jet path.

From its first call on, ``jet1`` replays a tape of the scalar operations
that one run of the field's ``fn`` on jets made.  These tests hold it to the
jet path bit for bit: values, gradients, error classes and messages, on
every catalog field and on the data-dependent decisions a tape has to guard.
"""
import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import jets

CHECK_KN_BOX = ((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2))


def catalog_fields():
    """(entry key, field, box) for every catalog field, the local seed included."""
    out = []
    for key in ek.entry_ids():
        b = ek.instantiate(key)
        box = ek.get_entry(key).default_box
        for f in [b.system.hamiltonian, *b.system.observables.values(),
                  *(s.field for s in b.seeds)]:
            out.append((key, f, box))
        if key == "euler_top":
            out.append((key, b.meta["local_seed_builder"](0.0, -0.5), CHECK_KN_BOX))
    return out


FIELDS = catalog_fields()


def jets_only(field):
    """A copy of ``field`` that holds no kernel and never records one: its
    ``value_grad`` runs ``fn`` on jets at every call."""
    f = dataclasses.replace(field)
    f._kernel = (f.fn, False)
    return f


def on_jets(field, x):
    """What the jet path gives at ``x``."""
    return jets_only(field).jet1(x)


def outcome(call):
    """``("ok", value, gradient)``, or ``("raised", class, message)``."""
    try:
        j = call()
    except ek.EvaluationError as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", j.value, j.grad)


def assert_same(got, want):
    """Equal outcomes, bit for bit: the same value and gradient entries, of the
    same Python types, or the same error class and message."""
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
        return
    (_, v, g), (_, w, h) = got, want
    assert type(v) is type(w) and v == w
    assert np.array(v).tobytes() == np.array(w).tobytes()  # signed zeros too
    assert g.dtype == h.dtype and g.tobytes() == h.tobytes()
    assert [type(a) for a in g.tolist()] == [type(a) for a in h.tolist()]
    assert g.tolist() == h.tolist()


def assert_parity(field, points):
    """Call ``jet1`` of a fresh copy of ``field`` at each point in turn, and
    hold every call, the first (the recording) included, to the jet path at
    the same point.  While the copy has a kernel, its raw output must also
    equal ``fn``'s on seeded jets entry by entry, each of the same Python
    type."""
    f = dataclasses.replace(field)
    for x in points:
        got = outcome(lambda: f.jet1(x))
        want = outcome(lambda: on_jets(field, x))
        assert_same(got, want)
        kernel = f._kernel[1]
        if got[0] == "ok" and callable(kernel):
            xs = np.asarray(x, dtype=float).tolist()
            out = field.fn(jets._seeds(xs))
            value, grad = kernel(xs)
            if not isinstance(out, ek.Jet):
                assert grad is None and type(value) is type(out) and value == out
                continue
            assert type(value) is type(out.value) and value == out.value
            assert len(grad) == len(out.grad)
            for a, b in zip(grad, out.grad):
                assert type(a) is type(b) and a == b
    return f


def boxed_points(box, size):
    return st.lists(st.tuples(*(st.floats(a, b) for a, b in box)),
                    min_size=size, max_size=size)


@pytest.mark.parametrize("key, field, box", FIELDS, ids=[f.label for _, f, _ in FIELDS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_jet_path_on_every_catalog_field(key, field, box, data):
    points = data.draw(boxed_points(box, 6))
    f = assert_parity(field, [np.array(p) for p in points])
    if field.label != "euler_top.localG":
        # Carlson's loop count varies from point to point; no other field
        # makes a decision that the default box can flip
        kept = [p for p in points if outcome(lambda: on_jets(field, np.array(p)))[0] == "ok"]
        if len(kept) == len(points):
            assert callable(f._kernel[1]), field.label


@pytest.mark.parametrize("key, field, box", FIELDS, ids=[f.label for _, f, _ in FIELDS])
def test_the_first_call_of_a_fresh_copy_runs_the_kernel_on_every_catalog_field(key, field,
                                                                                box):
    # the recording and the kernel's first run are one call: at the first
    # point a fresh copy is asked, it already gives the jet path's bits
    rng = np.random.default_rng(7)
    x = next(x for x in (np.array([rng.uniform(a, b) for a, b in box]) for _ in range(50))
             if outcome(lambda: on_jets(field, x))[0] == "ok")
    f = assert_parity(field, [x])
    assert callable(f._kernel[1]), field.label


def test_the_jet_path_reference_runs_fn_at_every_call_and_holds_no_kernel():
    # negative control: a fresh copy runs fn once, to record it, and its
    # kernel from then on; the reference runs fn on jets at every call
    fn, calls = counted(lambda co: co[0] * jets.sin(co[1]))
    field = ek.ScalarField(fn, 2, label="ref")
    ref, fresh = jets_only(field), dataclasses.replace(field)
    points = [[0.3, 0.4], [0.5, -0.6], [0.7, 0.9]]
    for x in points:
        ref.jet1(x)
    assert len(calls) == 3 and ref._kernel == (fn, False)
    for x in points:
        fresh.jet1(x)
    assert len(calls) == 4 and callable(fresh._kernel[1])


HAMILTONIANS = [(ek.instantiate(key).system.hamiltonian, ek.get_entry(key).default_box)
                for key in ek.entry_ids()]


def value_outcome(call):
    """``("ok", type, bytes)`` of a value, or ``("raised", class, message)``."""
    try:
        v = call()
    except ek.EvaluationError as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", type(v), np.array(v).tobytes())


@pytest.mark.parametrize("field, box", HAMILTONIANS, ids=[f.label for f, _ in HAMILTONIANS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_value_is_value_grads_value_on_every_catalog_hamiltonian(field, box, data):
    # H takes L from value where K kept no base part, and from value_grad's
    # value where it kept one: the same bits and type, or the same error, on
    # the jet path, at the recording and on the kernel, zeros included
    points = [list(p) for p in data.draw(boxed_points(box, 4))]
    points += [[0.0 if k == i else v for k, v in enumerate(p)]
               for p in points for i in range(len(p))]
    f = dataclasses.replace(field)
    for g in (f, jets_only(field)):
        for xs in points:
            assert value_outcome(lambda: g.value(xs)) == \
                value_outcome(lambda: g.value_grad(xs)[0]), (field.label, xs)
    assert f._kernel[1] is not None


def field_by_label(label):
    return next(f for _, f, _ in FIELDS if f.label == label)


@pytest.mark.parametrize("label, points, raised", [
    # q ** 7 overflows far from the pole
    ("quartic2b.L", [[0.5, 0.3], [0.7, -0.2], [1e60, 0.3]], ek.NonFiniteError),
    # on the singular set y2 = 0, and where 4 x1^2 + y2^2 / k^2 rounds to 0
    ("vortex_opposite.L", [[0.7, 0.3, 0.8, 0.5], [0.6, 0.2, 0.7, 0.4],
                           [0.7, 0.3, 0.8, 0.0], [0.0, 0.3, 0.8, 1e-300]],
     ek.EvaluationError),
    ("vortex_opposite.G", [[0.7, 0.3, 0.8, 0.5], [0.6, 0.2, 0.7, 0.4],
                           [0.7, 0.3, 0.8, 0.0]], ek.SingularPointError),
])
def test_kernel_raises_what_the_jet_path_raises(label, points, raised):
    field = field_by_label(label)
    f = assert_parity(field, [np.array(p) for p in points])
    assert callable(f._kernel[1])
    with pytest.raises(raised):
        f.jet1(points[-1])


def test_a_finite_result_whose_entries_sum_past_the_largest_float_is_kept():
    # value_grad first tests the sum of the value and gradient entries, which
    # overflows here though every entry is finite: the entries are then tested
    # one by one, and the result stands
    field = ek.ScalarField(lambda co: 1e308 * co[0] + 1e308 * co[1], 2, label="wide")
    points = [[0.5, -0.5], [0.25, -0.25], [0.75, -0.75], [0.9, 0.9]]
    f = assert_parity(field, [np.array(p) for p in points])
    assert callable(f._kernel[1])
    assert f.value_grad([0.5, -0.5]) == (0.0, (1e308, 1e308))
    with pytest.raises(ek.NonFiniteError, match="wide overflows"):
        f.value_grad([0.9, 0.9])


def test_log_at_zero_raises_from_the_kernel():
    f = assert_parity(ek.ScalarField(lambda co: jets.log(co[0]) * co[1], 2, label="lg"),
                      [[0.5, 2.0], [0.25, 3.0], [0.0, 1.0], [0.75, 1.0]])
    assert callable(f._kernel[1])
    with pytest.raises(ek.EvaluationError, match="logarithm evaluated at zero"):
        f.jet1([0.0, 1.0])


def test_parity_check_fails_on_a_kernel_that_records_a_minus_b_as_b_minus_a(monkeypatch):
    # negative control: a tape that swaps the operands of one subtraction
    field = field_by_label("quartic1.L")
    points = [np.array(p) for p in ([0.3, 0.2], [0.5, -0.4], [-0.6, 0.9])]
    assert_parity(field, points)
    monkeypatch.setattr(jets._Var, "__sub__", jets._var_binary("-", operator.sub, True))
    with pytest.raises(AssertionError):
        assert_parity(field, points)


def test_parity_check_fails_on_a_closure_constant_changed_after_compiling():
    # negative control: a field that breaks the contract of fn
    scale = [2.0]
    f = ek.ScalarField(lambda co: scale[0] * co[0] * co[1], 2, label="scaled")
    f.jet1([0.3, 0.4])
    scale[0] = 3.0
    with pytest.raises(AssertionError):
        assert_same(outcome(lambda: f.jet1([0.5, 0.6])),
                    outcome(lambda: on_jets(f, [0.5, 0.6])))


# ------------------------------------------------------- guards and fallback


def counted(fn):
    calls = []

    def wrapped(co):
        calls.append(1)
        return fn(co)

    return wrapped, calls


def test_power_sign_guard_sends_the_field_to_jets_for_good():
    def root(co):
        return co[0] ** 0.5

    fn, calls = counted(root)
    f = ek.ScalarField(fn, 1, label="root")
    ref = ek.ScalarField(root, 1, label="root")
    assert_same(outcome(lambda: f.jet1([0.3])), outcome(lambda: on_jets(ref, [0.3])))
    assert callable(f._kernel[1]) and len(calls) == 1  # the recording, then its kernel
    assert_same(outcome(lambda: f.jet1([0.4])), outcome(lambda: on_jets(ref, [0.4])))
    assert len(calls) == 1
    j = f.jet1([-0.2])
    assert type(j.value) is complex
    assert_same(("ok", j.value, j.grad), outcome(lambda: on_jets(ref, [-0.2])))
    assert len(calls) == 2  # the guard failed and this call ran on jets
    assert_same(outcome(lambda: f.jet1([0.5])), outcome(lambda: on_jets(ref, [0.5])))
    assert len(calls) == 3 and f._kernel[1] is False


def branch_on_sign(co):
    return co[0] * co[1] if co[0].value > 0 else jets.exp(co[0]) - co[1]


def branch_on_zero(co):
    return co[1] + 0.0 * co[0] if co[0].value == 0.0 else jets.sin(co[0]) / co[0] * co[1]


def needs_a_float(co):
    return co[0] * math.sin(co[0].value) + co[1]


@pytest.mark.parametrize("fn, points, compiled", [
    (branch_on_sign, [[0.5, 1.0], [0.7, 2.0], [0.2, -1.0], [-0.3, 1.0], [0.4, 1.0]], False),
    (branch_on_sign, [[-0.5, 1.0], [-0.7, 2.0], [-0.2, -1.0], [0.0, 1.0]], True),
    (branch_on_zero, [[0.2, 1.0], [0.4, 2.0], [0.6, 1.5], [0.0, 1.0], [0.6, 1.0]], False),
    (branch_on_zero, [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.1, 1.0]], False),
    (needs_a_float, [[0.2, 1.0], [0.4, 2.0], [-0.6, 1.5]], False),
], ids=["sign-flips", "sign-holds", "zero-reached", "zero-left", "math-on-a-value"])
def test_decisions_on_values_match_the_jet_path_at_every_call(fn, points, compiled):
    f = ek.ScalarField(fn, 2, label="branchy")
    for x in points:
        assert_same(outcome(lambda: f.jet1(x)), outcome(lambda: on_jets(f, x)))
    assert callable(f._kernel[1]) is compiled


def test_reassigning_fn_drops_the_kernel():
    f = ek.ScalarField(lambda co: co[0] * co[1], 2, label="swap")
    f.jet1([0.3, 0.4])
    assert callable(f._kernel[1])
    f.fn = lambda co: co[0] - co[1]
    for x in ([0.5, 0.25], [0.5, 0.25], [0.75, 2.0]):
        assert_same(outcome(lambda: f.jet1(x)), outcome(lambda: on_jets(f, x)))
        assert f.jet1(x).value == x[0] - x[1]


def test_a_field_that_returns_a_number_compiles_to_a_constant():
    f = ek.ScalarField(lambda co: 5.0, 2, label="five")
    for x in ([0.3, 0.4], [0.5, 0.6], [0.7, 0.8]):
        j = f.jet1(x)
        assert j.value == 5.0 and j.grad.tolist() == [0.0, 0.0]
    assert callable(f._kernel[1])
