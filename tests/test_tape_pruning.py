"""The pruned op list of a recorded tape against the whole tape.

``_Tape.pruned`` shortens the ops that the first-order kernels and the cloud
replay run.  These tests hold a kernel and a replay built from the pruned
ops to ones built from every recorded op, bit for bit: values, gradients,
Hessians, the cloud's mask and, where the kernel raises, the error class
and message.  Two pruners that go too far, one that drops a dead division
and one that merges ops on different operands, fail the same checks.
"""
import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extkit as ek
from extkit import jets
from test_jet1_kernel import FIELDS, boxed_points, jets_only

PRUNED = jets._Tape.pruned


def whole(tape, wanted):
    """The pruner that keeps every op."""
    return list(tape.ops), list(wanted)


def dropping_dead_divisions(tape, wanted):
    """``pruned``, then every op whose result nothing reads dropped, a
    division too."""
    ops, wanted = PRUNED(tape, wanted)
    read, kept = set(wanted), []
    for op in reversed(ops):
        if op[0] in jets._COMPARE or op[1] in read:
            kept.append(op)
            read.update(op[2:])
    return kept[::-1], wanted


def merging_on_the_first_operand(tape, wanted):
    """``pruned``, then binary ops of one kind on the same first operand merged."""
    ops, wanted = PRUNED(tape, wanted)
    alias, seen, kept = {}, {}, []
    for op, dest, a, b in ops:
        a, b = alias.get(a, a), alias.get(b, b)
        if op in jets._BINARY:
            if (op, a) in seen:
                alias[dest] = seen[op, a]
                continue
            seen[op, a] = dest
        kept.append((op, dest, a, b))
    return kept, [alias.get(r, r) for r in wanted]


@contextlib.contextmanager
def pruning(pruner):
    jets._Tape.pruned = pruner
    try:
        yield
    finally:
        jets._Tape.pruned = PRUNED


def first_order(field, pruner, points) -> list:
    """``value_grad`` at each point for a copy of ``field`` whose kernel,
    recorded at the first point off the singular set, runs the ops ``pruner``
    leaves: per point ``("ok", value bits, gradient bits, entry types, kernel
    kept)`` or ``("raised", class, message, kernel kept)``."""
    f = dataclasses.replace(field)
    out = []
    with pruning(pruner):
        for p in points:
            try:
                value, grad = f.value_grad([float(v) for v in p])
                got = ("ok", np.array(value).tobytes(), np.array(grad).tobytes(),
                       [type(v) for v in (value, *grad)])
            except ek.EvaluationError as exc:
                got = ("raised", type(exc), str(exc))
            out.append(got + (callable(f._kernel[1]),))
    return out


def cloud(field, pruner, points) -> list:
    """``jet2_cloud``'s values, gradients, Hessians and mask for a copy of
    ``field`` whose replay, recorded at the first point, runs the ops
    ``pruner`` leaves, as (dtype, bytes) pairs."""
    with pruning(pruner):
        arrays = dataclasses.replace(field).jet2_cloud(np.array(points, dtype=float))
    return [(a.dtype, a.tobytes()) for a in arrays]


def with_zeros(points: list) -> list:
    """``points``, then each point with one coordinate set to 0.0 or
    -0.0 in turn: where the catalog's divisions and logarithms raise."""
    out = [list(p) for p in points]
    for p in points:
        for i in range(len(p)):
            for zero in (0.0, -0.0):
                out.append([zero if k == i else v for k, v in enumerate(p)])
    return out


@pytest.mark.parametrize("key, field, box", FIELDS, ids=[f.label for _, f, _ in FIELDS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_pruned_kernel_is_the_whole_tapes(key, field, box, data):
    points = with_zeros(data.draw(boxed_points(box, 4)))
    assert first_order(field, PRUNED, points) == first_order(field, whole, points)


@pytest.mark.parametrize("key, field, box", FIELDS, ids=[f.label for _, f, _ in FIELDS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_pruned_replay_is_the_whole_tapes(key, field, box, data):
    points = with_zeros(data.draw(boxed_points(box, 4)))
    assert cloud(field, PRUNED, points) == cloud(field, whole, points)


def resolved(field, points, arrays) -> list:
    """Each row of ``jet2_cloud``'s output ``arrays`` as its caller takes it:
    an unmarked row's value, gradient and Hessian, and at a marked row what
    ``jet2`` gives or raises there; numbers as (type or dtype, bytes)."""
    values, grads, hessians, marked = arrays
    out = []
    for i, x in enumerate(points):
        if marked[i]:
            try:
                j = field.jet2(x)
            except ek.EvaluationError as exc:
                out.append(("raised", type(exc), str(exc)))
                continue
            value, grad, hess = j.value, j.grad, j.hess
        else:
            value, grad, hess = values.tolist()[i], grads[i], hessians[i]
        out.append((type(value), np.array(value).tobytes(), grad.dtype, grad.tobytes(),
                    hess.dtype, hess.tobytes()))
    return out


@pytest.mark.parametrize("key, field, box", FIELDS, ids=[f.label for _, f, _ in FIELDS])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_a_kept_replay_gives_every_cloud_what_a_recording_of_its_own_gives(key, field, box,
                                                                          data):
    # one field on clouds in turn, its replay recorded at the first, against a
    # copy that records at each cloud's first row; the rows are shuffled, so
    # either recording may meet a zero first
    f = dataclasses.replace(field)
    for _ in range(3):
        points = data.draw(st.permutations(with_zeros(data.draw(boxed_points(box, 2)))))
        fresh = dataclasses.replace(field).jet2_cloud(np.array(points, dtype=float))
        kept = f.jet2_cloud(np.array(points, dtype=float))
        assert resolved(field, points, kept) == resolved(field, points, fresh)


def dead_division(co):
    1.0 / co[0]  # read by nothing, but it raises at co[0] == 0
    return co[0] * co[1]


@pytest.mark.parametrize("check", [first_order, cloud], ids=["kernel", "replay"])
def test_a_pruner_that_drops_a_dead_division_fails_at_its_zero(check):
    field = ek.ScalarField(dead_division, 2, label="dead_division")
    points = [[0.5, 2.0], [0.0, 2.0]]
    assert check(field, PRUNED, points) == check(field, whole, points)
    assert check(field, dropping_dead_divisions, points) != check(field, whole, points)


@pytest.mark.parametrize("check", [first_order, cloud], ids=["kernel", "replay"])
def test_a_pruner_that_merges_ops_on_different_operands_fails(check):
    field = next(f for _, f, _ in FIELDS if f.label == "quartic1.L")
    points = [[0.5, -0.7], [1.2, 0.3]]
    assert check(field, PRUNED, points) == check(field, whole, points)
    assert check(field, merging_on_the_first_operand, points) != check(field, whole, points)


@pytest.mark.parametrize("second_order", [False, True], ids=["first", "second"])
def test_pruning_shortens_every_catalog_tape_and_leaves_nothing_to_fold(second_order):
    # every recorded op reads a tape scalar, and no pruning step makes one a
    # constant, so no kept op reads constants alone
    shorter = 0
    for _, field, box in FIELDS:
        xs = [0.5 * (a + b) for a, b in box]
        tape, out = jets._record(field.fn, xs, second_order)
        value, grad, hess = tape.outputs(out, field.dim, second_order)
        ops, _ = tape.pruned([value, *grad, *(hess or ())])
        consts = set(tape.consts)
        assert all(not {a, b} <= consts | {None} for op, _, a, b in ops if op != "call")
        assert all(a not in consts for op, _, a, _ in ops if op == "call")
        shorter += len(ops) < len(tape.ops)
    assert shorter == len(FIELDS) - 2  # the observables X1t and Y2t record no op


def square(co):
    return co[0] * co[0]  # its gradient is co[0] * 1.0 + co[0] * 1.0


@pytest.mark.parametrize("point", [[complex(-0.0, -1.0)], [3]], ids=["complex", "int"])
def test_a_coordinate_that_is_not_a_float_gets_the_jet_path(point):
    # the pruned kernel reads co[0] * 1.0 as co[0], which holds for a float
    # co[0] only: (-0-1j) * 1.0 is (0-1j) and 3 * 1.0 is 3.0
    f = ek.ScalarField(square, 1)
    for _ in range(3):
        f.value_grad([0.5])
    assert callable(f._kernel[1])
    want = jets_only(f).value_grad(point)
    got = f.value_grad(point)
    assert [type(v) for v in (got[0], *got[1])] == [type(v) for v in (want[0], *want[1])]
    assert np.array(got, dtype=object).tolist() == np.array(want, dtype=object).tolist()
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()


def test_a_value_that_turns_complex_keeps_its_times_one():
    # sqrt of a negative float is complex, so the pruner keeps x * 1.0 on
    # what follows it: at co[0] = -4, -sqrt(co[0]) is (-0-2j) and
    # (-0-2j) * 1.0 is (0-2j)
    def fn(co):
        return -jets.sqrt(co[0]) * 1.0

    f = ek.ScalarField(fn, 1)
    for _ in range(3):
        f.value_grad([4.0])
    assert callable(f._kernel[1])
    got, want = f.value_grad([-4.0]), jets_only(f).value_grad([-4.0])
    assert np.array(got, dtype=object).tolist() == np.array(want, dtype=object).tolist()
    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
    assert np.array(want[0]).tobytes() == np.array(complex(0.0, -2.0)).tobytes()
