"""The scalar query path (kset, evaluate, oracle.query, predict) against the
vectorized evaluate_many, and its rejection of malformed queries."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicelab.active import RecoveredModel, predict
from choicelab.core import (
    InvalidQueryError,
    LatentOrder,
    PositionSelector,
    _check_query,
    _ranked,
    evaluate,
    evaluate_many,
)
from choicelab.oracles import (
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    ObservationBatch,
)
from choicelab.passive import answer_many, build_partial_order

# How a caller may hand over a k-set: Python containers or numpy-int arrays.
FORMS = (tuple, list, np.int64, np.int32, np.uint16)


def as_form(members, form):
    if form in (tuple, list):
        return form(members)
    return np.asarray(members, dtype=form)


@st.composite
def scalar_cases(draw):
    """A latent order, a position and a list of unsorted k-sets over it."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 40))
    ell = draw(st.integers(1, k))
    ascending = draw(st.permutations(range(n)))
    sets = draw(st.lists(st.permutations(range(n)).map(lambda p: p[:k]), min_size=1, max_size=20))
    return ascending, ell, sets


def true_model(order: LatentOrder, k: int, ell: int) -> RecoveredModel:
    """The model exact recovery would return for this order and position."""
    asc = order.ascending.tolist()
    low, high = ell - 1, order.n - (k - ell)
    return RecoveredModel(
        eligible_order=tuple(asc[low:high]),
        position_hat=ell,
        top_ineligible=tuple(asc[high:]),
        bottom_ineligible=tuple(asc[:low]),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(case=scalar_cases(), form=st.sampled_from(FORMS))
def test_scalar_answers_equal_evaluate_many(case, form):
    ascending, ell, sets = case
    order = LatentOrder(ascending)
    selector = PositionSelector(len(sets[0]), ell)
    want = evaluate_many(selector, order, np.array(sets)).tolist()

    oracle = DeterministicOracle(selector, order)
    answers = [oracle.query(as_form(s, form)) for s in sets]
    assert answers == want
    assert all(type(a) is int for a in answers)
    assert oracle.query_count == len(sets)
    assert [evaluate(selector, order, as_form(s, form)) for s in sets] == want
    model = true_model(order, selector.k, ell)
    assert [predict(model, as_form(s, form)) for s in sets] == want


BAD_QUERIES = {
    "duplicate": (1, 1, 2),
    "too-small": (0, 1),
    "too-large": (0, 1, 2, 3),
    "out-of-range": (0, 1, 6),
    "negative": (-1, 1, 2),
    "float-ids": (0.5, 1.9, 3),
    "integral-floats": (0.0, 1.0, 2.0),
    "float-array": np.array([0.0, 1.0, 2.0]),
    "bool-true": (True, 2, 3),
    "bool-false": [False, 1, 2],
}


def deterministic():
    return DeterministicOracle(PositionSelector(3, 2), LatentOrder.identity(6))


def mixed():
    return MixedOracle(LatentOrder.identity(6), MixtureDistribution((0.5, 0.3, 0.2), 0.09), 0)


ENTRY_POINTS = {
    "DeterministicOracle.query": (deterministic, lambda oracle, s: oracle.query(s)),
    "MixedOracle.query": (mixed, lambda oracle, s: oracle.query(s)),
    "MixedOracle.query_repeated": (mixed, lambda oracle, s: oracle.query_repeated(s, 5)),
    "MixedOracle.query_until": (mixed, lambda oracle, s: oracle.query_until(s, (1, 2), 5)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", BAD_QUERIES)
def test_malformed_query_rejected_uncounted(entry, bad):
    make, call = ENTRY_POINTS[entry]
    oracle = make()
    for s in ((0, 1, 2), (3, 4, 5), (1, 2, 4)):
        oracle.query(s)
    with pytest.raises(InvalidQueryError):
        call(oracle, BAD_QUERIES[bad])
    assert oracle.query_count == 3


def reference_ranked3(order: LatentOrder, s) -> list:
    """The general path for a 3-set query, the reference for the k=3 kernel."""
    return sorted(_check_query(3, order.n, s), key=order._rank_list.__getitem__)


# Fresh objects each call: an iterator is spent by the first path to read it.
KERNEL_FORMS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda s: (x for x in s),
    "int64": lambda s: np.asarray(s, dtype=np.int64),
    "int32": lambda s: np.asarray(s, dtype=np.int32),
    "uint16": lambda s: np.asarray(s, dtype=np.uint16),
}


@pytest.mark.parametrize("form", KERNEL_FORMS)
def test_kernel_answers_match_general_path(form):
    make = KERNEL_FORMS[form]
    rng = np.random.default_rng(22)
    for order in [LatentOrder.identity(7), LatentOrder.identity(7).reversed()] + [
        LatentOrder.random(7, rng) for _ in range(4)
    ]:
        # every 3-subset, in each of its six input orders
        for s in itertools.permutations(range(7), 3):
            want = reference_ranked3(order, make(s))
            got = _ranked(3, order, make(s))
            assert list(got) == want
            assert all(type(x) is int for x in got)
            for position in (1, 2, 3):
                answer = evaluate(PositionSelector(3, position), order, make(s))
                assert answer == want[position - 1]
                assert type(answer) is int


MALFORMED_3SETS = {
    **{name: (lambda s=s: s) for name, s in BAD_QUERIES.items()},
    "two-member-iterator": lambda: iter((0, 1)),
    "four-member-iterator": lambda: iter((0, 1, 2, 3)),
    "four-member-generator-duplicate": lambda: (x for x in (0, 1, 1, 2)),
    "three-member-generator-out-of-range": lambda: (x for x in (0, 1, 6)),
    "string": lambda: "012",
    "string-of-three": lambda: ("0", "1", "2"),
    "row-array": lambda: np.array([[0, 1, 2]]),
    "column-array": lambda: np.array([[0], [1], [2]]),
    "square-array": lambda: np.arange(9).reshape(3, 3),
    "scalar-array": lambda: np.array(5),
    "not-iterable": lambda: 5,
    "none": lambda: None,
    "numpy-bool-ids": lambda: (np.True_, 2, 3),
    "bool-array": lambda: np.array([True, False, True]),
    "object-array-bool": lambda: np.array([True, 2, 3], dtype=object),
    "duplicate-and-out-of-range": lambda: (1, 1, 9),
    "float-and-out-of-range": lambda: (0.5, 1, 9),
    "huge-id": lambda: (0, 1, 2**70),
    "negative-numpy": lambda: np.array([-1, 2, 3]),
}


@pytest.mark.parametrize("bad", MALFORMED_3SETS)
def test_kernel_rejects_as_general_path(bad):
    make = MALFORMED_3SETS[bad]
    order = LatentOrder.identity(6)
    with pytest.raises(InvalidQueryError) as want:
        reference_ranked3(order, make())
    with pytest.raises(InvalidQueryError) as got:
        _ranked(3, order, make())
    assert str(got.value) == str(want.value)
    for entry in ENTRY_POINTS:
        oracle_for, call = ENTRY_POINTS[entry]
        oracle = oracle_for()
        oracle.query((0, 1, 2))
        with pytest.raises(InvalidQueryError) as raised:
            call(oracle, make())
        assert str(raised.value) == str(want.value)
        assert oracle.query_count == 1


BAD_COUNTS = {
    "float": 2.7,
    "integral-float": 2.0,
    "numpy-float": np.float64(3.0),
    "string": "3",
    "negative": -1,
    "negative-numpy": np.int64(-5),
    "bool": True,
    "bool-false": False,
    "numpy-bool": np.True_,
}

COUNT_ENTRY_POINTS = {
    "MixedOracle.query_repeated": lambda oracle, count: oracle.query_repeated((0, 1, 2), count),
    "MixedOracle.query_until": lambda oracle, count: oracle.query_until((0, 1, 2), (1, 2), count),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_bad_count_rejected_before_any_draw(entry, bad):
    oracle = mixed()
    oracle.query((0, 1, 2))
    state = oracle._rng.bit_generator.state
    with pytest.raises(InvalidQueryError):
        COUNT_ENTRY_POINTS[entry](oracle, BAD_COUNTS[bad])
    assert oracle.query_count == 1
    assert oracle._rng.bit_generator.state == state


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
@pytest.mark.parametrize("count", [0, 3, np.int64(3), np.uint8(3)])
def test_integer_count_accepted(entry, count):
    out = COUNT_ENTRY_POINTS[entry](mixed(), count)
    answers = out[0] if isinstance(out, tuple) else out
    assert len(answers) == sum(answers.counts) == int(count)
    assert all(type(c) is int for c in answers.counts)


BAD_PAIRS = {
    "floats": (1.0, 2.0),
    "numpy-floats": (np.float64(1), np.float64(2)),
    "one-float": (1, 2.0),
    "strings": ("1", "2"),
    "one-id": (1,),
    "three-ids": (0, 1, 2),
    "not-a-pair": 1,
    "outside-the-set": (1, 3),
    "numpy-outside-the-set": (np.int64(1), np.int64(3)),
    "same-id": (2, 2),
    "same-id-outside-the-set": (3, 3),
    "same-id-numpy-and-int": (np.int64(2), 2),
}


@pytest.mark.parametrize("bad", BAD_PAIRS)
def test_bad_pair_rejected_before_any_draw(bad):
    oracle = mixed()
    oracle.query((0, 1, 2))
    state = oracle._rng.bit_generator.state
    with pytest.raises(InvalidQueryError):
        oracle.query_until((0, 1, 2), BAD_PAIRS[bad], 5)
    assert oracle.query_count == 1
    assert oracle._rng.bit_generator.state == state


def test_integer_pair_answers_are_integers():
    answers, _ = mixed().query_until((0, 1, 2), (np.int64(1), np.uint8(2)), 5)
    assert answers.members == (1, 2)
    assert all(type(x) is int for x in answers.members + answers.counts)
    assert answers.count(1) + answers.count(2) == len(answers) == 5


BAD_ROWS = {
    "negative": [[-1, 0, 1]],
    "too-large": [[0, 1, 6]],
    "among-valid": [[0, 1, 2], [3, 4, 6]],
    "wrong-width": [[0, 1]],
    "duplicate": [[1, 1, 2]],
    "duplicate-among-valid": [[0, 1, 2], [3, 5, 3]],
}


@pytest.mark.parametrize("bad", BAD_ROWS)
def test_vectorized_malformed_sets_rejected_uncounted(bad):
    selector, order = PositionSelector(3, 2), LatentOrder.identity(6)
    with pytest.raises(InvalidQueryError):
        evaluate_many(selector, order, BAD_ROWS[bad])
    oracle = deterministic()
    oracle.query_many(np.array([(0, 1, 2), (3, 4, 5)]))
    with pytest.raises(InvalidQueryError):
        oracle.query_many(np.array(BAD_ROWS[bad]))
    assert oracle.query_count == 2


def inferred():
    """A partial order over 6 ids, anchored at 0, with every free pair observed."""
    sets = np.array([(0, u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    answers = evaluate_many(PositionSelector(3, 2), LatentOrder.identity(6), sets)
    return build_partial_order(ObservationBatch(sets, answers, 6), (0,), 2)


VECTORIZED = {
    "evaluate_many": lambda rows: evaluate_many(
        PositionSelector(3, 2), LatentOrder.identity(6), rows
    ),
    "query_many": lambda rows: deterministic().query_many(rows),
    "answer_many": lambda rows: answer_many(inferred(), rows, 2),
    "ObservationBatch": lambda rows: ObservationBatch(rows, np.array([1]), 6),
}


@pytest.mark.parametrize("entry", VECTORIZED)
@pytest.mark.parametrize(
    "rows", [[[0.5, 1.7, 2.2]], [[0.0, 1.0, 2.0]]], ids=["fractional", "integral"]
)
def test_vectorized_float_ids_rejected(entry, rows):
    # the vectorized paths refuse what the scalar path refuses, integral floats too
    with pytest.raises(InvalidQueryError, match="ids must be integers"):
        deterministic().query(tuple(rows[0]))
    with pytest.raises(InvalidQueryError, match="ids must be integers"):
        VECTORIZED[entry](np.array(rows))
