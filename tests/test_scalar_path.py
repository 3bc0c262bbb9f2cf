"""The scalar query path (kset, evaluate, oracle.query, predict) against the
vectorized evaluate_many, and its rejection of malformed queries."""

import enum
import itertools
from collections import namedtuple

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
    kset,
)
from choicelab.distance import MetricPoints, PairDistanceOracle, feasibility_check, pair_id
from choicelab.harness import sorting_lower_bound
from choicelab.mixture import discard_round_repetitions, repetition_count
from choicelab.oracles import (
    DeterministicOracle,
    MixedOracle,
    MixtureDistribution,
    ObservationBatch,
    StreamConfig,
    all_ksets,
    largest_binomial,
    revealing_counts,
    unrank_combinations,
)
from choicelab.passive import answer_many, build_partial_order
from choicelab.stats import clopper_pearson

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


def reference_ranked(k: int, order: LatentOrder, s) -> list:
    """The general path for a k-set query, the reference for both kernels."""
    return sorted(_check_query(k, order.n, s), key=order._rank_list.__getitem__)


class Id(enum.IntEnum):
    """Integer ids as enum members: integers, but not of exact type int."""

    ZERO, ONE, TWO, THREE, FOUR, FIVE, SIX, SEVEN, EIGHT, NINE = range(10)


class SubInt(int):
    """A user int subclass: an integer, but not of exact type int."""


Triple = namedtuple("Triple", "a b c")

# Fresh objects each call: an iterator is spent by the first path to read it.
KERNEL_FORMS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda s: (x for x in s),
    "int64": lambda s: np.asarray(s, dtype=np.int64),
    "int32": lambda s: np.asarray(s, dtype=np.int32),
    "uint16": lambda s: np.asarray(s, dtype=np.uint16),
    "namedtuple": lambda s: Triple(*s),
    "intenum-tuple": lambda s: tuple(map(Id, s)),
    "intenum-list": lambda s: list(map(Id, s)),
    "int-subclass-tuple": lambda s: tuple(map(SubInt, s)),
    "numpy-int-tuple": lambda s: tuple(map(np.int64, s)),
    "int-and-numpy-tuple": lambda s: (s[0], np.int32(s[1]), np.uint8(s[2])),
    "intenum-and-int-namedtuple": lambda s: Triple(Id(s[0]), s[1], SubInt(s[2])),
}

MIXTURE = MixtureDistribution((0.5, 0.3, 0.2), 0.09)


def entry_outcomes(order, make, pair):
    """What the four oracle entry points give for the query make(), with
    their query counts: DeterministicOracle.query at each position, and
    MixedOracle.query, query_repeated and query_until from one seed."""
    out = []
    for position in (1, 2, 3):
        oracle = DeterministicOracle(PositionSelector(3, position), order)
        out.append((oracle.query(make()), oracle.query_count))
    oracle = MixedOracle(order, MIXTURE, 36)
    out.append((oracle.query(make()), oracle.query_count))
    oracle = MixedOracle(order, MIXTURE, 36)
    answers = oracle.query_repeated(make(), 5)
    out.append((answers.members, answers.counts, oracle.query_count))
    oracle = MixedOracle(order, MIXTURE, 36)
    answers, raw = oracle.query_until(make(), pair, 5)
    out.append((answers.members, answers.counts, raw, oracle.query_count))
    return out


def all_ints(value) -> bool:
    if isinstance(value, tuple):
        return all(map(all_ints, value))
    return type(value) is int


@pytest.mark.parametrize("form", KERNEL_FORMS)
def test_kernel_answers_match_general_path(form):
    make = KERNEL_FORMS[form]
    rng = np.random.default_rng(22)
    for order in [LatentOrder.identity(7), LatentOrder.identity(7).reversed()] + [
        LatentOrder.random(7, rng) for _ in range(4)
    ]:
        # every 3-subset, in each of its six input orders
        for s in itertools.permutations(range(7), 3):
            want = reference_ranked(3, order, make(s))
            got = _ranked(3, order, make(s))
            assert list(got) == want
            assert all(type(x) is int for x in got)
            for position in (1, 2, 3):
                answer = evaluate(PositionSelector(3, position), order, make(s))
                assert answer == want[position - 1]
                assert type(answer) is int
            # an iterator takes the general path at every entry point
            outcomes = entry_outcomes(order, lambda: make(s), s[:2])
            assert outcomes == entry_outcomes(order, lambda: iter(s), s[:2])
            assert [answer for answer, _ in outcomes[:3]] == want
            assert all(map(all_ints, outcomes))


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
    "bool-last-with-ints": lambda: (0, 1, True),
    "bool-middle-list": lambda: [0, False, 2],
    "bool-with-numpy-ints": lambda: (np.int64(0), True, np.int32(2)),
    "numpy-bool-with-ints": lambda: [0, 1, np.False_],
    "numpy-ints-out-of-range": lambda: (np.int64(0), np.int32(1), np.uint8(6)),
    "numpy-ints-duplicate": lambda: (np.int64(1), 1, np.uint8(2)),
    "intenum-out-of-range": lambda: (Id.ZERO, Id.ONE, Id.NINE),
    "intenum-duplicate": lambda: [Id.ONE, Id.ONE, Id.TWO],
    "int-subclass-negative": lambda: (SubInt(-1), SubInt(1), SubInt(2)),
    "int-subclass-out-of-range": lambda: (SubInt(0), 1, SubInt(6)),
    "namedtuple-duplicate": lambda: Triple(1, 1, 2),
    "namedtuple-out-of-range": lambda: Triple(0, 1, 6),
    "namedtuple-bool": lambda: Triple(True, 2, 3),
    "namedtuple-float": lambda: Triple(0, 1.0, 2),
}


@pytest.mark.parametrize("bad", MALFORMED_3SETS)
def test_kernel_rejects_as_general_path(bad):
    make = MALFORMED_3SETS[bad]
    order = LatentOrder.identity(6)
    with pytest.raises(InvalidQueryError) as want:
        reference_ranked(3, order, make())
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


# The any-k kernel takes an exact tuple or list of exact ints; every other
# form takes the general path. Fresh objects each call, as above.
ANY_K = (2, 4, 5, 6)

ANY_K_FORMS = {
    "tuple": tuple,
    "list": list,
    "iterator": iter,
    "int64": lambda s: np.asarray(s, dtype=np.int64),
    "uint16": lambda s: np.asarray(s, dtype=np.uint16),
    "numpy-int-tuple": lambda s: tuple(map(np.int64, s)),
    "numpy-int-last-list": lambda s: list(s[:-1]) + [np.int32(s[-1])],
    "intenum-tuple": lambda s: tuple(map(Id, s)),
    "intenum-first-list": lambda s: [Id(s[0])] + list(s[1:]),
    "int-subclass-list": lambda s: list(map(SubInt, s)),
    "int-subclass-last-tuple": lambda s: tuple(s[:-1]) + (SubInt(s[-1]),),
}


def any_k_mixture(k: int) -> MixtureDistribution:
    """Position probabilities 1..k over their sum: distinct by 1/C(k+1, 2)."""
    total = k * (k + 1) / 2
    return MixtureDistribution(tuple(p / total for p in range(1, k + 1)), 0.01)


def any_k_outcomes(order, k, sets, make):
    """What the four scalar entry points give for make(s) over the sets,
    with their final query counts: DeterministicOracle.query at every
    position, and MixedOracle.query, query_repeated and query_until from
    one seed each, asked in turn."""
    out = []
    for position in range(1, k + 1):
        oracle = DeterministicOracle(PositionSelector(k, position), order)
        out.append(([oracle.query(make(s)) for s in sets], oracle.query_count))
    mixture = any_k_mixture(k)
    oracle = MixedOracle(order, mixture, 37)
    out.append(([oracle.query(make(s)) for s in sets], oracle.query_count))
    oracle = MixedOracle(order, mixture, 37)
    repeated = [oracle.query_repeated(make(s), 5) for s in sets]
    out.append(([(a.members, a.counts) for a in repeated], oracle.query_count))
    oracle = MixedOracle(order, mixture, 37)
    until = [oracle.query_until(make(s), s[:2], 5) for s in sets]
    out.append(([(a.members, a.counts, raw) for a, raw in until], oracle.query_count))
    return out


def any_k_case(k: int):
    """Orders over n ids and every ordered k-subset of them: up to k=4 a
    random order and its reverse over n = k+2 ids, above it one random
    order over k+1, so k=6 asks 5,040 queries per entry point."""
    n = k + 2 if k <= 4 else k + 1
    order = LatentOrder.random(n, np.random.default_rng(40 + k))
    orders = [order, order.reversed()] if k <= 4 else [order]
    return orders, list(itertools.permutations(range(n), k))


@pytest.mark.parametrize("form", ANY_K_FORMS)
@pytest.mark.parametrize("k", ANY_K)
def test_any_k_kernel_answers_match_general_path(k, form):
    make = ANY_K_FORMS[form]
    orders, sets = any_k_case(k)
    for order in orders:
        want = [reference_ranked(k, order, s) for s in sets]
        got = [_ranked(k, order, make(s)) for s in sets]
        assert [list(members) for members in got] == want
        assert all(type(members) is tuple and all_ints(members) for members in got)
        outcomes = any_k_outcomes(order, k, sets, make)
        for position in range(1, k + 1):
            answers, count = outcomes[position - 1]
            assert answers == [members[position - 1] for members in want]
            assert count == len(sets)
        assert outcomes[k][1] == len(sets) and outcomes[k + 1][1] == 5 * len(sets)
        assert all(map(all_ints, (tuple(answers) for answers, _ in outcomes)))
        # the general path, which an iterator always takes, agrees draw for draw
        assert outcomes == any_k_outcomes(order, k, sets, iter)


# Malformed k-sets for any k, as functions of (k, n): the ids 0..k-1 with
# one fault each.
MALFORMED_KSETS = {
    "duplicate": lambda k, n: tuple(range(k - 1)) + (0,),
    "duplicate-list": lambda k, n: [k - 1] + list(range(k - 2)) + [k - 1],
    "negative": lambda k, n: (-1,) + tuple(range(1, k)),
    "negative-list": lambda k, n: list(range(k - 1)) + [-n],
    "out-of-range": lambda k, n: tuple(range(k - 1)) + (n,),
    "out-of-range-list": lambda k, n: [n + 3] + list(range(k - 1)),
    "huge-id": lambda k, n: tuple(range(k - 1)) + (2**70,),
    "too-short": lambda k, n: tuple(range(k - 1)),
    "too-long": lambda k, n: list(range(k + 1)),
    "empty": lambda k, n: (),
    "bool-first": lambda k, n: (True,) + tuple(range(2, k + 1)),
    "bool-last-list": lambda k, n: list(range(1, k)) + [False],
    "numpy-bool": lambda k, n: tuple(range(2, k + 1)) + (np.True_,),
    "bool-array": lambda k, n: np.ones(k, dtype=bool),
    "float": lambda k, n: tuple(range(k - 1)) + (k - 0.5,),
    "integral-float-list": lambda k, n: [float(x) for x in range(k)],
    "string-id": lambda k, n: list(range(k - 1)) + [str(k - 1)],
    "none-id": lambda k, n: tuple(range(k - 1)) + (None,),
    "string": lambda k, n: "0123456"[:k],
    "not-iterable": lambda k, n: 5,
    "none": lambda k, n: None,
    "numpy-negative": lambda k, n: np.array((-1,) + tuple(range(1, k))),
    "numpy-ints-out-of-range": lambda k, n: tuple(map(np.int64, range(k - 1))) + (np.uint8(n),),
    "intenum-duplicate": lambda k, n: [Id.ONE] * 2 + list(map(Id, range(2, k))),
    "int-subclass-out-of-range": lambda k, n: tuple(map(SubInt, range(k - 1))) + (SubInt(n),),
    "duplicate-iterator": lambda k, n: iter((0,) + tuple(range(k - 1))),
    "short-generator": lambda k, n: (x for x in range(k - 1)),
    "duplicate-and-out-of-range": lambda k, n: (1, 1) + tuple(range(n, n + k - 2)),
}


@pytest.mark.parametrize("bad", MALFORMED_KSETS)
@pytest.mark.parametrize("k", ANY_K)
def test_any_k_kernel_rejects_as_general_path(k, bad):
    n = k + 2
    order = LatentOrder.identity(n)
    make = lambda: MALFORMED_KSETS[bad](k, n)  # noqa: E731
    with pytest.raises(InvalidQueryError) as want:
        reference_ranked(k, order, make())
    with pytest.raises(InvalidQueryError) as got:
        _ranked(k, order, make())
    assert str(got.value) == str(want.value)
    mixture = any_k_mixture(k)
    oracles = {
        "DeterministicOracle.query": DeterministicOracle(PositionSelector(k, k), order),
        "MixedOracle.query": MixedOracle(order, mixture, 0),
        "MixedOracle.query_repeated": MixedOracle(order, mixture, 0),
        "MixedOracle.query_until": MixedOracle(order, mixture, 0),
    }
    for entry, oracle in oracles.items():
        oracle.query(tuple(range(k)))
        with pytest.raises(InvalidQueryError) as raised:
            ENTRY_POINTS[entry][1](oracle, make())
        assert str(raised.value) == str(want.value)
        assert oracle.query_count == 1


# test_scalar_entry_point_refuses_what_is_not_an_integer covers the count
# given as a bool, a float, a string and the like
BAD_COUNTS = {
    "float": 2.7,
    "negative": -1,
    "negative-numpy": np.int64(-5),
    "bool-false": False,
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
    "one-float": (1, 2.0),
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


# Every entry point that takes an array of integer ids, ranks or choices:
# (what it is called on, the call with ids in the array's place, a valid
# array as nested lists of ints, its first entry 1, so that a bool read
# as 1 would pass). Each call on an oracle is made on a fresh one.
VECTORIZED = {
    "evaluate_many": (
        None, lambda _, ids: evaluate_many(PositionSelector(3, 2), LatentOrder.identity(6), ids),
        [[1, 2, 3], [0, 4, 5]],
    ),
    "query_many": (deterministic, lambda o, ids: o.query_many(ids), [[1, 2, 3], [0, 4, 5]]),
    "answer_many": (None, lambda _, ids: answer_many(inferred(), ids, 2), [[1, 2, 3], [0, 4, 5]]),
    "ObservationBatch": (
        None, lambda _, ids: ObservationBatch(ids, [2, 4], 6), [[1, 2, 3], [0, 4, 5]],
    ),
    "ObservationBatch-choices": (
        None, lambda _, ids: ObservationBatch([[1, 2, 3], [0, 4, 5]], ids, 6), [1, 4],
    ),
    "LatentOrder": (None, lambda _, ids: LatentOrder(ids), [1, 0, 3, 2]),
    "LatentOrder.ranks": (
        None, lambda _, ids: LatentOrder((3, 0, 2, 1)).ranks(ids), [[1, 2], [3, 0]],
    ),
    "unrank_combinations": (None, lambda _, ids: unrank_combinations(ids, 5, 3), [1, 9, 4]),
}
# the entries that take (m, 3) k-sets over [0, 6)
SET_ENTRY_POINTS = ("evaluate_many", "query_many", "answer_many", "ObservationBatch")


@pytest.mark.parametrize("entry", SET_ENTRY_POINTS)
@pytest.mark.parametrize(
    "rows", [[[0.5, 1.7, 2.2]], [[0.0, 1.0, 2.0]]], ids=["fractional", "integral"]
)
def test_vectorized_float_ids_rejected(entry, rows):
    # the vectorized paths refuse what the scalar path refuses, integral floats too
    with pytest.raises(InvalidQueryError, match="ids must be integers"):
        deterministic().query(tuple(rows[0]))
    make, call, _ = VECTORIZED[entry]
    with pytest.raises(InvalidQueryError, match=r"k-set ids must be integers in \[0, 6\)"):
        call(make and make(), np.array(rows))


# np.asarray reads a bool among integer ids as 0 or 1; the scalar path
# refuses these ids, and so must every vectorized path given a list
BOOL_ROWS = {
    "python-bool-among-valid": [[0, 1, 2], [3, False, 5]],
    "tuple-rows": [(0, 1, 2), (True, 2, 3)],
}


@pytest.mark.parametrize("entry", SET_ENTRY_POINTS)
@pytest.mark.parametrize("rows", BOOL_ROWS)
def test_vectorized_bool_ids_in_lists_rejected(entry, rows):
    with pytest.raises(InvalidQueryError, match="ids must be integers"):
        deterministic().query(BOOL_ROWS[rows][-1])
    make, call, _ = VECTORIZED[entry]
    with pytest.raises(InvalidQueryError, match=r"k-set ids must be integers in \[0, 6\)"):
        call(make and make(), BOOL_ROWS[rows])


def test_vectorized_bool_rows_rejected_uncounted():
    oracle = deterministic()
    oracle.query_many([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(InvalidQueryError):
        oracle.query_many([[0, 1, 2], [True, 2, 3]])
    assert oracle.query_count == 2


@pytest.mark.parametrize("ids", [[[1, False]], (0, True)])
def test_rank_lookup_refuses_bool_ids_in_lists(ids):
    order = LatentOrder((3, 0, 2, 1))
    with pytest.raises(InvalidQueryError, match=r"ids must be integers in \[0, 4\)"):
        order.ranks(ids)
    assert order.ranks([1, 2]).tolist() == [3, 2]


# One bool among the ids of each array entry point, never read as 1
BOOL_AMONG_IDS = {
    "LatentOrder": lambda: LatentOrder([2, True, 0]),
    "LatentOrder.ranks": lambda: LatentOrder((3, 0, 2, 1)).ranks([True, 2]),
    "unrank_combinations": lambda: unrank_combinations([True, 0], 4, 2),
    "ObservationBatch-choices": lambda: ObservationBatch([[0, 1, 2]], [True], 3),
    "evaluate_many": lambda: evaluate_many(
        PositionSelector(3, 2), LatentOrder.identity(6), [[True, 2, 3]]
    ),
}


@pytest.mark.parametrize("entry", BOOL_AMONG_IDS)
def test_bool_among_list_ids_refused(entry):
    with pytest.raises(InvalidQueryError) as raised:
        BOOL_AMONG_IDS[entry]()
    assert raised.type is InvalidQueryError


class IndexOnly:
    """An object that defines only __index__: operator.index reads it as
    an integer, but it is no numbers.Integral."""

    def __init__(self, value):
        self._value = value

    def __index__(self):
        return self._value

    def __repr__(self):
        return f"IndexOnly({self._value})"


def line():
    return MetricPoints([0.0, 1.0, 3.0, 7.0])


def one_record_batch():
    return ObservationBatch([[0, 1, 2]], [1], 3)


# Every scalar entry point that takes an integer id, position, count or size:
# (what it is called on, the call with x in the integer's place, the
# integer x stands for, the error class a refused x raises). Each call on
# an oracle is made on a fresh one.
SCALAR_ENTRY_POINTS = {
    "kset": (None, lambda _, x: kset((x, 2, 3)), 1, InvalidQueryError),
    "evaluate-k3": (
        None, lambda _, x: evaluate(PositionSelector(3, 2), LatentOrder.identity(6), (x, 2, 3)),
        1, InvalidQueryError,
    ),
    "evaluate-k4": (
        None, lambda _, x: evaluate(PositionSelector(4, 2), LatentOrder.identity(6), [x, 2, 3, 4]),
        1, InvalidQueryError,
    ),
    "DeterministicOracle.query": (deterministic, lambda o, x: o.query((x, 2, 3)), 1, InvalidQueryError),
    "MixedOracle.query": (mixed, lambda o, x: o.query((x, 2, 3)), 1, InvalidQueryError),
    "MixedOracle.query_repeated-count": (
        mixed, lambda o, x: o.query_repeated((0, 1, 2), x), 1, InvalidQueryError,
    ),
    "MixedOracle.query_until-pair": (
        mixed, lambda o, x: o.query_until((0, 1, 2), (x, 2), 5), 1, InvalidQueryError,
    ),
    "MixedOracle.query_until-count": (
        mixed, lambda o, x: o.query_until((0, 1, 2), (1, 2), x), 1, InvalidQueryError,
    ),
    "pair_id": (None, lambda _, x: pair_id(x, 2), 1, InvalidQueryError),
    "LatentOrder.rank_of": (None, lambda _, x: LatentOrder((3, 0, 2, 1)).rank_of(x), 1, InvalidQueryError),
    "LatentOrder.id_at": (None, lambda _, x: LatentOrder((3, 0, 2, 1)).id_at(x), 1, InvalidQueryError),
    "PositionSelector": (None, lambda _, x: PositionSelector(3, x), 1, ValueError),
    "ObservationBatch-n": (
        None, lambda _, x: ObservationBatch(np.zeros((0, 3), dtype=np.int64), [], x),
        1, InvalidQueryError,
    ),
    "build_partial_order-position": (
        None, lambda _, x: build_partial_order(one_record_batch(), (0,), x), 2, ValueError,
    ),
    "clopper_pearson": (None, lambda _, x: clopper_pearson(x, 2), 1, ValueError),
    "revealing_counts-position": (None, lambda _, x: revealing_counts(5, 3, x), 2, ValueError),
    "revealing_counts-n": (None, lambda _, x: revealing_counts(x, 3, 2), 5, ValueError),
    "all_ksets-k": (None, lambda _, x: all_ksets(5, x), 3, ValueError),
    "largest_binomial-n": (None, lambda _, x: largest_binomial(x, 3), 5, ValueError),
    "PositionSelector-k": (None, lambda _, x: PositionSelector(x, 2), 3, ValueError),
    "StreamConfig.from_coverage-n": (None, lambda _, x: StreamConfig.from_coverage(2.0, x), 5, ValueError),
    "repetition_count-k": (None, lambda _, x: repetition_count(0.1, 0.1, x), 3, ValueError),
    "discard_round_repetitions-n": (
        None, lambda _, x: discard_round_repetitions(0.2, 0.1, x), 5, ValueError,
    ),
    "sorting_lower_bound-n": (None, lambda _, x: sorting_lower_bound(x, 3), 5, ValueError),
    "feasibility_check": (None, lambda _, x: feasibility_check(x), 5, ValueError),
    "MetricPoints.distance": (None, lambda _, x: line().distance(x, 2), 1, InvalidQueryError),
    "MetricPoints.pair_distance": (None, lambda _, x: line().pair_distance((x, 2)), 1, InvalidQueryError),
    "PairDistanceOracle.larger": (
        lambda: PairDistanceOracle(line()), lambda o, x: o.larger((x, 2), (0, 3)),
        1, InvalidQueryError,
    ),
}

# The integer as each accepted class, and the refused stand-ins for it.
INTEGER_FORMS = {"int": int, "numpy-int64": np.int64, "intenum": Id}
NOT_INTEGER_FORMS = {
    "bool": lambda v: True,
    "numpy-bool": lambda v: np.True_,
    "float": float,
    "numpy-float": np.float64,
    "string": str,
    "none": lambda v: None,
    "0d-array": np.array,
    "index-only": IndexOnly,
}


@pytest.mark.parametrize("form", INTEGER_FORMS)
@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_scalar_entry_point_accepts_every_integer_class(entry, form):
    make, call, value, _ = SCALAR_ENTRY_POINTS[entry]
    want = call(make and make(), value)
    got = call(make and make(), INTEGER_FORMS[form](value))
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    elif entry not in ("ObservationBatch-n", "build_partial_order-position"):  # no value equality
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("form", NOT_INTEGER_FORMS)
@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_scalar_entry_point_refuses_what_is_not_an_integer(entry, form):
    # one rule, core._is_integer, at every entry point: a refused value
    # raises the entry point's own error class, uncounted and undrawn
    make, call, value, error = SCALAR_ENTRY_POINTS[entry]
    target = make and make()
    count = getattr(target, "query_count", None)
    rng = getattr(target, "_rng", None)
    state = rng and rng.bit_generator.state
    with pytest.raises(error) as raised:
        call(target, NOT_INTEGER_FORMS[form](value))
    assert raised.type is error
    assert getattr(target, "query_count", None) == count
    assert (rng and rng.bit_generator.state) == state


def nested(ids, convert):
    """ids, nested lists, with convert applied to every entry."""
    return [nested(x, convert) for x in ids] if isinstance(ids, list) else convert(ids)


def with_first(ids, value):
    """ids, nested lists, with value in place of the first entry."""
    if isinstance(ids[0], list):
        return [with_first(ids[0], value)] + ids[1:]
    return [value] + ids[1:]


def outcome(result):
    """What an array entry point returns, as plain values to compare."""
    if isinstance(result, ObservationBatch):
        return [outcome(result.sets), outcome(result.choices), result.n, len(result)]
    if isinstance(result, LatentOrder):
        return outcome(result.ascending)
    return result.dtype, result.tolist()


# The array as each accepted form: lists of each integer class, and
# narrow integer arrays.
INTEGER_ARRAY_FORMS = {
    "int-list": lambda ids: ids,
    "numpy-int64-list": lambda ids: nested(ids, np.int64),
    "intenum-list": lambda ids: nested(ids, Id),
    "int32-array": lambda ids: np.array(ids, dtype=np.int32),
    "uint16-array": lambda ids: np.array(ids, dtype=np.uint16),
}


@pytest.mark.parametrize("form", INTEGER_ARRAY_FORMS)
@pytest.mark.parametrize("entry", VECTORIZED)
def test_array_entry_point_accepts_every_integer_form(entry, form):
    make, call, ids = VECTORIZED[entry]
    want_target, got_target = make and make(), make and make()
    want = call(want_target, ids)
    assert outcome(call(got_target, INTEGER_ARRAY_FORMS[form](ids))) == outcome(want)
    assert getattr(got_target, "query_count", None) == getattr(want_target, "query_count", None)


@pytest.mark.parametrize("form", NOT_INTEGER_FORMS)
@pytest.mark.parametrize("entry", VECTORIZED)
def test_array_entry_point_refuses_what_is_not_an_integer_in_a_list(entry, form):
    # the array half of the rule, core._check_ids: every entry of a list
    # is judged as a scalar id is, uncounted
    make, call, ids = VECTORIZED[entry]
    target = make and make()
    count = getattr(target, "query_count", None)
    with pytest.raises(InvalidQueryError) as raised:
        call(target, with_first(ids, NOT_INTEGER_FORMS[form](1)))
    assert raised.type is InvalidQueryError
    assert getattr(target, "query_count", None) == count
