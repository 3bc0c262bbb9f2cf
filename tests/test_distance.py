"""Distance-comparison choice rules and the pairwise-distance sort."""

import itertools
import math

import numpy as np
import pytest

from choicelab import distance
from choicelab.distance import (
    AmbiguousDistancesError,
    InvalidArityError,
    MetricPoints,
    PairDistanceOracle,
    crowd_median_sort,
    farthest_pair_removal_is_exact,
    feasibility_check,
    median_choice,
    outlier_choice,
    pair_id,
    sum_of_distances_minimizer,
    triplet_distance_correspondence,
)
from choicelab.core import InvalidQueryError
from choicelab.sorting import merge_sort_comparison_bound


def line_points(*coords):
    return MetricPoints(coords)


def random_points(count, dim, rng):
    while True:
        try:
            return MetricPoints(rng.normal(size=(count, dim)))
        except AmbiguousDistancesError:
            continue


class TestMedianChoice:
    def test_five_point_line(self):
        # 3.0001 instead of 3 keeps general position without moving the trace:
        # the literal {1,2,3,7,20} has d(1,2) = d(2,3) and is rejected below
        pts = line_points(1.0, 2.0, 3.0001, 7.0, 20.0)
        s = tuple(range(5))
        assert median_choice(pts, s) == 2
        assert sum_of_distances_minimizer(pts, s) == 2

    def test_literal_example_points_rejected_as_ambiguous(self):
        with pytest.raises(AmbiguousDistancesError):
            line_points(1.0, 2.0, 3.0, 7.0, 20.0)

    def test_triplet_line(self):
        pts = line_points(0.0, 1.0, 10.0)
        assert median_choice(pts, (0, 1, 2)) == 1
        # sums of distances: 11, 10, 19
        assert sum_of_distances_minimizer(pts, (0, 1, 2)) == 1

    def test_triplet_2d_matches_sum_minimizer(self):
        # the isoceles (0,0),(1,0),(0.5,5) ties its two long sides exactly,
        # which is the documented ambiguity case; nudging the apex keeps the
        # configuration and makes the farthest pair well defined
        with pytest.raises(AmbiguousDistancesError):
            MetricPoints([[0.0, 0.0], [1.0, 0.0], [0.5, 5.0]])
        pts = MetricPoints([[0.0, 0.0], [1.0, 0.0], [0.52, 5.0]])
        s = (0, 1, 2)
        assert median_choice(pts, s) == sum_of_distances_minimizer(pts, s)

    def test_even_arity_rejected(self):
        pts = line_points(0.0, 1.0, 3.0, 9.0)
        with pytest.raises(InvalidArityError):
            median_choice(pts, (0, 1, 2, 3))

    def test_k3_any_dimension_equals_sum_minimizer(self):
        rng = np.random.default_rng(50)
        for dim in range(1, 6):
            for _ in range(400):
                pts = random_points(3, dim, rng)
                s = (0, 1, 2)
                assert median_choice(pts, s) == sum_of_distances_minimizer(pts, s)

    def test_1d_odd_k_is_exact_median_element(self):
        rng = np.random.default_rng(51)
        for k in (3, 5, 7, 9):
            for _ in range(300):
                pts = random_points(k, 1, rng)
                s = tuple(range(k))
                got = median_choice(pts, s)
                coords = pts.coords[:, 0]
                median_id = int(np.argsort(coords)[k // 2])
                assert got == median_id

    def test_negation_invariance_1d(self):
        # no distance-comparison rule can sense the direction of "more"
        rng = np.random.default_rng(52)
        for _ in range(200):
            coords = rng.normal(size=5)
            try:
                pts = MetricPoints(coords)
                neg = MetricPoints(-coords)
            except AmbiguousDistancesError:
                continue
            s = tuple(range(5))
            assert median_choice(pts, s) == median_choice(neg, s)
            assert outlier_choice(pts, s) == outlier_choice(neg, s)

    def test_exactness_predicate(self):
        assert farthest_pair_removal_is_exact(3, 7)
        assert farthest_pair_removal_is_exact(9, 1)
        assert not farthest_pair_removal_is_exact(5, 2)


class TestOutlierChoice:
    def test_similarity_aversion_identities(self):
        a, b, bprime = [0.0, 0.0], [10.0, 0.0], [10.0, 1.0]
        pts = MetricPoints([a, b, bprime])
        assert outlier_choice(pts, (0, 1, 2)) == 0  # f({A,B,B'}) = A
        aprime = [0.0, 1.0]
        pts2 = MetricPoints([a, b, aprime])
        assert outlier_choice(pts2, (0, 1, 2)) == 1  # f({A,B,A'}) = B

    def test_line_outlier(self):
        pts = line_points(0.0, 1.0, 10.0)
        assert outlier_choice(pts, (0, 1, 2)) == 2

    @pytest.mark.parametrize("s", [(1,), (0, 2)])
    def test_fewer_than_three_members_rejected(self, s):
        pts = MetricPoints([[0.0], [1.3], [3.7]])
        with pytest.raises(InvalidArityError, match=f"at least 3 members, got {len(s)}"):
            outlier_choice(pts, s)

    def test_outlier_is_complement_of_min_distance_pair(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            pts = random_points(3, 3, rng)
            s = (0, 1, 2)
            outlier = outlier_choice(pts, s)
            closest = min(itertools.combinations(s, 2), key=lambda p: pts.distance(*p))
            assert triplet_distance_correspondence(s, outlier) == closest


class TestCorrespondence:
    def test_chosen_maps_to_complementary_pair(self):
        assert triplet_distance_correspondence((0, 1, 2), 0) == (1, 2)
        assert triplet_distance_correspondence((0, 1, 2), 1) == (0, 2)

    def test_involution(self):
        s = (3, 5, 9)
        for chosen in s:
            pair = triplet_distance_correspondence(s, chosen)
            back = next(x for x in s if x not in pair)
            assert back == chosen

    def test_chosen_must_be_member(self):
        with pytest.raises(InvalidQueryError):
            triplet_distance_correspondence((0, 1, 2), 5)


class TestCrowdMedianSort:
    def test_four_point_example(self):
        pts = line_points(0.0, 1.0, 3.0, 7.0)
        oracle = PairDistanceOracle(pts)
        ordered = crowd_median_sort(oracle)
        # distances: (0,1)=1, (1,2)=2, (0,2)=3, (2,3)=4, (1,3)=6, (0,3)=7
        assert ordered == [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]

    def test_three_points_at_most_three_comparisons(self):
        pts = line_points(0.0, 1.0, 5.0)
        oracle = PairDistanceOracle(pts)
        crowd_median_sort(oracle)
        assert oracle.query_count <= 3

    def test_n20_matches_direct_sort_within_budget(self):
        rng = np.random.default_rng(54)
        pts = random_points(20, 2, rng)
        oracle = PairDistanceOracle(pts)
        ordered = crowd_median_sort(oracle)
        assert ordered == sorted(ordered, key=pts.pair_distance)
        total = math.comb(20, 2)
        assert oracle.query_count <= 2 * total * math.log2(total)
        assert oracle.query_count <= merge_sort_comparison_bound(total)


# Pairs that are not two distinct ids; each must be refused, never read
# as a shorter or longer pair.
MALFORMED_PAIRS = {
    "three-ids": (0, 1, 2),
    "one-id": (0,),
    "empty": (),
    "not-iterable": 5,
    "none": None,
    "same-id": (1, 1),
    "same-id-list": [4, 4],
    "three-id-list": [0, 1, 2],
    "three-id-array": np.arange(3),
    "string-pair": "01",
}


class TestPairOracle:
    @pytest.mark.parametrize("a", [(0, 99), (-1, 2), (1.5, 2), (2.0, 3)])
    def test_rejected_query_not_counted(self, a):
        oracle = PairDistanceOracle(line_points(0.0, 1.0, 3.0, 7.0, 15.0))
        with pytest.raises(InvalidQueryError):
            oracle.larger(a, (1, 2))
        assert oracle.query_count == 0

    def test_numpy_ids_accepted(self):
        oracle = PairDistanceOracle(line_points(0.0, 1.0, 5.0))
        assert oracle.larger((np.int64(0), np.int64(2)), (1, 2)) == (0, 2)
        assert oracle.query_count == 1

    def test_pair_id_normalizes(self):
        assert pair_id(5, 2) == (2, 5)
        with pytest.raises(InvalidQueryError):
            pair_id(3, 3)

    @pytest.mark.parametrize("pair", MALFORMED_PAIRS)
    def test_malformed_pair_refused_uncounted(self, pair):
        oracle = PairDistanceOracle(line_points(0.0, 1.0, 3.0, 7.0, 15.0))
        assert oracle.larger((0, 1), (2, 3)) == (2, 3)
        for a, b in ((MALFORMED_PAIRS[pair], (2, 3)), ((2, 3), MALFORMED_PAIRS[pair])):
            with pytest.raises(InvalidQueryError):
                oracle.larger(a, b)
        assert oracle.query_count == 1

    @pytest.mark.parametrize("a, b", [((0, 1), (0, 1)), ((0, 1), (1, 0)), ([3, 2], (2, 3))])
    def test_pair_compared_with_itself_refused_uncounted(self, a, b):
        oracle = PairDistanceOracle(line_points(0.0, 1.0, 3.0, 7.0, 15.0))
        with pytest.raises(InvalidQueryError, match="itself"):
            oracle.larger(a, b)
        assert oracle.query_count == 0

    def test_every_pair_form_answers_alike(self):
        # canonical tuples of ints take the two-lookup path; reversed,
        # list and numpy forms take pair_id's, and must answer the same
        points = random_points(6, 2, np.random.default_rng(12))
        oracle = PairDistanceOracle(points)
        forms = (
            tuple, lambda p: p[::-1], list,
            lambda p: tuple(map(np.int64, p)), lambda p: np.asarray(p, dtype=np.int32),
        )
        pairs = list(itertools.combinations(range(6), 2))
        for a, b in itertools.permutations(pairs, 2):
            want = a if points.pair_distance(a) > points.pair_distance(b) else b
            for form in forms:
                got = oracle.larger(form(a), form(b))
                assert got == want and type(got) is tuple and all(type(x) is int for x in got)
        assert oracle.query_count == len(forms) * len(pairs) * (len(pairs) - 1)


# Each set ends in one id that five points on a line cannot answer for.
BAD_IDS = {
    "out-of-range": (0, 1, 5),
    "negative": (0, 1, -1),
    "float": (0, 1, 2.5),
    "integral-float": (0, 1, 2.0),
    "string": (0, 1, "2"),
    "bool": (0, 2, True),
}


class TestBadIds:
    """Ids are rows of the embedding: anything but an integer in [0, n) is
    refused with InvalidQueryError, never read as another row."""

    points = line_points(0.0, 1.0, 3.0, 7.0, 15.0)

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_distance_refuses(self, bad):
        s = BAD_IDS[bad]
        with pytest.raises(InvalidQueryError):
            self.points.distance(s[0], s[2])
        with pytest.raises(InvalidQueryError):
            self.points.distance(s[2], s[1])
        with pytest.raises(InvalidQueryError):
            self.points.pair_distance((s[0], s[2]))

    @pytest.mark.parametrize("bad", BAD_IDS)
    @pytest.mark.parametrize("rule", [median_choice, outlier_choice, sum_of_distances_minimizer])
    def test_rules_refuse(self, bad, rule):
        with pytest.raises(InvalidQueryError):
            rule(self.points, BAD_IDS[bad])

    @pytest.mark.parametrize("pair", MALFORMED_PAIRS)
    def test_pair_distance_refuses_malformed_pairs(self, pair):
        with pytest.raises(InvalidQueryError):
            self.points.pair_distance(MALFORMED_PAIRS[pair])

    @pytest.mark.parametrize("pair", [(1, 3), (3, 1), [1, 3], (np.int64(3), np.uint8(1))])
    def test_pair_distance_reads_either_order(self, pair):
        assert self.points.pair_distance(pair) == self.points.distance(1, 3) == 6.0

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_larger_refuses_uncounted(self, bad):
        oracle = PairDistanceOracle(self.points)
        assert oracle.larger((0, 1), (2, 3)) == (2, 3)
        s = BAD_IDS[bad]
        for a, b in (((s[0], s[2]), (1, 2)), ((1, 2), (s[2], s[1]))):
            with pytest.raises(InvalidQueryError):
                oracle.larger(a, b)
        assert oracle.query_count == 1


class TestMetricPoints:
    def test_rows_are_ids(self):
        pts = MetricPoints([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert (pts.n, pts.dim) == (3, 2)
        assert pts.distance(0, 1) == 5.0 and pts.pair_distance((0, 2)) == 1.0

    def test_single_point(self):
        pts = MetricPoints([[1.0, 2.0]])
        assert pts.n == 1 and pts.distance(0, 0) == 0.0

    @pytest.mark.parametrize("coords", [[], np.zeros((0, 2)), np.zeros((2, 2, 2))])
    def test_no_points_or_wrong_shape_rejected(self, coords):
        with pytest.raises(ValueError):
            MetricPoints(coords)

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            MetricPoints([[0.0], [1.0, 2.0]])

    def test_nan_coordinate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MetricPoints([[np.nan], [1.0], [2.0]])

    def test_infinite_coordinate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MetricPoints([[0.0, 1.0], [np.inf, 0.0], [3.0, 2.5]])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40])
    def test_pair_indices_are_triu_indices_shared_and_read_only(self, n):
        rows, cols = distance._pair_indices(n)
        want_rows, want_cols = np.triu_indices(n, 1)
        assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()
        assert distance._pair_indices(n)[0] is rows
        assert not rows.flags.writeable and not cols.flags.writeable


class TestFeasibility:
    def test_exact_values(self):
        # 2*C(n,3) vs log2(C(n,2)!) - 1, exact factorials
        assert not feasibility_check(3)  # 2 > log2(6)-1 ~ 1.585
        assert feasibility_check(4)  # 8 < log2(720)-1 ~ 8.49
        assert feasibility_check(5)  # 20 < log2(10!)-1 ~ 20.79
        for n in range(6, 11):
            assert not feasibility_check(n)

    def test_n5_margin(self):
        assert math.log2(math.factorial(10)) - 1 == pytest.approx(20.7919, abs=1e-3)

    def test_matches_the_exact_factorial(self):
        for n in range(3, 121):
            exact = math.log2(math.factorial(math.comb(n, 2))) - 1
            assert feasibility_check(n) == (2 * math.comb(n, 3) < exact)

    def test_precondition(self):
        with pytest.raises(ValueError):
            feasibility_check(2)

    @pytest.mark.parametrize("n", [3.5, 5.0, True, np.float64(5), "5"])
    def test_non_integer_n_refused(self, n):
        with pytest.raises(ValueError, match="integer n >= 3"):
            feasibility_check(n)
        assert feasibility_check(np.int64(5))
