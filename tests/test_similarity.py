import importlib
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ecoinfer.aggregate import summarize
from ecoinfer.reconstruct import reconstruct
from ecoinfer.similarity import (EXACT_ASSIGNMENT, GREEDY_RANK, IDENTITY,
                                 exact_match_fraction, joint_normalize,
                                 match_rows, similarity)
from ecoinfer.synth import builtin_configs, generate_ground_truth
from ecoinfer.tabular import (CONTINUOUS, Dataset, FeatureSpec, Schema,
                              SchemaError)

from conftest import dataset_from_rows, small_schema

# the package exports a function of the same name as this module
similarity_module = importlib.import_module("ecoinfer.similarity")


def random_pair(rng, n_rows, n_features=3):
    schema = small_schema(n_features, names=("a", "b", "c"))
    def make():
        rows = rng.integers(0, 2, size=(n_rows, n_features + 1))
        return dataset_from_rows(schema, rows)
    return make(), make()


class TestMatchRows:
    def test_identity_average_distance(self, table_s1, table_s2):
        m = match_rows(table_s1, table_s2, IDENTITY)
        assert m.average_distance == pytest.approx(0.375)

    def test_exact_assignment_value_and_mapping(self, table_s1, table_s2):
        m = match_rows(table_s1, table_s2, EXACT_ASSIGNMENT)
        assert m.average_distance == pytest.approx(0.125)
        # the canonical optimal mapping is 1->3, 2->4, 3->1, 4->2
        # (0-indexed: 0->2, 1->3, 2->0, 3->1); rows 1 and 3 of the second
        # dataset are identical, so swapping their images is equivalent
        perm = tuple(m.permutation)
        assert perm in {(2, 3, 0, 1), (0, 3, 2, 1)}
        assert perm[1] == 3

    def test_self_match_zero(self, table_s1):
        for method in (GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY):
            m = match_rows(table_s1, table_s1, method)
            assert m.average_distance == pytest.approx(0.0)

    def test_permutation_is_bijection(self):
        rng = np.random.default_rng(5)
        a, b = random_pair(rng, 40)
        for method in (GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY):
            m = match_rows(a, b, method)
            assert sorted(m.permutation) == list(range(40))

    def test_size_mismatch_rejected(self, table_s1, trio_schema):
        other = dataset_from_rows(trio_schema, [[1, 0, 1, 1]])
        with pytest.raises(SchemaError):
            match_rows(table_s1, other)

    @pytest.mark.parametrize("subset", [[], ["PT", "PT"], ["PT", "Age", "PT"]],
                             ids=["empty", "repeated", "repeated-apart"])
    @pytest.mark.parametrize("method",
                             [GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY])
    def test_bad_feature_subset_rejected(self, method, subset):
        # an empty subset gave NaN from 0/0; a repeated one counted twice
        truth = generate_ground_truth(builtin_configs(n=50)[0])
        with pytest.raises(SchemaError, match="feature_subset"):
            match_rows(truth, truth, method, subset)


class TestSimilarity:
    def test_example_pair(self, table_s1, table_s2):
        assert similarity(table_s1, table_s2, EXACT_ASSIGNMENT) == \
            pytest.approx(0.875)

    def test_identical_datasets(self, table_s1):
        assert similarity(table_s1, table_s1, GREEDY_RANK) == 1.0

    def test_complement_datasets(self, trio_schema):
        # every pairing crosses the full complement, so no matching can help
        rows = np.tile([0, 0, 1, 1], (3, 1))
        base = dataset_from_rows(trio_schema, rows)
        flipped = dataset_from_rows(trio_schema, 1 - rows)
        for method in (GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY):
            assert similarity(base, flipped, method) == pytest.approx(0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = random_pair(rng, 25)
            for method in (GREEDY_RANK, EXACT_ASSIGNMENT):
                assert similarity(a, b, method) == \
                    pytest.approx(similarity(b, a, method))

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = random_pair(rng, 15)
            for method in (GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY):
                assert 0.0 <= similarity(a, b, method) <= 1.0


class TestExactMatchFraction:
    def test_example_pair_optimal(self, table_s1, table_s2):
        m = match_rows(table_s1, table_s2, EXACT_ASSIGNMENT)
        assert exact_match_fraction(table_s1, table_s2, m) == 0.5

    def test_identical_under_identity(self, table_s1):
        m = match_rows(table_s1, table_s1, IDENTITY)
        assert exact_match_fraction(table_s1, table_s1, m) == 1.0

    def test_complement(self, trio_schema):
        rows = np.tile([0, 0, 1, 1], (3, 1))
        base = dataset_from_rows(trio_schema, rows)
        flipped = dataset_from_rows(trio_schema, 1 - rows)
        m = match_rows(base, flipped, EXACT_ASSIGNMENT)
        assert exact_match_fraction(base, flipped, m) == 0.0

    @pytest.mark.parametrize("method", [GREEDY_RANK, EXACT_ASSIGNMENT,
                                        IDENTITY])
    @pytest.mark.parametrize("subset", [None, ["b0", "c0"]])
    def test_matching_reports_its_own_fraction(self, method, subset):
        rng = np.random.default_rng(31)
        for n_rows in (1, 9, 80):
            a, b = mixed_pair(rng, n_rows, 3, 1, levels=3)
            m = match_rows(a, b, method, subset)
            assert m.exact_match == exact_match_fraction(a, b, m, subset)


class TestOracles:
    def test_exhaustive_minimum_small_n(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            a, b = random_pair(rng, n)
            m = match_rows(a, b, EXACT_ASSIGNMENT)
            na, nb = joint_normalize(a, b)
            best = min(
                sum(np.abs(na[i] - nb[p[i]]).sum() / na.shape[1]
                    for i in range(n))
                for p in itertools.permutations(range(n)))
            assert m.total_distance == pytest.approx(best)

    def test_exact_never_worse_than_heuristics(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a, b = random_pair(rng, 60)
            exact = match_rows(a, b, EXACT_ASSIGNMENT).average_distance
            greedy = match_rows(a, b, GREEDY_RANK).average_distance
            ident = match_rows(a, b, IDENTITY).average_distance
            assert exact <= greedy + 1e-12
            assert exact <= ident + 1e-12


def mixed_pair(rng, n_rows, n_binary, n_continuous, levels=None):
    """Two datasets of n_binary binary features, n_continuous continuous
    ones (normal, or integers below levels) and a binary outcome."""
    schema = Schema(
        features=tuple(FeatureSpec(f"b{j}") for j in range(n_binary))
        + tuple(FeatureSpec(f"c{j}", CONTINUOUS)
                for j in range(n_continuous)),
        outcome=FeatureSpec("y"))
    def make():
        cols = {f"b{j}": rng.integers(0, 2, n_rows) for j in range(n_binary)}
        for j in range(n_continuous):
            cols[f"c{j}"] = (rng.integers(0, levels, n_rows).astype(float)
                             if levels else rng.normal(50, 10, n_rows))
        cols["y"] = rng.integers(0, 2, n_rows)
        return Dataset(schema, cols)
    return make(), make()


class TestExactAssignmentFromDistinctRows:
    """Exact matching must build, bit for bit, the cost matrix of the dense
    n x n x m tensor it no longer builds, reach the total that
    linear_sum_assignment reaches on it, pair every row that has an
    identical partner in place, and return linear_sum_assignment's own
    permutation when no row has one."""

    @staticmethod
    def dense_cost(na, nb):
        return np.abs(na[:, None, :] - nb[None, :, :]).sum(axis=2) \
            / na.shape[1]

    @pytest.mark.parametrize("n_binary, n_continuous, levels", [
        (4, 0, None),    # binary, at most 32 distinct rows
        (1, 9, None),    # continuous, every row distinct, m = 11
        (3, 4, 3),       # a mix with few distinct values
        (2, 6, None),    # a mix with distinct continuous values
    ], ids=["binary-duplicates", "continuous-distinct", "mix-few",
            "mix-distinct"])
    @pytest.mark.parametrize("block", [None, 500], ids=["one-block",
                                                       "many-blocks"])
    def test_same_cost_and_permutation_as_dense(self, monkeypatch, n_binary,
                                            n_continuous, levels, block):
        if block:
            monkeypatch.setattr(similarity_module, "_COST_BLOCK", block)
        rng = np.random.default_rng(21)
        for n_rows in (2, 17, 150):
            a, b = mixed_pair(rng, n_rows, n_binary, n_continuous, levels)
            na, nb = joint_normalize(a, b)
            cost = self.dense_cost(na, nb)
            assert np.array_equal(similarity_module._exact_cost(na, nb), cost)
            rows, cols = linear_sum_assignment(cost)
            m = match_rows(a, b, EXACT_ASSIGNMENT)
            assert m.total_distance == pytest.approx(cost[rows, cols].sum(),
                                                     rel=1e-12, abs=1e-12)
            pairs = in_place_pairs(na, nb)
            assert all(m.permutation[i] == j for i, j in pairs.items())
            if not pairs:
                assert np.array_equal(m.permutation[rows], cols)

    def test_memory_is_a_few_n_by_n_matrices(self):
        # a 2,000 x 2,000 x 5 float tensor alone is 160 MB; three n x n
        # float64 matrices are 96 MB
        a, b = random_pair(np.random.default_rng(3), 2000, n_features=4)
        tracemalloc.start()
        try:
            match_rows(a, b, EXACT_ASSIGNMENT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2000 * 2000 * 8


def in_place_pairs(na, nb):
    """{i: j} pairing the k-th row of na holding a value (in row order) with
    the k-th row of nb holding it, while nb has one."""
    rows_b = {}
    for j, row in enumerate(map(tuple, nb)):
        rows_b.setdefault(row, []).append(j)
    seen = Counter()
    pairs = {}
    for i, row in enumerate(map(tuple, na)):
        k = seen[row]
        seen[row] += 1
        if k < len(rows_b.get(row, ())):
            pairs[i] = rows_b[row][k]
    return pairs


class TestExactFromRowsLeftOver:
    """Exact matching pairs identical rows in place and solves the rest."""

    def test_optimal_and_never_worse_than_heuristics(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            n_rows = int(rng.integers(1, 120))
            n_binary = int(rng.integers(0, 5))
            n_continuous = int(rng.integers(0 if n_binary else 1, 4))
            levels = [None, 2, 3, 5][int(rng.integers(0, 4))]
            a, b = mixed_pair(rng, n_rows, n_binary, n_continuous, levels)
            na, nb = joint_normalize(a, b)
            cost = TestExactAssignmentFromDistinctRows.dense_cost(na, nb)
            rows, cols = linear_sum_assignment(cost)
            exact = match_rows(a, b, EXACT_ASSIGNMENT).total_distance
            assert exact == pytest.approx(cost[rows, cols].sum(),
                                          rel=1e-12, abs=1e-12)
            for method in (GREEDY_RANK, IDENTITY):
                assert exact <= match_rows(a, b, method).total_distance \
                    * (1 + 1e-12)

    @pytest.mark.parametrize("n_binary, n_continuous, levels", [
        (4, 0, None), (2, 2, 3), (1, 2, None)],
        ids=["binary", "mix-few", "mix-distinct"])
    def test_exact_match_is_the_shared_row_count(self, n_binary,
                                                 n_continuous, levels):
        rng = np.random.default_rng(43)
        for n_rows in (1, 9, 80, 300):
            a, b = mixed_pair(rng, n_rows, n_binary, n_continuous, levels)
            ca = Counter(map(tuple, a.to_matrix().tolist()))
            cb = Counter(map(tuple, b.to_matrix().tolist()))
            shared = sum(min(k, cb[row]) for row, k in ca.items())
            m = match_rows(a, b, EXACT_ASSIGNMENT)
            assert m.exact_match == shared / n_rows

    @pytest.mark.parametrize("binary_only, limit_mb", [(True, 8),
                                                       (False, 64)],
                             ids=["binary-columns", "all-columns"])
    def test_full_size_memory(self, config1_truth_and_candidate, binary_only,
                              limit_mb):
        # the n x n cost matrix alone would be 800 MB at N = 10,000
        truth, cand = config1_truth_and_candidate
        cols = truth.schema.binary_columns() if binary_only else None
        tracemalloc.start()
        try:
            m = match_rows(truth, cand, EXACT_ASSIGNMENT, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(m.permutation) == list(range(truth.n_rows))
        assert peak < limit_mb * 1e6


@pytest.fixture(scope="module")
def config1_truth_and_candidate():
    truth = generate_ground_truth(builtin_configs()[0])
    return truth, reconstruct(summarize(truth), seed=2000)


class TestJointNormalization:
    def test_shared_min_max(self, trio_schema):
        import ecoinfer.tabular as tab
        schema = tab.Schema(
            features=(tab.FeatureSpec("v", tab.CONTINUOUS),),
            outcome=tab.FeatureSpec("y"))
        a = tab.Dataset(schema, {"v": [0.0, 10.0], "y": [0, 1]})
        b = tab.Dataset(schema, {"v": [20.0, 5.0], "y": [1, 0]})
        na, nb = joint_normalize(a, b, ["v"])
        # scale is min 0 / max 20 over the concatenation
        assert na[:, 0] == pytest.approx([0.0, 0.5])
        assert nb[:, 0] == pytest.approx([1.0, 0.25])

    @pytest.mark.parametrize("a_col, b_col, a_out, b_out", [
        ([5.0, 5.0], [5.0, 5.0], [0, 0], [0, 0]),  # constant column -> 0
        ([0, 1], [1, 1], [0, 1], [1, 1]),          # 0/1 column unchanged
    ], ids=["constant", "binary"])
    def test_fixed_points(self, a_col, b_col, a_out, b_out):
        a, b = continuous_pair(a_col, b_col)
        na, nb = joint_normalize(a, b, ["v"])
        assert na[:, 0].tolist() == a_out
        assert nb[:, 0].tolist() == b_out

    @pytest.mark.parametrize("case", ["mixed", "binary-subset",
                                      "config-1", "config-1-binary"])
    def test_same_bytes_as_matrix_form(self, case,
                                       config1_truth_and_candidate):
        if case.startswith("config-1"):
            a, b = config1_truth_and_candidate
            names = (a.schema.binary_columns() if case == "config-1-binary"
                     else None)
            pairs = [(a, b), (b, a)]
        else:
            pairs = [signed_zero_pair(seed) for seed in range(20)]
            names = ["b1", "b3", "b4"] if case == "binary-subset" else None
        for a, b in pairs:
            got = joint_normalize(a, b, names)
            expected = matrix_normalize(a, b, names)
            for g, e in zip(got, expected):
                assert g.flags.c_contiguous
                assert (g.shape, g.dtype) == (e.shape, e.dtype)
                assert g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("a_col, b_col, names", [
        ([0.0, 1.0], [1.0, 0.0], ["nope"]),  # unknown column
        ([], [], None),                      # empty datasets
    ], ids=["unknown-column", "empty"])
    def test_rejected(self, a_col, b_col, names):
        a, b = continuous_pair(a_col, b_col)
        with pytest.raises(SchemaError):
            joint_normalize(a, b, names)


def continuous_pair(a_col, b_col):
    schema = Schema(features=(FeatureSpec("v", CONTINUOUS),),
                    outcome=FeatureSpec("y"))
    return (Dataset(schema, {"v": a_col, "y": [0, 1][:len(a_col)]}),
            Dataset(schema, {"v": b_col, "y": [1, 0][:len(b_col)]}))


def matrix_normalize(a, b, names=None):
    """joint_normalize as one min, max and scaling over whole matrices."""
    ma, mb = a.to_matrix(names), b.to_matrix(names)
    lo = np.minimum(ma.min(axis=0), mb.min(axis=0))
    span = np.maximum(ma.max(axis=0), mb.max(axis=0)) - lo
    span[span == 0] = 1.0
    return (ma - lo) / span, (mb - lo) / span


def signed_zero_pair(seed, n=33):
    """Two datasets of five binary and five continuous columns: a constant
    one, two that mix -0.0 and 0.0 (one of them with zero as its maximum),
    a normal one and one holding a single -0.0 among positives. At 33 rows
    a column's own min() often returns a zero of the other sign than the
    matrix form's min(axis=0) does."""
    rng = np.random.default_rng(seed)
    features = tuple(FeatureSpec(f"b{j}") for j in range(5)) + tuple(
        FeatureSpec(name, CONTINUOUS)
        for name in ("const", "zeros", "nonpositive", "normal", "one_zero"))
    schema = Schema(features=features, outcome=FeatureSpec("y"))

    def make():
        cols = {f"b{j}": rng.integers(0, 2, n) for j in range(5)}
        one_zero = rng.uniform(1, 2, n)
        one_zero[rng.integers(n)] = -0.0
        cols.update(
            const=np.full(n, 2.5),
            zeros=rng.choice([-0.0, 0.0, 1.0], n),
            nonpositive=rng.choice([-0.0, 0.0, -3.0], n),
            normal=rng.normal(0, 1, n),
            one_zero=one_zero,
            y=rng.integers(0, 2, n))
        return Dataset(schema, cols)

    return make(), make()
