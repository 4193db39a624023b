import itertools

import numpy as np
import pytest

from ecoinfer.similarity import (EXACT_ASSIGNMENT, GREEDY_RANK, IDENTITY,
                                 exact_match_fraction, joint_normalize,
                                 match_rows, similarity)
from ecoinfer.tabular import (CONTINUOUS, Dataset, FeatureSpec, Schema,
                              SchemaError)

from conftest import dataset_from_rows, small_schema


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
