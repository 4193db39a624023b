import importlib
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from ecoinfer import cli
from ecoinfer.aggregate import summarize
from ecoinfer.reconstruct import reconstruct
from ecoinfer.similarity import (EXACT_ASSIGNMENT, GREEDY_RANK, IDENTITY,
                                 RowMatching, exact_match_fraction,
                                 joint_normalize, match_rows, similarity)
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

    def test_schemas_must_match(self, table_s1):
        renamed = dataset_from_rows(small_schema(3, names=("a", "b", "c")),
                                    table_s1.to_matrix().astype(int))
        with pytest.raises(SchemaError,
                           match="^datasets have different schemas$"):
            match_rows(table_s1, renamed)

    def test_unknown_method_rejected(self, table_s1):
        with pytest.raises(ValueError,
                           match="^unknown matching method 'nearest'$"):
            match_rows(table_s1, table_s1, "nearest")

    @pytest.mark.parametrize("subset", [[], ["PT", "PT"], ["PT", "Age", "PT"]],
                             ids=["empty", "repeated", "repeated-apart"])
    @pytest.mark.parametrize("method",
                             [GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY])
    def test_bad_feature_subset_rejected(self, method, subset):
        # an empty subset gave NaN from 0/0; a repeated one counted twice
        truth = generate_ground_truth(builtin_configs(n=50)[0])
        with pytest.raises(SchemaError, match="feature_subset"):
            match_rows(truth, truth, method, subset)


class TestGreedyOrder:
    """_sum_order, the greedy order of a subset with a continuous column,
    is np.argsort(sums, kind="stable") through a radix sort of ranks."""

    @staticmethod
    def sums():
        rng = np.random.default_rng(31)
        yield "ties", rng.choice([0.25, 1.0, 1.5, 3.0], 500)
        yield "signed-zeros", rng.choice([-0.0, 0.0, 0.5], 400)
        # 300 distinct sums rank in uint16, 70,000 in uint32
        yield "300-distinct", rng.permutation(np.repeat(
            rng.normal(0, 1, 300), 3))
        yield "70000-distinct", rng.normal(0, 1, 70000)
        yield "one-row", np.array([2.0])

    @pytest.mark.parametrize("case", [name for name, _ in sums()])
    def test_same_order_as_stable_argsort(self, case):
        sums = dict(self.sums())[case]
        assert np.array_equal(similarity_module._sum_order(sums),
                              np.argsort(sums, kind="stable"))


class TestRowSums:
    """_row_sums, the one row sum of the float path, takes its columns one
    at a time to the bits numpy's pairwise sum of the C-order rows gives."""

    @pytest.mark.parametrize("m", [*range(1, 21), 127, 128, 129, 300])
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           zeros=st.sampled_from([0.0, 0.3, 1.0]))
    @example(n=1, seed=0, zeros=1.0)
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_same_bits_as_numpy(self, m, n, seed, zeros):
        # magnitudes from 1e-300 to 1e300 of either sign; a share of the
        # cells, or all of them, are -0.0 and 0.0 mixed in each column
        rng = np.random.default_rng(seed)
        matrix = rng.choice([-1.0, 1.0], (n, m)) \
            * 10.0 ** rng.uniform(-300, 300, (n, m))
        zero = rng.random((n, m)) < zeros
        matrix[zero] = rng.choice([-0.0, 0.0], np.count_nonzero(zero))
        want = matrix.sum(axis=1).view(np.uint64)
        for layout in (np.asfortranarray(matrix), matrix):
            got = similarity_module._row_sums(list(layout.T))
            assert np.array_equal(got.view(np.uint64), want)


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


    def test_matching_must_fit_the_datasets(self, table_s1, table_s2):
        matching = match_rows(table_s1, table_s2, IDENTITY)  # four rows
        first = np.arange(3)
        with pytest.raises(SchemaError, match="^matching size does not fit "
                                              "the datasets$"):
            exact_match_fraction(table_s1.take(first), table_s2.take(first),
                                 matching)

    @pytest.mark.parametrize("permutation, fault", [
        ([0, 0, 0], "repeats a row"),
        ([-1, -2, -3], r"must lie in range\(3\), got values -3 to -1"),
        ([0.0, 1.0, 2.0], "must be a 1-D array of row indices, got float64"),
    ], ids=["repeated", "negative", "float"])
    def test_matching_must_be_a_permutation(self, table_s1, table_s2,
                                            permutation, fault):
        # [0, 0, 0] read 0.333, [-1, -2, -3] wrapped to [2, 1, 0] and read
        # 1.0, and a float permutation failed in numpy's indexing
        first = np.arange(3)
        a, b = table_s1.take(first), table_s2.take(first)
        matching = RowMatching(np.array(permutation), 0.0, 0.0, 0.0)
        with pytest.raises(SchemaError, match=fault):
            exact_match_fraction(a, b, matching)
        ok = RowMatching(np.array([2, 0, 1]), 0.0, 0.0, 0.0)
        assert 0.0 <= exact_match_fraction(a, b, ok) <= 1.0


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


def copy_rows(rng, a, b, share):
    """b with about a share of its rows replaced by rows of a, drawn
    without repeats."""
    copied = rng.random(b.n_rows) < share
    source = rng.permutation(b.n_rows)
    return Dataset(b.schema, {
        name: np.where(copied, a.column(name)[source], b.column(name))
        for name in b.schema.column_names})


class TestExactAssignmentFromDistinctRows:
    """Exact matching must build, bit for bit, the cost matrix of the dense
    n x n x m tensor it no longer builds, reach the total that
    linear_sum_assignment reaches on it, pair every row that has an
    identical partner in place, and return linear_sum_assignment's own
    permutation when no row has one and some cell is not 0 or 1."""

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
            # on 0/1 rows the transportation solver may pick another optimum
            if not pairs and not np.isin(np.vstack([na, nb]), (0, 1)).all():
                assert np.array_equal(m.permutation[rows], cols)

    @pytest.mark.parametrize("n_binary, n_continuous, levels", [
        (2, 3, 3), (1, 2, None)], ids=["mix-few", "mix-distinct"])
    def test_permutation_is_in_place_pairs_then_assignment(
            self, n_binary, n_continuous, levels):
        # about half of b's rows copy rows of a, so some rows pair in place
        # and the rest, with cells other than 0 and 1, go to the solver
        rng = np.random.default_rng(23)
        for n_rows in (2, 17, 150):
            a, b = mixed_pair(rng, n_rows, n_binary, n_continuous, levels)
            b = copy_rows(rng, a, b, 0.5)
            na, nb = joint_normalize(a, b)
            pairs = in_place_pairs(na, nb)
            ra = np.setdiff1d(np.arange(n_rows), list(pairs))
            rb = np.setdiff1d(np.arange(n_rows), list(pairs.values()))
            want = np.empty(n_rows, dtype=np.int64)
            want[list(pairs)] = list(pairs.values())
            rows, cols = linear_sum_assignment(
                self.dense_cost(na[ra], nb[rb]))
            want[ra[rows]] = rb[cols]
            if n_rows > 2:
                assert pairs and len(ra)
            got = match_rows(a, b, EXACT_ASSIGNMENT).permutation
            assert np.array_equal(got, want)

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

    def test_refuses_more_rows_than_it_can_assign(self, tmp_path,
                                                  monkeypatch, capsys):
        # near-continuous rows leave r rows over: at most _ASSIGNMENT_ROWS
        # are solved, one more is refused before any cost table is built
        a, b = mixed_pair(np.random.default_rng(47), 40, 1, 2)
        m = match_rows(a, b, EXACT_ASSIGNMENT)
        r = 40 - round(m.exact_match * 40)
        assert r > 30
        monkeypatch.setattr(similarity_module, "_ASSIGNMENT_ROWS", r)
        assert np.array_equal(match_rows(a, b, EXACT_ASSIGNMENT).permutation,
                              m.permutation)
        monkeypatch.setattr(similarity_module, "_ASSIGNMENT_ROWS", r - 1)
        monkeypatch.setattr(similarity_module, "_exact_cost", None)
        with pytest.raises(ValueError, match=rf"leaves {r} rows to assign, "
                           rf"more than {r - 1}: .* GiB; .*--features"):
            match_rows(a, b, EXACT_ASSIGNMENT)
        a.to_csv(tmp_path / "a.csv")
        b.to_csv(tmp_path / "b.csv")
        assert cli.main(["similarity", str(tmp_path / "a.csv"),
                         str(tmp_path / "b.csv"), "--method", "exact"]) == 1
        assert f"leaves {r} rows to assign" in capsys.readouterr().err

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


class TestExactOnZeroOneRows:
    """0/1 rows left over are solved as a transportation problem between
    their distinct rows, to the same numbers as linear_sum_assignment."""

    @staticmethod
    def zero_one_pair(rng, n_rows, case):
        """Two datasets whose every column is 0/1: binary features, a
        two-valued continuous one (levels=2) and the outcome."""
        n_binary = int(rng.integers(0, 5))
        a, b = mixed_pair(rng, n_rows, n_binary, int(rng.integers(0, 2)),
                          levels=2)
        if case == "constant":
            cols = [{n: d.column(n) for n in d.schema.column_names}
                    for d in (a, b)]
            for c in cols:
                c["y"] = np.ones(n_rows, dtype=np.int64)
            a, b = (Dataset(a.schema, c) for c in cols)
        elif case == "identical":
            a = a.take(np.zeros(n_rows, dtype=np.int64))
        return a, b

    @pytest.mark.parametrize("case, seed", [
        ("random", 61), ("constant", 62), ("identical", 63),
        ("one-column", 64)], ids=["random", "constant", "identical",
                                  "one-column"])
    def test_same_numbers_as_linear_sum_assignment(self, monkeypatch, case,
                                                   seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n_rows = int(rng.integers(1, 151))
            a, b = self.zero_one_pair(rng, n_rows, case)
            subset = ["y"] if case == "one-column" else None
            with monkeypatch.context() as patch:
                patch.setattr(similarity_module, "_exact_cost", None)
                m = match_rows(a, b, EXACT_ASSIGNMENT, subset)
            with monkeypatch.context() as patch:
                patch.setattr(similarity_module, "_TRANSPORT_ROWS", 0)
                ref = match_rows(a, b, EXACT_ASSIGNMENT, subset)
            assert (m.total_distance, m.average_distance, m.exact_match) \
                == (ref.total_distance, ref.average_distance, ref.exact_match)
            assert sorted(m.permutation) == list(range(n_rows))
            na, nb = joint_normalize(a, b, subset)
            pairs = in_place_pairs(na, nb)
            assert all(m.permutation[i] == j for i, j in pairs.items())

    def test_transport_plan_is_optimal_for_any_whole_costs(self):
        # checked against the row-by-row assignment it stands for
        rng = np.random.default_rng(71)
        for _ in range(300):
            n_p, n_q = (int(k) for k in rng.integers(1, 12, 2))
            total = int(rng.integers(max(n_p, n_q), 40))
            supply, demand = (
                np.bincount(np.r_[np.arange(k), rng.integers(0, k, total - k)])
                for k in (n_p, n_q))
            cost = rng.integers(0, 9, (n_p, n_q)).astype(float)
            flow = similarity_module._transport(supply, demand, cost)
            assert (flow >= 0).all()
            assert np.array_equal(flow.sum(axis=1), supply)
            assert np.array_equal(flow.sum(axis=0), demand)
            rows = cost[np.repeat(np.arange(n_p), supply)][
                :, np.repeat(np.arange(n_q), demand)]
            assert (flow * cost).sum() \
                == rows[linear_sum_assignment(rows)].sum()

    def test_many_distinct_rows_go_to_linear_sum_assignment(self,
                                                            monkeypatch):
        # 10 0/1 columns leave far more than _TRANSPORT_ROWS distinct rows
        a, b = mixed_pair(np.random.default_rng(67), 2000, 9, 0)
        solved = []  # a call of _exact_cost marks the assignment path
        exact_cost = similarity_module._exact_cost
        monkeypatch.setattr(similarity_module, "_exact_cost",
                            lambda na, nb: solved.append(1)
                            or exact_cost(na, nb))
        m = match_rows(a, b, EXACT_ASSIGNMENT)
        assert len(solved) == 1
        monkeypatch.setattr(similarity_module, "_TRANSPORT_ROWS", 10**9)
        transport = match_rows(a, b, EXACT_ASSIGNMENT)
        assert len(solved) == 1
        assert (m.total_distance, m.exact_match) \
            == (transport.total_distance, transport.exact_match)
        assert sorted(m.permutation) == list(range(2000))

    @pytest.mark.parametrize("n_rows, patterns, solver", [
        (300, 12, "transport"), (2000, 1024, "linear_sum_assignment")],
        ids=["transport", "linear_sum_assignment"])
    def test_permutation_does_not_depend_on_column_layout(
            self, monkeypatch, n_rows, patterns, solver):
        # 10 0/1 columns as int8 columns, float64 copies and the strided
        # columns of a C-order float64 matrix, as the normalised path has
        rng = np.random.default_rng(89)
        ma, mb = (rng.integers(0, 2, (patterns, 10), dtype=np.int8)[
            rng.integers(0, patterns, n_rows)] for _ in range(2))
        layouts = [([c.copy() for c in m.T] for m in (ma, mb)),
                   ([c.astype(np.float64) for c in m.T] for m in (ma, mb)),
                   (list(m.astype(np.float64).T) for m in (ma, mb))]
        solved = []  # the solver each call reached
        transport = similarity_module._transport
        exact_cost = similarity_module._exact_cost
        monkeypatch.setattr(similarity_module, "_transport",
                            lambda *args: solved.append("transport")
                            or transport(*args))
        monkeypatch.setattr(similarity_module, "_exact_cost",
                            lambda *args: solved.append(
                                "linear_sum_assignment") or exact_cost(*args))
        perms = [similarity_module._exact_permutation(*sides)
                 for sides in layouts]
        assert solved == [solver] * 3
        assert all(p.dtype == np.int64 for p in perms)
        assert np.array_equal(perms[0], perms[1])
        assert np.array_equal(perms[0], perms[2])
        assert sorted(perms[0]) == list(range(n_rows))


class TestZeroOneCells:
    """A subset of binary columns is matched on its int8 cells, to the
    permutation and numbers of the normalised float path, bit for bit."""

    @pytest.mark.parametrize("method", [GREEDY_RANK, EXACT_ASSIGNMENT,
                                        IDENTITY])
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 300])
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           patterns=st.integers(1, 12),
           constant=st.sampled_from([None, "a", "b", "both", "opposite"]),
           share=st.sampled_from([0.3, 1.0]))
    @example(n=1, seed=0, patterns=1, constant=None, share=1.0)
    @example(n=1, seed=1, patterns=1, constant="opposite", share=1.0)
    @example(n=5, seed=2, patterns=3, constant="both", share=1.0)
    # at m = 300 its distances straddle 127, where an int8 cost would wrap
    @example(n=12, seed=1, patterns=3, constant="opposite", share=0.3)
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_same_as_dense_float_oracle(self, method, m, n, seed, patterns,
                                        constant, share):
        a, b = zero_one_pair(m, n, seed, patterns, constant, share)
        got = match_rows(a, b, method)
        perm, total, average, exact = dense_oracle(a, b, method)
        assert got.permutation.dtype == perm.dtype
        assert np.array_equal(got.permutation, perm)
        assert (got.total_distance, got.average_distance, got.exact_match) \
            == (total, average, exact)
        assert all(type(v) is float for v in (got.total_distance,
                                              got.average_distance,
                                              got.exact_match))

    @pytest.mark.parametrize("method", [GREEDY_RANK, EXACT_ASSIGNMENT,
                                        IDENTITY])
    def test_mixed_subset_keeps_the_float_path(self, monkeypatch, method):
        calls = []
        normalize = similarity_module.joint_normalize
        monkeypatch.setattr(similarity_module, "joint_normalize",
                            lambda *args: calls.append(args)
                            or normalize(*args))
        rng = np.random.default_rng(83)
        for n_rows in (1, 9, 80):
            a, b = mixed_pair(rng, n_rows, 3, 1, levels=4)
            for subset in (None, ["b0", "c0"], ["c0"]):
                got = match_rows(a, b, method, subset)
                perm, total, average, exact = dense_oracle(a, b, method,
                                                           subset)
                assert np.array_equal(got.permutation, perm)
                assert (got.total_distance, got.average_distance,
                        got.exact_match) == (total, average, exact)
            match_rows(a, b, method, ["b0", "b2", "y"])
        # one normalisation per mixed or continuous subset, none for 0/1
        assert len(calls) == 3 * 3

    @pytest.mark.parametrize("method", [GREEDY_RANK, EXACT_ASSIGNMENT,
                                        IDENTITY])
    @pytest.mark.parametrize("n_binary, n_continuous", [
        (4, 3), (4, 4), (8, 7), (8, 8), (100, 30)],
        ids=["m=8", "m=9", "m=16", "m=17", "m=131"])
    def test_wide_float_path_same_as_dense_oracle(self, method, n_binary,
                                                  n_continuous):
        # from 8 columns numpy sums each row in eight accumulators, and
        # above 128 in halves. Levels 0-3 normalise to thirds, so rows
        # whose sums tie exactly round apart by that order, and the greedy
        # ranks follow it; a third of b's rows copy rows of a, so some
        # matched rows sum to zero
        rng = np.random.default_rng(89)
        for n_rows in (1, 9, 60):
            a, b = mixed_pair(rng, n_rows, n_binary, n_continuous, levels=4)
            b = copy_rows(rng, a, b, 0.3)
            got = match_rows(a, b, method)
            perm, total, average, exact = dense_oracle(a, b, method)
            assert np.array_equal(got.permutation, perm)
            assert (got.total_distance, got.average_distance,
                    got.exact_match) == (total, average, exact)
            assert exact_match_fraction(a, b, got) == exact

    @pytest.mark.parametrize("subset", ["xy", "Gender"])
    def test_string_subset_refused(self, subset):
        # "xy" used to match columns x and y; "Gender" failed naming the
        # letters ['G', 'e', 'n', 'd', 'e', 'r']
        if subset == "xy":
            schema = Schema(features=(FeatureSpec("x"),),
                            outcome=FeatureSpec("y"))
            data = Dataset(schema, {"x": [0, 1, 1], "y": [1, 0, 1]})
        else:
            data = generate_ground_truth(builtin_configs(n=50)[0])
        message = ("^feature_subset must be a list of column names, not the "
                   f"string '{subset}'$")
        for method in (GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY):
            with pytest.raises(SchemaError, match=message):
                match_rows(data, data, method, subset)
        with pytest.raises(SchemaError, match=message):
            joint_normalize(data, data, subset)

    @pytest.mark.parametrize("kind", ["zero-one", "mixed"])
    @pytest.mark.parametrize("first", range(6), ids=[
        "method", "schemas", "sizes", "empty", "duplicate", "unknown"])
    def test_refusals_keep_their_messages_and_order(self, kind, first):
        # each call has the fault named by `first` and every one after it
        truth = generate_ground_truth(builtin_configs(n=50)[0])
        schema = Schema(truth.schema.features, FeatureSpec("Died"))
        renamed = Dataset(schema, {
            **{f.name: truth.column(f.name) for f in schema.features},
            "Died": truth.outcome})
        names = ["Gender"] if kind == "zero-one" else ["Gender", "Age"]
        subsets = [names + ["Nope", "Nope"], names + ["Nope", "Nope"],
                   names + ["Nope", "Nope"], [], names + ["Nope", "Nope"],
                   names + ["Nope"]]
        method = "nearest" if first == 0 else GREEDY_RANK
        other = (renamed.take(np.arange(40)) if first <= 1
                 else truth.take(np.arange(40)) if first == 2 else truth)
        subset = subsets[first]
        messages = [
            "unknown matching method 'nearest'",
            "datasets have different schemas",
            "datasets differ in size: 50 vs 40",
            "feature_subset must name at least one column and none twice, "
            f"got {subset}",
            "feature_subset must name at least one column and none twice, "
            f"got {subset}",
            "unknown column 'Nope'"]
        with pytest.raises(ValueError) as refused:
            match_rows(truth, other, method, subset)
        assert type(refused.value) is (ValueError if first == 0
                                       else SchemaError)
        assert str(refused.value) == messages[first]


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
                assert g.flags.f_contiguous
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


def dense_oracle(a, b, method, names=None):
    """match_rows's numbers as the float path forms them: normalise, sort
    by row sum or solve, then take absolute differences."""
    na, nb = matrix_normalize(a, b, names)
    n, m = na.shape
    if method == IDENTITY:
        perm = np.arange(n)
    elif method == GREEDY_RANK:
        perm = np.empty(n, dtype=np.int64)
        perm[np.argsort(na.sum(axis=1), kind="stable")] = \
            np.argsort(nb.sum(axis=1), kind="stable")
    else:
        perm = similarity_module._exact_permutation(list(na.T), list(nb.T))
    diff = np.abs(na - nb[perm])
    total = float(diff.sum() / m)
    zero = np.count_nonzero(diff.sum(axis=1) <= 1e-12 * m)
    return perm, total, total / n, float(zero) / n


def zero_one_pair(m, n, seed, patterns, constant, share):
    """Two n-row datasets of m binary columns (m - 1 features and the
    outcome), each drawing its rows from its own few patterns, each pattern
    with its own share of ones, so row distances spread over 0..m. With
    `constant`, a share of the columns is held at 0 or 1 in a, in b, in
    both, or at 1 in a and 0 in b ("opposite")."""
    rng = np.random.default_rng(seed)
    schema = Schema(features=tuple(FeatureSpec(f"x{j}")
                                   for j in range(m - 1)),
                    outcome=FeatureSpec("y"))
    rows = []
    for _ in range(2):
        pool = (rng.random((patterns, m))
                < rng.random((patterns, 1))).astype(np.int8)
        rows.append(pool[rng.integers(0, patterns, n)])
    if constant is not None:
        held = rng.choice(m, max(1, int(share * m)), replace=False)
        value = rng.integers(0, 2, len(held))
        if constant in ("a", "both", "opposite"):
            rows[0][:, held] = 1 if constant == "opposite" else value
        if constant in ("b", "both", "opposite"):
            rows[1][:, held] = 0 if constant == "opposite" else value
    return tuple(Dataset(schema, {name: r[:, j] for j, name
                                  in enumerate(schema.column_names)})
                 for r in rows)
