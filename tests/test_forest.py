import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ecoinfer.forest as forest_module
from ecoinfer.forest import (MAX_THRESHOLDS, NODE_DTYPE, DecisionTree,
                             ForestParams, Metrics, RandomForest,
                             SingleClassError, ensemble_labels,
                             ensemble_predict, evaluate, load_ensemble,
                             member_params, save_ensemble, train_ensemble,
                             train_forest)
from ecoinfer.tabular import (BINARY, CONTINUOUS, Dataset, FeatureSpec,
                              Schema, SchemaError)

from conftest import small_schema


def labeled_dataset(x, y, extra=None):
    feats = [FeatureSpec("x")]
    cols = {"x": x, "Dead": y}
    if extra is not None:
        feats.append(FeatureSpec("z", CONTINUOUS))
        cols["z"] = extra
    schema = Schema(features=tuple(feats), outcome=FeatureSpec("Dead"))
    return Dataset(schema, cols)


def continuous_dataset(columns, y):
    schema = Schema(features=tuple(FeatureSpec(name, CONTINUOUS)
                                   for name in columns),
                    outcome=FeatureSpec("Dead"))
    return Dataset(schema, {**columns, "Dead": y})


def leaf_node(counts, pred):
    return {"feature": None, "threshold": 0.0, "left": -1, "right": -1,
            "counts": list(counts), "pred": pred}


def constant_tree(label):
    return DecisionTree.from_dict({"nodes": [leaf_node((1, 1), label)]})


def constant_forest(label, feature_names=("x",)):
    return RandomForest(ForestParams(n_trees=1),
                        [constant_tree(label)], list(feature_names))


def probe(*x):
    """Rows to predict: feature x holds the values, the outcome is 1."""
    return continuous_dataset({"x": np.array(x, dtype=float)}, [1] * len(x))


class TestTrainForest:
    def test_pure_signal_perfect_training_accuracy(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, 400)
        ds = labeled_dataset(x, x)  # outcome equals the feature
        forest = train_forest(ds, ForestParams(n_trees=10, seed=3))
        preds = ensemble_predict([forest], ds)
        assert (preds == ds.outcome).all()

    def test_random_labels_near_chance(self):
        # Monte-Carlo oracle: with the outcome independent of every
        # feature, held-out accuracy hovers around 0.5
        rng = np.random.default_rng(2)
        n = 2000
        x = rng.integers(0, 2, n)
        z = rng.normal(0, 1, n)
        y = rng.integers(0, 2, n)
        ds = labeled_dataset(x[:1000], y[:1000], z[:1000])
        forest = train_forest(ds, ForestParams(n_trees=20, seed=4))
        test = labeled_dataset(x[1000:], y[1000:], z[1000:])
        acc = float((ensemble_predict([forest], test) == test.outcome).mean())
        assert abs(acc - 0.5) < 0.1

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 300)
        z = rng.normal(0, 1, 300)
        y = ((x == 0) & (z > 0)).astype(int)
        ds = labeled_dataset(x, 1 - y, z)
        f1 = train_forest(ds, ForestParams(n_trees=15, seed=9))
        f2 = train_forest(ds, ForestParams(n_trees=15, seed=9))
        probe = np.column_stack([rng.integers(0, 2, 50), rng.normal(0, 1, 50)])
        assert np.array_equal(f1.predict(probe), f2.predict(probe))

    def test_single_class_rejected(self):
        ds = labeled_dataset([0, 1, 0, 1], [1, 1, 1, 1])
        with pytest.raises(ValueError):
            train_forest(ds, ForestParams(n_trees=2))

    def test_depth_bound_respected(self):
        rng = np.random.default_rng(6)
        n = 500
        ds = labeled_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                             rng.normal(0, 1, n))
        params = ForestParams(n_trees=8, max_depth=3, seed=0)
        forest = train_forest(ds, params)
        depths = [t.depth() for t in forest.trees]
        assert depths == [reference_depth(t.nodes) for t in forest.trees]
        assert max(depths) == 3

    def test_leaves_never_empty(self):
        rng = np.random.default_rng(7)
        n = 300
        ds = labeled_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                             rng.normal(0, 1, n))
        forest = train_forest(ds, ForestParams(n_trees=5, seed=1))
        for tree in forest.trees:
            leaves = tree.nodes[tree.nodes["feature"] < 0]
            assert len(leaves) > 1
            assert (leaves["counts"].sum(axis=1) > 0).all()

    def test_midpoint_rounding_onto_upper_value_never_splits(self):
        # The midpoint of two adjacent floats rounds onto the upper one, so
        # "x <= mid" holds for every row and no threshold separates them.
        a = 1 + 2.0 ** -52
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        ds = continuous_dataset({"x": [a] * 50 + [b] * 50}, [0] * 50 + [1] * 50)
        forest = train_forest(ds, ForestParams(n_trees=10, seed=0))
        assert all(len(t.nodes) == 1 for t in forest.trees)

    @pytest.mark.parametrize("values", [(1.6e308, 1.7e308),
                                        (1.6e308, 1.7e308, 1.75e308)])
    def test_midpoint_overflow_trains_quietly(self, values):
        # a midpoint past the largest float leaves one side empty, so
        # no threshold splits these values
        x = np.resize(np.array(values), 60)
        ds = continuous_dataset({"x": x}, (x == values[0]).astype(int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forest = train_forest(ds, ForestParams(n_trees=4, seed=0))
        assert all(len(t.nodes) == 1 for t in forest.trees)

    def test_two_valued_split_feature_is_not_scored_below(self, monkeypatch):
        # each child of a split on a feature with two values keeps one of
        # them, so no node below scores that feature again
        rng = np.random.default_rng(17)
        cols = {f"b{j}": rng.integers(0, 2, 300) for j in range(6)}
        ds = continuous_dataset(cols, cols["b0"] ^ cols["b1"]
                                ^ (rng.random(300) < 0.2))
        scored, grown = [], []
        split = forest_module._Lockstep._split

        def spy(self, trees, recs, subsets, free):
            grown[:] = [self]
            scored.extend((r, set(sub[f].tolist()))
                          for r, sub, f in zip(recs.tolist(), subsets, free))
            return split(self, trees, recs, subsets, free)

        monkeypatch.setattr(forest_module._Lockstep, "_split", spy)
        train_forest(ds, ForestParams(n_trees=4, max_depth=12, seed=2))
        assert len(scored) > 40
        # each node record's parent, and the feature a split record splits on
        *_, left, right, feature = grown[0].rec[:, :grown[0].n_records]
        parent = np.full(len(left), -1)
        inner = np.flatnonzero(left >= 0)
        parent[left[inner]] = parent[right[inner]] = inner
        for r, feats in scored:
            j, above = parent[r], set()
            while j >= 0:
                above.add(int(feature[j]))
                j = parent[j]
            assert not above & feats, r


def reference_depth(nodes, i=0):
    if nodes["feature"][i] < 0:
        return 0
    return 1 + max(reference_depth(nodes, nodes["left"][i]),
                   reference_depth(nodes, nodes["right"][i]))


def reference_best_split(X, y, features):
    """Dense split search on the expanded bootstrap rows of one node."""
    n = len(y)
    is_pos = (y == 0).astype(np.float64)
    n_pos = is_pos.sum()
    best = None
    best_score = 1.0 - ((n_pos / n) ** 2 + ((n - n_pos) / n) ** 2) - 1e-12
    for f in features:
        v = X[:, f]
        uniq = np.unique(v)
        if len(uniq) < 2:
            continue
        mids = (uniq[1:] + uniq[:-1]) / 2.0
        if len(mids) > MAX_THRESHOLDS:
            mids = mids[np.linspace(0, len(mids) - 1,
                                    MAX_THRESHOLDS).astype(int)]
        left = v[:, None] <= mids[None, :]
        n_l = left.sum(axis=0).astype(np.float64)
        pos_l = is_pos @ left
        n_r = n - n_l
        pos_r = n_pos - pos_l
        with np.errstate(divide="ignore", invalid="ignore"):
            g_l = 1.0 - (pos_l ** 2 + (n_l - pos_l) ** 2) / n_l ** 2
            g_r = 1.0 - (pos_r ** 2 + (n_r - pos_r) ** 2) / n_r ** 2
            score = (n_l * g_l + n_r * g_r) / n
        score[(n_l == 0) | (n_r == 0)] = np.inf
        j = int(np.argmin(score))
        if score[j] < best_score:
            best_score = score[j]
            best = (int(f), float(mids[j]))
    return best


def reference_trees(X, y, params):
    """Node lists of a forest grown row by row on each bootstrap, as the
    trainer did before it worked on weighted distinct rows."""
    k = math.ceil(math.sqrt(X.shape[1]))
    trees = []
    for ss in np.random.SeedSequence(params.seed).spawn(params.n_trees):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, len(y), size=len(y))
        Xb, yb = X[idx], y[idx]
        nodes = []

        def leaf(yn):
            n_pos = int(np.count_nonzero(yn == 0))
            n_neg = len(yn) - n_pos
            nodes.append(leaf_node((n_pos, n_neg), 0 if n_pos >= n_neg else 1))
            return len(nodes) - 1

        def build(rows, depth):
            yn = yb[rows]
            if depth >= params.max_depth or (yn == yn[0]).all():
                return leaf(yn)
            feats = rng.choice(X.shape[1], size=k, replace=False)
            split = reference_best_split(Xb[rows], yn, feats)
            if split is None:
                return leaf(yn)
            f, t = split
            go_left = Xb[rows, f] <= t
            node = len(nodes)
            nodes.append({"feature": f, "threshold": t, "left": -1,
                          "right": -1, "counts": [0, 0], "pred": 1})
            nodes[node]["left"] = build(rows[go_left], depth + 1)
            nodes[node]["right"] = build(rows[~go_left], depth + 1)
            return node

        build(np.arange(len(y)), 0)
        trees.append({"nodes": nodes})
    return trees


def awkward_columns(rng, n):
    a = 1 + 2.0 ** -52
    return {
        "adjacent": rng.choice([a, np.nextafter(a, 2.0), 1.0], n),
        "tiny": rng.choice([0.1, 1e-300, -0.0, 0.0, 1 / 3, 5e-324], n),
        "wide": rng.choice([-1e300, -1.0, 1e300, 2.0 ** 60], n),
        "normal": rng.normal(0, 1, n),
    }


class TestSameTreesAsRowByRow:
    """The pattern-weighted trainer grows the trees the row-by-row one
    grew, node for node and bit for bit."""

    @staticmethod
    def two_valued(rng, n, a, b):
        """Column z takes a or b, column u is noise; the outcome leans on z."""
        z = rng.choice([a, b], n)
        u = rng.normal(0, 1, n)
        y = ((z == a) ^ (rng.random(n) < 0.3)).astype(int)
        return continuous_dataset({"z": z, "u": u}, y)

    @pytest.mark.parametrize("case, max_depth", [
        ("repeated", 7), ("many-values", 7), ("awkward", 7),
        ("binary-columns", 12), ("binary-and-round", 12),
        ("two-valued", 12), ("overflow-up", 12), ("overflow-down", 12),
        ("rounds-onto-upper", 12), ("wide", 12)])
    def test_same_trees(self, case, max_depth):
        rng = np.random.default_rng(13)
        n = 400
        adjacent = 1 + 2.0 ** -52
        if case == "repeated":
            ds = labeled_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                                 np.round(rng.normal(40, 15, n)))
        elif case == "many-values":
            z = rng.normal(0, 1, n)
            ds = continuous_dataset({"z": z, "r": np.round(z * 4),
                                     "u": rng.random(n)},
                                    (z + rng.normal(0, 1, n) > 0).astype(int))
        elif case == "awkward":
            ds = continuous_dataset(awkward_columns(rng, n),
                                    rng.integers(0, 2, n))
        elif case in ("binary-columns", "binary-and-round"):
            # deep trees on few repeated patterns: most features an
            # ancestor has settled
            cols = {f"b{j}": rng.integers(0, 2, n) for j in range(6)}
            if case == "binary-and-round":
                cols["r"] = np.round(rng.normal(0, 1.5, n))
            signal = cols["b0"] ^ cols["b1"] ^ (rng.random(n) < 0.2)
            ds = continuous_dataset(cols, signal.astype(int))
        elif case == "wide":
            # 12 features, so 4 per subset
            cols = {f"b{j}": rng.integers(0, 2, n) for j in range(8)}
            cols.update({f"c{j}": np.round(rng.normal(0, 3, n))
                         for j in range(4)})
            ds = continuous_dataset(cols, rng.integers(0, 2, n))
        else:
            a, b = {"two-valued": (-2.5, 7.0),
                    "overflow-up": (1.6e308, 1.7e308),
                    "overflow-down": (-1.7e308, -1.6e308),
                    "rounds-onto-upper": (adjacent,
                                          np.nextafter(adjacent, 2.0))}[case]
            ds = self.two_valued(rng, n, a, b)
        params = ForestParams(n_trees=6, max_depth=max_depth, seed=5)
        X = ds.to_matrix(ds.schema.feature_names)
        got = [t.to_dict() for t in train_forest(ds, params).trees]
        with np.errstate(over="ignore"):
            expected = reference_trees(X, ds.outcome, params)
        assert json.dumps(got) == json.dumps(expected)


# a column draws its values from one of these: binary, ties among a few
# values, +-1e308 (whose midpoints overflow), adjacent floats (whose
# midpoint rounds onto the upper one), or floats spread wide enough that a
# column can have more than MAX_THRESHOLDS + 1 values in a node
ADJACENT = 1 + 2.0 ** -52
COLUMN_VALUES = [
    st.sampled_from([0, 1]),
    st.sampled_from([-2.5, 0.5, 3.0, 7.25]),
    st.sampled_from([-1e308, 1e308, -1.7e308, 1.7e308, 0.0]),
    st.sampled_from([ADJACENT, float(np.nextafter(ADJACENT, 2.0)), 1.0]),
    st.floats(-1e3, 1e3)]


@st.composite
def mixed_datasets(draw):
    """1-3 small datasets, each with binary and continuous columns and
    both outcome classes."""
    datasets = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 80))
        kinds = draw(st.lists(st.integers(0, len(COLUMN_VALUES) - 1),
                              min_size=1, max_size=7))
        columns = {f"c{j}": draw(st.lists(COLUMN_VALUES[kind], min_size=n,
                                          max_size=n))
                   for j, kind in enumerate(kinds)}
        y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                 .filter(lambda y: 0 < sum(y) < len(y)))
        schema = Schema(features=tuple(
            FeatureSpec(name, BINARY if kind == 0 else CONTINUOUS)
            for name, kind in zip(columns, kinds)),
            outcome=FeatureSpec("Dead"))
        datasets.append(Dataset(schema, {**columns, "Dead": y}))
    return datasets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(datasets=mixed_datasets(), n_trees=st.integers(1, 4),
       max_depth=st.integers(1, 12), seed=st.integers(0, 2 ** 32))
def test_ensemble_is_row_by_row_forest_by_forest(datasets, n_trees, max_depth,
                                                 seed):
    """Trees of different depths finish at different steps, and deep ones
    on binary columns pop nodes whose subset features are all settled;
    every forest is still the row-by-row one."""
    params = ForestParams(n_trees=n_trees, max_depth=max_depth, seed=seed)
    ensemble = train_ensemble(datasets, params)
    for k, (model, data) in enumerate(zip(ensemble, datasets)):
        X = data.to_matrix(data.schema.feature_names)
        with np.errstate(over="ignore"):
            expected = reference_trees(X, data.outcome,
                                       member_params(params, k))
        assert json.dumps([t.to_dict() for t in model.trees]) == \
            json.dumps(expected), k


class TestEdgesAgainstRowByRow:
    def test_more_features_than_bits_in_a_word(self):
        # 70 features: splits on features past 64 settle them below
        rng = np.random.default_rng(23)
        cols = {f"b{j}": rng.integers(0, 2, 300) for j in range(66)}
        cols.update({f"c{j}": np.round(rng.normal(0, 2, 300))
                     for j in range(4)})
        y = cols["b65"] ^ cols["b64"] ^ (rng.random(300) < 0.1)
        ds = continuous_dataset(cols, y.astype(int))
        params = ForestParams(n_trees=3, max_depth=14, seed=4)
        forest = train_forest(ds, params)
        assert {64, 65} <= {int(f) for t in forest.trees
                            for f in t.nodes["feature"]}
        expected = reference_trees(ds.to_matrix(ds.schema.feature_names),
                                   ds.outcome, params)
        assert json.dumps([t.to_dict() for t in forest.trees]) == \
            json.dumps(expected)

    def test_stack_is_as_wide_as_trees_can_grow(self):
        # max_depth 10**6 on 400 rows: a stack that wide would take 8 MB a
        # tree, but no tree can be deeper than its 400 rows
        rng = np.random.default_rng(29)
        z = rng.random(400)
        ds = continuous_dataset({"z": z, "r": np.round(z * 40)},
                                rng.integers(0, 2, 400))
        params = ForestParams(n_trees=4, max_depth=10 ** 6, seed=6)
        tracemalloc.start()
        try:
            forest = train_forest(ds, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.n_trees * params.max_depth * 8 / 20
        assert max(t.depth() for t in forest.trees) > 12
        expected = reference_trees(ds.to_matrix(ds.schema.feature_names),
                                   ds.outcome, params)
        assert json.dumps([t.to_dict() for t in forest.trees]) == \
            json.dumps(expected)


def choice_subsets(rng, d, k, count):
    """The oracle: one rng.choice call per subset, as a node once drew."""
    return [rng.choice(d, size=k, replace=False).tolist()
            for _ in range(count)]


def block_subsets(rng, d, k, count):
    """The first count subsets of the blocks _feature_subsets draws from
    rng, block after block."""
    subsets = []
    while len(subsets) < count:
        subsets += forest_module._feature_subsets(rng, d, k).tolist()
    return subsets[:count]


def pre_drawn(seed, words):
    """A generator that has drawn some 32-bit words first: after an odd
    count PCG64 holds the upper half of its last 64-bit output."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=words, dtype=np.uint32)
    return rng


class TestFeatureSubsets:
    """Subsets drawn in blocks are the ones per-node rng.choice calls draw,
    and leave the generator where those calls leave it after each block."""

    @pytest.mark.parametrize("d", range(1, 65))
    def test_same_as_choice(self, d, monkeypatch):
        monkeypatch.setattr(forest_module, "SUBSET_BLOCK", 6)
        for k in sorted({math.ceil(math.sqrt(d)), d}):
            for seed in range(50):
                got, ref = pre_drawn(seed, seed % 4), pre_drawn(seed, seed % 4)
                assert block_subsets(got, d, k, 6) == \
                    choice_subsets(ref, d, k, 6), (k, seed)
                assert got.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 64])
    def test_same_as_choice_across_refills(self, d, monkeypatch):
        # 7 subsets in blocks of 2: three refills, and the generator has
        # drawn the fourth block whole, as 8 choice calls do
        monkeypatch.setattr(forest_module, "SUBSET_BLOCK", 2)
        for k in sorted({math.ceil(math.sqrt(d)), d}):
            for seed in range(8):
                got, ref = pre_drawn(seed, seed % 4), pre_drawn(seed, seed % 4)
                assert block_subsets(got, d, k, 7) == \
                    choice_subsets(ref, d, k, 7), (k, seed)
                choice_subsets(ref, d, k, 1)
                assert got.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("d", [5, 12])
    def test_same_as_choice_in_full_blocks(self, d):
        k = math.ceil(math.sqrt(d))
        count = 2 * forest_module.SUBSET_BLOCK + 1
        for seed in range(3):
            assert block_subsets(np.random.default_rng(seed), d, k, count) \
                == choice_subsets(np.random.default_rng(seed), d, k, count)

    @staticmethod
    def holding_zero(seed):
        """A fresh generator whose next 32-bit word is 0. The first bound
        b = d - k + 1 rejects it when 2**32 mod b > 0, as (0 * b) mod 2**32
        = 0 is below that, so choice draws another word in its place."""
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        rng.bit_generator.state = state
        return rng

    def test_possible_rejection_is_not_decoded(self, monkeypatch):
        # the rejected word is skipped: the subsets, and the generator after
        # them, are those of the same generator without the word
        monkeypatch.setattr(forest_module, "SUBSET_BLOCK", 4)
        for seed in range(5):
            got, ref = self.holding_zero(seed), np.random.default_rng(seed)
            assert block_subsets(got, 5, 3, 12) == \
                block_subsets(ref, 5, 3, 12)
            assert got.bit_generator.state == ref.bit_generator.state

    def test_fallback_draws_with_choice(self, monkeypatch):
        # a block holding a rejected word draws what choice draws
        monkeypatch.setattr(forest_module, "SUBSET_BLOCK", 4)
        for d, k in [(5, 3), (8, 3), (30, 6)]:
            assert 2**32 % (d - k + 1) > 0
            for seed in range(5):
                got, ref = self.holding_zero(seed), self.holding_zero(seed)
                assert block_subsets(got, d, k, 12) == \
                    choice_subsets(ref, d, k, 12), (d, k, seed)
                assert got.bit_generator.state == ref.bit_generator.state

    def test_grow_calls_no_choice(self, monkeypatch):
        class CountingGenerator(np.random.Generator):
            calls = 0

            def choice(self, *args, **kwargs):
                CountingGenerator.calls += 1
                return super().choice(*args, **kwargs)

        rng = np.random.default_rng(3)
        ds = labeled_dataset(rng.integers(0, 2, 300), rng.integers(0, 2, 300),
                             rng.normal(0, 1, 300))
        monkeypatch.setattr(
            np.random, "default_rng",
            lambda seed: CountingGenerator(np.random.PCG64(seed)))
        forest = train_forest(ds, ForestParams(n_trees=2, seed=4))
        assert all((tree.nodes["feature"] >= 0).sum() > 10
                   for tree in forest.trees)
        assert CountingGenerator.calls == 0


class TestPredict:
    def test_all_trees_agree(self):
        forest = RandomForest(ForestParams(n_trees=3),
                              [constant_tree(1)] * 3, ["x"])
        assert ensemble_predict([forest], probe(0.0, 1.0)).tolist() == [1, 1]

    def test_tie_breaks_toward_dead(self):
        trees = [constant_tree(0)] * 25 + [constant_tree(1)] * 25
        forest = RandomForest(ForestParams(n_trees=50), trees, ["x"])
        assert ensemble_predict([forest], probe(0.5)).tolist() == [0]

    def test_schema_mismatch(self):
        other = labeled_dataset([0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(SchemaError):
            ensemble_predict([constant_forest(1)], other)
        with pytest.raises(SchemaError):
            ensemble_labels([constant_forest(1),
                             constant_forest(1, ("x", "z"))], other)


class TestEnsemble:
    def test_majority_of_models(self):
        forests = [constant_forest(0)] * 5 + [constant_forest(1)] * 4
        assert ensemble_predict(forests, probe(1.0)).tolist() == [0]

    def test_single_model_identity(self):
        assert ensemble_predict([constant_forest(1)], probe(1.0)).tolist() \
            == [1]

    def test_model_tie_breaks_toward_dead(self):
        forests = [constant_forest(0)] * 2 + [constant_forest(1)] * 2
        assert ensemble_predict(forests, probe(1.0)).tolist() == [0]

    def test_odd_ensemble_never_ties(self):
        rng = np.random.default_rng(8)
        forests = [constant_forest(int(v)) for v in rng.integers(0, 2, 7)]
        votes = ensemble_labels(forests, probe(0.0))[:, 0].tolist()
        expected = 0 if votes.count(0) > votes.count(1) else 1
        assert ensemble_predict(forests, probe(0.0)).tolist() == [expected]

    def test_labels_are_each_forests_labels_of_every_row(self):
        # repeated rows are predicted once and scattered back
        rng = np.random.default_rng(9)
        forests = trained_ensemble(rng)
        data = labeled_dataset(rng.integers(0, 2, 300), rng.integers(0, 2, 300),
                               np.round(rng.normal(0, 1, 300)))
        X = data.to_matrix(data.schema.feature_names)
        assert np.array_equal(ensemble_labels(forests, data),
                              [forest.predict(X) for forest in forests])

    def test_no_features_label_every_row_alike(self):
        # every row is the one empty row, which each tree's root labels
        data = Dataset(Schema(features=(), outcome=FeatureSpec("y")),
                       {"y": [0, 1, 1, 0, 1]})
        forests = train_ensemble([data], ForestParams(n_trees=2))
        assert np.array_equal(ensemble_labels(forests, data),
                              [forests[0].predict(np.empty((5, 0)))])


class TestEmptyEnsemble:
    def test_train_needs_a_dataset(self):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="at least one forest"):
                train_ensemble([], ForestParams(n_trees=1), workers=workers)

    def test_predict_needs_a_forest(self):
        with pytest.raises(ValueError, match="at least one forest"):
            ensemble_labels([], probe(1.0))
        with pytest.raises(ValueError, match="at least one forest"):
            ensemble_predict([], probe(1.0))


class TestTrainEnsemble:
    @staticmethod
    def datasets(rng, count=3):
        out = []
        for _ in range(count):
            x, z = rng.integers(0, 2, 120), rng.normal(0, 1, 120)
            out.append(labeled_dataset(x, x ^ (z > 0).astype(int), z))
        return out

    def test_forest_k_seeded_seed_plus_k(self):
        datasets = self.datasets(np.random.default_rng(13))
        params = ForestParams(n_trees=3, max_depth=4, seed=40)
        ens = train_ensemble(iter(datasets), params)
        assert [m.params.seed for m in ens] == [40, 41, 42]
        for k, (model, data) in enumerate(zip(ens, datasets)):
            alone = train_forest(data, ForestParams(n_trees=3, max_depth=4,
                                                    seed=40 + k))
            assert model.to_dict() == alone.to_dict()

    def test_same_forests_at_any_worker_count(self):
        # 5 datasets in chunks of 2 + 3 and of 1 + 2 + 2
        datasets = self.datasets(np.random.default_rng(14), count=5)
        params = ForestParams(n_trees=4, max_depth=5, seed=7)
        serial = [m.to_dict() for m in train_ensemble(datasets, params)]
        for workers in (2, 3):
            pooled = train_ensemble(datasets, params, workers=workers)
            assert [m.to_dict() for m in pooled] == serial

    def test_same_trees_as_row_by_row_forest_by_forest(self):
        """Grown in lockstep, each forest is the row-by-row one: datasets
        of different sizes and bins, trees of depth 1 next to depth 12,
        and midpoints that overflow or round onto the upper value."""
        rng = np.random.default_rng(21)
        adjacent = 1 + 2.0 ** -52
        z = rng.normal(0, 1, 400)
        deep = continuous_dataset(
            {"z": z, "r": np.round(z * 4), "u": rng.random(400),
             "b": rng.integers(0, 2, 400)},
            (z + rng.normal(0, 1, 400) > 0).astype(int))
        edge = continuous_dataset({
            "up": rng.choice([1.6e308, 1.7e308], 250),
            "onto": rng.choice([adjacent, np.nextafter(adjacent, 2.0)], 250),
            "down": rng.choice([-1.7e308, -1.6e308, -1.5e308], 250),
            "noise": np.round(rng.normal(0, 2, 250), 1)},
            rng.integers(0, 2, 250))
        x = rng.integers(0, 2, 120)
        stump = labeled_dataset(x, x)
        awkward = continuous_dataset(awkward_columns(rng, 333),
                                     rng.integers(0, 2, 333))
        datasets = [deep, edge, stump, awkward]
        params = ForestParams(n_trees=4, max_depth=12, seed=3)
        ensemble = train_ensemble(datasets, params)
        assert [max(t.depth() for t in m.trees) for m in ensemble] == \
            [12, 6, 1, 12]
        for k, (model, data) in enumerate(zip(ensemble, datasets)):
            X = data.to_matrix(data.schema.feature_names)
            with np.errstate(over="ignore"):
                expected = reference_trees(X, data.outcome,
                                           member_params(params, k))
            assert json.dumps([t.to_dict() for t in model.trees]) == \
                json.dumps(expected), k

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_class_names_its_dataset(self, workers):
        datasets = self.datasets(np.random.default_rng(15))
        datasets[1] = labeled_dataset([0, 1, 0], [1, 1, 1])
        with pytest.raises(SingleClassError,
                           match="^dataset 1: training data contains a "
                                 "single outcome class$") as err:
            train_ensemble(datasets, ForestParams(n_trees=2), workers=workers)
        assert err.value.dataset == 1

    def test_leaves_no_garbage(self):
        # no reference cycles: every node, bootstrap and pattern table is
        # freed when training returns
        datasets = self.datasets(np.random.default_rng(16))
        params = ForestParams(n_trees=3, seed=1)
        train_ensemble(datasets, params)  # numpy's lazy imports leave some
        gc.collect()
        gc.disable()
        try:
            train_ensemble(datasets, params)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEvaluate:
    def test_perfect_predictions(self):
        m = evaluate([0, 1, 0, 1], [0, 1, 0, 1])
        assert (m.accuracy, m.precision, m.recall) == (1.0, 1.0, 1.0)

    def test_all_predicted_alive(self):
        truth = [0] * 10 + [1] * 90
        m = evaluate([1] * 100, truth)
        assert m.accuracy == 0.9
        assert m.recall == 0.0
        assert m.precision is None

    def test_hand_arithmetic(self):
        # tp=2, fp=1, fn=2, tn=5
        pred = [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        truth = [0, 0, 1, 0, 0, 1, 1, 1, 1, 1]
        m = evaluate(pred, truth)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 2, 5)
        assert m.accuracy == pytest.approx(0.7)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([0, 1], [0])

    def test_metric_identities(self):
        rng = np.random.default_rng(10)
        pred = rng.integers(0, 2, 200)
        truth = rng.integers(0, 2, 200)
        m = evaluate(pred, truth)
        assert m.accuracy * 200 == pytest.approx(m.tp + m.tn)
        perm = rng.permutation(200)
        m2 = evaluate(pred[perm], truth[perm])
        assert m2 == m


def trained_ensemble(rng):
    x = rng.integers(0, 2, 200)
    z = rng.normal(0, 1, 200)
    y = (x ^ (z > 0).astype(int))
    ds = labeled_dataset(x, y, z)
    return [train_forest(ds, ForestParams(n_trees=5, seed=s)) for s in (1, 2)]


def random_rows(rng, n=30):
    return labeled_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                           rng.normal(0, 1, n))


class TestSerialization:
    def test_ensemble_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        ens = trained_ensemble(rng)
        path = tmp_path / "model.json"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        rows = random_rows(rng)
        assert np.array_equal(ensemble_labels(back, rows),
                              ensemble_labels(ens, rows))

    def test_numpy_seed_saves_as_a_plain_number(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = random_rows(rng)
        for seed, name in ((3, "int.json"), (np.int64(3), "numpy.json")):
            save_ensemble(train_ensemble([ds], ForestParams(n_trees=2,
                                                            seed=seed)),
                          tmp_path / name)
        assert (tmp_path / "int.json").read_bytes() == \
            (tmp_path / "numpy.json").read_bytes()

    def test_loads_older_format(self, tmp_path):
        # Older model files carry a "task" key and four more training
        # settings per forest; both are ignored on load.
        rng = np.random.default_rng(12)
        ens = trained_ensemble(rng)
        path = tmp_path / "model.json"
        save_ensemble(ens, path)
        payload = json.loads(path.read_text())
        payload["task"] = "classification"
        for model in payload["models"]:
            model["params"].update(min_samples_split=2,
                                   features_per_split=None, bootstrap=True,
                                   max_thresholds=32)
        path.write_text(json.dumps(payload))
        back = load_ensemble(path)
        assert [m.params for m in back] == [m.params for m in ens]
        rows = random_rows(rng)
        assert np.array_equal(ensemble_labels(back, rows),
                              ensemble_labels(ens, rows))


def node(feature, left, right):
    return {"feature": feature, "threshold": 0.5, "left": left,
            "right": right, "counts": [0, 0], "pred": 1}


def model_file(path, *trees):
    """A one-model file, on the one feature x, holding trees given as node
    lists."""
    forest = {"params": {"n_trees": max(1, len(trees)), "max_depth": 8,
                         "seed": 0},
              "feature_names": ["x"],
              "trees": [{"nodes": nodes} for nodes in trees]}
    path.write_text(json.dumps({"models": [forest]}))
    return path


LEAVES = [leaf_node((1, 0), 0), leaf_node((0, 1), 1)]


class TestModelFileChecks:
    """load_ensemble refuses a file that prediction could not walk, and
    names the file, model, tree and node at fault."""

    def test_no_models(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"models": []}')
        with pytest.raises(ValueError, match="at least one model") as err:
            load_ensemble(path)
        assert str(path) in str(err.value)

    def test_no_trees(self, tmp_path):
        with pytest.raises(ValueError, match="model 0 has no trees"):
            load_ensemble(model_file(tmp_path / "m.json"))

    def test_non_integer_params(self, tmp_path):
        path = model_file(tmp_path / "m.json", [LEAVES[1]])
        payload = json.loads(path.read_text())
        payload["models"][0]["params"]["max_depth"] = 2.5
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert f"{path}: model 0, max_depth must be an integer, got 2.5" \
            in str(err.value)

    def test_tree_with_no_nodes(self, tmp_path):
        with pytest.raises(ValueError, match="model 0, tree 1: has no nodes"):
            load_ensemble(model_file(tmp_path / "m.json", [LEAVES[0]], []))

    @pytest.mark.parametrize("nodes, at", [
        ([node(0, 0, 0)], "node 0:"),                  # root is its own child
        ([node(0, 1, 2), node(0, 0, 2), *LEAVES], "node 1:"),  # back to root
        ([node(0, 1, 5), *LEAVES], "node 0:"),         # past the last node
        ([node(0, -1, 2), *LEAVES], "node 0:"),        # a leaf's -1 child
        ([node(1, 1, 2), *LEAVES], "node 0:"),         # feature 1 of 1
        ([node(0, 1, 2), LEAVES[0], leaf_node((0, 1), 7)],
         "node 2: leaf predicts 7,"),
        ([{**node(0, 1, 2), "threshold": math.nan}, *LEAVES],
         "node 0: threshold is NaN"),
    ], ids=["self-loop", "back-edge", "out-of-range", "negative-child",
            "unknown-feature", "leaf-label-7", "nan-threshold"])
    def test_unwalkable_node(self, tmp_path, nodes, at):
        path = model_file(tmp_path / "m.json", [LEAVES[1]], nodes)
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert f"{path}: model 0, tree 1: {at}" in str(err.value)

    @pytest.mark.parametrize("nodes, at", [
        ([{**node(0, 1, 2), "feature": 0.7}, *LEAVES],
         "node 0: feature 0.7 is not an integer"),
        ([{**node(0, 1, 2), "left": 1.9}, *LEAVES],
         "node 0: left 1.9 is not an integer"),
        ([node(0, 1, 2), LEAVES[0], {**LEAVES[1], "right": "2"}],
         "node 2: right '2' is not an integer"),
        ([node(0, 1, 2), LEAVES[0], leaf_node((0, 1), 0.5)],
         "node 2: pred 0.5 is not an integer"),
        ([node(0, 1, 2), LEAVES[0], leaf_node((0, 1), True)],
         "node 2: pred True is not an integer"),
    ], ids=["float-feature", "float-left", "string-right", "float-pred",
            "bool-pred"])
    def test_non_integer_field(self, tmp_path, nodes, at):
        # the int64 node fields would load these as 0, 1, 2, 0 and 1
        path = model_file(tmp_path / "m.json", [LEAVES[1]], nodes)
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert f"{path}: model 0, tree 1: {at}" in str(err.value)
        with pytest.raises(ValueError, match=f"^{at}$"):
            DecisionTree.from_dict({"nodes": nodes})

    @pytest.mark.parametrize("nodes, at", [
        ([node(0, 1, 2), LEAVES[0], leaf_node((0, 1, 2), 1)],
         "node 2: counts [0, 1, 2] is not two integers"),
        ([node(0, 1, 2), LEAVES[0], leaf_node((1,), 1)],
         "node 2: counts [1] is not two integers"),
        ([node(0, 1, 2), LEAVES[0], leaf_node((0.5, 1), 1)],
         "node 2: counts [0.5, 1] is not two integers"),
        ([node(0, 1, 2), LEAVES[0], {**LEAVES[1], "counts": 3}],
         "node 2: counts 3 is not two integers"),
    ], ids=["three-counts", "one-count", "float-count", "scalar-count"])
    def test_counts_must_be_two_integers(self, tmp_path, nodes, at):
        # [1] would be broadcast into the (2,) counts field as [1, 1]
        path = model_file(tmp_path / "m.json", [LEAVES[1]], nodes)
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert f"{path}: model 0, tree 1: {at}" in str(err.value)

    @pytest.mark.parametrize("key", list(NODE_DTYPE.names))
    def test_missing_node_key(self, tmp_path, key):
        leaf = {k: v for k, v in LEAVES[1].items() if k != key}
        path = model_file(tmp_path / "m.json", [LEAVES[1]],
                          [node(0, 1, 2), LEAVES[0], leaf])
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert (f"{path}: model 0, tree 1: node 2: missing key {key!r}"
                in str(err.value))

    @pytest.mark.parametrize("key", ["params", "feature_names", "trees"])
    def test_missing_model_key(self, tmp_path, key):
        path = model_file(tmp_path / "m.json", [LEAVES[1]])
        payload = json.loads(path.read_text())
        del payload["models"][0][key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert f"{path}: model 0, missing key {key!r}" in str(err.value)

    def test_missing_nodes_and_models_keys(self, tmp_path):
        path = model_file(tmp_path / "m.json", [LEAVES[1]])
        payload = json.loads(path.read_text())
        del payload["models"][0]["trees"][0]["nodes"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert f"{path}: model 0, tree 0: missing key 'nodes'" in str(
            err.value)
        path.write_text(json.dumps({"task": "classification"}))
        with pytest.raises(ValueError) as err:
            load_ensemble(path)
        assert f"{path}: missing key 'models'" in str(err.value)

    def test_cli_predict_on_a_cyclic_file_exits_1(self, tmp_path):
        model = model_file(tmp_path / "cyclic.json", [node(0, 0, 0)])
        data = tmp_path / "rows.csv"
        probe(0.0, 1.0).to_csv(data)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))}
        done = subprocess.run(
            [sys.executable, "-m", "ecoinfer.cli", "predict", str(model),
             str(data)], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert "model 0, tree 0: node 0:" in done.stderr
        assert done.stdout == ""
