import json
import math

import numpy as np
import pytest

from ecoinfer.forest import (MAX_THRESHOLDS, DecisionTree, EnsembleModel,
                             ForestParams, Metrics, RandomForest,
                             ensemble_predict, evaluate, load_ensemble,
                             predict, save_ensemble, train_forest)
from ecoinfer.tabular import (CONTINUOUS, Dataset, FeatureSpec, Schema,
                              SchemaError)

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


class TestTrainForest:
    def test_pure_signal_perfect_training_accuracy(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, 400)
        ds = labeled_dataset(x, x)  # outcome equals the feature
        forest = train_forest(ds, ForestParams(n_trees=10, seed=3))
        preds = predict(forest, ds)
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
        acc = float((predict(forest, test) == test.outcome).mean())
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

    @pytest.mark.parametrize("case", ["repeated", "many-values", "awkward"])
    def test_same_trees(self, case):
        rng = np.random.default_rng(13)
        n = 400
        if case == "repeated":
            ds = labeled_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                                 np.round(rng.normal(40, 15, n)))
        elif case == "many-values":
            z = rng.normal(0, 1, n)
            ds = continuous_dataset({"z": z, "r": np.round(z * 4),
                                     "u": rng.random(n)},
                                    (z + rng.normal(0, 1, n) > 0).astype(int))
        else:
            ds = continuous_dataset(awkward_columns(rng, n),
                                    rng.integers(0, 2, n))
        params = ForestParams(n_trees=6, max_depth=7, seed=5)
        X = ds.to_matrix(ds.schema.feature_names)
        got = [t.to_dict() for t in train_forest(ds, params).trees]
        assert json.dumps(got) == \
            json.dumps(reference_trees(X, ds.outcome, params))


class TestPredict:
    def test_all_trees_agree(self):
        forest = RandomForest(ForestParams(n_trees=3),
                              [constant_tree(1)] * 3, ["x"])
        assert predict(forest, np.array([[0.0], [1.0]])).tolist() == [1, 1]

    def test_tie_breaks_toward_dead(self):
        trees = [constant_tree(0)] * 25 + [constant_tree(1)] * 25
        forest = RandomForest(ForestParams(n_trees=50), trees, ["x"])
        assert predict(forest, np.array([[0.5]])).tolist() == [0]

    def test_schema_mismatch(self):
        forest = constant_forest(1)
        other = labeled_dataset([0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(SchemaError):
            predict(forest, other)


class TestEnsemble:
    def test_majority_of_models(self):
        models = [constant_forest(0)] * 5 + [constant_forest(1)] * 4
        ens = EnsembleModel(models=models)
        assert ensemble_predict(ens, np.array([[1.0]])).tolist() == [0]

    def test_single_model_identity(self):
        ens = EnsembleModel(models=[constant_forest(1)])
        assert ensemble_predict(ens, np.array([[1.0]])).tolist() == [1]

    def test_model_tie_breaks_toward_dead(self):
        models = [constant_forest(0)] * 2 + [constant_forest(1)] * 2
        ens = EnsembleModel(models=models)
        assert ensemble_predict(ens, np.array([[1.0]])).tolist() == [0]

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            EnsembleModel(models=[])

    def test_odd_ensemble_never_ties(self):
        rng = np.random.default_rng(8)
        models = [constant_forest(int(v)) for v in rng.integers(0, 2, 7)]
        ens = EnsembleModel(models=models)
        votes = [m.predict(np.array([[0.0]]))[0] for m in models]
        expected = 0 if votes.count(0) > votes.count(1) else 1
        assert ensemble_predict(ens, np.array([[0.0]])).tolist() == [expected]


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
    return EnsembleModel(models=[
        train_forest(ds, ForestParams(n_trees=5, seed=s)) for s in (1, 2)])


class TestSerialization:
    def test_ensemble_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        ens = trained_ensemble(rng)
        path = tmp_path / "model.json"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        probe = np.column_stack([rng.integers(0, 2, 30), rng.normal(0, 1, 30)])
        assert np.array_equal(ensemble_predict(back, probe),
                              ensemble_predict(ens, probe))

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
        assert [m.params for m in back.models] == \
            [m.params for m in ens.models]
        probe = np.column_stack([rng.integers(0, 2, 30), rng.normal(0, 1, 30)])
        for loaded, trained in zip(back.models, ens.models):
            assert np.array_equal(predict(loaded, probe),
                                  predict(trained, probe))
        assert np.array_equal(ensemble_predict(back, probe),
                              ensemble_predict(ens, probe))
