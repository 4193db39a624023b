import json

import numpy as np
import pytest

from ecoinfer.forest import (DecisionTree, EnsembleModel, ForestParams,
                             Metrics, RandomForest, TreeNode, ensemble_predict,
                             evaluate, load_ensemble, predict, save_ensemble,
                             train_forest)
from ecoinfer.tabular import Dataset, FeatureSpec, Schema, SchemaError

from conftest import small_schema


def labeled_dataset(x, y, extra=None):
    feats = [FeatureSpec("x")]
    cols = {"x": x, "Dead": y}
    if extra is not None:
        feats.append(FeatureSpec("z"))
        cols["z"] = extra
    schema = Schema(features=tuple(feats), outcome=FeatureSpec("Dead"))
    return Dataset(schema, cols)


def constant_tree(label):
    return DecisionTree([TreeNode(counts=(1, 1), pred=label)])


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
        assert all(t.depth() <= 3 for t in forest.trees)

    def test_leaves_never_empty(self):
        rng = np.random.default_rng(7)
        n = 300
        ds = labeled_dataset(rng.integers(0, 2, n), rng.integers(0, 2, n),
                             rng.normal(0, 1, n))
        forest = train_forest(ds, ForestParams(n_trees=5, seed=1))
        for tree in forest.trees:
            for node in tree.nodes:
                if node.is_leaf:
                    assert sum(node.counts) > 0


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
