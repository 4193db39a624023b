"""From-scratch CART random forest, ensemble aggregation, and evaluation
metrics.

Trees split on Gini impurity over ceil(sqrt(n_features)) random features
per node, each tree trained on a seeded bootstrap resample. The positive
class is the dead outcome (encoded 0) and all prediction ties resolve
toward it: in the trauma setting a false negative is worse than a false
positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from .tabular import Dataset, SchemaError

POSITIVE_CLASS = 0  # dead / abnormal
MAX_THRESHOLDS = 32  # continuous-feature split candidates per node


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    max_depth: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (counts/pred)."""

    feature: int | None = None
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    counts: tuple[int, int] = (0, 0)  # (positive=0 labels, negative=1 labels)
    pred: int = 1

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTree:
    """One CART tree stored as a flat node array."""

    def __init__(self, nodes: list[TreeNode]):
        self.nodes = nodes

    def predict(self, X: np.ndarray) -> np.ndarray:
        nodes = self.nodes
        feat = np.array([-1 if n.feature is None else n.feature for n in nodes])
        thr = np.array([n.threshold for n in nodes])
        left = np.array([n.left for n in nodes])
        right = np.array([n.right for n in nodes])
        pred = np.array([n.pred for n in nodes])
        cur = np.zeros(len(X), dtype=np.int64)
        while True:
            internal = feat[cur] >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            f = feat[cur[rows]]
            go_left = X[rows, f] <= thr[cur[rows]]
            cur[rows] = np.where(go_left, left[cur[rows]], right[cur[rows]])
        return pred[cur]

    def depth(self) -> int:
        def walk(i, d):
            n = self.nodes[i]
            if n.is_leaf:
                return d
            return max(walk(n.left, d + 1), walk(n.right, d + 1))
        return walk(0, 0)

    def to_dict(self) -> dict:
        return {"nodes": [asdict(n) for n in self.nodes]}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        nodes = []
        for nd in d["nodes"]:
            nd = dict(nd)
            nd["counts"] = tuple(nd["counts"])
            nodes.append(TreeNode(**nd))
        return cls(nodes)


def _leaf(nodes: list[TreeNode], y: np.ndarray) -> int:
    n_pos = int(np.count_nonzero(y == POSITIVE_CLASS))
    n_neg = len(y) - n_pos
    pred = POSITIVE_CLASS if n_pos >= n_neg else 1 - POSITIVE_CLASS
    nodes.append(TreeNode(counts=(n_pos, n_neg), pred=pred))
    return len(nodes) - 1


def _best_split(X: np.ndarray, y: np.ndarray,
                features: np.ndarray) -> tuple[int, float] | None:
    """Minimum weighted-Gini (feature, threshold) over the candidates, or
    None when no split separates the node."""
    n = len(y)
    is_pos = (y == POSITIVE_CLASS).astype(np.float64)
    n_pos = is_pos.sum()
    parent_gini = 1.0 - ((n_pos / n) ** 2 + ((n - n_pos) / n) ** 2)
    best = None
    best_score = parent_gini - 1e-12
    for f in features:
        v = X[:, f]
        uniq = np.unique(v)
        if len(uniq) < 2:
            continue
        mids = (uniq[1:] + uniq[:-1]) / 2.0
        if len(mids) > MAX_THRESHOLDS:
            pick = np.linspace(0, len(mids) - 1, MAX_THRESHOLDS).astype(int)
            mids = mids[pick]
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


def _grow(X: np.ndarray, y: np.ndarray, params: ForestParams,
          rng: np.random.Generator) -> DecisionTree:
    k = math.ceil(math.sqrt(X.shape[1]))
    nodes: list[TreeNode] = []

    def build(idx: np.ndarray, depth: int) -> int:
        ynode = y[idx]
        if depth >= params.max_depth or (ynode == ynode[0]).all():
            return _leaf(nodes, ynode)
        feats = rng.choice(X.shape[1], size=k, replace=False)
        split = _best_split(X[idx], ynode, feats)
        if split is None:
            return _leaf(nodes, ynode)
        f, t = split
        go_left = X[idx, f] <= t
        node_id = len(nodes)
        nodes.append(TreeNode(feature=f, threshold=t))
        nodes[node_id].left = build(idx[go_left], depth + 1)
        nodes[node_id].right = build(idx[~go_left], depth + 1)
        return node_id

    build(np.arange(len(y)), 0)
    return DecisionTree(nodes)


class RandomForest:
    """Bagged CART trees with majority-vote prediction."""

    def __init__(self, params: ForestParams, trees: list[DecisionTree],
                 feature_names: list[str]):
        self.params = params
        self.trees = trees
        self.feature_names = feature_names

    def predict(self, X: np.ndarray) -> np.ndarray:
        return majority_vote([tree.predict(X) for tree in self.trees])

    def to_dict(self) -> dict:
        return {"params": asdict(self.params),
                "feature_names": self.feature_names,
                "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForest":
        # Older model files also carry four training settings that are now
        # constants; they do not affect prediction.
        known = {f.name for f in fields(ForestParams)}
        params = {k: v for k, v in d["params"].items() if k in known}
        return cls(params=ForestParams(**params),
                   trees=[DecisionTree.from_dict(t) for t in d["trees"]],
                   feature_names=list(d["feature_names"]))


def train_forest(data: Dataset, params: ForestParams) -> RandomForest:
    """Train one forest on a dataset's feature columns vs its outcome."""
    names = data.schema.feature_names
    X = data.to_matrix(names)
    y = data.outcome
    if len(np.unique(y)) < 2:
        raise ValueError("training data contains a single outcome class")
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    trees = []
    n = len(y)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, n, size=n)
        trees.append(_grow(X[idx], y[idx], params, rng))
    return RandomForest(params, trees, names)


def predict(forest: RandomForest, data: Dataset | np.ndarray) -> np.ndarray:
    """Forest labels for a dataset (features only) or a raw feature matrix."""
    if isinstance(data, Dataset):
        if data.schema.feature_names != forest.feature_names:
            raise SchemaError("dataset features do not match the forest")
        X = data.to_matrix(forest.feature_names)
    else:
        X = np.asarray(data, dtype=np.float64)
        if X.shape[1] != len(forest.feature_names):
            raise SchemaError("feature matrix width does not match the forest")
    return forest.predict(X)


def majority_vote(labels) -> np.ndarray:
    """Per-row majority of a (voters, rows) label matrix, or of a list of
    equal-length label arrays; ties go to the positive (dead) class."""
    labels = np.asarray(labels)
    positive = (labels == POSITIVE_CLASS).sum(axis=0)
    return np.where(2 * positive >= len(labels), POSITIVE_CLASS,
                    1 - POSITIVE_CLASS)


@dataclass
class EnsembleModel:
    """One trained model per candidate dataset, aggregated at predict time."""

    models: list[RandomForest]

    def __post_init__(self):
        if not self.models:
            raise ValueError("ensemble needs at least one model")


def ensemble_predict(ensemble: EnsembleModel,
                     data: Dataset | np.ndarray) -> np.ndarray:
    """Majority of the per-model labels, ties toward the positive class."""
    return majority_vote([predict(m, data) for m in ensemble.models])


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float | None  # None when no positive predictions were made
    recall: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(predicted, truth, positive_class: int = POSITIVE_CLASS) -> Metrics:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("predicted and truth must be equal-length, non-empty")
    pp = predicted == positive_class
    tp_ = truth == positive_class
    tp = int(np.count_nonzero(pp & tp_))
    fp = int(np.count_nonzero(pp & ~tp_))
    fn = int(np.count_nonzero(~pp & tp_))
    tn = int(np.count_nonzero(~pp & ~tp_))
    return Metrics(
        accuracy=(tp + tn) / predicted.size,
        precision=tp / (tp + fp) if tp + fp > 0 else None,
        recall=tp / (tp + fn) if tp + fn > 0 else 0.0,
        tp=tp, fp=fp, tn=tn, fn=fn,
    )


def save_ensemble(ensemble: EnsembleModel, path: str | Path) -> None:
    payload = {"models": [m.to_dict() for m in ensemble.models]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_ensemble(path: str | Path) -> EnsembleModel:
    """Load a saved ensemble; the "task" key of older files is ignored."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return EnsembleModel(models=[RandomForest.from_dict(m)
                                 for m in payload["models"]])
