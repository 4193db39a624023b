"""From-scratch CART random forest, ensemble aggregation, and evaluation
metrics.

Trees split on Gini impurity over ceil(sqrt(n_features)) random features
per node, each tree trained on a seeded bootstrap resample. The positive
class is the dead outcome (encoded 0) and all prediction ties resolve
toward it: in the trauma setting a false negative is worse than a false
positive.

A tree's generator draws its feature subsets in blocks of SUBSET_BLOCK,
decoded from 32-bit words exactly as ``Generator.choice(d, size=k,
replace=False)`` decodes the same words. Nothing else draws from it after
the bootstrap, so each tree is node for node the one that a ``choice``
call at every split node grows.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from .tabular import Dataset, SchemaError, distinct_rows

POSITIVE_CLASS = 0  # dead / abnormal
MAX_THRESHOLDS = 32  # continuous-feature split candidates per node
SUBSET_BLOCK = 128  # feature subsets a tree draws from its generator at once


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


# One tree node per record. A leaf has feature -1 and its bootstrap class
# counts (positive, negative); an internal node keeps counts (0, 0) and
# pred 1, the values every saved model file carries for it.
NODE_DTYPE = np.dtype([("feature", np.int64), ("threshold", np.float64),
                       ("left", np.int64), ("right", np.int64),
                       ("counts", np.int64, (2,)), ("pred", np.int64)])


class DecisionTree:
    """One CART tree: a record array of nodes in depth-first, left-first
    order, the root first."""

    def __init__(self, nodes: np.ndarray):
        self.nodes = nodes

    def predict(self, X: np.ndarray) -> np.ndarray:
        nodes = self.nodes
        feat, thr = nodes["feature"], nodes["threshold"]
        left, right = nodes["left"], nodes["right"]
        cur = np.zeros(len(X), dtype=np.int64)
        while True:
            internal = feat[cur] >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            f = feat[cur[rows]]
            go_left = X[rows, f] <= thr[cur[rows]]
            cur[rows] = np.where(go_left, left[cur[rows]], right[cur[rows]])
        return nodes["pred"][cur]

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path."""
        feat, left, right = (self.nodes[k] for k in ("feature", "left", "right"))
        level, depth = np.zeros(1, dtype=np.int64), 0
        while True:
            inner = level[feat[level] >= 0]
            if not inner.size:
                return depth
            level = np.concatenate([left[inner], right[inner]])
            depth += 1

    def to_dict(self) -> dict:
        nodes = self.nodes
        return {"nodes": [
            {"feature": None if f < 0 else f, "threshold": t, "left": l,
             "right": r, "counts": c, "pred": p}
            for f, t, l, r, c, p in zip(
                *(nodes[k].tolist() for k in NODE_DTYPE.names))]}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        """Nodes in to_dict's layout. A feature (None on a leaf), child or
        pred that is not an integer raises ValueError naming the node: the
        int64 fields would truncate it."""
        for i, nd in enumerate(d["nodes"]):
            for key in ("feature", "left", "right", "pred"):
                v = nd[key]
                # type(), not isinstance(): a JSON true loads as a bool,
                # which is an int
                if type(v) is not int and not (key == "feature" and v is None):
                    raise ValueError(f"node {i}: {key} {v!r} is not an integer")
        return cls(np.array(
            [(-1 if nd["feature"] is None else nd["feature"], nd["threshold"],
              nd["left"], nd["right"], tuple(nd["counts"]), nd["pred"])
             for nd in d["nodes"]], dtype=NODE_DTYPE))


class _Patterns:
    """A training set's distinct (features, outcome) rows, binned once.

    A bootstrap becomes a weight per pattern, and a node's class counts
    per feature value become one weighted ``bincount`` over global bins.
    Every count is an integer, exact in float64, so each split scores
    exactly as it would on the expanded bootstrap rows.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.n_features = X.shape[1]
        negative = y != POSITIVE_CLASS
        rep, self.inverse = distinct_rows(np.column_stack([X, negative]))
        self.negative = negative[rep]
        # per feature: its sorted distinct values, and per pattern its value
        # and slot 2 * bin + (1 if negative)
        self.bins, self.values, self.slots = [], [], []
        for column in X[rep].T:
            bins, code = np.unique(column, return_inverse=True)
            self.bins.append(bins)
            self.values.append(column)
            self.slots.append(2 * code + self.negative)
        self.picks: dict[int, np.ndarray] = {}

    def bootstrap(self, rng: np.random.Generator) -> np.ndarray:
        """Pattern weights of one bootstrap resample of the training rows."""
        n = len(self.inverse)
        return np.bincount(self.inverse[rng.integers(0, n, size=n)],
                           minlength=len(self.negative)).astype(np.float64)

    def pick(self, n_mids: int) -> np.ndarray:
        """Indices of the MAX_THRESHOLDS midpoints kept out of n_mids."""
        if n_mids not in self.picks:
            self.picks[n_mids] = np.linspace(0, n_mids - 1,
                                             MAX_THRESHOLDS).astype(int)
        return self.picks[n_mids]

    def best_split(self, pats: np.ndarray, w: np.ndarray, n: float,
                   n_pos: float, features: list[int], settled: int):
        """Minimum weighted-Gini split of a node's patterns over the
        candidate features outside the ``settled`` bitmask, as (split,
        settled). The split is (feature, threshold, left weight, left
        positive weight), or None when no split separates the node. The
        returned mask adds what no descendant can split: each feature with
        fewer than two values here, and a split feature with exactly two,
        as each child keeps one of them.

        Thresholds are midpoints of adjacent values present at the node.
        A midpoint of two adjacent floats can round onto the upper one, or
        overflow, so the left side is everything ``<= mid``, found by
        search; with two values, the one midpoint counts when
        ``a <= mid < b`` and is scored in Python floats."""
        parent_gini = 1.0 - ((n_pos / n) ** 2 + ((n - n_pos) / n) ** 2)
        best = None
        best_score = parent_gini - 1e-12
        pair_split = False
        for f in features:
            if settled >> f & 1:
                continue
            bins = self.bins[f]
            hist = np.bincount(self.slots[f][pats], weights=w,
                               minlength=2 * len(bins))
            pos = hist[0::2]
            total = pos + hist[1::2]
            present = total.nonzero()[0]
            if len(present) < 2:
                settled |= 1 << f
                continue
            if len(present) == 2:
                i = present[0]
                a, b = bins[present].tolist()
                mid = (a + b) / 2.0
                if a <= mid < b:
                    n_l, pos_l = total[i], pos[i]
                    score = _split_score(float(n), float(n_pos), float(n_l),
                                         float(pos_l))
                    if score < best_score:
                        best_score = score
                        best = (f, mid, n_l, pos_l)
                        pair_split = True
                continue
            uniq = bins[present]
            mids = (uniq[1:] + uniq[:-1]) / 2.0
            if len(mids) > MAX_THRESHOLDS:
                mids = mids[self.pick(len(mids))]
            at = uniq.searchsorted(mids, side="right") - 1
            n_l = total[present].cumsum()[at]
            pos_l = pos[present].cumsum()[at]
            score = _split_score(n, n_pos, n_l, pos_l)
            score[n_l == n] = np.inf
            j = score.argmin()
            if score[j] < best_score:
                best_score = score[j]
                best = (f, float(mids[j]), n_l[j], pos_l[j])
                pair_split = False
        if pair_split:
            settled |= 1 << best[0]
        return best, settled

    def grow(self, max_depth: int, rng: np.random.Generator) -> DecisionTree:
        """One tree on a bootstrap drawn from ``rng``, which then draws one
        feature subset per split node in depth-first, left-first order.

        The subsets come from _feature_subsets, in blocks. They do not
        depend on the data and nothing draws from ``rng`` after the last
        one, so the tree is the one that calling ``rng.choice(d, size=k,
        replace=False)`` at each node grows; the draws left in the last
        block are never read."""
        weights = self.bootstrap(rng)
        d = self.n_features
        subsets = _feature_subsets(rng, d, math.ceil(math.sqrt(d)))
        rows: list[list] = []

        def leaf(n, n_pos):
            n_pos, n_neg = int(n_pos), int(n - n_pos)
            pred = POSITIVE_CLASS if n_pos >= n_neg else 1 - POSITIVE_CLASS
            rows.append([-1, 0.0, -1, -1, (n_pos, n_neg), pred])
            return len(rows) - 1

        def build(pats, depth, n, n_pos, settled):
            if depth >= max_depth or n_pos == 0 or n_pos == n:
                return leaf(n, n_pos)
            # drawn even when every feature is settled, so that each tree
            # takes the same draws as one that scores them all
            split, settled = self.best_split(pats, weights[pats], n, n_pos,
                                             next(subsets), settled)
            if split is None:
                return leaf(n, n_pos)
            f, t, n_l, pos_l = split
            go_left = self.values[f][pats] <= t
            node = len(rows)
            rows.append([f, t, -1, -1, (0, 0), 1])
            rows[node][2] = build(pats[go_left], depth + 1, n_l, pos_l,
                                  settled)
            rows[node][3] = build(pats[~go_left], depth + 1, n - n_l,
                                  n_pos - pos_l, settled)
            return node

        # A threshold above every value leaves no weight right: 0 / 0. The
        # midpoint of two huge finite values overflows to +-inf, which
        # leaves one side empty and so scores inf, like any such threshold.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            build(np.flatnonzero(weights), 0, weights.sum(),
                  weights[~self.negative].sum(), 0)
        # build refers to itself, so this frame is freed only by the cyclic
        # collector; free the last block of subsets now
        subsets.close()
        return DecisionTree(np.array([tuple(r) for r in rows],
                                     dtype=NODE_DTYPE))


def _feature_subsets(rng: np.random.Generator, d: int, k: int):
    """Endless iterator over the lists ``rng.choice(d, size=k,
    replace=False).tolist()`` would return call after call, leaving
    ``rng`` where those calls would have left it at the end of each block.

    Each block is one ``rng.integers`` call of SUBSET_BLOCK rows of 32-bit
    words, decoded by _decode_subsets. A block it cannot decode is drawn
    again, from the generator state saved before it, by ``rng.choice``
    itself. ``choice`` draws k of d by Floyd's algorithm unless d > 10,000
    and k > d // 50, which k = ceil(sqrt(d)) never meets."""
    words = 2 * k - 1 - (k == d)  # Floyd takes no word for j = 0
    while True:
        state = rng.bit_generator.state
        block = _decode_subsets(
            rng.integers(0, 2**32, size=(SUBSET_BLOCK, words),
                         dtype=np.uint32), d, k)
        if block is None:
            rng.bit_generator.state = state
            block = np.array([rng.choice(d, size=k, replace=False)
                              for _ in range(SUBSET_BLOCK)])
        yield from block.tolist()


def _decode_subsets(u: np.ndarray, d: int, k: int) -> np.ndarray | None:
    """The k-of-d subsets ``Generator.choice(d, size=k, replace=False)``
    decodes from each row of 32-bit words ``u``, or None when some word
    might be one that ``choice`` rejects and replaces with the next.

    ``choice`` runs Floyd's algorithm: for j = d-k ... d-1 it draws v in
    [0, j] and keeps v, or j when v is already kept; then it shuffles the
    k picks Fisher-Yates, swapping pick i with a drawn one in [0, i] for
    i = k-1 ... 1. Each draw in [0, b) takes one word w and is
    ``(w * b) >> 32`` (Lemire's method), except that j = 0 takes no word.
    Lemire's method rejects w only when ``(w * b) mod 2**32 < b``."""
    bounds = np.array([j + 1 for j in range(d - k, d) if j]
                      + list(range(k, 1, -1)), dtype=np.uint64)
    x = u.astype(np.uint64) * bounds
    if ((x & 0xFFFFFFFF) < bounds).any():
        return None
    draws = iter((x >> 32).astype(np.int64).T)
    picks = np.zeros((len(u), k), dtype=np.int64)  # j = 0 picks 0
    for t, j in enumerate(range(d - k, d)):
        if j:
            v = next(draws)
            kept = (picks[:, :t] == v[:, None]).any(axis=1)
            picks[:, t] = np.where(kept, j, v)
    rows = np.arange(len(u))
    for i in range(k - 1, 0, -1):
        to = next(draws)
        swapped = picks[rows, to]
        picks[rows, to] = picks[:, i]
        picks[:, i] = swapped
    return picks


def _split_score(n, n_pos, n_l, pos_l):
    """Weighted Gini impurity of splitting a node of weight n, n_pos of it
    positive, into a left side of weight n_l, pos_l positive, and the rest.
    The same operations on Python floats and on arrays give the same bits
    (numpy also squares ``x ** 2`` as ``x * x``)."""
    n_r, pos_r = n - n_l, n_pos - pos_l
    neg_l, neg_r = n_l - pos_l, n_r - pos_r
    g_l = 1.0 - (pos_l * pos_l + neg_l * neg_l) / (n_l * n_l)
    g_r = 1.0 - (pos_r * pos_r + neg_r * neg_r) / (n_r * n_r)
    return (n_l * g_l + n_r * g_r) / n


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
        trees = []
        for t, tree in enumerate(d["trees"]):
            try:
                trees.append(DecisionTree.from_dict(tree))
            except ValueError as e:
                raise ValueError(f"tree {t}: {e}") from e
        return cls(params=ForestParams(**params), trees=trees,
                   feature_names=list(d["feature_names"]))


def train_forest(data: Dataset, params: ForestParams) -> RandomForest:
    """Train one forest on a dataset's feature columns vs its outcome."""
    names = data.schema.feature_names
    X = data.to_matrix(names)
    y = data.outcome
    if len(np.unique(y)) < 2:
        raise ValueError("training data contains a single outcome class")
    patterns = _Patterns(X, y)
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    trees = [patterns.grow(params.max_depth, np.random.default_rng(ss))
             for ss in seeds]
    return RandomForest(params, trees, names)


def majority_vote(labels) -> np.ndarray:
    """Per-row majority of a (voters, rows) label matrix, or of a list of
    equal-length label arrays; ties go to the positive (dead) class."""
    labels = np.asarray(labels)
    positive = (labels == POSITIVE_CLASS).sum(axis=0)
    return np.where(2 * positive >= len(labels), POSITIVE_CLASS,
                    1 - POSITIVE_CLASS)


def member_params(params: ForestParams, k: int) -> ForestParams:
    """Forest k of an ensemble trains with params seeded params.seed + k."""
    return replace(params, seed=params.seed + k)


def train_ensemble(datasets: Iterable[Dataset], params: ForestParams,
                   workers: int = 1) -> list[RandomForest]:
    """One forest per dataset, forest k trained with member_params(params, k).

    One worker reads the datasets one at a time, so a lazy iterable holds
    one in memory; more workers train more than one dataset in a process
    pool. The forests are the same either way. No datasets raise
    ValueError."""
    if workers > 1 and len(datasets := list(datasets)) > 1:
        # Local: the pool pulls in multiprocessing, which one worker never needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(train_forest, datasets, [
                member_params(params, k) for k in range(len(datasets))]))
    forests = [train_forest(data, member_params(params, k))
               for k, data in enumerate(datasets)]
    _check_ensemble(forests)
    return forests


def _check_ensemble(forests: list) -> None:
    if not forests:
        raise ValueError("an ensemble needs at least one forest")


def ensemble_labels(forests: list[RandomForest], data: Dataset) -> np.ndarray:
    """The (forests, rows) label matrix of an ensemble on a dataset. A
    forest labels a row by its values alone, so each distinct row is
    predicted once and its labels are scattered back."""
    _check_ensemble(forests)
    names = data.schema.feature_names
    if any(forest.feature_names != names for forest in forests):
        raise SchemaError("dataset features do not match the forest")
    X = data.to_matrix(names)
    rep, inverse = distinct_rows(X)
    X = X[rep]
    return np.stack([forest.predict(X) for forest in forests])[:, inverse]


def ensemble_predict(forests: list[RandomForest], data: Dataset) -> np.ndarray:
    """Majority of the forests' labels, ties toward the positive class."""
    return majority_vote(ensemble_labels(forests, data))


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


def save_ensemble(forests: list[RandomForest], path: str | Path) -> None:
    payload = {"models": [forest.to_dict() for forest in forests]}
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps runs the C encoder; json.dump streams through Python.
        fh.write(json.dumps(payload))
        fh.write("\n")


def load_ensemble(path: str | Path) -> list[RandomForest]:
    """Load a saved ensemble; the "task" key of older files is ignored.

    A file with no models, a model with no trees, a node field that is not
    an integer (see DecisionTree.from_dict), or a tree prediction could not
    walk to a 0/1 label (see _walk_problem) raises ValueError naming the
    file, model, tree and node."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    forests = []
    for k, model in enumerate(payload["models"]):
        try:
            forests.append(RandomForest.from_dict(model))
        except ValueError as e:
            raise ValueError(f"{path}: model {k}, {e}") from e
    if not forests:
        raise ValueError(f"{path}: an ensemble needs at least one model")
    for k, forest in enumerate(forests):
        if not forest.trees:
            raise ValueError(f"{path}: model {k} has no trees")
        for t, tree in enumerate(forest.trees):
            if problem := _walk_problem(tree.nodes, len(forest.feature_names)):
                raise ValueError(f"{path}: model {k}, tree {t}: {problem}")
    return forests


def _walk_problem(nodes: np.ndarray, n_features: int) -> str | None:
    """Why prediction could not walk these nodes to a label, or None. Each
    internal node i (feature >= 0) must name a feature, have a threshold
    that is not NaN (every row would go right) and have both children in
    (i, len(nodes)), as depth-first preorder gives them; each leaf must
    predict 0 or 1."""
    n = len(nodes)
    if n == 0:
        return "has no nodes"
    f, left, right = nodes["feature"], nodes["left"], nodes["right"]
    thr, pred = nodes["threshold"], nodes["pred"]
    i = np.arange(n)
    bad = np.where(f >= 0, (f >= n_features) | np.isnan(thr)
                   | (np.minimum(left, right) <= i)
                   | (np.maximum(left, right) >= n),
                   (pred != 0) & (pred != 1))
    if not bad.any():
        return None
    j = int(np.argmax(bad))
    if f[j] < 0:
        return f"node {j}: leaf predicts {pred[j]}, not 0 or 1"
    if f[j] >= n_features:
        return f"node {j}: feature {f[j]} is not one of {n_features} features"
    if np.isnan(thr[j]):
        return f"node {j}: threshold is NaN"
    return f"node {j}: children ({left[j]}, {right[j]}) not both in ({j}, {n})"
