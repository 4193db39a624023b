"""From-scratch CART random forest, ensemble aggregation, and evaluation
metrics.

Trees split on Gini impurity over ceil(sqrt(n_features)) random features
per node, each tree trained on a seeded bootstrap resample. The positive
class is the dead outcome (encoded 0) and all prediction ties resolve
toward it: in the trauma setting a false negative is worse than a false
positive.

A tree's generator draws its feature subsets in blocks of SUBSET_BLOCK,
each block one ``Generator.integers`` call for the bounds that
``Generator.choice(d, size=k, replace=False)`` draws with, picked by the
same Floyd and Fisher-Yates steps. Nothing else draws from it after the
bootstrap, so each tree is node for node the one that a ``choice`` call at
every split node grows.

Every tree of an ensemble grows in lockstep (_Lockstep): each step takes
the next node of every unfinished tree and scores and splits them all with
a fixed number of numpy calls, instead of a dozen calls per node. Each tree
still takes its nodes in depth-first order from its own stack, writing each
node's row as it takes it, and its subsets from its own generator, and each
node's split is chosen by the same exact counts and tie rules, so the trees
do not depend on which other trees grow beside them.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from .tabular import (Dataset, SchemaError, check_integer, distinct_rows,
                      plain_number, require)

POSITIVE_CLASS = 0  # dead / abnormal
MAX_THRESHOLDS = 32  # continuous-feature split candidates per node
SUBSET_BLOCK = 128  # feature subsets a tree draws from its generator at once
# (pattern, candidate feature) entries a training step scores at once
_STEP_BLOCK = 1 << 15


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    max_depth: int = 8
    seed: int = 0

    def __post_init__(self):
        check_integer("n_trees", self.n_trees, least=1)
        check_integer("max_depth", self.max_depth, least=1)
        check_integer("seed", self.seed, least=0)  # numpy's seed rule


# One tree node per record. A leaf has feature -1 and its bootstrap class
# counts (positive, negative); an internal node keeps counts (0, 0) and
# pred 1, the values every saved model file carries for it.
NODE_DTYPE = np.dtype([("feature", np.int64), ("threshold", np.float64),
                       ("left", np.int64), ("right", np.int64),
                       ("counts", np.int64, (2,)), ("pred", np.int64)])
_NODE_FIELDS = operator.itemgetter(*NODE_DTYPE.names)


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
        """Nodes in to_dict's layout. A missing key, a feature (None on a
        leaf), child or pred that is not an integer, or counts that are not
        two integers raise ValueError naming the node: the int64 fields
        would truncate or broadcast them."""
        rows = []
        for i, nd in enumerate(require(d, "nodes")):
            try:
                (feature, threshold, left, right, counts,
                 pred) = _NODE_FIELDS(nd)
            except KeyError as e:
                raise ValueError(f"node {i}: missing key {e.args[0]!r}") from e
            # type(), not isinstance(): a JSON true loads as a bool, which
            # is an int
            if not (feature is None or type(feature) is int) \
                    or not type(left) is type(right) is type(pred) is int:
                for key in ("feature", "left", "right", "pred"):
                    v = nd[key]
                    if type(v) is not int and not (key == "feature"
                                                   and v is None):
                        raise ValueError(
                            f"node {i}: {key} {v!r} is not an integer")
            if type(counts) is not list or len(counts) != 2 \
                    or type(counts[0]) is not int or type(counts[1]) is not int:
                raise ValueError(
                    f"node {i}: counts {counts!r} is not two integers")
            rows.append((-1 if feature is None else feature, threshold, left,
                         right, tuple(counts), pred))
        return cls(np.array(rows, dtype=NODE_DTYPE))


class SingleClassError(ValueError):
    """A training set holds a single outcome class, or no rows if
    ``empty``; ``dataset`` is its index in the ensemble."""

    def __init__(self, dataset: int, empty: bool = False):
        what = "has no rows" if empty else "contains a single outcome class"
        super().__init__(f"dataset {dataset}: training data {what}")
        self.dataset, self.empty = dataset, empty

    def __reduce__(self):  # raised in a pool worker, pickled back
        return type(self), (self.dataset, self.empty)


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of these sizes starts."""
    return np.cumsum(sizes) - sizes


class _Lockstep:
    """Every tree of some forests, grown together one node per tree per step.

    Each forest's training set is reduced to its distinct (features,
    outcome) rows, its patterns, and each feature column to per-pattern
    slots ``2 * bin + (1 if negative)`` over that column's sorted distinct
    values. The columns of every forest sit end to end in one slot array and
    one bin-value array. A node holds a (2, patterns) array: the ids of its
    patterns in its forest, and their weights in its tree's bootstrap.

    A step pops the next node of every unfinished tree from that tree's own
    depth-first stack and draws the node's feature subset from the tree's
    own generator. It then scores all of the step's (node, feature) pairs
    with one weighted ``bincount`` and partitions the patterns of every
    node that splits, in order, into one array of left and one of right
    sides, in blocks of at most _STEP_BLOCK (pattern, feature) entries
    unless one node alone has more. Every count is an integer, exact in
    float64, and each node scores, breaks ties and settles features as it
    would grown alone, so every tree is node for node the tree grown alone.

    A tree writes a node's row, as a leaf, when it pops the node, so the
    row's index is its depth-first id. _split rewrites the row of a node
    that splits, and a popped right child writes its index into its
    parent's row. A tree whose stack empties becomes its DecisionTree.
    """

    def __init__(self, datasets: Iterable[Dataset], params: ForestParams,
                 first: int):
        self.max_depth = params.max_depth
        self.n_trees = params.n_trees
        self.forests: list[tuple[ForestParams, list[str]]] = []
        # an empty first part lets an ensemble of no datasets concatenate
        slots, bins = [np.zeros(0, np.int32)], [np.zeros(0)]
        n_bins, col_slot, col_bin = [], [], []
        n_slots = n_values = 0
        # per tree: its forest's first column, its subsets, and its stack of
        # (patterns, or None where the node cannot split; depth, weight,
        # positive weight, settled features as a bit mask, the index of the
        # parent it is the right child of or -1), and its node rows
        self.tree_col, self.subsets, self.stacks, self.nodes = [], [], [], []
        for k, data in enumerate(datasets, start=first):
            names = data.schema.feature_names
            X, y = data.to_matrix(names), data.outcome
            # one class, or no rows; np.unique(y) would import numpy.ma
            if not (y != y[:1]).any():
                raise SingleClassError(k, empty=not len(y))
            negative = y != POSITIVE_CLASS
            rep, inverse = distinct_rows(np.column_stack([X, negative]))
            negative = negative[rep]
            d, first_col = X.shape[1], len(col_slot)
            for column in X[rep].T:
                values, code = np.unique(column, return_inverse=True)
                col_slot.append(n_slots)
                col_bin.append(n_values)
                n_bins.append(len(values))
                slots.append((2 * code + negative).astype(np.int32))
                bins.append(values)
                n_slots += len(code)
                n_values += len(values)
            del X
            member = member_params(params, k)
            self.forests.append((member, names))
            for ss in np.random.SeedSequence(member.seed).spawn(self.n_trees):
                rng = np.random.default_rng(ss)
                w = np.bincount(inverse[rng.integers(0, len(y), size=len(y))],
                                minlength=len(rep))
                pats = np.flatnonzero(w)
                self.tree_col.append(first_col)
                self.subsets.append(_feature_subsets(
                    rng, d, math.ceil(math.sqrt(d))))
                self.stacks.append([self._entry(
                    np.array([pats, w[pats]], dtype=np.int32), 0,
                    float(w.sum()), float(w[~negative].sum()), 0, -1)])
                self.nodes.append([])
        self.slots, self.bins = np.concatenate(slots), np.concatenate(bins)
        self.col_slot, self.col_bin, self.n_bins = (
            np.array(a, dtype=np.intp) for a in (col_slot, col_bin, n_bins))

    def _entry(self, pats, depth, n, n_pos, settled, right_of):
        """A stack entry. A node that cannot split keeps no patterns; one
        that can keeps a copy, as a view would keep its whole step's array
        alive."""
        if depth >= self.max_depth or n_pos == 0 or n_pos == n:
            pats = None
        elif pats.base is not None:
            pats = pats.copy()
        return pats, depth, n, n_pos, settled, right_of

    def grow(self) -> list[RandomForest]:
        trees = [None] * len(self.stacks)
        live = list(range(len(self.stacks)))
        # A threshold above every value leaves no weight right: 0 / 0. The
        # midpoint of two huge finite values overflows to +-inf, which
        # leaves one side empty and so scores inf, like any such threshold.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while live:
                batch = []
                for t in live:
                    stack, nodes = self.stacks[t], self.nodes[t]
                    while stack:
                        pats, depth, n, n_pos, settled, right_of = stack.pop()
                        i = len(nodes)
                        if right_of >= 0:
                            nodes[right_of][3] = i  # the parent's right
                        nodes.append(_leaf(n, n_pos))
                        if pats is not None:
                            # drawn even when every feature is settled, so
                            # that each tree takes the same draws as one
                            # that scores them all
                            feats = [f for f in next(self.subsets[t])
                                     if not settled >> f & 1]
                            if feats:
                                batch.append((t, i, pats, depth, n, n_pos,
                                              settled, feats))
                                break
                start = size = 0
                for end, (*_, pats, _, _, _, _, feats) in enumerate(batch):
                    entries = pats.shape[1] * len(feats)
                    if size and size + entries > _STEP_BLOCK:
                        self._split(batch[start:end])
                        start, size = end, 0
                    size += entries
                if batch:
                    self._split(batch[start:])
                for t in live:
                    if not self.stacks[t]:
                        trees[t] = DecisionTree(np.array(
                            [tuple(row) for row in self.nodes[t]],
                            dtype=NODE_DTYPE))
                        # frees its rows and its last block of subsets
                        self.nodes[t] = self.subsets[t] = None
                live = [t for t in live if self.stacks[t]]
        return [RandomForest(member, trees[k * self.n_trees:
                                           (k + 1) * self.n_trees], names)
                for k, (member, names) in enumerate(self.forests)]

    def _split(self, block: list) -> None:
        """Score the block's nodes, rewrite the row of every node that
        splits, and push its children onto its tree's stack."""
        trees, ids, patss, depths, ns, n_poss, settleds, featss = zip(*block)
        size = np.array([pats.shape[1] for pats in patss])
        held = np.concatenate(patss, axis=1)  # the nodes' patterns, in order
        pats, weight = held
        node_at = _starts(size)
        # one (node, feature) pair per candidate feature, in subset order;
        # a pair's column is its forest's first column plus its feature
        n_feats = [len(feats) for feats in featss]
        pair_feat = [f for feats in featss for f in feats]
        pair_node = np.repeat(np.arange(len(block)), n_feats)
        pair_col = (np.repeat([self.tree_col[t] for t in trees], n_feats)
                    + pair_feat)
        pair_size = size[pair_node]
        # pair p counts its column's bins from hist_at[p] on; its entries
        # are its node's patterns, found in pats through entry
        n_bins = self.n_bins[pair_col]
        hist_at = _starts(n_bins)
        entry = np.repeat(node_at[pair_node] - _starts(pair_size), pair_size)
        entry += np.arange(len(entry))
        key = np.repeat(self.col_slot[pair_col], pair_size)
        key += pats[entry]
        key = self.slots[key]
        key += np.repeat(2 * hist_at, pair_size)
        hist = np.bincount(key, weights=weight[entry],
                           minlength=2 * n_bins.sum())
        del key, entry
        pos = hist[0::2]
        total = pos + hist[1::2]
        present = total.nonzero()[0]
        pair = np.searchsorted(hist_at, present, side="right") - 1
        n_present = np.bincount(pair, minlength=len(pair_col))
        code = present - hist_at[pair]
        value = self.bins[self.col_bin[pair_col][pair] + code]
        total, pos = total[present], pos[present]
        n_cum, pos_cum = total.cumsum(), pos.cumsum()
        present_at = _starts(n_present)
        n_before = n_cum[present_at] - total[present_at]
        pos_before = pos_cum[present_at] - pos[present_at]

        # thresholds: the midpoints of each pair's adjacent present values,
        # or MAX_THRESHOLDS of them spread evenly
        n_mids = np.maximum(n_present - 1, 0)
        n_cand = np.minimum(n_mids, MAX_THRESHOLDS)
        cand_at = _starts(n_cand)
        cand_pair = np.repeat(np.arange(len(pair_col)), n_cand)
        j = np.arange(len(cand_pair)) - cand_at[cand_pair]
        wide = np.flatnonzero(n_mids > MAX_THRESHOLDS)
        if len(wide):
            j[(cand_at[wide, None] + np.arange(MAX_THRESHOLDS)).ravel()] = \
                np.linspace(0, n_mids[wide] - 1, MAX_THRESHOLDS,
                            axis=1).astype(int).ravel()
        a = present_at[cand_pair] + j
        lo, hi = value[a], value[a + 1]
        mid = (lo + hi) / 2.0
        # the left side is every value <= mid, and a midpoint can round
        # onto the upper value; one that overflows to +-inf leaves a side
        # empty
        at = a + (mid >= hi)
        n_l = n_cum[at] - n_before[cand_pair]
        pos_l = pos_cum[at] - pos_before[cand_pair]
        cand_node = pair_node[cand_pair]
        n = np.array(ns)[cand_node]
        score = _split_score(n, np.array(n_poss)[cand_node], n_l, pos_l)
        score[(n_l == n) | np.isinf(mid)] = np.inf

        # each node's first minimum in subset order, then threshold order,
        # kept if it beats the node's own impurity
        per_node = np.bincount(cand_node, minlength=len(block))
        split = win = np.flatnonzero(per_node)
        if len(split):
            best = np.minimum.reduceat(score, _starts(per_node)[split])
            win = np.flatnonzero(score == np.repeat(best, per_node[split]))
            win = win[np.searchsorted(cand_node[win], split)]
            # in Python floats, whose ** 2 rounds as one node's always did
            gini = [1.0 - ((n_poss[i] / ns[i]) ** 2
                           + ((ns[i] - n_poss[i]) / ns[i]) ** 2)
                    for i in split.tolist()]
            keep = best < np.array(gini) - 1e-12
            split, win = split[keep], win[keep]

        settled = list(settleds)
        for p in np.flatnonzero(n_present < 2).tolist():
            settled[pair_node[p]] |= 1 << pair_feat[p]
        if not len(split):
            return
        is_split = np.zeros(len(block), dtype=bool)
        is_split[split] = True

        # partition each split node's patterns on its winning column's bin
        # codes, in order: left sides in one array, right sides in another
        win_pair, win_size = cand_pair[win], size[split]
        moved = np.compress(np.repeat(is_split, size), held, axis=1)
        right = ((self.slots[np.repeat(self.col_slot[pair_col[win_pair]],
                                       win_size) + moved[0]] >> 1)
                 > np.repeat(code[at[win]], win_size))
        n_right = np.add.reduceat(right, _starts(win_size))
        lefts = np.compress(~right, moved, axis=1)
        rights = np.compress(right, moved, axis=1)
        left_at = [0] + (win_size - n_right).cumsum().tolist()
        right_at = [0] + n_right.cumsum().tolist()
        n_present = n_present.tolist()
        for s, (i, p, threshold, n_left, pos_left) in enumerate(zip(
                split.tolist(), win_pair.tolist(), mid[win].tolist(),
                n_l[win].tolist(), pos_l[win].tolist())):
            t, node, f = trees[i], ids[i], pair_feat[p]
            self.nodes[t][node] = [f, threshold, node + 1, -1, (0, 0), 1]
            # a split of a feature with two values here leaves each child
            # one of them
            mask = settled[i] | (1 << f if n_present[p] == 2 else 0)
            stack, depth = self.stacks[t], depths[i] + 1
            stack.append(self._entry(
                rights[:, right_at[s]:right_at[s + 1]], depth, ns[i] - n_left,
                n_poss[i] - pos_left, mask, node))
            stack.append(self._entry(
                lefts[:, left_at[s]:left_at[s + 1]], depth, n_left, pos_left,
                mask, -1))


def _feature_subsets(rng: np.random.Generator, d: int, k: int):
    """Endless iterator over the lists ``rng.choice(d, size=k,
    replace=False).tolist()`` would return call after call, leaving
    ``rng`` where those calls would have left it at the end of each block.

    ``choice`` draws k of d by Floyd's algorithm unless d > 10,000 and
    k > d // 50, which k = ceil(sqrt(d)) never meets: for j = d-k ... d-1
    it draws v in [0, j] and keeps v, or j when v is already kept; then it
    shuffles the k picks Fisher-Yates, swapping pick i with a draw in
    [0, i] for i = k-1 ... 1. Each draw is numpy's bounded draw, the one
    ``rng.integers`` makes for an array of bounds, so each block of
    SUBSET_BLOCK subsets takes one ``integers`` call."""
    high = [j + 1 for j in range(d - k, d)] + list(range(k, 1, -1))
    rows = np.arange(SUBSET_BLOCK)
    while True:
        draws = iter(rng.integers(0, high, size=(len(rows), len(high))).T)
        picks = np.empty((len(rows), k), dtype=np.int64)
        for t, j in enumerate(range(d - k, d)):
            v = next(draws)
            kept = (picks[:, :t] == v[:, None]).any(axis=1)
            picks[:, t] = np.where(kept, j, v)
        for i in range(k - 1, 0, -1):
            to = next(draws)
            swapped = picks[rows, to]
            picks[rows, to] = picks[:, i]
            picks[:, i] = swapped
        for subset in picks:  # one list at a time: every tree holds a block
            yield subset.tolist()


def _leaf(n: float, n_pos: float) -> list:
    """The node row of a leaf of weight n, n_pos of it positive: its
    bootstrap counts, and its prediction, ties toward the positive class."""
    counts = int(n_pos), int(n - n_pos)
    return [-1, 0.0, -1, -1, counts,
            POSITIVE_CLASS if counts[0] >= counts[1] else 1 - POSITIVE_CLASS]


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
        params = {k: v for k, v in require(d, "params").items()
                  if k in known}
        feature_names = list(require(d, "feature_names"))
        trees = []
        for t, tree in enumerate(require(d, "trees")):
            try:
                trees.append(DecisionTree.from_dict(tree))
            except ValueError as e:
                raise ValueError(f"tree {t}: {e}") from e
        return cls(params=ForestParams(**params), trees=trees,
                   feature_names=feature_names)


def train_forest(data: Dataset, params: ForestParams) -> RandomForest:
    """Train one forest on a dataset's feature columns vs its outcome."""
    return train_ensemble([data], params)[0]


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

    Every tree of every forest grows in lockstep (see _Lockstep), one node
    per tree per step, so that numpy's per-call cost is paid per step and
    not per node. Each tree still pops and writes its nodes depth-first
    from its own stack and draws each node's feature subset from its own
    generator, so it is node for node the tree it would be if grown alone.

    One worker reads the datasets one at a time and keeps only their
    binned distinct rows. More workers split the datasets into contiguous
    chunks and grow each chunk in lockstep in a process pool. The forests
    are the same either way. No datasets raise ValueError, and a dataset of
    one outcome class or no rows raises SingleClassError naming its index."""
    check_integer("workers", workers, least=1)
    if workers > 1 and len(datasets := list(datasets)) > 1:
        # Local: the pool pulls in multiprocessing, which one worker never needs.
        from concurrent.futures import ProcessPoolExecutor
        chunks = min(workers, len(datasets))
        ends = [len(datasets) * c // chunks for c in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = list(pool.map(
                _train_chunk, [datasets[a:b] for a, b in zip(ends, ends[1:])],
                [params] * chunks, ends[:-1]))
        forests = [forest for part in parts for forest in part]
    else:
        forests = _train_chunk(datasets, params, 0)
    _check_ensemble(forests)
    return forests


def _train_chunk(datasets: Iterable[Dataset], params: ForestParams,
                 first: int) -> list[RandomForest]:
    """The forests of datasets first, first + 1, ... of an ensemble."""
    return _Lockstep(datasets, params, first).grow()


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


def evaluate(predicted, truth) -> Metrics:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("predicted and truth must be equal-length, non-empty")
    pp = predicted == POSITIVE_CLASS
    tp_ = truth == POSITIVE_CLASS
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
        fh.write(json.dumps(payload, default=plain_number))
        fh.write("\n")


def load_ensemble(path: str | Path) -> list[RandomForest]:
    """Load a saved ensemble; the "task" key of older files is ignored.

    A file with no models, a model with no trees, a missing key, a node
    field that is not an integer (see DecisionTree.from_dict), or a tree
    prediction could not walk to a 0/1 label (see _walk_problem) raises
    ValueError naming the file, model, tree and node."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "models" not in payload:
        raise ValueError(f"{path}: missing key 'models'")
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
