"""From-scratch CART random forest, ensemble aggregation, and evaluation
metrics.

Trees split on Gini impurity over ceil(sqrt(n_features)) random features
per node, each tree trained on a seeded bootstrap resample. The positive
class is the dead outcome (encoded 0) and all prediction ties resolve
toward it: in the trauma setting a false negative is worse than a false
positive.

Every tree of an ensemble grows in lockstep (_Lockstep), one node per tree
per step, a step costing a fixed number of numpy calls. Each tree draws its
feature subsets a block at a time, as per-node ``Generator.choice`` calls
would, so it is node for node the tree grown alone, depth-first.
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


def _ranges(at: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the ranges of these sizes starting at at, in order."""
    return np.repeat(at - _starts(sizes), sizes) + np.arange(sizes.sum())


class _Lockstep:
    """Every tree of some forests, grown together one node per tree per step.

    Each forest's training set is reduced to its distinct (features,
    outcome) rows, its patterns, and each feature column to per-pattern
    slots ``2 * bin + (1 if negative)`` over that column's sorted distinct
    values. The columns of every forest sit end to end in one slot array and
    one bin-value array.

    The bookkeeping is arrays. A node is a column of ``rec`` (``thr`` for
    its threshold) made when its parent splits; one that cannot split
    (depth limit or pure) is a leaf at once. ``pool`` holds each tree's
    bootstrap patterns (id and weight packed in an int64), a node a range
    of them, which its split partitions in place. ``stack`` holds each
    tree's pending nodes, ``height`` of them, and ``settled`` their settled
    features; it is as wide as a tree can be deep. ``subsets`` holds each
    tree's block of feature subsets, read through ``cursor``.

    A step pops the top node of every tree with one pending, and again
    where every feature of its subset is settled. It scores the step's
    (node, feature) pairs with one weighted ``bincount``, in blocks of at
    most _STEP_BLOCK (pattern, feature) entries unless one node has more.
    Counts are integers, exact in float64, and each node scores, breaks ties
    and settles features as grown alone, so every tree is node for node the
    tree grown alone. At the end the nodes are renumbered into preorder.
    """

    def __init__(self, datasets: Iterable[Dataset], params: ForestParams,
                 first: int):
        self.params, self.forests = params, []  # (params, feature names)
        # an empty first part lets an ensemble of no datasets concatenate
        slots, bins = [np.zeros(0, np.int32)], [np.zeros(0)]
        # per tree: its forest's first column, its generator with its
        # feature and subset counts, and its root's patterns and weights
        tree_col, self.draws, roots, weights = [], [], [], []
        for k, data in enumerate(datasets, start=first):
            names = data.schema.feature_names
            X, y = data.to_matrix(names), data.outcome
            # one class, or no rows; np.unique(y) would import numpy.ma
            if not (y != y[:1]).any():
                raise SingleClassError(k, empty=not len(y))
            negative = y != POSITIVE_CLASS
            rep, inverse = distinct_rows(np.column_stack([X, negative]))
            negative = negative[rep]
            d, first_col = X.shape[1], len(bins) - 1
            for column in X[rep].T:
                values, code = np.unique(column, return_inverse=True)
                slots.append((2 * code + negative).astype(np.int32))
                bins.append(values)
            del X
            member = member_params(params, k)
            self.forests.append((member, names))
            for s in np.random.SeedSequence(member.seed).spawn(params.n_trees):
                rng = np.random.default_rng(s)
                w = np.bincount(inverse[rng.integers(0, len(y), size=len(y))],
                                minlength=len(rep))
                pats = np.flatnonzero(w)
                tree_col.append(first_col)
                self.draws.append((rng, d, math.ceil(math.sqrt(d))))
                roots.append(np.column_stack([pats, w[pats]]).astype(np.int32))
                weights.append((w.sum(), w[~negative].sum()))
        self.n_bins = np.array([len(part) for part in bins[1:]], np.intp)
        self.col_slot = _starts(np.array([len(part) for part in slots[1:]]))
        self.col_bin, self.tree_col = _starts(self.n_bins), np.array(tree_col)
        self.slots, self.bins = np.concatenate(slots), np.concatenate(bins)
        # a pattern's id and weight, packed into one int64 to move as one
        self.pool = np.concatenate([np.zeros((0, 2), np.int32), *roots]).view(
            np.int64).ravel()
        trees, d = len(roots), max((d for _, d, _ in self.draws), default=0)
        m = np.array([len(root) for root in roots], dtype=np.int64)
        self.rec = np.full((9, trees), -1)  # the roots are nodes 0, 1, ...
        self.rec[:6] = [np.arange(trees), np.zeros(trees),
                        *np.reshape(weights, (trees, 2)).T, _starts(m), m]
        self.thr, self.n_records = np.zeros(trees), trees
        width = min(params.max_depth, m.max(initial=0)) + 1
        self.stack = np.zeros((trees, width), np.int64)
        self.stack[:, 0], (n, n_pos) = np.arange(trees), self.rec[2:4]
        self.height = ((n_pos > 0) & (n_pos < n)).astype(np.int64)
        self.settled = np.zeros((trees, width, d), bool)
        self.subsets = np.full(
            (trees, SUBSET_BLOCK, math.ceil(math.sqrt(d))), -1)
        self.cursor = np.full(trees, SUBSET_BLOCK)

    def grow(self) -> list[RandomForest]:
        # A threshold above every value leaves no weight right: 0 / 0. The
        # midpoint of two huge finite values overflows to +-inf, which
        # leaves one side empty and so scores inf, like any such threshold.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while (live := np.flatnonzero(self.height)).size:
                _, recs, _, free = step = self._pop(live)
                entries = (self.rec[5, recs] * free.sum(axis=1)).cumsum()
                start = 0
                while start < len(entries):
                    # as many nodes as _STEP_BLOCK entries hold, at least one
                    end = max(start + 1, int(np.searchsorted(
                        entries, (entries[start - 1] if start else 0)
                        + _STEP_BLOCK, side="right")))
                    self._split(*(a[start:end] for a in step))
                    start = end
        trees, per = self._trees(), self.params.n_trees
        return [RandomForest(member, trees[k * per:(k + 1) * per], names)
                for k, (member, names) in enumerate(self.forests)]

    def _pop(self, trees: np.ndarray) -> list[np.ndarray]:
        """Pop, and read a subset, in each of these trees, again where all of
        it is settled (read all the same, so each tree draws as if it scored
        every node): the trees, nodes, subsets and free features to score."""
        taken = []
        while trees.size:
            self.height[trees] -= 1
            height = self.height[trees]
            for t in trees[self.cursor[trees] == SUBSET_BLOCK].tolist():
                rng, d, k = self.draws[t]
                self.subsets[t, :, :k] = _feature_subsets(rng, d, k)
                self.cursor[t] = 0
            subsets = self.subsets[trees, self.cursor[trees]]
            self.cursor[trees] += 1
            free = (subsets >= 0) & ~self.settled[
                trees[:, None], height[:, None], subsets]
            scored = free.any(axis=1)
            taken.append([a[scored] for a in (
                trees, self.stack[trees, height], subsets, free)])
            trees = trees[~scored & (height > 0)]
        return [np.concatenate(parts) for parts in zip(*taken)]

    def _split(self, trees, recs, subsets, free) -> None:
        """Score these nodes on their free subset features; split each that
        gains into two new nodes, and push each of them that can split."""
        _, depth, n, n_pos, off, size = self.rec[:6, recs]
        n, n_pos = n.astype(float), n_pos.astype(float)
        # one (node, feature) pair per free feature, in subset order; a
        # pair's column is its forest's first column plus its feature
        pair_node, slot = free.nonzero()
        pair_feat = subsets[pair_node, slot]
        pair_col = self.tree_col[trees][pair_node] + pair_feat
        pair_size = size[pair_node]
        # pair p counts its column's bins from hist_at[p] on; its entries
        # are its node's patterns, each an id and a weight
        n_bins = self.n_bins[pair_col]
        hist_at = _starts(n_bins)
        pats, weights = self.pool[_ranges(off[pair_node], pair_size)].view(
            np.int32).reshape(-1, 2).T
        key = np.repeat(self.col_slot[pair_col], pair_size)
        key += pats
        key = self.slots[key]
        key += np.repeat(2 * hist_at, pair_size)
        hist = np.bincount(key, weights=weights, minlength=2 * n_bins.sum())
        del key, pats, weights
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
        score = _split_score(n[cand_node], n_pos[cand_node], n_l, pos_l)
        score[(n_l == n[cand_node]) | np.isinf(mid)] = np.inf

        # each node's first minimum in subset order, then threshold order,
        # kept if it beats the node's own impurity
        per_node = np.bincount(cand_node, minlength=len(recs))
        split = np.flatnonzero(per_node)
        if not len(split):
            return
        best = np.minimum.reduceat(score, _starts(per_node)[split])
        win = np.flatnonzero(score == np.repeat(best, per_node[split]))
        win = win[np.searchsorted(cand_node[win], split)]
        # squared as Python floats, whose ** 2 rounds as one node's always
        # did; numpy's array ** 2 is x * x, which can differ in the last bit
        share = (np.concatenate([n_pos[split], n[split] - n_pos[split]])
                 / np.concatenate([n[split], n[split]])).astype(object) ** 2
        gini = 1.0 - (share[:len(split)] + share[len(split):]).astype(float)
        keep = best < gini - 1e-12
        split, win = split[keep], win[keep]
        if not len(split):
            return

        # children settle their parent's settled features, those with one
        # value here, and a split feature with two (each child keeps one)
        s, t, m = len(split), trees[split], size[split]
        win_pair = cand_pair[win]
        feature = pair_feat[win_pair]
        settled = self.settled[trees, self.height[trees]]
        settled[pair_node, pair_feat] |= n_present < 2
        settled = settled[split]
        settled[np.arange(s), feature] |= n_present[win_pair] == 2
        # partition each split node's patterns on its winning column's bin
        # codes, in place and in order: its left child's, then its right's
        moved = self.pool[_ranges(off[split], m)]
        right = (self.slots[np.repeat(self.col_slot[pair_col[win_pair]], m)
                            + moved.view(np.int32)[0::2]]
                 > np.repeat(2 * code[at[win]] + 1, m))
        n_left = m - np.add.reduceat(right, _starts(m))
        kid_off, kid_m = (off[split], off[split] + n_left), (n_left, m - n_left)
        for start, count, side in zip(kid_off, kid_m, (~right, right)):
            self.pool[_ranges(start, count)] = moved[side]

        # new nodes, the left children then the right; a full table doubles
        first, self.n_records = self.n_records, self.n_records + 2 * s
        if self.n_records > self.rec.shape[1]:
            more = max(2 * s, self.rec.shape[1])
            self.rec = np.concatenate([self.rec, np.full((9, more), -1)], 1)
            self.thr = np.concatenate([self.thr, np.zeros(more)])
        depth = depth[split] + 1
        kids = self.rec[:6, first:first + 2 * s]  # a view
        kids[:, :s] = t, depth, n_l[win], pos_l[win], kid_off[0], kid_m[0]
        kids[:, s:] = (t, depth, n[split] - n_l[win], n_pos[split] - pos_l[win],
                       kid_off[1], kid_m[1])
        parents, lefts = recs[split], first + np.arange(s)
        self.rec[6:, parents] = lefts, lefts + s, feature
        self.thr[parents] = mid[win]
        # push the children that can split, the right first to pop last
        kid_n, kid_pos = self.rec[2:4, first:first + 2 * s]
        deep = depth < self.params.max_depth
        can = np.concatenate([deep, deep]) & (kid_pos > 0) & (kid_pos < kid_n)
        h = self.height[t]
        for side in (s, 0):
            push = can[side:side + s]
            self.stack[t[push], h[push]] = lefts[push] + side
            self.settled[t[push], h[push]] = settled[push]
            h = h + push
        self.height[t] = h

    def _trees(self) -> list[DecisionTree]:
        """Each tree's node table, filled column by column, its nodes
        renumbered into depth-first preorder from their subtree sizes."""
        count = self.n_records
        tree, depth, n, n_pos, _, _, left, right, feature = self.rec[:, :count]
        inner = np.flatnonzero(left >= 0)
        inner = inner[np.argsort(depth[inner], kind="stable")]
        levels = np.split(inner, np.flatnonzero(np.diff(depth[inner])) + 1)
        size = np.ones(count, np.int64)
        for ids in reversed(levels):  # subtree sizes, the deepest first
            size[ids] += size[left[ids]] + size[right[ids]]
        at = np.zeros(count, np.int64)  # each node's row in its tree
        for ids in levels:
            at[left[ids]] = at[ids] + 1
            at[right[ids]] = at[ids] + 1 + size[left[ids]]
        leaf, negative = left < 0, n - n_pos
        roots = size[:len(self.stack)]
        row = at + _starts(roots)[tree]  # and in one table of every tree
        table = np.empty(count, dtype=NODE_DTYPE)
        # a leaf keeps its bootstrap counts and predicts, ties toward the
        # positive class; an internal node keeps (0, 0) and 1
        for name, column in zip(NODE_DTYPE.names, (
                feature, self.thr[:count], np.where(leaf, -1, at[left]),
                np.where(leaf, -1, at[right]),
                np.where(leaf[:, None], np.column_stack([n_pos, negative]), 0),
                np.where(leaf, np.where(n_pos >= negative, POSITIVE_CLASS,
                                        1 - POSITIVE_CLASS), 1))):
            table[name][row] = column
        return [DecisionTree(nodes)
                for nodes in np.split(table, np.cumsum(roots)[:-1])]


def _feature_subsets(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """The next SUBSET_BLOCK subsets, one per row: the lists
    ``rng.choice(d, size=k, replace=False).tolist()`` would return call
    after call, leaving ``rng`` where those calls would have left it.

    ``choice`` draws k of d by Floyd's algorithm unless d > 10,000 and
    k > d // 50, which k = ceil(sqrt(d)) never meets: for j = d-k ... d-1
    it draws v in [0, j] and keeps v, or j when v is already kept; then it
    shuffles the k picks Fisher-Yates, swapping pick i with a draw in
    [0, i] for i = k-1 ... 1. Each draw is numpy's bounded draw, the one
    ``rng.integers`` makes for an array of bounds: one call a block."""
    high = [j + 1 for j in range(d - k, d)] + list(range(k, 1, -1))
    rows = np.arange(SUBSET_BLOCK)
    draws = iter(rng.integers(0, high, size=(len(rows), len(high))).T)
    picks = np.empty((len(rows), k), dtype=np.int64)
    for t, (j, v) in enumerate(zip(range(d - k, d), draws)):
        picks[:, t] = np.where((picks[:, :t] == v[:, None]).any(axis=1), j, v)
    for i, to in zip(range(k - 1, 0, -1), draws):
        picks[rows, to], picks[:, i] = picks[:, i].copy(), picks[rows, to]
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
    Every tree grows in lockstep (see _Lockstep), as it would grown alone.

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
