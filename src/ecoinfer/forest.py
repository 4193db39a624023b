"""From-scratch CART random forest, ensemble aggregation, and evaluation
metrics.

Trees split on Gini impurity over ceil(sqrt(n_features)) random features
per node, each tree trained on a seeded bootstrap resample. The positive
class is the dead outcome (encoded 0) and all prediction ties resolve
toward it: in the trauma setting a false negative is worse than a false
positive.

Every tree of an ensemble grows in lockstep (_Lockstep), a node or a few
per tree per step, a step costing a fixed number of numpy calls. Each tree
draws its feature subsets a block at a time, as per-node
``Generator.choice`` calls would, so it is node for node the tree grown
alone, depth-first. A forest predicts by walking all its trees together
(RandomForest.predict), in blocks of at most _WALK_BLOCK (tree, row)
entries.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from .tabular import (Dataset, SchemaError, check_integer, check_real,
                      distinct_rows, plain_number, read_json, require,
                      write_new)

POSITIVE_CLASS = 0  # dead / abnormal
MAX_THRESHOLDS = 32  # continuous-feature split candidates per node
SUBSET_BLOCK = 128  # feature subsets a tree draws from its generator at once
# (pattern, candidate feature) entries a training step scores at once
_STEP_BLOCK = 1 << 15
_WALK_BLOCK = 1 << 16  # (tree, row) entries a forest's prediction walks at once


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
    """One CART tree: a record array of nodes, the root first. A trained
    tree keeps them as the grower made them: the two children of a split
    node side by side (right = left + 1), after it."""

    def __init__(self, nodes: np.ndarray):
        self.nodes = nodes

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

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        """Nodes in the layout save_ensemble writes. A node that is not an
        object or lacks a key, a feature (None on a leaf) that is not an
        integer >= 0, a child or pred that is not an integer, a threshold
        check_real refuses, or counts that are not two integers >= 0 raise
        ValueError naming the node, not cast or broadcast."""
        rows = []
        for i, nd in enumerate(require(d, "nodes", kind=list)):
            try:
                (feature, threshold, left, right, counts,
                 pred) = _NODE_FIELDS(nd)
            except (KeyError, TypeError):  # a key missing, or not an object
                for key in NODE_DTYPE.names:
                    require(nd, key, f"node {i}")
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
            # a leaf's feature is null; a -1 would load as a leaf and save
            # again as null
            if feature is not None and feature < 0:
                raise ValueError(f"node {i}: feature {feature} is below 0; "
                                 "a leaf's is null")
            if type(threshold) is not float:
                check_real(f"node {i}: threshold", threshold, -np.inf, np.inf)
            if type(counts) is not list or len(counts) != 2 \
                    or type(counts[0]) is not int or type(counts[1]) is not int:
                raise ValueError(
                    f"node {i}: counts {counts!r} is not two integers")
            if counts[0] < 0 or counts[1] < 0:
                raise ValueError(f"node {i}: counts {counts!r} has a count "
                                 "below 0")
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


class FeatureListError(SchemaError):
    """A training set names other features than the ensemble's, which are
    dataset 0's; ``dataset`` is its index in the ensemble."""

    def __init__(self, dataset: int, names: list[str], expected: list[str]):
        super().__init__(f"dataset {dataset}: features {names} are not the "
                         f"ensemble's {expected}")
        self.dataset, self.names, self.expected = dataset, names, expected

    def __reduce__(self):  # raised in a pool worker, pickled back
        return type(self), (self.dataset, self.names, self.expected)


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
    values. Every set names the same d features, so forest f's columns sit
    from f * d on in one slot array and one bin-value array.

    The bookkeeping is arrays. A node is a column of ``rec`` (``thr`` for
    its threshold) made when its parent splits; one that cannot split
    (depth limit or pure) is a leaf at once. ``pool`` holds each tree's
    bootstrap patterns (id and weight packed in an int64), a node a range
    of them, which its split partitions in place. ``stack`` holds each
    tree's pending nodes, ``height`` of them, and ``settled`` their settled
    features; it is as wide as a tree can be deep. ``subsets`` holds each
    tree's block of feature subsets, read through ``cursor``.

    A step pops the top node of every tree with one pending, and again
    where every feature of its subset is settled or the node is on the
    level above the last: neither pushes a child (see _pop). It scores the
    step's (node, feature) pairs with one weighted ``bincount``, in blocks
    of at most _STEP_BLOCK (pattern, feature) entries unless one node has
    more. Counts are integers, exact in float64, and each node scores,
    breaks ties and settles features as grown alone, so every tree is node
    for node the tree grown alone. A split's two children are made side by
    side, so each tree's nodes, in the order made, are its node table.
    """

    def __init__(self, datasets: Iterable[Dataset], params: ForestParams,
                 first: int, names: list[str] | None):
        self.params, self.forests = params, []  # each forest's params
        self.names = names  # every dataset's features; None: the first's
        # an empty first part lets a schema with no features concatenate
        slots, bins = [np.zeros(0, np.int32)], [np.zeros(0)]
        # per tree: its generator, and its root's patterns and weights
        self.rngs, roots, weights = [], [], []
        for k, data in enumerate(datasets, start=first):
            names = data.schema.feature_names
            self.names = names if self.names is None else self.names
            if names != self.names:
                raise FeatureListError(k, names, self.names)
            columns, y = [data.column(name) for name in names], data.outcome
            # one class, or no rows; np.unique(y) would import numpy.ma
            if not (y != y[:1]).any():
                raise SingleClassError(k, empty=not len(y))
            # a bool mask: ~ on the int8 0/1 outcome would give -1/-2
            negative = y != POSITIVE_CLASS
            rep, inverse = distinct_rows([*columns, negative])
            negative = negative[rep]
            for column in columns:
                values, code = np.unique(column[rep], return_inverse=True)
                slots.append((2 * code + negative).astype(np.int32))
                bins.append(values.astype(np.float64))
            member = member_params(params, k)
            self.forests.append(member)
            for s in np.random.SeedSequence(member.seed).spawn(params.n_trees):
                rng = np.random.default_rng(s)
                w = np.bincount(inverse[rng.integers(0, len(y), size=len(y))],
                                minlength=len(rep))
                pats = np.flatnonzero(w > 0)
                self.rngs.append(rng)
                roots.append(np.column_stack([pats, w[pats]]).astype(np.int32))
                weights.append((w.sum(), w[~negative].sum()))
        if not self.forests:
            raise ValueError("an ensemble needs at least one forest")
        self.n_bins = np.array([len(part) for part in bins[1:]], np.intp)
        self.col_slot = _starts(np.array([len(part) for part in slots[1:]]))
        self.col_bin = _starts(self.n_bins)
        self.slots, self.bins = np.concatenate(slots), np.concatenate(bins)
        # a pattern's id and weight, packed into one int64 to move as one
        self.pool = np.concatenate(roots).view(np.int64).ravel()
        trees, self.d = len(roots), len(self.names)
        self.k = math.ceil(math.sqrt(self.d))  # features per subset
        m = np.array([len(root) for root in roots], dtype=np.int64)
        self.rec = np.full((9, trees), -1)  # the roots are nodes 0, 1, ...
        self.rec[:6] = [np.arange(trees), np.zeros(trees),
                        *np.reshape(weights, (trees, 2)).T, _starts(m), m]
        self.thr, self.n_records = np.zeros(trees), trees
        width = min(params.max_depth, m.max()) + 1
        self.stack = np.zeros((trees, width), np.int64)
        self.stack[:, 0], (n, n_pos) = np.arange(trees), self.rec[2:4]
        self.height = ((n_pos > 0) & (n_pos < n)).astype(np.int64)
        self.settled = np.zeros((trees, width, self.d), bool)
        self.subsets = np.zeros((trees, SUBSET_BLOCK, self.k), np.int64)
        self.cursor = np.full(trees, SUBSET_BLOCK)

    def grow(self) -> list[RandomForest]:
        # A threshold above every value leaves no weight right: 0 / 0. The
        # midpoint of two huge finite values overflows to +-inf, which
        # leaves one side empty and so scores inf, like any such threshold.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while (live := np.flatnonzero(self.height)).size:
                _, recs, _, free, _ = step = self._pop(live)
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
        return [RandomForest(member, trees[k * per:(k + 1) * per], self.names)
                for k, member in enumerate(self.forests)]

    def _pop(self, trees: np.ndarray) -> list[np.ndarray]:
        """Pop, and read a subset, in each of these trees; again where all
        of it is settled, or where the node is on the level above the last,
        whose children are leaves: either way the node pushes nothing, so
        the node below it takes the tree's next subset. Subsets are read
        all the same, so each tree draws as if it scored every node. The
        trees, nodes, subsets, free features and settled features of the
        nodes to score, in each tree's pop order."""
        taken, last = [], self.params.max_depth - 1
        while trees.size:
            self.height[trees] -= 1
            height = self.height[trees]
            for t in trees[self.cursor[trees] == SUBSET_BLOCK].tolist():
                self.subsets[t] = _feature_subsets(self.rngs[t], self.d,
                                                   self.k)
                self.cursor[t] = 0
            subsets = self.subsets[trees, self.cursor[trees]]
            self.cursor[trees] += 1
            recs = self.stack[trees, height]
            settled = self.settled[trees, height]
            free = ~np.take_along_axis(settled, subsets, axis=1)
            scored = free.any(axis=1)
            taken.append([a[scored]
                          for a in (trees, recs, subsets, free, settled)])
            trees = trees[(~scored | (self.rec[1, recs] == last))
                          & (height > 0)]
        return [np.concatenate(parts) for parts in zip(*taken)]

    def _split(self, trees, recs, subsets, free, settled) -> None:
        """Score these nodes on their free subset features; split each that
        gains into two new nodes, and push each of them that can split.
        settled holds each node's settled features, and is written."""
        _, depth, n, n_pos, off, size = self.rec[:6, recs]
        n, n_pos = n.astype(float), n_pos.astype(float)
        # one (node, feature) pair per free feature, in subset order; a
        # pair's column is its forest's first column plus its feature
        pair_node, slot = free.nonzero()
        pair_feat = subsets[pair_node, slot]
        pair_col = trees[pair_node] // self.params.n_trees * self.d + pair_feat
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
        present = np.flatnonzero(total != 0)
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
                _linspace_picks(n_mids[wide]).ravel()
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

        # new nodes, each split's left child then its right; a full table
        # doubles
        first, self.n_records = self.n_records, self.n_records + 2 * s
        if self.n_records > self.rec.shape[1]:
            more = max(2 * s, self.rec.shape[1])
            self.rec = np.concatenate([self.rec, np.full((9, more), -1)], 1)
            self.thr = np.concatenate([self.thr, np.zeros(more)])
        depth = depth[split] + 1
        kids = self.rec[:6, first:first + 2 * s]  # a view
        kids[:, 0::2] = t, depth, n_l[win], pos_l[win], kid_off[0], kid_m[0]
        kids[:, 1::2] = (t, depth, n[split] - n_l[win],
                         n_pos[split] - pos_l[win], kid_off[1], kid_m[1])
        parents, lefts = recs[split], first + 2 * np.arange(s)
        self.rec[6:, parents] = lefts, lefts + 1, feature
        self.thr[parents] = mid[win]
        # push the children that can split, the right first to pop last;
        # only a node above the last level pushes, at most one a tree
        kid_n, kid_pos = kids[2:4]
        up = depth < self.params.max_depth
        can = ((kid_pos > 0) & (kid_pos < kid_n)).reshape(s, 2)[up]
        t, lefts, settled = t[up], lefts[up], settled[up]
        h = self.height[t]
        for side in (1, 0):
            push = can[:, side]
            self.stack[t[push], h[push]] = lefts[push] + side
            self.settled[t[push], h[push]] = settled[push]
            h = h + push
        self.height[t] = h

    def _trees(self) -> list[DecisionTree]:
        """Each tree's node table, filled column by column: its records in
        the order they were made, so the root first and a split node's two
        children side by side, after it."""
        count = self.n_records
        tree, _, n, n_pos, _, _, left, right, feature = self.rec[:, :count]
        sizes = np.bincount(tree, minlength=len(self.stack))
        row = np.empty(count, np.int64)  # each node's row in one table
        row[np.argsort(tree, kind="stable")] = np.arange(count)
        at = row - _starts(sizes)[tree]  # and in its tree's
        leaf, negative = left < 0, n - n_pos
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
                for nodes in np.split(table, np.cumsum(sizes)[:-1])]


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


def _linspace_picks(n_mids: np.ndarray) -> np.ndarray:
    """np.linspace(0, n_mids - 1, MAX_THRESHOLDS, axis=1).astype(int) for
    n_mids >= 1, formed as linspace forms it, without its per-call cost:
    0, 1, 2, ... times each row's step, then the last column set to
    n_mids - 1."""
    top = n_mids - 1
    step = top / (MAX_THRESHOLDS - 1)
    picks = np.arange(float(MAX_THRESHOLDS)) * step[:, None]
    picks[:, -1] = top
    return picks.astype(int)


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
        """The trees' majority vote on each row of X, a column per feature
        (read in place if column-major). All trees walk at once, in blocks of
        _WALK_BLOCK (tree, row) entries. An X that is not (rows, features),
        a forest with no trees, or trees it could not walk to 0/1 labels
        (see _walk_problem, whose message names the tree and node) raise
        ValueError."""
        X, d = np.asarray(X), len(self.feature_names)
        if X.ndim != 2 or X.shape[1] != d:
            raise ValueError(f"X has shape {X.shape}; the forest's {d} "
                             f"features need (rows, {d})")
        if not self.trees:
            raise ValueError(f"the forest on features {self.feature_names} "
                             "has no trees")
        nodes, sizes = _node_table(self.trees)
        if problem := _walk_problem(nodes, sizes, d):
            raise ValueError(problem)
        n, roots, leaf = len(X), _starts(sizes), nodes["feature"] < 0
        Xf = X.ravel("F")
        # per node of every tree: its column's first cell in Xf, and its
        # children (right, left); a leaf's are itself, so its -1 is moot
        col = np.where(leaf, -1, nodes["feature"] * n)
        child = np.where(leaf[:, None], np.arange(len(nodes))[:, None],
                         np.column_stack([nodes["right"], nodes["left"]])
                         + np.repeat(roots, sizes)[:, None]).ravel()
        labels, step = np.empty(n, np.int64), max(1, _WALK_BLOCK // len(sizes))
        for a in range(0, n, step):
            rows = np.arange(a, min(a + step, n))
            cur, row = np.repeat(roots, len(rows)), np.tile(rows, len(sizes))
            # every child comes after its parent, so each walk ends
            while (at := col[cur]).max() >= 0:
                cur = child[2 * cur + (Xf[at + row] <= nodes["threshold"][cur])]
            labels[a:a + step] = majority_vote(
                nodes["pred"][cur].reshape(len(sizes), -1))
        return labels

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForest":
        # Older model files also carry four training settings that are now
        # constants; they do not affect prediction.
        known = {f.name for f in fields(ForestParams)}
        params = {k: v for k, v in require(d, "params", kind=dict).items()
                  if k in known}
        feature_names = require(d, "feature_names", kind=list)
        if any(type(name) is not str for name in feature_names):
            raise ValueError(
                f"feature_names {feature_names!r} is not a list of strings")
        trees = []
        for t, tree in enumerate(require(d, "trees", kind=list)):
            try:
                trees.append(DecisionTree.from_dict(tree))
            except ValueError as e:
                raise ValueError(f"tree {t}: {e}") from e
        return cls(params=ForestParams(**params), trees=trees,
                   feature_names=feature_names)


def train_forest(data: Dataset, params: ForestParams) -> RandomForest:
    """Train one forest on a dataset's feature columns vs its outcome."""
    return train_ensemble([data], params)[0]


def majority_vote(labels: np.ndarray) -> np.ndarray:
    """Per-row majority of a (voters, rows) label matrix; ties go to the
    positive (dead) class."""
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
    are the same either way. No datasets raise ValueError. A dataset whose
    feature names are not dataset 0's raises FeatureListError (a
    SchemaError), and one of one outcome class or no rows SingleClassError,
    each naming the first such dataset's index."""
    check_integer("workers", workers, least=1)
    if workers > 1 and len(datasets := list(datasets)) > 1:
        # Local: the pool pulls in multiprocessing, which one worker never needs.
        from concurrent.futures import ProcessPoolExecutor
        chunks = min(workers, len(datasets))
        ends = [len(datasets) * c // chunks for c in range(chunks + 1)]
        names = datasets[0].schema.feature_names  # every chunk's
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = list(pool.map(
                _train_chunk, [datasets[a:b] for a, b in zip(ends, ends[1:])],
                [params] * chunks, ends[:-1], [names] * chunks))
        return [forest for part in parts for forest in part]
    return _train_chunk(datasets, params, 0, None)


def _train_chunk(datasets: Iterable[Dataset], params: ForestParams,
                 first: int, names: list[str] | None
                 ) -> list[RandomForest]:
    """The forests of datasets first, first + 1, ... of an ensemble whose
    datasets name the features names (the first's if None)."""
    return _Lockstep(datasets, params, first, names).grow()


def ensemble_labels(forests: list[RandomForest], data: Dataset) -> np.ndarray:
    """The (forests, rows) label matrix of an ensemble on a dataset. A
    forest labels a row by its values alone, so each distinct row is
    predicted once and its labels are scattered back."""
    if not forests:
        raise ValueError("an ensemble needs at least one forest")
    names = data.schema.feature_names
    for forest in forests:
        if forest.feature_names != names:
            raise SchemaError(f"dataset features {names} do not match the "
                              f"ensemble's {forest.feature_names}")
    columns = [data.column(name) for name in names]
    # with no features every row is the one empty row
    rep, inverse = distinct_rows(columns or [np.zeros(data.n_rows, np.int8)])
    X = np.empty((len(rep), len(columns)), order="F")  # predict's layout
    for j, column in enumerate(columns):
        X[:, j] = column[rep]
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
    """Write the text json.dumps gives {"models": [...]}, and a newline.
    Each model is {"params", "feature_names", "trees"}, each tree
    {"nodes": [...]}, and each node holds NODE_DTYPE's fields, a leaf's
    feature null. The node tables are formatted column by column
    (_forest_text), not built as dicts for json, and written a forest at a
    time; every forest is formatted before the file is opened, so a value
    json refuses leaves the old file."""
    parts = ['{"models": [']
    for k, forest in enumerate(forests):
        parts += [", "] if k else []
        parts.append(_forest_text(forest))
    write_new(path, [*parts, "]}\n"])


# One node as json.dumps writes it: %s prints a float as repr() does, and
# a non-finite threshold comes already spelled as json spells it
_NODE_TEXT = ('{"feature": %s, "threshold": %s, "left": %d, "right": %d, '
              '"counts": [%d, %d], "pred": %d}')


def _forest_text(forest: RandomForest) -> str:
    """json.dumps of one model of a saved ensemble."""
    nodes = np.concatenate([np.zeros(0, NODE_DTYPE),
                            *(t.nodes for t in forest.trees)])
    threshold = nodes["threshold"].tolist()
    # NaN, Infinity or -Infinity, which a loaded leaf may hold
    for i in np.flatnonzero(~np.isfinite(nodes["threshold"])).tolist():
        threshold[i] = json.dumps(threshold[i])
    counts = nodes["counts"]
    text = list(map(_NODE_TEXT.__mod__, zip(
        ["null" if f < 0 else str(f) for f in nodes["feature"].tolist()],
        threshold, nodes["left"].tolist(), nodes["right"].tolist(),
        counts[:, 0].tolist(), counts[:, 1].tolist(),
        nodes["pred"].tolist())))
    ends = np.cumsum([len(t.nodes) for t in forest.trees]).tolist()
    trees = ", ".join('{"nodes": [%s]}' % ", ".join(text[a:b])
                      for a, b in zip([0, *ends], ends))
    return '{"params": %s, "feature_names": %s, "trees": [%s]}' % (
        json.dumps(asdict(forest.params), default=plain_number),
        json.dumps(forest.feature_names, default=plain_number), trees)


def load_ensemble(path: str | Path) -> list[RandomForest]:
    """Load a saved ensemble; the "task" key of older files is ignored.

    A file whose models are not a list or are none, a model with no trees
    or other feature names than model 0's, a missing key, a node field of
    the wrong type (see DecisionTree.from_dict), or a tree prediction could
    not walk to a 0/1 label (see _walk_problem) raises ValueError naming
    the file, model, tree and node."""
    return read_json(path, _ensemble)


def _ensemble(doc: dict) -> list[RandomForest]:
    forests = []
    for k, model in enumerate(require(doc, "models", "the ensemble", list)):
        try:
            forests.append(RandomForest.from_dict(model))
        except ValueError as e:
            raise ValueError(f"model {k}, {e}") from e
    if not forests:
        raise ValueError("an ensemble needs at least one model")
    for k, forest in enumerate(forests):
        if not forest.trees:
            raise ValueError(f"model {k} has no trees")
        if forest.feature_names != forests[0].feature_names:
            raise ValueError(f"model {k}, feature_names "
                             f"{forest.feature_names} are not model 0's "
                             f"{forests[0].feature_names}")
        if problem := _walk_problem(*_node_table(forest.trees),
                                    len(forest.feature_names)):
            raise ValueError(f"model {k}, {problem}")
    return forests


def _node_table(trees: list[DecisionTree]) -> tuple[np.ndarray, np.ndarray]:
    """The trees' nodes in one table, each tree's children still counted
    from its own root, and each tree's node count."""
    return (np.concatenate([t.nodes for t in trees]),
            np.array([len(t.nodes) for t in trees]))


def _walk_problem(nodes: np.ndarray, sizes: np.ndarray,
                  n_features: int) -> str | None:
    """Why prediction could not walk these trees' nodes (see _node_table)
    to labels, or None. Every tree needs a node. Each internal node i
    (feature >= 0) of a tree of n nodes must name a feature, have a
    threshold that is not NaN (every row would go right) and have both
    children in (i, n), so no walk can cycle: the grower's layout and
    depth-first preorder both put them there. Each leaf must predict 0 or
    1."""
    if not sizes.all():
        return f"tree {np.argmin(sizes)}: has no nodes"
    f, left, right = nodes["feature"], nodes["left"], nodes["right"]
    thr, pred = nodes["threshold"], nodes["pred"]
    tree = np.repeat(np.arange(len(sizes)), sizes)
    n, i = sizes[tree], _ranges(np.zeros_like(sizes), sizes)
    bad = np.where(f >= 0, (f >= n_features) | np.isnan(thr)
                   | (np.minimum(left, right) <= i)
                   | (np.maximum(left, right) >= n),
                   (pred != 0) & (pred != 1))
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    at = f"tree {tree[k]}: node {i[k]}"
    if f[k] < 0:
        return f"{at}: leaf predicts {pred[k]}, not 0 or 1"
    if f[k] >= n_features:
        return f"{at}: feature {f[k]} is not one of {n_features} features"
    if np.isnan(thr[k]):
        return f"{at}: threshold is NaN"
    return (f"{at}: children ({left[k]}, {right[k]}) not both in "
            f"({i[k]}, {n[k]})")
