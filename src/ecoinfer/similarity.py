"""Dataset similarity via normalized Manhattan distance under a row matching.

Both datasets are min-max normalized jointly (per-attribute min/max over
their concatenation) so the distances are comparable. Row pairing is either
the cheap greedy rank-sum heuristic (sort rows by the sum of normalized
attribute values and pair by rank), the exact minimum-cost bipartite
assignment, or the identity pairing. A subset of 0/1 columns is matched on
the int8 cells the datasets hold, without normalising: a 0/1 column
normalises to itself, so the numbers are the same. The exact assignment
keys the rows of both datasets in one distinct_rows pass, counts each
side's keys (its pattern counts), pairs identical rows in place and solves
the rows left over: as a small transportation problem in numpy between
the excess counts when they are 0/1 rows with few distinct values, else
with scipy's linear_sum_assignment, the only use of scipy in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tabular import BINARY, Dataset, SchemaError, distinct_rows

GREEDY_RANK = "greedy_rank"
EXACT_ASSIGNMENT = "exact_assignment"
IDENTITY = "identity"
METHODS = (GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY)

_ZERO_TOL = 1e-12

# Elements of one block of the distinct-row cost tensor (8 MB of float64).
_COST_BLOCK = 1 << 20

# Most distinct rows per side of the 0/1 rows left over that exact matching
# solves as a transportation problem. Its worst case is every leftover row
# distinct. On random 0/1 rows (2 vCPU, numpy 2.4, scipy 1.17) that took
# 1-8 ms up to 128 distinct rows per side, against 0.4-3 ms for a warm
# linear_sum_assignment, whose import costs 0.22-0.27 s and +49 MB RSS; at
# 400-600 it took 18-52 ms, against 13-31 ms, and its P x Q tables grow as
# the square. Repeated rows favour it: config 1's binary columns at
# N=10**6 leave 1,359 rows of 15 and 17 distinct ones, solved in 0.6-0.9 ms
# instead of 16-18 ms.
_TRANSPORT_ROWS = 128

# Most rows left over that exact matching hands to linear_sum_assignment:
# their r x r float64 cost table is then at most 2 GiB. Config 1 at N=10**6
# on all columns would leave 21,029 (a 3.5 GB table, before an O(r^3)
# solve); at N=10,000 it leaves 1,886, and all-distinct rows leave n.
_ASSIGNMENT_ROWS = 16_384


@dataclass(frozen=True)
class RowMatching:
    """A bijection row-index-of-A -> row-index-of-B and its cost."""

    permutation: np.ndarray  # permutation[i] = matched row of B for row i of A
    total_distance: float
    average_distance: float
    # share of matched pairs at distance zero; under exact_assignment it is
    # sum_v min(count_a(v), count_b(v)) / n, the most any matching reaches
    exact_match: float


def joint_normalize(a: Dataset, b: Dataset,
                    feature_subset: list[str] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalize both datasets with shared per-attribute min/max.

    Constant attributes (over the concatenation) map to 0. Each column is
    read whole from the dataset and written into a column-major (Fortran
    order) matrix, so every column of the result is contiguous, and its
    values and tobytes() are those of the matrix form
    ``(to_matrix(names) - lo) / span``. A feature_subset must be a list
    that names at least one column, and none twice.
    """
    names = _subset_names(a, b, feature_subset)
    ca = [a.column(n) for n in names]
    cb = [b.column(n) for n in names]
    lo_a, hi_a = _extremes(ca)
    lo_b, hi_b = _extremes(cb)
    lo = np.minimum(lo_a, lo_b)
    span = np.maximum(hi_a, hi_b) - lo
    span[span == 0] = 1.0  # constant columns -> all zeros either way
    return _scaled(ca, lo, span, a.n_rows), _scaled(cb, lo, span, b.n_rows)


def _extremes(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-column min and max as float64, with the bits a C-order matrix's
    ``min(axis=0)`` and ``max(axis=0)`` give: those fold the rows through
    np.minimum and np.maximum, which return the second operand on a tie,
    so a zero extreme of a float column takes the sign of its last zero."""
    lo, hi = np.empty(len(columns)), np.empty(len(columns))
    for j, c in enumerate(columns):
        lo[j], hi[j] = c.min(), c.max()
        if c.dtype.kind == "f" and (lo[j] == 0 or hi[j] == 0):
            zero = c[np.flatnonzero(c == 0)[-1]]
            lo[j] = zero if lo[j] == 0 else lo[j]
            hi[j] = zero if hi[j] == 0 else hi[j]
    return lo, hi


def _scaled(columns: list[np.ndarray], lo: np.ndarray, span: np.ndarray,
            n: int) -> np.ndarray:
    """The n x m column-major matrix of (column - lo) / span."""
    out = np.empty((n, len(columns)), order="F")
    for j, c in enumerate(columns):
        np.subtract(c, lo[j], out=out[:, j])
        np.divide(out[:, j], span[j], out=out[:, j])
    return out


def _row_sums(columns: list[np.ndarray]) -> np.ndarray:
    """np.column_stack(columns).sum(axis=1) of float64 columns, bit for
    bit, taken column by column. numpy sums each row of a C-order matrix
    pairwise: fewer than 8 values left to right; up to 128 in eight
    accumulators, value 8i + k into accumulator k, joined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the values
    past the last multiple of 8 in order; more than 128 split at half,
    rounded down to a multiple of 8, each half summed so. It adds that sum
    to the identity 0.0, which turns a -0.0 sum into 0.0: starting each
    accumulator at its column + 0.0 gives the same bits, since it changes
    only the sign of zeros and leaves no partial sum at -0.0."""
    m = len(columns)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _row_sums(columns[:half]) + _row_sums(columns[half:])
    if m < 8:
        sums = columns[0] + 0.0
        for column in columns[1:]:
            sums += column
        return sums
    acc = [column + 0.0 for column in columns[:8]]
    whole = m - m % 8
    for i in range(8, whole):
        acc[i % 8] += columns[i]
    sums = (acc[0] + acc[1]) + (acc[2] + acc[3])
    sums += (acc[4] + acc[5]) + (acc[6] + acc[7])
    for column in columns[whole:]:
        sums += column
    return sums


def _subset_names(a: Dataset, b: Dataset,
                  feature_subset: list[str] | None) -> list[str]:
    """The column names to match, after checking the datasets fit and the
    subset is a list naming at least one column, and none twice."""
    _check_compatible(a, b)
    if isinstance(feature_subset, str):
        raise SchemaError("feature_subset must be a list of column names, "
                          f"not the string {feature_subset!r}")
    names = list(feature_subset) if feature_subset is not None \
        else a.schema.column_names
    if not names or len(set(names)) < len(names):
        raise SchemaError(f"feature_subset must name at least one column "
                          f"and none twice, got {names}")
    return names


def _check_compatible(a: Dataset, b: Dataset) -> None:
    if a.schema != b.schema:
        raise SchemaError("datasets have different schemas")
    if a.n_rows != b.n_rows:
        raise SchemaError(f"datasets differ in size: {a.n_rows} vs {b.n_rows}")
    if a.n_rows < 1:
        raise SchemaError("cannot match empty datasets")


def match_rows(a: Dataset, b: Dataset, method: str = GREEDY_RANK,
               feature_subset: list[str] | None = None) -> RowMatching:
    """Pair every row of a with a distinct row of b.

    greedy_rank sorts both datasets by per-row attribute sums (ties broken
    by original row index) and pairs by rank. exact_assignment pairs rows
    that have an identical partner in place and solves the minimum-total-
    distance assignment of the r rows left over. When every leftover cell
    is 0 or 1 and each side holds at most _TRANSPORT_ROWS distinct leftover
    rows, that is a transportation problem between the distinct rows, solved
    in numpy (config 1 at N=10,000 leaves r = 167 rows of 16 and 15 distinct
    ones on its binary columns); otherwise linear_sum_assignment solves it
    (O(r^3) time, r x r floats; r = 1,886 on all of config 1's columns),
    and more than _ASSIGNMENT_ROWS rows left over raise ValueError.
    On 0/1 rows every optimum has the same total and zero count, bit for
    bit, so either solver reports the same. identity pairs row i with row i.
    A subset whose every column is binary by the schema is matched on the
    int8 cells (_match_binary), without joint_normalize; any other is
    normalised first. The float path reads the normalised matrices column
    by column and takes each row sum (greedy_rank's, and exact_match's over
    the absolute differences) in _row_sums, bit for bit numpy's sum of the
    C-order rows. The absolute differences are one C-order n x m matrix,
    filled column by column, whose flattened sum over m is the total.
    """
    if method not in METHODS:
        raise ValueError(f"unknown matching method {method!r}")
    names = _subset_names(a, b, feature_subset)
    if all(a.schema.spec_for(name).kind == BINARY for name in names):
        return _match_binary([a.column(name) for name in names],
                             [b.column(name) for name in names], method)
    na, nb = joint_normalize(a, b, names)
    n, m = na.shape
    if method == IDENTITY:
        perm = np.arange(n)
    elif method == GREEDY_RANK:
        perm = np.empty(n, dtype=np.int64)
        perm[_sum_order(_row_sums(list(na.T)))] = \
            _sum_order(_row_sums(list(nb.T)))
    else:
        perm = _exact_permutation(list(na.T), list(nb.T))
    # C order: the flattened sum is the reported total, bit for bit
    diff = np.empty((n, m))
    for j in range(m):
        np.subtract(na[:, j], nb[:, j][perm], out=diff[:, j])
    np.abs(diff, out=diff)
    total = float(diff.sum() / m)
    return RowMatching(permutation=perm, total_distance=total,
                       average_distance=total / n,
                       exact_match=_zero_share(list(diff.T)))


def _match_binary(ca: list[np.ndarray], cb: list[np.ndarray],
                  method: str) -> RowMatching:
    """match_rows on equal-length int8 0/1 columns, bit for bit. A 0/1
    column normalizes to itself, and one constant over both datasets to
    zeros, which shifts every row sum of a side alike and never mismatches.
    So the greedy order is _binary_order's, the exact permutation is
    _exact_permutation's on these int8 columns as they are, and each float
    distance is a whole mismatch count: total count / m, average total / n,
    and exact_match the share of rows with no mismatch."""
    n, m = len(ca[0]), len(ca)
    if method == IDENTITY:
        perm = np.arange(n)
    elif method == GREEDY_RANK:
        perm = np.empty(n, dtype=np.int64)
        perm[_binary_order(ca)] = _binary_order(cb)
    else:
        perm = _exact_permutation(ca, cb)
    mismatches, unequal = 0, np.zeros(n, dtype=bool)
    for x, y in zip(ca, cb):
        differs = x != y[perm]
        mismatches += np.count_nonzero(differs)
        unequal |= differs
    total = float(mismatches / m)
    return RowMatching(permutation=perm, total_distance=total,
                       average_distance=total / n,
                       exact_match=float(n - np.count_nonzero(unequal)) / n)


def _sum_order(sums: np.ndarray) -> np.ndarray:
    """np.argsort(sums, kind="stable"), bit for bit: row indices stably
    sorted by each row's rank among the distinct sums, held in the
    narrowest unsigned type that fits their count, where numpy's stable
    argsort is a radix sort (up to 65,535 distinct sums)."""
    distinct, rank = np.unique(sums, return_inverse=True)
    return np.argsort(rank.astype(np.min_scalar_type(len(distinct))),
                      kind="stable")


def _binary_order(columns: list[np.ndarray]) -> np.ndarray:
    """The greedy rank order of equal-length int8 0/1 columns: row indices
    stably sorted by row sum, the order match_rows's greedy_rank takes. The
    sums are held in the narrowest unsigned type that fits the column
    count, where numpy's stable argsort is a radix sort."""
    sums = np.zeros(len(columns[0]), dtype=np.min_scalar_type(len(columns)))
    for column in columns:
        # int8 into unsigned is not a same_kind cast; 0/1 values fit either
        np.add(sums, column, out=sums, casting="unsafe")
    return np.argsort(sums, kind="stable")


def _rank_binary(columns: list[np.ndarray]) -> np.ndarray:
    """Equal-length 0/1 columns (schema.binary_columns() order) as int8 rows
    in _binary_order, for _ranked_distance: row i of two ranked datasets is
    the pair match_rows's greedy_rank forms."""
    order = _binary_order(columns)
    ranked = np.empty((len(order), len(columns)), dtype=np.int8)
    for j, column in enumerate(columns):
        ranked[:, j] = column[order]
    return ranked


def _ranked_distance(r: np.ndarray, o: np.ndarray) -> float:
    """Greedy average distance of two _rank_binary matrices: the mismatch
    count over m columns, then n rows, as match_rows divides, bit for bit."""
    return np.count_nonzero(r != o) / r.shape[1] / len(r)


def _exact_permutation(ca: list[np.ndarray],
                       cb: list[np.ndarray]) -> np.ndarray:
    """A minimum-total-distance permutation between the rows of two lists
    of equal-length columns, normalized or int8 0/1, which give the same
    one. The row distance is an L1 metric, so some optimum pairs
    min(count_a(v), count_b(v)) rows in place at every distinct row v: the
    k-th row of ca holding v (in row order) gets the k-th row of cb holding
    v. One distinct_rows pass over each column pair concatenated keys both
    sides; each side counts its keys and groups its rows by key in row
    order. Only the rows left over are solved. When their distinct rows are
    0/1 and at most _TRANSPORT_ROWS a side, the cost of a pairing depends
    only on how many rows of each distinct row of ca go to each of cb, so a
    minimum-cost transportation plan between them, with the excess counts
    as supply and demand and the mismatch count as cost, gives one: the
    rows of ca's p-th leftover distinct row pair, in row order, with the
    next unused rows of cb's distinct rows p is sent to. Every cost is a
    whole mismatch count over m, so every optimum has the same total and
    zero count, bit for bit, as linear_sum_assignment's, which solves any
    other leftover rows on the cost table of their stacked distinct rows.
    """
    n = len(ca[0])
    columns = [np.concatenate([x, y]) for x, y in zip(ca, cb)]
    rep, key = distinct_rows(columns)
    # the narrowest unsigned type, where numpy's stable argsort is a radix sort
    key = key.astype(np.min_scalar_type(len(rep)))
    count = [np.bincount(k, minlength=len(rep)) for k in (key[:n], key[n:])]
    same = np.minimum(*count)
    grouped = []  # per side: rows grouped by key, then whether each pairs
    for k, c in zip((key[:n], key[n:]), count):
        order = np.argsort(k, kind="stable")
        rank = np.arange(n) - (np.cumsum(c) - c)[k[order]]
        grouped.append((order, rank < same[k[order]]))
    (oa, pair_a), (ob, pair_b) = grouped
    perm = np.empty(n, dtype=np.int64)
    perm[oa[pair_a]] = ob[pair_b]
    ra, rb = oa[~pair_a], ob[~pair_b]
    if not len(ra):
        return perm
    fa, fb = (np.flatnonzero(c > same) for c in count)
    ua, ub = ([column[rep[f]] for column in columns] for f in (fa, fb))
    if max(len(fa), len(fb)) <= _TRANSPORT_ROWS \
            and all(((u == 0) | (u == 1)).all() for u in ua + ub):
        # summed from the int 0, so in int64: numpy adds bool arrays as "or"
        cost = sum(np.not_equal.outer(x, y) for x, y in zip(ua, ub))
        flow = _transport(count[0][fa] - same[fa], count[1][fb] - same[fb],
                          cost)
        target = np.repeat(np.tile(np.arange(len(fb)), len(fa)), flow.ravel())
        perm[ra[np.argsort(target, kind="stable")]] = rb
        return perm
    if len(ra) > _ASSIGNMENT_ROWS:
        raise ValueError(
            f"exact matching leaves {len(ra):,} rows to assign, more than "
            f"{_ASSIGNMENT_ROWS:,}: their cost table would take "
            f"{len(ra) ** 2 * 8 / 2 ** 30:.1f} GiB; match on the 0/1 "
            "columns (similarity --features) to solve without one")
    # Local: importing scipy.optimize costs 0.22-0.27 s, +49 MB RSS.
    from scipy.optimize import linear_sum_assignment
    ra, rb = np.sort(ra), np.sort(rb)
    cost = _exact_cost(np.column_stack(ua), np.column_stack(ub))[np.ix_(
        np.searchsorted(fa, key[ra]), np.searchsorted(fb, key[n + rb]))]
    i, j = linear_sum_assignment(cost)
    perm[ra[i]] = rb[j]
    return perm


def _transport(supply: np.ndarray, demand: np.ndarray,
               cost: np.ndarray) -> np.ndarray:
    """A minimum-cost P x Q integer flow plan that ships supply[p] units out
    of every p and demand[q] into every q (equal totals) under a whole-number
    cost table, by successive shortest paths (Ahuja, Magnanti and Orlin,
    Network Flows, 1993, section 9.7). Each round finds a tree of cheapest
    paths from the p with supply left, through forward arcs p -> q at
    cost[p, q] and backward arcs q -> p at -cost[p, q] where flow[p, q] > 0,
    by Bellman-Ford over the dense tables. Then it sends as much as it can
    along the tree's path to each q with demand left, in turn. Under the
    tree's distances every residual arc has a reduced cost >= 0 and every
    tree arc 0, and sending along a path keeps both, so each path is still
    a cheapest one when its turn comes, or carries nothing. So the plan
    stays optimal for what it ships, and no cycle is ever negative.
    """
    n_p, n_q = cost.shape
    supply, demand = supply.copy(), demand.copy()
    flow = np.zeros((n_p, n_q), dtype=np.int64)
    ps, qs = np.arange(n_p), np.arange(n_q)
    while supply.any():
        back = np.where(flow > 0, -cost, np.inf)
        dp = np.where(supply > 0, 0.0, np.inf)
        dq = np.full(n_q, np.inf)
        via_q = np.full(n_p, -1)  # -1: the path starts at p
        via_p = np.empty(n_q, dtype=np.int64)
        # only arcs out of a node whose distance fell need relaxing again
        fell = np.flatnonzero(supply)
        while len(fell):
            reach = dp[fell, None] + cost[fell]
            at = reach.argmin(axis=0)
            d = reach[at, qs]
            fell_q = np.flatnonzero(d < dq)
            if not len(fell_q):
                break
            dq[fell_q], via_p[fell_q] = d[fell_q], fell[at[fell_q]]
            reach = dq[fell_q] + back[:, fell_q]
            at = reach.argmin(axis=1)
            d = reach[ps, at]
            fell = np.flatnonzero(d < dp)
            dp[fell], via_q[fell] = d[fell], fell_q[at[fell]]
        for end in np.flatnonzero(demand):
            # p_path[i] -> q_path[i] forward, q_path[i + 1] -> p_path[i] back
            p_path, q_path = [via_p[end]], [end]
            while via_q[p_path[-1]] >= 0:
                q_path.append(via_q[p_path[-1]])
                p_path.append(via_p[q_path[-1]])
            amount = min(demand[end], supply[p_path[-1]],
                         *flow[p_path[:-1], q_path[1:]])
            supply[p_path[-1]] -= amount
            demand[end] -= amount
            flow[p_path, q_path] += amount
            flow[p_path[:-1], q_path[1:]] -= amount
    return flow


def _exact_cost(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """The matrix of average row distances, ua row i to ub row j.

    It is formed in blocks of rows of ua so the temporary stays bounded.
    Every entry is the same expression over the same m values as the
    dense len(ua) x len(ub) x m form, so it is bitwise equal to it; adding
    the columns left to right would round differently once m >= 8 (numpy
    sums pairwise, see _row_sums). On int8 0/1 rows each sum is a whole
    count, so the entries are those of the normalized rows.
    """
    m = ua.shape[1]
    cost = np.empty((len(ua), len(ub)))
    step = max(1, _COST_BLOCK // max(1, len(ub) * m))
    for s in range(0, len(ua), step):
        cost[s:s + step] = np.abs(ua[s:s + step, None, :]
                                  - ub[None, :, :]).sum(axis=2) / m
    return cost


def similarity(a: Dataset, b: Dataset, method: str = GREEDY_RANK,
               feature_subset: list[str] | None = None) -> float:
    """One minus the average matched-row distance; 1 means identical."""
    return 1.0 - match_rows(a, b, method, feature_subset).average_distance


def exact_match_fraction(a: Dataset, b: Dataset, matching: RowMatching,
                         feature_subset: list[str] | None = None) -> float:
    """Fraction of matched row pairs at distance zero under any matching
    of a's rows to b's; match_rows reports it for its own as exact_match.
    A permutation that is not one of range(n) is refused. Past the two
    normalised matrices it forms no n x m matrix: it sums each row's
    absolute differences column by column, in _row_sums."""
    na, nb = joint_normalize(a, b, feature_subset)
    perm, n = np.asarray(matching.permutation), na.shape[0]
    if len(perm) != n:
        raise SchemaError("matching size does not fit the datasets")
    if perm.ndim != 1 or perm.dtype.kind not in "iu":
        raise SchemaError("matching permutation must be a 1-D array of row "
                          f"indices, got {perm.dtype} of shape {perm.shape}")
    if perm.min() < 0 or perm.max() >= n:
        raise SchemaError(f"matching permutation must lie in range({n}), "
                          f"got values {perm.min()} to {perm.max()}")
    # n values in range(n) are a permutation when none is missing
    if not np.bincount(perm.astype(np.intp, copy=False), minlength=n).all():
        raise SchemaError("matching permutation repeats a row of the second "
                          "dataset, so it is not a permutation")
    columns = [y[perm] for y in nb.T]
    for x, d in zip(na.T, columns):
        np.subtract(x, d, out=d)
        np.abs(d, out=d)
    return _zero_share(columns)


def _zero_share(columns: list[np.ndarray]) -> float:
    """Share of rows, over m columns of normalized absolute differences,
    whose sum is zero up to rounding."""
    sums = _row_sums(columns)
    zero = np.count_nonzero(sums <= _ZERO_TOL * len(columns))
    return float(zero) / len(sums)
