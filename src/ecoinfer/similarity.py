"""Dataset similarity via normalized Manhattan distance under a row matching.

Both datasets are min-max normalized jointly (per-attribute min/max over
their concatenation) so the distances are comparable. Row pairing is either
the cheap greedy rank-sum heuristic (sort rows by the sum of normalized
attribute values and pair by rank), the exact minimum-cost bipartite
assignment (identical rows paired in place, the rows left over solved with
scipy's linear_sum_assignment), or the identity pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tabular import Dataset, SchemaError, distinct_rows

GREEDY_RANK = "greedy_rank"
EXACT_ASSIGNMENT = "exact_assignment"
IDENTITY = "identity"
METHODS = (GREEDY_RANK, EXACT_ASSIGNMENT, IDENTITY)

_ZERO_TOL = 1e-12

# Elements of one block of the distinct-row cost tensor (8 MB of float64).
_COST_BLOCK = 1 << 20


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
    read whole from the dataset and written into a C-order matrix, so the
    result has the bytes, and its row sums the order, of the matrix form
    ``(to_matrix(names) - lo) / span``. A feature_subset must name at
    least one column, and none twice.
    """
    _check_compatible(a, b)
    names = list(feature_subset) if feature_subset is not None \
        else a.schema.column_names
    if not names or len(set(names)) < len(names):
        raise SchemaError(f"feature_subset must name at least one column "
                          f"and none twice, got {names}")
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
    """The n x m C-order matrix of (column - lo) / span."""
    out = np.empty((n, len(columns)))
    for j, c in enumerate(columns):
        out[:, j] = (c - lo[j]) / span[j]
    return out


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
    distance assignment of the r rows left over (O(r^3) time, r x r floats;
    config 1 at N=10,000 leaves r = 167 on its binary columns, 1,886 on
    all). identity pairs row i with row i.
    """
    if method not in METHODS:
        raise ValueError(f"unknown matching method {method!r}")
    na, nb = joint_normalize(a, b, feature_subset)
    n, m = na.shape
    if method == IDENTITY:
        perm = np.arange(n)
    elif method == GREEDY_RANK:
        ia = np.argsort(na.sum(axis=1), kind="stable")
        ib = np.argsort(nb.sum(axis=1), kind="stable")
        perm = np.empty(n, dtype=np.int64)
        perm[ia] = ib
    else:
        perm = _exact_permutation(na, nb)
    diff = np.abs(na - nb[perm])
    total = float(diff.sum() / m)
    return RowMatching(permutation=perm, total_distance=total,
                       average_distance=total / n, exact_match=_zero_share(diff))


def _rank_binary(columns: list[np.ndarray]) -> np.ndarray:
    """Equal-length 0/1 columns (schema.binary_columns() order) as int8 rows
    in greedy rank order, for _ranked_distance: stably sorted by row sum, so
    row i of two ranked datasets is the pair match_rows's greedy_rank forms
    (a 0/1 column normalizes to itself, or to zeros if constant). The sums
    are held in the narrowest unsigned type that fits the column count,
    where numpy's stable argsort is a radix sort."""
    columns = [column.astype(np.int8, copy=False) for column in columns]
    n_rows = len(columns[0])
    sums = np.zeros(n_rows, dtype=np.min_scalar_type(len(columns)))
    for column in columns:
        # int8 into unsigned is not a same_kind cast; 0/1 values fit either
        np.add(sums, column, out=sums, casting="unsafe")
    order = np.argsort(sums, kind="stable")
    ranked = np.empty((n_rows, len(columns)), dtype=np.int8)
    for j, column in enumerate(columns):
        ranked[:, j] = column[order]
    return ranked


def _ranked_distance(r: np.ndarray, o: np.ndarray) -> float:
    """Greedy average distance of two _rank_binary matrices: the mismatch
    count over m columns, then n rows, as match_rows divides, bit for bit."""
    return np.count_nonzero(r != o) / r.shape[1] / len(r)


def _exact_permutation(na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """A minimum-total-distance permutation. The row distance is an L1
    metric, so some optimum pairs min(count_a(v), count_b(v)) rows in place
    at every distinct row v: the k-th row of na holding v (in row order)
    gets the k-th row of nb holding v. Only the rows left over are solved.
    """
    n = len(na)
    key = distinct_rows(np.vstack([na, nb]))[1]
    _, ia, ib = np.intersect1d(_occurrence_codes(key[:n]),
                               _occurrence_codes(key[n:]),
                               assume_unique=True, return_indices=True)
    perm = np.empty(n, dtype=np.int64)
    perm[ia] = ib
    ra = np.setdiff1d(np.arange(n), ia, assume_unique=True)
    if len(ra):
        # Local: scipy.optimize costs about 0.5 s to import.
        from scipy.optimize import linear_sum_assignment
        rb = np.setdiff1d(np.arange(n), ib, assume_unique=True)
        rows, cols = linear_sum_assignment(_exact_cost(na[ra], nb[rb]))
        perm[ra[rows]] = rb[cols]
    return perm


def _occurrence_codes(key: np.ndarray) -> np.ndarray:
    """key * n + k for the k-th of the n rows (in row order) holding a key."""
    n = len(key)
    order = np.argsort(key, kind="stable")
    sk = key[order]
    code = np.empty_like(key)
    code[order] = sk * n + np.arange(n) - np.searchsorted(sk, sk)
    return code


def _exact_cost(na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """The n x n matrix of average row distances, na row i to nb row j.

    Each distance is computed once per pair of distinct rows, in blocks of
    rows of na so the temporary stays bounded, and then gathered. Every
    entry is the same expression over the same m values as the dense
    n x n x m form, so it is bitwise equal to it; summing one column at a
    time would round differently once m >= 8 (numpy sums pairwise).
    """
    m = na.shape[1]
    (ra, ia), (rb, ib) = distinct_rows(na), distinct_rows(nb)
    ua, ub = na[ra], nb[rb]
    cost = np.empty((len(ua), len(ub)))
    step = max(1, _COST_BLOCK // max(1, len(ub) * m))
    for s in range(0, len(ua), step):
        cost[s:s + step] = np.abs(ua[s:s + step, None, :]
                                  - ub[None, :, :]).sum(axis=2) / m
    return cost[np.ix_(ia, ib)]


def similarity(a: Dataset, b: Dataset, method: str = GREEDY_RANK,
               feature_subset: list[str] | None = None) -> float:
    """One minus the average matched-row distance; 1 means identical."""
    return 1.0 - match_rows(a, b, method, feature_subset).average_distance


def exact_match_fraction(a: Dataset, b: Dataset, matching: RowMatching,
                         feature_subset: list[str] | None = None) -> float:
    """Fraction of matched row pairs at distance zero under any matching
    of a's rows to b's; match_rows reports it for its own as exact_match."""
    na, nb = joint_normalize(a, b, feature_subset)
    if len(matching.permutation) != na.shape[0]:
        raise SchemaError("matching size does not fit the datasets")
    return _zero_share(np.abs(na - nb[matching.permutation]))


def _zero_share(diff: np.ndarray) -> float:
    """Share of rows of an n x m matrix of normalized absolute differences
    whose sum is zero up to rounding."""
    n, m = diff.shape
    d = diff.sum(axis=1)
    return float(np.count_nonzero(d <= _ZERO_TOL * m)) / n
