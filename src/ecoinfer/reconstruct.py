"""Individual-level data reconstruction from aggregate statistics.

Per binary feature, the 2x2 cell counts are pinned down by four constraints
(target odds ratio, outcome class total, feature-positive total, grand
total), which reduce to one quadratic in the top-left cell. Rows are then
populated by seeded uniform assignment within each outcome class, so the
randomness only decides WHICH rows carry a value, never how many.

Candidate sets are produced by rejection sampling: a new candidate is kept
only if its greedy average distance to every kept candidate is at least
delta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregate import AggregateSpec, Value, _check_open
from .tabular import BINARY, Dataset, write_json

# Seed stride for derived candidate seeds (golden-ratio increment).
SEED_STRIDE = 0x9E3779B9
_SEED_MOD = 2 ** 63

_REL_TOL = 1e-9

MAX_ATTEMPTS = 1000  # reconstructions generate_candidates draws at most


class InfeasibleSpecError(ValueError):
    """No cell solution in the feasibility interval."""


class PartialCandidateSetError(RuntimeError):
    """max_attempts exhausted; carries the candidates found so far."""

    def __init__(self, candidates: list[Dataset], attempts_used: int):
        self.candidates = candidates
        self.attempts_used = attempts_used
        super().__init__(
            f"only {len(candidates)} candidates found in {attempts_used} attempts")


@dataclass(frozen=True)
class CellSolution:
    """Real and rounded integer cell counts for one feature's 2x2 table."""

    l_real: tuple[float, float, float, float]
    l_int: tuple[int, int, int, int]
    achieved_or: float
    or_deviation: float  # relative error of achieved_or vs the target


def solve_cells(o: float, r1: float, f: float, n: int) -> CellSolution:
    """Solve the four-constraint system for one feature's cell counts.

    With A = r1*n outcome-positive rows and B = f*n feature-positive rows,
    the top-left cell a solves (1-o)a^2 + (n - A - B + o(A+B))a - o*A*B = 0
    (linear a = A*B/n when o == 1). The unique root in
    [max(0, A+B-n), min(A, B)] is selected and rounded so that all margins
    are preserved exactly.
    """
    _check_open("r1", r1, 0, 1)
    _check_open("f", f, 0, 1)
    _check_open("odds ratio", o, 0, math.inf)
    _check_open("n", n, 0, math.inf)

    A = r1 * n
    B = f * n
    lo = max(0.0, A + B - n)
    hi = min(A, B)
    tol = _REL_TOL * n

    if abs(1.0 - o) < 1e-12:
        a = A * B / n
    else:
        qa = 1.0 - o
        qb = n - A - B + o * (A + B)
        qc = -o * A * B
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0:
            raise InfeasibleSpecError(
                f"no real cell solution for o={o}, r1={r1}, f={f}, n={n}")
        # Stable quadratic evaluation: avoids cancellation for large o.
        q = -(qb + math.copysign(math.sqrt(disc), qb)) / 2.0
        roots = [q / qa, qc / q] if q != 0 else [0.0, 0.0]
        inside = [r for r in roots if lo - tol <= r <= hi + tol]
        if not inside:
            raise InfeasibleSpecError(
                f"no root of {roots} in [{lo}, {hi}] for o={o}, r1={r1}, "
                f"f={f}, n={n}")
        a = min(max(inside[0], lo), hi)

    l_real = (a, B - a, A - a, n - A - B + a)

    # Round the margins first, then the cell, so margins stay exact.
    a_int = round(r1 * n)
    b_int = round(f * n)
    c1 = min(max(round(a), max(0, a_int + b_int - n)), min(a_int, b_int))
    l_int = (c1, b_int - c1, a_int - c1, n - a_int - b_int + c1)

    if l_int[1] * l_int[2] > 0:
        achieved = (l_int[0] * l_int[3]) / (l_int[1] * l_int[2])
    else:
        achieved = math.inf
    deviation = abs(achieved - o) / o if math.isfinite(achieved) else math.inf
    return CellSolution(l_real=l_real, l_int=l_int,
                        achieved_or=achieved, or_deviation=deviation)


def _resolve(v: Value, rng: np.random.Generator) -> float:
    """A scalar passes through; a (lo, hi) range draws uniformly."""
    if isinstance(v, tuple):
        lo, hi = v
        return float(rng.uniform(lo, hi))
    return float(v)


def reconstruct(spec: AggregateSpec, seed: int) -> Dataset:
    """Generate one individual-level dataset matching the aggregate spec.

    The outcome column is fixed first (round(r1*N) positive rows chosen
    uniformly), then each binary feature assigns its solved cell counts
    uniformly within each outcome class. Continuous features are drawn
    i.i.d. from a normal truncated at 0 and rounded to integers (ages in
    whole years), independent of the outcome. Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    r1 = _resolve(spec.class_fraction, rng)

    y = np.ones(n, dtype=np.int64)
    n_pos = round(r1 * n)
    y[rng.choice(n, size=n_pos, replace=False)] = 0
    pos_rows = np.flatnonzero(y == 0)
    neg_rows = np.flatnonzero(y == 1)

    columns = {spec.schema.outcome.name: y}
    for feat in spec.schema.features:
        if feat.kind == BINARY:
            stat = spec.binary[feat.name]
            o = _resolve(stat.odds_ratio, rng)
            f = _resolve(stat.occurrence_fraction, rng)
            sol = solve_cells(o, r1, f, n)
            l1, l2, _, _ = sol.l_int
            col = np.ones(n, dtype=np.int64)
            col[rng.choice(pos_rows, size=l1, replace=False)] = 0
            col[rng.choice(neg_rows, size=l2, replace=False)] = 0
            columns[feat.name] = col
        else:
            stat = spec.continuous[feat.name]
            # draw every row, then redraw those < 0 (or inf) until none are;
            # the spec's mean >= 0 keeps about half of each round or more
            # (a third with an sd near the float max), so this ends
            vals, todo = np.empty(n), np.arange(n)
            while todo.size:
                drawn = rng.normal(stat.mean, stat.stddev, size=todo.size)
                vals[todo] = drawn
                todo = todo[(drawn < 0) | (drawn == np.inf)]
            columns[feat.name] = np.round(vals)
    return Dataset(spec.schema, columns, seed=seed)


def derived_seed(base_seed: int, k: int) -> int:
    return (base_seed + k * SEED_STRIDE) % _SEED_MOD


@dataclass
class CandidateSet:
    """n delta-separated candidate datasets for one aggregate spec."""

    spec: AggregateSpec
    delta: float
    candidates: list[Dataset]
    attempts_used: int
    or_deviations: dict[str, float] = field(default_factory=dict)


def _rank_binary(ds: Dataset) -> np.ndarray:
    """Binary columns (incl. outcome) as int8 rows in greedy rank order.

    Rows are stably sorted by their sum, so row i of two ranked datasets is
    the pair the similarity module's greedy matcher would form on binary
    columns. Binary 0/1 columns need no normalization. The sums are held in
    the narrowest unsigned type that fits the column count (uint8 up to 255
    columns), where numpy's stable argsort is a radix sort; any stable sort
    of the same sums gives the same order.
    """
    columns = [ds.column(c).astype(np.int8)
               for c in ds.schema.binary_columns()]
    sums = np.zeros(ds.n_rows, dtype=np.min_scalar_type(len(columns)))
    for column in columns:
        # int8 into unsigned is not a same_kind cast; 0/1 values fit either
        np.add(sums, column, out=sums, casting="unsafe")
    order = np.argsort(sums, kind="stable")
    ranked = np.empty((ds.n_rows, len(columns)), dtype=np.int8)
    for j, column in enumerate(columns):
        ranked[:, j] = column[order]
    return ranked


def _ranked_distance(r: np.ndarray, o: np.ndarray) -> float:
    """Greedy average distance of two _rank_binary matrices.

    It stays separate from match_rows: that path divides by m and n in
    turn, which moves some distances by one ulp, and it is slower.
    """
    return np.count_nonzero(r != o) / r.size


def generate_candidates(spec: AggregateSpec, n_candidates: int, delta: float,
                        base_seed: int,
                        max_attempts: int = MAX_ATTEMPTS) -> CandidateSet:
    """Produce n_candidates datasets whose pairwise greedy average distance
    (over binary columns) is at least delta.

    Derived seeds walk base_seed + k*SEED_STRIDE; acceptance is decided in
    seed-index order, so the result is independent of how candidates are
    generated behind the scenes.
    """
    if not 0 <= delta < 1:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")

    kept: list[Dataset] = []
    ranked: list[np.ndarray] = []  # _rank_binary of each kept candidate
    attempts = 0
    while len(kept) < n_candidates and attempts < max_attempts:
        cand = reconstruct(spec, derived_seed(base_seed, attempts))
        attempts += 1
        r = _rank_binary(cand)
        if all(_ranked_distance(r, other) >= delta for other in ranked):
            kept.append(cand)
            ranked.append(r)
    if len(kept) < n_candidates:
        raise PartialCandidateSetError(kept, attempts)

    # A ranged spec draws different cells per candidate: none are recorded.
    stats = {name: spec.binary[name]
             for name in spec.schema.binary_feature_names}
    ranged = isinstance(spec.class_fraction, tuple) or any(
        isinstance(v, tuple) for stat in stats.values()
        for v in (stat.odds_ratio, stat.occurrence_fraction))
    deviations = {} if ranged else {
        name: solve_cells(stat.odds_ratio, spec.class_fraction,
                          stat.occurrence_fraction, spec.n).or_deviation
        for name, stat in stats.items()}
    return CandidateSet(spec=spec, delta=delta, candidates=kept,
                        attempts_used=attempts, or_deviations=deviations)


# --- persistence ----------------------------------------------------------

def save_candidates(cs: CandidateSet, out_dir: str | Path) -> None:
    """Write spec.json, candidate_<k>.csv (+ sidecars), and manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cs.spec.to_json(out / "spec.json")
    for k, cand in enumerate(cs.candidates):
        cand.to_csv(out / f"candidate_{k}.csv")
    manifest = {
        "delta": cs.delta,
        "attempts_used": cs.attempts_used,
        "seeds": [c.seed for c in cs.candidates],
        "or_deviations": cs.or_deviations,
        "n_candidates": len(cs.candidates),
    }
    write_json(manifest, out / "manifest.json")


def load_candidates(in_dir: str | Path) -> CandidateSet:
    src = Path(in_dir)
    spec = AggregateSpec.from_json(src / "spec.json")
    with open(src / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    candidates = [Dataset.from_csv(src / f"candidate_{k}.csv")
                  for k in range(manifest["n_candidates"])]
    return CandidateSet(spec=spec, delta=manifest["delta"],
                        candidates=candidates,
                        attempts_used=manifest["attempts_used"],
                        or_deviations=manifest.get("or_deviations", {}))
