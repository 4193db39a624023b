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

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregate import AggregateSpec, Value
from .similarity import _rank_binary, _ranked_distance
from .tabular import (BINARY, Dataset, check_integer, check_real, require,
                      write_json)

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
    """Integer cell counts for one feature's 2x2 table."""

    l_int: tuple[int, int, int, int]
    or_deviation: float  # relative error of their odds ratio vs the target


# Every attempt of a spec without ranges asks for the same cells, so the
# frozen solutions are kept; typed, so that a cached n of 100 does not let
# 100.0 past the integer check.
@functools.lru_cache(typed=True)
def solve_cells(o: float, r1: float, f: float, n: int) -> CellSolution:
    """Solve the four-constraint system for one feature's cell counts.

    With A = r1*n outcome-positive rows and B = f*n feature-positive rows,
    the top-left cell a solves (1-o)a^2 + (n - A - B + o(A+B))a - o*A*B = 0
    (linear a = A*B/n when o == 1). The unique root in
    [max(0, A+B-n), min(A, B)] is selected and rounded so that all margins
    are preserved exactly.
    """
    check_real("o", o, 0, math.inf)
    check_real("r1", r1, 0, 1)
    check_real("f", f, 0, 1)
    check_integer("n", n, least=1)

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
    return CellSolution(l_int=l_int, or_deviation=deviation)


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
    whole years), independent of the outcome. Every draw comes from one
    generator seeded with seed, in schema order, so the dataset is
    deterministic given seed. The draws are made in two steps
    (_draw_binary, then _complete), which generate_candidates runs apart.
    """
    return _complete(spec, seed, *_draw_binary(spec, seed))


def _draw_binary(spec: AggregateSpec, seed: int
                 ) -> tuple[np.random.Generator, dict[str, np.ndarray]]:
    """reconstruct's first step: the seeded generator, and the outcome and
    every feature up to the last binary one, drawn in schema order.

    A continuous feature before a binary one is drawn here, so the
    binary columns, which are all the delta check reads, come from the
    same stream as in the whole dataset. The generator is returned where
    _complete continues it.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    r1 = _resolve(spec.class_fraction, rng)

    # int8, as _rank_binary ranks them; Dataset stores binary cells as int64
    y = np.ones(n, dtype=np.int8)
    n_pos = round(r1 * n)
    y[rng.choice(n, size=n_pos, replace=False)] = 0
    pos_rows = np.flatnonzero(y == 0)
    neg_rows = np.flatnonzero(y == 1)

    columns = {spec.schema.outcome.name: y}
    features = spec.schema.features
    last = max((i for i, feat in enumerate(features) if feat.kind == BINARY),
               default=-1)
    for feat in features[:last + 1]:
        if feat.kind == BINARY:
            stat = spec.binary[feat.name]
            o = _resolve(stat.odds_ratio, rng)
            f = _resolve(stat.occurrence_fraction, rng)
            sol = solve_cells(o, r1, f, n)
            l1, l2, _, _ = sol.l_int
            col = np.ones(n, dtype=np.int8)
            col[rng.choice(pos_rows, size=l1, replace=False)] = 0
            col[rng.choice(neg_rows, size=l2, replace=False)] = 0
            columns[feat.name] = col
        else:
            columns[feat.name] = _truncated_normal(spec, feat.name, rng)
    return rng, columns


def _complete(spec: AggregateSpec, seed: int, rng: np.random.Generator,
              columns: dict[str, np.ndarray]) -> Dataset:
    """reconstruct's second step: the continuous features after the last
    binary one, drawn from where _draw_binary left rng, and the Dataset."""
    # columns holds the outcome and the features _draw_binary drew
    for feat in spec.schema.features[len(columns) - 1:]:
        columns[feat.name] = _truncated_normal(spec, feat.name, rng)
    return Dataset(spec.schema, columns, seed=seed)


def _truncated_normal(spec: AggregateSpec, name: str,
                      rng: np.random.Generator) -> np.ndarray:
    """Continuous feature name: n draws from its normal truncated at 0,
    rounded to integers."""
    stat = spec.continuous[name]
    # draw every row, then redraw those < 0 (or inf) until none are;
    # the spec's mean >= 0 keeps about half of each round or more
    # (a third with an sd near the float max), so this ends
    vals, todo = np.empty(spec.n), np.arange(spec.n)
    while todo.size:
        drawn = rng.normal(stat.mean, stat.stddev, size=todo.size)
        vals[todo] = drawn
        todo = todo[(drawn < 0) | (drawn == np.inf)]
    return np.round(vals)


def derived_seed(base_seed: int, k: int) -> int:
    return (int(base_seed) + k * SEED_STRIDE) % _SEED_MOD


@dataclass
class CandidateSet:
    """n delta-separated candidate datasets for one aggregate spec."""

    spec: AggregateSpec
    delta: float
    candidates: list[Dataset]
    attempts_used: int
    or_deviations: dict[str, float] = field(default_factory=dict)


def generate_candidates(spec: AggregateSpec, n_candidates: int, delta: float,
                        base_seed: int,
                        max_attempts: int = MAX_ATTEMPTS) -> CandidateSet:
    """Produce n_candidates datasets whose pairwise greedy average distance
    over binary columns, match_rows's bit for bit, is at least delta.

    Attempt k is reconstruct(spec, derived_seed(base_seed, k)), for k = 0,
    1, ...; acceptance is decided in attempt order, so the result is
    independent of how candidates are generated behind the scenes. An
    attempt draws only reconstruct's first step (_draw_binary), which holds
    every binary column the delta check reads; the trailing continuous
    features and the Dataset are made only for an accepted attempt. The
    candidates are the same, byte for byte, as reconstruct's.
    n_candidates and max_attempts must be integers >= 1.
    """
    check_real("delta", delta, 0, 1, "[)")
    check_integer("n_candidates", n_candidates, least=1)
    check_integer("max_attempts", max_attempts, least=1)
    check_integer("base_seed", base_seed)

    binary = spec.schema.binary_columns()
    kept: list[Dataset] = []
    ranked: list[np.ndarray] = []  # _rank_binary of each kept candidate
    attempts = 0
    while len(kept) < n_candidates and attempts < max_attempts:
        seed = derived_seed(base_seed, attempts)
        attempts += 1
        rng, columns = _draw_binary(spec, seed)
        r = _rank_binary([columns[name] for name in binary])
        if all(_ranked_distance(r, other) >= delta for other in ranked):
            kept.append(_complete(spec, seed, rng, columns))
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
    """The candidate set save_candidates wrote to in_dir. A manifest that
    lacks n_candidates, delta or attempts_used, or whose value breaks the
    rule generate_candidates holds it to (counts at least 1, delta in
    [0, 1)), raises ValueError naming the key and the manifest."""
    src = Path(in_dir)
    spec = AggregateSpec.from_json(src / "spec.json")
    path = src / "manifest.json"
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    n_candidates, delta, attempts_used = (
        require(manifest, key, str(path))
        for key in ("n_candidates", "delta", "attempts_used"))
    try:
        check_integer("n_candidates", n_candidates, least=1)
        check_real("delta", delta, 0, 1, "[)")
        check_integer("attempts_used", attempts_used, least=1)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    candidates = [Dataset.from_csv(src / f"candidate_{k}.csv")
                  for k in range(n_candidates)]
    return CandidateSet(spec=spec, delta=delta, candidates=candidates,
                        attempts_used=attempts_used,
                        or_deviations=manifest.get("or_deviations", {}))
