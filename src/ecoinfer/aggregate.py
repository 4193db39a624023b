"""Aggregate statistics over a dataset: 2x2 contingency tables, odds ratios,
occurrence/class fractions, and the AggregateSpec interchange format that
drives reconstruction.

Conventions: the feature-positive value and the positive outcome class are
both encoded 0 (abnormal / dead). For the l1..l4 cells, l1 counts rows that
are feature-positive and outcome-positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tabular import BINARY, CONTINUOUS, Dataset, Schema, SchemaError

# A scalar statistic, or a (lo, hi) range to be drawn per candidate.
Value = float | tuple[float, float]


class UndefinedOddsRatioError(ValueError):
    """A zero cell makes the odds ratio undefined; carries the table."""

    def __init__(self, table: "ContingencyTable"):
        self.table = table
        super().__init__(f"odds ratio undefined for table {table}: "
                         "zero denominator cell")


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 cell counts linking one binary feature to the binary outcome.

    l1: feature-positive & outcome-positive    l2: feature-positive & outcome-negative
    l3: feature-negative & outcome-positive    l4: feature-negative & outcome-negative
    """

    l1: int
    l2: int
    l3: int
    l4: int

    def __post_init__(self):
        if min(self.l1, self.l2, self.l3, self.l4) < 0:
            raise ValueError(f"negative cell count in {self}")

    @property
    def n(self) -> int:
        return self.l1 + self.l2 + self.l3 + self.l4

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l1, self.l2, self.l3, self.l4)


def odds_ratio(t: ContingencyTable) -> float:
    """(l1*l4) / (l2*l3)."""
    if t.l2 * t.l3 == 0:
        raise UndefinedOddsRatioError(t)
    return (t.l1 * t.l4) / (t.l2 * t.l3)


def contingency_table(dataset: Dataset, feature: str) -> ContingencyTable:
    """Exact cell counts for one binary feature against the outcome."""
    if dataset.schema.spec_for(feature).kind != BINARY:
        raise SchemaError(f"feature {feature!r} is not binary")
    x = dataset.column(feature)
    y = dataset.outcome
    pos_x = x == 0
    pos_y = y == 0
    return ContingencyTable(
        l1=int(np.count_nonzero(pos_x & pos_y)),
        l2=int(np.count_nonzero(pos_x & ~pos_y)),
        l3=int(np.count_nonzero(~pos_x & pos_y)),
        l4=int(np.count_nonzero(~pos_x & ~pos_y)),
    )


@dataclass(frozen=True)
class BinaryStat:
    odds_ratio: Value
    occurrence_fraction: Value


@dataclass(frozen=True)
class ContinuousStat:
    mean: float
    stddev: float


def _check_open(name: str, v: Value, lo: float, hi: float) -> None:
    """A value, or each end of a range, must be in (lo, hi); NaN never is."""
    for x in v if isinstance(v, tuple) else (v,):
        if not lo < x < hi:
            raise ValueError(f"{name} must be in ({lo}, {hi}), got {v}")


@dataclass(frozen=True)
class AggregateSpec:
    """The sole input to reconstruction: N, outcome class fraction, and
    per-feature odds ratios / occurrence fractions (binary) or moments
    (continuous). Statistic values may be (lo, hi) ranges; each candidate
    then draws a value uniformly from the range with its own seed.
    """

    schema: Schema
    n: int
    class_fraction: Value  # fraction of outcome-positive (dead) rows
    binary: dict[str, BinaryStat] = field(default_factory=dict)
    continuous: dict[str, ContinuousStat] = field(default_factory=dict)

    def __post_init__(self):
        _check_open("n", self.n, 0, np.inf)
        _check_open("class_fraction", self.class_fraction, 0, 1)
        for name in self.schema.binary_feature_names:
            if name not in self.binary:
                raise ValueError(f"missing binary stats for {name!r}")
            _check_open(f"odds_ratio[{name}]", self.binary[name].odds_ratio,
                        0, np.inf)
            _check_open(f"occurrence_fraction[{name}]",
                        self.binary[name].occurrence_fraction, 0, 1)
        for name in self.schema.continuous_feature_names:
            if name not in self.continuous:
                raise ValueError(f"missing continuous stats for {name!r}")
            s = self.continuous[name]  # drawn from a normal truncated at 0
            _check_open(f"mean[{name}]", s.mean, -np.inf, np.inf)
            if not 0 <= s.stddev < np.inf or s.stddev == 0 and s.mean < 0:
                raise ValueError(f"stddev[{name}] must be finite, >= 0, and "
                                 f"> 0 if the mean is < 0; got {s}")

    def to_dict(self) -> dict:
        def enc(v: Value):
            return list(v) if isinstance(v, tuple) else v

        feats = []
        for f in self.schema.features:
            if f.kind == BINARY:
                s = self.binary[f.name]
                feats.append({"name": f.name, "kind": BINARY,
                              "odds_ratio": enc(s.odds_ratio),
                              "occurrence_fraction": enc(s.occurrence_fraction)})
            else:
                s = self.continuous[f.name]
                feats.append({"name": f.name, "kind": CONTINUOUS,
                              "mean": s.mean, "stddev": s.stddev})
        return {"n": self.n,
                "class_fraction": enc(self.class_fraction),
                "features": feats,
                "schema": self.schema.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "AggregateSpec":
        def dec(v) -> Value:
            return tuple(v) if isinstance(v, (list, tuple)) else float(v)

        schema = Schema.from_dict(d["schema"])
        binary = {}
        continuous = {}
        for f in d["features"]:
            if f.get("kind", BINARY) == BINARY:
                binary[f["name"]] = BinaryStat(dec(f["odds_ratio"]),
                                               dec(f["occurrence_fraction"]))
            else:
                continuous[f["name"]] = ContinuousStat(float(f["mean"]),
                                                       float(f["stddev"]))
        return cls(schema=schema, n=int(d["n"]),
                   class_fraction=dec(d["class_fraction"]),
                   binary=binary, continuous=continuous)

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "AggregateSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def summarize(dataset: Dataset) -> AggregateSpec:
    """Aggregate statistics of a dataset; the inverse of reconstruction."""
    n = dataset.n_rows
    y = dataset.outcome
    r1 = float(np.count_nonzero(y == 0)) / n
    binary = {}
    continuous = {}
    for f in dataset.schema.features:
        col = dataset.column(f.name)
        if f.kind == BINARY:
            t = contingency_table(dataset, f.name)
            binary[f.name] = BinaryStat(
                odds_ratio=odds_ratio(t),
                occurrence_fraction=float(np.count_nonzero(col == 0)) / n,
            )
        else:
            continuous[f.name] = ContinuousStat(
                mean=float(col.mean()),
                stddev=float(col.std(ddof=1)) if n > 1 else 0.0,
            )
    return AggregateSpec(schema=dataset.schema, n=n, class_fraction=r1,
                         binary=binary, continuous=continuous)
