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

from .tabular import (BINARY, CONTINUOUS, Dataset, Schema, SchemaError,
                      write_json)

# A scalar statistic, or a (lo, hi) range to be drawn per candidate.
Value = float | tuple[float, float]


class UndefinedOddsRatioError(ValueError):
    """A zero cell makes the odds ratio undefined; carries the table."""

    def __init__(self, table: "ContingencyTable", feature: str | None = None):
        self.table = table
        of = f" of {feature!r}" if feature is not None else ""
        super().__init__(f"odds ratio{of} undefined for table {table}: "
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


def odds_ratio(t: ContingencyTable, feature: str | None = None) -> float:
    """(l1*l4) / (l2*l3); feature only names the table in the error."""
    if t.l2 * t.l3 == 0:
        raise UndefinedOddsRatioError(t, feature)
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
    """A value, or each end of a range, must be in (lo, hi); NaN never is.
    A range must be two ends with the low end first."""
    if isinstance(v, tuple) and (len(v) != 2 or not v[0] <= v[1]):
        raise ValueError(f"{name} range must be (lo, hi) with lo <= hi, "
                         f"got {v}")
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
        # a bool is an int, but not a row count
        if type(self.n) is bool or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
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
            if not (0 <= s.mean < np.inf and 0 <= s.stddev < np.inf):
                raise ValueError(f"mean[{name}] and stddev[{name}] must be "
                                 f"finite and >= 0, got {s}")

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
        """The inverse of to_dict. A statistic that is not a JSON number,
        or a list of them for a range, raises ValueError naming it; n is
        passed as loaded, so the constructor refuses 200.7 and true."""
        def num(key: str, v) -> int | float:
            # type(), not isinstance(): a JSON true loads as a bool
            if type(v) not in (int, float):
                raise ValueError(f"{key} must be a JSON number, got {v!r}")
            return v

        def dec(key: str, v) -> Value:
            if isinstance(v, (list, tuple)):
                return tuple(num(key, x) for x in v)
            return float(num(key, v))

        schema = Schema.from_dict(d["schema"])
        binary = {}
        continuous = {}
        for f in d["features"]:
            name = f["name"]
            if f.get("kind", BINARY) == BINARY:
                binary[name] = BinaryStat(
                    dec(f"odds_ratio[{name}]", f["odds_ratio"]),
                    dec(f"occurrence_fraction[{name}]",
                        f["occurrence_fraction"]))
            else:
                continuous[name] = ContinuousStat(
                    float(num(f"mean[{name}]", f["mean"])),
                    float(num(f"stddev[{name}]", f["stddev"])))
        return cls(schema=schema, n=d["n"],
                   class_fraction=dec("class_fraction", d["class_fraction"]),
                   binary=binary, continuous=continuous)

    def to_json(self, path: str | Path) -> None:
        write_json(self.to_dict(), path)

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
                odds_ratio=odds_ratio(t, f.name),
                occurrence_fraction=float(np.count_nonzero(col == 0)) / n,
            )
        else:
            continuous[f.name] = ContinuousStat(
                mean=float(col.mean()),
                stddev=float(col.std(ddof=1)) if n > 1 else 0.0,
            )
    return AggregateSpec(schema=dataset.schema, n=n, class_fraction=r1,
                         binary=binary, continuous=continuous)
