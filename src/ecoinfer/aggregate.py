"""Aggregate statistics over a dataset: 2x2 contingency tables, odds ratios,
occurrence/class fractions, and the AggregateSpec interchange format that
drives reconstruction.

Conventions: the feature-positive value and the positive outcome class are
both encoded 0 (abnormal / dead). For the l1..l4 cells, l1 counts rows that
are feature-positive and outcome-positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tabular import (BINARY, CONTINUOUS, Dataset, Schema, SchemaError,
                      check_integer, check_real, require, write_json)

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
        check_integer("n", self.n, least=1)
        self._check_value("class_fraction", self.class_fraction, 0, 1)
        for name in self.schema.binary_feature_names:
            if name not in self.binary:
                raise ValueError(f"missing binary stats for {name!r}")
            stat = self.binary[name]
            self._check_value(f"odds_ratio[{name}]", stat.odds_ratio,
                              0, math.inf)
            self._check_value(f"occurrence_fraction[{name}]",
                              stat.occurrence_fraction, 0, 1)
        for name in self.schema.continuous_feature_names:
            if name not in self.continuous:
                raise ValueError(f"missing continuous stats for {name!r}")
            s = self.continuous[name]  # drawn from a normal truncated at 0
            check_real(f"mean[{name}]", s.mean, 0, math.inf, "[)")
            check_real(f"stddev[{name}]", s.stddev, 0, math.inf, "[)")

    @staticmethod
    def _check_value(name: str, v: Value, lo: float, hi: float) -> None:
        """A statistic, or each end of a (lo, hi) range, must be in
        (lo, hi); a range must be two ends with the low end first."""
        for end in v if isinstance(v, tuple) else (v,):
            check_real(name, end, lo, hi)
        if isinstance(v, tuple) and (len(v) != 2 or v[0] > v[1]):
            raise ValueError(f"{name} range must be (lo, hi) with lo <= hi, "
                             f"got {v}")

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
        """The inverse of to_dict. A missing key, a feature the schema lacks
        or that has two entries, or an entry whose kind is not the
        schema's raises ValueError naming it and its feature. Values are
        passed as loaded, so the constructor checks them and refuses "0.1"
        and true; only a JSON integer statistic becomes a float."""
        def dec(v) -> Value:
            if isinstance(v, list):  # a range
                return tuple(v)
            # type(), not isinstance(): a JSON true loads as a bool
            return float(v) if type(v) is int else v

        schema = Schema.from_dict(require(d, "schema", "the spec"))
        names = schema.feature_names
        binary = {}
        continuous = {}
        for f in require(d, "features", "the spec"):
            name = require(f, "name", f"feature {f}")
            owner = f"feature {name!r}"
            if name not in names:
                raise ValueError(f"{owner} is not in the schema")
            if name in binary or name in continuous:
                raise ValueError(f"{owner} has more than one entry")
            kind = schema.spec_for(name).kind
            if f.get("kind", kind) != kind:
                raise ValueError(f"{owner} is {kind} in the schema, "
                                 f"not {f['kind']!r}")
            if kind == BINARY:
                binary[name] = BinaryStat(
                    dec(require(f, "odds_ratio", owner)),
                    dec(require(f, "occurrence_fraction", owner)))
            else:
                continuous[name] = ContinuousStat(
                    dec(require(f, "mean", owner)),
                    dec(require(f, "stddev", owner)))
        return cls(schema=schema, n=require(d, "n", "the spec"),
                   class_fraction=dec(require(d, "class_fraction",
                                              "the spec")),
                   binary=binary, continuous=continuous)

    def to_json(self, path: str | Path) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, path: str | Path) -> "AggregateSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def summarize(dataset: Dataset) -> AggregateSpec:
    """Aggregate statistics of a dataset; the inverse of reconstruction.
    A dataset with no rows raises ValueError."""
    n = dataset.n_rows
    if n == 0:
        raise ValueError("dataset has no rows")
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
            mean = _exact_sum(col) / n
            continuous[f.name] = ContinuousStat(
                mean=mean,
                stddev=math.sqrt(_exact_sum((col - mean) ** 2) / (n - 1))
                if n > 1 else 0.0,
            )
    return AggregateSpec(schema=dataset.schema, n=n, class_fraction=r1,
                         binary=binary, continuous=continuous)


def _exact_sum(values: np.ndarray) -> float:
    """The sum of values rounded once, so it does not depend on their
    order; where a partial sum passes the float range, numpy's sum (inf),
    which the spec's checks then refuse by name."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return float(values.sum())
