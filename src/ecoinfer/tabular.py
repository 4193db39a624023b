"""Core tabular dataset model: schema, checked columns, CSV, undersampling.

Binary columns are encoded as 0/1 integers with 0 the "positive" value
(abnormal lab result, dead outcome) and 1 the "negative" value (normal,
alive). Continuous columns hold finite reals. Datasets are columnar and
immutable after construction so they can be shared freely across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BINARY = "binary"
CONTINUOUS = "continuous"


class SchemaError(ValueError):
    """Raised for malformed schemas or unknown column references."""


@dataclass(frozen=True)
class FeatureSpec:
    """One column declaration: a binary or continuous feature."""

    name: str
    kind: str = BINARY
    positive_label: str = "abnormal"  # encoded 0
    negative_label: str = "normal"    # encoded 1
    unit: str | None = None

    def __post_init__(self):
        if self.kind not in (BINARY, CONTINUOUS):
            raise SchemaError(f"unknown feature kind {self.kind!r} for {self.name!r}")

    def to_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.kind == BINARY:
            d["positive_label"] = self.positive_label
            d["negative_label"] = self.negative_label
        if self.unit is not None:
            d["unit"] = self.unit
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        return cls(
            name=d["name"],
            kind=d.get("kind", BINARY),
            positive_label=d.get("positive_label", "abnormal"),
            negative_label=d.get("negative_label", "normal"),
            unit=d.get("unit"),
        )


@dataclass(frozen=True)
class Schema:
    """Ordered feature columns plus a binary outcome column."""

    features: tuple[FeatureSpec, ...]
    outcome: FeatureSpec

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if self.outcome.kind != BINARY:
            raise SchemaError("outcome column must be binary")
        names = [f.name for f in self.features] + [self.outcome.name]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")

    @property
    def column_names(self) -> list[str]:
        return [f.name for f in self.features] + [self.outcome.name]

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def binary_feature_names(self) -> list[str]:
        return [f.name for f in self.features if f.kind == BINARY]

    @property
    def continuous_feature_names(self) -> list[str]:
        return [f.name for f in self.features if f.kind == CONTINUOUS]

    def binary_columns(self) -> list[str]:
        """Binary feature columns plus the outcome column."""
        return self.binary_feature_names + [self.outcome.name]

    def spec_for(self, name: str) -> FeatureSpec:
        for f in self.features:
            if f.name == name:
                return f
        if name == self.outcome.name:
            return self.outcome
        raise SchemaError(f"unknown column {name!r}")

    def to_dict(self) -> dict:
        return {
            "features": [f.to_dict() for f in self.features],
            "outcome": self.outcome.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        return cls(
            features=tuple(FeatureSpec.from_dict(f) for f in d["features"]),
            outcome=FeatureSpec.from_dict(d["outcome"]),
        )


class Dataset:
    """N rows of feature values + outcome labels, stored column-wise.

    Columns are numpy arrays marked read-only; all "mutation" is the
    construction of a new Dataset. ``seed`` records the RNG seed the data
    was generated from, when applicable. A cell that is not 0/1 (binary) or
    finite (continuous) before the cast raises SchemaError naming its row.
    """

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray],
                 seed: int | None = None):
        self.schema = schema
        self.seed = seed
        cols = {}
        lengths = set()
        for name in schema.column_names:
            if name not in columns:
                raise SchemaError(f"missing column {name!r}")
            kind = schema.spec_for(name).kind
            values = np.asarray(columns[name])
            if (bad := _rejected(kind, values)).any():
                row = int(np.argmax(bad))
                raise SchemaError(f"column {name!r} row {row}: {values[row]} "
                                  f"is not a valid {kind} cell")
            arr = values.astype(np.int64 if kind == BINARY else np.float64)
            arr.setflags(write=False)
            cols[name] = arr
            lengths.add(len(arr))
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self.columns = cols
        self.n_rows = lengths.pop() if lengths else 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    @property
    def outcome(self) -> np.ndarray:
        return self.columns[self.schema.outcome.name]

    def to_matrix(self, names: list[str] | None = None) -> np.ndarray:
        """Selected columns as a float matrix, in the given order."""
        if names is None:
            names = self.schema.column_names
        return np.column_stack([self.column(n).astype(np.float64) for n in names]) \
            if names else np.empty((self.n_rows, 0))

    def take(self, indices: np.ndarray, seed: int | None = None) -> "Dataset":
        """New dataset from a row-index selection (original order preserved by caller)."""
        return Dataset(self.schema,
                       {n: c[indices] for n, c in self.columns.items()},
                       seed=seed if seed is not None else self.seed)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.schema == other.schema
                and all(np.array_equal(self.columns[n], other.columns[n])
                        for n in self.schema.column_names))

    # --- CSV persistence -------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the dataset as UTF-8 CSV with a JSON schema sidecar."""
        path = Path(path)
        specs = (*self.schema.features, self.schema.outcome)
        # %d formats an int as str() does, %r a float as repr() does
        row = ",".join("%d" if spec.kind == BINARY else "%r"
                       for spec in specs) + "\n"
        columns = [self.columns[spec.name].tolist() for spec in specs]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(spec.name for spec in specs) + "\n")
            fh.writelines(row % cells for cells in zip(*columns))
        sidecar = {"schema": self.schema.to_dict(), "seed": self.seed}
        with open(sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """Read to_csv's output; SchemaError names the line of a bad row."""
        path = Path(path)
        with open(sidecar_path(path), encoding="utf-8") as fh:
            meta = json.load(fh)
        schema = Schema.from_dict(meta["schema"])
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if header != schema.column_names:
            raise SchemaError(f"{path}: line 1: header {header} does not "
                              f"match schema {schema.column_names}")
        try:
            raw = np.array(rows, dtype=np.float64) if rows else \
                np.empty((0, len(header)))
            return cls(schema, dict(zip(header, raw.T, strict=True)),
                       seed=meta.get("seed"))
        except ValueError as e:
            raise SchemaError(f"{path}: {_bad_line(path, schema) or e}") from e


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".schema.json")


def _rejected(kind: str, values: np.ndarray) -> np.ndarray:
    """Mask of the cells a column of this kind may not hold."""
    return (values != 0) & (values != 1) if kind == BINARY \
        else ~np.isfinite(values)


def _bad_line(path: Path, schema: Schema) -> str | None:
    """Error path of from_csv: read again to name the first line at fault."""
    specs = (*schema.features, schema.outcome)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.strip().split(",")
            if lineno == 1 or cells == [""]:
                continue
            if len(cells) != len(specs):
                return f"line {lineno}: {len(cells)} cells, not {len(specs)}"
            for spec, cell in zip(specs, cells):
                try:
                    bad = _rejected(spec.kind, np.float64(cell))
                except ValueError:  # not a number
                    bad = True
                if bad:
                    return (f"line {lineno}, column {spec.name!r}: "
                            f"{cell!r} is not a valid {spec.kind} cell")


def undersample(dataset: Dataset, majority_class: int, rate: float,
                seed: int) -> Dataset:
    """Keep all minority-class rows and a seeded uniform sample of the majority.

    floor(rate * majority_count) majority rows are kept; the original
    relative row order is preserved.
    """
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    y = dataset.outcome
    majority = np.flatnonzero(y == majority_class)
    if majority.size == 0:
        raise ValueError(f"majority class {majority_class} not present")
    if rate == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    n_keep = int(rate * majority.size)
    kept = rng.choice(majority, size=n_keep, replace=False)
    keep = np.sort(np.concatenate([np.flatnonzero(y != majority_class), kept]))
    return dataset.take(keep)
