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
            name=require(d, "name", f"feature {d}"),
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
            features=tuple(FeatureSpec.from_dict(f) for f in
                           require(d, "features", "the schema")),
            outcome=FeatureSpec.from_dict(require(d, "outcome", "the schema")),
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

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset from a row-index selection (original order preserved by caller)."""
        return Dataset(self.schema,
                       {n: c[indices] for n, c in self.columns.items()},
                       seed=self.seed)

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
        write_columns(path, [spec.name for spec in specs],
                      [self.columns[spec.name] for spec in specs],
                      ["%d" if spec.kind == BINARY else "%r" for spec in specs])
        sidecar = {"schema": self.schema.to_dict(), "seed": self.seed}
        sidecar_path(path).write_text(
            json.dumps(sidecar, indent=2, default=plain_number) + "\n",
            encoding="utf-8")

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """Read to_csv's output; SchemaError names the line of a bad row,
        or the sidecar when its schema is bad or lacks a key."""
        path, sidecar = Path(path), sidecar_path(path)
        with open(sidecar, encoding="utf-8") as fh:
            meta = json.load(fh)
        try:
            schema = Schema.from_dict(require(meta, "schema"))
        except ValueError as e:
            raise SchemaError(f"{sidecar}: {e}") from e
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line for line in fh if not line.isspace()]
        if header != schema.column_names:
            raise SchemaError(f"{path}: line 1: header {header} does not "
                              f"match schema {schema.column_names}")
        try:
            # loadtxt warns when it is given no rows
            raw = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2,
                             dtype=np.float64) if rows else \
                np.empty((0, len(header)))
            return cls(schema, dict(zip(header, raw.T, strict=True)),
                       seed=meta.get("seed"))
        except ValueError as e:
            raise SchemaError(f"{path}: {_bad_line(path, schema) or e}") from e


def require(d: dict, key: str, owner: str | None = None):
    """d[key], or a ValueError naming the missing key and, if given, the
    entry it is missing from."""
    if key not in d:
        raise ValueError(f"missing key {key!r}"
                         + (f" in {owner}" if owner else ""))
    return d[key]


def check_integer(name: str, value, least: int | None = None) -> None:
    """A ValueError naming name and value unless value is an int or a numpy
    integer, and at least least if that is given; a bool is an int, but
    not a count or a seed, so it is refused."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def check_real(name: str, value, lo: float, hi: float,
               ends: str = "()") -> None:
    """A ValueError naming name and value unless value is an int, a float
    or a numpy integer or floating scalar in the interval from lo to hi,
    whose ends are open or closed as the brackets in ends say. A bool is
    refused, as check_integer refuses it, and so is an int too large for a
    float; NaN is in no interval."""
    if type(value) is bool or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        # named by its size: repr of an int past 4300 digits raises
        raise ValueError(f"{name} must be a real number a float can hold, "
                         f"got an integer of {value.bit_length()} bits"
                         ) from None
    above = lo <= value if ends[0] == "[" else lo < value
    below = value <= hi if ends[1] == "]" else value < hi
    if not (above and below):
        raise ValueError(f"{name} must be in {ends[0]}{lo}, {hi}{ends[1]}, "
                         f"got {value!r}")


def plain_number(value) -> int | float:
    """json's default hook: a numpy integer or floating scalar, which
    check_integer and check_real let in, as the plain number it holds."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


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
                    # loadtxt, unlike float(), refuses "_" and non-ASCII
                    bad = "_" in cell or not cell.isascii() \
                        or _rejected(spec.kind, np.float64(cell))
                except ValueError:  # not a number
                    bad = True
                if bad:
                    return (f"line {lineno}, column {spec.name!r}: "
                            f"{cell!r} is not a valid {spec.kind} cell")


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rep, inverse): a row index of X per distinct row, the distinct rows
    in lexicographic order, and each row's group, so X[rep][inverse] == X.

    One 1-D np.unique per column codes its values; the codes build a
    mixed-radix row key, which keeps the lexicographic order. The key is
    renumbered only when it could reach 2**62, and once at the end; -0.0
    and 0.0 compare equal.
    """
    key = np.zeros(len(X), dtype=np.int64)
    size = 1  # every key is below size
    for column in X.T:
        values, code = np.unique(column, return_inverse=True)
        if size * len(values) >= 2 ** 62:
            used, key = np.unique(key, return_inverse=True)
            size = len(used)
        key = key * len(values) + code
        size *= len(values)
    key = np.unique(key, return_inverse=True)[1]
    rep = np.empty(key.max() + 1 if len(key) else 0, dtype=np.int64)
    rep[key] = np.arange(len(key))
    return rep, key


def json_text(value) -> str:
    """The layout of every JSON report, spec and manifest: indent 2, sorted
    keys, a trailing newline."""
    return json.dumps(value, indent=2, sort_keys=True,
                      default=plain_number) + "\n"


def write_json(value, path: str | Path) -> None:
    Path(path).write_text(json_text(value), encoding="utf-8")


def write_columns(path: str | Path, header: list[str],
                  columns: list[np.ndarray], formats: list[str]) -> None:
    """CSV of whole int or float columns, one %-format per column: %d
    prints an int as str() does, %r a float as repr() does. Each distinct
    row is formatted once; rows are told apart by their bits, so -0.0 and
    0.0 keep their own spellings."""
    columns = [np.asarray(c) for c in columns]
    rep, inverse = distinct_rows(np.column_stack(
        [c.view(np.int64) if c.dtype.kind == "f" else c for c in columns]))
    row = ",".join(formats) + "\n"
    lines = [row % cells for cells in zip(*(c[rep].tolist() for c in columns))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines([lines[k] for k in inverse.tolist()])


def write_rows(path: str | Path, header: list[str], rows) -> None:
    """CSV of figure rows: a str cell as it is, None as an empty cell, any
    other cell as repr(float(cell))."""
    def cell(v) -> str:
        return v if isinstance(v, str) else "" if v is None else repr(float(v))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(",".join(map(cell, r)) + "\n" for r in [header, *rows])


def undersample(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Keep all minority-class rows and a seeded uniform sample of the majority.

    The majority class is the more frequent outcome, class 1 on a tie.
    floor(rate * majority_count) majority rows are kept; the original
    relative row order is preserved.
    """
    check_real("rate", rate, 0, 1, "(]")
    y = dataset.outcome
    majority_class = int(2 * np.count_nonzero(y) >= y.size)
    majority = np.flatnonzero(y == majority_class)
    if rate == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    n_keep = int(rate * majority.size)
    kept = rng.choice(majority, size=n_keep, replace=False)
    keep = np.sort(np.concatenate([np.flatnonzero(y != majority_class), kept]))
    return dataset.take(keep)
