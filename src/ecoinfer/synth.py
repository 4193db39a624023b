"""Ground-truth generation for evaluation: the ten builtin trauma-mortality
parameter configurations, plus arbitrary user configs.

Ground truth is produced by the same reconstruction engine fed with target
parameters, so a "ground truth" dataset is simply a reconstruction with a
known seed.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, asdict, fields, replace
from pathlib import Path

from .aggregate import AggregateSpec, BinaryStat, ContinuousStat
from .reconstruct import reconstruct
from .tabular import (BINARY, CONTINUOUS, Dataset, FeatureSpec, Schema,
                      check_integer, read_json, require, write_json)

DEFAULT_N = 10_000
AGE_MEAN = 36.0
AGE_SD = 19.0


def atc_schema() -> Schema:
    """Gender/PT/PTT/Platelet binary predictors, Age continuous, Dead outcome."""
    return Schema(
        features=(
            FeatureSpec("Gender", BINARY, positive_label="male",
                        negative_label="female"),
            FeatureSpec("PT", BINARY),
            FeatureSpec("PTT", BINARY),
            FeatureSpec("Platelet", BINARY),
            FeatureSpec("Age", CONTINUOUS, unit="years"),
        ),
        outcome=FeatureSpec("Dead", BINARY, positive_label="dead",
                            negative_label="alive"),
    )


@dataclass(frozen=True)
class GroundTruthConfig:
    """Per-feature odds ratios / occurrence fractions and the outcome class
    fraction used to synthesize one ground-truth dataset."""

    gender_or: float
    gender_fraction: float
    pt_or: float
    pt_fraction: float
    ptt_or: float
    ptt_fraction: float
    plate_or: float
    plate_fraction: float
    doa_fraction: float
    n: int = DEFAULT_N
    age_mean: float = AGE_MEAN
    age_sd: float = AGE_SD
    seed: int = 0

    def __post_init__(self):
        try:
            self.to_spec()  # the spec checks every statistic and n
        except ValueError as e:
            # the spec's message starts with the statistic's name
            statistic, says = str(e).split(" ", 1)
            raise ValueError(f"{_SPEC_FIELDS[statistic]} {says}") from None
        check_integer("seed", self.seed, least=0)  # numpy's seed rule

    def to_spec(self) -> AggregateSpec:
        v = {statistic: getattr(self, name)
             for statistic, name in _SPEC_FIELDS.items()}
        schema = atc_schema()
        return AggregateSpec(
            schema=schema,
            n=v["n"],
            class_fraction=v["class_fraction"],
            binary={f: BinaryStat(v[f"odds_ratio[{f}]"],
                                  v[f"occurrence_fraction[{f}]"])
                    for f in schema.binary_feature_names},
            continuous={f: ContinuousStat(v[f"mean[{f}]"], v[f"stddev[{f}]"])
                        for f in schema.continuous_feature_names},
        )


# Each AggregateSpec statistic, named as the spec names it, and the
# GroundTruthConfig field that sets it.
_SPEC_FIELDS = {
    "n": "n",
    "class_fraction": "doa_fraction",
    "odds_ratio[Gender]": "gender_or",
    "occurrence_fraction[Gender]": "gender_fraction",
    "odds_ratio[PT]": "pt_or",
    "occurrence_fraction[PT]": "pt_fraction",
    "odds_ratio[PTT]": "ptt_or",
    "occurrence_fraction[PTT]": "ptt_fraction",
    "odds_ratio[Platelet]": "plate_or",
    "occurrence_fraction[Platelet]": "plate_fraction",
    "mean[Age]": "age_mean",
    "stddev[Age]": "age_sd",
}


# (gender_or, gender_fraction, pt_or, pt_fraction, ptt_or, ptt_fraction,
#  plate_or, plate_fraction, doa_fraction) for configs 1..10.
_BUILTIN_ROWS = [
    (2, 0.6, 4, 0.3, 6, 0.2, 8, 0.1, 0.1),
    (6, 0.7, 2, 0.2, 4, 0.1, 6, 0.3, 0.1),
    (8, 0.8, 8, 0.1, 2, 0.3, 4, 0.4, 0.2),
    (10, 0.9, 8, 0.2, 4, 0.4, 2, 0.5, 0.2),
    (10, 0.6, 4, 0.1, 2, 0.2, 6, 0.5, 0.3),
    (4, 0.5, 2, 0.3, 6, 0.1, 8, 0.2, 0.3),
    (2, 0.5, 6, 0.3, 8, 0.2, 10, 0.1, 0.4),
    (6, 0.5, 4, 0.2, 8, 0.1, 10, 0.5, 0.4),
    (8, 0.5, 2, 0.4, 10, 0.3, 10, 0.4, 0.45),
    (10, 0.5, 6, 0.4, 10, 0.3, 10, 0.3, 0.49),
]


def builtin_configs(n: int = DEFAULT_N) -> list[GroundTruthConfig]:
    """The ten builtin parameter configurations; seed = 1-based config index."""
    return [GroundTruthConfig(*row, n=n, seed=i + 1)
            for i, row in enumerate(_BUILTIN_ROWS)]


def generate_ground_truth(config: GroundTruthConfig) -> Dataset:
    """Synthesize one ground-truth dataset from its parameter config."""
    return reconstruct(config.to_spec(), config.seed)


def configs_to_json(configs: list[GroundTruthConfig], path: str | Path) -> None:
    write_json([asdict(c) for c in configs], path)


def configs_from_json(path: str | Path) -> list[GroundTruthConfig]:
    """configs_to_json's list, or one config object. An entry that is not an
    object, lacks a field, has an unknown one or holds a value its field
    refuses raises ValueError naming it."""
    def config(i: int, d: dict) -> GroundTruthConfig:
        for f in fields(GroundTruthConfig):
            if f.default is MISSING:
                require(d, f.name, f"config {i}")
        if unknown := set(d) - {f.name for f in fields(GroundTruthConfig)}:
            raise ValueError(f"unknown keys {sorted(unknown)} in config {i}")
        try:
            return GroundTruthConfig(**d)
        except ValueError as e:
            raise ValueError(f"config {i}: {e}") from None

    return read_json(path, lambda data: [config(i, d) for i, d in enumerate(
        data if type(data) is list else [data])])


def with_overrides(config: GroundTruthConfig, **kwargs) -> GroundTruthConfig:
    """Copy of a config with some fields replaced (controlled sweeps)."""
    return replace(config, **kwargs)
