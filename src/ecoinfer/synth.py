"""Ground-truth generation for evaluation: the ten builtin trauma-mortality
parameter configurations, plus arbitrary user configs.

Ground truth is produced by the same reconstruction engine fed with target
parameters, so a "ground truth" dataset is simply a reconstruction with a
known seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace
from pathlib import Path

from .aggregate import AggregateSpec, BinaryStat, ContinuousStat
from .reconstruct import reconstruct
from .tabular import BINARY, CONTINUOUS, Dataset, FeatureSpec, Schema

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
        self.to_spec()  # the spec checks every statistic and n

    def to_spec(self) -> AggregateSpec:
        return AggregateSpec(
            schema=atc_schema(),
            n=self.n,
            class_fraction=self.doa_fraction,
            binary={
                "Gender": BinaryStat(self.gender_or, self.gender_fraction),
                "PT": BinaryStat(self.pt_or, self.pt_fraction),
                "PTT": BinaryStat(self.ptt_or, self.ptt_fraction),
                "Platelet": BinaryStat(self.plate_or, self.plate_fraction),
            },
            continuous={"Age": ContinuousStat(self.age_mean, self.age_sd)},
        )


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(c) for c in configs], fh, indent=2, sort_keys=True)
        fh.write("\n")


def configs_from_json(path: str | Path) -> list[GroundTruthConfig]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    return [GroundTruthConfig(**d) for d in data]


def with_overrides(config: GroundTruthConfig, **kwargs) -> GroundTruthConfig:
    """Copy of a config with some fields replaced (controlled sweeps)."""
    return replace(config, **kwargs)
