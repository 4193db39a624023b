"""Golden outputs: SHA-256 of the files small experiments write.

Any change to candidates, trees, votes or the CSV/JSON writers moves a
hash. numpy does not promise that ``Generator`` streams stay the same
across versions, so the hashes are keyed by numpy major version and the
test skips on a version with none recorded. Print the hashes of the
installed version with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import pprint
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecoinfer.forest import (EnsembleModel, ForestParams, save_ensemble,
                             train_forest)
from ecoinfer.pipeline import ExperimentPlan, run_experiment
from ecoinfer.reconstruct import load_candidates
from ecoinfer.synth import builtin_configs

# case -> (builtin config number, undersample rate)
CASES = {
    "config1": (1, None),
    "config10": (10, None),
    "config1-undersample0.5": (1, 0.5),
}
PIPELINE_FILES = ("report.json", "predictions.csv", "fig4_similarity.csv",
                  "fig5_metrics.csv")

GOLDEN = {
    2: {
        "config1": {
            "report.json": "b9234a3e20241d6b2c1c5c7f5dd0628167490778f1349553a04a63f9aa7fa04f",
            "predictions.csv": "043b04e08c1aefc6b2ca3d523575138ee0243fdbd121da23065c2bb1aa82c552",
            "fig4_similarity.csv": "60b61f6382af1686b8b4706735d3cdce0158d43f3f7d2c9ad24fd6fd22be8d90",
            "fig5_metrics.csv": "4a231bb8b737ac3e56fdf28a98edf96e3cdeefcef614d85feca611a0e0f3a969",
            "model.json": "e33e2e90b33cd321f067e98914a93f7229afda7e7b4bfbe4c57996a0edc69fa3",
        },
        "config10": {
            "report.json": "7d90368cf5c64bf19b37fae6c3cbd73eb85e4e8e1743b8f9550bee27227b4c46",
            "predictions.csv": "11e213a575682a8b55f29391756dbab6868838f17d54d3920391adea81b413e5",
            "fig4_similarity.csv": "56ee158ccb15d78b245eabf77c9a18e7abd618f99931d2caa2e69984408891a1",
            "fig5_metrics.csv": "942df1dbe35ec7b329c971522c1974937aed44f3ad1984bb7b9ad2a695f417ab",
            "model.json": "1f5a4e1e7013a6790b51499dc99e362b99db58ba7fe8095b6409d81fe7476b09",
        },
        "config1-undersample0.5": {
            "report.json": "75aa1151befa5a2132fa89dfe538f5caa42e3be3e19a3e0fd1043fc35920964d",
            "predictions.csv": "b10220a4899f1908000bde7eb4d982767d6c734203e414d1742a1bd1d4d2962d",
            "fig4_similarity.csv": "60b61f6382af1686b8b4706735d3cdce0158d43f3f7d2c9ad24fd6fd22be8d90",
            "fig5_metrics.csv": "7b8f3ea163bd69c2784b2634183864347bb485046aed36860ebbfbe27ad9ebc5",
        },
    },
}


def case_hashes(case: str, out: Path) -> dict[str, str]:
    """Run one case into ``out`` and hash its files. Cases without
    undersampling also save the candidates' forests as ``model.json``."""
    config, rate = CASES[case]
    plan = ExperimentPlan(config=builtin_configs(n=2000)[config - 1],
                          n_candidates=3, forest=ForestParams(n_trees=10),
                          undersample_rate=rate, out_dir=out, workers=1)
    run_experiment(plan)
    names = list(PIPELINE_FILES)
    if rate is None:
        candidates = load_candidates(out / "candidates").candidates
        models = [train_forest(c, replace(plan.forest,
                                          seed=plan.forest.seed + k))
                  for k, c in enumerate(candidates)]
        save_ensemble(EnsembleModel(models=models), out / "model.json")
        names.append("model.json")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def numpy_major() -> int:
    return int(np.__version__.split(".")[0])


@pytest.mark.parametrize("case", list(CASES))
def test_golden_hashes(case, tmp_path):
    expected = GOLDEN.get(numpy_major())
    if expected is None:
        pytest.skip(f"no golden hashes recorded for numpy {np.__version__}")
    assert case_hashes(case, tmp_path) == expected[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({numpy_major(): {case: case_hashes(case, Path(tmp) / case)
                                       for case in CASES}}, width=100)
