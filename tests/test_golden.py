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

from ecoinfer import cli
from ecoinfer.forest import ForestParams, save_ensemble, train_forest
from ecoinfer.pipeline import (ExperimentPlan, run_controlled_sweep,
                               run_experiment, run_undersampling_sweep)
from ecoinfer.reconstruct import load_candidates
from ecoinfer.synth import builtin_configs

# case -> (builtin config number, undersample rate)
CASES = {
    "config1": (1, None),
    "config10": (10, None),
    "config1-undersample0.5": (1, 0.5),
}
PIPELINE_FILES = ("report.json", "predictions.csv", "fig4_similarity.csv",
                  "fig5_metrics.csv", "candidates/manifest.json",
                  "candidates/spec.json")
# The sweeps' summary CSVs: config 1 at the cases' size, these rates, and
# this parameter at these values.
SWEEP_RATES = [0.5, 1.0]
SWEEP_PARAMETER, SWEEP_VALUES = "doa_fraction", [0.1, 0.2]

GOLDEN = {
    2: {
        "config1": {
            "report.json": "b9234a3e20241d6b2c1c5c7f5dd0628167490778f1349553a04a63f9aa7fa04f",
            "predictions.csv": "043b04e08c1aefc6b2ca3d523575138ee0243fdbd121da23065c2bb1aa82c552",
            "fig4_similarity.csv": "60b61f6382af1686b8b4706735d3cdce0158d43f3f7d2c9ad24fd6fd22be8d90",
            "fig5_metrics.csv": "4a231bb8b737ac3e56fdf28a98edf96e3cdeefcef614d85feca611a0e0f3a969",
            "candidates/manifest.json": "56757b8d8b9b4151ef1cd70352c836291c207fe2ac250cb4396e95f342164cb8",
            "candidates/spec.json": "f38fd085fc82101effa09fd9f38ebd32c8781c2d4da3c4fe420e1760a58eb043",
            "model.json": "d2089719c36b302b67113e0a7bcfbeecbd5d0d16aa91d2a5aeae4431de323fcb",
            "cli_predictions.csv": "6316d9221dc5d3c3135a61140fae6bd28bfdc6a698656becc8423d0d094a531b",
        },
        "config10": {
            "report.json": "7d90368cf5c64bf19b37fae6c3cbd73eb85e4e8e1743b8f9550bee27227b4c46",
            "predictions.csv": "11e213a575682a8b55f29391756dbab6868838f17d54d3920391adea81b413e5",
            "fig4_similarity.csv": "56ee158ccb15d78b245eabf77c9a18e7abd618f99931d2caa2e69984408891a1",
            "fig5_metrics.csv": "942df1dbe35ec7b329c971522c1974937aed44f3ad1984bb7b9ad2a695f417ab",
            "candidates/manifest.json": "56757b8d8b9b4151ef1cd70352c836291c207fe2ac250cb4396e95f342164cb8",
            "candidates/spec.json": "fcc8b0ea525710653620c83921117de635a7c806195d769bf10c8f2d8e6822d6",
            "model.json": "278c350208743c9d798006e41b84700bbeec44e53db8b998e6f0edadc5b9a02b",
            "cli_predictions.csv": "a0b3a2b70def3abc76f875bbba87a8f8521ce7722a4930d46b44f475b1d06da6",
        },
        "config1-undersample0.5": {
            "report.json": "75aa1151befa5a2132fa89dfe538f5caa42e3be3e19a3e0fd1043fc35920964d",
            "predictions.csv": "b10220a4899f1908000bde7eb4d982767d6c734203e414d1742a1bd1d4d2962d",
            "fig4_similarity.csv": "60b61f6382af1686b8b4706735d3cdce0158d43f3f7d2c9ad24fd6fd22be8d90",
            "fig5_metrics.csv": "7b8f3ea163bd69c2784b2634183864347bb485046aed36860ebbfbe27ad9ebc5",
            "candidates/manifest.json": "56757b8d8b9b4151ef1cd70352c836291c207fe2ac250cb4396e95f342164cb8",
            "candidates/spec.json": "f38fd085fc82101effa09fd9f38ebd32c8781c2d4da3c4fe420e1760a58eb043",
        },
        "sweeps": {
            "fig6_undersampling.csv": "56eca1558879b68cb709c7c42e0fb36ccc74ffbf124ece99bebadcb6adac8ccd",
            "controlled_doa_fraction.csv": "3ba67fe89d4f3156aa3f9b1282edc1eabad4a2e4678f6deefb5a52ff30b17801",
        },
    },
}


def small_plan(config: int, out: Path, rate=None) -> ExperimentPlan:
    return ExperimentPlan(config=builtin_configs(n=2000)[config - 1],
                          n_candidates=3, forest=ForestParams(n_trees=10),
                          undersample_rate=rate, out_dir=out, workers=1)


def hashes(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def case_hashes(case: str, out: Path) -> dict[str, str]:
    """Run one case into ``out`` and hash its files. Cases without
    undersampling also save the candidates' forests as ``model.json`` and
    write its labels of the ground truth with ``ecoinfer predict --out``."""
    config, rate = CASES[case]
    plan = small_plan(config, out, rate)
    run_experiment(plan)
    names = list(PIPELINE_FILES)
    if rate is None:
        candidates = load_candidates(out / "candidates").candidates
        models = [train_forest(c, replace(plan.forest,
                                          seed=plan.forest.seed + k))
                  for k, c in enumerate(candidates)]
        save_ensemble(models, out / "model.json")
        assert cli.main(["predict", str(out / "model.json"),
                         str(out / "ground_truth.csv"), "--out",
                         str(out / "cli_predictions.csv")]) == 0
        names += ["model.json", "cli_predictions.csv"]
    return hashes(out, names)


def sweep_hashes(out: Path) -> dict[str, str]:
    """Run both sweeps on config 1 into ``out`` and hash their CSVs."""
    run_undersampling_sweep(small_plan(1, out), SWEEP_RATES)
    run_controlled_sweep(small_plan(1, out), SWEEP_PARAMETER, SWEEP_VALUES)
    return hashes(out, ["fig6_undersampling.csv",
                        f"controlled_{SWEEP_PARAMETER}.csv"])


def cli_train_hash(out: Path) -> str:
    """Hash of the model `ecoinfer train` writes from the candidate CSVs
    case_hashes saved, with the forest settings it trained model.json with."""
    paths = sorted(map(str, (out / "candidates").glob("candidate_*.csv")))
    model = out / "cli_model.json"
    assert cli.main(["train", *paths, "--trees", "10", "--depth", "8",
                     "--seed", "0", "--out", str(model)]) == 0
    return hashlib.sha256(model.read_bytes()).hexdigest()


def numpy_major() -> int:
    return int(np.__version__.split(".")[0])


@pytest.mark.parametrize("case", list(CASES))
def test_golden_hashes(case, tmp_path):
    expected = GOLDEN.get(numpy_major())
    if expected is None:
        pytest.skip(f"no golden hashes recorded for numpy {np.__version__}")
    assert case_hashes(case, tmp_path) == expected[case]
    if "model.json" in expected[case]:
        # CSV read -> Dataset -> train_ensemble, through the CLI
        assert cli_train_hash(tmp_path) == expected[case]["model.json"]


def test_golden_sweep_hashes(tmp_path):
    expected = GOLDEN.get(numpy_major())
    if expected is None:
        pytest.skip(f"no golden hashes recorded for numpy {np.__version__}")
    assert sweep_hashes(tmp_path) == expected["sweeps"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = {case: case_hashes(case, Path(tmp) / case) for case in CASES}
        found["sweeps"] = sweep_hashes(Path(tmp) / "sweeps")
        pprint.pprint({numpy_major(): found}, width=100)
