import json

import numpy as np
import pytest

from ecoinfer.aggregate import summarize
from ecoinfer.cli import main
from ecoinfer.forest import ForestParams
from ecoinfer.pipeline import (ExperimentPlan, StageError, default_workers,
                               run_controlled_sweep, run_experiment,
                               run_undersampling_sweep)
from ecoinfer.reconstruct import load_candidates
from ecoinfer.synth import (builtin_configs, generate_ground_truth,
                            with_overrides)


def small_plan(**overrides):
    defaults = dict(
        config=with_overrides(builtin_configs()[0], n=600),
        n_candidates=3, delta=0.05,
        forest=ForestParams(n_trees=5, max_depth=4, seed=100),
        base_seed=50, workers=1)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestRunExperiment:
    def test_smoke_report_shape(self):
        report = run_experiment(small_plan())
        assert report.n_candidates == 3
        assert len(report.similarity_binary) == 3
        assert len(report.similarity_all) == 3
        assert len(report.exact_match) == 3
        assert len(report.per_candidate_metrics) == 3
        for vals in (report.similarity_binary, report.similarity_all,
                     report.exact_match):
            assert all(0.0 <= v <= 1.0 for v in vals)
        m = report.ensemble_metrics
        assert 0.0 <= m["accuracy"] <= 1.0
        assert 0.0 <= m["recall"] <= 1.0
        stats = report.similarity_stats
        assert stats["min"] <= stats["avg"] <= stats["max"]

    def test_output_files(self, tmp_path):
        out = tmp_path / "exp"
        run_experiment(small_plan(out_dir=out))
        for name in ("report.json", "fig4_similarity.csv", "fig5_metrics.csv",
                     "predictions.csv", "timings.json", "ground_truth.csv"):
            assert (out / name).exists()
        assert (out / "candidates" / "candidate_0.csv").exists()

    def test_rate_one_equals_no_undersampling(self):
        a = run_experiment(small_plan()).to_dict()
        b = run_experiment(small_plan(undersample_rate=1.0)).to_dict()
        a.pop("undersample_rate"), b.pop("undersample_rate")
        assert a == b

    def test_undersampling_changes_training_only(self):
        full = run_experiment(small_plan())
        under = run_experiment(small_plan(undersample_rate=0.3))
        # candidate generation is shared logic, so similarity is unchanged
        assert under.similarity_binary == full.similarity_binary
        assert under.exact_match == full.exact_match

    def test_worker_count_does_not_change_report(self, tmp_path):
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        run_experiment(small_plan(out_dir=out1, workers=1))
        run_experiment(small_plan(out_dir=out2, workers=2))
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_predictions_csv_consistent_with_report(self, tmp_path):
        out = tmp_path / "exp"
        report = run_experiment(small_plan(out_dir=out))
        rows = (out / "predictions.csv").read_text().strip().splitlines()
        mat = np.array([[int(v) for v in r.split(",")] for r in rows[1:]])
        preds, ens, truth = mat[:, :-2], mat[:, -2], mat[:, -1]
        # the stored ensemble column is the majority vote with ties to 0
        pos = (preds == 0).sum(axis=1)
        assert (np.where(2 * pos >= preds.shape[1], 0, 1) == ens).all()
        assert float((ens == truth).mean()) == pytest.approx(
            report.ensemble_metrics["accuracy"])

    def test_spec_only_plan_skips_evaluation(self):
        truth = generate_ground_truth(with_overrides(builtin_configs()[0],
                                                     n=400))
        report = run_experiment(small_plan(config=None, spec=summarize(truth)))
        assert report.similarity_binary == []
        assert report.per_candidate_metrics == []
        assert report.ensemble_metrics is None

    def test_candidate_stage_failure_is_tagged(self):
        plan = small_plan(delta=0.99, max_attempts=5)
        with pytest.raises(StageError) as err:
            run_experiment(plan)
        assert err.value.stage == "candidates"

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan()
        with pytest.raises(ValueError, match="exactly one"):
            small_plan(spec=summarize(generate_ground_truth(
                small_plan().config)))
        with pytest.raises(ValueError):
            small_plan(n_candidates=0)
        with pytest.raises(ValueError):
            small_plan(rates=[])


class TestDefaultWorkers:
    def test_unset_is_one(self, monkeypatch):
        monkeypatch.delenv("ECOINFER_WORKERS", raising=False)
        assert default_workers() == 1

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("ECOINFER_WORKERS", "2")
        assert default_workers() == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_value_rejected(self, monkeypatch, value):
        monkeypatch.setenv("ECOINFER_WORKERS", value)
        with pytest.raises(ValueError) as err:
            default_workers()
        assert "ECOINFER_WORKERS" in str(err.value)
        assert repr(value) in str(err.value)


class TestSweeps:
    def test_undersampling_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        plan = small_plan(rates=[1.0, 0.5], out_dir=out)
        reports = run_undersampling_sweep(plan)
        assert [r.undersample_rate for r in reports] == [1.0, 0.5]
        # candidates are generated once and shared across rates
        assert len({r.attempts_used for r in reports}) == 1
        csv = (out / "fig6_undersampling.csv").read_text().splitlines()
        assert csv[0] == "rate,accuracy,precision,recall"
        assert len(csv) == 3

    def test_controlled_sweep(self, tmp_path):
        out = tmp_path / "ctrl"
        base = with_overrides(builtin_configs()[0], n=500)
        plan = small_plan(out_dir=out)
        reports = run_controlled_sweep(base, "doa_fraction", [0.1, 0.3], plan)
        assert [r.config["doa_fraction"] for r in reports] == [0.1, 0.3]
        assert (out / "controlled_doa_fraction.csv").exists()
        assert (out / "doa_fraction_0.1" / "report.json").exists()

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            run_controlled_sweep(builtin_configs()[0], "age_mean", [30],
                                 small_plan())


class TestCli:
    def test_full_chain(self, tmp_path):
        gt = tmp_path / "gt.csv"
        spec = tmp_path / "spec.json"
        cands = tmp_path / "cands"
        model = tmp_path / "model.json"

        assert main(["synth", "--builtin", "1", "--n", "400",
                     "--out", str(gt)]) == 0
        assert gt.exists()

        assert main(["summarize", str(gt), "--out", str(spec)]) == 0
        assert json.loads(spec.read_text())["n"] == 400

        assert main(["reconstruct", str(spec), "--candidates", "2",
                     "--delta", "0.0", "--out", str(cands)]) == 0
        c0 = cands / "candidate_0.csv"
        assert c0.exists()

        sim_out = tmp_path / "sim.json"
        assert main(["similarity", str(gt), str(c0), "--method", "greedy",
                     "--out", str(sim_out)]) == 0
        sim = json.loads(sim_out.read_text())
        assert 0.0 <= sim["similarity"] <= 1.0

        assert main(["train", str(c0), str(cands / "candidate_1.csv"),
                     "--trees", "3", "--out", str(model)]) == 0

        preds = tmp_path / "preds.csv"
        assert main(["predict", str(model), str(gt), "--truth",
                     "--out", str(preds)]) == 0
        lines = preds.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 401

    def test_experiment_command(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--builtin", "1", "--n", "400",
                     "--candidates", "2", "--delta", "0.0", "--trees", "3",
                     "--depth", "4", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_candidates"] == 2

    def test_experiment_spec_with_truth_uses_the_spec(self, tmp_path):
        # the truth has 40 dead rows of 400; the spec asks for 120
        gt, spec, out = tmp_path / "gt.csv", tmp_path / "spec.json", \
            tmp_path / "exp"
        assert main(["synth", "--builtin", "1", "--n", "400",
                     "--out", str(gt)]) == 0
        assert main(["summarize", str(gt), "--out", str(spec)]) == 0
        spec.write_text(spec.read_text().replace(
            '"class_fraction": 0.1,', '"class_fraction": 0.3,'))
        assert main(["experiment", "--spec", str(spec), "--truth", str(gt),
                     "--candidates", "2", "--delta", "0.0", "--trees", "3",
                     "--depth", "4", "--out", str(out)]) == 0
        candidates = load_candidates(out / "candidates").candidates
        assert [int((c.outcome == 0).sum()) for c in candidates] == [120, 120]
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_candidate_metrics"]) == 2

    def test_experiment_repeats(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--builtin", "1", "--n", "400",
                     "--candidates", "2", "--delta", "0.0", "--trees", "3",
                     "--depth", "4", "--repeats", "2", "--out", str(out)]) == 0
        assert (out / "rep_0" / "report.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["repeats"] == 2
        assert len(summary["ensemble_metrics"]) == 2
        report = json.loads((out / "rep_1" / "report.json").read_text())
        assert report["seeds"]["base_seed"] == 2000 + 7919

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--builtin", "1", "--n", "400",
                     "--rates", "1.0", "0.5", "--candidates", "2",
                     "--delta", "0.0", "--trees", "3", "--depth", "4",
                     "--out", str(out)]) == 0
        assert (out / "fig6_undersampling.csv").exists()

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code = main(["summarize", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unreachable_delta_exit_code(self, tmp_path, capsys):
        code = main(["experiment", "--builtin", "1", "--n", "200",
                     "--candidates", "3", "--delta", "0.99", "--trees", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "candidates" in capsys.readouterr().err
