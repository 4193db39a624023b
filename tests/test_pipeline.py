import inspect
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from ecoinfer.aggregate import AggregateSpec, summarize
from ecoinfer.cli import build_parser, main
from ecoinfer.forest import (ForestParams, RandomForest, load_ensemble,
                             save_ensemble, train_ensemble)
from ecoinfer.pipeline import (SWEEPABLE, ExperimentPlan, StageError,
                               run_controlled_sweep, run_experiment,
                               run_undersampling_sweep)
from ecoinfer.reconstruct import (generate_candidates, load_candidates,
                                  save_candidates)
from ecoinfer.similarity import GREEDY_RANK, match_rows
from ecoinfer.synth import (GroundTruthConfig, builtin_configs,
                            configs_from_json, configs_to_json,
                            generate_ground_truth, with_overrides)
from ecoinfer.tabular import Dataset, SchemaError, sidecar_path

from conftest import dataset_from_rows, small_schema

SMALL_RUN = ["--n", "200", "--candidates", "2", "--delta", "0.0",
             "--trees", "2", "--depth", "2"]


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

    def test_each_distinct_truth_row_predicted_once(self, monkeypatch):
        plan = small_plan()
        truth = generate_ground_truth(plan.config)
        distinct = len(np.unique(truth.to_matrix(truth.schema.feature_names),
                                 axis=0))
        predict, sizes = RandomForest.predict, []
        def counted(forest, X):
            sizes.append(len(X))
            return predict(forest, X)
        monkeypatch.setattr(RandomForest, "predict", counted)
        run_experiment(plan)
        assert sizes == [distinct] * 3 and distinct < truth.n_rows

    @pytest.mark.parametrize("config", [1, 10])
    def test_binary_similarity_is_the_public_matcher(self, tmp_path, config):
        cfg = with_overrides(builtin_configs()[config - 1], n=2000)
        out = tmp_path / "exp"
        report = run_experiment(small_plan(
            config=cfg, n_candidates=9, delta=0.15, out_dir=out,
            forest=ForestParams(n_trees=1, max_depth=2, seed=100)))
        truth = generate_ground_truth(cfg)
        binary = truth.schema.binary_columns()
        cands = load_candidates(out / "candidates").candidates
        assert report.similarity_binary == [
            1 - match_rows(truth, c, GREEDY_RANK, binary).average_distance
            for c in cands]

    def test_spec_only_plan_skips_evaluation(self):
        truth = generate_ground_truth(with_overrides(builtin_configs()[0],
                                                     n=400))
        report = run_experiment(small_plan(config=None, spec=summarize(truth)))
        assert report.similarity_binary == []
        assert report.per_candidate_metrics == []
        assert report.ensemble_metrics is None
        assert report.to_dict()["similarity_stats"] == {}

    def test_numpy_integers_write_the_same_report(self, tmp_path):
        # every count and seed the checks let in is also written as JSON
        def run(number):
            cfg = with_overrides(builtin_configs()[0], n=number(200),
                                 seed=number(1))
            out = tmp_path / number.__name__
            run_experiment(small_plan(
                config=cfg, n_candidates=2, base_seed=number(5),
                forest=ForestParams(n_trees=2, max_depth=3, seed=number(3)),
                out_dir=out))
            return out

        plain, numpy = run(int), run(np.int64)
        for name in ("report.json", "ground_truth.csv.schema.json",
                     "candidates/manifest.json", "candidates/spec.json"):
            assert (plain / name).read_bytes() == (numpy / name).read_bytes()

    def test_candidate_stage_failure_is_tagged(self):
        with pytest.raises(StageError) as err:
            run_experiment(small_plan(delta=0.99))
        assert err.value.stage == "candidates"

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan()
        with pytest.raises(ValueError, match="exactly one"):
            small_plan(spec=summarize(generate_ground_truth(
                small_plan().config)))
        with pytest.raises(ValueError):
            small_plan(n_candidates=0)
        with pytest.raises(ValueError, match="ground_truth"):
            small_plan(ground_truth=generate_ground_truth(small_plan().config))

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_n_candidates_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"n_candidates must be an integer, got {value!r}")):
            small_plan(n_candidates=value)

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_undersample_rate_checked_by_the_plan(self, rate):
        with pytest.raises(ValueError, match="undersample_rate must be in"):
            small_plan(undersample_rate=rate)

    def test_one_worker_by_default(self, monkeypatch):
        # ECOINFER_WORKERS is no longer read
        monkeypatch.setenv("ECOINFER_WORKERS", "abc")
        assert ExperimentPlan(config=builtin_configs()[0]).workers == 1
        args = build_parser().parse_args(["experiment", "--builtin", "1",
                                          "--out", "x"])
        assert args.workers == ExperimentPlan.workers == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, "
                                             f"got {workers}"):
            small_plan(workers=workers)


class TestSweeps:
    def test_undersampling_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        reports = run_undersampling_sweep(small_plan(out_dir=out), [1.0, 0.5])
        assert [r.undersample_rate for r in reports] == [1.0, 0.5]
        # candidates are generated once and shared across rates
        assert len({r.attempts_used for r in reports}) == 1
        csv = (out / "fig6_undersampling.csv").read_text().splitlines()
        assert csv[0] == "rate,accuracy,precision,recall"
        assert len(csv) == 3

    def test_controlled_sweep(self, tmp_path):
        out = tmp_path / "ctrl"
        base = with_overrides(builtin_configs()[0], n=500)
        plan = small_plan(config=base, out_dir=out)
        reports = run_controlled_sweep(plan, "doa_fraction", [0.1, 0.3])
        assert [r.config["doa_fraction"] for r in reports] == [0.1, 0.3]
        assert [r.config["n"] for r in reports] == [500, 500]
        assert (out / "controlled_doa_fraction.csv").exists()
        assert (out / "doa_fraction_0.1" / "report.json").exists()

    def test_sweepable_are_the_config_statistics(self):
        # the nine arguments a GroundTruthConfig cannot be made without,
        # in order, so `sweep --parameter` keeps its choices
        required = [p.name for p in inspect.signature(
            GroundTruthConfig).parameters.values()
            if p.default is inspect.Parameter.empty]
        assert list(SWEEPABLE) == required == [
            "gender_or", "gender_fraction", "pt_or", "pt_fraction",
            "ptt_or", "ptt_fraction", "plate_or", "plate_fraction",
            "doa_fraction"]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            run_controlled_sweep(small_plan(), "age_mean", [30])

    def test_controlled_sweep_needs_a_config(self):
        spec = summarize(generate_ground_truth(small_plan().config))
        with pytest.raises(ValueError, match="config"):
            run_controlled_sweep(small_plan(config=None, spec=spec),
                                 "doa_fraction", [0.1])

    def test_undersampling_sweep_needs_rates(self):
        with pytest.raises(ValueError, match="rate"):
            run_undersampling_sweep(small_plan(), [])

    @pytest.mark.parametrize("sweep, says", [
        (lambda plan: run_undersampling_sweep(plan, [0.55, 0.550000001]),
         "two rates share the label '0.55'"),
        (lambda plan: run_controlled_sweep(plan, "pt_or", [4, 2, 4.0000001]),
         "two pt_or values share the label '4'"),
        (lambda plan: run_controlled_sweep(plan, "pt_or", []),
         "a sweep needs at least one pt_or value"),
    ], ids=["undersampling-label", "controlled-label", "controlled-empty"])
    def test_sweep_refused_before_it_runs(self, tmp_path, sweep, says):
        # each label names a report directory and a CSV row
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match=re.escape(says) + "$"):
            sweep(small_plan(out_dir=out))
        assert not out.exists()

    def test_undersampling_sweep_checks_every_rate_first(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="got 1.5"):
            run_undersampling_sweep(small_plan(out_dir=out), [0.5, 1.5])
        assert not out.exists()


# (command, path to the deleted key, what the error says): reconstruct
# reads a spec JSON, summarize a CSV's schema sidecar
MISSING_KEYS = [
    ("reconstruct", ("n",), "missing key 'n' in the spec"),
    ("reconstruct", ("class_fraction",),
     "missing key 'class_fraction' in the spec"),
    ("reconstruct", ("schema",), "missing key 'schema' in the spec"),
    ("reconstruct", ("features",), "missing key 'features' in the spec"),
    ("reconstruct", ("features", 0, "name"),
     "missing key 'name' in feature {'kind': 'binary'"),
    ("reconstruct", ("features", 1, "odds_ratio"),
     "missing key 'odds_ratio' in feature 'PT'"),
    ("reconstruct", ("features", 1, "occurrence_fraction"),
     "missing key 'occurrence_fraction' in feature 'PT'"),
    ("reconstruct", ("features", 4, "mean"),
     "missing key 'mean' in feature 'Age'"),
    ("reconstruct", ("features", 4, "stddev"),
     "missing key 'stddev' in feature 'Age'"),
    ("reconstruct", ("schema", "outcome"),
     "missing key 'outcome' in the schema"),
    ("reconstruct", ("schema", "features", 2, "name"),
     "missing key 'name' in feature {'kind': 'binary'"),
    ("summarize", ("schema",), "missing key 'schema'"),
    ("summarize", ("schema", "features"),
     "missing key 'features' in the schema"),
    ("summarize", ("schema", "outcome"),
     "missing key 'outcome' in the schema"),
    ("summarize", ("schema", "features", 0, "name"),
     "missing key 'name' in feature {'kind': 'binary'"),
]


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

    def test_experiment_uses_the_configs_own_seed(self, tmp_path):
        # --seed is the candidate base seed; the truth keeps config 2's
        # seed, 2, so the CLI and the library evaluate the same truth
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        assert main(["experiment", "--builtin", "2", "--n", "400",
                     "--candidates", "2", "--delta", "0.0", "--trees", "3",
                     "--depth", "4", "--out", str(cli_out)]) == 0
        run_experiment(ExperimentPlan(
            config=with_overrides(builtin_configs()[1], n=400),
            n_candidates=2, delta=0.0,
            forest=ForestParams(n_trees=3, max_depth=4, seed=2001),
            out_dir=lib_out))
        report = (cli_out / "report.json").read_bytes()
        assert report == (lib_out / "report.json").read_bytes()
        assert json.loads(report)["seeds"]["truth_seed"] == 2

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
        assert report["seeds"]["truth_seed"] == 1

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--builtin", "1", "--n", "400",
                     "--rates", "1.0", "0.5", "--candidates", "2",
                     "--delta", "0.0", "--trees", "3", "--depth", "4",
                     "--out", str(out)]) == 0
        assert (out / "fig6_undersampling.csv").exists()

    @pytest.mark.parametrize("flags", [["--rates", "1.0", "--values", "0.1"],
                                       ["--parameter", "doa_fraction"]])
    def test_sweep_values_go_with_parameter(self, tmp_path, capsys, flags):
        code = main(["sweep", "--builtin", "1", *SMALL_RUN, *flags,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--values" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        [], ["--rates", "1.0", "--parameter", "doa_fraction",
             "--values", "0.1"]])
    def test_sweep_needs_rates_or_parameter(self, tmp_path, flags):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--builtin", "1", *SMALL_RUN, *flags,
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_similarity_features_needs_a_name(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        dataset_from_rows(small_schema(1), [[0, 0], [1, 1]]).to_csv(path)
        with pytest.raises(SystemExit) as err:
            main(["similarity", str(path), str(path), "--features"])
        assert err.value.code == 2
        assert "--features: expected at least one argument" in \
            capsys.readouterr().err

    def test_experiment_truth_needs_a_spec(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        assert main(["synth", "--builtin", "2", "--n", "200",
                     "--out", str(gt)]) == 0
        code = main(["experiment", "--builtin", "1", *SMALL_RUN,
                     "--truth", str(gt), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "ground_truth" in capsys.readouterr().err

    @pytest.mark.parametrize("mismatch", ["size", "schema"])
    def test_experiment_truth_must_fit_the_spec(self, tmp_path, capsys,
                                                mismatch):
        gt, spec = tmp_path / "gt.csv", tmp_path / "spec.json"
        out = tmp_path / "x"
        assert main(["synth", "--builtin", "1", "--n", "200",
                     "--out", str(gt)]) == 0
        assert main(["summarize", str(gt), "--out", str(spec)]) == 0
        if mismatch == "size":
            assert main(["synth", "--builtin", "1", "--n", "300",
                         "--out", str(gt)]) == 0
        else:
            rows = np.arange(400).reshape(200, 2) % 2
            dataset_from_rows(small_schema(1), rows).to_csv(gt)
        capsys.readouterr()
        code = main(["experiment", "--spec", str(spec), "--truth", str(gt),
                     *SMALL_RUN[2:], "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == {
            "size": "error [experiment]: truth has 300 rows, spec 200\n",
            "schema": "error [experiment]: truth and spec have different "
                      "schemas\n"}[mismatch]
        assert not out.exists()

    def test_experiment_n_does_not_go_with_spec(self, tmp_path, capsys):
        gt, spec = tmp_path / "gt.csv", tmp_path / "spec.json"
        assert main(["synth", "--builtin", "1", "--n", "300",
                     "--out", str(gt)]) == 0
        assert main(["summarize", str(gt), "--out", str(spec)]) == 0
        capsys.readouterr()
        code = main(["experiment", "--spec", str(spec), "--n", "50",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--n" in err and "--spec" in err
        assert not (tmp_path / "x").exists()

    def test_experiment_n_zero_is_checked(self, tmp_path, capsys):
        code = main(["experiment", "--builtin", "1", "--n", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "n must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["1.5", "nan"])
    def test_experiment_delta_checked_before_writing(self, tmp_path, capsys,
                                                     delta):
        # it used to fail only at the candidate stage, exit 2
        out = tmp_path / "x"
        code = main(["experiment", "--builtin", "1", "--n", "200",
                     "--delta", delta, "--out", str(out)])
        assert code == 1
        assert f"delta must be in [0, 1), got {delta}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_builtin_index_is_checked(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["synth", "--builtin", "11", "--out", str(out)]) == 1
        assert "builtin config index must be 1..10" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_seed_replaces_the_configs(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["synth", "--builtin", "2", "--n", "300", "--seed", "7",
                     "--out", str(out)]) == 0
        cfg = with_overrides(builtin_configs()[1], n=300, seed=7)
        assert Dataset.from_csv(out) == generate_ground_truth(cfg)
        assert json.loads(sidecar_path(out).read_text())["seed"] == 7

    def test_experiment_seed_checked_before_writing(self, tmp_path, capsys):
        # named as given, not as the forest seed --seed + 1 it becomes
        out = tmp_path / "x"
        code = main(["experiment", "--builtin", "1", *SMALL_RUN,
                     "--seed", "-5", "--out", str(out)])
        assert code == 1
        assert "--seed must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_seed_checked_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["sweep", "--builtin", "1", *SMALL_RUN, "--rates", "1.0",
                     "--seed", "-5", "--out", str(out)])
        assert code == 1
        assert "--seed must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_seed_minus_one_is_refused(self, tmp_path, capsys):
        # its forest seed would be 0, but --seed itself must be >= 0
        out = tmp_path / "x"
        assert main(["experiment", "--builtin", "1", *SMALL_RUN,
                     "--seed", "-1", "--out", str(out)]) == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_train_seed_checked_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["train", str(missing), "--seed", "-1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_experiment_rate_checked_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["experiment", "--builtin", "1", "--n", "200",
                     "--rate", "1.5", "--out", str(out)])
        assert code == 1
        assert "undersample_rate" in capsys.readouterr().err
        assert not (out / "candidates").exists()
        assert not (out / "ground_truth.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_experiment_workers_must_be_positive(self, tmp_path, capsys,
                                                 workers):
        code = main(["experiment", "--builtin", "1", *SMALL_RUN,
                     "--workers", workers, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "workers" in capsys.readouterr().err

    def test_summarize_names_feature_of_undefined_odds_ratio(self, tmp_path,
                                                             capsys):
        # PTT: no row is feature-positive (0) and alive (1), so l2 = 0
        path = tmp_path / "zero.csv"
        dataset_from_rows(small_schema(1), [[0, 0], [1, 0], [1, 1],
                                            [1, 1]]).to_csv(path)
        code = main(["summarize", str(path), "--out",
                     str(tmp_path / "s.json")])
        assert code == 1
        assert "odds ratio of 'PTT' undefined" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad, says", [
        ("n", 200.7, "n must be an integer, got 200.7"),
        ("n", True, "n must be an integer, got True"),
        ("class_fraction", [0.3, 0.1], "class_fraction range must be"),
        ("class_fraction", "0.1",
         "class_fraction must be a real number, got '0.1'"),
    ], ids=["float-n", "bool-n", "reversed-range", "string-fraction"])
    def test_reconstruct_names_a_bad_spec_key(self, tmp_path, capsys, key,
                                              bad, says):
        spec = builtin_configs(n=200)[0].to_spec().to_dict()
        spec[key] = bad
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "cands"
        code = main(["reconstruct", str(path), "--candidates", "2",
                     "--out", str(out)])
        assert code == 1
        assert says in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, where, says", MISSING_KEYS,
        ids=[f"{c}-{'.'.join(map(str, w))}" for c, w, _ in MISSING_KEYS])
    def test_missing_key_is_named(self, tmp_path, capsys, command, where,
                                  says):
        if command == "reconstruct":
            path = edited = tmp_path / "spec.json"
            doc = builtin_configs(n=200)[0].to_spec().to_dict()
            says = f"error [reconstruct]: {edited}: {says}"
        else:
            path = tmp_path / "t.csv"
            dataset_from_rows(small_schema(1), [[0, 0], [1, 1], [0, 1],
                                                [1, 0]]).to_csv(path)
            edited = sidecar_path(path)
            doc = json.loads(edited.read_text())
            says = f"error [summarize]: {edited}: {says}"
        *parents, key = where
        entry = doc
        for p in parents:
            entry = entry[p]
        del entry[key]
        edited.write_text(json.dumps(doc))
        args = ["--candidates", "2"] if command == "reconstruct" else []
        code = main([command, str(path), *args, "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert says in capsys.readouterr().err

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code = main(["summarize", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_train_names_a_single_class_file(self, tmp_path, capsys):
        good, one = tmp_path / "t.csv", tmp_path / "one.csv"
        dataset_from_rows(small_schema(1), [[0, 0], [1, 1], [0, 1],
                                            [1, 0]]).to_csv(good)
        dataset_from_rows(small_schema(1), [[0, 1], [1, 1]]).to_csv(one)
        code = main(["train", str(good), str(one), str(good), "--trees", "2",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert (f"error [train]: {one}: dataset 1: training data contains a "
                "single outcome class") in capsys.readouterr().err

    def test_train_refuses_files_with_other_features(self, tmp_path, capsys):
        # the model it used to write could predict on neither file
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        model = tmp_path / "m.json"
        dataset_from_rows(small_schema(1), [[0, 0], [1, 1], [0, 1],
                                            [1, 0]]).to_csv(a)
        dataset_from_rows(small_schema(2), [[0, 0, 0], [1, 1, 1], [0, 1, 1],
                                            [1, 0, 0]]).to_csv(b)
        code = main(["train", str(a), str(b), "--trees", "2",
                     "--out", str(model)])
        assert code == 1
        assert (f"error [train]: {b}: dataset 1: features ['PTT', 'PT'] are "
                "not the ensemble's ['PTT']") in capsys.readouterr().err
        assert not model.exists()

    def test_summarize_says_a_file_has_no_rows(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        dataset_from_rows(small_schema(1), np.zeros((0, 2), dtype=int)
                          ).to_csv(path)
        code = main(["summarize", str(path), "--out",
                     str(tmp_path / "s.json")])
        assert code == 1
        assert "error [summarize]: dataset has no rows" in \
            capsys.readouterr().err

    def test_train_names_a_file_with_no_rows(self, tmp_path, capsys):
        good, empty = tmp_path / "t.csv", tmp_path / "empty.csv"
        dataset_from_rows(small_schema(1), [[0, 0], [1, 1], [0, 1],
                                            [1, 0]]).to_csv(good)
        dataset_from_rows(small_schema(1), np.zeros((0, 2), dtype=int)
                          ).to_csv(empty)
        code = main(["train", str(good), str(empty), "--trees", "2",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert (f"error [train]: {empty}: dataset 1: training data has no "
                "rows") in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["stdout", "truth", "out"])
    def test_predict_refuses_a_file_with_no_rows(self, tmp_path, capsys,
                                                 case):
        good, empty = tmp_path / "t.csv", tmp_path / "empty.csv"
        model, out = tmp_path / "m.json", tmp_path / "preds.csv"
        dataset_from_rows(small_schema(1), [[0, 0], [1, 1], [0, 1],
                                            [1, 0]]).to_csv(good)
        dataset_from_rows(small_schema(1), np.zeros((0, 2), dtype=int)
                          ).to_csv(empty)
        assert main(["train", str(good), "--trees", "2",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        flags = {"stdout": [], "truth": ["--truth"],
                 "out": ["--out", str(out)]}[case]
        code = main(["predict", str(model), str(empty), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == \
            f"error [predict]: {empty}: dataset has no rows\n"
        assert not out.exists()

    def test_unreachable_delta_exit_code(self, tmp_path, capsys):
        code = main(["experiment", "--builtin", "1", "--n", "200",
                     "--candidates", "3", "--delta", "0.99", "--trees", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "candidates" in capsys.readouterr().err


def output_bytes(out):
    """The bytes of an --out file, or of every file under an --out
    directory but the run's timings, by relative path."""
    if out.is_file():
        return {".": out.read_bytes()}
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timings.json"}


class TestRerun:
    """Every output is written as a new file, so a run into an --out that
    holds an earlier run's files leaves what a fresh --out gets."""

    @pytest.fixture
    def inputs(self, tmp_path):
        """A 200-row truth, its spec and two candidates of it."""
        gt, spec, cands = (tmp_path / "gt.csv", tmp_path / "spec.json",
                           tmp_path / "cands")
        assert main(["synth", "--builtin", "1", "--n", "200",
                     "--out", str(gt)]) == 0
        assert main(["summarize", str(gt), "--out", str(spec)]) == 0
        assert main(["reconstruct", str(spec), "--candidates", "2",
                     "--delta", "0.0", "--out", str(cands)]) == 0
        return gt, spec, cands / "candidate_0.csv", cands / "candidate_1.csv"

    @pytest.mark.parametrize("command", ["reconstruct", "train", "experiment"])
    def test_a_rerun_writes_what_a_fresh_out_gets(self, tmp_path, inputs,
                                                  command):
        gt, spec, c0, c1 = inputs
        args = {"reconstruct": [str(spec), "--candidates", "2",
                                "--delta", "0.0"],
                "train": [str(c0), str(c1), "--trees", "3"],
                "experiment": ["--builtin", "1", *SMALL_RUN]}[command]
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        # the first run into again writes other bytes, with another seed
        for out, seed in ((again, "7"), (again, "3"), (fresh, "3")):
            assert main([command, *args, "--seed", seed,
                         "--out", str(out)]) == 0
        assert output_bytes(again) == output_bytes(fresh)

    @pytest.mark.parametrize("command", ["synth", "summarize", "train",
                                         "similarity"])
    def test_an_out_that_is_a_directory_is_named(self, tmp_path, capsys,
                                                 inputs, command):
        gt, _, c0, c1 = inputs
        args = {"synth": ["--builtin", "1", "--n", "200"],
                "summarize": [str(gt)],
                "train": [str(c0), str(c1), "--trees", "2"],
                "similarity": [str(gt), str(c0)]}[command]
        out = tmp_path / "taken"
        out.mkdir()
        capsys.readouterr()
        assert main([command, *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: ") and str(out) in err
        assert out.is_dir()


class TestCliOutputs:
    """Output branches of the CLI, each pinned on a small run."""

    @pytest.fixture
    def chain(self, tmp_path):
        """A 300-row truth, two candidates of it and a 3-tree model."""
        gt, spec, cands, model = (tmp_path / "gt.csv", tmp_path / "spec.json",
                                  tmp_path / "cands", tmp_path / "model.json")
        assert main(["synth", "--builtin", "1", "--n", "300",
                     "--out", str(gt)]) == 0
        assert main(["summarize", str(gt), "--out", str(spec)]) == 0
        assert main(["reconstruct", str(spec), "--candidates", "2",
                     "--delta", "0.0", "--out", str(cands)]) == 0
        c0, c1 = cands / "candidate_0.csv", cands / "candidate_1.csv"
        assert main(["train", str(c0), str(c1), "--trees", "3",
                     "--depth", "3", "--out", str(model)]) == 0
        return gt, c0, model

    def test_similarity_to_stdout(self, tmp_path, capsys, chain):
        gt, c0, _ = chain
        out = tmp_path / "sim.json"
        capsys.readouterr()
        assert main(["similarity", str(gt), str(c0), "--features", "PT",
                     "Age"]) == 0
        printed = capsys.readouterr().out
        assert main(["similarity", str(gt), str(c0), "--features", "PT",
                     "Age", "--out", str(out)]) == 0
        assert printed == out.read_text()
        report = json.loads(printed)
        assert report["feature_subset"] == ["PT", "Age"]
        assert report["n_rows"] == 300
        assert printed == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_predict_to_stdout(self, tmp_path, capsys, chain):
        gt, _, model = chain
        out = tmp_path / "preds.csv"
        assert main(["predict", str(model), str(gt), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["predict", str(model), str(gt), "--truth"]) == 0
        line, metrics = capsys.readouterr().out.split("\n", 1)
        labels = out.read_text().splitlines()
        assert labels[0] == "prediction"
        assert line == ",".join(labels[1:])
        assert set(json.loads(metrics)) == {"accuracy", "precision", "recall",
                                            "tp", "fp", "tn", "fn"}

    def test_each_distinct_row_predicted_once(self, tmp_path, monkeypatch,
                                              chain):
        gt, _, model = chain
        truth = Dataset.from_csv(gt)
        distinct = len(np.unique(truth.to_matrix(truth.schema.feature_names),
                                 axis=0))
        predict, sizes = RandomForest.predict, []
        def counted(forest, X):
            sizes.append(len(X))
            return predict(forest, X)
        monkeypatch.setattr(RandomForest, "predict", counted)
        assert main(["predict", str(model), str(gt), "--out",
                     str(tmp_path / "preds.csv")]) == 0
        assert sizes == [distinct] * 2 and distinct < truth.n_rows

    def test_sweep_parameter(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--builtin", "1", *SMALL_RUN,
                     "--parameter", "doa_fraction", "--values", "0.1", "0.3",
                     "--out", str(out)]) == 0
        lines = (out / "controlled_doa_fraction.csv").read_text().splitlines()
        assert lines[0] == "doa_fraction,accuracy,precision,recall"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.1", "0.3"]
        for v, dead in (("0.1", 20), ("0.3", 60)):
            report = json.loads((out / f"doa_fraction_{v}" /
                                 "report.json").read_text())
            assert report["config"]["doa_fraction"] == float(v)
            truth = (out / f"doa_fraction_{v}" / "ground_truth.csv")
            assert truth.read_text().count(",0\n") == dead

    def test_export_configs(self, tmp_path):
        assert main(["synth", "--builtin", "3", "--n", "300", "--out",
                     str(tmp_path / "t.csv"), "--export-configs"]) == 0
        assert configs_from_json(tmp_path / "configs.json") \
            == builtin_configs()

    @pytest.mark.parametrize("one_item_list", [False, True])
    def test_config_file(self, tmp_path, one_item_list):
        cfg = asdict(builtin_configs()[2])
        path = tmp_path / "one.json"
        path.write_text(json.dumps([cfg] if one_item_list else cfg))
        config_csv, builtin_csv = tmp_path / "c.csv", tmp_path / "b.csv"
        assert main(["synth", "--config", str(path), "--n", "300",
                     "--out", str(config_csv)]) == 0
        assert main(["synth", "--builtin", "3", "--n", "300",
                     "--out", str(builtin_csv)]) == 0
        assert config_csv.read_bytes() == builtin_csv.read_bytes()
        assert config_csv.read_text().count(",0\n") == 60

    @pytest.mark.parametrize("command", [
        ["synth", "--n", "300"],
        ["experiment", *SMALL_RUN],
        ["sweep", *SMALL_RUN, "--rates", "1.0"]])
    def test_config_file_with_many_configs_rejected(self, tmp_path, capsys,
                                                    command):
        path = tmp_path / "configs.json"
        configs_to_json(builtin_configs(), path)
        out = tmp_path / "x"
        code = main([command[0], "--config", str(path), *command[1:],
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and "10 configs" in err
        assert not out.exists()

    def test_repeats_zero_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["experiment", "--builtin", "1", *SMALL_RUN,
                     "--repeats", "0", "--out", str(out)])
        assert code == 1
        assert "--repeats must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def json_files(tmp_path):
    """Each JSON reader's file as its writer left it, with the call that
    reads it back and the CLI command that reads it."""
    spec, configs, model = (tmp_path / name for name in
                            ("spec.json", "configs.json", "model.json"))
    csv, cands = tmp_path / "t.csv", tmp_path / "cands"
    builtin_configs(n=200)[0].to_spec().to_json(spec)
    configs_to_json(builtin_configs(n=200)[:1], configs)
    data = dataset_from_rows(small_schema(1), [[0, 0], [1, 1], [0, 1],
                                               [1, 0]])
    data.to_csv(csv)
    save_ensemble(train_ensemble([data], ForestParams(n_trees=1)), model)
    save_candidates(generate_candidates(
        builtin_configs(n=200)[0].to_spec(), 1, 0.0, base_seed=8), cands)
    out = str(tmp_path / "out")
    return {
        "spec": (spec, lambda: AggregateSpec.from_json(spec),
                 ["reconstruct", str(spec), "--out", out]),
        "sidecar": (sidecar_path(csv), lambda: Dataset.from_csv(csv),
                    ["summarize", str(csv), "--out", out]),
        "model": (model, lambda: load_ensemble(model),
                  ["predict", str(model), str(csv)]),
        "manifest": (cands / "manifest.json", lambda: load_candidates(cands),
                     None),
        "configs": (configs, lambda: configs_from_json(configs),
                    ["synth", "--config", str(configs), "--out", out]),
    }


def put(keys, value):
    """An edit of a JSON document that sets the entry at keys to value."""
    def edit(doc):
        entry = doc
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        return doc
    return edit


NOT_JSON = "Expecting property name enclosed in double quotes: line 1 " \
    "column 2 (char 1)"

# (reader, case, edit of its JSON document or None for the text "{oops",
# what the error says after the path): for each reader a file that is not
# JSON, a top level that is not an object, a keyed value of the wrong JSON
# type and a list entry that is not an object (a manifest holds no list of
# objects that load_candidates reads)
JSON_READER_CASES = [
    ("spec", "not-json", None, NOT_JSON),
    ("spec", "top-level", lambda doc: 7, "the spec is not a dict"),
    ("spec", "features-object", put(["features"], {"a": {}}),
     "features in the spec is not a list"),
    ("spec", "feature-number", put(["features", 0], 5),
     "feature 5 is not a dict"),
    ("spec", "name-list", put(["features", 0, "name"], ["PT"]),
     "name in feature {'kind': 'binary', 'name': ['PT'], "
     "'occurrence_fraction': 0.6, 'odds_ratio': 2} is not a str"),
    ("sidecar", "not-json", None, NOT_JSON),
    ("sidecar", "top-level", lambda doc: [1], "the sidecar is not a dict"),
    ("sidecar", "schema-number", put(["schema"], 5),
     "the schema is not a dict"),
    ("sidecar", "feature-string", put(["schema", "features"], ["name"]),
     "feature name is not a dict"),
    ("model", "not-json", None, NOT_JSON),
    ("model", "top-level", lambda doc: [1, 2], "the ensemble is not a dict"),
    ("model", "models-number", put(["models"], 5),
     "models in the ensemble is not a list"),
    ("model", "params-number", put(["models", 0, "params"], 3),
     "model 0, params is not a dict"),
    ("model", "trees-object", put(["models", 0, "trees"], {}),
     "model 0, trees is not a list"),
    ("model", "node-number", put(["models", 0, "trees", 0, "nodes", 0], 5),
     "model 0, tree 0: node 0 is not a dict"),
    ("manifest", "not-json", None, NOT_JSON),
    ("manifest", "top-level", lambda doc: [1], "the manifest is not a dict"),
    ("manifest", "delta-string", put(["delta"], "x"),
     "delta must be a real number, got 'x'"),
    ("configs", "not-json", None, NOT_JSON),
    ("configs", "top-level", lambda doc: 7, "config 0 is not a dict"),
    ("configs", "seed-string", put([0, "seed"], "x"),
     "config 0: seed must be an integer, got 'x'"),
    ("configs", "statistic-string", put([0, "gender_or"], "x"),
     "config 0: gender_or must be a real number, got 'x'"),
    ("configs", "config-number", lambda doc: [5], "config 0 is not a dict"),
    ("configs", "missing-field",
     lambda doc: [{k: v for k, v in doc[0].items() if k != "pt_or"}],
     "missing key 'pt_or' in config 0"),
    ("configs", "unknown-field", put([0, "bogus"], 1),
     "unknown keys ['bogus'] in config 0"),
]


class TestJsonReaders:
    """Every JSON reader names its file first, then the key or entry at
    fault, as a ValueError (a SchemaError for a CSV's sidecar)."""

    @pytest.mark.parametrize("reader, edit, says",
                             [c[:1] + c[2:] for c in JSON_READER_CASES],
                             ids=[f"{c[0]}-{c[1]}" for c in JSON_READER_CASES])
    def test_the_path_comes_first(self, tmp_path, reader, edit, says):
        path, read, _ = json_files(tmp_path)[reader]
        path.write_text("{oops" if edit is None
                        else json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError) as err:
            read()
        assert str(err.value) == f"{path}: {says}"
        assert isinstance(err.value, SchemaError) == (reader == "sidecar")

    @pytest.mark.parametrize("reader, says", [
        ("spec", "the spec is not a dict"),
        ("sidecar", "the sidecar is not a dict"),
        ("model", "the ensemble is not a dict"),
        ("configs", "config 0 is not a dict"),
        ("experiment", "the spec is not a dict"),
    ])
    def test_cli_exits_1_naming_the_file(self, tmp_path, capsys, reader,
                                         says):
        path, _, command = json_files(tmp_path)[
            "spec" if reader == "experiment" else reader]
        if reader == "experiment":
            command = ["experiment", "--spec", str(path), "--out",
                       str(tmp_path / "out")]
        path.write_text("[5]")
        assert main(command) == 1
        assert capsys.readouterr().err == \
            f"error [{command[0]}]: {path}: {says}\n"
