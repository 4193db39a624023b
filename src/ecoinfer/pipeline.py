"""End-to-end experiment orchestration: ground truth -> aggregate spec ->
delta-separated candidates -> one forest per candidate -> ensemble ->
evaluation report.

All randomness flows from the plan's seeds, and parallel results are
reduced in candidate-index order, so a plan with fixed seeds produces
byte-identical reports at any worker count. Wall-clock timings are written
to a separate sidecar for the same reason.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from .similarity import (GREEDY_RANK, exact_match_fraction, match_rows,
                         similarity as similarity_score)
from .aggregate import AggregateSpec, summarize
from .forest import ForestParams, Metrics, evaluate, majority_vote, train_forest
from .reconstruct import CandidateSet, derived_seed, generate_candidates
from .synth import GroundTruthConfig, generate_ground_truth, with_overrides
from .tabular import Dataset, undersample

WORKERS_ENV = "ECOINFER_WORKERS"

# Sweepable GroundTruthConfig parameters for controlled experiments.
SWEEPABLE = ("gender_or", "gender_fraction", "pt_or", "pt_fraction",
             "ptt_or", "ptt_fraction", "plate_or", "plate_fraction",
             "doa_fraction")


class StageError(RuntimeError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


def default_workers() -> int:
    """Worker count from ECOINFER_WORKERS (a positive integer), else 1."""
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, "
                         f"got {env!r}")
    return workers


@dataclass
class ExperimentPlan:
    """Everything needed to run one experiment (or a sweep of them)."""

    config: GroundTruthConfig | None = None
    spec: AggregateSpec | None = None          # alternative input: aggregates only
    ground_truth: Dataset | None = None        # optional explicit truth for a spec
    n_candidates: int = 9
    delta: float = 0.15
    forest: ForestParams = field(default_factory=ForestParams)
    undersample_rate: float | None = None
    rates: list[float] | None = None           # undersampling sweep
    out_dir: Path | None = None
    base_seed: int = 2000
    workers: int = field(default_factory=default_workers)
    max_attempts: int = 1000

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if (self.config is None) == (self.spec is None):
            raise ValueError("plan needs exactly one of a config and an "
                             "aggregate spec")
        if self.rates is not None and not self.rates:
            raise ValueError("rates list must be non-empty when present")


@dataclass
class EvalReport:
    """Per-candidate and ensemble-level results of one experiment."""

    n_candidates: int
    delta: float
    attempts_used: int
    undersample_rate: float | None
    seeds: dict
    or_deviations: dict
    similarity_binary: list[float]
    similarity_all: list[float]
    exact_match: list[float]
    per_candidate_metrics: list[dict]
    ensemble_metrics: dict | None
    config: dict | None = None

    @property
    def similarity_stats(self) -> dict:
        s = self.similarity_binary
        return {"avg": sum(s) / len(s), "min": min(s), "max": max(s)} if s \
            else {}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["similarity_stats"] = self.similarity_stats
        return d

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _train_one(args) -> np.ndarray:
    """Worker: train one forest and return its labels on the test matrix."""
    candidate, params, X_test = args
    forest = train_forest(candidate, params)
    return forest.predict(X_test)


def _train_all(candidates: list[Dataset], params_list: list[ForestParams],
               X_test: np.ndarray, workers: int) -> list[np.ndarray]:
    jobs = [(c, p, X_test) for c, p in zip(candidates, params_list)]
    if workers <= 1 or len(jobs) == 1:
        return [_train_one(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_train_one, jobs))


def _stage(name: str, fn, *args):
    """fn(*args), with a failure tagged by the pipeline stage it hit."""
    try:
        return fn(*args)
    except Exception as e:
        raise StageError(name, e) from e


def _prepare(plan: ExperimentPlan) -> tuple[Dataset | None, AggregateSpec,
                                            CandidateSet]:
    truth, spec = plan.ground_truth, plan.spec  # a spec plan's inputs
    if plan.config is not None:
        truth = _stage("ground-truth", generate_ground_truth, plan.config)
        spec = _stage("summarize", summarize, truth)
    cs = _stage("candidates", generate_candidates, spec, plan.n_candidates,
                plan.delta, plan.base_seed, plan.max_attempts)
    return truth, spec, cs


def _evaluate(plan: ExperimentPlan, truth: Dataset | None, cs: CandidateSet,
              rate: float | None, out_dir: Path | None) -> EvalReport:
    timings: dict[str, float] = {}

    train_sets = cs.candidates
    if rate is not None and rate < 1.0:
        resampled = []
        for cand in train_sets:
            y = cand.outcome
            majority = 1 if np.count_nonzero(y == 1) >= np.count_nonzero(y == 0) \
                else 0
            resampled.append(undersample(cand, majority, rate,
                                         derived_seed(cand.seed, 1)))
        train_sets = resampled

    sim_binary: list[float] = []
    sim_all: list[float] = []
    exact: list[float] = []
    per_cand: list[Metrics] = []
    ensemble_metrics = None
    forest_params = [replace(plan.forest, seed=plan.forest.seed + k)
                     for k in range(len(train_sets))]
    predictions = None

    if truth is not None:
        t0 = time.perf_counter()
        binary_cols = truth.schema.binary_columns()
        for cand in cs.candidates:
            sim_binary.append(similarity_score(truth, cand, GREEDY_RANK,
                                               binary_cols))
            matching = match_rows(truth, cand, GREEDY_RANK)
            sim_all.append(1.0 - matching.average_distance)
            exact.append(exact_match_fraction(truth, cand, matching))
        timings["similarity_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        X_test = truth.to_matrix(truth.schema.feature_names)
        predictions = _stage("training", _train_all, train_sets,
                             forest_params, X_test, plan.workers)
        timings["training_s"] = time.perf_counter() - t0

        y_true = truth.outcome
        per_cand = [evaluate(p, y_true) for p in predictions]
        ens_pred = majority_vote(predictions)
        ensemble_metrics = evaluate(ens_pred, y_true)

    report = EvalReport(
        n_candidates=len(cs.candidates),
        delta=cs.delta,
        attempts_used=cs.attempts_used,
        undersample_rate=rate,
        seeds={
            "base_seed": plan.base_seed,
            "truth_seed": truth.seed if truth is not None else None,
            "candidate_seeds": [c.seed for c in cs.candidates],
            "forest_seeds": [p.seed for p in forest_params],
        },
        or_deviations=cs.or_deviations,
        similarity_binary=sim_binary,
        similarity_all=sim_all,
        exact_match=exact,
        per_candidate_metrics=[m.to_dict() for m in per_cand],
        ensemble_metrics=ensemble_metrics.to_dict() if ensemble_metrics else None,
        config=asdict(plan.config) if plan.config is not None else None,
    )

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        report.to_json(out_dir / "report.json")
        _write_similarity_csv(out_dir / "fig4_similarity.csv", report)
        _write_metrics_csv(out_dir / "fig5_metrics.csv", report)
        if predictions is not None:
            _write_predictions_csv(out_dir / "predictions.csv", predictions,
                                   ens_pred, truth.outcome)
        with open(out_dir / "timings.json", "w", encoding="utf-8") as fh:
            json.dump(timings, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def run_experiment(plan: ExperimentPlan) -> EvalReport:
    """Full pipeline run; writes report.json and plot-ready CSVs if the plan
    has an output directory."""
    truth, spec, cs = _prepare(plan)
    if plan.out_dir is not None:
        from .reconstruct import save_candidates
        plan.out_dir.mkdir(parents=True, exist_ok=True)
        save_candidates(cs, plan.out_dir / "candidates")
        if truth is not None:
            truth.to_csv(plan.out_dir / "ground_truth.csv")
    return _evaluate(plan, truth, cs, plan.undersample_rate, plan.out_dir)


def run_undersampling_sweep(plan: ExperimentPlan) -> list[EvalReport]:
    """One report per majority-class sampling rate, sharing candidates."""
    if not plan.rates:
        raise ValueError("plan.rates must be set for an undersampling sweep")
    truth, spec, cs = _prepare(plan)
    reports = []
    for rate in plan.rates:
        sub = plan.out_dir / f"rate_{rate:g}" if plan.out_dir else None
        reports.append(_evaluate(plan, truth, cs, rate, sub))
    if plan.out_dir is not None:
        _write_sweep_csv(plan.out_dir / "fig6_undersampling.csv",
                         "rate", plan.rates, reports)
    return reports


def run_controlled_sweep(base: GroundTruthConfig, parameter: str,
                         values: list[float],
                         plan: ExperimentPlan) -> list[EvalReport]:
    """One experiment per parameter value, all else held fixed."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}; "
                         f"one of {SWEEPABLE}")
    reports = []
    for v in values:
        cfg = with_overrides(base, **{parameter: v})
        sub = plan.out_dir / f"{parameter}_{v:g}" if plan.out_dir else None
        reports.append(run_experiment(replace(plan, config=cfg, out_dir=sub)))
    if plan.out_dir is not None:
        _write_sweep_csv(plan.out_dir / f"controlled_{parameter}.csv",
                         parameter, values, reports)
    return reports


# --- plot-ready CSV outputs ----------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def _write_similarity_csv(path: Path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("candidate,similarity_binary,similarity_all,exact_match\n")
        for k in range(len(report.similarity_binary)):
            fh.write(f"{k},{_fmt(report.similarity_binary[k])},"
                     f"{_fmt(report.similarity_all[k])},"
                     f"{_fmt(report.exact_match[k])}\n")


def _write_metrics_csv(path: Path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("model,accuracy,precision,recall\n")
        for k, m in enumerate(report.per_candidate_metrics):
            fh.write(f"candidate_{k},{_fmt(m['accuracy'])},"
                     f"{_fmt(m['precision'])},{_fmt(m['recall'])}\n")
        if report.ensemble_metrics:
            m = report.ensemble_metrics
            fh.write(f"ensemble,{_fmt(m['accuracy'])},{_fmt(m['precision'])},"
                     f"{_fmt(m['recall'])}\n")


def _write_predictions_csv(path: Path, predictions: list[np.ndarray],
                           ens_pred: np.ndarray, truth: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        heads = [f"candidate_{k}" for k in range(len(predictions))]
        fh.write(",".join(heads + ["ensemble", "truth"]) + "\n")
        columns = [c.tolist() for c in predictions + [ens_pred, truth]]
        row = ",".join(["%d"] * len(columns)) + "\n"
        fh.writelines(row % cells for cells in zip(*columns))


def _write_sweep_csv(path: Path, key: str, values: list[float],
                     reports: list[EvalReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{key},accuracy,precision,recall\n")
        for v, rep in zip(values, reports):
            m = rep.ensemble_metrics or {}
            fh.write(f"{v:g},{_fmt(m.get('accuracy'))},"
                     f"{_fmt(m.get('precision'))},{_fmt(m.get('recall'))}\n")
