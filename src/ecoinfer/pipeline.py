"""End-to-end experiment orchestration: ground truth -> aggregate spec ->
delta-separated candidates -> one forest per candidate -> ensemble ->
evaluation report.

All randomness flows from the plan's seeds, and parallel results are
reduced in candidate-index order, so a plan with fixed seeds produces
byte-identical reports at any worker count. Wall-clock timings are written
to a separate sidecar for the same reason.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .similarity import GREEDY_RANK, match_rows
from .aggregate import AggregateSpec, summarize
from .forest import (ForestParams, Metrics, ensemble_labels, evaluate,
                     majority_vote, member_params, train_ensemble)
from .reconstruct import (CandidateSet, derived_seed, generate_candidates,
                          save_candidates)
from .synth import GroundTruthConfig, generate_ground_truth, with_overrides
from .tabular import (Dataset, SchemaError, check_integer, check_real,
                      undersample, write_columns, write_json, write_rows)

# Sweepable GroundTruthConfig parameters for controlled experiments: its
# statistics, the fields with no default, in their order.
SWEEPABLE = tuple(f.name for f in fields(GroundTruthConfig)
                  if f.default is MISSING)


class StageError(RuntimeError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


@dataclass
class ExperimentPlan:
    """Everything needed to run one experiment; a sweep varies one field."""

    config: GroundTruthConfig | None = None
    spec: AggregateSpec | None = None          # alternative input: aggregates only
    ground_truth: Dataset | None = None        # optional explicit truth for a spec
    n_candidates: int = 9
    delta: float = 0.15
    forest: ForestParams = field(default_factory=ForestParams)
    undersample_rate: float | None = None
    out_dir: Path | None = None
    base_seed: int = 2000
    workers: int = 1

    def __post_init__(self):
        check_integer("n_candidates", self.n_candidates, least=1)
        check_integer("workers", self.workers, least=1)
        check_integer("base_seed", self.base_seed)
        check_real("delta", self.delta, 0, 1, "[)")
        if self.undersample_rate is not None:
            check_real("undersample_rate", self.undersample_rate, 0, 1, "(]")
        if (self.config is None) == (self.spec is None):
            raise ValueError("plan needs exactly one of a config and an "
                             "aggregate spec")
        truth, spec = self.ground_truth, self.spec
        if truth is not None and spec is None:
            raise ValueError("ground_truth goes with a spec, not a config")
        if truth is not None and truth.schema != spec.schema:
            raise SchemaError("truth and spec have different schemas")
        if truth is not None and truth.n_rows != spec.n:
            raise SchemaError(f"truth has {truth.n_rows} rows, spec {spec.n}")


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
        write_json(self.to_dict(), path)


def _stage(name: str, fn, *args):
    """fn(*args), with a failure tagged by the pipeline stage it hit."""
    try:
        return fn(*args)
    except Exception as e:
        raise StageError(name, e) from e


def _prepare(plan: ExperimentPlan) -> tuple[Dataset | None, CandidateSet]:
    truth, spec = plan.ground_truth, plan.spec  # a spec plan's inputs
    if plan.config is not None:
        truth = _stage("ground-truth", generate_ground_truth, plan.config)
        spec = _stage("summarize", summarize, truth)
    cs = _stage("candidates", generate_candidates, spec, plan.n_candidates,
                plan.delta, plan.base_seed)
    return truth, cs


def _evaluate(plan: ExperimentPlan, truth: Dataset | None,
              cs: CandidateSet) -> EvalReport:
    timings: dict[str, float] = {}
    rate, out_dir = plan.undersample_rate, plan.out_dir
    train_sets = cs.candidates
    if rate is not None:
        train_sets = [undersample(c, rate, derived_seed(c.seed, 1))
                      for c in train_sets]

    sim_binary: list[float] = []
    sim_all: list[float] = []
    exact: list[float] = []
    per_cand: list[Metrics] = []
    ensemble_metrics = None
    predictions = None

    if truth is not None:
        t0 = time.perf_counter()
        binary_cols = truth.schema.binary_columns()
        for cand in cs.candidates:
            sim_binary.append(1.0 - match_rows(
                truth, cand, GREEDY_RANK, binary_cols).average_distance)
            matching = match_rows(truth, cand, GREEDY_RANK)
            sim_all.append(1.0 - matching.average_distance)
            exact.append(matching.exact_match)
        timings["similarity_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        forests = _stage("training", train_ensemble, train_sets,
                         plan.forest, plan.workers)
        predictions = ensemble_labels(forests, truth)
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
            "forest_seeds": [member_params(plan.forest, k).seed
                             for k in range(len(train_sets))],
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
        write_rows(out_dir / "fig4_similarity.csv",
                   ["candidate", "similarity_binary", "similarity_all",
                    "exact_match"],
                   ([str(k), *cells] for k, cells in
                    enumerate(zip(sim_binary, sim_all, exact))))
        models = [(f"candidate_{k}", m)
                  for k, m in enumerate(report.per_candidate_metrics)]
        if report.ensemble_metrics:
            models.append(("ensemble", report.ensemble_metrics))
        _write_metrics_csv(out_dir / "fig5_metrics.csv", "model", models)
        if predictions is not None:
            write_columns(out_dir / "predictions.csv",
                          [f"candidate_{k}" for k in range(len(predictions))]
                          + ["ensemble", "truth"],
                          [*predictions, ens_pred, truth.outcome])
        write_json(timings, out_dir / "timings.json")
    return report


def run_experiment(plan: ExperimentPlan) -> EvalReport:
    """Full pipeline run; writes report.json and plot-ready CSVs if the plan
    has an output directory."""
    truth, cs = _prepare(plan)
    if plan.out_dir is not None:
        plan.out_dir.mkdir(parents=True, exist_ok=True)
        save_candidates(cs, plan.out_dir / "candidates")
        if truth is not None:
            truth.to_csv(plan.out_dir / "ground_truth.csv")
    return _evaluate(plan, truth, cs)


def run_undersampling_sweep(plan: ExperimentPlan,
                            rates: list[float]) -> list[EvalReport]:
    """One report per majority-class sampling rate, sharing candidates: the
    plan with its undersample_rate set to each rate in turn."""
    # each plan checks its rate before anything runs
    plans = [replace(plan, undersample_rate=rate) for rate in rates]
    labels = _labels("rate", rates)
    if plan.out_dir is not None:
        plans = [replace(p, out_dir=plan.out_dir / f"rate_{label}")
                 for p, label in zip(plans, labels)]
    truth, cs = _prepare(plan)
    reports = [_evaluate(p, truth, cs) for p in plans]
    if plan.out_dir is not None:
        _write_metrics_csv(plan.out_dir / "fig6_undersampling.csv", "rate",
                           [(label, rep.ensemble_metrics)
                            for label, rep in zip(labels, reports)])
    return reports


def run_controlled_sweep(plan: ExperimentPlan, parameter: str,
                         values: list[float]) -> list[EvalReport]:
    """One experiment per value of one parameter of plan.config, all else
    held fixed."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}; "
                         f"one of {SWEEPABLE}")
    if plan.config is None:
        raise ValueError("a controlled sweep needs a plan with a config")
    # each config checks its value before anything runs
    configs = [with_overrides(plan.config, **{parameter: v}) for v in values]
    labels = _labels(f"{parameter} value", values)
    reports = [run_experiment(replace(
        plan, config=cfg,
        out_dir=plan.out_dir / f"{parameter}_{label}" if plan.out_dir
        else None)) for cfg, label in zip(configs, labels)]
    if plan.out_dir is not None:
        _write_metrics_csv(plan.out_dir / f"controlled_{parameter}.csv",
                           parameter, [(label, rep.ensemble_metrics)
                                       for label, rep in zip(labels, reports)])
    return reports


def _labels(what: str, values: list[float]) -> list[str]:
    """Each swept value's :g label, which names its report directory and
    its row of the sweep's CSV; a sweep with no value, or with two values
    of one label (one would overwrite the other), is refused."""
    if not values:
        raise ValueError(f"a sweep needs at least one {what}")
    labels = [f"{v:g}" for v in values]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"two {what}s share the label {label!r}")
    return labels


# --- plot-ready CSV outputs ----------------------------------------------

_METRICS = ("accuracy", "precision", "recall")


def _write_metrics_csv(path: Path, key: str, rows) -> None:
    """One line per (label, metrics dict or None) row."""
    write_rows(path, [key, *_METRICS],
               ([label, *((m or {}).get(k) for k in _METRICS)]
                for label, m in rows))
