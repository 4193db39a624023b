"""Command-line interface.

Subcommands: synth, summarize, reconstruct, similarity, train, predict,
experiment, sweep. Exits 0 on success; on failure prints a stage-tagged
diagnostic and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .aggregate import AggregateSpec, summarize
from .forest import (ForestParams, SingleClassError, ensemble_predict,
                     evaluate, load_ensemble, save_ensemble, train_ensemble)
from .pipeline import (ExperimentPlan, StageError, run_controlled_sweep,
                       run_experiment, run_undersampling_sweep, SWEEPABLE)
from .reconstruct import MAX_ATTEMPTS, generate_candidates, save_candidates
from .similarity import EXACT_ASSIGNMENT, GREEDY_RANK, IDENTITY, match_rows
from .synth import (builtin_configs, configs_from_json, configs_to_json,
                    generate_ground_truth, with_overrides)
from .tabular import (Dataset, check_integer, json_text, write_columns,
                      write_json)


def _add_seed(p, default=0):
    p.add_argument("--seed", type=int, default=default)


def _add_config_args(p):
    """The flags that pick a GroundTruthConfig; returns the required group
    of its sources."""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", type=int, metavar="1-10",
                   help="builtin parameter configuration index")
    g.add_argument("--config", type=Path,
                   help="JSON file holding one config")
    p.add_argument("--n", type=int, default=None, help="override row count")
    return g


def _add_candidate_args(p):
    p.add_argument("--candidates", type=int,
                   default=ExperimentPlan.n_candidates)
    p.add_argument("--delta", type=float, default=ExperimentPlan.delta)


def _add_forest_args(p):
    p.add_argument("--trees", type=int, default=ForestParams.n_trees)
    p.add_argument("--depth", type=int, default=ForestParams.max_depth)


def _add_plan_args(p):
    """The ExperimentPlan flags of experiment and sweep; returns the
    required group that picks the plan's input."""
    g = _add_config_args(p)
    _add_candidate_args(p)
    _add_forest_args(p)
    p.add_argument("--workers", type=int, default=ExperimentPlan.workers)
    p.add_argument("--out", type=Path, required=True)
    _add_seed(p, default=ExperimentPlan.base_seed)
    return g


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecoinfer",
        description="Aggregate-statistics data reconstruction and "
                    "candidate-ensemble modeling.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a ground-truth dataset")
    _add_config_args(p)
    p.add_argument("--out", type=Path, required=True, help="output CSV")
    _add_seed(p, default=None)
    p.add_argument("--export-configs", action="store_true",
                   help="also write configs.json with all builtin configs")

    p = sub.add_parser("summarize", help="dataset CSV -> aggregate spec JSON")
    p.add_argument("dataset", type=Path)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("reconstruct",
                       help="aggregate spec JSON -> candidate datasets")
    p.add_argument("spec", type=Path)
    _add_candidate_args(p)
    p.add_argument("--max-attempts", type=int, default=MAX_ATTEMPTS)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_seed(p)

    p = sub.add_parser("similarity", help="compare two dataset CSVs")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--method", choices=["greedy", "exact", "identity"],
                   default="greedy")
    p.add_argument("--features", nargs="+", default=None,
                   help="column subset (default: all columns)")
    p.add_argument("--out", type=Path, default=None,
                   help="write the JSON report here instead of stdout")

    p = sub.add_parser("train", help="train an ensemble on candidate CSVs")
    p.add_argument("candidates", type=Path, nargs="+")
    _add_forest_args(p)
    p.add_argument("--out", type=Path, required=True, help="model JSON file")
    _add_seed(p)

    p = sub.add_parser("predict", help="predict outcomes with a saved ensemble")
    p.add_argument("model", type=Path)
    p.add_argument("dataset", type=Path)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--truth", action="store_true",
                   help="dataset has labels; also print metrics")

    p = sub.add_parser("experiment", help="full pipeline run")
    g = _add_plan_args(p)
    g.add_argument("--spec", type=Path, help="aggregate spec JSON (no "
                   "ground-truth evaluation unless --truth is given)")
    p.add_argument("--truth", type=Path, default=None,
                   help="ground-truth CSV to evaluate a --spec run against")
    p.add_argument("--rate", type=float, default=None,
                   help="majority-class undersampling rate")
    p.add_argument("--repeats", type=int, default=1)

    p = sub.add_parser("sweep", help="undersampling-rate or controlled sweep")
    _add_plan_args(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rates", type=float, nargs="+", default=None,
                   help="undersampling sweep rates")
    g.add_argument("--parameter", choices=SWEEPABLE, default=None,
                   help="controlled-sweep parameter")
    p.add_argument("--values", type=float, nargs="+", default=None,
                   help="controlled-sweep values (with --parameter only)")
    return ap


def _load_config(args):
    if args.builtin is not None:
        cfgs = builtin_configs()
        if not 1 <= args.builtin <= len(cfgs):
            raise ValueError(f"builtin config index must be 1..{len(cfgs)}")
        cfg = cfgs[args.builtin - 1]
    else:
        cfgs = configs_from_json(args.config)
        if len(cfgs) != 1:
            raise ValueError(f"{args.config} holds {len(cfgs)} configs; "
                             "--config takes a file with exactly one")
        cfg = cfgs[0]
    if args.n is not None:
        cfg = with_overrides(cfg, n=args.n)
    return cfg


def _forest_params(args, seed: int) -> ForestParams:
    return ForestParams(n_trees=args.trees, max_depth=args.depth, seed=seed)


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        cfg = with_overrides(cfg, seed=args.seed)
    ds = generate_ground_truth(cfg)
    ds.to_csv(args.out)
    if args.export_configs:
        configs_to_json(builtin_configs(), args.out.parent / "configs.json")
    print(f"wrote {ds.n_rows} rows to {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    ds = Dataset.from_csv(args.dataset)
    summarize(ds).to_json(args.out)
    print(f"wrote aggregate spec to {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    spec = AggregateSpec.from_json(args.spec)
    cs = generate_candidates(spec, args.candidates, args.delta, args.seed,
                             args.max_attempts)
    save_candidates(cs, args.out)
    print(f"wrote {len(cs.candidates)} candidates to {args.out} "
          f"({cs.attempts_used} attempts)")
    return 0


def _cmd_similarity(args) -> int:
    a = Dataset.from_csv(args.a)
    b = Dataset.from_csv(args.b)
    method = {"greedy": GREEDY_RANK, "exact": EXACT_ASSIGNMENT,
              "identity": IDENTITY}[args.method]
    matching = match_rows(a, b, method, args.features)
    report = {
        "method": method,
        "average_distance": matching.average_distance,
        "similarity": 1.0 - matching.average_distance,
        "exact_match_fraction": matching.exact_match,
        "n_rows": a.n_rows,
        "feature_subset": args.features,
    }
    if args.out:
        write_json(report, args.out)
    else:
        sys.stdout.write(json_text(report))
    return 0


def _cmd_train(args) -> int:
    try:
        forests = train_ensemble(
            (Dataset.from_csv(p) for p in args.candidates),
            _forest_params(args, args.seed))
    except SingleClassError as e:
        raise ValueError(f"{args.candidates[e.dataset]}: {e}") from e
    save_ensemble(forests, args.out)
    print(f"wrote ensemble of {len(forests)} forests to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    forests = load_ensemble(args.model)
    ds = Dataset.from_csv(args.dataset)
    if ds.n_rows == 0:
        raise ValueError(f"{args.dataset}: dataset has no rows")
    labels = ensemble_predict(forests, ds)
    if args.out:
        write_columns(args.out, ["prediction"], [labels], ["%d"])
    else:
        print(",".join(str(int(v)) for v in labels))
    if args.truth:
        sys.stdout.write(json_text(evaluate(labels, ds.outcome).to_dict()))
    return 0


def _experiment_plan(args, base_seed: int, out: Path) -> ExperimentPlan:
    """The plan of one `experiment` run or `sweep`, writing under out."""
    spec, truth = getattr(args, "spec", None), getattr(args, "truth", None)
    if spec and args.n is not None:
        raise ValueError("--n goes with --builtin or --config; a --spec "
                         "fixes its own n")
    return ExperimentPlan(
        config=None if spec else _load_config(args),
        spec=AggregateSpec.from_json(spec) if spec else None,
        ground_truth=Dataset.from_csv(truth) if truth else None,
        n_candidates=args.candidates, delta=args.delta,
        forest=_forest_params(args, seed=base_seed + 1),
        undersample_rate=getattr(args, "rate", None),
        out_dir=out, base_seed=base_seed, workers=args.workers)


def _cmd_experiment(args) -> int:
    check_integer("--repeats", args.repeats, least=1)
    if args.repeats == 1:
        report = run_experiment(_experiment_plan(args, args.seed, args.out))
    else:
        accs = []
        for rep in range(args.repeats):
            report = run_experiment(_experiment_plan(
                args, args.seed + 7919 * rep, args.out / f"rep_{rep}"))
            accs.append(report.ensemble_metrics)
        write_json({"repeats": args.repeats, "ensemble_metrics": accs},
                   args.out / "summary.json")
    if report.ensemble_metrics:
        m = report.ensemble_metrics
        print(f"ensemble accuracy={m['accuracy']:.4f} "
              f"precision={m['precision'] if m['precision'] is not None else 'n/a'} "
              f"recall={m['recall']:.4f}")
    print(f"report written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if (args.parameter is None) != (args.values is None):
        raise ValueError("--values goes with --parameter, and --parameter "
                         "needs --values")
    plan = _experiment_plan(args, args.seed, args.out)
    if args.rates:
        reports = run_undersampling_sweep(plan, args.rates)
        print(f"{len(reports)} undersampling reports written to {args.out}")
    else:
        reports = run_controlled_sweep(plan, args.parameter, args.values)
        print(f"{len(reports)} controlled-sweep reports written to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "summarize": _cmd_summarize,
    "reconstruct": _cmd_reconstruct,
    "similarity": _cmd_similarity,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StageError as e:
        print(f"error at stage {e.stage}: {e.cause}", file=sys.stderr)
        return 2
    except Exception as e:  # surface a tagged one-liner, not a traceback
        print(f"error [{args.command}]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
