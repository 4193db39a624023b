"""Command-line interface.

Subcommands: synth, summarize, reconstruct, similarity, train, predict,
experiment, sweep. Exits 0 on success; on failure prints a stage-tagged
diagnostic and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .aggregate import AggregateSpec, summarize
from .forest import (EnsembleModel, ForestParams, ensemble_predict, evaluate,
                     load_ensemble, save_ensemble, train_forest)
from .pipeline import (ExperimentPlan, StageError, run_controlled_sweep,
                       run_experiment, run_undersampling_sweep, SWEEPABLE)
from .reconstruct import generate_candidates, save_candidates
from .similarity import EXACT_ASSIGNMENT, GREEDY_RANK, IDENTITY, match_rows
from .synth import (builtin_configs, configs_from_json, configs_to_json,
                    generate_ground_truth, with_overrides)
from .tabular import Dataset


def _add_seed(p, default=0):
    p.add_argument("--seed", type=int, default=default)


def _add_plan_args(p):
    """The ExperimentPlan flags of experiment and sweep; returns the
    required group that picks the plan's input."""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", type=int, metavar="1-10")
    g.add_argument("--config", type=Path)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--candidates", type=int, default=9)
    p.add_argument("--delta", type=float, default=0.15)
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)
    _add_seed(p, default=2000)
    return g


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecoinfer",
        description="Aggregate-statistics data reconstruction and "
                    "candidate-ensemble modeling.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a ground-truth dataset")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", type=int, metavar="1-10",
                   help="builtin parameter configuration index")
    g.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--n", type=int, default=None, help="override row count")
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
    p.add_argument("--candidates", type=int, default=9)
    p.add_argument("--delta", type=float, default=0.15)
    p.add_argument("--max-attempts", type=int, default=1000)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_seed(p)

    p = sub.add_parser("similarity", help="compare two dataset CSVs")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--method", choices=["greedy", "exact", "identity"],
                   default="greedy")
    p.add_argument("--features", nargs="*", default=None,
                   help="column subset (default: all columns)")
    p.add_argument("--out", type=Path, default=None,
                   help="write the JSON report here instead of stdout")

    p = sub.add_parser("train", help="train an ensemble on candidate CSVs")
    p.add_argument("candidates", type=Path, nargs="+")
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--depth", type=int, default=8)
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
    if getattr(args, "builtin", None) is not None:
        cfgs = builtin_configs()
        if not 1 <= args.builtin <= len(cfgs):
            raise ValueError(f"builtin config index must be 1..{len(cfgs)}")
        cfg = cfgs[args.builtin - 1]
    else:
        cfg = configs_from_json(args.config)[0]
    if getattr(args, "n", None) is not None:
        cfg = with_overrides(cfg, n=args.n)
    if getattr(args, "seed", None) is not None:
        cfg = with_overrides(cfg, seed=args.seed)
    return cfg


def _forest_params(args, seed: int) -> ForestParams:
    return ForestParams(n_trees=args.trees, max_depth=args.depth, seed=seed)


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
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
    subset = args.features if args.features else None
    matching = match_rows(a, b, method, subset)
    report = {
        "method": method,
        "average_distance": matching.average_distance,
        "similarity": 1.0 - matching.average_distance,
        "exact_match_fraction": matching.exact_match,
        "n_rows": a.n_rows,
        "feature_subset": subset,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_train(args) -> int:
    models = []
    for k, path in enumerate(args.candidates):
        ds = Dataset.from_csv(path)
        models.append(train_forest(ds, _forest_params(args, args.seed + k)))
    save_ensemble(EnsembleModel(models=models), args.out)
    print(f"wrote ensemble of {len(models)} forests to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    ensemble = load_ensemble(args.model)
    ds = Dataset.from_csv(args.dataset)
    labels = ensemble_predict(ensemble, ds)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("prediction\n")
            fh.writelines(f"{int(v)}\n" for v in labels)
    else:
        print(",".join(str(int(v)) for v in labels))
    if args.truth:
        m = evaluate(labels, ds.outcome)
        print(json.dumps(m.to_dict(), indent=2, sort_keys=True))
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
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    if args.repeats == 1:
        report = run_experiment(_experiment_plan(args, args.seed, args.out))
    else:
        accs = []
        for rep in range(args.repeats):
            report = run_experiment(_experiment_plan(
                args, args.seed + 7919 * rep, args.out / f"rep_{rep}"))
            accs.append(report.ensemble_metrics)
        summary = {"repeats": args.repeats, "ensemble_metrics": accs}
        with open(args.out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
