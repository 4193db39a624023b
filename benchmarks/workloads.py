"""The three benchmark workloads, why each exists, and how each checks its
outputs.

Load model: a closed loop with one caller in one process. Each iteration
starts when the previous one ends, and ``workers=1`` everywhere. The
``ProcessPoolExecutor`` training path is left unmeasured on purpose: wall
time across processes on two shared cores does not repeat.

Seeds: the benchmark's ``--seed`` is the ground-truth seed; the default, 1,
is config 1's own. experiment-c1 and separation-c1 keep the candidate base
seed at the pipeline's default, 2000: over 20 base seeds the rejection
sampler at delta 0.20 needed 51 to 240 attempts, which would swamp the wall
time, while over 20 truth seeds at base seed 2000 it needed 109 every time.
cli-wide's spec does not depend on the truth, so there ``--seed`` is also
the CLI's ``--seed`` (3 candidates at delta 0.15 take a few attempts).
Reference digests exist for the default seed and for the second documented
seed, 5000, at the default N; any other seed is checked by the
reference-free invariants only.

``MEASURED`` beside each workload holds properties read from a traced run
at the default seed and N, so later changes can name "the workload with
repeated rows" (experiment-c1) and "the one without" (cli-wide).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

import numpy as np

DEFAULT_N = 10_000
DEFAULT_SEED = 1
SECOND_SEED = 5000
BASE_SEED = 2000

# Absolute slack on the delta check: the invariant recomputes the greedy
# distance through the public matcher, whose float sums may round
# differently from the sampler's fast path.
_DELTA_TOL = 1e-12


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + str(len(outputs[name])).encode()
                 + b"\0" + outputs[name])
    return h.hexdigest()


def margin_problems(spec, candidates) -> list[str]:
    """Every candidate's binary 2x2 cells equal the spec's integer cells."""
    from ecoinfer.aggregate import contingency_table
    from ecoinfer.reconstruct import solve_cells

    problems = []
    r1 = spec.class_fraction
    n_pos = round(r1 * spec.n)
    cells = {f: solve_cells(spec.binary[f].odds_ratio, r1,
                            spec.binary[f].occurrence_fraction, spec.n).l_int
             for f in spec.schema.binary_feature_names}
    for k, cand in enumerate(candidates):
        if int(np.count_nonzero(cand.outcome == 0)) != n_pos:
            problems.append(f"candidate {k}: outcome margin differs from spec")
        for f, want in cells.items():
            got = contingency_table(cand, f).as_tuple()
            if got != want:
                problems.append(f"candidate {k}: {f} cells {got} != {want}")
    return problems


def separation_problems(candidates, delta: float) -> list[str]:
    """Pairwise greedy binary distance is at least delta."""
    from ecoinfer.similarity import GREEDY_RANK, match_rows

    problems = []
    for i in range(len(candidates)):
        cols = candidates[i].schema.binary_columns()
        for j in range(i):
            d = match_rows(candidates[i], candidates[j], GREEDY_RANK,
                           cols).average_distance
            if d < delta - _DELTA_TOL:
                problems.append(f"candidates {j},{i}: greedy distance {d!r} "
                                f"< delta {delta}")
    return problems


def _read_candidates(directory: Path, count: int):
    from ecoinfer.tabular import Dataset
    return [Dataset.from_csv(directory / f"candidate_{k}.csv")
            for k in range(count)]


def _files(out: Path, names) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in names}


class Workload:
    """One set of inputs: ``setup`` prepares them (untimed, repeatable),
    ``run`` is one timed iteration, and ``outputs`` and ``invariants``
    check its results."""

    def __init__(self, seed: int, n: int):
        self.seed = seed
        self.n = n


class ExperimentC1(Workload):
    """The paper's setting, end to end through ``run_experiment``.

    N=10,000, 9 candidates, delta 0.15, forests of depth 8, and every
    report, figure CSV and candidate CSV written. It is the main user job,
    and about three quarters of it is ``forest.train_forest``. Its rows
    repeat heavily, so any dedupe or histogram-training change shows here
    first.

    The paper trains 50 trees per forest; this trains 10, which keeps the
    same code path and data but makes an iteration about 3 s instead of
    about 13 s, so that a run holds about ten iterations.
    """

    name = "experiment-c1"
    why = ("paper setting via run_experiment (N=10k, 9 candidates, 10 "
           "trees each); ~75% forest training on heavily repeated rows (~11% "
           "distinct), so dedupe and histogram training show here")
    # 1,059 distinct feature vectors per 10,000 training rows; 9 of 9
    # attempts accepted; train_forest 2.18 s of a 2.97 s iteration.
    MEASURED = {"forest.distinct_row_share": 0.1059,
                "reconstruct.accept_ratio": 1.0}
    N_CANDIDATES = 9
    DELTA = 0.15
    TREES = 10

    def setup(self, inputs: Path) -> None:
        from ecoinfer.aggregate import summarize
        from ecoinfer.synth import (builtin_configs, generate_ground_truth,
                                    with_overrides)
        self.config = with_overrides(builtin_configs(n=self.n)[0],
                                     seed=self.seed)
        # Only the invariant checks read the spec; run_experiment derives
        # its own from the config inside the timed region.
        self.spec = summarize(generate_ground_truth(self.config))

    def run(self, out: Path):
        pipeline = importlib.import_module("ecoinfer.pipeline")
        forest = importlib.import_module("ecoinfer.forest")
        return pipeline.run_experiment(pipeline.ExperimentPlan(
            config=self.config, n_candidates=self.N_CANDIDATES,
            delta=self.DELTA, forest=forest.ForestParams(n_trees=self.TREES),
            out_dir=out, base_seed=BASE_SEED, workers=1))

    def outputs(self, out: Path, report) -> dict[str, bytes]:
        names = ["report.json", "fig4_similarity.csv", "fig5_metrics.csv",
                 "predictions.csv"]
        names += [f"candidates/candidate_{k}.csv"
                  for k in range(report.n_candidates)]
        return _files(out, names)

    def invariants(self, out: Path, report) -> list[str]:
        cands = _read_candidates(out / "candidates", report.n_candidates)
        return (margin_problems(self.spec, cands)
                + separation_problems(cands, self.DELTA))


class SeparationC1(Workload):
    """Candidate generation, similarity and candidate I/O without training.

    delta 0.20 makes the rejection sampler work (109 attempts for 9
    candidates at base seed 2000). Each candidate is scored against the
    truth with binary greedy similarity, all-attribute greedy matching and
    the exact-match fraction; the set is saved and loaded back; and exact
    assignment runs on the first 2,000 rows (a dense cost tensor, about
    400 MB peak).
    ``reconstruct``, ``similarity`` and ``tabular`` do nearly all the work
    and ``forest`` none, so a training change must predict no change here.
    """

    name = "separation-c1"
    why = ("rejection sampling at delta 0.20, greedy and exact matching, "
           "candidate save/load; no forest, so a training change must show "
           "no change here")
    # No forest is trained; 9 of 109 attempts accepted.
    MEASURED = {"forest.distinct_row_share": None,
                "reconstruct.accept_ratio": 0.0826}
    N_CANDIDATES = 9
    DELTA = 0.20
    EXACT_ROWS = 2000

    def setup(self, inputs: Path) -> None:
        from ecoinfer.aggregate import summarize
        from ecoinfer.synth import (builtin_configs, generate_ground_truth,
                                    with_overrides)
        self.truth = generate_ground_truth(with_overrides(
            builtin_configs(n=self.n)[0], seed=self.seed))
        self.spec = summarize(self.truth)
        self.head = np.arange(min(self.EXACT_ROWS, self.n))
        self.truth_head = self.truth.take(self.head)

    def run(self, out: Path):
        R = importlib.import_module("ecoinfer.reconstruct")
        S = importlib.import_module("ecoinfer.similarity")
        truth = self.truth
        binary = truth.schema.binary_columns()
        cs = R.generate_candidates(self.spec, self.N_CANDIDATES, self.DELTA,
                                   BASE_SEED)
        sims = []
        for cand in cs.candidates:
            matching = S.match_rows(truth, cand)
            sims.append([S.similarity(truth, cand, S.GREEDY_RANK, binary),
                         1.0 - matching.average_distance,
                         S.exact_match_fraction(truth, cand, matching)])
        R.save_candidates(cs, out / "candidates")
        loaded = R.load_candidates(out / "candidates")
        exact = S.match_rows(self.truth_head, cs.candidates[0].take(self.head),
                             S.EXACT_ASSIGNMENT, binary)
        return {"cs": cs, "loaded": loaded, "sims": sims,
                "exact": exact.average_distance}

    def outputs(self, out: Path, result) -> dict[str, bytes]:
        cs = result["cs"]
        record = {"seeds": [c.seed for c in cs.candidates],
                  "attempts_used": cs.attempts_used,
                  "similarity": [[repr(v) for v in row]
                                 for row in result["sims"]],
                  "exact_average_distance": repr(result["exact"])}
        return {"result.json": json.dumps(record, sort_keys=True).encode()}

    def invariants(self, out: Path, result) -> list[str]:
        cs, loaded = result["cs"], result["loaded"]
        problems = (margin_problems(self.spec, cs.candidates)
                    + separation_problems(cs.candidates, self.DELTA))
        if (loaded.candidates != cs.candidates
                or [c.seed for c in loaded.candidates]
                != [c.seed for c in cs.candidates]
                or loaded.attempts_used != cs.attempts_used):
            problems.append("loaded candidate set differs from the saved one")
        return problems


class CliWide(Workload):
    """The CLI chain on wide, nearly all-distinct rows.

    The spec is config 1's ATC schema plus three continuous labs, built
    through the public ``AggregateSpec`` API; at N=10,000 almost every row
    is distinct. Set-up writes ``spec.json`` and a ``truth.csv``. The timed
    chain is ``reconstruct --candidates 3`` -> ``train --trees 10`` ->
    ``predict --truth`` -> ``similarity``, run in-process through
    ``ecoinfer.cli.main`` with stdout captured. It uses ``forest`` for
    predict, JSON save and JSON load next to training and ``tabular`` for
    reads next to writes, and it is the no-repeat case for training on
    distinct rows. Ten trees instead of the CLI's default 50 keep an
    iteration near 2.5 s, so that a run holds about a dozen of them.
    """

    name = "cli-wide"
    why = ("CLI reconstruct/train/predict/similarity on wide all-distinct "
           "rows; forest save/load/predict and CSV reads, the no-repeat "
           "case for dedupe")
    # Every training row is distinct; 3 of 3 attempts accepted.
    MEASURED = {"forest.distinct_row_share": 1.0,
                "reconstruct.accept_ratio": 1.0}
    N_CANDIDATES = 3
    DELTA = 0.15  # the CLI's default
    TREES = 10
    LABS = (("LabA", 500.0, 200.0), ("LabB", 100.0, 40.0),
            ("LabC", 5000.0, 1500.0))

    def setup(self, inputs: Path) -> None:
        from ecoinfer.aggregate import AggregateSpec, ContinuousStat
        from ecoinfer.reconstruct import reconstruct
        from ecoinfer.synth import builtin_configs
        from ecoinfer.tabular import CONTINUOUS, FeatureSpec, Schema
        base = builtin_configs(n=self.n)[0].to_spec()
        labs = tuple(FeatureSpec(name, CONTINUOUS, unit="U/L")
                     for name, _, _ in self.LABS)
        schema = Schema(features=base.schema.features + labs,
                        outcome=base.schema.outcome)
        continuous = dict(base.continuous)
        continuous.update({name: ContinuousStat(mean, sd)
                           for name, mean, sd in self.LABS})
        self.spec = AggregateSpec(schema=schema, n=self.n,
                                  class_fraction=base.class_fraction,
                                  binary=dict(base.binary),
                                  continuous=continuous)
        inputs.mkdir(parents=True, exist_ok=True)
        self.spec_path = inputs / "spec.json"
        self.truth_path = inputs / "truth.csv"
        self.spec.to_json(self.spec_path)
        self.truth = reconstruct(self.spec, self.seed)
        self.truth.to_csv(self.truth_path)

    def run(self, out: Path):
        cli = importlib.import_module("ecoinfer.cli")
        cands = out / "candidates"
        model = out / "model.json"
        steps = [
            ["reconstruct", str(self.spec_path), "--candidates",
             str(self.N_CANDIDATES), "--seed", str(self.seed),
             "--out", str(cands)],
            ["train", *[str(cands / f"candidate_{k}.csv")
                        for k in range(self.N_CANDIDATES)],
             "--trees", str(self.TREES), "--seed", str(self.seed + 1),
             "--out", str(model)],
            ["predict", str(model), str(self.truth_path), "--truth",
             "--out", str(out / "preds.csv")],
            ["similarity", str(self.truth_path), str(cands / "candidate_0.csv"),
             "--out", str(out / "sim.json")],
        ]
        # Keep the ensemble `train` saves, to check that the model loaded
        # back from JSON predicts exactly what the trained one does.
        trained = []
        save = cli.save_ensemble

        def keep(ensemble, path):
            trained.append(ensemble)
            return save(ensemble, path)

        cli.save_ensemble = keep
        codes, printed = [], []
        try:
            for argv in steps:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(cli.main(argv))
                printed.append(buf.getvalue())
        finally:
            cli.save_ensemble = save
        return {"codes": codes, "printed": printed, "trained": trained}

    def outputs(self, out: Path, result) -> dict[str, bytes]:
        names = [f"candidates/candidate_{k}.csv"
                 for k in range(self.N_CANDIDATES)]
        files = _files(out, names + ["preds.csv", "sim.json"])
        files["predict stdout"] = result["printed"][2].encode()
        return files

    def invariants(self, out: Path, result) -> list[str]:
        from ecoinfer.forest import ensemble_predict
        problems = [f"cli step {k} exited {code}"
                    for k, code in enumerate(result["codes"]) if code != 0]
        if problems:
            return problems
        cands = _read_candidates(out / "candidates", self.N_CANDIDATES)
        problems += margin_problems(self.spec, cands)
        problems += separation_problems(cands, self.DELTA)
        preds = np.loadtxt(out / "preds.csv", skiprows=1, dtype=np.int64,
                           ndmin=1)
        if len(result["trained"]) != 1 or not np.array_equal(
                ensemble_predict(result["trained"][0], self.truth), preds):
            problems.append("loaded ensemble predicts differently from the "
                            "trained one")
        return problems


WORKLOADS = {w.name: w for w in (ExperimentC1, SeparationC1, CliWide)}
