"""Acceptance suite: twelve end-to-end criteria, one test each.

Each passing criterion contributes a single `CRITERION nn PASS` line to the
terminal summary; a failing criterion shows up as a FAILED test for that
criterion number instead. The expensive full-size experiment runs are
shared across criteria through session-scoped fixtures.
"""

import itertools

import numpy as np
import pytest

import conftest

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContingencyTable,
                                contingency_table, odds_ratio, summarize)
from ecoinfer.forest import ForestParams
from ecoinfer.pipeline import (ExperimentPlan, run_controlled_sweep,
                               run_experiment, run_undersampling_sweep)
from ecoinfer.reconstruct import generate_candidates, reconstruct, solve_cells
from ecoinfer.similarity import (EXACT_ASSIGNMENT, GREEDY_RANK, IDENTITY,
                                 joint_normalize, match_rows)
from ecoinfer.synth import builtin_configs, generate_ground_truth
from ecoinfer.tabular import Dataset, FeatureSpec, Schema

from conftest import dataset_from_rows, small_schema


def _pass(num: int, detail: str) -> None:
    conftest.acceptance_lines.append(f"CRITERION {num:02d} PASS: {detail}")


def _plan(config, **overrides):
    defaults = dict(config=config, workers=1)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


@pytest.fixture(scope="session")
def config_1_dir(tmp_path_factory):
    """Where full_reports writes config 1's run."""
    return tmp_path_factory.mktemp("det") / "w1"


@pytest.fixture(scope="session")
def full_reports(config_1_dir):
    """One default full-size experiment per builtin config; config 1's
    writes its files to config_1_dir."""
    return [run_experiment(_plan(cfg, out_dir=None if k else config_1_dir))
            for k, cfg in enumerate(builtin_configs())]


@pytest.fixture(scope="session")
def undersampling_reports():
    rates = [round(0.1 * k, 1) for k in range(1, 11)]
    return rates, run_undersampling_sweep(_plan(builtin_configs()[0]), rates)


def test_criterion_01_odds_ratio_example():
    value = odds_ratio(ContingencyTable(579, 2415, 489, 7307))
    assert value == pytest.approx(3.58, abs=0.01)
    _pass(1, f"odds ratio of the reference table = {value:.4f} (3.58 +/- .01)")


def test_criterion_02_solver_recovers_reference_table():
    sol = solve_cells(3.58, 1068 / 10790, 2994 / 10790, 10790)
    assert sol.l_int == (579, 2415, 489, 7307)
    _pass(2, f"solver cells {sol.l_int} match the reference table exactly")


def test_criterion_03_matching_example(table_s1, table_s2):
    ident = match_rows(table_s1, table_s2, IDENTITY)
    assert ident.average_distance == 0.375
    exact = match_rows(table_s1, table_s2, EXACT_ASSIGNMENT)
    assert exact.average_distance == 0.125
    # canonical optimal mapping 1->3, 2->4, 3->1, 4->2 (0-indexed
    # (2, 3, 0, 1)); rows 1 and 3 of the second table are identical, so
    # swapping their preimages is equivalent
    assert tuple(exact.permutation) in {(2, 3, 0, 1), (0, 3, 2, 1)}
    _pass(3, "identity avg distance 0.375, optimal 0.125 with the "
             "canonical mapping")


def test_criterion_04_margin_exactness_property():
    rng = np.random.default_rng(2024)
    schema = small_schema(1, names=("x",))
    checked_or = 0
    worst = 0.0
    for _ in range(1000):
        o = float(rng.uniform(1, 10))
        r1 = float(rng.uniform(0.05, 0.5))
        f = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(100, 10001))
        spec = AggregateSpec(schema=schema, n=n, class_fraction=r1,
                             binary={"x": BinaryStat(o, f)})
        ds = reconstruct(spec, seed=int(rng.integers(0, 2**31)))
        assert int((ds.outcome == 0).sum()) == round(r1 * n)
        assert int((ds.column("x") == 0).sum()) == round(f * n)
        if n >= 5000:
            t = contingency_table(ds, "x")
            dev = abs(odds_ratio(t) - o) / o
            worst = max(worst, dev)
            checked_or += 1
            assert dev <= 0.02
    assert checked_or > 100
    _pass(4, f"1000 specs: margins exact; worst OR deviation "
             f"{worst:.4f} <= 0.02 over {checked_or} specs with N >= 5000")


def test_criterion_05_delta_separation():
    worst = 1.0
    for cfg in builtin_configs():
        truth = generate_ground_truth(cfg)
        spec = summarize(truth)
        cs = generate_candidates(spec, 9, 0.15, base_seed=2000)
        cols = truth.schema.binary_columns()
        for a, b in itertools.combinations(cs.candidates, 2):
            d = match_rows(a, b, GREEDY_RANK, cols).average_distance
            worst = min(worst, d)
            assert d >= 0.15
    _pass(5, f"10 configs x 36 pairs: min pairwise greedy distance "
             f"{worst:.4f} >= 0.15")


def test_criterion_06_similarity_reproduction(full_reports):
    rep = full_reports[0]
    sims = rep.similarity_binary
    avg, spread = sum(sims) / len(sims), max(sims) - min(sims)
    assert 0.75 <= avg <= 0.88
    assert spread <= 0.03
    em = sum(rep.exact_match) / len(rep.exact_match)
    assert 0.05 <= em <= 0.45
    _pass(6, f"config 1: avg binary similarity {avg:.4f} in [0.75, 0.88], "
             f"spread {spread:.4f} <= 0.03, exact-match {em:.4f} in "
             f"[0.05, 0.45]")


def test_criterion_07_hungarian_oracle_equivalence():
    rng = np.random.default_rng(7)
    schema = small_schema(3, names=("a", "b", "c"))

    def pair(n):
        return (dataset_from_rows(schema, rng.integers(0, 2, (n, 4))),
                dataset_from_rows(schema, rng.integers(0, 2, (n, 4))))

    for _ in range(200):
        n = int(rng.integers(2, 8))
        a, b = pair(n)
        m = match_rows(a, b, EXACT_ASSIGNMENT)
        na, nb = joint_normalize(a, b)
        best = min(sum(np.abs(na[i] - nb[p[i]]).sum() / na.shape[1]
                       for i in range(n))
                   for p in itertools.permutations(range(n)))
        assert m.total_distance == pytest.approx(best)
    for _ in range(50):
        n = int(rng.integers(10, 101))
        a, b = pair(n)
        exact = match_rows(a, b, EXACT_ASSIGNMENT).average_distance
        greedy = match_rows(a, b, GREEDY_RANK).average_distance
        ident = match_rows(a, b, IDENTITY).average_distance
        assert exact <= greedy + 1e-12
        assert exact <= ident + 1e-12
    _pass(7, "200 exhaustive-minimum matches and 50 instance-wise "
             "inequality checks hold")


def test_criterion_08_end_to_end_predictive_bands(full_reports):
    accs = [r.ensemble_metrics["accuracy"] for r in full_reports]
    recalls = [r.ensemble_metrics["recall"] for r in full_reports]
    assert all(0.70 <= a <= 0.95 for a in accs)
    assert recalls[0] <= 0.40
    assert recalls[9] >= 0.65
    assert recalls[9] > recalls[0]
    _pass(8, f"10 configs: accuracy in [{min(accs):.3f}, {max(accs):.3f}] "
             f"within [0.70, 0.95]; recall {recalls[0]:.3f} <= 0.40 at "
             f"config 1 and {recalls[9]:.3f} >= 0.65 at config 10")


def test_criterion_09_undersampling_trend(undersampling_reports):
    rates, reports = undersampling_reports
    recalls = [r.ensemble_metrics["recall"] for r in reports]
    accs = [r.ensemble_metrics["accuracy"] for r in reports]
    best = int(np.argmax(recalls))
    assert 0.1 <= rates[best] <= 0.4
    assert recalls[best] - recalls[-1] >= 0.15
    assert accs[-1] > accs[best]
    _pass(9, f"config 1: recall peaks at rate {rates[best]:g} "
             f"({recalls[best]:.3f} vs {recalls[-1]:.3f} at 1.0); "
             f"accuracy {accs[-1]:.3f} at 1.0 > {accs[best]:.3f}")


def test_criterion_10_controlled_sweeps(full_reports):
    base = builtin_configs()[0]
    plan = _plan(base)
    values = [0.1, 0.2, 0.3, 0.4, 0.5]

    def sweep(parameter, values):
        """run_controlled_sweep, except that the point at config 1's own
        value is its full report, the same experiment, not run again."""
        own = getattr(base, parameter)
        rest = iter(run_controlled_sweep(plan, parameter,
                                         [v for v in values if v != own]))
        return [full_reports[0] if v == own else next(rest) for v in values]

    doa = sweep("doa_fraction", values)
    rec = [r.ensemble_metrics["recall"] for r in doa]
    acc = [r.ensemble_metrics["accuracy"] for r in doa]
    assert all(b >= a - 0.03 for a, b in zip(rec, rec[1:]))
    assert max(acc) - acc[0] <= 0.03

    ors = sweep("pt_or", [2, 4, 6, 8, 10])
    prec = [r.ensemble_metrics["precision"] for r in ors]
    assert prec[-1] >= prec[0]

    frac = sweep("pt_fraction", values)
    facc = [r.ensemble_metrics["accuracy"] for r in frac]
    assert max(facc) - min(facc) <= 0.05
    _pass(10, f"DOA sweep recall {rec[0]:.3f}->{rec[-1]:.3f} monotone, "
              f"accuracy rise {max(acc) - acc[0]:.3f} <= 0.03; PT OR "
              f"precision {prec[0]:.3f}->{prec[-1]:.3f}; PT fraction "
              f"accuracy range {max(facc) - min(facc):.3f} <= 0.05")


def test_criterion_11_coverage_property():
    schema = Schema(features=(FeatureSpec("F1"), FeatureSpec("F2"),
                              FeatureSpec("F3")),
                    outcome=FeatureSpec("Dead"))
    spec = AggregateSpec(
        schema=schema, n=30, class_fraction=0.3,
        binary={"F1": BinaryStat(2.0, 0.4), "F2": BinaryStat(3.0, 0.3),
                "F3": BinaryStat(2.0, 0.5)})
    truth = reconstruct(spec, seed=99)
    truth_rows = {tuple(r) for r in truth.to_matrix().astype(int)}
    cs = generate_candidates(spec, 200, 0.05, base_seed=7,
                             max_attempts=10_000)
    covered: set = set()
    coverage = []
    for cand in cs.candidates:
        covered |= truth_rows & {tuple(r)
                                 for r in cand.to_matrix().astype(int)}
        coverage.append(len(covered) / len(truth_rows))
    assert all(b >= a for a, b in zip(coverage, coverage[1:]))
    assert coverage[-1] == 1.0
    first_full = coverage.index(1.0) + 1
    _pass(11, f"coverage of {len(truth_rows)} distinct truth rows is "
              f"non-decreasing and reaches 1.0 by n = {first_full} <= 200")


def test_criterion_12_determinism_across_workers(full_reports, config_1_dir,
                                                 tmp_path_factory):
    # full_reports ran config 1 with 1 worker into config_1_dir
    out1 = config_1_dir
    out8 = tmp_path_factory.mktemp("det") / "w8"
    run_experiment(_plan(builtin_configs()[0], out_dir=out8, workers=8))
    names = ["report.json", "fig4_similarity.csv", "fig5_metrics.csv",
             "predictions.csv", "ground_truth.csv"]
    for name in names:  # timings.json is wall-clock and excluded by design
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
    _pass(12, "config 1 reports byte-identical at worker counts 1 and 8")
