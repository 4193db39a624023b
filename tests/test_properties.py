"""Property tests: CSV and spec JSON round trips, exact margins and cells
through reconstruction, a truncated-normal draw that always ends for
every spec AggregateSpec accepts, and reports that do not depend on the
truth's row order."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContinuousStat,
                                contingency_table, summarize)
from ecoinfer.forest import ForestParams
from ecoinfer.pipeline import ExperimentPlan, run_experiment
from ecoinfer.reconstruct import InfeasibleSpecError, reconstruct, solve_cells
from ecoinfer.synth import builtin_configs, generate_ground_truth
from ecoinfer.tabular import (CONTINUOUS, Dataset, FeatureSpec, Schema,
                              json_text, write_json)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

MIXED = Schema(features=(FeatureSpec("flag"), FeatureSpec("value", CONTINUOUS)),
               outcome=FeatureSpec("y"))
finite = st.floats(allow_nan=False, allow_infinity=False)
awkward = st.sampled_from([-0.0, 1e-300, 1e300, -1e300, 5e-324])


@PROPERTY
@given(rows=st.lists(st.tuples(st.integers(0, 1), finite | awkward,
                               st.integers(0, 1)), max_size=20),
       seed=st.none() | st.integers(0, 2 ** 63 - 1))
def test_csv_round_trip_is_identity(rows, seed):
    columns = {name: [row[j] for row in rows]
               for j, name in enumerate(MIXED.column_names)}
    ds = Dataset(MIXED, columns, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
    assert (back.schema, back.seed) == (ds.schema, ds.seed)
    for name in MIXED.column_names:  # bitwise, so -0.0 stays -0.0
        assert back.column(name).dtype == ds.column(name).dtype
        assert back.column(name).tobytes() == ds.column(name).tobytes()


fraction = st.floats(0.05, 0.95)


@PROPERTY
@given(n=st.integers(20, 400), r1=fraction,
       stats=st.lists(st.tuples(st.floats(0.2, 20.0), fraction),
                      min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32))
def test_reconstruction_keeps_counts_and_cells(n, r1, stats, seed):
    names = [f"x{k}" for k in range(len(stats))]
    try:
        cells = {name: solve_cells(o, r1, f, n)
                 for name, (o, f) in zip(names, stats)}
    except InfeasibleSpecError:
        reject()
    schema = Schema(features=(*map(FeatureSpec, names),
                              FeatureSpec("Age", CONTINUOUS)),
                    outcome=FeatureSpec("Dead"))
    spec = AggregateSpec(schema=schema, n=n, class_fraction=r1,
                         binary={name: BinaryStat(o, f)
                                 for name, (o, f) in zip(names, stats)},
                         continuous={"Age": ContinuousStat(36.0, 19.0)})
    ds = reconstruct(spec, seed)
    assert int(np.count_nonzero(ds.outcome == 0)) == round(r1 * n)
    for name in names:
        assert contingency_table(ds, name).as_tuple() == cells[name].l_int
    if all(min(sol.l_int) > 0 for sol in cells.values()):
        back = summarize(ds)
        assert round(back.class_fraction * n) == round(r1 * n)
        for name in names:
            l1, l2, l3, l4 = cells[name].l_int
            assert round(back.binary[name].occurrence_fraction * n) == l1 + l2
            assert back.binary[name].odds_ratio == (l1 * l4) / (l2 * l3)


@PROPERTY
@given(mean=finite, stddev=st.floats(0, 1.79e308), n=st.integers(1, 50),
       seed=st.integers(0, 2 ** 32))
def test_finite_moments_reconstruct_or_raise(mean, stddev, n, seed):
    schema = Schema(features=(FeatureSpec("Age", CONTINUOUS),),
                    outcome=FeatureSpec("Dead"))
    try:
        spec = AggregateSpec(schema=schema, n=n, class_fraction=0.5,
                             continuous={"Age": ContinuousStat(mean, stddev)})
    except ValueError as e:
        assert mean < 0 and "mean[Age]" in str(e)
        return
    assert mean >= 0  # the spec refuses exactly the negative means
    ages = reconstruct(spec, seed).column("Age")  # and every other one draws
    assert np.isfinite(ages).all() and (ages >= 0).all()


def numbers(lo, hi):
    """Python and numpy numbers from lo to hi, integers too if any fit."""
    x = st.floats(lo, hi)
    found = x | x.map(np.float32) | x.map(np.float64)
    if math.ceil(lo) <= math.floor(hi):
        k = st.integers(math.ceil(lo), math.floor(hi))
        found |= k | k.map(np.int64)
    return found


def statistic(inside, outside):
    """A value a spec field may or may not hold: a number of any kind
    inside its interval, a plain float outside it, something that is not a
    number, or a (lo, hi) pair of plain floats, in either order. Only plain
    values are ever refused, so the error spells them as their JSON does."""
    plain = outside | st.sampled_from([math.nan, math.inf, True, "0.1", None])
    end = plain | st.floats(0.05, 0.95)
    return inside | plain | st.tuples(end, end)


fractions = statistic(numbers(0.05, 0.95), st.floats(-2, 0) | st.floats(1, 2))
moments = statistic(numbers(0, 100), st.floats(-100, -1e-9))


@PROPERTY
@given(r1=fractions, o=statistic(numbers(0.05, 50), st.floats(-50, 0)),
       f=fractions, mean=moments, sd=moments)
def test_spec_json_round_trip(r1, o, f, mean, sd):
    schema = Schema(features=(FeatureSpec("x"),
                              FeatureSpec("Age", CONTINUOUS)),
                    outcome=FeatureSpec("Dead"))
    try:
        spec = AggregateSpec(schema=schema, n=200, class_fraction=r1,
                             binary={"x": BinaryStat(o, f)},
                             continuous={"Age": ContinuousStat(mean, sd)})
    except ValueError as e:
        spec, refused = None, str(e)

    def enc(v):
        return list(v) if isinstance(v, tuple) else v

    doc = {"n": 200, "class_fraction": enc(r1), "schema": schema.to_dict(),
           "features": [{"name": "x", "kind": "binary", "odds_ratio": enc(o),
                         "occurrence_fraction": enc(f)},
                        {"name": "Age", "kind": "continuous",
                         "mean": enc(mean), "stddev": enc(sd)}]}
    with tempfile.TemporaryDirectory() as tmp:
        path, saved = Path(tmp) / "doc.json", Path(tmp) / "spec.json"
        write_json(doc, path)
        if spec is None:
            with pytest.raises(ValueError) as err:
                AggregateSpec.from_json(path)
            assert str(err.value) == f"{path}: {refused}"
            return
        spec.to_json(saved)
        assert saved.read_bytes() == path.read_bytes()
        assert AggregateSpec.from_json(saved) == spec


# the greedy matching pairs rows by rank, ties in row order
GREEDY_KEYS = ("similarity_binary", "similarity_all", "exact_match",
               "similarity_stats")


@settings(max_examples=10, deadline=None, derandomize=True)
@given(config=st.integers(0, 9), order=st.integers(0, 2 ** 32))
def test_row_order_of_the_truth_changes_only_greedy_keys(config, order):
    truth = generate_ground_truth(builtin_configs(n=1000)[config])
    shuffled = truth.take(
        np.random.default_rng(order).permutation(truth.n_rows))

    def run(data):
        spec = summarize(data)
        with tempfile.TemporaryDirectory() as tmp:
            report = run_experiment(ExperimentPlan(
                spec=spec, ground_truth=data, n_candidates=2,
                forest=ForestParams(n_trees=3), out_dir=Path(tmp)))
            candidates = {path.name: path.read_bytes() for path in
                          sorted((Path(tmp) / "candidates").iterdir())}
        kept = {k: v for k, v in report.to_dict().items()
                if k not in GREEDY_KEYS}
        return json_text(spec.to_dict()), candidates, json_text(kept)

    assert run(shuffled) == run(truth)
