"""Property tests: CSV round trips, exact margins and cells through
reconstruction, and a truncated-normal draw that always ends for every
spec AggregateSpec accepts."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContinuousStat,
                                contingency_table, summarize)
from ecoinfer.reconstruct import InfeasibleSpecError, reconstruct, solve_cells
from ecoinfer.tabular import CONTINUOUS, Dataset, FeatureSpec, Schema

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
            l1, l2, _, _ = cells[name].l_int
            assert round(back.binary[name].occurrence_fraction * n) == l1 + l2
            assert back.binary[name].odds_ratio == cells[name].achieved_or


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
