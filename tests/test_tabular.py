import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContinuousStat,
                                contingency_table, summarize)
from ecoinfer.forest import ForestParams, ensemble_labels, train_ensemble
from ecoinfer.pipeline import ExperimentPlan
from ecoinfer.reconstruct import generate_candidates, reconstruct, solve_cells
from ecoinfer.similarity import _rank_binary
from ecoinfer.synth import (builtin_configs, generate_ground_truth,
                            with_overrides)
from ecoinfer.tabular import (BINARY, CONTINUOUS, Dataset, FeatureSpec, Schema,
                              SchemaError, check_real, distinct_rows,
                              json_text, sidecar_path, undersample,
                              write_columns)

from conftest import dataset_from_rows, small_schema


def mixed_schema():
    return Schema(
        features=(FeatureSpec("flag"), FeatureSpec("value", CONTINUOUS)),
        outcome=FeatureSpec("y"),
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(features=(FeatureSpec("a"), FeatureSpec("a")),
                   outcome=FeatureSpec("y"))

    def test_outcome_must_be_binary(self):
        with pytest.raises(SchemaError):
            Schema(features=(FeatureSpec("a"),),
                   outcome=FeatureSpec("y", CONTINUOUS))

    def test_outcome_cannot_repeat_a_feature(self):
        with pytest.raises(SchemaError):
            Schema(features=(FeatureSpec("y"),), outcome=FeatureSpec("y"))


class TestValidate:
    """The constructor checks cell values before casting them."""

    def test_candidate_table_ok(self, table_s1):
        # float 0.0/1.0 cells, as a CSV read gives them, are exact binaries
        floats = {n: c.astype(np.float64) for n, c in table_s1.columns.items()}
        ds = Dataset(table_s1.schema, floats)
        assert ds == table_s1
        assert ds.column("PTT").dtype == np.int8

    @pytest.mark.parametrize("columns, says", [
        ({"flag": [0, 1], "y": [0, 1]}, "missing column 'value'"),
        ({"flag": [0, 1], "value": [1.5], "y": [0, 1]},
         "ragged columns: lengths [1, 2]"),
    ], ids=["missing", "ragged"])
    def test_every_column_of_one_length(self, columns, says):
        with pytest.raises(SchemaError, match=re.escape(says) + "$"):
            Dataset(mixed_schema(), columns)

    def test_binary_value_out_of_range(self):
        schema = small_schema(1, names=("x",))
        for bad in (2, 0.7, -1, np.nan):
            with pytest.raises(SchemaError, match=r"'x' row 1: .* binary"):
                Dataset(schema, {"x": [0, bad, 1], "Dead": [0, 1, 1]})

    def test_empty_dataset_ok(self):
        schema = small_schema(1, names=("x",))
        ds = Dataset(schema, {"x": [], "Dead": []})
        assert ds.n_rows == 0

    def test_non_finite_continuous_flagged(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(SchemaError,
                               match=r"'value' row 1: .* continuous cell"):
                Dataset(mixed_schema(), {"flag": [0, 1], "value": [1.0, bad],
                                         "y": [0, 1]})


def imbalanced_dataset():
    schema = small_schema(1, names=("x",))
    y = np.concatenate([np.zeros(10, dtype=int), np.ones(90, dtype=int)])
    return Dataset(schema, {"x": np.zeros(100, dtype=int), "Dead": y})


class TestUndersample:
    def test_counts(self):
        out = undersample(imbalanced_dataset(), rate=0.1, seed=0)
        y = out.outcome
        assert int((y == 0).sum()) == 10
        assert int((y == 1).sum()) == 9

    def test_rate_one_is_identity(self):
        ds = imbalanced_dataset()
        assert undersample(ds, 1.0, seed=123) == ds

    def test_seed_determinism(self):
        ds = imbalanced_dataset()
        a = undersample(ds, 0.3, seed=7)
        b = undersample(ds, 0.3, seed=7)
        assert a == b

    def test_minority_rows_never_removed(self):
        ds = imbalanced_dataset()
        for seed in range(5):
            out = undersample(ds, 0.2, seed=seed)
            assert int((out.outcome == 0).sum()) == 10

    def test_size_formula(self):
        ds = imbalanced_dataset()
        for rate in (0.13, 0.5, 0.77):
            out = undersample(ds, rate, seed=1)
            assert out.n_rows == 10 + int(rate * 90)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            undersample(imbalanced_dataset(), 0.0, seed=0)
        with pytest.raises(ValueError):
            undersample(imbalanced_dataset(), 1.5, seed=0)

    @pytest.mark.parametrize("zeros, ones, majority",
                             [(10, 90, 1), (90, 10, 0), (50, 50, 1)])
    def test_majority_class_worked_out(self, zeros, ones, majority):
        y = np.repeat([0, 1], [zeros, ones])
        ds = Dataset(small_schema(1, names=("x",)),
                     {"x": np.zeros(y.size, dtype=int), "Dead": y})
        out = undersample(ds, 0.5, seed=0).outcome
        counts = {0: zeros, 1: ones}
        assert int((out == majority).sum()) == int(0.5 * counts[majority])
        assert int((out != majority).sum()) == counts[1 - majority]

    def test_row_order_preserved(self):
        # carry the original row index in a continuous column and check it
        # stays strictly increasing after undersampling
        schema = Schema(features=(FeatureSpec("idx", CONTINUOUS),),
                        outcome=FeatureSpec("Dead"))
        y = np.concatenate([np.zeros(10, dtype=int), np.ones(90, dtype=int)])
        ds = Dataset(schema, {"idx": np.arange(100.0), "Dead": y})
        out = undersample(ds, 0.5, seed=4)
        idx = out.column("idx")
        assert out.n_rows == 55
        assert (np.diff(idx) > 0).all()


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = Dataset(mixed_schema(), {"flag": [0, 1, 1],
                                      "value": [1.5, -2.25, 36.0],
                                      "y": [1, 0, 1]})
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        assert back == ds
        assert back.schema == ds.schema

    def test_deterministic_bytes(self, tmp_path):
        ds = Dataset(mixed_schema(), {"flag": [0, 1], "value": [0.1, 0.2],
                                      "y": [1, 0]})
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        ds.to_csv(p1)
        ds.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_exact_bytes(self, tmp_path):
        # binary cells print as ints, continuous cells as repr(float)
        ds = Dataset(mixed_schema(), {"flag": [0, 1, 1, 0],
                                      "value": [0.1, 1e-300, -0.0, 1 / 3],
                                      "y": [1, 0, 0, 1]})
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        assert path.read_bytes() == (b"flag,value,y\n0,0.1,1\n1,1e-300,0\n"
                                     b"1,-0.0,0\n0,0.3333333333333333,1\n")

    def test_header_only(self, tmp_path):
        # no rows, and no warning from the parser
        ds = Dataset(mixed_schema(), {"flag": [], "value": [], "y": []})
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        assert Dataset.from_csv(path) == ds

    def test_blank_lines_skipped(self, tmp_path):
        ds = Dataset(mixed_schema(), {"flag": [0, 1], "value": [0.5, 2.0],
                                      "y": [1, 0]})
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        head, first, second = path.read_text().splitlines()
        path.write_text(f"{head}\n\n{first}\n \t\n{second}\n\n")
        assert Dataset.from_csv(path) == ds


def reference_write_columns(path, header, columns, formats):
    """The row-by-row writer write_columns replaced: every row formatted."""
    row = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % cells
                      for cells in zip(*(np.asarray(c).tolist()
                                         for c in columns)))


class TestWriteColumns:
    """write_columns formats each distinct row once and writes the bytes
    the row-by-row writer wrote."""

    @staticmethod
    def tables():
        rng = np.random.default_rng(23)
        yield "signed-zero", [rng.choice([-0.0, 0.0, 1.5], 60),
                              rng.integers(0, 2, 60)], ["%r", "%d"]
        yield "repeated", [rng.integers(0, 2, 300), rng.integers(0, 2, 300),
                           np.round(rng.normal(40, 15, 300)),
                           rng.integers(0, 2, 300)], ["%d", "%d", "%r", "%d"]
        yield "all-distinct", [rng.normal(0, 1, 80), rng.random(80),
                               rng.integers(0, 2, 80)], ["%r", "%r", "%d"]
        yield "one-column", [rng.integers(0, 2, 40)], ["%d"]
        yield "no-rows", [np.empty(0), np.empty(0, dtype=np.int64)], \
            ["%r", "%d"]

    @pytest.mark.parametrize("case", [name for name, *_ in tables()])
    def test_same_bytes_as_row_by_row(self, tmp_path, case):
        columns, formats = next((c, f) for name, c, f in self.tables()
                                if name == case)
        header = [f"c{j}" for j in range(len(columns))]
        write_columns(tmp_path / "got.csv", header, columns, formats)
        reference_write_columns(tmp_path / "want.csv", header, columns,
                                formats)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()
        if case == "signed-zero":
            cells = {line.split(",")[0] for line in
                     (tmp_path / "got.csv").read_text().splitlines()[1:]}
            assert cells == {"-0.0", "0.0", "1.5"}


class TestCsvErrors:
    # line 4 of a file whose line 3 is blank; what the error must name
    @pytest.mark.parametrize("line, named", [
        ("0,1.5", "line 4: 2 cells, not 3"),
        ('0,"1.0",1', "line 4, column 'value': '\"1.0\"' is not a valid "
                      "continuous cell"),
        ("0.7,1.5,1", "line 4, column 'flag': '0.7' is not a valid binary "
                      "cell"),
        ("0,1.5,2", "line 4, column 'y': '2' is not a valid binary cell"),
        ("0,nan,1", "line 4, column 'value': 'nan' is not a valid continuous "
                    "cell"),
        ("0,1_0,1", "line 4, column 'value': '1_0' is not a valid continuous "
                    "cell"),
    ], ids=["ragged", "quoted", "binary-0.7", "binary-2", "nan",
            "digit-separator"])
    def test_names_file_and_line(self, tmp_path, line, named):
        path = tmp_path / "data.csv"
        Dataset(mixed_schema(), {"flag": [0], "value": [1.5],
                                 "y": [1]}).to_csv(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"\n{line}\n")
        with pytest.raises(SchemaError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == f"{path}: {named}"


    def test_header_must_be_the_schemas(self, tmp_path):
        path = tmp_path / "data.csv"
        Dataset(mixed_schema(), {"flag": [0], "value": [1.5],
                                 "y": [1]}).to_csv(path)
        path.write_text(path.read_text().replace("flag,value", "value,flag"))
        with pytest.raises(SchemaError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == (
            f"{path}: line 1: header ['value', 'flag', 'y'] does not match "
            "schema ['flag', 'value', 'y']")

    def test_sidecar_kind_must_be_known(self, tmp_path):
        path = tmp_path / "data.csv"
        Dataset(mixed_schema(), {"flag": [0], "value": [1.5],
                                 "y": [1]}).to_csv(path)
        sidecar = sidecar_path(path)
        sidecar.write_text(sidecar.read_text().replace('"continuous"',
                                                       '"ordinal"'))
        with pytest.raises(SchemaError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == \
            f"{sidecar}: unknown feature kind 'ordinal' for 'value'"


class TestDistinctRows:
    """distinct_rows groups rows as np.unique(axis=0) does, in its order."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(17)
        yield "repeated", rng.integers(0, 3, (200, 4)).astype(float)
        yield "distinct", rng.normal(0, 1, (50, 3))
        yield "mixed", np.column_stack([rng.integers(0, 2, (300, 2)),
                                        np.round(rng.normal(0, 2, 300))])
        # -0.0 and 0.0 are one value; so are rows that differ only there
        yield "signed-zero", np.column_stack([
            rng.choice([-0.0, 0.0, 5e-324, 1.0], 100),
            rng.integers(0, 2, 100)])
        # the column cardinalities multiply past 2**62, so the row key is
        # renumbered on the way; rows repeat, some differing only in the
        # sign of a zero
        base = rng.normal(0, 1, (2000, 6))
        yield "past-2**62", np.column_stack([
            base[rng.integers(0, 2000, 5000)],
            rng.choice([-0.0, 0.0, 1.0], 5000)])
        yield "one-row", np.array([[1.5, -2.0]])
        yield "no-rows", np.empty((0, 3))

    @staticmethod
    def column_sets():
        """Integer and bool columns, coded without a sort where their range
        is below their length."""
        rng = np.random.default_rng(23)
        yield "int8", list(rng.integers(0, 2, (3, 300), dtype=np.int8))
        yield "bool", [rng.integers(0, 2, 300).astype(bool),
                       rng.integers(0, 2, 300, dtype=np.int8)]
        # -100..100 in int8: column - min wraps in int8
        yield "negative-int", [rng.integers(-100, 101, 500, dtype=np.int8),
                               rng.integers(-3, 0, 500)]
        # a range wider than the length, up to the ends of int64
        yield "wide-int64", [
            np.append(rng.integers(-2 ** 62, 2 ** 62, 98),
                      [-2 ** 63, 2 ** 63 - 1])[rng.integers(0, 100, 300)],
            rng.integers(0, 2, 300, dtype=np.int8)]

    @staticmethod
    def check_grouping(columns):
        X = np.column_stack(columns)
        rep, inverse = distinct_rows(columns)
        rows, expected = np.unique(X, axis=0, return_inverse=True)
        assert np.array_equal(inverse, expected.ravel())
        assert np.array_equal(X[rep], rows)
        assert np.array_equal(X[rep][inverse], X)
        assert rep.dtype == inverse.dtype == np.int64

    @pytest.mark.parametrize("case", [name for name, _ in matrices()])
    def test_same_grouping_as_unique_rows(self, case):
        self.check_grouping(list(dict(self.matrices())[case].T))

    @pytest.mark.parametrize("case", [name for name, _ in column_sets()])
    def test_integer_columns_group_as_unique_rows(self, case):
        self.check_grouping(dict(self.column_sets())[case])

    def test_past_2_62_case_renumbers_and_repeats(self):
        X = dict(self.matrices())["past-2**62"]
        assert math.prod(len(np.unique(c)) for c in X.T) >= 2 ** 62
        # -0.0 and 0.0 fall into one group, which bit patterns would split
        assert len(distinct_rows(list(X.T))[0]) < len(
            np.unique(X.view(np.int64), axis=0)) < len(X)

    @pytest.mark.parametrize("columns", [
        np.zeros((7, 3)), [np.zeros((7, 3))], [np.zeros(7), np.zeros((7, 1))],
    ], ids=["matrix", "2-D-column", "one-2-D-column"])
    def test_refuses_a_2d_column(self, columns):
        with pytest.raises(ValueError, match="1-D columns"):
            distinct_rows(columns)

    def test_refuses_no_columns(self):
        with pytest.raises(ValueError, match="at least one column"):
            distinct_rows([])

    def test_refuses_ragged_columns(self):
        with pytest.raises(ValueError, match=r"equal-length columns, got "
                                             r"lengths \[3, 2\]"):
            distinct_rows([np.zeros(3), np.zeros(2)])


class TestInt8Cells:
    """Binary cells are int8; nothing counts them in int8 or copies a
    dataset into an n x d matrix on the way."""

    def test_counts_past_the_int8_range(self):
        # 300 all-zero rows, and one row of each other (x, y) pattern so
        # the odds ratio is defined: l1 = 300, l2 = l3 = l4 = 1
        ds = dataset_from_rows(small_schema(1, names=("x",)),
                               [[0, 0]] * 300 + [[0, 1], [1, 0], [1, 1]])
        assert ds.column("x").dtype == ds.outcome.dtype == np.int8
        assert contingency_table(ds, "x").l1 == 300
        spec = summarize(ds)
        assert spec.binary["x"].odds_ratio == 300.0
        assert spec.class_fraction == spec.binary["x"].occurrence_fraction \
            == 301 / 303
        # 301 majority (class 0) rows, half of them kept, and both others
        assert undersample(ds, 0.5, seed=1).n_rows == 150 + 2
        ranked = _rank_binary([ds.column("x"), ds.outcome])
        assert np.count_nonzero(~ranked.any(axis=1)) == 300

    @pytest.fixture(scope="class")
    def big_candidate(self):
        spec = replace(summarize(generate_ground_truth(builtin_configs()[0])),
                       n=200_000)
        return reconstruct(spec, seed=2000)

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("stage", ["train", "labels", "to_csv"])
    def test_no_stage_copies_the_data_into_a_matrix(self, big_candidate,
                                                    stage, tmp_path):
        # two float64 n x d matrices of the features: 16 MB; copying the
        # data into such matrices peaked at 20-29 MB in these three calls
        n, d = big_candidate.n_rows, len(big_candidate.schema.feature_names)
        params = ForestParams(n_trees=1)
        if stage == "labels":
            forests = train_ensemble([big_candidate], params)
        call = {"train": lambda: train_ensemble([big_candidate], params),
                "labels": lambda: ensemble_labels(forests, big_candidate),
                "to_csv": lambda: big_candidate.to_csv(tmp_path / "c.csv"),
                }[stage]
        assert self.peak(call) < 2 * n * d * 8


def one_feature_spec(n=200):
    return AggregateSpec(schema=small_schema(1, names=("x",)), n=n,
                         class_fraction=0.5, binary={"x": BinaryStat(1.0, 0.5)})


def candidates(**arguments):
    generate_candidates(one_feature_spec(), **{
        "n_candidates": 1, "delta": 0.0, "max_attempts": 3, "base_seed": 1,
        **arguments})


def config_1(**fields):
    return replace(builtin_configs(n=200)[0], **fields)


# owner.parameter: (the name its error gives, the least value it takes or
# None for any integer, a call that hands it the value). Seeds at least 0
# go to numpy; base seeds are reduced modulo 2**63 first.
INTEGERS = {
    "AggregateSpec.n": ("n", 1, lambda v: one_feature_spec(n=v)),
    "solve_cells.n": ("n", 1, lambda v: solve_cells(2.0, 0.1, 0.5, v)),
    "ExperimentPlan.n_candidates": (
        "n_candidates", 1,
        lambda v: ExperimentPlan(config=config_1(), n_candidates=v)),
    "ExperimentPlan.workers": (
        "workers", 1, lambda v: ExperimentPlan(config=config_1(), workers=v)),
    "ExperimentPlan.base_seed": (
        "base_seed", None,
        lambda v: ExperimentPlan(config=config_1(), base_seed=v)),
    "generate_candidates.n_candidates": (
        "n_candidates", 1, lambda v: candidates(n_candidates=v)),
    "generate_candidates.max_attempts": (
        "max_attempts", 1, lambda v: candidates(max_attempts=v)),
    "generate_candidates.base_seed": (
        "base_seed", None, lambda v: candidates(base_seed=v)),
    "ForestParams.n_trees": ("n_trees", 1, lambda v: ForestParams(n_trees=v)),
    "ForestParams.max_depth": (
        "max_depth", 1, lambda v: ForestParams(max_depth=v)),
    "ForestParams.seed": ("seed", 0, lambda v: ForestParams(seed=v)),
    "GroundTruthConfig.seed": ("seed", 0, lambda v: config_1(seed=v)),
    "train_ensemble.workers": (
        "workers", 1,
        lambda v: train_ensemble([reconstruct(one_feature_spec(), 0)],
                                 ForestParams(n_trees=1), workers=v)),
}


class TestCheckInteger:
    @pytest.mark.parametrize("owner", INTEGERS)
    def test_every_count_and_seed_follows_the_rule(self, owner):
        name, least, call = INTEGERS[owner]
        refused = {2.5: "an integer, got 2.5", True: "an integer, got True"}
        if least is not None:
            refused[least - 1] = f">= {least}, got {least - 1}"
        for value, says in refused.items():
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be {says}") + "$"):
                call(value)
        call(np.int64(3))
        if least is None:
            call(-1)


def mixed_spec(class_fraction=0.5, odds_ratio=2.0, occurrence=0.5, mean=36.0,
               stddev=19.0):
    schema = Schema(features=(FeatureSpec("x"),
                              FeatureSpec("Age", CONTINUOUS)),
                    outcome=FeatureSpec("Dead"))
    return AggregateSpec(schema=schema, n=200, class_fraction=class_fraction,
                         binary={"x": BinaryStat(odds_ratio, occurrence)},
                         continuous={"Age": ContinuousStat(mean, stddev)})


# owner.parameter: (the name its error gives, the interval as the error
# writes it, a number outside it, numbers inside it, a call that hands it
# the value). A range's ends are checked one by one, before their order.
REALS = {
    "AggregateSpec.class_fraction": (
        "class_fraction", "(0, 1)", 1.5, [0.5],
        lambda v: mixed_spec(class_fraction=v)),
    "AggregateSpec.class_fraction.lo": (
        "class_fraction", "(0, 1)", 0, [0.5],
        lambda v: mixed_spec(class_fraction=(v, 0.75))),
    "AggregateSpec.class_fraction.hi": (
        "class_fraction", "(0, 1)", 1, [0.5],
        lambda v: mixed_spec(class_fraction=(0.25, v))),
    "AggregateSpec.odds_ratio": (
        "odds_ratio[x]", "(0, inf)", -2.0, [0.5, 3],
        lambda v: mixed_spec(odds_ratio=v)),
    "AggregateSpec.odds_ratio.hi": (
        "odds_ratio[x]", "(0, inf)", math.inf, [0.5, 3],
        lambda v: mixed_spec(odds_ratio=(0.25, v))),
    "AggregateSpec.occurrence_fraction": (
        "occurrence_fraction[x]", "(0, 1)", 0.0, [0.5],
        lambda v: mixed_spec(occurrence=v)),
    "AggregateSpec.mean": (
        "mean[Age]", "[0, inf)", -1.0, [0.5, 0, 36],
        lambda v: mixed_spec(mean=v)),
    "AggregateSpec.stddev": (
        "stddev[Age]", "[0, inf)", math.inf, [0.5, 0, 19],
        lambda v: mixed_spec(stddev=v)),
    "GroundTruthConfig.gender_or": (
        "odds_ratio[Gender]", "(0, inf)", 0, [0.5, 2],
        lambda v: config_1(gender_or=v)),
    "solve_cells.o": (
        "o", "(0, inf)", 0.0, [0.5, 2],
        lambda v: solve_cells(v, 0.25, 0.5, 200)),
    "solve_cells.r1": (
        "r1", "(0, 1)", 1.0, [0.5], lambda v: solve_cells(2.0, v, 0.5, 200)),
    "solve_cells.f": (
        "f", "(0, 1)", -0.5, [0.5], lambda v: solve_cells(2.0, 0.25, v, 200)),
    "ExperimentPlan.delta": (
        "delta", "[0, 1)", 1, [0.5, 0],
        lambda v: ExperimentPlan(config=config_1(), delta=v)),
    "ExperimentPlan.undersample_rate": (
        "undersample_rate", "(0, 1]", 0, [0.5, 1],
        lambda v: ExperimentPlan(config=config_1(), undersample_rate=v)),
    "generate_candidates.delta": (
        "delta", "[0, 1)", 1.5, [0.5, 0], lambda v: candidates(delta=v)),
    "undersample.rate": (
        "rate", "(0, 1]", 0.0, [0.5, 1],
        lambda v: undersample(imbalanced_dataset(), v, 0)),
}


class TestCheckReal:
    @pytest.mark.parametrize("owner", REALS)
    def test_every_real_follows_the_rule(self, owner):
        name, interval, outside, inside, call = REALS[owner]
        refused = [(True, "a real number, got True"),
                   ("0.1", "a real number, got '0.1'"),
                   (10**400, "a real number a float can hold, got an "
                             "integer of 1329 bits"),
                   (math.nan, f"in {interval}, got nan"),
                   (outside, f"in {interval}, got {outside!r}")]
        for value, says in refused:
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be {says}") + "$"):
                call(value)
        for value in inside:
            for number in (value, np.float32(value), np.float64(value)):
                call(number)

    @pytest.mark.parametrize("value", [np.True_, 1j, np.complex128(0.5),
                                       None, [0.5], (0.5,), "nan"])
    def test_only_real_numbers_pass(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"x must be a real number, got {value!r}") + "$"):
            check_real("x", value, 0, 1)

    @pytest.mark.parametrize("value", [10**400, -2**1024, 10**5000],
                             ids=["10**400", "-2**1024", "10**5000"])
    def test_ints_too_large_for_a_float_are_refused(self, value):
        # named by size, as repr of an int past 4300 digits raises
        with pytest.raises(ValueError, match=re.escape(
                "x must be a real number a float can hold, got an integer "
                f"of {value.bit_length()} bits") + "$"):
            check_real("x", value, -math.inf, math.inf)
        check_real("x", int(np.finfo(float).max), -math.inf, math.inf)

    def test_override_too_large_for_a_float_is_named(self):
        # it used to build, and reconstruct then raised a bare
        # OverflowError; the config's gender_or is the spec's
        # odds_ratio[Gender]
        with pytest.raises(ValueError, match=re.escape(
                "odds_ratio[Gender] must be a real number a float can hold")):
            with_overrides(builtin_configs(n=200)[0], gender_or=10**400)

    def test_numpy_scalars_are_written_as_plain_numbers(self):
        value = {"n": np.int64(3), "x": np.float32(0.5), "y": np.float64(0.1)}
        assert json_text(value) == json_text({"n": 3, "x": 0.5, "y": 0.1})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_text({"flag": np.True_})
