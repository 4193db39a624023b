import json
import re

import numpy as np
import pytest

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContingencyTable,
                                ContinuousStat, UndefinedOddsRatioError,
                                contingency_table, odds_ratio, summarize)
from ecoinfer.reconstruct import reconstruct
from ecoinfer.tabular import (CONTINUOUS, Dataset, FeatureSpec, Schema,
                              SchemaError)

from conftest import dataset_from_rows, small_schema


class TestContingencyTable:
    def test_trauma_cohort_pt_cells(self, trauma_cohort_pt):
        t = contingency_table(trauma_cohort_pt, "PT")
        assert t.as_tuple() == (579, 2415, 489, 7307)

    def test_all_rows_identical(self):
        schema = small_schema(1, names=("x",))
        ds = Dataset(schema, {"x": [1] * 6, "Dead": [1] * 6})
        t = contingency_table(ds, "x")
        assert t.as_tuple() == (0, 0, 0, 6)
        assert t.n == 6

    def test_empty_positive_intersection(self):
        schema = small_schema(1, names=("x",))
        ds = Dataset(schema, {"x": [1, 1, 0, 0], "Dead": [0, 0, 1, 1]})
        assert contingency_table(ds, "x").l1 == 0

    def test_non_binary_feature_rejected(self):
        schema = Schema(features=(FeatureSpec("age", "continuous"),),
                        outcome=FeatureSpec("Dead"))
        ds = Dataset(schema, {"age": [30.0, 40.0], "Dead": [0, 1]})
        with pytest.raises(SchemaError):
            contingency_table(ds, "age")

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(-1, 0, 0, 1)


class TestOddsRatio:
    def test_published_pt_value(self):
        assert odds_ratio(ContingencyTable(579, 2415, 489, 7307)) == \
            pytest.approx(3.58, abs=0.01)

    def test_independence(self):
        assert odds_ratio(ContingencyTable(25, 25, 25, 25)) == 1.0

    def test_hand_arithmetic(self):
        # 10*1 / (5*2)
        assert odds_ratio(ContingencyTable(10, 5, 2, 1)) == 1.0

    def test_zero_cell_is_undefined(self):
        with pytest.raises(UndefinedOddsRatioError) as err:
            odds_ratio(ContingencyTable(5, 0, 3, 2))
        assert err.value.table.as_tuple() == (5, 0, 3, 2)

    def test_invariant_under_double_swap(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c, d = rng.integers(1, 100, 4)
            t = ContingencyTable(int(a), int(b), int(c), int(d))
            swapped = ContingencyTable(int(d), int(c), int(b), int(a))
            assert odds_ratio(t) == pytest.approx(odds_ratio(swapped))

    def test_reciprocal_under_row_flip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b, c, d = (int(v) for v in rng.integers(1, 100, 4))
            t = ContingencyTable(a, b, c, d)
            flipped = ContingencyTable(c, d, a, b)
            assert odds_ratio(t) * odds_ratio(flipped) == pytest.approx(1.0)


class TestSummarize:
    def test_cohort_class_fraction(self, trauma_cohort_pt):
        spec = summarize(trauma_cohort_pt)
        assert spec.class_fraction == pytest.approx(1068 / 10790)
        assert spec.n == 10790
        assert spec.binary["PT"].odds_ratio == pytest.approx(3.58, abs=0.01)
        assert spec.binary["PT"].occurrence_fraction == \
            pytest.approx(2994 / 10790)

    def test_small_table_class_fraction(self):
        # 2 dead (encoded 0) rows of 8, split so all four contingency
        # cells stay positive: l1=1, l2=3, l3=1, l4=3
        schema = small_schema(1, names=("x",))
        ds = Dataset(schema, {"x": [0, 1, 0, 0, 1, 1, 0, 1],
                              "Dead": [0, 0, 1, 1, 1, 1, 1, 1]})
        spec = summarize(ds)
        assert spec.class_fraction == pytest.approx(0.25)
        assert spec.binary["x"].odds_ratio == 1.0
        assert spec.binary["x"].occurrence_fraction == 0.5

    def test_single_class_outcome_rejected(self):
        schema = small_schema(1, names=("x",))
        ds = Dataset(schema, {"x": [0, 1, 0], "Dead": [1, 1, 1]})
        with pytest.raises(ValueError):
            summarize(ds)

    def test_no_rows_rejected(self):
        # and not as a division by zero
        empty = dataset_from_rows(small_schema(1), np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError, match="^dataset has no rows$"):
            summarize(empty)

    def test_round_trip_through_reconstruction(self):
        schema = small_schema(2, names=("a", "b"))
        spec = AggregateSpec(schema=schema, n=4000, class_fraction=0.2,
                             binary={"a": BinaryStat(3.0, 0.3),
                                     "b": BinaryStat(1.5, 0.45)})
        back = summarize(reconstruct(spec, seed=21))
        assert back.n == spec.n
        assert back.class_fraction == pytest.approx(0.2)
        for name in ("a", "b"):
            assert back.binary[name].occurrence_fraction == pytest.approx(
                spec.binary[name].occurrence_fraction)
            assert back.binary[name].odds_ratio == pytest.approx(
                spec.binary[name].odds_ratio, rel=0.05)


class TestSpecValidationAndJson:
    def test_invalid_fractions_rejected(self):
        schema = small_schema(1, names=("x",))
        with pytest.raises(ValueError):
            AggregateSpec(schema=schema, n=10, class_fraction=0.0,
                          binary={"x": BinaryStat(1.0, 0.5)})
        for bad_or in (-2.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"odds_ratio\[x\]"):
                AggregateSpec(schema=schema, n=10, class_fraction=0.5,
                              binary={"x": BinaryStat(bad_or, 0.5)})

    @pytest.mark.parametrize("mean, stddev", [
        (np.nan, 1.0), (36.0, np.inf), (-1.0, -3.0), (-5.0, 0.0),
        (-1.0, 1.0), (-100.0, 1.0), (-np.inf, 1.0), (36.0, np.nan)])
    def test_invalid_moments_rejected(self, mean, stddev):
        schema = Schema(features=(FeatureSpec("Age", CONTINUOUS),),
                        outcome=FeatureSpec("Dead"))
        # each moment is checked on its own, the mean first
        name, value = ("mean", mean) if not 0 <= mean < np.inf \
            else ("stddev", stddev)
        with pytest.raises(ValueError, match=re.escape(
                f"{name}[Age] must be in [0, inf), got {value!r}") + "$"):
            AggregateSpec(schema=schema, n=10, class_fraction=0.5,
                          continuous={"Age": ContinuousStat(mean, stddev)})

    @pytest.mark.parametrize("mean, stddev", [
        (0.0, 0.0), (-0.0, 1.0), (36.0, 19.0), (1e-300, 1e300)])
    def test_zero_or_positive_means_accepted(self, mean, stddev):
        schema = Schema(features=(FeatureSpec("Age", CONTINUOUS),),
                        outcome=FeatureSpec("Dead"))
        AggregateSpec(schema=schema, n=10, class_fraction=0.5,
                      continuous={"Age": ContinuousStat(mean, stddev)})

    def test_summarize_refuses_a_negative_mean(self):
        schema = Schema(features=(FeatureSpec("Temp", CONTINUOUS),),
                        outcome=FeatureSpec("Dead"))
        ds = Dataset(schema, {"Temp": [-3.0, -1.0, 2.0], "Dead": [0, 1, 1]})
        with pytest.raises(ValueError, match=r"mean\[Temp\]"):
            summarize(ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_summarize_names_a_moment_past_the_float_range(self):
        # math.fsum raises OverflowError on such sums; the spec's check
        # names the moment instead
        schema = Schema(features=(FeatureSpec("Temp", CONTINUOUS),),
                        outcome=FeatureSpec("Dead"))
        for temps, says in [([1.7e308, 1.7e308, 1.0], r"mean\[Temp\]"),
                            ([1e200, -1e200, 3.0], r"stddev\[Temp\]")]:
            ds = Dataset(schema, {"Temp": temps, "Dead": [0, 1, 1]})
            with pytest.raises(ValueError, match=says + " must be in"):
                summarize(ds)

    @pytest.mark.parametrize("bad", [(0.3, 0.1), (0.1, 0.2, 0.3), (0.2,),
                                     (), (np.nan, 0.2), (0.1, np.nan)])
    def test_bad_ranges_rejected(self, bad):
        schema = small_schema(1, names=("x",))
        with pytest.raises(ValueError, match=r"^class_fraction "):
            AggregateSpec(schema=schema, n=10, class_fraction=bad,
                          binary={"x": BinaryStat(1.0, 0.5)})
        with pytest.raises(ValueError, match=r"^odds_ratio\[x\] "):
            AggregateSpec(schema=schema, n=10, class_fraction=0.5,
                          binary={"x": BinaryStat(tuple(10 * v for v in bad),
                                                  0.5)})
        with pytest.raises(ValueError, match=r"^occurrence_fraction\[x\] "):
            AggregateSpec(schema=schema, n=10, class_fraction=0.5,
                          binary={"x": BinaryStat(1.0, bad)})

    def test_point_range_accepted(self):
        schema = small_schema(1, names=("x",))
        spec = AggregateSpec(schema=schema, n=10, class_fraction=(0.2, 0.2),
                             binary={"x": BinaryStat((2.0, 2.0), 0.5)})
        assert float((reconstruct(spec, 0).outcome == 0).mean()) == 0.2

    @pytest.mark.parametrize("n", [0, -3, None, np.float64(200.0)])
    def test_n_must_be_a_positive_integer(self, n):
        schema = small_schema(1, names=("x",))
        with pytest.raises(ValueError, match=r"^n must be "):
            AggregateSpec(schema=schema, n=n, class_fraction=0.5,
                          binary={"x": BinaryStat(1.0, 0.5)})

    def test_json_round_trip(self, tmp_path, trauma_cohort_pt):
        spec = summarize(trauma_cohort_pt)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        back = AggregateSpec.from_json(path)
        assert back == spec

    def test_json_round_trip_with_ranges(self, tmp_path):
        schema = small_schema(1, names=("x",))
        spec = AggregateSpec(schema=schema, n=100, class_fraction=(0.1, 0.3),
                             binary={"x": BinaryStat((2.0, 4.0), 0.4)})
        path = tmp_path / "spec.json"
        spec.to_json(path)
        back = AggregateSpec.from_json(path)
        assert back.class_fraction == (0.1, 0.3)
        assert back.binary["x"].odds_ratio == (2.0, 4.0)


def mixed_spec_dict():
    """A spec's dict form with a binary feature x and a continuous Age."""
    schema = Schema(features=(FeatureSpec("x"),
                              FeatureSpec("Age", CONTINUOUS)),
                    outcome=FeatureSpec("Dead"))
    return AggregateSpec(schema=schema, n=200, class_fraction=(0.1, 0.3),
                         binary={"x": BinaryStat(2.0, 0.4)},
                         continuous={"Age": ContinuousStat(36.0, 19.0)}
                         ).to_dict()


class TestFromDictTypes:
    """from_dict passes JSON values as they are to the constructor, which
    coerces nothing."""

    def test_round_trip(self):
        d = mixed_spec_dict()
        assert AggregateSpec.from_dict(d).to_dict() == d

    def test_integer_statistics_load_as_floats(self):
        # a hand-written spec may say 36 for 36.0; the bytes a saved spec
        # is written with stay those of a float
        d = mixed_spec_dict()
        d["features"][1].update(mean=36, stddev=19)
        d["features"][0]["odds_ratio"] = 2
        spec = AggregateSpec.from_dict(d)
        assert type(spec.continuous["Age"].mean) is float
        assert type(spec.binary["x"].odds_ratio) is float

    @pytest.mark.parametrize("n", [200.7, 200.0, True, "200"])
    def test_n_must_be_a_json_integer(self, n):
        d = mixed_spec_dict()
        d["n"] = n
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            AggregateSpec.from_dict(d)

    @pytest.mark.parametrize("where, key, bad, name", [
        (None, "class_fraction", "0.1", "class_fraction"),
        (None, "class_fraction", ["0.1", 0.3], "class_fraction"),
        (None, "class_fraction", True, "class_fraction"),
        (0, "odds_ratio", "2", r"odds_ratio\[x\]"),
        (0, "occurrence_fraction", None, r"occurrence_fraction\[x\]"),
        (0, "occurrence_fraction", [0.1, False], r"occurrence_fraction\[x\]"),
        (1, "mean", "36", r"mean\[Age\]"),
        (1, "mean", [30.0, 40.0], r"mean\[Age\]"),
        (1, "stddev", True, r"stddev\[Age\]"),
    ])
    def test_statistic_must_be_a_json_number(self, where, key, bad, name):
        d = mixed_spec_dict()
        (d if where is None else d["features"][where])[key] = bad
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            AggregateSpec.from_dict(d)

    def test_reversed_range_names_the_field(self):
        d = mixed_spec_dict()
        d["class_fraction"] = [0.3, 0.1]
        with pytest.raises(ValueError, match=r"^class_fraction range must be"):
            AggregateSpec.from_dict(d)

    def test_repeated_feature_is_refused(self):
        # a second entry would otherwise replace the first one's statistics
        d = mixed_spec_dict()
        d["features"].append(dict(d["features"][0], odds_ratio=99.0))
        with pytest.raises(ValueError,
                           match=r"^feature 'x' has more than one entry$"):
            AggregateSpec.from_dict(d)

    def test_feature_missing_from_the_schema_is_refused(self):
        # to_dict would otherwise drop it without a word
        d = mixed_spec_dict()
        d["features"].append(dict(d["features"][0], name="Foo"))
        with pytest.raises(ValueError,
                           match=r"^feature 'Foo' is not in the schema$"):
            AggregateSpec.from_dict(d)

    @pytest.mark.parametrize("where, kind, says", [
        (0, "continuous", "feature 'x' is binary in the schema, "
                          "not 'continuous'"),
        (1, "ordinal", "feature 'Age' is continuous in the schema, "
                       "not 'ordinal'"),
        (1, None, None),
    ], ids=["binary-marked-continuous", "continuous-marked-ordinal",
            "continuous-without-kind"])
    def test_kind_comes_from_the_schema(self, where, kind, says):
        # an entry's kind may only repeat the schema's
        d = mixed_spec_dict()
        if kind is None:
            del d["features"][where]["kind"]
            assert AggregateSpec.from_dict(d).to_dict() == mixed_spec_dict()
            return
        d["features"][where]["kind"] = kind
        with pytest.raises(ValueError, match=re.escape(says) + "$"):
            AggregateSpec.from_dict(d)

    @pytest.mark.parametrize("where, says", [
        (0, "missing binary stats for 'x'"),
        (1, "missing continuous stats for 'Age'"),
    ], ids=["binary", "continuous"])
    def test_every_schema_feature_needs_an_entry(self, tmp_path, where, says):
        d = mixed_spec_dict()
        del d["features"][where]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(says) + "$"):
            AggregateSpec.from_json(path)
