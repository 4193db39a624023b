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
        (np.nan, 1.0), (36.0, np.inf), (-1.0, -3.0), (-5.0, 0.0)])
    def test_invalid_moments_rejected(self, mean, stddev):
        schema = Schema(features=(FeatureSpec("Age", CONTINUOUS),),
                        outcome=FeatureSpec("Dead"))
        with pytest.raises(ValueError, match="Age"):
            AggregateSpec(schema=schema, n=10, class_fraction=0.5,
                          continuous={"Age": ContinuousStat(mean, stddev)})

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
