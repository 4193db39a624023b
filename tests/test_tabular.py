import numpy as np
import pytest

from ecoinfer.tabular import (BINARY, CONTINUOUS, Dataset, FeatureSpec, Schema,
                              SchemaError, undersample, validate)

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
    def test_candidate_table_ok(self, table_s1):
        assert validate(table_s1).ok

    def test_binary_value_out_of_range(self):
        schema = small_schema(1, names=("x",))
        ds = Dataset(schema, {"x": [0, 2, 1], "Dead": [0, 1, 1]})
        result = validate(ds)
        assert not result.ok
        assert "row 1" in result.violations[0] and "'x'" in result.violations[0]

    def test_empty_dataset_ok(self):
        schema = small_schema(1, names=("x",))
        ds = Dataset(schema, {"x": [], "Dead": []})
        assert validate(ds).ok

    def test_non_finite_continuous_flagged(self):
        ds = Dataset(mixed_schema(), {"flag": [0, 1], "value": [1.0, np.inf],
                                      "y": [0, 1]})
        assert not validate(ds).ok


def imbalanced_dataset():
    schema = small_schema(1, names=("x",))
    y = np.concatenate([np.zeros(10, dtype=int), np.ones(90, dtype=int)])
    return Dataset(schema, {"x": np.zeros(100, dtype=int), "Dead": y})


class TestUndersample:
    def test_counts(self):
        out = undersample(imbalanced_dataset(), majority_class=1, rate=0.1,
                          seed=0)
        y = out.outcome
        assert int((y == 0).sum()) == 10
        assert int((y == 1).sum()) == 9

    def test_rate_one_is_identity(self):
        ds = imbalanced_dataset()
        assert undersample(ds, 1, 1.0, seed=123) == ds

    def test_seed_determinism(self):
        ds = imbalanced_dataset()
        a = undersample(ds, 1, 0.3, seed=7)
        b = undersample(ds, 1, 0.3, seed=7)
        assert a == b

    def test_minority_rows_never_removed(self):
        ds = imbalanced_dataset()
        for seed in range(5):
            out = undersample(ds, 1, 0.2, seed=seed)
            assert int((out.outcome == 0).sum()) == 10

    def test_size_formula(self):
        ds = imbalanced_dataset()
        for rate in (0.13, 0.5, 0.77):
            out = undersample(ds, 1, rate, seed=1)
            assert out.n_rows == 10 + int(rate * 90)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            undersample(imbalanced_dataset(), 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            undersample(imbalanced_dataset(), 1, 1.5, seed=0)

    def test_row_order_preserved(self):
        # carry the original row index in a continuous column and check it
        # stays strictly increasing after undersampling
        schema = Schema(features=(FeatureSpec("idx", CONTINUOUS),),
                        outcome=FeatureSpec("Dead"))
        y = np.concatenate([np.zeros(10, dtype=int), np.ones(90, dtype=int)])
        ds = Dataset(schema, {"idx": np.arange(100.0), "Dead": y})
        out = undersample(ds, 1, 0.5, seed=4)
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
