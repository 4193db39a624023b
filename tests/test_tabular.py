import numpy as np
import pytest

from ecoinfer.tabular import (BINARY, CONTINUOUS, Dataset, FeatureSpec, Schema,
                              SchemaError, undersample)

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
        assert ds.column("PTT").dtype == np.int64

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
    ], ids=["ragged", "quoted", "binary-0.7", "binary-2", "nan"])
    def test_names_file_and_line(self, tmp_path, line, named):
        path = tmp_path / "data.csv"
        Dataset(mixed_schema(), {"flag": [0], "value": [1.5],
                                 "y": [1]}).to_csv(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"\n{line}\n")
        with pytest.raises(SchemaError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == f"{path}: {named}"
