import numpy as np
import pytest

from ecoinfer.aggregate import summarize
from ecoinfer.synth import (GroundTruthConfig, atc_schema, builtin_configs,
                            configs_from_json, configs_to_json,
                            generate_ground_truth, with_overrides)


class TestBuiltinConfigs:
    def test_first_config(self):
        c = builtin_configs()[0]
        assert (c.gender_or, c.gender_fraction, c.pt_or, c.pt_fraction,
                c.ptt_or, c.ptt_fraction, c.plate_or, c.plate_fraction,
                c.doa_fraction) == (2, 0.6, 4, 0.3, 6, 0.2, 8, 0.1, 0.1)

    def test_last_config(self):
        c = builtin_configs()[9]
        assert (c.gender_or, c.gender_fraction, c.pt_or, c.pt_fraction,
                c.ptt_or, c.ptt_fraction, c.plate_or, c.plate_fraction,
                c.doa_fraction) == (10, 0.5, 6, 0.4, 10, 0.3, 10, 0.3, 0.49)

    def test_ten_configs_with_index_seeds(self):
        cfgs = builtin_configs()
        assert len(cfgs) == 10
        assert [c.seed for c in cfgs] == list(range(1, 11))
        assert all(c.n == 10_000 for c in cfgs)
        assert all(c.age_mean == 36 and c.age_sd == 19 for c in cfgs)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthConfig(2, 0.6, 4, 0.3, 6, 0.2, 8, 0.1, 1.5)
        with pytest.raises(ValueError):
            GroundTruthConfig(-2, 0.6, 4, 0.3, 6, 0.2, 8, 0.1, 0.1)
        # the statistics the config shares with its spec are checked there
        for bad in (dict(n=0), dict(age_mean=np.nan), dict(age_sd=-3.0),
                    dict(age_mean=-5.0, age_sd=0.0), dict(pt_or=np.inf)):
            with pytest.raises(ValueError):
                with_overrides(builtin_configs()[0], **bad)


class TestGenerateGroundTruth:
    def test_config1_dead_count(self):
        ds = generate_ground_truth(builtin_configs()[0])
        assert ds.n_rows == 10_000
        assert int((ds.outcome == 0).sum()) == 1000

    def test_config1_or_round_trip(self):
        ds = generate_ground_truth(builtin_configs()[0])
        spec = summarize(ds)
        targets = {"Gender": 2, "PT": 4, "PTT": 6, "Platelet": 8}
        for name, target in targets.items():
            assert spec.binary[name].odds_ratio == \
                pytest.approx(target, rel=0.02)
        assert spec.continuous["Age"].mean == pytest.approx(36, abs=2)

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = with_overrides(builtin_configs()[0], n=500)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_ground_truth(cfg).to_csv(p1)
        generate_ground_truth(cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("idx", range(10))
    def test_every_builtin_generates_at_reduced_n(self, idx):
        # all ten quadratics are feasible; full-size runs live in the
        # acceptance suite
        cfg = with_overrides(builtin_configs()[idx], n=2000)
        ds = generate_ground_truth(cfg)
        back = summarize(ds)
        assert back.n == 2000


class TestConfigJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "configs.json"
        configs_to_json(builtin_configs(), path)
        back = configs_from_json(path)
        assert back == builtin_configs()

    def test_schema_columns(self):
        schema = atc_schema()
        assert schema.column_names == ["Gender", "PT", "PTT", "Platelet",
                                       "Age", "Dead"]
        assert schema.binary_columns() == ["Gender", "PT", "PTT", "Platelet",
                                           "Dead"]
