import numpy as np
import pytest

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContinuousStat,
                                contingency_table, summarize)
from ecoinfer.reconstruct import (InfeasibleSpecError,
                                  PartialCandidateSetError, _rank_binary,
                                  _ranked_distance, derived_seed,
                                  generate_candidates, load_candidates,
                                  reconstruct, save_candidates, solve_cells)
from ecoinfer.synth import builtin_configs, generate_ground_truth
from ecoinfer.tabular import CONTINUOUS, FeatureSpec, Schema

from conftest import dataset_from_rows, small_schema


class TestSolveCells:
    def test_recovers_published_table(self):
        sol = solve_cells(3.58, 1068 / 10790, 2994 / 10790, 10790)
        assert sol.l_int == (579, 2415, 489, 7307)
        assert sol.l_real[0] == pytest.approx(578.84, abs=0.01)

    def test_independence_linear_case(self):
        sol = solve_cells(1.0, 0.5, 0.5, 100)
        assert sol.l_int == (25, 25, 25, 25)
        assert sol.or_deviation == 0.0

    def test_brute_force_closest_or(self):
        # enumerate every integer table with margins A=100, B=300, n=1000 and
        # confirm the solver picks the one whose odds ratio is nearest 4
        o, r1, f, n = 4.0, 0.1, 0.3, 1000
        sol = solve_cells(o, r1, f, n)
        A, B = round(r1 * n), round(f * n)
        best = None
        for l1 in range(max(0, A + B - n), min(A, B) + 1):
            l2, l3, l4 = B - l1, A - l1, n - A - B + l1
            if l2 * l3 == 0:
                continue
            gap = abs((l1 * l4) / (l2 * l3) - o)
            if best is None or gap < best[0]:
                best = (gap, (l1, l2, l3, l4))
        assert sol.l_int == best[1]
        assert 3.6 <= sol.achieved_or <= 4.4

    def test_margins_always_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            o = rng.uniform(1, 10)
            r1 = rng.uniform(0.05, 0.5)
            f = rng.uniform(0.05, 0.5)
            n = int(rng.integers(100, 10001))
            sol = solve_cells(o, r1, f, n)
            l1, l2, l3, l4 = sol.l_int
            assert min(sol.l_int) >= 0
            assert l1 + l3 == round(r1 * n)
            assert l1 + l2 == round(f * n)
            assert sum(sol.l_int) == n
            # each derived cell can drift by up to 1.5 once both margins
            # are independently rounded to the nearest integer
            assert all(abs(i - r) <= 1.5
                       for i, r in zip(sol.l_int, sol.l_real))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_cells(2.0, 0.0, 0.5, 100)
        with pytest.raises(ValueError):
            solve_cells(-1.0, 0.1, 0.5, 100)
        with pytest.raises(ValueError):
            solve_cells(2.0, 0.1, 1.0, 100)


def trio_spec(n=400, r1=0.25, ors=(2.0, 3.0, 1.5), fs=(0.4, 0.3, 0.5)):
    schema = small_schema()
    names = schema.binary_feature_names
    return AggregateSpec(
        schema=schema, n=n, class_fraction=r1,
        binary={name: BinaryStat(o, f) for name, o, f in zip(names, ors, fs)})


class TestReconstruct:
    def test_cohort_round_trip(self, trauma_cohort_pt):
        spec = summarize(trauma_cohort_pt)
        ds = reconstruct(spec, seed=5)
        assert contingency_table(ds, "PT").as_tuple() == (579, 2415, 489, 7307)

    def test_smallest_balanced_case(self):
        schema = small_schema(1, names=("x",))
        spec = AggregateSpec(schema=schema, n=4, class_fraction=0.5,
                             binary={"x": BinaryStat(1.0, 0.5)})
        ds = reconstruct(spec, seed=0)
        back = summarize(ds)
        assert back.class_fraction == 0.5
        assert back.binary["x"].occurrence_fraction == 0.5

    def test_exact_margins_and_cells(self):
        spec = trio_spec()
        ds = reconstruct(spec, seed=9)
        assert int((ds.outcome == 0).sum()) == round(0.25 * 400)
        for name, stat in spec.binary.items():
            t = contingency_table(ds, name)
            sol = solve_cells(stat.odds_ratio, 0.25,
                              stat.occurrence_fraction, 400)
            assert t.as_tuple() == sol.l_int

    def test_seed_determinism(self):
        spec = trio_spec()
        assert reconstruct(spec, 123) == reconstruct(spec, 123)
        assert reconstruct(spec, 123) != reconstruct(spec, 124)

    def test_ranged_inputs_draw_per_seed(self):
        schema = small_schema(1, names=("x",))
        spec = AggregateSpec(schema=schema, n=1000,
                             class_fraction=(0.2, 0.4),
                             binary={"x": BinaryStat((2.0, 6.0), 0.3)})
        fracs = {float((reconstruct(spec, s).outcome == 0).mean())
                 for s in range(5)}
        assert len(fracs) > 1
        assert all(0.2 - 0.01 <= v <= 0.4 + 0.01 for v in fracs)


def age_spec(mean, stddev, n=10):
    schema = Schema(features=(FeatureSpec("Age", CONTINUOUS),),
                    outcome=FeatureSpec("Dead"))
    return AggregateSpec(schema=schema, n=n, class_fraction=0.5,
                         continuous={"Age": ContinuousStat(mean, stddev)})


def capped_reconstruct(spec, seed):
    """reconstruct as it was with a machine-timed cap on the truncated-
    normal redraw rounds, for specs without ranges."""
    rng = np.random.default_rng(seed)
    n = spec.n
    r1 = spec.class_fraction
    y = np.ones(n, dtype=np.int64)
    y[rng.choice(n, size=round(r1 * n), replace=False)] = 0
    pos_rows, neg_rows = np.flatnonzero(y == 0), np.flatnonzero(y == 1)
    columns = {spec.schema.outcome.name: y}
    for feat in spec.schema.features:
        if feat.kind != CONTINUOUS:
            stat = spec.binary[feat.name]
            l1, l2, _, _ = solve_cells(stat.odds_ratio, r1,
                                       stat.occurrence_fraction, n).l_int
            col = np.ones(n, dtype=np.int64)
            col[rng.choice(pos_rows, size=l1, replace=False)] = 0
            col[rng.choice(neg_rows, size=l2, replace=False)] = 0
            columns[feat.name] = col
            continue
        stat = spec.continuous[feat.name]
        vals, todo = np.empty(n), np.arange(n)
        for _ in range(10 ** 9 // (n + 2000)):
            drawn = rng.normal(stat.mean, stat.stddev, size=todo.size)
            vals[todo] = drawn
            todo = todo[(drawn < 0) | (drawn == np.inf)]
            if not todo.size:
                break
        else:
            raise InfeasibleSpecError(
                f"{feat.name}: too little mass >= 0 in {stat}")
        columns[feat.name] = np.round(vals)
    return columns


def cli_wide_spec(n):
    """Config 1 with three wide lab columns next to Age."""
    base = builtin_configs(n=n)[0].to_spec()
    labs = {"LabA": ContinuousStat(500.0, 200.0),
            "LabB": ContinuousStat(100.0, 40.0),
            "LabC": ContinuousStat(5000.0, 1500.0)}
    schema = Schema(features=base.schema.features + tuple(
        FeatureSpec(name, CONTINUOUS) for name in labs),
        outcome=base.schema.outcome)
    return AggregateSpec(schema=schema, n=n,
                         class_fraction=base.class_fraction,
                         binary=dict(base.binary),
                         continuous={**base.continuous, **labs})


class TestTruncatedNormal:
    def test_no_mass_at_or_above_zero_raises(self):
        # the spec refuses it at once; a capped redraw loop spent seconds
        # before it gave up
        with pytest.raises(ValueError, match=r"mean\[Age\]"):
            age_spec(-100.0, 1.0)

    def test_centred_at_zero_reconstructs(self):
        ages = reconstruct(age_spec(0.0, 1.0, n=1000), seed=0).column("Age")
        assert (ages >= 0).all() and (ages > 0).any()

    @pytest.mark.parametrize("n", [1, 10, 10_000])
    @pytest.mark.parametrize("make", [
        lambda n: builtin_configs(n=n)[0].to_spec(), cli_wide_spec,
        lambda n: age_spec(0.0, 1.0, n), lambda n: age_spec(36.0, 0.0, n)],
        ids=["age-36-19", "cli-wide-labs", "mean-0-sd-1", "sd-0"])
    def test_same_draws_as_the_capped_loop(self, make, n):
        spec = make(n)
        for seed in (0, 1, derived_seed(5000, 3)):
            got = reconstruct(spec, seed)
            want = capped_reconstruct(spec, seed)
            assert set(want) == set(got.schema.column_names)
            for name, col in want.items():
                assert got.column(name).dtype == col.dtype
                assert got.column(name).tobytes() == col.tobytes()


class TestRootFeasibility:
    def test_exactly_one_root_in_interval(self):
        # randomized property: the quadratic always has exactly one usable
        # root; ambiguity must be reported, never silently resolved
        rng = np.random.default_rng(77)
        for _ in range(500):
            o = rng.uniform(1, 10)
            r1 = rng.uniform(0.05, 0.5)
            f = rng.uniform(0.05, 0.5)
            n = int(rng.integers(100, 10001))
            solve_cells(o, r1, f, n)  # raises if zero or two roots qualify


def reference_distance(a, b):
    """The delta check as first written: greedy rank-sum average distance
    over binary columns (incl. outcome), re-sorting both datasets."""
    names = a.schema.binary_columns()
    ma = a.to_matrix(names)
    mb = b.to_matrix(names)
    ia = np.argsort(ma.sum(axis=1), kind="stable")
    ib = np.argsort(mb.sum(axis=1), kind="stable")
    return float(np.abs(ma[ia] - mb[ib]).sum() / (ma.shape[1] * ma.shape[0]))


def config_spec(index, n):
    return summarize(generate_ground_truth(builtin_configs(n=n)[index - 1]))


def reference_rank(ds):
    """_rank_binary as first written: the binary columns stacked into int8
    rows, stably sorted by their int64 row sums."""
    names = ds.schema.binary_columns()
    rows = np.column_stack([ds.column(c) for c in names]).astype(np.int8)
    return rows[np.argsort(rows.sum(axis=1), kind="stable")]


def binary_rows(rows):
    """A dataset of 0/1 rows: binary features x0.., the last column Dead."""
    rows = np.asarray(rows)
    names = tuple(f"x{j}" for j in range(rows.shape[1] - 1))
    return dataset_from_rows(small_schema(len(names), names), rows)


class TestRankBinary:
    """The narrow-sum radix ranking gives the reference's bytes."""

    @staticmethod
    def assert_same_bytes(ds):
        got, want = _rank_binary(ds), reference_rank(ds)
        assert got.dtype == want.dtype == np.int8
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("config", range(1, 11))
    def test_config_candidates(self, config):
        spec = config_spec(config, n=1000)
        for k in range(3):
            self.assert_same_bytes(reconstruct(spec, derived_seed(2000, k)))

    def test_300_columns_sum_in_uint16(self):
        rng = np.random.default_rng(3)
        ds = binary_rows(rng.integers(0, 2, (500, 301)))
        assert np.min_scalar_type(301) == np.uint16
        self.assert_same_bytes(ds)

    def test_one_row(self):
        self.assert_same_bytes(binary_rows([[0, 1, 1, 0]]))

    def test_every_row_ties(self):
        # each row holds one 1, so every sum is 1 and the order is the rows'
        rows = np.roll(np.eye(4, dtype=int), 1, axis=0)
        ranked = _rank_binary(binary_rows(rows))
        assert np.array_equal(ranked, rows)
        self.assert_same_bytes(binary_rows(rows))


class TestGenerateCandidates:
    def test_delta_separated_set(self):
        spec = trio_spec(n=500)
        cs = generate_candidates(spec, n_candidates=5, delta=0.05,
                                 base_seed=31, max_attempts=500)
        assert len(cs.candidates) == 5
        assert cs.attempts_used <= 500
        for i in range(5):
            for j in range(i + 1, 5):
                assert reference_distance(cs.candidates[i],
                                          cs.candidates[j]) >= 0.05

    @pytest.mark.parametrize("config", [1, 10])
    def test_ranked_distance_is_the_reference_bitwise(self, config):
        spec = config_spec(config, n=1000)
        cands = [reconstruct(spec, derived_seed(2000, k)) for k in range(12)]
        ranked = [_rank_binary(c) for c in cands]
        for i in range(12):
            for j in range(12):
                if i != j:
                    assert _ranked_distance(ranked[i], ranked[j]) == \
                        reference_distance(cands[i], cands[j])

    def test_same_candidates_as_reference_loop(self):
        # n=1000 at delta 0.2 rejects 26 of 31 attempts
        spec, delta = config_spec(1, n=1000), 0.2
        kept, attempts = [], 0
        while len(kept) < 5:
            cand = reconstruct(spec, derived_seed(7, attempts))
            attempts += 1
            if all(reference_distance(cand, o) >= delta for o in kept):
                kept.append(cand)
        cs = generate_candidates(spec, 5, delta, base_seed=7)
        assert cs.attempts_used == attempts == 31
        assert [c.seed for c in cs.candidates] == [c.seed for c in kept]

    def test_acceptance_order_pinned(self):
        # n=2,000 at delta 0.2 rejects 51 of 60 attempts
        cs = generate_candidates(config_spec(1, n=2000), 9, 0.2,
                                 base_seed=2000)
        assert cs.attempts_used == 60
        assert [c.seed for c in cs.candidates] == [
            derived_seed(2000, k) for k in (0, 2, 4, 15, 22, 23, 39, 56, 59)]

    def test_single_candidate_trivial(self):
        cs = generate_candidates(trio_spec(), 1, 0.5, base_seed=1)
        assert len(cs.candidates) == 1

    def test_unreachable_delta_exhausts_attempts(self):
        spec = trio_spec(n=100)
        with pytest.raises(PartialCandidateSetError) as err:
            generate_candidates(spec, 3, delta=0.99, base_seed=2,
                                max_attempts=30)
        assert err.value.attempts_used == 30
        assert len(err.value.candidates) <= 1

    def test_derived_seeds_follow_stride(self):
        cs = generate_candidates(trio_spec(), 3, 0.0, base_seed=10,
                                 max_attempts=10)
        assert [c.seed for c in cs.candidates] == [derived_seed(10, k)
                                                   for k in range(3)]

    def test_persistence_round_trip(self, tmp_path):
        cs = generate_candidates(trio_spec(n=200), 3, 0.02, base_seed=8)
        save_candidates(cs, tmp_path / "cands")
        back = load_candidates(tmp_path / "cands")
        assert back.delta == cs.delta
        assert back.attempts_used == cs.attempts_used
        assert all(a == b for a, b in zip(back.candidates, cs.candidates))
