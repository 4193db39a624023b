import time

import numpy as np
import pytest

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContinuousStat,
                                contingency_table, summarize)
from ecoinfer.reconstruct import (InfeasibleSpecError,
                                  PartialCandidateSetError, derived_seed,
                                  generate_candidates, load_candidates,
                                  reconstruct, save_candidates, solve_cells)
from ecoinfer.tabular import CONTINUOUS, FeatureSpec, Schema

from conftest import small_schema


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


class TestTruncatedNormal:
    def test_no_mass_at_or_above_zero_raises(self):
        # the uncapped redraw loop never ended here
        t0 = time.perf_counter()
        with pytest.raises(InfeasibleSpecError, match="Age"):
            reconstruct(age_spec(-100.0, 1.0), seed=0)
        assert time.perf_counter() - t0 < 10

    def test_centred_at_zero_reconstructs(self):
        ages = reconstruct(age_spec(0.0, 1.0, n=1000), seed=0).column("Age")
        assert (ages >= 0).all() and (ages > 0).any()


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


class TestGenerateCandidates:
    def test_delta_separated_set(self):
        spec = trio_spec(n=500)
        cs = generate_candidates(spec, n_candidates=5, delta=0.05,
                                 base_seed=31, max_attempts=500)
        assert len(cs.candidates) == 5
        assert cs.attempts_used <= 500
        from ecoinfer.reconstruct import _greedy_binary_distance
        for i in range(5):
            for j in range(i + 1, 5):
                assert _greedy_binary_distance(cs.candidates[i],
                                               cs.candidates[j]) >= 0.05

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
