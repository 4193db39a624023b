import json
import re

import numpy as np
import pytest

from ecoinfer.aggregate import (AggregateSpec, BinaryStat, ContinuousStat,
                                contingency_table, summarize)
from ecoinfer.reconstruct import (InfeasibleSpecError,
                                  PartialCandidateSetError, derived_seed,
                                  generate_candidates, load_candidates,
                                  reconstruct, save_candidates, solve_cells)
from ecoinfer.similarity import (GREEDY_RANK, _rank_binary, _ranked_distance,
                                 match_rows)
from ecoinfer.synth import builtin_configs, generate_ground_truth
from ecoinfer.tabular import BINARY, CONTINUOUS, Dataset, FeatureSpec, Schema

from conftest import dataset_from_rows, small_schema


def real_cells(o, r1, f, n):
    """The real cells (a, B-a, A-a, n-A-B+a) with margins A = r1*n and
    B = f*n and odds ratio o, by bisection on a: a*l4 - o*l2*l3 rises from
    <= 0 to >= 0 across the range where every cell is >= 0."""
    A, B = r1 * n, f * n
    lo, hi = max(0.0, A + B - n), min(A, B)
    for _ in range(100):
        a = (lo + hi) / 2
        if a * (n - A - B + a) < o * (B - a) * (A - a):
            lo = a
        else:
            hi = a
    return (lo, B - lo, A - lo, n - A - B + lo)


class TestSolveCells:
    def test_recovers_published_table(self):
        sol = solve_cells(3.58, 1068 / 10790, 2994 / 10790, 10790)
        assert sol.l_int == (579, 2415, 489, 7307)
        assert real_cells(3.58, 1068 / 10790, 2994 / 10790, 10790)[0] == \
            pytest.approx(578.84, abs=0.01)

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
        l1, l2, l3, l4 = sol.l_int
        assert 3.6 <= (l1 * l4) / (l2 * l3) <= 4.4
        assert sol.or_deviation == abs((l1 * l4) / (l2 * l3) - o) / o

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
                       for i, r in zip(sol.l_int, real_cells(o, r1, f, n)))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_cells(2.0, 0.0, 0.5, 100)
        with pytest.raises(ValueError):
            solve_cells(-1.0, 0.1, 0.5, 100)
        with pytest.raises(ValueError):
            solve_cells(2.0, 0.1, 1.0, 100)

    @pytest.mark.parametrize("n", [100.5, 100.0])
    def test_n_must_be_an_integer_after_a_cached_call(self, n):
        # 100.5 gave l_int (7, 43, 3, 47.5); a cached n = 100 must not
        # answer for 100.0, which equals it
        solve_cells(2.0, 0.1, 0.5, 100)
        with pytest.raises(ValueError, match=f"^n must be an integer, "
                                             f"got {n}$"):
            solve_cells(2.0, 0.1, 0.5, n)


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
    y = np.ones(n, dtype=np.int8)
    y[rng.choice(n, size=round(r1 * n), replace=False)] = 0
    pos_rows, neg_rows = np.flatnonzero(y == 0), np.flatnonzero(y == 1)
    columns = {spec.schema.outcome.name: y}
    for feat in spec.schema.features:
        if feat.kind != CONTINUOUS:
            stat = spec.binary[feat.name]
            l1, l2, _, _ = solve_cells(stat.odds_ratio, r1,
                                       stat.occurrence_fraction, n).l_int
            col = np.ones(n, dtype=np.int8)
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


def rank(ds):
    """_rank_binary of a dataset's binary columns."""
    return _rank_binary([ds.column(c) for c in ds.schema.binary_columns()])


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
        got, want = rank(ds), reference_rank(ds)
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
        ranked = rank(binary_rows(rows))
        assert np.array_equal(ranked, rows)
        self.assert_same_bytes(binary_rows(rows))


def reference_reconstruct(spec, seed):
    """reconstruct as it was before it drew in two steps: one generator,
    every column in schema order, then the Dataset."""
    rng = np.random.default_rng(seed)

    def resolve(v):
        return float(rng.uniform(*v)) if isinstance(v, tuple) else float(v)

    n = spec.n
    r1 = resolve(spec.class_fraction)
    y = np.ones(n, dtype=np.int64)
    y[rng.choice(n, size=round(r1 * n), replace=False)] = 0
    pos_rows, neg_rows = np.flatnonzero(y == 0), np.flatnonzero(y == 1)
    columns = {spec.schema.outcome.name: y}
    for feat in spec.schema.features:
        if feat.kind == BINARY:
            stat = spec.binary[feat.name]
            o = resolve(stat.odds_ratio)
            f = resolve(stat.occurrence_fraction)
            l1, l2, _, _ = solve_cells.__wrapped__(o, r1, f, n).l_int
            col = np.ones(n, dtype=np.int64)
            col[rng.choice(pos_rows, size=l1, replace=False)] = 0
            col[rng.choice(neg_rows, size=l2, replace=False)] = 0
            columns[feat.name] = col
        else:
            stat = spec.continuous[feat.name]
            vals, todo = np.empty(n), np.arange(n)
            while todo.size:
                drawn = rng.normal(stat.mean, stat.stddev, size=todo.size)
                vals[todo] = drawn
                todo = todo[(drawn < 0) | (drawn == np.inf)]
            columns[feat.name] = np.round(vals)
    return Dataset(spec.schema, columns, seed=seed)


def reference_candidates(spec, n_candidates, delta, base_seed, max_attempts):
    """generate_candidates as a plain loop: reconstruct every attempt whole
    and keep it if its reference_distance to each kept one is >= delta.
    Returns the kept datasets and the attempts made."""
    kept, attempts = [], 0
    while len(kept) < n_candidates and attempts < max_attempts:
        cand = reconstruct(spec, derived_seed(base_seed, attempts))
        attempts += 1
        if all(reference_distance(cand, o) >= delta for o in kept):
            kept.append(cand)
    return kept, attempts


def interleaved_spec(n):
    """Binary, continuous, binary, continuous: Age is drawn between the
    binary columns, Lab after the last one."""
    schema = Schema(features=(FeatureSpec("PT"), FeatureSpec("Age", CONTINUOUS),
                              FeatureSpec("Plt"),
                              FeatureSpec("Lab", CONTINUOUS)),
                    outcome=FeatureSpec("Dead"))
    return AggregateSpec(
        schema=schema, n=n, class_fraction=0.3,
        binary={"PT": BinaryStat(3.0, 0.3), "Plt": BinaryStat(2.0, 0.2)},
        continuous={"Age": ContinuousStat(40.0, 15.0),
                    "Lab": ContinuousStat(5.0, 2.0)})


def ranged_spec(n):
    """Ranges in the class fraction, an odds ratio and an occurrence
    fraction, each drawn from the candidate's own generator."""
    return AggregateSpec(
        schema=small_schema(), n=n, class_fraction=(0.2, 0.4),
        binary={"PTT": BinaryStat((2.0, 6.0), 0.3),
                "PT": BinaryStat(3.0, (0.2, 0.5)),
                "Plt": BinaryStat(1.5, 0.4)})


# (spec, n_candidates, delta, base_seed, max_attempts, attempts it takes)
LOOP_CASES = {
    "config-10": (lambda: config_spec(10, n=1000), 4, 0.23, 7, 1000, 8),
    "interleaved": (lambda: interleaved_spec(500), 4, 0.22, 7, 1000, 21),
    "continuous-only": (lambda: age_spec(36.0, 19.0, n=300), 3, 0.0, 7,
                        1000, 3),
    "ranged": (lambda: ranged_spec(500), 4, 0.3, 7, 1000, 22),
    # 2 of 4 candidates kept when the attempts run out
    "partial": (lambda: config_spec(1, n=1000), 4, 0.21, 7, 30, 30),
}


class TestGenerateCandidates:
    @staticmethod
    def assert_same_as_reference_loop(spec, n_candidates, delta, base_seed,
                                      max_attempts, attempts):
        kept, used = reference_candidates(spec, n_candidates, delta,
                                          base_seed, max_attempts)
        try:
            cs = generate_candidates(spec, n_candidates, delta, base_seed,
                                     max_attempts)
            got, got_used = cs.candidates, cs.attempts_used
        except PartialCandidateSetError as err:
            assert len(kept) < n_candidates
            got, got_used = err.candidates, err.attempts_used
        assert got_used == used == attempts
        assert [c.seed for c in got] == [c.seed for c in kept]
        assert got == kept

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
        ranked = [rank(c) for c in cands]
        binary = spec.schema.binary_columns()
        for i in range(12):
            for j in range(12):
                if i != j:
                    assert _ranked_distance(ranked[i], ranked[j]) == \
                        match_rows(cands[i], cands[j], GREEDY_RANK,
                                   binary).average_distance

    def test_same_candidates_as_reference_loop(self):
        # config 1 at n=1000 and delta 0.2 rejects 26 of 31 attempts
        self.assert_same_as_reference_loop(config_spec(1, n=1000), 5, 0.2,
                                           7, 1000, 31)

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_same_candidates_as_reference_loop_on(self, case):
        make, *args = LOOP_CASES[case]
        self.assert_same_as_reference_loop(make(), *args)

    @pytest.mark.parametrize("case", ["config-1", *LOOP_CASES])
    def test_reconstruct_is_the_one_step_body(self, case):
        spec = (config_spec(1, n=1000) if case == "config-1"
                else LOOP_CASES[case][0]())
        for seed in (0, 7, derived_seed(7, 5)):
            got, want = reconstruct(spec, seed), reference_reconstruct(spec,
                                                                       seed)
            assert got.seed == want.seed == seed
            for name in spec.schema.column_names:
                assert got.column(name).dtype == want.column(name).dtype
                assert got.column(name).tobytes() == \
                    want.column(name).tobytes()

    def test_point_spec_solves_each_feature_once(self):
        spec = config_spec(1, n=1000)
        solve_cells.cache_clear()
        cs = generate_candidates(spec, 5, 0.2, base_seed=7)
        assert cs.attempts_used == 31
        assert solve_cells.cache_info().misses == \
            len(spec.schema.binary_feature_names)

    def test_rejected_attempts_build_no_dataset(self, monkeypatch):
        spec = config_spec(1, n=2000)
        built, init = [], Dataset.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(Dataset, "__init__", counted)
        cs = generate_candidates(spec, 9, 0.2, base_seed=2000)
        assert cs.attempts_used == 60
        assert built == cs.candidates and len(built) == 9

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

    @pytest.mark.parametrize("name, value", [
        ("n_candidates", 2.5), ("n_candidates", True), ("n_candidates", "3"),
        ("max_attempts", 1.5), ("max_attempts", False)])
    def test_counts_must_be_integers(self, name, value):
        counts = {"n_candidates": 1, "max_attempts": 10, name: value}
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            generate_candidates(trio_spec(), delta=0.0, base_seed=1,
                                **counts)

    def test_numpy_integer_counts_pass(self):
        cs = generate_candidates(trio_spec(), np.int64(2), 0.0, base_seed=1,
                                 max_attempts=np.int32(5))
        assert len(cs.candidates) == cs.attempts_used == 2

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

    @pytest.mark.parametrize("key", ["n_candidates", "delta", "attempts_used"])
    def test_manifest_missing_key_is_named(self, tmp_path, key):
        cs = generate_candidates(trio_spec(n=200), 1, 0.0, base_seed=8)
        save_candidates(cs, tmp_path / "cands")
        manifest = tmp_path / "cands" / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc[key]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^missing key '{key}' in "
                                             f"{re.escape(str(manifest))}$"):
            load_candidates(tmp_path / "cands")

    @pytest.mark.parametrize("key, value, says", [
        ("delta", "x", "delta must be a real number, got 'x'"),
        ("delta", 1.5, "delta must be in [0, 1), got 1.5"),
        ("attempts_used", True, "attempts_used must be an integer, got True"),
        ("attempts_used", 0, "attempts_used must be >= 1, got 0"),
        ("n_candidates", 2.0, "n_candidates must be an integer, got 2.0")])
    def test_manifest_values_follow_the_rules(self, tmp_path, key, value,
                                              says):
        # the rules generate_candidates holds these values to
        cs = generate_candidates(trio_spec(n=200), 1, 0.0, base_seed=8)
        save_candidates(cs, tmp_path / "cands")
        manifest = tmp_path / "cands" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc[key] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'{manifest}: {says}')}$"):
            load_candidates(tmp_path / "cands")
