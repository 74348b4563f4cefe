import hashlib
import statistics
import warnings
from collections import Counter

import pytest

import oracles
from rainbowcover import (
    ColorSet,
    ConstructParams,
    ParameterError,
    RoundsExhaustedError,
    block_length,
    construct_cover,
    make_rng,
    min_alpha,
    random_coloring,
    rounds,
    verify_cover,
)


class TestBlockLength:
    def test_frozen_values(self):
        # frozen from a 50-digit evaluation of sqrt(2)*sqrt((k-1)/k!)*n^(k/2)
        assert block_length(100, 3) == 817
        assert block_length(10, 3) == 26
        assert block_length(10, 4) == 50  # value is exactly 50, ceiling must not bump
        assert block_length(6, 3) == 12   # exact again: sqrt(2*2*216/6) = 12

    @pytest.mark.parametrize("n", range(2, 40))
    def test_pairs_give_n(self, n):
        assert block_length(n, 2) == n

    def test_ceiling_exact_on_grid(self):
        for n in range(2, 41):
            for k in range(2, min(n, 8) + 1):
                assert oracles.block_length_ceiling_ok(n, k, block_length(n, k)), (n, k)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            block_length(5, 1)
        with pytest.raises(ParameterError):
            block_length(5, 6)


class TestRounds:
    def test_frozen_values(self):
        assert rounds(2, 2, 2.0) == 3    # ceil(4 * ln 2) = ceil(2.7726)
        assert rounds(10, 3, 2.0) == 14  # ceil(6 * ln 10) = ceil(13.8155)

    def test_alpha_at_threshold_rejected(self):
        with pytest.raises(ParameterError):
            rounds(10, 3, min_alpha())
        with pytest.raises(ParameterError):
            rounds(10, 3, 1.0)

    def test_force_warns_and_proceeds(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = rounds(10, 3, 1.0, force=True)
        assert value == 7  # ceil(3 * ln 10)
        assert caught and "alpha" in str(caught[0].message)

    def test_log_bases(self):
        assert rounds(8, 3, 1.5, log_base="2") == 14   # ceil(1.5 * 3 * 3)
        assert rounds(100, 2, 4.0, log_base="10") == 16  # ceil(4 * 2 * 2)
        assert min_alpha("2") == 1.0

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            rounds(1, 3, 2.0)
        with pytest.raises(ParameterError):
            rounds(10, 3, 2.0, log_base="7")

    def test_same_nk_check_as_block_length(self):
        # a subset larger than the palette is refused by both factors of the
        # construction length, with the same message
        for factor in (block_length, lambda n, k: rounds(n, k, 2.0)):
            with pytest.raises(ParameterError, match="k = 5 exceeds the palette size n = 3"):
                factor(3, 5)

    def test_overflowing_alpha(self):
        # finite alpha whose product alpha * k * log(n) is not finite
        for force in (False, True):
            with pytest.raises(ParameterError, match="overflows"):
                rounds(3, 3, 1e308, force=force)
        with pytest.raises(ParameterError, match="overflows"):
            construct_cover(3, 3, ConstructParams(seed=1, alpha=1e308))


class TestRandomColoring:
    def test_single_colour(self):
        col = random_coloring(12, 1, make_rng(0))
        assert col.colors == (1,) * 12

    def test_reproducible(self):
        a = random_coloring(50, 6, make_rng(123))
        b = random_coloring(50, 6, make_rng(123))
        assert a == b
        c = random_coloring(50, 6, make_rng(124))
        assert a != c

    def test_rng_name_changes_stream(self):
        a = random_coloring(50, 6, make_rng(123, "philox"))
        b = random_coloring(50, 6, make_rng(123, "pcg64"))
        assert a != b

    def test_empirical_uniformity(self):
        # each colour frequency within 5 sigma of N/n
        N, n = 100_000, 10
        col = random_coloring(N, n, make_rng(2024))
        counts = Counter(col.colors)
        sigma = (N * (1 / n) * (1 - 1 / n)) ** 0.5
        for c in range(1, n + 1):
            assert abs(counts[c] - N / n) < 5 * sigma, c

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            random_coloring(0, 3, make_rng(0))
        with pytest.raises(ParameterError):
            random_coloring(3, 0, make_rng(0))
        with pytest.raises(ParameterError):
            make_rng(0, "mt19937")
        with pytest.raises(ParameterError):
            make_rng(-1)


class TestConstructParams:
    def test_defaults(self):
        params = ConstructParams(seed=1)
        assert params.alpha == 2.0 and params.samples_per_round == 16
        assert params.rng_name == "philox" and params.log_base == "e"

    def test_validation(self):
        with pytest.raises(ParameterError):
            ConstructParams(seed=1, alpha=1.0)
        with pytest.raises(ParameterError):
            ConstructParams(seed=1, samples_per_round=0)
        with pytest.raises(ParameterError):
            ConstructParams(seed=-1)
        with pytest.raises(ParameterError):
            ConstructParams(seed=1, rng_name="bogus")
        # force_alpha downgrades the alpha check
        assert ConstructParams(seed=1, alpha=1.0, force_alpha=True).alpha == 1.0


class TestConstructCover:
    def test_single_subset(self):
        result = construct_cover(3, 3, ConstructParams(seed=0))
        assert verify_cover(result.coloring, 3, 3).complete
        assert result.trace.final_length == result.trace.rounds_used * block_length(3, 3)

    def test_certificate_and_trace_consistency(self):
        result = construct_cover(10, 3, ConstructParams(seed=42))
        assert verify_cover(result.coloring, 10, 3).complete
        trace = result.trace
        assert trace.final_length == len(result.coloring.colors)
        assert trace.rounds_used == len(trace.rounds)
        sizes = [rec.family_before for rec in trace.rounds]
        after = [rec.family_after for rec in trace.rounds]
        assert sizes[0] == 120  # C(10,3), the whole family
        assert after[-1] == 0
        for rec in trace.rounds:
            assert 0 <= rec.family_after <= rec.family_before
            assert rec.coverage_fraction == pytest.approx(
                (rec.family_before - rec.family_after) / rec.family_before)
            assert rec.samples == 16
        # family sizes chain between rounds
        for prev, nxt in zip(trace.rounds, trace.rounds[1:]):
            assert nxt.family_before == prev.family_after

    def test_deterministic(self):
        a = construct_cover(8, 4, ConstructParams(seed=5))
        b = construct_cover(8, 4, ConstructParams(seed=5))
        assert a.coloring == b.coloring
        assert a.trace.rounds == b.trace.rounds

    # sha256 of the space-joined colouring, pinned before the scoring moved
    # to the shared rainbow-rank kernel
    @pytest.mark.parametrize("n,k,seed,rng_name,length,digest", [
        (10, 3, 0, "philox", 104,
         "14e561349f1add8b046d66ffc94928dc8c4f85b0ef4141111c9fd0e6d0ce294c"),
        (12, 3, 1, "pcg64", 170,
         "dea05ff3720a850e4bba9db96684e575a215915dd8170cb89213b900b138c445"),
        (8, 4, 2, "philox", 96,
         "311b7e9469e4746fc1dba2dcccc0aa9e2b70a433f9c2fc74180659eeea68bdc3"),
    ])
    def test_seed_replay(self, n, k, seed, rng_name, length, digest):
        colors = construct_cover(n, k, ConstructParams(seed=seed, rng_name=rng_name)).coloring.colors
        assert len(colors) == length
        assert hashlib.sha256(" ".join(map(str, colors)).encode()).hexdigest() == digest

    def test_rounds_exhausted_carries_residual(self):
        params = ConstructParams(seed=1, samples_per_round=1, max_rounds=1)
        with pytest.raises(RoundsExhaustedError) as info:
            construct_cover(8, 3, params)
        exc = info.value
        assert exc.rounds_used == 1
        assert exc.residual and all(cs.k == 3 for cs in exc.residual)
        assert exc.trace is not None and exc.trace.rounds_used == 1

    def test_residual_is_the_uncovered_family_in_colex_order(self):
        params = ConstructParams(seed=2, samples_per_round=1, max_rounds=1)
        with pytest.raises(RoundsExhaustedError) as info:
            construct_cover(20, 3, params)
        residual = info.value.residual
        assert len(residual) == info.value.trace.rounds[-1].family_after
        assert [cs.rank for cs in residual] == sorted({cs.rank for cs in residual})
        assert residual == [ColorSet.from_rank(cs.rank, 20, 3) for cs in residual]

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            construct_cover(3, 1, ConstructParams(seed=0))
        with pytest.raises(ParameterError):
            construct_cover(3, 4, ConstructParams(seed=0))

    def test_first_round_coverage_median(self):
        # desk-scale analogue of per-round halving: the best of 16 candidate
        # blocks should wipe out roughly half the family in round one. This is
        # a statistical check: report below 0.4, hard-fail only below 0.25.
        fractions = []
        for seed in range(50):
            result = construct_cover(10, 3, ConstructParams(seed=seed))
            fractions.append(result.trace.rounds[0].coverage_fraction)
        median = statistics.median(fractions)
        if median < 0.4:
            print(f"note: first-round coverage median {median:.3f} below the "
                  f"0.4 expectation (small-n effect, not a failure)")
        assert median >= 0.25
