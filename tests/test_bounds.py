from fractions import Fraction
import json
from math import comb, factorial
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import oracles
from rainbowcover import (
    BudgetExceededError,
    ParameterError,
    block_length,
    bonferroni_lower_bound,
    compute_bounds_report,
    count_progressions,
    estimate_cover_probability,
    lower_bound_N,
    rounds,
    upper_bound_length,
)
from rainbowcover import bounds, cli
from rainbowcover.bounds import _cover_hits
from rainbowcover.cli import fraction_json


def bounds_record(capsys, *argv):
    """The JSON record of a `bounds` run that exits 0."""
    assert cli.main(["bounds", *argv]) == 0
    return json.loads(capsys.readouterr().out)


class TestBonferroni:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_single_progression(self, k):
        # h = 1 and no pairs, so the bound is exactly k!/k^k
        assert bonferroni_lower_bound(k, k, k) == Fraction(factorial(k), k**k)

    def test_frozen_six_two_six(self):
        assert bonferroni_lower_bound(6, 2, 6) == Fraction(5, 36)

    def test_exact_dominates_bounded(self):
        for n, k in [(6, 2), (10, 2), (6, 3), (10, 3), (8, 4)]:
            N = block_length(n, k)
            exact = bonferroni_lower_bound(n, k, N, "exact-pairs")
            bounded = bonferroni_lower_bound(n, k, N, "bounded-pairs")
            assert exact >= bounded, (n, k)

    def test_at_most_one(self):
        for n, k in [(6, 2), (12, 2), (8, 3), (14, 3)]:
            for N in (n, block_length(n, k), 2 * block_length(n, k)):
                assert bonferroni_lower_bound(n, k, N) <= 1

    def test_below_exact_two_colour_probability(self):
        # exact rational comparison on both sides
        for n in range(3, 11):
            for N in (n, 2 * n):
                bound = bonferroni_lower_bound(n, 2, N)
                assert bound <= oracles.two_color_cover_probability(n, N), (n, N)

    def test_negative_values_representable(self):
        # oversized N makes the pair terms dominate; the bound goes vacuous
        assert bonferroni_lower_bound(3, 2, 40) < 0

    def test_mode_and_budget_errors(self):
        with pytest.raises(ParameterError):
            bonferroni_lower_bound(6, 2, 6, mode="sloppy")
        with pytest.raises(BudgetExceededError):
            bonferroni_lower_bound(10, 3, 10**6)


class TestEstimate:
    def test_no_progressions_means_zero(self):
        result = estimate_cover_probability(5, 3, 2, trials=100, seed=1)
        assert result.p_hat == 0.0 and result.std_err == 0.0

    def test_no_progressions_still_checks_the_rng(self):
        with pytest.raises(ParameterError, match="seed"):
            estimate_cover_probability(5, 3, 2, trials=100, seed=-1)
        with pytest.raises(ParameterError, match="rng"):
            estimate_cover_probability(5, 3, 2, trials=100, seed=1, rng_name="mt")

    def test_single_progression_case(self):
        # one progression, P(rainbow with the fixed set) = 3!/3^3 = 2/9
        result = estimate_cover_probability(3, 3, 3, trials=100_000, seed=31)
        exact = 6 / 27
        sigma = (exact * (1 - exact) / result.trials) ** 0.5
        assert abs(result.p_hat - exact) <= 3 * sigma

    def test_matches_two_colour_formula(self):
        for n, N, seed in [(4, 8, 11), (7, 7, 12), (10, 20, 13)]:
            exact = float(oracles.two_color_cover_probability(n, N))
            result = estimate_cover_probability(n, 2, N, trials=50_000, seed=seed)
            sigma = (exact * (1 - exact) / result.trials) ** 0.5
            assert abs(result.p_hat - exact) <= 3 * sigma, (n, N)

    def test_reproducible(self):
        a = estimate_cover_probability(8, 3, 19, trials=5000, seed=77)
        b = estimate_cover_probability(8, 3, 19, trials=5000, seed=77)
        assert a == b

    def test_records_inputs(self):
        result = estimate_cover_probability(6, 2, 6, trials=10, seed=3, rng_name="pcg64")
        assert (result.trials, result.seed, result.rng_name) == (10, 3, "pcg64")

    @pytest.mark.parametrize("args, p_hat", [
        ((8, 3, 40, 5000, 5), 0.9156),
        ((6, 4, 30, 6000, 11, "pcg64"), 0.8106666666666666),
    ])
    def test_split_chunks_replay_draws(self, args, p_hat):
        # values computed before chunks were split into sub-batches; both
        # cases split each 4096-row chunk
        assert estimate_cover_probability(*args).p_hat == p_hat

    def test_streamed_blocks_replay_draws(self):
        # value computed with all blocks in one table; h = 22,350 spans two blocks
        assert estimate_cover_probability(60, 3, 300, 600, 4).p_hat == 0.37

    def test_memory_flat_in_interval_length(self):
        tracemalloc.start()
        try:
            estimate_cover_probability(3, 3, 3000, trials=1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_bounded_past_the_word_width(self):
        # k = 100 > 64: one-hot words of 8 bytes, rows of 300 entries
        tracemalloc.start()
        try:
            estimate_cover_probability(200, 100, 300, 4096, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_chunk_over_draw_limit_is_a_budget_error(self):
        # the limit counts the entries of the first chunk, at most 4096 rows
        with mock.patch.object(bounds, "_DRAW_LIMIT", 4096 * 50):
            assert estimate_cover_probability(3, 3, 50, trials=5000, seed=1).trials == 5000
            assert estimate_cover_probability(3, 3, 51, trials=4000, seed=1).trials == 4000
            with pytest.raises(BudgetExceededError, match="limit"):
                estimate_cover_probability(3, 3, 51, trials=5000, seed=1)

    @pytest.mark.parametrize("k", [65, 70])
    def test_cover_hits_confirm_past_the_word_width(self, k):
        # the OR of 64-bit words sees colours 1..64 only; the rank confirm
        # must reject what it lets through
        n, N, shuffle = k + 5, 2 * (k - 1) + 4, random.Random(k).shuffle
        others = list(range(66, k + 1))  # colours of R past 65

        def planted(colours):
            # colours on the progression 2, 4, ..., 2k of [N], colour n elsewhere
            shuffle(colours)
            row = [n] * N
            row[1:2 * k:2] = colours
            return row

        cases = [(planted(list(range(1, k + 1))), True)]
        for stand_in in [1, 64] + others[-1:] + [k + 1, n]:  # repeats, then outside R
            cases.append((planted(list(range(1, 65)) + [stand_in] + others), False))
        rows = np.array([row for row, _ in cases], dtype=np.int16)
        R = frozenset(range(1, k + 1))
        expected = [R in oracles.covered_sets(tuple(row), k) for row, _ in cases]
        assert expected == [hit for _, hit in cases]
        assert _cover_hits(rows, n, k).tolist() == expected

    def test_palette_must_fit_int16(self):
        with pytest.raises(ParameterError, match="32767"):
            estimate_cover_probability(32768, 2, 5, trials=1, seed=1)
        assert estimate_cover_probability(32767, 2, 5, trials=1, seed=1).trials == 1

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            estimate_cover_probability(6, 2, 6, trials=0, seed=1)
        with pytest.raises(ParameterError):
            estimate_cover_probability(2, 3, 6, trials=10, seed=1)


class TestLowerBoundN:
    def test_frozen_values(self):
        assert lower_bound_N(3, 3) == 3
        assert lower_bound_N(4, 3) == 5  # h(5,3) = 4 = C(4,3), h(4,3) = 2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_pairs_give_n(self, n):
        assert lower_bound_N(n, 2) == n

    def test_definitional_sandwich(self):
        for k in (2, 3, 4):
            for n in range(k, 21):
                N = lower_bound_N(n, k)
                target = comb(n, k)
                assert count_progressions(N, k) >= target
                if N > 1:
                    assert count_progressions(N - 1, k) < target

    def test_scaling_for_triples(self):
        for n in range(10, 31):
            ratio = lower_bound_N(n, 3) / (4 * comb(n, 3)) ** 0.5
            assert 0.8 <= ratio <= 1.2, n


class TestUpperBoundLength:
    def test_pairs_factorization(self):
        for n in (5, 9, 16):
            assert upper_bound_length(n, 2, 2.0) == rounds(n, 2, 2.0) * n

    def test_ten_three_frozen(self):
        # 14 rounds of blocks of 26
        assert upper_bound_length(10, 3, 2.0) == 14 * 26 == 364

    def test_never_below_lower_bound(self):
        for k in (2, 3, 4):
            for n in range(max(k, 6), 21):
                assert upper_bound_length(n, k, 2.0) >= lower_bound_N(n, k), (n, k)


class TestBoundsReport:
    def test_report_assembly(self, capsys):
        report = compute_bounds_report(10, 3, alpha=2.0)
        assert report.N == block_length(10, 3) == 26
        assert report.h == count_progressions(26, 3)
        assert sum(report.h_i) == comb(report.h, 2)
        assert report.pairs_mode == "exact-pairs"
        assert report.N_lower == lower_bound_N(10, 3)
        assert report.construction_length == 364
        record = bounds_record(capsys, "--n", "10", "--k", "3", "--alpha", "2.0")
        assert record["L_float"] == pytest.approx(float(report.L))

    def test_bounded_mode(self):
        exact = compute_bounds_report(8, 3)
        bounded = compute_bounds_report(8, 3, pairs_mode="bounded-pairs")
        assert bounded.L <= exact.L
        assert bounded.pairs_mode == "bounded-pairs"

    def test_fraction_rendering(self):
        rendered = fraction_json(Fraction(5, 36))
        assert rendered["numerator"] == 5 and rendered["denominator"] == 36
        assert rendered["decimal_30_digits"].startswith("0.13888888888888888888888888888")

    def test_dict_round_trip(self, capsys):
        data = bounds_record(capsys, "--n", "6", "--k", "2", "--N", "6")
        assert data["h"] == 15
        assert data["L"]["numerator"] == 5 and data["L"]["denominator"] == 36
        assert data["h_i"] == [45, 60]
