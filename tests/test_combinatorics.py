import itertools
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest

import oracles
from rainbowcover import (
    BudgetExceededError,
    ColorSet,
    FamilySizeError,
    ParameterError,
    Progression,
    count_intersecting_pairs,
    count_progressions,
    hi_upper_bounds,
)
from rainbowcover import combinatorics
from rainbowcover.combinatorics import (
    ColorSetView,
    colex_table,
    colex_unrank,
    progression_blocks,
    rainbow_ranks,
)


def progression_list(N, k):
    """(start, diff) of every k-progression of [N], in progression_blocks order."""
    return [(s, d) for diffs, starts, _ in progression_blocks(N, k)
            for d, s in zip(diffs.tolist(), starts.tolist())]


class TestProgression:
    def test_positions_and_last(self):
        prog = Progression(4, 3, 3)
        assert list(prog.positions()) == [4, 7, 10]
        assert prog.last == 10


class TestEnumerate:
    def test_five_three(self):
        # frozen from the brute-force (start, diff) scan
        assert progression_list(5, 3) == [(1, 1), (2, 1), (3, 1), (1, 2)]
        positions = np.concatenate([p for _, _, p in progression_blocks(5, 3)])
        assert (positions + 1).tolist() == [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 3, 5]]

    def test_blocks_are_column_major(self):
        # rainbow_ranks gathers by positions.T, and construct by that of the
        # concatenated blocks: both must be contiguous, or each call copies them
        for N, k in [(5, 3), (300, 3), (400, 2), (120, 5)]:
            blocks = [p for _, _, p in progression_blocks(N, k)]
            assert all(p.dtype == np.int64 and p.T.flags.c_contiguous for p in blocks)
            assert np.concatenate(blocks).T.flags.c_contiguous, (N, k)
        assert len(list(progression_blocks(400, 2))) > 1

    def test_too_short_interval_is_empty(self):
        assert progression_list(3, 4) == []

    def test_twelve_three_count(self):
        assert len(progression_list(12, 3)) == 30

    def test_order_is_diff_then_start(self):
        for N, k in [(11, 2), (17, 3), (20, 4)]:
            pairs = [(d, s) for s, d in progression_list(N, k)]
            assert pairs == sorted(pairs)
            assert len(pairs) == len(set(pairs))

    def test_matches_oracle_scan(self):
        for k in range(2, 7):
            for N in range(1, 31):
                expected = oracles.progressions(N, k)
                assert progression_list(N, k) == expected, (N, k)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            progression_blocks(5, 1)
        with pytest.raises(ParameterError):
            progression_blocks(0, 3)


class TestCountProgressions:
    def test_frozen_values(self):
        assert count_progressions(5, 3) == 4
        assert count_progressions(12, 3) == 30

    @pytest.mark.parametrize("k", range(2, 9))
    def test_interval_shorter_than_progression(self, k):
        assert count_progressions(k - 1, k) == 0

    def test_closed_form_equals_enumeration(self):
        for k in range(2, 7):
            for N in range(1, 61):
                assert count_progressions(N, k) == len(progression_list(N, k))

    def test_big_interval_no_overflow(self):
        # k=2 progressions are position pairs, so the count is C(N,2)
        N = 10**9
        assert count_progressions(N, 2) == N * (N - 1) // 2


class TestPairCounts:
    def test_five_three_frozen(self):
        tallies = count_intersecting_pairs(5, 3)
        assert tallies.total == 4
        assert tallies.counts == (0, 2, 4)
        assert sum(tallies.counts) == comb(4, 2)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_single_progression_has_no_pairs(self, k):
        tallies = count_intersecting_pairs(k, k)
        assert tallies.total == 1
        assert tallies.counts == (0,) * k

    def test_twelve_three_frozen(self):
        tallies = count_intersecting_pairs(12, 3)
        assert tallies.counts == (167, 226, 42)
        assert sum(tallies.counts) == comb(30, 2) == 435

    def test_matches_oracle(self):
        for N, k in [(8, 2), (10, 3), (13, 3), (14, 4), (15, 5)]:
            assert list(count_intersecting_pairs(N, k).counts) == oracles.pair_counts(N, k)

    def test_budget_guard(self):
        # h = 2.5e11 progressions: refused before anything h-sized is built
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                count_intersecting_pairs(10**6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_single_positions_need_no_sort(self):
        # k = 2 has only the j = 1 moment, a bincount of the 4M terms: no
        # gathered keys and no int64 sort index of 4M rows
        tracemalloc.start()
        try:
            tallies = count_intersecting_pairs(2000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(tallies.counts) == comb(tallies.total, 2)
        assert peak < 8 * 2**20

    def test_guard_counts_largest_gather(self, monkeypatch):
        # the guard's unit is the largest gather, max_j h*C(k,j)*j; for (12, 3)
        # that is 30 * 3 * 2 = 180 entries
        for k in range(2, 13):
            assert max(comb(k, j) * j for j in range(1, k)) == k * comb(k - 1, (k - 1) // 2)
        monkeypatch.setattr(combinatorics, "PAIR_ENTRY_LIMIT", 180)
        assert count_intersecting_pairs(12, 3).counts == (167, 226, 42)
        monkeypatch.setattr(combinatorics, "PAIR_ENTRY_LIMIT", 179)
        with pytest.raises(BudgetExceededError):
            count_intersecting_pairs(12, 3)


class TestHiUpperBounds:
    def test_twelve_three_frozen(self):
        assert hi_upper_bounds(12, 3) == (435, 3240, 198)

    def test_two_entries_for_pairs(self):
        h = count_progressions(9, 2)
        assert hi_upper_bounds(9, 2) == (comb(h, 2), h * 4 * 9)

    def test_identity_and_bounds_on_grid(self):
        for k in (3, 4, 5):
            for N in range(k, 26):
                tallies = count_intersecting_pairs(N, k)
                bounds = hi_upper_bounds(N, k)
                assert sum(tallies.counts) == comb(tallies.total, 2)
                for i, value in enumerate(tallies.counts):
                    assert value <= bounds[i], (N, k, i)

    def test_asymptotic_normalization(self):
        # h(N,3) * 4 / N^2 approaches 1; within 5% at these sizes
        for N in (10**3, 10**4, 10**5):
            assert abs(count_progressions(N, 3) * 4 / N**2 - 1.0) < 0.05


class TestSubsetRanking:
    """ColorSet ranks and unranks through the batch kernels, checked against
    the scalar colex rank and unrank of the oracles."""

    def test_colex_extremes(self):
        for n in range(2, 10):
            for k in range(1, n + 1):
                low, high = range(1, k + 1), range(n - k + 1, n + 1)
                assert ColorSet.from_colors(low, n).rank == 0
                assert ColorSet.from_colors(high, n).rank == comb(n, k) - 1
                assert ColorSet.from_rank(0, n, k).colors == tuple(low)
                assert ColorSet.from_rank(comb(n, k) - 1, n, k).colors == tuple(high)

    def test_round_trip_eight_three(self):
        seen = set()
        for rank in range(comb(8, 3)):
            cs = ColorSet.from_rank(rank, 8, 3)
            assert ColorSet.from_colors(cs.colors, 8) == cs
            assert cs.colors == oracles.subset_unrank(rank, 3)
            seen.add(cs.mask)
        assert len(seen) == 56

    def test_bijection_up_to_sixteen(self):
        for n in range(1, 17):
            for k in range(1, n + 1):
                combos = np.array(list(itertools.combinations(range(1, n + 1), k)))
                table = colex_table(n, k)
                ranks = rainbow_ranks(np.arange(1, n + 1), combos - 1, table)
                assert ranks.tolist() == [oracles.subset_rank(c) for c in combos.tolist()]
                assert sorted(ranks.tolist()) == list(range(comb(n, k)))
                assert np.array_equal(colex_unrank(ranks, table), combos)

    def test_colex_table_cached_read_only(self):
        # every ColorSet built at (n, k) shares one table, so none may write it
        table = colex_table(20, 3)
        assert colex_table(20, 3) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_rank_independent_of_n(self):
        assert ColorSet.from_colors([2, 3, 5], 5) == ColorSet.from_colors([2, 3, 5], 16)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            ColorSet.from_colors([], 6)
        with pytest.raises(ParameterError):
            ColorSet.from_rank(comb(6, 3), 6, 3)
        with pytest.raises(ParameterError):
            ColorSet.from_rank(-1, 6, 3)
        with pytest.raises(ParameterError):
            ColorSet.from_rank(0, 3, 4)
        # past the coverage-family guard, before any comb table is built
        with pytest.raises(FamilySizeError):
            ColorSet.from_rank(0, 200, 100)
        with pytest.raises(FamilySizeError):
            ColorSet.from_colors(range(1, 101), 200)


BRANCHES = pytest.mark.parametrize("limit", [0, 64], ids=["sort", "network"])


class TestRainbowRankOffsets:
    """rainbow_ranks reads C(c-1, j) at flat offset (j-1)(n-k) + c-1 of colex_table."""

    @BRANCHES
    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_n_equals_k_rows_of_one(self, limit, n):
        table = colex_table(n, n)
        assert table.shape == (n, 1)
        positions = np.arange(n)[None, :]
        with mock.patch.object(combinatorics, "NETWORK_MAX_K", limit):
            assert rainbow_ranks(np.arange(n, 0, -1), positions, table).tolist() == [0]
            repeated = np.r_[np.arange(1, n), 1]
            assert rainbow_ranks(repeated, positions, table).tolist() == [-1]

    @BRANCHES
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("n, k", [(3, 2), (9, 4), (255, 3), (256, 7), (257, 5), (300, 9)])
    def test_all_top_colour_ranks_minus_one(self, limit, dtype, n, k):
        # every gathered index is n-1, the largest: it must stay inside the table
        N = 3 * k
        positions = np.concatenate([p for _, _, p in progression_blocks(N, k)])
        colors = np.full((2, N), n, dtype=dtype)
        table = colex_table(n, k)
        with mock.patch.object(combinatorics, "NETWORK_MAX_K", limit):
            assert (rainbow_ranks(colors, positions, table) == -1).all()
            assert (rainbow_ranks(colors[0], positions, table) == -1).all()

    @BRANCHES
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("n", [256, 257])
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_top_subset_ranks_last(self, limit, dtype, n, k):
        colors = np.arange(1, n + 1, dtype=dtype)
        positions = np.arange(n - k, n)[None, :]  # colours n-k+1..n
        with mock.patch.object(combinatorics, "NETWORK_MAX_K", limit):
            ranks = rainbow_ranks(colors, positions, colex_table(n, k))
        assert ranks.tolist() == [comb(n, k) - 1]


class TestColorSet:
    def test_from_colors_and_back(self):
        cs = ColorSet.from_colors([5, 2, 6], 6)
        assert cs.colors == (2, 5, 6)
        assert cs.k == 3
        assert ColorSet.from_rank(cs.rank, 6, 3) == cs
        # numpy rows with colours past bit 63, as colex_unrank returns them
        ranks = [0, 4000, comb(100, 3) - 1]
        rows = [np.array([3, 70, 90]), *colex_unrank(np.array(ranks), colex_table(100, 3))]
        for row in rows:
            cs = ColorSet.from_colors(row, 100)
            assert cs.colors == tuple(row.tolist())
            assert ColorSet.from_rank(cs.rank, 100, 3) == cs

    def test_duplicates_rejected(self):
        with pytest.raises(ParameterError):
            ColorSet.from_colors([1, 1, 2], 6)

    def test_out_of_palette_rejected(self):
        with pytest.raises(ParameterError):
            ColorSet.from_colors([1, 7], 6)

    def test_view_unequal_to_tuple(self):
        # only a list or another view compares by entries
        family = np.ones(comb(6, 3), dtype=bool)
        family[[0, 3]] = False
        view = ColorSetView(family, 6, 3, comb(6, 3) - 2)
        entries = [ColorSet.from_rank(0, 6, 3), ColorSet.from_rank(3, 6, 3)]
        assert view == entries
        assert view != tuple(entries) and tuple(entries) != view
