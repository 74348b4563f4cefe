import itertools
import re
import tracemalloc
from math import comb

import numpy as np
import pytest

import oracles
from rainbowcover import (
    BudgetExceededError,
    ColorSet,
    Coloring,
    ConstructParams,
    FamilySizeError,
    ParameterError,
    Progression,
    SearchConfig,
    ac_exact,
    construct_cover,
    count_intersecting_pairs,
    count_progressions,
    estimate_cover_probability,
    hi_upper_bounds,
)
from rainbowcover import combinatorics
from rainbowcover.combinatorics import (
    ColorSetView,
    colex_table,
    colex_unrank,
    position_counts,
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

    @pytest.mark.parametrize("N, k, counts", [
        (103, 3, (3082517, 294516, 4267)),
        (98, 4, (1006919, 187886, 7619, 1152)),
        (2000, 3, (496674327167, 2324009666, 1663667)),
        (4243, 3, (10096638139907, 22237539306, 7494907)),
        (5790, 2, (140337627788295, 97001989140)),
        (600, 6, (596757072, 39643416, 611017, 160530, 25415, 29700)),
        (400, 8, (52867629, 9557180, 430753, 96282, 61472, 7800, 8690, 9800)),
    ])
    def test_matches_subset_moments(self, N, k, counts):
        # pinned from the j-subset moment method, too large for the oracle
        assert count_intersecting_pairs(N, k).counts == counts

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
        # k = 2 has no difference class whose pairs share two terms, so h_1
        # comes from the N position counts alone: no table of the 2M
        # progressions' 4M terms and no sort
        tracemalloc.start()
        try:
            tallies = count_intersecting_pairs(2000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(tallies.counts) == comb(tallies.total, 2)
        assert peak < 8 * 2**20

    def test_guard_counts_classes(self, monkeypatch):
        # the guard's unit is N plus k^2 per resonant difference class
        # (g*a, g*b); for (12, 3), D = 5 gives g <= 5 at 1:1 and g <= 2 at 1:2,
        # so 12 + 9 * 7 = 75 entries
        monkeypatch.setattr(combinatorics, "PAIR_ENTRY_LIMIT", 75)
        assert count_intersecting_pairs(12, 3).counts == (167, 226, 42)
        monkeypatch.setattr(combinatorics, "PAIR_ENTRY_LIMIT", 74)
        with pytest.raises(BudgetExceededError, match="need at least 75 gathered entries"):
            count_intersecting_pairs(12, 3)

    def test_pairs_of_positions_at_the_largest_interval(self):
        # k = 2 progressions are position pairs, and two of them share at most
        # one position: h_1 = N*C(N-1, 2) pins the int64 sum of C(m_x, 2)
        N = 209716
        tallies = count_intersecting_pairs(N, 2)
        assert tallies.counts[1] == N * comb(N - 1, 2)
        assert tallies.counts[0] == comb(comb(N, 2), 2) - tallies.counts[1]
        with pytest.raises(BudgetExceededError):
            count_intersecting_pairs(N + 1, 2)

    @pytest.mark.parametrize("N, k", [(40, 20), (31, 30), (60, 20)])
    def test_large_k_at_small_h(self, N, k):
        # the j-subset moments refused these, at C(k-1, (k-1)/2) entries a row
        assert list(count_intersecting_pairs(N, k).counts) == oracles.pair_counts(N, k)


class TestPositionCounts:
    def test_matches_terms(self):
        for k in range(2, 7):
            for N in range(1, 41):
                terms = [p - 1 for s, d in oracles.progressions(N, k)
                         for p in oracles.progression_terms(s, d, k)]
                assert position_counts(N, k).tolist() == np.bincount(terms, minlength=N).tolist()


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


# every k sorts through the one network; the "network" id keeps these cases'
# names from when an np.sort path for k > 16 sat beside it
NETWORK = pytest.mark.parametrize("rank", [rainbow_ranks], ids=["network"])


class TestRainbowRankOffsets:
    """rainbow_ranks reads C(c-1, j) at flat offset (j-1)(n-k) + c-1 of colex_table."""

    @NETWORK
    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_n_equals_k_rows_of_one(self, rank, n):
        table = colex_table(n, n)
        assert table.shape == (n, 1)
        positions = np.arange(n)[None, :]
        assert rank(np.arange(n, 0, -1), positions, table).tolist() == [0]
        repeated = np.r_[np.arange(1, n), 1]
        assert rank(repeated, positions, table).tolist() == [-1]

    @NETWORK
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("n, k", [(3, 2), (9, 4), (255, 3), (256, 7), (257, 5), (300, 9)])
    def test_all_top_colour_ranks_minus_one(self, rank, dtype, n, k):
        # every gathered index is n-1, the largest: it must stay inside the table
        N = 3 * k
        positions = np.concatenate([p for _, _, p in progression_blocks(N, k)])
        colors = np.full((2, N), n, dtype=dtype)
        table = colex_table(n, k)
        assert (rank(colors, positions, table) == -1).all()
        assert (rank(colors[0], positions, table) == -1).all()

    @NETWORK
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("n", [256, 257])
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_top_subset_ranks_last(self, rank, dtype, n, k):
        colors = np.arange(1, n + 1, dtype=dtype)
        positions = np.arange(n - k, n)[None, :]  # colours n-k+1..n
        ranks = rank(colors, positions, colex_table(n, k))
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
        # a view has no equality of its own: compare list(view)
        family = np.ones(comb(6, 3), dtype=bool)
        family[[0, 3]] = False
        view = ColorSetView(family, 6, 3, comb(6, 3) - 2)
        entries = [ColorSet.from_rank(0, 6, 3), ColorSet.from_rank(3, 6, 3)]
        assert list(view) == entries
        assert view != entries and entries != view
        assert view != tuple(entries) and tuple(entries) != view


class TestIntegerArguments:
    # every size, count and seed goes through operator.index: a float, a bool
    # or a string is a ParameterError, where each was once accepted, returned
    # a float or raised TypeError
    @pytest.mark.parametrize("call, message", [
        (lambda: count_progressions(12.0, 3), "interval length N must be an integer, got 12.0"),
        (lambda: count_progressions(12, True), "progression length k must be an integer, got True"),
        (lambda: Coloring((1, 2), 2.5), "number of colours must be an integer, got 2.5"),
        (lambda: SearchConfig(node_budget=2.5), "node_budget must be an integer, got 2.5"),
        (lambda: ac_exact(4.0, 3), "palette size n must be an integer, got 4.0"),
        (lambda: construct_cover(5.0, 3, ConstructParams(seed=0)),
         "palette size n must be an integer, got 5.0"),
        (lambda: estimate_cover_probability(6, 3, 12, 100.0, 1),
         "trials must be an integer, got 100.0"),
        (lambda: ConstructParams(seed=True), "seed must be an integer, got True"),
        (lambda: ColorSet.from_rank(0, "6", 3), "palette size n must be an integer, got '6'"),
        (lambda: ColorSet.from_rank(True, 3, 2), "rank must be an integer, got True"),
        (lambda: ColorSet.from_rank(1.5, 3, 2), "rank must be an integer, got 1.5"),
        # colours as Coloring reads them: True was once colour 1, 1.5 a TypeError
        (lambda: ColorSet.from_colors([True, 2], 2), "colour True at position 1 outside 1..2"),
        (lambda: ColorSet.from_colors([1.5, 2], 2), "colour 1.5 at position 1 outside 1..2"),
    ])
    def test_non_integer_rejected(self, call, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call()

    def test_numpy_integers_pass_as_ints(self):
        assert count_progressions(np.int64(12), np.int32(3)) == 30
        assert ac_exact(np.int64(4), np.int8(3)).value == 6
        config = SearchConfig(max_N=np.int16(9), node_budget=np.int64(10))
        params = ConstructParams(seed=np.int64(5), samples_per_round=np.int32(2),
                                 max_rounds=np.uint8(3))
        stored = (Coloring((1, 2), np.int64(2)).n, config.max_N, config.node_budget,
                  params.seed, params.samples_per_round, params.max_rounds,
                  ColorSet.from_rank(np.int64(1), 3, 2).rank)
        assert stored == (2, 9, 10, 5, 2, 3, 1) and all(type(v) is int for v in stored)
