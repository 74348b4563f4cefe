import random
import tracemalloc
from math import comb

import numpy as np
import pytest

import oracles
from rainbowcover import (
    ColorSet,
    Coloring,
    ColoringFormatError,
    FamilySizeError,
    ParameterError,
    Progression,
    count_progressions,
    covered_family,
    format_coloring,
    parse_coloring_text,
    verify_cover,
)
from rainbowcover.combinatorics import colex_table, rainbow_ranks

# 12-term 6-colouring used as the golden verifier input throughout
GOLDEN = (4, 6, 5, 1, 3, 4, 2, 5, 6, 3, 1, 4)


def rainbow_colors(coloring, prog):
    """Colours of prog when they are pairwise distinct, else None, by one kernel call."""
    n, k = coloring.n, prog.length
    positions = np.array([prog.positions()]) - 1
    rank = rainbow_ranks(np.array(coloring.colors), positions, colex_table(n, k))[0]
    return ColorSet.from_rank(int(rank), n, k).colors if rank >= 0 else None


def witness(coloring, colors):
    """First progression in enumeration order carrying exactly these colours."""
    R = ColorSet.from_colors(colors, coloring.n)
    return covered_family(coloring, R.k, record_witnesses=True).witnesses.get(R.rank)


class TestColoring:
    def test_basic(self):
        col = Coloring((1, 2, 1), 2)
        assert col.N == 3

    def test_value_out_of_range(self):
        with pytest.raises(ParameterError):
            Coloring((1, 3), 2)
        with pytest.raises(ParameterError):
            Coloring((0, 1), 2)
        with pytest.raises(ParameterError, match=r"^colour 4 at position 3 outside 1\.\.3$"):
            Coloring((1, 2, 4, 0, 5), 3)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            Coloring((), 2)

    def test_empty_palette_rejected(self):
        with pytest.raises(ParameterError, match=r"^number of colours must be >= 1, got 0$"):
            Coloring((1,), 0)

    def test_list_coerced(self):
        assert Coloring([1, 2], 2).colors == (1, 2)

    def test_non_integer_colour_rejected(self):
        # 1.5 used to be read as colour 1, so this colouring verified as complete
        with pytest.raises(ParameterError, match=r"^colour 1\.5 at position 1 outside 1\.\.3$"):
            verify_cover(Coloring((1.5, 2, 3, 1, 2, 3), 3), 3, 3)
        with pytest.raises(ParameterError, match=r"^colour '2' at position 3 outside 1\.\.3$"):
            Coloring((1, 3, "2"), 3)
        with pytest.raises(ParameterError, match=r"^colour 2\.0 at position 2 outside 1\.\.3$"):
            Coloring((1, 2.0, 9), 3)

    def test_bool_colour_rejected(self):
        # a bool is no integer argument anywhere, so True is not colour 1
        with pytest.raises(ParameterError, match=r"^colour True at position 1 outside 1\.\.2$"):
            Coloring((True, 2), 2)
        with pytest.raises(ParameterError, match=r"^colour np\.False_ at position 2 outside 1\.\.2$"):
            Coloring((1, np.False_), 2)

    def test_numpy_integers_become_ints(self):
        col = Coloring(np.array([3, 1, 2], dtype=np.int16), 3)
        assert col.colors == (3, 1, 2) and all(type(c) is int for c in col.colors)


class TestRainbowColors:
    def test_golden_rows(self):
        col = Coloring(GOLDEN, 6)
        assert rainbow_colors(col, Progression(4, 3, 3)) == (1, 2, 3)
        assert rainbow_colors(col, Progression(1, 2, 3)) == (3, 4, 5)
        assert rainbow_colors(col, Progression(1, 4, 3)) == (3, 4, 6)
        assert rainbow_colors(col, Progression(7, 1, 3)) == (2, 5, 6)

    def test_repeated_colour_gives_none(self):
        col = Coloring(GOLDEN, 6)
        # positions 1, 6, 11 carry colours 4, 4, 1
        assert rainbow_colors(col, Progression(1, 5, 3)) is None
        assert rainbow_colors(Coloring((1, 2, 1), 3), Progression(1, 1, 3)) is None


class TestCoveredFamily:
    def test_golden_highlighted_bits(self):
        report = covered_family(Coloring(GOLDEN, 6), 3)
        for colors in [(1, 2, 3), (3, 4, 5), (3, 4, 6), (2, 5, 6)]:
            cs = ColorSet.from_colors(colors, 6)
            assert report.covered[cs.rank], colors

    def test_monochromatic_covers_nothing(self):
        report = covered_family(Coloring((1, 1, 1, 1), 2), 2)
        assert report.covered_count == 0

    def test_identity_covers_single_subset(self):
        report = covered_family(Coloring((1, 2, 3), 3), 3)
        assert report.covered_count == 1
        assert report.covered.tolist() == [True]

    def test_matches_oracle_on_random_colourings(self):
        rng = random.Random(20240817)
        for _ in range(60):
            n = rng.randint(2, 8)
            k = rng.randint(2, min(4, n))
            N = rng.randint(1, 30)
            colors = tuple(rng.randint(1, n) for _ in range(N))
            report = covered_family(Coloring(colors, n), k)
            expected = oracles.covered_sets(colors, k)
            got = {frozenset(oracles.subset_unrank(r, k))
                   for r in np.flatnonzero(report.covered).tolist()}
            assert got == expected, (colors, n, k)

    def test_prefix_coverage_is_monotone(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 6)
            k = rng.randint(2, min(3, n))
            colors = tuple(rng.randint(1, n) for _ in range(rng.randint(k, 25)))
            full = covered_family(Coloring(colors, n), k).covered
            for cut in range(k, len(colors)):
                prefix = covered_family(Coloring(colors[:cut], n), k).covered
                assert not (prefix & ~full).any()

    def test_witnesses_are_valid(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 7)
            k = rng.randint(2, min(4, n))
            colors = tuple(rng.randint(1, n) for _ in range(rng.randint(k, 28)))
            col = Coloring(colors, n)
            report = covered_family(col, k, record_witnesses=True)
            assert set(report.witnesses) == set(np.flatnonzero(report.covered).tolist())
            for rank, prog in report.witnesses.items():
                values = [colors[p - 1] for p in prog.positions()]
                assert oracles.subset_rank(values) == rank and len(set(values)) == k

    def test_covered_count_never_exceeds_either_limit(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 8)
            k = rng.randint(2, min(4, n))
            N = rng.randint(1, 24)
            colors = tuple(rng.randint(1, n) for _ in range(N))
            report = covered_family(Coloring(colors, n), k)
            assert report.covered_count <= min(comb(n, k), count_progressions(N, k))

    def test_family_size_guard(self):
        with pytest.raises(FamilySizeError):
            covered_family(Coloring((1,) * 20, 120), 15)

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            covered_family(Coloring((1, 2), 2), 1)
        with pytest.raises(ParameterError):
            covered_family(Coloring((1, 2), 2), 3)


class TestVerifyCover:
    def test_identity_three(self):
        result = verify_cover(Coloring((1, 2, 3), 3), 3, 3)
        assert result.complete and list(result.uncovered) == []

    def test_four_positions_four_colours(self):
        # only {1,2,3} and {2,3,4} lie on progressions of [4]
        result = verify_cover(Coloring((1, 2, 3, 4), 4), 4, 3)
        assert not result.complete
        assert [set(cs.colors) for cs in result.uncovered] == [{1, 2, 4}, {1, 3, 4}]
        ranks = [cs.rank for cs in result.uncovered]
        assert ranks == sorted(ranks)

    def test_golden_sequence_is_complete(self):
        # the 12 listed values already cover all 20 subsets; no padding needed
        result = verify_cover(Coloring(GOLDEN, 6), 6, 3)
        assert result.complete
        assert result.report.covered_count == result.report.total == 20
        expected = oracles.covered_sets(GOLDEN, 3)
        assert len(expected) == 20

    def test_widening_palette(self):
        # colouring declared with n=2 but verified against n=3
        result = verify_cover(Coloring((1, 2), 2), 3, 2)
        assert not result.complete
        assert len(result.uncovered) == 2

    def test_uncovered_memory_is_the_family(self):
        # 1.23M of the 1.31M triples stay uncovered: read from the one-byte
        # family, not held as 8-byte ranks or as 1.23M ColorSet objects
        colors = np.random.default_rng(0).integers(1, 201, size=600).tolist()
        coloring = Coloring(tuple(colors), 200)
        tracemalloc.start()
        try:
            result = verify_cover(coloring, 200, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.uncovered) + result.report.covered_count == comb(200, 3)
        assert len(result.uncovered) > 1_200_000
        assert peak < 4 * comb(200, 3)

    def test_family_is_read_only(self):
        result = verify_cover(Coloring((1, 2, 3, 4), 4), 4, 3)
        with pytest.raises(ValueError):
            result.report.covered[0] = False
        with pytest.raises(ValueError):
            result.uncovered.ranks[0] = 0
        assert result.uncovered.ranks.tolist() == [1, 2]


class TestWitness:
    def test_golden_subset(self):
        col = Coloring(GOLDEN, 6)
        assert witness(col, [2, 5, 6]) == Progression(7, 1, 3)

    def test_absent(self):
        assert witness(Coloring((1, 1), 2), [1, 2]) is None

    def test_trivial_pair(self):
        assert witness(Coloring((1, 2), 2), [1, 2]) == Progression(1, 1, 2)

    def test_first_in_enumeration_order(self):
        assert witness(Coloring((1, 2, 1, 2), 2), [1, 2]) == Progression(1, 1, 2)


class TestTextFormat:
    def test_single_line(self):
        assert parse_coloring_text("1 2 3\n") == [1, 2, 3]

    def test_comments_and_multiline(self):
        text = "# n=3 k=2\n1 2\n\n  # trailing comment line\n3\n"
        assert parse_coloring_text(text) == [1, 2, 3]

    def test_bad_token_position(self):
        with pytest.raises(ColoringFormatError) as info:
            parse_coloring_text("1 2\n3 x 4\n")
        assert info.value.line == 2 and info.value.column == 3

    @pytest.mark.parametrize("line, column", [
        ("1_0 2", 1), ("2 +2", 3), ("2 3 \u0663", 5), ("\uff17", 1), ("1\u30002", 1),
        ("\u3000", 1), ("\u3000# c", 1)])
    def test_only_ascii_digits(self, line, column):
        # int() reads each of these tokens, but the format has ASCII digits
        # and ASCII whitespace only, so a line of other whitespace is neither
        # blank nor a comment
        with pytest.raises(ColoringFormatError, match="is not an integer") as info:
            parse_coloring_text("1\n" + line + "\n")
        assert (info.value.line, info.value.column) == (2, column)

    def test_nonpositive_value(self):
        with pytest.raises(ColoringFormatError):
            parse_coloring_text("1 0 2")

    def test_empty_input(self):
        with pytest.raises(ColoringFormatError):
            parse_coloring_text("# only a comment\n")

    def test_round_trip_with_header(self):
        col = Coloring((2, 1, 2), 2)
        text = format_coloring(col, {"n": 2, "k": 2, "seed": 11})
        assert text.startswith("# n=2 k=2 seed=11\n")
        assert parse_coloring_text(text) == [2, 1, 2]
