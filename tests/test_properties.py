"""Property tests: the shared progression table and rainbow-rank kernel, the
coverage scans built on them, and the pair tallies, against the brute-force
oracles."""

import ast
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from rainbowcover import (
    FAMILY_SIZE_LIMIT,
    ColorSet,
    Coloring,
    ConstructParams,
    Progression,
    construct_cover,
    count_intersecting_pairs,
    count_progressions,
    covered_family,
    estimate_cover_probability,
    make_rng,
    verify_cover,
)
from rainbowcover import bounds, cli, combinatorics, coverage
from rainbowcover.combinatorics import (
    BLOCK_ROWS,
    ColorSetView,
    colex_table,
    colex_unrank,
    progression_blocks,
    rainbow_ranks,
    tuple_ranks,
    tuple_table,
)
from rainbowcover.cli import coverage_report_dict
from rainbowcover.errors import ColoringFormatError


@st.composite
def colourings(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, min(5, n)))
    N = draw(st.integers(1, 40))
    colors = draw(st.lists(st.integers(1, n), min_size=N, max_size=N))
    return n, k, tuple(colors)


def oracle_positions(N, k):
    """0-based terms of every k-progression of [N], in oracle order."""
    rows = [[p - 1 for p in oracles.progression_terms(s, d, k)]
            for s, d in oracles.progressions(N, k)]
    return np.array(rows, dtype=np.int64).reshape(-1, k)


def witness_pairs(report):
    """Recorded witnesses as colour set -> (start, diff)."""
    return {frozenset(oracles.subset_unrank(r, report.k)): (p.start, p.diff)
            for r, p in report.witnesses.items()}


def oracle_color_set(rank, k):
    """The ColorSet of a colex rank, unranked by the scalar oracle."""
    return ColorSet(sum(1 << (c - 1) for c in oracles.subset_unrank(rank, k)), rank)


def test_oracles_do_not_import_the_package():
    # a reference built on the code it checks would share its faults
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "rainbowcover"]


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(2, 5))
def test_progression_blocks_match_oracle(N, k):
    blocks = list(progression_blocks(N, k))
    pairs = [(s, d) for diffs, starts, _ in blocks
             for d, s in zip(diffs.tolist(), starts.tolist())]
    assert pairs == oracles.progressions(N, k)
    positions = [pos for _, _, pos in blocks]
    assert np.array_equal(np.concatenate(positions) if positions else
                          np.empty((0, k), dtype=np.int64), oracle_positions(N, k))


@settings(deadline=None)
@given(st.integers(1, 70), st.integers(2, 30))
@example(3, 5)  # N < k: no progression, no pairs
@example(7, 7)  # N = k: one progression, no pairs
@example(12, 3)
@example(25, 7)
@example(40, 4)
@example(40, 20)  # h = 23, refused by the j-subset moments
@example(31, 30)  # h = 2, sharing 29 terms
def test_pair_counts_match_oracle(N, k):
    assume(count_progressions(N, k) <= 300)  # the oracle compares every pair
    tallies = count_intersecting_pairs(N, k)
    assert tallies.total == len(oracles.progressions(N, k))
    assert list(tallies.counts) == oracles.pair_counts(N, k)


@settings(deadline=None)
@given(colourings())
def test_rainbow_ranks_match_oracle(case):
    n, k, colors = case
    positions = oracle_positions(len(colors), k)
    ranks = rainbow_ranks(np.array(colors), positions, colex_table(n, k))
    for row, rank in zip(positions.tolist(), ranks.tolist()):
        values = {colors[p] for p in row}
        if len(values) < k:
            assert rank == -1
        else:
            assert set(oracles.subset_unrank(rank, k)) == values


@st.composite
def colouring_batches(draw):
    """(n, k, rows): one to four colourings of the same interval."""
    n, k, first = draw(colourings())
    row = st.lists(st.integers(1, n), min_size=len(first), max_size=len(first))
    return n, k, [first, *draw(st.lists(row, max_size=3))]


@settings(deadline=None)
@given(colouring_batches(), st.sampled_from([np.int16, np.int64]))
def test_rainbow_ranks_batch_matches_rows(case, dtype):
    n, k, rows = case
    batch = np.array(rows, dtype=dtype)
    positions = oracle_positions(batch.shape[1], k)
    table = colex_table(n, k)
    ranks = rainbow_ranks(batch, positions, table)
    assert ranks.shape == (len(rows), len(positions))
    for row, expected in zip(batch, ranks):
        assert np.array_equal(rainbow_ranks(row, positions, table), expected)


@st.composite
def long_progression_batches(draw):
    """(n, k, rows): k up to 64, each row distinct colours with up to two
    positions recoloured, so rows with and without rainbow progressions both
    occur."""
    k = draw(st.integers(2, 64))
    n = draw(st.integers(k, k + 4))
    N = draw(st.integers(k, n))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.permutations(range(1, n + 1)))[:N]
        for pos, colour in draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(1, n)),
                                         max_size=2)):
            row[pos] = colour
        rows.append(row)
    return n, k, rows


@settings(deadline=None)
@given(long_progression_batches(), st.sampled_from([np.int16, np.int64]))
@example((20, 17, [[*range(20, 0, -1)], [*range(1, 20), 9]]), np.int16)
@example((66, 64, [[*range(1, 67)], [*range(66, 1, -1), 30]]), np.int64)
@example((100, 98, [[*range(100, 0, -1)], [*range(1, 100), 50]]), np.int16)
def test_rainbow_ranks_of_long_progressions_match_oracle(case, dtype):
    n, k, rows = case
    batch = np.array(rows, dtype=dtype)
    positions, table = oracle_positions(batch.shape[1], k), colex_table(n, k)
    expected = [[oracles.subset_rank(row[p] for p in terms)
                 if len({row[p] for p in terms}) == k else -1
                 for terms in positions.tolist()] for row in rows]
    assert rainbow_ranks(batch, positions, table).tolist() == expected
    assert rainbow_ranks(batch[0], positions, table).tolist() == expected[0]


@st.composite
def tuple_table_batches(draw):
    """(n, k, rows): k = 2..6 with n^k <= 4096 (n = k = 6 alone is larger), and
    one to three colourings of one interval whose colours repeat at will."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, max(k, int(4096 ** (1 / k) + 1e-9))))
    N = draw(st.integers(1, 30))
    row = st.lists(st.integers(1, n), min_size=N, max_size=N)
    return n, k, draw(st.lists(row, min_size=1, max_size=3))


@settings(deadline=None)
@given(tuple_table_batches(), st.sampled_from([np.int16, np.int64]))
@example((64, 2, [[64, 1, 64, 2]]), np.int16)
@example((6, 6, [[6, 5, 4, 3, 2, 1, 1], [1, 2, 3, 4, 5, 6, 6]]), np.int64)
def test_tuple_ranks_match_rainbow_ranks_and_oracle(case, dtype):
    n, k, rows = case
    batch = np.array(rows, dtype=dtype)
    positions, table = oracle_positions(batch.shape[1], k), tuple_table(n, k)
    assert table.shape == (n,) * k and table.dtype == np.int64
    expected = [[oracles.subset_rank(row[p] for p in terms)
                 if len({row[p] for p in terms}) == k else -1
                 for terms in positions.tolist()] for row in rows]
    ranks = tuple_ranks(batch, positions, table)
    assert np.array_equal(ranks, rainbow_ranks(batch, positions, colex_table(n, k)))
    assert ranks.tolist() == expected
    for row, row_ranks in zip(batch, expected):
        assert tuple_ranks(row, positions, table).tolist() == row_ranks


@st.composite
def boundary_palettes(draw):
    """(n, k, rows): n small or at the edge of the one- and two-byte colour
    dtypes, each row of one to three using both colour 1 and colour n."""
    n = draw(st.sampled_from([*range(2, 10), 255, 256, 257, 300]))
    k = draw(st.integers(2, min(n, 8)))  # C(300, 8) still fits int64
    N = draw(st.integers(k, 30))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.lists(st.integers(1, n), min_size=N, max_size=N))
        low, high = draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=2, unique=True))
        row[low], row[high] = 1, n
        rows.append(row)
    return n, k, rows


@settings(deadline=None)
@given(boundary_palettes(), st.sampled_from([np.int16, np.int64]))
@example((256, 2, [[1, 256]]), np.int16)
@example((257, 3, [[257, 1, 256, 257, 2]]), np.int64)
def test_rainbow_ranks_at_dtype_boundaries_match_oracle(case, dtype):
    n, k, rows = case
    batch = np.array(rows, dtype=dtype)
    positions, table = oracle_positions(batch.shape[1], k), colex_table(n, k)
    expected = [[oracles.subset_rank(row[p] for p in terms)
                 if len({row[p] for p in terms}) == k else -1
                 for terms in positions.tolist()] for row in rows]
    assert rainbow_ranks(batch, positions, table).tolist() == expected
    for row, ranks in zip(batch, expected):
        assert rainbow_ranks(row, positions, table).tolist() == ranks


@st.composite
def estimates(draw):
    """(n, k, N, trials, seed, rng_name) for the estimator, small enough for the oracle."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 40))
    return (n, k, draw(st.integers(1, 30)), draw(st.integers(1, 40)),
            draw(st.integers(0, 2**32)), draw(st.sampled_from(["philox", "pcg64"])))


@settings(deadline=None)
@given(estimates())
@example((3, 3, 5, 4100, 7, "philox"))  # two chunks
@example((40, 2, 40, 200, 1, "pcg64"))  # n >> k: most colours fold into k+1
@example((5, 5, 12, 300, 2, "philox"))  # n = k: nothing folds
def test_estimate_hits_match_oracle(case):
    # replay the estimator's draws, one rng.integers call per 4096-row chunk
    n, k, N, trials, seed, rng_name = case
    rng, R, hits = make_rng(seed, rng_name), frozenset(range(1, k + 1)), 0
    for done in range(0, trials, 4096):
        draws = rng.integers(1, n + 1, size=(min(4096, trials - done), N), dtype=np.int16)
        hits += sum(R in oracles.covered_sets(tuple(row), k) for row in draws.tolist())
    assert estimate_cover_probability(n, k, N, trials, seed, rng_name).p_hat == hits / trials


@st.composite
def word_estimates(draw):
    """An estimator case for 2 <= k <= 12, one chunk, and a sub-batch size in row entries."""
    k = draw(st.integers(2, 12))
    case = (draw(st.integers(k, k + 40)), k, draw(st.integers(1, 60)), draw(st.integers(1, 30)),
            draw(st.integers(0, 2**32)), draw(st.sampled_from(["philox", "pcg64"])))
    return case, draw(st.integers(1, 200))


@settings(deadline=None)
@given(word_estimates())
@example(((8, 8, 60, 30, 5, "philox"), 130))  # one-byte words, with hits
@example(((9, 9, 60, 30, 5, "pcg64"), 130))  # two-byte words, with hits
@example(((12, 12, 60, 30, 1, "philox"), 1))  # one row per sub-batch
def test_estimate_word_paths_match_oracle(case):
    # replay the draws; run the exact OR test, then (word width 2) the rank
    # confirm for every k > 2, each on sub-batches of gather // N rows
    (n, k, N, trials, seed, rng_name), gather = case
    draws = make_rng(seed, rng_name).integers(1, n + 1, size=(trials, N), dtype=np.int16)
    R = frozenset(range(1, k + 1))
    hits = sum(R in oracles.covered_sets(tuple(row), k) for row in draws.tolist())
    with mock.patch.object(bounds, "_GATHER_ENTRIES", gather):
        for width in (64, 2):
            with mock.patch.object(bounds, "_WORD_BITS", width):
                result = estimate_cover_probability(n, k, N, trials, seed, rng_name)
                assert result.p_hat == hits / trials, width


@settings(deadline=None)
@given(colourings())
def test_covered_family_and_witnesses_match_oracle(case):
    n, k, colors = case
    report = covered_family(Coloring(colors, n), k, record_witnesses=True)
    first = oracles.first_witnesses(colors, k)
    assert set(first) == oracles.covered_sets(colors, k)
    assert report.covered_count == int(report.covered.sum()) == len(first)
    assert witness_pairs(report) == first


@settings(deadline=None)
@given(colourings())
def test_witness_is_first_in_enumeration_order(case):
    n, k, colors = case
    witnesses = covered_family(Coloring(colors, n), k, record_witnesses=True).witnesses
    first = oracles.first_witnesses(colors, k)
    for subset in oracles.all_subsets(n, k):
        prog = witnesses.get(ColorSet.from_colors(sorted(subset), n).rank)
        assert (None if prog is None else (prog.start, prog.diff)) == first.get(subset)


@settings(deadline=None, max_examples=50)
@given(colourings(), st.integers(1, 40))
def test_witness_mapping_contract(case, rows):
    # blocks of at most `rows` progressions, so most cases span several blocks
    n, k, colors = case
    with mock.patch.object(combinatorics, "BLOCK_ROWS", rows):
        report = covered_family(Coloring(colors, n), k, record_witnesses=True)
    witnesses = report.witnesses
    covered = np.flatnonzero(report.covered).tolist()
    assert list(witnesses) == list(witnesses.keys()) == covered
    assert len(witnesses) == report.covered_count
    assert witness_pairs(report) == oracles.first_witnesses(colors, k)
    expected = {r: Progression(*witnesses[r]) for r in covered}
    assert witnesses == expected and expected == witnesses
    assert list(witnesses.items()) == list(expected.items())
    assert list(witnesses.values()) == list(expected.values())
    assert witnesses != {**expected, report.total: Progression(1, 1, k)}
    for rank in [r for r in range(report.total) if not report.covered[r]] + [
            -1, report.total, 1 << 70, "0"]:
        assert witnesses.get(rank) is None and rank not in witnesses
        with pytest.raises(KeyError):
            witnesses[rank]
    with pytest.raises(ValueError):
        witnesses.ranks[:1] = 0


def test_witnesses_first_across_blocks():
    # 22350 progressions of [300] span two blocks and leave the family open,
    # so later blocks must skip ranks already covered by earlier ones
    rng = random.Random(11)
    colors = tuple(rng.randint(1, 40) for _ in range(300))
    assert len(list(progression_blocks(300, 3))) > 1
    report = covered_family(Coloring(colors, 40), 3, record_witnesses=True)
    assert report.covered_count < report.total
    assert witness_pairs(report) == oracles.first_witnesses(colors, 3)


def unique_witnesses(colors, n, k):
    """(ranks, starts, diffs) of each covered rank's first progression, by one
    np.unique(return_index=True) over the ranks of every block up to the one
    that completes the family, and the family itself."""
    palette, table = np.array(colors), colex_table(n, k)
    covered = np.zeros(comb(n, k), dtype=bool)
    blocks = []
    for diffs, starts, positions in progression_blocks(len(colors), k):
        ranks = rainbow_ranks(palette, positions, table)
        blocks.append((ranks, starts, diffs))
        covered[ranks[ranks >= 0]] = True
        if covered.all():
            break
    ranks, starts, diffs = map(np.concatenate, zip(*blocks))
    rainbow = ranks >= 0
    ranks, first = np.unique(ranks[rainbow], return_index=True)
    return ranks, starts[rainbow][first], diffs[rainbow][first], covered


def uniform(n, N, seed):
    return tuple(np.random.default_rng(seed).integers(1, n + 1, size=N).tolist())


@pytest.mark.parametrize("rows, n, k, colors", [
    (1, 3, 2, (1, 2) * 4),  # the d = 3 block repeats {1, 2}: no rank is new
    (1, 6, 3, uniform(6, 30, 1)),
    (3, 6, 3, uniform(6, 30, 2)),
    (3, 5, 4, uniform(5, 25, 3)),
    (3, 4, 2, uniform(4, 12, 4)),
    (BLOCK_ROWS, 200, 2, uniform(200, 16_400, 5)),  # blocks of 16,399 rows and fewer
])
def test_packed_witnesses_match_unique(rows, n, k, colors):
    with mock.patch.object(combinatorics, "BLOCK_ROWS", rows):
        report = covered_family(Coloring(colors, n), k, record_witnesses=True)
        ranks, starts, diffs, covered = unique_witnesses(colors, n, k)
    witnesses = report.witnesses
    assert np.array_equal(witnesses.ranks, ranks)
    assert np.array_equal(witnesses.starts, starts)
    assert np.array_equal(witnesses.diffs, diffs)
    assert np.array_equal(report.covered, covered)
    assert len(report.covered) == comb(n, k)
    assert report.covered_count == np.count_nonzero(report.covered)


def test_packed_witness_cases_reach_their_edges():
    # what the cases above rely on: a block of more than 2^14 rows, and a block
    # whose rainbow ranks are all covered by an earlier one
    assert len(next(progression_blocks(16_400, 2))[0]) == 16_399 > 1 << 14
    colors = np.array((1, 2) * 4)
    with mock.patch.object(combinatorics, "BLOCK_ROWS", 1):
        ranks = [rainbow_ranks(colors, positions, colex_table(3, 2))
                 for _, _, positions in progression_blocks(8, 2)]
    assert np.all(ranks[2] == ranks[0][0]) and ranks[0][0] >= 0


def test_split_and_regex_agree_on_whitespace():
    # parse_coloring_text splits an ASCII line with str.split and names a bad
    # token by its _TOKEN match: the two must split ASCII alike, and no other
    # code point may separate tokens
    text = "".join(map(chr, range(128)))
    assert text.split() == coverage._TOKEN.findall(text)
    rest = "".join(map(chr, range(128, sys.maxunicode + 1)))
    assert coverage._TOKEN.findall(rest) == [rest]


def parse_outcome(parse, error, text):
    try:
        return parse(text)
    except error as exc:
        return str(exc), exc.line, exc.column


@settings(deadline=None, max_examples=300)
@given(st.text("0123456789#+-_x\u0663 \t\r\n\x0c\x85\u2003\u2028", max_size=40))
@example("1 2\n3 x 4\n")
@example("\u0663 1_0 +2\x85 # 3\n\u2003-0")
@example("4\u20281 0 x")
@example("1_0 +2 \u0663 \uff17\n")
@example("1\x1f2\u30003\n\u3000#\n7")
def test_parse_matches_regex_oracle(text):
    # the same values, or the same message, line and column
    assert (parse_outcome(coverage.parse_coloring_text, ColoringFormatError, text)
            == parse_outcome(oracles.parse_coloring_text, oracles.ColoringFormatError, text))


@st.composite
def covers_and_prefixes(draw):
    """(n, k, colors): a small constructed cover, or a prefix of one that may
    or may not still cover."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, min(4, n)))
    colors = construct_cover(n, k, ConstructParams(seed=draw(st.integers(0, 99)))).coloring.colors
    return n, k, colors[:draw(st.integers(1, len(colors)))]


@settings(deadline=None)
@given(st.one_of(covers_and_prefixes(), colourings()))
@example((6, 3, (1, 2, 3, 4, 5, 6, 1, 3, 5, 2, 4, 6)))  # no d completes the family
def test_scan_stops_at_the_completing_difference(case):
    # one block per common difference, so the blocks ranked are the differences scanned
    n, k, colors = case
    d = oracles.completing_difference(colors, n, k)
    scanned = d if d is not None else (len(colors) - 1) // (k - 1)
    expected, first = oracles.covered_sets(colors, k), oracles.first_witnesses(colors, k)
    for record in (False, True):
        with mock.patch.object(combinatorics, "BLOCK_ROWS", 1), mock.patch.object(
                coverage, "rainbow_ranks", wraps=rainbow_ranks) as ranked:
            report = covered_family(Coloring(colors, n), k, record_witnesses=record)
        assert ranked.call_count == scanned, record
        assert {frozenset(oracles.subset_unrank(r, k))
                for r in np.flatnonzero(report.covered).tolist()} == expected
        assert report.covered_count == len(expected)
        if record:
            assert witness_pairs(report) == first


@st.composite
def colex_ranks(draw, limit=FAMILY_SIZE_LIMIT):
    """(n, k, ranks) with C(n,k) at most `limit`, by default the coverage-family
    guard; the ranks always include 0 and C(n,k)-1."""
    n = draw(st.integers(1, 120))
    k = draw(st.sampled_from([k for k in range(1, n + 1) if comb(n, k) <= limit]))
    total = comb(n, k)
    ranks = draw(st.lists(st.integers(0, total - 1), max_size=30))
    return n, k, sorted({0, total - 1, *ranks})


@settings(deadline=None)
@given(colex_ranks())
@example((100, 98, [0, 1, comb(100, 98) // 2, comb(100, 98) - 1]))
@example((2, 2, [0]))
@example((120, 3, [0, 1000, comb(120, 3) - 1]))
def test_colex_unrank_matches_subset_unrank(case):
    # C(99, 49) at (100, 98) overflows int64, so only colex_table can serve
    n, k, ranks = case
    table = colex_table(n, k)
    colors = colex_unrank(np.array(ranks, dtype=np.int64), table)
    assert colors.shape == (len(ranks), k)
    for rank, row in zip(ranks, colors.tolist()):
        assert tuple(row) == oracles.subset_unrank(rank, k)
    assert rainbow_ranks(np.arange(1, n + 1), colors - 1, table).tolist() == ranks
    expected = [oracle_color_set(r, k) for r in ranks]
    assert [ColorSet.from_rank(r, n, k) for r in ranks] == expected


def chunk_rows(view):
    """The rows of every array that view.color_chunks() yields, as lists."""
    return [row for chunk in view.color_chunks() for row in chunk.tolist()]


def missing_view(ranks, n, k):
    """The view of a family over the C(n,k) colex ranks that is False at `ranks`."""
    family = np.ones(comb(n, k), dtype=bool)
    family[ranks] = False
    return ColorSetView(family, n, k, int(np.count_nonzero(family)))


@settings(deadline=None)
@given(colex_ranks(1 << 20))
@example((100, 98, [0, 1, comb(100, 98) // 2, comb(100, 98) - 1]))
@example((120, 3, [0, 1000, comb(120, 3) - 1]))
def test_color_set_view_matches_from_rank(case):
    n, k, ranks = case
    expected = [oracle_color_set(r, k) for r in ranks]
    view = missing_view(ranks, n, k)
    assert len(view) == len(expected) and view
    # about four chunks of the family, at least 2 entries each, so iteration
    # crosses chunks whenever C(n,k) > 2
    with mock.patch.object(combinatorics, "BLOCK_ROWS", max(2, comb(n, k) // 4)):
        assert list(view) == expected
        assert chunk_rows(view) == [list(cs.colors) for cs in expected]
    assert view.ranks.tolist() == ranks
    with pytest.raises(ValueError):
        view.ranks[0] = 1
    empty = missing_view([], n, k)
    assert not empty and list(empty) == [] and chunk_rows(empty) == []
    assert empty.ranks.tolist() == []


@st.composite
def families(draw):
    """(n, k, family): a bool family over the C(n,k) colex ranks, all True, all
    False or mixed, with palettes past 63 colours."""
    n = draw(st.integers(1, 70))
    k = draw(st.sampled_from([k for k in range(1, n + 1) if comb(n, k) <= 300]))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, k, rng.random(comb(n, k)) < density


@settings(deadline=None, max_examples=60)
@given(families(), st.sampled_from([2, 3, BLOCK_ROWS]))
@example((70, 1, np.zeros(70, dtype=bool)), 2)
@example((70, 69, np.ones(70, dtype=bool)), 2)
@example((5, 2, np.arange(10) % 3 == 0), 2)
def test_family_view_matches_oracle(case, chunk):
    # the False entries of a family, against the oracle ColorSets of their
    # ranks; every read scans the family `chunk` entries at a time
    n, k, family = case
    ranks = np.flatnonzero(~family).tolist()
    entries = [oracle_color_set(r, k) for r in ranks]
    with mock.patch.object(combinatorics, "BLOCK_ROWS", chunk):
        view = ColorSetView(family, n, k, int(np.count_nonzero(family)))
        assert len(view) == len(entries) and bool(view) == bool(entries)
        assert list(view) == entries
        assert chunk_rows(view) == [list(cs.colors) for cs in entries]
    assert view.ranks.tolist() == ranks
    with pytest.raises(ValueError):
        view.ranks[:1] = 0


# JSON text with what an encoder must escape: quotes, backslashes, control
# characters, and non-ASCII text outside and inside the basic plane
JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aé€\u2028\U0001f600')
                    | st.characters())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**100, 2**100) | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=12)


@st.composite
def row_members(draw):
    """(view, plain): a ColorSetView or WitnessView over the k-subsets of [n],
    and the list or dict that json.dumps must render as the writer renders it."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 8))
    ranks = draw(st.lists(st.integers(0, comb(n, k) - 1), unique=True, max_size=12)
                 .map(sorted))
    keys = [list(oracles.subset_unrank(r, k)) for r in ranks]
    if draw(st.booleans()):
        return missing_view(ranks, n, k), keys
    starts, diffs = (draw(st.lists(st.integers(1, 2**40), min_size=len(ranks),
                                   max_size=len(ranks))) for _ in range(2))
    view = coverage.WitnessView(*map(np.array, (ranks, starts, diffs)), n, k)
    return view, {",".join(map(str, c)): {"start": s, "diff": d, "length": k}
                  for c, s, d in zip(keys, starts, diffs)}


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(JSON_TEXT, JSON_VALUES), min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(0, 5), JSON_TEXT, row_members()), max_size=2),
       st.sampled_from([1, 2, 3]))
@example([("command", "verify")], [(1, "uncovered", (missing_view([], 5, 3), []))], 1)
def test_json_writer_matches_json_dumps(members, rows, chunk):
    # the writer renders a view member a chunk at a time and every other member
    # through json.dumps; the whole must be the bytes of json.dumps(indent=2)
    record, plain = list(members), list(members)
    for at, key, (view, value) in rows:
        record.insert(at, (key, view))
        plain.insert(at, (key, value))
    with mock.patch.object(combinatorics, "BLOCK_ROWS", chunk), \
            mock.patch.object(cli, "BLOCK_ROWS", chunk):
        text = "".join(cli._json_chunks(dict(record)))
    assert text == json.dumps(dict(plain), indent=2) + "\n"


@settings(deadline=None, max_examples=100)
@given(colourings(), st.sampled_from([1, 2, 3, BLOCK_ROWS]))
def test_text_rows_match_format(tmp_path_factory, case, chunk):
    # verify --text prints each uncovered subset as "  uncovered: [c1, ..., ck]"
    n, k, colors = case
    path = tmp_path_factory.getbasetemp() / "text_rows.txt"
    path.write_text(" ".join(map(str, colors)) + "\n")
    out = io.StringIO()
    with mock.patch.object(combinatorics, "BLOCK_ROWS", chunk), redirect_stdout(out):
        code = cli.main(["verify", "--input", str(path), "--n", str(n), "--k", str(k),
                         "--text"])
    covered = {oracles.subset_rank(s) for s in oracles.covered_sets(colors, k)}
    rows = ["  uncovered: {}".format(list(oracles.subset_unrank(r, k)))
            for r in range(comb(n, k)) if r not in covered]
    assert code == (1 if rows else 0)
    assert out.getvalue().splitlines()[3:] == rows


def test_uncovered_list_across_blocks():
    # 54461 uncovered subsets span four unrank blocks and need masks over 63 bits
    coloring = Coloring(tuple((7 * i * i + 3 * i) % 70 + 1 for i in range(60)), 70)
    result = verify_cover(coloring, 70, 3, record_witnesses=True)
    ranks = np.flatnonzero(~result.report.covered).tolist()
    assert len(ranks) == 54461 and len(ranks) > 3 * BLOCK_ROWS
    assert list(result.uncovered) == [oracle_color_set(r, 3) for r in ranks]
    assert len(result.report.witnesses) == 279
    # digest of the report computed before the uncovered list was batch-unranked
    record = json.loads("".join(cli._json_chunks(coverage_report_dict(coloring, result))))
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "54ef7ad1647e30dbe222d1b2cd74e1bfea6720c843b6902997d53ec7f1f4d652")
