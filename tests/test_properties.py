"""Property tests: the shared progression table and rainbow-rank kernel, the
coverage scans built on them, and the pair tallies, against the brute-force
oracles."""

import hashlib
import json
import random
from math import comb
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rainbowcover import (
    ColorSet,
    Coloring,
    count_intersecting_pairs,
    covered_family,
    estimate_cover_probability,
    make_rng,
    subset_unrank,
    verify_cover,
    witness,
)
from rainbowcover import combinatorics
from rainbowcover.combinatorics import (
    BLOCK_ROWS,
    NETWORK_MAX_K,
    colex_table,
    colex_unrank,
    progression_blocks,
    rainbow_ranks,
)
from rainbowcover.coverage import FAMILY_SIZE_LIMIT, _color_sets, coverage_report_dict


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
    return {frozenset(ColorSet.from_rank(r, report.n, report.k).colors): (p.start, p.diff)
            for r, p in report.witnesses.items()}


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
@given(st.integers(1, 40), st.integers(2, 7))
@example(3, 5)  # N < k: no progression, no pairs
@example(7, 7)  # N = k: one progression, no pairs
@example(12, 3)
@example(25, 7)
@example(40, 4)
def test_pair_counts_match_oracle(N, k):
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
            assert set(ColorSet.from_rank(rank, n, k).colors) == values


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
    """(n, k, rows): k on both sides of NETWORK_MAX_K, each row distinct colours
    with up to two positions recoloured, so rows with and without rainbow
    progressions both occur."""
    k = draw(st.integers(2, NETWORK_MAX_K + 6))
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
def test_rainbow_ranks_network_and_sort_match_oracle(case, dtype):
    n, k, rows = case
    batch = np.array(rows, dtype=dtype)
    positions, table = oracle_positions(batch.shape[1], k), colex_table(n, k)
    expected = [[ColorSet.from_colors(sorted(row[p] for p in terms), n).rank
                 if len({row[p] for p in terms}) == k else -1
                 for terms in positions.tolist()] for row in rows]
    # force each sort in turn: the network for every k, then np.sort for every k
    for limit in (k, k - 1):
        with mock.patch.object(combinatorics, "NETWORK_MAX_K", limit):
            assert rainbow_ranks(batch, positions, table).tolist() == expected
            assert rainbow_ranks(batch[0], positions, table).tolist() == expected[0]
    assert rainbow_ranks(batch, positions, table).tolist() == expected


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
    coloring = Coloring(colors, n)
    first = oracles.first_witnesses(colors, k)
    for subset in oracles.all_subsets(n, k):
        prog = witness(coloring, ColorSet.from_colors(sorted(subset), n), k)
        assert (None if prog is None else (prog.start, prog.diff)) == first.get(subset)


def test_witnesses_first_across_blocks():
    # 22350 progressions of [300] span two blocks and leave the family open,
    # so later blocks must skip ranks already covered by earlier ones
    rng = random.Random(11)
    colors = tuple(rng.randint(1, 40) for _ in range(300))
    assert len(list(progression_blocks(300, 3))) > 1
    report = covered_family(Coloring(colors, 40), 3, record_witnesses=True)
    assert report.covered_count < report.total
    assert witness_pairs(report) == oracles.first_witnesses(colors, 3)


@st.composite
def colex_ranks(draw):
    """(n, k, ranks) with C(n,k) inside the coverage-family guard; the ranks
    always include 0 and C(n,k)-1."""
    n = draw(st.integers(1, 120))
    k = draw(st.sampled_from([k for k in range(1, n + 1) if comb(n, k) <= FAMILY_SIZE_LIMIT]))
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
        assert sum(1 << (c - 1) for c in row) == subset_unrank(rank, n, k)
    assert rainbow_ranks(np.arange(1, n + 1), colors - 1, table).tolist() == ranks
    expected = [ColorSet.from_rank(r, n, k) for r in ranks]
    assert _color_sets(np.array(ranks, dtype=np.int64), n, k) == expected


def test_uncovered_list_across_blocks():
    # 54461 uncovered subsets span four unrank blocks and need masks over 63 bits
    coloring = Coloring(tuple((7 * i * i + 3 * i) % 70 + 1 for i in range(60)), 70)
    result = verify_cover(coloring, 70, 3, record_witnesses=True)
    ranks = result.report.uncovered_ranks()
    assert len(ranks) == 54461 and len(ranks) > 3 * BLOCK_ROWS
    assert result.uncovered == [ColorSet.from_rank(r, 70, 3) for r in ranks]
    assert len(result.report.witnesses) == 279
    # digest of the report computed before the uncovered list was batch-unranked
    text = json.dumps(coverage_report_dict(coloring, result), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "54ef7ad1647e30dbe222d1b2cd74e1bfea6720c843b6902997d53ec7f1f4d652")
