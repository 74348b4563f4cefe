"""Property tests: the shared progression table and rainbow-rank kernel, and
the coverage scans built on them, against the brute-force oracles."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rainbowcover import ColorSet, Coloring, covered_family, witness
from rainbowcover.combinatorics import colex_table, progression_blocks, rainbow_ranks


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
