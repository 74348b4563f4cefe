"""Acceptance suite: every criterion at its stated tolerance, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from math import comb

import numpy as np

import oracles
from rainbowcover import (
    ColorSet,
    Coloring,
    ConstructParams,
    Progression,
    ac_exact,
    block_length,
    bonferroni_lower_bound,
    construct_cover,
    count_intersecting_pairs,
    count_progressions,
    estimate_cover_probability,
    exists_cover,
    hi_upper_bounds,
    lower_bound_N,
    rounds,
    upper_bound_length,
    verify_cover,
)
from rainbowcover.combinatorics import colex_table, rainbow_ranks

GOLDEN = (4, 6, 5, 1, 3, 4, 2, 5, 6, 3, 1, 4)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_counting_exactness():
    start = time.perf_counter()
    checked = 0
    for k in range(2, 7):
        for N in range(1, 61):
            expected = len(oracles.progressions(N, k))
            assert count_progressions(N, k) == expected, (N, k)
            checked += 1
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0,
           f"closed form equals brute enumeration at {checked} grid points, "
           f"{elapsed:.2f}s < 5s")


def test_criterion_2_pair_count_identity():
    start = time.perf_counter()
    checked = 0
    for k in (3, 4, 5):
        for N in range(1, 41):
            tallies = count_intersecting_pairs(N, k)
            bounds = hi_upper_bounds(N, k)
            assert sum(tallies.counts) == comb(tallies.total, 2), (N, k)
            for i, value in enumerate(tallies.counts):
                assert value <= bounds[i], (N, k, i)
            checked += 1
    elapsed = time.perf_counter() - start
    report(2, elapsed < 60.0,
           f"sum identity and entrywise bounds hold at {checked} grid points, "
           f"{elapsed:.2f}s < 60s")


def test_criterion_3_golden_twelve_term_sequence():
    coloring = Coloring(GOLDEN, 6)
    highlighted = [
        (Progression(4, 3, 3), (1, 2, 3)),
        (Progression(1, 2, 3), (3, 4, 5)),
        (Progression(1, 4, 3), (3, 4, 6)),
        (Progression(7, 1, 3), (2, 5, 6)),
    ]
    positions = np.array([prog.positions() for prog, _ in highlighted]) - 1
    ranks = rainbow_ranks(np.array(GOLDEN), positions, colex_table(6, 3)).tolist()
    for rank, (prog, expected) in zip(ranks, highlighted):
        assert rank >= 0 and ColorSet.from_rank(rank, 6, 3).colors == expected, (prog, expected)

    # full-coverage claim, cross-checked against the independent oracle; the
    # sequence lists 12 values and is used as written (not padded to 14)
    result = verify_cover(coloring, 6, 3)
    oracle_covered = oracles.covered_sets(GOLDEN, 3)
    library_covered = {
        frozenset(ColorSet.from_rank(r, 6, 3).colors)
        for r in np.flatnonzero(result.report.covered).tolist()
    }
    assert library_covered == oracle_covered
    assert result.complete == (len(oracle_covered) == 20)
    outcome = "complete" if result.complete else "incomplete"
    report(3, True,
           f"4 highlighted progressions rainbow with stated sets; 12-term "
           f"sequence covers {len(oracle_covered)}/20 subsets ({outcome}), "
           f"oracle agrees bit for bit")


def test_criterion_4_monte_carlo_floor():
    start = time.perf_counter()
    grid = [(n, 2, 1000 + n) for n in range(6, 21)]
    grid += [(n, 3, 2000 + n) for n in range(6, 15)]
    worst = float("inf")
    for n, k, seed in grid:
        N = block_length(n, k)
        bound = bonferroni_lower_bound(n, k, N, "exact-pairs")
        estimate = estimate_cover_probability(n, k, N, trials=10_000, seed=seed)
        margin = estimate.p_hat + 3 * estimate.std_err - float(bound)
        assert margin >= 0, (n, k, N, float(bound), estimate.p_hat)
        worst = min(worst, margin)
    elapsed = time.perf_counter() - start
    report(4, elapsed < 300.0,
           f"p_hat + 3*SE >= exact-pairs bound at all {len(grid)} grid points, "
           f"worst margin {worst:+.4f}, {elapsed:.1f}s < 300s")


def test_criterion_5_two_colour_closed_form():
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for n in range(3, 11):
        for N in (n, 2 * n):
            exact = float(oracles.two_color_cover_probability(n, N))
            sigma = (exact * (1 - exact) / 100_000) ** 0.5
            estimate = estimate_cover_probability(
                n, 2, N, trials=100_000, seed=5000 + 2 * n + (N != n))
            deviation = abs(estimate.p_hat - exact)
            assert deviation <= 3 * sigma, (n, N, estimate.p_hat, exact)
            if sigma:
                worst = max(worst, deviation / sigma)
            points += 1
    elapsed = time.perf_counter() - start
    report(5, True,
           f"estimate matches 1 - 2((n-1)/n)^N + ((n-2)/n)^N within 3 sigma at "
           f"{points} points, worst {worst:.2f} sigma, {elapsed:.1f}s")


def test_criterion_6_construction_certificates():
    start = time.perf_counter()
    details = []
    for n, k in [(8, 3), (10, 3), (12, 3), (8, 4)]:
        result = construct_cover(n, k, ConstructParams(seed=42))
        cap = 4 * rounds(n, k, 2.0)
        assert result.trace.rounds_used <= cap, (n, k)
        assert verify_cover(result.coloring, n, k).complete, (n, k)
        details.append(f"({n},{k}): {result.trace.rounds_used}/{cap} blocks")
    elapsed = time.perf_counter() - start
    report(6, elapsed < 60.0,
           f"all four runs certified, {'; '.join(details)}, {elapsed:.1f}s < 60s")


def test_criterion_7_exact_solver_vs_oracle():
    start = time.perf_counter()
    for n in range(2, 7):
        assert ac_exact(n, 2).value == n, n
    assert ac_exact(3, 3).value == 3

    pruned = ac_exact(4, 3)
    reference, _, _ = oracles.exhaustive_ac(4, 3, lower_bound_N(4, 3))
    assert pruned.value == reference == 6
    assert exists_cover(4, 3, 5) is None
    assert oracles.exhaustive_dfs(4, 3, 5)[0] is None
    elapsed = time.perf_counter() - start
    report(7, elapsed < 600.0,
           f"ac(n,2)=n for n=2..6, ac(3,3)=3, ac(4,3)=6 with oracle agreement, "
           f"(4,3,5) refuted by both searches, {elapsed:.1f}s < 600s")


def test_criterion_8_bound_ordering():
    values = {(n, 2): ac_exact(n, 2).value for n in range(2, 7)}
    values[(3, 3)] = ac_exact(3, 3).value
    values[(4, 3)] = ac_exact(4, 3).value
    for (n, k), value in sorted(values.items()):
        low = lower_bound_N(n, k)
        built = construct_cover(n, k, ConstructParams(seed=42)).coloring.N
        assert low <= value <= built, (n, k, low, value, built)
    report(8, True,
           f"lower_bound_N <= exact value <= construction length at "
           f"{len(values)} points")


def test_criterion_9_theorem_scaling_sanity():
    ns = list(range(10, 31))
    ratios = []
    for n in ns:
        scale = lower_bound_N(n, 3) / (4 * comb(n, 3)) ** 0.5
        assert 0.8 <= scale <= 1.2, (n, scale)
        ratios.append(upper_bound_length(n, 3, 2.0) / lower_bound_N(n, 3))
    # the gap should grow like k*log n; fit ratio ~ c * (log n)^e
    exponent = float(np.polyfit(np.log(np.log(ns)), np.log(ratios), 1)[0])
    assert 0.5 <= exponent <= 1.5, exponent
    report(9, True,
           f"lower bound tracks sqrt(4*C(n,3)) within [0.8, 1.2] for n=10..30 "
           f"and the upper/lower ratio fits (log n)^{exponent:.2f}")
