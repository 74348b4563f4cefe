"""Exact and Monte Carlo bounds on covering a fixed colour subset.

Let R be a fixed k-subset of the n colours and colour [N] uniformly at
random. A single k-progression carries exactly the colours of R with
probability k!/n^k. For two progressions sharing exactly i positions, the
probability that both do is k!(k-i)!/n^(2k-i): colour the first bijectively
onto R, then the k-i positions of the second that are still free must realize
the k-i missing colours bijectively. Truncating inclusion-exclusion after the
pair terms therefore gives a valid lower bound on the probability that R is
covered:

    L = h * k!/n^k - sum_i h_i * k!(k-i)!/n^(2k-i)

with h the progression count and h_i the pair-intersection tallies. The two
leading terms nearly cancel at the block length used by the construction, so
L is kept as an exact Fraction end to end; only the rendering is decimal.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

import numpy as np

from .combinatorics import (
    _check_interval,
    _check_nk,
    colex_table,
    count_intersecting_pairs,
    count_progressions,
    hi_upper_bounds,
    progression_blocks,
    rainbow_ranks,
)
from .construct import block_length, make_rng, rounds
from .errors import ParameterError

PAIR_MODES = ("exact-pairs", "bounded-pairs")

# Fixed Monte Carlo chunk so a given (seed, rng_name, trials) replays the
# identical draw sequence regardless of the trial count.
_CHUNK = 4096

# Gathered int16 entries per sub-batch of a chunk, so memory stays bounded in h.
_GATHER_ENTRIES = 1 << 20


def _lower_bound(n: int, k: int, N: int, mode: str) -> tuple[int, tuple[int, ...], Fraction]:
    """(h, h_i, L) for [N]: h_i exact or entrywise upper bounds, per mode."""
    _check_nk(n, k)
    if mode not in PAIR_MODES:
        raise ParameterError(f"pairs mode must be one of {PAIR_MODES}, got {mode!r}")
    h = count_progressions(N, k)
    if mode == "exact-pairs":
        h_i = count_intersecting_pairs(N, k).counts
    else:
        h_i = hi_upper_bounds(N, k)
    L = Fraction(h * factorial(k), n**k)
    for i, pairs in enumerate(h_i):
        L -= Fraction(pairs * factorial(k) * factorial(k - i), n ** (2 * k - i))
    return h, tuple(h_i), L


def bonferroni_lower_bound(n: int, k: int, N: int, mode: str = "exact-pairs") -> Fraction:
    """Exact rational lower bound on P(some progression in [N] is R-coloured).

    mode "exact-pairs" uses the true pair tallies (from subset moments, see
    count_intersecting_pairs; an oversize request raises BudgetExceededError);
    mode "bounded-pairs" substitutes their entrywise upper bounds, which only
    subtracts more, so the result is a smaller but still valid lower bound.
    The value may be negative for badly sized N; that is meaningful (the bound
    is just vacuous there).
    """
    return _lower_bound(n, k, N, mode)[2]


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo estimate of the cover probability for R = {1, ..., k}."""

    p_hat: float
    std_err: float
    trials: int
    seed: int
    rng_name: str


def estimate_cover_probability(n: int, k: int, N: int, trials: int, seed: int,
                               rng_name: str = "philox") -> EstimateResult:
    """Fraction of `trials` uniform colourings of [N] that cover R = {1,...,k}.

    The subset choice is irrelevant by symmetry of the uniform colouring.
    Reported std_err is the binomial standard error sqrt(p(1-p)/trials).
    """
    _check_nk(n, k)
    _check_interval(N, k)
    if n > np.iinfo(np.int16).max:
        raise ParameterError(f"colours are drawn as int16, so n must be <= 32767, got {n}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rng = make_rng(seed, rng_name)
    if N < k:
        # no k-progression fits, so nothing can be covered
        return EstimateResult(0.0, 0.0, trials, seed, rng_name)
    # R = {1..k} has colex rank 0. Colours above k fold into k+1 (k if n = k, as k+1 may
    # not fit int16), so for any n the table has 0/1 entries and the ranks fit int16.
    table, top = colex_table(k + 1, k).astype(np.int16), min(n, k + 1)
    hits = 0
    for done in range(0, trials, _CHUNK):
        size = min(_CHUNK, trials - done)
        draws = np.minimum(rng.integers(1, n + 1, size=(size, N), dtype=np.int16), top)
        # blocks are regenerated per chunk so that no (h, k) table is held
        hit = np.zeros(size, dtype=bool)
        for _, _, progs in progression_blocks(N, k):
            rows = max(1, _GATHER_ENTRIES // progs.size)
            for lo in range(0, size, rows):
                ranks = rainbow_ranks(draws[lo:lo + rows], progs, table)
                hit[lo:lo + rows] |= (ranks == 0).any(axis=1)
        hits += int(hit.sum())
    p_hat = hits / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return EstimateResult(p_hat, std_err, trials, seed, rng_name)


def lower_bound_N(n: int, k: int) -> int:
    """Smallest N whose progression count reaches C(n,k).

    No shorter interval can cover all subsets, since each progression covers
    at most one. Found by monotone binary search; also the natural starting
    point for the exact solver.
    """
    _check_nk(n, k)
    target = comb(n, k)
    hi = k
    while count_progressions(hi, k) < target:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if count_progressions(mid, k) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def upper_bound_length(n: int, k: int, alpha: float, log_base: str = "e",
                       force: bool = False) -> int:
    """Length certified by the block construction: rounds * block_length."""
    return rounds(n, k, alpha, log_base, force=force) * block_length(n, k)


@dataclass
class BoundsReport:
    """All quantitative bounds for one (n, k, N) in a single record.

    h and h_i are the progression count and pair tallies behind L (`pairs_mode`
    says whether h_i are exact or entrywise upper bounds). L stays an exact
    Fraction; L_float is a convenience rendering.
    """

    n: int
    k: int
    N: int
    h: int
    h_i: tuple[int, ...]
    pairs_mode: str
    L: Fraction
    N_lower: int
    construction_length: int
    alpha: float

    @property
    def L_float(self) -> float:
        return float(self.L)


def compute_bounds_report(n: int, k: int, N: Optional[int] = None,
                          alpha: float = 2.0, pairs_mode: str = "exact-pairs",
                          log_base: str = "e", force_alpha: bool = False) -> BoundsReport:
    """Assemble the full report; N defaults to the construction block length."""
    if N is None:
        N = block_length(n, k)
    h, h_i, L = _lower_bound(n, k, N, pairs_mode)
    return BoundsReport(
        n=n, k=k, N=N, h=h, h_i=h_i, pairs_mode=pairs_mode, L=L,
        N_lower=lower_bound_N(n, k),
        construction_length=upper_bound_length(n, k, alpha, log_base, force=force_alpha),
        alpha=alpha)


def fraction_json(value: Fraction) -> dict:
    """Render an exact rational as {numerator, denominator, decimal_30_digits}."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        rendered = str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))
    return {
        "numerator": value.numerator,
        "denominator": value.denominator,
        "decimal_30_digits": rendered,
    }


def bounds_report_dict(report: BoundsReport) -> dict:
    return {
        "n": report.n,
        "k": report.k,
        "N": report.N,
        "h": report.h,
        "h_i": list(report.h_i),
        "pairs_mode": report.pairs_mode,
        "L": fraction_json(report.L),
        "L_float": report.L_float,
        "N_lower": report.N_lower,
        "construction_length": report.construction_length,
        "alpha": report.alpha,
    }
