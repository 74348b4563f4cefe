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
L is kept as an exact Fraction end to end; only the CLI's rendering is decimal.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, factorial
from typing import TYPE_CHECKING, Optional

import numpy as np

from .combinatorics import (
    _check_count,
    _check_interval,
    _check_nk,
    count_intersecting_pairs,
    count_progressions,
    hi_upper_bounds,
)
from .construct import block_length, make_rng, rounds
from .errors import BudgetExceededError, ParameterError

if TYPE_CHECKING:
    from fractions import Fraction

PAIR_MODES = ("exact-pairs", "bounded-pairs")

# Fixed Monte Carlo chunk so a given (seed, rng_name, trials) replays the
# identical draw sequence regardless of the trial count.
_CHUNK = 4096

# Row entries (rows x N) per sub-batch of a chunk, so memory stays bounded in N;
# int16 entries a chunk may draw (N = 32768 at a full chunk); and the width of the
# one-hot colour words of _cover_hits.
_GATHER_ENTRIES, _DRAW_LIMIT, _WORD_BITS = 1 << 20, 1 << 27, 64


def _lower_bound(n: int, k: int, N: int, mode: str) -> tuple[int, tuple[int, ...], Fraction]:
    """(h, h_i, L) for [N]: h_i exact or entrywise upper bounds, per mode."""
    from fractions import Fraction  # loads decimal too, so only when a bound is asked for
    _check_nk(n, k)
    if mode not in PAIR_MODES:
        raise ParameterError(f"pairs mode must be one of {PAIR_MODES}, got {mode!r}")
    h = count_progressions(N, k)
    h_i = count_intersecting_pairs(N, k).counts if mode == "exact-pairs" else hi_upper_bounds(N, k)
    L = Fraction(h * factorial(k), n**k)
    for i, pairs in enumerate(h_i):
        L -= Fraction(pairs * factorial(k) * factorial(k - i), n ** (2 * k - i))
    return h, tuple(h_i), L


def bonferroni_lower_bound(n: int, k: int, N: int, mode: str = "exact-pairs") -> Fraction:
    """Exact rational lower bound on P(some progression in [N] is R-coloured).

    mode "exact-pairs" uses the true pair tallies (by difference classes, see
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


def _cover_hits(draws: np.ndarray, n: int, k: int) -> np.ndarray:
    """Whether each row of draws (colours 1..n) has a k-progression coloured R = {1..k}.

    Colour c <= w = min(k, _WORD_BITS) is bit c-1, any other colour 0, held position-major
    so that per common difference the k slices of bits OR-ed are contiguous. Each term adds
    at most one bit, so for k <= w an OR of 2^k - 1 is each colour of R once; for k > w,
    whose OR shows only colours 1..w, each pass is confirmed by its k terms, sorted,
    reading 1..k.
    """
    N, w = draws.shape[1], min(k, _WORD_BITS)
    lookup = np.zeros(n + 1, dtype=np.min_scalar_type((1 << w) - 1))
    lookup[1:w + 1] = [1 << c for c in range(w)]
    bits, hit = lookup.take(draws.T), np.zeros(len(draws), dtype=bool)
    for d in range(1, (N - 1) // (k - 1) + 1):
        L = N - (k - 1) * d
        acc = bits[:L].copy()
        for j in range(1, k):
            acc |= bits[j * d:j * d + L]
        match = acc == (1 << w) - 1
        if k > w and match.any():
            starts, rows = np.nonzero(match)
            terms = draws[rows[:, None], starts[:, None] + d * np.arange(k)]
            terms.sort(axis=1)
            match[starts, rows] = (terms == np.arange(1, k + 1)).all(axis=1)
        hit |= match.any(axis=0)
    return hit


def estimate_cover_probability(n: int, k: int, N: int, trials: int, seed: int,
                               rng_name: str = "philox") -> EstimateResult:
    """Fraction of `trials` uniform colourings of [N] that cover R = {1,...,k}.

    The subset choice is irrelevant by symmetry of the uniform colouring.
    Each chunk of _CHUNK int16 rows is one rng call, refused with BudgetExceededError
    past _DRAW_LIMIT entries, and _cover_hits tests it _GATHER_ENTRIES // N rows at a time.
    Reported std_err is the binomial standard error sqrt(p(1-p)/trials).
    """
    _check_nk(n, k)
    _check_interval(N, k)
    if n > np.iinfo(np.int16).max:
        raise ParameterError(f"colours are drawn as int16, so n must be <= 32767, got {n}")
    _check_count("trials", trials)
    rng = make_rng(seed, rng_name)
    if N < k:
        # no k-progression fits, so nothing can be covered
        return EstimateResult(0.0, 0.0, trials, seed, rng_name)
    if min(trials, _CHUNK) * N > _DRAW_LIMIT:
        raise BudgetExceededError(f"a chunk of {min(trials, _CHUNK)} colourings of length {N} "
                                  f"draws over the limit of {_DRAW_LIMIT} colours")
    rows, hits = max(1, _GATHER_ENTRIES // N), 0
    for done in range(0, trials, _CHUNK):
        draws = rng.integers(1, n + 1, size=(min(_CHUNK, trials - done), N), dtype=np.int16)
        for lo in range(0, len(draws), rows):
            hits += int(_cover_hits(draws[lo:lo + rows], n, k).sum())
    p_hat = hits / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return EstimateResult(p_hat, std_err, trials, seed, rng_name)


def lower_bound_N(n: int, k: int) -> int:
    """Smallest N whose progression count reaches C(n,k).

    No shorter interval can cover all subsets, since each progression covers
    at most one. Found by doubling, then bisecting the monotone count; also
    the natural starting point for the exact solver.
    """
    _check_nk(n, k)
    target = comb(n, k)
    hi = k
    while count_progressions(hi, k) < target:
        hi *= 2
    return 1 + bisect_left(range(1, hi + 1), target, key=lambda N: count_progressions(N, k))


def upper_bound_length(n: int, k: int, alpha: float, log_base: str = "e",
                       force: bool = False) -> int:
    """Length certified by the block construction: rounds * block_length."""
    return rounds(n, k, alpha, log_base, force=force) * block_length(n, k)


@dataclass
class BoundsReport:
    """All quantitative bounds for one (n, k, N) in a single record.

    h and h_i are the progression count and pair tallies behind L (`pairs_mode`
    says whether h_i are exact or entrywise upper bounds). L stays an exact
    Fraction.
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
