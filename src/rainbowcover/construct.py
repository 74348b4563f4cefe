"""Randomized block construction of covering colourings.

The builder colours blocks of a fixed length, one round at a time. Each round
draws a handful of independent uniform colourings of the block, scatters the
colex ranks of each candidate's rainbow progressions into a copy of the
coverage family, with no sort, and keeps the first candidate whose copy has
the fewest subsets left uncovered: that copy becomes the family. The output is
the concatenation of the chosen blocks; a run succeeds when every subset is
covered, and the result is always re-checkable with verify_cover (the
concatenation can only cover more than the blocks did in isolation, since
progressions across block boundaries are ignored while scoring).

The block's progressions are held once, as the chunks progression_blocks
yields, and a candidate is ranked and scattered one chunk at a time, as
covered_family scans. Ranks go through tuple_table(n, k), one lookup per
progression keyed by its ordered colours, when its n^k entries are at most
TUPLE_TABLE_LIMIT and no more than the rows the run expects to rank;
otherwise through rainbow_ranks. Both give the same ranks, so the same
colouring.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from math import factorial, isqrt
from typing import Optional

import numpy as np

from .combinatorics import (
    ColorSetView,
    _check_count,
    _check_family_size,
    _check_integer,
    _check_nk,
    colex_table,
    count_progressions,
    progression_blocks,
    rainbow_ranks,
    tuple_ranks,
    tuple_table,
)
from .coverage import Coloring
from .errors import BudgetExceededError, ParameterError, RoundsExhaustedError

_BIT_GENERATORS = {"philox": "Philox", "pcg64": "PCG64"}  # in numpy.random, read at first use
_LOG = {"e": math.log, "2": math.log2, "10": math.log10}

# Cap on the h*k int64 entries of a block's progression positions: 2^26 is
# 512 MiB, and admits n = 400, k = 3 (32.0M entries). They are held once, so
# this is most of a run's peak memory.
POSITION_ENTRY_LIMIT = 1 << 26

# Largest tuple_table construct builds, 8 MiB of int64; it is built only when
# it is also no larger than the rows the run expects to rank.
TUPLE_TABLE_LIMIT = 1 << 20


def min_alpha(log_base: str = "e") -> float:
    """Smallest admissible round multiplier, 1/log(2) in the chosen base."""
    if log_base not in _LOG:
        raise ParameterError(f"log base must be one of {sorted(_LOG)}, got {log_base!r}")
    return 1.0 / _LOG[log_base](2)


def _check_alpha(alpha: float, log_base: str, force: bool) -> Optional[str]:
    """Reject a non-finite alpha, and one at or below 1/log(2) unless forced;
    return the message of a forced violation, for the caller to warn with."""
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be a finite number, got {alpha}")
    threshold = min_alpha(log_base)
    if alpha > threshold:
        return None
    message = (f"alpha = {alpha} does not exceed 1/log(2) = {threshold:.6f} "
               f"for log base {log_base!r}")
    if not force:
        raise ParameterError(message)
    return message


def _check_rng(seed: int, rng_name: str) -> int:
    if rng_name not in _BIT_GENERATORS:
        raise ParameterError(
            f"unknown rng {rng_name!r}; choose from {sorted(_BIT_GENERATORS)}")
    return _check_integer("seed", seed, 0)


def make_rng(seed: int, rng_name: str = "philox") -> np.random.Generator:
    """Build the generator behind all randomized operations.

    Both registered generators are counter-based or jumpable streams, so an
    identical (seed, rng_name) pair replays the identical draw sequence on any
    platform.
    """
    _check_rng(seed, rng_name)
    return np.random.Generator(getattr(np.random, _BIT_GENERATORS[rng_name])(seed))


def block_length(n: int, k: int) -> int:
    """Length of one construction block: ceil(sqrt(2) * sqrt((k-1)/k!) * n^(k/2)).

    The square of the target value is the exact rational 2*(k-1)*n^k / k!, so
    the ceiling is resolved with pure integer arithmetic: the answer is the
    smallest m with m^2 * k! >= 2*(k-1)*n^k. No floating point is involved,
    hence no off-by-one at near-integer values.
    """
    _check_nk(n, k)
    radicand_num = 2 * (k - 1) * n**k
    radicand_den = factorial(k)
    m = isqrt(radicand_num // radicand_den)
    while m * m * radicand_den < radicand_num:
        m += 1
    return m


def rounds(n: int, k: int, alpha: float, log_base: str = "e",
           force: bool = False) -> int:
    """Number of construction rounds: ceil(alpha * k * log n).

    alpha must exceed 1/log(2) in the same base; that threshold is what makes
    the expected residual family shrink below one subset. `force` downgrades
    the violation to a warning for exploratory runs; a non-finite alpha is
    refused even then.
    """
    _check_nk(n, k)
    message = _check_alpha(alpha, log_base, force)
    if message:
        warnings.warn(message + "; proceeding anyway", stacklevel=2)
    product = alpha * k * _LOG[log_base](n)
    if not math.isfinite(product):
        raise ParameterError(f"alpha * k * log(n) overflows for alpha = {alpha}")
    return math.ceil(product)


@dataclass(frozen=True)
class ConstructParams:
    """Knobs of the randomized construction; all of them are reproducibility
    inputs and get embedded in the trace."""

    seed: int
    alpha: float = 2.0
    samples_per_round: int = 16
    max_rounds: Optional[int] = None  # default 4 * rounds(n, k, alpha)
    rng_name: str = "philox"
    log_base: str = "e"
    force_alpha: bool = False

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_rng(self.seed, self.rng_name))
        object.__setattr__(self, "samples_per_round",
                           _check_count("samples_per_round", self.samples_per_round))
        if self.max_rounds is not None:
            object.__setattr__(self, "max_rounds", _check_count("max_rounds", self.max_rounds))
        _check_alpha(self.alpha, self.log_base, self.force_alpha)


@dataclass(frozen=True)
class RoundRecord:
    round: int
    family_before: int
    family_after: int
    coverage_fraction: float
    samples: int


@dataclass
class ConstructTrace:
    """Per-round progress of one construction run and the parameters that
    reproduce it."""

    n: int
    k: int
    params: ConstructParams
    block_length: int
    rounds: list[RoundRecord] = field(default_factory=list)
    rounds_used: int = 0
    final_length: int = 0


@dataclass
class ConstructResult:
    coloring: Coloring
    trace: ConstructTrace


def construct_cover(n: int, k: int, params: ConstructParams) -> ConstructResult:
    """Build an n-colouring covering every k-subset of [n], block by block.

    Each round appends exactly one block of block_length(n, k) positions, the
    best scorer among params.samples_per_round uniform candidates. Scoring
    treats the block in isolation; progressions spanning block boundaries are
    a bonus that only the final verification sees. Raises RoundsExhaustedError
    (carrying the residual family) if the family is nonempty after max_rounds,
    and BudgetExceededError up front if the block's h*k progression positions
    exceed POSITION_ENTRY_LIMIT.
    """
    total = _check_family_size(n, k)
    length = block_length(n, k)
    target_rounds = rounds(n, k, params.alpha, params.log_base, force=params.force_alpha)
    max_rounds = params.max_rounds if params.max_rounds is not None else 4 * target_rounds
    h = count_progressions(length, k)
    if h * k > POSITION_ENTRY_LIMIT:
        raise BudgetExceededError(
            f"a block of length {length} holds h = {h} progressions, whose "
            f"{h * k} positions are over the limit {POSITION_ENTRY_LIMIT}")
    rng = make_rng(params.seed, params.rng_name)
    # the tuple table pays for its n^k entries only when the run ranks as many rows
    ranked = min(max_rounds, target_rounds) * params.samples_per_round * h
    if n**k <= min(TUPLE_TABLE_LIMIT, ranked):
        rank, table = tuple_ranks, tuple_table(n, k)
    else:
        rank, table = rainbow_ranks, colex_table(n, k)
    chunks = [p for _, _, p in progression_blocks(length, k)]  # (m, k) terms each
    trace = ConstructTrace(n=n, k=k, params=params, block_length=length)

    # family (True where covered), best copy so far, candidate's copy: swapped,
    # never reallocated; the entry past the family stays True, where a repeated
    # colour's rank -1 lands
    covered, kept, scratch = (np.zeros(total + 1, dtype=bool) for _ in range(3))
    covered[-1] = True
    before = total
    blocks: list[np.ndarray] = []
    for round_index in range(max_rounds):
        if not before:
            break
        best = after = None
        for _ in range(params.samples_per_round):
            colors = rng.integers(1, n + 1, size=length)
            np.copyto(scratch, covered)
            for positions in chunks:
                scratch[rank(colors, positions, table)] = True
            left = total + 1 - int(np.count_nonzero(scratch))
            if best is None or left < after:
                best, after, kept, scratch = colors, left, scratch, kept
        covered, kept = kept, covered
        blocks.append(best)
        trace.rounds.append(RoundRecord(
            round=round_index,
            family_before=before,
            family_after=after,
            coverage_fraction=(before - after) / before,
            samples=params.samples_per_round))
        before = after

    trace.rounds_used = len(blocks)
    trace.final_length = len(blocks) * length
    if before:
        residual = ColorSetView(covered[:-1], n, k, total - before)
        raise RoundsExhaustedError(
            f"{len(residual)} of {total} subsets still uncovered after "
            f"{len(blocks)} rounds (limit {max_rounds})",
            residual=residual, trace=trace)
    # tolist() gives Python ints, which the JSON output needs
    coloring = Coloring(np.concatenate(blocks).tolist(), n)
    return ConstructResult(coloring, trace)


def coloring_header(trace: ConstructTrace) -> dict:
    """Header comment fields for a constructed colouring file."""
    params = trace.params
    return {
        "n": trace.n,
        "k": trace.k,
        "alpha": params.alpha,
        "seed": params.seed,
        "rng": params.rng_name,
        "log_base": params.log_base,
        "rounds": trace.rounds_used,
        "block_length": trace.block_length,
    }
