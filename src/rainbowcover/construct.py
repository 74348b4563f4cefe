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
    _check_nk,
    colex_table,
    progression_blocks,
    rainbow_ranks,
)
from .coverage import Coloring
from .errors import ParameterError, RoundsExhaustedError

_BIT_GENERATORS = {"philox": np.random.Philox, "pcg64": np.random.PCG64}
_LOG = {"e": math.log, "2": math.log2, "10": math.log10}


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


def _check_rng(seed: int, rng_name: str) -> None:
    if rng_name not in _BIT_GENERATORS:
        raise ParameterError(
            f"unknown rng {rng_name!r}; choose from {sorted(_BIT_GENERATORS)}")
    if not isinstance(seed, int) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")


def make_rng(seed: int, rng_name: str = "philox") -> np.random.Generator:
    """Build the generator behind all randomized operations.

    Both registered generators are counter-based or jumpable streams, so an
    identical (seed, rng_name) pair replays the identical draw sequence on any
    platform.
    """
    _check_rng(seed, rng_name)
    return np.random.Generator(_BIT_GENERATORS[rng_name](seed))


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
        _check_rng(self.seed, self.rng_name)
        _check_count("samples_per_round", self.samples_per_round)
        if self.max_rounds is not None:
            _check_count("max_rounds", self.max_rounds)
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
    (carrying the residual family) if the family is nonempty after max_rounds.
    """
    total = _check_family_size(n, k)
    length = block_length(n, k)
    target_rounds = rounds(n, k, params.alpha, params.log_base, force=params.force_alpha)
    max_rounds = params.max_rounds if params.max_rounds is not None else 4 * target_rounds
    rng = make_rng(params.seed, params.rng_name)
    table = colex_table(n, k)
    positions = np.concatenate([p for _, _, p in progression_blocks(length, k)])
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
            ranks = rainbow_ranks(colors, positions, table)
            np.copyto(scratch, covered)
            scratch[ranks] = True
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
