"""Reference computations the benchmark checks the library against.

Nothing here imports rainbowcover: progressions are built as numpy index
arrays, rainbow tests sort the gathered colours, and colex ranks come from a
binomial lookup table, so a check never trusts the layer it checks.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt

import numpy as np


def progression_positions(N: int, k: int) -> np.ndarray:
    """(h, k) array of the 0-based positions of every k-progression in [N]."""
    steps = np.arange(k, dtype=np.int64)
    blocks = [np.arange(N - (k - 1) * d, dtype=np.int64)[:, None] + d * steps
              for d in range(1, (N - 1) // (k - 1) + 1)]
    return np.concatenate(blocks) if blocks else np.zeros((0, k), dtype=np.int64)


def progression_count(N: int, k: int) -> int:
    """Number of k-progressions in [N], summed difference by difference."""
    return sum(N - (k - 1) * d for d in range(1, (N - 1) // (k - 1) + 1))


def block_length(n: int, k: int) -> int:
    """ceil(sqrt(2 (k-1) n^k / k!)), by exact integer arithmetic."""
    num = 2 * (k - 1) * n**k
    den = 1
    for i in range(2, k + 1):
        den *= i
    m = isqrt(num // den)
    while m * m * den < num:
        m += 1
    return m


@lru_cache(maxsize=16)
def _comb_table(n: int, k: int) -> np.ndarray:
    """table[c, j] = C(c, j) for 0 <= c <= n, 0 <= j <= k; shared, never written."""
    return np.array([[comb(c, j) for j in range(k + 1)] for c in range(n + 1)],
                    dtype=np.int64)


def colex_ranks(sorted_colors: np.ndarray, n: int) -> np.ndarray:
    """Colex rank of each row of ascending 1-based colours: sum_j C(c_j - 1, j)."""
    k = sorted_colors.shape[1]
    table = _comb_table(n, k)
    rank = np.zeros(len(sorted_colors), dtype=np.int64)
    for j in range(k):
        rank += table[sorted_colors[:, j] - 1, j + 1]
    return rank


def rainbow_ranks(colors: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Colour sets realized by rainbow progressions of a colouring of [N].

    Returns (ranks, starts, diffs): the distinct colex ranks in ascending
    order and, for each, the 1-based start and the difference of the first
    progression (ascending difference, then ascending start) realizing it.
    Works one difference at a time, so memory stays O(N + C(n,k)).
    """
    N = len(colors)
    steps = np.arange(k, dtype=np.int64)
    first_start = np.zeros(comb(n, k), dtype=np.int64)
    first_diff = np.zeros(comb(n, k), dtype=np.int64)
    for d in range(1, (N - 1) // (k - 1) + 1):
        s = np.arange(N - (k - 1) * d, dtype=np.int64)
        gathered = np.sort(colors[s[:, None] + d * steps], axis=1)
        rainbow = (np.diff(gathered, axis=1) > 0).all(axis=1)
        ranks, first = np.unique(colex_ranks(gathered[rainbow], n), return_index=True)
        new = first_diff[ranks] == 0
        first_start[ranks[new]] = s[rainbow][first[new]] + 1
        first_diff[ranks[new]] = d
    covered = np.flatnonzero(first_diff)
    return covered, first_start[covered], first_diff[covered]


def mask_ranks(masks: list[int], n: int, k: int) -> np.ndarray:
    """Colex ranks of colour bitmasks (bit c-1 is colour c); -1 marks a mask
    that is not a k-subset of [n]. Works in blocks to keep memory small."""
    width = (n + 7) // 8
    out = np.full(len(masks), -1, dtype=np.int64)
    for lo in range(0, len(masks), 1 << 14):
        block = masks[lo:lo + (1 << 14)]
        raw = b"".join(m.to_bytes(width, "little") if 0 < m < 1 << n else bytes(width)
                       for m in block)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(block), width),
                             axis=1, bitorder="little")[:, :n]
        valid = bits.sum(axis=1) == k
        _, cols = np.nonzero(bits[valid])
        colors = (cols + 1).reshape(-1, k)  # np.nonzero is row-major: each row ascends
        out[lo:lo + len(block)][valid] = colex_ranks(colors, n)
    return out


def covers_subset_hits(draws: np.ndarray, positions: np.ndarray, k: int) -> int:
    """Trials (rows of draws) in which some progression carries exactly the
    colours {1..k}, one each.

    Colours 1..k map to distinct powers of two and every other colour to 0; a
    sum of k such terms equals 2^k - 1 only when they are k distinct powers.
    """
    lut = np.zeros(int(draws.max()) + 1, dtype=np.uint8)
    lut[1:k + 1] = 1 << np.arange(k, dtype=np.uint8)
    coded = lut[draws]
    hits = 0
    step = max(1, (1 << 22) // max(1, positions.size))
    for lo in range(0, len(coded), step):
        sums = coded[lo:lo + step][:, positions].sum(axis=2, dtype=np.uint16)
        hits += int((sums == (1 << k) - 1).any(axis=1).sum())
    return hits
