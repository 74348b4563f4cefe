"""A fixed piece of work that measures how fast the host runs right now,
independent of the program under test.

Its operation mix follows the package's hot paths: a scan of a few colourings
over a list of progression position tuples (a working set of megabytes, as
in construction), with a scratch bitmask, inline colex ranking, set lookups
and a large integer bit set; a bit test of every rank of that set, as in the
complement enumeration; a small recursive search; and a numpy gather and
sort like the estimator's. It never changes with the program, so the ratio
of a job's time to the time of this kernel, run next to it, cancels most of
the drift in the host's speed.
"""

from __future__ import annotations

from math import comb

import numpy as np

N_COLORS, K, LENGTH, COLORINGS = 70, 3, 300, 2
DFS_DEPTH = 11
TRIALS, GATHER_LENGTH = 512, 60
# What kernel() returns; any other value means the kernel did other work.
CHECKSUM = 21300221507828823438078


def _colorings() -> list[list[int]]:
    state, out = 12345, []
    for _ in range(COLORINGS):
        row = []
        for _ in range(LENGTH):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(1 + state % N_COLORS)
        out.append(row)
    return out


COLORS = _colorings()
POSITIONS = [tuple(range(start, start + K * diff, diff))
             for diff in range(1, (LENGTH - 1) // (K - 1) + 1)
             for start in range(LENGTH - (K - 1) * diff)]
FAMILY = frozenset(range(0, comb(N_COLORS, K), 2))


def _scan(colors: list[int]) -> tuple[int, int]:
    covered, hits = 0, 0
    for pos in POSITIONS:
        mask = 0
        for p in pos:
            b = 1 << (colors[p] - 1)
            if mask & b:
                mask = 0
                break
            mask |= b
        if not mask:
            continue
        rank, j, m = 0, 1, mask
        while m:
            rank += comb((m & -m).bit_length() - 1, j)
            j += 1
            m &= m - 1
        if rank in FAMILY:
            hits += 1
        covered |= 1 << rank
    return covered, hits


def _dfs(depth: int, used: tuple[int, ...]) -> int:
    if depth == 0:
        return 1
    total = 0
    for c in range(1, 4):
        if len(used) >= 2 and used[-1] == used[-2] == c:
            continue
        total += _dfs(depth - 1, used + (c,))
    return total


def _gather(trials: int, N: int, k: int) -> int:
    rng = np.random.Generator(np.random.Philox(7))
    draws = rng.integers(1, N_COLORS // 4 + 1, size=(trials, N), dtype=np.int16)
    positions = np.array([[s + i * d for i in range(k)]
                          for d in range(1, (N - 1) // (k - 1) + 1)
                          for s in range(N - (k - 1) * d)], dtype=np.intp)
    seen = np.sort(draws[:, positions], axis=2)
    return int((np.diff(seen, axis=2) > 0).all(axis=2).sum())


def kernel() -> int:
    """Run the fixed work once; returns a checksum of it."""
    covered, hits = 0, 0
    for colors in COLORS:
        bits, found = _scan(colors)
        covered |= bits
        hits += found
    missing = sum(1 for r in range(comb(N_COLORS, K)) if not (covered >> r) & 1)
    checksum = 0
    for part in (hits, missing, _dfs(DFS_DEPTH, ()), _gather(TRIALS, GATHER_LENGTH, K)):
        checksum = checksum * 1_000_003 + part
    return checksum
