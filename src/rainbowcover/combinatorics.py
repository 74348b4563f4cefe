"""Arithmetic progressions in an integer interval: enumeration, exact counts,
pairwise-intersection tallies, and colex ranking of colour subsets.

Everything here is a pure function of its arguments, and every count is an
exact Python integer, so results never overflow and can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .errors import BudgetExceededError, ParameterError

# Cap on the entries, h*C(k,j)*j, of the largest position-subset gather of
# count_intersecting_pairs. Each entry is 1-2 bytes, plus an 8-byte sort index
# per row of j; 2^25 admits the n=300, k=3 construction block (27M entries).
PAIR_ENTRY_LIMIT = 1 << 25

# Rows per block of progression_blocks: bounds every gather made from a block,
# whatever N is. Larger blocks raised peak memory and made no scan faster.
BLOCK_ROWS = 1 << 14

# Largest k rainbow_ranks sorts by its network: beyond, np.sort's k log k beats k^2.
NETWORK_MAX_K = 11


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression {start, start+diff, ..., start+(length-1)*diff}."""

    start: int
    diff: int
    length: int

    def __post_init__(self):
        if self.start < 1:
            raise ParameterError(f"progression start must be >= 1, got {self.start}")
        if self.diff < 1:
            raise ParameterError(f"progression diff must be >= 1, got {self.diff}")
        if self.length < 2:
            raise ParameterError(f"progression length must be >= 2, got {self.length}")

    @property
    def last(self) -> int:
        return self.start + (self.length - 1) * self.diff

    def positions(self) -> range:
        """1-based positions of the terms, ascending."""
        return range(self.start, self.start + self.length * self.diff, self.diff)

    def in_interval(self, N: int) -> bool:
        return self.last <= N


@dataclass(frozen=True)
class ColorSet:
    """A set of colours stored as a bitmask; bit c-1 set means colour c is in.

    `rank` is the colex rank of the set among all subsets of its size, a dense
    index in {0, ..., C(n,k)-1}. Colex ranking does not depend on n, so the
    same rank stays valid when the palette grows.
    """

    mask: int
    rank: int

    @classmethod
    def from_mask(cls, mask: int, n: int, k: int) -> "ColorSet":
        return cls(mask, subset_rank(mask, n, k))

    @classmethod
    def from_rank(cls, rank: int, n: int, k: int) -> "ColorSet":
        return cls(subset_unrank(rank, n, k), rank)

    @classmethod
    def from_colors(cls, colors: Iterable[int], n: int) -> "ColorSet":
        values = list(colors)
        mask = 0
        for c in values:
            if not 1 <= c <= n:
                raise ParameterError(f"colour {c} outside 1..{n}")
            mask |= 1 << (c - 1)
        if mask.bit_count() != len(values):
            raise ParameterError(f"colour list {values} contains duplicates")
        return cls.from_mask(mask, n, len(values))

    @property
    def colors(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            out.append((m & -m).bit_length())
            m &= m - 1
        return tuple(out)

    @property
    def k(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class PairIntersectionCounts:
    """counts[i] = unordered pairs of distinct k-progressions sharing exactly
    i elements; total = number of progressions scanned. Two distinct
    progressions share at most k-1 elements, so the vector has length k and
    its entries sum to C(total, 2)."""

    counts: tuple[int, ...]
    total: int


def _check_interval(N: int, k: int) -> None:
    if k < 2:
        raise ParameterError(f"progression length k must be >= 2, got {k}")
    if N < 1:
        raise ParameterError(f"interval length N must be >= 1, got {N}")


def _check_nk(n: int, k: int) -> None:
    """Require 2 <= k <= n: k = 1 would make a singleton a progression only by convention."""
    if k < 2:
        raise ParameterError(f"subset size k must be >= 2, got {k}")
    if k > n:
        raise ParameterError(f"subset size k = {k} exceeds the palette size n = {n}")


def progression_blocks(N: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield every k-progression inside [N] exactly once, in blocks.

    Order is ascending common difference, then ascending start. A block holds
    all progressions of a run of consecutive differences, as many as fit in
    BLOCK_ROWS rows (at least one difference), as (diffs, starts, positions):
    the common difference and 1-based start of each row, and the (m, k) array
    of its 0-based terms.
    """
    _check_interval(N, k)

    def gen():
        D = (N - 1) // (k - 1)
        lo = 1
        while lo <= D:
            hi, rows = lo + 1, N - (k - 1) * lo
            while hi <= D and rows + N - (k - 1) * hi <= BLOCK_ROWS:
                rows += N - (k - 1) * hi
                hi += 1
            counts = N - (k - 1) * np.arange(lo, hi)
            diffs = np.repeat(np.arange(lo, hi), counts)
            starts = np.concatenate([np.arange(1, c + 1) for c in counts])
            yield diffs, starts, (starts - 1)[:, None] + diffs[:, None] * np.arange(k)
            lo = hi

    return gen()


def enumerate_progressions(N: int, k: int) -> Iterator[Progression]:
    """Yield every k-progression inside [N] exactly once, in the order of
    progression_blocks."""
    return (Progression(start, diff, k)
            for diffs, starts, _ in progression_blocks(N, k)
            for diff, start in zip(diffs.tolist(), starts.tolist()))


def count_progressions(N: int, k: int) -> int:
    """Exact number of k-progressions in [N], in closed form.

    There are N - (k-1)d progressions of common difference d, so with
    D = floor((N-1)/(k-1)) the total is D*N - (k-1)*D*(D+1)/2.
    """
    _check_interval(N, k)
    D = (N - 1) // (k - 1)
    return D * N - (k - 1) * (D * (D + 1) // 2)


def count_intersecting_pairs(N: int, k: int) -> PairIntersectionCounts:
    """Tally unordered pairs of distinct k-progressions in [N] by the exact
    number of elements they share, from subset moments.

    Let m_T count the progressions containing a j-set T of positions, and
    S_j = sum_T C(m_T, 2), read off the runs of the lexsorted j-subsets of all
    progressions. A pair sharing i elements shares C(i, j) j-sets, so
    S_j = sum_i C(i, j) h_i, inverted as h_i = sum_j (-1)^(j-i) C(j, i) S_j.
    A gather over PAIR_ENTRY_LIMIT entries raises BudgetExceededError up front.
    """
    _check_interval(N, k)
    h = count_progressions(N, k)
    if h < 2:
        return PairIntersectionCounts((0,) * k, h)
    # h*C(k,j)*j = h*k*C(k-1,j-1) is largest at j-1 = (k-1)//2
    entries = h * k * comb(k - 1, (k - 1) // 2)
    if entries > PAIR_ENTRY_LIMIT:
        raise BudgetExceededError(
            f"pair tallies need {entries} gathered entries (h = {h}), "
            f"over the limit {PAIR_ENTRY_LIMIT}")
    moments, dtype = [comb(h, 2)], np.min_scalar_type(N)
    for j in range(1, k):
        cols = np.array(list(combinations(range(k), j)))
        # a C-ordered (j, rows) array of the j-subsets' positions in the least dtype
        keys = np.concatenate([positions[:, cols].reshape(-1, j).T.astype(dtype, order="C")
                               for _, _, positions in progression_blocks(N, k)], axis=1)
        rows = keys[:, np.lexsort(keys)]
        starts = np.r_[True, (rows[:, 1:] != rows[:, :-1]).any(axis=0), True]
        runs = np.diff(np.flatnonzero(starts))
        # runs are at most h long, so the int64 sum stays below h times the row count
        moments.append(int((runs * (runs - 1)).sum()) // 2)
    counts = [sum((-1) ** (j - i) * comb(j, i) * moments[j] for j in range(i, k))
              for i in range(k)]
    return PairIntersectionCounts(tuple(counts), h)


def hi_upper_bounds(N: int, k: int) -> tuple[int, ...]:
    """Entrywise upper bounds for the pair-intersection tallies.

    bound[0] = C(h,2): no pair shares fewer than zero elements, so the count
    of disjoint pairs is at most the count of all pairs. bound[1] = h*k^2*N:
    fix one progression and one of its k elements; at most kN progressions
    pass through that element. bound[j] = C(N,2)*C(C(k,2),2) for j >= 2: a
    pair of shared elements pins each progression to one of its C(k,2) index
    slots, determining it completely.
    """
    _check_interval(N, k)
    h = count_progressions(N, k)
    return (comb(h, 2), h * k * k * N) + (comb(N, 2) * comb(comb(k, 2), 2),) * (k - 2)


def colex_table(n: int, k: int) -> np.ndarray:
    """The comb table of rainbow_ranks: row j-1 holds C(c, j) for c = j-1, ...,
    n-k+j-1, the colex terms the j-th smallest colour of a k-subset of [n] can
    contribute. No entry exceeds C(n,k)."""
    return np.array([[comb(c, j) for c in range(j - 1, n - k + j)]
                     for j in range(1, k + 1)], dtype=np.int64)


def rainbow_ranks(colors: np.ndarray, positions: np.ndarray,
                  comb_table: np.ndarray) -> np.ndarray:
    """Colex rank of the colour set of each progression, -1 where it repeats a colour.

    colors holds the colours (1..n) of the interval on its last axis, after any
    batch axes; positions the (m, k) 0-based terms of m progressions; comb_table
    is colex_table(n, k); the result has shape colors.shape[:-1] + (m,). The k
    gathered colours are sorted by np.sort, or for k <= NETWORK_MAX_K by an
    odd-even transposition network (Knuth, TAOCP vol. 3, 5.3.4): k passes of
    np.minimum/np.maximum over alternate adjacent columns. Sorted c_1 < ... <
    c_k rank as sum_j C(c_j - 1, j); a repeated colour gives -1 and may index
    outside the table, so the index is clipped.
    """
    k = positions.shape[1]
    if k > NETWORK_MAX_K:
        cols = np.sort(np.take(colors, positions, axis=-1)).swapaxes(-1, -2).copy()
    else:
        cols = np.take(colors, positions.T, axis=-1)
        for p in range(k):
            lo, hi = cols[..., p % 2:k - 1:2, :], cols[..., p % 2 + 1:k:2, :]
            lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)
    ranks = comb_table[0].take(cols[..., 0, :] - 1, mode="clip")
    for j in range(1, k):
        ranks += comb_table[j].take(cols[..., j, :] - j - 1, mode="clip")
    ranks[(cols[..., 1:, :] <= cols[..., :-1, :]).any(axis=-2)] = -1
    return ranks


def colex_unrank(ranks: np.ndarray, comb_table: np.ndarray) -> np.ndarray:
    """Inverse of rainbow_ranks: the (m, k) ascending colours of each rank, given
    comb_table = colex_table(n, k); colour j is a binary search in row j-1."""
    rest = np.array(ranks, dtype=np.int64)
    out = np.empty((len(rest), len(comb_table)), dtype=np.int64)
    for j in range(len(comb_table), 0, -1):
        off = np.searchsorted(comb_table[j - 1], rest, side="right") - 1
        out[:, j - 1] = off + j
        rest -= comb_table[j - 1, off]
    return out


def _check_subset_params(n: int, k: int) -> None:
    if n < 1 or k < 1 or k > n:
        raise ParameterError(f"need 1 <= k <= n, got n={n} k={k}")


def subset_rank(mask: int, n: int, k: int) -> int:
    """Colex rank of a k-subset of [n] given as a bitmask.

    For S = {c_1 < ... < c_k} the rank is sum_j C(c_j - 1, j), a bijection
    onto {0, ..., C(n,k)-1}.
    """
    _check_subset_params(n, k)
    if mask <= 0 or mask >> n:
        raise ParameterError(f"mask {bin(mask)} is not a nonempty subset of [{n}]")
    if mask.bit_count() != k:
        raise ParameterError(f"mask has {mask.bit_count()} elements, expected k={k}")
    rank = 0
    for j in range(1, k + 1):
        rank += comb((mask & -mask).bit_length() - 1, j)
        mask &= mask - 1
    return rank


def subset_unrank(rank: int, n: int, k: int) -> int:
    """Inverse of subset_rank: bitmask of the k-subset of [n] with this rank."""
    _check_subset_params(n, k)
    if not 0 <= rank < comb(n, k):
        raise ParameterError(f"rank {rank} out of range for C({n},{k}) = {comb(n, k)}")
    mask = 0
    r = rank
    c = n
    for j in range(k, 0, -1):
        while comb(c - 1, j) > r:
            c -= 1
        mask |= 1 << (c - 1)
        r -= comb(c - 1, j)
        c -= 1
    return mask
