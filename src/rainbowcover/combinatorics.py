"""Arithmetic progressions in an integer interval: enumeration, exact counts,
pairwise-intersection tallies, and colex ranking of colour subsets.

Everything here is a pure function of its arguments, and every count is an
exact Python integer, so results never overflow and can be shared freely
between threads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import index
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BudgetExceededError, FamilySizeError, ParameterError

# Cap on the entries, h*C(k,j)*j, of the largest position-subset gather of
# count_intersecting_pairs. Each entry is 1-2 bytes, plus an 8-byte sort index
# per row of j; 2^25 admits the n=300, k=3 construction block (27M entries).
PAIR_ENTRY_LIMIT = 1 << 25

# Rows per block of progression_blocks: bounds every gather made from a block,
# whatever N is. Larger blocks raised peak memory and made no scan faster.
BLOCK_ROWS = 1 << 14

# Guard for the coverage family, one byte per subset: C(n,k) above this would
# need more than 4 GiB. It also keeps every colex rank below 2^32, so the
# int64 ranks of rainbow_ranks never overflow.
FAMILY_SIZE_LIMIT = 1 << 32

# Largest k rainbow_ranks sorts by its network: beyond, np.sort's k log k beats k^2.
NETWORK_MAX_K = 16


class Progression(NamedTuple):
    """Arithmetic progression {start, start+diff, ..., start+(length-1)*diff};
    an output-only record, so its fields are not checked."""

    start: int
    diff: int
    length: int

    @property
    def last(self) -> int:
        return self.start + (self.length - 1) * self.diff

    def positions(self) -> range:
        """1-based positions of the terms, ascending."""
        return range(self.start, self.start + self.length * self.diff, self.diff)


@dataclass(frozen=True)
class ColorSet:
    """A set of colours stored as a bitmask; bit c-1 set means colour c is in.

    `rank` is the colex rank of the set among all subsets of its size, a dense
    index in {0, ..., C(n,k)-1}. Colex ranking does not depend on n, so the
    same rank stays valid when the palette grows. The constructors check
    1 <= k <= n and the coverage-family guard, then rank through rainbow_ranks
    or unrank through colex_unrank.
    """

    mask: int
    rank: int

    @classmethod
    def from_rank(cls, rank: int, n: int, k: int) -> "ColorSet":
        total = _check_family_size(n, k, least=1)
        if not 0 <= rank < total:
            raise ParameterError(f"rank {rank} out of range for C({n},{k}) = {total}")
        return next(_color_sets(np.array([rank], dtype=np.int64), n, k))

    @classmethod
    def from_colors(cls, colors: Iterable[int], n: int) -> "ColorSet":
        values = list(map(index, colors))  # numpy integers would overflow the shift
        mask = 0
        for c in values:
            if not 1 <= c <= n:
                raise ParameterError(f"colour {c} outside 1..{n}")
            mask |= 1 << (c - 1)
        if mask.bit_count() != len(values):
            raise ParameterError(f"colour list {values} contains duplicates")
        k = len(values)
        _check_family_size(n, k, least=1)
        rank = rainbow_ranks(np.array(values), np.arange(k)[None], colex_table(n, k))[0]
        return cls(mask, int(rank))

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


def _check_count(name: str, value: int) -> None:
    """Require a count argument to be >= 1; the error's field is its name."""
    if value < 1:
        raise ParameterError(f"{name} must be >= 1, got {value}", field=name)


def _check_nk(n: int, k: int, least: int = 2) -> None:
    """Require least <= k <= n. Progressions need least = 2: k = 1 would make a
    singleton a progression only by convention. A ColorSet may hold one colour."""
    if k < least:
        raise ParameterError(f"subset size k must be >= {least}, got {k}")
    if k > n:
        raise ParameterError(f"subset size k = {k} exceeds the palette size n = {n}")


def _check_family_size(n: int, k: int, least: int = 2) -> int:
    """C(n, k) after checking least <= k <= n and the coverage-family guard."""
    _check_nk(n, k, least)
    total = comb(n, k)
    if total > FAMILY_SIZE_LIMIT:
        raise FamilySizeError(
            f"C({n},{k}) = {total} subsets exceed the coverage-family guard of 2^32")
    return total


def progression_blocks(N: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield every k-progression inside [N] exactly once, in blocks.

    Order is ascending common difference, then ascending start. A block holds
    all progressions of a run of consecutive differences, as many as fit in
    BLOCK_ROWS rows (at least one difference), as (diffs, starts, positions):
    the common difference and 1-based start of each row, and the (m, k) array
    of its 0-based terms. positions is column-major, the transpose of a
    C-ordered (k, m) array, so its .T is contiguous, and so is the .T of a
    concatenation of blocks: rainbow_ranks gathers by it without a copy.
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
            # term j of every row is row j of one buffer, one add per term
            terms = np.empty((k, rows), dtype=np.int64)
            np.subtract(np.arange(rows), np.repeat(np.cumsum(counts) - counts, counts),
                        out=terms[0])
            for j in range(1, k):
                np.add(terms[j - 1], diffs, out=terms[j])
            yield diffs, terms[0] + 1, terms.T
            lo = hi

    return gen()


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
    S_j = sum_T C(m_T, 2). For j = 1, m_T is a bincount of all terms; for
    j >= 2 it is read off the runs of the lexsorted j-subsets of all
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
    m = sum(np.bincount(positions.T.ravel(), minlength=N)
            for _, _, positions in progression_blocks(N, k))
    # the m_T sum to k*h and are at most h, so the int64 sum stays below k*h^2
    moments, dtype = [comb(h, 2), int((m * (m - 1)).sum()) // 2], np.min_scalar_type(N)
    for j in range(2, k):
        cols = np.array(list(combinations(range(k), j)))
        # a C-ordered (j, rows) array of the j-subsets' positions in the least dtype,
        # gathered from the contiguous terms-by-row positions.T; row order is free
        keys = np.concatenate([positions.T[cols.T].reshape(j, -1).astype(dtype)
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


@lru_cache(maxsize=8)
def colex_table(n: int, k: int) -> np.ndarray:
    """The comb table of rainbow_ranks: row j-1 holds C(c, j) for c = j-1, ...,
    n-k+j-1, the colex terms of the j-th smallest colour of a k-subset of [n], at
    flat entry (j-1)(n-k) + c. No entry exceeds C(n,k). Cached per (n, k), so
    the array is read-only."""
    table = np.array([[comb(c, j) for c in range(j - 1, n - k + j)]
                      for j in range(1, k + 1)], dtype=np.int64)
    table.setflags(write=False)
    return table


def rainbow_ranks(colors: np.ndarray, positions: np.ndarray,
                  comb_table: np.ndarray) -> np.ndarray:
    """Colex rank of the colour set of each progression, -1 where it repeats a colour.

    colors holds the colours (1..n) of the interval on its last axis, after any
    batch axes; positions the (m, k) 0-based terms of m progressions; comb_table
    is colex_table(n, k); the result has shape colors.shape[:-1] + (m,). Colours
    are made 0-based once. For k <= NETWORK_MAX_K, in the least unsigned dtype
    holding n-1, the k gathered columns go through an odd-even transposition
    network (Knuth, TAOCP vol. 3, 5.3.4): k passes of np.minimum/np.maximum over
    alternate adjacent columns; larger k uses np.sort. Sorted c_1 < ... < c_k rank
    as sum_j C(c_j - 1, j), term j read at entry (j-1)(n-k) + c_j - 1 of the flat
    table, inside it for every colour 1..n; a repeated colour ranks -1.
    """
    k = positions.shape[1]
    flat, step = comb_table.ravel(), comb_table.shape[1] - 1  # step = n - k
    if k > NETWORK_MAX_K:
        cols = np.sort(np.take(colors - 1, positions, axis=-1)).swapaxes(-1, -2).copy()
    else:
        zero = np.subtract(colors, 1, dtype=np.min_scalar_type(step + k - 1), casting="unsafe")
        cols = np.take(zero, positions.T, axis=-1)
        for p in range(k):
            lo, hi = cols[..., p % 2:k - 1:2, :], cols[..., p % 2 + 1:k:2, :]
            lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)
    ranks = flat.take(cols[..., 0, :])
    for r in range(1, k):
        ranks += flat[r * step:].take(cols[..., r, :])
    if k > 1:  # one colour has no neighbour to repeat
        bad = cols[..., 1, :] <= cols[..., 0, :]
        for r in range(2, k):
            bad |= cols[..., r, :] <= cols[..., r - 1, :]
        np.copyto(ranks, -1, where=bad)
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


def _color_sets(ranks: np.ndarray, n: int, k: int) -> Iterator[ColorSet]:
    """The ColorSet of each int64 colex rank of a k-subset of [n], unranked in
    one batch and built as read. Masks OR Python-int bits, so they stay exact
    for n > 63."""
    zero_based = colex_unrank(ranks, colex_table(n, k))
    zero_based -= 1
    masks = [0] * len(ranks)
    for column in zero_based.T.tolist():
        masks = [m | 1 << c for m, c in zip(masks, column)]
    return map(ColorSet, masks, ranks.tolist())


class ColorSetView(Sequence):
    """Read-only sequence of the k-subsets of [n] whose entries are False in a
    bool family over all C(n,k) colex ranks, in colex order, read as ColorSet.

    The view shares the family, one byte per subset, with no copy; `covered`
    counts its True entries. It reads the family BLOCK_ROWS entries at a time:
    iteration unranks a chunk, an index finds its chunk from per-chunk counts
    made on first use, and a slice unranks only its own entries, into a list.
    A view equals a list when the two are equal entry by entry.
    """

    def __init__(self, family: np.ndarray, n: int, k: int, covered: int):
        self._family, self._ends = family.view(), None
        self._family.flags.writeable = False
        self._len, self.n, self.k = len(family) - covered, n, k

    @property
    def ranks(self) -> np.ndarray:
        """The read-only int64 ranks of the entries, built on each read."""
        ranks = np.flatnonzero(~self._family)
        ranks.flags.writeable = False
        return ranks

    def __len__(self) -> int:
        return self._len

    def _chunks(self) -> Iterator[np.ndarray]:
        """The ranks of the entries, a chunk of BLOCK_ROWS family entries at a time."""
        step = BLOCK_ROWS
        if self._len:
            for lo in range(0, len(self._family), step):
                yield np.flatnonzero(~self._family[lo:lo + step]) + lo

    def _between(self, lo: int, hi: int) -> np.ndarray:
        """The ranks of entries lo..hi-1, for 0 <= lo < hi <= len."""
        if self._ends is None:  # entries up to the end of each chunk
            step = BLOCK_ROWS
            chunks = (self._family[i:i + step] for i in range(0, len(self._family), step))
            self._ends = step, np.cumsum([len(c) - np.count_nonzero(c) for c in chunks])
        step, ends = self._ends
        first, last = ends.searchsorted([lo, hi - 1], side="right").tolist()
        skip = int(ends[first - 1]) if first else 0
        ranks = np.flatnonzero(~self._family[first * step:(last + 1) * step]) + first * step
        return ranks[lo - skip:hi - skip]

    def __getitem__(self, i: int | slice) -> ColorSet | list[ColorSet]:
        entries = range(self._len)[i]  # raises IndexError past either end
        if isinstance(i, slice):
            if not entries:
                return []
            lo, hi = sorted((entries[0], entries[-1]))
            return list(_color_sets(self._between(lo, hi + 1)[::entries.step], self.n, self.k))
        return next(_color_sets(self._between(entries, entries + 1), self.n, self.k))

    def __iter__(self) -> Iterator[ColorSet]:
        for block in self._chunks():
            yield from _color_sets(block, self.n, self.k)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColorSetView):
            # equal ranks give equal entries when k agrees or there are none
            return (len(self) == len(other) and (self.k == other.k or not len(self))
                    and np.array_equal(self.ranks, other.ranks))
        if isinstance(other, list):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def iter_colors(self) -> Iterator[list[int]]:
        """The ascending colours of each entry, unranked a chunk at a time."""
        table = colex_table(self.n, self.k)
        for block in self._chunks():
            yield from colex_unrank(block, table).tolist()
