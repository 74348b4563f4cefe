"""Arithmetic progressions in an integer interval: enumeration, exact counts,
pairwise-intersection tallies, and colex ranking of colour subsets.

Everything here is a pure function of its arguments, and every count is an
exact Python integer, so results never overflow and can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, gcd
from operator import index
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import BudgetExceededError, FamilySizeError, ParameterError

# Cap on the entries of count_intersecting_pairs: N position counts plus k^2
# start offsets per resonant difference class. 2^20 admits N = 135301 at k = 3.
PAIR_ENTRY_LIMIT = 1 << 20

# Rows per block of progression_blocks: bounds every gather made from a block,
# whatever N is. Larger blocks raised peak memory and made no scan faster.
BLOCK_ROWS = 1 << 14

# Guard for the coverage family, one byte per subset: C(n,k) above this would
# need more than 4 GiB. It also keeps every colex rank below 2^32, so the
# int64 ranks of rainbow_ranks never overflow.
FAMILY_SIZE_LIMIT = 1 << 32


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
    same rank stays valid when the palette grows. The constructors check the
    colours as Coloring does, or the rank as an integer, and 1 <= k <= n and
    the coverage-family guard, then rank through rainbow_ranks or unrank
    through colex_unrank.
    """

    mask: int
    rank: int

    @classmethod
    def from_rank(cls, rank: int, n: int, k: int) -> "ColorSet":
        total = _check_family_size(n, k, least=1)
        if not _check_integer("rank", rank, 0) < total:
            raise ParameterError(f"rank {rank} out of range for C({n},{k}) = {total}")
        return next(_color_sets(np.array([rank], dtype=np.int64), n, k))

    @classmethod
    def from_colors(cls, colors: Iterable[int], n: int) -> "ColorSet":
        values = _check_colors(colors, _check_integer("palette size n", n, 1))
        mask = sum(1 << (c - 1) for c in set(values))
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


def _check_integer(name: str, value: int, least: int, field: Optional[str] = None) -> int:
    """index(value) if it is an integer, not a bool, of at least `least`; else ParameterError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ParameterError(f"{name} must be an integer, got {value!r}", field=field)
    if index(value) < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}", field=field)
    return index(value)


def _check_colors(colors: Iterable[int], n: int) -> tuple[int, ...]:
    """The colours as a tuple of ints, each 1..n and none a bool, for an n already
    checked; else ParameterError naming the first bad colour and its position."""
    given = tuple(colors)
    # one pass when every colour is a plain int; others, numpy integers too, one by one
    checked = given if set(map(type, given)) == {int} else ()
    if not checked or min(checked) < 1 or max(checked) > n:
        for i, c in enumerate(given):
            if isinstance(c, bool) or not (hasattr(c, "__index__") and 0 < index(c) <= n):
                raise ParameterError(f"colour {c!r} at position {i + 1} outside 1..{n}")
        checked = tuple(map(index, given))  # numpy integers would overflow a mask's shift
    return checked


def _check_interval(N: int, k: int) -> None:
    _check_integer("progression length k", k, 2)
    _check_integer("interval length N", N, 1)


def _check_count(name: str, value: int) -> int:
    """A count argument as an int, which must be >= 1; the error's field is its name."""
    return _check_integer(name, value, 1, name)


def _check_nk(n: int, k: int, least: int = 2) -> None:
    """Require least <= k <= n. Progressions need least = 2: k = 1 would make a
    singleton a progression only by convention. A ColorSet may hold one colour."""
    if _check_integer("subset size k", k, least) > _check_integer("palette size n", n, 1):
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
    C-ordered (k, m) array, so its .T is contiguous: rainbow_ranks and
    tuple_ranks gather by it without a copy.
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


def position_counts(N: int, k: int) -> np.ndarray:
    """The int64 number of k-progressions in [N] through each 0-based position:
    a cumsum over the edges of term j's starts j*d .. j*d + N-(k-1)d - 1, each d."""
    _check_interval(N, k)
    d = np.arange(1, (N - 1) // (k - 1) + 1)
    lo = np.arange(k)[:, None] * d
    edges = np.bincount(lo.ravel(), minlength=N + 1)
    edges -= np.bincount((lo + (N - (k - 1) * d)).ravel(), minlength=N + 1)
    return np.cumsum(edges)[:N]


def count_intersecting_pairs(N: int, k: int) -> PairIntersectionCounts:
    """Tally unordered pairs of distinct k-progressions in [N] by the exact
    number of elements they share, from resonant difference classes.

    Differences d1 <= d2 share two terms only as d1 = g*a, d2 = g*b with
    a <= b < k coprime; starts s and s + g*e then share #{(i, j) : i*a - j*b = e}
    terms whatever s, at max(0, min(L1, L2 - g*e) - max(0, -g*e)) placements,
    L = N - (k-1)d (equal differences: e > 0 only). That gives h_i, i >= 2. All
    shared terms add up to sum_x C(m_x, 2) over position_counts, which gives
    h_1, and h_0 = C(h, 2) less the rest. Over PAIR_ENTRY_LIMIT entries, N plus
    k^2 per class (g, a, b), it raises BudgetExceededError up front.
    """
    _check_interval(N, k)
    h = count_progressions(N, k)
    if h < 2:
        return PairIntersectionCounts((0,) * k, h)
    D = (N - 1) // (k - 1)
    classes, entries = [], N
    for b in range(1, min(k - 1, D) + 1):  # each b adds at least k^2, so few pass
        ratios = [(a, b) for a in range(1, b + 1) if gcd(a, b) == 1]
        classes += ratios
        entries += k * k * (D // b) * len(ratios)
        if entries > PAIR_ENTRY_LIMIT:
            raise BudgetExceededError(f"pair tallies need at least {entries} gathered entries "
                                      f"(h = {h}), over the limit {PAIR_ENTRY_LIMIT}")
    tally = np.zeros(k, dtype=np.int64)  # below N placements per entry: int64 sums are exact
    i, j = np.arange(k), np.arange(k)[:, None]
    for a, b in classes:
        e = np.arange(-(k - 1) * b, (k - 1) * a + 1)
        shared = np.bincount((i * a - j * b).ravel() - e[0], minlength=len(e))
        keep = (shared > 1) & (e > 0) if a == b else shared > 1
        g = np.arange(1, D // b + 1)[:, None]
        delta = g * e[keep]
        placed = (np.minimum(N - (k - 1) * a * g, N - (k - 1) * b * g - delta)
                  - np.maximum(-delta, 0))
        np.add.at(tally, shared[keep], np.maximum(placed, 0).sum(axis=0))
    counts = tally.tolist()
    m = position_counts(N, k)
    # m_x <= k*D < 2N and sum m_x = k*h < 2N^2, and the limit keeps N below 2^20,
    # so the int64 sum stays below 4N^3 < 2^62
    counts[1] = int((m * (m - 1)).sum()) // 2 - sum(s * c for s, c in enumerate(counts[2:], 2))
    counts[0] = comb(h, 2) - sum(counts[1:])
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
    are made 0-based once, in the least unsigned dtype holding n-1, and for every
    k the k gathered columns go through an odd-even transposition network (Knuth,
    TAOCP vol. 3, 5.3.4): k passes of np.minimum/np.maximum over alternate
    adjacent columns, measured faster than np.sort up to k = 80, 1.2x slower at
    k = 98. Sorted c_1 < ... < c_k rank as sum_j C(c_j - 1, j), term j read at
    entry (j-1)(n-k) + c_j - 1 of the flat table, inside it for every colour
    1..n; a repeated colour ranks -1.
    """
    k = positions.shape[1]
    flat, step = comb_table.ravel(), comb_table.shape[1] - 1  # step = n - k
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


def tuple_table(n: int, k: int) -> np.ndarray:
    """The lookup of tuple_ranks: a C-ordered int64 array of shape (n,) * k
    whose entry [c_0 - 1, ..., c_(k-1) - 1], flat entry sum_j (c_j - 1) n^(k-1-j),
    holds the colex rank of {c_0, ..., c_(k-1)}, and -1 where a colour repeats.
    Each rank is written at the k! digit orders of its colex_unrank row,
    n!/(n-k)! entries in all. Not cached: it holds n^k entries, and a caller
    builds it once per run."""
    ranks = np.arange(comb(n, k))
    digits = colex_unrank(ranks, colex_table(n, k)).T - 1
    table = np.full((n,) * k, -1, dtype=np.int64)
    for order in permutations(digits):
        table[order] = ranks
    return table


def tuple_ranks(colors: np.ndarray, positions: np.ndarray, table: np.ndarray) -> np.ndarray:
    """rainbow_ranks through table = tuple_table(n, k), with no sort and no
    repeat mask: term j's colours, made 0-based and scaled by n^(k-1-j) once,
    are gathered by row j of the contiguous positions.T and summed into each
    progression's flat table entry, which one more gather reads."""
    n, k = len(table), positions.shape[1]
    zero = np.subtract(colors, 1, dtype=np.int64)
    cols = positions.T
    keys = np.take(zero * n ** (k - 1), cols[0], axis=-1)
    for j in range(1, k):
        keys += np.take(zero * n ** (k - 1 - j), cols[j], axis=-1)
    return table.reshape(-1).take(keys)


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


class ColorSetView:
    """Read-only forward view of the k-subsets of [n] whose entries are False
    in a bool family over all C(n,k) colex ranks, read as ColorSet in colex order.

    The view shares the family, one byte per subset, with no copy; `covered`
    counts its True entries. Iteration and color_chunks() read the family
    BLOCK_ROWS entries at a time, unranking each chunk at once. There is no
    indexing or equality: read `ranks`, or compare `list(view)`.
    """

    def __init__(self, family: np.ndarray, n: int, k: int, covered: int):
        self._family = family.view()
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

    def __iter__(self) -> Iterator[ColorSet]:
        for block in self._chunks():
            yield from _color_sets(block, self.n, self.k)

    def color_chunks(self) -> Iterator[np.ndarray]:
        """The (m, k) ascending colours of the entries, one array per chunk of
        BLOCK_ROWS family entries; a chunk may hold no entry."""
        table = colex_table(self.n, self.k)
        for block in self._chunks():
            yield colex_unrank(block, table)
