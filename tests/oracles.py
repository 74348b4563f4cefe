"""Brute-force reference implementations used to check the library.

Everything here is deliberately independent of the package internals: plain
scans, membership tests, and exact Fractions, no bitmasks and no ranking.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def progression_terms(start: int, diff: int, k: int) -> tuple[int, ...]:
    return tuple(start + j * diff for j in range(k))


def progressions(N: int, k: int) -> list[tuple[int, int]]:
    """All (start, diff) pairs of k-progressions in [N], by full double scan."""
    found = []
    for diff in range(1, N + 1):
        for start in range(1, N + 1):
            if start + (k - 1) * diff <= N:
                found.append((start, diff))
    found.sort(key=lambda sd: (sd[1], sd[0]))
    return found


def pair_counts(N: int, k: int) -> list[int]:
    """counts[i] = unordered progression pairs sharing exactly i terms."""
    term_lists = [progression_terms(s, d, k) for s, d in progressions(N, k)]
    counts = [0] * k
    for a, b in itertools.combinations(term_lists, 2):
        shared = sum(1 for x in a if x in b)
        counts[shared] += 1
    return counts


def covered_sets(colors: tuple[int, ...], k: int) -> set[frozenset[int]]:
    """Colour k-sets realized by some all-distinct progression, as frozensets."""
    N = len(colors)
    out = set()
    for start, diff in progressions(N, k):
        values = [colors[p - 1] for p in progression_terms(start, diff, k)]
        if len(set(values)) == k:
            out.add(frozenset(values))
    return out


def first_witnesses(colors: tuple[int, ...], k: int) -> dict[frozenset[int], tuple[int, int]]:
    """(start, diff) of the first all-distinct progression realizing each
    covered colour k-set, first in the (diff, start) order of progressions."""
    N = len(colors)
    first: dict[frozenset[int], tuple[int, int]] = {}
    for start, diff in progressions(N, k):
        values = [colors[p - 1] for p in progression_terms(start, diff, k)]
        if len(set(values)) == k:
            first.setdefault(frozenset(values), (start, diff))
    return first


def all_subsets(n: int, k: int) -> list[frozenset[int]]:
    return [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]


def two_color_cover_probability(n: int, N: int) -> Fraction:
    """Exact P(a uniform n-colouring of [N] covers a fixed colour pair).

    Every position pair is a 2-progression, so the pair {a, b} is covered
    exactly when both colours appear somewhere; inclusion-exclusion over the
    two colours gives 1 - 2((n-1)/n)^N + ((n-2)/n)^N.
    """
    return 1 - 2 * Fraction((n - 1) ** N, n**N) + Fraction((n - 2) ** N, n**N)


def block_length_ceiling_ok(n: int, k: int, m: int) -> bool:
    """Exact check that m = ceil(sqrt(2 (k-1) n^k / k!)).

    The target value v satisfies v^2 = 2(k-1)n^k/k! exactly, so m is its
    ceiling iff (m-1)^2 < v^2 <= m^2, checked here in exact rationals.
    """
    import math

    squared = Fraction(2 * (k - 1) * n**k, math.factorial(k))
    return Fraction((m - 1) ** 2) < squared <= Fraction(m**2)


def exhaustive_cover_search(n: int, k: int, N: int):
    """First colouring of [N] (lexicographic) covering all k-subsets, or None.

    Full n^N scan; only usable at toy sizes. Used to double-check the search
    module's own oracle mode.
    """
    needed = set(all_subsets(n, k))
    progs = [progression_terms(s, d, k) for s, d in progressions(N, k)]
    for colors in itertools.product(range(1, n + 1), repeat=N):
        missing = set(needed)
        for terms in progs:
            values = [colors[p - 1] for p in terms]
            if len(set(values)) == k:
                missing.discard(frozenset(values))
                if not missing:
                    break
        if not missing:
            return colors
    return None


def prefix_bound_search(n: int, k: int, N: int):
    """(first covering colouring, nodes) of the pruned exact search, replayed.

    The same depth-first order as the package's search: colours 1..n in
    turn, each new colour at most one above the largest used so far, and the
    rest filled with colour 1 once everything is covered. A node is one
    colour assignment. The prefix-class bound is recomputed from scratch at
    every node: each progression with an uncoloured term whose coloured terms
    have distinct colours P can still cover one uncovered k-set containing P,
    so the branch is cut when the covered sets plus the sum over the classes
    P of min(#progressions, #uncovered k-sets containing P) fall short of
    C(n, k).
    """
    needed = set(all_subsets(n, k))
    progs = [progression_terms(s, d, k) for s, d in progressions(N, k)]
    colors: list[int] = []
    nodes = 0

    def rec():
        nonlocal nodes
        i = len(colors)
        covered = set()
        classes: dict[frozenset[int], int] = {}
        for terms in progs:
            values = [colors[p - 1] for p in terms if p <= i]
            if len(set(values)) < len(values):
                continue
            if len(values) == k:
                covered.add(frozenset(values))
            else:
                prefix = frozenset(values)
                classes[prefix] = classes.get(prefix, 0) + 1
        if covered == needed:
            return tuple(colors) + (1,) * (N - i)
        if i == N:
            return None
        uncovered = needed - covered
        bound = sum(min(count, sum(1 for s in uncovered if prefix <= s))
                    for prefix, count in classes.items())
        if len(covered) + bound < len(needed):
            return None
        for c in range(1, min(max(colors, default=0) + 1, n) + 1):
            nodes += 1
            colors.append(c)
            found = rec()
            colors.pop()
            if found is not None:
                return found
        return None

    return rec(), nodes
