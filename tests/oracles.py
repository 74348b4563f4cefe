"""Brute-force reference implementations used to check the library.

Everything here is deliberately independent of the package internals: plain
scans, membership tests, exact Fractions, and a scalar colex rank and unrank
of colour tuples, one binomial at a time, where the package ranks in batches
through its comb table.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb

import numpy as np

# the ASCII whitespace that str.split splits on, runs of anything else, and
# the one form of a colour token: an optional minus sign and ASCII digits
_SPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_TOKEN = re.compile(f"[^{_SPACE}]+")
_INTEGER = re.compile(r"-?[0-9]+")


class ColoringFormatError(ValueError):
    """parse_coloring_text's error, with the 1-based line/column of the bad
    token; defined here so that the oracles import nothing of the package."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


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


def completing_difference(colors: tuple[int, ...], n: int, k: int):
    """Least d such that the progressions of common difference at most d
    already cover every colour k-subset of [n], or None when nothing does."""
    N, found = len(colors), set()
    for start, diff in progressions(N, k):
        values = [colors[p - 1] for p in progression_terms(start, diff, k)]
        if len(set(values)) == k:
            found.add(frozenset(values))
            if len(found) == comb(n, k):
                return diff
    return None


def construct_cover(n: int, k: int, length: int, max_rounds: int,
                    samples_per_round: int, rng: np.random.Generator):
    """(colours, round records, residual ranks) of the block construction.

    The rounds and draws of the package's construct_cover, given its block
    length, round limit and generator; each candidate is ranked one
    progression at a time and scored by np.unique over the still-uncovered
    ranks it hits, and the first best candidate of a round is kept. The
    records are RoundRecord fields as dicts; the residual is the colex ranks
    left uncovered, empty on success.
    """
    progs = [progression_terms(s, d, k) for s, d in progressions(length, k)]
    uncovered = np.ones(comb(n, k), dtype=bool)
    blocks, records = [], []
    for round_index in range(max_rounds):
        before = int(np.count_nonzero(uncovered))
        if not before:
            break
        best = best_hit = None
        for _ in range(samples_per_round):
            colors = rng.integers(1, n + 1, size=length)
            values = [[int(colors[p - 1]) for p in terms] for terms in progs]
            ranks = np.array([subset_rank(v) if len(set(v)) == k else -1 for v in values],
                             dtype=np.int64)
            ranks = ranks[ranks >= 0]
            hit = np.unique(ranks[uncovered[ranks]])
            if best is None or len(hit) > len(best_hit):
                best, best_hit = colors, hit
        uncovered[best_hit] = False
        blocks.append(best)
        records.append({
            "round": round_index,
            "family_before": before,
            "family_after": before - len(best_hit),
            "coverage_fraction": len(best_hit) / before,
            "samples": samples_per_round})
    return ([c for block in blocks for c in block.tolist()], records,
            np.flatnonzero(uncovered).tolist())


def subset_rank(colors) -> int:
    """Colex rank of a set of distinct colours c_1 < ... < c_k: sum_j C(c_j - 1, j),
    a bijection from the k-subsets of [n] onto {0, ..., C(n,k)-1} for every n."""
    return sum(comb(c - 1, j) for j, c in enumerate(sorted(colors), start=1))


def subset_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of subset_rank: the ascending colours of the k-set with this rank.
    For j = k, ..., 1 in turn, c_j is the largest c with C(c-1, j) <= what is left."""
    colors = []
    for j in range(k, 0, -1):
        c = j
        while comb(c, j) <= rank:
            c += 1
        rank -= comb(c - 1, j)
        colors.append(c)
    return tuple(reversed(colors))


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

    Full n^N scan; only usable at toy sizes. Used to double-check
    exhaustive_dfs.
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


def exhaustive_dfs(n: int, k: int, N: int):
    """(first covering colouring, nodes) of a plain exhaustive DFS of [N].

    Every colour at every position, one node per assignment, no prune and no
    symmetry breaking; a progression is checked at the step that colours its
    last term, and a cover is accepted only at full length, so the result is
    the lexicographically first covering colouring, as in exhaustive_cover_search.
    """
    total = comb(n, k)
    ending: list[list[tuple[int, ...]]] = [[] for _ in range(N + 1)]  # terms by last term
    for start, diff in progressions(N, k):
        terms = progression_terms(start, diff, k)
        ending[terms[-1]].append(terms)
    colors = [0] * (N + 1)  # 1-based; colors[0] is unused
    covered: set[int] = set()  # colour masks of the covered k-sets
    nodes = 0

    def rec(i: int):
        nonlocal nodes
        if i > N:
            return tuple(colors[1:]) if len(covered) == total else None
        for c in range(1, n + 1):
            nodes += 1
            colors[i] = c
            newly = []
            for terms in ending[i]:
                mask = 0
                for p in terms:
                    mask |= 1 << colors[p]
                if mask.bit_count() == k and mask not in covered:
                    covered.add(mask)
                    newly.append(mask)
            found = rec(i + 1)
            if found is not None:
                return found
            covered.difference_update(newly)
        return None

    return rec(1), nodes


def exhaustive_ac(n: int, k: int, first_N: int):
    """(ac(n, k), first covering colouring, nodes in all) by exhaustive_dfs at
    N = first_N, first_N + 1, ... until some colouring covers; first_N must
    not exceed ac(n, k)."""
    N, total_nodes = first_N, 0
    while True:
        found, nodes = exhaustive_dfs(n, k, N)
        total_nodes += nodes
        if found is not None:
            return N, found, total_nodes
        N += 1


def prefix_bound_search(n: int, k: int, N: int, colour_test: bool = True):
    """(first covering colouring, nodes) of the pruned exact search, replayed.

    The same depth-first order as the package's search: colours 1..n in
    turn, each new colour at most one above the largest used so far, and the
    rest filled with colour 1 once everything is covered. A node is one
    colour assignment. Both bounds are recomputed from scratch at every node,
    the root included. The prefix-class bound: each progression with an
    uncoloured term whose coloured terms have distinct colours P can still
    cover one uncovered k-set containing P, so the branch is cut when the
    covered sets plus the sum over the classes P of min(#progressions,
    #uncovered k-sets containing P) fall short of C(n, k). The colour test
    (off when `colour_test` is false): each uncovered k-set containing colour
    c needs its own progression with an uncoloured term and a term of colour
    c. A_c such progressions run through the coloured positions of colour c,
    counted once per position, and at most M through any one uncoloured
    position, so c needs ceil((U_c - A_c) / M) of them, U_c being the
    uncovered k-sets containing c; the branch is cut when these needs sum
    past the positions left.
    """
    needed = set(all_subsets(n, k))
    progs = [progression_terms(s, d, k) for s, d in progressions(N, k)]
    colors: list[int] = []
    nodes = 0

    def colours_short(i: int, uncovered) -> bool:
        through = [sum(p in terms for terms in progs) for p in range(i + 1, N + 1)]
        most = max(through, default=0)
        unfinalized = [terms for terms in progs if terms[-1] > i]
        need = 0
        for c in range(1, n + 1):
            U = sum(1 for s in uncovered if c in s)
            A = sum(1 for p in range(1, i + 1) if colors[p - 1] == c
                    for terms in unfinalized if p in terms)
            if U > A:
                if most == 0:
                    return True
                need += -(-(U - A) // most)
        return need > N - i

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
        if colour_test and colours_short(i, uncovered):
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


def parse_coloring_text(text: str) -> list[int]:
    """Parse colour values from the text format.

    Values are positive integers in ASCII digits, separated by ASCII
    whitespace, on one line or many; a line of ASCII whitespace only is blank,
    and one whose first other character is '#' is a comment. Raises
    ColoringFormatError with 1-based line/column diagnostics.
    """
    values: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip(_SPACE)
        if not stripped or stripped.startswith("#"):
            continue
        for match in _TOKEN.finditer(line):
            token = match.group()
            column = match.start() + 1
            if not _INTEGER.fullmatch(token):
                raise ColoringFormatError(
                    f"line {lineno}, column {column}: {token!r} is not an integer",
                    line=lineno, column=column)
            value = int(token)
            if value < 1:
                raise ColoringFormatError(
                    f"line {lineno}, column {column}: colour {value} must be >= 1",
                    line=lineno, column=column)
            values.append(value)
    if not values:
        raise ColoringFormatError("no colour values found", line=1, column=1)
    return values
