"""Colourings of [N] and exact coverage of colour subsets.

A colour subset R is covered when some arithmetic progression carries exactly
the colours of R, one each. Coverage is tracked in a numpy bool array indexed
by colex rank, one byte per subset, so a block of progressions is marked with
one scatter and the uncovered ranks are one scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .combinatorics import (
    BLOCK_ROWS,
    ColorSet,
    Progression,
    _check_nk,
    colex_table,
    colex_unrank,
    progression_blocks,
    rainbow_ranks,
)
from .errors import ColoringFormatError, FamilySizeError, ParameterError

# Guard for the coverage family, one byte per subset: C(n,k) above this would
# need more than 4 GiB. It also keeps every colex rank below 2^32, so the
# int64 ranks of rainbow_ranks never overflow.
FAMILY_SIZE_LIMIT = 1 << 32

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class Coloring:
    """An assignment of one of n colours (1-based) to each position of [N].

    Surjectivity is not required; a colouring may leave colours unused.
    """

    colors: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not isinstance(self.colors, tuple):
            object.__setattr__(self, "colors", tuple(self.colors))
        if self.n < 1:
            raise ParameterError(f"number of colours must be >= 1, got {self.n}")
        if len(self.colors) < 1:
            raise ParameterError("a colouring needs at least one position")
        for i, c in enumerate(self.colors):
            if not 1 <= c <= self.n:
                raise ParameterError(
                    f"colour {c} at position {i + 1} outside 1..{self.n}")

    @property
    def N(self) -> int:
        return len(self.colors)


@dataclass
class CoverageReport:
    """Coverage status of every k-subset of [n].

    `covered` is a bool array over colex ranks: entry r says whether the
    subset with rank r is covered. `witnesses`, when recorded, maps a covered
    rank to the first progression (in enumeration order) realizing that subset.
    """

    n: int
    k: int
    covered: np.ndarray
    covered_count: int
    witnesses: Optional[dict[int, Progression]] = None

    @property
    def total(self) -> int:
        return comb(self.n, self.k)

    def is_covered(self, rank: int) -> bool:
        return 0 <= rank < len(self.covered) and bool(self.covered[rank])

    def uncovered_ranks(self) -> list[int]:
        return np.flatnonzero(~self.covered).tolist()


@dataclass
class VerifyResult:
    complete: bool
    uncovered: list[ColorSet]
    report: CoverageReport


def rainbow_colors(coloring: Coloring, prog: Progression) -> Optional[ColorSet]:
    """Colour set of prog when its colours are pairwise distinct, else None."""
    if prog.last > coloring.N:
        raise ParameterError(
            f"progression ends at {prog.last}, outside the domain [{coloring.N}]")
    n, k = coloring.n, prog.length
    if k > n:
        return None  # k terms cannot carry k distinct colours out of n < k
    _check_family_size(n, k)
    positions = np.array([prog.positions()]) - 1
    rank = int(rainbow_ranks(np.array(coloring.colors), positions, colex_table(n, k))[0])
    return ColorSet.from_rank(rank, n, k) if rank >= 0 else None


def _check_family_size(n: int, k: int) -> int:
    """C(n, k) after checking 2 <= k <= n and the coverage-family guard."""
    _check_nk(n, k)
    total = comb(n, k)
    if total > FAMILY_SIZE_LIMIT:
        raise FamilySizeError(
            f"C({n},{k}) = {total} subsets exceed the coverage-family guard of 2^32")
    return total


def covered_family(coloring: Coloring, k: int,
                   record_witnesses: bool = False) -> CoverageReport:
    """Scan every k-progression of the domain and mark each rainbow colour set.

    The progressions are ranked one block of progression_blocks at a time, and
    the scan stops after the block that completes the family. Within a block,
    the witness of a newly covered rank is its first progression there, hence
    its first in enumeration order.
    """
    n = coloring.n
    total = _check_family_size(n, k)
    colors = np.array(coloring.colors)
    table = colex_table(n, k)
    covered = np.zeros(total, dtype=bool)
    count = 0
    witnesses: Optional[dict[int, Progression]] = {} if record_witnesses else None
    for diffs, starts, positions in progression_blocks(coloring.N, k):
        ranks, first = np.unique(rainbow_ranks(colors, positions, table), return_index=True)
        new = (ranks >= 0) & ~covered[ranks]
        ranks, first = ranks[new], first[new]
        covered[ranks] = True
        count += len(ranks)
        if witnesses is not None:
            witnesses.update((r, Progression(s, d, k)) for r, s, d in
                             zip(ranks.tolist(), starts[first].tolist(), diffs[first].tolist()))
        if count == total:
            break
    return CoverageReport(n, k, covered, count, witnesses)


def _color_sets(ranks: np.ndarray, n: int, k: int) -> list[ColorSet]:
    """ColorSet per colex rank, BLOCK_ROWS at a time; Python-int masks as n may exceed 63."""
    table = colex_table(n, k)
    bits = [0] + [1 << c for c in range(n)]
    out = []
    for lo in range(0, len(ranks), BLOCK_ROWS):
        block = ranks[lo:lo + BLOCK_ROWS]
        masks = [0] * len(block)
        for column in colex_unrank(block, table).T.tolist():
            masks = [m | bits[c] for m, c in zip(masks, column)]
        out.extend(map(ColorSet, masks, block.tolist()))
    return out


def verify_cover(coloring: Coloring, n: int, k: int,
                 record_witnesses: bool = False) -> VerifyResult:
    """Decide whether the colouring covers every k-subset of [n].

    `uncovered` lists the missing subsets in colex order, built by one batch
    unrank per block of BLOCK_ROWS ranks, so a complete cover is exactly an
    empty list.
    """
    if n != coloring.n:
        coloring = Coloring(coloring.colors, n)
    report = covered_family(coloring, k, record_witnesses)
    uncovered = _color_sets(np.flatnonzero(~report.covered), n, k)
    return VerifyResult(not uncovered, uncovered, report)


def witness(coloring: Coloring, R: ColorSet, k: Optional[int] = None) -> Optional[Progression]:
    """First progression in enumeration order carrying exactly the colours of R."""
    size = R.mask.bit_count()
    if k is not None and k != size:
        raise ParameterError(f"subset has {size} colours, expected k={k}")
    if R.mask >> coloring.n:
        raise ParameterError("subset uses colours outside the palette")
    _check_family_size(coloring.n, size)
    colors = np.array(coloring.colors)
    table = colex_table(coloring.n, size)
    for diffs, starts, positions in progression_blocks(coloring.N, size):
        hits = np.flatnonzero(rainbow_ranks(colors, positions, table) == R.rank)
        if hits.size:
            return Progression(int(starts[hits[0]]), int(diffs[hits[0]]), size)
    return None


def parse_coloring_text(text: str) -> list[int]:
    """Parse colour values from the text format.

    Values are whitespace-separated positive integers, on one line or many;
    a line whose first non-blank character is '#' is a comment. Raises
    ColoringFormatError with 1-based line/column diagnostics.
    """
    values: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        for match in _TOKEN.finditer(line):
            token = match.group()
            column = match.start() + 1
            try:
                value = int(token)
            except ValueError:
                raise ColoringFormatError(
                    f"line {lineno}, column {column}: {token!r} is not an integer",
                    line=lineno, column=column) from None
            if value < 1:
                raise ColoringFormatError(
                    f"line {lineno}, column {column}: colour {value} must be >= 1",
                    line=lineno, column=column)
            values.append(value)
    if not values:
        raise ColoringFormatError("no colour values found", line=1, column=1)
    return values


def format_coloring(coloring: Coloring, header: Optional[dict] = None) -> str:
    """Render a colouring in the text format, optionally with a comment header."""
    lines = []
    if header:
        lines.append("# " + " ".join(f"{key}={value}" for key, value in header.items()))
    lines.append(" ".join(str(c) for c in coloring.colors))
    return "\n".join(lines) + "\n"


def coverage_report_dict(coloring: Coloring, result: VerifyResult) -> dict:
    """JSON-ready report: {n, k, N, complete, covered_count, total, uncovered, witnesses?}."""
    report = result.report
    out = {
        "n": report.n,
        "k": report.k,
        "N": coloring.N,
        "complete": result.complete,
        "covered_count": report.covered_count,
        "total": report.total,
        "uncovered": [list(cs.colors) for cs in result.uncovered],
    }
    if report.witnesses is not None:
        ranks = sorted(report.witnesses)
        keys = colex_unrank(np.array(ranks, dtype=np.int64), colex_table(report.n, report.k))
        out["witnesses"] = {
            ",".join(map(str, colors)): {"start": p.start, "diff": p.diff, "length": p.length}
            for colors, p in zip(keys.tolist(), map(report.witnesses.get, ranks))}
    return out
