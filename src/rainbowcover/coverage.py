"""Colourings of [N] and exact coverage of colour subsets.

A colour subset R is covered when some arithmetic progression carries exactly
the colours of R, one each. Coverage is tracked in a numpy bool array indexed
by colex rank, one byte per subset, so a block of progressions is marked with
one scatter and the uncovered ranks are one scan.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from itertools import repeat
from math import comb
from typing import Optional

import numpy as np

from .combinatorics import (
    ColorSetView,
    Progression,
    _check_family_size,
    colex_table,
    progression_blocks,
    rainbow_ranks,
)
from .errors import ColoringFormatError, ParameterError

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


class WitnessView(Mapping):
    """Read-only map from each covered colex rank to the first k-progression,
    in enumeration order, whose colours are that subset.

    Held as three read-only int64 arrays sorted by rank: `ranks`, and the
    `starts` and `diffs` of the progressions. Iteration yields the ranks in
    ascending order; a Progression is built for an entry when it is read, and
    items() and values() build them in one pass over the arrays.
    """

    def __init__(self, ranks: np.ndarray, starts: np.ndarray, diffs: np.ndarray, k: int):
        self.ranks, self.starts, self.diffs = (a.view() for a in (ranks, starts, diffs))
        for a in (self.ranks, self.starts, self.diffs):
            a.flags.writeable = False
        self.k = k

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranks.tolist())

    def __getitem__(self, rank: int) -> Progression:
        # the bound keeps searchsorted off ranks that do not fit int64
        if isinstance(rank, (int, np.integer)) and 0 <= rank < 1 << 63:
            i = self.ranks.searchsorted(rank)
            if i < len(self.ranks) and self.ranks[i] == rank:
                return Progression(int(self.starts[i]), int(self.diffs[i]), self.k)
        raise KeyError(rank)

    def items(self) -> ItemsView:
        return _WitnessItems(self)

    def values(self) -> ValuesView:
        return _WitnessValues(self)


class _WitnessItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping.ranks.tolist(), self._mapping.values())


class _WitnessValues(ValuesView):
    def __iter__(self):
        w = self._mapping
        return map(Progression, w.starts.tolist(), w.diffs.tolist(), repeat(w.k))


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
    witnesses: Optional[WitnessView] = None

    @property
    def total(self) -> int:
        return comb(self.n, self.k)


@dataclass
class VerifyResult:
    complete: bool
    uncovered: ColorSetView
    report: CoverageReport


def covered_family(coloring: Coloring, k: int,
                   record_witnesses: bool = False) -> CoverageReport:
    """Scan every k-progression of the domain and mark each rainbow colour set.

    The progressions are ranked one block of progression_blocks at a time, and
    a block's ranks not yet covered are scattered into the family. Their
    number bounds the subsets the block adds, so the family is counted only
    when the bound reaches C(n,k), and the scan stops after the block that
    completes it. A witness is the first progression of its rank within the
    block that first covers it, hence its first in enumeration order: only
    these new ranks are sorted, stably, and only when witnesses are recorded.
    Each block's new ranks and their progressions' starts and differences are
    kept as arrays, and sorted by rank once at the end.
    """
    n = coloring.n
    total = _check_family_size(n, k)
    colors = np.array(coloring.colors)
    table = colex_table(n, k)
    covered = np.zeros(total, dtype=bool)
    bound = 0  # covered subsets at most: a block's fresh ranks may repeat
    found = [(np.empty(0, dtype=np.int64),) * 3]  # (ranks, starts, diffs) per block
    for diffs, starts, positions in progression_blocks(coloring.N, k):
        ranks = rainbow_ranks(colors, positions, table)
        fresh = np.flatnonzero(ranks >= 0)
        fresh = fresh[~covered[ranks[fresh]]]
        ranks = ranks[fresh]
        if record_witnesses:
            ranks, first = np.unique(ranks, return_index=True)
            fresh = fresh[first]
            found.append((ranks, starts[fresh], diffs[fresh]))
        covered[ranks] = True
        bound += len(ranks)
        if bound >= total:
            bound = int(np.count_nonzero(covered))
            if bound == total:
                break
    witnesses = None
    if record_witnesses:
        ranks, starts, diffs = map(np.concatenate, zip(*found))
        order = np.argsort(ranks)  # no rank is new in two blocks
        witnesses = WitnessView(ranks[order], starts[order], diffs[order], k)
    return CoverageReport(n, k, covered, int(np.count_nonzero(covered)), witnesses)


def verify_cover(coloring: Coloring, n: int, k: int,
                 record_witnesses: bool = False) -> VerifyResult:
    """Decide whether the colouring covers every k-subset of [n].

    `uncovered` holds the missing subsets in colex order as a read-only
    sequence, built on access from their ranks, so a complete cover is exactly
    an empty one.
    """
    if n != coloring.n:
        coloring = Coloring(coloring.colors, n)
    report = covered_family(coloring, k, record_witnesses)
    uncovered = ColorSetView(np.flatnonzero(~report.covered), n, k)
    return VerifyResult(not uncovered, uncovered, report)


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
        "uncovered": result.uncovered.colors(),
    }
    witnesses = report.witnesses
    if witnesses is not None:
        keys = ColorSetView(witnesses.ranks, report.n, report.k).colors()
        out["witnesses"] = {
            ",".join(map(str, colors)): {"start": start, "diff": diff, "length": report.k}
            for colors, start, diff in zip(keys, witnesses.starts.tolist(),
                                           witnesses.diffs.tolist())}
    return out
