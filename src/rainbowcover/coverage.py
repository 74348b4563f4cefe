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

# the ASCII whitespace that str.split splits on, and a run of anything else
_SPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_TOKEN = re.compile(f"[^{_SPACE}]+")


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
        if min(self.colors) < 1 or max(self.colors) > self.n:
            for i, c in enumerate(self.colors):  # name the first bad position
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

    `covered` is a read-only bool array over colex ranks: entry r says whether
    the subset with rank r is covered. `witnesses`, when recorded, maps a covered
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
    """`uncovered` is a read-only ColorSetView over the False entries of
    `report.covered`, with no copy; it unranks a subset only when one is read."""

    complete: bool
    uncovered: ColorSetView
    report: CoverageReport


def covered_family(coloring: Coloring, k: int,
                   record_witnesses: bool = False) -> CoverageReport:
    """Scan every k-progression of the domain and mark each rainbow colour set.

    The progressions are ranked one block of progression_blocks at a time, and
    a block's ranks not yet covered are scattered into the family. It has one
    spare entry past the C(n,k) subsets, always True, where the rank -1 of a
    repeated colour reads as covered; the report leaves it out. The new ranks
    bound the subsets the block adds, so the family is counted only when the
    bound reaches C(n,k), and the scan stops after the block that completes it.
    A witness is the first progression of its rank within the block that first
    covers it, hence its first in enumeration order. Only when witnesses are
    recorded are a block's new ranks sorted: each is packed above the bits of
    its row index, so one plain sort orders them by rank and then by row, and
    the first key of each rank's run is its witness. Each block's witness
    ranks, starts and differences are kept as arrays, and sorted by rank once
    at the end.
    """
    n = coloring.n
    total = _check_family_size(n, k)
    colors = np.array(coloring.colors)
    table = colex_table(n, k)
    covered = np.zeros(total + 1, dtype=bool)
    covered[-1] = True
    family = covered[:-1]
    bound = 0  # covered subsets at most: a block's fresh ranks may repeat
    found = [(np.empty(0, dtype=np.int64),) * 3]  # (ranks, starts, diffs) per block
    for diffs, starts, positions in progression_blocks(coloring.N, k):
        ranks = rainbow_ranks(colors, positions, table)
        fresh = np.flatnonzero(~covered[ranks])
        ranks = ranks[fresh]
        if record_witnesses:
            # rank < 2^32 (_check_family_size) and row < N, so for N < 2^31
            # the keys fit in int64
            shift = len(positions).bit_length()
            keys = np.sort(ranks << shift | fresh)
            ranks = keys >> shift
            first = np.empty(len(keys), dtype=bool)
            first[:1] = True
            np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
            ranks, fresh = ranks[first], keys[first] & ((1 << shift) - 1)
            found.append((ranks, starts[fresh], diffs[fresh]))
        covered[ranks] = True
        bound += len(ranks)
        if bound >= total:
            bound = int(np.count_nonzero(family))
            if bound == total:
                break
    family.flags.writeable = False
    witnesses = None
    if record_witnesses:
        ranks, starts, diffs = map(np.concatenate, zip(*found))
        order = np.argsort(ranks)  # no rank is new in two blocks
        witnesses = WitnessView(ranks[order], starts[order], diffs[order], k)
    return CoverageReport(n, k, family, int(np.count_nonzero(family)), witnesses)


def verify_cover(coloring: Coloring, n: int, k: int,
                 record_witnesses: bool = False) -> VerifyResult:
    """Decide whether the colouring covers every k-subset of [n].

    `uncovered` holds the missing subsets in colex order, so a complete cover is
    exactly an empty one.
    """
    if n != coloring.n:
        coloring = Coloring(coloring.colors, n)
    report = covered_family(coloring, k, record_witnesses)
    uncovered = ColorSetView(report.covered, n, k, report.covered_count)
    return VerifyResult(not uncovered, uncovered, report)


def parse_coloring_text(text: str) -> list[int]:
    """Parse colour values from the text format.

    Values are positive integers in the ASCII digits 0-9, separated by ASCII
    whitespace, on one line or many; a line of ASCII whitespace only is blank,
    and one whose first other character is '#' is a comment. A line that is
    ASCII and holds no '+' or '_' is split with str.split and converted with
    int; any other line, or one where that fails or gives a value below 1, is
    scanned again token by token, only to raise ColoringFormatError with
    1-based line/column diagnostics for its first bad token.
    """
    values: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip(_SPACE)
        if not stripped or stripped.startswith("#"):
            continue
        # int also reads '+', '_' and non-ASCII digits: such a line is rejected
        plain = line.isascii() and "+" not in line and "_" not in line
        try:
            row = list(map(int, line.split())) if plain else []
        except ValueError:
            row = []
        if not row or min(row) < 1:
            _reject_line(line, lineno)
        values += row
    if not values:
        raise ColoringFormatError("no colour values found", line=1, column=1)
    return values


def _reject_line(line: str, lineno: int) -> None:
    """Raise for the first token of the line that is not ASCII digits after an
    optional '-', or is below 1. Called only for a line that parse_coloring_text
    rejects: on an ASCII line str.split and the token pattern split alike, and
    a non-ASCII character, '+' or '_' lies inside some token, so it always
    raises."""
    for match in _TOKEN.finditer(line):
        token = match.group()
        column = match.start() + 1
        if not (token.isascii() and token.removeprefix("-").isdigit()):
            raise ColoringFormatError(
                f"line {lineno}, column {column}: {token!r} is not an integer",
                line=lineno, column=column)
        value = int(token)
        if value < 1:
            raise ColoringFormatError(
                f"line {lineno}, column {column}: colour {value} must be >= 1",
                line=lineno, column=column)


def format_coloring(coloring: Coloring, header: Optional[dict] = None) -> str:
    """Render a colouring in the text format, optionally with a comment header."""
    lines = []
    if header:
        lines.append("# " + " ".join(f"{key}={value}" for key, value in header.items()))
    lines.append(" ".join(str(c) for c in coloring.colors))
    return "\n".join(lines) + "\n"
