"""Exact minimal covering lengths by pruned depth-first search.

Positions are coloured left to right. A progression is finalized exactly once,
at the step that colours its last element, so coverage is maintained
incrementally with an undo list per assignment. Two accelerations:

* counting prune: with p positions coloured, only the progressions whose last
  element is still uncoloured can cover anything new; if they are fewer than
  the uncovered subsets, the branch is dead.
* symmetry breaking: colour classes are interchangeable, so the first
  occurrence of colour c is forced before the first occurrence of colour c+1.

Oracle mode disables both (and the early fill-in on success) and checks only
full-length colourings, as an auditable reference that the pruned search is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .combinatorics import _check_interval, _check_nk, progression_blocks
from .coverage import Coloring, _check_family_size, verify_cover
from .bounds import lower_bound_N
from .errors import BudgetExceededError, ParameterError

DEFAULT_NODE_BUDGET = 10**9


@dataclass(frozen=True)
class SearchConfig:
    max_N: Optional[int] = None
    node_budget: int = DEFAULT_NODE_BUDGET
    oracle_mode: bool = False

    def __post_init__(self):
        if self.node_budget < 1:
            raise ParameterError(f"node budget must be >= 1, got {self.node_budget}")
        if self.max_N is not None and self.max_N < 1:
            raise ParameterError(f"max_N must be >= 1, got {self.max_N}")


@dataclass
class ExactResult:
    """Certified minimal covering length with its witness colouring."""

    n: int
    k: int
    value: int
    witness: Coloring
    nodes_explored: int
    refuted_up_to: int


def _search(n: int, k: int, N: int, config: SearchConfig,
            budget: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Core DFS. Returns (colouring or None, nodes visited).

    Raises BudgetExceededError when `budget` assignments have been made
    without settling the instance.
    """
    total = comb(n, k)
    # 0-based position lists grouped by their last element
    by_last: list[list[list[int]]] = [[] for _ in range(N)]
    for _, _, positions in progression_blocks(N, k):
        for pos in positions.tolist():
            by_last[pos[-1]].append(pos)
    # progressions finalized at position >= i, for the counting prune
    remaining_after = [0] * (N + 1)
    for i in range(N - 1, -1, -1):
        remaining_after[i] = remaining_after[i + 1] + len(by_last[i])

    pruning = not config.oracle_mode
    early_fill = not config.oracle_mode

    colors = [0] * N
    covered: set[int] = set()  # colour bitmasks of the covered subsets
    nodes = 0

    def rec(i: int, count: int, used_max: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        if early_fill and count == total:
            return tuple(colors[:i]) + (1,) * (N - i)
        if i == N:
            return tuple(colors) if count == total else None
        if pruning and count + remaining_after[i] < total:
            return None
        top = min(used_max + 1, n) if pruning else n
        finalized = by_last[i]
        for c in range(1, top + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"node budget {budget} exhausted at interval length {N}",
                    nodes_explored=nodes)
            colors[i] = c
            newly = []
            # Scalar on purpose: a node finalizes only a few progressions, so
            # a numpy call per node would cost more than this loop.
            for pos in finalized:
                mask = 0
                for p in pos:
                    b = 1 << (colors[p] - 1)
                    if mask & b:
                        mask = 0
                        break
                    mask |= b
                if mask and mask not in covered:
                    covered.add(mask)
                    newly.append(mask)
            found = rec(i + 1, count + len(newly), c if c > used_max else used_max)
            if found is not None:
                return found
            for mask in newly:
                covered.discard(mask)
        colors[i] = 0
        return None

    found = rec(0, 0, 0)
    return found, nodes


def exists_cover(n: int, k: int, N: int,
                 config: Optional[SearchConfig] = None) -> Optional[Coloring]:
    """Some n-colouring of [N] covering every k-subset, or None if none exists.

    None means the instance is refuted (exhaustively, within the node budget);
    running out of budget raises BudgetExceededError instead, so the two
    outcomes are never conflated.
    """
    _check_search_params(n, k)
    _check_interval(N, k)
    config = config or SearchConfig()
    found, _ = _search(n, k, N, config, config.node_budget)
    return Coloring(found, n) if found is not None else None


def ac_exact(n: int, k: int, config: Optional[SearchConfig] = None) -> ExactResult:
    """Smallest N admitting a covering n-colouring, with a certified witness.

    Scans N upward from lower_bound_N(n, k); every returned witness is re-run
    through verify_cover. The node budget is shared across the whole scan, and
    a budget failure reports the largest N that was fully refuted.
    """
    _check_search_params(n, k)
    config = config or SearchConfig()
    N = lower_bound_N(n, k)
    budget_left = config.node_budget
    total_nodes = 0
    while True:
        if config.max_N is not None and N > config.max_N:
            raise BudgetExceededError(
                f"no cover found up to max_N = {config.max_N}",
                nodes_explored=total_nodes, refuted_up_to=N - 1)
        try:
            found, nodes = _search(n, k, N, config, budget_left)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"node budget {config.node_budget} exhausted while deciding N = {N}",
                nodes_explored=total_nodes + (exc.nodes_explored or 0),
                refuted_up_to=N - 1) from None
        total_nodes += nodes
        budget_left -= nodes
        if found is not None:
            witness = Coloring(found, n)
            check = verify_cover(witness, n, k)
            if not check.complete:
                raise AssertionError(
                    f"internal error: search produced an invalid witness for "
                    f"n={n} k={k} N={N}")
            return ExactResult(n=n, k=k, value=N, witness=witness,
                               nodes_explored=total_nodes, refuted_up_to=N - 1)
        N += 1


def _check_search_params(n: int, k: int) -> None:
    # k = 1 would make every singleton a progression only by convention; refuse.
    _check_nk(n, k)
    _check_family_size(n, k)


def exact_result_dict(result: ExactResult, method: str) -> dict:
    """JSON-ready record; `method` labels how this tool derived the value."""
    return {
        "n": result.n,
        "k": result.k,
        "ac": result.value,
        "witness": list(result.witness.colors),
        "nodes_explored": result.nodes_explored,
        "refuted_up_to": result.refuted_up_to,
        "method": method,
    }
