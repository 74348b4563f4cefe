"""Exact minimal covering lengths by pruned depth-first search.

Positions are coloured left to right. A progression is finalized exactly once,
at the step that colours its last element, so coverage is maintained
incrementally with an undo list per assignment. Two accelerations:

* prefix-class prune: a progression not yet finalized can still cover at most
  one subset, a superset of the colour mask P of its coloured terms, and none
  if two of those terms share a colour (it is dead). Grouping the live
  progressions by P, at most B = sum over P of min(cnt[P], sup[P]) subsets can
  still be covered, where cnt[P] counts the class and sup[P] the uncovered
  k-sets containing P; the branch is cut when the covered count plus B falls
  short of C(n, k). B is kept up to date, not recomputed: colouring a
  position with colour c moves each progression through it (but not ending
  there) from P to P + {c}, or to dead, where those starting there all leave
  the empty class for {c} as one block; finalizing one takes it out of its
  class and covers P + {c}; covering R lowers sup of each class inside R;
  and each change moves B by the change in that one min term. Each mask
  reached gets a class number, and the per-class state is kept in lists
  indexed by it. No state is sized 2^n, and a cover costs 2^k steps only
  where 2^k is at most the number of progressions, otherwise a scan of the
  classes made so far, so the node budget bounds the work.
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

import numpy as np

from .combinatorics import _check_interval, progression_blocks
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


def _split(items: list, at: np.ndarray, N: int) -> list[list]:
    """`items`, sorted by their positions `at` in [0, N), as one list per position."""
    cuts = [0] + np.cumsum(np.bincount(at, minlength=N)).tolist()
    return [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _search(n: int, k: int, N: int, config: SearchConfig,
            budget: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Core DFS. Returns (colouring or None, nodes visited).

    Raises BudgetExceededError when `budget` assignments have been made
    without settling the instance.
    """
    total = comb(n, k)
    full = [comb(n - j, k - j) for j in range(k + 1)]
    # The class of each progression lives in a slot of `state`. Slot p < N
    # holds the class of {colour of position p}, which every progression
    # starting at p has after its first term, so those move as one block of
    # starts[p]; from its second term on, progression j has slot N + j.
    # through[i] lists (slot read, slot written) for each progression with a
    # later term at i that is not its last, and ending[i] the slot read by
    # each one that ends at i, both in progression order. Built with numpy:
    # at long intervals a Python loop over the terms costs more than the
    # search's first thousand nodes.
    blocks = [p for _, _, p in progression_blocks(N, k)]
    pos = np.concatenate(blocks) if blocks else np.empty((0, k), dtype=np.int64)
    h = len(pos)
    slots = np.arange(N, N + h)
    reads = np.empty((h, k - 1), dtype=np.int64)  # the slot read at terms 1..k-1
    reads[:, 0] = pos[:, 0]
    reads[:, 1:] = slots[:, None]
    starts = np.bincount(pos[:, 0], minlength=N).tolist()
    mid = pos[:, 1:-1].ravel()
    order = np.argsort(mid, kind="stable")
    through = _split(list(zip(reads[:, :-1].ravel()[order].tolist(),
                              np.repeat(slots, k - 2)[order].tolist())), mid, N)
    order = np.argsort(pos[:, -1], kind="stable")
    ending = _split(reads[order, -1].tolist(), pos[:, -1], N)
    state = [0] * (N + h)
    # The progressions not started before position i form the empty class.
    # Its min term is min(unstarted[i], total - count), computed rather than
    # kept; where the second is the smaller, no cut can happen anyway, so
    # the cut test adds unstarted[i].
    unstarted = [0] * (N + 1)
    for i in range(N - 1, -1, -1):
        unstarted[i] = unstarted[i + 1] + starts[i]

    # Prefix classes, numbered as their masks are first reached: class P has
    # colour mask masks[P], cnt[P] live unfinalized progressions and sup[P]
    # uncovered k-sets containing it; child[P][c] is the class of masks[P]
    # plus colour c, -1 if masks[P] has c, None until first asked for.
    # If a k-set has at most h subsets (`eager`), its first cover makes a
    # class of each, kept in subsets[R], at no more cost than a pass over the
    # progressions; so a class made later has no covered superset. Otherwise
    # a cover scans the classes made so far, and a new class counts its
    # covered supersets. Either way the cost is not 2^n, nor 2^k for large k.
    eager = 1 << k <= h
    index: dict[int, int] = {}
    masks: list[int] = []
    cnt: list[int] = []
    sup: list[int] = []
    child: list[Optional[list[Optional[int]]]] = []
    subsets: list[Optional[list[int]]] = []
    small: list[int] = []  # the nonempty classes with fewer than k colours
    covered: set[int] = set()  # classes of the covered k-sets

    def class_of(mask: int) -> int:
        P = index.get(mask)
        if P is not None:
            return P
        size = mask.bit_count()
        P = index[mask] = len(masks)
        masks.append(mask)
        cnt.append(0)
        s = full[size]
        if 0 < size < k:
            small.append(P)
            if not eager:
                s -= sum(masks[R] & mask == mask for R in covered)
        sup.append(s)
        child.append([None] * (n + 1) if size < k else None)
        subsets.append(None)
        return P

    def subsets_of(R: int) -> list[int]:
        """Classes of the nonempty proper subsets of k-set class R: if eager,
        all of them, made now and kept; otherwise those made so far."""
        mask = masks[R]
        if not eager:
            return [S for S in small if masks[S] & mask == masks[S]]
        found = subsets[R] = []
        S = (mask - 1) & mask
        while S:
            found.append(class_of(S))
            S = (S - 1) & mask
        return found

    def nxt(P: int, c: int) -> int:
        """child[P][c], filled on first use; the hot loops test for None."""
        mask, bit = masks[P], 1 << (c - 1)
        Q = child[P][c] = -1 if mask & bit else class_of(mask | bit)
        return Q

    pruning = not config.oracle_mode
    early_fill = not config.oracle_mode

    empty = class_of(0)
    bound = 0  # sum over the nonempty classes P of min(cnt[P], sup[P])
    colors = [0] * N
    nodes = 0

    def rec(i: int, count: int, used_max: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes, bound
        if early_fill and count == total:
            return tuple(colors[:i]) + (1,) * (N - i)
        if i == N:
            return tuple(colors) if count == total else None
        if pruning and count + bound + unstarted[i] < total:
            return None
        top = min(used_max + 1, n) if pruning else n
        s = starts[i]
        for c in range(1, top + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"node budget {budget} exhausted at interval length {N}",
                    nodes_explored=nodes)
            colors[i] = c
            saved = bound
            # Scalar on purpose: a node touches only a few progressions, so a
            # numpy call per node would cost more than these loops, and the
            # child lookups are inlined because a call per progression costs
            # about a tenth of the search. Each change to cnt or sup moves
            # bound by the change in its min term.
            if s:
                single = child[empty][c]
                if single is None:
                    single = nxt(empty, c)
                state[i] = single
                if pruning:
                    m, u = cnt[single], sup[single]
                    cnt[single] = m + s
                    if m < u:
                        bound += min(s, u - m)
            moved = []
            for a, b in through[i]:
                P = state[a]
                if P < 0:
                    continue
                moved.append((b, P))
                Q = child[P][c]
                if Q is None:
                    Q = nxt(P, c)
                state[b] = Q
                if pruning:
                    m = cnt[P]
                    cnt[P] = m - 1
                    if m <= sup[P]:
                        bound -= 1
                    if Q >= 0:
                        m = cnt[Q]
                        cnt[Q] = m + 1
                        if m < sup[Q]:
                            bound += 1
            ended = []
            newly = []
            for a in ending[i]:
                P = state[a]
                if P < 0:
                    continue
                if pruning:
                    ended.append(P)
                    m = cnt[P]
                    cnt[P] = m - 1
                    if m <= sup[P]:
                        bound -= 1
                R = child[P][c]
                if R is None:
                    R = nxt(P, c)
                if R < 0 or R in covered:
                    continue
                covered.add(R)
                newly.append(R)
                if pruning:  # each class inside R loses R from its uncovered supersets
                    for S in subsets[R] or subsets_of(R):
                        m = sup[S]
                        sup[S] = m - 1
                        if cnt[S] >= m:
                            bound -= 1
            found = rec(i + 1, count + len(newly), c if c > used_max else used_max)
            if found is not None:
                return found
            for R in newly:
                covered.discard(R)
                if pruning:
                    for S in subsets[R] or subsets_of(R):
                        sup[S] += 1
            for P in ended:
                cnt[P] += 1
            for b, P in moved:
                if pruning:
                    Q = state[b]
                    if Q >= 0:
                        cnt[Q] -= 1
                    cnt[P] += 1
                state[b] = P
            if pruning and s:
                cnt[single] -= s
            bound = saved
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
    _check_family_size(n, k)
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
    _check_family_size(n, k)
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
