"""Exact minimal covering lengths by pruned depth-first search.

Positions are coloured left to right. A progression is finalized exactly once,
at the step that colours its last element, so coverage is maintained
incrementally and undone on the way back. Four accelerations:

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
  and each change moves B by the change in that one min term, which reads
  only gap[P] = cnt[P] - sup[P]. So B is a function of the gaps alone, the
  same whatever order the changes come in, and a node splits them in two:
  each live progression through the position leaves its class P once, before
  the colours are tried, and is undone once after the last; only the
  arrivals in P + {c}, and the k-sets reached by those ending there, are
  made per colour c. Each mask reached gets a class number, and the
  per-class gap is kept in a list indexed by it. No state is sized 2^n,
  and a cover costs 2^k steps only where 2^k is at most the number of
  progressions, otherwise a scan of the classes made so far, so the node
  budget bounds the work.
* cut before the covers: covering a k-set only lowers B, so once the
  progressions ending at a position are finalized, the count covered, the
  new k-sets they reach, B and the progressions not yet started bound what
  the child can reach. When that falls short of C(n, k), the child's own
  test would cut it, so the node skips its covers and the call. Each arrival
  raises B by one at most, so the node first tests B after the leave plus
  one per arriving progression, and makes the arrivals only if that passes. A cut node is still counted and charged to the budget: no node
  count or witness changes, only the order in which classes get numbers.
* colour-occurrence cut: each uncovered k-set containing colour c needs its
  own unfinalized progression with a term of colour c. A_c such
  progressions run through the positions already coloured c, counted once
  per position, and at most M_i through any one of the positions i.. left,
  so c needs ceil((U_c - A_c) / M_i) of those positions, where U_c counts
  the uncovered k-sets containing c (C(n-1, k-1) for an unused colour); the
  branch is cut when these needs add up to more than N - i. slack[c] =
  U_c - A_c is kept like gap: the progressions ending at a position give
  their earlier terms back once for all colours, the colour tried takes the
  progressions through the position that go on past it, and a cover lowers
  the slack of each of its colours. Like the cut before the covers, it is
  tested before the child's arrivals, and a cut child is still a node. At
  the root every slack is C(n-1, k-1), so an interval with
  n * ceil(C(n-1, k-1) / max degree) > N is refuted in no nodes.
* symmetry breaking: colour classes are interchangeable, so the first
  occurrence of colour c is forced before the first occurrence of colour c+1.

The tests check this search against the plain exhaustive DFS and the
from-scratch replay of both cuts in tests/oracles.py.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .combinatorics import _check_count, _check_family_size, _check_interval, progression_blocks
from .coverage import Coloring, verify_cover
from .bounds import lower_bound_N
from .errors import BudgetExceededError

DEFAULT_NODE_BUDGET = 10**9
METHOD = "pruned-dfs"  # the label of every value ac_exact returns


@dataclass(frozen=True)
class SearchConfig:
    max_N: Optional[int] = None
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        _check_count("node_budget", self.node_budget)
        if self.max_N is not None:
            _check_count("max_N", self.max_N)


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


def _check_depth(N: int) -> None:
    """Raise BudgetExceededError when a search of [N] started by the caller
    would recurse past the interpreter's limit: its rec adds N + 1 frames to
    the caller's stack, and its helpers 3 more."""
    depth = N + 4 + sum(1 for _ in traceback.walk_stack(sys._getframe(1)))
    if depth > sys.getrecursionlimit():
        raise BudgetExceededError(f"interval length {N} needs a search {depth} frames deep, "
                                  f"over the recursion limit {sys.getrecursionlimit()}")


def _search(n: int, k: int, N: int, budget: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Core DFS. Returns (colouring or None, nodes visited).

    Raises BudgetExceededError when `budget` assignments have been made
    without settling the instance, or before searching when it would recurse
    too deep (_check_depth).
    """
    _check_depth(N)
    total = comb(n, k)
    full = [comb(n - j, k - j) for j in range(k + 1)]
    # The class of each progression lives in a slot of `state`. Slot p < N
    # holds the class of {colour of position p}, which every progression
    # starting at p has after its first term, so those move as one block of
    # starts[p]; each later term but the last gets a slot of its own, -1 once
    # the progression is dead. through[i] lists (slot read, slot written) for
    # each progression with a later term at i that is not its last, and
    # ending[i] the slot read by each one that ends at i, both in progression
    # order; a node writes no slot it reads, so it reads them once for all
    # its colours. Built with numpy: at long intervals a Python loop over the
    # terms costs more than the search's first thousand nodes.
    blocks = [p for _, _, p in progression_blocks(N, k)]
    pos = np.concatenate(blocks) if blocks else np.empty((0, k), dtype=np.int64)
    h = len(pos)
    slots = np.arange(N, N + h * (k - 2)).reshape(h, k - 2)
    reads = np.empty((h, k - 1), dtype=np.int64)  # the slot read at terms 1..k-1
    reads[:, 0] = pos[:, 0]
    reads[:, 1:] = slots
    starts = np.bincount(pos[:, 0], minlength=N).tolist()
    mid = pos[:, 1:-1].ravel()
    order = np.argsort(mid, kind="stable")
    through = _split(list(zip(reads[:, :-1].ravel()[order].tolist(),
                              slots.ravel()[order].tolist())), mid, N)
    order = np.argsort(pos[:, -1], kind="stable")
    ending = _split(reads[order, -1].tolist(), pos[:, -1], N)
    # The colour cut's tables: drop[i] lists the earlier terms of the
    # progressions ending at i, in the same order; ahead[i] counts those
    # through i that go on past it; most[i] is the largest number of
    # progressions through any of positions i.. (1 past the end and where
    # there are none, which only weakens the cut); idle[i] is what an unused
    # colour needs there, and no colour needs more.
    drop = _split(pos[order, :-1].ravel().tolist(), np.repeat(pos[order, -1], k - 1), N)
    deg = np.bincount(pos.ravel(), minlength=N + 1)
    ahead = (deg - np.bincount(pos[:, -1], minlength=N + 1)).tolist()
    most = np.maximum(np.maximum.accumulate(deg[::-1])[::-1], 1).tolist()
    per_colour = comb(n - 1, k - 1)
    idle = [-(-per_colour // m) for m in most]
    state = [0] * (N + h * (k - 2))
    # The progressions not started before position i form the empty class.
    # Its min term is min(unstarted[i], total - count), computed rather than
    # kept; where the second is the smaller, no cut can happen anyway, so
    # the cut test adds unstarted[i].
    unstarted = [0] * (N + 1)
    for i in range(N - 1, -1, -1):
        unstarted[i] = unstarted[i + 1] + starts[i]

    # Prefix classes, numbered as their masks are first reached: class P has
    # colour mask masks[P] and gap[P] = cnt[P] - sup[P], its live unfinalized
    # progressions less the uncovered k-sets containing it; child[P][c] is
    # the class of masks[P] plus colour c, -1 if masks[P] has c, None until
    # first asked for. If a k-set has at most h subsets (`eager`), its first
    # cover makes a class of each, kept in subsets[R], at no more cost than a
    # pass over the progressions; so a class made later has no covered
    # superset. Otherwise a cover scans the classes made so far, and a new
    # class counts its covered supersets. Neither costs 2^n, nor 2^k for large k.
    eager = 1 << k <= h
    index: dict[int, int] = {}
    masks: list[int] = []
    gap: list[int] = []
    child: list[Optional[list[Optional[int]]]] = []
    subsets: list[Optional[list[int]]] = []
    members: list[Optional[list[int]]] = []  # the colours of each k-set class
    small: list[int] = []  # the nonempty classes with fewer than k colours
    covered: set[int] = set()  # classes of the covered k-sets

    def class_of(mask: int) -> int:
        P = index.get(mask)
        if P is not None:
            return P
        size = mask.bit_count()
        P = index[mask] = len(masks)
        masks.append(mask)
        s = full[size]
        if 0 < size < k:
            small.append(P)
            if not eager:
                s -= sum(masks[R] & mask == mask for R in covered)
        gap.append(-s)
        child.append([None] * (n + 1) if size < k else None)
        subsets.append(None)
        members.append([c for c in range(1, n + 1) if mask >> (c - 1) & 1]
                       if size == k else None)
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

    empty = class_of(0)
    bound = 0  # sum over the nonempty classes P of min(cnt[P], sup[P])
    # slack[c] = U_c - A_c: the uncovered k-sets containing colour c, less the
    # unfinalized progressions through each position of colour c
    slack = [per_colour] * (n + 1)
    colors = [0] * N
    nodes = 0

    def rec(i: int, count: int, used_max: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes, bound  # at i = N, bound and unstarted[N] are 0: no i == N test
        if count == total:
            return tuple(colors[:i]) + (1,) * (N - i)
        if count + bound + unstarted[i] < total:
            return None
        top = min(used_max + 1, n)
        s, need, entry = starts[i], total - unstarted[i + 1], bound
        # Scalar on purpose: a node touches only a few progressions, so a
        # numpy call per node would cost more than these loops, and the
        # child lookups are inlined because a call per progression costs
        # about a tenth of the search. Each change to cnt or sup moves bound
        # by the change in its min term, read from the old gap, so bound is a
        # function of the gaps alone and the order of the changes is free.
        # Leave, whatever the colour: each live progression through i leaves
        # its class P, once for all colours and undone once after them.
        moves = []  # (P, slot written) of each live one with a later term here
        for a, b in through[i]:
            P = state[a]
            if P < 0:
                state[b] = -1
                continue
            moves.append((P, b))
            g = gap[P]
            gap[P] = g - 1
            if g <= 0:
                bound -= 1
        ends = []  # P of each live one ending here
        for a in ending[i]:
            P = state[a]
            if P >= 0:
                ends.append(P)
                g = gap[P]
                gap[P] = g - 1
                if g <= 0:
                    bound -= 1
        # progressions ending here are finalized whatever the colour
        for p in drop[i]:
            slack[colors[p]] += 1
        saved, fwd, j = bound, ahead[i], i + 1
        m, rest, room = most[j], idle[j], N - j
        tested = n * rest > room  # else no child can be cut
        for c in range(1, top + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"node budget {budget} exhausted at interval length {N}",
                    nodes_explored=nodes)
            colors[i] = c
            fresh = []  # the distinct uncovered k-sets P + {c} reached here
            for P in ends:
                R = child[P][c]
                if R is None:
                    R = nxt(P, c)
                if R >= 0 and R not in covered and R not in fresh:
                    fresh.append(R)
            reached = count + len(fresh)
            # the arrivals below raise bound by one each at most: when even
            # that falls short, the child is cut without making them
            if reached + saved + s + len(moves) < need:
                continue
            # colour c takes the progressions through i that go on past it,
            # and each cover lowers U of its colours; the colours above
            # `used` are unused, each needing `rest` of the `room` positions
            slack[c] -= fwd
            for R in fresh:
                for b in members[R]:
                    slack[b] -= 1
            used = c if c > used_max else used_max
            demand = (n - used) * rest
            if tested:
                for x in slack[1:used + 1]:
                    if x > 0:
                        demand += -(-x // m)
            if demand <= room:
                # arrive: the starts join {c} as one block, and each moving
                # one joins P + {c}, or is dead if P has c
                if s:
                    single = child[empty][c]
                    if single is None:
                        single = nxt(empty, c)
                    state[i] = single
                    g = gap[single]
                    gap[single] = g + s
                    if g < 0:
                        bound += min(s, -g)
                for P, b in moves:
                    Q = child[P][c]
                    if Q is None:
                        Q = nxt(P, c)
                    state[b] = Q
                    if Q >= 0:
                        g = gap[Q]
                        gap[Q] = g + 1
                        if g < 0:
                            bound += 1
                # covers only lower bound, so when this falls short the child
                # would be cut at entry: skip its covers and the call
                if reached + bound >= need:
                    for R in fresh:
                        covered.add(R)
                        # each class inside R loses R from its uncovered supersets
                        for S in subsets[R] or subsets_of(R):
                            g = gap[S]
                            gap[S] = g + 1
                            if g >= 0:
                                bound -= 1
                    found = rec(j, reached, used)
                    if found is not None:
                        return found
                    for R in fresh:
                        covered.discard(R)
                        for S in subsets[R] or subsets_of(R):
                            gap[S] -= 1
                for P, b in moves:
                    Q = state[b]
                    if Q >= 0:
                        gap[Q] -= 1
                if s:
                    gap[single] -= s
                bound = saved
            slack[c] += fwd
            for R in fresh:
                for b in members[R]:
                    slack[b] += 1
        for P, _ in moves:
            gap[P] += 1
        for P in ends:
            gap[P] += 1
        for p in drop[i]:
            slack[colors[p]] -= 1
        bound = entry
        colors[i] = 0
        return None

    if n * idle[0] > N:  # the colour cut at the root, where every slack is C(n-1, k-1)
        return None, 0
    found = rec(0, 0, 0)
    return found, nodes


def _certified(found: tuple[int, ...], n: int, k: int) -> Coloring:
    """The search's colouring, re-run through verify_cover."""
    witness = Coloring(found, n)
    if not verify_cover(witness, n, k).complete:
        raise AssertionError(f"internal error: search produced an invalid witness "
                             f"for n={n} k={k} N={len(found)}")
    return witness


def exists_cover(n: int, k: int, N: int,
                 config: Optional[SearchConfig] = None) -> Optional[Coloring]:
    """Some n-colouring of [N] covering every k-subset, or None if none exists.

    None means the instance is refuted (exhaustively, within the node budget);
    running out of budget raises BudgetExceededError instead, so the two
    outcomes are never conflated. A returned colouring is re-run through
    verify_cover.
    """
    _check_family_size(n, k)
    _check_interval(N, k)
    config = config or SearchConfig()
    found, _ = _search(n, k, N, config.node_budget)
    return _certified(found, n, k) if found is not None else None


def ac_exact(n: int, k: int, config: Optional[SearchConfig] = None,
             trace: Optional[list[dict]] = None) -> ExactResult:
    """Smallest N admitting a covering n-colouring, with a certified witness.

    Scans N upward from lower_bound_N(n, k); every returned witness is re-run
    through verify_cover. The node budget is shared across the whole scan, and
    a budget failure reports the largest N that was fully refuted. Given a
    list `trace`, appends {N, outcome, nodes, seconds} for each N decided,
    outcome "refuted" or "found", and on a budget failure one "undecided"
    record for the N it was deciding.
    """
    _check_family_size(n, k)
    config = config or SearchConfig()
    N = lower_bound_N(n, k)
    budget_left = config.node_budget
    total_nodes = 0

    def log(outcome: str, nodes: int, start: float) -> None:
        if trace is not None:
            trace.append({"N": N, "outcome": outcome, "nodes": nodes,
                          "seconds": round(time.perf_counter() - start, 6)})

    while True:
        if config.max_N is not None and N > config.max_N:
            raise BudgetExceededError(
                f"no cover found up to max_N = {config.max_N}",
                nodes_explored=total_nodes, refuted_up_to=N - 1)
        start = time.perf_counter()
        try:
            found, nodes = _search(n, k, N, budget_left)
        except BudgetExceededError as exc:
            log("undecided", exc.nodes_explored or 0, start)
            raise BudgetExceededError(
                str(exc) if exc.nodes_explored is None else  # the depth limit, not the budget
                f"node budget {config.node_budget} exhausted while deciding N = {N}",
                nodes_explored=total_nodes + (exc.nodes_explored or 0),
                refuted_up_to=N - 1) from None
        log("refuted" if found is None else "found", nodes, start)
        total_nodes += nodes
        budget_left -= nodes
        if found is not None:
            return ExactResult(n=n, k=k, value=N, witness=_certified(found, n, k),
                               nodes_explored=total_nodes, refuted_up_to=N - 1)
        N += 1
