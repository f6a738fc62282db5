"""Exact search for neighborhood-prime labelings plus a brute-force oracle.

The search is a pure-Python backtracking kernel over the graph's adjacency:
depth-first assignment of labels to vertices in a fixed order, pruning a
branch as soon as some vertex of degree >= 2 has its whole neighborhood
labeled with gcd >= 2.  To find one labeling, ``find_labeling`` restarts
the kernel on the Luby schedule, each restart breaking the vertex order's
ties differently, before one complete search.
"""

from __future__ import annotations

import random
from itertools import count, permutations
from math import gcd
from typing import List, NamedTuple, Optional, Tuple

from .errors import UsageError
from .graph import Graph, verify

DEFAULT_BUDGET = 10_000_000

ORDER_DEGREE = "degree"
ORDER_NATURAL = "natural"

FOUND = "found"
EXHAUSTED = "exhausted"
INCONCLUSIVE = "inconclusive"


def kernel_name() -> str:
    """Name of the search kernel, recorded with every benchmark result."""
    return "pure-python"


class SearchConfig(NamedTuple("_SearchConfig", [("node_budget", Optional[int]),
                                                ("order", str), ("find_all", bool)])):
    """Settings of one search, checked whenever one is built, by
    ``_make`` and ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, node_budget: Optional[int] = DEFAULT_BUDGET,
                order: str = ORDER_DEGREE, find_all: bool = False):
        if node_budget is not None and node_budget < 1:
            raise UsageError("node_budget must be >= 1 when present")
        if order not in (ORDER_DEGREE, ORDER_NATURAL):
            raise UsageError("order must be %r or %r" % (ORDER_DEGREE, ORDER_NATURAL))
        return super().__new__(cls, node_budget, order, find_all)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SearchOutcome(NamedTuple):
    status: str  # found | exhausted | inconclusive
    labeling: Optional[Tuple[int, ...]]
    nodes_explored: int
    all_solutions: Optional[Tuple[Tuple[int, ...], ...]] = None


RESTART_UNIT = 100  # nodes in one unit of the Luby schedule


def _luby(i: int) -> int:
    """Term i >= 1 of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ...: the
    universal restart schedule of Luby, Sinclair & Zuckerman (1993)."""
    k = i.bit_length()
    while i != (1 << k) - 1:
        i -= (1 << (k - 1)) - 1
        k = i.bit_length()
    return 1 << (k - 1)


def find_labeling(g: Graph, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Exact search; sound and complete within the node budget.

    Vertices are assigned in ``cfg.order`` (degree descending, or natural)
    and labels tried in ascending order.  One node is counted per unused
    label tried; a search stops as Inconclusive on the first node past its
    budget (None means unlimited).  A branch is pruned as soon as some
    vertex of degree >= 2 has its whole neighborhood labeled with gcd >= 2.
    With ``find_all`` one depth-first search returns every solution; a
    budget hit yields Inconclusive with the partial list.

    To find one labeling, the search first restarts: restart i is capped
    at ``_luby(i) * max(RESTART_UNIT, n)`` nodes (a labeling takes at least
    n) and breaks the vertex order's ties by a permutation, the identity
    first, then shuffles drawn from ``random.Random(repr(g.edges))``, a
    seed that does not depend on ``PYTHONHASHSEED``.  The restarts stop
    once their caps would pass 1/64 of ``cfg.node_budget`` (of
    ``DEFAULT_BUDGET`` when unlimited); one complete search, ties broken by
    vertex id, gets the rest, so Exhausted is a refutation.  The first
    search to end Found or Exhausted settles the graph; ``nodes_explored``
    counts every search."""
    identity = list(range(1, g.n + 1))
    budget = cfg.node_budget
    if cfg.find_all:
        return _backtrack(g, _vertex_order(g, cfg.order, identity), budget, True)
    share = (DEFAULT_BUDGET if budget is None else budget) // 64
    unit = max(RESTART_UNIT, g.n)
    perm, rng = identity[:], None
    spent = capped = 0
    for i in count(1):
        cap = _luby(i) * unit
        capped += cap
        if capped > share:
            break
        if i > 1:
            rng = rng or random.Random(repr(g.edges))
            rng.shuffle(perm)
        outcome = _backtrack(g, _vertex_order(g, cfg.order, perm), cap, False)
        spent += outcome.nodes_explored
        if outcome.status != INCONCLUSIVE:
            return outcome._replace(nodes_explored=spent)
    rest = None if budget is None else budget - spent
    outcome = _backtrack(g, _vertex_order(g, cfg.order, identity), rest, False)
    return outcome._replace(nodes_explored=spent + outcome.nodes_explored)


def _vertex_order(g: Graph, order: str, perm: List[int]) -> List[int]:
    """The vertices by degree descending (or not at all, for natural
    order), ties broken by ``perm[v - 1]``."""
    if order == ORDER_DEGREE:
        adj = g.adj
        return sorted(range(1, g.n + 1), key=lambda v: (-len(adj[v]), perm[v - 1]))
    return sorted(range(1, g.n + 1), key=lambda v: perm[v - 1])


def _backtrack(g: Graph, order: List[int], budget: Optional[int],
               find_all: bool) -> SearchOutcome:
    """The depth-first kernel: vertices assigned in ``order``, labels tried
    in ascending order, stopping on the first node past ``budget``."""
    n, adj = g.n, g.adj
    deg = [len(a) for a in adj]
    nbr_gcd = [0] * (n + 1)  # running gcd of labeled neighbors (0 = none yet)
    rem = deg[:]  # unlabeled-neighbor count
    label_of = [0] * (n + 1)
    used = [False] * (n + 1)
    last = [0] * (n + 1)  # last label tried at each depth
    trail = []  # (vertex, previous gcd) undo records
    tstart = [0] * (n + 1)  # trail length before each depth's label

    nodes = 0
    solutions = []
    status = EXHAUSTED
    d = 0
    while True:
        if d == n:
            solutions.append(tuple(label_of[1:]))
            if not find_all:
                break
            d -= 1
        else:
            lab = last[d] + 1
            while lab <= n and used[lab]:
                lab += 1
            if lab <= n:
                nodes += 1
                if budget is not None and nodes > budget:
                    status = INCONCLUSIVE
                    break
                v = order[d]
                last[d] = lab
                used[lab] = True
                label_of[v] = lab
                tstart[d] = len(trail)
                for u in adj[v]:
                    if deg[u] > 1:
                        trail.append((u, nbr_gcd[u]))
                        nbr_gcd[u] = gcd(nbr_gcd[u], lab)
                        rem[u] -= 1
                        if rem[u] == 0 and nbr_gcd[u] != 1:
                            break
                else:
                    d += 1
                    last[d] = 0
                    continue
            elif d == 0:
                break
            else:
                d -= 1
        # take back the label at depth d: pruned, or backtracked over
        used[last[d]] = False
        start = tstart[d]
        while len(trail) > start:
            w, old = trail.pop()
            nbr_gcd[w] = old
            rem[w] += 1
    if solutions and status != INCONCLUSIVE:
        status = FOUND
    return SearchOutcome(
        status,
        solutions[0] if solutions else None,
        nodes,
        tuple(solutions) if find_all else None,
    )


def brute_force_oracle(g: Graph, find_all: bool = False) -> SearchOutcome:
    """Ground truth by checking all n! bijections with the verifier."""
    if g.n > 9:
        raise UsageError("brute_force_oracle limited to n <= 9, got %d" % g.n)
    solutions: List[Tuple[int, ...]] = []
    checked = 0
    for perm in permutations(range(1, g.n + 1)):
        checked += 1
        if verify(g, perm).ok:
            solutions.append(perm)
            if not find_all:
                break
    status = FOUND if solutions else EXHAUSTED
    labeling = solutions[0] if solutions else None
    all_sols = tuple(solutions) if find_all else None
    return SearchOutcome(status, labeling, checked, all_sols)
