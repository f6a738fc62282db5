"""Exact search for neighborhood-prime labelings plus a brute-force oracle.

``find_labeling`` finds one labeling: a seeded min-conflicts local search,
then a pure-Python depth-first kernel that prunes a branch once a vertex of
degree >= 2 has its whole neighborhood labeled with gcd >= 2.
``all_labelings`` lists every labeling with that kernel alone.  Both stop
within a node budget, a positive int.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import gcd
from typing import List, NamedTuple, Optional, Tuple

from .errors import UsageError
from .graph import Graph, verify

DEFAULT_BUDGET = 10_000_000

FOUND = "found"
EXHAUSTED = "exhausted"
INCONCLUSIVE = "inconclusive"


def kernel_name() -> str:
    """Name of the search kernel, recorded with every benchmark result."""
    return "pure-python"


class SearchConfig(NamedTuple("_SearchConfig", [("node_budget", int)])):
    """Settings of one search, checked whenever one is built, by ``_make``
    and ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, node_budget: int = DEFAULT_BUDGET):
        if type(node_budget) is not int or node_budget < 1:  # bool is not int
            raise UsageError("node_budget must be an int >= 1, got %r" % (node_budget,))
        return super().__new__(cls, node_budget)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SearchOutcome(NamedTuple):
    status: str  # found | exhausted | inconclusive
    labeling: Optional[Tuple[int, ...]]
    nodes_explored: int
    all_solutions: Optional[Tuple[Tuple[int, ...], ...]] = None
    steps: int = 0  # local-search steps, counted apart from the nodes


def find_labeling(g: Graph, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """One labeling; sound and complete within the node budget.

    ``_local_search`` first takes up to 1/64 of the budget in steps,
    reported apart from the nodes.  If it finds no labeling, the
    depth-first kernel gets the rest of the budget: vertices assigned by
    degree descending, ties by vertex id, labels tried in ascending order,
    one node counted per unused label tried.  A branch is pruned as soon
    as some vertex of degree >= 2 has its whole neighborhood labeled with
    gcd >= 2, so Exhausted refutes; the first node past the budget stops
    the search as Inconclusive."""
    labeling, steps = _local_search(g, cfg.node_budget // 64)
    if labeling is not None:
        return SearchOutcome(FOUND, labeling, 0, steps=steps)
    rest = cfg.node_budget - steps
    return _backtrack(g, _vertex_order(g), rest, False)._replace(steps=steps)


def all_labelings(g: Graph, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Every labeling, in ``all_solutions``, from one run of the
    depth-first kernel that ``find_labeling`` ends with (no local search,
    so 0 steps).  Found if there is one, Exhausted if there is none; the
    first node past the budget stops it as Inconclusive with the partial
    list."""
    return _backtrack(g, _vertex_order(g), cfg.node_budget, True)


def _local_search(g: Graph, max_steps: int) -> Tuple[Optional[Tuple[int, ...]], int]:
    """(labeling or None, steps taken): min-conflicts repair (Minton et al.,
    1992) with random-walk noise (Selman et al., 1994) from a random
    bijection, seeded by ``repr(g.edges)``, which ``PYTHONHASHSEED`` does
    not change.  A vertex is violated when it has degree >= 2 and
    neighborhood gcd > 1.  Each step picks a violated v, a neighbor x of v
    and a random vertex y and swaps the labels of x and y.  The swap stays
    if the violated count among the neighbors of x and y does not rise, or
    else one time in 10."""
    n, adj = g.n, g.adj
    hood = [a if len(a) > 1 else () for a in adj]  # () is never violated
    rng = random.Random(repr(g.edges))
    pick = rng.random
    label = [0] + rng.sample(range(1, n + 1), n)

    def violating(vertices):  # a coprime first pair settles v, as in verify
        return [v for v in vertices if (a := hood[v])
                and gcd(label[a[0]], label[a[1]]) > 1 and gcd(*[label[u] for u in a]) > 1]

    violated = violating(range(1, n + 1))
    where = {v: i for i, v in enumerate(violated)}  # index in violated
    steps = 0
    while violated and steps < max_steps:
        steps += 1
        a = adj[violated[int(pick() * len(violated))]]
        x, y = a[int(pick() * len(a))], int(pick() * n) + 1
        near = set(adj[x]).union(adj[y])
        before = sum(map(where.__contains__, near))
        label[x], label[y] = label[y], label[x]
        now = set(violating(near))
        if len(now) > before and pick() >= 0.1:
            label[x], label[y] = label[y], label[x]
            continue
        for w in near:
            if w in now and w not in where:
                where[w] = len(violated)
                violated.append(w)
            elif w in where and w not in now:
                last, i = violated.pop(), where.pop(w)
                if last != w:
                    violated[i], where[last] = last, i
    return (None if violated else tuple(label[1:])), steps


def _vertex_order(g: Graph) -> List[int]:
    """The vertices by degree descending, ties by vertex id (a stable sort)."""
    adj = g.adj
    return sorted(range(1, g.n + 1), key=lambda v: -len(adj[v]))


def _backtrack(g: Graph, order: List[int], budget: int,
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
                if nodes > budget:
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
    return SearchOutcome(status, solutions[0] if solutions else None, nodes,
                         tuple(solutions) if find_all else None)


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
