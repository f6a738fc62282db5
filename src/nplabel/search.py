"""Exact search for neighborhood-prime labelings plus a brute-force oracle.

The search is a pure-Python backtracking kernel over the graph in CSR form:
depth-first assignment of labels to vertices in a fixed order, pruning a
branch as soon as some vertex of degree >= 2 has its whole neighborhood
labeled with gcd >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import gcd
from typing import List, Optional, Tuple

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


@dataclass(frozen=True)
class SearchConfig:
    node_budget: Optional[int] = DEFAULT_BUDGET
    order: str = ORDER_DEGREE
    find_all: bool = False

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 1:
            raise UsageError("node_budget must be >= 1 when present")
        if self.order not in (ORDER_DEGREE, ORDER_NATURAL):
            raise UsageError("order must be %r or %r" % (ORDER_DEGREE, ORDER_NATURAL))


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | exhausted | inconclusive
    labeling: Optional[Tuple[int, ...]]
    nodes_explored: int
    all_solutions: Optional[Tuple[Tuple[int, ...], ...]] = None


def _csr(g: Graph):
    indptr = [0]
    indices = []
    for v in range(1, g.n + 1):
        indices.extend(u - 1 for u in g.adj[v])
        indptr.append(len(indices))
    return indptr, indices


def _vertex_order(g: Graph, order: str):
    if order == ORDER_NATURAL:
        return list(range(g.n))
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v + 1]), v))


def find_labeling(g: Graph, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Depth-first exact search; sound and complete within the node budget.

    A branch is pruned as soon as some vertex of degree >= 2 has its whole
    neighborhood labeled with gcd >= 2.  With ``find_all`` the full solution
    list is returned; a budget hit during enumeration yields Inconclusive
    with the partial list.
    """
    indptr, indices = _csr(g)
    order = _vertex_order(g, cfg.order)
    budget = cfg.node_budget if cfg.node_budget is not None else 0
    status, nodes, solutions = run_search(
        g.n, indptr, indices, order, budget, cfg.find_all
    )
    labeling = tuple(solutions[0]) if solutions else None
    all_sols = tuple(tuple(s) for s in solutions) if cfg.find_all else None
    return SearchOutcome(status, labeling, nodes, all_sols)


def run_search(n, indptr, indices, order, budget, find_all):
    """Search for labelings of a graph in CSR form (0-based vertex ids).

    Returns ``(status, nodes, solutions)`` where each solution is a list
    with ``solution[v]`` = label of vertex v.  ``budget`` <= 0 means
    unlimited.  Deterministic: vertices tried in ``order``, labels ascending.
    """
    deg = [indptr[v + 1] - indptr[v] for v in range(n)]
    g = [0] * n  # running gcd of labeled neighbors (0 = none yet)
    rem = deg[:]  # unlabeled-neighbor count
    label_of = [0] * n
    used = [False] * (n + 1)
    last = [0] * (n + 1)  # last label tried at each depth
    trail = []  # (vertex, previous gcd) undo records
    tstart = [0] * (n + 1)

    nodes = 0
    solutions = []
    status = EXHAUSTED
    d = 0
    while d >= 0:
        if d == n:
            solutions.append(label_of[:])
            if not find_all:
                status = FOUND
                break
            d -= 1
            _undo(order[d], label_of, used, trail, tstart[d], g, rem)
            continue
        v = order[d]
        lab = last[d] + 1
        advanced = False
        while lab <= n:
            if not used[lab]:
                nodes += 1
                if budget > 0 and nodes > budget:
                    status = INCONCLUSIVE
                    d = -1
                    break
                tstart[d] = len(trail)
                if _apply(v, lab, indptr, indices, deg, g, rem, trail):
                    used[lab] = True
                    label_of[v] = lab
                    last[d] = lab
                    d += 1
                    last[d] = 0
                    advanced = True
                    break
            lab += 1
        if d == -1:
            break
        if not advanced:
            d -= 1
            if d >= 0:
                _undo(order[d], label_of, used, trail, tstart[d], g, rem)
    if solutions and status != INCONCLUSIVE:
        status = FOUND
    return status, nodes, solutions


def _apply(v, lab, indptr, indices, deg, g, rem, trail):
    """Propagate label ``lab`` at vertex v; False (with rollback) on prune."""
    start = len(trail)
    for i in range(indptr[v], indptr[v + 1]):
        u = indices[i]
        if deg[u] < 2:
            continue
        trail.append((u, g[u]))
        g[u] = gcd(g[u], lab)
        rem[u] -= 1
        if rem[u] == 0 and g[u] != 1:
            while len(trail) > start:
                w, old = trail.pop()
                g[w] = old
                rem[w] += 1
            return False
    return True


def _undo(v, label_of, used, trail, start, g, rem):
    used[label_of[v]] = False
    label_of[v] = 0
    while len(trail) > start:
        w, old = trail.pop()
        g[w] = old
        rem[w] += 1


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
