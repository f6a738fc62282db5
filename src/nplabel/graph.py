"""Core graph/labeling types and the neighborhood-gcd verifier.

Vertices are 1-based everywhere.  A labeling is a sequence of length n
where position v-1 holds the label of vertex v; a valid labeling is a
bijection onto {1..n}.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, List, Sequence, Tuple

from .errors import LabelingInvalid, UsageError

Labeling = Sequence[int]


class Graph:
    """Immutable simple undirected graph on vertices 1..n.

    ``adj[v]`` is the sorted neighbor tuple of vertex v (index 0 unused).
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        """Validate and store each edge in one pass, keeping a plain tuple
        (u, v) with u < v as is; then sort each adjacency list once."""
        if n < 1:
            raise UsageError("vertex count must be positive, got %d" % n)
        normalized = set()
        adj = [[] for _ in range(n + 1)]
        for e in edges:
            u, v = e
            if v < u or type(e) is not tuple:
                e = (u, v) if u < v else (v, u)
            if e in normalized or not 1 <= e[0] < e[1] <= n:
                if u == v:
                    raise UsageError("self-loop at vertex %d" % u)
                if not (1 <= u <= n and 1 <= v <= n):
                    raise UsageError("edge (%d,%d) out of range 1..%d" % (u, v, n))
                raise UsageError("duplicate edge (%d,%d)" % e)
            normalized.add(e)
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        self.n = n
        self.edges = frozenset(normalized)
        self.adj = tuple(map(tuple, adj))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, len(self.edges))


@dataclass(frozen=True)
class Violation:
    vertex: int
    neighbor_labels: Tuple[int, ...]
    gcd_value: int


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: Tuple[Violation, ...]
    checked_count: int


def gcd_of(values) -> int:
    """Greatest common divisor of a nonempty collection of positive integers."""
    values = list(values)
    if not values:
        raise UsageError("gcd_of requires a nonempty list")
    if any(v < 1 for v in values):
        raise UsageError("gcd_of requires positive integers")
    return reduce(math.gcd, values)


def check_vertex(g: Graph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise UsageError("vertex %d out of range 1..%d" % (v, g.n))


def neighborhood(g: Graph, v: int):
    """Sorted open neighborhood of v."""
    check_vertex(g, v)
    return list(g.adj[v])


def check_bijection(g: Graph, labels: Labeling) -> None:
    if len(labels) != g.n:
        raise UsageError(
            "labeling length %d does not match vertex count %d" % (len(labels), g.n)
        )
    if sorted(labels) != list(range(1, g.n + 1)):
        raise LabelingInvalid("labels are not a bijection onto 1..%d" % g.n)


def verify(g: Graph, labels: Labeling) -> VerificationReport:
    """Audit the neighborhood-gcd condition at every vertex of degree >= 2.

    Reports all violations, not just the first.  Degree-0 and degree-1
    vertices are never checked.
    """
    check_bijection(g, labels)
    label = (0, *labels).__getitem__
    violations = []
    checked = 0
    for v, nbrs in enumerate(g.adj):
        if len(nbrs) < 2:
            continue
        checked += 1
        d = math.gcd(*map(label, nbrs))
        if d != 1:
            violations.append(Violation(v, tuple(sorted(map(label, nbrs))), d))
    return VerificationReport(
        ok=not violations, violations=tuple(violations), checked_count=checked
    )


def bfs_dist(g: Graph, src: int) -> List[int]:
    """Breadth-first distance from ``src`` to each vertex, -1 if unreached
    (and at the unused index 0)."""
    dist = [-1] * (g.n + 1)
    dist[src] = 0
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected(g: Graph) -> bool:
    return -1 not in bfs_dist(g, 1)[1:]


def is_tree(g: Graph) -> bool:
    """True iff g is connected with exactly n-1 edges."""
    return len(g.edges) == g.n - 1 and is_connected(g)


def contract(g: Graph, a: int, b: int) -> Graph:
    """Merge vertices a and b into one vertex whose neighborhood is the union.

    The merged vertex takes id min(a, b); ids above max(a, b) shift down by
    one so the result lives on 1..n-1.  Parallel edges collapse; a contracted
    edge ab would become a self-loop and is dropped.
    """
    if a == b:
        raise UsageError("cannot contract a vertex with itself")
    keep, remove = (a, b) if a < b else (b, a)

    def remap(v):
        if v == remove:
            return keep
        return v - 1 if v > remove else v

    edges = set()
    for u, v in g.edges:
        u, v = remap(u), remap(v)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return Graph(g.n - 1, edges)


def with_pendant(g: Graph, v: int) -> Graph:
    """New graph with an extra vertex n+1 attached to v by a pendant edge."""
    check_vertex(g, v)
    return Graph(g.n + 1, list(g.edges) + [(v, g.n + 1)])
