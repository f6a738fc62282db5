"""Core graph/labeling types and the neighborhood-gcd verifier.

Vertices are 1-based everywhere.  A labeling is a sequence of length n
where position v-1 holds the label of vertex v; a valid labeling is a
bijection onto {1..n}.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import LabelingInvalid, UsageError

Labeling = Sequence[int]


class Graph:
    """Immutable simple undirected graph on vertices 1..n.

    A Graph stores only ``n``, the edge count ``m`` and ``adj``, where
    ``adj[v]`` is the sorted neighbor tuple of vertex v (index 0 unused).
    ``edges`` is derived from ``adj`` in ascending order.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        """Validate each edge and append it to both adjacency lists in one
        pass, then sort each list and turn it into a tuple in place.

        The Graph keeps nothing of ``edges``, which may be a one-shot
        iterator: the duplicate check holds one int per edge,
        ``a * (n + 1) + b`` for the edge (a, b) with a < b, and every
        adjacency entry is the one int object of its vertex id.  The first
        faulty edge is reported: a self-loop, then a range error, then a
        duplicate."""
        if n < 1:
            raise UsageError("vertex count must be positive, got %d" % n)
        vertex = list(range(n + 1))
        adj = [[] for _ in vertex]
        seen = set()
        width = n + 1
        for u, v in edges:
            a, b = (u, v) if u < v else (v, u)
            key = a * width + b
            # an out-of-range edge may share a key with a valid one, so the
            # range test comes before the duplicate verdict
            if key in seen or not 1 <= a < b <= n:
                if u == v:
                    raise UsageError("self-loop at vertex %d" % u)
                if not (1 <= u <= n and 1 <= v <= n):
                    raise UsageError("edge (%d,%d) out of range 1..%d" % (u, v, n))
                raise UsageError("duplicate edge (%d,%d)" % (a, b))
            seen.add(key)
            adj[a].append(vertex[b])
            adj[b].append(vertex[a])
        for v, nbrs in enumerate(adj):
            nbrs.sort()
            adj[v] = tuple(nbrs)
        self.n = n
        self.m = len(seen)
        self.adj = tuple(adj)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Every edge (u, v) with u < v, in ascending order."""
        return tuple((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


class Violation(NamedTuple):
    vertex: int
    neighbor_labels: Tuple[int, ...]
    gcd_value: int


class VerificationReport(NamedTuple):
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
    check_vertex(g, src)
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
    return g.m == g.n - 1 and is_connected(g)


def contract(g: Graph, a: int, b: int) -> Graph:
    """Merge vertices a and b into one vertex whose neighborhood is the union.

    The merged vertex takes id min(a, b); ids above max(a, b) shift down by
    one so the result lives on 1..n-1.  Parallel edges collapse; a contracted
    edge ab would become a self-loop and is dropped.
    """
    check_vertex(g, a)
    check_vertex(g, b)
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
