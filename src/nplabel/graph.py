"""Core graph/labeling types and the neighborhood-gcd verifier.

Vertices are 1-based everywhere.  A labeling is a sequence of length n
where position v-1 holds the label of vertex v; a valid labeling is a
bijection onto {1..n}.
"""

from __future__ import annotations

from math import gcd
from bisect import bisect_left, insort
from collections import deque
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import LabelingInvalid, UsageError

Labeling = Sequence[int]


class Graph:
    """Immutable simple undirected graph on vertices 1..n.

    A Graph stores only ``n`` and ``adj``, where ``adj[v]`` is the sorted
    neighbor tuple of vertex v (index 0 unused).  The edge count ``m`` and
    ``edges``, in ascending order, are derived from ``adj``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        """Validate each edge and insert it into both adjacency lists, which
        stay sorted as they grow, then turn each list into a tuple in place.

        The Graph keeps nothing of ``edges``, which may be a one-shot
        iterator, and every adjacency entry is the one int object of its
        vertex id.  No set of edges is held: a neighbor above the end of a
        list is appended, any other is placed by bisection, which also
        finds a duplicate.  The build costs O(m log maxdeg) comparisons plus
        the list tails that out-of-order inserts move, which are few for
        the random trees and family edge streams built here.  Dense input
        out of order pays in moves, up to about n^3/2 pointers for K_n,
        shifted by memmove.  The first faulty edge is reported: a
        self-loop, then a range error, then a duplicate.  Each list is freed
        as its tuple replaces it: converting all at once would double the peak.

        This is the checked path, for parsed files, ``with_pendant`` and
        random trees; the other family generators and the tree scan build
        through ``_from_sorted_lists``."""
        if n < 1:
            raise UsageError("vertex count must be positive, got %d" % n)
        vertex = list(range(n + 1))
        adj = [[] for _ in vertex]
        for u, v in edges:
            a, b = (u, v) if u < v else (v, u)
            if not 1 <= a < b <= n:
                if u == v:
                    raise UsageError("self-loop at vertex %d" % u)
                raise UsageError("edge (%d,%d) out of range 1..%d" % (u, v, n))
            na, nb = adj[a], adj[b]
            if na and na[-1] >= b:
                i = bisect_left(na, b)
                if na[i] == b:
                    raise UsageError("duplicate edge (%d,%d)" % (a, b))
                na.insert(i, vertex[b])
            else:
                na.append(vertex[b])
            if nb and nb[-1] > a:
                insort(nb, vertex[a])
            else:
                nb.append(vertex[a])
        for v, nbrs in enumerate(adj):
            adj[v] = tuple(nbrs)
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _from_sorted_lists(cls, adj: List[Tuple[int, ...]]) -> "Graph":
        """Unchecked build from ``adj``, one sorted neighbour tuple per vertex
        (index 0 empty), kept as they are; n is len(adj) - 1.

        Nothing is validated: the caller guarantees a simple graph whose
        tuples are sorted, symmetric and free of loops and duplicates.  The
        tree generator (``treescan._tree_from_levels``) and every family
        generator but the random tree's call it; their tuples are so by
        construction, and ``tests/family_edges.py`` checks each family's
        against the checked build of its edges."""
        g = cls.__new__(cls)
        g.n = len(adj) - 1
        g.adj = tuple(adj)
        return g

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) >> 1  # each edge sits in two tuples

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


def check_vertex(g: Graph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise UsageError("vertex %d out of range 1..%d" % (v, g.n))


def check_bijection(g: Graph, labels: Labeling) -> None:
    if len(labels) != g.n:
        raise UsageError("labeling length %d does not match vertex count %d"
                         % (len(labels), g.n))
    seen = bytearray(g.n + 1)  # n labels mark all of 1..n iff they are a bijection
    try:  # a label below 1 marks none; a non-int or one above n stops the marking
        for x in labels if min(labels) > 0 else ():
            seen[x] = 1
    except (TypeError, IndexError):
        pass
    if seen.count(1) != g.n:
        raise LabelingInvalid("labels are not a bijection onto 1..%d" % g.n)


def verify(g: Graph, labels: Labeling) -> VerificationReport:
    """Audit the neighborhood-gcd condition at every vertex of degree >= 2.

    Reports all violations, not just the first.  Degree-0 and degree-1
    vertices are never checked.  The gcd of N(v) divides the gcd of any two
    labels in it, so a coprime pair settles v: each vertex costs one gcd of
    its first two neighbours' labels, and only when they share a factor is
    the whole neighborhood read, O(deg v).
    """
    check_bijection(g, labels)
    label = (0, *labels)
    violations = []
    checked = 0
    for v, nbrs in enumerate(g.adj):
        if len(nbrs) < 2:
            continue
        checked += 1
        if gcd(label[nbrs[0]], label[nbrs[1]]) == 1:
            continue
        hood = [label[u] for u in nbrs]
        d = gcd(*hood)
        if d != 1:
            hood.sort()
            violations.append(Violation(v, tuple(hood), d))
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


def with_pendant(g: Graph, v: int) -> Graph:
    """New graph with an extra vertex n+1 attached to v by a pendant edge."""
    check_vertex(g, v)
    return Graph(g.n + 1, list(g.edges) + [(v, g.n + 1)])
