"""Constructive labelings, one per supported family, over the canonical
numberings from :mod:`nplabel.families`.

Every function here returns a bijection onto {1..n} that passes
:func:`nplabel.graph.verify` on the matching canonical graph; that master
property is what the test suite hammers on.
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Tuple

from .errors import (
    InvalidSpec,
    PreconditionViolated,
    UnsupportedParameters,
    UnsupportedStructure,
)
from .graph import (Graph, Labeling, bfs_dist, check_vertex, contract, is_tree,
                    verify, with_pendant)
from .families import (
    FamilySpec,
    snake_base_vertex,
    snake_vertex_count,
)
from .numtheory import bertrand_prime, coprime_matching

INTERIOR_MIN = "interior-min"
HEAD_MIN = "head-min"


def label_path(n: int) -> List[int]:
    """Path labeling: odd position i gets floor(n/2) + (i+1)/2, even gets i/2."""
    if n < 1:
        raise InvalidSpec("path labeling requires n >= 1, got %d" % n)
    return shifted_path_labels(INTERIOR_MIN, 0, n)


def shifted_path_labels(variant: str, offset: int, length: int) -> List[int]:
    """Shifted path labels filling {offset+1 .. offset+length}.

    ``interior-min``: odd i -> offset + floor(m/2) + (i+1)/2, even i ->
    offset + i/2; the smallest value lands at position 2.
    ``head-min``: odd i -> offset + (i+1)/2, even i -> offset + ceil(m/2) +
    i/2; the smallest value lands at position 1.  (The even branch uses
    ceil(m/2), not floor: with floor and odd m two positions collide.)

    Either way, any two positions i-1, i+1 receive consecutive values.
    """
    if offset < 0 or length < 1:
        raise InvalidSpec("need offset >= 0 and length >= 1")
    m = length
    if variant == INTERIOR_MIN:
        return [
            offset + m // 2 + (i + 1) // 2 if i % 2 else offset + i // 2
            for i in range(1, m + 1)
        ]
    if variant == HEAD_MIN:
        return [
            offset + (i + 1) // 2 if i % 2 else offset + (m + 1) // 2 + i // 2
            for i in range(1, m + 1)
        ]
    raise InvalidSpec("unknown shift variant %r" % variant)


def label_gear(n: int) -> List[int]:
    """Gear labeling: identity, except for n = 1 (mod 3) the labels of the
    last two odd rim vertices 2n-1 and 2n+1 are swapped."""
    if n < 3:
        raise InvalidSpec("gear requires n >= 3, got %d" % n)
    labels = list(range(1, 2 * n + 2))
    if n % 3 == 1:
        labels[2 * n - 2] = 2 * n + 1  # vertex 2n-1
        labels[2 * n] = 2 * n - 1  # vertex 2n+1
    return labels


def snake_supported(k: int, n: int) -> bool:
    """True iff label_snake has a constructive formula for (k, n)."""
    if k < 3 or n < 2:
        return False
    if k in (3, 4, 5):
        return True
    return _polygonal_case(k, n)


def _is_pow2(x: int) -> bool:
    return x >= 2 and (x & (x - 1)) == 0


def _polygonal_case(k: int, n: int) -> bool:
    # the six supported (k, n) families for k >= 6
    if n < 3:
        return False
    if k % 4 == 1 and _is_pow2(n - 1):
        return True
    if k % 4 == 0 and n >= 4 and _is_pow2(n):
        return True
    if k % 4 == 0 and _is_pow2(n - 1):
        return True
    if k - 2 >= 4 and _is_pow2(k - 2) and n % 4 == 3:
        return True
    if k % 2 == 0 and n == 3:
        return True
    if k - 3 >= 4 and _is_pow2(k - 3) and n % 2 == 0:
        return True
    return False


def label_snake(k: int, n: int) -> List[int]:
    """k-polygonal snake labeling on the trace numbering.

    k=3: identity.  k=4: the two interior cell vertices swap labels.
    k=5: the 4i pattern with the multiple-of-3 reassignment.  k>=6: the
    path labeling applied along the trace, valid only for the supported
    (k, n) cases; anything else raises UnsupportedParameters.
    """
    if k < 3:
        raise InvalidSpec("snake requires k >= 3, got k=%d" % k)
    if n < 2:
        raise InvalidSpec("snake requires n >= 2, got n=%d" % n)
    m = snake_vertex_count(k, n)
    if k == 3:
        return list(range(1, m + 1))
    labels = [0] * m
    if k == 4:
        for j in range(1, n + 1):
            labels[snake_base_vertex(4, j) - 1] = 3 * j - 2
        for i in range(1, n):
            labels[3 * i - 2] = 3 * i  # trace vertex 3i-1 (cell vertex v_i)
            labels[3 * i - 1] = 3 * i - 1  # trace vertex 3i (cell vertex w_i)
        return labels
    if k == 5:
        for i in range(1, n + 1):  # u_i, trace id 4i-3
            labels[4 * i - 4] = 4 * i - 1 if i % 3 == 0 and i < n else 4 * i - 3
        for i in range(1, n):
            v_label = 4 * i - 3 if i % 3 == 0 else 4 * i - 1
            labels[4 * i - 3] = v_label  # trace 4i-2 (v_i)
            labels[4 * i - 2] = 4 * i  # trace 4i-1 (w_i)
            labels[4 * i - 1] = 4 * i - 2  # trace 4i (x_i)
        return labels
    if not _polygonal_case(k, n):
        raise UnsupportedParameters(
            "no constructive labeling for snake k=%d, n=%d; try the searcher" % (k, n)
        )
    return label_path(m)


def contract_one_max(
    g: Graph, f: Labeling, u1: int, u2: int
) -> Tuple[Graph, List[int]]:
    """Contract the label-1 vertex with the label-n vertex, keeping all other
    labels; the merged vertex is labeled 1.  Preconditions enforced."""
    check_vertex(g, u1)
    check_vertex(g, u2)
    if not verify(g, f).ok:
        raise PreconditionViolated("input labeling is not neighborhood-prime")
    if f[u1 - 1] != 1:
        raise PreconditionViolated("f(u1) must be 1, got %d" % f[u1 - 1])
    if f[u2 - 1] != g.n:
        raise PreconditionViolated("f(u2) must be n=%d, got %d" % (g.n, f[u2 - 1]))
    if u2 in g.adj[u1]:
        raise PreconditionViolated("u1 and u2 must not be adjacent")
    if g.degree(u1) <= 1 and g.degree(u2) <= 1:
        raise PreconditionViolated("u1 or u2 must have degree > 1")
    labels = list(f)  # contract's id shift: min(u1, u2) is the merged vertex
    labels[min(u1, u2) - 1] = 1
    del labels[max(u1, u2) - 1]
    return contract(g, u1, u2), labels


def label_star_gon(k: int, n: int) -> List[int]:
    """Star (k,n)-gon labeling: label the snake S_{k,n+1} and contract the
    two end base vertices."""
    if k not in (3, 4, 5):
        raise UnsupportedParameters(
            "star-gon labeling supports k in {3,4,5}, got k=%d" % k
        )
    if n < 3:
        raise InvalidSpec("star-gon requires n >= 3, got n=%d" % n)
    from .families import snake_graph

    g = snake_graph(k, n + 1)
    f = label_snake(k, n + 1)
    _, labels = contract_one_max(g, f, 1, g.n)
    return labels


def label_book5(n: int) -> List[int]:
    """Pentagonal book labeling."""
    if n < 1:
        raise InvalidSpec("book requires n >= 1, got %d" % n)
    labels = [0] * (3 * n + 2)
    labels[:5] = [3, 1, 2, 4, 5]  # u1, u2, v1, w1, x1
    for i in range(2, n + 1):
        base = 3 * (i - 1)  # vertex ids base+3, base+4, base+5 hold v_i, w_i, x_i
        labels[base + 2] = 3 * i
        if i % 2 == 1:
            labels[base + 3] = 3 * i + 1
            labels[base + 4] = 3 * i + 2
        else:
            labels[base + 3] = 3 * i + 2
            labels[base + 4] = 3 * i + 1
    return labels


def label_mobius(n: int) -> List[int]:
    """Moebius ladder labeling f(u_i) = 2i-1, f(v_i) = 2i."""
    if n < 3:
        raise InvalidSpec("mobius requires n >= 3, got %d" % n)
    return [2 * i - 1 for i in range(1, n + 1)] + [2 * i for i in range(1, n + 1)]


def extend_pendant(g: Graph, f: Labeling, v: int) -> Tuple[Graph, List[int]]:
    """Attach a new leaf n+1 to v (degree > 1 required) labeled n+1."""
    check_vertex(g, v)
    if g.degree(v) <= 1:
        raise PreconditionViolated(
            "pendant attachment point must have degree > 1, vertex %d has %d"
            % (v, g.degree(v))
        )
    if not verify(g, f).ok:
        raise PreconditionViolated("input labeling is not neighborhood-prime")
    return with_pendant(g, v), list(f) + [g.n + 1]


def label_caterpillar(pendant_counts: Sequence[int]) -> List[int]:
    """Caterpillar labeling: path labels on the spine, then pendant labels
    s+1, s+2, ... in ``caterpillar_graph``'s pendant order.  Every pendant
    hangs on an interior spine vertex, so this is the ``extend_pendant``
    chain from the labeled path."""
    counts = list(pendant_counts)
    if any(c < 0 for c in counts):
        raise InvalidSpec("pendant counts must be nonnegative")
    s = len(counts) + 2
    return label_path(s) + list(range(s + 1, s + sum(counts) + 1))


def label_spider(leg_lengths: Sequence[int]) -> List[int]:
    """Spider labeling: center gets 1, legs get head-min shifted path labels.

    If some leg length is odd, one odd leg is labeled first so the center
    sees the label 2 and an odd label.  If all lengths are even, the last
    leg's labels are reversed end-for-end instead.
    """
    lengths = list(leg_lengths)
    if len(lengths) < 3:
        raise InvalidSpec("spider requires >= 3 legs, got %d" % len(lengths))
    if any(l < 1 for l in lengths):
        raise InvalidSpec("spider legs must have length >= 1")
    starts = []
    nxt = 2
    for l in lengths:
        starts.append(nxt)
        nxt += l
    n = nxt - 1
    order = list(range(len(lengths)))
    all_even = all(l % 2 == 0 for l in lengths)
    if not all_even:
        first_odd = next(i for i, l in enumerate(lengths) if l % 2 == 1)
        order = [first_odd] + [i for i in order if i != first_odd]
    labels = [0] * n
    labels[0] = 1
    offset = 1
    for j in order:
        leg = shifted_path_labels(HEAD_MIN, offset, lengths[j])
        if all_even and j == order[-1]:
            leg.reverse()
        for pos, lab in enumerate(leg):
            labels[starts[j] + pos - 1] = lab
        offset += lengths[j]
    return labels


def label_banana(n: int, k: int) -> List[int]:
    """Banana tree labeling: root 1, root-adjacent leaves 2..n+1, star
    centers and remaining leaves filling the rest star by star."""
    if n < 3 or k < 4:
        raise UnsupportedParameters(
            "banana labeling requires n >= 3 and k >= 4, got n=%d k=%d" % (n, k)
        )
    labels = [0] * (n * k + 1)
    labels[0] = 1
    for i in range(1, n + 1):
        base = 2 + (i - 1) * k  # u_i id; w_i = base+1; leaves base+2..base+k-1
        labels[base - 1] = i + 1
        labels[base] = (i - 1) * (k - 1) + n + 2
        for t in range(k - 2):
            labels[base + 1 + t] = (i - 1) * (k - 1) + n + 3 + t
    return labels


def label_firecracker(n: int, k: int) -> List[int]:
    """Firecracker labeling: path labels on the spine, a Bertrand prime on
    the last star center, a coprime matching on the first leaves, and
    pendant labels on the remaining leaves."""
    if n < 1 or k < 3:
        raise UnsupportedParameters(
            "firecracker labeling requires n >= 1 and k >= 3, got n=%d k=%d" % (n, k)
        )
    labels = [0] * (n * k)
    lp = label_path(n)
    labels[:n] = lp
    p = bertrand_prime(n)
    labels[2 * n - 1] = p  # v_n
    rest = [x for x in range(n + 1, 2 * n + 1) if x != p]
    for i, lab in enumerate(rest):
        labels[n + i] = lab  # v_1..v_{n-1} ascending
    matching = coprime_matching(n)
    for i in range(1, n + 1):
        labels[2 * n + i - 1] = matching[lp[i - 1]]  # w_i
    for vid in range(3 * n + 1, n * k + 1):
        labels[vid - 1] = vid  # extra star leaves, k > 3
    return labels


def _leaf_path(t: Graph, core: List[int], visited: set) -> List[int]:
    """Extend the path ``core`` to a leaf at both ends: mark it visited,
    then walk from ``core[0]``, then from ``core[-1]``, each step taking
    the lowest-numbered unvisited neighbour (the first in the sorted
    ``t.adj``) and marking it.  In a tree the first walk never reaches
    the second's start, even when ``core`` is a single vertex."""
    visited.update(core)
    sides = []
    for end in (core[0], core[-1]):
        side = [end]
        for v in side:
            for u in t.adj[v]:
                if u not in visited:
                    visited.add(u)
                    side.append(u)
                    break
        sides.append(side[1:])
    return sides[0][::-1] + core + sides[1]


def _initial_leaf_path(t: Graph) -> List[int]:
    """Pick the first leaf-to-leaf path: through the lowest non-leaf when the
    tree has no degree-2 vertices, else through all of them (or fail)."""
    adj = t.adj
    deg2 = [v for v in range(1, t.n + 1) if len(adj[v]) == 2]
    if not deg2:
        v1 = min(v for v in range(1, t.n + 1) if len(adj[v]) >= 2)
        return _leaf_path(t, [v1], set())
    dist = bfs_dist(t, deg2[0])
    d1 = min(deg2, key=lambda v: (-dist[v], v))
    dist1 = bfs_dist(t, d1)
    d2 = min(deg2, key=lambda v: (-dist1[v], v))
    core = [d2]  # walk back to d1: one neighbour per step is nearer to it
    while core[-1] != d1:
        core.append(next(u for u in adj[core[-1]] if dist1[u] < dist1[core[-1]]))
    core.reverse()
    if not set(deg2).issubset(core):
        raise UnsupportedStructure(
            "degree-2 vertices do not fit on a single leaf-to-leaf path"
        )
    return _leaf_path(t, core, set())


def label_bivalent_free(t: Graph) -> List[int]:
    """Label a tree whose degree-2 vertices (if any) all sit on one
    leaf-to-leaf path: cover the non-leaves with edge-disjoint leaf-to-leaf
    paths, path labels on the first, shifted path labels on the rest, and
    leftover labels on the off-path leaves.

    Every non-leaf ends up interior to some covered path, so its
    neighborhood contains two consecutive labels.

    In a tree each queued anchor borders exactly one covered vertex, and
    each later path stays in its own anchor's uncovered component, so an
    anchor is queued once and is still uncovered when it is taken.
    """
    if not is_tree(t):
        raise UnsupportedStructure("input is not a tree")
    if t.n <= 2:
        return list(range(1, t.n + 1))
    adj = t.adj
    labels = [0] * t.n
    p1 = _initial_leaf_path(t)
    for pos, v in enumerate(label_path(len(p1))):
        labels[p1[pos] - 1] = v
    visited = set(p1)
    total = len(p1)
    queue = deque()

    def enqueue_neighbors(path):
        for x in path[1:-1]:
            for u in adj[x]:
                if u not in visited and len(adj[u]) > 1:
                    queue.append(u)

    enqueue_neighbors(p1)
    while queue:
        v = queue.popleft()
        if sum(u not in visited for u in adj[v]) < 2:
            raise UnsupportedStructure(
                "vertex %d cannot anchor a leaf-to-leaf path" % v
            )
        path = _leaf_path(t, [v], visited)
        for pos, lab in enumerate(shifted_path_labels(INTERIOR_MIN, total, len(path))):
            labels[path[pos] - 1] = lab
        total += len(path)
        enqueue_neighbors(path)
    leftover = [v for v in range(1, t.n + 1) if v not in visited]
    for v in leftover:
        if len(adj[v]) > 1:
            raise UnsupportedStructure("non-leaf vertex %d left uncovered" % v)
    for lab, v in enumerate(leftover, total + 1):
        labels[v - 1] = lab
    return labels


def label_full_binary(t: Graph) -> List[int]:
    """Full binary tree in level-order numbering: the identity labeling.

    Trees with a single-child node (complete but not full) and trees whose
    sibling ids are not consecutive are delegated to label_bivalent_free.

    With n - 1 edges, the parent scan proves the graph is a tree: every
    v >= 2 has exactly one smaller neighbour, so each vertex reaches 1.
    Only when the scan fails is ``is_tree`` run, to tell a non-tree from a
    tree that is not level-order numbered.
    """
    if len(t.edges) != t.n - 1:
        raise UnsupportedStructure("input is not a tree")
    if t.n == 1:
        return [1]
    children = [[] for _ in range(t.n + 1)]
    for v in range(2, t.n + 1):
        parents = [u for u in t.adj[v] if u < v]
        if len(parents) != 1:
            if not is_tree(t):
                raise UnsupportedStructure("input is not a tree")
            raise UnsupportedStructure(
                "vertex %d has %d smaller neighbors; not level-order numbered"
                % (v, len(parents))
            )
        children[parents[0]].append(v)
    if any(len(c) > 2 for c in children):
        raise UnsupportedStructure("a vertex has more than 2 children")
    if any(len(c) == 1 for c in children) or any(
        len(c) == 2 and c[1] != c[0] + 1 for c in children
    ):
        return label_bivalent_free(t)
    return list(range(1, t.n + 1))


def label_book(k: int, n: int) -> List[int]:
    """k-polygonal book labeling: label_book5 for k = 5, else the identity.

    For k in {3, 4} the identity is valid: vertex 1 sees labels 2 and 3,
    vertex 2 sees label 1, and every page vertex borders vertex 1 (label 1)
    or both vertex 2 (label 2) and an odd-labelled page vertex.
    """
    if k == 5:
        return label_book5(n)
    if k not in (3, 4):
        raise InvalidSpec("book requires k in {3,4,5}, got k=%d" % k)
    if n < 1:
        raise InvalidSpec("book requires n >= 1, got n=%d" % n)
    return list(range(1, 3 + n * (k - 2)))


# Closed-form labeler per family kind.  An entry takes the spec's parsed
# arguments and the graph generate() built from them.  Entries look the
# labelers up at call time, so the benchmark tracer (perfbench/), which
# replaces module attributes, sees every labeler call.
_LABELERS = {
    "path": lambda args, g: label_path(*args),
    "gear": lambda args, g: label_gear(*args),
    "snake": lambda args, g: label_snake(*args),
    "stargon": lambda args, g: label_star_gon(*args),
    "book": lambda args, g: label_book(*args),
    "book5": lambda args, g: label_book5(*args),
    "mobius": lambda args, g: label_mobius(*args),
    "caterpillar": lambda args, g: label_caterpillar(*args),
    "spider": lambda args, g: label_spider(*args),
    "banana": lambda args, g: label_banana(*args),
    "firecracker": lambda args, g: label_firecracker(*args),
    "fullbinary": lambda args, g: label_full_binary(g),
    "completebinary": lambda args, g: label_full_binary(g),
    "kary": lambda args, g: label_bivalent_free(g),
    "cayley": lambda args, g: label_bivalent_free(g),
}


def label_family(spec: FamilySpec, g: Graph) -> List[int]:
    """Closed-form labeling of ``g``, the graph ``generate(spec)`` built.

    Families without a labeler (cycles, random trees) raise
    UnsupportedParameters, as do out-of-range parameters of the others.
    """
    if spec.kind not in _LABELERS:
        raise UnsupportedParameters(
            "no constructive labeler for family %r; use the 'search' command"
            % spec.kind
        )
    return _LABELERS[spec.kind](spec.args, g)
