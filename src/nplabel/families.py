"""Deterministic constructors for every graph family the labelers handle.

Each family has a documented canonical vertex numbering; the constructive
labelers in :mod:`nplabel.labelers` are formulas over these numberings.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import InvalidSpec, UsageError
from .graph import Graph


@dataclass(frozen=True)
class FamilySpec:
    """Tagged parameter record selecting one graph family.

    ``kind`` is the family name used by the CLI grammar; ``args`` are its
    parsed parameters, in the order of the kind's constructor below (e.g.
    ``(9, 3)`` for ``snake:9,3``, ``((2, 2, 4),)`` for ``spider:2,2,4``).
    Build a spec from text with :func:`parse_family`.
    """

    kind: str
    args: Tuple


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidSpec("path requires n >= 1, got %d" % n)
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidSpec("cycle requires n >= 3, got %d" % n)
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def gear_graph(n: int) -> Graph:
    """Gear on 2n+1 vertices: hub = 1, rim cycle 2..2n+1, spokes to the
    odd-indexed rim vertices 3, 5, ..., 2n+1."""
    if n < 3:
        raise InvalidSpec("gear requires n >= 3, got %d" % n)
    edges = [(i, i + 1) for i in range(2, 2 * n + 1)] + [(2, 2 * n + 1)]
    edges += [(1, 2 * i + 1) for i in range(1, n + 1)]
    return Graph(2 * n + 1, edges)


def snake_vertex_count(k: int, n: int) -> int:
    return (n - 1) * (k - 1) + 1


def snake_base_vertex(k: int, j: int) -> int:
    """Trace id of the j-th base-path vertex u_j (1-based)."""
    return (j - 1) * (k - 1) + 1


def snake_graph(k: int, n: int) -> Graph:
    """k-polygonal snake on the zigzag trace numbering: a path v_1..v_m with
    m = (n-1)(k-1)+1 plus base chords between consecutive base vertices."""
    if k < 3:
        raise InvalidSpec("snake requires k >= 3, got k=%d" % k)
    if n < 2:
        raise InvalidSpec("snake requires n >= 2, got n=%d" % n)
    return Graph(snake_vertex_count(k, n), _snake_edges(k, n))


def _snake_edges(k: int, n: int):
    base = [snake_base_vertex(k, j) for j in range(1, n + 1)]
    return [(i, i + 1) for i in range(1, base[-1])] + list(zip(base, base[1:]))


def star_gon_graph(k: int, n: int) -> Graph:
    """Star (k,n)-gon: the snake S_{k,n+1} with its last vertex m merged into
    vertex 1, built from the snake's edges; equal to contract(snake, 1, m)."""
    if k < 3:
        raise InvalidSpec("star-gon requires k >= 3, got k=%d" % k)
    if n < 3:
        raise InvalidSpec("star-gon requires n >= 3, got n=%d" % n)
    m = snake_vertex_count(k, n + 1)
    return Graph(m - 1, [(u, v) if v < m else (1, u) for u, v in _snake_edges(k, n + 1)])


def book_graph(k: int, n: int) -> Graph:
    """k-polygonal book: n k-gons sharing the edge u1-u2.  u1=1, u2=2, then
    the k-2 interior page vertices numbered page by page."""
    if k not in (3, 4, 5):
        raise InvalidSpec("book requires k in {3,4,5}, got k=%d" % k)
    if n < 1:
        raise InvalidSpec("book requires n >= 1, got n=%d" % n)
    edges = [(1, 2)]
    for i in range(n):
        page = [3 + i * (k - 2) + j for j in range(k - 2)]
        chain = [1] + page + [2]
        edges += list(zip(chain, chain[1:]))
    return Graph(2 + n * (k - 2), edges)


def mobius_graph(n: int) -> Graph:
    """Moebius ladder M_2n: u_1..u_n = 1..n, v_1..v_n = n+1..2n, ladder
    edges plus the two cross edges v_1 u_n and u_1 v_n."""
    if n < 3:
        raise InvalidSpec("mobius requires n >= 3, got %d" % n)
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(n + i, n + i + 1) for i in range(1, n)]
    edges += [(i, n + i) for i in range(1, n + 1)]
    edges += [(n, n + 1), (1, 2 * n)]
    return Graph(2 * n, edges)


def caterpillar_graph(pendant_counts: Sequence[int]) -> Graph:
    """Caterpillar with spine 1..s (s = len(counts)+2) and counts[j] pendants
    at interior spine vertex j+2, pendants numbered group by group."""
    counts = list(pendant_counts)
    if any(c < 0 for c in counts):
        raise InvalidSpec("pendant counts must be nonnegative")
    s = len(counts) + 2
    edges = [(i, i + 1) for i in range(1, s)]
    nxt = s + 1
    for j, c in enumerate(counts):
        spine_v = j + 2
        for _ in range(c):
            edges.append((spine_v, nxt))
            nxt += 1
    return Graph(nxt - 1, edges)


def spider_graph(leg_lengths: Sequence[int]) -> Graph:
    """Spider with center 1 and legs numbered consecutively outward."""
    lengths = list(leg_lengths)
    if len(lengths) < 3:
        raise InvalidSpec("spider requires >= 3 legs, got %d" % len(lengths))
    if any(l < 1 for l in lengths):
        raise InvalidSpec("spider legs must have length >= 1")
    edges = []
    nxt = 2
    for l in lengths:
        prev = 1
        for _ in range(l):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt - 1, edges)


def banana_graph(n: int, k: int) -> Graph:
    """(n,k)-banana tree: root 1; star i occupies ids 2+(i-1)k .. 1+ik as
    u_i (root-adjacent leaf), w_i (center), then the k-2 remaining leaves."""
    if n < 1:
        raise InvalidSpec("banana requires n >= 1, got n=%d" % n)
    if k < 3:
        raise InvalidSpec("banana requires k >= 3, got k=%d" % k)
    edges = []
    for i in range(n):
        u = 2 + i * k
        w = u + 1
        edges += [(1, u), (u, w)]
        edges += [(w, leaf) for leaf in range(w + 1, u + k)]
    return Graph(n * k + 1, edges)


def firecracker_graph(n: int, k: int) -> Graph:
    """(n,k)-firecracker: path u_1..u_n = 1..n, star centers v_i = n+i,
    first extra leaf w_i = 2n+i, remaining k-3 leaves numbered after 3n
    grouped by star."""
    if n < 1:
        raise InvalidSpec("firecracker requires n >= 1, got n=%d" % n)
    if k < 1:
        raise InvalidSpec("firecracker requires k >= 1, got k=%d" % k)
    edges = [(i, i + 1) for i in range(1, n)]
    if k >= 2:
        edges += [(i, n + i) for i in range(1, n + 1)]
    if k >= 3:
        edges += [(n + i, 2 * n + i) for i in range(1, n + 1)]
        nxt = 3 * n + 1
        for i in range(1, n + 1):
            for _ in range(k - 3):
                edges.append((n + i, nxt))
                nxt += 1
    return Graph(n * k, edges)


def _rooted_tree_from_pattern(child_counts):
    """Build a level-order numbered rooted tree; child_counts[i] children for
    node i+1, children ids assigned consecutively in processing order."""
    edges = []
    nxt = 2
    for v, c in enumerate(child_counts, start=1):
        if v > 1 and v >= nxt:
            raise InvalidSpec("shape pattern declares unreachable node %d" % v)
        for _ in range(c):
            if nxt > len(child_counts):
                raise InvalidSpec("shape pattern creates more nodes than bits")
            edges.append((v, nxt))
            nxt += 1
    if nxt != len(child_counts) + 1:
        raise InvalidSpec(
            "shape pattern inconsistent: %d nodes declared, %d reachable"
            % (len(child_counts), nxt - 1)
        )
    return Graph(len(child_counts), edges)


def _shape_bits(shape: Sequence[int]):
    bits = list(shape)
    if not bits or any(b not in (0, 1) for b in bits):
        raise InvalidSpec("shape must be a nonempty 0/1 sequence")
    return bits


def full_binary_graph(shape: Sequence[int]) -> Graph:
    """Full binary tree from level-order internal/leaf bits (1 = internal)."""
    return _rooted_tree_from_pattern([2 if b else 0 for b in _shape_bits(shape)])


def full_kary_graph(k: int, shape: Sequence[int]) -> Graph:
    """Full k-ary tree (every node has 0 or k children) from level-order bits."""
    if k < 2:
        raise InvalidSpec("k-ary tree requires k >= 2, got k=%d" % k)
    return _rooted_tree_from_pattern([k if b else 0 for b in _shape_bits(shape)])


def cayley_graph(k: int, shape: Sequence[int]) -> Graph:
    """k-Cayley tree (every non-leaf has degree exactly k) from level-order
    bits; the internal root gets k children, other internals k-1."""
    if k < 3:
        raise InvalidSpec("Cayley tree requires k >= 3, got k=%d" % k)
    bits = _shape_bits(shape)
    return _rooted_tree_from_pattern([(k if i == 0 else k - 1) if b else 0
                                      for i, b in enumerate(bits)])


def complete_binary_graph(n_nodes: int) -> Graph:
    """Complete binary tree on ids 1..n with children 2v and 2v+1."""
    if n_nodes < 1:
        raise InvalidSpec("complete binary tree requires >= 1 node")
    return _rooted_tree_from_pattern(
        [max(0, min(2, n_nodes + 1 - 2 * v)) for v in range(1, n_nodes + 1)])


def random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise UsageError("random_tree requires n >= 1, got %d" % n)
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(1, 2)])
    rng = random.Random(seed)
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    return tree_from_pruefer(n, seq)


def tree_from_pruefer(n: int, seq: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence of length n-2 into a labeled tree."""
    if len(seq) != n - 2:
        raise UsageError("Pruefer sequence must have length n-2")
    if any(not 1 <= x <= n for x in seq):
        raise UsageError("Pruefer sequence entries must lie in 1..%d" % n)
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return Graph(n, edges)


# Each kind's parameter grammar and generator.  Grammar: "i" one integer,
# "*" any number of integers (one tuple), "b" a 0/1 shape (a tuple of bits).
# parse_family checks the grammar, and generate calls fn(*spec.args).
_FAMILIES = {
    "path": ("i", path_graph),
    "cycle": ("i", cycle_graph),
    "gear": ("i", gear_graph),
    "snake": ("ii", snake_graph),
    "stargon": ("ii", star_gon_graph),
    "book": ("ii", book_graph),
    "book5": ("i", lambda n: book_graph(5, n)),
    "mobius": ("i", mobius_graph),
    "caterpillar": ("*", caterpillar_graph),
    "spider": ("*", spider_graph),
    "banana": ("ii", banana_graph),
    "firecracker": ("ii", firecracker_graph),
    "fullbinary": ("b", full_binary_graph),
    "kary": ("ib", full_kary_graph),
    "cayley": ("ib", cayley_graph),
    "completebinary": ("i", complete_binary_graph),
    "randomtree": ("ii", random_tree),
}


def _int(tok):
    try:
        return int(tok)
    except ValueError:
        raise InvalidSpec("expected an integer, got %r" % (tok,))


def _parse_args(grammar, tokens):
    """Typed parameters for ``tokens``: the integers, then arity, then bits."""
    if grammar == "*":
        return (tuple(_int(t) for t in tokens),)
    shape = grammar.endswith("b")
    vals = [_int(t) for t in (tokens[:len(grammar) - 1] if shape else tokens)]
    if len(tokens) != len(grammar):
        raise InvalidSpec("expected a shape bit-string parameter" if shape else
                          "expected %d parameters, got %d" % (len(grammar), len(tokens)))
    if shape:
        if any(c not in "01" for c in tokens[-1]):
            raise InvalidSpec("shape must be a string of 0/1 bits, got %r" % tokens[-1])
        vals.append(tuple(int(c) for c in tokens[-1]))
    return tuple(vals)


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical graph for a family spec; deterministic."""
    if spec.kind not in _FAMILIES:
        raise InvalidSpec("unknown family %r" % spec.kind)
    return _FAMILIES[spec.kind][1](*spec.args)


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI family grammar ``name:arg,arg,...`` (e.g. ``gear:7``,
    ``snake:9,3``, ``spider:2,2,4,4,4,6``, ``fullbinary:1100100``)."""
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        raise InvalidSpec("unknown family %r" % name)
    tokens = [a.strip() for a in rest.split(",") if a.strip()]
    return FamilySpec(name, _parse_args(_FAMILIES[name][0], tokens))
