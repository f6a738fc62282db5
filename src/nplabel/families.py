"""Deterministic constructors for every graph family the labelers handle.

Each family has a documented canonical vertex numbering; the constructive
labelers in :mod:`nplabel.labelers` are formulas over these numberings, and
so is each graph: its sorted neighbour tuples are cut from one list of the
ids, so every entry is the one int object of its id.
"""

from __future__ import annotations

import heapq
import random
from itertools import chain, repeat
from typing import NamedTuple, Sequence, Tuple

from .errors import InvalidSpec, UsageError
from .graph import Graph


class FamilySpec(NamedTuple):
    """Tagged parameter record selecting one graph family.

    ``kind`` is the family name used by the CLI grammar; ``args`` are its
    parsed parameters, in the order of the kind's constructor below (e.g.
    ``(9, 3)`` for ``snake:9,3``, ``((2, 2, 4),)`` for ``spider:2,2,4``).
    Build a spec from text with :func:`parse_family`.
    """

    kind: str
    args: Tuple


def _path(vertex, first: int, last: int):
    """The sorted neighbour tuples of the path first..last, vertex by vertex."""
    if first == last:
        return [()]
    return [(vertex[first + 1],), *zip(vertex[first:last - 1], vertex[first + 2:last + 1]),
            (vertex[last - 1],)]


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidSpec("path requires n >= 1, got %d" % n)
    return Graph._from_sorted_lists([(), *_path(list(range(n + 1)), 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidSpec("cycle requires n >= 3, got %d" % n)
    vertex = list(range(n + 1))
    return Graph._from_sorted_lists(
        [(), (vertex[2], vertex[n]), *zip(vertex[1:n - 1], vertex[3:n + 1]),
         (vertex[1], vertex[n - 1])])


def gear_graph(n: int) -> Graph:
    """Gear on 2n+1 vertices: hub = 1, rim cycle 2..2n+1, spokes to the
    odd-indexed rim vertices 3, 5, ..., 2n+1."""
    if n < 3:
        raise InvalidSpec("gear requires n >= 3, got %d" % n)
    rim = 2 * n + 1
    vertex = list(range(rim + 1))
    mid = [()] * (rim - 3)  # rim vertices 3..rim-1, the odd ones on a spoke
    mid[0::2] = zip(repeat(vertex[1]), vertex[2:rim - 1:2], vertex[4:rim + 1:2])
    mid[1::2] = zip(vertex[3:rim - 1:2], vertex[5:rim + 1:2])
    return Graph._from_sorted_lists(
        [(), tuple(vertex[3::2]), (vertex[3], vertex[rim]), *mid,
         (vertex[1], vertex[2], vertex[rim - 1])])


def snake_vertex_count(k: int, n: int) -> int:
    return (n - 1) * (k - 1) + 1


def snake_base_vertex(k: int, j: int) -> int:
    """Trace id of the j-th base-path vertex u_j (1-based)."""
    return (j - 1) * (k - 1) + 1


def _snake(k: int, n: int):
    """The id list and the sorted neighbour tuples of S_{k,n}: the trace
    path 1..last, where base vertex b also meets b - (k-1) and b + (k-1)."""
    c, last = k - 1, snake_base_vertex(k, n)
    vertex = list(range(last + 1))
    adj = [(), *_path(vertex, 1, last)]
    adj[1], adj[last] = (vertex[2], vertex[k]), (vertex[last - c], vertex[last - 1])
    adj[k:last:c] = zip(vertex[1::c], vertex[c:last - 1:c], vertex[k + 1::c], vertex[k + c::c])
    return vertex, adj


def snake_graph(k: int, n: int) -> Graph:
    """k-polygonal snake on the zigzag trace numbering: a path v_1..v_m with
    m = (n-1)(k-1)+1 plus base chords between consecutive base vertices."""
    if k < 3:
        raise InvalidSpec("snake requires k >= 3, got k=%d" % k)
    if n < 2:
        raise InvalidSpec("snake requires n >= 2, got n=%d" % n)
    return Graph._from_sorted_lists(_snake(k, n)[1])


def star_gon_graph(k: int, n: int) -> Graph:
    """Star (k,n)-gon: the snake S_{k,n+1} with its last vertex m merged into
    vertex 1, built from the snake's adjacency (a neighbour m becomes 1)."""
    if k < 3:
        raise InvalidSpec("star-gon requires k >= 3, got k=%d" % k)
    if n < 3:
        raise InvalidSpec("star-gon requires n >= 3, got n=%d" % n)
    vertex, adj = _snake(k, n + 1)
    end, base = len(adj) - 2, len(adj) - k  # m's two neighbours
    adj[1] = (vertex[2], vertex[k], vertex[base], vertex[end])
    adj[end], adj[base] = (vertex[1], vertex[end - 1]), (vertex[1], *adj[base][:3])
    return Graph._from_sorted_lists(adj[:-1])


def book_graph(k: int, n: int) -> Graph:
    """k-polygonal book: n k-gons sharing the edge u1-u2.  u1=1, u2=2, then
    the k-2 interior page vertices numbered page by page."""
    if k not in (3, 4, 5):
        raise InvalidSpec("book requires k in {3,4,5}, got k=%d" % k)
    if n < 1:
        raise InvalidSpec("book requires n >= 1, got n=%d" % n)
    step = k - 2
    vertex = list(range(3 + n * step))
    adj = [(), (vertex[2], *vertex[3::step]), (vertex[1], *vertex[k::step]), *[()] * (n * step)]
    for j in range(step):  # position j on every page; the first meets 1, the last meets 2
        left = vertex[2 + j::step] if j else repeat(vertex[1], n)
        right = vertex[4 + j::step] if j < step - 1 else repeat(vertex[2], n)
        adj[3 + j::step] = zip(right, left) if 0 < j == step - 1 else zip(left, right)
    return Graph._from_sorted_lists(adj)


def mobius_graph(n: int) -> Graph:
    """Moebius ladder M_2n: u_1..u_n = 1..n, v_1..v_n = n+1..2n, ladder
    edges plus the two cross edges v_1 u_n and u_1 v_n."""
    if n < 3:
        raise InvalidSpec("mobius requires n >= 3, got %d" % n)
    v = list(range(2 * n + 1))
    return Graph._from_sorted_lists(
        [(), (v[2], v[n + 1], v[2 * n]), *zip(v[1:n - 1], v[3:n + 1], v[n + 2:2 * n]),
         (v[n - 1], v[n + 1], v[2 * n]), (v[1], v[n], v[n + 2]),
         *zip(v[2:n], v[n + 1:2 * n - 1], v[n + 3:2 * n + 1]), (v[1], v[n], v[2 * n - 1])])


def caterpillar_graph(pendant_counts: Sequence[int]) -> Graph:
    """Caterpillar with spine 1..s (s = len(counts)+2) and counts[j] pendants
    at interior spine vertex j+2, pendants numbered group by group."""
    counts = list(pendant_counts)
    if any(c < 0 for c in counts):
        raise InvalidSpec("pendant counts must be nonnegative")
    s = len(counts) + 2
    n = s + sum(counts)
    vertex = list(range(n + 1))
    adj = [(), *_path(vertex, 1, s)]
    first = s + 1
    for v, c in enumerate(counts, start=2):
        adj[v] += tuple(vertex[first:first + c])
        first += c
    adj += zip(chain.from_iterable(map(repeat, vertex[2:s], counts)))
    return Graph._from_sorted_lists(adj)


def spider_graph(leg_lengths: Sequence[int]) -> Graph:
    """Spider with center 1 and legs numbered consecutively outward."""
    lengths = list(leg_lengths)
    if len(lengths) < 3:
        raise InvalidSpec("spider requires >= 3 legs, got %d" % len(lengths))
    if any(l < 1 for l in lengths):
        raise InvalidSpec("spider legs must have length >= 1")
    vertex = list(range(2 + sum(lengths)))
    adj, feet = [(), ()], []
    for l in lengths:
        feet.append(vertex[len(adj)])
        leg = _path(vertex, len(adj), len(adj) + l - 1)
        adj += [(vertex[1], *leg[0]), *leg[1:]]
    adj[1] = tuple(feet)
    return Graph._from_sorted_lists(adj)


def banana_graph(n: int, k: int) -> Graph:
    """(n,k)-banana tree: root 1; star i occupies ids 2+(i-1)k .. 1+ik as
    u_i (root-adjacent leaf), w_i (center), then the k-2 remaining leaves."""
    if n < 1:
        raise InvalidSpec("banana requires n >= 1, got n=%d" % n)
    if k < 3:
        raise InvalidSpec("banana requires k >= 3, got k=%d" % k)
    vertex = list(range(n * k + 2))
    adj = [(), tuple(vertex[2::k])]
    for u in range(2, n * k + 1, k):
        w = vertex[u + 1]
        adj += [(vertex[1], w), (vertex[u], *vertex[u + 2:u + k]), *zip(repeat(w, k - 2))]
    return Graph._from_sorted_lists(adj)


def firecracker_graph(n: int, k: int) -> Graph:
    """(n,k)-firecracker: path u_1..u_n = 1..n, star centers v_i = n+i,
    first extra leaf w_i = 2n+i, remaining k-3 leaves numbered after 3n
    grouped by star."""
    if n < 1:
        raise InvalidSpec("firecracker requires n >= 1, got n=%d" % n)
    if k < 1:
        raise InvalidSpec("firecracker requires k >= 1, got k=%d" % k)
    vertex = list(range(n * k + 1))
    centers = vertex[n + 1:2 * n + 1]
    adj = [(), *_path(vertex, 1, n)]
    if k >= 2:
        adj[1:] = map(tuple.__add__, adj[1:], zip(centers))
    # v_i meets u_i, w_i and its own k-3 leaves, the first k-1 of these lists
    adj += zip(*[vertex[1:n + 1], vertex[2 * n + 1:3 * n + 1],
                 *(vertex[3 * n + 1 + j::k - 3] for j in range(k - 3))][:k - 1])
    if k >= 3:  # w_i, then the other leaves star by star, each meeting only v_i
        adj += zip(chain(centers, chain.from_iterable(map(repeat, centers, repeat(k - 3, n)))))
    return Graph._from_sorted_lists(adj)


def _rooted_tree_from_pattern(child_counts):
    """Build a level-order numbered rooted tree; child_counts[i] children for
    node i+1, children ids assigned consecutively in processing order.  A
    faulty pattern raises InvalidSpec at the first node that shows it."""
    n = len(child_counts)
    vertex = list(range(n + 1))
    adj = [()] * (n + 1)  # adj[v] is (parent,) until v's children join it
    nxt = 2
    for v, c in enumerate(child_counts, start=1):
        if v > 1 and v >= nxt:
            raise InvalidSpec("shape pattern declares unreachable node %d" % v)
        if nxt + c > n + 1:
            raise InvalidSpec("shape pattern creates more nodes than bits")
        if c:
            adj[nxt:nxt + c] = zip(repeat(vertex[v], c))
            adj[v] += tuple(vertex[nxt:nxt + c])
            nxt += c
    return Graph._from_sorted_lists(adj)  # every node reached, nxt is n + 1


def _shape_bits(shape: Sequence[int]):
    bits = list(shape)
    if not bits or any(b not in (0, 1) for b in bits):
        raise InvalidSpec("shape must be a nonempty 0/1 sequence")
    return bits


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
    n, half = n_nodes, n_nodes // 2  # half: the last vertex with a child
    vertex = list(range(n + 1))
    parent = list(chain.from_iterable(zip(vertex, vertex)))  # parent[v] is v // 2
    adj = [(), tuple(vertex[2:4]),
           *zip(parent[2:(n + 1) // 2], vertex[4::2], vertex[5::2])]
    if n % 2 == 0 and half > 1:  # the one vertex with a single child
        adj.append((parent[half], vertex[n]))
    adj += zip(parent[max(2, half + 1):n + 1])
    return Graph._from_sorted_lists(adj)


def random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise UsageError("random_tree requires n >= 1, got %d" % n)
    if n == 1:
        return Graph(1, [])
    rng = random.Random(seed)
    seq = [0] * (n - 2)  # allocated first, so a size too large fails at once
    for i in range(n - 2):
        seq[i] = rng.randint(1, n)
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

    def edges():
        leaves = [v for v in range(1, n + 1) if degree[v] == 1]
        heapq.heapify(leaves)
        for x in seq:
            yield heapq.heappop(leaves), x
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        yield heapq.heappop(leaves), heapq.heappop(leaves)

    return Graph(n, edges())


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
    "fullbinary": ("b", lambda bits: full_kary_graph(2, bits)),
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
