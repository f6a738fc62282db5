"""Each family's edges as a stream, the reference its direct adjacency build
is checked against.

These are the edge streams the generators in ``nplabel.families`` fed to the
checked ``Graph(n, edges)`` constructor before they built their sorted
neighbour tuples straight from the numbering.  ``reference_graph(spec)`` is
``Graph(n, edges)`` on the stream, so a faulty shape pattern raises the same
``InvalidSpec`` while the stream is read.
"""

from itertools import chain, repeat

from nplabel.errors import InvalidSpec
from nplabel.families import snake_base_vertex, snake_vertex_count
from nplabel.graph import Graph


def _path_edges(first: int, last: int):
    """The edges (i, i + 1) of the path first..last, as an iterator."""
    return zip(range(first, last), range(first + 1, last + 1))


def _snake_edges(k: int, n: int):
    """The trace path's edges, then the base chords u_j u_{j+1}."""
    last = snake_base_vertex(k, n)
    return chain(_path_edges(1, last),
                 zip(range(1, last, k - 1), range(k, last + 1, k - 1)))


def path_edges(n):
    return n, _path_edges(1, n)


def cycle_edges(n):
    return n, chain(_path_edges(1, n), [(1, n)])


def gear_edges(n):
    rim = 2 * n + 1
    return rim, chain(_path_edges(2, rim), [(2, rim)], zip(repeat(1), range(3, rim + 1, 2)))


def snake_edges(k, n):
    return snake_vertex_count(k, n), _snake_edges(k, n)


def star_gon_edges(k, n):
    m = snake_vertex_count(k, n + 1)
    return m - 1, ((u, v) if v < m else (1, u) for u, v in _snake_edges(k, n + 1))


def book_edges(k, n):
    def edges():
        yield 1, 2
        for first in range(3, 3 + n * (k - 2), k - 2):
            page = (1, *range(first, first + k - 2), 2)
            yield from zip(page, page[1:])

    return 2 + n * (k - 2), edges()


def mobius_edges(n):
    return 2 * n, chain(_path_edges(1, n), _path_edges(n + 1, 2 * n),
                        zip(range(1, n + 1), range(n + 1, 2 * n + 1)),
                        [(n, n + 1), (1, 2 * n)])


def caterpillar_edges(counts):
    s = len(counts) + 2
    n = s + sum(counts)
    spine = chain.from_iterable(repeat(v, c) for v, c in enumerate(counts, start=2))
    return n, chain(_path_edges(1, s), zip(spine, range(s + 1, n + 1)))


def spider_edges(lengths):
    def edges():
        first = 2
        for l in lengths:
            yield 1, first
            yield from _path_edges(first, first + l - 1)
            first += l

    return 1 + sum(lengths), edges()


def banana_edges(n, k):
    def edges():
        for u in range(2, 2 + n * k, k):
            w = u + 1
            yield 1, u
            yield u, w
            yield from zip(repeat(w), range(w + 1, u + k))

    return n * k + 1, edges()


def firecracker_edges(n, k):
    def edges():
        yield from _path_edges(1, n)
        if k >= 2:
            yield from zip(range(1, n + 1), range(n + 1, 2 * n + 1))
        if k >= 3:
            yield from zip(range(n + 1, 2 * n + 1), range(2 * n + 1, 3 * n + 1))
            centers = chain.from_iterable(repeat(v, k - 3) for v in range(n + 1, 2 * n + 1))
            yield from zip(centers, range(3 * n + 1, n * k + 1))

    return n * k, edges()


def rooted_tree_edges(child_counts):
    """A faulty pattern raises InvalidSpec while Graph reads the edges."""
    n = len(child_counts)

    def edges():
        nxt = 2
        for v, c in enumerate(child_counts, start=1):
            if v > 1 and v >= nxt:
                raise InvalidSpec("shape pattern declares unreachable node %d" % v)
            for _ in range(c):
                if nxt > n:
                    raise InvalidSpec("shape pattern creates more nodes than bits")
                yield v, nxt
                nxt += 1
        # every node is reached: a node v >= 2 not yet reached when the loop
        # meets it is refused as unreachable, so nxt ends at n + 1

    return n, edges()


def kary_edges(k, bits):
    return rooted_tree_edges([k if b else 0 for b in bits])


def cayley_edges(k, bits):
    return rooted_tree_edges([(k if i == 0 else k - 1) if b else 0
                              for i, b in enumerate(bits)])


def complete_binary_edges(n_nodes):
    return n_nodes, ((v // 2, v) for v in range(2, n_nodes + 1))


# kind -> its (vertex count, edge stream), on the kind's parsed parameters
EDGES = {
    "path": path_edges,
    "cycle": cycle_edges,
    "gear": gear_edges,
    "snake": snake_edges,
    "stargon": star_gon_edges,
    "book": book_edges,
    "book5": lambda n: book_edges(5, n),
    "mobius": mobius_edges,
    "caterpillar": caterpillar_edges,
    "spider": spider_edges,
    "banana": banana_edges,
    "firecracker": firecracker_edges,
    "fullbinary": lambda bits: kary_edges(2, bits),
    "kary": kary_edges,
    "cayley": cayley_edges,
    "completebinary": complete_binary_edges,
}


def reference_graph(spec):
    """The checked build of ``spec`` from its kind's edge stream."""
    return Graph(*EDGES[spec.kind](*spec.args))
