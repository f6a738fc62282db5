"""The vertex contraction that the tests check the star-gon and the
contraction lemma against, written as the set of remapped edges."""

from nplabel.graph import Graph


def contract_reference(g, a, b):
    """g with the distinct vertices a and b merged into one vertex whose
    neighborhood is the union of theirs.

    The merged vertex takes id min(a, b) and ids above max(a, b) shift down
    by one, so the result lives on 1..n-1.  Parallel edges collapse, and an
    edge ab is dropped."""
    keep, remove = min(a, b), max(a, b)
    remap = {v: v - 1 if v > remove else v for v in range(1, g.n + 1)}
    remap[remove] = keep
    edges = set()
    for u, v in g.edges:
        u, v = remap[u], remap[v]
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(g.n - 1, sorted(edges))
