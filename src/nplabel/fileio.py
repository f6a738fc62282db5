"""Edge-list / label-file parsing and writing, plus DOT export.

Edge-list format: line 1 is ``n m``, then m lines ``u v`` with
1 <= u < v <= n.  ``#`` starts a comment line; blank lines are ignored.
Label format: n lines, line v holds the label of vertex v.
"""

from __future__ import annotations

from typing import List

from .errors import ParseError, UsageError
from .graph import Graph, Labeling


def _content_lines(text: str):
    """(line number, stripped line) for each line that is neither blank nor
    a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; raises ParseError with a line number.

    The edges stream into ``Graph``, whose own check finds a duplicate, so
    the parser holds no set of them."""
    lines = _content_lines(text)
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("header must be 'n m'", lineno)
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("header must hold two integers", lineno)
        if n < 1 or m < 0:
            raise ParseError("need n >= 1 and m >= 0", lineno)
        header = lineno
        break
    else:
        raise ParseError("missing header line")

    def edges():
        nonlocal lineno
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("edge line must be 'u v'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno)
            if not (1 <= u < v <= n):
                raise ParseError("edge (%d,%d) violates 1 <= u < v <= %d" % (u, v, n), lineno)
            yield u, v

    try:
        g = Graph(n, edges())
    except UsageError as exc:
        # the range test above is stricter than Graph's, so this is a duplicate
        raise ParseError(str(exc), lineno)
    except (MemoryError, OverflowError):
        raise ParseError("vertex count %d is too large to hold" % n, header)
    if g.m != m:
        raise ParseError("header declares %d edges but %d given" % (m, g.m))
    return g


def write_edge_list(g: Graph) -> str:
    lines = ["%d %d" % (g.n, g.m)]
    lines += ["%d %d" % e for e in g.edges]
    return "\n".join(lines) + "\n"


def parse_labels(text: str) -> List[int]:
    labels = []
    for lineno, line in _content_lines(text):
        try:
            labels.append(int(line))
        except ValueError:
            raise ParseError("label must be an integer, got %r" % line, lineno)
    if not labels:
        raise ParseError("no labels found")
    return labels


def write_labels(labels: Labeling) -> str:
    return "%d\n" * len(labels) % tuple(labels)


def to_dot(g: Graph) -> str:
    """DOT export of the graph: one ``vN;`` line per vertex, then one
    ``vU -- vV;`` line per edge in ascending order."""
    lines = ["graph G {"]
    lines += ["  v%d;" % v for v in range(1, g.n + 1)]
    lines += ["  v%d -- v%d;" % e for e in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
