"""Free-tree enumeration and the conjecture scan over all small trees.

Two independent generators back each other up: the primary is the
Wright-Richmond-Odlyzko-McKay generator, which steps through rooted level
sequences (Beyer-Hedetniemi successor) and emits exactly one per free tree,
with no filter; the secondary grows trees by leaf attachment with AHU
deduplication.  Matching counts between the two is the self-validation the
scan relies on.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from itertools import count
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .errors import UsageError
from .graph import Graph, is_tree, verify, with_pendant
from .search import (
    DEFAULT_BUDGET,
    EXHAUSTED,
    FOUND,
    SearchConfig,
    SearchOutcome,
    find_labeling,
)

MAX_ENUM_N = 18


def _require_tree(t: Graph, caller: str) -> None:
    """``_canonical_rooting``'s leaf stripping never ends on a cycle."""
    if not is_tree(t):
        raise UsageError("%s requires a tree" % caller)


def ahu_canonical(t: Graph) -> str:
    """Canonical string of a free tree: AHU encoding rooted at the center
    (for bicentral trees, the center whose string is least)."""
    _require_tree(t, "ahu_canonical")
    return _canonical_rooting(t.adj, [len(a) for a in t.adj])[0]


def tree_centers(t: Graph) -> List[int]:
    """The 1 or 2 centers of a tree, by iterative leaf stripping."""
    _require_tree(t, "tree_centers")
    return _canonical_rooting(t.adj, [len(a) for a in t.adj])[1]


def _canonical_rooting(adj, degree):
    """AHU string, sorted centers and canonical BFS order of the tree on
    the vertices of nonzero ``degree`` (vertex 1 alone if there are none),
    whose edges are those of ``adj`` between such vertices.

    Leaves are stripped layer by layer until the center or the two centers
    are left; each stripped vertex's string is built from its children's,
    which are already stripped.  Sorting the children as (string, vertex)
    pairs also fixes their order in the BFS.  The tree is rooted at the
    lower center unless the other center's string, worked out from the two
    centers' children, is strictly smaller."""
    n = len(adj) - 1
    degree = list(degree)
    code: List[Optional[str]] = [None] * (n + 1)
    kids: List[List[int]] = [[]] * (n + 1)

    def encode(v, above=()):
        pairs = [(code[u], u) for u in adj[v] if code[u] is not None]
        pairs.extend(above)
        pairs.sort()
        return "(" + "".join([c for c, _ in pairs]) + ")", [u for _, u in pairs]

    layer = [v for v in range(1, n + 1) if degree[v] == 1] or [1]
    left = n + 1 - degree.count(0)  # degree[0] is 0
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            code[v], kids[v] = encode(v)
            for u in adj[v]:
                if code[u] is None and degree[u]:  # the parent
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = sorted(layer)
    root = centers[0]
    if len(centers) == 1:
        top, kids[root] = encode(root)
    else:
        other = centers[1]
        (low, low_kids), (high, high_kids) = encode(root), encode(other)
        top, kids[root] = encode(root, [(high, other)])
        flipped, flipped_kids = encode(other, [(low, root)])
        if flipped < top:
            kids[root], kids[other] = low_kids, flipped_kids
            root, top = other, flipped
        else:
            kids[other] = high_kids
    order = [root]
    for v in order:
        order.extend(kids[v])
    return top, centers, order


# -- primary generator: Wright-Richmond-Odlyzko-McKay -------------------------


def _next_rooted(levels: List[int], p: Optional[int] = None) -> bool:
    """Beyer-Hedetniemi successor, in place: the canonical rooted level
    sequence (root at level 1) that follows ``levels``, found by moving
    position p up one level and repeating the block from its parent on.
    p defaults to the last position deeper than level 2; False after the
    star, which has no successor."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 2:
            p -= 1
    if p == 0:
        return False
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]
    return True


def _second_subtree(levels: List[int]) -> int:
    """Position where the root's second subtree starts (len if none)."""
    return next((i for i in range(2, len(levels)) if levels[i] == 2), len(levels))


def _tree_from_levels(levels: List[int]) -> Graph:
    """Tree whose vertex i+1 is position i of the level sequence."""
    last = [0] * (len(levels) + 1)  # latest vertex seen at each level
    edges = []
    for v, level in enumerate(levels, 1):
        if level > 1:
            edges.append((last[level - 1], v))
        last[level] = v
    return Graph(len(levels), edges)


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Wright, Richmond, Odlyzko & McKay, *Constant time generation of free
    trees* (SIAM J. Comput. 1986): a rooted level sequence stands for its
    free tree when the root's first subtree (the left half) is not above
    the rest of the tree in (height, size, sequence).  An out-of-order
    sequence skips straight to the next rooted sequence that changes the
    left half, with the tail reset to the lowest path allowed.

    Vertex i+1 of each tree is position i of its level sequence, so the
    vertices are numbered in preorder from the root, vertex 1: each vertex
    v >= 2 has exactly one smaller neighbour, its parent, which is
    ``adj[v][0]``.  The scan's shape memo (``_strip_leaves``) relies on
    this."""
    if not (1 <= n <= MAX_ENUM_N):
        raise UsageError("tree enumeration supports 1 <= n <= %d" % MAX_ENUM_N)
    if n == 1:
        yield Graph(1, [])
        return
    # the path, rooted at a center
    levels = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while True:
        m = _second_subtree(levels)
        left = [level - 1 for level in levels[1:m]]
        rest = [1] + levels[m:]
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            yield _tree_from_levels(levels)
            if not _next_rooted(levels):
                return
        else:
            # step at the left half's last vertex; if the left half stays
            # tall, the tail becomes a path from the root down to its depth
            tall = levels[m - 1] > 3
            _next_rooted(levels, m - 1)
            if tall:
                h = max(levels[1:_second_subtree(levels)])
                levels[n + 1 - h:] = range(2, h + 1)


# -- secondary and tertiary generators (cross-checks) ------------------------


def enumerate_free_trees_by_extension(n: int) -> List[Graph]:
    """Independent generator: grow trees one leaf at a time, deduplicating
    with the AHU canonical form."""
    if not (1 <= n <= MAX_ENUM_N):
        raise UsageError("tree enumeration supports 1 <= n <= %d" % MAX_ENUM_N)
    current: Dict[str, Graph] = {ahu_canonical(Graph(1, [])): Graph(1, [])}
    for size in range(2, n + 1):
        nxt: Dict[str, Graph] = {}
        for g in current.values():
            for v in range(1, g.n + 1):
                h = with_pendant(g, v)
                code = ahu_canonical(h)
                if code not in nxt:
                    nxt[code] = h
        current = nxt
    return [current[c] for c in sorted(current)]


def crosscheck_tree_counts(max_n: int) -> List[Tuple[int, int, int]]:
    """(n, primary count, secondary count) for n = 1..max_n."""
    rows = []
    for n in range(1, max_n + 1):
        a = sum(1 for _ in enumerate_free_trees(n))
        b = len(enumerate_free_trees_by_extension(n))
        rows.append((n, a, b))
    return rows


# -- conjecture scan ---------------------------------------------------------


class PendantCore(NamedTuple):
    """A tree's irreducible core under the pendant lemma, canonically
    numbered: core vertex i+1 is tree vertex ``vertices[i]``."""

    tree: Graph
    code: str  # AHU code of the core; isomorphic cores share it
    vertices: Tuple[int, ...]
    stripped: Tuple[int, ...]  # leaves removed, in removal order

    @property
    def graph(self) -> Graph:
        """The core in its canonical numbering; built on demand, since a
        scan needs it only for cores it has not yet searched."""
        return _induced(self.tree, self.vertices)


def _induced(t: Graph, vertices) -> Graph:
    """The subgraph of t on ``vertices``, vertex i+1 being ``vertices[i]``."""
    rank = {v: i for i, v in enumerate(vertices, 1)}
    return Graph(len(rank), [(rank[u], rank[v]) for u, v in t.edges
                             if u in rank and v in rank])


def _strip_leaves(t: Graph):
    """(degree, stripped, kept, shape): strip each leaf whose neighbour has
    degree >= 3, in vertex order.

    Stripping leaves the neighbour with degree >= 2, so it never makes a new
    leaf and one pass over the leaves suffices.  ``degree`` is the core's,
    with 0 for a stripped leaf; ``stripped`` lists the leaves removed, in
    removal order, and ``kept`` the other vertices, in vertex order.
    ``shape`` is the tuple of the kept vertices' levels below vertex 1,
    taking ``adj[v][0]`` as the parent of v >= 2.  On a tree numbered in
    preorder, as ``enumerate_free_trees`` numbers it, that is the parent
    and ``shape`` is the level sequence of the rooted core: trees with the
    same shape have the same rooted core, kept vertex i of one being kept
    vertex i of the other.  (A stripped leaf is nobody's parent unless it
    is vertex 1, and then its one child roots the core.)  On any other
    numbering ``shape`` means nothing."""
    adj = t.adj
    degree = [len(a) for a in adj]
    level = [0] * (t.n + 1)
    level[1] = 1
    stripped, kept, shape = [], [], []
    for w in range(1, t.n + 1):
        a = adj[w]
        if degree[w] == 1 and degree[a[0]] >= 3:
            degree[a[0]] -= 1
            degree[w] = 0
            stripped.append(w)
        else:
            if w > 1:
                level[w] = level[a[0]] + 1
            kept.append(w)
            shape.append(level[w])
    return degree, stripped, kept, tuple(shape)


def pendant_core(t: Graph) -> PendantCore:
    """Strip leaves whose neighbour has degree >= 3 until none is left
    (``_strip_leaves``), and number what remains by BFS from its canonical
    AHU root, children in order of their AHU code, so that isomorphic cores
    are the identical Graph.

    The core is encoded on ``t`` itself, with the stripped leaves' degree
    set to 0; its Graph is built only when ``PendantCore.graph`` asks for
    it.  By the pendant lemma (``labelers.extend_pendant``) any labeling of
    the core extends to the tree: the stripped leaves take the labels above
    the core's, last removed first."""
    _require_tree(t, "pendant_core")
    degree, stripped, _, _ = _strip_leaves(t)
    code, _, order = _canonical_rooting(t.adj, degree)
    return PendantCore(t, code, tuple(order), tuple(stripped))


def _tree_labeling(vertices, stripped, core_labels) -> List[int]:
    """Extend a labeling of the core to the whole tree: core vertex i+1,
    labelled ``core_labels[i]``, is tree vertex ``vertices[i]``, and the
    ``stripped`` leaves take the labels above, last removed first."""
    labels = [0] * (len(vertices) + len(stripped))
    for v, label in zip(vertices, core_labels):
        labels[v - 1] = label
    for label, w in enumerate(reversed(stripped), len(vertices) + 1):
        labels[w - 1] = label
    return labels


@dataclass(frozen=True)
class SizeResult:
    n: int
    tree_count: int
    solved_count: int
    failures: Tuple[str, ...]  # canonical encodings of Exhausted trees
    inconclusive: Tuple[str, ...]
    seconds: float
    failure_graphs: Tuple[Graph, ...] = ()
    nodes: int = 0  # search nodes spent at this size, core and full-tree searches
    core_searches: int = 0  # distinct cores first met, and searched, at this size


@dataclass(frozen=True)
class ConjectureReport:
    max_n: int
    rows: Tuple[SizeResult, ...]

    @property
    def conjecture_holds(self) -> bool:
        return all(not r.failures for r in self.rows)

    def table(self) -> str:
        lines = ["%4s %8s %8s %8s %12s %6s %10s %9s" % (
            "n", "trees", "solved", "failed", "inconclusive", "cores", "nodes", "seconds")]
        for r in self.rows:
            lines.append(
                "%4d %8d %8d %8d %12d %6d %10d %9.2f"
                % (r.n, r.tree_count, r.solved_count, len(r.failures),
                   len(r.inconclusive), r.core_searches, r.nodes, r.seconds)
            )
        return "\n".join(lines) + "\n"


RESTART_UNIT = 100  # nodes in one unit of the Luby schedule


def _luby(i: int) -> int:
    """Term i >= 1 of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ...: the
    universal restart schedule of Luby, Sinclair & Zuckerman (1993)."""
    k = i.bit_length()
    while i != (1 << k) - 1:
        i -= (1 << (k - 1)) - 1
        k = i.bit_length()
    return 1 << (k - 1)


def _search_core(core: Graph, code: str, cfg: SearchConfig) -> SearchOutcome:
    """Search a core with restarts on the Luby schedule, then completely.

    Restart i is ``find_labeling`` with ``cfg``'s settings but a cap of
    ``_luby(i) * RESTART_UNIT`` nodes, on the core renumbered by a
    permutation, so that the vertex order breaks its ties differently:
    the identity first (the plain search), then shuffles drawn from
    ``random.Random(code)``, a seed that does not depend on
    ``PYTHONHASHSEED``.  The restarts stop once their caps would pass half
    the node budget (half of ``DEFAULT_BUDGET`` when it is unlimited); a
    complete search in canonical numbering then gets the rest, so
    Exhausted and Inconclusive mean what they mean for ``find_labeling``.
    Any search that ends Found or Exhausted settles the core.
    ``nodes_explored`` counts every search."""
    budget = cfg.node_budget
    half = (DEFAULT_BUDGET if budget is None else budget) // 2
    spent = capped = 0
    perm = list(range(1, core.n + 1))
    rng = random.Random(code)
    for i in count(1):
        cap = _luby(i) * RESTART_UNIT
        capped += cap
        if capped > half:
            break
        if i > 1:
            rng.shuffle(perm)
        g = Graph(core.n, [(perm[u - 1], perm[v - 1]) for u, v in core.edges])
        outcome = find_labeling(g, replace(cfg, node_budget=cap))
        spent += outcome.nodes_explored
        if outcome.status == FOUND:
            labels = tuple(outcome.labeling[w - 1] for w in perm)
            return SearchOutcome(FOUND, labels, spent)
        if outcome.status == EXHAUSTED:
            return SearchOutcome(EXHAUSTED, None, spent)
    rest = None if budget is None else budget - spent
    outcome = find_labeling(core, replace(cfg, node_budget=rest))
    return SearchOutcome(outcome.status, outcome.labeling, spent + outcome.nodes_explored)


def scan_conjecture(
    max_n: int, cfg: SearchConfig = SearchConfig(), jobs: int = 1
) -> ConjectureReport:
    """Settle every non-isomorphic tree of each size up to max_n; any
    Exhausted tree would falsify the conjecture and is surfaced with its
    canonical encoding and graph.

    The trees stream from ``enumerate_free_trees`` and are settled one at a
    time, so memory does not grow with the number of trees.  Each distinct
    pendant core (``pendant_core``) is searched once per call by
    ``_search_core`` (randomized restarts, then a complete search), and its
    labeling is extended to every tree that has it and verified.

    Two memos, both spanning sizes, keep the per-tree work small.  The
    first is keyed by the core's rooted shape (``_strip_leaves``), which
    the strip loop yields at no extra cost since the trees come numbered
    in preorder; it holds the outcome and the core labels in kept-vertex
    order, so a tree whose shape was met before takes its labels straight
    from it.  Only a new shape is encoded by ``pendant_core``, whose AHU
    code keys the second memo, that of the searches: isomorphic cores
    rooted differently share one search.  A tree
    whose core search is exhausted gets the full search of the tree
    itself, so Exhausted always comes from a full-tree search; so does a
    tree that had leaves stripped and whose core search is inconclusive.
    An irreducible tree is its own core, so an inconclusive core search
    is its result.

    The scan needs one labeling per tree, so ``cfg.find_all`` is refused.
    ``jobs`` accepts only 1.  It is kept for existing callers that pass
    ``jobs=1`` and goes in the next change to the benchmark."""
    if not (1 <= max_n <= MAX_ENUM_N):
        raise UsageError("max_n must be within 1..%d" % MAX_ENUM_N)
    if jobs != 1:
        raise UsageError("the scan is serial; jobs must be 1, got %r" % (jobs,))
    if cfg.find_all:
        raise UsageError("the scan needs one labeling per tree; find_all must be off")
    # Both memos span sizes, since a core met at one size recurs among
    # larger trees; they are local to one call.
    # core code -> outcome of its search
    memo: Dict[str, SearchOutcome] = {}
    # core shape -> (outcome, core labels in kept-vertex order if Found)
    shapes: Dict[Tuple[int, ...], Tuple[SearchOutcome, Optional[Tuple[int, ...]]]] = {}
    rows = []
    for n in range(1, max_n + 1):
        start = time.perf_counter()
        tree_count = nodes = core_searches = solved = 0
        failed, inconclusive = [], []
        for t in enumerate_free_trees(n):
            tree_count += 1
            _, stripped, kept, shape = _strip_leaves(t)
            entry = shapes.get(shape)
            if entry is None:
                c = pendant_core(t)
                outcome = memo.get(c.code)
                if outcome is None:
                    outcome = memo[c.code] = _search_core(c.graph, c.code, cfg)
                    nodes += outcome.nodes_explored
                    core_searches += 1
                core_labels = None
                if outcome.status == FOUND:
                    label_of = dict(zip(c.vertices, outcome.labeling))
                    core_labels = tuple([label_of[v] for v in kept])
                entry = shapes[shape] = (outcome, core_labels)
            outcome, core_labels = entry
            if outcome.status == FOUND:
                labels = _tree_labeling(kept, stripped, core_labels)
            elif outcome.status == EXHAUSTED or stripped:
                outcome = find_labeling(t, cfg)
                nodes += outcome.nodes_explored
                labels = outcome.labeling
            if outcome.status == FOUND:
                if not verify(t, labels).ok:
                    raise RuntimeError("scan built an invalid labeling %s for tree %s"
                                       % (labels, ahu_canonical(t)))
                solved += 1
            elif outcome.status == EXHAUSTED:
                failed.append(t)
            else:
                inconclusive.append(ahu_canonical(t))
        rows.append(
            SizeResult(
                n=n,
                tree_count=tree_count,
                solved_count=solved,
                failures=tuple(ahu_canonical(t) for t in failed),
                inconclusive=tuple(inconclusive),
                seconds=time.perf_counter() - start,
                failure_graphs=tuple(failed),
                nodes=nodes,
                core_searches=core_searches,
            )
        )
    return ConjectureReport(max_n, tuple(rows))
