"""Free-tree enumeration and the conjecture scan over all small trees.

Two independent generators back each other up: the primary is the
Wright-Richmond-Odlyzko-McKay generator, which steps through rooted level
sequences (Beyer-Hedetniemi successor) and emits exactly one per free tree,
with no filter; the secondary grows trees by leaf attachment with AHU
deduplication.  Matching counts between the two is the self-validation the
scan relies on.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import UsageError
from .graph import Graph, is_tree, verify, with_pendant
from .search import EXHAUSTED, FOUND, SearchConfig, SearchOutcome, find_labeling

MAX_ENUM_N = 18


def ahu_canonical(t: Graph) -> str:
    """Canonical string of a free tree: AHU encoding rooted at the center
    (for bicentral trees, the center whose string is least)."""
    if not is_tree(t):
        # _canonical_rooting's leaf stripping never ends on a cycle
        raise UsageError("ahu_canonical requires a tree")
    return _canonical_rooting(t.adj)


def _canonical_rooting(adj) -> str:
    """AHU string of the tree ``adj``, rooted at its center.

    Leaves are stripped layer by layer until the center or the two centers
    are left; each stripped vertex's string is built from its children's,
    which are already stripped.  With two centers the string is the lesser
    of the two rootings, each worked out from the two centers' children."""
    n = len(adj) - 1
    degree = [len(a) for a in adj]
    code: List[Optional[str]] = [None] * (n + 1)

    def encode(v, above=()):
        codes = [code[u] for u in adj[v] if code[u] is not None]
        codes.extend(above)
        codes.sort()
        return "(" + "".join(codes) + ")"

    layer = [v for v in range(1, n + 1) if degree[v] == 1] or [1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            code[v] = encode(v)
            for u in adj[v]:
                if code[u] is None:  # the parent
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    if len(layer) == 1:
        return encode(layer[0])
    a, b = layer
    return min(encode(a, [encode(b)]), encode(b, [encode(a)]))


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
    try:
        return levels.index(2, 2)
    except ValueError:
        return len(levels)


def _tree_from_levels(levels: Sequence[int]) -> Graph:
    """Tree whose vertex i+1 is position i of the level sequence.

    The adjacency lists are built in the walk itself: the parent of v is
    the latest vertex one level up, which precedes v, and the children of a
    vertex follow it in increasing order, so each list is its parent, then
    its children, sorted with no duplicate and no loop, and there are n - 1
    edges.  The Graph therefore takes the lists unchecked."""
    last = [0] * (len(levels) + 1)  # latest vertex seen at each level
    last[1] = 1
    adj = [[], []]  # vertex 0 unused; the root's list grows below
    for v, level in enumerate(levels[1:], 2):
        parent = last[level - 1]
        adj[parent].append(v)
        adj.append([parent])
        last[level] = v
    return Graph._from_sorted_lists(adj, len(levels) - 1)


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Wright, Richmond, Odlyzko & McKay, *Constant time generation of free
    trees* (SIAM J. Comput. 1986): a rooted level sequence stands for its
    free tree when the root's first subtree (the left half) is not above
    the rest of the tree in (height, size, sequence).  An out-of-order
    sequence skips straight to the next rooted sequence that changes the
    left half, with the tail reset to the lowest path allowed.  The
    comparison reads the heights, then the sizes, from the sequence itself
    and builds the two shifted sequences only when both tie.

    Each tree is ``_tree_from_levels`` of its level sequence, rooted at a
    center, vertex 1, and numbered in preorder: the parent of v >= 2 is
    ``adj[v][0]``, which the scan's shape key (``_strip_leaves``) reads."""
    if not (1 <= n <= MAX_ENUM_N):
        raise UsageError("tree enumeration supports 1 <= n <= %d" % MAX_ENUM_N)
    if n == 1:
        yield _tree_from_levels([1])
        return
    # the path, rooted at a center
    levels = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while True:
        # the left half is levels[1:m] one level up, the rest [1] + levels[m:]
        m = _second_subtree(levels)
        left_height, rest_height = max(levels[1:m]) - 1, max(levels[m:], default=1)
        if left_height != rest_height:
            in_order = left_height < rest_height
        elif m - 1 != n - m + 1:
            in_order = m - 1 < n - m + 1
        else:
            in_order = [level - 1 for level in levels[1:m]] <= [1] + levels[m:]
        if in_order:
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


# -- secondary generator (cross-check) ---------------------------------------


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


def _strip_leaves(t: Graph):
    """(stripped, kept, shape): strip each leaf whose neighbour has
    degree >= 3, in vertex order, leaving the tree's pendant core.

    Stripping leaves the neighbour with degree >= 2, so it never makes a new
    leaf and one pass over the leaves suffices.  ``stripped`` lists the
    leaves removed, in removal order, and ``kept`` the other vertices, in
    vertex order.  By the pendant lemma (``labelers.extend_pendant``) any
    labeling of the core extends to the tree (``_tree_labeling``).

    ``shape`` is the tuple of the kept vertices' levels below vertex 1,
    taking ``adj[v][0]`` as the parent of v >= 2.  On a tree from
    ``enumerate_free_trees`` it is the core's level sequence, so the core
    is ``_tree_from_levels(shape)``, its vertex i+1 being ``kept[i]``."""
    adj = t.adj
    degree = list(map(len, adj))
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
    return stripped, kept, tuple(shape)


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


class SizeResult(NamedTuple):
    n: int
    tree_count: int
    solved_count: int
    failures: Tuple[str, ...]  # canonical encodings of Exhausted trees
    inconclusive: Tuple[str, ...]
    seconds: float
    failure_graphs: Tuple[Graph, ...] = ()
    nodes: int = 0  # search nodes spent at this size, core and full-tree searches
    core_searches: int = 0  # core shapes first met, and searched, at this size
    steps: int = 0  # local-search steps, summed like nodes


class ConjectureReport(NamedTuple):
    max_n: int
    rows: Tuple[SizeResult, ...]

    @property
    def conjecture_holds(self) -> bool:
        return all(not r.failures for r in self.rows)

    def table(self) -> str:
        lines = ["%4s %8s %8s %8s %12s %6s %10s %8s %9s" % (
            "n", "trees", "solved", "failed", "inconclusive", "cores", "nodes", "steps",
            "seconds")]
        for r in self.rows:
            lines.append(
                "%4d %8d %8d %8d %12d %6d %10d %8d %9.2f"
                % (r.n, r.tree_count, r.solved_count, len(r.failures),
                   len(r.inconclusive), r.core_searches, r.nodes, r.steps, r.seconds)
            )
        return "\n".join(lines) + "\n"


def scan_conjecture(
    max_n: int, cfg: SearchConfig = SearchConfig(), jobs: int = 1
) -> ConjectureReport:
    """Settle every non-isomorphic tree of each size up to max_n; any
    Exhausted tree would falsify the conjecture and is surfaced with its
    canonical encoding and graph.

    The trees stream from ``enumerate_free_trees`` and are settled one at a
    time, so memory does not grow with the number of trees.  Each tree's
    leaves are stripped (``_strip_leaves``); the pendant core that is left
    is searched by ``find_labeling`` (a seeded local search, then a complete
    search), and its labeling is extended to the tree and verified.

    One memo, spanning sizes, holds each core's search outcome, keyed by
    the core's level sequence (``shape``), from which the core is built, so
    each shape's core is searched once and its labels serve every tree
    with that shape.  A tree whose core search is exhausted gets the full
    search of the tree itself, so Exhausted always comes from a full-tree
    search; so does a tree that had leaves stripped and whose core search
    is inconclusive.  An irreducible tree is its own core, so an
    inconclusive core search is its result.

    ``jobs`` accepts only 1.  It is kept for existing callers that pass
    ``jobs=1`` and goes in the next change to the benchmark."""
    if not (1 <= max_n <= MAX_ENUM_N):
        raise UsageError("max_n must be within 1..%d" % MAX_ENUM_N)
    if jobs != 1:
        raise UsageError("the scan is serial; jobs must be 1, got %r" % (jobs,))
    # core shape -> outcome of the core's search; it spans sizes, since a
    # core met at one size recurs among larger trees, and is local to one call
    memo: Dict[Tuple[int, ...], SearchOutcome] = {}
    rows = []
    for n in range(1, max_n + 1):
        start = time.perf_counter()
        tree_count = nodes = steps = core_searches = solved = 0
        failed, inconclusive = [], []
        for t in enumerate_free_trees(n):
            tree_count += 1
            stripped, kept, shape = _strip_leaves(t)
            outcome = memo.get(shape)
            if outcome is None:
                outcome = memo[shape] = find_labeling(_tree_from_levels(shape), cfg)
                nodes += outcome.nodes_explored
                steps += outcome.steps
                core_searches += 1
            if outcome.status == FOUND:
                labels = _tree_labeling(kept, stripped, outcome.labeling)
            elif outcome.status == EXHAUSTED or stripped:
                outcome = find_labeling(t, cfg)
                nodes += outcome.nodes_explored
                steps += outcome.steps
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
                steps=steps,
            )
        )
    return ConjectureReport(max_n, tuple(rows))
