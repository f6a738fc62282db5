import os
import random
import re
import subprocess
import sys
from itertools import product

import pytest

from nplabel.errors import UsageError
from nplabel.families import generate, parse_family, random_tree, tree_from_pruefer
from nplabel import treescan
from nplabel.graph import Graph, VerificationReport, is_tree, verify
from nplabel.search import (
    EXHAUSTED,
    FOUND,
    SearchConfig,
    SearchOutcome,
    brute_force_oracle,
    find_labeling,
)
from nplabel.treescan import (
    ahu_canonical,
    crosscheck_tree_counts,
    enumerate_free_trees,
    enumerate_free_trees_by_extension,
    scan_conjecture,
)

# counts of non-isomorphic trees on 1..16 vertices (OEIS A000055)
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159,
                    7741, 19320]


def count_free_trees_by_pruefer(n):
    """Oracle: the number of free trees on n vertices, by an exhaustive
    Pruefer-sequence sweep with AHU dedup; n <= 8 only (the sequence space
    grows as n^(n-2))."""
    if n < 1 or n > 8:
        raise UsageError("Pruefer sweep limited to 1 <= n <= 8")
    if n <= 2:
        return 1
    seen = set()
    for seq in product(range(1, n + 1), repeat=n - 2):
        seen.add(ahu_canonical(tree_from_pruefer(n, list(seq))))
    return len(seen)


def permuted(g, perm):
    """Relabel g by the permutation perm (1-based mapping list)."""
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def _induced(t, vertices):
    """Reference core: the subgraph of t on ``vertices``, vertex i+1 being
    ``vertices[i]``, built through the checked constructor."""
    rank = {v: i for i, v in enumerate(vertices, 1)}
    return Graph(len(rank), [(rank[u], rank[v]) for u, v in t.edges
                             if u in rank and v in rank])


def reference_rooted_encoding(t, root):
    """Slow reference: AHU string of t rooted at ``root``, every vertex's
    subtree string and the parent array, by BFS and a post-order pass."""
    parent = [0] * (t.n + 1)
    order = [root]
    parent[root] = -1
    for v in order:
        for u in t.adj[v]:
            if parent[u] == 0 and u != root:
                parent[u] = v
                order.append(u)
    code = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code[u] for u in t.adj[v] if parent[u] == v)) + ")"
    return code[root], root, code, parent


def reference_centers(t):
    """Vertices of least eccentricity, by a BFS from every vertex."""
    def eccentricity(s):
        dist = {s: 0}
        queue = [s]
        for v in queue:
            for u in t.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return max(dist.values())

    ecc = {v: eccentricity(v) for v in range(1, t.n + 1)}
    return [v for v in ecc if ecc[v] == min(ecc.values())]


class TestAhuCanonical:
    def test_relabelled_path_identical(self):
        p3 = Graph(3, [(1, 2), (2, 3)])
        bent = Graph(3, [(1, 2), (1, 3)])  # path centered at vertex 1
        assert ahu_canonical(p3) == ahu_canonical(bent)

    def test_p4_differs_from_star(self):
        p4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
        k13 = Graph(4, [(1, 2), (1, 3), (1, 4)])
        assert ahu_canonical(p4) != ahu_canonical(k13)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        for n in (5, 8, 12):
            for seed in range(10):
                g = random_tree(n, seed)
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                assert ahu_canonical(g) == ahu_canonical(permuted(g, perm))

    def test_non_tree_rejected(self):
        with pytest.raises(UsageError):
            ahu_canonical(Graph(3, [(1, 2), (2, 3), (1, 3)]))

    @pytest.mark.parametrize("g", [
        # a triangle with a tail: the leaf stripping never empties a layer
        Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]),
        Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),  # C4
        Graph(4, [(1, 2), (3, 4)]),  # disconnected
    ])
    def test_non_trees_rejected(self, g):
        with pytest.raises(UsageError, match="^ahu_canonical requires a tree$"):
            ahu_canonical(g)

    def test_golden_strings(self):
        # the string names the scan's failed and inconclusive trees and
        # deduplicates the extension generator
        assert ahu_canonical(Graph(1, [])) == "()"
        assert ahu_canonical(Graph(4, [(1, 2), (2, 3), (3, 4)])) == "((())())"
        # bicentral, centers 1 and 2: rooted at 1 the string is
        # "((())()())", rooted at 2 "((()())())", which is smaller
        spur = Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3)])
        assert reference_centers(spur) == [1, 2]
        assert ahu_canonical(spur) == "((()())())"

    def test_golden_core(self):
        # a 14-vertex core met through a relabelled copy with one leaf hung
        # on a degree-2 vertex; the core keeps the tree's numbering, whose
        # edge list seeds the local search
        code = "((((()))((())))(((()))(())))"
        edges = {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8),
                 (5, 9), (6, 10), (7, 11), (8, 12), (9, 13), (10, 14)}
        relabelled = [(15 - u, 15 - v) for u, v in edges]
        t = Graph(15, relabelled + [(14, 15)])
        stripped, kept, _ = treescan._strip_leaves(t)
        assert (stripped, kept) == ([15], list(range(1, 15)))
        core = _induced(t, kept)
        assert core == Graph(14, relabelled)
        assert ahu_canonical(core) == code
        out = find_labeling(core, SearchConfig())
        assert (out.status, out.nodes_explored, out.steps) == (FOUND, 0, 21)


class TestEncoderAgainstReference:
    """The one encoder (leaf stripping, the second center worked out from
    the first) against the slow reference."""

    def sample(self):
        for n in range(1, 13):
            yield from enumerate_free_trees(n)
        rng = random.Random(2026)
        for n in range(1, 41):
            for seed in range(8):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                yield permuted(random_tree(n, seed), perm)

    def test_matches_reference(self):
        second_wins = ties = 0
        for t in self.sample():
            centers = reference_centers(t)
            codes = [reference_rooted_encoding(t, c)[0] for c in centers]
            assert ahu_canonical(t) == min(codes)
            if len(codes) == 2:
                second_wins += codes[1] < codes[0]
                ties += codes[1] == codes[0]
        assert second_wins and ties


class TestEnumeration:
    def test_counts_small(self):
        assert sum(1 for _ in enumerate_free_trees(1)) == 1
        assert sum(1 for _ in enumerate_free_trees(4)) == 2
        assert sum(1 for _ in enumerate_free_trees(7)) == 11

    def test_published_sequence(self):
        for n, want in enumerate(FREE_TREE_COUNTS, start=1):
            assert sum(1 for _ in enumerate_free_trees(n)) == want

    def test_all_outputs_are_trees_and_distinct(self):
        for n in (5, 7, 9):
            trees = list(enumerate_free_trees(n))
            assert all(is_tree(t) and t.n == n for t in trees)
            codes = {ahu_canonical(t) for t in trees}
            assert len(codes) == len(trees)

    def test_generators_agree(self):
        for n, a, b in crosscheck_tree_counts(9):
            assert a == b == FREE_TREE_COUNTS[n - 1]

    def test_extension_generator_codes_match(self):
        for n in range(4, 13):
            primary = {ahu_canonical(t) for t in enumerate_free_trees(n)}
            secondary = {
                ahu_canonical(t) for t in enumerate_free_trees_by_extension(n)
            }
            assert primary == secondary

    def test_unchecked_build_matches_checked_build(self):
        # the generator hands its adjacency lists to Graph unchecked; the
        # checked constructor, fed the same edges, builds the same Graph
        for n in range(1, 15):
            for t in enumerate_free_trees(n):
                assert t == Graph(t.n, t.edges)
                assert (t.n, t.m) == (n, n - 1)

    def test_pruefer_crosscheck(self):
        assert count_free_trees_by_pruefer(7) == 11
        assert count_free_trees_by_pruefer(8) == 23
        with pytest.raises(UsageError):
            count_free_trees_by_pruefer(9)

    def test_range_guard(self):
        with pytest.raises(UsageError):
            list(enumerate_free_trees(0))
        with pytest.raises(UsageError):
            list(enumerate_free_trees(99))

    def test_pruefer_decode_consistency(self):
        # every decoded sequence appears among the enumerated classes
        codes = {ahu_canonical(t) for t in enumerate_free_trees(6)}
        assert ahu_canonical(tree_from_pruefer(6, [1, 1, 1, 1])) in codes


class TestScanConjecture:
    def test_tiny_scan(self):
        report = scan_conjecture(4)
        assert [r.tree_count for r in report.rows] == [1, 1, 1, 2]
        assert report.conjecture_holds
        assert all(not r.inconclusive for r in report.rows)
        assert all(r.solved_count == r.tree_count for r in report.rows)

    def test_scan_to_seven(self):
        report = scan_conjecture(7)
        assert report.rows[-1].tree_count == 11
        assert report.conjecture_holds

    def test_scan_is_serial(self):
        # jobs stays only for callers that pass jobs=1
        assert scan_conjecture(6, jobs=1).conjecture_holds
        for jobs in (2, 0):
            with pytest.raises(UsageError):
                scan_conjecture(6, jobs=jobs)

    def test_trees_stream_one_at_a_time(self, monkeypatch):
        # a tree's labeling is verified before the next tree is generated,
        # so the scan holds one pending tree, never a list of a size's trees
        events = []

        def generating(n):
            for t in enumerate_free_trees(n):
                events.append(("tree", t))
                yield t

        def verifying(t, labels):
            events.append(("verify", t))
            return verify(t, labels)

        monkeypatch.setattr(treescan, "enumerate_free_trees", generating)
        monkeypatch.setattr(treescan, "verify", verifying)
        report = scan_conjecture(9)
        trees = [t for n in range(1, 10) for t in enumerate_free_trees(n)]
        assert len(trees) == sum(r.tree_count for r in report.rows) == 95
        assert events == [(kind, t) for t in trees for kind in ("tree", "verify")]

    def test_core_encoded_once_per_shape(self, monkeypatch):
        # the memo sends only the 158 distinct rooted cores up to 14
        # vertices to find_labeling; every tree is still verified
        cores, verified = [], []

        def searching(core, cfg=SearchConfig()):
            cores.append(core)
            return find_labeling(core, cfg)

        def verifying(t, labels):
            verified.append(t)
            return verify(t, labels)

        monkeypatch.setattr(treescan, "find_labeling", searching)
        monkeypatch.setattr(treescan, "verify", verifying)
        report = scan_conjecture(14)
        assert sum(r.tree_count for r in report.rows) == 5447
        assert (len(cores), len(verified)) == (158, 5447)
        # each core is irreducible, and no two are the same graph
        assert not any(treescan._strip_leaves(core)[0] for core in cores)
        assert len(set(cores)) == 158

    def test_graph_builds_counted(self, monkeypatch):
        # the enumerated trees and the cores built from their shapes all
        # skip the checked constructor
        calls = []
        checked_init = Graph.__init__

        def counting(self, n, edges):
            calls.append(n)
            checked_init(self, n, edges)

        monkeypatch.setattr(Graph, "__init__", counting)
        report = scan_conjecture(14)
        assert sum(r.tree_count for r in report.rows) == 5447
        assert len(calls) == 0

    def test_table_output(self):
        text = scan_conjecture(3).table()
        assert "trees" in text and text.count("\n") == 4

    def test_budget_starvation_reports_inconclusive(self):
        report = scan_conjecture(8, SearchConfig(node_budget=2))
        assert any(r.inconclusive for r in report.rows)
        # an exhausted budget is not a counterexample
        assert report.conjecture_holds

    def test_range_guard(self):
        with pytest.raises(UsageError):
            scan_conjecture(0)


class TestPendantCore:
    def test_irreducible_counts(self):
        # trees that are their own core: no leaf hangs on a vertex of degree >= 3
        counts = {
            n: sum(not treescan._strip_leaves(t)[0] for t in enumerate_free_trees(n))
            for n in (12, 13, 14, 15)
        }
        assert counts == {12: 16, 13: 29, 14: 49, 15: 89}

    def test_star_reduces_to_path(self):
        star = Graph(6, [(1, v) for v in range(2, 7)])
        stripped, kept, _ = treescan._strip_leaves(star)
        assert (stripped, kept) == ([2, 3, 4], [1, 5, 6])
        assert _induced(star, kept) == Graph(3, [(1, 2), (1, 3)])

    def test_core_labeling_extends_to_tree(self):
        for n in range(1, 12):
            for t in enumerate_free_trees(n):
                stripped, kept, shape = treescan._strip_leaves(t)
                core = treescan._tree_from_levels(shape)
                labels = treescan._tree_labeling(
                    kept, stripped, find_labeling(core).labeling)
                assert verify(t, labels).ok


class TestShapeKey:
    def test_enumeration_numbers_in_preorder(self):
        # the parent of v >= 2 is its one smaller neighbour, adj[v][0]
        for n in range(2, 15):
            for t in enumerate_free_trees(n):
                for v in range(2, n + 1):
                    assert t.adj[v][0] < v and all(u > v for u in t.adj[v][1:])

    def test_same_shape_same_core(self):
        # the memo keeps one search per shape: the core built from the
        # shape is the tree's subgraph on the kept vertices, in kept-vertex
        # numbering, and vertex 1, a center, is never stripped
        shapes = set()
        trees = 0
        for n in range(1, 14):
            for t in enumerate_free_trees(n):
                _, kept, shape = treescan._strip_leaves(t)
                assert shape[0] == 1
                assert treescan._tree_from_levels(shape) == _induced(t, kept)
                shapes.add(shape)
                trees += 1
        # 2,288 trees to 13 vertices have 86 distinct shapes
        assert (len(shapes), trees) == (86, 2288)


class TestScanReduction:
    def test_every_found_labeling_verified(self, monkeypatch):
        checked = []

        def recording_verify(g, labels):
            report = verify(g, labels)
            checked.append((ahu_canonical(g), report.ok))
            return report

        monkeypatch.setattr(treescan, "verify", recording_verify)
        report = scan_conjecture(11)
        assert len(checked) == sum(r.tree_count for r in report.rows) == 436
        assert len({code for code, _ in checked}) == 436
        assert all(ok for _, ok in checked)

    def test_invalid_extension_raises(self, monkeypatch):
        monkeypatch.setattr(
            treescan, "verify", lambda g, labels: VerificationReport(False, (), 0)
        )
        with pytest.raises(RuntimeError, match="invalid labeling"):
            scan_conjecture(3)

    def test_statuses_agree_with_oracle(self):
        report = scan_conjecture(8)
        for row in report.rows:
            trees = list(enumerate_free_trees(row.n))
            oracle = [brute_force_oracle(t).status for t in trees]
            assert row.solved_count == oracle.count(FOUND)
            assert list(row.failures) == [
                ahu_canonical(t) for t, s in zip(trees, oracle) if s == EXHAUSTED
            ]
            assert not row.inconclusive

    def test_exhausted_comes_from_full_tree_search(self, monkeypatch):
        searched = []

        def exhausted(g, cfg=SearchConfig()):
            searched.append(g)
            return SearchOutcome(EXHAUSTED, None, 1, steps=2)

        monkeypatch.setattr(treescan, "find_labeling", exhausted)
        report = scan_conjecture(6)
        for row in report.rows:
            trees = list(enumerate_free_trees(row.n))
            assert list(row.failure_graphs) == trees
            assert row.nodes == row.core_searches + row.tree_count
            assert row.steps == 2 * row.nodes
        assert sum(r.core_searches for r in report.rows) == 6
        assert len(searched) == 6 + 14

    def test_each_core_searched_once(self):
        report = scan_conjecture(14)
        # one search per rooted core shape, at the size where it is first met
        assert [r.core_searches for r in report.rows] == [
            1, 1, 1, 1, 1, 1, 2, 2, 4, 8, 10, 22, 32, 72]
        # the local search settles every core, so no search nodes are spent
        assert [r.steps for r in report.rows] == [
            0, 0, 0, 0, 0, 3, 2, 5, 21, 63, 50, 189, 274, 771]
        assert not any(r.nodes for r in report.rows)

    def test_irreducible_tree_searched_once(self, monkeypatch):
        # an irreducible tree is its own core: an inconclusive core search
        # is not repeated on the tree
        searched = []

        def recording(g, cfg=SearchConfig()):
            searched.append(ahu_canonical(g))
            return find_labeling(g, cfg)

        monkeypatch.setattr(treescan, "find_labeling", recording)
        report = scan_conjecture(8, SearchConfig(node_budget=2))
        assert any(r.inconclusive for r in report.rows)
        irreducible = [ahu_canonical(t) for n in range(1, 9)
                       for t in enumerate_free_trees(n)
                       if not treescan._strip_leaves(t)[0]]
        assert [searched.count(code) for code in irreducible] == [1] * len(irreducible)


class TestScanSettles:
    def test_scan_to_sixteen_conclusive(self):
        report = scan_conjecture(16)
        last = report.rows[-1]
        assert (last.tree_count, last.solved_count) == (19320, 19320)
        assert not any(r.inconclusive or r.failures for r in report.rows)

    def test_scans_repeat_exactly(self):
        # the local search's seed is the graph's edge list, which does not
        # depend on the interpreter's string hash seed
        script = ("from nplabel.treescan import scan_conjecture; "
                  "from nplabel.families import generate, parse_family; "
                  "from nplabel.search import find_labeling; "
                  "print([r.steps for r in scan_conjecture(13).rows]); "
                  "print(find_labeling(generate(parse_family('stargon:6,4'))))")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(treescan.__file__)))
        runs = [
            subprocess.run([sys.executable, "-c", script], check=True, text=True,
                           capture_output=True, env=dict(env, PYTHONHASHSEED=seed)
                           ).stdout
            for seed in ("1", "2")
        ]
        here = [r.steps for r in scan_conjecture(13).rows]
        star_gon = find_labeling(generate(parse_family("stargon:6,4")))
        assert (star_gon.nodes_explored, star_gon.steps) == (0, 194)
        assert runs == ["%s\n%s\n" % (here, star_gon)] * 2


# input checks that no other test reaches: (function, arguments, error, message)
INPUT_CHECKS = [
    (enumerate_free_trees_by_extension, (0,), UsageError,
     "tree enumeration supports 1 <= n <= 18"),
    (enumerate_free_trees_by_extension, (19,), UsageError,
     "tree enumeration supports 1 <= n <= 18"),
]


@pytest.mark.parametrize("fn, args, error, message", INPUT_CHECKS,
                         ids=["%s%r" % (fn.__name__, args) for fn, args, _, _ in INPUT_CHECKS])
def test_input_checks(fn, args, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        fn(*args)
