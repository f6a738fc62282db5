import gc
import math
import random
import tracemalloc
import weakref
from collections import namedtuple
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from contraction import contract_reference
from family_edges import gear_edges
from nplabel.errors import LabelingInvalid, UsageError
from nplabel.families import (gear_graph, generate, parse_family, snake_graph,
                               snake_vertex_count, star_gon_graph)
from nplabel.graph import (
    Graph,
    check_vertex,
    is_connected,
    is_tree,
    VerificationReport,
    Violation,
    bfs_dist,
    verify,
    with_pendant,
)
from nplabel.labelers import label_family
from nplabel.treescan import _tree_from_levels


def traced_build(build):
    """The bytes a 60,000-edge build keeps, and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        g = build()
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert g.m == 60000
    return kept, peak


# the first faulty edge is reported, and a self-loop outranks a range error
# on the same edge
FIRST_FAULTS = [
    (3, [(1, 2), (2, 1), (3, 3)], "duplicate edge (1,2)"),
    (3, [(3, 3), (1, 2), (2, 1)], "self-loop at vertex 3"),
    (3, [(5, 5)], "self-loop at vertex 5"),
    (3, [(0, 0)], "self-loop at vertex 0"),
    (3, [(2, 1), (4, 1), (1, 2)], "edge (4,1) out of range 1..3"),
    (3, [(0, 2)], "edge (0,2) out of range 1..3"),
    (4, [(3, 2), (1, 4), (2, 3)], "duplicate edge (2,3)"),
    (3, [(1, 2), (2, 1), (1, 4)], "duplicate edge (1,2)"),
]


def two_pass_reference(n, edges):
    # the earlier constructor: validate into a set, then fill the
    # adjacency from the sorted edge set
    normalized = set()
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if u == v:
            raise UsageError("self-loop at vertex %d" % u)
        if not (1 <= u <= n and 1 <= v <= n):
            raise UsageError("edge (%d,%d) out of range 1..%d" % (u, v, n))
        if e in normalized:
            raise UsageError("duplicate edge (%d,%d)" % e)
        normalized.add(e)
    adj = [[] for _ in range(n + 1)]
    for u, v in sorted(normalized):
        adj[u].append(v)
        adj[v].append(u)
    return tuple(sorted(normalized)), tuple(map(tuple, adj))


def hub_graphs():
    """(name, n, edges, hub) for graphs whose hub's list is long: stars
    centred at 1 and at n, gears and complete graphs, so a spoke's duplicate
    is looked for in the list of its smaller end: the hub's when the hub is
    1, the leaf's when it is n."""
    for n in (2, 3, 9, 40):
        yield "star1:%d" % n, n, [(1, v) for v in range(2, n + 1)], 1
        yield "starn:%d" % n, n, [(v, n) for v in range(1, n)], n
    for k in (3, 4, 12):
        g = gear_graph(k)
        yield "gear:%d" % k, g.n, list(g.edges), 1
    for n in range(2, 31):
        yield "K%d" % n, n, list(combinations(range(1, n + 1), 2)), n


def gcd_reference(g, labels):
    """What verify reports, from first principles: the gcd of every whole
    neighborhood, by reduce, at each vertex of degree >= 2."""
    if len(labels) != g.n:
        raise UsageError("labeling length %d does not match vertex count %d"
                         % (len(labels), g.n))
    if sorted(labels) != list(range(1, g.n + 1)):
        raise LabelingInvalid("labels are not a bijection onto 1..%d" % g.n)
    violations, checked = [], 0
    for v in range(1, g.n + 1):
        if len(g.adj[v]) < 2:
            continue
        checked += 1
        vals = sorted(labels[u - 1] for u in g.adj[v])
        d = reduce(math.gcd, vals)
        if d != 1:
            violations.append(Violation(v, tuple(vals), d))
    return VerificationReport(not violations, tuple(violations), checked)


def full_tree_codes(k):
    """Preorder codes of full k-ary trees: a leaf is 0, an inner node is 1
    followed by its k subtrees."""
    return st.recursive(st.just("0"), lambda sub: st.lists(
        sub, min_size=k, max_size=k).map(lambda t: "1" + "".join(t)), max_leaves=12)


def _joined(ints):
    """Spec parameter text from a strategy of int sequences."""
    return ints.map(lambda t: ",".join(map(str, t)))


def _ints(*ranges):
    return _joined(st.tuples(*(st.integers(lo, hi) for lo, hi in ranges)))


# each kind with a closed-form labeler, and parameters of its small members
SMALL_PARAMS = {
    "path": _ints((1, 15)),
    "gear": _ints((3, 15)),
    "mobius": _ints((3, 15)),
    "book5": _ints((1, 15)),
    "completebinary": _ints((1, 15)),
    "snake": _ints((3, 5), (2, 6)),
    "stargon": _ints((3, 5), (3, 6)),
    "book": _ints((3, 5), (1, 6)),
    "banana": _ints((3, 8), (4, 6)),
    "firecracker": _ints((1, 8), (3, 6)),
    "caterpillar": _joined(st.lists(st.integers(0, 3), min_size=1, max_size=5)),
    "spider": _joined(st.lists(st.integers(1, 3), min_size=3, max_size=5)),
    "fullbinary": full_tree_codes(2),
    "kary": st.integers(2, 3).flatmap(
        lambda k: full_tree_codes(k).map(lambda c: "%d,%s" % (k, c))),
    "cayley": st.lists(full_tree_codes(2), min_size=3, max_size=3).map(
        lambda t: "3,1" + "".join(t)),
}


def P(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def C(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(UsageError, match=r"^self-loop at vertex 1$"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(UsageError, match=r"^edge \(1,4\) out of range 1\.\.3$"):
            Graph(3, [(1, 4)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(UsageError, match=r"^duplicate edge \(1,2\)$"):
            Graph(3, [(1, 2), (2, 1)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(UsageError, match=r"^vertex count must be positive, got 0$"):
            Graph(0, [])

    @pytest.mark.parametrize("n, edges, message", FIRST_FAULTS)
    def test_first_fault_reported(self, n, edges, message):
        with pytest.raises(UsageError) as info:
            Graph(n, edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("n, edges, message", FIRST_FAULTS)
    def test_first_fault_reported_one_shot(self, n, edges, message):
        with pytest.raises(UsageError) as info:
            Graph(n, iter(edges))
        assert str(info.value) == message

    def test_keeps_nothing_of_its_input(self):
        class Edge(list):  # unlike a tuple, a list subclass takes weakrefs
            pass

        n = 600
        rng = random.Random(20261019)
        pairs = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)}
        pairs = [(u, v) for u, v in pairs if u < v]
        refs = []

        def edges():
            for u, v in pairs:
                # int(str(.)) makes a fresh int object for every id above 256
                e = Edge([int(str(v)), int(str(u))])
                refs.append(weakref.ref(e))
                yield e

        g = Graph(n, edges())
        gc.collect()
        assert len(refs) == g.m == len(pairs)
        assert all(ref() is None for ref in refs)
        assert g.edges == tuple(sorted(pairs))
        objects = {}
        for nbrs in g.adj:
            for w in nbrs:
                objects.setdefault(w, set()).add(id(w))
        assert max(objects) > 256
        assert all(len(ids) == 1 for ids in objects.values())

    def test_adjacency_sorted(self):
        g = Graph(4, [(2, 4), (2, 3), (1, 2)])
        assert g.adj[2] == (1, 3, 4)
        assert g.degree(2) == 3
        assert g.degree(1) == 1

    @given(st.integers(1, 12), st.data())
    def test_adjacency_is_sorted_neighbour_set(self, n, data):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([]))
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                                   max_size=len(chosen)))
        g = Graph(n, [(v, u) if flip else (u, v)
                      for (u, v), flip in zip(chosen, flips)])
        assert g.edges == tuple(sorted(chosen))
        assert g.m == len(chosen)
        for v in range(n + 1):
            nbrs = {b for a, b in chosen if a == v} | {a for a, b in chosen if b == v}
            assert g.adj[v] == tuple(sorted(nbrs))

    def test_stores_only_n_and_adj(self):
        g = Graph(4, [(3, 4), (2, 1), (1, 3)])
        assert not hasattr(g, "__dict__")
        assert {name: getattr(g, name) for name in Graph.__slots__} == {
            "n": 4, "adj": ((), (2, 3), (1,), (1, 4), (3,))}
        assert g.m == 3
        assert g.edges == ((1, 2), (1, 3), (3, 4))
        assert repr(g) == "Graph(n=4, m=3)"

    @pytest.mark.parametrize("build, m", [
        (lambda: Graph(5, [(4, 2), (1, 2)]), 2),  # isolated vertices 3 and 5
        (lambda: Graph(1, []), 0),
        (lambda: gear_graph(5), 15),
        (lambda: _tree_from_levels([1, 2, 3, 3, 2, 3]), 5),
    ], ids=["checked-isolated", "n1", "direct-family", "tree-from-levels"])
    def test_m_counts_edges(self, build, m):
        g = build()
        assert g.m == len(g.edges) == m

    def test_equality_and_hash_follow_adjacency(self):
        g = Graph(4, [(1, 2), (2, 3)])
        assert g == Graph(4, [(3, 2), (2, 1)])
        assert hash(g) == hash(Graph(4, [(3, 2), (2, 1)]))
        assert g != Graph(3, [(1, 2), (2, 3)])  # the isolated vertex 4 counts
        assert g != Graph(4, [(1, 2), (3, 4)])
        assert g != g.adj

    def test_edge_shapes_agree(self):
        pairs = [(1, 2), (3, 2), (4, 1), (2, 4)]
        Pair = namedtuple("Pair", "u v")
        expect = Graph(4, pairs)
        for edges in ([list(e) for e in pairs], (e for e in pairs),
                      [Pair(*e) for e in pairs], [(v, u) for u, v in pairs]):
            g = Graph(4, edges)
            assert (g.edges, g.adj) == (expect.edges, expect.adj)
            assert all(type(e) is tuple and e[0] < e[1] for e in g.edges)

    def test_matches_two_pass_reference(self):
        rng = random.Random(20261018)
        rejected = 0
        for case in range(300):
            n = rng.randint(1, 300)
            edges = set()
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.randint(1, n), rng.randint(1, n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            rng.shuffle(edges)
            if case % 5 == 0:  # inject a fault: a loop, a range error or a duplicate
                fault = rng.choice([(1, 1), (n, n + 1), (0, 1)] + edges[:1])
                edges.insert(rng.randint(0, len(edges)), fault[::rng.choice((1, -1))])
            try:
                expect = two_pass_reference(n, edges)
            except UsageError as exc:
                rejected += 1
                with pytest.raises(UsageError) as info:
                    Graph(n, edges)
                assert str(info.value) == str(exc)
                continue
            g = Graph(n, edges)
            assert (g.edges, g.adj) == expect
        assert rejected == 60

    @pytest.mark.parametrize("order", ["shuffled", "ascending", "descending"])
    @pytest.mark.parametrize("name, n, edges, hub", list(hub_graphs()),
                             ids=[case[0] for case in hub_graphs()])
    def test_hub_duplicates_match_reference(self, name, n, edges, hub, order):
        # each list stays sorted as it grows: in ascending order every edge
        # is appended and a duplicate put right after its original is the
        # last entry of a list; in descending order every edge goes to the
        # front; shuffled order mixes both
        rng = random.Random(name)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        if order == "shuffled":
            rng.shuffle(edges)
        else:
            edges.sort(key=sorted, reverse=order == "descending")
        g = Graph(n, edges)
        assert (g.edges, g.adj) == two_pass_reference(n, edges)
        spokes = [i for i, e in enumerate(edges) if hub in e]
        for i in rng.sample(spokes, min(4, len(spokes))):
            for dup in (edges[i], edges[i][::-1]):
                injected = [[dup]]
                for fault in ((hub, n + 1), (0, hub)):
                    injected += [[dup, fault], [fault, dup]]
                for faults in injected:
                    # after the original: right after it, or anywhere later
                    at = rng.choice((i + 1, rng.randint(i + 1, len(edges))))
                    bad = edges[:at] + faults + edges[at:]
                    with pytest.raises(UsageError) as expect:
                        two_pass_reference(n, bad)
                    with pytest.raises(UsageError) as info:
                        Graph(n, bad)
                    assert str(info.value) == str(expect.value)
                    kind = "duplicate" if faults[0] is dup else "edge"
                    assert str(info.value).startswith(kind)

    def test_build_peaks_near_what_it_keeps(self):
        # the duplicate check holds no set, so a checked build of the gear's
        # edge stream allocates little beyond the adjacency it keeps
        kept, peak = traced_build(lambda: Graph(*gear_edges(20000)))
        assert peak <= 1.6 * kept

    def test_direct_build_peaks_near_what_it_keeps(self):
        # the family build cuts its tuples from one id list, and holds
        # little beside them
        kept, peak = traced_build(lambda: gear_graph(20000))
        assert peak <= 1.6 * kept

    def test_equality_and_hash(self):
        a = Graph(3, [(1, 2), (2, 3)])
        b = Graph(3, [(2, 3), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(1, 2)])

    def test_pickle_roundtrip(self):
        import pickle

        g = C(5)
        assert pickle.loads(pickle.dumps(g)) == g


class TestNeighborhood:
    """``adj[v]`` is the sorted open neighborhood of v."""

    def test_path_interior(self):
        assert P(3).adj[2] == (1, 3)

    def test_path_end(self):
        assert P(3).adj[1] == (2,)

    def test_cycle(self):
        assert C(4).adj[1] == (2, 4)

    def test_out_of_range(self):
        with pytest.raises(UsageError, match="^vertex 4 out of range 1..3$"):
            check_vertex(P(3), 4)


class TestVerify:
    def test_c4_identity_fails_at_both_even_neighborhoods(self):
        report = verify(C(4), [1, 2, 3, 4])
        assert not report.ok
        assert [v.vertex for v in report.violations] == [1, 3]
        for v in report.violations:
            assert v.neighbor_labels == (2, 4)
            assert v.gcd_value == 2

    def test_c4_swapped_passes(self):
        report = verify(C(4), [1, 2, 4, 3])
        assert report.ok
        assert report.checked_count == 4

    def test_p3_path_labels(self):
        report = verify(P(3), [2, 1, 3])
        assert report.ok
        assert report.checked_count == 1

    def test_leaves_never_checked(self):
        # star: only the center has degree >= 2
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        report = verify(g, [4, 1, 2, 3])
        assert report.ok
        assert report.checked_count == 1

    def test_non_bijection_rejected(self):
        with pytest.raises(LabelingInvalid):
            verify(P(3), [1, 1, 2])
        with pytest.raises(LabelingInvalid):
            verify(P(3), [1, 1.5, 3])
        with pytest.raises(LabelingInvalid):  # -1 would index the slot of 3
            verify(P(3), [-1, 1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            verify(P(3), [1, 2])

    def test_report_of_several_violations(self):
        # C8 with chords 2-6 and 4-8
        g = Graph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                      (1, 8), (2, 6), (4, 8)])
        report = verify(g, [2, 1, 4, 8, 7, 6, 5, 3])
        assert not report.ok
        assert report.checked_count == 8
        # in vertex order, neighbour labels ascending (vertices 5 and 7
        # meet theirs as 8, 6 and 6, 3)
        assert report.violations == (
            Violation(2, (2, 4, 6), 2),
            Violation(5, (6, 8), 2),
            Violation(7, (3, 6), 3),
        )

    def test_first_pair_sharing_a_factor_is_cleared_later(self):
        # the center's first two neighbour labels, 2 and 4, share 2; the
        # third, 3, clears it
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        assert verify(g, [1, 2, 4, 3]) == VerificationReport(True, (), 1)

    def test_whole_neighbourhood_sharing_a_factor_is_reported_sorted(self):
        # the center meets 6, 4, 2 in adjacency order
        g = Graph(6, [(1, 2), (1, 3), (1, 4), (5, 6)])
        assert verify(g, [1, 6, 4, 2, 3, 5]) == VerificationReport(
            False, (Violation(1, (2, 4, 6), 2),), 1)

    @given(st.integers(1, 12), st.data())
    def test_random_bijections_match_reference(self, n, data):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)
                               if pairs else st.just([])))
        labels = data.draw(st.permutations(range(1, n + 1)))
        assert verify(g, labels) == gcd_reference(g, labels)

    @given(st.sampled_from(sorted(SMALL_PARAMS)), st.data())
    def test_family_labelings_match_reference(self, kind, data):
        spec = parse_family("%s:%s" % (kind, data.draw(SMALL_PARAMS[kind])))
        g = generate(spec)
        labels = label_family(spec, g)
        report = verify(g, labels)
        assert report == gcd_reference(g, labels)
        assert report.ok
        shuffled = data.draw(st.permutations(labels))
        assert verify(g, shuffled) == gcd_reference(g, shuffled)

    def test_matches_reference(self):
        def outcome(fn, g, labels):
            try:
                return fn(g, labels)
            except (UsageError, LabelingInvalid) as e:
                return type(e), str(e)

        rng = random.Random(10)
        seen = []
        for _ in range(1500):
            n = rng.randint(1, 14)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            labels = rng.sample(range(1, n + 1), n)
            if rng.random() < 0.1:
                labels[rng.randrange(n)] = rng.randint(0, n + 1)
            if rng.random() < 0.05:
                labels = labels[:rng.randrange(n)]
            got = outcome(verify, g, labels)
            assert got == outcome(gcd_reference, g, labels)
            seen.append(got.ok if isinstance(got, VerificationReport) else got[0])
        # valid, violated and rejected labelings all occur
        assert min(seen.count(k) for k in (True, False, UsageError, LabelingInvalid)) > 20


class TestStructurePredicates:
    def test_path_is_tree(self):
        assert is_tree(P(3))

    def test_cycle_is_not_tree(self):
        assert not is_tree(C(4))

    def test_disconnected_is_not_tree(self):
        assert not is_tree(Graph(4, [(1, 2), (3, 4)]))

    def test_connectivity(self):
        assert is_connected(C(5))
        assert not is_connected(Graph(3, [(1, 2)]))
        assert is_connected(Graph(1, []))

    def test_bfs_dist(self):
        assert bfs_dist(C(6), 1) == [-1, 0, 1, 2, 3, 2, 1]
        assert bfs_dist(P(4), 3) == [-1, 2, 1, 0, 1]
        assert bfs_dist(Graph(4, [(1, 2), (3, 4)]), 4) == [-1, -1, -1, 1, 0]

    @pytest.mark.parametrize("v", [0, -1, 4])
    def test_bfs_dist_source_range_checked(self, v):
        with pytest.raises(UsageError, match="^vertex %d out of range 1\\.\\.3$" % v):
            bfs_dist(P(3), v)


class TestContract:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_contracted_snake_is_star_gon(self, k):
        for n in (3, 4, 10, 3000):
            m = snake_vertex_count(k, n + 1)
            snake = snake_graph(k, n + 1)
            assert contract_reference(snake, 1, m) == star_gon_graph(k, n)
            assert contract_reference(snake, m, 1) == star_gon_graph(k, n)


class TestWithPendant:
    def test_appends_vertex(self):
        h = with_pendant(P(3), 2)
        assert h.n == 4
        assert (2, 4) in h.edges

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            with_pendant(P(3), 9)
