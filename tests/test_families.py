import hashlib
import re
from itertools import product

import pytest

from contraction import contract_reference
from family_edges import reference_graph
from nplabel import families
from nplabel.errors import InvalidSpec, UsageError
from nplabel.families import (
    FamilySpec,
    banana_graph,
    book_graph,
    caterpillar_graph,
    cayley_graph,
    complete_binary_graph,
    cycle_graph,
    firecracker_graph,
    full_kary_graph,
    gear_graph,
    generate,
    mobius_graph,
    parse_family,
    path_graph,
    random_tree,
    snake_base_vertex,
    snake_graph,
    snake_vertex_count,
    spider_graph,
    star_gon_graph,
    tree_from_pruefer,
)
from nplabel.graph import Graph, is_tree


def complete_binary_reference(n_nodes):
    """complete_binary_graph as an explicit loop over children 2v, 2v+1."""
    edges = []
    for v in range(1, n_nodes + 1):
        for c in (2 * v, 2 * v + 1):
            if c <= n_nodes:
                edges.append((v, c))
    return Graph(n_nodes, edges)


class TestCounts:
    def test_gear(self):
        g = gear_graph(3)
        assert (g.n, len(g.edges)) == (7, 9)

    def test_gear_formula(self):
        for n in range(3, 12):
            g = gear_graph(n)
            assert (g.n, len(g.edges)) == (2 * n + 1, 3 * n)

    def test_snake(self):
        g = snake_graph(3, 4)
        assert (g.n, len(g.edges)) == (7, 9)

    def test_snake_formula(self):
        for k in (3, 4, 6, 9):
            for n in (2, 3, 5):
                g = snake_graph(k, n)
                assert g.n == (n - 1) * (k - 1) + 1 == snake_vertex_count(k, n)
                assert len(g.edges) == (n - 1) * k

    def test_mobius(self):
        g = mobius_graph(3)
        assert (g.n, len(g.edges)) == (6, 9)
        for n in range(3, 10):
            g = mobius_graph(n)
            assert (g.n, len(g.edges)) == (2 * n, 3 * n)

    def test_book(self):
        for k in (3, 4, 5):
            for n in (1, 2, 6):
                g = book_graph(k, n)
                assert g.n == 2 + n * (k - 2)
                assert len(g.edges) == 1 + n * (k - 1)

    def test_star_gon(self):
        for k in (3, 4, 5):
            for n in (3, 4, 7):
                g = star_gon_graph(k, n)
                assert g.n == n * (k - 1)

    def test_banana(self):
        g = banana_graph(3, 6)
        assert g.n == 19
        assert is_tree(g)

    def test_firecracker(self):
        for n in (1, 3, 6):
            for k in (1, 2, 3, 5):
                g = firecracker_graph(n, k)
                assert g.n == n * k
                assert is_tree(g)


class TestStructure:
    def test_gear_hub_spokes_odd_rim(self):
        g = gear_graph(4)
        assert g.adj[1] == (3, 5, 7, 9)
        # rim alternates degree 3 (spoke ends) and degree 2
        assert [g.degree(v) for v in range(2, 10)] == [2, 3, 2, 3, 2, 3, 2, 3]

    def test_snake_base_chords(self):
        g = snake_graph(4, 3)
        assert snake_base_vertex(4, 2) == 4
        assert (1, 4) in g.edges and (4, 7) in g.edges

    def test_star_gon_is_contracted_snake(self):
        for k in range(3, 12):
            for n in range(3, 40):
                snake = snake_graph(k, n + 1)
                expect = contract_reference(snake, 1, snake_vertex_count(k, n + 1))
                assert star_gon_graph(k, n) == expect

    def test_star_gon_merged_vertex(self):
        g = star_gon_graph(3, 3)
        # merged end vertex 1 carries both end triangles
        assert g.degree(1) == 4

    def test_book_shared_spine(self):
        g = book_graph(5, 2)
        assert (1, 2) in g.edges
        assert g.adj[1] == (2, 3, 6)
        assert g.adj[2] == (1, 5, 8)

    def test_mobius_cross_edges(self):
        g = mobius_graph(4)
        assert (4, 5) in g.edges and (1, 8) in g.edges

    def test_caterpillar_pendants(self):
        g = caterpillar_graph([0, 2])
        assert g.n == 6
        assert g.adj[3] == (2, 4, 5, 6)

    def test_spider_legs(self):
        g = spider_graph([1, 2, 3])
        assert g.n == 7
        assert g.adj[1] == (2, 3, 5)
        assert g.adj[4] == (3,)

    def test_banana_root_and_stars(self):
        g = banana_graph(2, 4)
        assert g.adj[1] == (2, 6)
        assert g.adj[3] == (2, 4, 5)

    def test_firecracker_wiring(self):
        g = firecracker_graph(3, 4)
        assert g.adj[1] == (2, 4)
        assert g.adj[4] == (1, 7, 10)

    def test_complete_binary_children(self):
        g = complete_binary_graph(6)
        assert g.adj[2] == (1, 4, 5)
        assert g.adj[3] == (1, 6)

    def test_complete_binary_matches_reference(self):
        for n in range(1, 301):
            g = complete_binary_graph(n)
            assert g == complete_binary_reference(n)
            assert g.adj == complete_binary_reference(n).adj

    def test_full_binary_shape(self):
        g = full_kary_graph(2, [1, 1, 0, 0, 0])
        assert g.n == 5
        assert g.adj[1] == (2, 3)
        assert g.adj[2] == (1, 4, 5)

    def test_kary_and_cayley_shapes(self):
        g = full_kary_graph(3, [1, 0, 0, 0])
        assert g.n == 4 and g.degree(1) == 3
        h = cayley_graph(3, [1, 1, 0, 0, 0, 0])
        assert h.n == 6 and h.degree(1) == 3 and h.degree(2) == 3

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidSpec):
            full_kary_graph(2, [1, 0])  # 3 nodes needed, 2 declared
        with pytest.raises(InvalidSpec):
            full_kary_graph(2, [0, 1, 0])  # node 2 unreachable


class TestGuards:
    def test_bounds(self):
        with pytest.raises(InvalidSpec):
            gear_graph(2)
        with pytest.raises(InvalidSpec):
            snake_graph(2, 3)
        with pytest.raises(InvalidSpec):
            snake_graph(3, 1)
        with pytest.raises(InvalidSpec):
            book_graph(6, 2)
        with pytest.raises(InvalidSpec):
            mobius_graph(2)
        with pytest.raises(InvalidSpec):
            spider_graph([2, 3])
        with pytest.raises(InvalidSpec):
            banana_graph(0, 4)
        with pytest.raises(InvalidSpec):
            cycle_graph(2)
        with pytest.raises(InvalidSpec):
            path_graph(0)


class TestRandomTree:
    def test_trivial_sizes(self):
        assert random_tree(1, 0).n == 1
        assert random_tree(2, 5).edges == ((1, 2),)

    def test_is_tree_and_deterministic(self):
        g = random_tree(8, 7)
        assert is_tree(g)
        assert len(g.edges) == 7
        assert g == random_tree(8, 7)

    def test_seeds_vary(self):
        assert any(random_tree(9, 0) != random_tree(9, s) for s in range(1, 10))

    def test_pruefer_decode(self):
        # sequence of all 1s decodes to the star on vertex 1
        g = tree_from_pruefer(5, [1, 1, 1])
        assert g.adj[1] == (2, 3, 4, 5)
        with pytest.raises(UsageError):
            tree_from_pruefer(5, [1, 1])

    @pytest.mark.parametrize("seq", [[9, 1, 1], [1, -1, 1], [0, 2, 3], [6, 6, 6]])
    def test_pruefer_entries_range_checked(self, seq):
        with pytest.raises(UsageError, match=r"entries must lie in 1\.\.5"):
            tree_from_pruefer(5, seq)


# one CLI string per family kind, its parsed args and the direct constructor call
KIND_CASES = {
    "path": ("path:9", (9,), lambda: path_graph(9)),
    "cycle": ("cycle:6", (6,), lambda: cycle_graph(6)),
    "gear": ("gear:7", (7,), lambda: gear_graph(7)),
    "snake": ("snake:9,3", (9, 3), lambda: snake_graph(9, 3)),
    "stargon": ("stargon:4,3", (4, 3), lambda: star_gon_graph(4, 3)),
    "book": ("book:3,6", (3, 6), lambda: book_graph(3, 6)),
    "book5": ("book5:6", (6,), lambda: book_graph(5, 6)),
    "mobius": ("mobius:6", (6,), lambda: mobius_graph(6)),
    "caterpillar": ("caterpillar:0,2,1", ((0, 2, 1),), lambda: caterpillar_graph([0, 2, 1])),
    "spider": ("spider:2,2,4,4,4,6", ((2, 2, 4, 4, 4, 6),),
               lambda: spider_graph([2, 2, 4, 4, 4, 6])),
    "banana": ("banana:3,6", (3, 6), lambda: banana_graph(3, 6)),
    "firecracker": ("firecracker:6,3", (6, 3), lambda: firecracker_graph(6, 3)),
    "fullbinary": ("fullbinary:1100100", ((1, 1, 0, 0, 1, 0, 0),),
                   lambda: full_kary_graph(2, [1, 1, 0, 0, 1, 0, 0])),
    "kary": ("kary:3,1000", (3, (1, 0, 0, 0)), lambda: full_kary_graph(3, [1, 0, 0, 0])),
    "cayley": ("cayley:4,11000000", (4, (1, 1, 0, 0, 0, 0, 0, 0)),
               lambda: cayley_graph(4, [1, 1, 0, 0, 0, 0, 0, 0])),
    "completebinary": ("completebinary:15", (15,), lambda: complete_binary_graph(15)),
    "randomtree": ("randomtree:20,7", (20, 7), lambda: random_tree(20, 7)),
}


class TestSpecParsing:
    def test_parse_with_args(self):
        assert parse_family("gear:7") == FamilySpec("gear", (7,))
        assert parse_family("snake:9,3") == FamilySpec("snake", (9, 3))
        assert parse_family("Spider: 2, 2, 4") == FamilySpec("spider", ((2, 2, 4),))

    def test_cases_cover_every_kind(self):
        assert set(KIND_CASES) == set(families._FAMILIES)

    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    def test_typed_args_and_direct_constructor(self, kind):
        text, args, build = KIND_CASES[kind]
        spec = parse_family(text)
        assert spec == FamilySpec(kind, args)
        assert generate(spec) == build()

    def test_variadic_and_shape_edges(self):
        assert parse_family("caterpillar") == FamilySpec("caterpillar", ((),))
        assert parse_family("kary: 3 , 10 ,") == FamilySpec("kary", (3, (1, 0)))

    def test_parse_unknown(self):
        with pytest.raises(InvalidSpec) as exc:
            parse_family("wheel:5")
        assert str(exc.value) == "unknown family 'wheel'"

    @pytest.mark.parametrize("text, message", [
        ("gear:x", "expected an integer, got 'x'"),
        ("spider:1,1.5,2", "expected an integer, got '1.5'"),
        ("snake:x", "expected an integer, got 'x'"),
        ("gear:3,x", "expected an integer, got 'x'"),  # integers before arity
        ("kary:x", "expected an integer, got 'x'"),
        ("kary:x,1,1", "expected an integer, got 'x'"),
        ("gear:3,4", "expected 1 parameters, got 2"),
        ("snake:9", "expected 2 parameters, got 1"),
        ("gear", "expected 1 parameters, got 0"),
        ("fullbinary", "expected a shape bit-string parameter"),
        ("kary:3", "expected a shape bit-string parameter"),
        ("kary:", "expected a shape bit-string parameter"),
        ("cayley", "expected a shape bit-string parameter"),
        ("fullbinary:1,1", "expected a shape bit-string parameter"),
        ("kary:3,1000,1", "expected a shape bit-string parameter"),
        ("kary:3,x,1", "expected a shape bit-string parameter"),  # arity before bits
        ("fullbinary:1102", "shape must be a string of 0/1 bits, got '1102'"),
        ("cayley:4,1x", "shape must be a string of 0/1 bits, got '1x'"),
    ])
    def test_grammar_failure_messages(self, text, message):
        with pytest.raises(InvalidSpec) as exc:
            parse_family(text)
        assert str(exc.value) == message

    def test_generate_unknown_kind(self):
        with pytest.raises(InvalidSpec, match="unknown family 'wheel'"):
            generate(FamilySpec("wheel", (5,)))

    def test_generate_dispatch(self):
        g = generate(parse_family("fullbinary:1100100"))
        assert g.n == 7
        assert generate(parse_family("book5:2")) == book_graph(5, 2)
        assert generate(parse_family("book:5,2")) == book_graph(5, 2)

    def test_generate_arity_errors(self):
        with pytest.raises(InvalidSpec):
            generate(parse_family("gear:3,4"))
        with pytest.raises(InvalidSpec):
            generate(parse_family("snake:9"))
        with pytest.raises(InvalidSpec):
            generate(parse_family("fullbinary:1102"))

    def test_generate_deterministic(self):
        spec = parse_family("randomtree:12,3")
        assert generate(spec) == generate(spec)


# Specs per kind, small and large, for the digest below; the large ones are
# sized like the benchmark's members.
DIGEST_SPECS = {
    "path": ["path:1", "path:2", "path:5000"],
    "cycle": ["cycle:3", "cycle:6", "cycle:5000"],
    "gear": ["gear:3", "gear:7", "gear:2000"],
    "snake": ["snake:3,2", "snake:4,2", "snake:9,3", "snake:3,500", "snake:200,5"],
    "stargon": ["stargon:3,3", "stargon:4,3", "stargon:9,5", "stargon:5,300"],
    "book": ["book:3,1", "book:4,6", "book:5,3", "book:3,500"],
    "book5": ["book5:1", "book5:500"],
    "mobius": ["mobius:3", "mobius:6", "mobius:2000"],
    "caterpillar": ["caterpillar", "caterpillar:0", "caterpillar:3", "caterpillar:0,2,1",
                    "caterpillar:" + ",".join(str(i % 7) for i in range(300))],
    "spider": ["spider:1,1,1", "spider:2,2,4,4,4,6", "spider:" + ",".join(["40"] * 50)],
    "banana": ["banana:1,3", "banana:3,6", "banana:20,50"],
    "firecracker": ["firecracker:1,1", "firecracker:5,1", "firecracker:5,2", "firecracker:6,3",
                    "firecracker:4,7", "firecracker:190,5"],
    "fullbinary": ["fullbinary:0", "fullbinary:100", "fullbinary:1100100"],
    "kary": ["kary:2,100", "kary:3,1000", "kary:3," + "1" * 121 + "0" * 243],
    "cayley": ["cayley:3,1000", "cayley:4,11000000"],
    "completebinary": ["completebinary:1", "completebinary:2", "completebinary:3000"],
    "randomtree": ["randomtree:1,1", "randomtree:2,1", "randomtree:20,7", "randomtree:500,3"],
}
# malformed specs: a shape fault is raised at the first node of the pattern
# that shows it, the node at which the edge stream raised it
FAULTY_SPECS = [
    "kary:2,1", "kary:2,0110", "fullbinary:10", "fullbinary:1", "fullbinary:1000",
    "kary:3,1", "cayley:3,1", "cayley:3,10000", "kary:1,10", "completebinary:0",
    "path:0", "cycle:2", "gear:2", "snake:2,3", "snake:3,1", "stargon:3,2", "book:6,2",
    "book:3,0", "mobius:2", "caterpillar:-1", "spider:1,1", "spider:1,0,1", "banana:0,3",
    "banana:2,2", "firecracker:0,2", "firecracker:2,0", "randomtree:0,1",
]


# pinned when the generators built edge lists; streaming them, and then
# building each adjacency from the numbering, must not change a graph, an
# exception type or a message
GRAPHS_DIGEST = "a79ee868af6e43f782b24032efe6e4129ca15f0bc7482e063c11bdc1823d6abe"
FAULTS_DIGEST = "cf8ed7a0d79943c190cf9d579c3c1140067eed15345dce7be60edbac08ce7013"


class TestDigest:
    """Every kind's graphs and every fault, pinned by one digest each."""

    def test_every_kind_swept(self):
        assert set(DIGEST_SPECS) == set(families._FAMILIES)

    def test_graphs(self):
        h = hashlib.sha256()
        for kind in sorted(DIGEST_SPECS):
            for text in DIGEST_SPECS[kind]:
                g = generate(parse_family(text))
                h.update(repr((text, g.n, g.m, g.adj)).encode())
        assert h.hexdigest() == GRAPHS_DIGEST

    def test_faults(self):
        h = hashlib.sha256()
        for text in FAULTY_SPECS:
            with pytest.raises((InvalidSpec, UsageError)) as info:
                generate(parse_family(text))
            h.update(repr((text, type(info.value).__name__, str(info.value))).encode())
        assert h.hexdigest() == FAULTS_DIGEST


# input checks that no other test reaches: (function, arguments, error, message)
INPUT_CHECKS = [
    (star_gon_graph, (2, 3), InvalidSpec, "star-gon requires k >= 3, got k=2"),
    (full_kary_graph, (2, ()), InvalidSpec, "shape must be a nonempty 0/1 sequence"),
    (full_kary_graph, (2, (1, 2, 0)), InvalidSpec, "shape must be a nonempty 0/1 sequence"),
    (cayley_graph, (2, (1, 0, 0)), InvalidSpec, "Cayley tree requires k >= 3, got k=2"),
]


@pytest.mark.parametrize("fn, args, error, message", INPUT_CHECKS,
                         ids=["%s%r" % (fn.__name__, args) for fn, args, _, _ in INPUT_CHECKS])
def test_input_checks(fn, args, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        fn(*args)


def shapes(kind, longest):
    """``kind`` with every 0/1 shape of 1..longest bits, faulty ones included."""
    return [kind + "".join(bits) for n in range(1, longest + 1)
            for bits in product("01", repeat=n)]


# every kind but randomtree, whose edges come off a heap and go through the
# checked constructor: small sweeps and the edge sizes of each numbering
ORACLE_SPECS = {
    "path": ["path:%d" % n for n in range(1, 12)],
    "cycle": ["cycle:%d" % n for n in range(3, 12)],
    "gear": ["gear:%d" % n for n in range(3, 12)],
    "snake": ["snake:%d,%d" % (k, n) for k in (3, 4, 5, 9, 200) for n in range(2, 7)],
    "stargon": ["stargon:%d,%d" % (k, n) for k in (3, 4, 5, 9, 200) for n in range(3, 8)],
    "book": ["book:%d,%d" % (k, n) for k in (3, 4, 5) for n in range(1, 8)],
    "book5": ["book5:%d" % n for n in range(1, 6)],
    "mobius": ["mobius:%d" % n for n in range(3, 12)],
    "caterpillar": ["caterpillar", "caterpillar:0", "caterpillar:0,0", "caterpillar:3",
                    "caterpillar:0,2,1", "caterpillar:2,0,0,3", "caterpillar:1,0,4,0,0"],
    "spider": ["spider:1,1,1", "spider:1,2,1", "spider:3,1,1,2", "spider:1,1,1,1,1",
               "spider:2,2,4,4,4,6"],
    "banana": ["banana:%d,%d" % (n, k) for n in (1, 2, 5) for k in (3, 4, 7)],
    "firecracker": ["firecracker:%d,%d" % (n, k) for n in (1, 2, 3, 6) for k in range(1, 8)],
    "fullbinary": shapes("fullbinary:", 9),
    "kary": shapes("kary:3,", 7) + ["kary:4,1" + "0" * 4, "kary:3," + "1" * 13 + "0" * 27],
    "cayley": shapes("cayley:3,", 7) + shapes("cayley:4,", 6),
    "completebinary": ["completebinary:%d" % n for n in range(1, 41)],
}
SHAPED = ("fullbinary", "kary", "cayley")

# the fixed family-label members, and firecrackers and a caterpillar sized
# like its seeded ones
LARGE_MEMBERS = [
    "gear:20000", "mobius:20000", "book5:5000", "stargon:5,3000", "snake:2000,5",
    "banana:200,50", "spider:" + ",".join(["40"] * 500),
    "kary:3," + "1" * ((3 ** 8 - 1) // 2) + "0" * 3 ** 8, "completebinary:30000",
    "firecracker:1900,3", "firecracker:1999,4", "firecracker:2000,5",
    "caterpillar:" + ",".join(str(i * 7 % 6) for i in range(400)),
]


class TestDirectAdjacency:
    """Each generator builds its sorted neighbour tuples straight from its
    numbering; the checked build of the kind's edge stream is the oracle."""

    def test_every_kind_but_randomtree(self):
        assert set(ORACLE_SPECS) == set(families._FAMILIES) - {"randomtree"}

    @pytest.mark.parametrize("kind", sorted(ORACLE_SPECS))
    def test_matches_checked_build_of_edges(self, kind):
        faults = 0
        for text in ORACLE_SPECS[kind]:
            spec = parse_family(text)
            try:
                expect = reference_graph(spec)
            except InvalidSpec as fault:
                # a faulty shape: the same first fault, type and message
                with pytest.raises(InvalidSpec, match="^%s$" % re.escape(str(fault))):
                    generate(spec)
                faults += 1
                continue
            g = generate(spec)
            assert (g.n, g.m, g.adj) == (expect.n, expect.m, expect.adj), text
            assert type(g.adj) is tuple and all(type(nbrs) is tuple for nbrs in g.adj)
        assert bool(faults) == (kind in SHAPED)

    @pytest.mark.parametrize("text", LARGE_MEMBERS, ids=lambda t: t[:20])
    def test_one_int_object_per_id(self, text):
        g = generate(parse_family(text))
        objects = {}
        for nbrs in g.adj:
            for u in nbrs:
                assert objects.setdefault(u, u) is u
        assert sorted(objects) == list(range(1, g.n + 1))
