import pytest

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
    full_binary_graph,
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
from nplabel.graph import Graph, contract, is_tree


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
                expect = contract(snake, 1, snake_vertex_count(k, n + 1))
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
        g = full_binary_graph([1, 1, 0, 0, 0])
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
            full_binary_graph([1, 0])  # 3 nodes needed, 2 declared
        with pytest.raises(InvalidSpec):
            full_binary_graph([0, 1, 0])  # node 2 unreachable


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
        assert random_tree(2, 5).edges == frozenset({(1, 2)})

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
                   lambda: full_binary_graph([1, 1, 0, 0, 1, 0, 0])),
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
