import hashlib
import random

import pytest

from nplabel.errors import (
    InvalidSpec,
    PreconditionViolated,
    UnsupportedParameters,
    UnsupportedStructure,
    UsageError,
)
from nplabel.families import (
    banana_graph,
    book_graph,
    caterpillar_graph,
    complete_binary_graph,
    firecracker_graph,
    full_binary_graph,
    gear_graph,
    mobius_graph,
    path_graph,
    random_tree,
    snake_graph,
    spider_graph,
    star_gon_graph,
)
from nplabel import graph as graph_module
from nplabel.graph import Graph, contract, is_connected, verify
from nplabel.labelers import (
    HEAD_MIN,
    INTERIOR_MIN,
    contract_one_max,
    extend_pendant,
    label_banana,
    label_bivalent_free,
    label_book,
    label_book5,
    label_caterpillar,
    label_firecracker,
    label_full_binary,
    label_gear,
    label_mobius,
    label_path,
    label_snake,
    label_spider,
    label_star_gon,
    shifted_path_labels,
    snake_supported,
)
from nplabel.treescan import enumerate_free_trees


def outcome_digest(labeler, graphs):
    """(labelled count, sha256 over one line per graph: the repr of its
    labels, or "<ErrorType>: <message>" if the labeler rejects it)."""
    h = hashlib.sha256()
    labelled = 0
    for g in graphs:
        try:
            line = repr(labeler(g))
            labelled += 1
        except UnsupportedStructure as e:
            line = "%s: %s" % (type(e).__name__, e)
        h.update(line.encode() + b"\n")
    return labelled, h.hexdigest()


def relabel_reference(g, f, u1, u2):
    """contract_one_max's labels as an explicit per-vertex loop."""
    keep, removed = (u1, u2) if u1 < u2 else (u2, u1)
    labels = [0] * (g.n - 1)
    labels[keep - 1] = 1
    for v in range(1, g.n + 1):
        if v in (u1, u2):
            continue
        new_id = v - 1 if v > removed else v
        labels[new_id - 1] = f[v - 1]
    return labels


class TestLabelPath:
    def test_frozen_values(self):
        assert label_path(1) == [1]
        assert label_path(3) == [2, 1, 3]
        assert label_path(5) == [3, 1, 4, 2, 5]

    def test_verifies(self):
        for n in range(1, 40):
            assert verify(path_graph(n), label_path(n)).ok

    def test_second_vertex_gets_one(self):
        for n in range(2, 30):
            assert label_path(n)[1] == 1

    def test_bad_n(self):
        with pytest.raises(InvalidSpec):
            label_path(0)


class TestShiftedPathLabels:
    def test_frozen_values(self):
        assert shifted_path_labels(INTERIOR_MIN, 5, 3) == [7, 6, 8]
        assert shifted_path_labels(HEAD_MIN, 1, 2) == [2, 3]
        assert shifted_path_labels(HEAD_MIN, 3, 3) == [4, 6, 5]

    def test_fills_range_bijectively(self):
        for variant in (INTERIOR_MIN, HEAD_MIN):
            for offset in (0, 4, 11):
                for m in range(1, 12):
                    vals = shifted_path_labels(variant, offset, m)
                    assert sorted(vals) == list(range(offset + 1, offset + m + 1))

    def test_interior_pairs_consecutive(self):
        # positions i-1, i+1 must hold consecutive values in both variants
        for variant in (INTERIOR_MIN, HEAD_MIN):
            for m in range(3, 12):
                vals = shifted_path_labels(variant, 7, m)
                for i in range(1, m - 1):
                    assert abs(vals[i - 1] - vals[i + 1]) == 1

    def test_min_position(self):
        assert shifted_path_labels(INTERIOR_MIN, 5, 6).index(6) == 1
        assert shifted_path_labels(HEAD_MIN, 5, 6).index(6) == 0

    def test_guards(self):
        with pytest.raises(InvalidSpec):
            shifted_path_labels("sideways", 0, 3)
        with pytest.raises(InvalidSpec):
            shifted_path_labels(HEAD_MIN, -1, 3)


class TestLabelGear:
    def test_frozen_values(self):
        assert label_gear(3) == [1, 2, 3, 4, 5, 6, 7]
        assert label_gear(4) == [1, 2, 3, 4, 5, 6, 9, 8, 7]
        assert label_gear(5) == list(range(1, 12))

    def test_verifies(self):
        for n in range(3, 30):
            assert verify(gear_graph(n), label_gear(n)).ok


class TestLabelSnake:
    def test_triangular_identity(self):
        assert label_snake(3, 4) == list(range(1, 8))

    def test_pentagonal_frozen(self):
        f = label_snake(5, 4)
        by_base = [f[4 * i - 4] for i in range(1, 5)]
        assert by_base == [1, 5, 11, 13]
        assert [f[4 * i - 3] for i in range(1, 4)] == [3, 7, 9]
        assert [f[4 * i - 2] for i in range(1, 4)] == [4, 8, 12]
        assert [f[4 * i - 1] for i in range(1, 4)] == [2, 6, 10]

    def test_large_polygon_uses_path_labels(self):
        assert label_snake(9, 3) == label_path(17)

    def test_verifies_small_k(self):
        for k in (3, 4, 5):
            for n in range(2, 15):
                assert verify(snake_graph(k, n), label_snake(k, n)).ok

    def test_verifies_sample_large_k(self):
        for k, n in [(6, 3), (6, 7), (9, 3), (8, 4), (8, 5), (10, 3), (7, 4)]:
            assert snake_supported(k, n)
            assert verify(snake_graph(k, n), label_snake(k, n)).ok

    def test_unsupported_raises(self):
        assert not snake_supported(6, 4)
        with pytest.raises(UnsupportedParameters):
            label_snake(6, 4)
        with pytest.raises(UnsupportedParameters):
            label_snake(7, 5)

    def test_supported_predicate_bounds(self):
        assert not snake_supported(2, 3)
        assert not snake_supported(6, 2)
        assert snake_supported(4, 2)


class TestContractOneMax:
    def test_snake_to_star_gon(self):
        g = snake_graph(3, 4)
        merged, labels = contract_one_max(g, label_snake(3, 4), 1, 7)
        assert merged.n == 6
        assert labels[0] == 1
        assert verify(merged, labels).ok

    def test_wrong_min_label_rejected(self):
        g = path_graph(4)
        with pytest.raises(PreconditionViolated):
            contract_one_max(g, [2, 1, 3, 4], 1, 4)

    def test_adjacent_endpoints_rejected(self):
        g = path_graph(3)
        with pytest.raises(PreconditionViolated):
            contract_one_max(g, [2, 1, 3], 2, 3)

    def test_unverified_input_rejected(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(PreconditionViolated):
            contract_one_max(g, [1, 2, 3, 4], 1, 3)

    @pytest.mark.parametrize("v", [0, -1, 8])
    def test_vertices_range_checked(self, v):
        g = snake_graph(3, 4)
        f = label_snake(3, 4)
        message = "^vertex %d out of range 1\\.\\.7$" % v
        with pytest.raises(UsageError, match=message):
            contract_one_max(g, f, v, 7)
        with pytest.raises(UsageError, match=message):
            contract_one_max(g, f, 1, v)

    def test_matches_relabel_loop(self):
        # snakes up to 300 vertices, contracted from either end, and seeded
        # random trees and caterpillars wherever a labeler covers them
        cases = [(snake_graph(k, n), label_snake(k, n))
                 for k in (3, 4, 5) for n in range(2, 300 // (k - 1) + 1)]
        rng = random.Random(13)
        for seed in range(600):
            t = random_tree(rng.randint(3, 40), seed)
            try:
                cases.append((t, label_bivalent_free(t)))
            except UnsupportedStructure:
                pass
            counts = [rng.randint(0, 3) for _ in range(rng.randint(1, 30))]
            g = caterpillar_graph(counts)
            cases.append((g, label_caterpillar(counts)))
            # the same labelled caterpillar under a random numbering
            perm = rng.sample(range(1, g.n + 1), g.n)
            f = [0] * g.n
            for v, label in zip(perm, cases[-1][1]):
                f[v - 1] = label
            cases.append((Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges]), f))
        orders = []
        for g, f in cases:
            u1, u2 = f.index(1) + 1, f.index(g.n) + 1
            if (min(u1, u2), max(u1, u2)) in g.edges or max(g.degree(u1), g.degree(u2)) < 2:
                continue
            merged, labels = contract_one_max(g, f, u1, u2)
            assert merged == contract(g, u1, u2)
            assert labels == relabel_reference(g, f, u1, u2)
            orders.append(u1 < u2)
        # the label-1 vertex is both the lower and the higher id many times
        assert min(orders.count(True), orders.count(False)) > 100


class TestLabelStarGon:
    def test_triangular(self):
        g = star_gon_graph(3, 3)
        labels = label_star_gon(3, 3)
        assert labels[0] == 1
        assert verify(g, labels).ok

    def test_verifies(self):
        for k in (3, 4, 5):
            for n in range(3, 12):
                assert verify(star_gon_graph(k, n), label_star_gon(k, n)).ok

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedParameters):
            label_star_gon(6, 3)


class TestLabelBook5:
    def test_first_page(self):
        assert label_book5(1) == [3, 1, 2, 4, 5]

    def test_even_and_odd_pages(self):
        assert label_book5(2)[5:] == [6, 8, 7]
        assert label_book5(3)[8:] == [9, 10, 11]

    def test_verifies(self):
        for n in range(1, 25):
            assert verify(book_graph(5, n), label_book5(n)).ok


class TestLabelBook:
    def test_small_pages_identity(self):
        assert label_book(3, 2) == [1, 2, 3, 4]
        assert label_book(4, 2) == [1, 2, 3, 4, 5, 6]

    def test_verifies(self):
        for k in (3, 4):
            for n in range(1, 80):
                assert verify(book_graph(k, n), label_book(k, n)).ok

    def test_pentagonal_delegates(self):
        assert label_book(5, 4) == label_book5(4)

    def test_guards(self):
        with pytest.raises(InvalidSpec):
            label_book(6, 2)
        with pytest.raises(InvalidSpec):
            label_book(4, 0)


class TestLabelMobius:
    def test_frozen_values(self):
        assert label_mobius(3) == [1, 3, 5, 2, 4, 6]
        assert label_mobius(4) == [1, 3, 5, 7, 2, 4, 6, 8]

    def test_verifies(self):
        for n in range(3, 25):
            assert verify(mobius_graph(n), label_mobius(n)).ok


class TestExtendPendant:
    def test_single_attach(self):
        g, f = extend_pendant(path_graph(3), [2, 1, 3], 2)
        assert f == [2, 1, 3, 4]
        assert verify(g, f).ok

    def test_iterated_attach(self):
        g, f = extend_pendant(path_graph(3), [2, 1, 3], 2)
        g, f = extend_pendant(g, f, 2)
        assert f == [2, 1, 3, 4, 5]
        assert verify(g, f).ok

    def test_leaf_attach_rejected(self):
        with pytest.raises(PreconditionViolated):
            extend_pendant(path_graph(3), [2, 1, 3], 1)

    def test_unverified_input_rejected(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(PreconditionViolated):
            extend_pendant(g, [1, 2, 3, 4], 1)

    @pytest.mark.parametrize("v", [0, -1, 5])
    def test_vertex_range_checked(self, v):
        with pytest.raises(UsageError, match="^vertex %d out of range 1\\.\\.4$" % v):
            extend_pendant(path_graph(4), label_path(4), v)


class TestLabelCaterpillar:
    def test_frozen_values(self):
        assert label_caterpillar([]) == [2, 1]
        assert label_caterpillar([1]) == [2, 1, 3, 4]
        assert label_caterpillar([0, 2]) == [3, 1, 4, 2, 5, 6]

    def test_random_specs_verify(self):
        rng = random.Random(42)
        for _ in range(60):
            counts = [rng.randint(0, 4) for _ in range(rng.randint(0, 8))]
            f = label_caterpillar(counts)
            assert verify(caterpillar_graph(counts), f).ok
            # the reference construction: the pendant lemma, leaf by leaf
            g, chain = path_graph(len(counts) + 2), label_path(len(counts) + 2)
            for j, c in enumerate(counts):
                for _ in range(c):
                    g, chain = extend_pendant(g, chain, j + 2)
            assert g == caterpillar_graph(counts) and f == chain


class TestLabelSpider:
    def test_all_even_reflection(self):
        assert label_spider([2, 2, 2]) == [1, 2, 3, 4, 5, 7, 6]

    def test_center_sees_unit_gcd(self):
        g = spider_graph([2, 2, 2])
        f = label_spider([2, 2, 2])
        nbr = sorted(f[v - 1] for v in g.adj[1])
        assert nbr == [2, 4, 7]

    def test_large_mixed_legs_verify(self):
        legs = [2, 2, 4, 4, 4, 6]
        assert verify(spider_graph(legs), label_spider(legs)).ok

    def test_all_small_multisets_verify(self):
        from itertools import combinations_with_replacement

        for count in (3, 4):
            for legs in combinations_with_replacement(range(1, 5), count):
                assert verify(spider_graph(legs), label_spider(legs)).ok

    def test_guards(self):
        with pytest.raises(InvalidSpec):
            label_spider([2, 3])
        with pytest.raises(InvalidSpec):
            label_spider([0, 1, 2])


class TestLabelBanana:
    def test_frozen_values(self):
        f = label_banana(3, 4)
        assert f[0] == 1
        assert [f[1 + i * 4] for i in range(3)] == [2, 3, 4]  # root-adjacent
        assert [f[2 + i * 4] for i in range(3)] == [5, 8, 11]  # star centers

    def test_verifies(self):
        for n in range(3, 9):
            for k in range(4, 9):
                assert verify(banana_graph(n, k), label_banana(n, k)).ok

    def test_guards(self):
        with pytest.raises(UnsupportedParameters):
            label_banana(2, 4)
        with pytest.raises(UnsupportedParameters):
            label_banana(3, 3)


class TestLabelFirecracker:
    def test_frozen_values(self):
        # n=3: spine [2,1,3]; prime 5 on the last star center; first leaves
        # matched coprime to their spine labels
        assert label_firecracker(3, 3) == [2, 1, 3, 4, 6, 5, 9, 7, 8]
        assert label_firecracker(1, 3) == [1, 2, 3]

    def test_extra_leaves_appended(self):
        assert label_firecracker(3, 5)[9:] == list(range(10, 16))

    def test_verifies(self):
        for n in range(1, 15):
            for k in range(3, 7):
                assert verify(firecracker_graph(n, k), label_firecracker(n, k)).ok

    def test_guards(self):
        with pytest.raises(UnsupportedParameters):
            label_firecracker(3, 2)


class TestLabelBivalentFree:
    def test_star(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        f = label_bivalent_free(g)
        assert f == [1, 2, 3, 4]
        assert verify(g, f).ok

    def test_perfect_binary_root_path(self):
        g = complete_binary_graph(7)
        f = label_bivalent_free(g)
        assert verify(g, f).ok

    def test_three_legged_spider_rejected(self):
        with pytest.raises(UnsupportedStructure):
            label_bivalent_free(spider_graph([2, 2, 2]))

    def test_non_tree_rejected(self):
        with pytest.raises(UnsupportedStructure):
            label_bivalent_free(Graph(3, [(1, 2), (2, 3), (1, 3)]))

    def test_trivial_sizes(self):
        assert label_bivalent_free(Graph(1, [])) == [1]
        assert label_bivalent_free(Graph(2, [(1, 2)])) == [1, 2]

    def test_degree2_on_one_path_verifies(self):
        # caterpillar-like tree: all degree-2 vertices on the spine
        g = caterpillar_graph([2, 0, 3])
        assert verify(g, label_bivalent_free(g)).ok

    def test_outputs_pinned_on_all_small_trees(self):
        # exact labels and rejection messages on the 987 free trees with at
        # most 12 vertices, as enumerate_free_trees numbers them
        trees = [t for n in range(1, 13) for t in enumerate_free_trees(n)]
        assert len(trees) == 987
        assert outcome_digest(label_bivalent_free, trees) == (
            736, "61fa3e3b0ea18b3ab0ff593a5f4a0ec404e9bb096994fa92f59cedfe9ac20fe7")


class TestLabelFullBinary:
    def test_perfect_identity(self):
        g = complete_binary_graph(7)
        assert label_full_binary(g) == list(range(1, 8))

    def test_full_five_node_identity(self):
        g = full_binary_graph([1, 1, 0, 0, 0])
        assert label_full_binary(g) == [1, 2, 3, 4, 5]

    def test_single_child_delegates(self):
        g = complete_binary_graph(6)
        f = label_full_binary(g)
        assert f != list(range(1, 7))
        assert verify(g, f).ok

    def test_ternary_rejected(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        with pytest.raises(UnsupportedStructure):
            label_full_binary(g)

    def test_complete_trees_verify(self):
        for n in range(1, 40):
            g = complete_binary_graph(n)
            assert verify(g, label_full_binary(g)).ok

    def test_complete_tree_outputs_pinned(self):
        graphs = [complete_binary_graph(n) for n in range(1, 301)]
        assert outcome_digest(label_full_binary, graphs) == (
            300, "08d86f4e9001512ad36fa2dd0aa34745506e3784d559b4f20b6cc82dcfd609dd")

    def test_delegation_checks_connectivity_once(self, monkeypatch):
        # the parent scan proves a graph with n - 1 edges is a tree, so only
        # label_bivalent_free's is_tree walks the graph
        calls = []

        def counting(g):
            calls.append(g.n)
            return is_connected(g)

        monkeypatch.setattr(graph_module, "is_connected", counting)
        g = complete_binary_graph(30)
        assert verify(g, label_full_binary(g)).ok
        assert calls == [30]

    @pytest.mark.parametrize("g, message", [
        (Graph(3, [(1, 2), (2, 3), (1, 3)]), "input is not a tree"),
        # n - 1 edges, but a triangle and an isolated vertex
        (Graph(4, [(1, 2), (2, 3), (1, 3)]), "input is not a tree"),
        (Graph(3, [(1, 3), (2, 3)]),
         "vertex 2 has 0 smaller neighbors; not level-order numbered"),
    ])
    def test_error_messages(self, g, message):
        with pytest.raises(UnsupportedStructure) as excinfo:
            label_full_binary(g)
        assert str(excinfo.value) == message
