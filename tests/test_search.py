import random

import pytest

from nplabel.errors import UsageError
from nplabel.families import cycle_graph, path_graph, random_tree
from nplabel.graph import Graph, verify
from nplabel.search import (
    EXHAUSTED,
    FOUND,
    INCONCLUSIVE,
    ORDER_NATURAL,
    SearchConfig,
    SearchOutcome,
    brute_force_oracle,
    find_labeling,
    kernel_name,
)


def star(n):
    return Graph(n, [(1, v) for v in range(2, n + 1)])


class TestBruteForceOracle:
    def test_p2_all_solutions(self):
        out = brute_force_oracle(Graph(2, [(1, 2)]), find_all=True)
        assert out.status == FOUND
        assert set(out.all_solutions) == {(1, 2), (2, 1)}

    def test_c6_exhausted_after_720(self):
        out = brute_force_oracle(cycle_graph(6))
        assert out.status == EXHAUSTED
        assert out.nodes_explored == 720
        assert out.labeling is None

    def test_c5_found(self):
        out = brute_force_oracle(cycle_graph(5))
        assert out.status == FOUND
        assert verify(cycle_graph(5), out.labeling).ok

    def test_size_guard(self):
        with pytest.raises(UsageError):
            brute_force_oracle(path_graph(10))


class TestFindLabeling:
    def test_c6_exhausted(self):
        out = find_labeling(cycle_graph(6))
        assert out.status == EXHAUSTED

    def test_c4_found_and_verified(self):
        out = find_labeling(cycle_graph(4))
        assert out.status == FOUND
        assert verify(cycle_graph(4), out.labeling).ok

    def test_star_found(self):
        out = find_labeling(star(4))
        assert out.status == FOUND
        assert verify(star(4), out.labeling).ok

    def test_cycle_statuses(self):
        for n in (3, 4, 5, 7, 8, 9):
            assert find_labeling(cycle_graph(n)).status == FOUND
        assert find_labeling(cycle_graph(10)).status == EXHAUSTED

    def test_budget_inconclusive(self):
        out = find_labeling(cycle_graph(12), SearchConfig(node_budget=5))
        assert out.status == INCONCLUSIVE
        assert out.labeling is None
        assert out.nodes_explored >= 5

    def test_unlimited_budget(self):
        out = find_labeling(cycle_graph(6), SearchConfig(node_budget=None))
        assert out.status == EXHAUSTED

    def test_natural_order_agrees(self):
        for g in (cycle_graph(6), cycle_graph(7), star(5)):
            a = find_labeling(g)
            b = find_labeling(g, SearchConfig(order=ORDER_NATURAL))
            assert a.status == b.status

    def test_find_all_matches_oracle(self):
        for g in (path_graph(4), cycle_graph(5), star(4)):
            ours = find_labeling(g, SearchConfig(find_all=True))
            oracle = brute_force_oracle(g, find_all=True)
            assert sorted(ours.all_solutions) == sorted(oracle.all_solutions)

    def test_solutions_verified(self):
        out = find_labeling(path_graph(5), SearchConfig(find_all=True))
        for sol in out.all_solutions:
            assert verify(path_graph(5), sol).ok


class TestKernelGolden:
    def test_golden_counts(self):
        # find_all status, nodes explored and solution count, pinned so that
        # a change to the search order or pruning shows up
        graphs = [
            cycle_graph(5),
            cycle_graph(6),
            path_graph(6),
            star(5),
            random_tree(8, 1),
            random_tree(8, 2),
        ]
        got = []
        for g in graphs:
            out = find_labeling(g, SearchConfig(find_all=True))
            got.append((out.status, out.nodes_explored, len(out.all_solutions)))
        assert got == [
            (FOUND, 277, 60),
            (EXHAUSTED, 916, 0),
            (FOUND, 1008, 136),
            (FOUND, 325, 120),
            (FOUND, 64084, 19512),
            (FOUND, 47020, 8712),
        ]

    def test_kernel_name_reports(self):
        assert kernel_name() == "pure-python"


class TestOracleEquivalence:
    def test_trees_and_cycles(self):
        for n in range(1, 7):
            for seed in range(5):
                g = random_tree(n, seed)
                assert find_labeling(g).status == brute_force_oracle(g).status
        for n in range(3, 8):
            g = cycle_graph(n)
            assert find_labeling(g).status == brute_force_oracle(g).status

    def test_random_connected(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 6)
            t = random_tree(n, rng.randint(0, 10**6))
            extra = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if (u, v) not in t.edges and rng.random() < 0.3
            ]
            g = Graph(n, list(t.edges) + extra)
            assert find_labeling(g).status == brute_force_oracle(g).status


class TestConfig:
    def test_invalid_budget(self):
        with pytest.raises(UsageError):
            SearchConfig(node_budget=0)

    def test_invalid_order(self):
        with pytest.raises(UsageError):
            SearchConfig(order="random")

    def test_outcome_is_frozen(self):
        out = SearchOutcome(FOUND, (1,), 1)
        with pytest.raises(AttributeError):
            out.status = EXHAUSTED
