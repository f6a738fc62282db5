import random

import pytest

from nplabel import search
from nplabel.errors import UsageError
from nplabel.families import cycle_graph, path_graph, random_tree
from nplabel.graph import Graph, verify
from nplabel.search import (
    DEFAULT_BUDGET,
    EXHAUSTED,
    FOUND,
    INCONCLUSIVE,
    SearchConfig,
    SearchOutcome,
    all_labelings,
    brute_force_oracle,
    find_labeling,
    kernel_name,
)


def star(n):
    return Graph(n, [(1, v) for v in range(2, n + 1)])


def random_connected():
    """30 seeded random connected graphs on 2..6 vertices."""
    rng = random.Random(7)
    graphs = []
    for _ in range(30):
        n = rng.randint(2, 6)
        t = random_tree(n, rng.randint(0, 10**6))
        extra = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in t.edges and rng.random() < 0.3
        ]
        graphs.append(Graph(n, list(t.edges) + extra))
    return graphs


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
        # a refutation spends the local search's whole share of the budget,
        # then runs the depth-first search to the end
        assert find_labeling(cycle_graph(6)) == (EXHAUSTED, None, 916, None, 156250)
        assert find_labeling(cycle_graph(10)) == (EXHAUSTED, None, 772420, None, 156250)

    def test_budget_inconclusive(self):
        out = find_labeling(cycle_graph(12), SearchConfig(node_budget=5))
        assert out.status == INCONCLUSIVE
        assert out.labeling is None
        # the budget plus the one over-budget probe; 5 // 64 leaves the
        # local search no steps
        assert (out.nodes_explored, out.steps) == (6, 0)

    def test_find_all_matches_oracle(self):
        graphs = [path_graph(4), cycle_graph(5), star(4)] + random_connected()
        for g in graphs:
            oracle = brute_force_oracle(g, find_all=True)
            # the search's degree order, then the kernel in the identity order
            for ours in (all_labelings(g),
                         search._backtrack(g, list(range(1, g.n + 1)), DEFAULT_BUDGET,
                                           True)):
                assert ours.status == oracle.status
                assert sorted(ours.all_solutions) == sorted(oracle.all_solutions)

    def test_partial_enumeration_under_budget(self):
        g = random_tree(8, 1)
        out = all_labelings(g, SearchConfig(node_budget=1000))
        assert out.status == INCONCLUSIVE
        assert out.nodes_explored == 1001
        assert len(out.all_solutions) == 365
        assert out.labeling == out.all_solutions[0]
        for sol in out.all_solutions:
            assert verify(g, sol).ok

    def test_solutions_verified(self):
        out = all_labelings(path_graph(5))
        for sol in out.all_solutions:
            assert verify(path_graph(5), sol).ok


class TestLocalSearchFirst:
    @pytest.fixture
    def calls(self, monkeypatch):
        """(order, budget) of each kernel call; the kernel gives up at once."""
        calls = []

        def inconclusive(g, order, budget, find_all):
            calls.append((order, budget))
            return SearchOutcome(INCONCLUSIVE, None, 1)

        monkeypatch.setattr(search, "_backtrack", inconclusive)
        return calls

    @pytest.mark.parametrize("budget", [320_000, 1000, 63, DEFAULT_BUDGET])
    def test_steps_share_the_budget(self, calls, budget):
        # C6 has no labeling, so the local search spends its whole share,
        # 1/64 of the budget, and one depth-first search in degree order
        # gets the rest
        g = cycle_graph(6)
        out = find_labeling(g, SearchConfig(node_budget=budget))
        share = budget // 64
        assert out == (INCONCLUSIVE, None, 1, None, share)
        assert calls == [(list(range(1, 7)), budget - share)]

    def test_found_skips_the_kernel(self, calls):
        g = random_tree(30, 4)
        out = find_labeling(g)
        assert (out.status, out.nodes_explored, calls) == (FOUND, 0, [])
        assert 0 < out.steps <= DEFAULT_BUDGET // 64
        assert verify(g, out.labeling).ok

    def test_vertex_order_is_stable(self):
        # degree descending, ties by vertex id
        g = Graph(5, [(1, 5), (2, 3), (2, 5), (3, 4), (3, 5)])
        assert search._vertex_order(g) == [3, 5, 2, 1, 4]

    def test_local_search_repeats(self):
        # seeded by the edge list, the local search gives a graph the same
        # labeling in the same steps every time; on C6 it runs out
        g = random_tree(200, 3)
        labels, steps = search._local_search(g, 10_000)
        assert verify(g, labels).ok and 0 < steps < 10_000
        assert search._local_search(g, 10_000) == (labels, steps)
        assert search._local_search(cycle_graph(6), 500) == (None, 500)


class TestKernelGolden:
    # all_labelings status, nodes explored and solution count, pinned so that a
    # change to the search order or pruning shows up
    GRAPHS = [
        cycle_graph(5),
        cycle_graph(6),
        path_graph(6),
        star(5),
        random_tree(8, 1),
        random_tree(8, 2),
    ]

    @staticmethod
    def counts(out):
        return out.status, out.nodes_explored, len(out.all_solutions)

    def test_golden_counts(self):
        got = [self.counts(all_labelings(g)) for g in self.GRAPHS]
        assert got == [
            (FOUND, 277, 60),
            (EXHAUSTED, 916, 0),
            (FOUND, 1008, 136),
            (FOUND, 325, 120),
            (FOUND, 64084, 19512),
            (FOUND, 47020, 8712),
        ]

    def test_golden_counts_natural_order(self):
        # the kernel alone, in the identity vertex order
        got = [self.counts(search._backtrack(g, list(range(1, g.n + 1)), DEFAULT_BUDGET,
                                             True))
               for g in self.GRAPHS]
        assert got == [
            (FOUND, 277, 60),
            (EXHAUSTED, 916, 0),
            (FOUND, 1008, 136),
            (FOUND, 325, 120),
            (FOUND, 63424, 19512),
            (FOUND, 47164, 8712),
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
        for g in random_connected():
            assert find_labeling(g).status == brute_force_oracle(g).status


class TestConfig:
    def test_invalid_budget(self):
        with pytest.raises(UsageError):
            SearchConfig(node_budget=0)

    def test_outcome_is_frozen(self):
        out = SearchOutcome(FOUND, (1,), 1)
        with pytest.raises(AttributeError):
            out.status = EXHAUSTED
