"""Acceptance gate: nine end-to-end criteria, one test each.

Each test prints a single summary line on success; the pytest -v status
line doubles as the pass/fail record.  Expected total runtime is about
half a minute, dominated by the C14 cycle search and the number-theory
sweep.
"""

import math
import random
from itertools import combinations_with_replacement, product

from contraction import contract_reference
from nplabel.errors import InvalidSpec, UnsupportedParameters
from nplabel.families import (
    banana_graph,
    book_graph,
    caterpillar_graph,
    complete_binary_graph,
    cycle_graph,
    firecracker_graph,
    full_kary_graph,
    gear_graph,
    mobius_graph,
    random_tree,
    snake_graph,
    spider_graph,
    star_gon_graph,
)
from nplabel.graph import Graph, verify, with_pendant
from nplabel.labelers import (
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
    label_snake,
    label_spider,
    label_star_gon,
)
from nplabel.numtheory import bertrand_prime, coprime_matching
from nplabel.search import (
    EXHAUSTED,
    FOUND,
    SearchConfig,
    brute_force_oracle,
    find_labeling,
)
from nplabel.treescan import crosscheck_tree_counts, enumerate_free_trees, scan_conjecture


def check(g, labels):
    report = verify(g, labels)
    assert report.ok, report.violations
    return 1


def repair_degree_two(t):
    """Attach pendants until no degree-2 vertex is left off a single path."""
    while True:
        deg2 = [v for v in range(1, t.n + 1) if t.degree(v) == 2]
        if not deg2:
            return t
        t = with_pendant(t, deg2[0])


def all_full_binary_shapes(max_nodes):
    shapes = []
    for total in range(1, max_nodes + 1, 2):
        for bits in product((0, 1), repeat=total):
            try:
                shapes.append(full_kary_graph(2, list(bits)))
            except InvalidSpec:
                continue
    return shapes


def test_criterion_1_constructive_sweep():
    count = 0
    for n in range(3, 61):
        count += check(gear_graph(n), label_gear(n))
    for k, top in ((3, 60), (4, 40), (5, 32)):
        for n in range(2, top + 1):
            count += check(snake_graph(k, n), label_snake(k, n))
    big_polygon = refused = 0
    for k in range(6, 42):
        for n in range(3, 66):
            try:
                labels = label_snake(k, n)
            except UnsupportedParameters:
                refused += 1
                continue
            count += check(snake_graph(k, n), labels)
            big_polygon += 1
    assert (big_polygon, refused) == (346, 1922)
    for k in (3, 4, 5):
        for n in range(3, 31):
            count += check(star_gon_graph(k, n), label_star_gon(k, n))
    for n in range(1, 51):
        count += check(book_graph(5, n), label_book5(n))
        for k in (3, 4):
            count += check(book_graph(k, n), label_book(k, n))
    for n in range(3, 51):
        count += check(mobius_graph(n), label_mobius(n))
    rng = random.Random(11)
    for _ in range(500):
        counts = [rng.randint(0, 5) for _ in range(rng.randint(0, 18))]
        count += check(caterpillar_graph(counts), label_caterpillar(counts))
    for legs_n in (3, 4, 5):
        for legs in combinations_with_replacement(range(1, 6), legs_n):
            count += check(spider_graph(legs), label_spider(legs))
    for _ in range(200):
        legs = [rng.randint(1, 9) for _ in range(rng.randint(3, 9))]
        count += check(spider_graph(legs), label_spider(legs))
    for n in range(3, 13):
        for k in range(4, 11):
            count += check(banana_graph(n, k), label_banana(n, k))
    for n in range(1, 41):
        for k in range(3, 9):
            count += check(firecracker_graph(n, k), label_firecracker(n, k))
    for seed in range(500):
        t = repair_degree_two(random_tree(rng.randint(3, 40), seed))
        count += check(t, label_bivalent_free(t))
    shapes = all_full_binary_shapes(15)
    assert len(shapes) == 626  # Catalan numbers 1+1+2+5+14+42+132+429
    for t in shapes:
        count += check(t, label_full_binary(t))
    for n in range(1, 64):
        count += check(complete_binary_graph(n), label_full_binary(complete_binary_graph(n)))
    print("PASS criterion 1: %d constructive labelings verified" % count)


def test_criterion_2_hexagonal_cycle_negative():
    oracle = brute_force_oracle(cycle_graph(6))
    assert oracle.status == EXHAUSTED
    assert oracle.nodes_explored == 720
    searched = find_labeling(cycle_graph(6))
    assert searched.status == EXHAUSTED
    print("PASS criterion 2: C6 exhausted over 720 bijections; searcher agrees")


def test_criterion_3_cycle_positives():
    for n in (3, 4, 5, 7, 8, 9, 11, 12, 13):
        out = find_labeling(cycle_graph(n))
        assert out.status == FOUND, n
        assert verify(cycle_graph(n), out.labeling).ok
    # n = 2 (mod 4) recorded as data, not asserted either way
    data = {n: find_labeling(cycle_graph(n)).status for n in (6, 10, 14)}
    print("PASS criterion 3: cycles found for n !== 2 (mod 4); data %s" % data)


def test_criterion_4_conjecture_scan():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235]
    for n, a, b in crosscheck_tree_counts(11):
        assert a == b == expected[n - 1], n
    report = scan_conjecture(11)
    assert [r.tree_count for r in report.rows] == expected
    assert report.conjecture_holds
    assert all(not r.inconclusive for r in report.rows)
    assert all(r.solved_count == r.tree_count for r in report.rows)
    print("PASS criterion 4: all %d trees up to n=11 solved; dual generators agree"
          % sum(expected))


def test_criterion_5_oracle_equivalence():
    compared = 0
    for n in range(1, 8):
        for t in enumerate_free_trees(n):
            assert find_labeling(t).status == brute_force_oracle(t).status
            compared += 1
    for n in range(3, 8):
        g = cycle_graph(n)
        assert find_labeling(g).status == brute_force_oracle(g).status
        compared += 1
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 7)
        t = random_tree(n, rng.randint(0, 10**6))
        extra = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in t.edges and rng.random() < 0.35
        ]
        g = Graph(n, list(t.edges) + extra)
        assert find_labeling(g).status == brute_force_oracle(g).status
        compared += 1
    print("PASS criterion 5: searcher matches the oracle on %d graphs" % compared)


def test_criterion_6_transformation_lemmas():
    contracted = 0
    # n starts at 3: in a single polygon the base chord joins the two ends
    for k, lo, hi in ((3, 3, 70), (4, 3, 70), (5, 3, 69)):
        for n in range(lo, hi):
            g = snake_graph(k, n)
            f = label_snake(k, n)
            labels = contract_one_max(g, f, 1, g.n)
            assert verify(contract_reference(g, 1, g.n), labels).ok, (k, n)
            contracted += 1
    assert contracted == 200
    rng = random.Random(13)
    extended = 0
    while extended < 200:
        counts = [rng.randint(0, 3) for _ in range(rng.randint(1, 8))]
        g = caterpillar_graph(counts)
        f = label_caterpillar(counts)
        for _ in range(rng.randint(1, 5)):
            if extended == 200:
                break
            anchors = [v for v in range(1, g.n + 1) if g.degree(v) > 1]
            g, f = extend_pendant(g, f, rng.choice(anchors))
            assert verify(g, f).ok
            extended += 1
    print("PASS criterion 6: 200 contractions and 200 pendant extensions verified")


def test_criterion_7_number_theory():
    for n in range(1, 2001):
        m = coprime_matching(n)
        assert sorted(m) == list(range(2 * n + 1, 3 * n + 1)), n
        assert all(math.gcd(x, y) == 1 for x, y in enumerate(m, 1)), n
    import numpy as np

    limit = 2 * 10**6
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags)
    ns = np.arange(1, 10**6 + 1)
    expected = primes[np.searchsorted(primes, ns, side="right")]
    assert np.all(expected <= 2 * ns)
    got = [bertrand_prime(n) for n in range(1, 10**6 + 1)]
    assert np.array_equal(np.asarray(got), expected)
    print("PASS criterion 7: matchings verified for n <= 2000; "
          "Bertrand primes match an independent sieve to 10^6")


def test_criterion_8_gcd_identities():
    rng = random.Random(17)
    trials = 0
    while trials < 10**4:
        a = rng.randint(1, 10**9)
        b = rng.randint(1, 10**9)
        c = rng.randint(0, 10**4)
        d = rng.randint(0, 10**4)
        if math.gcd(c, b) == 1 and c * a + d * b >= 1:
            assert math.gcd(a, b) == math.gcd(c * a + d * b, b)
            trials += 1
        if math.gcd(d, a) == 1 and c * a + d * b >= 1:
            assert math.gcd(a, b) == math.gcd(a, c * a + d * b)
            trials += 1
    print("PASS criterion 8: %d gcd linear-combination identities held" % trials)


def test_criterion_9_hexagonal_snakes():
    for n in (3, 7, 11, 15):
        g = snake_graph(6, n)
        assert verify(g, label_snake(6, n)).ok, n
    print("PASS criterion 9: hexagonal snakes labeled for n = 3, 7, 11, 15")
