import hashlib
import sys
from itertools import permutations
from math import gcd

import pytest

from nplabel import numtheory
from nplabel.errors import UsageError
from nplabel.numtheory import (
    bertrand_prime,
    coprime_matching,
    primes_upto,
)


def lexmin_matching_oracle(n):
    """Smallest coprime matching by scanning all permutations; n <= 7."""
    best = None
    lo = 2 * n + 1
    for perm in permutations(range(lo, 3 * n + 1)):
        if all(gcd(x, perm[x - 1]) == 1 for x in range(1, n + 1)):
            if best is None or perm < best:
                best = perm
    return best


def lexmin_matching_reference(n):
    """Smallest coprime matching built x by x: x = 1..n in order takes the
    smallest coprime y for which the x after it can still all be matched,
    as a plain augmenting-path search over bitmasks finds.  Unlike
    ``coprime_matching`` it pins no partner and drops no edge by parity."""
    lo = 2 * n + 1
    cop = [0] + [sum(1 << j for j in range(n) if gcd(x, lo + j) == 1)
                 for x in range(1, n + 1)]

    def covers(xs, ys):
        owner = {}  # y bit -> its x

        def augment(x, seen):
            cand = cop[x] & ys & ~seen[0]
            while cand:
                bit = cand & -cand
                seen[0] |= bit
                if bit not in owner or augment(owner[bit], seen):
                    owner[bit] = x
                    return True
                cand &= ~seen[0]
            return False

        return all(augment(x, [0]) for x in xs)

    partners = []
    ys = (1 << n) - 1
    for x in range(1, n + 1):
        free = cop[x] & ys
        j = next(j for j in range(n)
                 if free >> j & 1 and covers(range(x + 1, n + 1), ys & ~(1 << j)))
        ys &= ~(1 << j)
        partners.append(lo + j)
    return tuple(partners)


class TestPrimes:
    def test_primes_upto(self):
        assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_upto(1) == []

    def test_is_prime(self):
        # primality read off the sieve
        primes = primes_upto(97)
        assert 2 in primes and 97 in primes
        assert 0 not in primes and 1 not in primes and 91 not in primes

    def test_sieve_growth(self):
        # exercise the incremental extension across several jumps
        assert primes_upto(10007)[-1] == 10007
        assert primes_upto(30)[-1] == 29

    def test_bertrand_examples(self):
        assert bertrand_prime(1) == 2
        assert bertrand_prime(3) == 5
        assert bertrand_prime(10) == 11

    def test_bertrand_window(self):
        primes = set(primes_upto(4000))
        for n in range(1, 2000):
            p = bertrand_prime(n)
            assert n < p <= 2 * n
            assert p in primes
            # smallest such prime: nothing prime in (n, p)
            assert all(q not in primes for q in range(n + 1, p))

    def test_bertrand_guard(self):
        with pytest.raises(UsageError):
            bertrand_prime(0)

    def test_bertrand_failure_raises(self, monkeypatch):
        # a real error, not an assert, so that it survives ``python -O``
        monkeypatch.setattr(numtheory, "_extend_sieve", lambda limit: None)
        monkeypatch.setattr(numtheory, "_primes", [2, 3, 5, 7, 97])
        with pytest.raises(RuntimeError, match="Bertrand's postulate violated at n=10"):
            bertrand_prime(10)


class TestCoprimeMatching:
    def test_frozen_values(self):
        assert coprime_matching(1) == (3,)
        assert coprime_matching(2) == (6, 5)
        assert coprime_matching(3) == (7, 9, 8)

    def test_matches_lexmin_oracle(self):
        for n in range(1, 8):
            assert coprime_matching(n) == lexmin_matching_oracle(n)

    def test_invariants(self):
        for n in list(range(1, 60)) + [97, 128, 255, 500]:
            m = coprime_matching(n)
            assert len(m) == n
            assert sorted(m) == list(range(2 * n + 1, 3 * n + 1))
            assert all(gcd(x, y) == 1 for x, y in enumerate(m, 1))

    def test_guard(self):
        with pytest.raises(UsageError):
            coprime_matching(0)

    @pytest.mark.parametrize("n, why", [
        (4, "this would falsify the Pomerance-Selfridge theorem"),
        (5, "pinning x = 1 to y = 2n\\+1 left none"),
    ])
    def test_no_matching_raises(self, monkeypatch, n, why):
        # no x coprime to any y: phase 1 must fail loudly, also under -O
        monkeypatch.setattr(numtheory, "_coprime_masks", lambda n: [0] * (n + 1))
        with pytest.raises(RuntimeError, match="no perfect coprime matching at n=%d; %s"
                           % (n, why)):
            coprime_matching(n)

    def test_matches_greedy_reference(self):
        # past the reach of the permutation oracle, against a reference
        # that leans on neither the odd-n pin nor the parity drop
        for n in range(1, 61):
            assert coprime_matching(n) == lexmin_matching_reference(n), n

    def test_matches_lexmin_oracle_even_n8(self):
        assert coprime_matching(8) == lexmin_matching_oracle(8)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (1900, "1cb58afae3f38984"),
            (1901, "d9233188da175a62"),
            (1994, "5df70c1a423733ca"),
            (1999, "dbed9ca988a6967a"),
            (2000, "8d2c8aa1b742292f"),
            (10001, "74ed1fad8329ef62"),
        ],
    )
    def test_golden_pairs(self, n, digest):
        pairs = coprime_matching(n)
        text = ",".join(map(str, pairs)).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest

    def test_parity_structure(self):
        # even n: odd x take even y and even x take odd y, in every
        # perfect matching; odd n: Y has one odd y more than X has even x,
        # and x = 1 takes it, the smallest y
        for n in range(2, 201, 2):
            pairs = coprime_matching(n)
            assert all((x + y) % 2 == 1 for x, y in enumerate(pairs, 1)), n
        for n in range(1, 202, 2):
            pairs = coprime_matching(n)
            odd_odd = [x for x, y in enumerate(pairs, 1) if x % 2 and y % 2]
            assert len(odd_odd) == 1, n
            assert pairs[0] == 2 * n + 1, n

    def test_recursion_limit_untouched(self):
        before = sys.getrecursionlimit()
        coprime_matching(3001)
        assert sys.getrecursionlimit() == before
