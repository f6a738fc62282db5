import hashlib
import sys
from itertools import permutations
from math import gcd

import pytest

from nplabel.errors import UsageError
from nplabel.numtheory import (
    CoprimeMatching,
    bertrand_prime,
    coprime_matching,
    is_prime,
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


class TestPrimes:
    def test_primes_upto(self):
        assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_upto(1) == []

    def test_is_prime(self):
        assert is_prime(2) and is_prime(97)
        assert not is_prime(1) and not is_prime(0) and not is_prime(91)

    def test_sieve_growth(self):
        # exercise the incremental extension across several jumps
        assert is_prime(10007)
        assert primes_upto(30)[-1] == 29

    def test_bertrand_examples(self):
        assert bertrand_prime(1) == 2
        assert bertrand_prime(3) == 5
        assert bertrand_prime(10) == 11

    def test_bertrand_window(self):
        for n in range(1, 2000):
            p = bertrand_prime(n)
            assert n < p <= 2 * n
            assert is_prime(p)
            # smallest such prime: nothing prime in (n, p)
            assert all(not is_prime(q) for q in range(n + 1, p))

    def test_bertrand_guard(self):
        with pytest.raises(UsageError):
            bertrand_prime(0)


class TestCoprimeMatching:
    def test_frozen_values(self):
        assert coprime_matching(1).pairs == (3,)
        assert coprime_matching(2).pairs == (6, 5)
        assert coprime_matching(3).pairs == (7, 9, 8)

    def test_matches_lexmin_oracle(self):
        for n in range(1, 8):
            assert coprime_matching(n).pairs == lexmin_matching_oracle(n)

    def test_invariants(self):
        for n in list(range(1, 60)) + [97, 128, 255, 500]:
            m = coprime_matching(n)
            assert m.n == n
            assert sorted(m.pairs) == list(range(2 * n + 1, 3 * n + 1))
            assert all(gcd(x, m[x]) == 1 for x in range(1, n + 1))

    def test_indexing(self):
        m = coprime_matching(4)
        assert m[1] == m.pairs[0]
        with pytest.raises(UsageError):
            m[0]
        with pytest.raises(UsageError):
            m[5]

    def test_guard(self):
        with pytest.raises(UsageError):
            coprime_matching(0)

    def test_record_type(self):
        m = CoprimeMatching(2, (6, 5))
        assert m[2] == 5

    def test_matches_lexmin_oracle_even_n8(self):
        assert coprime_matching(8).pairs == lexmin_matching_oracle(8)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (1900, "1cb58afae3f38984"),
            (1901, "d9233188da175a62"),
            (1994, "5df70c1a423733ca"),
            (1999, "dbed9ca988a6967a"),
            (2000, "8d2c8aa1b742292f"),
        ],
    )
    def test_golden_pairs(self, n, digest):
        pairs = coprime_matching(n).pairs
        text = ",".join(map(str, pairs)).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest

    def test_parity_structure(self):
        # even n: odd x take even y and even x take odd y, in every
        # perfect matching; odd n: Y has one odd y more than X has even x
        for n in range(2, 201, 2):
            pairs = coprime_matching(n).pairs
            assert all((x + y) % 2 == 1 for x, y in enumerate(pairs, 1)), n
        for n in range(1, 202, 2):
            pairs = coprime_matching(n).pairs
            odd_odd = [x for x, y in enumerate(pairs, 1) if x % 2 and y % 2]
            assert len(odd_odd) == 1, n

    def test_recursion_limit_untouched(self):
        before = sys.getrecursionlimit()
        coprime_matching(3001)
        assert sys.getrecursionlimit() == before
