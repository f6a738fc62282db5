"""Number-theoretic subroutines: Bertrand primes and coprime matchings.

The firecracker labeler needs a prime in (n, 2n] and a perfect matching
between {1..n} and {2n+1..3n} pairing coprime integers; the matching is
guaranteed to exist, so failing to find one is a hard invariant violation.
For even n the matching splits by parity: Y then holds as many odd
numbers as X holds even ones, and an even x is coprime only to odd y, so
the even x take every odd y and no odd x can ever take an odd y.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Tuple

from .errors import UsageError

_primes = [2, 3, 5, 7, 11, 13]
_sieve_limit = 13


def _extend_sieve(limit: int) -> None:
    global _primes, _sieve_limit
    if limit <= _sieve_limit:
        return
    limit = max(limit, 2 * _sieve_limit, 1 << 10)
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    _primes = [i for i in range(2, limit + 1) if flags[i]]
    _sieve_limit = limit


def primes_upto(limit: int):
    """Sorted list of all primes <= limit (cached incremental sieve)."""
    _extend_sieve(limit)
    return _primes[: bisect_right(_primes, limit)]


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    _extend_sieve(x)
    i = bisect_right(_primes, x)
    return i > 0 and _primes[i - 1] == x


def bertrand_prime(n: int) -> int:
    """Smallest prime p with n+1 <= p <= 2n; exists for every n >= 1."""
    if n < 1:
        raise UsageError("bertrand_prime requires n >= 1, got %d" % n)
    _extend_sieve(2 * n)
    i = bisect_right(_primes, n)
    p = _primes[i]
    assert p <= 2 * n, "Bertrand's postulate violated at n=%d" % n
    return p


@dataclass(frozen=True)
class CoprimeMatching:
    """Bijection {1..n} -> {2n+1..3n} with gcd(x, map(x)) = 1.

    ``pairs[x-1]`` is the partner of x.
    """

    n: int
    pairs: Tuple[int, ...]

    def __getitem__(self, x: int) -> int:
        if not (1 <= x <= self.n):
            raise UsageError("x=%d out of range 1..%d" % (x, self.n))
        return self.pairs[x - 1]


def _coprime_masks(n: int):
    """Bitmask adjacency: bit j of cop[x] is set iff gcd(x, 2n+1+j) = 1.

    Built by sieving multiples of each prime factor of x rather than n^2
    gcd calls; an x has O(log x) distinct prime factors.
    """
    lo = 2 * n + 1
    full = (1 << n) - 1
    spf = list(range(n + 1))  # smallest prime factor
    p = 2
    while p * p <= n:
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
        p += 1
    nondiv = {}  # prime -> mask of j with (lo + j) not divisible by p
    cop = [0] * (n + 1)
    for x in range(1, n + 1):
        m = full
        y = x
        while y > 1:
            p = spf[y]
            if p not in nondiv:
                hits = 0
                for j in range((-lo) % p, n, p):
                    hits |= 1 << j
                nondiv[p] = full & ~hits
            m &= nondiv[p]
            while y % p == 0:
                y //= p
        cop[x] = m
    return cop


def coprime_matching(n: int) -> CoprimeMatching:
    """Lexicographically smallest perfect coprime matching between
    X = {1..n} and Y = {2n+1..3n}.

    Phase 1 builds some perfect matching by augmenting-path search (x
    ascending, smallest y preferred).  Phase 2 walks x = 1..n and locks in
    the smallest partner for which the rest of the matching can still be
    repaired by an augmenting path, which yields the lexicographic minimum
    of the sequence (map(1), map(2), ..., map(n)).

    For even n, lo = 2n+1 is odd and Y holds n/2 odd y, exactly as many
    as X holds even x; an even x is coprime only to odd y, so every
    perfect matching gives the odd y to the even x.  The odd-x-to-odd-y
    edges therefore lie in no perfect matching and are dropped before the
    search, which spares phase 2 its doomed repairs; the minimum is the
    same.  For odd n no edge is dropped.
    """
    if n < 1:
        raise UsageError("coprime_matching requires n >= 1, got %d" % n)
    lo = 2 * n + 1
    full = (1 << n) - 1
    cop = _coprime_masks(n)
    if n % 2 == 0:
        even_j = full // 3  # bits 0, 2, ..., n-2: the odd y
        for x in range(1, n + 1, 2):
            cop[x] &= ~even_j
    match_of_y = [0] * n  # index y - lo -> matched x, 0 = free
    match_of_x = [0] * (n + 1)
    avail = full  # ys neither locked nor visited by the running augmentation

    free_mask = 0  # ys with no partner; tried first so repairs stay shallow

    def augment(x):
        """Depth-first augmenting path from x: a free y if one is adjacent
        (smallest first), else the largest y whose owner can move on."""
        nonlocal avail, free_mask
        path = []  # (x, its untried ys, the y it is trying) down to here
        while True:
            cand = cop[x] & avail
            quick = cand & free_mask
            if quick:
                j = (quick & -quick).bit_length() - 1
                avail &= ~(1 << j)
                free_mask &= ~(1 << j)
                match_of_y[j] = x
                match_of_x[x] = lo + j
                for x, _, j in path:
                    match_of_y[j] = x
                    match_of_x[x] = lo + j
                return True
            while not cand:
                if not path:
                    return False
                x, cand, _ = path.pop()
                cand &= avail
            j = cand.bit_length() - 1
            bit = 1 << j
            cand &= ~bit
            avail &= ~bit
            path.append((x, cand, j))
            x = match_of_y[j]

    free_mask = full
    for x in range(1, n + 1):
        avail = full
        ok = augment(x)
        assert ok, (
            "no perfect coprime matching at n=%d; this would falsify "
            "the Pomerance-Selfridge theorem" % n
        )

    unlocked = full
    for x in range(1, n + 1):
        cur = match_of_x[x]
        jc = cur - lo
        cand = cop[x] & unlocked & ((1 << jc) - 1)
        dead = 0  # ys visited by a failed repair can never repair either
        while cand:
            j = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if dead >> j & 1:
                continue
            # tentatively steal y = lo+j from its owner and repair
            owner = match_of_y[j]
            match_of_y[jc] = 0
            match_of_y[j] = x
            match_of_x[x] = lo + j
            avail = unlocked & ~(1 << j)
            free_mask = 1 << jc
            if augment(owner):
                break
            dead |= unlocked & ~avail
            match_of_y[j] = owner
            match_of_x[owner] = lo + j
            match_of_x[x] = cur
            match_of_y[jc] = x
        free_mask = 0
        unlocked &= ~(1 << (match_of_x[x] - lo))
    return CoprimeMatching(n, tuple(match_of_x[1:]))
