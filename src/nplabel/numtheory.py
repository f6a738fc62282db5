"""Number-theoretic subroutines: Bertrand primes and coprime matchings.

The firecracker labeler needs a prime in (n, 2n] and a perfect matching
between {1..n} and {2n+1..3n} pairing coprime integers; the matching is
guaranteed to exist (Pomerance & Selfridge 1980).  The search splits it
by parity: an even x is coprime only to odd y, and once x = 1 holds
y = 2n+1 when n is odd, Y is left with exactly one odd y per even x, so
the even x take every odd y and no other odd x takes one.
"""

from __future__ import annotations

from bisect import bisect_right
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


def bertrand_prime(n: int) -> int:
    """Smallest prime p with n+1 <= p <= 2n; exists for every n >= 1."""
    if n < 1:
        raise UsageError("bertrand_prime requires n >= 1, got %d" % n)
    _extend_sieve(2 * n)
    i = bisect_right(_primes, n)
    p = _primes[i]
    if p > 2 * n:
        raise RuntimeError("Bertrand's postulate violated at n=%d" % n)
    return p


def _coprime_masks(n: int):
    """Bitmask adjacency: bit j of cop[x] is set iff gcd(x, 2n+1+j) = 1.

    Built by sieving rather than n^2 gcd calls: for each prime p <= n,
    every multiple of p loses the bits of the y that p divides.
    """
    lo = 2 * n + 1
    full = (1 << n) - 1
    cop = [0] + [full] * n
    for p in primes_upto(n):
        hits = 0
        for j in range((-lo) % p, n, p):
            hits |= 1 << j
        nondiv = full & ~hits
        for x in range(p, n + 1, p):
            cop[x] &= nondiv
    return cop


def coprime_matching(n: int) -> Tuple[int, ...]:
    """Lexicographically smallest perfect coprime matching between
    X = {1..n} and Y = {2n+1..3n}, as the tuple of partners: entry x - 1
    is the partner of x.

    Phase 1 builds some perfect matching by augmenting-path search (x
    ascending, smallest y preferred).  Phase 2 walks x = 1..n and locks in
    the smallest partner for which the rest of the matching can still be
    repaired by an augmenting path, which yields the lexicographic minimum
    of the sequence (map(1), map(2), ..., map(n)).

    lo = 2n+1 is odd, so Y holds ceil(n/2) odd y (the even bits j) and
    X holds floor(n/2) even x, each coprime only to odd y.  For odd n,
    x = 1 is first pinned to y = 2n+1, the smallest y and coprime to 1:
    if any perfect matching gives it to x = 1, the lexicographic minimum
    does.  Then, for both parities, the odd y left are exactly as many as
    the even x, so no other odd x can take one; those edges are dropped
    before the search, which spares phase 2 its doomed repairs.  The
    odd-y mask has ceil(n/2) bits, which ``full // 3`` gives only for
    even n.  The pin is checked on data, not proved: if it ever left no
    perfect matching, phase 1 would fail loudly.
    """
    if n < 1:
        raise UsageError("coprime_matching requires n >= 1, got %d" % n)
    lo = 2 * n + 1
    full = (1 << n) - 1
    cop = _coprime_masks(n)
    odd_y = ((1 << 2 * ((n + 1) // 2)) - 1) // 3  # bits 0, 2, 4, ...
    for x in range(1, n + 1, 2):
        cop[x] &= ~odd_y
    if n % 2:
        cop[1] = 1  # pin x = 1 to y = 2n+1
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
        if not augment(x):
            raise RuntimeError("no perfect coprime matching at n=%d; %s" % (
                n,
                "pinning x = 1 to y = 2n+1 left none, and the pin is checked "
                "on data, not proved" if n % 2
                else "this would falsify the Pomerance-Selfridge theorem",
            ))

    unlocked = full
    for x in range(1, n + 1):
        cur = match_of_x[x]
        jc = cur - lo
        cand = cop[x] & unlocked & ((1 << jc) - 1)
        while cand:
            j = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            # tentatively steal y = lo+j from its owner and repair
            owner = match_of_y[j]
            match_of_y[jc] = 0
            match_of_y[j] = x
            match_of_x[x] = lo + j
            avail = unlocked & ~(1 << j)
            free_mask = 1 << jc
            if augment(owner):
                break
            match_of_y[j] = owner
            match_of_x[owner] = lo + j
            match_of_x[x] = cur
            match_of_y[jc] = x
        free_mask = 0
        unlocked &= ~(1 << (match_of_x[x] - lo))
    return tuple(match_of_x[1:])
