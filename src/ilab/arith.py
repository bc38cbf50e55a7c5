"""Elementary integer arithmetic shared across the package.

Everything here is exact: Python integers only, no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, fl in enumerate(sieve) if fl]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs and beyond desk
    scale; below 3 215 031 751 the bases 2, 3, 5, 7 already decide (Jaeschke)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: 4 if n < 3_215_031_751 else None]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...), p ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for p in (2, 3, 5):
        e = 0
        while n % p == 0:
            e += 1
            n //= p
        if e:
            out.append((p, e))
    if n > 1 and is_prime(n):  # a prime cofactor skips the trial-division wheel
        return (*out, (n, 1))
    d = 7
    # 2/4-alternating wheel over numbers coprime to 2,3
    step = 4
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            out.append((d, e))
        d += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from its factorization."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n))


def v_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def v_p_fraction(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    return v_p(x.numerator, p) - v_p(x.denominator, p)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Merge x = r1 mod m1, x = r2 mod m2 for coprime moduli; returns (r, m1*m2)."""
    m = m1 * m2
    inv = pow(m1, -1, m2)
    r = (r1 + (r2 - r1) * inv % m2 * m1) % m
    return r, m


def integer_nth_root(x: int, n: int) -> int:
    """floor(x**(1/n)) for x >= 0, n >= 1, exact at every size.

    Newton's iteration r <- ((n-1) r + x // r^(n-1)) // n decreases from
    any start above the root and stops at the floor; the start
    2^ceil(bit_length(x) / n) is above it."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if n == 1:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def count_congruent_in_range(x: int, a: int, m: int) -> int:
    """|{n in [1, x] : n == a mod m}| for x >= 0, 0 <= a < m."""
    if x <= 0:
        return 0
    if a == 0:
        return x // m
    if a > x:
        return 0
    return (x - a) // m + 1
