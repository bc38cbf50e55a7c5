"""Integer arithmetic against sympy: factorize by trial division, the
Miller-Rabin primality test it leans on for a prime cofactor, and the
divisors built from it."""

import random

import pytest

from ilab.arith import divisors, factorize, is_prime

sympy = pytest.importorskip("sympy")


def sympy_factorization(n):
    return tuple(sorted(sympy.factorint(n).items()))


def test_factorize_small_matches_factorint():
    for n in range(1, 3000):
        assert factorize(n) == sympy_factorization(n), n


def test_factorize_large_matches_factorint():
    rng = random.Random(1729)
    cases = [rng.randint(1, 10**12) for _ in range(40)]
    # a prime and a prime square near the top of the range force the full
    # trial-division walk
    cases += [999999999989, 999983**2, 2**39, 3**25]
    for n in cases:
        assert factorize(n) == sympy_factorization(n), n


def test_is_prime_matches_isprime():
    # strong pseudoprimes to the bases 2, 3, 5 (caught by 7), to 2, 3, 5, 7
    # (3215031751, the first n that needs all twelve bases) and beyond
    spsp = [25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
            3825123056546413051]
    rng = random.Random(1731)
    cases = list(range(-2, 5000)) + [rng.randint(1, 10**12) for _ in range(300)]
    cases += [p + dp for p in spsp for dp in (-2, 0, 2)] + [2**61 - 1, 2**64 - 59]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_rejects_nonpositive():
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(n)


def test_divisors_match_sympy():
    rng = random.Random(1730)
    cases = list(range(1, 500)) + [rng.randint(1, 10**12) for _ in range(20)]
    cases += [10**14, 10**18, 2**40, 999983**2]
    for n in cases:
        assert divisors(n) == sympy.divisors(n), n
