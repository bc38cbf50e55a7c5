"""Integer arithmetic against sympy: factorize by trial division."""

import random

import pytest

from ilab.arith import factorize

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


def test_factorize_rejects_nonpositive():
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(n)
