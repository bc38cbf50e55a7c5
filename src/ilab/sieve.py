"""The derivative-root sieve.

For a polynomial g and each prime p, gamma(p) is the smallest power such
that g' is not identically zero as a function modulo p^gamma(p), and j(p)
counts the roots of g' at that modulus.  W(Y) keeps the inputs avoiding all
those root classes for p <= Y; W^q(Y) relaxes to the primes whose p^gamma
divides q.  Counting is exact (CRT inclusion-exclusion over root classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import count_congruent_in_range, crt_pair, primes_up_to
from .padic import ResourceLimit, roots_mod
from .poly import IntPolynomial

LIST_LIMIT = 10**7
COUNT_NODE_LIMIT = 10**7


def is_identically_zero_mod(f: IntPolynomial, m: int) -> bool:
    """Whether f(n) = 0 mod m for every integer n.

    By the Newton forward-difference basis, vanishing at n = 0..deg(f)
    forces vanishing everywhere.
    """
    if f.is_zero:
        return True
    return all(f.eval_mod(n, m) == 0 for n in range(f.degree + 1))


def gamma_j(g: IntPolynomial, p: int) -> tuple[int, int, tuple[int, ...]]:
    """(gamma, j, roots): minimal gamma with g' not identically zero mod
    p^gamma, and the roots of g' at that modulus."""
    if g.degree < 2:
        raise ValueError("gamma_j requires degree >= 2")
    dg = g.derivative()
    gamma = 1
    while is_identically_zero_mod(dg, p**gamma):
        gamma += 1
    roots = tuple(roots_mod(dg, p**gamma))
    return gamma, len(roots), roots


@dataclass(frozen=True)
class SieveProfile:
    """Per-prime sieve table for a fixed polynomial and real cutoff Y."""

    g: IntPolynomial
    Y: float
    table: dict[int, tuple[int, int, tuple[int, ...]]]

    @classmethod
    def build(cls, g: IntPolynomial, Y: float) -> "SieveProfile":
        table = {p: gamma_j(g, p) for p in primes_up_to(int(math.floor(Y)))}
        return cls(g=g, Y=Y, table=table)

    @property
    def modulus(self) -> int:
        """The wheel period M = prod p^gamma(p)."""
        out = 1
        for p, (gamma, _, _) in self.table.items():
            out *= p**gamma
        return out

    def density(self) -> Fraction:
        """prod (1 - j(p)/p^gamma(p)), exactly."""
        out = Fraction(1)
        for p, (gamma, j, _) in self.table.items():
            out *= 1 - Fraction(j, p**gamma)
        return out

    def _active(self, q: int | None = None):
        """(p^gamma, roots) for every prime with roots; only p^gamma | q if q is given."""
        for p, (gamma, _, roots) in self.table.items():
            pg = p**gamma
            if roots and (q is None or q % pg == 0):
                yield pg, roots

    def member(self, n: int, q: int | None = None) -> bool:
        """n in W(Y), or in W^q(Y) when q is given: g'(n) avoids every
        active root class."""
        return all(n % pg not in roots for pg, roots in self._active(q))

    def mask(self, n: int, q: int | None = None, lo: int = 0) -> np.ndarray:
        """Boolean membership of lo..lo+n-1 (index i is the integer lo + i)
        in W(Y), or W^q(Y)."""
        out = np.ones(n, dtype=bool)
        for pg, roots in self._active(q):
            for r in roots:
                out[(r - lo) % pg :: pg] = False
        return out


def _count_avoiding(items: list[tuple[int, tuple[int, ...]]], X: int) -> int:
    """|{n in [1, X] avoiding every root class}| by CRT inclusion-exclusion.

    Each node fixes one root class at each of some primes; once the CRT
    modulus exceeds X at most one n in [1, X] is left in the class, and it
    is tested against the remaining primes directly (Legendre's truncation).
    The number of nodes is capped at COUNT_NODE_LIMIT.
    """
    classes = [(pg, frozenset(roots)) for pg, roots in items]
    nodes = 0

    def rec(i: int, a: int, m: int) -> int:
        # count of n = a mod m in [1, X] avoiding the classes of items[i:]:
        # every n that hits one is subtracted once, at the last item it hits
        nonlocal nodes
        nodes += 1
        if nodes > COUNT_NODE_LIMIT:
            raise ResourceLimit(
                f"exact sieve count capped at {COUNT_NODE_LIMIT} inclusion-exclusion nodes"
            )
        if m > X:
            n = a % m
            return int(0 < n <= X and all(n % pg not in rs for pg, rs in classes[i:]))
        total = count_congruent_in_range(X, a % m, m)
        for k in range(i, len(classes)):
            pg, rs = classes[k]
            for r in rs:
                aa, mm = crt_pair(a, m, r, pg)
                total -= rec(k + 1, aa, mm)
        return total

    return rec(0, 0, 1)


def enumerate_w(
    profile: SieveProfile, X: int, want_list: bool = False
) -> tuple[int, list[int] | None]:
    """Exact |[1, X] cap W(Y)|, optionally with the member list.

    The count is computed by inclusion-exclusion over the per-prime root
    classes (exact integers); the list comes from the membership mask and
    is capped at X <= 1e7.
    """
    if X < 1:
        return 0, ([] if want_list else None)
    count = _count_avoiding(list(profile._active()), X)
    members = None
    if want_list:
        if X > LIST_LIMIT:
            raise MemoryError(f"member list capped at X <= {LIST_LIMIT}")
        members = (np.flatnonzero(profile.mask(X + 1)[1:]) + 1).tolist()
        assert len(members) == count
    return count, members


@dataclass
class BrunComparison:
    exact: int
    main: float
    relative_error: float
    in_regime: bool


def brun_compare(profile: SieveProfile, X: int) -> BrunComparison:
    """Exact sieve count against the Brun main term X * prod(1 - j/p^gamma).

    The error constant of the main-term estimate is not explicit, so the
    comparison is reported as data; in_regime flags X >= Y^2.
    """
    exact, _ = enumerate_w(profile, X)
    main = float(X * profile.density())
    rel = abs(exact - main) / X if X > 0 else 0.0
    return BrunComparison(
        exact=exact,
        main=main,
        relative_error=rel,
        in_regime=X >= profile.Y**2,
    )


def product_lower_check(profile: SieveProfile) -> tuple[float, float]:
    """(product, (log Y)^(1-k)): the sieve density against its lower-bound shape.

    Only positivity is asserted by callers; the ratio is monitoring data.
    """
    if profile.Y < 2:
        raise ValueError("Y must be at least 2")
    k = profile.g.degree
    product = float(profile.density())
    floor_value = math.log(profile.Y) ** (1 - k)
    return product, floor_value
