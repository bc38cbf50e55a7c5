"""The derivative-root sieve.

For a polynomial g and each prime p, gamma(p) is the smallest power such
that g' is not identically zero as a function modulo p^gamma(p), and j(p)
counts the roots of g' at that modulus.  A modulus divides every value of
g' exactly when it divides G = gcd(Delta^i g'(0) : i <= deg g'), the
coefficients of g' in the Newton basis binom(x, i), so gamma(p) is
1 + v_p(G).  W(Y) keeps the inputs avoiding all those root classes for
p <= Y; W^q(Y) relaxes to the primes whose p^gamma divides q.  The roots
of g' at every p^gamma come from one roots_mod call.

Counting is exact.  Membership in W(Y) has the period L = wheel, and by CRT
one period holds prod (p^gamma - j) members over the primes with roots, so
|[1, X] cap W(Y)| = c prod (p^gamma - j) + S(rem) with X = cL + rem and
S(t) the members in [1, t]: while rem <= COUNT_SPAN_LIMIT, S(rem) is one
masked pass over [1, rem], COUNT_CHUNK residues at a time.  Past it (a huge
wheel and few active primes), CRT inclusion-exclusion over the root classes
counts instead, capped at COUNT_NODE_LIMIT nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import count_congruent_in_range, crt_pair, primes_up_to, v_p
from .padic import ResourceLimit, roots_mod
from .poly import IntPolynomial

COUNT_NODE_LIMIT = 10**7
# a masked count over 2^24 residues takes at most about 15 ms at Y <= 150
# (timed on a 2-core box); past that span, inclusion-exclusion counts the
# members in [1, X mod wheel] instead
COUNT_SPAN_LIMIT = 2**24
COUNT_CHUNK = 2**18
PATTERN_LIMIT = 2**14
MODULUS_DIGITS = 4000
_MODULUS_CAP = 10**MODULUS_DIGITS


@dataclass(frozen=True)
class SieveProfile:
    """Per-prime sieve table for a fixed polynomial and real cutoff Y, and
    its wheel period, the modulus prod p^gamma(p)."""

    g: IntPolynomial
    Y: float
    table: dict[int, tuple[int, int, tuple[int, ...]]]
    modulus: int

    @classmethod
    def build(cls, g: IntPolynomial, Y: float) -> "SieveProfile":
        """The table for the primes p <= Y, in ascending order.  Raises
        ResourceLimit once the modulus prod p^gamma reaches
        10^MODULUS_DIGITS, which also bounds the residues scanned, unless a
        p^gamma up to that prime is past the scan's ROOTS_BRUTE_LIMIT first."""
        # each prime multiplies the modulus by p^gamma >= p, and the primes
        # up to 3 * MODULUS_DIGITS alone reach the cap: none past them is used
        gammas, modulus = {}, 1
        primes = primes_up_to(min(int(math.floor(Y)), 3 * MODULUS_DIGITS))
        if primes and g.degree < 2:
            raise ValueError(f"the sieve needs degree >= 2, got {g.degree}")
        dg = g.derivative()
        diffs, G = [dg(n) for n in range(dg.degree + 1)], 0
        while diffs:
            G = math.gcd(G, diffs[0])
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        for p in primes:
            gammas[p] = 1 + v_p(G, p)
            modulus *= p ** gammas[p]
            if modulus >= _MODULUS_CAP:
                break
        roots = roots_mod(dg, [p**gamma for p, gamma in gammas.items()])
        if modulus >= _MODULUS_CAP:
            raise ResourceLimit(f"sieve modulus capped at 10^{MODULUS_DIGITS} (reached at p = {p})")
        table = {p: (e, len(roots[p**e]), tuple(roots[p**e])) for p, e in gammas.items()}
        return cls(g=g, Y=Y, table=table, modulus=modulus)

    def density(self, q: int | None = None) -> Fraction:
        """prod (1 - j(p)/p^gamma(p)) = prod (p^gamma - j) / prod p^gamma,
        exactly, over the primes whose p^gamma does not divide q (all when
        q is None)."""
        kept = [(p**e, j) for p, (e, j, _) in self.table.items() if q is None or q % p**e]
        return Fraction(math.prod(pg - j for pg, j in kept), math.prod(pg for pg, _ in kept))

    @property
    def wheel(self) -> int:
        """prod p^gamma over the primes with roots: the period of W(Y)."""
        return math.prod(pg for pg, _ in self._active())

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
        in W(Y), or W^q(Y).

        The leading moduli whose product P stays within PATTERN_LIMIT strike
        their root classes into out[:P] only, which is then copied forward
        in doubling steps; the other moduli strike across all n.
        """
        active = list(self._active(q))
        P, k = 1, 0
        while k < len(active) and P * active[k][0] <= PATTERN_LIMIT:
            P, k = P * active[k][0], k + 1
        out = np.ones(n, dtype=bool)
        _strike(out[:P], active[:k], lo)
        done = P if k else n
        while done < n:  # out[:done] has the period P
            step = min(done, n - done)
            out[done : done + step] = out[:step]
            done += step
        _strike(out, active[k:], lo)
        return out


def _strike(out: np.ndarray, moduli, lo: int) -> None:
    """Clear out[i] wherever lo + i hits a root class of one of the moduli
    (p^gamma, roots)."""
    for pg, roots in moduli:
        for r in roots:
            out[(r - lo) % pg :: pg] = False


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


def _masked_count(profile: SieveProfile, t: int) -> int:
    """|[1, t] cap W(Y)| from one masked pass, COUNT_CHUNK residues at a time."""
    return sum(
        int(np.count_nonzero(profile.mask(min(COUNT_CHUNK, t + 1 - lo), lo=lo)))
        for lo in range(1, t + 1, COUNT_CHUNK)
    )


def enumerate_w(profile: SieveProfile, X: int) -> int:
    """Exact |[1, X] cap W(Y)| = c prod (p^gamma - j) + S(rem) for
    X = c wheel + rem: S(rem) is one masked pass while rem <= COUNT_SPAN_LIMIT,
    CRT inclusion-exclusion over the root classes past it."""
    if X < 1:
        return 0
    active = list(profile._active())
    c, rem = divmod(X, profile.wheel)
    head = _masked_count(profile, rem) if rem <= COUNT_SPAN_LIMIT else _count_avoiding(active, rem)
    return c * math.prod(pg - len(roots) for pg, roots in active) + head


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
    exact = enumerate_w(profile, X)
    main = float(X * profile.density())
    rel = abs(exact - main) / X if X > 0 else 0.0
    return BrunComparison(
        exact=exact,
        main=main,
        relative_error=rel,
        in_regime=X >= profile.Y**2,
    )
