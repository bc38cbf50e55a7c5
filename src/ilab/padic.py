"""Roots of polynomials modulo prime powers, Hensel lifting, and bounded
intersectivity verdicts with reproducible p-adic root certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import crt_pair, divisors, factorize, primes_up_to, v_p, v_p_fraction
from .poly import IntPolynomial, exact_div, square_free_decomposition

ROOTS_BRUTE_LIMIT = 10**6


class ResourceLimit(RuntimeError):
    """Desk-scale guard tripped."""


class HenselConditionError(ValueError):
    """The strong-Hensel precondition g(n) = 0 mod p^(2v+1) failed; the caller
    must deepen its initial search rather than treat this as a bug."""


class NoRootToDepth(ValueError):
    """No certifiable p-adic root was found within the search depth."""


def values_mod(p: IntPolynomial, s: np.ndarray, q: int) -> np.ndarray:
    """p(s) mod q elementwise, by int64 Horner; needs q*q < 2**63.

    Every term is non-negative, so the accumulator is reduced only when the
    next step could pass 2**63 (tracked by an exact bound): small q takes
    several Horner steps per modulo.
    """
    if q * q >= 2**63:
        raise ValueError(f"int64 Horner needs q*q < 2**63, got q = {q}")
    sq = s % q
    acc = np.zeros(len(s), dtype=np.int64)
    bound = 0  # acc <= bound elementwise
    for c in reversed(p.coeffs):
        if (bound + 1) * (q - 1) >= 2**63:
            acc %= q
            bound = q - 1
        acc *= sq
        acc += c % q
        bound = (bound + 1) * (q - 1)
    acc %= q
    return acc


def _brute_roots(p: IntPolynomial, q: int) -> list[int]:
    """All residues r in [0, q) with q | p(r), by direct scan (q <= 1e6)."""
    if q > ROOTS_BRUTE_LIMIT:
        raise ResourceLimit(f"brute-force root scan capped at q <= {ROOTS_BRUTE_LIMIT}")
    acc = values_mod(p, np.arange(q, dtype=np.int64), q)
    return np.nonzero(acc == 0)[0].tolist()


def _lift_root_level(
    p: IntPolynomial, prime: int, roots: list[int], j: int
) -> list[int]:
    """Roots mod prime^(j+1) from the roots mod prime^j."""
    pj = prime**j
    pj1 = pj * prime
    dp = p.derivative()
    out = []
    for r in roots:
        d = dp.eval_mod(r, prime)
        if d != 0:
            # simple direction: unique lift by one Newton step
            inv = pow(dp.eval_mod(r, pj1), -1, pj1)
            out.append((r - p.eval_mod(r, pj1) * inv) % pj1)
        else:
            # singular direction: f(r + t*pj) = f(r) mod pj1 for every t,
            # so either all p lifts survive or none do
            if p.eval_mod(r, pj1) == 0:
                out.extend(r + t * pj for t in range(prime))
    return sorted(set(out))


def _root_levels(f: IntPolynomial, p: int, roots: list[int]):
    """Yield (j, roots of f mod p^j) for j = 1, 2, ... from the roots mod p,
    lifting a level only when asked for it; raises ResourceLimit instead once
    the lift's len(roots) * p candidate residues pass ROOTS_BRUTE_LIMIT."""
    j = 1
    while True:
        yield j, roots
        if len(roots) * p > ROOTS_BRUTE_LIMIT:
            raise ResourceLimit(
                f"singular-root lift capped at {ROOTS_BRUTE_LIMIT} residues "
                f"({len(roots)} roots mod {p}^{j})"
            )
        roots = _lift_root_level(f, p, roots, j)
        j += 1


def _prime_power_roots(p: IntPolynomial, prime: int, e: int) -> list[int]:
    for j, roots in _root_levels(p, prime, _brute_roots(p, prime)):
        if j == e or not roots:
            return roots


def roots_mod(p: IntPolynomial, q: int) -> list[int]:
    """Sorted residues r in [0, q) with q | p(r).

    Brute force for q <= 1e6; guarded prime-power lifting composed by CRT
    otherwise.  The zero polynomial returns every residue (documented, not an
    error).
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if p.is_zero:
        return list(range(q))
    if q == 1:
        return [0]
    if q <= ROOTS_BRUTE_LIMIT:
        return _brute_roots(p, q)
    residues = [(0, 1)]
    for prime, e in factorize(q):
        pr = _prime_power_roots(p, prime, e)
        residues = [crt_pair(r, m, s, prime**e) for r, m in residues for s in pr]
        if not residues:
            return []
    return sorted(r for r, _ in residues)


def hensel_lift(g: IntPolynomial, p: int, n: int, j_target: int) -> int:
    """Strong Hensel lift: from g(n) = 0 mod p^(2v+1) with v = v_p(g'(n)),
    produce m with g(m) = 0 mod p^j_target and m = n mod p^(v+1).
    """
    if j_target < 1:
        raise ValueError("j_target must be positive")
    dn = g.derivative()(n)
    if dn == 0:
        raise HenselConditionError("derivative vanishes exactly at the start point")
    v = v_p(dn, p)
    if j_target < 2 * v + 1:
        raise HenselConditionError(f"j_target {j_target} below 2v+1 = {2 * v + 1}")
    if g(n) % p ** (2 * v + 1) != 0:
        raise HenselConditionError("g(n) not divisible by p^(2v+1)")
    work = p ** (j_target + v)
    target = p**j_target
    x = n % work
    pv = p**v
    for _ in range(64):
        gx = g(x)
        if gx % target == 0:
            break
        d = g.derivative()(x)
        w = d // pv
        step = (gx // pv) * pow(w % work, -1, work)
        x = (x - step) % work
    else:
        raise ArithmeticError("Hensel iteration failed to converge")
    m = x % target
    assert (m - n) % p ** (v + 1) == 0
    return m


@dataclass(frozen=True)
class RootCert:
    """Witness that the certified polynomial has a p-adic integer root.

    z is a residue mod p^j congruent to the root; m its multiplicity.  The
    certifying square-free factor carries the lifting data: v is the p-adic
    valuation of the factor's derivative at z (the factor's root is simple,
    so v is finite even when the full polynomial has a multiple root), and
    j >= 2v+1 guarantees the residue lifts to a genuine root.  Certificates
    built from an exact rational root a/b with p coprime to b store the root
    and set v to the exact valuation of factor'(a/b).
    """

    p: int
    j: int
    z: int
    m: int
    v: int
    factor: IntPolynomial
    exact_root: Optional[Fraction] = None

    def residue_mod(self, e: int) -> int:
        """The certified root to precision p^e (lifting deeper on demand)."""
        if self.exact_root is not None:
            return _residue(self.exact_root, self.p**e)
        if e <= self.j:
            return self.z % self.p**e
        return hensel_lift(self.factor, self.p, self.z, e)

    def verify(self, h: IntPolynomial) -> bool:
        """Re-check every invariant against the certified polynomial."""
        try:
            g = h
            for _ in range(self.m):
                g = exact_div(g, self.factor)
        except ValueError:
            return False
        if not (1 <= self.m <= h.degree):
            return False
        pj = self.p**self.j
        if not (0 <= self.z < pj):
            return False
        if h(self.z) % pj != 0 or self.factor(self.z) % pj != 0:
            return False
        if self.exact_root is not None:
            r = self.exact_root
            if self.factor(r) != 0 or r.denominator % self.p == 0:
                return False
            return self.residue_mod(self.j) == self.z
        d = self.factor.derivative()(self.z)
        if d == 0 or v_p(d, self.p) != self.v:
            return False
        return self.j >= 2 * self.v + 1

    def to_json(self) -> dict:
        out = {
            "p": self.p,
            "precision": self.j,
            "residue": self.z,
            "multiplicity": self.m,
            "hensel_valuation": self.v,
            "factor": list(self.factor.coeffs),
        }
        if self.exact_root is not None:
            out["exact_root"] = [
                self.exact_root.numerator,
                self.exact_root.denominator,
            ]
        return out


def rational_roots(p: IntPolynomial) -> list[Fraction]:
    """All rational roots of p, by the rational root theorem (exact): each
    nonzero one is +-num/den in lowest terms with num | a_0 and den | a_k."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    coeffs = list(p.coeffs)
    out = [Fraction(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return out
    trimmed = IntPolynomial(coeffs)
    dens = divisors(abs(coeffs[-1]))
    for num in divisors(abs(coeffs[0])):
        for den in dens:
            if math.gcd(num, den) == 1:
                out += [r for r in (Fraction(num, den), Fraction(-num, den)) if trimmed(r) == 0]
    return sorted(out)


def _hensel_candidate(
    f: IntPolynomial, p: int, depth: int
) -> Optional[tuple[int, int, int]]:
    """Minimal-precision strong-Hensel witness for a square-free factor.

    Returns (j, z, v) with f(z) = 0 mod p^j, v = v_p(f'(z)), j >= 2v+1,
    choosing the smallest residue at the minimal such j; None if depth is
    exhausted first.  Raises ResourceLimit for p past ROOTS_BRUTE_LIMIT or a
    lift past that many residues.
    """
    df = f.derivative()
    if p > ROOTS_BRUTE_LIMIT:
        raise ResourceLimit(f"root scan capped at primes p <= {ROOTS_BRUTE_LIMIT}")
    # At j = 1 every simple root mod p is a witness with v = 0, so the
    # smallest one decides; scan ascending in growing chunks and stop there.
    # Without a simple root the scan has collected every root mod p.
    roots: list[int] = []
    lo, step = 0, max(64, p // 4)
    while lo < p:
        hi = min(p, lo + step)
        chunk = np.arange(lo, hi, dtype=np.int64)
        found = chunk[values_mod(f, chunk, p) == 0]
        if len(found):
            simple = found[values_mod(df, found, p) != 0]
            if len(simple):
                return 1, int(simple[0]), 0
            roots.extend(found.tolist())
        lo, step = hi, 2 * step
    for j, roots in _root_levels(f, p, roots):
        pj = p**j
        witnesses = []
        for z in roots:
            t = df.eval_mod(z, pj)
            if t == 0:
                continue
            v = v_p(t, p)
            if j >= 2 * v + 1:
                witnesses.append((z, v))
        if witnesses:
            z, v = min(witnesses)
            return j, z, v
        if not roots or j >= depth:
            return None


def _residue(r: Fraction, pe: int) -> int:
    """The rational r as a residue mod pe (r's denominator prime to pe)."""
    return r.numerator * pow(r.denominator, -1, pe) % pe


def _rational_cert(f: IntPolynomial, u: int, p: int, depth: int, r: Fraction) -> RootCert:
    """Certificate at precision p^depth from an exact root r of the factor f
    of multiplicity u."""
    v = v_p_fraction(f.derivative()(r), p)
    return RootCert(p=p, j=depth, z=_residue(r, p**depth), m=u, v=v, factor=f, exact_root=r)


def choose_root(
    h: IntPolynomial,
    p: int,
    depth: int = 8,
    factors: list[tuple[IntPolynomial, int]] | None = None,
) -> RootCert:
    """Deterministic p-adic root certificate for h at p.

    Policy: square-free factors are scanned in order of increasing
    multiplicity; within a factor the witness of minimal precision wins,
    ties broken by smallest residue.  If no bounded Hensel witness exists
    for a factor, its exact rational roots with denominator coprime to p
    are used instead; that fallback also serves a prime past
    ROOTS_BRUTE_LIMIT and a factor whose singular roots would lift past that
    many residues.  When no factor certifies, the first such guard is raised
    as ResourceLimit, and otherwise NoRootToDepth.
    Callers certifying many primes pass square_free_decomposition(h) as
    factors, so it is computed once rather than per prime.
    """
    if h.is_zero:
        raise ValueError("zero polynomial has every residue as a root")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if h.degree < 1:
        raise NoRootToDepth(f"constant polynomial has no p-adic root at p={p}")
    if factors is None:
        factors = square_free_decomposition(h)
    capped = None
    for f, u in factors:
        try:
            cand = _hensel_candidate(f, p, depth)
        except ResourceLimit as exc:
            cand, capped = None, capped or exc
        if cand is not None:
            j, z, v = cand
            return RootCert(p=p, j=j, z=z, m=u, v=v, factor=f)
        usable = [r for r in rational_roots(f) if r.denominator % p != 0]
        if usable:
            return min((_rational_cert(f, u, p, depth, r) for r in usable), key=lambda c: c.z)
    if capped is not None:
        raise capped
    raise NoRootToDepth(f"no certifiable root of {h} at p={p} within depth {depth}")


@dataclass
class IntersectivityVerdict:
    """Bounded intersectivity decision.

    status is one of "intersective", "not_intersective", "unknown".  A
    not-intersective verdict is self-certifying: h has no roots modulo
    witness_p ** witness_j.  An intersective verdict carries one certificate
    per tested prime plus explicit assumptions about untested larger primes
    (empty when a rational root covers them exactly).
    """

    status: str
    prime_bound: int
    depth: int
    certs: dict[int, RootCert] = field(default_factory=dict)
    witness_p: Optional[int] = None
    witness_j: Optional[int] = None
    unresolved: list[int] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "prime_bound": self.prime_bound,
            "depth": self.depth,
            "assumptions": self.assumptions,
        }
        if self.status == "intersective":
            out["certs"] = {str(p): c.to_json() for p, c in sorted(self.certs.items())}
        elif self.status == "not_intersective":
            out["witness"] = {"p": self.witness_p, "j": self.witness_j}
        else:
            out["unresolved"] = self.unresolved
        return out


def is_intersective(
    h: IntPolynomial, prime_bound: int = 1000, depth: int = 8
) -> IntersectivityVerdict:
    """Decide intersectivity of h up to (prime_bound, depth).

    The not-intersective witness search is breadth-first in the precision j
    and then the prime p, so the returned witness has minimal j (and minimal
    p at that j).  Beyond the prime bound, a prime p not dividing
    Delta(h) * lc(h) admits only simple roots mod p, so only root existence
    matters there; that is recorded as an explicit assumption unless a
    rational root covers all large primes exactly.
    """
    if h.is_zero:
        raise ValueError("intersectivity is undefined for the zero polynomial")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    primes = primes_up_to(prime_bound)

    if h.degree < 1:
        # nonzero constant: fails at any prime power not dividing it
        for j in range(1, depth + 1):
            for p in primes:
                if h.coeffs[0] % p**j != 0:
                    return IntersectivityVerdict(
                        "not_intersective",
                        prime_bound,
                        depth,
                        witness_p=p,
                        witness_j=j,
                    )
        return IntersectivityVerdict(
            "unknown", prime_bound, depth, unresolved=list(primes)
        )

    # certify each tested prime; a certified prime has roots at every precision
    certs: dict[int, RootCert] = {}
    failed: list[int] = []
    factors = square_free_decomposition(h)
    for p in primes:
        try:
            certs[p] = choose_root(h, p, depth, factors)
        except NoRootToDepth:
            failed.append(p)

    if failed:
        # breadth-first emptiness scan over the uncertified primes: the
        # returned witness has minimal precision j, then minimal p
        levels = {p: _root_levels(h, p, _brute_roots(h, p)) for p in failed}
        for j in range(1, depth + 1):
            for p in list(levels):
                try:
                    _, roots = next(levels[p])
                except ResourceLimit:
                    del levels[p]  # degenerate growth; leave undecided
                    continue
                if not roots:
                    return IntersectivityVerdict(
                        "not_intersective",
                        prime_bound,
                        depth,
                        witness_p=p,
                        witness_j=j,
                    )
        return IntersectivityVerdict(
            "unknown", prime_bound, depth, certs=certs, unresolved=failed
        )

    # a rational root whose denominator's primes were all tested individually
    # covers every untested prime exactly; otherwise record the assumption
    assumptions: list[str] = []
    covering = [
        r
        for r in rational_roots(h)
        if all(q <= prime_bound for q, _ in factorize(r.denominator))
    ]
    if not covering:
        assumptions.append(
            "untested: for primes p > prime_bound not dividing Delta(h)*lc(h), "
            "existence of a root mod p was assumed (simple roots lift)"
        )
    return IntersectivityVerdict(
        "intersective", prime_bound, depth, certs=certs, assumptions=assumptions
    )
