"""Roots of polynomials modulo prime powers, Hensel lifting, and bounded
intersectivity verdicts with reproducible p-adic root certificates.

Certificates for many primes are chosen in one call (choose_roots): the
roots mod p of each square-free factor come from roots_mod_primes for all
the primes at once, and only the lifts of singular roots run per prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import divisors, factorize, primes_up_to, v_p, v_p_fraction
from .poly import IntPolynomial, exact_div, square_free_decomposition

ROOTS_BRUTE_LIMIT = 10**6
SCAN_PRIME_LIMIT = 1000
SCAN_BLOCK = 2**14


class ResourceLimit(RuntimeError):
    """Desk-scale guard tripped."""


class HenselConditionError(ValueError):
    """The strong-Hensel precondition g(n) = 0 mod p^(2v+1) failed; the caller
    must deepen its initial search rather than treat this as a bug."""


class NoRootToDepth(ValueError):
    """No certifiable p-adic root was found within the search depth."""


def values_mod(p: IntPolynomial, s: np.ndarray, q: int | np.ndarray) -> np.ndarray:
    """p(s) mod q elementwise, by int64 Horner.  q is one modulus or an int64
    array of moduli, one per element of s; needs max(q)^2 < 2**63.  s holds
    int64 values or Python ints of any size (an object array).

    Every term is below max(q) in absolute value (a coefficient that is
    added unreduced, or a residue), so the accumulator is reduced only when
    the next step could pass 2**63 (an exact bound in max(q)): small moduli
    take several Horner steps per modulo.
    """
    top = int(q.max()) if isinstance(q, np.ndarray) else int(q)
    if top * top >= 2**63:
        raise ValueError(f"int64 Horner needs q*q < 2**63, got q = {top}")
    sq = np.asarray(s % q, dtype=np.int64)
    acc = np.zeros(len(s), dtype=np.int64)
    bound = 0  # |acc| <= bound elementwise
    for c in reversed(p.coeffs):
        if (bound + 1) * (top - 1) >= 2**63:
            acc %= q
            bound = top - 1
        acc *= sq
        acc += c if abs(c) < top else _residues(c, q)
        bound = (bound + 1) * (top - 1)
    acc %= q
    return acc


# -- roots mod many primes at once ----------------------------------------------
#
# A batch holds one lane per prime: a row of int64 coefficients mod that
# lane's prime, constant term first, every row of one degree.  A product of
# two residues is below p^2 and a convolution or reduction sums at most
# deg f + 1 of them, so (deg f + 1) * p^2 < 2^63 keeps every lane exact.


def _degrees(rows: np.ndarray) -> np.ndarray:
    """Degree of each row (-1 for a zero row)."""
    nz = rows != 0
    return np.where(nz.any(axis=1), rows.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)


def _lane_pow(x: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^e mod p lane by lane, for residues x."""
    out = np.ones_like(x)
    for bit in reversed(range(int(e.max()).bit_length())):
        out = out * out % p
        out = np.where((e >> bit) & 1 == 1, out * x % p, out)
    return out


def _monic(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each row divided by its leading coefficient mod its prime."""
    lead = rows[np.arange(len(rows)), np.maximum(_degrees(rows), 0)]
    return rows * _lane_pow(lead, p - 2, p)[:, None] % p[:, None]


def _lane_mulmod(a: np.ndarray, b: np.ndarray, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod (f, p) lane by lane: residues a, b of shape (L, n), monic
    moduli f of shape (L, n + 1), primes p of shape (L, 1).  O(n) numpy
    calls: one broadcast row product and one reduction step per degree."""
    n = a.shape[1]
    c = np.zeros((len(a), 2 * n - 1), dtype=np.int64)
    for i in range(n):
        c[:, i : i + n] += a[:, i : i + 1] * b
    c %= p
    for k in range(2 * n - 2, n - 1, -1):
        c[:, k - n : k] -= c[:, k : k + 1] % p * f[:, :n]
    return c[:, :n] % p


def _lane_shifted_pow(
    delta: np.ndarray, e: np.ndarray, f: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """(x + delta)^e mod (f, p) lane by lane, by square-and-multiply over the
    bits of the largest e (a lane with a shorter e squares 1 until its top
    bit); deg f >= 2 and residues delta."""
    n = f.shape[1] - 1
    pc = p[:, None]
    out = np.zeros((len(f), n), dtype=np.int64)
    out[:, 0] = 1
    for bit in reversed(range(int(e.max()).bit_length())):
        out = _lane_mulmod(out, out, f, pc)
        # times x + delta: shift up, add delta * out, fold x^n back through f
        up = np.zeros_like(out)
        up[:, 1:] = out[:, :-1]
        up = (up + delta[:, None] * out - out[:, n - 1 : n] * f[:, :n]) % pc
        out = np.where(((e >> bit) & 1 == 1)[:, None], up, out)
    return out


def _lane_gcd(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Monic gcd of the rows of a and b lane by lane (not both zero).  Each
    step cancels the leading term of the higher-degree row with a multiple
    of the other, lc(b) a - lc(a) x^(da - db) b, so no inverse is needed
    until the end."""
    rows, cols, pc = np.arange(len(a)), np.arange(a.shape[1]), p[:, None]
    da, db = _degrees(a), _degrees(b)
    while True:
        swap = da < db
        a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        live = db >= 0
        if not live.any():
            return _monic(a, p)
        src = cols - (da - db)[:, None]
        shifted = np.where(src >= 0, np.take_along_axis(b, np.maximum(src, 0), axis=1), 0)
        la, lb = a[rows, da][:, None], b[rows, np.maximum(db, 0)][:, None]
        a = np.where(live[:, None], (lb * a - la * shifted) % pc, a)
        da = np.where(live, _degrees(a), da)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod the odd prime p
    (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _split_roots(g: np.ndarray, p: np.ndarray) -> list[list[int]]:
    """Sorted roots of each lane's monic g, a product of distinct linear
    factors mod the odd prime p[i].  Degree 1 is read off, degree 2 takes a
    modular square root, and degree >= 3 splits by equal-degree
    factorization: x + delta with delta = 0, 1, 2, ... separates the roots
    r by the quadratic character of r + delta, so g = gcd(w - 1, g) *
    gcd(w + 1, g) * (x + delta if g(-delta) = 0) for w = (x + delta)^((p-1)/2).
    Round delta splits every factor still open with that shift (a trivial
    split is retried at the next round), in lanes grouped by degree."""
    roots: list[list[int]] = [[] for _ in p]
    work = [(i, g[i, : d + 1]) for i, d in enumerate(_degrees(g))]
    delta = 0
    while work:
        groups: dict[int, list] = {}
        for lane, row in work:
            q = int(p[lane])
            if len(row) == 2:
                roots[lane].append(int(-row[0]) % q)
            elif len(row) == 3:
                b, c, half = int(row[1]), int(row[0]), (q + 1) // 2
                s = _sqrt_mod((b * b - 4 * c) % q, q)
                roots[lane] += [(-b + s) * half % q, (-b - s) * half % q]
            elif len(row) > 3:
                groups.setdefault(len(row) - 1, []).append((lane, row))
        work = []
        for d, items in groups.items():
            lanes = np.array([lane for lane, _ in items])
            f = np.stack([row for _, row in items])
            q = p[lanes]
            assert (delta < q).all(), "every shift failed to split"
            w = np.zeros_like(f)
            w[:, :d] = _lane_shifted_pow(np.full_like(q, delta), (q - 1) // 2, f, q)
            halves = []
            for c in (1, -1):  # gcd(w - 1, f), then gcd(w + 1, f)
                w[:, 0] -= c
                halves.append(_lane_gcd(w % q[:, None], f, q))
                w[:, 0] += c
            degs = [_degrees(h) for h in halves]
            at, x = np.zeros_like(q), -delta % q
            for k in range(d, -1, -1):
                at = (at * x + f[:, k]) % q
            for k, (lane, row) in enumerate(items):
                parts = [h[k, : e[k] + 1] for h, e in zip(halves, degs)]
                if max(len(part) for part in parts) <= d:
                    work += [(lane, part) for part in parts if len(part) > 1]
                    if at[k] == 0:
                        roots[lane].append(-delta % int(q[k]))
                else:
                    work.append((lane, row))
        delta += 1
    return [sorted(r) for r in roots]


def _residues(c: int, p: int | np.ndarray):
    """The integer c mod p, elementwise when p is an int64 array."""
    if not isinstance(p, np.ndarray):
        return c % int(p)
    if abs(c) < 2**62:
        return np.int64(c) % p
    moduli, where = np.unique(p, return_inverse=True)
    return np.array([c % int(m) for m in moduli], dtype=np.int64)[where]


def roots_mod(f: IntPolynomial, moduli: list[int]) -> dict[int, list[int]]:
    """Sorted residues r in [0, q) with q | f(r) for every modulus q in
    moduli (the zero polynomial returns them all).  values_mod passes run
    over the residues of many moduli at once, each against its own modulus,
    about SCAN_BLOCK residues (or one modulus) per pass.  The moduli are
    checked in order before any scan: one below 1 raises ValueError, one
    past ROOTS_BRUTE_LIMIT ResourceLimit.
    """
    for q in moduli:
        if q < 1:
            raise ValueError("modulus must be positive")
        if q > ROOTS_BRUTE_LIMIT:
            raise ResourceLimit(f"root scan capped at q <= {ROOTS_BRUTE_LIMIT}, got q = {q}")
    out: dict[int, list[int]] = {}
    ends = np.cumsum(moduli)
    start = 0
    while start < len(moduli):
        stop = start + int(np.searchsorted(ends[start:], ends[start] + SCAN_BLOCK))
        sizes = np.array(moduli[start:stop], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        s = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(offsets, sizes)
        hits = np.flatnonzero(values_mod(f, s, np.repeat(sizes, sizes)) == 0)
        split = np.split(s[hits], np.searchsorted(hits, offsets[1:]))
        out.update((q, r.tolist()) for q, r in zip(moduli[start:stop], split))
        start = stop
    return out


def roots_mod_primes(f: IntPolynomial, primes: list[int]) -> dict[int, list[int]]:
    """Sorted distinct roots of the nonzero f mod every prime in primes, all
    primes at once.

    Primes up to SCAN_PRIME_LIMIT or deg f come from one roots_mod call, so
    their residues share values_mod passes.  For each larger prime,
    g = gcd(x^p - x, f mod p) is the product of the distinct linear factors
    of f mod p: x^p mod (f, p) comes
    from lock-step square-and-multiply in int64 lanes, one lane per prime,
    and the roots are read off g (_split_roots).  p | lc(f) lowers the
    degree of its lane, lanes run grouped by degree, and a lane where
    f = 0 mod p takes every residue.
    """
    if primes and max(primes) > ROOTS_BRUTE_LIMIT:
        raise ResourceLimit(f"root scan capped at primes p <= {ROOTS_BRUTE_LIMIT}")
    cut = max(SCAN_PRIME_LIMIT, f.degree)
    out = roots_mod(f, [p for p in primes if p <= cut])
    out.update(_lane_roots(f, [p for p in primes if p > cut]))
    return out


def _lane_roots(f: IntPolynomial, primes: list[int]) -> dict[int, list[int]]:
    """roots_mod_primes for primes above deg f, in lanes."""
    n = f.degree
    out: dict[int, list[int]] = {}
    lanes = np.array(primes, dtype=np.int64)
    if not len(lanes):
        return out
    assert (n + 1) * int(lanes.max()) ** 2 < 2**63, "lane arithmetic would leave int64"
    rows = np.stack([_residues(c, lanes) for c in f.coeffs], axis=1)
    deg = _degrees(rows)
    for d in sorted(set(deg.tolist())):
        idx = np.flatnonzero(deg == d)
        p = lanes[idx]
        if d < 1:
            out.update((q, list(range(q)) if d < 0 else []) for q in p.tolist())
            continue
        g = _monic(rows[idx, : d + 1], p)
        if d >= 2:
            w = np.zeros_like(g)
            w[:, :d] = _lane_shifted_pow(np.zeros_like(p), p, g, p)
            w[:, 1] -= 1
            g = _lane_gcd(w % p[:, None], g, p)
        out.update(zip(p.tolist(), _split_roots(g, p)))
    return out


def _lift_root_level(f: IntPolynomial, p: int, roots: list[int], j: int) -> list[int]:
    """Sorted roots mod p^(j+1) from the sorted roots mod p^j, every one of
    them singular (f'(r) = 0 mod p).  Then f(r + t p^j) = f(r) mod p^(j+1)
    for every t, so either all p lifts of r survive or none do."""
    pj = p**j
    alive = [r for r in roots if f.eval_mod(r, pj * p) == 0]
    return [r + t * pj for t in range(p) for r in alive]


def _root_levels(f: IntPolynomial, p: int, roots: list[int]):
    """Yield (j, roots of f mod p^j) for j = 1, 2, ... from the sorted roots
    mod p, lifting a level only when asked for it; raises ResourceLimit
    instead once the lift's len(roots) * p candidate residues pass
    ROOTS_BRUTE_LIMIT.  A caller asks for j = 2 only when every root mod p
    is singular, as _lift_root_level needs."""
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


def hensel_lift(g: IntPolynomial, p: int, n: int, j_target: int) -> int:
    """Strong Hensel lift: from g(n) = 0 mod p^(2v+1) with v = v_p(g'(n)),
    produce m with g(m) = 0 mod p^j_target and m = n mod p^(v+1).
    """
    if j_target < 1:
        raise ValueError("j_target must be positive")
    dg = g.derivative()
    dn = dg(n)
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
        w = dg(x) // pv
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
    nonzero one is +-num/den in lowest terms with num | a_0 and den | a_k.
    Each candidate is tested in integers and becomes a Fraction only if it
    is a root."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    coeffs = list(p.coeffs)
    out = [Fraction(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return out
    k = len(coeffs) - 1
    nums = divisors(abs(coeffs[0]))
    for den in divisors(abs(coeffs[-1])):
        # den^k p(x / den) = sum of c_i den^(k-i) x^i, by Horner at x = +-num
        scaled = [c * den ** (k - i) for i, c in enumerate(coeffs)][::-1]
        for num in nums:
            if math.gcd(num, den) != 1:
                continue
            for x in (num, -num):
                acc = 0
                for c in scaled:
                    acc = acc * x + c
                if acc == 0:
                    out.append(Fraction(x, den))
    return sorted(out)


def _hensel_candidate(
    f: IntPolynomial, df: IntPolynomial, p: int, depth: int, roots: list[int]
) -> Optional[tuple[int, int, int]]:
    """Minimal-precision strong-Hensel witness for a square-free factor f
    with derivative df, from its sorted distinct roots mod p.

    Returns (j, z, v) with f(z) = 0 mod p^j, v = v_p(f'(z)), j >= 2v+1,
    choosing the smallest residue at the minimal such j; None once no root
    can yield a witness within depth.  A root z mod p^j with t = f'(z) mod
    p^j passes v = v_p(t) on to every lift when t != 0, and every lift has
    v >= j when t = 0, so the lift stops when no root can reach v <= (depth
    - 1) / 2.  Raises ResourceLimit for a lift past ROOTS_BRUTE_LIMIT
    residues.
    """
    top = (depth - 1) // 2  # a witness within depth has v <= top
    for j, roots in _root_levels(f, p, roots):
        pj, cut = p**j, p ** ((j + 1) // 2)
        ts = []
        for z in roots:
            t = df.eval_mod(z, pj)
            if t % cut:  # v <= (j - 1) / 2: a witness at j
                return j, z, v_p(t, p)
            ts.append(t)
        if not roots or (j > top and all(t % p ** (top + 1) == 0 for t in ts)):
            return None


def _residue(r: Fraction, pe: int) -> int:
    """The rational r as a residue mod pe (r's denominator prime to pe)."""
    return r.numerator * pow(r.denominator, -1, pe) % pe


def _rational_cert(f: IntPolynomial, u: int, p: int, depth: int, r: Fraction) -> RootCert:
    """Certificate at precision p^depth from an exact root r of the factor f
    of multiplicity u."""
    v = v_p_fraction(f.derivative()(r), p)
    return RootCert(p=p, j=depth, z=_residue(r, p**depth), m=u, v=v, factor=f, exact_root=r)


def choose_roots(
    h: IntPolynomial,
    primes: list[int],
    depth: int = 8,
    factors: list[tuple[IntPolynomial, int]] | None = None,
) -> dict[int, RootCert | Exception]:
    """Deterministic p-adic root certificates for h at every prime in primes.

    Maps each prime to its RootCert, or to the error that stops it there
    (the caller raises it if it needs that prime).  Policy: square-free
    factors are tried in order of increasing multiplicity; within a factor
    the witness of minimal precision wins, ties broken by smallest residue.
    If no bounded Hensel witness exists for a factor, its exact rational
    roots with denominator coprime to p are used instead; that fallback also
    serves a prime past ROOTS_BRUTE_LIMIT and a factor whose singular roots
    would lift past that many residues.  When no factor certifies, the first such guard is the
    prime's error (ResourceLimit), and otherwise NoRootToDepth.
    Each factor's roots mod p come from one roots_mod_primes call over the
    primes still uncertified, and its rational roots are computed at most
    once.  Callers pass square_free_decomposition(h) as factors when they
    have it.
    """
    if h.is_zero:
        raise ValueError("zero polynomial has every residue as a root")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if factors is None:
        factors = square_free_decomposition(h)
    out: dict[int, RootCert | Exception] = {}
    capped: dict[int, ResourceLimit] = {}
    todo = list(primes)
    for f, u in factors:
        roots = roots_mod_primes(f, [p for p in todo if p <= ROOTS_BRUTE_LIMIT])
        df = f.derivative()
        exact = None
        rest = []
        for p in todo:
            try:
                if p not in roots:
                    raise ResourceLimit(f"root scan capped at primes p <= {ROOTS_BRUTE_LIMIT}")
                cand = _hensel_candidate(f, df, p, depth, roots[p])
            except ResourceLimit as exc:
                cand = None
                capped.setdefault(p, exc)
            if cand is not None:
                j, z, v = cand
                out[p] = RootCert(p=p, j=j, z=z, m=u, v=v, factor=f)
                continue
            if exact is None:
                exact = rational_roots(f)
            usable = [r for r in exact if r.denominator % p != 0]
            if usable:
                out[p] = min((_rational_cert(f, u, p, depth, r) for r in usable), key=lambda c: c.z)
            else:
                rest.append(p)
        todo = rest
    for p in todo:
        out[p] = capped.get(p) or NoRootToDepth(
            f"no certifiable root of {h} at p={p} within depth {depth}"
        )
    return out


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
    chosen = choose_roots(h, primes, depth)
    for p in primes:
        out = chosen[p]
        if isinstance(out, NoRootToDepth):
            failed.append(p)
        elif isinstance(out, Exception):
            raise out
        else:
            certs[p] = out

    if failed:
        # breadth-first emptiness scan over the uncertified primes: the
        # returned witness has minimal precision j, then minimal p
        roots = roots_mod_primes(h, failed)
        levels = {p: _root_levels(h, p, roots[p]) for p in failed}
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
