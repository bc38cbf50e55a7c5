"""Auxiliary polynomial families.

A family fixes an intersective base polynomial h with positive leading
coefficient plus a deterministic p-adic root choice per prime, held once
chosen, and computes the induced objects from it on demand: the shift r_d
in (-d, 0], the completely multiplicative scale lambda(d), and the
integer-coefficient auxiliary polynomial h_d(x) = h(r_d + d x) / lambda(d).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import crt_pair, factorize, integer_nth_root, primes_up_to
from .padic import SCAN_BLOCK, RootCert, ResourceLimit, choose_roots
from .poly import (
    IntPolynomial,
    content,
    discriminant_abs,
    shift_scale,
    square_free_decomposition,
)
from .setio import sorted_distinct

IMAGE_LIMIT = 10**7
AUDIT_D_LIMIT = 10**6


class AuxiliaryFamily:
    """(r_d, lambda(d), h_d) over a fixed base, from one root certificate per prime."""

    def __init__(self, base: IntPolynomial, depth: int = 8):
        if base.is_zero or base.degree < 1:
            raise ValueError("base must be a nonconstant polynomial")
        if base.leading <= 0:
            raise ValueError("base must have positive leading coefficient")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.base = base
        self.depth = depth
        self._factors = square_free_decomposition(base)
        self._certs: dict[int, RootCert | Exception] = {}

    def certify(self, primes: list[int]) -> None:
        """Choose the certificates at every prime of primes not yet held, in
        one batch.  A prime that fails keeps its error, which cert raises
        when that prime is asked for."""
        new = [p for p in primes if p not in self._certs]
        self._certs.update(choose_roots(self.base, new, self.depth, self._factors))

    def cert(self, p: int) -> RootCert:
        """Root certificate at p, choosing one deterministically on demand."""
        if p not in self._certs:
            self.certify([p])
        out = self._certs[p]
        if isinstance(out, Exception):
            raise out
        return out

    def lam(self, d: int) -> int:
        """lambda(d) = prod p^(m_p * e_p): completely multiplicative."""
        if d < 1:
            raise ValueError("d must be positive")
        out = 1
        for p, e in factorize(d):
            out *= p ** (self.cert(p).m * e)
        return out

    def r_of(self, d: int) -> int:
        """The unique r_d in (-d, 0] with r_d = z_p mod p^e for each p^e || d."""
        if d < 1:
            raise ValueError("d must be positive")
        x, m = 0, 1
        for p, e in factorize(d):
            zp = self.cert(p).residue_mod(e)
            x, m = crt_pair(x, m, zp, p**e)
        r = x - d if x > 0 else 0
        if self.base(r) % d != 0:
            raise ArithmeticError(f"certificate failure: {d} does not divide h({r})")
        return r

    def aux_poly(self, d: int) -> IntPolynomial:
        """h_d(x) = h(r_d + d x) / lambda(d), with exactness checks.

        An IntegralityError here means a certificate carries the wrong
        multiplicity; it is allowed to propagate loudly.
        """
        lam = self.lam(d)
        hd = shift_scale(self.base, self.r_of(d), d, lam)
        k = self.base.degree
        ak = self.base.leading
        if hd.leading * lam != d**k * ak:
            raise ArithmeticError(f"leading coefficient identity failed at d={d}")
        cap = 2**k * d**k * max(abs(c) for c in self.base.coeffs)
        if any(abs(c) * lam > cap for c in hd.coeffs):
            raise ArithmeticError(f"coefficient growth bound failed at d={d}")
        return hd


@dataclass
class ContentAuditReport:
    """Outcome of checking cont(h_d) <= |Delta(h)|^((k-1)/2) * cont(h) for d <= d_max."""

    d_max: int
    disc_abs: int
    base_content: int
    max_content: int
    argmax_d: int
    max_ratio: float


def _prime_powers(primes: list[int], n: int) -> list[tuple[int, int]]:
    """(p^e, p) for every power 1 < p^e <= n of a prime in primes, ascending."""
    out = []
    for p in primes:
        q = p
        while q <= n:
            out.append((q, p))
            q *= p
    return sorted(out)


def content_bound_audit(fam: AuxiliaryFamily, d_max: int) -> ContentAuditReport:
    """Audit cont(h_d) <= |Delta(h)|^((k-1)/2) * cont(h) for every d <= d_max;
    violations raise.

    cont(h_d) / cont(h) is multiplicative in d: a map x -> s + u x with u a
    p-adic unit keeps the p-adic content, and r_d = r_q mod q for q = p^e || d,
    so cont(h_d) = cont(h) * prod_{p^e || d} cont(h_{p^e}) / cont(h).  Hence
    h_d is built only at the prime powers q <= d_max, ascending, and a
    strided sweep gives cont(h_d) for every d.  Every check aux_poly makes is
    decided at a prime power: the certificate at p, d | h(r_d) (by CRT, one
    p^e || d at a time), integrality (p^(m_p e) divides the p-adic content)
    and the leading-coefficient identity (algebraic); so each raises at the
    same d, with the same message, as a walk over every d.  The content bound
    is the one check that can first fail at a composite d: the sweep finds
    the smallest violating d below the first failing prime power, and the
    earlier of the two is raised.  The coefficient-growth bound follows from
    |r_d| < d; one aux_poly(argmax_d) re-checks it at runtime, together with
    the multiplicative identity.

    The comparison cont(h_d)^2 <= |Delta|^(k-1) * cont(h)^2 is exact integer
    arithmetic (the exponent (k-1)/2 may be half-integral).  d_max is
    capped at AUDIT_D_LIMIT.
    """
    base = fam.base
    if base.degree < 2:
        raise ValueError("content bound audit requires degree >= 2")
    if d_max > AUDIT_D_LIMIT:
        raise ResourceLimit(f"content audit capped at d_max <= {AUDIT_D_LIMIT}, got {d_max}")
    k = base.degree
    disc = discriminant_abs(base)
    ch = content(base)
    rhs_sq = disc ** (k - 1) * ch * ch
    bound = math.isqrt(rhs_sq)
    primes = primes_up_to(d_max)
    powers = _prime_powers(primes, d_max)
    local = {1: ch}  # cont(h_q) at the prime powers q walked
    failure, stop, certified = None, d_max + 1, 0  # the walk decides every d < stop
    try:
        for q, _ in powers:
            while certified < q:
                # at d = certified + 1, one batch for the primes up to d^2: few
                # batches, and a prime p that fails raises at d = p
                stop = certified + 1
                certified = min(stop * stop, d_max)
                fam.certify(primes[: bisect_right(primes, certified)])
            stop = q
            local[q] = content(fam.aux_poly(q))
        stop = d_max + 1
    except (ArithmeticError, ValueError, ResourceLimit) as exc:
        failure = exc  # raised below unless a smaller d violates the bound
    conts = np.full(max(stop, 1), ch, dtype=object)  # exact ints: cont(h_d) per d
    for q, p in powers:
        if q >= stop:
            break
        # telescoped over p, p^2, ..., p^e: each d with p^e || d ends up
        # scaled by exactly cont(h_{p^e}) / cont(h)
        if local[q] == local[q // p]:
            continue
        step = Fraction(local[q], local[q // p])
        view = conts[q::q]
        view //= step.denominator
        view *= step.numerator
    over = np.flatnonzero(conts[1:] > bound)
    if over.size:
        d = int(over[0]) + 1
        raise ArithmeticError(
            f"content bound violated at d={d}: cont={int(conts[d])}, bound^2={rhs_sq}"
        )
    if failure is not None:
        raise failure
    max_c, argmax = 0, 1
    if d_max >= 1:
        argmax = int(np.argmax(conts[1:])) + 1
        max_c = int(conts[argmax])
        if content(fam.aux_poly(argmax)) != max_c:
            raise ArithmeticError(f"local content identity failed at d={argmax}")
    try:
        max_ratio = max_c / rhs_sq**0.5
    except OverflowError:  # rhs_sq is past the float range
        max_ratio = max_c / bound
    return ContentAuditReport(
        d_max=d_max,
        disc_abs=disc,
        base_content=ch,
        max_content=max_c,
        argmax_d=argmax,
        max_ratio=max_ratio,
    )


def image_cutoff(p: IntPolynomial, bound: int) -> int:
    """A count c of inputs n = 1..c that covers every n at which p (or -p,
    when the leading coefficient is negative) takes a value in [1, bound];
    0 when bound < 1.  Refuses c past IMAGE_LIMIT without enumerating."""
    if p.is_zero or p.degree < 1:
        raise ValueError("image_elements requires a nonconstant polynomial")
    if bound < 1:
        return 0
    q = p if p.leading > 0 else -p
    k = q.degree
    ak = q.leading
    R = sum(abs(c) for c in q.coeffs[:-1]) // ak
    # preimage of (0, bound] is contained in [1, (bound/ak)^(1/k) + R + 1];
    # (floor(2y) + 1) // 2 rounds y = (bound/ak)^(1/k) half up, exactly
    cutoff = (integer_nth_root(2**k * bound // ak, k) + 1) // 2 + R + 2
    if cutoff > IMAGE_LIMIT:
        raise ResourceLimit(
            f"image enumeration capped at {IMAGE_LIMIT} values of n, got {cutoff}"
        )
    return cutoff


def image_elements(p: IntPolynomial, bound: int) -> np.ndarray:
    """I(p) intersected with [1, bound < 2^63], exactly, as a sorted int64 array.

    I(p) is the set of positive values of p over n = 1, 2, ... when the
    leading coefficient is positive, and the absolute values of the negative
    ones when it is negative.  Evaluated in Python ints, SCAN_BLOCK n at a time.
    """
    cutoff = image_cutoff(p, bound)
    q = p if p.leading > 0 else -p
    kept = [np.empty(0, dtype=np.int64)]
    for start in range(1, cutoff + 1, SCAN_BLOCK):
        v = q(np.arange(start, min(start + SCAN_BLOCK, cutoff + 1)).astype(object))
        kept.append(v[(v > 0) & (v <= bound)].astype(np.int64))
    return sorted_distinct(np.concatenate(kept))
