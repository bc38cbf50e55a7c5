"""Auxiliary polynomial families.

A family fixes an intersective base polynomial h with positive leading
coefficient plus a deterministic p-adic root choice per prime, held once
chosen, and computes the induced objects from it on demand: the shift r_d
in (-d, 0], the completely multiplicative scale lambda(d), and the
integer-coefficient auxiliary polynomial h_d(x) = h(r_d + d x) / lambda(d).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import crt_pair, factorize, integer_nth_root, primes_up_to
from .padic import RootCert, ResourceLimit, choose_roots
from .poly import (
    IntPolynomial,
    content,
    discriminant_abs,
    shift_scale,
    square_free_decomposition,
)

IMAGE_LIMIT = 10**7
AUDIT_D_LIMIT = 10**5


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


def content_bound_audit(fam: AuxiliaryFamily, d_max: int) -> ContentAuditReport:
    """Audit the content bound for every d <= d_max; violations raise.

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
    max_c, argmax, max_ratio, certified = 0, 1, 0.0, 0
    for d in range(1, d_max + 1):
        if d > certified:
            # one batch for the primes up to d^2: few batches, and a prime p
            # that fails raises at d = p, before any prime past p^2 is tried
            certified = min(d * d, d_max)
            fam.certify(primes_up_to(certified))
        c = content(fam.aux_poly(d))
        if c * c > rhs_sq:
            raise ArithmeticError(
                f"content bound violated at d={d}: cont={c}, bound^2={rhs_sq}"
            )
        ratio = c / (rhs_sq**0.5)
        if c > max_c:
            max_c, argmax = c, d
        max_ratio = max(max_ratio, ratio)
    return ContentAuditReport(
        d_max=d_max,
        disc_abs=disc,
        base_content=ch,
        max_content=max_c,
        argmax_d=argmax,
        max_ratio=max_ratio,
    )


def image_elements(p: IntPolynomial, bound: int) -> list[int]:
    """I(p) intersected with [1, bound], exactly.

    I(p) is the set of positive values of p over n = 1, 2, ... when the
    leading coefficient is positive, and the absolute values of the negative
    ones when it is negative.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("image_elements requires a nonconstant polynomial")
    if bound < 1:
        return []
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
    out = set()
    for n in range(1, cutoff + 1):
        v = q(n)
        if 0 < v <= bound:
            out.add(v)
    return sorted(out)
