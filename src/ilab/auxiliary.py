"""Auxiliary polynomial families.

A family fixes an intersective base polynomial h with positive leading
coefficient plus a deterministic p-adic root choice per prime, and memoizes
the induced objects: the shift r_d in (-d, 0], the completely multiplicative
scale lambda(d), and the integer-coefficient auxiliary polynomial
h_d(x) = h(r_d + d x) / lambda(d).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import crt_pair, factorize
from .padic import RootCert, choose_root
from .poly import (
    IntPolynomial,
    content,
    discriminant_abs,
    shift_scale,
    square_free_decomposition,
)


class AuxiliaryFamily:
    """Memoizing container for (r_d, lambda(d), h_d) over a fixed base."""

    def __init__(
        self,
        base: IntPolynomial,
        depth: int = 8,
        certs: dict[int, RootCert] | None = None,
    ):
        if base.is_zero or base.degree < 1:
            raise ValueError("base must be a nonconstant polynomial")
        if base.leading <= 0:
            raise ValueError("base must have positive leading coefficient")
        self.base = base
        self.depth = depth
        self._factors = square_free_decomposition(base)
        self._certs: dict[int, RootCert] = dict(certs) if certs else {}
        self._r: dict[int, int] = {1: 0}
        self._lambda: dict[int, int] = {1: 1}
        self._aux: dict[int, IntPolynomial] = {}

    def cert(self, p: int) -> RootCert:
        """Root certificate at p, choosing one deterministically on demand."""
        if p not in self._certs:
            self._certs[p] = choose_root(self.base, p, self.depth, self._factors)
        return self._certs[p]

    def lam(self, d: int) -> int:
        """lambda(d) = prod p^(m_p * e_p): completely multiplicative."""
        if d < 1:
            raise ValueError("d must be positive")
        if d not in self._lambda:
            out = 1
            for p, e in factorize(d):
                out *= p ** (self.cert(p).m * e)
            self._lambda[d] = out
        return self._lambda[d]

    def r_of(self, d: int) -> int:
        """The unique r_d in (-d, 0] with r_d = z_p mod p^e for each p^e || d."""
        if d < 1:
            raise ValueError("d must be positive")
        if d not in self._r:
            x, m = 0, 1
            for p, e in factorize(d):
                zp = self.cert(p).residue_mod(e)
                x, m = crt_pair(x, m, zp, p**e)
            r = x - d if x > 0 else 0
            if self.base(r) % d != 0:
                raise ArithmeticError(f"certificate failure: {d} does not divide h({r})")
            self._r[d] = r
        return self._r[d]

    def aux_poly(self, d: int) -> IntPolynomial:
        """h_d(x) = h(r_d + d x) / lambda(d), with exactness checks.

        An IntegralityError here means a certificate carries the wrong
        multiplicity; it is allowed to propagate loudly.
        """
        if d not in self._aux:
            lam = self.lam(d)
            hd = shift_scale(self.base, self.r_of(d), d, lam)
            k = self.base.degree
            ak = self.base.leading
            if hd.leading * lam != d**k * ak:
                raise ArithmeticError(f"leading coefficient identity failed at d={d}")
            cap = 2**k * d**k * max(abs(c) for c in self.base.coeffs)
            if any(abs(c) * lam > cap for c in hd.coeffs):
                raise ArithmeticError(f"coefficient growth bound failed at d={d}")
            self._aux[d] = hd
        return self._aux[d]


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
    arithmetic (the exponent (k-1)/2 may be half-integral).
    """
    base = fam.base
    if base.degree < 2:
        raise ValueError("content bound audit requires degree >= 2")
    k = base.degree
    disc = discriminant_abs(base)
    ch = content(base)
    rhs_sq = disc ** (k - 1) * ch * ch
    max_c, argmax, max_ratio = 0, 1, 0.0
    for d in range(1, d_max + 1):
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
    # preimage of (0, bound] is contained in [1, (bound/ak)^(1/k) + R + 1]
    cutoff = int(round((bound / ak) ** (1.0 / k))) + R + 2
    out = set()
    for n in range(1, cutoff + 1):
        v = q(n)
        if 0 < v <= bound:
            out.add(v)
    return sorted(out)


def inheritance_check(
    A: set[int],
    x: int,
    q: int,
    fam: AuxiliaryFamily,
    d: int,
    bound: int,
) -> bool:
    """Concrete truncated check of the inheritance implication.

    Builds A' = {a >= 1 : x + lambda(q) a in A}.  If A' has a difference in
    I(h_{qd}) cap [1, bound], then A must have a difference in
    I(h_d) cap [1, lambda(q) * bound].  Returns whether the implication held
    (it must always be true).
    """
    if not A:
        return True
    lam_q = fam.lam(q)
    A_prime = sorted(
        a
        for a in range(1, max((max(A) - x) // lam_q + 2, 1))
        if x + lam_q * a in A
    )
    diffs_prime = {b - a for a in A_prime for b in A_prime if b > a}
    img_qd = set(image_elements(fam.aux_poly(q * d), bound))
    if not (diffs_prime & img_qd):
        return True  # vacuous
    sa = sorted(A)
    diffs = {b - a for a in sa for b in sa if b > a}
    img_d = set(image_elements(fam.aux_poly(d), lam_q * bound))
    return bool(diffs & img_d)
