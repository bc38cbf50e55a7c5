"""Sieved exponential sums.

Complete sums over residues mod q with the W^q sieve, CRT factorization into
the four prime-power classes, square-root cancellation audits, sieved Weyl
sums with exact phase arithmetic, the major-arc asymptotic with its
closed-form oscillatory integral, minor-arc ratio audits, and empirical
moment sums of the normalized inner-iteration Weyl sum.

Phase policy: for rational a/q the phase class g(s)*a mod q is computed in
exact integer arithmetic and mapped through a q-th root-of-unity table; for
a real beta the product beta*g(n) mod 1 is computed exactly using the dyadic
rational that the IEEE double beta actually is, so the only float error is
the final rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import factorize, floor_nth_root_fraction, omega
from .padic import ResourceLimit, values_mod
from .poly import IntPolynomial, content
from .sieve import SieveProfile

COMPLETE_SUM_LIMIT = 4 * 10**6
WEYL_LIMIT = 10**8
WEYL_CHUNK = 2**18
DEFAULT_BLOCK = 4096


@dataclass(frozen=True)
class RationalPoint:
    """Reduced rational a/q on the circle, 0 <= a < q."""

    a: int
    q: int

    def __post_init__(self):
        if self.q < 1 or not 0 <= self.a < self.q:
            raise ValueError("need 0 <= a < q, q >= 1")
        g = math.gcd(self.a, self.q)
        if g != 1:
            raise ValueError(f"a/q must be reduced: a = {self.a}, q = {self.q}, gcd = {g}")

    @property
    def omega_q(self) -> int:
        return omega(self.q) if self.q > 1 else 0


@dataclass
class ExpSumResult:
    value: complex
    n_terms: int
    est_abs_error: float

    def check_trivial_bound(self, mass: float | None = None) -> "ExpSumResult":
        """Assert |value| <= term mass (n_terms for unit-modulus terms)."""
        cap = self.n_terms if mass is None else mass
        assert abs(self.value) <= cap * (1 + 1e-9) + 1e-9
        return self


def _pair_tree(sums: list[complex]) -> complex:
    """Sum the block sums pairwise, level by level; an odd last one moves up."""
    if not sums:
        return 0j
    while len(sums) > 1:
        nxt = [sums[i] + sums[i + 1] for i in range(0, len(sums) - 1, 2)]
        if len(sums) % 2:
            nxt.append(sums[-1])
        sums = nxt
    return sums[0]


def pairwise_sum(values: np.ndarray, block: int = DEFAULT_BLOCK) -> complex:
    """Deterministic fixed-block pairwise (tree) summation."""
    return _pair_tree(
        [complex(np.sum(values[i : i + block])) for i in range(0, len(values), block)]
    )


def frac_mul_exact(n: int, alpha: float) -> float:
    """frac(n * alpha) computed exactly from alpha's dyadic representation."""
    if alpha == 0.0:
        return 0.0
    num, den = alpha.as_integer_ratio()
    return ((n * num) % den) / den


def complete_sum(
    g: IntPolynomial, pt: RationalPoint, sieve: Optional[SieveProfile] = None
) -> ExpSumResult:
    """sum over s in [0, q) (optionally s in W^q(Y)) of e(g(s) a / q).

    A sieve profile restricts s to W^q(Y): only the primes with p^gamma | q
    are active.  Phases are exact integer classes mod q.
    """
    q, a = pt.q, pt.a
    if q > COMPLETE_SUM_LIMIT:
        raise ResourceLimit(f"complete sums capped at q <= {COMPLETE_SUM_LIMIT}")
    mask = np.ones(q, dtype=bool) if sieve is None else sieve.mask(q, q)
    classes = values_mod(g, np.arange(q, dtype=np.int64), q)
    phase_idx = (classes[mask] * (a % q)) % q
    counts = np.bincount(phase_idx, minlength=q)
    roots_of_unity = np.exp(2j * np.pi * np.arange(q) / q)
    value = complex(np.dot(counts, roots_of_unity))
    n_terms = int(mask.sum())
    return ExpSumResult(
        value=value,
        n_terms=n_terms,
        est_abs_error=n_terms * 2.0**-46,
    ).check_trivial_bound()


def crt_split(
    pt: RationalPoint, profile: SieveProfile
) -> list[tuple[RationalPoint, str]]:
    """Factor a/q into prime-power points tagged by the four sieve classes.

    q1: p <= Y, gamma(p) > 1, j < 2*gamma(p);  q2: p <= Y, gamma(p) = 1,
    j = 1;  q3: p <= Y, j >= 2*gamma(p);  q4: p > Y.  The components satisfy
    a/q = sum a_i/q_i (mod 1).
    """
    out = []
    for p, e in factorize(pt.q):
        qi = p**e
        ai = pt.a * pow(pt.q // qi, -1, qi) % qi
        if p in profile.table:
            gamma = profile.table[p][0]
            if e >= 2 * gamma:
                tag = "q3"
            elif gamma == 1:
                tag = "q2"
            else:
                tag = "q1"
        else:
            tag = "q4"
        out.append((RationalPoint(ai, qi), tag))
    return out


def sqrt_cancel_audit(
    g: IntPolynomial,
    q_max: int,
    Y: float,
    n_samples: int = 10,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Square-root cancellation audit for the W^q-restricted complete sums.

    For each q <= q_max and a sample of a coprime to q, records
    |S_restricted| / sqrt(q).  Returns (rows, summary); the summary fits the
    smallest C with max-ratio <= gcd(cont(g), q)^3 * C^omega(q) over
    composite-aware q; the true constant is ineffective, so nothing is asserted.
    """
    import random

    if g.degree < 2:
        raise ValueError("audit requires degree >= 2")
    rng = random.Random(seed)
    profile = SieveProfile.build(g, Y)
    cg = content(g)
    rows = []
    fitted_c = 0.0
    for q in range(1, q_max + 1):
        units = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
        sample = units if len(units) <= n_samples else rng.sample(units, n_samples)
        best = 0.0
        for a in sorted(sample):
            res = complete_sum(g, RationalPoint(a % q, q), sieve=profile)
            ratio = abs(res.value) / math.sqrt(q)
            tags = ",".join(tag for _, tag in crt_split(RationalPoint(a % q, q), profile))
            rows.append(
                {
                    "q": q,
                    "a": a,
                    "abs_sum": abs(res.value),
                    "ratio_sqrt": ratio,
                    "omega_q": omega(q) if q > 1 else 0,
                    "class_tags": tags,
                }
            )
            best = max(best, ratio)
        if q > 1:
            om = omega(q)
            denom = math.gcd(cg, q) ** 3
            if best / denom > 0:
                fitted_c = max(fitted_c, (best / denom) ** (1.0 / om))
    summary = {"q_max": q_max, "Y": Y, "fitted_C": fitted_c, "rows": len(rows)}
    return rows, summary


def _normalize_alpha(alpha) -> tuple[Fraction, float]:
    if isinstance(alpha, Fraction):
        return alpha, 0.0
    if isinstance(alpha, tuple):
        rat, beta = alpha
        return Fraction(rat), float(beta)
    return Fraction(0), float(alpha)


def _weyl_terms(
    g: IntPolynomial,
    dg: Optional[IntPolynomial],
    a: int,
    q: int,
    beta: float,
    n: np.ndarray,
) -> tuple[np.ndarray, float]:
    """The terms [g'(n)] e(g(n) (a/q + beta)) at the integers n, and their mass."""
    if q <= 10**6:
        idx = (values_mod(g, n, q) * a) % q
    else:
        # denominator too large for int64 Horner; exact big-int fallback
        idx = np.array([g.eval_mod(int(t), q) * a % q for t in n.tolist()])
    phases = idx.astype(np.float64) / q
    if beta != 0.0:
        num, den = beta.as_integer_ratio()
        extra = np.array(
            [((g(int(t)) * num) % den) / den for t in n.tolist()], dtype=np.float64
        )
        phases = phases + extra
    terms = np.exp(2j * np.pi * phases)
    if dg is None:
        return terms, float(len(n))
    # derivative values fit a double exactly through 2^53; desk scale
    acc = np.zeros(len(n), dtype=np.float64)
    nf = n.astype(np.float64)
    for c in reversed(dg.coeffs):
        acc = acc * nf + c
    return terms * acc, float(np.sum(np.abs(acc)))


def weyl_sum(
    g: IntPolynomial,
    alpha,
    X: int,
    profile: Optional[SieveProfile] = None,
    weighted: bool = False,
) -> ExpSumResult:
    """sum over n <= X (n in W(Y) if a profile is given) of
    [g'(n)] * e(g(n) * alpha).

    alpha may be a float, an exact Fraction, or a (Fraction, float) pair
    meaning a/q + beta.  The rational part uses exact residue classes; the
    real part uses exact dyadic multiplication.  The terms are generated
    WEYL_CHUNK integers at a time and summed in the fixed blocks of
    pairwise_sum, the fewer than DEFAULT_BLOCK terms left at a chunk's end
    carrying into the next, so memory stays bounded and the value is the
    one pairwise_sum gives over all terms at once.
    """
    if X > WEYL_LIMIT:
        raise ResourceLimit(f"Weyl sums capped at X <= {WEYL_LIMIT}")
    rat, beta = _normalize_alpha(alpha)
    q = rat.denominator
    a = rat.numerator % q
    dg = g.derivative() if weighted else None
    leaves: list[complex] = []
    carry = np.zeros(0, dtype=np.complex128)
    n_terms, mass = 0, 0.0
    for lo in range(1, X + 1, WEYL_CHUNK):
        n = np.arange(lo, min(lo + WEYL_CHUNK, X + 1), dtype=np.int64)
        if profile is not None:
            n = n[profile.mask(len(n), lo=lo)]
        terms, chunk_mass = _weyl_terms(g, dg, a, q, beta, n)
        n_terms += len(n)
        mass += chunk_mass
        terms = np.concatenate((carry, terms))
        full = len(terms) - len(terms) % DEFAULT_BLOCK
        leaves.extend(
            complex(np.sum(terms[i : i + DEFAULT_BLOCK]))
            for i in range(0, full, DEFAULT_BLOCK)
        )
        carry = terms[full:]
    if len(carry):
        leaves.append(complex(np.sum(carry)))
    return ExpSumResult(
        value=_pair_tree(leaves),
        n_terms=n_terms,
        est_abs_error=max(mass, 1.0) * 2.0**-46,
    ).check_trivial_bound(mass)


def oscillatory_integral(g: IntPolynomial, beta: float, X: int) -> complex:
    """integral_0^X g'(x) e(g(x) beta) dx in closed form.

    Substituting u = g(x) gives (e(g(X) beta) - e(g(0) beta)) / (2 pi i beta)
    for beta != 0 and g(X) - g(0) for beta = 0; exact regardless of the
    monotonicity of g.
    """
    u0, u1 = g(0), g(X)
    if beta == 0.0:
        return complex(u1 - u0)

    def e(u: int) -> complex:
        return np.exp(2j * np.pi * frac_mul_exact(u, beta))

    return (e(u1) - e(u0)) / (2j * np.pi * beta)


@dataclass
class MajorArcResult:
    main: complex
    actual: complex
    abs_err: float
    rel_err: float
    in_regime: bool
    vdc_ok: bool


def major_arc_asymptotic(
    g: IntPolynomial,
    pt: RationalPoint,
    beta: float,
    X: int,
    profile: SieveProfile,
) -> MajorArcResult:
    """Main term of the sieved weighted Weyl sum near a/q against its actual value.

    main = (1/q) * prod_{p <= Y, p^gamma !| q} (1 - j/p^gamma)
         * sum_{s in W^q(Y)} e(g(s) a/q) * integral_0^X g'(x) e(g(x) beta) dx.
    The oscillatory integral bound |integral| <= min(|g(X)-g(0)|, 1/(pi |beta|))
    is asserted into vdc_ok.

    in_regime requires X >= q Y^2 (1 + |beta| |g(X) - g(0)|).  The main term
    replaces the sieved sum by its average over W^q(Y) classes against the
    weight g'(x) e(g(x) beta); partial summation pays the class-count error
    once for every unit of phase that e(g(x) beta) turns through, and
    |beta| |g(X) - g(0)| is that total variation.  At beta = 0 it is
    X >= q Y^2.
    """
    q = pt.q
    pref = Fraction(1, q)
    for p, (gamma, j, _) in profile.table.items():
        pg = p**gamma
        if q % pg != 0:
            pref *= 1 - Fraction(j, pg)
    S = complete_sum(g, pt, sieve=profile).value
    integral = oscillatory_integral(g, beta, X)
    rng = abs(g(X) - g(0))
    if beta != 0.0:
        vdc_ok = bool(abs(integral) <= min(rng, 1.0 / (math.pi * abs(beta))) * (1 + 1e-9))
    else:
        vdc_ok = bool(abs(integral) <= rng * (1 + 1e-9))
    main = float(pref) * S * integral
    actual = weyl_sum(g, (Fraction(pt.a, q), beta), X, profile, weighted=True).value
    abs_err = abs(main - actual)
    rel_err = abs_err / abs(main) if main != 0 else math.inf
    return MajorArcResult(
        main=main,
        actual=actual,
        abs_err=abs_err,
        rel_err=rel_err,
        in_regime=X >= q * profile.Y**2 * (1 + abs(beta) * rng),
        vdc_ok=vdc_ok,
    )


@dataclass
class MinorArcAudit:
    bound: float
    actual_abs: float
    ratio: float
    informative: bool  # the hypothesis regime is meaningful (q > 1, Z > Y)
    nontrivial: bool  # the constant-1 bound actually beats the trivial X


def weyl_minor_bound(g: IntPolynomial, pt: RationalPoint, X: int) -> MinorArcAudit:
    """Weyl-inequality audit at alpha = a/q (the hypothesis' worst case).

    bound = X * (a_k log^(k^2)(a_k q X) (q^-1 + X^-1 + q/(a_k X^k)))^(2^-k)
    with implied constant 1; the ratio actual/bound is monitoring data, and
    q = 1 (or bound >= X) is flagged uninformative.
    """
    k = g.degree
    ak = g.leading
    if ak <= 0:
        raise ValueError("positive leading coefficient required")
    q = pt.q
    inner = ak * math.log(ak * q * X) ** (k * k) * (1.0 / q + 1.0 / X + q / (ak * X**k))
    bound = X * inner ** (2.0**-k)
    actual = abs(weyl_sum(g, Fraction(pt.a, q), X).value)
    return MinorArcAudit(
        bound=bound,
        actual_abs=actual,
        ratio=actual / bound if bound > 0 else math.inf,
        informative=q > 1,
        nontrivial=bound < X,
    )


def sieved_minor_audit(
    g: IntPolynomial, pt: RationalPoint, X: int, Y: float, Z: float
) -> MinorArcAudit:
    """Sieved minor-arc audit: the sieved envelope with implied constant 1
    against the sieved unweighted Weyl sum magnitude."""
    if min(X, Y, Z) < 2:
        raise ValueError("X, Y, Z must all be >= 2")
    k = g.degree
    ak = g.leading
    if ak <= 0:
        raise ValueError("positive leading coefficient required")
    q = pt.q
    profile = SieveProfile.build(g, Y)
    inner = ak * math.log(ak * q * X) ** (k * k) * (
        1.0 / q + Z / X + q * Z**k / (ak * float(X) ** k)
    )
    bound = (
        content(g) ** 5
        * math.log(Y) ** (math.e * k)
        * X
        * (math.exp(-math.log(Z) / math.log(Y)) + inner ** (2.0**-k))
    )
    actual = abs(weyl_sum(g, Fraction(pt.a, q), X, profile).value)
    return MinorArcAudit(
        bound=bound,
        actual_abs=actual,
        ratio=actual / bound if bound > 0 else math.inf,
        informative=q > 1 and Z > Y,
        nontrivial=bound < X,
    )


def moment_sum(g: IntPolynomial, L: int, m: int, profile: SieveProfile) -> float:
    """sum over t in Z_L of |S(t)|^m for the normalized sieved Weyl sum

    S(t) = (1/(w L)) sum_{n <= M, n in W(Y)} g'(n) e(g(n) t / L),
    with M = floor((L/(3 b))^(1/k)) for the leading coefficient b, and
    w = prod (1 - j/p^gamma).  Computed with one length-L DFT.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("m must be a positive even integer")
    if L > 2 * 10**6:
        raise ResourceLimit("moment sums capped at L <= 2e6")
    k = g.degree
    b = g.leading
    if b <= 0:
        raise ValueError("positive leading coefficient required")
    M = floor_nth_root_fraction(Fraction(L, 3 * b), k)
    w = float(profile.density())
    # complex from the start, so the transform runs in place
    F = np.zeros(L, dtype=np.complex128)
    dg = g.derivative()
    n = np.flatnonzero(profile.mask(M + 1)[1:]) + 1
    weights = np.array([dg(t) for t in n.tolist()], dtype=np.float64)
    np.add.at(F, values_mod(g, n, L), weights)
    np.fft.fft(F, out=F)
    F /= w * L
    # no conjugate: |conj z| = |z|
    p2 = np.abs(F)
    del F
    p2 *= p2
    p2 **= m // 2
    return float(np.sum(p2))
