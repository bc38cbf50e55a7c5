"""Sieved exponential sums.

Complete sums over residues mod q with the W^q sieve, CRT factorization into
the four prime-power classes, square-root cancellation audits, sieved Weyl
sums with exact phase arithmetic, the major-arc asymptotic with its
closed-form oscillatory integral, minor-arc ratio audits, and empirical
moment sums of the normalized inner-iteration Weyl sum.

Phase policy: every exponential is exp(2 pi i f) of one fraction f computed
exactly and rounded once; beta is the dyadic rational its double is.  A
Weyl-sum phase at alpha = a/q + beta = A/Q is frac(g(n)*alpha) (_phases).
The table e(k/q) (_roots) makes the same float operations on f = k/q: the
same bits as exp(2 pi i _phases) at the class k.  A complete sum mod q reads
it, and so does a beta = 0 Weyl sum with q <= WEYL_CHUNK: with the period
L = lcm(q, sieve wheel) it is sum_k C_k e(k/q), the class weights C_k
summed over min(X, L) residues (_periodic_weyl_sum): exact int64 integers
each rounded once, or float64 sums where int64 could overflow.  Both bin by
g(s) mod q and read the bins out at a one way (_unit_sums).  Every other
Weyl sum streams exp(2 pi i _phases) term by term.  The oscillatory
integral is e(m - round(m)) at the exact midpoint phase m of its ends
times a real factor, an exact fraction rounded once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import factorize, integer_nth_root, omega
from .padic import ResourceLimit, values_mod
from .poly import ZERO, IntPolynomial, content, shift_scale
from .sieve import SieveProfile

COMPLETE_SUM_LIMIT = 4 * 10**6
AUDIT_LIMIT = 10**7
WEYL_LIMIT = 10**8
MOMENT_LIMIT = 2 * 10**6
WEYL_CHUNK = 2**18
DEFAULT_BLOCK = 4096
AUDIT_SAMPLES = 10
ONE = IntPolynomial([1])


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
    while len(sums) > 1:
        sums = [sum(sums[i + 1 : i + 2], sums[i]) for i in range(0, len(sums), 2)]
    return sums[0] if sums else 0j


def _roots(Q: int) -> np.ndarray:
    """e(k/Q) for k in [0, Q): exp(2 pi i f) of the correctly rounded
    f = k/Q, the same floats as exp(2 pi i _phases) at the class k."""
    return np.exp(2j * np.pi * (np.arange(Q) / Q))


def _phase_table(g: IntPolynomial, q: int, sieve: Optional[SieveProfile]) -> np.ndarray:
    """H[m] counts the s in [0, q) (in W^q(Y) with a sieve) with g(s) = m mod q."""
    if q > COMPLETE_SUM_LIMIT:
        raise ResourceLimit(f"complete sums capped at q <= {COMPLETE_SUM_LIMIT}")
    mask = np.ones(q, dtype=bool) if sieve is None else sieve.mask(q, q)
    classes = values_mod(g, np.arange(q, dtype=np.int64), q)
    return np.bincount(classes[mask], minlength=q)


def _unit_sums(hist: np.ndarray, units: list[int]) -> list[complex]:
    """sum_m hist[m] e(m a / q) for each unit a mod q = len(hist).  The
    phase class k = m a holds hist[a^-1 k mod q], so that gather of hist is
    dotted with _roots(q)."""
    q = len(hist)
    inverses = np.array([pow(a, -1, q) for a in units], dtype=np.int64)
    counts = hist[np.arange(q, dtype=np.int64) * inverses[:, None] % q]
    roots = _roots(q)
    return [complex(np.dot(row, roots)) for row in counts]


def complete_sum(
    g: IntPolynomial, pt: RationalPoint, sieve: Optional[SieveProfile] = None
) -> ExpSumResult:
    """sum over s in [0, q) (optionally s in W^q(Y)) of e(g(s) a / q).

    A sieve profile restricts s to W^q(Y): only the primes with p^gamma | q
    are active.  Phases are exact integer classes mod q, read out at a by
    _unit_sums.
    """
    hist = _phase_table(g, pt.q, sieve)
    n_terms = int(hist.sum())
    return ExpSumResult(
        value=_unit_sums(hist, [pt.a])[0],
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
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Square-root cancellation audit for the W^q-restricted complete sums.

    For each q <= q_max and a seeded sample of at most AUDIT_SAMPLES units a
    mod q, records |S_restricted| / sqrt(q).  Returns (rows, summary); the
    summary fits the smallest C with max-ratio <= gcd(cont(g), q)^3 *
    C^omega(q) over composite-aware q; the true constant is ineffective, so
    nothing is asserted.  The residues scanned, 1 + 2 + ... + q_max, are
    capped at AUDIT_LIMIT.
    """
    if g.degree < 2:
        raise ValueError("audit requires degree >= 2")
    total = max(q_max, 0) * (q_max + 1) // 2
    if total > AUDIT_LIMIT:
        raise ResourceLimit(
            f"square-root audit capped at {AUDIT_LIMIT} residues (sum of q <= q_max), "
            f"got {total} for q_max = {q_max}"
        )
    rng = random.Random(seed)
    profile = SieveProfile.build(g, Y)
    cg = content(g)
    rows = []
    fitted_c = 0.0
    for q in range(1, q_max + 1):
        units = np.flatnonzero(np.gcd(np.arange(q), q) == 1).tolist()  # [0] at q = 1
        sample = sorted(units if len(units) <= AUDIT_SAMPLES else rng.sample(units, AUDIT_SAMPLES))
        hist = _phase_table(g, q, profile)
        abs_sums = [abs(v) for v in _unit_sums(hist, sample)]
        assert max(abs_sums) <= hist.sum() * (1 + 1e-9) + 1e-9  # the trivial bound
        # omega and the class tags depend on q alone
        w = omega(q)
        tags = ",".join(tag for _, tag in crt_split(RationalPoint(units[0], q), profile))
        best = 0.0
        for a, abs_sum in zip(sample, abs_sums):
            ratio = abs_sum / math.sqrt(q)
            rows.append(
                {
                    "q": q,
                    "a": a,
                    "abs_sum": abs_sum,
                    "ratio_sqrt": ratio,
                    "omega_q": w,
                    "class_tags": tags,
                }
            )
            best = max(best, ratio)
        if q > 1:
            denom = math.gcd(cg, q) ** 3
            if best / denom > 0:
                fitted_c = max(fitted_c, (best / denom) ** (1.0 / w))
    summary = {"q_max": q_max, "Y": Y, "fitted_C": fitted_c, "rows": len(rows)}
    return rows, summary


def _exact_alpha(a: int, q: int, beta: float) -> tuple[int, int]:
    """(A, Q) with a/q + beta = A/Q and Q = q den(beta): beta is the dyadic
    rational its double is."""
    num, den = beta.as_integer_ratio()
    return a * den + num * q, q * den


def _phases(g: IntPolynomial, a: int, q: int, beta: float, n: np.ndarray) -> np.ndarray:
    """frac(g(n) (a/q + beta)), correctly rounded, at the integers n (int64,
    or Python ints in an object array): a/q + beta = A/Q, g(n) A mod Q is
    exact (int64 Horner while Q*Q < 2**63, Python ints past it), and the one
    division by Q is the only rounding."""
    A, Q = _exact_alpha(a, q, beta)
    if Q * Q < 2**63:
        return (values_mod(g, n, Q) * (A % Q) % Q).astype(np.float64) / Q
    if g.is_zero:  # Horner over no coefficients returns the int 0, not an array
        return np.zeros(len(n))
    return (g(n.astype(object)) * A % Q / Q).astype(np.float64)


def _streamed_weyl_sum(
    g: IntPolynomial,
    pt: RationalPoint,
    X: int,
    profile: Optional[SieveProfile],
    weighted: bool,
    beta: float,
) -> ExpSumResult:
    """The Weyl sum over every term [g'(n)] exp(2 pi i _phases), n <= X.

    The terms are generated WEYL_CHUNK integers at a time and summed in
    blocks of DEFAULT_BLOCK, the remainder of a chunk carrying into the next,
    and the block sums are added pairwise: memory stays bounded, and the
    value is the one this blocking gives over all terms held at once.
    """
    dg = g.derivative() if weighted else None
    leaves: list[complex] = []
    carry = np.zeros(0, dtype=np.complex128)
    n_terms, mass = 0, 0.0
    for lo in range(1, X + 1, WEYL_CHUNK):
        n = np.arange(lo, min(lo + WEYL_CHUNK, X + 1), dtype=np.int64)
        if profile is not None:
            n = n[profile.mask(len(n), lo=lo)]
        terms = np.exp(2j * np.pi * _phases(g, pt.a, pt.q, beta, n))
        n_terms += len(n)
        if dg is None:
            mass += len(n)
        else:
            # derivative values fit a double exactly through 2^53; desk scale
            acc = dg(n.astype(np.float64))
            terms *= acc
            mass += float(np.sum(np.abs(acc)))
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


def _period_weights(dg: IntPolynomial, L: int, X: int) -> tuple[IntPolynomial, int]:
    """W for the class weights of the period L, and a bound on their sums.

    With c = X // L, the terms n = r + mL (m < c) of a residue r in [1, L]
    weigh W(r) = sum_{m < c} dg(r + mL).  h(m) = dg(x + mL) has len(dg.coeffs)
    coefficients in the Newton basis binom(m, i), the forward differences
    Delta^i h(0), so W = sum_i binom(c, i + 1) Delta^i h(0): a polynomial
    with exact integer coefficients, zero when c = 0.  The bound covers every
    partial sum: Horner of W at r <= L, of dg at n <= X, and a class sum, at
    most sum_{n <= X} |dg(n)|.
    """
    c = X // L
    h = [shift_scale(dg, m * L, 1, 1) for m in range(len(dg.coeffs))]
    W = ZERO
    for i in range(len(h)):
        W = W + h[0] * math.comb(c, i + 1)
        h = [b - a for a, b in zip(h, h[1:])]
    bound = sum(abs(w) * L**t for t, w in enumerate(W.coeffs)) + X * sum(
        abs(d) * X**j for j, d in enumerate(dg.coeffs)
    )
    return W, bound


def _periodic_weyl_sum(
    g: IntPolynomial,
    pt: RationalPoint,
    X: int,
    profile: Optional[SieveProfile],
    weighted: bool,
) -> ExpSumResult:
    """The beta = 0 Weyl sum of [g'(n)] e(g(n) a/q) as sum_k C_k e(k/q).

    q | L = lcm(q, wheel) and membership in W(Y) has period L, so with
    X = cL + rem the n = r + mL <= X of a residue r in [1, min(X, L)] share
    g(r) mod q and weigh W(r) (_period_weights).  The residues of [1, rem]
    carry c + 1 terms each and add dg(r + cL) to W(r); those of
    (rem, min(X, L)] carry c.  Each range is taken WEYL_CHUNK residues at a
    time, so memory stays bounded as in the stream.  While the bound of
    _period_weights is below 2^63 the weights of each g(r) mod q are exact
    int64 sums, each rounded once.  Past it the weights are float64, each
    split as hi + lo with hi a multiple of step: every partial sum of the hi
    parts stays below 2^53 step, so they add exactly, and only the small lo
    parts round.  The sums are read out at a as in complete_sum
    (_unit_sums), which makes them the class weights C_k.
    """
    X = max(X, 0)  # no term below n = 1
    L = pt.q if profile is None else math.lcm(pt.q, profile.wheel)
    dg = g.derivative() if weighted else ONE
    W, bound = _period_weights(dg, L, X)
    exact = bound < 2**63
    step = 2.0 ** max(bound.bit_length() - 52, 0)
    c, rem = divmod(X, L)
    hist = np.zeros(pt.q, dtype=np.int64 if exact else np.float64)
    low = np.zeros(pt.q)
    n_terms, mass = 0, 0
    for first, last, reps in ((1, rem, c + 1), (rem + 1, min(X, L), c)):
        for lo in range(first, last + 1, WEYL_CHUNK):
            r = np.arange(lo, min(lo + WEYL_CHUNK, last + 1), dtype=np.int64)
            if profile is not None:
                r = r[profile.mask(len(r), lo=lo)]
            x = r if exact else r.astype(np.float64)
            weights = np.zeros(len(r), dtype=hist.dtype) + W(x)
            if reps > c:  # r + cL <= X
                weights += dg(x + c * L)
            classes = values_mod(g, r, pt.q)
            n_terms += reps * len(r)
            mass += np.abs(weights).sum().item()
            if not exact:
                hi = np.round(weights / step) * step
                np.add.at(low, classes, weights - hi)
                weights = hi
            np.add.at(hist, classes, weights)
    return ExpSumResult(
        value=_unit_sums(hist.astype(np.float64) + low, [pt.a])[0],
        n_terms=n_terms,
        est_abs_error=max(mass, 1) * 2.0**-46,
    ).check_trivial_bound(float(mass))


def _check_weyl_limit(X: int) -> None:
    if X > WEYL_LIMIT:
        raise ResourceLimit(f"Weyl sums capped at X <= {WEYL_LIMIT}")


def weyl_sum(
    g: IntPolynomial,
    pt: RationalPoint,
    X: int,
    profile: Optional[SieveProfile] = None,
    weighted: bool = False,
    beta: float = 0.0,
) -> ExpSumResult:
    """sum over n <= X (n in W(Y) if a profile is given) of
    [g'(n)] * e(g(n) * (a/q + beta)).

    At beta = 0 the terms repeat with the period L = lcm(q, profile.wheel),
    and every sum with q <= WEYL_CHUNK is the class-weight sum over
    min(X, L) residues (_periodic_weyl_sum); the others stream every term
    (_streamed_weyl_sum).
    """
    _check_weyl_limit(X)
    if beta == 0.0 and pt.q <= WEYL_CHUNK:
        return _periodic_weyl_sum(g, pt, X, profile, weighted)
    return _streamed_weyl_sum(g, pt, X, profile, weighted, beta)


def oscillatory_integral(g: IntPolynomial, beta: float, X: int) -> complex:
    """integral_0^X g'(x) e(g(x) beta) dx in closed form, for every beta.

    With u0 = g(0), u1 = g(X), t = beta (u1 - u0) and m = beta (u0 + u1) / 2
    as exact fractions, u = g(x) gives (u1 - u0) e(m) sin(pi t) / (pi t)
    whatever the monotonicity of g.  r = t - 2 round(t/2) has |r| <= 1 and
    sin(pi r) = sin(pi t); with y = pi float(r) the real factor is
    (u1 - u0) (r/t) (sin y / y), rounded once (u1 - u0 at t = 0).
    """
    u0, u1 = g(0), g(X)
    b = Fraction(beta)
    t, m = b * (u1 - u0), b * (u0 + u1) / 2
    r = t - 2 * round(t / 2)
    y = math.pi * float(r)
    scale = (u1 - u0) * (r / t if t else 1) * Fraction(math.sin(y) / y if y else 1.0)
    return complex(float(scale) * np.exp(2j * np.pi * float(m - round(m))))


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
    X >= q Y^2.  X is checked against WEYL_LIMIT before any float work.
    """
    _check_weyl_limit(X)
    q = pt.q
    pref = Fraction(1, q) * profile.density(q)
    S = complete_sum(g, pt, sieve=profile).value
    integral = oscillatory_integral(g, beta, X)
    rng = abs(g(X) - g(0))
    cap = min(rng, 1.0 / (math.pi * abs(beta))) if beta != 0.0 else rng
    vdc_ok = bool(abs(integral) <= cap * (1 + 1e-9))
    main = float(pref) * S * integral
    actual = weyl_sum(g, pt, X, profile, weighted=True, beta=beta).value
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

    @classmethod
    def of(cls, bound: float, actual: float, X: int, informative: bool) -> "MinorArcAudit":
        """The audit of |sum| = actual against bound; X is the trivial bound."""
        return cls(bound, actual, actual / bound if bound > 0 else math.inf, informative, bound < X)


def _weyl_inner(g: IntPolynomial, q: int, X: int, Z: float) -> float:
    """(Weyl factor)^(2^k) of the minor-arc envelopes:
    a_k log^(k^2)(a_k q X) (q^-1 + Z/X + q Z^k/(a_k X^k)); Z = 1 is unsieved."""
    k = g.degree
    ak = g.leading
    if ak <= 0:
        raise ValueError("positive leading coefficient required")
    return ak * math.log(ak * q * X) ** (k * k) * (1.0 / q + Z / X + q * Z**k / (ak * X**k))


def weyl_minor_bound(g: IntPolynomial, pt: RationalPoint, X: int) -> MinorArcAudit:
    """Weyl-inequality audit at alpha = a/q (the hypothesis' worst case).

    bound = X * (a_k log^(k^2)(a_k q X) (q^-1 + X^-1 + q/(a_k X^k)))^(2^-k)
    with implied constant 1; the ratio actual/bound is monitoring data, and
    q = 1 (or bound >= X) is flagged uninformative.
    """
    bound = X * _weyl_inner(g, pt.q, X, 1) ** (2.0**-g.degree)
    actual = abs(weyl_sum(g, pt, X).value)
    return MinorArcAudit.of(bound, actual, X, informative=pt.q > 1)


def sieved_minor_audit(
    g: IntPolynomial, pt: RationalPoint, X: int, Y: float, Z: float
) -> MinorArcAudit:
    """Sieved minor-arc audit: the sieved envelope with implied constant 1
    against the sieved unweighted Weyl sum magnitude."""
    if min(X, Y, Z) < 2:
        raise ValueError("X, Y, Z must all be >= 2")
    k = g.degree
    inner = _weyl_inner(g, pt.q, X, Z)
    bound = (
        content(g) ** 5
        * math.log(Y) ** (math.e * k)
        * X
        * (math.exp(-math.log(Z) / math.log(Y)) + inner ** (2.0**-k))
    )
    actual = abs(weyl_sum(g, pt, X, SieveProfile.build(g, Y)).value)
    return MinorArcAudit.of(bound, actual, X, informative=pt.q > 1 and Z > Y)


def moment_sum(g: IntPolynomial, L: int, m: int, profile: SieveProfile) -> float:
    """sum over t in Z_L of |S(t)|^m for the normalized sieved Weyl sum

    S(t) = (1/(w L)) sum_{n <= M, n in W(Y)} g'(n) e(g(n) t / L),
    with M = floor((L/(3 b))^(1/k)) for the leading coefficient b, and
    w = prod (1 - j/p^gamma).  The weighted histogram is real, so one rfft
    gives S(t) for t <= L/2 and S(L - t) = conj S(t) the rest: the sum runs
    over that half, counting t = 0 once, 0 < t < L/2 twice and t = L/2 (L
    even) once.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("m must be a positive even integer")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if L > MOMENT_LIMIT:
        raise ResourceLimit(f"moment sums capped at L <= {MOMENT_LIMIT}")
    k = g.degree
    b = g.leading
    if b <= 0:
        raise ValueError("positive leading coefficient required")
    M = integer_nth_root(L // (3 * b), k)
    w = float(profile.density())
    F = np.zeros(L, dtype=np.float64)
    dg = g.derivative()
    n = np.flatnonzero(profile.mask(M + 1)[1:]) + 1
    weights = np.array([dg(t) for t in n.tolist()], dtype=np.float64)
    np.add.at(F, values_mod(g, n, L), weights)
    S = np.fft.rfft(F)
    del F
    S /= w * L
    # re^2 + im^2 rounds the same for S(t) and its conjugate S(L - t)
    p = np.square(S.real)
    p += np.square(S.imag)
    del S
    p **= m // 2
    total = p[0] + 2 * np.sum(p[1 : (L + 1) // 2])
    if L % 2 == 0:
        total += p[L // 2]
    return float(total)
