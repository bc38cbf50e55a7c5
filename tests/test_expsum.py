"""Sieved exponential sums: complete sums, CRT splitting, cancellation
audits, Weyl sums with exact phases, the major-arc asymptotic, minor-arc
ratio audits, and moment sums."""

import cmath
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ilab.expsum import (
    DEFAULT_BLOCK,
    WEYL_CHUNK,
    RationalPoint,
    ResourceLimit,
    complete_sum,
    crt_split,
    _phase_table,
    ONE,
    _period_weights,
    _periodic_weyl_sum,
    _phases,
    _roots,
    _streamed_weyl_sum,
    major_arc_asymptotic,
    moment_sum,
    oscillatory_integral,
    sieved_minor_audit,
    sqrt_cancel_audit,
    weyl_minor_bound,
    weyl_sum,
)
from ilab.arith import factorize, integer_nth_root
from ilab.padic import values_mod
from ilab.poly import IntPolynomial, parse_poly
from ilab.sieve import SieveProfile

X2 = parse_poly("x^2")
X3 = parse_poly("x^3")
H2 = parse_poly("2x^2-5x+3")
QUINTIC = parse_poly("(x^3-19)(x^2+x+1)")


class TestRationalPoint:
    def test_validation(self):
        RationalPoint(0, 1)
        RationalPoint(3, 7)
        with pytest.raises(ValueError):
            RationalPoint(2, 4)
        with pytest.raises(ValueError):
            RationalPoint(7, 7)


class TestCompleteSum:
    def test_gauss_seven(self):
        res = complete_sum(X2, RationalPoint(1, 7))
        assert abs(abs(res.value) - math.sqrt(7)) < 1e-9

    def test_sieved_vanishing_q9(self):
        pr = SieveProfile.build(X2, 20)
        res = complete_sum(X2, RationalPoint(1, 9), sieve=pr)
        assert abs(res.value) < 1e-9

    def test_q1(self):
        res = complete_sum(QUINTIC, RationalPoint(0, 1))
        assert res.value == pytest.approx(1 + 0j)
        assert res.n_terms == 1

    def test_conjugation_symmetry(self):
        rng = random.Random(500)
        for _ in range(40):
            g = rng.choice([X2, X3, H2])
            q = rng.randint(2, 500)
            a = rng.randrange(1, q)
            while math.gcd(a, q) != 1:
                a = rng.randrange(1, q)
            s1 = complete_sum(g, RationalPoint(a, q)).value
            s2 = complete_sum(g, RationalPoint((-a) % q, q)).value
            assert abs(s1 - s2.conjugate()) < 1e-9 * q

    def test_brute_force_oracle(self):
        rng = random.Random(501)
        for _ in range(25):
            g = rng.choice([X2, X3, H2, QUINTIC])
            q = rng.randint(2, 150)
            a = rng.randrange(1, q)
            while math.gcd(a, q) != 1:
                a = rng.randrange(1, q)
            direct = sum(cmath.exp(2j * cmath.pi * (g(s) * a % q) / q) for s in range(q))
            res = complete_sum(g, RationalPoint(a, q))
            assert abs(res.value - direct) < 1e-9 * q

    def test_resource_guard(self):
        with pytest.raises(ResourceLimit):
            complete_sum(X2, RationalPoint(1, 5 * 10**6))


class TestCrtSplit:
    def test_tags(self):
        pr = SieveProfile.build(X2, 20)
        assert [(p.q, t) for p, t in crt_split(RationalPoint(1, 15), pr)] == [
            (3, "q2"),
            (5, "q2"),
        ]
        assert [(p.q, t) for p, t in crt_split(RationalPoint(1, 9), pr)] == [(9, "q3")]
        pr5 = SieveProfile.build(X2, 5)
        assert [(p.q, t) for p, t in crt_split(RationalPoint(1, 11), pr5)] == [(11, "q4")]
        # gamma(2) = 2 for x^2: 4 = 2^2 < 2^(2 gamma) is class q1
        assert [(p.q, t) for p, t in crt_split(RationalPoint(1, 4), pr)] == [(4, "q1")]

    def test_fraction_identity(self):
        rng = random.Random(502)
        pr = SieveProfile.build(X2, 20)
        for _ in range(200):
            q = rng.randint(2, 10**4)
            a = rng.randrange(1, q)
            while math.gcd(a, q) != 1:
                a = rng.randrange(1, q)
            parts = crt_split(RationalPoint(a, q), pr)
            total = sum(Fraction(p.a, p.q) for p, _ in parts) - Fraction(a, q)
            assert total.denominator == 1

    def test_product_identity(self):
        rng = random.Random(503)
        for _ in range(60):
            g = rng.choice([X2, X3, H2])
            pr = SieveProfile.build(g, rng.choice([5, 10, 20]))
            q = rng.randint(2, 5000)
            a = rng.randrange(1, q)
            while math.gcd(a, q) != 1:
                a = rng.randrange(1, q)
            pt = RationalPoint(a, q)
            for sieve in (None, pr):
                full = complete_sum(g, pt, sieve=sieve).value
                prod = 1 + 0j
                for part, _ in crt_split(pt, pr):
                    prod *= complete_sum(g, part, sieve=sieve).value
                assert abs(full - prod) < 1e-9 * q


class TestSqrtCancelAudit:
    def test_prime_rows_near_gauss(self):
        # the W^q sieve removes the single root class s = 0 at an odd prime,
        # so |S_restricted| sits within 1 of the full Gauss magnitude sqrt(q)
        rows, summary = sqrt_cancel_audit(X2, 60, 60, seed=1)
        for row in rows:
            q = row["q"]
            if q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
                assert abs(row["abs_sum"] - math.sqrt(q)) <= 1 + 1e-9
        assert summary["fitted_C"] > 0

    def test_weil_bound_squarefree(self):
        # for squarefree q <= Y with gamma = 1 at all prime factors and
        # cont(g) = 1, the per-prime Weil bound gives ratio <= k^omega(q)
        rows, _ = sqrt_cancel_audit(X3, 40, 40, seed=2)
        pr = SieveProfile.build(X3, 40)
        k = 3
        for row in rows:
            q = row["q"]
            if q < 2:
                continue
            fac = factorize(q)
            squarefree = all(e == 1 for _, e in fac)
            gammas_one = all(p in pr.table and pr.table[p][0] == 1 for p, _ in fac)
            if squarefree and gammas_one:
                assert row["ratio_sqrt"] <= k ** row["omega_q"] + 1e-9

    def test_omega_and_class_tags_follow_each_row(self):
        # computed once per q, they must equal the per-row values
        pr = SieveProfile.build(X2, 10)
        rows, _ = sqrt_cancel_audit(X2, 200, 10, seed=4)
        assert (rows[0]["q"], rows[0]["omega_q"]) == (1, 0)
        for row in rows:
            pt = RationalPoint(row["a"], row["q"])
            assert row["omega_q"] == len(factorize(row["q"]))
            assert row["class_tags"] == ",".join(tag for _, tag in crt_split(pt, pr))

    def test_total_work_guard(self, monkeypatch):
        # 1 + 2 + ... + q_max residues: 4472 passes the 10^7 limit, 4471 does not
        with pytest.raises(ResourceLimit, match="capped at 10000000 residues"):
            sqrt_cancel_audit(X3, 4472, 0)
        monkeypatch.setattr("ilab.expsum.AUDIT_LIMIT", 15)
        assert len(sqrt_cancel_audit(X3, 5, 0)[0]) == 1 + 1 + 2 + 2 + 4
        with pytest.raises(ResourceLimit, match="got 21 for q_max = 6"):
            sqrt_cancel_audit(X3, 6, 0)

    def test_prime_square_vanishes(self):
        rows, _ = sqrt_cancel_audit(X2, 50, 50, seed=3)
        for row in rows:
            if row["q"] in (9, 25, 49):
                assert row["abs_sum"] < 1e-9

    @pytest.mark.parametrize("text", ["x^3", "x^2", "3x^4-2x+5"])
    @pytest.mark.parametrize("Y", [10, 100])
    def test_one_histogram_per_q_is_bit_identical(self, text, Y):
        # the reference bins g(s) a mod q afresh for every sampled unit a
        g = parse_poly(text)
        profile = SieveProfile.build(g, Y)
        rng = random.Random(5)
        expected = []
        for q in range(1, 151):
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            sample = units if len(units) <= 10 else rng.sample(units, 10)
            classes = values_mod(g, np.arange(q, dtype=np.int64), q)[profile.mask(q, q)]
            roots = np.exp(2j * np.pi * (np.arange(q) / q))
            for a in sorted(sample):
                counts = np.bincount(classes * a % q, minlength=q)
                expected.append((q, a, abs(complex(np.dot(counts, roots)))))
                assert complete_sum(g, RationalPoint(a, q), sieve=profile).value == complex(
                    np.dot(counts, roots)
                )
        rows, _ = sqrt_cancel_audit(g, 150, Y, seed=5)
        assert [(r["q"], r["a"], r["abs_sum"]) for r in rows] == expected


class TestWeylSum:
    def test_alpha_zero(self):
        assert weyl_sum(X2, RationalPoint(0, 1), 100).value == pytest.approx(100 + 0j)

    def test_quarter_four_terms(self):
        res = weyl_sum(X2, RationalPoint(1, 4), 4)
        assert res.value == pytest.approx(2 + 2j, abs=1e-12)

    def test_rational_phase_class_oracle(self):
        # independent route: bucket n by g(n) mod q, then counts x roots of unity
        rng = random.Random(504)
        for _ in range(25):
            g = rng.choice([X2, X3, H2])
            q = rng.randint(2, 50)
            a = rng.randrange(q)
            X = rng.randint(10, 3000)
            counts = [0] * q
            for n in range(1, X + 1):
                counts[g(n) * a % q] += 1
            expected = sum(
                c * cmath.exp(2j * cmath.pi * r / q) for r, c in enumerate(counts)
            )
            r = Fraction(a, q)
            got = weyl_sum(g, RationalPoint(r.numerator, r.denominator), X).value
            assert abs(got - expected) < 1e-9 * X

    def test_exact_dyadic_phase(self):
        # g = x at a/q = 0/1: the phase of n is frac(n * alpha), alpha being
        # the dyadic rational num/den its double is
        rng = random.Random(505)
        for _ in range(100):
            n = rng.randint(1, 10**18)
            alpha = rng.random()
            (f,) = _phases(IntPolynomial([0, 1]), 0, 1, alpha, np.array([n]))
            num, den = alpha.as_integer_ratio()
            assert f == ((n * num) % den) / den
            assert 0 <= f < 1

    def test_sieved_sum_matches_mask(self):
        pr = SieveProfile.build(X2, 10)
        X = 500
        mask = pr.mask(X + 1)
        direct = sum(
            2 * n * cmath.exp(2j * cmath.pi * (n * n % 3) / 3)
            for n in range(1, X + 1)
            if mask[n]
        )
        got = weyl_sum(X2, RationalPoint(1, 3), X, profile=pr, weighted=True).value
        assert abs(got - direct) < 1e-9 * X * X

    def test_pairwise_sum_matches(self):
        rng = np.random.default_rng(506)
        vals = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        assert pairwise_sum(vals, block=64) == pytest.approx(complex(np.sum(vals)))

    def test_resource_guard(self):
        with pytest.raises(ResourceLimit):
            weyl_sum(X2, RationalPoint(0, 1), 10**8 + 1)


class TestRootTable:
    @pytest.mark.parametrize("Q", [1, 2, 3, 7, 97, 1000, 4096, 65537])
    def test_complete_sum_and_weyl_tables_are_the_same_bytes(self, Q):
        # g = x at 1/Q reads the whole table in order, the table that
        # complete sums and class-weight Weyl sums dot with (_unit_sums);
        # the direct route exp(2 pi i _phases) of a streamed term gives the
        # same bytes
        x = IntPolynomial([0, 1])
        n = np.arange(Q, dtype=np.int64)
        direct = np.exp(2j * np.pi * _phases(x, 1 % Q, Q, 0.0, n))
        assert _roots(Q).tobytes() == direct.tobytes()


def pairwise_sum(values: np.ndarray, block: int = DEFAULT_BLOCK) -> complex:
    """Deterministic fixed-block pairwise summation: the block sums are added
    in pairs, level by level, an odd last one moving up a level."""
    sums = [complex(np.sum(values[i : i + block])) for i in range(0, len(values), block)]
    if not sums:
        return 0j
    while len(sums) > 1:
        pairs = [sums[i] + sums[i + 1] for i in range(0, len(sums) - 1, 2)]
        sums = pairs + sums[len(sums) - len(sums) % 2 :]
    return sums[0]


def materialized_weyl_sum(g, alpha, X, profile=None, weighted=False):
    """Reference: every term of [1, X] held at once, then one pairwise_sum.

    Each phase is frac(g(n) alpha) rounded once: alpha = a/q + beta is the
    reduced fraction A/Q, and Python ints give g(n) A mod Q exactly before
    the one division (int64 residues do it while Q stays small)."""
    rat, beta = (alpha, 0.0) if isinstance(alpha, Fraction) else alpha
    n = np.arange(1, X + 1, dtype=np.int64)
    if profile is not None:
        n = n[profile.mask(X + 1)[1:]]
    exact = rat + Fraction(beta)
    A, Q = exact.numerator % exact.denominator, exact.denominator
    if Q <= 10**6:
        phases = ((values_mod(g, n, Q) * A) % Q).astype(np.float64) / Q
    else:
        phases = np.array([g(t) * A % Q / Q for t in n.tolist()], dtype=np.float64)
    terms = np.exp(2j * np.pi * phases)
    if weighted:
        acc = np.zeros(len(n), dtype=np.float64)
        nf = n.astype(np.float64)
        for c in reversed(g.derivative().coeffs):
            acc = acc * nf + c
        terms = terms * acc
    return pairwise_sum(terms), len(n)


class TestStreamedWeylSum:
    """The chunked sum is bit for bit the sum over all terms at once."""

    PROFILE = SieveProfile.build(X3, 10)  # sieved counts per chunk are not block multiples

    @staticmethod
    def assert_identical(g, alpha, X, profile, weighted):
        rat, beta = (alpha, 0.0) if isinstance(alpha, Fraction) else alpha
        pt = RationalPoint(rat.numerator, rat.denominator)
        res = _streamed_weyl_sum(g, pt, X, profile, weighted, beta)
        value, n_terms = materialized_weyl_sum(g, alpha, X, profile, weighted)
        assert (res.value.real.hex(), res.value.imag.hex(), res.n_terms) == (
            value.real.hex(),
            value.imag.hex(),
            n_terms,
        )

    @pytest.mark.parametrize(
        "X",
        [0, 1, DEFAULT_BLOCK + 1, WEYL_CHUNK - 1, WEYL_CHUNK, WEYL_CHUNK + 1,
         3 * WEYL_CHUNK + DEFAULT_BLOCK + 7],
    )
    @pytest.mark.parametrize("sieved", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rational_alpha(self, X, sieved, weighted):
        profile = self.PROFILE if sieved else None
        self.assert_identical(X3, Fraction(2, 97), X, profile, weighted)

    @pytest.mark.parametrize(
        "alpha, sieved, weighted",
        [
            ((Fraction(1, 3), 3.7e-7), True, True),
            ((Fraction(0), 1e-9), False, False),
            ((Fraction(5, 10**6 + 3), 0.0), True, False),  # values_mod past 1e6
            ((Fraction(7, 3037000507), 0.0), False, False),  # q*q >= 2^63: big-int phases
        ],
    )
    def test_slow_phase_paths(self, alpha, sieved, weighted):
        profile = self.PROFILE if sieved else None
        self.assert_identical(X3, alpha, WEYL_CHUNK + 4099, profile, weighted)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_bounded_memory(self):
        # holding all 2e7 terms at once peaks near 350 MB.  The child reads its
        # own VmHWM: ru_maxrss would carry over the peak of this test process,
        # which a child inherits through fork and exec.  At q = 3 weyl_sum
        # sums one period of 420, at q = 19997 one of 8398740 in chunks; at
        # q = 10000019, past WEYL_CHUNK, every term is streamed
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        for q in (3, 19997, 10000019):
            code = (
                "from ilab.expsum import RationalPoint, weyl_sum\n"
                "from ilab.poly import parse_poly\n"
                "from ilab.sieve import SieveProfile\n"
                "g = parse_poly('x^2')\n"
                f"weyl_sum(g, RationalPoint(1, {q}), 2 * 10**7, SieveProfile.build(g, 10), weighted=True)\n"
                "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
                "print(status.split()[0])\n"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            assert int(out.stdout) / 1024 < 150, q  # VmHWM is in kB


def wheel_period(q, profile):
    """lcm(q, p^gamma over the primes whose root classes the sieve removes)."""
    return q if profile is None else math.lcm(q, profile.wheel)


def brute_class_weights(g, pt, X, profile, weighted):
    """(C, n_terms): C[k] sums [g'(n)] over the n <= X (in W(Y) with a
    profile) with g(n) a = k mod q, in Python ints."""
    dg = g.derivative()
    C, n_terms = [0] * pt.q, 0
    for n in range(1, X + 1):
        if profile is None or profile.member(n):
            C[g(n) * pt.a % pt.q] += dg(n) if weighted else 1
            n_terms += 1
    return C, n_terms


def assert_class_weights(g, pt, X, profile, weighted):
    """The class-weight sum against the brute-force class weights: n_terms
    exactly, and the value as sum float(C_k) e(k/q), bit for bit while the
    bound of _period_weights keeps them in int64 and within est_abs_error
    past it; and the streamed sum within est_abs_error."""
    C, n_terms = brute_class_weights(g, pt, X, profile, weighted)
    want = complex(np.dot(np.array([float(c) for c in C]), _roots(pt.q)))
    res = _periodic_weyl_sum(g, pt, X, profile, weighted)
    assert res.n_terms == n_terms
    dg = g.derivative() if weighted else ONE
    if _period_weights(dg, wheel_period(pt.q, profile), X)[1] < 2**63:
        assert (res.value.real.hex(), res.value.imag.hex()) == (want.real.hex(), want.imag.hex())
    else:
        assert abs(res.value - want) <= res.est_abs_error
    streamed = _streamed_weyl_sum(g, pt, X, profile, weighted, 0.0)
    assert streamed.n_terms == n_terms
    assert abs(res.value - streamed.value) <= res.est_abs_error
    return res


def frozen_complete_sum(g, pt, sieve=None):
    """(value, n_terms) of complete_sum as it read its histogram out before
    the shared read-out: one gather by a^-1 and one dot with _roots(q)."""
    hist = _phase_table(g, pt.q, sieve)
    counts = hist[np.arange(pt.q, dtype=np.int64) * pow(pt.a, -1, pt.q) % pt.q]
    return complex(np.dot(counts, _roots(pt.q))), int(hist.sum())


def frozen_periodic_weyl_sum(g, pt, X, profile, weighted):
    """(value, n_terms) of the beta = 0 class-weight sum as it ran before
    the shared read-out: one walk over [1, min(X, L)] that bins by
    g(r) a mod q per residue and adds dg(r + cL) to the r <= X mod L
    through a boolean tail mask."""
    X = max(X, 0)
    L = pt.q if profile is None else math.lcm(pt.q, profile.wheel)
    dg = g.derivative() if weighted else ONE
    W, bound = _period_weights(dg, L, X)
    exact = bound < 2**63
    step = 2.0 ** max(bound.bit_length() - 52, 0)
    c, rem = divmod(X, L)
    T = min(X, L)
    hist = np.zeros(pt.q, dtype=np.int64 if exact else np.float64)
    low = np.zeros(pt.q)
    n_terms = 0
    for lo in range(1, T + 1, WEYL_CHUNK):
        r = np.arange(lo, min(lo + WEYL_CHUNK, T + 1), dtype=np.int64)
        if profile is not None:
            r = r[profile.mask(len(r), lo=lo)]
        tail = r <= rem
        x = r if exact else r.astype(np.float64)
        weights = np.zeros(len(r), dtype=hist.dtype) + W(x)
        weights[tail] += dg(x[tail] + c * L)
        classes = values_mod(g, r, pt.q) * pt.a % pt.q
        n_terms += c * len(r) + int(np.count_nonzero(tail))
        if not exact:
            hi = np.round(weights / step) * step
            np.add.at(low, classes, weights - hi)
            weights = hi
        np.add.at(hist, classes, weights)
    return complex(np.dot(hist.astype(np.float64) + low, _roots(pt.q))), n_terms


def value_bits(value, n_terms):
    """The exact bits of a complex value, with its term count."""
    return value.real.hex(), value.imag.hex(), n_terms


class TestFrozenReadOut:
    """Complete sums and audit rows against the frozen read-out, bit for bit."""

    def test_complete_sums(self):
        rng = random.Random(611)
        for _ in range(150):
            g = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 5))]
                              + [rng.randint(1, 9)])
            q = rng.randint(1, 400)
            pt = RationalPoint(rng.choice([a for a in range(q) if math.gcd(a, q) == 1]), q)
            for sieve in (None, SieveProfile.build(g, rng.choice([0, 5, 10, 20]))):
                res = complete_sum(g, pt, sieve)
                want = frozen_complete_sum(g, pt, sieve)
                assert value_bits(res.value, res.n_terms) == value_bits(*want)

    def test_audit_rows(self):
        g = parse_poly("3x^4-2x+5")
        profile = SieveProfile.build(g, 20)
        rows, _ = sqrt_cancel_audit(g, 120, 20, seed=7)
        for row in rows:
            value, _ = frozen_complete_sum(g, RationalPoint(row["a"], row["q"]), profile)
            assert row["abs_sum"].hex() == abs(value).hex()

    def test_class_weight_sums(self):
        # int64 and float64 weights, X below, at and past the period
        rng = random.Random(612)
        for _ in range(60):
            g = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 5))]
                              + [rng.randint(1, 20)])
            q = rng.randint(1, 400)
            pt = RationalPoint(rng.choice([a for a in range(q) if math.gcd(a, q) == 1]), q)
            profile = SieveProfile.build(g, rng.choice([0, 5, 10]))
            L = wheel_period(q, profile)
            for X in (0, L - 1, L, L + 1, 2 * L + 1, rng.randint(0, 3 * L)):
                X = min(X, 2 * 10**5)
                for weighted in (False, True):
                    res = _periodic_weyl_sum(g, pt, X, profile, weighted)
                    want = frozen_periodic_weyl_sum(g, pt, X, profile, weighted)
                    assert value_bits(res.value, res.n_terms) == value_bits(*want), (g, pt, X)


class TestPeriodicWeylSum:
    """beta = 0 Weyl sums as exact class weights over one period."""

    @staticmethod
    def cases(seed, count):
        rng = random.Random(seed)
        while count:
            g = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 4))]
                              + [rng.choice([-1, 1]) * rng.randint(1, 20)])
            q = rng.randint(1, 60)
            a = rng.choice([x for x in range(q) if math.gcd(x, q) == 1])
            profile = SieveProfile.build(g, rng.choice([0, 5, 10]))
            L = wheel_period(q, profile)
            if L > 3000:  # keeps the Python-int oracle quick
                continue
            count -= 1
            # X < L leaves c = 0: every residue up to X is a tail term
            for X in (rng.randint(0, L - 1), L, 2 * L - 1, 2 * L, 2 * L + 1, rng.randint(1, 6 * L)):
                yield g, RationalPoint(a, q), X, profile

    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_polynomials_against_brute_force(self, weighted):
        for g, pt, X, profile in self.cases(601 + weighted, 40):
            assert_class_weights(g, pt, X, profile, weighted)

    def test_derivative_changing_sign(self):
        # g' = 3x^2 - 60x + 11 is negative on [1, 19] and positive past it:
        # the Newton-basis weights mix signs within one residue class
        g = parse_poly("x^3-30x^2+11x-7")
        for Y in (0, 5, 10):
            profile = SieveProfile.build(g, Y)
            for q in (1, 7, 12, 60):
                L = wheel_period(q, profile)
                for X in (L, 2 * L - 1, 2 * L, 2 * L + 1, 7 * L + 3):
                    assert_class_weights(g, RationalPoint(1 % q, q), X, profile, True)

    def test_chunks_do_not_change_the_bits(self, monkeypatch):
        # the class weights are exact, so residues taken 37 at a time (a
        # chunk that divides no period) give the sum of one whole chunk
        for weighted in (False, True):
            for g, pt, X, profile in self.cases(605 + weighted, 20):
                whole = _periodic_weyl_sum(g, pt, X, profile, weighted)
                with monkeypatch.context() as m:
                    m.setattr("ilab.expsum.WEYL_CHUNK", 37)
                    assert _periodic_weyl_sum(g, pt, X, profile, weighted) == whole

    @pytest.mark.parametrize(
        "poly, Y, X",
        [("7x^5", 5, 5 * 10**5),  # the class sums reach 2e28
         ("x^3", 10, 2 * 10**6)],  # sum_{n <= X} 3n^2 bound: 2.4e19
    )
    def test_float_weights_past_int64(self, poly, Y, X):
        g, pt = parse_poly(poly), RationalPoint(1, 3)
        profile = SieveProfile.build(g, Y)
        assert _period_weights(g.derivative(), wheel_period(3, profile), X)[1] >= 2**63
        C, n_terms = brute_class_weights(g, pt, X, profile, True)
        want = complex(np.dot(np.array([float(c) for c in C]), _roots(3)))
        res = weyl_sum(g, pt, X, profile, weighted=True)
        assert res.n_terms == n_terms
        assert abs(res.value - want) <= res.est_abs_error

    def test_float_weights_add_without_drift(self):
        # 315888 members of one class (q = 1, a wheel past X): added one
        # after another in float64 the weights drift 1.2e-13 relative, eight
        # times est_abs_error; the class sum is the exact sum of
        # g'(n) = 3n^2 rounded once, within one ulp
        g, X = X3, 2 * 10**6
        profile = SieveProfile.build(g, 30)
        assert profile.wheel > X and _period_weights(g.derivative(), profile.wheel, X)[1] >= 2**63
        n = np.flatnonzero(profile.mask(X + 1)[1:]) + 1
        exact = int(np.sum(3 * n.astype(object) ** 2))
        res = weyl_sum(g, RationalPoint(0, 1), X, profile, weighted=True)
        assert res.n_terms == len(n) and res.value.imag == 0
        assert abs(res.value.real - exact) <= 2.0**-52 * exact

    @pytest.mark.parametrize("X", [0, -5])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_empty_below_one(self, X, beta):
        profile = SieveProfile.build(X2, 10)
        res = weyl_sum(X2, RationalPoint(1, 3), X, profile, weighted=True, beta=beta)
        assert (res.value, res.n_terms) == (0j, 0)

    def test_routes_on_beta_and_q(self):
        # beta = 0 with q <= WEYL_CHUNK sums class weights whatever X and L
        # are; beta != 0 or q past WEYL_CHUNK streams
        profile = SieveProfile.build(X2, 10)  # wheel 420
        routes = [
            (X2, RationalPoint(1, 3), 10**6, profile, 0.0, True),  # X covers L = 420
            (X2, RationalPoint(1, 3), 1000, profile, 0.0, True),  # X < 2L
            (X2, RationalPoint(1, 10007), 10**6, profile, 0.0, True),  # L = 4202940 > X
            (parse_poly("7x^5"), RationalPoint(1, 3), 5 * 10**5,
             SieveProfile.build(parse_poly("7x^5"), 5), 0.0, True),  # float64 weights
            (X2, RationalPoint(1, WEYL_CHUNK), 10**5, None, 0.0, True),
            (X2, RationalPoint(1, WEYL_CHUNK + 3), 6 * 10**5, None, 0.0, False),
            (X2, RationalPoint(1, 3), 10**5, profile, 1e-9, False),
            (X2, RationalPoint(1, 3), 10**5, profile, 0.5, False),
        ]
        for g, pt, X, pr, beta, periodic in routes:
            for weighted in (False, True):
                want = (_periodic_weyl_sum(g, pt, X, pr, weighted) if periodic
                        else _streamed_weyl_sum(g, pt, X, pr, weighted, beta))
                assert weyl_sum(g, pt, X, pr, weighted, beta) == want, (pt, X, beta)


class TestOscillatoryIntegral:
    def test_beta_zero(self):
        assert oscillatory_integral(X2, 0.0, 100) == 10000 + 0j

    def test_quadrature_oracle(self):
        # independent route: midpoint quadrature of int g'(x) e(g(x) beta) dx
        for g, beta, X in ((X2, 0.01, 30), (X3, -0.003, 12), (H2, 0.02, 20)):
            steps = 200000
            xs = (np.arange(steps) + 0.5) * (X / steps)
            dg = g.derivative()
            vals = np.polyval(list(reversed(dg.coeffs)), xs) * np.exp(
                2j * np.pi * beta * np.polyval(list(reversed(g.coeffs)), xs)
            )
            quad = complex(np.sum(vals) * (X / steps))
            closed = oscillatory_integral(g, beta, X)
            assert abs(closed - quad) < 1e-3 * max(1.0, abs(closed))

    def test_vdc_bound(self):
        for beta in (1.0, 2.5, -4.0):
            v = oscillatory_integral(X2, beta, 1000)
            assert abs(v) <= 1 / abs(beta)

    def test_subnormal_beta_tends_to_the_range(self):
        # 1/(2 pi beta) overflows below the smallest normal double; the
        # integral is g(X) - g(0) up to a phase of order beta (g(0) + g(X))
        tiny = sys.float_info.min
        for g, X in ((X2, 1000), (X3, 10**30), (H2, 7)):
            rng = g(X) - g(0)
            for beta in (5e-324, -5e-324, 1e-310, math.nextafter(tiny, 0)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    v = oscillatory_integral(g, beta, X)
                assert v.real == pytest.approx(rng, rel=1e-15)
                assert abs(v.imag) <= 4 * abs(beta) * abs(rng) * (abs(g(0)) + abs(g(X))) + 1e-300
            # continuous with the closed form at the smallest normal beta
            assert oscillatory_integral(g, tiny, X) == pytest.approx(rng, rel=1e-15)


def mpmath_integral(g, beta, X):
    """(e(g(X) beta) - e(g(0) beta)) / (2 pi i beta) in mpmath, at a working
    precision that covers the cancellation in the difference."""
    mpmath = pytest.importorskip("mpmath")
    u0, u1 = g(0), g(X)
    if beta == 0.0:
        return complex(u1 - u0)
    t = Fraction(beta) * (u1 - u0)
    lost = max(0, -math.floor(math.log2(abs(t)))) if t else 0
    with mpmath.workprec(256 + lost + 2 * max(abs(u0), abs(u1)).bit_length()):
        b = mpmath.mpf(beta)  # exact: the double's dyadic rational
        return complex(
            (mpmath.expjpi(2 * b * u1) - mpmath.expjpi(2 * b * u0)) / (2j * mpmath.pi * b)
        )


ORACLE_POLYS = ["x^2", "x^3", "3x^4-2x+5", "-2x^3+7x^2+x-4"]
ORACLE_BETAS = [5e-324, -1e-310, 1e-300, 1e-200, 1e-30, 1e-12, -1e-9, 3e-6, 0.37, 0.5]


class TestOscillatoryIntegralOracle:
    @pytest.mark.parametrize("text", ORACLE_POLYS)
    def test_matches_mpmath_to_the_envelope(self, text):
        # 4 polynomials x 10 betas x 4 ranges; the error is measured against
        # the van der Corput envelope min(|g(X) - g(0)|, 1 / (pi |beta|))
        g = parse_poly(text)
        for beta in ORACLE_BETAS:
            for X in (10, 10**3, 10**5, 10**7):
                env = min(abs(g(X) - g(0)), 1 / (math.pi * abs(Fraction(beta))))
                err = abs(oscillatory_integral(g, beta, X) - mpmath_integral(g, beta, X))
                assert err <= 1e-14 * float(env), (beta, X)

    def test_small_turn_keeps_its_imaginary_part(self):
        # t = beta (g(X) - g(0)) = 1e-9: e(g(X) beta) - e(g(0) beta) cancels
        # to a few digits, the sinc form does not
        v = oscillatory_integral(X3, 1e-12, 10)
        assert v.imag == pytest.approx(mpmath_integral(X3, 1e-12, 10).imag, rel=1e-15)
        assert v.imag == pytest.approx(3.1415926535897932e-06, rel=1e-15)

    def test_no_range_is_zero(self):
        g = parse_poly("x^2-4x")  # g(4) = g(0)
        for beta in (0.0, 5e-324, 0.3):
            assert oscillatory_integral(g, beta, 4) == 0


class TestMajorArc:
    def test_acceptance_shape(self):
        pr = SieveProfile.build(X2, 10)
        for a, q in ((0, 1), (1, 3), (2, 5)):
            lo = major_arc_asymptotic(X2, RationalPoint(a, q), 0.0, 10**3, pr)
            hi = major_arc_asymptotic(X2, RationalPoint(a, q), 0.0, 10**5, pr)
            assert hi.rel_err < lo.rel_err
            assert hi.rel_err <= 0.05
            assert hi.vdc_ok and hi.in_regime

    def test_nonzero_beta(self):
        pr = SieveProfile.build(X2, 5)
        res = major_arc_asymptotic(X2, RationalPoint(1, 3), 1e-9, 10**4, pr)
        assert res.vdc_ok
        assert res.rel_err < 0.05

    def test_regime_accounts_for_beta(self):
        # X = 1000 >= q Y^2 = 300, but beta (g(X) - g(0)) = 100 phase turns
        # ask for X >= 300 * 101; the main term is then off by 1.6e15
        pr = SieveProfile.build(X2, 10)
        res = major_arc_asymptotic(X2, RationalPoint(1, 3), 0.0001, 1000, pr)
        assert not res.in_regime and res.rel_err > 1
        assert major_arc_asymptotic(X2, RationalPoint(1, 3), 0.0, 1000, pr).in_regime
        # 300 (1 + 1e-9 * 10^8) = 330 <= 10^4
        assert major_arc_asymptotic(X2, RationalPoint(1, 3), 1e-9, 10**4, pr).in_regime


class TestMinorAudits:
    def test_weyl_minor(self):
        res = weyl_minor_bound(X2, RationalPoint(1, 9973), 10**4)
        assert res.informative
        assert math.isfinite(res.ratio)
        # actual sum really exhibits cancellation near a large denominator
        assert res.actual_abs < 0.05 * 10**4
        flat = weyl_minor_bound(X2, RationalPoint(0, 1), 100)
        assert not flat.informative

    def test_sieved_minor(self):
        res = sieved_minor_audit(X2, RationalPoint(1, 499), 10**5, 20, 10**3)
        assert math.isfinite(res.ratio)
        assert res.informative
        shallow = sieved_minor_audit(X2, RationalPoint(1, 499), 10**5, 20, 10)
        assert not shallow.informative  # Z <= Y: bound exceeds the trivial estimate

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sieved_minor_audit(X2, RationalPoint(1, 3), 10, 1, 10)

    @pytest.mark.parametrize(
        "g, a, q, X, bound",
        [
            (X2, 1, 9973, 10**4, "0x1.7abdbe3f23c96p+14"),
            (X2, 0, 1, 100, "0x1.cdacea02a3483p+8"),
            (X3, 2, 97, 5000, "0x1.8f1a53dbd1c49p+15"),
            (H2, 3, 7, 20000, "0x1.663be13fc70d6p+17"),
            (X3, 1, 499, 10**5, "0x1.1d502e6f50b52p+20"),
        ],
    )
    def test_weyl_bound_bits(self, g, a, q, X, bound):
        # bit-exact pins: a rewrite of the envelope formulas must keep them
        assert weyl_minor_bound(g, RationalPoint(a, q), X).bound.hex() == bound

    @pytest.mark.parametrize(
        "g, a, q, X, Y, Z, bound",
        [
            (X2, 1, 499, 10**5, 20, 10**3, "0x1.4c26d2bf5ebf2p+28"),
            (X2, 1, 499, 10**5, 20, 10, "0x1.3caadb5929497p+27"),
            (X3, 2, 97, 5000, 5, 50, "0x1.4af1771afd6c6p+21"),
            (H2, 3, 7, 20000, 7, 100, "0x1.a997af7e2f3c5p+22"),
            (X2, 1, 3, 10, 2, 10, "0x1.af5b4f5483dfep+2"),
        ],
    )
    def test_sieved_bound_bits(self, g, a, q, X, Y, Z, bound):
        assert sieved_minor_audit(g, RationalPoint(a, q), X, Y, Z).bound.hex() == bound


def moment_histogram(g, L, profile):
    """(F, w): the g'-weighted histogram of g(n) mod L over the sieved
    n <= M, and the sieve density w."""
    M = integer_nth_root(L // (3 * g.leading), g.degree)
    F = np.zeros(L, dtype=np.float64)
    dg = g.derivative()
    n = np.flatnonzero(profile.mask(M + 1)[1:]) + 1
    weights = np.array([dg(t) for t in n.tolist()], dtype=np.float64)
    np.add.at(F, values_mod(g, n, L), weights)
    return F, float(profile.density())


def reference_moment_sum(g, L, m, profile):
    """The explicit full-spectrum sum: the rfft mirrored to all of Z_L by
    S(L - t) = conj S(t), |S(t)|^m at every t, summed as t = 0, then the
    lower interior 0 < t < L/2 plus the upper one L/2 < t < L (read from
    L - 1 down, so each term meets its mirror), then t = L/2 for even L."""
    F, w = moment_histogram(g, L, profile)
    half = np.fft.rfft(F) / (w * L)
    S = np.concatenate([half, np.conj(half[1 : L - len(half) + 1][::-1])])
    p = (S.real * S.real + S.imag * S.imag) ** (m // 2)
    mid = (L + 1) // 2
    total = p[0] + (np.sum(p[1:mid]) + np.sum(p[L - 1 : L - mid : -1]))
    if L % 2 == 0:
        total += p[L // 2]
    return float(total)


def complex_moment_sum(g, L, m, profile):
    """Oracle: the complex FFT of the histogram over all L frequencies, which
    rounds differently from the rfft."""
    F, w = moment_histogram(g, L, profile)
    S = np.fft.fft(F.astype(np.complex128)) / (w * L)
    return float(np.sum(np.abs(S) ** m))


class TestMomentSum:
    @pytest.mark.parametrize("L", [7, 10**3, 10**5 + 3, 10**6])
    @pytest.mark.parametrize("g", [X2, H2], ids=["x^2", "2x^2-5x+3"])
    def test_bit_identical_to_out_of_place(self, g, L):
        pr = SieveProfile.build(g, 10)
        for m in (2, 4, 6):
            got = moment_sum(g, L, m, pr)
            assert got.hex() == reference_moment_sum(g, L, m, pr).hex(), m

    @pytest.mark.parametrize("L", [1, 2, 7, 10**3, 10**5 + 3, 10**6])
    @pytest.mark.parametrize("g", [X2, H2], ids=["x^2", "2x^2-5x+3"])
    def test_complex_fft_oracle(self, g, L):
        pr = SieveProfile.build(g, 10)
        for m in (2, 4, 6):
            got, want = moment_sum(g, L, m, pr), complex_moment_sum(g, L, m, pr)
            assert abs(got - want) <= 64 * 2.0**-52 * want, m

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_bounded_memory(self):
        # with numpy 2.4 the complex transform of a complex histogram (not in
        # place) peaked near 123 MB, the rfft of the float histogram near
        # 83 MB.  The child reads its own VmHWM, as in TestStreamedWeylSum
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = (
            "import os\n"
            "from ilab.cli import main\n"
            "argv = ['expsum', 'moment', '--poly', 'x^2', '--L', '2000000', '--m', '6', '--Y', '10']\n"
            "assert main(['--output', os.devnull, *argv]) == 0\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(status.split()[0])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) / 1024 < 100  # VmHWM is in kB

    def test_single_term(self):
        # L in [3, 11] forces M = 1: the sum collapses to L * (g'(1)/(w L))^m
        pr = SieveProfile.build(X2, 2)
        L = 10
        w = float(pr.density())
        got = moment_sum(X2, L, 4, pr)
        assert got == pytest.approx(L * (2 / (w * L)) ** 4, rel=1e-9)

    def test_plancherel_m2(self):
        pr = SieveProfile.build(X2, 10)
        L = 30000
        M = math.isqrt(L // 3)
        w = float(pr.density())
        direct = sum(
            (2 * n) ** 2
            for n in range(1, M + 1)
            if all(n % p**g not in roots for p, (g, _, roots) in pr.table.items())
        ) / (w * w * L)
        got = moment_sum(X2, L, 2, pr)
        assert got == pytest.approx(direct, rel=1e-6)

    def test_m6_bounded_and_stable(self):
        # the high moment stays bounded as L grows (m = 6 > k^2 + k = 6 edge);
        # boundary effects die off, so the last two values agree within 2x
        pr = SieveProfile.build(X2, 10)
        values = [moment_sum(X2, 3 * 10**e, 6, pr) for e in (3, 4, 5)]
        assert all(v < 10 for v in values)
        assert values[2] < 2 * values[1] and values[1] < 2 * values[2]

    def test_rejects_odd_m(self):
        with pytest.raises(ValueError):
            moment_sum(X2, 100, 3, SieveProfile.build(X2, 5))
