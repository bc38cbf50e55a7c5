"""Sieved exponential sums: complete sums, CRT splitting, cancellation
audits, Weyl sums with exact phases, the major-arc asymptotic, minor-arc
ratio audits, and moment sums."""

import cmath
import math
import os
import random
import subprocess
import sys
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
    frac_mul_exact,
    major_arc_asymptotic,
    moment_sum,
    oscillatory_integral,
    pairwise_sum,
    sieved_minor_audit,
    sqrt_cancel_audit,
    weyl_minor_bound,
    weyl_sum,
)
from ilab.arith import floor_nth_root_fraction
from ilab.padic import values_mod
from ilab.poly import parse_poly
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

    def test_omega(self):
        assert RationalPoint(1, 12).omega_q == 2
        assert RationalPoint(0, 1).omega_q == 0


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
        from ilab.arith import factorize

        for row in rows:
            q = row["q"]
            if q < 2:
                continue
            fac = factorize(q)
            squarefree = all(e == 1 for _, e in fac)
            gammas_one = all(p in pr.table and pr.table[p][0] == 1 for p, _ in fac)
            if squarefree and gammas_one:
                assert row["ratio_sqrt"] <= k ** row["omega_q"] + 1e-9

    def test_prime_square_vanishes(self):
        rows, _ = sqrt_cancel_audit(X2, 50, 50, seed=3)
        for row in rows:
            if row["q"] in (9, 25, 49):
                assert row["abs_sum"] < 1e-9


class TestWeylSum:
    def test_alpha_zero(self):
        assert weyl_sum(X2, 0.0, 100).value == pytest.approx(100 + 0j)

    def test_quarter_four_terms(self):
        res = weyl_sum(X2, Fraction(1, 4), 4)
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
            got = weyl_sum(g, Fraction(a, q), X).value
            assert abs(got - expected) < 1e-9 * X

    def test_exact_dyadic_phase(self):
        rng = random.Random(505)
        for _ in range(100):
            n = rng.randint(1, 10**18)
            alpha = rng.random()
            f = frac_mul_exact(n, alpha)
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
        got = weyl_sum(X2, Fraction(1, 3), X, profile=pr, weighted=True).value
        assert abs(got - direct) < 1e-9 * X * X

    def test_pairwise_sum_matches(self):
        rng = np.random.default_rng(506)
        vals = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        assert pairwise_sum(vals, block=64) == pytest.approx(complex(np.sum(vals)))

    def test_resource_guard(self):
        with pytest.raises(ResourceLimit):
            weyl_sum(X2, 0.0, 10**8 + 1)


def materialized_weyl_sum(g, alpha, X, profile=None, weighted=False):
    """Reference: every term of [1, X] held at once, then one pairwise_sum."""
    rat, beta = (alpha, 0.0) if isinstance(alpha, Fraction) else alpha
    n = np.arange(1, X + 1, dtype=np.int64)
    if profile is not None:
        n = n[profile.mask(X + 1)[1:]]
    q = rat.denominator
    a = rat.numerator % q
    if q <= 10**6:
        idx = (values_mod(g, n, q) * a) % q
    else:
        idx = np.array([g.eval_mod(int(t), q) * a % q for t in n.tolist()])
    phases = idx.astype(np.float64) / q
    if beta != 0.0:
        num, den = beta.as_integer_ratio()
        phases = phases + np.array(
            [((g(int(t)) * num) % den) / den for t in n.tolist()], dtype=np.float64
        )
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
        res = weyl_sum(g, alpha, X, profile, weighted=weighted)
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
            ((Fraction(5, 10**6 + 3), 0.0), True, False),  # exact big-int phases
        ],
    )
    def test_slow_phase_paths(self, alpha, sieved, weighted):
        profile = self.PROFILE if sieved else None
        self.assert_identical(X3, alpha, WEYL_CHUNK + 4099, profile, weighted)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_bounded_memory(self):
        # holding all 2e7 terms at once peaks near 350 MB.  The child reads its
        # own VmHWM: ru_maxrss would carry over the peak of this test process,
        # which a child inherits through fork and exec
        code = (
            "from fractions import Fraction\n"
            "from ilab.expsum import weyl_sum\n"
            "from ilab.poly import parse_poly\n"
            "from ilab.sieve import SieveProfile\n"
            "g = parse_poly('x^2')\n"
            "weyl_sum(g, (Fraction(1, 3), 0.0), 2 * 10**7, SieveProfile.build(g, 10), weighted=True)\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(status.split()[0])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) / 1024 < 150  # VmHWM is in kB


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


def reference_moment_sum(g, L, m, profile):
    """moment_sum transforming a float histogram out of place, with a
    conjugate, a scaled copy and two float copies: the reference for the
    in-place complex transform."""
    M = floor_nth_root_fraction(Fraction(L, 3 * g.leading), g.degree)
    w = float(profile.density())
    F = np.zeros(L, dtype=np.float64)
    dg = g.derivative()
    n = np.flatnonzero(profile.mask(M + 1)[1:]) + 1
    weights = np.array([dg(t) for t in n.tolist()], dtype=np.float64)
    np.add.at(F, values_mod(g, n, L), weights)
    S = np.conj(np.fft.fft(F)) / (w * L)
    p2 = np.abs(S) ** 2
    return float(np.sum(p2 ** (m // 2)))


class TestMomentSum:
    @pytest.mark.parametrize("L", [7, 10**3, 10**5 + 3, 10**6])
    @pytest.mark.parametrize("g", [X2, H2], ids=["x^2", "2x^2-5x+3"])
    def test_bit_identical_to_out_of_place(self, g, L):
        pr = SieveProfile.build(g, 10)
        for m in (2, 4, 6):
            got = moment_sum(g, L, m, pr)
            assert got.hex() == reference_moment_sum(g, L, m, pr).hex(), m

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
