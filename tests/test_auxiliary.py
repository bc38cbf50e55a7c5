"""Auxiliary families: lambda, r_d, h_d, the content-bound audit against a
walk over every d, image sets, and the inheritance identity
h_d(s + qn) = lambda(q) h_{qd}(n)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ilab.auxiliary as auxiliary
from ilab.arith import factorize, primes_up_to
from ilab.auxiliary import (
    AuxiliaryFamily,
    ContentAuditReport,
    content_bound_audit,
    image_cutoff,
    image_elements,
)
from ilab.padic import NoRootToDepth, ResourceLimit, RootCert, roots_mod
from ilab.poly import IntPolynomial, content, parse_poly

X2 = parse_poly("x^2")
G12 = parse_poly("(x-1)(x-2)")
QUINTIC = parse_poly("(x^3-19)(x^2+x+1)")
SEXTIC = parse_poly("(x^2-13)*(x^2-17)*(x^2-221)")


def per_d_audit(fam: AuxiliaryFamily, d_max: int) -> ContentAuditReport:
    """The content audit as a walk over every d <= d_max, building each h_d
    (the reference for the local table and multiplicative sweep)."""
    base = fam.base
    k = base.degree
    disc = auxiliary.discriminant_abs(base)
    ch = content(base)
    rhs_sq = disc ** (k - 1) * ch * ch
    try:
        root = rhs_sq**0.5
    except OverflowError:  # past the float range: its integer square root
        root = math.isqrt(rhs_sq)
    max_c, argmax, max_ratio, certified = 0, 1, 0.0, 0
    for d in range(1, d_max + 1):
        if d > certified:
            certified = min(d * d, d_max)
            fam.certify(primes_up_to(certified))
        c = content(fam.aux_poly(d))
        if c * c > rhs_sq:
            raise ArithmeticError(
                f"content bound violated at d={d}: cont={c}, bound^2={rhs_sq}"
            )
        ratio = c / root
        if c > max_c:
            max_c, argmax = c, d
        max_ratio = max(max_ratio, ratio)
    return ContentAuditReport(d_max, disc, ch, max_c, argmax, max_ratio)


def audit_outcome(audit, fam: AuxiliaryFamily, d_max: int):
    """The audit's report, or the type and message of what it raises."""
    try:
        return audit(fam, d_max)
    except Exception as exc:
        return type(exc), str(exc)


def family_z1(depth: int = 8) -> AuxiliaryFamily:
    """(x-1)(x-2) family with the pinned choice z_p = 1 at every prime."""
    fam = AuxiliaryFamily(G12, depth=depth)
    fam.cert = lambda p, _d=depth: RootCert(  # type: ignore[method-assign]
        p, j=_d, z=1, m=1, v=0, factor=G12, exact_root=Fraction(1)
    )
    return fam


class TestLambda:
    def test_examples(self):
        fam = AuxiliaryFamily(X2)
        assert fam.lam(12) == 144  # m = 2 everywhere, lambda(d) = d^2
        assert fam.lam(1) == 1
        assert AuxiliaryFamily(G12).lam(30) == 30  # all roots simple

    def test_completely_multiplicative(self):
        rng = random.Random(300)
        fam = AuxiliaryFamily(QUINTIC)
        for _ in range(80):
            d1 = rng.randint(1, 300)
            d2 = rng.randint(1, 300)
            assert fam.lam(d1 * d2) == fam.lam(d1) * fam.lam(d2)


class TestRd:
    def test_examples(self):
        assert AuxiliaryFamily(X2).r_of(7) == 0
        assert family_z1().r_of(6) == -5  # forced by CRT with z_p = 1
        fam = AuxiliaryFamily(QUINTIC)
        r9 = fam.r_of(9)
        assert -9 < r9 <= 0
        assert r9 % 9 in roots_mod(QUINTIC, [9])[9]

    def test_divisibility(self):
        rng = random.Random(301)
        for fam in (AuxiliaryFamily(X2), family_z1(), AuxiliaryFamily(QUINTIC)):
            for _ in range(40):
                d = rng.randint(1, 400)
                r = fam.r_of(d)
                assert -d < r <= 0
                assert fam.base(r) % d == 0

    def test_congruence_r_qd_r_d(self):
        # the inheritance proof's congruence r_{qd} = r_d mod d
        for fam in (AuxiliaryFamily(QUINTIC), family_z1()):
            for d in range(1, 26):
                for q in range(1, 26):
                    assert (fam.r_of(q * d) - fam.r_of(d)) % d == 0


class TestAuxPoly:
    def test_examples(self):
        assert AuxiliaryFamily(X2).aux_poly(3) == X2
        assert family_z1().aux_poly(2) == parse_poly("2x^2-5x+3")
        h5 = AuxiliaryFamily(QUINTIC).aux_poly(5)
        assert h5.leading == 5**5 // AuxiliaryFamily(QUINTIC).lam(5)

    def test_x2_family_closed_form(self):
        fam = AuxiliaryFamily(X2)
        for d in range(1, 101):
            assert fam.aux_poly(d) == X2

    def test_d1_is_base(self):
        for base in (X2, G12, QUINTIC):
            fam = AuxiliaryFamily(base)
            assert fam.r_of(1) == 0
            assert fam.lam(1) == 1
            assert fam.aux_poly(1) == base

    def test_leading_identity(self):
        fam = AuxiliaryFamily(QUINTIC)
        k = QUINTIC.degree
        for d in list(range(1, 60)) + [128, 360, 729, 1000]:
            assert fam.aux_poly(d).leading * fam.lam(d) == d**k * QUINTIC.leading


class TestContentAudit:
    def test_x2(self):
        rep = content_bound_audit(AuxiliaryFamily(X2), 100)
        assert rep.max_content == 1 and rep.disc_abs == 1

    def test_g12(self):
        rep = content_bound_audit(family_z1(), 100)
        assert rep.disc_abs == 1 and rep.max_content == 1

    def test_quintic(self):
        rep = content_bound_audit(AuxiliaryFamily(QUINTIC), 200)
        assert rep.d_max == 200
        assert rep.disc_abs == 3069603216

    def test_rejects_linear(self):
        with pytest.raises(ValueError):
            content_bound_audit(AuxiliaryFamily(parse_poly("0,2")), 10)

    @pytest.mark.parametrize(
        "poly, depth",
        [("(x^3-19)(x^2+x+1)", 8), ("(x^2-13)*(x^2-17)*(x^2-221)", 12), ("x^2", 8),
         ("x^3", 8), ("(x-1)(x-2)", 8), ("(x-1)^2*(x^2+x+1)^3", 8)],
        ids=["quintic", "sextic-depth12", "x2", "x3", "g12", "repeated-roots"],
    )
    def test_matches_the_per_d_walk(self, poly, depth):
        h = parse_poly(poly)
        for d_max in (0, 1, 2, 97, 5000):
            rep = content_bound_audit(AuxiliaryFamily(h, depth), d_max)
            assert rep == per_d_audit(AuxiliaryFamily(h, depth), d_max)

    @pytest.mark.parametrize(
        "poly, depth",
        [("(x^3-19)(x^2+x+1)", 8), ("(x^2-13)*(x^2-17)*(x^2-221)", 12),
         ("(x-1)^2*(x^2+x+1)^3", 8), ("x(x-6)", 8)],
        ids=["quintic", "sextic-depth12", "repeated-roots", "x(x-6)"],
    )
    def test_content_is_multiplicative_and_growth_bounded(self, poly, depth):
        # cont(h_d) = cont(h) prod_{p^e || d} cont(h_{p^e}) / cont(h), and
        # |coefficient of h_d| lambda(d) <= 2^k d^k max|a_i|, at every d <= 5000
        h = parse_poly(poly)
        fam = AuxiliaryFamily(h, depth)
        fam.certify(primes_up_to(5000))
        ch, k, height = content(h), h.degree, max(abs(c) for c in h.coeffs)
        local = {}
        for d in range(1, 5001):
            hd = fam.aux_poly(d)
            parts = factorize(d)
            if len(parts) == 1:
                local[d] = content(hd)
            assert content(hd) == ch * math.prod(Fraction(local[p**e], ch) for p, e in parts)
            assert -d < fam.r_of(d) <= 0
            lam = fam.lam(d)
            assert all(abs(c) * lam <= 2**k * d**k * height for c in hd.coeffs)

    def test_sextic_without_depth_fails_at_d2(self):
        # the certificate at p = 2 needs precision 11, past the default 8
        message = "no certifiable root of x^6-251x^4+6851x^2-48841 at p=2 within depth 8"
        assert content_bound_audit(AuxiliaryFamily(SEXTIC), 1).max_content == 1
        for audit in (content_bound_audit, per_d_audit):
            for d_max in (2, 200):
                outcome = audit_outcome(audit, AuxiliaryFamily(SEXTIC), d_max)
                assert outcome == (NoRootToDepth, message)

    @pytest.mark.parametrize("fail_at, raised", [
        (7, (ArithmeticError, "content bound violated at d=6: cont=6, bound^2=16")),
        (5, (ArithmeticError, "planted failure at d=5")),
        (4, (ArithmeticError, "planted failure at d=4")),
    ])
    def test_the_earlier_of_a_composite_violation_and_a_prime_power_failure(
        self, monkeypatch, fail_at, raised
    ):
        # x(x-6) has cont(h_2) = 2 and cont(h_3) = 3, so cont(h_6) = 6; with
        # |Delta| read as 16 the bound is 4, first broken at the composite d = 6
        monkeypatch.setattr(auxiliary, "discriminant_abs", lambda base: 16)

        def family():
            fam = AuxiliaryFamily(parse_poly("x(x-6)"))
            real = fam.aux_poly

            def aux_poly(d):
                if d % fail_at == 0:
                    raise ArithmeticError(f"planted failure at d={d}")
                return real(d)

            fam.aux_poly = aux_poly
            return fam

        for audit in (content_bound_audit, per_d_audit):
            assert audit_outcome(audit, family(), 12) == raised

    def test_audit_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(auxiliary, "AUDIT_D_LIMIT", 50)
        assert content_bound_audit(AuxiliaryFamily(QUINTIC), 50).d_max == 50
        with pytest.raises(ResourceLimit, match="capped at d_max <= 50, got 51"):
            content_bound_audit(AuxiliaryFamily(QUINTIC), 51)


def per_n_image(p, bound):
    """image_elements as it ran before its chunked evaluation: one
    IntPolynomial call and one set insert per n."""
    cutoff = image_cutoff(p, bound)
    q = p if p.leading > 0 else -p
    out = set()
    for n in range(1, cutoff + 1):
        v = q(n)
        if 0 < v <= bound:
            out.add(v)
    return sorted(out)


class TestImageElements:
    def test_examples(self):
        assert image_elements(X2, 20).tolist() == [1, 4, 9, 16]
        assert image_elements(IntPolynomial((0, 0, -1)), 20).tolist() == [1, 4, 9, 16]
        assert image_elements(parse_poly("2x^2-5x+3"), 30).tolist() == [1, 6, 15, 28]

    def test_matches_direct_scan(self):
        rng = random.Random(302)
        for _ in range(80):
            k = rng.randint(1, 3)
            cs = [rng.randint(-10, 10) for _ in range(k)] + [
                rng.choice([-3, -2, -1, 1, 2, 3])
            ]
            p = IntPolynomial(cs)
            bound = rng.randint(1, 400)
            sign = 1 if p.leading > 0 else -1
            direct = sorted(
                {
                    sign * p(n)
                    for n in range(1, 800)
                    if 0 < sign * p(n) <= bound
                }
            )
            assert image_elements(p, bound).tolist() == direct

    def test_matches_the_per_n_loop_across_chunk_edges(self, monkeypatch):
        # chunks of 7 put chunk edges inside every cutoff below; bound < 1 has cutoff 0
        monkeypatch.setattr(auxiliary, "SCAN_BLOCK", 7)
        fixed = [parse_poly(t) for t in ("x^2-5x+7", "-x^2+5x-7", "x^2", "x-3", "-2x^4+x^3+9")]
        for p in fixed:
            for bound in range(-2, 200):
                got = image_elements(p, bound)
                assert got.dtype == np.int64 and got.tolist() == per_n_image(p, bound), (p, bound)
        rng = random.Random(304)
        for _ in range(200):
            k = rng.randint(1, 4)
            p = IntPolynomial([rng.randint(-30, 30) for _ in range(k)]
                              + [rng.choice([-3, -2, -1, 1, 2, 3])])
            for bound in (0, rng.randint(1, 60), rng.randint(1, 3000)):
                assert image_elements(p, bound).tolist() == per_n_image(p, bound), (p, bound)

    def test_matches_the_per_n_loop_at_the_block_edge(self):
        # cutoffs from SCAN_BLOCK - 3 to SCAN_BLOCK + 2
        block = auxiliary.SCAN_BLOCK
        cases = [(parse_poly("x-3"), block - 8 + i) for i in range(6)]
        cases += [(parse_poly("-x^2+5x-7"), (block - 17 + i) ** 2) for i in range(6)]
        for p, bound in cases:
            assert image_cutoff(p, bound) in range(block - 3, block + 3)
            assert image_elements(p, bound).tolist() == per_n_image(p, bound), (p, bound)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            image_elements(IntPolynomial((3,)), 10)

    def test_enumeration_guard_is_inclusive(self, monkeypatch):
        # x - 50 at bound 49 walks n = 1 .. 49 + 50 + 2 = 101
        monkeypatch.setattr(auxiliary, "IMAGE_LIMIT", 101)
        assert image_elements(parse_poly("x-50"), 49).tolist() == list(range(1, 50))
        monkeypatch.setattr(auxiliary, "IMAGE_LIMIT", 100)
        with pytest.raises(ResourceLimit, match="capped at 100 values of n, got 101"):
            image_elements(parse_poly("x-50"), 49)


class TestInheritance:
    def test_planted_instance(self):
        # plant A' = {1, 1 + h_{qd}(n)} inside A via x, lambda(q); the proof's
        # identity h_d(s + qn) = lambda(q) h_{qd}(n) forces the difference
        fam = AuxiliaryFamily(QUINTIC)
        for q, d in ((2, 1), (3, 2), (2, 3)):
            lam_q = fam.lam(q)
            hqd = fam.aux_poly(q * d)
            n = next(n for n in range(1, 10) if hqd(n) > 0)
            val = hqd(n)
            # the proof's identity: h_d(s + q n) = lambda(q) h_{qd}(n)
            s = (fam.r_of(q * d) - fam.r_of(d)) // d
            assert fam.aux_poly(d)(s + q * n) == lam_q * val
            x = 5
            A = {x + lam_q * 1, x + lam_q * (1 + val)}
            bound = val + 1
            # A' really does have the difference in I(h_qd)
            A_prime = sorted(a for a in range(1, 3 + val) if x + lam_q * a in A)
            assert A_prime == [1, 1 + val]
            assert val in image_elements(hqd, bound)
            # and A has the predicted difference lambda(q) * h_{qd}(n)
            assert max(A) - min(A) == lam_q * val
            assert lam_q * val in image_elements(fam.aux_poly(d), lam_q * bound)

    def test_randomized(self):
        # the identity at random (q, d, n), with r_{qd} = r_d mod d
        rng = random.Random(303)
        for fam in (AuxiliaryFamily(G12), AuxiliaryFamily(X2), AuxiliaryFamily(QUINTIC)):
            for _ in range(100):
                q = rng.randint(1, 12)
                d = rng.randint(1, 12)
                n = rng.randint(-50, 50)
                s, rem = divmod(fam.r_of(q * d) - fam.r_of(d), d)
                assert rem == 0
                assert fam.aux_poly(d)(s + q * n) == fam.lam(q) * fam.aux_poly(q * d)(n)
