"""Auxiliary families: lambda, r_d, h_d, the content-bound audit, image sets,
and the inheritance identity h_d(s + qn) = lambda(q) h_{qd}(n)."""

import random
from fractions import Fraction

import pytest

import ilab.auxiliary as auxiliary
from ilab.auxiliary import AuxiliaryFamily, content_bound_audit, image_elements
from ilab.padic import ResourceLimit, RootCert, roots_mod
from ilab.poly import IntPolynomial, parse_poly

X2 = parse_poly("x^2")
G12 = parse_poly("(x-1)(x-2)")
QUINTIC = parse_poly("(x^3-19)(x^2+x+1)")


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
        assert r9 % 9 in roots_mod(QUINTIC, 9)

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


class TestImageElements:
    def test_examples(self):
        assert image_elements(X2, 20) == [1, 4, 9, 16]
        assert image_elements(IntPolynomial((0, 0, -1)), 20) == [1, 4, 9, 16]
        assert image_elements(parse_poly("2x^2-5x+3"), 30) == [1, 6, 15, 28]

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
            assert image_elements(p, bound) == direct

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            image_elements(IntPolynomial((3,)), 10)

    def test_enumeration_guard_is_inclusive(self, monkeypatch):
        # x - 50 at bound 49 walks n = 1 .. 49 + 50 + 2 = 101
        monkeypatch.setattr(auxiliary, "IMAGE_LIMIT", 101)
        assert image_elements(parse_poly("x-50"), 49) == list(range(1, 50))
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
