"""Derivative-root sieve: gamma/j tables, membership, exact counting, and the
Brun main-term comparison."""

import math
import random

import pytest

from ilab.poly import IntPolynomial, parse_poly
from ilab.sieve import (
    SieveProfile,
    brun_compare,
    enumerate_w,
    gamma_j,
    is_identically_zero_mod,
    product_lower_check,
)

X2 = parse_poly("x^2")
X3 = parse_poly("x^3")


def random_profile(rng):
    k = rng.randint(2, 4)
    cs = [rng.randint(-12, 12) for _ in range(k)] + [rng.choice([1, 2, 3])]
    g = IntPolynomial(cs)
    Y = rng.choice([3, 5, 7, 10, 12])
    return SieveProfile.build(g, Y)


class TestGammaJ:
    def test_examples(self):
        assert gamma_j(X3, 3) == (2, 3, (0, 3, 6))
        assert gamma_j(X3, 2) == (1, 1, (0,))
        assert gamma_j(X2, 5) == (1, 1, (0,))
        assert gamma_j(X2, 2) == (2, 2, (0, 2))

    def test_functional_vanishing(self):
        # x^2 + x vanishes identically mod 2 without zero coefficients
        assert is_identically_zero_mod(parse_poly("x^2+x"), 2)
        assert not is_identically_zero_mod(parse_poly("x^2+x"), 4)
        g = parse_poly("x^3+2x")  # g' = 3x^2 + 2, never identically zero mod 3
        assert gamma_j(g, 3)[0] == 1

    def test_idzero_divisibility(self):
        # p^(gamma-1) must divide k! * gcd of the derivative coefficients
        rng = random.Random(400)
        for _ in range(60):
            profile = random_profile(rng)
            dg = profile.g.derivative()
            gcd_all = math.gcd(*dg.coeffs)
            k = profile.g.degree
            cap = math.factorial(k) * gcd_all
            for p, (gamma, j, roots) in profile.table.items():
                assert cap % p ** (gamma - 1) == 0
                if gamma == 1:
                    assert j <= k - 1
                assert j == len(roots)


class TestMembership:
    def test_w_member_examples(self):
        pr = SieveProfile.build(X2, 10)
        # 7 is sieved out by p = 7 itself (2*7 = 0 mod 7); 11 survives
        assert not pr.member(7)
        assert pr.member(11)
        assert not pr.member(6)
        pr3 = SieveProfile.build(X3, 3)
        assert not pr3.member(4)  # 3*16 = 0 mod 2 at the root class 0

    def test_wq_member_examples(self):
        pr = SieveProfile.build(X2, 10)
        assert pr.member(5, 1)  # empty condition
        assert pr.member(1, 4)
        assert not pr.member(2, 4)
        assert not pr.member(0, 3)

    def test_periodicity(self):
        rng = random.Random(401)
        for _ in range(20):
            profile = random_profile(rng)
            M = profile.modulus
            for _ in range(50):
                n = rng.randint(1, 10**6)
                assert profile.member(n) == profile.member(n + M)

    def test_mask_matches_member(self):
        # the strided mask against the scalar test, index 0 included
        rng = random.Random(403)
        for _ in range(40):
            profile = random_profile(rng)
            moduli = [p**gamma for p, (gamma, j, _) in profile.table.items() if j]
            qs = [None, rng.randint(1, 10**4)]
            if moduli:
                qs.append(rng.choice(moduli) * rng.randint(1, 12))
            # a q divisible by no p^gamma of the table
            qs.append(next(q for q in range(13, 10**4) if all(q % m for m in moduli)))
            n = rng.randint(1, 2000)
            for q in qs:
                mask = profile.mask(n, q)
                assert len(mask) == n
                assert mask.tolist() == [profile.member(i, q) for i in range(n)]

    def test_range_mask_is_a_slice(self):
        # mask(n, q, lo) covers lo..lo+n-1: a slice of the mask from 0
        rng = random.Random(404)
        for _ in range(40):
            profile = random_profile(rng)
            q = rng.choice([None, None, profile.modulus, rng.randint(1, 10**4)])
            lo = rng.choice([0, 1, rng.randint(2, 10**5)])
            n = rng.choice([0, 1, rng.randint(2, 3000)])
            got = profile.mask(n, q, lo=lo)
            assert got.tolist() == profile.mask(lo + n, q)[lo:].tolist()

    def test_mask_index_zero(self):
        pr = SieveProfile.build(X2, 10)
        assert not pr.mask(5)[0] and not pr.member(0)  # g'(0) = 0 at every p
        g = parse_poly("x^2+x")  # g'(0) = 1 avoids every root class
        pr = SieveProfile.build(g, 10)
        assert pr.mask(5)[0] and pr.member(0)
        assert SieveProfile.build(X2, 1.5).mask(3).all()


class TestCounting:
    def test_examples(self):
        pr3 = SieveProfile.build(X2, 3)
        count, members = enumerate_w(pr3, 12, want_list=True)
        assert count == 4 and members == [1, 5, 7, 11]
        empty = SieveProfile.build(X2, 1.5)
        assert empty.table == {}
        assert enumerate_w(empty, 100)[0] == 100

    def test_x3_profile_brute(self):
        pr = SieveProfile.build(X3, 3)
        brute = sum(1 for n in range(1, 21) if pr.member(n))
        assert enumerate_w(pr, 20)[0] == brute

    def test_inclusion_exclusion_equals_scan(self):
        rng = random.Random(402)
        for _ in range(25):
            profile = random_profile(rng)
            X = rng.randint(1, 10**5)
            count, members = enumerate_w(profile, X, want_list=True)
            assert count == len(members)
            sample = rng.sample(members, min(20, len(members))) if members else []
            assert all(profile.member(n) for n in sample)

    @pytest.mark.parametrize("X", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize("poly", ["x^2", "x^3", "(x^3-19)(x^2+x+1)"])
    def test_pruned_count_equals_mask(self, poly, X):
        # Y up to 60 puts the CRT modulus past X after a few primes, so the
        # pruned branch decides most of the count; the mask is the oracle
        for Y in (10, 30, 60):
            profile = SieveProfile.build(parse_poly(poly), Y)
            assert enumerate_w(profile, X)[0] == int(profile.mask(X + 1)[1:].sum())

    def test_count_monotone_and_periodic_exact(self):
        profile = SieveProfile.build(X2, 5)
        M = profile.modulus
        per_period = enumerate_w(profile, M)[0]
        for mult in (2, 3, 7):
            assert enumerate_w(profile, mult * M)[0] == mult * per_period


class TestBrun:
    def test_exact_at_period_multiple(self):
        pr3 = SieveProfile.build(X2, 3)
        cmp = brun_compare(pr3, 12)
        assert cmp.exact == 4 and cmp.main == 4.0 and cmp.relative_error == 0.0

    def test_empty_profile(self):
        pr = SieveProfile.build(X2, 1.0)
        cmp = brun_compare(pr, 500)
        assert cmp.exact == 500 and cmp.main == 500.0

    def test_million(self):
        pr = SieveProfile.build(X2, 10)
        cmp = brun_compare(pr, 10**6)
        assert cmp.relative_error <= 1e-3
        assert cmp.in_regime

    def test_regime_flag(self):
        pr = SieveProfile.build(X2, 10)
        assert not brun_compare(pr, 50).in_regime


class TestProductLower:
    def test_y2(self):
        product, floor_value = product_lower_check(SieveProfile.build(X2, 2))
        assert product == 0.5
        assert abs(floor_value - 1 / math.log(2)) < 1e-12

    def test_ratio_positive_and_stable(self):
        ratios = []
        for Y in (10, 100, 1000):
            product, floor_value = product_lower_check(SieveProfile.build(X2, Y))
            assert product > 0
            ratios.append(product / floor_value)
        # degree-2 sieve density decays like 1/log Y, matching the floor shape
        assert all(r > 0.3 for r in ratios)

    def test_rejects_small_Y(self):
        with pytest.raises(ValueError):
            product_lower_check(SieveProfile.build(X2, 1.0))
