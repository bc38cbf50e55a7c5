"""Derivative-root sieve: gamma/j tables, membership, exact counting, and the
Brun main-term comparison."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from ilab.arith import primes_up_to, v_p
import ilab.padic as padic
from ilab.padic import ResourceLimit
from ilab.poly import IntPolynomial, parse_poly
import ilab.sieve as sieve
from ilab.sieve import (
    MODULUS_DIGITS,
    SieveProfile,
    brun_compare,
    enumerate_w,
)

X2 = parse_poly("x^2")
X3 = parse_poly("x^3")


def random_profile(rng):
    k = rng.randint(2, 4)
    cs = [rng.randint(-12, 12) for _ in range(k)] + [rng.choice([1, 2, 3])]
    g = IntPolynomial(cs)
    Y = rng.choice([3, 5, 7, 10, 12])
    return SieveProfile.build(g, Y)


def gamma_row(g, p):
    """(gamma, j, roots) at p from the profile's table."""
    return SieveProfile.build(g, p).table[p]


class TestGammaJ:
    def test_examples(self):
        assert gamma_row(X3, 3) == (2, 3, (0, 3, 6))
        assert gamma_row(X3, 2) == (1, 1, (0,))
        assert gamma_row(X2, 5) == (1, 1, (0,))
        assert gamma_row(X2, 2) == (2, 2, (0, 2))

    def test_functional_vanishing(self):
        # (x^4 + x^2)' = 4x^3 + 2x = x^3 - x mod 3 vanishes identically mod 3
        # with coefficients prime to 3, but not mod 9
        assert gamma_row(parse_poly("x^4+x^2"), 3)[0] == 2
        g = parse_poly("x^3+2x")  # g' = 3x^2 + 2, never identically zero mod 3
        assert gamma_row(g, 3)[0] == 1

    def test_degree_below_two_needs_a_prime_to_fail(self):
        with pytest.raises(ValueError, match="the sieve needs degree >= 2, got 1"):
            SieveProfile.build(parse_poly("3x+1"), 2)
        assert SieveProfile.build(parse_poly("3x+1"), 1.9).table == {}

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


def per_prime_build(g, Y):
    """(table, modulus) of SieveProfile.build as it ran before its one
    roots_mod call: prime by prime, the roots of g' by a scan of p^gamma
    residues, then the modulus cap; the first guard to trip raises."""
    dg = g.derivative()
    G = math.gcd(*(int(sum((-1) ** (i - t) * math.comb(i, t) * dg(t) for t in range(i + 1)))
                   for i in range(dg.degree + 1)))
    table, modulus = {}, 1
    for p in primes_up_to(min(int(Y), 3 * sieve.MODULUS_DIGITS)):
        gamma = 1 + v_p(G, p)
        pg = p**gamma
        if pg > padic.ROOTS_BRUTE_LIMIT:
            raise ResourceLimit(f"root scan capped at q <= {padic.ROOTS_BRUTE_LIMIT}, got q = {pg}")
        roots = tuple(r for r in range(pg) if dg(r) % pg == 0)
        table[p] = (gamma, len(roots), roots)
        modulus *= pg
        if modulus >= 10**sieve.MODULUS_DIGITS:
            raise ResourceLimit(
                f"sieve modulus capped at 10^{sieve.MODULUS_DIGITS} (reached at p = {p})"
            )
    return table, modulus


def build_outcome(build, g, Y):
    """build's (table, modulus), or the message of the ResourceLimit it raised."""
    try:
        return build(g, Y)
    except ResourceLimit as exc:
        return str(exc)


class TestModulusGuard:
    def test_primes_read_reach_the_cap(self):
        # build reads primes only up to 3 * MODULUS_DIGITS: their product
        # alone must reach the cap, so a larger Y changes nothing
        assert math.prod(primes_up_to(3 * MODULUS_DIGITS)) >= 10**MODULUS_DIGITS

    def one_call(self, g, Y):
        profile = SieveProfile.build(g, Y)
        return profile.table, profile.modulus

    def test_tables_match_the_per_prime_loop(self):
        rng = random.Random(410)
        for _ in range(60):
            k = rng.randint(2, 5)
            g = IntPolynomial([rng.randint(-30, 30) for _ in range(k)]
                              + [rng.choice([1, 2, 3, 6, 12, 24])])
            Y = rng.choice([0, 2, 3, 10, 30, 60])
            assert self.one_call(g, Y) == per_prime_build(g, Y)

    @pytest.mark.parametrize(
        "poly, message",
        [
            # 19^2 = 361 is past the scan limit before the cap is reached at p = 29
            ("19x^2", "root scan capped at q <= 300, got q = 361"),
            # 23^2 = 529 at the prime where the modulus reaches the cap
            ("23x^2", "root scan capped at q <= 300, got q = 529"),
            # 37^2 lies past the cap prime: the cap is the guard that trips
            ("37x^2", "sieve modulus capped at 10^10 (reached at p = 29)"),
        ],
    )
    def test_guard_order(self, monkeypatch, poly, message):
        monkeypatch.setattr(sieve, "MODULUS_DIGITS", 10)
        monkeypatch.setattr(sieve, "_MODULUS_CAP", 10**10)
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 300)
        g = parse_poly(poly)
        assert build_outcome(self.one_call, g, 100) == message
        assert build_outcome(per_prime_build, g, 100) == message


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
        assert enumerate_w(pr3, 12) == 4
        assert (np.flatnonzero(pr3.mask(13)[1:]) + 1).tolist() == [1, 5, 7, 11]
        empty = SieveProfile.build(X2, 1.5)
        assert empty.table == {}
        assert enumerate_w(empty, 100) == 100

    def test_x3_profile_brute(self):
        pr = SieveProfile.build(X3, 3)
        brute = sum(1 for n in range(1, 21) if pr.member(n))
        assert enumerate_w(pr, 20) == brute

    def test_inclusion_exclusion_equals_scan(self):
        rng = random.Random(402)
        for _ in range(25):
            profile = random_profile(rng)
            X = rng.randint(1, 10**5)
            members = (np.flatnonzero(profile.mask(X + 1)[1:]) + 1).tolist()
            assert enumerate_w(profile, X) == len(members)
            sample = rng.sample(members, min(20, len(members))) if members else []
            assert all(profile.member(n) for n in sample)

    @pytest.mark.parametrize("X", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize("poly", ["x^2", "x^3", "(x^3-19)(x^2+x+1)"])
    def test_pruned_count_equals_mask(self, poly, X):
        # Y up to 60 puts the CRT modulus past X after a few primes, so the
        # pruned branch decides most of the count; the mask is the oracle
        for Y in (10, 30, 60):
            profile = SieveProfile.build(parse_poly(poly), Y)
            assert enumerate_w(profile, X) == int(profile.mask(X + 1)[1:].sum())

    def test_count_monotone_and_periodic_exact(self):
        profile = SieveProfile.build(X2, 5)
        M = profile.modulus
        per_period = enumerate_w(profile, M)
        for mult in (2, 3, 7):
            assert enumerate_w(profile, mult * M) == mult * per_period


class TestMaskedCount:
    """The count c prod (p^gamma - j) + S(rem), S(rem) from one masked pass
    over [1, rem], against inclusion-exclusion and the mask, at the wheel and
    chunk edges."""

    def oracles(self, profile, X):
        return sieve._count_avoiding(list(profile._active()), X), int(profile.mask(X + 1)[1:].sum())

    def assert_count(self, profile, X):
        head = sieve._masked_count(profile, X % profile.wheel)
        assert (head, head) == self.oracles(profile, X % profile.wheel), X
        got = enumerate_w(profile, X)
        assert (got, got) == self.oracles(profile, X), X

    def test_wheel_edges(self):
        profile = SieveProfile.build(X2, 10)
        L = profile.wheel
        assert L == 420 and enumerate_w(profile, L) == 96  # (4 - 2)(3 - 1)(5 - 1)(7 - 1)
        for X in (1, L - 1, L, L + 1, 2 * L, 7 * L + 299, 7 * L + L - 1):
            self.assert_count(profile, X)

    def test_chunk_boundaries(self):
        profile = SieveProfile.build(parse_poly("(x^3-19)(x^2+x+1)"), 30)
        with mock.patch.object(sieve, "COUNT_CHUNK", 64):
            for X in (63, 64, 65, 128, 129, 5000):
                self.assert_count(profile, X)
        # rem ending inside a chunk, on its edge, and spanning several
        profile = SieveProfile.build(X3, 10)
        with mock.patch.object(sieve, "COUNT_CHUNK", 100):
            L = profile.wheel
            for X in (3 * L + 50, 3 * L + 100, 3 * L + 150, 3 * L + L - 1):
                self.assert_count(profile, X)

    def test_no_active_prime(self):
        # g' = 2x + 1 has no root mod 2, so W(2) is every integer
        profile = SieveProfile.build(parse_poly("x^2+x"), 2)
        assert profile.table == {2: (1, 0, ())} and profile.wheel == 1
        for X in (1, 2, 10**30):
            assert enumerate_w(profile, X) == X

    def test_below_one(self):
        profile = SieveProfile.build(X2, 10)
        assert [enumerate_w(profile, X) for X in (0, -1, -(10**20))] == [0, 0, 0]

    def test_span_picks_the_path(self, monkeypatch):
        profile = SieveProfile.build(X2, 10)  # wheel 420, 96 members per wheel
        calls = []
        for name in ("_masked_count", "_count_avoiding"):
            real = getattr(sieve, name)
            monkeypatch.setattr(sieve, name, lambda *a, name=name, real=real: calls.append((name, a[1])) or real(*a))
        monkeypatch.setattr(sieve, "COUNT_SPAN_LIMIT", 100)
        # the span is rem = X mod 420, whatever X is
        assert enumerate_w(profile, 940) == int(profile.mask(941)[1:].sum())
        assert enumerate_w(profile, 1000) == int(profile.mask(1001)[1:].sum())
        assert enumerate_w(profile, 101) == int(profile.mask(102)[1:].sum())
        assert enumerate_w(profile, 420 * 10**37) == 96 * 10**37
        assert enumerate_w(profile, 420 * 10**37 + 419) == 96 * 10**37 + 96
        assert calls == [("_masked_count", 100), ("_count_avoiding", 160), ("_count_avoiding", 101),
                         ("_masked_count", 0), ("_count_avoiding", 419)]


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


def fraction_loop_density(profile, q=None):
    """prod (1 - j/p^gamma) over the primes whose p^gamma does not divide q,
    one Fraction factor at a time."""
    out = Fraction(1)
    for p, (gamma, j, _) in profile.table.items():
        if q is None or q % p**gamma:
            out *= 1 - Fraction(j, p**gamma)
    return out


class TestProductLower:
    def test_density_matches_the_fraction_loop(self):
        rng = random.Random(411)
        for _ in range(60):
            profile = random_profile(rng)
            qs = [None, 1, 2, 4, 12, 360, profile.wheel, rng.randint(1, 10**6)]
            for q in qs:
                assert profile.density(q) == fraction_loop_density(profile, q)
        # every p^gamma divides the modulus, so nothing is left
        assert profile.density(profile.modulus) == 1

    def test_y2(self):
        assert float(SieveProfile.build(X2, 2).density()) == 0.5

    def test_ratio_positive_and_stable(self):
        ratios = []
        for Y in (10, 100, 1000):
            product = float(SieveProfile.build(X2, Y).density())
            assert product > 0
            ratios.append(product / math.log(Y) ** (1 - X2.degree))
        # degree-2 sieve density decays like 1/log Y, matching the floor shape
        assert all(r > 0.3 for r in ratios)
