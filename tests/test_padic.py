"""Roots mod prime powers, Hensel lifting, root certificates, and bounded
intersectivity verdicts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ilab.arith import crt_pair, factorize
import ilab.padic as padic
from ilab.padic import (
    HenselConditionError,
    NoRootToDepth,
    ResourceLimit,
    _prime_power_roots,
    choose_root,
    exact_cert,
    hensel_lift,
    is_intersective,
    rational_roots,
    roots_mod,
    values_mod,
)
from ilab.poly import IntPolynomial, parse_poly, square_free_decomposition

X2 = parse_poly("x^2")
QUINTIC = parse_poly("(x^3-19)(x^2+x+1)")


def random_poly(rng, deg_max=4, coeff=30):
    k = rng.randint(1, deg_max)
    cs = [rng.randint(-coeff, coeff) for _ in range(k)]
    # uniform over the nonzero integers in [-coeff, coeff], without listing them
    cs.append(rng.randint(1, coeff) * rng.choice((1, -1)))
    return IntPolynomial(cs)


class TestValuesMod:
    def test_matches_eval_mod(self):
        rng = random.Random(120)
        for _ in range(60):
            g = random_poly(rng, deg_max=6, coeff=10**6)
            q = rng.choice([1, 2, 7, 97, 3**9, 10**6 + 3, rng.randint(1, 3 * 10**9)])
            s = np.array([rng.randint(-10**12, 10**12) for _ in range(50)] + [0, 1, -1])
            got = values_mod(g, s, q)
            assert got.tolist() == [g.eval_mod(int(t), q) for t in s]

    def test_lazy_reduction_at_the_int64_edge(self):
        # coefficients and inputs at q - 1 drive the accumulator to its
        # bound; q^e just below and above 2^63 puts a reduction at the edge
        for e in (2, 3, 4, 5):
            base = round(2 ** (63 / e))
            for q in range(base - 3, base + 4):
                if q * q >= 2**63:
                    continue
                g = IntPolynomial([q - 1] * 9)
                s = np.array([q - 1, q - 2, 1, 0], dtype=np.int64)
                assert values_mod(g, s, q).tolist() == [g.eval_mod(int(t), q) for t in s]

    def test_int64_guard(self):
        q = math.isqrt(2**63 - 1)  # largest q with q*q < 2**63
        s = np.arange(5, dtype=np.int64)
        assert values_mod(X2, s, q).tolist() == [t * t % q for t in range(5)]
        with pytest.raises(ValueError):
            values_mod(X2, s, q + 1)


class TestRootsMod:
    def test_examples(self):
        assert roots_mod(parse_poly("x^2-1"), 8) == [1, 3, 5, 7]
        assert roots_mod(parse_poly("x^2+1"), 3) == []
        assert roots_mod(parse_poly("0,1"), 5) == [0]

    def test_zero_poly_returns_everything(self):
        assert roots_mod(IntPolynomial(()), 6) == [0, 1, 2, 3, 4, 5]

    def test_crt_merge_property(self):
        rng = random.Random(200)
        for _ in range(60):
            p = random_poly(rng)
            q1 = rng.randint(2, 60)
            q2 = rng.randint(2, 60)
            if math.gcd(q1, q2) != 1:
                continue
            merged = set()
            for r1 in roots_mod(p, q1):
                for r2 in roots_mod(p, q2):
                    r, _ = crt_pair(r1, q1, r2, q2)
                    merged.add(r)
            assert sorted(merged) == roots_mod(p, q1 * q2)

    def test_lifting_path_against_numpy_scan(self):
        # q = 3^14 > brute limit exercises the prime-power lifting route
        q = 3**14
        p = parse_poly("x^2-7x+10")  # roots 2, 5 lift cleanly
        got = roots_mod(p, q)
        r = np.arange(q, dtype=np.int64)
        acc = np.zeros(q, dtype=np.int64)
        for c in reversed(p.coeffs):
            acc = (acc * r + c % q) % q
        expect = np.nonzero(acc == 0)[0].tolist()
        assert got == expect

    def test_against_sympy_polynomial_congruence(self):
        sympy = pytest.importorskip("sympy")
        from sympy.ntheory.residue_ntheory import polynomial_congruence

        rng = random.Random(204)
        x = sympy.symbols("x")
        moduli = [2, 3, 5, 7, 11, 13, 31, 97, 4, 8, 32, 9, 27, 243, 25, 125, 49, 121]
        for _ in range(60):
            p = random_poly(rng, deg_max=4, coeff=20)
            if rng.random() < 0.4:
                lin = random_poly(rng, deg_max=1, coeff=4)
                p = p * lin * lin  # a repeated root: the singular lifting branch
            q = rng.choice(moduli)
            expr = sum(c * x**i for i, c in enumerate(p.coeffs))
            want = sorted(int(r) for r in polynomial_congruence(expr, q))
            assert roots_mod(p, q) == want
            (prime, e), = factorize(q)
            assert _prime_power_roots(p, prime, e) == want

    def test_composite_large_modulus(self):
        q = 2**21 * 5  # > brute limit, composite
        p = parse_poly("x^2-1")
        got = roots_mod(p, q)
        assert all(p(r) % q == 0 for r in got)
        # count oracle: CRT of per-prime-power counts
        n2 = len(roots_mod(p, 2**21))
        n5 = len(roots_mod(p, 5))
        assert len(got) == n2 * n5


class TestHensel:
    def test_examples(self):
        assert hensel_lift(parse_poly("x^2-2"), 7, 3, 2) == 10
        assert hensel_lift(parse_poly("x-7"), 3, 1, 4) == 7
        with pytest.raises(HenselConditionError):
            hensel_lift(X2, 5, 0, 3)

    def test_precondition_violations(self):
        # v = v_3(g'(1)) = v_3(2) = 0 but g(1) = 3 needs mod 3 ok; push j below 2v+1
        with pytest.raises(HenselConditionError):
            hensel_lift(parse_poly("x^2-2"), 7, 1, 2)  # g(1) = -1 not 0 mod 7

    def test_intermediate_precisions(self):
        rng = random.Random(201)
        for _ in range(60):
            p = random_poly(rng)
            prime = rng.choice([2, 3, 5, 7, 11])
            roots = roots_mod(p, prime)
            dp = p.derivative()
            for z in roots:
                d = dp(z)
                if d == 0 or d % prime == 0:
                    continue
                j_target = rng.randint(2, 9)
                m = hensel_lift(p, prime, z, j_target)
                for j in range(1, j_target + 1):
                    assert p(m % prime**j) % prime**j == 0
                assert (m - z) % prime == 0


class TestChooseRoot:
    def test_double_root_at_zero(self):
        c = choose_root(X2, 5)
        assert (c.p, c.z, c.m) == (5, 0, 2)
        assert c.verify(X2)

    def test_smallest_simple_root_wins(self):
        c = choose_root(parse_poly("x^2-3x+2"), 7)
        assert (c.z, c.m) == (1, 1)
        assert c.verify(parse_poly("x^2-3x+2"))

    def test_quintic_at_three(self):
        c = choose_root(QUINTIC, 3)
        assert c.m == 1
        assert c.verify(QUINTIC)
        # the cubic factor supplies the lift: residue mod 27 must be a root
        for e in (1, 2, 3):
            assert c.residue_mod(e) in roots_mod(QUINTIC, 3**e)

    def test_first_simple_root_at_every_position(self):
        # a double root mod p at 3 (from x-3 and x-3-p) precedes the simple
        # root b, which sweeps every residue: the scan must neither skip nor
        # stop early anywhere, whatever its chunking
        for prime in (97, 257, 1031):
            for b in range(prime):
                if b == 3:
                    continue  # (x-3)^2 would leave the decomposition's first factor
                f = parse_poly(f"(x-3)(x-{3 + prime})") * IntPolynomial((-b, 1))
                assert (f.degree, len(square_free_decomposition(f))) == (3, 1)
                c = choose_root(f, prime, 2)
                assert (c.j, c.z, c.v) == (1, b, 0)

    def test_no_root_raises(self):
        with pytest.raises(NoRootToDepth):
            choose_root(parse_poly("x^2+1"), 3)

    def test_certificates_reverify(self):
        rng = random.Random(202)
        checked = 0
        for _ in range(120):
            p = random_poly(rng, deg_max=3, coeff=12)
            if rng.random() < 0.3:
                p = p * p
            if p.degree < 1:
                continue
            prime = rng.choice([2, 3, 5, 7, 11, 13])
            try:
                c = choose_root(p, prime)
            except NoRootToDepth:
                continue
            assert c.verify(p)
            assert prime ** c.j >= 1 and 0 <= c.z < prime**c.j
            assert p(c.z) % prime**c.j == 0
            checked += 1
        assert checked > 30

    def test_deeper_residues_stay_roots(self):
        c = choose_root(QUINTIC, 3)
        z = c.residue_mod(9)
        assert QUINTIC(z) % 3**9 == 0

    def test_exact_cert_override(self):
        g = parse_poly("(x-1)(x-2)")
        c = exact_cert(g, 2, 1)
        assert c.z % 2 == 1 and c.m == 1
        assert c.verify(g)
        with pytest.raises(ValueError):
            exact_cert(g, 2, 5)
        with pytest.raises(ValueError):
            exact_cert(parse_poly("2x-1"), 2, Fraction(1, 2))


class TestLiftCap:
    """The singular-root lift stops before len(roots) * p passes
    ROOTS_BRUTE_LIMIT residues."""

    # x^2 - 2*7^6: its 7-adic roots 7^3 * (+-sqrt 2) need j >= 7; the lift
    # to j = 7 starts from 343 roots mod 7^6, so it asks for 343 * 7 = 2401
    IRRATIONAL = parse_poly("x^2-235298")
    # x(x - 7^4): v = 4 at the root 0, so a witness needs j >= 9
    RATIONAL = parse_poly("x(x-2401)")

    @staticmethod
    def lifted_sizes(monkeypatch) -> list[int]:
        sizes: list[int] = []
        lift = padic._lift_root_level

        def counting(f, p, roots, j):
            sizes.append(len(roots) * p)
            return lift(f, p, roots, j)

        monkeypatch.setattr(padic, "_lift_root_level", counting)
        return sizes

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 2401)
        c = choose_root(self.IRRATIONAL, 7)
        assert (c.j, c.z, c.v, c.exact_root) == (7, 1029, 3, None)
        assert c.verify(self.IRRATIONAL)

    def test_irrational_factor_raises(self, monkeypatch):
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 2400)
        with pytest.raises(ResourceLimit, match="capped at 2400 residues"):
            choose_root(self.IRRATIONAL, 7)

    def test_capped_lift_takes_the_rational_root(self, monkeypatch):
        # unbounded, depth 10 lifts 2401 roots mod 7^8 and finds the witness
        # at j = 9; capped, the exact root 0 certifies instead
        c = choose_root(self.RATIONAL, 7, 10)
        assert (c.j, c.z, c.v, c.exact_root) == (9, 0, 4, None)
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 1000)
        c = choose_root(self.RATIONAL, 7, 10)
        assert (c.j, c.z, c.v, c.exact_root) == (10, 0, 4, Fraction(0))
        assert c.verify(self.RATIONAL)

    def test_fallback_is_the_uncapped_certificate_at_depth_8(self, monkeypatch):
        # depth 8 ends in the exact-root fallback capped or not
        uncapped = choose_root(self.RATIONAL, 7, 8)
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 100)
        assert choose_root(self.RATIONAL, 7, 8) == uncapped
        assert uncapped.exact_root == 0 and uncapped.j == 8

    def test_37_to_the_fourth_stays_under_the_limit(self, monkeypatch):
        # x(x - 37^4) would lift 50653 -> 1874161 residues at j = 7
        sizes = self.lifted_sizes(monkeypatch)
        h = parse_poly("x(x-1874161)")
        c = choose_root(h, 37, 8)
        assert (c.j, c.z, c.m, c.v, c.exact_root) == (8, 0, 1, 4, Fraction(0))
        assert c.verify(h)
        assert max(sizes) <= padic.ROOTS_BRUTE_LIMIT


class TestGuardedLifts:
    """Every root-set lift (witness scan, prime-power roots, Hensel witness)
    goes through the one ROOTS_BRUTE_LIMIT guard, which raises ResourceLimit."""

    def test_witness_scan_leaves_a_capped_prime_unresolved(self, monkeypatch):
        # x^2 + 2003 has only the singular root 0 mod 2003, and h(0) = -2003^5:
        # the scan's lift to j = 3 would ask for 2003 * 2003 residues
        sizes = TestLiftCap.lifted_sizes(monkeypatch)
        v = is_intersective(parse_poly("(2003x-1)(x^2+2003)^5"), 2003, 4)
        assert (v.status, v.unresolved) == ("unknown", [2003])
        assert max(sizes) <= padic.ROOTS_BRUTE_LIMIT

    def test_prime_power_route_is_guarded(self):
        # 2^19 x vanishes at every residue mod 2^19: 2^19 roots would each lift
        # to 2 candidates mod 2^20
        with pytest.raises(ResourceLimit, match=f"capped at {padic.ROOTS_BRUTE_LIMIT} residues"):
            roots_mod(IntPolynomial([0, 2**19]), 2**20)

    def test_prime_past_the_limit(self):
        p = 1000003
        c = choose_root(parse_poly("x^2-x"), p)
        assert (c.j, c.z, c.v, c.exact_root) == (8, 0, 0, Fraction(0))
        assert c.verify(parse_poly("x^2-x"))
        with pytest.raises(ResourceLimit, match="primes p <= 1000000"):
            choose_root(QUINTIC, p)
        with pytest.raises(ResourceLimit, match="q <= 1000000"):
            padic._brute_roots(QUINTIC, p)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            is_intersective(X2, 10, 0)
        with pytest.raises(ValueError, match="depth must be >= 1, got -1"):
            choose_root(X2, 5, -1)


class TestRationalRoots:
    def test_finds_all(self):
        p = parse_poly("(2x-1)(3x-1)(x-4)")
        assert rational_roots(p) == [Fraction(1, 3), Fraction(1, 2), Fraction(4)]

    def test_zero_root(self):
        assert Fraction(0) in rational_roots(parse_poly("x^3+x^2"))


class TestIsIntersective:
    def test_acceptance_trio(self):
        assert is_intersective(X2, 100, 6).status == "intersective"
        v = is_intersective(parse_poly("x^2+1"), 100, 6)
        assert v.status == "not_intersective"
        assert (v.witness_p, v.witness_j) == (3, 1)
        v3 = is_intersective(QUINTIC, 100, 6)
        assert v3.status == "intersective"
        assert all(c.verify(QUINTIC) for c in v3.certs.values())
        assert v3.assumptions  # no rational root: large primes are assumed

    def test_witness_self_certifies(self):
        rng = random.Random(203)
        for _ in range(60):
            p = random_poly(rng, deg_max=3, coeff=10)
            if p.degree < 1:
                continue
            v = is_intersective(p, 60, 5)
            if v.status == "not_intersective":
                assert roots_mod(p, v.witness_p**v.witness_j) == []

    def test_coprime_denominator_rational_roots(self):
        # no integer root, but rational roots with coprime denominators
        v = is_intersective(parse_poly("(2x-1)(3x-1)"), 50, 6)
        assert v.status == "intersective"
        assert v.assumptions == []

    def test_constant_poly(self):
        v = is_intersective(IntPolynomial((12,)), 50, 4)
        assert v.status == "not_intersective"
        assert v.witness_p == 5  # first prime with no p | 12

    def test_verdict_json(self):
        j = is_intersective(X2, 30, 4).to_json()
        assert j["status"] == "intersective"
        assert "certs" in j
