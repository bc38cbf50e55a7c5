"""Roots mod prime powers, Hensel lifting, root certificates, and bounded
intersectivity verdicts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ilab.arith import crt_pair, factorize, primes_up_to
import ilab.padic as padic
from ilab.padic import (
    HenselConditionError,
    NoRootToDepth,
    ResourceLimit,
    RootCert,
    choose_roots,
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


def choose_root(h, p, depth=8, factors=None):
    """choose_roots at the one prime p: its certificate, or its error raised."""
    out = choose_roots(h, [p], depth, factors)[p]
    if isinstance(out, Exception):
        raise out
    return out


def prime_power_roots(f, p, e):
    """Roots of f mod p^e, found a digit at a time: every root mod p^j
    extends a root mod p^(j-1), so each level tests the p extensions of
    the last level's roots directly.  An oracle for moduli past the scan."""
    roots = [0]
    for j in range(1, e + 1):
        step, pj = p ** (j - 1), p**j
        roots = [r + t * step for r in roots for t in range(p) if f.eval_mod(r + t * step, pj) == 0]
    return sorted(roots)


class TestValuesMod:
    def test_matches_eval_mod(self):
        rng = random.Random(120)
        for _ in range(60):
            g = random_poly(rng, deg_max=6, coeff=10**6)
            q = rng.choice([1, 2, 7, 97, 3**9, 10**6 + 3, rng.randint(1, 3 * 10**9)])
            s = np.array([rng.randint(-10**12, 10**12) for _ in range(50)] + [0, 1, -1])
            got = values_mod(g, s, q)
            assert got.tolist() == [g.eval_mod(int(t), q) for t in s]

    def test_array_moduli_match_eval_mod(self):
        # one modulus per element: the lazy reduction runs on the bound of
        # max(q), and coefficients past 2**62 are reduced per distinct modulus
        # (or once, for a single modulus)
        rng = random.Random(121)
        for _ in range(60):
            g = random_poly(rng, deg_max=6, coeff=rng.choice([10**6, 10**30]))
            top = rng.choice([2, 97, 10**6 + 3, rng.randint(1, 3 * 10**9)])
            q = np.array([rng.randint(1, top) for _ in range(50)] + [top, 1, 1], dtype=np.int64)
            s = np.array([rng.randint(-10**12, 10**12) for _ in range(50)] + [0, 1, -1])
            got = values_mod(g, s, q)
            assert got.tolist() == [g.eval_mod(int(t), int(m)) for t, m in zip(s, q)]
            assert values_mod(g, s, top).tolist() == [g.eval_mod(int(t), top) for t in s]

    def test_lazy_reduction_at_the_int64_edge(self):
        # coefficients of absolute value q - 1 (added unreduced, either
        # sign) and inputs at q - 1 drive the accumulator to its bound; q^e
        # just below and above 2^63 puts a reduction at the edge
        for e in (2, 3, 4, 5):
            base = round(2 ** (63 / e))
            for q in range(base - 3, base + 4):
                if q * q >= 2**63:
                    continue
                s = np.array([q - 1, q - 2, 1, 0], dtype=np.int64)
                for g in (IntPolynomial([q - 1] * 9), IntPolynomial([1 - q] * 9),
                          IntPolynomial([(-1) ** i * (q - 1) for i in range(9)])):
                    assert values_mod(g, s, q).tolist() == [g.eval_mod(int(t), q) for t in s]

    def test_int64_guard(self):
        q = math.isqrt(2**63 - 1)  # largest q with q*q < 2**63
        s = np.arange(5, dtype=np.int64)
        assert values_mod(X2, s, q).tolist() == [t * t % q for t in range(5)]
        with pytest.raises(ValueError):
            values_mod(X2, s, q + 1)
        with pytest.raises(ValueError):
            values_mod(X2, s, np.array([2, 3, q + 1, 5, 7], dtype=np.int64))


class TestRootsMod:
    def test_examples(self):
        assert roots_mod(parse_poly("x^2-1"), [8])[8] == [1, 3, 5, 7]
        assert roots_mod(parse_poly("x^2+1"), [3])[3] == []
        assert roots_mod(parse_poly("0,1"), [5])[5] == [0]

    def test_zero_poly_returns_everything(self):
        assert roots_mod(IntPolynomial(()), [6])[6] == [0, 1, 2, 3, 4, 5]

    def test_mixed_moduli_match_a_per_modulus_scan(self):
        # primes, prime powers, composites and 1 in one list, long enough to
        # take several SCAN_BLOCK passes, one of them a lone modulus past it
        rng = random.Random(205)
        pool = [1, 2, 3, 4, 7, 8, 9, 12, 25, 30, 97, 100, 243, 360, 1000, 1024, 2003, 4999]
        for trial in range(40):
            p = IntPolynomial(()) if trial == 0 else random_poly(rng, deg_max=5)
            moduli = rng.sample(pool, rng.randint(1, len(pool)))
            if trial % 10 == 1:
                moduli += [padic.SCAN_BLOCK + 3, 5 * padic.SCAN_BLOCK]
            got = roots_mod(p, moduli)
            assert list(got) == moduli
            for q in moduli:
                assert got[q] == [r for r in range(q) if p(r) % q == 0], (p, q)

    def test_guards_fire_in_the_order_of_the_moduli(self):
        big = padic.ROOTS_BRUTE_LIMIT + 1
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            roots_mod(X2, [5, 0, big])
        message = f"^root scan capped at q <= 1000000, got q = {big}$"
        with pytest.raises(ResourceLimit, match=message):
            roots_mod(X2, [5, big, -1])
        assert roots_mod(X2, []) == {}

    def test_crt_merge_property(self):
        rng = random.Random(200)
        for _ in range(60):
            p = random_poly(rng)
            q1 = rng.randint(2, 60)
            q2 = rng.randint(2, 60)
            if math.gcd(q1, q2) != 1:
                continue
            merged = set()
            for r1 in roots_mod(p, [q1])[q1]:
                for r2 in roots_mod(p, [q2])[q2]:
                    r, _ = crt_pair(r1, q1, r2, q2)
                    merged.add(r)
            assert sorted(merged) == roots_mod(p, [q1 * q2])[q1 * q2]

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
            assert roots_mod(p, [q])[q] == want
            (prime, e), = factorize(q)
            assert prime_power_roots(p, prime, e) == want  # the oracle past the scan


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
            roots = roots_mod(p, [prime])[prime]
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
            assert c.residue_mod(e) in roots_mod(QUINTIC, [3**e])[3**e]

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

    def test_a_capped_factor_does_not_stop_the_next(self):
        # 208120802 = 2 * 101^4: the first factor's lift from 101^4 would ask
        # for 10201 * 101 residues, but the squared factor x - 1 certifies
        h = parse_poly("(x^2-208120802)(x-1)^2")
        c = choose_root(h, 101)
        assert (c.j, c.z, c.m, c.v, c.exact_root) == (1, 1, 2, 0, None)
        assert c.verify(h)

    def test_guard_raised_when_no_factor_certifies(self, monkeypatch):
        # x^2 - 3*7^4 has no 7-adic root (3 is a non-residue mod 7), so only
        # the capped lift of the squared factor is left to report
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 2400)
        h = parse_poly("(x^2-7203)(x^2-235298)^2")
        with pytest.raises(ResourceLimit, match="capped at 2400 residues"):
            choose_root(h, 7)

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
    """Every root-set lift (witness scan, Hensel witness) goes through the one
    ROOTS_BRUTE_LIMIT guard, which raises ResourceLimit, and so does every
    residue scan."""

    def test_witness_scan_leaves_a_capped_prime_unresolved(self, monkeypatch):
        # x^2 + 2003 has only the singular root 0 mod 2003, and h(0) = -2003^5:
        # the scan's lift to j = 3 would ask for 2003 * 2003 residues
        sizes = TestLiftCap.lifted_sizes(monkeypatch)
        v = is_intersective(parse_poly("(2003x-1)(x^2+2003)^5"), 2003, 4)
        assert (v.status, v.unresolved) == ("unknown", [2003])
        assert max(sizes) <= padic.ROOTS_BRUTE_LIMIT

    def test_prime_power_route_is_guarded(self):
        # 2^19 x vanishes at every residue mod 2^19, so a lift to 2^20 would
        # ask for 2^20 candidates: roots_mod refuses the modulus outright
        with pytest.raises(ResourceLimit, match="root scan capped at q <= 1000000, got q = 1048576"):
            roots_mod(IntPolynomial([0, 2**19]), [2**20])
        assert roots_mod(IntPolynomial([0, 2**19]), [2**19])[2**19] == list(range(2**19))

    def test_prime_past_the_limit(self):
        p = 1000003
        c = choose_root(parse_poly("x^2-x"), p)
        assert (c.j, c.z, c.v, c.exact_root) == (8, 0, 0, Fraction(0))
        assert c.verify(parse_poly("x^2-x"))
        with pytest.raises(ResourceLimit, match="primes p <= 1000000"):
            choose_root(QUINTIC, p)
        with pytest.raises(ResourceLimit, match="q <= 1000000"):
            roots_mod(QUINTIC, [p])

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

    def test_against_sympy_factor_list(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        rng = random.Random(341)
        polys = [
            parse_poly("x^2-100000000000000x"),
            parse_poly("x^2-1000000000000000000x"),
            # 2048 x 169 divisor pairs: every candidate is tested
            IntPolynomial([269765397277917750, 3, -7, 11, 5, 10**12]),
        ]
        for _ in range(30):
            p = IntPolynomial([rng.randint(-30, 30) or 1, rng.randint(-5, 5), 1])
            for _ in range(rng.randint(1, 3)):
                b = rng.choice([1, 2, 6, 35, 1000])
                p = p * IntPolynomial([rng.randint(-10**4, 10**4), b])
            polys.append(p)
        for p in polys:
            _, factors = sympy.factor_list(sum(c * x**i for i, c in enumerate(p.coeffs)))
            linear = [sympy.Poly(f, x).all_coeffs() for f, _ in factors]
            expect = sorted({-Fraction(int(c[1]), int(c[0])) for c in linear if len(c) == 2})
            assert rational_roots(p) == expect, p


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
                assert prime_power_roots(p, v.witness_p, v.witness_j) == []

    def test_witness_past_the_scan_limit(self):
        # 59x - 1 certifies every prime but 59, where it is a unit; 2 is a
        # non-residue mod 59, so x^2 - 2*59^4 has the 59^2 roots 0 mod 59^2
        # mod 59^4 and none mod 59^5 > ROOTS_BRUTE_LIMIT
        h = parse_poly("(x^2-24234722)(59x-1)")
        v = is_intersective(h, 60, 5)
        assert (v.status, v.witness_p, v.witness_j) == ("not_intersective", 59, 5)
        assert 59**5 > padic.ROOTS_BRUTE_LIMIT
        assert prime_power_roots(h, 59, 5) == []
        assert len(prime_power_roots(h, 59, 4)) == 59**2

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


# -- the per-prime certification path before roots_mod_primes: a chunked
# residue scan per prime and a lift of the singular roots all the way to
# depth, kept here as the oracle of the batched path


def scan_hensel_candidate(f, p, depth):
    df = f.derivative()
    if p > padic.ROOTS_BRUTE_LIMIT:
        raise ResourceLimit(f"root scan capped at primes p <= {padic.ROOTS_BRUTE_LIMIT}")
    roots = []
    lo, step = 0, max(64, p // 4)
    while lo < p:
        hi = min(p, lo + step)
        chunk = np.arange(lo, hi, dtype=np.int64)
        found = chunk[values_mod(f, chunk, p) == 0]
        if len(found):
            simple = found[values_mod(df, found, p) != 0]
            if len(simple):
                return 1, int(simple[0]), 0
            roots.extend(found.tolist())
        lo, step = hi, 2 * step
    for j, roots in padic._root_levels(f, p, roots):
        pj = p**j
        witnesses = []
        for z in roots:
            t = df.eval_mod(z, pj)
            if t == 0:
                continue
            v = padic.v_p(t, p)
            if j >= 2 * v + 1:
                witnesses.append((z, v))
        if witnesses:
            z, v = min(witnesses)
            return j, z, v
        if not roots or j >= depth:
            return None


def scan_choose_root(h, p, depth=8, factors=None):
    if factors is None:
        factors = square_free_decomposition(h)
    capped = None
    for f, u in factors:
        try:
            cand = scan_hensel_candidate(f, p, depth)
        except ResourceLimit as exc:
            cand, capped = None, capped or exc
        if cand is not None:
            j, z, v = cand
            return padic.RootCert(p=p, j=j, z=z, m=u, v=v, factor=f)
        usable = [r for r in rational_roots(f) if r.denominator % p != 0]
        if usable:
            return min((padic._rational_cert(f, u, p, depth, r) for r in usable), key=lambda c: c.z)
    if capped is not None:
        raise capped
    raise NoRootToDepth(f"no certifiable root of {h} at p={p} within depth {depth}")


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (NoRootToDepth, ResourceLimit) as exc:
        return type(exc), str(exc)


class TestChooseRoots:
    @pytest.mark.parametrize(
        "text, depth", [("(x^3-19)(x^2+x+1)", 6), ("(x^2-13)(x^2-17)(x^2-221)", 12)]
    )
    def test_matches_the_scan_at_every_prime_below_20000(self, text, depth):
        h = parse_poly(text)
        primes = primes_up_to(20000)
        factors = square_free_decomposition(h)
        got = padic.choose_roots(h, primes, depth, factors)
        assert sorted(got) == primes
        for p in primes:
            assert got[p] == scan_choose_root(h, p, depth, factors), p

    def test_failures_keep_the_per_prime_errors(self, monkeypatch):
        # x^2 + 1 has no root at p = 3 mod 4; x^2 - 235298 = x^2 - 2*7^6
        # hits the lift guard at p = 7 under a lowered limit
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 2400)
        primes = primes_up_to(60)
        for h in (parse_poly("x^2+1"), parse_poly("x^2-235298"), parse_poly("(x^2+1)(x^2-235298)")):
            got = padic.choose_roots(h, primes, 8)
            for p in primes:
                want = outcome(scan_choose_root, h, p, 8)
                have = got[p] if isinstance(got[p], RootCert) else (type(got[p]), str(got[p]))
                assert have == want, (h, p)

    def test_prime_past_the_limit_in_a_batch(self):
        got = padic.choose_roots(QUINTIC, [3, 1000003], 6)
        assert got[3] == choose_root(QUINTIC, 3, 6)
        assert isinstance(got[1000003], ResourceLimit)
        assert "primes p <= 1000000" in str(got[1000003])

    def test_rational_roots_once_per_factor(self, monkeypatch):
        # x^2 + 1 fails at every p = 3 mod 4 and falls back to its (empty)
        # rational roots; x - 1 then certifies
        calls = []
        real = padic.rational_roots

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(padic, "rational_roots", counting)
        h = parse_poly("(x^2+1)(x-1)^2")
        v = is_intersective(h, 2000, 8)
        assert v.status == "intersective" and len(v.certs) == len(primes_up_to(2000))
        assert calls.count(parse_poly("x^2+1")) == 1
        assert max(calls.count(f) for f in calls) == 1


class TestPrunedLift:
    """The lift of singular roots stops once no root can reach a witness
    within depth; the certificate is the one the full lift picks."""

    def test_matches_the_full_lift(self):
        rng = random.Random(404)
        checked = 0
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            # roots that agree mod a power of p, so their factor is singular there
            a = rng.randint(-20, 20)
            h = IntPolynomial((1,))
            for _ in range(rng.randint(2, 3)):
                h = h * IntPolynomial((-(a + rng.choice([0, 1, 2, -1]) * p ** rng.randint(1, 3)), 1))
            if rng.random() < 0.5:
                h = h * random_poly(rng, deg_max=2, coeff=9)
            depth = rng.randint(1, 8)
            if h.degree < 1:
                continue
            want = outcome(scan_choose_root, h, p, depth)
            if isinstance(want, tuple) and want[0] is ResourceLimit:
                continue
            assert outcome(choose_root, h, p, depth) == want, (h, p, depth)
            checked += 1
        assert checked > 250

    def test_a_lift_that_cannot_reach_depth_is_not_guarded(self, monkeypatch):
        # (x^2-2)(x^2-23) = (x^2-2)^2 mod 7: both roots 3, 4 are singular, so
        # no lift can be a witness before j = 3.  At depth 2 the lift that
        # the full path capped (2 * 7 > 13 residues) is never asked for.
        monkeypatch.setattr(padic, "ROOTS_BRUTE_LIMIT", 13)
        h = parse_poly("(x^2-2)(x^2-23)")
        assert outcome(scan_choose_root, h, 7, 2)[0] is ResourceLimit
        with pytest.raises(NoRootToDepth, match="within depth 2"):
            choose_root(h, 7, 2)
        with pytest.raises(ResourceLimit, match="capped at 13 residues"):
            choose_root(h, 7, 3)

    def test_x_times_x_minus_31_to_the_fourth(self, monkeypatch):
        # both roots have v = 4 at p = 31, so a witness needs j >= 9; at depth
        # 8 the lift stops at j = 7 (31^3 roots) instead of building the
        # 31^4 roots mod 31^8, and the exact root 0 certifies as before
        sizes = TestLiftCap.lifted_sizes(monkeypatch)
        h = parse_poly("x(x-923521)")
        c = choose_root(h, 31, 8)
        assert (c.j, c.z, c.m, c.v, c.exact_root) == (8, 0, 1, 4, Fraction(0))
        assert len(sizes) == 6  # lifts to j = 2, ..., 7
