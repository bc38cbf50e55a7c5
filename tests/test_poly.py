"""Exact polynomial algebra: evaluation, content, discriminants, shift-scale,
and the preimage symmetric-difference bound."""

import random

import pytest

from ilab.poly import (
    ZERO,
    IntegralityError,
    IntPolynomial,
    classical_discriminant,
    content,
    discriminant_abs,
    exact_div,
    parse_poly,
    poly_gcd,
    preimage_symdiff,
    primitive_part,
    resultant,
    shift_scale,
    square_free_decomposition,
)

X2 = parse_poly("x^2")
QUINTIC = parse_poly("(x^3-19)(x^2+x+1)")


def random_poly(rng, deg_max=5, coeff=50, monic=False):
    k = rng.randint(1, deg_max)
    cs = [rng.randint(-coeff, coeff) for _ in range(k)]
    cs.append(1 if monic else rng.choice([c for c in range(-coeff, coeff + 1) if c]))
    return IntPolynomial(cs)


class TestEvaluate:
    def test_examples(self):
        assert parse_poly("x^2-1")(3) == 8
        assert ZERO(17) == 0
        assert QUINTIC(0) == -19

    def test_two_route_consistency(self):
        rng = random.Random(100)
        for _ in range(300):
            p = random_poly(rng)
            x = rng.randint(-1000, 1000)
            # independent route: explicit power accumulation
            direct = sum(c * x**i for i, c in enumerate(p.coeffs))
            assert p(x) == direct

    def test_eval_mod_matches(self):
        rng = random.Random(101)
        for _ in range(200):
            p = random_poly(rng)
            x = rng.randint(0, 10**6)
            m = rng.randint(2, 10**6)
            assert p.eval_mod(x, m) == p(x) % m


class TestDerivative:
    def test_examples(self):
        assert X2.derivative() == parse_poly("0,2")
        assert IntPolynomial((7,)).derivative().is_zero
        assert parse_poly("x^3-19").derivative() == parse_poly("0,0,3")


class TestContent:
    def test_examples(self):
        assert content(parse_poly("2x^2+4x+3")) == 2
        assert content(parse_poly("x^4")) == 1
        assert content(parse_poly("6x^3+9x^2+3x+7")) == 3

    def test_scaling_property(self):
        rng = random.Random(102)
        for _ in range(200):
            p = random_poly(rng)
            c = rng.choice([c for c in range(-20, 21) if c])
            assert content(p * c) == abs(c) * content(p)

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            content(IntPolynomial((5,)))


class TestDiscriminant:
    def test_examples(self):
        assert discriminant_abs(parse_poly("x^2-1")) == 4
        assert discriminant_abs(parse_poly("x^2+1")) == 4
        assert discriminant_abs(parse_poly("x^2-3x+2")) == 1

    def test_single_distinct_root(self):
        # distinct-root convention: (x - a)^k contributes only lc powers
        assert discriminant_abs(X2) == 1
        assert discriminant_abs(parse_poly("(x-3)(x-3)")) == 1
        assert discriminant_abs(parse_poly("2x^2")) == 4  # lc^(2k-2)

    def test_repeated_root_hand_values(self):
        # worked by hand from the defining formula a^(2k-2) prod (a_i - a_j)^(e_i e_j):
        #   (x-1)^2 (x-2):   1^4 * (-1)^2 (1)^2                  = 1
        #   (2x-1)^2 (x-1):  4^4 * (-1/2)^2 (1/2)^2              = 16
        #   (3x-1)^2 (3x-2): 27^4 * (-1/3)^2 (1/3)^2             = 6561
        #   (9x-1)(x^2-2)^2: 9^8 * ((1/81)-2)^4 (2 sqrt2)^8 / .. = 161^4 * 2^12
        assert discriminant_abs(parse_poly("(x-1)(x-1)(x-2)")) == 1
        assert discriminant_abs(parse_poly("(2x-1)(2x-1)(x-1)")) == 16
        assert discriminant_abs(parse_poly("(3x-1)(3x-1)(3x-2)")) == 6561
        assert discriminant_abs(parse_poly("(9x-1)(x^2-2)(x^2-2)")) == 161**4 * 2**12

    def test_never_zero(self):
        rng = random.Random(103)
        for _ in range(100):
            p = random_poly(rng, deg_max=4)
            if p.degree >= 2:
                assert discriminant_abs(p) >= 1

    def test_classical_zero_iff_repeated_root(self):
        rng = random.Random(104)
        for _ in range(150):
            p = random_poly(rng, deg_max=3, coeff=9)
            if rng.random() < 0.5:
                p = p * p  # plant a repeated factor
            if p.degree < 2:
                continue
            has_repeat = poly_gcd(p, p.derivative()).degree >= 1
            assert (classical_discriminant(p) == 0) == has_repeat

    def test_quadratic_closed_form(self):
        rng = random.Random(105)
        for _ in range(200):
            a = rng.choice([x for x in range(-9, 10) if x])
            b, c = rng.randint(-9, 9), rng.randint(-9, 9)
            p = IntPolynomial((c, b, a))
            assert classical_discriminant(p) == b * b - 4 * a * c

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(106)
        x = sympy.symbols("x")
        for _ in range(40):
            p = random_poly(rng, deg_max=4, coeff=12)
            q = random_poly(rng, deg_max=4, coeff=12)
            sp = sum(c * x**i for i, c in enumerate(p.coeffs))
            sq = sum(c * x**i for i, c in enumerate(q.coeffs))
            assert resultant(p, q) == int(sympy.resultant(sp, sq, x))


class TestSquareFree:
    def test_reconstruction(self):
        rng = random.Random(107)
        for _ in range(100):
            p = random_poly(rng, deg_max=3, coeff=6)
            if rng.random() < 0.4:
                p = p * p
            if p.degree < 1:
                continue
            factors = square_free_decomposition(p)
            prod = IntPolynomial((1,))
            for f, mult in factors:
                for _ in range(mult):
                    prod = prod * f
            assert prod == primitive_part(p)
            for f, _ in factors:
                assert poly_gcd(f, f.derivative()).degree == 0

    def test_against_sympy_sqf_list(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(110)
        x = sympy.symbols("x")
        for _ in range(80):
            p = random_poly(rng, deg_max=3, coeff=9)
            for _ in range(rng.randint(0, 2)):
                p = p * random_poly(rng, deg_max=2, coeff=5)
            if rng.random() < 0.5:
                p = p * p
            if p.degree < 1:
                continue
            expr = sum(c * x**i for i, c in enumerate(p.coeffs))
            _, expected = sympy.sqf_list(sympy.Poly(expr, x))
            want = sorted(
                (m, primitive_part(IntPolynomial(int(c) for c in reversed(f.all_coeffs()))).coeffs)
                for f, m in expected
            )
            got = sorted((m, f.coeffs) for f, m in square_free_decomposition(p))
            assert got == want

    def test_exact_div(self):
        p = parse_poly("(x-1)(x-1)(x-2)")
        assert exact_div(p, parse_poly("x-1")) == parse_poly("(x-1)(x-2)")
        with pytest.raises(ValueError):
            exact_div(p, parse_poly("x-5"))


class TestShiftScale:
    def test_examples(self):
        assert shift_scale(X2, 0, 3, 9) == X2
        assert shift_scale(X2, 1, 2, 1) == parse_poly("4x^2+4x+1")
        with pytest.raises(IntegralityError) as exc:
            shift_scale(X2, 1, 2, 4)
        assert exc.value.index == 0
        # (x-1)(x-2)(x-3) at r = 1, d = 2: 8x^3 - 12x^2 + 4x; 8 | x^3 but not x^2
        with pytest.raises(IntegralityError) as exc:
            shift_scale(parse_poly("(x-1)(x-2)(x-3)"), 1, 2, 8)
        assert (exc.value.index, exc.value.numerator, exc.value.divisor) == (1, 4, 8)
        assert shift_scale(parse_poly("(x-1)(x-2)(x-3)"), 1, 2, 4) == parse_poly("2x^3-3x^2+x")

    def test_lam_one_is_composition(self):
        rng = random.Random(108)
        for _ in range(200):
            p = random_poly(rng, deg_max=4, coeff=20)
            r = rng.randint(-30, 30)
            d = rng.randint(1, 10)
            x = rng.randint(-20, 20)
            assert shift_scale(p, r, d, 1)(x) == p(r + d * x)


class TestPreimageSymdiff:
    def test_examples(self):
        assert preimage_symdiff(X2, 100) == (1, 2)
        assert preimage_symdiff(parse_poly("x^2+10x"), 1000) == (4, 32)
        assert preimage_symdiff(parse_poly("2x^2"), 8) == (1, 2)

    def test_brute_oracle(self):
        # independent oracle: plain scan over a safely large range
        rng = random.Random(109)
        for _ in range(100):
            k = rng.randint(1, 3)
            cs = [rng.randint(-15, 15) for _ in range(k)] + [rng.randint(1, 10)]
            p = IntPolynomial(cs)
            x = rng.randint(2, 3000)
            count, bound = preimage_symdiff(p, x)
            pre = {n for n in range(1, 4000) if 0 < p(n) < x}
            m = 0
            while (m + 1) ** k * p.leading <= x:
                m += 1
            interval = set(range(1, m + 1))
            assert count == len(pre ^ interval)
            assert count <= bound

    def test_linear_closed_form(self):
        rng = random.Random(110)
        for _ in range(200):
            a1 = rng.randint(1, 50)
            a0 = rng.randint(-50, 50)
            p = IntPolynomial((a0, a1))
            x = rng.randint(1, 5000)
            count, bound = preimage_symdiff(p, x)
            pre = {n for n in range(1, 6000) if 0 < p(n) < x}
            m = 0
            while (m + 1) * a1 <= x:
                m += 1
            interval = set(range(1, m + 1))
            assert count == len(pre ^ interval)
            assert count <= bound

    def test_requires_positive_leading(self):
        with pytest.raises(ValueError):
            preimage_symdiff(parse_poly("-x^2"), 10)


class TestParse:
    def test_round_trip(self):
        for text in ("x^2-1", "2x^2-5x+3", "(x^3-19)(x^2+x+1)", "0,0,1", "-1,0,1"):
            p = parse_poly(text)
            assert parse_poly(",".join(map(str, p.coeffs))) == p

    def test_json_shape(self):
        j = parse_poly("x^2-1").to_json()
        assert j == {"coeffs": [-1, 0, 1], "degree": 2}

    def test_rejects_garbage(self):
        for bad in ("x^", "x**2", "(x", "x^2 +", "2.5x"):
            with pytest.raises(ValueError):
                parse_poly(bad)
