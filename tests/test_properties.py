"""Property tests of the fast exact paths against their slow references:
shift_scale against Horner composition on polynomial objects, the
first-simple-root scan of choose_root against a full residue scan, and
parse_poly as the inverse of str."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ilab.arith import primes_up_to  # noqa: E402
from ilab.padic import NoRootToDepth, _brute_roots, choose_root  # noqa: E402
from ilab.poly import (  # noqa: E402
    ZERO,
    IntegralityError,
    IntPolynomial,
    parse_poly,
    shift_scale,
    square_free_decomposition,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
PRIMES = primes_up_to(2000)

coefficients = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8)


def horner_composition(p: IntPolynomial, r: int, d: int) -> IntPolynomial:
    """p(r + d*x) by Horner on polynomial objects (the reference path)."""
    inner = IntPolynomial((r, d))
    comp = ZERO
    for c in reversed(p.coeffs):
        comp = comp * inner + IntPolynomial((c,))
    return comp


def reference_shift_scale(p, r, d, lam):
    """Exact division of the reference composition, or the first failing
    (index, numerator, divisor)."""
    comp = horner_composition(p, r, d)
    out = []
    for i, c in enumerate(comp.coeffs):
        q, rem = divmod(c, lam)
        if rem:
            return ("error", i, c, lam)
        out.append(q)
    return IntPolynomial(out)


@PROPERTY
@given(
    cs=coefficients,
    r=st.integers(-10**5, 10**5),
    d=st.integers(1, 10**4),
    prefix=st.integers(0, 8),
    extra=st.integers(1, 12),
)
def test_shift_scale_matches_horner_composition(cs, r, d, prefix, extra):
    p = IntPolynomial(cs)
    comp = horner_composition(p, r, d)
    # lam divides the first prefix+1 coefficients exactly, so both the exact
    # and the IntegralityError outcomes occur, at varying indices
    lam = (math.gcd(*comp.coeffs[: prefix + 1]) or 1) * extra
    assume(lam > 1)
    expected = reference_shift_scale(p, r, d, lam)
    try:
        got = shift_scale(p, r, d, lam)
    except IntegralityError as exc:
        got = ("error", exc.index, exc.numerator, exc.divisor)
    assert got == expected


@st.composite
def polynomial_and_prime(draw):
    """A polynomial with integer roots chosen to collide mod p (so some
    square-free factors have repeated roots mod p), times a random factor,
    possibly squared."""
    p = draw(st.sampled_from(PRIMES))
    base = draw(st.integers(-3 * p, 3 * p))
    h = IntPolynomial((1,))
    for _ in range(draw(st.integers(0, 3))):
        shift = draw(st.sampled_from([0, p, -p, 2 * p, draw(st.integers(-50, 50))]))
        h = h * IntPolynomial((-(base + shift), 1))
    cs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
    h = h * IntPolynomial(cs + [draw(st.integers(1, 5))])
    if draw(st.booleans()):
        h = h * h
    return h, p


@PROPERTY
@given(polynomial_and_prime())
def test_choose_root_j1_is_smallest_simple_root(case):
    h, p = case
    assume(h.degree >= 1)
    factors = square_free_decomposition(h)
    try:
        cert = choose_root(h, p, 3)
    except NoRootToDepth:
        cert = None
    # the oracle: simple roots of each factor mod p, from the full scan
    simple = {}
    for f, _ in factors:
        df = f.derivative()
        simple[f] = [z for z in _brute_roots(f, p) if df.eval_mod(z, p) != 0]
    first, u = factors[0]
    if simple[first]:
        assert cert is not None and cert.factor == first and cert.m == u
        assert cert.j == 1
    if cert is not None:
        assert cert.verify(h)
        if cert.j == 1 and cert.exact_root is None:
            assert cert.v == 0
            assert cert.z == min(simple[cert.factor])


@PROPERTY
@given(cs=st.lists(st.integers(-10**6, 10**6), max_size=8))
@example(cs=[])
@example(cs=[0, 0])
@example(cs=[-5])
@example(cs=[3, 0, -1])
@example(cs=[0, -7, 0, -1])
def test_parse_poly_inverts_str(cs):
    p = IntPolynomial(cs)
    assert parse_poly(str(p)) == p
