"""Property tests of the fast exact paths against their slow references:
shift_scale against Horner composition on polynomial objects, the batched
roots mod p against evaluation and a plain-Python gcd(x^p - x, f) root
count, the first simple root of a certificate against the full residue scan
roots_mod, the singular-only root lifts, the sieve's gamma against its
definition and its refusal of moduli past that scan, the masked sieve count
against inclusion-exclusion and the mask, the patterned mask against the
mask struck across its whole range, parse_poly as the
inverse of str, the Weyl-sum phase against Fraction arithmetic, the
root-table Weyl terms against exp of that phase, the periodic beta = 0
Weyl sum against brute-force class weights, the local content audit
against a walk over every d, the prefix-sum translate counts against an FFT
correlation and a direct count, the numpy DFSET1 writer and loader
against per-line Python ones, the modular search's numpy warm start
against plain-Python greedy passes, the modular search against the
vertex-orbit loop over the frozen branch-and-bound kernel, and the windowed
greedy construction against the one-position loop."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ilab.arith import primes_up_to, v_p  # noqa: E402
from ilab.auxiliary import AuxiliaryFamily, content_bound_audit  # noqa: E402
from ilab.circle import correlation_counts  # noqa: E402
import ilab.diffsets as diffsets  # noqa: E402
from ilab.diffsets import (  # noqa: E402
    _greedy_passes,
    _pick_restart,
    _random_orders,
    greedy,
    modular_search,
    power_residues,
    verify_modular,
)
import ilab.expsum as expsum  # noqa: E402
from ilab.expsum import RationalPoint, _phases  # noqa: E402
import ilab.padic as padic  # noqa: E402
from ilab.padic import (  # noqa: E402
    NoRootToDepth,
    ResourceLimit,
    choose_roots,
    is_intersective,
    roots_mod,
    roots_mod_primes,
)
from ilab.poly import (  # noqa: E402
    ZERO,
    IntegralityError,
    IntPolynomial,
    parse_poly,
    shift_scale,
    square_free_decomposition,
)
from ilab.setio import load_set, runs_of, save_dfset  # noqa: E402
import ilab.sieve as sieve  # noqa: E402
from ilab.sieve import SieveProfile  # noqa: E402
from test_auxiliary import audit_outcome, per_d_audit  # noqa: E402
from test_circle import direct_correlation_counts, fft_correlation_counts  # noqa: E402
from test_cli import per_line_load_set  # noqa: E402
from test_diffsets import greedy_loop, vertex_orbit_alpha  # noqa: E402
from test_expsum import (  # noqa: E402
    assert_class_weights,
    frozen_periodic_weyl_sum,
    value_bits,
    wheel_period,
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
    cert = choose_roots(h, [p], 3)[p]
    if isinstance(cert, NoRootToDepth):
        cert = None
    assert not isinstance(cert, Exception)
    # the oracle: simple roots of each factor mod p, from the full scan
    simple = {}
    for f, _ in factors:
        df = f.derivative()
        simple[f] = [z for z in roots_mod(f, [p])[p] if df.eval_mod(z, p) != 0]
    first, u = factors[0]
    if simple[first]:
        assert cert is not None and cert.factor == first and cert.m == u
        assert cert.j == 1
    if cert is not None:
        assert cert.verify(h)
        if cert.j == 1 and cert.exact_root is None:
            assert cert.v == 0
            assert cert.z == min(simple[cert.factor])


def lifted_roots(h: IntPolynomial, primes: list[int], depth: int) -> list[tuple]:
    """(f, p, roots) of every _lift_root_level call that choose_roots and
    is_intersective make for h."""
    calls = []
    lift = padic._lift_root_level

    def recording(f, p, roots, j):
        calls.append((f, p, roots))
        return lift(f, p, roots, j)

    with mock.patch.object(padic, "_lift_root_level", recording):
        choose_roots(h, primes, depth)
        try:
            is_intersective(h, max(primes), depth)
        except ResourceLimit:
            pass
    return calls


LIFT_PRIMES = primes_up_to(13)


@st.composite
def colliding_roots(draw):
    """A product of linear factors whose roots agree mod powers of a small
    prime p, times x^2 - p^e u (whose p-adic roots, if any, show only at
    high precision), possibly squared."""
    p = draw(st.sampled_from(LIFT_PRIMES))
    base = draw(st.integers(-20, 20))
    h = IntPolynomial((1,))
    for _ in range(draw(st.integers(0, 3))):
        shift = p ** draw(st.integers(1, 4)) * draw(st.integers(-3, 3))
        h = h * IntPolynomial((-(base + shift), 1))
    if draw(st.booleans()):
        h = h * IntPolynomial((-(p ** draw(st.integers(1, 5))) * draw(st.integers(1, 7)), 0, 1))
    assume(h.degree >= 1)
    if draw(st.booleans()):
        h = h * h
    return h


@PROPERTY
@given(colliding_roots())
@example(parse_poly("x(x-2401)"))  # both roots 0 mod 7^4
@example(parse_poly("x^2-235298"))  # 2 * 7^6: no root at 7 until j = 7
@example(parse_poly("(x^2+9)^3*(x^2+1)"))  # not intersective: scanned at 2, 3, 5, ...
def test_lifted_roots_are_singular(h):
    # a simple root mod p certifies at j = 1, so only singular roots lift
    for f, p, roots in lifted_roots(h, LIFT_PRIMES, 5):
        df = f.derivative()
        assert all(df.eval_mod(r, p) == 0 for r in roots), (f, p, roots)


def test_the_singular_lift_property_reaches_the_lift():
    for text in ("x(x-2401)", "x^2-235298", "(x^2+9)^3*(x^2+1)"):
        assert lifted_roots(parse_poly(text), LIFT_PRIMES, 5), text


@PROPERTY
@given(
    cs=st.lists(st.integers(-9, 9), min_size=2, max_size=6),
    scales=st.lists(st.integers(0, 9), min_size=6, max_size=6),
    lead=st.integers(1, 5),
)
@example(cs=[0, 0], scales=[0] * 6, lead=1)  # x^2: gamma(2) = 2
@example(cs=[0, 0, 1], scales=[0] * 6, lead=1)  # x^4 + x^2: g' = x^3 - x mod 3
def test_gamma_matches_its_definition(cs, scales, lead):
    # coefficients scaled by factorials make g' vanish identically mod
    # prime powers that divide none of its coefficients alone
    coeffs = [c * math.factorial(t) for c, t in zip(cs, scales)]
    g = IntPolynomial(coeffs + [lead * math.factorial(scales[-1])])
    assume(g.degree >= 2)
    dg = g.derivative()
    for p, (gamma, j, roots) in SieveProfile.build(g, 30).table.items():
        below, at = p ** (gamma - 1), p**gamma
        # g' vanishes at every residue mod p^(gamma-1), and not at every one mod p^gamma
        assert all(dg.eval_mod(n, below) == 0 for n in range(below)), (p, gamma)
        assert any(dg.eval_mod(n, at) != 0 for n in range(at)), (p, gamma)
        assert roots == tuple(n for n in range(at) if dg.eval_mod(n, at) == 0)
        assert j == len(roots)


SMALL_PRIMES = primes_up_to(500)
# the largest primes a root scan takes: lane products reach 10^12
NEAR_LIMIT = [999953, 999959, 999961, 999979, 999983]


@st.composite
def square_free_polynomial(draw):
    """A square-free integer polynomial of degree 1 to 6 with coefficients
    in [-50, 50]."""
    cs = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    f = IntPolynomial(cs + [draw(st.integers(-50, 50).filter(bool))])
    factors = square_free_decomposition(f)
    assume(len(factors) == 1 and factors[0][1] == 1)
    return f


@PROPERTY
@given(square_free_polynomial(), st.sampled_from(NEAR_LIMIT))
@example(IntPolynomial([1, 1, 6]), 999983)  # 2 and 3 divide the leading coefficient
@example(IntPolynomial([0, 5, 0, 30]), 999983)  # lc = 30, and f = 5x mod 3
@example(IntPolynomial([5, 5, 5]), 999983)  # f = 0 mod 5: every residue
@example(IntPolynomial([6, -5, 1]), 999983)  # (x-2)(x-3): a double root mod 2 (p | disc)
@example(IntPolynomial([-49, 0, 0, 0, 0, 0, 1]), 999983)  # x^6 - 49: p = 2, 3, 5 <= deg
@example(IntPolynomial([0, -1, 0, 0, 0, 0, 1]), 999983)  # x^6 - x: up to 6 roots to split
def test_roots_mod_primes_match_the_residue_scan(f, big):
    # every prime below 500 and one near the limit, through roots_mod_primes
    # and through its lane path alone wherever that applies (p > deg f)
    primes = SMALL_PRIMES + [big]
    batched = roots_mod_primes(f, primes)
    lanes = padic._lane_roots(f, [p for p in primes if p > f.degree])
    for p in primes:
        for roots in (batched[p], lanes.get(p, batched[p])):
            assert roots == sorted(set(roots)) and all(0 <= r < p for r in roots), p
            assert all(f(r) % p == 0 for r in roots), p
            assert len(roots) == root_count_mod_p(f.coeffs, p), p


def _rem_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p, trimmed; coefficient lists, constant term first, b
    trimmed and nonzero.  Entries of a may be any integers."""
    a, inv, m = a[:], pow(b[-1], -1, p), len(b) - 1
    for top in range(len(a) - 1, m - 1, -1):
        c = a[top] * inv % p
        if c:
            for i in range(m):
                a[top - m + i] -= c * b[i]
    a = [c % p for c in a[:m]]
    while a and a[-1] == 0:
        a.pop()
    return a


def root_count_mod_p(coeffs, p: int) -> int:
    """The number of distinct roots of f mod p, as deg gcd(x^p - x, f mod p)
    (p when f = 0 mod p): x^p mod f by square-and-multiply, then Euclid, in
    plain Python."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return p
    power = [1]  # x^e mod f, e running through the leading bits of p
    for bit in bin(p)[2:]:
        square = [0] * (2 * len(power))
        for i, u in enumerate(power):
            for j, v in enumerate(power):
                square[i + j] += u * v
        power = _rem_mod_p([0] + square if bit == "1" else square, f, p)
    power += [0] * (2 - len(power))
    a, b = f, _rem_mod_p([power[0], power[1] - 1] + power[2:], f, p)
    while b:
        a, b = b, _rem_mod_p(a, b, p)
    return len(a) - 1


def gamma_oracle(g: IntPolynomial, p: int) -> int:
    """1 + the least v_p of the forward differences of g' at 0: g' vanishes
    mod p^e at every integer exactly when p^e divides all of them."""
    vals = [g.derivative()(n) for n in range(g.degree)]
    diffs = []
    while vals:
        diffs.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return 1 + min(v_p(d, p) for d in diffs if d)


@PROPERTY
@given(
    p=st.sampled_from(primes_up_to(50)),
    e=st.integers(0, 24),
    cs=st.lists(st.integers(-20, 20), min_size=2, max_size=5),
    lead=st.integers(1, 9),
    Y=st.integers(2, 50),
)
@example(p=2, e=20, cs=[0, 0], lead=1, Y=3)  # 1048576 x^2: gamma(2) = 22
def test_sieve_refuses_moduli_past_the_scan(p, e, cs, lead, Y):
    # p^e divides every coefficient of g', so gamma(p) > e
    g = IntPolynomial([cs[0]] + [p**e * c for c in cs[1:]] + [p**e * lead])
    gammas = {q: gamma_oracle(g, q) for q in primes_up_to(Y)}
    if any(q**gam > padic.ROOTS_BRUTE_LIMIT for q, gam in gammas.items()):
        with pytest.raises(ResourceLimit):
            SieveProfile.build(g, Y)
    else:
        table = SieveProfile.build(g, Y).table
        assert {q: row[0] for q, row in table.items()} == gammas


@st.composite
def sieve_count_case(draw):
    """A profile of g of degree 2-5 (coefficients in +-20) at Y <= 60, an X
    up to 2 * 10^5 (at a wheel edge L - 1, L, L + 1 or kL + r when the wheel
    L is that short) and a count chunk length, 2^18 or short."""
    degree = draw(st.integers(2, 5))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=degree, max_size=degree))
    g = IntPolynomial(coeffs + [draw(st.integers(-20, 20).filter(bool))])
    profile = SieveProfile.build(g, draw(st.integers(0, 60)))
    L, cap = profile.wheel, 2 * 10**5
    X = draw(st.integers(-2, cap))
    if L * 6 <= cap and draw(st.booleans()):
        X = draw(st.sampled_from([L - 1, L, L + 1, draw(st.integers(1, 5)) * L + draw(st.integers(0, L - 1))]))
    return profile, X, draw(st.sampled_from([sieve.COUNT_CHUNK, 4096, 97]))


@PROPERTY
@given(sieve_count_case())
@example((SieveProfile.build(parse_poly("x^2"), 10), 3 * 420 + 419, 97))
@example((SieveProfile.build(parse_poly("x^2+x"), 2), 10, 97))  # no active prime
@example((SieveProfile.build(parse_poly("x^2"), 60), 0, sieve.COUNT_CHUNK))
def test_masked_count_matches_inclusion_exclusion_and_the_mask(case):
    profile, X, chunk = case
    with mock.patch.object(sieve, "COUNT_CHUNK", chunk):
        got = sieve.enumerate_w(profile, X)
        if X < 1:
            assert got == 0
            return
        assert got == sieve._masked_count(profile, X)
    assert got == sieve._count_avoiding(list(profile._active()), X)
    assert got == int(profile.mask(X + 1)[1:].sum())


@PROPERTY
@given(
    cs=st.lists(st.integers(-20, 20), min_size=2, max_size=5),
    Y=st.integers(0, 60),
    n=st.integers(0, 10**5),
    lo=st.one_of(st.integers(0, 10**4), st.integers(0, 10**12)),
    q=st.one_of(st.none(), st.integers(1, 10**6), st.just("wheel")),
    seed=st.integers(0, 2**32 - 1),
)
def test_patterned_mask_is_the_struck_mask(cs, Y, n, lo, q, seed):
    # the mask with its leading moduli repeated from one period, against
    # every modulus struck across the whole range and against member()
    profile = SieveProfile.build(IntPolynomial(cs + [1]), Y)
    q = profile.wheel if q == "wheel" else q
    got = profile.mask(n, q, lo=lo)
    with mock.patch.object(sieve, "PATTERN_LIMIT", 1):
        assert got.tolist() == profile.mask(n, q, lo=lo).tolist()
    for i in np.random.default_rng(seed).integers(0, max(n, 1), size=min(n, 40)).tolist():
        assert got[i] == profile.member(lo + i, q)


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


@st.composite
def phase_case(draw):
    """g, a/q (q small, or past the int64 Horner limit at q = 3037000507),
    beta (0, +-tiny, 1e-300, 0.5 or any float in [-1, 1]) and the points n:
    int64 Weyl-sum indices, or Python ints past int64 in an object array."""
    g = IntPolynomial(draw(st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=5)))
    q = draw(st.one_of(st.integers(1, 60), st.integers(3037000507, 10**20)))
    a = draw(st.integers(0, q - 1))
    tiny = draw(st.sampled_from([5e-324, 1e-300, 2.0**-60, 1e-9, 3.7e-7]))
    beta = draw(st.one_of(
        st.sampled_from([0.0, 1e-300, 0.5, tiny, -tiny]),
        st.floats(-1, 1, allow_nan=False, allow_infinity=False),
    ))
    if draw(st.booleans()):
        n = np.array(draw(st.lists(st.integers(0, 10**8), max_size=20)), dtype=np.int64)
    else:
        n = np.array(draw(st.lists(st.integers(-10**30, 10**30), max_size=20)), dtype=object)
    return g, a, q, beta, n


@PROPERTY
@given(phase_case())
@example((IntPolynomial([0, 0, 1]), 1, 3, 1e-9, np.arange(10**7 - 5, 10**7, dtype=np.int64)))
@example((IntPolynomial([0, 0, 0, 1]), 7, 3037000507, 0.0, np.arange(1, 6, dtype=np.int64)))
@example((IntPolynomial([0, 0, 1]), 0, 1, 0.5, np.array([0, 10**30], dtype=object)))
def test_weyl_phase_is_the_correctly_rounded_fraction(case):
    # each phase is float(frac(g(n) (a/q + beta))), bit for bit, from Fractions
    g, a, q, beta, n = case
    alpha = Fraction(a, q) + Fraction(beta)
    want = [float(g(t) * alpha % 1).hex() for t in n.tolist()]
    assert [x.hex() for x in _phases(g, a, q, beta, n).tolist()] == want


@st.composite
def intersective_product(draw):
    """c (x - a)^m times up to two small factors, each possibly squared: the
    integer root a makes it intersective; degree >= 2, leading coefficient > 0."""
    a = draw(st.integers(-40, 40))
    h = IntPolynomial((draw(st.integers(1, 6)),))
    for _ in range(draw(st.integers(1, 3))):
        h = h * IntPolynomial((-a, 1))
    for _ in range(draw(st.integers(0, 2))):
        f = IntPolynomial(draw(st.lists(st.integers(-12, 12), min_size=1, max_size=3))
                          + [draw(st.integers(1, 3))])
        h = h * (f * f if draw(st.booleans()) else f)
    assume(h.degree >= 2)
    return h


@PROPERTY
@given(h=intersective_product(), d_max=st.integers(0, 300), depth=st.integers(1, 10))
@example(h=parse_poly("(x-1)^2*(x^2+x+1)^3"), d_max=300, depth=8)
@example(h=parse_poly("x(x-6)"), d_max=300, depth=8)
def test_local_content_audit_matches_the_per_d_walk(h, d_max, depth):
    # the same report, or the same error with the same message
    assert audit_outcome(content_bound_audit, AuxiliaryFamily(h, depth), d_max) == audit_outcome(
        per_d_audit, AuxiliaryFamily(h, depth), d_max
    )


@st.composite
def periodic_weyl_case(draw):
    """g of degree 2-4 with coefficients in +-20, a reduced a/q with q <= 60,
    Y in {0, 5, 10} and X from 0 (X < L leaves c = 0) to six wheel periods
    L <= 3000, with the edges L - 1, L, 2L - 1, 2L, 2L + 1 drawn as often as
    the rest."""
    degree = draw(st.integers(2, 4))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=degree, max_size=degree))
    lead = draw(st.integers(-20, 20).filter(bool))
    g = IntPolynomial(coeffs + [lead])
    q = draw(st.integers(1, 60))
    a = draw(st.sampled_from([x for x in range(q) if math.gcd(x, q) == 1]))
    profile = SieveProfile.build(g, draw(st.sampled_from([0, 5, 10])))
    L = wheel_period(q, profile)
    assume(L <= 3000)
    X = draw(st.one_of(st.sampled_from([L - 1, L, 2 * L - 1, 2 * L, 2 * L + 1]),
                       st.integers(0, 6 * L)))
    return g, RationalPoint(a, q), X, profile, draw(st.booleans())


@PROPERTY
@given(periodic_weyl_case())
@example((parse_poly("x^2"), RationalPoint(1, 3), 2 * 420 + 1, SieveProfile.build(parse_poly("x^2"), 10), True))
@example((parse_poly("x^3-30x^2+11x-7"), RationalPoint(7, 60), 3 * 420 - 1,
          SieveProfile.build(parse_poly("x^3-30x^2+11x-7"), 10), True))
@example((parse_poly("x^2"), RationalPoint(0, 1), 1, SieveProfile.build(parse_poly("x^2"), 0), False))
@example((parse_poly("x^2"), RationalPoint(7, 60), 419, SieveProfile.build(parse_poly("x^2"), 10), True))
def test_periodic_weyl_sum_is_the_class_weight_sum(case):
    # n_terms exact, sum float(C_k) e(k/q) against brute-force class weights
    # (bit for bit while they are int64), and the streamed sum within
    # est_abs_error
    assert_class_weights(*case)


@st.composite
def frozen_weyl_case(draw):
    """g of degree 1-5 with coefficients in +-20, a unit a mod q <= 400,
    no sieve or Y in {0, 5, 10, 20} (0 alone below degree 2), weighted or
    not, and X at L - 1, L, L + 1, 2L or up to 3L, capped at 2 * 10^5."""
    degree = draw(st.integers(1, 5))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=degree, max_size=degree))
    g = IntPolynomial(coeffs + [draw(st.integers(-20, 20).filter(bool))])
    q = draw(st.integers(1, 400))
    a = draw(st.sampled_from([x for x in range(q) if math.gcd(x, q) == 1]))
    Ys = [None, 0, 5, 10, 20] if degree >= 2 else [None, 0]
    Y = draw(st.sampled_from(Ys))
    profile = None if Y is None else SieveProfile.build(g, Y)
    L = wheel_period(q, profile)
    X = draw(st.one_of(st.sampled_from([L - 1, L, L + 1, 2 * L]), st.integers(0, 3 * L)))
    return g, RationalPoint(a, q), min(X, 2 * 10**5), profile, draw(st.booleans())


def float_weight_case(text, a, q, X, Y):
    g = parse_poly(text)
    return g, RationalPoint(a, q), X, SieveProfile.build(g, Y), True


@PROPERTY
@given(frozen_weyl_case())
# float64 weights: one period of 630, the class sums of 7x^5 near 2e28, the
# quintic at 2/5, and one class of 315888 members past a wheel wider than X
@example(float_weight_case("x^3", 1, 3, 10**8, 10))
@example(float_weight_case("7x^5", 1, 3, 5 * 10**5, 5))
@example(float_weight_case("(x^3-19)(x^2+x+1)", 2, 5, 10**6, 10))
@example(float_weight_case("x^3", 0, 1, 2 * 10**6, 30))
def test_class_weight_sum_matches_the_frozen_walk(case):
    # value bits and n_terms of the two-range walk read out by _unit_sums
    # against the one-range walk with a tail mask that bins by g(r) a mod q
    res = expsum._periodic_weyl_sum(*case)
    assert value_bits(res.value, res.n_terms) == value_bits(*frozen_periodic_weyl_sum(*case))


@st.composite
def correlation_case(draw):
    """L, q (dividing L or not, up to L), X up to L // q, and B in [1, L]: a
    seeded subset at a drawn density, all of [1, L], or a single member."""
    L = draw(st.integers(1, 2000))
    q = draw(st.one_of(st.integers(1, min(L, 40)), st.integers(1, L)))
    X = draw(st.one_of(st.just(max(1, L // q)), st.integers(1, max(1, L // q))))
    kind = draw(st.sampled_from(["sparse", "half", "dense", "full", "single"]))
    if kind == "single":
        return L, q, X, {draw(st.integers(1, L))}
    density = {"sparse": 0.02, "half": 0.5, "dense": 0.95, "full": 1.0}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = set((np.flatnonzero(rng.random(L) < density) + 1).tolist())
    return L, q, X, B or {L}


@PROPERTY
@given(correlation_case())
@example((1000, 7, 1000 // 7, set(range(7, 1001, 7))))  # q does not divide L
@example((97, 5, 97 // 5, {3, 50, 97}))
@example((50, 3, 16, {50}))  # |B| = 1 on the 0 slot
@example((1, 1, 1, {1}))
def test_correlation_counts_match_fft_and_direct_counts(case):
    L, q, X, B = case
    got = correlation_counts(B, L, q, X).tolist()
    assert got == fft_correlation_counts(B, L, q, X).tolist()
    assert got == direct_correlation_counts(B, L, q, X).tolist()


def reference_runs(members):
    """(start, length) of the maximal runs, one member at a time."""
    out = []
    for m in sorted(set(members)):
        if out and m == out[-1][0] + out[-1][1]:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((m, 1))
    return out


def load_outcome(path):
    """(load_set's result, the per-line loader's), each a value or an
    exception type."""
    outs = []
    for loader in (load_set, per_line_load_set):
        try:
            outs.append(loader(path))
        except (ValueError, ResourceLimit) as exc:
            outs.append(type(exc))
    return outs


@pytest.fixture(scope="module")
def set_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sets")


@PROPERTY
@given(
    members=st.one_of(
        st.lists(st.integers(1, 400), max_size=80),  # unsorted, duplicates, empty
        st.builds(lambda s, n: list(range(s, s + n)), st.integers(1, 10**6), st.integers(1, 300)),
    ),
    N=st.integers(0, 10**6),
)
@example(members=[], N=0)
@example(members=[9, 3, 3, 4, 5, 1], N=10)
def test_dfset_round_trip_matches_the_per_line_code(set_dir, members, N):
    path = set_dir / "members.dfset"
    save_dfset(path, members, N)
    runs = reference_runs(members)
    assert runs_of(members) == runs
    assert path.read_text() == "".join(f"{s} {n}\n" for s, n in [("DFSET1", N)] + runs)
    got, want = load_outcome(path)
    assert got == want == (sorted(set(members)), N)


PAD = st.text(" \t", max_size=2)
RUN = st.builds("{} {}".format, st.integers(-20, 10**6), st.integers(1, 40))
BAD_LINES = ["5 0", "5 -3", "7", "1 2 3", "a b", "1.5 2", "0x10 2", "1 #2", "4 2 # tail", "--1 2"]


@st.composite
def set_file(draw):
    """A DFSET1 or plain set file: comments, blank lines and padding around
    well-formed lines, sometimes one malformed line or header, and either line
    ending."""
    comment = st.builds("#{}".format, st.text("DFSET1 09#ab", max_size=8))
    lines = draw(st.lists(st.one_of(comment, st.just("")), max_size=2))
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(
            ["DFSET1 {}", "DFSET1 {}", "DFSET1 {}", "DFSET1", "DFSET1 12 13", "DFSET1 x",
             "DFSET1X {}"])).format(draw(st.integers(0, 10**6))))
        body = RUN
    else:
        body = st.builds(str, st.integers(-10, 10**6))  # plain
    lines += draw(st.lists(st.one_of(body, body, comment, st.just("")), max_size=12))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    lines = [draw(PAD) + ln + draw(PAD) for ln in lines]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@PROPERTY
@given(set_file())
@example("DFSET1 10\n5 -3\n")
@example("DFSET1 10\n1 2\n5 0\n")
@example("# c\n\n  DFSET1 60\t\n 2 3\n#x\n\n10 1\n50 2\n4 1")
@example("DFSET1 10\n1 2 # tail\n")
@example("  \n# only comments\n")
@example("3\n1\n# c\n2\n")
def test_load_set_matches_the_per_line_loader(set_dir, text):
    # the same members and N, or the same exception type
    path = set_dir / "drawn.txt"
    path.write_bytes(text.encode())
    got, want = load_outcome(path)
    assert got == want


def plain_greedy_pass(order, closed):
    """Admit each vertex of order unless an admitted one is adjacent to it,
    one vertex at a time; closed[v][u] is adjacency with the diagonal set."""
    admitted, banned = [], set()
    for v in order:
        if v not in banned:
            admitted.append(v)
            banned.update(u for u, near in enumerate(closed[v]) if near)
    return sorted(admitted)


def first_best_restart(sizes, target):
    """The restart a sequential warm start keeps: it replaces its set only by
    a strictly larger one and stops once that reaches target."""
    best, pick = 0, None
    for i, size in enumerate(sizes):
        if size > best:
            best, pick = size, i
        if target is not None and best >= target:
            break
    return pick


@st.composite
def warm_start_case(draw):
    """A graph on q <= 40 vertices (a Cayley graph of Z/q or a seeded random
    symmetric one) as a closed bool adjacency, rows of vertex orders (drawn
    permutations or _random_orders rows), and a target or None."""
    q = draw(st.integers(1, 40))
    idx = np.arange(q)
    if draw(st.booleans()):
        conn = draw(st.sets(st.integers(0, q - 1), max_size=q))
        near = np.zeros(q, dtype=bool)
        near[[0, *conn, *((-c) % q for c in conn)]] = True
        closed = near[(idx[None, :] - idx[:, None]) % q]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(rng.random((q, q)) < draw(st.sampled_from([0.05, 0.3, 0.7])), 1)
        closed = upper | upper.T | np.eye(q, dtype=bool)
    if draw(st.booleans()):
        orders = np.array(
            draw(st.lists(st.permutations(range(q)), min_size=1, max_size=12)), dtype=np.int16
        ).reshape(-1, q)
    else:
        orders = _random_orders(q, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)))
    target = draw(st.one_of(st.none(), st.integers(0, q + 1)))
    return closed, orders, target


@PROPERTY
@given(warm_start_case(), st.lists(st.integers(1, 6), min_size=1, max_size=12))
@example((np.ones((1, 1), dtype=bool), np.zeros((3, 1), dtype=np.int16), None), [1])
def test_warm_start_rows_are_plain_greedy_passes(case, drawn_sizes):
    closed, orders, target = case
    admitted = _greedy_passes(orders, closed)
    expected = [plain_greedy_pass(row, closed.tolist()) for row in orders.tolist()]
    assert [np.flatnonzero(row).tolist() for row in admitted] == expected
    sizes = [len(row) for row in expected]
    assert _pick_restart(admitted.sum(axis=1), target) == first_best_restart(sizes, target)
    # the selection rule alone, on sizes with more ties and more targets hit
    got = _pick_restart(np.array(drawn_sizes), target)
    assert got == first_best_restart(drawn_sizes, target)


@PROPERTY
@given(st.integers(2, 90), st.sampled_from([2, 3, 4]), st.integers(0, 60), st.integers(0, 3))
@example(80, 4, 0, 0)  # the vertex-orbit loop is cut at 10^6 nodes here
@example(7, 2, 0, 0)  # no non-neighbour of 0: alpha = 1
def test_modular_search_matches_the_vertex_orbit_loop(q, k, budget, seed):
    res = modular_search(q, k)
    assert res.optimal and res.upper_bound == res.size and res.best[0] == 0
    assert verify_modular(res.best, q, power_residues(q, k))
    size, _, exhausted = vertex_orbit_alpha(q, k, budget=10**6)
    assert size == res.size if exhausted else size <= res.size
    # a search cut by its budget stays between the optimum's bounds
    cut = modular_search(q, k, budget=budget, seed=seed)
    assert cut.size <= res.size <= cut.upper_bound
    assert cut.optimal or cut.nodes == budget + 1
    assert verify_modular(cut.best, q, power_residues(q, k))


@st.composite
def greedy_case(draw):
    """One or two generators of degree 1-3 (coefficients low to high) and
    N <= 3000, or <= 800 with two generators, whose pair sums are formed in
    Python."""
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(1, 3))
        lead = draw(st.integers(-4, 4).filter(bool))
        gens.append(draw(st.lists(st.integers(-30, 30), min_size=degree, max_size=degree)) + [lead])
    return draw(st.integers(1, 3000 if len(gens) == 1 else 800)), gens


@pytest.mark.parametrize(
    "width, block", [(None, None), (1, 1), (3, 5), (8, 64)], ids=["default", "w1", "w3", "w8"]
)
@PROPERTY
@given(greedy_case())
@example((1, [[0, 1]]))  # N = 1: F is empty
@example((2000, [[5000, 0, 0, 1]]))  # x^3 + 5000: F is empty
@example((3000, [[0, 1]]))  # F[0] = 1 and F is everything below N
@example((3000, [[1, -1, 1]]))  # x^2 - x + 1: F[0] = 1, sparse
@example((3000, [[600, 0, 1]]))  # min F = 601 >= the default window
@example((1023, [[0, 0, 1]]))  # N at multiples of the default window, +- 1
@example((1024, [[0, 0, 1]]))
@example((1025, [[0, 0, 1], [0, 0, 1]]))
def test_windowed_greedy_matches_the_loop(width, block, case):
    N, coeffs = case
    gens = [IntPolynomial(c) for c in coeffs]
    with mock.patch.object(diffsets, "GREEDY_CHUNK", width or diffsets.GREEDY_CHUNK), \
            mock.patch.object(diffsets, "GREEDY_BLOCK", block or diffsets.GREEDY_BLOCK):
        assert sorted(greedy(N, gens).members) == greedy_loop(N, gens)
