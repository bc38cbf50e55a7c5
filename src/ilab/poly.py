"""Exact integer-polynomial algebra.

Coefficients are arbitrary-precision Python integers throughout; nothing in
this module touches floating point.  The distinct-root discriminant follows
the convention where repeated complex roots contribute through their
multiplicity exponents, so it never vanishes for a nonzero polynomial
(the classical discriminant is available separately).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .arith import floor_nth_root_fraction


class IntegralityError(ValueError):
    """A shift-scale division produced a non-integer coefficient."""

    def __init__(self, index: int, numerator: int, divisor: int):
        self.index = index
        self.numerator = numerator
        self.divisor = divisor
        super().__init__(
            f"coefficient {numerator} of x^{index} is not divisible by {divisor}"
        )


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[i] is the coefficient of x^i.

    Trailing zeros are stripped on construction; the zero polynomial has an
    empty coefficient tuple and degree -1 (sentinel).
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c)}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(self.coeff(i) - other.coeff(i) for i in range(n))

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def eval_mod(self, x: int, m: int) -> int:
        """Horner evaluation with reduction mod m at every step."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    # -- presentation ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "degree": self.degree}

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append(sign + body)
        return "".join(parts)


ZERO = IntPolynomial(())
X = IntPolynomial((0, 1))


# -- text format ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|x|\^|\*|\+|-|\(|\))")


def parse_poly(text: str) -> IntPolynomial:
    """Parse the CLI polynomial format.

    Either a comma-separated coefficient list "a0,a1,...,ak" (constant first)
    or a human form over x with integer coefficients, e.g. "x^2-1",
    "2x^2-5x+3", "(x^3-19)(x^2+x+1)".
    """
    s = text.strip()
    if "x" not in s:
        try:
            return IntPolynomial(int(p.strip()) for p in s.split(","))
        except ValueError as e:
            raise ValueError(f"bad coefficient list {text!r}") from e

    tokens: list[str] = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ValueError(f"bad polynomial syntax near {s[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    idx = 0

    def peek() -> str:
        return tokens[idx]

    def take() -> str:
        nonlocal idx
        t = tokens[idx]
        idx += 1
        return t

    def parse_expr() -> IntPolynomial:
        acc = parse_term()
        while peek() in "+-":
            op = take()
            t = parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term() -> IntPolynomial:
        sign = 1
        while peek() in "+-":
            if take() == "-":
                sign = -sign
        acc = parse_power()
        # implicit multiplication: ")(", "2x", ")x", "2(" ...
        while True:
            t = peek()
            if t == "*":
                take()
                acc = acc * parse_power()
            elif t == "(" or t == "x" or t.isdigit():
                acc = acc * parse_power()
            else:
                break
        return acc * sign if sign < 0 else acc

    def parse_power() -> IntPolynomial:
        base = parse_atom()
        if peek() == "^":
            take()
            e = take()
            if not e.isdigit():
                raise ValueError("exponent must be a non-negative integer")
            out = IntPolynomial((1,))
            for _ in range(int(e)):
                out = out * base
            return out
        return base

    def parse_atom() -> IntPolynomial:
        t = take()
        if t == "(":
            inner = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if t == "x":
            return X
        if t.isdigit():
            return IntPolynomial((int(t),))
        raise ValueError(f"unexpected token {t!r}")

    out = parse_expr()
    if peek() != "$":
        raise ValueError(f"trailing input near {tokens[idx]!r}")
    return out


# -- domain operations -------------------------------------------------------


def content(p: IntPolynomial) -> int:
    """gcd of the non-constant coefficients (the constant term is excluded)."""
    if p.degree < 1:
        raise ValueError("content requires degree >= 1")
    return math.gcd(*p.coeffs[1:])


def shift_scale(p: IntPolynomial, r: int, d: int, lam: int) -> IntPolynomial:
    """p(r + d*x) / lam with exact coefficient division.

    Raises IntegralityError (carrying the offending index) when some
    coefficient of p(r + d*x) is not divisible by lam; that signals an
    (r, d, lam) triple not arising from a genuine auxiliary construction.
    """
    if d < 1 or lam < 1:
        raise ValueError("d and lam must be positive")
    # Taylor shift p(x + r) by repeated synthetic division, on plain ints
    a = list(p.coeffs)
    k = len(a) - 1
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            a[j] += r * a[j + 1]
    out = []
    dpow = 1
    for i, c in enumerate(a):
        c *= dpow
        q, rem = divmod(c, lam)
        if rem:
            raise IntegralityError(i, c, lam)
        out.append(q)
        dpow *= d
    return IntPolynomial(out)


def preimage_symdiff(p: IntPolynomial, x) -> tuple[int, int]:
    """Size of {n >= 1 : 0 < p(n) < x} symmetric-difference [1, floor((x/a_k)^(1/k))].

    Returns (count, 3*floor(R)+2) with R = (|a_0|+...+|a_{k-1}|)/a_k.  The
    count is obtained by direct enumeration (closed form for linear p) and is
    always bounded by the second component.
    """
    if p.degree < 1:
        raise ValueError("preimage_symdiff requires degree >= 1")
    if p.leading <= 0:
        raise ValueError("preimage_symdiff requires positive leading coefficient")
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    k = p.degree
    ak = p.leading
    R = Fraction(sum(abs(c) for c in p.coeffs[:-1]), ak)
    bound = 3 * (R.numerator // R.denominator) + 2
    m = floor_nth_root_fraction(x / ak, k)
    interval = set(range(1, m + 1))

    if k == 1:
        # 0 < a1*n + a0 < x is a single integer interval; compare intervals directly
        a0 = Fraction(p.coeff(0))
        lo = max(1, math.floor(-a0 / ak) + 1)
        hi_f = (x - a0) / ak
        hi = hi_f.numerator // hi_f.denominator
        if hi_f == hi:
            hi -= 1  # strict inequality
        def ival_len(a, b):
            return max(0, b - a + 1)
        inter = ival_len(max(lo, 1), min(hi, m))
        count = ival_len(lo, hi) + m - 2 * inter
        return count, bound

    cutoff = m + (R.numerator // R.denominator) + 2
    pre = {n for n in range(1, cutoff + 1) if 0 < p(n) < x}
    count = len(pre ^ interval)
    return count, bound


# -- gcd / square-free machinery ---------------------------------------------


def full_content(p: IntPolynomial) -> int:
    """gcd of all coefficients (positive), 0 for the zero polynomial."""
    return math.gcd(*p.coeffs) if p.coeffs else 0


def primitive_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by its full content, normalized to positive leading coefficient."""
    if p.is_zero:
        return ZERO
    c = full_content(p)
    out = IntPolynomial(x // c for x in p.coeffs)
    return -out if out.leading < 0 else out


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder of a by b (b nonzero)."""
    lb = b.leading
    db = b.degree
    r = a
    while not r.is_zero and r.degree >= db:
        shift = r.degree - db
        factor = r.leading
        r = r * lb - IntPolynomial([0] * shift + list(b.coeffs)) * factor
    return r


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """gcd over Q represented by a primitive positive-leading integer polynomial."""
    if a.is_zero:
        return primitive_part(b)
    if b.is_zero:
        return primitive_part(a)
    a, b = primitive_part(a), primitive_part(b)
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, primitive_part(r)
    return a


def exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact polynomial division a / b; raises if not divisible."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    out = [0] * max(0, a.degree - b.degree + 1)
    r = a
    while not r.is_zero and r.degree >= b.degree:
        q, rem = divmod(r.leading, b.leading)
        if rem:
            raise ValueError("inexact polynomial division")
        shift = r.degree - b.degree
        out[shift] = q
        r = r - IntPolynomial([0] * shift + [c * q for c in b.coeffs])
    if not r.is_zero:
        raise ValueError("inexact polynomial division")
    return IntPolynomial(out)


def square_free_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun decomposition of the primitive part: returns [(f_i, i), ...] with
    each f_i squarefree, pairwise coprime, and primitive_part(p) = prod f_i^i.
    """
    if p.degree < 1:
        raise ValueError("square-free decomposition requires degree >= 1")
    f = primitive_part(p)
    fp = f.derivative()
    g = poly_gcd(f, fp)
    if g.degree == 0:
        return [(f, 1)]
    out = []
    b = exact_div(f, g)
    c = exact_div(fp, g)
    i = 1
    d = c - b.derivative()
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = exact_div(b, a)
        c = exact_div(d, a)
        d = c - b.derivative()
        i += 1
    return out


# -- resultants and discriminants ---------------------------------------------


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g) via the Sylvester determinant, exact."""
    if f.is_zero or g.is_zero:
        return 0
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    size = n + m
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([0] * i + fc + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gc + [0] * (size - m - 1 - i))
    return _bareiss_det(rows)


def classical_discriminant(p: IntPolynomial) -> int:
    """(-1)^(k(k-1)/2) Res(p, p') / lc(p); zero iff p has a repeated complex root."""
    if p.degree < 2:
        raise ValueError("classical discriminant requires degree >= 2")
    k = p.degree
    r = resultant(p, p.derivative())
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, p.leading)
    if rem:
        raise ArithmeticError("discriminant division was not exact")
    return q


def discriminant_abs(p: IntPolynomial) -> int:
    """|Delta(p)| for the distinct-root discriminant.

    With p = a (x-a_1)^{e_1} ... (x-a_r)^{e_r} over C (a_i distinct),
    Delta(p) = a^(2k-2) prod_{i != i'} (a_i - a_{i'})^{e_i e_{i'}}.
    Computed exactly from the Yun decomposition via resultants; never zero
    for nonzero p of degree >= 2 (a polynomial with a single distinct root
    contributes only the leading-coefficient power).
    """
    if p.degree < 2:
        raise ValueError("discriminant_abs requires degree >= 2")
    k = p.degree
    a = abs(p.leading)
    factors = square_free_decomposition(p)
    val = Fraction(a ** (2 * k - 2))
    for i, (f, u) in enumerate(factors):
        mf = f.degree
        if mf >= 2:
            df = abs(classical_discriminant(f))
            val *= Fraction(df, abs(f.leading) ** (2 * mf - 2)) ** (u * u)
        for g, v in factors[i + 1 :]:
            r = resultant(f, g)
            val *= Fraction(
                r * r, f.leading ** (2 * g.degree) * g.leading ** (2 * f.degree)
            ) ** (u * v)
    if val.denominator != 1:
        raise ArithmeticError("distinct-root discriminant was not an integer")
    return val.numerator
