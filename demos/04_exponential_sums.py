#!/usr/bin/env python3
"""Sieved complete exponential sums and their square-root cancellation.

The headline effect: restricting a complete sum mod q to the sieved classes
W^q(Y) forces exact vanishing at prime powers p^j with j >= 2 gamma(p) (the
Hensel bijection makes the inner sum a full run over roots of unity), and
|S| <= C^omega(q) sqrt(q) for q <= Y.  The unsieved sums only manage
q^(1-1/k).  A major-arc asymptotic and empirical moment sums round it out.
"""

import math

from ilab.expsum import (
    RationalPoint,
    complete_sum,
    crt_split,
    major_arc_asymptotic,
    moment_sum,
    sqrt_cancel_audit,
)
from ilab.poly import parse_poly
from ilab.sieve import SieveProfile

x2 = parse_poly("x^2")
x3 = parse_poly("x^3")

print("=" * 72)
print("  GAUSS MAGNITUDE (unsieved): |sum e(s^2 a/p)| = sqrt(p)")
print("=" * 72)
for p in (7, 101, 1009):
    v = abs(complete_sum(x2, RationalPoint(1, p)).value)
    print(f"  p = {p:5d}: |S| = {v:.9f}, sqrt(p) = {math.sqrt(p):.9f}")

print()
print("=" * 72)
print("  EXACT VANISHING AT HIGH PRIME POWERS (sieved)")
print("=" * 72)
profile = SieveProfile.build(x2, 20)
for q in (9, 25, 27, 49):
    full = abs(complete_sum(x2, RationalPoint(1, q)).value)
    sieved = abs(complete_sum(x2, RationalPoint(1, q), sieve=profile).value)
    print(f"  q = {q:3d}: unsieved |S| = {full:8.4f}   sieved |S| = {sieved:.2e}")
print("\nThe sieved sums vanish to rounding error: j >= 2 gamma(p) makes the")
print("inner sum a complete run over p^(j - 2 gamma + 1)-th roots of unity.")

print()
print("=" * 72)
print("  CRT FACTORIZATION OF a/q INTO SIEVE CLASSES")
print("=" * 72)
for a, q in ((7, 360), (1, 9), (3, 44)):
    parts = crt_split(RationalPoint(a, q), profile)
    pieces = " + ".join(f"{p.a}/{p.q}[{tag}]" for p, tag in parts)
    full = complete_sum(x2, RationalPoint(a, q), sieve=profile).value
    prod = 1 + 0j
    for part, _ in parts:
        prod *= complete_sum(x2, part, sieve=profile).value
    print(f"  {a}/{q} = {pieces}   |S - prod(S_i)| = {abs(full - prod):.2e}")

print()
print("=" * 72)
print("  SQUARE-ROOT CANCELLATION AUDIT, g = x^3, q <= 60, Y = 60")
print("=" * 72)
rows, summary = sqrt_cancel_audit(x3, 60, 60, seed=0)
worst = {}
for row in rows:
    worst[row["q"]] = max(worst.get(row["q"], 0.0), row["ratio_sqrt"])
shown = [3, 9, 10, 27, 30, 49, 60]
print(f"{'q':>5} {'max |S|/sqrt(q)':>16}")
for q in shown:
    print(f"{q:>5} {worst[q]:>16.4f}")
print(f"  fitted C against gcd(cont,q)^3 C^omega(q): {summary['fitted_C']:.3f}")

print()
print("=" * 72)
print("  MAJOR-ARC ASYMPTOTIC, g = x^2, Y = 10, beta = 0")
print("=" * 72)
print(f"{'(a,q)':>8} {'X':>8} {'relative error':>16}")
for a, q in ((0, 1), (1, 3), (2, 5)):
    for X in (10**3, 10**4, 10**5):
        res = major_arc_asymptotic(x2, RationalPoint(a, q), 0.0, X, profile)
        print(f"  ({a},{q})  {X:>8} {res.rel_err:>16.5f}")

print()
print("=" * 72)
print("  EMPIRICAL MOMENT SUMS sum_t |S(t)|^m, g = x^2, Y = 10")
print("=" * 72)
pr = SieveProfile.build(x2, 10)
print(f"{'L':>8} {'m=2':>12} {'m=6':>12}")
for L in (3 * 10**3, 3 * 10**4, 3 * 10**5):
    print(f"{L:>8} {moment_sum(x2, L, 2, pr):>12.4f} {moment_sum(x2, L, 6, pr):>12.6f}")
print("\nm = 2 grows like sqrt(L) (sub-critical), while the high moment m = 6")
print("stays bounded -- the shape the inner iteration leans on.")
