#!/usr/bin/env python3
"""The derivative-root sieve W(Y).

For each prime p <= Y, gamma(p) is the least power with g' not identically
zero as a function mod p^gamma, and the sieve removes the j(p) root classes
of g' at that modulus.  Survivors are exactly the inputs where Hensel
lifting applies, which is what later restores square-root cancellation in
the complete exponential sums.
"""

import math

from ilab.poly import parse_poly
from ilab.sieve import SieveProfile, brun_compare

for text in ("x^2", "x^3", "(x^3-19)(x^2+x+1)"):
    g = parse_poly(text)
    profile = SieveProfile.build(g, 20)
    print("=" * 72)
    print(f"  SIEVE TABLE for g = {g}, Y = 20")
    print("=" * 72)
    print(f"{'p':>4} {'gamma':>6} {'j':>4}  roots of g' mod p^gamma")
    for p, (gamma, j, roots) in sorted(profile.table.items()):
        shown = list(roots[:8]) + (["..."] if len(roots) > 8 else [])
        print(f"{p:>4} {gamma:>6} {j:>4}  {shown}")
    print(f"  wheel period M = {profile.modulus}")
    print(f"  density prod(1 - j/p^gamma) = {float(profile.density()):.6f}")
    print()

print("=" * 72)
print("  BRUN MAIN-TERM COMPARISON for g = x^2, Y = 20")
print("=" * 72)
profile = SieveProfile.build(parse_poly("x^2"), 20)
print(f"{'X':>10} {'exact':>10} {'main':>14} {'rel_err':>12}")
for X in (10**4, 10**5, 10**6, 10**7):
    cmp = brun_compare(profile, X)
    print(f"{X:>10} {cmp.exact:>10} {cmp.main:>14.2f} {cmp.relative_error:>12.2e}")

print()
print("Counting is exact (one masked pass over min(X, period) residues);")
print("the wheel periodicity makes the main term nearly exact once X passes")
print("the period.")

print()
print("=" * 72)
print("  DENSITY LOWER-BOUND SHAPE (log Y)^(1-k)")
print("=" * 72)
g = parse_poly("x^2")
print(f"{'Y':>6} {'product':>10} {'(log Y)^(1-k)':>14} {'ratio':>8}")
for Y in (10, 100, 1000):
    product = float(SieveProfile.build(g, Y).density())
    floor_value = math.log(Y) ** (1 - g.degree)
    print(f"{Y:>6} {product:>10.5f} {floor_value:>14.5f} {product / floor_value:>8.3f}")
print("\nThe ratio stays bounded away from zero: the sieve never kills more")
print("than a (k-1)/p share per prime.")
