#!/usr/bin/env python3
"""Auxiliary polynomial families h_d(x) = h(r_d + d x) / lambda(d).

The shift r_d tracks the chosen p-adic roots through the Chinese Remainder
Theorem and the scale lambda(d) absorbs their multiplicities, so every h_d
has integer coefficients and inherits difference-avoidance at scale d.
"""

from ilab.auxiliary import AuxiliaryFamily, content_bound_audit, image_elements, inheritance_check
from ilab.poly import parse_poly

h = parse_poly("(x^3-19)(x^2+x+1)")
fam = AuxiliaryFamily(h)

print("=" * 72)
print("  AUXILIARY FAMILY OF", h)
print("=" * 72)
print(f"{'d':>4} {'r_d':>6} {'lambda':>7}  h_d")
for d in (1, 2, 3, 4, 5, 6, 9, 12, 30):
    print(f"{d:>4} {fam.r_of(d):>6} {fam.lam(d):>7}  {fam.aux_poly(d)}")

print()
print("Leading coefficients obey b_d * lambda(d) = d^k * a_k exactly:")
k = h.degree
for d in (7, 24, 100):
    b = fam.aux_poly(d).leading
    print(f"  d={d:3d}: {b} * {fam.lam(d)} == {d}^{k} * {h.leading}: {b * fam.lam(d) == d**k * h.leading}")

print()
print("Content stays bounded (the coefficients cannot keep gaining common")
print("factors): cont(h_d) <= |Delta|^((k-1)/2) * cont(h) for all d.")
rep = content_bound_audit(fam, 500)
print(f"  |Delta(h)| = {rep.disc_abs}, cont(h) = {rep.base_content}")
print(f"  max cont(h_d) over d <= {rep.d_max}: {rep.max_content} at d = {rep.argmax_d}")
print(f"  worst ratio against the bound: {rep.max_ratio:.3e}  (a violation would have raised)")

print()
print("Inheritance: if A avoids I(h_d) differences, the sub-progression pull-")
print("back A' = {a : x + lambda(q) a in A} avoids I(h_{qd}).  Checking the")
print("contrapositive on a planted instance:")
q, d = 2, 3
lam_q = fam.lam(q)
hqd = fam.aux_poly(q * d)
n = next(n for n in range(1, 10) if hqd(n) > 0)
x = 11
A = {x + lam_q * 1, x + lam_q * (1 + hqd(n))}
held = inheritance_check(A, x, q, fam, d, bound=hqd(n) + 1)
print(f"  planted difference h_{q*d}({n}) = {hqd(n)} in A'; implication held: {held}")
print(f"  (the proof's identity: lambda({q}) * h_{q*d}({n}) appears in I(h_{d}))")

print()
print("Image sets I(h_d) truncated to [1, 2000]:")
for d in (1, 2, 3):
    print(f"  I(h_{d}) cap [1,2000] = {image_elements(fam.aux_poly(d), 2000)}")
