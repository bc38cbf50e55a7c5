#!/usr/bin/env python3
"""Auxiliary polynomial families h_d(x) = h(r_d + d x) / lambda(d).

The shift r_d tracks the chosen p-adic roots through the Chinese Remainder
Theorem and the scale lambda(d) absorbs their multiplicities, so every h_d
has integer coefficients and inherits difference-avoidance at scale d.
"""

from ilab.auxiliary import AuxiliaryFamily, content_bound_audit, image_elements
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
print("back A' = {a : x + lambda(q) a in A} avoids I(h_{qd}), by the identity")
print("h_d(s + q n) = lambda(q) * h_{qd}(n) with s = (r_{qd} - r_d) / d:")
print(f"{'q':>4} {'d':>4} {'s':>6} {'n':>4}  h_d(s + q n) == lambda(q) * h_qd(n)")
for q, d in ((2, 3), (3, 2), (5, 4)):
    s = (fam.r_of(q * d) - fam.r_of(d)) // d
    for n in (1, 7):
        lhs = fam.aux_poly(d)(s + q * n)
        rhs = fam.lam(q) * fam.aux_poly(q * d)(n)
        print(f"{q:>4} {d:>4} {s:>6} {n:>4}  {lhs} == {rhs}: {lhs == rhs}")
print("So a difference h_{qd}(n) inside A' is the difference lambda(q) * h_{qd}(n)")
print("inside A, an element of I(h_d).")

print()
print("Image sets I(h_d) truncated to [1, 2000]:")
for d in (1, 2, 3):
    print(f"  I(h_{d}) cap [1,2000] = {image_elements(fam.aux_poly(d), 2000).tolist()}")
