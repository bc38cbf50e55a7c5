#!/usr/bin/env python3
"""Intersective polynomials and p-adic root certificates.

A polynomial is intersective when its image over the naturals contains a
multiple of every modulus, equivalently when it has a p-adic integer root at
every prime.  This demo decides the property (up to a tested bound) for a
gallery of polynomials and inspects the certificates that witness it.
"""

from ilab.padic import choose_roots, is_intersective, roots_mod
from ilab.poly import parse_poly

GALLERY = [
    ("x^2", "integer root 0"),
    ("x^2+1", "no root mod 3: not intersective"),
    ("(x-1)(x-2)", "two integer roots"),
    ("(2x-1)(3x-1)", "rational roots with coprime denominators"),
    ("(x^3-19)(x^2+x+1)", "intersective with NO rational root"),
    ("x^2-2", "root exists only at some primes: not intersective"),
]

print("=" * 72)
print("  INTERSECTIVITY VERDICTS  (primes <= 100, precision depth 6)")
print("=" * 72)
for text, note in GALLERY:
    h = parse_poly(text)
    v = is_intersective(h, prime_bound=100, depth=6)
    extra = ""
    if v.status == "not_intersective":
        extra = f"witness: no roots mod {v.witness_p}^{v.witness_j}"
    elif v.assumptions:
        extra = "large primes recorded as an assumption"
    else:
        extra = "large primes covered exactly"
    print(f"  {text:24s} -> {v.status:16s} {extra:38s} ({note})")

print()
print("Certificate anatomy for the rational-root-free example:")
q = parse_poly("(x^3-19)(x^2+x+1)")
certs = choose_roots(q, [2, 3, 5, 19])
for p in (2, 3, 5, 19):
    c = certs[p]
    print(
        f"  p={p:2d}: residue {c.z} mod {p}^{c.j}, multiplicity {c.m}, "
        f"derivative valuation {c.v}, certifying factor {c.factor}"
    )

print()
print("The p = 3 case needs precision 3^5: every root mod 3^j has derivative")
print("divisible by 9, so the strong-Hensel inequality j >= 2v+1 first holds")
print("at j = 5.  Root counts of h mod 3^j:")
for j in range(1, 6):
    print(f"  mod 3^{j}: {roots_mod(q, [3**j])[3**j]}")

c = certs[3]
print(f"\nLifting the certificate residue to precision 3^9: {c.residue_mod(9)}")
print(f"check: h(z) = 0 mod 3^9?  {q(c.residue_mod(9)) % 3**9 == 0}")
