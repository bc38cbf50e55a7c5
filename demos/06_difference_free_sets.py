#!/usr/bin/env python3
"""Difference-free sets: constructions, search, and density tables.

Lower-bound side of the story: sets in [1, N] avoiding polynomial-image
differences.  Multiples of a well-chosen prime give N^(1-1/k); the greedy
scan does better in practice; the base-q digit lift of a good modular set
(the q = 205, |B| = 12 square-free example) gives the best known exponent
c ~ 0.7334 for squares.
"""

from ilab.diffsets import (
    DiffFreeInstance,
    density_table,
    greedy,
    modular_search,
    power_residues,
    ruzsa_exponent,
    ruzsa_lift,
    trivial_multiples,
    verify,
    verify_modular,
)
from ilab.poly import parse_poly

x2 = parse_poly("x^2")

print("=" * 72)
print("  EXACT MODULAR OPTIMA (branch and bound to completion, q <= 32)")
print("=" * 72)
print(f"{'q':>4} {'max |B|':>8} {'optimal':>8}  witness (no difference a square mod q)")
for q in (5, 13, 17, 25, 29, 32):
    res = modular_search(q, 2, mode="exhaustive")
    print(f"{q:>4} {res.size:>8} {str(res.optimal):>8}  {list(res.best)}")

print()
print("=" * 72)
print("  CONSTRUCTIONS AT N = 10^6 (squares forbidden)")
print("=" * 72)
triv = trivial_multiples(10**6, 2)
gr = greedy(10**6, [x2])
print(f"  trivial multiples: |A| = {len(triv):6d}  (p = {min(triv.members)})")
print(f"  greedy scan:       |A| = {len(gr):6d}")
print(f"  both verify: {verify(triv) is None and verify(gr) is None}")

print()
print("=" * 72)
print("  MODULAR SEARCH AT q = 205 (squares mod 205)")
print("=" * 72)
res = modular_search(205, 2, budget=10**9, seed=0, target=12)
print(f"  best |B| = {res.size} (target 12), set = {list(res.best)}")
verified = verify_modular(res.best, 205, power_residues(205, 2))
print(f"  re-verified: {verified}; nodes explored: {res.nodes}")
c = ruzsa_exponent(205, res.size, 2)
print(f"  lift exponent c = (k-1 + log|B|/log q)/k = {c:.4f}")

print()
print("=" * 72)
print("  BASE-q DIGIT LIFTS (always re-verified)")
print("=" * 72)
for B, q in (([0], 2), ([0, 2], 5), (list(res.best), 205)):
    out = ruzsa_lift(B, q, 2, 10**4)
    if isinstance(out, DiffFreeInstance):
        print(
            f"  q = {q:3d}, |B| = {len(B):2d}: lifted set of size {len(out):4d} "
            f"in [1, 10^4], verified difference-free"
        )
    else:
        v = out.violation
        print(
            f"  q = {q:3d}, |B| = {len(B):2d}: REJECTED "
            f"(witness {v.a} - {v.a_prime} = {sum(v.decomposition)})"
        )

print()
print("=" * 72)
print("  DENSITY TABLE (reference shapes use c = 1; shape only)")
print("=" * 72)
rows = density_table([10**3, 10**4, 10**5, 10**6], [x2])
print(f"{'N':>9} {'method':>8} {'size':>7} {'density':>10} {'exp shape':>11}")
for r in rows:
    print(
        f"{r['N']:>9} {r['method']:>8} {r['size']:>7} "
        f"{r['density']:>10.5f} {r['exp_bound_shape']:>11.2e}"
    )
