"""Acceptance checks.

Each check_N function runs one acceptance criterion at its stated tolerance
and returns a JSON-able dict with a "passed" flag and supporting numbers.
`run_acceptance` executes all of them (quick mode shrinks sample sizes but
never tolerances) and is what both the pytest acceptance module and the CLI
selftest consume.  Everything is seeded and sequential, so the output is
byte-stable for a fixed (quick, seed) pair.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .arith import primes_up_to
from .auxiliary import AuxiliaryFamily, content_bound_audit
from .circle import (
    Progression,
    classify,
    dft_indicator,
    extract_progression,
)
from .diffsets import (
    DiffFreeInstance,
    brute_force_verify,
    modular_search,
    power_residues,
    ruzsa_exponent,
    trivial_multiples,
    verify,
    verify_modular,
)
from .expsum import RationalPoint, complete_sum, crt_split, major_arc_asymptotic
from .padic import is_intersective
from .poly import IntPolynomial, parse_poly, preimage_symdiff
from .sieve import SieveProfile, brun_compare

X2 = parse_poly("x^2")
X3 = parse_poly("x^3")
H2 = parse_poly("2x^2-5x+3")
QUINTIC = parse_poly("(x^3-19)(x^2+x+1)")


def check_1_intersectivity(quick: bool = False) -> dict:
    """x^2 intersective; x^2+1 not with witness p=3; quintic intersective
    at all primes <= 100, depth 6."""
    v1 = is_intersective(X2, 100, 6)
    v2 = is_intersective(parse_poly("x^2+1"), 100, 6)
    v3 = is_intersective(QUINTIC, 100, 6)
    certs_ok = all(c.verify(QUINTIC) for c in v3.certs.values())
    passed = (
        v1.status == "intersective"
        and v2.status == "not_intersective"
        and v2.witness_p == 3
        and v3.status == "intersective"
        and len(v3.certs) == len(primes_up_to(100))
        and certs_ok
    )
    return {
        "criterion": 1,
        "name": "intersectivity verdicts",
        "passed": passed,
        "x2": v1.status,
        "x2p1_witness": [v2.witness_p, v2.witness_j],
        "quintic_certs": len(v3.certs),
    }


def check_2_gauss(quick: bool = False) -> dict:
    """|complete_sum(x^2, a, p)| = sqrt(p) within 1e-6 relative, for every odd
    prime p < 2000 and 10 sampled a coprime to p."""
    bound = 500 if quick else 2000
    rng = random.Random(2)
    worst = 0.0
    count = 0
    for p in primes_up_to(bound):
        if p == 2:
            continue
        sample = range(1, p) if p <= 11 else rng.sample(range(1, p), 10)
        for a in sorted(sample):
            v = abs(complete_sum(X2, RationalPoint(a, p)).value)
            worst = max(worst, abs(v - math.sqrt(p)) / math.sqrt(p))
            count += 1
    return {
        "criterion": 2,
        "name": "Gauss magnitude",
        "passed": worst <= 1e-6,
        "prime_bound": bound,
        "pairs": count,
        "worst_rel": worst,
    }


def check_3_vanishing(quick: bool = False) -> dict:
    """Exact vanishing of the sieved complete sum mod p^j for j >= 2 gamma(p)."""
    p_max = 7 if quick else 13
    rng = random.Random(3)
    worst = 0.0
    cases = 0
    for g in (X2, X3, H2, QUINTIC):
        profile = SieveProfile.build(g, 20)
        for p in primes_up_to(p_max):
            gamma = profile.table[p][0]
            for j in range(2 * gamma, 2 * gamma + 3):
                q = p**j
                units = [b for b in range(1, p) if b % p]
                bs = units if len(units) <= 5 else rng.sample(units, 5)
                for b in sorted(bs):
                    res = complete_sum(g, RationalPoint(b % q, q), sieve=profile)
                    worst = max(worst, abs(res.value) / q)
                    cases += 1
    return {
        "criterion": 3,
        "name": "exact vanishing (q3 class)",
        "passed": worst <= 1e-9,
        "cases": cases,
        "worst_scaled": worst,
    }


def check_4_crt(quick: bool = False) -> dict:
    """complete_sum equals the product over its crt_split parts, 1e-9*q."""
    n_cases = 120 if quick else 500
    rng = random.Random(4)
    polys = [X2, X3, H2, QUINTIC, parse_poly("x^4+x+1")]
    worst = 0.0
    for _ in range(n_cases):
        g = rng.choice(polys)
        q = rng.randint(2, 10**4)
        a = rng.randrange(q)
        while math.gcd(a, q) != 1:
            a = rng.randrange(q)
        profile = SieveProfile.build(g, rng.choice([5, 10, 20]))
        pt = RationalPoint(a, q)
        full = complete_sum(g, pt, sieve=profile).value
        prod = 1 + 0j
        for part, _tag in crt_split(pt, profile):
            prod *= complete_sum(g, part, sieve=profile).value
        worst = max(worst, abs(full - prod) / q)
    return {
        "criterion": 4,
        "name": "CRT factorization",
        "passed": worst <= 1e-9,
        "cases": n_cases,
        "worst_scaled": worst,
    }


def check_5_content(quick: bool = False) -> dict:
    """cont(h_d) <= |Delta(h)|^((k-1)/2) cont(h) for the three nonlinear
    families, all d <= 500, with h_d integrality never failing."""
    d_max = 120 if quick else 500
    reports = {}
    for label, h in (("x^2", X2), ("(x-1)(x-2)", parse_poly("(x-1)(x-2)")), ("quintic", QUINTIC)):
        fam = AuxiliaryFamily(h)
        rep = content_bound_audit(fam, d_max)  # raises on violation
        reports[label] = {"max_content": rep.max_content, "disc": rep.disc_abs}
    return {
        "criterion": 5,
        "name": "content bound audit",
        "passed": True,
        "d_max": d_max,
        "families": reports,
    }


def check_6_preimage(quick: bool = False) -> dict:
    """Symmetric-difference count <= 3 floor(R) + 2 for random polynomials."""
    n_cases = 250 if quick else 1000
    rng = random.Random(6)
    worst_margin = None
    for _ in range(n_cases):
        k = rng.randint(1, 5)
        coeffs = [rng.randint(-50, 50) for _ in range(k)] + [rng.randint(1, 50)]
        p = IntPolynomial(coeffs)
        x = rng.randint(1, 10**6)
        count, bound = preimage_symdiff(p, x)
        if count > bound:
            return {
                "criterion": 6,
                "name": "preimage symmetric difference bound",
                "passed": False,
                "counterexample": {"coeffs": coeffs, "x": x, "count": count, "bound": bound},
            }
        margin = bound - count
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    return {
        "criterion": 6,
        "name": "preimage symmetric difference bound",
        "passed": True,
        "cases": n_cases,
        "min_margin": worst_margin,
    }


def check_7_brun(quick: bool = False) -> dict:
    """Brun main-term accuracy at g=x^2, Y=20, X=1e7, plus exact periodicity."""
    X = 10**6 if quick else 10**7
    profile = SieveProfile.build(X2, 20)
    brun = brun_compare(profile, X)
    M = profile.modulus
    rng = random.Random(7)
    probes = 2000 if quick else 10**4
    periodic = all(
        profile.member(n) == profile.member(n + M)
        for n in (rng.randint(1, 10**9) for _ in range(probes))
    )
    return {
        "criterion": 7,
        "name": "Brun sieve",
        "passed": brun.relative_error <= 1e-3 and periodic,
        "X": X,
        "exact": brun.exact,
        "main": brun.main,
        "rel_err": brun.relative_error,
        "periodicity_probes": probes,
        "periodic": periodic,
    }


def check_8_major_arc(quick: bool = False) -> dict:
    """Major-arc relative error decreasing from X=1e3 to X=1e5 and <= 5%."""
    X_hi = 3 * 10**4 if quick else 10**5
    profile = SieveProfile.build(X2, 10)
    rows = []
    ok = True
    for a, q in ((0, 1), (1, 3), (2, 5)):
        lo = major_arc_asymptotic(X2, RationalPoint(a, q), 0.0, 10**3, profile)
        hi = major_arc_asymptotic(X2, RationalPoint(a, q), 0.0, X_hi, profile)
        rows.append({"a": a, "q": q, "rel_1e3": lo.rel_err, "rel_hi": hi.rel_err})
        ok = ok and hi.rel_err < lo.rel_err and hi.rel_err <= 0.05 and hi.vdc_ok
    return {
        "criterion": 8,
        "name": "major-arc asymptotic",
        "passed": ok,
        "X_hi": X_hi,
        "points": rows,
    }


def check_9_arcs(quick: bool = False) -> dict:
    """Arc disjointness on random (N, K, Q) with 2KQ^2 < N; DFT Plancherel."""
    n_cases = 250 if quick else 1000
    rng = random.Random(9)
    overlap_free = True
    classify_consistent = True
    done = 0
    while done < n_cases:
        N = rng.randint(50, 4000)
        K = rng.randint(1, 8)
        Q = rng.randint(1, 20)
        if 2 * K * Q * Q >= N:
            continue
        done += 1
        labels: dict[int, tuple[int, int]] = {}
        for q in range(1, Q + 1):
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                # integer window: |t q - a N| < K q, 1 <= t <= N-1
                lo = (a * N - K * q) // q + 1
                hi = (a * N + K * q - 1) // q
                for t in range(max(lo, 1), min(hi, N - 1) + 1):
                    if t in labels and labels[t] != (a, q):
                        overlap_free = False
                    labels[t] = (a, q)
        for t in rng.sample(range(N), min(12, N)):
            lab = classify(t, N, K, Q)
            if t == 0:
                if lab.kind != "zero":
                    classify_consistent = False
            elif t in labels:
                if lab.kind != "major" or (lab.a, lab.q) != labels[t]:
                    classify_consistent = False
            elif lab.kind != "minor":
                classify_consistent = False
    n_dft = 2**18 if quick else 2**20
    rng2 = random.Random(90)
    members = rng2.sample(range(1, n_dft + 1), n_dft // 64)
    fd = dft_indicator(members, n_dft)
    lhs, rhs = fd.plancherel()
    plancherel_rel = abs(lhs - rhs) / rhs
    return {
        "criterion": 9,
        "name": "arc machinery",
        "passed": overlap_free and classify_consistent and plancherel_rel <= 1e-8,
        "instances": n_cases,
        "overlap_free": overlap_free,
        "classify_consistent": classify_consistent,
        "plancherel_rel": plancherel_rel,
        "dft_N": n_dft,
    }


def check_10_increment(quick: bool = False) -> dict:
    """Density increment on the multiples of 7 in [1, 1e4]."""
    L = 10**4
    B = set(range(7, L + 1, 7))
    res = extract_progression(B, L, 7, 1, 0.5)
    ok = (
        isinstance(res, Progression)
        and res.step == 7
        and res.density >= Fraction(1, 7) * (1 + Fraction(1, 32))
        and res.verify(B, L)
    )
    out = {
        "criterion": 10,
        "name": "density increment",
        "passed": bool(ok),
    }
    if isinstance(res, Progression):
        out.update(
            {
                "length": res.length,
                "density": float(res.density),
                "case": res.case,
            }
        )
    else:
        out["reason"] = res.reason
    return out


def check_11_verify_oracle(quick: bool = False) -> dict:
    """Bitset verify() agrees with the quadratic brute force on random instances."""
    n_cases = 150 if quick else 500
    rng = random.Random(11)
    gens_pool = [X2, X3, H2, parse_poly("x^2+x"), parse_poly("2x^3+x")]
    agree = True
    for _ in range(n_cases):
        N = rng.randint(10, 200)
        gens = [rng.choice(gens_pool) for _ in range(rng.randint(1, 3))]
        density = rng.choice([0.1, 0.3, 0.6])
        members = [n for n in range(1, N + 1) if rng.random() < density]
        inst = DiffFreeInstance(N, gens, members)
        fast = verify(inst) is None
        slow = brute_force_verify(inst)
        if fast != slow:
            agree = False
            break
        if not fast:
            v = verify(inst)
            if v.a - v.a_prime != sum(v.decomposition):
                agree = False
                break
    return {
        "criterion": 11,
        "name": "set verification oracle equivalence",
        "passed": agree,
        "cases": n_cases,
    }


def check_12_modular(quick: bool = False) -> dict:
    """Exhaustive optimum at q=5; the q=205 exponent; best-effort search >= 10."""
    r5 = modular_search(5, 2, mode="exhaustive")
    c = ruzsa_exponent(205, 12, 2)
    r205 = modular_search(205, 2, mode="branch_bound", seed=0, target=12)
    passed = (
        r5.size == 2
        and r5.optimal
        and abs(c - 0.7334) <= 1e-4
        and r205.size >= 10
        and verify_modular(r205.best, 205, power_residues(205, 2))
    )
    return {
        "criterion": 12,
        "name": "modular search",
        "passed": passed,
        "q5_max": r5.size,
        "exponent_205_12": c,
        "q205_best": r205.size,
        "q205_nodes": r205.nodes,
        "q205_set": list(r205.best),
    }


def check_13_trivial(quick: bool = False) -> dict:
    """trivial_multiples passes verify() for N in {1e2,1e4,1e6}, k in {2,3}."""
    sizes = {}
    ok = True
    for N in (10**2, 10**4, 10**6):
        for k in (2, 3):
            inst = trivial_multiples(N, k)
            good = verify(inst) is None
            ok = ok and good
            sizes[f"N={N},k={k}"] = len(inst)
    return {
        "criterion": 13,
        "name": "trivial construction",
        "passed": ok,
        "sizes": sizes,
    }


# every check takes quick; criteria 1 and 10 run at one size and ignore it
ALL_CHECKS = [
    check_1_intersectivity,
    check_2_gauss,
    check_3_vanishing,
    check_4_crt,
    check_5_content,
    check_6_preimage,
    check_7_brun,
    check_8_major_arc,
    check_9_arcs,
    check_10_increment,
    check_11_verify_oracle,
    check_12_modular,
    check_13_trivial,
]


def run_acceptance(quick: bool = False) -> dict:
    """Run criteria 1-13 (criterion 14, byte-determinism of this very run,
    is exercised from the test suite by invoking the CLI twice)."""
    results = []
    for fn in ALL_CHECKS:
        try:
            res = fn(quick)
        except Exception as exc:  # a crash is a failure, not an abort
            res = {
                "criterion": len(results) + 1,
                "name": fn.__name__,
                "passed": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        results.append(res)
    return {
        "quick": quick,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
    }
