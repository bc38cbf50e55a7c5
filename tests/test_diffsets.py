"""Difference-free set workbench: verification, constructions, modular
search, the Ruzsa lift, and density tables."""

import itertools
import math
import random

import numpy as np
import pytest

from ilab import diffsets
from ilab.diffsets import (
    _bits_from,
    _greedy_clique_cover_bound,
    _max_independent,
    _pairwise_hit,
    _shift_and_hit,
    BITSET_LIMIT,
    SEARCH_Q_LIMIT,
    DiffFreeInstance,
    ModularInstance,
    brute_force_verify,
    decompose_difference,
    density_table,
    exhaustive_max,
    forbidden_sumset,
    greedy,
    modular_search,
    ruzsa_exponent,
    ruzsa_lift,
    trivial_multiples,
    verify,
    verify_modular,
)
from ilab.padic import ResourceLimit
from ilab.poly import parse_poly

X2 = parse_poly("x^2")
X3 = parse_poly("x^3")
X2X = parse_poly("x^2+x")


# -- the slow paths the packed, pairwise and chunked code replaced, as oracles --


def fold_bits(members) -> int:
    """The per-member bitset fold, O(|A| N / 64)."""
    acc = 0
    for m in members:
        acc |= 1 << m
    return acc


def shift_and_witness(inst):
    """(a, a', decomposition) from one shift-AND per forbidden value in
    increasing order, lowest a' first; None when difference-free."""
    A = fold_bits(inst.members)
    for f in inst.forbidden:
        hit = A & (A >> f)
        if hit:
            a_prime = (hit & -hit).bit_length() - 1
            return a_prime + f, a_prime, decompose_difference(f, inst.generators, inst.N - 1)
    return None


def greedy_loop(N, generators) -> list[int]:
    """The one-position-at-a-time greedy scan over [1, N]."""
    F = np.array(forbidden_sumset(generators, N), dtype=np.int64)
    blocked = np.zeros(N + 1, dtype=bool)
    admitted = []
    for n in range(1, N + 1):
        if not blocked[n]:
            admitted.append(n)
            if len(F):
                idx = n + F
                blocked[idx[idx <= N]] = True
    return admitted


def random_instances(seed, count):
    """Random sets (mostly with violations), subsets of greedy sets
    (difference-free) and greedy sets with one stray member, over one to three
    generators."""
    rng = random.Random(seed)
    pool = [X2, X3, X2X]
    for i in range(count):
        N = rng.randint(2, 600)
        gens = [rng.choice(pool) for _ in range(rng.choice((1, 1, 2, 3)))]
        kind = i % 3
        if kind == 0:
            members = [n for n in range(1, N + 1) if rng.random() < rng.choice((0.02, 0.1, 0.4))]
        else:
            free = sorted(greedy(N, gens).members)
            members = rng.sample(free, rng.randint(0, len(free)))
            if kind == 2:
                members.append(rng.randint(1, N))
        yield DiffFreeInstance(N, gens, members)


class TestForbiddenSumset:
    def test_single_generator(self):
        assert forbidden_sumset([X2], 20) == [1, 4, 9, 16]

    def test_two_generators(self):
        # sums of a square and a cube, truncated below 50
        expect = sorted(
            {
                s + c
                for s in (1, 4, 9, 16, 25, 36, 49)
                for c in (1, 8, 27)
                if s + c <= 49
            }
        )
        assert forbidden_sumset([X2, X3], 50) == expect


class TestVerify:
    def test_examples(self):
        v = verify(DiffFreeInstance(10, [X2], {1, 2}))
        assert v is not None and (v.a, v.a_prime) == (2, 1) and v.decomposition == (1,)
        assert verify(DiffFreeInstance(20, [X2], {1, 3, 6, 8})) is None

    def test_decomposition_sums(self):
        inst = DiffFreeInstance(50, [X2, X3], {3, 3 + 1 + 8})
        v = verify(inst)
        assert v is not None
        assert sum(v.decomposition) == v.a - v.a_prime == 9

    def test_brute_equivalence(self):
        rng = random.Random(700)
        gens_pool = [X2, X3, parse_poly("x^2+x")]
        for _ in range(150):
            N = rng.randint(5, 200)
            gens = [rng.choice(gens_pool) for _ in range(rng.randint(1, 3))]
            members = [n for n in range(1, N + 1) if rng.random() < 0.35]
            inst = DiffFreeInstance(N, gens, members)
            assert (verify(inst) is None) == brute_force_verify(inst)


class TestPackedBits:
    def test_matches_fold(self):
        rng = random.Random(702)
        for _ in range(200):
            N = rng.randint(1, 3000)
            members = {n for n in range(1, N + 1) if rng.random() < rng.choice((0.001, 0.05, 0.5))}
            if rng.random() < 0.3:
                members.add(N)
            inst = DiffFreeInstance(N, [X2], members)
            assert inst.bits == fold_bits(members)
        assert DiffFreeInstance(5, [X2], []).bits == 0
        assert DiffFreeInstance(1, [X2], [1]).bits == 2
        # byte boundaries of the packed mask
        for top in (7, 8, 9, 63, 64, 65):
            assert _bits_from([top]) == 1 << top
            assert _bits_from(range(top + 1)) == (1 << (top + 1)) - 1

    def test_guard_refuses_before_allocating(self):
        inst = DiffFreeInstance(BITSET_LIMIT, [X2], [1, BITSET_LIMIT])
        with pytest.raises(ResourceLimit, match=f"bitset capped at {BITSET_LIMIT} bits"):
            inst.bits


class TestVerifyDispatch:
    def test_both_kernels_match_shift_and(self):
        checked = hits = 0
        for inst in random_instances(703, 600):
            ref = shift_and_witness(inst)
            want = None if ref is None else (ref[0] - ref[1], ref[1])
            F = inst.forbidden
            assert _shift_and_hit(inst.bits, F) == want
            assert _pairwise_hit(sorted(inst.members), F) == want
            assert (ref is None) == brute_force_verify(inst)
            checked += 1
            hits += ref is not None
        assert checked == 600 and 100 < hits < 500

    @pytest.mark.parametrize("pair_cost", [0, 10**30], ids=["pairwise", "shift-and"])
    def test_each_branch_forced(self, monkeypatch, pair_cost):
        monkeypatch.setattr(diffsets, "PAIR_COST_WORDS", pair_cost)
        for inst in random_instances(704, 300):
            ref = shift_and_witness(inst)
            v = verify(inst)
            if ref is None:
                assert v is None and brute_force_verify(inst)
            else:
                assert (v.a, v.a_prime, v.decomposition) == ref
                assert not brute_force_verify(inst)

    @pytest.mark.parametrize("pair_cost", [0, 10**30], ids=["pairwise", "shift-and"])
    def test_smallest_f_then_lowest_a_prime(self, monkeypatch, pair_cost):
        # difference 4 at a' = 2, 6, 10 and difference 1 at a' = 20 only: the
        # smaller f wins over the earlier a'; without it, the lowest a' wins
        monkeypatch.setattr(diffsets, "PAIR_COST_WORDS", pair_cost)
        v = verify(DiffFreeInstance(30, [X2], {2, 6, 10, 14, 20, 21}))
        assert (v.a, v.a_prime, v.decomposition) == (21, 20, (1,))
        v = verify(DiffFreeInstance(30, [X2], {2, 6, 10, 14, 20, 22}))
        assert (v.a, v.a_prime, v.decomposition) == (6, 2, (4,))

    def test_sparse_sets_skip_the_bitset(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("shift-AND kernel ran")

        monkeypatch.setattr(diffsets, "_shift_and_hit", refuse)
        # one member against |F| = N - 1: no pair to check
        assert len(trivial_multiples(10**5, 1)) == 1
        assert verify(greedy(20000, [X2, X2])) is None


class TestGreedy:
    @pytest.mark.parametrize(
        "gens, N",
        [("x^2", 40000), ("x^3", 50000), ("x^2+x", 40000), ("x^2;x^2", 20000), ("0,1", 20000)],
    )
    def test_matches_old_loop(self, gens, N):
        generators = [parse_poly(g) for g in gens.split(";")]
        assert sorted(greedy(N, generators).members) == greedy_loop(N, generators)

    def test_matches_old_loop_across_small_windows(self, monkeypatch):
        monkeypatch.setattr(diffsets, "GREEDY_CHUNK", 7)
        rng = random.Random(705)
        for _ in range(60):
            N = rng.randint(1, 300)
            gens = [rng.choice([X2, X3, X2X, parse_poly("0,1")]) for _ in range(rng.randint(1, 2))]
            assert sorted(greedy(N, gens).members) == greedy_loop(N, gens)

    def test_frozen_prefix(self):
        got = sorted(greedy(25, [X2]).members)
        assert got == [1, 3, 6, 8, 11, 13, 16, 18, 21, 23]

    def test_always_verifies(self):
        rng = random.Random(701)
        for _ in range(25):
            N = rng.randint(10, 400)
            gens = [rng.choice([X2, X3, parse_poly("x^2+x")])]
            inst = greedy(N, gens)
            assert verify(inst) is None

    def test_size_lower_bound(self):
        inst = greedy(10**5, [X2])
        c = len(inst) / math.sqrt(10**5)
        assert c >= 1.0  # recorded constant: well above N^(1/2)

    def test_degenerate_linear(self):
        inst = greedy(50, [parse_poly("0,1")])  # image is all of [1, N-1]
        assert len(inst) == 1  # only 1 survives; everything else collides


class TestTrivialMultiples:
    def test_example_n100(self):
        inst = trivial_multiples(100, 2)
        p = min(inst.members)
        assert p == 7 and len(inst) == 7
        assert verify(inst) is None

    def test_paper_formula_n8_k3(self):
        # A = {xp : x <= p^(k-1)} with p = 2: four elements, not a singleton
        inst = trivial_multiples(8, 3)
        assert sorted(inst.members) == [2, 4, 6, 8]
        assert verify(inst) is None

    def test_huge_k_refused_without_building_two_to_the_k(self):
        for N, k in ((3, 10**12), (7, 3), (1, 1), (0, 2), (-5, 1)):
            with pytest.raises(ValueError, match=r"need N >= 2\^k"):
                trivial_multiples(N, k)
        assert len(trivial_multiples(2, 1)) == 1

    def test_million(self):
        inst = trivial_multiples(10**6, 2)
        p = min(inst.members)
        assert 500 <= p <= 1000 and len(inst) == p
        assert verify(inst) is None


def random_graph(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def is_independent(adj, bits):
    return all(not adj[v] & bits for v in range(len(adj)) if bits >> v & 1)


def popcount_branch_and_bound(adj, cand):
    """The recursive search exhaustive_max used before the shared kernel:
    popcount bound only, lowest vertex first, include first."""
    best = [0, 0]

    def rec(size, chosen, cand):
        if size + bin(cand).count("1") <= best[0]:
            return
        if not cand:
            best[:] = [size, chosen]
            return
        low = cand & -cand
        v = low.bit_length() - 1
        rec(size + 1, chosen | low, cand & ~(adj[v] | low))
        rec(size, chosen, cand & ~low)

    rec(0, 0, cand)
    return best[1]


class TestMaxIndependent:
    def test_matches_brute_force_alpha(self):
        rng = random.Random(20240)
        for _ in range(40):
            n = rng.randint(1, 14)
            adj = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
            alpha = max(
                bin(S).count("1") for S in range(1 << n) if is_independent(adj, S)
            )
            best, nodes, exhausted = _max_independent(adj, (1 << n) - 1)
            assert exhausted and nodes >= 1
            assert bin(best).count("1") == alpha
            assert is_independent(adj, best)

    def test_clique_cover_bound_is_sound(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 12)
            adj = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            cand = rng.getrandbits(n)
            alpha = max(
                bin(S).count("1")
                for S in range(1 << n)
                if S & cand == S and is_independent(adj, S)
            )
            assert alpha <= _greedy_clique_cover_bound(cand, adj) <= bin(cand).count("1")

    def test_same_witness_as_popcount_recursion(self):
        # the clique-cover bound (every 16384 nodes) only prunes subtrees with
        # no strictly better leaf, so the first best leaf found is unchanged
        rng = random.Random(5)
        deep = 0
        for n, p in ((40, 0.1), (45, 0.15), (36, 0.1), (50, 0.2), (24, 0.3)):
            adj = random_graph(rng, n, p)
            full = (1 << n) - 1
            best, nodes, exhausted = _max_independent(adj, full)
            assert exhausted
            assert best == popcount_branch_and_bound(adj, full)
            deep += nodes > 1 << 14
        assert deep >= 2

    def test_budget(self):
        adj = random_graph(random.Random(3), 14, 0.3)
        full = (1 << 14) - 1
        best, total, exhausted = _max_independent(adj, full)
        assert exhausted and total > 20
        for budget in (0, 1, 7, 20, total - 1):
            b, nodes, ex = _max_independent(adj, full, budget=budget)
            assert nodes == budget + 1
            assert not ex and is_independent(adj, b)
        assert _max_independent(adj, full, budget=total) == (best, total, True)

    def test_target_stops_at_first_set_of_that_size(self):
        adj = random_graph(random.Random(11), 14, 0.3)
        full = (1 << 14) - 1
        alpha = bin(_max_independent(adj, full)[0]).count("1")
        for target in range(1, alpha + 1):
            best, nodes, exhausted = _max_independent(adj, full, target=target)
            assert not exhausted and bin(best).count("1") >= target
            before, _, _ = _max_independent(adj, full, budget=nodes - 1)
            assert bin(before).count("1") < target
            assert _max_independent(adj, full, budget=nodes)[0] == best

    def test_warm_start(self):
        adj = random_graph(random.Random(2), 12, 0.4)
        full = (1 << 12) - 1
        best, _, _ = _max_independent(adj, full)
        size = bin(best).count("1")
        # a start that already meets the target costs no node
        assert _max_independent(adj, full, best, target=size) == (best, 0, False)
        # a start at the optimum is never replaced
        assert _max_independent(adj, full, best)[0] == best


class TestModularSearch:
    def test_q5_exhaustive(self):
        res = modular_search(5, 2, mode="exhaustive")
        assert res.size == 2 and res.optimal
        assert verify_modular(res.best, 5, ModularInstance.build(5, 2).D)

    def test_q2(self):
        res = modular_search(2, 2, mode="exhaustive")
        assert res.size == 1

    def test_exhaustive_matches_subset_enumeration(self):
        for q, k in ((7, 2), (11, 2), (13, 3), (10, 2)):
            inst = ModularInstance.build(q, k)
            best = 0
            for r in range(q, 0, -1):
                if best:
                    break
                for combo in itertools.combinations(range(q), r):
                    if verify_modular(combo, q, inst.D):
                        best = r
                        break
            res = modular_search(q, k, mode="exhaustive")
            assert res.size == best and res.optimal

    def test_affine_invariance(self):
        # max size is invariant under B -> uB + v whenever multiplication by
        # u stabilizes the symmetrized difference set (u * D_sym = D_sym);
        # a naive filter u^k D = D holds for every unit and is too weak
        # (u = 2 mod 13 maps non-residue differences onto residues)
        q, k = 13, 2
        inst = ModularInstance.build(q, k)
        dsym = set(inst.D_sym)
        base = modular_search(q, k, mode="exhaustive").size
        best = modular_search(q, k, mode="exhaustive").best
        stabilizers = [
            u
            for u in range(1, q)
            if math.gcd(u, q) == 1 and {u * d % q for d in dsym} == dsym
        ]
        assert len(stabilizers) >= 2
        for u in stabilizers:
            for v in (0, 3):
                moved = sorted((u * b + v) % q for b in best)
                assert verify_modular(moved, q, inst.D)
                assert len(moved) == base

    def test_budget_exhaustion(self):
        res = modular_search(205, 2, budget=500, seed=1)
        assert not res.optimal
        assert res.nodes <= 501
        assert verify_modular(res.best, 205, ModularInstance.build(205, 2).D)

    @pytest.mark.parametrize(
        "q, budget, expected",
        [
            (85, 2 * 10**5, (7, (10, 34, 48, 54, 66, 72, 77), 200001, False, 20)),
            (
                205,
                500,
                (
                    12,
                    (0, 22, 24, 56, 79, 82, 93, 116, 135, 150, 158, 192),
                    501,
                    False,
                    32,
                ),
            ),
        ],
    )
    def test_pinned_results(self, q, budget, expected):
        # `ilab sets search` prints nodes, so the node count is pinned too
        res = modular_search(q, 2, budget=budget, seed=1)
        assert (res.size, res.best, res.nodes, res.optimal, res.upper_bound) == expected

    def test_q205_reaches_twelve(self):
        res = modular_search(205, 2, budget=10**9, seed=0, target=12)
        assert res.size >= 12
        assert verify_modular(res.best, 205, ModularInstance.build(205, 2).D)

    def test_q_guard(self):
        for q in (SEARCH_Q_LIMIT + 1, 5000, 10**6):
            with pytest.raises(ResourceLimit, match=f"capped at q <= {SEARCH_Q_LIMIT}"):
                modular_search(q, 2, budget=10)
        res = modular_search(SEARCH_Q_LIMIT, 2, target=1)
        assert res.size >= 1

    def test_symmetry_recorded(self):
        inst = ModularInstance.build(205, 2)
        assert inst.D_symmetric  # -1 is a square mod 5 and mod 41


class TestExhaustiveMax:
    def test_small_against_brute(self):
        for N in (3, 8, 12, 15):
            size, witness = exhaustive_max(N, [X2])
            forb = set(forbidden_sumset([X2], N))
            best = 0
            for mask in range(1 << N):
                members = [i + 1 for i in range(N) if mask >> i & 1]
                if len(members) <= best:
                    continue
                ok = all(
                    b - a not in forb
                    for i, a in enumerate(members)
                    for b in members[i + 1 :]
                )
                if ok:
                    best = len(members)
            assert size == best
            inst = DiffFreeInstance(N, [X2], witness)
            assert verify(inst) is None

    def test_examples(self):
        assert exhaustive_max(3, [X2])[0] == 2
        size10, _ = exhaustive_max(10, [X2])
        assert size10 == 4
        size20, w20 = exhaustive_max(20, [X2, X2])
        assert verify(DiffFreeInstance(20, [X2, X2], w20)) is None

    def test_monotone_in_N(self):
        sizes = [exhaustive_max(N, [X2])[0] for N in range(2, 26)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_refuses_large(self):
        with pytest.raises(ValueError):
            exhaustive_max(60, [X2])


class TestRuzsa:
    def test_exponent_205(self):
        c = ruzsa_exponent(205, 12, 2)
        assert abs(c - 0.7334) <= 1e-4

    def test_exponent_small(self):
        c = ruzsa_exponent(5, 2, 2)
        assert c == pytest.approx((1 + math.log(2) / math.log(5)) / 2)

    def test_lift_b0_q2(self):
        out = ruzsa_lift({0}, 2, 2, 100)
        assert isinstance(out, DiffFreeInstance)
        assert sorted(out.members) == [2, 8, 10, 32, 34, 40, 42]
        assert verify(out) is None
        assert len(out) >= 100 ** (0.5 - 0.2)

    def test_lift_q5_outcome_recorded(self):
        out = ruzsa_lift({0, 2}, 5, 2, 10**4)
        if isinstance(out, DiffFreeInstance):
            assert verify(out) is None  # mandatory re-verification held
        else:
            v = out.violation
            assert v.a - v.a_prime == sum(v.decomposition)

    def test_lift_translates_b_to_contain_zero(self):
        # {2, 4} is the translate {0, 2} + 2; without translating, the top
        # digit would have to be >= 2 and the lift of [1, 30] would be empty
        out = ruzsa_lift({2, 4}, 5, 2, 30)
        assert isinstance(out, DiffFreeInstance)
        assert len(out) == len(ruzsa_lift({0, 2}, 5, 2, 30)) > 0
        assert verify(out) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ruzsa_lift({0}, 4, 2, 100)  # not squarefree
        with pytest.raises(ValueError):
            ruzsa_lift({0, 1}, 5, 2, 100)  # 1 - 0 is a square mod 5


class TestDensityTable:
    def test_columns_and_trend(self):
        rows = density_table([10**3, 10**4, 10**5], [X2])
        header = {"N", "method", "size", "density", "fs_bound_shape", "exp_bound_shape"}
        assert all(header == set(r.keys()) for r in rows)
        greedy_rows = [r for r in rows if r["method"] == "greedy"]
        dens = [r["density"] for r in greedy_rows]
        assert dens[0] > dens[1] > dens[2]
        trivial_rows = [r for r in rows if r["method"] == "trivial"]
        for r in trivial_rows:
            assert r["density"] == pytest.approx(r["N"] ** (-1 / 2), rel=0.7)

    def test_skips_trivial_for_nonmonomial(self):
        rows = density_table([100], [parse_poly("x^2+x")])
        assert {r["method"] for r in rows} == {"greedy"}
