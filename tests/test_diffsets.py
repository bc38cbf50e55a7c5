"""Difference-free set workbench: verification, constructions, modular
search, the Ruzsa lift, and density tables."""

import itertools
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from ilab import diffsets
from ilab.diffsets import (
    _bits_from,
    _greedy_clique_cover_bound,
    _max_independent,
    _pairwise_hit,
    _random_orders,
    _shift_and_hit,
    BITSET_LIMIT,
    GREEDY_LIMIT,
    PERM_SLICE,
    SEARCH_Q_LIMIT,
    DiffFreeInstance,
    brute_force_verify,
    decompose_difference,
    density_table,
    forbidden_sumset,
    greedy,
    modular_search,
    power_residues,
    ruzsa_exponent,
    ruzsa_lift,
    trivial_multiples,
    verify,
    verify_modular,
)
from ilab.arith import factorize
from ilab.padic import ResourceLimit
from ilab.poly import parse_poly
from test_cli import subprocess_env

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

    def test_fewer_than_two_members_skip_the_sumset(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("forbidden sumset built")

        monkeypatch.setattr(diffsets, "forbidden_sumset", refuse)
        # F would be all of [1, 10^5 - 1]: one member has no difference to look up
        assert len(trivial_multiples(10**5, 1)) == 1
        for members in ([], [10**6]):
            assert verify(DiffFreeInstance(10**6, [parse_poly("0,1")], members)) is None


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

    def test_N_guard_refuses_before_building_anything(self, monkeypatch):
        # every greedy set fits one verify bitset
        assert GREEDY_LIMIT == BITSET_LIMIT - 1

        def refuse(*args, **kwargs):
            raise AssertionError("F or the mask built")

        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", refuse)
            patch.setattr(diffsets, "forbidden_sumset", refuse)
            message = f"greedy construction capped at N <= {GREEDY_LIMIT}, got {GREEDY_LIMIT + 1}"
            with pytest.raises(ResourceLimit, match=f"^{message}$"):
                greedy(GREEDY_LIMIT + 1, [X2])
        monkeypatch.setattr(diffsets, "GREEDY_LIMIT", 100)
        assert len(greedy(100, [X2])) == 21
        with pytest.raises(ResourceLimit, match=r"capped at N <= 100, got 101"):
            greedy(101, [X2])

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

    def test_member_guard_refuses_before_the_prime_search(self, monkeypatch):
        # floor(N^(1/k))^(k-1) bounds the members; at N = 10^400 the prime
        # search alone would test 200-digit numbers
        with pytest.raises(ResourceLimit, match=r"p\^\(k-1\) <= 32768 members"):
            trivial_multiples(10**400, 2)
        monkeypatch.setattr(diffsets, "TRIVIAL_LIMIT", 100)
        assert len(trivial_multiples(1000, 3)) == 7**2  # floor(1000^(1/3))^2 = 100
        with pytest.raises(ResourceLimit, match=r"capped at p\^\(k-1\) <= 100 members"):
            trivial_multiples(1331, 3)  # 11^2 = 121

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
    """The recursive search used before the shared kernel:
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

    def test_root_fixes_a_vertex(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 12)
            adj = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
            v = rng.randrange(n)
            root = 1 << v
            cand = ((1 << n) - 1) & ~(adj[v] | root)
            alpha_v = max(
                bin(S).count("1")
                for S in range(1 << n)
                if S & root and is_independent(adj, S)
            )
            best, total, exhausted = _max_independent(adj, cand, root=root)
            assert exhausted and best & root and is_independent(adj, best)
            assert bin(best).count("1") == alpha_v
            # the root is node 1, so budgets still end at budget + 1 nodes
            for budget in range(min(total, 4)):
                b, nodes, ex = _max_independent(adj, cand, budget=budget, root=root)
                assert nodes == budget + 1 and not ex
            assert _max_independent(adj, cand, budget=total, root=root) == (best, total, True)


class TestModularSearch:
    def test_q5_exhaustive(self):
        res = modular_search(5, 2, mode="exhaustive")
        assert res.size == 2 and res.optimal
        assert verify_modular(res.best, 5, power_residues(5, 2))

    def test_q2(self):
        res = modular_search(2, 2, mode="exhaustive")
        assert res.size == 1

    def test_exhaustive_matches_subset_enumeration(self):
        for q, k in ((7, 2), (11, 2), (13, 3), (10, 2)):
            D = power_residues(q, k)
            best = 0
            for r in range(q, 0, -1):
                if best:
                    break
                for combo in itertools.combinations(range(q), r):
                    if verify_modular(combo, q, D):
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
        D = power_residues(q, k)
        dsym = D | {q - d for d in D}
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
                assert verify_modular(moved, q, D)
                assert len(moved) == base

    def test_budget_exhaustion(self):
        res = modular_search(205, 2, budget=500, seed=1)
        assert not res.optimal
        assert res.nodes <= 501
        assert verify_modular(res.best, 205, power_residues(205, 2))

    @pytest.mark.parametrize(
        "q, budget, expected",
        [
            (85, 2 * 10**5, (7, (0, 11, 31, 33, 39, 44, 72), 39078, True, 7)),
            (
                205,
                500,
                (
                    12,
                    (0, 3, 14, 37, 56, 71, 79, 85, 113, 148, 150, 182),
                    501,
                    False,
                    23,
                ),
            ),
        ],
    )
    def test_pinned_results(self, q, budget, expected):
        # `ilab sets search` prints nodes, so the node count is pinned too
        res = modular_search(q, 2, budget=budget, seed=1)
        assert (res.size, res.best, res.nodes, res.optimal, res.upper_bound) == expected

    def test_exhaustive_matches_the_full_tree(self):
        # the search before vertex 0 was fixed: the whole Cayley graph as the
        # candidate set, the empty set as the root
        for q in range(2, 33):
            for k in (2, 3, 4):
                D = power_residues(q, k)
                dsym = D | {q - d for d in D}
                adj = [_bits_from([(v + d) % q for d in dsym]) for v in range(q)]
                ref_bits, ref_nodes, exhausted = _max_independent(adj, (1 << q) - 1)
                assert exhausted
                res = modular_search(q, k, mode="exhaustive")
                assert res.best == tuple(v for v in range(q) if ref_bits >> v & 1)
                assert res.size == len(res.best) == res.upper_bound and res.optimal
                assert res.nodes <= ref_nodes

    @pytest.mark.parametrize("q, alpha", [(65, 7), (85, 7), (101, 5)])
    def test_alpha_matches_a_frozenset_recursion(self, q, alpha):
        squares = {x * x % q for x in range(1, q)} - {0}
        forbidden = squares | {q - s for s in squares}

        best = [1]

        def grow(size: int, cand: frozenset) -> None:
            # extend an independent set of `size` vertices by subsets of cand,
            # its common non-neighbours, lowest vertex first; cut once cand
            # cannot beat best
            best[0] = max(best[0], size)
            rest = cand
            while rest and size + len(rest) > best[0]:
                v = min(rest)
                rest = rest - {v}
                grow(size + 1, frozenset(u for u in rest if (u - v) % q not in forbidden))

        # the graph is vertex-transitive, so fixing 0 loses nothing
        grow(1, frozenset(u for u in range(1, q) if u not in forbidden))
        assert best[0] == alpha
        res = modular_search(q, 2)
        assert (res.size, res.optimal, res.upper_bound) == (alpha, True, alpha)
        assert verify_modular(res.best, q, power_residues(q, 2))

    def test_budgeted_bound_holds_alpha(self):
        # every q <= 60 exhausts at the default budget, which gives alpha; a
        # search cut after its root must still report a bound >= alpha
        for q in range(2, 61):
            for k in (2, 3, 4):
                full = modular_search(q, k)
                assert full.optimal and full.upper_bound == full.size
                cut = modular_search(q, k, budget=1)
                assert cut.upper_bound >= full.size, (q, k)
                assert cut.optimal or cut.nodes == 2

    def test_budgeted_bound_is_the_smaller_cover(self):
        # 1 + the clique cover of the non-neighbours of 0 beats the cover of
        # the whole graph at k = 2 (32 at q = 205); at q = 112 and 176, k = 4,
        # the whole graph's cover (24 and 32) beats it (29 and 36)
        cases = [(205, 2), (221, 2), (265, 2), (112, 4), (176, 4)]
        bounds = {(q, k): modular_search(q, k, budget=1).upper_bound for q, k in cases}
        assert bounds == {(205, 2): 23, (221, 2): 28, (265, 2): 31, (112, 4): 24, (176, 4): 32}

    def test_q205_is_settled(self):
        # Lewko's 12-set (EJC 2015) is optimal for the squares mod 205
        res = modular_search(205, 2)
        assert (res.size, res.optimal, res.upper_bound) == (12, True, 12)
        assert verify_modular(res.best, 205, power_residues(205, 2))

    def test_q205_reaches_twelve(self):
        res = modular_search(205, 2, budget=10**9, seed=0, target=12)
        assert res.size >= 12
        assert verify_modular(res.best, 205, power_residues(205, 2))

    @pytest.mark.parametrize("few_keys", [False, True])
    def test_random_orders_sort_the_drawn_keys(self, monkeypatch, few_keys):
        # each slice of rows draws 4 little-endian key bytes per vertex, and
        # a row lists its vertices by (key, vertex); keys of 0/1 bytes tie
        # often, and a tie must keep vertex order whatever the sort
        if few_keys:

            class FewKeys(random.Random):
                def randbytes(self, n):
                    return bytes(self.choices((0, 1), k=n))

            monkeypatch.setattr(random, "Random", FewKeys)
        for q, seed, rows in ((1, 0, 3), (7, 5, 4), (40, 11, 2), (3, 2, PERM_SLICE + 2)):
            rng = random.Random(seed)
            expected = []
            while len(expected) < rows:
                n = min(PERM_SLICE, rows - len(expected))
                buf = rng.randbytes(4 * n * q)
                for i in range(n):
                    key = [int.from_bytes(buf[4 * (i * q + v) : 4 * (i * q + v + 1)], "little")
                           for v in range(q)]
                    expected.append(sorted(range(q), key=lambda v: (key[v], v)))
            orders = _random_orders(q, seed, rows)
            assert orders.dtype == np.int16 and orders.tolist() == expected

    def test_search_never_imports_numpy_random(self):
        script = (
            "import sys, ilab.cli; from ilab.diffsets import modular_search; "
            "modular_search(41, 2, budget=100); print('numpy.random' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_q_guard(self):
        for q in (SEARCH_Q_LIMIT + 1, 5000, 10**6):
            with pytest.raises(ResourceLimit, match=f"capped at q <= {SEARCH_Q_LIMIT}"):
                modular_search(q, 2, budget=10)
        res = modular_search(SEARCH_Q_LIMIT, 2, target=1)
        assert res.size >= 1

    def test_power_residues(self):
        assert power_residues(7, 2) == {1, 2, 4}
        assert power_residues(9, 3) == {1, 8}
        assert power_residues(2, 5) == {1}

    def test_symmetry_recorded(self):
        D = power_residues(205, 2)
        assert {205 - d for d in D} == D  # -1 is a square mod 5 and mod 41


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

    @pytest.mark.parametrize(
        "B, q, k, N",
        [({0}, 2, 2, 1000), ({0, 2}, 5, 2, 3000), ({1}, 5, 3, 5**5), ({0}, 3, 1, 500),
         ({2, 4, 9}, 13, 2, 13**3 - 1)],
    )
    def test_lift_is_every_n_with_digits_in_b(self, B, q, k, N):
        # the digits of n at positions 0 mod k lie in B (translated to hold 0)
        shifted = {b - min(B) for b in B}

        def digits(n):
            out = []
            while n:
                n, d = divmod(n, q)
                out.append(d)
            return out

        want = [n for n in range(1, N + 1) if all(d in shifted for d in digits(n)[::k])]
        out = ruzsa_lift(B, q, k, N)
        assert isinstance(out, DiffFreeInstance) and sorted(out.members) == want

    def test_n_guard_refuses_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(diffsets, "RUZSA_LIMIT", 100)
        assert len(ruzsa_lift({0}, 2, 2, 100)) == 7
        with pytest.raises(ResourceLimit, match="Ruzsa lift capped at N <= 100, got 101"):
            ruzsa_lift({0}, 2, 2, 101)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ruzsa_lift({0}, 4, 2, 100)  # not squarefree
        with pytest.raises(ValueError):
            ruzsa_lift({0, 1}, 5, 2, 100)  # 1 - 0 is a square mod 5
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
                ruzsa_lift({0, 2}, 5, k, 100)

    def test_power_residue_test_matches_the_listed_residues(self):
        # every square-free q <= 2000, k cycling through 1..6: every residue
        # while q <= 300, a seeded sample of 150 past it
        for q in range(2, 2001):
            if any(e > 1 for _, e in factorize(q)):
                continue
            k = 1 + q % 6
            D, test = power_residues(q, k), diffsets._PowerResidueTest(q, k)
            ys = range(q) if q <= 300 else random.Random(q).sample(range(q), 150)
            assert [y for y in ys if y in test] == [y for y in ys if y in D], (q, k)


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
