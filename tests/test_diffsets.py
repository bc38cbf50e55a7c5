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
    _clique_cover,
    _greedy_passes,
    _max_independent,
    _pairwise_hit,
    _random_orders,
    _shift_and_hit,
    BITSET_LIMIT,
    GREEDY_LIMIT,
    PERM_SLICE,
    SEARCH_Q_LIMIT,
    DiffFreeInstance,
    SearchResult,
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
    A = fold_bits(inst.members.tolist())
    for f in inst.forbidden.tolist():
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
        assert forbidden_sumset([X2], 20).tolist() == [1, 4, 9, 16]

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
        assert forbidden_sumset([X2, X3], 50).tolist() == expect

    def test_an_empty_sumset_enumerates_no_further_image(self):
        # x^2 + 1000 has no value below 100, so the second image (past
        # IMAGE_LIMIT) is never enumerated
        F = forbidden_sumset([parse_poly("x^2+1000"), parse_poly("x^2-1000000000000x")], 100)
        assert F.dtype == np.int64 and F.tolist() == []


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


class TestMembers:
    def test_any_iterable_gives_the_same_sorted_int64_array(self):
        narrow = np.array([12, 3, 9, 6, 6], dtype=np.int32)
        wide = np.array([12, 3, 9, 6, 6], dtype=np.int64)
        for members in ([3, 6, 9, 12], {12, 9, 6, 3}, range(3, 13, 3), [12, 3, 9, 3, 6, 12],
                        narrow, wide, (m for m in (6, 12, 3, 9))):
            inst = DiffFreeInstance(12, [X2], members)
            assert inst.members.dtype == np.int64 and inst.members.tolist() == [3, 6, 9, 12]
            assert len(inst) == 4 and inst.density == 4 / 12
        # an int64 array is sorted in place, not copied; the members never alias it
        assert narrow.tolist() == [12, 3, 9, 6, 6] and wide.tolist() == [3, 6, 6, 9, 12]
        assert DiffFreeInstance(5, [X2], []).members.tolist() == []

    @pytest.mark.parametrize("members", [[0, 5], [5, 13], [-(2**70), 5], [5, 2**63], [2**70]],
                             ids=["zero", "past-N", "past-int64-below", "2^63", "past-int64"])
    def test_out_of_range_members_keep_the_message(self, members):
        with pytest.raises(ValueError, match=r"^members must lie in \[1, N\]$"):
            DiffFreeInstance(12, [X2], members)

    def test_N_guard_names_the_int64_limit(self):
        top = 2**63 - 1
        inst = DiffFreeInstance(top, [parse_poly("x^10")], [1, top])
        assert inst.members.tolist() == [1, top] and verify(inst) is None
        for N in (2**63, 10**400):
            with pytest.raises(ResourceLimit, match=rf"^sets capped at N < 2\^63 \(int64 members\), got {N}$"):
                DiffFreeInstance(N, [X2], [1, 2])


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
            assert _pairwise_hit(inst.members, F) == want
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


def reference_clique_cover_bound(cand, adj):
    """Greedy clique cover size of cand, lowest vertex first."""
    bound = 0
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        clique = 1 << v
        common = adj[v] & rest
        rest &= ~(1 << v)
        while common:
            u = (common & -common).bit_length() - 1
            clique |= 1 << u
            common &= adj[u] & ~(1 << u)
        rest &= ~clique
        bound += 1
    return bound


def reference_max_independent(adj, cand, best_bits=0, budget=math.inf, target=None, root=0):
    """The kernel the colouring bound replaced, frozen: popcount bound at
    every node and a clique cover every 16384 nodes, lowest candidate
    first, include first; a nonempty root counts as node 1.  Returns
    (best_bits, nodes, exhausted)."""
    best_size = best_bits.bit_count()
    if target is not None and best_size >= target:
        return best_bits, 0, False
    nodes = 1 if root else 0
    if nodes > budget:
        return best_bits, nodes, False
    stack = [(root.bit_count(), root, cand)]
    while stack:
        nodes += 1
        if nodes > budget:
            return best_bits, nodes, False
        size, chosen, cand = stack.pop()
        if not cand:
            if size > best_size:
                best_size, best_bits = size, chosen
                if target is not None and size >= target:
                    return best_bits, nodes, False
            continue
        if size + cand.bit_count() <= best_size:
            continue
        if nodes % 16384 == 0 and size + reference_clique_cover_bound(cand, adj) <= best_size:
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        stack.append((size, chosen, cand ^ low))
        stack.append((size + 1, chosen | low, cand & ~(adj[v] | low)))
    return best_bits, nodes, True


def cayley_adjacency(q, k):
    """Adjacency bitsets of the Cayley graph of Z/q on the symmetrized
    nonzero k-th powers, one shift at a time."""
    D = power_residues(q, k)
    dsym = D | {q - d for d in D}
    return [_bits_from([(v + d) % q for d in dsym]) for v in range(q)], dsym


def vertex_orbit_alpha(q, k, budget=math.inf):
    """alpha of the Cayley graph by the vertex-orbit loop over the reference
    kernel: the multipliers u (u D_sym = D_sym) split the non-neighbours of
    0 into orbits with least elements r_j, and subtree j fixes {0, r_j} and
    drops r_j's neighbours and the earlier orbits from the candidates, on
    the graph itself.  Returns (size, nodes, exhausted): size is alpha when
    exhausted, else the best size reached."""
    adj, dsym = cayley_adjacency(q, k)
    mult = [u for u in range(1, q) if math.gcd(u, q) == 1 and {u * d % q for d in dsym} == dsym]
    rest = ((1 << q) - 1) & ~(adj[0] | 1)
    best, nodes, done = 1, 0, 0
    for r in range(q):
        if rest >> r & 1 and not done >> r & 1:
            cand = rest & ~(adj[r] | done | 1 << r)
            best, used, exhausted = reference_max_independent(
                adj, cand, best, budget - nodes, root=1 | 1 << r
            )
            nodes += used
            if not exhausted:
                return best.bit_count(), nodes, False
            done |= _bits_from({u * r % q for u in mult})
    return best.bit_count(), nodes, True


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
            cliques = _clique_cover(cand, adj)
            assert alpha <= len(cliques) <= bin(cand).count("1")
            # the cliques partition cand, and each is a clique
            assert sum(cliques) == cand
            assert all(not a & b for a, b in itertools.combinations(cliques, 2))
            for c in cliques:
                assert all(c & ~(1 << v) & ~adj[v] == 0 for v in range(n) if c >> v & 1)
            assert reference_clique_cover_bound(cand, adj) == len(cliques)

    def test_same_alpha_as_the_reference_kernels(self):
        # the colouring bound cuts only subtrees with no strictly better set,
        # so the size is the popcount recursion's and the frozen kernel's,
        # and it visits a small share of the frozen kernel's nodes
        rng = random.Random(5)
        for n, p in ((40, 0.1), (45, 0.15), (36, 0.1), (50, 0.2), (24, 0.3)):
            adj = random_graph(rng, n, p)
            full = (1 << n) - 1
            best, nodes, exhausted = _max_independent(adj, full)
            ref_best, ref_nodes, ref_exhausted = reference_max_independent(adj, full)
            assert exhausted and ref_exhausted and is_independent(adj, best)
            size = bin(best).count("1")
            assert size == bin(ref_best).count("1")
            assert size == bin(popcount_branch_and_bound(adj, full)).count("1")
            assert 10 * nodes < ref_nodes

    def test_budget(self):
        adj = random_graph(random.Random(3), 40, 0.1)
        full = (1 << 40) - 1
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
            # the root's candidates are node 1, so budgets end at budget + 1 nodes
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
        # q = 305 needs 13000 nodes, so 500 cut it
        res = modular_search(305, 2, budget=500, seed=1)
        assert not res.optimal
        assert res.nodes == 501
        assert verify_modular(res.best, 305, power_residues(305, 2))

    @pytest.mark.parametrize(
        "q, budget, expected",
        [
            (85, 2 * 10**5, (7, (0, 2, 33, 46, 56, 74, 79), 63, True, 7)),
            (
                205,
                500,
                (12, (0, 2, 72, 96, 98, 104, 110, 173, 175, 181, 192, 199), 438, True, 12),
            ),
            (
                305,
                500,
                (12, (0, 2, 13, 85, 116, 167, 178, 189, 215, 236, 283, 294), 501, False, 35),
            ),
        ],
    )
    def test_pinned_results(self, q, budget, expected):
        # `ilab sets search` prints nodes, so the node count is pinned too
        res = modular_search(q, 2, budget=budget, seed=1)
        assert (res.size, res.best, res.nodes, res.optimal, res.upper_bound) == expected

    def test_exhaustive_matches_the_full_tree(self):
        # the frozen kernel over the whole tree from vertex 0, as the search
        # ran before the difference orbits and the colouring bound
        for q in range(2, 61):
            for k in (2, 3, 4):
                adj, _ = cayley_adjacency(q, k)
                rest = ((1 << q) - 1) & ~(adj[0] | 1)
                ref_bits, ref_nodes, exhausted = reference_max_independent(adj, rest, root=1)
                assert exhausted
                res = modular_search(q, k, mode="exhaustive")
                assert res.size == bin(ref_bits).count("1") == res.upper_bound and res.optimal
                assert verify_modular(res.best, q, power_residues(q, k))
                assert res.nodes <= ref_nodes
        # no non-neighbour of 0: alpha = 1, with no subtree to search
        for q in (2, 3, 6, 7):
            assert modular_search(q, 2, mode="exhaustive") == SearchResult((0,), 1, True, 0, 1)

    @pytest.mark.parametrize("q, alpha", [(221, 11), (265, 12)])
    def test_alpha_past_the_old_budget(self, q, alpha):
        # the frozen kernel did not exhaust these from vertex 0 in 3e7 nodes;
        # the vertex-orbit loop over it does, in about 3.4e6
        res = modular_search(q, 2)
        assert (res.size, res.optimal, res.upper_bound) == (alpha, True, alpha)
        assert verify_modular(res.best, q, power_residues(q, 2))
        size, _, exhausted = vertex_orbit_alpha(q, 2)
        assert (size, exhausted) == (alpha, True)

    def test_cut_search_keeps_the_warm_start(self, monkeypatch):
        # a search cut short of target returns the larger of its own set and
        # the warm start's; at q = 610 and 200 nodes the warm start wins
        def warm_size(q, seed):
            D = power_residues(q, 2)
            near = [d == 0 or d in D or q - d in D for d in range(q)]
            closed = np.array([[near[(u - v) % q] for u in range(q)] for v in range(q)])
            return int(_greedy_passes(_random_orders(q, seed), closed).sum(axis=1).max())

        cases = [(610, 200), (205, 5), (305, 500)]
        got = {
            (q, budget, seed): modular_search(q, 2, budget=budget, seed=seed)
            for q, budget in cases
            for seed in (0, 1)
        }
        for (q, budget, seed), res in got.items():
            assert not res.optimal and res.nodes == budget + 1
            assert res.size >= warm_size(q, seed)
            assert verify_modular(res.best, q, power_residues(q, 2)) and res.best[0] == 0
        # without the warm start the searches alone end lower at q = 610
        def one_vertex(orders, closed):
            return np.eye(1, len(closed), dtype=bool)

        monkeypatch.setattr(diffsets, "_greedy_passes", one_vertex)
        alone = modular_search(610, 2, budget=200, seed=0)
        assert alone.size == 11 < got[610, 200, 0].size == 12

    def test_warm_start_runs_only_when_cut(self, monkeypatch):
        def refuse(orders, closed):
            raise AssertionError("warm start ran")

        monkeypatch.setattr(diffsets, "_greedy_passes", refuse)
        assert modular_search(205, 2).optimal
        assert modular_search(205, 2, budget=10, target=3).size >= 3  # target met
        # an exhaustive search stopped by its target still returns; one that
        # its budget cuts refuses instead
        assert modular_search(205, 2, mode="exhaustive", budget=10, target=3).size >= 3
        with pytest.raises(ResourceLimit, match=r"budget of 1 nodes \(q = 30\)"):
            modular_search(30, 2, budget=1, mode="exhaustive")
        with pytest.raises(AssertionError, match="warm start ran"):
            modular_search(205, 2, budget=10)

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
        # search cut after its first node must still report a bound >= alpha
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
