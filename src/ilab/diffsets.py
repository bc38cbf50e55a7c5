"""Difference-free set workbench.

Instances pair an interval [1, N] with a list of generator polynomials; the
forbidden differences are the sumset I(g_1) + ... + I(g_l) of positive image
elements, truncated to [1, N-1].  Verification picks the cheaper of two
exact checks: the |A|(|A|-1)/2 pairwise differences looked up in the sorted
forbidden set F, or one shift-AND of A's bitset per forbidden value,
|F|*ceil(N/64) machine words.  The bitset is packed from a bool mask, so it
costs O(N) bytes to build.  Constructions (greedy scan, multiples of a
prime, base-q digit lifts of modular sets) are always re-verified.  Modular
instances search maximum independent sets in the Cayley graph of Z/q with
connection set the k-th power residues (symmetrized).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Optional, Sequence, Union

import numpy as np

from .arith import factorize, integer_nth_root, is_prime
from .auxiliary import image_elements
from .padic import ResourceLimit
from .poly import IntPolynomial

SUMSET_LIMIT = 10**8
BITSET_LIMIT = 2**28  # bits, so the bool mask behind one bitset stays <= 256 MiB
SEARCH_Q_LIMIT = 1000
GREEDY_CHUNK = 2**14
# one searchsorted lookup of a difference costs about as much as 8 words of
# big-int shift-AND (measured on difference-free sets with N <= 10^7)
PAIR_COST_WORDS = 8


@dataclass(frozen=True)
class Violation:
    a: int
    a_prime: int
    decomposition: tuple[int, ...]  # one image value per generator, summing to a - a'

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "a_prime": self.a_prime,
            "decomposition": list(self.decomposition),
        }


def _bits_from(members: Collection[int]) -> int:
    """The int with bit m set for every m in members (all >= 0), packed from
    a bool mask of max(members) + 1 entries."""
    if not members:
        return 0
    top = max(members)
    if top >= BITSET_LIMIT:
        raise ResourceLimit(f"bitset capped at {BITSET_LIMIT} bits (largest member {top})")
    mask = np.zeros(top + 1, dtype=bool)
    mask[np.fromiter(members, dtype=np.int64, count=len(members))] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _lsb_index(m: int) -> int:
    return (m & -m).bit_length() - 1


def forbidden_sumset(generators: Sequence[IntPolynomial], N: int) -> list[int]:
    """I(g_1) + ... + I(g_l) truncated to [1, N-1], as a sorted list.

    Each step forms |acc| * |img| pair sums; that product is capped at
    SUMSET_LIMIT.
    """
    if not generators:
        raise ValueError("at least one generator required")
    acc = {0}
    for g in generators:
        img = image_elements(g, N - 1)
        if len(acc) * len(img) > SUMSET_LIMIT:
            raise ResourceLimit(
                f"forbidden sumset capped at {SUMSET_LIMIT} pair sums per generator "
                f"({len(acc)} x {len(img)})"
            )
        acc = {a + v for a in acc for v in img if a + v <= N - 1}
        if not acc:
            return []
    return sorted(v for v in acc if v >= 1)


class DiffFreeInstance:
    """A candidate difference-free set A inside [1, N]."""

    def __init__(
        self, N: int, generators: Sequence[IntPolynomial], members
    ):
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        self.N = N
        self.generators = tuple(generators)
        self.members = frozenset(int(m) for m in members)
        if self.members and not (1 <= min(self.members) and max(self.members) <= N):
            raise ValueError("members must lie in [1, N]")

    @cached_property
    def bits(self) -> int:
        return _bits_from(self.members)

    @cached_property
    def forbidden(self) -> list[int]:
        return forbidden_sumset(self.generators, self.N)

    @property
    def density(self) -> float:
        return len(self.members) / self.N

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "generators": [list(g.coeffs) for g in self.generators],
            "size": len(self.members),
            "density": self.density,
            "members": sorted(self.members),
        }


def decompose_difference(
    diff: int, generators: Sequence[IntPolynomial], bound: int
) -> Optional[tuple[int, ...]]:
    """Image values (one per generator) summing to diff, or None."""
    images = [image_elements(g, bound) for g in generators]

    def rec(i: int, rem: int) -> Optional[tuple[int, ...]]:
        if i == len(images) - 1:
            return (rem,) if rem in image_sets[i] else None
        for v in images[i]:
            if v >= rem:
                break
            tail = rec(i + 1, rem - v)
            if tail is not None:
                return (v,) + tail
        return None

    image_sets = [set(img) for img in images]
    return rec(0, diff)


def _shift_and_hit(A: int, F: Sequence[int]) -> Optional[tuple[int, int]]:
    """(f, a') for the smallest f in F with a' and a' + f both in the bitset
    A, taking the lowest such a'; None when there is none."""
    for f in F:
        hit = A & (A >> f)
        if hit:
            return f, _lsb_index(hit)
    return None


def _pairwise_hit(members: Sequence[int], F: Sequence[int]) -> Optional[tuple[int, int]]:
    """The same (f, a') as _shift_and_hit, from the differences of the sorted
    members looked up in the sorted F, one row a' at a time."""
    A = np.asarray(members, dtype=np.int64)
    Fa = np.asarray(F, dtype=np.int64)
    if not len(Fa):
        return None
    best: Optional[tuple[int, int]] = None
    reach = int(Fa[-1])  # after a hit, only differences below its f can win
    for i in range(len(A) - 1):
        a = int(A[i])
        stop = np.searchsorted(A, a + reach, "right")
        diffs = A[i + 1 : stop] - a
        pos = np.searchsorted(Fa, diffs)
        found = diffs[Fa[pos] == diffs]  # diffs <= reach <= max F keeps pos in range
        if len(found):
            best = int(found[0]), a
            reach = best[0] - 1
    return best


def verify(inst: DiffFreeInstance) -> Optional[Violation]:
    """None when no difference of A lies in the forbidden sumset F; otherwise
    the witness with the smallest difference f, the lowest a' for that f, and
    f's generator decomposition.

    Both checks are exact and return the same witness; the cheaper one runs.
    Pairwise lookup of the |A|(|A|-1)/2 differences in F, each costed at
    PAIR_COST_WORDS words, wins on sparse sets and large F; one bitset
    shift-AND per f in F, |F|*ceil(N/64) words, wins otherwise."""
    F = inst.forbidden
    n = len(inst.members)
    if PAIR_COST_WORDS * n * (n - 1) // 2 < len(F) * -(-inst.N // 64):
        hit = _pairwise_hit(sorted(inst.members), F)
    else:
        hit = _shift_and_hit(inst.bits, F)
    if hit is None:
        return None
    f, a_prime = hit
    decomp = decompose_difference(f, inst.generators, inst.N - 1)
    assert decomp is not None
    return Violation(a=a_prime + f, a_prime=a_prime, decomposition=decomp)


def brute_force_verify(inst: DiffFreeInstance) -> bool:
    """Quadratic double-loop oracle: True when difference-free."""
    members = sorted(inst.members)
    forb = set(inst.forbidden)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if b - a in forb:
                return False
    return True


def greedy(N: int, generators: Sequence[IntPolynomial]) -> DiffFreeInstance:
    """Admit n = 1..N whenever no previously admitted a has n - a forbidden.

    Runs over GREEDY_CHUNK-wide windows and visits only the positions still
    unblocked when its window opens; each is re-checked before admission,
    since an earlier admission in the same window may block it."""
    F = np.array(forbidden_sumset(generators, N), dtype=np.int64)
    blocked = np.zeros(N + 1, dtype=bool)
    admitted = []
    for start in range(1, N + 1, GREEDY_CHUNK):
        for n in (start + np.flatnonzero(~blocked[start : start + GREEDY_CHUNK])).tolist():
            if not blocked[n]:
                admitted.append(n)
                blocked[n + F[: np.searchsorted(F, N - n, "right")]] = True
    return DiffFreeInstance(N, generators, admitted)


def trivial_multiples(N: int, k: int) -> DiffFreeInstance:
    """A = {x p : 1 <= x <= p^(k-1)} for the largest prime
    N^(1/k)/2 <= p <= N^(1/k); difference-free against x^k since every
    difference is a multiple of p smaller than p^k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if N < 1 or N.bit_length() <= k:  # N < 2^k without building 2^k
        raise ValueError("need N >= 2^k")
    hi = integer_nth_root(N, k)
    lo = -(-hi // 2)  # ceil(N^(1/k) / 2) within integer truncation
    p = next((c for c in range(hi, lo - 1, -1) if is_prime(c)), None)
    assert p is not None, "Bertrand guarantees a prime in [N^(1/k)/2, N^(1/k)]"
    gens = [IntPolynomial([0] * k + [1])]
    inst = DiffFreeInstance(N, gens, [x * p for x in range(1, p ** (k - 1) + 1)])
    assert verify(inst) is None
    return inst


# -- modular search ------------------------------------------------------------


@dataclass
class ModularInstance:
    """Forbidden differences D = nonzero k-th power residues mod q."""

    q: int
    k: int
    D: frozenset[int]
    D_symmetric: bool

    @classmethod
    def build(cls, q: int, k: int) -> "ModularInstance":
        D = frozenset(pow(x, k, q) for x in range(q)) - {0}
        return cls(q=q, k=k, D=D, D_symmetric=frozenset((q - d) % q for d in D) == D)

    @property
    def D_sym(self) -> frozenset[int]:
        return self.D | frozenset((self.q - d) % self.q for d in self.D)


def verify_modular(B, q: int, D) -> bool:
    """True when no two elements of B differ (mod q) by an element of D."""
    elems = sorted(set(b % q for b in B))
    Dset = set(D)
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            if (b - a) % q in Dset or (a - b) % q in Dset:
                return False
    return True


@dataclass
class SearchResult:
    best: tuple[int, ...]
    size: int
    optimal: bool
    nodes: int
    upper_bound: int


def _greedy_clique_cover_bound(cand: int, adj: list[int]) -> int:
    """Upper bound on the independent set inside cand: greedy clique cover."""
    bound = 0
    rest = cand
    while rest:
        v = _lsb_index(rest)
        clique = 1 << v
        common = adj[v] & rest
        rest &= ~(1 << v)
        while common:
            u = _lsb_index(common)
            clique |= 1 << u
            common &= adj[u] & ~(1 << u)
        rest &= ~clique
        bound += 1
    return bound


def _max_independent(
    adj: Sequence[int],
    cand: int,
    best_bits: int = 0,
    budget: float = math.inf,
    target: Optional[int] = None,
) -> tuple[int, int, bool]:
    """Maximum independent set inside the vertex bitset cand, by iterative
    depth-first branch-and-bound over the adjacency bitsets adj.

    best_bits is an independent set to beat.  Every popped node counts; the
    search gives up once the count exceeds budget, and stops at the first set
    of size target.  Nodes are pruned by their candidate popcount and, every
    16384 nodes, by a greedy clique cover.  It branches on the lowest
    candidate vertex, include first (on a Cayley graph all degrees are equal,
    so this is the degree order).  Returns (best_bits, nodes, exhausted).
    """
    best_size = best_bits.bit_count()
    if target is not None and best_size >= target:
        return best_bits, 0, False
    nodes = 0
    stack = [(0, 0, cand)]
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
        if nodes % 16384 == 0 and (
            size + _greedy_clique_cover_bound(cand, adj) <= best_size
        ):
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        # exclude branch pushed first so the include branch pops first
        stack.append((size, chosen, cand ^ low))
        stack.append((size + 1, chosen | low, cand & ~(adj[v] | low)))
    return best_bits, nodes, True


def modular_search(
    q: int,
    k: int,
    mode: str = "branch_bound",
    budget: int = 10**9,
    seed: int = 0,
    target: Optional[int] = None,
) -> SearchResult:
    """Maximum independent set in the Cayley graph of (Z/q, symmetrized D).

    mode "exhaustive" (q <= 32) runs branch-and-bound to completion and is
    provably optimal.  mode "branch_bound" warm-starts with seeded greedy
    restarts, then explores within the node budget; it stops early when
    `target` is reached (best-effort semantics) and reports optimal=True only
    if the tree was exhausted.  The returned set is always re-verified.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode == "exhaustive" and q > 32:
        raise ValueError("exhaustive mode requires q <= 32")
    if q > SEARCH_Q_LIMIT:
        # 3000 greedy restarts of O(q) each, and q adjacency bitsets of q bits
        raise ResourceLimit(f"modular search capped at q <= {SEARCH_Q_LIMIT} (got q = {q})")
    inst = ModularInstance.build(q, k)
    D_sym = inst.D_sym
    adj = [_bits_from([(v + d) % q for d in D_sym]) for v in range(q)]

    best: list[int] = []
    if mode != "exhaustive":
        rng = random.Random(seed)
        for _ in range(3000):
            perm = list(range(q))
            rng.shuffle(perm)
            chosen: list[int] = []
            banned = 0
            for v in perm:
                b = 1 << v
                if not banned & b:
                    chosen.append(v)
                    banned |= b | adj[v]
            if len(chosen) > len(best):
                best = sorted(chosen)
            if target is not None and len(best) >= target:
                break

    full = (1 << q) - 1
    best_bits, nodes, exhausted = _max_independent(
        adj, full, _bits_from(best), budget, target
    )
    members = tuple(sorted(v for v in range(q) if best_bits & (1 << v)))
    assert verify_modular(members, q, inst.D), "search produced an invalid set"
    return SearchResult(
        best=members,
        size=len(members),
        optimal=exhausted,
        nodes=nodes,
        upper_bound=_greedy_clique_cover_bound(full, adj),
    )


@dataclass
class ConstructionRejected:
    """A lifted construction failed its mandatory re-verification."""

    violation: Violation
    q: int
    k: int
    N: int

    def to_json(self) -> dict:
        return {
            "rejected": True,
            "q": self.q,
            "k": self.k,
            "N": self.N,
            "violation": self.violation.to_json(),
        }


def ruzsa_exponent(q: int, B_size: int, k: int) -> float:
    """c = (k - 1 + log|B| / log q) / k."""
    return (k - 1 + math.log(B_size) / math.log(q)) / k


def ruzsa_lift(
    B, q: int, k: int, N: int
) -> Union[DiffFreeInstance, ConstructionRejected]:
    """Base-q digit lift of a k-th-power-difference-free set mod q.

    Digits at positions = 0 mod k are drawn from B, the remaining positions
    range over [0, q).  The construction details are external folklore and
    treated as untrusted: the result is re-verified, and a verification
    failure returns ConstructionRejected with the witness.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    B = sorted(set(int(b) % q for b in B))
    if not B:
        raise ValueError("B must be nonempty")
    # translate so that 0 is in B: the top digit may then be 0, so the lift is
    # never empty; a translate of a difference-free set is difference-free
    B = [b - B[0] for b in B]
    for p, e in factorize(q):
        if e > 1:
            raise ValueError("q must be squarefree")
    inst_mod = ModularInstance.build(q, k)
    if not verify_modular(B, q, inst_mod.D):
        raise ValueError("B is not k-th-power-difference-free mod q")

    n_digits = 1
    while q**n_digits <= N:
        n_digits += 1
    members: list[int] = []

    def extend(pos: int, value: int):
        if value > N:
            return
        if pos == n_digits:
            if 1 <= value <= N:
                members.append(value)
            return
        choices = B if pos % k == 0 else range(q)
        base = q**pos
        for d in choices:
            nv = value + d * base
            if nv <= N:
                extend(pos + 1, nv)
            else:
                break

    extend(0, 0)
    gens = [IntPolynomial([0] * k + [1])]
    inst = DiffFreeInstance(N, gens, [m for m in members if m >= 1])
    bad = verify(inst)
    if bad is not None:
        return ConstructionRejected(violation=bad, q=q, k=k, N=N)
    return inst


def exhaustive_max(
    N: int, generators: Sequence[IntPolynomial]
) -> tuple[int, tuple[int, ...]]:
    """Provably optimal maximum difference-free subset of [1, N] (N <= 40)."""
    if N > 40:
        raise ValueError("exact search restricted to N <= 40 (use greedy beyond)")
    F = forbidden_sumset(generators, N)
    adj = [0] * (N + 1)
    for v in range(1, N + 1):
        for f in F:
            if v + f <= N:
                adj[v] |= 1 << (v + f)
            if v - f >= 1:
                adj[v] |= 1 << (v - f)

    full = ((1 << (N + 1)) - 1) & ~1  # vertices 1..N
    best_bits, _, _ = _max_independent(adj, full)
    witness = tuple(v for v in range(1, N + 1) if best_bits & (1 << v))
    return len(witness), witness


def density_table(
    N_list: Sequence[int],
    generators: Sequence[IntPolynomial],
    methods: Sequence[str] = ("greedy", "trivial"),
) -> list[dict]:
    """Rows (N, method, size, density, fs_bound_shape, exp_bound_shape).

    The bound shapes are plotted with c = 1 and are reference-only:
    fs = (log N)^(-log log log log N) (None, a blank CSV field, when the
    iterated log is undefined at desk scale) and exp = exp(-sqrt(log N))
    (the two-polynomial shape at mu = 1/2).
    """
    is_pure_power = (
        len(generators) == 1
        and generators[0].leading == 1
        and all(c == 0 for c in generators[0].coeffs[:-1])
    )
    rows = []
    for N in N_list:
        shapes = {}
        l1 = math.log(N)
        shapes["exp_bound_shape"] = math.exp(-math.sqrt(l1))
        l4 = l1
        ok = True
        for _ in range(3):
            if l4 <= 0:
                ok = False
                break
            l4 = math.log(l4)
        shapes["fs_bound_shape"] = l1 ** (-l4) if ok else None
        for method in methods:
            if method == "greedy":
                inst = greedy(N, generators)
            elif method == "trivial":
                if not is_pure_power:
                    continue
                inst = trivial_multiples(N, generators[0].degree)
            else:
                raise ValueError(f"unknown method {method!r}")
            rows.append(
                {
                    "N": N,
                    "method": method,
                    "size": len(inst),
                    "density": inst.density,
                    "fs_bound_shape": shapes["fs_bound_shape"],
                    "exp_bound_shape": shapes["exp_bound_shape"],
                }
            )
    return rows
