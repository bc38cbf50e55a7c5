"""Difference-free set workbench.

Instances pair an interval [1, N] with a list of generator polynomials; the
forbidden differences are the sumset I(g_1) + ... + I(g_l) of positive image
elements, truncated to [1, N-1].  Verification picks the cheaper of two
exact checks: the |A|(|A|-1)/2 pairwise differences looked up in the sorted
forbidden set F, or one shift-AND of A's bitset per forbidden value,
|F|*ceil(N/64) machine words.  The bitset is packed from a bool mask, so it
costs O(N) bytes to build; a set of fewer than two members passes without
building F.  The greedy scan admits a whole window of positions per pass:
admissions inside the window are resolved on one Python int, and the new
members block n + F beyond it in one numpy write.  The greedy scan is exact
by construction (the tests check it against the one-position loop); the
multiples of a prime and the base-q digit lifts of modular sets are
re-verified.  Modular search looks for a maximum independent set in the
Cayley graph of Z/q whose connection set is the nonzero k-th power
residues, symmetrized.  The multipliers that fix that set split the
non-neighbours of 0 into orbits, and one subtree per orbit fixes 0 and the
orbit's least element on a denser Cayley graph; a branch-and-bound that
colours every node's candidates by greedy clique cover searches each.  A
search that exhausts its subtrees proves the optimum (within the default
budget at q = 205, 221, 265, 290 and 305, the first in 438 nodes).  In
exhaustive mode a search that its budget cuts short is a ResourceLimit;
otherwise it also runs 3000 seeded greedy passes, side by side as one
numpy pass over the vertex-order columns, and keeps the larger set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .arith import factorize, integer_nth_root, is_prime
from .auxiliary import image_cutoff, image_elements
from .padic import ResourceLimit
from .poly import IntPolynomial
from .setio import sorted_distinct

SUMSET_LIMIT = 10**8
BITSET_LIMIT = 2**28  # bits, so the bool mask behind one bitset stays <= 256 MiB
SEARCH_Q_LIMIT = 1000
# members of the trivial construction; at k = 2 and the limit, its pairwise
# re-verification takes about 15 s on a 2-core box
TRIVIAL_LIMIT = 2**15
# N of the Ruzsa lift; at the limit, q = 5 and k = 2 take about 2.5 s
RUZSA_LIMIT = 10**7
# greedy's window width, and the most n + F sums it writes at once
GREEDY_CHUNK = 2**9
GREEDY_BLOCK = 2**16
# greedy's N, so that the largest member of any greedy set fits one bitset
GREEDY_LIMIT = BITSET_LIMIT - 1
# one searchsorted lookup of a difference costs about as much as 8 words of
# big-int shift-AND (measured on difference-free sets with N <= 10^7)
PAIR_COST_WORDS = 8
# greedy passes of the modular search's warm start, and the rows of random
# keys drawn and argsorted at a time
WARM_RESTARTS = 3000
PERM_SLICE = 500


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


def _bits_from(members: Iterable[int]) -> int:
    """The int with bit m set for every m in members (all >= 0), packed from
    a bool mask of max(members) + 1 entries."""
    members = sorted_distinct(members)
    top = int(members[-1]) if len(members) else -1
    if top >= BITSET_LIMIT:
        raise ResourceLimit(f"bitset capped at {BITSET_LIMIT} bits (largest member {top})")
    mask = np.zeros(top + 1, dtype=bool)
    mask[members] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _lsb_index(m: int) -> int:
    return (m & -m).bit_length() - 1


def forbidden_sumset(generators: Sequence[IntPolynomial], N: int) -> np.ndarray:
    """I(g_1) + ... + I(g_l) truncated to [1, N-1], as a sorted int64 array.

    Each further generator forms |F| * |img| pair sums, capped at
    SUMSET_LIMIT; once F is empty, no further image is enumerated.
    """
    if not generators:
        raise ValueError("at least one generator required")
    F = image_elements(generators[0], N - 1)
    for g in generators[1:]:
        if not len(F):
            break
        img = image_elements(g, N - 1)
        if len(F) * len(img) > SUMSET_LIMIT:
            raise ResourceLimit(
                f"forbidden sumset capped at {SUMSET_LIMIT} pair sums per generator "
                f"({len(F)} x {len(img)})"
            )
        F = sorted_distinct({a + v for a in F.tolist() for v in img.tolist() if a + v <= N - 1})
    return F


class DiffFreeInstance:
    """A candidate difference-free set A inside [1, N]; members is A as a sorted
    int64 array (an int64 ndarray passed in is sorted in place)."""

    def __init__(self, N: int, generators: Sequence[IntPolynomial], members: Iterable[int]):
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        if N >= 2**63:
            raise ResourceLimit(f"sets capped at N < 2^63 (int64 members), got {N}")
        self.N = N
        self.generators = tuple(generators)
        try:
            self.members = sorted_distinct(members)
        except OverflowError:  # a member past int64 is past N too
            raise ValueError("members must lie in [1, N]") from None
        if len(self.members) and not (1 <= self.members[0] and self.members[-1] <= N):
            raise ValueError("members must lie in [1, N]")

    @cached_property
    def bits(self) -> int:
        return _bits_from(self.members)

    @cached_property
    def forbidden(self) -> np.ndarray:
        return forbidden_sumset(self.generators, self.N)

    @property
    def density(self) -> float:
        return len(self.members) / self.N

    def __len__(self) -> int:
        return len(self.members)


def decompose_difference(
    diff: int, generators: Sequence[IntPolynomial], bound: int
) -> Optional[tuple[int, ...]]:
    """Image values (one per generator) summing to diff, or None."""
    images = [image_elements(g, bound) for g in generators]

    def rec(i: int, rem: int) -> Optional[tuple[int, ...]]:
        img = images[i]
        below = int(np.searchsorted(img, rem))  # the image values < rem
        if i == len(images) - 1:
            return (rem,) if below < len(img) and img[below] == rem else None
        for v in img[:below].tolist():
            tail = rec(i + 1, rem - v)
            if tail is not None:
                return (v,) + tail
        return None

    return rec(0, diff)


def _shift_and_hit(A: int, F: np.ndarray) -> Optional[tuple[int, int]]:
    """(f, a') for the smallest f in the sorted array F with a' and a' + f
    both in the bitset A, taking the lowest such a'; None when there is none."""
    for f in F.tolist():  # Python ints: A >> np.int64 overflows
        hit = A & (A >> f)
        if hit:
            return f, _lsb_index(hit)
    return None


def _pairwise_hit(A: np.ndarray, F: np.ndarray) -> Optional[tuple[int, int]]:
    """The same (f, a') as _shift_and_hit, from the differences of the sorted
    int64 members A looked up in F, one row a' at a time."""
    if not len(F):
        return None
    best: Optional[tuple[int, int]] = None
    reach = int(F[-1])  # after a hit, only differences below its f can win
    for i in range(len(A) - 1):
        a = int(A[i])
        stop = np.searchsorted(A, a + reach, "right")
        diffs = A[i + 1 : stop] - a
        pos = np.searchsorted(F, diffs)
        found = diffs[F[pos] == diffs]  # diffs <= reach <= max F keeps pos in range
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
    shift-AND per f in F, |F|*ceil(N/64) words, wins otherwise.  A set of
    fewer than two members has no difference, so F is not built for it."""
    n = len(inst.members)
    if n < 2:
        return None
    F = inst.forbidden
    if PAIR_COST_WORDS * n * (n - 1) // 2 < len(F) * -(-inst.N // 64):
        hit = _pairwise_hit(inst.members, F)
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
    members = inst.members.tolist()
    forb = set(inst.forbidden.tolist())
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if b - a in forb:
                return False
    return True


def greedy(N: int, generators: Sequence[IntPolynomial]) -> DiffFreeInstance:
    """Admit n = 1..N whenever no previously admitted a has n - a forbidden.

    Runs over GREEDY_CHUNK-wide windows.  A window's unblocked positions
    become one int, and its admissions are resolved there lowest bit first:
    admitting start + off clears the bits off + f for f = 0 and for each f
    in F below the width, which are all the differences two members of one
    window can have.  The window's new members then block n + F in one
    numpy write, F cut at N minus the first of them, at most GREEDY_BLOCK
    sums at a time.  N past GREEDY_LIMIT is refused before F or the mask
    is built; the generators' image guards, which every sets command meets
    first, are checked before that refusal."""
    if N > GREEDY_LIMIT:
        for g in generators:
            image_cutoff(g, N - 1)
        raise ResourceLimit(f"greedy construction capped at N <= {GREEDY_LIMIT}, got {N}")
    F = forbidden_sumset(generators, N)
    width = GREEDY_CHUNK
    # bit 0 for the member itself, bit f for each f in F below the width
    near = _bits_from([0, *F[: np.searchsorted(F, width)].tolist()])
    # a write from the last member of a window reaches at most width - 1 past N
    blocked = np.zeros(N + 1 + width, dtype=bool)
    admitted: list[int] = []
    for start in range(1, N + 1, width):
        free = np.packbits(~blocked[start : min(start + width, N + 1)], bitorder="little")
        cand = int.from_bytes(free.tobytes(), "little")
        new = []
        while cand:
            off = (cand & -cand).bit_length() - 1
            new.append(start + off)
            cand &= ~(near << off)
        if not new:
            continue
        admitted += new
        Fc = F[: np.searchsorted(F, N - new[0], "right")]
        rows = GREEDY_BLOCK // max(len(Fc), 1) or 1
        members = np.array(new, dtype=np.int64)
        for i in range(0, len(members), rows):
            blocked[(members[i : i + rows, None] + Fc).ravel()] = True
    return DiffFreeInstance(N, generators, admitted)


def trivial_multiples(N: int, k: int) -> DiffFreeInstance:
    """A = {x p : 1 <= x <= p^(k-1)} for the largest prime
    N^(1/k)/2 <= p <= N^(1/k); difference-free against x^k since every
    difference is a multiple of p smaller than p^k.  Refuses N whose
    floor(N^(1/k))^(k-1), a bound on |A|, passes TRIVIAL_LIMIT."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if N < 1 or N.bit_length() <= k:  # N < 2^k without building 2^k
        raise ValueError("need N >= 2^k")
    hi = integer_nth_root(N, k)
    lo = -(-hi // 2)  # ceil(N^(1/k) / 2) within integer truncation
    if hi ** (k - 1) > TRIVIAL_LIMIT:  # p <= hi: refused before the prime search
        raise ResourceLimit(f"trivial construction capped at p^(k-1) <= {TRIVIAL_LIMIT} members")
    p = next((c for c in range(hi, lo - 1, -1) if is_prime(c)), None)
    assert p is not None, "Bertrand guarantees a prime in [N^(1/k)/2, N^(1/k)]"
    gens = [IntPolynomial([0] * k + [1])]
    inst = DiffFreeInstance(N, gens, range(p, p**k + 1, p))
    assert verify(inst) is None
    return inst


# -- modular search ------------------------------------------------------------


def power_residues(q: int, k: int) -> frozenset[int]:
    """The nonzero k-th power residues mod q."""
    return frozenset(pow(x, k, q) for x in range(q)) - {0}


class _PowerResidueTest:
    """Membership in power_residues(q, k), square-free q, without listing it:
    y = 0 mod q is out, else y must be a k-th power mod each p | q (CRT), that
    is y = 0 mod p or y^((p-1)/gcd(k, p-1)) = 1 mod p (Euler's criterion)."""

    def __init__(self, q: int, k: int):
        self.q = q
        self.exponents = [(p, (p - 1) // math.gcd(k, p - 1)) for p, _ in factorize(q)]

    def __contains__(self, y: int) -> bool:
        return y % self.q != 0 and all(y % p == 0 or pow(y, e, p) == 1 for p, e in self.exponents)


def verify_modular(B, q: int, D) -> bool:
    """True when no two elements of B differ (mod q) by a member of the container D."""
    elems = sorted(set(b % q for b in B))
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            if (b - a) % q in D or (a - b) % q in D:
                return False
    return True


@dataclass
class SearchResult:
    best: tuple[int, ...]
    size: int
    optimal: bool
    nodes: int
    upper_bound: int


def _clique_cover(cand: int, adj: Sequence[int]) -> list[int]:
    """Greedy clique cover of the vertex bitset cand, as a list of clique
    bitsets: each clique grows from the lowest uncovered vertex by the
    lowest common neighbour left in cand.  No independent set inside cand
    meets a clique twice, so the number of cliques bounds its size."""
    cliques = []
    rest = cand
    while rest:
        low = rest & -rest
        clique = low
        common = adj[low.bit_length() - 1] & rest
        while common:
            u = common & -common
            clique |= u
            common &= adj[u.bit_length() - 1]
        rest &= ~clique
        cliques.append(clique)
    return cliques


def _max_independent(
    adj: Sequence[int],
    cand: int,
    best_bits: int = 0,
    budget: float = math.inf,
    target: Optional[int] = None,
    root: int = 0,
) -> tuple[int, int, bool]:
    """Maximum independent set that contains the independent vertex bitset
    root and otherwise lies in the vertex bitset cand (which must avoid root
    and its neighbours), by iterative depth-first branch-and-bound over the
    adjacency bitsets adj, with a colouring bound at every node.

    A node is one candidate set, coloured by _clique_cover: a vertex of the
    c-th clique heads a child whose candidates are its non-neighbours in
    cliques 1..c-1, so that child cannot end above size + c.  Children
    branch from the highest colour down, and a child is cut as soon as
    that bound (or size + 1 + its popcount) is <= the best size.  Every
    chosen set is independent, so each node's set is a candidate best.

    best_bits is an independent set to beat.  The search gives up once the
    node count exceeds budget, and stops at the first set of size target.
    Returns (best_bits, nodes, exhausted).
    """
    best_size = best_bits.bit_count()
    if target is not None and best_size >= target:
        return best_bits, 0, False
    nodes = 0
    stack = [(math.inf, root.bit_count(), root, cand)]  # (bound, size, chosen, cand)
    while stack:
        bound, size, chosen, cand = stack.pop()
        if bound <= best_size:
            continue
        nodes += 1
        if nodes > budget:
            return best_bits, nodes, False
        if size > best_size:
            best_size, best_bits = size, chosen
            if target is not None and size >= target:
                return best_bits, nodes, False
        lower = 0  # the union of the cliques below the current colour
        for colour, clique in enumerate(_clique_cover(cand, adj), 1):
            if size + colour > best_size:
                rest = clique
                while rest:
                    low = rest & -rest
                    sub = lower & ~adj[low.bit_length() - 1]
                    stack.append(
                        (size + 1 + min(colour - 1, sub.bit_count()), size + 1, chosen | low, sub)
                    )
                    rest ^= low
            lower |= clique
    return best_bits, nodes, True


def _random_orders(q: int, seed: int, rows: int = WARM_RESTARTS) -> np.ndarray:
    """rows seeded random orders of range(q), as a (rows, q) int16 array.

    Row i sorts the vertices by little-endian uint32 keys drawn from
    random.Random(seed).randbytes, PERM_SLICE rows at a time; each key
    carries its vertex in its low 16 bits, so keys are distinct, equal draws
    keep vertex order, and any sort algorithm gives the same orders.
    numpy.random is never imported."""
    rng = random.Random(seed)
    orders = np.empty((rows, q), dtype=np.int16)
    vertex = np.arange(q, dtype=np.uint64)
    for start in range(0, rows, PERM_SLICE):
        n = min(PERM_SLICE, rows - start)
        draws = np.frombuffer(rng.randbytes(4 * n * q), dtype="<u4").reshape(n, q)
        orders[start : start + n] = np.argsort(draws.astype(np.uint64) << 16 | vertex, axis=1)
    return orders


def _greedy_passes(orders: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """One greedy pass per row of orders: admit each vertex in row order
    unless an admitted vertex is adjacent to it.  closed is the (q, q) bool
    adjacency with its diagonal set.  Returns the admitted sets as a
    (rows, q) bool array, built one order column at a time."""
    rows = np.arange(len(orders))
    banned = np.zeros((len(orders), closed.shape[0]), dtype=bool)
    admitted = np.zeros_like(banned)
    for v in orders.T:
        free = ~banned[rows, v]
        r, u = rows[free], v[free]
        admitted[r, u] = True
        banned[r] |= closed[u]
    return admitted


def _pick_restart(sizes: np.ndarray, target: Optional[int]) -> int:
    """The first restart to reach target, else the first of maximum size."""
    if target is not None:
        hit = sizes >= target
        if hit.any():
            return int(hit.argmax())
    return int(sizes.argmax())


def _cayley_rows(conn: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Row v of the Cayley graph of Z/q with connection set conn (a bool
    mask mod q, holding 0) for each v in verts: u is set when u - v is in
    conn, so each row holds its own vertex."""
    q = len(conn)
    return conn[(np.arange(q)[None, :] - verts[:, None]) % q]


def _adjacency(conn: np.ndarray, verts: np.ndarray) -> list[int]:
    """Adjacency bitsets of the Cayley graph of Z/q with connection set
    conn (a bool mask mod q, holding 0) at the vertices verts; the other
    entries stay 0."""
    adj = [0] * len(conn)
    packed = np.packbits(_cayley_rows(conn, verts), axis=1, bitorder="little")
    for v, row in zip(verts.tolist(), packed):
        adj[v] = int.from_bytes(row.tobytes(), "little") ^ (1 << v)
    return adj


def _difference_orbits(q: int, near: np.ndarray) -> list[np.ndarray]:
    """The orbits of the non-neighbours of 0 under the multipliers M = {u
    unit mod q : u D_sym = D_sym}, each sorted, in order of least element;
    near is the bool mask of 0 and D_sym.  A unit maps D_sym into D_sym
    only if it maps D_sym onto it, so one inclusion test per unit decides M."""
    units = np.array([u for u in range(1, q) if math.gcd(u, q) == 1], dtype=np.int64)
    dsym = np.flatnonzero(near)[1:]
    mult = units[near[np.outer(units, dsym) % q].all(axis=1)]
    seen = near.copy()
    orbits = []
    for r in range(q):
        if not seen[r]:
            # a mask, not np.unique, which imports numpy.ma (1.5 MB of RSS)
            orbit = np.zeros(q, dtype=bool)
            orbit[mult * r % q] = True
            seen |= orbit
            orbits.append(np.flatnonzero(orbit))
    return orbits


def modular_search(
    q: int,
    k: int,
    mode: str = "branch_bound",
    budget: int = 10**9,
    seed: int = 0,
    target: Optional[int] = None,
) -> SearchResult:
    """Maximum independent set in the Cayley graph of (Z/q, symmetrized D).

    Difference orbits: M = {u unit mod q : u D_sym = D_sym} contains -1
    and fixes 0, so it splits the non-neighbours of 0 into orbits O_1, O_2,
    ..., ordered by their least elements r_j.  If S is a maximum set with
    two or more members and O_j is the first orbit that meets S - S, a
    translate of S times some u in M is a maximum set that contains
    {0, r_j} and has no difference in O_1, ..., O_{j-1}.  So subtree j
    runs _max_independent from the root {0, r_j} on the Cayley graph whose
    connection set is D_sym plus O_1, ..., O_{j-1}.  The set to beat starts
    as {0} (the answer when there is no orbit) and carries from one
    subtree to the next; the node budget covers all subtrees, a search cut
    by it reports budget + 1 nodes, and `target` stops it at the first set
    of that size.  optimal=True only when every subtree was exhausted.

    mode "exhaustive" proves the optimum or raises ResourceLimit when the
    budget cuts the search short (`target` still stops it early).  In mode
    "branch_bound", a search that the budget cuts short of `target` also
    runs WARM_RESTARTS seeded greedy passes in random vertex order, side by
    side in numpy; the first pass of maximum size (or the first to reach
    `target`), translated to contain 0, is returned when it beats the
    search's set.  upper_bound is the size of an exhausted search; otherwise
    it is the smaller of two greedy clique covers: of the whole graph, and
    of the non-neighbours of 0 plus one for 0 itself.  The returned set is
    always re-verified.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if target is not None and target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if q > SEARCH_Q_LIMIT:
        # WARM_RESTARTS greedy passes over q columns of (q, q) adjacency rows,
        # and q adjacency bitsets of q bits
        raise ResourceLimit(f"modular search capped at q <= {SEARCH_Q_LIMIT} (got q = {q})")
    D = power_residues(q, k)
    near = np.zeros(q, dtype=bool)  # 0 and its neighbours, D and -D
    near[[0, *D, *(q - d for d in D)]] = True

    conn = near.copy()  # 0, D_sym and the orbits of the subtrees done
    best_bits, nodes, exhausted = 1, 0, True
    for orbit in _difference_orbits(q, near):
        r = int(orbit[0])
        verts = np.flatnonzero(~conn & ~np.roll(conn, r))  # away from 0 and r
        best_bits, used, exhausted = _max_independent(
            _adjacency(conn, verts),
            _bits_from(verts),
            best_bits,
            budget - nodes,
            target,
            root=1 | 1 << r,
        )
        nodes += used
        if not exhausted:
            break
        conn[orbit] = True

    size = upper_bound = best_bits.bit_count()
    if not exhausted:
        cut = target is None or size < target  # by the budget, not the target
        if cut and mode == "exhaustive":
            raise ResourceLimit(f"exhaustive search cut at its budget of {budget} nodes (q = {q})")
        vertices = np.arange(q)
        if cut:
            admitted = _greedy_passes(_random_orders(q, seed), _cayley_rows(near, vertices))
            warm = np.flatnonzero(admitted[_pick_restart(admitted.sum(axis=1), target)])
            if len(warm) > size:
                best_bits = _bits_from(warm - warm[0])  # the translate through 0
        adj = _adjacency(near, vertices)
        full = (1 << q) - 1
        rest = full & ~(adj[0] | 1)  # the non-neighbours of 0
        # a maximum set through 0 is 0 plus an independent set of rest
        upper_bound = min(len(_clique_cover(full, adj)), 1 + len(_clique_cover(rest, adj)))
    members = tuple(sorted(v for v in range(q) if best_bits & (1 << v)))
    assert verify_modular(members, q, D), "search produced an invalid set"
    return SearchResult(
        best=members,
        size=len(members),
        optimal=exhausted,
        nodes=nodes,
        upper_bound=upper_bound,
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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if N > RUZSA_LIMIT:
        raise ResourceLimit(f"Ruzsa lift capped at N <= {RUZSA_LIMIT}, got {N}")
    B = sorted(set(int(b) % q for b in B))
    if not B:
        raise ValueError("B must be nonempty")
    # translate so that 0 is in B: the top digit may then be 0, so the lift is
    # never empty; a translate of a difference-free set is difference-free
    B = [b - B[0] for b in B]
    for p, e in factorize(q):
        if e > 1:
            raise ValueError("q must be squarefree")
    if not verify_modular(B, q, _PowerResidueTest(q, k)):
        raise ValueError("B is not k-th-power-difference-free mod q")

    # digits lowest first: position pos takes B when pos = 0 mod k, else all
    # of [0, q); a partial sum past N only grows, so it is dropped at once
    vals = np.zeros(1, dtype=np.int64)
    pos = 0
    while q**pos <= N:
        digits = np.array(B if pos % k == 0 else range(q), dtype=np.int64)
        vals = (vals[:, None] + digits[digits <= N // q**pos] * q**pos).ravel()
        vals = vals[vals <= N]
        pos += 1
    gens = [IntPolynomial([0] * k + [1])]
    inst = DiffFreeInstance(N, gens, vals[vals >= 1])
    bad = verify(inst)
    if bad is not None:
        return ConstructionRejected(violation=bad, q=q, k=k, N=N)
    return inst


def density_table(N_list: Sequence[int], generators: Sequence[IntPolynomial]) -> list[dict]:
    """Rows (N, method, size, density, fs_bound_shape, exp_bound_shape):
    greedy at every N, and trivial after it when the one generator is a
    pure power x^k.

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
        insts = {"greedy": greedy(N, generators)}
        if is_pure_power:
            insts["trivial"] = trivial_multiples(N, generators[0].degree)
        for method, inst in insts.items():
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
