"""Discrete circle method over Z_N.

Normalized DFT of indicator functions, exact major/minor arc classification
(integer cross-multiplication, never floating division), per-denominator L2
arc mass, and the constructive density-increment extraction: from L2 mass of
the transform near fractions with denominator q, produce a genuine integer
arithmetic progression of step q on which the set's density rises by the
factor (1 + theta/16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

DFT_LIMIT = 2**24


@dataclass
class FourierData:
    """Length-N vector of hat-F(t) with the 1/N normalization."""

    N: int
    values: np.ndarray
    source_size: int

    def plancherel(self) -> tuple[float, float]:
        """(sum |hat F|^2, |A|/N): equal within rounding for indicator input."""
        return float(np.sum(np.abs(self.values) ** 2)), self.source_size / self.N


def dft_indicator(A: Iterable[int], N: int) -> FourierData:
    """hat-F(t) = (1/N) sum_x F(x) e(-x t / N) for the indicator of A in Z_N.

    A lives in [1, N]; the element N occupies the 0 slot of Z_N.  The
    transform is exact-length N (no padding: arcs live on the rational grid
    t/N).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > DFT_LIMIT:
        raise MemoryError(f"DFT length capped at N <= {DFT_LIMIT}, got {N}")
    try:
        idx = np.fromiter(A, dtype=np.int64)
    except OverflowError:
        raise ValueError("set element outside [1, N] (beyond int64)") from None
    bad = np.flatnonzero((idx < 1) | (idx > N))
    if len(bad):
        raise ValueError(f"set element {idx[bad[0]]} outside [1, N]")
    vec = np.zeros(N, dtype=np.complex128)
    vec[idx % N] = 1.0
    values = np.fft.fft(vec, out=vec)
    values /= N
    return FourierData(N=N, values=values, source_size=len(idx))


@dataclass(frozen=True)
class ArcLabel:
    kind: str  # "zero" | "major" | "minor"
    a: int = 0
    q: int = 0
    disjointness_ok: bool = True


def classify(t: int, N: int, K: Union[float, Fraction], Q: int) -> ArcLabel:
    """Arc label of the frequency t: Zero, Major(a, q), or Minor.

    Major means |t/N - a/q| < K/N for some reduced a/q with a in [1, q],
    q <= Q; decided by exact integer cross-multiplication (K is taken as the
    exact dyadic rational its float is).  When 2*K*Q^2 >= N the pairwise
    disjointness guarantee fails; the smallest-q match is returned with the
    flag cleared.
    """
    if not 0 <= t < N:
        raise ValueError("t must be a Z_N representative in [0, N)")
    Kf = Fraction(K)
    ok = 2 * Kf * Q * Q < N
    if t == 0:
        return ArcLabel("zero", disjointness_ok=ok)
    for q in range(1, Q + 1):
        a0 = t * q // N
        for a in (a0, a0 + 1):
            if 1 <= a <= q and math.gcd(a, q) == 1:
                if abs(t * q - a * N) < Kf * q:
                    return ArcLabel("major", a=a, q=q, disjointness_ok=ok)
    return ArcLabel("minor", disjointness_ok=ok)


def arc_frequencies(
    N: int, K: Union[float, Fraction], q: int, reduced_only: bool = True
) -> set[int]:
    """Frequencies of M_q(N, K) (reduced a only) or M'_q(N, K) (all a in [1, q]).

    Exact: t in (a N/q - K, a N/q + K), t != 0, t in [0, N).
    """
    Kf = Fraction(K)
    out: set[int] = set()
    for a in range(1, q + 1):
        if reduced_only and math.gcd(a, q) != 1:
            continue
        center = Fraction(a * N, q)
        lo = center - Kf
        hi = center + Kf
        t_min = lo.numerator // lo.denominator + 1  # smallest integer > lo
        t_max = -((-hi.numerator) // hi.denominator) - 1  # largest integer < hi
        for t in range(max(t_min, 1), min(t_max, N - 1) + 1):
            out.add(t)
    return out


def arc_mass(fd: FourierData, q: int, K: Union[float, Fraction]) -> float:
    """sum over t in M_q(N, K) of |hat F(t)|^2 (reduced fractions, t != 0)."""
    if q > fd.N:
        raise ValueError("q must not exceed N")
    ts = arc_frequencies(fd.N, K, q, reduced_only=True)
    if not ts:
        return 0.0
    idx = np.fromiter(ts, dtype=np.int64)
    return float(np.sum(np.abs(fd.values[idx]) ** 2))


def arc_mass_divisors(fd: FourierData, q: int, K: Union[float, Fraction]) -> float:
    """Mass over M'_q(N, K) = union of M_r over r | q (all a in [1, q])."""
    ts = arc_frequencies(fd.N, K, q, reduced_only=False)
    if not ts:
        return 0.0
    idx = np.fromiter(ts, dtype=np.int64)
    return float(np.sum(np.abs(fd.values[idx]) ** 2))


@dataclass
class Progression:
    """Verified density increment: an arithmetic progression in [1, L]."""

    start: int  # first element
    step: int
    length: int
    count: int  # |B cap P|
    density: Fraction
    sigma: Fraction
    threshold: Fraction  # sigma * (1 + theta/16)
    floor_length: int  # the X = floor(min(theta, 1/K) L / 16 q) of the construction
    case: str  # "large-shift" (unbounded branch) or "positive-mass"

    def elements(self) -> list[int]:
        return [self.start + i * self.step for i in range(self.length)]

    def verify(self, B: set[int], L: int) -> bool:
        els = self.elements()
        if not els or els[0] < 1 or els[-1] > L:
            return False
        cnt = sum(1 for e in els if e in B)
        return cnt == self.count and Fraction(cnt, self.length) >= self.threshold


@dataclass
class NoIncrement:
    reason: str
    mass: float = 0.0
    required_mass: float = 0.0


def correlation_counts(B: set[int], L: int, q: int, X: int) -> np.ndarray:
    """c[x] = |B cap (P + x)| for every x in Z_L, P = {q, 2q, ..., Xq} mod L.

    One real FFT correlation; each buffer is released once consumed, and
    the counts are exact integers after rounding.
    """
    vec = np.zeros(L, dtype=np.float64)
    vec[np.fromiter(B, dtype=np.int64, count=len(B)) % L] = 1.0
    fb = np.fft.rfft(vec)
    vec[:] = 0.0
    vec[np.arange(1, X + 1, dtype=np.int64) * q % L] = 1.0
    fp = np.fft.rfft(vec)
    del vec
    np.conjugate(fp, out=fp)
    fb *= fp
    del fp
    corr = np.fft.irfft(fb, n=L)
    del fb
    return np.rint(corr).astype(np.int64)


def extract_progression(
    B: set[int],
    L: int,
    q: int,
    K: Union[float, Fraction],
    theta: Union[float, Fraction],
) -> Union[Progression, NoIncrement]:
    """Constructive L2 density increment on Z_L.

    Precondition (checked): sum of |hat B(t)|^2 over M'_q(L, K) >= theta sigma^2.
    Follows the constructive proof literally: form P = {q, 2q, ..., Xq} with
    X = floor(min(theta, 1/K) L / 16 q), correlate the balanced function with
    P, scan the translate maximum first (the unbounded branch, splitting a
    wrapped translate into at most two genuine progressions), otherwise use
    the positive-mass branch over the non-wrapping translates.  The returned
    progression is re-verified by direct counting before being returned.
    """
    if not B:
        return NoIncrement("empty set")
    sigma = Fraction(len(B), L)
    theta_f = Fraction(theta)
    if not 0 < theta_f <= 1:
        raise ValueError("theta must be in (0, 1]")
    K_f = Fraction(K)

    mass = arc_mass_divisors(dft_indicator(B, L), q, K_f)
    required = float(theta_f * sigma * sigma)
    if mass < required:
        return NoIncrement("insufficient arc mass", mass=mass, required_mass=required)

    X = int(min(theta_f, 1 / K_f) * L // (16 * q))
    if X < 1:
        return NoIncrement("degenerate progression length", mass=mass, required_mass=required)

    threshold = sigma * (1 + theta_f / 16)

    counts = correlation_counts(B, L, q, X)

    def lifted_pieces(x: int) -> list[tuple[int, int]]:
        """(start, length) pieces of P + x as genuine integer progressions."""
        # elements x + l q for l = 1..X; wraps where x + l q > L
        if x + X * q <= L:
            return [(x + q, X)]
        l_wrap = (L - x) // q  # largest l with x + l q <= L
        pieces = []
        if l_wrap >= 1:
            pieces.append((x + q, l_wrap))
        if l_wrap < X:
            pieces.append((x + (l_wrap + 1) * q - L, X - l_wrap))
        return pieces

    def finish(start: int, length: int, case: str) -> Optional[Progression]:
        cnt = sum(1 for i in range(length) if (start + i * q) in B)
        dens = Fraction(cnt, length)
        if dens >= threshold:
            prog = Progression(
                start=start,
                step=q,
                length=length,
                count=cnt,
                density=dens,
                sigma=sigma,
                threshold=threshold,
                floor_length=X,
                case=case,
            )
            assert prog.verify(B, L)
            return prog
        return None

    # unbounded branch first: any translate with count > 2 sigma X
    x_max = int(np.argmax(counts))
    if counts[x_max] * L > 2 * len(B) * X:
        pieces = lifted_pieces(x_max)
        # at least one piece carries excess >= sigma X / 2
        best = None
        for start, length in pieces:
            cand = finish(start, length, "large-shift")
            if cand and (best is None or cand.count > best.count):
                best = cand
        if best is not None:
            return best

    # positive-mass branch over non-wrapping translates x in [0, L - Xq]
    e_hi = L - X * q
    window = counts[: e_hi + 1]
    x_best = int(np.argmax(window))
    cand = finish(x_best + q, X, "positive-mass")
    if cand is not None:
        return cand
    return NoIncrement(
        "no qualifying translate (precondition margin too thin)",
        mass=mass,
        required_mass=required,
    )
