"""Discrete circle method: DFT, arc classification, arc mass, and the
constructive density increment."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ilab.circle import (
    NoIncrement,
    Progression,
    arc_frequencies,
    arc_mass,
    arc_mass_divisors,
    classify,
    correlation_counts,
    dft_indicator,
    extract_progression,
)


def loop_dft_indicator(A, N):
    """Reference: the indicator filled element by element, then one FFT."""
    vec = np.zeros(N, dtype=np.float64)
    count = 0
    for a in A:
        vec[a % N] = 1.0
        count += 1
    return np.fft.fft(vec) / N, count


class TestDft:
    def test_full_interval(self):
        fd = dft_indicator(range(1, 101), 100)
        assert fd.values[0].real == pytest.approx(1.0)
        assert max(abs(fd.values[t]) for t in range(1, 100)) < 1e-9

    def test_singleton(self):
        fd = dft_indicator([17], 100)
        mags = np.abs(fd.values)
        assert np.allclose(mags, 1 / 100)

    def test_multiples_of_five(self):
        fd = dft_indicator([5 * i for i in range(1, 21)], 100)
        mags = np.abs(fd.values)
        spikes = {t for t in range(100) if mags[t] > 1e-9}
        assert spikes == {0, 20, 40, 60, 80}
        assert mags[20] == pytest.approx(0.2)

    def test_direct_oracle(self):
        rng = random.Random(600)
        N = 48
        A = [n for n in range(1, N + 1) if rng.random() < 0.4]
        fd = dft_indicator(A, N)
        for t in range(N):
            direct = sum(cmath.exp(-2j * cmath.pi * (a % N) * t / N) for a in A) / N
            assert abs(fd.values[t] - direct) < 1e-12

    def test_round_trip(self):
        rng = random.Random(601)
        N = 2**20
        A = rng.sample(range(1, N + 1), 5000)
        fd = dft_indicator(A, N)
        rec = np.fft.ifft(fd.values * N)
        vec = np.zeros(N)
        for a in A:
            vec[a % N] = 1.0
        assert float(np.max(np.abs(rec - vec))) < 1e-9

    def test_plancherel(self):
        fd = dft_indicator(range(1, 70, 3), 128)
        lhs, rhs = fd.plancherel()
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_guards(self):
        with pytest.raises(MemoryError):
            dft_indicator([1], 2**25)
        with pytest.raises(ValueError):
            dft_indicator([0], 10)
        with pytest.raises(ValueError, match="set element 11 outside"):
            dft_indicator(iter([3, 11, -4]), 10)
        with pytest.raises(ValueError, match="outside"):
            dft_indicator([2**70], 10)

    @pytest.mark.parametrize("N", [1, 97, 1000, 3**7, 10**5 + 3, 2**21])
    def test_bit_identical_to_loop(self, N):
        rng = random.Random(N)
        A = [rng.randint(1, N) for _ in range(min(N, 5000))] + [N, N]  # duplicates
        fd = dft_indicator(iter(A), N)
        values, count = loop_dft_indicator(A, N)
        assert fd.values.tobytes() == values.tobytes()
        assert fd.source_size == count == len(A)


class TestClassify:
    def test_examples(self):
        assert classify(0, 1000, 5, 9).kind == "zero"
        lab = classify(333, 1000, 5, 9)
        assert (lab.kind, lab.a, lab.q) == ("major", 1, 3)
        assert classify(387, 1000, 2, 3).kind == "minor"

    def test_boundary_is_strict(self):
        # |t/N - a/q| = K/N exactly must NOT be major
        # N=100, K=2, t=52, a=1, q=2: |52/100 - 1/2| = 2/100
        assert classify(52, 100, 2, 3).kind == "minor"
        assert classify(51, 100, 2, 3).kind == "major"

    def test_disjointness_flag(self):
        assert not classify(10, 100, 10, 10).disjointness_ok

    def test_near_one_wraps_to_q1(self):
        lab = classify(999, 1000, 5, 9)
        assert (lab.kind, lab.a, lab.q) == ("major", 1, 1)


class TestArcMass:
    def test_full_interval_zero(self):
        fd = dft_indicator(range(1, 101), 100)
        for q in (2, 3, 5):
            assert arc_mass(fd, q, 1) < 1e-12

    def test_multiples_of_five(self):
        fd = dft_indicator([5 * i for i in range(1, 21)], 100)
        assert arc_mass(fd, 5, 1) == pytest.approx(0.16)

    def test_total_below_plancherel(self):
        rng = random.Random(602)
        N = 240
        A = [n for n in range(1, N + 1) if rng.random() < 0.5]
        fd = dft_indicator(A, N)
        total, _ = fd.plancherel()
        covered = set()
        mass = 0.0
        for q in range(1, N + 1):
            for t in arc_frequencies(N, 1, q, reduced_only=True):
                if t not in covered:
                    covered.add(t)
                    mass += abs(fd.values[t]) ** 2
        assert mass <= total + 1e-12

    def test_translation_covariance(self):
        rng = random.Random(603)
        N = 360
        A = [n for n in range(1, N + 1) if rng.random() < 0.3]
        fd = dft_indicator(A, N)
        for s in (1, 7, 100):
            shifted = [(a + s - 1) % N + 1 for a in A]
            fd2 = dft_indicator(shifted, N)
            for q in (2, 3, 5, 12):
                assert arc_mass(fd2, q, 2) == pytest.approx(
                    arc_mass(fd, q, 2), abs=1e-9
                )

    def test_divisor_union(self):
        rng = random.Random(604)
        N = 120
        A = [n for n in range(1, N + 1) if rng.random() < 0.4]
        fd = dft_indicator(A, N)
        ts = arc_frequencies(N, 2, 6, reduced_only=False)
        expect = sum(abs(fd.values[t]) ** 2 for t in ts)
        assert arc_mass_divisors(fd, 6, 2) == pytest.approx(expect)
        union = set()
        for r in (1, 2, 3, 6):
            union |= arc_frequencies(N, 2, r, reduced_only=True)
        assert ts == union


class TestExtractProgression:
    def test_multiples_of_seven(self):
        L = 10**4
        B = set(range(7, L + 1, 7))
        res = extract_progression(B, L, 7, 1, 0.5)
        assert isinstance(res, Progression)
        assert res.step == 7
        assert res.density >= Fraction(1, 7) * (1 + Fraction(1, 32))
        assert res.verify(B, L)
        assert res.floor_length == int(min(Fraction(1, 2), 1) * L // (16 * 7))

    def test_random_set_no_increment(self):
        rng = random.Random(605)
        refused = 0
        for trial in range(10):
            B = {n for n in range(1, 1001) if rng.random() < 0.5}
            res = extract_progression(B, 1000, 3, 1, 0.5)
            if isinstance(res, NoIncrement):
                refused += 1
        assert refused >= 8  # random sets have no q=3 Fourier concentration

    def test_interval_positive_mass_branch(self):
        # K = 2 puts real mass on M'_1; the construction finds a subinterval
        L = 1000
        B = set(range(1, L // 2 + 1))
        res = extract_progression(B, L, 1, 2, 0.1)
        assert isinstance(res, Progression)
        assert res.case == "positive-mass"
        assert res.density >= res.threshold
        assert res.verify(B, L)

    def test_k1_q1_mass_is_empty(self):
        # under the strict arc definition M'_1(L, 1) \ {0} is empty, so the
        # checked precondition fails regardless of the set
        B = set(range(1, 501))
        res = extract_progression(B, 1000, 1, 1, 0.1)
        assert isinstance(res, NoIncrement)
        assert res.mass == 0.0

    def test_self_verification_and_exactness(self):
        rng = random.Random(606)
        found = 0
        for _ in range(20):
            L = rng.randint(200, 2000)
            q = rng.choice([2, 3, 5, 7])
            # structured set: q-periodic with noise
            B = {n for n in range(1, L + 1) if n % q == 1 and rng.random() < 0.9}
            B |= {n for n in range(1, L + 1) if rng.random() < 0.02}
            if not B:
                continue
            res = extract_progression(B, L, q, 1, 0.3)
            if isinstance(res, Progression):
                found += 1
                assert res.verify(B, L)
                assert res.count == sum(1 for e in res.elements() if e in B)
                assert res.elements()[0] >= 1 and res.elements()[-1] <= L
        assert found >= 10

    def test_empty_set(self):
        assert isinstance(extract_progression(set(), 100, 2, 1, 0.5), NoIncrement)


class TestCorrelationCounts:
    def test_complex_fft_oracle(self):
        rng = random.Random(607)
        for _ in range(20):
            L = rng.randint(50, 5000)  # odd and even lengths
            q = rng.randint(1, 12)
            X = rng.randint(1, max(1, L // q))
            B = {n for n in range(1, L + 1) if rng.random() < rng.choice([0.05, 0.5])}
            if not B:
                continue
            bvec = np.zeros(L)
            bvec[[b % L for b in B]] = 1.0
            pvec = np.zeros(L)
            pvec[np.arange(1, X + 1) * q % L] = 1.0
            corr = np.fft.ifft(np.fft.fft(bvec) * np.conj(np.fft.fft(pvec))).real
            assert correlation_counts(B, L, q, X).tolist() == np.rint(corr).astype(np.int64).tolist()

    def test_direct_count(self):
        rng = random.Random(608)
        L, q, X = 97, 5, 12
        B = set(rng.sample(range(1, L + 1), 40))
        P = [l * q for l in range(1, X + 1)]
        direct = [sum((p + x) % L in {b % L for b in B} for p in P) for x in range(L)]
        assert correlation_counts(B, L, q, X).tolist() == direct
