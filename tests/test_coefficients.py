"""Coefficient-provider tests: presets, combinators, the exact tau table."""
import math
import random
from fractions import Fraction
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistlab.coefficients import (ArgumentScaleProvider, CoefficientProvider,
                                   DirichletConvolutionProvider, OnesProvider,
                                   PeriodicProvider, RamanujanTauProvider,
                                   TableProvider, VerticalShiftProvider,
                                   tau_integers)
from twistlab.errors import BudgetError
from twistlab import coefficients, exactconv
from twistlab.exactconv import conv_exact, limb_width
from twistlab.presets import PRESET_NAMES, get_preset

ZETA_3_5 = 1.12673386731705665  # frozen high-precision value


def schoolbook(a, b, out_len):
    """Exact convolution by the definition: the oracle for conv_exact."""
    out = [0] * out_len
    for i, ai in enumerate(a):
        if ai:
            top = min(len(b), out_len - i)
            for j in range(top):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def divisor_count(n: int) -> int:
    c, i = 0, 1
    while i * i <= n:
        if n % i == 0:
            c += 1 if i * i == n else 2
        i += 1
    return c


def integer_root(n: int, k: int) -> int:
    """The largest r with r^k <= n, by bisection on integers."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestOneRoute:
    def test_no_provider_defines_its_own_coefficient(self):
        # each provider computes a_n once, in bulk; coefficient(n) is the
        # base class's read of bulk(n), so the two cannot disagree
        providers = [cls for cls in vars(coefficients).values()
                     if isinstance(cls, type) and issubclass(cls, CoefficientProvider)
                     and cls is not CoefficientProvider]
        assert providers
        own = [cls.__name__ for cls in providers if "coefficient" in cls.__dict__]
        assert own == []

    @pytest.mark.parametrize("name", ["zeta-sq", "zeta-shift-pair"])
    def test_convolution_is_the_divisor_sum(self, name):
        # the oracle for the strided sweep: a_n = sum p1(d) p2(n/d) over the
        # divisor pairs of n, d <= n/d for d ascending, then d > n/d for
        # n/d ascending, read from the two factor tables
        prov = get_preset(name).coefficients
        N = 10 ** 4
        t1 = prov.p1.bulk(N).values.tolist()
        t2 = prov.p2.bulk(N).values.tolist()
        divisors = [[] for _ in range(N + 1)]
        for d in range(1, N + 1):
            for m in range(d, N + 1, d):
                divisors[m].append(d)
        want = []
        for n in range(1, N + 1):
            total = 0j
            for d in divisors[n]:
                if d * d <= n:
                    total += t1[d - 1] * t2[n // d - 1]
            for e in divisors[n]:
                if e * e < n:
                    total += t2[e - 1] * t1[n // e - 1]
            want.append(total)
        assert prov.bulk(N).values.tolist() == want

    # r^{-1/2} is where a scalar and an array power round differently
    @pytest.mark.parametrize("k, delta", [(2, -0.5), (3, 0.25), (5, 1.0)])
    def test_argument_scale_support(self, k, delta):
        base = PeriodicProvider((2.0, -1.0, 3.0))
        prov = ArgumentScaleProvider(base, k, delta)
        for N in (1, 2 ** k - 1, 2 ** k, 3 ** k + 1, 10 ** 4):
            table = prov.bulk(N).values
            R = integer_root(N, k)
            roots = base.bulk(R).values
            for n in range(1, N + 1):
                r = integer_root(n, k)
                want = roots[r - 1] * float(r) ** delta if r ** k == n else 0.0
                assert table[n - 1] == want, (N, n)
        assert integer_root(10 ** 4, 2) == 100 and integer_root(10 ** 4 - 1, 2) == 99


class TestPointwise:
    def test_zeta_large_index(self):
        assert get_preset("zeta").coefficients.coefficient(10 ** 6) == 1.0

    def test_shift_pair_a6(self):
        # divisor enumeration oracle: sum over de=6 of sqrt(d/e)
        expected = sum(math.sqrt(d / (6 // d)) for d in (1, 2, 3, 6))
        got = get_preset("zeta-shift-pair").coefficients.coefficient(6)
        assert got.real == pytest.approx(expected, rel=1e-14)
        assert got.real == pytest.approx(4.898979485566356, rel=1e-12)

    def test_scaled_support(self):
        c = get_preset("zeta-scaled").coefficients
        assert c.coefficient(9).real == pytest.approx(9 ** 0.25)
        assert c.coefficient(10) == 0.0
        assert c.coefficient(1) == 1.0

    def test_chi4_pattern(self):
        c = get_preset("dirichlet-chi4").coefficients
        assert [c.coefficient(n).real for n in (1, 2, 3, 4)] == [1.0, 0.0, -1.0, 0.0]


class TestConvolution:
    def test_divisor_count(self):
        conv = DirichletConvolutionProvider(OnesProvider(), OnesProvider())
        assert conv.coefficient(12).real == pytest.approx(divisor_count(12))
        assert divisor_count(12) == 6

    def test_identity_element(self):
        delta1 = TableProvider([1.0])
        base = get_preset("zeta-shift-pair").coefficients
        conv = DirichletConvolutionProvider(base, delta1)
        for n in (1, 5, 12, 30):
            want = base.coefficient(n)
            assert conv.coefficient(n) == pytest.approx(want)

    def test_shift_convolution_matches_direct_formula(self):
        ones = OnesProvider()
        conv = DirichletConvolutionProvider(VerticalShiftProvider(ones, 0.5),
                                            VerticalShiftProvider(ones, -0.5))
        assert conv.coefficient(6).real == pytest.approx(4.898979485566356, rel=1e-12)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8),
           st.lists(st.integers(-5, 5), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_commutative(self, v1, v2):
        p1, p2 = TableProvider(v1), TableProvider(v2)
        a = DirichletConvolutionProvider(p1, p2).bulk(16).values
        b = DirichletConvolutionProvider(p2, p1).bulk(16).values
        assert np.allclose(a, b, atol=1e-12)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6),
           st.lists(st.integers(-3, 3), min_size=1, max_size=6),
           st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_associative(self, v1, v2, v3):
        p1, p2, p3 = TableProvider(v1), TableProvider(v2), TableProvider(v3)
        conv = DirichletConvolutionProvider
        a = conv(conv(p1, p2), p3).bulk(12).values
        b = conv(p1, conv(p2, p3)).bulk(12).values
        assert np.allclose(a, b, atol=1e-12)


class TestBulkPointwiseAgreement:
    @pytest.mark.parametrize("name", ["zeta", "dirichlet-chi4", "zeta-sq",
                                      "zeta-shift-pair", "zeta-scaled"])
    def test_exact_agreement(self, name):
        # coefficient(n) reads a table of length n, which must match the
        # n-th entry of a longer table
        prov = get_preset(name).coefficients
        table = prov.bulk(10 ** 4).values
        idx = list(range(1, 40)) + [97, 960, 961, 5040, 9999, 10 ** 4]
        for n in idx:
            assert table[n - 1] == prov.coefficient(n), f"{name} n={n}"

    def test_delta_agreement(self):
        prov = get_preset("delta").coefficients
        table = prov.bulk(2000).values
        for n in (1, 2, 6, 30, 1999, 2000):
            assert table[n - 1] == prov.coefficient(n)

    def test_bulk_shapes(self):
        t = get_preset("zeta").coefficients.bulk(5)
        assert np.array_equal(t.values, np.ones(5, dtype=complex))
        assert len(t) == 5
        t4 = get_preset("dirichlet-chi4").coefficients.bulk(4)
        assert np.array_equal(t4.values, np.array([1, 0, -1, 0], dtype=complex))
        tsq = get_preset("zeta-sq").coefficients.bulk(4)
        assert np.array_equal(tsq.values.real, np.array([1.0, 2.0, 2.0, 3.0]))


def fresh_preset_provider(name):
    if name == "delta":  # the preset shares one growing tau table
        return RamanujanTauProvider()
    return get_preset(name).coefficients


#: prefix lengths checked on every preset: the first n, the ends of dyadic
#: blocks, squares and their neighbours (the hyperbola split), highly
#: composite n, and the n and table lengths the pointwise checks read
PREFIX_LENGTHS = sorted(set(range(1, 41)) | {97, 127, 960, 961, 1999, 2000, 2049,
                                             5040, 9999, 10 ** 4, 16383, 19999})


def chi4_times_shift(swap):
    p1 = PeriodicProvider((1.0, 0.0, -1.0, 0.0))
    p2 = VerticalShiftProvider(OnesProvider(), 0.5)
    return DirichletConvolutionProvider(*((p2, p1) if swap else (p1, p2)))


class TestBulkPrefix:
    # grid scans build one table and slice it per T, and coefficient(n)
    # reads bulk(n), so a fresh provider's bulk(M) must equal a larger
    # table's first M values bit for bit

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_bulk_prefix_is_bit_identical(self, name):
        N = 20000
        table = fresh_preset_provider(name).bulk(N).values
        for M in PREFIX_LENGTHS:
            prov = fresh_preset_provider(name)
            assert prov.bulk(M).values.tobytes() == table[:M].tobytes(), M
            assert prov.coefficient(M) == table[M - 1], M

    @pytest.mark.parametrize("prov, N", [
        (VerticalShiftProvider(OnesProvider(), 0.5), 10 ** 4),
        (VerticalShiftProvider(OnesProvider(), -0.5), 10 ** 4),
        (get_preset("zeta-shift-pair").coefficients, 1000),
        (chi4_times_shift(False), 200),
        (chi4_times_shift(True), 200),
    ], ids=["shift+0.5", "shift-0.5", "zeta-shift-pair", "chi4-first", "chi4-second"])
    def test_every_prefix_length(self, prov, N):
        # an array power may round differently with the array's length (a
        # scalar n ** -delta did so at 574 n <= 1e4 for delta = 1/2), so
        # every length up to N.  A convolution entry adds the same divisor
        # pairs in the same order at any length, so beyond N = 1000 the
        # entries of zeta-shift-pair can move with the length only through
        # its factors, the two shift providers checked here to 1e4.
        table = prov.bulk(N).values
        for M in range(1, N + 1):
            assert prov.bulk(M).values.tobytes() == table[:M].tobytes(), M


def single_loop_sweep(t1, t2):
    """The divisor-lattice sweep without the hyperbola split: one strided
    add per d = 1..N, the reference for the split's loop bounds."""
    N = len(t1)
    out = np.zeros(N, dtype=complex)
    for d in range(1, N + 1):
        v = t1[d - 1]
        if v != 0.0:
            out[d - 1 :: d] += v * t2[: N // d]
    return out


class TestHyperbolaSweep:
    # H_sum_side's table at T = 150, (3 T)^2 - 1: the largest one that
    # perfbench's sums workload builds
    N = 202499

    @pytest.fixture(scope="class")
    def sieves(self):
        """d(n) and sigma(n) for n = 1..N by an integer sieve."""
        N = self.N
        count = np.zeros(N + 1, dtype=np.int64)
        sigma = np.zeros(N + 1, dtype=np.int64)
        for k in range(1, N + 1):
            count[k::k] += 1
            sigma[k::k] += k
        return count[1:], sigma[1:]

    def test_zeta_sq_is_the_divisor_count(self, sieves):
        table = get_preset("zeta-sq").coefficients.bulk(self.N).values
        assert np.array_equal(table.real, sieves[0].astype(float))
        assert not np.any(table.imag)

    def test_shift_pair_is_sigma_over_root(self, sieves):
        table = get_preset("zeta-shift-pair").coefficients.bulk(self.N).values
        n = np.arange(1, self.N + 1, dtype=float)
        want = sieves[1].astype(float) / np.sqrt(n)
        assert np.max(np.abs(table.real - want) / want) <= 4e-15
        assert not np.any(table.imag)

    @pytest.mark.parametrize("swap", [False, True], ids=["chi4-first", "chi4-second"])
    def test_unequal_factors_with_zeros(self, swap):
        # chi4 vanishes at even n, so each loop's zero skip is exercised in
        # one of the two orders; the second loop reads the factors swapped
        p1 = PeriodicProvider((1.0, 0.0, -1.0, 0.0))
        p2 = VerticalShiftProvider(OnesProvider(), 0.5)
        if swap:
            p1, p2 = p2, p1
        conv = DirichletConvolutionProvider(p1, p2)
        for N in list(range(1, 41)) + [10 ** 4]:
            t1, t2 = p1.bulk(N).values, p2.bulk(N).values
            got = conv.bulk(N).values
            want = single_loop_sweep(t1, t2)
            # the two sweeps add the same products in different orders; for
            # k <= 64 summands (n <= 1e4) the two results differ by at most
            # 2(k - 1) u times the sum of |terms|, u = 2^-53: 1.4e-14 of it
            majorant = single_loop_sweep(np.abs(t1), np.abs(t2)).real
            assert np.all(np.abs(got - want) <= 1e-13 * majorant), N


class TestTau:
    def test_first_values(self):
        tau = tau_integers(12)
        assert tau[1:13] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                             -113643, -115920, 534612, -370944]

    def test_normalized_a2(self):
        table = RamanujanTauProvider().bulk(4).values
        assert table[0].real == pytest.approx(1.0)
        assert table[1].real == pytest.approx(-0.5303300858899106, rel=1e-14)

    def test_multiplicativity_spot(self):
        tau = tau_integers(40)
        assert tau[6] == tau[2] * tau[3]
        assert tau[10] == tau[2] * tau[5]
        assert tau[35] == tau[5] * tau[7]

    def test_conv_exact_matches_schoolbook(self):
        rng = random.Random(20261018)

        def signed(n, size):
            return [rng.randint(-size, size) for _ in range(n)]

        a = list(range(1, 400))
        b = [(-1) ** k * k * k for k in range(700)]
        big = signed(300, 10 ** 40)
        wide = signed(1100, 10 ** 6)
        cases = [
            (a, b), (b, a), (a, a), (big, big), (big, signed(57, 10 ** 40)),
            ([0] * 10, signed(20, 99)), ([7], [-3]), ([-5], signed(30, 10 ** 40)),
            (wide, signed(1100, 10 ** 6)), (wide, wide),
            (np.arange(-50, 50, dtype=np.int64), np.arange(80, dtype=np.int64)),
        ]
        for x, y in cases:
            full = len(x) + len(y) - 1
            # out_len below, at and above len(x) + len(y) - 1; the 2048/2049
            # pair straddles the size where a second algorithm once took over
            for out_len in (1, full // 2, full, full + 5, 2048, 2049):
                got = conv_exact(x, y, out_len)
                want = schoolbook([int(v) for v in x[:out_len]],
                                  [int(v) for v in y[:out_len]], out_len)
                assert got == want, (len(x), len(y), out_len)
        assert conv_exact([], [1, 2], 3) == [0, 0, 0]
        assert conv_exact([1, 2], [3], 0) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2 ** 70, 2 ** 70) | st.integers(-9, 9) | st.just(0),
                    max_size=40),
           st.lists(st.integers(-2 ** 70, 2 ** 70) | st.integers(-9, 9) | st.just(0),
                    max_size=40),
           st.integers(0, 90))
    def test_conv_exact_property(self, x, y, out_len):
        # signed, zero-heavy and past-2^63 inputs; out_len from 0 to beyond
        # len(x) + len(y) - 1
        want = schoolbook(x[:out_len], y[:out_len], out_len)
        assert conv_exact(x, y, out_len) == want
        assert conv_exact(x, x, out_len) == schoolbook(x[:out_len], x[:out_len], out_len)

    def test_conv_exact_roundoff_guard(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(exactconv.np.fft, "irfft",
                            lambda *args, **kw: irfft(*args, **kw) + 0.3)
        with pytest.raises(ArithmeticError, match="round-off"):
            conv_exact([1, 2, 3], [4, 5], 4)

    @pytest.mark.parametrize("bits", [(1, 1), (23, 23), (64, 64), (134, 64), (134, 134)])
    def test_limb_width_keeps_percival_bound(self, bits):
        # every transform size up to 2^25 (a 1e7 table squared), by exact
        # rational arithmetic: pairs * ||a_j|| ||b_l|| * Percival's factor
        # < 1/4 at the chosen width, and >= 1/4 one bit wider
        eps, beta = Fraction(1, 2 ** 53), Fraction(1, 2 ** 52)
        sqrt5 = Fraction(2236068, 10 ** 6)  # > sqrt(5)

        def bound_sq(width, n, len_a, len_b):
            pairs = min(-(-(b + 2) // width) for b in bits)
            factor = ((1 + eps) ** (3 * n + pairs - 1) * (1 + eps * sqrt5) ** (3 * n + 1)
                      * (1 + beta) ** (3 * n) - 1)
            return (pairs * 4 ** (width - 1) * factor) ** 2 * len_a * len_b

        for n in range(26):
            size = 2 ** n
            for len_a, len_b in {(size // 2 + 1, (size + 1) // 2), (1, size)}:
                width = limb_width(*bits, len_a, len_b, size)
                assert width >= 2
                assert bound_sq(width, n, len_a, len_b) < Fraction(1, 16)
                if width < 30:
                    assert bound_sq(width + 1, n, len_a, len_b) >= Fraction(1, 16)

    def test_hecke_relations(self):
        # an oracle independent of the eta product: tau is multiplicative,
        # tau(n) = tau(p^k) tau(n / p^k) for p^k || n, and on prime powers
        # tau(p^{k+1}) = tau(p) tau(p^k) - p^11 tau(p^{k-1})
        N = 10 ** 5
        tau = tau_integers(N)
        spf = list(range(N + 1))
        for p in range(2, math.isqrt(N) + 1):
            if spf[p] == p:
                for m in range(p * p, N + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        for n in range(2, N + 1):
            p, pk = spf[n], spf[n]
            while n % (pk * p) == 0:
                pk *= p
            if pk != n:
                assert tau[n] == tau[pk] * tau[n // pk], f"n={n}"
            elif pk != p:
                assert tau[n] == tau[p] * tau[n // p] - p ** 11 * tau[n // (p * p)], f"n={n}"

    def test_normalized_table_rounds_each_integer(self):
        # the provider turns the exact integers into floats in one
        # np.fromiter call; past 2^63 each must still be float(tau(n))
        N = 4096
        tau = tau_integers(N)
        assert max(abs(t) for t in tau) > 2 ** 63
        n = np.arange(1, N + 1, dtype=float)
        want = np.array([float(t) for t in tau[1:]]) / n ** 5.5
        got = np.ascontiguousarray(RamanujanTauProvider().bulk(N).values.real)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_deligne_tripwire(self):
        N = 10 ** 5
        tau = tau_integers(N)
        d = np.zeros(N + 1, dtype=np.int64)
        for k in range(1, N + 1):
            d[k::k] += 1
        for n in range(1, N + 1):
            assert tau[n] * tau[n] <= int(d[n]) ** 2 * n ** 11, f"n={n}"

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            tau_integers(2 * 10 ** 7)

    def test_concurrent_readers_see_consistent_prefixes(self):
        # one thread grows the shared provider while seven read the prefix
        # being published; a reader that pairs the new tau list with the
        # old normalized table gets a short or missing prefix
        sizes = list(range(10, 201, 10))
        want = RamanujanTauProvider().bulk(sizes[-1]).values
        shared = RamanujanTauProvider()
        target, done, failures = [0], threading.Event(), []

        def check(N):
            try:
                got = shared.bulk(N).values
            except Exception as exc:  # a torn table can fail anywhere
                failures.append(repr(exc))
                return
            if len(got) != N or not np.array_equal(got, want[:N]):
                failures.append(f"bulk({N}) returned {len(got)} wrong values")

        def writer():
            try:
                for N in sizes:
                    target[0] = N
                    check(N)
            finally:
                done.set()

        def reader():
            deadline = time.monotonic() + 30.0
            while not done.is_set() and time.monotonic() < deadline:
                if target[0]:
                    check(target[0])

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader) for _ in range(7)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert done.is_set()
        assert failures == []


class TestScaledSeriesIdentity:
    def test_partial_sums_match_shifted_zeta(self):
        # sum a_n n^{-2} over n <= 1e4 equals the k^{-3.5} partial sum,
        # which sits within the tail bound of the frozen zeta(3.5)
        prov = get_preset("zeta-scaled").coefficients
        table = prov.bulk(10 ** 4).values.real
        n = np.arange(1, 10 ** 4 + 1, dtype=float)
        got = float(np.sum(table * n ** -2.0))
        direct = float(np.sum(np.arange(1.0, 101.0) ** -3.5))
        assert got == pytest.approx(direct, rel=1e-12)
        tail = 100.0 ** -2.5 / 2.5
        assert abs(got - ZETA_3_5) <= tail


class TestMagnitudeBounds:
    @pytest.mark.parametrize("name", ["zeta", "dirichlet-chi4", "zeta-sq",
                                      "zeta-shift-pair", "zeta-scaled", "delta"])
    def test_declared_bound_holds(self, name):
        prov = get_preset(name).coefficients
        K, c = prov.mag_bound
        table = np.abs(prov.bulk(3000).values)
        n = np.arange(1, 3001, dtype=float)
        assert np.all(table <= K * n ** c + 1e-12)


class TestArgumentScale:
    def test_cube_support(self):
        prov = ArgumentScaleProvider(OnesProvider(), 3, 0.0)
        assert prov.coefficient(8) == 1.0
        assert prov.coefficient(9) == 0.0
        assert prov.bulk(30).values[26] == 1.0  # 27 = 3^3

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            ArgumentScaleProvider(OnesProvider(), 1, 0.0)


class TestPeriodicAndTable:
    def test_periodic_bulk(self):
        prov = PeriodicProvider((2.0, -1.0))
        assert np.array_equal(prov.bulk(5).values.real, [2, -1, 2, -1, 2])

    def test_table_is_zero_beyond(self):
        prov = TableProvider([3.0, 4.0])
        assert prov.coefficient(2) == 4.0
        assert prov.coefficient(3) == 0.0
        assert prov.coefficient(10 ** 6) == 0.0
