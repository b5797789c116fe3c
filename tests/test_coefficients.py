"""Coefficient-provider tests: presets, combinators, the exact tau table."""
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistlab.coefficients import (ArgumentScaleProvider,
                                   DirichletConvolutionProvider, OnesProvider,
                                   PeriodicProvider, RamanujanTauProvider,
                                   TableProvider, VerticalShiftProvider,
                                   dirichlet_convolution, ramanujan_tau_table,
                                   tau_integers)
from twistlab.errors import BudgetError
from twistlab.exactconv import _conv_direct, conv_exact
from twistlab.presets import get_preset

ZETA_3_5 = 1.12673386731705665  # frozen high-precision value


def divisor_count(n: int) -> int:
    c, i = 0, 1
    while i * i <= n:
        if n % i == 0:
            c += 1 if i * i == n else 2
        i += 1
    return c


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
        conv = dirichlet_convolution(OnesProvider(), OnesProvider())
        assert conv.coefficient(12).real == pytest.approx(divisor_count(12))
        assert divisor_count(12) == 6

    def test_identity_element(self):
        delta1 = TableProvider([1.0])
        conv = dirichlet_convolution(get_preset("zeta-shift-pair").coefficients, delta1)
        for n in (1, 5, 12, 30):
            want = get_preset("zeta-shift-pair").coefficients.coefficient(n)
            assert conv.coefficient(n) == pytest.approx(want)

    def test_shift_convolution_matches_direct_formula(self):
        ones = OnesProvider()
        conv = dirichlet_convolution(VerticalShiftProvider(ones, 0.5),
                                     VerticalShiftProvider(ones, -0.5))
        assert conv.coefficient(6).real == pytest.approx(4.898979485566356, rel=1e-12)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8),
           st.lists(st.integers(-5, 5), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_commutative(self, v1, v2):
        p1, p2 = TableProvider(v1), TableProvider(v2)
        a = dirichlet_convolution(p1, p2).bulk(16).values
        b = dirichlet_convolution(p2, p1).bulk(16).values
        assert np.allclose(a, b, atol=1e-12)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6),
           st.lists(st.integers(-3, 3), min_size=1, max_size=6),
           st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_associative(self, v1, v2, v3):
        p1, p2, p3 = TableProvider(v1), TableProvider(v2), TableProvider(v3)
        a = dirichlet_convolution(dirichlet_convolution(p1, p2), p3).bulk(12).values
        b = dirichlet_convolution(p1, dirichlet_convolution(p2, p3)).bulk(12).values
        assert np.allclose(a, b, atol=1e-12)


class TestBulkPointwiseAgreement:
    @pytest.mark.parametrize("name", ["zeta", "dirichlet-chi4", "zeta-sq",
                                      "zeta-shift-pair", "zeta-scaled"])
    def test_exact_agreement(self, name):
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


class TestTau:
    def test_first_values(self):
        tau = tau_integers(12)
        assert tau[1:13] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                             -113643, -115920, 534612, -370944]

    def test_normalized_a2(self):
        table = ramanujan_tau_table(4)
        assert table.a(1).real == pytest.approx(1.0)
        assert table.a(2).real == pytest.approx(-0.5303300858899106, rel=1e-14)

    def test_multiplicativity_spot(self):
        tau = tau_integers(40)
        assert tau[6] == tau[2] * tau[3]
        assert tau[10] == tau[2] * tau[5]
        assert tau[35] == tau[5] * tau[7]

    def test_ntt_matches_direct_convolution(self):
        # the direct-schoolbook path is exact; the NTT path must agree
        a = list(range(1, 400))
        b = [(-1) ** k * k * k for k in range(400)]
        direct = _conv_direct(a, b, 399)
        via_crt = conv_exact(a + [0] * 2000, b + [0] * 2000, 399)
        assert direct == via_crt

    def test_deligne_tripwire(self):
        N = 10 ** 5
        prov = RamanujanTauProvider()
        tau, _ = prov._ensure(N)
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
