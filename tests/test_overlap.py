import itertools
import math
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp, norm

import quasiortho.limits
import quasiortho.overlap
import quasiortho.packing
from quasiortho import _workers
from quasiortho import (
    EmpiricalSample,
    OverlapDistribution,
    ResourceLimitError,
    RngStream,
    TestReport,
    basis_state,
    cdf,
    haar_state,
    is_vacuous,
    ks_critical_value,
    ks_test,
    levy_tail_bound,
    mean,
    overlap_sq,
    overlap_tail_bound,
    pdf,
    sample_overlaps,
    survival,
    two_sided_exact_tail,
    wilson_interval,
)
from quasiortho.states import complex_gaussians

# Extended-precision oracle values (mpmath, 60 digits)
SURVIVAL_1024_0005 = 5.92941165747416e-3      # (0.995)^1023
LEVY_1024_1 = 0.319591742518                  # 2 exp(-2047/(36 pi^3))
TAIL_BOUND_1024_01 = 1.9636570955             # 2 exp(-2047*0.01/(36 pi^3))
TWO_SIDED_1024_0005 = 2.17143512264e-3        # (1 - 1/1024 - 0.005)^1023


class TestPdf:
    def test_uniform_at_d2(self):
        for x in (0.0, 0.3, 0.99, 1.0):
            assert pdf(2, x) == 1.0

    def test_zero_at_right_edge(self):
        assert pdf(3, 1.0) == 0.0
        assert pdf(1024, 1.0) == 0.0

    def test_value_at_origin_large_d(self):
        assert pdf(1024, 0.0) == 1023.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pdf(2, -0.1)
        with pytest.raises(ValueError):
            pdf(2, 1.1)
        with pytest.raises(ValueError):
            pdf(1, 0.5)

    @pytest.mark.parametrize("d", [2, 8, 64, 1024])
    def test_integrates_to_one(self, d):
        # numerical quadrature oracle; the mass concentrates near 0 for
        # large d, so integrate the two regions separately
        split = min(1.0, 20.0 / d)
        total = (quad(lambda x: pdf(d, x), 0.0, split, limit=200)[0]
                 + quad(lambda x: pdf(d, x), split, 1.0, limit=200)[0])
        assert abs(total - 1.0) < 1e-8

    def test_array_input(self):
        xs = np.array([0.0, 0.5, 1.0])
        out = pdf(4, xs)
        assert out.shape == xs.shape
        assert np.allclose(out, [3.0, 0.75, 0.0])


class TestSurvivalCdf:
    def test_boundaries(self):
        assert survival(17, 0.0) == 1.0
        assert survival(17, 1.0) == 0.0
        assert cdf(17, 0.0) == 0.0
        assert cdf(17, 1.0) == 1.0

    def test_uniform_law_midpoint(self):
        assert abs(cdf(2, 0.5) - 0.5) < 1e-15

    def test_point_value_large_d(self):
        assert abs(survival(1024, 0.005) / SURVIVAL_1024_0005 - 1) < 1e-12

    def test_no_underflow_at_large_d(self):
        v = survival(10_000, 0.01)
        assert 0.0 < v < 1.0
        assert abs(math.log(v) - 9999 * math.log1p(-0.01)) < 1e-9

    @pytest.mark.parametrize("fn", [pdf, cdf, survival])
    @pytest.mark.parametrize("x", ["0.5", b"0.5", True, 0.5j,
                                   np.array(["0.1"]), 10 ** 400],
                             ids=["str", "bytes", "bool", "complex",
                                  "str-array", "int-beyond-float"])
    def test_only_real_numbers_count(self, fn, x):
        with pytest.raises(ValueError, match="must be a real number"):
            fn(8, x)

    def test_cdf_monotone(self):
        xs = np.linspace(0, 1, 101)
        vals = cdf(64, xs)
        assert np.all(np.diff(vals) >= 0)

    @given(
        d=st.integers(min_value=2, max_value=5000),
        eps=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_survival_strictly_decreasing_in_d_and_eps(self, d, eps):
        s = survival(d, eps)
        # strictness only makes sense above the float underflow floor
        assume(s > 1e-300)
        assert survival(d + 1, eps) < s
        assert survival(d, min(1.0, eps * 1.01)) < s

    def test_mean_values(self):
        assert mean(1) == 1.0
        assert mean(2) == 0.5
        assert mean(1024) == 1.0 / 1024

    def test_mean_matches_quadrature(self):
        d = 64
        val = quad(lambda x: x * pdf(d, x), 0.0, 1.0, limit=200)[0]
        assert abs(val - mean(d)) < 1e-8


class TestBounds:
    def test_levy_monotone_in_delta(self):
        vals = [levy_tail_bound(1024, x, 2.0) for x in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_levy_point_value(self):
        assert abs(levy_tail_bound(1024, 1.0, 2.0) / LEVY_1024_1 - 1) < 1e-10

    def test_levy_equals_overlap_bound_at_l2(self):
        for d in (2, 16, 1024):
            for delta in (0.01, 0.3, 1.0):
                assert overlap_tail_bound(d, delta) == levy_tail_bound(d, delta, 2.0)

    def test_overlap_bound_point_value_and_vacuity(self):
        v = overlap_tail_bound(1024, 0.1)
        assert abs(v / TAIL_BOUND_1024_01 - 1) < 1e-10
        assert is_vacuous(v)

    def test_overlap_bound_monotone_in_d(self):
        vals = [overlap_tail_bound(d, 0.2) for d in (2, 16, 128, 1024, 4096)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [2, 10 ** 154, 10 ** 308],
                             ids=["2", "1e154", "1e308"])
    def test_levy_matches_a_decimal_oracle_to_the_float_range_edge(self, d):
        # (2d-1) delta^2 and 9 pi^3 L^2 leave the float range on much of
        # this grid; the bound must still be the correctly scaled value
        pi = Decimal("3.14159265358979323846264338327950288419716939937510")
        grid = [1e-200, 1.0, 1e150, 1e154, 1e200]
        with localcontext() as ctx:
            ctx.prec = 50
            for delta, lip in itertools.product(grid, grid):
                x = (Decimal(2 * d - 1) * Decimal(delta) ** 2
                     / (9 * pi ** 3 * Decimal(lip) ** 2))
                want = 2 * (-x).exp()
                got = levy_tail_bound(d, delta, lip)
                if float(want) in (0.0, 2.0):
                    assert got == float(want), (delta, lip)
                else:
                    assert abs(Decimal(got) / want - 1) < Decimal("1e-12"), \
                        (delta, lip, got, want)

    def test_levy_where_the_denominator_overflows(self):
        # 9 pi^3 L^2 overflows at L = 1e153 and the ratio's parts at 1e154
        assert levy_tail_bound(2, 1e150, 1e153) == pytest.approx(
            1.99999997849897716, rel=1e-15)
        assert levy_tail_bound(2, 1e154, 1e154) == pytest.approx(
            1.97861413749421152, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            levy_tail_bound(16, 0.0, 2.0)
        with pytest.raises(ValueError):
            levy_tail_bound(16, 0.5, 0.0)
        with pytest.raises(ValueError):
            levy_tail_bound(0, 0.5, 2.0)


class TestTwoSidedExactTail:
    def test_zero_for_huge_delta(self):
        d = 16
        assert two_sided_exact_tail(d, 1.0) == 0.0

    def test_point_value(self):
        v = two_sided_exact_tail(1024, 0.005)
        assert abs(v / TWO_SIDED_1024_0005 - 1) < 1e-10

    def test_lower_term_vanishes_above_mean(self):
        # for delta >= 1/d only the upper tail contributes
        d, delta = 64, 0.1
        assert two_sided_exact_tail(d, delta) == pytest.approx(
            survival(d, 1.0 / d + delta), rel=1e-14)

    def test_always_below_levy_bound(self):
        for d in (2, 16, 128, 1024, 4096):
            for delta in (0.01, 0.05, 0.1, 0.5, 1.0):
                assert two_sided_exact_tail(d, delta) <= overlap_tail_bound(d, delta)


class TestOverlapDistribution:
    def test_requires_d_at_least_two(self):
        with pytest.raises(ValueError):
            OverlapDistribution(1)

    def test_methods_match_module_functions(self):
        law = OverlapDistribution(64)
        assert law.pdf(0.01) == pdf(64, 0.01)
        assert law.cdf(0.01) == cdf(64, 0.01)
        assert law.survival(0.01) == survival(64, 0.01)
        assert law.mean() == mean(64)


class TestSampleOverlaps:
    def test_values_sorted_in_unit_interval(self):
        s = sample_overlaps(16, 500, RngStream(1))
        assert s.count == 500
        assert np.all(np.diff(s.values) >= 0)
        assert s.values[0] >= 0.0 and s.values[-1] <= 1.0

    def test_seed_record_names_a_substream_apart_from_its_root(self):
        root = sample_overlaps(16, 50, RngStream(5))
        sub = sample_overlaps(16, 50, RngStream(5).substream(2))
        assert root.values.tobytes() != sub.values.tobytes()
        assert (root.seed_record, sub.seed_record) == ((5, 0), (5, 0, 2))

    def test_matches_haar_state_loop(self, monkeypatch):
        # same block streams, same draw layout: the vectorized sampler
        # must reproduce a plain haar_state loop over each block's stream
        # value for value; 7 rows a block split 100 into 15 blocks, the
        # last of 2 rows
        monkeypatch.setattr(quasiortho.overlap, "_SAMPLE_CHUNK_ENTRIES",
                            24 * 7)
        d, n, rows = 24, 100, 7
        sample = sample_overlaps(d, n, RngStream(9, 4))
        e1 = basis_state(d, 0)
        loop = np.sort([overlap_sq(haar_state(d, stream), e1)
                        for stream, count in self.blocks(n, rows,
                                                         RngStream(9, 4))
                        for _ in range(count)])
        assert np.allclose(sample.values, loop, atol=1e-14)

    def test_mean_at_d2(self):
        s = sample_overlaps(2, 100_000, RngStream(12))
        se = s.values.std(ddof=1) / math.sqrt(s.count)
        assert abs(s.values.mean() - 0.5) < 5 * se

    def test_exceedance_matches_survival_law(self):
        # empirical P(X >= 0.005) at d=1024 vs the exact tail
        s = sample_overlaps(1024, 100_000, RngStream(13))
        k = int(np.sum(s.values >= 0.005))
        lo, hi = wilson_interval(k, s.count, alpha=0.01)
        assert lo <= SURVIVAL_1024_0005 <= hi

    def test_independent_pairs_same_law(self):
        # overlap of two independent Haar states matches the law against
        # a fixed reference; two-sample KS at alpha = 0.01
        d, n = 256, 10_000
        fixed_ref = sample_overlaps(d, n, RngStream(21, 0)).values
        gen = RngStream(21, 1).generator
        za = gen.standard_normal((n, d, 2))
        zb = gen.standard_normal((n, d, 2))
        a = za[..., 0] + 1j * za[..., 1]
        b = zb[..., 0] + 1j * zb[..., 1]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        pairs = np.abs(np.sum(a.conj() * b, axis=1)) ** 2
        assert ks_2samp(fixed_ref, pairs).pvalue > 0.01

    @staticmethod
    def unchunked(d, n, rng):
        """One draw of all n rows, reduced the way the sampler reduces."""
        x = complex_gaussians(rng, (n, d)).view(np.float64)
        np.square(x, out=x)
        return np.sort((x[:, 0] + x[:, 1]) / x.sum(axis=1))

    @staticmethod
    def blocks(n, rows, rng):
        """``(stream, rows)`` of each sampler block: block b draws its
        rows from ``rng.substream(b)``."""
        return [(rng.substream(b), min(rows, n - lo))
                for b, lo in enumerate(range(0, n, rows))]

    @pytest.mark.parametrize("d, entries", [
        (16, 16 * 5),    # 5 rows per block, 23 = 4 x 5 + 3
        (16, 8),         # d above the constant: one row per block
        (3, 2),
        (5000, 5000 * 2),   # 23 = 11 x 2 + 1: a lone row with 2d > 8192
    ])
    def test_chunking_does_not_change_values(self, d, entries, monkeypatch):
        # each block's rows are reduced as in one unchunked draw of them
        n = 23
        want = np.sort(np.concatenate([
            self.unchunked(d, rows, stream)
            for stream, rows in self.blocks(n, max(1, entries // d),
                                            RngStream(31, d))]))
        monkeypatch.setattr(quasiortho.overlap, "_SAMPLE_CHUNK_ENTRIES",
                            entries)
        got = sample_overlaps(d, n, RngStream(31, d)).values
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3, 16, 1024])
    def test_matches_the_complex_formula(self, d):
        # the reference is |g_0|^2 / sum |g|^2 on each block's complex
        # draw; only the summation order differs, so a few float64 ulps
        # separate them (d=1024 spans 16 blocks, the last of 80 rows)
        n = 2000
        rows = max(1, quasiortho.overlap._SAMPLE_CHUNK_ENTRIES // d)
        g = np.concatenate([
            complex_gaussians(stream, (count, d))
            for stream, count in self.blocks(n, rows, RngStream(32, d))])
        ref = np.sort(np.abs(g[:, 0]) ** 2 / np.sum(np.abs(g) ** 2, axis=1))
        got = sample_overlaps(d, n, RngStream(32, d)).values
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_worker_count_does_not_change_values(self, monkeypatch):
        # 128 rows a block at d=1024: 12 full blocks and one of 5 rows
        d, n = 1024, 128 * 12 + 5
        default = sample_overlaps(d, n, RngStream(34, 1)).values
        threads = []
        real = quasiortho.overlap.complex_gaussians

        def draw(*args):
            # the first block lingers so that a second worker takes one
            if not threads:
                time.sleep(0.05)
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(quasiortho.overlap, "complex_gaussians", draw)
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        two = sample_overlaps(d, n, RngStream(34, 1)).values
        assert len(threads) == 13 and len(set(threads)) == 2
        monkeypatch.setattr(_workers, "_MAX_WORKERS", 1)
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 1)
        threads.clear()
        one = sample_overlaps(d, n, RngStream(34, 1)).values
        assert set(threads) == {threading.get_ident()}
        # more workers than cores, switching threads every microsecond
        monkeypatch.setattr(_workers, "_MAX_WORKERS", 6)
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            six = sample_overlaps(d, n, RngStream(34, 1)).values
        finally:
            sys.setswitchinterval(interval)
        assert (one.tobytes() == default.tobytes() == two.tobytes()
                == six.tobytes())

    def test_memory_is_chunked(self):
        tracemalloc.start()
        try:
            sample_overlaps(1024, 20_000, RngStream(33))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_state_dimension_cap_is_checked_before_drawing(self,
                                                            monkeypatch):
        draws = []
        real = quasiortho.overlap.complex_gaussians
        monkeypatch.setattr(quasiortho.overlap, "complex_gaussians",
                            lambda *a: draws.append(a) or real(*a))
        monkeypatch.setattr(quasiortho.limits, "MAX_STATE_DIM", 64)
        with pytest.raises(ResourceLimitError):
            sample_overlaps(65, 1, RngStream(0))
        assert draws == []
        assert sample_overlaps(64, 1, RngStream(0)).count == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_overlaps(1, 100, RngStream(0))
        with pytest.raises(ValueError):
            sample_overlaps(4, 0, RngStream(0))


class TestKsTest:
    def test_critical_value_matches_published_constant(self):
        assert abs(ks_critical_value(0.01) - 1.628) < 1e-3

    def test_critical_value_past_two_over_float_max(self):
        # 2 / alpha overflows below alpha = 2 / float max
        alphas = [1.2e-308, 2 / sys.float_info.max, 1e-308, 1e-320, 5e-324]
        values = [ks_critical_value(a) for a in alphas]
        assert all(math.isfinite(v) for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        for alpha, value in zip(alphas, values):
            want = math.sqrt(0.5 * (math.log(2.0) - math.log(alpha)))
            assert value == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_inverse_transform_sample_passes(self):
        # independent sampling path: X = 1 - U^(1/(d-1)) has exactly the
        # Beta(1, d-1) law
        d, n = 1024, 10_000
        u = np.random.default_rng(99).uniform(size=n)
        values = np.sort(1.0 - u ** (1.0 / (d - 1)))
        sample = EmpiricalSample(dim=d, values=values, seed_record=(99, 0))
        assert ks_test(sample).passed

    def test_wrong_law_fails(self):
        d, n = 1024, 10_000
        values = np.sort(np.random.default_rng(100).uniform(size=n))
        sample = EmpiricalSample(dim=d, values=values, seed_record=(100, 0))
        assert not ks_test(sample).passed

    def test_statistic_independent_of_construction_order(self):
        vals = np.random.default_rng(5).beta(1, 63, size=500)
        shuffled = vals.copy()
        np.random.default_rng(6).shuffle(shuffled)
        a = EmpiricalSample(64, np.sort(vals), (5, 0))
        b = EmpiricalSample(64, np.sort(shuffled), (5, 0))
        assert ks_test(a).statistic == ks_test(b).statistic

    @pytest.mark.parametrize("alpha", [0.01, 0.0027])
    def test_small_samples_get_the_dkw_threshold(self, alpha):
        # c(alpha)/sqrt(n) is the DKW-Massart bound, valid at every n
        draws = np.random.default_rng(7).beta(1, 7, size=99)
        for n in range(1, 100):
            sample = EmpiricalSample(8, np.sort(draws[:n]), (7, 0))
            report = ks_test(sample, alpha=alpha)
            assert report.threshold == ks_critical_value(alpha) / math.sqrt(n)
            assert 0.0 < report.statistic <= 1.0

    def test_size_at_thirty_samples_is_at_most_alpha(self):
        # 2000 runs under the true law: the false-reject count must be
        # likely under Binomial(2000, alpha), the rate gate's exact tail
        root, runs, alpha = RngStream(30), 2000, 0.01
        rejects = sum(not ks_test(sample_overlaps(8, 30, root.substream(i)),
                                  alpha=alpha).passed
                      for i in range(runs))
        assert quasiortho.packing._binomial_tail(rejects, runs, alpha) \
            >= quasiortho.packing._ALPHA_3SIGMA, rejects


class TestWilsonInterval:
    def test_edges(self):
        lo, _ = wilson_interval(0, 100, 0.01)
        _, hi = wilson_interval(100, 100, 0.01)
        assert lo == 0.0
        assert hi == 1.0

    def test_center_and_width_scaling(self):
        lo1, hi1 = wilson_interval(500, 1000, 0.05)
        lo2, hi2 = wilson_interval(50_000, 100_000, 0.05)
        assert abs((lo1 + hi1) / 2 - 0.5) < 1e-3
        assert (hi2 - lo2) < (hi1 - lo1) / 5  # width ~ N^(-1/2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10, 0.05)
        with pytest.raises(ValueError):
            wilson_interval(11, 10, 0.05)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, 0.0)

    @pytest.mark.parametrize("alpha", [*np.geomspace(1e-12, 1 - 1e-6, 41),
                                       1e-17, 1e-100, 1e-300, 1e-323])
    def test_equals_the_scipy_stats_formula(self, alpha):
        # the accurate reference: norm.ppf(1 - alpha/2) loses the tail to
        # the rounding of 1 - alpha/2, and is inf below alpha ~ 1.1e-16
        z = float(norm.isf(alpha / 2.0))
        for k, n in [(0, 1), (3, 7), (500, 1000), (99_999, 100_000)]:
            p_hat = k / n
            denom = 1.0 + z ** 2 / n
            center = (p_hat + z ** 2 / (2 * n)) / denom
            half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / n
                                           + z ** 2 / (4 * n ** 2))
            want = (max(0.0, min(center - half, p_hat)),
                    min(1.0, max(center + half, p_hat)))
            assert wilson_interval(k, n, alpha) == pytest.approx(
                want, rel=0.0, abs=1e-15)

    def test_deep_tail_intervals_are_informative_and_nest(self):
        # 1 - alpha/2 rounds to 1 below alpha ~ 1.1e-16; these must not
        # come back as the empty claim (0, 1)
        intervals = [wilson_interval(1, 10, a) for a in (1e-17, 1e-300)]
        for lo, hi in intervals:
            assert 0.0 < lo < 0.1 < hi < 1.0
        (lo1, hi1), (lo2, hi2) = intervals
        assert lo2 < lo1 and hi1 < hi2

    def test_alpha_floor_is_the_least_subnormal(self):
        # alpha / 2 rounds to 0 at 5e-324, where the quantile is undefined
        with pytest.raises(ValueError, match="^alpha "):
            wilson_interval(1, 10, 5e-324)
        lo, hi = wilson_interval(1, 10, 1e-323)
        assert 0.0 < lo < hi < 1.0

    @given(
        n=st.integers(min_value=1, max_value=10_000),
        frac=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=1e-4, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_contains_point_estimate(self, n, frac, alpha):
        k = min(n, int(round(frac * n)))
        lo, hi = wilson_interval(k, n, alpha)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


class TestReportAndSample:
    def test_report_pass_iff_statistic_below_threshold(self):
        assert TestReport(0.1, 0.2, 0.01, "x").passed
        assert not TestReport(0.3, 0.2, 0.01, "x").passed
        assert TestReport(0.2, 0.2, 0.01, "boundary").passed

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            EmpiricalSample(4, np.array([0.2, 0.1]), (0, 0))  # unsorted
        with pytest.raises(ValueError):
            EmpiricalSample(4, np.array([-0.1, 0.2]), (0, 0))  # range

    def test_callers_values_stay_writable(self):
        a = np.array([0.1, 0.2, 0.7])
        sample = EmpiricalSample(dim=4, values=a, seed_record=(0, 0))
        assert not sample.values.flags.writeable
        a[0] = 0.05
        assert a.flags.writeable
