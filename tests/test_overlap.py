import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import ks_2samp, norm

import quasiortho.limits
import quasiortho.overlap
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

    def test_matches_haar_state_loop(self):
        # same stream, same draw layout: the vectorized sampler must
        # reproduce a plain haar_state loop value for value
        d, n = 24, 100
        sample = sample_overlaps(d, n, RngStream(9, 4))
        rng = RngStream(9, 4)
        e1 = basis_state(d, 0)
        loop = np.sort([overlap_sq(haar_state(d, rng), e1) for _ in range(n)])
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

    @pytest.mark.parametrize("d, entries", [
        (16, 16 * 5),    # 5 rows per chunk, 23 = 4 x 5 + 3
        (16, 8),         # d above the constant: one row per chunk
        (3, 2),
        (5000, 5000 * 2),   # 23 = 11 x 2 + 1: a lone row with 2d > 8192
    ])
    def test_chunking_does_not_change_values(self, d, entries, monkeypatch):
        n = 23
        want = self.unchunked(d, n, RngStream(31, d))
        monkeypatch.setattr(quasiortho.overlap, "_SAMPLE_CHUNK_ENTRIES",
                            entries)
        got = sample_overlaps(d, n, RngStream(31, d)).values
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3, 16, 1024])
    def test_matches_the_complex_formula(self, d):
        # the reference is |g_0|^2 / sum |g|^2 on the complex draw; only
        # the summation order differs, so a few float64 ulps separate them
        n = 2000
        g = complex_gaussians(RngStream(32, d), (n, d))
        ref = np.sort(np.abs(g[:, 0]) ** 2 / np.sum(np.abs(g) ** 2, axis=1))
        got = sample_overlaps(d, n, RngStream(32, d)).values
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)

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

    def test_undersized_sample_rejected(self):
        sample = EmpiricalSample(8, np.sort(np.linspace(0.01, 0.2, 50)), (0, 0))
        with pytest.raises(ValueError):
            ks_test(sample)


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

    def test_ndtri_equals_scipy_bit_for_bit(self):
        e2 = math.exp(-2.0)
        edges = [0.0, 1.0, 0.5, 5e-324, 1e-300, math.exp(-32.0),
                 np.nextafter(1.0, 0.0), e2, 1.0 - e2]
        edges += [np.nextafter(e, side) for e in (e2, 1.0 - e2)
                  for side in (0.0, 1.0)]
        ys = np.concatenate([
            edges,
            np.linspace(0.0, 1.0, 4001),
            np.geomspace(1e-300, 0.5, 2000),        # lower tail
            1.0 - np.geomspace(1e-16, 0.5, 2000),   # upper tail
        ])
        want = ndtri(ys)
        got = np.array([quasiortho.overlap._ndtri(float(y)) for y in ys])
        assert got[0] == -math.inf and got[1] == math.inf
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("alpha", np.geomspace(1e-12, 1 - 1e-6, 41))
    def test_equals_the_scipy_stats_formula(self, alpha):
        z = float(norm.ppf(1.0 - alpha / 2.0))
        for k, n in [(0, 1), (3, 7), (500, 1000), (99_999, 100_000)]:
            p_hat = k / n
            denom = 1.0 + z ** 2 / n
            center = (p_hat + z ** 2 / (2 * n)) / denom
            half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / n
                                           + z ** 2 / (4 * n ** 2))
            want = (max(0.0, min(center - half, p_hat)),
                    min(1.0, max(center + half, p_hat)))
            assert wilson_interval(k, n, alpha) == want

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
