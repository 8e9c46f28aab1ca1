import itertools
import math
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm

from quasiortho import (
    QuasiOrthogonalFamily,
    ResourceLimitError,
    RngStream,
    StateVector,
    basis_state,
    greedy_construct,
    log_lower_bound,
    lower_bound,
    overlap_sq,
    qubit_capacity_log,
    random_coding_construct,
    success_rate_experiment,
    survival,
    union_bound_failure,
    verify,
)
from quasiortho import _workers, limits, packing, states
from quasiortho.packing import (_ALPHA_3SIGMA, MAX_QUBITS_ANALYTIC,
                                _GREEDY_BATCH, _binomial_tail,
                                _pairwise_stats)
from quasiortho.states import _gram_blocks, _haar_rows

# Extended-precision oracle values (mpmath, 60 digits)
LOG_BOUND_100_01 = 4.71534552506240       # (99/2)(-ln 0.9) - 1/2
QUBIT_LOG_20_01 = 55238.701353            # ((2^20-1)/2)(-ln 0.9) - 1/2
UNION_100_01_111 = 0.181812775386         # (1/2) 111^2 (0.9)^99


class TestBounds:
    def test_log_form_point_value(self):
        assert abs(log_lower_bound(100, 0.1) / LOG_BOUND_100_01 - 1) < 1e-12

    def test_log_form_at_eps_zero(self):
        for d in (1, 2, 100, 10 ** 6):
            assert log_lower_bound(d, 0.0) == -0.5

    def test_affine_identity_in_d(self):
        # bound(p) is affine in p: value(2d-1) - value(d) = ((d-1)/2) s
        for d in (2, 10, 100, 4096):
            for eps in (0.01, 0.1, 0.5):
                s = -math.log1p(-eps)
                diff = log_lower_bound(2 * d - 1, eps) - log_lower_bound(d, eps)
                assert abs(diff - 0.5 * (d - 1) * s) < 1e-9 * max(1, abs(diff))

    def test_lower_bound_examples(self):
        assert lower_bound(100, 0.1) == 111
        assert lower_bound(1, 0.9) == 0
        for d in (1, 2, 64, 4096):
            assert lower_bound(d, 0.0) == 0

    def test_lower_bound_matches_floor_of_log_form(self):
        for d in (2, 10, 100, 500, 1000):
            for eps in (0.01, 0.1, 0.5, 0.9):
                log_m = log_lower_bound(d, eps)
                if log_m > 700:
                    continue
                assert lower_bound(d, eps) == int(math.floor(math.exp(log_m)))

    def test_lower_bound_floor_near_integers_matches_decimal(self):
        # eps solved so that exp(x) lands on an integer N, then stepped a
        # few ulps either way; the float exp() cannot decide these floors
        def exact(d, eps):
            with localcontext() as ctx:
                ctx.prec = 80
                x = Decimal(d - 1) / 2 * -(1 - Decimal(eps)).ln() - Decimal("0.5")
                return x.exp()

        near = 0
        for d in (2, 3, 10, 57, 100, 4096, 10 ** 5):
            for n in (1, 2, 7, 111, 123456, 10 ** 9):
                eps = -math.expm1(-2.0 * (math.log(n) + 0.5) / (d - 1))
                if eps > 0.999:
                    continue
                for _ in range(8):
                    eps = math.nextafter(eps, 0.0)
                for _ in range(17):
                    value = exact(d, eps)
                    floor = int(value.to_integral_value(rounding=ROUND_FLOOR))
                    if abs(value - round(value)) <= Decimal("1e-9"):
                        near += 1
                        assert lower_bound(d, eps) == floor, (d, eps, value)
                    eps = math.nextafter(eps, 1.0)
        assert near >= 450
        # numpy and integer-valued float inputs take the same exact path
        assert lower_bound(np.int64(100), np.float64(0.1)) == 111
        assert lower_bound(100.0, 0.1) == 111

    def test_lower_bound_overflow_raises(self):
        with pytest.raises(OverflowError):
            lower_bound(2 ** 20, 0.1)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            lower_bound(10, 1.0)
        with pytest.raises(ValueError):
            log_lower_bound(10, -0.1)

    @given(
        d=st.integers(min_value=2, max_value=2000),
        eps=st.floats(min_value=0.001, max_value=0.95),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_d_and_eps(self, d, eps):
        if log_lower_bound(d + 1, eps) > 690 or log_lower_bound(d, eps * 1.05) > 690:
            return
        m = lower_bound(d, eps)
        assert lower_bound(d + 1, eps) >= m
        assert lower_bound(d, min(0.99, eps * 1.05)) >= m


class TestQubitCapacity:
    def test_zero_qubits(self):
        assert qubit_capacity_log(0, 0.3) == -0.5

    def test_point_value(self):
        assert abs(qubit_capacity_log(20, 0.1) / QUBIT_LOG_20_01 - 1) < 1e-9

    def test_log_form_finite_where_floor_form_overflows(self):
        v = log_lower_bound(2 ** 20, 0.1)
        assert math.isfinite(v)
        assert v == pytest.approx(qubit_capacity_log(20, 0.1), rel=1e-12)

    def test_doubling_identity(self):
        # value(n+1) - value(n) = 2^(n-1) (-log(1-eps)) exactly
        eps = 0.1
        s = -math.log1p(-eps)
        for n in (1, 5, 10, 20):
            diff = qubit_capacity_log(n + 1, eps) - qubit_capacity_log(n, eps)
            assert abs(diff - 2.0 ** (n - 1) * s) < 1e-9 * abs(diff)

    def test_matches_log_lower_bound_at_power_of_two(self):
        for n in (1, 4, 10):
            assert qubit_capacity_log(n, 0.2) == pytest.approx(
                log_lower_bound(2 ** n, 0.2), rel=1e-14)

    def test_equals_log_lower_bound_bit_for_bit(self):
        # the qubit form is the bound at d = 2**n, not a formula of its own
        grid = [0.0, 1e-300, 1e-17, 1e-9, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.9,
                1 - 1e-12, math.nextafter(1.0, 0.0)]
        for n in range(MAX_QUBITS_ANALYTIC + 1):
            for eps in grid:
                assert qubit_capacity_log(n, eps) == \
                    log_lower_bound(2 ** n, eps), (n, eps)

    def test_domain(self):
        with pytest.raises(ValueError):
            qubit_capacity_log(-1, 0.1)
        with pytest.raises(ValueError):
            qubit_capacity_log(2000, 0.1)


class TestUnionBound:
    def test_vacuous_small_case(self):
        assert union_bound_failure(2, 0.0, 2) == pytest.approx(2.0, rel=1e-14)

    def test_point_value(self):
        v = union_bound_failure(100, 0.1, 111)
        assert abs(v / UNION_100_01_111 - 1) < 1e-10

    def test_below_one_at_the_guaranteed_size(self):
        # choosing M = lower_bound makes the union bound < 1
        for d, eps in [(100, 0.1), (64, 0.2), (32, 0.3), (1000, 0.05)]:
            m = lower_bound(d, eps)
            if m >= 2:
                assert union_bound_failure(d, eps, m) < 1.0

    def test_m_domain(self):
        with pytest.raises(ValueError):
            union_bound_failure(10, 0.1, 1)

    def test_past_the_float_range_is_inf(self):
        # log p = 1380: a vacuous bound, as-is, not an OverflowError
        assert union_bound_failure(2, 0.5, 10 ** 300) == math.inf


class TestRandomCodingConstruct:
    def test_singleton_always_succeeds(self):
        report = random_coding_construct(8, 0.0, 1, RngStream(0))
        assert report.success
        assert report.max_pairwise == 0.0
        assert report.failure_pair is None
        assert report.family is not None and report.family.size == 1

    def test_threshold_near_one_succeeds(self):
        report = random_coding_construct(2, 1 - 1e-12, 3, RngStream(1))
        assert report.success
        assert report.family is not None

    def test_failure_reports_first_lexicographic_pair(self):
        # eps = 0 cannot be met by random states, so pair (0, 1) violates
        report = random_coding_construct(4, 0.0, 3, RngStream(2))
        assert not report.success
        assert report.failure_pair == (0, 1)
        assert report.family is None

    def test_success_fraction_beats_union_bound(self):
        # d=100, eps=0.1, M=111: union bound 0.1818 predicts success
        # prob >= 0.818; check >= 0.74 (3 binomial SEs below) over 200
        # seeded trials
        trials, successes = 200, 0
        rng = RngStream(2025)
        for t in range(trials):
            if random_coding_construct(100, 0.1, 111, rng.substream(t)).success:
                successes += 1
        assert successes / trials >= 0.74

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            random_coding_construct(1000, 0.5, 200_000, RngStream(0))


class TestGreedyConstruct:
    def test_singleton(self):
        fam = greedy_construct(8, 0.3, 1, 10, RngStream(5))
        assert fam.size == 1
        assert fam.max_pairwise == 0.0

    def test_reaches_target_when_rejection_rate_tiny(self):
        # oracle run before the build: per-pair violation probability is
        # the survival law, so acceptance per attempt is near-certain
        d, eps, target = 64, 0.2, 50
        p_pair = survival(d, eps)
        assert target * p_pair < 1e-4
        fam = greedy_construct(d, eps, target, 10_000, RngStream(6))
        assert fam.size == target
        assert fam.max_pairwise <= eps

    def test_output_always_passes_verify(self):
        fam = greedy_construct(16, 0.5, 10, 1000, RngStream(7))
        max_pairwise, ok = verify(fam)
        assert ok
        assert max_pairwise <= 0.5

    def test_short_family_is_valid(self):
        # eps = 0 rejects every second vector; budget runs out at size 1
        fam = greedy_construct(4, 0.0, 5, 5, RngStream(8))
        assert 1 <= fam.size < 5
        assert fam.max_pairwise == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            greedy_construct(4, 0.1, 0, 10, RngStream(0))
        with pytest.raises(ValueError):
            greedy_construct(4, 0.1, 10, 5, RngStream(0))

    def test_max_attempts_count_against_the_sample_cap(self):
        # refused before the first draw, not after 10**8 attempts
        rng = RngStream(0)
        before = rng.generator.bit_generator.state
        with pytest.raises(ResourceLimitError, match="max_attempts"):
            greedy_construct(4, 0.1, 2, limits.MAX_SAMPLE_COUNT + 1, rng)
        assert rng.generator.bit_generator.state == before


def greedy_reference(d, eps, target_m, max_attempts, rng):
    """The one-candidate-at-a-time loop ``greedy_construct`` batches:
    one draw and one matrix-vector check per attempt."""
    buffer = np.empty((target_m, d), dtype=np.complex128)
    size = 0
    for _ in range(max_attempts):
        row = _haar_rows(d, 1, rng)[0]
        if size and np.max(np.abs(buffer[:size] @ row.conj()) ** 2) > eps:
            continue
        buffer[size] = row
        size += 1
        if size == target_m:
            break
    accepted = buffer[:size]
    return accepted, _pairwise_stats(accepted, eps)[0]


class TestGreedyMatchesSequentialLoop:
    # (d, eps, target_m, max_attempts, seed)
    CASES = {
        # 100 is no multiple of the batch size: the last batch is short
        "target-mid-batch": (32, 0.2, 100, 10_000, 21),
        "many-batches": (64, 0.3, 4 * _GREEDY_BATCH + 5, 10_000, 22),
        "budget-runs-out": (8, 0.3, 60, 150, 23),
        "eps-zero": (4, 0.0, 5, 200, 24),
        "d-one": (1, 0.5, 3, 100, 25),
        "target-one": (8, 0.3, 1, 10, 26),
        "benchmark-shape": (128, 0.06, 2000, 200_000, 1001),
    }

    def check(self, d, eps, target_m, max_attempts, seed):
        rng, ref_rng = RngStream(seed), RngStream(seed)
        fam = greedy_construct(d, eps, target_m, max_attempts, rng)
        rows, max_pairwise = greedy_reference(d, eps, target_m,
                                              max_attempts, ref_rng)
        assert fam.size == len(rows)
        assert fam.rows.tobytes() == rows.tobytes()
        assert fam.max_pairwise == max_pairwise
        # the batches drew exactly the loop's candidates
        assert (rng.generator.standard_normal()
                == ref_rng.generator.standard_normal())
        return fam

    @pytest.mark.parametrize("case", CASES)
    def test_same_family_and_stream(self, case):
        fam = self.check(*self.CASES[case])
        target_m = self.CASES[case][2]
        if case == "budget-runs-out":
            assert fam.size < target_m
        if case in ("eps-zero", "d-one"):
            assert fam.size == 1
        if case == "benchmark-shape":
            assert fam.size == target_m

    def test_sliced_cross_block(self, monkeypatch):
        # 200 entries: at most 3 accepted rows per slice of a full batch
        monkeypatch.setattr(packing, "_GRAM_BLOCK_ENTRIES", 200)
        fam = self.check(16, 0.4, 150, 3000, 27)
        assert fam.size == 150


class TestVerify:
    def test_orthonormal_basis_passes_any_eps(self):
        d = 16
        rows = np.eye(d)
        for eps in (0.0, 0.1, 0.9):
            fam = QuasiOrthogonalFamily(dim=d, eps=eps, rows=rows)
            max_pairwise, ok = verify(fam)
            assert max_pairwise == 0.0
            assert ok
            # verify reports; the family is a value and stays as built
            assert fam.max_pairwise is None
            with pytest.raises(FrozenInstanceError):
                fam.max_pairwise = max_pairwise

    def test_duplicate_vector_fails(self):
        v = basis_state(8, 2).amplitudes
        fam = QuasiOrthogonalFamily(dim=8, eps=0.5, rows=[v, v])
        max_pairwise, ok = verify(fam)
        assert not ok
        assert max_pairwise == pytest.approx(1.0, abs=1e-12)

    def test_certification_matches_independent_double_loop(self):
        fam = greedy_construct(32, 0.4, 20, 2000, RngStream(9))
        worst = 0.0
        for i in range(fam.size):
            for j in range(i + 1, fam.size):
                worst = max(worst, overlap_sq(fam.vectors[i], fam.vectors[j]))
        max_pairwise, ok = verify(fam)
        assert max_pairwise == pytest.approx(worst, abs=1e-12)
        assert ok == (worst <= fam.eps)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            QuasiOrthogonalFamily(dim=4, eps=0.1,
                                  rows=[basis_state(4).amplitudes,
                                        basis_state(8).amplitudes])
        # rows whose length is not dim
        with pytest.raises(ValueError):
            QuasiOrthogonalFamily(dim=4, eps=0.1, rows=np.eye(8)[:2])


class TestFamilyRows:
    def test_random_build_keeps_the_sampled_rows(self):
        report = random_coding_construct(32, 0.4, 60, RngStream(4))
        fam = report.family
        assert np.array_equal(fam.rows, _haar_rows(32, 60, RngStream(4)))
        assert fam.rows.shape == (fam.size, fam.dim) == (60, 32)
        assert not fam.rows.flags.writeable

    def test_vectors_are_built_from_the_rows(self):
        fam = greedy_construct(16, 0.5, 5, 100, RngStream(8))
        vectors = fam.vectors
        assert len(vectors) == fam.size
        for v, row in zip(vectors, fam.rows):
            assert isinstance(v, StateVector)
            assert np.array_equal(v.amplitudes, row)

    def test_callers_matrix_stays_writable(self):
        a = np.eye(4, dtype=np.complex128)[:2].copy()
        fam = QuasiOrthogonalFamily(dim=4, eps=0.1, rows=a)
        assert not fam.rows.flags.writeable
        with pytest.raises(ValueError):
            fam.rows[0, 0] = 2.0
        a[0, 0] = 2.0
        assert a.flags.writeable

    @pytest.mark.parametrize("rows", [np.zeros((0, 4)), np.ones(4) / 2,
                                      np.ones((2, 4))])
    def test_rejects_empty_flat_or_non_unit_rows(self, rows):
        with pytest.raises(ValueError):
            QuasiOrthogonalFamily(dim=4, eps=0.1, rows=rows)


def dense_pairwise_stats(mat, eps):
    """Oracle: the full M x M Gram matrix read over np.triu_indices."""
    m = mat.shape[0]
    if m == 1:
        return 0.0, None
    iu = np.triu_indices(m, k=1)
    vals = (np.abs(mat @ mat.conj().T) ** 2)[iu]
    if vals.max() <= eps:
        return float(vals.max()), None
    first = int(np.argmax(vals > eps))
    return float(vals.max()), (int(iu[0][first]), int(iu[1][first]))


class TestPairwiseKernel:
    @staticmethod
    def _check_against_dense(m):
        mat = _haar_rows(4, m, RngStream(16))
        vals = (np.abs(mat @ mat.conj().T) ** 2)[np.triu_indices(m, k=1)]
        # at the three largest values the first violation moves late
        for eps in [0.0, 0.5, *np.sort(vals)[-3:]]:
            assert _pairwise_stats(mat, eps) == dense_pairwise_stats(mat, eps)

    # at d = 4, M = 2100 spans 5 Gram blocks of the kernel
    @pytest.mark.parametrize("m", [1, 2, 3, 2100])
    def test_matches_dense_gram_exactly(self, m):
        self._check_against_dense(m)

    # or 132 blocks at 2**15 entries
    @pytest.mark.parametrize("m", [1, 2, 3, 2100])
    def test_matches_dense_gram_exactly_in_small_blocks(self, m,
                                                         small_blocks):
        self._check_against_dense(m)

    def test_first_violation_found_past_the_first_block(self):
        mat = _haar_rows(4, 2100, RngStream(16))
        assert len(list(_gram_blocks(mat))) > 1
        mat[1700] = mat[1500]  # overlap 1, in the fourth block
        max_pairwise, pair = _pairwise_stats(mat, 0.999)
        assert pair == (1500, 1700)
        assert (max_pairwise, pair) == dense_pairwise_stats(mat, 0.999)

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # 2**15 entries: 16-row blocks at M = 2100, so 132 blocks and a
        # last one of 4 rows
        monkeypatch.setattr(states, "_GRAM_BLOCK_ENTRIES", 1 << 15)

    def test_small_blocks_concatenate_to_the_dense_triangle(self,
                                                            small_blocks):
        mat = _haar_rows(4, 2100, RngStream(18))
        starts, shapes, items = [], [], []
        for i0, block in _gram_blocks(mat):
            b, w = block.shape
            starts.append(i0)
            shapes.append((b, w))
            # pair (i0 + r, i0 + c) for c > r, read row by row
            items.append(np.square(block[np.arange(w) > np.arange(b)[:, None]]))
        assert starts == list(range(0, 2100, 16)) and len(starts) == 132
        assert shapes[-1] == (4, 4)
        dense = (np.abs(mat @ mat.conj().T) ** 2)[np.triu_indices(2100, k=1)]
        assert np.concatenate(items).tobytes() == dense.tobytes()

    def test_duplicate_in_a_later_leading_square(self, small_blocks):
        mat = _haar_rows(4, 2100, RngStream(19))
        # rows 1488 .. 1503 are one block: the pair sits at (12, 13) of
        # its leading square, after the zeroed diagonal entry (12, 12)
        mat[1501] = mat[1500]
        max_pairwise, pair = _pairwise_stats(mat, 0.999)
        assert pair == (1500, 1501)
        assert (max_pairwise, pair) == dense_pairwise_stats(mat, 0.999)

    def test_eps_at_the_exact_max_is_no_violation(self, small_blocks):
        mat = _haar_rows(4, 2100, RngStream(20))
        top, _ = dense_pairwise_stats(mat, 1.0)
        assert _pairwise_stats(mat, top) == (top, None)
        below = np.nextafter(top, 0.0)
        assert _pairwise_stats(mat, below) == dense_pairwise_stats(mat, below)

    def test_memory_is_blocked(self):
        mat = _haar_rows(4, 4000, RngStream(17))
        tracemalloc.start()
        try:
            _pairwise_stats(mat, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dense Gram matrix of 4000 rows alone is 256 MB
        assert peak < 128 * 2 ** 20


class TestSuccessRateExperiment:
    def test_near_one_threshold_always_succeeds(self):
        report = success_rate_experiment(2, 0.999999, 3, 30, RngStream(10))
        assert report.statistic == 0.0
        assert report.passed

    def test_reference_grid_case(self):
        report = success_rate_experiment(100, 0.1, 111, 200, RngStream(11))
        assert report.passed
        assert 1.0 - report.statistic >= 0.74

    def test_tiny_pair_failure_probability(self):
        # per-pair failure (0.99)^1023 = 3.43e-5; 100 trials of M=2
        # should all succeed
        report = success_rate_experiment(1024, 0.01, 2, 100, RngStream(12))
        assert report.statistic == 0.0
        assert report.passed

    def test_grid_invariant(self):
        for d, eps, m in [(100, 0.1, 111),
                          (64, 0.2, lower_bound(64, 0.2)),
                          (32, 0.3, lower_bound(32, 0.3))]:
            report = success_rate_experiment(d, eps, m, 200, RngStream(13))
            assert report.passed, (d, eps, m, report.description)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            success_rate_experiment(8, 0.5, 2, 10, RngStream(0))

    @pytest.mark.parametrize("block", [1, 7, 1000, pytest.param(
        packing._RATE_BLOCK, id="default")])
    def test_trials_draw_from_their_substreams(self, block, monkeypatch):
        # a 5-word seed, keyed a block at a time, on one worker so that
        # the trials draw in order; trial t must draw rng.substream(t)'s
        # rows, whatever the block size
        monkeypatch.setattr(packing, "_RATE_BLOCK", block)
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 1)
        rng = RngStream(2 ** 128 + 1, 6)
        drawn = []

        def haar_rows(*args):
            drawn.append(_haar_rows(*args))
            return drawn[-1]

        monkeypatch.setattr(packing, "_haar_rows", haar_rows)
        d, eps, m, trials = 8, 0.4, 6, 40   # about a third fail
        report = success_rate_experiment(d, eps, m, trials, rng)
        want = [_haar_rows(d, m, rng.substream(t)) for t in range(trials)]
        assert [a.tobytes() for a in drawn] == [w.tobytes() for w in want]
        failures = sum(_pairwise_stats(w, eps)[0] > eps for w in want)
        assert 0 < failures < trials
        assert report.statistic == failures / trials

    def test_alpha_is_the_two_sided_three_sigma_level(self):
        report = success_rate_experiment(2, 0.999999, 3, 30, RngStream(10))
        assert report.alpha == 2.0 * float(norm.sf(3.0))

    def test_trials_count_against_the_sample_cap(self, monkeypatch):
        # 1001 trials of a 4-entry build: only the trial count passes the
        # cap, and it is refused before any trial draws
        monkeypatch.setattr(limits, "MAX_SAMPLE_COUNT", 1000)
        drawn = []
        monkeypatch.setattr(packing, "_haar_rows",
                            lambda *a: drawn.append(a) or _haar_rows(*a))
        with pytest.raises(ResourceLimitError):
            success_rate_experiment(2, 0.5, 2, 1001, RngStream(0))
        assert drawn == []
        success_rate_experiment(2, 0.5, 2, 1000, RngStream(0))
        assert len(drawn) == 1000

    @pytest.mark.parametrize("cap, value", [("MAX_STATE_DIM", 8),
                                            ("MAX_SAMPLE_COUNT", 40),
                                            ("MAX_PAIRWISE_OPS", 100)])
    def test_enforces_the_caps_of_one_build(self, monkeypatch, cap, value):
        # one build at d=16, M=3: state dim 16, 48 samples, 144 pair ops
        monkeypatch.setattr(limits, cap, value)
        with pytest.raises(ResourceLimitError):
            random_coding_construct(16, 0.9, 3, RngStream(0))
        with pytest.raises(ResourceLimitError):
            success_rate_experiment(16, 0.9, 3, 30, RngStream(0))


def fail_first(monkeypatch, failures):
    """Make the first ``failures`` certifications of a rate experiment fail
    and the rest succeed, whichever worker runs them."""
    calls = itertools.count()
    monkeypatch.setattr(packing, "_pairwise_stats", lambda mat, eps: (
        1.0 if next(calls) < failures else 0.0, None))


def largest_passing_count(trials, ub):
    """scipy's answer: the largest k with P(Binomial(trials, ub) >= k) at
    least alpha."""
    tails = binom.sf(np.arange(-1, trials + 1), trials, min(ub, 1.0))
    return int(np.flatnonzero(tails >= _ALPHA_3SIGMA)[-1])


class TestBinomialGate:
    @pytest.mark.parametrize("n", [1, 2, 30, 200, 1000])
    @pytest.mark.parametrize("p", [1e-6, 0.001, 0.01, 0.05, 0.181813, 0.5,
                                   0.97])
    def test_tail_matches_scipy(self, n, p):
        ks = np.arange(n + 2)
        want = binom.sf(ks - 1, n, p)
        got = np.array([_binomial_tail(int(k), n, p) for k in ks])
        # scipy flushes tails below about 1e-284 to 0
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-280)

    @pytest.mark.parametrize("trials, ub", [
        (30, 0.01), (30, 0.05), (200, 0.01), (1000, 0.001), (200, 0.181813),
        (1000, 0.181813)])
    def test_threshold_is_the_largest_passing_fraction(self, trials, ub,
                                                       monkeypatch):
        monkeypatch.setattr(packing, "union_bound_failure", lambda *a: ub)
        passing = largest_passing_count(trials, ub)
        for failures in (passing, passing + 1):
            fail_first(monkeypatch, failures)
            report = success_rate_experiment(2, 0.5, 2, trials, RngStream(0))
            assert report.threshold == passing / trials
            assert report.passed == (failures == passing)

    def test_reference_case_tail(self):
        # packing build --d 100 --eps 0.1 --M 111 --trials 200 --seed 3
        # fails 22 of 200 against a bound of 0.1818
        ub = union_bound_failure(100, 0.1, 111)
        assert math.isclose(_binomial_tail(22, 200, ub),
                            binom.sf(21, 200, ub), rel_tol=1e-12)
        assert _binomial_tail(22, 200, ub) > 0.998

    def test_bound_of_zero_and_at_least_one(self, monkeypatch):
        for k in (1, 2, 30):
            assert _binomial_tail(k, 30, 0.0) == 0.0
        for p in (0.0, 0.5, 1.0, 2.5):
            assert _binomial_tail(0, 30, p) == 1.0
            assert _binomial_tail(31, 30, p) == (1.0 if p >= 1.0 else 0.0)
        for p in (1.0, 2.5, 1e300):
            assert [_binomial_tail(k, 30, p) for k in (1, 15, 30)] == [1.0] * 3
        # a bound that underflows to 0 passes no failure at all ...
        assert union_bound_failure(1024, 0.9, 2) == 0.0
        report = success_rate_experiment(1024, 0.9, 2, 30, RngStream(0))
        assert (report.statistic, report.threshold, report.passed) == \
            (0.0, 0.0, True)
        fail_first(monkeypatch, 1)
        assert not success_rate_experiment(1024, 0.9, 2, 30,
                                           RngStream(0)).passed
        # ... and a vacuous bound passes every count
        monkeypatch.setattr(packing, "union_bound_failure", lambda *a: 2.0)
        fail_first(monkeypatch, 30)
        report = success_rate_experiment(2, 0.5, 2, 30, RngStream(0))
        assert (report.statistic, report.threshold, report.passed) == \
            (1.0, 1.0, True)

    def test_hundred_million_trials_gate_quickly(self, monkeypatch):
        # the sample cap admits 1e8 trials; with no trial run, only the
        # gate's search over the count is timed
        trials = limits.MAX_SAMPLE_COUNT
        assert trials == 10 ** 8
        monkeypatch.setattr(packing, "_in_workers", lambda block, total, step: None)
        ub = union_bound_failure(100, 0.1, 111)
        start = time.perf_counter()
        report = success_rate_experiment(100, 0.1, 111, trials, RngStream(0))
        assert time.perf_counter() - start < 5.0
        assert report.statistic == 0.0 and report.passed
        passing = round(report.threshold * trials)
        assert abs(passing - binom.isf(_ALPHA_3SIGMA, trials, ub)) <= 1
        mean = trials * ub
        for k in (int(mean) - 5000, int(mean), passing, int(mean) + 30000):
            tail = _binomial_tail(k, trials, ub)
            assert math.isfinite(tail)
            assert math.isclose(tail, binom.sf(k - 1, trials, ub),
                                rel_tol=1e-5)
