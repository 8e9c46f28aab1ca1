import itertools
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from quasiortho import (
    ResourceLimitError,
    RngStream,
    StateVector,
    Unitary,
    apply_local,
    basis_state,
    haar_state,
    haar_unitary,
    overlap_sq,
)
import quasiortho.states
from quasiortho import QuasiOrthogonalFamily, limits
from quasiortho.decoherence import MeasurementModel, generate_branches
from quasiortho.states import (NORM_ATOL, UNITARY_ATOL, _apply_gate,
                               _check_unit_rows, _check_unitary, _haar_rows,
                               _haar_unitaries, complex_gaussians)


def dense_local_matrix(u_small: np.ndarray, targets, n: int) -> np.ndarray:
    """Independent oracle: build I x ... x U x ... x I entry by entry.

    Qubit q owns bit (index >> (n-1-q)) & 1; u_small's own qubit j maps
    onto targets[j] with the same MSB-first convention.
    """
    d = 2 ** n
    k = len(targets)
    others = [q for q in range(n) if q not in targets]
    dense = np.zeros((d, d), dtype=complex)
    for row in range(d):
        rbits = [(row >> (n - 1 - q)) & 1 for q in range(n)]
        for col in range(d):
            cbits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
            if any(rbits[q] != cbits[q] for q in others):
                continue
            ri = sum(rbits[t] << (k - 1 - j) for j, t in enumerate(targets))
            ci = sum(cbits[t] << (k - 1 - j) for j, t in enumerate(targets))
            dense[row, col] = u_small[ri, ci]
    return dense


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StateVector(np.array([]))

    def test_rejects_above_cap(self):
        dim = limits.MAX_STATE_DIM + 1
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ResourceLimitError):
            StateVector(amps)

    def test_amplitudes_immutable(self):
        s = basis_state(4, 1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0

    def test_callers_array_stays_writable(self):
        a = np.zeros(4, dtype=np.complex128)
        a[0] = 1.0
        s = StateVector(a)
        assert not s.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            s.amplitudes[1] = 2.0
        a[1] = 2.0
        assert a.flags.writeable


class TestInnerAndOverlap:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap_sq(basis_state(2), basis_state(4))

    def test_overlap_examples(self):
        e1, e2 = basis_state(2, 0), basis_state(2, 1)
        psi = StateVector(np.array([1.0, 1j]) / math.sqrt(2))
        s = haar_state(32, RngStream(3))
        assert abs(overlap_sq(s, s) - 1.0) < 1e-10
        assert overlap_sq(e1, e2) == 0.0
        assert abs(overlap_sq(psi, e1) - 0.5) < 1e-15


class TestHaarState:
    def test_d1_is_pure_phase(self):
        s = haar_state(1, RngStream(9))
        assert abs(abs(s.amplitudes[0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("d,seed", [(2, 0), (17, 1), (64, 2), (1024, 3)])
    def test_unit_norm(self, d, seed):
        s = haar_state(d, RngStream(seed))
        assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-10

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            haar_state(0, RngStream(0))

    def test_mean_squared_overlap_is_one_over_d(self):
        # Haar mean of |<e_1|psi>|^2 is 1/d; checked at 5 standard errors.
        d, n = 64, 20_000
        rng = RngStream(2024)
        e1 = basis_state(d, 0)
        vals = np.array([overlap_sq(haar_state(d, rng), e1) for _ in range(n)])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 5 * se

    def test_determinism_bit_identical(self):
        a = haar_state(128, RngStream(5, 3))
        b = haar_state(128, RngStream(5, 3))
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()


class TestHaarUnitary:
    @pytest.mark.parametrize("d", [1, 2, 7, 64])
    def test_unitarity(self, d):
        u = haar_unitary(d, RngStream(d))
        defect = np.abs(u.entries.conj().T @ u.entries - np.eye(d)).max()
        assert defect < 1e-9

    def test_d1_uniform_phase(self):
        u = haar_unitary(1, RngStream(42))
        assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-12
        # phases spread over the circle rather than collapsing to a point
        phases = [np.angle(haar_unitary(1, RngStream(s)).entries[0, 0])
                  for s in range(200)]
        assert np.std(phases) > 0.5

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            haar_unitary(0, RngStream(0))

    def test_survival_law_of_applied_column(self):
        # U e_1 overlap with e_1 exceeds eps=0.1 with probability
        # (0.9)^15 = 0.205891132094649 (extended-precision oracle) at d=16.
        d, n_draws, eps = 16, 10_000, 0.1
        expected = 0.205891132094649
        rng = RngStream(77)
        e1 = basis_state(d, 0)
        hits = 0
        for _ in range(n_draws):
            u = haar_unitary(d, rng)
            if overlap_sq(StateVector(u.entries @ e1.amplitudes), e1) >= eps:
                hits += 1
        from quasiortho import wilson_interval
        lo, hi = wilson_interval(hits, n_draws, alpha=0.01)
        assert lo <= expected <= hi

    def test_unitary_invariance_of_haar_states(self):
        # overlap law of V|psi> matches that of |psi| for fixed V
        d, n = 64, 10_000
        v = haar_unitary(d, RngStream(1, 0))
        e1 = basis_state(d, 0)
        rng_a, rng_b = RngStream(1, 1), RngStream(1, 2)
        a = np.array([overlap_sq(StateVector(
            v.entries @ haar_state(d, rng_a).amplitudes), e1) for _ in range(n)])
        b = np.array([overlap_sq(haar_state(d, rng_b), e1) for _ in range(n)])
        assert ks_2samp(a, b).pvalue > 0.01


class TestHaarUnitaryBatch:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_batch_equals_sequential_draws(self, d):
        count = 13
        batch = _haar_unitaries(d, count, RngStream(6, d))
        stream = RngStream(6, d)
        for u in batch:
            assert np.array_equal(u, haar_unitary(d, stream).entries)
        assert batch.shape == (count, d, d)

    def test_batch_checks_every_gate(self, monkeypatch):
        # the sampler checks nothing; each of its callers checks every gate
        real_qr = np.linalg.qr

        def spoil(index):
            def qr_with_one_bad_gate(a):
                q, r = real_qr(a)
                q[index, 0, 0] *= 1.0 + 10 * UNITARY_ATOL
                return q, r
            monkeypatch.setattr(np.linalg, "qr", qr_with_one_bad_gate)

        # n=4 at depth 3 is a brickwork of 2 + 1 + 2 gates per branch
        model = MeasurementModel(2, [0.6, 0.8], 4, "chaotic-circuit", depth=3)
        for index in (0, 2, 4):
            spoil(index)
            with pytest.raises(ValueError, match="not unitary"):
                generate_branches(model, RngStream(9))
        spoil(0)
        with pytest.raises(ValueError, match="not unitary"):
            haar_unitary(4, RngStream(9))

    def test_batch_leaves_stream_where_sequential_draws_do(self):
        a, b = RngStream(8), RngStream(8)
        _haar_unitaries(4, 5, a)
        for _ in range(5):
            haar_unitary(4, b)
        assert a.generator.standard_normal() == b.generator.standard_normal()


class TestUnitary:
    def test_callers_array_stays_writable(self):
        u = np.eye(2, dtype=np.complex128)
        unitary = Unitary(u)
        assert not unitary.entries.flags.writeable
        with pytest.raises(ValueError):
            unitary.entries[0, 0] = 1.0
        u[0, 0] = 1.0
        assert u.flags.writeable


class TestUnitaryStackCheck:
    def stack(self):
        return _haar_unitaries(4, 6, RngStream(12))

    def test_unitary_stack_passes(self):
        _check_unitary(self.stack())

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, 1.0, 1.0, 1.0 + 10 * UNITARY_ATOL]),   # just outside
        np.full((4, 4), np.nan),
        np.full((4, 4), np.inf),
        np.full((4, 4), 1e200),                             # |U+U| overflows
    ])
    def test_one_bad_matrix_fails_the_stack(self, bad):
        # a ValueError, not a RuntimeWarning (warnings are errors here)
        gates = self.stack()
        gates[3] = bad
        with pytest.raises(ValueError, match="not unitary"):
            _check_unitary(gates)

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, 1.0, 1.0, 1.0 + 10 * UNITARY_ATOL]),
        np.full((4, 4), np.nan),
        np.full((4, 4), np.inf),
    ])
    def test_bad_matrix_in_the_last_slice_fails(self, bad, monkeypatch):
        # slices of 2 gates: a (3, 5, 4, 4) stack is checked in 8 slices,
        # the last holding one gate
        monkeypatch.setattr(quasiortho.states, "_CHECK_SLICE_ENTRIES", 32)
        gates = _haar_unitaries(4, 15, RngStream(12)).reshape(3, 5, 4, 4)
        _check_unitary(gates)
        gates[2, 4] = bad
        with pytest.raises(ValueError, match="not unitary"):
            _check_unitary(gates)

    def test_check_leaves_the_stack_unchanged(self):
        gates = self.stack()
        before = gates.copy()
        _check_unitary(gates)
        assert gates.tobytes() == before.tobytes()

    def test_unitary_constructor_uses_the_same_rule(self):
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(np.diag([1.0, 1.0 + 10 * UNITARY_ATOL]))
        Unitary(np.diag([1.0, 1.0 + 0.1 * UNITARY_ATOL]))


def complex_gaussians_reference(rng, shape):
    """The sum-and-divide form ``complex_gaussians`` replaced."""
    z = rng.generator.standard_normal(tuple(np.atleast_1d(shape).astype(int))
                                      + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


class TestComplexGaussians:
    @pytest.mark.parametrize("shape", [(1, 4, 4), (3, 5), (7,), (50, 4, 4),
                                       (8, 2 ** 14), (4096, 1024)])
    def test_bytes_equal_the_reference(self, shape):
        g = complex_gaussians(RngStream(5, len(shape)), shape)
        ref = complex_gaussians_reference(RngStream(5, len(shape)), shape)
        assert g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(), 5, (0,), (0, 4), (3, 0)])
    def test_shape_dtype_and_layout_match_the_reference(self, shape):
        g = complex_gaussians(RngStream(6), shape)
        ref = complex_gaussians_reference(RngStream(6), shape)
        assert g.shape == np.shape(ref)
        assert g.dtype == np.complex128
        assert g.flags.c_contiguous
        assert g.tobytes() == ref.tobytes()


class TestHaarRows:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 64, 1024])
    def test_rows_equal_sequential_haar_states(self, d):
        m = 7
        rows = _haar_rows(d, m, RngStream(14, d))
        stream = RngStream(14, d)
        for row in rows:
            assert np.array_equal(row, haar_state(d, stream).amplitudes)
        assert rows.shape == (m, d)
        # and leave the stream where the sequential draws do
        assert (RngStream(14, d).generator.standard_normal(2 * m * d + 1)[-1]
                == stream.generator.standard_normal())

    @pytest.mark.parametrize("d", [1, 2, 3, 64, 1024, 2 ** 14])
    def test_bytes_equal_the_complex_division(self, d):
        rows = _haar_rows(d, 5, RngStream(15, d))
        g = complex_gaussians(RngStream(15, d), (5, d))
        ref = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert rows.tobytes() == ref.tobytes()


class TestUnitRowCheck:
    def stack(self):
        return _haar_rows(8, 6, RngStream(13))

    def test_unit_rows_pass(self):
        _check_unit_rows(self.stack())
        _check_unit_rows(self.stack().reshape(2, 3, 8))

    @pytest.mark.parametrize("bad", [
        np.sqrt(1.0 + 10 * NORM_ATOL) * np.eye(8)[0],   # just outside
        np.sqrt(1.0 - 10 * NORM_ATOL) * np.eye(8)[0],
        np.full(8, np.nan),
        np.full(8, np.inf),
        np.full(8, 1e200),                              # |a|^2 overflows
    ])
    def test_one_bad_row_fails_the_stack(self, bad):
        # a ValueError, not a RuntimeWarning (warnings are errors here)
        rows = self.stack()
        rows[3] = bad
        with pytest.raises(ValueError, match="not normalized"):
            _check_unit_rows(rows)
        with pytest.raises(ValueError, match="not normalized"):
            QuasiOrthogonalFamily(dim=8, eps=0.5, rows=rows)

    def test_state_vector_uses_the_same_rule(self):
        e0 = np.eye(8)[0]
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.sqrt(1.0 + 10 * NORM_ATOL) * e0)
        StateVector(np.sqrt(1.0 + 0.1 * NORM_ATOL) * e0)


def moveaxis_reference(entries, targets, amps):
    """Reference gate action: one n-axis ``np.moveaxis`` of the targets to
    the front, one matrix product, and the inverse move."""
    n = amps.size.bit_length() - 1
    k = len(targets)
    moved = np.moveaxis(amps.reshape((2,) * n), targets, range(k))
    out = (entries @ moved.reshape(2 ** k, -1)).reshape((2,) * n)
    return np.moveaxis(out, range(k), targets).reshape(-1)


class TestGateKernel:
    @pytest.mark.parametrize("targets", [
        (7, 2), (2, 7), (9, 0), (0, 9), (4, 5), (5, 4), (8, 9), (0, 1),
        (3,), (9,), (1, 6, 3),
    ])
    def test_bit_identical_to_moveaxis(self, targets):
        rng = RngStream(21)
        amps = haar_state(2 ** 10, rng).amplitudes
        gate = haar_unitary(2 ** len(targets), rng).entries
        assert np.array_equal(_apply_gate(gate[None], targets, amps[None])[0],
                              moveaxis_reference(gate, targets, amps))

    def test_every_target_tuple_on_small_systems(self):
        rng = RngStream(22)
        for n in range(1, 6):
            amps = haar_state(2 ** n, rng).amplitudes
            for k in (1, 2, 3):
                if k > n:
                    continue
                gate = haar_unitary(2 ** k, rng).entries
                for targets in itertools.permutations(range(n), k):
                    assert np.array_equal(
                        _apply_gate(gate[None], targets, amps[None])[0],
                        moveaxis_reference(gate, targets, amps))

    @pytest.mark.parametrize("n, targets", [
        (2, (0, 1)), (2, (1, 0)), (3, (1, 2)), (7, (5, 6)), (10, (3, 4)),
        (10, (0, 1)), (14, (12, 13)), (14, (6,)), (14, (13, 0)),
    ])
    def test_stacked_states_bit_identical_to_one_at_a_time(self, n, targets):
        # one gate per state; n=2 makes the block a single column, which
        # BLAS runs as a matrix-vector product
        rng = RngStream(23)
        batch = 5
        amps = np.stack([haar_state(2 ** n, rng).amplitudes
                         for _ in range(batch)])
        gates = np.stack([haar_unitary(2 ** len(targets), rng).entries
                          for _ in range(batch)])
        out = _apply_gate(gates, targets, amps)
        for b in range(batch):
            assert np.array_equal(out[b],
                                  moveaxis_reference(gates[b], targets, amps[b]))

    def test_batched_gates_match_dense_oracle(self):
        # every ordered 1- and 2-qubit target tuple on n <= 5, each of
        # three states with its own gate, against I x ... x U x ... x I
        rng = RngStream(24)
        batch = 3
        for n in range(1, 6):
            amps = np.stack([haar_state(2 ** n, rng).amplitudes
                             for _ in range(batch)])
            for k in (1, 2):
                if k > n:
                    continue
                gates = np.stack([haar_unitary(2 ** k, rng).entries
                                  for _ in range(batch)])
                for targets in itertools.permutations(range(n), k):
                    out = _apply_gate(gates, targets, amps)
                    for b in range(batch):
                        dense = dense_local_matrix(gates[b], targets, n)
                        assert np.max(np.abs(out[b] - dense @ amps[b])) \
                            < 1e-12, (n, targets, b)


class TestApplyLocal:
    def test_identity_any_target(self):
        s = haar_state(8, RngStream(4))
        for q in range(3):
            out = apply_local(Unitary(np.eye(2)), (q,), s)
            assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_bit_flip_msb_convention(self):
        # qubit 0 is the most significant index bit: |00> -> |10> = index 2
        flip = Unitary(np.array([[0, 1], [1, 0]], dtype=complex))
        out = apply_local(flip, (0,), basis_state(4, 0))
        assert np.allclose(out.amplitudes, basis_state(4, 2).amplitudes)

    def test_matches_dense_oracle_random_two_qubit(self):
        n = 3
        rng = RngStream(15)
        u = haar_unitary(4, rng)
        psi = haar_state(2 ** n, rng)
        for targets in [(0, 1), (1, 2), (0, 2), (2, 0)]:
            dense = dense_local_matrix(u.entries, targets, n)
            expected = dense @ psi.amplitudes
            out = apply_local(u, targets, psi)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    def test_exhaustive_small_systems(self):
        # every ordered 1- and 2-qubit target tuple on n <= 4, against the
        # dense oracle, on a fixed random state and gate per case
        rng = RngStream(123)
        for n in range(1, 5):
            psi = haar_state(2 ** n, rng)
            for k in (1, 2):
                if k > n:
                    continue
                u = haar_unitary(2 ** k, rng)
                for targets in itertools.permutations(range(n), k):
                    dense = dense_local_matrix(u.entries, targets, n)
                    out = apply_local(u, targets, psi)
                    assert np.max(np.abs(out.amplitudes
                                         - dense @ psi.amplitudes)) < 1e-10

    def test_invalid_targets(self):
        s = basis_state(8)
        one = Unitary(np.eye(2))
        two = Unitary(np.eye(4))
        with pytest.raises(ValueError):
            apply_local(one, (3,), s)        # out of range
        with pytest.raises(ValueError):
            apply_local(two, (1, 1), s)      # duplicates
        with pytest.raises(ValueError):
            apply_local(two, (0,), s)        # gate/target mismatch
        with pytest.raises(ValueError):
            apply_local(one, (0,), basis_state(3))  # not a qubit register


def test_overlap_lipschitz_bound():
    # |f(psi) - f(chi)| <= 2 ||psi - chi|| for the squared-overlap
    # functional; checked on 10^4 random pairs at d = 128.
    d, n = 128, 10_000
    rng = RngStream(31)
    phi_ref = haar_state(d, rng)

    gen = rng.substream(0).generator
    z = gen.standard_normal((2 * n, d, 2))
    mat = (z[..., 0] + 1j * z[..., 1])
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    psi, chi = mat[:n], mat[n:]
    f_psi = np.abs(psi @ phi_ref.amplitudes.conj()) ** 2
    f_chi = np.abs(chi @ phi_ref.amplitudes.conj()) ** 2
    dist = np.linalg.norm(psi - chi, axis=1)
    assert np.all(np.abs(f_psi - f_chi) <= 2.0 * dist + 1e-12)

    # spot-check the vectorized oracle against the library functions
    for i in range(100):
        a, c = StateVector(psi[i]), StateVector(chi[i])
        lhs = abs(overlap_sq(a, phi_ref) - overlap_sq(c, phi_ref))
        assert lhs <= 2.0 * np.linalg.norm(a.amplitudes - c.amplitudes) + 1e-12


def test_output_normalization_across_operations():
    rng = RngStream(55)
    outputs = [
        haar_state(64, rng),
        apply_local(haar_unitary(4, rng), (1, 2), haar_state(16, rng)),
    ]
    for out in outputs:
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-9
    # freshly constructed vectors meet the tighter bound
    assert abs(np.sum(np.abs(haar_state(1024, rng).amplitudes) ** 2) - 1) < 1e-10
