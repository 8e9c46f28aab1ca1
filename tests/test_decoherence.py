import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from quasiortho import (
    BranchSet,
    MeasurementModel,
    ReducedDensityMatrix,
    ResourceLimitError,
    RngStream,
    StateVector,
    SuppressionResult,
    basis_state,
    generate_branches,
    gram_matrix,
    greedy_construct,
    haar_state,
    integrable_overlap_exact,
    ks_test,
    max_coherence,
    overlap_sq,
    reduced_density,
    success_rate_experiment,
    suppression_experiment,
    typicality_ratio,
)
from quasiortho.states import (Unitary, apply_local, haar_unitary,
                               pairwise_overlap_sq)
from quasiortho import _workers, packing
from quasiortho import decoherence as dc
from quasiortho.decoherence import ATYPICAL_RATIO
from quasiortho.overlap import EmpiricalSample

COS20_01 = 0.904686221058675  # cos^20(0.1), extended-precision oracle

UNIFORM2 = np.array([1.0, 1.0]) / math.sqrt(2)


def exact_haar_model(n, k=2, coeffs=None):
    if coeffs is None:
        coeffs = np.full(k, 1.0 / math.sqrt(k))
    return MeasurementModel(pointer_count=k, coefficients=coeffs,
                            env_qubits=n, dynamics="exact-haar")


def integrable_model(n, thetas, coeffs=None):
    k = len(thetas)
    if coeffs is None:
        coeffs = np.full(k, 1.0 / math.sqrt(k))
    return MeasurementModel(pointer_count=k, coefficients=coeffs,
                            env_qubits=n, dynamics="integrable-product",
                            thetas=tuple(thetas))


def dense_partial_trace(coeffs, branch_matrix):
    """Oracle: build the full entangled ket and trace out the environment.

    Psi = sum_i c_i |s_i> (x) |E_i> laid out as a (k, d_env) table via
    explicit Kronecker products; rho_S[i, j] = sum_e Psi[i,e] Psi*[j,e].
    """
    k = len(coeffs)
    d_env = branch_matrix.shape[1]
    full = np.zeros(k * d_env, dtype=complex)
    for i in range(k):
        sys_basis = np.zeros(k, dtype=complex)
        sys_basis[i] = 1.0
        full += coeffs[i] * np.kron(sys_basis, branch_matrix[i])
    table = full.reshape(k, d_env)
    return np.einsum("ie,je->ij", table, table.conj())


def per_gate_records(model, rng):
    """Reference records, one validated gate and state per step.

    Gates come from one ``haar_unitary(4)`` call each, layer by layer and
    left to right, on pointer value i's ``rng.substream(i)``; an
    exact-haar record is one ``haar_state`` on that stream.
    """
    records = []
    for i in range(model.pointer_count):
        stream = rng.substream(i)
        state = model.initial_state()
        if model.dynamics == "exact-haar":
            state = haar_state(model.env_dim, stream)
        elif model.dynamics == "chaotic-circuit":
            for layer in range(model.depth):
                for q in range(layer % 2, model.env_qubits - 1, 2):
                    state = apply_local(haar_unitary(4, stream), (q, q + 1), state)
        else:
            c, s = math.cos(model.thetas[i] / 2), math.sin(model.thetas[i] / 2)
            gate = Unitary(np.array([[c, -s], [s, c]], dtype=complex))
            for q in range(model.env_qubits):
                state = apply_local(gate, (q,), state)
        records.append(state.amplitudes)
    return records


def kernel_pair_overlaps(rows):
    """Reference pair overlaps |<E_j|E_i>|^2, i < j, in lexicographic
    order, from the blocked ``pairwise_overlap_sq`` kernel."""
    return np.concatenate(list(pairwise_overlap_sq(rows)))


def non_basis_initial(n):
    return haar_state(2 ** n, RngStream(404))


# angles at the sign and wrap-around edges of cos and sin
EDGE_THETAS = (0.0, math.pi, -math.pi, 2 * math.pi, -6.4, 7.0)
GENERIC_PHASES3 = np.exp(1j * np.arange(3)) * np.array([1.0, 1.5, 2.0])
GENERIC_PHASES3 /= np.linalg.norm(GENERIC_PHASES3)


class TestRecordsMatchPerGateReference:
    """Batched draws and the raw-array gate loop change no byte."""

    @pytest.mark.parametrize("model", [
        MeasurementModel(pointer_count=2, coefficients=UNIFORM2, env_qubits=6,
                         dynamics="chaotic-circuit", depth=7,
                         env_initial=non_basis_initial(6)),
        MeasurementModel(pointer_count=3, coefficients=np.full(3, 1 / math.sqrt(3)),
                         env_qubits=5, dynamics="chaotic-circuit"),
        MeasurementModel(pointer_count=2, coefficients=UNIFORM2, env_qubits=2,
                         dynamics="chaotic-circuit", depth=1),
        MeasurementModel(pointer_count=3, coefficients=np.full(3, 1 / math.sqrt(3)),
                         env_qubits=7, dynamics="integrable-product",
                         thetas=(0.0, 0.4, 2.9), env_initial=non_basis_initial(7)),
        integrable_model(6, thetas=[0.1, 1.3]),
        integrable_model(1, thetas=EDGE_THETAS),
        integrable_model(2, thetas=EDGE_THETAS),
        integrable_model(14, thetas=EDGE_THETAS),
        exact_haar_model(5, k=3, coeffs=GENERIC_PHASES3),
    ], ids=["chaotic-depth7-initial", "chaotic-default", "chaotic-n2",
            "integrable-initial", "integrable-basis", "integrable-n1-edges",
            "integrable-n2-edges", "integrable-n14-edges", "exact-haar"])
    # 2**128 + 1 is a seed of five entropy words
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 128 + 1])
    def test_records_bit_identical(self, model, seed):
        # bytes, not values: the sign of a zero must match too
        rng = RngStream(seed, 2)
        got = generate_branches(model, rng).branches
        want = per_gate_records(model, rng)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.amplitudes.tobytes() == w.tobytes()

    def test_suppression_outputs_bit_identical(self):
        self.check_suppression_against_reference(RngStream(31))

    def test_suppression_outputs_of_a_five_word_seed(self):
        self.check_suppression_against_reference(RngStream(2 ** 128 + 1, 4))

    @staticmethod
    def check_suppression_against_reference(rng):
        """30 trials of each model, trial t against the per-gate records
        of ``rng.substream(t)``."""
        models = {
            "chaotic": MeasurementModel(
                pointer_count=3, coefficients=np.array([0.6, 0.64j, 0.48]),
                env_qubits=4, dynamics="chaotic-circuit", depth=5,
                env_initial=non_basis_initial(4)),
            "integrable": integrable_model(
                9, thetas=[0.0, 0.3, -2.0],
                coeffs=np.array([0.6, 0.64j, -0.48])),
            # generic phases: rho from the untransposed product moves the
            # last bit of the max coherence in 6 of these 30 trials
            "exact-haar": exact_haar_model(6, k=3, coeffs=GENERIC_PHASES3),
            # 8 trials per block, so 30 trials end on a partial block
            "chaotic-n10": MeasurementModel(
                pointer_count=2, coefficients=UNIFORM2, env_qubits=10,
                dynamics="chaotic-circuit", depth=6),
            "exact-haar-n12-k4": exact_haar_model(
                12, k=4, coeffs=np.array([0.5, 0.5j, -0.5, 0.5])),
        }
        for name, model in models.items():
            result = suppression_experiment(model, 30, rng)
            c = model.coefficients
            for t in range(30):
                records = BranchSet(
                    branches=tuple(StateVector(a) for a in
                                   per_gate_records(model, rng.substream(t))),
                    generation_record={})
                assert np.array_equal(result.pair_overlaps[t],
                                      kernel_pair_overlaps(records.rows)), (name, t)
                assert result.max_coherences[t] == max_coherence(
                    reduced_density(model, records)), (name, t)
                # rho as it was formed from the transposed gram_matrix
                mat = records.rows
                rho = np.outer(c, c.conj()) * (mat.conj() @ mat.T).T
                assert result.max_coherences[t] == max_coherence(
                    ReducedDensityMatrix(rho)), (name, t)


class TestMeasurementModel:
    def test_pointer_count_floor(self):
        with pytest.raises(ValueError):
            MeasurementModel(pointer_count=1, coefficients=np.array([1.0]),
                             env_qubits=2, dynamics="exact-haar")

    def test_coefficient_normalization(self):
        with pytest.raises(ValueError):
            MeasurementModel(pointer_count=2,
                             coefficients=np.array([1.0, 1.0]),
                             env_qubits=2, dynamics="exact-haar")

    def test_unknown_dynamics(self):
        with pytest.raises(ValueError):
            MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=2, dynamics="ballistic")

    def test_thetas_must_match_pointer_count(self):
        with pytest.raises(ValueError):
            integrable_model(2, thetas=[0.0, 0.1, 0.2], coeffs=UNIFORM2)

    def test_depth_only_for_chaotic(self):
        with pytest.raises(ValueError):
            MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=2, dynamics="exact-haar", depth=3)

    def test_chaotic_depth_default(self):
        m = MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=3, dynamics="chaotic-circuit")
        assert m.depth == 12

    def test_env_initial_dimension_checked(self):
        with pytest.raises(ValueError):
            MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=3, dynamics="exact-haar",
                             env_initial=basis_state(4))

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=20, dynamics="exact-haar")

    def test_huge_env_is_refused_without_forming_its_dimension(self):
        # 2**(10**6) has 301030 digits: formatting it would raise
        # ValueError, not the resource error
        with pytest.raises(ResourceLimitError, match=r"2\*\*1000000 exceeds"):
            MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=10 ** 6, dynamics="exact-haar")

    @pytest.mark.parametrize("cap", [2, 3, 10_000, 2 ** 14])
    def test_qubit_cap_is_the_dimension_cap(self, cap, monkeypatch):
        monkeypatch.setattr(dc.limits, "MAX_STATE_DIM", cap)
        for n in range(1, 20):
            if 2 ** n > cap:
                with pytest.raises(ResourceLimitError):
                    dc.limits.check_state_qubits(n)
            else:
                dc.limits.check_state_qubits(n)

    def test_callers_coefficients_stay_writable(self):
        coeffs = np.array([0.6, 0.8], dtype=np.complex128)
        m = MeasurementModel(pointer_count=2, coefficients=coeffs,
                             env_qubits=2, dynamics="exact-haar")
        assert not m.coefficients.flags.writeable
        coeffs[0] = 0.8
        assert coeffs.flags.writeable

    def test_config_round_trip(self):
        m = MeasurementModel.from_config({
            "pointer_count": 3,
            "coefficients": [[0.5, 0.0], [0.5, 0.0], [0.0, 1 / math.sqrt(2)]],
            "env_qubits": 4,
            "dynamics": "integrable-product",
            "thetas": [0.0, 0.2, -0.3],
        })
        assert m.pointer_count == 3
        assert np.array_equal(m.coefficients,
                              [0.5, 0.5, 1j / math.sqrt(2)])
        assert m.env_qubits == 4
        assert m.dynamics == "integrable-product"
        assert m.thetas == (0.0, 0.2, -0.3)

    def test_config_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "pointer_count": 2,
            "coefficients": [[0.6, 0.0], [0.0, 0.8]],
            "env_qubits": 3,
            "dynamics": "chaotic-circuit",
            "depth": 5,
        }))
        m = MeasurementModel.from_config(path)
        assert m.depth == 5
        assert np.allclose(m.coefficients, [0.6, 0.8j])


class TestGenerateBranches:
    def test_equal_angles_give_identical_branches(self):
        m = integrable_model(5, thetas=[0.7, 0.7])
        bs = generate_branches(m, RngStream(0))
        assert abs(overlap_sq(bs.branches[0], bs.branches[1]) - 1.0) < 1e-12

    def test_integrable_matches_closed_form(self):
        m = integrable_model(10, thetas=[0.0, 0.2])
        bs = generate_branches(m, RngStream(0))
        got = overlap_sq(bs.branches[0], bs.branches[1])
        assert abs(got - integrable_overlap_exact(10, 0.2)) < 1e-10
        assert abs(got - COS20_01) < 1e-10

    def test_exact_haar_mean_overlap(self):
        # mean pairwise squared overlap matches 1/2^n at 5 standard errors
        n, trials = 10, 200
        m = exact_haar_model(n)
        rng = RngStream(33)
        vals = np.array([
            overlap_sq(*generate_branches(m, rng.substream(t)).branches)
            for t in range(trials)
        ])
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 2.0 ** -n) < 5 * se

    def test_branches_normalized_all_dynamics(self):
        models = [
            exact_haar_model(4),
            integrable_model(4, thetas=[0.1, 0.9]),
            MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=4, dynamics="chaotic-circuit", depth=6),
        ]
        for m in models:
            for b in generate_branches(m, RngStream(1)).branches:
                assert abs(np.linalg.norm(b.amplitudes) - 1.0) < 1e-9

    def test_determinism_bit_identical(self):
        for dynamics_model in (
            exact_haar_model(6),
            MeasurementModel(pointer_count=3,
                             coefficients=np.full(3, 1 / math.sqrt(3)),
                             env_qubits=4, dynamics="chaotic-circuit"),
        ):
            a = generate_branches(dynamics_model, RngStream(17, 2))
            b = generate_branches(dynamics_model, RngStream(17, 2))
            for x, y in zip(a.branches, b.branches):
                assert x.amplitudes.tobytes() == y.amplitudes.tobytes()

    def test_chaotic_pointers_decorrelate(self):
        m = MeasurementModel(pointer_count=2, coefficients=UNIFORM2,
                             env_qubits=4, dynamics="chaotic-circuit")
        rng = RngStream(3)
        vals = [overlap_sq(*generate_branches(m, rng.substream(t)).branches)
                for t in range(100)]
        ratio = np.mean(vals) * 16
        assert 0.5 < ratio < 2.0  # near-typical at depth 4n

    def test_haar_branch_overlaps_follow_beta_law(self):
        # pooled pair overlaps at n=8 against Beta(1, 255), KS alpha=0.01
        n, trials = 8, 10_000
        m = exact_haar_model(n)
        rng = RngStream(41)
        vals = np.array([
            overlap_sq(*generate_branches(m, rng.substream(t)).branches)
            for t in range(trials)
        ])
        sample = EmpiricalSample(dim=2 ** n, values=np.sort(vals),
                                 seed_record=(41, 0))
        assert ks_test(sample, alpha=0.01).passed

    def test_generation_record(self):
        bs = generate_branches(exact_haar_model(3), RngStream(9, 4))
        rec = bs.generation_record
        assert rec["dynamics"] == "exact-haar"
        assert rec["seed"] == 9
        assert rec["stream_index"] == 4


class TestBranchSet:
    def test_rows_and_branches_give_the_same_set(self):
        rng = RngStream(6)
        states = (haar_state(8, rng), haar_state(8, rng))
        from_states = BranchSet(branches=states, generation_record={})
        from_rows = BranchSet(rows=from_states.rows, generation_record={})
        assert from_rows.count == 2 and from_rows.dim == 8
        for a, b in zip(from_rows.branches, states):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_callers_rows_stay_writable(self):
        rows = np.eye(4, dtype=np.complex128)[:2]
        bs = BranchSet(rows=rows, generation_record={})
        assert not bs.rows.flags.writeable
        rows[0, 1] = 0.0
        assert rows.flags.writeable

    def test_rows_validated_once_at_construction(self):
        with pytest.raises(ValueError, match="not normalized"):
            BranchSet(rows=np.ones((2, 4)), generation_record={})
        with pytest.raises(ValueError, match="matrix"):
            BranchSet(rows=np.ones(4) / 2, generation_record={})

    def test_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            BranchSet(generation_record={})
        with pytest.raises(ValueError, match="exactly one"):
            BranchSet(branches=(basis_state(2, 0),), rows=np.eye(2),
                      generation_record={})


class TestGramAndDensity:
    def test_identical_branches_all_ones(self):
        m = integrable_model(3, thetas=[0.4, 0.4])
        g = gram_matrix(generate_branches(m, RngStream(0)))
        assert np.allclose(g, np.ones((2, 2)), atol=1e-12)

    def test_orthogonal_branches_identity(self):
        bs = BranchSet(branches=(basis_state(4, 0), basis_state(4, 1)),
                       generation_record={})
        assert np.allclose(gram_matrix(bs), np.eye(2))

    def test_unit_diagonal(self):
        bs = generate_branches(exact_haar_model(5, k=3,
                                                coeffs=np.full(3, 1 / math.sqrt(3))),
                               RngStream(2))
        g = gram_matrix(bs)
        assert np.allclose(np.diag(g), 1.0, atol=1e-10)
        assert np.allclose(g, g.conj().T, atol=1e-12)

    def test_orthogonal_branches_give_diagonal_rho(self):
        coeffs = np.array([0.6, 0.8j])
        m = MeasurementModel(pointer_count=2, coefficients=coeffs,
                             env_qubits=2, dynamics="exact-haar")
        bs = BranchSet(branches=(basis_state(4, 0), basis_state(4, 1)),
                       generation_record={})
        rho = reduced_density(m, bs)
        assert np.allclose(rho.matrix, np.diag([0.36, 0.64]), atol=1e-12)

    def test_identical_branches_give_pure_state(self):
        coeffs = np.array([0.6, 0.8])
        m = MeasurementModel(pointer_count=2, coefficients=coeffs,
                             env_qubits=3, dynamics="integrable-product",
                             thetas=(0.3, 0.3))
        bs = generate_branches(m, RngStream(0))
        rho = reduced_density(m, bs)
        assert np.allclose(rho.matrix, np.outer(coeffs, coeffs.conj()),
                           atol=1e-12)

    def test_two_level_coherence_is_half_gram_entry(self):
        m = exact_haar_model(6)
        bs = generate_branches(m, RngStream(5))
        g = gram_matrix(bs)[1, 0]
        rho = reduced_density(m, bs)
        assert abs(abs(rho.matrix[0, 1]) - abs(g) / 2) < 1e-12

    def test_rho_invariants(self):
        for seed in range(5):
            m = exact_haar_model(5, k=3, coeffs=np.array([0.5, 0.5, 1 / math.sqrt(2)]))
            rho = reduced_density(m, generate_branches(m, RngStream(seed)))
            mat = rho.matrix
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-10
            assert abs(np.trace(mat).real - 1.0) < 1e-10
            assert np.min(np.linalg.eigvalsh(mat)) > -1e-9

    def test_partial_trace_oracle(self):
        # 50 fixed random instances, n <= 6, k <= 3, tolerance 1e-10
        master = RngStream(2026)
        gen = master.generator
        for case in range(50):
            n = int(gen.integers(1, 7))
            k = int(gen.integers(2, 4))
            raw = gen.standard_normal(k) + 1j * gen.standard_normal(k)
            coeffs = raw / np.linalg.norm(raw)
            m = MeasurementModel(pointer_count=k, coefficients=coeffs,
                                 env_qubits=n, dynamics="exact-haar")
            bs = generate_branches(m, master.substream(case))
            rho = reduced_density(m, bs)
            oracle = dense_partial_trace(coeffs, bs.rows)
            assert np.max(np.abs(rho.matrix - oracle)) < 1e-10

    def test_callers_matrix_stays_writable(self):
        mat = np.diag([0.25, 0.75]).astype(np.complex128)
        rho = ReducedDensityMatrix(mat)
        assert not rho.matrix.flags.writeable
        mat[0, 1] = 0.1
        assert mat.flags.writeable

    def test_density_validation(self):
        with pytest.raises(ValueError):
            ReducedDensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            ReducedDensityMatrix(np.eye(2))  # trace 2
        bad = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError):
            ReducedDensityMatrix(bad)  # negative eigenvalue

    # at d = 4, 2100 records span 5 Gram blocks of the pairwise kernel
    @pytest.mark.parametrize("k", [2, 3, 2100])
    def test_pair_overlaps_match_dense_gram_exactly(self, k):
        rng = RngStream(18)
        bs = BranchSet(branches=tuple(haar_state(4, rng) for _ in range(k)),
                       generation_record={})
        dense = np.abs(gram_matrix(bs)[np.triu_indices(k, k=1)]) ** 2
        kernel = kernel_pair_overlaps(bs.rows)
        assert np.array_equal(kernel, dense)
        assert typicality_ratio(bs, 4) == float(np.mean(kernel)) * 4

    def test_branch_count_mismatch(self):
        m = exact_haar_model(3, k=3, coeffs=np.full(3, 1 / math.sqrt(3)))
        bs = generate_branches(exact_haar_model(3), RngStream(0))
        with pytest.raises(ValueError):
            reduced_density(m, bs)


class TestCoherenceAndTypicality:
    def test_diagonal_rho_has_zero_coherence(self):
        rho = ReducedDensityMatrix(np.diag([0.25, 0.75]))
        assert max_coherence(rho) == 0.0

    def test_equal_superposition_full_overlap(self):
        m = integrable_model(4, thetas=[0.2, 0.2])
        rho = reduced_density(m, generate_branches(m, RngStream(0)))
        assert abs(max_coherence(rho) - 0.5) < 1e-12

    def test_quasi_orthogonal_branches_bound_coherence(self):
        # coherences of eps-certified records obey |rho_ij| <=
        # max|c_i c_j| sqrt(eps)
        d, eps, k = 256, 0.05, 3
        fam = greedy_construct(d, eps, k, 1000, RngStream(19))
        coeffs = np.array([0.5, 0.5, 1 / math.sqrt(2)])
        m = MeasurementModel(pointer_count=k, coefficients=coeffs,
                             env_qubits=8, dynamics="exact-haar")
        bs = BranchSet(branches=tuple(fam.vectors), generation_record={})
        rho = reduced_density(m, bs)
        c_max = max(abs(coeffs[i] * coeffs[j])
                    for i in range(k) for j in range(k) if i != j)
        assert max_coherence(rho) <= c_max * math.sqrt(eps) + 1e-12

    def test_orthogonal_branches_zero_ratio(self):
        bs = BranchSet(branches=(basis_state(8, 0), basis_state(8, 1)),
                       generation_record={})
        assert typicality_ratio(bs, 8) == 0.0

    def test_exact_haar_ratio_near_one(self):
        n, trials = 10, 200
        m = exact_haar_model(n)
        result = suppression_experiment(m, trials, RngStream(51))
        assert 0.8 <= result.typicality <= 1.25
        assert not result.atypical

    def test_integrable_ratio_flags_atypical(self):
        m = integrable_model(10, thetas=[0.0, 0.2])
        bs = generate_branches(m, RngStream(0))
        ratio = typicality_ratio(bs, 2 ** 10)
        assert abs(ratio - 1024 * COS20_01) < 1e-6
        assert ratio > ATYPICAL_RATIO


class TestSuppressionExperiment:
    def test_overlap_halves_per_qubit(self):
        # 2^-n scaling: per-qubit factor within 20 percent of 2
        means = {}
        for n in (4, 8, 10):
            result = suppression_experiment(exact_haar_model(n), 200,
                                            RngStream(61))
            means[n] = result.mean_overlap_sq
        for a, b in [(4, 8), (8, 10)]:
            factor = (means[a] / means[b]) ** (1.0 / (b - a))
            assert 1.6 <= factor <= 2.4

    def test_mean_coherence_matches_beta_amplitude(self):
        # E max_coherence = E|g|/2 for k=2 equal amplitudes, with E|g|
        # from a Monte Carlo oracle on the Beta(1, 2^n - 1) law of |g|^2
        n, trials = 10, 400
        d = 2 ** n
        u = np.random.default_rng(7).uniform(size=1_000_000)
        e_amp = np.mean(np.sqrt(1.0 - u ** (1.0 / (d - 1))))
        result = suppression_experiment(exact_haar_model(n), trials,
                                        RngStream(71))
        assert abs(result.mean_max_coherence - e_amp / 2) / (e_amp / 2) < 0.10

    def test_integrable_control_reports_failure(self):
        m = integrable_model(10, thetas=[0.0, 0.2])
        result = suppression_experiment(m, 30, RngStream(0))
        assert result.atypical
        assert result.mean_overlap_sq > 100 * result.overlap_sq_scale

    def test_predicted_scales(self):
        result = suppression_experiment(exact_haar_model(4), 30, RngStream(1))
        assert result.d_eff == 16
        assert result.overlap_sq_scale == 1 / 16
        assert result.amplitude_scale == 0.25

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            suppression_experiment(exact_haar_model(3), 10, RngStream(0))

    @pytest.mark.parametrize("model", [
        MeasurementModel(pointer_count=3, coefficients=np.array([0.6, 0.64j, 0.48]),
                         env_qubits=5, dynamics="chaotic-circuit", depth=4,
                         env_initial=non_basis_initial(5)),
        exact_haar_model(7, k=3, coeffs=GENERIC_PHASES3),
        integrable_model(6, thetas=[0.0, 0.3, -2.0],
                         coeffs=np.array([0.6, 0.64j, -0.48])),
    ], ids=["chaotic", "exact-haar", "integrable"])
    def test_block_size_changes_no_bit(self, model, monkeypatch):
        def run():
            return suppression_experiment(model, 37, RngStream(17))

        default = run()
        for entries in (1, 1 << 40):   # one trial per block; all in one
            monkeypatch.setattr(dc, "_BLOCK_ENTRIES", entries)
            blocked = run()
            assert np.array_equal(blocked.pair_overlaps, default.pair_overlaps)
            assert np.array_equal(blocked.max_coherences, default.max_coherences)

    @staticmethod
    def traced_peak(model, trials):
        suppression_experiment(model, trials, RngStream(3))   # warm caches
        tracemalloc.start()
        try:
            suppression_experiment(model, trials, RngStream(3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # blocks bound the records held at once; past the output arrays
        # (one pair-overlap row and one coherence per trial) the peak must
        # not depend on the trial count. It is compared on one worker,
        # where it is the same on every run: two workers' block peaks
        # coincide or not from run to run, and more often across the
        # blocks of 300 trials than across those of 30
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 1)
        m = exact_haar_model(12, k=4, coeffs=np.full(4, 0.5))
        outputs = (300 - 30) * 8 * (6 + 1)
        assert (self.traced_peak(m, 300)
                <= self.traced_peak(m, 30) + outputs + 64 * 1024)

    def test_memory_of_two_workers_is_one_live_block_each(self, monkeypatch):
        # each worker holds at most one live block, which by the rule
        # above dc._BLOCK_ENTRIES is 2.5 times its records plus a record
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        k = 4
        m = exact_haar_model(12, k=k, coeffs=np.full(k, 0.5))
        record = m.env_dim * 16
        live_block = 2.5 * dc._block_trials(m) * k * record + record
        outputs = 300 * 8 * (k * (k - 1) // 2 + 1)
        assert (self.traced_peak(m, 300)
                <= outputs + _workers._MAX_WORKERS * live_block)

    def test_memory_of_many_pointers_is_blocked(self):
        # at n=1, k=100 the records are small, but each trial's Gram, rho
        # and their moduli hold k x k entries; blocks sized by the records
        # alone put all 300 trials in one block (a 206 MB peak)
        k = 100
        m = exact_haar_model(1, k=k, coeffs=np.full(k, 0.1))
        tracemalloc.start()
        try:
            result = suppression_experiment(m, 300, RngStream(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = result.pair_overlaps.nbytes + result.max_coherences.nbytes
        assert peak <= outputs + 16 * 2 ** 20

    def test_output_over_the_sample_cap_is_refused(self, monkeypatch):
        # 30 trials of k=3 records hold 90 pair overlaps
        monkeypatch.setattr(dc.limits, "MAX_SAMPLE_COUNT", 89)
        m = exact_haar_model(3, k=3, coeffs=np.full(3, 1 / math.sqrt(3)))
        with pytest.raises(ResourceLimitError):
            suppression_experiment(m, 30, RngStream(0))
        monkeypatch.setattr(dc.limits, "MAX_SAMPLE_COUNT", 90)
        assert suppression_experiment(m, 30, RngStream(0)).pair_overlaps.size == 90

    def test_callers_arrays_stay_writable(self):
        overlaps, coherences = np.zeros((30, 1)), np.zeros(30)
        result = SuppressionResult(model=exact_haar_model(3), trials=30,
                                   pair_overlaps=overlaps,
                                   max_coherences=coherences, seed_record=(0, 0))
        assert not result.pair_overlaps.flags.writeable
        assert not result.max_coherences.flags.writeable
        overlaps[0, 0] = coherences[0] = 0.5
        assert overlaps.flags.writeable and coherences.flags.writeable

    def test_order_independence_of_trials(self):
        # per-trial substreams make results independent of scheduling
        m = exact_haar_model(4)
        rng = RngStream(81)
        forward = [generate_branches(m, rng.substream(t)).branches[0].amplitudes
                   for t in range(5)]
        rng2 = RngStream(81)
        backward = [generate_branches(m, rng2.substream(t)).branches[0].amplitudes
                    for t in reversed(range(5))]
        for f, b in zip(forward, reversed(backward)):
            assert f.tobytes() == b.tobytes()


class TestWorkers:
    """Trials of both experiments on up to two threads: the same bytes,
    and errors and the caller's error state reach the caller."""

    MODELS = {
        "chaotic-initial": MeasurementModel(
            pointer_count=3, coefficients=np.array([0.6, 0.64j, 0.48]),
            env_qubits=5, dynamics="chaotic-circuit", depth=4,
            env_initial=non_basis_initial(5)),
        "exact-haar-k3": exact_haar_model(7, k=3, coeffs=GENERIC_PHASES3),
        # 8 trials per block, so 37 trials end on a partial block of 5
        "chaotic-n10-partial": MeasurementModel(
            pointer_count=2, coefficients=UNIFORM2, env_qubits=10,
            dynamics="chaotic-circuit", depth=6),
    }
    # (d, eps, M) of success_rate_experiment: about 17% of trials fail,
    # none fails, every one fails
    RATES = {
        "rate-mixed": (100, 0.1, 111),
        "rate-none-fail": (2, 0.999999, 3),
        "rate-all-fail": (2, 0.01, 3),
    }

    @classmethod
    def outcome(cls, name, trials, seed):
        """The output of model or rate case ``name``, as comparable values."""
        if name in cls.RATES:
            report = success_rate_experiment(*cls.RATES[name], trials,
                                             RngStream(seed))
            return report.statistic, report.threshold, report.description
        result = suppression_experiment(cls.MODELS[name], trials,
                                         RngStream(seed))
        return result.pair_overlaps.tobytes(), result.max_coherences.tobytes()

    @classmethod
    def before_each_claim(cls, monkeypatch, name, hook):
        """Call ``hook()`` ahead of the kernel that runs each claim of
        ``name``: ``_records`` in the decoherence engine, ``_haar_rows``
        in the rate experiment, where it runs once per trial, so once per
        claim when ``packing._RATE_BLOCK`` is 1."""
        module, attr = ((packing, "_haar_rows") if name in cls.RATES
                        else (dc, "_records"))
        original = getattr(module, attr)

        def kernel(*args, **kwargs):
            hook()
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, kernel)

    @classmethod
    def record_threads(cls, monkeypatch, name="exact-haar-k3"):
        """Collect the threads that run the claims of ``name``; the first
        claim lingers so that a second worker takes one meanwhile."""
        threads = []

        def hook():
            if not threads:
                time.sleep(0.05)
            threads.append(threading.get_ident())

        cls.before_each_claim(monkeypatch, name, hook)
        return threads

    # block sizes that split 37 trials into several blocks, the last
    # partial: _BLOCK_ENTRIES of a decohere run, _RATE_BLOCK trials of the
    # rate experiment
    @pytest.mark.parametrize("name, entries", [
        ("chaotic-initial", 1 << 11),   # 4 trials per block
        ("exact-haar-k3", 1 << 11),     # 5 trials per block
        ("chaotic-n10-partial", dc._BLOCK_ENTRIES),
        pytest.param("rate-mixed", 8, id="rate-mixed"),
        pytest.param("rate-none-fail", 8, id="rate-none-fail"),
        pytest.param("rate-all-fail", 8, id="rate-all-fail"),
    ])
    def test_worker_count_changes_no_byte(self, name, entries, monkeypatch):
        if name in self.RATES:
            monkeypatch.setattr(packing, "_RATE_BLOCK", entries)
        else:
            monkeypatch.setattr(dc, "_BLOCK_ENTRIES", entries)
        results, threads = {}, self.record_threads(monkeypatch, name)
        for cpus in (1, 2):
            monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
            threads.clear()
            results[cpus] = self.outcome(name, 37, 23)
            assert len(set(threads)) == cpus
        assert results[1] == results[2]

    def test_the_rate_cases_have_the_outcomes_they_name(self):
        assert 0.0 < self.outcome("rate-mixed", 37, 23)[0] < 1.0
        assert self.outcome("rate-none-fail", 37, 23)[0] == 0.0
        assert self.outcome("rate-all-fail", 37, 23)[0] == 1.0

    def many_workers_change_no_output(self, name, monkeypatch):
        # more workers than cores, switching threads every microsecond: a
        # trial claimed twice or never, or a failure count lost, would
        # change the output
        monkeypatch.setattr(dc, "_BLOCK_ENTRIES", 1)   # one trial per block
        monkeypatch.setattr(packing, "_RATE_BLOCK", 1)  # one trial per claim
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 1)
        serial = self.outcome(name, 200, 29)
        monkeypatch.setattr(_workers, "_MAX_WORKERS", 6)
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self.outcome(name, 200, 29)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_many_workers_at_a_short_switch_interval(self, monkeypatch):
        self.many_workers_change_no_output("exact-haar-k3", monkeypatch)

    @pytest.mark.parametrize("name", ["rate-mixed", "rate-none-fail",
                                      "rate-all-fail"])
    def test_many_rate_workers_at_a_short_switch_interval(self, name,
                                                          monkeypatch):
        self.many_workers_change_no_output(name, monkeypatch)

    def test_one_block_runs_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        monkeypatch.setattr(dc, "_BLOCK_ENTRIES", 1 << 40)
        threads = self.record_threads(monkeypatch)
        suppression_experiment(exact_haar_model(4), 37, RngStream(23))
        assert threads == [threading.get_ident()]

    @staticmethod
    def run_40_trials(rate, n=4):
        """40 trials, one per claim, of the rate experiment or of an
        exact-haar decohere run on n qubits."""
        if rate:
            success_rate_experiment(16, 0.5, 8, 40, RngStream(2))
        else:
            suppression_experiment(exact_haar_model(n), 40, RngStream(2))

    @pytest.mark.parametrize("cpus, rate", [(1, False), (2, False),
                                            (1, True), (2, True)],
                             ids=["1", "2", "rate-1", "rate-2"])
    def test_an_error_in_a_block_reaches_the_caller(self, cpus, rate,
                                                    monkeypatch):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(dc, "_BLOCK_ENTRIES", 1)   # one trial per block
        monkeypatch.setattr(packing, "_RATE_BLOCK", 1)  # one trial per claim
        calls = []

        def hook():
            calls.append(None)
            if len(calls) == 3:
                raise ValueError("block failed")

        self.before_each_claim(monkeypatch,
                               "rate-mixed" if rate else "exact-haar-k3", hook)
        before = threading.active_count()
        with pytest.raises(ValueError, match="block failed"):
            self.run_40_trials(rate)
        assert threading.active_count() == before
        # every worker stops after the block it is running
        assert len(calls) <= 3 + (cpus - 1) * 2

    @pytest.mark.parametrize("cpus, rate", [(1, False), (2, False),
                                            (1, True), (2, True)],
                             ids=["1", "2", "rate-1", "rate-2"])
    def test_the_callers_error_state_holds_in_every_worker(self, cpus, rate,
                                                           monkeypatch):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(dc, "_BLOCK_ENTRIES", 1)   # one trial per block
        monkeypatch.setattr(packing, "_RATE_BLOCK", 1)  # one trial per claim
        main = threading.main_thread()

        def hook():
            # with two workers only the started thread divides, while the
            # calling thread lingers in its first block
            if cpus == 1 or threading.current_thread() is not main:
                np.divide(1.0, np.zeros(1))
            else:
                time.sleep(0.05)

        self.before_each_claim(monkeypatch,
                               "rate-mixed" if rate else "exact-haar-k3", hook)
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                self.run_40_trials(rate, n=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["chaotic-initial", "exact-haar-k3"])
    def test_a_non_finite_record_is_a_value_error(self, name, bad,
                                                  monkeypatch):
        original = dc._records

        def records(*args, **kwargs):
            out = original(*args, **kwargs)
            out[-1, 1, 0] = bad
            return out

        monkeypatch.setattr(dc, "_records", records)
        with pytest.raises(ValueError):
            suppression_experiment(self.MODELS[name], 37, RngStream(2))

    @pytest.mark.parametrize("defect", [np.nan, np.inf, 1e-6])
    def test_block_density_check(self, defect):
        # one bad matrix fails the stack, as a ValueError, not a warning
        rho = np.stack([np.diag([0.5, 0.5]).astype(complex)] * 4)
        dc._check_density(rho)
        rho[2, 0, 1] = defect
        with pytest.raises(ValueError, match="Hermitian"):
            dc._check_density(rho)
        rho[2, 0, 1] = 0.0
        rho[3, 1, 1] = 0.5 + 1e-6
        with pytest.raises(ValueError, match="trace"):
            dc._check_density(rho)


def test_integrable_overlap_exact_edges():
    assert integrable_overlap_exact(5, 0.0) == 1.0
    assert abs(integrable_overlap_exact(1, math.pi)) < 1e-30
    assert abs(integrable_overlap_exact(10, 0.2) - COS20_01) < 1e-15
    with pytest.raises(ValueError):
        integrable_overlap_exact(0, 0.1)
