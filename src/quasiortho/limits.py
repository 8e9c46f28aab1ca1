"""Resource caps that guard against accidental dense-array blowups.

The attributes are deliberately plain module globals: set e.g.
``quasiortho.limits.MAX_STATE_DIM = 2 ** 20`` to raise a cap on a large
machine. The check helpers read the current values at call time.
"""

MAX_STATE_DIM = 2 ** 14       # dense state vectors
MAX_UNITARY_DIM = 2 ** 11     # dense unitary matrices
MAX_PAIRWISE_OPS = 10 ** 10   # M^2 * d scalar ops in all-pairs verification
MAX_SAMPLE_COUNT = 10 ** 8    # Monte Carlo draws per call


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured resource caps."""


def check_state_dim(dim: int) -> None:
    if dim > MAX_STATE_DIM:
        raise ResourceLimitError(
            f"state dimension {dim} exceeds cap {MAX_STATE_DIM} "
            "(raise quasiortho.limits.MAX_STATE_DIM to override)"
        )


def check_state_qubits(qubits: int) -> None:
    """``check_state_dim(2 ** qubits)`` without forming ``2 ** qubits``.

    With b the bit length of the cap, 2**qubits exceeds it exactly when
    qubits >= b, so a huge qubit count costs no huge integer.
    """
    if qubits >= MAX_STATE_DIM.bit_length():
        raise ResourceLimitError(
            f"state dimension 2**{qubits} exceeds cap {MAX_STATE_DIM} "
            "(raise quasiortho.limits.MAX_STATE_DIM to override)"
        )


def check_unitary_dim(dim: int) -> None:
    if dim > MAX_UNITARY_DIM:
        raise ResourceLimitError(
            f"unitary dimension {dim} exceeds cap {MAX_UNITARY_DIM} "
            "(raise quasiortho.limits.MAX_UNITARY_DIM to override)"
        )


def check_pairwise_ops(n_vectors: int, dim: int) -> None:
    if n_vectors * n_vectors * dim > MAX_PAIRWISE_OPS:
        raise ResourceLimitError(
            f"all-pairs verification of {n_vectors} vectors at dim {dim} "
            f"exceeds the {MAX_PAIRWISE_OPS:.0e} scalar-op cap"
        )


def check_sample_count(count: int) -> None:
    if count > MAX_SAMPLE_COUNT:
        raise ResourceLimitError(
            f"sample count {count} exceeds cap {MAX_SAMPLE_COUNT}"
        )
