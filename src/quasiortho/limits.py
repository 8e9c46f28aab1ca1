"""Resource caps that guard against accidental dense-array blowups.

The attributes are deliberately plain module globals: set e.g.
``quasiortho.limits.MAX_STATE_DIM = 2 ** 20`` to raise a cap on a large
machine. The check helpers read the current values at call time. Each
takes the name of what it counts, as ``validate.integer`` takes
``name``, and its error names that quantity and the cap to raise.
"""

MAX_STATE_DIM = 2 ** 14       # dense state vectors
MAX_UNITARY_DIM = 2 ** 11     # dense unitary matrices
MAX_PAIRWISE_OPS = 10 ** 10   # M^2 * d scalar ops in all-pairs verification
MAX_SAMPLE_COUNT = 10 ** 8    # Monte Carlo draws per call


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured resource caps."""


def _refuse(what: str, cap: str) -> ResourceLimitError:
    """The error for ``what`` (a quantity and its value) past ``cap``."""
    return ResourceLimitError(
        f"{what} exceeds cap {globals()[cap]} "
        f"(raise quasiortho.limits.{cap} to override)")


def check_state_dim(name: str, dim: int) -> None:
    if dim > MAX_STATE_DIM:
        raise _refuse(f"{name} = {dim}", "MAX_STATE_DIM")


def check_state_qubits(name: str, qubits: int) -> None:
    """``check_state_dim`` of ``2 ** qubits`` without forming ``2 ** qubits``.

    With b the bit length of the cap, 2**qubits exceeds it exactly when
    qubits >= b, so a huge qubit count costs no huge integer.
    """
    if qubits >= MAX_STATE_DIM.bit_length():
        raise _refuse(f"2**{name} = 2**{qubits}", "MAX_STATE_DIM")


def check_unitary_dim(name: str, dim: int) -> None:
    if dim > MAX_UNITARY_DIM:
        raise _refuse(f"{name} = {dim}", "MAX_UNITARY_DIM")


def check_pairwise_ops(name: str, n_vectors: int, dim: int) -> None:
    ops = n_vectors * n_vectors * dim
    if ops > MAX_PAIRWISE_OPS:
        raise _refuse(f"all-pairs verification of {name} = {n_vectors} "
                      f"vectors at d = {dim} ({ops} scalar ops)",
                      "MAX_PAIRWISE_OPS")


def check_sample_count(name: str, count: int) -> None:
    if count > MAX_SAMPLE_COUNT:
        raise _refuse(f"{name} = {count}", "MAX_SAMPLE_COUNT")
