"""Complex state vectors, Haar sampling, and qubit-local unitary action.

Conventions fixed here and used throughout the library:

* amplitudes are stored as contiguous complex128 arrays;
* the inner product ``inner(psi, phi)`` is conjugate-linear in ``phi``,
  i.e. it returns <phi|psi>;
* for ``2**n``-dimensional states, qubit 0 is the most significant bit of
  the amplitude index;
* tensor products are row-major with the first factor on the slow index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits
from .rng import RngStream
from .validate import integer

__all__ = [
    "StateVector",
    "Unitary",
    "basis_state",
    "haar_state",
    "inner",
    "overlap_sq",
    "chordal_distance",
    "haar_unitary",
    "apply",
    "tensor",
    "apply_local",
    "complex_gaussians",
]

# Squared-norm gate at construction. Freshly normalized vectors sit at
# ~1e-15; the looser gate admits accumulation after unitary application.
NORM_ATOL = 1e-9
# U, U;dagger U = I entrywise tolerance.
UNITARY_ATOL = 1e-9
# overlap_sq is clamped into [0, 1] only when the excess is below this.
CLAMP_ATOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Unit vector in a d-dimensional complex Hilbert space.

    Construction validates the dimension cap and that the squared norm is
    1 within ``NORM_ATOL``; the amplitude buffer is frozen afterwards.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-D sequence")
        limits.check_state_dim(amps.size)
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise ValueError(
                f"state not normalized: squared norm {norm_sq!r} "
                f"deviates from 1 by more than {NORM_ATOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def num_qubits(self) -> int:
        """Qubit count n with dim = 2**n; error for non-power-of-two dims."""
        n = self.dim.bit_length() - 1
        if 2 ** n != self.dim:
            raise ValueError(f"dimension {self.dim} is not a power of two")
        return n


@dataclass(frozen=True)
class Unitary:
    """d x d unitary matrix, validated entrywise to ``UNITARY_ATOL``."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("entries must be a square matrix")
        limits.check_unitary_dim(mat.shape[0])
        # an inf entry turns the product NaN, which must reach the
        # ValueError below rather than a RuntimeWarning
        with np.errstate(invalid="ignore"):
            gram = mat.conj().T @ mat
        gram.flat[::mat.shape[0] + 1] -= 1.0
        defect = np.abs(gram).max()
        if not defect <= UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary: max |U+U - I| = {defect:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def complex_gaussians(rng: RngStream, shape) -> np.ndarray:
    """Standard complex Gaussians: Re and Im each N(0, 1/2), so E|g|^2 = 1.

    Draw layout is row-major over ``shape + (2,)`` real normals, which
    makes chunked draws bit-identical to a single large draw.
    """
    z = rng.generator.standard_normal(tuple(np.atleast_1d(shape)) + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def basis_state(d: int, index: int = 0) -> StateVector:
    """Computational basis vector e_index in dimension d."""
    d = integer("d", d, 1)
    index = integer("basis index", index, 0, d - 1)
    amps = np.zeros(d, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def haar_state(d: int, rng: RngStream) -> StateVector:
    """Haar-random pure state in dimension d.

    Draws d independent standard complex Gaussians and normalizes; the
    resulting distribution is the unique unitarily invariant (Haar)
    measure on the unit sphere.

    Parameters
    ----------
    d : int
        Hilbert-space dimension, >= 1.
    rng : RngStream
        Source of randomness; the call consumes 2d real normals.
    """
    d = integer("d", d, 1)
    limits.check_state_dim(d)
    g = complex_gaussians(rng, d)
    return StateVector(g / np.linalg.norm(g))


def inner(psi: StateVector, phi: StateVector) -> complex:
    """Hermitian inner product <phi|psi>, conjugate-linear in ``phi``."""
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return complex(np.vdot(phi.amplitudes, psi.amplitudes))


def overlap_sq(psi: StateVector, phi: StateVector) -> float:
    """Squared overlap |<phi|psi>|^2 in [0, 1].

    Round-off excess above 1 is clamped only when below ``CLAMP_ATOL``;
    larger excess indicates out-of-contract inputs and is returned as-is.
    """
    v = abs(inner(psi, phi)) ** 2
    if 1.0 < v <= 1.0 + CLAMP_ATOL:
        return 1.0
    return v


def chordal_distance(psi: StateVector, phi: StateVector) -> float:
    """Euclidean (chordal) distance ||psi - phi||, in [0, 2]."""
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return float(np.linalg.norm(psi.amplitudes - phi.amplitudes))


def haar_unitary(d: int, rng: RngStream) -> Unitary:
    """Haar-random unitary in U(d).

    Ginibre matrix (i.i.d. complex Gaussians) followed by QR, with the
    columns rephased by the phases of diag(R). The rephasing makes the
    QR factorization unique with a positive-real R diagonal, which is
    what turns "orthonormal" into exactly Haar-distributed.

    Parameters
    ----------
    d : int
        Matrix dimension, >= 1.
    rng : RngStream
        Source of randomness; the call consumes 2*d*d real normals.
    """
    d = integer("d", d, 1)
    limits.check_unitary_dim(d)
    g = complex_gaussians(rng, (d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return Unitary(q)


def apply(u: Unitary, psi: StateVector) -> StateVector:
    """Matrix-vector action U|psi>; preserves the norm."""
    if u.dim != psi.dim:
        raise ValueError(f"dimension mismatch: U dim {u.dim} vs state dim {psi.dim}")
    return StateVector(u.entries @ psi.amplitudes)


def tensor(psi: StateVector, phi: StateVector) -> StateVector:
    """Tensor product psi (x) phi, first factor on the slow index."""
    combined = psi.dim * phi.dim
    limits.check_state_dim(combined)
    return StateVector(np.kron(psi.amplitudes, phi.amplitudes))


def apply_local(u_small: Unitary, targets, psi: StateVector) -> StateVector:
    """Apply a small unitary to selected qubits of an n-qubit state.

    Equivalent to ``apply(I (x) ... (x) u_small (x) ... (x) I, psi)``
    under the qubit-0-is-most-significant-bit ordering, without forming
    the dense ``2**n x 2**n`` operator. The order of ``targets`` maps the
    qubits of ``u_small`` onto the qubits of ``psi``.

    Parameters
    ----------
    u_small : Unitary
        Gate of dimension ``2**len(targets)``.
    targets : sequence of int
        Distinct qubit indices in ``range(n)``.
    psi : StateVector
        State of dimension ``2**n``.
    """
    n = psi.num_qubits
    targets = [integer("target qubit", t, 0, n - 1) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    k = len(targets)
    if u_small.dim != 2 ** k:
        raise ValueError(
            f"gate dim {u_small.dim} does not match {k} target qubit(s)"
        )
    arr = psi.amplitudes.reshape((2,) * n)
    moved = np.moveaxis(arr, targets, range(k))
    block = moved.reshape(2 ** k, -1)
    out = (u_small.entries @ block).reshape((2,) * n)
    out = np.moveaxis(out, range(k), targets)
    return StateVector(out.reshape(-1))
