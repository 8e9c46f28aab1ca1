"""Complex state vectors, Haar sampling, and qubit-local unitary action.

Conventions fixed here and used throughout the library:

* amplitudes are stored as contiguous complex128 arrays;
* for ``2**n``-dimensional states, qubit 0 is the most significant bit of
  the amplitude index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import limits
from .rng import RngStream
from .validate import frozen_array, integer

__all__ = [
    "StateVector",
    "Unitary",
    "basis_state",
    "haar_state",
    "overlap_sq",
    "haar_unitary",
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
# Complex Gram entries per block of _gram_blocks (16 MB), so
# all-pairs work holds O(block * M) memory, never the M x M Gram matrix.
_GRAM_BLOCK_ENTRIES = 1 << 20
# Blocks start on multiples of this many rows, so BLAS tiles every block
# on the same grid as the full product and each entry is bit-identical
# to the dense Gram matrix. OpenBLAS 0.3.31 (x86-64, AVX-512) needed a
# multiple of 4; other starts changed the last bit of edge-tile entries.
_BLOCK_ROW_ALIGN = 16
# Complex entries per slice of a unitarity check (256 KB; 1024 4x4
# gates), so its temporaries stay bounded however large the stack.
_CHECK_SLICE_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit vector in a d-dimensional complex Hilbert space.

    Construction validates the dimension cap and that the squared norm is
    1 within ``NORM_ATOL``. ``amplitudes`` is stored by ``frozen_array``.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           _unit_rows("amplitudes", self.amplitudes, 1))

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


@dataclass(frozen=True, eq=False)
class Unitary:
    """d x d unitary matrix, validated entrywise to ``UNITARY_ATOL``.

    ``entries`` is stored by ``frozen_array``.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat = frozen_array("entries", self.entries, np.complex128, 2)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("entries must be a square matrix")
        limits.check_unitary_dim("dimension of entries", mat.shape[0])
        _check_unitary(mat)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _unit_rows(name: str, value, ndim: int) -> np.ndarray:
    """``value`` stored by ``frozen_array`` as complex128 with ``ndim``
    axes, each of its rows a unit vector of at most
    ``limits.MAX_STATE_DIM`` entries: the rule of every holder of
    states."""
    rows = frozen_array(name, value, np.complex128, ndim)
    limits.check_state_dim(f"dimension of {name}", rows.shape[-1])
    _check_unit_rows(rows)
    return rows


def _check_unit_rows(rows: np.ndarray) -> None:
    """Raise ValueError unless every row of a ``(..., d)`` stack has
    squared norm 1 within ``NORM_ATOL``; NaN, inf and amplitudes whose
    square overflows (near 1e200) raise it too, not a RuntimeWarning."""
    with np.errstate(over="ignore"):
        sq = np.abs(rows)
        np.square(sq, out=sq)
        defect = abs(sq.sum(-1) - 1.0).max()
    if not defect <= NORM_ATOL:
        raise ValueError(f"state not normalized: |norm^2 - 1| = {defect!r}")


def _check_unitary(mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a ``(..., d, d)`` stack is
    unitary: max |U+U - I| <= ``UNITARY_ATOL`` over all entries.

    The stack is checked in slices of about ``_CHECK_SLICE_ENTRIES``
    entries, so the temporaries stay bounded whatever its size; the
    error reports the defect of the first failing slice."""
    d = mats.shape[-1]
    flat = mats.reshape((-1, d, d))
    step = max(1, _CHECK_SLICE_ENTRIES // (d * d))
    for lo in range(0, len(flat), step):
        part = flat[lo:lo + step]
        # an inf entry turns the product NaN, which must reach the
        # ValueError below rather than a RuntimeWarning
        with np.errstate(invalid="ignore", over="ignore"):
            gram = np.swapaxes(part.conj(), -1, -2) @ part
            # U+U - I in place: the diagonal of each product is every
            # (d+1)-th entry of its row-major layout
            gram.reshape(len(part), d * d)[:, ::d + 1] -= 1.0
            defect = np.abs(gram).max()
        if not defect <= UNITARY_ATOL:
            raise ValueError(
                f"matrix is not unitary: max |U+U - I| = {defect:.3e}")


def complex_gaussians(rng: RngStream, shape) -> np.ndarray:
    """Standard complex Gaussians: Re and Im each N(0, 1/2), so E|g|^2 = 1.

    Draw layout is row-major over ``shape + (2,)`` real normals, which
    makes chunked draws bit-identical to a single large draw. The result
    is a new C-contiguous complex128 array of ``shape``.

    The scale is a real multiply of the normals by ``1 / sqrt(2)``, which
    has the bits of the complex division ``g / sqrt(2)``: numpy divides
    by ``s + 0j`` as ``(re + im * 0) * (1 / s)``, and ``re + im * 0`` is
    ``re`` for every finite entry except -0.0 (the division may give
    +0.0). The two differ only there and for non-finite entries, which a
    normal draw never yields.
    """
    dims = tuple(integer("shape entry", n, 0) for n in np.atleast_1d(shape))
    g = np.empty(dims, dtype=np.complex128)
    # the (re, im) pairs of complex128 are the row-major layout of the
    # normals, so the draw fills the flat float view directly; numpy's
    # complex division runs Smith's algorithm, about 7x slower than this
    # multiply
    parts = g.reshape(-1).view(np.float64)
    rng.generator.standard_normal(out=parts)
    parts *= 1.0 / np.sqrt(2.0)
    return g


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
    limits.check_state_dim("d", d)
    return StateVector(_haar_rows(d, 1, rng)[0])


def _haar_rows(d: int, m: int, rng: RngStream) -> np.ndarray:
    """``(m, d)`` Haar-random unit rows from one Gaussian draw, not
    validated; row i is bit-identical to the i-th of m sequential
    ``haar_state(d, rng)`` calls on the same stream.

    The norms are the arithmetic of ``np.linalg.norm(g, axis=1,
    keepdims=True)``, with its complex product formed in place in one
    temporary (the 1-D ``norm`` of one row takes a dot-product path with
    other bits). Each row is scaled in place by a real multiply of its
    float view by ``1 / norm``, which has the bits of ``g / norm`` for
    the reason given in :func:`complex_gaussians` (they differ only at
    -0.0 and non-finite entries)."""
    g = complex_gaussians(rng, (m, d))
    # conj(g) * g would allocate a second temporary
    sq = np.conjugate(g)
    np.multiply(sq, g, out=sq)
    norms = np.sqrt(np.add.reduce(sq.real, axis=-1, keepdims=True))
    parts = g.view(np.float64)
    parts *= 1.0 / norms
    return g


def overlap_sq(psi: StateVector, phi: StateVector) -> float:
    """Squared overlap |<phi|psi>|^2 in [0, 1].

    Round-off excess above 1 is clamped only when below ``CLAMP_ATOL``;
    larger excess indicates out-of-contract inputs and is returned as-is.
    """
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    v = abs(complex(np.vdot(phi.amplitudes, psi.amplitudes))) ** 2
    if 1.0 < v <= 1.0 + CLAMP_ATOL:
        return 1.0
    return v


def _gram_blocks(rows: np.ndarray):
    """Yield ``(i0, |rows[i0:i1] @ rows[i0:].conj().T|)`` for blocks of
    rows [i0, i1) covering every row that has a partner.

    Block (r, c) is the modulus of pair (i0 + r, i0 + c), bit-identical to
    that entry of the dense Gram matrix. The rows are conjugated once per
    call, and every block is written into one float buffer allocated per
    call, so a caller may overwrite a block but must copy what it keeps
    past the next one.
    """
    m = rows.shape[0]
    step = max(1, _GRAM_BLOCK_ENTRIES // m // _BLOCK_ROW_ALIGN) * _BLOCK_ROW_ALIGN
    conj = rows.conj()
    moduli = np.empty(min(step, m) * m)
    # the last row has no partner j > i
    for i0 in range(0, m - 1, step):
        i1 = min(i0 + step, m)
        gram = rows[i0:i1] @ conj[i0:].T
        block = np.abs(gram, out=moduli[:gram.size].reshape(gram.shape))
        del gram  # only one complex block is alive at a time
        yield i0, block


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
        Source of randomness; the call consumes 2*d*d real normals. A
        batch of G gates drawn at once (as ``generate_branches`` draws a
        chaotic-circuit branch) is bit-identical to G sequential calls.
    """
    d = integer("d", d, 1)
    limits.check_unitary_dim("d", d)
    return Unitary(_haar_unitaries(d, 1, rng)[0])


def _haar_unitaries(d: int, count: int, rng: RngStream) -> np.ndarray:
    """``(count, d, d)`` stack of Haar-random unitaries; callers check it.

    One draw of ``count * d * d`` complex Gaussians and one stacked QR;
    matrix ``i`` is bit-identical to the ``i``-th of ``count`` sequential
    ``haar_unitary(d, rng)`` calls on the same stream.
    """
    q, r = np.linalg.qr(complex_gaussians(rng, (count, d, d)))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def apply_local(u_small: Unitary, targets, psi: StateVector) -> StateVector:
    """Apply a small unitary to selected qubits of an n-qubit state.

    Equivalent to the product of ``I (x) ... (x) u_small (x) ... (x) I``
    with ``psi`` under the qubit-0-is-most-significant-bit ordering,
    without forming the dense ``2**n x 2**n`` operator. The order of
    ``targets`` maps the qubits of ``u_small`` onto the qubits of ``psi``.

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
    return StateVector(
        _apply_gate(u_small.entries[None], targets, psi.amplitudes[None])[0])


@functools.lru_cache(maxsize=256)
def _gate_layout(n: int, targets: tuple) -> tuple:
    """Axis order that brings ``targets`` to the front of a
    ``(batch, 2, ..., 2)`` stack of n-qubit states, behind its batch
    axis, and its inverse. Axes that stay adjacent are not merged by
    hand: numpy merges them itself when it copies the transposed view.
    """
    perm = (0,) + tuple(t + 1 for t in targets) + tuple(
        a + 1 for a in range(n) if a not in targets)
    return perm, tuple(perm.index(a) for a in range(n + 1))


def _apply_gate(entries: np.ndarray, targets, amps: np.ndarray) -> np.ndarray:
    """Gate kernel on raw arrays: gate ``entries[b]`` on qubits ``targets``
    of state ``amps[b]``, for a ``(batch, 2**k, 2**k)`` stack of gates and
    a ``(batch, 2**n)`` stack of states.

    No validation; ``apply_local`` states the contract. The target qubits
    are moved to the front (numpy merges adjacent axes in the copy), each
    gate is one matrix product on its state's ``(2**k, 2**(n-k))`` block,
    and the qubits are moved back. The block is the one an n-axis
    ``np.moveaxis`` builds, and the stacked product runs one BLAS product
    per state on it, so each state's result is bit-identical to a product
    on that state alone. A stacked product over a ``(2**q, 2**k, m)``
    view would skip both copies, but it changed the last bit whenever m
    was small (OpenBLAS picks other kernels for narrow operands).
    """
    batch, dim = amps.shape
    qubits = (batch,) + (2,) * (dim.bit_length() - 1)
    perm, inverse = _gate_layout(len(qubits) - 1, tuple(targets))
    block = amps.reshape(qubits).transpose(perm).reshape(
        batch, entries.shape[-1], -1)
    out = entries @ block
    return out.reshape(qubits).transpose(inverse).reshape(batch, dim)
