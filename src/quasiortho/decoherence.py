"""Toy measurement model: branch records, coherences, pair-typicality.

A system with k pointer outcomes and amplitudes c_i is coupled to an
n-qubit environment prepared in |E_0>. Each outcome drives the
environment with its own conditional unitary, leaving records
|E_i> = U_i |E_0>; the reduced system matrix is then

    rho_ij = c_i conj(c_j) <E_j|E_i>,

so off-diagonal coherences carry exactly the record overlaps. Three
dynamics are provided:

* ``exact-haar`` - each record is an independent Haar state (the
  asymptotic limit of fully scrambling conditional dynamics; applying
  an independent Haar unitary to any fixed |E_0> gives the same law).
* ``chaotic-circuit`` - brickwork of independent two-qubit Haar gates,
  one gate stream per pointer value, with a configurable depth standing
  in for time.
* ``integrable-product`` - per-qubit rotation by a pointer-dependent
  angle about the axis orthogonal to the initial-state axis; records
  from |0...0> then overlap exactly as cos^(2n)(dtheta/2). This is the
  negative control: a non-scrambling environment whose records stay far
  from typical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .rng import RngStream
from .states import (StateVector, Unitary, _apply_gate, _check_unitary,
                     _haar_unitaries, basis_state, haar_state,
                     pairwise_overlap_sq)
from .validate import integer, real

__all__ = [
    "DYNAMICS",
    "ATYPICAL_RATIO",
    "MeasurementModel",
    "BranchSet",
    "ReducedDensityMatrix",
    "generate_branches",
    "gram_matrix",
    "reduced_density",
    "max_coherence",
    "typicality_ratio",
    "suppression_experiment",
    "SuppressionResult",
    "integrable_overlap_exact",
]

DYNAMICS = ("exact-haar", "chaotic-circuit", "integrable-product")

COEFF_NORM_ATOL = 1e-10
RHO_ATOL = 1e-10
RHO_EIG_ATOL = 1e-9
# Mean pairwise overlap above this multiple of 1/d_eff is flagged as a
# pair-typicality violation; Haar records concentrate well inside it.
ATYPICAL_RATIO = 2.0


@dataclass(frozen=True)
class MeasurementModel:
    """Pointer amplitudes plus the conditional environment dynamics.

    The system side never needs its own Hilbert space: the reduced
    matrix depends only on the coefficients and the record Gram matrix.
    ``coefficients`` becomes a read-only view of a contiguous complex128
    input, which is not copied: the caller's array stays writable, and
    writing to it later changes the model unchecked.
    """

    pointer_count: int
    coefficients: np.ndarray
    env_qubits: int
    dynamics: str
    depth: int | None = None
    thetas: tuple[float, ...] | None = None
    env_initial: StateVector | None = None

    def __post_init__(self):
        k = integer("pointer_count", self.pointer_count, 2)
        object.__setattr__(self, "pointer_count", k)
        coeffs = np.ascontiguousarray(self.coefficients,
                                      dtype=np.complex128).view()
        if coeffs.shape != (k,):
            raise ValueError(f"need {k} coefficients, got shape {coeffs.shape}")
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm_sq - 1.0) <= COEFF_NORM_ATOL:
            raise ValueError(
                f"coefficients not normalized: sum |c|^2 = {norm_sq!r}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

        object.__setattr__(self, "env_qubits",
                           integer("env_qubits", self.env_qubits, 1))
        limits.check_state_dim(self.env_dim)

        if self.dynamics not in DYNAMICS:
            raise ValueError(
                f"unknown dynamics {self.dynamics!r}; expected one of {DYNAMICS}"
            )
        if self.dynamics == "chaotic-circuit":
            if self.env_qubits < 2:
                raise ValueError("chaotic-circuit needs env_qubits >= 2")
            depth = 4 * self.env_qubits if self.depth is None else \
                integer("circuit depth", self.depth, 1)
            object.__setattr__(self, "depth", depth)
        elif self.depth is not None:
            raise ValueError("depth only applies to chaotic-circuit dynamics")

        if self.dynamics == "integrable-product":
            if self.thetas is None:
                raise ValueError("integrable-product dynamics needs thetas")
            thetas = tuple(real("theta", t) for t in self.thetas)
            if len(thetas) != k:
                raise ValueError(
                    f"need one angle per pointer value ({k}), got {len(thetas)}"
                )
            object.__setattr__(self, "thetas", thetas)
        elif self.thetas is not None:
            raise ValueError("thetas only apply to integrable-product dynamics")

        if self.env_initial is not None and self.env_initial.dim != self.env_dim:
            raise ValueError(
                f"env_initial dim {self.env_initial.dim} != 2**{self.env_qubits}"
            )

    @property
    def env_dim(self) -> int:
        return 2 ** self.env_qubits

    def initial_state(self) -> StateVector:
        return self.env_initial if self.env_initial is not None \
            else basis_state(self.env_dim, 0)

    @classmethod
    def from_config(cls, source) -> "MeasurementModel":
        """Build a model from a JSON config file path or a plain dict.

        Coefficients may be given as real numbers or [re, im] pairs;
        ``env_initial`` (optional) uses the same convention.
        """
        if isinstance(source, dict):
            cfg = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        coeffs = np.array([_as_complex(c) for c in cfg["coefficients"]])
        env_initial = None
        if cfg.get("env_initial") is not None:
            amps = np.array([_as_complex(a) for a in cfg["env_initial"]])
            env_initial = StateVector(amps)
        thetas = cfg.get("thetas")
        return cls(
            pointer_count=cfg["pointer_count"],
            coefficients=coeffs,
            env_qubits=cfg["env_qubits"],
            dynamics=str(cfg["dynamics"]),
            depth=cfg.get("depth"),
            thetas=None if thetas is None else tuple(thetas),
            env_initial=env_initial,
        )


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(re, im)
    return complex(value)


@dataclass(frozen=True)
class BranchSet:
    """Environmental records |E_i>, one per pointer value."""

    branches: tuple[StateVector, ...]
    generation_record: dict
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("branch set must be non-empty")
        if any(b.dim != branches[0].dim for b in branches):
            raise ValueError("all branches must share one dimension")
        object.__setattr__(self, "branches", branches)
        mat = np.vstack([b.amplitudes for b in branches])
        mat.setflags(write=False)
        object.__setattr__(self, "_matrix", mat)

    @property
    def count(self) -> int:
        return len(self.branches)

    @property
    def dim(self) -> int:
        return self.branches[0].dim

    def matrix(self) -> np.ndarray:
        """Read-only ``(count, dim)`` record matrix, one record per row,
        built once at construction."""
        return self._matrix


def _rotation_y(theta: float) -> Unitary:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Unitary(np.array([[c, -s], [s, c]], dtype=np.complex128))


def _product_record(theta: float, n: int) -> np.ndarray:
    """R_y(theta)^(x n) |0...0> as the left-fold Kronecker power of
    (cos theta/2, sin theta/2), qubit 0 on the slow index.

    Each amplitude is the product of its qubits' factors in qubit
    order, which is what the gate loop computes, so the record equals
    it in value (only the sign of zero imaginary parts may differ).
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    out = np.ones(1)
    for _ in range(n):
        prev = out
        out = np.empty((prev.size, 2))
        out[:, 0] = prev * c
        out[:, 1] = prev * s
        out = out.reshape(-1)
    return out.astype(np.complex128)


def generate_branches(model: MeasurementModel, rng: RngStream) -> BranchSet:
    """Evolve the initial environment state once per pointer value.

    Pointer value i draws from ``rng.substream(i)``, so branch sets are
    reproducible from (model, seed, stream_index) alone and independent
    of evaluation order. A chaotic-circuit branch draws all its gates in
    one ``_haar_unitaries`` batch, layer by layer and left to right
    within a layer; the batch is bit-identical to one ``haar_unitary(4)``
    call per gate in that order, and is checked once. Integrable-product
    dynamics draws nothing; from |0...0> its records are built in closed
    form (``_product_record``), and from any other initial state by the
    gate loop. Gates act on the raw amplitudes; each finished record is
    validated as a ``StateVector``.
    """
    n = model.env_qubits
    sites = []
    if model.dynamics == "chaotic-circuit":
        # brickwork: even layers pair (0, 1), (2, 3), ...; odd ones (1, 2), ...
        sites = [(q, q + 1) for layer in range(model.depth)
                 for q in range(layer % 2, n - 1, 2)]
    initial = None if model.dynamics == "exact-haar" else \
        model.initial_state().amplitudes
    branches = []
    for i in range(model.pointer_count):
        if model.dynamics == "exact-haar":
            # Equal in law to applying an independent Haar unitary to the
            # initial state, at O(2^n) rather than O(2^3n) cost.
            branches.append(haar_state(model.env_dim, rng.substream(i)))
            continue
        amps = initial
        if model.dynamics == "chaotic-circuit":
            gates = _haar_unitaries(4, len(sites), rng.substream(i))
            _check_unitary(gates)
            for gate, targets in zip(gates, sites):
                amps = _apply_gate(gate, targets, amps)
        elif model.env_initial is None:  # integrable-product from |0...0>
            amps = _product_record(model.thetas[i], n)
        else:  # integrable-product
            gate = _rotation_y(model.thetas[i]).entries
            for q in range(n):
                amps = _apply_gate(gate, (q,), amps)
        branches.append(StateVector(amps))
    record = {
        "dynamics": model.dynamics,
        "seed": rng.seed,
        "stream_index": rng.stream_index,
        "depth_or_time": model.depth,
    }
    return BranchSet(branches=tuple(branches), generation_record=record)


def gram_matrix(branches: BranchSet) -> np.ndarray:
    """Record Gram matrix with G[j, i] = <E_j|E_i>; Hermitian, unit diagonal.

    Entry for entry it is the complex conjugate of the product that
    ``pairwise_overlap_sq`` squares, so the moduli of its upper triangle
    are bit-identical to that kernel's; its lower triangle is not always
    the conjugate of its upper one in the last bit.
    """
    mat = branches.matrix()
    return mat.conj() @ mat.T


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """k x k system state; Hermitian, unit trace, PSD within tolerance.

    ``matrix`` is a read-only view of a contiguous complex128 input,
    which is not copied: the caller's array stays writable, and writing
    to it later changes the state unchecked.
    """

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.ascontiguousarray(self.matrix, dtype=np.complex128).view()
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        # an inf entry makes the difference NaN, which must reach the
        # ValueError rather than a RuntimeWarning
        with np.errstate(invalid="ignore"):
            asymmetry = np.max(np.abs(rho - rho.conj().T))
        if not asymmetry <= RHO_ATOL:
            raise ValueError("density matrix is not Hermitian")
        if not abs(np.trace(rho).real - 1.0) <= RHO_ATOL:
            raise ValueError(f"trace {complex(np.trace(rho))!r} != 1")
        if not np.min(np.linalg.eigvalsh(rho)) >= -RHO_EIG_ATOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def reduced_density(model: MeasurementModel,
                    branches: BranchSet) -> ReducedDensityMatrix:
    """System state rho_ij = c_i conj(c_j) <E_j|E_i> after the coupling."""
    if branches.count != model.pointer_count:
        raise ValueError(
            f"model has {model.pointer_count} pointer values but "
            f"{branches.count} branches were given"
        )
    return _density(model.coefficients, gram_matrix(branches))


def _density(c: np.ndarray, gram: np.ndarray) -> ReducedDensityMatrix:
    """Validated rho_ij = c_i conj(c_j) gram[j, i] from a ``gram_matrix``."""
    return ReducedDensityMatrix(np.outer(c, c.conj()) * gram.T)


def max_coherence(rho: ReducedDensityMatrix) -> float:
    """Largest off-diagonal modulus max_{i != j} |rho_ij|."""
    mags = np.abs(rho.matrix)
    np.fill_diagonal(mags, 0.0)
    return float(mags.max()) if rho.dim > 1 else 0.0


def _pair_overlaps(branches: BranchSet) -> np.ndarray:
    return np.concatenate(list(pairwise_overlap_sq(branches.matrix())))


def typicality_ratio(branches: BranchSet, d_eff: float) -> float:
    """Mean pairwise squared overlap times d_eff.

    Near 1 for records that look like typical vectors of a
    d_eff-dimensional subspace; far above 1 signals a pair-typicality
    violation.
    """
    if branches.count < 2:
        raise ValueError("typicality needs at least two branches")
    d_eff = real("d_eff", d_eff, 1.0)
    return float(np.mean(_pair_overlaps(branches))) * d_eff


@dataclass(frozen=True)
class SuppressionResult:
    """Per-trial overlap and coherence data plus the predicted scales."""

    model: MeasurementModel
    trials: int
    pair_overlaps: np.ndarray    # (trials, n_pairs)
    max_coherences: np.ndarray   # (trials,)
    seed_record: tuple[int, int]
    d_eff: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "d_eff", self.model.env_dim)
        self.pair_overlaps.setflags(write=False)
        self.max_coherences.setflags(write=False)

    @property
    def mean_overlap_sq(self) -> float:
        return float(self.pair_overlaps.mean())

    @property
    def var_overlap_sq(self) -> float:
        return float(self.pair_overlaps.var(ddof=1))

    @property
    def mean_max_coherence(self) -> float:
        return float(self.max_coherences.mean())

    @property
    def var_max_coherence(self) -> float:
        return float(self.max_coherences.var(ddof=1))

    @property
    def overlap_sq_scale(self) -> float:
        """Predicted mean squared overlap 1/d_eff."""
        return 1.0 / self.d_eff

    @property
    def amplitude_scale(self) -> float:
        """Predicted overlap amplitude 1/sqrt(d_eff)."""
        return 1.0 / math.sqrt(self.d_eff)

    @property
    def typicality(self) -> float:
        return self.mean_overlap_sq * self.d_eff

    @property
    def atypical(self) -> bool:
        return self.typicality > ATYPICAL_RATIO

    def summary(self) -> dict:
        return {
            "dynamics": self.model.dynamics,
            "env_qubits": self.model.env_qubits,
            "pointer_count": self.model.pointer_count,
            "trials": self.trials,
            "mean_overlap_sq": self.mean_overlap_sq,
            "var_overlap_sq": self.var_overlap_sq,
            "mean_max_coherence": self.mean_max_coherence,
            "var_max_coherence": self.var_max_coherence,
            "d_eff": self.d_eff,
            "overlap_sq_scale": self.overlap_sq_scale,
            "amplitude_scale": self.amplitude_scale,
            "typicality_ratio": self.typicality,
            "atypical": self.atypical,
            "seed": self.seed_record[0],
            "stream_index": self.seed_record[1],
        }


def suppression_experiment(model: MeasurementModel, trials: int,
                           rng: RngStream) -> SuppressionResult:
    """Regenerate branches per trial and collect overlap/coherence stats.

    Trial t draws from ``rng.substream(t)``; the result therefore does
    not depend on execution order and can be partitioned across workers.
    Each trial forms one record Gram matrix; its pair overlaps and its
    validated reduced density matrix are bit-identical to
    ``_pair_overlaps`` and ``reduced_density`` on the same records.
    """
    trials = integer("trials", trials, 30)
    k = model.pointer_count
    upper = np.triu_indices(k, 1)
    pair_overlaps = np.empty((trials, upper[0].size), dtype=float)
    max_coherences = np.empty(trials, dtype=float)
    for t in range(trials):
        branches = generate_branches(model, rng.substream(t))
        gram = gram_matrix(branches)
        pair_overlaps[t] = np.abs(gram[upper]) ** 2
        max_coherences[t] = max_coherence(_density(model.coefficients, gram))
    return SuppressionResult(
        model=model, trials=trials,
        pair_overlaps=pair_overlaps, max_coherences=max_coherences,
        seed_record=(rng.seed, rng.stream_index),
    )


def integrable_overlap_exact(n: int, delta_theta: float) -> float:
    """Closed-form record overlap for the product-rotation control.

    Two branches rotated from |0...0> by angles differing by
    ``delta_theta`` overlap at exactly cos^(2n)(delta_theta / 2).
    """
    n = integer("n", n, 1)
    return math.cos(real("delta_theta", delta_theta) / 2.0) ** (2 * n)
