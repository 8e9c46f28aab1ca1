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

import math
from dataclasses import dataclass, field

import numpy as np

from . import limits
from ._workers import _in_workers
from .rng import RngStream
from .states import (StateVector, _apply_gate, _check_unit_rows,
                     _check_unitary, _haar_rows, _haar_unitaries, _unit_rows,
                     basis_state)
from .validate import address, frozen_array, integer, real

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
# Keys of a MeasurementModel config (MeasurementModel.from_config).
_CONFIG_REQUIRED = ("pointer_count", "coefficients", "env_qubits", "dynamics")
_CONFIG_OPTIONAL = ("depth", "thetas", "env_initial")


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Pointer amplitudes plus the conditional environment dynamics.

    The system side never needs its own Hilbert space: the reduced
    matrix depends only on the coefficients and the record Gram matrix.
    ``coefficients`` is stored by ``frozen_array``.
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
        coeffs = frozen_array("coefficients", self.coefficients,
                              np.complex128, 1)
        if coeffs.shape != (k,):
            raise ValueError(f"need {k} coefficients, got shape {coeffs.shape}")
        # a square that overflows (near 1e200) must reach the ValueError
        # below as inf, not raise a RuntimeWarning
        with np.errstate(over="ignore"):
            norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm_sq - 1.0) <= COEFF_NORM_ATOL:
            raise ValueError(
                f"coefficients not normalized: sum |c|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "coefficients", coeffs)

        object.__setattr__(self, "env_qubits",
                           integer("env_qubits", self.env_qubits, 1))
        limits.check_state_qubits("env_qubits", self.env_qubits)

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
            # one trial's gate entries, before any site list or gate exists
            limits.check_sample_count(
                f"gate entries per trial at depth {depth}",
                16 * k * _gate_count(self))
        elif self.depth is not None:
            raise ValueError("depth only applies to chaotic-circuit dynamics")

        if self.dynamics == "integrable-product":
            if self.thetas is None:
                raise ValueError("integrable-product dynamics needs thetas")
            if np.ndim(self.thetas) != 1:
                raise ValueError(f"thetas must be a sequence of angles, got "
                                 f"{self.thetas!r}")
            thetas = tuple(real("theta", t) for t in self.thetas)
            if len(thetas) != k:
                raise ValueError(
                    f"need one angle per pointer value ({k}), got {len(thetas)}"
                )
            object.__setattr__(self, "thetas", thetas)
        elif self.thetas is not None:
            raise ValueError("thetas only apply to integrable-product dynamics")

        if self.env_initial is not None:
            if not (isinstance(self.env_initial, StateVector)
                    and self.env_initial.dim == self.env_dim):
                raise ValueError(f"env_initial must be a StateVector of dim "
                                 f"2**{self.env_qubits}, got "
                                 f"{self.env_initial!r}")
            # exact-haar records are drawn without reading it
            if self.dynamics == "exact-haar":
                raise ValueError("env_initial only applies to circuit dynamics")

    @property
    def env_dim(self) -> int:
        return 2 ** self.env_qubits

    def initial_state(self) -> StateVector:
        return self.env_initial if self.env_initial is not None \
            else basis_state(self.env_dim, 0)

    @classmethod
    def from_config(cls, cfg) -> "MeasurementModel":
        """Build a model from a parsed JSON config.

        Required keys are ``pointer_count``, ``coefficients``,
        ``env_qubits`` and ``dynamics``; optional ones are ``depth``,
        ``thetas`` and ``env_initial``. Coefficients may be given as real
        numbers or [re, im] pairs; ``env_initial`` uses the same
        convention. A config that is not an object, lacks a required key,
        has any other key or gives a list field as anything but a list
        raises ValueError naming the key.
        """
        if not isinstance(cfg, dict):
            raise ValueError(f"config must be a JSON object, got "
                             f"{type(cfg).__name__}")
        for key in _CONFIG_REQUIRED:
            if key not in cfg:
                raise ValueError(f"config lacks required key {key!r}")
        # a misspelt optional key would otherwise run at its default
        for key in cfg:
            if key not in _CONFIG_REQUIRED + _CONFIG_OPTIONAL:
                raise ValueError(f"config has unknown key {key!r}")
        env_initial = None
        if cfg.get("env_initial") is not None:
            env_initial = StateVector(_config_complex(cfg, "env_initial"))
        thetas = cfg.get("thetas")
        return cls(
            pointer_count=cfg["pointer_count"],
            coefficients=_config_complex(cfg, "coefficients"),
            env_qubits=cfg["env_qubits"],
            dynamics=str(cfg["dynamics"]),
            depth=cfg.get("depth"),
            thetas=None if thetas is None else tuple(_config_list(cfg, "thetas")),
            env_initial=env_initial,
        )


def _config_list(cfg: dict, key: str) -> list:
    value = cfg[key]
    if not isinstance(value, list):
        raise ValueError(f"config {key!r} must be a list, got {value!r}")
    return value


def _config_complex(cfg: dict, key: str) -> np.ndarray:
    """Config list ``key`` of reals or [re, im] pairs as a complex array;
    ValueError names the key and the item."""
    return np.array([_as_complex(f"config {key!r} item {i}", v)
                     for i, v in enumerate(_config_list(cfg, key))],
                    dtype=np.complex128)


def _as_complex(name: str, value) -> complex:
    """A real or an [re, im] pair as a complex; each part passes ``real``."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"{name} must be a number or an [re, im] pair, "
                             f"got {value!r}")
        return complex(real(name, value[0]), real(name, value[1]))
    return complex(real(name, value))


@dataclass(frozen=True, init=False, eq=False)
class BranchSet:
    """Environmental records |E_i>, one per pointer value, held as the
    rows of one read-only ``(count, dim)`` matrix ``rows``.

    Give either ``branches``, a sequence of ``StateVector``, or ``rows``,
    a matrix checked once with the unit-norm rule of ``StateVector``.
    ``rows`` is stored by ``frozen_array``.
    """

    rows: np.ndarray
    generation_record: dict

    def __init__(self, branches=None, generation_record=None, *, rows=None):
        if (branches is None) == (rows is None):
            raise ValueError("give exactly one of branches or rows")
        if branches is not None:
            branches = tuple(branches)
            if not branches:
                raise ValueError("branch set must be non-empty")
            if any(b.dim != branches[0].dim for b in branches):
                raise ValueError("all branches must share one dimension")
            rows = np.stack([b.amplitudes for b in branches])
        object.__setattr__(self, "rows", _unit_rows("branch rows", rows, 2))
        object.__setattr__(self, "generation_record", generation_record)

    @property
    def branches(self) -> tuple[StateVector, ...]:
        """The rows as ``StateVector`` objects, built on each access."""
        return tuple(StateVector(row) for row in self.rows)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def _rotation_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


# Complex entries of records, gates and k x k Grams that one block of
# trials may hold (1 MB). It fits 8 trials at n=10, k=2, one at n=14, k=8
# and 6 at n=1, k=100; a 64 MB block made n=14 slower. A live block of
# ``suppression_experiment`` holds at most, per record entry, the record
# and its conjugate (16 B each) and its squared modulus (8 B), plus one
# record temporary: 2.5 x max(1 MB, one trial's records) plus a record,
# on each of at most ``_workers._MAX_WORKERS`` workers.
_BLOCK_ENTRIES = 1 << 16


def _brickwork(model: MeasurementModel) -> list:
    """Gate sites of a chaotic-circuit branch in draw order: even layers
    pair (0, 1), (2, 3), ...; odd ones (1, 2), (3, 4), ..."""
    return [(q, q + 1) for layer in range(model.depth)
            for q in range(layer % 2, model.env_qubits - 1, 2)]


def _gate_count(model: MeasurementModel) -> int:
    """``len(_brickwork(model))`` in closed form: ceil(depth / 2) even
    layers of n // 2 gates and depth // 2 odd ones of (n - 1) // 2."""
    n, depth = model.env_qubits, model.depth
    return (depth + 1) // 2 * (n // 2) + depth // 2 * ((n - 1) // 2)


def _block_trials(model: MeasurementModel) -> int:
    """Trials per block: as many as fit ``_BLOCK_ENTRIES``, at least one.

    A trial counts its k records, its gates and its k x k Gram, so that
    ``_block_statistics``'s Gram, rho and moduli stay bounded at large k.
    """
    k = model.pointer_count
    gates = _gate_count(model) if model.dynamics == "chaotic-circuit" else 0
    per_trial = k * (model.env_dim + 16 * gates + k)
    return max(1, _BLOCK_ENTRIES // per_trial)


def _records(model: MeasurementModel, streams, trials: int) -> np.ndarray:
    """``(trials, k, 2**n)`` records of a block of trials, in a new array:
    the one record kernel. It only draws: ``streams`` yields one stream
    per record, trial-major (item b k + i is trial b's pointer value i),
    keyed by the caller (``generate_branches``, or a block of
    ``suppression_experiment``). The records are not unit-checked here;
    callers check them.

    * exact-haar: each record is one ``_haar_rows(d, 1, ...)`` draw,
      equal in law to an independent Haar unitary applied to the initial
      state at O(2^n) rather than O(2^3n) cost.
    * chaotic-circuit: each branch draws all its gates in one
      ``_haar_unitaries`` batch, layer by layer and left to right within
      a layer (bit-identical to one ``haar_unitary(4)`` call per gate in
      that order). Each brickwork site is one stacked product over
      every branch of the block, bit-identical to applying it branch by
      branch.
    * integrable-product: a circuit that draws nothing, so every trial
      gets the same records. The sites are ``(q,)`` for every qubit, and
      pointer value i's gate on each of them is ``_rotation_y(thetas[i])``.

    Both circuit dynamics check the block's gates once and run one
    ``_apply_gate`` loop over the sites from ``model.initial_state()``.
    """
    n, k, d = model.env_qubits, model.pointer_count, model.env_dim
    if model.dynamics == "integrable-product":
        sites = [(q,) for q in range(n)]
        gates = np.stack([[_rotation_y(t)] * n for t in model.thetas] * trials)
    elif model.dynamics == "exact-haar":
        out = np.empty((trials * k, d), dtype=np.complex128)
        for j, stream in enumerate(streams):
            out[j] = _haar_rows(d, 1, stream)[0]
        return out.reshape(trials, k, d)
    else:
        sites = _brickwork(model)
        gates = np.empty((trials * k, len(sites), 4, 4), dtype=np.complex128)
        for j, stream in enumerate(streams):
            gates[j] = _haar_unitaries(4, len(sites), stream)
    _check_unitary(gates)
    amps = np.repeat(model.initial_state().amplitudes[None], len(gates), axis=0)
    for j, targets in enumerate(sites):
        amps = _apply_gate(gates[:, j], targets, amps)
    return amps.reshape(trials, k, d)


def generate_branches(model: MeasurementModel, rng: RngStream) -> BranchSet:
    """Evolve the initial environment state once per pointer value.

    Pointer value i draws what ``rng.substream(i)`` draws; the k streams
    are keyed here as one block (``RngStream._descendants``) and handed to
    the record kernel, so branch sets are reproducible from the model and
    ``rng.address`` alone, which ``generation_record`` carries, and
    independent of evaluation order. The records are one trial of the
    kernel that ``suppression_experiment`` runs by the block (see
    ``_records`` for how each dynamics draws them), checked once as the
    rows of the ``BranchSet``.
    """
    record = {"dynamics": model.dynamics, **_address_keys(rng.address),
              "depth_or_time": model.depth}
    streams = rng._descendants(np.arange(model.pointer_count)[:, None])
    return BranchSet(rows=_records(model, streams, 1)[0],
                     generation_record=record)


def gram_matrix(branches: BranchSet) -> np.ndarray:
    """Record Gram matrix with G[j, i] = <E_j|E_i>; Hermitian, unit diagonal.

    Entry for entry it is the complex conjugate of the product whose
    moduli ``states._gram_blocks`` yields, so the moduli of its upper
    triangle are bit-identical to that kernel's; its lower triangle is
    not always the conjugate of its upper one in the last bit.
    """
    rows = branches.rows
    return rows.conj() @ rows.T


@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    """k x k system state; Hermitian, unit trace, PSD within tolerance.

    ``matrix`` is stored by ``frozen_array``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        rho = frozen_array("density matrix", self.matrix, np.complex128, 2)
        if rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        _check_density(rho)
        if not np.min(np.linalg.eigvalsh(rho)) >= -RHO_EIG_ATOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "matrix", rho)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_density(rho: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a ``(..., k, k)`` stack is
    Hermitian and of unit trace within ``RHO_ATOL``; NaN and inf raise it
    too, not a RuntimeWarning. Positivity is ``ReducedDensityMatrix``'s
    own check."""
    # an inf entry makes the difference NaN, which must reach the
    # ValueError rather than a RuntimeWarning
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(rho - np.conj(rho.swapaxes(-1, -2))).max()
    if not asymmetry <= RHO_ATOL:
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    defect = np.abs(trace - 1.0).max()
    if not defect <= RHO_ATOL:
        raise ValueError(f"density matrix trace is off 1 by {defect!r}")


def reduced_density(model: MeasurementModel,
                    branches: BranchSet) -> ReducedDensityMatrix:
    """System state rho_ij = c_i conj(c_j) <E_j|E_i> after the coupling."""
    if branches.count != model.pointer_count:
        raise ValueError(
            f"model has {model.pointer_count} pointer values but "
            f"{branches.count} branches were given"
        )
    c = model.coefficients
    return ReducedDensityMatrix(np.outer(c, c.conj()) * gram_matrix(branches).T)


def max_coherence(rho: ReducedDensityMatrix) -> float:
    """Largest off-diagonal modulus max_{i != j} |rho_ij|."""
    mags = np.abs(rho.matrix)
    np.fill_diagonal(mags, 0.0)
    return float(mags.max()) if rho.dim > 1 else 0.0


def typicality_ratio(branches: BranchSet, d_eff: float) -> float:
    """Mean pairwise squared overlap times d_eff.

    Near 1 for records that look like typical vectors of a
    d_eff-dimensional subspace; far above 1 signals a pair-typicality
    violation. The overlaps are |G_ij|^2, i < j, of the ``gram_matrix``,
    as in ``suppression_experiment``.
    """
    k = branches.count
    if k < 2:
        raise ValueError("typicality needs at least two branches")
    d_eff = real("d_eff", d_eff, 1.0)
    gram = gram_matrix(branches)
    return float(np.mean(np.abs(gram[np.triu_indices(k, 1)]) ** 2)) * d_eff


@dataclass(frozen=True, eq=False)
class SuppressionResult:
    """Per-trial overlap and coherence data plus the predicted scales.

    ``pair_overlaps`` and ``max_coherences`` are stored by
    ``frozen_array``, one row per trial, and ``seed_record`` by
    ``validate.address``.
    """

    model: MeasurementModel
    trials: int
    pair_overlaps: np.ndarray    # (trials, n_pairs)
    max_coherences: np.ndarray   # (trials,)
    seed_record: tuple[int, ...]  # RngStream.address
    d_eff: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.model, MeasurementModel):
            raise ValueError(f"model must be a MeasurementModel, got "
                             f"{type(self.model).__name__}")
        k = self.model.pointer_count
        # two trials at least, for the ddof=1 variances
        trials = integer("trials", self.trials, 2)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed_record",
                           address("seed_record", self.seed_record))
        object.__setattr__(self, "d_eff", self.model.env_dim)
        for name, shape in (("pair_overlaps", (trials, k * (k - 1) // 2)),
                            ("max_coherences", (trials,))):
            arr = frozen_array(name, getattr(self, name), np.float64, len(shape))
            if arr.shape != shape:
                raise ValueError(f"{name} of {trials} trials and {k} pointer "
                                 f"values must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)

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
            **_address_keys(self.seed_record),
        }


def _address_keys(address: tuple[int, ...]) -> dict:
    """An ``RngStream.address`` as record keys: ``seed`` and
    ``stream_index``, and ``stream_path`` only for a substream."""
    seed, stream_index, *path = address
    keys = {"seed": seed, "stream_index": stream_index}
    if path:
        keys["stream_path"] = path
    return keys


def _block_statistics(c: np.ndarray, recs: np.ndarray, pairs: np.ndarray,
                      coherences: np.ndarray) -> None:
    """Pair overlaps and max coherences of a ``(B, k, d)`` block of
    unit-checked records, written to output rows ``pairs`` ``(B, k(k-1)/2)``
    and ``coherences`` ``(B,)``.

    One stacked product forms every trial's Gram matrix, bit-identical
    to ``gram_matrix`` on that trial's records. From it come the pair
    overlaps |G_ij|^2, i < j, as ``typicality_ratio`` takes them, and
    rho = (c c^dagger) * G^T, whose largest off-diagonal modulus is
    bit-identical to ``max_coherence(reduced_density(...))``. The block's
    rho are checked for trace and Hermiticity, which catches NaN and inf
    too; they are PSD by the Schur product theorem, so no eigenvalues are
    taken.
    """
    k = recs.shape[1]
    gram = np.conjugate(recs) @ recs.swapaxes(-1, -2)
    upper = np.triu_indices(k, 1)
    np.square(np.abs(gram[:, upper[0], upper[1]]), out=pairs)
    rho = np.outer(c, c.conj()) * gram.swapaxes(-1, -2)
    _check_density(rho)
    mags = np.abs(rho)
    mags.reshape(len(mags), k * k)[:, ::k + 1] = 0.0
    np.max(mags, axis=(1, 2), out=coherences)


def suppression_experiment(model: MeasurementModel, trials: int,
                           rng: RngStream) -> SuppressionResult:
    """Regenerate branches per trial and collect overlap/coherence stats.

    Trial t's pointer value i draws what ``rng.substream(t).substream(i)``
    draws, so the result does not depend on execution order. The streams
    are keyed here: each block keys its record streams at once
    (``RngStream._descendants``, one generator per block) and hands them
    to ``_records``. The result's ``seed_record`` is ``rng.address``.
    Blocks of bounded memory run on the workers of
    ``_workers._in_workers``. A block's arrays are numpy temporaries that
    die with the block, and each block writes disjoint output rows, so
    the output bytes do not depend on the worker count. Integrable
    trials draw nothing, so one block holding trial 0 is run and its row
    is copied into every other trial's row. Every block of records is
    unit-checked, and its statistics come from one pass
    (``_block_statistics``): pair overlaps |G_ij|^2, i < j, as
    ``typicality_ratio`` takes them, and max coherences bit-identical to
    ``max_coherence(reduced_density(...))`` on the same records. The
    output's trials x k(k-1)/2 overlaps are capped by
    ``limits.check_sample_count`` before anything is allocated or drawn.
    """
    trials = integer("trials", trials, 30)
    k = model.pointer_count
    pairs = k * (k - 1) // 2
    limits.check_sample_count("trials * k(k-1)/2", trials * pairs)
    pair_overlaps = np.empty((trials, pairs), dtype=float)
    max_coherences = np.empty(trials, dtype=float)
    c = model.coefficients
    # integrable trials draw nothing: trial 0 alone is run, and the rows
    # of the others are copies of its row
    run = 1 if model.dynamics == "integrable-product" else trials

    def block(t0, t1):
        """Key, draw, check and reduce trials [t0, t1)."""
        # row (t, i) keys trial t's pointer value i, trial-major
        streams = rng._descendants(np.column_stack(
            np.divmod(np.arange(t0 * k, t1 * k), k)))
        records = _records(model, streams, t1 - t0)
        _check_unit_rows(records)
        _block_statistics(c, records, pair_overlaps[t0:t1],
                          max_coherences[t0:t1])

    _in_workers(block, run, _block_trials(model))
    pair_overlaps[run:] = pair_overlaps[0]
    max_coherences[run:] = max_coherences[0]
    return SuppressionResult(
        model=model, trials=trials,
        pair_overlaps=pair_overlaps, max_coherences=max_coherences,
        seed_record=rng.address,
    )


def integrable_overlap_exact(n: int, delta_theta: float) -> float:
    """Closed-form record overlap for the product-rotation control.

    Two branches rotated from |0...0> by angles differing by
    ``delta_theta`` overlap at exactly cos^(2n)(delta_theta / 2).
    """
    n = integer("n", n, 1)
    return math.cos(real("delta_theta", delta_theta) / 2.0) ** (2 * n)
