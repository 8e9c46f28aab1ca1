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

import contextvars
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .rng import RngStream
from .states import (StateVector, _apply_gate, _check_unit_rows,
                     _check_unitary, _haar_rows, _haar_unitaries, basis_state)
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
# Keys of a MeasurementModel config (MeasurementModel.from_config).
_CONFIG_REQUIRED = ("pointer_count", "coefficients", "env_qubits", "dynamics")
_CONFIG_OPTIONAL = ("depth", "thetas", "env_initial")


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
        limits.check_state_qubits(self.env_qubits)

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

        Required keys are ``pointer_count``, ``coefficients``,
        ``env_qubits`` and ``dynamics``; optional ones are ``depth``,
        ``thetas`` and ``env_initial``. Coefficients may be given as real
        numbers or [re, im] pairs; ``env_initial`` uses the same
        convention. A config that is not an object, lacks a required key,
        has any other key or gives a list field as anything but a list
        raises ValueError naming the key.
        """
        if isinstance(source, dict):
            cfg = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
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
    """Config list ``key`` of reals or [re, im] pairs as a complex array."""
    values = _config_list(cfg, key)
    try:
        return np.array([_as_complex(v) for v in values])
    except (TypeError, ValueError):
        raise ValueError(f"config {key!r} needs numbers or [re, im] "
                         f"pairs") from None


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(re, im)
    return complex(value)


@dataclass(frozen=True, init=False, eq=False)
class BranchSet:
    """Environmental records |E_i>, one per pointer value, held as the
    rows of one read-only ``(count, dim)`` matrix ``rows``.

    Give either ``branches``, a sequence of ``StateVector``, or ``rows``,
    a matrix checked once with the unit-norm rule of ``StateVector``. A
    contiguous complex128 ``rows`` is not copied: the caller's array
    stays writable, and writing to it later changes the records
    unchecked.
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
        rows = np.ascontiguousarray(rows, dtype=np.complex128).view()
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError("branch rows must be a non-empty (count, dim) matrix")
        limits.check_state_dim(rows.shape[1])
        _check_unit_rows(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
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
# and 6 at n=1, k=100; a 64 MB block made n=14 slower. Each of the at
# most ``_MAX_WORKERS`` workers of ``suppression_experiment`` allocates,
# once per call, the buffers of one block: its records and their
# conjugates (16 B an entry) and their squared moduli (8 B), plus one
# record of scratch. So the buffers hold at most 2 x 2.5 x max(1 MB, one
# trial's records), plus two records.
_BLOCK_ENTRIES = 1 << 16
# Threads that run the blocks of one ``suppression_experiment`` call.
_MAX_WORKERS = 2


def _brickwork(model: MeasurementModel) -> list:
    """Gate sites of a chaotic-circuit branch in draw order: even layers
    pair (0, 1), (2, 3), ...; odd ones (1, 2), (3, 4), ..."""
    return [(q, q + 1) for layer in range(model.depth)
            for q in range(layer % 2, model.env_qubits - 1, 2)]


def _block_trials(model: MeasurementModel) -> int:
    """Trials per block: as many as fit ``_BLOCK_ENTRIES``, at least one.

    A trial counts its k records, its gates and its k x k Gram, so that
    ``_block_statistics``'s Gram, rho and moduli stay bounded at large k.
    """
    k = model.pointer_count
    gates = len(_brickwork(model)) if model.dynamics == "chaotic-circuit" else 0
    per_trial = k * (model.env_dim + 16 * gates + k)
    return max(1, _BLOCK_ENTRIES // per_trial)


def _records(model: MeasurementModel, streams, out=None,
             scratch=None) -> np.ndarray:
    """``(len(streams), k, 2**n)`` records of a block of trials: the one
    record kernel. Trial b's pointer value i draws from
    ``streams[b].substream(i)``. The records are not unit-checked here;
    callers check them.

    ``out``, if given, is a C-contiguous complex128 array of that shape
    that receives the records and is returned; ``scratch``, if given, is
    a ``(1, 2**n)`` one that exact-haar norms are formed in. Neither
    changes a bit of the records.

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
    if out is None:
        out = np.empty((len(streams), k, d), dtype=np.complex128)
    if model.dynamics == "exact-haar":
        for b, stream in enumerate(streams):
            for i in range(k):
                _haar_rows(d, 1, stream.substream(i), out=out[b, i:i + 1],
                           scratch=scratch)
        return out
    if model.dynamics == "integrable-product":
        sites = [(q,) for q in range(n)]
        gates = np.stack([[_rotation_y(t)] * n for t in model.thetas]
                         * len(streams))
    else:
        sites = _brickwork(model)
        gates = np.empty((len(streams) * k, len(sites), 4, 4),
                         dtype=np.complex128)
        for b, stream in enumerate(streams):
            for i in range(k):
                gates[b * k + i] = _haar_unitaries(4, len(sites),
                                                   stream.substream(i))
    _check_unitary(gates)
    amps = np.repeat(model.initial_state().amplitudes[None], len(gates), axis=0)
    for j, targets in enumerate(sites):
        amps = _apply_gate(gates[:, j], targets, amps)
    out[...] = amps.reshape(out.shape)
    return out


def generate_branches(model: MeasurementModel, rng: RngStream) -> BranchSet:
    """Evolve the initial environment state once per pointer value.

    Pointer value i draws from ``rng.substream(i)``, so branch sets are
    reproducible from (model, seed, stream_index) alone and independent
    of evaluation order. The records are one trial of the block kernel
    that ``suppression_experiment`` runs (see ``_records`` for how each
    dynamics draws them), checked once as the rows of the ``BranchSet``.
    """
    record = {
        "dynamics": model.dynamics,
        "seed": rng.seed,
        "stream_index": rng.stream_index,
        "depth_or_time": model.depth,
    }
    return BranchSet(rows=_records(model, [rng])[0], generation_record=record)


def gram_matrix(branches: BranchSet) -> np.ndarray:
    """Record Gram matrix with G[j, i] = <E_j|E_i>; Hermitian, unit diagonal.

    Entry for entry it is the complex conjugate of the product that
    ``pairwise_overlap_sq`` squares, so the moduli of its upper triangle
    are bit-identical to that kernel's; its lower triangle is not always
    the conjugate of its upper one in the last bit.
    """
    rows = branches.rows
    return rows.conj() @ rows.T


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
        _check_density(rho)
        if not np.min(np.linalg.eigvalsh(rho)) >= -RHO_EIG_ATOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        rho.setflags(write=False)
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
        for name in ("pair_overlaps", "max_coherences"):
            frozen = getattr(self, name).view()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)

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


def _block_statistics(c: np.ndarray, recs: np.ndarray, pairs: np.ndarray,
                      coherences: np.ndarray, conj=None) -> None:
    """Pair overlaps and max coherences of a ``(B, k, d)`` block of
    unit-checked records, written to output rows ``pairs`` ``(B, k(k-1)/2)``
    and ``coherences`` ``(B,)``; ``conj``, if given, is a complex128
    buffer of the block's shape for the conjugate records.

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
    gram = np.conjugate(recs, out=conj) @ recs.swapaxes(-1, -2)
    upper = np.triu_indices(k, 1)
    np.square(np.abs(gram[:, upper[0], upper[1]]), out=pairs)
    rho = np.outer(c, c.conj()) * gram.swapaxes(-1, -2)
    _check_density(rho)
    mags = np.abs(rho)
    mags.reshape(len(mags), k * k)[:, ::k + 1] = 0.0
    np.max(mags, axis=(1, 2), out=coherences)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _in_workers(work, starts) -> None:
    """Run ``work(claims)`` on ``min(_MAX_WORKERS, _cpu_count(),
    len(starts))`` workers: the calling thread, plus plain threads when
    there is more than one.

    ``claims`` yields the items of ``starts``, each to exactly one worker,
    from one shared iterator. After an error every worker stops at its
    next claim; all are joined, then the first error is raised. Each
    thread runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds in every worker.
    """
    count = min(_MAX_WORKERS, _cpu_count(), len(starts))
    pending = iter(starts)
    lock = threading.Lock()
    errors = []

    def claims():
        while not errors:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            yield item

    def run():
        try:
            work(claims())
        except BaseException as exc:   # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run,)) for _ in range(count - 1)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def suppression_experiment(model: MeasurementModel, trials: int,
                           rng: RngStream) -> SuppressionResult:
    """Regenerate branches per trial and collect overlap/coherence stats.

    Trial t draws from ``rng.substream(t)``, so the result does not
    depend on execution order, and the trials are partitioned across
    workers: blocks of bounded memory (``_records``) run on up to
    ``_MAX_WORKERS`` threads, never more than the CPUs the process may
    use. Each worker allocates its block buffers once per call and
    writes disjoint output rows, so the output bytes do not depend on the
    worker count. Integrable trials draw nothing, so their records and
    statistics are formed once, serially, and copied into every trial's
    row. Every block of records is unit-checked, and its statistics come
    from one pass (``_block_statistics``): pair overlaps |G_ij|^2,
    i < j, as ``typicality_ratio`` takes them, and max coherences
    bit-identical to ``max_coherence(reduced_density(...))`` on the same
    records. The output's trials x k(k-1)/2 overlaps are capped by
    ``limits.check_sample_count`` before anything is allocated or drawn.
    """
    trials = integer("trials", trials, 30)
    k, d = model.pointer_count, model.env_dim
    pairs = k * (k - 1) // 2
    limits.check_sample_count(trials * pairs)
    pair_overlaps = np.empty((trials, pairs), dtype=float)
    max_coherences = np.empty(trials, dtype=float)
    c = model.coefficients

    if model.dynamics == "integrable-product":
        recs = _records(model, [rng])
        _check_unit_rows(recs)
        _block_statistics(c, recs, pair_overlaps[:1], max_coherences[:1])
        pair_overlaps[1:] = pair_overlaps[0]
        max_coherences[1:] = max_coherences[0]
    else:
        step = min(_block_trials(model), trials)

        def work(claims):
            """Draw, check and reduce the claimed blocks in own buffers."""
            recs = np.empty((step, k, d), dtype=np.complex128)
            conj = np.empty_like(recs)
            squares = np.empty(recs.shape)
            row = np.empty((1, d), dtype=np.complex128)
            for t0 in claims:
                t1 = min(t0 + step, trials)
                block = _records(model, [rng.substream(t) for t in range(t0, t1)],
                                 out=recs[:t1 - t0], scratch=row)
                _check_unit_rows(block, squares[:t1 - t0])
                _block_statistics(c, block, pair_overlaps[t0:t1],
                                  max_coherences[t0:t1], conj[:t1 - t0])

        _in_workers(work, range(0, trials, step))
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
