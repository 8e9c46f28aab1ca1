"""Quasi-orthogonal families: random-coding bounds, construction, checks.

A family of unit vectors is eps-quasi-orthogonal when every pairwise
squared overlap is at most eps. Random coding guarantees families of
size floor(exp[((d-1)/2)(-log(1-eps)) - 1/2]) exist: sampling that many
Haar states fails with probability below (1/2) M^2 (1-eps)^(d-1) < 1 by
the union bound over pairs. Everything here is evaluated in log space so
the doubly-exponential qubit regime never overflows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm as _norm

from . import limits
from .overlap import TestReport
from .rng import RngStream
from .states import StateVector, complex_gaussians
from .validate import integer, real

__all__ = [
    "QuasiOrthogonalFamily",
    "PackingReport",
    "lower_bound",
    "log_lower_bound",
    "qubit_capacity_log",
    "union_bound_failure",
    "random_coding_construct",
    "greedy_construct",
    "verify",
    "success_rate_experiment",
]

# exp() overflows float64 just above this; larger bounds only exist in
# log form.
_MAX_EXP_ARG = 700.0
# Largest qubit count for which 2**n is a float-representable dimension.
MAX_QUBITS_ANALYTIC = 1000


def log_lower_bound(d: int, eps: float) -> float:
    """Natural log of the random-coding bound: ((d-1)/2)(-log(1-eps)) - 1/2."""
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    return 0.5 * (d - 1) * (-math.log1p(-eps)) - 0.5


def lower_bound(d: int, eps: float) -> int:
    """Guaranteed family size floor(exp(log_lower_bound(d, eps))).

    Returns 0 whenever the exponent makes the floor vanish (eps = 0 or
    d = 1 give exponent -1/2). Raises OverflowError once the value
    exceeds float range; use :func:`log_lower_bound` in that regime.
    """
    log_m = log_lower_bound(d, eps)
    if log_m > _MAX_EXP_ARG:
        raise OverflowError(
            f"bound exp({log_m:.6g}) exceeds float range; "
            "use log_lower_bound/qubit_capacity_log"
        )
    return int(math.floor(math.exp(log_m)))


def qubit_capacity_log(n: int, eps: float) -> float:
    """log of the bound at d = 2**n; grows proportionally to 2**n."""
    n = integer("qubit count", n, 0, MAX_QUBITS_ANALYTIC)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    return 0.5 * (2.0 ** n - 1.0) * (-math.log1p(-eps)) - 0.5


def union_bound_failure(d: int, eps: float, m: int) -> float:
    """Union bound (1/2) M^2 (1-eps)^(d-1) on the construction failing.

    May exceed 1 (vacuous) and is reported as-is.
    """
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    m = integer("M", m, 2)
    log_p = math.log(0.5) + 2.0 * math.log(m) + (d - 1) * math.log1p(-eps)
    return math.exp(log_p)


@dataclass
class QuasiOrthogonalFamily:
    """Unit vectors with a certified maximum pairwise squared overlap.

    ``max_pairwise`` is None until :func:`verify` (or a certifying
    constructor) sets it; a singleton family has max_pairwise 0 by
    convention.
    """

    dim: int
    eps: float
    vectors: list[StateVector]
    max_pairwise: float | None = None

    def __post_init__(self):
        self.dim = integer("dim", self.dim, 1)
        self.eps = real("eps", self.eps, 0.0, 1.0, hi_open=True)
        if not self.vectors:
            raise ValueError("family must contain at least one vector")
        if any(v.dim != self.dim for v in self.vectors):
            raise ValueError("all family vectors must share the family dim")

    @property
    def size(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        """Stacked amplitudes, one vector per row."""
        return np.vstack([v.amplitudes for v in self.vectors])

    def to_csv(self, path) -> None:
        """One row per vector, interleaved re/im columns."""
        mat = self.matrix()
        header = ",".join(
            f"re{k},im{k}" for k in range(self.dim)
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# dim={self.dim} eps={self.eps:.17g} size={self.size}"
                     f" max_pairwise={'' if self.max_pairwise is None else format(self.max_pairwise, '.17g')}\n")
            fh.write(header + "\n")
            for row in mat:
                parts = []
                for z in row:
                    parts.append(f"{z.real:.17g}")
                    parts.append(f"{z.imag:.17g}")
                fh.write(",".join(parts) + "\n")


@dataclass(frozen=True)
class PackingReport:
    """Result of one random-coding construction attempt."""

    d: int
    eps: float
    m_requested: int
    success: bool
    max_pairwise: float
    failure_pair: tuple[int, int] | None
    union_bound: float
    family: QuasiOrthogonalFamily | None = None

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "eps": self.eps,
            "M_requested": self.m_requested,
            "success": self.success,
            "max_pairwise": self.max_pairwise,
            "failure_pair": list(self.failure_pair) if self.failure_pair else None,
            "union_bound": self.union_bound,
        }

    def to_json(self, path=None):
        obj = self.as_dict()
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return obj


def _pairwise_stats(mat: np.ndarray, eps: float):
    """Exact all-pairs max squared overlap and first violating pair."""
    m = mat.shape[0]
    if m == 1:
        return 0.0, None
    gram = mat @ mat.conj().T
    over = np.abs(gram) ** 2
    iu = np.triu_indices(m, k=1)
    pair_vals = over[iu]
    max_pairwise = float(pair_vals.max())
    failure_pair = None
    if max_pairwise > eps:
        # triu_indices enumerates pairs in lexicographic (i, j) order
        first = int(np.argmax(pair_vals > eps))
        failure_pair = (int(iu[0][first]), int(iu[1][first]))
    return max_pairwise, failure_pair


def _sample_rows(d: int, m: int, rng: RngStream) -> np.ndarray:
    g = complex_gaussians(rng, (m, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_coding_construct(d: int, eps: float, m: int,
                            rng: RngStream) -> PackingReport:
    """Sample M Haar states and certify all pairwise squared overlaps.

    Success means every pair is at most eps; on failure the first
    violating pair in lexicographic order is reported. The certified
    family is attached only on success.
    """
    m = integer("M", m, 1)
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    limits.check_state_dim(d)
    limits.check_sample_count(m * d)
    limits.check_pairwise_ops(m, d)
    mat = _sample_rows(d, m, rng)
    max_pairwise, failure_pair = _pairwise_stats(mat, eps)
    success = max_pairwise <= eps
    family = None
    if success:
        family = QuasiOrthogonalFamily(
            dim=d, eps=eps,
            vectors=[StateVector(row) for row in mat],
            max_pairwise=max_pairwise,
        )
    return PackingReport(
        d=d, eps=eps, m_requested=m, success=success,
        max_pairwise=max_pairwise, failure_pair=failure_pair,
        union_bound=union_bound_failure(d, eps, m) if m >= 2 else 0.0,
        family=family,
    )


def greedy_construct(d: int, eps: float, target_m: int, max_attempts: int,
                     rng: RngStream) -> QuasiOrthogonalFamily:
    """Rejection variant: keep a Haar sample only if the family stays
    eps-quasi-orthogonal.

    Always returns a certified family; it may be shorter than
    ``target_m`` when the attempt budget runs out.
    """
    target_m = integer("target_m", target_m, 1)
    max_attempts = integer("max_attempts", max_attempts, target_m)
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    limits.check_state_dim(d)
    limits.check_pairwise_ops(target_m, d)
    accepted = np.empty((0, d), dtype=np.complex128)
    for _ in range(max_attempts):
        row = _sample_rows(d, 1, rng)[0]
        if accepted.shape[0]:
            worst = float(np.max(np.abs(accepted @ row.conj()) ** 2))
            if worst > eps:
                continue
        accepted = np.vstack([accepted, row])
        if accepted.shape[0] == target_m:
            break
    max_pairwise, _ = _pairwise_stats(accepted, eps)
    return QuasiOrthogonalFamily(
        dim=d, eps=eps,
        vectors=[StateVector(row) for row in accepted],
        max_pairwise=max_pairwise,
    )


def verify(family: QuasiOrthogonalFamily) -> tuple[float, bool]:
    """Exact all-pairs certification; updates ``family.max_pairwise``."""
    limits.check_pairwise_ops(family.size, family.dim)
    max_pairwise, _ = _pairwise_stats(family.matrix(), family.eps)
    family.max_pairwise = max_pairwise
    return max_pairwise, max_pairwise <= family.eps


def success_rate_experiment(d: int, eps: float, m: int, trials: int,
                            rng: RngStream) -> TestReport:
    """Check that random coding succeeds at least as often as the union
    bound guarantees.

    Runs independent constructions on per-trial substreams. The report
    statistic is the empirical failure fraction and the threshold is the
    union bound plus three binomial standard errors.
    """
    trials = integer("trials", trials, 30)
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    m = integer("M", m, 2)
    ub = union_bound_failure(d, eps, m)
    failures = 0
    for t in range(trials):
        mat = _sample_rows(d, m, rng.substream(t))
        max_pairwise, _ = _pairwise_stats(mat, eps)
        if max_pairwise > eps:
            failures += 1
    p_fail = failures / trials
    se = math.sqrt(p_fail * (1.0 - p_fail) / trials)
    return TestReport(
        statistic=p_fail,
        threshold=ub + 3.0 * se,
        alpha=2.0 * float(_norm.sf(3.0)),  # two-sided 3-sigma
        description=(
            f"random-coding success rate at d={d}, eps={eps}, M={m}: "
            f"failed {failures}/{trials}, union bound {ub:.6g}"
        ),
    )
