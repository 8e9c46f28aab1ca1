"""Quasi-orthogonal families: random-coding bounds, construction, checks.

A family of unit vectors is eps-quasi-orthogonal when every pairwise
squared overlap is at most eps. Random coding guarantees families of
size floor(exp[((d-1)/2)(-log(1-eps)) - 1/2]) exist: sampling that many
Haar states fails with probability below (1/2) M^2 (1-eps)^(d-1) < 1 by
the union bound over pairs. Everything here is evaluated in log space so
the doubly-exponential qubit regime never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import limits
from ._workers import _in_workers
from .overlap import TestReport
from .rng import RngStream, _Rekeyed
from .states import (_GRAM_BLOCK_ENTRIES, StateVector, _gram_blocks,
                     _haar_rows, _unit_rows)
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
# Below exp(this) = 2**53 the bound's floor is computed exactly; above,
# floats are no longer dense in the integers and the float value is used.
_EXACT_FLOOR_ARG = 53 * math.log(2.0)
# Largest qubit count for which 2**n is a float-representable dimension.
MAX_QUBITS_ANALYTIC = 1000
# Two-sided 3-sigma level 2 * scipy.stats.norm.sf(3.0), bit for bit, so
# the module does not import scipy.stats (about 1 s of start-up).
# math.erfc(3 / math.sqrt(2)) differs from it by about 11 ulp.
_ALPHA_3SIGMA = 0.0026997960632601866
# Candidates drawn and checked together by greedy_construct: one
# matrix-matrix product per batch instead of one matrix-vector product
# per candidate. 64 measured best; 32-128 was flat.
_GREEDY_BATCH = 64
# Trials of success_rate_experiment that a worker claims, and whose
# streams it keys, at once.
_RATE_BLOCK = 16


def log_lower_bound(d: int, eps: float) -> float:
    """Natural log of the random-coding bound: ((d-1)/2)(-log(1-eps)) - 1/2."""
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    return 0.5 * (d - 1) * (-math.log1p(-eps)) - 0.5


def lower_bound(d: int, eps: float) -> int:
    """Guaranteed family size floor(exp(log_lower_bound(d, eps))).

    Below 2**53 this is the floor of the exact bound for the given
    (d, eps), computed in decimal arithmetic: a float exp() rounds
    values just below an integer up to it, which would claim one more
    vector than the bound guarantees. Returns 0 whenever the exponent
    makes the floor vanish (eps = 0 or d = 1 give exponent -1/2). Raises
    OverflowError once the value exceeds float range; use
    :func:`log_lower_bound` in that regime.
    """
    log_m = log_lower_bound(d, eps)
    if log_m > _MAX_EXP_ARG:
        raise OverflowError(
            f"bound exp({log_m:.6g}) exceeds float range; "
            "use log_lower_bound/qubit_capacity_log"
        )
    if log_m < _EXACT_FLOOR_ARG:
        # validated above; numpy integers do not convert to Decimal
        return _exact_floor(int(d), float(eps))
    return int(math.floor(math.exp(log_m)))


def _exact_floor(d: int, eps: float) -> int:
    """floor(exp(((d-1)/2)(-ln(1-eps)) - 1/2)) for the binary value of eps.

    Each decimal operation is correctly rounded, so at ``prec`` digits
    the value is off by far less than 10**(20 - prec) below 2**53; the
    precision doubles until the value is at least that far from an
    integer, which it always is for some precision (the bound is never
    an integer).
    """
    prec = 40
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            x = Decimal(d - 1) / 2 * -(1 - Decimal(eps)).ln() - Decimal("0.5")
            value = x.exp()
            floor = int(value)
            margin = Decimal(10) ** (20 - prec)
            if value - floor > margin and floor + 1 - value > margin:
                return floor
        prec *= 2


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


@dataclass(frozen=True)
class QuasiOrthogonalFamily:
    """Unit vectors, the rows of one read-only ``(size, dim)`` matrix,
    with a certified maximum pairwise squared overlap.

    ``rows`` is stored by ``frozen_array``. The family is a value: no
    field can be assigned after construction.

    ``max_pairwise`` is the maximum a certifying constructor found, or
    None when none was given; :func:`verify` returns the certified
    maximum and leaves the family as it is. A singleton family has
    max_pairwise 0 by convention. A given value must be a finite
    number >= 0.
    """

    dim: int
    eps: float
    rows: np.ndarray
    max_pairwise: float | None = None

    def __post_init__(self):
        dim = integer("dim", self.dim, 1)
        eps = real("eps", self.eps, 0.0, 1.0, hi_open=True)
        rows = _unit_rows("family rows", self.rows, 2)
        if rows.shape[1] != dim:
            raise ValueError(f"family rows must have {dim} columns, "
                             f"got shape {rows.shape}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "rows", rows)
        if self.max_pairwise is not None:
            object.__setattr__(self, "max_pairwise",
                               real("max_pairwise", self.max_pairwise, 0.0))

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def vectors(self) -> list[StateVector]:
        """The rows as ``StateVector`` objects, built on each access."""
        return [StateVector(row) for row in self.rows]


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


def _pairwise_stats(mat: np.ndarray, eps: float):
    """Exact all-pairs max squared overlap and first violating pair.

    Works on the moduli blocks of ``_gram_blocks`` in place: the diagonal
    and the mirrored pairs below it in each block's leading square are
    zeroed, and only the block max is squared. Rounding is monotone, so
    fl(a * a) >= fl(b * b) for a >= b >= 0 and the squared max is the max
    of the squares bit for bit. Only the first block whose max exceeds
    eps is squared whole; its row-major order is the lexicographic pair
    order, so its first entry above eps is the first violating pair.
    """
    max_pairwise, first_bad, lower = 0.0, None, None
    for i0, block in _gram_blocks(mat):
        b = block.shape[0]
        if lower is None:  # the first block is the tallest
            lower = np.tri(b, dtype=bool)
        np.copyto(block[:, :b], 0.0, where=lower[:b, :b])
        top = float(block.max())
        max_pairwise = max(max_pairwise, top * top)
        if first_bad is None and max_pairwise > eps:
            np.square(block, out=block)
            r, c = divmod(int(np.argmax(block > eps)), block.shape[1])
            first_bad = (i0 + r, i0 + c)
    return max_pairwise, first_bad


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
    mat = _haar_rows(d, m, rng)
    max_pairwise, failure_pair = _pairwise_stats(mat, eps)
    success = max_pairwise <= eps
    family = (QuasiOrthogonalFamily(dim=d, eps=eps, rows=mat,
                                    max_pairwise=max_pairwise)
              if success else None)
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

    Candidates are drawn and checked in batches of up to
    ``_GREEDY_BATCH``: one matrix product against the accepted rows,
    then, in candidate order, against the ones accepted earlier in the
    batch, read from the batch's own Gram matrix. A batch is never
    larger than the rows still wanted or the attempts left, so the call
    draws exactly the candidates of the one-at-a-time loop and leaves
    ``rng`` where that loop does. The accepted rows are taken in slices,
    so the check holds at most ``_GRAM_BLOCK_ENTRIES`` overlaps at a
    time whatever ``target_m``.

    Always returns a certified family; it may be shorter than
    ``target_m`` when the attempt budget runs out.
    """
    target_m = integer("target_m", target_m, 1)
    max_attempts = integer("max_attempts", max_attempts, target_m)
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    limits.check_state_dim(d)
    limits.check_pairwise_ops(target_m, d)
    buffer = np.empty((target_m, d), dtype=np.complex128)
    # a slice of the cross check has at most max(_GRAM_BLOCK_ENTRIES, b)
    # moduli, and fewer than target_m * b
    moduli = np.empty(min(max(_GRAM_BLOCK_ENTRIES, _GREEDY_BATCH),
                          target_m * _GREEDY_BATCH))
    size = attempts = 0
    while size < target_m and attempts < max_attempts:
        b = min(_GREEDY_BATCH, target_m - size, max_attempts - attempts)
        attempts += b
        cand = _haar_rows(d, b, rng)
        cand_conj_t = cand.conj().T
        worst = np.zeros(b)
        step = max(1, _GRAM_BLOCK_ENTRIES // b)
        for lo in range(0, size, step):
            cross = buffer[lo:min(lo + step, size)] @ cand_conj_t
            cross = np.abs(cross, out=moduli[:cross.size].reshape(cross.shape))
            np.maximum(worst, cross.max(axis=0), out=worst)
        # the max modulus squared is the max squared overlap bit for bit
        # (see _pairwise_stats), so only the b maxima are squared
        np.square(worst, out=worst)
        clash = np.abs(cand @ cand_conj_t) ** 2 > eps
        kept = []
        for j in np.flatnonzero(worst <= eps):
            if not clash[kept, j].any():
                kept.append(j)
        buffer[size:size + len(kept)] = cand[kept]
        size += len(kept)
    accepted = buffer[:size]
    max_pairwise, _ = _pairwise_stats(accepted, eps)
    return QuasiOrthogonalFamily(dim=d, eps=eps, rows=accepted,
                                 max_pairwise=max_pairwise)


def verify(family: QuasiOrthogonalFamily) -> tuple[float, bool]:
    """Exact all-pairs certification: the maximum pairwise squared overlap
    and whether it is within ``family.eps``. The family is not changed."""
    limits.check_pairwise_ops(family.size, family.dim)
    max_pairwise, _ = _pairwise_stats(family.rows, family.eps)
    return max_pairwise, max_pairwise <= family.eps


def success_rate_experiment(d: int, eps: float, m: int, trials: int,
                            rng: RngStream) -> TestReport:
    """Check that random coding succeeds at least as often as the union
    bound guarantees.

    Trial t is one construction drawn from ``rng.substream(t)``. The
    trials run on the worker threads that ``suppression_experiment``
    uses (``_workers._in_workers``): up to two, never more than the CPUs
    the process may use, with numpy's BLAS held to one thread while more
    than one runs. Each worker claims ``_RATE_BLOCK`` trials at a time,
    keys their streams at once (``RngStream._child_states``), draws them
    through its one reused generator and counts its own failures; the
    counts are summed after the join, so the report does not depend on
    the worker count and memory does not grow with ``trials``. The report
    statistic is the empirical failure fraction and the threshold is the
    union bound plus three binomial standard errors.
    """
    trials = integer("trials", trials, 30)
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    m = integer("M", m, 2)
    limits.check_state_dim(d)
    limits.check_sample_count(m * d)
    limits.check_pairwise_ops(m, d)
    ub = union_bound_failure(d, eps, m)
    counts = []

    def work(claims):
        """Build and certify the claimed trials; append the failures."""
        keyed, failed = _Rekeyed(), 0
        for t0 in claims:
            tails = np.arange(t0, min(t0 + _RATE_BLOCK, trials))[:, None]
            for state in rng._child_states(tails):
                mat = _haar_rows(d, m, keyed.at(state))
                max_pairwise, _ = _pairwise_stats(mat, eps)
                failed += max_pairwise > eps
        counts.append(failed)

    _in_workers(work, range(0, trials, _RATE_BLOCK))
    failures = sum(counts)
    p_fail = failures / trials
    se = math.sqrt(p_fail * (1.0 - p_fail) / trials)
    return TestReport(
        statistic=p_fail,
        threshold=ub + 3.0 * se,
        alpha=_ALPHA_3SIGMA,
        description=(
            f"random-coding success rate at d={d}, eps={eps}, M={m}: "
            f"failed {failures}/{trials}, union bound {ub:.6g}"
        ),
    )
