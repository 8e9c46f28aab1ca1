"""Quasi-orthogonal families: random-coding bounds, construction, checks.

A family of unit vectors is eps-quasi-orthogonal when every pairwise
squared overlap is at most eps. Random coding guarantees families of
size floor(exp[((d-1)/2)(-log(1-eps)) - 1/2]) exist: sampling that many
Haar states fails with probability below (1/2) M^2 (1-eps)^(d-1) < 1 by
the union bound over pairs. Everything here is evaluated in log space so
the doubly-exponential qubit regime never overflows.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import limits
from ._workers import _in_workers
from .overlap import TestReport
from .rng import RngStream
from .states import (_BLOCK_ROW_ALIGN, StateVector, _block_rows,
                     _gram_blocks, _haar_rows, _unit_rows)
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
# Trials in one span of success_rate_experiment, whose streams are keyed
# at once.
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
    """log of the bound at d = 2**n, ``log_lower_bound(2**n, eps)``; grows
    proportionally to 2**n."""
    n = integer("qubit count", n, 0, MAX_QUBITS_ANALYTIC)
    return log_lower_bound(2 ** n, eps)


def union_bound_failure(d: int, eps: float, m: int) -> float:
    """Union bound (1/2) M^2 (1-eps)^(d-1) on the construction failing.

    May exceed 1 (vacuous) and is reported as-is, as ``math.inf`` past
    the float range.
    """
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    m = integer("M", m, 2)
    log_p = math.log(0.5) + 2.0 * math.log(m) + (d - 1) * math.log1p(-eps)
    try:
        return math.exp(log_p)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
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


def _screen_delta(d: int) -> float:
    """Bound on |complex64 screen modulus - float64 modulus| of one pair
    of unit rows in dimension d (see :func:`_pairwise_stats`)."""
    return 2 * (d + 8) * 2.0 ** -24


def _pairwise_stats(mat: np.ndarray, eps: float):
    """Exact all-pairs max squared overlap and first violating pair.

    Works on the moduli blocks of ``_gram_blocks`` in place, whose
    diagonal and mirrored pairs are zero, and squares only the block
    max. Rounding is monotone, so fl(a * a) >= fl(b * b) for a >= b >= 0
    and the squared max is the max of the squares bit for bit. Only the
    first block whose max exceeds eps is squared whole; its row-major
    order is the lexicographic pair order, so its first entry above eps
    is the first violating pair.

    A Gram matrix of one block is read whole in float64. One of several
    blocks is first screened in complex64 (:func:`_strip_screen`), and
    16-row strips are recomputed in float64, each bit-identical to its
    rows of the dense Gram matrix, so the result is the same bits either
    way. Let s be the largest screened strip max. The true max modulus
    is at least s - delta, so a strip holding it screens at least
    s - 2 delta: those strips give the max. Only when it exceeds eps is
    the first violating pair looked for: a pair above eps has modulus at
    least about sqrt(eps), so its strip screens at least
    sqrt(eps) - 2 delta (the margin delta covers the rounding of sqrt
    and of the square). Those strips are recomputed in ascending order
    until one holds a pair above eps. The first usually does, so both
    steps recompute a few strips whatever eps.

    The screen is exact because delta = 2 (d + 8) u, u = 2**-24, bounds
    |screened modulus - float64 modulus| for rows of norm 1 +- 1e-9
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.1 and 3.6). In units of u: rounding the rows to complex64
    moves the exact inner product by at most 2 + u; the complex64 inner
    product of length d adds sqrt(2) gamma_{d+2} / u, gamma_n =
    n u / (1 - n u), at most 1.51 (d + 2) for d <= 2**20; the float32
    modulus (``hypotf``, or numpy's scaled square root, whose error
    measured 2.5 on 4e7 random values) adds at most 4; the float64
    product and modulus add under 0.01. The sum, below 1.51 d + 9.1, is
    inside 2 d + 16. Past d = 2**20 the gamma bound loses its room, and
    the screen is not used.
    """
    screen = _strip_screen(mat)
    if screen is None:
        max_pairwise, first_bad = 0.0, None
        for i0, block in _gram_blocks(mat):
            top = float(block.max())
            max_pairwise = max(max_pairwise, top * top)
            if first_bad is None and max_pairwise > eps:
                first_bad = _first_above(i0, block, eps)
        return max_pairwise, first_bad
    margin = 2 * _screen_delta(mat.shape[1])
    top = max(float(block.max()) for _, block
              in _gram_blocks(mat, _strips_from(screen, screen.max() - margin)))
    if top * top <= eps:
        return top * top, None
    for i0, block in _gram_blocks(
            mat, _strips_from(screen, math.sqrt(eps) - margin)):
        strip_top = float(block.max())
        if strip_top * strip_top > eps:
            return top * top, _first_above(i0, block, eps)
    raise AssertionError("no strip holds the pair above eps")


def _first_above(i0: int, block: np.ndarray, eps: float) -> tuple[int, int]:
    """First pair of a ``_gram_blocks`` block above eps, in row-major
    order; squares the block in place."""
    np.square(block, out=block)
    r, c = divmod(int(np.argmax(block > eps)), block.shape[1])
    return i0 + r, i0 + c


def _strip_screen(mat: np.ndarray):
    """Screened max modulus of each 16-row strip of ``mat``'s Gram
    matrix, in float64, or None when the Gram matrix is one block, the
    screen is not exact (d > 2**20) or a screened value is not finite.

    The screen runs ``_gram_blocks``' grid on a complex64 copy of the
    rows and keeps the float32 max of each strip, within delta of the
    float64 max (see :func:`_pairwise_stats`).
    """
    m, d = mat.shape
    if m - 1 <= _block_rows(m, _BLOCK_ROW_ALIGN) or d > 1 << 20:
        return None
    rowmax = np.empty(m, dtype=np.float32)
    rowmax[-1] = 0.0  # the last row has no partner
    for i0, block in _gram_blocks(mat.astype(np.complex64)):
        block.max(axis=1, out=rowmax[i0:i0 + block.shape[0]])
    # in float64, so that the cuts on it are not rounded to float32
    screen = np.maximum.reduceat(
        rowmax, np.arange(0, m, _BLOCK_ROW_ALIGN)).astype(np.float64)
    return screen if np.isfinite(screen).all() else None


def _strips_from(screen: np.ndarray, cut: float) -> np.ndarray:
    """Ascending starts of the strips whose screened max is at least cut."""
    return np.flatnonzero(screen >= cut) * _BLOCK_ROW_ALIGN


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
    limits.check_state_dim("d", d)
    limits.check_sample_count("M * d", m * d)
    limits.check_pairwise_ops("M", m, d)
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
    ``rng`` where that loop does. The accepted rows are taken in slices
    of ``_block_rows(b)`` rows, so the check holds at most one Gram
    block of overlaps at a time whatever ``target_m``.

    The product against the accepted rows runs on a complex64 mirror of
    them. Its max modulus w for a candidate is within delta of the
    float64 one (see :func:`_pairwise_stats`), so w + delta below
    sqrt(eps) (1 - 2**-40) accepts it and w - delta above sqrt(eps)
    (1 + 2**-40) rejects it, exactly as the float64 check would: the
    margin 2**-40 covers the rounding of sqrt and of the square. A batch
    with any candidate in neither case runs the float64 check instead.
    The final certification is :func:`_pairwise_stats`, screened too.

    Always returns a certified family; it may be shorter than
    ``target_m`` when the attempt budget runs out. ``max_attempts``
    counts against ``limits.MAX_SAMPLE_COUNT``, checked before anything
    is drawn.
    """
    target_m = integer("target_m", target_m, 1)
    max_attempts = integer("max_attempts", max_attempts, target_m)
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    limits.check_state_dim("d", d)
    limits.check_sample_count("max_attempts", max_attempts)
    limits.check_pairwise_ops("target_m", target_m, d)
    buffer = np.empty((target_m, d), dtype=np.complex128)
    mirror = np.empty((target_m, d), dtype=np.complex64)
    # a slice of the cross check has at most max(_block_rows(1), b)
    # moduli (one block's entries), and fewer than target_m * b
    cap = min(max(_block_rows(1), _GREEDY_BATCH), target_m * _GREEDY_BATCH)
    moduli, moduli32 = np.empty(cap), np.empty(cap, dtype=np.float32)
    delta = _screen_delta(d)
    clear_lo = math.sqrt(eps) * (1.0 - 2.0 ** -40)
    clear_hi = math.sqrt(eps) * (1.0 + 2.0 ** -40)
    size = attempts = 0
    while size < target_m and attempts < max_attempts:
        b = min(_GREEDY_BATCH, target_m - size, max_attempts - attempts)
        attempts += b
        cand = _haar_rows(d, b, rng)
        cand_conj_t = cand.conj().T
        worst = _worst_moduli(mirror[:size], cand_conj_t.astype(np.complex64),
                              moduli32).astype(np.float64)
        fits = worst + delta < clear_lo
        if not (fits | (worst - delta > clear_hi)).all():
            worst = _worst_moduli(buffer[:size], cand_conj_t, moduli)
            # the max modulus squared is the max squared overlap bit for
            # bit (see _pairwise_stats), so only the b maxima are squared
            fits = np.square(worst, out=worst) <= eps
        clash = np.abs(cand @ cand_conj_t) ** 2 > eps
        kept = []
        for j in np.flatnonzero(fits):
            if not clash[kept, j].any():
                kept.append(j)
        buffer[size:size + len(kept)] = cand[kept]
        mirror[size:size + len(kept)] = cand[kept]
        size += len(kept)
    accepted = buffer[:size]
    max_pairwise, _ = _pairwise_stats(accepted, eps)
    return QuasiOrthogonalFamily(dim=d, eps=eps, rows=accepted,
                                 max_pairwise=max_pairwise)


def _worst_moduli(rows: np.ndarray, cand_conj_t: np.ndarray,
                  moduli: np.ndarray) -> np.ndarray:
    """Max over ``rows`` of |row @ cand_conj_t| for each candidate column,
    0 with no rows, in the dtype of ``moduli``, the buffer that holds one
    slice of ``_block_rows(b)`` rows at a time."""
    b = cand_conj_t.shape[1]
    worst = np.zeros(b, dtype=moduli.dtype)
    step = _block_rows(b)
    for lo in range(0, len(rows), step):
        cross = rows[lo:lo + step] @ cand_conj_t
        cross = np.abs(cross, out=moduli[:cross.size].reshape(cross.shape))
        np.maximum(worst, cross.max(axis=0), out=worst)
    return worst


def verify(family: QuasiOrthogonalFamily) -> tuple[float, bool]:
    """Exact all-pairs certification: the maximum pairwise squared overlap
    and whether it is within ``family.eps``. The family is not changed."""
    limits.check_pairwise_ops("family size", family.size, family.dim)
    max_pairwise, _ = _pairwise_stats(family.rows, family.eps)
    return max_pairwise, max_pairwise <= family.eps


def _binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, min(p, 1)).

    The terms fall away from the mode, so the sum starts at k and runs
    away from it: the tail above the mode, its complement below. The
    first term comes from ``math.lgamma``, each next one by its ratio.
    """
    if k <= 0 or p >= 1.0:
        return 1.0
    if k > n or p <= 0.0:
        return 0.0
    upper = k > (n + 1) * p - 1
    j = k if upper else k - 1
    log_first = (math.lgamma(n + 1) - math.lgamma(j + 1)
                 - math.lgamma(n - j + 1) + j * math.log(p)
                 + (n - j) * math.log1p(-p))
    odds = p / (1.0 - p)
    total, term = 0.0, 1.0
    while term > 1e-17 * total:
        total += term
        term *= (n - j) / (j + 1) * odds if upper else j / ((n - j + 1) * odds)
        j += 1 if upper else -1
    mass = math.exp(log_first) * total
    return min(mass, 1.0) if upper else max(1.0 - mass, 0.0)


def success_rate_experiment(d: int, eps: float, m: int, trials: int,
                            rng: RngStream) -> TestReport:
    """Check that random coding succeeds at least as often as the union
    bound guarantees.

    Trial t is one construction that draws what ``rng.substream(t)``
    draws. The trials run in spans of ``_RATE_BLOCK`` on the workers of
    ``_workers._in_workers``. Each span keys its streams at once
    (``RngStream._descendants``, one generator per span) and counts its
    failures; the counts are summed after the join, so the report does
    not depend on the worker count, and memory grows with ``trials`` by
    one count per span only. The union bound caps the failure
    probability, so the failure count passes when P(Binomial(trials, min(ub, 1)) >= failures)
    is at least ``_ALPHA_3SIGMA``. The report statistic is the empirical
    failure fraction and the threshold the largest passing fraction.
    ``trials`` counts against ``limits.MAX_SAMPLE_COUNT``, checked before
    anything is drawn.
    """
    trials = integer("trials", trials, 30)
    d = integer("d", d, 1)
    eps = real("eps", eps, 0.0, 1.0, hi_open=True)
    m = integer("M", m, 2)
    limits.check_state_dim("d", d)
    limits.check_sample_count("M * d", m * d)
    limits.check_sample_count("trials", trials)
    limits.check_pairwise_ops("M", m, d)
    ub = union_bound_failure(d, eps, m)
    counts = []

    def block(t0, t1):
        """Build and certify trials [t0, t1); append their failures."""
        failed = 0
        for stream in rng._descendants(np.arange(t0, t1)[:, None]):
            mat = _haar_rows(d, m, stream)
            max_pairwise, _ = _pairwise_stats(mat, eps)
            failed += max_pairwise > eps
        counts.append(failed)

    _in_workers(block, trials, _RATE_BLOCK)
    failures = sum(counts)
    # the tail falls as the count grows: the first failing count, less one
    passing = bisect.bisect_left(
        range(trials + 1), True,
        key=lambda k: _binomial_tail(k, trials, ub) < _ALPHA_3SIGMA) - 1
    return TestReport(
        statistic=failures / trials,
        threshold=passing / trials,
        alpha=_ALPHA_3SIGMA,
        description=(
            f"random-coding success rate at d={d}, eps={eps}, M={m}: "
            f"failed {failures}/{trials}, union bound {ub:.6g}"
        ),
    )
