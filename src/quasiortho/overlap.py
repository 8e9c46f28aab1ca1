"""Analytic law of Haar squared overlaps, tail bounds, and verification.

For a Haar-random state and any fixed unit vector, the squared overlap
X = |<phi|psi>|^2 follows Beta(1, d-1): density (d-1)(1-x)^(d-2), mean
1/d, survival P(X >= eps) = (1-eps)^(d-1). The general concentration
bound for L-Lipschitz functions on the sphere is also provided, both in
its generic form and specialized to the overlap functional (L = 2).

All tail quantities are evaluated in log space via ``log1p`` so they do
not underflow at d ~ 1e3-1e4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import limits
from ._workers import _in_workers
from .rng import RngStream
from .states import complex_gaussians
from .validate import address, frozen_array, integer, real

__all__ = [
    "OverlapDistribution",
    "EmpiricalSample",
    "TestReport",
    "pdf",
    "cdf",
    "survival",
    "mean",
    "levy_tail_bound",
    "overlap_tail_bound",
    "two_sided_exact_tail",
    "is_vacuous",
    "sample_overlaps",
    "ks_test",
    "ks_critical_value",
    "wilson_interval",
]

# Minimum sample size for the asymptotic Kolmogorov critical value.
KS_MIN_SAMPLES = 100
# Complex entries per block of sample_overlaps (2 MB, about an L2 cache),
# so each worker holds O(d) memory beyond the output whatever the sample
# size. It fixes which samples a block's stream draws: changing it
# changes every sample_overlaps value, and so every overlap-dist output.
_SAMPLE_CHUNK_ENTRIES = 1 << 17


def _in_unit_interval(name: str, value) -> np.ndarray:
    """``value``, a real number or an array of them, as floats that all
    lie in [0, 1]. Only integer and float dtypes count as real: a string,
    bytes, boolean or complex value raises ValueError, and so does an int
    beyond the float range, which numpy holds as an object."""
    xs = np.asarray(value)
    if not (xs.dtype.kind in "iuf"
            and np.all((xs >= 0.0) & (xs <= 1.0))):
        raise ValueError(f"{name} must be a real number in [0, 1] "
                         "or an array of them")
    return xs.astype(float, copy=False)


def pdf(d: int, x):
    """Density (d-1)(1-x)^(d-2) of the squared overlap at dimension d.

    Accepts scalars or arrays; x must lie in [0, 1]. Evaluated as
    exp(log(d-1) + (d-2) log1p(-x)) for numerical stability at large d.
    """
    d = integer("d", d, 2)
    xs = _in_unit_interval("x", x)
    at_one = xs == 1.0
    safe = np.where(at_one, 0.0, xs)
    with np.errstate(divide="ignore"):
        out = np.exp(math.log(d - 1) + (d - 2) * np.log1p(-safe))
    # exact at the edges: (1-x)^0 == 1 for d == 2 even at x == 1, and the
    # exp/log round trip must not smear the x == 0 value d - 1
    out = np.where(at_one, 1.0 if d == 2 else 0.0, out)
    out = np.where(xs == 0.0, float(d - 1), out)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def survival(d: int, eps):
    """Exact survival P(X >= eps) = (1-eps)^(d-1) for eps in [0, 1]."""
    d = integer("d", d, 2)
    es = _in_unit_interval("eps", eps)
    with np.errstate(divide="ignore"):
        out = np.exp((d - 1) * np.log1p(-es))
    return float(out) if np.isscalar(eps) or out.ndim == 0 else out


def cdf(d: int, x):
    """Distribution function 1 - (1-x)^(d-1); monotone non-decreasing."""
    s = survival(d, x)
    return 1.0 - s


def mean(d: int) -> float:
    """Haar mean of the squared overlap: exactly 1/d."""
    return 1.0 / integer("d", d, 1)


def levy_tail_bound(d: int, delta: float, lipschitz: float) -> float:
    """Concentration bound 2 exp[-(2d-1) delta^2 / (9 pi^3 L^2)].

    Valid for any L-Lipschitz function on the unit sphere of C^d. The
    bound can exceed 1 (vacuous); it is returned as-is so callers can
    flag vacuity (see :func:`is_vacuous`) rather than hide it. Where the
    numerator or denominator of the exponent leaves the normal float
    range, the exponent is built from binary mantissas and exponents.
    """
    d = integer("d", d, 1)
    delta = real("delta", delta, 0.0, lo_open=True)
    lipschitz = real("lipschitz", lipschitz, 0.0, lo_open=True)
    try:
        num = -(2 * d - 1) * delta ** 2
        den = 9 * math.pi ** 3 * lipschitz ** 2
    except OverflowError:
        num = den = math.inf
    if (sys.float_info.min <= -num < math.inf
            and sys.float_info.min <= den < math.inf):
        return 2.0 * math.exp(num / den)
    n = 2 * d - 1
    m_delta, e_delta = math.frexp(delta)
    m_lip, e_lip = math.frexp(lipschitz)
    ratio = (n / (1 << n.bit_length()) * m_delta ** 2
             / (9 * math.pi ** 3 * m_lip ** 2))
    try:
        exponent = math.ldexp(ratio, n.bit_length() + 2 * (e_delta - e_lip))
    except OverflowError:
        return 0.0
    return 2.0 * math.exp(-exponent)


def overlap_tail_bound(d: int, delta: float) -> float:
    """Tail bound for the squared-overlap functional: L = 2 case,
    2 exp[-(2d-1) delta^2 / (36 pi^3)]."""
    return levy_tail_bound(d, delta, 2.0)


def is_vacuous(bound: float) -> bool:
    """True when a probability bound carries no information (>= 1)."""
    return real("bound", bound, 0.0) >= 1.0


def two_sided_exact_tail(d: int, delta: float) -> float:
    """Exact P(|X - 1/d| >= delta) from the Beta law.

    Upper term: survival at 1/d + delta (0 once that exceeds 1). Lower
    term: cdf at 1/d - delta, which vanishes for delta >= 1/d.
    """
    d = integer("d", d, 2)
    delta = real("delta", delta, 0.0, lo_open=True)
    m = 1.0 / d
    upper = survival(d, min(1.0, m + delta))
    lower = cdf(d, max(0.0, m - delta)) if delta < m else 0.0
    return float(upper + lower)


@dataclass(frozen=True)
class OverlapDistribution:
    """The Beta(1, d-1) law of the squared overlap at dimension d."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", integer("dim", self.dim, 2))

    def pdf(self, x):
        return pdf(self.dim, x)

    def cdf(self, x):
        return cdf(self.dim, x)

    def survival(self, eps):
        return survival(self.dim, eps)

    def mean(self) -> float:
        return mean(self.dim)


@dataclass(frozen=True)
class TestReport:
    """Outcome of a statistical check; passes iff statistic <= threshold.

    ``alpha`` is the check's significance level, in (0, 1) as for
    :func:`ks_critical_value`.
    """

    __test__ = False  # not a pytest class, despite the name

    statistic: float
    threshold: float
    alpha: float
    description: str
    passed: bool = field(init=False)

    def __post_init__(self):
        statistic = real("statistic", self.statistic)
        threshold = real("threshold", self.threshold)
        real("alpha", self.alpha, 0.0, 1.0, lo_open=True, hi_open=True)
        object.__setattr__(self, "passed", statistic <= threshold)


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """Sorted squared-overlap draws plus the seed record that made them.

    ``values`` is stored by ``frozen_array`` and ``seed_record`` by
    ``validate.address``.
    """

    dim: int
    values: np.ndarray
    seed_record: tuple[int, ...]  # RngStream.address

    def __post_init__(self):
        object.__setattr__(self, "dim", integer("dim", self.dim, 2))
        object.__setattr__(self, "seed_record",
                           address("seed_record", self.seed_record))
        vals = frozen_array("values", self.values, np.float64, 1)
        # a NaN fails every comparison, so it cannot pass either check;
        # once sorted, the end points bound all values
        if not np.all(np.diff(vals) >= 0):
            raise ValueError("values must be sorted ascending")
        if not (vals[0] >= 0.0 and vals[-1] <= 1.0):
            raise ValueError("overlap values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return self.values.size


def sample_overlaps(d: int, n_samples: int, rng: RngStream) -> EmpiricalSample:
    """Draw squared overlaps of Haar states against the fixed basis state e_1.

    By unitary invariance this matches the overlap law of independently
    drawn pairs while costing one state per sample. The samples are drawn
    in blocks of ``R = max(1, _SAMPLE_CHUNK_ENTRIES // d)``: block ``b``
    holds samples ``[b R, min((b + 1) R, n_samples))`` and draws their
    2d real normals each, in the order of
    :func:`quasiortho.states.haar_state`, from what ``rng.substream(b)``
    draws. Each block keys its stream (``RngStream._descendants``) and
    writes its own slice of the output; the blocks run on the workers of
    ``_workers._in_workers``, and the sort follows the join. The values
    therefore depend only on ``d``, ``n_samples`` and ``rng.address``,
    not on the worker count.
    """
    d = integer("d", d, 2)
    n_samples = integer("n_samples", n_samples, 1)
    # a block holds at least one d-entry state
    limits.check_state_dim("d", d)
    limits.check_sample_count("n_samples", n_samples)
    rows = max(1, _SAMPLE_CHUNK_ENTRIES // d)
    out = np.empty(n_samples, dtype=float)

    def block(lo, hi):
        """Key, draw and reduce samples [lo, hi)."""
        stream = next(rng._descendants([[lo // rows]]))
        # squared real and imaginary parts, in place on the real view
        # of the draw; the common 1/2 scale of the Gaussians cancels
        x = complex_gaussians(stream, (hi - lo, d)).view(np.float64)
        np.square(x, out=x)
        # a row sum over the contiguous axis gives each row the same
        # bits in any block; einsum("ij,ij->i") does not, as it sums a
        # lone row in 8192-entry pieces once 2d exceeds that
        out[lo:hi] = (x[:, 0] + x[:, 1]) / x.sum(axis=1)

    _in_workers(block, n_samples, rows)
    out.sort()
    return EmpiricalSample(dim=d, values=out,
                           seed_record=rng.address)


def ks_critical_value(alpha: float) -> float:
    """Asymptotic Kolmogorov critical value c(alpha) = sqrt(ln(2/alpha)/2).

    c(0.01) = 1.6276; the one-sample threshold at size N is c(alpha)/sqrt(N).
    """
    alpha = real("alpha", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    ratio = 2.0 / alpha   # inf for alpha below 2 / float max
    log_ratio = (math.log(ratio) if ratio < math.inf
                 else math.log(2.0) - math.log(alpha))
    return math.sqrt(0.5 * log_ratio)


def ks_test(sample: EmpiricalSample, alpha: float = 0.01) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against the Beta(1, d-1) CDF.

    Requires at least ``KS_MIN_SAMPLES`` values (the critical value is
    asymptotic). The statistic is sup_x |ECDF(x) - F(x)|.
    """
    n = sample.count
    if n < KS_MIN_SAMPLES:
        raise ValueError(
            f"KS test needs at least {KS_MIN_SAMPLES} samples, got {n}"
        )
    threshold = ks_critical_value(alpha) / math.sqrt(n)
    f = cdf(sample.dim, sample.values)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    statistic = max(d_plus, d_minus)
    return TestReport(
        statistic=statistic,
        threshold=threshold,
        alpha=alpha,
        description=f"KS vs Beta(1,{sample.dim - 1}) CDF, N={n}",
    )


def wilson_interval(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at level alpha."""
    n = integer("n", n, 1)
    k = integer("k", k, 0, n)
    # above the least subnormal, so that alpha / 2 does not round to 0
    alpha = real("alpha", alpha, math.ulp(0.0), 1.0, lo_open=True,
                 hi_open=True)
    from statistics import NormalDist  # lazily: no CLI command needs its ~1 ms
    # minus the lower alpha/2 quantile: 1 - alpha/2 would round the tail away
    z = -NormalDist().inv_cdf(alpha / 2.0)
    p_hat = k / n
    denom = 1.0 + z ** 2 / n
    center = (p_hat + z ** 2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / n + z ** 2 / (4 * n ** 2))
    # the interval contains p_hat analytically; enforce it against round-off
    lo = min(center - half, p_hat)
    hi = max(center + half, p_hat)
    return max(0.0, lo), min(1.0, hi)
