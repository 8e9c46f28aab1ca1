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
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .rng import RngStream
from .states import complex_gaussians
from .validate import integer, real

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
# Complex entries per draw of sample_overlaps (2 MB, about an L2 cache),
# so the sampler holds O(n_samples + d) memory whatever the sample size.
_SAMPLE_CHUNK_ENTRIES = 1 << 17


def pdf(d: int, x):
    """Density (d-1)(1-x)^(d-2) of the squared overlap at dimension d.

    Accepts scalars or arrays; x must lie in [0, 1]. Evaluated as
    exp(log(d-1) + (d-2) log1p(-x)) for numerical stability at large d.
    """
    d = integer("d", d, 2)
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
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
    es = np.asarray(eps, dtype=float)
    if not np.all((es >= 0.0) & (es <= 1.0)):
        raise ValueError("eps must lie in [0, 1]")
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
    flag vacuity (see :func:`is_vacuous`) rather than hide it.
    """
    d = integer("d", d, 1)
    delta = real("delta", delta, 0.0, lo_open=True)
    lipschitz = real("lipschitz", lipschitz, 0.0, lo_open=True)
    exponent = -(2 * d - 1) * delta ** 2 / (9 * math.pi ** 3 * lipschitz ** 2)
    return 2.0 * math.exp(exponent)


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
    """Outcome of a statistical check; passes iff statistic <= threshold."""

    __test__ = False  # not a pytest class, despite the name

    statistic: float
    threshold: float
    alpha: float
    description: str
    passed: bool = field(init=False)

    def __post_init__(self):
        statistic = real("statistic", self.statistic)
        threshold = real("threshold", self.threshold)
        object.__setattr__(self, "passed", statistic <= threshold)


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted squared-overlap draws plus the seed record that made them.

    ``values`` is a read-only view of a contiguous float64 input, which
    is not copied: the caller's array stays writable, and writing to it
    later changes the sample unchecked.
    """

    dim: int
    values: np.ndarray
    seed_record: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "dim", integer("dim", self.dim, 2))
        vals = np.ascontiguousarray(self.values, dtype=float).view()
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty 1-D sequence")
        # a NaN fails every comparison, so it cannot pass either check;
        # once sorted, the end points bound all values
        if not np.all(np.diff(vals) >= 0):
            raise ValueError("values must be sorted ascending")
        if not (vals[0] >= 0.0 and vals[-1] <= 1.0):
            raise ValueError("overlap values must lie in [0, 1]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return self.values.size


def sample_overlaps(d: int, n_samples: int, rng: RngStream) -> EmpiricalSample:
    """Draw squared overlaps of Haar states against the fixed basis state e_1.

    By unitary invariance this matches the overlap law of independently
    drawn pairs while costing one state per sample. Each sample consumes
    2d real normals in the same order as :func:`quasiortho.states.haar_state`,
    so the values depend only on ``(seed, stream_index)`` and not on the
    internal chunking.
    """
    d = integer("d", d, 2)
    n_samples = integer("n_samples", n_samples, 1)
    # draws are chunked, but a chunk holds at least one d-entry state
    limits.check_state_dim(d)
    limits.check_sample_count(n_samples)
    chunk_rows = max(1, _SAMPLE_CHUNK_ENTRIES // d)
    out = np.empty(n_samples, dtype=float)
    done = 0
    while done < n_samples:
        rows = min(chunk_rows, n_samples - done)
        # squared real and imaginary parts, in place on the real view of
        # the draw; the common 1/2 scale of the Gaussians cancels
        x = complex_gaussians(rng, (rows, d)).view(np.float64)
        np.square(x, out=x)
        # a row sum over the contiguous axis gives each row the same bits
        # in any chunk; einsum("ij,ij->i") does not, as it sums a lone row
        # in 8192-entry pieces once 2d exceeds that
        out[done:done + rows] = (x[:, 0] + x[:, 1]) / x.sum(axis=1)
        done += rows
    out.sort()
    return EmpiricalSample(dim=d, values=out,
                           seed_record=(rng.seed, rng.stream_index))


def ks_critical_value(alpha: float) -> float:
    """Asymptotic Kolmogorov critical value c(alpha) = sqrt(ln(2/alpha)/2).

    c(0.01) = 1.6276; the one-sample threshold at size N is c(alpha)/sqrt(N).
    """
    alpha = real("alpha", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    return math.sqrt(0.5 * math.log(2.0 / alpha))


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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989): the normal quantile as three rational approximations.
# P0/Q0 cover exp(-2) < y < 1 - exp(-2); P1/Q1 and P2/Q2 are in z = 1/x
# with x = sqrt(-2 log y) on the tail, for 2 <= x < 8 and x >= 8. Each Q
# leads with the 1.0 that Cephes' p1evl implies: 1.0 * x is exact, so
# Horner's rule through it gives p1evl's bits.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N], in Horner order (no fused multiply-add)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile: x with Phi(x) = y, for y in [0, 1].

    A port of Cephes ``ndtri``, the routine behind
    ``scipy.special.ndtri``, operation for operation, so that it returns
    the same bits.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    negate = True
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:   # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def wilson_interval(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at level alpha."""
    n = integer("n", n, 1)
    k = integer("k", k, 0, n)
    alpha = real("alpha", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    z = _ndtri(1.0 - alpha / 2.0)
    p_hat = k / n
    denom = 1.0 + z ** 2 / n
    center = (p_hat + z ** 2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / n + z ** 2 / (4 * n ** 2))
    # the interval contains p_hat analytically; enforce it against round-off
    lo = min(center - half, p_hat)
    hi = max(center + half, p_hat)
    return max(0.0, lo), min(1.0, hi)
