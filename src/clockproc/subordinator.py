"""Stable-subordinator reference process and arcsine-law statistics.

The limiting clock is a pure-jump increasing process whose jump intensity has
the power-law tail  nu(u, inf) = K * u^(-alpha),  0 < alpha < 1.  Paths are
sampled from the Poisson point representation restricted to jumps above a
cutoff u_min; the mean of the omitted small jumps is known exactly
(K*alpha/(1-alpha)*u_min^(1-alpha) per unit time) and is added back as a
linear compensation when evaluating path values, which keeps range events
accurate at cutoffs coarse enough to sample cheaply.  The compensation can be
switched off to study the raw truncated law (e.g. against its exact Laplace
transform).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import BudgetError, HorizonError, ParameterValidationError

__all__ = [
    "PowerLawLevyMeasure",
    "SubordinatorPath",
    "KSResult",
    "sample_path",
    "extend_path",
    "write_path_csv",
    "arcsine_cdf",
    "crossing_probability",
    "crossing_probability_batch",
    "sample_totals",
    "truncated_laplace_exponent",
    "ks_statistic",
]

DEFAULT_JUMP_BUDGET = 1.0e8


@dataclass(frozen=True)
class PowerLawLevyMeasure:
    """Jump intensity with tail  nu(u, inf) = amplitude * u^(-alpha)."""

    amplitude: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.amplitude > 0:
            raise ParameterValidationError(f"amplitude must be positive; got {self.amplitude}")
        if not 0 < self.alpha < 1:
            raise ParameterValidationError(f"alpha must lie in (0, 1); got {self.alpha}")

    def tail(self, u) -> np.ndarray:
        """nu(u, inf)."""
        return self.amplitude * np.asarray(u, dtype=np.float64) ** (-self.alpha)

    def small_jump_mean(self) -> float:
        """integral_0^1 u nu(du) = amplitude * alpha / (1 - alpha); finite for alpha < 1."""
        return self.amplitude * self.alpha / (1.0 - self.alpha)

    def truncated_mean_rate(self, cutoff: float) -> float:
        """Mean mass per unit time of the jumps below ``cutoff`` that sampling omits."""
        if not cutoff > 0:
            raise ParameterValidationError(f"cutoff must be positive; got {cutoff}")
        return self.amplitude * self.alpha / (1.0 - self.alpha) * cutoff ** (1.0 - self.alpha)

    def jump_sizes(self, cutoff: float, u: np.ndarray) -> np.ndarray:
        """Jump sizes above ``cutoff`` from uniforms ``u``, by inverting the conditional tail."""
        return cutoff * u ** (-1.0 / self.alpha)


@dataclass
class SubordinatorPath:
    """Jumps of one sampled path on [0, horizon], time-sorted.

    ``truncation_bias_bound`` is the exact mean of the omitted sub-cutoff
    jump mass over the horizon; compensated evaluation adds it back as the
    linear rate ``compensation_rate``.
    """

    measure: PowerLawLevyMeasure
    horizon: float
    cutoff: float
    times: np.ndarray
    sizes: np.ndarray

    @property
    def compensation_rate(self) -> float:
        return self.measure.truncated_mean_rate(self.cutoff)

    @property
    def truncation_bias_bound(self) -> float:
        return self.compensation_rate * self.horizon

    @property
    def jumps(self) -> list[tuple[float, float]]:
        """(time, size) pairs, time-sorted."""
        return [(float(t), float(x)) for t, x in zip(self.times, self.sizes)]

    def values(self, compensated: bool = True) -> np.ndarray:
        """Path value immediately after each jump."""
        out = np.cumsum(self.sizes)
        if compensated:
            out = out + self.compensation_rate * self.times
        return out

    def supremum(self, compensated: bool = True) -> float:
        total = float(self.sizes.sum())
        if compensated:
            total += self.compensation_rate * self.horizon
        return total


def sample_path(
    measure: PowerLawLevyMeasure,
    horizon: float,
    cutoff: float,
    rng: np.random.Generator,
    max_expected_jumps: float = DEFAULT_JUMP_BUDGET,
) -> SubordinatorPath:
    """Sample the Poisson point representation restricted to jumps > cutoff.

    Jump count is Poisson with mean horizon * nu(cutoff, inf); times are
    uniform on [0, horizon]; sizes follow the conditional power law above the
    cutoff.  Raises BudgetError when the expected jump count exceeds the
    budget (default 1e8).
    """
    if not horizon > 0:
        raise ParameterValidationError(f"horizon must be positive; got {horizon}")
    if not cutoff > 0:
        raise ParameterValidationError(f"cutoff must be positive; got {cutoff}")
    expected = horizon * float(measure.tail(cutoff))
    if expected > max_expected_jumps:
        raise BudgetError(
            f"expected jump count {expected:.3g} exceeds the budget {max_expected_jumps:.3g}; "
            "raise the cutoff or the budget"
        )
    count = int(rng.poisson(expected))
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    sizes = measure.jump_sizes(cutoff, rng.uniform(size=count))
    return SubordinatorPath(
        measure=measure, horizon=horizon, cutoff=cutoff, times=times, sizes=sizes
    )


def extend_path(
    path: SubordinatorPath, new_horizon: float, rng: np.random.Generator
) -> SubordinatorPath:
    """Append fresh Poisson points on (horizon, new_horizon]; prefix unchanged."""
    if new_horizon <= path.horizon:
        raise ParameterValidationError(
            f"new horizon {new_horizon} must exceed the current horizon {path.horizon}"
        )
    extra = (new_horizon - path.horizon) * float(path.measure.tail(path.cutoff))
    count = int(rng.poisson(extra))
    t_new = np.sort(rng.uniform(path.horizon, new_horizon, size=count))
    s_new = path.measure.jump_sizes(path.cutoff, rng.uniform(size=count))
    return SubordinatorPath(
        measure=path.measure,
        horizon=new_horizon,
        cutoff=path.cutoff,
        times=np.concatenate([path.times, t_new]),
        sizes=np.concatenate([path.sizes, s_new]),
    )


def write_path_csv(path: SubordinatorPath, file) -> None:
    """Export a path's jumps as CSV with columns t_k, xi_k."""
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_k", "xi_k"])
        for t, x in zip(path.times, path.sizes):
            writer.writerow([repr(float(t)), repr(float(x))])


def sample_totals(
    measure: PowerLawLevyMeasure,
    horizon: float,
    cutoff: float,
    count: int,
    rng: np.random.Generator,
    compensated: bool = False,
) -> np.ndarray:
    """End values S(horizon) of ``count`` independent truncated paths.

    Only the marginal at the horizon is needed, so jump times are never
    materialised.
    """
    expected = horizon * float(measure.tail(cutoff))
    if expected * count > DEFAULT_JUMP_BUDGET:
        raise BudgetError(
            f"total expected jump count {expected * count:.3g} exceeds {DEFAULT_JUMP_BUDGET:.3g}"
        )
    counts = rng.poisson(expected, size=count)
    total = int(counts.sum())
    sizes = measure.jump_sizes(cutoff, rng.uniform(size=total))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    sums = np.add.reduceat(np.concatenate([sizes, [0.0]]), bounds[:-1])
    sums[counts == 0] = 0.0
    if compensated:
        sums = sums + measure.truncated_mean_rate(cutoff) * horizon
    return sums


def arcsine_cdf(alpha: float, x) -> np.ndarray | float:
    """Generalised arcsine law: regularized incomplete beta I_x(alpha, 1-alpha).

    This is the limiting probability that an alpha-stable subordinator's
    range misses (t, t+s) when x = t/(t+s).  Evaluated through the
    continued-fraction incomplete-beta implementation; at alpha = 1/2 it
    reduces to (2/pi) * arcsin(sqrt(x)).
    """
    if not 0 < alpha < 1:
        raise ParameterValidationError(f"alpha must lie in (0, 1); got {alpha}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any((arr < 0) | (arr > 1)):
        raise ParameterValidationError("x must lie in [0, 1]")
    out = special.betainc(alpha, 1.0 - alpha, arr)
    return float(out) if np.isscalar(x) else out


def crossing_probability(path: SubordinatorPath, t: float, s: float, compensated: bool = True) -> int:
    """Indicator that the path's range misses the open interval (t, t+s).

    Equals 1 exactly when the jump straddling level t starts at or below t
    and lands at or above t+s (s = 0 gives 1: the empty interval).  Raises
    HorizonError when the path has not yet exceeded t+s.
    """
    if t < 0 or s < 0:
        raise ParameterValidationError("t and s must be nonnegative")
    if path.supremum(compensated) <= t + s:
        raise HorizonError(
            f"path supremum {path.supremum(compensated):.6g} has not passed t+s={t + s:.6g}; "
            "extend the horizon"
        )
    if s == 0:
        return 1
    post = path.values(compensated)
    pre = post - path.sizes
    idx = int(np.searchsorted(post, t, side="right"))
    if idx >= len(post):
        return 0  # level t is crossed by the compensation drift after the last jump
    return int(pre[idx] <= t and post[idx] >= t + s)


def crossing_probability_batch(
    times: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    drift: float,
    t: float,
    s: float,
) -> np.ndarray:
    """Vectorised crossing indicators over padded path matrices.

    ``times``/``sizes`` are (paths, max_jumps) with rows padded by +inf times
    and zero sizes past ``counts``.  Returns -1 where the path never exceeded
    t+s (caller decides how to handle), else the 0/1 indicator.
    """
    post = np.cumsum(sizes, axis=1)
    if drift:
        finite = np.isfinite(times)
        post = post + drift * np.where(finite, times, 0.0)
    pre = post - sizes
    sup = post[np.arange(len(counts)), np.maximum(counts - 1, 0)]
    sup = np.where(counts > 0, sup, 0.0)
    out = np.full(len(counts), -1, dtype=np.int64)
    done = sup > t + s
    if s == 0:
        out[done] = 1
        return out
    # first jump whose landing value exceeds t; rows are monotone in post
    idx = (post <= t).sum(axis=1)
    idx_clipped = np.minimum(idx, post.shape[1] - 1)
    rows = np.arange(len(counts))
    straddle = (pre[rows, idx_clipped] <= t) & (post[rows, idx_clipped] >= t + s)
    valid = done & (idx < np.maximum(counts, 1))
    out[valid] = straddle[valid].astype(np.int64)
    out[done & ~valid] = 0
    return out


def truncated_laplace_exponent(measure: PowerLawLevyMeasure, cutoff: float, v: float) -> float:
    """Quadrature of integral_cutoff^inf (1 - e^(-v*u)) nu(du).

    The Laplace transform of the raw truncated path at horizon T is
    exp(-T * value); with the full measure (cutoff -> 0) the exponent tends
    to amplitude * Gamma(1-alpha) * v^alpha.
    """
    if v < 0:
        raise ParameterValidationError(f"v must be nonnegative; got {v}")
    if v == 0:
        return 0.0
    a = measure.alpha
    k = measure.amplitude

    def integrand(u):
        return -special.expm1(-v * u) * k * a * u ** (-a - 1.0)

    mid = max(cutoff, 10.0 / v)
    part1, _ = integrate.quad(integrand, cutoff, mid, epsabs=1e-13, epsrel=1e-11, limit=200)
    part2, _ = integrate.quad(integrand, mid, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
    return part1 + part2


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    sample_size: int


def ks_statistic(sample, cdf) -> KSResult:
    """Two-sided sup distance between an empirical sample and a CDF callable.

    Sorts internally; the p-value is the asymptotic Kolmogorov survival
    function at sqrt(N) * D.  With a single observation D reduces to
    max(F(x), 1 - F(x)).
    """
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    if xs.size == 0:
        raise ParameterValidationError("sample must be non-empty")
    f = np.asarray(cdf(xs), dtype=np.float64)
    if f.shape != xs.shape:
        raise ParameterValidationError("cdf callable must return one value per sample point")
    n = xs.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    d = float(max(np.max(grid_hi - f), np.max(f - grid_lo)))
    p = float(special.kolmogorov(math.sqrt(n) * d))
    return KSResult(statistic=d, p_value=p, sample_size=n)
