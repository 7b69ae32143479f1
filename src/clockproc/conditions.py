"""Verification statistics for the jump-intensity conditions of the blocked clock.

The blocked clock converges to a stable subordinator when, in distribution
over the environment, (i) the aggregated jump intensity

    nu_hat(u) = k * P_pi( block sum > u * time_scale )

settles onto a power law K * t * u^(-alpha), (ii) its two-step-correlated
square vanishes, (iii) the initial holding time is negligible on the
observation scale, and (iv) the truncated mean of a single rescaled jump
vanishes with the truncation level.  This module estimates each of those
quantities by Monte Carlo over walks (and, where a closed form exists, by
quadrature), fits tail exponents, and packages the lot into a report with
pass / warn / fail verdicts.

Estimator conventions used throughout:

* block = ``block_length`` consecutive visited states; consecutive blocks of
  one walk are adjacent, and a uniform start makes every block start
  stationary;
* thresholds ``u`` and transform arguments ``v`` are in units of the
  observation time scale;
* all randomness is drawn from a :class:`~clockproc.seeding.ReplicaStreams`
  pair (walk stream for moves and starts, noise stream for waiting times), so
  every estimate is reproducible from the stream seeds alone.
* a chunk of walks that holds at least 2^n states of a table-backed
  environment reads per-state tables gathered by state, with the bits of
  the per-state computation: the block sums gather the 2^n scaled holds
  exp(beta*H - log time scale), built once per call, and the block Laplace
  transform gathers, for each v, the 2^n terms logaddexp(0, log v + beta*H -
  log time scale) of the fold in :func:`conditional_block_laplace`.

Two deliberately redundant routes exist for the correlated-square statistic
(two-step kernel versus split one-step products); consistency between routes
is part of the report.  The block Laplace transform is estimated by the
conditional closed form over the walk only; its direct-sampling counterpart
(waiting times drawn too) lives in ``tests/reference_estimators.py`` as a
test oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from scipy import special

from .chain import index_walk, mixing_check, simulate_segment
from .environment import (
    MAX_TABLE_SPINS,
    CouplingTensor,
    Environment,
    validate_parameters,
)
from .errors import (
    CapabilityError,
    DegenerateScaleError,
    ParameterValidationError,
)
from .parallel import ordered_map
from .seeding import ReplicaStreams, StreamFamily
from .verdicts import SLOPE_WINDOW, ladder, slope_status, worst, z_score, z_status

__all__ = [
    "TailEstimate",
    "IntensityEstimate",
    "SquaredTailEstimate",
    "LaplaceIntensityEstimate",
    "InitialTermEstimate",
    "TruncatedMeanEstimate",
    "ConcentrationReport",
    "ConditionReport",
    "estimate_block_tail_grid",
    "estimate_intensity",
    "estimate_squared_tail_grid",
    "conditional_block_laplace",
    "estimate_intensity_laplace",
    "estimate_initial_term",
    "estimate_truncated_mean",
    "truncated_mean_quadrature",
    "truncated_mean_asymptotic",
    "degenerate_block_tail",
    "degenerate_block_laplace",
    "degenerate_initial_term",
    "concentration_diagnostic",
    "build_condition_report",
    "degenerate_laplace_check",
    "plain",
    "resolve_block_count",
]

# Chunking constant for batched walks (states held in memory at once).  The
# walk states, the waiting-time draws and each sample's block sum do not depend
# on it: starts are drawn before the chunk loop, and each stream's draws
# concatenate across chunks as one draw would.  Running sums over samples do:
# the transform moments and the truncated-mean sums add one partial sum per
# chunk, so their last digits move with it.  It is fixed for that reason.
_CHUNK_STATES = 4_000_000

# states gathered at once by the term-table fold, a slice of rows at a time
_GATHER_STATES = 1 << 16


def _uniform_starts(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 1 << n, size=count, dtype=np.uint64)


def _iter_block_states(
    env: Environment,
    count: int,
    streams: ReplicaStreams,
    presteps: int = 0,
    starts: np.ndarray | None = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(lo, hi, states)`` over chunks of ``count`` independent block walks.

    Sample i walks ``presteps`` moves from its start, then its block covers
    the next ``block_length`` visited states; ``states`` holds the packed
    blocks of samples lo..hi-1, shape (hi-lo, block_length).  Starts default
    to uniform (the stationary law).  Consumes only the walk stream.
    """
    window_steps = presteps + env.block_length - 1
    if starts is None:
        starts = _uniform_starts(env.n, count, streams.walk)
    else:
        starts = np.asarray(starts, dtype=np.uint64)
        if starts.shape != (count,):
            raise ParameterValidationError("starts must be a vector of length `count`")
    chunk = max(1, _CHUNK_STATES // (window_steps + 1))
    for lo in range(0, count, chunk):
        hi = min(count, lo + chunk)
        # no name here holds the walk, so the caller frees it by dropping ``states``
        yield lo, hi, index_walk(env.n, starts[lo:hi], window_steps, streams.walk)[:, presteps:]


def _folds_by_table(env: Environment, states: np.ndarray) -> bool:
    """Whether a chunk of walk states reads a per-state table of 2^n entries:
    the energies are tabulated and the chunk holds at least 2^n states, so the
    table costs less than computing its terms state by state."""
    return env.has_energy_table and states.size >= 1 << env.n


def _scaled_holds(env: Environment, energies: np.ndarray) -> np.ndarray:
    """exp(beta*H - log time scale) of ``energies``, in place, saturating to inf."""
    energies *= env.beta
    energies -= env.log_time_scale
    with np.errstate(over="ignore"):
        return np.exp(energies, out=energies)


def _block_sums(
    env: Environment,
    count: int,
    streams: ReplicaStreams,
    presteps: int = 0,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled sums exp(beta*H - log time scale) * e over the blocks of
    :func:`_iter_block_states`, waiting times from the noise stream.

    Chunks that :func:`_folds_by_table` admits gather each state's scaled hold
    from a table of the 2^n values exp(beta*H - log time scale), built once
    per call; other chunks compute them from the states' energies.  Either way
    each hold takes the same operations in the same order, so the sums are
    bit-identical, and a chunk holds one window of holds and one of draws.
    """
    if count < 1:
        raise ParameterValidationError(f"sample count must be >= 1; got {count}")
    sums = np.empty(count)
    hold_table = None
    for lo, hi, states in _iter_block_states(env, count, streams, presteps, starts):
        if _folds_by_table(env, states):
            if hold_table is None:
                hold_table = _scaled_holds(env, _all_energies(env))
            holds = hold_table[states.view(np.int64)]
        else:
            holds = _scaled_holds(env, env.energies(states))
        del states
        draws = streams.noise.standard_exponential((hi - lo, env.block_length))
        draws *= holds
        del holds
        sums[lo:hi] = draws.sum(axis=1)
    return sums


def resolve_block_count(env: Environment, horizon: float | None, block_count: int | None) -> int:
    """The explicit block count, else the horizon's."""
    if block_count is not None:
        if block_count < 1:
            raise ParameterValidationError(f"block count must be >= 1; got {block_count}")
        return int(block_count)
    if horizon is None:
        raise ParameterValidationError("pass a horizon t or an explicit block count")
    k = env.block_count(horizon)
    if k == 0:
        raise DegenerateScaleError(
            f"horizon t={horizon} yields zero complete aggregation blocks at n={env.n}; "
            "pass an explicit block count"
        )
    return k


def _literal_block_count(env: Environment, horizon: float | None) -> int | None:
    """The horizon's own block count, or None where the jump-count scale is unusable."""
    if horizon is None:
        return None
    try:
        return env.block_count(horizon)
    except DegenerateScaleError:
        return None


@dataclass(frozen=True)
class _LineFit:
    slope: float
    slope_se: float
    intercept: float
    intercept_se: float
    cov: float  # covariance of (intercept, slope) estimates


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, se: np.ndarray) -> _LineFit:
    w = 1.0 / se**2
    wsum = w.sum()
    xbar = (w * x).sum() / wsum
    ybar = (w * y).sum() / wsum
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx <= 0:
        raise ParameterValidationError("degenerate abscissa grid for the weighted fit")
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    return _LineFit(
        slope=float(slope),
        slope_se=float(math.sqrt(1.0 / sxx)),
        intercept=float(intercept),
        intercept_se=float(math.sqrt(1.0 / wsum + xbar**2 / sxx)),
        cov=float(-xbar / sxx),
    )


# ---------------------------------------------------------------------------
# tail probabilities of a single block


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of one exceedance probability."""

    threshold: float
    probability: float
    stderr: float
    samples: int


def _tail_from_sums(sums: np.ndarray, threshold: float) -> TailEstimate:
    m = sums.size
    p = float(np.mean(sums > threshold))
    return TailEstimate(
        threshold=float(threshold),
        probability=p,
        stderr=math.sqrt(p * (1.0 - p) / m),
        samples=m,
    )


def estimate_block_tail_grid(
    env: Environment,
    thresholds: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
) -> list[TailEstimate]:
    """Exceedance probabilities over a threshold grid from one shared sample.

    Sharing the block sums across thresholds (common random numbers) makes
    the grid monotone by construction and the fitted slope far less noisy
    than independent per-threshold runs.
    """
    sums = _block_sums(env, samples, streams)
    return [_tail_from_sums(sums, u) for u in thresholds]


# ---------------------------------------------------------------------------
# aggregated intensity and its tail exponent


@dataclass(frozen=True)
class IntensityEstimate:
    """Block-count-scaled exceedance curve with a weighted log-log tail fit."""

    thresholds: tuple[float, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    block_count: int
    samples: int
    slope: float
    slope_se: float
    intercept: float
    intercept_se: float


def estimate_intensity(
    env: Environment,
    horizon: float | None,
    thresholds: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    block_count: int | None = None,
) -> IntensityEstimate:
    """nu_hat(u) = k * P(block sum > u) over a threshold grid, with slope fit.

    The weighted least-squares fit of log nu_hat against log u runs over grid
    points whose hit rate is strictly inside (0, 1); the slope estimates the
    negated tail exponent.
    """
    k = resolve_block_count(env, horizon, block_count)
    tails = estimate_block_tail_grid(env, thresholds, samples, streams)
    values = np.array([k * t.probability for t in tails])
    stderrs = np.array([k * t.stderr for t in tails])
    usable = (values > 0) & (stderrs > 0) & (np.array([t.probability for t in tails]) < 1)
    if usable.sum() < 2:
        raise ParameterValidationError(
            "tail fit needs at least two thresholds with hit rates strictly inside (0, 1); "
            "widen the threshold grid or raise the sample count"
        )
    fit = _weighted_line_fit(
        np.log(np.asarray(thresholds, dtype=np.float64)[usable]),
        np.log(values[usable]),
        stderrs[usable] / values[usable],
    )
    return IntensityEstimate(
        thresholds=tuple(float(u) for u in thresholds),
        values=tuple(float(x) for x in values),
        stderrs=tuple(float(x) for x in stderrs),
        block_count=k,
        samples=samples,
        slope=fit.slope,
        slope_se=fit.slope_se,
        intercept=fit.intercept,
        intercept_se=fit.intercept_se,
    )


# ---------------------------------------------------------------------------
# correlated square of the intensity


@dataclass(frozen=True)
class SquaredTailEstimate:
    threshold: float
    value: float
    stderr: float
    samples: int
    block_count: int
    route: str


def _squared_tail_indicators(
    env: Environment,
    thresholds: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    route: str,
) -> np.ndarray:
    """(len(thresholds), samples) joint-exceedance indicators for one route.

    Route "two-step": block from x and an independent block from a state two
    moves away (the kernel form of the correlated square).  Route "split":
    two independent one-move-then-block runs from the same x, whose product
    is an unbiased estimate of the squared one-step-averaged tail.  The two
    routes target the same quantity through the walk's reversibility and are
    kept separate so that agreement is an actual check.
    """
    if route == "two-step":
        xs = _uniform_starts(env.n, samples, streams.walk)
        ys = index_walk(env.n, xs, 2, streams.walk)[:, 2]
        first = _block_sums(env, samples, streams, starts=xs)
        second = _block_sums(env, samples, streams, starts=ys)
    elif route == "split":
        xs = _uniform_starts(env.n, samples, streams.walk)
        first = _block_sums(env, samples, streams, presteps=1, starts=xs)
        second = _block_sums(env, samples, streams, presteps=1, starts=xs)
    else:
        raise ParameterValidationError(f"unknown route {route!r}; use 'two-step' or 'split'")
    grid = np.asarray(thresholds, dtype=np.float64)
    return (first[None, :] > grid[:, None]) & (second[None, :] > grid[:, None])


def estimate_squared_tail_grid(
    env: Environment,
    thresholds: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    block_count: int,
    route: str = "two-step",
) -> list[SquaredTailEstimate]:
    k = resolve_block_count(env, None, block_count)
    joint = _squared_tail_indicators(env, thresholds, samples, streams, route)
    out = []
    for u, row in zip(thresholds, joint):
        p = float(row.mean())
        out.append(
            SquaredTailEstimate(
                threshold=float(u),
                value=k * p,
                stderr=k * math.sqrt(p * (1.0 - p) / samples),
                samples=samples,
                block_count=k,
                route=route,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Laplace transforms


def conditional_block_laplace(env: Environment, energies, v: float):
    """Laplace transform of a block sum given its walk, exactly in the waiting times.

    For unit-mean exponential holds, integrating them out of
    E[exp(-v * block/time_scale) | walk] leaves the product of
    1 / (1 + v * exp(beta*H_j)/time_scale) over the visited states, evaluated
    here through logaddexp so extreme energies cannot overflow.  Accepts one
    energy vector (returns a float) or a batch with blocks on the last axis.

    This is the reference fold.  The transform estimator folds through it
    on the chunks that :func:`_folds_by_table` turns down: past the energy
    table (n > ``MAX_TABLE_SPINS``) and on chunks of fewer than 2^n states.
    The chunks it admits gather the same terms from a per-v table instead,
    with identical bits, under the rule the block sums' hold table follows.
    """
    if v < 0:
        raise ParameterValidationError(f"transform argument must be nonnegative; got {v}")
    arr = np.asarray(energies, dtype=np.float64)
    if v == 0:
        return 1.0 if arr.ndim == 1 else np.ones(arr.shape[:-1])
    z = math.log(v) + env.beta * arr - env.log_time_scale
    out = np.exp(-np.logaddexp(0.0, z).sum(axis=-1))
    return float(out) if arr.ndim == 1 else out


def _table_folds(env: Environment, v_values: Sequence[float], states: np.ndarray):
    """:func:`conditional_block_laplace` of each positive v over a chunk of
    walk states, read from a table of the 2^n terms logaddexp(0, log v +
    beta*H - log time scale) gathered by state (for chunks that
    :func:`_folds_by_table` admits, the rule :func:`_block_sums` shares).

    Each term takes the reference fold's operations in its order, and each
    row's gathered terms are summed over the same contiguous block, so the
    result is bit-identical.  One term buffer serves every v, and one buffer
    of ``_GATHER_STATES`` states takes the rows a slice at a time.
    """
    scaled = _all_energies(env)
    scaled *= env.beta
    terms = np.empty_like(scaled)
    index = states.view(np.int64)
    rows = max(1, _GATHER_STATES // states.shape[-1])
    gathered = np.empty((min(rows, len(states)), states.shape[-1]))
    for v in v_values:
        np.add(scaled, math.log(v), out=terms)
        terms -= env.log_time_scale
        np.logaddexp(0.0, terms, out=terms)
        folds = np.empty(len(states))
        for lo in range(0, len(states), rows):
            part = gathered[: min(rows, len(states) - lo)]
            # indices are in range; any mode but "raise" gathers straight into ``out``
            np.take(terms, index[lo : lo + rows], out=part, mode="clip")
            np.exp(-part.sum(axis=-1), out=folds[lo : lo + len(part)])
        yield folds


def _conditional_transform_moments(
    env: Environment, v_values: Sequence[float], samples: int, streams: ReplicaStreams
):
    sums = np.zeros(len(v_values))
    squares = np.zeros(len(v_values))
    lows = np.full(len(v_values), np.inf)
    highs = np.full(len(v_values), -np.inf)
    for _, _, states in _iter_block_states(env, samples, streams):
        if _folds_by_table(env, states):
            folds = _table_folds(env, v_values, states)
        else:
            energies = env.energies(states)
            folds = (conditional_block_laplace(env, energies, v) for v in v_values)
        del states
        for j, g in enumerate(folds):
            sums[j] += g.sum()
            squares[j] += (g * g).sum()
            lows[j] = min(lows[j], g.min())
            highs[j] = max(highs[j], g.max())
    means = sums / samples
    if samples > 1:
        variances = np.maximum(squares - samples * means**2, 0.0) / (samples - 1)
        # a constant sample (e.g. beta = 0, where the transform does not depend
        # on the walk at all) has exactly zero variance; the running-moment
        # difference would report cancellation noise instead
        variances[highs == lows] = 0.0
    else:
        variances = np.zeros_like(means)
    return means, np.sqrt(variances)


@dataclass(frozen=True)
class LaplaceIntensityEstimate:
    """Intensity read off the block Laplace transform: k*(1 - E G(v))/v.

    On the power-law plateau this behaves like K * t * Gamma(1-alpha) *
    v^(alpha-1), so the weighted log-log slope estimates alpha - 1 and the
    intercept carries the tail amplitude.  ``fitted_amplitude`` divides the
    Gamma factor back out; it is reported with a delta-method stderr for
    orientation and is deliberately not a certified output.
    """

    v_values: tuple[float, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    block_count: int
    samples: int
    slope: float
    slope_se: float
    intercept: float
    intercept_se: float
    fitted_alpha: float
    fitted_alpha_se: float
    fitted_amplitude: float
    fitted_amplitude_se: float


def estimate_intensity_laplace(
    env: Environment,
    horizon: float | None,
    v_values: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    block_count: int | None = None,
) -> LaplaceIntensityEstimate:
    k = resolve_block_count(env, horizon, block_count)
    if np.any(np.asarray(v_values, dtype=np.float64) <= 0):
        raise ParameterValidationError("transform arguments must be positive for the intensity fit")
    means, stds = _conditional_transform_moments(env, v_values, samples, streams)
    varr = np.asarray(v_values, dtype=np.float64)
    values = k * (1.0 - means) / varr
    stderrs = k * stds / math.sqrt(samples) / varr
    usable = (values > 0) & (stderrs > 0)
    slope = slope_se = intercept = intercept_se = math.nan
    alpha_hat = alpha_se = amp = amp_se = math.nan
    if usable.sum() >= 2:
        fit = _weighted_line_fit(
            np.log(varr[usable]), np.log(values[usable]), stderrs[usable] / values[usable]
        )
        slope, slope_se = fit.slope, fit.slope_se
        intercept, intercept_se = fit.intercept, fit.intercept_se
        alpha_hat = 1.0 + slope
        alpha_se = slope_se
        if horizon is not None and 0 < alpha_hat < 1:
            log_amp = intercept - math.log(horizon) - math.lgamma(1.0 - alpha_hat)
            amp = math.exp(log_amp)
            psi = special.digamma(1.0 - alpha_hat)
            var_log = (
                intercept_se**2 + (psi * slope_se) ** 2 + 2.0 * psi * fit.cov
            )
            amp_se = amp * math.sqrt(max(var_log, 0.0))
    return LaplaceIntensityEstimate(
        v_values=tuple(float(v) for v in v_values),
        values=tuple(float(x) for x in values),
        stderrs=tuple(float(x) for x in stderrs),
        block_count=k,
        samples=samples,
        slope=slope,
        slope_se=slope_se,
        intercept=intercept,
        intercept_se=intercept_se,
        fitted_alpha=alpha_hat,
        fitted_alpha_se=alpha_se,
        fitted_amplitude=amp,
        fitted_amplitude_se=amp_se,
    )


# ---------------------------------------------------------------------------
# initial holding time


@dataclass(frozen=True)
class InitialTermEstimate:
    v: float
    value: float
    stderr: float
    samples: int
    exact: bool


def _inverse_holds(env: Environment, energies: np.ndarray) -> np.ndarray:
    """time_scale / tau = exp(log time scale - beta*H), saturating to inf."""
    with np.errstate(over="ignore"):
        return np.exp(env.log_time_scale - env.beta * energies)


def _can_enumerate(env: Environment) -> bool:
    """Whether n is small enough to read every state's energy for exact references."""
    return env.n <= MAX_TABLE_SPINS


def _all_energies(env: Environment) -> np.ndarray:
    """Energies of every state, in state order."""
    if not _can_enumerate(env):
        raise CapabilityError(
            f"exact state enumeration is not available at n={env.n}; use Monte Carlo"
        )
    return env.energies(np.arange(1 << env.n, dtype=np.uint64))


def estimate_initial_term(
    env: Environment,
    v_values: Sequence[float],
    samples: int = 0,
    streams: ReplicaStreams | None = None,
    exact: bool = False,
) -> list[InitialTermEstimate]:
    """Probability that the rescaled starting hold exceeds v, from a uniform
    start, for every v of the grid.

    The exponential hold is integrated out exactly, leaving the average of
    exp(-v * time_scale * exp(-beta*H)) over states: all of the hypercube
    when ``exact`` (needs n <= ``MAX_TABLE_SPINS``, so that the states enumerate),
    otherwise a uniform Monte Carlo sample.  The exact mode enumerates the
    states once for the whole grid; the Monte Carlo mode draws its own
    ``samples`` uniform starts for each positive v, in grid order.  A v of 0
    gives 1 without drawing.  Values near 0 mean the starting hold is
    negligible on the observation scale; only starts whose hold mean is
    comparable to the whole observation window contribute at all.
    """
    if any(v < 0 for v in v_values):
        raise ParameterValidationError(f"thresholds must be nonnegative; got {list(v_values)}")
    if not exact and (streams is None or samples < 1):
        raise ParameterValidationError("Monte Carlo mode needs streams and samples >= 1")
    count = (1 << env.n) if exact else samples
    enumerated = None
    out = []
    for v in v_values:
        if v == 0:
            out.append(InitialTermEstimate(v=0.0, value=1.0, stderr=0.0, samples=count, exact=exact))
            continue
        if exact:
            if enumerated is None:  # once for the whole grid
                enumerated = _inverse_holds(env, _all_energies(env))
            inverse_holds = enumerated
        else:
            bits = _uniform_starts(env.n, samples, streams.walk)
            inverse_holds = _inverse_holds(env, env.energies(bits))
        with np.errstate(over="ignore"):
            terms = np.exp(-v * inverse_holds)
        stderr = float(terms.std(ddof=1) / math.sqrt(count)) if not exact and count > 1 else 0.0
        out.append(
            InitialTermEstimate(
                v=float(v), value=float(terms.mean()), stderr=stderr, samples=count, exact=exact
            )
        )
    return out


# ---------------------------------------------------------------------------
# truncated mean of a single rescaled jump


@dataclass(frozen=True)
class TruncatedMeanEstimate:
    epsilon: float
    horizon: float
    method: str
    mc_value: float
    mc_stderr: float
    samples: int
    quadrature_value: float | None
    asymptotic_value: float | None


def truncated_mean_asymptotic(
    alpha: float, beta: float, gamma: float, epsilon: float, horizon: float
) -> float:
    """Large-n reference for the truncated single-jump mean.

    Gamma(1+alpha) * eps^(1-alpha) * t / (beta - gamma/beta): its log-log
    slope in eps is exactly 1 - alpha, which is the part the checks assert.
    The prefactor follows the convention with an unnormalised Gaussian kernel
    and sits a factor sqrt(2*pi) above the normalised-measure limit, so it is
    reported for orientation only.
    """
    if not 0 < alpha < 1:
        raise ParameterValidationError(f"alpha must lie in (0, 1); got {alpha}")
    if beta <= 0 or gamma <= 0:
        raise ParameterValidationError("beta and gamma must be positive")
    denom = beta - gamma / beta
    if denom <= 0:
        raise ParameterValidationError("requires gamma < beta^2")
    return math.gamma(1.0 + alpha) * epsilon ** (1.0 - alpha) / denom * horizon


def truncated_mean_quadrature(env: Environment, epsilon: float, horizon: float) -> float:
    """Closed-form (quadrature) value of the annealed truncated-jump mean.

    Integrating the Gaussian energy marginal exactly gives

        step_scale * t / time_scale
          * int_0^inf x e^{-x} e^{s^2/2} Phi((gn + ln(eps/x))/s - s) dx,

    with s = beta*sqrt(n) and gn = log time_scale; everything is evaluated in
    log space (the factors span hundreds of e-folds individually but the
    product does not).
    """
    if epsilon <= 0:
        raise ParameterValidationError(f"epsilon must be positive; got {epsilon}")
    if env.beta <= 0:
        raise ParameterValidationError("the Gaussian-marginal closed form requires beta > 0")
    if env.step_scale is None or not math.isfinite(env.step_scale):
        raise DegenerateScaleError("jump-count scale unavailable at these parameters")
    # imported here rather than at the top: scipy.integrate adds about 0.3 s
    # to every start-up, and only the quadratures use it
    from scipy import integrate

    s = env.beta * math.sqrt(env.n)
    gn = env.log_time_scale
    log_eps = math.log(epsilon)

    def log_density(u):
        # u = ln x; extra factor x from the change of variables
        return 2.0 * u - np.exp(u) + 0.5 * s * s + special.log_ndtr((gn + log_eps - u) / s - s)

    grid = np.linspace(-400.0, 30.0, 2000)
    vals = log_density(grid)
    peak = float(vals.max())
    keep = np.where(vals > peak - 60.0)[0]
    lo, hi = float(grid[keep[0]]), float(grid[keep[-1]])
    integral, _ = integrate.quad(
        lambda u: math.exp(float(log_density(np.asarray(u))) - peak),
        lo,
        hi,
        limit=400,
        epsabs=1e-14,
        epsrel=1e-11,
    )
    log_value = peak + math.log(integral)
    return math.exp(math.log(env.step_scale * horizon) - gn + log_value)


def estimate_truncated_mean(
    env: Environment,
    eps_values: Sequence[float],
    horizon: float,
    samples: int,
    streams: ReplicaStreams,
) -> list[TruncatedMeanEstimate]:
    """Monte Carlo truncated-jump mean on an epsilon grid (common draws).

    The estimate is annealed: every sample redraws the energy from its exact
    Gaussian single-state marginal, which is the measure the quadrature
    reference integrates (``method`` is always "annealed").
    """
    if env.step_scale is None or not math.isfinite(env.step_scale):
        raise DegenerateScaleError("jump-count scale unavailable at these parameters")
    if samples < 2:
        raise ParameterValidationError("need at least two samples")
    eps_arr = np.asarray(eps_values, dtype=np.float64)
    if np.any(eps_arr <= 0):
        raise ParameterValidationError("epsilon values must be positive")
    scale = env.step_scale * horizon
    root_n = math.sqrt(env.n)
    sums = np.zeros(eps_arr.size)
    squares = np.zeros(eps_arr.size)
    chunk = _CHUNK_STATES
    for lo in range(0, samples, chunk):
        m = min(samples, lo + chunk) - lo
        log_tau = env.beta * root_n * streams.walk.standard_normal(m)
        draws = streams.noise.standard_exponential(m)
        with np.errstate(over="ignore"):
            vals = np.exp(log_tau - env.log_time_scale) * draws
        for j, eps in enumerate(eps_arr):
            kept = np.where(vals <= eps, vals, 0.0)
            sums[j] += kept.sum()
            squares[j] += (kept * kept).sum()
    out = []
    for j, eps in enumerate(eps_arr):
        mean = sums[j] / samples
        var = max(squares[j] / samples - mean * mean, 0.0) * samples / (samples - 1)
        quad_value = (
            truncated_mean_quadrature(env, float(eps), horizon) if env.beta > 0 else None
        )
        asym = (
            truncated_mean_asymptotic(env.alpha, env.beta, env.gamma, float(eps), horizon)
            if env.alpha is not None and 0 < env.alpha < 1
            else None
        )
        out.append(
            TruncatedMeanEstimate(
                epsilon=float(eps),
                horizon=float(horizon),
                method="annealed",
                mc_value=float(scale * mean),
                mc_stderr=float(scale * math.sqrt(var / samples)),
                samples=samples,
                quadrature_value=quad_value,
                asymptotic_value=asym,
            )
        )
    return out


# ---------------------------------------------------------------------------
# unit-holding (beta = 0) closed forms


def _require_unit_holding(env: Environment) -> None:
    if env.beta != 0:
        raise ParameterValidationError(
            "closed-form references require beta = 0 (unit mean holding times)"
        )


def degenerate_block_tail(env: Environment, threshold: float) -> float:
    """Exact block exceedance at beta = 0: a Gamma(block_length) upper tail."""
    _require_unit_holding(env)
    return float(special.gammaincc(env.block_length, threshold * env.time_scale))


def degenerate_block_laplace(env: Environment, v: float) -> float:
    """Exact block transform at beta = 0: (1 + v/time_scale)^(-block_length)."""
    _require_unit_holding(env)
    if v < 0:
        raise ParameterValidationError(f"transform argument must be nonnegative; got {v}")
    return math.exp(-env.block_length * math.log1p(v / env.time_scale))


def degenerate_initial_term(env: Environment, v: float) -> float:
    """Exact initial-hold survival at beta = 0: exp(-v * time_scale)."""
    _require_unit_holding(env)
    if v < 0:
        raise ParameterValidationError(f"threshold must be nonnegative; got {v}")
    return math.exp(-v * env.time_scale)


# ---------------------------------------------------------------------------
# environment-to-environment concentration


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical check of the intensity's environment concentration bound.

    Per sampled environment the quenched intensity is estimated from one long
    stationary walk; deviations from the across-environment mean are then
    compared, on a grid of deviation levels, against the Chebyshev-type bound
    (rho * mean^2 + correlated square) / eps^2.  ``rho`` is the exact
    block-mixing violation rescaled by pi_min^2 (``rho_source`` "measured"),
    unless overridden (``rho_source`` "override").
    """

    n: int
    p: int
    beta: float
    gamma: float
    threshold: float
    horizon: float | None
    block_count: int
    literal_block_count: int | None
    block_length: int
    replicas: int
    walk_blocks: int
    pair_samples: int
    nu_bar: float
    nu_bar_stderr: float
    nu_alt: float
    nu_alt_stderr: float
    nu_identity_z: float
    nu_identity_consistent: bool
    sigma_sq: float
    sigma_sq_stderr: float
    sigma_sq_alt: float
    sigma_sq_alt_stderr: float
    sigma_identity_z: float
    routes_consistent: bool
    rho: float
    rho_source: str
    deviation_scale: float
    eps_grid: tuple[float, ...]
    empirical_tail: tuple[float, ...]
    chebyshev_bound: tuple[float, ...]
    bound_satisfied: tuple[bool, ...]
    all_bounds_satisfied: bool
    quenched_intensities: tuple[float, ...]
    quenched_variance: float
    sampling_variance_share: float

    def to_dict(self) -> dict:
        return plain(self.__dict__ | {})


def concentration_diagnostic(
    n: int,
    p: int,
    beta: float,
    gamma: float,
    threshold: float,
    horizon: float | None = None,
    *,
    master_seed: int,
    replicas: int = 500,
    walk_blocks: int = 2000,
    pair_samples: int = 200,
    block_count: int | None = None,
    rho: float | None = None,
    eps_grid: Sequence[float] | None = None,
    zeta_table: dict[int, float] | None = None,
    threads: int = 1,
) -> ConcentrationReport:
    """Sample environments and test the quenched intensity's concentration.

    Each replica gets its own coupling draw and stream pair derived from
    ``master_seed``, so the report is reproducible and independent of
    ``threads``.  The deviation grid defaults to ten geometric points from
    half to eight times the bound's own scale sqrt(rho*nu^2 + sigma^2).
    """
    validate_parameters(n, p, beta, gamma, zeta_table)
    if replicas < 2:
        raise ParameterValidationError("need at least two environment replicas")
    family = StreamFamily(master_seed, "concentration")
    env_family = family.child("environment")

    def environment(i: int) -> Environment:
        return Environment(CouplingTensor.sample(n, p, env_family.seed_for(i)), beta, gamma)

    # replica 0's environment carries the scales every replica shares
    first = environment(0)
    theta = first.block_length
    literal = _literal_block_count(first, horizon)
    k = resolve_block_count(first, horizon, block_count)

    def worker(i: int):
        env = first if i == 0 else environment(i)
        streams = family.replica(i)
        walk = simulate_segment(env, None, walk_blocks * theta - 1, streams)
        # blocks start at step 0 here, unlike blocked_clock's
        with np.errstate(over="ignore"):
            increments = np.exp(env.beta * walk.energies - env.log_time_scale) * walk.exp_draws
        block_exceeds = increments.reshape(walk_blocks, theta).sum(axis=1) > threshold
        q_hat = float(block_exceeds.mean())
        # independent single-block marginal (fresh uniform starts) for the
        # mean-identity check, then the two correlated-square routes
        marginal = _block_sums(env, pair_samples, streams) > threshold
        two_step = _squared_tail_indicators(env, [threshold], pair_samples, streams, "two-step")
        split = _squared_tail_indicators(env, [threshold], pair_samples, streams, "split")
        return q_hat, float(marginal.mean()), float(two_step.mean()), float(split.mean())

    results = ordered_map(worker, replicas, threads)
    q = np.array([r[0] for r in results])
    m1 = np.array([r[1] for r in results])
    a = np.array([r[2] for r in results])
    b = np.array([r[3] for r in results])
    root_r = math.sqrt(replicas)
    nu_values = k * q
    nu_bar = float(nu_values.mean())
    nu_bar_se = float(nu_values.std(ddof=1) / root_r)
    nu_alt = float(k * m1.mean())
    nu_alt_se = float(k * m1.std(ddof=1) / root_r)
    # paired across replicas (shared environments), so the difference's own
    # spread is the right yardstick for the identity E[nu_quenched] = nu
    nu_diff = k * (q - m1)
    nu_z = z_score(float(nu_diff.mean()), 0.0, float(nu_diff.std(ddof=1) / root_r))
    sigma_sq = float(k * a.mean())
    sigma_sq_se = float(k * a.std(ddof=1) / root_r)
    sigma_alt = float(k * b.mean())
    sigma_alt_se = float(k * b.std(ddof=1) / root_r)
    diff = k * (a - b)
    sigma_z = z_score(float(diff.mean()), 0.0, float(diff.std(ddof=1) / root_r))

    if rho is not None:
        rho_value, rho_source = float(rho), "override"
    else:
        rho_value, rho_source = mixing_check(n, theta).rho_implied, "measured"

    bound_mass = rho_value * nu_bar**2 + sigma_sq
    scale = math.sqrt(bound_mass)
    if eps_grid is None:
        if scale <= 0:
            raise ParameterValidationError(
                "deviation scale vanished; the threshold is too extreme for these sample sizes"
            )
        eps_arr = np.geomspace(scale / 2.0, 8.0 * scale, 10)
    else:
        eps_arr = np.asarray(eps_grid, dtype=np.float64)
        if np.any(eps_arr <= 0):
            raise ParameterValidationError("deviation levels must be positive")
    deviations = np.abs(nu_values - nu_bar)
    empirical = np.array([(deviations >= e).mean() for e in eps_arr])
    bounds = np.minimum(1.0, bound_mass / eps_arr**2)
    satisfied = empirical <= bounds
    quenched_var = float(nu_values.var(ddof=1))
    mean_q = float(q.mean())
    walk_noise = k * k * mean_q * (1.0 - mean_q) / walk_blocks
    share = walk_noise / quenched_var if quenched_var > 0 else math.inf
    return ConcentrationReport(
        n=n,
        p=p,
        beta=beta,
        gamma=gamma,
        threshold=float(threshold),
        horizon=horizon,
        block_count=k,
        literal_block_count=literal,
        block_length=theta,
        replicas=replicas,
        walk_blocks=walk_blocks,
        pair_samples=pair_samples,
        nu_bar=nu_bar,
        nu_bar_stderr=nu_bar_se,
        nu_alt=nu_alt,
        nu_alt_stderr=nu_alt_se,
        nu_identity_z=float(nu_z),
        nu_identity_consistent=bool(nu_z <= 4.0),
        sigma_sq=sigma_sq,
        sigma_sq_stderr=sigma_sq_se,
        sigma_sq_alt=sigma_alt,
        sigma_sq_alt_stderr=sigma_alt_se,
        sigma_identity_z=float(sigma_z),
        routes_consistent=bool(sigma_z <= 3.0),
        rho=float(rho_value),
        rho_source=rho_source,
        deviation_scale=float(scale),
        eps_grid=tuple(float(e) for e in eps_arr),
        empirical_tail=tuple(float(e) for e in empirical),
        chebyshev_bound=tuple(float(bnd) for bnd in bounds),
        bound_satisfied=tuple(bool(s) for s in satisfied),
        all_bounds_satisfied=bool(satisfied.all()),
        quenched_intensities=tuple(float(x) for x in nu_values),
        quenched_variance=quenched_var,
        sampling_variance_share=float(share),
    )


# ---------------------------------------------------------------------------
# aggregate report


def plain(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to JSON types."""
    if isinstance(obj, dict):
        return {key: plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "__dataclass_fields__"):
        return {key: plain(getattr(obj, key)) for key in obj.__dataclass_fields__}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


@dataclass
class ConditionReport:
    """All per-environment condition estimates plus verdicts.

    ``verdicts`` maps check name to {"status", "z"}; ``overall`` is the worst
    status, ordering pass < warn < fail.
    """

    n: int
    p: int
    beta: float
    gamma: float
    alpha: float | None
    horizon: float
    block_count: int
    literal_block_count: int | None
    intensity: IntensityEstimate
    laplace_intensity: LaplaceIntensityEstimate
    squared_two_step: list[SquaredTailEstimate]
    squared_split: list[SquaredTailEstimate]
    initial_terms: list[InitialTermEstimate]
    initial_terms_exact: list[InitialTermEstimate] | None
    truncated_means: list[TruncatedMeanEstimate]
    verdicts: dict = field(default_factory=dict)
    overall: str = "pass"

    def to_dict(self) -> dict:
        return plain(self.__dict__ | {})

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        """One row per grid point: quantity, u_or_v_or_eps, estimate, stderr, samples.

        Closed-form reference values appear as their own rows (stderr 0) so
        every row keeps the same five columns.
        """
        rows: list[list] = []
        it = self.intensity
        for u, val, se in zip(it.thresholds, it.values, it.stderrs):
            rows.append(["nu", repr(u), repr(val), repr(se), it.samples])
        rows.append(["nu_slope", "", repr(it.slope), repr(it.slope_se), it.samples])
        lp = self.laplace_intensity
        for v, val, se in zip(lp.v_values, lp.values, lp.stderrs):
            rows.append(["laplace_nu", repr(v), repr(val), repr(se), lp.samples])
        rows.append(["laplace_nu_slope", "", repr(lp.slope), repr(lp.slope_se), lp.samples])
        for est in self.squared_two_step:
            rows.append(
                ["sigma_sq_two_step", repr(est.threshold), repr(est.value), repr(est.stderr), est.samples]
            )
        for est in self.squared_split:
            rows.append(
                ["sigma_sq_split", repr(est.threshold), repr(est.value), repr(est.stderr), est.samples]
            )
        for est in self.initial_terms:
            rows.append(["initial_term", repr(est.v), repr(est.value), repr(est.stderr), est.samples])
        for est in self.initial_terms_exact or []:
            rows.append(
                ["initial_term_exact", repr(est.v), repr(est.value), repr(0.0), est.samples]
            )
        for tm in self.truncated_means:
            rows.append(
                ["truncated_mean", repr(tm.epsilon), repr(tm.mc_value), repr(tm.mc_stderr), tm.samples]
            )
            if tm.quadrature_value is not None:
                rows.append(
                    ["truncated_mean_quadrature", repr(tm.epsilon), repr(tm.quadrature_value), repr(0.0), 0]
                )
            if tm.asymptotic_value is not None:
                rows.append(
                    ["truncated_mean_asymptotic", repr(tm.epsilon), repr(tm.asymptotic_value), repr(0.0), 0]
                )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["quantity", "u_or_v_or_eps", "estimate", "stderr", "samples"])
            writer.writerows(rows)


def _closed_form_check(pairs) -> dict:
    """Verdict on (estimate, closed form) pairs that must agree to rounding:
    the largest relative error passes up to 1e-12 and fails above."""
    rel = 0.0
    for value, oracle in pairs:
        rel = max(rel, abs(value - oracle) / (abs(oracle) if oracle != 0 else 1.0))
    return {"max_relative_error": rel, "status": ladder(rel, 1e-12, 1e-12)}


def degenerate_laplace_check(env: Environment, estimate: LaplaceIntensityEstimate) -> dict:
    """Verdict on a beta = 0 transform intensity against its closed form.

    The estimator integrates the (unit) waiting times out exactly, so at
    beta = 0 it must reproduce the closed form to rounding.
    """
    k = estimate.block_count
    return _closed_form_check(
        (value, k * (1.0 - degenerate_block_laplace(env, v)) / v)
        for v, value in zip(estimate.v_values, estimate.values)
    )


def build_condition_report(
    env: Environment,
    horizon: float,
    u_grid: Sequence[float],
    v_grid: Sequence[float],
    eps_grid: Sequence[float],
    streams: ReplicaStreams,
    samples: int = 100_000,
    block_count: int | None = None,
) -> ConditionReport:
    """Run every per-environment condition estimate and attach verdicts.

    Statistical verdicts (route agreement, Monte Carlo against closed forms)
    use z-score units with thresholds 4 (pass) and 6 (warn).  The two
    tail-exponent fits are judged against an absolute window of 0.15 around
    the parameter value instead: at finite n the fitted exponent deviates
    systematically, not statistically, so a z-test against the limit value
    would reject at any sufficiently large sample size.  Deviations inside
    the window pass; inside window + 2 fit standard errors they warn.  The
    two correlated-square routes use max(samples // 5, 2) samples each; every
    other estimate uses ``samples``.
    """
    k = resolve_block_count(env, horizon, block_count)
    literal = _literal_block_count(env, horizon)
    intensity = estimate_intensity(env, horizon, u_grid, samples, streams, block_count=k)
    laplace = estimate_intensity_laplace(env, horizon, v_grid, samples, streams, block_count=k)
    squared_a, squared_b = (
        estimate_squared_tail_grid(
            env, u_grid, max(samples // 5, 2), streams, block_count=k, route=route
        )
        for route in ("two-step", "split")
    )
    initial = estimate_initial_term(env, v_grid, samples, streams)
    initial_exact = estimate_initial_term(env, v_grid, exact=True) if _can_enumerate(env) else None
    # the truncated-jump mean lives on the jump-count scale, which does not
    # exist at beta = 0 (or once it overflows); skip it there instead of failing
    if env.step_scale is not None and math.isfinite(env.step_scale):
        truncated = estimate_truncated_mean(env, eps_grid, horizon, samples, streams)
    else:
        truncated = []

    verdicts: dict[str, dict] = {}
    if env.alpha is not None:
        delta = abs(intensity.slope + env.alpha)
        verdicts["intensity_slope"] = {
            "deviation": delta,
            "tolerance": SLOPE_WINDOW,
            "status": slope_status(delta, intensity.slope_se),
        }
        delta = abs(laplace.slope - (env.alpha - 1.0))
        verdicts["laplace_slope"] = {
            "deviation": delta,
            "tolerance": SLOPE_WINDOW,
            "status": slope_status(delta, laplace.slope_se),
        }
    z_sq = 0.0
    for ea, eb in zip(squared_a, squared_b):
        z_sq = max(z_sq, z_score(ea.value, eb.value, math.hypot(ea.stderr, eb.stderr)))
    verdicts["squared_tail_routes"] = {"z": z_sq, "status": z_status(z_sq)}
    if initial_exact is not None:
        z_init = 0.0
        for mc, ex in zip(initial, initial_exact):
            # the averaged terms live in [0, 1], so under agreement the spread
            # is at most binomial; that floors the yardstick at rare-event grid
            # points where the sample variance collapses
            floor = math.sqrt(ex.value * (1.0 - ex.value) / mc.samples)
            z_init = max(z_init, z_score(mc.value, ex.value, max(mc.stderr, floor)))
        verdicts["initial_term"] = {"z": z_init, "status": z_status(z_init)}
    if truncated:
        z_tm = 0.0
        for tm in truncated:
            if tm.quadrature_value is not None:
                z_tm = max(z_tm, z_score(tm.mc_value, tm.quadrature_value, tm.mc_stderr))
        verdicts["truncated_mean"] = {"z": z_tm, "status": z_status(z_tm)}

    if env.beta == 0.0:
        # every estimator has a closed form here; cross-check them all
        z_deg = 0.0
        for u, value, se in zip(u_grid, intensity.values, intensity.stderrs):
            q = degenerate_block_tail(env, float(u))
            spread = max(se, k * math.sqrt(q * (1.0 - q) / intensity.samples))
            z_deg = max(z_deg, z_score(value, k * q, spread))
        verdicts["degenerate_tail"] = {"z": z_deg, "status": z_status(z_deg)}
        z_deg = 0.0
        for ea, eb in zip(squared_a, squared_b):
            q = degenerate_block_tail(env, ea.threshold)
            q2 = q * q
            for est in (ea, eb):
                spread = max(est.stderr, k * math.sqrt(q2 * (1.0 - q2) / est.samples))
                z_deg = max(z_deg, z_score(est.value, k * q2, spread))
        verdicts["degenerate_squared"] = {"z": z_deg, "status": z_status(z_deg)}
        verdicts["degenerate_laplace"] = degenerate_laplace_check(env, laplace)
        verdicts["degenerate_initial"] = _closed_form_check(
            (est.value, degenerate_initial_term(env, est.v)) for est in initial
        )

    return ConditionReport(
        n=env.n,
        p=env.p,
        beta=env.beta,
        gamma=env.gamma,
        alpha=env.alpha,
        horizon=horizon,
        block_count=k,
        literal_block_count=literal,
        intensity=intensity,
        laplace_intensity=laplace,
        squared_two_step=squared_a,
        squared_split=squared_b,
        initial_terms=initial,
        initial_terms_exact=initial_exact,
        truncated_means=truncated,
        verdicts=verdicts,
        overall=worst(entry["status"] for entry in verdicts.values()),
    )
