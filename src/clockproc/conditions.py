"""Verification statistics for the jump-intensity conditions of the blocked clock.

The blocked clock converges to a stable subordinator when, in distribution
over the environment, (i) the aggregated jump intensity

    nu_hat(u) = k * P_pi( block sum > u * time_scale )

settles onto a power law K * t * u^(-alpha), (ii) its two-step-correlated
square vanishes, (iii) the initial holding time is negligible on the
observation scale, and (iv) the truncated mean of a single rescaled jump
vanishes with the truncation level.  This module estimates (i) and (ii) by
Monte Carlo over walks, each tail grid read off one sample of block sums as
hit rates with binomial errors, and (iii) and (iv) as averages over the
sampled environment's states of one bounded term per state, the exponential
hold integrated out: over one draw of uniform starts for the whole grid, and
exactly over all 2^n states where the energy table exists, one row block of
consecutive states at a time, the blocks' sums combined pairwise into the
bits of one whole-vector mean.  It fits tail exponents, gives the annealed
truncated mean as one trapezoid sum over its one-dimensional integral, and
collects the lot into one report of estimates.  It grades nothing: the
``conditions`` runner of :mod:`clockproc.cli` turns the report into pass /
warn / fail verdicts.

Estimator conventions used throughout:

* block = ``block_length`` consecutive visited states; consecutive blocks of
  one walk are adjacent, and a uniform start makes every block start
  stationary;
* thresholds ``u`` and transform arguments ``v`` are in units of the
  observation time scale;
* all randomness is drawn from a :class:`~clockproc.seeding.ReplicaStreams`
  pair (walk stream for moves and starts, noise stream for waiting times), so
  every estimate is reproducible from the stream seeds alone; the walks and
  starts come from :func:`~clockproc.chain.walk_paths` and ``uniform_starts``.
* walks are drawn, gathered and folded in row blocks (``row_blocks``), and no
  output depends on their size; ``_CHUNK_STATES`` groups only the transform
  moments' running sums and, past the table, the contracted energies;
* walk states read per-state tables gathered by state, with the bits of the
  per-state computation, wherever at least 3 * 2^n states read a table of a
  table-backed environment (:func:`_folds_by_table`): the block sums gather
  the 2^n scaled holds exp(beta*H - log time scale), filled once per call
  that walks that many states, and the block Laplace transform gathers, for
  each v, the 2^n terms logaddexp(0, log v + beta*H - log time scale) of the
  fold in :func:`conditional_block_laplace`, filled once per chunk of that
  many states; a chunk keeps its walk (as 4-byte states) only when its term
  tables take several passes over the v grid, and otherwise folds each row
  block as it is drawn.  Fewer states read their energies through
  :meth:`Environment.energies` and fold them state by state, one v grid a call;
* every pass over all 2^n states (filling those tables and the exact state
  averages) reads the energies through :meth:`Environment.energies` in row
  blocks of consecutive states from :func:`_state_blocks`, so beside the
  energy table a run holds at most one derived 2^n table at a time (the
  hold table, or one group of term tables), none when no call or chunk
  walks 3 * 2^n states, and row blocks: no index of the state space and no
  copy of the energies;
* above one thread, the block sums and the transform draw each row block's
  walk one ahead on a helper thread while the caller gathers and folds the
  current one; each stream is drawn by one thread in serial order (the walk
  stream's row blocks by the helper, its starts and the noise stream by the
  caller), so no output depends on the thread count.

Each estimator takes its whole grid in one call.  Two deliberately
redundant routes exist for the correlated-square statistic (two-step kernel
versus split one-step products), and one call of
:func:`estimate_squared_tail_grid` returns both; the runner grades their
agreement.  The block Laplace transform is estimated by the
conditional closed form over the walk only; its direct-sampling counterpart
(waiting times drawn too) lives in ``tests/reference_estimators.py`` as a
test oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import special
from .chain import scaled_holds, uniform_starts, walk_paths
from .environment import HORIZON, Environment
from .errors import BudgetError, DegenerateScaleError, ParameterValidationError
from .parallel import prefetch, row_blocks
from .seeding import ReplicaStreams

__all__ = [
    "IntensityEstimate",
    "SquaredTailEstimate",
    "LaplaceIntensityEstimate",
    "InitialTermEstimate",
    "TruncatedMeanEstimate",
    "ConditionReport",
    "estimate_intensity",
    "estimate_squared_tail_grid",
    "conditional_block_laplace",
    "estimate_intensity_laplace",
    "estimate_initial_term",
    "estimate_truncated_mean",
    "truncated_mean_quadrature",
    "degenerate_block_tail",
    "degenerate_block_laplace",
    "degenerate_initial_term",
    "build_condition_report",
    "plain",
    "resolve_block_count",
    "TRUNCATED_TERM_BOUND",
]

# States per chunk of the transform's samples.  Each chunk adds one partial
# sum per v to the transform moments, so their last digits move with it; past
# the energy table a chunk is also one row block, the batch its energies are
# contracted in, and their last bits move with that batch.  It is fixed for
# those reasons.
_CHUNK_STATES = 4_000_000

# States per row block, the unit in which a table-backed environment's walks
# are drawn, gathered and folded: the walk and noise streams fill in row
# order, so no output depends on it, and it bounds the memory a walk takes
_GATHER_STATES = 1 << 16

# numpy sums a contiguous float64 array pairwise, halving it down to leaves of
# at most this many elements, which it sums with eight running accumulators
_PAIRWISE_LEAF = 128


def _state_blocks(env: Environment) -> Iterator[tuple[int, int, np.ndarray]]:
    """An iterator of ``(lo, hi, energies)`` over row blocks of consecutive
    states lo..hi-1 of a table-backed environment, in state order, each read
    through :meth:`Environment.energies` into a fresh array; the one place
    that enumerates all 2^n states.

    A block holds the largest power of two of states within
    ``_GATHER_STATES``, and at least ``_PAIRWISE_LEAF``, so every block but
    a lone one (at 2^n below that size) is a subtree of numpy's pairwise sum
    over 2^n values, and :func:`_pairwise_total` rebuilds that sum's bits
    from the blocks' sums.
    """
    states = max(_PAIRWISE_LEAF, 1 << (_GATHER_STATES.bit_length() - 1))
    for lo, hi in row_blocks(1 << env.n, 1, states):
        yield lo, hi, env.energies(np.arange(lo, hi, dtype=np.uint64))


def _pairwise_total(partials: np.ndarray) -> float:
    """The sum of a power-of-two count of :func:`_state_blocks` sums,
    combined in a balanced tree of adjacent pairs: numpy's pairwise sum of
    the whole vector, bit for bit."""
    while partials.size > 1:
        partials = partials[0::2] + partials[1::2]
    return float(partials[0])


def _iter_block_states(
    env: Environment,
    starts: np.ndarray,
    streams: ReplicaStreams,
    presteps: int = 0,
    threads: int = 1,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """An iterator of ``(lo, hi, states)`` over row blocks of block walks from ``starts``.

    Sample i walks ``presteps`` moves from its start, then its block covers
    the next ``block_length`` visited states; ``states`` holds the packed
    blocks of samples lo..hi-1, shape (hi-lo, block_length).  The row
    blocks are :func:`row_blocks` of walks within ``_GATHER_STATES`` states,
    or ``_CHUNK_STATES`` past the energy table.  The row blocks consume only
    the walk stream, in row order; with ``threads`` > 1 they are drawn on one
    helper thread, one row block ahead of the caller, so the caller must not
    draw from the walk stream until the iterator ends.
    """
    count, window_steps = len(starts), presteps + env.block_length - 1
    budget = _GATHER_STATES if env.has_energy_table else _CHUNK_STATES
    blocks = row_blocks(count, window_steps + 1, budget)

    def walks():
        for lo, hi in blocks:
            # no name here holds the flips or the walk: dropping ``states`` frees it
            yield lo, hi, walk_paths(
                starts[lo:hi],
                streams.walk.integers(0, env.n, size=(hi - lo, window_steps), dtype=np.uint32),
            )[:, presteps:]

    return prefetch(walks(), threads)


# Walk states per table entry from which a derived 2^n table (the hold table,
# a v's term table) is built.  Timed in process at n = 18 and 20 on one thread,
# the hold table breaks even at 3 to 4 states an entry and the nine-point v
# grid's term tables below 2; at 2 and 3 states an entry the per-state fold
# takes 6 to 57% longer than the tables' (at most 0.1 s there), and in
# exchange no 2^n table is held beside the energies
_TABLE_REUSE = 3


def _folds_by_table(env: Environment, states: int) -> bool:
    """Whether ``states`` walk states read a per-state table of 2^n entries
    built for them: the energies are tabulated and there are at least
    ``_TABLE_REUSE`` * 2^n of them, so the table costs less than computing
    their terms state by state.  The one admission rule for the hold table
    and the term tables."""
    return env.has_energy_table and states >= _TABLE_REUSE << env.n


def _block_sums(
    env: Environment,
    starts: np.ndarray,
    streams: ReplicaStreams,
    presteps: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Scaled sums exp(beta*H - log time scale) * e over the blocks walked from
    ``starts`` by :func:`_iter_block_states`, waiting times from the noise stream.

    A call whose blocks :func:`_folds_by_table` admits, 3 * 2^n walk states or
    more, gathers each state's scaled hold from a table of the 2^n values
    exp(beta*H - log time scale), filled once, one :func:`_state_blocks` row
    block at a time; other calls compute them from each row block's
    energies, read through :meth:`Environment.energies`.  Either way each
    hold takes the same operations in the same order, so the sums are
    bit-identical.  Each row block is walked, drawn and summed on its own,
    so beyond the sums a call holds the table, if any, and one row block,
    and with ``threads`` > 1 the walk of the next, drawn on a helper thread
    while this one is gathered and its waiting times are drawn.
    """
    sums = np.empty(len(starts))
    hold_table = None
    if _folds_by_table(env, len(starts) * env.block_length):
        hold_table = np.empty(1 << env.n)
        for lo, hi, energies in _state_blocks(env):
            hold_table[lo:hi] = scaled_holds(env, energies)
        del energies  # the last row block, which the loop name would keep through the walk
    for lo, hi, states in _iter_block_states(env, starts, streams, presteps, threads):
        if hold_table is None:
            holds = scaled_holds(env, env.energies(states))
        else:
            holds = hold_table[states.view(np.int64)]
        del states
        draws = streams.noise.standard_exponential((hi - lo, env.block_length))
        draws *= holds
        del holds
        sums[lo:hi] = draws.sum(axis=1)
    return sums


def resolve_block_count(env: Environment, block_count: int | None) -> int:
    """The explicit block count, else ``env.block_count``, which must be positive."""
    if block_count is not None:
        if block_count < 1:
            raise ParameterValidationError(f"block count must be >= 1; got {block_count}")
        return int(block_count)
    k = env.block_count
    if k is None:
        raise DegenerateScaleError(
            "jump-count scale is undefined or infinite at these parameters; "
            "pass an explicit block count"
        )
    if k == 0:
        raise DegenerateScaleError(
            f"horizon t={HORIZON} yields zero complete aggregation blocks at n={env.n}; "
            "pass an explicit block count"
        )
    return k


@dataclass(frozen=True)
class _LineFit:
    slope: float
    slope_se: float
    intercept: float
    intercept_se: float
    cov: float  # covariance of (intercept, slope) estimates


def _weighted_line_fit(
    grid: np.ndarray, values: np.ndarray, stderrs: np.ndarray, usable: np.ndarray | bool
) -> _LineFit:
    """Weighted least squares of log ``values`` against log ``grid`` over the
    ``usable`` points whose value and standard error are positive, with the
    relative errors as weights; every field NaN below two such points."""
    usable = usable & (values > 0) & (stderrs > 0)
    if usable.sum() < 2:
        return _LineFit(math.nan, math.nan, math.nan, math.nan, math.nan)
    values = values[usable]
    x, y, se = np.log(grid[usable]), np.log(values), stderrs[usable] / values
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


def _binomial_intensity(hits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hit rates p of the rows of ``hits``, one row of indicators per
    threshold, with k*p and the binomial standard errors k*sqrt(p(1-p)/m)."""
    m = hits.shape[1]
    rates = hits.mean(axis=1)
    return rates, k * rates, k * np.sqrt(rates * (1.0 - rates) / m)


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
    block_count: int,
    thresholds: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    threads: int = 1,
) -> IntensityEstimate:
    """nu_hat(u) = k * P(block sum > u) over a threshold grid, with slope fit.

    Sharing the block sums across thresholds (common random numbers) makes
    the grid monotone by construction and the fitted slope far less noisy
    than independent per-threshold runs.  The weighted least-squares fit of
    log nu_hat against log u runs over grid points whose hit rate is
    strictly inside (0, 1); the slope estimates the negated tail exponent.
    Below two such points there is no fit, and its four fields are NaN.
    """
    k = resolve_block_count(env, block_count)
    grid = np.asarray(thresholds, dtype=np.float64)
    sums = _block_sums(env, uniform_starts(env.n, samples, streams.walk), streams, threads=threads)
    rates, values, stderrs = _binomial_intensity(sums > grid[:, None], k)
    fit = _weighted_line_fit(grid, values, stderrs, rates < 1)
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


def estimate_squared_tail_grid(
    env: Environment,
    block_count: int,
    thresholds: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    threads: int = 1,
) -> tuple[list[SquaredTailEstimate], list[SquaredTailEstimate]]:
    """k * P(both blocks > u) over a threshold grid by two routes, ``(two_step, split)``.

    Route "two-step": a block from x and an independent block from a state
    two moves away (the kernel form of the correlated square).  Route
    "split": two independent one-move-then-block runs from the same fresh
    start x, whose product is an unbiased estimate of the squared
    one-step-averaged tail.  The two routes target the same quantity through the walk's
    reversibility and are kept separate so that agreement is an actual
    check.  The two-step route draws first, then the split route.
    """
    k = resolve_block_count(env, block_count)
    grid = np.asarray(thresholds, dtype=np.float64)[:, None]

    def estimates(name: str, first: np.ndarray, second: np.ndarray) -> list[SquaredTailEstimate]:
        _, values, stderrs = _binomial_intensity((first > grid) & (second > grid), k)
        return [
            SquaredTailEstimate(float(u), float(value), float(stderr), samples, k, name)
            for u, value, stderr in zip(thresholds, values, stderrs)
        ]

    xs = uniform_starts(env.n, samples, streams.walk)
    ys = walk_paths(xs, streams.walk.integers(0, env.n, size=(samples, 2), dtype=np.uint32))[:, 2]
    two_step = [_block_sums(env, x, streams, threads=threads) for x in (xs, ys)]
    xs = uniform_starts(env.n, samples, streams.walk)
    split = [_block_sums(env, xs, streams, presteps=1, threads=threads) for _ in range(2)]
    return estimates("two-step", *two_step), estimates("split", *split)


# ---------------------------------------------------------------------------
# Laplace transforms


def _laplace_terms(env: Environment, scaled: np.ndarray, v: float, out: np.ndarray) -> None:
    """Into ``out``, logaddexp(0, log v + scaled - log time scale) at v > 0, ``scaled`` = beta*H."""
    np.add(scaled, math.log(v), out=out)
    out -= env.log_time_scale
    np.logaddexp(0.0, out, out=out)


def conditional_block_laplace(env: Environment, energies, v_values: Sequence[float]) -> np.ndarray:
    """Laplace transform of a block sum given its walk, exactly in the waiting times.

    For unit-mean exponential holds, integrating them out of
    E[exp(-v * block/time_scale) | walk] leaves the product of
    1 / (1 + v * exp(beta*H_j)/time_scale) over the visited states, evaluated
    here through logaddexp so extreme energies cannot overflow.  Takes one
    energy vector or a batch with blocks on the last axis, scales it by beta
    once for the grid, and returns one row per v, shape (len(v_values), batch).

    This is the reference fold.  The transform estimator folds each row
    block through it on the chunks that :func:`_folds_by_table` turns down:
    past the energy table (n > ``MAX_TABLE_SPINS``) and on chunks of fewer
    than 3 * 2^n states.  The chunks it admits gather the same terms from
    per-v tables instead, with identical bits.
    """
    if any(v < 0 for v in v_values):
        raise ParameterValidationError(f"transform arguments must be nonnegative; got {v_values}")
    scaled = env.beta * np.asarray(energies, dtype=np.float64)
    terms = np.empty_like(scaled)
    folds = np.ones((len(v_values),) + scaled.shape[:-1])
    for j, v in enumerate(v_values):
        if v != 0:  # at v = 0 the transform is 1
            _laplace_terms(env, scaled, v, terms)
            folds[j] = np.exp(-terms.sum(axis=-1))
    return folds


def _table_folds(env: Environment, v_values: Sequence[float], walk, folds: np.ndarray) -> None:
    """Fill row j of ``folds``, shape (len(v_values), chunk rows), with
    :func:`conditional_block_laplace` of v_values[j] > 0 over a chunk's walk,
    given as the row blocks of :func:`_iter_block_states`, read from tables
    of the 2^n terms of :func:`_laplace_terms` gathered by state.

    Each term takes the reference fold's operations in its order, and each
    row's gathered terms are summed over the same contiguous block, so the
    result is bit-identical.  The tables of as many v as fit in the bytes of
    the chunk's states as uint32 are held at once, so that each row block is
    widened to gather indices once for all of them.  Each pass over such a
    group fills its tables one :func:`_state_blocks` row block of energies
    at a time, scaling each block by beta once for the whole group.  When
    the tables cover every v, each row block of the walk is folded as it is
    drawn and then dropped; otherwise the chunk's walk is kept as uint32 row
    blocks for the passes over the v.
    """
    groups = row_blocks(len(v_values), 8 << env.n, folds.shape[1] * env.block_length * 4)
    if len(groups) > 1:
        walk = [(lo, hi, block.astype(np.uint32)) for lo, hi, block in walk]
    tables = np.empty((groups[0][1] if groups else 0, 1 << env.n))  # the largest group
    gathered = index = None
    for first, last in groups:
        for lo, hi, scaled in _state_blocks(env):
            scaled *= env.beta
            for terms, v in zip(tables[:, lo:hi], v_values[first:last]):
                _laplace_terms(env, scaled, v, terms)
        del scaled  # the last row block, which the loop name would keep through the walk
        for lo, hi, block in walk:
            if index is None:
                gathered, index = np.empty(block.shape), np.empty(block.shape, dtype=np.intp)
            part, indices = gathered[: hi - lo], index[: hi - lo]
            np.copyto(indices, block)
            del block
            for terms, fold in zip(tables, folds[first:last]):
                # indices are in range; any mode but "raise" gathers straight into ``out``
                np.take(terms, indices, out=part, mode="clip")
                np.exp(-part.sum(axis=-1), out=fold[lo:hi])


def _conditional_transform_moments(
    env: Environment,
    v_values: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    threads: int = 1,
):
    """Means and standard deviations over ``samples`` uniform-start blocks of
    :func:`conditional_block_laplace` for each v, with running sums that add
    one partial sum per chunk of ``_CHUNK_STATES`` states.  Each chunk fills
    one (v, chunk row) fold array: through :func:`_table_folds` where
    :func:`_folds_by_table` admits it, at 3 * 2^n walk states or more, else
    by one grid-wide fold of each row block's energies as the block is drawn.
    Beyond that array a chunk holds one row block unless it needs several
    table passes, and with ``threads`` > 1 the walk of the next row block,
    drawn on a helper thread while this one is folded."""
    theta = env.block_length
    sums = np.zeros(len(v_values))
    squares = np.zeros(len(v_values))
    lows = np.full(len(v_values), np.inf)
    highs = np.full(len(v_values), -np.inf)
    starts = uniform_starts(env.n, samples, streams.walk)
    for lo, hi in row_blocks(samples, theta, _CHUNK_STATES):
        part = starts[lo:hi]
        walk = _iter_block_states(env, part, streams, threads=threads)
        folds = np.empty((len(v_values), len(part)))
        if _folds_by_table(env, len(part) * theta):
            _table_folds(env, v_values, walk, folds)
        else:
            for start, stop, states in walk:
                energies = env.energies(states)
                del states
                folds[:, start:stop] = conditional_block_laplace(env, energies, v_values)
        # each row is contiguous, so its sum is the same pairwise sum as a 1-D fold's
        sums += folds.sum(axis=1)
        np.minimum(lows, folds.min(axis=1), out=lows)
        np.maximum(highs, folds.max(axis=1), out=highs)
        squares += np.square(folds, out=folds).sum(axis=1)  # in place: no second array
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
    intercept carries the tail amplitude.  ``fitted_amplitude``, K per unit
    horizon, divides the Gamma factor and t = ``HORIZON`` back out; it is
    reported with a delta-method stderr for orientation and is deliberately
    not a certified output.
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
    block_count: int,
    v_values: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
    threads: int = 1,
) -> LaplaceIntensityEstimate:
    k = resolve_block_count(env, block_count)
    varr = np.asarray(v_values, dtype=np.float64)
    if np.any(varr <= 0):
        raise ParameterValidationError("transform arguments must be positive for the intensity fit")
    means, stds = _conditional_transform_moments(env, v_values, samples, streams, threads)
    values = k * (1.0 - means) / varr
    stderrs = k * stds / math.sqrt(samples) / varr
    fit = _weighted_line_fit(varr, values, stderrs, True)
    alpha_hat = 1.0 + fit.slope
    amp = amp_se = math.nan
    if 0 < alpha_hat < 1:
        log_amp = fit.intercept - math.log(HORIZON) - math.lgamma(1.0 - alpha_hat)
        amp = math.exp(log_amp)
        psi = special.digamma(1.0 - alpha_hat)
        var_log = fit.intercept_se**2 + (psi * fit.slope_se) ** 2 + 2.0 * psi * fit.cov
        amp_se = amp * math.sqrt(max(var_log, 0.0))
    return LaplaceIntensityEstimate(
        v_values=tuple(float(v) for v in v_values),
        values=tuple(float(x) for x in values),
        stderrs=tuple(float(x) for x in stderrs),
        block_count=k,
        samples=samples,
        slope=fit.slope,
        slope_se=fit.slope_se,
        intercept=fit.intercept,
        intercept_se=fit.intercept_se,
        fitted_alpha=alpha_hat,
        fitted_alpha_se=fit.slope_se,
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
    exact_value: float | None


def _inverse_holds(env: Environment, energies: np.ndarray) -> np.ndarray:
    """time_scale / tau = exp(log time scale - beta*H) of ``energies``, in
    place, saturating to inf."""
    energies *= env.beta
    return np.exp(np.subtract(env.log_time_scale, energies, out=energies), out=energies)


def _state_average(
    env: Environment,
    term: Callable[[np.ndarray, float, np.ndarray], None],
    grid: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
) -> list[tuple[float, float, float | None]]:
    """``(mean, stderr, exact)`` over states of ``term(inverse_holds, x, out)``,
    which writes one bounded value per state into ``out``, for each x of
    ``grid``.  The mean and standard error are over ``samples`` uniform
    starts from ``streams.walk``, one draw for every x.  ``exact`` averages
    all 2^n states where the energy table exists, and is None past it.  That
    pass walks the :func:`_state_blocks` row blocks once: each block's
    inverse holds serve every x, each x's terms in the block are summed,
    and :func:`_pairwise_total` combines each x's block sums, so the mean
    has the bits of one 2^n vector of terms while the pass holds one row
    block of them."""
    sampled = env.energies(uniform_starts(env.n, samples, streams.walk))
    out = np.empty_like(sampled)
    moments = []
    exact = [None] * len(grid)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _inverse_holds(env, sampled)
        for x in grid:
            term(sampled, x, out)
            stderr = float(out.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
            moments.append((float(out.mean()), stderr))
        if env.has_energy_table:
            del sampled, out
            partials = [[] for _ in grid]
            for _, _, energies in _state_blocks(env):
                inverse_holds = _inverse_holds(env, energies)
                terms = np.empty_like(inverse_holds)
                for sums, x in zip(partials, grid):
                    term(inverse_holds, x, terms)
                    sums.append(terms.sum())
            exact = [_pairwise_total(np.array(sums)) / (1 << env.n) for sums in partials]
    return [(mean, stderr, value) for (mean, stderr), value in zip(moments, exact)]


def _survival_terms(inverse_holds: np.ndarray, v: float, out: np.ndarray) -> None:
    """exp(-v * time_scale / tau), the chance that the hold outlasts v time scales."""
    np.exp(np.multiply(inverse_holds, -v, out=out), out=out)


def estimate_initial_term(
    env: Environment,
    v_values: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
) -> list[InitialTermEstimate]:
    """Probability that the rescaled starting hold exceeds v, from a uniform
    start, for every v of the grid.

    The exponential hold is integrated out exactly, leaving the average of
    exp(-v * time_scale * exp(-beta*H)) over states.  The Monte Carlo value
    averages ``samples`` uniform starts, one draw for the whole grid;
    ``exact_value`` averages all 2^n states where the energy table exists,
    and is None past it.  A v of 0 gives 1.  Values near 0 mean the starting
    hold is negligible on the observation scale; only starts whose hold mean
    is comparable to the whole observation window contribute at all.
    """
    if any(v < 0 for v in v_values):
        raise ParameterValidationError(f"thresholds must be nonnegative; got {list(v_values)}")
    positive = [v for v in v_values if v > 0]
    averages = iter(_state_average(env, _survival_terms, positive, samples, streams))
    one = (1.0, 0.0, 1.0 if env.has_energy_table else None)
    out = []
    for v in v_values:
        value, stderr, exact = next(averages) if v > 0 else one
        out.append(
            InitialTermEstimate(
                v=float(v), value=value, stderr=stderr, samples=samples, exact_value=exact
            )
        )
    return out


# ---------------------------------------------------------------------------
# truncated mean of a single rescaled jump

# grid points of the truncated-mean quadrature at most (8 MB per array)
_QUADRATURE_POINTS = 1 << 20
# max over a of P(2, a) / a, rounded up: the bound of a per-state term over eps
TRUNCATED_TERM_BOUND = 0.2985


@dataclass(frozen=True)
class TruncatedMeanEstimate:
    epsilon: float
    mc_value: float
    mc_stderr: float
    samples: int
    exact_value: float | None
    quadrature_value: float | None


def truncated_mean_quadrature(env: Environment, epsilon: float) -> float:
    """Closed-form (quadrature) value of the annealed truncated-jump mean.

    Integrating the Gaussian energy marginal exactly gives

        step_scale * HORIZON / time_scale
          * int_0^inf x e^{-x} e^{s^2/2} Phi((gn + ln(eps/x))/s - s) dx,

    with s = beta*sqrt(n) and gn = log time_scale; everything is evaluated in
    log space (the factors span hundreds of e-folds individually but the
    product does not).

    The integral is one trapezoid sum in u = ln x on a uniform grid over
    [-400, 30] with spacing h = min(430/1999, s/2).  The integrand is entire
    in u and decays like e^{2u} on the left and e^{-e^u} on the right, so the
    sum converges geometrically in 1/h (Trefethen & Weideman, SIAM Review
    2014); the Phi factor turns over within about s of its midpoint, so its
    share of the error is about exp(-2 pi^2 s^2 / h^2), below e^-79 at
    h = s/2.  Against a 40-digit mpmath quadrature it is within 1.3e-14
    relative at n = 14, 20 and 30 (beta = 3, gamma = 2.7) and within 2.6e-14
    for s from the smallest accepted to 1.5, for eps from 1e-6 to 50.  The cost is
    max(2000, 860/s) evaluations, at most ``_QUADRATURE_POINTS``: an s below
    860 / (``_QUADRATURE_POINTS`` - 1), about 8.2e-4, raises BudgetError.
    """
    if epsilon <= 0:
        raise ParameterValidationError(f"epsilon must be positive; got {epsilon}")
    if env.beta <= 0:
        raise ParameterValidationError("the Gaussian-marginal closed form requires beta > 0")
    if env.step_scale is None or not math.isfinite(env.step_scale):
        raise DegenerateScaleError("jump-count scale unavailable at these parameters")
    s = env.beta * math.sqrt(env.n)
    gn = env.log_time_scale
    log_eps = math.log(epsilon)
    lo, hi = -400.0, 30.0
    points = max(2000, math.ceil(2.0 * (hi - lo) / s) + 1)
    if points > _QUADRATURE_POINTS:
        smallest = 2.0 * (hi - lo) / (_QUADRATURE_POINTS - 1)
        raise BudgetError(f"the quadrature needs beta*sqrt(n) >= {smallest:.6g}; got {s:.6g}")
    # the spacing from the bounds, not from the grid: u[1] - u[0] carries
    # the rounding of -400 + h
    h = (hi - lo) / (points - 1)
    u = np.linspace(lo, hi, points)
    # u = ln x; extra factor x from the change of variables.  The end terms
    # are hundreds of e-folds below the peak, so the trapezoid's halving of
    # them is moot.
    vals = 2.0 * u - np.exp(u) + 0.5 * s * s + special.log_ndtr((gn + log_eps - u) / s - s)
    peak = float(vals.max())
    log_value = peak + math.log(h * float(np.exp(vals - peak).sum()))
    return math.exp(math.log(env.step_scale * HORIZON) - gn + log_value)


def _truncated_terms(inverse_holds: np.ndarray, epsilon: float, out: np.ndarray) -> None:
    """E[m*e; m*e <= eps] = m * P(2, eps/m) per state: m = 1/inverse hold is the
    scaled hold mean, e the unit exponential hold integrated out, and P(2, a) =
    1 - e^-a (1 + a).  At a = eps/m >= 1 that is m - e^-a (m + eps); below, it
    cancels, and eps * a/2 * 1F1(2; 3; -a) gives it, 0 at a saturated m = inf."""
    holds = np.reciprocal(inverse_holds)
    a = np.multiply(inverse_holds, epsilon, out=out)
    series = np.flatnonzero(a < 1.0)
    low = a[series]
    np.exp(np.negative(a, out=out), out=out)
    out *= holds + epsilon
    np.subtract(holds, out, out=out)
    out[series] = 0.5 * epsilon * low * special.hyp1f1_2_3(low)


def estimate_truncated_mean(
    env: Environment,
    eps_values: Sequence[float],
    samples: int,
    streams: ReplicaStreams,
) -> list[TruncatedMeanEstimate]:
    """Truncated-jump mean step_scale * HORIZON * E[m*e; m*e <= eps] of the sampled
    environment on an epsilon grid, m a state's scaled hold mean and e its
    hold, integrated out (:func:`_truncated_terms`).

    The Monte Carlo value averages ``samples`` uniform starts, one draw for
    the whole grid; ``exact_value`` averages all 2^n states where the energy
    table exists, and is None past it.  Its mean over environments is the
    annealed value that :func:`truncated_mean_quadrature` integrates;
    ``quadrature_value`` is None below the quadrature's smallest beta*sqrt(n).
    """
    if env.step_scale is None or not math.isfinite(env.step_scale):
        raise DegenerateScaleError("jump-count scale unavailable at these parameters")
    eps_arr = np.asarray(eps_values, dtype=np.float64)
    if np.any(eps_arr <= 0):
        raise ParameterValidationError("epsilon values must be positive")
    scale = env.step_scale * HORIZON
    averages = _state_average(env, _truncated_terms, eps_arr, samples, streams)
    try:
        quadrature = [truncated_mean_quadrature(env, float(eps)) for eps in eps_arr]
    except BudgetError:
        # the annealed reference only; the quenched estimate does not need it
        quadrature = [None] * len(eps_arr)
    out = []
    for j, (eps, (mean, stderr, exact)) in enumerate(zip(eps_arr, averages)):
        out.append(
            TruncatedMeanEstimate(
                epsilon=float(eps),
                mc_value=float(scale * mean),
                mc_stderr=float(scale * stderr),
                samples=samples,
                exact_value=None if exact is None else float(scale * exact),
                quadrature_value=quadrature[j],
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
    return special.gammaincc(env.block_length, threshold * env.time_scale)


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
    """All per-environment condition estimates.

    The report is ungraded: the ``conditions`` runner grades it and hands
    its :mod:`~clockproc.verdicts` records and their worst status to
    :meth:`write_json`, which writes them with the estimates.
    """

    n: int
    p: int
    beta: float
    gamma: float
    alpha: float | None
    block_count: int
    literal_block_count: int | None
    intensity: IntensityEstimate
    laplace_intensity: LaplaceIntensityEstimate
    squared_two_step: list[SquaredTailEstimate]
    squared_split: list[SquaredTailEstimate]
    initial_terms: list[InitialTermEstimate]
    truncated_means: list[TruncatedMeanEstimate]

    def write_json(self, path, **graded) -> None:
        """The estimates as JSON, with any ``graded`` entries (the runner's
        ``verdicts`` and ``overall``) merged in."""
        with open(path, "w") as fh:
            json.dump(plain(self.__dict__ | graded), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        """One row per grid point: quantity, u_or_v_or_eps, estimate, stderr, samples.

        Closed-form reference values appear as their own rows (stderr 0) so
        every row keeps the same five columns.
        """
        rows: list[list] = []

        def add(quantity, x, value, stderr, samples):
            rows.append([quantity, "" if x is None else repr(x), repr(value), repr(stderr), samples])

        it = self.intensity
        for u, val, se in zip(it.thresholds, it.values, it.stderrs):
            add("nu", u, val, se, it.samples)
        add("nu_slope", None, it.slope, it.slope_se, it.samples)
        lp = self.laplace_intensity
        for v, val, se in zip(lp.v_values, lp.values, lp.stderrs):
            add("laplace_nu", v, val, se, lp.samples)
        add("laplace_nu_slope", None, lp.slope, lp.slope_se, lp.samples)
        for est in self.squared_two_step:
            add("sigma_sq_two_step", est.threshold, est.value, est.stderr, est.samples)
        for est in self.squared_split:
            add("sigma_sq_split", est.threshold, est.value, est.stderr, est.samples)
        for est in self.initial_terms:
            add("initial_term", est.v, est.value, est.stderr, est.samples)
        for est in self.initial_terms:
            if est.exact_value is not None:
                add("initial_term_exact", est.v, est.exact_value, 0.0, 1 << self.n)
        for tm in self.truncated_means:
            add("truncated_mean", tm.epsilon, tm.mc_value, tm.mc_stderr, tm.samples)
            if tm.exact_value is not None:
                add("truncated_mean_exact", tm.epsilon, tm.exact_value, 0.0, 1 << self.n)
            if tm.quadrature_value is not None:
                add("truncated_mean_quadrature", tm.epsilon, tm.quadrature_value, 0.0, 0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["quantity", "u_or_v_or_eps", "estimate", "stderr", "samples"])
            writer.writerows(rows)


def build_condition_report(
    env: Environment,
    u_grid: Sequence[float],
    v_grid: Sequence[float],
    eps_grid: Sequence[float],
    streams: ReplicaStreams,
    samples: int = 100_000,
    block_count: int | None = None,
    threads: int = 1,
) -> ConditionReport:
    """Run every per-environment condition estimate into one report, ungraded.

    The two correlated-square routes use max(samples // 5, 2) samples each;
    every other estimate uses ``samples``.  ``threads`` > 1 draws the walks
    of the intensity, the transform and the correlated square one row block
    ahead on a helper thread; no value depends on it.  The estimators use
    ``block_count`` blocks when it is given, else ``env.block_count``.
    """
    k = resolve_block_count(env, block_count)
    intensity = estimate_intensity(env, k, u_grid, samples, streams, threads=threads)
    laplace = estimate_intensity_laplace(env, k, v_grid, samples, streams, threads=threads)
    squared_a, squared_b = estimate_squared_tail_grid(
        env, k, u_grid, max(samples // 5, 2), streams, threads=threads
    )
    initial = estimate_initial_term(env, v_grid, samples, streams)
    # the truncated-jump mean lives on the jump-count scale, which does not
    # exist at beta = 0 (or once it overflows); skip it there instead of failing
    if env.block_count is None:
        truncated = []
    else:
        truncated = estimate_truncated_mean(env, eps_grid, samples, streams)

    return ConditionReport(
        n=env.n,
        p=env.p,
        beta=env.beta,
        gamma=env.gamma,
        alpha=env.alpha,
        block_count=k,
        literal_block_count=env.block_count,
        intensity=intensity,
        laplace_intensity=laplace,
        squared_two_step=squared_a,
        squared_split=squared_b,
        initial_terms=initial,
        truncated_means=truncated,
    )
