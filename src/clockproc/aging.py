"""Two-time correlation (aging) measurements of the time-changed walk.

The observable is the probability that the process sits in (nearly) the same
state at two rescaled times:

    C(t, s) = P( overlap(X(t * unit), X((t+s) * unit)) >= 1 - epsilon ),

with the observation time scale as the unit.  In the trapping regime this
converges to the generalised arcsine law evaluated at t/(t+s); the module
estimates the curve over a grid of (t, s) pairs and attaches the prediction,
gives the flat (beta = 0) chain's curve in closed form as the reference, and
provides a localisation diagnostic that checks the "one deep trap per
block" picture directly on every whole block of a trajectory.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .chain import TrajectorySegment, map_replicas, process_at_time, walk_to_times
from .environment import Environment, SpinConfig, block_length, overlap_to_reference
from .errors import BudgetError, ParameterValidationError
from .seeding import StreamFamily
from .subordinator import arcsine_cdf

__all__ = [
    "correlation_indicator",
    "AgingCurve",
    "estimate_aging_curve",
    "flat_aging_curve",
    "TrapReport",
    "trap_localization_diagnostic",
]


def correlation_indicator(
    env: Environment,
    segment: TrajectorySegment,
    t,
    s,
    epsilon: float,
    time_unit: float | None = None,
):
    """1 when the segment's process keeps overlap >= 1-epsilon between the two times.

    Times are in units of ``time_unit`` (default: the observation time
    scale).  Arrays of t and s, of one shape, give an int64 array of
    indicators, one per pair, read with one search of the segment's clock;
    scalars give a 0-d one.
    Raises HorizonError when the segment is too short to place a later time.
    """
    t, s = np.asarray(t, dtype=np.float64), np.asarray(s, dtype=np.float64)
    if (t < 0).any() or (s < 0).any():
        raise ParameterValidationError("t and s must be nonnegative")
    if not 0 < epsilon <= 2:
        raise ParameterValidationError(f"epsilon must lie in (0, 2]; got {epsilon}")
    unit = env.time_scale if time_unit is None else float(time_unit)
    states = process_at_time(segment, env, np.array([t * unit, (t + s) * unit]))
    return (overlap_to_reference(states[0], states[1], env.n) >= 1.0 - epsilon).astype(np.int64)


@dataclass(frozen=True)
class AgingCurve:
    """Estimated two-time correlation over a grid of (t, s) pairs, with the
    prediction and the completed and censored replica counts of each pair."""

    pairs: tuple[tuple[float, float], ...]
    ratios: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    predicted: tuple[float, ...]
    completed: tuple[int, ...]
    censored: tuple[int, ...]

    @property
    def max_absolute_gap(self) -> float:
        """Sup-norm distance between the measured curve and the prediction."""
        gaps = [
            abs(est - pred)
            for est, pred in zip(self.estimates, self.predicted)
            if not math.isnan(est)
        ]
        if not gaps:
            return math.nan
        return max(gaps)

    def write_csv(self, path) -> None:
        """Columns: t, s, ratio, empirical, stderr, predicted, replicas, censored.

        ``replicas`` is the count that actually contributed to the row (the
        budget minus that row's censored replicas).
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["t", "s", "ratio", "empirical", "stderr", "predicted", "replicas", "censored"]
            )
            for (t, s), r, est, se, pred, comp, cens in zip(
                self.pairs,
                self.ratios,
                self.estimates,
                self.stderrs,
                self.predicted,
                self.completed,
                self.censored,
            ):
                writer.writerow(
                    [repr(t), repr(s), repr(r), repr(est), repr(se), repr(pred), comp, cens]
                )


def _checked_pairs(pairs, epsilon: float) -> list[tuple[float, float]]:
    """The (t, s) pairs as floats, once they and ``epsilon`` are checked."""
    pair_list = [(float(t), float(s)) for t, s in pairs]
    if not pair_list:
        raise ParameterValidationError("need at least one (t, s) pair")
    for t, s in pair_list:
        if t < 0 or s <= 0:
            raise ParameterValidationError(f"need t >= 0 and s > 0; got (t, s)=({t}, {s})")
    if not 0 < epsilon <= 2:
        raise ParameterValidationError(f"epsilon must lie in (0, 2]; got {epsilon}")
    return pair_list


def _curve(pairs, alpha: float, estimates, stderrs, completed, censored) -> AgingCurve:
    """An ``AgingCurve`` whose predicted column is the arcsine law at ``alpha``."""
    ratios = tuple(t / (t + s) for t, s in pairs)
    predicted = tuple(float(arcsine_cdf(alpha, ratio)) for ratio in ratios)
    return AgingCurve(
        tuple(pairs), ratios, tuple(estimates), tuple(stderrs), predicted, tuple(completed),
        tuple(censored),
    )


def estimate_aging_curve(
    env: Environment,
    pairs,
    epsilon: float,
    replicas: int,
    master_seed: int,
    *,
    step_cap: int = 100_000_000,
    threads: int = 1,
    start: SpinConfig | None = None,
) -> AgingCurve:
    """Monte Carlo aging curve over independent trajectory replicas.

    Times are in units of the observation time scale, and the predicted
    values evaluate the arcsine law at t/(t+s) with the environment's tail
    exponent; beta = 0 has neither and is refused (its curve is
    :func:`flat_aging_curve`).  Each replica starts uniformly (or at
    ``start``, a non-stationary choice for exploratory runs) and walks until
    its clock passes the latest requested time, recording where it sits at
    each t and t + s.  :func:`~clockproc.chain.map_replicas` hands the
    thread pool row blocks of replicas, sized by the expected number of
    steps to reach that time; each block walks in growing windows
    through :func:`~clockproc.chain.walk_to_times`, whose rows stop as their
    clocks pass it, and reads its indicators in one overlap comparison.  Each
    replica draws from its own streams, so the curve does not depend on the
    block size or ``threads``.  If already the expected number of steps
    exceeds ``step_cap``, the run refuses upfront with a budget error;
    individual replicas that still hit the cap (required step counts are
    heavy-tailed) are censored for the unreached pairs and excluded from
    those averages, with censoring counts reported -- never silently dropped.
    """
    pair_list = _checked_pairs(pairs, epsilon)
    if replicas < 1:
        raise ParameterValidationError("need at least one replica")
    if env.alpha is None:
        raise ParameterValidationError("the aging curve needs beta > 0 (see flat_aging_curve)")
    # a-priori budget: covering clock time t*time_scale takes ~t*step_scale steps
    expected_steps = max((t + s) for t, s in pair_list) * env.step_scale
    if expected_steps > step_cap:
        raise BudgetError(
            f"expected ~{expected_steps:.3g} steps to cover the horizon, above the "
            f"step cap {step_cap:.3g}; raise the cap or shorten the grid"
        )
    first = min(max(1, math.ceil(expected_steps)), step_cap)
    family = StreamFamily(master_seed, "aging")

    times = np.array(pair_list)
    later = times.sum(axis=1) * env.time_scale
    queries = np.concatenate([times[:, 0] * env.time_scale, later])

    def worker(streams):
        states, clocks = walk_to_times(env, start, queries, first, step_cap, streams)
        reached = later < clocks[:, None]  # the rest are censored at the step cap
        close = overlap_to_reference(*np.split(states, 2, axis=1), env.n) >= 1.0 - epsilon
        return (close & reached).sum(axis=0), reached.sum(axis=0)

    results = map_replicas(env, first, family, replicas, threads, worker)
    hits = np.sum([r[0] for r in results], axis=0)
    valid = np.sum([r[1] for r in results], axis=0)
    with np.errstate(invalid="ignore"):  # a pair that no replica reached reads NaN
        rates = hits / valid
        stderrs = np.sqrt(rates * (1.0 - rates) / valid)
    return _curve(
        pair_list, env.alpha, rates.tolist(), stderrs.tolist(), valid.tolist(),
        (replicas - valid).tolist(),
    )


def flat_aging_curve(n: int, pairs, epsilon: float, alpha: float) -> AgingCurve:
    """The aging curve of the flat (beta = 0) chain in closed form.

    Times are in units of ``block_length(n)``.  With unit mean holds each
    site flips at rate 1/n, so over a time s the Hamming distance between the
    two states is Bin(n, q) with q = (1 - exp(-2 s / n)) / 2, whatever t and
    the start; C(t, s) sums its probabilities over the distances whose
    overlap passes the comparison with 1 - epsilon that
    :func:`~clockproc.environment.overlap_to_reference` makes.  As for other
    closed-form rows, the stderr is 0.0 and no replica is run or censored;
    the predicted column is the arcsine law at ``alpha``.
    """
    pair_list = _checked_pairs(pairs, epsilon)
    near = [d for d in range(n + 1) if (n - 2.0 * d) / n >= 1.0 - epsilon]
    flips = [-math.expm1(-2.0 * s * block_length(n) / n) / 2.0 for _, s in pair_list]
    exact = [math.fsum(math.comb(n, d) * q**d * (1.0 - q) ** (n - d) for d in near) for q in flips]
    none = [0] * len(pair_list)
    return _curve(pair_list, alpha, exact, [0.0] * len(pair_list), none, none)


@dataclass(frozen=True)
class TrapReport:
    """Localisation picture of one aggregation block of a trajectory."""

    block_index: int
    dominant_state: int
    dominant_fraction: float
    ball_time_fraction: float
    reentered: bool
    untrapped: bool


def trap_localization_diagnostic(
    env: Environment, segment: TrajectorySegment, epsilon: float, threshold: float
) -> list[TrapReport]:
    """Check whether each whole block's time is dominated by a single trap.

    Block i covers steps i * theta + 1 to (i + 1) * theta of the segment,
    for each of its ``segment.steps // theta`` whole blocks, so a block's
    report does not depend on the steps after it.  The candidate trap is the
    state of the block's single largest time increment; the report gives
    that increment's share of the block's physical time, the share of the
    whole overlap-(1-epsilon) ball around the trap, a flag for re-entry (the
    walk exited the ball and came back within the block), and an
    ``untrapped`` flag when the dominant share falls below ``threshold``, a
    share in (0, 1].
    """
    if not 0 < epsilon <= 2:
        raise ParameterValidationError(f"epsilon must lie in (0, 2]; got {epsilon}")
    if not 0 < threshold <= 1:
        raise ParameterValidationError(f"trap threshold must lie in (0, 1]; got {threshold}")
    theta = env.block_length
    reports = []
    for i in range(segment.steps // theta):
        lo, hi = 1 + i * theta, 1 + (i + 1) * theta
        states = segment.states[lo:hi]
        increments = segment.increments[lo:hi]
        total = float(increments.sum())
        if not total > 0:
            raise ParameterValidationError("block carries no physical time")
        winner = int(np.argmax(increments))
        dominant_state = int(states[winner])
        dominant_fraction = float(increments[winner] / total)
        ball = overlap_to_reference(states, dominant_state, env.n) >= 1.0 - epsilon
        entries = int(np.count_nonzero(np.diff(ball.astype(np.int8)) == 1)) + int(ball[0])
        reports.append(
            TrapReport(
                block_index=i,
                dominant_state=dominant_state,
                dominant_fraction=dominant_fraction,
                ball_time_fraction=float(increments[ball].sum() / total),
                reentered=entries > 1,
                untrapped=dominant_fraction < threshold,
            )
        )
    return reports
