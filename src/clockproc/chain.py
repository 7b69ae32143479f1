"""Nearest-neighbour walks on the hypercube and their re-clocked time changes.

The jump chain is simple random walk: each step flips one uniformly chosen
spin.  ``walk_paths`` builds every walk of the package, the condition
estimators' too, and ``uniform_starts`` draws every stationary (uniform)
start.  The clock process attaches to every visited state an exponential
waiting time scaled by the holding time tau of that state; aggregating the
rescaled clock over fixed-length blocks yields the jump sizes whose tail
statistics the conditions module estimates.  ``scaled_holds`` is the one
place a hold is rescaled, as exp(beta*H - log time scale).  One row path
draws every trajectory: a row block of replicas at a time, each from its own
streams, from a given start or the stationary one; only ``map_replicas``
splits replicas into row blocks for the thread pool.
``blocked_clocks`` folds a block's rescaled holds straight into block sums,
``simulate_segment`` keeps one replica's whole segment, and
``extend_segment`` continues a segment with the same streams.
``walk_to_times`` walks a block in growing windows that stop at the latest
query time, and keeps only each replica's state at the query times and its
final clock, so its memory is one window, not a segment.

The exact mixing check runs on Hamming-distance classes in exact integer
arithmetic, so it covers every supported n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .environment import Environment, SpinConfig
from .errors import DimensionMismatchError, HorizonError, ParameterValidationError
from .parallel import ordered_map, row_blocks
from .seeding import ReplicaStreams, StreamFamily

__all__ = [
    "TrajectorySegment",
    "MixingReport",
    "map_replicas",
    "scaled_holds",
    "blocked_clocks",
    "simulate_segment",
    "extend_segment",
    "walk_to_times",
    "process_at_time",
    "mixing_check",
]

# a row block of segments, or one window of a windowed walk, holds about this
# many visited states: their packed states, energies, exponentials, holds and
# clock, 40 bytes a state; no output read off the energy table depends on it
SEGMENT_BLOCK_STATES = 1 << 14


def walk_paths(starts, flips: np.ndarray) -> np.ndarray:
    """Packed-state SRW paths, shape (..., steps + 1), from their starts and
    (..., steps) uint32 flip sites; a scalar start gives one path.  One shift
    and one accumulate over each row, start included, make column j the start
    xor the first j moves.  Below 2^32, NumPy draws bounded uint32 and uint64
    by one 32-bit Lemire path, so the sites and the stream match a uint64 draw."""
    states = np.empty(flips.shape[:-1] + (flips.shape[-1] + 1,), dtype=np.uint64)
    states[..., 0] = starts
    np.left_shift(np.uint64(1), flips, out=states[..., 1:])
    np.bitwise_xor.accumulate(states, axis=-1, out=states)
    return states


def uniform_starts(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform (stationary) packed states drawn from ``rng``."""
    if count < 1:
        raise ParameterValidationError(f"sample count must be >= 1; got {count}")
    return rng.integers(0, 1 << n, size=count, dtype=np.uint64)


@dataclass
class TrajectorySegment:
    """A simulated walk with one waiting time per visited state.

    ``states`` has length L+1 for L steps; ``increments[i]`` is
    tau(states[i]) * e_i with e_i a unit-mean exponential, i.e. the physical
    time spent at the i-th visited state.  Immutable by convention once
    built; extension returns a new segment.
    """

    states: np.ndarray
    energies: np.ndarray
    exp_draws: np.ndarray
    increments: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def cumulative(self) -> np.ndarray:
        """Partial sums of increments: entry j is the clock after j+1 holds."""
        return np.cumsum(self.increments)


def _segment_rows(
    env: Environment, starts: np.ndarray, steps: int, streams: list[ReplicaStreams], first: int
) -> tuple[np.ndarray, ...]:
    """(states, energies, exponentials, holds) of one row per replica: row r
    walks ``steps`` steps from ``starts[r]`` with flips from
    ``streams[r].walk``, keeps its states from column ``first`` on, and holds
    each kept state tau * e with e from ``streams[r].noise``.  Each row draws
    what a one-row call would, so it does not depend on the rows beside it."""
    states = walk_paths(
        starts, np.array([r.walk.integers(0, env.n, size=steps, dtype=np.uint32) for r in streams])
    )[:, first:]
    energies = env.energies(states)
    # drawn by size and stacked: filling the rows through ``out=`` ran slower
    # on pool threads
    draws = np.array([r.noise.standard_exponential(states.shape[-1]) for r in streams])
    holds = env.beta * energies
    with np.errstate(over="ignore"):
        np.exp(holds, out=holds)
    holds *= draws
    return states, energies, draws, holds


def map_replicas(
    env: Environment, length: int, family: StreamFamily, count: int, threads: int, fn: Callable
) -> list:
    """``fn`` of each row block of replicas 0..count-1, in block order: ``fn``
    takes the block's ``family.replica(i)`` streams, and the blocks run on
    ``threads`` pool threads.  The blocks are :func:`row_blocks` of
    ``length``-step replicas within ``SEGMENT_BLOCK_STATES`` states, or one
    replica past the table, where an energy depends on its contraction batch."""
    budget = SEGMENT_BLOCK_STATES if env.has_energy_table else 1
    blocks = [range(*block) for block in row_blocks(count, length + 1, budget)]
    return ordered_map(lambda b: fn([family.replica(i) for i in blocks[b]]), len(blocks), threads)


def _origins(
    env: Environment, start: SpinConfig | None, streams: list[ReplicaStreams]
) -> np.ndarray:
    """Each replica's packed start: ``start``, or with ``start=None`` a uniform
    (stationary) state drawn from the replica's walk stream."""
    if start is None:
        return np.concatenate([uniform_starts(env.n, 1, r.walk) for r in streams])
    if start.n != env.n:
        raise DimensionMismatchError(f"start has n={start.n}; environment has n={env.n}")
    return np.full(len(streams), start.bits, dtype=np.uint64)


def scaled_holds(env: Environment, energies: np.ndarray) -> np.ndarray:
    """exp(beta*H - log time scale) of ``energies``, in place, saturating to inf.

    The holds are rescaled stably, never as a quotient of raw exponentials.
    """
    energies *= env.beta
    energies -= env.log_time_scale
    with np.errstate(over="ignore"):
        return np.exp(energies, out=energies)


def blocked_clocks(
    env: Environment, start: SpinConfig | None, k: int, streams: list[ReplicaStreams]
) -> tuple[np.ndarray, np.ndarray]:
    """The rescaled clocks of a row block of replicas over k aggregation blocks.

    Row r of the (rows, k) block sums holds replica r's rescaled clock
    increments exp(beta*H - gamma*n) * e, block i+1 covering steps
    theta*i+1 .. theta*(i+1), each block summed on its own (pairwise); the
    (rows,) initial terms are the rescaled holds of the starting states
    (step 0), kept out of the blocks.  ``start=None`` draws each replica's
    uniform (stationary) start from its walk stream before its steps.
    Replica r draws its start, flips and exponentials from ``streams[r]``
    alone, in that order, as :func:`simulate_segment` draws them, so its row
    does not depend on the block it is drawn in.  One walk build, one energy
    lookup and one rescaling pass serve the whole block.
    """
    if k < 0:
        raise ParameterValidationError(f"block count must be >= 0; got {k}")
    theta = env.block_length
    _, energies, draws, _ = _segment_rows(env, _origins(env, start, streams), k * theta, streams, 0)
    scaled = scaled_holds(env, energies)
    scaled *= draws
    # the initial terms are copied out so the block's holds are not kept alive
    return scaled[:, 1:].reshape(len(streams), k, theta).sum(axis=-1), scaled[:, 0].copy()


def simulate_segment(
    env: Environment, start: SpinConfig | None, length: int, streams: ReplicaStreams
) -> TrajectorySegment:
    """Run ``length`` SRW steps from ``start`` and attach waiting times.

    ``start=None`` draws the uniform (stationary) start from the walk stream
    before the steps.  The start, flips and exponentials come from
    ``streams`` alone, in that order, so the segment is deterministic given
    (env, start, the stream seeds).  A segment simulated with the same
    streams and a larger length extends this one prefix-stably, because
    steps and waiting times come from separate substreams.
    """
    if length < 1:
        raise ParameterValidationError(f"segment length must be >= 1; got {length}")
    rows = _segment_rows(env, _origins(env, start, [streams]), length, [streams], 0)
    return TrajectorySegment(*(row[0] for row in rows))


def extend_segment(
    env: Environment, segment: TrajectorySegment, extra: int, streams: ReplicaStreams
) -> TrajectorySegment:
    """Continue a segment by ``extra`` steps using the same replica streams.

    Returns a new segment whose first part equals the original.
    """
    if extra < 1:
        raise ParameterValidationError(f"extension must be >= 1 steps; got {extra}")
    states, energies, draws, holds = _segment_rows(env, segment.states[-1:], extra, [streams], 1)
    return TrajectorySegment(
        states=np.concatenate([segment.states, states[0]]),
        energies=np.concatenate([segment.energies, energies[0]]),
        exp_draws=np.concatenate([segment.exp_draws, draws[0]]),
        increments=np.concatenate([segment.increments, holds[0]]),
    )


def walk_to_times(
    env: Environment,
    start: SpinConfig | None,
    times,
    first: int,
    step_cap: int,
    streams: list[ReplicaStreams],
) -> tuple[np.ndarray, np.ndarray]:
    """Where a row block of replicas sits at each of ``times``, and their final clocks.

    Replica r starts as in :func:`blocked_clocks` and walks in windows
    through the same row path: ``first`` steps, then twice the last window,
    with the open rows times the window's states capped at
    ``SEGMENT_BLOCK_STATES``.  A row carries its last state into the next
    window and its running clock into that window's first hold, before the
    row-wise sum, so its clock has the bits of one long segment's.  A row
    stops once its clock passes the latest time, or at exactly ``step_cap``
    steps.  Entry (r, j) of the returned states is the state
    :func:`process_at_time` would read at ``times[j]`` on row r's whole
    segment, wherever ``times[j]`` is below row r's final clock; past it the
    row is censored and the entry is 0.  Only the recorded states and the
    clocks outlive a window.
    """
    if not 1 <= first <= step_cap:
        raise ParameterValidationError(f"need 1 <= first <= step_cap; got {first} and {step_cap}")
    queries, order = np.unique(np.asarray(times, dtype=np.float64), return_inverse=True)
    if not queries.size or queries[0] < 0:
        raise ParameterValidationError("need at least one time, all nonnegative")
    last = _origins(env, start, streams)
    clocks = np.zeros(len(streams))
    found = np.zeros((len(streams), queries.size), dtype=np.uint64)
    placed = np.zeros(len(streams), dtype=np.intp)  # each row's sorted queries placed so far
    rows = np.arange(len(streams))
    steps, window = 0, first
    while rows.size:
        window = min(window, step_cap - steps, max(1, SEGMENT_BLOCK_STATES // rows.size - 1))
        states, energies, draws, clock = _segment_rows(
            env, last[rows], window, [streams[r] for r in rows], int(steps > 0)
        )
        del energies, draws  # only the states and the clock are read
        clock[:, 0] += clocks[rows]
        np.cumsum(clock, axis=1, out=clock)
        # a row's unplaced queries all lie at or past this window's start;
        # search the rows whose clock passes the first of them
        for i in np.flatnonzero(clock[:, -1] > queries[placed[rows]]):
            r, row_clock = rows[i], clock[i]
            at = row_clock.searchsorted(queries[placed[r] :], side="right")
            count = np.count_nonzero(at < row_clock.size)
            found[r, placed[r] : placed[r] + count] = states[i, at[:count]]
            placed[r] += count
        clocks[rows] = clock[:, -1]
        last[rows] = states[:, -1]
        del states, clock  # one window at a time: free this one before the next is drawn
        steps += window
        rows = rows[clocks[rows] <= queries[-1]] if steps < step_cap else rows[:0]
        window *= 2
    return found[:, order], clocks


def process_at_time(segment: TrajectorySegment, env: Environment, t):
    """State of the time-changed process at physical time t (binary search).

    The process sits at visited state i for clock values in
    [cum_{i-1}, cum_i); t = 0 returns the starting state.  The packed states
    come back in the shape of t, an array of times read in one search.
    Querying at or beyond the segment's horizon raises HorizonError.
    """
    times = np.asarray(t, dtype=np.float64)
    if (times < 0).any():
        raise ParameterValidationError(f"time must be nonnegative; got {times.min()}")
    cum = segment.cumulative()
    i = cum.searchsorted(times, side="right")
    if (i >= len(cum)).any():
        raise HorizonError(
            f"time {times.max():.6g} is beyond the simulated horizon {cum[-1]:.6g}"
        )
    return segment.states[i]


@dataclass(frozen=True)
class MixingReport:
    """Exact two-parity mixing check after one aggregation block.

    ``max_violation`` is the exact maximum over state pairs (x, y) of
    | sum_{k=0,1} P_pi(J(theta+k)=y, J(0)=x) - 2*pi(x)*pi(y) |, and ``bound``
    is the certified value 2^(1-3n).  ``rho_implied`` rescales the violation
    by pi_min^2, the form consumed by the concentration bound.  Both are
    computed as exact rationals and rounded to float once; ``passed`` compares
    the exact violation with the bound.
    """

    n: int
    theta: int
    max_violation: float
    bound: float
    passed: bool
    rho_implied: float


def mixing_check(n: int, theta: int) -> MixingReport:
    """Exact mixing verification for the two-step-parity pair sum.

    The SRW kernel commutes with the bit-flip group and the coordinate
    permutations, so the law after k steps from a fixed start depends on the
    target only through its Hamming distance d (the Ehrenfest chain).  With
    c_k(d) the number of k-step flip sequences ending at distance d,
    c_{k+1}(d) = (n-d+1) c_k(d-1) + (d+1) c_k(d+1) and
    P(J(k)=y) = c_k(d) / (n^k C(n,d)); the counts are integers, so the check
    is exact at every n.
    """
    SpinConfig(n, 0)  # n must be a valid packed-state dimension
    if theta < 0:
        raise ParameterValidationError(f"theta must be >= 0; got {theta}")
    counts = [1] + [0] * n
    for _ in range(theta + 1):
        before, padded = counts, [0, *counts, 0]
        counts = [(n - d + 1) * padded[d] + (d + 1) * padded[d + 2] for d in range(n + 1)]
    # rho = 4^n |2^-n (P_theta + P_theta+1) - 2 * 4^-n|, maximised over distance classes
    paths = n ** (theta + 1)
    rho = max(
        abs(Fraction((n * c + c_next) << n, paths * math.comb(n, d)) - 2)
        for d, (c, c_next) in enumerate(zip(before, counts))
    )
    violation = rho / 4**n
    bound = Fraction(2, 8**n)
    return MixingReport(
        n=n,
        theta=theta,
        max_violation=float(violation),
        bound=float(bound),
        passed=violation <= bound,
        rho_implied=float(rho),
    )
