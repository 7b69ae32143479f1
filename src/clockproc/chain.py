"""Nearest-neighbour walks on the hypercube and their re-clocked time changes.

The jump chain is simple random walk: each step flips one uniformly chosen
spin.  The clock process attaches to every visited state an exponential
waiting time scaled by the holding time tau of that state; aggregating the
rescaled clock over fixed-length blocks yields the jump sizes whose tail
statistics the conditions module estimates.

All exact-kernel routines here are dense 2^n computations intended as small-n
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environment import EXP_OVERFLOW, Environment, SpinConfig
from .errors import (
    CapabilityError,
    DimensionMismatchError,
    HorizonError,
    ParameterValidationError,
    SegmentLengthError,
)
from .seeding import ReplicaStreams

__all__ = [
    "TrajectorySegment",
    "ClockPath",
    "MixingReport",
    "srw_step",
    "simulate_segment",
    "extend_segment",
    "blocked_clock",
    "process_at_time",
    "exact_step_distribution",
    "apply_srw_kernel",
    "mixing_check",
]

EXACT_KERNEL_MAX_N = 12


def srw_step(x: SpinConfig, rng: np.random.Generator) -> SpinConfig:
    """One SRW step: flip a uniformly chosen spin (one RNG draw)."""
    return x.flip(int(rng.integers(0, x.n)))


def index_walk(n: int, start_bits, steps: int, walk_rng: np.random.Generator) -> np.ndarray:
    """Packed-state SRW paths of ``steps`` steps, each including its start.

    A scalar start gives one path of length steps+1; an array of m starts
    gives m independent paths, shape (m, steps+1), whose flips come from one
    draw of shape (m, steps).
    """
    starts = np.asarray(start_bits, dtype=np.uint64)
    states = np.empty(starts.shape + (steps + 1,), dtype=np.uint64)
    states[..., 0] = starts
    if steps:
        flips = walk_rng.integers(0, n, size=starts.shape + (steps,), dtype=np.uint64)
        masks = np.uint64(1) << flips
        np.bitwise_xor.accumulate(masks, axis=-1, out=masks)
        states[..., 1:] = starts[..., None] ^ masks
    return states


@dataclass
class TrajectorySegment:
    """A simulated walk with one waiting time per visited state.

    ``states`` has length L+1 for L steps; ``increments[i]`` is
    tau(states[i]) * e_i with e_i a unit-mean exponential, i.e. the physical
    time spent at the i-th visited state.  Immutable by convention once
    built; extension returns a new segment.
    """

    n: int
    states: np.ndarray
    energies: np.ndarray
    exp_draws: np.ndarray
    increments: np.ndarray
    saturated: int
    _cumulative: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def cumulative(self) -> np.ndarray:
        """Partial sums of increments: entry j is the clock after j+1 holds."""
        if self._cumulative is None or len(self._cumulative) != len(self.increments):
            self._cumulative = np.cumsum(self.increments)
        return self._cumulative

    @property
    def horizon(self) -> float:
        return float(self.cumulative()[-1])


def _holding_increments(env: Environment, energies: np.ndarray, draws: np.ndarray):
    log_tau = env.beta * energies
    with np.errstate(over="ignore"):
        tau_vals = np.exp(log_tau)
    saturated = int(np.count_nonzero(log_tau > EXP_OVERFLOW))
    return tau_vals * draws, saturated


def simulate_segment(
    env: Environment, start: SpinConfig, length: int, streams: ReplicaStreams
) -> TrajectorySegment:
    """Run ``length`` SRW steps from ``start`` and attach waiting times.

    Deterministic given (env, start, stream seeds).  A segment simulated with
    the same streams and a larger length extends this one prefix-stably,
    because steps and waiting times come from separate substreams.
    """
    if start.n != env.n:
        raise DimensionMismatchError(f"start has n={start.n}; environment has n={env.n}")
    if length < 1:
        raise ParameterValidationError(f"segment length must be >= 1; got {length}")
    states = index_walk(env.n, start.bits, length, streams.walk)
    energies = env.energies(states)
    draws = streams.noise.standard_exponential(length + 1)
    increments, saturated = _holding_increments(env, energies, draws)
    return TrajectorySegment(
        n=env.n,
        states=states,
        energies=energies,
        exp_draws=draws,
        increments=increments,
        saturated=saturated,
    )


def extend_segment(
    env: Environment, segment: TrajectorySegment, extra: int, streams: ReplicaStreams
) -> TrajectorySegment:
    """Continue a segment by ``extra`` steps using the same replica streams.

    Returns a new segment whose first part equals the original.
    """
    if extra < 1:
        raise ParameterValidationError(f"extension must be >= 1 steps; got {extra}")
    last = int(segment.states[-1])
    tail_states = index_walk(env.n, last, extra, streams.walk)[1:]
    tail_energies = env.energies(tail_states)
    tail_draws = streams.noise.standard_exponential(extra)
    tail_inc, tail_sat = _holding_increments(env, tail_energies, tail_draws)
    return TrajectorySegment(
        n=segment.n,
        states=np.concatenate([segment.states, tail_states]),
        energies=np.concatenate([segment.energies, tail_energies]),
        exp_draws=np.concatenate([segment.exp_draws, tail_draws]),
        increments=np.concatenate([segment.increments, tail_inc]),
        saturated=segment.saturated + tail_sat,
    )


@dataclass
class ClockPath:
    """Partial sums of the rescaled clock, one entry per aggregation block.

    ``times[i]`` is the rescaled clock after i+1 blocks.  The waiting time of
    the starting state (step 0) is recorded separately in ``initial_term``
    and excluded from the path: block i covers steps theta*(i-1)+1 .. theta*i.
    """

    times: np.ndarray
    index_unit: str
    scale: float
    initial_term: float

    def block_sums(self) -> np.ndarray:
        return np.diff(self.times, prepend=0.0)


def blocked_clock(segment: TrajectorySegment, env: Environment, k: int) -> ClockPath:
    """Aggregate a segment's rescaled clock into k fixed-length blocks.

    Increments are rescaled stably as exp(beta*H - gamma*n) * e, never as a
    quotient of raw exponentials.  Block sums use pairwise summation.
    """
    if k < 0:
        raise ParameterValidationError(f"block count must be >= 0; got {k}")
    theta = env.block_length
    need = k * theta + 1
    if len(segment.increments) < need:
        raise SegmentLengthError(
            f"segment has {len(segment.increments)} increments; "
            f"{need} needed for {k} blocks of length {theta}"
        )
    log_scaled = env.beta * segment.energies[:need] - env.log_time_scale
    with np.errstate(over="ignore"):
        scaled = np.exp(log_scaled) * segment.exp_draws[:need]
    blocks = scaled[1:need].reshape(k, theta).sum(axis=1)
    return ClockPath(
        times=np.cumsum(blocks),
        index_unit="blocks",
        scale=env.time_scale,
        initial_term=float(scaled[0]),
    )


def process_at_time(segment: TrajectorySegment, env: Environment, t: float) -> SpinConfig:
    """State of the time-changed process at physical time t (binary search).

    The process sits at visited state i for clock values in
    [cum_{i-1}, cum_i); t = 0 returns the starting state.  Querying at or
    beyond the segment's horizon raises HorizonError.
    """
    if t < 0:
        raise ParameterValidationError(f"time must be nonnegative; got {t}")
    cum = segment.cumulative()
    i = int(np.searchsorted(cum, t, side="right"))
    if i >= len(cum):
        raise HorizonError(
            f"time {t:.6g} is beyond the simulated horizon {segment.horizon:.6g}"
        )
    return SpinConfig(segment.n, int(segment.states[i]))


# -- exact dense kernel (small-n oracle) ---------------------------------


def apply_srw_kernel(vec: np.ndarray, n: int) -> np.ndarray:
    """One exact SRW transition applied to a dense distribution over 2^n states."""
    if vec.shape != (1 << n,):
        raise DimensionMismatchError(f"vector length {vec.shape} does not match 2^{n}")
    out = np.zeros_like(vec, dtype=np.float64)
    for b in range(n):
        flipped = vec.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(vec.shape)
        out += flipped
    return out / n


def exact_step_distribution(n: int, start: int, k: int) -> np.ndarray:
    """Exact distribution of the SRW after k steps from a packed start state.

    Dense 2^n computation; refuses n > 12.
    """
    if n > EXACT_KERNEL_MAX_N:
        raise CapabilityError(
            f"exact kernel supports n <= {EXACT_KERNEL_MAX_N}; got n={n}"
        )
    if not 0 <= start < (1 << n):
        raise ParameterValidationError(f"start index {start} out of range for n={n}")
    if k < 0:
        raise ParameterValidationError(f"step count must be >= 0; got {k}")
    vec = np.zeros(1 << n)
    vec[start] = 1.0
    for _ in range(k):
        vec = apply_srw_kernel(vec, n)
    return vec


@dataclass(frozen=True)
class MixingReport:
    """Exact two-parity mixing check after one aggregation block.

    ``max_violation`` is the exact maximum over state pairs (x, y) of
    | sum_{k=0,1} P_pi(J(theta+k)=y, J(0)=x) - 2*pi(x)*pi(y) |, and ``bound``
    is the certified value 2^(1-3n).  ``rho_implied`` rescales the violation
    by pi_min^2, the form consumed by the concentration bound.
    """

    n: int
    theta: int
    max_violation: float
    bound: float
    passed: bool
    rho_implied: float


def mixing_check(n: int, theta: int) -> MixingReport:
    """Exact mixing verification for the two-step-parity pair sum.

    Uses a single start state: the SRW kernel commutes with the bit-flip
    group, so the pair distribution depends on (x, y) only through x XOR y.
    """
    if n > EXACT_KERNEL_MAX_N:
        raise CapabilityError(
            f"mixing_check supports n <= {EXACT_KERNEL_MAX_N}; got n={n}"
        )
    if theta < 0:
        raise ParameterValidationError(f"theta must be >= 0; got {theta}")
    pi = 2.0**-n
    dist = exact_step_distribution(n, 0, theta)
    dist_next = apply_srw_kernel(dist, n)
    pair = pi * (dist + dist_next)
    violation = float(np.max(np.abs(pair - 2.0 * pi * pi)))
    bound = 2.0 ** (1 - 3 * n)
    return MixingReport(
        n=n,
        theta=theta,
        max_violation=violation,
        bound=bound,
        passed=violation <= bound,
        rho_implied=violation / (pi * pi),
    )
