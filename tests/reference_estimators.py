"""Independent Monte Carlo routes that the package no longer runs, kept as
test oracles.

``direct_block_laplace`` samples the waiting times of each block instead of
integrating them out, so it checks the conditional transform the package
uses.  ``folded_transform_moments`` walks the conditional transform's blocks
from the same streams and folds each state's energy through
``conditional_block_laplace``, so it checks the derived term tables the
package folds large chunks through.  ``per_state_block_sums`` walks the
same blocks in one piece and scales each state's hold from its own energy,
so it checks the hold tables and the row blocks of ``_block_sums``.
``blocked_clock`` aggregates one replica's whole segment into its clock
blocks, as the clock once did replica by replica, so it checks the
row-block fold of ``blocked_clocks``; ``segment_draws`` replays a segment's
exponentials from a fresh copy of its noise stream, since a segment keeps
only its states and holds.
``uint64_index_walk`` draws the flip sites as uint64 and builds the path
out of place, as the package's walk builder once did; ``srw_paths`` draws
them as uint32, as the package does, and builds the paths with its
``walk_paths``.  ``sample_path`` draws one
truncated subordinator path on [0, horizon], the oracle path of the
crossing and extension tests.  ``sample_totals`` draws only the horizon
marginal of truncated subordinator paths, which checks the truncated
Laplace exponent.  ``unblocked_self_test`` runs each self-test chunk as
whole padded (paths, jumps) matrices per window, with the carried mass
stacked on as a column and one crossing batch per window, so it checks the
row blocks ``self_test`` builds and the stream order it draws in.
``doubling_aging_curve`` is the aging curve as the package once estimated
it: each replica walks a first segment of four times the expected steps on
its own, doubles it with ``extend_segment`` until its clock passes the
latest time, and compares the two states of each (t, s) pair by
``overlap``, so it checks the row blocks, the growing windows and the
recorded states of ``estimate_aging_curve``.

``SpinConfig`` is the oracles' state type: one packed configuration with its
spin count, checked against the package's ``MAX_SPINS``.  ``hamming`` and
``overlap`` compare two of them one pair at a time in Python integers,
beside the package's vectorised ``overlap_to_reference``.
``random_spin_config`` draws one uniform configuration as a scalar uint64,
the draw each of the package's size-1 stationary starts must reproduce, and
``replica_streams`` opens a replica's two streams from one bare seed.
``truncated_mean_asymptotic`` is the large-n curve of the truncated
single-jump mean, whose slope in epsilon the acceptance criterion checks.
``concentration_diagnostic`` samples environments and tests how the quenched
intensity concentrates across them, the bound acceptance criterion 08 checks.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from clockproc import conditions
from clockproc.aging import AgingCurve
from clockproc.chain import (
    extend_segment, mixing_check, process_at_time, scaled_holds, simulate_segment,
    uniform_starts, walk_paths,
)
from clockproc.conditions import (
    _block_sums, conditional_block_laplace, estimate_squared_tail_grid, resolve_block_count,
)
from clockproc.environment import MAX_SPINS, CouplingTensor, Environment, validate_parameters
from clockproc.errors import BudgetError, DimensionMismatchError, ParameterValidationError
from clockproc.parallel import ordered_map
from clockproc.seeding import StreamFamily, keyed_generator
from clockproc.subordinator import (
    PowerLawLevyMeasure,
    SubordinatorPath,
    arcsine_cdf,
    crossing_probability_batch,
    extend_path,
)
from clockproc.verdicts import z_score

DEFAULT_JUMP_BUDGET = 1.0e8


@dataclass(frozen=True)
class SpinConfig:
    """One corner of the hypercube {-1,+1}^n, packed into an integer.

    Bit ``b`` set means spin ``x_b = +1``; cleared means ``-1``.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_SPINS:
            raise ParameterValidationError(f"spin count must be in [1, {MAX_SPINS}]; got n={self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ParameterValidationError(
                f"state index {self.bits} out of range for n={self.n}"
            )


def hamming(x: SpinConfig, y: SpinConfig) -> int:
    """Number of sites where ``x`` and ``y`` differ."""
    if x.n != y.n:
        raise DimensionMismatchError(f"cannot compare configurations with n={x.n} and n={y.n}")
    return (x.bits ^ y.bits).bit_count()


def overlap(x: SpinConfig, y: SpinConfig) -> float:
    """Normalised overlap R(x,y) = (n - 2*hamming(x,y)) / n, in [-1, 1]."""
    return (x.n - 2 * hamming(x, y)) / x.n


def random_spin_config(n, rng):
    """A uniform configuration of n spins from one scalar uint64 draw of ``rng``."""
    return SpinConfig(n, int(rng.integers(0, 1 << n, dtype=np.uint64)))


def replica_streams(seed):
    """The walk and noise streams of replica 0 of the ``"replica"`` family under ``seed``."""
    return StreamFamily(seed, "replica").replica(0)


def truncated_mean_asymptotic(alpha, beta, gamma, epsilon, horizon):
    """Large-n reference for the truncated single-jump mean.

    Gamma(1+alpha) * eps^(1-alpha) * t / (beta - gamma/beta): its log-log
    slope in eps is exactly 1 - alpha, which is the part the checks assert.
    The prefactor follows the convention with an unnormalised Gaussian kernel
    and sits a factor sqrt(2*pi) above the normalised-measure limit, so it is
    for orientation only.
    """
    if not 0 < alpha < 1:
        raise ParameterValidationError(f"alpha must lie in (0, 1); got {alpha}")
    if beta <= 0 or gamma <= 0:
        raise ParameterValidationError("beta and gamma must be positive")
    denom = beta - gamma / beta
    if denom <= 0:
        raise ParameterValidationError("requires gamma < beta^2")
    return math.gamma(1.0 + alpha) * epsilon ** (1.0 - alpha) / denom * horizon


def uint64_index_walk(n, start_bits, steps, walk_rng):
    """Packed-state SRW paths from uint64 flip sites, built out of place."""
    starts = np.asarray(start_bits, dtype=np.uint64)
    states = np.empty(starts.shape + (steps + 1,), dtype=np.uint64)
    states[..., 0] = starts
    if steps:
        flips = walk_rng.integers(0, n, size=starts.shape + (steps,), dtype=np.uint64)
        masks = np.uint64(1) << flips
        np.bitwise_xor.accumulate(masks, axis=-1, out=masks)
        states[..., 1:] = starts[..., None] ^ masks
    return states


def srw_paths(n, starts, steps, rng):
    """``steps``-step SRW paths from ``starts`` through ``walk_paths``, the
    flip sites drawn from ``rng`` as uint32 in one draw."""
    flips = rng.integers(0, n, size=np.shape(starts) + (steps,), dtype=np.uint32)
    return walk_paths(starts, flips)


def per_state_block_sums(env, count, streams, presteps=0, starts=None):
    """Block sums exp(beta*H - log time scale) * e of ``count`` blocks, walked
    in one piece and scaled from each state's energy."""
    theta = env.block_length
    if starts is None:
        starts = streams.walk.integers(0, 1 << env.n, size=count, dtype=np.uint64)
    walk = uint64_index_walk(env.n, starts, presteps + theta - 1, streams.walk)[:, presteps:]
    energies = env.energies(walk)
    draws = streams.noise.standard_exponential((count, theta))
    with np.errstate(over="ignore"):
        return (np.exp(env.beta * energies - env.log_time_scale) * draws).sum(axis=1)


def segment_draws(segment, noise):
    """The unit exponentials of ``segment``, replayed from a fresh copy
    ``noise`` of its noise stream, which draws them in one call."""
    return noise.standard_exponential(len(segment.states))


def blocked_clock(segment, env, k, noise):
    """(block sums, initial term) of a segment's rescaled clock over k blocks
    of ``env.block_length`` steps, the starting state's hold kept out; its
    energies are read from ``env`` and its exponentials replayed from a fresh
    copy ``noise`` of its noise stream."""
    theta = env.block_length
    need = k * theta + 1
    log_scaled = env.beta * env.energies(segment.states[:need]) - env.log_time_scale
    with np.errstate(over="ignore"):
        scaled = np.exp(log_scaled) * segment_draws(segment, noise)[:need]
    return scaled[1:need].reshape(k, theta).sum(axis=1), float(scaled[0])


def direct_block_laplace(env, v_values, samples, streams):
    """(means, stderrs) of exp(-v * block sum) over fully sampled blocks."""
    sums = _block_sums(env, uniform_starts(env.n, samples, streams.walk), streams)
    weights = np.exp(-np.asarray(v_values, dtype=np.float64)[:, None] * sums[None, :])
    means = weights.mean(axis=1)
    stds = weights.std(axis=1, ddof=1) if samples > 1 else np.zeros_like(means)
    return means, stds / math.sqrt(samples)


def folded_transform_moments(env, v_values, samples, streams):
    """(means, stds) of the conditional block transform over ``samples``
    uniform-start blocks, walked in the package's chunks and folded state by
    state, with the package's running moments."""
    theta = env.block_length
    starts = streams.walk.integers(0, 1 << env.n, size=samples, dtype=np.uint64)
    chunk = max(1, conditions._CHUNK_STATES // theta)
    sums = np.zeros(len(v_values))
    squares = np.zeros(len(v_values))
    lows = np.full(len(v_values), np.inf)
    highs = np.full(len(v_values), -np.inf)
    for lo in range(0, samples, chunk):
        walk = srw_paths(env.n, starts[lo : lo + chunk], theta - 1, streams.walk)
        energies = env.energies(walk)
        for j, g in enumerate(conditional_block_laplace(env, energies, v_values)):
            sums[j] += g.sum()
            squares[j] += (g * g).sum()
            lows[j] = min(lows[j], g.min())
            highs[j] = max(highs[j], g.max())
    means = sums / samples
    variances = np.maximum(squares - samples * means**2, 0.0) / (samples - 1)
    variances[highs == lows] = 0.0
    return means, np.sqrt(variances)


def sample_path(
    measure: PowerLawLevyMeasure,
    horizon: float,
    cutoff: float,
    rng: np.random.Generator,
) -> SubordinatorPath:
    """Sample the Poisson point representation restricted to jumps > cutoff.

    Jump count is Poisson with mean horizon * nu(cutoff, inf); times are
    uniform on [0, horizon]; sizes follow the conditional power law above the
    cutoff.  This is :func:`extend_path` of the empty path at horizon 0.
    Raises BudgetError when the expected jump count exceeds
    DEFAULT_JUMP_BUDGET (1e8).
    """
    if not horizon > 0:
        raise ParameterValidationError(f"horizon must be positive; got {horizon}")
    if not cutoff > 0:
        raise ParameterValidationError(f"cutoff must be positive; got {cutoff}")
    expected = horizon * float(measure.tail(cutoff))
    if expected > DEFAULT_JUMP_BUDGET:
        raise BudgetError(
            f"expected jump count {expected:.3g} exceeds the budget {DEFAULT_JUMP_BUDGET:.3g}; "
            "raise the cutoff or shorten the horizon"
        )
    empty = np.empty(0)
    return extend_path(SubordinatorPath(measure, 0.0, cutoff, empty, empty), horizon, rng)


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


def padded_window(measure, cutoff, start, end, rows, rng):
    """Poisson points of ``rows`` paths on (start, end] as padded, time-sorted
    (times, sizes, counts) matrices: +inf times and zero sizes past each
    count.  The stream gives the counts, then the uniform times, then the
    uniform sizes."""
    counts = rng.poisson((end - start) * float(measure.tail(cutoff)), size=rows)
    width = max(int(counts.max()), 1)
    times = np.full((rows, width), np.inf)
    sizes = np.zeros((rows, width))
    mask = np.arange(width)[None, :] < counts[:, None]
    total = int(counts.sum())
    times[mask] = rng.uniform(start, end, size=total)
    times.sort(axis=1)
    sizes[mask] = measure.jump_sizes(cutoff, rng.uniform(size=total))
    return times, sizes, counts


def unblocked_self_test(pairs, v_grid, paths, master_seed, alphas=(0.3, 0.5, 0.7)):
    """(alpha, crossings, transform means) of the self-test, each chunk's
    window read as one padded matrix pair and one crossing batch."""
    cutoff, chunk = 1.0e-4, 2000
    deepest = int(np.argmax([t for t, _ in pairs]))
    v_arr = np.asarray(v_grid, dtype=np.float64)
    out = []
    for alpha in alphas:
        measure = PowerLawLevyMeasure(1.0, alpha)
        drift_rate = measure.truncated_mean_rate(cutoff)
        family = StreamFamily(master_seed, f"subordinator-selftest-{alpha!r}")
        results = []
        for c in range((paths + chunk - 1) // chunk):
            rng = keyed_generator(family.seed_for(c))
            count = min(chunk, paths - c * chunk)
            flags = np.full((len(pairs), count), -1, dtype=np.int64)
            mass = np.zeros(count)
            rows = np.arange(count)
            start, end = 0.0, 1.0
            while rows.size:
                times, sizes, counts = padded_window(measure, cutoff, start, end, rows.size, rng)
                if start == 0.0:
                    weights = np.exp(-np.outer(v_arr, sizes.sum(axis=1) + drift_rate))
                times = np.column_stack([np.zeros(rows.size), times])
                sizes = np.column_stack([mass[rows], sizes])
                window = crossing_probability_batch(times, sizes, counts + 1, drift_rate, pairs)
                flags[:, rows] = np.where(flags[:, rows] < 0, window, flags[:, rows])
                mass[rows] = sizes.sum(axis=1)
                rows = rows[flags[deepest, rows] < 0]
                start, end = end, 2.0 * end
            results.append((flags.sum(axis=1), weights.sum(axis=1)))
        crossings = np.sum([r[0] for r in results], axis=0)
        means = (np.sum([r[1] for r in results], axis=0) / paths).tolist()
        out.append((alpha, crossings, means))
    return out


def doubling_aging_curve(
    env, pairs, epsilon, replicas, master_seed, *, time_unit=None, step_cap=100_000_000
):
    """The ``AgingCurve`` of ``estimate_aging_curve``, one replica at a time:
    each walks a segment of four times the expected steps, doubles it until
    its clock passes the latest pair or it reaches ``step_cap``, and counts a
    hit where the overlap of a reached pair's two states is >= 1 - epsilon.
    ``time_unit`` (default: the observation time scale) lets it walk the
    flat (beta = 0) chain, whose curve the package gives in closed form."""
    pairs = [(float(t), float(s)) for t, s in pairs]
    unit = env.time_scale if time_unit is None else float(time_unit)
    latest = max(t + s for t, s in pairs)
    if env.step_scale is not None and math.isfinite(env.step_scale):
        expected_steps = latest * env.step_scale * unit / env.time_scale
    else:
        expected_steps = latest * unit
    first_steps = min(max(1, math.ceil(4.0 * expected_steps)), step_cap)
    family = StreamFamily(master_seed, "aging")
    hits = np.zeros(len(pairs), dtype=np.int64)
    valid = np.zeros(len(pairs), dtype=np.int64)
    for i in range(replicas):
        streams = family.replica(i)
        segment = simulate_segment(env, first_steps, streams)
        while segment.cumulative()[-1] <= latest * unit and segment.steps < step_cap:
            extra = min(segment.steps, step_cap - segment.steps)
            segment = extend_segment(env, segment, extra, streams)
        horizon = segment.cumulative()[-1]
        for j, (t, s) in enumerate(pairs):
            if (t + s) * unit >= horizon:
                continue  # censored at the step cap
            valid[j] += 1
            x, y = (
                SpinConfig(env.n, int(bits))
                for bits in process_at_time(segment, env, np.array([t, t + s]) * unit)
            )
            hits[j] += overlap(x, y) >= 1.0 - epsilon
    rates = [h / v if v else math.nan for h, v in zip(hits, valid)]
    ratios = [t / (t + s) for t, s in pairs]
    return AgingCurve(
        pairs=tuple(pairs),
        ratios=tuple(ratios),
        estimates=tuple(float(p) for p in rates),
        stderrs=tuple(
            float(math.sqrt(p * (1.0 - p) / v)) if v else math.nan for p, v in zip(rates, valid)
        ),
        predicted=tuple(
            math.nan if env.alpha is None else float(arcsine_cdf(env.alpha, r)) for r in ratios
        ),
        completed=tuple(int(v) for v in valid),
        censored=tuple(int(replicas - v) for v in valid),
    )


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
    threads: int = 1,
) -> ConcentrationReport:
    """Sample environments and test the quenched intensity's concentration.

    Each replica gets its own coupling draw and stream pair derived from
    ``master_seed``, so the report is reproducible and independent of
    ``threads``.  The deviation grid defaults to ten geometric points from
    half to eight times the bound's own scale sqrt(rho*nu^2 + sigma^2).
    A given ``horizon`` is ``environment.HORIZON``, the one the block count
    ``literal_block_count`` is derived at; ``block_count`` overrides the count
    the estimates use.
    """
    validate_parameters(n, p, beta, gamma)
    if horizon is None and block_count is None:
        raise ParameterValidationError("pass a horizon t or an explicit block count")
    if replicas < 2:
        raise ParameterValidationError("need at least two environment replicas")
    family = StreamFamily(master_seed, "concentration")
    env_family = StreamFamily(master_seed, "concentration/environment")

    def environment(i: int) -> Environment:
        return Environment(CouplingTensor.sample(n, p, env_family.seed_for(i)), beta, gamma)

    # replica 0's environment carries the scales every replica shares
    first = environment(0)
    theta = first.block_length
    literal = None if horizon is None else first.block_count
    k = resolve_block_count(first, block_count)

    def worker(i: int):
        env = first if i == 0 else environment(i)
        streams = family.replica(i)
        walk = simulate_segment(env, walk_blocks * theta - 1, streams)
        # blocks start at step 0 here, not at step 1 as in blocked_clocks; the
        # exponentials are replayed from a fresh copy of the noise stream
        increments = scaled_holds(env, env.energies(walk.states))
        increments *= segment_draws(walk, family.replica(i).noise)
        block_exceeds = increments.reshape(walk_blocks, theta).sum(axis=1) > threshold
        q_hat = float(block_exceeds.mean())
        # independent single-block marginal (fresh uniform starts) for the
        # mean-identity check, then the two correlated-square routes; the
        # replicas already run on the pool, so these walk on this thread alone
        starts = uniform_starts(env.n, pair_samples, streams.walk)
        marginal = _block_sums(env, starts, streams) > threshold
        # at k = 1 each route's value is its joint hit rate, bit for bit
        (two_step,), (split,) = estimate_squared_tail_grid(
            env, 1, [threshold], pair_samples, streams
        )
        return q_hat, float(marginal.mean()), two_step.value, split.value

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
