"""Independent Monte Carlo routes that the package no longer runs, kept as
test oracles.

``direct_block_laplace`` samples the waiting times of each block instead of
integrating them out, so it checks the conditional transform the package
uses.  ``folded_transform_moments`` walks the conditional transform's blocks
from the same streams and folds each state's energy through
``conditional_block_laplace``, so it checks the derived term tables the
package folds large chunks through.  ``per_state_block_sums`` walks the
same blocks in one piece and scales each state's hold from its own energy,
so it checks the hold tables and the chunking of ``_block_sums``.
``uint64_index_walk`` draws the flip sites as uint64 and builds the path
out of place, as ``index_walk`` once did.  ``sample_totals`` draws only the
horizon marginal of truncated subordinator paths, which checks the
truncated Laplace exponent.  ``unblocked_self_test`` runs each self-test
chunk as whole padded (paths, jumps) matrices per window, with the carried
mass stacked on as a column and one crossing batch per window, so it checks
the row blocks ``self_test`` builds and the stream order it draws in.
"""

import math

import numpy as np

from clockproc import conditions
from clockproc.chain import index_walk
from clockproc.conditions import _block_sums, conditional_block_laplace
from clockproc.errors import BudgetError
from clockproc.seeding import StreamFamily, keyed_generator
from clockproc.subordinator import (
    DEFAULT_JUMP_BUDGET,
    PowerLawLevyMeasure,
    crossing_probability_batch,
)


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


def direct_block_laplace(env, v_values, samples, streams):
    """(means, stderrs) of exp(-v * block sum) over fully sampled blocks."""
    sums = _block_sums(env, samples, streams)
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
        walk = index_walk(env.n, starts[lo : lo + chunk], theta - 1, streams.walk)
        energies = env.energies(walk)
        for j, v in enumerate(v_values):
            g = conditional_block_laplace(env, energies, v)
            sums[j] += g.sum()
            squares[j] += (g * g).sum()
            lows[j] = min(lows[j], g.min())
            highs[j] = max(highs[j], g.max())
    means = sums / samples
    variances = np.maximum(squares - samples * means**2, 0.0) / (samples - 1)
    variances[highs == lows] = 0.0
    return means, np.sqrt(variances)


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
