"""Stable-subordinator reference process and arcsine-law statistics.

The limiting clock is a pure-jump increasing process whose jump intensity has
the power-law tail  nu(u, inf) = K * u^(-alpha),  0 < alpha < 1.  Paths are
sampled from the Poisson point representation restricted to jumps above a
cutoff u_min; the mean of the omitted small jumps is known exactly
(K*alpha/(1-alpha)*u_min^(1-alpha) per unit time) and is added back as a
linear compensation when evaluating path values, which keeps range events
accurate at cutoffs coarse enough to sample cheaply.

:func:`self_test` is the sampler behind ``clockproc subordinator``: it draws
chunks of paths in time windows, [0, 1] first and then doubling horizons.
A window's jumps leave the chunk's stream in one order, every count, then
every time, then every size, and are laid out as padded (paths, jumps)
matrices a block of rows at a time, each block holding at most a fixed
number of entries, so memory does not grow with the window, the chunk or
alpha.  Philox is counter-based, so once a window's counts are drawn the
stream offsets of its times and of its sizes are known: each block reads
its rows' times from the chunk's generator and their sizes from a second
one placed where the sizes start, which then goes on as the chunk's.  Each
block gives its paths' S(1), for the transform, from the first window, and
every interval crossing in one :func:`crossing_probability_batch` pass.
A path stops drawing once a jump lands above the deepest t, since that
first landing above t settles every (t, s) indicator.  Each pool thread
builds into one set of scratch arrays, reused across its chunks, windows
and row blocks; every window's length is a power of two, so scaling its
uniform draws is exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import HorizonError, ParameterValidationError
from .parallel import ordered_map, row_blocks
from .seeding import StreamFamily, keyed_generator, stream_position

__all__ = [
    "PowerLawLevyMeasure",
    "SubordinatorPath",
    "extend_path",
    "arcsine_cdf",
    "crossing_probability",
    "crossing_probability_batch",
    "truncated_laplace_exponent",
    "SelfTest",
    "self_test",
]

# self-test battery: unit-amplitude reference models, their cutoff and the
# chunk size (the config's model section plays no role there); each chunk
# draws from its own keyed stream, so the chunk size fixes the bytes
_SELF_TEST_ALPHAS = (0.3, 0.5, 0.7)
_SELF_TEST_CUTOFF = 1.0e-4
_SELF_TEST_CHUNK = 2000
# entries of each padded matrix a row block builds (see ``parallel.row_blocks``);
# any budget gives the same bytes, since every block shares the window's row length
_SELF_TEST_BLOCK_ELEMENTS = 2**17


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

    def truncated_mean_rate(self, cutoff: float) -> float:
        """Mean mass per unit time of the jumps below ``cutoff`` that sampling omits."""
        if not cutoff > 0:
            raise ParameterValidationError(f"cutoff must be positive; got {cutoff}")
        return self.amplitude * self.alpha / (1.0 - self.alpha) * cutoff ** (1.0 - self.alpha)

    def jump_sizes(self, cutoff: float, u: np.ndarray) -> np.ndarray:
        """Jump sizes above ``cutoff`` from uniforms ``u``, by inverting the
        conditional tail; overwrites the float64 array ``u`` and returns it."""
        np.power(u, -1.0 / self.alpha, out=u)
        u *= cutoff
        return u


@dataclass
class SubordinatorPath:
    """Jumps of one sampled path on [0, horizon], time-sorted.

    Compensated evaluation adds the exact mean of the omitted sub-cutoff jump
    mass back as the linear rate ``compensation_rate``.
    """

    measure: PowerLawLevyMeasure
    horizon: float
    cutoff: float
    times: np.ndarray
    sizes: np.ndarray

    @property
    def compensation_rate(self) -> float:
        return self.measure.truncated_mean_rate(self.cutoff)

    def values(self) -> np.ndarray:
        """Path value immediately after each jump."""
        return np.cumsum(self.sizes) + self.compensation_rate * self.times

    def supremum(self) -> float:
        return float(self.sizes.sum()) + self.compensation_rate * self.horizon


class _Scratch(threading.local):
    """Arrays that each thread reuses across a self-test's chunks, windows
    and row blocks; a thread sees only its own, and all of them are freed
    with the object."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        """The named array's first prod(shape) entries, as a C-contiguous
        ``shape`` view; grows the array when it is too small.  The entries
        hold whatever the last caller left, so a caller overwrites what it
        reads."""
        size = math.prod(shape)
        buf = self.arrays.pop(name, None)
        if buf is None or buf.size < size:
            del buf  # free the smaller array before the larger one is made
            # a sixteenth to spare: a later block is often a little larger,
            # and the heap keeps the pages of each array it replaces
            buf = np.empty(size + size // 16, dtype)
        self.arrays[name] = buf
        return buf[:size].reshape(shape)


def _jump_times(start: float, end: float, rng, out: np.ndarray) -> np.ndarray:
    """Fills the float64 array ``out`` with uniform jump times on (start,
    end] and returns it.  A window's counts come first in the stream, then
    its times, then its sizes; a caller may draw the times in parts, since
    consecutive ``random`` calls give the doubles of one call."""
    # rng.uniform(start, end) is start + (end - start) * u; for a window of
    # power-of-two length, as every self-test window is, the product is exact,
    # so these are its doubles whether or not the two steps are fused
    rng.random(out=out)
    out *= end - start
    out += start
    return out


def extend_path(
    path: SubordinatorPath, new_horizon: float, rng: np.random.Generator
) -> SubordinatorPath:
    """Append fresh Poisson points on (horizon, new_horizon]; prefix unchanged."""
    if new_horizon <= path.horizon:
        raise ParameterValidationError(
            f"new horizon {new_horizon} must exceed the current horizon {path.horizon}"
        )
    count = rng.poisson((new_horizon - path.horizon) * float(path.measure.tail(path.cutoff)))
    times = _jump_times(path.horizon, new_horizon, rng, np.empty(count))
    sizes = path.measure.jump_sizes(path.cutoff, rng.random(count))
    times.sort()
    return SubordinatorPath(
        measure=path.measure,
        horizon=new_horizon,
        cutoff=path.cutoff,
        times=np.concatenate([path.times, times]),
        sizes=np.concatenate([path.sizes, sizes]),
    )


def arcsine_cdf(alpha: float, x) -> np.ndarray | float:
    """Generalised arcsine law: regularized incomplete beta I_x(alpha, 1-alpha).

    This is the limiting probability that an alpha-stable subordinator's
    range misses (t, t+s) when x = t/(t+s).  Evaluated through the
    correctly rounded incomplete beta of :mod:`~clockproc.special`; at
    alpha = 1/2 it reduces to (2/pi) * arcsin(sqrt(x)).
    """
    if not 0 < alpha < 1:
        raise ParameterValidationError(f"alpha must lie in (0, 1); got {alpha}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any((arr < 0) | (arr > 1)):
        raise ParameterValidationError("x must lie in [0, 1]")
    out = special.betainc(alpha, 1.0 - alpha, arr)
    return float(out) if np.isscalar(x) else out


def crossing_probability(path: SubordinatorPath, t: float, s: float) -> int:
    """Indicator that the path's range misses the open interval (t, t+s).

    Equals 1 exactly when the jump straddling level t starts at or below t
    and lands at or above t+s (s = 0 gives 1: the empty interval).  The path
    past its first landing above t cannot change that, so this raises
    HorizonError only when the path has not landed above t.
    """
    if t < 0 or s < 0:
        raise ParameterValidationError("t and s must be nonnegative")
    if path.supremum() <= t:
        raise HorizonError(
            f"path supremum {path.supremum():.6g} has not passed t={t:.6g}; extend the horizon"
        )
    if s == 0:
        return 1
    post = path.values()
    idx = int(np.searchsorted(post, t, side="right"))
    if idx >= len(post):
        return 0  # level t is crossed by the compensation drift after the last jump
    # the value before the jump, summed: post - size cancels to 0 under a huge jump
    before = np.cumsum(path.sizes[:idx])[-1] if idx else 0.0
    pre = before + path.compensation_rate * path.times[idx]
    return int(pre <= t and post[idx] >= t + s)


def crossing_probability_batch(
    times: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    drift: float,
    pairs,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Vectorised crossing indicators over padded path matrices, all pairs at once.

    ``times``/``sizes`` are (paths, max_jumps) with rows padded by +inf times
    and zero sizes past ``counts``.  Returns a (len(pairs), paths) array: -1
    where the path has not landed above t, its value after its last jump
    being at most t (caller decides how to handle), else the 0/1 indicator of
    :func:`crossing_probability`.  ``work``, if given, is two float64 arrays
    of the matrices' shape that take the running jump sums and the landing
    values instead of two new arrays; the first may be ``sizes`` itself,
    which is then overwritten.  The result does not depend on it.
    """
    times, counts = np.asarray(times, dtype=np.float64), np.asarray(counts)
    jumps, post = (None, np.empty_like(times)) if work is None else work
    jumps = np.cumsum(sizes, axis=1, out=jumps)
    # padding lands at +inf, so every row is monotone and a row that passed t
    # first lands above t at a real jump (at drift 0, inf * drift would be NaN)
    if drift > 0:
        np.multiply(times, drift, out=post)
    else:
        np.copyto(post, np.where(times < np.inf, 0.0, np.inf))
    post += jumps
    rows = np.arange(len(counts))
    sup = np.where(counts > 0, post[rows, np.maximum(counts - 1, 0)], 0.0)
    last = post.shape[1] - 1
    out = np.full((len(pairs), len(counts)), -1, dtype=np.int64)
    at_level: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for j, (t, s) in enumerate(pairs):
        done = sup > t
        if s == 0:
            out[j, done] = 1
            continue
        if t not in at_level:
            # first jump whose landing value exceeds t, and the value before it,
            # summed: landing - size cancels to 0 under a huge jump
            idx = np.minimum(np.count_nonzero(post <= t, axis=1), last)
            pre = np.where(idx > 0, jumps[rows, idx - 1], 0.0)
            if drift > 0:
                pre += drift * times[rows, idx]
            at_level[t] = (pre <= t, post[rows, idx])
        starts_below, lands = at_level[t]
        out[j, done] = (starts_below & (lands >= t + s))[done]
    return out


def truncated_laplace_exponent(measure: PowerLawLevyMeasure, cutoff: float, v: float) -> float:
    """Psi_c(v) = integral_cutoff^inf (1 - e^(-v*u)) nu(du), in closed form.

    The Laplace transform of the raw truncated path at horizon T is
    exp(-T * value).  Integrating by parts against the tail
    nu(u, inf) = K u^(-alpha) gives

        Psi_c(v) = K c^(-alpha) (1 - e^(-v c)) + K v integral_c^inf u^(-alpha) e^(-v u) du
                 = K (c^(-alpha) (1 - e^(-v c)) + v^alpha Gamma(1-alpha) Q(1-alpha, v c)),

    with Q the regularized upper incomplete gamma function.  At cutoff 0 the
    first term vanishes and Psi_0(v) = K Gamma(1-alpha) v^alpha, the
    exponent of the full stable measure.
    """
    if v < 0:
        raise ParameterValidationError(f"v must be nonnegative; got {v}")
    if cutoff < 0:
        raise ParameterValidationError(f"cutoff must be nonnegative; got {cutoff}")
    a = measure.alpha
    head = cutoff ** -a * -math.expm1(-v * cutoff) if cutoff > 0 else 0.0
    tail = v**a * math.gamma(1.0 - a) * special.gammaincc(1.0 - a, v * cutoff)
    return measure.amplitude * (head + tail)


@dataclass(frozen=True)
class SelfTest:
    """Self-test sums for the reference model at one alpha.

    ``crossings`` counts, per (t, s) pair, the paths whose range misses
    (t, t+s).  Per v, the transform lists hold the sample mean of
    exp(-v S(1)), the exact value exp(-Psi(v)), where Psi(v) = v * drift +
    the truncated Laplace exponent, and the standard error and expected
    effective sample size N / (1 + Var / exp(-2 Psi(v))) of the mean under
    the reference model, Var = exp(-Psi(2v)) - exp(-2 Psi(v)).  Neither
    uses the sample variance, which collapses when one rare path dominates.
    """

    alpha: float
    chunks: int
    crossings: np.ndarray
    transform_mean: list[float]
    transform_stderr: list[float]
    transform_predicted: list[float]
    transform_ess: list[float]


def self_test(
    pairs: list[tuple[float, float]], v_grid, paths: int, master_seed: int, threads: int
) -> list[SelfTest]:
    """Crossing counts and transform statistics of the reference models, one per alpha.

    Each alpha samples ``paths`` paths in fixed-size chunks, chunk c drawing
    from its own keyed stream, so results do not depend on ``threads``.  A
    chunk draws window [0, 1] for every path, which gives S(1), then (1, 2],
    (2, 4], ... for the paths that have not yet landed above the deepest t.
    A path's first landing above t settles every (t, s) indicator, so no
    later jump is drawn.  After a window's counts the times take the
    stream's next ``total`` doubles and the sizes the ``total`` after them,
    so each row block draws its rows' times from the chunk's generator and
    their sizes from one second generator per window, placed at the sizes'
    offset; the second ends where sequential draws leave the stream, and
    the next window draws from it.  ``row_blocks`` keeps each row block's
    matrices and draws within ``_SELF_TEST_BLOCK_ELEMENTS``, and every
    block's rows are as long as the window's longest, so the bytes do not
    depend on the budget.  Each thread builds the matrices and reads the
    crossings in its own scratch arrays, owned by this call and reused
    across its chunks, windows and blocks; every block overwrites the part
    it reads, so nothing an earlier window left there reaches the bytes.
    """
    cutoff = _SELF_TEST_CUTOFF
    deepest = int(np.argmax([t for t, _ in pairs]))  # the pair with the largest t
    chunks = row_blocks(paths, 1, _SELF_TEST_CHUNK)
    v_arr = np.asarray(v_grid, dtype=np.float64)
    scratch = _Scratch()
    out = []
    for alpha in _SELF_TEST_ALPHAS:
        measure = PowerLawLevyMeasure(1.0, alpha)
        drift_rate = measure.truncated_mean_rate(cutoff)
        family = StreamFamily(master_seed, f"subordinator-selftest-{alpha!r}")

        def worker(c: int):
            seed = family.seed_for(c)
            rng = keyed_generator(seed)
            count = chunks[c][1] - chunks[c][0]
            flags = np.full((len(pairs), count), -1, dtype=np.int64)
            mass = np.zeros(count)  # jump mass each path has drawn so far
            rows = np.arange(count)  # paths that have not landed above the deepest t
            start, end = 0.0, 1.0
            while rows.size:
                counts = rng.poisson((end - start) * float(measure.tail(cutoff)), size=rows.size)
                # the times take the stream's next `total` doubles and the
                # sizes the `total` after those: a second generator reads the
                # sizes beside the times, and ends where the window leaves
                # the stream
                total = int(counts.sum())
                sizes_rng = keyed_generator(seed, stream_position(rng) + total)
                # one row length for every block keeps each row's pairwise sums
                width = max(int(counts.max()), 1)
                offsets = np.concatenate([[0], np.cumsum(counts)])
                if start == 0.0:
                    totals = np.empty(rows.size)  # jump mass of [0, 1]
                for lo, hi in row_blocks(rows.size, width + 1, _SELF_TEST_BLOCK_ELEMENTS):
                    block = rows[lo:hi]
                    shape = (hi - lo, width + 1)
                    times, sizes, work = (scratch.take(n, *shape) for n in ("times", "sizes", "work"))
                    mask = scratch.take("mask", hi - lo, width, dtype=bool)
                    # a leading jump at time 0 carries the mass of the earlier
                    # windows; it lands at or below every level the path has not
                    # passed, so it misreads only flags that are already set, and
                    # those are kept
                    times.fill(np.inf)
                    sizes.fill(0.0)
                    times[:, 0] = 0.0
                    sizes[:, 0] = mass[block]
                    np.less(np.arange(width), counts[lo:hi, None], out=mask)
                    # the uniforms borrow the room the landing values take later
                    drawn = work.reshape(-1)[: offsets[hi] - offsets[lo]]
                    times[:, 1:][mask] = _jump_times(start, end, rng, drawn)
                    sizes[:, 1:][mask] = measure.jump_sizes(cutoff, sizes_rng.random(out=drawn))
                    times[:, 1:].sort(axis=1)
                    if start == 0.0:
                        totals[lo:hi] = sizes[:, 1:].sum(axis=1)
                    mass[block] = sizes.sum(axis=1)
                    # the sizes are read: their running sums may overwrite them
                    window = crossing_probability_batch(
                        times, sizes, counts[lo:hi] + 1, drift_rate, pairs, (sizes, work)
                    )
                    flags[:, block] = np.where(flags[:, block] < 0, window, flags[:, block])
                if start == 0.0:
                    # every path draws [0, 1]: S(1) is its jump mass plus the drift
                    weights = np.exp(-np.outer(v_arr, totals + drift_rate))
                rows = rows[flags[deepest, rows] < 0]
                rng = sizes_rng
                # drop the views of the scratch, which the next window may grow
                del times, sizes, work, mask, drawn, window
                start, end = end, 2.0 * end
            return flags.sum(axis=1), weights.sum(axis=1)

        # the pool finishes within this iteration, so the worker sees this alpha
        results = ordered_map(worker, len(chunks), threads)
        means = (np.sum([r[1] for r in results], axis=0) / paths).tolist()
        stderrs, predicted, ess = [], [], []
        for v in v_grid:
            psi, psi_2v = (
                u * drift_rate + truncated_laplace_exponent(measure, cutoff, u) for u in (v, 2 * v)
            )
            # Var e^(-v S(1)) / predicted^2 of the reference model
            spread = max(math.expm1(2.0 * psi - psi_2v), 0.0)
            predicted.append(math.exp(-psi))
            stderrs.append(predicted[-1] * math.sqrt(spread / paths))
            ess.append(paths / (1.0 + spread))
        crossings = np.sum([r[0] for r in results], axis=0)
        out.append(SelfTest(alpha, len(chunks), crossings, means, stderrs, predicted, ess))
    return out
