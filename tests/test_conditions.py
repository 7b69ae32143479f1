"""Intensity, Laplace, initial-term and truncated-mean estimators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from clockproc import conditions
from clockproc.conditions import (
    _block_sums,
    _conditional_transform_moments,
    _binomial_intensity,
    build_condition_report,
    conditional_block_laplace,
    degenerate_block_laplace,
    degenerate_block_tail,
    degenerate_initial_term,
    estimate_initial_term,
    estimate_intensity,
    estimate_intensity_laplace,
    estimate_squared_tail_grid,
    estimate_truncated_mean,
    plain,
    resolve_block_count,
    truncated_mean_quadrature,
)
from clockproc.chain import mixing_check, uniform_starts
from clockproc.environment import CouplingTensor, Environment
from clockproc.errors import (
    BudgetError,
    DegenerateScaleError,
    ParameterValidationError,
)
from clockproc.seeding import StreamFamily
from clockproc.verdicts import SLOPE_WINDOW, slope_status
from reference_estimators import (
    concentration_diagnostic,
    direct_block_laplace,
    folded_transform_moments,
    per_state_block_sums,
    replica_streams,
    truncated_mean_asymptotic,
)

pytestmark = pytest.mark.filterwarnings("ignore:block length")


def unit_env(n=6, gamma=0.5):
    """beta = 0: unit-mean holds, Gamma block sums, closed forms everywhere."""
    return Environment.create(n, 3, 0.0, gamma, 0)


# --- single-block tails ---------------------------------------------------


def test_block_tail_matches_gamma_law_at_beta_zero():
    env = unit_env()
    # with one block the intensity's values are the hit rates, bit for bit
    streams = replica_streams(2)
    est = estimate_intensity(env, 1, [2.0, 2.4], 20_000, streams)
    for u, probability, stderr in zip(est.thresholds, est.values, est.stderrs):
        oracle = degenerate_block_tail(env, u)
        assert oracle == pytest.approx(
            float(stats.gamma.sf(u * env.time_scale, env.block_length)), rel=1e-14
        )
        assert stderr == pytest.approx(math.sqrt(probability * (1 - probability) / est.samples))
        assert abs(probability - oracle) < 3.0 * stderr


def test_block_tail_grid_monotone_by_construction():
    """Common block sums across the grid force exact monotonicity in u."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    est = estimate_intensity(env, 1, grid, 3000, replica_streams(1))
    probs = est.values
    assert all(b <= a for a, b in zip(probs, probs[1:]))
    assert est.samples == 3000


def test_block_tail_extreme_thresholds():
    env = unit_env()
    streams = replica_streams(4)
    # the edges p = 1 and p = 0 sit at the ends of a grid with two interior thresholds
    est = estimate_intensity(env, 1, [0.0, 1.9, 2.1, 1e9], 500, streams)
    assert (est.values[0], est.stderrs[0]) == (1.0, 0.0)
    assert (est.values[-1], est.stderrs[-1]) == (0.0, 0.0)


def block_sums(env, samples, streams, presteps=0, starts=None, threads=1):
    """``_block_sums`` of ``samples`` blocks from ``starts``, or from uniform
    starts drawn first from the walk stream, as ``estimate_intensity`` draws
    them."""
    if starts is None:
        starts = uniform_starts(env.n, samples, streams.walk)
    return _block_sums(env, starts, streams, presteps, threads)


def fixed_start_tail(env, start, threshold, samples, streams, presteps=0):
    """(hit rate, binomial stderr) of the block that starts ``presteps`` moves
    after the fixed ``start``."""
    starts = np.full(samples, start, dtype=np.uint64)
    sums = _block_sums(env, starts, streams, presteps=presteps)
    rates, _, stderrs = _binomial_intensity(sums[None, :] > threshold, 1)
    return float(rates[0]), float(stderrs[0])


def test_step_averaged_tail_equals_neighbor_average():
    """Averaging the one-step kernel by hand reproduces the presteps=1 route."""
    env = Environment.create(4, 3, 1.2, 1.0, seed=3)
    u = 1.0
    sa, sa_se = fixed_start_tail(env, 0, u, 8000, replica_streams(5), presteps=1)
    fam = StreamFamily(105, "nbrs")
    nbr = [fixed_start_tail(env, 1 << b, u, 8000, fam.replica(b)) for b in range(4)]
    mean_nbr = float(np.mean([p for p, _ in nbr]))
    se = math.sqrt(sa_se**2 + sum(e**2 for _, e in nbr) / 16.0)
    assert abs(sa - mean_nbr) < 3.0 * se


def test_step_averaged_equals_plain_tail_at_beta_zero():
    # with state-independent holds the pre-step cannot matter
    env = unit_env()
    a, a_se = fixed_start_tail(env, 0, 2.0, 10_000, replica_streams(6), presteps=1)
    oracle = degenerate_block_tail(env, 2.0)
    assert abs(a - oracle) < 3.0 * a_se


# --- aggregated intensity -------------------------------------------------


def test_intensity_scales_tail_by_block_count():
    env = unit_env()
    grid = [1.7, 1.9, 2.1]
    est = estimate_intensity(env, 12, grid, 5000, replica_streams(8))
    assert est.block_count == 12
    for u, value, se in zip(grid, est.values, est.stderrs):
        q = degenerate_block_tail(env, u)
        spread = max(se, 12 * math.sqrt(q * (1 - q) / 5000))
        assert abs(value - 12 * q) < 4.0 * spread


def test_intensity_needs_interior_hit_rates():
    """Both thresholds are hit almost surely, so no point is usable for the
    fit: its fields are NaN, and the tail itself is still reported."""
    env = unit_env()
    est = estimate_intensity(env, 3, [1e-6, 2e-6], 200, replica_streams(9))
    assert est.values == (3.0, 3.0) and est.stderrs == (0.0, 0.0)
    assert all(math.isnan(x) for x in (est.slope, est.slope_se, est.intercept, est.intercept_se))


def test_intensity_takes_the_environment_block_count_and_refuses_zero():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    k = resolve_block_count(env, None)
    assert k == env.block_count == 1
    est = estimate_intensity(env, k, [0.5, 1.0, 2.0], 2000, replica_streams(10))
    assert est.block_count == env.block_count
    with pytest.raises(ParameterValidationError, match="block count must be >= 1"):
        estimate_intensity(env, 0, [0.5, 1.0], 2000, replica_streams(10))


# --- correlated squares ---------------------------------------------------


def test_squared_tail_routes_agree():
    env = Environment.create(6, 3, 2.0, 1.5, seed=2)
    fam = StreamFamily(13, "sq")
    (a,), (b,) = estimate_squared_tail_grid(env, 5, [0.5], 6000, fam.replica(0))
    assert a.route == "two-step" and b.route == "split"
    se = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) < 3.5 * se


def test_squared_tail_at_beta_zero_is_product_of_tails():
    # independent blocks at beta=0: the joint exceedance factorises
    env = unit_env()
    (est,), _ = estimate_squared_tail_grid(env, 1, [2.0], 20_000, replica_streams(14))
    q = degenerate_block_tail(env, 2.0)
    se = max(est.stderr, math.sqrt(q * q * (1 - q * q) / est.samples))
    assert abs(est.value - q * q) < 3.5 * se


# --- Laplace transforms ---------------------------------------------------


def test_conditional_laplace_trivial_cases():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    assert conditional_block_laplace(env, np.zeros(10), 0.0) == 1.0
    # one state whose mean hold equals the whole observation scale: 1/(1+1)
    single = np.array([env.log_time_scale / env.beta])
    assert conditional_block_laplace(env, single, 1.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ParameterValidationError):
        conditional_block_laplace(env, single, -0.5)


def test_conditional_laplace_batch_matches_scalar():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(5, 7))
    out = conditional_block_laplace(env, batch, 0.7)
    assert out.shape == (5,)
    for row, val in zip(batch, out):
        assert conditional_block_laplace(env, row, 0.7) == pytest.approx(float(val), rel=1e-14)


def test_conditional_laplace_against_high_precision_product():
    """The logaddexp evaluation tracks an extended-precision product to 1e-12."""
    mp = pytest.importorskip("mpmath")
    env = Environment.create(10, 3, 3.0, 2.7, seed=7)
    rng = np.random.default_rng(21)
    energies = rng.normal(scale=math.sqrt(10), size=104)
    for v in (0.1, 1.0, 10.0):
        got = conditional_block_laplace(env, energies, v)
        with mp.workdps(50):
            prod = mp.mpf(1)
            for h in energies:
                prod /= 1 + mp.mpf(v) * mp.exp(mp.mpf(env.beta) * mp.mpf(h)) / mp.exp(
                    mp.mpf(env.log_time_scale)
                )
            ref = float(prod)
        assert got == pytest.approx(ref, rel=1e-12)


def test_conditional_laplace_against_monte_carlo():
    """Averaging exp(-v * sum tau e / c_n) over draws recovers the closed form."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    rng = np.random.default_rng(31)
    energies = rng.normal(scale=math.sqrt(8), size=20)
    tau_scaled = np.exp(env.beta * energies - env.log_time_scale)
    v = 1.0
    draws = rng.standard_exponential((100_000, 20))
    g = np.exp(-v * draws @ tau_scaled)
    mc, se = float(g.mean()), float(g.std(ddof=1)) / math.sqrt(len(g))
    exact = conditional_block_laplace(env, energies, v)
    assert abs(mc - exact) < 3.0 * se


def test_block_laplace_dual_routes_agree():
    """The conditional transform (one block) against fully sampled waiting times."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    fam = StreamFamily(7, "dual")
    v_grid = [0.3, 1.0, 3.0]
    cond = estimate_intensity_laplace(env, 1, v_grid, 4000, fam.replica(0))
    means, stderrs = direct_block_laplace(env, v_grid, 4000, fam.replica(1))
    for v, value, stderr, mean, se_direct in zip(v_grid, cond.values, cond.stderrs, means, stderrs):
        # one block: value = (1 - E G(v)) / v
        mean_cond, se_cond = 1.0 - v * value, v * stderr
        assert abs(mean_cond - mean) < 3.5 * math.hypot(se_cond, se_direct)
        # integrating the waiting times out cannot increase the variance
        assert se_cond <= se_direct


def reference_env():
    return Environment.create(10, 3, 3.0, 2.7, seed=5)


# (environment given the ``contracted`` fixture, chunk state limit, samples,
# whether chunks fold through term tables); at n = 10 a block holds 104
# states, so 5,000 states make chunks of 4,992 >= 2^10 and 900 make chunks of
# 832 < 2^10, each with a ragged last one.  A chunk's uint32 states fit the
# tables of 4,992 * 4 // 8,192 = 2 v at once, so "derived" takes three table
# passes over the 6 v; "streamed" makes two 192-row chunks whose tables fit
# 9 >= 6 v, folded as each row block is drawn, and a ragged 116-row chunk
# whose tables fit 5 v, so it keeps its row blocks for two passes
TRANSFORM_FOLD_CASES = {
    "derived": (lambda contracted: reference_env(), 5000, 500, True),
    "streamed": (lambda contracted: reference_env(), 20_000, 500, True),
    "direct": (lambda contracted: reference_env(), 900, 100, False),
    "beta-zero": (lambda contracted: unit_env(), 5000, 300, True),
    "contraction": (lambda contracted: contracted(reference_env), 5000, 500, False),
}


@pytest.mark.parametrize("case", sorted(TRANSFORM_FOLD_CASES))
def test_transform_moments_equal_the_per_state_fold_bit_for_bit(case, contracted, monkeypatch):
    make_env, chunk_states, samples, derived = TRANSFORM_FOLD_CASES[case]
    monkeypatch.setattr(conditions, "_CHUNK_STATES", chunk_states)
    env = make_env(contracted)
    v_grid = [0.1, 0.316, 1.0, 3.16, 10.0, 100.0]
    reference = folded_transform_moments(env, v_grid, samples, replica_streams(23))
    calls = []
    fold = conditions.conditional_block_laplace
    monkeypatch.setattr(
        conditions, "conditional_block_laplace", lambda *args: calls.append(1) or fold(*args)
    )
    means, stds = _conditional_transform_moments(env, v_grid, samples, replica_streams(23))
    assert np.array_equal(means, reference[0])
    assert np.array_equal(stds, reference[1])
    assert (len(calls) == 0) == derived


def saturating_env():
    """beta = 80 at n = 10: exp(beta*H - log time scale) overflows to inf on
    5 of the 1,024 states (about 40% of the blocks hold one) and underflows
    to 0 on the lowest ones."""
    return Environment(CouplingTensor.sample(10, 3, 5), 80.0, 2.7)


def keyed_starts(n, count):
    return np.random.default_rng(41).integers(0, 1 << n, size=count, dtype=np.uint64)


# (environment given the ``contracted`` fixture, chunk state limit, samples,
# presteps, whether the call reads the hold table); the first four mirror
# TRANSFORM_FOLD_CASES, except that a call reads the table once it walks 2^n
# states, so "direct" walks 9 blocks of 104 states, 936 < 2^10; "split" walks
# one move before each block from given starts, as the split route of the
# correlated square does
BLOCK_SUM_CASES = {
    "derived": (lambda contracted: reference_env(), 5000, 500, 0, True),
    "direct": (lambda contracted: reference_env(), 900, 9, 0, False),
    "beta-zero": (lambda contracted: unit_env(), 5000, 300, 0, True),
    "contraction": (lambda contracted: contracted(reference_env), 5000, 500, 0, False),
    "saturating": (lambda contracted: saturating_env(), 5000, 500, 0, True),
    "split": (lambda contracted: reference_env(), 5000, 500, 1, True),
}


@pytest.mark.parametrize("case", sorted(BLOCK_SUM_CASES))
def test_block_sums_equal_the_per_state_oracle_bit_for_bit(case, contracted, monkeypatch):
    make_env, chunk_states, samples, presteps, by_table = BLOCK_SUM_CASES[case]
    monkeypatch.setattr(conditions, "_CHUNK_STATES", chunk_states)
    env = make_env(contracted)
    starts = keyed_starts(env.n, samples) if presteps else None
    reference = per_state_block_sums(env, samples, replica_streams(37), presteps, starts)
    passes = []
    state_blocks = conditions._state_blocks
    monkeypatch.setattr(
        conditions, "_state_blocks", lambda env: passes.append(1) or state_blocks(env)
    )
    sums = block_sums(env, samples, replica_streams(37), presteps, starts)
    assert sums.tobytes() == reference.tobytes()
    # the hold table is filled in one pass over the states per call, however
    # many row blocks read it
    assert len(passes) == int(by_table)
    if case == "saturating":
        assert np.isinf(sums).any() and np.isfinite(sums).any()


def test_block_sums_do_not_depend_on_the_chunk_size(monkeypatch):
    """Neither the chunk size nor the hold table moves a sum: the first 9 of
    700 blocks, which read the hold table, equal the 9 blocks of a call that
    walks fewer than 2^n states and so computes each hold from its energy,
    under chunks of 900 and 50,000 states."""
    env = reference_env()
    starts = keyed_starts(env.n, 700)
    assert 9 * env.block_length < 1 << env.n <= 700 * env.block_length
    runs = []
    for chunk_states in (900, 50_000):
        monkeypatch.setattr(conditions, "_CHUNK_STATES", chunk_states)
        runs.append(_block_sums(env, starts, replica_streams(43))[:9])
        runs.append(_block_sums(env, starts[:9], replica_streams(43)))
    assert all(np.array_equal(runs[0], run) for run in runs[1:])


# (environment given the ``contracted`` fixture, presteps) of the row-block
# size checks; the transform walks no move before its blocks, so "split"
# checks the block sums only
ROW_BLOCK_CASES = {
    "table": (lambda contracted: reference_env(), 0),
    "contraction": (lambda contracted: contracted(reference_env), 0),
    "saturating": (lambda contracted: saturating_env(), 0),
    "split": (lambda contracted: reference_env(), 1),
}


def whole_vector_exact_averages(env, term, grid):
    """The exact state averages with each x's terms computed over all 2^n
    states in one call."""
    energies = env.energies(np.arange(2**env.n, dtype=np.uint64))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inverse_holds = conditions._inverse_holds(env, energies)
        out = np.empty_like(inverse_holds)
        averages = []
        for x in grid:
            term(inverse_holds, x, out)
            averages.append(float(out.mean()))
        return averages


# row blocks of one row, of 5 rows, which do not divide the 48 rows of a
# 5,000-state chunk at n = 10, and of 96 rows, more than a chunk holds; the
# exact state averages of a table-backed environment sum their 2^10 terms
# in 8 row blocks of 128 states, 2 of 512 and 1 of 1,024.  The transform
# also runs in chunks of 900 states, 8 rows of 832 < 2^10 states, which fold
# state by state, and of 20,000 states, 192 rows (and a ragged 116), whose
# term tables cover the 4 v, so each row block is folded as it is drawn; a
# 5,000-state chunk's tables cover 2 v, so it keeps its row blocks for two
# passes
@pytest.mark.parametrize("gather_states", [1, 520, 10_000])
@pytest.mark.parametrize("case", sorted(ROW_BLOCK_CASES))
def test_no_output_depends_on_the_row_block_size(case, gather_states, contracted, monkeypatch):
    monkeypatch.setattr(conditions, "_CHUNK_STATES", 5000)
    monkeypatch.setattr(conditions, "_GATHER_STATES", gather_states)
    make_env, presteps = ROW_BLOCK_CASES[case]
    env = make_env(contracted)
    samples = 500
    starts = keyed_starts(env.n, samples) if presteps else None
    reference = per_state_block_sums(env, samples, replica_streams(37), presteps, starts)
    sums = block_sums(env, samples, replica_streams(37), presteps, starts)
    assert sums.tobytes() == reference.tobytes()
    if presteps:
        return
    v_grid = [0.1, 1.0, 10.0, 100.0]
    for chunk_states in (900, 5000, 20_000):
        monkeypatch.setattr(conditions, "_CHUNK_STATES", chunk_states)
        reference = folded_transform_moments(env, v_grid, samples, replica_streams(23))
        streams = replica_streams(23)
        moments = _conditional_transform_moments(env, v_grid, samples, streams)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(moments, reference))
    if not env.has_energy_table:
        return
    for term, grid in (
        (conditions._survival_terms, v_grid),
        (conditions._truncated_terms, [0.05, 0.1, 0.2]),
    ):
        averages = conditions._state_average(env, term, grid, 10, replica_streams(23))
        assert [exact for *_, exact in averages] == whole_vector_exact_averages(env, term, grid)


# (environment, row block size, state blocks) of the pairwise combine: the
# 2^18 states of n = 18 in four blocks of 2^16, and the 2^10 of n = 10, both
# the reference and the saturating environment, under each row block size of
# the row-block test, whose states then make 8, 2 and 1 sum blocks
EXACT_AVERAGE_CASES = {
    "n18": (lambda: Environment.create(18, 3, 3.0, 2.7, seed=5), 1 << 16, 4),
    **{
        f"{name}-{gather_states}": (make_env, gather_states, blocks)
        for name, make_env in (("table", reference_env), ("saturating", saturating_env))
        for gather_states, blocks in ((1, 8), (520, 2), (10_000, 1))
    },
}


@pytest.mark.parametrize("case", sorted(EXACT_AVERAGE_CASES))
def test_exact_state_averages_equal_the_whole_vector_mean_bit_for_bit(case, monkeypatch):
    """Combining the row blocks' sums in a balanced tree gives the bits of
    numpy's mean over one vector of all 2^n terms, for both state terms."""
    make_env, gather_states, blocks = EXACT_AVERAGE_CASES[case]
    monkeypatch.setattr(conditions, "_GATHER_STATES", gather_states)
    env = make_env()
    assert len(list(conditions._state_blocks(env))) == blocks
    for term, grid in (
        (conditions._survival_terms, [0.1, 1.0, 10.0, 100.0]),
        (conditions._truncated_terms, [0.05, 0.1, 0.2]),
    ):
        averages = conditions._state_average(env, term, grid, 10, replica_streams(23))
        exact = np.array([value for *_, value in averages])
        assert exact.tobytes() == np.array(whole_vector_exact_averages(env, term, grid)).tobytes()


def next_draws(stream):
    return stream.random(8).tobytes()


# row blocks of 520 states: 5 rows of a 104-state block, 4 with one move
# before it, so 503 samples end on a ragged row block either way
@pytest.mark.parametrize("table", [True, False])
def test_block_sums_and_transform_do_not_depend_on_the_thread_count(table, contracted, monkeypatch):
    """Drawing each row block's walk one ahead on a helper thread moves no
    sum, no transform moment and no stream: both streams end where the
    serial run leaves them."""
    monkeypatch.setattr(conditions, "_GATHER_STATES", 520)
    env = reference_env() if table else contracted(reference_env)
    samples = 503
    starts = keyed_starts(env.n, samples)
    runs = {
        "plain": lambda streams, threads: [block_sums(env, samples, streams, threads=threads)],
        "split": lambda streams, threads: [
            _block_sums(env, starts, streams, presteps=1, threads=threads)
        ],
    }

    def transform(chunk_states):
        def run(streams, threads):
            monkeypatch.setattr(conditions, "_CHUNK_STATES", chunk_states)
            v_grid = [0.1, 1.0, 10.0, 100.0]
            return _conditional_transform_moments(env, v_grid, samples, streams, threads)

        return run

    # chunks that fold state by state, keep their row blocks for two table
    # passes, and fold each row block as it is drawn, as in the row-block size test
    runs |= {f"transform-{chunk}": transform(chunk) for chunk in (900, 5000, 20_000)}
    for name, run in runs.items():
        results, ends = [], []
        for threads in (1, 2):
            streams = replica_streams(47)
            results.append([a.tobytes() for a in run(streams, threads)])
            ends.append((next_draws(streams.walk), next_draws(streams.noise)))
        assert results[0] == results[1], name
        assert ends[0] == ends[1], name


def traced_peak(run) -> int:
    """Bytes that ``run()`` allocates at its peak, above what it starts with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def memory_env():
    env = Environment.create(14, 3, 3.0, 2.7, seed=5)
    env.energies(0)  # builds the energy table before tracing starts
    return env


def test_block_sums_peak_memory_grows_only_by_the_per_sample_vectors():
    """Ten times the samples cost the block sums their starts and sums, 16
    bytes a sample, and nothing of the walk: it is drawn and summed one row
    block at a time, and one block of 8-byte values bounds what else moves."""
    env = memory_env()
    small, large = 2000, 20_000  # 408,000 and 4,080,000 walk states
    peaks = [
        traced_peak(lambda: block_sums(env, count, replica_streams(29)))
        for count in (small, large)
    ]
    assert peaks[1] - peaks[0] <= (large - small) * 16 + conditions._GATHER_STATES * 8


def test_table_fold_peak_memory_stays_within_the_walk_window():
    """At n = 14 one group of term tables covers the v grid, so each row
    block is folded as it is drawn.  The transform holds one term table per
    v (2^n doubles each; no copy of the energies: the tables are filled one
    row block of energies at a time), per-sample vectors (the starts, and
    per chunk row one fold per v and one square; a chunk's folds are freed
    before the next chunk is walked), one row block of gathered terms and
    their 8-byte indices while the next is walked (8-byte states and 4-byte
    flip sites), and 64 KiB of the interpreter's own objects.  1 and 5
    chunks of 19,607 blocks of 204 states, each followed by a ragged one,
    fit the same budget but for the starts; holding a chunk's walk as 4-byte
    states would add 16 MB."""
    env = memory_env()
    v_grid = [1.0, 1.78, 3.16, 5.62, 10.0, 17.8, 31.6, 56.2, 100.0]
    rows = conditions._CHUNK_STATES // env.block_length
    tables = len(v_grid) * (1 << env.n) * 8
    block = conditions._GATHER_STATES * 28
    for samples in (20_000, 100_000):
        peak = traced_peak(
            lambda: estimate_intensity_laplace(env, 1, v_grid, samples, replica_streams(29))
        )
        per_sample = samples * 8 + (len(v_grid) + 1) * rows * 8
        assert peak <= tables + per_sample + block + (1 << 16)


def test_multi_pass_table_fold_peak_memory_is_the_kept_walk_and_one_group(monkeypatch):
    """Chunks of 400 blocks of 204 states at n = 14 have room for the term
    tables of 2 of the 9 v, so each chunk keeps its walk as 4-byte states
    for five passes over the v grid.  The transform then holds that walk,
    one group of 2 term tables, the per-sample vectors of the single-pass
    case, one row block of the walk widened to 8-byte indices with its
    gathered terms (16 bytes a walk state; a row block being walked and
    narrowed takes as much), one row block of states and their energies
    while the next pass fills its tables (16 bytes a state; at n = 14 the
    2^14 states make one) and 64 KiB of the interpreter's own objects: no
    table per v and no copy of the energies."""
    env = memory_env()
    v_grid = [1.0, 1.78, 3.16, 5.62, 10.0, 17.8, 31.6, 56.2, 100.0]
    rows = 400
    monkeypatch.setattr(conditions, "_CHUNK_STATES", rows * env.block_length)
    group = rows * env.block_length * 4 // (8 << env.n)
    assert group == 2
    walk = rows * env.block_length * 4
    block = conditions._GATHER_STATES * 16 + (1 << env.n) * 16
    for samples in (2000, 10_000):
        peak = traced_peak(
            lambda: estimate_intensity_laplace(env, 1, v_grid, samples, replica_streams(29))
        )
        per_sample = samples * 8 + (len(v_grid) + 1) * rows * 8
        assert peak <= group * (1 << env.n) * 8 + walk + per_sample + block + (1 << 16)


def test_laplace_intensity_rescaled_values_monotone():
    """v * nu_hat(v) = k(1 - E G(v)) is nondecreasing in v, exactly under CRN."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    v_grid = [0.1, 0.3, 1.0, 3.0, 10.0]
    est = estimate_intensity_laplace(env, 9, v_grid, 2000, replica_streams(17))
    rescaled = [v * x for v, x in zip(est.v_values, est.values)]
    assert all(b >= a for a, b in zip(rescaled, rescaled[1:]))
    assert est.block_count == 9
    with pytest.raises(ParameterValidationError):
        estimate_intensity_laplace(env, 9, [0.0, 1.0], 100, replica_streams(17))


def test_laplace_intensity_beta_zero_closed_form():
    env = unit_env()
    v_grid = [0.5, 1.0, 2.0]
    est = estimate_intensity_laplace(env, 4, v_grid, 50, replica_streams(19))
    for v, value in zip(v_grid, est.values):
        oracle = 4 * (1.0 - degenerate_block_laplace(env, v)) / v
        assert value == pytest.approx(oracle, rel=1e-12)
    assert degenerate_block_laplace(env, 1.0) == pytest.approx(
        (1.0 + 1.0 / env.time_scale) ** (-env.block_length), rel=1e-12
    )


# --- initial holding term -------------------------------------------------


def test_initial_term_trivial_and_validation():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    (est,) = estimate_initial_term(env, [0.0], 10, replica_streams(1))
    assert est.value == 1.0 and est.stderr == 0.0 and est.exact_value == 1.0
    with pytest.raises(ParameterValidationError):
        estimate_initial_term(env, [-1.0], 10, replica_streams(1))
    with pytest.raises(ParameterValidationError):
        estimate_initial_term(env, [1.0], 0, replica_streams(1))


def test_initial_term_exact_vs_monte_carlo():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    for est in estimate_initial_term(env, (0.1, 1.0), 20_000, replica_streams(23)):
        assert est.exact_value is not None
        floor = math.sqrt(est.exact_value * (1.0 - est.exact_value) / est.samples)
        assert abs(est.value - est.exact_value) < 3.5 * max(est.stderr, floor)


def test_initial_term_exact_monotone_in_v():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    estimates = estimate_initial_term(env, [0.1, 0.5, 1.0, 5.0], 10, replica_streams(1))
    values = [est.exact_value for est in estimates]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_initial_term_monte_carlo_does_not_increase_in_v():
    """One draw serves the whole v grid, and each start's exp(-v * time_scale
    / tau) falls in v, so the Monte Carlo values cannot rise along it; one
    draw per v lets them."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    v_grid = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    estimates = estimate_initial_term(env, v_grid, 200, replica_streams(3))
    values = [est.value for est in estimates]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_initial_term_beta_zero_closed_form():
    env = unit_env(n=4, gamma=0.25)  # keep exp(-v*c_n) well above underflow
    estimates = estimate_initial_term(env, [0.2, 1.0], 10, replica_streams(1))
    for v, est in zip((0.2, 1.0), estimates):
        assert est.exact_value == pytest.approx(degenerate_initial_term(env, v), rel=1e-12)
        assert est.exact_value == pytest.approx(math.exp(-v * env.time_scale), rel=1e-12)
        assert est.value == pytest.approx(est.exact_value, rel=1e-12)


@pytest.mark.parametrize("table", [False, True])
def test_state_averages_draw_the_starts_once(table, contracted):
    """Each state average draws its ``samples`` uniform starts from the walk
    stream once for the whole grid, whether or not it also averages exactly,
    and draws nothing from the noise stream: both streams then continue as
    fresh ones do after that one draw."""
    env = reference_env() if table else contracted(reference_env)
    for estimate in (
        lambda streams: estimate_initial_term(env, [0.0, 0.1, 1.0, 10.0], 300, streams),
        lambda streams: estimate_truncated_mean(env, [0.05, 0.1, 0.2], 300, streams),
    ):
        streams, fresh = replica_streams(31), replica_streams(31)
        estimate(streams)
        fresh.walk.integers(0, 1 << env.n, size=300, dtype=np.uint64)
        assert next_draws(streams.walk) == next_draws(fresh.walk)
        assert next_draws(streams.noise) == next_draws(fresh.noise)


def test_exact_state_average_peak_memory_is_a_few_row_blocks():
    """The exact pass holds one row block of inverse holds and one of terms,
    and the truncated-mean term's own temporaries (the block's hold means,
    their sum with eps, and the indices and values of the short-hold states)
    take at most 32 bytes a block state: six row blocks of 8-byte values,
    and no 2^n vector.  The Monte Carlo draw is freed before the pass, and
    64 KiB covers the interpreter's own objects.  The 2^16 states of n = 16
    make one row block and the 2^18 of n = 18 four, and the peak does not
    grow with them: a vector of 2^18 terms would add three row blocks."""
    eps_grid = [0.05, 0.1, 0.2]
    peaks = []
    for n in (16, 18):
        env = Environment.create(n, 3, 3.0, 2.7, seed=5)
        env.energies(0)  # builds the energy table before tracing starts
        peaks.append(
            traced_peak(
                lambda: estimate_truncated_mean(env, eps_grid, 1000, replica_streams(29))
            )
        )
    block = conditions._GATHER_STATES * 8
    assert max(peaks) <= 6 * block + (1 << 16)
    assert peaks[1] - peaks[0] <= 1 << 16


# --- truncated single-jump mean -------------------------------------------


def test_truncated_mean_monte_carlo_matches_exact_average():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    ests = estimate_truncated_mean(env, [0.05, 0.1, 0.2], 100_000, replica_streams(12))
    for est in ests:
        assert est.quadrature_value is not None
        assert abs(est.mc_value - est.exact_value) < 3.0 * est.mc_stderr


def _truncated_term_mpmath(m, epsilon):
    """E[m*e; m*e <= eps] for a unit exponential e, by 30-digit quadrature of
    m * x * e^-x over x <= eps/m; the tail past x = 1000 is below e^-990."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        if m == math.inf:
            return 0.0
        a = mp.mpf(epsilon) / mp.mpf(m)
        upper = a if a < 1000 else mp.inf
        cuts = [0, upper] if upper < 1 else [0, 1, upper]
        return float(mp.mpf(m) * mp.quad(lambda x: x * mp.exp(-x), cuts))


def _truncated_term(m, epsilon):
    """The estimator's per-state term at one hold mean m (inverse hold 1/m)."""
    out = np.empty(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditions._truncated_terms(np.array([1.0 / m]), epsilon, out)
    return float(out[0])


@pytest.mark.parametrize("epsilon", [1e-3, 0.2, 50.0])
def test_truncated_term_matches_the_defining_integral(epsilon):
    # hold means from 1e-300 to 1e300, a few either side of a = eps/m = 1,
    # where the closed form hands over to the series, and a saturated hold
    means = [10.0**k for k in range(-300, 301, 25)]
    means += [epsilon * f for f in (0.5, 0.999, 1.0, 1.001, 2.0)] + [math.inf]
    for m in means:
        want = _truncated_term_mpmath(m, epsilon)
        assert _truncated_term(m, epsilon) == pytest.approx(want, rel=1e-12, abs=0.0), m


@given(
    log_m=st.floats(-300.0, 300.0),
    log_eps=st.floats(-6.0, 6.0),
    saturated=st.booleans(),
)
def test_truncated_term_lies_between_zero_and_its_bound(log_m, log_eps, saturated):
    """0 <= m * P(2, eps/m) <= max_a P(2, a)/a * eps, the bound of the se floor."""
    epsilon = 10.0**log_eps
    term = _truncated_term(math.inf if saturated else 10.0**log_m, epsilon)
    assert 0.0 <= term <= conditions.TRUNCATED_TERM_BOUND * epsilon


def test_truncated_mean_exact_value_averages_to_the_quadrature():
    """Averaged over environments, the exact quenched truncated mean is the
    annealed one that the quadrature integrates: 300 environments at n = 10."""
    family = StreamFamily(17, "truncated-environments")
    eps_grid = [0.05, 0.2]
    exact = np.array([
        [est.exact_value for est in estimate_truncated_mean(
            Environment.create(10, 3, 3.0, 2.7, seed=family.seed_for(i)),
            eps_grid, 2, family.replica(i),
        )]
        for i in range(300)
    ])
    env = Environment.create(10, 3, 3.0, 2.7, seed=family.seed_for(0))
    for eps, values in zip(eps_grid, exact.T):
        quadrature = truncated_mean_quadrature(env, eps)
        assert abs(values.mean() - quadrature) <= 4.0 * values.std(ddof=1) / math.sqrt(300)


def test_truncated_mean_quadrature_monotone_in_epsilon():
    env = Environment.create(10, 3, 3.0, 2.7, seed=5)
    values = [truncated_mean_quadrature(env, e) for e in (0.02, 0.05, 0.1, 0.2, 0.5)]
    assert all(v > 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


# spacing s/2 over [-400, 30] fills the point budget at this s = beta*sqrt(n)
SMALLEST_S = 2 * 430 / (conditions._QUADRATURE_POINTS - 1)


def _truncated_mean_mpmath(env, epsilon, horizon):
    """The defining integral of truncated_mean_quadrature in u = ln x, by
    40-digit tanh-sinh quadrature split around where the Phi factor turns
    over.  Widening the range past [-80, 8] moves no float digit here."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s = mp.mpf(env.beta) * mp.sqrt(env.n)
        gn = mp.mpf(env.log_time_scale)
        mid = gn + mp.log(mp.mpf(epsilon)) - s * s

        def integrand(u):
            return mp.exp(2 * u - mp.exp(u) + s * s / 2) * mp.ncdf((mid - u) / s)

        cuts = {-80.0, 0.0, 8.0} | {float(mid + k * s) for k in range(-4, 5)}
        integral = mp.quad(integrand, sorted(c for c in cuts if -80.0 <= c <= 8.0))
        return float(mp.mpf(env.step_scale) * horizon * integral / mp.exp(gn))


@pytest.mark.parametrize(
    "beta, n, gamma, eps",
    [(3.0, 14, 2.7, eps) for eps in (1e-6, 0.05, 0.2, 50.0)]
    + [(3.0, 20, 2.7, 0.05), (3.0, 20, 2.7, 50.0), (3.0, 30, 2.7, 1e-6), (3.0, 30, 2.7, 0.2)]
    # s = beta*sqrt(n) of 0.1, 0.2 and 0.73: the Phi factor turns over within
    # about s, so the spacing must shrink with s; a fixed 2,000-point grid
    # over [-400, 30] misses 1e-12 at s <= 0.2 unless eps puts the turn
    # where e^{-x} has already killed the integrand
    + [(0.05, 4, 0.002, 1e-6), (0.05, 4, 0.002, 0.2), (0.1, 4, 0.005, 0.05)]
    + [(0.1, 4, 0.005, 50.0), (0.3, 6, 0.05, 1e-6), (0.3, 6, 0.05, 0.2)]
    # the smallest s the point budget accepts, where the grid is largest
    + [(SMALLEST_S / 2 * (1 + 1e-9), 4, SMALLEST_S**2 / 8, eps) for eps in (1e-6, 0.2, 50.0)],
)
def test_truncated_mean_quadrature_against_high_precision(beta, n, gamma, eps):
    env = Environment.create(n, 3, beta, gamma, 0)
    got = truncated_mean_quadrature(env, eps)
    assert got == pytest.approx(_truncated_mean_mpmath(env, eps, 1.0), rel=1e-12, abs=0.0)


def test_truncated_mean_quadrature_refuses_a_grid_past_its_budget():
    env = Environment.create(4, 3, SMALLEST_S / 2 * 0.99, SMALLEST_S**2 / 8, 0)
    with pytest.raises(BudgetError, match=f"{SMALLEST_S:.6g}"):
        truncated_mean_quadrature(env, 0.2)


def test_truncated_mean_asymptotic_slope_identity():
    """The reference curve's log-log slope in eps is exactly 1 - alpha."""
    alpha, beta, gamma = 0.3, 3.0, 2.7
    for eps in (0.01, 0.1, 1.0):
        lo = truncated_mean_asymptotic(alpha, beta, gamma, eps, 1.0)
        hi = truncated_mean_asymptotic(alpha, beta, gamma, 2 * eps, 1.0)
        slope = (math.log(hi) - math.log(lo)) / math.log(2.0)
        assert slope == pytest.approx(1.0 - alpha, abs=1e-12)
    with pytest.raises(ParameterValidationError):
        truncated_mean_asymptotic(1.2, beta, gamma, 0.1, 1.0)
    with pytest.raises(ParameterValidationError):
        truncated_mean_asymptotic(0.3, 1.0, 2.0, 0.1, 1.0)  # gamma >= beta^2


def test_truncated_mean_validation():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    with pytest.raises(ParameterValidationError):
        estimate_truncated_mean(env, [-0.1], 100, replica_streams(1))
    with pytest.raises(ParameterValidationError, match="sample count must be >= 1"):
        estimate_truncated_mean(env, [0.1], 0, replica_streams(1))
    # one sample reads a stderr of 0.0, as the initial term's does
    (one,) = estimate_truncated_mean(env, [0.1], 1, replica_streams(1))
    assert one.samples == 1 and one.mc_stderr == 0.0 and one.mc_value > 0
    with pytest.raises(DegenerateScaleError):
        estimate_truncated_mean(unit_env(), [0.1], 100, replica_streams(1))


# each Monte Carlo estimator of the module, given a sample count
SAMPLED_ESTIMATORS = {
    "intensity": lambda env, m, streams: estimate_intensity(env, 1, [1.0], m, streams),
    "squared-tail": lambda env, m, streams: estimate_squared_tail_grid(env, 1, [1.0], m, streams),
    "transform": lambda env, m, streams: estimate_intensity_laplace(env, 1, [1.0], m, streams),
    "initial-term": lambda env, m, streams: estimate_initial_term(env, [0.5], m, streams),
    "truncated-mean": lambda env, m, streams: estimate_truncated_mean(env, [0.1], m, streams),
}


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("name", sorted(SAMPLED_ESTIMATORS))
def test_every_estimator_refuses_a_sample_count_below_one(name, samples):
    """The one start draw refuses the count, so every estimator raises the
    same error for it."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    with pytest.raises(ParameterValidationError, match="sample count must be >= 1"):
        SAMPLED_ESTIMATORS[name](env, samples, replica_streams(1))


def test_stderr_halves_when_samples_quadruple():
    """Monte Carlo error scales like 1/sqrt(samples) (20% slack on the ratio)."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    fam = StreamFamily(41, "scaling")
    small = estimate_truncated_mean(env, [0.1], 25_000, fam.replica(0))[0]
    large = estimate_truncated_mean(env, [0.1], 100_000, fam.replica(1))[0]
    ratio = small.mc_stderr / large.mc_stderr
    assert 0.8 * 2.0 < ratio < 1.2 * 2.0


# --- verdict helpers ------------------------------------------------------


def test_slope_window_status():
    assert slope_status(0.0, 0.01) == "pass"
    assert slope_status(SLOPE_WINDOW, 0.01) == "pass"
    assert slope_status(SLOPE_WINDOW + 0.015, 0.01) == "warn"
    assert slope_status(SLOPE_WINDOW + 0.03, 0.01) == "fail"
    assert slope_status(math.nan, 0.01) == "fail"


# --- concentration diagnostic ---------------------------------------------


def test_concentration_diagnostic_smoke_and_determinism():
    kwargs = dict(
        threshold=1.0,
        master_seed=9,
        replicas=24,
        walk_blocks=60,
        pair_samples=60,
        block_count=5,
    )
    rep = concentration_diagnostic(6, 3, 2.0, 1.5, **kwargs)
    assert rep.replicas == 24
    assert len(rep.quenched_intensities) == 24
    assert len(rep.eps_grid) == 10
    assert len(rep.empirical_tail) == len(rep.chebyshev_bound) == 10
    assert rep.rho_source == "measured"
    assert math.isfinite(rep.nu_identity_z)
    assert rep.sampling_variance_share > 0
    again = concentration_diagnostic(6, 3, 2.0, 1.5, **kwargs)
    assert again == rep
    threaded = concentration_diagnostic(6, 3, 2.0, 1.5, threads=3, **kwargs)
    assert threaded == rep


def test_concentration_diagnostic_rho_override_and_validation():
    kwargs = dict(
        threshold=1.0, master_seed=9, replicas=8, walk_blocks=20, pair_samples=20, block_count=3
    )
    rep = concentration_diagnostic(6, 3, 2.0, 1.5, rho=0.5, **kwargs)
    assert rep.rho == 0.5 and rep.rho_source == "override"
    with pytest.raises(ParameterValidationError):
        concentration_diagnostic(6, 3, 2.0, 1.5, threshold=1.0, master_seed=9, replicas=1,
                                 block_count=3)
    with pytest.raises(ParameterValidationError):
        concentration_diagnostic(6, 3, 2.0, 1.5, threshold=1.0, master_seed=9, replicas=8,
                                 block_count=3, eps_grid=[0.1, -0.2])


def test_concentration_diagnostic_measures_rho_past_n_12():
    rep = concentration_diagnostic(
        13, 3, 2.0, 1.5, threshold=1.0, master_seed=9, replicas=4, walk_blocks=2,
        pair_samples=4, block_count=3, eps_grid=[1.0],
    )
    assert rep.rho_source == "measured"
    assert rep.rho == mixing_check(13, rep.block_length).rho_implied


# --- full report ----------------------------------------------------------


def test_condition_report_structure_and_serialization(tmp_path):
    """The report holds the estimates, ungraded: the conditions runner of
    the CLI grades them (``tests/test_cli.py``)."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    rep = build_condition_report(
        env,
        u_grid=[0.25, 0.5, 1.0, 2.0],
        v_grid=[0.3, 1.0, 3.0],
        eps_grid=[0.05, 0.1, 0.2],
        streams=replica_streams(6),
        samples=3000,
    )
    assert rep.block_count == env.block_count
    assert rep.literal_block_count == rep.block_count
    assert len(rep.squared_two_step) == len(rep.squared_split) == 4
    assert len(rep.initial_terms) == 3 and len(rep.truncated_means) == 3
    # ungraded: the report carries no verdict and records no pass
    assert not hasattr(rep, "verdicts") and not hasattr(rep, "overall")
    import json

    text = json.dumps(plain(rep))  # must be JSON clean, no numpy scalars anywhere
    assert "np.float64" not in text

    csv_path = tmp_path / "conditions.csv"
    json_path = tmp_path / "conditions.json"
    rep.write_csv(csv_path)
    rep.write_json(json_path)
    assert "np.float64" not in csv_path.read_text()
    parsed = json.loads(json_path.read_text())
    assert parsed == json.loads(text)
    assert "verdicts" not in parsed and "overall" not in parsed
    import csv as csv_mod

    with open(csv_path, newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0][0] == "quantity"
    assert len(rows) > 5
