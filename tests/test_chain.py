"""Random walk, trajectory segments, blocked clocks, exact mixing check."""

import math

import numpy as np
import pytest

from clockproc import chain
from clockproc.chain import (
    SEGMENT_BLOCK_STATES,
    blocked_clocks,
    extend_segment,
    index_walk,
    map_replicas,
    mixing_check,
    process_at_time,
    simulate_segment,
    walk_to_times,
)
from clockproc.environment import MAX_TABLE_SPINS, Environment, SpinConfig, block_length
from clockproc.errors import DimensionMismatchError, HorizonError, ParameterValidationError
from clockproc.seeding import ReplicaStreams, StreamFamily, keyed_generator
from dense_srw_kernel import apply_srw_kernel, dense_mixing_violation, exact_step_distribution
from reference_estimators import blocked_clock, uint64_index_walk

pytestmark = pytest.mark.filterwarnings("ignore:block length")


def make_env(n=8, beta=3.0, gamma=2.7, seed=5):
    return Environment.create(n, 3, beta, gamma, seed=seed)


# --- elementary steps -----------------------------------------------------


def test_srw_neighbor_frequencies_uniform():
    """Each of the n=4 coordinates is chosen 1/4 of the time (3 sigma at 1e5)."""
    steps = 100_000
    states = index_walk(4, 0, steps, keyed_generator(17))
    flipped = np.bitwise_xor(states[1:], states[:-1])
    counts = np.array([(flipped == (1 << b)).sum() for b in range(4)])
    assert counts.sum() == steps  # every step flips exactly one coordinate
    sigma = math.sqrt(steps * 0.25 * 0.75)
    assert np.all(np.abs(counts - steps / 4) <= 3.0 * sigma)


def test_index_walk_structure():
    states = index_walk(6, 0b101010, 200, keyed_generator(3))
    assert states.shape == (201,)
    assert states.dtype == np.uint64
    assert states[0] == 0b101010
    diffs = np.bitwise_xor(states[1:], states[:-1])
    # every consecutive difference is a single-bit mask
    assert np.all(np.bitwise_count(diffs) == 1)
    # bipartite parity: distance from start alternates even/odd
    dist = np.bitwise_count(np.bitwise_xor(states, states[0]))
    assert np.all(dist % 2 == np.arange(201) % 2)


def test_index_walk_batch_matches_scalar():
    """m batched walks equal m scalar walks drawn one after another from one stream."""
    starts = np.array([0, 3, 60], dtype=np.uint64)
    batch_rng, scalar_rng = keyed_generator(9), keyed_generator(9)
    batch = index_walk(6, starts, 50, batch_rng)
    assert batch.shape == (3, 51)
    for i, s in enumerate(starts):
        assert np.array_equal(batch[i], index_walk(6, int(s), 50, scalar_rng))
    # both generators are left in the same state
    assert batch_rng.integers(0, 1 << 30) == scalar_rng.integers(0, 1 << 30)


@pytest.mark.parametrize("n", [2, 14, 22, 23, 63])
@pytest.mark.parametrize("steps", [0, 1, 257])
@pytest.mark.parametrize("batched", [False, True])
def test_index_walk_equals_the_uint64_draw_oracle(n, steps, batched):
    """uint32 flip sites give the uint64 draw's states and leave the stream
    where it would; an odd count of sites leaves half a 64-bit word buffered."""
    starts_rng = keyed_generator(n)
    if batched:
        starts = starts_rng.integers(0, 1 << n, size=7, dtype=np.uint64)
    else:
        starts = int(starts_rng.integers(0, 1 << n, dtype=np.uint64))
    rng, oracle_rng = keyed_generator(31), keyed_generator(31)
    states = index_walk(n, starts, steps, rng)
    expected = uint64_index_walk(n, starts, steps, oracle_rng)
    assert states.dtype == expected.dtype == np.uint64
    assert states.shape == expected.shape
    assert np.array_equal(states, expected)
    np.testing.assert_equal(rng.bit_generator.state, oracle_rng.bit_generator.state)


def test_uniform_occupation_small_n():
    """Long SRW paths spend asymptotically equal time in every state (n=5)."""
    n, steps = 5, 200_000
    states = index_walk(n, 0, steps, keyed_generator(23))
    counts = np.bincount(states.astype(np.int64), minlength=1 << n)
    expected = (steps + 1) / (1 << n)
    # correlated samples: allow a generous 10% band rather than a binomial SE
    assert np.all(np.abs(counts - expected) < 0.10 * expected)


# --- segments -------------------------------------------------------------


def test_simulate_segment_deterministic():
    env = make_env()
    start = SpinConfig(8, 0)
    a = simulate_segment(env, start, 300, ReplicaStreams.from_seed(4))
    b = simulate_segment(env, start, 300, ReplicaStreams.from_seed(4))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)
    assert a.steps == 300
    assert len(a.states) == len(a.energies) == len(a.exp_draws) == 301
    assert np.all(a.increments > 0)
    assert np.all(np.isfinite(a.increments))


def test_simulate_segment_validation():
    env = make_env()
    with pytest.raises(DimensionMismatchError):
        simulate_segment(env, SpinConfig(5, 0), 10, ReplicaStreams.from_seed(0))
    with pytest.raises(ParameterValidationError):
        simulate_segment(env, SpinConfig(8, 0), 0, ReplicaStreams.from_seed(0))


def test_none_start_draws_the_uniform_start_from_the_walk_stream():
    env = make_env(n=7)
    own, given = ReplicaStreams.from_seed(5), ReplicaStreams.from_seed(5)
    a = simulate_segment(env, None, 150, own)
    b = simulate_segment(env, SpinConfig.random(7, given.walk), 150, given)
    for field in ("states", "energies", "exp_draws", "increments"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    # both walk generators were advanced by the same draws
    assert own.walk.integers(0, 1 << 62) == given.walk.integers(0, 1 << 62)
    assert own.noise.random() == given.noise.random()


def test_segment_energies_match_environment():
    env = make_env(n=7)
    seg = simulate_segment(env, SpinConfig(7, 5), 100, ReplicaStreams.from_seed(2))
    assert np.allclose(seg.energies, env.energies(seg.states), rtol=1e-14)
    # increments decompose as exp(beta H) * e
    assert np.allclose(seg.increments, np.exp(3.0 * seg.energies) * seg.exp_draws, rtol=1e-12)


def test_extension_is_prefix_stable():
    """Growing a segment never rewrites its past, and matches a one-shot run."""
    env = make_env(n=6)
    start = SpinConfig(6, 9)
    # extension must reuse the same replica streams that produced the prefix
    streams = ReplicaStreams.from_seed(31)
    short = simulate_segment(env, start, 120, streams)
    grown = extend_segment(env, short, 80, streams)
    one_shot = simulate_segment(env, start, 200, ReplicaStreams.from_seed(31))
    assert np.array_equal(grown.states, one_shot.states)
    assert np.array_equal(grown.exp_draws, one_shot.exp_draws)
    assert np.array_equal(grown.states[:121], short.states)
    with pytest.raises(ParameterValidationError):
        extend_segment(env, short, 0, streams)


@pytest.mark.parametrize("start", [None, SpinConfig(7, 77)])
def test_simulate_segment_draws_its_start_flips_and_exponentials_in_order(start):
    """A segment draws its start, then its flips, from its walk stream, and
    one exponential per visited state from its noise stream."""
    env = make_env(n=7)
    length = 150
    segment = simulate_segment(env, start, length, ReplicaStreams.from_seed(12))
    alone = ReplicaStreams.from_seed(12)
    origin = SpinConfig.random(7, alone.walk) if start is None else start
    states = index_walk(7, origin.bits, length, alone.walk)
    energies = env.energies(states)
    draws = alone.noise.standard_exponential(length + 1)
    increments = np.exp(env.beta * energies) * draws
    assert np.array_equal(segment.states, states)
    assert np.array_equal(segment.energies, energies)
    assert np.array_equal(segment.exp_draws, draws)
    assert np.array_equal(segment.increments, increments)
    assert np.array_equal(segment.cumulative(), np.cumsum(increments))


@pytest.mark.parametrize("start", [None, SpinConfig(7, 77)])
def test_blocked_clocks_rows_equal_the_one_replica_folds(start):
    """Each row of a block's clock is the per-segment fold of the segment its
    replica draws alone, bit for bit, and the block leaves each replica's
    streams where drawing alone leaves them."""
    env = make_env(n=7)
    family, k = StreamFamily(12, "block"), 9
    block = [family.replica(i) for i in range(5)]
    sums, initial = blocked_clocks(env, start, k, block)
    assert sums.shape == (5, k) and initial.shape == (5,)
    for i in range(5):
        alone = family.replica(i)
        segment = simulate_segment(env, start, k * env.block_length, alone)
        block_sums, initial_term = blocked_clock(segment, env, k)
        assert np.array_equal(sums[i], block_sums)
        assert initial[i] == initial_term
        assert block[i].walk.integers(0, 1 << 62) == alone.walk.integers(0, 1 << 62)
        assert block[i].noise.random() == alone.noise.random()
    assert len(set(initial.tolist())) == 5


@pytest.mark.parametrize("threads", [1, 2])
def test_map_replicas_fill_the_state_budget_and_hold_one_replica_past_the_table(threads):
    """Row blocks take as many replicas as fit in the state budget, one past
    the energy table; each gets its replicas' own streams, in block order."""
    env, family = make_env(n=6), StreamFamily(3, "blocks")

    def first_draws(streams):
        return [(r.walk.random(), r.noise.random()) for r in streams]

    def sizes(env, length, count):
        return list(map(len, map_replicas(env, length, family, count, threads, first_draws)))

    assert sizes(env, SEGMENT_BLOCK_STATES - 1, 3) == [1, 1, 1]
    assert sizes(env, SEGMENT_BLOCK_STATES // 4 - 1, 9) == [4, 4, 1]
    assert sizes(env, 4 * SEGMENT_BLOCK_STATES, 2) == [1, 1]
    assert sizes(env, 10, 0) == []
    past = Environment.create(MAX_TABLE_SPINS + 1, 3, 3.0, 2.7, seed=1)
    assert sizes(past, 10, 3) == [1, 1, 1]
    blocks = map_replicas(env, SEGMENT_BLOCK_STATES // 4 - 1, family, 9, threads, first_draws)
    assert sum(blocks, []) == first_draws([family.replica(i) for i in range(9)])


def test_cumulative_and_horizon():
    env = make_env(n=6)
    seg = simulate_segment(env, SpinConfig(6, 0), 50, ReplicaStreams.from_seed(7))
    cum = seg.cumulative()
    assert np.allclose(cum, np.cumsum(seg.increments), rtol=0)


def test_beta_zero_increment_mean():
    """At beta=0 the waiting times are unit exponentials: mean 1 (3 sigma)."""
    env = Environment.create(8, 3, 0.0, 1.0, 0)
    seg = simulate_segment(env, SpinConfig(8, 0), 100_000, ReplicaStreams.from_seed(12))
    m = seg.increments.mean()
    assert abs(m - 1.0) < 3.0 / math.sqrt(len(seg.increments))
    assert np.array_equal(seg.increments, seg.exp_draws)


def test_conditional_increment_mean_given_walk():
    """Averaging over waiting-time noise only, E[sum inc] = sum tau(J_i)."""
    env = make_env(n=8, seed=77)
    fam = StreamFamily(55, "cond")
    walk = index_walk(8, 0, 400, fam.generator(0, "walk"))
    tau_vals = np.exp(env.beta * env.energies(walk))
    reps = 400
    acc = 0.0
    for r in range(reps):
        draws = fam.generator(r, "noise").standard_exponential(len(walk))
        acc += float(np.sum(tau_vals * draws))
    mean = acc / reps
    target = float(tau_vals.sum())
    # Var(sum tau e) = sum tau^2 for unit exponentials
    se = math.sqrt(float(np.sum(tau_vals**2)) / reps)
    assert abs(mean - target) < 3.0 * se


# --- blocked clock --------------------------------------------------------


def test_blocked_clock_zero_blocks():
    env = make_env(n=6)
    sums, initial = blocked_clocks(env, SpinConfig(6, 0), 0, [ReplicaStreams.from_seed(1)])
    assert sums.shape == (1, 0)
    assert initial.shape == (1,) and initial[0] >= 0
    with pytest.raises(ParameterValidationError):
        blocked_clocks(env, SpinConfig(6, 0), -1, [ReplicaStreams.from_seed(1)])


def test_blocked_clock_matches_direct_recompute():
    """Block sums agree with a direct rescale-and-sum of the raw increments."""
    env = make_env(n=8)
    k, theta = 6, env.block_length
    sums, initial = blocked_clocks(env, SpinConfig(8, 3), k, [ReplicaStreams.from_seed(9)])
    seg = simulate_segment(env, SpinConfig(8, 3), k * theta, ReplicaStreams.from_seed(9))
    scaled = np.exp(env.beta * seg.energies - env.log_time_scale) * seg.exp_draws
    direct = np.array([scaled[1 + i * theta : 1 + (i + 1) * theta].sum() for i in range(k)])
    assert np.allclose(sums[0], direct, rtol=1e-12)
    assert initial[0] == pytest.approx(float(scaled[0]), rel=1e-15)


def test_blocked_clock_block_sums_are_the_direct_fold_bit_for_bit():
    """The block sums are the per-block folds themselves, not differences of a
    running total, which lose the low bits of every small block after a large one."""
    env = Environment.create(10, 3, 3.0, 2.7, seed=11)
    k, theta = 12, env.block_length
    seg = simulate_segment(env, None, k * theta, ReplicaStreams.from_seed(8))
    with np.errstate(over="ignore"):
        scaled = np.exp(env.beta * seg.energies - env.log_time_scale) * seg.exp_draws
    direct = np.array([scaled[1 + i * theta : 1 + (i + 1) * theta].sum() for i in range(k)])
    assert np.array_equal(blocked_clocks(env, None, k, [ReplicaStreams.from_seed(8)])[0][0], direct)


# --- time-changed process lookup ------------------------------------------


def scanned_state(seg, t: float) -> int:
    """Linear-scan oracle: the state at the first index whose cumulative
    time exceeds t."""
    cum = seg.cumulative()
    i = 0
    while cum[i] <= t:
        i += 1
    return int(seg.states[i])


def test_process_at_time_start_and_oracle():
    env = make_env(n=7)
    seg = simulate_segment(env, SpinConfig(7, 13), 200, ReplicaStreams.from_seed(3))
    assert process_at_time(seg, env, 0.0) == 13
    rng = np.random.default_rng(5)
    for t in rng.uniform(0, seg.cumulative()[-1], size=40):
        assert process_at_time(seg, env, float(t)) == scanned_state(seg, t)


def test_process_at_time_reads_an_array_of_times_in_one_search():
    env = make_env(n=7)
    seg = simulate_segment(env, SpinConfig(7, 13), 200, ReplicaStreams.from_seed(3))
    horizon = seg.cumulative()[-1]
    times = np.random.default_rng(6).uniform(0, horizon, size=(3, 20))
    times[0, 0] = 0.0
    got = process_at_time(seg, env, times)
    assert got.shape == times.shape and got.dtype == np.uint64
    assert got.tolist() == [[scanned_state(seg, t) for t in row] for row in times]
    times[2, 5] = horizon
    with pytest.raises(HorizonError):
        process_at_time(seg, env, times)


def test_process_at_time_boundaries():
    env = make_env(n=6)
    seg = simulate_segment(env, SpinConfig(6, 0), 30, ReplicaStreams.from_seed(6))
    cum = seg.cumulative()
    # at an exact jump time the process has already moved on
    j = 10
    assert process_at_time(seg, env, float(cum[j])) == seg.states[j + 1]
    with pytest.raises(HorizonError):
        process_at_time(seg, env, float(cum[-1]))
    with pytest.raises(HorizonError):
        process_at_time(seg, env, float(cum[-1]) * 2)
    with pytest.raises(ParameterValidationError):
        process_at_time(seg, env, -1.0)


# --- windowed walks to query times ----------------------------------------


@pytest.mark.parametrize("budget", [SEGMENT_BLOCK_STATES, 64, 2])
@pytest.mark.parametrize("start", [None, SpinConfig(7, 77)])
def test_walk_to_times_reads_what_one_long_segment_reads(start, budget, monkeypatch):
    """Whatever the windows' budget, each row sits where one long segment
    from its streams sits at every query time (repeated, unsorted, or an
    exact jump time), and its final clock is a partial sum of that segment's
    clock, to the bit, past the latest time."""
    monkeypatch.setattr(chain, "SEGMENT_BLOCK_STATES", budget)
    env = make_env(n=7)
    family, count = StreamFamily(12, "windows"), 6
    long = [simulate_segment(env, start, 4000, family.replica(i)) for i in range(count)]
    latest = min(segment.cumulative()[-1] for segment in long) / 2
    jump = float(long[0].cumulative()[5])
    times = np.array([latest / 3, 0.0, latest, jump, latest / 3])
    streams = [family.replica(i) for i in range(count)]
    states, clocks = walk_to_times(env, start, times, 3, 10**6, streams)
    assert states.shape == (count, len(times)) and states.dtype == np.uint64
    for segment, row, clock in zip(long, states, clocks):
        assert row.tolist() == process_at_time(segment, env, times).tolist()
        assert clock > latest and clock in segment.cumulative()


def test_walk_to_times_censors_at_exactly_the_step_cap():
    """A row that cannot reach the latest time stops at ``step_cap`` steps
    with the clock of that many steps, and reads 0 past it."""
    env = make_env(n=7)
    family, step_cap = StreamFamily(3, "cap"), 50
    capped = [simulate_segment(env, None, step_cap, family.replica(i)) for i in range(4)]
    early = min(segment.cumulative()[-1] for segment in capped) / 2
    times = np.array([early, 1e300])
    states, clocks = walk_to_times(
        env, None, times, 7, step_cap, [family.replica(i) for i in range(4)]
    )
    assert clocks.tolist() == [segment.cumulative()[-1] for segment in capped]
    assert states[:, 0].tolist() == [int(process_at_time(s, env, early)) for s in capped]
    assert states[:, 1].tolist() == [0] * 4


def test_walk_to_times_validation():
    env = make_env(n=6)
    streams = [ReplicaStreams.from_seed(1)]
    with pytest.raises(ParameterValidationError):
        walk_to_times(env, None, [1.0], 0, 10, streams)
    with pytest.raises(ParameterValidationError):
        walk_to_times(env, None, [1.0], 11, 10, streams)
    with pytest.raises(ParameterValidationError):
        walk_to_times(env, None, [1.0, -1.0], 1, 10, streams)
    with pytest.raises(ParameterValidationError):
        walk_to_times(env, None, [], 1, 10, streams)
    with pytest.raises(DimensionMismatchError):
        walk_to_times(env, SpinConfig(5, 0), [1.0], 1, 10, streams)


# --- dense kernel oracle (tests/dense_srw_kernel.py) -----------------------


def test_apply_srw_kernel_brute_force():
    n = 5
    rng = np.random.default_rng(11)
    vec = rng.random(1 << n)
    vec /= vec.sum()
    out = apply_srw_kernel(vec, n)
    brute = np.zeros_like(vec)
    for y in range(1 << n):
        brute[y] = sum(vec[y ^ (1 << b)] for b in range(n)) / n
    assert np.allclose(out, brute, rtol=1e-14, atol=1e-16)
    assert out.sum() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DimensionMismatchError):
        apply_srw_kernel(vec, 6)


def test_kernel_fixes_uniform_distribution():
    for n in (4, 6, 8):
        uniform = np.full(1 << n, 2.0**-n)
        once = apply_srw_kernel(uniform, n)
        twice = apply_srw_kernel(once, n)
        assert np.max(np.abs(once - uniform)) < 1e-15
        assert np.max(np.abs(twice - uniform)) < 1e-15


def test_exact_step_distribution_small_cases():
    n = 6
    d0 = exact_step_distribution(n, 9, 0)
    assert d0[9] == 1.0 and d0.sum() == 1.0
    d1 = exact_step_distribution(n, 9, 1)
    for b in range(n):
        assert d1[9 ^ (1 << b)] == pytest.approx(1.0 / n)
    assert d1[9] == 0.0
    # return probability after two steps is exactly 1/n
    d2 = exact_step_distribution(n, 9, 2)
    assert d2[9] == pytest.approx(1.0 / n, rel=1e-14)


def test_exact_step_distribution_long_run_parity_limit():
    """After many even steps the law is uniform on the even-parity class."""
    n, k = 6, 300
    dist = exact_step_distribution(n, 0, k)
    parity = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)) % 2
    even_target = 2.0 ** (1 - n)
    assert np.max(np.abs(dist[parity == 0] - even_target)) < 1e-10
    assert np.max(dist[parity == 1]) < 1e-12


def test_exact_step_distribution_validation():
    with pytest.raises(ParameterValidationError):
        exact_step_distribution(4, 16, 1)
    with pytest.raises(ParameterValidationError):
        exact_step_distribution(4, 0, -1)


# --- mixing check ---------------------------------------------------------


def test_mixing_check_reference_block():
    """One aggregation block at n=6 mixes below the certified 2^-17 bound."""
    rep = mixing_check(6, block_length(6))
    assert rep.theta == 38
    assert rep.passed
    assert rep.bound == 2.0**-17
    assert rep.max_violation <= rep.bound
    assert rep.rho_implied == pytest.approx(rep.max_violation * 4.0**6, rel=1e-12)


def test_mixing_check_zero_steps_fails():
    rep = mixing_check(6, 0)
    assert not rep.passed
    assert rep.max_violation > rep.bound


def test_mixing_check_monotone_in_theta():
    thetas = [10, 20, 40, 80]
    violations = [mixing_check(5, t).max_violation for t in thetas]
    assert all(b <= a for a, b in zip(violations, violations[1:]))


def test_mixing_check_validation():
    rep = mixing_check(13, 10)
    assert rep.n == 13 and rep.theta == 10 and not rep.passed
    with pytest.raises(ParameterValidationError):
        mixing_check(6, -1)
    for n in (0, 64):
        with pytest.raises(ParameterValidationError):
            mixing_check(n, 10)


@pytest.mark.parametrize("n", range(4, 13))
def test_mixing_check_matches_dense_oracle(n):
    """The exact distance-class violation equals the dense 2^n float kernel's."""
    for theta in (0, 1, 2, 10, 40, block_length(n)):
        rep = mixing_check(n, theta)
        assert rep.max_violation == pytest.approx(
            dense_mixing_violation(n, theta), rel=0, abs=1e-12 * 4.0**-n
        )
        assert rep.rho_implied == pytest.approx(rep.max_violation * 4.0**n, rel=1e-15)
