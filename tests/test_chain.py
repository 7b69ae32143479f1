"""Random walk, trajectory segments, blocked clock, exact kernel."""

import math

import numpy as np
import pytest

from clockproc.chain import (
    EXACT_KERNEL_MAX_N,
    apply_srw_kernel,
    blocked_clock,
    exact_step_distribution,
    extend_segment,
    index_walk,
    mixing_check,
    process_at_time,
    simulate_segment,
    srw_step,
)
from clockproc.environment import Environment, SpinConfig, block_length
from clockproc.errors import (
    CapabilityError,
    DimensionMismatchError,
    HorizonError,
    ParameterValidationError,
    SegmentLengthError,
)
from clockproc.seeding import ReplicaStreams, StreamFamily, keyed_generator

pytestmark = pytest.mark.filterwarnings("ignore:block length")


def make_env(n=8, beta=3.0, gamma=2.7, seed=5):
    return Environment.create(n, 3, beta, gamma, seed=seed)


# --- elementary steps -----------------------------------------------------


def test_srw_step_flips_exactly_one_spin():
    rng = keyed_generator(1)
    x = SpinConfig(7, 0)
    for _ in range(500):
        y = srw_step(x, rng)
        assert x.hamming(y) == 1
        x = y


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
    assert grown.saturated == one_shot.saturated
    with pytest.raises(ParameterValidationError):
        extend_segment(env, short, 0, streams)


def test_cumulative_and_horizon():
    env = make_env(n=6)
    seg = simulate_segment(env, SpinConfig(6, 0), 50, ReplicaStreams.from_seed(7))
    cum = seg.cumulative()
    assert np.allclose(cum, np.cumsum(seg.increments), rtol=0)
    assert seg.horizon == cum[-1]


def test_beta_zero_increment_mean():
    """At beta=0 the waiting times are unit exponentials: mean 1 (3 sigma)."""
    env = Environment.degenerate(8, 3, 0.0, 1.0)
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
    seg = simulate_segment(env, SpinConfig(6, 0), 5, ReplicaStreams.from_seed(1))
    path = blocked_clock(seg, env, 0)
    assert path.times.shape == (0,)
    assert path.block_sums().shape == (0,)
    assert path.initial_term >= 0


def test_blocked_clock_needs_enough_increments():
    env = make_env(n=6)
    theta = env.block_length
    seg = simulate_segment(env, SpinConfig(6, 0), theta, ReplicaStreams.from_seed(1))
    # theta steps give theta+1 increments: exactly one block
    path = blocked_clock(seg, env, 1)
    assert path.times.shape == (1,)
    with pytest.raises(SegmentLengthError):
        blocked_clock(seg, env, 2)


def test_blocked_clock_matches_direct_recompute():
    """Block sums agree with a direct rescale-and-sum of the raw increments."""
    env = make_env(n=8)
    k, theta = 6, env.block_length
    seg = simulate_segment(env, SpinConfig(8, 3), k * theta + 10, ReplicaStreams.from_seed(9))
    path = blocked_clock(seg, env, k)
    scaled = np.exp(env.beta * seg.energies - env.log_time_scale) * seg.exp_draws
    direct = np.array([scaled[1 + i * theta : 1 + (i + 1) * theta].sum() for i in range(k)])
    assert np.allclose(path.block_sums(), direct, rtol=1e-12)
    assert np.allclose(path.times, np.cumsum(direct), rtol=1e-12)
    assert path.initial_term == pytest.approx(float(scaled[0]), rel=1e-15)
    assert path.index_unit == "blocks"
    assert path.scale == env.time_scale


def test_blocked_clock_unit_increment_identity():
    """If every rescaled increment is exactly 1, each block sums to theta."""
    n, theta_blocks = 6, 3
    env = Environment.degenerate(n, 3, 0.0, 0.5)
    theta = env.block_length
    length = theta_blocks * theta + 1
    streams = ReplicaStreams.from_seed(2)
    seg = simulate_segment(env, SpinConfig(n, 0), length, streams)
    # overwrite the draws so every increment rescales to exactly 1
    seg = seg.__class__(
        n=seg.n,
        states=seg.states,
        energies=seg.energies,
        exp_draws=np.full_like(seg.exp_draws, env.time_scale),
        increments=seg.increments,
        saturated=0,
    )
    path = blocked_clock(seg, env, theta_blocks)
    assert np.allclose(path.block_sums(), float(theta), rtol=1e-12)


# --- time-changed process lookup ------------------------------------------


def test_process_at_time_start_and_oracle():
    env = make_env(n=7)
    seg = simulate_segment(env, SpinConfig(7, 13), 200, ReplicaStreams.from_seed(3))
    assert process_at_time(seg, env, 0.0).bits == 13
    cum = seg.cumulative()
    rng = np.random.default_rng(5)
    for t in rng.uniform(0, seg.horizon, size=40):
        got = process_at_time(seg, env, float(t))
        # linear-scan oracle: first index whose cumulative time exceeds t
        i = 0
        while cum[i] <= t:
            i += 1
        assert got.bits == seg.states[i]


def test_process_at_time_boundaries():
    env = make_env(n=6)
    seg = simulate_segment(env, SpinConfig(6, 0), 30, ReplicaStreams.from_seed(6))
    cum = seg.cumulative()
    # at an exact jump time the process has already moved on
    j = 10
    assert process_at_time(seg, env, float(cum[j])).bits == seg.states[j + 1]
    with pytest.raises(HorizonError):
        process_at_time(seg, env, seg.horizon)
    with pytest.raises(HorizonError):
        process_at_time(seg, env, seg.horizon * 2)
    with pytest.raises(ParameterValidationError):
        process_at_time(seg, env, -1.0)


# --- exact dense kernel ---------------------------------------------------


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
    with pytest.raises(CapabilityError):
        exact_step_distribution(EXACT_KERNEL_MAX_N + 1, 0, 1)
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
    with pytest.raises(CapabilityError):
        mixing_check(EXACT_KERNEL_MAX_N + 1, 10)
    with pytest.raises(ParameterValidationError):
        mixing_check(6, -1)
