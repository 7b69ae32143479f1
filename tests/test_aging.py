"""Two-time correlation curves and trap localisation."""

import csv
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from clockproc import aging, chain
from clockproc.aging import (
    AgingCurve,
    correlation_indicator,
    estimate_aging_curve,
    flat_aging_curve,
    trap_localization_diagnostic,
)
from clockproc.chain import simulate_segment
from clockproc.environment import Environment, SpinConfig, block_length, overlap_to_reference
from clockproc.errors import (
    BudgetError,
    DimensionMismatchError,
    HorizonError,
    ParameterValidationError,
)
from clockproc.seeding import ReplicaStreams, StreamFamily
from clockproc.subordinator import arcsine_cdf
from reference_estimators import doubling_aging_curve, overlap

pytestmark = pytest.mark.filterwarnings("ignore:block length")


def test_correlation_indicator_trivial_cases():
    env = Environment.create(6, 3, 0.0, 0.5, 0)
    seg = simulate_segment(env, SpinConfig(6, 0), 2000, ReplicaStreams.from_seed(1))
    # epsilon = 2 accepts every overlap in [-1, 1]
    assert correlation_indicator(env, seg, 0.5, 0.5, 2.0, time_unit=1.0) == 1
    # s so small that the process cannot have moved
    tiny = float(seg.increments[0]) / 4.0
    assert correlation_indicator(env, seg, 0.0, tiny / env.time_scale, 0.25) == 1
    with pytest.raises(ParameterValidationError):
        correlation_indicator(env, seg, -0.1, 0.5, 0.25)
    with pytest.raises(ParameterValidationError):
        correlation_indicator(env, seg, 0.1, 0.5, 0.0)
    with pytest.raises(HorizonError):
        correlation_indicator(env, seg, 1.0, 10.0, 0.25, time_unit=seg.cumulative()[-1])


def test_correlation_indicator_deterministic():
    env = Environment.create(6, 3, 2.0, 1.5, seed=4)
    seg = simulate_segment(env, SpinConfig(6, 3), 5000, ReplicaStreams.from_seed(2))
    vals = [correlation_indicator(env, seg, 0.3, 0.7, 0.25, time_unit=1.0) for _ in range(3)]
    assert len(set(vals)) == 1


def test_correlation_indicator_array_form_matches_the_overlap_oracle():
    env = Environment.create(6, 3, 2.0, 1.5, seed=4)
    seg = simulate_segment(env, SpinConfig(6, 3), 5000, ReplicaStreams.from_seed(2))
    rng = np.random.default_rng(8)
    horizon = seg.cumulative()[-1]
    t = rng.uniform(0.0, 0.5, size=60) * horizon
    s = rng.uniform(0.0, 0.5, size=60) * horizon
    t[:3] = s[3:6] = 0.0
    cum = seg.cumulative()

    def state(time):
        # the visited state whose hold covers ``time``: its index counts the
        # holds that ended at or before it
        return SpinConfig(6, int(seg.states[np.count_nonzero(cum <= time)]))

    for epsilon in (0.25, 1.0):
        oracle = [int(overlap(state(a), state(a + b)) >= 1.0 - epsilon) for a, b in zip(t, s)]
        array = correlation_indicator(env, seg, t, s, epsilon, time_unit=1.0)
        assert array.dtype == np.int64
        assert array.tolist() == oracle
        assert 0 < sum(oracle) < len(oracle)
    assert correlation_indicator(env, seg, t[:0], s[:0], 0.25).shape == (0,)
    with pytest.raises(HorizonError):
        correlation_indicator(env, seg, t, s + horizon, 0.25, time_unit=1.0)
    with pytest.raises(ParameterValidationError):
        correlation_indicator(env, seg, t, -s, 0.25, time_unit=1.0)


def test_correlation_indicator_array_form_equals_scalar_calls():
    env = Environment.create(6, 3, 2.0, 1.5, seed=4)
    seg = simulate_segment(env, SpinConfig(6, 3), 5000, ReplicaStreams.from_seed(2))
    rng = np.random.default_rng(8)
    horizon = seg.cumulative()[-1]
    t = rng.uniform(0.0, 0.5, size=60) * horizon
    s = rng.uniform(0.0, 0.5, size=60) * horizon
    t[:3] = s[3:6] = 0.0
    for epsilon in (0.25, 1.0):
        scalar = [
            correlation_indicator(env, seg, a, b, epsilon, time_unit=1.0) for a, b in zip(t, s)
        ]
        # a scalar pair reads as a 0-d int64, one entry of the array form
        assert all(v.dtype == np.int64 and v.ndim == 0 for v in scalar)
        array = correlation_indicator(env, seg, t, s, epsilon, time_unit=1.0)
        assert array.tolist() == [int(v) for v in scalar]
    with pytest.raises(HorizonError):
        correlation_indicator(env, seg, t[0], s[0] + horizon, 0.25, time_unit=1.0)
    with pytest.raises(ParameterValidationError):
        correlation_indicator(env, seg, t[0], -s[0] - 1.0, 0.25, time_unit=1.0)


# the shipped (t, s) pairs at a fifth of their horizon
SHORT_TS_GRID = [(0.2, 0.8), (0.2, 7 / 15), (0.2, 0.3), (0.2, 0.2), (0.2, 2 / 15), (0.2, 0.05)]

# the time scale exp(gamma * n) of the n = 6, gamma = 1.5 environments
MILD_TIME_SCALE = math.exp(9.0)

# (environment, estimate_aging_curve arguments): pairs of a few units of
# clock time read an expected step count of 0.0098, so the walks start from
# one-step windows; a step cap below the later pair's typical step count
# cuts walks there and censors that pair; a fixed start; trapped chains
ORACLE_CONFIGS = {
    "extension-heavy": (
        lambda: Environment.create(6, 3, 2.0, 1.5, seed=9),
        dict(
            pairs=[(2.0 * t / MILD_TIME_SCALE, 2.0 * s / MILD_TIME_SCALE)
                   for t, s in [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0)]],
            epsilon=0.25, step_cap=100_000_000,
        ),
    ),
    "censored": (
        lambda: Environment.create(6, 3, 2.0, 1.5, seed=9),
        dict(pairs=[(1.0, 1.0), (10.0, 6.0)], epsilon=1.0, step_cap=400),
    ),
    "fixed-start": (
        lambda: Environment.create(6, 3, 2.0, 1.5, seed=4),
        dict(pairs=[(0.5, 0.5), (1.0, 1.0)], epsilon=0.25, start=SpinConfig(6, 5)),
    ),
    "trapped": (
        lambda: Environment.create(10, 3, 3.0, 2.7, seed=3),
        dict(pairs=SHORT_TS_GRID, epsilon=0.25),
    ),
    "trapped-capped": (
        lambda: Environment.create(10, 3, 3.0, 2.7, seed=4),
        dict(pairs=SHORT_TS_GRID, epsilon=0.5, step_cap=400),
    ),
}


@functools.cache
def oracle_curve(config: str, replicas: int, seed: int) -> AgingCurve:
    make_env, kwargs = ORACLE_CONFIGS[config]
    return doubling_aging_curve(make_env(), replicas=replicas, master_seed=seed, **kwargs)


def record_windows(monkeypatch) -> list:
    """(rows, steps, first column kept) of every window the row path draws."""
    windows, segment_rows = [], chain._segment_rows

    def counting(env, starts, steps, streams, first):
        windows.append((len(streams), steps, first))
        return segment_rows(env, starts, steps, streams, first)

    monkeypatch.setattr(chain, "_segment_rows", counting)
    return windows


def assert_same_curve(curve: AgingCurve, oracle: AgingCurve) -> None:
    """Equal field for field, to the bit and the Python type of each entry."""
    for name in AgingCurve.__dataclass_fields__:
        assert repr(getattr(curve, name)) == repr(getattr(oracle, name)), name


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("layout", ["one-per-block", "ragged", "one-block"])
@pytest.mark.parametrize("config", sorted(ORACLE_CONFIGS))
def test_aging_curve_matches_the_per_replica_oracle(config, layout, threads, monkeypatch):
    """Row blocks of any size, at any thread count, walked in windows that
    fit the block's budget, give the curve of doubling the segment of one
    replica at a time, field for field."""
    make_env, kwargs = ORACLE_CONFIGS[config]
    env, replicas, seed = make_env(), 40, 5
    blocks = []

    def recording(env, start, times, first, step_cap, streams):
        blocks.append((first, len(streams)))
        return chain.walk_to_times(env, start, times, first, step_cap, streams)

    monkeypatch.setattr(aging, "walk_to_times", recording)
    estimate_aging_curve(env, replicas=1, master_seed=seed, **kwargs)
    first_window = blocks.pop()[0]
    rows = {"one-per-block": 1, "ragged": 3, "one-block": replicas}[layout]
    budget = rows * (first_window + 1)
    monkeypatch.setattr(chain, "SEGMENT_BLOCK_STATES", budget)
    windows = record_windows(monkeypatch)
    curve = estimate_aging_curve(
        env, replicas=replicas, master_seed=seed, threads=threads, **kwargs
    )
    ragged = [replicas % rows] if replicas % rows else []
    assert sorted(blocks, reverse=True) == [(first_window, rows)] * (replicas // rows) + [
        (first_window, count) for count in ragged
    ]
    # every window fits the block's budget, and some rows walk past their first
    assert all(count * (steps + 1) <= budget for count, steps, _ in windows)
    assert any(later for *_, later in windows)
    assert any(0.0 < estimate < 1.0 for estimate in curve.estimates)
    assert_same_curve(curve, oracle_curve(config, replicas, seed))
    if config in ("censored", "trapped-capped"):
        assert 0 < max(curve.censored) < replicas


def test_aging_curve_prediction_column_is_arcsine():
    """The predicted column must be the arcsine CDF at t/(t+s), one source."""
    env = Environment.create(6, 3, 2.0, 1.5, seed=4)
    pairs = [(1.0, 3.0), (1.0, 1.0), (3.0, 1.0)]
    curve = estimate_aging_curve(env, pairs, 0.25, replicas=12, master_seed=5)
    for (t, s), ratio, pred in zip(curve.pairs, curve.ratios, curve.predicted):
        assert ratio == pytest.approx(t / (t + s))
        assert pred == arcsine_cdf(env.alpha, ratio) == arcsine_cdf(0.375, ratio)


def test_aging_curve_determinism_and_thread_invariance():
    env = Environment.create(6, 3, 2.0, 1.5, seed=4)
    pairs = [(1.0, 1.0), (2.0, 1.0)]
    kwargs = dict(epsilon=0.25, replicas=16, master_seed=7)
    a = estimate_aging_curve(env, pairs, **kwargs)
    b = estimate_aging_curve(env, pairs, **kwargs)
    c = estimate_aging_curve(env, pairs, threads=3, **kwargs)
    assert a == b == c


def test_aging_curve_budget_and_censoring():
    env = Environment.create(6, 3, 2.0, 1.5, seed=9)
    # upfront refusal when the horizon obviously exceeds the step budget:
    # 200 time scales take ~2,650 steps
    with pytest.raises(BudgetError):
        estimate_aging_curve(env, [(100.0, 100.0)], 0.25, replicas=4, master_seed=1, step_cap=1000)
    # a cap just above the expected ~212 steps censors some replicas at the
    # later pair; the oracle's first segment (four times that) is cut to the cap
    curve = estimate_aging_curve(
        env, [(0.1, 0.1), (10.0, 6.0)], 0.25, replicas=24, master_seed=3, step_cap=220
    )
    for comp, cens in zip(curve.completed, curve.censored):
        assert comp + cens == 24
    assert curve.censored[0] == 0  # the early pair always fits
    assert curve.censored[1] > 0  # the late one cannot always be reached
    assert not math.isnan(curve.estimates[0])


def test_aging_curve_extends_short_segments_prefix_stably(monkeypatch):
    """Replicas whose first window ends short of the horizon walk on in
    windows twice as long, and read the same indicators as one long segment
    drawn from the same streams."""
    env = Environment.create(6, 3, 2.0, 1.5, seed=9)
    pairs, replicas, seed = [(0.5, 0.5), (1.0, 2.0)], 40, 5
    windows = record_windows(monkeypatch)
    curve = estimate_aging_curve(env, pairs, 0.25, replicas, seed)
    # the first window is the expected 3 x step_scale steps for every row; the
    # next keeps only the new states of the rows still short of the horizon
    assert windows[0] == (replicas, math.ceil(3.0 * env.step_scale), 0) == (40, 40, 0)
    assert windows[1][1:] == (80, 1) and 0 < windows[1][0] < replicas
    assert sum(curve.censored) == 0
    family = StreamFamily(seed, "aging")
    hits = np.zeros(len(pairs))
    for i in range(replicas):
        long = simulate_segment(env, None, 4096, family.replica(i))
        assert long.cumulative()[-1] > 3.0 * env.time_scale
        hits += [correlation_indicator(env, long, t, s, 0.25) for t, s in pairs]
    assert curve.estimates == tuple(hits / replicas)


def test_aging_curve_peak_memory_is_one_window_block_per_thread():
    """Ten times the step cap, or another environment, leaves the peak within
    one window block per thread: 40 bytes for each of its
    ``SEGMENT_BLOCK_STATES`` states, the streams of its rows (under 2 KiB a
    replica), and 256 KiB of the interpreter's own objects.  Holding each
    replica's whole segment while doubling it peaked at 2.5 MB at the larger
    cap and 2.1 MB at the other environment, above this 1.9 MB."""
    replicas, threads = 300, 2
    for seed, step_cap in ((3, 2000), (3, 20_000), (4, 20_000)):
        env = Environment.create(10, 3, 3.0, 2.7, seed=seed)
        env.energies(0)  # builds the energy table before tracing starts
        blocks = chain.map_replicas(
            env, math.ceil(env.step_scale), StreamFamily(0, "rows"), replicas, 1, len
        )
        rows = max(blocks)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            curve = estimate_aging_curve(
                env, SHORT_TS_GRID, 0.25, replicas, 7, step_cap=step_cap, threads=threads
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rows < replicas
        assert peak <= threads * (chain.SEGMENT_BLOCK_STATES * 40 + rows * 2048) + (1 << 18)
        assert (sum(curve.censored) > 0) == (step_cap == 2000)


def test_aging_curve_input_validation():
    env = Environment.create(6, 3, 2.0, 1.5, seed=4)
    with pytest.raises(ParameterValidationError):
        estimate_aging_curve(env, [], 0.25, replicas=4, master_seed=1)
    with pytest.raises(ParameterValidationError):
        estimate_aging_curve(env, [(1.0, 0.0)], 0.25, replicas=4, master_seed=1)
    with pytest.raises(ParameterValidationError):
        estimate_aging_curve(env, [(1.0, 1.0)], 0.0, replicas=4, master_seed=1)
    with pytest.raises(ParameterValidationError):
        estimate_aging_curve(env, [(1.0, 1.0)], 0.25, replicas=0, master_seed=1)
    with pytest.raises(DimensionMismatchError):
        estimate_aging_curve(
            env, [(1.0, 1.0)], 0.25, replicas=4, master_seed=1, start=SpinConfig(5, 0)
        )
    # beta = 0 has no tail exponent and no jump-count scale: its curve is
    # the closed form, and the Monte Carlo refuses it
    flat = Environment.create(6, 3, 0.0, 0.5, 0)
    with pytest.raises(ParameterValidationError, match="beta > 0"):
        estimate_aging_curve(flat, [(1.0, 1.0)], 0.25, replicas=4, master_seed=1)


def test_aging_curve_fixed_start_changes_result():
    env = Environment.create(6, 3, 2.0, 1.5, seed=9)
    pairs = [(0.5, 0.5)]
    kwargs = dict(epsilon=0.25, replicas=20, master_seed=11)
    uniform = estimate_aging_curve(env, pairs, **kwargs)
    fixed = estimate_aging_curve(env, pairs, start=SpinConfig(6, 0), **kwargs)
    assert uniform.pairs == fixed.pairs
    # same seeds, different starts: the indicator draws genuinely differ
    assert uniform.estimates != fixed.estimates or uniform != fixed


def test_aging_curve_max_gap_and_csv(tmp_path):
    env = Environment.create(6, 3, 2.0, 1.5, seed=4)
    curve = estimate_aging_curve(
        env, [(1.0, 1.0), (2.0, 2.0)], 0.25, replicas=16, master_seed=13
    )
    gap = curve.max_absolute_gap
    assert 0.0 <= gap <= 1.0
    out = tmp_path / "aging.csv"
    curve.write_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "s", "ratio", "empirical", "stderr", "predicted",
                       "replicas", "censored"]
    assert len(rows) == 3
    assert float(rows[1][3]) == curve.estimates[0]
    assert "np.float64" not in out.read_text()


# --- the flat (beta = 0) reference in closed form -------------------------


def flat_generator(n):
    """Dense generator of the beta = 0 chain: each site flips at rate 1/n."""
    size = 1 << n
    generator = -np.eye(size)
    for site in range(n):
        generator[np.arange(size), np.arange(size) ^ (1 << site)] += 1.0 / n
    return generator


@pytest.mark.parametrize("n", [3, 4, 6])
def test_flat_aging_curve_matches_the_dense_matrix_exponential(n):
    """C(t, s) is the mean over x of e^{s unit Q}(x, y) summed over the ball
    of y around x, with unit = block_length(n), whatever t.  At epsilon =
    2/n and 1.0 (and 0.5 and 1.5 at n = 4) n * epsilon / 2 is an integer, so
    the float comparison decides the ball's edge."""
    states = np.arange(1 << n, dtype=np.uint64)
    generator = flat_generator(n)
    pairs = [(0.0, 0.1), (2.0, 0.7), (0.5, 3.0), (1.0, 0.01)]
    for epsilon in (0.25, 2.0 / n, 0.5, 1.0, 1.5):
        ball = overlap_to_reference(states[:, None], states[None, :], n) >= 1.0 - epsilon
        curve = flat_aging_curve(n, pairs, epsilon, 0.3)
        for (t, s), value in zip(pairs, curve.estimates):
            kernel = scipy.linalg.expm(s * block_length(n) * generator)
            assert value == pytest.approx((kernel * ball).sum() / (1 << n), abs=1e-12)
    assert curve.stderrs == (0.0,) * len(pairs)
    assert curve.completed == curve.censored == (0,) * len(pairs)


def test_flat_aging_curve_fields_and_validation():
    pairs = [(1.0, 4.0), (1.0, 1.0), (3.0, 0.25)]
    curve = flat_aging_curve(14, pairs, 0.25, 0.3)
    assert curve.pairs == tuple(pairs)
    assert curve.ratios == tuple(t / (t + s) for t, s in pairs)
    assert curve.predicted == tuple(arcsine_cdf(0.3, r) for r in curve.ratios)
    # at the shipped size the two states decorrelate fully by s = 1, and
    # only distances 0 and 1 stay close
    assert curve.estimates[:2] == pytest.approx((15 / 16384, 15 / 16384), rel=1e-9)
    assert curve.estimates[2] == pytest.approx(15 / 16384, rel=1e-2)
    assert curve.max_absolute_gap == max(
        pred - est for pred, est in zip(curve.predicted, curve.estimates)
    )
    # epsilon = 2 accepts every pair of states
    assert flat_aging_curve(6, [(0.0, 0.3)], 2.0, 0.3).estimates == pytest.approx((1.0,))
    with pytest.raises(ParameterValidationError):
        flat_aging_curve(6, [], 0.25, 0.3)
    with pytest.raises(ParameterValidationError):
        flat_aging_curve(6, [(1.0, 0.0)], 0.25, 0.3)
    with pytest.raises(ParameterValidationError):
        flat_aging_curve(6, [(1.0, 1.0)], 2.5, 0.3)


@pytest.mark.parametrize("n, epsilon, seed", [(6, 0.25, 31), (6, 0.5, 32), (8, 0.25, 33)])
def test_flat_monte_carlo_agrees_with_the_closed_form(n, epsilon, seed):
    """The beta = 0 walker, one replica at a time on the time unit
    block_length(n), against the closed form: binomial z <= 4, with the se
    from the exact p (a sample se collapses where p is near 0)."""
    env = Environment.create(n, 3, 0.0, 0.5, 0)
    pairs = [(0.5, 0.01), (1.0, 0.03), (0.2, 0.06), (2.0, 0.2), (0.0, 1.0)]
    replicas = 300
    curve = doubling_aging_curve(
        env, pairs, epsilon, replicas, seed, time_unit=float(block_length(n))
    )
    exact = flat_aging_curve(n, pairs, epsilon, 0.3).estimates
    assert curve.completed == (replicas,) * len(pairs)
    # from near 1 down to the fully decorrelated P(Bin(n, 1/2) <= n * epsilon / 2)
    assert max(exact) > 0.6 and any(0.2 < p < 0.6 for p in exact) and min(exact) < 0.12
    for estimate, p in zip(curve.estimates, exact):
        assert abs(estimate - p) <= 4.0 * math.sqrt(p * (1.0 - p) / replicas)


# --- trap localisation ----------------------------------------------------


def test_trap_diagnostic_beta_zero_is_untrapped():
    """Unit-mean holds spread a block's time over ~theta states: no trap."""
    env = Environment.create(8, 3, 0.0, 0.5, 0)
    theta = env.block_length
    seg = simulate_segment(env, SpinConfig(8, 0), 4 * theta + 1, ReplicaStreams.from_seed(17))
    for b in range(4):
        rep = trap_localization_diagnostic(env, seg, b)
        assert rep.untrapped
        assert rep.dominant_fraction < 0.35
        assert rep.ball_time_fraction >= rep.dominant_fraction
        assert 0 <= rep.dominant_state < (1 << 8)


def test_trap_diagnostic_finds_deep_trap_at_low_temperature():
    env = Environment.create(8, 3, 3.0, 2.7, seed=23)
    theta = env.block_length
    seg = simulate_segment(env, SpinConfig(8, 0), 6 * theta + 1, ReplicaStreams.from_seed(19))
    fractions = [
        trap_localization_diagnostic(env, seg, b).dominant_fraction for b in range(6)
    ]
    # at beta=3 the deepest visited state dominates most blocks outright
    assert max(fractions) > 0.5


def test_trap_diagnostic_validation_and_reentry_flag():
    env = Environment.create(6, 3, 0.0, 0.5, 0)
    theta = env.block_length
    seg = simulate_segment(env, SpinConfig(6, 0), theta + 1, ReplicaStreams.from_seed(21))
    rep = trap_localization_diagnostic(env, seg, 0, epsilon=2.0)
    # the ball with epsilon=2 is the whole cube: entered once, never exited
    assert rep.ball_time_fraction == pytest.approx(1.0)
    assert not rep.reentered
    with pytest.raises(ParameterValidationError):
        trap_localization_diagnostic(env, seg, -1)
    with pytest.raises(ParameterValidationError):
        trap_localization_diagnostic(env, seg, 2)


@pytest.mark.parametrize(
    "keyword, value",
    [("threshold", math.nan), ("threshold", 0.0), ("threshold", -1.0), ("threshold", 1.5),
     ("epsilon", math.nan), ("epsilon", 0.0), ("epsilon", 2.5)],
)
def test_trap_diagnostic_rejects_a_threshold_or_epsilon_out_of_range(keyword, value):
    """The dominant fraction is a share in (0, 1] and the overlap ball needs
    epsilon in (0, 2]; the error names the parameter."""
    env = Environment.create(6, 3, 0.0, 0.5, 0)
    seg = simulate_segment(
        env, SpinConfig(6, 0), env.block_length + 1, ReplicaStreams.from_seed(21)
    )
    name = "trap threshold" if keyword == "threshold" else "epsilon"
    with pytest.raises(ParameterValidationError, match=name):
        trap_localization_diagnostic(env, seg, 0, **{keyword: value})
    # a dominant fraction is at most 1, so a threshold of 1 flags every block
    # whose time is not all at one state
    assert trap_localization_diagnostic(env, seg, 0, threshold=1.0).untrapped
