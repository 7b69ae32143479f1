"""Truncated stable subordinator: sampling, crossing events, arcsine law."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from clockproc import subordinator
from clockproc.config import default_ts_grid
from clockproc.errors import (
    BudgetError,
    HorizonError,
    ParameterValidationError,
)
from clockproc.seeding import StreamFamily, keyed_generator
from clockproc.subordinator import (
    PowerLawLevyMeasure,
    SubordinatorPath,
    arcsine_cdf,
    crossing_probability,
    crossing_probability_batch,
    extend_path,
    self_test,
    truncated_laplace_exponent,
)
from reference_estimators import padded_window, sample_path, sample_totals, unblocked_self_test


def measure(amplitude=1.0, alpha=0.5):
    return PowerLawLevyMeasure(amplitude=amplitude, alpha=alpha)


# --- the jump measure -----------------------------------------------------


def test_measure_validation_and_tail():
    with pytest.raises(ParameterValidationError):
        PowerLawLevyMeasure(amplitude=0.0, alpha=0.5)
    with pytest.raises(ParameterValidationError):
        PowerLawLevyMeasure(amplitude=1.0, alpha=1.0)
    m = measure(2.0, 0.3)
    assert m.tail(1.0) == pytest.approx(2.0)
    assert m.tail(8.0) == pytest.approx(2.0 * 8.0**-0.3)


def test_truncated_mean_rate_matches_quadrature():
    """The omitted sub-cutoff mass rate integrates u * density over (0, c]."""
    m = measure(1.7, 0.3)
    for c in (0.01, 0.1, 1.0):
        integral, _ = integrate.quad(
            lambda u: u * m.amplitude * m.alpha * u ** (-m.alpha - 1.0), 0.0, c
        )
        assert m.truncated_mean_rate(c) == pytest.approx(integral, rel=1e-9)
    with pytest.raises(ParameterValidationError):
        m.truncated_mean_rate(0.0)


# --- path sampling --------------------------------------------------------


def test_sample_path_deterministic_and_structured():
    m = measure(1.0, 0.5)
    a = sample_path(m, 10.0, 0.01, keyed_generator(5))
    b = sample_path(m, 10.0, 0.01, keyed_generator(5))
    assert np.array_equal(a.times, b.times) and np.array_equal(a.sizes, b.sizes)
    assert np.all(np.diff(a.times) >= 0)
    assert np.all((a.times >= 0) & (a.times <= 10.0))
    assert np.all(a.sizes > 0.01)
    assert a.cutoff == 0.01 and a.horizon == 10.0


def test_sample_path_poisson_count_and_uniform_times():
    m = measure(1.0, 0.5)
    horizon, cutoff = 5.0, 0.04
    lam = horizon * float(m.tail(cutoff))  # 25 expected jumps per path
    rng = keyed_generator(6)
    counts, all_times = [], []
    for _ in range(200):
        p = sample_path(m, horizon, cutoff, rng)
        counts.append(len(p.times))
        all_times.append(p.times)
    total = sum(counts)
    assert abs(total - 200 * lam) < 4.0 * math.sqrt(200 * lam)
    # count variance equals the mean for a Poisson law (loose 4 sigma check)
    var = np.var(counts, ddof=1)
    assert abs(var - lam) < 4.0 * lam * math.sqrt(2.0 / 199)
    ks = stats.kstest(np.concatenate(all_times) / horizon, lambda x: x, method="asymp")
    assert ks.pvalue > 1e-4


def test_sample_path_pareto_sizes():
    m = measure(1.0, 0.3)
    p = sample_path(m, 400.0, 0.5, keyed_generator(7))
    n = len(p.sizes)
    assert n > 300  # ~492 expected
    # P(size > 2*cutoff) = 2^(-alpha) conditionally on exceeding the cutoff
    target = 2.0**-0.3
    frac = float(np.mean(p.sizes > 1.0))
    assert abs(frac - target) < 4.0 * math.sqrt(target * (1 - target) / n)


def test_sample_path_budget_guard():
    with pytest.raises(BudgetError):
        sample_path(measure(1.0, 0.5), 1.0, 1e-20, keyed_generator(1))
    with pytest.raises(ParameterValidationError):
        sample_path(measure(), 0.0, 0.1, keyed_generator(1))
    with pytest.raises(ParameterValidationError):
        sample_path(measure(), 1.0, -0.1, keyed_generator(1))


def test_extend_path_keeps_prefix():
    m = measure(1.0, 0.5)
    rng = keyed_generator(8)
    p = sample_path(m, 4.0, 0.05, rng)
    q = extend_path(p, 9.0, rng)
    k = len(p.times)
    assert q.horizon == 9.0
    assert np.array_equal(q.times[:k], p.times)
    assert np.array_equal(q.sizes[:k], p.sizes)
    assert np.all(q.times[k:] > 4.0) and np.all(q.times[k:] <= 9.0)
    with pytest.raises(ParameterValidationError):
        extend_path(p, 4.0, rng)


def test_path_values_and_supremum():
    m = measure(1.0, 0.5)
    path = SubordinatorPath(
        measure=m, horizon=10.0, cutoff=0.25,
        times=np.array([1.0, 3.0]), sizes=np.array([2.0, 0.5]),
    )
    rate = m.truncated_mean_rate(0.25)
    assert np.allclose(path.values(), [2.0 + rate * 1.0, 2.5 + rate * 3.0])
    assert path.supremum() == pytest.approx(2.5 + rate * 10.0)
    empty = SubordinatorPath(
        measure=m, horizon=2.0, cutoff=0.25, times=np.array([]), sizes=np.array([])
    )
    assert empty.supremum() == pytest.approx(rate * 2.0)
    assert empty.values().size == 0


def test_sample_totals_laplace_transform():
    """E exp(-v S(T)) = exp(-T * truncated exponent), 4 sigma at 4000 paths."""
    m = measure(1.0, 0.5)
    horizon, cutoff, v = 1.0, 0.01, 1.0
    totals = sample_totals(m, horizon, cutoff, 4000, keyed_generator(10))
    w = np.exp(-v * totals)
    target = math.exp(-horizon * truncated_laplace_exponent(m, cutoff, v))
    se = float(w.std(ddof=1)) / math.sqrt(len(w))
    assert abs(float(w.mean()) - target) < 4.0 * se


def test_sample_totals_compensation_is_a_constant_shift():
    m = measure(1.0, 0.5)
    raw = sample_totals(m, 2.0, 0.05, 50, keyed_generator(11))
    comp = sample_totals(m, 2.0, 0.05, 50, keyed_generator(11), compensated=True)
    shift = m.truncated_mean_rate(0.05) * 2.0
    assert np.allclose(comp, raw + shift, rtol=1e-12)
    with pytest.raises(BudgetError):
        sample_totals(m, 1.0, 1e-18, 10, keyed_generator(1))


# --- arcsine law ----------------------------------------------------------


def test_arcsine_cdf_half_is_classical():
    xs = np.linspace(0.0, 1.0, 21)
    classical = (2.0 / math.pi) * np.arcsin(np.sqrt(xs))
    assert np.allclose(arcsine_cdf(0.5, xs), classical, atol=1e-12)


def test_arcsine_cdf_direct_quadrature():
    """Independent route: the density sin(pi a)/pi * u^(a-1) (1-u)^(-a)."""
    for alpha in (0.3, 0.7):
        for x in (0.2, 0.5, 0.8):
            integral, _ = integrate.quad(
                lambda u: u ** (alpha - 1.0) * (1.0 - u) ** (-alpha), 0.0, x
            )
            direct = math.sin(math.pi * alpha) / math.pi * integral
            assert arcsine_cdf(alpha, x) == pytest.approx(direct, abs=1e-9)


def test_arcsine_cdf_endpoints_and_validation():
    assert arcsine_cdf(0.3, 0.0) == 0.0
    assert arcsine_cdf(0.3, 1.0) == 1.0
    assert isinstance(arcsine_cdf(0.3, 0.5), float)
    with pytest.raises(ParameterValidationError):
        arcsine_cdf(1.0, 0.5)
    with pytest.raises(ParameterValidationError):
        arcsine_cdf(0.3, 1.5)


def test_arcsine_self_sample_ks():
    """Inverse-transform draws from the law must pass their own KS test."""
    rng = keyed_generator(12)
    for alpha in (0.3, 0.5):
        u = rng.uniform(size=2000)
        draws = special.betaincinv(alpha, 1.0 - alpha, u)
        ks = stats.kstest(draws, lambda x: arcsine_cdf(alpha, x), method="asymp")
        bound = special.kolmogi(2.0 * stats.norm.sf(4.0))
        assert math.sqrt(draws.size) * ks.statistic < bound


# --- crossing events ------------------------------------------------------


def hand_path(times, sizes, horizon=10.0, cutoff=0.25, alpha=0.5):
    return SubordinatorPath(
        measure=measure(1.0, alpha), horizon=horizon, cutoff=cutoff,
        times=np.asarray(times, dtype=np.float64), sizes=np.asarray(sizes, dtype=np.float64),
    )


def padded(paths, extra=0):
    """Time-sorted (paths, jumps) matrices as the batch reads them."""
    width = max(len(p.times) for p in paths) + extra
    times = np.full((len(paths), width), np.inf)
    sizes = np.zeros((len(paths), width))
    counts = np.zeros(len(paths), dtype=np.int64)
    for i, p in enumerate(paths):
        k = len(p.times)
        counts[i] = k
        times[i, :k] = p.times
        sizes[i, :k] = p.sizes
    return times, sizes, counts


def test_crossing_probability_hand_cases():
    # compensation rate 0.5: values [5.5, 6.3], supremum 5.3 + 0.5 * 10
    p = hand_path([1.0, 2.0], [5.0, 0.3])
    # the first landing above 5 starts at 0.5 and stops short of 11
    assert crossing_probability(p, 5.0, 6.0) == 0
    with pytest.raises(HorizonError):
        crossing_probability(p, 10.5, 1.0)
    with pytest.raises(ParameterValidationError):
        crossing_probability(p, -1.0, 1.0)


@pytest.mark.filterwarnings("error")  # 0 * inf padding would be NaN
def test_crossing_batch_hand_cases_without_drift():
    # post values [5, 5.3] and one padding column
    times, sizes, counts = padded([hand_path([1.0, 2.0], [5.0, 0.3])], extra=1)
    pairs = [
        (2.0, 2.0),  # jump over (2,4)
        (4.9, 0.3),  # lands inside (4.9,5.2)
        (5.0, 0.1),  # second jump straddles
        (3.0, 0.0),  # empty interval
        (5.0, 1.0),  # second jump lands above 5 but short of 6
        (5.3, 0.5),  # supremum 5.3 <= t: undecided
    ]
    flags = crossing_probability_batch(times, sizes, counts, 0.0, pairs)
    assert flags.tolist() == [[1], [0], [1], [1], [0], [-1]]


def test_crossing_reads_the_value_before_a_huge_jump_without_cancellation():
    # the path stands at 0.001 > t = 0 before the 1e20 jump; landing - size
    # would cancel to 0 <= t and count a false crossing
    flags = crossing_probability_batch([[0, 0.5]], [[0, 1e20]], [2], 0.002, [(0.0, 1.0)])
    assert flags.tolist() == [[0]]
    p = hand_path([0.0, 0.5], [0.0, 1e20])
    assert p.compensation_rate * 0.5 > 0.0
    assert crossing_probability(p, 0.0, 1.0) == 0


def test_crossing_batch_padding_never_lands():
    # the jumps sum to 0.9 <= t, but the drift carries the path past t+s
    # at the second jump, which straddles (1, 1.25)
    p = hand_path([1.0, 2.0], [0.2, 0.7], horizon=4.0, cutoff=0.04)
    assert p.compensation_rate == pytest.approx(0.2)
    assert crossing_probability(p, 1.0, 0.25) == 1
    times = np.array([[1.0, 2.0, np.inf]])
    sizes = np.array([[0.2, 0.7, 0.0]])
    flags = crossing_probability_batch(times, sizes, np.array([2]), 0.2, [(1.0, 0.25)])
    assert flags.tolist() == [[1]]


def test_crossing_probability_drift_crosses_after_last_jump():
    # compensated path keeps climbing linearly after its only jump
    p = hand_path([1.0], [1.0], horizon=50.0, cutoff=0.25)
    rate = p.compensation_rate
    level = 1.0 + rate * 25.0  # reached by drift at time ~25, after the jump
    assert crossing_probability(p, level, rate) == 0


def test_crossing_batch_agrees_with_scalar():
    m = measure(1.0, 0.5)
    rng = keyed_generator(13)
    paths = [sample_path(m, 4.0, 0.05, rng) for _ in range(300)]
    times, sizes, counts = padded(paths, extra=1)
    assert np.all(counts < times.shape[1])
    pairs = [(1.0, 1.0), (2.0, 0.5), (0.3, 3.0), (1.0, 0.0)]
    batch = crossing_probability_batch(times, sizes, counts, m.truncated_mean_rate(0.05), pairs)
    assert batch.shape == (len(pairs), len(paths))
    for j, (t, s) in enumerate(pairs):
        for i, p in enumerate(paths):
            try:
                scalar = crossing_probability(p, t, s)
            except HorizonError:
                # the batch form, which ignores drift past the last jump, must
                # also be undecided here
                assert batch[j, i] == -1
                continue
            # batch may be conservatively undecided, but never wrong
            assert batch[j, i] in (-1, scalar)
        assert np.any(batch[j] >= 0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_paths_cut_after_their_first_landing_above_t_keep_every_flag(alpha):
    """Jumps after the first landing above t change no (t, s) indicator."""
    m = measure(1.0, alpha)
    cutoff = 0.01
    rng = keyed_generator(15)
    full = [sample_path(m, 40.0, cutoff, rng) for _ in range(200)]
    drift = m.truncated_mean_rate(cutoff)
    for t in (0.3, 1.0, 2.5):
        cut = []
        for p in full:
            k = int(np.searchsorted(p.values(), t, side="right"))
            assert k < len(p.times)  # every path lands above t before its horizon
            cut.append(hand_path(p.times[: k + 1], p.sizes[: k + 1], p.times[k], cutoff, alpha))
        pairs = [(t, s) for s in (0.0, 0.05, 0.25, 1.0, 4.0)]
        whole = crossing_probability_batch(*padded(full), drift, pairs)
        prefix = crossing_probability_batch(*padded(cut), drift, pairs)
        assert np.all(whole >= 0)
        assert np.array_equal(prefix, whole)
        # both outcomes occur, so the comparison can tell a wrong rule apart
        assert 0 < whole[1:].sum() < whole[1:].size


def test_self_test_draws_about_one_unit_window(monkeypatch):
    """At alpha = 0.7 nearly every path lands above t = 1 within [0, 1]."""
    drawn = []
    jump_sizes = PowerLawLevyMeasure.jump_sizes

    def counted(self, cutoff, u):
        if self.alpha == 0.7:
            drawn.append(np.size(u))
        return jump_sizes(self, cutoff, u)

    monkeypatch.setattr(PowerLawLevyMeasure, "jump_sizes", counted)
    self_test([(1.0, 1.0), (1.0, 0.25)], [1.0], 2000, 5, 1)
    assert sum(drawn) < 1.1 * 2000 * float(measure(1.0, 0.7).tail(1e-4))


def replayed_crossings(pairs, paths, master_seed, alpha, cutoff=1e-4):
    """Crossing counts of one self-test chunk from whole path objects.

    Replays the chunk's windows on its keyed stream, appends each window's
    jumps to the path's own lists, and reads every flag with the scalar
    indicator.  Also returns the number of windows drawn.
    """
    m = measure(1.0, alpha)
    rng = keyed_generator(StreamFamily(master_seed, f"subordinator-selftest-{alpha!r}").seed_for(0))
    deepest = max(t for t, _ in pairs)
    jumps = [([], []) for _ in range(paths)]
    rows, start, end, windows = list(range(paths)), 0.0, 1.0, 0
    while rows:
        times, sizes, counts = padded_window(m, cutoff, start, end, len(rows), rng)
        for i, row in enumerate(rows):
            jumps[row][0].extend(times[i, : counts[i]])
            jumps[row][1].extend(sizes[i, : counts[i]])
        grown = [hand_path(*jumps[row], end, cutoff, alpha) for row in rows]
        rows = [row for row, p in zip(rows, grown) if p.values().max(initial=0.0) <= deepest]
        start, end, windows = end, 2.0 * end, windows + 1
    # each path ends at its first landing above the deepest t or later
    whole = [hand_path(ts, ss, ts[-1], cutoff, alpha) for ts, ss in jumps]
    counts = [sum(crossing_probability(p, t, s) for p in whole) for t, s in pairs]
    return counts, windows


def test_windowed_self_test_matches_whole_paths():
    """The carried mass of earlier windows gives the flags of the whole path."""
    pairs = [(0.5, 0.5), (3.0, 1.0), (6.0, 2.0)]
    results = self_test(pairs, [1.0], 300, 17, 1)
    for result in results:
        counts, windows = replayed_crossings(pairs, 300, 17, result.alpha)
        assert windows > 1
        assert result.crossings.tolist() == counts


def test_self_test_layout_and_thread_invariance():
    pairs, v_grid = [(1.0, 1.0), (1.0, 0.25)], [0.5, 2.0]
    serial = self_test(pairs, v_grid, 2500, 5, 1)
    threaded = self_test(pairs, v_grid, 2500, 5, 2)
    assert [r.alpha for r in serial] == [0.3, 0.5, 0.7]
    for a, b in zip(serial, threaded):
        assert a.chunks == 2
        assert a.crossings.shape == (2,) and np.all((a.crossings >= 0) & (a.crossings <= 2500))
        assert np.array_equal(a.crossings, b.crossings)
        assert a.transform_mean == b.transform_mean
        assert a.transform_stderr == b.transform_stderr
        assert len(a.transform_predicted) == 2
        assert all(0.0 < x < 1.0 for x in a.transform_mean)
        # the standard error and the expected ESS come from one variance
        for se, pred, ess in zip(a.transform_stderr, a.transform_predicted, a.transform_ess):
            assert 0.0 < ess < 2500
            assert se == pytest.approx(pred * math.sqrt((2500 / ess - 1.0) / 2500), rel=1e-9)


ORACLE_PAIRS = [(0.5, 0.5), (0.5, 0.0), (3.0, 1.0), (6.0, 2.0), (6.0, 0.25)]
ORACLE_V = [1.0, 10.0, 100.0]


def assert_same_self_test(results, reference):
    for result, (alpha, crossings, means) in zip(results, reference, strict=True):
        assert result.alpha == alpha
        assert np.array_equal(result.crossings, crossings)
        assert result.transform_mean == means


@pytest.mark.parametrize("threads", [1, 2])
def test_self_test_row_blocks_match_whole_window_matrices(threads):
    """2,500 paths make a 2,000-row and a 500-row chunk, neither a multiple of
    the row block, and the later windows of t = 3 and 6 hold fewer rows than
    a block; the counts and the transform means keep every bit."""
    reference = unblocked_self_test(ORACLE_PAIRS, ORACLE_V, 2500, 23)
    assert_same_self_test(self_test(ORACLE_PAIRS, ORACLE_V, 2500, 23, threads), reference)


# more pairs and ratios than ORACLE_PAIRS, down to t = 0.25
WIDE_PAIRS = [(0.25, 0.75), (1.0, 4.0), (1.0, 0.25), (2.0, 2.0), (4.0, 12.0), (6.0, 0.5)]


@pytest.mark.parametrize("threads", [1, 3])
def test_self_test_reused_scratch_changes_no_result(threads):
    """Each thread's scratch outlives its blocks, windows and chunks: rows
    left by a wider window or a larger block must not reach a later one.
    A wider grid first, then ORACLE_PAIRS twice in a row, all in one
    process, keep every bit of the unblocked oracle."""
    wide = self_test(WIDE_PAIRS, ORACLE_V, 2500, 37, threads)
    assert_same_self_test(wide, unblocked_self_test(WIDE_PAIRS, ORACLE_V, 2500, 37))
    reference = unblocked_self_test(ORACLE_PAIRS, ORACLE_V, 2500, 23)
    for _ in range(2):
        assert_same_self_test(self_test(ORACLE_PAIRS, ORACLE_V, 2500, 23, threads), reference)


@pytest.mark.parametrize("start, end", [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (2.0**9, 2.0**10)])
def test_window_draw_into_scratch_gives_the_uniform_doubles(start, end):
    """Scaling the uniforms by a power-of-two window length is exact, so the
    times drawn in two parts into a dirty, larger buffer are rng.uniform's
    doubles, and the stream goes on from the same place."""
    dirty, total = np.full(10**6, np.nan), 1234
    drawn, expected = np.random.default_rng(41), np.random.default_rng(41)
    head = subordinator._jump_times(start, end, drawn, dirty[: total // 3]).copy()
    tail = subordinator._jump_times(start, end, drawn, dirty[: total - total // 3])
    times = np.concatenate([head, tail])
    assert times.tobytes() == expected.uniform(start, end, size=total).tobytes()
    assert drawn.random() == expected.random()


def test_self_test_does_not_depend_on_the_row_block(monkeypatch):
    """A budget below one row builds one row per block, 5,000 entries a few
    rows, and 2^30 every window in one block; each keeps every bit of the
    unblocked oracle."""
    reference = unblocked_self_test(ORACLE_PAIRS, ORACLE_V, 2500, 29)
    for budget in (1, 5000, 2**30):
        monkeypatch.setattr(subordinator, "_SELF_TEST_BLOCK_ELEMENTS", budget)
        assert_same_self_test(self_test(ORACLE_PAIRS, ORACLE_V, 2500, 29, 1), reference)


def chunk_peak(pairs):
    """Traced peak bytes of one 2,000-path chunk of the self-test at ``pairs``."""
    tracemalloc.start()
    try:
        self_test(pairs, [1.0], 2000, 31, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one block of three float64 matrices and a mask at the element budget is
# 3.3 MB; the rest is the chunk's flags, counts and offsets
CHUNK_PEAK_BOUND = 4.5e6


def test_self_test_chunk_peak_memory_stays_below_the_whole_window_matrices():
    """One 2,000-path chunk on the shipped ts_grid: row blocks of a fixed
    element budget, reading their jump times and sizes side by side from the
    chunk's stream into one reused set of scratch arrays, keep the traced
    peak near 4 MB.  512-row blocks behind a whole window's jump times
    peaked at 21 MB, new arrays per block and window at 23 MB, whole-window
    size draws at 33 MB and whole-window matrices at 47 MB."""
    assert chunk_peak(list(default_ts_grid())) < CHUNK_PEAK_BOUND


def test_self_test_chunk_peak_memory_does_not_grow_with_the_window():
    """A pair at t = 8 keeps paths drawing through (4, 8], windows four to
    eight times the first one's width; the blocks stay within the same
    budget, so the peak does too."""
    pairs = [*default_ts_grid(), (8.0, 8.0)]
    assert chunk_peak(pairs) < CHUNK_PEAK_BOUND


def test_reference_variance_of_the_transform_weight():
    """Var e^(-v S(1)) = e^(-Psi(2v)) - e^(-2 Psi(v)) for the compensated path."""
    m = measure(1.0, 0.5)
    cutoff = 0.01
    totals = sample_totals(m, 1.0, cutoff, 20000, keyed_generator(14), compensated=True)
    for v in (0.5, 2.0):
        psi, psi_2v = (
            u * m.truncated_mean_rate(cutoff) + truncated_laplace_exponent(m, cutoff, u)
            for u in (v, 2 * v)
        )
        expected = math.exp(-psi_2v) - math.exp(-2.0 * psi)
        assert float(np.var(np.exp(-v * totals), ddof=1)) == pytest.approx(expected, rel=0.1)


# --- Laplace exponent and KS helper ---------------------------------------


def test_truncated_laplace_exponent_limits():
    m = measure(1.3, 0.3)
    assert truncated_laplace_exponent(m, 0.1, 0.0) == 0.0
    values = [truncated_laplace_exponent(m, 0.1, v) for v in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # cutoff -> 0 recovers the full stable exponent amplitude*Gamma(1-a)*v^a
    for v in (0.7, 2.0):
        full = 1.3 * math.gamma(0.7) * v**0.3
        got = truncated_laplace_exponent(m, 1e-9, v)
        assert got == pytest.approx(full, rel=1e-5)
    with pytest.raises(ParameterValidationError):
        truncated_laplace_exponent(m, 0.1, -1.0)


def defining_integral(amplitude, alpha, cutoff, v):
    """50-digit quadrature of integral_cutoff^inf (1 - e^(-v*u)) nu(du), split at
    1/v where the integrand turns from linear to power-law decay; returns the
    value and mpmath's error estimate."""
    with mpmath.workdps(50):
        a, v, c = mpmath.mpf(alpha), mpmath.mpf(v), mpmath.mpf(cutoff)
        points = [c] + ([1 / v] if 1 / v > c else []) + [mpmath.inf]
        return mpmath.quad(
            lambda u: -mpmath.expm1(-v * u) * amplitude * a * u ** (-a - 1),
            points, error=True, maxdegree=6,
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_truncated_laplace_exponent_matches_the_defining_integral(alpha):
    m = measure(1.3, alpha)
    for cutoff in (0.0, 1e-9, 1e-4, 0.1, 1.0):
        for v in (1e-3, 1.0, 56.2, 112.4, 1e4):
            value, error = defining_integral(1.3, alpha, cutoff, v)
            assert error < 1e-14 * value
            got = truncated_laplace_exponent(m, cutoff, v)
            assert got == pytest.approx(float(value), rel=1e-12), (cutoff, v)
    with pytest.raises(ParameterValidationError):
        truncated_laplace_exponent(m, -1e-3, 1.0)
