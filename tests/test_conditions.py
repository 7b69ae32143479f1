"""Intensity, Laplace, initial-term and truncated-mean estimators."""

import math

import numpy as np
import pytest
from scipy import stats

from clockproc.conditions import (
    build_condition_report,
    concentration_diagnostic,
    conditional_block_laplace,
    degenerate_block_laplace,
    degenerate_block_tail,
    degenerate_initial_term,
    estimate_block_laplace,
    estimate_block_tail,
    estimate_block_tail_grid,
    estimate_initial_term,
    estimate_intensity,
    estimate_intensity_laplace,
    estimate_squared_tail,
    estimate_step_averaged_tail,
    estimate_truncated_mean,
    truncated_mean_asymptotic,
    truncated_mean_quadrature,
)
from clockproc.environment import Environment
from clockproc.errors import (
    DegenerateScaleError,
    ParameterValidationError,
)
from clockproc.seeding import ReplicaStreams, StreamFamily
from clockproc.verdicts import SLOPE_WINDOW, slope_status

pytestmark = pytest.mark.filterwarnings("ignore:block length")


def unit_env(n=6, gamma=0.5):
    """beta = 0: unit-mean holds, Gamma block sums, closed forms everywhere."""
    return Environment.degenerate(n, 3, 0.0, gamma)


# --- single-block tails ---------------------------------------------------


def test_block_tail_matches_gamma_law_at_beta_zero():
    env = unit_env()
    est = estimate_block_tail(env, 2.0, 20_000, ReplicaStreams.from_seed(2))
    oracle = degenerate_block_tail(env, 2.0)
    assert oracle == pytest.approx(
        float(stats.gamma.sf(2.0 * env.time_scale, env.block_length)), rel=1e-14
    )
    assert est.stderr == pytest.approx(
        math.sqrt(est.probability * (1 - est.probability) / est.samples)
    )
    assert abs(est.probability - oracle) < 3.0 * est.stderr


def test_block_tail_grid_monotone_by_construction():
    """Common block sums across the grid force exact monotonicity in u."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    ests = estimate_block_tail_grid(env, grid, 3000, ReplicaStreams.from_seed(1))
    probs = [e.probability for e in ests]
    assert all(b <= a for a, b in zip(probs, probs[1:]))
    assert all(e.samples == 3000 for e in ests)


def test_block_tail_extreme_thresholds():
    env = unit_env()
    streams = ReplicaStreams.from_seed(4)
    assert estimate_block_tail(env, 0.0, 500, streams).probability == 1.0
    assert estimate_block_tail(env, 1e9, 500, streams).probability == 0.0


def test_step_averaged_tail_equals_neighbor_average():
    """Averaging the one-step kernel by hand reproduces the presteps=1 route."""
    env = Environment.create(4, 3, 1.2, 1.0, seed=3)
    u = 1.0
    sa = estimate_step_averaged_tail(env, 0, u, 8000, ReplicaStreams.from_seed(5))
    fam = StreamFamily(105, "nbrs")
    nbr = [
        estimate_block_tail(env, u, 8000, fam.replica(b), start=(1 << b)) for b in range(4)
    ]
    mean_nbr = float(np.mean([e.probability for e in nbr]))
    se = math.sqrt(sa.stderr**2 + sum(e.stderr**2 for e in nbr) / 16.0)
    assert abs(sa.probability - mean_nbr) < 3.0 * se


def test_step_averaged_equals_plain_tail_at_beta_zero():
    # with state-independent holds the pre-step cannot matter
    env = unit_env()
    a = estimate_step_averaged_tail(env, 0, 2.0, 10_000, ReplicaStreams.from_seed(6))
    oracle = degenerate_block_tail(env, 2.0)
    assert abs(a.probability - oracle) < 3.0 * a.stderr


# --- aggregated intensity -------------------------------------------------


def test_intensity_scales_tail_by_block_count():
    env = unit_env()
    grid = [1.7, 1.9, 2.1]
    est = estimate_intensity(env, None, grid, 5000, ReplicaStreams.from_seed(8), block_count=12)
    assert est.block_count == 12
    for u, value, se in zip(grid, est.values, est.stderrs):
        q = degenerate_block_tail(env, u)
        spread = max(se, 12 * math.sqrt(q * (1 - q) / 5000))
        assert abs(value - 12 * q) < 4.0 * spread


def test_intensity_needs_interior_hit_rates():
    env = unit_env()
    with pytest.raises(ParameterValidationError, match="interior|inside"):
        # both thresholds are hit almost surely -> no usable fit points
        estimate_intensity(env, None, [1e-6, 2e-6], 200, ReplicaStreams.from_seed(9), block_count=3)


def test_intensity_resolves_block_count_from_horizon():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    est = estimate_intensity(env, 1.0, [0.5, 1.0, 2.0], 2000, ReplicaStreams.from_seed(10))
    assert est.block_count == env.block_count(1.0)
    with pytest.raises(ParameterValidationError):
        estimate_intensity(env, None, [0.5, 1.0], 2000, ReplicaStreams.from_seed(10))


# --- correlated squares ---------------------------------------------------


def test_squared_tail_routes_agree():
    env = Environment.create(6, 3, 2.0, 1.5, seed=2)
    fam = StreamFamily(13, "sq")
    a = estimate_squared_tail(env, 0.5, 6000, fam.replica(0), block_count=5, route="two-step")
    b = estimate_squared_tail(env, 0.5, 6000, fam.replica(1), block_count=5, route="split")
    assert a.route == "two-step" and b.route == "split"
    se = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) < 3.5 * se
    with pytest.raises(ParameterValidationError):
        estimate_squared_tail(env, 0.5, 100, fam.replica(2), block_count=5, route="joint")


def test_squared_tail_at_beta_zero_is_product_of_tails():
    # independent blocks at beta=0: the joint exceedance factorises
    env = unit_env()
    est = estimate_squared_tail(env, 2.0, 20_000, ReplicaStreams.from_seed(14), block_count=1)
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
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    fam = StreamFamily(7, "dual")
    cond = estimate_block_laplace(env, [0.3, 1.0, 3.0], 4000, fam.replica(0), method="conditional")
    direct = estimate_block_laplace(env, [0.3, 1.0, 3.0], 4000, fam.replica(1), method="direct")
    for a, b in zip(cond, direct):
        assert a.method == "conditional" and b.method == "direct"
        se = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) < 3.5 * se
        # integrating the waiting times out cannot increase the variance
        assert a.stderr <= b.stderr
    with pytest.raises(ParameterValidationError):
        estimate_block_laplace(env, [1.0], 100, fam.replica(2), method="hybrid")


def test_block_laplace_beta_zero_has_no_monte_carlo_noise():
    """At beta=0 the conditional route is deterministic and exactly the formula."""
    env = unit_env()
    ests = estimate_block_laplace(env, [0.1, 1.0, 10.0], 200, ReplicaStreams.from_seed(3))
    for est in ests:
        assert est.stderr == 0.0
        assert est.value == pytest.approx(degenerate_block_laplace(env, est.v), rel=1e-12)
    assert degenerate_block_laplace(env, 1.0) == pytest.approx(
        (1.0 + 1.0 / env.time_scale) ** (-env.block_length), rel=1e-12
    )


def test_laplace_intensity_rescaled_values_monotone():
    """v * nu_hat(v) = k(1 - E G(v)) is nondecreasing in v, exactly under CRN."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    v_grid = [0.1, 0.3, 1.0, 3.0, 10.0]
    est = estimate_intensity_laplace(
        env, None, v_grid, 2000, ReplicaStreams.from_seed(17), block_count=9
    )
    rescaled = [v * x for v, x in zip(est.v_values, est.values)]
    assert all(b >= a for a, b in zip(rescaled, rescaled[1:]))
    assert est.block_count == 9
    with pytest.raises(ParameterValidationError):
        estimate_intensity_laplace(
            env, None, [0.0, 1.0], 100, ReplicaStreams.from_seed(17), block_count=9
        )


def test_laplace_intensity_beta_zero_closed_form():
    env = unit_env()
    v_grid = [0.5, 1.0, 2.0]
    est = estimate_intensity_laplace(
        env, None, v_grid, 50, ReplicaStreams.from_seed(19), block_count=4
    )
    for v, value in zip(v_grid, est.values):
        oracle = 4 * (1.0 - degenerate_block_laplace(env, v)) / v
        assert value == pytest.approx(oracle, rel=1e-12)


# --- initial holding term -------------------------------------------------


def test_initial_term_trivial_and_validation():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    est = estimate_initial_term(env, 0.0, exact=True)
    assert est.value == 1.0 and est.stderr == 0.0
    with pytest.raises(ParameterValidationError):
        estimate_initial_term(env, -1.0, exact=True)
    with pytest.raises(ParameterValidationError):
        estimate_initial_term(env, 1.0)  # MC mode without streams


def test_initial_term_exact_vs_monte_carlo():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    for v in (0.1, 1.0):
        ex = estimate_initial_term(env, v, exact=True)
        mc = estimate_initial_term(env, v, 20_000, ReplicaStreams.from_seed(23))
        assert ex.exact and not mc.exact
        floor = math.sqrt(ex.value * (1.0 - ex.value) / mc.samples)
        assert abs(mc.value - ex.value) < 3.5 * max(mc.stderr, floor)


def test_initial_term_exact_monotone_in_v():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    values = [estimate_initial_term(env, v, exact=True).value for v in (0.1, 0.5, 1.0, 5.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_initial_term_beta_zero_closed_form():
    env = unit_env(n=4, gamma=0.25)  # keep exp(-v*c_n) well above underflow
    for v in (0.2, 1.0):
        ex = estimate_initial_term(env, v, exact=True)
        assert ex.value == pytest.approx(degenerate_initial_term(env, v), rel=1e-12)
        assert ex.value == pytest.approx(math.exp(-v * env.time_scale), rel=1e-12)
        assert ex.stderr == 0.0


# --- truncated single-jump mean -------------------------------------------


def test_truncated_mean_monte_carlo_matches_quadrature():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    ests = estimate_truncated_mean(
        env, [0.05, 0.1, 0.2], 1.0, 100_000, ReplicaStreams.from_seed(12)
    )
    for est in ests:
        assert est.method == "annealed"
        assert est.quadrature_value is not None
        assert abs(est.mc_value - est.quadrature_value) < 3.0 * est.mc_stderr


def test_truncated_mean_quadrature_monotone_in_epsilon():
    env = Environment.create(10, 3, 3.0, 2.7, seed=5)
    values = [truncated_mean_quadrature(env, e, 1.0) for e in (0.02, 0.05, 0.1, 0.2, 0.5)]
    assert all(v > 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


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


def test_truncated_mean_validation_and_quenched_mode():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    with pytest.raises(ParameterValidationError):
        estimate_truncated_mean(env, [-0.1], 1.0, 100, ReplicaStreams.from_seed(1))
    with pytest.raises(ParameterValidationError):
        estimate_truncated_mean(env, [0.1], 1.0, 100, ReplicaStreams.from_seed(1), method="typo")
    with pytest.raises(DegenerateScaleError):
        estimate_truncated_mean(unit_env(), [0.1], 1.0, 100, ReplicaStreams.from_seed(1))
    quenched = estimate_truncated_mean(
        env, [0.1], 1.0, 5000, ReplicaStreams.from_seed(2), method="quenched"
    )[0]
    assert quenched.method == "quenched"
    assert quenched.mc_value > 0


def test_stderr_halves_when_samples_quadruple():
    """Monte Carlo error scales like 1/sqrt(samples) (20% slack on the ratio)."""
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    fam = StreamFamily(41, "scaling")
    small = estimate_truncated_mean(env, [0.1], 1.0, 25_000, fam.replica(0))[0]
    large = estimate_truncated_mean(env, [0.1], 1.0, 100_000, fam.replica(1))[0]
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
    assert rep.rho_source == "measured"  # n=6 admits the dense kernel
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


# --- full report ----------------------------------------------------------


def test_condition_report_beta_zero_all_closed_forms_pass():
    env = unit_env()
    rep = build_condition_report(
        env,
        1.0,
        u_grid=[1.7, 1.9, 2.1, 2.3],
        v_grid=[0.5, 1.0],
        eps_grid=[0.1, 0.2],
        streams=ReplicaStreams.from_seed(1),
        samples=2000,
        block_count=8,
    )
    for key in ("degenerate_tail", "degenerate_squared", "degenerate_laplace",
                "degenerate_initial", "initial_term", "squared_tail_routes"):
        assert key in rep.verdicts, key
    assert rep.verdicts["degenerate_laplace"]["max_relative_error"] < 1e-12
    assert rep.verdicts["degenerate_initial"]["max_relative_error"] < 1e-12
    # no tail exponent and no jump-count scale exist at beta = 0
    assert "intensity_slope" not in rep.verdicts
    assert "truncated_mean" not in rep.verdicts
    assert rep.truncated_means == []
    assert rep.overall in ("pass", "warn")


def test_condition_report_structure_and_serialization(tmp_path):
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    rep = build_condition_report(
        env,
        1.0,
        u_grid=[0.25, 0.5, 1.0, 2.0],
        v_grid=[0.3, 1.0, 3.0],
        eps_grid=[0.05, 0.1, 0.2],
        streams=ReplicaStreams.from_seed(6),
        samples=3000,
    )
    assert rep.block_count == env.block_count(1.0)
    for key in ("intensity_slope", "laplace_slope", "squared_tail_routes",
                "initial_term", "truncated_mean"):
        assert key in rep.verdicts, key
    assert rep.overall in ("pass", "warn", "fail")
    d = rep.to_dict()
    import json

    text = json.dumps(d)  # must be JSON clean, no numpy scalars anywhere
    assert "np.float64" not in text

    csv_path = tmp_path / "conditions.csv"
    json_path = tmp_path / "conditions.json"
    rep.write_csv(csv_path)
    rep.write_json(json_path)
    assert "np.float64" not in csv_path.read_text()
    parsed = json.loads(json_path.read_text())
    assert parsed["overall"] == rep.overall
    import csv as csv_mod

    with open(csv_path, newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0][0] == "quantity"
    assert len(rows) > 5
