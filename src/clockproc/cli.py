"""Command-line harness: configuration, orchestration, tabular output.

Usage::

    clockproc <subcommand> --config path.json [--seed N] [--out dir]
              [--threads K] [--dump-trajectory] [--start HEX]

Subcommands:

``conditions``
    Full per-environment condition report (tail intensity, transform
    intensity, correlated squares, starting-hold survival, truncated means)
    with verdicts; at beta = 0 every estimator is also cross-checked against
    its closed form.
``laplace``
    The transform-based intensity estimator alone, with the power-law fit.
``clock``
    Block-aggregated clock paths over independent walks, compared against a
    sampled pure-jump path of the fitted power-law measure
    (Kolmogorov-Smirnov on jump sizes above a threshold).
``aging``
    Two-time correlation curve next to the arcsine prediction and a flat
    (beta = 0) reference curve, plus per-block trap diagnostics.
``mixing``
    Exact aggregation-scale mixing check (dense kernel; small n only).
``subordinator``
    Sampler self-tests: interval-avoidance probabilities against the arcsine
    law and the horizon-marginal transform against quadrature.

Every run writes ``manifest.json`` (resolved config, package versions,
stream provenance for each output file, verdicts) plus per-subcommand CSV
files into the output directory.  Exit code: 0 when every verdict passes,
2 when the worst verdict is a warning, 3 when one fails, 1 on execution or
configuration errors.

All randomness is derived from the config's master seed through tagged
streams, and reductions happen in replica order, so outputs are
byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import csv
import math
import json
import os
import platform
import sys

import numpy as np
import scipy
from scipy import stats

from .aging import estimate_aging_curve, trap_localization_diagnostic
from .chain import TrajectorySegment, blocked_clock, mixing_check, simulate_segment
from .conditions import (
    build_condition_report,
    degenerate_laplace_check,
    estimate_intensity_laplace,
    plain,
)
from .config import ExperimentConfig
from .environment import Environment, SpinConfig, block_length
from .errors import ClockprocError, DegenerateScaleError, HorizonError, ParameterValidationError
from .parallel import ordered_map
from .seeding import StreamFamily, keyed_generator, resolve_seeds
from .subordinator import (
    PowerLawLevyMeasure,
    SubordinatorPath,
    arcsine_cdf,
    crossing_probability,
    crossing_probability_batch,
    extend_path,
    sample_path,
    truncated_laplace_exponent,
)
from .verdicts import SLOPE_WINDOW, ladder, slope_status, worst, z_score, z_status

__all__ = ["main", "run"]

_EXIT_CODE = {"pass": 0, "warn": 2, "fail": 3}

# levy self-test battery (the model section plays no role there)
_SELF_TEST_ALPHAS = (0.3, 0.5, 0.7)
_SELF_TEST_CUTOFF = 1.0e-4
_SELF_TEST_CHUNK = 2000

_TRAJECTORY_ROW_CAP = 1_000_000
_TRAP_BLOCKS = 8


def _write_csv(outdir: str, name: str, header: list[str], rows: list[list]) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return name


def _artifact(name: str, purpose: str, cfg: ExperimentConfig, replicas, rows: str) -> dict:
    """Provenance record: which streams produced which file's rows."""
    return {
        "file": name,
        "master_seed": cfg.master_seed,
        "stream_purpose": purpose,
        "replica_indices": replicas,
        "rows": rows,
    }


def _build_environment(cfg: ExperimentConfig) -> Environment:
    seed = resolve_seeds(cfg.master_seed, "environment", 0)
    if cfg.beta == 0.0:
        return Environment.degenerate(cfg.n, cfg.p, 0.0, cfg.gamma, seed=seed)
    return Environment.create(cfg.n, cfg.p, cfg.beta, cfg.gamma, seed, zeta_table=cfg.zeta_table)


def _environment_record(env: Environment, cfg: ExperimentConfig, start: SpinConfig | None) -> dict:
    return {
        "coupling_seed": resolve_seeds(cfg.master_seed, "environment", 0),
        "alpha": env.alpha,
        "block_length": env.block_length,
        "log_time_scale": env.log_time_scale,
        "step_scale": env.step_scale,
        "start_distribution": (
            "uniform (stationary)"
            if start is None
            else {
                "fixed_state_hex": format(start.bits, "x"),
                "theorem_conformant": False,
            }
        ),
    }


def _parse_start(cfg: ExperimentConfig, raw: str | None) -> SpinConfig | None:
    if raw is None:
        return None
    try:
        bits = int(raw, 16)
    except ValueError:
        raise ParameterValidationError(f"--start must be a hex state; got {raw!r}") from None
    if not 0 <= bits < (1 << cfg.n):
        raise ParameterValidationError(
            f"--start {raw!r} is outside the n={cfg.n} state space [0, 2^{cfg.n})"
        )
    return SpinConfig(cfg.n, bits)


def _dump_trajectory(env: Environment, segment: TrajectorySegment, outdir: str) -> tuple[str, int]:
    rows = min(len(segment.states), _TRAJECTORY_ROW_CAP)
    with np.errstate(over="ignore"):
        taus = np.exp(env.beta * segment.energies[:rows])
    table = [
        [
            i,
            format(int(segment.states[i]), "x"),
            repr(float(segment.energies[i])),
            repr(float(taus[i])),
            repr(float(segment.exp_draws[i])),
            repr(float(segment.increments[i])),
        ]
        for i in range(rows)
    ]
    name = _write_csv(
        outdir,
        "trajectory.csv",
        ["step", "state_hex", "H", "tau", "exp_draw", "increment"],
        table,
    )
    return name, rows


# ---------------------------------------------------------------------------
# subcommands


def _run_conditions(cfg: ExperimentConfig, outdir: str, args) -> tuple[dict, list]:
    env = _build_environment(cfg)
    streams = StreamFamily(cfg.master_seed, "conditions").replica(0)
    report = build_condition_report(
        env,
        horizon=1.0,
        u_grid=cfg.u_grid,
        v_grid=cfg.v_grid,
        eps_grid=cfg.eps_grid,
        streams=streams,
        samples=cfg.samples,
        block_count=cfg.block_count,
    )
    artifacts = []
    if "csv" in cfg.formats:
        report.write_csv(os.path.join(outdir, "conditions.csv"))
        artifacts.append(
            _artifact("conditions.csv", "conditions", cfg, [0], "one row per grid point")
        )
    if "json" in cfg.formats:
        report.write_json(os.path.join(outdir, "conditions.json"))
        artifacts.append(_artifact("conditions.json", "conditions", cfg, [0], "full report"))
    verdicts = dict(report.verdicts)
    verdicts["_environment"] = _environment_record(env, cfg, None) | {
        "block_count": report.block_count,
        "literal_block_count": report.literal_block_count,
        "status": "pass",
    }
    return verdicts, artifacts


def _run_laplace(cfg: ExperimentConfig, outdir: str, args) -> tuple[dict, list]:
    env = _build_environment(cfg)
    streams = StreamFamily(cfg.master_seed, "laplace").replica(0)
    est = estimate_intensity_laplace(
        env, 1.0, cfg.v_grid, cfg.samples, streams, block_count=cfg.block_count
    )
    rows = [
        [repr(v), repr(val), repr(se), est.samples]
        for v, val, se in zip(est.v_values, est.values, est.stderrs)
    ]
    artifacts = []
    if "csv" in cfg.formats:
        name = _write_csv(outdir, "laplace.csv", ["v", "estimate", "stderr", "samples"], rows)
        artifacts.append(_artifact(name, "laplace", cfg, [0], "one row per transform argument"))
    verdicts: dict = {}
    if env.alpha is not None and not math.isnan(est.slope):
        target = env.alpha - 1.0
        verdicts["laplace_slope"] = {
            "slope": est.slope,
            "slope_se": est.slope_se,
            "target": target,
            "window": SLOPE_WINDOW,
            "fitted_alpha": est.fitted_alpha,
            "fitted_alpha_se": est.fitted_alpha_se,
            "fitted_amplitude": est.fitted_amplitude,
            "fitted_amplitude_se": est.fitted_amplitude_se,
            "status": slope_status(abs(est.slope - target), est.slope_se),
        }
    if env.beta == 0.0:
        verdicts["degenerate_laplace"] = degenerate_laplace_check(env, est)
    verdicts["_environment"] = _environment_record(env, cfg, None) | {
        "block_count": est.block_count,
        "status": "pass",
    }
    return verdicts, artifacts


def _run_mixing(cfg: ExperimentConfig, outdir: str, args) -> tuple[dict, list]:
    theta = block_length(cfg.n)
    report = mixing_check(cfg.n, theta)
    rows = [
        [
            report.n,
            report.theta,
            repr(report.max_violation),
            repr(report.bound),
            report.passed,
            repr(report.rho_implied),
        ]
    ]
    artifacts = []
    if "csv" in cfg.formats:
        name = _write_csv(
            outdir,
            "mixing.csv",
            ["n", "theta", "max_violation", "bound", "passed", "rho_implied"],
            rows,
        )
        artifacts.append(_artifact(name, "mixing (exact, no streams)", cfg, [], "single row"))
    verdicts = {
        "mixing_bound": {
            "max_violation": report.max_violation,
            "bound": report.bound,
            "status": "pass" if report.passed else "fail",
        }
    }
    return verdicts, artifacts


def _run_clock(cfg: ExperimentConfig, outdir: str, args) -> tuple[dict, list]:
    env = _build_environment(cfg)
    if env.alpha is None:
        raise ParameterValidationError(
            "the jump-law comparison needs beta > 0; the beta = 0 chain has no "
            "power-law clock limit"
        )
    if cfg.block_count is not None:
        k = cfg.block_count
    else:
        k = env.block_count(1.0)
        if k == 0:
            raise DegenerateScaleError(
                "a unit horizon yields zero complete aggregation blocks at this n; "
                "set overrides.block_count"
            )
    theta = env.block_length
    start = _parse_start(cfg, args.start)
    family = StreamFamily(cfg.master_seed, "clock")

    def worker(i: int):
        streams = family.replica(i)
        origin = SpinConfig.random(env.n, streams.walk) if start is None else start
        segment = simulate_segment(env, origin, k * theta, streams)
        path = blocked_clock(segment, env, k)
        return path.block_sums(), path.initial_term

    results = ordered_map(worker, cfg.replicas, cfg.resolved_threads())
    artifacts = []
    if "csv" in cfg.formats:
        rows = []
        for i, (sums, _) in enumerate(results):
            cumulative = np.cumsum(sums)
            for j in range(k):
                rows.append([i, j, repr(float(sums[j])), repr(float(cumulative[j]))])
        name = _write_csv(
            outdir,
            "clock.csv",
            ["replica", "block_index", "increment", "cumulative"],
            rows,
        )
        artifacts.append(
            _artifact(name, "clock", cfg, f"0..{cfg.replicas - 1}", "k rows per replica")
        )
        initial_rows = [[i, repr(float(init))] for i, (_, init) in enumerate(results)]
        name = _write_csv(outdir, "clock_initial_terms.csv", ["replica", "initial_term"], initial_rows)
        artifacts.append(
            _artifact(name, "clock", cfg, f"0..{cfg.replicas - 1}", "one row per replica")
        )

    pooled = np.concatenate([sums for sums, _ in results])
    threshold = cfg.u_grid[0]
    exceed = np.sort(pooled[pooled > threshold])
    verdicts: dict = {}
    if exceed.size < 10:
        verdicts["clock_jump_law"] = {
            "status": "warn",
            "note": (
                f"only {exceed.size} block increments exceeded u={threshold}; "
                "not enough for a distribution comparison"
            ),
        }
    else:
        # size distribution above a fixed threshold is amplitude-free, so the
        # matched amplitude only controls how many reference jumps we draw
        amplitude = exceed.size / cfg.replicas * threshold**env.alpha
        measure = PowerLawLevyMeasure(amplitude, env.alpha)
        rng = keyed_generator(resolve_seeds(cfg.master_seed, "clock-reference", 0))
        reference = sample_path(measure, float(cfg.replicas), threshold, rng).sizes
        ks = stats.ks_2samp(exceed / threshold, reference / threshold)
        verdicts["clock_jump_law"] = {
            "statistic": float(ks.statistic),
            "p_value": float(ks.pvalue),
            "empirical_jumps": int(exceed.size),
            "reference_jumps": int(reference.size),
            "threshold": threshold,
            "status": ladder(-ks.pvalue, -1e-3, -1e-6),  # pass at p >= 1e-3
        }
        if "csv" in cfg.formats:
            rows = [["empirical", repr(float(x)), repr(float(x / threshold))] for x in exceed]
            rows += [
                ["sampled", repr(float(x)), repr(float(x / threshold))] for x in np.sort(reference)
            ]
            name = _write_csv(outdir, "clock_jumps.csv", ["source", "size", "normalized"], rows)
            artifacts.append(
                _artifact(
                    name,
                    "clock + clock-reference",
                    cfg,
                    f"0..{cfg.replicas - 1}",
                    "pooled block increments above the threshold, then sampled jumps",
                )
            )
    if args.dump_trajectory:
        streams = family.replica(0)
        origin = SpinConfig.random(env.n, streams.walk) if start is None else start
        segment = simulate_segment(env, origin, k * theta, streams)
        name, rows_written = _dump_trajectory(env, segment, outdir)
        artifacts.append(_artifact(name, "clock", cfg, [0], f"{rows_written} visit rows"))
    verdicts["_environment"] = _environment_record(env, cfg, start) | {
        "block_count": k,
        "status": "pass",
    }
    return verdicts, artifacts


def _run_aging(cfg: ExperimentConfig, outdir: str, args) -> tuple[dict, list]:
    env = _build_environment(cfg)
    if env.alpha is None:
        raise ParameterValidationError(
            "the aging comparison needs beta > 0 (the flat reference curve is "
            "produced automatically)"
        )
    start = _parse_start(cfg, args.start)
    threads = cfg.resolved_threads()
    main_curve = estimate_aging_curve(
        env,
        cfg.ts_grid,
        args.epsilon,
        cfg.replicas,
        resolve_seeds(cfg.master_seed, "aging-main", 0),
        step_cap=cfg.step_cap,
        threads=threads,
        start=start,
    )
    reference_env = Environment.degenerate(
        cfg.n, cfg.p, 0.0, cfg.gamma, seed=resolve_seeds(cfg.master_seed, "environment", 0)
    )
    reference_curve = estimate_aging_curve(
        reference_env,
        cfg.ts_grid,
        args.epsilon,
        cfg.replicas,
        resolve_seeds(cfg.master_seed, "aging-reference", 0),
        time_unit=float(reference_env.block_length),
        prediction_alpha=env.alpha,
        step_cap=cfg.step_cap,
        threads=threads,
        start=start,
    )
    artifacts = []
    if "csv" in cfg.formats:
        main_curve.write_csv(os.path.join(outdir, "aging.csv"))
        artifacts.append(
            _artifact("aging.csv", "aging-main", cfg, f"0..{cfg.replicas - 1}", "one row per (t, s)")
        )
        reference_curve.write_csv(os.path.join(outdir, "aging_reference.csv"))
        artifacts.append(
            _artifact(
                "aging_reference.csv",
                "aging-reference",
                cfg,
                f"0..{cfg.replicas - 1}",
                "one row per (t, s), flat (beta = 0) chain on the decorrelation scale",
            )
        )

    main_gap = main_curve.max_absolute_gap
    reference_gap = reference_curve.max_absolute_gap
    verdicts: dict = {
        "aging_order": {
            "main_sup_gap": main_gap,
            "reference_sup_gap": reference_gap,
            "censored_main": int(sum(main_curve.censored)),
            "censored_reference": int(sum(reference_curve.censored)),
            # a NaN gap (every replica censored) compares False, so it warns
            "status": "pass" if main_gap <= reference_gap else "warn",
        }
    }

    # per-block localisation diagnostics on one dedicated trajectory
    trap_streams = StreamFamily(cfg.master_seed, "aging-trap").replica(0)
    origin = SpinConfig.random(env.n, trap_streams.walk) if start is None else start
    segment = simulate_segment(env, origin, _TRAP_BLOCKS * env.block_length, trap_streams)
    reports = [
        trap_localization_diagnostic(
            env, segment, i, epsilon=args.epsilon, threshold=args.trap_threshold
        )
        for i in range(_TRAP_BLOCKS)
    ]
    if "csv" in cfg.formats:
        rows = [
            [
                r.block_index,
                format(r.dominant_state, "x"),
                repr(r.dominant_fraction),
                repr(r.ball_time_fraction),
                r.reentered,
                r.untrapped,
            ]
            for r in reports
        ]
        name = _write_csv(
            outdir,
            "traps.csv",
            [
                "block_index",
                "dominant_state_hex",
                "dominant_fraction",
                "ball_time_fraction",
                "reentered",
                "untrapped",
            ],
            rows,
        )
        artifacts.append(_artifact(name, "aging-trap", cfg, [0], "one row per block"))
    verdicts["trap_blocks"] = {
        "untrapped_blocks": int(sum(r.untrapped for r in reports)),
        "reentered_blocks": int(sum(r.reentered for r in reports)),
        "blocks": _TRAP_BLOCKS,
        "status": "pass",
    }
    if args.dump_trajectory:
        name, rows_written = _dump_trajectory(env, segment, outdir)
        artifacts.append(_artifact(name, "aging-trap", cfg, [0], f"{rows_written} visit rows"))
    verdicts["_environment"] = _environment_record(env, cfg, start) | {"status": "pass"}
    return verdicts, artifacts


def _self_test_horizon(alpha: float, deepest: float) -> float:
    """Initial horizon making undecided interval checks rare but affordable.

    The sub-threshold drift plus moderate jumps grow the path at rate about
    alpha/(1-alpha) * L^(1-alpha) toward a level L, so a horizon of three
    times L divided by that rate usually passes the level.
    """
    return max(1.0, 3.0 * (1.0 - alpha) / alpha * deepest**alpha)


def _crossing_and_transform(
    alpha: float,
    pairs: list[tuple[float, float]],
    v_grid: tuple[float, ...],
    paths: int,
    master_seed: int,
    threads: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Self-test sampler: per-pair crossing rates and transform moments.

    Returns (crossing sums over paths, exp(-v S(1)) sums, their squares).
    Chunked with a fixed chunk size and per-chunk seeds, so results do not
    depend on the thread count.
    """
    measure = PowerLawLevyMeasure(1.0, alpha)
    cutoff = _SELF_TEST_CUTOFF
    drift_rate = measure.truncated_mean_rate(cutoff)
    deepest = max(t + s for t, s in pairs)
    horizon = _self_test_horizon(alpha, deepest)
    rate = float(measure.tail(cutoff)) * horizon
    family = StreamFamily(master_seed, f"subordinator-selftest-{alpha!r}")
    chunks = (paths + _SELF_TEST_CHUNK - 1) // _SELF_TEST_CHUNK
    v_arr = np.asarray(v_grid, dtype=np.float64)

    def worker(c: int):
        rng = keyed_generator(family.seed_for(c))
        count = min(_SELF_TEST_CHUNK, paths - c * _SELF_TEST_CHUNK)
        jump_counts = rng.poisson(rate, size=count)
        width = max(int(jump_counts.max()), 1)
        times = np.full((count, width), np.inf)
        sizes = np.zeros((count, width))
        mask = np.arange(width)[None, :] < jump_counts[:, None]
        total = int(jump_counts.sum())
        times[mask] = rng.uniform(0.0, horizon, size=total)
        times.sort(axis=1)
        sizes[mask] = measure.jump_sizes(cutoff, rng.uniform(size=total))

        finite = np.isfinite(times)
        totals_at_one = (sizes * (finite & (times <= 1.0))).sum(axis=1) + drift_rate
        weights = np.exp(-np.outer(v_arr, totals_at_one))
        lap_sum = weights.sum(axis=1)
        lap_sumsq = (weights**2).sum(axis=1)

        cross = np.zeros(len(pairs))
        grown: dict[int, object] = {}
        for j, (t, s) in enumerate(pairs):
            flags = crossing_probability_batch(times, sizes, jump_counts, drift_rate, t, s)
            undecided = np.nonzero(flags < 0)[0]
            for row in undecided:
                row = int(row)
                path = grown.get(row)
                if path is None:
                    # rebuild the row's path object once, reusing its draws
                    m = int(jump_counts[row])
                    path = SubordinatorPath(
                        measure=measure,
                        horizon=horizon,
                        cutoff=cutoff,
                        times=times[row, :m].copy(),
                        sizes=sizes[row, :m].copy(),
                    )
                while True:
                    try:
                        flags[row] = crossing_probability(path, t, s)
                        break
                    except HorizonError:
                        path = extend_path(path, 2.0 * path.horizon, rng)
                grown[row] = path
            cross[j] = flags.sum()
        return cross, lap_sum, lap_sumsq

    results = ordered_map(worker, chunks, threads)
    cross = np.sum([r[0] for r in results], axis=0)
    lap_sum = np.sum([r[1] for r in results], axis=0)
    lap_sumsq = np.sum([r[2] for r in results], axis=0)
    return cross, lap_sum, lap_sumsq


def _run_subordinator(cfg: ExperimentConfig, outdir: str, args) -> tuple[dict, list]:
    pairs = [(float(t), float(s)) for t, s in cfg.ts_grid]
    paths = cfg.samples
    threads = cfg.resolved_threads()
    arcsine_rows = []
    laplace_rows = []
    verdicts: dict = {}
    for alpha in _SELF_TEST_ALPHAS:
        cross, lap_sum, lap_sumsq = _crossing_and_transform(
            alpha, pairs, cfg.v_grid, paths, cfg.master_seed, threads
        )
        worst_gap = 0.0
        for (t, s), hits in zip(pairs, cross):
            ratio = t / (t + s)
            empirical = float(hits) / paths
            predicted = arcsine_cdf(alpha, ratio)
            stderr = math.sqrt(max(empirical * (1.0 - empirical), 1e-12) / paths)
            worst_gap = max(worst_gap, abs(empirical - predicted))
            arcsine_rows.append(
                [
                    repr(alpha),
                    repr(t),
                    repr(s),
                    repr(ratio),
                    repr(empirical),
                    repr(predicted),
                    repr(stderr),
                ]
            )
        verdicts[f"arcsine_alpha_{alpha}"] = {
            "max_absolute_gap": worst_gap,
            "tolerance": 0.01,
            "status": ladder(worst_gap, 0.01, 0.02),
        }

        measure = PowerLawLevyMeasure(1.0, alpha)
        drift = measure.truncated_mean_rate(_SELF_TEST_CUTOFF)
        worst_z = 0.0
        for v, total, total_sq in zip(cfg.v_grid, lap_sum, lap_sumsq):
            mean = float(total) / paths
            var = max(float(total_sq) / paths - mean * mean, 0.0)
            se = math.sqrt(var / paths)
            predicted = math.exp(
                -v * drift - truncated_laplace_exponent(measure, _SELF_TEST_CUTOFF, v)
            )
            worst_z = max(worst_z, z_score(mean, predicted, se))
            laplace_rows.append(
                [repr(alpha), repr(float(v)), repr(mean), repr(se), repr(predicted)]
            )
        verdicts[f"transform_alpha_{alpha}"] = {"max_z": worst_z, "status": z_status(worst_z)}

    artifacts = []
    if "csv" in cfg.formats:
        name = _write_csv(
            outdir,
            "subordinator_arcsine.csv",
            ["alpha", "t", "s", "ratio", "empirical", "predicted", "stderr"],
            arcsine_rows,
        )
        artifacts.append(
            _artifact(
                name,
                "subordinator-selftest-<alpha>",
                cfg,
                f"chunk seeds 0..{(paths + _SELF_TEST_CHUNK - 1) // _SELF_TEST_CHUNK - 1}",
                "one row per (alpha, t, s)",
            )
        )
        name = _write_csv(
            outdir,
            "subordinator_laplace.csv",
            ["alpha", "v", "empirical", "stderr", "predicted"],
            laplace_rows,
        )
        artifacts.append(
            _artifact(
                name,
                "subordinator-selftest-<alpha>",
                cfg,
                f"chunk seeds 0..{(paths + _SELF_TEST_CHUNK - 1) // _SELF_TEST_CHUNK - 1}",
                "one row per (alpha, v)",
            )
        )
    return verdicts, artifacts


_DISPATCH = {
    "conditions": _run_conditions,
    "laplace": _run_laplace,
    "clock": _run_clock,
    "aging": _run_aging,
    "mixing": _run_mixing,
    "subordinator": _run_subordinator,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clockproc",
        description="Simulation and verification laboratory for rescaled clock processes",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("conditions", "full condition report for one sampled environment"),
        ("laplace", "transform-based intensity estimate with power-law fit"),
        ("clock", "blocked clock paths vs a sampled pure-jump reference"),
        ("aging", "two-time correlation curve vs the arcsine prediction"),
        ("mixing", "exact aggregation-scale mixing check (small n)"),
        ("subordinator", "sampler self-tests against closed forms"),
    ]:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to the JSON config document")
        sub.add_argument("--seed", type=int, default=None, help="override seeds.master_seed")
        sub.add_argument("--out", default=None, help="override outputs.directory")
        sub.add_argument("--threads", type=int, default=None, help="override the worker count")
        sub.add_argument(
            "--dump-trajectory",
            action="store_true",
            help="also write one trajectory as CSV (clock and aging only)",
        )
        if name in ("clock", "aging"):
            sub.add_argument(
                "--start",
                default=None,
                metavar="HEX",
                help="fixed starting state (hex); non-stationary, for exploration",
            )
        if name == "aging":
            sub.add_argument(
                "--epsilon",
                type=float,
                default=0.25,
                help="overlap tolerance for the correlation event (default 0.25)",
            )
            sub.add_argument(
                "--trap-threshold",
                type=float,
                default=0.5,
                help="dominant-fraction threshold flagging a block as trapped (default 0.5)",
            )
    return parser


def run(command: str, cfg: ExperimentConfig, args) -> int:
    """Execute one subcommand on a validated config; returns the exit code."""
    outdir = cfg.directory
    os.makedirs(outdir, exist_ok=True)
    verdicts, artifacts = _DISPATCH[command](cfg, outdir, args)
    overall = worst(entry.get("status", "pass") for entry in verdicts.values())
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "versions": {
            "clockproc": _package_version(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "artifacts": artifacts,
        "verdicts": verdicts,
        "overall": overall,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(plain(manifest), fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name in sorted(verdicts):
        if name.startswith("_"):
            continue
        print(f"{name}: {verdicts[name].get('status', 'pass')}")
    print(f"overall: {overall}")
    return _EXIT_CODE[overall]


def _package_version() -> str:
    from . import __version__

    return __version__


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not hasattr(args, "start"):
        args.start = None
    try:
        cfg = ExperimentConfig.load(args.config)
        changes = {}
        if args.seed is not None:
            changes["master_seed"] = args.seed
        if args.out is not None:
            changes["directory"] = args.out
        if args.threads is not None:
            changes["threads"] = args.threads
        if changes:
            cfg = cfg.replace(**changes)
        cfg.validate()
        return run(args.command, cfg, args)
    except ClockprocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
