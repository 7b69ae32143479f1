"""Command-line harness: configuration, orchestration, tabular output.

Usage::

    clockproc <subcommand> --config path.json [--seed N] [--out dir]
              [--threads K] [--dump-trajectory] [--start HEX]

``--dump-trajectory`` and ``--start`` belong to ``clock`` and ``aging`` only.

Subcommands:

``conditions``
    Full per-environment condition report (tail intensity, transform
    intensity, correlated squares, starting-hold survival, truncated means)
    with verdicts; at beta = 0 every estimator is also cross-checked against
    its closed form.
``laplace``
    The transform-based intensity estimator alone, with the power-law fit.
``clock``
    Block-aggregated clock paths over independent walks; the block increments
    above a threshold u are compared with the exact jump law of the stable
    limit, P(X/u > x) = x^(-alpha) (one-sample Kolmogorov-Smirnov).
``aging``
    Two-time correlation curve next to the arcsine prediction and the flat
    (beta = 0) chain's curve in closed form, plus the trap diagnostics of
    every block of one trajectory, read in one call.
``mixing``
    Exact aggregation-scale mixing check (Hamming-distance chain; any n).
``subordinator``
    Sampler self-tests: interval-avoidance probabilities against the arcsine
    law and the horizon-marginal transform against quadrature.  The sampler
    is :func:`clockproc.subordinator.self_test`; this module grades its sums.

One table, ``_COMMANDS``, names each subcommand's runner, whether it samples
an environment, and its help text.  Every runner has one shape,
``(env, cfg, args) -> (verdicts, outputs, record)``: :func:`run` builds the
environment once, from the config's coupling seed (``None`` for ``mixing``
and ``subordinator``), and hands it in.  A runner computes and grades its
own verdicts through :mod:`clockproc.verdicts`; it returns them, the files it
offers, each with a writer and its stream provenance, and its run record
(the environment's derived scales, the start distribution and the run's
settings; ``None`` where no environment is sampled).  :func:`run` writes
every offered file, each by its own writer, in the runner's order, then
``manifest.json`` (resolved config, package versions, stream provenance for
each written file, verdicts, run record).  A warning of
:meth:`Environment.create` goes to stderr as one line, ``warning:
<message>``.  Exit code: 0 when every verdict passes, 2 when the worst
verdict is a warning, 3 when one fails, 1 on execution, configuration or
usage errors.

All randomness is derived from the config's master seed through tagged
streams, and reductions happen in replica order, so outputs are
byte-identical across reruns and thread counts.

Every special function comes from :mod:`~clockproc.special`, which loads
mpmath only at the first incomplete beta, incomplete gamma or digamma, so
importing this module, ``--help``, ``mixing`` and a refused config never
load it.  The manifest reads the mpmath version from the installed
package's metadata, not from the module.
"""

from __future__ import annotations

import argparse
import csv
import math
import json
import os
import platform
import sys
import warnings
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__, special
from .aging import estimate_aging_curve, flat_aging_curve, trap_localization_diagnostic
from .chain import TrajectorySegment, blocked_clocks, map_replicas, mixing_check, simulate_segment
from .conditions import (
    TRUNCATED_TERM_BOUND, ConditionReport, LaplaceIntensityEstimate, SquaredTailEstimate,
    build_condition_report, degenerate_block_laplace, degenerate_block_tail,
    degenerate_initial_term, estimate_intensity_laplace, plain, resolve_block_count,
)
from .config import ExperimentConfig
from .environment import HORIZON, Environment, SpinConfig, block_length
from .errors import ClockprocError, ParameterValidationError
from .seeding import StreamFamily, resolve_seeds
from .subordinator import arcsine_cdf, self_test
from .verdicts import MIN_ESS, ladder, slope_verdict, verdict, worst, z_verdict

__all__ = ["main", "run"]

_EXIT_CODE = {"pass": 0, "warn": 2, "fail": 3}

_TRAJECTORY_ROW_CAP = 1_000_000
_TRAP_BLOCKS = 8


class _Output(NamedTuple):
    """A file a runner offers: ``write(path)`` writes it, and the rest is its
    provenance record (which streams produced which of its rows, and a note
    on what a row is)."""

    name: str
    write: Callable[[str], None]
    purpose: str
    replicas: list | str
    note: str


# a runner's verdicts, the outputs it offers and its run record
_Result = tuple[dict, list[_Output], dict | None]


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _table(
    name: str, header: list[str], rows: Iterable[list], purpose: str, replicas, note: str
) -> _Output:
    """A plain CSV table, its rows streamed into the file as it is written."""
    return _Output(name, lambda path: _write_csv(path, header, rows), purpose, replicas, note)


def _environment_record(env: Environment, start: SpinConfig | None) -> dict:
    return {
        "coupling_seed": env.couplings.seed,
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


def _trajectory(env: Environment, segment: TrajectorySegment, purpose: str) -> _Output:
    rows = min(len(segment.states), _TRAJECTORY_ROW_CAP)
    with np.errstate(over="ignore"):
        taus = np.exp(env.beta * segment.energies[:rows])
    table = (
        [
            i,
            format(int(segment.states[i]), "x"),
            repr(float(segment.energies[i])),
            repr(float(taus[i])),
            repr(float(segment.exp_draws[i])),
            repr(float(segment.increments[i])),
        ]
        for i in range(rows)
    )
    header = ["step", "state_hex", "H", "tau", "exp_draw", "increment"]
    return _table("trajectory.csv", header, table, purpose, [0], f"{rows} visit rows")


# ---------------------------------------------------------------------------
# subcommands: each runner takes the environment ``run`` built and computes
# its verdicts, the outputs it offers and its run record; ``run`` writes
# them


def _closed_form_check(pairs) -> dict:
    """Verdict on (estimate, closed form) pairs that must agree to rounding:
    the largest relative error passes up to 1e-12 and fails above."""
    rel = 0.0
    for value, oracle in pairs:
        rel = max(rel, abs(value - oracle) / (abs(oracle) if oracle != 0 else 1.0))
    return verdict(ladder(rel, 1e-12, 1e-12), max_relative_error=rel)


def _floored_z(rows) -> dict:
    """z verdict of Monte Carlo state averages against their exact values, from
    rows (estimate, stderr, samples, exact value, bound) of per-state terms in
    [0, bound].  Their variance is at most (bound - mean) * mean (Bhatia &
    Davis, Amer. Math. Monthly 2000); that floors the yardstick where the
    sample variance collapses on rare states."""
    return z_verdict(
        (value, exact, max(stderr, math.sqrt((bound - exact) * exact / samples)))
        for value, stderr, samples, exact, bound in rows
    )


def _squared_tail_verdict(
    two_step: list[SquaredTailEstimate], split: list[SquaredTailEstimate]
) -> dict:
    """The routes' largest disagreement in z units over the thresholds where
    either route has a joint exceedance; a threshold where neither has one
    agrees on no evidence and adds no z.  With no exceedance at any
    threshold there is nothing to grade, and the verdict warns."""
    seen = [(a, b) for a, b in zip(two_step, split) if a.value > 0 or b.value > 0]
    note = None if seen else "no joint exceedance in either route at any threshold"
    triples = [(a.value, b.value, math.hypot(a.stderr, b.stderr)) for a, b in seen]
    return z_verdict(triples, note)


def _laplace_verdicts(env: Environment, est: LaplaceIntensityEstimate, **evidence) -> dict:
    """The transform intensity's slope against alpha - 1, ``evidence``
    recorded beside its deviation, and at beta = 0 its values against the
    closed form, which the estimator reproduces to rounding because it
    integrates the (unit) waiting times out exactly."""
    verdicts = {}
    if env.alpha is not None:
        note = "no transform fit: fewer than two arguments have a positive estimate and stderr"
        note = note if math.isnan(est.slope) else None
        verdicts["laplace_slope"] = slope_verdict(
            est.slope, env.alpha - 1.0, est.slope_se, note, **evidence
        )
    if env.beta == 0.0:
        verdicts["degenerate_laplace"] = _closed_form_check(
            (value, est.block_count * (1.0 - degenerate_block_laplace(env, v)) / v)
            for v, value in zip(est.v_values, est.values)
        )
    return verdicts


def _condition_verdicts(env: Environment, report: ConditionReport) -> dict:
    """The verdicts on a condition report.

    Statistical agreement (the two correlated-square routes, Monte Carlo
    state averages against their exact values, estimates against the beta = 0
    closed forms) is graded in z-score units.  The two tail-exponent fits are
    graded against an absolute window around the parameter value instead:
    at finite n the fitted exponent deviates systematically, not
    statistically, so a z-test against the limit value would reject at any
    sufficiently large sample size.  At beta = 0 every estimator is
    cross-checked against its closed form.
    """
    intensity, k = report.intensity, report.block_count
    squared_a, squared_b = report.squared_two_step, report.squared_split
    verdicts = _laplace_verdicts(env, report.laplace_intensity)
    if env.alpha is not None:
        note = "no tail fit: fewer than two thresholds have hit rates strictly inside (0, 1)"
        note = note if math.isnan(intensity.slope) else None
        verdicts["intensity_slope"] = slope_verdict(
            intensity.slope, -env.alpha, intensity.slope_se, note
        )
    verdicts["squared_tail_routes"] = _squared_tail_verdict(squared_a, squared_b)
    if env.has_energy_table:
        verdicts["initial_term"] = _floored_z(
            (est.value, est.stderr, est.samples, est.exact_value, 1.0)
            for est in report.initial_terms
        )
    if report.truncated_means and env.has_energy_table:
        scale = env.step_scale * HORIZON * TRUNCATED_TERM_BOUND
        verdicts["truncated_mean"] = _floored_z(
            (tm.mc_value, tm.mc_stderr, tm.samples, tm.exact_value, scale * tm.epsilon)
            for tm in report.truncated_means
        )
    if env.beta == 0.0:
        tails = [degenerate_block_tail(env, u) for u in intensity.thresholds]
        verdicts["degenerate_tail"] = z_verdict(
            (value, k * q, max(se, k * math.sqrt(q * (1.0 - q) / intensity.samples)))
            for q, value, se in zip(tails, intensity.values, intensity.stderrs)
        )
        # the squared-tail routes share the intensity's thresholds
        joint = [q * q for q in tails]
        verdicts["degenerate_squared"] = z_verdict(
            (est.value, k * q2, max(est.stderr, k * math.sqrt(q2 * (1.0 - q2) / est.samples)))
            for q2, ea, eb in zip(joint, squared_a, squared_b)
            for est in (ea, eb)
        )
        verdicts["degenerate_initial"] = _closed_form_check(
            (est.value, degenerate_initial_term(env, est.v)) for est in report.initial_terms
        )
    return verdicts


def _run_conditions(env: Environment, cfg: ExperimentConfig, args) -> _Result:
    streams = StreamFamily(cfg.master_seed, "conditions").replica(0)
    report = build_condition_report(
        env, cfg.u_grid, cfg.v_grid, cfg.eps_grid, streams, samples=cfg.samples,
        block_count=cfg.block_count, threads=cfg.resolved_threads(),
    )
    verdicts = _condition_verdicts(env, report)
    overall = worst(entry["status"] for entry in verdicts.values())
    write_json = lambda path: report.write_json(path, verdicts=verdicts, overall=overall)
    outputs = [
        _Output("conditions.csv", report.write_csv, "conditions", [0], "one row per grid point"),
        _Output("conditions.json", write_json, "conditions", [0], "full report"),
    ]
    counts = {"block_count": report.block_count, "literal_block_count": report.literal_block_count}
    return verdicts, outputs, _environment_record(env, None) | counts


def _run_laplace(env: Environment, cfg: ExperimentConfig, args) -> _Result:
    streams = StreamFamily(cfg.master_seed, "laplace").replica(0)
    k = resolve_block_count(env, cfg.block_count)
    est = estimate_intensity_laplace(
        env, k, cfg.v_grid, cfg.samples, streams, threads=cfg.resolved_threads()
    )
    rows = (
        [repr(v), repr(val), repr(se), est.samples]
        for v, val, se in zip(est.v_values, est.values, est.stderrs)
    )
    header = ["v", "estimate", "stderr", "samples"]
    outputs = [_table("laplace.csv", header, rows, "laplace", [0], "one row per transform argument")]
    verdicts = _laplace_verdicts(
        env, est, slope=est.slope, slope_se=est.slope_se,
        fitted_alpha=est.fitted_alpha, fitted_alpha_se=est.fitted_alpha_se,
        fitted_amplitude=est.fitted_amplitude, fitted_amplitude_se=est.fitted_amplitude_se,
    )
    return verdicts, outputs, _environment_record(env, None) | {"block_count": k}


def _run_mixing(env: None, cfg: ExperimentConfig, args) -> _Result:
    theta = block_length(cfg.n)
    report = mixing_check(cfg.n, theta)
    rows = [[report.n, report.theta, repr(report.max_violation), repr(report.bound),
             report.passed, repr(report.rho_implied)]]
    header = ["n", "theta", "max_violation", "bound", "passed", "rho_implied"]
    outputs = [_table("mixing.csv", header, rows, "mixing (exact, no streams)", [], "single row")]
    status = "pass" if report.passed else "fail"
    evidence = {"max_violation": report.max_violation, "bound": report.bound}
    return {"mixing_bound": verdict(status, **evidence)}, outputs, None


def _run_clock(env: Environment, cfg: ExperimentConfig, args) -> _Result:
    if env.alpha is None:
        raise ParameterValidationError(
            "the jump-law comparison needs beta > 0; the beta = 0 chain has no "
            "power-law clock limit"
        )
    k = resolve_block_count(env, cfg.block_count)
    theta = env.block_length
    start = _parse_start(cfg, args.start)
    family = StreamFamily(cfg.master_seed, "clock")
    blocks = map_replicas(
        env, k * theta, family, cfg.replicas, cfg.resolved_threads(),
        lambda streams: blocked_clocks(env, start, k, streams),
    )
    # (replicas, k) block sums and (replicas,) initial terms, in replica order
    sums, initial = (np.concatenate(parts) for parts in zip(*blocks))
    replicas = f"0..{cfg.replicas - 1}"

    def clock_rows():
        for i, row in enumerate(sums):
            cumulative = np.cumsum(row)
            for j in range(k):
                yield [i, j, repr(float(row[j])), repr(float(cumulative[j]))]

    initial_rows = ([i, repr(float(term))] for i, term in enumerate(initial))
    outputs = [
        _table("clock.csv", ["replica", "block_index", "increment", "cumulative"], clock_rows(),
               "clock", replicas, "k rows per replica"),
        _table("clock_initial_terms.csv", ["replica", "initial_term"], initial_rows, "clock",
               replicas, "one row per replica"),
    ]

    pooled = sums.reshape(-1)
    threshold = cfg.u_grid[0]
    exceed = np.sort(pooled[pooled > threshold])
    verdicts: dict = {}
    if exceed.size < 10:
        verdicts["clock_jump_law"] = verdict(
            "pass",  # nothing is graded, and the note makes that a warning
            f"only {exceed.size} block increments exceeded u={threshold}; "
            "not enough for a distribution comparison",
            empirical_jumps=exceed.size,
            threshold=threshold,
        )
    else:
        # one-sample KS against the exact conditional tail P(X/u > x) = x^-alpha;
        # twice the one-sided Smirnov tail bounds the two-sided p from above and
        # is exact to 1e-7 relative wherever p <= 1e-2, which holds both ladder
        # thresholds
        x = exceed / threshold
        n = x.size
        cdf = -np.expm1(-env.alpha * np.log(x))
        i = np.arange(1, n + 1)
        statistic = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
        p_value = min(1.0, 2.0 * special.smirnov(n, statistic))
        verdicts["clock_jump_law"] = verdict(
            ladder(-p_value, -1e-3, -1e-6),  # pass at p >= 1e-3
            statistic=statistic,
            p_value=p_value,
            empirical_jumps=n,
            threshold=threshold,
        )
        jump_rows = ([repr(float(size)), repr(float(y))] for size, y in zip(exceed, x))
        outputs.append(_table("clock_jumps.csv", ["size", "normalized"], jump_rows, "clock",
                              replicas, "pooled block increments above the threshold"))
    if args.dump_trajectory:
        segment = simulate_segment(env, start, k * theta, family.replica(0))
        outputs.append(_trajectory(env, segment, "clock"))
    return verdicts, outputs, _environment_record(env, start) | {"block_count": k}


def _run_aging(env: Environment, cfg: ExperimentConfig, args) -> _Result:
    start = _parse_start(cfg, args.start)
    # per-block localisation diagnostics on one dedicated trajectory, graded
    # before the Monte Carlo curve so that they refuse a bad threshold first
    trap_streams = StreamFamily(cfg.master_seed, "aging-trap").replica(0)
    segment = simulate_segment(env, start, _TRAP_BLOCKS * env.block_length, trap_streams)
    reports = trap_localization_diagnostic(env, segment, args.epsilon, args.trap_threshold)
    main_curve = estimate_aging_curve(
        env,
        cfg.ts_grid,
        args.epsilon,
        cfg.replicas,
        resolve_seeds(cfg.master_seed, "aging-main", 0),
        step_cap=cfg.step_cap,
        threads=cfg.resolved_threads(),
        start=start,
    )
    reference_curve = flat_aging_curve(cfg.n, cfg.ts_grid, args.epsilon, env.alpha)
    replicas = f"0..{cfg.replicas - 1}"
    outputs = [
        _Output("aging.csv", main_curve.write_csv, "aging-main", replicas, "one row per (t, s)"),
        _Output(
            "aging_reference.csv",
            reference_curve.write_csv,
            "closed form, no streams",
            [],
            "one row per (t, s), flat (beta = 0) chain on the decorrelation scale",
        ),
    ]

    main_gap = main_curve.max_absolute_gap
    reference_gap = reference_curve.max_absolute_gap
    verdicts = {
        "aging_order": verdict(
            # a NaN gap (every replica censored) compares False, so it warns
            "pass" if main_gap <= reference_gap else "warn",
            main_sup_gap=main_gap,
            reference_sup_gap=reference_gap,
            censored_main=int(sum(main_curve.censored)),
        )
    }

    rows = (
        [r.block_index, format(r.dominant_state, "x"), repr(r.dominant_fraction),
         repr(r.ball_time_fraction), r.reentered, r.untrapped]
        for r in reports
    )
    header = ["block_index", "dominant_state_hex", "dominant_fraction", "ball_time_fraction",
              "reentered", "untrapped"]
    outputs.append(_table("traps.csv", header, rows, "aging-trap", [0], "one row per block"))
    if args.dump_trajectory:
        outputs.append(_trajectory(env, segment, "aging-trap"))
    record = {"epsilon": args.epsilon, "trap_threshold": args.trap_threshold}
    return verdicts, outputs, _environment_record(env, start) | record


def _run_subordinator(env: None, cfg: ExperimentConfig, args) -> _Result:
    pairs = [(float(t), float(s)) for t, s in cfg.ts_grid]
    paths = cfg.samples
    arcsine_rows = []
    laplace_rows = []
    verdicts: dict = {}
    results = self_test(pairs, cfg.v_grid, paths, cfg.master_seed, cfg.resolved_threads())
    for result in results:
        alpha = result.alpha
        worst_gap = 0.0
        triples = []
        for (t, s), hits in zip(pairs, result.crossings):
            ratio = t / (t + s)
            empirical = float(hits) / paths
            predicted = arcsine_cdf(alpha, ratio)
            # binomial spread of the crossing frequency under the prediction
            stderr = math.sqrt(predicted * (1.0 - predicted) / paths)
            worst_gap = max(worst_gap, abs(empirical - predicted))
            triples.append((empirical, predicted, stderr))
            row = (alpha, t, s, ratio, empirical, predicted, stderr)
            arcsine_rows.append([repr(x) for x in row])
        verdicts[f"arcsine_alpha_{alpha}"] = z_verdict(triples, max_absolute_gap=worst_gap)

        triples, insufficient = [], []
        columns = (result.transform_mean, result.transform_stderr, result.transform_predicted)
        for v, mean, se, predicted, ess in zip(cfg.v_grid, *columns, result.transform_ess):
            if ess < MIN_ESS:
                insufficient.append({"v": float(v), "expected_ess": ess})
            else:
                triples.append((mean, predicted, se))
            laplace_rows.append([repr(x) for x in (alpha, float(v), mean, se, predicted)])
        note, evidence = None, {}
        if insufficient:
            listed = ", ".join(f"v={x['v']!r} ({x['expected_ess']:.2g})" for x in insufficient)
            note = f"expected effective sample size below {MIN_ESS:g} at {listed}"
            evidence["insufficient"] = insufficient
        verdicts[f"transform_alpha_{alpha}"] = z_verdict(triples, note, **evidence)

    seeds = f"chunk seeds 0..{results[0].chunks - 1}"
    purpose = "subordinator-selftest-<alpha>"
    outputs = [
        _table(
            "subordinator_arcsine.csv",
            ["alpha", "t", "s", "ratio", "empirical", "predicted", "stderr"],
            arcsine_rows,
            purpose,
            seeds,
            "one row per (alpha, t, s)",
        ),
        _table(
            "subordinator_laplace.csv",
            ["alpha", "v", "empirical", "stderr", "predicted"],
            laplace_rows,
            purpose,
            seeds,
            "one row per (alpha, v)",
        ),
    ]
    return verdicts, outputs, None


# subcommand -> (runner, whether it samples an environment, help text)
_COMMANDS = {
    "conditions": (_run_conditions, True, "full condition report for one sampled environment"),
    "laplace": (_run_laplace, True, "transform-based intensity estimate with power-law fit"),
    "clock": (_run_clock, True, "blocked clock paths vs the exact power-law jump tail"),
    "aging": (_run_aging, True, "two-time correlation curve vs the arcsine prediction"),
    "mixing": (_run_mixing, False, "exact aggregation-scale mixing check"),
    "subordinator": (_run_subordinator, False, "sampler self-tests against closed forms"),
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, subparsers too: argparse's 2 means a warned run here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clockproc",
        description="Simulation and verification laboratory for rescaled clock processes",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to the JSON config document")
        sub.add_argument("--seed", type=int, default=None, help="override seeds.master_seed")
        sub.add_argument("--out", default=None, help="override outputs.directory")
        sub.add_argument("--threads", type=int, default=None, help="override the worker count")
        if name in ("clock", "aging"):
            sub.add_argument(
                "--dump-trajectory",
                action="store_true",
                help="also write one trajectory as CSV",
            )
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
    """Execute one subcommand on a validated config; returns the exit code.

    This builds the environment the runner samples, from the config's
    coupling seed, through :meth:`Environment.create` whatever the model
    (the flat beta = 0 chain too).  The runner computes; this writes every
    output it offers, in the runner's order, and records its provenance.
    """
    outdir = cfg.directory
    os.makedirs(outdir, exist_ok=True)
    runner, sampled, _ = _COMMANDS[command]
    env = None
    if sampled:
        seed = resolve_seeds(cfg.master_seed, "environment", 0)
        with warnings.catch_warnings(record=True) as caught:
            env = Environment.create(cfg.n, cfg.p, cfg.beta, cfg.gamma, seed, cfg.zeta_table)
        for caught_warning in caught:
            print(f"warning: {caught_warning.message}", file=sys.stderr)
    verdicts, outputs, record = runner(env, cfg, args)
    artifacts = []
    for output in outputs:
        output.write(os.path.join(outdir, output.name))
        artifacts.append(
            {
                "file": output.name,
                "master_seed": cfg.master_seed,
                "stream_purpose": output.purpose,
                "replica_indices": output.replicas,
                "rows": output.note,
            }
        )
    overall = worst(entry["status"] for entry in verdicts.values())
    from importlib import metadata
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "versions": {
            "clockproc": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": metadata.version("mpmath"),
        },
        "artifacts": artifacts,
        "verdicts": verdicts,
        "overall": overall,
        "run": record,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(plain(manifest), fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name in sorted(verdicts):
        print(f"{name}: {verdicts[name]['status']}")
    print(f"overall: {overall}")
    return _EXIT_CODE[overall]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        overrides = {"master_seed": args.seed, "directory": args.out, "threads": args.threads}
        changes = {key: value for key, value in overrides.items() if value is not None}
        if changes:
            cfg = cfg.replace(**changes)
        return run(args.command, cfg, args)
    except (ClockprocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
