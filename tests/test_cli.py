"""End-to-end checks of the command-line driver.

Every test builds a small JSON config in tmp_path and invokes ``main`` with an
explicit argv, so the suite never touches the working directory or real output
locations.  One test goes through ``python -m`` to cover the installed entry
point.
"""

import argparse
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from clockproc import chain, cli
from clockproc.chain import mixing_check
from clockproc.conditions import SquaredTailEstimate, plain
from clockproc.environment import Environment, block_length
from clockproc.cli import _build_parser, main
from clockproc.config import ExperimentConfig
from clockproc.seeding import resolve_seeds
from clockproc.verdicts import worst

pytestmark = pytest.mark.filterwarnings("ignore:block length")


def write_config(path, **kw):
    doc = {
        "model": {
            "n": kw.get("n", 6),
            "p": 3,
            "beta": kw.get("beta", 0.0),
            "gamma": kw.get("gamma", 0.5),
        },
        "seeds": {"master_seed": kw.get("master_seed", 11)},
        "budgets": {
            "samples": kw.get("samples", 2000),
            "replicas": kw.get("replicas", 4),
            "step_cap": kw.get("step_cap", 200_000),
        },
        "grids": {
            "u_grid": kw.get("u_grid", [1.7, 1.9, 2.1, 2.3]),
            "v_grid": kw.get("v_grid", [0.1, 1.0, 10.0]),
            "eps_grid": [0.05, 0.1],
            "ts_grid": kw.get("ts_grid", [[1.0, 1.0]]),
        },
        "outputs": {"directory": "results"},
        "overrides": {"block_count": kw.get("block_count")},
    }
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def load_manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


def test_mixing_run_writes_manifest_and_matches_direct_check(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", n=6)
    outdir = tmp_path / "out"
    code = main(["mixing", "--config", str(cfg_path), "--out", str(outdir)])
    assert code == 0

    out = capsys.readouterr().out
    assert "mixing_bound: pass" in out
    assert out.strip().endswith("overall: pass")

    rows = read_rows(outdir / "mixing.csv")
    assert rows[0] == ["n", "theta", "max_violation", "bound", "passed", "rho_implied"]
    assert len(rows) == 2
    report = mixing_check(6, block_length(6))
    assert int(rows[1][0]) == 6
    assert int(rows[1][1]) == report.theta
    assert float(rows[1][2]) == report.max_violation
    assert float(rows[1][3]) == report.bound

    manifest = load_manifest(outdir)
    assert manifest["command"] == "mixing"
    assert manifest["overall"] == "pass"
    assert manifest["verdicts"]["mixing_bound"]["status"] == "pass"
    for key in ("clockproc", "python", "numpy", "mpmath"):
        assert key in manifest["versions"]
    # the recorded config must be a loadable document equivalent to the input
    rebuilt = ExperimentConfig.from_dict(manifest["config"])
    assert rebuilt.n == 6
    assert rebuilt.master_seed == 11
    assert rebuilt.directory == str(outdir)


def test_mixing_passes_on_default_config(tmp_path, capsys):
    """The shipped defaults (n = 14) run to a passing exact mixing verdict."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    outdir = tmp_path / "out"
    assert main(["mixing", "--config", str(cfg_path), "--out", str(outdir)]) == 0
    assert "mixing_bound: pass" in capsys.readouterr().out
    rows = read_rows(outdir / "mixing.csv")
    assert rows[1][:2] == ["14", str(block_length(14))]


def test_clock_with_zero_blocks_is_an_error(tmp_path, capsys):
    # a unit horizon holds fewer jumps than one block of length 38 at n = 6
    cfg_path = write_config(tmp_path / "cfg.json", beta=3.0, gamma=0.5)
    assert main(["clock", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "horizon t=1.0 yields zero complete aggregation blocks at n=6" in err


def test_conditions_at_beta_zero_needs_an_explicit_block_count(tmp_path, capsys):
    # the flat chain has no jump-count scale, so no block count of its own
    cfg_path = write_config(tmp_path / "cfg.json")
    assert main(["conditions", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "jump-count scale is undefined or infinite" in err


def test_conditions_degenerate_environment_passes_cleanly(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", block_count=5)
    outdir = tmp_path / "out"
    code = main(["conditions", "--config", str(cfg_path), "--out", str(outdir)])
    assert code == 0

    manifest = load_manifest(outdir)
    assert manifest["overall"] == "pass"
    for key in ("degenerate_tail", "degenerate_laplace", "degenerate_initial"):
        assert manifest["verdicts"][key]["status"] == "pass"
    env_record = manifest["run"]
    assert env_record["alpha"] is None
    assert env_record["block_count"] == 5
    files = [a["file"] for a in manifest["artifacts"]]
    assert "conditions.csv" in files and "conditions.json" in files
    for name in files:
        assert (outdir / name).exists()

    # a verdict-bearing exit code always mirrors the manifest
    assert code == {"pass": 0, "warn": 2, "fail": 3}[manifest["overall"]]


def test_conditions_runs_to_a_verdict_below_the_quadrature_budget(tmp_path):
    """At beta*sqrt(n) = 4e-4, below the smallest the annealed quadrature
    accepts, the run still grades the quenched truncated mean against its
    exact value and only leaves the quadrature rows out."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"n": 4, "beta": 0.0002, "gamma": 2e-8},
        "budgets": {"samples": 2000},
        "grids": {"u_grid": [14.0, 17.0, 20.0]},
        "overrides": {"block_count": 3},
    }))
    outdir = tmp_path / "out"
    code = main(["conditions", "--config", str(cfg_path), "--out", str(outdir)])
    assert code in (0, 2, 3)
    assert "truncated_mean" in load_manifest(outdir)["verdicts"]
    quantities = [row[0] for row in read_rows(outdir / "conditions.csv")]
    assert "truncated_mean_exact" in quantities
    assert "truncated_mean_quadrature" not in quantities
    report = json.loads((outdir / "conditions.json").read_text())
    assert all(tm["quadrature_value"] is None for tm in report["truncated_means"])


def test_conditions_runs_to_a_verdict_at_one_sample(tmp_path):
    """The config accepts one sample, and so does every estimator: the run
    ends with a verdict (stderrs of 0.0 meet the floored yardstick), not
    with a refusal after the other estimators have run."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"n": 8}, "budgets": {"samples": 1}}))
    outdir = tmp_path / "out"
    code = main(["conditions", "--config", str(cfg_path), "--out", str(outdir)])
    assert code in (0, 2, 3)
    assert "truncated_mean" in load_manifest(outdir)["verdicts"]


def test_conditions_reruns_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", block_count=5)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["conditions", "--config", str(cfg_path), "--out", str(first)]) == 0
    assert main(["conditions", "--config", str(cfg_path), "--out", str(second)]) == 0
    assert (first / "conditions.csv").read_bytes() == (second / "conditions.csv").read_bytes()
    assert (first / "conditions.json").read_bytes() == (second / "conditions.json").read_bytes()


def test_conditions_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", block_count=5)
    base, other = tmp_path / "a", tmp_path / "b"
    main(["conditions", "--config", str(cfg_path), "--out", str(base)])
    main(["conditions", "--config", str(cfg_path), "--out", str(other), "--seed", "999"])
    assert (base / "conditions.csv").read_bytes() != (other / "conditions.csv").read_bytes()
    assert load_manifest(other)["config"]["seeds"]["master_seed"] == 999


@pytest.mark.parametrize("command", ["conditions", "laplace"])
def test_conditions_and_laplace_outputs_do_not_depend_on_thread_count(command, tmp_path):
    """At n = 10 a block holds 104 states, so a row block of 2^16 states
    holds 630 blocks and each estimate of 2,000 samples walks four row
    blocks; above one thread the next is drawn on a helper thread."""
    cfg_path = write_config(
        tmp_path / "cfg.json", n=10, beta=3.0, gamma=2.7, samples=2000, block_count=5
    )
    codes, outputs = set(), []
    for threads in ("1", "2", "3"):
        outdir = tmp_path / threads
        argv = [command, "--config", str(cfg_path), "--out", str(outdir), "--threads", threads]
        codes.add(main(argv))
        names = sorted(path.name for path in outdir.iterdir() if path.name != "manifest.json")
        outputs.append({name: (outdir / name).read_bytes() for name in names})
    assert len(codes) == 1 and codes <= {0, 2, 3}
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


def squared_rows(route, values, stderrs):
    return [
        SquaredTailEstimate(float(u), value, se, 4000, 3, route)
        for u, value, se in zip([0.5, 1.0, 2.0], values, stderrs)
    ]


def test_squared_tail_verdict_warns_without_a_joint_exceedance():
    """0 +- 0 on both routes at every threshold is no evidence, not a pass."""
    empty = [squared_rows(route, [0.0] * 3, [0.0] * 3) for route in ("two-step", "split")]
    verdict = cli._squared_tail_verdict(*empty)
    assert verdict["status"] == "warn" and verdict["z"] == 0.0
    assert "no joint exceedance" in verdict["note"]


def test_squared_tail_verdict_skips_thresholds_without_a_hit():
    """Only thresholds where either route hits add a z; one route's lone hit
    is graded against the other's zero."""
    a = squared_rows("two-step", [0.3, 0.0, 0.0], [0.01, 0.0, 0.0])
    b = squared_rows("split", [0.32, 0.0, 0.0], [0.01, 0.0, 0.0])
    verdict = cli._squared_tail_verdict(a, b)
    assert verdict == {"z": pytest.approx(0.02 / math.hypot(0.01, 0.01)), "status": "pass"}
    b = squared_rows("split", [0.32, 0.0, 0.005], [0.01, 0.0, 0.001])
    verdict = cli._squared_tail_verdict(a, b)
    assert verdict == {"z": pytest.approx(5.0), "status": "warn"}


def graded_report(verdicts, outputs, tmp_path):
    """The ``conditions.json`` a conditions runner offers, written and read
    back; it carries the runner's verdicts and their worst status."""
    (output,) = [o for o in outputs if o.name == "conditions.json"]
    output.write(tmp_path / output.name)
    report = json.loads((tmp_path / output.name).read_text())
    assert report["verdicts"] == json.loads(json.dumps(plain(verdicts)))
    assert report["overall"] == worst(entry["status"] for entry in verdicts.values())
    return report


def test_condition_verdicts_beta_zero_all_closed_forms_pass(tmp_path):
    """At beta = 0 the conditions runner cross-checks every estimator against
    its closed form; no tail exponent and no jump-count scale exist there."""
    cfg_path = write_config(tmp_path / "cfg.json", v_grid=[0.5, 1.0], block_count=8)
    env = Environment.create(6, 3, 0.0, 0.5, 0)
    verdicts, outputs, _ = cli._run_conditions(env, ExperimentConfig.load(cfg_path))
    for key in ("degenerate_tail", "degenerate_squared", "degenerate_laplace",
                "degenerate_initial", "initial_term", "squared_tail_routes"):
        assert key in verdicts, key
    assert verdicts["degenerate_laplace"]["max_relative_error"] < 1e-12
    assert verdicts["degenerate_initial"]["max_relative_error"] < 1e-12
    assert "intensity_slope" not in verdicts
    assert "truncated_mean" not in verdicts
    report = graded_report(verdicts, outputs, tmp_path)
    assert report["truncated_means"] == []
    assert report["overall"] in ("pass", "warn")


def test_condition_verdicts_grade_every_estimate_of_a_sampled_environment(tmp_path):
    cfg_path = clock_config(tmp_path / "cfg.json", u_grid=[0.25, 0.5, 1.0, 2.0],
                            v_grid=[0.3, 1.0, 3.0], samples=3000)
    cfg = ExperimentConfig.load(cfg_path)
    verdicts, outputs, record = cli._run_conditions(
        Environment.create(8, 3, 3.0, 2.7, seed=5), cfg
    )
    assert set(verdicts) == {"intensity_slope", "laplace_slope", "squared_tail_routes",
                             "initial_term", "truncated_mean"}
    # the slope verdict of ``conditions`` records no fit evidence beyond its
    # deviation; ``laplace`` passes the fit's fields through the same grader
    assert set(verdicts["laplace_slope"]) == {"deviation", "tolerance", "status"}
    assert graded_report(verdicts, outputs, tmp_path)["overall"] in ("pass", "warn", "fail")
    assert record["block_count"] == record["literal_block_count"]


def test_runners_sweep_environments_in_process(tmp_path):
    """Building each master seed's environment the way ``run`` does and
    calling the runners on it in one process gives the verdicts and run
    record that a ``--seed`` run writes into its manifest."""
    cfg_path = clock_config(tmp_path / "cfg.json", samples=1000)
    runners = {"conditions": cli._run_conditions, "clock": cli._run_clock, "aging": cli._run_aging}
    for seed in (3, 8):
        cfg = ExperimentConfig.load(cfg_path).replace(master_seed=seed)
        env = Environment.create(
            cfg.n, cfg.p, cfg.beta, cfg.gamma, resolve_seeds(seed, "environment", 0),
            zeta_table=cfg.zeta_table,
        )
        for command, runner in runners.items():
            outdir = tmp_path / f"{command}-{seed}"
            main([command, "--config", str(cfg_path), "--out", str(outdir), "--seed", str(seed)])
            verdicts, _, record = runner(env, cfg)
            manifest = load_manifest(outdir)
            assert json.loads(json.dumps(plain(verdicts))) == manifest["verdicts"]
            assert json.loads(json.dumps(plain(record))) == manifest["run"]
    assert load_manifest(tmp_path / "clock-3")["run"] != load_manifest(tmp_path / "clock-8")["run"]


def clock_config(path, **kw):
    kw.setdefault("n", 8)
    kw.setdefault("beta", 3.0)
    kw.setdefault("gamma", 2.7)
    kw.setdefault("replicas", 12)
    kw.setdefault("u_grid", [0.25, 1.0, 4.0])
    return write_config(path, **kw)


def test_clock_outputs_do_not_depend_on_thread_count(tmp_path):
    cfg_path = clock_config(tmp_path / "cfg.json")
    serial, threaded = tmp_path / "a", tmp_path / "b"
    code_a = main(["clock", "--config", str(cfg_path), "--out", str(serial), "--threads", "1"])
    code_b = main(["clock", "--config", str(cfg_path), "--out", str(threaded), "--threads", "3"])
    assert code_a == code_b
    assert code_a in (0, 2)
    assert (serial / "clock.csv").read_bytes() == (threaded / "clock.csv").read_bytes()
    assert (serial / "clock_initial_terms.csv").read_bytes() == (
        threaded / "clock_initial_terms.csv"
    ).read_bytes()

    manifest = load_manifest(serial)
    k = manifest["run"]["block_count"]
    rows = read_rows(serial / "clock.csv")
    assert rows[0] == ["replica", "block_index", "increment", "cumulative"]
    assert len(rows) == 1 + 12 * k
    assert all(float(r[2]) > 0 for r in rows[1:])
    assert len(read_rows(serial / "clock_initial_terms.csv")) == 1 + 12


@pytest.mark.parametrize("threads", ["1", "2"])
def test_clock_row_blocks_leave_the_data_bytes(threads, tmp_path, monkeypatch):
    """One replica per row block, three, or the default budget's count write
    the bytes of the default run at one thread, at one or two threads."""
    # 50 blocks of 67 steps: four replicas fill the default budget of 2^14 states
    cfg_path = clock_config(tmp_path / "cfg.json", replicas=13, block_count=50)

    def data_files(outdir, threads):
        argv = ["clock", "--config", str(cfg_path), "--out", str(outdir), "--threads", threads]
        assert main(argv) in (0, 2, 3)
        return {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "manifest.json"}

    reference = data_files(tmp_path / "reference", "1")
    record = load_manifest(tmp_path / "reference")["run"]
    length = record["block_count"] * record["block_length"]
    default_rows = chain.SEGMENT_BLOCK_STATES // (length + 1)
    assert default_rows == 4 and "clock_jumps.csv" in reference
    blocks, blocked_clocks = [], cli.blocked_clocks

    def recording(env, k, streams):
        blocks.append(len(streams))
        return blocked_clocks(env, k, streams)

    monkeypatch.setattr(cli, "blocked_clocks", recording)
    for rows in (1, 3, default_rows):
        monkeypatch.setattr(chain, "SEGMENT_BLOCK_STATES", rows * (length + 1))
        blocks.clear()
        assert data_files(tmp_path / str(rows), threads) == reference
        ragged = [13 % rows] if 13 % rows else []
        assert sorted(blocks, reverse=True) == [rows] * (13 // rows) + ragged


# (master seed, replicas), one case per tolerance band of the p-value check
# below: N = 11 with p = 1.2e-4 (warn), N = 20 with p = 7.7e-3, N = 22 with
# p = 0.072
JUMP_LAW_CASES = [(3, 24), (12, 40), (11, 40)]


@pytest.mark.parametrize("seed, replicas", JUMP_LAW_CASES)
def test_clock_jump_law_is_the_exact_one_sample_ks_test(seed, replicas, tmp_path):
    """The statistic is the one-sample KS distance of the normalized jumps
    from the exact tail 1 - x^-alpha, and the p-value, twice the one-sided
    Smirnov tail, bounds the exact two-sided p from above and matches it
    where p <= 1e-2."""
    cfg_path = clock_config(
        tmp_path / "cfg.json", master_seed=seed, replicas=replicas, u_grid=[0.25]
    )
    outdir = tmp_path / "out"
    code = main(["clock", "--config", str(cfg_path), "--out", str(outdir)])
    manifest = load_manifest(outdir)
    law, alpha = manifest["verdicts"]["clock_jump_law"], manifest["run"]["alpha"]
    rows = read_rows(outdir / "clock_jumps.csv")
    assert rows[0] == ["size", "normalized"]
    x = np.array([float(row[1]) for row in rows[1:]])
    assert law["empirical_jumps"] == x.size >= 10
    assert [float(row[0]) / 0.25 for row in rows[1:]] == x.tolist()

    exact = stats.ks_1samp(x, lambda y: 1.0 - y**-alpha, method="exact")
    assert law["statistic"] == pytest.approx(exact.statistic, rel=1e-12, abs=0)
    # the doubled one-sided tail adds the chance that both one-sided
    # distances exceed D: below 1e-10 relative where p <= 1e-3 and at most
    # 5.1e-8 in (1e-3, 1e-2] for N = 10..3000; at most 1.7% up to p = 0.5
    rel = 1e-9 if exact.pvalue <= 1e-3 else 1e-7 if exact.pvalue <= 1e-2 else 0.02
    assert law["p_value"] == pytest.approx(exact.pvalue, rel=rel, abs=0)
    assert law["p_value"] >= exact.pvalue
    expected = "pass" if exact.pvalue >= 1e-3 else "warn" if exact.pvalue >= 1e-6 else "fail"
    assert law["status"] == expected
    assert code == {"pass": 0, "warn": 2}[expected]


def test_clock_jump_law_warns_when_too_few_increments_exceed_the_threshold(tmp_path):
    cfg_path = clock_config(tmp_path / "cfg.json", u_grid=[1.0e12])
    outdir = tmp_path / "out"
    assert main(["clock", "--config", str(cfg_path), "--out", str(outdir)]) == 2
    increments = [float(row[2]) for row in read_rows(outdir / "clock.csv")[1:]]
    assert max(increments) < 1.0e12
    assert load_manifest(outdir)["verdicts"]["clock_jump_law"] == {
        "status": "warn",
        "note": (
            "only 0 block increments exceeded u=1000000000000.0; "
            "not enough for a distribution comparison"
        ),
        "empirical_jumps": 0,
        "threshold": 1.0e12,
    }
    assert not (outdir / "clock_jumps.csv").exists()
    files = [a["file"] for a in load_manifest(outdir)["artifacts"]]
    assert files == ["clock.csv", "clock_initial_terms.csv"]


def test_laplace_degenerate_closed_form_and_layout(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", block_count=5)
    outdir = tmp_path / "out"
    code = main(["laplace", "--config", str(cfg_path), "--out", str(outdir)])
    assert code == 0
    rows = read_rows(outdir / "laplace.csv")
    assert rows[0] == ["v", "estimate", "stderr", "samples"]
    assert len(rows) == 1 + 3
    assert [float(r[0]) for r in rows[1:]] == [0.1, 1.0, 10.0]

    manifest = load_manifest(outdir)
    assert manifest["verdicts"]["degenerate_laplace"]["status"] == "pass"
    # no power-law exponent exists without a finite jump-count scale
    assert "laplace_slope" not in manifest["verdicts"]


def test_laplace_fails_a_slope_it_could_not_fit(tmp_path, capsys):
    """One sample gives every transform point a zero stderr, so no point is
    usable and every fit field is NaN: graded as a fail, as ``conditions``
    grades it."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"budgets": {"samples": 1}}))
    outdir = tmp_path / "out"
    assert main(["laplace", "--config", str(cfg_path), "--out", str(outdir)]) == 3
    out = capsys.readouterr().out
    assert "laplace_slope: fail" in out
    assert out.strip().endswith("overall: fail")
    verdict = load_manifest(outdir)["verdicts"]["laplace_slope"]
    assert verdict["status"] == "fail"
    fit = ("slope", "slope_se", "fitted_alpha", "fitted_alpha_se",
           "fitted_amplitude", "fitted_amplitude_se")
    assert {key: verdict[key] for key in fit} == dict.fromkeys(fit, "nan")


@pytest.mark.parametrize("command", ["conditions", "laplace"])
def test_a_transform_slope_without_a_fit_fails_with_a_note(command, tmp_path):
    """One sample gives no transform argument a positive stderr, so there is
    no transform fit: ``laplace_slope`` fails with a note, as an intensity
    slope without a fit does."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"model": {"n": 10}, "budgets": {"samples": 1}, "overrides": {"block_count": 3}}
    ))
    outdir = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(outdir)]) == 3
    slope = load_manifest(outdir)["verdicts"]["laplace_slope"]
    assert slope["deviation"] == "nan" and slope["status"] == "fail"
    assert slope["note"].startswith("no transform fit")


def test_conditions_fails_an_intensity_slope_it_could_not_fit(tmp_path):
    """At n = 12 and seed 9 no block sum reaches the u grid, so there is no
    tail fit: ``intensity_slope`` fails with a note, and every other file and
    verdict is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"n": 12}, "budgets": {"samples": 2000}}))
    outdir = tmp_path / "out"
    assert main(["conditions", "--config", str(cfg_path), "--seed", "9", "--out", str(outdir)]) == 3
    verdicts = load_manifest(outdir)["verdicts"]
    slope = verdicts["intensity_slope"]
    assert slope["deviation"] == "nan" and slope["status"] == "fail"
    assert slope["note"].startswith("no tail fit")
    assert {"laplace_slope", "squared_tail_routes", "initial_term", "truncated_mean"} <= set(verdicts)
    assert ["nu_slope", "", "nan", "nan", "2000"] in read_rows(outdir / "conditions.csv")
    assert (outdir / "conditions.json").exists()


def test_aging_run_layout(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.json", n=6, beta=3.0, gamma=2.7, replicas=4, step_cap=500_000
    )
    outdir = tmp_path / "out"
    assert main(["aging", "--config", str(cfg_path), "--out", str(outdir)]) in (0, 2, 3)

    curve = read_rows(outdir / "aging.csv")
    assert curve[0] == [
        "t",
        "s",
        "ratio",
        "empirical",
        "stderr",
        "predicted",
        "replicas",
        "censored",
    ]
    assert len(curve) == 2
    reference = read_rows(outdir / "aging_reference.csv")
    assert reference[0] == curve[0]

    traps = read_rows(outdir / "traps.csv")
    assert traps[0] == [
        "block_index",
        "dominant_state_hex",
        "dominant_fraction",
        "ball_time_fraction",
        "reentered",
        "untrapped",
    ]
    assert len(traps) == 9

    manifest = load_manifest(outdir)
    assert "aging_order" in manifest["verdicts"]
    # the trap diagnostics are a report in traps.csv, not a verdict
    assert "trap_blocks" not in manifest["verdicts"]


def test_aging_reference_file_uses_no_streams(tmp_path):
    """The flat reference is a closed form: its file reads the same bytes at
    any seed, while the Monte Carlo curve moves with the seed."""
    cfg_path = clock_config(tmp_path / "cfg.json", ts_grid=[[1.0, 1.0], [1.0, 0.25]])
    runs = {}
    for label, extra in (("seed1", ["--seed", "1"]), ("seed2", ["--seed", "2"])):
        outdir = tmp_path / label
        assert main(["aging", "--config", str(cfg_path), "--out", str(outdir), *extra]) in (0, 2)
        runs[label] = outdir
    reference = {(runs[label] / "aging_reference.csv").read_bytes() for label in runs}
    assert len(reference) == 1
    assert (runs["seed1"] / "aging.csv").read_bytes() != (runs["seed2"] / "aging.csv").read_bytes()
    (record,) = [
        artifact
        for artifact in load_manifest(runs["seed2"])["artifacts"]
        if artifact["file"] == "aging_reference.csv"
    ]
    assert record["stream_purpose"] == "closed form, no streams"
    assert record["replica_indices"] == []
    rows = read_rows(runs["seed2"] / "aging_reference.csv")
    # stderr 0.0, no replicas and none censored, as closed-form rows read
    assert len(rows) == 3
    assert all(row[4] == "0.0" and row[6:] == ["0", "0"] for row in rows[1:])


def test_aging_refuses_the_flat_chain(tmp_path, capsys):
    """beta = 0 has no tail exponent to grade against; it exits 1, naming beta."""
    cfg_path = write_config(tmp_path / "cfg.json", beta=0.0, gamma=0.5)
    assert main(["aging", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beta > 0" in err


def test_subordinator_self_test_layout_and_thread_invariance(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.json", samples=4000, ts_grid=[[1.0, 1.0], [3.0, 2.0]], v_grid=[0.5, 1.0]
    )
    serial, threaded = tmp_path / "a", tmp_path / "b"
    code = main(["subordinator", "--config", str(cfg_path), "--out", str(serial)])
    assert code in (0, 2)
    assert (
        main(
            [
                "subordinator",
                "--config",
                str(cfg_path),
                "--out",
                str(threaded),
                "--threads",
                "3",
            ]
        )
        == code
    )
    for name in ("subordinator_arcsine.csv", "subordinator_laplace.csv"):
        assert (serial / name).read_bytes() == (threaded / name).read_bytes()

    arcsine = read_rows(serial / "subordinator_arcsine.csv")
    assert arcsine[0] == ["alpha", "t", "s", "ratio", "empirical", "predicted", "stderr"]
    assert len(arcsine) == 1 + 3 * 2
    assert sorted({float(r[0]) for r in arcsine[1:]}) == [0.3, 0.5, 0.7]
    laplace = read_rows(serial / "subordinator_laplace.csv")
    assert laplace[0] == ["alpha", "v", "empirical", "stderr", "predicted"]
    assert len(laplace) == 1 + 3 * 2

    verdicts = load_manifest(serial)["verdicts"]
    for alpha in (0.3, 0.5, 0.7):
        assert f"arcsine_alpha_{alpha}" in verdicts
        assert f"transform_alpha_{alpha}" in verdicts


def test_subordinator_transform_warns_where_the_expected_ess_is_too_small(tmp_path):
    # at alpha = 0.7 and v = 100 the mean of exp(-v S(1)) over 2000 paths is
    # one path's weight; graded by its sample se it failed with z = 2.2e11
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"budgets": {"samples": 2000}, "grids": {"v_grid": [1.0, 100.0]}})
    )
    main(["subordinator", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    verdicts = load_manifest(tmp_path / "out")["verdicts"]
    entry = verdicts["transform_alpha_0.7"]
    assert entry["status"] == "warn"
    assert [point["v"] for point in entry["insufficient"]] == [100.0]
    assert entry["insufficient"][0]["expected_ess"] == pytest.approx(1.15e-9, rel=0.01)
    assert "v=100.0" in entry["note"]
    # the v = 1 point alone sets z
    assert entry["z"] < 4.0
    assert all(verdicts[f"transform_alpha_{a}"]["status"] == "warn" for a in (0.3, 0.5, 0.7))


def test_subordinator_arcsine_checks_grade_by_the_binomial_spread(tmp_path):
    # at 2000 paths a crossing frequency spreads by about 0.011, so a fixed
    # 0.02 gap fails on sampling noise alone at some seeds (this one did, with
    # the draw order before paths were drawn in windows); z reads the spread
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"budgets": {"samples": 2000}, "grids": {"v_grid": [1.0, 100.0]}})
    )
    outdir = tmp_path / "out"
    assert main(["subordinator", "--config", str(cfg_path), "--out", str(outdir)]) == 2
    verdicts = load_manifest(outdir)["verdicts"]
    rows = read_rows(outdir / "subordinator_arcsine.csv")[1:]
    for alpha in (0.3, 0.5, 0.7):
        entry = verdicts[f"arcsine_alpha_{alpha}"]
        assert entry["status"] == "pass"
        z = 0.0
        for row in rows:
            if float(row[0]) != alpha:
                continue
            empirical, predicted, stderr = map(float, row[4:7])
            # the stderr column is the spread under the prediction
            assert stderr == math.sqrt(predicted * (1.0 - predicted) / 2000)
            z = max(z, abs(empirical - predicted) / stderr)
        assert entry["z"] == pytest.approx(z, rel=1e-12)
    assert verdicts["arcsine_alpha_0.5"]["max_absolute_gap"] == pytest.approx(0.0104, abs=1e-4)
    assert verdicts["arcsine_alpha_0.5"]["z"] == pytest.approx(0.94, abs=0.01)


def test_bad_inputs_exit_with_error_message(tmp_path, capsys):
    # missing config file
    assert main(["mixing", "--config", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")

    # config that is not JSON at all
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["mixing", "--config", str(broken)]) == 1
    assert "JSON" in capsys.readouterr().err

    # bytes that do not decode as UTF-8, so cannot be JSON either
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe")
    assert main(["mixing", "--config", str(undecodable)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON" in err and "Traceback" not in err

    # well-formed JSON violating a model constraint
    bad = write_config(tmp_path / "bad.json", beta=2.0, gamma=5.0)
    assert main(["mixing", "--config", str(bad)]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("beta, gamma", [(3.0, 2.7), (0.0, 0.5)])
def test_conditions_rejects_spin_counts_above_63(tmp_path, capsys, beta, gamma):
    cfg_path = write_config(tmp_path / "cfg.json", n=70, beta=beta, gamma=gamma)
    assert main(["conditions", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "[2, 63]; got 70" in err
    assert "Traceback" not in err


def test_unknown_command_is_a_usage_error(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate", "--config", str(cfg_path)])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["mixing", "--config", "{config}", "--start", "2a"], 1),  # unrecognized arguments
        (["mixing"], 1),  # a subparser's own error: --config is required
        (["conditions", "--config", "{config}", "--threads", "two"], 1),
        (["--help"], 0),
        (["aging", "--help"], 0),
        # every walk starts stationary, so clock and aging take no start either
        (["clock", "--config", "{config}", "--start", "2a"], 1),
        (["aging", "--config", "{config}", "--start", "2a"], 1),
        # epsilon and the trap threshold are constants, and no run dumps a trajectory
        (["conditions", "--config", "{config}", "--dump-trajectory"], 1),
        (["clock", "--config", "{config}", "--dump-trajectory"], 1),
        (["aging", "--config", "{config}", "--epsilon", "0.3"], 1),
        (["aging", "--config", "{config}", "--trap-threshold", "0.7"], 1),
    ],
)
def test_usage_errors_exit_1_and_help_exits_0(argv, code, tmp_path, capsys):
    """Exit code 2 means a warned run, so a usage error must not exit with it."""
    cfg_path = write_config(tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(config=cfg_path) for arg in argv])
    assert excinfo.value.code == code
    assert ("error:" in capsys.readouterr().err) == (code == 1)


def test_module_entry_point_runs_in_subprocess(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", n=4)
    outdir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "clockproc.cli", "mixing", "--config", str(cfg_path), "--out", str(outdir)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout
    assert (outdir / "manifest.json").exists()


def test_block_length_warning_is_one_line_naming_no_file(tmp_path):
    """At n = 6 a block of 38 states is not small against the jump-count
    scale; the run says so on one stderr line, with no path or line number."""
    cfg_path = write_config(tmp_path / "cfg.json", beta=3.0, block_count=2, samples=200)
    proc = subprocess.run(
        [sys.executable, "-m", "clockproc.cli", "conditions", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: block length 38 is not small against the jump-count scale 2.66 at n=6; "
        "block-level asymptotics are unreliable at this size"
    ]


def test_importing_the_cli_loads_neither_scipy_nor_mpmath():
    """No module of the package imports scipy, so no part of it loads:
    scipy.special cost about 0.2 s of every run that called it,
    scipy.integrate about 0.3 s of every start-up, and scipy.stats is the
    slowest import of all (the clock jump law is graded through
    ``special.smirnov``).  mpmath loads at the first closed form that
    :mod:`clockproc.special` hands to it, not with the CLI."""
    script = "import sys, clockproc.cli; print('scipy' in sys.modules, 'mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


_SMALL_MODEL = {"n": 8, "p": 3, "beta": 3.0, "gamma": 2.7}

# subcommand -> (config document, the file that shows the run reached the
# closed form it grades by, or for ``mixing`` its exact check, and a text in
# it)
RUNS_WITHOUT_SLOW_IMPORTS = {
    # the arcsine prediction is the incomplete beta
    "aging": (
        {"model": _SMALL_MODEL, "budgets": {"replicas": 40}},
        "aging.csv",
        "predicted",
    ),
    # the jump law is graded by twice the one-sided Smirnov tail
    "clock": (
        {
            "model": _SMALL_MODEL,
            "seeds": {"master_seed": 12},
            "budgets": {"replicas": 40},
            "grids": {"u_grid": [0.25]},
        },
        "clock_jumps.csv",
        "size,normalized",
    ),
    # the truncated-mean reference is one trapezoid sum
    "conditions": (
        {
            "model": _SMALL_MODEL,
            "budgets": {"samples": 200},
            "grids": {"u_grid": [0.5, 1.0], "v_grid": [1.0], "eps_grid": [0.1]},
        },
        "conditions.csv",
        "truncated_mean_quadrature",
    ),
    # the amplitude's stderr takes digamma
    "laplace": (
        {"model": _SMALL_MODEL, "budgets": {"samples": 200}, "grids": {"v_grid": [1.0, 10.0]}},
        "laplace.csv",
        "estimate",
    ),
    # the exact check calls no special function, so mpmath stays unloaded too
    "mixing": ({"model": _SMALL_MODEL}, "mixing.csv", "max_violation"),
    # the self-test grades against the truncated Laplace exponent in closed form
    "subordinator": (
        {"budgets": {"samples": 200}, "grids": {"ts_grid": [[1.0, 1.0]], "v_grid": [1.0]}},
        "subordinator_laplace.csv",
        "predicted",
    ),
}


@pytest.mark.parametrize("command", sorted(RUNS_WITHOUT_SLOW_IMPORTS))
def test_run_loads_no_scipy_and_mixing_no_mpmath(command, tmp_path):
    """A whole run loads no part of scipy, and a ``mixing`` run no mpmath."""
    document, name, text = RUNS_WITHOUT_SLOW_IMPORTS[command]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    outdir = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(outdir)]
    script = (
        f"import sys; from clockproc.cli import main; code = main({argv!r}); "
        "print(code, 'scipy' in sys.modules, 'mpmath' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, scipy_loaded, mpmath_loaded = proc.stdout.splitlines()[-1].split()
    assert code != "1", proc.stderr
    assert text in (outdir / name).read_text()
    assert scipy_loaded == "False"
    if command == "mixing":
        assert mpmath_loaded == "False"


# --- run-argument provenance ---------------------------------------------

_COMMON_OPTIONS = ["--config", "--out", "--seed", "--threads"]

# every option of every subcommand, as the parser declares them
PINNED_OPTIONS = dict.fromkeys(
    ["aging", "clock", "conditions", "laplace", "mixing", "subordinator"], _COMMON_OPTIONS
)

# where a run writes each option's value into manifest.json: a key path whose
# value equals the parsed option, or the whole resolved "config" for --config.
# An option that changes a data file but is written nowhere would leave two
# different runs with equal manifests; a new option must say here where its
# value is recorded.
OPTION_RECORDS = {
    "--config": ("config",),
    "--out": ("config", "outputs", "directory"),
    "--seed": ("config", "seeds", "master_seed"),
    "--threads": ("config", "threads"),
}

# a value for each option that takes one, away from its default and the config's
OPTION_VALUES = {"--seed": "7", "--threads": "2"}


def parser_options():
    """subcommand -> its sorted long options, read off the CLI's parser."""
    parser = _build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        )
        for name, sub in subparsers.choices.items()
    }


def test_every_run_option_is_pinned_with_its_manifest_record():
    assert parser_options() == {name: sorted(opts) for name, opts in PINNED_OPTIONS.items()}
    assert {opt for opts in PINNED_OPTIONS.values() for opt in opts} == set(OPTION_RECORDS)


def provenance_config(command, path):
    if command in ("clock", "aging"):
        return clock_config(path, replicas=2)
    if command == "subordinator":
        return write_config(path, samples=200, v_grid=[1.0])
    return write_config(path, block_count=5)


@pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
def test_every_run_option_is_written_into_the_manifest(command, tmp_path):
    """A run with every option set away from its default writes each value
    where ``OPTION_RECORDS`` says."""
    cfg_path = provenance_config(command, tmp_path / "cfg.json")
    outdir = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(outdir)]
    for option in PINNED_OPTIONS[command]:
        if option in OPTION_VALUES:
            argv += [option, OPTION_VALUES[option]]
    assert main(argv) in (0, 2, 3)
    manifest = load_manifest(outdir)
    # every offered file is written, and only those the manifest lists
    files = [a["file"] for a in manifest["artifacts"]]
    assert sorted(path.name for path in outdir.iterdir()) == sorted([*files, "manifest.json"])
    args = _build_parser().parse_args(argv)
    overrides = {"master_seed": args.seed, "directory": args.out, "threads": args.threads}
    resolved = ExperimentConfig.load(cfg_path).replace(**overrides).to_dict()
    for option in PINNED_OPTIONS[command]:
        path = OPTION_RECORDS[option]
        if path == ("config",):
            assert manifest["config"] == json.loads(json.dumps(resolved)), option
        else:
            node = manifest
            for key in path:
                assert isinstance(node, dict) and key in node, f"{option} is not recorded at {path}"
                node = node[key]
            assert node == getattr(args, option[2:].replace("-", "_")), option


# the subcommands that sample an environment, and so write a run record
RUN_RECORDS = {"conditions", "laplace", "clock", "aging"}
EXIT_CODES = {"pass": 0, "warn": 2, "fail": 3}


@pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
def test_every_run_writes_a_well_formed_verdict_block(command, tmp_path):
    """The benchmark harness counts a run whose ``verdicts`` block is empty,
    or holds a status other than pass, warn or fail, as malformed, and checks
    that ``overall`` is the worst status and the exit code mirrors it."""
    cfg_path = provenance_config(command, tmp_path / "cfg.json")
    outdir = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(outdir)])
    manifest = load_manifest(outdir)
    statuses = [entry["status"] for entry in manifest["verdicts"].values()]
    assert statuses and set(statuses) <= set(EXIT_CODES)
    overall = max(statuses, key=list(EXIT_CODES).index)
    assert manifest["overall"] == overall
    assert code == EXIT_CODES[overall]
    assert (manifest["run"] is not None) == (command in RUN_RECORDS)
    assert cli._COMMANDS[command][1] == (command in RUN_RECORDS)
