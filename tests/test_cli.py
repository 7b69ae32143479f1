"""End-to-end checks of the command-line driver.

Every test builds a small JSON config in tmp_path and invokes ``main`` with an
explicit argv, so the suite never touches the working directory or real output
locations.  One test goes through ``python -m`` to cover the installed entry
point.
"""

import csv
import json
import math
import subprocess
import sys

import pytest

from clockproc.chain import mixing_check
from clockproc.environment import block_length
from clockproc.cli import main
from clockproc.config import ExperimentConfig

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
        "outputs": {"directory": "results", "formats": list(kw.get("formats", ("csv", "json")))},
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
    for key in ("clockproc", "python", "numpy", "scipy"):
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


def test_conditions_degenerate_environment_passes_cleanly(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", block_count=5)
    outdir = tmp_path / "out"
    code = main(["conditions", "--config", str(cfg_path), "--out", str(outdir)])
    assert code == 0

    manifest = load_manifest(outdir)
    assert manifest["overall"] == "pass"
    for key in ("degenerate_tail", "degenerate_laplace", "degenerate_initial"):
        assert manifest["verdicts"][key]["status"] == "pass"
    env_record = manifest["verdicts"]["_environment"]
    assert env_record["alpha"] is None
    assert env_record["block_count"] == 5
    files = [a["file"] for a in manifest["artifacts"]]
    assert "conditions.csv" in files and "conditions.json" in files
    for name in files:
        assert (outdir / name).exists()

    # a verdict-bearing exit code always mirrors the manifest
    assert code == {"pass": 0, "warn": 2, "fail": 3}[manifest["overall"]]


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


def test_formats_subset_limits_artifacts(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", block_count=5, formats=("json",))
    outdir = tmp_path / "out"
    main(["conditions", "--config", str(cfg_path), "--out", str(outdir)])
    assert not (outdir / "conditions.csv").exists()
    assert (outdir / "conditions.json").exists()
    assert (outdir / "manifest.json").exists()


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
    k = manifest["verdicts"]["_environment"]["block_count"]
    rows = read_rows(serial / "clock.csv")
    assert rows[0] == ["replica", "block_index", "increment", "cumulative"]
    assert len(rows) == 1 + 12 * k
    assert all(float(r[2]) > 0 for r in rows[1:])
    assert len(read_rows(serial / "clock_initial_terms.csv")) == 1 + 12


def test_clock_trajectory_dump_layout(tmp_path):
    cfg_path = clock_config(tmp_path / "cfg.json", replicas=2)
    outdir = tmp_path / "out"
    code = main(["clock", "--config", str(cfg_path), "--out", str(outdir), "--dump-trajectory"])
    assert code in (0, 2)
    rows = read_rows(outdir / "trajectory.csv")
    assert rows[0] == ["step", "state_hex", "H", "tau", "exp_draw", "increment"]
    manifest = load_manifest(outdir)
    k = manifest["verdicts"]["_environment"]["block_count"]
    assert len(rows) == 1 + (k * block_length(8) + 1)
    # every visited state parses as an n-bit integer and tau = exp(beta * H)
    for row in rows[1:5]:
        assert 0 <= int(row[1], 16) < 2**8
        assert float(row[3]) == pytest.approx(math.exp(3.0 * float(row[2])), rel=1e-12)


@pytest.mark.parametrize("command", ["clock", "aging"])
def test_trajectory_dump_is_written_whatever_the_formats(command, tmp_path):
    cfg_path = clock_config(tmp_path / "cfg.json", replicas=2, formats=("json",))
    outdir = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(outdir), "--dump-trajectory"])
    assert code in (0, 2)
    assert sorted(path.name for path in outdir.iterdir()) == ["manifest.json", "trajectory.csv"]
    assert [a["file"] for a in load_manifest(outdir)["artifacts"]] == ["trajectory.csv"]


def test_clock_start_override_is_recorded_as_nonconformant(tmp_path):
    cfg_path = clock_config(tmp_path / "cfg.json", replicas=2)
    outdir = tmp_path / "out"
    code = main(["clock", "--config", str(cfg_path), "--out", str(outdir), "--start", "3f"])
    assert code in (0, 2)
    record = load_manifest(outdir)["verdicts"]["_environment"]["start_distribution"]
    assert record == {"fixed_state_hex": "3f", "theorem_conformant": False}

    # the default draw from the uniform distribution is flagged as such
    plain = tmp_path / "plain"
    main(["clock", "--config", str(cfg_path), "--out", str(plain)])
    assert load_manifest(plain)["verdicts"]["_environment"]["start_distribution"] == (
        "uniform (stationary)"
    )


def test_clock_start_rejects_bad_values(tmp_path, capsys):
    cfg_path = clock_config(tmp_path / "cfg.json", replicas=2)
    outdir = tmp_path / "out"
    assert main(["clock", "--config", str(cfg_path), "--out", str(outdir), "--start", "zz"]) == 1
    assert "hex" in capsys.readouterr().err
    assert main(["clock", "--config", str(cfg_path), "--out", str(outdir), "--start", "1ff"]) == 1
    assert "state space" in capsys.readouterr().err


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


def test_aging_run_layout_and_flags(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.json", n=6, beta=3.0, gamma=2.7, replicas=4, step_cap=500_000
    )
    outdir = tmp_path / "out"
    code = main(
        [
            "aging",
            "--config",
            str(cfg_path),
            "--out",
            str(outdir),
            "--epsilon",
            "0.5",
            "--trap-threshold",
            "0.3",
        ]
    )
    assert code in (0, 2, 3)

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
    assert "trap_blocks" in manifest["verdicts"]
    assert manifest["verdicts"]["trap_blocks"]["blocks"] == 8


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
    # the v = 1 point alone sets max_z
    assert entry["max_z"] < 4.0
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
        assert entry["max_z"] == pytest.approx(z, rel=1e-12)
    assert verdicts["arcsine_alpha_0.5"]["max_absolute_gap"] == pytest.approx(0.0104, abs=1e-4)
    assert verdicts["arcsine_alpha_0.5"]["max_z"] == pytest.approx(0.94, abs=0.01)


def test_bad_inputs_exit_with_error_message(tmp_path, capsys):
    # missing config file
    assert main(["mixing", "--config", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")

    # config that is not JSON at all
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["mixing", "--config", str(broken)]) == 1
    assert "JSON" in capsys.readouterr().err

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
    assert excinfo.value.code == 2


def test_dump_trajectory_is_a_usage_error_outside_clock_and_aging(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["conditions", "--config", str(cfg_path), "--dump-trajectory"])
    assert excinfo.value.code == 2


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


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """scipy.stats is the slowest import of the dependencies; only the clock
    jump-law check uses it, and it imports it there."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clockproc.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    """scipy.integrate adds about 0.3 s to every start-up; only the truncated
    mean quadrature uses it, and it imports it there."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clockproc.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_subordinator_run_leaves_scipy_integrate_unloaded(tmp_path):
    """The subordinator self-test grades against the truncated Laplace
    exponent in closed form, so a whole run never loads scipy.integrate."""
    cfg_path = tmp_path / "cfg.json"
    grids = {"ts_grid": [[1.0, 1.0]], "v_grid": [1.0]}
    cfg_path.write_text(json.dumps({"budgets": {"samples": 200}, "grids": grids}))
    argv = ["subordinator", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    script = (
        f"import sys; from clockproc.cli import main; main({argv!r}); "
        "print('scipy.integrate' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
