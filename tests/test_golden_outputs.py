"""Byte-level regression guard for every data-producing subcommand.

Each case runs one subcommand through ``cli.main`` on a small pinned config
at one and two threads and compares the SHA-256 of every data file it writes
(everything except ``manifest.json``, which records package versions) with
digests recorded from a reference build.  The manifest's verdict block, its
overall verdict and its run record are hashed too, so a change in any
status, statistic or derived scale shows up.
The concentration oracle, which no subcommand runs and which lives in the
tests (``reference_estimators.concentration_diagnostic``), is pinned by the
digest of its whole report, and the energies and the initial-term,
truncated-mean and transform-intensity estimates by theirs on both energy
paths (the golden configs above only reach the table path, in chunks of at
least 2^n states).
Each case's provenance -- its command, the manifest's artifact records and
its resolved config -- is pinned by digest as well.
A refactor that is meant to leave the numbers alone must leave these digests
alone; a change that moves a Monte Carlo value on purpose updates them and
says so.  ``PYTHONPATH=src python tests/test_golden_outputs.py NAME...``
prints the current digests of the named cases, in the layout of ``EXPECTED``
and ``PROVENANCE``, and of the named module-level digests (such as
``CONCENTRATION_DIGEST``), as their assignments; with no name it prints them
all, to paste in.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from clockproc.cli import main
from clockproc import chain, conditions
from clockproc.conditions import (
    estimate_initial_term,
    estimate_intensity_laplace,
    estimate_truncated_mean,
    plain,
)
from clockproc.environment import Environment
from reference_estimators import concentration_diagnostic, replica_streams

pytestmark = pytest.mark.filterwarnings("ignore:block length")

SEED = 20260822


def _model(n, beta, gamma):
    return {"n": n, "p": 3, "beta": beta, "gamma": gamma}


# name -> (subcommand, config document)
CASES = {
    "conditions": (
        "conditions",
        {
            "model": _model(10, 3.0, 2.7),
            "budgets": {"samples": 3000},
            "grids": {
                "u_grid": [0.25, 0.4, 0.63, 1.0, 1.59],
                "v_grid": [1.0, 3.16, 10.0, 31.6, 100.0],
                "eps_grid": [0.05, 0.1, 0.2],
            },
            "overrides": {"block_count": 4},
        },
    ),
    "conditions-flat": (
        "conditions",
        {
            "model": _model(6, 0.0, 0.5),
            "budgets": {"samples": 2000},
            "grids": {
                "u_grid": [1.7, 1.9, 2.1, 2.3],
                "v_grid": [0.1, 1.0, 10.0],
                "eps_grid": [0.05, 0.1],
            },
            "overrides": {"block_count": 5},
        },
    ),
    "laplace": (
        "laplace",
        {"model": _model(10, 3.0, 2.7), "budgets": {"samples": 3000}},
    ),
    "laplace-flat": (
        "laplace",
        {
            "model": _model(6, 0.0, 0.5),
            "budgets": {"samples": 2000},
            "grids": {"v_grid": [0.1, 1.0, 10.0]},
            "overrides": {"block_count": 5},
        },
    ),
    "clock": (
        "clock",
        {
            "model": _model(10, 3.0, 2.7),
            "budgets": {"replicas": 6},
            "grids": {"u_grid": [0.25, 0.5]},
            "overrides": {"block_count": 8},
        },
    ),
    # 40 blocks of 104 steps fill a quarter of the shipped row budget, so the
    # four replicas walk in row blocks of 3 and 1, of 1 each at a budget of
    # one state and of 4 at an unbounded one
    "clock-rows": (
        "clock",
        {
            "model": _model(10, 3.0, 2.7),
            "budgets": {"replicas": 4},
            "grids": {"u_grid": [0.25, 0.5]},
            "overrides": {"block_count": 40},
        },
    ),
    "aging": (
        "aging",
        {
            "model": _model(8, 3.0, 2.7),
            "budgets": {"replicas": 40, "step_cap": 2_000_000},
            "grids": {"ts_grid": [[1.0, 1.0], [1.0, 0.25]]},
        },
    ),
    "subordinator": (
        "subordinator",
        {
            "budgets": {"samples": 4000},
            "grids": {"ts_grid": [[1.0, 1.0], [1.0, 0.25]], "v_grid": [0.3, 1.0, 3.0]},
        },
    ),
}

# (exit code, {file: sha256}); "verdicts" is the manifest's verdict block,
# overall verdict and run record
EXPECTED = {
    "aging": (0, {
        "aging.csv": "ab72333d4217ad70f4ea5db65dc181396d70db912bedf708b8ef568a269dd215",
        "aging_reference.csv": "0b16d90f6119a75bcafd09913ce9c13e0fe64fede8dc76531bd50a46fbbf933e",
        "traps.csv": "b837d81057c253790d925e62805de9badd657203b12ff79636d932d711ac715f",
        "verdicts": "cba5cc250989c8372b87762e43adb3dc9cbaac81c61ef3f3deae04761cf82757",
    }),
    "clock": (0, {
        "clock.csv": "9c30e5ebee43e4c890b9aa63be0757387d6bf1a5b5129b679caadce5dd7108fa",
        "clock_initial_terms.csv": "7e060b9f5fd29ea90e4576d77189a56a5ec5c6c79fe3e8aea64aa66cbbccc480",
        "clock_jumps.csv": "c6b8075d1519c5ebab70b81e16997ac48cd18e6a35e8c9066e239615b92b40fa",
        "verdicts": "79892322660dfce396ccc415bad5c4bca44605366a636526c60cd382bf3cf747",
    }),
    "clock-rows": (3, {
        "clock.csv": "85bb3d58c7d0e9a9c9a7cfa4929a81fac2c7953064e881302ce109173ba6e082",
        "clock_initial_terms.csv": "52b69612681485c3d25009399d208337d162f007a70978cda31caf1b487eb59e",
        "clock_jumps.csv": "2ef6c7d36480156893db183ffc414e7c36f06435c74015811d805fa84e5570f3",
        "verdicts": "731aafb8e730a872e96341bbd8c3e18f53ef431aef32fbb00b9d53679447530a",
    }),
    "conditions": (3, {
        "conditions.csv": "791dddf0aaa82b9b98d36f62f3c0d0a56a6164af2718585e010855fa26f03f88",
        "conditions.json": "0de24320d837af1e077a2bf9b74aea70c9c294c8475bd58869cf68dd0506fc4e",
        "verdicts": "2a56868207a1e37442d5bce3121c4b0a4d38fbce875952b84fe540c5a3f6108a",
    }),
    "conditions-flat": (0, {
        "conditions.csv": "ec5d6e6291970bc3f156f6703da79da69e5d6a04a440268806a0918a054790a9",
        "conditions.json": "6ca2ed5da8610f3b9cf9697b4a704b8251d8bcb7390380df636012b88e64cc29",
        "verdicts": "261bd021c86b183dd7f9585234b0a88356d30c1e09ba5bd194889570533687b1",
    }),
    "laplace": (0, {
        "laplace.csv": "b179bba34c71bc3f3c094bb690b9e5c479d2caa7e2b149408c94ac1dae9072ba",
        "verdicts": "8f0b82ebb09da63a180cb91319b1d1f158a12b75d5985c4c69efa05392544a22",
    }),
    "laplace-flat": (0, {
        "laplace.csv": "93225dd70c6f62458ca5533aa83439629af497eb86c44b1a101b07fd54056f25",
        "verdicts": "05c482ef710e198693199de710ab62ab38c058ea63189f63308e71457544d067",
    }),
    "subordinator": (0, {
        "subordinator_arcsine.csv": "e8fccaa76e46b8f4ae54fbb1d5d4baa0b34682972d409b9baa8a0c9d6d664c5c",
        "subordinator_laplace.csv": "d3dd4a677aba2e9bfd36c63eefa0d0427d7a47512f3d1ff2b4dfb94d72ef9f36",
        "verdicts": "afa8857e7ae63323512b2e3f457d69ad05db1d19c089fd1bd9d9a5d06090c600",
    }),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(name, threads, root):
    """Runs one case through ``main``; returns its exit code and output directory."""
    command, document = CASES[name]
    cfg_path = root / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(document, seeds={"master_seed": SEED})))
    outdir = root / f"{name}-t{threads}"
    code = main(
        [command, "--config", str(cfg_path), "--out", str(outdir), "--threads", str(threads)]
    )
    return code, outdir


def run_case(name, threads, root):
    code, outdir = run_cli(name, threads, root)
    digests = {
        path.name: _sha(path.read_bytes())
        for path in sorted(outdir.iterdir())
        if path.name != "manifest.json"
    }
    manifest = json.loads((outdir / "manifest.json").read_text())
    record = [manifest[key] for key in ("verdicts", "overall", "run")]
    digests["verdicts"] = _sha(json.dumps(record, sort_keys=True).encode())
    return code, digests


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_data_files_match_recorded_digests(name, threads, tmp_path):
    assert run_case(name, threads, tmp_path) == EXPECTED[name]


@pytest.mark.parametrize("budget", [1, 1 << 40])
@pytest.mark.parametrize("name", ["aging", "clock", "clock-rows"])
def test_segment_row_blocks_leave_the_digests(name, budget, tmp_path, monkeypatch):
    """One replica per row block, or every replica in one, writes the same bytes."""
    monkeypatch.setattr(chain, "SEGMENT_BLOCK_STATES", budget)
    assert run_case(name, 2, tmp_path) == EXPECTED[name]


# energies of the contraction path (no table) and of the table, as raw bytes
CONTRACTION_DIGEST = "d844d4eeccb871dbce81971d6891943cfdfbc3e223090a265c3b728b9eee8aff"
TABLE_DIGEST = "e05314adc8a39304111180e1685a42c2d8599f90baab48fe4ceb3a50c29fa3cf"


def create_env():
    return Environment.create(10, 3, 3.0, 2.7, SEED)


def energy_digests(contracted):
    states = np.random.Generator(np.random.Philox(key=SEED)).integers(
        0, 1 << 10, size=5000, dtype=np.uint64
    )
    contraction = contracted(create_env).energies(states)
    table = create_env().energies(np.arange(1 << 10, dtype=np.uint64))
    return _sha(contraction.tobytes()), _sha(table.tobytes())


def test_energy_paths_match_recorded_digests(contracted):
    assert energy_digests(contracted) == (CONTRACTION_DIGEST, TABLE_DIGEST)


# the concentration estimator's whole report, serialised with sorted keys
CONCENTRATION_DIGEST = "dd0b245053e277eff07f725658e09691b244efe8355c1e9a70d760dcb60dc4a7"


def concentration_digest(threads):
    report = concentration_diagnostic(
        8, 3, 2.0, 1.5, 1.0, 1.0, master_seed=7, replicas=12, walk_blocks=40,
        pair_samples=50, block_count=3, threads=threads,
    )
    return _sha(json.dumps(plain(report), sort_keys=True).encode())


@pytest.mark.parametrize("threads", [1, 2])
def test_concentration_report_matches_recorded_digest(threads):
    assert concentration_digest(threads) == CONCENTRATION_DIGEST


# initial-term estimates, serialised with sorted keys: on the table path with
# their exact values, on the contraction path (past the table) without
INITIAL_TERM_CONTRACTION_DIGEST = "90e581ff5418e541e6c48d632648ce3288c74b64e6061189575fda5d781ca097"
INITIAL_TERM_TABLE_DIGEST = "98a34e61a11874eeb1d35485ef3add2de668d4ec513f8a167527c3ce712dee04"


def initial_term_digest(table, contracted):
    env = create_env() if table else contracted(create_env)
    streams = replica_streams(SEED)
    v_grid = [0.1, 1.0, 10.0, 100.0]
    estimates = estimate_initial_term(env, v_grid, 5000, streams)
    assert all((est.exact_value is not None) == table for est in estimates)
    return _sha(json.dumps(plain(estimates), sort_keys=True).encode())


@pytest.mark.parametrize("table", [False, True])
def test_initial_terms_match_recorded_digest(table, contracted):
    expected = INITIAL_TERM_TABLE_DIGEST if table else INITIAL_TERM_CONTRACTION_DIGEST
    assert initial_term_digest(table, contracted) == expected


# truncated-mean estimates, serialised with sorted keys: on the table path
# with their exact values, on the contraction path (past the table) without
TRUNCATED_MEAN_CONTRACTION_DIGEST = "95a3b2dcd8861282097037d675161c7ed941270b6667bfadacecf002e87dc562"
TRUNCATED_MEAN_TABLE_DIGEST = "3dee0778e4f892e5128d5d1f381acc46a56db4b6fa4fa2a728cee1c502604360"


def truncated_mean_digest(table, contracted):
    env = create_env() if table else contracted(create_env)
    estimates = estimate_truncated_mean(
        env, [0.05, 0.1, 0.2], 5000, replica_streams(SEED)
    )
    assert all((est.exact_value is not None) == table for est in estimates)
    return _sha(json.dumps(plain(estimates), sort_keys=True).encode())


@pytest.mark.parametrize("table", [False, True])
def test_truncated_means_match_recorded_digest(table, contracted):
    expected = TRUNCATED_MEAN_TABLE_DIGEST if table else TRUNCATED_MEAN_CONTRACTION_DIGEST
    assert truncated_mean_digest(table, contracted) == expected


# transform-intensity values and stderrs, serialised as JSON; at n = 10
# (theta = 104) a 5,000-state chunk limit walks 48 samples per chunk, so 1,013
# samples give 21 chunks of 4,992 states, above 2^10, and a ragged last chunk
# of 520, below it; one digest for the contraction path and one for the table
LAPLACE_INTENSITY_CONTRACTION_DIGEST = "81ef36ddddf4706822b2ab22440cb3b42355c957d23ecf912b8b8ede55e7244e"
LAPLACE_INTENSITY_TABLE_DIGEST = "8b37d7678209a68626a01fb1419dabde2a439a19ded32a09a4b592f21f6fa985"


def laplace_intensity_digest(table, contracted):
    env = create_env() if table else contracted(create_env)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conditions, "_CHUNK_STATES", 5000)
        est = estimate_intensity_laplace(
            env, 4, [0.1, 1.0, 10.0, 100.0], 1013, replica_streams(SEED)
        )
    return _sha(json.dumps(plain([est.values, est.stderrs])).encode())


@pytest.mark.parametrize("table", [False, True])
def test_laplace_intensity_matches_recorded_digest(table, contracted):
    expected = (
        LAPLACE_INTENSITY_TABLE_DIGEST if table else LAPLACE_INTENSITY_CONTRACTION_DIGEST
    )
    assert laplace_intensity_digest(table, contracted) == expected


# provenance of each case's run: the command, the manifest's artifact records
# and its resolved config, less the output directory and the thread count,
# serialised with sorted keys
PROVENANCE = {
    "aging": "ac9a23eff5a42b85020a775082f6be151189cf5426bd974067a7ef561b1e56aa",
    "clock": "d0812c76ff54413be263765d6b541b1cf9a853df9bfe325d935ffd38dfed2a87",
    "clock-rows": "3d231129d6099c2bee3e4566addcb2a81491e05110c6c005e8d7aaf740bba958",
    "conditions": "2114f8857adeb30ba6050454019b90eebbdd29017d36a33d903b2daa478c8316",
    "conditions-flat": "feda562a04422d9f407f7c741e281d18a2aec98292622779cec4609df8159c91",
    "laplace": "f680d2f69e87049c4298c556f66bd01d19f493f50bd211e937a130a4a46bf297",
    "laplace-flat": "2faeed55404deb4b96adcd1f879f13e8c4721bf5913d53be5b273d4074b0f299",
    "subordinator": "41e09d104e01dcf54d3d14719eec358bf60b7997360c599b47fed25a719b0d39",
}


def provenance_digest(name, root):
    _, outdir = run_cli(name, 1, root)
    manifest = json.loads((outdir / "manifest.json").read_text())
    config = manifest["config"]
    del config["outputs"]["directory"], config["threads"]
    record = json.dumps([manifest["command"], manifest["artifacts"], config], sort_keys=True)
    return _sha(record.encode())


@pytest.mark.parametrize("name", sorted(CASES))
def test_provenance_matches_recorded_digest(name, tmp_path):
    assert provenance_digest(name, tmp_path) == PROVENANCE[name]


# each module-level digest, by its name, from the builder of an environment
# past the table; the concentration report's at one thread
MODULE_DIGESTS = {
    "CONTRACTION_DIGEST": lambda contracted: energy_digests(contracted)[0],
    "TABLE_DIGEST": lambda contracted: energy_digests(contracted)[1],
    "CONCENTRATION_DIGEST": lambda contracted: concentration_digest(1),
    "INITIAL_TERM_CONTRACTION_DIGEST": functools.partial(initial_term_digest, False),
    "INITIAL_TERM_TABLE_DIGEST": functools.partial(initial_term_digest, True),
    "TRUNCATED_MEAN_CONTRACTION_DIGEST": functools.partial(truncated_mean_digest, False),
    "TRUNCATED_MEAN_TABLE_DIGEST": functools.partial(truncated_mean_digest, True),
    "LAPLACE_INTENSITY_CONTRACTION_DIGEST": functools.partial(laplace_intensity_digest, False),
    "LAPLACE_INTENSITY_TABLE_DIGEST": functools.partial(laplace_intensity_digest, True),
}


def print_digests(names, contracted):
    """Each named case's current digests, as entries of ``EXPECTED`` and then
    of ``PROVENANCE``, and each named module-level digest as its assignment;
    the runs' own verdict lines are held back."""
    expected, provenance = {}, {}
    for name in (name for name in names if name not in MODULE_DIGESTS):
        with tempfile.TemporaryDirectory() as data, tempfile.TemporaryDirectory() as record:
            with contextlib.redirect_stdout(io.StringIO()):
                expected[name] = run_case(name, 1, pathlib.Path(data))
                provenance[name] = provenance_digest(name, pathlib.Path(record))
    for name, (code, digests) in expected.items():
        print(f'    "{name}": ({code}, {{')
        for file, digest in digests.items():
            print(f'        "{file}": "{digest}",')
        print("    }),")
    for name, digest in provenance.items():
        print(f'    "{name}": "{digest}",')
    for name in (name for name in names if name in MODULE_DIGESTS):
        print(f'{name} = "{MODULE_DIGESTS[name](contracted)}"')


if __name__ == "__main__":
    from conftest import build_without_table

    print_digests(sys.argv[1:] or sorted(CASES) + list(MODULE_DIGESTS), build_without_table)
