"""Byte-level regression guard for every data-producing subcommand.

Each case runs one subcommand through ``cli.main`` on a small pinned config
at one and two threads and compares the SHA-256 of every data file it writes
(everything except ``manifest.json``, which records package versions) with
digests recorded from a reference build.  The manifest's verdict block is
hashed too, so a change in any status, statistic or derived scale shows up.
A refactor that is meant to leave the numbers alone must leave these digests
alone; a change that moves a Monte Carlo value on purpose updates them and
says so.
"""

import hashlib
import json

import numpy as np
import pytest

from clockproc.cli import main
from clockproc.environment import Environment

pytestmark = pytest.mark.filterwarnings("ignore:block length")

SEED = 20260822


def _model(n, beta, gamma):
    return {"n": n, "p": 3, "beta": beta, "gamma": gamma}


# name -> (subcommand, config document, extra argv)
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
        [],
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
        [],
    ),
    "laplace": (
        "laplace",
        {"model": _model(10, 3.0, 2.7), "budgets": {"samples": 3000}},
        [],
    ),
    "laplace-flat": (
        "laplace",
        {
            "model": _model(6, 0.0, 0.5),
            "budgets": {"samples": 2000},
            "grids": {"v_grid": [0.1, 1.0, 10.0]},
            "overrides": {"block_count": 5},
        },
        [],
    ),
    "clock": (
        "clock",
        {
            "model": _model(10, 3.0, 2.7),
            "budgets": {"replicas": 6},
            "grids": {"u_grid": [0.25, 0.5]},
            "overrides": {"block_count": 8},
        },
        ["--dump-trajectory"],
    ),
    "aging": (
        "aging",
        {
            "model": _model(8, 3.0, 2.7),
            "budgets": {"replicas": 40, "step_cap": 2_000_000},
            "grids": {"ts_grid": [[1.0, 1.0], [1.0, 0.25]]},
        },
        [],
    ),
    "subordinator": (
        "subordinator",
        {
            "budgets": {"samples": 4000},
            "grids": {"ts_grid": [[1.0, 1.0], [1.0, 0.25]], "v_grid": [0.3, 1.0, 3.0]},
        },
        [],
    ),
}

# (exit code, {file: sha256}); "verdicts" is the manifest's verdict block
EXPECTED = {
    "aging": (0, {
        "aging.csv": "cd27e68e57c143fa48b589d98034a1223f9336daf330eb18f58d51c690ce3e1a",
        "aging_reference.csv": "e62bcf8688c1071852386bca06b98148fa93c0dd904f2d41f7a67b3b3083ee3e",
        "traps.csv": "b9077c431bfe4d4e67c2d796752ab3df93dcac7decc45b42dd7ddde39b165d52",
        "verdicts": "987ca76d7cebd059dca63af9e4c8a0c081f2da37947b987e153bf191ef0ae051",
    }),
    "clock": (0, {
        "clock.csv": "fa7153d6f63569d37707d109c356524eb7dd76838e5208898ee535b3fb811a31",
        "clock_initial_terms.csv": "8e1151aa4ab6f5a28037d0e4cee7b0c37e34ac69187e39924b89e003d24d92f1",
        "clock_jumps.csv": "fd05a62c0b8f496dbdc8706c0ace3c568d62caa028e187c1a770169d7feb9b0d",
        "trajectory.csv": "994ced234fc24715953352df64efd1c5701e209c7e3da38fb363722423389dab",
        "verdicts": "4c7b23e52b942b73682c80a46a35b91d612386963913f6349972b94303a34737",
    }),
    "conditions": (3, {
        "conditions.csv": "1f11a2e5418069afeac2ee6d96410aff59ac9e45d6c814a44e6d0f8fe0f0fd96",
        "conditions.json": "d242fb77fea1bc6997997d2695025d13308850ddc64bdf61c4a6eb75e8f70954",
        "verdicts": "07e9b24211f90dd147ac561fef31e16f5b9d99c36e7d7ec78dc64432599a1c07",
    }),
    "conditions-flat": (0, {
        "conditions.csv": "ec5d6e6291970bc3f156f6703da79da69e5d6a04a440268806a0918a054790a9",
        "conditions.json": "3279aea1cc40507a036afb66849ac5a65a4b91bf05ac312499d4d32d21097f0d",
        "verdicts": "feb99eead16a503ba867156783945345ac34ccb1066eccb34b24d8464962c3ca",
    }),
    "laplace": (0, {
        "laplace.csv": "8f2bdf2256a603ac0aca8412789deebab156b60aebee8d847aee69a6fc0706bf",
        "verdicts": "4f9b481a8c0f1878a7bdeae2866f4fe80a363cc6c0cedcb630b320108cabcc19",
    }),
    "laplace-flat": (0, {
        "laplace.csv": "93225dd70c6f62458ca5533aa83439629af497eb86c44b1a101b07fd54056f25",
        "verdicts": "79615e585f946960b80a8ea7b505cca1a894e1ba2622422c35d5326d1e59c8e1",
    }),
    "subordinator": (2, {
        "subordinator_arcsine.csv": "3822016cd03c5ed7bd4f1e4dd9658801c71fccaed16261171aee91488289d20f",
        "subordinator_laplace.csv": "2e8aefb9cd585c3de81db8b7885aac42133ef1fe5ad8130ce2b96896694fb9ce",
        "verdicts": "a1bfaa2b0968624f6dc968b9ae252f2b3ae1c52f8883769dbf61b6c8f0d76b72",
    }),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, threads, root):
    command, document, extra = CASES[name]
    cfg_path = root / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(document, seeds={"master_seed": SEED})))
    outdir = root / f"{name}-t{threads}"
    code = main(
        [command, "--config", str(cfg_path), "--out", str(outdir), "--threads", str(threads)]
        + extra
    )
    digests = {
        path.name: _sha(path.read_bytes())
        for path in sorted(outdir.iterdir())
        if path.name != "manifest.json"
    }
    manifest = json.loads((outdir / "manifest.json").read_text())
    digests["verdicts"] = _sha(
        json.dumps([manifest["verdicts"], manifest["overall"]], sort_keys=True).encode()
    )
    return code, digests


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_data_files_match_recorded_digests(name, threads, tmp_path):
    assert run_case(name, threads, tmp_path) == EXPECTED[name]


# energies of the contraction path (no table) and of the table, as raw bytes
CONTRACTION_DIGEST = "d844d4eeccb871dbce81971d6891943cfdfbc3e223090a265c3b728b9eee8aff"
TABLE_DIGEST = "cb17333538f13519c9f0562925bd327f48e61ec3fd9e288a928ef7b09f4adcf0"


def energy_digests():
    states = np.random.Generator(np.random.Philox(key=SEED)).integers(
        0, 1 << 10, size=5000, dtype=np.uint64
    )
    contracted = Environment.create(10, 3, 3.0, 2.7, SEED, build_table=False).energies(states)
    table = Environment.create(10, 3, 3.0, 2.7, SEED, build_table=True).energy_table
    return _sha(contracted.tobytes()), _sha(table.tobytes())


def test_energy_paths_match_recorded_digests():
    assert energy_digests() == (CONTRACTION_DIGEST, TABLE_DIGEST)
