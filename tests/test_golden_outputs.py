"""Byte-level regression guard for every data-producing subcommand.

Each case runs one subcommand through ``cli.main`` on a small pinned config
at one and two threads and compares the SHA-256 of every data file it writes
(everything except ``manifest.json``, which records package versions) with
digests recorded from a reference build.  The manifest's verdict block is
hashed too, so a change in any status, statistic or derived scale shows up.
The concentration estimator, which no subcommand runs, is pinned by the
digest of its whole report, and the initial-term and transform-intensity
estimates by theirs on both energy paths (the golden configs above only
reach the table path, in chunks of at least 2^n states).  Each case's
provenance -- its command, the manifest's artifact records and its resolved
config -- is pinned by digest as well.
A refactor that is meant to leave the numbers alone must leave these digests
alone; a change that moves a Monte Carlo value on purpose updates them and
says so.
"""

import hashlib
import json

import numpy as np
import pytest

from clockproc.cli import main
from clockproc import conditions
from clockproc.conditions import (
    concentration_diagnostic,
    estimate_initial_term,
    estimate_intensity_laplace,
    plain,
)
from clockproc.environment import Environment
from clockproc.seeding import ReplicaStreams

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
        "clock.csv": "b072f6ceadf796d145e653d2f1a8cab0112ce0bd9485489413e327c1d42f6d08",
        "clock_initial_terms.csv": "8e1151aa4ab6f5a28037d0e4cee7b0c37e34ac69187e39924b89e003d24d92f1",
        "clock_jumps.csv": "0957ed781e1b7bf56e382419aeabef6261a0629759c042a1b5161b7052a5ec03",
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
    "subordinator": (0, {
        "subordinator_arcsine.csv": "afc9af3783c4b3d0f2d2ed4083186469050d113f2f6a82d5aff4092c189166c0",
        "subordinator_laplace.csv": "6d6e8f9440c73a8f37a0db344cbcf17b2eedcd668f191ac4de5c6abdbe71911f",
        "verdicts": "d0c1d197cebf858965f77962a814b0efe229b830b0ca1727e8224eed8e3090d3",
    }),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(name, threads, root):
    """Runs one case through ``main``; returns its exit code and output directory."""
    command, document, extra = CASES[name]
    cfg_path = root / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(document, seeds={"master_seed": SEED})))
    outdir = root / f"{name}-t{threads}"
    code = main(
        [command, "--config", str(cfg_path), "--out", str(outdir), "--threads", str(threads)]
        + extra
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


@pytest.mark.parametrize("threads", [1, 2])
def test_concentration_report_matches_recorded_digest(threads):
    report = concentration_diagnostic(
        8, 3, 2.0, 1.5, 1.0, 1.0, master_seed=7, replicas=12, walk_blocks=40,
        pair_samples=50, block_count=3, threads=threads,
    )
    assert _sha(json.dumps(report.to_dict(), sort_keys=True).encode()) == CONCENTRATION_DIGEST


# exact and Monte Carlo initial-term estimates, serialised with sorted keys;
# the contraction path and the table path give the same bytes
INITIAL_TERM_DIGEST = "a32f1bf80efa0c91913e9ddba0a6f37fac9e5d41212547df82949421fc142ceb"


@pytest.mark.parametrize("table", [False, True])
def test_initial_terms_match_recorded_digest(table, contracted):
    env = create_env() if table else contracted(create_env)
    streams = ReplicaStreams.from_seed(SEED)
    v_grid = [0.1, 1.0, 10.0, 100.0]
    exact = estimate_initial_term(env, v_grid, exact=True)
    monte_carlo = estimate_initial_term(env, v_grid, 5000, streams)
    document = json.dumps(plain([exact, monte_carlo]), sort_keys=True)
    assert _sha(document.encode()) == INITIAL_TERM_DIGEST


# transform-intensity values and stderrs, serialised as JSON; at n = 10
# (theta = 104) a 5,000-state chunk limit walks 48 samples per chunk, so 1,013
# samples give 21 chunks of 4,992 states, above 2^10, and a ragged last chunk
# of 520, below it; the contraction path and the table path give the same bytes
LAPLACE_INTENSITY_DIGEST = "81ef36ddddf4706822b2ab22440cb3b42355c957d23ecf912b8b8ede55e7244e"


@pytest.mark.parametrize("table", [False, True])
def test_laplace_intensity_matches_recorded_digest(table, contracted, monkeypatch):
    monkeypatch.setattr(conditions, "_CHUNK_STATES", 5000)
    env = create_env() if table else contracted(create_env)
    est = estimate_intensity_laplace(
        env, None, [0.1, 1.0, 10.0, 100.0], 1013, ReplicaStreams.from_seed(SEED), block_count=4
    )
    document = json.dumps(plain([est.values, est.stderrs]))
    assert _sha(document.encode()) == LAPLACE_INTENSITY_DIGEST


# provenance of each case's run: the command, the manifest's artifact records
# and its resolved config, less the output directory and the thread count,
# serialised with sorted keys
PROVENANCE = {
    "aging": "ba8d3771455dec313264b54b3b0ef80e9ade71ea6ed4bca0c50bc51a1f5b54a9",
    "clock": "aec744bae7af47b3be8b5c491e6e37941ae114670ad2deddc266d277177a8dee",
    "conditions": "44639bdc91b2f644da7b61baba8d01fe0cdc52b050f1acbe759291ac55e3ffac",
    "conditions-flat": "5f57b21db5e0a8b8369e0136a16b5ebd0f4744ec65f4d63fa9706a58105e3547",
    "laplace": "f9a3a0255c46d87bed75a8729c50249e16729411e94617edbd90d6e6bd6ef96a",
    "laplace-flat": "032472b10a723f1349e934fa001856def905f1c4c5c3d35f1ec9084e9ad3499c",
    "subordinator": "d901e662b27e6d1312328c8e091f03ceb34a52cc1d415bd23798944b45a85231",
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
