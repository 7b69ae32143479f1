"""The benchmark tracer's targets still name functions of the package.

``bench/tracing.py`` wraps a fixed list of ``(module, attribute)`` targets
and refuses to run when one is missing.  This test resolves the same list
without installing the tracer, so a rename or deletion in ``src/`` fails
here instead of in a traced benchmark pass.  It also checks that the
boundary guard's allowlist of public functions no package module runs holds
tracer targets only.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from clockproc.subordinator import crossing_probability_batch
from test_module_boundaries import RUN_ONLY_BY_CALLERS

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("clockproc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracing()
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize(
    "module_name, attribute", sorted({(module, attr) for _, module, attr, _ in TARGETS})
)
def test_trace_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    # the tracer replaces the name in the owner's own namespace
    assert member in vars(owner)


def test_functions_no_module_runs_are_all_tracer_targets():
    """A public function that no package module runs stays in ``src/`` only
    while the tracer wraps it; any other belongs in the tests as an oracle."""
    wrapped = {f"{module.rpartition('.')[2]}.py:{attr}" for _, module, attr, _ in TARGETS}
    assert RUN_ONLY_BY_CALLERS <= wrapped


def test_crossing_counter_reads_every_pair_of_a_batch():
    rng = np.random.default_rng(4)
    paths, width = 40, 12
    counts = rng.integers(0, width, size=paths)
    real = np.arange(width)[None, :] < counts[:, None]
    times = np.where(real, np.sort(rng.uniform(0.0, 4.0, size=(paths, width)), axis=1), np.inf)
    sizes = np.where(real, rng.pareto(0.5, size=(paths, width)) * 0.05, 0.0)
    args = (times, sizes, counts, 0.3, [(1.0, 1.0), (1.0, 0.25), (2.0, 0.5)])
    result = crossing_probability_batch(*args)
    tally = TRACER._crossing_rows(args, {}, result)
    assert tally["rows"] == 3 * paths
    assert tally["decided"] == int((result >= 0).sum())
    assert 0 < tally["decided"] < tally["rows"]
