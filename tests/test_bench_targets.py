"""The benchmark tracer's targets still name functions of the package.

``bench/tracing.py`` wraps a fixed list of ``(module, attribute)`` targets
and refuses to run when one is missing.  This test resolves the same list
without installing the tracer, so a rename or deletion in ``src/`` fails
here instead of in a traced benchmark pass.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("clockproc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize(
    "module_name, attribute", sorted({(module, attr) for _, module, attr, _ in TARGETS})
)
def test_trace_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    # the tracer replaces the name in the owner's own namespace
    assert member in vars(owner)
