"""Fixtures shared by the test modules."""

import pytest

from clockproc import environment


def build_without_table(build):
    """``build()``, an environment built while ``environment.MAX_TABLE_SPINS``
    is lowered below its n: it reads every energy by tensor contraction, the
    path past the table, at a size where the table path can be compared with
    it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(environment, "MAX_TABLE_SPINS", 0)
        env = build()
    assert not env.has_energy_table
    return env


@pytest.fixture
def contracted():
    """``contracted(build)`` is :func:`build_without_table`."""
    return build_without_table
