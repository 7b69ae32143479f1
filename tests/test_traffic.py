"""The package functions that the six subcommands on ``{}`` leave uncalled,
recorded by ``tests/traffic.py``'s line tracer and pinned here, so that a
function the shipped runs stop calling, or start calling, shows up."""

import pytest

import traffic

# ``module.py:qualname`` of each function of the package that none of the
# six subcommands calls on ``{}`` at --threads 2 (see tests/traffic.py for
# why each is left out)
NEVER_CALLED = {
    "aging.py:correlation_indicator",
    "chain.py:TrajectorySegment.cumulative",
    "chain.py:extend_segment",
    "chain.py:process_at_time",
    "cli.py:_closed_form_check",
    "cli.py:_Parser.error",
    "conditions.py:conditional_block_laplace",
    "conditions.py:_require_unit_holding",
    "conditions.py:degenerate_block_tail",
    "conditions.py:degenerate_block_laplace",
    "conditions.py:degenerate_initial_term",
    "config.py:_as_zeta_table",
    "environment.py:_signs_from_bits",
    "environment.py:_energy_fold",
    "environment.py:Environment._contract",
    "subordinator.py:SubordinatorPath.compensation_rate",
    "subordinator.py:SubordinatorPath.values",
    "subordinator.py:SubordinatorPath.supremum",
    "subordinator.py:extend_path",
    "subordinator.py:crossing_probability",
}


@pytest.fixture(scope="module")
def recorders():
    """Subcommand -> the lines its run on ``{}`` at --threads 2 reached."""
    recorded = {}
    for command in traffic.SUBCOMMANDS:
        recorder = traffic.LineRecorder()
        # the shipped subordinator run keeps its known warn verdicts
        assert traffic.run(recorder, command, {}, 2) == (2 if command == "subordinator" else 0)
        recorded[command] = recorder
    return recorded


def never_called(recorders, commands) -> set[str]:
    """The functions that none of the runs of ``commands`` called."""
    merged = traffic.LineRecorder()
    for command in commands:
        merged.lines |= recorders[command].lines
    return {name for name, _, called in traffic.unreached(merged) if not called}


def test_default_runs_leave_the_pinned_functions_uncalled(recorders):
    assert never_called(recorders, traffic.SUBCOMMANDS) == NEVER_CALLED


def test_the_check_sees_a_run_left_out(recorders):
    """Without ``mixing`` its exact check is never called, and the pinned
    set no longer matches."""
    rest = [command for command in traffic.SUBCOMMANDS if command != "mixing"]
    uncalled = never_called(recorders, rest)
    assert "chain.py:mixing_check" in uncalled - NEVER_CALLED
    assert uncalled != NEVER_CALLED
