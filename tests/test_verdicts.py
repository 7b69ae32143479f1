"""The shared pass / warn / fail vocabulary."""

import math

import pytest

from clockproc.verdicts import (
    PASS_Z,
    SLOPE_WINDOW,
    WARN_Z,
    ladder,
    slope_verdict,
    verdict,
    worst,
    z_score,
    z_status,
    z_verdict,
)


def test_ladder_smaller_is_better_keeps_inclusive_bounds():
    assert ladder(0.01, 0.01, 0.02) == "pass"
    assert ladder(0.015, 0.01, 0.02) == "warn"
    assert ladder(0.02, 0.01, 0.02) == "warn"
    assert ladder(0.021, 0.01, 0.02) == "fail"
    # equal thresholds leave no warn band
    assert ladder(1e-12, 1e-12, 1e-12) == "pass"
    assert ladder(2e-12, 1e-12, 1e-12) == "fail"


def test_ladder_grades_a_negated_p_value():
    # larger is better: pass at p >= 1e-3, warn at p >= 1e-6
    assert ladder(-0.5, -1e-3, -1e-6) == "pass"
    assert ladder(-1e-3, -1e-3, -1e-6) == "pass"
    assert ladder(-1e-4, -1e-3, -1e-6) == "warn"
    assert ladder(-1e-6, -1e-3, -1e-6) == "warn"
    assert ladder(-1e-7, -1e-3, -1e-6) == "fail"


def test_ladder_fails_non_finite_values():
    for value in (math.nan, math.inf, -math.inf):
        assert ladder(value, 0.01, 0.02) == "fail"


def test_z_status_thresholds():
    assert z_status(PASS_Z) == "pass"
    assert z_status(math.nextafter(PASS_Z, math.inf)) == "warn"
    assert z_status(WARN_Z) == "warn"
    assert z_status(math.nextafter(WARN_Z, math.inf)) == "fail"
    assert z_status(math.inf) == "fail"


def test_z_score_handles_zero_spread():
    assert z_score(1.5, 1.0, 0.25) == 2.0
    assert z_score(1.0, 1.5, 0.25) == 2.0
    assert z_score(1.0, 1.0, 0.0) == 0.0
    assert z_score(1.0, 1.5, 0.0) == math.inf


def test_worst_orders_pass_warn_fail():
    assert worst([]) == "pass"
    assert worst(["pass", "pass"]) == "pass"
    assert worst(["pass", "warn", "pass"]) == "warn"
    assert worst(iter(["warn", "fail", "pass"])) == "fail"


def test_verdict_records_its_evidence_and_status():
    assert verdict("fail", max_relative_error=0.5) == {"max_relative_error": 0.5, "status": "fail"}
    assert verdict("pass") == {"status": "pass"}


@pytest.mark.parametrize("status, lifted", [("pass", "warn"), ("warn", "warn"), ("fail", "fail")])
def test_a_note_makes_a_verdict_at_least_a_warning(status, lifted):
    assert verdict(status, "not graded", n=3) == {"n": 3, "status": lifted, "note": "not graded"}


def test_z_verdict_without_triples_passes_at_zero():
    assert z_verdict([]) == {"z": 0.0, "status": "pass"}
    assert z_verdict(iter([]), "nothing to grade") == {
        "z": 0.0, "status": "warn", "note": "nothing to grade"
    }


def test_z_verdict_takes_the_largest_z_folded_from_zero():
    triples = [(1.5, 1.0, 0.25), (1.0, 1.0, 0.0), (1.0, 2.0, 0.2), (math.nan, 0.0, 1.0)]
    assert z_verdict(triples) == {"z": 5.0, "status": "warn"}
    # a NaN z is skipped by the fold, as max(0.0, nan) is 0.0
    assert z_verdict([(math.nan, 0.0, 1.0)]) == {"z": 0.0, "status": "pass"}
    assert z_verdict([(1.0, 1.5, 0.0)])["status"] == "fail"
    # a note keeps a failure a failure
    assert z_verdict([(1.0, 2.0, 0.1)], "partly graded")["status"] == "fail"


def test_slope_verdict_grades_the_deviation_against_the_window():
    record = slope_verdict(-0.4, -0.3, 0.05)
    assert record == {
        "deviation": abs(-0.4 - -0.3), "tolerance": SLOPE_WINDOW, "status": "pass"
    }
    assert slope_verdict(-0.5, -0.3, 0.05)["status"] == "warn"
    assert slope_verdict(-0.5, -0.3, 0.01)["status"] == "fail"


def test_slope_verdict_fails_a_nan_fit_with_its_note():
    record = slope_verdict(math.nan, -0.3, math.nan, "no tail fit")
    assert math.isnan(record["deviation"])
    assert (record["status"], record["note"]) == ("fail", "no tail fit")


def test_graders_pass_evidence_named_like_their_parameters_through():
    # the graders' parameters are positional-only, so evidence keys such as
    # ``slope`` and ``z`` cannot collide with them
    record = slope_verdict(0.2, 0.0, 0.1, slope=0.2, z=3.0, fitted=1, target=2, se=0.1)
    assert (record["slope"], record["z"], record["se"]) == (0.2, 3.0, 0.1)
    assert (record["fitted"], record["target"]) == (1, 2)
    assert record["status"] == "warn"  # a deviation of 0.2 is inside 0.15 + 2 * 0.1
    assert z_verdict([], triples=1, value=2)["triples"] == 1


@pytest.mark.parametrize("key", ["status", "note"])
def test_verdict_refuses_a_status_or_note_passed_as_evidence(key):
    # a note passed by keyword would skip the rule that it makes a warning
    with pytest.raises(TypeError):
        verdict("pass", **{key: "x"})
