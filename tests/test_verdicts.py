"""The shared pass / warn / fail vocabulary."""

import math

from clockproc.verdicts import PASS_Z, WARN_Z, ladder, worst, z_score, z_status


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
