"""Verdict vocabulary shared by every check: pass, warn or fail.

A check reduces its evidence to one number and grades it against two
thresholds (:func:`ladder`).  Statistical agreement is graded in z-score
units, 4 to pass and 6 to warn (:func:`z_status`); fitted tail exponents are
graded against an absolute window (:func:`slope_status`), because at finite
n they deviate from the limit value systematically, not statistically.  A
Monte Carlo point whose effective sample size is below ``MIN_ESS`` has no
valid z-score; it warns and names itself.  A run's overall verdict is the
worst of its checks (:func:`worst`).
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "PASS_Z",
    "WARN_Z",
    "MIN_ESS",
    "SLOPE_WINDOW",
    "ladder",
    "z_score",
    "z_status",
    "slope_status",
    "worst",
]

PASS_Z = 4.0
WARN_Z = 6.0
MIN_ESS = 100.0

# acceptance window for fitted tail exponents; deviations from the limit
# exponent are dominated by the finite-n transient, so they are judged against
# this absolute window rather than the fit's statistical error
SLOPE_WINDOW = 0.15

_ORDER = {"pass": 0, "warn": 1, "fail": 2}


def ladder(value: float, pass_at: float, warn_at: float) -> str:
    """Pass when ``value <= pass_at``, warn when ``value <= warn_at``, else fail.

    Non-finite values fail.  A statistic where larger is better, such as a
    p-value, is graded negated, with negated thresholds.
    """
    if not math.isfinite(value):
        return "fail"
    if value <= pass_at:
        return "pass"
    if value <= warn_at:
        return "warn"
    return "fail"


def z_score(value: float, reference: float, spread: float) -> float:
    """|value - reference| in units of ``spread``.

    A spread that is not positive makes exact agreement score 0 and any
    disagreement infinity.
    """
    if spread > 0:
        return abs(value - reference) / spread
    return 0.0 if value == reference else math.inf


def z_status(z: float) -> str:
    return ladder(z, PASS_Z, WARN_Z)


def slope_status(deviation: float, se: float) -> str:
    """Inside the window passes; inside the window plus two standard errors warns."""
    return ladder(deviation, SLOPE_WINDOW, SLOPE_WINDOW + 2.0 * se)


def worst(statuses: Iterable[str]) -> str:
    """The most severe status, ordering pass < warn < fail; "pass" when empty."""
    return max(statuses, key=_ORDER.__getitem__, default="pass")
