"""Verdict vocabulary shared by every check: pass, warn or fail.

A check reduces its evidence to one number and grades it against two
thresholds (:func:`ladder`).  Statistical agreement is graded in z-score
units, 4 to pass and 6 to warn (:func:`z_status`); fitted tail exponents are
graded against an absolute window (:func:`slope_status`), because at finite
n they deviate from the limit value systematically, not statistically.
:func:`verdict` alone writes a record's status (:func:`z_verdict` and
:func:`slope_verdict` call it); a check that could not grade everything it
was given, such as a Monte Carlo point whose effective sample size is below
``MIN_ESS``, says so in a note and warns at least.  A run's overall verdict
is the worst of its checks (:func:`worst`).
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
    "verdict",
    "z_verdict",
    "slope_verdict",
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


def verdict(status: str, note: str | None = None, /, **evidence) -> dict:
    """The evidence, its status and, if given, a note, which lifts ``status``
    to at least "warn"; a failure stays a failure."""
    if {"status", "note"} & evidence.keys():
        raise TypeError("a status or note is not evidence; pass them positionally")
    if note is not None:
        status, evidence["note"] = worst([status, "warn"]), note
    return evidence | {"status": status}


def z_verdict(triples: Iterable[tuple], note: str | None = None, /, **evidence) -> dict:
    """The largest :func:`z_score` over (value, reference, spread) triples,
    folded from 0.0 in order (no triples give 0), as ``z``."""
    z = 0.0
    for value, reference, spread in triples:
        z = max(z, z_score(value, reference, spread))
    return verdict(z_status(z), note, z=z, **evidence)


def slope_verdict(
    fitted: float, target: float, se: float, note: str | None = None, /, **evidence
) -> dict:
    """A fitted exponent's ``deviation`` from its target, graded by
    :func:`slope_status` against the window, its ``tolerance``; NaN fails."""
    deviation = abs(fitted - target)
    return verdict(
        slope_status(deviation, se), note, deviation=deviation, tolerance=SLOPE_WINDOW, **evidence
    )
