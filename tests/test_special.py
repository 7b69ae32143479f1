"""Accuracy of :mod:`clockproc.special` on fixed grids.

scipy is installed for the tests only, as an oracle: the scalar closed forms
are correctly rounded, so they are checked against mpmath at 50 digits,
where scipy itself is off by up to thousands of ulps (the incomplete gamma
at a = 416); the double-precision kernels are checked against scipy or
mpmath, and the Smirnov tail to 1e-10 relative.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import special as scipy_special
from scipy import stats

from clockproc import special
from clockproc.subordinator import arcsine_cdf

MP50 = mpmath.MPContext()
MP50.dps = 50


def ulps(values, reference) -> float:
    """Largest distance, in units in the last place of the reference."""
    values, reference = np.asarray(values), np.asarray(reference)
    return float(np.max(np.abs(values - reference) / np.spacing(np.abs(reference))))


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_betainc_is_the_rounded_50_digit_value(alpha):
    x = np.linspace(0.0, 1.0, 41)
    exact = [float(MP50.betainc(alpha, 1.0 - alpha, 0, v, regularized=True)) for v in x]
    assert ulps(special.betainc(alpha, 1.0 - alpha, x), exact) <= 1


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_gammaincc_at_one_minus_alpha_is_the_rounded_50_digit_value(alpha):
    a = 1.0 - alpha
    x = np.geomspace(1e-6, 10.0, 41)
    ours = [special.gammaincc(a, v) for v in x]
    exact = [float(MP50.gammainc(a, v, MP50.inf, regularized=True)) for v in x]
    assert ulps(ours, exact) <= 1


@pytest.mark.parametrize("theta", [38, 204, 416])
def test_gammaincc_gamma_tail_is_the_rounded_50_digit_value(theta):
    x = np.linspace(0.5 * theta, 1.5 * theta, 41)
    ours = [special.gammaincc(theta, v) for v in x]
    exact = [float(MP50.gammainc(theta, v, MP50.inf, regularized=True)) for v in x]
    assert ulps(ours, exact) <= 1


def test_digamma_is_the_rounded_50_digit_value():
    x = np.linspace(1e-3, 1.0, 101)
    assert ulps([special.digamma(v) for v in x], [float(MP50.digamma(v)) for v in x]) <= 1


def test_log_ndtr_matches_scipy_on_both_sides_of_each_branch():
    # ulps of log Phi, or of Phi itself where log Phi is small (z > 0),
    # since the quadrature exponentiates it
    z = np.linspace(-60.0, 40.0, 4001)
    ours, reference = special.log_ndtr(z), scipy_special.log_ndtr(z)
    distance = np.abs(ours - reference) / np.spacing(np.maximum(np.abs(reference), 1.0))
    assert distance.max() <= 4
    assert np.all(np.isfinite(ours))


def test_hyp1f1_series_is_within_two_ulps_of_the_50_digit_value():
    a = np.linspace(0.0, 1.0, 201)[:-1]
    exact = [float(MP50.hyp1f1(2, 3, -v)) for v in a]
    assert ulps(special.hyp1f1_2_3(a), exact) <= 2


@pytest.mark.parametrize("n", [1, 10, 91, 387, 3000])
def test_smirnov_matches_scipy_to_1e_10_relative(n):
    d = np.linspace(0.5 / n, 1.0, 200)
    ours = np.array([special.smirnov(n, x) for x in d])
    reference = scipy_special.smirnov(n, d)
    positive = reference > 1e-300
    assert np.max(np.abs(ours - reference)[positive] / reference[positive]) <= 1e-10
    assert np.all(ours[~positive] < 1e-290)
    assert special.smirnov(n, 1.0) == 0.0


def test_twice_smirnov_is_the_two_sided_tail_wherever_p_is_at_most_1e_2():
    """The clock jump law reads its two-sided p-value as twice the one-sided
    tail; where that p is at most 1e-2 it is within 1e-7 relative of the
    two-sided Kolmogorov-Smirnov tail."""
    for n in (10, 30, 100, 120, 300, 1000, 3000):
        d = np.linspace(0.5 / n, 1.0, 400)
        two_sided = stats.kstwo.sf(d, n)
        graded = (two_sided <= 1e-2) & (two_sided > 1e-300)
        doubled = np.array([2.0 * special.smirnov(n, x) for x in d[graded]])
        assert np.max(np.abs(doubled - two_sided[graded]) / two_sided[graded]) <= 1e-7


def test_arcsine_cdf_from_pool_threads_at_once_gives_the_serial_values(monkeypatch):
    """Four pool threads, more than the two cores the package is tuned for,
    switching every 10 us, share the one mpmath context."""
    x = np.linspace(0.0, 1.0, 25)
    alphas = [0.3, 0.7] * 8
    serial = [arcsine_cdf(alpha, x) for alpha in alphas]
    # the threads also race to make the context
    monkeypatch.setattr(special, "_CONTEXT", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda alpha: arcsine_cdf(alpha, x), alphas, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for ours, reference in zip(threaded, serial):
        assert np.array_equal(ours, reference)
    # mpmath raises the precision inside a call and restores the one it
    # found, so calls that interleaved would leave another one behind
    assert special._CONTEXT.dps == 30
