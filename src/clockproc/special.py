"""Every special function the package evaluates, for its closed forms.

The incomplete beta and gamma functions and digamma go through one private
mpmath context at 30 digits, so each is the correctly rounded double;
mpmath is imported at the first such call, and a lock guards the context,
whose precision mpmath changes inside a call.  The forms called too often
for mpmath have double-precision kernels: ``hyp1f1_2_3`` on the per-state
terms, ``log_ndtr`` on the quadrature's abscissae and ``smirnov``.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

__all__ = ["betainc", "gammaincc", "digamma", "hyp1f1_2_3", "log_ndtr", "smirnov"]

_LOCK = threading.Lock()
_CONTEXT = None

# Taylor coefficients 2 / ((k + 2) k!) of 1F1(2; 3; x): a remainder below
# 1e-18 on |x| < 1
_HYP1F1_2_3 = [2.0 / ((k + 2) * math.factorial(k)) for k in range(20)]
# (2k - 1)!!, the asymptotic series of erfcx(y) y sqrt(pi) in -1/(2 y^2): a
# remainder below 1e-22 at y >= 37/sqrt(2)
_ERFCX_SERIES = [math.factorial(2 * k) / (2**k * math.factorial(k)) for k in range(10)]
_erfc = np.vectorize(math.erfc, otypes=[float])


@contextlib.contextmanager
def _mpmath():
    """The private mpmath context, made at the first call, held under the lock."""
    global _CONTEXT
    with _LOCK:
        if _CONTEXT is None:
            import mpmath

            _CONTEXT = mpmath.MPContext()
            _CONTEXT.dps = 30
        yield _CONTEXT


def betainc(a: float, b: float, x) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, b), elementwise over x."""
    arr = np.asarray(x, dtype=np.float64)
    with _mpmath() as ctx:
        values = [float(ctx.betainc(a, b, 0, v, regularized=True)) for v in arr.flat]
    return np.array(values).reshape(arr.shape)


def gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x)."""
    with _mpmath() as ctx:
        return float(ctx.gammainc(a, x, ctx.inf, regularized=True))


def digamma(x: float) -> float:
    with _mpmath() as ctx:
        return float(ctx.digamma(x))


def _horner(x: np.ndarray, coefficients: list[float]) -> np.ndarray:
    out = np.full_like(x, coefficients[-1])
    for c in reversed(coefficients[:-1]):
        out = out * x + c
    return out


def hyp1f1_2_3(a: np.ndarray) -> np.ndarray:
    """1F1(2; 3; -a) for a in [0, 1), by its Taylor series."""
    return _horner(-np.asarray(a, dtype=np.float64), _HYP1F1_2_3)


def log_ndtr(z) -> np.ndarray:
    """log Phi(z), with t = z/sqrt(2): log1p(-erfc(t)/2) above 0 and
    log(erfc(-t)/2) below; below -37, where erfc(-t) nears the smallest
    normal double, log(erfcx(-t)/2) - t^2 by erfcx's asymptotic series."""
    z = np.asarray(z, dtype=np.float64)
    t = z * math.sqrt(0.5)
    out = np.empty_like(t)
    upper, tail = z > 0, z < -37.0
    lower = ~(upper | tail)
    out[upper] = np.log1p(-0.5 * _erfc(t[upper]))
    out[lower] = np.log(0.5 * _erfc(-t[lower]))
    y = -t[tail]
    series = _horner(-0.5 / (y * y), _ERFCX_SERIES)
    out[tail] = np.log(series / (2.0 * math.sqrt(math.pi) * y)) - y * y
    return out


def smirnov(n: int, d: float) -> float:
    """One-sided Kolmogorov-Smirnov tail P(D_n^+ >= d) for d > 0, by the
    Birnbaum-Tingey sum d * sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)
    over the j with 1 - d - j/n > 0, in log space."""
    j = np.arange(n)
    rest = 1.0 - d - j / n
    j, rest = j[rest > 0], rest[rest > 0]
    if j.size == 0:  # d >= 1
        return 0.0
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    logs = (
        log_factorials[n] - log_factorials[j] - log_factorials[n - j]
        + (n - j) * np.log(rest) + (j - 1) * np.log(d + j / n)
    )
    peak = float(logs.max())
    return d * math.exp(peak) * float(np.exp(logs - peak).sum())
