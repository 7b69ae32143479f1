"""Dense 2^n SRW kernel: a test oracle for the exact mixing check at small n.

The package computes the mixing violation on Hamming-distance classes; this
module evolves the full distribution over all 2^n states in float64 instead,
so the two routes share nothing but the model.
"""

import numpy as np

from clockproc.errors import DimensionMismatchError, ParameterValidationError


def apply_srw_kernel(vec: np.ndarray, n: int) -> np.ndarray:
    """One exact SRW transition applied to a dense distribution over 2^n states."""
    if vec.shape != (1 << n,):
        raise DimensionMismatchError(f"vector length {vec.shape} does not match 2^{n}")
    out = np.zeros_like(vec, dtype=np.float64)
    for b in range(n):
        flipped = vec.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(vec.shape)
        out += flipped
    return out / n


def exact_step_distribution(n: int, start: int, k: int) -> np.ndarray:
    """Distribution of the SRW after k steps from a packed start state."""
    if not 0 <= start < (1 << n):
        raise ParameterValidationError(f"start index {start} out of range for n={n}")
    if k < 0:
        raise ParameterValidationError(f"step count must be >= 0; got {k}")
    vec = np.zeros(1 << n)
    vec[start] = 1.0
    for _ in range(k):
        vec = apply_srw_kernel(vec, n)
    return vec


def dense_mixing_violation(n: int, theta: int) -> float:
    """max_y |pi (P_theta + P_theta+1)(y) - 2 pi^2| from the all-minus start."""
    pi = 2.0**-n
    dist = exact_step_distribution(n, 0, theta)
    pair = pi * (dist + apply_srw_kernel(dist, n))
    return float(np.max(np.abs(pair - 2.0 * pi * pi)))
