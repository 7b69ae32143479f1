"""Gaussian multilinear (p-spin) random environments on the hypercube.

A configuration of ``n`` spins is a corner of {-1,+1}^n, stored as an integer
bitmask.  The environment attaches an independent standard Gaussian coupling
to every ordered p-tuple of sites and defines the energy

    H(x) = n^{-(p-1)/2} * sum_{i1..ip} J[i1,...,ip] * x[i1] * ... * x[ip],

a centred Gaussian field with covariance  E H(x) H(y) = n * R(x,y)^p  in the
normalised overlap R(x,y) = (1/n) sum_i x_i y_i (repeated indices included in
the sum, which is what makes the covariance exact at every n).  Mean holding
times of the hopping dynamics are tau(x) = exp(beta * H(x)).

Energies are read through ``Environment.energies``: up to n = 22
(``MAX_TABLE_SPINS``, a 32 MB table) by a gather from the table of all 2^n
energies, which the first lookup builds with one Walsh-Hadamard transform of
the couplings, and past that by tensor contraction of the states asked for.

The module also derives the scale parameters of the accelerated dynamics:
observation time scale exp(gamma*n), jump-count scale sqrt(n) *
exp(n*gamma^2/(2*beta^2)), aggregation block length ceil((3*ln2/2)*n^2), and
the tail exponent alpha = gamma/beta^2.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScaleError,
    DimensionMismatchError,
    ParameterValidationError,
)
from .seeding import keyed_generator

__all__ = [
    "SpinConfig",
    "CouplingTensor",
    "Environment",
    "zeta",
    "validate_parameters",
    "block_length",
    "ZETA_LIMIT",
    "DEFAULT_ZETA_TABLE",
    "EXP_OVERFLOW",
    "MAX_SPINS",
    "MAX_TABLE_SPINS",
]

# Large-p limit of the admissible-slope coefficient: sqrt(2*ln 2).
ZETA_LIMIT = math.sqrt(2.0 * math.log(2.0))

# Certified value for p=3; the p=4 entry is a placeholder pending a better
# constant and can be overridden via configuration.
DEFAULT_ZETA_TABLE: dict[int, float] = {3: 1.0291, 4: 1.07}

EXP_OVERFLOW = 709.0  # exp() overflows float64 just above this

# largest spin count whose packed states (and uniform draws below 1 << n) fit in uint64
MAX_SPINS = 63

# largest spin count whose 2^n energies are tabulated (2^22 float64 = 32 MB),
# and so the largest one at which every state is enumerated for exact references
MAX_TABLE_SPINS = 22

_LOG2 = math.log(2.0)


def zeta(p: int, table: dict[int, float] | None = None) -> float:
    """Admissible-slope coefficient zeta(p), interpolated linearly in 1/p.

    Values for p in the table are returned as-is; for larger p the value is
    interpolated between the largest tabulated p and the large-p limit
    sqrt(2*ln 2) along the 1/p axis.
    """
    if p < 3:
        raise ParameterValidationError(f"zeta(p) requires p >= 3; got p={p}")
    tab = dict(DEFAULT_ZETA_TABLE)
    if table:
        tab.update({int(k): float(v) for k, v in table.items()})
    if p in tab:
        return tab[p]
    p_anchor = max(tab)
    z_anchor = tab[p_anchor]
    # linear in 1/p between (1/p_anchor, z_anchor) and (0, ZETA_LIMIT)
    return ZETA_LIMIT + (z_anchor - ZETA_LIMIT) * (p_anchor / p)


def block_length(n: int) -> int:
    """Aggregation block length: ceil((3*ln2/2) * n^2)."""
    return math.ceil(1.5 * _LOG2 * n * n)


@dataclass(frozen=True)
class SpinConfig:
    """One corner of the hypercube {-1,+1}^n, packed into an integer.

    Bit ``b`` set means spin ``x_b = +1``; cleared means ``-1``.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_SPINS:
            raise ParameterValidationError(f"spin count must be in [1, {MAX_SPINS}]; got n={self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ParameterValidationError(
                f"state index {self.bits} out of range for n={self.n}"
            )

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "SpinConfig":
        return cls(n, int(rng.integers(0, 1 << n, dtype=np.uint64)))


def overlap_to_reference(states: np.ndarray, reference, n: int) -> np.ndarray:
    """Normalised overlap R = (n - 2 * Hamming distance) / n, in [-1, 1], of
    packed states against one reference state, or elementwise against an
    array of them."""
    diff = np.bitwise_xor(states.astype(np.uint64), np.asarray(reference, dtype=np.uint64))
    return (n - 2.0 * np.bitwise_count(diff)) / n


@dataclass(frozen=True)
class CouplingTensor:
    """The n^p i.i.d. standard Gaussian couplings of one environment draw.

    ``values`` is the flat C-ordered array over ordered index tuples
    (i1,...,ip), i.e. tuple-lexicographic order.  Tensors sampled from a seed
    regenerate bit-exactly from that seed.
    """

    n: int
    p: int
    seed: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ParameterValidationError(f"tensor order must be >= 2; got p={self.p}")
        if self.values.shape != (self.n**self.p,):
            raise DimensionMismatchError(
                f"coupling array has {self.values.size} entries; expected n^p = {self.n ** self.p}"
            )
        # freeze a private copy, so the caller's array stays writeable
        values = np.array(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, n: int, p: int, seed: int) -> "CouplingTensor":
        values = keyed_generator(seed).standard_normal(n**p)
        return cls(n=n, p=p, seed=seed, values=values)


def validate_parameters(
    n: int,
    p: int,
    beta: float,
    gamma: float,
    zeta_table: dict[int, float] | None = None,
) -> None:
    """Check that (n, p, beta, gamma) is a model clockproc runs.

    That is admissibility 0 < gamma < min(beta^2, zeta(p)*beta) at a finite
    beta > 0, which guarantees 0 < alpha = gamma/beta^2 < 1 for the limiting
    tail exponent, or the flat reference chain beta = 0 at a finite gamma >=
    0, which has no limit law and so no admissibility bound.  Raises
    ParameterValidationError naming the violated bound.
    """
    if not isinstance(n, int) or not 2 <= n <= MAX_SPINS:
        raise ParameterValidationError(f"n must be an integer in [2, {MAX_SPINS}]; got {n!r}")
    if not isinstance(p, int) or p < 3:
        raise ParameterValidationError(f"p must be an integer >= 3; got {p!r}")
    if beta == 0:
        if not 0 <= gamma < math.inf:
            raise ParameterValidationError(
                f"gamma must be nonnegative and finite at beta = 0; got gamma={gamma}"
            )
        return
    if not 0 < beta < math.inf:
        raise ParameterValidationError(f"beta must be positive and finite, or 0; got beta={beta}")
    if not gamma > 0:
        raise ParameterValidationError(f"gamma must be positive; got gamma={gamma}")
    z = zeta(p, zeta_table)
    bound = min(beta * beta, z * beta)
    if not gamma < bound:
        raise ParameterValidationError(
            f"gamma must satisfy gamma < min(beta^2, zeta(p)*beta) "
            f"= min({beta * beta:g}, {z:g}*{beta:g}) = {bound:g}; got gamma={gamma}"
        )


def _signs_from_bits(bits: np.ndarray, n: int) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64)
    return (((bits[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64) * 2.0) - 1.0


def _energy_fold(values: np.ndarray, n: int, p: int, signs: np.ndarray) -> np.ndarray:
    """Contract the coupling tensor against the +-1 vector of each row of signs."""
    b = signs.shape[0]
    r = signs @ values.reshape(n, -1)
    for _ in range(p - 2):
        r = np.einsum("bij,bi->bj", r.reshape(b, n, -1), signs)
    h = np.einsum("bi,bi->b", r.reshape(b, n), signs)
    return h * float(n) ** (-(p - 1) / 2.0)


# states contracted per batch, for on-demand energies past the table
_CONTRACT_CHUNK = 4096


def _walsh_table(values: np.ndarray, n: int, p: int) -> np.ndarray:
    """The energies of all 2^n states in state order, by a Walsh-Hadamard transform.

    Since x_i^2 = 1, each ordered tuple's coupling is a coefficient of the
    product over the sites S that occur in it an odd number of times, the
    XOR of 1 << i over the tuple, and |S| has the parity of p.  With x_i = +1
    where bit i of b is set, that product is (-1)^p (-1)^|S & b|, so the
    table is (-1)^p n^{-(p-1)/2} times the transform of the summed
    coefficients: n passes of in-place butterflies over one half-size buffer.
    """
    # uint32 site sets cover n <= MAX_TABLE_SPINS at half the couplings' bytes
    site = np.left_shift(np.uint32(1), np.arange(n, dtype=np.uint32))
    masks = site
    for _ in range(p - 1):
        masks = (masks[:, None] ^ site).reshape(-1)
    table = np.bincount(masks, weights=values, minlength=1 << n)
    half = np.empty(table.size // 2)
    for level in range(n):
        pairs = table.reshape(-1, 2, 1 << level)
        low, high = pairs[:, 0], pairs[:, 1]
        total = half.reshape(low.shape)
        np.add(low, high, out=total)
        np.subtract(low, high, out=high)
        low[...] = total
    table *= (-1.0) ** p * float(n) ** (-(p - 1) / 2.0)
    return table


class Environment:
    """Immutable sampled environment: couplings, (beta, gamma), derived scales.

    :meth:`create` samples the couplings from a seed for every model that
    :func:`validate_parameters` accepts, the flat beta = 0 chain included.
    The bare constructor takes any couplings and any beta, gamma >= 0, so
    tests also build oracle configurations outside that domain with it.

    :meth:`energies` is the one way to read the energies.  At n <=
    ``MAX_TABLE_SPINS`` it gathers from the table of all 2^n energies, so
    trajectory simulation reduces to bitmask XOR plus a table lookup and a
    state's energy does not depend on the batch it is read in; the first call
    builds that table, once, under a lock, by a Walsh-Hadamard transform of
    the couplings, and the constructor builds nothing.  Past that bound
    energies are contracted on demand, and their last bit can move with the
    batch.  ``has_energy_table`` records which path this environment reads.
    """

    __slots__ = (
        "couplings",
        "n",
        "p",
        "beta",
        "gamma",
        "alpha",
        "block_length",
        "log_time_scale",
        "time_scale",
        "step_scale",
        "has_energy_table",
        "_energy_table",
        "_table_lock",
    )

    def __init__(self, couplings: CouplingTensor, beta: float, gamma: float) -> None:
        if not (beta >= 0 and gamma >= 0):
            raise ParameterValidationError(
                f"beta and gamma must be nonnegative; got beta={beta}, gamma={gamma}"
            )
        self.couplings = couplings
        self.n = n = couplings.n
        self.p = couplings.p
        self.beta = beta = abs(float(beta))  # -0.0 is stored as the flat chain's 0.0
        self.gamma = gamma = float(gamma)
        self.block_length = block_length(n)
        # the tail exponent gamma/beta^2 and the jump-count scale
        # sqrt(n) * exp(n*gamma^2/(2*beta^2)) do not exist at beta = 0 (None
        # there); scales whose exponent leaves the float64 range saturate to inf
        self.log_time_scale = gamma * n
        self.time_scale = math.exp(gamma * n) if gamma * n < EXP_OVERFLOW else math.inf
        self.alpha = self.step_scale = None
        if beta > 0:
            exponent = n * gamma * gamma / (2.0 * beta * beta)
            self.alpha = gamma / (beta * beta)
            self.step_scale = (
                math.sqrt(n) * math.exp(exponent) if exponent < EXP_OVERFLOW else math.inf
            )
        self.has_energy_table = n <= MAX_TABLE_SPINS
        self._energy_table = None
        self._table_lock = threading.Lock()

    @classmethod
    def create(
        cls,
        n: int,
        p: int,
        beta: float,
        gamma: float,
        seed: int,
        zeta_table: dict[int, float] | None = None,
    ) -> "Environment":
        """Environment of a model :func:`validate_parameters` accepts (the flat
        beta = 0 chain too), with its couplings sampled from ``seed``."""
        validate_parameters(n, p, beta, gamma, zeta_table)
        env = cls(CouplingTensor.sample(n, p, seed), beta, gamma)
        if env.step_scale is not None and env.block_length >= 0.5 * env.step_scale:
            warnings.warn(
                f"block length {env.block_length} is not small against the "
                f"jump-count scale {env.step_scale:.3g} at n={n}; "
                "block-level asymptotics are unreliable at this size",
                stacklevel=2,
            )
        return env

    def _contract(self, states: np.ndarray) -> np.ndarray:
        """Energies of a flat array of packed states by tensor contraction, one
        chunk at a time."""
        out = np.empty(states.size)
        for lo in range(0, states.size, _CONTRACT_CHUNK):
            chunk = states[lo : lo + _CONTRACT_CHUNK]
            out[lo : lo + chunk.size] = _energy_fold(
                self.couplings.values, self.n, self.p, _signs_from_bits(chunk, self.n)
            )
        return out

    def _table(self) -> np.ndarray:
        """The energies of all 2^n states in state order, built at the first call."""
        table = self._energy_table
        if table is None:
            with self._table_lock:
                table = self._energy_table
                if table is None:
                    table = _walsh_table(self.couplings.values, self.n, self.p)
                    table.setflags(write=False)
                    self._energy_table = table
        return table

    def energies(self, bits) -> np.ndarray:
        """Energies H for an array of packed states: gathered from the table of
        all 2^n energies at n <= ``MAX_TABLE_SPINS``, contracted past it."""
        bits = np.atleast_1d(np.asarray(bits, dtype=np.uint64))
        if self.has_energy_table:
            # packed states stay below 2^63, so the int64 view indexes without a cast
            return self._table()[bits.view(np.int64)]
        return self._contract(bits.reshape(-1)).reshape(bits.shape)

    def block_count(self, t: float) -> int:
        """Number of aggregation blocks inside the first floor(a_n * t) steps."""
        if t < 0:
            raise ParameterValidationError(f"t must be nonnegative; got {t}")
        if self.step_scale is None or not math.isfinite(self.step_scale):
            raise DegenerateScaleError(
                "jump-count scale is undefined or infinite at these parameters; "
                "pass an explicit block count"
            )
        return int(math.floor(math.floor(self.step_scale * t) / self.block_length))
