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
energies, which the first lookup builds, and past that by tensor contraction
of the states asked for.

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
    "overlap",
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

    def hamming(self, other: "SpinConfig") -> int:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot compare configurations with n={self.n} and n={other.n}"
            )
        return (self.bits ^ other.bits).bit_count()

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "SpinConfig":
        return cls(n, int(rng.integers(0, 1 << n, dtype=np.uint64)))


def overlap(x: SpinConfig, y: SpinConfig) -> float:
    """Normalised overlap R(x,y) = (n - 2*hamming(x,y)) / n, in [-1, 1]."""
    return (x.n - 2 * x.hamming(y)) / x.n


def overlap_to_reference(states: np.ndarray, reference: int, n: int) -> np.ndarray:
    """Vectorised overlap of packed states against one reference state."""
    diff = np.bitwise_xor(states.astype(np.uint64), np.uint64(reference))
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
    """Check admissibility 0 < gamma < min(beta^2, zeta(p)*beta).

    Raises ParameterValidationError naming the violated bound.  The bound
    guarantees 0 < alpha = gamma/beta^2 < 1 for the limiting tail exponent.
    """
    if not isinstance(n, int) or not 2 <= n <= MAX_SPINS:
        raise ParameterValidationError(f"n must be an integer in [2, {MAX_SPINS}]; got {n!r}")
    if not isinstance(p, int) or p < 3:
        raise ParameterValidationError(f"p must be an integer >= 3; got {p!r}")
    if not beta > 0:
        raise ParameterValidationError(f"beta must be positive; got beta={beta}")
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


# states contracted per batch, for the table build and for on-demand energies
_CONTRACT_CHUNK = 4096


class Environment:
    """Immutable sampled environment: couplings, (beta, gamma), derived scales.

    The constructor takes any couplings and any beta, gamma >= 0, so it also
    builds the oracle configurations (beta = 0 among them) that closed-form
    checks need; :meth:`create` samples the couplings from a seed on the
    admissible domain only, and :meth:`degenerate` samples them without that
    check.

    :meth:`energies` is the one way to read the energies.  At n <=
    ``MAX_TABLE_SPINS`` it gathers from the table of all 2^n energies, so
    trajectory simulation reduces to bitmask XOR plus a table lookup and a
    state's energy does not depend on the batch it is read in; the first call
    builds that table, once, under a lock, and the constructor does no
    contraction.  Past that bound energies are contracted on demand, and
    their last bit can move with the batch.  ``has_energy_table`` records
    which path this environment reads.
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
        self.beta = beta = float(beta)
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
        """Validated environment on the admissible parameter domain."""
        validate_parameters(n, p, beta, gamma, zeta_table)
        env = cls(CouplingTensor.sample(n, p, seed), beta, gamma)
        if math.isfinite(env.step_scale) and env.block_length >= 0.5 * env.step_scale:
            warnings.warn(
                f"block length {env.block_length} is not small against the "
                f"jump-count scale {env.step_scale:.3g} at n={n}; "
                "block-level asymptotics are unreliable at this size",
                stacklevel=2,
            )
        return env

    @classmethod
    def degenerate(cls, n: int, p: int, beta: float, gamma: float, seed: int = 0) -> "Environment":
        """Unvalidated environment for closed-form oracle configurations.

        Allows beta = 0 and/or gamma = 0.  The jump-count scale is undefined
        at beta = 0 (stored as None); estimators that need it require an
        explicit block-count override there.
        """
        return cls(CouplingTensor.sample(n, p, seed), beta, gamma)

    def _contract(self, count: int, states) -> np.ndarray:
        """Energies of ``count`` packed states by tensor contraction, one chunk
        at a time; ``states(lo, hi)`` gives the states of positions lo..hi-1."""
        out = np.empty(count)
        for lo in range(0, count, _CONTRACT_CHUNK):
            hi = min(lo + _CONTRACT_CHUNK, count)
            out[lo:hi] = _energy_fold(
                self.couplings.values, self.n, self.p, _signs_from_bits(states(lo, hi), self.n)
            )
        return out

    def _table(self) -> np.ndarray:
        """The energies of all 2^n states in state order, built at the first call."""
        table = self._energy_table
        if table is None:
            with self._table_lock:
                table = self._energy_table
                if table is None:
                    table = self._contract(
                        1 << self.n, lambda lo, hi: np.arange(lo, hi, dtype=np.uint64)
                    )
                    table.setflags(write=False)
                    self._energy_table = table
        return table

    def energies(self, bits) -> np.ndarray:
        """Energies H for an array of packed states."""
        bits = np.atleast_1d(np.asarray(bits, dtype=np.uint64))
        if self.has_energy_table:
            # packed states stay below 2^63, so the int64 view indexes without a cast
            return self._table()[bits.view(np.int64)]
        flat = bits.reshape(-1)
        return self._contract(flat.size, lambda lo, hi: flat[lo:hi]).reshape(bits.shape)

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
