"""Gaussian multilinear (p-spin) random environments on the hypercube.

A configuration of ``n`` spins is a corner of {-1,+1}^n, stored as an integer
bitmask.  The environment attaches an independent standard Gaussian coupling
to every ordered p-tuple of sites and defines the energy

    H(x) = n^{-(p-1)/2} * sum_{i1..ip} J[i1,...,ip] * x[i1] * ... * x[ip],

a centred Gaussian field with covariance  E H(x) H(y) = n * R(x,y)^p  in the
normalised overlap R(x,y) = (1/n) sum_i x_i y_i (repeated indices included in
the sum, which is what makes the covariance exact at every n).  Mean holding
times of the hopping dynamics are tau(x) = exp(beta * H(x)).

The module also derives the scale parameters of the accelerated dynamics:
observation time scale exp(gamma*n), jump-count scale sqrt(n) *
exp(n*gamma^2/(2*beta^2)), aggregation block length ceil((3*ln2/2)*n^2), and
the tail exponent alpha = gamma/beta^2.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    DegenerateScaleError,
    DimensionMismatchError,
    ParameterValidationError,
)
from .seeding import keyed_generator

__all__ = [
    "SpinConfig",
    "CouplingTensor",
    "ModelParameters",
    "Environment",
    "zeta",
    "validate_parameters",
    "block_length",
    "overlap",
    "hamiltonian",
    "tau",
    "log_tau",
    "write_coupling_file",
    "read_coupling_file",
    "ZETA_LIMIT",
    "DEFAULT_ZETA_TABLE",
    "EXP_OVERFLOW",
]

# Large-p limit of the admissible-slope coefficient: sqrt(2*ln 2).
ZETA_LIMIT = math.sqrt(2.0 * math.log(2.0))

# Certified value for p=3; the p=4 entry is a placeholder pending a better
# constant and can be overridden via configuration.
DEFAULT_ZETA_TABLE: dict[int, float] = {3: 1.0291, 4: 1.07}

EXP_OVERFLOW = 709.0  # exp() overflows float64 just above this

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


def _derive_scales(n: int, beta: float, gamma: float):
    """(alpha, log time scale, time scale, step scale) of the accelerated dynamics.

    The tail exponent gamma/beta^2 and the jump-count scale
    sqrt(n) * exp(n*gamma^2/(2*beta^2)) do not exist at beta = 0 (None there);
    scales whose exponent leaves the float64 range saturate to inf.
    """
    log_time_scale = gamma * n
    time_scale = math.exp(log_time_scale) if log_time_scale < EXP_OVERFLOW else math.inf
    if not beta > 0:
        return None, log_time_scale, time_scale, None
    exponent = n * gamma * gamma / (2.0 * beta * beta)
    step_scale = math.sqrt(n) * math.exp(exponent) if exponent < EXP_OVERFLOW else math.inf
    return gamma / (beta * beta), log_time_scale, time_scale, step_scale


def _block_count(step_scale: float | None, theta: int, t: float) -> int:
    if t < 0:
        raise ParameterValidationError(f"t must be nonnegative; got {t}")
    if step_scale is None or not math.isfinite(step_scale):
        raise DegenerateScaleError(
            "jump-count scale is undefined or infinite at these parameters; "
            "pass an explicit block count"
        )
    return int(math.floor(math.floor(step_scale * t) / theta))


@dataclass(frozen=True)
class SpinConfig:
    """One corner of the hypercube {-1,+1}^n, packed into an integer.

    Bit ``b`` set means spin ``x_b = +1``; cleared means ``-1``.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 63:
            raise ParameterValidationError(f"spin count must be in [1, 63]; got n={self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ParameterValidationError(
                f"state index {self.bits} out of range for n={self.n}"
            )

    def spins(self) -> np.ndarray:
        """The +-1 spin vector as a float array of length n."""
        bits = np.uint64(self.bits)
        shifts = np.arange(self.n, dtype=np.uint64)
        return (((bits >> shifts) & np.uint64(1)).astype(np.float64) * 2.0) - 1.0

    def flip(self, site: int) -> "SpinConfig":
        if not 0 <= site < self.n:
            raise ParameterValidationError(f"site {site} out of range for n={self.n}")
        return SpinConfig(self.n, self.bits ^ (1 << site))

    def flip_all(self) -> "SpinConfig":
        return SpinConfig(self.n, self.bits ^ ((1 << self.n) - 1))

    def hamming(self, other: "SpinConfig") -> int:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot compare configurations with n={self.n} and n={other.n}"
            )
        return (self.bits ^ other.bits).bit_count()

    @classmethod
    def from_spins(cls, values) -> "SpinConfig":
        arr = np.asarray(values)
        bits = 0
        for b, v in enumerate(arr):
            if v not in (-1, 1, -1.0, 1.0):
                raise ParameterValidationError(f"spins must be +-1; got {v!r} at site {b}")
            if v > 0:
                bits |= 1 << b
        return cls(len(arr), bits)

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
        self.values.setflags(write=False)

    @classmethod
    def sample(cls, n: int, p: int, seed: int) -> "CouplingTensor":
        values = keyed_generator(seed).standard_normal(n**p)
        return cls(n=n, p=p, seed=seed, values=values)

    @classmethod
    def from_values(cls, n: int, p: int, values, seed: int = 0) -> "CouplingTensor":
        arr = np.array(values, dtype=np.float64)
        if arr.size != n**p:
            raise DimensionMismatchError(
                f"coupling array has {arr.size} entries; expected n^p = {n ** p}"
            )
        return cls(n=n, p=p, seed=seed, values=arr.reshape(n**p).copy())


_MAGIC = b"PSPN1"
_HEADER = struct.Struct("<QQQ")


def write_coupling_file(path, tensor: CouplingTensor) -> None:
    """Binary sidecar: magic 'PSPN1', then n, p, seed as little-endian u64,
    then the couplings as raw little-endian float64 in tuple-lexicographic
    order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(tensor.n, tensor.p, tensor.seed))
        fh.write(np.ascontiguousarray(tensor.values, dtype="<f8").tobytes())


def read_coupling_file(path) -> CouplingTensor:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ParameterValidationError(f"bad coupling file magic {magic!r}")
        n, p, seed = _HEADER.unpack(fh.read(_HEADER.size))
        body = fh.read()
    expected = n**p * 8
    if len(body) != expected:
        raise DimensionMismatchError(
            f"coupling file body has {len(body)} bytes; expected {expected} for n={n}, p={p}"
        )
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return CouplingTensor(n=int(n), p=int(p), seed=int(seed), values=values)


@dataclass(frozen=True)
class ModelParameters:
    """Validated (n, p, beta, gamma) with all derived scales."""

    n: int
    p: int
    beta: float
    gamma: float
    alpha: float
    zeta_value: float
    gamma_bound: float
    log_time_scale: float
    time_scale: float
    step_scale: float
    block_length: int

    def block_count(self, t: float) -> int:
        """Number of aggregation blocks inside the first floor(a_n * t) steps."""
        return _block_count(self.step_scale, self.block_length, t)


def validate_parameters(
    n: int,
    p: int,
    beta: float,
    gamma: float,
    zeta_table: dict[int, float] | None = None,
) -> ModelParameters:
    """Check admissibility 0 < gamma < min(beta^2, zeta(p)*beta) and derive scales.

    Raises ParameterValidationError naming the violated bound.  The bound
    guarantees 0 < alpha = gamma/beta^2 < 1 for the limiting tail exponent.
    """
    if not isinstance(n, int) or n < 2:
        raise ParameterValidationError(f"n must be an integer >= 2; got {n!r}")
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
    alpha, log_time_scale, time_scale, step_scale = _derive_scales(n, beta, gamma)
    return ModelParameters(
        n=n,
        p=p,
        beta=beta,
        gamma=gamma,
        alpha=alpha,
        zeta_value=z,
        gamma_bound=bound,
        log_time_scale=log_time_scale,
        time_scale=time_scale,
        step_scale=step_scale,
        block_length=block_length(n),
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


# Auto-build the full energy table when 2^n * n^p stays below this many
# multiply-adds; the table then makes every walk a pure gather.
_TABLE_FLOP_BUDGET = 3.0e9
_TABLE_MAX_STATES = 1 << 22
# states contracted per batch, for the table build and for on-demand energies
_CONTRACT_CHUNK = 4096


class Environment:
    """Immutable sampled environment: couplings, (beta, gamma), derived scales.

    Construct via :meth:`create` (validated, theorem-domain) or
    :meth:`degenerate` (oracle configurations such as beta=0 that closed-form
    tests need; these bypass the admissibility bound and are flagged).

    When the state space is small enough the constructor precomputes the full
    energy table so that trajectory simulation reduces to bitmask XOR plus a
    table lookup; otherwise energies are evaluated on demand by tensor
    contraction.
    """

    __slots__ = (
        "couplings",
        "n",
        "p",
        "beta",
        "gamma",
        "alpha",
        "zeta_value",
        "theorem_domain",
        "block_length",
        "log_time_scale",
        "time_scale",
        "step_scale",
        "_energy_table",
    )

    def __init__(
        self,
        couplings: CouplingTensor,
        beta: float,
        gamma: float,
        *,
        theorem_domain: bool,
        zeta_value: float | None,
        block_length_value: int,
        build_table: bool | None = None,
    ) -> None:
        self.couplings = couplings
        self.n = couplings.n
        self.p = couplings.p
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.zeta_value = zeta_value
        self.theorem_domain = theorem_domain
        self.block_length = block_length_value
        self.alpha, self.log_time_scale, self.time_scale, self.step_scale = _derive_scales(
            self.n, self.beta, self.gamma
        )
        if build_table is None:
            build_table = (
                (1 << self.n) <= _TABLE_MAX_STATES
                and (1 << self.n) * float(self.n) ** self.p <= _TABLE_FLOP_BUDGET
            )
        self._energy_table = None
        if build_table:
            self._energy_table = self._contract(np.arange(1 << self.n, dtype=np.uint64))
            self._energy_table.setflags(write=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        n: int,
        p: int,
        beta: float,
        gamma: float,
        seed: int,
        zeta_table: dict[int, float] | None = None,
        build_table: bool | None = None,
    ) -> "Environment":
        """Validated environment on the admissible parameter domain."""
        params = validate_parameters(n, p, beta, gamma, zeta_table)
        env = cls.from_couplings(
            CouplingTensor.sample(n, p, seed), beta, gamma, zeta_table, build_table
        )
        if math.isfinite(params.step_scale) and params.block_length >= 0.5 * params.step_scale:
            warnings.warn(
                f"block length {params.block_length} is not small against the "
                f"jump-count scale {params.step_scale:.3g} at n={n}; "
                "block-level asymptotics are unreliable at this size",
                stacklevel=2,
            )
        return env

    @classmethod
    def degenerate(
        cls,
        n: int,
        p: int,
        beta: float,
        gamma: float,
        seed: int = 0,
        couplings: CouplingTensor | None = None,
        block_length_override: int | None = None,
        build_table: bool | None = None,
    ) -> "Environment":
        """Unvalidated environment for closed-form oracle configurations.

        Allows beta = 0 and/or gamma = 0 and an explicit block length.  The
        jump-count scale is undefined at beta = 0 (stored as None); estimators
        that need it require an explicit block-count override there.
        """
        if beta < 0 or gamma < 0:
            raise ParameterValidationError("beta and gamma must be nonnegative")
        if couplings is None:
            couplings = CouplingTensor.sample(n, p, seed)
        return cls(
            couplings,
            beta,
            gamma,
            theorem_domain=False,
            zeta_value=None,
            block_length_value=(
                block_length_override if block_length_override is not None else block_length(n)
            ),
            build_table=build_table,
        )

    @classmethod
    def from_couplings(
        cls, couplings: CouplingTensor, beta: float, gamma: float,
        zeta_table: dict[int, float] | None = None, build_table: bool | None = None,
    ) -> "Environment":
        """Validated environment over an explicit coupling tensor."""
        params = validate_parameters(couplings.n, couplings.p, beta, gamma, zeta_table)
        return cls(
            couplings,
            beta,
            gamma,
            theorem_domain=True,
            zeta_value=params.zeta_value,
            block_length_value=params.block_length,
            build_table=build_table,
        )

    # -- energies ---------------------------------------------------------

    def _contract(self, flat: np.ndarray) -> np.ndarray:
        """Energies of a flat array of packed states by tensor contraction, in chunks."""
        out = np.empty(flat.shape[0])
        for lo in range(0, flat.shape[0], _CONTRACT_CHUNK):
            sub = flat[lo : lo + _CONTRACT_CHUNK]
            out[lo : lo + _CONTRACT_CHUNK] = _energy_fold(
                self.couplings.values, self.n, self.p, _signs_from_bits(sub, self.n)
            )
        return out

    @property
    def has_energy_table(self) -> bool:
        return self._energy_table is not None

    @property
    def energy_table(self) -> np.ndarray:
        if self._energy_table is None:
            raise CapabilityError(
                f"no energy table at n={self.n}, p={self.p}; construct with build_table=True"
            )
        return self._energy_table

    def energies(self, bits) -> np.ndarray:
        """Energies H for an array of packed states."""
        bits = np.atleast_1d(np.asarray(bits, dtype=np.uint64))
        if self._energy_table is not None:
            return self._energy_table[bits]
        return self._contract(bits.reshape(-1)).reshape(bits.shape)

    def energy(self, x: SpinConfig) -> float:
        if x.n != self.n:
            raise DimensionMismatchError(
                f"configuration has n={x.n}; environment has n={self.n}"
            )
        return float(self.energies(np.asarray([x.bits], dtype=np.uint64))[0])

    def log_holding(self, bits) -> np.ndarray:
        """log of mean holding times, beta * H, for packed states."""
        return self.beta * self.energies(bits)

    def block_count(self, t: float) -> int:
        """Number of aggregation blocks inside the first floor(a_n * t) steps."""
        return _block_count(self.step_scale, self.block_length, t)


def hamiltonian(env: Environment, x: SpinConfig) -> float:
    """Energy H(x) of one configuration (deterministic pure function)."""
    return env.energy(x)


def log_tau(env: Environment, x: SpinConfig) -> float:
    """log of the mean holding time at x: beta * H(x)."""
    return env.beta * env.energy(x)


def tau(env: Environment, x: SpinConfig) -> float:
    """Mean holding time exp(beta * H(x)).

    Saturates to +inf when the exponent exceeds the float64 range; callers
    can detect saturation with math.isinf.  Never wraps silently.
    """
    lt = log_tau(env, x)
    if lt > EXP_OVERFLOW:
        return math.inf
    return math.exp(lt)
