"""Environment layer: parameters, spin states, couplings, energies."""

import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from clockproc import environment
from clockproc.environment import (
    DEFAULT_ZETA_TABLE,
    ZETA_LIMIT,
    CouplingTensor,
    Environment,
    SpinConfig,
    block_length,
    overlap_to_reference,
    validate_parameters,
    zeta,
)
from clockproc.chain import index_walk, simulate_segment
from clockproc.errors import (
    DegenerateScaleError,
    DimensionMismatchError,
    ParameterValidationError,
)
from clockproc.seeding import ReplicaStreams
from reference_estimators import hamming, overlap

# small-n environments at the reference parameters legitimately warn that the
# block length is not yet small against the jump-count scale; tested once below
pytestmark = pytest.mark.filterwarnings("ignore:block length")


# --- admissibility coefficient and block length ---------------------------


def test_zeta_table_and_interpolation():
    assert zeta(3) == DEFAULT_ZETA_TABLE[3]
    assert zeta(4) == DEFAULT_ZETA_TABLE[4]
    # beyond the table: linear in 1/p towards the large-p limit
    p_anchor = max(DEFAULT_ZETA_TABLE)
    z_anchor = DEFAULT_ZETA_TABLE[p_anchor]
    expected = ZETA_LIMIT + (z_anchor - ZETA_LIMIT) * (p_anchor / 8)
    assert zeta(8) == pytest.approx(expected, rel=1e-15)
    # monotone increasing towards sqrt(2 ln 2), never exceeding it
    values = [zeta(p) for p in range(3, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < ZETA_LIMIT
    assert ZETA_LIMIT == pytest.approx(math.sqrt(2.0 * math.log(2.0)), rel=1e-15)


def test_zeta_override_and_validation():
    assert zeta(3, {3: 1.1}) == 1.1
    assert zeta(3, {"3": "1.1"}) == 1.1  # config-file values arrive as strings
    with pytest.raises(ParameterValidationError):
        zeta(2)


def test_block_length_values():
    # ceil(1.5 * ln2 * n^2) at the sizes the diagnostics run at
    assert block_length(4) == 17
    assert block_length(6) == 38
    assert block_length(10) == 104
    assert block_length(12) == 150
    assert block_length(14) == 204
    for n in range(2, 30):
        assert block_length(n) == math.ceil(1.5 * math.log(2.0) * n * n)


# --- spin configurations --------------------------------------------------


def spins(x: SpinConfig) -> np.ndarray:
    """The +-1 spin vector of ``x`` as a float array of length n."""
    return np.array([1.0 if x.bits >> b & 1 else -1.0 for b in range(x.n)])


def flip(x: SpinConfig, site: int) -> SpinConfig:
    return SpinConfig(x.n, x.bits ^ (1 << site))


def flip_all(x: SpinConfig) -> SpinConfig:
    return SpinConfig(x.n, x.bits ^ ((1 << x.n) - 1))


def test_spin_config_round_trip_and_flips():
    x = SpinConfig(5, 0b10110)
    s = spins(x)
    assert s.tolist() == [-1.0, 1.0, 1.0, -1.0, 1.0]
    assert sum(1 << b for b, v in enumerate(s) if v > 0) == x.bits
    y = flip(x, 0)
    assert y.bits == 0b10111
    assert hamming(x, y) == 1
    assert flip_all(x).bits == 0b01001
    assert hamming(x, flip_all(x)) == 5


def test_spin_config_validation():
    with pytest.raises(ParameterValidationError):
        SpinConfig(0, 0)
    with pytest.raises(ParameterValidationError):
        SpinConfig(3, 8)
    with pytest.raises(ParameterValidationError):
        SpinConfig(3, -1)
    with pytest.raises(ParameterValidationError):
        flip(SpinConfig(3, 0), 3)
    with pytest.raises(DimensionMismatchError):
        hamming(SpinConfig(3, 0), SpinConfig(4, 0))


def test_overlap_identities():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 16))
        x = SpinConfig.random(n, rng)
        assert overlap(x, x) == 1.0
        assert overlap(x, flip_all(x)) == -1.0
        site = int(rng.integers(0, n))
        assert overlap(x, flip(x, site)) == pytest.approx(1.0 - 2.0 / n)
        # overlap equals the normalised inner product of the spin vectors
        y = SpinConfig.random(n, rng)
        assert overlap(x, y) == pytest.approx(float(spins(x) @ spins(y)) / n)


def test_overlap_to_reference_matches_scalar():
    rng = np.random.default_rng(3)
    n = 9
    ref = SpinConfig.random(n, rng)
    states = rng.integers(0, 1 << n, size=50, dtype=np.uint64)
    vec = overlap_to_reference(states, ref.bits, n)
    for b, r in zip(states, vec):
        assert r == pytest.approx(overlap(SpinConfig(n, int(b)), ref))


# --- coupling tensors and their on-disk format ----------------------------


def test_coupling_sample_reproducible():
    a = CouplingTensor.sample(5, 3, seed=42)
    b = CouplingTensor.sample(5, 3, seed=42)
    c = CouplingTensor.sample(5, 3, seed=43)
    assert a.values.shape == (5**3,)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # standard Gaussian marginals, loose moment check
    big = CouplingTensor.sample(10, 3, seed=1).values
    assert abs(big.mean()) < 4.0 / math.sqrt(big.size)
    assert abs(big.var() - 1.0) < 0.2


def test_coupling_tensor_validation():
    with pytest.raises(DimensionMismatchError):
        CouplingTensor(4, 3, 0, np.zeros(63))
    with pytest.raises(ParameterValidationError):
        CouplingTensor(4, 1, 0, np.zeros(4))
    # the tensor freezes a private copy of the array it is given
    values = np.zeros(8)
    tensor = CouplingTensor(2, 3, 0, values)
    assert not tensor.values.flags.writeable
    assert values.flags.writeable
    values[0] = 1.0
    assert tensor.values[0] == 0.0


# --- parameter validation and derived scales ------------------------------


def test_validate_parameters_accepts_reference_point():
    assert validate_parameters(10, 3, 3.0, 2.7) is None
    # the scales live on the environment alone
    env = Environment.create(10, 3, 3.0, 2.7, seed=0)
    assert env.alpha == pytest.approx(0.3)
    assert env.log_time_scale == pytest.approx(27.0)
    assert env.time_scale == pytest.approx(math.exp(27.0), rel=1e-12)
    assert env.step_scale == pytest.approx(
        math.sqrt(10) * math.exp(10 * 2.7**2 / (2 * 9.0)), rel=1e-12
    )
    assert env.block_length == 104


def test_validate_parameters_rejections_name_the_bound():
    with pytest.raises(ParameterValidationError, match="n must be"):
        validate_parameters(1, 3, 3.0, 2.7)
    with pytest.raises(ParameterValidationError, match="p must be"):
        validate_parameters(10, 2, 3.0, 2.7)
    # beta = 0 is the flat chain: any finite gamma >= 0, but never a negative beta
    validate_parameters(10, 3, 0.0, 2.7)
    for gamma in (-0.5, math.nan, math.inf):
        with pytest.raises(ParameterValidationError, match="gamma must be nonnegative and finite"):
            validate_parameters(10, 3, 0.0, gamma)
    with pytest.raises(ParameterValidationError, match="beta must be positive and finite, or 0"):
        validate_parameters(10, 3, -1.0, 0.0)
    # an infinite beta would give alpha = 0 and holds exp(inf * H) of 0 or inf
    for beta in (math.inf, math.nan):
        with pytest.raises(ParameterValidationError, match="beta must be positive and finite"):
            validate_parameters(10, 3, beta, 2.7)
        with pytest.raises(ParameterValidationError, match="beta must be"):
            Environment.create(8, 3, beta, 2.7, 1)
    with pytest.raises(ParameterValidationError, match="gamma must be positive"):
        validate_parameters(10, 3, 3.0, 0.0)
    # gamma over the admissible slope: message names min(beta^2, zeta(p)*beta)
    with pytest.raises(ParameterValidationError, match=r"min\(beta\^2, zeta\(p\)\*beta\)"):
        validate_parameters(10, 3, 3.0, 3.2)
    # small beta: the beta^2 branch binds
    with pytest.raises(ParameterValidationError):
        validate_parameters(10, 3, 0.5, 0.3)
    validate_parameters(10, 3, 0.5, 0.2)
    with pytest.raises(ParameterValidationError, match=r"= 0.25; got gamma=0.25"):
        validate_parameters(10, 3, 0.5, 0.25)


def test_validate_parameters_respects_zeta_override():
    # stock table rejects gamma=3.2 at beta=3; a larger zeta admits it
    validate_parameters(10, 3, 3.0, 3.2, zeta_table={3: 1.12})
    with pytest.raises(ParameterValidationError, match=r"1.12\*3\) = 3.36; got gamma=3.4"):
        validate_parameters(10, 3, 3.0, 3.4, zeta_table={3: 1.12})


# --- environments and energies --------------------------------------------


def test_environment_create_flags_and_scales():
    env = Environment.create(8, 3, 3.0, 2.7, seed=5)
    assert env.couplings.seed == 5
    assert env.alpha == pytest.approx(0.3)
    assert env.block_length == block_length(8)
    assert env.time_scale == pytest.approx(math.exp(2.7 * 8), rel=1e-12)
    assert env.has_energy_table  # 2^8 states: table always built


def test_environment_warns_when_blocks_outgrow_step_scale():
    # at n=6 the jump-count scale (~27.8) is below twice the block length (38)
    with pytest.warns(UserWarning, match="block length"):
        Environment.create(6, 3, 3.0, 2.7, seed=1)


def test_environment_degenerate_beta_zero():
    env = Environment.create(8, 3, 0.0, 1.0, 0)
    assert env.alpha is None
    assert env.step_scale is None
    with pytest.raises(DegenerateScaleError):
        env.block_count(1.0)
    with pytest.raises(ParameterValidationError):
        Environment.create(8, 3, -1.0, 1.0, 0)
    # the flat chain has no jump-count scale to warn against, even at n = 2,
    # and a beta of -0.0 is the same chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Environment.create(2, 3, 0.0, 0.0, 0)
    assert math.copysign(1.0, Environment.create(8, 3, -0.0, 1.0, 0).beta) == 1.0
    # the bare constructor owns that check
    with pytest.raises(ParameterValidationError, match="nonnegative"):
        Environment(env.couplings, 1.0, -0.5)
    with pytest.raises(ParameterValidationError, match="nonnegative"):
        Environment(env.couplings, math.nan, 1.0)
    # beta=0 holding times are all 1: every hold is its exponential draw
    segment = simulate_segment(env, None, 255, ReplicaStreams.from_seed(1))
    assert np.array_equal(segment.increments, segment.exp_draws)


def test_block_count():
    env = Environment.create(6, 3, 3.0, 2.7, seed=1)
    assert env.block_count(0.0) == 0
    t = 1.0
    expected = math.floor(math.floor(env.step_scale * t) / env.block_length)
    assert env.block_count(t) == expected
    with pytest.raises(ParameterValidationError):
        env.block_count(-0.5)


def test_energy_table_matches_direct_contraction(contracted):
    """The precomputed table and the on-demand tensor fold must agree exactly."""
    tensor = CouplingTensor.sample(7, 3, seed=11)
    with_table = Environment(tensor, 1.0, 0.5)
    without = contracted(lambda: Environment(tensor, 1.0, 0.5))
    assert with_table.has_energy_table and not without.has_energy_table
    bits = np.arange(128, dtype=np.uint64)
    assert np.allclose(with_table.energies(bits), without.energies(bits), rtol=1e-12, atol=1e-12)


def test_energy_of_a_state_does_not_depend_on_its_batch():
    """At n = 19 every lookup reads the table, so H(x) is a function of x
    alone: one call, 7-state calls and a permuted call agree bit for bit."""
    env = Environment.create(19, 3, 3.0, 2.7, seed=20260822)
    rng = np.random.default_rng(20260822)
    states = rng.integers(0, 1 << 19, size=5000, dtype=np.uint64)
    whole = env.energies(states)
    batched = np.concatenate([env.energies(states[i : i + 7]) for i in range(0, states.size, 7)])
    order = rng.permutation(states.size)
    permuted = np.empty_like(whole)
    permuted[order] = env.energies(states[order])
    assert np.array_equal(batched, whole)
    assert np.array_equal(permuted, whole)


@pytest.fixture
def walsh_builds(monkeypatch):
    """Counts the calls of the Walsh-Hadamard table build."""
    calls = []
    build = environment._walsh_table

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(environment, "_walsh_table", counted)
    return calls


def test_energy_table_is_built_once_at_the_first_lookup(walsh_builds):
    env = Environment.create(16, 3, 3.0, 2.7, seed=7)
    assert env.has_energy_table and len(walsh_builds) == 0
    states = np.arange(0, 1 << 16, 97, dtype=np.uint64)
    first = env.energies(states)
    assert len(walsh_builds) == 1
    assert np.array_equal(env.energies(states), first)
    assert len(walsh_builds) == 1


def test_energy_table_is_built_once_under_concurrent_first_lookups(walsh_builds):
    env = Environment.create(16, 3, 3.0, 2.7, seed=7)
    states = np.arange(0, 1 << 16, 97, dtype=np.uint64)
    workers = 4  # more than the cores of a small machine
    barrier = threading.Barrier(workers, timeout=60)
    results = [None] * workers

    def look_up(slot):
        barrier.wait()
        results[slot] = env.energies(states)

    threads = [threading.Thread(target=look_up, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(result, results[0]) for result in results)
    assert len(walsh_builds) == 1


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("n", [10, 12])
def test_table_and_contraction_are_within_rounding_of_the_exact_sum(n, p, contracted):
    """Both paths against the exactly rounded sum of the n^p terms.

    Each path forms H by rounded adds of signed couplings, so every partial
    sum is at most S = n^{-(p-1)/2} * sum|J| in size and each add is off by
    at most 2^-53 of its partial sum; the bound 4 * 2^-52 * S allows eight
    such roundings at their largest."""
    tensor = CouplingTensor.sample(n, p, seed=20260822 + 10 * n + p)
    scale = float(n) ** (-(p - 1) / 2.0)
    states = np.random.default_rng(n * p).integers(0, 1 << n, size=64, dtype=np.uint64)
    tabled = Environment(tensor, 1.0, 0.5).energies(states)
    contraction = contracted(lambda: Environment(tensor, 1.0, 0.5)).energies(states)
    tuples = np.array(list(itertools.product(range(n), repeat=p)))
    bound = 4.0 * 2.0**-52 * scale * math.fsum(np.abs(tensor.values))
    for k, bits in enumerate(states):
        x = spins(SpinConfig(n, int(bits)))
        exact = math.fsum(tensor.values * np.prod(x[tuples], axis=1)) * scale
        assert abs(tabled[k] - exact) <= bound
        assert abs(contraction[k] - exact) <= bound


def test_table_and_contraction_agree_on_a_walk_at_n20(contracted):
    """The two paths round differently, so they agree to a few ulps on a
    long n = 20 walk, not bit for bit."""
    tensor = CouplingTensor.sample(20, 3, seed=3001)
    walk = index_walk(20, 12345, 20_000, np.random.default_rng(3001))
    tabled = Environment(tensor, 3.0, 2.7).energies(walk)
    contraction = contracted(lambda: Environment(tensor, 3.0, 2.7)).energies(walk)
    assert np.max(np.abs(tabled - contraction)) <= 1e-13


# (n, p, the one index tuple with a nonzero coupling); repeated sites cancel in
# pairs, so (0, 0, 1) couples x_1 alone and (0, 0, 1, 1) is a constant
SINGLE_COUPLINGS = [
    (n, p, sites)
    for n in (2, 5)
    for p, sites in [
        (3, (0, 1, 2)), (3, (0, 0, 1)), (3, (1, 1, 1)), (4, (0, 0, 1, 1)), (4, (0, 1, 2, 3))
    ]
    if max(sites) < n
]


@pytest.mark.parametrize("n, p, sites", SINGLE_COUPLINGS)
def test_table_of_one_coupling_is_its_signed_monomial_exactly(n, p, sites):
    """H = J * n^{-(p-1)/2} * x_{i1}...x_{ip} at every state, bit for bit: the
    sign (-1)^p and the reduction of repeated sites are both exercised."""
    coupling = -1.3
    values = np.zeros(n**p)
    values[np.ravel_multi_index(sites, (n,) * p)] = coupling
    env = Environment(CouplingTensor(n, p, 0, values), 1.0, 0.5)
    table = env.energies(np.arange(1 << n, dtype=np.uint64))
    scaled = coupling * float(n) ** (-(p - 1) / 2.0)
    for bits in range(1 << n):
        x = spins(SpinConfig(n, bits))
        assert table[bits] == scaled * math.prod(x[list(sites)])


def energy(env, x):
    """H(x) of one configuration through the package's one energy accessor."""
    return float(env.energies(x.bits)[0])


def test_energy_global_flip_antisymmetry():
    # a pure odd-p interaction changes sign under a global spin flip
    env = Environment.create(9, 3, 3.0, 2.7, seed=13)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = SpinConfig.random(9, rng)
        assert energy(env, flip_all(x)) == pytest.approx(-energy(env, x), rel=1e-10, abs=1e-10)


def test_energy_matches_explicit_tensor_contraction():
    """Five-line reference contraction, independent of the vectorised fold."""
    n, p = 5, 3
    env = Environment.create(n, p, 3.0, 2.7, seed=21)
    J = env.couplings.values.reshape(n, n, n)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = SpinConfig.random(n, rng)
        s = spins(x)
        direct = float(np.einsum("ijk,i,j,k->", J, s, s, s)) * n ** (-(p - 1) / 2.0)
        assert energy(env, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_energy_covariance_tracks_overlap(contracted):
    """Cov(H(x), H(y)) over coupling draws is n * R(x,y)^p."""
    n, p = 5, 3
    x = SpinConfig(n, 0b00000)
    pairs = [SpinConfig(n, 0b00001), SpinConfig(n, 0b00111), SpinConfig(n, 0b11111)]
    draws = 4000
    h = np.empty((draws, 1 + len(pairs)))
    states = np.array([x.bits] + [y.bits for y in pairs], dtype=np.uint64)
    for i in range(draws):
        env = contracted(lambda: Environment(CouplingTensor.sample(n, p, seed=i), 1.0, 0.5))
        h[i] = env.energies(states)
    for j, y in enumerate(pairs):
        r = overlap(x, y)
        target = n * r**p
        cov = np.cov(h[:, 0], h[:, 1 + j])[0, 1]
        # variance of a sample covariance of bivariate normals
        se = math.sqrt((n * n + target * target) / draws)
        assert abs(cov - target) < 4.0 * se


def test_tau_saturates_to_inf():
    # an explicit huge-coupling tensor pushes beta*H over the float64 range
    n, p = 4, 3
    values = np.zeros(n**p)
    values[0] = 1e6  # J_{000}: contributes s_0^3 * n^{-1}
    env = Environment(CouplingTensor(n, p, 0, values), beta=10.0, gamma=0.0)
    hot = SpinConfig(n, 0b1111)
    segment = simulate_segment(env, hot, 8, ReplicaStreams.from_seed(3))
    # the holding time saturates to inf and never wraps; the energy stays finite
    assert math.isinf(segment.increments[0])
    assert math.isfinite(segment.energies[0])
    assert np.all(np.isinf(segment.increments) == (segment.states & np.uint64(1)).astype(bool))
