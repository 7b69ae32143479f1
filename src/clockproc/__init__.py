"""Simulation laboratory for rescaled clock processes of random hopping dynamics.

The package simulates a nearest-neighbour random walk on the hypercube whose
waiting times come from a Gaussian random field, aggregates the resulting
clock process into blocks, estimates the convergence conditions that drive
its heavy-tailed limit, samples the limiting pure-jump process directly, and
compares two-time correlation functions against the arcsine law.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    CapabilityError,
    ClockprocError,
    DegenerateScaleError,
    DimensionMismatchError,
    HorizonError,
    ParameterValidationError,
    SegmentLengthError,
)
from .seeding import ReplicaStreams, StreamFamily, keyed_generator, resolve_seeds
from .environment import (
    DEFAULT_ZETA_TABLE,
    CouplingTensor,
    Environment,
    SpinConfig,
    ZETA_LIMIT,
    block_length,
    overlap,
    validate_parameters,
    zeta,
)
from .chain import (
    ClockPath,
    MixingReport,
    TrajectorySegment,
    blocked_clock,
    extend_segment,
    mixing_check,
    process_at_time,
    simulate_segment,
)
from .parallel import ordered_map
from .subordinator import (
    PowerLawLevyMeasure,
    SelfTest,
    SubordinatorPath,
    arcsine_cdf,
    crossing_probability,
    crossing_probability_batch,
    extend_path,
    sample_path,
    self_test,
    truncated_laplace_exponent,
)
from .conditions import (
    ConcentrationReport,
    ConditionReport,
    IntensityEstimate,
    InitialTermEstimate,
    LaplaceIntensityEstimate,
    SquaredTailEstimate,
    TailEstimate,
    TruncatedMeanEstimate,
    build_condition_report,
    concentration_diagnostic,
    conditional_block_laplace,
    degenerate_block_laplace,
    degenerate_block_tail,
    degenerate_initial_term,
    estimate_block_tail_grid,
    estimate_initial_term,
    estimate_intensity,
    estimate_intensity_laplace,
    estimate_squared_tail_grid,
    estimate_truncated_mean,
    truncated_mean_asymptotic,
    truncated_mean_quadrature,
)
from .aging import (
    AgingCurve,
    TrapReport,
    correlation_indicator,
    estimate_aging_curve,
    trap_localization_diagnostic,
)
from .config import DEFAULT_MASTER_SEED, ExperimentConfig, default_ts_grid

__all__ = [
    "__version__",
    # errors
    "ClockprocError",
    "DimensionMismatchError",
    "ParameterValidationError",
    "CapabilityError",
    "SegmentLengthError",
    "HorizonError",
    "DegenerateScaleError",
    "BudgetError",
    # seeding
    "resolve_seeds",
    "keyed_generator",
    "StreamFamily",
    "ReplicaStreams",
    # environment
    "SpinConfig",
    "CouplingTensor",
    "Environment",
    "zeta",
    "validate_parameters",
    "block_length",
    "overlap",
    "ZETA_LIMIT",
    "DEFAULT_ZETA_TABLE",
    # chain
    "TrajectorySegment",
    "ClockPath",
    "MixingReport",
    "simulate_segment",
    "extend_segment",
    "blocked_clock",
    "process_at_time",
    "mixing_check",
    # parallel
    "ordered_map",
    # subordinator
    "PowerLawLevyMeasure",
    "SubordinatorPath",
    "sample_path",
    "extend_path",
    "arcsine_cdf",
    "crossing_probability",
    "crossing_probability_batch",
    "truncated_laplace_exponent",
    "SelfTest",
    "self_test",
    # conditions
    "TailEstimate",
    "IntensityEstimate",
    "SquaredTailEstimate",
    "LaplaceIntensityEstimate",
    "InitialTermEstimate",
    "TruncatedMeanEstimate",
    "ConcentrationReport",
    "ConditionReport",
    "estimate_block_tail_grid",
    "estimate_intensity",
    "estimate_squared_tail_grid",
    "conditional_block_laplace",
    "estimate_intensity_laplace",
    "estimate_initial_term",
    "estimate_truncated_mean",
    "truncated_mean_quadrature",
    "truncated_mean_asymptotic",
    "degenerate_block_tail",
    "degenerate_block_laplace",
    "degenerate_initial_term",
    "concentration_diagnostic",
    "build_condition_report",
    # aging
    "correlation_indicator",
    "AgingCurve",
    "estimate_aging_curve",
    "TrapReport",
    "trap_localization_diagnostic",
    # config
    "DEFAULT_MASTER_SEED",
    "ExperimentConfig",
    "default_ts_grid",
]
