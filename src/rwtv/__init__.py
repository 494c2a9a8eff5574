"""Random-walk sampling and total-variation recovery of clustered graph signals."""

from .graph import (
    Graph,
    Partition,
    boundary_edges,
    clustered_signal,
    cut_size,
    degree,
    incidence_apply,
    incidence_norm_sq,
    incidence_transpose_apply,
    is_bipartite,
    is_connected,
    total_variation,
)
from .rng import RngSeed
from .sampling import (
    NullspaceReport,
    NullspaceViolation,
    SamplingBudgetError,
    SamplingSet,
    WalkConfig,
    check_nullspace_condition,
    random_walk,
    random_walk_sampling,
    stationary_distribution,
    uniform_sampling,
)
from .slp import SlpConfig, SlpResult, clip, nmse, slp_recover
from .synth import (
    AppmSpec,
    expected_cut_size,
    expected_degree,
    generate_appm,
    random_clustered_signal,
    sampling_probability_estimate,
)

__all__ = [
    "Graph",
    "Partition",
    "RngSeed",
    "AppmSpec",
    "WalkConfig",
    "SamplingSet",
    "SamplingBudgetError",
    "NullspaceReport",
    "NullspaceViolation",
    "SlpConfig",
    "SlpResult",
    "degree",
    "incidence_apply",
    "incidence_transpose_apply",
    "incidence_norm_sq",
    "total_variation",
    "boundary_edges",
    "cut_size",
    "clustered_signal",
    "is_connected",
    "is_bipartite",
    "generate_appm",
    "expected_degree",
    "expected_cut_size",
    "random_clustered_signal",
    "random_walk",
    "random_walk_sampling",
    "uniform_sampling",
    "stationary_distribution",
    "check_nullspace_condition",
    "sampling_probability_estimate",
    "clip",
    "slp_recover",
    "nmse",
]

__version__ = "0.1.0"
