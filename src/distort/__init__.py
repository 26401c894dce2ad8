"""Distorted (Choquet) expectations and time-consistent dynamic distortions.

Static Choquet expectations for discrete and density-carrying laws, the
recombining-tree construction of a consistent dynamic distortion and its
distorted measure, and the diffusion-side machinery (distorted drift,
parabolic solver, bridge density Monte Carlo, dynamic distortion curves).
"""

__version__ = "0.1.0"

from .choquet import (
    DiscreteRV,
    MonotoneGrid,
    choquet_expectation_density,
    choquet_expectation_discrete,
    distorted_pmf,
)
from .density import (
    DensityField,
    DiffusionSpec,
    bridge_density_mc,
    constant_drift,
    gaussian_field,
    solve_survival_pde,
)
from .distortion import (
    Identity,
    KahnemanTversky,
    Power,
    Prelec,
    TverskyFox,
    Wang,
    distortion_from_dict,
)
from .dynamics import (
    DriftField,
    build_phi_curve,
    compute_mu,
    convergence_study,
    lattice_from_diffusion,
    simulate_q_dynamics,
    solve_distorted_pde,
)
from .errors import (
    AccuracyError,
    ConfigError,
    ConsistencyError,
    DistortError,
    DomainError,
    NumericError,
    SingularityError,
)
from .tree import (
    DistortedTree,
    PhiCurve,
    TreeModel,
    backward_induction,
    distort_tree,
    naive_nested_expectation,
    phi_at_node,
    static_distorted_value,
    verify_initial_consistency,
    verify_tower,
)

__all__ = [
    "AccuracyError",
    "ConfigError",
    "ConsistencyError",
    "DensityField",
    "DiffusionSpec",
    "DiscreteRV",
    "DistortError",
    "DistortedTree",
    "DomainError",
    "DriftField",
    "Identity",
    "KahnemanTversky",
    "MonotoneGrid",
    "NumericError",
    "PhiCurve",
    "Power",
    "Prelec",
    "SingularityError",
    "TreeModel",
    "TverskyFox",
    "Wang",
    "backward_induction",
    "bridge_density_mc",
    "build_phi_curve",
    "choquet_expectation_density",
    "choquet_expectation_discrete",
    "compute_mu",
    "constant_drift",
    "convergence_study",
    "distort_tree",
    "distorted_pmf",
    "distortion_from_dict",
    "gaussian_field",
    "lattice_from_diffusion",
    "naive_nested_expectation",
    "phi_at_node",
    "simulate_q_dynamics",
    "solve_distorted_pde",
    "solve_survival_pde",
    "static_distorted_value",
    "verify_initial_consistency",
    "verify_tower",
]
