"""Equilibrium toolkit for a two-region economy with mobile consumers.

The package splits along the causal chain of the model: :mod:`geoeq.model`
solves markets at a fixed spatial distribution, :mod:`geoeq.welfare` turns
the outcome into the utility differential that drives migration,
:mod:`geoeq.penalty` supplies the congestion costs that push back,
:mod:`geoeq.equilibria` finds and classifies the rest points of the tug of
war, and :mod:`geoeq.cli` / :mod:`geoeq.output` emit machine-readable
artifacts.
"""

from .equilibria import (
    BifurcationPoint,
    Branch,
    Equilibrium,
    classify_stability,
    delta_V,
    dispersion_threshold,
    find_equilibria,
    mu_d,
    mu_p,
    phi_b,
    pitchfork_criticality,
    sweep,
    threshold_phi_crossings,
)
from .model import (
    ModelParams,
    ShortRunState,
    SingularityError,
    SolverError,
    G_poly,
    consumption,
    dw_dh,
    dw_dphi,
    firm_counts,
    freeness_from_tau,
    price_indices,
    short_run_state,
    solve_wage,
    wage_share,
)
from .penalty import PenaltySpec, delta_t, delta_t_prime, penalty
from .welfare import (
    StabilityCoefficients,
    ddelta_u_dh,
    ddelta_u_dphi,
    delta_u,
    dispersion_slope,
    stability_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "ShortRunState",
    "PenaltySpec",
    "Equilibrium",
    "BifurcationPoint",
    "Branch",
    "StabilityCoefficients",
    "SingularityError",
    "SolverError",
    "freeness_from_tau",
    "wage_share",
    "solve_wage",
    "price_indices",
    "consumption",
    "firm_counts",
    "dw_dh",
    "dw_dphi",
    "G_poly",
    "short_run_state",
    "delta_u",
    "ddelta_u_dh",
    "ddelta_u_dphi",
    "dispersion_slope",
    "stability_coefficients",
    "penalty",
    "delta_t",
    "delta_t_prime",
    "delta_V",
    "find_equilibria",
    "classify_stability",
    "mu_d",
    "mu_p",
    "phi_b",
    "dispersion_threshold",
    "threshold_phi_crossings",
    "pitchfork_criticality",
    "sweep",
    "__version__",
]
