"""Stationary distribution of reflected Brownian motion in the quadrant.

Exact Laplace transforms of the stationary and boundary measures for
orthogonal reflection, their tail asymptotics, the kernel/uniformization
machinery behind them, and two independent numerical oracles (diffusion
simulation and Laplace inversion) that cross-check every closed form.
"""

from .asymptotics import AsymptoticReport, classify_regime
from .chebyshev import cheb_T
from .checks import CheckResult, run_checks
from .kernel import (
    HyperbolaR,
    gamma,
    hyperbola,
    theta1_at_branch_point,
    theta1_branches,
    theta2_branches,
)
from .model import (
    DerivedScalars,
    ModelParams,
    load_config,
    params_from_dict,
    params_to_dict,
    validate_parameters,
)
from .oracle import (
    DensityTable,
    DiagonalClosedForms,
    SimConfig,
    SimResult,
    diagonal_closed_forms,
    invert_transform,
    simulate,
)
from .transform import (
    TransformBundle,
    make_bundle,
    phi1_eval,
    phi2_eval,
    phi_eval,
    psi1_eval,
    psi2_eval,
    w_eval,
)
from .uniformization import (
    GroupReport,
    W_of_s,
    classify_solution_nature,
    group_elements,
    group_order,
    theta_of_s,
)

__version__ = "0.1.0"
