"""Equilibrium chains of like charges on a segment under an external force.

The library solves for the minimal-energy (fixed-point) configuration of
N + 1 equal charges on [-L, 0] with nearest-neighbour 1/r repulsion and a
renormalized external force, by three complementary routes:

* :mod:`coulomb_chain.shooting` -- the fast solver: generate the chain from
  its first gap, Newton on the terminal conditions; constant force needs no search.
* :mod:`coulomb_chain.closed_form` -- exact constant-force formulas: gap
  sequences, the half-line model, the wall-departure (critical) force and
  the four asymptotic density phases.
* :mod:`coulomb_chain.minimizer` -- projected Newton descent on the energy,
  the independent oracle, which also handles non-monotone profiles with
  several local minima.

:mod:`coulomb_chain.model` holds the chain's types and the one copy of its
physics: the energy, its gradient and the force-balance residuals read off
that gradient, which every route calls.

:mod:`coulomb_chain.analysis` turns solutions into densities, classified
sweep rows and convergence tables, and :mod:`coulomb_chain.cli` exposes everything as the
``coulomb-chain`` command.
"""

from .analysis import (
    ConvergenceRow,
    SweepRow,
    classify_phase,
    convergence_study,
    histogram,
    sweep,
)
from .closed_form import (
    Phase,
    asymptotic_density,
    aux_model_gaps,
    c_critical,
    critical_force_exact,
    shifted_inverse_sqrt_sum,
)
from .errors import (
    CoulombChainError,
    DegenerateConfigurationError,
    MonotonicityViolation,
    NoConvergence,
)
from .minimizer import (
    MinimizeSettings,
    default_settings,
    local_minimality_certificate,
    minimize,
    multi_start_fixed_points,
    nonuniqueness_params,
)
from .model import (
    Classification,
    Configuration,
    Constant,
    FixedPointResult,
    ModelParams,
    PiecewiseLinear,
    Residuals,
    Scaled,
    energy,
    energy_gradient,
    residuals,
    uniform_configuration,
)
from .shooting import shoot, solve_fixed_point

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "Configuration",
    "Constant",
    "ConvergenceRow",
    "CoulombChainError",
    "DegenerateConfigurationError",
    "FixedPointResult",
    "MinimizeSettings",
    "ModelParams",
    "MonotonicityViolation",
    "NoConvergence",
    "Phase",
    "PiecewiseLinear",
    "Residuals",
    "Scaled",
    "SweepRow",
    "asymptotic_density",
    "aux_model_gaps",
    "c_critical",
    "classify_phase",
    "convergence_study",
    "critical_force_exact",
    "default_settings",
    "energy",
    "energy_gradient",
    "histogram",
    "local_minimality_certificate",
    "minimize",
    "multi_start_fixed_points",
    "nonuniqueness_params",
    "residuals",
    "shifted_inverse_sqrt_sum",
    "shoot",
    "solve_fixed_point",
    "sweep",
    "uniform_configuration",
]
