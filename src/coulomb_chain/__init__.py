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

:mod:`coulomb_chain.analysis` turns solutions into densities and classified
sweep rows, and :mod:`coulomb_chain.cli` exposes everything as the
``coulomb-chain`` command.

These names load on first use, so a process that never calls them skips
their modules: ``SweepRow``, ``classify_phase``, ``histogram`` and ``sweep``
(analysis); ``MinimizeSettings``, ``default_settings``, ``minimize``,
``local_minimality_certificate``, ``multi_start_fixed_points`` and
``nonuniqueness_params`` (minimizer).
"""

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

_LAZY = {  # the names that load on first use, by module
    **dict.fromkeys(("SweepRow", "classify_phase", "histogram", "sweep"), "analysis"),
    **dict.fromkeys(("MinimizeSettings", "default_settings", "local_minimality_certificate", "minimize",
                     "multi_start_fixed_points", "nonuniqueness_params"), "minimizer"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module("." + _LAZY[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})

__all__ = [
    "Classification",
    "Configuration",
    "Constant",
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
