"""Simulation and thermodynamics of linear open quantum walks.

Subpackages:

- channel: generic Kraus-family walk engine on block-diagonal states
- linear: the linear walk, its classical chain and steady state
- equilibrium: closed-form equilibrium statistical mechanics
- thermalization: trajectories, thermalization window, entropy approximation
- cli: command-line harness (also installed as the `oqwalk` script)
"""

from . import channel, equilibrium, linear, thermalization
from .channel import BlockState, OqwChannel, position_marginal, step, validate_channel
from .equilibrium import EnsemblePoint, ThermoPoint, thermo_point, thermo_points
from .linear import LinearWalkSpec, build_channel, markov_evolve, steady_state, transition_matrix
from .thermalization import (
    ApproxEntropyParams,
    DqcEstimates,
    ErrorMetricsReport,
    GaussianProfile,
    ThermalizationWindow,
    TrajectoryRecord,
    approx_entropy,
    dqc_step_estimates,
    error_metrics,
    iter_distributions,
    simulate_trajectory,
    thermalization_window,
)

__version__ = "0.1.0"

__all__ = [
    "channel",
    "equilibrium",
    "linear",
    "thermalization",
    "BlockState",
    "OqwChannel",
    "position_marginal",
    "step",
    "validate_channel",
    "EnsemblePoint",
    "ThermoPoint",
    "thermo_point",
    "thermo_points",
    "LinearWalkSpec",
    "build_channel",
    "markov_evolve",
    "steady_state",
    "transition_matrix",
    "ApproxEntropyParams",
    "DqcEstimates",
    "ErrorMetricsReport",
    "GaussianProfile",
    "ThermalizationWindow",
    "TrajectoryRecord",
    "approx_entropy",
    "dqc_step_estimates",
    "error_metrics",
    "iter_distributions",
    "simulate_trajectory",
    "thermalization_window",
]
