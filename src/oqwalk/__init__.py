"""Simulation and thermodynamics of linear open quantum walks.

Modules:

- channel: generic Kraus-family walk engine on block-diagonal states
- linear: the linear walk, its classical chain and steady state
- equilibrium: closed-form equilibrium statistical mechanics
- thermalization: thermalization window, entropy approximation, error metrics,
  and (from the private _trajectory) the exact trajectories
- cli: command-line harness (also installed as the `oqwalk` script)

`import oqwalk` loads none of them.  Each name of __all__ is imported on first
access (PEP 562): `oqwalk.X` and `from oqwalk import X` import the module that
defines X, with the modules it imports, and give that module's object.
"""

import sys

__version__ = "0.1.0"

# Each public name and the module that defines it; a module's own name maps to itself.
_OWNERS = {
    "channel": "channel",
    "equilibrium": "equilibrium",
    "linear": "linear",
    "thermalization": "thermalization",
    "BlockState": "channel",
    "OqwChannel": "channel",
    "position_marginal": "channel",
    "step": "channel",
    "validate_channel": "channel",
    "EnsemblePoint": "equilibrium",
    "ThermoPoint": "equilibrium",
    "thermo_point": "equilibrium",
    "thermo_points": "equilibrium",
    "LinearWalkSpec": "linear",
    "build_channel": "linear",
    "markov_evolve": "linear",
    "steady_state": "linear",
    "transition_matrix": "linear",
    "ApproxEntropyParams": "thermalization",
    "DqcEstimates": "thermalization",
    "ErrorMetricsReport": "thermalization",
    "GaussianProfile": "thermalization",
    "ThermalizationWindow": "thermalization",
    "TrajectoryRecord": "_trajectory",
    "approx_entropy": "thermalization",
    "dqc_step_estimates": "thermalization",
    "error_metrics": "thermalization",
    "iter_distributions": "_trajectory",
    "simulate_trajectory": "_trajectory",
    "thermalization_window": "thermalization",
}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    try:
        owner = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # the import statement's machinery, which -X importtime logs (import_module's is not)
    __import__(f"{__name__}.{owner}")
    module = sys.modules[f"{__name__}.{owner}"]
    value = module if owner == name else getattr(module, name)
    globals()[name] = value         # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
