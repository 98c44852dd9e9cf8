"""Cooling setpoint strategies: fixed CRAC setpoints and load-adaptive control."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import COP_T_MAX_K, COP_T_MIN_K, T_INLET_MAX, ThermalModelParams


def _check_setpoint(name: str, value: float) -> None:
    # the COP curve's range, checked when built rather than in the first slot
    if not COP_T_MIN_K <= value <= COP_T_MAX_K:
        raise ValueError(f"{name} {value} K outside [{COP_T_MIN_K}, {COP_T_MAX_K}] K")


@dataclass(frozen=True)
class FixedCooling:
    """Constant CRAC setpoint in Kelvin (291 K and 297 K are the usual choices)."""

    setpoint: float

    def __post_init__(self):
        _check_setpoint("fixed setpoint", self.setpoint)


@dataclass(frozen=True)
class VarInletCooling:
    """Raise the setpoint to the highest value keeping every CPU below its cap.

    The setpoint is clamped to [floor, ceiling]; an all-idle data center gets
    the ceiling.
    """

    t_cpu_max: float = 338.15   # K
    floor: float = 291.0        # K
    ceiling: float = 303.15     # K

    def __post_init__(self):
        _check_setpoint("floor", self.floor)
        _check_setpoint("ceiling", self.ceiling)
        if self.floor > self.ceiling:
            raise ValueError("floor must not exceed ceiling")


CoolingStrategy = FixedCooling | VarInletCooling


def max_inlet_for_host(u_cpu, t_cpu_max: float,
                       thermal: ThermalModelParams = ThermalModelParams()):
    """Highest inlet temperature keeping the CPU at or below ``t_cpu_max``,
    element-wise over a utilization or an array of them.

    Inverts the steady-state CPU temperature model and clamps to the server's
    inlet bound ``T_INLET_MAX``.
    """
    raw = (t_cpu_max - thermal.cpu_k2 * u_cpu) / thermal.cpu_k1
    return np.minimum(raw, T_INLET_MAX)


def cooling_setpoint(state, strategy: CoolingStrategy) -> float:
    """Setpoint for the current slot under the given strategy.

    For the adaptive strategy this is the minimum over powered-on hosts of
    their maximum safe inlet temperature (uniform supply-air plenum assumed),
    from the state's thermal model.
    """
    if isinstance(strategy, FixedCooling):
        return strategy.setpoint
    active = state.u_cpu[state.on]
    if not active.size:
        return strategy.ceiling
    lowest = max_inlet_for_host(active, strategy.t_cpu_max,
                                state.params.thermal).min().item()
    return min(max(lowest, strategy.floor), strategy.ceiling)
