"""Closed-form power, thermal and cooling models of the simulated server fleet,
and the constants of its one server model.

All functions are pure.  The server model takes floats or numpy arrays of
any shape, element by element, so one formula costs a single host or a
whole fleet.  Temperatures are Kelvin unless a name says otherwise, energies
are kWh, powers are watts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KWH_PER_WS = 1.0 / 3.6e6  # watt-seconds to kWh

# Idle hosts still hold OS pages; the memory-load floor keeps the log term of
# the memory temperature model defined (1 % maps to exactly k1 * t_inlet).
U_MEM_FLOOR = 1.0

# The fleet's one server model.  Its DVFS ladder's voltages ramp linearly in
# frequency between two end values, calibrated against the reference
# hardware's reported behavior: with the published power coefficients,
# per-host draw then spans the documented 170-200 W range and the worked
# allocation example's power increments come out at the right magnitude.
FREQS_GHZ = np.array([1.73, 1.86, 2.13, 2.26, 2.39, 2.40])
_V_LOW, _V_HIGH = 1.80, 1.92  # V at the lowest and the highest frequency
VOLTS = (_V_LOW + (_V_HIGH - _V_LOW) * (FREQS_GHZ - FREQS_GHZ[0])
         / (FREQS_GHZ[-1] - FREQS_GHZ[0]))
CORES = 4
# full capacity at top frequency; VM CPU demand is a fraction of it
CPU_CAPACITY_MHZ = CORES * FREQS_GHZ[-1].item() * 1000.0
RAM_CAPACITY = 16384.0   # MB
BW_CAPACITY = 125.0      # MB/s
E_BOOT = 13.514e-3       # kWh per power-on event
T_INLET_MAX = 303.15     # K (30 C fan-failure bound)
FAN_SPEED = 5000.0       # RPM


def left_sum(values) -> float:
    """Float sum added left to right from 0.0, as ``sum`` did before 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class PowerModelParams:
    """Coefficients of the server power model (dynamic + memory leakage + fan)."""

    c_dyn: float = 3.32      # W per V^2 * GHz * utilization
    c_mem: float = 1.63e-3   # W per K^2 of memory temperature
    c_fan: float = 4.88e-11  # W per RPM^3


@dataclass(frozen=True)
class ThermalModelParams:
    """Steady-state memory/CPU temperature model coefficients."""

    mem_k1: float = 0.9965
    mem_k2: float = 2.6225
    cpu_k1: float = 1.052
    cpu_k2: float = 19.845


@dataclass(frozen=True)
class CoolingModelParams:
    """Quadratic COP curve; the polynomial is evaluated in degrees Celsius
    (see :data:`COP_T_OFFSET`)."""

    cop_a: float = 0.0068
    cop_b: float = 0.0008
    cop_c: float = 0.458


@dataclass(frozen=True)
class DiskModelParams:
    c_read: float = 3.327e-7   # W per KB/s read
    c_write: float = 1.668e-7  # W per KB/s written


@dataclass(frozen=True)
class ModelParams:
    """Bundle of every model parameter set."""

    power: PowerModelParams = field(default_factory=PowerModelParams)
    thermal: ThermalModelParams = field(default_factory=ThermalModelParams)
    cooling: CoolingModelParams = field(default_factory=CoolingModelParams)
    disk: DiskModelParams = field(default_factory=DiskModelParams)


def dynamic_power(v_dd, f_op, u_cpu, p: PowerModelParams = PowerModelParams()):
    """DVFS-dependent part of server power for one (voltage, frequency, load)."""
    return p.c_dyn * v_dd * v_dd * f_op * u_cpu


def host_power_terms(v_dd, f_op, u_cpu, t_mem, fan_speed,
                     p: PowerModelParams = PowerModelParams()):
    """Server power in watts from raw model inputs (excluding disk)."""
    # fan^3 as two products: numpy's power kernels differ between CPUs
    return (dynamic_power(v_dd, f_op, u_cpu, p)
            + p.c_mem * t_mem * t_mem
            + p.c_fan * (fan_speed * fan_speed * fan_speed))


def host_operating_point(sums, t_inlet, p: ModelParams):
    """Operating point of powered-on servers from their resource sums.

    ``sums`` is a numpy array with ``core``'s resource axis first and one
    element per server on the axes after it.  Returns ``(u_cpu, mode,
    t_mem, p_it)``, each of the shape of one resource row: utilization
    clamped to [0, 1] (a CPU sum may exceed 1), the index into ``FREQS_GHZ``
    of the governor's DVFS mode, the lowest frequency that covers u_cpu *
    f_max, memory temperature (K) and IT power including disk (W).
    """
    from .core import CPU, RAM, READ, WRITE  # core imports this module
    u_cpu = np.minimum(1.0, np.maximum(0.0, sums[CPU]))
    u_mem = np.minimum(100.0, np.maximum(U_MEM_FLOOR,
                                         100.0 * sums[RAM] / RAM_CAPACITY))
    mode = np.minimum(np.searchsorted(FREQS_GHZ, u_cpu * FREQS_GHZ[-1] - 1e-12),
                      len(FREQS_GHZ) - 1)
    t_mem = mem_temperature_unchecked(t_inlet, u_mem, p.thermal)
    p_it = (host_power_terms(VOLTS[mode], FREQS_GHZ[mode], u_cpu, t_mem,
                             FAN_SPEED, p.power)
            + disk_power(sums[READ], sums[WRITE], p.disk))
    return u_cpu, mode, t_mem, p_it


def mem_temperature_unchecked(t_inlet, u_mem, p: ThermalModelParams):
    """Memory temperature (K) for an inlet temperature and a memory load in
    percent already clamped to [U_MEM_FLOOR, 100]: no check on the load,
    which would cost more than the formula on one host."""
    return p.mem_k1 * t_inlet + p.mem_k2 * np.log(u_mem * u_mem)


def disk_power(read_kbs, write_kbs, p: DiskModelParams = DiskModelParams()):
    """Disk power in watts from read/write throughputs in KB/s."""
    return p.c_read * read_kbs + p.c_write * write_kbs


COP_T_MIN_K = 283.15
COP_T_MAX_K = 313.15
# Kelvin minus this is the COP polynomial's Celsius: the reference scenarios
# quote 18 C and 24 C setpoints as 291 K and 297 K, and only this offset
# reproduces the published IT-to-cooling energy ratios
COP_T_OFFSET = 273.0


def cop(t_inlet: float, p: CoolingModelParams = CoolingModelParams()) -> float:
    """Coefficient of performance of the cooling loop at an inlet temperature (K).

    The polynomial itself is evaluated in Celsius; feeding it Kelvin would give
    absurd COP values near 600, while the Celsius reading reproduces the
    IT-to-cooling energy ratios of the reference hardware.
    """
    if not COP_T_MIN_K <= t_inlet <= COP_T_MAX_K:
        raise ValueError(
            f"inlet temperature {t_inlet} K outside supported range "
            f"[{COP_T_MIN_K}, {COP_T_MAX_K}] K")
    t_c = t_inlet - COP_T_OFFSET
    return p.cop_a * t_c * t_c + p.cop_b * t_c + p.cop_c


def cooling_factor(t_inlet: float,
                   p: CoolingModelParams = CoolingModelParams()) -> float:
    """Global power per watt of IT power at an inlet temperature (K): 1 + 1/COP."""
    return 1.0 + 1.0 / cop(t_inlet, p)
