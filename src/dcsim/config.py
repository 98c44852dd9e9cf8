"""Flat dotted-key configuration files (``section.key = value``) plus helpers
to fold them into a simulation config.  CLI flags always win over file values.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .cooling import FixedCooling, VarInletCooling
from .engine import SimConfig
from .models import COP_T_MAX_K, COP_T_MIN_K, ModelParams


class ConfigError(ValueError):
    pass


def parse_config(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks are ignored."""
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def cooling_from_name(name: str):
    name = name.lower()
    if name == "varinlet":
        return VarInletCooling()
    if name.startswith("fixed"):
        try:
            setpoint = float(name[5:])
        except ValueError:
            raise ConfigError(f"bad fixed setpoint in {name!r}") from None
        # the COP curve's range, checked here rather than in the first slot
        if not COP_T_MIN_K <= setpoint <= COP_T_MAX_K:
            raise ConfigError(f"fixed setpoint {setpoint} K outside "
                              f"[{COP_T_MIN_K}, {COP_T_MAX_K}] K")
        return FixedCooling(setpoint)
    raise ConfigError(f"unknown cooling strategy {name!r}")


_FLOAT_PARAMS = {
    "models.c_dyn": ("power", "c_dyn"),
    "models.c_mem": ("power", "c_mem"),
    "models.c_fan": ("power", "c_fan"),
    "models.mem_k1": ("thermal", "mem_k1"),
    "models.mem_k2": ("thermal", "mem_k2"),
    "models.cpu_k1": ("thermal", "cpu_k1"),
    "models.cpu_k2": ("thermal", "cpu_k2"),
    "models.cop_a": ("cooling", "cop_a"),
    "models.cop_b": ("cooling", "cop_b"),
    "models.cop_c": ("cooling", "cop_c"),
    "models.c_read": ("disk", "c_read"),
    "models.c_write": ("disk", "c_write"),
}


def apply_config(cfg: SimConfig, values: dict[str, str]) -> SimConfig:
    """Overlay flat config values onto a SimConfig."""
    model_over = {}
    for key, value in values.items():
        if key in _FLOAT_PARAMS:
            model_over[key] = float(value)
        elif key == "models.fan_map":
            model_over[key] = value
        elif key == "run.slot_seconds":
            cfg = replace(cfg, slot_seconds=int(value))
        elif key == "run.hosts":
            cfg = replace(cfg, hosts=int(value))
        elif key == "run.policy":
            cfg = replace(cfg, policy=value)
        elif key == "run.cooling":
            cfg = replace(cfg, cooling=cooling_from_name(value))
        elif key == "run.oversubscription":
            cfg = replace(cfg, oversubscription=value.lower() in ("1", "true", "yes", "on"))
        elif key == "run.migration_double_power":
            cfg = replace(cfg, migration_double_power=value.lower() in ("1", "true", "yes", "on"))
        elif key == "detection.safety":
            cfg = replace(cfg, mad=replace(cfg.mad, safety=float(value)))
        elif key == "detection.history_window":
            cfg = replace(cfg, mad=replace(cfg.mad, history_window=int(value)))
        elif key == "detection.fallback_threshold":
            cfg = replace(cfg, mad=replace(cfg.mad, fallback_threshold=float(value)))
        elif key == "sa.iterations":
            cfg = replace(cfg, sa=replace(cfg.sa, iterations=int(value)))
        elif key == "sa.k":
            cfg = replace(cfg, sa=replace(cfg.sa, k=float(value)))
        elif key == "sa.seed":
            cfg = replace(cfg, sa=replace(cfg.sa, seed=int(value)))
        elif key == "sa.timecap":
            cfg = replace(cfg, sa=replace(cfg.sa, wall_time_cap=float(value)))
        elif key == "sosa.a3":
            cfg = replace(cfg, sosa=replace(cfg.sosa, a3=float(value)))
        elif key == "sosa.a6":
            cfg = replace(cfg, sosa=replace(cfg.sosa, a6=float(value)))
        elif key == "sosa.c":
            cfg = replace(cfg, sosa=replace(cfg.sosa, c=float(value)))
        else:
            raise ConfigError(f"unknown config key {key!r}")

    if model_over:
        mp = cfg.models
        groups = {"power": {}, "thermal": {}, "cooling": {}, "disk": {}}
        for key, value in model_over.items():
            if key == "models.fan_map":
                continue
            group, attr = _FLOAT_PARAMS[key]
            groups[group][attr] = value
        cfg = replace(cfg, models=ModelParams(
            power=replace(mp.power, **groups["power"]),
            thermal=replace(mp.thermal, **groups["thermal"]),
            cooling=replace(mp.cooling, **groups["cooling"]),
            disk=replace(mp.disk, **groups["disk"]),
            fan_map=model_over.get("models.fan_map", mp.fan_map),
            fan_linear_max=mp.fan_linear_max))
    return cfg
