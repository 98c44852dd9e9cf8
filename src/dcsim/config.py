"""Flat dotted-key configuration files (``section.key = value``) plus helpers
to fold them into a simulation config.  CLI flags always win over file values.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .cooling import FixedCooling, VarInletCooling
from .engine import SimConfig


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
        try:
            return FixedCooling(setpoint)
        except ValueError as e:
            raise ConfigError(str(e)) from None
    raise ConfigError(f"unknown cooling strategy {name!r}")


def _finite(value) -> float:
    """A float that is neither NaN nor infinite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not a finite number")
    return number


# config key -> (parser of its value, dotted path of the SimConfig field);
# only sa.timecap may be infinite: inf means no cap
_KEYS = {
    "models.c_dyn": (_finite, "models.power.c_dyn"),
    "models.c_mem": (_finite, "models.power.c_mem"),
    "models.c_fan": (_finite, "models.power.c_fan"),
    "models.mem_k1": (_finite, "models.thermal.mem_k1"),
    "models.mem_k2": (_finite, "models.thermal.mem_k2"),
    "models.cpu_k1": (_finite, "models.thermal.cpu_k1"),
    "models.cpu_k2": (_finite, "models.thermal.cpu_k2"),
    "models.cop_a": (_finite, "models.cooling.cop_a"),
    "models.cop_b": (_finite, "models.cooling.cop_b"),
    "models.cop_c": (_finite, "models.cooling.cop_c"),
    "models.c_read": (_finite, "models.disk.c_read"),
    "models.c_write": (_finite, "models.disk.c_write"),
    "run.hosts": (int, "hosts"),
    "run.policy": (str, "policy"),
    "run.cooling": (cooling_from_name, "cooling"),
    "detection.safety": (_finite, "mad.safety"),
    "detection.history_window": (int, "mad.history_window"),
    "detection.fallback_threshold": (_finite, "mad.fallback_threshold"),
    "sa.iterations": (int, "sa.iterations"),
    "sa.k": (_finite, "sa.k"),
    "sa.seed": (int, "sa.seed"),
    "sa.timecap": (float, "sa.wall_time_cap"),
    "sosa.a3": (_finite, "sosa.a3"),
    "sosa.a6": (_finite, "sosa.a6"),
    "sosa.c": (_finite, "sosa.c"),
}


def _replaced(obj, path: str, value):
    """``obj`` with the field at the dotted ``path`` set to ``value``."""
    name, _, rest = path.partition(".")
    return replace(obj, **{name: _replaced(getattr(obj, name), rest, value)
                           if rest else value})


def apply_config(cfg: SimConfig, values: dict) -> SimConfig:
    """Overlay flat config values onto a SimConfig: strings read from a file,
    or values a command-line flag has already typed.  A value its key's type
    cannot read, or that the config rejects, raises a ConfigError that
    names the key."""
    for key, value in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        parse, path = _KEYS[key]
        try:
            cfg = _replaced(cfg, path, parse(value))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{key} = {value}: {e}") from None
    return cfg
