"""Run artifact serialization: per-slot CSV, summary table, manifest and the
savings comparison between runs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .engine import RunReport, SimConfig
from .cooling import FixedCooling
from .workload import Workload

SLOT_COLUMNS = ("slot", "e_it", "e_cooling", "e_boot", "migrations",
                "power_on", "setpoint_K", "sla_otf", "sla_pdm")

SUMMARY_COLUMNS = ("Algorithm", "IT Energy (kWh)", "Cooling Energy (kWh)",
                   "Power-on events", "Power-on Energy (kWh)",
                   "Migrations events", "Average SLA (1e-4 %)",
                   "Final Energy (kWh)")


def cooling_name(cooling) -> str:
    if isinstance(cooling, FixedCooling):
        return f"fixed{cooling.setpoint:g}"
    return "varinlet"


def workload_fingerprint(w: Workload) -> str:
    h = hashlib.sha256()
    for arr in (w.cpu, w.ram, w.disk_read, w.disk_write, w.net_bw):
        h.update(np.ascontiguousarray(arr))
    h.update(",".join(w.vm_ids).encode())
    h.update(str(w.slot_seconds).encode())
    return h.hexdigest()


def config_fingerprint(cfg: SimConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def slots_csv(report: RunReport) -> str:
    lines = [",".join(SLOT_COLUMNS)]
    for m in report.slots:
        lines.append(",".join([
            str(m.slot), repr(m.e_it), repr(m.e_cooling), repr(m.e_boot),
            str(m.migrations), str(m.power_on_events), repr(m.setpoint),
            repr(m.sla_otf), repr(m.sla_pdm)]))
    return "\n".join(lines) + "\n"


def summary_csv(rows: list[tuple[str, RunReport]]) -> str:
    """Summary table, one row per run; display rounding to 2 decimals."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for name, r in rows:
        t = r.totals
        lines.append(",".join([
            name, f"{t.e_it:.2f}", f"{t.e_cooling:.2f}",
            str(t.power_on_events), f"{t.e_boot:.2f}", str(t.migrations),
            f"{r.avg_sla * 1e6:.2f}", f"{t.energy:.2f}"]))
    return "\n".join(lines) + "\n"


def calib_csv(report: RunReport) -> str:
    lines = ["slot,norm_value_mean,e_total_kwh"]
    for t, (v, m) in enumerate(zip(report.calib_values, report.slots)):
        lines.append(f"{t},{v!r},{(m.e_it + m.e_cooling)!r}")
    return "\n".join(lines) + "\n"


def manifest_dict(report: RunReport, cfg: SimConfig, workload_hash: str) -> dict:
    t = report.totals
    return {
        "version": __version__,
        "policy": cfg.policy,
        "cooling": cooling_name(cfg.cooling),
        "config_hash": config_fingerprint(cfg),
        "workload_hash": workload_hash,
        "slots": len(report.slots),
        "totals": {
            "e_it_kwh": t.e_it,
            "e_cooling_kwh": t.e_cooling,
            "e_boot_kwh": t.e_boot,
            "energy_kwh": t.energy,
            "power_on_events": t.power_on_events,
            "migrations": t.migrations,
        },
        "avg_sla": report.avg_sla,
        "pue": report.pue,
    }


def write_run_artifacts(out_dir, report: RunReport, cfg: SimConfig,
                        workload_hash: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "slots.csv").write_text(slots_csv(report))
    (out / "summary.csv").write_text(summary_csv([(cfg.policy, report)]))
    (out / "calib.csv").write_text(calib_csv(report))
    (out / "manifest.json").write_text(
        json.dumps(manifest_dict(report, cfg, workload_hash), indent=2,
                   sort_keys=True) + "\n")
    return out


def load_manifest(path) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    return json.loads(path.read_text())


def savings_pct(e_base: float, e: float) -> float:
    """Percentage energy savings of a run against a baseline total."""
    return 100.0 * (e_base - e) / e_base


def compare_table(baseline: dict, others: list[dict]) -> str:
    """Savings of each run against a baseline manifest (same workload only)."""
    for m in others:
        if m["workload_hash"] != baseline["workload_hash"]:
            raise ValueError(
                f"workload mismatch: run {m['policy']}/{m['cooling']} was not "
                "produced from the baseline's workload")
    base_e = baseline["totals"]["energy_kwh"]
    lines = ["policy,cooling,energy_kwh,savings_vs_baseline_pct"]
    lines.append(f"{baseline['policy']},{baseline['cooling']},{base_e:.2f},0.00")
    for m in others:
        e = m["totals"]["energy_kwh"]
        lines.append(f"{m['policy']},{m['cooling']},{e:.2f},"
                     f"{savings_pct(base_e, e):.2f}")
    return "\n".join(lines) + "\n"
