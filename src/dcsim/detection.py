"""Overload/underload detection and migration-candidate selection (MAD + MMT)."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

import numpy as np

from .core import DataCenterState, FleetView, HostState


@dataclass(frozen=True)
class MadConfig:
    safety: float = 2.5
    history_window: int = 12        # slots (1 h at 300 s)
    fallback_threshold: float = 0.9

    def __post_init__(self):
        if self.safety <= 0:
            raise ValueError("safety must be positive")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")


def mad(values) -> float:
    """Median absolute deviation from the median."""
    m = median(values)
    return median(abs(v - m) for v in values)


def overload_threshold(history, cfg: MadConfig = MadConfig()) -> float:
    """Adaptive utilization threshold: 1 - safety * MAD of recent utilization.

    Falls back to the static threshold until enough history accumulated;
    the result is clamped to [0.5, 1.0].
    """
    recent = list(history)[-cfg.history_window:]
    if len(recent) < cfg.history_window:
        return cfg.fallback_threshold
    t = 1.0 - cfg.safety * mad(recent)
    return min(1.0, max(0.5, t))


def migration_bandwidth(host: HostState, reserve_fraction: float = 0.5) -> float:
    """Bandwidth available to live migration, MB/s (half the link by default)."""
    return host.spec.bw_capacity * reserve_fraction


def select_vms_mmt(host: HostState, threshold: float, state: DataCenterState,
                   reserve_fraction: float = 0.5) -> list[str]:
    """VMs to migrate off an overloaded host, minimum-migration-time first.

    Repeatedly picks the VM with the shortest migration (smallest RAM over a
    shared migration bandwidth) until the projected raw utilization drops
    below the threshold.  Returns an empty list when the host is not over
    the threshold.
    """
    projected = host.cpu_sum
    if projected < threshold:
        return []
    bw = migration_bandwidth(host, reserve_fraction)
    remaining = sorted(host.vms, key=lambda vid: (state.vms[vid].ram_used / bw, vid))
    picked = []
    for vid in remaining:
        if projected < threshold:
            break
        picked.append(vid)
        projected -= state.vms[vid].cpu_demand
    return picked


def threshold_array(thresholds: dict[int, float] | None, n: int) -> np.ndarray:
    """Overload thresholds of hosts ``0 .. n-1`` as an array; 1.0 for a host
    that ``thresholds`` does not name."""
    thr = np.ones(n)
    if thresholds:
        k = len(thresholds)
        thr[np.fromiter(thresholds, np.intp, k)] = np.fromiter(
            thresholds.values(), float, k)
    return thr


def _fits_elsewhere(host_id: int, fleet: FleetView, thr: np.ndarray,
                    targets: np.ndarray) -> bool:
    # Greedy first-fit feasibility check over the other powered-on hosts,
    # in host-id order.
    targets = targets.copy()
    targets[host_id] = False
    cpu = fleet.cpu_sum.copy()
    ram = fleet.ram_sum.copy()
    bw = fleet.bw_sum.copy()
    vms = sorted((fleet.state.vms[vid] for vid in fleet.vm_ids(host_id)),
                 key=lambda vm: (-vm.cpu_demand, vm.id))
    for vm in vms:
        fits = (targets & (cpu + vm.cpu_demand < thr)
                & (ram + vm.ram_used <= fleet.ram_cap)
                & (bw + vm.net_bw <= fleet.bw_cap))
        if not fits.any():
            return False
        t = int(fits.argmax())
        cpu[t] += vm.cpu_demand
        ram[t] += vm.ram_used
        bw[t] += vm.net_bw
    return True


def find_underloaded(fleet: FleetView, exclude: set[int] | None = None,
                     thresholds: dict[int, float] | None = None,
                     cut: float | None = None,
                     limit: int | None = None) -> list[int]:
    """Powered-on hosts whose whole VM set could be absorbed elsewhere.

    A host only qualifies if a greedy fit test places all of its VMs on other
    powered-on hosts without pushing any of them past its overload threshold.
    Candidates are walked, and returned, in ascending ``(u_cpu, id)`` order,
    so the two bounds cut the walk short without changing its prefix:

    - ``cut``: only hosts with ``u_cpu < cut`` qualify; the walk stops at the
      first host at or above it.
    - ``limit``: the walk stops after that many qualifying hosts.

    The result therefore equals the unbounded list filtered on ``u_cpu < cut``
    and truncated to ``limit`` entries, at a fraction of the fit tests.
    """
    exclude = exclude or set()
    u = fleet.u_cpu
    on = np.flatnonzero(fleet.on)
    targets = thr = None
    out = []
    for h in on[np.argsort(u[on], kind="stable")].tolist():
        if limit is not None and len(out) >= limit:
            break
        # an excluded host at or above the cut ends the walk too: every
        # host after it is at or above the cut as well
        if cut is not None and u[h] >= cut:
            break
        if h in exclude or not fleet.busy[h]:
            continue
        if targets is None:
            targets = fleet.on.copy()
            targets[list(exclude)] = False
            thr = threshold_array(thresholds, len(targets))
        if _fits_elsewhere(h, fleet, thr, targets):
            out.append(h)
    return out
