"""Overload/underload detection and migration-candidate selection (MAD + MMT)."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from .core import DataCenterState, HostState


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


def _fits_elsewhere(host: HostState, state: DataCenterState,
                    thresholds: dict[int, float], exclude: set[int]) -> bool:
    # Greedy first-fit feasibility check over the other powered-on hosts.
    targets = [h for h in state.hosts
               if h.powered_on and h.id != host.id and h.id not in exclude]
    cpu = {h.id: h.cpu_sum for h in targets}
    ram = {h.id: h.ram_sum for h in targets}
    bw = {h.id: h.bw_sum for h in targets}
    vms = sorted(host.vms, key=lambda vid: (-state.vms[vid].cpu_demand, vid))
    for vid in vms:
        vm = state.vms[vid]
        placed = False
        for t in targets:
            thr = thresholds.get(t.id, 1.0)
            if (cpu[t.id] + vm.cpu_demand < thr
                    and ram[t.id] + vm.ram_used <= t.spec.ram_capacity
                    and bw[t.id] + vm.net_bw <= t.spec.bw_capacity):
                cpu[t.id] += vm.cpu_demand
                ram[t.id] += vm.ram_used
                bw[t.id] += vm.net_bw
                placed = True
                break
        if not placed:
            return False
    return True


def find_underloaded(state: DataCenterState, exclude: set[int] | None = None,
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
    thresholds = thresholds or {}
    out = []
    candidates = sorted((h for h in state.hosts if h.powered_on and h.id not in exclude),
                        key=lambda h: (h.u_cpu, h.id))
    for h in candidates:
        if limit is not None and len(out) >= limit:
            break
        if cut is not None and h.u_cpu >= cut:
            break
        if not h.vms:
            continue
        if _fits_elsewhere(h, state, thresholds, exclude):
            out.append(h.id)
    return out
