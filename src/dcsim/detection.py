"""Overload/underload detection and migration-candidate selection (MAD + MMT)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CPU, RAM, DataCenterState, within_capacity
from .models import BW_CAPACITY


@dataclass(frozen=True)
class MadConfig:
    safety: float = 2.5
    history_window: int = 12        # slots (1 h at 300 s)
    fallback_threshold: float = 0.9

    def __post_init__(self):
        # comparisons reject NaN, which would otherwise give NaN thresholds
        if not 0.0 < self.safety < float("inf"):
            raise ValueError("safety must be a finite number > 0")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")
        if not 0.5 <= self.fallback_threshold <= 1.0:
            raise ValueError("fallback_threshold must be in [0.5, 1.0]")


def overload_threshold(history: np.ndarray, filled: np.ndarray,
                       cfg: MadConfig = MadConfig()) -> np.ndarray:
    """Each host's adaptive overload threshold: 1 - safety * MAD (median
    absolute deviation from the median) of its ``history`` row, clamped to
    [0.5, 1.0], or the fallback where ``filled``, the slots written since
    the row was last reset, is short of the window.  A median ignores
    order, so a row may be a ring in any rotation.  Each median is
    ``(s[lo] + s[hi]) / 2`` over a sorted row: the IEEE operations of
    ``np.median`` and ``statistics.median``, but faster, and without
    ``np.median``'s lazy import of ``numpy.ma``."""
    lo, hi = (history.shape[1] - 1) // 2, history.shape[1] // 2
    s = np.sort(history, axis=1)
    med = (s[:, lo:lo + 1] + s[:, hi:hi + 1]) / 2
    s = np.sort(np.abs(history - med), axis=1)
    t = 1.0 - cfg.safety * ((s[:, lo] + s[:, hi]) / 2)
    return np.where(filled < cfg.history_window, cfg.fallback_threshold,
                    np.clip(t, 0.5, 1.0))


# share of a host's network link reserved for live migration
MIGRATION_RESERVE = 0.5
MIGRATION_BW = BW_CAPACITY * MIGRATION_RESERVE  # MB/s


def select_vms_mmt(host: int, threshold: float,
                   state: DataCenterState) -> list[int]:
    """Positions of the VMs to migrate off an overloaded host,
    minimum-migration-time first.

    Picks the VM with the shortest migration (smallest RAM over a shared
    migration bandwidth, ties in VM id order) while the host's CPU sum less
    the picks is at or above the threshold: none when it is below."""
    left = state.sums.item(CPU, host)
    rank, ram, cpu = state.rank, state.demand[RAM], state.demand[CPU]
    picked = []
    for i in sorted(state.positions_on(host),
                    key=lambda i: (ram.item(i) / MIGRATION_BW, rank.item(i))):
        if left < threshold:
            break
        picked.append(i)
        left -= cpu.item(i)
    return picked


def _fits_elsewhere(host_id: int, state: DataCenterState, thr: np.ndarray,
                    targets: np.ndarray) -> bool:
    # Greedy first-fit feasibility check over the other powered-on hosts,
    # in host-id order.
    targets = targets.copy()
    targets[host_id] = False
    sums = state.sums.copy()
    order = state.by_decreasing_cpu(state.positions_on(host_id))
    for demand in state.demand[:, order].T:
        after = sums + demand[:, None]
        ram_fits, bw_fits = within_capacity(after)
        fits = targets & (after[CPU] < thr) & ram_fits & bw_fits
        t = fits.argmax()  # the first host that fits, or 0 when none does
        if not fits[t]:
            return False
        sums[:, t] = after[:, t]
    return True


def find_underloaded(state: DataCenterState, thresholds: np.ndarray,
                     exclude: set[int] | None = None,
                     cut: float | None = None,
                     limit: int | None = None) -> list[int]:
    """Powered-on hosts whose whole VM set could be absorbed elsewhere.

    A host only qualifies if a greedy fit test places all of its VMs on other
    powered-on hosts, none of them in ``exclude``, without pushing any of
    them past its overload threshold (``thresholds``, indexed by host id).
    Candidates are walked, and returned, in ascending ``(u_cpu, id)`` order,
    so the two bounds cut the walk short without changing its prefix:

    - ``cut``: only hosts with ``u_cpu < cut`` qualify; the walk stops at the
      first host at or above it.
    - ``limit``: the walk stops after that many qualifying hosts.

    The result therefore equals the unbounded list filtered on ``u_cpu < cut``
    and truncated to ``limit`` entries, at a fraction of the fit tests.
    """
    exclude = exclude or set()
    u = state.u_cpu
    on = np.flatnonzero(state.on)
    busy = state.busy
    targets = None
    out = []
    for h in on[np.argsort(u[on], kind="stable")].tolist():
        if limit is not None and len(out) >= limit:
            break
        # an excluded host at or above the cut ends the walk too: every
        # host after it is at or above the cut as well
        if cut is not None and u[h] >= cut:
            break
        if h in exclude or not busy[h]:
            continue
        if targets is None:
            targets = state.on.copy()
            targets[list(exclude)] = False
        if _fits_elsewhere(h, state, thresholds, targets):
            out.append(h)
    return out
