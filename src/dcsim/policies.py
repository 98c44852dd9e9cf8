"""Placement policies: single-objective BFD variants, multi-objective Pareto
selection, the regression-backed composite value, per-slot dynamic selection
and the second-worst-fit baseline.

All policies share the same skeleton: VMs in decreasing demand order (ties
in VM id order), each assigned to the feasible host minimizing the policy's
consolidation value, with ties broken by lowest host id so every policy is a
deterministic function of the state.  VMs are positions in the state's
per-VM arrays, in the input lists, the ``source`` maps and the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import models
from .core import CPU, DataCenterState, within_capacity
from .detection import MadConfig
from .models import KWH_PER_WS
from .workload import SLOT_SECONDS


class SoKind(str, Enum):
    SO1 = "so1"        # min power increment (PABFD)
    SO2 = "so2"        # min host power
    SO3 = "so3"        # min 1 / (u_cpu - dfreq)
    SO4 = "so4"        # min memory temperature
    SO5 = "so5"        # min frequency increment
    SO6 = "so6"        # min 1 / u_cpu
    SO7 = "so7"        # min host + cooling power
    SO8 = "so8"        # min normalized |SO3| + |SO5| + |SO6|
    SO_SA = "sosa"     # regression of the annealer's global energy
    SWFDVP = "swfdvp"  # second-best under max power increment

PLAIN_KINDS = (SoKind.SO1, SoKind.SO2, SoKind.SO3, SoKind.SO4, SoKind.SO5,
               SoKind.SO6, SoKind.SO7)
DEFAULT_DYNSO_LIST = PLAIN_KINDS + (SoKind.SO8, SoKind.SO_SA)


@dataclass(frozen=True)
class SoSaModel:
    """Coefficients mapping normalized SO3/SO6 values and predicted global
    slot energy (kWh) onto the annealer's expected global energy."""

    a3: float = 0.1603
    a6: float = 0.7724
    c: float = 0.0102


def _flat(lo, hi) -> bool:
    """Whether the spread from ``lo`` to ``hi`` is at rounding-noise level;
    stretching such a spread onto [1, 2] would turn float dust into a
    full-scale objective."""
    return hi - lo <= 1e-9 * max(abs(lo), abs(hi), 1e-300)


def normalize_band(values: np.ndarray) -> np.ndarray:
    """Map values onto [1, 2]: min -> 1, max -> 2, constant (:func:`_flat`)
    -> 1.5."""
    lo, hi = values.min(), values.max()
    if _flat(lo, hi):
        return np.full_like(values, 1.5)
    return 1.0 + (values - lo) / (hi - lo)


def so_sa_combine(n3: float, e3: float, n6: float, e6: float,
                  m: SoSaModel = SoSaModel()) -> float:
    return m.a3 * n3 * e3 + m.a6 * n6 * e6 + m.c


def pareto_front(vectors) -> list[int]:
    """Indices of the non-dominated vectors (component-wise minimization)."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    n = len(v)
    if n == 0:
        return []
    le = (v[:, None, :] <= v[None, :, :]).all(axis=2)
    lt = (v[:, None, :] < v[None, :, :]).any(axis=2)
    dominated = (le & lt).any(axis=0)
    return [i for i in range(n) if not dominated[i]]


@dataclass
class PlacementResult:
    placement: dict[int, int] = field(default_factory=dict)
    unplaced: list[int] = field(default_factory=list)
    # per VM, the chosen host's band value (normalize_band) among the
    # candidates, logged for calibration: 1.0, as the chosen host is the
    # row's minimum, or 1.5 for a constant row; always 1.5 for mo1, mo2 and
    # swfdvp
    chosen_norm_values: dict[int, float] = field(default_factory=dict)


class _Fleet:
    """Tentative placement state of every host, one row per placer of a
    lockstep walk.

    Holds the host sums of the input state as ``sums``, of shape
    (resources, rows, hosts), so row ``k``, ``sums[:, k]``, has the state's
    own layout, and the figures the server model derives from them
    (``u_cpu``, ``mode`` and ``p_before``, the IT power of a host with VMs
    and 0 W otherwise) as (rows, hosts) arrays, all indexed by host id, so
    one VM's candidates are costed for every row in one call of
    ``models.host_operating_point``, and each row's fleet-wide IT power
    total for global-energy predictions.  The arrays span every host of the
    state; a host outside ``host_list`` is never feasible.  ``thresholds``
    holds each host's overload threshold, by host id; ``None`` puts every
    host at ``MadConfig``'s fallback threshold.  :meth:`place` updates one
    row of the arrays; the input state is never touched.
    """

    def __init__(self, state: DataCenterState, rows: int, host_list,
                 thresholds: np.ndarray | None):
        n = len(state.on)
        self.state = state
        # an empty host is costed like a cold one: the engine powers it off
        busy = state.busy
        p_before = np.where(busy, state.p_it, 0.0)

        self.sums = np.repeat(state.sums[:, None], rows, axis=1)
        self.active, self.u_cpu, self.mode, self.p_before = (
            np.tile(a, (rows, 1)) for a in (busy, state.u_cpu, state.mode, p_before))
        if thresholds is None:
            thresholds = np.full(n, MadConfig().fallback_threshold)
        # a host outside host_list gets a -inf threshold, so no VM fits it
        candidate = np.zeros(n, dtype=bool)
        candidate[list(host_list)] = True
        self.thr = np.where(candidate, thresholds, -np.inf)
        self.params = state.params
        self.t_inlet = state.setpoint
        self.cop = models.cop(self.t_inlet, self.params.cooling)
        self.cooling_factor = models.cooling_factor(self.t_inlet, self.params.cooling)
        self.total_p = np.full(rows, models.left_sum(p_before.tolist()))

    def place(self, k: int, j: int, tab: dict) -> None:
        """Add the VM of ``tab``, its :meth:`table`, to host ``j`` of row
        ``k``; the host takes the figures of that candidate."""
        self.sums[:, k, j] += tab["demand"]
        p_it = tab["p_after"][k, j]
        self.total_p[k] += p_it - self.p_before[k, j]
        self.p_before[k, j] = p_it
        self.u_cpu[k, j] = tab["u_after"][k, j]
        self.mode[k, j] = tab["mode"][k, j]
        self.active[k, j] = True

    def table(self, i: int, source: int = -1) -> dict:
        """Candidate arrays of the VM at position ``i``, shape (rows,
        hosts); the VM's ``source`` host (-1: none) is never feasible."""
        demand = self.state.demand[:, i]
        after = [row + d for row, d in zip(self.sums, demand.tolist())]
        ram_fits, bw_fits = within_capacity(after)
        feasible = (after[CPU] < self.thr) & ram_fits & bw_fits
        if source >= 0:
            feasible[:, source] = False
        u_after, mode, t_mem, p_after = models.host_operating_point(
            after, self.t_inlet, self.params)
        freqs = models.FREQS_GHZ
        dfreq = (freqs[mode] - freqs[self.mode]) / freqs[-1]
        return dict(demand=demand, feasible=feasible, u_after=u_after, mode=mode,
                    dfreq=dfreq, p_before=self.p_before, p_after=p_after,
                    t_mem=t_mem)

    def global_power(self, tab: dict, k: int) -> np.ndarray:
        """Fleet IT+cooling power (W) of row ``k`` with the VM on each host."""
        p_it = self.total_p[k] - tab["p_before"][k] + tab["p_after"][k]
        return p_it * self.cooling_factor

    def view(self, k: int, placement: dict[int, int],
             source: dict[int, int]) -> DataCenterState:
        """Row ``k`` as the state its placement leads to: ``placement``, then
        every unplaced VM on its ``source`` host when it has one, which
        mirrors how the engine treats them (they stay put).  The view holds
        row ``k``'s sums, so those VMs are added to the row.  It shares the
        input state's VM demands; read it only."""
        state = self.state
        host = state.host.copy()
        host[list(placement)] = list(placement.values())
        busy = self.active[k]
        view = state._with(
            host=host, on=state.on | busy, sums=self.sums[:, k],
            u_cpu=self.u_cpu[k], mode=self.mode[k],
            # p_before is 0 W on a host without VMs; the state has its power
            p_it=np.where(busy, self.p_before[k], state.p_it))
        view.move({i: h for i, h in source.items() if i not in placement})
        return view


def _reciprocals(tab: dict):
    """SO3 and SO6 values with their valid masks.  An invalid denominator is
    replaced by 1, so nothing divides by zero; readers mask the value out."""
    feas = tab["feasible"]
    denom3 = tab["u_after"] - tab["dfreq"]
    valid3 = feas & (denom3 > 0.0)
    valid6 = feas & (tab["u_after"] > 0.0)
    so3 = 1.0 / np.where(valid3, denom3, 1.0)
    so6 = 1.0 / np.where(valid6, tab["u_after"], 1.0)
    return so3, valid3, so6, valid6


def _values_for_kind(kind: SoKind, k: int, tab: dict, recip, fleet: _Fleet,
                     sosa: SoSaModel | None = None,
                     slot_seconds: float | None = None):
    """(values, valid_mask) of row ``k`` for one VM; ``recip`` is
    :func:`_reciprocals` of the table, or None for a kind that reads none.
    The only place the SO objectives are written; ``sosa`` and
    ``slot_seconds`` are read by SO_SA alone."""
    feas = tab["feasible"][k]
    if kind == SoKind.SWFDVP:
        # minus the power increment, with the best host dropped when there
        # is a second one, ties to the lowest id.  The dropped host's inf
        # also makes the row's spread count as constant, so the chosen
        # host's normalized value is 1.5.
        values = tab["p_before"][k] - tab["p_after"][k]
        if np.count_nonzero(feas) >= 2:
            values[np.argmin(np.where(feas, values, np.inf))] = np.inf
        return values, feas
    if kind == SoKind.SO1:
        return tab["p_after"][k] - tab["p_before"][k], feas
    if kind == SoKind.SO2:
        return tab["p_after"][k], feas
    if kind == SoKind.SO4:
        return tab["t_mem"][k], feas
    if kind == SoKind.SO5:
        return tab["dfreq"][k], feas
    if kind == SoKind.SO7:
        p_after = tab["p_after"][k]
        return p_after + p_after / fleet.cop, feas

    so3, valid3, so6, valid6 = (a[k] for a in recip)
    if kind == SoKind.SO3:
        return so3, valid3
    if kind == SoKind.SO6:
        return so6, valid6

    valid = valid3 & valid6
    vals = np.full_like(so3, np.nan)
    if not valid.any():
        return vals, valid
    n3 = normalize_band(so3[valid])
    n6 = normalize_band(so6[valid])
    if kind == SoKind.SO8:
        vals[valid] = n3 + normalize_band(tab["dfreq"][k][valid]) + n6
    else:  # SO_SA
        energy = (fleet.global_power(tab, k) * slot_seconds * KWH_PER_WS)[valid]
        vals[valid] = so_sa_combine(n3, energy, n6, energy, sosa)
    return vals, valid


def _so_pick(kinds, sosa: SoSaModel, slot_seconds: float):
    """Pick rule of the SO kinds, one fleet row per kind: each row takes its
    feasible host of lowest value, ties to the lowest host id."""
    kinds = [SoKind(kind) for kind in kinds]
    reads_recip = any(kind in (SoKind.SO3, SoKind.SO6, SoKind.SO8, SoKind.SO_SA)
                      for kind in kinds)

    def pick(fleet, tab):
        shape = tab["feasible"].shape
        values = np.zeros(shape)
        valid = np.zeros(shape, dtype=bool)
        recip = _reciprocals(tab) if reads_recip else None
        for k, kind in enumerate(kinds):
            values[k], valid[k] = _values_for_kind(kind, k, tab, recip, fleet,
                                                   sosa, slot_seconds)
        masked = np.where(valid, values, np.inf)
        hosts = masked.argmin(axis=1).tolist()
        lows = masked.min(axis=1).tolist()
        highs = np.where(valid, values, -np.inf).max(axis=1).tolist()
        norms = []
        for k, (lo, hi) in enumerate(zip(lows, highs)):
            if lo == np.inf:
                hosts[k] = -1
            # the chosen value is the row's minimum, so normalize_band maps
            # it to 1, or to 1.5 when the row's spread counts as constant
            norms.append(1.5 if _flat(lo, hi) else 1.0)
        return hosts, norms

    return pick


def _bfd(rows: int, vm_list, host_list, state: DataCenterState,
         thresholds: np.ndarray | None, source: dict[int, int] | None, pick):
    """The best-fit-decreasing walk every placer shares, for ``rows``
    placers in lockstep.

    VMs go in :meth:`DataCenterState.by_decreasing_cpu` order.
    ``pick(fleet, table)`` returns, per row, the id of the chosen host (-1
    when the VM has no feasible host; it is reported unplaced) and the
    choice's normalized value.  Each row's placements accumulate on its row
    of a :class:`_Fleet`, so its later VMs see its earlier assignments;
    ``state`` is not modified.  Returns the fleet and one result per row.
    """
    fleet = _Fleet(state, rows, host_list, thresholds)
    source = source or {}
    results = [PlacementResult() for _ in range(rows)]
    for i in state.by_decreasing_cpu(vm_list).tolist():
        tab = fleet.table(i, source.get(i, -1))
        hosts, norms = pick(fleet, tab)
        for k, (j, norm, result) in enumerate(zip(hosts, norms, results)):
            if j < 0:
                result.unplaced.append(i)
                continue
            result.placement[i] = j
            result.chosen_norm_values[i] = norm
            fleet.place(k, j, tab)
    return fleet, results


def so_place(kind: SoKind, vm_list, host_list, state: DataCenterState,
             thresholds: np.ndarray | None = None,
             source: dict[int, int] | None = None,
             sosa: SoSaModel | None = None,
             slot_seconds: float = SLOT_SECONDS) -> PlacementResult:
    """Best-fit-decreasing placement under one SO consolidation value.

    ``state`` must hold the VMs of ``vm_list`` detached from any host and is
    not modified.  ``thresholds`` holds each host's overload threshold, by
    host id (``None``: the fallback threshold everywhere), and ``source``
    the host a moving VM leaves, which never takes it back.  Each VM goes to
    the feasible host of lowest value, ties to the lowest host id; VMs with
    no feasible host are reported unplaced.
    """
    pick = _so_pick([kind], sosa or SoSaModel(), slot_seconds)
    return _bfd(1, vm_list, host_list, state, thresholds, source, pick)[1][0]


def mo_place(kind: str, vm_list, host_list, state: DataCenterState,
             thresholds: np.ndarray | None = None,
             source: dict[int, int] | None = None,
             prefer_utilization: float | None = None) -> PlacementResult:
    """Multi-objective placement over the Pareto front of the 7 SO values.

    ``kind`` is "mo1" (min predicted global IT+cooling power) or "mo2"
    (min Euclidean norm of the [1,2]-normalized objective vector).
    Candidates are tiered: hosts already running VMs first (identical cold
    candidates would degenerate the [1,2] normalization), and within those,
    hosts at or above ``prefer_utilization`` (hosts below it are queued for
    draining and only receive when nothing else fits).
    """
    if kind not in ("mo1", "mo2"):
        raise ValueError(f"unknown MO kind {kind}")

    def pick(fleet, tab):
        recip = _reciprocals(tab)
        columns, masks = zip(*(_values_for_kind(so, 0, tab, recip, fleet)
                               for so in PLAIN_KINDS))
        # a candidate has every objective valid
        valid = np.logical_and.reduce(masks)
        if (valid & fleet.active[0]).any():
            valid = valid & fleet.active[0]
            if prefer_utilization is not None:
                keep = valid & (fleet.sums[CPU, 0] >= prefer_utilization)
                if keep.any():
                    valid = keep
        if not valid.any():
            return [-1], [1.5]
        raw = np.column_stack(columns)[valid]
        front = pareto_front(raw)
        if kind == "mo1":
            score = fleet.global_power(tab, 0)[valid][front]
        else:
            normalized = np.column_stack([normalize_band(raw[:, c])
                                          for c in range(7)])
            score = np.sqrt((normalized[front] ** 2).sum(axis=1))
        # scores within rounding noise of the best tie; ties go to the lowest host id
        best = front[int(np.argmax(score - score.min() <= 1e-9 * abs(score.min())))]
        return [int(np.flatnonzero(valid)[best])], [1.5]

    return _bfd(1, vm_list, host_list, state, thresholds, source, pick)[1][0]


def swfdvp_place(vm_list, host_list, state: DataCenterState,
                 thresholds: np.ndarray | None = None,
                 source: dict[int, int] | None = None) -> PlacementResult:
    """Second-worst-fit baseline: rank feasible hosts by decreasing power
    increment and take the second one (the only one when the set is a
    singleton)."""
    return so_place(SoKind.SWFDVP, vm_list, host_list, state, thresholds,
                    source)


@dataclass(kw_only=True)
class DynSoResult(PlacementResult):
    kind: SoKind
    global_power: float  # W, IT + cooling of the winning tentative state


def evaluate_global_power(state: DataCenterState) -> float:
    """IT + cooling power (W) of a placed fleet; a host without VMs does not
    count, since the engine powers it off."""
    return (models.left_sum(state.p_it[state.busy].tolist())
            * models.cooling_factor(state.setpoint, state.params.cooling))


def dynso_place(vm_list, host_list, state: DataCenterState,
                so_list=DEFAULT_DYNSO_LIST,
                thresholds: np.ndarray | None = None,
                source: dict[int, int] | None = None,
                sosa: SoSaModel | None = None,
                slot_seconds: float = SLOT_SECONDS,
                evaluator=None) -> DynSoResult:
    """Place under every SO kind and keep the one with the lowest global power.

    The kinds walk the VMs in lockstep, one :class:`_Fleet` row each, so
    each kind places exactly as :func:`so_place` would.  ``evaluator(fleet)``
    returns the power of the fleet a placement leads to, given as a
    read-only :class:`DataCenterState`, and defaults to
    :func:`evaluate_global_power`; the
    engine passes one that also accounts for the hosts its underload pass
    would free.  The view holds the placement, then every unplaced VM on its
    ``source`` host when it has one (which may lie outside ``host_list``),
    which mirrors how the engine treats them (they stay put).  The evaluator
    runs once per distinct placement: a kind that repeats an earlier kind's
    placement could only tie, and ties go to the earlier kind in ``so_list``.
    """
    kinds = list(so_list)
    if not kinds:
        raise ValueError("so_list must not be empty")
    fleet, results = _bfd(len(kinds), vm_list, host_list, state, thresholds,
                          source, _so_pick(kinds, sosa or SoSaModel(),
                                           slot_seconds))
    evaluator = evaluator or evaluate_global_power
    best = None
    seen = []
    for k, (kind, r) in enumerate(zip(kinds, results)):
        if r.placement in seen:
            continue
        seen.append(r.placement)
        power = evaluator(fleet.view(k, r.placement, source or {}))
        if best is None or power < best.global_power:
            best = DynSoResult(placement=r.placement, unplaced=r.unplaced,
                               kind=kind, global_power=power,
                               chosen_norm_values=r.chosen_norm_values)
    return best
