"""Placement policies: single-objective BFD variants, multi-objective Pareto
selection, the regression-backed composite value, per-slot dynamic selection
and the second-worst-fit baseline.

All policies share the same skeleton: VMs in decreasing demand order, each
assigned to the feasible host minimizing the policy's consolidation value,
with ties broken by lowest host id so every policy is a deterministic
function of the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import models
from .core import DataCenterState, HostState, ObjectiveVector, VmState
from .models import KWH_PER_WS


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

PABFD = SoKind.SO1

PLAIN_KINDS = (SoKind.SO1, SoKind.SO2, SoKind.SO3, SoKind.SO4, SoKind.SO5,
               SoKind.SO6, SoKind.SO7)
DEFAULT_DYNSO_LIST = (SoKind.SO1, SoKind.SO2, SoKind.SO3, SoKind.SO4,
                      SoKind.SO5, SoKind.SO6, SoKind.SO7, SoKind.SO8,
                      SoKind.SO_SA)


@dataclass(frozen=True)
class SoSaModel:
    """Coefficients mapping normalized SO3/SO6 values and predicted global
    slot energy (kWh) onto the annealer's expected global energy."""

    a3: float = 0.1603
    a6: float = 0.7724
    c: float = 0.0102


class GuardError(ValueError):
    """A consolidation value is undefined for this candidate (skip it)."""


@dataclass(frozen=True)
class CandidateView:
    """Model outputs for placing one VM on one host."""

    host_id: int
    u_after: float           # post-allocation utilization, clamped to 1
    dfreq: float             # governor frequency increment over f_max
    p_before: float          # W (0 for a powered-off host)
    p_after: float           # W
    t_mem_after: float       # K
    p_cooling_after: float   # W


def evaluate_candidate(vm: VmState, host: HostState, state: DataCenterState) -> CandidateView:
    """Predict the post-allocation view of one host for one VM."""
    spec = host.spec
    u_after, _, mode_after, _, t_mem_after, p_after = models.host_operating_point(
        host.cpu_sum + vm.cpu_demand, host.ram_sum + vm.ram_used,
        host.disk_read + vm.disk_read, host.disk_write + vm.disk_write,
        host.t_inlet, spec, state.params)
    f_before = host.mode.f_op if host.mode else spec.dvfs_table[0].f_op
    # frequency increment normalized by the top frequency, so it shares the
    # [0,1] scale of the utilization it is traded against
    dfreq = (mode_after.f_op - f_before) / spec.dvfs_table[-1].f_op
    p_before = host.p_it if (host.powered_on and host.vms) else 0.0
    p_cooling = p_after / models.cop(host.t_inlet, state.params.cooling)
    return CandidateView(host_id=host.id, u_after=u_after, dfreq=dfreq,
                         p_before=p_before, p_after=p_after,
                         t_mem_after=t_mem_after, p_cooling_after=p_cooling)


def so_value_from_view(kind: SoKind, view: CandidateView) -> float:
    """Scalar consolidation value of one candidate for the plain SO kinds."""
    if kind == SoKind.SO1:
        return view.p_after - view.p_before
    if kind == SoKind.SO2:
        return view.p_after
    if kind == SoKind.SO3:
        denom = view.u_after - view.dfreq
        if denom <= 0.0:
            raise GuardError(f"u_cpu - dfreq = {denom} <= 0 on host {view.host_id}")
        return 1.0 / denom
    if kind == SoKind.SO4:
        return view.t_mem_after
    if kind == SoKind.SO5:
        return view.dfreq
    if kind == SoKind.SO6:
        if view.u_after <= 0.0:
            raise GuardError(f"u_cpu = 0 on host {view.host_id}")
        return 1.0 / view.u_after
    if kind == SoKind.SO7:
        return view.p_after + view.p_cooling_after
    raise ValueError(f"{kind} has no per-candidate scalar value")


def so_value(kind: SoKind, vm: VmState, host: HostState,
             state: DataCenterState) -> float:
    return so_value_from_view(kind, evaluate_candidate(vm, host, state))


def objective_vector(view: CandidateView) -> ObjectiveVector:
    """The 7-component multi-objective vector of one candidate."""
    return ObjectiveVector(
        d_p_host=view.p_after - view.p_before,
        p_host=view.p_after,
        inv_u_minus_dfreq=so_value_from_view(SoKind.SO3, view),
        t_mem=view.t_mem_after,
        d_freq=view.dfreq,
        inv_u=so_value_from_view(SoKind.SO6, view),
        p_host_plus_cooling=view.p_after + view.p_cooling_after)


def normalize_band(values: np.ndarray) -> np.ndarray:
    """Map values onto [1, 2]: min -> 1, max -> 2, constant -> 1.5.

    A spread at rounding-noise level counts as constant; stretching it onto
    [1, 2] would turn float dust into a full-scale objective.
    """
    lo = values.min()
    hi = values.max()
    if hi - lo <= 1e-9 * max(abs(lo), abs(hi), 1e-300):
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
class CandidateEvaluation:
    """One host's evaluation while placing one VM."""

    host_id: int
    so_values: ObjectiveVector
    normalized: ObjectiveVector
    predicted_global_energy: float  # kWh over the slot


def candidate_evaluations(vm: VmState, host_ids, state: DataCenterState,
                          slot_seconds: float = 300.0) -> list[CandidateEvaluation]:
    """Full per-host evaluations for one VM: raw objective vectors, their
    [1,2] normalization over the candidate set, and the predicted whole-fleet
    slot energy.  Hosts tripping a guard are skipped."""
    views = []
    for hid in sorted(host_ids):
        view = evaluate_candidate(vm, state.hosts[hid], state)
        try:
            views.append((hid, view, objective_vector(view)))
        except GuardError:
            continue
    if not views:
        return []
    raw = np.array([vec.as_tuple() for _, _, vec in views])
    norm = np.column_stack([normalize_band(raw[:, c]) for c in range(raw.shape[1])])
    cool = models.cop(state.setpoint, state.params.cooling)
    total_p = effective_it_power(state)
    out = []
    for k, (hid, view, vec) in enumerate(views):
        power = (total_p - view.p_before + view.p_after) * (1.0 + 1.0 / cool)
        out.append(CandidateEvaluation(
            host_id=hid, so_values=vec,
            normalized=ObjectiveVector(*norm[k]),
            predicted_global_energy=power * slot_seconds * KWH_PER_WS))
    return out


@dataclass
class PlacementResult:
    placement: dict[str, int] = field(default_factory=dict)
    unplaced: list[str] = field(default_factory=list)
    # mean-normalized consolidation value of the chosen candidates, used for
    # calibration logging (1.5 when the kind has no per-candidate scalar)
    chosen_norm_values: dict[str, float] = field(default_factory=dict)


class _Fleet:
    """Tentative placement state over a fixed host-id set.

    Holds the host aggregates of the input state as numpy arrays, so one VM's
    candidates are costed in a handful of vector operations, and the
    fleet-wide IT power total for global-energy predictions.  :meth:`place`
    updates the arrays only; the input state is never touched.
    """

    def __init__(self, state: DataCenterState, host_ids: list[int],
                 thresholds: dict[int, float], default_threshold: float):
        self.ids = np.array(sorted(host_ids), dtype=int)
        self.row = {int(hid): j for j, hid in enumerate(self.ids)}
        hosts = [state.hosts[hid] for hid in self.ids]
        self.specs = [h.spec for h in hosts]
        spec0 = self.specs[0] if hosts else None
        self.freqs = np.array([m.f_op for m in spec0.dvfs_table]) if spec0 else None
        self.volts = np.array([m.v_dd for m in spec0.dvfs_table]) if spec0 else None

        def column(values):
            return np.array(values, dtype=float)

        self.cpu_sum = column([h.cpu_sum for h in hosts])
        self.ram_sum = column([h.ram_sum for h in hosts])
        self.bw_sum = column([h.bw_sum for h in hosts])
        self.disk_r = column([h.disk_read for h in hosts])
        self.disk_w = column([h.disk_write for h in hosts])
        # an empty host is costed like a cold one: the engine powers it off
        self.active = np.array([h.powered_on and bool(h.vms) for h in hosts],
                               dtype=bool)
        self.p_before = np.where(self.active, column([h.p_it for h in hosts]), 0.0)
        self.f_before = column([h.mode.f_op if h.mode else h.spec.dvfs_table[0].f_op
                                for h in hosts])
        self.ram_cap = column([h.spec.ram_capacity for h in hosts])
        self.bw_cap = column([h.spec.bw_capacity for h in hosts])
        self.fan_default = column([h.spec.fan_speed_default for h in hosts])
        self.thr = column([thresholds.get(h.id, default_threshold) for h in hosts])
        self.params = state.params
        self.t_inlet = state.setpoint
        self.cop = models.cop(self.t_inlet, self.params.cooling)
        self.total_p = effective_it_power(state)

    def place(self, vm: VmState, j: int) -> None:
        """Add ``vm`` to the host in row ``j`` and re-cost that host."""
        self.cpu_sum[j] += vm.cpu_demand
        self.ram_sum[j] += vm.ram_used
        self.bw_sum[j] += vm.net_bw
        self.disk_r[j] += vm.disk_read
        self.disk_w[j] += vm.disk_write
        # Python floats, so the host costs what DataCenterState.refresh says
        _, _, mode, _, _, p_it = models.host_operating_point(
            float(self.cpu_sum[j]), float(self.ram_sum[j]),
            float(self.disk_r[j]), float(self.disk_w[j]), self.t_inlet,
            self.specs[j], self.params)
        self.total_p += p_it - self.p_before[j]
        self.p_before[j] = p_it
        self.f_before[j] = mode.f_op
        self.active[j] = True

    def table(self, vm: VmState, forbidden_host: int | None = None) -> dict:
        """Candidate arrays for one VM over the fleet's host ids."""
        p = self.params
        u_raw = self.cpu_sum + vm.cpu_demand
        feasible = ((u_raw < self.thr)
                    & (self.ram_sum + vm.ram_used <= self.ram_cap + 1e-9)
                    & (self.bw_sum + vm.net_bw <= self.bw_cap + 1e-9))
        if forbidden_host is not None and forbidden_host in self.row:
            feasible[self.row[forbidden_host]] = False
        u_after = np.minimum(1.0, u_raw)
        f_max = self.freqs[-1]
        idx = np.searchsorted(self.freqs, u_after * f_max - 1e-12, side="left")
        idx = np.minimum(idx, len(self.freqs) - 1)
        f_after = self.freqs[idx]
        v_after = self.volts[idx]
        dfreq = (f_after - self.f_before) / f_max
        u_mem = np.minimum(100.0, np.maximum(
            models.U_MEM_FLOOR, 100.0 * (self.ram_sum + vm.ram_used) / self.ram_cap))
        t_mem = p.thermal.mem_k1 * self.t_inlet + 2.0 * p.thermal.mem_k2 * np.log(u_mem)
        if p.fan_map == "linear":
            fan = self.fan_default + (p.fan_linear_max - self.fan_default) * u_after
        else:
            fan = self.fan_default
        p_after = (p.power.c_dyn * v_after * v_after * f_after * u_after
                   + p.power.c_mem * t_mem * t_mem
                   + p.power.c_fan * fan ** 3
                   + p.disk.c_read * (self.disk_r + vm.disk_read)
                   + p.disk.c_write * (self.disk_w + vm.disk_write))
        return {
            "feasible": feasible,
            "u_after": u_after,
            "dfreq": dfreq,
            "p_before": self.p_before.copy(),
            "p_after": p_after,
            "t_mem": t_mem,
            "p_cool": p_after / self.cop,
        }

    def global_power(self, tab: dict) -> np.ndarray:
        """Fleet IT+cooling power (W) with the VM on each candidate."""
        p_it = self.total_p - tab["p_before"] + tab["p_after"]
        return p_it * (1.0 + 1.0 / self.cop)

    def global_energy_kwh(self, tab: dict, slot_seconds: float) -> np.ndarray:
        return self.global_power(tab) * slot_seconds * KWH_PER_WS


def _values_for_kind(kind: SoKind, tab: dict, fleet: _Fleet, sosa: SoSaModel,
                     slot_seconds: float):
    """(values, valid_mask) over the fleet for one VM; NaN where invalid."""
    feas = tab["feasible"]
    if kind == SoKind.SO1:
        return tab["p_after"] - tab["p_before"], feas
    if kind == SoKind.SO2:
        return tab["p_after"], feas
    if kind == SoKind.SO4:
        return tab["t_mem"], feas
    if kind == SoKind.SO5:
        return tab["dfreq"], feas
    if kind == SoKind.SO7:
        return tab["p_after"] + tab["p_cool"], feas

    denom3 = tab["u_after"] - tab["dfreq"]
    valid3 = feas & (denom3 > 0.0)
    valid6 = feas & (tab["u_after"] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        so3 = np.where(valid3, 1.0 / np.where(valid3, denom3, 1.0), np.nan)
        so6 = np.where(valid6, 1.0 / np.where(valid6, tab["u_after"], 1.0), np.nan)
    if kind == SoKind.SO3:
        return so3, valid3
    if kind == SoKind.SO6:
        return so6, valid6

    valid = valid3 & valid6
    if not valid.any():
        return np.full_like(so3, np.nan), valid
    if kind == SoKind.SO8:
        n3 = normalize_band(so3[valid])
        n5 = normalize_band(tab["dfreq"][valid])
        n6 = normalize_band(so6[valid])
        vals = np.full_like(so3, np.nan)
        vals[valid] = n3 + n5 + n6
        return vals, valid
    if kind == SoKind.SO_SA:
        n3 = normalize_band(so3[valid])
        n6 = normalize_band(so6[valid])
        energy = fleet.global_energy_kwh(tab, slot_seconds)[valid]
        vals = np.full_like(so3, np.nan)
        vals[valid] = sosa.a3 * n3 * energy + sosa.a6 * n6 * energy + sosa.c
        return vals, valid
    raise ValueError(f"unsupported kind {kind}")


def _sorted_vms(vm_list, state) -> list[VmState]:
    vms = [state.vms[v] if isinstance(v, str) else v for v in vm_list]
    return sorted(vms, key=lambda vm: (-vm.cpu_demand, vm.id))


def _bfd(vm_list, host_list, state: DataCenterState,
         thresholds: dict[int, float] | None, default_threshold: float,
         forbidden: dict[str, int] | None, pick) -> PlacementResult:
    """The best-fit-decreasing walk every placer shares.

    VMs go in decreasing demand order, ties by id.  ``pick(fleet, table)``
    returns the fleet row of the chosen host and the choice's normalized
    value, or None when the VM has no feasible host (it is reported
    unplaced).  Placements accumulate on a :class:`_Fleet`, so later VMs
    see earlier assignments; ``state`` is not modified.
    """
    fleet = _Fleet(state, list(host_list), thresholds or {}, default_threshold)
    forbidden = forbidden or {}
    result = PlacementResult()
    for vm in _sorted_vms(vm_list, state):
        chosen = pick(fleet, fleet.table(vm, forbidden.get(vm.id)))
        if chosen is None:
            result.unplaced.append(vm.id)
            continue
        j, norm_value = chosen
        result.placement[vm.id] = int(fleet.ids[j])
        result.chosen_norm_values[vm.id] = norm_value
        fleet.place(vm, j)
    return result


def so_place(kind: SoKind, vm_list, host_list, state: DataCenterState,
             thresholds: dict[int, float] | None = None,
             default_threshold: float = 0.9,
             forbidden: dict[str, int] | None = None,
             sosa: SoSaModel | None = None,
             slot_seconds: float = 300.0) -> PlacementResult:
    """Best-fit-decreasing placement under one SO consolidation value.

    ``state`` must hold the VMs of ``vm_list`` detached from any host and is
    not modified.  Each VM goes to the feasible host of lowest value, ties to
    the lowest host id; VMs with no feasible host are reported unplaced.
    """
    if kind == SoKind.SWFDVP:
        return swfdvp_place(vm_list, host_list, state, thresholds,
                            default_threshold, forbidden)
    sosa = sosa or SoSaModel()

    def pick(fleet, tab):
        values, valid = _values_for_kind(kind, tab, fleet, sosa, slot_seconds)
        if not valid.any():
            return None
        # ids ascend, so the first minimum is the lowest host id
        j = int(np.argmin(np.where(valid, values, np.inf)))
        norm = normalize_band(values[valid])
        return j, float(norm[np.count_nonzero(valid[:j])])

    return _bfd(vm_list, host_list, state, thresholds, default_threshold,
                forbidden, pick)


def so_sa_value(vm: VmState, host: HostState, state: DataCenterState,
                m: SoSaModel = SoSaModel(), candidates=None,
                slot_seconds: float = 300.0) -> float:
    """Composite consolidation value of one host within a candidate set.

    Normalization runs over ``candidates`` (host ids, defaulting to just the
    given host, which degenerates both normalized values to 1.5).
    """
    ids = sorted(set(candidates or [host.id]) | {host.id})
    so3 = []
    so6 = []
    energies = []
    cool = models.cop(state.setpoint, state.params.cooling)
    total_p = effective_it_power(state)
    for hid in ids:
        view = evaluate_candidate(vm, state.hosts[hid], state)
        so3.append(so_value_from_view(SoKind.SO3, view))
        so6.append(so_value_from_view(SoKind.SO6, view))
        p_global = (total_p - view.p_before + view.p_after) * (1.0 + 1.0 / cool)
        energies.append(p_global * slot_seconds * KWH_PER_WS)
    n3 = normalize_band(np.array(so3))
    n6 = normalize_band(np.array(so6))
    k = ids.index(host.id)
    return so_sa_combine(float(n3[k]), energies[k], float(n6[k]), energies[k], m)


def mo_place(kind: str, vm_list, host_list, state: DataCenterState,
             thresholds: dict[int, float] | None = None,
             default_threshold: float = 0.9,
             forbidden: dict[str, int] | None = None,
             slot_seconds: float = 300.0,
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
        denom3 = tab["u_after"] - tab["dfreq"]
        valid = tab["feasible"] & (denom3 > 0.0) & (tab["u_after"] > 0.0)
        if (valid & fleet.active).any():
            valid = valid & fleet.active
            if prefer_utilization is not None:
                keep = valid & (fleet.cpu_sum >= prefer_utilization)
                if keep.any():
                    valid = keep
        if not valid.any():
            return None
        raw = np.column_stack([
            (tab["p_after"] - tab["p_before"])[valid],
            tab["p_after"][valid],
            1.0 / denom3[valid],
            tab["t_mem"][valid],
            tab["dfreq"][valid],
            1.0 / tab["u_after"][valid],
            (tab["p_after"] + tab["p_cool"])[valid],
        ])
        front = pareto_front(raw)
        if kind == "mo1":
            score = fleet.global_power(tab)[valid][front]
        else:
            normalized = np.column_stack([normalize_band(raw[:, c])
                                          for c in range(7)])
            score = np.sqrt((normalized[front] ** 2).sum(axis=1))
        return int(np.nonzero(valid)[0][front[int(np.argmin(score))]]), 1.5

    return _bfd(vm_list, host_list, state, thresholds, default_threshold,
                forbidden, pick)


def swfdvp_place(vm_list, host_list, state: DataCenterState,
                 thresholds: dict[int, float] | None = None,
                 default_threshold: float = 0.9,
                 forbidden: dict[str, int] | None = None) -> PlacementResult:
    """Second-worst-fit baseline: rank feasible hosts by decreasing power
    increment and take the second one (the only one when the set is a
    singleton)."""

    def pick(fleet, tab):
        rows = np.nonzero(tab["feasible"])[0]
        if not len(rows):
            return None
        dp = (tab["p_after"] - tab["p_before"])[rows]
        # rows ascend with host ids, so the row breaks ties by lowest id
        order = sorted(range(len(rows)), key=lambda i: (-dp[i], i))
        return int(rows[order[1] if len(order) >= 2 else order[0]]), 1.5

    return _bfd(vm_list, host_list, state, thresholds, default_threshold,
                forbidden, pick)


@dataclass
class DynSoResult:
    placement: dict[str, int]
    unplaced: list[str]
    kind: SoKind
    global_power: float  # W, IT + cooling of the winning tentative state
    chosen_norm_values: dict[str, float] = field(default_factory=dict)


def effective_it_power(state: DataCenterState) -> float:
    """Fleet IT power with the power-off sweep applied: an empty host draws
    nothing because the engine shuts it down at the end of the pass."""
    return sum(h.p_it for h in state.hosts if h.powered_on and h.vms)


def evaluate_global_power(placed: DataCenterState) -> float:
    """IT + cooling power (W) of a state a placement has been applied to."""
    cool = models.cop(placed.setpoint, placed.params.cooling)
    return effective_it_power(placed) * (1.0 + 1.0 / cool)


def dynso_place(vm_list, host_list, state: DataCenterState,
                so_list=DEFAULT_DYNSO_LIST,
                thresholds: dict[int, float] | None = None,
                default_threshold: float = 0.9,
                forbidden: dict[str, int] | None = None,
                sosa: SoSaModel | None = None,
                slot_seconds: float = 300.0,
                fallback: dict[str, int | None] | None = None,
                evaluator=None) -> DynSoResult:
    """Run every SO policy and keep the one with the lowest global power.

    ``evaluator(placed)`` returns the power of the state resulting from a
    placement and defaults to :func:`evaluate_global_power`; the engine
    passes one that also accounts for the hosts its underload pass would
    free.  ``placed`` is a copy of ``state`` with the placement attached in
    placement order, then every unplaced VM attached to its ``fallback``
    host when it has one, which mirrors how the engine treats them (they
    stay put).  The evaluator may mutate it.  It runs once per distinct
    placement: a kind that repeats an earlier kind's placement could only
    tie, and ties go to the earlier kind in ``so_list``.
    """
    if not so_list:
        raise ValueError("so_list must not be empty")
    evaluator = evaluator or evaluate_global_power
    best = None
    seen = set()
    for kind in so_list:
        # a module-level call, so wrappers of so_place see every kind
        r = so_place(kind, vm_list, host_list, state, thresholds,
                     default_threshold, forbidden, sosa, slot_seconds)
        key = frozenset(r.placement.items())
        if key in seen:
            continue
        seen.add(key)
        placed = state.copy()
        for vm_id, host_id in r.placement.items():
            placed.attach(placed.vms[vm_id], host_id)
        for vm_id, host_id in (fallback or {}).items():
            if vm_id not in r.placement and host_id is not None:
                placed.attach(placed.vms[vm_id], host_id)
        power = evaluator(placed)
        if best is None or power < best.global_power:
            best = DynSoResult(placement=r.placement, unplaced=r.unplaced,
                               kind=kind, global_power=power,
                               chosen_norm_values=r.chosen_norm_values)
    return best
