"""Slot-by-slot simulation: overload detection, policy placement, a second
pass draining underloaded hosts, cooling setpoint control and energy/SLA
accounting."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import annealer, models, policies
from .cooling import CoolingStrategy, FixedCooling, cooling_setpoint
from .core import (CPU, RAM, CapacityError, DataCenterState, SlotMetrics,
                   VmState, apply_placement)
from .detection import MIGRATION_BW, MadConfig, find_underloaded, \
    overload_threshold, select_vms_mmt
from .models import KWH_PER_WS, ModelParams, left_sum
from .policies import DEFAULT_DYNSO_LIST, SoKind, SoSaModel
from .workload import Workload

POLICY_NAMES = ("pabfd", "so1", "so2", "so3", "so4", "so5", "so6", "so7",
                "so8", "sosa", "dynso", "mo1", "mo2", "sa", "swfdvp")

_SO_BY_NAME = {"pabfd": SoKind.SO1, **{kind.value: kind for kind in SoKind}}

# a host is a drain source only when its utilization sits below this
# fraction of the busy fleet's mean; relative detection keeps the repeat
# pass from folding a deliberately spread fleet onto itself
UNDERLOAD_FRACTION = 0.65


@dataclass
class SimConfig:
    """A run's settings; the slot length is the workload's, not one of them."""

    hosts: int = 1200
    policy: str = "pabfd"
    cooling: CoolingStrategy = field(default_factory=lambda: FixedCooling(291.0))
    mad: MadConfig = field(default_factory=MadConfig)
    models: ModelParams = field(default_factory=ModelParams)
    sosa: SoSaModel = field(default_factory=SoSaModel)
    sa: annealer.SaConfig = field(default_factory=annealer.SaConfig)
    # the repeat pass is time-boxed like the rest of the slot optimization:
    # only the lightest few hosts are drained per slot; 0 turns the pass off,
    # in the engine and in dynso's drain-aware evaluator alike
    max_drains_per_slot: int = 1

    def __post_init__(self):
        if self.hosts < 1:
            raise ValueError("hosts must be >= 1")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.max_drains_per_slot < 0:
            raise ValueError("max_drains_per_slot must be >= 0")


@dataclass
class MigrationEvent:
    vm: int          # position in the state's per-VM arrays
    target: int
    duration: float  # s, capped at the slot length
    cpu_demand: float
    # the VM's performance degradation: 10 % of its demand over the migration
    degradation: float = field(init=False)

    def __post_init__(self):
        self.degradation = 0.1 * self.cpu_demand * self.duration


@dataclass
class RunTotals:
    e_it: float = 0.0
    e_cooling: float = 0.0
    e_boot: float = 0.0
    power_on_events: int = 0
    migrations: int = 0

    @property
    def energy(self) -> float:
        return self.e_it + self.e_cooling + self.e_boot


@dataclass
class RunReport:
    slots: list[SlotMetrics]
    totals: RunTotals
    avg_sla: float          # overload-time fraction x migration degradation
    pue: float              # (IT + cooling) / IT, boot energy excluded
    # per-slot mean normalized consolidation value, consumed by the
    # calibration pipeline
    calib_values: list[float] = field(default_factory=list)


@dataclass
class Detection:
    """Each host's overload threshold, the hosts at or above it, the VMs to
    place (the unplaced ones, then MMT picks) and the host each pick leaves;
    VMs by position."""
    thresholds: np.ndarray
    overloaded: list[int]
    to_move: list[int]
    source: dict[int, int]


@dataclass
class PassRecord:
    """A placement pass: the placer's result (None when it was not called),
    and the power-on events and migrations of what was applied."""
    result: policies.PlacementResult | None = None
    power_on_events: int = 0
    migrations: list[MigrationEvent] = field(default_factory=list)


@dataclass
class _Ledger:
    """What the slots add up to: the energy totals and the SLA terms."""
    totals: RunTotals
    host_active: np.ndarray     # slots on
    host_saturated: np.ndarray  # slots at full CPU
    vm_deg: np.ndarray          # migration degradation
    vm_req: np.ndarray          # requested CPU-seconds


def _overloaded(state: DataCenterState, thresholds: np.ndarray) -> list[int]:
    """The hosts that are on with CPU at or above their overload threshold."""
    return np.flatnonzero(state.on & (state.sums[CPU] >= thresholds)).tolist()


def _underload_cut(state: DataCenterState) -> float:
    """Utilization below which a host may be drained: ``UNDERLOAD_FRACTION``
    of the mean over the busy hosts, or 0.0 when no host is busy."""
    busy_u = state.u_cpu[state.busy].tolist()
    return UNDERLOAD_FRACTION * (left_sum(busy_u) / len(busy_u)) if busy_u else 0.0


def _drain_sources(cfg: SimConfig, state: DataCenterState,
                   thresholds: np.ndarray, overloaded: set[int]) -> list[int]:
    """The hosts the drain pass would empty: the lightest underloaded hosts
    outside ``overloaded``, at most ``max_drains_per_slot`` of them."""
    if cfg.max_drains_per_slot == 0:
        return []
    return find_underloaded(state, thresholds, overloaded, cut=_underload_cut(state),
                            limit=cfg.max_drains_per_slot)


def _drain_aware_evaluator(cfg: SimConfig, thresholds: np.ndarray):
    """Global-power evaluator for the dynamic selector that looks one step
    ahead: hosts the underload pass could free do not count against a
    tentative placement.  It follows :func:`policies.dynso_place`'s evaluator
    contract and reads the placed fleet it is given."""

    def evaluate(state: DataCenterState) -> float:
        busy = state.busy
        power = left_sum(state.p_it[busy].tolist())
        if busy.any():
            overloaded = set(_overloaded(state, thresholds))
            drainable = _drain_sources(cfg, state, thresholds, overloaded)
            power -= left_sum(state.p_it[drainable].tolist())
        return power * models.cooling_factor(state.setpoint, state.params.cooling)

    return evaluate


def _place(cfg: SimConfig, state: DataCenterState, vms: list[int],
           host_ids: list[int], thresholds: np.ndarray, source: dict[int, int],
           slot: int, slot_seconds: int) -> policies.PlacementResult:
    """Dispatch one slot's VM batch to the configured policy, on a copy of
    ``state`` with the batch taken off its hosts.  ``source`` maps each VM
    that leaves a host to that host."""
    plan = state.copy()
    plan.move(dict.fromkeys(vms, -1))
    name = cfg.policy
    if name in _SO_BY_NAME:
        return policies.so_place(_SO_BY_NAME[name], vms, host_ids, plan,
                                 thresholds, source, cfg.sosa, slot_seconds)
    if name in ("mo1", "mo2"):
        return policies.mo_place(name, vms, host_ids, plan, thresholds, source,
                                 prefer_utilization=_underload_cut(plan))
    if name == "dynso":
        return policies.dynso_place(
            vms, host_ids, plan, DEFAULT_DYNSO_LIST, thresholds, source,
            cfg.sosa, slot_seconds,
            evaluator=_drain_aware_evaluator(cfg, thresholds))
    if name == "sa":
        seed = policies.dynso_place(
            vms, host_ids, plan, policies.PLAIN_KINDS + (SoKind.SO8,),
            thresholds, source, cfg.sosa, slot_seconds)
        sa_vms = [i for i in vms if i in seed.placement]
        out = policies.PlacementResult(unplaced=seed.unplaced)
        if sa_vms:
            # per-slot seed derived from the annealer seed keeps whole runs
            # deterministic without reusing one chain across slots
            sa_cfg = replace(cfg.sa, seed=cfg.sa.seed + 1009 * slot)
            # the annealer takes VM ids; its map keeps the batch's order
            ids = [plan.vm_ids[i] for i in sa_vms]
            start = {vid: seed.placement[i] for vid, i in zip(ids, sa_vms)}
            mapping, _ = annealer.sa_place(ids, host_ids, plan, start, sa_cfg)
            out.placement = dict(zip(sa_vms, mapping.values()))
        return out
    raise ValueError(f"unknown policy {name!r}")


def _apply(cfg: SimConfig, state: DataCenterState, placement: dict[int, int],
           record: PassRecord, slot_seconds: int) -> tuple[DataCenterState, PassRecord]:
    """The state after a placement; ``record`` takes its power-on count and
    migrations (a VM placed for the first time does not migrate).  A
    placement that breaks a capacity (an annealer edge case) is not applied."""
    try:
        applied = apply_placement(state, placement)
    except CapacityError:
        return state, record
    new = applied.state
    for i, src, dst in applied.moved:
        if src < 0:
            continue
        duration = min(new.demand.item(RAM, i) / MIGRATION_BW, slot_seconds)
        record.migrations.append(MigrationEvent(i, dst, duration,
                                                new.demand.item(CPU, i)))
    record.power_on_events = applied.power_on_events
    return new, record


def _detect(cfg: SimConfig, state: DataCenterState, history: np.ndarray,
            filled: np.ndarray) -> Detection:
    """Each host's MAD overload threshold, and the VMs to move.  ``history``
    keeps each host's last ``history_window`` utilizations as a ring, reset
    while the host is off, and ``filled`` its slots on since; both are
    updated in place."""
    on = state.on
    filled[:] = np.where(on, filled + 1, 0)
    history[on, (filled[on] - 1) % cfg.mad.history_window] = state.u_cpu[on]
    thresholds = overload_threshold(history, filled, cfg.mad)
    overloaded = _overloaded(state, thresholds)
    source = {i: h for h in overloaded
              for i in select_vms_mmt(h, thresholds.item(h), state)}
    unplaced = np.flatnonzero(state.host < 0).tolist()
    return Detection(thresholds, overloaded, unplaced + list(source), source)


def _first_pass(cfg: SimConfig, state: DataCenterState, det: Detection,
                slot: int, slot_seconds: int) -> tuple[DataCenterState, PassRecord]:
    """Place the detected VMs on any host.  A VM never goes back to its
    source, and one that finds no host stays."""
    if not det.to_move:
        return state, PassRecord()
    result = _place(cfg, state, det.to_move, list(range(cfg.hosts)),
                    det.thresholds, det.source, slot, slot_seconds)
    return _apply(cfg, state, result.placement, PassRecord(result), slot_seconds)


def _drain_pass(cfg: SimConfig, state: DataCenterState, det: Detection,
                slot: int, slot_seconds: int) -> tuple[DataCenterState, PassRecord]:
    """Underload repeat pass: one combined placement for the VMs of every
    drain source, with the sources excluded as targets (a host slated for
    power-off cannot receive).  Only hosts whose entire VM set found a new
    home are drained and powered off.  Each source's VMs go in VM id order."""
    sources = _drain_sources(cfg, state, det.thresholds, set(det.overloaded))
    hosted = {hid: sorted(state.positions_on(hid), key=state.rank.item)
              for hid in sources}
    source = {i: hid for hid in sources for i in hosted[hid]}
    candidates = [h for h in np.flatnonzero(state.on).tolist() if h not in hosted]
    if not (candidates and source):
        return state, PassRecord()
    result = _place(cfg, state, list(source), candidates, det.thresholds, source,
                    slot, slot_seconds)
    placed: dict[int, list[int]] = {}
    for i in result.placement:
        placed.setdefault(source[i], []).append(i)
    drained = [hid for hid, vms in placed.items() if len(vms) == len(hosted[hid])]
    moves = {i: result.placement[i] for hid in drained for i in placed[hid]}
    record = PassRecord(result)
    return _apply(cfg, state, moves, record, slot_seconds) if moves else (state, record)


def _account(cfg: SimConfig, state: DataCenterState, first: PassRecord,
             drain: PassRecord, slot: int, slot_seconds: int,
             ledger: _Ledger) -> SlotMetrics:
    """Set the slot's cooling setpoint, then charge its energy and SLA terms."""
    sp = cooling_setpoint(state, cfg.cooling)
    state.set_setpoint(sp)
    migrations = first.migrations + drain.migrations
    power_on_events = first.power_on_events + drain.power_on_events
    mig_energy, slot_pdm = migration_cost(migrations, state, slot_seconds)
    for ev in migrations:
        ledger.vm_deg[ev.vm] += ev.degradation
    e_it = state.total_it_power() * slot_seconds * KWH_PER_WS + mig_energy
    e_cooling = e_it / models.cop(sp, state.params.cooling)
    e_boot = power_on_events * models.E_BOOT
    totals = ledger.totals
    totals.e_it += e_it
    totals.e_cooling += e_cooling
    totals.e_boot += e_boot
    totals.power_on_events += power_on_events
    totals.migrations += len(migrations)
    saturated = state.on & (state.sums[CPU] >= 1.0)
    ledger.host_active += state.on
    ledger.host_saturated += saturated
    ledger.vm_req += state.demand[CPU] * slot_seconds
    active = int(np.count_nonzero(state.on))
    otf = int(np.count_nonzero(saturated)) / active if active else 0.0
    return SlotMetrics(
        slot=slot, e_it=e_it, e_cooling=e_cooling, e_boot=e_boot,
        power_on_events=power_on_events, migrations=len(migrations),
        sla_otf=otf, sla_pdm=slot_pdm, setpoint=sp)


def run(workload: Workload, cfg: SimConfig) -> RunReport:
    """Simulate a workload under one placement policy and cooling strategy.

    Each slot takes its demands, then runs four phases over the fleet state:
    :func:`_detect` (MAD thresholds, the VMs to move), :func:`_first_pass`
    (place them), :func:`_drain_pass` (empty underloaded hosts) and
    :func:`_account` (cooling setpoint, energy and SLA terms).  A run is
    deterministic for a fixed config (the annealer seeds each slot from its
    config seed), and a VM with no feasible host stays where it is.
    """
    initial_sp = (cfg.cooling.setpoint if isinstance(cfg.cooling, FixedCooling)
                  else cfg.cooling.ceiling)
    state = DataCenterState.build(cfg.hosts, {v: VmState(v) for v in workload.vm_ids},
                                  cfg.models, initial_sp)
    ledger = _Ledger(RunTotals(), *np.zeros((2, cfg.hosts), dtype=int),
                     *np.zeros((2, workload.vm_count)))
    history = np.zeros((cfg.hosts, cfg.mad.history_window))
    filled = np.zeros(cfg.hosts, dtype=int)
    slots: list[SlotMetrics] = []
    calib_values: list[float] = []
    slot_seconds = workload.slot_seconds

    for t in range(workload.slot_count):
        state.set_demand(workload.cpu[:, t], workload.ram[:, t], workload.net_bw[:, t],
                         workload.disk_read[:, t], workload.disk_write[:, t])
        det = _detect(cfg, state, history, filled)
        state, first = _first_pass(cfg, state, det, t, slot_seconds)
        # a slot that placed nothing logs 1.5, a constant row's band value
        norms = first.result.chosen_norm_values if first.result else {}
        calib_values.append(left_sum(norms.values()) / len(norms) if norms else 1.5)
        state, drain = _drain_pass(cfg, state, det, t, slot_seconds)
        slots.append(_account(cfg, state, first, drain, t, slot_seconds, ledger))

    otf_values = [sat / act for sat, act in zip(ledger.host_saturated.tolist(),
                                                ledger.host_active.tolist()) if act > 0]
    otf = left_sum(otf_values) / len(otf_values) if otf_values else 0.0
    pdm_values = [deg / req for deg, req in zip(ledger.vm_deg.tolist(),
                                                ledger.vm_req.tolist()) if req > 0]
    pdm = left_sum(pdm_values) / len(pdm_values) if pdm_values else 0.0

    totals = ledger.totals
    return RunReport(
        slots=slots, totals=totals, avg_sla=otf * pdm,
        pue=(totals.e_it + totals.e_cooling) / totals.e_it if totals.e_it > 0 else 0.0,
        calib_values=calib_values)


def migration_cost(events: list[MigrationEvent], state: DataCenterState,
                   slot_seconds: float) -> tuple[float, float]:
    """Energy overhead (kWh) and slot-level degradation of a migration batch.

    During a migration the VM effectively runs on both sides, so its dynamic
    power at the target's operating point is charged once more for the
    migration duration.  Degradation accrues 10 % of the VM's demand over the
    migration, normalized by the total demand requested this slot.
    """
    p = state.params
    extra_ws = 0.0
    deg = 0.0
    for ev in events:
        mode = state.mode.item(ev.target)
        p_dyn = models.dynamic_power(models.VOLTS.item(mode),
                                     models.FREQS_GHZ.item(mode), ev.cpu_demand,
                                     p.power)
        extra_ws += p_dyn * ev.duration
        deg += ev.degradation
    requested = left_sum(state.demand[CPU].tolist()) * slot_seconds
    pdm = deg / requested if requested > 0 else 0.0
    return extra_ws * KWH_PER_WS, pdm

