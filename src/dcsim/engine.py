"""Slot-by-slot simulation: overload detection, policy placement, a second
pass draining underloaded hosts, cooling setpoint control and energy/SLA
accounting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import annealer, models, policies
from .cooling import CoolingStrategy, FixedCooling, cooling_setpoint
from .core import (CapacityError, DataCenterState, ServerSpec, SlotMetrics,
                   VmState, apply_placement, default_server_spec)
from .detection import MadConfig, find_underloaded, migration_bandwidth, \
    overload_threshold, select_vms_mmt
from .models import KWH_PER_WS, ModelParams
from .policies import DEFAULT_DYNSO_LIST, SoKind, SoSaModel
from .workload import Workload

POLICY_NAMES = ("pabfd", "so1", "so2", "so3", "so4", "so5", "so6", "so7",
                "so8", "sosa", "dynso", "mo1", "mo2", "sa", "swfdvp")

_SO_BY_NAME = {
    "pabfd": SoKind.SO1, "so1": SoKind.SO1, "so2": SoKind.SO2,
    "so3": SoKind.SO3, "so4": SoKind.SO4, "so5": SoKind.SO5,
    "so6": SoKind.SO6, "so7": SoKind.SO7, "so8": SoKind.SO8,
    "sosa": SoKind.SO_SA, "swfdvp": SoKind.SWFDVP,
}

# a host is a drain source only when its utilization sits below this
# fraction of the busy fleet's mean; relative detection keeps the repeat
# pass from folding a deliberately spread fleet onto itself
UNDERLOAD_FRACTION = 0.65


@dataclass
class SimConfig:
    slot_seconds: int = 300
    hosts: int = 1200
    policy: str = "pabfd"
    cooling: CoolingStrategy = field(default_factory=lambda: FixedCooling(291.0))
    oversubscription: bool = True
    mad: MadConfig = field(default_factory=MadConfig)
    server: ServerSpec | None = None
    models: ModelParams = field(default_factory=ModelParams)
    sosa: SoSaModel = field(default_factory=SoSaModel)
    sa: annealer.SaConfig = field(default_factory=annealer.SaConfig)
    migration_double_power: bool = True
    # the repeat pass is time-boxed like the rest of the slot optimization:
    # only the lightest few hosts are drained per slot; 0 turns the pass off,
    # in the engine and in dynso's drain-aware evaluator alike
    max_drains_per_slot: int = 1

    def __post_init__(self):
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        if self.hosts < 1:
            raise ValueError("hosts must be >= 1")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.max_drains_per_slot < 0:
            raise ValueError("max_drains_per_slot must be >= 0")


@dataclass
class MigrationEvent:
    vm_id: str
    source: int
    target: int
    duration: float  # s, capped at the slot length
    slot: int
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
    wall_time: float
    policy: str = ""
    # per-slot mean normalized consolidation value and slot energy, consumed
    # by the calibration pipeline
    calib_values: list[float] = field(default_factory=list)
    calib_energy: list[float] = field(default_factory=list)


def _underload_cut(state: DataCenterState) -> float:
    """Utilization below which a host may be drained: ``UNDERLOAD_FRACTION``
    of the mean over the busy hosts, or 0.0 when no host is busy."""
    busy_u = state.u_cpu[state.busy].tolist()
    return UNDERLOAD_FRACTION * (sum(busy_u) / len(busy_u)) if busy_u else 0.0


def _drain_aware_evaluator(cfg: SimConfig, thresholds: np.ndarray):
    """Global-power evaluator for the dynamic selector that looks one step
    ahead: hosts the underload pass could free do not count against a
    tentative placement.  It follows :func:`policies.dynso_place`'s evaluator
    contract and reads the placed fleet it is given."""

    def evaluate(state: DataCenterState) -> float:
        busy = state.busy
        power = sum(state.p_it[busy].tolist())
        if busy.any() and cfg.max_drains_per_slot > 0:
            overloaded = np.flatnonzero(state.on & (state.cpu_sum >= thresholds))
            drainable = find_underloaded(
                state, thresholds, set(overloaded.tolist()),
                cut=_underload_cut(state), limit=cfg.max_drains_per_slot)
            power -= sum(state.p_it[drainable].tolist())
        return power * (1.0 + 1.0 / models.cop(state.setpoint,
                                               state.params.cooling))

    return evaluate


def _place(cfg: SimConfig, plan: DataCenterState, vm_ids: list[str],
           host_ids: list[int], thresholds: np.ndarray, source: dict[str, int],
           slot: int) -> policies.PlacementResult:
    """Dispatch one slot's VM batch to the configured policy.  ``source``
    maps each VM that leaves a host to that host."""
    name = cfg.policy
    if name in _SO_BY_NAME:
        return policies.so_place(_SO_BY_NAME[name], vm_ids, host_ids, plan,
                                 thresholds, source, cfg.sosa, cfg.slot_seconds)
    if name in ("mo1", "mo2"):
        return policies.mo_place(name, vm_ids, host_ids, plan, thresholds,
                                 source, cfg.slot_seconds,
                                 prefer_utilization=_underload_cut(plan))
    if name == "dynso":
        return policies.dynso_place(
            vm_ids, host_ids, plan, DEFAULT_DYNSO_LIST, thresholds, source,
            cfg.sosa, cfg.slot_seconds,
            evaluator=_drain_aware_evaluator(cfg, thresholds))
    if name == "sa":
        seed = policies.dynso_place(
            vm_ids, host_ids, plan, policies.PLAIN_KINDS + (SoKind.SO8,),
            thresholds, source, cfg.sosa, cfg.slot_seconds)
        sa_vms = [v for v in vm_ids if v in seed.placement]
        out = policies.PlacementResult(
            unplaced=[v for v in vm_ids if v not in seed.placement])
        if sa_vms:
            # per-slot seed derived from the annealer seed keeps whole runs
            # deterministic without reusing one chain across slots
            sa_cfg = replace(cfg.sa, seed=cfg.sa.seed + 1009 * slot)
            mapping, _ = annealer.sa_place(sa_vms, host_ids, plan,
                                           seed.placement, sa_cfg)
            out.placement = mapping
        return out
    raise ValueError(f"unknown policy {name!r}")


def _apply(cfg: SimConfig, state: DataCenterState, placement: dict[str, int],
           slot: int) -> tuple[DataCenterState, int, list[MigrationEvent]]:
    """The state after a placement, with its power-on count and its
    migration events; a VM placed for the first time (no source host) does
    not migrate.  A placement that breaks a capacity (an annealer edge case)
    is not applied: the state is kept, with no events."""
    try:
        applied = apply_placement(state, placement,
                                  enforce_cpu=not cfg.oversubscription)
    except CapacityError:
        return state, 0, []
    new = applied.state
    events = []
    bw = migration_bandwidth(new.spec)
    for vm_id, src, dst in applied.moved:
        if src is None:
            continue
        vm = new.vm(vm_id)
        duration = min(vm.ram_used / bw if bw > 0 else cfg.slot_seconds,
                       cfg.slot_seconds)
        events.append(MigrationEvent(vm_id, src, dst, duration, slot,
                                     vm.cpu_demand))
    return new, applied.power_on_events, events


def run(workload: Workload, cfg: SimConfig) -> RunReport:
    """Simulate a workload under one placement policy and cooling strategy.

    Deterministic for a fixed config: placements are deterministic functions
    of state and the annealer derives its per-slot RNG seed from the config.
    Infeasible slots never abort the run; VMs with no feasible host stay
    where they are.
    """
    t_start = time.monotonic()
    spec = cfg.server or default_server_spec()
    params = cfg.models

    initial_sp = (cfg.cooling.setpoint if isinstance(cfg.cooling, FixedCooling)
                  else cfg.cooling.ceiling)
    state = DataCenterState.build(
        cfg.hosts, {vid: VmState(vid) for vid in workload.vm_ids}, spec, params,
        initial_sp)
    vm_ids = state.vm_ids

    slots: list[SlotMetrics] = []
    totals = RunTotals()
    vm_deg: dict[str, float] = {vid: 0.0 for vid in vm_ids}
    vm_req = np.zeros(len(vm_ids))
    host_active = np.zeros(cfg.hosts, dtype=int)
    host_saturated = np.zeros(cfg.hosts, dtype=int)
    # each host's last history_window utilizations as a ring, and the slots
    # it has been on since it was last off (its ring is reset while off)
    window = cfg.mad.history_window
    history = np.zeros((cfg.hosts, window))
    filled = np.zeros(cfg.hosts, dtype=int)
    calib_values: list[float] = []
    calib_energy: list[float] = []

    for t in range(workload.slot_count):
        slot_t0 = time.monotonic()

        # demand update: take this slot's demands, rebuild host aggregates
        state.set_demand(cpu=workload.cpu[:, t], ram=workload.ram[:, t],
                         bw=workload.net_bw[:, t],
                         disk_read=workload.disk_read[:, t],
                         disk_write=workload.disk_write[:, t])

        # detection: each host's overload threshold, from its MAD history
        on = state.on
        filled = np.where(on, filled + 1, 0)
        history[on, (filled[on] - 1) % window] = state.u_cpu[on]
        thresholds = overload_threshold(history, filled, cfg.mad)

        # the VMs to place, and the host each VM that moves leaves; a VM
        # never goes back to its source, and one that finds no host stays
        to_move = [vm_ids[i] for i in np.flatnonzero(state.host < 0).tolist()]
        source: dict[str, int] = {}
        overloaded = np.flatnonzero(state.on & (state.cpu_sum >= thresholds))
        for h in overloaded.tolist():
            for vid in select_vms_mmt(h, thresholds.item(h), state):
                to_move.append(vid)
                source[vid] = h

        migrations: list[MigrationEvent] = []
        power_on_events = 0

        if to_move:
            plan = state.copy()
            plan.detach(*to_move)
            result = _place(cfg, plan, to_move, list(range(cfg.hosts)),
                            thresholds, source, t)
            if result.chosen_norm_values:
                calib_values.append(sum(result.chosen_norm_values.values())
                                    / len(result.chosen_norm_values))
            else:
                calib_values.append(1.5)
            state, power_on_events, migrations = _apply(
                cfg, state, result.placement, t)
        else:
            calib_values.append(1.5)

        # underload repeat pass: one combined placement for the VMs of every
        # underloaded host, with those hosts excluded as targets (a host
        # slated for power-off cannot receive).  Only hosts whose entire VM
        # set found a new home are actually drained and powered off.
        under = []
        if cfg.max_drains_per_slot > 0:
            under = find_underloaded(state, thresholds, set(overloaded.tolist()),
                                     cut=_underload_cut(state),
                                     limit=cfg.max_drains_per_slot)
        if under:
            under_set = set(under)
            candidates = [h for h in np.flatnonzero(state.on).tolist()
                          if h not in under_set]
            hosted = {hid: sorted(state.vms_on(hid)) for hid in under}
            source = {vid: hid for hid in under for vid in hosted[hid]}
            drain_vms = list(source)
            if candidates and drain_vms:
                plan = state.copy()
                plan.detach(*drain_vms)
                res = _place(cfg, plan, drain_vms, candidates, thresholds,
                             source, t)
                placed_by_host: dict[int, list[str]] = {}
                for vid in res.placement:
                    placed_by_host.setdefault(source[vid], []).append(vid)
                moves = {}
                for hid, vids in placed_by_host.items():
                    if len(vids) == len(hosted[hid]):
                        for vid in vids:
                            moves[vid] = res.placement[vid]
                if moves:
                    state, drain_on, drain_migrations = _apply(cfg, state,
                                                               moves, t)
                    power_on_events += drain_on
                    migrations += drain_migrations

        # cooling setpoint for the slot, then energy accounting
        sp = cooling_setpoint(state, cfg.cooling)
        state.set_setpoint(sp)

        mig_energy, slot_pdm = migration_cost(migrations, state,
                                              cfg.slot_seconds,
                                              cfg.migration_double_power)
        for ev in migrations:
            vm_deg[ev.vm_id] += ev.degradation

        p_it = state.total_it_power()
        e_it = p_it * cfg.slot_seconds * KWH_PER_WS + mig_energy
        e_cooling = e_it / models.cop(sp, params.cooling)
        e_boot = power_on_events * spec.e_boot

        saturated_mask = state.on & (state.cpu_sum >= 1.0 - 1e-12)
        host_active += state.on
        host_saturated += saturated_mask
        active = int(np.count_nonzero(state.on))
        saturated = int(np.count_nonzero(saturated_mask))
        vm_req += state.cpu * cfg.slot_seconds

        slot_otf = saturated / active if active else 0.0
        m = SlotMetrics(
            slot=t, e_it=e_it, e_cooling=e_cooling, e_boot=e_boot,
            power_on_events=power_on_events, migrations=len(migrations),
            sla_otf=slot_otf, sla_pdm=slot_pdm,
            sla_violation=slot_otf * slot_pdm,
            pue=(e_it + e_cooling) / e_it if e_it > 0 else 0.0,
            setpoint=sp, wall_time=time.monotonic() - slot_t0)
        slots.append(m)
        calib_energy.append(e_it + e_cooling)

        totals.e_it += e_it
        totals.e_cooling += e_cooling
        totals.e_boot += e_boot
        totals.power_on_events += power_on_events
        totals.migrations += len(migrations)

    otf_values = [sat / act for sat, act in zip(host_saturated.tolist(),
                                                host_active.tolist()) if act > 0]
    otf = sum(otf_values) / len(otf_values) if otf_values else 0.0
    pdm_values = [vm_deg[vid] / req for vid, req in zip(vm_ids, vm_req.tolist())
                  if req > 0]
    pdm = sum(pdm_values) / len(pdm_values) if pdm_values else 0.0

    return RunReport(
        slots=slots, totals=totals, avg_sla=otf * pdm,
        pue=(totals.e_it + totals.e_cooling) / totals.e_it if totals.e_it > 0 else 0.0,
        wall_time=time.monotonic() - t_start, policy=cfg.policy,
        calib_values=calib_values, calib_energy=calib_energy)


def migration_cost(events: list[MigrationEvent], state: DataCenterState,
                   slot_seconds: float, double_power: bool = True) -> tuple[float, float]:
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
        if double_power:
            mode = state.spec.dvfs_table[state.mode[ev.target]]
            p_dyn = models.dynamic_power(mode.v_dd, mode.f_op, ev.cpu_demand,
                                         p.power)
            extra_ws += p_dyn * ev.duration
        deg += ev.degradation
    requested = sum(state.cpu.tolist()) * slot_seconds
    pdm = deg / requested if requested > 0 else 0.0
    return extra_ws * KWH_PER_WS, pdm

