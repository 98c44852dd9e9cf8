"""Domain model: servers, VMs, the data-center state and placement application.

Hosts cache their resource aggregates and derived thermal/power figures so the
placement loops can evaluate candidates in O(1); :meth:`DataCenterState.refresh`
recomputes the derived part after any mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .models import U_MEM_FLOOR, ModelParams

DEFAULT_FREQS_GHZ = (1.73, 1.86, 2.13, 2.26, 2.39, 2.40)


@dataclass(frozen=True)
class DvfsMode:
    index: int
    f_op: float  # GHz
    v_dd: float  # V


def default_dvfs_table(v_low: float = 1.80, v_high: float = 1.92) -> tuple[DvfsMode, ...]:
    """Voltage ladder for the default frequency set: linear ramp in f_op.

    The defaults are calibrated against the reference hardware's reported
    behavior: with the published power coefficients, per-host draw then spans
    the documented 170-200 W range and the worked allocation example's power
    increments come out at the right magnitude.  Voltage is configuration,
    not ground truth; pass your own ladder for a different part.
    """
    f_lo, f_hi = DEFAULT_FREQS_GHZ[0], DEFAULT_FREQS_GHZ[-1]
    modes = []
    for k, f in enumerate(DEFAULT_FREQS_GHZ):
        v = v_low + (v_high - v_low) * (f - f_lo) / (f_hi - f_lo)
        modes.append(DvfsMode(index=k, f_op=f, v_dd=v))
    return tuple(modes)


@dataclass(frozen=True)
class ServerSpec:
    """Static description of one server model."""

    dvfs_table: tuple[DvfsMode, ...]
    cores: int = 4
    ram_capacity: float = 16384.0        # MB
    bw_capacity: float = 125.0           # MB/s
    disk_capacity: float = 1_000_000.0   # MB
    e_boot: float = 13.514e-3            # kWh per power-on event
    t_cpu_max: float = 338.15            # K (65 C reliability cap)
    t_inlet_max: float = 303.15          # K (30 C fan-failure bound)
    fan_speed_default: float = 5000.0    # RPM

    def __post_init__(self):
        if not self.dvfs_table:
            raise ValueError("dvfs_table must not be empty")
        if self.e_boot < 0:
            raise ValueError("e_boot must be >= 0")
        if self.t_cpu_max <= self.t_inlet_max:
            raise ValueError("t_cpu_max must exceed t_inlet_max")
        freqs = [m.f_op for m in self.dvfs_table]
        if freqs != sorted(freqs) or len(set(freqs)) != len(freqs):
            raise ValueError("dvfs_table must be strictly increasing in f_op")

    @property
    def f_max(self) -> float:
        return self.dvfs_table[-1].f_op

    @property
    def cpu_capacity_mhz(self) -> float:
        # Full capacity at top frequency; VM demand fractions refer to this.
        return self.cores * self.f_max * 1000.0


def default_server_spec() -> ServerSpec:
    return ServerSpec(dvfs_table=default_dvfs_table())


@dataclass
class VmState:
    """One VM's current resource demand."""

    id: str
    cores: int = 1
    cpu_demand: float = 0.0   # fraction of one host's full-capacity CPU
    ram_used: float = 0.0     # MB
    disk_read: float = 0.0    # KB/s
    disk_write: float = 0.0   # KB/s
    net_bw: float = 0.0       # MB/s, capacity constraint only
    assigned_host: int | None = None


@dataclass
class HostState:
    """Dynamic per-server state.

    The ``*_sum`` aggregates are maintained incrementally by add/remove;
    everything below ``u_cpu`` is derived and refreshed from them.
    """

    id: int
    spec: ServerSpec
    powered_on: bool = False
    t_inlet: float = 291.0
    fan_speed: float = 0.0
    vms: set[str] = field(default_factory=set)
    cpu_sum: float = 0.0       # sum of hosted cpu_demand (may exceed 1)
    ram_sum: float = 0.0       # MB
    bw_sum: float = 0.0        # MB/s
    disk_read: float = 0.0     # KB/s
    disk_write: float = 0.0    # KB/s
    util_history: list[float] = field(default_factory=list)
    u_cpu: float = 0.0
    u_mem: float = U_MEM_FLOOR  # percent (0, 100]
    mode: DvfsMode | None = None
    t_mem: float = 0.0
    t_cpu: float = 0.0
    p_it: float = 0.0          # W, includes disk power; 0 when off

    def copy(self) -> "HostState":
        # the constructor is about twice as fast as dataclasses.replace
        return HostState(
            self.id, self.spec, self.powered_on, self.t_inlet, self.fan_speed,
            set(self.vms), self.cpu_sum, self.ram_sum, self.bw_sum,
            self.disk_read, self.disk_write, list(self.util_history),
            self.u_cpu, self.u_mem, self.mode, self.t_mem, self.t_cpu,
            self.p_it)


class CapacityError(Exception):
    """A placement would exceed a host resource capacity."""

    def __init__(self, host_id: int, resource: str, needed: float, capacity: float):
        self.host_id = host_id
        self.resource = resource
        super().__init__(
            f"host {host_id}: {resource} demand {needed:.3f} exceeds capacity {capacity:.3f}")


PlacementMap = dict[str, int]


@dataclass(frozen=True)
class ObjectiveVector:
    """The 7 per-candidate consolidation objectives, all minimized."""

    d_p_host: float
    p_host: float
    inv_u_minus_dfreq: float
    t_mem: float
    d_freq: float
    inv_u: float
    p_host_plus_cooling: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.d_p_host, self.p_host, self.inv_u_minus_dfreq, self.t_mem,
                self.d_freq, self.inv_u, self.p_host_plus_cooling)


@dataclass
class SlotMetrics:
    """Per-slot accounting record."""

    slot: int
    e_it: float = 0.0          # kWh
    e_cooling: float = 0.0     # kWh
    e_boot: float = 0.0        # kWh
    power_on_events: int = 0
    migrations: int = 0
    sla_otf: float = 0.0
    sla_pdm: float = 0.0
    sla_violation: float = 0.0
    pue: float = 0.0
    setpoint: float = 0.0      # K
    wall_time: float = 0.0     # s, excluded from serialized artifacts


class DataCenterState:
    """Mutable simulation state: a host fleet plus the known VM set."""

    def __init__(self, hosts: list[HostState], vms: dict[str, VmState],
                 params: ModelParams | None = None, setpoint: float = 291.0):
        self.hosts = hosts
        self.vms = vms
        self.params = params or ModelParams()
        self.setpoint = setpoint
        for h in hosts:
            h.t_inlet = setpoint
            self.refresh(h)

    @classmethod
    def build(cls, n_hosts: int, vms: dict[str, VmState] | None = None,
              spec: ServerSpec | None = None, params: ModelParams | None = None,
              setpoint: float = 291.0) -> "DataCenterState":
        spec = spec or default_server_spec()
        hosts = [HostState(id=i, spec=spec) for i in range(n_hosts)]
        return cls(hosts, vms or {}, params, setpoint)

    def copy(self) -> "DataCenterState":
        new = object.__new__(DataCenterState)
        new.hosts = [h.copy() for h in self.hosts]
        new.vms = {vid: VmState(vm.id, vm.cores, vm.cpu_demand, vm.ram_used,
                                vm.disk_read, vm.disk_write, vm.net_bw,
                                vm.assigned_host)
                   for vid, vm in self.vms.items()}
        new.params = self.params
        new.setpoint = self.setpoint
        return new

    def refresh(self, h: HostState) -> None:
        """Recompute the derived fields of one host from its aggregates."""
        if not h.powered_on:
            h.u_cpu = 0.0
            h.u_mem = U_MEM_FLOOR
            h.mode = h.spec.dvfs_table[0]
            h.fan_speed = 0.0
            h.t_mem = 0.0
            h.t_cpu = 0.0
            h.p_it = 0.0
            return
        (h.u_cpu, h.u_mem, h.mode, h.fan_speed, h.t_mem,
         h.p_it) = models.host_operating_point(
            h.cpu_sum, h.ram_sum, h.disk_read, h.disk_write, h.t_inlet, h.spec,
            self.params)
        h.t_cpu = models.cpu_temperature(h.t_inlet, h.u_cpu, self.params.thermal)

    def set_setpoint(self, t_inlet_k: float) -> None:
        self.setpoint = t_inlet_k
        for h in self.hosts:
            h.t_inlet = t_inlet_k
            self.refresh(h)

    def attach(self, vm: VmState, host_id: int) -> None:
        h = self.hosts[host_id]
        if not h.powered_on:
            h.powered_on = True
        h.vms.add(vm.id)
        h.cpu_sum += vm.cpu_demand
        h.ram_sum += vm.ram_used
        h.bw_sum += vm.net_bw
        h.disk_read += vm.disk_read
        h.disk_write += vm.disk_write
        vm.assigned_host = host_id
        self.refresh(h)

    def detach(self, vm: VmState) -> None:
        if vm.assigned_host is None:
            return
        h = self.hosts[vm.assigned_host]
        h.vms.discard(vm.id)
        h.cpu_sum -= vm.cpu_demand
        h.ram_sum -= vm.ram_used
        h.bw_sum -= vm.net_bw
        h.disk_read -= vm.disk_read
        h.disk_write -= vm.disk_write
        vm.assigned_host = None
        self.refresh(h)

    def total_it_power(self) -> float:
        return sum(h.p_it for h in self.hosts if h.powered_on)


@dataclass
class FleetView:
    """Per-host arrays of a fleet, indexed by host id: what the global-power
    evaluators and the underload fit test read.

    ``state`` supplies the VMs: their demands, and the VM set each host
    starts from; ``added`` maps the VMs a tentative placement put on top to
    their hosts.
    """

    state: DataCenterState
    on: np.ndarray       # powered on
    busy: np.ndarray     # powered on and running VMs
    p_it: np.ndarray     # W, 0 where not busy: the engine powers such hosts off
    cpu_sum: np.ndarray
    ram_sum: np.ndarray
    bw_sum: np.ndarray
    ram_cap: np.ndarray
    bw_cap: np.ndarray
    added: dict[str, int] = field(default_factory=dict)

    @property
    def u_cpu(self) -> np.ndarray:
        """What DataCenterState.refresh derives for a powered-on host."""
        return np.minimum(1.0, np.maximum(0.0, self.cpu_sum))

    @classmethod
    def of(cls, state: DataCenterState) -> "FleetView":
        hosts = state.hosts
        busy = np.array([h.powered_on and bool(h.vms) for h in hosts], dtype=bool)
        return cls(state, on=np.array([h.powered_on for h in hosts], dtype=bool),
                   busy=busy,
                   p_it=np.where(busy, [h.p_it for h in hosts], 0.0),
                   cpu_sum=np.array([h.cpu_sum for h in hosts], dtype=float),
                   ram_sum=np.array([h.ram_sum for h in hosts], dtype=float),
                   bw_sum=np.array([h.bw_sum for h in hosts], dtype=float),
                   ram_cap=np.array([h.spec.ram_capacity for h in hosts], dtype=float),
                   bw_cap=np.array([h.spec.bw_capacity for h in hosts], dtype=float))

    def vm_ids(self, host_id: int) -> list[str]:
        return [*self.state.hosts[host_id].vms,
                *(vid for vid, h in self.added.items() if h == host_id)]

    def it_power(self) -> float:
        """Fleet IT power (W), summed in host-id order with Python floats."""
        return sum(self.p_it.tolist())

    @property
    def cop(self) -> float:
        return models.cop(self.state.setpoint, self.state.params.cooling)


@dataclass
class ApplyResult:
    state: DataCenterState
    power_on_events: int
    moved: list[tuple[str, int | None, int]]  # (vm, source or None, target)


def apply_placement(state: DataCenterState, placement: PlacementMap,
                    enforce_cpu: bool = False) -> ApplyResult:
    """Apply a VM -> host mapping to a copy of the state.

    Capacity is validated on the net post-move aggregates: RAM and bandwidth
    are hard limits, CPU only when oversubscription is disabled
    (``enforce_cpu``).  Hosts left without VMs power off; cold targets power
    on and are counted as power-on events.  Re-applying an already-applied
    placement is a no-op.
    """
    new = state.copy()

    cpu = {h.id: h.cpu_sum for h in new.hosts}
    ram = {h.id: h.ram_sum for h in new.hosts}
    bw = {h.id: h.bw_sum for h in new.hosts}
    moves = []
    for vm_id, target in placement.items():
        vm = new.vms[vm_id]
        if vm.assigned_host == target:
            continue
        if vm.assigned_host is not None:
            cpu[vm.assigned_host] -= vm.cpu_demand
            ram[vm.assigned_host] -= vm.ram_used
            bw[vm.assigned_host] -= vm.net_bw
        cpu[target] += vm.cpu_demand
        ram[target] += vm.ram_used
        bw[target] += vm.net_bw
        moves.append((vm_id, vm.assigned_host, target))

    for h in new.hosts:
        if ram[h.id] > h.spec.ram_capacity + 1e-9:
            raise CapacityError(h.id, "ram", ram[h.id], h.spec.ram_capacity)
        if bw[h.id] > h.spec.bw_capacity + 1e-9:
            raise CapacityError(h.id, "bandwidth", bw[h.id], h.spec.bw_capacity)
        if enforce_cpu and cpu[h.id] > 1.0 + 1e-9:
            raise CapacityError(h.id, "cpu", cpu[h.id], 1.0)

    power_on = 0
    for vm_id, _, target in moves:
        vm = new.vms[vm_id]
        new.detach(vm)
        if not new.hosts[target].powered_on:
            power_on += 1
        new.attach(vm, target)

    for h in new.hosts:
        if h.powered_on and not h.vms:
            h.powered_on = False
            h.util_history.clear()
            new.refresh(h)

    return ApplyResult(state=new, power_on_events=power_on, moved=moves)
