"""Domain model: VMs, the data-center state and placement application.

Every host is the one server model whose constants ``models`` holds.
:class:`DataCenterState` keeps the fleet as numpy arrays: per VM its demand
and its host, per host the number of its VMs, the resource sums of its VMs
and the utilization, DVFS mode and IT power derived from them.  A host is on
exactly while it holds a VM.  The resources are one axis, in the order
``CPU, RAM, BW, READ, WRITE`` this module defines: ``demand`` is
(resources, VMs) and ``sums`` (resources, hosts).  Demands enter on
:func:`on_grid`, so a host's sums are exact in any order.
:meth:`DataCenterState.move`, the one code that changes a VM's host, updates
the counts and sums VM by VM, :meth:`DataCenterState.set_demand` rebuilds
every sum at once, and each re-costs the hosts it touched in one call of the
array server model ``models.host_operating_point``.  Inside the slot loop a
VM is its position in the per-VM arrays; its id serves only the workload, the
report and the annealer, and, as ``rank``, every tie between VMs.
:func:`within_capacity` is the one RAM and bandwidth fit rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .models import ModelParams


@dataclass
class VmState:
    """One VM's resource demand: the record :meth:`DataCenterState.build`
    takes."""

    id: str
    cpu_demand: float = 0.0   # fraction of one host's full-capacity CPU
    ram_used: float = 0.0     # MB
    disk_read: float = 0.0    # KB/s
    disk_write: float = 0.0   # KB/s
    net_bw: float = 0.0       # MB/s, capacity constraint only


class CapacityError(Exception):
    """A placement would exceed a host resource capacity."""

    def __init__(self, host_id: int, resource: str, needed: float, capacity: float):
        self.host_id = host_id
        self.resource = resource
        super().__init__(
            f"host {host_id}: {resource} demand {needed:.3f} exceeds capacity {capacity:.3f}")


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
    setpoint: float = 0.0      # K


# the resource axis of ``demand`` and ``sums``: CPU (a fraction of the
# host), RAM (MB), bandwidth (MB/s), disk read and disk write (KB/s)
CPU, RAM, BW, READ, WRITE = range(5)
_ARRAYS = ("demand", "host", "count", "sums", "u_cpu", "mode", "p_it")


def on_grid(rows) -> np.ndarray:
    """Resource rows of VM demands rounded to nearest on the finest
    power-of-two grid on which every sum of a row's entries is exact: step
    2^(e - 52), where 2^e exceeds the row's largest |demand| times its
    length, a bound that does not depend on their order.  Partial sums are
    then multiples of the step below 2^(e + 1), which a double holds, so
    ``+=``, ``-=`` and ``np.bincount`` give one sum in any order."""
    rows = np.asarray(rows, dtype=float)
    e = np.frexp(np.abs(rows).max(axis=-1, initial=0.0) * rows.shape[-1])[1][..., None]
    return np.ldexp(np.rint(np.ldexp(rows, 52 - e)), e - 52)


def within_capacity(sums):
    """Whether the RAM and bandwidth rows of host sums (resource axis first)
    fit their hosts, as the pair (RAM fits, bandwidth fits), elementwise."""
    return sums[RAM] <= models.RAM_CAPACITY, sums[BW] <= models.BW_CAPACITY


class DataCenterState:
    """Mutable simulation state: the fleet as per-host and per-VM arrays.

    Per VM, indexed by position (the order of ``vm_ids``): its ``demand``
    column (units as in :class:`VmState`), ``host``, the id of the VM's
    host or -1 while it has none, and ``rank``, the VM's place in string
    order of the ids.  Per host, indexed by host id: ``count``, the number
    of its VMs (``on`` while it is above 0), its ``sums`` column, the sums
    of its VMs' demands (the CPU sum may exceed 1), and the figures derived
    from them: ``u_cpu`` (clamped to [0, 1]), ``mode`` (index into
    ``models.FREQS_GHZ``) and ``p_it`` (W, disk included, 0 when off).
    ``demand`` and ``sums`` have the resource axis first.  Every host is
    the server model of ``models`` and shares the inlet ``setpoint``.
    """

    params: ModelParams
    setpoint: float
    vm_ids: tuple[str, ...]
    index: dict[str, int]   # VM id -> position in the per-VM arrays
    rank: np.ndarray        # built once and shared by every copy

    @classmethod
    def build(cls, n_hosts: int, vms: dict[str, VmState] | None = None,
              params: ModelParams | None = None,
              setpoint: float = 291.0) -> "DataCenterState":
        """A fleet of powered-off hosts and the given VMs, all unassigned."""
        records = list((vms or {}).values())
        state = object.__new__(cls)
        state.params = params or ModelParams()
        state.setpoint = setpoint
        state.vm_ids = tuple(vm.id for vm in records)
        state.index = {vid: i for i, vid in enumerate(state.vm_ids)}
        # inverting the positions sorted by id gives each position's rank
        state.rank = np.argsort(sorted(range(len(records)), key=state.vm_ids.__getitem__))
        state.demand = on_grid(
            [[getattr(vm, field_) for vm in records] for field_ in
             ("cpu_demand", "ram_used", "net_bw", "disk_read", "disk_write")])
        state.sums = np.zeros((5, n_hosts))
        state.host = np.full(len(records), -1, dtype=np.intp)
        state.count = np.zeros(n_hosts, dtype=np.intp)
        state.u_cpu = np.zeros(n_hosts)
        state.mode = np.zeros(n_hosts, dtype=np.intp)
        state.p_it = np.zeros(n_hosts)
        return state

    def _with(self, **arrays) -> "DataCenterState":
        """This state with the given arrays in place of its own; everything
        else is shared."""
        new = object.__new__(DataCenterState)
        new.__dict__.update(self.__dict__, **arrays)
        return new

    def copy(self) -> "DataCenterState":
        return self._with(**{name: getattr(self, name).copy() for name in _ARRAYS})

    def positions_on(self, host: int) -> list[int]:
        """Positions of the VMs on one host, in position order."""
        return np.flatnonzero(self.host == host).tolist()

    def by_decreasing_cpu(self, positions) -> np.ndarray:
        """The given VM positions in decreasing CPU demand, ties in VM id
        order: the order in which the placers and the drain check take VMs."""
        positions = np.asarray(positions, dtype=np.intp)
        return positions[np.lexsort((self.rank[positions], -self.demand[CPU, positions]))]

    @property
    def on(self) -> np.ndarray:
        """Each host's power state: on exactly while it holds a VM."""
        return self.count > 0

    def refresh(self, hosts) -> None:
        """Recompute the derived figures of the given hosts from their sums,
        in one call of the server model."""
        hosts = np.asarray(hosts, dtype=np.intp)
        on = self.count[hosts] > 0
        u_cpu, mode, _, p_it = models.host_operating_point(
            self.sums[:, hosts], self.setpoint, self.params)
        self.u_cpu[hosts] = np.where(on, u_cpu, 0.0)
        self.mode[hosts] = np.where(on, mode, 0)
        self.p_it[hosts] = np.where(on, p_it, 0.0)

    def set_setpoint(self, t_inlet_k: float) -> None:
        if t_inlet_k == self.setpoint:
            return
        self.setpoint = t_inlet_k
        self.refresh(np.arange(len(self.count)))

    def set_demand(self, cpu, ram, bw, disk_read, disk_write) -> None:
        """Take new per-VM demands and rebuild every host's sums from them."""
        self.demand = on_grid([cpu, ram, bw, disk_read, disk_write])
        placed = self.host >= 0
        hosts = self.host[placed]
        # an empty input gives integer counts
        self.sums = np.array([np.bincount(hosts, row[placed], len(self.count))
                              for row in self.demand], dtype=float)
        self.refresh(np.arange(len(self.count)))

    def move(self, placement: dict[int, int]) -> list[tuple[int, int, int]]:
        """Put each VM of a position -> host mapping (-1: no host) on its
        host, in the mapping's order, then re-cost every host it touched in
        one call.  The one place a VM changes host, and so the one place a
        host powers on or off.  Returns the moves as (VM position, source or
        -1, target); a VM already on its target is not moved."""
        moves = []
        for i, target in placement.items():
            source = self.host.item(i)
            if source == target:
                continue
            demand = self.demand[:, i]
            if source >= 0:
                self.sums[:, source] -= demand
                self.count[source] -= 1
            if target >= 0:
                self.sums[:, target] += demand
                self.count[target] += 1
            self.host[i] = target
            moves.append((i, source, target))
        touched = {h for _, source, target in moves for h in (source, target)} - {-1}
        if touched:
            self.refresh(sorted(touched))
        return moves

    def total_it_power(self) -> float:
        """Fleet IT power (W), summed in host-id order with Python floats."""
        return models.left_sum(self.p_it.tolist())


@dataclass
class ApplyResult:
    state: DataCenterState
    power_on_events: int
    moved: list[tuple[int, int, int]]  # (VM position, source or -1, target)


def apply_placement(state: DataCenterState, placement: dict[int, int]) -> ApplyResult:
    """Apply a VM position -> host mapping to a copy of the state.

    Capacity is validated on the net post-move aggregates of the hosts that
    receive VMs: RAM and bandwidth are hard limits, CPU never is (a host past
    full CPU runs clamped at 1.0 and pays in SLA).  A host that only keeps
    or loses VMs is not checked, so a demand increase alone never makes a
    placement (or the empty one) fail.  A host is on while it holds a VM,
    so hosts the moves empty are off; targets that held none before are
    counted as power-on events.  A -1 target is no host: it is neither
    checked nor powered on.  Re-applying an already-applied placement is a
    no-op.
    """
    new = state.copy()
    moves = new.move(placement)
    targets = sorted({target for _, _, target in moves} - {-1})
    for host in targets:
        sums = new.sums[:, host]
        ram_fits, bw_fits = within_capacity(sums)
        if not ram_fits:
            raise CapacityError(host, "ram", sums.item(RAM), models.RAM_CAPACITY)
        if not bw_fits:
            raise CapacityError(host, "bandwidth", sums.item(BW), models.BW_CAPACITY)
    power_on = int(np.count_nonzero(state.count[targets] == 0))
    return ApplyResult(state=new, power_on_events=power_on, moved=moves)
