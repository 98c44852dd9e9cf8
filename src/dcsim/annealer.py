"""Seeded simulated annealing over full placements.

The chain is a constant-k Metropolis walk: a worse neighbor is accepted with
probability exp(-x/k) where x is the relative objective worsening.  There is
no cooling schedule; the seed is expected to be the best BFD solution, so the
walk only needs small perturbations.  Best-so-far tracking guarantees the
returned solution is never worse than the seed.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass

from . import models
from .core import DataCenterState


@dataclass(frozen=True)
class SaConfig:
    iterations: int = 100_000
    k: float = 0.5
    wall_time_cap: float = 300.0      # s, checked every check_interval moves
    feasibility_scale: float = 1e6
    seed: int = 0
    check_interval: int = 1024

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")


@dataclass
class SaSolution:
    """Host assignment per VM (parallel to the annealer's VM order)."""

    hosts: list[int]
    objective: float


class _Objective:
    """Incrementally evaluated SA objective with O(1) move and revert.

    Keeps per-host aggregates in flat lists and recomputes the power of the
    (at most two) hosts touched by a move.  The objective is total
    (IT + cooling) power times (1 + scale * total normalized resource excess);
    a host counts as powered only while it hosts at least one VM.
    """

    def __init__(self, state: DataCenterState, vm_ids: list[str], scale: float):
        self.scale = scale
        p = state.params
        spec = state.spec
        self.cool_factor = 1.0 + 1.0 / models.cop(state.setpoint, p.cooling)
        n = len(state.on)
        self.cpu = [0.0] * n
        self.ram = [0.0] * n
        self.bw = [0.0] * n
        self.disk = [0.0] * n   # disk power, W
        self.count = [0] * n
        self.power = [0.0] * n
        self.excess = [0.0] * n
        self.ram_cap = spec.ram_capacity
        self.bw_cap = spec.bw_capacity
        self.freqs = [m.f_op for m in spec.dvfs_table]
        self.volts = [m.v_dd for m in spec.dvfs_table]
        self.f_max = self.freqs[-1]
        self.c_dyn = p.power.c_dyn
        self.c_mem = p.power.c_mem
        self.k1t = p.thermal.mem_k1 * state.setpoint
        self.k2x2 = 2.0 * p.thermal.mem_k2
        self.fan_w = p.power.c_fan * p.fan_speed(0.0, spec.fan_speed_default) ** 3
        self.fan_linear = p.fan_map == "linear"
        self.params = p
        self.fan_default = spec.fan_speed_default
        self.c_read = p.disk.c_read
        self.c_write = p.disk.c_write

        self.vm_cpu = []
        self.vm_ram = []
        self.vm_bw = []
        self.vm_disk = []
        self.assigned = []
        for vid in vm_ids:
            vm = state.vm(vid)
            self.vm_cpu.append(vm.cpu_demand)
            self.vm_ram.append(vm.ram_used)
            self.vm_bw.append(vm.net_bw)
            self.vm_disk.append(self.c_read * vm.disk_read + self.c_write * vm.disk_write)
            self.assigned.append(None)

        # each host sums its fixed VMs in id order, whatever the VM order
        chain_set = set(vm_ids)
        host_of = state.host.tolist()
        for vid in sorted(v for v, h in zip(state.vm_ids, host_of)
                          if h >= 0 and v not in chain_set):
            vm = state.vm(vid)
            h = host_of[state.index[vid]]
            self.count[h] += 1
            self.cpu[h] += vm.cpu_demand
            self.ram[h] += vm.ram_used
            self.bw[h] += vm.net_bw
            self.disk[h] += self.c_read * vm.disk_read + self.c_write * vm.disk_write
        for h in range(n):
            self._recompute(h)
        self.total_power = sum(self.power)
        self.total_excess = sum(self.excess)

    def _recompute(self, hid: int) -> None:
        if self.count[hid] == 0:
            self.power[hid] = 0.0
            self.excess[hid] = 0.0
            return
        cpu = self.cpu[hid]
        u = cpu if cpu < 1.0 else 1.0
        i = bisect_left(self.freqs, u * self.f_max - 1e-12)
        if i >= len(self.freqs):
            i = len(self.freqs) - 1
        u_mem = 100.0 * self.ram[hid] / self.ram_cap
        if u_mem < 1.0:
            u_mem = 1.0
        elif u_mem > 100.0:
            u_mem = 100.0
        t_mem = self.k1t + self.k2x2 * math.log(u_mem)
        if self.fan_linear:
            fs = self.params.fan_speed(u, self.fan_default)
            fan_w = self.params.power.c_fan * fs ** 3
        else:
            fan_w = self.fan_w
        self.power[hid] = (self.c_dyn * self.volts[i] * self.volts[i]
                           * self.freqs[i] * u
                           + self.c_mem * t_mem * t_mem + fan_w + self.disk[hid])
        e = cpu - 1.0 if cpu > 1.0 else 0.0
        r = self.ram[hid] / self.ram_cap - 1.0
        if r > 0.0:
            e += r
        b = self.bw[hid] / self.bw_cap - 1.0
        if b > 0.0:
            e += b
        self.excess[hid] = e

    def _apply_host_delta(self, hid: int, vm_idx: int, sign: float) -> None:
        self.cpu[hid] += sign * self.vm_cpu[vm_idx]
        self.ram[hid] += sign * self.vm_ram[vm_idx]
        self.bw[hid] += sign * self.vm_bw[vm_idx]
        self.disk[hid] += sign * self.vm_disk[vm_idx]
        self.count[hid] += 1 if sign > 0 else -1
        old_p = self.power[hid]
        old_e = self.excess[hid]
        self._recompute(hid)
        self.total_power += self.power[hid] - old_p
        self.total_excess += self.excess[hid] - old_e

    def assign(self, vm_idx: int, host_id: int) -> None:
        old = self.assigned[vm_idx]
        if old == host_id:
            return
        if old is not None:
            self._apply_host_delta(old, vm_idx, -1.0)
        self._apply_host_delta(host_id, vm_idx, +1.0)
        self.assigned[vm_idx] = host_id

    def value(self) -> float:
        return (self.total_power * self.cool_factor
                * (1.0 + self.scale * self.total_excess))


def sa_objective(solution, vm_ids: list[str], state: DataCenterState,
                 scale: float = 1e6) -> float:
    """Objective of one assignment vector: power * (1 + feasibility penalty).

    ``solution`` maps each VM of ``vm_ids`` (given detached in ``state``) to a
    host id, positionally.  Resource excess is normalized per capacity so the
    penalty is dimensionless, and scaled to dominate the power term.
    """
    obj = _Objective(state, vm_ids, scale)
    for i, host_id in enumerate(solution):
        obj.assign(i, host_id)
    return obj.value()


def sa_solve(vm_list, host_list, state: DataCenterState,
             seed_solution: dict[str, int], cfg: SaConfig = SaConfig()) -> SaSolution:
    """Anneal a full placement starting from a (feasible) seed placement.

    Neighbors reassign one uniformly random VM to one uniformly random host.
    Returns the best-so-far solution, which by construction is at least as
    good as the seed.  Deterministic for a fixed config seed as long as the
    wall-clock cap is not the binding stop condition.
    """
    vm_ids = [v if isinstance(v, str) else v.id for v in vm_list]
    hosts = sorted(host_list)
    rng = random.Random(cfg.seed)
    obj = _Objective(state, vm_ids, cfg.feasibility_scale)

    current = [seed_solution[v] for v in vm_ids]
    for i, host_id in enumerate(current):
        obj.assign(i, host_id)
    cur_val = obj.value()
    best = list(current)
    best_val = cur_val

    iterations = max(1, cfg.iterations)
    n_vms = len(vm_ids)
    n_hosts = len(hosts)
    k = cfg.k
    t0 = time.monotonic()
    for it in range(iterations):
        if it % cfg.check_interval == 0 and time.monotonic() - t0 > cfg.wall_time_cap:
            break
        vm_idx = rng.randrange(n_vms)
        new_host = hosts[rng.randrange(n_hosts)]
        old_host = current[vm_idx]
        if new_host == old_host:
            continue
        obj.assign(vm_idx, new_host)
        new_val = obj.value()
        if new_val <= cur_val:
            accept = True
        else:
            x = (new_val - cur_val) / cur_val if cur_val > 0 else math.inf
            accept = rng.random() < math.exp(-x / k)
        if accept:
            current[vm_idx] = new_host
            cur_val = new_val
            if new_val < best_val:
                best_val = new_val
                best = list(current)
        else:
            obj.assign(vm_idx, old_host)

    return SaSolution(hosts=best, objective=best_val)


def sa_place(vm_list, host_list, state: DataCenterState,
             seed_solution: dict[str, int], cfg: SaConfig = SaConfig()):
    """Annealed placement as a VM -> host map, plus its objective."""
    vm_ids = [v if isinstance(v, str) else v.id for v in vm_list]
    sol = sa_solve(vm_ids, host_list, state, seed_solution, cfg)
    return {vid: host for vid, host in zip(vm_ids, sol.hosts)}, sol.objective
