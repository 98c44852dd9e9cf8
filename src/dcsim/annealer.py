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


# moves between two reads of the wall clock
CHECK_INTERVAL = 1024


@dataclass(frozen=True)
class SaConfig:
    iterations: int = 100_000
    k: float = 0.5
    wall_time_cap: float = 300.0      # s, checked every CHECK_INTERVAL moves
    feasibility_scale: float = 1e6
    seed: int = 0

    def __post_init__(self):
        # comparisons reject NaN, which would accept every move
        if not 0.0 < self.k < float("inf"):
            raise ValueError("k must be a finite number > 0")


@dataclass
class SaSolution:
    """Host assignment per VM (parallel to the annealer's VM order)."""

    hosts: list[int]
    objective: float


def _host_cost(state: DataCenterState):
    """One host's ``(IT power W, resource excess)`` from its load
    ``(VMs, cpu, ram, bw, disk read, disk write)``: its VM count, then its
    column of the state's ``sums``, in the order of the resource axis.

    The power is :func:`models.host_operating_point` on Python floats, with
    the clamps and the governor's ``np.searchsorted`` spelled as scalars, so
    it equals the state's ``p_it`` to the last bit.  A host without VMs costs
    nothing.  The excess is the load above each capacity, normalized by it.
    """
    p = state.params
    freqs, volts = models.FREQS_GHZ.tolist(), models.VOLTS.tolist()
    top = len(freqs) - 1
    f_max = freqs[top]
    ram_cap = models.RAM_CAPACITY
    bw_cap = models.BW_CAPACITY
    t_inlet = state.setpoint
    fan_speed = models.FAN_SPEED
    # bound once: the chain costs two hosts per move
    mem_temperature, power_terms, disk_power = (
        models.mem_temperature_unchecked, models.host_power_terms,
        models.disk_power)
    thermal, power, disk = p.thermal, p.power, p.disk
    floor = models.U_MEM_FLOOR

    def cost(n, cpu, ram, bw, read, write):
        if n == 0:
            return 0.0, 0.0
        u = 1.0 if cpu > 1.0 else cpu if cpu > 0.0 else 0.0
        i = bisect_left(freqs, u * f_max - 1e-12)
        if i > top:
            i = top
        u_mem = 100.0 * ram / ram_cap
        u_mem = 100.0 if u_mem > 100.0 else u_mem if u_mem > floor else floor
        t_mem = float(mem_temperature(t_inlet, u_mem, thermal))
        watts = (power_terms(volts[i], freqs[i], u, t_mem, fan_speed, power)
                 + disk_power(read, write, disk))
        excess = cpu - 1.0 if cpu > 1.0 else 0.0
        r = ram / ram_cap - 1.0
        if r > 0.0:
            excess += r
        b = bw / bw_cap - 1.0
        if b > 0.0:
            excess += b
        return watts, excess

    return cost


def _start(state: DataCenterState, vm_ids: list[str], solution, scale: float):
    """A walk's starting point, with the chain's VMs added, in chain order,
    to the hosts ``solution`` gives them.

    Returns each chain VM's demand ``(cpu, ram, bw, disk read, disk write)``,
    the :func:`_host_cost` function, each host's load and cost, the totals
    of IT power and excess, the cooling factor and the objective.  The loads
    start from the state's sums, which hold every VM outside the chain.
    """
    index = [state.index[v] for v in vm_ids]
    if (state.host[index] >= 0).any():
        raise ValueError("the annealer's VMs must be detached from their hosts")
    vms = list(zip(*state.demand[:, index].tolist()))
    loads = list(zip(state.count.tolist(), *state.sums.tolist()))
    for (cpu, ram, bw, read, write), h in zip(vms, solution):
        n, c, r, b, d, w = loads[h]
        loads[h] = (n + 1, c + cpu, r + ram, b + bw, d + read, w + write)
    cost = _host_cost(state)
    costs = [cost(*load) for load in loads]
    power = models.left_sum(c[0] for c in costs)
    excess = models.left_sum(c[1] for c in costs)
    cool = models.cooling_factor(state.setpoint, state.params.cooling)
    return (vms, cost, loads, costs, power, excess, cool,
            power * cool * (1.0 + scale * excess))


def sa_objective(solution, vm_ids: list[str], state: DataCenterState,
                 scale: float = 1e6) -> float:
    """Objective of one assignment vector: power * (1 + feasibility penalty).

    ``solution`` maps each VM of ``vm_ids`` (detached in ``state``) to a
    host id, positionally.  Power is the fleet's IT plus cooling power, where
    a host counts as powered only while it holds a VM.  The penalty is the
    total resource excess, normalized per capacity so it is dimensionless,
    scaled to dominate the power term.
    """
    return _start(state, vm_ids, solution, scale)[-1]


def sa_solve(vm_list, host_list, state: DataCenterState,
             seed_solution: dict[str, int], cfg: SaConfig = SaConfig()) -> SaSolution:
    """Anneal a full placement starting from a (feasible) seed placement.

    Neighbors reassign one uniformly random VM to one uniformly random host.
    A move is scored by costing the two hosts' new loads, which replace the
    old ones only if the move is accepted.  Returns the best-so-far
    solution, which by construction is at least as good as the seed.
    Deterministic for a fixed config seed as long as the wall-clock cap is
    not the binding stop condition.
    """
    vm_ids = list(vm_list)
    hosts = sorted(host_list)
    rng = random.Random(cfg.seed)
    current = [seed_solution[v] for v in vm_ids]
    scale = cfg.feasibility_scale
    vms, cost, loads, costs, power, excess, cool, cur_val = _start(
        state, vm_ids, current, scale)
    best = list(current)
    best_val = cur_val

    n_vms = len(vm_ids)
    n_hosts = len(hosts)
    if not n_vms or not n_hosts:
        raise ValueError("the annealer needs a VM and a host to move it to")
    # uniform draws as random.randrange makes them, from the same stream,
    # without its argument checks: they were a fifth of a move
    bits = rng.getrandbits
    vm_bits, host_bits = n_vms.bit_length(), n_hosts.bit_length()
    k = cfg.k
    t0 = time.monotonic()
    for it in range(max(1, cfg.iterations)):
        if it % CHECK_INTERVAL == 0 and time.monotonic() - t0 > cfg.wall_time_cap:
            break
        i = bits(vm_bits)
        while i >= n_vms:
            i = bits(vm_bits)
        j = bits(host_bits)
        while j >= n_hosts:
            j = bits(host_bits)
        new = hosts[j]
        old = current[i]
        if new == old:
            continue
        cpu, ram, bw, read, write = vms[i]
        n, c, r, b, d, w = loads[old]
        load_old = (n - 1, c - cpu, r - ram, b - bw, d - read, w - write)
        n, c, r, b, d, w = loads[new]
        load_new = (n + 1, c + cpu, r + ram, b + bw, d + read, w + write)
        cost_old = cost(*load_old)
        cost_new = cost(*load_new)
        new_power = (power + (cost_old[0] - costs[old][0])
                     + (cost_new[0] - costs[new][0]))
        new_excess = (excess + (cost_old[1] - costs[old][1])
                      + (cost_new[1] - costs[new][1]))
        new_val = new_power * cool * (1.0 + scale * new_excess)
        if new_val > cur_val:
            x = (new_val - cur_val) / cur_val if cur_val > 0 else math.inf
            if rng.random() >= math.exp(-x / k):
                continue
        loads[old], loads[new] = load_old, load_new
        costs[old], costs[new] = cost_old, cost_new
        power, excess, cur_val = new_power, new_excess, new_val
        current[i] = new
        if new_val < best_val:
            best_val = new_val
            best = list(current)

    return SaSolution(hosts=best, objective=best_val)


def sa_place(vm_list: list[str], host_list, state: DataCenterState,
             seed_solution: dict[str, int], cfg: SaConfig = SaConfig()):
    """Annealed placement as a VM id -> host map, plus its objective."""
    sol = sa_solve(vm_list, host_list, state, seed_solution, cfg)
    return dict(zip(vm_list, sol.hosts)), sol.objective
