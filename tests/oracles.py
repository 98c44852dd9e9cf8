"""Scalar reference implementations the placement tests compare against.

They cost one candidate host at a time through the scalar host kernel
(``models.host_operating_point``) and read plain ``DataCenterState`` objects,
where the placers cost every host at once on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dcsim import models
from dcsim.core import DataCenterState, HostState, ObjectiveVector, VmState
from dcsim.models import KWH_PER_WS
from dcsim.policies import (CandidateView, GuardError, SoKind, SoSaModel,
                            normalize_band, objective_vector, so_sa_combine,
                            so_value_from_view)


def effective_it_power(state: DataCenterState) -> float:
    """Fleet IT power with the power-off sweep applied: an empty host draws
    nothing because the engine shuts it down at the end of the pass."""
    return sum(h.p_it for h in state.hosts if h.powered_on and h.vms)


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


def so_value(kind: SoKind, vm: VmState, host: HostState,
             state: DataCenterState) -> float:
    return so_value_from_view(kind, evaluate_candidate(vm, host, state))


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
