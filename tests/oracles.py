"""Scalar reference implementations the model, placement and trace tests
compare against.

They cost one candidate host at a time through ``scalar_operating_point``,
the server model written out on Python floats, and read a
``DataCenterState`` one host and one VM at a time, where the state and the
placers cost many hosts at once through the array model
``models.host_operating_point``.  The per-candidate values
(``CandidateView``, ``so_value_from_view``, ``objective_vector``) are the
paper's SO1-SO7 and MO definitions written out for one candidate.
``load_traces_rowwise`` is the trace loader that reads one row and fills one
slot-grid cell at a time, and ``save_traces_rowwise`` the trace writer that
formats one row at a time from numpy scalars.  ``overload_threshold`` is the
MAD threshold of one host's utilization history, from ``statistics.median``
on Python floats, where ``detection.overload_threshold`` takes every host's
at once.  ``vm_record`` and ``ids_on`` read a state's VMs back by id, as the
slot loop, which passes VM positions, never does.  ``cpu_temperature``,
``mem_temperature`` (the checked spelling of the model's memory
temperature) and ``predict`` are model functions that only tests call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

from dcsim import models
from dcsim.core import BW, CPU, RAM, READ, WRITE, DataCenterState, VmState
from dcsim.models import KWH_PER_WS
from dcsim.policies import SoKind, SoSaModel, normalize_band, so_sa_combine
from dcsim.workload import (KB_PER_MB, SLOT_SECONDS, TRACE_COLUMNS, TraceError,
                            Workload)


def vm_record(state: DataCenterState, i: int) -> VmState:
    """The demand of the VM at position ``i``, as a new record."""
    demand = state.demand
    return VmState(state.vm_ids[i], demand.item(CPU, i), demand.item(RAM, i),
                   demand.item(READ, i), demand.item(WRITE, i),
                   demand.item(BW, i))


def ids_on(state: DataCenterState, host: int) -> list[str]:
    """Ids of the VMs on one host, in position order."""
    return [state.vm_ids[i] for i in state.positions_on(host)]


@dataclass(frozen=True)
class DvfsMode:
    f_op: float  # GHz
    v_dd: float  # V


# the server's DVFS ladder on Python floats, ascending in f_op: the voltage
# ramps linearly from 1.80 V at the lowest frequency to 1.92 V at the highest
_FREQS_GHZ = (1.73, 1.86, 2.13, 2.26, 2.39, 2.40)
DVFS_TABLE = tuple(
    DvfsMode(f, 1.80 + (1.92 - 1.80) * (f - _FREQS_GHZ[0])
             / (_FREQS_GHZ[-1] - _FREQS_GHZ[0]))
    for f in _FREQS_GHZ)


def governor_frequency(u_cpu: float) -> DvfsMode:
    """Pick the DVFS mode of ``DVFS_TABLE`` for a utilization: the lowest
    f_op covering u_cpu * f_max.  Falls back to the top mode when no
    frequency qualifies."""
    if not 0.0 <= u_cpu <= 1.0 + 1e-12:
        raise ValueError(f"u_cpu out of range [0,1]: {u_cpu}")
    needed = u_cpu * DVFS_TABLE[-1].f_op
    for mode in DVFS_TABLE:
        if mode.f_op >= needed - 1e-12:
            return mode
    return DVFS_TABLE[-1]


def scalar_operating_point(cpu_sum: float, ram_sum: float, disk_read: float,
                           disk_write: float, t_inlet: float,
                           p: models.ModelParams):
    """``models.host_operating_point`` for one host on Python floats:
    ``(u_cpu, mode, t_mem, p_it)``, with the governor's ``DvfsMode`` as
    ``mode``.  It takes its logarithm from ``math`` and the cube of the fan
    speed from ``**``, where the array model uses numpy's ``log`` and two
    products, so the two can differ in the last bits."""
    u_cpu = min(1.0, max(0.0, cpu_sum))
    u_mem = min(100.0, max(models.U_MEM_FLOOR, 100.0 * ram_sum / models.RAM_CAPACITY))
    mode = governor_frequency(u_cpu)
    fan = models.FAN_SPEED
    t_mem = p.thermal.mem_k1 * t_inlet + p.thermal.mem_k2 * math.log(u_mem * u_mem)
    pw = p.power
    p_it = (pw.c_dyn * mode.v_dd * mode.v_dd * mode.f_op * u_cpu
            + pw.c_mem * t_mem * t_mem
            + pw.c_fan * fan ** 3
            + (p.disk.c_read * disk_read + p.disk.c_write * disk_write))
    return u_cpu, mode, t_mem, p_it


def mem_temperature(t_inlet, u_mem,
                    p: models.ThermalModelParams = models.ThermalModelParams()):
    """Memory temperature (K) for an inlet temperature and memory load in
    percent: ``models.mem_temperature_unchecked`` behind a check that the
    load is positive."""
    if np.any(u_mem <= 0.0):
        raise ValueError(f"u_mem must be a percent in (0, 100], got {u_mem}")
    return models.mem_temperature_unchecked(t_inlet, u_mem, p)


def cpu_temperature(t_inlet: float, u_cpu: float,
                    p: models.ThermalModelParams = models.ThermalModelParams()) -> float:
    """CPU temperature (K) for an inlet temperature and utilization
    fraction, the forward model that ``cooling.max_inlet_for_host``
    inverts."""
    return p.cpu_k1 * t_inlet + p.cpu_k2 * u_cpu


def predict(model: SoSaModel, samples) -> np.ndarray:
    """The composite value ``model`` gives each ``calibration.TrainingRecord``."""
    return np.array([so_sa_combine(s.norm_so3, s.e_so3, s.norm_so6, s.e_so6, model)
                     for s in samples])


def mad(values) -> float:
    """Median absolute deviation from the median."""
    m = median(values)
    return median(abs(v - m) for v in values)


def overload_threshold(history, cfg) -> float:
    """``detection.overload_threshold`` of one host, from its utilizations
    oldest first: the fallback until they fill ``cfg.history_window``, then
    1 - safety * MAD of the last window's worth, clamped to [0.5, 1.0]."""
    recent = list(history)[-cfg.history_window:]
    if len(recent) < cfg.history_window:
        return cfg.fallback_threshold
    t = 1.0 - cfg.safety * mad(recent)
    return min(1.0, max(0.5, t))


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


def is_busy(state: DataCenterState, host: int) -> bool:
    """Powered on and running VMs."""
    return bool(state.on[host]) and host in state.host.tolist()


def effective_it_power(state: DataCenterState) -> float:
    """Fleet IT power with the power-off sweep applied: an empty host draws
    nothing because the engine shuts it down at the end of the pass."""
    return models.left_sum(state.p_it.item(h) for h in range(len(state.on))
                           if is_busy(state, h))


def evaluate_candidate(vm: VmState, host: int, state: DataCenterState) -> CandidateView:
    """Predict the post-allocation view of one host for one VM."""
    u_after, mode_after, t_mem_after, p_after = scalar_operating_point(
        state.sums.item(CPU, host) + vm.cpu_demand,
        state.sums.item(RAM, host) + vm.ram_used,
        state.sums.item(READ, host) + vm.disk_read,
        state.sums.item(WRITE, host) + vm.disk_write,
        state.setpoint, state.params)
    f_before = DVFS_TABLE[state.mode[host]].f_op
    # frequency increment normalized by the top frequency, so it shares the
    # [0,1] scale of the utilization it is traded against
    dfreq = (mode_after.f_op - f_before) / DVFS_TABLE[-1].f_op
    p_before = state.p_it.item(host) if is_busy(state, host) else 0.0
    p_cooling = p_after / models.cop(state.setpoint, state.params.cooling)
    return CandidateView(host_id=host, u_after=u_after, dfreq=dfreq,
                         p_before=p_before, p_after=p_after,
                         t_mem_after=t_mem_after, p_cooling_after=p_cooling)


def so_value(kind: SoKind, vm: VmState, host: int,
             state: DataCenterState) -> float:
    return so_value_from_view(kind, evaluate_candidate(vm, host, state))


def so_sa_value(vm: VmState, host: int, state: DataCenterState,
                m: SoSaModel = SoSaModel(), candidates=None,
                slot_seconds: float = 300.0) -> float:
    """Composite consolidation value of one host within a candidate set.

    Normalization runs over ``candidates`` (host ids, defaulting to just the
    given host, which degenerates both normalized values to 1.5).
    """
    ids = sorted(set(candidates or [host]) | {host})
    so3 = []
    so6 = []
    energies = []
    cool = models.cop(state.setpoint, state.params.cooling)
    total_p = effective_it_power(state)
    for hid in ids:
        view = evaluate_candidate(vm, hid, state)
        so3.append(so_value_from_view(SoKind.SO3, view))
        so6.append(so_value_from_view(SoKind.SO6, view))
        p_global = (total_p - view.p_before + view.p_after) * (1.0 + 1.0 / cool)
        energies.append(p_global * slot_seconds * KWH_PER_WS)
    n3 = normalize_band(np.array(so3))
    n6 = normalize_band(np.array(so6))
    k = ids.index(host)
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
        view = evaluate_candidate(vm, hid, state)
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


@dataclass(frozen=True)
class TraceSample:
    """One monitoring row of a VM trace."""

    timestamp: float        # s
    cpu_cores: int
    cpu_provisioned: float  # MHz
    cpu_usage: float        # percent of provisioned
    ram_provisioned: float  # MB
    ram_used: float         # MB
    disk_read: float        # KB/s
    disk_write: float       # KB/s
    net_rx: float = 0.0     # KB/s
    net_tx: float = 0.0     # KB/s


def _parse_trace_rows(path: Path) -> list[TraceSample]:
    text = path.read_text()
    delim = ";" if text.count(";") >= text.count(",") else ","
    samples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(delim)]
        if lineno == 1 and not _is_number(fields[0]):
            continue  # header
        try:
            vals = [float(f) if f else 0.0 for f in fields]
        except ValueError as e:
            raise TraceError(f"{path.name}:{lineno}: {e}") from None
        if len(vals) < 9:
            raise TraceError(f"{path.name}:{lineno}: expected >=9 columns, got {len(vals)}")
        vals += [0.0] * (11 - len(vals))
        samples.append(TraceSample(
            timestamp=vals[0], cpu_cores=int(vals[1]), cpu_provisioned=vals[2],
            cpu_usage=vals[4], ram_provisioned=vals[5] / KB_PER_MB,
            ram_used=vals[6] / KB_PER_MB, disk_read=vals[7], disk_write=vals[8],
            net_rx=vals[9], net_tx=vals[10]))
    if not samples:
        raise TraceError(f"{path.name}: no data rows")
    return samples


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _in_seconds(samples: list[TraceSample]) -> tuple[list[TraceSample], float | None]:
    """One file's rows with their timestamps in seconds, and the smallest
    step between two of its distinct timestamps, in seconds (None when it
    has one distinct timestamp).  A step of at least 999 default slots is
    one of milliseconds."""
    distinct = sorted({s.timestamp for s in samples})
    if len(distinct) < 2:
        return samples, None
    step = min(b - a for a, b in zip(distinct, distinct[1:]))
    if step < SLOT_SECONDS * 999:
        return samples, step
    return ([replace(s, timestamp=s.timestamp / 1000.0) for s in samples],
            step / 1000.0)


def _check_aligned(samples: list[TraceSample], slot_seconds: int, name: str) -> None:
    base = samples[0].timestamp
    for s in samples:
        off = s.timestamp - base
        if abs(off / slot_seconds - round(off / slot_seconds)) > 1e-6:
            raise TraceError(f"{name}: timestamp {s.timestamp} not aligned "
                             f"to the {slot_seconds} s grid")


def load_traces_rowwise(directory, fill: str = "ffill") -> Workload:
    """Row-by-row reference for ``workload.load_traces``: one
    ``TraceSample`` per row, the slot grid filled one cell at a time.

    CPU demand is normalized against the server's full capacity at top
    frequency: demand = usage% * provisioned MHz / host capacity MHz.  The
    grid is the smallest step between two distinct timestamps of one file
    (``SLOT_SECONDS`` when no file has two), checked against every file
    once all are read.  ``fill`` selects the gap policy: "ffill"
    forward-fills each VM onto the union grid (leading gaps repeat the
    earliest sample, the first of them in file order, which also gives the
    cores); "drop" restricts the grid to slots covered by every VM, and the
    window's first slot takes the latest sample at or before it.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise TraceError(f"trace directory not found: {directory}")
    files = sorted(p for p in directory.iterdir()
                   if p.is_file() and p.suffix.lower() in (".csv", ".txt"))
    if not files:
        raise TraceError(f"no trace files in {directory}")
    # a VM's id is its file's stem, so two files with one stem fail
    for path in files:
        first = next(p for p in files if p.stem == path.stem)
        if first != path:
            raise TraceError(f"{first.name} and {path.name} both hold VM {path.stem!r}")

    parsed = [(path, *_in_seconds(_parse_trace_rows(path))) for path in files]
    step = min((step for _, _, step in parsed if step is not None),
               default=SLOT_SECONDS)
    if not float(step).is_integer():
        raise TraceError(
            f"smallest timestamp step {step} s is not a whole number of seconds")
    slot_seconds = int(step)
    per_vm = {}
    for path, samples, _ in parsed:
        _check_aligned(samples, slot_seconds, path.name)
        per_vm[path.stem] = samples

    # each file's earliest and latest timestamp
    firsts = [min(s.timestamp for s in samples) for samples in per_vm.values()]
    lasts = [max(s.timestamp for s in samples) for samples in per_vm.values()]
    t0, t1 = min(firsts), max(lasts)
    if fill == "drop":
        t0, t1 = max(firsts), min(lasts)
        if t1 < t0:
            raise TraceError("no common slot window across VMs (fill=drop)")
    n_slots = int(round((t1 - t0) / slot_seconds)) + 1

    host_capacity_mhz = models.CPU_CAPACITY_MHZ
    vm_ids = list(per_vm)
    n = len(vm_ids)
    cpu = np.zeros((n, n_slots))
    ram = np.zeros((n, n_slots))
    disk_r = np.zeros((n, n_slots))
    disk_w = np.zeros((n, n_slots))
    net = np.zeros((n, n_slots))
    cores = np.zeros(n, dtype=int)
    ram_prov = np.zeros(n)

    for i, vid in enumerate(vm_ids):
        samples = per_vm[vid]
        # min keeps the first of equal timestamps
        earliest = min(samples, key=lambda s: s.timestamp)
        cores[i] = max(1, earliest.cpu_cores)
        ram_prov[i] = max(s.ram_provisioned for s in samples)
        # in slot order, then file order: a slot keeps its last sample,
        # and slot 0 the last one at or before it
        by_slot = {}
        for k, s in sorted(((int(round((s.timestamp - t0) / slot_seconds)), s)
                            for s in samples), key=lambda pair: pair[0]):
            by_slot[max(k, 0)] = s
        last = earliest
        for t in range(n_slots):
            s = by_slot.get(t, last)
            last = s
            cpu[i, t] = (s.cpu_usage / 100.0) * s.cpu_provisioned / host_capacity_mhz
            ram[i, t] = s.ram_used
            disk_r[i, t] = s.disk_read
            disk_w[i, t] = s.disk_write
            net[i, t] = (s.net_rx + s.net_tx) / KB_PER_MB

    return Workload(vm_ids, cpu, ram, disk_r, disk_w, net, cores, ram_prov,
                    slot_seconds)


def save_traces_rowwise(w: Workload, directory) -> None:
    """Row-by-row reference for ``workload.save_traces``: every cell read as
    a numpy scalar, every float written with ``repr``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cap_mhz = models.CPU_CAPACITY_MHZ
    core_mhz = DVFS_TABLE[-1].f_op * 1000.0
    for i, vid in enumerate(w.vm_ids):
        prov_mhz = w.cores[i] * core_mhz
        lines = [";".join(TRACE_COLUMNS)]
        for t in range(w.slot_count):
            usage_pct = 100.0 * w.cpu[i, t] * cap_mhz / prov_mhz
            row = (t * w.slot_seconds, w.cores[i], prov_mhz,
                   usage_pct / 100.0 * prov_mhz, usage_pct,
                   w.ram_provisioned[i] * KB_PER_MB, w.ram[i, t] * KB_PER_MB,
                   w.disk_read[i, t], w.disk_write[i, t],
                   w.net_bw[i, t] * KB_PER_MB / 2, w.net_bw[i, t] * KB_PER_MB / 2)
            lines.append(";".join(repr(float(x)) if isinstance(x, float) else str(x)
                                  for x in row))
        (directory / f"{vid}.csv").write_text("\n".join(lines) + "\n")
