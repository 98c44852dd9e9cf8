"""Workload ingestion and synthesis.

Traces follow the fastStorage column layout (one delimited file per VM).  A
:class:`Workload` keeps everything as dense per-slot arrays on a shared grid;
missing samples are forward-filled by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import models

TRACE_COLUMNS = (
    "Timestamp [s]", "CPU cores", "CPU capacity provisioned [MHZ]",
    "CPU usage [MHZ]", "CPU usage [%]", "Memory capacity provisioned [KB]",
    "Memory usage [KB]", "Disk read throughput [KB/s]",
    "Disk write throughput [KB/s]", "Network received throughput [KB/s]",
    "Network transmitted throughput [KB/s]",
)

KB_PER_MB = 1024.0
SLOT_SECONDS = 300  # s: synthetic slots; the trace grid when no file has two timestamps
SYNTH_MEAN_DEMAND = 0.13   # synth_workload's mean baseline, a fraction of a host's CPU
SYNTH_AR_PHI = 0.9         # AR(1) coefficient around the baseline
SYNTH_AR_SIGMA = 0.16      # AR(1) noise, relative to the baseline
SYNTH_BURST_PROB = 0.02    # chance that a burst starts, per VM and slot
SYNTH_BURST_SCALE = 3.0    # a burst multiplies demand by 1.6 to this + 0.6
SYNTH_JITTER_SIGMA = 0.12  # log-scale of the per-slot lognormal jitter


class TraceError(Exception):
    pass


@dataclass(eq=False)
class Workload:
    """Per-VM demand series on a shared slot grid.

    ``cpu`` holds demand as a fraction of one host's full-capacity CPU; the
    remaining arrays carry MB, KB/s and MB/s as produced by the loader.
    """

    vm_ids: list[str]
    cpu: np.ndarray
    ram: np.ndarray
    disk_read: np.ndarray
    disk_write: np.ndarray
    net_bw: np.ndarray
    cores: np.ndarray
    ram_provisioned: np.ndarray
    slot_seconds: int = SLOT_SECONDS

    @property
    def vm_count(self) -> int:
        return len(self.vm_ids)

    @property
    def slot_count(self) -> int:
        return self.cpu.shape[1] if self.cpu.size else 0


def variability_score(w: Workload) -> float:
    """Total variation of the aggregate CPU series over its mean, in percent."""
    agg = w.cpu.sum(axis=0)
    if agg.size < 2:
        raise TraceError("variability needs at least 2 slots")
    mean = float(agg.mean())
    if mean == 0.0:
        return 0.0
    tv = float(np.abs(np.diff(agg)).sum())
    return 100.0 * tv / mean


def _parse_trace_file(path: Path) -> np.ndarray:
    """A trace file's data rows, in file order, as one (rows, 11) array.

    A well-formed file is read by numpy's C reader in one call; any other
    goes through the line parser, which holds the rules and writes every
    ``TraceError``.  Both read a number with CPython's correctly rounded
    conversion, so a file reads to the same bits either way.
    """
    text = path.read_text()
    delim = ";" if text.count(";") >= text.count(",") else ","
    lines = text.splitlines()
    samples = _read_well_formed(lines, delim)
    if samples is None:
        samples = _parse_trace_lines(lines, delim, path.name)
    return samples


def _read_well_formed(lines: list[str], delim: str) -> np.ndarray | None:
    """The rows of a file that needs none of the line parser's rules, read
    by ``np.loadtxt``; None for any other file.

    Such a file has an optional header on line 1, at least one data row,
    and rows of the same 9 or more columns, each a finite number that
    numpy's reader takes: no empty field, no underscore, non-ASCII digit or
    whitespace-only line.  The line parser reads these rows to the same
    values, and rejects or reads every other file itself.
    """
    if not lines:
        return None
    skip = 0 if _is_number(lines[0].split(delim, 1)[0].strip()) else 1
    if not any(map(str.strip, islice(lines, skip, None))):
        return None  # no data rows, on which numpy would warn
    try:
        rows = np.loadtxt(lines, delimiter=delim, comments=None,
                          skiprows=skip, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] < 9 or not np.isfinite(rows).all():
        return None
    if rows.shape[1] != 11:
        cols = min(rows.shape[1], 11)
        out = np.zeros((len(rows), 11))
        out[:, :cols] = rows[:, :cols]
        rows = out
    return rows


def _parse_trace_lines(lines: list[str], delim: str, name: str) -> np.ndarray:
    """The line parser behind ``_parse_trace_file``.

    A line of numbers is read with ``float`` alone, which ignores the spaces
    around a field.  Only a line that fails takes the careful path: it is
    stripped, skipped if blank or if it is the header (line 1 only), and an
    empty field reads 0.0.  Columns past the 11th are ignored.
    """
    flat, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
        try:
            vals = list(map(float, line.split(delim)))
        except ValueError:
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(delim)]
            if lineno == 1 and not _is_number(fields[0]):
                continue  # header
            try:
                vals = [float(f) if f else 0.0 for f in fields]
            except ValueError as e:
                raise TraceError(f"{name}:{lineno}: {e}") from None
        if len(vals) != 11:
            if len(vals) < 9:
                raise TraceError(
                    f"{name}:{lineno}: expected >=9 columns, got {len(vals)}")
            vals = (vals + [0.0, 0.0])[:11]
        flat.extend(vals)
        linenos.append(lineno)
    if not flat:
        raise TraceError(f"{name}: no data rows")
    samples = np.array(flat).reshape(-1, 11)
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise TraceError(f"{name}:{lineno}: non-finite value")
    return samples


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _check_aligned(name: str, ts: np.ndarray, slot_seconds: int) -> None:
    off = (ts - ts[0]) / slot_seconds
    misaligned = ~(np.abs(off - np.rint(off)) <= 1e-6)
    if misaligned.any():
        raise TraceError(
            f"{name}: timestamp {ts.item(np.argmax(misaligned))} not "
            f"aligned to the {slot_seconds} s grid")


def _distinct_steps(ts: np.ndarray) -> np.ndarray:
    """The steps between one file's distinct timestamps, in time order: the
    differences of ``np.unique``, which would import ``numpy.ma`` on its
    first call."""
    steps = np.diff(np.sort(ts))
    return steps[steps > 0]


def load_traces(directory, fill: str = "ffill") -> Workload:
    """Load one trace file per VM from a directory into a Workload.

    CPU demand is normalized against the server's full capacity at top
    frequency: demand = usage% * provisioned MHz / ``models.CPU_CAPACITY_MHZ``.
    The slot grid comes from the timestamps: the smallest step between two
    distinct timestamps of one file, in whole seconds (``SLOT_SECONDS`` when
    no file has two), and every timestamp must sit on it.  A file whose
    smallest step is at least 999 × ``SLOT_SECONDS`` has its timestamps in
    milliseconds.  Rows may come in any order: the grid spans every file's
    earliest to latest timestamp, and of two rows on one slot the later one
    in the file wins.  ``fill`` selects the gap policy: "ffill"
    forward-fills each VM onto the union grid (leading gaps repeat the
    file's earliest row, which also gives the VM's cores); "drop" restricts
    the grid to slots covered by every VM, and a file with no row on the
    window's first slot fills it from its latest row before the window.
    """
    if fill not in ("ffill", "drop"):
        raise ValueError(f"unknown fill {fill!r}: expected 'ffill' or 'drop'")
    directory = Path(directory)
    if not directory.is_dir():
        raise TraceError(f"trace directory not found: {directory}")
    files = sorted(p for p in directory.iterdir()
                   if p.is_file() and p.suffix.lower() in (".csv", ".txt"))
    if not files:
        raise TraceError(f"no trace files in {directory}")
    stems = {}  # a VM's id is its file's stem
    for path in files:
        if stems.setdefault(path.stem, path.name) != path.name:
            raise TraceError(f"{stems[path.stem]} and {path.name} both hold VM {path.stem!r}")

    # the grid is known once every file is read, and every file is checked then
    per_vm, timestamps, step = {}, [], math.inf
    for path in files:
        samples = _parse_trace_file(path)
        ts = samples[:, 0]
        steps = _distinct_steps(ts)
        if steps.size:
            smallest = steps.min().item()
            if smallest >= SLOT_SECONDS * 999:
                ts /= 1000.0  # milliseconds
                smallest /= 1000.0
            step = min(step, smallest)
        per_vm[path.stem] = samples
        timestamps.append((path.name, ts))
    if step == math.inf:
        step = SLOT_SECONDS
    if not float(step).is_integer():
        raise TraceError(
            f"smallest timestamp step {step} s is not a whole number of seconds")
    slot_seconds = int(step)
    for name, ts in timestamps:
        _check_aligned(name, ts, slot_seconds)
    del timestamps

    firsts = [s[:, 0].min().item() for s in per_vm.values()]
    lasts = [s[:, 0].max().item() for s in per_vm.values()]
    t0, t1 = min(firsts), max(lasts)
    if fill == "drop":
        t0, t1 = max(firsts), min(lasts)
        if t1 < t0:
            raise TraceError("no common slot window across VMs (fill=drop)")
    n_slots = int(round((t1 - t0) / slot_seconds)) + 1

    # each VM's row of the grid is filled from its own file's rows, which
    # are dropped as soon as it is: at most one copy of the parsed rows
    vm_ids = list(per_vm)
    n = len(vm_ids)
    cpu, ram, read, write, net = (np.empty((n, n_slots)) for _ in range(5))
    cores, ram_prov = np.empty(n, dtype=int), np.empty(n)
    grid = np.arange(n_slots)
    for i, vid in enumerate(vm_ids):
        s = per_vm.pop(vid)
        # the row each slot takes: its last row in file order, else that of
        # the latest filled slot before it.  In stable slot order, with rows
        # before a "drop" window on slot 0, that is the last of each run of
        # one slot.  A leading "ffill" gap takes the file's earliest row
        # (the first in file order), which also gives the cores
        earliest = np.argmin(s[:, 0]).item()
        slot = np.rint((s[:, 0] - t0) / slot_seconds)
        order = np.argsort(slot, kind="stable")
        slot = slot[order].clip(0)
        ends = np.flatnonzero(np.diff(slot, append=np.inf) != 0)
        ends = ends[slot[ends] < n_slots]
        last = np.full(n_slots, -1, dtype=np.intp)
        last[slot[ends].astype(np.intp)] = order[ends]
        latest = np.where(last >= 0, grid, 0)
        np.maximum.accumulate(latest, out=latest)
        row = last[latest]
        row[row < 0] = earliest
        cpu[i] = ((s[:, 4] / 100.0) * s[:, 2] / models.CPU_CAPACITY_MHZ)[row]
        ram[i] = (s[:, 6] / KB_PER_MB)[row]
        read[i] = s[row, 7]
        write[i] = s[row, 8]
        net[i] = ((s[:, 9] + s[:, 10]) / KB_PER_MB)[row]
        cores[i] = max(1, int(s.item(earliest, 1)))
        # Python's max keeps the first of equal values; np.max may pick -0.0
        ram_prov[i] = max((s[:, 5] / KB_PER_MB).tolist())
    return Workload(vm_ids, cpu, ram, read, write, net, cores, ram_prov,
                    slot_seconds)


def save_traces(w: Workload, directory) -> None:
    """Re-export a workload as one delimited trace file per VM, each VM
    provisioned with its cores at the server's top frequency.

    Each column is computed on the VM's whole row and written from Python
    numbers (``str`` of a float is its ``repr``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    core_mhz = models.FREQS_GHZ[-1].item() * 1000.0
    header = ";".join(TRACE_COLUMNS)
    times = [str(t * w.slot_seconds) for t in range(w.slot_count)]
    for i, vid in enumerate(w.vm_ids):
        cores = w.cores[i].item()
        prov_mhz = cores * core_mhz
        usage_pct = 100.0 * w.cpu[i] * models.CPU_CAPACITY_MHZ / prov_mhz
        net = list(map(str, (w.net_bw[i] * KB_PER_MB / 2).tolist()))
        columns = (times, repeat(f"{cores};{prov_mhz}"),
                   map(str, (usage_pct / 100.0 * prov_mhz).tolist()),
                   map(str, usage_pct.tolist()),
                   repeat(str(w.ram_provisioned[i].item() * KB_PER_MB)),
                   map(str, (w.ram[i] * KB_PER_MB).tolist()),
                   map(str, w.disk_read[i].tolist()),
                   map(str, w.disk_write[i].tolist()), net, net)
        (directory / f"{vid}.csv").write_text(
            "\n".join([header, *map(";".join, zip(*columns))]) + "\n")


def synth_workload(vms: int, slots: int, variability: float, seed: int) -> Workload:
    """Deterministic synthetic workload with a target aggregate variability.

    Per-VM series follow an AR(1) around a random baseline with occasional
    multiplicative bursts and per-slot jitter (the ``SYNTH_*`` constants);
    the aggregate is then rescaled around its mean so the realized
    variability score matches the request (within the +-10 % contract; exact
    when no positivity clamping kicks in).  Slots last ``SLOT_SECONDS``.
    """
    if vms <= 0 or slots <= 0:
        raise ValueError("vms and slots must be positive")
    if variability < 0 or variability > 1000.0:
        raise ValueError(f"variability {variability} outside [0, 1000] %")
    rng = np.random.default_rng(seed)

    base = rng.uniform(0.4, 1.6, size=vms) * SYNTH_MEAN_DEMAND
    x = np.empty((vms, slots))
    x[:, 0] = base
    if variability == 0.0 or slots == 1:
        x[:] = base[:, None]
    else:
        noise = rng.normal(0.0, 1.0, size=(vms, slots))
        for t in range(1, slots):
            x[:, t] = base + SYNTH_AR_PHI * (x[:, t - 1] - base) \
                + SYNTH_AR_SIGMA * base * noise[:, t]
        # freeing each draw once used, and scaling x in place, bounds the peak
        del noise
        # occasional demand bursts: these drive per-VM dynamics (overload
        # detection) while mostly cancelling in the aggregate
        starts = rng.random(size=(vms, slots)) < SYNTH_BURST_PROB
        lengths = rng.geometric(0.25, size=(vms, slots))
        factors = rng.uniform(1.6, SYNTH_BURST_SCALE + 0.6, size=(vms, slots))
        mult = np.ones((vms, slots))
        for i, t in zip(*np.nonzero(starts)):
            mult[i, t:t + lengths[i, t]] = np.maximum(
                mult[i, t:t + lengths[i, t]], factors[i, t])
        del starts, lengths, factors
        x *= mult
        del mult
        # fast per-slot noise: drives adaptive-threshold dispersion the way
        # spiky production traces do; lognormal exponentiates with libm's
        # exp, which gives the same bits on every CPU
        x *= rng.lognormal(-0.5 * SYNTH_JITTER_SIGMA ** 2, SYNTH_JITTER_SIGMA,
                           size=(vms, slots))
        np.clip(x, 0.005, 0.98, out=x)

        agg = x.sum(axis=0)
        m0 = agg.mean()
        dev = agg - m0
        tv0 = np.abs(np.diff(agg)).sum()
        if tv0 > 0:
            gamma = (variability / 100.0) * m0 / tv0
            target = m0 + gamma * dev
            target = np.maximum(target, 0.02 * m0)
            x *= (target / agg)[None, :]
        np.clip(x, 0.001, 0.98, out=x)

    cores = np.clip(np.ceil(x.max(axis=1) * 4.0).astype(int), 1, 4)
    ram = np.repeat(rng.uniform(512.0, 2048.0, size=vms)[:, None], slots, axis=1)
    ram_prov = ram[:, 0] * 1.25
    read = np.repeat(rng.uniform(0.0, 1500.0, size=vms)[:, None], slots, axis=1)
    write = np.repeat(rng.uniform(0.0, 1200.0, size=vms)[:, None], slots, axis=1)
    net = np.repeat(rng.uniform(0.5, 8.0, size=vms)[:, None], slots, axis=1)

    vm_ids = [f"vm{i:04d}" for i in range(vms)]
    w = Workload(vm_ids, x, ram, read, write, net, cores, ram_prov)

    if variability > 0 and slots > 1:
        realized = variability_score(w)
        if not math.isclose(realized, variability, rel_tol=0.10, abs_tol=1e-9):
            raise ValueError(
                f"infeasible variability target {variability} % (realized {realized:.1f} %)")
    return w
