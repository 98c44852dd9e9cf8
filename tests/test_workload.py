import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dcsim
from dcsim import cli
from dcsim.report import workload_fingerprint
from dcsim.workload import (TRACE_COLUMNS, TraceError, Workload,
                            _parse_trace_file, load_traces, save_traces,
                            synth_workload, variability_score)
from oracles import load_traces_rowwise, save_traces_rowwise


def make_workload(cpu_rows, slot_seconds=300):
    cpu = np.array(cpu_rows, dtype=float)
    n, s = cpu.shape
    zeros = np.zeros_like(cpu)
    return Workload([f"v{i}" for i in range(n)], cpu, zeros.copy(),
                    zeros.copy(), zeros.copy(), zeros.copy(),
                    np.ones(n, dtype=int), np.full(n, 1024.0), slot_seconds)


def test_variability_constant_is_zero():
    w = make_workload([[0.2] * 6, [0.1] * 6])
    assert variability_score(w) == 0.0


def test_variability_hand_case():
    # aggregate 10, 20, 10, 20: TV = 30, mean = 15 -> 200 %
    w = make_workload([[10.0, 20.0, 10.0, 20.0]])
    assert variability_score(w) == pytest.approx(200.0)


def test_variability_scale_invariant():
    w1 = make_workload([[0.1, 0.3, 0.2, 0.4]])
    w2 = make_workload([[0.5, 1.5, 1.0, 2.0]])
    assert variability_score(w1) == pytest.approx(variability_score(w2))


def test_variability_needs_two_slots():
    with pytest.raises(TraceError):
        variability_score(make_workload([[0.5]]))


def test_load_traces_missing_dir(tmp_path):
    with pytest.raises(TraceError, match="no trace files"):
        load_traces(tmp_path)


def test_load_traces_normalization(tmp_path):
    # constant 50 % usage of 2400 MHz provisioned on a 4 x 2400 MHz host
    rows = ["\n".join(
        f"{t * 300};1;2400.0;1200.0;50.0;1048576.0;524288.0;100.0;50.0;10.0;10.0"
        for t in range(4))]
    (tmp_path / "vm1.csv").write_text(rows[0] + "\n")
    w = load_traces(tmp_path)
    assert w.vm_count == 1
    assert w.slot_count == 4
    assert np.allclose(w.cpu, 0.125)
    assert np.allclose(w.ram, 512.0)  # KB converted to MB


def test_load_traces_seven_days_gives_2016_slots(tmp_path):
    lines = [f"{t * 300};2;4800;0;25.0;2097152;1048576;0;0"
             for t in range(2016)]
    (tmp_path / "vm1.csv").write_text("\n".join(lines) + "\n")
    w = load_traces(tmp_path)
    assert w.slot_count == 2016


def test_load_traces_header_and_comma_delimiter(tmp_path):
    content = "ts,cores,prov,use,pct,memprov,memuse,dr,dw\n" \
              "0,1,2400,240,10.0,1024,512,5,5\n" \
              "300,1,2400,240,20.0,1024,512,5,5\n"
    (tmp_path / "vm.csv").write_text(content)
    w = load_traces(tmp_path)
    assert w.slot_count == 2
    assert w.cpu[0, 1] == pytest.approx(0.2 * 2400 / 9600)


def test_load_traces_misaligned_grid(tmp_path):
    # b.csv sets a 300 s grid, on which vm.csv's 450 s does not sit
    (tmp_path / "vm.csv").write_text("0;1;2400;0;10;1024;512;0;0\n"
                                     "450;1;2400;0;10;1024;512;0;0\n")
    (tmp_path / "b.csv").write_text("0;1;2400;0;10;1024;512;0;0\n"
                                    "300;1;2400;0;10;1024;512;0;0\n")
    with pytest.raises(TraceError, match="not aligned"):
        load_traces(tmp_path)


def test_load_traces_rejects_two_files_with_one_vm_id(tmp_path):
    # a VM's id is its file's stem: a.csv and a.txt would both be VM "a"
    (tmp_path / "a.csv").write_text("0;1;2400;0;10;1024;512;0;0\n")
    (tmp_path / "a.txt").write_text("0;1;2400;0;90;1024;512;0;0\n")
    (tmp_path / "b.csv").write_text("0;1;2400;0;50;1024;512;0;0\n")
    for load in (load_traces, load_traces_rowwise):
        with pytest.raises(TraceError, match=r"^a\.csv and a\.txt both hold VM 'a'$"):
            load(tmp_path)


def test_load_traces_forward_fill(tmp_path):
    # b.csv sets a 300 s grid, on which a.csv misses slot 1
    (tmp_path / "a.csv").write_text("0;1;2400;0;10;1024;512;1;1\n"
                                    "600;1;2400;0;30;1024;512;1;1\n")
    (tmp_path / "b.csv").write_text("0;1;2400;0;10;1024;512;1;1\n"
                                    "300;1;2400;0;10;1024;512;1;1\n")
    w = load_traces(tmp_path)
    assert w.slot_count == 3
    # slot 1 missing: repeats slot 0
    assert w.cpu[0, 1] == pytest.approx(w.cpu[0, 0])
    assert w.cpu[0, 2] == pytest.approx(0.3 * 2400 / 9600)


def test_synth_deterministic():
    a = synth_workload(vms=20, slots=60, variability=150.0, seed=42)
    b = synth_workload(vms=20, slots=60, variability=150.0, seed=42)
    assert np.array_equal(a.cpu, b.cpu)
    assert np.array_equal(a.ram, b.ram)


# numpy's AVX-512 exp differs from its AVX2 one in the last bit; with
# those targets switched off, numpy runs its AVX2 or baseline kernels
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SYNTH_FINGERPRINT = """
from dcsim.report import workload_fingerprint
from dcsim.workload import synth_workload
print(workload_fingerprint(synth_workload(vms=72, slots=12, variability=120.0,
                                          seed=4)))
"""


def test_synth_is_the_same_on_every_cpu():
    src = str(Path(dcsim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    outs = [subprocess.run(
        [sys.executable, "-c", SYNTH_FINGERPRINT], capture_output=True,
        text=True, check=True, timeout=120,
        env={**env, "PYTHONPATH": src, **extra}).stdout
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": NO_AVX512})]
    assert outs[0] == outs[1]


def test_workload_fingerprint_is_pinned():
    w = synth_workload(vms=72, slots=12, variability=120.0, seed=4)
    assert workload_fingerprint(w) == (
        "dc9cd7d281ab2e54eb09755ef57c93c31364cdb6d68c58dd7ae4f1cd792973de")


def test_synth_zero_variability_constant():
    w = synth_workload(vms=8, slots=40, variability=0.0, seed=1)
    assert np.allclose(np.diff(w.cpu, axis=1), 0.0)


def test_synth_realized_score_within_band():
    w = synth_workload(vms=50, slots=288, variability=280.0, seed=7)
    assert variability_score(w) == pytest.approx(280.0, rel=0.10)


def test_synth_rejects_extreme_target():
    with pytest.raises(ValueError):
        synth_workload(vms=10, slots=50, variability=1500.0, seed=0)


def test_synth_demand_respects_core_ratio():
    w = synth_workload(vms=30, slots=100, variability=200.0, seed=5)
    for i in range(w.vm_count):
        assert w.cpu[i].max() <= w.cores[i] / 4 + 1e-9


def test_roundtrip_save_load_fixed_point(tmp_path):
    w = synth_workload(vms=6, slots=24, variability=120.0, seed=9)
    save_traces(w, tmp_path)
    w2 = load_traces(tmp_path)
    assert w2.vm_ids == w.vm_ids
    # the percent column costs one rounding each way (x100 / /100): values
    # survive to the ulp and iterating converges to an exact fixed point
    assert np.allclose(w2.cpu, w.cpu, rtol=0, atol=1e-15)
    assert np.allclose(w2.ram, w.ram, rtol=0, atol=1e-9)
    prev = w2
    for i in range(3):
        save_traces(prev, tmp_path / f"trip{i}")
        cur = load_traces(tmp_path / f"trip{i}")
        if np.array_equal(cur.cpu, prev.cpu) and np.array_equal(cur.ram, prev.ram):
            break
        prev = cur
    else:
        pytest.fail("round trip never reached a fixed point")


def test_save_traces_writes_the_rowwise_bytes(tmp_path):
    # a seeded day, and the same day read back from its trace files, whose
    # values went through the percent column
    w = synth_workload(vms=120, slots=288, variability=280.0, seed=3)
    save_traces(w, tmp_path / "synth")
    for name, workload in (("synth", w), ("loaded", load_traces(tmp_path / "synth"))):
        save_traces(workload, tmp_path / name / "new")
        save_traces_rowwise(workload, tmp_path / name / "rowwise")
        for vid in workload.vm_ids:
            assert (tmp_path / name / "new" / f"{vid}.csv").read_bytes() == \
                (tmp_path / name / "rowwise" / f"{vid}.csv").read_bytes(), vid


def test_load_traces_rejects_unknown_fill(tmp_path):
    (tmp_path / "a.csv").write_text("0;1;2400;0;10;1024;512;1;1\n")
    with pytest.raises(ValueError, match="unknown fill 'bogus'"):
        load_traces(tmp_path, fill="bogus")


def _rows(*timestamps):
    return "".join(f"{t};1;2400;0;10;1024;512;1;1\n" for t in timestamps)


def test_load_traces_takes_the_grid_from_the_timestamps(tmp_path):
    w = synth_workload(vms=6, slots=48, variability=150.0, seed=2)
    save_traces(w, tmp_path / "t300")
    save_traces(replace(w, slot_seconds=600), tmp_path / "t600")
    short = load_traces(tmp_path / "t300")
    long = load_traces(tmp_path / "t600")
    assert (long.slot_seconds, long.slot_count) == (600, 48)
    assert workload_fingerprint(replace(long, slot_seconds=300)) == \
        workload_fingerprint(short)
    # the smallest step of any one file, in milliseconds too
    (tmp_path / "ms").mkdir()
    (tmp_path / "ms" / "a.csv").write_text(_rows(0, 1_200_000))
    (tmp_path / "ms" / "b.csv").write_text(_rows(0, 600_000, 1_800_000))
    w = load_traces(tmp_path / "ms")
    assert (w.slot_seconds, w.slot_count) == (600, 4)
    # no file with two timestamps: the default grid
    (tmp_path / "one").mkdir()
    (tmp_path / "one" / "a.csv").write_text(_rows(0, 0))
    (tmp_path / "one" / "b.csv").write_text(_rows(600))
    w = load_traces(tmp_path / "one")
    assert (w.slot_seconds, w.slot_count) == (300, 3)


def test_load_traces_has_one_grid_rule(tmp_path, monkeypatch):
    # the library and `dcsim run` read a 600 s directory on one grid
    monkeypatch.setenv("DCSIM_THREADS", "1")
    w = synth_workload(vms=6, slots=48, variability=150.0, seed=2)
    save_traces(replace(w, slot_seconds=600), tmp_path / "t600")
    loaded = load_traces(tmp_path / "t600")
    assert (loaded.slot_seconds, loaded.slot_count) == (600, 48)
    assert cli.main(["run", "--policy", "pabfd", "--cooling", "fixed291",
                     "--hosts", "3", "--traces", str(tmp_path / "t600"),
                     "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["workload_hash"] == workload_fingerprint(loaded)


@pytest.mark.parametrize("other_step", [300, None])
@pytest.mark.parametrize("order", ["day five second", "reversed"])
def test_load_traces_reads_a_week_in_any_row_order(tmp_path, order,
                                                   other_step):
    # a week on a 300 s grid, its rows out of order: the first two are
    # 345 600 s apart, or the first is the last slot, but the file's
    # smallest step is 300 s and its rows span the week; a second file
    # stepping 300 s, or none, leaves the grid as it is
    rows = {t * 300: f"{t * 300};2;4800;0;{t % 97};2097152;{t % 89};0;0\n"
            for t in range(2016)}
    week = list(rows)
    if order == "reversed":
        week.reverse()
    else:
        week.insert(1, week.pop(1152))
    for name, times in (("ordered", rows), ("shuffled", week)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.csv").write_text("".join(rows[t] for t in times))
        if other_step is not None:
            (tmp_path / name / "b.csv").write_text(_rows(0, other_step))
    w = load_traces(tmp_path / "shuffled")
    assert (w.slot_seconds, w.slot_count) == (300, 2016)
    assert workload_fingerprint(w) == \
        workload_fingerprint(load_traces(tmp_path / "ordered"))


@pytest.mark.parametrize("other_step", [300, None])
def test_load_traces_reads_milliseconds_past_a_repeated_slot(tmp_path,
                                                              other_step):
    # the first two rows share a timestamp; the smallest step between two
    # distinct ones is 300 000, so the file is in milliseconds, and it
    # shares the 300 s grid of a second file in seconds, if there is one
    (tmp_path / "a.csv").write_text(_rows(0, 0, 300_000, 600_000))
    if other_step is not None:
        (tmp_path / "b.csv").write_text(_rows(0, other_step))
    w = load_traces(tmp_path)
    assert (w.slot_seconds, w.slot_count) == (300, 3)


@pytest.mark.parametrize("timestamps, message", [
    ((0, 600, 1500), r"^a\.csv: timestamp 1500\.0 not aligned to the 600 s grid$"),
    ((0, 0.5, 1), r"^smallest timestamp step 0\.5 s is not a whole number"),
])
def test_load_traces_rejects_a_grid_the_timestamps_do_not_fit(tmp_path,
                                                              timestamps,
                                                              message):
    (tmp_path / "a.csv").write_text(_rows(*timestamps))
    (tmp_path / "b.csv").write_text(_rows(0, 1200))
    with pytest.raises(TraceError, match=message):
        load_traces(tmp_path)


@pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e999"])
def test_load_traces_rejects_non_finite_values(tmp_path, token):
    (tmp_path / "a.csv").write_text("ts;c;p;u;pct;mp;mu;dr;dw\n"
                                    "0;1;2400;0;10;1024;512;1;1\n"
                                    f"300;1;2400;0;{token};1024;512;1;1\n")
    with pytest.raises(TraceError, match=r"^a\.csv:3: non-finite value$"):
        load_traces(tmp_path)


def test_load_traces_row_rules(tmp_path):
    # header on line 1, blank lines, an empty field (reads 0), a 12th column
    # (ignored), out-of-order rows, a duplicate slot (the later row wins)
    # and a leading gap (repeats the file's earliest row, t = 300)
    (tmp_path / "a.csv").write_text(
        "ts;c;p;u;pct;mp;mu;dr;dw;rx;tx\r\n"
        "\n"
        "600; 1 ;2400;0;20;1024;512;;1;1;1;99\n"
        "   \n"
        "300;1;2400;0;10;1024;512;1;1\n"
        "600;1;2400;0;40;1024;512;1;1\n"
        "900;1;2400;0;30;1024;512;;1;1;1;99\n")
    (tmp_path / "b.csv").write_text("0;1;2400;0;10;1024;512;1;1\n"
                                    "900;1;2400;0;10;1024;512;1;1\n")
    w = load_traces(tmp_path)
    assert w.slot_count == 4
    assert w.cpu[0].tolist() == [0.025, 0.025, 0.1, 0.075]
    assert w.disk_read[0].tolist() == [1.0, 1.0, 1.0, 0.0]
    assert w.net_bw[0].tolist() == [0.0, 0.0, 0.0, 2 / 1024]


@pytest.mark.parametrize("order", ["file", "time"])
def test_load_traces_leading_gap_takes_the_earliest_row(tmp_path, order):
    # a slot before a file's earliest row, and the VM's cores, read that
    # row, wherever it stands in the file
    rows = ["600;2;2400;0;20;1024;512;1;1", "300;1;2400;0;10;1024;512;1;1",
            "900;1;2400;0;40;1024;512;1;1"]
    if order == "time":
        rows.sort(key=lambda row: int(row.split(";")[0]))
    (tmp_path / "a.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "b.csv").write_text("0;1;2400;0;10;1024;512;1;1\n"
                                    "900;1;2400;0;10;1024;512;1;1\n")
    w = load_traces(tmp_path)
    assert w.cpu[0].tolist() == [0.025, 0.025, 0.05, 0.1]
    assert w.cores.tolist() == [1, 1]


@pytest.mark.parametrize("order", ["file", "shuffled"])
def test_load_traces_drop_window_starts_from_the_latest_earlier_row(tmp_path,
                                                                    order):
    # the common window is 600-900 s; a.csv has no row at 600 s, so the
    # window's first slot takes its row at 300 s, as a forward fill would
    rows = ["0;1;2400;0;10;1024;512;1;1", "300;1;2400;0;20;1024;512;1;1",
            "900;1;2400;0;30;1024;512;1;1"]
    if order == "shuffled":
        rows = [rows[2], rows[1], rows[0]]
    (tmp_path / "a.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "b.csv").write_text("600;1;2400;0;50;1024;512;1;1\n"
                                    "900;1;2400;0;60;1024;512;1;1\n")
    w = load_traces(tmp_path, fill="drop")
    assert w.cpu[0].tolist() == [0.05, 0.075]
    assert w.cpu[1].tolist() == [0.125, 0.15]
    _assert_same_load(tmp_path, fill="drop")


# -- differential test against the row-by-row reference loader --------------

def _number(rng, value):
    """``value`` written one of the ways ``float`` reads it."""
    form = rng.randrange(5)
    if form == 0:
        text = repr(float(value))
    elif form == 1:
        text = f"{value:.3f}"
    elif form == 2:
        text = f"{value:e}"
    elif form == 3:
        text = f"{value:g}"
    else:
        text = str(int(value)) if float(value).is_integer() else repr(value)
    pad = rng.choice(["", "", "", " ", "  ", "\t"])
    return pad + text + rng.choice(["", "", " ", "\t"])


def _trace_file(rng, slot, base, error):
    """One random trace file's text.

    Covers a header or none, milliseconds, gaps, duplicate and out-of-order
    slots, blank and whitespace-only lines, spaces around fields, empty
    fields, signed zeros, 9-12 columns and CRLF line ends; ``error`` plants
    one defect.
    """
    delim = rng.choice(";,")
    n_rows = rng.randrange(0, 14)
    slots = sorted(rng.sample(range(n_rows + rng.randrange(0, 5)), n_rows))
    slots += rng.sample(slots, min(len(slots), rng.randrange(0, 3)))  # dups
    if rng.random() < 0.3:
        rng.shuffle(slots)
    ms = rng.random() < 0.2
    zero_mem = rng.random() < 0.1  # provisioned memory 0.0 and -0.0 only
    lines = []
    if rng.random() < 0.5:
        lines.append(delim.join(TRACE_COLUMNS))
    for k in slots:
        ts = base + k * slot
        if ms:
            ts *= 1000
        vals = [ts, rng.choice([1, 2, 4, 0, 2.7, -1]), rng.uniform(0, 5000),
                rng.uniform(0, 5000), rng.uniform(0, 100),
                rng.uniform(0, 1e7), rng.uniform(0, 1e7), rng.uniform(0, 2e3),
                rng.uniform(0, 2e3), rng.uniform(0, 1e4), rng.uniform(0, 1e4),
                rng.uniform(-5, 5)]
        if zero_mem:
            vals[5] = rng.choice([0.0, -0.0])
        fields = [_number(rng, v) for v in vals[:rng.randrange(9, 13)]]
        for j in range(1, len(fields)):
            if rng.random() < 0.05:
                fields[j] = rng.choice(["", " ", "\t", "0", "-0.0"])
        lines.append(rng.choice(["", " "]) + delim.join(fields))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
    if error == "token" and len(lines) > 1:
        at = rng.randrange(len(lines))
        lines[at] += delim + rng.choice(["abc", "1..2", "--1", "0x10"])
    elif error == "columns":
        lines.insert(rng.randrange(len(lines) + 1), delim.join("12345"))
    elif error == "misaligned" and slots:
        lines.append(delim.join(str(x) for x in (
            base + slots[-1] * slot + 0.4 * slot, 1, 1, 1, 1, 1, 1, 1, 1)))
    elif error == "late header":
        lines.insert(0, "")
        lines.insert(1, delim.join(TRACE_COLUMNS))
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice(["", end])


def _random_trace_dir(rng, directory):
    directory.mkdir()
    slot = rng.choice([300, 300, 300, 60, 1])
    error = rng.choice([None] * 6 + ["token", "columns", "misaligned",
                                     "late header"])
    names = ["a.csv", "b.csv", "c.txt", "d.CSV", "a.txt", "notes.md"]
    for name in rng.sample(names, rng.randrange(1, 5)):
        base = slot * rng.randrange(0, 6) + rng.choice([0] * 5 + [slot // 3])
        bad = error if rng.random() < 0.5 else None
        (directory / name).write_text(_trace_file(rng, slot, base, bad))


def _load_or_error(load, directory, **kwargs):
    try:
        return load(directory, **kwargs)
    except Exception as e:  # the loaders must fail alike
        return type(e), str(e)


def _assert_same_load(directory, **kwargs):
    got = _load_or_error(load_traces, directory, **kwargs)
    want = _load_or_error(load_traces_rowwise, directory, **kwargs)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.vm_ids == want.vm_ids
    assert got.slot_seconds == want.slot_seconds
    for name in ("cpu", "ram", "disk_read", "disk_write", "net_bw", "cores",
                 "ram_provisioned"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("chunk", range(4))
def test_load_traces_matches_rowwise_reference(tmp_path, chunk):
    for seed in range(chunk * 100, chunk * 100 + 100):
        rng = random.Random(seed)
        directory = tmp_path / f"d{seed}"
        _random_trace_dir(rng, directory)
        for fill in ("ffill", "drop"):
            _assert_same_load(directory, fill=fill)


def test_load_traces_matches_rowwise_reference_on_a_day(tmp_path):
    # 120 VMs x 288 slots, as in the benchmark's trace-driven day
    save_traces(synth_workload(vms=120, slots=288, variability=280.0, seed=3),
                tmp_path)
    for fill in ("ffill", "drop"):
        _assert_same_load(tmp_path, fill=fill)


def _ragged_day(rng, directory):
    """A day of trace files as ``save_traces`` writes them, made ragged:
    each file starts and ends on a slot of its own, loses some inner rows,
    repeats a few slots with other values and has its inner rows shuffled.
    Returns the first and the last slot of every file."""
    save_traces(synth_workload(vms=120, slots=288, variability=280.0, seed=3),
                directory)
    spans = []
    for path in sorted(directory.iterdir()):
        header, *rows = path.read_text().splitlines()
        lead, trail = rng.randrange(0, 40), rng.randrange(0, 40)
        rows = rows[lead:len(rows) - trail]
        inner = [r for r in rows[1:-1] if rng.random() > 0.1]
        for r in rng.sample(inner, 3):
            ts, *fields = r.split(";")
            inner.append(";".join([ts, *(repr(1.5 * float(f)) for f in fields)]))
        rng.shuffle(inner)
        path.write_text("\n".join([header, rows[0], *inner, rows[-1]]) + "\n")
        spans.append((lead, 287 - trail))
    return spans


def test_load_traces_matches_rowwise_reference_on_a_ragged_day(tmp_path):
    spans = _ragged_day(random.Random(8), tmp_path)
    firsts, lasts = zip(*spans)
    for fill, slots in (("ffill", max(lasts) - min(firsts) + 1),
                        ("drop", min(lasts) - max(firsts) + 1)):
        _assert_same_load(tmp_path, fill=fill)
        assert load_traces(tmp_path, fill=fill).slot_count == slots


# -- fields that float reads but numpy's reader may not ----------------------

_EXTREMES = ("5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
             "-0.0", "4.9406564584124654E-324", "1.7976931348623157e+308", "-0")
_DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")
_SPACES = ("\xa0", "\u2003", "\u3000", "\u202f", "\x1f")
_ODD = ("underscore", "digits", "padding", "trailing", "blank", "extreme")


def _odd_field(rng, text, kind):
    """``text`` rewritten the ``kind`` way, which ``float`` still reads."""
    if kind == "underscore":
        at = [i for i in range(1, len(text))
              if text[i - 1].isdigit() and text[i].isdigit()]
        if not at:
            return text
        i = rng.choice(at)
        return text[:i] + "_" + text[i:]
    if kind == "digits":
        return text.translate(str.maketrans("0123456789", rng.choice(_DIGITS)))
    return rng.choice(_SPACES) + text + rng.choice(("", *_SPACES))


def _odd_trace_file(rng, slot, base):
    """A trace file's text with one to three odd kinds planted in it:
    underscores, non-ASCII digits, Unicode space padding, a trailing
    delimiter, whitespace-only lines, extreme magnitudes; or none."""
    delim = rng.choice(";,")
    width = rng.choice([11, 11, 11, 9, 10, 12])
    kinds = rng.sample(_ODD, rng.randrange(0, 4))
    rows = []
    for k in sorted(rng.sample(range(12), rng.randrange(1, 9))):
        vals = [base + k * slot, rng.choice([1, 2, 4]), rng.uniform(0, 5000),
                rng.uniform(0, 5000), rng.uniform(0, 100),
                *(rng.uniform(0, 1e7) for _ in range(2)),
                *(rng.uniform(0, 2e3) for _ in range(2)),
                *(rng.uniform(0, 1e4) for _ in range(3))]
        fields = [repr(v) for v in vals[:width]]
        if "extreme" in kinds and rng.random() < 0.5:
            fields[rng.randrange(5, 9)] = rng.choice(_EXTREMES)
        for kind in ("underscore", "digits", "padding"):
            if kind in kinds and rng.random() < 0.4:
                j = rng.randrange(width)
                fields[j] = _odd_field(rng, fields[j], kind)
        line = delim.join(fields)
        if "trailing" in kinds and rng.random() < 0.5:
            line += delim
        rows.append(line)
    if "blank" in kinds:
        for _ in range(rng.randrange(1, 3)):
            rows.insert(rng.randrange(1, len(rows) + 1),
                        rng.choice([" ", "\t", "\xa0", " \u3000 "]))
    if rng.random() < 0.5:
        rows.insert(0, delim.join(TRACE_COLUMNS))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("chunk", range(2))
def test_load_traces_matches_rowwise_reference_on_odd_fields(tmp_path, chunk):
    for seed in range(chunk * 100, chunk * 100 + 100):
        rng = random.Random(seed)
        directory = tmp_path / f"d{seed}"
        directory.mkdir()
        slot = rng.choice([300, 60])
        for name in rng.sample(["a.csv", "b.csv", "c.txt"], rng.randrange(1, 4)):
            (directory / name).write_text(
                _odd_trace_file(rng, slot, slot * rng.randrange(0, 4)))
        for fill in ("ffill", "drop"):
            _assert_same_load(directory, fill=fill)


def _line_parser_calls(monkeypatch):
    """Patch the line parser to record the name of each file it reads."""
    names, parse = [], dcsim.workload._parse_trace_lines

    def record(lines, delim, name):
        names.append(name)
        return parse(lines, delim, name)
    monkeypatch.setattr(dcsim.workload, "_parse_trace_lines", record)
    return names


ROW = "0;1;2400;1200;50;1048576;524288;1;2;3;4"


@pytest.mark.parametrize("text", [
    "0;1;;1200;50;1048576;524288;1;2;3;4\n",             # empty field
    "0;1;2400;1_200;50;1048576;524288;1;2;3;4\n",        # underscore
    "0;1;2400;١٢٠٠;50;1048576;524288;1;2;3;4\n",         # non-ASCII digits
    f"{ROW};\n",                                         # trailing delimiter
    f"{ROW}\n  \n",                                      # whitespace-only line
    f"\n{';'.join(TRACE_COLUMNS)}\n{ROW}\n",             # late header
    f"{ROW}\n300;1;2400;1200;50;1048576;524288;1;2\n",   # ragged rows
    "0;1;2400;1200;50;1048576;524288;1\n",               # fewer than 9 columns
    "0;1;2400;1200;nan;1048576;524288;1;2;3;4\n",        # non-finite value
    "",                                                  # empty file
    ";".join(TRACE_COLUMNS) + "\n",                      # header only
    ";".join(TRACE_COLUMNS) + "\n\n \n",                 # header and blanks
])
def test_trace_files_numpy_rejects_reach_the_line_parser(tmp_path, monkeypatch,
                                                         text):
    calls = _line_parser_calls(monkeypatch)
    (tmp_path / "a.csv").write_text(text)
    try:
        _parse_trace_file(tmp_path / "a.csv")
    except TraceError:
        pass
    assert calls == ["a.csv"]


def test_well_formed_trace_files_skip_the_line_parser(tmp_path, monkeypatch):
    calls = _line_parser_calls(monkeypatch)
    save_traces(synth_workload(vms=12, slots=288, variability=280.0, seed=3),
                tmp_path)
    # headerless, padded with spaces, 9 and 12 columns
    (tmp_path / "extra.csv").write_text(
        "0 ;1;2400;1200;50;1048576;524288;1;2\n"
        " 300;1;2400;1200;50;1048576;524288;1;2\n")
    (tmp_path / "wide.csv").write_text(f"{ROW};5\n\n300{ROW[1:]};5\n")
    w = load_traces(tmp_path)
    assert calls == []
    assert w.vm_count == 14


@pytest.mark.parametrize("text", [
    "", "\n\n", ";".join(TRACE_COLUMNS) + "\n",
    ",".join(TRACE_COLUMNS) + "\r\n\r\n  \r\n"])
def test_trace_file_without_rows_fails_without_a_numpy_warning(tmp_path, text):
    (tmp_path / "a.csv").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceError, match=r"^a\.csv: no data rows$"):
            load_traces(tmp_path)


def test_load_traces_holds_about_one_copy_of_the_rows(tmp_path):
    # the traced peak of a day's load against its parsed rows plus the
    # Workload it returns: a concatenated second copy of every row, or
    # full-length per-column temporaries, would take it past 2x
    save_traces(synth_workload(vms=120, slots=288, variability=280.0, seed=3),
                tmp_path)
    rows = sum(_parse_trace_file(p).nbytes for p in tmp_path.iterdir())
    tracemalloc.start()
    try:
        w = load_traces(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(getattr(w, name).nbytes for name in (
        "cpu", "ram", "disk_read", "disk_write", "net_bw", "cores",
        "ram_provisioned"))
    assert peak <= 1.25 * (rows + out), peak / (rows + out)


def test_synth_workload_peaks_near_its_output():
    # the traced peak of a fleet-dynso-sized synthesis stays near the
    # Workload it returns: each full-size draw is freed once used, and x is
    # scaled in place
    synth_workload(vms=4, slots=4, variability=50.0, seed=0)  # lazy imports
    tracemalloc.start()
    try:
        w = synth_workload(vms=960, slots=40, variability=280.0 * 40 / 288,
                           seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(getattr(w, name).nbytes for name in (
        "cpu", "ram", "disk_read", "disk_write", "net_bw", "cores",
        "ram_provisioned"))
    assert peak <= 1.3 * out, peak / out
