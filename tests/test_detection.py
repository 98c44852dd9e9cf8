import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dcsim
from dcsim import models
from dcsim.core import BW, CPU, RAM, DataCenterState, VmState
from dcsim.detection import (MadConfig, find_underloaded, overload_threshold,
                             select_vms_mmt)
from dcsim.policies import SoKind, so_place
import oracles

CFG = MadConfig()


def row_threshold(history, cfg=CFG):
    """The array threshold of one host whose ring was written with
    ``history`` since its last reset (at most a window of it)."""
    assert len(history) <= cfg.history_window
    row = np.zeros((1, cfg.history_window))
    row[0, :len(history)] = history
    return overload_threshold(row, np.array([len(history)]), cfg).item()


def test_threshold_constant_history_hits_ceiling():
    # zero dispersion: MAD = 0, threshold clamps at 1.0
    assert row_threshold([0.5] * 12) == 1.0


def test_threshold_hand_computed_mad():
    history = [0.2, 0.4, 0.6, 0.8, 1.0]
    assert oracles.mad(history) == pytest.approx(0.2)
    cfg = MadConfig(history_window=5)
    assert row_threshold(history, cfg) == pytest.approx(0.5)


def test_threshold_falls_back_on_short_history():
    assert row_threshold([0.1, 0.2, 0.3]) == CFG.fallback_threshold


def test_threshold_clamped_to_half():
    cfg = MadConfig(safety=10.0, history_window=5)
    assert row_threshold([0.0, 0.25, 0.5, 0.75, 1.0], cfg) == 0.5


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=12, max_size=12),
       st.floats(min_value=-0.2, max_value=0.2))
def test_threshold_depends_only_on_dispersion(history, shift):
    # MAD is location invariant, so shifting the series leaves it unchanged
    shifted = [u + shift for u in history]
    assert row_threshold(shifted) == pytest.approx(row_threshold(history),
                                                   abs=1e-12)


def test_threshold_rows_equal_the_scalar_reference():
    # rings in every rotation, short and full, with ties from rounding
    rng = np.random.default_rng(11)
    for window in (1, 2, 3, 5, 12, 13):
        for safety in (0.5, 2.5, 10.0):
            cfg = MadConfig(safety=safety, history_window=window)
            history = rng.random((300, window))
            history[::3] = history[::3].round(2)
            filled = rng.integers(0, 3 * window, 300)
            expected = []
            for ring, n in zip(history.tolist(), filled.tolist()):
                k = n % window
                oldest_first = ring[k:] + ring[:k] if n >= window else ring[:n]
                expected.append(oracles.overload_threshold(oldest_first, cfg))
            assert overload_threshold(history, filled, cfg).tolist() == expected


MA_RUN = """
import sys
from dcsim.engine import SimConfig, run
from dcsim.workload import synth_workload
w = synth_workload(vms=40, slots=16, variability=100.0, seed=1)
for policy in ("pabfd", "dynso"):
    run(w, SimConfig(hosts=20, policy=policy))
print("numpy.ma" in sys.modules)
"""


def test_a_run_does_not_import_numpy_ma():
    # np.median imports numpy.ma on its first call, which costs a run
    # about 2 MB of resident memory; the detection sorts instead
    src = str(Path(dcsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", MA_RUN], capture_output=True,
                         text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def mmt_state():
    vms = {
        "A": VmState(id="A", cpu_demand=0.10, ram_used=4096.0),
        "B": VmState(id="B", cpu_demand=0.02, ram_used=1024.0),
        "C": VmState(id="C", cpu_demand=0.06, ram_used=2048.0),
        "rest": VmState(id="rest", cpu_demand=0.77, ram_used=8192.0),
    }
    state = DataCenterState.build(2, vms)
    for vid in vms:
        state.move({state.index[vid]: 0})
    return state


def test_mmt_worked_selection():
    state = mmt_state()
    assert state.sums[CPU, 0] == pytest.approx(0.95)
    # smallest RAM first: B (0.95 -> 0.93), then C (0.93 -> 0.87 < 0.9)
    assert [state.vm_ids[i] for i in select_vms_mmt(0, 0.9, state)] == ["B", "C"]


def test_mmt_empty_below_threshold():
    state = mmt_state()
    assert select_vms_mmt(0, 0.96, state) == []


def test_mmt_single_vm_host():
    vms = {"solo": VmState(id="solo", cpu_demand=0.95, ram_used=512.0)}
    state = DataCenterState.build(1, vms)
    state.move({state.index["solo"]: 0})
    assert select_vms_mmt(0, 0.9, state) == [state.index["solo"]]


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=0.4),
                          st.floats(min_value=64.0, max_value=4096.0)),
                min_size=1, max_size=8))
@example([(0.25, 64.0), (0.39999999999999997, 64.0), (0.1, 64.0)])
@example([(0.25, 65.0), (0.221996324115682, 64.0), (0.25, 64.0)])
def test_mmt_projection_drops_below_threshold(vm_specs):
    vms = {f"v{i}": VmState(id=f"v{i}", cpu_demand=d, ram_used=r)
           for i, (d, r) in enumerate(vm_specs)}
    state = DataCenterState.build(1, vms)
    for vid in vms:
        state.move({state.index[vid]: 0})
    threshold = 0.5
    picked = [state.vm_ids[i] for i in select_vms_mmt(0, threshold, state)]
    remaining = sum(vm.cpu_demand for vid, vm in vms.items()
                    if vid not in picked)
    if state.sums[CPU, 0] >= threshold:
        assert remaining < threshold


def build_attached(n_hosts, placed):
    """A fleet with each ``(VmState, host)`` of ``placed`` attached in order."""
    state = DataCenterState.build(n_hosts, {vm.id: vm for vm, _ in placed},
                                  setpoint=291.0)
    for vm, host in placed:
        state.move({state.index[vm.id]: host})
    return state


def underload_state(utils, vms_per_host=2):
    return build_attached(len(utils), [
        (VmState(id=f"h{i}v{j}", cpu_demand=u / vms_per_host, ram_used=128.0), i)
        for i, u in enumerate(utils) for j in range(vms_per_host)])


def test_no_spare_capacity_means_no_underload():
    state = underload_state([0.85, 0.85, 0.85])
    assert find_underloaded(state, np.full(3, 0.9)) == []


def test_lightly_loaded_host_is_drainable():
    state = underload_state([0.05, 0.3, 0.3])
    assert 0 in find_underloaded(state, np.full(3, 0.9))


def test_empty_data_center():
    state = DataCenterState.build(0)
    assert find_underloaded(state, np.empty(0)) == []


def test_underloaded_sorted_ascending_and_respects_exclude():
    state = underload_state([0.3, 0.1, 0.2])
    thresholds = np.full(3, 0.95)
    found = find_underloaded(state, thresholds)
    utils = [state.u_cpu[i] for i in found]
    assert utils == sorted(utils)
    assert 1 not in find_underloaded(state, thresholds, exclude={1})


def test_mad_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in ({"safety": 0.0}, {"safety": -1.0}, {"safety": nan},
                {"safety": inf}, {"history_window": 0},
                {"fallback_threshold": nan}, {"fallback_threshold": 0.0},
                {"fallback_threshold": 0.49}, {"fallback_threshold": 1.01}):
        with pytest.raises(ValueError):
            MadConfig(**bad)
    MadConfig(fallback_threshold=0.5)
    MadConfig(fallback_threshold=1.0)


def random_underload_case(rng):
    """A small random fleet with thresholds, an exclude set and bounds."""
    n = rng.randint(1, 8)
    placed = []
    for i in range(n):
        for j in range(rng.choice([0, 0, 1, 2, 3])):
            placed.append((VmState(id=f"h{i}v{j}",
                                   cpu_demand=rng.uniform(0.01, 0.4),
                                   ram_used=rng.uniform(64.0, 6000.0)), i))
    state = build_attached(n, placed)
    thresholds = np.array([rng.uniform(0.5, 1.0) for _ in range(n)])
    exclude = {i for i in range(n) if rng.random() < 0.2}
    cut = rng.choice([None, rng.uniform(0.0, 1.0)])
    limit = rng.choice([None, 0, 1, 2, 3])
    return state, exclude, thresholds, cut, limit


def test_bounded_underload_search_equals_filter_then_truncate():
    rng = random.Random(20231)
    for _ in range(400):
        state, exclude, thresholds, cut, limit = random_underload_case(rng)
        fleet = state
        full = find_underloaded(fleet, thresholds, exclude)
        expected = [hid for hid in full
                    if cut is None or state.u_cpu[hid] < cut]
        if limit is not None:
            expected = expected[:limit]
        assert find_underloaded(fleet, thresholds, exclude, cut, limit) == expected


def scalar_underloaded(state, exclude, thresholds):
    """Unbounded underload search, one host and one VM at a time."""
    on = [h for h in range(len(state.on)) if state.on[h]]
    out = []
    for h in sorted((h for h in on if h not in exclude and state.positions_on(h)),
                    key=lambda h: (float(state.u_cpu[h]), h)):
        targets = [t for t in on if t != h and t not in exclude]
        load = {t: [float(state.sums[CPU, t]), float(state.sums[RAM, t]),
                    float(state.sums[BW, t])] for t in targets}
        fits = True
        for vm in sorted((oracles.vm_record(state, i) for i in state.positions_on(h)),
                         key=lambda vm: (-vm.cpu_demand, vm.id)):
            for t in targets:
                cpu, ram, bw = load[t]
                if (cpu + vm.cpu_demand < thresholds[t]
                        and ram + vm.ram_used <= models.RAM_CAPACITY
                        and bw + vm.net_bw <= models.BW_CAPACITY):
                    load[t] = [cpu + vm.cpu_demand, ram + vm.ram_used,
                               bw + vm.net_bw]
                    break
            else:
                fits = False
                break
        if fits:
            out.append(h)
    return out


def test_underload_search_matches_scalar_reference():
    rng = random.Random(4242)
    for _ in range(400):
        state, exclude, thresholds, _, _ = random_underload_case(rng)
        assert find_underloaded(state, thresholds, exclude) == \
            scalar_underloaded(state, exclude, thresholds)


def test_fit_test_breaks_demand_ties_by_vm_id():
    # "a" and "b" tie on demand.  Taking "a" first fills host 1 so that "b"
    # fits nowhere, while "b" first would succeed; the order must not come
    # from the iteration order of the host's VM set, nor from the VMs'
    # positions ("b" comes first there).
    cap = models.RAM_CAPACITY
    state = build_attached(3, [
        (VmState(id=vid, cpu_demand=0.1 if host == 0 else 0.3, ram_used=ram),
         host)
        for vid, ram, host in (("b", 2500.0, 0), ("a", 900.0, 0),
                               ("fill1", cap - 2600.0, 1),
                               ("fill2", cap - 1000.0, 2))])
    assert find_underloaded(state, np.full(3, 0.9)) == []


def test_fit_test_takes_ram_up_to_the_placers_limit():
    # moving "v" puts host 1's RAM sum exactly at its capacity, or one step
    # of the state's RAM grid past it (2^-37 MB for these two VMs, whose
    # demands stay as they are): the drain check must find host 0 drainable
    # exactly when a placer would move "v", which is in the first case only
    cap = models.RAM_CAPACITY
    for excess, fits in ((0.0, True), (2.0 ** -37, False)):
        state = build_attached(2, [
            (VmState(id="v", cpu_demand=0.1, ram_used=1000.0), 0),
            (VmState(id="fill", cpu_demand=0.5, ram_used=cap - 1000.0 + excess), 1)])
        assert state.demand[RAM].tolist() == [1000.0, cap - 1000.0 + excess]
        assert state.sums[RAM, 1] + 1000.0 == cap + excess
        # "fill" does not fit under host 0's threshold, so host 1 stays
        thresholds = np.array([0.55, 0.9])
        v = state.index["v"]
        plan = state.copy()
        plan.move({v: -1})
        placed = so_place(SoKind.SO1, [v], [1], plan, thresholds, {v: 0})
        assert placed.placement == ({v: 1} if fits else {})
        assert find_underloaded(state, thresholds) == ([0] if fits else [])
