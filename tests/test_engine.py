from collections import deque

import numpy as np
import pytest

from dcsim import engine, models, policies
from dcsim.cooling import FixedCooling, VarInletCooling
from dcsim.core import DataCenterState, VmState
from dcsim.detection import MadConfig
from dcsim.engine import MigrationEvent, SimConfig, migration_cost, run
from dcsim.report import slots_csv, summary_csv
from dcsim.workload import Workload, synth_workload
from oracles import (governor_frequency, ids_on, mem_temperature,
                     overload_threshold as scalar_threshold)


def constant_workload(demands, slots, rams=None, slot_seconds=300):
    n = len(demands)
    cpu = np.tile(np.array(demands, dtype=float)[:, None], (1, slots))
    ram = np.tile(np.array(rams or [512.0] * n)[:, None], (1, slots))
    zeros = np.zeros((n, slots))
    return Workload([f"v{i}" for i in range(n)], cpu, ram, zeros.copy(),
                    zeros.copy(), np.full((n, slots), 1.0),
                    np.ones(n, dtype=int) * 2, np.full(n, 2048.0), slot_seconds)


def test_zero_slot_workload():
    w = constant_workload([0.5], 0)
    r = run(w, SimConfig(hosts=2, policy="pabfd"))
    assert r.slots == []
    assert r.totals.e_it == 0.0
    assert r.totals.energy == 0.0


def test_steady_state_single_host():
    w = constant_workload([0.3, 0.2], slots=10)
    r = run(w, SimConfig(hosts=3, policy="so6"))
    # slot 0 places both VMs on one host; afterwards nothing moves
    assert r.totals.power_on_events == 1
    assert r.totals.migrations == 0
    for m in r.slots[1:]:
        assert m.power_on_events == 0
        assert m.migrations == 0
    assert r.slots[0].e_boot == pytest.approx(0.013514)


def test_steady_state_energy_matches_hand_integration():
    # independent re-integration: constant demand, one host, known model state
    w = constant_workload([0.4, 0.35], slots=6, rams=[1024.0, 2048.0])
    cfg = SimConfig(hosts=2, policy="so6", cooling=FixedCooling(291.0))
    r = run(w, cfg)
    u = 0.75
    mode = governor_frequency(u)
    u_mem = max(1.0, 100.0 * (1024.0 + 2048.0) / models.RAM_CAPACITY)
    t_mem = mem_temperature(291.0, u_mem)
    p_host = models.host_power_terms(mode.v_dd, mode.f_op, u, t_mem,
                                     models.FAN_SPEED)
    e_it_slot = p_host * 300.0 / 3.6e6
    for m in r.slots[1:]:
        assert m.e_it == pytest.approx(e_it_slot, rel=1e-9)
        assert m.e_cooling == pytest.approx(e_it_slot / models.cop(291.0), rel=1e-9)


def test_slot_length_comes_from_the_workload():
    # one host runs both VMs in every slot, so each 600 s slot charges that
    # host's IT power for 600 s: twice what the same slots charge at 300 s
    demands, rams = [0.4, 0.35], [1024.0, 2048.0]
    cfg = SimConfig(hosts=2, policy="so6", cooling=FixedCooling(291.0))
    r600 = run(constant_workload(demands, 6, rams, slot_seconds=600), cfg)
    r300 = run(constant_workload(demands, 6, rams), cfg)
    mode = governor_frequency(0.75)
    t_mem = mem_temperature(291.0, 100.0 * 3072.0 / models.RAM_CAPACITY)
    p_host = models.host_power_terms(mode.v_dd, mode.f_op, 0.75, t_mem,
                                     models.FAN_SPEED)
    assert r600.totals.migrations == 0
    for m600, m300 in zip(r600.slots, r300.slots, strict=True):
        assert m600.e_it == pytest.approx(p_host * 600.0 * models.KWH_PER_WS, rel=1e-12)
        assert m600.e_it == 2.0 * m300.e_it


def test_totals_equal_slot_sums():
    w = synth_workload(vms=20, slots=30, variability=150.0, seed=4)
    r = run(w, SimConfig(hosts=10, policy="so3"))
    assert r.totals.e_it == pytest.approx(sum(m.e_it for m in r.slots), rel=1e-9)
    assert r.totals.e_cooling == pytest.approx(
        sum(m.e_cooling for m in r.slots), rel=1e-9)
    assert r.totals.e_boot == pytest.approx(sum(m.e_boot for m in r.slots), rel=1e-9)
    assert r.totals.migrations == sum(m.migrations for m in r.slots)
    assert r.totals.power_on_events == sum(m.power_on_events for m in r.slots)


def test_cooling_identity_per_slot():
    w = synth_workload(vms=15, slots=20, variability=120.0, seed=8)
    for cooling in (FixedCooling(291.0), FixedCooling(297.0), VarInletCooling()):
        r = run(w, SimConfig(hosts=8, policy="pabfd", cooling=cooling))
        for m in r.slots:
            assert m.e_cooling * models.cop(m.setpoint) == pytest.approx(
                m.e_it, rel=1e-9)


def test_boot_energy_charged_exactly():
    w = synth_workload(vms=20, slots=25, variability=200.0, seed=5)
    r = run(w, SimConfig(hosts=10, policy="so2"))
    for m in r.slots:
        assert m.e_boot == pytest.approx(m.power_on_events * 0.013514, abs=1e-15)


def test_fixed_setpoint_pue_anchors():
    w = synth_workload(vms=15, slots=20, variability=120.0, seed=2)
    r291 = run(w, SimConfig(hosts=8, policy="pabfd", cooling=FixedCooling(291.0)))
    r297 = run(w, SimConfig(hosts=8, policy="pabfd", cooling=FixedCooling(297.0)))
    assert r291.pue == pytest.approx(1.3737, abs=1e-3)
    assert r297.pue == pytest.approx(1.2276, abs=1e-3)


def test_varinlet_setpoint_bounds_and_cap():
    w = synth_workload(vms=25, slots=25, variability=200.0, seed=6)
    strat = VarInletCooling()
    r = run(w, SimConfig(hosts=10, policy="so6", cooling=strat))
    for m in r.slots:
        assert strat.floor <= m.setpoint <= strat.ceiling


def test_determinism_byte_identical():
    w = synth_workload(vms=20, slots=25, variability=180.0, seed=11)
    cfg = SimConfig(hosts=10, policy="dynso", cooling=VarInletCooling())
    a = run(w, cfg)
    b = run(w, cfg)
    assert slots_csv(a) == slots_csv(b)
    assert summary_csv([("x", a)]) == summary_csv([("x", b)])


def test_unplaceable_vm_stays_unplaced_without_crash():
    # demand 0.95 can never pass the 0.9 fallback threshold
    w = constant_workload([0.95, 0.2], slots=5)
    r = run(w, SimConfig(hosts=2, policy="pabfd"))
    assert len(r.slots) == 5
    assert r.totals.e_it > 0


@pytest.mark.parametrize("policy", ["pabfd", "dynso", "sa"])
def test_vm_that_fits_nowhere_stays_on_its_source(policy):
    # slot 0 puts c on host 0 and a, b on host 1.  In slot 1 host 1 reaches
    # 1.05, MMT selects b (the least RAM), and b fits on neither host: not
    # on host 0 (0.85 + 0.45), and never back on its source.  It stays on
    # host 1, which is saturated with it and would not be without it.
    cpu = np.array([[0.5, 0.6], [0.3, 0.45], [0.85, 0.85]])
    ram = np.array([[2000.0, 2000.0], [500.0, 500.0], [1000.0, 1000.0]])
    zeros = np.zeros_like(cpu)
    w = Workload(["a", "b", "c"], cpu, ram, zeros.copy(), zeros.copy(),
                 zeros.copy(), np.ones(3, dtype=int), np.full(3, 4096.0))
    r = run(w, SimConfig(hosts=2, policy=policy))
    assert [m.migrations for m in r.slots] == [0, 0]
    assert [m.power_on_events for m in r.slots] == [2, 0]
    assert r.slots[1].sla_otf == 0.5


def test_migration_cost_no_events():
    state = DataCenterState.build(2, {"v": VmState(id="v", cpu_demand=0.5)})
    state.move({state.index["v"]: 0})
    assert migration_cost([], state, 300.0) == (0.0, 0.0)


def test_migration_cost_double_power_charge():
    vms = {"v": VmState(id="v", cpu_demand=0.5, ram_used=1024.0)}
    state = DataCenterState.build(2, vms)
    state.move({state.index["v"]: 1})
    ev = MigrationEvent(vm=state.index["v"], target=1, duration=60.0,
                        cpu_demand=0.5)
    energy, pdm = migration_cost([ev], state, 300.0)
    mode = state.mode[1]
    p_dyn = models.dynamic_power(models.VOLTS[mode], models.FREQS_GHZ[mode], 0.5)
    assert energy == pytest.approx(p_dyn * 60.0 / 3.6e6, rel=1e-12)
    # degradation: 10 % of demand over the migration vs requested this slot
    assert pdm == pytest.approx((0.1 * 0.5 * 60.0) / (0.5 * 300.0), rel=1e-12)


def test_migration_cost_zero_cpu_vm():
    vms = {"v": VmState(id="v", cpu_demand=0.0, ram_used=128.0)}
    state = DataCenterState.build(2, vms)
    state.move({state.index["v"]: 1})
    ev = MigrationEvent(vm=state.index["v"], target=1, duration=30.0,
                        cpu_demand=0.0)
    _, pdm = migration_cost([ev], state, 300.0)
    assert pdm == 0.0


def test_sla_components_multiply():
    w = synth_workload(vms=20, slots=30, variability=250.0, seed=9)
    r = run(w, SimConfig(hosts=8, policy="so6"))
    assert r.avg_sla >= 0.0


def test_bad_policy_rejected():
    with pytest.raises(ValueError):
        SimConfig(policy="nope")


def test_negative_max_drains_rejected():
    with pytest.raises(ValueError):
        SimConfig(max_drains_per_slot=-1)
    SimConfig(max_drains_per_slot=0)


def test_zero_max_drains_turns_the_drain_pass_off(monkeypatch):
    calls = []
    real = engine.find_underloaded

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "find_underloaded", counting)
    w = synth_workload(vms=72, slots=12, variability=120.0, seed=4)
    for policy in ("pabfd", "dynso"):
        run(w, SimConfig(hosts=30, policy=policy, max_drains_per_slot=0))
    assert calls == []
    # the same run with the default limit does drain
    run(w, SimConfig(hosts=30, policy="dynso"))
    assert calls


def test_zero_max_drains_counts_no_drains_in_dynso_evaluator():
    # host 0 is nearly idle and its VM fits on host 1: the default evaluator
    # credits its power as drainable, the disabled pass does not
    vms = {"light": VmState(id="light", cpu_demand=0.05, ram_used=256.0),
           "heavy": VmState(id="heavy", cpu_demand=0.5, ram_used=256.0)}
    state = DataCenterState.build(2, vms)
    state.move({state.index["light"]: 0})
    state.move({state.index["heavy"]: 1})
    thresholds = np.full(2, 0.9)
    full = (state.total_it_power()
            * (1.0 + 1.0 / models.cop(state.setpoint)))
    off = engine._drain_aware_evaluator(
        SimConfig(max_drains_per_slot=0), thresholds)(state)
    on = engine._drain_aware_evaluator(SimConfig(), thresholds)(state)
    assert off == full
    assert on < full


def test_demand_growth_on_an_untouched_host_does_not_abort_the_run():
    # a and b share host 1 and grow past its RAM together while c overloads
    # host 0: the slot's placement sends nothing to host 1, so it applies
    cpu = np.array([[0.1, 0.1], [0.1, 0.1], [0.85, 0.97]])
    ram = np.array([[1000.0, 9000.0], [1000.0, 9000.0], [1000.0, 1000.0]])
    zeros = np.zeros_like(cpu)
    w = Workload(["a", "b", "c"], cpu, ram, zeros.copy(), zeros.copy(),
                 np.full_like(cpu, 1.0), np.ones(3, dtype=int),
                 np.full(3, 9000.0))
    r = run(w, SimConfig(hosts=3, policy="pabfd"))
    assert len(r.slots) == 2
    assert r.slots[1].e_it > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("window", [1, 5, 12])
def test_thresholds_equal_one_deque_per_host_and_the_scalar_reference(
        monkeypatch, window, seed):
    # record which hosts are on and their utilization as detection sees them,
    # and the thresholds the engine used; then replay the slots through one
    # history deque per host, cleared while the host is off
    seen, used = [], []
    set_demand = DataCenterState.set_demand
    threshold = engine.overload_threshold

    def recording_set_demand(self, *args, **kwargs):
        set_demand(self, *args, **kwargs)
        seen.append((self.on.tolist(), self.u_cpu.tolist()))

    def recording_threshold(*args):
        out = threshold(*args)
        used.append(out.tolist())
        return out

    monkeypatch.setattr(DataCenterState, "set_demand", recording_set_demand)
    monkeypatch.setattr(engine, "overload_threshold", recording_threshold)
    mad = MadConfig(history_window=window)
    hosts = 10
    run(synth_workload(vms=20, slots=48, variability=280.0, seed=seed),
        SimConfig(hosts=hosts, mad=mad))
    assert len(seen) == len(used) == 48

    history = [deque(maxlen=window) for _ in range(hosts)]
    ever_on = [False] * hosts
    came_back = False
    for (on, u), thresholds in zip(seen, used):
        expected = []
        for h in range(hosts):
            if on[h]:
                came_back |= ever_on[h] and not history[h]
                ever_on[h] = True
                history[h].append(u[h])
                expected.append(scalar_threshold(history[h], mad))
            else:
                history[h].clear()
                expected.append(mad.fallback_threshold)
        assert thresholds == expected
    # some host went off and came back on, so the ring's reset ran
    assert came_back


def test_drain_pass_drains_only_hosts_whose_every_vm_was_placed(monkeypatch):
    # hosts 0 and 1 are the drain sources and host 2 the only target; the
    # stub placement finds a home for one of host 0's two VMs and for both
    # of host 1's
    vms = {vid: VmState(id=vid, cpu_demand=0.1, ram_used=256.0)
           for vid in ("a1", "a2", "b1", "b2", "c")}
    state = DataCenterState.build(3, vms)
    for vid, host in (("a1", 0), ("a2", 0), ("b1", 1), ("b2", 1), ("c", 2)):
        state.move({state.index[vid]: host})
    placed = []
    ix = state.index

    def stub_place(cfg, state, vms, host_ids, thresholds, source, slot, slot_seconds):
        placed.append((sorted(state.vm_ids[i] for i in vms), host_ids))
        return policies.PlacementResult(
            placement={ix["a1"]: 2, ix["b1"]: 2, ix["b2"]: 2}, unplaced=[ix["a2"]])

    monkeypatch.setattr(engine, "find_underloaded", lambda *a, **k: [0, 1])
    monkeypatch.setattr(engine, "_place", stub_place)
    det = engine.Detection(np.full(3, 0.9), [], [], {})
    new, record = engine._drain_pass(SimConfig(hosts=3), state, det, slot=0,
                                     slot_seconds=300)

    assert placed == [(["a1", "a2", "b1", "b2"], [2])]
    assert ids_on(new, 0) == ["a1", "a2"] and new.on[0]
    assert ids_on(new, 1) == [] and not new.on[1]
    assert ids_on(new, 2) == ["b1", "b2", "c"]
    # each VM's source is its host in the pass's input state
    assert [(new.vm_ids[ev.vm], state.host.item(ev.vm), ev.target)
            for ev in record.migrations] == [("b1", 1, 2), ("b2", 1, 2)]
    assert record.power_on_events == 0
    # the pass's input state is left as it was
    assert ids_on(state, 1) == ["b1", "b2"]


def test_drain_pass_hands_over_each_sources_vms_in_id_order(monkeypatch):
    # the placer's VM list is the annealer's chain order: per drain source,
    # in VM id order, not in the order of the VMs' positions
    vms = {vid: VmState(id=vid, cpu_demand=0.1, ram_used=256.0)
           for vid in ("b2", "a1", "b1", "a2", "c")}
    state = DataCenterState.build(3, vms)
    for vid, host in (("b2", 1), ("a1", 0), ("b1", 1), ("a2", 0), ("c", 2)):
        state.move({state.index[vid]: host})
    handed = []

    def stub_place(cfg, state, vms, host_ids, thresholds, source, slot, slot_seconds):
        handed.append([state.vm_ids[i] for i in vms])
        return policies.PlacementResult()

    monkeypatch.setattr(engine, "find_underloaded", lambda *a, **k: [1, 0])
    monkeypatch.setattr(engine, "_place", stub_place)
    det = engine.Detection(np.full(3, 0.9), [], [], {})
    engine._drain_pass(SimConfig(hosts=3), state, det, slot=0, slot_seconds=300)
    assert handed == [["b1", "b2", "a1", "a2"]]


def _workload_part(w, vms, slots):
    """The given VM positions of a workload, in that order, ids kept, over
    its first ``slots`` slots."""
    return Workload([w.vm_ids[i] for i in vms],
                    *(getattr(w, name)[vms, :slots] for name in
                      ("cpu", "ram", "disk_read", "disk_write", "net_bw")),
                    w.cores[vms], w.ram_provisioned[vms], w.slot_seconds)


def test_host_sums_do_not_depend_on_vm_order(monkeypatch):
    # after every placement the engine applies on the first slots of the
    # acceptance day, each host's sums equal a rebuild that adds its VMs'
    # demands in a shuffled order, bit for bit
    rng = np.random.default_rng(5)
    checked = []

    def apply_and_check(state, placement):
        result = engine_apply(state, placement)
        new = result.state
        sums = np.zeros_like(new.sums)
        for i in rng.permutation(len(new.host)).tolist():
            if new.host[i] >= 0:
                sums[:, new.host[i]] += new.demand[:, i]
        assert sums.tobytes() == new.sums.tobytes()
        checked.append(len(result.moved))
        return result

    engine_apply = engine.apply_placement
    monkeypatch.setattr(engine, "apply_placement", apply_and_check)
    day = synth_workload(vms=120, slots=288, variability=280.0, seed=1)
    w = _workload_part(day, np.arange(day.vm_count), 48)
    for policy in ("pabfd", "sosa", "dynso"):
        run(w, SimConfig(hosts=50, policy=policy))
    assert len(checked) > 100 and sum(checked) > 1000


@pytest.mark.parametrize("seed", [1, 2])
def test_vm_order_does_not_change_totals(seed):
    # the same VMs in a permuted order, ids kept: every tie between VMs goes
    # by id and every host sum is exact, so no total may move.  sa is left
    # out: its chain draws VMs by their place in the batch
    w = synth_workload(vms=60, slots=48, variability=280.0 * 48 / 288, seed=seed)
    permuted = _workload_part(w, np.random.default_rng(0).permutation(w.vm_count),
                              w.slot_count)
    for policy in engine.POLICY_NAMES:
        if policy == "sa":
            continue
        cfg = SimConfig(hosts=25, policy=policy)
        assert run(permuted, cfg).totals == run(w, cfg).totals, policy


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hosts_the_fleet_never_reaches_do_not_change_totals(seed):
    # 40 VMs never need 60 hosts, so 140 more change nothing, under either
    # cooling (swfdvp spreads VMs the most, and 60 hosts are enough for it)
    w = synth_workload(vms=40, slots=48, variability=280.0 * 48 / 288, seed=seed)
    for policy in ("pabfd", "so6", "sosa", "dynso", "mo2", "swfdvp"):
        for cooling in (FixedCooling(291.0), VarInletCooling()):
            small, large = (run(w, SimConfig(hosts=hosts, policy=policy,
                                             cooling=cooling)).totals
                            for hosts in (60, 200))
            assert small == large, (policy, cooling)
