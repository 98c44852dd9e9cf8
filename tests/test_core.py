import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcsim.cooling import VarInletCooling
from dcsim.core import (_ARRAYS, CapacityError, DataCenterState, VmState,
                        apply_placement, default_server_spec)


def make_state(n_hosts=3, vms=None):
    vms = vms or {}
    return DataCenterState.build(n_hosts, vms, setpoint=291.0)


def place_all(state, mapping):
    return apply_placement(state, mapping)


def test_empty_placement_is_identity():
    state = make_state(2, {"a": VmState(id="a", cpu_demand=0.4, ram_used=1024.0)})
    state.attach("a", 0)
    res = apply_placement(state, {})
    assert res.power_on_events == 0
    assert res.moved == []
    assert res.state.vms_on(0) == ["a"]
    assert res.state.u_cpu[0] == pytest.approx(state.u_cpu[0])


def test_move_to_cold_host_counts_power_on():
    vms = {
        "big": VmState(id="big", cpu_demand=0.65, ram_used=2048.0),
        "mv": VmState(id="mv", cpu_demand=0.30, ram_used=1024.0),
    }
    state = make_state(3, vms)
    state.attach("big", 0)
    state.attach("mv", 0)
    assert state.u_cpu[0] == pytest.approx(0.95)

    res = apply_placement(state, {"mv": 2})
    assert res.power_on_events == 1
    assert res.state.u_cpu[0] == pytest.approx(0.65)
    assert res.state.on[2]
    assert res.state.u_cpu[2] == pytest.approx(0.30)


def test_ram_capacity_violation_names_host_and_resource():
    spec = default_server_spec()
    vms = {"fat": VmState(id="fat", cpu_demand=0.1, ram_used=spec.ram_capacity + 1.0)}
    state = make_state(2, vms)
    with pytest.raises(CapacityError) as err:
        apply_placement(state, {"fat": 1})
    assert err.value.host_id == 1
    assert err.value.resource == "ram"


def test_capacity_checked_only_on_receiving_hosts():
    spec = default_server_spec()
    half = spec.ram_capacity / 2 + 1.0
    vms = {"a": VmState(id="a", cpu_demand=0.1, ram_used=half),
           "b": VmState(id="b", cpu_demand=0.1, ram_used=half),
           "c": VmState(id="c", cpu_demand=0.1, ram_used=64.0)}
    state = make_state(3, vms)
    state.attach("a", 1)
    state.attach("b", 1)
    state.attach("c", 0)
    # host 1 is over its RAM but receives nothing: the move and the empty
    # placement both apply
    res = apply_placement(state, {"c": 2})
    assert res.state.host.tolist() == [1, 1, 2]
    assert apply_placement(state, {}).moved == []
    with pytest.raises(CapacityError) as err:
        apply_placement(state, {"c": 1})
    assert err.value.host_id == 1


def test_cpu_enforced_only_without_oversubscription():
    vms = {
        "a": VmState(id="a", cpu_demand=0.7, ram_used=10.0),
        "b": VmState(id="b", cpu_demand=0.7, ram_used=10.0),
    }
    state = make_state(2, vms)
    state.attach("a", 0)
    # oversubscription on (default): CPU sum over 1.0 is allowed, u clamps
    res = apply_placement(state, {"b": 0})
    assert res.state.cpu_sum[0] == pytest.approx(1.4)
    assert res.state.u_cpu[0] == 1.0
    with pytest.raises(CapacityError):
        apply_placement(state, {"b": 0}, enforce_cpu=True)


def test_emptied_host_powers_off():
    vms = {"only": VmState(id="only", cpu_demand=0.2, ram_used=64.0)}
    state = make_state(2, vms)
    state.attach("only", 0)
    res = apply_placement(state, {"only": 1})
    assert not res.state.on[0]
    assert res.state.u_cpu[0] == 0.0
    assert res.state.p_it[0] == 0.0
    assert res.state.on[1]


def test_apply_placement_idempotent():
    vms = {
        "a": VmState(id="a", cpu_demand=0.3, ram_used=512.0),
        "b": VmState(id="b", cpu_demand=0.2, ram_used=256.0),
    }
    state = make_state(3, vms)
    state.attach("a", 0)
    state.attach("b", 0)
    placement = {"a": 1, "b": 2}
    once = apply_placement(state, placement)
    twice = apply_placement(once.state, placement)
    assert twice.power_on_events == 0
    assert twice.moved == []
    for name in _ARRAYS:
        assert getattr(once.state, name).tolist() == \
            getattr(twice.state, name).tolist(), name


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.5),
                          st.integers(min_value=0, max_value=4)),
                min_size=1, max_size=12))
def test_host_utilization_is_clamped_demand_sum(assignments):
    vms = {}
    for i, (demand, host) in enumerate(assignments):
        vms[f"v{i}"] = VmState(id=f"v{i}", cpu_demand=demand, ram_used=1.0)
    state = make_state(5, vms)
    placement = {f"v{i}": host for i, (_, host) in enumerate(assignments)}
    res = apply_placement(state, placement)
    for h in range(5):
        expected = sum(d for i, (d, hid) in enumerate(assignments) if hid == h)
        assert res.state.cpu_sum[h] == pytest.approx(expected, abs=1e-12)
        assert res.state.u_cpu[h] == pytest.approx(min(1.0, expected), abs=1e-12)


def test_default_spec_invariants():
    spec = default_server_spec()
    freqs = [m.f_op for m in spec.dvfs_table]
    assert freqs == [1.73, 1.86, 2.13, 2.26, 2.39, 2.40]
    assert all(m.v_dd > 0 for m in spec.dvfs_table)
    assert VarInletCooling().t_cpu_max > spec.t_inlet_max
    assert spec.e_boot == pytest.approx(13.514e-3)


def test_state_copy_is_equal_and_independent():
    vms = {"a": VmState(id="a", cpu_demand=0.4, ram_used=1024.0,
                        disk_read=3.0, disk_write=4.0, net_bw=2.0),
           "b": VmState(id="b", cpu_demand=0.2, ram_used=512.0)}
    state = make_state(3, vms)
    state.attach("a", 0)
    state.attach("b", 2)
    new = state.copy()
    assert set(vars(new)) == set(vars(state))
    for name, value in vars(state).items():
        if name in _ARRAYS:
            copied = getattr(new, name)
            assert copied.tolist() == value.tolist(), name
            assert copied.dtype == value.dtype, name
            assert not np.shares_memory(copied, value), name
        else:
            # the spec, model parameters, setpoint and VM ids are shared
            assert getattr(new, name) is value, name
    new.detach("a")
    new.set_demand(cpu=[0.9, 0.1], ram=[1.0, 2.0], bw=[0.0, 0.0],
                   disk_read=[0.0, 0.0], disk_write=[0.0, 0.0])
    assert state.vms_on(0) == ["a"]
    assert state.host.tolist() == [0, 2]
    assert state.cpu.tolist() == [0.4, 0.2]
    assert state.cpu_sum.tolist() == [0.4, 0.0, 0.2]


def test_vms_on_follows_every_move():
    # vms_on serves a grouping of the VMs by host that a move, or a state
    # made with other hosts (as a placer's view is), must not reuse
    rng = np.random.default_rng(2)
    ids = [f"v{i}" for i in range(12)]
    state = make_state(4, {v: VmState(id=v, cpu_demand=0.05) for v in ids})

    def scan(s, h):
        return [v for v, host in zip(s.vm_ids, s.host.tolist()) if host == h]

    for _ in range(40):
        vid = ids[rng.integers(len(ids))]
        if rng.random() < 0.2:
            state.detach(vid)
        elif rng.random() < 0.2:
            state = apply_placement(state, {vid: int(rng.integers(4))}).state
        else:
            state.attach(vid, int(rng.integers(4)))
        state.vms_on(0)
        for s in (state, state.copy(), state._with(host=np.roll(state.host, 1))):
            for h in range(4):
                assert s.vms_on(h) == scan(s, h)


def test_setpoint_change_recosts_and_same_setpoint_is_a_no_op(monkeypatch):
    state = make_state(2, {"a": VmState(id="a", cpu_demand=0.4, ram_used=1024.0)})
    state.attach("a", 0)
    p_it = state.p_it.copy()
    recosts = []
    refresh = DataCenterState.refresh

    def counted(self, hosts):
        recosts.append(list(hosts))
        refresh(self, hosts)

    monkeypatch.setattr(DataCenterState, "refresh", counted)
    state.set_setpoint(291.0)
    assert recosts == []
    assert state.p_it.tolist() == p_it.tolist()
    state.set_setpoint(297.0)
    assert recosts == [[0, 1]]
    assert state.p_it[0] > p_it[0]
    assert state.p_it[1] == 0.0


def random_demands(rng, n):
    return {name: rng.uniform(0.0, high, n).tolist()
            for name, high in (("cpu", 0.4), ("ram", 3000.0), ("bw", 5.0),
                               ("disk_read", 5e4), ("disk_write", 5e4))}


@pytest.mark.parametrize("seed", range(20))
def test_set_demand_equals_attaching_one_at_a_time(seed):
    # the engine's slot update sums each host's VMs with np.bincount; that
    # must give the very floats that attaching the VMs in VM order gives
    rng = np.random.default_rng(seed)
    n_vms = int(rng.integers(1, 60))
    hosts = rng.integers(-1, 8, n_vms).tolist()
    demands = random_demands(rng, n_vms)
    ids = [f"v{i}" for i in range(n_vms)]
    attached = make_state(8, {vid: VmState(
        vid, demands["cpu"][i], demands["ram"][i], demands["disk_read"][i],
        demands["disk_write"][i], demands["bw"][i]) for i, vid in enumerate(ids)})
    for vid, h in zip(ids, hosts):
        if h >= 0:
            attached.attach(vid, h)
    # the same assignment, made before the demands are known
    updated = make_state(8, {vid: VmState(vid) for vid in ids})
    for vid, h in zip(ids, hosts):
        if h >= 0:
            updated.attach(vid, h)
    updated.set_demand(**demands)
    for name in _ARRAYS:
        assert getattr(updated, name).tolist() == \
            getattr(attached, name).tolist(), name
