import pytest
from hypothesis import given, settings, strategies as st

from dcsim.core import (CapacityError, DataCenterState, VmState,
                        apply_placement, default_server_spec)


def make_state(n_hosts=3, vms=None):
    vms = vms or {}
    return DataCenterState.build(n_hosts, vms, setpoint=291.0)


def place_all(state, mapping):
    return apply_placement(state, mapping)


def test_empty_placement_is_identity():
    state = make_state(2, {"a": VmState(id="a", cpu_demand=0.4, ram_used=1024.0)})
    state.attach(state.vms["a"], 0)
    res = apply_placement(state, {})
    assert res.power_on_events == 0
    assert res.moved == []
    assert res.state.hosts[0].vms == {"a"}
    assert res.state.hosts[0].u_cpu == pytest.approx(state.hosts[0].u_cpu)


def test_move_to_cold_host_counts_power_on():
    vms = {
        "big": VmState(id="big", cpu_demand=0.65, ram_used=2048.0),
        "mv": VmState(id="mv", cpu_demand=0.30, ram_used=1024.0),
    }
    state = make_state(3, vms)
    state.attach(vms["big"], 0)
    state.attach(vms["mv"], 0)
    assert state.hosts[0].u_cpu == pytest.approx(0.95)

    res = apply_placement(state, {"mv": 2})
    assert res.power_on_events == 1
    assert res.state.hosts[0].u_cpu == pytest.approx(0.65)
    assert res.state.hosts[2].powered_on
    assert res.state.hosts[2].u_cpu == pytest.approx(0.30)


def test_ram_capacity_violation_names_host_and_resource():
    spec = default_server_spec()
    vms = {"fat": VmState(id="fat", cpu_demand=0.1, ram_used=spec.ram_capacity + 1.0)}
    state = make_state(2, vms)
    with pytest.raises(CapacityError) as err:
        apply_placement(state, {"fat": 1})
    assert err.value.host_id == 1
    assert err.value.resource == "ram"


def test_cpu_enforced_only_without_oversubscription():
    vms = {
        "a": VmState(id="a", cpu_demand=0.7, ram_used=10.0),
        "b": VmState(id="b", cpu_demand=0.7, ram_used=10.0),
    }
    state = make_state(2, vms)
    state.attach(vms["a"], 0)
    # oversubscription on (default): CPU sum over 1.0 is allowed, u clamps
    res = apply_placement(state, {"b": 0})
    assert res.state.hosts[0].cpu_sum == pytest.approx(1.4)
    assert res.state.hosts[0].u_cpu == 1.0
    with pytest.raises(CapacityError):
        apply_placement(state, {"b": 0}, enforce_cpu=True)


def test_emptied_host_powers_off():
    vms = {"only": VmState(id="only", cpu_demand=0.2, ram_used=64.0)}
    state = make_state(2, vms)
    state.attach(vms["only"], 0)
    res = apply_placement(state, {"only": 1})
    assert not res.state.hosts[0].powered_on
    assert res.state.hosts[0].u_cpu == 0.0
    assert res.state.hosts[0].p_it == 0.0
    assert res.state.hosts[1].powered_on


def test_apply_placement_idempotent():
    vms = {
        "a": VmState(id="a", cpu_demand=0.3, ram_used=512.0),
        "b": VmState(id="b", cpu_demand=0.2, ram_used=256.0),
    }
    state = make_state(3, vms)
    state.attach(vms["a"], 0)
    state.attach(vms["b"], 0)
    placement = {"a": 1, "b": 2}
    once = apply_placement(state, placement)
    twice = apply_placement(once.state, placement)
    assert twice.power_on_events == 0
    assert twice.moved == []
    for h1, h2 in zip(once.state.hosts, twice.state.hosts):
        assert h1.vms == h2.vms
        assert h1.u_cpu == h2.u_cpu
        assert h1.powered_on == h2.powered_on


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
    for h in res.state.hosts:
        expected = sum(d for i, (d, hid) in enumerate(assignments) if hid == h.id)
        assert h.cpu_sum == pytest.approx(expected, abs=1e-12)
        assert h.u_cpu == pytest.approx(min(1.0, expected), abs=1e-12)


def test_default_spec_invariants():
    spec = default_server_spec()
    freqs = [m.f_op for m in spec.dvfs_table]
    assert freqs == [1.73, 1.86, 2.13, 2.26, 2.39, 2.40]
    assert all(m.v_dd > 0 for m in spec.dvfs_table)
    assert spec.t_cpu_max > spec.t_inlet_max
    assert spec.e_boot == pytest.approx(13.514e-3)


def test_state_copy_is_equal_and_independent():
    vms = {"a": VmState(id="a", cores=2, cpu_demand=0.4, ram_used=1024.0,
                        disk_read=3.0, disk_write=4.0, net_bw=2.0),
           "b": VmState(id="b", cpu_demand=0.2, ram_used=512.0)}
    state = make_state(3, vms)
    state.attach(state.vms["a"], 0)
    state.attach(state.vms["b"], 2)
    state.hosts[0].util_history.extend([0.3, 0.4])
    new = state.copy()
    assert new.hosts == state.hosts
    assert new.vms == state.vms
    assert (new.params, new.setpoint) == (state.params, state.setpoint)
    for old_h, new_h in zip(state.hosts, new.hosts):
        assert new_h is not old_h
        assert new_h.vms is not old_h.vms
        assert new_h.util_history is not old_h.util_history
    assert all(new.vms[vid] is not state.vms[vid] for vid in vms)
    new.detach(new.vms["a"])
    new.hosts[2].util_history.append(0.9)
    assert state.hosts[0].vms == {"a"}
    assert state.vms["a"].assigned_host == 0
    assert state.hosts[2].util_history == []
