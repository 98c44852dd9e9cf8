import pytest
from hypothesis import given, strategies as st

from dcsim.cooling import (FixedCooling, VarInletCooling, cooling_setpoint,
                           max_inlet_for_host)
from dcsim.core import DataCenterState, VmState
from oracles import cpu_temperature


def state_with_utils(utils):
    vms = {f"v{i}": VmState(id=f"v{i}", cpu_demand=u, ram_used=100.0)
           for i, u in enumerate(utils)}
    state = DataCenterState.build(len(utils), vms, setpoint=297.0)
    for i in range(len(utils)):
        state.move({state.index[f"v{i}"]: i})
    return state


def test_max_inlet_values():
    assert max_inlet_for_host(1.0, 338.15) == pytest.approx(302.5712927756653)
    # unclamped would be 321.44 K; the 30 C fan bound wins
    assert max_inlet_for_host(0.0, 338.15) == pytest.approx(303.15)


def test_max_inlet_inverts_cpu_temperature():
    t = max_inlet_for_host(1.0, 338.15)
    assert cpu_temperature(t, 1.0) == pytest.approx(338.15, abs=1e-9)


def test_varinlet_takes_minimum_over_hosts():
    state = state_with_utils([1.0, 0.5])
    sp = cooling_setpoint(state, VarInletCooling())
    assert sp == pytest.approx(302.5712927756653)


def test_varinlet_single_host():
    state = state_with_utils([1.0])
    assert cooling_setpoint(state, VarInletCooling()) == pytest.approx(302.5712927756653)


def test_fixed_ignores_state():
    state = state_with_utils([1.0, 0.9])
    assert cooling_setpoint(state, FixedCooling(291.0)) == 291.0
    assert cooling_setpoint(state, FixedCooling(297.0)) == 297.0


def test_all_idle_gets_ceiling():
    state = DataCenterState.build(3, setpoint=291.0)
    strat = VarInletCooling()
    assert cooling_setpoint(state, strat) == strat.ceiling


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_setpoint_keeps_every_cpu_below_cap(utils):
    state = state_with_utils([min(u, 0.99) for u in utils])
    strat = VarInletCooling()
    sp = cooling_setpoint(state, strat)
    assert sp >= strat.floor
    for u in state.u_cpu[state.on].tolist():
        assert cpu_temperature(sp, u) <= strat.t_cpu_max + 1e-9


def test_setpoint_non_increasing_in_utilization():
    lo = cooling_setpoint(state_with_utils([0.4, 0.5]), VarInletCooling())
    hi = cooling_setpoint(state_with_utils([0.4, 0.9]), VarInletCooling())
    assert hi <= lo


def test_floor_and_ceiling_validation():
    with pytest.raises(ValueError):
        VarInletCooling(floor=300.0, ceiling=295.0)


@pytest.mark.parametrize("make", [lambda: FixedCooling(400.0),
                                  lambda: FixedCooling(283.1),
                                  lambda: VarInletCooling(ceiling=320.0),
                                  lambda: VarInletCooling(floor=280.0)],
                         ids=["fixed400", "fixed283.1", "ceiling320", "floor280"])
def test_a_setpoint_outside_the_cop_range_fails_when_built(make):
    # the COP curve is defined on [COP_T_MIN_K, COP_T_MAX_K]; a setpoint
    # outside it fails here, not in the first slot of a run
    with pytest.raises(ValueError, match="outside"):
        make()
