import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcsim import core, models
from dcsim.cooling import VarInletCooling
from dcsim.core import (_ARRAYS, CPU, CapacityError, DataCenterState,
                        VmState, apply_placement)
from oracles import DVFS_TABLE, ids_on


def make_state(n_hosts=3, vms=None):
    vms = vms or {}
    return DataCenterState.build(n_hosts, vms, setpoint=291.0)


def place_all(state, mapping):
    return apply_placement(state, mapping)


def test_empty_placement_is_identity():
    state = make_state(2, {"a": VmState(id="a", cpu_demand=0.4, ram_used=1024.0)})
    state.move({state.index["a"]: 0})
    res = apply_placement(state, {})
    assert res.power_on_events == 0
    assert res.moved == []
    assert ids_on(res.state, 0) == ["a"]
    assert res.state.u_cpu[0] == pytest.approx(state.u_cpu[0])


def test_move_to_cold_host_counts_power_on():
    vms = {
        "big": VmState(id="big", cpu_demand=0.65, ram_used=2048.0),
        "mv": VmState(id="mv", cpu_demand=0.30, ram_used=1024.0),
    }
    state = make_state(3, vms)
    state.move({state.index["big"]: 0})
    state.move({state.index["mv"]: 0})
    assert state.u_cpu[0] == pytest.approx(0.95)

    res = apply_placement(state, {state.index["mv"]: 2})
    assert res.power_on_events == 1
    assert res.state.u_cpu[0] == pytest.approx(0.65)
    assert res.state.on[2]
    assert res.state.u_cpu[2] == pytest.approx(0.30)


def test_ram_capacity_violation_names_host_and_resource():
    vms = {"fat": VmState(id="fat", cpu_demand=0.1, ram_used=models.RAM_CAPACITY + 1.0)}
    state = make_state(2, vms)
    with pytest.raises(CapacityError) as err:
        apply_placement(state, {state.index["fat"]: 1})
    assert err.value.host_id == 1
    assert err.value.resource == "ram"


def test_capacity_checked_only_on_receiving_hosts():
    half = models.RAM_CAPACITY / 2 + 1.0
    vms = {"a": VmState(id="a", cpu_demand=0.1, ram_used=half),
           "b": VmState(id="b", cpu_demand=0.1, ram_used=half),
           "c": VmState(id="c", cpu_demand=0.1, ram_used=64.0)}
    state = make_state(3, vms)
    state.move({state.index["a"]: 1})
    state.move({state.index["b"]: 1})
    state.move({state.index["c"]: 0})
    # host 1 is over its RAM but receives nothing: the move and the empty
    # placement both apply
    res = apply_placement(state, {state.index["c"]: 2})
    assert res.state.host.tolist() == [1, 1, 2]
    assert apply_placement(state, {}).moved == []
    with pytest.raises(CapacityError) as err:
        apply_placement(state, {state.index["c"]: 1})
    assert err.value.host_id == 1


def test_cpu_enforced_only_without_oversubscription():
    vms = {
        "a": VmState(id="a", cpu_demand=0.7, ram_used=10.0),
        "b": VmState(id="b", cpu_demand=0.7, ram_used=10.0),
    }
    state = make_state(2, vms)
    state.move({state.index["a"]: 0})
    # CPU is never a hard limit: a sum over 1.0 is allowed, u clamps
    res = apply_placement(state, {state.index["b"]: 0})
    assert res.state.sums[CPU, 0] == pytest.approx(1.4)
    assert res.state.u_cpu[0] == 1.0


def test_emptied_host_powers_off():
    vms = {"only": VmState(id="only", cpu_demand=0.2, ram_used=64.0)}
    state = make_state(2, vms)
    state.move({state.index["only"]: 0})
    res = apply_placement(state, {state.index["only"]: 1})
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
    state.move({state.index["a"]: 0})
    state.move({state.index["b"]: 0})
    placement = {state.index["a"]: 1, state.index["b"]: 2}
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
    placement = {i: host for i, (_, host) in enumerate(assignments)}
    res = apply_placement(state, placement)
    for h in range(5):
        expected = sum(d for i, (d, hid) in enumerate(assignments) if hid == h)
        assert res.state.sums[CPU, h] == pytest.approx(expected, abs=1e-12)
        assert res.state.u_cpu[h] == pytest.approx(min(1.0, expected), abs=1e-12)


def test_default_spec_invariants():
    assert models.FREQS_GHZ.tolist() == [1.73, 1.86, 2.13, 2.26, 2.39, 2.40]
    assert (models.VOLTS > 0).all()
    assert models.VOLTS.tolist() == [m.v_dd for m in DVFS_TABLE]
    assert VarInletCooling().t_cpu_max > models.T_INLET_MAX
    assert models.E_BOOT == pytest.approx(13.514e-3)
    assert models.CPU_CAPACITY_MHZ == 9600.0


def test_state_copy_is_equal_and_independent():
    # dyadic demands, which the state's grid keeps as they are
    vms = {"a": VmState(id="a", cpu_demand=0.375, ram_used=1024.0,
                        disk_read=3.0, disk_write=4.0, net_bw=2.0),
           "b": VmState(id="b", cpu_demand=0.25, ram_used=512.0)}
    state = make_state(3, vms)
    state.move({state.index["a"]: 0})
    state.move({state.index["b"]: 2})
    new = state.copy()
    assert set(vars(new)) == set(vars(state))
    for name, value in vars(state).items():
        if name in _ARRAYS:
            copied = getattr(new, name)
            assert copied.tolist() == value.tolist(), name
            assert copied.dtype == value.dtype, name
            assert not np.shares_memory(copied, value), name
        else:
            # the model parameters, setpoint, VM ids and id ranks are shared
            assert getattr(new, name) is value, name
    new.move({new.index["a"]: -1})
    new.set_demand(cpu=[0.9, 0.1], ram=[1.0, 2.0], bw=[0.0, 0.0],
                   disk_read=[0.0, 0.0], disk_write=[0.0, 0.0])
    assert ids_on(state, 0) == ["a"]
    assert state.host.tolist() == [0, 2]
    assert state.demand[CPU].tolist() == [0.375, 0.25]
    assert state.sums[CPU].tolist() == [0.375, 0.0, 0.25]


def test_positions_on_follows_every_move():
    # positions_on follows every move, and a state made with other hosts (as
    # a placer's view is) answers from its own
    rng = np.random.default_rng(2)
    ids = [f"v{i}" for i in range(12)]
    state = make_state(4, {v: VmState(id=v, cpu_demand=0.05) for v in ids})

    def scan(s, h):
        return [i for i, host in enumerate(s.host.tolist()) if host == h]

    for _ in range(40):
        i = int(rng.integers(len(ids)))
        if rng.random() < 0.2:
            state.move({i: -1})
        elif rng.random() < 0.2:
            state = apply_placement(state, {i: int(rng.integers(4))}).state
        else:
            state.move({i: int(rng.integers(4))})
        state.positions_on(0)
        for s in (state, state.copy(), state._with(host=np.roll(state.host, 1))):
            for h in range(4):
                assert s.positions_on(h) == scan(s, h)


def test_setpoint_change_recosts_and_same_setpoint_is_a_no_op(monkeypatch):
    state = make_state(2, {"a": VmState(id="a", cpu_demand=0.4, ram_used=1024.0)})
    state.move({state.index["a"]: 0})
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
    # must give the very floats that attaching the VMs one at a time gives
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
            attached.move({attached.index[vid]: h})
    # the same assignment, made before the demands are known
    updated = make_state(8, {vid: VmState(vid) for vid in ids})
    for vid, h in zip(ids, hosts):
        if h >= 0:
            updated.move({updated.index[vid]: h})
    updated.set_demand(**demands)
    for name in _ARRAYS:
        assert getattr(updated, name).tolist() == \
            getattr(attached, name).tolist(), name


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.lists(
           st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n),
           min_size=1, max_size=5)),
       st.randoms(use_true_random=False))
@example(rows=[[0.0, 0.0, 0.0], [-0.4, 0.0, 0.7]], rnd=random.Random(0))
@example(rows=[[], []], rnd=random.Random(0))
def test_on_grid_sums_are_exact_in_any_order(rows, rnd):
    # each row's step is 2^(e - 52) for the 2^e above its largest |value|
    # times its length; every output is within half a step of its input,
    # and every sum of a row's outputs, in any order and with terms taken
    # off again, is the exact sum
    out = core.on_grid(rows)
    assert out.shape == np.shape(rows)
    for row, grid in zip(rows, out.tolist()):
        bound = max(map(abs, row), default=0.0) * len(row)
        step = math.ldexp(1.0, math.frexp(bound)[1] - 52)
        for x, g in zip(row, grid):
            assert abs(g - x) <= step / 2
            assert (g / step).is_integer()
        exact = math.fsum(grid)
        for _ in range(3):
            rnd.shuffle(grid)
            assert models.left_sum(grid) == exact
        taken = rnd.sample(grid, rnd.randrange(len(grid) + 1))
        left = models.left_sum(grid)
        for g in taken:
            left -= g
        assert left == math.fsum(grid + [-g for g in taken])


def random_state(rng, n_hosts, n_vms):
    """A state with random demands and a random host (or none) per VM."""
    demands = random_demands(rng, n_vms)
    state = make_state(n_hosts, {f"v{i}": VmState(f"v{i}") for i in range(n_vms)})
    state.set_demand(**demands)
    state.move({i: int(h) for i, h in enumerate(rng.integers(-1, n_hosts, n_vms))})
    return state


@pytest.mark.parametrize("seed", range(20))
def test_move_equals_moving_one_vm_at_a_time(seed):
    # one call adds and takes the demands in the mapping's order and
    # re-costs once: the very floats of one call per VM
    rng = np.random.default_rng(seed)
    n_hosts, n_vms = 6, int(rng.integers(1, 40))
    state = random_state(rng, n_hosts, n_vms)
    positions = rng.permutation(n_vms)[:int(rng.integers(1, n_vms + 1))]
    placement = {int(i): int(h) for i, h in
                 zip(positions, rng.integers(-1, n_hosts, len(positions)))}
    together, apart = state.copy(), state.copy()
    moves = together.move(placement)
    one_by_one = [m for i, h in placement.items() for m in apart.move({i: h})]
    assert moves == one_by_one
    for name in _ARRAYS:
        assert getattr(together, name).tolist() == getattr(apart, name).tolist(), name


def test_move_skips_a_vm_already_on_its_target(monkeypatch):
    state = make_state(3, {v: VmState(id=v, cpu_demand=0.2) for v in ("a", "b")})
    state.move({0: 1, 1: 2})
    before = {name: getattr(state, name).tolist() for name in _ARRAYS}
    recosts = []
    monkeypatch.setattr(DataCenterState, "refresh",
                        lambda self, hosts: recosts.append(list(hosts)))
    assert state.move({0: 1}) == []
    assert recosts == []
    assert {name: getattr(state, name).tolist() for name in _ARRAYS} == before
    # only the VM that changes host moves, and only its hosts are re-costed
    assert state.move({0: 1, 1: -1}) == [(1, 2, -1)]
    assert recosts == [[2]]
    assert state.host.tolist() == [1, -1]


def test_one_move_recosts_once(monkeypatch):
    rng = np.random.default_rng(5)
    state = random_state(rng, 6, 30)
    recosts = []
    refresh = DataCenterState.refresh

    def counted(self, hosts):
        recosts.append(list(hosts))
        refresh(self, hosts)

    monkeypatch.setattr(DataCenterState, "refresh", counted)
    moves = state.move({i: (state.host.item(i) + 2) % 6 for i in range(30)})
    assert len(moves) == 30
    assert recosts == [sorted({h for _, s, t in moves for h in (s, t)} - {-1})]


def test_two_vms_on_one_cold_host_power_it_on_once():
    state = make_state(3, {v: VmState(id=v, cpu_demand=0.2) for v in ("a", "b")})
    res = apply_placement(state, {0: 1, 1: 1})
    assert res.power_on_events == 1
    assert res.moved == [(0, -1, 1), (1, -1, 1)]
    assert res.state.on.tolist() == [False, True, False]


def test_a_minus_one_target_is_no_host():
    # detaching a VM neither powers on the last host (off here) nor checks
    # its capacity (over its RAM here)
    fat = models.RAM_CAPACITY / 2 + 1.0
    vms = {"a": VmState(id="a", cpu_demand=0.2, ram_used=64.0),
           "b": VmState(id="b", cpu_demand=0.1, ram_used=fat),
           "c": VmState(id="c", cpu_demand=0.1, ram_used=fat)}
    state = make_state(3, vms)
    state.move({state.index["a"]: 0})
    res = apply_placement(state, {state.index["a"]: -1})
    assert res.power_on_events == 0
    assert res.moved == [(state.index["a"], 0, -1)]
    assert res.state.host.tolist() == [-1, -1, -1]
    state.move({state.index["b"]: 2, state.index["c"]: 2})
    assert state.sums[core.RAM, 2] > models.RAM_CAPACITY
    res = apply_placement(state, {state.index["a"]: -1})
    assert res.power_on_events == 0
    assert res.state.host.tolist() == [-1, 2, 2]


def test_ties_between_vms_go_by_id_in_string_order():
    # positions 0, 1, 2 hold "vm10", "vm9" and "vm2": id order is 0, 2, 1
    state = make_state(2, {v: VmState(id=v, cpu_demand=0.3) for v in ("vm10", "vm9", "vm2")})
    assert state.rank.tolist() == [0, 2, 1]
    assert state.copy().rank is state.rank
    assert state.by_decreasing_cpu([1, 2, 0]).tolist() == [0, 2, 1]
    state.set_demand(cpu=[0.1, 0.3, 0.2], ram=[0.0] * 3, bw=[0.0] * 3,
                     disk_read=[0.0] * 3, disk_write=[0.0] * 3)
    assert state.by_decreasing_cpu([0, 1, 2]).tolist() == [1, 2, 0]


def _id_reads(tree):
    """Lines of a module that read VM ids: ``.vm_ids``, ``.index[...]`` or
    ``VmState``, its imports aside."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Attribute) and node.attr in ("vm_ids", "VmState"))
                or (isinstance(node, ast.Name) and node.id == "VmState")
                or (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "index")):
            yield node.lineno


def test_slot_loop_passes_vm_positions_not_ids():
    # detection and the placers see VMs only as positions; the engine turns
    # ids into positions once, where run builds its state, and back only
    # for the annealer, which takes ids
    package = Path(core.__file__).parent
    reads = {name: list(_id_reads(ast.parse((package / name).read_text())))
             for name in ("detection.py", "policies.py", "engine.py")}
    engine = ast.parse((package / "engine.py").read_text())
    boundary = [node for node in ast.walk(engine)
                if (isinstance(node, ast.If) and ast.unparse(node.test) == "name == 'sa'")
                or (isinstance(node, ast.Assign)
                    and ast.unparse(node.value).startswith("DataCenterState.build("))]
    reads["engine.py"] = [line for line in reads["engine.py"]
                          if not any(b.lineno <= line <= b.end_lineno for b in boundary)]
    assert len(boundary) == 2
    assert reads == {"detection.py": [], "policies.py": [], "engine.py": []}


def test_the_resource_order_is_written_once():
    # the resources are one axis of the state's demand and sums, in the order
    # core assigns to CPU, RAM, BW, READ and WRITE: no module keeps an array
    # per resource under the old names, and none assigns the order again
    old = {"cpu_sum", "ram_sum", "bw_sum", "disk_read_sum", "disk_write_sum",
           "disk_r", "disk_w", "_DEMANDS"}
    names, orders = [], []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # names, attributes, arguments, keywords, imports and strings
            name = next((getattr(node, field) for field in ("id", "attr", "arg", "name")
                         if isinstance(getattr(node, field, None), str)),
                        node.value if isinstance(node, ast.Constant) else None)
            if name in old:
                names.append(f"{path.name}:{node.lineno}: {name}")
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id in ("CPU", "RAM", "BW", "READ", "WRITE")):
                orders.append((path.name, node.lineno))
    assert names == []
    # one statement of core's assigns all five
    assert len(orders) == 5 and len(set(orders)) == 1, orders
    assert orders[0][0] == "core.py"
    assert (core.CPU, core.RAM, core.BW, core.READ, core.WRITE) == tuple(range(5))


def test_a_host_is_on_exactly_while_it_holds_a_vm():
    # the state's VM count is the one record of a host's power state: no
    # module keeps the old readers of a separate on-mask, ``on`` is derived
    # from the count, and only build and move write the count (the placement
    # walk's _Fleet keeps its own rows of it)
    names, writers = [], set()
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = next((getattr(node, field) for field in ("id", "attr", "arg", "name")
                         if isinstance(getattr(node, field, None), str)),
                        node.value if isinstance(node, ast.Constant) else None)
            if name in ("busy", "vm_counts") or (
                    isinstance(node, ast.Attribute) and node.attr == "active"):
                names.append(f"{path.name}:{node.lineno}: {name}")
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    target = node.value if isinstance(node, ast.Subscript) else node
                    if (isinstance(getattr(node, "ctx", None), ast.Store)
                            and isinstance(target, ast.Attribute)
                            and target.attr == "count"):
                        writers.add((path.name, func.name))
    assert names == []
    assert writers == {("core.py", "build"), ("core.py", "move"),
                       ("policies.py", "__init__"), ("policies.py", "place")}
    assert isinstance(DataCenterState.on, property)
    state = make_state(3, {v: VmState(id=v, cpu_demand=0.1) for v in ("a", "b")})
    state.move({0: 1, 1: 1})
    assert state.count.tolist() == [0, 2, 0] and state.on.tolist() == [False, True, False]
    state.move({0: 2, 1: -1})
    assert state.count.tolist() == [0, 0, 1] and state.on.tolist() == [False, False, True]
    assert state.p_it[:2].tolist() == [0.0, 0.0] and state.p_it[2] > 0.0
