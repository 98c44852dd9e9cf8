import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcsim import models
from dcsim.core import (_ARRAYS, BW, CPU, RAM, READ, WRITE, DataCenterState,
                        VmState, apply_placement)
from dcsim.engine import SimConfig, _drain_aware_evaluator
from dcsim.policies import (DEFAULT_DYNSO_LIST, SoKind, SoSaModel, _bfd,
                            _Fleet, _so_pick, dynso_place,
                            evaluate_global_power, mo_place, normalize_band,
                            pareto_front, so_place, so_sa_combine,
                            swfdvp_place)
from oracles import (CandidateView, GuardError, candidate_evaluations,
                     effective_it_power, evaluate_candidate, governor_frequency,
                     is_busy, mem_temperature, objective_vector, so_sa_value,
                     so_value, so_value_from_view, vm_record)

# Candidate hosts of the allocation case of use: C and D after placing the
# VM (B is excluded by the 0.9 rule and never reaches the value function).
VIEW_C = CandidateView(host_id=2, u_after=0.3, dfreq=0.0, p_before=160.0,
                       p_after=170.0, t_mem_after=273.15 + 38.0,
                       p_cooling_after=17.0)
VIEW_D = CandidateView(host_id=3, u_after=0.8, dfreq=0.4, p_before=180.0,
                       p_after=200.0, t_mem_after=273.15 + 55.0,
                       p_cooling_after=20.0)


def pick(kind):
    best = min((VIEW_C, VIEW_D), key=lambda v: (so_value_from_view(kind, v), v.host_id))
    return "C" if best is VIEW_C else "D"


def test_worked_example_picks():
    assert pick(SoKind.SO1) == "C"   # 10 W < 20 W
    assert pick(SoKind.SO2) == "C"   # 170 W < 200 W
    assert pick(SoKind.SO3) == "D"   # 1/(0.8-0.4) = 2.5 < 1/0.3
    assert pick(SoKind.SO4) == "C"   # 38 C < 55 C
    assert pick(SoKind.SO5) == "C"   # 0 < 0.4
    assert pick(SoKind.SO6) == "D"   # 1/0.8 < 1/0.3
    assert pick(SoKind.SO7) == "C"   # 187 W < 220 W


def test_worked_example_values():
    assert so_value_from_view(SoKind.SO3, VIEW_C) == pytest.approx(1 / 0.3)
    assert so_value_from_view(SoKind.SO3, VIEW_D) == pytest.approx(2.5)
    assert so_value_from_view(SoKind.SO7, VIEW_C) == pytest.approx(187.0)
    assert so_value_from_view(SoKind.SO7, VIEW_D) == pytest.approx(220.0)


def test_guards():
    bad3 = CandidateView(host_id=0, u_after=0.3, dfreq=0.4, p_before=0.0,
                         p_after=100.0, t_mem_after=300.0, p_cooling_after=10.0)
    with pytest.raises(GuardError):
        so_value_from_view(SoKind.SO3, bad3)
    bad6 = CandidateView(host_id=0, u_after=0.0, dfreq=0.0, p_before=0.0,
                         p_after=100.0, t_mem_after=300.0, p_cooling_after=10.0)
    with pytest.raises(GuardError):
        so_value_from_view(SoKind.SO6, bad6)


def make_state(n_hosts, vm_specs, setpoint=291.0):
    """vm_specs: id -> (demand, ram, host or None); unattached VMs stay free."""
    vms = {vid: VmState(id=vid, cpu_demand=d, ram_used=r, net_bw=1.0)
           for vid, (d, r, _) in vm_specs.items()}
    state = DataCenterState.build(n_hosts, vms, setpoint=setpoint)
    for vid, (_, _, host) in vm_specs.items():
        if host is not None:
            state.move({state.index[vid]: host})
    return state


def with_ids(state, by_position):
    """A placer's map keyed by VM position, keyed by VM id instead."""
    return {state.vm_ids[i]: value for i, value in by_position.items()}


def test_overloaded_candidate_excluded_for_every_kind():
    # host 1 would land at 1.0 (>= 0.9) after allocation; host 2 stays cool
    state = make_state(3, {
        "bg1": (0.70, 2048.0, 1),
        "bg2": (0.10, 1024.0, 2),
        "mv": (0.30, 512.0, None),
    })
    mv = state.index["mv"]
    kinds = list(SoKind)
    kinds.remove(SoKind.SWFDVP)
    for kind in kinds:
        res = so_place(kind, [mv], [1, 2], state)
        assert res.placement[mv] == 2, kind
    res = swfdvp_place([mv], [1, 2], state)
    assert res.placement[mv] == 2
    res = mo_place("mo1", [mv], [1, 2], state)
    assert res.placement[mv] == 2
    res = mo_place("mo2", [mv], [1, 2], state)
    assert res.placement[mv] == 2


def test_single_feasible_host_trivial():
    state = make_state(1, {"v": (0.4, 256.0, None)})
    v = state.index["v"]
    res = so_place(SoKind.SO1, [v], [0], state)
    assert res.placement == {v: 0}
    assert res.unplaced == []


def test_unplaceable_vm_reported():
    state = make_state(2, {"v": (0.95, 256.0, None)})
    v = state.index["v"]
    res = so_place(SoKind.SO6, [v], [0, 1], state)
    assert res.placement == {}
    assert res.unplaced == [v]


def greedy_oracle(kind, vm_ids, host_ids, state, thr=0.9):
    """Independent sequential-greedy reference for the plain SO kinds."""
    scratch = state.copy()
    placement = {}
    order = sorted((vm_record(scratch, scratch.index[v]) for v in vm_ids),
                   key=lambda x: (-x.cpu_demand, x.id))
    for vm in order:
        best_val, best_host = None, None
        for hid in sorted(host_ids):
            if not fits(scratch, vm, hid, thr):
                continue
            try:
                val = so_value(kind, vm, hid, scratch)
            except GuardError:
                continue
            if best_val is None or val < best_val:
                best_val, best_host = val, hid
        if best_host is not None:
            placement[vm.id] = best_host
            scratch.move({scratch.index[vm.id]: best_host})
    return placement


def fits(state, vm, hid, thr):
    """The placers' feasibility rule for one VM on one host."""
    return (state.sums[CPU, hid] + vm.cpu_demand < thr
            and state.sums[RAM, hid] + vm.ram_used <= models.RAM_CAPACITY
            and state.sums[BW, hid] + vm.net_bw <= models.BW_CAPACITY)


def toy_instance(seed):
    rng = np.random.default_rng(seed)
    vm_specs = {}
    for i in range(5):
        vm_specs[f"v{i}"] = (float(rng.uniform(0.05, 0.45)),
                             float(rng.uniform(128, 4096)), None)
    # background load so hosts differ
    vm_specs["bg0"] = (float(rng.uniform(0.1, 0.5)), 2048.0, 0)
    vm_specs["bg1"] = (float(rng.uniform(0.1, 0.5)), 1024.0, 1)
    return make_state(3, vm_specs)


@pytest.mark.parametrize("kind", [SoKind.SO1, SoKind.SO2, SoKind.SO3,
                                  SoKind.SO4, SoKind.SO5, SoKind.SO6,
                                  SoKind.SO7])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_so_place_matches_greedy_oracle(kind, seed):
    state = toy_instance(seed)
    vm_ids = [f"v{i}" for i in range(5)]
    res = so_place(kind, [state.index[v] for v in vm_ids], [0, 1, 2], state)
    oracle = greedy_oracle(kind, vm_ids, [0, 1, 2], state)
    assert with_ids(state, res.placement) == oracle


def test_placements_respect_capacity_for_all_policies():
    state = toy_instance(11)
    vm_ids = [state.index[f"v{i}"] for i in range(5)]
    results = []
    for kind in (SoKind.SO1, SoKind.SO3, SoKind.SO6, SoKind.SO8, SoKind.SO_SA):
        results.append(so_place(kind, vm_ids, [0, 1, 2], state).placement)
    results.append(mo_place("mo1", vm_ids, [0, 1, 2], state).placement)
    results.append(mo_place("mo2", vm_ids, [0, 1, 2], state).placement)
    results.append(swfdvp_place(vm_ids, [0, 1, 2], state).placement)
    for placement in results:
        placed = apply_placement(state, placement).state
        assert (placed.sums[RAM] <= models.RAM_CAPACITY).all()
        assert (placed.sums[BW] <= models.BW_CAPACITY).all()
        assert (placed.sums[CPU] < 0.9 + 1e-9).all()


def test_so_sa_combine_unit_case():
    assert so_sa_combine(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.9429)


def test_so_sa_single_candidate_degenerates():
    state = make_state(2, {"bg": (0.3, 1024.0, 0), "v": (0.2, 256.0, None)})
    m = SoSaModel()
    vm = vm_record(state, state.index["v"])
    val = so_sa_value(vm, 0, state, m)
    view = evaluate_candidate(vm, 0, state)
    cool = models.cop(state.setpoint)
    energy = ((state.total_it_power() - view.p_before + view.p_after)
              * (1 + 1 / cool)) * 300.0 / 3.6e6
    assert val == pytest.approx(1.5 * (m.a3 + m.a6) * energy + m.c, rel=1e-12)


def test_so_sa_prefers_cheaper_energy_at_equal_so_values():
    # identical CPU load on both hosts keeps SO3/SO6 tied; host 1's small
    # memory base makes the VM's memory-temperature bump (and so the power
    # increment) larger, so its predicted global energy is strictly higher
    vms = {
        "bg0": VmState(id="bg0", cpu_demand=0.3, ram_used=4096.0),
        "bg1": VmState(id="bg1", cpu_demand=0.3, ram_used=512.0),
        "v": VmState(id="v", cpu_demand=0.2, ram_used=256.0),
    }
    state = DataCenterState.build(2, vms)
    state.move({state.index["bg0"]: 0})
    state.move({state.index["bg1"]: 1})
    v = state.index["v"]
    res = so_place(SoKind.SO_SA, [v], [0, 1], state)
    assert res.placement[v] == 0
    v0 = so_sa_value(vm_record(state, v), 0, state, candidates=[0, 1])
    v1 = so_sa_value(vm_record(state, v), 1, state, candidates=[0, 1])
    assert v0 < v1


def brute_force_front(vectors):
    out = []
    for i, a in enumerate(vectors):
        dominated = False
        for j, b in enumerate(vectors):
            if i == j:
                continue
            if all(x <= y for x, y in zip(b, a)) and any(x < y for x, y in zip(b, a)):
                dominated = True
                break
        if not dominated:
            out.append(i)
    return out


def test_pareto_trivial_cases():
    assert pareto_front([(1.0, 2.0)]) == [0]
    assert pareto_front([(1.0, 2.0), (2.0, 1.0)]) == [0, 1]
    assert pareto_front([(1.0, 1.0), (2.0, 2.0)]) == [0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.floats(min_value=0, max_value=10) for _ in range(7)]),
                min_size=1, max_size=40))
def test_pareto_matches_brute_force(vectors):
    assert pareto_front(vectors) == brute_force_front(vectors)


def test_pareto_random_large_sets():
    rng = np.random.default_rng(123)
    for _ in range(20):
        vecs = [tuple(row) for row in rng.uniform(0, 1, size=(120, 7))]
        assert pareto_front(vecs) == brute_force_front(vecs)


def test_normalize_band():
    out = normalize_band(np.array([3.0, 5.0, 4.0]))
    assert out[0] == 1.0 and out[1] == 2.0
    assert out[2] == pytest.approx(1.5)
    assert np.all(normalize_band(np.array([2.0, 2.0])) == 1.5)


def test_argmin_invariant_under_positive_scaling():
    state = toy_instance(5)
    vm_ids = [state.index["v0"], state.index["v1"]]
    base = so_place(SoKind.SO2, vm_ids, [0, 1, 2], state).placement
    # scaling every candidate value by c > 0 preserves each per-step argmin:
    # equivalent here to scaling the power model coefficients jointly
    from dataclasses import replace
    scaled = state.copy()
    p = scaled.params
    scaled.params = replace(p, power=replace(
        p.power, c_dyn=p.power.c_dyn * 7.5, c_mem=p.power.c_mem * 7.5,
        c_fan=p.power.c_fan * 7.5))
    scaled.refresh(np.arange(len(scaled.on)))
    assert so_place(SoKind.SO2, vm_ids, [0, 1, 2], scaled).placement == base


def mo_oracle(kind, vm_ids, host_ids, state, thr=0.9):
    """Scalar reference: brute-force front + min-power / min-norm pick."""
    scratch = state.copy()
    placement = {}
    cool = models.cop(scratch.setpoint)
    order = sorted((vm_record(scratch, scratch.index[v]) for v in vm_ids),
                   key=lambda x: (-x.cpu_demand, x.id))
    for vm in order:
        cands = []
        for hid in sorted(host_ids):
            if not fits(scratch, vm, hid, thr):
                continue
            try:
                vec = objective_vector(evaluate_candidate(vm, hid, scratch))
            except GuardError:
                continue
            cands.append((hid, vec.as_tuple()))
        if not cands:
            continue
        # mirror the policy's preference for hosts already running VMs
        warm = [c for c in cands if is_busy(scratch, c[0])]
        if warm:
            cands = warm
        raw = [c[1] for c in cands]
        cols = list(zip(*raw))
        norm_cols = []
        for col in cols:
            lo, hi = min(col), max(col)
            if hi - lo <= 0:
                norm_cols.append([1.5] * len(col))
            else:
                norm_cols.append([1 + (v - lo) / (hi - lo) for v in col])
        normalized = list(zip(*norm_cols))
        front = brute_force_front(raw)
        total = scratch.total_it_power()
        if kind == "mo1":
            def score(i):
                hid = cands[i][0]
                view = evaluate_candidate(vm, hid, scratch)
                return (total - view.p_before + view.p_after) * (1 + 1 / cool)
        else:
            def score(i):
                return sum(v * v for v in normalized[i]) ** 0.5
        # a score within rounding noise of the lowest ties with it; ties go
        # to the lowest host id
        low = min(score(i) for i in front)
        best = min((i for i in front if score(i) - low <= 1e-9 * abs(low)),
                   key=lambda i: cands[i][0])
        placement[vm.id] = cands[best][0]
        scratch.move({scratch.index[vm.id]: cands[best][0]})
    return placement


@pytest.mark.parametrize("kind", ["mo1", "mo2"])
@pytest.mark.parametrize("seed", [0, 2, 9])
def test_mo_place_matches_double_oracle(kind, seed):
    rng = np.random.default_rng(seed)
    vm_specs = {f"v{i}": (float(rng.uniform(0.05, 0.4)),
                          float(rng.uniform(128, 2048)), None) for i in range(4)}
    vm_specs["bg0"] = (0.35, 4096.0, 0)
    vm_specs["bg1"] = (0.15, 512.0, 1)
    vm_specs["bg2"] = (0.25, 1024.0, 2)
    state = make_state(4, vm_specs)
    vm_ids = [f"v{i}" for i in range(4)]
    res = mo_place(kind, [state.index[v] for v in vm_ids], [0, 1, 2, 3], state)
    assert with_ids(state, res.placement) == mo_oracle(kind, vm_ids, [0, 1, 2, 3], state)


@pytest.mark.parametrize("kind, seed", [
    *((kind, seed) for kind in ("mo1", "mo2") for seed in (0, 2, 9)),
    # hosts 0 and 5 tie for the second VM, and mo1's fleet powers of the
    # two differ in the last bit: a tie within rounding noise, so host 0 wins
    ("mo1", 7),
])
def test_mo_place_matches_double_oracle_on_a_tied_fleet(kind, seed):
    # 10 hosts and 8 VMs with demands on a 0.05 CPU / 256 MB grid, so hosts
    # and VMs tie on objectives and the tie-breaks decide
    rng = np.random.default_rng(seed)

    def demand():
        return (round(float(rng.uniform(0.05, 0.4)) / 0.05) * 0.05,
                round(float(rng.uniform(256, 2048)) / 256) * 256.0)

    vm_specs = {f"v{i}": (*demand(), None) for i in range(8)}
    vm_specs.update({f"bg{h}": (*demand(), h) for h in range(6)})
    state = make_state(10, vm_specs)
    vm_ids = [f"v{i}" for i in range(8)]
    hosts = list(range(10))
    res = mo_place(kind, [state.index[v] for v in vm_ids], hosts, state)
    assert with_ids(state, res.placement) == mo_oracle(kind, vm_ids, hosts, state)


def test_mo_agree_on_single_front():
    # host 0 dominates: identical CPU and RAM, but host 1 burns disk power
    # (present before and after, so power increments stay tied)
    vms = {
        "bg0": VmState(id="bg0", cpu_demand=0.3, ram_used=1024.0),
        "bg1": VmState(id="bg1", cpu_demand=0.3, ram_used=1024.0,
                       disk_read=1e5, disk_write=1e5),
        "v": VmState(id="v", cpu_demand=0.2, ram_used=128.0),
    }
    state = DataCenterState.build(2, vms)
    state.move({state.index["bg0"]: 0})
    state.move({state.index["bg1"]: 1})
    v = state.index["v"]
    assert mo_place("mo1", [v], [0, 1], state).placement[v] == 0
    assert mo_place("mo2", [v], [0, 1], state).placement[v] == 0


def test_swfdvp_second_best_rule():
    # four hosts with distinct power increments via disk load deltas
    vms = {
        "bg0": VmState(id="bg0", cpu_demand=0.10, ram_used=512.0),
        "bg1": VmState(id="bg1", cpu_demand=0.30, ram_used=512.0),
        "bg2": VmState(id="bg2", cpu_demand=0.50, ram_used=512.0),
        "v": VmState(id="v", cpu_demand=0.25, ram_used=128.0),
    }
    state = DataCenterState.build(3, vms)
    for i in range(3):
        state.move({state.index[f"bg{i}"]: i})
    v = state.index["v"]
    res = swfdvp_place([v], [0, 1, 2], state)
    # oracle: rank by decreasing power increment, take the second
    dps = {}
    for hid in (0, 1, 2):
        view = evaluate_candidate(vm_record(state, v), hid, state)
        dps[hid] = view.p_after - view.p_before
    ranked = sorted(dps, key=lambda h: (-dps[h], h))
    assert res.placement[v] == ranked[1]
    assert res.chosen_norm_values == {v: 1.5}


def test_swfdvp_fallbacks():
    state = make_state(1, {"v": (0.4, 128.0, None)})
    v = state.index["v"]
    res = swfdvp_place([v], [0], state)
    assert (res.placement, res.chosen_norm_values) == ({v: 0}, {v: 1.5})
    state2 = make_state(1, {"v": (0.95, 128.0, None)})
    res = swfdvp_place([v], [0], state2)
    assert res.unplaced == [v]


def test_dynso_single_kind_equals_so_place():
    state = toy_instance(3)
    vm_ids = [state.index[f"v{i}"] for i in range(5)]
    r = dynso_place(vm_ids, [0, 1, 2], state, so_list=[SoKind.SO6])
    assert r.kind == SoKind.SO6
    assert r.placement == so_place(SoKind.SO6, vm_ids, [0, 1, 2], state).placement


def test_dynso_tie_reports_first_kind():
    # single host: every kind must produce the identical forced placement
    state = make_state(1, {"v": (0.2, 128.0, None)})
    r = dynso_place([state.index["v"]], [0], state, so_list=[SoKind.SO5, SoKind.SO2])
    assert r.kind == SoKind.SO5


def test_dynso_power_matches_recomputation_oracle():
    state = toy_instance(7)
    vm_ids = [state.index[f"v{i}"] for i in range(5)]
    r = dynso_place(vm_ids, [0, 1, 2], state,
                    so_list=[SoKind.SO1, SoKind.SO3, SoKind.SO6])
    placed = apply_placement(state, r.placement).state
    p_it = 0.0
    for h in np.flatnonzero(placed.on).tolist():
        u_cpu = min(1.0, placed.sums[CPU, h])
        mode = governor_frequency(u_cpu)
        u_mem = max(1.0, 100.0 * placed.sums[RAM, h] / models.RAM_CAPACITY)
        p_it += (models.host_power_terms(
            mode.v_dd, mode.f_op, u_cpu,
            mem_temperature(placed.setpoint, u_mem),
            models.FAN_SPEED)
                 + models.disk_power(placed.sums[READ, h],
                                     placed.sums[WRITE, h]))
    expected = p_it * (1 + 1 / models.cop(state.setpoint))
    assert r.global_power == pytest.approx(expected, rel=1e-9)


def test_dynso_requires_nonempty_list():
    state = toy_instance(0)
    with pytest.raises(ValueError):
        dynso_place([state.index["v0"]], [0, 1, 2], state, so_list=[])


def test_candidate_evaluations_surface():
    state = toy_instance(4)
    vm = vm_record(state, state.index["v0"])
    evals = candidate_evaluations(vm, [0, 1, 2], state)
    assert [e.host_id for e in evals] == [0, 1, 2]
    for e in evals:
        comps = e.normalized.as_tuple()
        assert all(1.0 <= c <= 2.0 for c in comps)
        assert e.predicted_global_energy > 0
    # normalization maps extremes per component across the candidate set
    for c in range(7):
        col = [e.normalized.as_tuple()[c] for e in evals]
        raw = [e.so_values.as_tuple()[c] for e in evals]
        if max(raw) - min(raw) > 1e-9 * max(abs(min(raw)), abs(max(raw))):
            assert min(col) == pytest.approx(1.0)
            assert max(col) == pytest.approx(2.0)
        else:
            assert all(v == 1.5 for v in col)
    front = pareto_front([e.so_values.as_tuple() for e in evals])
    assert front == brute_force_front([e.so_values.as_tuple() for e in evals])


def dynso_instance(seed, hosts=6, vms=8):
    """``hosts`` hosts, all but the last with background load, the positions
    of ``vms`` + 1 detached VMs (one, "huge", too big for any host), a source
    host for each of them and a threshold array."""
    rng = np.random.default_rng(seed)
    specs = {f"bg{i}": (float(rng.uniform(0.05, 0.6)),
                        float(rng.uniform(256, 4096)), i)
             for i in range(hosts - 1)}
    for i in range(vms):
        specs[f"v{i}"] = (float(rng.uniform(0.02, 0.5)),
                          float(rng.uniform(128, 4096)), None)
    specs["huge"] = (0.95, 512.0, None)
    state = make_state(hosts, specs)
    vm_ids = [state.index[v] for v in specs if not v.startswith("bg")]
    source = {v: int(rng.integers(0, hosts)) for v in vm_ids}
    thresholds = np.array([float(rng.uniform(0.7, 0.95)) for _ in range(hosts)])
    return state, vm_ids, source, thresholds


def reattach_oracle(vm_ids, state, thresholds, source, evaluate,
                    host_list=range(6)):
    """dynso by copy and re-attach: every kind's placement is applied to a
    fresh copy of the input state, which is evaluated."""
    best = None
    for kind in DEFAULT_DYNSO_LIST:
        r = so_place(kind, vm_ids, host_list, state, thresholds, source)
        power = evaluate(reattached(state, r.placement, source))
        if best is None or power < best[2]:
            best = (kind, r.placement, power)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_dynso_matches_reattach_oracle(seed):
    state, vm_ids, source, thresholds = dynso_instance(seed)
    evaluators = (lambda: evaluate_global_power,
                  lambda: _drain_aware_evaluator(SimConfig(), thresholds))
    for make in evaluators:
        r = dynso_place(vm_ids, range(6), state, thresholds=thresholds,
                        source=source, evaluator=make())
        assert state.index["huge"] in r.unplaced
        assert (r.kind, r.placement, r.global_power) == reattach_oracle(
            vm_ids, state, thresholds, source, make())


@pytest.mark.parametrize("seed", range(8))
def test_dynso_matches_reattach_oracle_with_fallback_outside_host_list(seed):
    # the drain pass's shape: the VMs' source hosts are not candidates, and
    # an unplaced VM stays on its source
    state, vm_ids, _, thresholds = dynso_instance(seed)
    source = {v: 4 + i % 2 for i, v in enumerate(vm_ids)}
    evaluators = (lambda: evaluate_global_power,
                  lambda: _drain_aware_evaluator(SimConfig(), thresholds))
    for make in evaluators:
        r = dynso_place(vm_ids, range(4), state, thresholds=thresholds,
                        source=source, evaluator=make())
        assert state.index["huge"] in r.unplaced
        assert (r.kind, r.placement, r.global_power) == reattach_oracle(
            vm_ids, state, thresholds, source, make(), host_list=range(4))


def reattached(state, placement, source):
    """A copy of the state with the placement attached in placement order,
    then every unplaced VM attached to its source host."""
    scratch = state.copy()
    for i, host_id in placement.items():
        scratch.move({i: host_id})
    for i, host_id in source.items():
        if i not in placement:
            scratch.move({i: host_id})
    return scratch


def assignment(fleet, vm_ids):
    """VM -> host of the given VMs in a fleet."""
    return {i: fleet.host[i] for i in vm_ids}


@pytest.mark.parametrize("seed", range(8))
def test_dynso_evaluates_each_distinct_placement_once(seed):
    state, vm_ids, source, thresholds = dynso_instance(seed)
    seen = []

    def counting(fleet):
        seen.append(assignment(fleet, vm_ids))
        return evaluate_global_power(fleet)

    dynso_place(vm_ids, range(6), state, thresholds=thresholds,
                source=source, evaluator=counting)
    distinct = []
    for kind in DEFAULT_DYNSO_LIST:
        p = so_place(kind, vm_ids, range(6), state, thresholds,
                     source).placement
        if p not in distinct:
            distinct.append(p)
    # unplaced VMs sit on their source hosts
    assert seen == [{vid: p.get(vid, source[vid]) for vid in vm_ids}
                    for p in distinct]


def test_evaluator_receives_the_placed_state():
    state, vm_ids, source, thresholds = dynso_instance(3)
    received = []

    def keep(fleet):
        received.append(fleet)
        return evaluate_global_power(fleet)

    r = dynso_place(vm_ids, range(6), state, so_list=[SoKind.SO1],
                    thresholds=thresholds, source=source, evaluator=keep)
    [fleet] = received
    assert state.index["huge"] in r.unplaced
    # the placement in placement order, then unplaced VMs on their sources
    expected = reattached(state, r.placement, source)
    for i in vm_ids:
        assert state.host[i] == -1
    for name in _ARRAYS:
        assert getattr(fleet, name).tolist() == \
            getattr(expected, name).tolist(), name
    assert (fleet.params, fleet.setpoint, fleet.vm_ids) == (
        state.params, state.setpoint, state.vm_ids)
    cool = models.cop(state.setpoint)
    assert r.global_power == effective_it_power(expected) * (1.0 + 1.0 / cool)


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_walk_equals_single_kind_walks(seed):
    state, vm_ids, _, thresholds = dynso_instance(seed, hosts=10, vms=24)
    rng = np.random.default_rng(1000 + seed)
    host_list = sorted(rng.choice(10, size=7, replace=False).tolist())
    source = {v: int(rng.integers(0, 10)) for v in vm_ids[::3]}
    kinds = list(SoKind)
    _, rows = _bfd(len(kinds), vm_ids, host_list, state, thresholds, source,
                   _so_pick(kinds, SoSaModel(), 300.0))
    placements = []
    for kind, row in zip(kinds, rows):
        single = so_place(kind, vm_ids, host_list, state, thresholds, source)
        assert list(row.placement.items()) == list(single.placement.items())
        assert row.unplaced == single.unplaced
        assert row.chosen_norm_values == single.chosen_norm_values
        assert state.index["huge"] in row.unplaced
        assert set(row.placement.values()) <= set(host_list)
        assert all(row.placement.get(v) != h for v, h in source.items())
        placements.append(row.placement)
    # the kinds must not all agree, or the rows would not be tested apart
    assert len({frozenset(p.items()) for p in placements}) > 1


def random_fleet(seed):
    """Eight hosts: some cold, some running VMs, one powered on but emptied
    (as the engine's plan leaves a host whose VMs all move), and twelve
    detached VMs."""
    rng = np.random.default_rng(seed)

    def vm(vid):
        return VmState(id=vid, cpu_demand=float(rng.uniform(0.01, 0.3)),
                       ram_used=float(rng.uniform(64, 3000)),
                       disk_read=float(rng.uniform(0, 5e4)),
                       disk_write=float(rng.uniform(0, 5e4)),
                       net_bw=float(rng.uniform(0, 5)))

    vms = {f"bg{i}": vm(f"bg{i}") for i in range(10)}
    vms.update({f"v{i}": vm(f"v{i}") for i in range(12)})
    state = DataCenterState.build(8, vms,
                                  setpoint=float(rng.choice([291.0, 297.0])))
    for i in range(9):
        state.move({state.index[f"bg{i}"]: int(rng.integers(0, 5))})
    state.move({state.index["bg9"]: 7})
    state.move({state.index["bg9"]: -1})
    return state, rng


@pytest.mark.parametrize("seed", range(6))
def test_fleet_place_equals_attach_and_refresh(seed):
    state, rng = random_fleet(seed)
    fleet = _Fleet(state, 1, range(8), None)
    assert fleet.total_p[0] == effective_it_power(state)
    total = fleet.total_p[0]
    for i in rng.permutation(12):
        vm = state.index[f"v{i}"]
        hid = int(rng.integers(0, 8))
        old = state.p_it[hid] if is_busy(state, hid) else 0.0
        tab = fleet.table(vm)
        fleet.place(0, hid, tab)
        state.move({vm: hid})
        # the candidate's cost is the cost the state charges, to the bit
        assert tab["p_after"][0, hid] == state.p_it[hid]
        total += state.p_it[hid] - old
        assert fleet.total_p[0] == total
        busy = state.busy
        assert fleet.p_before[0].tolist() == np.where(busy, state.p_it,
                                                      0.0).tolist()
        assert fleet.sums[:, 0].tolist() == state.sums.tolist()
        for mine, theirs in ((fleet.u_cpu, state.u_cpu),
                             (fleet.mode, state.mode),
                             (fleet.active, busy)):
            assert mine[0].tolist() == theirs.tolist()


def test_placers_do_not_copy_or_modify_the_state(monkeypatch):
    state, vm_ids, source, thresholds = dynso_instance(5)

    def snapshot():
        return {name: getattr(state, name).tolist() for name in _ARRAYS}

    before = snapshot()
    copies = []
    copy = DataCenterState.copy
    monkeypatch.setattr(DataCenterState, "copy",
                        lambda self: copies.append(self) or copy(self))
    for kind in SoKind:
        so_place(kind, vm_ids, range(6), state, thresholds, source)
    for kind in ("mo1", "mo2"):
        mo_place(kind, vm_ids, range(6), state, thresholds, source,
                 prefer_utilization=0.2)
    swfdvp_place(vm_ids, range(6), state, thresholds, source)
    for evaluator in (None, _drain_aware_evaluator(SimConfig(), thresholds)):
        dynso_place(vm_ids, range(6), state, thresholds=thresholds,
                    source=source, evaluator=evaluator)
    assert copies == []
    assert snapshot() == before
