"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values so a run log doubles as the acceptance report.

The directional scenario (criterion 7) runs a 50-host / 120-VM / 288-slot
synthetic day for nine policies under three cooling strategies and three
seeds; it is the slow part of the suite and parallelizes across processes
(capped by DCSIM_THREADS).
"""

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dcsim import models
from dcsim.annealer import SaConfig, sa_objective, sa_solve
from dcsim.calibration import TrainingRecord, avg_error_pct, fit_sosa
from dcsim.cooling import (FixedCooling, VarInletCooling, cooling_setpoint,
                           max_inlet_for_host)
from dcsim.core import DataCenterState, VmState
from dcsim.engine import SimConfig, run
from dcsim.policies import PLAIN_KINDS, SoKind, SoSaModel, dynso_place, pareto_front
from dcsim.report import slots_csv, summary_csv
from dcsim.workload import synth_workload
from oracles import CandidateView, cpu_temperature, predict, so_value_from_view


def report(criterion, detail):
    print(f"[ACCEPTANCE] criterion {criterion}: PASS  ({detail})")


def test_criterion_1_cop_and_pue_anchors():
    c291 = models.cop(291.0)
    assert c291 == pytest.approx(2.6757, abs=1e-4)
    pue291 = 1.0 + 1.0 / c291
    pue297 = 1.0 + 1.0 / models.cop(297.0)
    assert pue291 == pytest.approx(1.3737, abs=1e-3)
    assert pue297 == pytest.approx(1.2276, abs=1e-3)
    assert round(pue291, 2) == 1.37
    assert round(pue297, 2) == 1.23
    report(1, f"cop(291K)={c291:.4f}, PUE {pue291:.4f}/{pue297:.4f}")


REFERENCE_ROWS = [  # (IT kWh, cooling kWh) per published policy row at 291 K
    ("PABFD", 157.62, 58.91),
    ("SO3", 153.15, 57.24),
    ("SO6", 150.43, 56.22),
    ("SO_SA", 150.20, 56.14),
    ("MO2", 152.86, 57.13),
]


def test_criterion_2_cooling_ratio_consistency():
    c291 = models.cop(291.0)
    for name, e_it, e_cool in REFERENCE_ROWS:
        predicted = e_it / c291
        assert predicted == pytest.approx(e_cool, rel=5e-3), name
    # and the engine holds the identity per slot to 1e-9
    w = synth_workload(vms=20, slots=20, variability=150.0, seed=3)
    r = run(w, SimConfig(hosts=10, policy="so3", cooling=FixedCooling(291.0)))
    for m in r.slots:
        assert m.e_cooling == pytest.approx(m.e_it / models.cop(m.setpoint),
                                            rel=1e-9)
    report(2, f"5 published rows within 0.5 %, {len(r.slots)} engine slots at 1e-9")


def test_criterion_3_worked_example_picks():
    # candidate hosts C and D after allocating the VM; B is excluded by the
    # 0.9 rule before valuation (u_after would reach 1.0)
    view_c = CandidateView(host_id=2, u_after=0.3, dfreq=0.0, p_before=160.0,
                           p_after=170.0, t_mem_after=273.15 + 38.0,
                           p_cooling_after=17.0)
    view_d = CandidateView(host_id=3, u_after=0.8, dfreq=0.4, p_before=180.0,
                           p_after=200.0, t_mem_after=273.15 + 55.0,
                           p_cooling_after=20.0)
    expected = {SoKind.SO1: "C", SoKind.SO2: "C", SoKind.SO3: "D",
                SoKind.SO4: "C", SoKind.SO5: "C", SoKind.SO6: "D",
                SoKind.SO7: "C"}
    for kind, want in expected.items():
        best = min((view_c, view_d),
                   key=lambda v: (so_value_from_view(kind, v), v.host_id))
        got = "C" if best is view_c else "D"
        assert got == want, kind
    assert 0.3 + 0.7 >= 0.9  # host B: u_after 1.0 -> excluded
    report(3, "SO1..SO7 picks C,C,D,C,C,D,C with B excluded")


def test_criterion_4_thermal_cap_consistency():
    t_cpu = cpu_temperature(303.15, 1.0)
    assert t_cpu == pytest.approx(338.76, abs=0.01)
    inlet = max_inlet_for_host(1.0, 338.15)
    assert inlet == pytest.approx(302.57, abs=0.01)
    assert cpu_temperature(inlet, 1.0) == pytest.approx(338.15, abs=1e-9)
    report(4, f"t_cpu={t_cpu:.4f} K, max inlet={inlet:.4f} K, inverse exact")


def brute_force_front(vectors: np.ndarray) -> list[int]:
    out = []
    for i in range(len(vectors)):
        vi = vectors[i]
        le = (vectors <= vi).all(axis=1)
        lt = (vectors < vi).any(axis=1)
        if not (le & lt).any():
            out.append(i)
    return out


def test_criterion_5_pareto_oracle():
    rng = np.random.default_rng(20240517)
    t0 = time.monotonic()
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        vectors = rng.uniform(0.0, 1.0, size=(n, 7))
        if trial % 7 == 0 and n > 3:
            vectors[n // 2] = vectors[0]  # duplicated vectors stay in
        assert pareto_front(vectors) == brute_force_front(vectors)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(5, f"1000 random sets matched brute force in {elapsed:.1f} s")


def _sa_toy():
    demands = [0.45, 0.38, 0.30, 0.22, 0.15, 0.60]
    rams = [2048.0, 1024.0, 4096.0, 512.0, 768.0, 3072.0]
    vms = {f"v{i}": VmState(id=f"v{i}", cpu_demand=d, ram_used=r, net_bw=2.0)
           for i, (d, r) in enumerate(zip(demands, rams))}
    return DataCenterState.build(4, vms), [f"v{i}" for i in range(6)]


def test_criterion_6_sa_reaches_exhaustive_optimum():
    state, vm_ids = _sa_toy()
    best_val = min(sa_objective(list(combo), vm_ids, state)
                   for combo in itertools.product(range(4), repeat=6))
    # the placers take VM positions, the annealer takes ids
    seed = dynso_place(range(len(vm_ids)), [0, 1, 2, 3], state, so_list=PLAIN_KINDS)
    assert not seed.unplaced
    start = {state.vm_ids[i]: h for i, h in seed.placement.items()}
    seed_val = sa_objective([start[v] for v in vm_ids], vm_ids, state)

    t0 = time.monotonic()
    hits = 0
    for s in range(100):
        sol = sa_solve(vm_ids, [0, 1, 2, 3], state, start,
                       SaConfig(iterations=100_000, seed=s))
        assert sol.objective <= seed_val + 1e-12  # hard invariant, 100/100
        if abs(sol.objective - best_val) <= 1e-9 * best_val:
            hits += 1
    elapsed = time.monotonic() - t0
    assert hits >= 95
    assert elapsed < 60.0
    report(6, f"optimum in {hits}/100 seeded runs, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 7: directional reproduction on the desk-scale scenario

SCEN_POLICIES = ("pabfd", "so2", "so3", "so4", "so6", "so7", "sosa", "dynso",
                 "mo2")
SCEN_COOLINGS = (("fixed291", FixedCooling(291.0)),
                 ("fixed297", FixedCooling(297.0)),
                 ("varinlet", VarInletCooling()))
SCEN_SEEDS = (1, 2, 3)


def _scenario_run(job):
    seed, policy, cooling_name = job
    cooling = dict(SCEN_COOLINGS)[cooling_name]
    w = synth_workload(vms=120, slots=288, variability=280.0, seed=seed)
    cfg = SimConfig(hosts=50, policy=policy, cooling=cooling)
    r = run(w, cfg)
    return seed, policy, cooling_name, r.totals.energy, r.avg_sla


@pytest.fixture(scope="module")
def scenario_energies():
    jobs = [(s, p, c) for s in SCEN_SEEDS for p in SCEN_POLICIES
            for c, _ in SCEN_COOLINGS]
    workers = int(os.environ.get("DCSIM_THREADS", os.cpu_count() or 1))
    t0 = time.monotonic()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scenario_run, jobs))
    else:
        results = [_scenario_run(j) for j in jobs]
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0, f"scenario grid took {elapsed:.0f} s (budget 900 s)"
    return {(s, p, c): e for s, p, c, e, _ in results}


def test_criterion_7a_spreading_policies_cost_more(scenario_energies):
    E = scenario_energies
    worst = 10.0
    for seed in SCEN_SEEDS:
        for cname, _ in SCEN_COOLINGS:
            base = E[(seed, "so3", cname)]
            for p in ("so2", "so4", "so7"):
                ratio = E[(seed, p, cname)] / base
                worst = min(worst, ratio)
                assert ratio >= 1.5, (seed, p, cname, ratio)
    report("7a", f"min spreading/SO3 energy ratio {worst:.2f} (>= 1.5)")


def test_criterion_7b_cooling_strategy_ordering(scenario_energies):
    E = scenario_energies
    for seed in SCEN_SEEDS:
        for p in SCEN_POLICIES:
            vi = E[(seed, p, "varinlet")]
            f297 = E[(seed, p, "fixed297")]
            f291 = E[(seed, p, "fixed291")]
            assert vi < f297 < f291, (seed, p, vi, f297, f291)
    report("7b", "VarInlet < Fixed(297) < Fixed(291) for all 9 policies, 3 seeds")


def test_criterion_7c_proposed_policies_beat_pabfd(scenario_energies):
    E = scenario_energies
    margins = []
    for seed in SCEN_SEEDS:
        base = E[(seed, "pabfd", "fixed291")]
        for p in ("so3", "so6", "sosa", "dynso", "mo2"):
            margin = 100.0 * (base - E[(seed, p, "fixed291")]) / base
            margins.append(margin)
            assert E[(seed, p, "fixed291")] < base, (seed, p, margin)
    report("7c", f"margins vs PABFD {min(margins):+.2f}..{max(margins):+.2f} %")


def test_criterion_7d_varinlet_savings_band(scenario_energies):
    E = scenario_energies
    passes = 0
    means = []
    for seed in SCEN_SEEDS:
        savings = [100.0 * (E[(seed, p, "fixed291")] - E[(seed, p, "varinlet")])
                   / E[(seed, p, "fixed291")] for p in SCEN_POLICIES]
        mean = sum(savings) / len(savings)
        means.append(mean)
        if 8.0 <= mean <= 16.0:
            passes += 1
    assert passes >= 2, means
    report("7d", f"mean VarInlet savings vs Fixed(291): "
                 f"{', '.join(f'{m:.1f}%' for m in means)} ({passes}/3 in band)")


# ---------------------------------------------------------------------------

def test_criterion_8_calibration_self_consistency():
    paper = SoSaModel()
    rng = np.random.default_rng(42)
    samples = []
    for t in range(60):
        n3, n6 = rng.uniform(1, 2, size=2)
        e3, e6 = rng.uniform(0.5, 2.0, size=2)
        e_sa = paper.a3 * n3 * e3 + paper.a6 * n6 * e6 + paper.c
        samples.append(TrainingRecord(slot=t, norm_so3=float(n3), e_so3=float(e3),
                                      norm_so6=float(n6), e_so6=float(e6),
                                      e_sa=float(e_sa)))
    fitted, _ = fit_sosa(samples)
    assert fitted.a3 == pytest.approx(paper.a3, abs=1e-6)
    assert fitted.a6 == pytest.approx(paper.a6, abs=1e-6)
    assert fitted.c == pytest.approx(paper.c, abs=1e-6)
    err = avg_error_pct([s.e_sa for s in samples], predict(paper, samples))
    assert err == pytest.approx(0.0, abs=1e-10)
    report(8, f"coefficients recovered to 1e-6, e_avg={err:.2e} %")


def test_criterion_9_determinism_and_conservation():
    w = synth_workload(vms=30, slots=40, variability=200.0, seed=17)
    cfg = SimConfig(hosts=15, policy="dynso", cooling=VarInletCooling())
    a = run(w, cfg)
    b = run(w, cfg)
    assert slots_csv(a) == slots_csv(b)
    assert summary_csv([("x", a)]) == summary_csv([("x", b)])
    total = sum(m.e_it + m.e_cooling + m.e_boot for m in a.slots)
    assert a.totals.energy == pytest.approx(total, rel=1e-9)
    for m in a.slots:
        assert m.e_boot == pytest.approx(m.power_on_events * 0.013514, abs=1e-15)
    report(9, f"byte-identical repeat, totals conserved over {len(a.slots)} slots")
