import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcsim import models
from dcsim.core import CPU, RAM, READ, WRITE
from oracles import (DVFS_TABLE, cpu_temperature, mem_temperature,
                     scalar_operating_point)

FREQS = models.FREQS_GHZ


def governor_f_op(u_cpu):
    """The frequency the server model's governor picks for a utilization."""
    sums = np.zeros(5)
    sums[CPU] = u_cpu
    _, mode, _, _ = models.host_operating_point(sums, 291.0, models.ModelParams())
    return FREQS[mode]


def test_governor_picks_lowest_covering_frequency():
    # 0.72 * 2.40 = 1.728, just under the lowest rung
    assert governor_f_op(0.72) == 1.73
    assert governor_f_op(1.0) == 2.40
    # 0.75 * 2.40 = 1.80 > 1.73, needs the next rung
    assert governor_f_op(0.75) == 1.86
    assert governor_f_op(0.0) == 1.73


@given(st.floats(min_value=0.0, max_value=1.0))
def test_governor_monotone_and_idempotent(u):
    f_op = governor_f_op(u)
    assert f_op >= u * FREQS[-1] - 1e-12
    assert governor_f_op(u) == f_op
    for v in (u / 2, u):
        assert governor_f_op(v) <= f_op


def test_array_model_matches_the_scalar_reference():
    # random hosts, some over-committed (cpu sum above 1) and some without
    # RAM in use, costed in one array call and one host at a time
    rng = np.random.default_rng(3)
    n = 20_000
    cpu = rng.uniform(0.0, 1.3, n)
    cpu[::50] = 0.0
    ram = rng.uniform(0.0, 1.1 * models.RAM_CAPACITY, n)
    ram[::7] = 0.0
    disk_r = rng.uniform(0.0, 5e4, n)
    disk_w = rng.uniform(0.0, 5e4, n)
    t_inlet = float(rng.choice([283.15, 291.0, 297.0, 303.15]))
    params = models.ModelParams()
    sums = np.zeros((5, n))
    sums[CPU], sums[RAM], sums[READ], sums[WRITE] = cpu, ram, disk_r, disk_w
    u_cpu, mode, t_mem, p_it = models.host_operating_point(sums, t_inlet, params)
    refs = [scalar_operating_point(*host, t_inlet, params) for host in
            zip(cpu.tolist(), ram.tolist(), disk_r.tolist(), disk_w.tolist())]
    assert u_cpu.tolist() == [r[0] for r in refs]
    assert mode.tolist() == [DVFS_TABLE.index(r[1]) for r in refs]
    # numpy's log may differ from math.log by one ulp, which p_it carries on
    ref_t = np.array([r[2] for r in refs])
    ref_p = np.array([r[3] for r in refs])
    assert (np.abs(t_mem - ref_t) <= np.spacing(ref_t)).all()
    assert (np.abs(p_it - ref_p) <= 2 * np.spacing(ref_p)).all()


def test_host_power_worked_values():
    # full load at top frequency, 1.0 V, T_mem 314.14 K, fan 5000 RPM
    total = models.host_power_terms(1.0, 2.40, 1.0, 314.14, 5000.0)
    assert total == pytest.approx(174.92282154799997, rel=1e-12)
    # static-only at u = 0 keeps the memory and fan terms
    static = models.host_power_terms(1.0, 2.40, 0.0, 314.14, 5000.0)
    assert static == pytest.approx(166.95482154799998, rel=1e-12)
    assert total - static == pytest.approx(3.32 * 1.0 * 2.40, rel=1e-12)


def test_host_power_monotone_in_each_input():
    base = models.host_power_terms(1.0, 2.40, 0.5, 310.0, 5000.0)
    assert models.host_power_terms(1.0, 2.40, 0.6, 310.0, 5000.0) > base
    assert models.host_power_terms(1.0, 2.40, 0.5, 315.0, 5000.0) > base
    assert models.host_power_terms(1.0, 2.40, 0.5, 310.0, 6000.0) > base


def test_mem_temperature_values():
    assert mem_temperature(291.0, 100.0) == pytest.approx(314.13561762550756)
    # ln(1) = 0: exactly the inlet term
    assert mem_temperature(300.0, 1.0) == pytest.approx(0.9965 * 300.0, abs=1e-12)
    assert mem_temperature(297.0, 50.0) == pytest.approx(316.47906066347065)


def test_mem_temperature_rejects_nonpositive_load():
    with pytest.raises(ValueError):
        mem_temperature(291.0, 0.0)
    with pytest.raises(ValueError):
        mem_temperature(291.0, -5.0)


def test_cpu_temperature_values():
    assert cpu_temperature(303.15, 1.0) == pytest.approx(338.7588)
    assert cpu_temperature(290.0, 0.0) == pytest.approx(1.052 * 290.0)
    assert cpu_temperature(291.0, 0.5) == pytest.approx(316.0545)


@given(st.floats(min_value=280.0, max_value=310.0))
def test_thermal_models_affine_in_inlet(t):
    # slopes are exactly the fitted k1 coefficients
    d_mem = mem_temperature(t + 1.0, 40.0) - mem_temperature(t, 40.0)
    assert d_mem == pytest.approx(0.9965, abs=1e-9)
    d_cpu = cpu_temperature(t + 1.0, 0.7) - cpu_temperature(t, 0.7)
    assert d_cpu == pytest.approx(1.052, abs=1e-9)


def test_disk_power_values():
    assert models.disk_power(0.0, 0.0) == 0.0
    assert models.disk_power(1e6, 0.0) == pytest.approx(0.3327)
    assert models.disk_power(1e6, 1e6) == pytest.approx(0.4995)


def test_cop_anchors():
    # 291 K scenario = 18 C; cross-check: published IT/cooling ratio
    # 157.62 / 58.91 = 2.6756
    assert models.cop(291.0) == pytest.approx(2.6757, abs=1e-4)
    assert models.cop(297.0) == pytest.approx(4.394, abs=1e-4)
    assert models.cop(273.0 + 29.4) == pytest.approx(6.359168, abs=1e-6)
    # whole-day published row: 150.20 kWh IT at the 18 C COP
    assert 150.20 / models.cop(291.0) == pytest.approx(56.14, abs=5e-3)


def test_cop_range_errors():
    with pytest.raises(ValueError):
        models.cop(282.0)
    with pytest.raises(ValueError):
        models.cop(314.0)


def test_cop_strictly_increasing_on_range():
    temps = [283.15 + 0.5 * i for i in range(60)]
    values = [models.cop(t) for t in temps]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_left_sum_adds_left_to_right_from_zero():
    # a compensated sum (Python 3.12's builtin) rounds this to exactly 1.0
    assert models.left_sum([0.1] * 10) == 0.9999999999999999
    assert models.left_sum([]) == 0.0
    # np.add.accumulate adds strictly in order, so its last element is the
    # left-to-right sum
    values = np.random.default_rng(3).random(500)
    expected = np.add.accumulate(values)[-1]
    assert models.left_sum(values.tolist()) == expected
    assert models.left_sum(iter(values.tolist())) == expected


def test_no_builtin_sum_in_the_package():
    # the builtin's rounding changed in Python 3.12; every float sum of the
    # package goes through models.left_sum so totals match on every version
    calls = []
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_each_placement_rule_is_written_once():
    # the SO objectives live in policies._values_for_kind, which every placer
    # reads, and the band-flatness tolerance in policies._flat
    reads, floors = [], []
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_values_for_kind"
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                    and node.slice.value == "t_mem" and id(node) not in owned):
                reads.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Constant) and node.value == 1e-300:
                floors.append(f"{path.name}:{node.lineno}")
    assert reads == []
    assert len(floors) == 1, floors


def test_cooling_factor_is_written_once():
    # global power is IT x (1 + 1/COP); every reader calls models.cooling_factor
    spellings, owned = [], 0
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if path.name == "models.py" and isinstance(fn, ast.FunctionDef)
                  and fn.name == "cooling_factor" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp)
                    and re.fullmatch(r"1\.0 \+ 1\.0 / .*cop.*", ast.unparse(node))):
                if id(node) in inside:
                    owned += 1
                else:
                    spellings.append(f"{path.name}:{node.lineno}")
    assert spellings == []
    assert owned == 1
    assert models.cooling_factor(291.0) == 1.0 + 1.0 / models.cop(291.0)
