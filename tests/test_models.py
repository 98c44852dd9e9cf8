import math

import pytest
from hypothesis import given, strategies as st

from dcsim import models
from dcsim.core import default_dvfs_table

TABLE = default_dvfs_table()


def test_governor_picks_lowest_covering_frequency():
    # 0.72 * 2.40 = 1.728, just under the lowest rung
    assert models.governor_frequency(0.72, TABLE).f_op == 1.73
    assert models.governor_frequency(1.0, TABLE).f_op == 2.40
    # 0.75 * 2.40 = 1.80 > 1.73, needs the next rung
    assert models.governor_frequency(0.75, TABLE).f_op == 1.86
    assert models.governor_frequency(0.0, TABLE).f_op == 1.73


@given(st.floats(min_value=0.0, max_value=1.0))
def test_governor_monotone_and_idempotent(u):
    mode = models.governor_frequency(u, TABLE)
    assert mode.f_op >= u * TABLE[-1].f_op - 1e-12
    assert models.governor_frequency(u, TABLE) is mode
    for v in (u / 2, u):
        assert models.governor_frequency(v, TABLE).f_op <= mode.f_op


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
    assert models.mem_temperature(291.0, 100.0) == pytest.approx(314.13561762550756)
    # ln(1) = 0: exactly the inlet term
    assert models.mem_temperature(300.0, 1.0) == pytest.approx(0.9965 * 300.0, abs=1e-12)
    assert models.mem_temperature(297.0, 50.0) == pytest.approx(316.47906066347065)


def test_mem_temperature_rejects_nonpositive_load():
    with pytest.raises(ValueError):
        models.mem_temperature(291.0, 0.0)
    with pytest.raises(ValueError):
        models.mem_temperature(291.0, -5.0)


def test_cpu_temperature_values():
    assert models.cpu_temperature(303.15, 1.0) == pytest.approx(338.7588)
    assert models.cpu_temperature(290.0, 0.0) == pytest.approx(1.052 * 290.0)
    assert models.cpu_temperature(291.0, 0.5) == pytest.approx(316.0545)


@given(st.floats(min_value=280.0, max_value=310.0))
def test_thermal_models_affine_in_inlet(t):
    # slopes are exactly the fitted k1 coefficients
    d_mem = models.mem_temperature(t + 1.0, 40.0) - models.mem_temperature(t, 40.0)
    assert d_mem == pytest.approx(0.9965, abs=1e-9)
    d_cpu = models.cpu_temperature(t + 1.0, 0.7) - models.cpu_temperature(t, 0.7)
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
