"""Bit-identity guard: full-precision totals of two small engine runs.

The expected values were recorded before the drain pass and ``dynso`` were
made cheaper.  A change meant only to speed the simulator up must leave every
digit in place; a change of behaviour must say so and record new values.
"""

import pytest

from dcsim.engine import SimConfig, run
from dcsim.workload import synth_workload

# (e_it, e_cooling, e_boot, power_on_events, migrations)
GOLDEN = {
    "pabfd": "(2.770160256476062, 1.03534170147857, 0.28379400000000005, 21, 71)",
    "dynso": "(2.7011594773887624, 1.009552802133638, 0.28379400000000005, 21, 84)",
}


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_totals_are_bit_identical(policy):
    # both policies drain underloaded hosts on this workload, and dynso's
    # kinds disagree on about half of its placements
    w = synth_workload(vms=72, slots=12, variability=120.0, seed=4)
    t = run(w, SimConfig(hosts=30, policy=policy)).totals
    got = (t.e_it, t.e_cooling, t.e_boot, t.power_on_events, t.migrations)
    assert repr(got) == GOLDEN[policy]
