"""Benchmark workloads: sizes, configs and seeded input generation.

Every workload is a list of engine runs over one seeded synthetic workload.
Only the seed varies between benchmark runs; the sizes below are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Spec:
    name: str
    hosts: int
    vms: int
    slots: int
    policies: tuple[str, ...]
    cooling: str                 # "varinlet" or "fixed<K>"
    from_traces: bool = False    # load trace files instead of synthesizing
    sa_iterations: int = 0       # fixed annealer budget per slot

    @property
    def variability(self) -> float:
        # the acceptance day swings 280 % over 288 slots; shorter runs keep
        # the same aggregate swing per slot
        return 280.0 * self.slots / 288

    def tiny(self) -> "Spec":
        """A few-second version of the workload for the harness self-tests."""
        return replace(self, hosts=min(self.hosts, 12), vms=min(self.vms, 24),
                       slots=min(self.slots, 16),
                       sa_iterations=min(self.sa_iterations, 500))


WORKLOADS = {
    s.name: s for s in (
        Spec("day-mix", hosts=50, vms=120, slots=288,
             policies=("pabfd", "so6", "sosa", "mo2", "swfdvp"),
             cooling="varinlet", from_traces=True),
        Spec("fleet-dynso", hosts=400, vms=960, slots=40,
             policies=("dynso",), cooling="fixed291"),
        Spec("anneal", hosts=50, vms=120, slots=48, policies=("sa",),
             cooling="fixed291", sa_iterations=20_000),
    )
}

# Workloads left out of BENCHMARK.json but still runnable by name.  ``anneal``
# is one: its ``sa`` totals depend on the interpreter's string-hash seed, so
# repetitions in separate processes disagree and the run reports
# ``"correct": false`` (README.md, "Known failure").
NOT_LISTED = ("anneal",)


def synth(spec: Spec, seed: int):
    from dcsim import workload
    return workload.synth_workload(vms=spec.vms, slots=spec.slots,
                                   variability=spec.variability, seed=seed)


def write_inputs(spec: Spec, seed: int, directory) -> None:
    """Write the trace files a trace-driven workload loads (untimed)."""
    if spec.from_traces:
        from dcsim import workload
        workload.save_traces(synth(spec, seed), directory)


def build(spec: Spec, seed: int, directory):
    """The workload the engine runs: loaded from the trace files that
    :func:`write_inputs` wrote, or synthesized from the seed."""
    from dcsim import workload
    if spec.from_traces:
        return workload.load_traces(directory)
    return synth(spec, seed)


def config(spec: Spec, policy: str):
    from dcsim.annealer import SaConfig
    from dcsim.cooling import FixedCooling, VarInletCooling
    from dcsim.engine import SimConfig
    if spec.cooling == "varinlet":
        cooling = VarInletCooling()
    else:
        cooling = FixedCooling(float(spec.cooling.removeprefix("fixed")))
    sa = SaConfig()
    if spec.sa_iterations:
        # no wall-clock cap, so every chain runs its full budget and the
        # run stays deterministic
        sa = SaConfig(iterations=spec.sa_iterations, wall_time_cap=math.inf)
    return SimConfig(hosts=spec.hosts, policy=policy, cooling=cooling, sa=sa)
