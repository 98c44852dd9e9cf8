"""One benchmark repetition in a fresh process: set up, run, check outputs.

    python3 bench/rep.py '<request JSON>'

The request names the workload, seed, input and output directories and
whether to trace.  The process prints one JSON line with its timings, the
full-precision totals of every run and the output checks that failed.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, imports included

import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, layer_shares  # noqa: E402


class SaSeedCheck:
    """Wraps ``annealer.sa_place`` to compare each result with the objective
    of the seed it started from."""

    def __init__(self):
        self.calls = 0
        self.improved = 0
        self.worse = 0

    def __enter__(self):
        from dcsim import annealer
        self._original = original = annealer.sa_place

        def checked(vm_list, host_list, state, seed_solution, cfg=annealer.SaConfig()):
            vm_ids = [v if isinstance(v, str) else v.id for v in vm_list]
            seed_obj = annealer.sa_objective([seed_solution[v] for v in vm_ids],
                                             vm_ids, state, cfg.feasibility_scale)
            mapping, obj = original(vm_list, host_list, state, seed_solution, cfg)
            self.calls += 1
            self.improved += obj < seed_obj
            self.worse += not obj <= seed_obj
            return mapping, obj

        annealer.sa_place = checked
        return self

    def __exit__(self, *exc):
        from dcsim import annealer
        annealer.sa_place = self._original
        return False


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_run(report_, cfg, workload, out_dir: Path, workload_hash: str) -> list[str]:
    """Checks that hold for any correct simulator; returns the failures."""
    from dcsim import models
    from dcsim.cooling import FixedCooling
    fails = []
    slots = report_.slots
    if len(slots) != workload.slot_count:
        fails.append(f"{len(slots)} slots, workload has {workload.slot_count}")
    for m in slots:
        if not _close(m.e_cooling, m.e_it / models.cop(m.setpoint, cfg.models.cooling)):
            fails.append(f"slot {m.slot}: e_cooling != e_it / cop(setpoint)")
            break
    c = cfg.cooling
    if isinstance(c, FixedCooling):
        bad = [m.slot for m in slots if m.setpoint != c.setpoint]
    else:
        bad = [m.slot for m in slots if not c.floor <= m.setpoint <= c.ceiling]
    if bad:
        fails.append(f"setpoint out of range in slots {bad[:5]}")
    t = report_.totals
    for name in ("e_it", "e_cooling", "e_boot"):
        if not _close(getattr(t, name), math.fsum(getattr(m, name) for m in slots)):
            fails.append(f"total {name} != sum of slots")
    if t.power_on_events != sum(m.power_on_events for m in slots):
        fails.append("total power_on_events != sum of slots")
    if t.migrations != sum(m.migrations for m in slots):
        fails.append("total migrations != sum of slots")

    manifest = json.loads((out_dir / "manifest.json").read_text())
    written = manifest["totals"]
    expected = {"e_it_kwh": t.e_it, "e_cooling_kwh": t.e_cooling,
                "e_boot_kwh": t.e_boot, "energy_kwh": t.energy,
                "power_on_events": t.power_on_events, "migrations": t.migrations}
    if written != expected or manifest["workload_hash"] != workload_hash:
        fails.append("manifest.json does not match the run")
    rows = (out_dir / "slots.csv").read_text().splitlines()
    if len(rows) != len(slots) + 1:
        fails.append("slots.csv row count does not match the run")
    return fails


def repetition(req: dict, start: float) -> dict:
    """Set up one workload, run each of its policies and check the outputs."""
    spec = workloads.WORKLOADS[req["workload"]]
    if req.get("tiny"):
        spec = spec.tiny()
    seed, out = req["seed"], Path(req["out"])
    tracer = Tracer() if req.get("trace") else None
    with contextlib.ExitStack() as stack:
        if tracer:
            stack.enter_context(tracer)
        from dcsim import engine, report
        w = workloads.build(spec, seed, req["inputs"])
        setup_s = time.perf_counter() - start
        result = {"setup_s": setup_s}
        if req.get("setup_only"):
            return result
        sa = stack.enter_context(SaSeedCheck())
        workload_hash = report.workload_fingerprint(w)
        runs = []
        artifact_bytes = 0
        for policy in spec.policies:
            cfg = workloads.config(spec, policy)
            t0 = time.perf_counter()
            rep = engine.run(w, cfg)
            run_s = time.perf_counter() - t0
            run_dir = report.write_run_artifacts(out / policy, rep, cfg,
                                                 workload_hash)
            artifact_bytes += sum(p.stat().st_size for p in run_dir.iterdir())
            fails = check_run(rep, cfg, w, run_dir, workload_hash)
            if sa.worse:
                fails.append(f"{sa.worse} annealer results worse than their seed")
                sa.worse = 0
            manifest = report.load_manifest(run_dir)
            runs.append({"policy": policy, "slots": len(rep.slots),
                         "run_s": run_s, "failures": fails,
                         "totals": {**manifest["totals"],
                                    "avg_sla": manifest["avg_sla"],
                                    "pue": manifest["pue"]}})
    result.update(runs=runs, workload_hash=workload_hash,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        slots = sum(r["slots"] for r in runs)
        layers = layer_metrics(tracer.spans, tracer.refresh_calls, slots, len(runs))
        if sa.calls:
            layers["annealer.improved_ratio"] = sa.improved / sa.calls
        layers["report.artifact_bytes"] = artifact_bytes / len(runs)
        result["layers"] = layers
        result["layer_shares"] = layer_shares(tracer.spans)
        if req.get("spans"):
            tracer.write(req["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(repetition(json.loads(sys.argv[1]), _START)))
