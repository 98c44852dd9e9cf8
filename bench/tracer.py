"""Spans around dcsim's public functions, taken from outside the program.

:class:`Tracer` replaces each traced function with a wrapper that records a
span (name, start, end, parent, note) in memory and restores the originals on
exit.  ``engine`` binds some functions by name at import time, so those names
are patched in ``dcsim.engine`` as well as in their home modules.
``DataCenterState.refresh`` runs tens of thousands of times per run and is
only counted.

:func:`layer_metrics` turns the spans of one repetition into the per-layer
metrics.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_perf = time.perf_counter


def _placer_note(result, args, kwargs):
    return {"vms": len(args[0] if args else kwargs["vm_list"]),
            "unplaced": len(result.unplaced)}


def _so_note(result, args, kwargs):
    note = _placer_note(result, args, kwargs)
    # identifies the placement, so dynso's distinct candidates can be counted
    note["placement"] = hash(tuple(sorted(result.placement.items())))
    return note


def _underload_note(result, args, kwargs):
    return {"hosts": len(result)}


def _sa_note(result, args, kwargs):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    return {"budget": max(1, cfg.iterations)}


# (span name, home module, function, note) for every traced public function;
# the span name's prefix is the layer
TRACED = (
    ("workload.load_traces", "workload", "load_traces", None),
    ("workload.synth_workload", "workload", "synth_workload", None),
    ("engine.run", "engine", "run", None),
    ("core.apply_placement", "core", "apply_placement", None),
    ("detection.overload_threshold", "detection", "overload_threshold", None),
    ("detection.select_vms_mmt", "detection", "select_vms_mmt", None),
    ("detection.find_underloaded", "detection", "find_underloaded",
     _underload_note),
    ("policies.so_place", "policies", "so_place", _so_note),
    ("policies.mo_place", "policies", "mo_place", _placer_note),
    ("policies.swfdvp_place", "policies", "swfdvp_place", None),
    ("policies.dynso_place", "policies", "dynso_place", _placer_note),
    ("annealer.sa_place", "annealer", "sa_place", _sa_note),
    ("cooling.cooling_setpoint", "cooling", "cooling_setpoint", None),
    ("report.write_run_artifacts", "report", "write_run_artifacts", None),
)


# unit and better direction of every per-layer metric, as in BENCHMARK.json;
# the annealer.* metrics are reported only by workloads that run ``sa``,
# which BENCHMARK.json does not list (see README.md, "Known failure")
LAYER_METRICS = {
    "workload.build_s": ("s", "lower"),
    "engine.self_ms_per_slot": ("ms", "lower"),
    "core.copy_ms_per_slot": ("ms", "lower"),
    "core.copies_per_slot": ("count", "lower"),
    "core.apply_ms_per_slot": ("ms", "lower"),
    "core.refresh_calls_per_slot": ("count", "lower"),
    "detection.threshold_ms_per_slot": ("ms", "lower"),
    "detection.mmt_ms_per_slot": ("ms", "lower"),
    "detection.underload_ms_per_slot": ("ms", "lower"),
    "detection.underload_in_dynso_share": ("ratio", "lower"),
    "detection.underload_calls_per_slot": ("count", "lower"),
    "detection.underload_hosts_per_call": ("count", "lower"),
    "policies.first_pass_ms_per_slot": ("ms", "lower"),
    "policies.drain_pass_ms_per_slot": ("ms", "lower"),
    "policies.vms_per_call": ("count", "lower"),
    "policies.unplaced_vms": ("count", "lower"),
    "policies.so_place_calls_per_slot": ("count", "lower"),
    "policies.dynso.eval_share": ("ratio", "lower"),
    "policies.dynso.distinct_ratio": ("ratio", "higher"),
    "annealer.share": ("ratio", "lower"),
    "annealer.moves_per_s": ("1/s", "higher"),
    "annealer.improved_ratio": ("ratio", "higher"),
    "cooling.setpoint_ms_per_slot": ("ms", "lower"),
    "report.artifacts_ms_per_run": ("ms", "lower"),
    "report.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Context manager that traces dcsim's public functions."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, note or None]
        self.spans: list[list] = []
        self.refresh_calls = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _perf()
                stack.pop()
            if note is not None:
                span[4] = note(result, args, kwargs)
            return result

        return traced

    def __enter__(self):
        import importlib

        from dcsim import core, engine
        for name, module, attr, note in TRACED:
            home = importlib.import_module(f"dcsim.{module}")
            wrapper = self._span_wrapper(name, getattr(home, attr), note)
            self._patch(home, attr, wrapper)
            if attr in engine.__dict__ and home is not engine:
                self._patch(engine, attr, wrapper)

        self._patch(core.DataCenterState, "copy", self._span_wrapper(
            "core.copy", core.DataCenterState.copy, None))
        refresh = core.DataCenterState.refresh

        @functools.wraps(refresh)
        def counted_refresh(state, host):
            self.refresh_calls += 1
            return refresh(state, host)

        self._patch(core.DataCenterState, "refresh", counted_refresh)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, note) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "note": note}) + "\n")


def layer_metrics(spans, refresh_calls: int, slots: int, runs: int) -> dict:
    """Per-layer metrics of one traced repetition (see ``BENCHMARK.json``)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    def own_layer_time(i):
        # time inside span i spent in its own layer, nested calls of the
        # same layer included
        return self_time(i) + sum(own_layer_time(c) for c in children[i]
                                  if layer(c) == layer(i))

    def under(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(name):
        return sum(dur(i) for i in by_name[name])

    engine_s = total("engine.run")

    # placer calls are the policies spans directly under engine.run; within a
    # slot, those after the engine's own find_underloaded call belong to the
    # drain pass, and cooling_setpoint closes the slot
    first_s = drain_s = 0.0
    placer_vms, unplaced, engine_underload = [], 0, []
    for run in by_name["engine.run"]:
        drain = False
        for c in children[run]:  # in call order
            name = spans[c][0]
            if name == "detection.find_underloaded":
                drain = True
                engine_underload.append(c)
            elif name == "cooling.cooling_setpoint":
                drain = False
            elif layer(c) == "policies":
                if drain:
                    drain_s += own_layer_time(c)
                else:
                    first_s += own_layer_time(c)
                placer_vms.append(spans[c][4]["vms"])
                unplaced += spans[c][4]["unplaced"]

    dynso_eval = 0.0
    distinct = kinds = 0
    for d in by_name["policies.dynso_place"]:
        sos = [c for c in children[d] if spans[c][0] == "policies.so_place"]
        dynso_eval += dur(d) - sum(dur(c) for c in sos)
        kinds += len(sos)
        distinct += len({spans[c][4]["placement"] for c in sos})

    sa = by_name["annealer.sa_place"]
    sa_self = sum(self_time(i) for i in sa)
    budget = sum(spans[i][4]["budget"] for i in sa)
    underload_all = by_name["detection.find_underloaded"]
    in_dynso = [i for i in underload_all if under(i, "policies.dynso_place")]

    def per_slot_ms(seconds):
        return 1e3 * seconds / slots

    def share(seconds):
        return seconds / engine_s if engine_s > 0 else 0.0

    build = by_name["workload.load_traces"] + by_name["workload.synth_workload"]
    metrics = {
        "workload.build_s": sum(dur(i) for i in build),
        "engine.self_ms_per_slot": per_slot_ms(
            sum(self_time(i) for i in by_name["engine.run"])),
        "core.copy_ms_per_slot": per_slot_ms(total("core.copy")),
        "core.copies_per_slot": len(by_name["core.copy"]) / slots,
        "core.apply_ms_per_slot": per_slot_ms(
            sum(self_time(i) for i in by_name["core.apply_placement"])),
        "core.refresh_calls_per_slot": refresh_calls / slots,
        "detection.threshold_ms_per_slot": per_slot_ms(
            total("detection.overload_threshold")),
        "detection.mmt_ms_per_slot": per_slot_ms(
            total("detection.select_vms_mmt")),
        "detection.underload_ms_per_slot": per_slot_ms(
            sum(dur(i) for i in engine_underload)),
        "detection.underload_in_dynso_share": share(
            sum(dur(i) for i in in_dynso)),
        "detection.underload_calls_per_slot": len(underload_all) / slots,
        "detection.underload_hosts_per_call": (
            sum(spans[i][4]["hosts"] for i in engine_underload)
            / max(1, len(engine_underload))),
        "policies.first_pass_ms_per_slot": per_slot_ms(first_s),
        "policies.drain_pass_ms_per_slot": per_slot_ms(drain_s),
        "policies.vms_per_call": sum(placer_vms) / max(1, len(placer_vms)),
        "policies.unplaced_vms": unplaced / runs,
        "policies.so_place_calls_per_slot": len(by_name["policies.so_place"]) / slots,
        "policies.dynso.eval_share": share(dynso_eval),
        "policies.dynso.distinct_ratio": distinct / kinds if kinds else 0.0,
        "cooling.setpoint_ms_per_slot": per_slot_ms(
            total("cooling.cooling_setpoint")),
        "report.artifacts_ms_per_run": 1e3 * total("report.write_run_artifacts") / runs,
    }
    if sa:
        metrics["annealer.share"] = share(sa_self)
        metrics["annealer.moves_per_s"] = budget / sa_self if sa_self > 0 else 0.0
    return metrics


def layer_shares(spans) -> dict[str, float]:
    """Self time per layer as a share of engine.run time; sums to 1."""
    children = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    out = defaultdict(float)
    engine_s = 0.0
    roots = set()
    for i, s in enumerate(spans):
        if s[0] == "engine.run":
            engine_s += s[2] - s[1]
            roots.add(i)
    for i, s in enumerate(spans):
        p = i
        while p >= 0 and p not in roots:
            p = spans[p][3]
        if p >= 0:
            out[s[0].split(".", 1)[0]] += s[2] - s[1] - children[i]
    return {k: v / engine_s for k, v in sorted(out.items())} if engine_s else {}
