"""Self-tests of the benchmark harness (not of dcsim).

    python3 bench/selftest.py

Runs each workload at its tiny size in this process, traced and untraced, in
a temporary directory under the repository's ``.bench_work``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import rep
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _repetition(work: Path, name: str, seed: int = 1, trace: bool = False) -> dict:
    spec = workloads.WORKLOADS[name].tiny()
    inputs = work / f"inputs-{name}-{seed}"
    if not inputs.exists():
        workloads.write_inputs(spec, seed, inputs)
    out = work / f"out-{name}-{seed}-{trace}"
    return rep.repetition({"workload": name, "seed": seed, "tiny": True,
                           "inputs": str(inputs), "out": str(out),
                           "trace": trace}, time.perf_counter())


def test_inputs_follow_the_seed(work: Path):
    from dcsim.report import workload_fingerprint
    for spec in workloads.WORKLOADS.values():
        spec = spec.tiny()
        prints = []
        for i, seed in enumerate((1, 1, 2)):
            d = work / f"seed-{spec.name}-{i}"
            workloads.write_inputs(spec, seed, d)
            prints.append(workload_fingerprint(workloads.build(spec, seed, d)))
        assert prints[0] == prints[1], spec.name
        assert prints[0] != prints[2], spec.name


def test_tracer_restores_originals(work: Path):
    from dcsim import core, engine
    import importlib

    def snapshot():
        snap = {}
        for _, module, attr, _ in tracer.TRACED:
            home = importlib.import_module(f"dcsim.{module}")
            snap[(module, attr)] = home.__dict__[attr]
            snap[("engine", attr)] = engine.__dict__.get(attr)
        for attr in ("copy", "refresh"):
            snap[("DataCenterState", attr)] = core.DataCenterState.__dict__[attr]
        return snap

    before = snapshot()
    _repetition(work, "fleet-dynso", trace=True)
    after = snapshot()
    assert all(before[k] is after[k] for k in before), [
        k for k in before if before[k] is not after[k]]


def test_tiny_workloads_pass_their_checks(work: Path):
    for name in workloads.WORKLOADS:
        plain = _repetition(work, name)
        traced = _repetition(work, name, trace=True)
        for res in (plain, traced):
            assert res["runs"], name
            assert all(not r["failures"] for r in res["runs"]), res["runs"]
        assert [r["totals"] for r in plain["runs"]] == \
            [r["totals"] for r in traced["runs"]], name
        expected = set(tracer.LAYER_METRICS) - {"trace.overhead_ratio"}
        if "sa" not in workloads.WORKLOADS[name].policies:
            expected = {m for m in expected if not m.startswith("annealer.")}
        assert set(traced["layers"]) == expected, name


def test_checks_catch_a_wrong_output(work: Path):
    from dcsim import engine, report
    spec = replace(workloads.WORKLOADS["day-mix"].tiny(), from_traces=False)
    w = workloads.build(spec, 1, None)
    cfg = workloads.config(spec, "pabfd")
    r = engine.run(w, cfg)
    whash = report.workload_fingerprint(w)
    out = report.write_run_artifacts(work / "wrong", r, cfg, whash)
    assert rep.check_run(r, cfg, w, out, whash) == []
    r.slots[3].e_cooling *= 1.001
    r.totals.migrations += 1
    fails = rep.check_run(r, cfg, w, out, whash)
    assert any("e_cooling" in f for f in fails), fails
    assert any("migrations" in f for f in fails), fails
    assert any("manifest" in f for f in fails), fails


def test_benchmark_json_matches_the_harness(work: Path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == [
        n for n in workloads.WORKLOADS if n not in workloads.NOT_LISTED]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        k: v for k, v in tracer.LAYER_METRICS.items()
        if not k.startswith("annealer.")}


def test_run_prints_one_json_result_line(work: Path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "fleet-dynso",
             "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in bench[key]}


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    failed = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
        t0 = time.perf_counter()
        try:
            test(work)
            print(f"ok    {name} ({time.perf_counter() - t0:.1f} s)")
        except Exception:
            failed += 1
            print(f"FAIL  {name}")
            traceback.print_exc()
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
