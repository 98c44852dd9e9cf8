"""dcsim benchmark: host time per simulated slot, set-up time and peak memory.

    python3 bench/run.py --workload day-mix --seed 1 --seconds 45 --trace 0

Each repetition runs in a fresh process (``rep.py``) with numpy limited to
one thread, so set-up time includes ``import dcsim`` and peak memory is the
repetition's own.  Repetitions repeat until ``--seconds`` is used up (at
least two).  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics instead, with the tracing overhead.

The last line of standard output is one JSON object with the metrics; the
lines before it are the same figures for a reader, with sample counts and
quartiles, plus a digest of the full-precision run totals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 2        # untraced repetitions per run, whatever --seconds says
SETUP_SAMPLES = 11  # set-up-only processes top the set-up samples up to this
TIME_CAP_S = 170.0  # a run must end within 180 s


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, tiny: bool = False):
        self.base = {"workload": workload, "seed": seed, "tiny": tiny,
                     "inputs": str(work / "inputs")}
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC),
                    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}
        self.count = 0

    def rep(self, timeout: float, **extra) -> dict | None:
        """Run one repetition process; None if it crashed or timed out."""
        self.count += 1
        req = {**self.base, "out": str(self.work / f"rep{self.count}"), **extra}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "rep.py"),
                                   json.dumps(req)], env=self.env, text=True,
                                  capture_output=True, timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            print(f"repetition {self.count} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"repetition {self.count} failed:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(runner: Runner, seconds: float, trace: bool) -> list[tuple[bool, dict | None]]:
    """Repetitions as (traced, result) until the time is used up."""
    start = time.monotonic()
    out = []
    while True:
        traced = trace and len(out) % 2 == 1
        now = time.monotonic()
        out.append((traced, runner.rep(start + TIME_CAP_S - now, trace=traced,
                                       spans=str(runner.work / "spans.jsonl"))))
        now = time.monotonic()
        per_rep = (now - start) / len(out)
        enough = len(out) >= (2 if trace else MIN_REPS) and len(out) % (1 + trace) == 0
        if enough and (now + per_rep > start + seconds
                       or now + per_rep > start + TIME_CAP_S):
            return out
        if now - start > TIME_CAP_S:
            return out


def slot_ms(result: dict) -> float:
    return 1e3 * sum(r["run_s"] for r in result["runs"]) / sum(
        r["slots"] for r in result["runs"])


def totals_digest(result: dict) -> str:
    blob = json.dumps([[r["policy"], r["totals"]] for r in result["runs"]],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def tally(reps, n_runs: int) -> tuple[int, int, list[str]]:
    """Runs attempted and failed, plus the failure messages.  A repetition
    whose totals differ from the first one's fails every run."""
    attempted = failed = 0
    msgs = []
    first = None
    for i, (traced, res) in enumerate(reps, 1):
        attempted += n_runs
        if res is None:
            failed += n_runs
            msgs.append(f"rep {i}: process failed")
            continue
        digest = totals_digest(res)
        first = first or digest
        if digest != first:
            failed += n_runs
            msgs.append(f"rep {i}{' (traced)' if traced else ''}: totals differ "
                        "from the first repetition's")
            continue
        for r in res["runs"]:
            if r["failures"]:
                failed += 1
                msgs += [f"rep {i} {r['policy']}: {f}" for f in r["failures"]]
    return attempted, failed, msgs


def _row(name, values, unit):
    q1, med, q3 = _quartiles(values)
    return f"  {name:<40} {med:>14.6g} {unit:<7} n={len(values):<3} q1={q1:.6g} q3={q3:.6g}"


def main(argv=None) -> int:
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="few-second sizes, for checking the harness")
    args = ap.parse_args(argv)

    if not (SRC / "dcsim" / "__init__.py").is_file():
        print(f"error: no dcsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = spec.tiny()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=ROOT / ".bench_work"))
    try:
        workloads.write_inputs(spec, args.seed, work / "inputs")
        runner = Runner(spec.name, args.seed, work, args.tiny)
        reps = run_reps(runner, args.seconds, bool(args.trace))
        untraced = [r for t, r in reps if not t and r is not None]
        setups = [r["setup_s"] for r in untraced]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - len(setups)):
                res = runner.rep(30.0, setup_only=True)
                if res is not None:
                    setups.append(res["setup_s"])
        if args.trace:
            (ROOT / ".bench_out").mkdir(exist_ok=True)
            spans_out = ROOT / ".bench_out" / f"spans-{spec.name}-seed{args.seed}.jsonl"
            if (work / "spans.jsonl").exists():
                shutil.move(work / "spans.jsonl", spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_runs = len(spec.policies)
    attempted, failed, msgs = tally(reps, n_runs)
    print(f"dcsim benchmark: workload {spec.name}, seed {args.seed}, "
          f"{spec.hosts} hosts, {spec.vms} VMs, {spec.slots} slots, "
          f"cooling {spec.cooling}, policies {','.join(spec.policies)}")
    for m in msgs:
        print(f"  FAILED {m}")
    if not untraced:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0

    slot_samples = [slot_ms(r) for r in untraced]
    print("end to end (median over repetitions):")
    print(_row("slot_ms", slot_samples, "ms"))
    print(f"  {'':<40} samples: {' '.join(f'{x:.4g}' for x in slot_samples)}")
    for i, policy in enumerate(spec.policies):
        print(_row(f"slot_ms[{policy}]", [
            1e3 * r["runs"][i]["run_s"] / r["runs"][i]["slots"] for r in untraced], "ms"))
    if setups:
        print(_row("setup_s", setups, "s"))
    print(_row("peak_rss_mb", [r["peak_rss_mb"] for r in untraced], "MB"))
    print(f"  {'runs':<40} {attempted:>14} count   (engine runs attempted)")
    print(f"  {'runs_failed':<40} {failed:>14} count   "
          f"(failure share {failed}/{attempted})")
    first = untraced[0]
    print(f"digest {spec.name}: totals sha256 {totals_digest(first)}, "
          f"workload_fingerprint {first['workload_hash']}")
    for r in first["runs"]:
        print(f"  {r['policy']}: {json.dumps(r['totals'], sort_keys=True)}")

    if args.trace:
        traced = [r for t, r in reps if t and r is not None]
        layers = {}
        if traced:
            print("per layer (median over traced repetitions):")
            for name in traced[0]["layers"]:
                values = [r["layers"][name] for r in traced]
                layers[name] = statistics.median(values)
                print(_row(name, values, LAYER_METRICS[name][0]))
            print("self time by layer, share of engine.run:")
            for name, share in traced[-1]["layer_shares"].items():
                print(f"  {name:<12} {100 * share:6.2f} %")
            overhead = statistics.median([slot_ms(r) for r in traced]) / \
                statistics.median(slot_samples)
            layers["trace.overhead_ratio"] = overhead
            print(f"tracing overhead: traced slot_ms / untraced slot_ms = {overhead:.4f}")
            print(f"spans of the last traced repetition: {spans_out.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]}
                   for k, v in layers.items()}
    else:
        metrics = {
            "slot_ms": {"value": statistics.median(slot_samples), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                [r["peak_rss_mb"] for r in untraced]), "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
