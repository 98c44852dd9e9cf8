"""Command line interface: scenario runner, experiment grids, run comparison,
model calibration and synthetic-trace generation."""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import calibration, engine, report
from .config import ConfigError, apply_config, cooling_from_name, parse_config
from .engine import POLICY_NAMES, SimConfig
from .policies import SoKind
from .workload import (TraceError, Workload, load_traces, save_traces,
                       synth_workload, variability_score)


def _parse_synth(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad --synth element {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    kwargs = dict(vms=int(out.pop("vms", 50)), slots=int(out.pop("slots", 288)),
                  variability=float(out.pop("var", out.pop("variability", 280))),
                  seed=int(out.pop("seed", 0)))
    if out:
        raise ConfigError(f"unknown synth keys: {sorted(out)}")
    return kwargs


def _load_workload(args) -> Workload:
    if args.traces:
        return load_traces(args.traces, args.fill)
    if args.synth:
        return synth_workload(**_parse_synth(args.synth))
    raise ConfigError("one of --traces or --synth is required")


def _build_config(args) -> SimConfig:
    """SimConfig's defaults, then the config file's values, then the flags':
    flags win over file values."""
    cfg = SimConfig()
    if args.config:
        cfg = apply_config(cfg, parse_config(args.config))
    flags = {"run.hosts": args.hosts, "run.policy": args.policy,
             "run.cooling": args.cooling, "sa.iterations": args.sa_iterations,
             "sa.k": args.sa_k, "sa.seed": args.sa_seed, "sa.timecap": args.sa_timecap}
    if args.sosa_model:
        params = json.loads(Path(args.sosa_model).read_text())
        for name in ("a3", "a6", "c"):
            if not isinstance(params, dict) or params.get(name) is None:
                raise ConfigError(f"{args.sosa_model}: no coefficient {name!r}")
            flags[f"sosa.{name}"] = params[name]
    return apply_config(cfg, {key: value for key, value in flags.items()
                              if value is not None})


def _add_run_args(p: argparse.ArgumentParser, policy_required: bool = True):
    p.add_argument("--traces", help="directory of per-VM trace files")
    p.add_argument("--synth", help='synthetic spec, e.g. "vms=50,slots=288,var=280,seed=7"')
    p.add_argument("--fill", choices=("ffill", "drop"), default="ffill",
                   help="gap policy for loaded traces")
    p.add_argument("--hosts", type=int, default=None)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sa-iterations", type=int, default=None)
    p.add_argument("--sa-k", type=float, default=None)
    p.add_argument("--sa-seed", type=int, default=None)
    p.add_argument("--sa-timecap", type=float, default=None)
    p.add_argument("--sosa-model", help="JSON coefficient file from 'calibrate'")
    if policy_required:
        p.add_argument("--policy", choices=POLICY_NAMES, required=True)
        p.add_argument("--cooling", default=None,
                       help="fixed291 | fixed297 | varinlet | fixed<K> "
                            "(default fixed291)")


def _run_one(workload: Workload, cfg: SimConfig, out_dir: str) -> dict:
    rep = engine.run(workload, cfg)
    whash = report.workload_fingerprint(workload)
    report.write_run_artifacts(out_dir, rep, cfg, whash)
    return report.manifest_dict(rep, cfg, whash)


def cmd_run(args) -> int:
    cfg = _build_config(args)
    workload = _load_workload(args)
    manifest = _run_one(workload, cfg, args.out)
    t = manifest["totals"]
    print(f"{cfg.policy} / {manifest['cooling']}: "
          f"IT {t['e_it_kwh']:.2f} kWh, cooling {t['e_cooling_kwh']:.2f} kWh, "
          f"boot {t['e_boot_kwh']:.2f} kWh, total {t['energy_kwh']:.2f} kWh, "
          f"PUE {manifest['pue']:.4f}")
    return 0


def _set_grid_workload(workload: Workload) -> None:
    # a grid worker's initializer: the workload crosses to each worker once
    global _grid_workload
    _grid_workload = workload


def _grid_worker(job):
    return _run_one(_grid_workload, *job)


def cmd_grid(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    coolings = [c.strip() for c in args.coolings.split(",") if c.strip()]
    base = _build_config(args)
    jobs = []
    for p in policies:
        for c in coolings:
            cfg = replace(base, policy=p, cooling=cooling_from_name(c))
            jobs.append((cfg, str(Path(args.out) / f"{p}_{c}")))
    workload = _load_workload(args)

    workers = min(int(os.environ.get("DCSIM_THREADS", os.cpu_count() or 1)),
                  len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_set_grid_workload,
                                 initargs=(workload,)) as pool:
            manifests = list(pool.map(_grid_worker, jobs))
    else:
        manifests = [_run_one(workload, *job) for job in jobs]

    by_key = {(m["policy"], m["cooling"]): m for m in manifests}
    header = ["policy"] + [f"{metric}_{c}" for metric in (
        "energy_kwh", "avg_sla_1e-4_pct", "migrations") for c in coolings]
    lines = [",".join(header)]
    for p in policies:
        ms = [by_key[(p, c)] for c in coolings]
        lines.append(",".join(
            [p] + [f"{m['totals']['energy_kwh']:.2f}" for m in ms]
            + [f"{m['avg_sla'] * 1e6:.2f}" for m in ms]
            + [str(m["totals"]["migrations"]) for m in ms]))
    table = "\n".join(lines) + "\n"
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / "comparison.csv").write_text(table)
    print(table, end="")
    return 0


def cmd_compare(args) -> int:
    baseline = report.load_manifest(args.baseline)
    others = [report.load_manifest(r) for r in args.runs]
    table = report.compare_table(baseline, others)
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table)
    return 0


def _read_calib_log(run_dir) -> tuple[list[float], list[float], dict]:
    run_dir = Path(run_dir)
    manifest = report.load_manifest(run_dir)
    values, energies = [], []
    for line in (run_dir / "calib.csv").read_text().splitlines()[1:]:
        _, v, e = line.split(",")
        values.append(float(v))
        energies.append(float(e))
    return values, energies, manifest


def cmd_calibrate(args) -> int:
    v_sa, e_sa, m_sa = _read_calib_log(args.sa_run)
    v3, e3, m3 = _read_calib_log(args.so3_run)
    v6, e6, m6 = _read_calib_log(args.so6_run)
    for m in (m3, m6):
        if m["workload_hash"] != m_sa["workload_hash"]:
            raise ConfigError("calibration runs were produced from different workloads")
    records = calibration.collect_training(
        (v_sa, e_sa), {SoKind.SO3: (v3, e3), SoKind.SO6: (v6, e6)})
    if not records:
        print("warning: annealer never beat the BFD runs; nothing to fit",
              file=sys.stderr)
        return 1
    model, fit = calibration.fit_sosa(records)
    out = {
        "a3": model.a3, "a6": model.a6, "c": model.c,
        "train_error_pct": fit.train_error_pct,
        "test_error_pct": fit.test_error_pct,
        "n_train": fit.n_train, "n_test": fit.n_test,
    }
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"fitted a3={model.a3:.4f} a6={model.a6:.4f} c={model.c:.4f} "
          f"(train {fit.train_error_pct:.2f} %, test {fit.test_error_pct:.2f} %)")
    return 0


def cmd_synth(args) -> int:
    w = synth_workload(vms=args.vms, slots=args.slots,
                       variability=args.variability, seed=args.seed)
    save_traces(w, args.out)
    print(f"wrote {w.vm_count} trace files ({w.slot_count} slots, "
          f"variability {variability_score(w):.1f} %) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcsim",
        description="Data-center computing+cooling energy management simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one policy/cooling scenario")
    _add_run_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="run a policies x coolings grid")
    _add_run_args(p_grid, policy_required=False)
    p_grid.add_argument("--policies", required=True,
                        help="comma-separated policy list")
    p_grid.add_argument("--coolings", required=True,
                        help="comma-separated cooling list")
    p_grid.set_defaults(func=cmd_grid, policy=None, cooling=None)

    p_cmp = sub.add_parser("compare", help="savings of runs against a baseline run")
    p_cmp.add_argument("--baseline", required=True, help="baseline run directory")
    p_cmp.add_argument("runs", nargs="+", help="run directories to compare")
    p_cmp.add_argument("--out", help="write the table to this file")
    p_cmp.set_defaults(func=cmd_compare)

    p_cal = sub.add_parser("calibrate",
                           help="fit the composite model from run logs")
    p_cal.add_argument("--sa-run", required=True)
    p_cal.add_argument("--so3-run", required=True)
    p_cal.add_argument("--so6-run", required=True)
    p_cal.add_argument("--out", required=True, help="output JSON model file")
    p_cal.set_defaults(func=cmd_calibrate)

    p_syn = sub.add_parser("synth", help="generate synthetic trace files")
    p_syn.add_argument("--vms", type=int, required=True)
    p_syn.add_argument("--slots", type=int, required=True)
    p_syn.add_argument("--variability", type=float, required=True)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", required=True)
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceError, ConfigError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
