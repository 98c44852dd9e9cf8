import json
import os
from dataclasses import replace

import pytest

from dcsim import cli
from dcsim.cli import main
from dcsim.config import ConfigError
from dcsim.report import savings_pct, workload_fingerprint
from dcsim.workload import load_traces, save_traces, synth_workload


def run_cli(*args):
    return main(list(args))


def test_run_writes_artifacts_and_is_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["run", "--policy", "pabfd", "--cooling", "fixed291",
            "--synth", "vms=12,slots=10,var=120,seed=7", "--hosts", "6"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("slots.csv", "summary.csv", "manifest.json", "calib.csv"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["policy"] == "pabfd"
    assert manifest["cooling"] == "fixed291"
    assert manifest["totals"]["energy_kwh"] > 0


def test_calib_csv_rows_are_the_slot_energies(tmp_path):
    # each row pairs the slot's mean consolidation value with its IT plus
    # cooling energy, both to the last digit; the summary row is the policy
    from dcsim.engine import SimConfig, run
    from dcsim.report import write_run_artifacts

    w = synth_workload(vms=12, slots=10, variability=120.0, seed=7)
    cfg = SimConfig(hosts=6, policy="pabfd")
    r = run(w, cfg)
    out = write_run_artifacts(tmp_path / "r", r, cfg, workload_fingerprint(w))
    header, *rows = (out / "calib.csv").read_text().splitlines()
    assert header == "slot,norm_value_mean,e_total_kwh"
    assert len(r.slots) == 10
    assert rows == [f"{t},{r.calib_values[t]!r},{(m.e_it + m.e_cooling)!r}"
                    for t, m in enumerate(r.slots)]
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("pabfd,")


def test_run_missing_trace_dir_exits_2(tmp_path, capsys):
    rc = run_cli("run", "--policy", "pabfd", "--cooling", "fixed291",
                 "--traces", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_run_requires_workload_source(tmp_path):
    rc = run_cli("run", "--policy", "pabfd", "--cooling", "fixed291",
                 "--out", str(tmp_path / "o"))
    assert rc == 2


def test_grid_runs_cross_product(tmp_path, monkeypatch):
    monkeypatch.setenv("DCSIM_THREADS", "1")
    out = tmp_path / "grid"
    rc = run_cli("grid", "--policies", "pabfd,so6", "--coolings",
                 "fixed291,varinlet", "--synth", "vms=10,slots=8,var=100,seed=3",
                 "--hosts", "5", "--out", str(out))
    assert rc == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["pabfd_fixed291", "pabfd_varinlet", "so6_fixed291",
                    "so6_varinlet"]
    table = (out / "comparison.csv").read_text().splitlines()
    assert len(table) == 3  # header + 2 policies
    assert table[0].startswith("policy,energy_kwh_fixed291,energy_kwh_varinlet")


def test_grid_pool_writes_what_the_serial_grid_writes(tmp_path, monkeypatch):
    args = ["grid", "--policies", "pabfd,so6", "--coolings", "fixed291,varinlet",
            "--synth", "vms=10,slots=8,var=100,seed=3", "--hosts", "5"]
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("DCSIM_THREADS", threads)
        outs.append(tmp_path / f"threads{threads}")
        assert run_cli(*args, "--out", str(outs[-1])) == 0
    serial, pooled = outs
    runs = sorted(p.name for p in serial.iterdir() if p.is_dir())
    assert runs == sorted(p.name for p in pooled.iterdir() if p.is_dir())
    assert len(runs) == 4
    for name in ["comparison.csv", *(f"{r}/manifest.json" for r in runs)]:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


def test_compare_savings_table(tmp_path, monkeypatch):
    monkeypatch.setenv("DCSIM_THREADS", "1")
    synth = "vms=10,slots=8,var=100,seed=3"
    for policy, out in (("pabfd", "base"), ("so6", "other")):
        assert run_cli("run", "--policy", policy, "--cooling", "fixed291",
                       "--synth", synth, "--hosts", "5",
                       "--out", str(tmp_path / out)) == 0
    rc = run_cli("compare", "--baseline", str(tmp_path / "base"),
                 str(tmp_path / "other"), "--out", str(tmp_path / "cmp.csv"))
    assert rc == 0
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert lines[1].endswith(",0.00")  # baseline vs itself
    base = json.loads((tmp_path / "base" / "manifest.json").read_text())
    other = json.loads((tmp_path / "other" / "manifest.json").read_text())
    expected = savings_pct(base["totals"]["energy_kwh"],
                           other["totals"]["energy_kwh"])
    assert lines[2].endswith(f"{expected:.2f}")


def test_compare_rejects_workload_mismatch(tmp_path):
    for synth, out in (("vms=10,slots=8,var=100,seed=3", "a"),
                       ("vms=10,slots=8,var=100,seed=4", "b")):
        assert run_cli("run", "--policy", "pabfd", "--cooling", "fixed291",
                       "--synth", synth, "--hosts", "5",
                       "--out", str(tmp_path / out)) == 0
    rc = run_cli("compare", "--baseline", str(tmp_path / "a"), str(tmp_path / "b"))
    assert rc == 2


def test_published_savings_arithmetic():
    # reference totals: 212.58 vs baselines 222.32 / 236.27; the published
    # percentages carry display rounding of the unrounded run totals
    assert savings_pct(222.32, 212.58) == pytest.approx(4.38, abs=0.02)
    assert savings_pct(236.27, 212.58) == pytest.approx(10.02, abs=0.02)
    assert savings_pct(100.0, 100.0) == 0.0


def test_synth_subcommand_and_traces_roundtrip(tmp_path):
    traces = tmp_path / "traces"
    rc = run_cli("synth", "--vms", "8", "--slots", "12", "--variability", "150",
                 "--seed", "2", "--out", str(traces))
    assert rc == 0
    assert len(list(traces.glob("*.csv"))) == 8
    out = tmp_path / "run"
    rc = run_cli("run", "--policy", "so3", "--cooling", "fixed297",
                 "--traces", str(traces), "--hosts", "5", "--out", str(out))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["slots"] == 12


def test_trace_grid_comes_from_the_timestamps(tmp_path, monkeypatch):
    # one 48-slot workload written on a 600 s and on a 300 s grid
    monkeypatch.setenv("DCSIM_THREADS", "1")
    w = synth_workload(vms=8, slots=48, variability=150.0, seed=2)
    save_traces(w, tmp_path / "t300")
    save_traces(replace(w, slot_seconds=600), tmp_path / "t600")
    common = ["--policy", "pabfd", "--cooling", "fixed291", "--hosts", "5"]
    for name in ("t300", "t600"):
        assert run_cli("run", *common, "--traces", str(tmp_path / name),
                       "--out", str(tmp_path / f"run{name}")) == 0

    def rows(name):
        text = (tmp_path / name / "slots.csv").read_text()
        return [line.split(",") for line in text.splitlines()[1:]]

    long, short = rows("runt600"), rows("runt300")
    assert len(long) == len(short) == 48
    # the same placements, each slot charged for 600 s: twice the IT and
    # cooling energy of a 300 s slot wherever no migration adds its own
    assert [r[4] for r in long] == [r[4] for r in short]
    still = [(a, b) for a, b in zip(long, short) if a[4] == "0"]
    assert still
    for a, b in still:
        assert (float(a[1]), float(a[2])) == (2 * float(b[1]), 2 * float(b[2]))
    # the library reads a directory on the grid the run uses
    manifest = json.loads((tmp_path / "runt300" / "manifest.json").read_text())
    assert manifest["workload_hash"] == \
        workload_fingerprint(load_traces(tmp_path / "t300"))
    # the grid reads its directory the same way
    assert run_cli("grid", "--policies", "pabfd", "--coolings", "fixed291",
                   "--hosts", "5", "--traces", str(tmp_path / "t600"),
                   "--out", str(tmp_path / "grid")) == 0
    assert (tmp_path / "grid" / "pabfd_fixed291" / "manifest.json").read_bytes() == \
        (tmp_path / "runt600" / "manifest.json").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.policy = so6\n"
                   "run.cooling = fixed297\n"
                   "models.c_mem = 1.8e-3\n"
                   "detection.history_window = 6\n"
                   "# comment line\n")
    out = tmp_path / "o"
    # flag overrides the config's policy; cooling comes from the file
    rc = run_cli("run", "--policy", "pabfd", "--config", str(cfg),
                 "--synth", "vms=8,slots=6,var=80,seed=1", "--hosts", "4",
                 "--out", str(out))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["policy"] == "pabfd"
    assert manifest["cooling"] == "fixed297"


def test_flags_win_over_config_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.hosts = 7\nrun.policy = so6\nrun.cooling = fixed297\n"
                   "sa.iterations = 10\nsa.k = 0.5\nsa.seed = 1\nsa.timecap = 2.0\n"
                   "sosa.a3 = 1.0\nsosa.a6 = 2.0\nsosa.c = 3.0\n"
                   "detection.history_window = 6\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"a3": 0.25, "a6": 0.5, "c": 0.75}))
    args = cli.build_parser().parse_args([
        "run", "--config", str(cfg), "--out", str(tmp_path / "o"),
        "--hosts", "50", "--policy", "pabfd", "--cooling", "fixed291",
        "--sa-iterations", "20", "--sa-k", "0.25", "--sa-seed", "3",
        "--sa-timecap", "4.0", "--sosa-model", str(model)])
    built = cli._build_config(args)
    assert (built.hosts, built.policy, built.cooling.setpoint) == (50, "pabfd", 291.0)
    assert (built.sa.iterations, built.sa.k, built.sa.seed,
            built.sa.wall_time_cap) == (20, 0.25, 3, 4.0)
    assert (built.sosa.a3, built.sosa.a6, built.sosa.c) == (0.25, 0.5, 0.75)
    # a key no flag sets keeps the file's value
    assert built.mad.history_window == 6


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("run.bogus = 1\n")
    rc = run_cli("run", "--policy", "pabfd", "--config", str(cfg),
                 "--synth", "vms=4,slots=4,var=50,seed=0",
                 "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_calibrate_pipeline(tmp_path, monkeypatch):
    monkeypatch.setenv("DCSIM_THREADS", "1")
    synth = "vms=12,slots=40,var=200,seed=5"
    common = ["--synth", synth, "--hosts", "6", "--sa-iterations", "4000",
              "--cooling", "fixed291"]
    for policy in ("sa", "so3", "so6"):
        assert run_cli("run", "--policy", policy, *common,
                       "--out", str(tmp_path / policy)) == 0
    model_file = tmp_path / "model.json"
    rc = run_cli("calibrate", "--sa-run", str(tmp_path / "sa"),
                 "--so3-run", str(tmp_path / "so3"),
                 "--so6-run", str(tmp_path / "so6"), "--out", str(model_file))
    assert rc == 0
    params = json.loads(model_file.read_text())
    assert set(params) >= {"a3", "a6", "c", "train_error_pct", "test_error_pct"}
    # the fitted file is consumable by the composite policy
    rc = run_cli("run", "--policy", "sosa", "--sosa-model", str(model_file),
                 "--synth", synth, "--hosts", "6", "--out", str(tmp_path / "sosa"))
    assert rc == 0


def test_config_fingerprint_covers_the_whole_config():
    from dataclasses import replace

    from dcsim.cooling import VarInletCooling
    from dcsim.engine import SimConfig
    from dcsim.report import config_fingerprint

    base = SimConfig(cooling=VarInletCooling())
    variants = [base, replace(base, max_drains_per_slot=2),
                replace(base, cooling=VarInletCooling(floor=292.0))]
    assert len({config_fingerprint(c) for c in variants}) == 3
    assert config_fingerprint(SimConfig(cooling=VarInletCooling())) == \
        config_fingerprint(base)


def test_every_model_parameter_has_one_config_key():
    from dataclasses import fields, is_dataclass

    from dcsim.config import _KEYS
    from dcsim.models import ModelParams

    def leaves(params, prefix):
        for f in fields(params):
            value = getattr(params, f.name)
            if is_dataclass(value):
                yield from leaves(value, f"{prefix}.{f.name}")
            else:
                yield f"{prefix}.{f.name}"

    # a setting no key reaches cannot be set, and a config of two keys for
    # one setting could contradict itself
    targets = [path for _, path in _KEYS.values()]
    paths = list(leaves(ModelParams(), "models"))
    assert {path: targets.count(path) for path in paths} == dict.fromkeys(paths, 1)


@pytest.mark.parametrize("name", ["fixed283.1", "fixed313.2", "fixed400"])
def test_fixed_cooling_outside_the_cop_range_fails_at_parse_time(name):
    from dcsim.config import ConfigError, cooling_from_name

    with pytest.raises(ConfigError, match="outside"):
        cooling_from_name(name)
    assert cooling_from_name("fixed283.15").setpoint == 283.15
    assert cooling_from_name("fixed313.15").setpoint == 313.15


@pytest.mark.parametrize("name", ["fixedabc", "fixed", "fixed29l"])
def test_fixed_cooling_with_a_non_numeric_setpoint_fails_at_parse_time(name):
    from dcsim.config import ConfigError, cooling_from_name

    with pytest.raises(ConfigError, match="bad fixed setpoint"):
        cooling_from_name(name)


@pytest.mark.parametrize("key, value", [
    ("run.hosts", "12x"),
    ("detection.history_window", "3.5"), ("detection.safety", "2,5"),
    ("models.c_mem", "high"), ("sa.k", "0"), ("run.hosts", "0"),
    ("detection.safety", "nan"), ("detection.fallback_threshold", "nan"),
    ("detection.fallback_threshold", "0")])
def test_config_malformed_value_names_its_key(key, value):
    from dcsim.config import ConfigError, apply_config
    from dcsim.engine import SimConfig

    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        apply_config(SimConfig(), {key: value})


def test_config_malformed_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("run.hosts = 12x\n")
    rc = run_cli("run", "--policy", "pabfd", "--config", str(cfg),
                 "--synth", "vms=4,slots=4,var=50,seed=0",
                 "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "run.hosts" in capsys.readouterr().err


def assert_unknown_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "key.cfg"
    cfg.write_text(f"{key} = {value}\n")
    rc = run_cli("run", "--policy", "pabfd", "--config", str(cfg),
                 "--synth", "vms=4,slots=4,var=50,seed=0",
                 "--out", str(tmp_path / "o"))
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_slot_seconds_is_an_unknown_key(tmp_path, capsys):
    # the slot length is the workload's; a config cannot contradict it
    assert_unknown_key(tmp_path, capsys, "run.slot_seconds", 600)


@pytest.mark.parametrize("key, value", [("run.oversubscription", 0),
                                        ("run.migration_double_power", 1),
                                        ("models.fan_map", "linear")])
def test_config_dropped_switches_are_unknown_keys(tmp_path, capsys, key, value):
    # CPU is never a hard limit, every migration is charged and fans run at
    # the server's speed: no such switch exists, so setting one fails before
    # the run writes anything
    assert_unknown_key(tmp_path, capsys, key, value)


def test_zero_hosts_flag_exits_2(tmp_path, capsys):
    rc = run_cli("run", "--policy", "pabfd", "--hosts", "0",
                 "--synth", "vms=4,slots=4,var=50,seed=0",
                 "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "hosts" in capsys.readouterr().err


@pytest.mark.parametrize("model, named", [
    ({"a3": 0.1603, "c": 0.0102}, "'a6'"),
    ([0.1603, 0.7724, 0.0102], "model.json"),
    ({"a3": 0.1603, "a6": None, "c": 0.0102}, "'a6'"),
    ({"a3": 0.1603, "a6": [0.7724], "c": 0.0102}, "sosa.a6"),
])
def test_malformed_sosa_model_exits_2(tmp_path, capsys, model, named):
    # a coefficient file without a coefficient, or not a JSON object at
    # all, fails like any bad config: exit 2, before the run writes anything
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc = run_cli("run", "--policy", "sosa", "--sosa-model", str(path),
                 "--synth", "vms=4,slots=4,var=50,seed=0",
                 "--out", str(tmp_path / "o"))
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, message", [
    (["run", "--policy", "pabfd", "--hosts", "0"], "hosts must be >= 1"),
    (["grid", "--policies", "pabfd", "--coolings", "fixed291", "--hosts", "0"],
     "hosts must be >= 1"),
    (["grid", "--policies", "pabfd,bogus", "--coolings", "fixed291"],
     "unknown policy 'bogus'"),
    (["grid", "--policies", "pabfd", "--coolings", "fixed291,chilly"],
     "chilly"),
])
def test_config_errors_are_reported_before_the_workload_loads(
        tmp_path, capsys, monkeypatch, args, message):
    def load(args):
        raise ConfigError("the workload was loaded")
    monkeypatch.setattr(cli, "_load_workload", load)
    rc = run_cli(*args, "--synth", "vms=4,slots=4,var=50,seed=0",
                 "--out", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "the workload was loaded" not in err
