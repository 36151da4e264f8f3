"""Command-line interface: outputs, manifests, determinism, exit codes."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from linwalk.cli import main
from linwalk.gaits import SCENARIOS, InfeasibleConstraintsError


def run(argv):
    return main(argv)


def test_relax_command(adult_config, tmp_path, capsys):
    out = tmp_path / "relax"
    rc = run(["relax", "--config", adult_config, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "T_relax" in text
    T = float(text.split("=")[1].split("s")[0])
    assert 0.84 <= T <= 0.88
    scan = (out / "relax_scan.csv").read_text().splitlines()
    assert scan[0].startswith("T_stride,sv1")
    assert len(scan) > 10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "relax"
    assert len(manifest["parameter_hash"]) == 64
    assert "relax_scan.csv" in manifest["outputs"]


def test_cli_paths_leave_scipy_unimported():
    """The CLI, the relax solve and a stride-map build need no scipy
    module: the maps are closed form and Brent's method is in the stdlib."""
    import os
    import subprocess
    import sys
    import linwalk
    code = ("import sys\n"
            "import linwalk.cli\n"
            "from linwalk.gaits import find_relax_time\n"
            "from linwalk.model import StrideTiming, default_params\n"
            "from linwalk.transition import stride_maps\n"
            "find_relax_time(default_params('adult'), 0.3)\n"
            "stride_maps(default_params('adult'), StrideTiming(0.3, 0.56))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(linwalk.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_pool_and_masked_arrays_unloaded():
    """`import linwalk.cli` loads neither `numpy.ma` nor the process-pool
    modules, which only a sweep with --workers needs."""
    import os
    import subprocess
    import sys
    import linwalk
    code = ("import sys\n"
            "import linwalk.cli\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or\n"
            "             m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    src = str(Path(linwalk.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_relax_no_root_exits_nonzero(adult_config, tmp_path):
    rc = run(["relax", "--config", adult_config, "--out", str(tmp_path / "x"),
              "--bracket-lo", "1.0", "--bracket-hi", "1.2"])
    assert rc == 1


def test_bad_config_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("m1: 45.7\nwhatever: 1\n")
    rc = run(["relax", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "whatever" in capsys.readouterr().err


def test_gait_command_pseudo_passive(adult_config, tmp_path, capsys):
    out = tmp_path / "gait"
    rc = run(["gait", "--config", adult_config, "--scenario", "pseudo-passive",
              "--speed", "1.0", "--out", str(out), "--samples", "51"])
    assert rc == 0
    res = (out / "residuals.txt").read_text()
    assert "torque_norm" in res
    torque = float([ln for ln in res.splitlines()
                    if ln.startswith("torque_norm")][0].split(":")[1])
    assert torque <= 1e-6
    assert (out / "trajectory.csv").exists()
    record = json.loads((out / "gait_solution.json").read_text())
    assert record["scenario"] == "pseudo-passive"
    assert len(record["Q0"]) == 23


def test_gait_stage_walk_reports_lateral(adult_config, tmp_path):
    out = tmp_path / "stage"
    rc = run(["gait", "--config", adult_config, "--scenario", "stage-walk",
              "--speed", "1.0", "--freq", "1.5", "--out", str(out),
              "--samples", "41"])
    assert rc == 0
    res = (out / "residuals.txt").read_text()
    lat = float([ln for ln in res.splitlines()
                 if ln.startswith("max_lateral_com_speed")][0].split(":")[1])
    assert lat <= 1e-6


def test_gait_stage_walk_deterministic(adult_config, tmp_path):
    """Two runs of the stage-walk gait write the same bytes: its objective
    rows and trajectory both come from the closed-form states."""
    outs = [tmp_path / "s1", tmp_path / "s2"]
    for out in outs:
        assert run(["gait", "--config", adult_config, "--scenario", "stage-walk",
                    "--speed", "1.0", "--out", str(out)]) == 0
    for name in ("trajectory.csv", "gait_solution.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_command(adult_config, tmp_path):
    out = tmp_path / "sweep"
    rc = run(["sweep", "--config", adult_config,
              "--speed", "1.4:0.2:1.6", "--freq", "1.6:0.2:2.2",
              "--tds-policy", "human", "--out", str(out)])
    assert rc == 0
    econ = (out / "economy.csv").read_text().splitlines()
    assert econ[0] == "speed,frequency,tds_ratio,economy,feasible,reason"
    assert len(econ) == 1 + 2 * 4
    assert all(row.endswith(",1,") for row in econ[1:])   # feasible, no reason
    assert (out / "peaks.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["cells"] == {"feasible": 8}


def test_every_csv_output_ends_its_lines_in_crlf(adult_config, tmp_path):
    """relax_scan.csv, trajectory.csv, economy.csv and peaks.csv share one
    format: every line, header included, ends in CRLF, with no bare LF."""
    for argv in (["relax"],
                 ["gait", "--scenario", "stage-walk", "--speed", "1.0", "--samples", "11"],
                 ["sweep", "--speed", "1.4", "--freq", "1.6:0.2:1.8"]):
        assert run([*argv, "--config", adult_config, "--out", str(tmp_path / argv[0])]) == 0
    for name in ("relax/relax_scan.csv", "gait/trajectory.csv",
                 "sweep/economy.csv", "sweep/peaks.csv"):
        data = (tmp_path / name).read_bytes()
        lines = data.split(b"\r\n")
        assert lines[-1] == b"" and len(lines) > 2, name
        assert not any(b"\n" in line or b"\r" in line for line in lines), name


def test_sweep_reasons_in_csv_and_manifest(adult_config, tmp_path):
    """An infeasible cell carries its error's class name in economy.csv's
    reason column, and the manifest counts the cells per reason.  At
    -12 m/s the human law's share exceeds one: that whole row fails."""
    out = tmp_path / "sweep"
    rc = run(["sweep", "--config", adult_config, "--speed=-12:13:1",
              "--freq", "1.6:0.2:1.8", "--out", str(out)])
    assert rc == 1                           # under 90% feasible
    rows = [row.split(",") for row in (out / "economy.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[4], r[5]) for r in rows] == (
        [("-12", "0", "TdsRatioError")] * 2 + [("1", "1", "")] * 2)
    assert json.loads((out / "manifest.json").read_text())["cells"] == {
        "feasible": 2, "TdsRatioError": 2}


def test_sweep_empty_range_exit_2(adult_config, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["sweep", "--config", adult_config,
             "--speed", "2.0:0.1:1.0", "--freq", "1:0.1:2",
             "--out", str(tmp_path / "s")])
    assert err.value.code == 2


@pytest.mark.parametrize("flag, text", [
    ("--speed", "nan"), ("--freq", "inf"),
])
def test_sweep_non_finite_range_exit_2(adult_config, tmp_path, flag, text):
    argv = {"--speed": "1.4", "--freq": "1.8", flag: text}
    with pytest.raises(SystemExit) as err:
        run(["sweep", "--config", adult_config, *sum(argv.items(), ()),
             "--out", str(tmp_path / "s")])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--speed", "--freq"])
def test_sweep_range_of_too_many_values_exit_2(adult_config, tmp_path, capsys, flag):
    """A range that would expand to more than 10 000 values (a mistyped
    step) is refused at parse time, naming the flag, before --out exists."""
    argv = {"--speed": "1.4", "--freq": "1.8", flag: "0.8:1e-7:2.0"}
    with pytest.raises(SystemExit) as err:
        run(["sweep", "--config", adult_config, *sum(argv.items(), ()),
             "--out", str(tmp_path / "s")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {flag}: " in message and "more than 10000 values" in message
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command, flag", [("gait", "--samples"), ("validate", "--trials")])
def test_count_above_the_cap_exit_2(adult_config, tmp_path, capsys, command, flag):
    """--samples and --trials above 100 000 are refused at parse time, naming
    the cap, before --out exists and before anything is allocated; the cap
    itself is accepted."""
    from linwalk.cli import _MAX_COUNT, build_parser
    extra = ["--scenario", "minimal-torque", "--speed", "1.0"] if command == "gait" else []
    argv = [command, "--config", adult_config, *extra, "--out", str(tmp_path / "c")]
    with pytest.raises(SystemExit) as err:
        run(argv + [flag, "100001"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {flag}: " in message and "more than 100000" in message
    assert not (tmp_path / "c").exists()
    args = build_parser().parse_args(argv + [flag, str(_MAX_COUNT)])
    assert _MAX_COUNT == 100_000 and getattr(args, flag[2:]) == _MAX_COUNT


def test_sweep_more_workers_than_cpus_exit_2(adult_config, tmp_path, capsys,
                                             monkeypatch):
    """--workers above the CPUs this process may use is refused at parse
    time, before --out exists and before any worker process starts."""
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(SystemExit) as err:
        run(["sweep", "--config", adult_config, "--speed", "1.4", "--freq", "1.8",
             "--workers", "3", "--out", str(tmp_path / "s")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --workers: " in message and "more than the 2 usable CPUs" in message
    assert not (tmp_path / "s").exists()


def test_sweep_zero_frequency_exit_2(adult_config, tmp_path, capsys):
    """A frequency range reaching 0 is refused at parse time, before --out
    exists; economy_surface keeps its own check as the library boundary."""
    with pytest.raises(SystemExit) as err:
        run(["sweep", "--config", adult_config, "--speed", "1.4",
             "--freq", "0:1:2", "--out", str(tmp_path / "s")])
    assert err.value.code == 2
    assert "every frequency must be positive" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_validate_deterministic_and_passing(adult_config, tmp_path):
    out1 = tmp_path / "v1"
    out2 = tmp_path / "v2"
    rc1 = run(["validate", "--config", adult_config, "--trials", "5",
               "--seed", "7", "--step", "2e-4", "--out", str(out1)])
    rc2 = run(["validate", "--config", adult_config, "--trials", "5",
               "--seed", "7", "--step", "2e-4", "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    r1 = (out1 / "validate_report.txt").read_bytes()
    r2 = (out2 / "validate_report.txt").read_bytes()
    assert r1 == r2
    assert b"PASS" in r1


def test_validate_marches_each_phase_once(adult_config, tmp_path, monkeypatch):
    """Double support, single support, and single support again from the
    double-support ends for the full stride: three phase marches."""
    import linwalk.oracle as oracle
    calls = []
    real = oracle._rk4_phase

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_rk4_phase", counted)
    rc = run(["validate", "--config", adult_config, "--trials", "3",
              "--step", "2e-4", "--out", str(tmp_path / "v")])
    assert rc == 0
    assert len(calls) == 3


def test_validate_zero_trials_exit_2(adult_config, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["validate", "--config", adult_config, "--trials", "0",
             "--out", str(tmp_path / "v")])
    assert err.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf"])
def test_validate_bad_step_exit_2(adult_config, tmp_path, capsys, step):
    with pytest.raises(SystemExit) as err:
        run(["validate", "--config", adult_config, f"--step={step}",
             "--out", str(tmp_path / "v")])
    assert err.value.code == 2
    assert "--step" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--scenario", "minimal-torque", "--speed", "nan"),
    ("--scenario", "cop-modulated", "--speed", "1.0", "--foot-length", "nan"),
])
def test_gait_non_finite_flag_exit_2(adult_config, tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as err:
        run(["gait", "--config", adult_config, *flags,
             "--out", str(tmp_path / "g")])
    assert err.value.code == 2
    assert flags[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0", "--freq", "nan"),
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0", "--samples", "1"),
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0", "--samples", "0"),
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0", "--samples", "-5"),
    ("relax", "--bracket-lo", "nan"),
    ("relax", "--bracket-hi", "nan"),
    ("validate", "--seed", "-1"),
    ("validate", "--trials", "-3"),
    ("sweep", "--speed", "1.4", "--freq", "1.8", "--workers", "0"),
    ("sweep", "--speed", "1.4", "--freq", "1.8", "--workers", "-3"),
    ("sweep", "--speed", "1.0", "--freq", "1.8", "--tds-policy", "bogus"),
    ("sweep", "--speed", "1.0", "--freq", "1.8", "--tds-policy", "fixed:1.5"),
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0", "--freq", "1.8",
     "--tds-policy", "fixed:x"),
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0",
     "--tds-policy", "fixed:0.5"),
    ("relax", "--bracket-lo", "1.5", "--bracket-hi", "0.4"),
    ("relax", "--bracket-lo", "0.9", "--bracket-hi", "0.9"),
    ("sweep", "--freq", "1.8", "--speed", "0"),
    ("sweep", "--freq", "1.8", "--speed", "0:0.5:1.0"),
    ("sweep", "--speed", "1.0", "--freq", "0"),
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0", "--foot-length", "-1"),
    ("gait", "--scenario", "cop-modulated", "--speed", "1.0", "--foot-length", "-0.1"),
    *[("gait", "--scenario", tag, "--speed", "1.0", "--foot-length", "0.2")
      for tag in SCENARIOS if tag != "cop-modulated"],
    ("relax", "--bracket-lo", "0.4", "--bracket-hi", "50"),
])
def test_bad_flag_exit_2_names_flag(adult_config, tmp_path, capsys, argv):
    """Bad flags are refused at parse time, naming the flag, before any gait
    is synthesized or any bracket scanned; so are gait's --tds-policy
    without --freq and --foot-length outside cop-modulated, which it would
    not use, and a relax bracket wider than 2 s.  Each refusal shows the
    subcommand's usage, not the top-level one."""
    with pytest.raises(SystemExit) as err:
        run([*argv, "--config", adult_config, "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"error: argument {argv[-2]}:" in stderr
    assert f"usage: linwalk {argv[0]} " in stderr
    assert not (tmp_path / "o").exists()


def test_manifest_hashes_the_config_as_loaded(adult_config, tmp_path,
                                            monkeypatch):
    """A config removed while the command runs still gets its manifest, with
    the hash of the text that was loaded."""
    import linwalk.cli as cli
    plain = tmp_path / "plain"
    assert run(["maps", "--config", adult_config, "--out", str(plain)]) == 0
    config = tmp_path / "gone.yaml"
    config.write_text(Path(adult_config).read_text())
    dump = cli.dump_stride_maps

    def dump_then_remove(*args):
        dump(*args)
        config.unlink()

    monkeypatch.setattr(cli, "dump_stride_maps", dump_then_remove)
    out = tmp_path / "removed"
    assert run(["maps", "--config", str(config), "--out", str(out)]) == 0
    assert not config.exists()
    hashes = [json.loads((d / "manifest.json").read_text())["parameter_hash"]
              for d in (plain, out)]
    assert hashes[0] == hashes[1]


def test_maps_command(adult_config, tmp_path):
    out = tmp_path / "maps"
    rc = run(["maps", "--config", adult_config, "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "stride_maps.json").read_text())
    assert np.array(data["H_stride"]).shape == (23, 23)


def test_maps_at_control_degeneracy_exit_1(adult_config, tmp_path, capsys,
                                          hprime_crossing):
    cfg = Path(adult_config).read_text()
    cfg = cfg.replace("T_ds: 0.3", f"T_ds: {hprime_crossing.T_ds!r}")
    cfg = cfg.replace("T_ss: 0.56", f"T_ss: {hprime_crossing.T_ss!r}")
    bad = tmp_path / "crossing.yaml"
    bad.write_text(cfg)
    rc = run(["maps", "--config", str(bad), "--out", str(tmp_path / "m")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "m" / "stride_maps.json").exists()


def test_cop_modulated_default_foot_length_same_run(adult_config, tmp_path):
    """cop-modulated with no --foot-length is the run at 0.24 m: the same
    bytes and the same parameter hash, which records the length used."""
    outs = []
    for extra in ((), ("--foot-length", "0.24")):
        out = tmp_path / f"o{len(outs)}"
        assert run(["gait", "--config", adult_config, "--scenario", "cop-modulated",
                    "--speed", "1.0", *extra, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("trajectory.csv", "gait_solution.json", "residuals.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    first, second = (json.loads((out / "manifest.json").read_text()) for out in outs)
    assert first["parameter_hash"] == second["parameter_hash"]


def test_config_double_support_not_shorter_than_stride_exit_2(adult_config, tmp_path,
                                                              capsys):
    """A config T_ds that --freq leaves no single support for is named with
    the stride time, not reported as missing timing."""
    lines = [line for line in Path(adult_config).read_text().splitlines()
             if not line.startswith("T_ss:")]
    path = tmp_path / "tds.yaml"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    rc = run(["gait", "--config", str(path), "--scenario", "minimal-torque",
              "--speed", "1.0", "--freq", "4", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config T_ds 0.3 s is not shorter than the stride time 1/--freq = 0.25 s"]
    assert not (out / "manifest.json").exists()


def test_infeasible_scenario_exit_1(tmp_path, adult_config):
    # timing too short for the double-support doubling
    cfg = Path(adult_config).read_text().replace("T_ds: 0.3", "T_ds: 0.45")
    cfg = cfg.replace("T_ss: 0.56", "T_ss: 0.40")
    bad = tmp_path / "short.yaml"
    bad.write_text(cfg)
    rc = run(["gait", "--config", str(bad), "--scenario", "long-double-support",
              "--speed", "1.0", "--out", str(tmp_path / "g")])
    assert rc != 0


@pytest.mark.parametrize("key", ["m1", "T_ss"])
def test_non_finite_config_exit_2(adult_config, tmp_path, capsys, key):
    cfg = "\n".join(f"{key}: .nan" if line.startswith(key + ":") else line
                    for line in Path(adult_config).read_text().splitlines())
    bad = tmp_path / "nan.yaml"
    bad.write_text(cfg + "\n")
    rc = run(["maps", "--config", str(bad), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not (tmp_path / "m" / "stride_maps.json").exists()


def test_negative_timing_config_exit_2(adult_config, tmp_path, capsys):
    cfg = Path(adult_config).read_text().replace("T_ds: 0.3", "T_ds: -0.1")
    bad = tmp_path / "negative.yaml"
    bad.write_text(cfg)
    rc = run(["maps", "--config", str(bad), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "T_ds" in err
    assert not (tmp_path / "m" / "stride_maps.json").exists()


@pytest.mark.parametrize("key,value,other", [("T_ds", "-0.1", "T_ss"),
                                             ("T_ss", "0", "T_ds")])
def test_lone_non_positive_timing_config_exit_2(adult_config, tmp_path, capsys,
                                                key, value, other):
    """A timing key given without the other is checked as well: `relax`
    exits 2 with one line naming the config and the key."""
    lines = [f"{key}: {value}" if line.startswith(key + ":") else line
             for line in Path(adult_config).read_text().splitlines()
             if not line.startswith(other + ":")]
    path = tmp_path / "lone.yaml"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    rc = run(["relax", "--config", str(path), "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: config {path}: key {key!r} must be positive"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("maps",),
    ("relax",),
    ("gait", "--scenario", "minimal-torque", "--speed", "1.0"),
    ("validate", "--trials", "3", "--step", "2e-4"),
])
def test_degenerate_body_exit_1_one_error_line(adult_config, tmp_path, capsys,
                                               argv):
    """A body with z2 = 0 passes the config checks but its single-support
    balance system is singular: the named failure exits 1 with one line."""
    cfg = Path(adult_config).read_text().replace("z2: 0.32", "z2: 0")
    bad = tmp_path / "z2.yaml"
    bad.write_text(cfg)
    rc = run([*argv, "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "singular" in lines[0]
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_boolean_config_value_exit_2_one_error_line(adult_config, tmp_path, capsys):
    """`w: true` is rejected with one `error:` line, not read as w = 1.0."""
    lines = ["w: true" if line.startswith("w:") else line
             for line in open(adult_config).read().splitlines()]
    path = tmp_path / "boolean.yaml"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    rc = run(["gait", "--config", str(path), "--scenario", "minimal-torque",
              "--speed", "1.0", "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "key 'w' is not a number" in lines[0]
    assert not (out / "trajectory.csv").exists()


def test_repeated_config_key_exit_2_one_error_line(adult_config, tmp_path, capsys):
    """A key given twice is refused by name, not read as its last value."""
    path = tmp_path / "twice.yaml"
    path.write_text(Path(adult_config).read_text() + "m1: 4.57\n")
    out = tmp_path / "o"
    rc = run(["maps", "--config", str(path), "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0] == f"error: config {path}: key 'm1' is given twice"
    assert not out.exists()


def test_missing_config_exit_2_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    rc = run(["maps", "--config", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(missing) in lines[0]
    assert not (tmp_path / "o").exists()


def test_sweep_row_without_feasible_cell_writes_manifest(adult_config, tmp_path,
                                                          capsys):
    """A speed with no feasible cell gets a NaN boundary peak; the run
    writes both CSV files and its manifest and exits 1 on its verdict."""
    bad = tmp_path / "z2.yaml"
    bad.write_text(Path(adult_config).read_text().replace("z2: 0.32", "z2: 0"))
    out = tmp_path / "sweep"
    rc = run(["sweep", "--config", str(bad), "--speed", "1.0", "--freq", "1.8",
              "--out", str(out)])
    assert rc == 1
    assert "peak v=1: none (no feasible cell)" in capsys.readouterr().out
    assert (out / "economy.csv").exists()
    assert (out / "peaks.csv").read_text().splitlines()[1:] == ["1,nan,1"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["economy.csv", "peaks.csv"]


def test_relax_no_root_prints_one_error_line(adult_config, tmp_path, capsys):
    rc = run(["relax", "--config", adult_config, "--out", str(tmp_path / "x"),
              "--bracket-lo", "1.0", "--bracket-hi", "1.2"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: no stride time in (1.0, 1.2)")


def test_infeasible_gait_prints_one_error_line(adult_config, tmp_path, capsys,
                                               monkeypatch):
    """An infeasible constraint set prints the same `error:` line as every
    other named failure, naming its blocks, and writes no manifest."""
    import linwalk.cli as cli

    def infeasible(*args, **kwargs):
        raise InfeasibleConstraintsError(["ankle-torque", "cop-ramp"])

    monkeypatch.setattr(cli, "synthesize_gait", infeasible)
    out = tmp_path / "g"
    rc = run(["gait", "--config", adult_config, "--scenario", "minimal-torque",
              "--speed", "1.0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: infeasible constraint block(s): ankle-torque, cop-ramp"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, flags", [
    (("relax",), {"bracket": [0.4, 1.5]}),
    (("gait", "--scenario", "stage-walk", "--speed", "1.0", "--samples", "41"),
     {"scenario": "stage-walk", "speed": 1.0, "freq": None,
      "samples": 41, "tds_policy": None}),
    (("sweep", "--speed", "1.5:0.25:1.75", "--freq", "1.5:0.25:2.0"),
     {"speed": [1.5, 1.75], "freq": [1.5, 1.75, 2.0], "tds_policy": "human"}),
    (("validate", "--trials", "3", "--step", "2e-4"),
     {"seed": 0, "trials": 3, "step": 2e-4}),
    (("maps",), {}),
    (("gait", "--scenario", "cop-modulated", "--speed", "1.0", "--samples", "41"),
     {"scenario": "cop-modulated", "speed": 1.0, "freq": None,
      "foot_length": 0.24, "samples": 41, "tds_policy": None}),
])
def test_manifest_contract(adult_config, tmp_path, argv, flags):
    """Each command's manifest names exactly the files it wrote, its own
    subcommand, and the hash of (command, config text, recorded flags)."""
    out = tmp_path / "o"
    run([*argv, "--config", adult_config, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == written
    assert manifest["command"] == argv[0]
    blob = json.dumps({"command": argv[0],
                       "config": Path(adult_config).read_text(),
                       "flags": flags}, sort_keys=True)
    assert manifest["parameter_hash"] == hashlib.sha256(blob.encode()).hexdigest()
