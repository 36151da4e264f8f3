"""Command-line interface: outputs, manifests, determinism, exit codes."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from linwalk.cli import main
from linwalk.gaits import InfeasibleConstraintsError


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
    rows and trajectory both come from the flow pieces."""
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
    assert econ[0] == "speed,frequency,tds_ratio,economy,feasible"
    assert len(econ) == 1 + 2 * 4
    assert (out / "peaks.csv").exists()


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


def test_sweep_zero_frequency_exit_1(adult_config, tmp_path, capsys):
    rc = run(["sweep", "--config", adult_config, "--speed", "1.4",
              "--freq", "0:1:2", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "error: frequency 0.0" in capsys.readouterr().err


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
])
def test_bad_flag_exit_2_names_flag(adult_config, tmp_path, capsys, argv):
    """Bad numeric flags are refused at parse time, naming the flag, before
    any gait is synthesized or any bracket scanned."""
    with pytest.raises(SystemExit) as err:
        run([*argv, "--config", adult_config, "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
      "foot_length": 0.24, "samples": 41, "tds_policy": None}),
    (("sweep", "--speed", "1.5:0.25:1.75", "--freq", "1.5:0.25:2.0"),
     {"speed": [1.5, 1.75], "freq": [1.5, 1.75, 2.0], "tds_policy": "human"}),
    (("validate", "--trials", "3", "--step", "2e-4"),
     {"seed": 0, "trials": 3, "step": 2e-4}),
    (("maps",), {}),
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
