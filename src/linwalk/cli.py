"""Command-line front end: relax / gait / sweep / validate / maps.

Every command reads a YAML config (body parameters, optionally timing),
writes its outputs plus a run manifest into --out, and is deterministic
given (config, flags, seed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _fmt, economy_surface, parse_tds_policy, peak_line, sample_trajectory,
    write_economy_csv, write_peaks_csv, write_trajectory_csv,
)
from .gaits import (
    InfeasibleConstraintsError, NoRelaxTimeError, SCENARIOS, build_periodicity,
    find_relax_time, relax_scan, singular_spectrum, synthesize_gait,
)
from .model import ConfigError, LoadedConfig, StrideTiming, load_config
from .oracle import integrate_batch
from .transition import ControlDegeneracyError, dump_stride_maps, stride_maps

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_range(text: str, what: str) -> np.ndarray:
    """Parse 'start:step:stop' (inclusive stop) or a single number, all finite."""
    parts = text.split(":")
    try:
        values = [float(p) for p in parts]
        if not all(np.isfinite(values)):
            raise ValueError
        if len(parts) == 1:
            return np.array(values)
        if len(parts) == 3:
            a, h, b = values
            if h <= 0.0 or b < a:
                raise ValueError
            n = int(np.floor((b - a) / h + 1e-9)) + 1
            return a + h * np.arange(n)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad {what} range {text!r}: expected NUMBER or START:STEP:STOP")


def _number(what: str, positive: bool = False):
    """argparse type: a finite float, and a positive one if `positive`."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if np.isfinite(value) and (value > 0.0 or not positive):
            return value
        raise argparse.ArgumentTypeError(
            f"bad {what} {text!r}: expected a finite"
            f"{' positive' if positive else ''} number")
    return parse


def _count(what: str, minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value >= minimum:
            return value
        raise argparse.ArgumentTypeError(
            f"bad {what} {text!r}: expected an integer >= {minimum}")
    return parse


def _write_manifest(outdir: Path, command: str, config_path: str,
                    flags: dict, outputs: list[str], wall: float) -> None:
    config_text = Path(config_path).read_text()
    blob = json.dumps({"command": command, "config": config_text,
                       "flags": flags}, sort_keys=True)
    manifest = {
        "command": command,
        "config_path": str(config_path),
        "parameter_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": wall,
        "outputs": sorted(outputs),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _resolve_timing(cfg: LoadedConfig, freq: float | None,
                    tds_policy: str | None, speed: float | None) -> StrideTiming:
    if freq is None:
        return cfg.timing()
    T_stride = 1.0 / freq
    if tds_policy is not None:
        ratio = parse_tds_policy(tds_policy).ratio_at(speed if speed else 0.0)
    elif cfg.T_ds is not None and cfg.T_ss is not None:
        ratio = cfg.T_ds / (cfg.T_ds + cfg.T_ss)
    elif cfg.T_ds is not None and cfg.T_ds < T_stride:
        return StrideTiming(T_ds=cfg.T_ds, T_ss=T_stride - cfg.T_ds)
    else:
        raise ConfigError("cannot derive T_ds: give --tds-policy or config timing")
    return StrideTiming(T_ds=ratio * T_stride, T_ss=(1.0 - ratio) * T_stride)


def cmd_relax(args) -> int:
    cfg = load_config(args.config)
    if cfg.T_ds is None:
        raise ConfigError("relax needs T_ds in the config")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    bracket = (args.bracket_lo, args.bracket_hi)
    scan = relax_scan(cfg.params, cfg.T_ds, bracket)
    try:
        T_relax = find_relax_time(cfg.params, cfg.T_ds, bracket)
    except NoRelaxTimeError as exc:
        print(f"relax: {exc}", file=sys.stderr)
        return EXIT_FAIL
    system = build_periodicity(
        cfg.params, StrideTiming(T_ds=cfg.T_ds, T_ss=T_relax - cfg.T_ds))
    sv = singular_spectrum(system, "R1")

    scan_path = outdir / "relax_scan.csv"
    with open(scan_path, "w") as fh:
        fh.write("T_stride," + ",".join(f"sv{i}" for i in range(1, 8)) + "\n")
        for row in scan:
            fh.write(",".join(_fmt(x) for x in row) + "\n")

    print(f"T_relax = {T_relax:.6f} s (T_ds = {cfg.T_ds:g}, "
          f"T_ss = {T_relax - cfg.T_ds:.6f})")
    print(f"smallest singular values at the root: {sv[-1]:.3e}, {sv[-2]:.3e} "
          f"(largest {sv[0]:.3e})")
    _write_manifest(outdir, "relax", args.config,
                    {"bracket": list(bracket)}, [scan_path.name],
                    time.perf_counter() - t0)
    return EXIT_OK


def cmd_gait(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    timing = _resolve_timing(cfg, args.freq, args.tds_policy, args.speed)
    if args.scenario == "pseudo-passive":
        T_relax = find_relax_time(cfg.params, timing.T_ds,
                                  bracket=(timing.T_ds + 0.05, 1.6))
        timing = StrideTiming(T_ds=timing.T_ds, T_ss=T_relax - timing.T_ds)
    try:
        gait = synthesize_gait(cfg.params, timing, v_des=args.speed,
                               spec=args.scenario, foot_length=args.foot_length)
    except InfeasibleConstraintsError as exc:
        print(f"gait: {exc}", file=sys.stderr)
        return EXIT_FAIL

    samples = sample_trajectory(gait, n=args.samples)
    traj_path = outdir / "trajectory.csv"
    write_trajectory_csv(traj_path, samples)
    sol_path = outdir / "gait_solution.json"
    sol_path.write_text(gait.to_record())
    res_path = outdir / "residuals.txt"
    lines = [f"scenario: {gait.scenario}",
             f"v_des: {_fmt(gait.v_des)}",
             f"T_ds: {_fmt(gait.timing.T_ds)}",
             f"T_ss: {_fmt(gait.timing.T_ss)}"]
    lines += [f"{k}: {_fmt(v)}" for k, v in sorted(gait.diagnostics.items())]
    res_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    _write_manifest(outdir, "gait", args.config,
                    {"scenario": args.scenario, "speed": args.speed,
                     "freq": args.freq, "foot_length": args.foot_length,
                     "samples": args.samples, "tds_policy": args.tds_policy},
                    [traj_path.name, sol_path.name, res_path.name],
                    time.perf_counter() - t0)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    speeds = args.speed
    freqs = args.freq
    policy = parse_tds_policy(args.tds_policy)
    grid = economy_surface(cfg.params, speeds, freqs, policy,
                           workers=args.workers)
    econ_path = outdir / "economy.csv"
    write_economy_csv(econ_path, grid)
    peaks = peak_line(grid)
    peaks_path = outdir / "peaks.csv"
    write_peaks_csv(peaks_path, peaks)
    frac = float(np.mean(grid.feasible))
    print(f"feasible cells: {100.0 * frac:.1f}%")
    for p in peaks:
        print(f"peak v={p.speed:g}: f={p.frequency:.4f}"
              + (" (boundary)" if p.boundary else ""))
    _write_manifest(outdir, "sweep", args.config,
                    {"speed": speeds.tolist(), "freq": freqs.tolist(),
                     "tds_policy": args.tds_policy},
                    [econ_path.name, peaks_path.name],
                    time.perf_counter() - t0)
    return EXIT_OK if frac >= 0.9 else EXIT_FAIL


_VALIDATE_TOL = 1e-6


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    timing = cfg.timing()
    params = cfg.params
    rng = np.random.default_rng(args.seed)

    Q0 = np.zeros((args.trials, 23))
    Q0[:, 0:4] = rng.uniform(-0.5, 0.5, (args.trials, 4))
    Q0[:, 4:8] = rng.uniform(-1.0, 1.0, (args.trials, 4))
    Q0[:, 8:10] = rng.uniform(-0.3, 0.3, (args.trials, 2))
    Q0[:, 10:18] = rng.uniform(-20.0, 20.0, (args.trials, 8))
    Q0[:, 18:22] = rng.uniform(-30.0, 30.0, (args.trials, 4))
    Q0[:, 22] = rng.choice([-1.0, 1.0], args.trials)

    maps = stride_maps(params, timing)
    ds_ends = integrate_batch(params, timing, Q0, step=args.step, phase="double")
    ss_ends = integrate_batch(params, timing, Q0, step=args.step, phase="single")
    # the stride continues the double-support march into single support
    stride_ends = integrate_batch(params, timing, ds_ends, step=args.step,
                                  phase="single")
    results = {}
    for label, ends, H in (("double-support", ds_ends, maps.H_ds_end),
                           ("single-support", ss_ends, maps.ss.map_at(timing.T_ss)),
                           ("full-stride", stride_ends, maps.H_stride)):
        results[label] = float(np.max(np.abs(ends - Q0 @ H.T)))

    lines = [f"trials: {args.trials}", f"seed: {args.seed}",
             f"step: {_fmt(args.step)}"]
    lines += [f"max discrepancy {k}: {_fmt(v)}" for k, v in results.items()]
    worst = max(results.values())
    verdict = "PASS" if worst <= _VALIDATE_TOL else "FAIL"
    lines.append(f"verdict: {verdict} (tolerance {_fmt(_VALIDATE_TOL)})")
    report = "\n".join(lines) + "\n"
    report_path = outdir / "validate_report.txt"
    report_path.write_text(report)
    print(report, end="")
    _write_manifest(outdir, "validate", args.config,
                    {"seed": args.seed, "trials": args.trials, "step": args.step},
                    [report_path.name], time.perf_counter() - t0)
    return EXIT_OK if verdict == "PASS" else EXIT_FAIL


def cmd_maps(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    path = outdir / "stride_maps.json"
    dump_stride_maps(cfg.params, cfg.timing(), path)
    print(f"wrote {path}")
    _write_manifest(outdir, "maps", args.config, {}, [path.name],
                    time.perf_counter() - t0)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linwalk",
        description="Linear three-pendulum walking model: stride maps, "
                    "periodic gaits, and walking-economy analysis.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, default_out):
        p.add_argument("--config", required=True, help="YAML parameter file")
        p.add_argument("--out", default=default_out, help="output directory")

    p = sub.add_parser("relax", help="find the torque-free stride time")
    common(p, "out_relax")
    p.add_argument("--bracket-lo", type=_number("bracket end", positive=True),
                   default=0.4)
    p.add_argument("--bracket-hi", type=_number("bracket end", positive=True),
                   default=1.5)
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("gait", help="synthesize one periodic gait")
    common(p, "out_gait")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--speed", type=_number("speed"), required=True, help="m/s")
    p.add_argument("--freq", type=_number("frequency", positive=True),
                   default=None, help="steps/s")
    p.add_argument("--tds-policy", default=None, help="human or fixed:R")
    p.add_argument("--foot-length", type=_number("foot length"), default=0.24)
    p.add_argument("--samples", type=_count("sample count", 2), default=401)
    p.set_defaults(func=cmd_gait)

    p = sub.add_parser("sweep", help="economy over a speed x frequency grid")
    common(p, "out_sweep")
    p.add_argument("--speed", type=lambda s: _parse_range(s, "speed"),
                   required=True, help="START:STEP:STOP (m/s)")
    p.add_argument("--freq", type=lambda s: _parse_range(s, "frequency"),
                   required=True, help="START:STEP:STOP (steps/s)")
    p.add_argument("--tds-policy", default="human", help="human or fixed:R")
    p.add_argument("--workers", type=_count("worker count", 1), default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="closed-form maps vs RK4 integration")
    common(p, "out_validate")
    p.add_argument("--seed", type=_count("seed", 0), default=0)
    p.add_argument("--trials", type=_count("trial count", 1), default=100)
    p.add_argument("--step", type=_number("RK4 step", positive=True),
                   default=1e-5)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("maps", help="dump stride transition matrices as JSON")
    common(p, "out_maps")
    p.set_defaults(func=cmd_maps)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoRelaxTimeError, InfeasibleConstraintsError,
            ControlDegeneracyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
