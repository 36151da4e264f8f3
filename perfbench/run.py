"""linwalk benchmark: one workload, one seed, from the root of a checkout.

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 15 --trace 0

Launches the workload process (``measure.py``) and times its set-up from
launch to the first timed op.  With ``--trace 0`` set-up runs SETUP_RUNS
times, half of the extra launches (which stop after set-up) before the
workload process and half after it, so that they sample the host at several
moments of the run; the median is reported with the end-to-end metrics; with ``--trace 1`` the process also runs a
traced and an untraced pass over its first ops and the per-layer metrics
are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details: sample counts, the tail latency where there are enough
ops, failures, the machine block, why the workload was chosen and which
end-to-end metric each layer should move.  Both are also written under
``perfbench/out/``.  Exits non-zero without a result if linwalk's sources
are missing or the workload process fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep-cold", "gait-batch", "relax-cold", "validate-rk4")
# set-up launches per --trace 0 run.  A launch is mostly imports (about
# 0.5-0.8 s) except on gait-batch, whose warm-up solves for the relaxed time
# (about 3.5 s), so it gets fewer to keep a run short.
SETUP_RUNS = {"sweep-cold": 7, "gait-batch": 4, "relax-cold": 7,
              "validate-rk4": 7}
DEADLINE_S = 170.0      # the whole run, all processes included


class WorkloadFailed(RuntimeError):
    pass


def launch(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Run one workload process; return (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkloadFailed(f"workload process exited with code {code}")
    if setup_only:
        return ready, None
    if last is None:
        raise WorkloadFailed("workload process printed no result")
    return ready, json.loads(last)


def tail(latencies_ms: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it (nearest
    rank); None when that would fall below the 90th."""
    n = len(latencies_ms)
    if n < 100:
        return None
    return {"value": sorted(latencies_ms)[n - 11], "unit": "ms",
            "percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end(result: dict, setups: list[float]) -> dict:
    """The bounded metrics.  The host's speed drifts by tens of percent
    within seconds, so op latency is reported as the median, over ops, of
    each step's time divided by the mean of the speed probes taken just
    before and after it (unit "cal": one probe slice).  The plain
    wall-clock figures are in `as_measured`."""
    return {
        "op_p50_cal": {"value": statistics.median(result["relative"]),
                       "unit": "cal"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def as_measured(result: dict) -> dict:
    """Plain wall-clock figures: throughput, median and tail latency."""
    lat_ms = [1000.0 * s for s in result["latencies_s"]]
    return {
        "ops_per_s": {"value": sum(result["units"]) / result["busy_s"],
                      "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms",
                      "samples": len(lat_ms)},
        "op_tail_ms": tail(lat_ms),
        "failed_frac": {"value": result["failed"] / result["attempted"],
                        "unit": "ratio"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="linwalk benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "linwalk" / "__init__.py").is_file():
        print(f"error: linwalk sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        extra = 0 if args.trace else SETUP_RUNS[args.workload] - 1
        setups = [launch(args, True, deadline)[0] for _ in range(extra // 2)]
        setup, result = launch(args, False, deadline)
        setups.append(setup)
        setups += [launch(args, True, deadline)[0]
                   for _ in range(extra - extra // 2)]
    except WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not result["relative"]:
        print("error: no op returned", file=sys.stderr)
        return 1

    # imported only now: they load linwalk, whose absence is reported above
    if args.trace:
        from measure import PER_LAYER
        metrics = {name: {"value": result["layers"][name],
                          "unit": per_layer_unit(name)} for name in PER_LAYER}
    else:
        metrics = end_to_end(result, setups)
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": w.why, "predictions": list(w.predictions),
        "as_measured": as_measured(result),
        "failures": result["failures"], "setup_runs_s": setups,
        "latencies_ms": [1000.0 * s for s in result["latencies_s"]],
        "probe_ms": [1000.0 * c for c in result["cal_s"]],
        "steps": result["steps"],
        "machine": result["machine"],
    }
    if args.trace:
        details["layers"] = result["layers"]
        details["spans_file"] = result["spans_file"]
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": line}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_frac", "_per_solve")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
