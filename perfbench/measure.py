"""One workload process: set-up, the timed closed loop, checks, and with
``--trace 1`` a traced and an untraced pass over the first ops again.

Prints ``READY`` once set-up is done (the parent times set-up up to that
line), then one JSON line with the raw measurements.  Run through
``perfbench/run.py``, which launches this file.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import calibrate
import spans
from workloads import WORKLOADS, out_dir, stride_cache_info

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0     # the seed the pinned reference outputs belong to
CAL_EVERY_S = 0.25   # op time between two machine-speed probes

# (layer, stats) on the result line of a traced run: every layer the
# benchmark names, each with its call count and its self time as a share of
# the traced op time ("self_frac").  A share, unlike seconds, is not moved
# by the host's speed, and it is 0 only where a workload never enters the
# layer.  Seconds (self_s, total_s) of every layer are in the details.
LAYER_STATS = (
    ("dynamics.extract", ("calls", "self_frac")),
    ("dynamics.solve_forces", ("calls", "self_frac")),
    ("transition.stride_maps", ("calls", "misses", "hit_ratio", "currsize",
                                "self_frac")),
    ("transition.expm", ("calls", "self_frac")),
    ("gaits.build_periodicity", ("calls", "self_frac")),
    ("gaits.relax", ("map_builds_per_solve",)),
    ("gaits.null_basis", ("calls", "self_frac")),
    ("gaits.solve_eqp", ("calls", "self_frac")),
    ("analysis.economy_cell", ("calls", "feasible_ratio")),
    ("analysis.work", ("calls", "self_frac")),
    ("analysis.propagate_states", ("calls", "self_frac")),
    ("analysis.sample_trajectory", ("calls", "self_frac")),
    ("analysis.csv", ("calls", "bytes", "self_frac")),
    ("oracle.integrate_batch", ("calls", "self_frac")),
    ("oracle", ("state_steps", "state_steps_per_s")),
    ("trace", ("overhead_frac", "coverage_frac")),
)
PER_LAYER = tuple(f"{layer}.{stat}" for layer, stats in LAYER_STATS
                  for stat in stats)


class Prober:
    """Machine-speed probes between linwalk calls, about once per
    CAL_EVERY_S of op time."""

    def __init__(self):
        self.cal: list[float] = []
        self._at = -CAL_EVERY_S

    def between(self, busy: float) -> int:
        """Probe if one is due; return the index of the latest probe."""
        if busy - self._at >= CAL_EVERY_S:
            self.cal.append(calibrate.probe())
            self._at = busy
        return len(self.cal) - 1


def run_op(w, inp, prober: Prober, busy: float, steps: list) -> object:
    """Run one op, appending (seconds, latest probe) per step to `steps`.

    A workload whose run_op is a generator yields between its linwalk
    calls; each stretch between yields is one step, and the machine may be
    probed there, outside the op's time.  Any other run_op is one step.
    """
    probe = prober.between(busy)
    t0 = time.perf_counter()
    try:
        got = w.run_op(inp)
        if not inspect.isgenerator(got):
            return got
        while True:
            try:
                next(got)
            except StopIteration as stop:
                return stop.value
            steps.append((time.perf_counter() - t0, probe))
            probe = prober.between(busy + sum(t for t, _ in steps))
            t0 = time.perf_counter()
    finally:
        # the last step, also when the op raises, so its time is counted
        steps.append((time.perf_counter() - t0, probe))


def run_pass(w, seconds: float | None = None, n_ops: int | None = None,
             tracer: spans.Tracer | None = None) -> dict:
    """Closed loop of ops until `seconds` of op time have passed, or
    exactly `n_ops` ops.  Only the linwalk calls of an op are timed; the
    machine's speed is probed between them and once at the end."""
    records = []
    prober = Prober()
    busy = 0.0
    hits = misses = currsize = 0
    k = 0
    while (busy < seconds) if n_ops is None else (k < n_ops):
        inp = w.op_input(k)
        w.before_op(k)
        h0, m0, _ = stride_cache_info()
        if tracer is not None:
            tracer.op = k
        out, error, steps = None, None, []
        try:
            out = run_op(w, inp, prober, busy, steps)
        except Exception as exc:    # no op of these workloads is expected to raise
            error = f"raised {type(exc).__name__}"
            traceback.print_exc()
        if tracer is not None:
            tracer.op = None
        latency = sum(t for t, _ in steps)
        h1, m1, size = stride_cache_info()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        currsize = max(currsize, size)
        busy += latency
        record = {"k": k, "latency_s": latency, "steps": steps, "error": error}
        if error is None:
            try:
                record.update(w.summarize(inp, out))
            except Exception as exc:
                record["error"] = f"summary raised {type(exc).__name__}"
                traceback.print_exc()
        records.append(record)
        k += 1
    prober.between(float("inf"))
    return {"records": records, "busy_s": busy, "cal_s": prober.cal,
            "relative": relative_times(records, prober.cal),
            "cache_hits": hits, "cache_misses": misses,
            "cache_currsize": currsize}


def relative_times(records: list[dict], cal: list[float]) -> list[float]:
    """Per op that returned: each step's time over the mean of the probes
    just before and after it, summed.  The unit is one probe ("cal").  An op
    that raised is a failed op and is left out, so a break never reads as a
    speed-up."""
    return [sum(t / (0.5 * (cal[p] + cal[p + 1])) for t, p in r["steps"])
            for r in records if r["error"] is None]


def check_records(w, records: list[dict],
                  reference: list[dict] | None) -> list[tuple[int, str]]:
    """(op, message) for every check an op fails.  An op that raised fails."""
    failures = []
    for rec in records:
        k = rec["k"]
        if rec["error"] is not None:
            failures.append((k, rec["error"]))
            continue
        ref = reference[k] if reference is not None and k < len(reference) else None
        failures += [(k, msg) for msg in w.check(rec, ref)]
    return failures


def load_reference(workload: str, seed: int) -> list[dict] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload]


def same_outputs(a: dict, b: dict) -> bool:
    strip = ("latency_s", "steps")
    return ({k: v for k, v in a.items() if k not in strip}
            == {k: v for k, v in b.items() if k not in strip})


def layer_metrics(tracer: spans.Tracer, traced: dict, untraced: dict) -> dict:
    """Every per-layer figure of one traced pass, by metric name."""
    table = spans.layer_table(tracer.spans)
    out = {}
    for name, row in sorted(table.items()):
        for stat, value in row.items():
            out[f"{name}.{stat}"] = value
        out[f"{name}.self_frac"] = row["self_s"] / traced["busy_s"]
    lookups = traced["cache_hits"] + traced["cache_misses"]
    out["transition.stride_maps.misses"] = traced["cache_misses"]
    out["transition.stride_maps.hit_ratio"] = (
        traced["cache_hits"] / lookups if lookups else 0.0)
    out["transition.stride_maps.currsize"] = traced["cache_currsize"]
    solves = table["gaits.find_relax_time"]["calls"]
    out["gaits.relax.map_builds_per_solve"] = (
        spans.count_under(tracer.spans, "gaits.build_periodicity",
                          "gaits.find_relax_time") / solves if solves else 0.0)
    cells = table["analysis.economy_cell"]
    out["analysis.economy_cell.feasible_ratio"] = (
        (cells["calls"] - cells["errors"]) / cells["calls"] if cells["calls"] else 0.0)
    records = traced["records"]
    out["analysis.csv.bytes"] = sum(r.get("csv_bytes", 0) for r in records)
    steps = sum(r.get("state_steps", 0) for r in records)
    out["oracle.state_steps"] = steps
    rk4_s = table["oracle.integrate_batch"]["total_s"]
    out["oracle.state_steps_per_s"] = steps / rk4_s if rk4_s else 0.0
    # both passes in probe units, so host drift between them cancels
    out["trace.overhead_frac"] = (sum(traced["relative"])
                                  / sum(untraced["relative"]) - 1.0)
    out["trace.coverage_frac"] = spans.top_level_time(tracer.spans) / traced["busy_s"]
    return out


def machine_block() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:   # show_config's layout varies across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed)
    try:
        w.warm()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        untraced = run_pass(w, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = untraced["records"]
        failures = check_records(w, records, load_reference(args.workload, args.seed))
        result = {
            "latencies_s": [r["latency_s"] for r in records],
            "units": [w.units(r) if r["error"] is None else 0 for r in records],
            "busy_s": untraced["busy_s"],
            "cal_s": untraced["cal_s"],
            "steps": [r["steps"] for r in records],
            "relative": untraced["relative"],
            "peak_rss_mb": rss_mb,
            "attempted": len(records),
            "machine": machine_block(),
        }
        if args.trace:
            # a fixed number of ops is traced, so counts repeat exactly for
            # a seed; the first pass also warms the process, so the overhead
            # is taken against a third, untraced pass over the same ops
            n_ops = min(len(records), w.trace_ops)
            w.reset()
            tracer = spans.Tracer()
            with spans.Wrapped(tracer):
                traced = run_pass(w, n_ops=n_ops, tracer=tracer)
            w.reset()
            again = run_pass(w, n_ops=n_ops)
            failures += [(a["k"], "traced output differs from untraced")
                         for a, b, c in zip(records, traced["records"],
                                            again["records"])
                         if not (same_outputs(a, b) and same_outputs(a, c))]
            result["layers"] = layer_metrics(tracer, traced, again)
            path = out_dir() / f"spans-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(
                [[s.name, s.start, s.end, s.parent, s.op, s.error]
                 for s in tracer.spans]))
            result["spans_file"] = str(path.relative_to(path.parents[2]))
        result["failed"] = len({k for k, _ in failures})
        result["failures"] = [f"op {k}: {msg}" for k, msg in failures]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        w.close()


if __name__ == "__main__":
    sys.exit(main())
