"""Perf history: benchmark commits with each tree's own harness.

    python3 bench/history.py --out BENCH_16.json --seeds 3 8d2ec58 HEAD

Each commit is checked out as a detached `git worktree` under a temporary
directory.  Seed by seed, every workload runs that tree's own
`perfbench/run.py --trace 0`, the commits one after the other and the first
of them alternating from seed to seed, so that each pair of runs sees the
host in the same state.  Then the five README commands are launched from
each tree on the README's reference adult config, 5 times each, again
alternating, and their wall times are taken from launch to exit, with
each launch's peak RSS.  An 8633-cell sweep runs too, serial and with two
workers, because the worker pool wins only on grids that large, and so
does a 100 000-sample gait, whose 2.1 M-cell `trajectory.csv` is mostly
the table writer.  Last, one process per tree times, in process, a new
body's phase-ODE extraction (`dynamics._extract_ode`) and then its phase
template (`transition.phase_template`, the extraction cached), per phase,
on LAYER_BODIES bodies drawn from seed 0 as perfbench draws them.

The JSON file holds the machine block and, per commit, the median and
interquartile range of `op_p50_cal`, `setup_s` and `peak_rss_mb` per
workload (with every run's value, `correct` over all runs and the total
`failed`), the median wall, the exit codes and the median peak RSS of
each CLI command, and the median and interquartile range, in
microseconds, of each layer's time per phase.
The tool records numbers and asserts none.  Its worktrees are removed
when it finishes.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("sweep-cold", "gait-batch", "relax-cold", "validate-rk4")
METRICS = ("op_p50_cal", "setup_s", "peak_rss_mb")
SECONDS = 15        # BENCHMARK.json's run_seconds
LAUNCHES = 5        # per CLI command and commit
LAYER_BODIES = 200  # new bodies per tree for the layer timings
# times in one process a new body's extraction and then its template, per
# phase; prints {layer: {phase: [microseconds per body]}} as one JSON line
LAYER_SCRIPT = """
import json, sys, time
import numpy as np
from linwalk.dynamics import _extract_ode
from linwalk.model import default_params, scaled_body
from linwalk.transition import phase_template
rng = np.random.default_rng(0)
base = default_params("adult")
out = {"extract_ode": {"single": [], "double": []},
       "phase_template": {"single": [], "double": []}}
for k in range(10 + int(sys.argv[1])):       # the first 10 warm up
    body = scaled_body(base, float(rng.uniform(55.0, 85.0)), float(rng.uniform(0.9, 1.1)))
    for phase in ("single", "double"):
        for layer, call in (("extract_ode", _extract_ode), ("phase_template", phase_template)):
            t0 = time.perf_counter()
            call(body, phase)
            if k >= 10:
                out[layer][phase].append(1e6 * (time.perf_counter() - t0))
print(json.dumps(out))
"""
# the README's configuration file and its command-line examples
CONFIG = ("m1: 45.7\nm2: 12.15\nm3: 12.15\nz1: 0.89\nz2: 0.32\nz3: 0.36\n"
          "w: 0.20\ng: 9.81\nT_ds: 0.3\nT_ss: 0.56\n")
CLI = {
    "relax": ["relax"],
    "gait": ["gait", "--scenario", "pseudo-passive", "--speed", "1.0"],
    "sweep": ["sweep", "--speed", "0.8:0.05:2.0", "--freq", "0.8:0.05:3.0",
              "--tds-policy", "human"],
    "validate": ["validate", "--seed", "0", "--trials", "100"],
    "maps": ["maps"],
    "gait-large": ["gait", "--scenario", "minimal-torque", "--speed", "1.0",
                   "--samples", "100000"],
    "sweep-large": ["sweep", "--speed", "0.8:0.0125:2.0", "--freq", "0.8:0.025:3.0",
                    "--tds-policy", "human"],
    "sweep-large-workers-2": ["sweep", "--speed", "0.8:0.0125:2.0", "--freq",
                              "0.8:0.025:3.0", "--tds-policy", "human", "--workers", "2"],
}


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def alternate(items: list, k: int) -> list:
    """The items in order on even k, reversed on odd k."""
    return items if k % 2 == 0 else items[::-1]


def spread(values: list[float]) -> dict:
    """Median, interquartile range and the values themselves."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "runs": values}


def run_workload(tree: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py --trace 0` run: its result line, with the
    machine block from its details line, or the error it ended with."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    result = json.loads(lines[-1])
    result["machine"] = json.loads(lines[-2])["details"]["machine"]
    return result


def time_cli(tree: Path, work: Path, argv: list[str]) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS (MB) of one launch of `linwalk`
    from tree; the RSS is the child's own, read by `os.wait4`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "linwalk.cli", *argv,
           "--config", str(work / "body.yaml"), "--out", str(work / "out")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def time_layers(tree: Path) -> dict:
    """Each layer's microseconds per new body and phase (`LAYER_SCRIPT`),
    as median and interquartile range, from one process in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", LAYER_SCRIPT, str(LAYER_BODIES)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    times = json.loads(proc.stdout)
    return {layer: {phase: {k: v for k, v in spread(us).items() if k != "runs"}
                    for phase, us in phases.items()}
            for layer, phases in times.items()}


def summarize(runs: list[dict]) -> dict:
    ok = [r for r in runs if "error" not in r]
    out = {name: spread([r["metrics"][name]["value"] for r in ok])
           for name in METRICS if ok}
    out["correct"] = bool(ok) and len(ok) == len(runs) and all(
        r["correct"] for r in ok)
    out["failed"] = sum(r["failed"] for r in ok)
    out["errors"] = [r["error"] for r in runs if "error" in r]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("commits", nargs="+", help="revisions to benchmark")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--repo", default=str(Path(__file__).resolve().parent.parent),
                    help="the git repository holding the commits")
    ap.add_argument("--seeds", type=int, default=3,
                    help="seeds 0, 1, ... per workload and commit")
    args = ap.parse_args(argv)
    repo = Path(args.repo)
    shas = [git(repo, "rev-parse", "--verify", f"{c}^{{commit}}")
            for c in args.commits]
    runs = {sha: {w: [] for w in WORKLOADS} for sha in shas}
    walls = {sha: {name: [] for name in CLI} for sha in shas}
    codes = {sha: {name: set() for name in CLI} for sha in shas}
    rss = {sha: {name: [] for name in CLI} for sha in shas}
    machine = None
    with tempfile.TemporaryDirectory(prefix="linwalk-history-") as tmp:
        trees = {sha: Path(tmp) / f"tree{i}" for i, sha in enumerate(shas)}
        try:
            for sha, tree in trees.items():
                git(repo, "worktree", "add", "--detach", str(tree), sha)
            for seed in range(args.seeds):
                for w in WORKLOADS:
                    for sha in alternate(shas, seed):
                        r = run_workload(trees[sha], w, seed)
                        machine = machine or r.get("machine")
                        runs[sha][w].append(r)
                        print(f"seed {seed} {w} {sha[:7]}: "
                              + json.dumps(r.get("metrics", r)), flush=True)
            work = Path(tmp) / "cli"
            work.mkdir()
            (work / "body.yaml").write_text(CONFIG)
            for k in range(LAUNCHES):
                for name, cmd in CLI.items():
                    for sha in alternate(shas, k):
                        wall, code, peak = time_cli(trees[sha], work, cmd)
                        walls[sha][name].append(wall)
                        codes[sha][name].add(code)
                        rss[sha][name].append(peak)
            layers = {sha: time_layers(trees[sha]) for sha in shas}
        finally:
            for tree in trees.values():
                if tree.exists():
                    git(repo, "worktree", "remove", "--force", str(tree))
            git(repo, "worktree", "prune")
    record = {
        "machine": {"host": machine, "platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpu_count": os.cpu_count()},
        "seeds": list(range(args.seeds)), "seconds": SECONDS,
        "launches": LAUNCHES, "layer_bodies": LAYER_BODIES,
        "commits": [{
            "commit": sha, "rev": rev,
            "workloads": {w: summarize(runs[sha][w]) for w in WORKLOADS},
            "cli_wall_s": {name: {"median": statistics.median(walls[sha][name]),
                                  "exit_codes": sorted(codes[sha][name])}
                           for name in CLI},
            "cli_peak_rss_mb": {name: statistics.median(rss[sha][name])
                                for name in CLI},
            "layers_us": layers[sha],
        } for rev, sha in zip(args.commits, shas)],
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
