"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Every workload is a closed loop with one caller: the next op starts only
after the previous one returns, in one process.  All inputs come from
``numpy.random.default_rng([seed, salt, k])``, so the same seed gives the
same inputs.  linwalk is driven only through public functions, looked up
on their modules at call time so that the traced run sees them.

An op returns its raw output; ``summarize`` (untimed) reduces it to a small
JSON-able record that holds the values the checks need, plus a digest of
the exact bytes so a traced run can be compared bit for bit.
"""
from __future__ import annotations

import hashlib
import importlib
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from linwalk import analysis, gaits, model, oracle, transition  # noqa: E402
from linwalk.analysis import TdsPolicy  # noqa: E402
from linwalk.layout import selection_matrices  # noqa: E402
from linwalk.model import StrideTiming, default_params, scaled_body  # noqa: E402

# the lru_cache object itself, kept before any tracing wrapper replaces
# the module attribute: cache_clear / cache_info live on it
STRIDE_MAPS = transition.stride_maps

REF_RTOL = 1e-9          # same-outputs bar against the pinned reference


def clear_stride_cache() -> None:
    STRIDE_MAPS.cache_clear()


def stride_cache_info() -> tuple[int, int, int]:
    """(hits, misses, currsize) of the stride-map cache."""
    got = STRIDE_MAPS.cache_info()
    return got.hits, got.misses, got.currsize


def draw_body(rng: np.random.Generator) -> model.BodyParams:
    return scaled_body(default_params("adult"), float(rng.uniform(55.0, 85.0)),
                       float(rng.uniform(0.9, 1.1)))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _rel_close(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= REF_RTOL * scale


class Workload:
    name = ""
    salt = 0
    trace_ops = 1      # ops in the traced pass: fewer than a run reaches
    why = ""
    predictions: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.salt, *key])

    def warm(self) -> None:
        """Declared warm-up, part of set-up."""

    def reset(self) -> None:
        """Return to the state right after set-up (before a second pass)."""
        clear_stride_cache()
        self.warm()

    def before_op(self, k: int) -> None:
        """Untimed state handling before op k."""

    def op_input(self, k: int):
        raise NotImplementedError

    def run_op(self, inp):
        """The timed op.  A generator run_op yields between its linwalk
        calls, where the runner may probe the machine's speed untimed."""
        raise NotImplementedError

    def summarize(self, inp, out) -> dict:
        raise NotImplementedError

    def units(self, record: dict) -> int:
        """Throughput units one op completes."""
        return 1

    def check(self, record: dict, ref: dict | None) -> list[str]:
        """Invariant failures, plus reference mismatches when ref is given."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class SweepCold(Workload):
    name = "sweep-cold"
    salt = 1
    trace_ops = 6
    why = ("every cell is a new timing, so cost sits in ODE extraction, expm "
           "and the work integral: the path that per-body operators rewrite")
    predictions = (
        "dynamics.extract calls/self_s -> op_p50_cal, ops_per_s",
        "transition.stride_maps misses/self_s -> op_p50_cal, ops_per_s; "
        "currsize -> peak_rss_mb",
        "transition.expm calls/self_s -> op_p50_cal, ops_per_s",
        "analysis.work, analysis.propagate_states self_s -> op_p50_cal",
        "dynamics.solve_forces, oracle.*: not used",
    )
    ROWS = 6           # speed rows per pass; one pass models one `linwalk sweep`
    FREQS = 10         # frequencies per row, one economy cell each
    POLICY = TdsPolicy("human")

    def _pass(self, p: int):
        rng = self.rng(p)
        body = draw_body(rng)
        speeds = np.sort(rng.uniform(0.8, 2.0, self.ROWS))
        freqs = np.sort(rng.uniform(0.8, 3.0, self.FREQS))
        return body, speeds, freqs

    def op_input(self, k: int):
        body, speeds, freqs = self._pass(k // self.ROWS)
        return body, float(speeds[k % self.ROWS]), freqs

    def before_op(self, k: int) -> None:
        if k % self.ROWS == 0:      # each pass starts with an empty cache
            clear_stride_cache()

    def run_op(self, inp):
        body, speed, freqs = inp
        return analysis.economy_surface(body, [speed], freqs, self.POLICY,
                                        workers=None)

    def summarize(self, inp, grid) -> dict:
        econ = [float(e) if ok else None
                for e, ok in zip(grid.economy[0], grid.feasible[0])]
        return {"speed": inp[1], "economy": econ}

    def units(self, record: dict) -> int:
        return len(record["economy"])

    def check(self, record, ref):
        econ = record["economy"]
        bad = []
        feasible = [e for e in econ if e is not None]
        if len(feasible) < 0.9 * len(econ):
            bad.append(f"only {len(feasible)}/{len(econ)} cells feasible")
        if not all(np.isfinite(e) and e > 0.0 for e in feasible):
            bad.append("non-finite or non-positive economy")
        if ref is not None:
            mask = [e is None for e in econ]
            if mask != [e is None for e in ref["economy"]]:
                bad.append("feasibility differs from the reference")
            elif not all(_rel_close(e, r, abs(r)) for e, r in
                         zip(econ, ref["economy"]) if r is not None):
                bad.append("economy differs from the reference")
        return bad


class GaitBatch(Workload):
    name = "gait-batch"
    salt = 2
    trace_ops = 40
    why = ("warm maps, so extraction does nothing in the ops: cost sits in "
           "per-sample solve_forces and trajectory propagation")
    predictions = (
        "dynamics.solve_forces calls/self_s -> op_p50_cal, ops_per_s",
        "analysis.sample_trajectory, analysis.propagate_states self_s -> "
        "op_p50_cal, ops_per_s",
        "dynamics.extract calls/self_s -> setup_s only; no change on ops",
        "analysis.csv bytes/self_s -> op_p50_cal",
    )
    SAMPLES = 401

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng(0)
        self.body = draw_body(rng)
        self.T_ds = float(rng.uniform(0.08, 0.15))
        self.timings = [StrideTiming(T_ds=self.T_ds, T_ss=1.0 / f - self.T_ds)
                        for f in rng.uniform(1.5, 2.2, 2)]
        self.relaxed: StrideTiming | None = None
        self.tmp = Path(tempfile.mkdtemp(prefix="gait-", dir=out_dir()))

    def warm(self) -> None:
        T_relax = gaits.find_relax_time(self.body, self.T_ds,
                                        bracket=(self.T_ds + 0.05, 1.6))
        self.relaxed = StrideTiming(T_ds=self.T_ds, T_ss=T_relax - self.T_ds)
        for tag in gaits.SCENARIOS:
            for timing in ([self.relaxed] if tag == "pseudo-passive"
                           else self.timings):
                gaits.synthesize_gait(self.body, timing, 1.0, tag)

    def op_input(self, k: int):
        rng = self.rng(1, k)
        tag = gaits.SCENARIOS[int(rng.integers(len(gaits.SCENARIOS)))]
        speed = float(rng.uniform(0.8, 2.0))
        d_sign = float(rng.choice([-1.0, 1.0]))
        timing = self.timings[int(rng.integers(len(self.timings)))]
        return tag, speed, d_sign, timing

    def run_op(self, inp):
        tag, speed, d_sign, timing = inp
        if tag == "pseudo-passive":
            timing = self.relaxed
        gait = gaits.synthesize_gait(self.body, timing, speed, tag,
                                     d_sign=d_sign)
        samples = analysis.sample_trajectory(gait, self.SAMPLES)
        path = self.tmp / "trajectory.csv"
        analysis.write_trajectory_csv(path, samples)
        return gait, samples, path

    def summarize(self, inp, out) -> dict:
        gait, samples, path = out
        data = path.read_bytes()
        return {"Q0": gait.Q0.tolist(),
                "csv_sha256": hashlib.sha256(data).hexdigest(),
                "csv_bytes": len(data),
                **gait_invariants(gait, samples)}

    def check(self, record, ref):
        bad = [f"{k} = {record[k]:.3e} > {tol:g}"
               for k, tol in GAIT_TOLERANCES.items() if not record[k] <= tol]
        if ref is not None:
            Q0, Q_ref = np.array(record["Q0"]), np.array(ref["Q0"])
            scale = float(np.max(np.abs(Q_ref)))
            if Q0.shape != Q_ref.shape or not np.all(
                    np.abs(Q0 - Q_ref) <= REF_RTOL * scale):
                bad.append("Q0 differs from the reference")
        return bad

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


GAIT_TOLERANCES = {
    "periodicity_residual": 1e-8,
    "end_foot_speed": 1e-8,
    "grf_plateau": 1e-9,     # single support: stance load equals body weight
    "grf_sum": 1e-9,         # double support: the two loads sum to it
    "grf_ramp_fit": 1e-9,    # and each load is affine in time
}


def gait_invariants(gait, samples) -> dict:
    """Periodicity, end foot speed (recomputed from the stride map) and the
    trapezoidal vertical GRF, relative to body weight."""
    sel = selection_matrices()
    maps = transition.stride_maps(gait.params, gait.timing)
    Q_end = maps.H_stride @ gait.Q0
    M, O, T = gaits.M_MAT, gaits.O_MAT, gaits.T_MAT
    residual = M @ (sel.S_XP @ gait.Q0) - O @ M @ T @ (sel.S_XP @ Q_end)
    W = gait.params.total_mass * gait.params.g
    T_ds = gait.timing.T_ds
    ds = [s for s in samples if s.t <= T_ds + 1e-12]
    ss = [s for s in samples if s.t > T_ds + 1e-12]
    t = np.array([s.t for s in ds])
    f2 = np.array([s.forces.F2[2] for s in ds])
    f3 = np.array([s.forces.F3[2] for s in ds])
    fit = max(float(np.max(np.abs(np.polyval(np.polyfit(t, f, 1), t) - f)))
              for f in (f2, f3))
    return {
        "periodicity_residual": float(np.max(np.abs(residual))),
        "end_foot_speed": float(np.linalg.norm(sel.S_Xdot2 @ Q_end)),
        "grf_plateau": max(abs(s.forces.F3[2] - W) for s in ss) / W,
        "grf_sum": float(np.max(np.abs(f2 + f3 - W))) / W,
        "grf_ramp_fit": fit / W,
    }


class RelaxCold(Workload):
    name = "relax-cold"
    salt = 3
    trace_ops = 2
    why = ("time to a torque-free stride time at 1e-6 s, set by how many "
           "stride maps the bracket scan and Brent polish build")
    predictions = (
        "gaits.build_periodicity calls/self_s, gaits.relax.map_builds_per_solve"
        " -> op_p50_cal, ops_per_s",
        "dynamics.extract, transition.stride_maps, transition.expm self_s -> "
        "op_p50_cal, ops_per_s",
        "gaits.null_basis, gaits.solve_eqp: not used",
    )
    BRACKET = (0.4, 1.5)     # the `linwalk relax` default

    def warm(self) -> None:
        # find_relax_time imports scipy.optimize on its first call: a one-off
        # import cost of the process, so it is set-up and not part of op 0
        importlib.import_module("scipy.optimize")

    def op_input(self, k: int):
        rng = self.rng(k)
        return draw_body(rng), float(rng.uniform(0.1, 0.35))

    def before_op(self, k: int) -> None:
        clear_stride_cache()     # each op models one fresh `linwalk relax`

    def run_op(self, inp):
        # the same stride maps as `linwalk relax`, which scans first: the
        # solve's 41 bracket points lie on the scan's 81-point grid.  Solving
        # first splits the op into two steps of similar length, so the speed
        # probes between steps bracket shorter stretches.
        body, T_ds = inp
        T_relax = gaits.find_relax_time(body, T_ds, self.BRACKET)
        yield
        scan = gaits.relax_scan(body, T_ds, self.BRACKET)
        return scan, T_relax

    def summarize(self, inp, out) -> dict:
        body, T_ds = inp
        scan, T_relax = out
        system = gaits.build_periodicity(
            body, StrideTiming(T_ds=T_ds, T_ss=T_relax - T_ds))
        s2 = gaits.singular_spectrum(system, "R1") ** 2
        return {"T_relax": float(T_relax), "sigma2_ratio": float(s2[-2] / s2[0]),
                "scan_sha256": digest(scan)}

    def check(self, record, ref):
        bad = []
        if not record["sigma2_ratio"] <= 1e-9:
            bad.append(f"R1 second-smallest sigma^2 ratio "
                       f"{record['sigma2_ratio']:.3e} > 1e-9")
        if ref is not None and not _rel_close(record["T_relax"], ref["T_relax"],
                                              abs(ref["T_relax"])):
            bad.append("T_relax differs from the reference")
        return bad


class ValidateRk4(Workload):
    name = "validate-rk4"
    salt = 4
    trace_ops = 2
    why = ("the only workload where the RK4 oracle dominates; the other "
           "layers build one map per op")
    predictions = (
        "oracle.integrate_batch self_s, oracle.state_steps_per_s -> "
        "op_p50_cal, ops_per_s",
        "dynamics.extract, transition.expm: one map per op, small share",
    )
    STEP = 1e-5
    BATCH = 20
    # RK4 cost is per step, so the stride time is fixed: every op marches
    # the same number of steps; body, double-support share and states vary
    T_STRIDE = 0.4

    def op_input(self, k: int):
        rng = self.rng(k)
        body = draw_body(rng)
        ratio = float(rng.uniform(0.12, 0.27))
        timing = StrideTiming(T_ds=ratio * self.T_STRIDE,
                              T_ss=(1.0 - ratio) * self.T_STRIDE)
        return body, timing, validate_states(rng, self.BATCH)

    def before_op(self, k: int) -> None:
        clear_stride_cache()

    def run_op(self, inp):
        body, timing, Q0 = inp
        maps = transition.stride_maps(body, timing)
        out = []
        for phase, H in (("double", maps.H_ds_end),
                         ("single", maps.ss.map_at(timing.T_ss)),
                         (None, maps.H_stride)):
            ends = oracle.integrate_batch(body, timing, Q0, step=self.STEP,
                                          phase=phase)
            exact = Q0 @ H.T
            out.append((float(np.max(np.abs(ends - exact))), ends, exact))
            yield
        return out

    def summarize(self, inp, out) -> dict:
        body, timing, Q0 = inp
        return {"discrepancy": [d for d, _, _ in out],
                "scale": max(float(np.max(np.abs(x))) for _, _, x in out),
                "ends_sha256": digest(*(e for _, e, _ in out)),
                "state_steps": len(Q0) * rk4_steps(timing, self.STEP)}

    def check(self, record, ref):
        bad = []
        if not max(record["discrepancy"]) <= 1e-6:
            bad.append(f"discrepancy {max(record['discrepancy']):.3e} > 1e-6")
        # a discrepancy is a difference of states of size `scale`, so it is
        # compared at 1e-9 of that size, not of its own roundoff-level value
        if ref is not None and not all(
                _rel_close(d, r, ref["scale"])
                for d, r in zip(record["discrepancy"], ref["discrepancy"])):
            bad.append("discrepancy differs from the reference")
        return bad


def validate_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random augmented states drawn as `linwalk validate` draws them."""
    Q0 = np.zeros((n, 23))
    Q0[:, 0:4] = rng.uniform(-0.5, 0.5, (n, 4))
    Q0[:, 4:8] = rng.uniform(-1.0, 1.0, (n, 4))
    Q0[:, 8:10] = rng.uniform(-0.3, 0.3, (n, 2))
    Q0[:, 10:18] = rng.uniform(-20.0, 20.0, (n, 8))
    Q0[:, 18:22] = rng.uniform(-30.0, 30.0, (n, 4))
    Q0[:, 22] = rng.choice([-1.0, 1.0], n)
    return Q0


def rk4_steps(timing: StrideTiming, step: float) -> int:
    """RK4 steps of one op: each phase alone, then the full stride."""
    def n(duration):
        return max(1, int(round(duration / step)))
    return 2 * (n(timing.T_ds) + n(timing.T_ss))


def out_dir() -> Path:
    path = ROOT / "perfbench" / "out"
    path.mkdir(exist_ok=True)
    return path


WORKLOADS = {cls.name: cls for cls in (SweepCold, GaitBatch, RelaxCold, ValidateRk4)}
