"""Trajectory reconstruction, CoM energetics, and walking-economy surfaces.

An economy surface is evaluated one speed row (one speed and double-support
share, all frequencies) at a time, as one array program: both phases' end
maps from one `phase_ends` evaluation each, the minimal-torque gaits from
one stacked null space and program (`gaits.minimal_torque_gaits`), and the
CoM work of all the row's gaits from one set of flow pieces
(`transition.stride_pieces`).  The economy path builds and caches no stride
map.  A cell that fails keeps the class name of its error as its reason.
"""
from __future__ import annotations

import csv
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# solve_forces is not called here: it is the reference for map_forces, and
# stays importable from this module, where benchmarks look it up
from .dynamics import DOUBLE, SINGLE, ForceSolution, map_forces, solve_forces  # noqa: F401
# synthesize_gait is not called here either: the economy rows solve their
# gaits stacked, and benchmarks look it up on this module
from .gaits import (  # noqa: F401
    GaitSolution, InfeasibleConstraintsError, NullSpaceDimensionError,
    minimal_torque_gaits, synthesize_gait,
)
from .model import (
    BodyParams, DegenerateModelError, StrideTiming, com_position_matrix,
    com_velocity_matrix, mass_velocity_matrix,
)
from .transition import phase_ends, phase_template, piece_runs, stride_maps, stride_pieces


class NonPositiveWorkError(RuntimeError):
    """The gait's CoM work per distance is not positive and finite."""


class TdsRatioError(ValueError):
    """A double-support share outside (0, 1) leaves no stride to time."""


@dataclass(frozen=True)
class TrajectorySample:
    """States, CoM kinematics and wrenches at n stride times, stacked in time
    order: t (n,), Q (n, 23), com_pos and com_vel (n, 2), and one stacked
    ForceSolution.  The sample at index i is one time."""

    t: np.ndarray
    Q: np.ndarray
    com_pos: np.ndarray
    com_vel: np.ndarray
    forces: ForceSolution

    def __getitem__(self, i) -> TrajectorySample:
        """The sample at index i (or the samples of a slice)."""
        return TrajectorySample(*(v[i] for v in vars(self).values()))

    def __len__(self) -> int:
        return len(self.t)


def sample_times(timing: StrideTiming, n: int) -> np.ndarray:
    """Uniform times over the stride with the phase boundary inserted."""
    if n < 2:
        raise ValueError("need at least two samples")
    ts = np.linspace(0.0, timing.T_stride, n)
    if np.min(np.abs(ts - timing.T_ds)) > 1e-12:
        ts = np.sort(np.append(ts, timing.T_ds))
    return ts


def propagate_states(gait: GaitSolution, ts: np.ndarray) -> np.ndarray:
    """States (len(ts), 23) at the non-decreasing stride times ts in
    [0, T_stride]."""
    return stride_maps(gait.params, gait.timing).states(gait.Q0, ts)


def sample_trajectory(gait: GaitSolution, n: int = 401) -> TrajectorySample:
    """Reconstruct the stride at n uniform times (plus the phase boundary) as
    one stacked sample.  The wrenches come from the body's wrench maps
    (`map_forces`), one product per phase and no linear solve; they agree
    with `solve_forces`, the reference, up to roundoff."""
    ts = sample_times(gait.timing, n)
    Q = propagate_states(gait, ts)
    T_ds = gait.timing.T_ds
    ds = ts <= T_ds
    phases = (map_forces(gait.params, gait.timing, DOUBLE, Q[ds], ts[ds]),
              map_forces(gait.params, gait.timing, SINGLE, Q[~ds], ts[~ds] - T_ds))
    # each wrench field: the double-support rows, then the single-support ones
    forces = ForceSolution(*map(np.concatenate, zip(*(vars(F).values() for F in phases))))
    return TrajectorySample(ts, Q, Q @ com_position_matrix(gait.params).T,
                            Q @ com_velocity_matrix(gait.params).T, forces)


@lru_cache(maxsize=8)
def _bernstein(n: int) -> np.ndarray:
    """The Bernstein coefficients on [0, 1] of a degree-n polynomial from its
    monomial ones a: b_i = sum_j C(i, j) / C(n, j) a_j, as a read-only matrix."""
    T = np.array([[math.comb(i, j) / math.comb(n, j) for j in range(n + 1)]
                  for i in range(n + 1)])
    T.flags.writeable = False
    return T


def _turning_points(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points (p, s) that include every root in (0, 1) of the polynomials
    sum_j a[p, j] s^j.

    A polynomial whose Bernstein coefficients hold no sign change has no
    root in (0, 1), and one whose coefficients change sign once has exactly
    one (Lane and Riesenfeld, "Bounds on a polynomial", BIT 1981).  Those
    roots are solved at once by Newton's method from the crossing of the
    control polygon, safeguarded by bisection.  Any other polynomial takes
    the real parts in (0, 1) of the nearly real eigenvalues of its
    companion matrix; a point that is no root is harmless to the work.
    """
    n = a.shape[1] - 1
    b = a @ _bernstein(n).T
    # a coefficient within roundoff of zero has no sign, and zeros at an end
    # only factor out roots at that end, which are piece junctions: the
    # sign changes are counted between the nonzero coefficients
    sign = np.sign(b) * (np.abs(b) > 1e-12 * np.max(np.abs(b), axis=1, keepdims=True))
    last = np.maximum.accumulate(np.where(sign != 0.0, np.arange(n + 1), 0), axis=1)
    held = np.take_along_axis(sign, last, axis=1)     # the last nonzero sign
    change = held[:, :-1] * held[:, 1:] < 0.0
    flips = np.count_nonzero(change, axis=1)
    rows, j = np.flatnonzero(flips == 1), np.arange(n + 1)
    i = np.argmax(change[rows], axis=1)
    bi, bk = b[rows, i] * (sign[rows, i] != 0.0), b[rows, i + 1]
    s = (i + bi / (bi - bk)) / n
    c = a[rows] * np.sign(bk)[:, None]                # rising through the root
    cd = np.stack([c, np.append(c[:, 1:] * j[1:], 0.0 * c[:, :1], axis=1)])
    lo, hi = np.zeros(len(rows)), np.ones(len(rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            f, df = np.einsum("irj,rj->ir", cd, s[:, None] ** j)
            low = f < 0.0                              # the root lies above s
            lo, hi = np.where(low, s, lo), np.where(low, hi, s)
            nxt = s - f / df
            nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            step, s = np.abs(nxt - s), nxt
            if np.all(step <= 1e-9):
                break
    more = [(p, z.real) for p in np.flatnonzero(flips > 1)
            for z in np.roots(a[p, ::-1]) if abs(z.imag) <= 1e-6 and 0.0 < z.real < 1.0]
    p, x = np.reshape(more, (-1, 2)).T
    return np.append(rows, p.astype(int)), np.append(s, x)


def _work_per_distance(params: BodyParams, T_ds: np.ndarray, T_ss: np.ndarray,
                       Q0: np.ndarray, speed: float) -> np.ndarray:
    """`com_work_per_distance` of k strides of one body at once, from their
    phase durations (k,) and stride-start states Q0 (k, 23): (k,).

    Every stride's flow pieces come from one piece writer per phase
    (`transition.stride_pieces`), so the kinetic-energy polynomials, their
    turning points and the energies at those points and at the piece
    starts and stride ends are formed for all (stride, piece) pairs at
    once; each stride's positive variation is summed over its own points
    in time order.
    """
    k = len(Q0)
    Vm = mass_velocity_matrix(params)[:, 4:8]         # reads the 4 velocities
    masses = np.repeat([params.m1, params.m2, params.m3], 2)
    G = Vm.T @ (masses[:, None] * Vm)                 # KE = 1/2 v.G v
    tpls = phase_template(params, DOUBLE), phase_template(params, SINGLE)
    (ds, m_ds), (ss, m_ss), end = stride_pieces(tpls, T_ds, T_ss, Q0[:, None])
    V = np.concatenate([ds[:, :, 0, 4:8], ss[:, :, 0, 4:8]])   # (pieces, K, 4)
    # each piece's stride, and its place in the stride's time order
    (c_ds, j_ds), (c_ss, j_ss) = piece_runs(m_ds), piece_runs(m_ss)
    cell = np.concatenate([c_ds, c_ss])
    key = np.concatenate([j_ds, m_ds[c_ss] + j_ss]).astype(float)
    n, K = V.shape[:2]
    # 2 KE(s) = sum_kl gram[k, l] s^(k + l): the anti-diagonal sums, as the
    # column sums of gram's rows shifted right by k (rows of 2K + 1 read
    # back as rows of 2K)
    skew = np.zeros((n, K, 2 * K + 1))
    skew[..., :K] = V @ G @ V.transpose(0, 2, 1)
    ke2 = skew.reshape(n, -1)[:, :2 * K * K].reshape(n, K, 2 * K).sum(axis=1)
    p, s = _turning_points(ke2[:, 1:-1] * np.arange(1, 2 * K - 1))
    # piece starts j, roots j + s and the stride ends, in time order per stride
    v = np.concatenate([V[:, 0], np.einsum("rk,rkc->rc", s[:, None] ** np.arange(K), V[p]),
                        end[:, 0, 4:8]])
    cells = np.concatenate([cell, cell[p], np.arange(k)])
    order = np.lexsort((np.concatenate([key, key[p] + s, m_ds + m_ss]), cells))
    ke = 0.5 * np.sum((v @ G) * v, axis=1)[order]
    cells = cells[order]
    rise = np.where(cells[1:] == cells[:-1], np.maximum(np.diff(ke), 0.0), 0.0)
    work = np.bincount(cells[1:], weights=rise, minlength=k)
    distance = abs(speed) * (T_ds + T_ss)
    return work / (params.total_mass * distance)


def com_work_per_distance(gait: GaitSolution) -> float:
    """Net positive mechanical work per unit mass and distance, J/(kg m).

    The work is the integral of the positive part of the mechanical power
    P = sum m v.a of the three moving masses over one stride: the sum of the
    kinetic-energy rises between its turning points.  The swing leg's
    pump-and-brake flow is what penalizes fast stepping.  Each phase's flow
    is exact closed-form polynomials on a few pieces (`flow_pieces`), so
    the kinetic energy KE = 1/2 sum m |Vm x|^2 is a polynomial on each
    piece, and its turning points there are the roots of dKE/ds
    (`_turning_points`).  The work is the positive variation of KE over
    those roots and the time-ordered piece junctions, phase ends included:
    a point that is no extremum adds nothing.  No grid, no exponential.
    One stride of `_work_per_distance`, which takes many at once.
    """
    if gait.v_des == 0.0:
        raise ValueError("work per distance is undefined at zero speed")
    return float(_work_per_distance(gait.params, np.array([gait.timing.T_ds]),
                                    np.array([gait.timing.T_ss]), gait.Q0[None],
                                    gait.v_des)[0])


@dataclass(frozen=True)
class TdsPolicy:
    """Double-support share of the stride: a fixed ratio, or the human
    speed-dependent law ratio(v) = 0.12 + (2.5 - v) * 0.09."""

    kind: str                  # "fixed" or "human"
    ratio: float | None = None

    def ratio_at(self, speed: float) -> float:
        if self.kind == "fixed":
            return float(self.ratio)
        if self.kind == "human":
            return 0.12 + (2.5 - speed) * 0.09
        raise ValueError(f"unknown T_ds policy kind {self.kind!r}")


def parse_tds_policy(text: str) -> TdsPolicy:
    """Parse 'human' or 'fixed:R' (e.g. fixed:0.1)."""
    if text == "human":
        return TdsPolicy(kind="human")
    if text.startswith("fixed:"):
        try:
            ratio = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed T_ds ratio in {text!r}")
        if not 0.0 < ratio < 1.0:
            raise ValueError("fixed T_ds ratio must be in (0, 1)")
        return TdsPolicy(kind="fixed", ratio=ratio)
    raise ValueError(f"unknown T_ds policy {text!r}; expected 'human' or 'fixed:R'")


@dataclass(frozen=True)
class EconomyGrid:
    """Inverse cost of transport over a speed x step-frequency grid."""

    speeds: np.ndarray
    frequencies: np.ndarray
    economy: np.ndarray     # (n_speeds, n_frequencies), nan where infeasible
    tds_ratio: np.ndarray
    reason: np.ndarray      # the _CELL_ERRORS class name, "" where feasible

    @property
    def feasible(self) -> np.ndarray:
        """The bool mask of the feasible cells."""
        return self.reason == ""


_CELL_ERRORS = (NullSpaceDimensionError, InfeasibleConstraintsError,
                DegenerateModelError, np.linalg.LinAlgError,
                NonPositiveWorkError, TdsRatioError)


def _economy_cells(params: BodyParams, speed: float, frequencies: np.ndarray,
                   ratio: float) -> tuple[np.ndarray, list]:
    """Economy (kg m / J) of the minimal-torque gaits of one speed row, all
    its frequencies (k,) at once: (k,), nan where a cell fails, and per
    cell None or the error it fails with.

    Both phases' end maps come from one `phase_ends` call each (no stride
    map is built), the gaits from one stacked null space and program
    (`minimal_torque_gaits`) and the work from one stacked integral.  A
    cell fails on its own null-space dimension, block residual or
    non-positive work; errors of the row as a whole (a share outside
    (0, 1), the body's `DegenerateModelError`, a stacked LAPACK call's
    `LinAlgError`) are raised.
    """
    if not 0.0 < ratio < 1.0:
        raise TdsRatioError(f"T_ds ratio {ratio} outside (0, 1)")
    if not np.isfinite(speed) or speed == 0.0:
        raise ValueError(f"speed {speed} must be finite and non-zero")
    T = 1.0 / np.asarray(frequencies, dtype=float)
    T_ds, T_ss = ratio * T, (1.0 - ratio) * T
    H = phase_ends(params, SINGLE, T_ss) @ phase_ends(params, DOUBLE, T_ds)
    Q0, errors = minimal_torque_gaits(H, speed, T_ds + T_ss)
    econ = np.full(len(T), np.nan)
    ok = np.flatnonzero([e is None for e in errors])
    if len(ok):
        work = _work_per_distance(params, T_ds[ok], T_ss[ok], Q0[ok], speed)
        good = np.isfinite(work) & (work > 0.0)
        econ[ok[good]] = 1.0 / work[good]
        for i, w in zip(ok[~good], work[~good]):
            errors[i] = NonPositiveWorkError(f"CoM work per distance is {w}")
    return econ, errors


def economy_cell(params: BodyParams, speed: float, frequency: float,
                 ratio: float) -> float:
    """Economy (kg m / J) of the minimal-torque gait at one grid cell: a
    row of one, raising the error the cell fails with."""
    econ, (error,) = _economy_cells(params, speed, np.array([frequency]), ratio)
    if error is not None:
        raise error
    return float(econ[0])


def _economy_row(args) -> tuple[np.ndarray, list[str]]:
    """One speed row's economy (k,) and the `_CELL_ERRORS` class name each
    cell fails with ("" where feasible); an error of the row as a whole
    marks every cell."""
    params, speed, frequencies, ratio = args
    try:
        econ, errors = _economy_cells(params, speed, frequencies, ratio)
    except _CELL_ERRORS as exc:
        return np.full(len(frequencies), np.nan), [type(exc).__name__] * len(frequencies)
    return econ, ["" if e is None else type(e).__name__ for e in errors]


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set where the platform
    reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, jobs: list, workers: int) -> list:
    """`[fn(j) for j in jobs]` in `workers` spawned processes, each with one
    OpenBLAS thread (a full pool per process oversubscribes the cores).
    OpenBLAS reads the variable when numpy loads, so it is set while the
    jobs are submitted, which starts the processes, and restored after."""
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            results = pool.map(fn, jobs)
        finally:
            if saved is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
        return list(results)


def economy_surface(params: BodyParams, speeds, frequencies,
                    policy: TdsPolicy, workers: int | None = None) -> EconomyGrid:
    """Walking economy over a speed x frequency grid.

    Step frequency defines the stride time (T_stride = 1/f); the policy
    fixes the double-support share per speed.  Each speed row is one array
    program over its frequencies (`_economy_cells`).  Cells failing with a
    domain error in `_CELL_ERRORS` are flagged infeasible, never zeroed,
    and keep the error's class name as their reason; any other error
    propagates.
    Rows are independent and may be evaluated in `workers` processes, at
    most `usable_cpus()`; output ordering is deterministic.
    """
    cpus = usable_cpus()
    if workers is not None and not 1 <= workers <= cpus:
        raise ValueError(f"workers must be from 1 to the {cpus} usable CPUs, got {workers}")
    speeds = np.asarray(list(speeds), dtype=float)
    frequencies = np.asarray(list(frequencies), dtype=float)
    if speeds.size == 0 or frequencies.size == 0:
        raise ValueError("speed and frequency grids must be non-empty")
    for v in speeds:
        if not np.isfinite(v) or v == 0.0:
            raise ValueError(f"speed {v} must be finite and non-zero")
    for f in frequencies:
        if not np.isfinite(f) or f <= 0.0:
            raise ValueError(f"frequency {f} must be finite and positive")
    ratios = np.array([policy.ratio_at(v) for v in speeds])
    jobs = [(params, float(v), frequencies, float(r))
            for v, r in zip(speeds, ratios)]
    if workers and workers > 1:
        rows = _pool_map(_economy_row, jobs, workers)
    else:
        rows = [_economy_row(j) for j in jobs]
    reason = np.array([row[1] for row in rows], dtype=str)
    ratio_grid = np.repeat(ratios[:, None], len(frequencies), axis=1)
    return EconomyGrid(speeds=speeds, frequencies=frequencies,
                       economy=np.array([row[0] for row in rows]),
                       tds_ratio=ratio_grid, reason=reason)


@dataclass(frozen=True)
class PeakPoint:
    speed: float
    frequency: float
    boundary: bool


def peak_line(grid: EconomyGrid) -> list[PeakPoint]:
    """Economy-maximizing frequency per speed, parabola-refined.

    Interior maxima are sharpened by a quadratic fit through the three
    surrounding cells; maxima at the grid edge (or beside an infeasible
    cell) are flagged as boundary points, and a speed with no feasible cell
    gets a boundary point at frequency NaN.
    """
    peaks = []
    for i, v in enumerate(grid.speeds):
        row = grid.economy[i]
        ok = grid.feasible[i]
        # a row with no feasible cell peaks at its (infeasible) first cell
        j = int(np.argmax(np.where(ok, row, -np.inf)))
        interior = 0 < j < len(row) - 1 and ok[j - 1] and ok[j + 1]
        if not interior:
            f = grid.frequencies[j] if ok[j] else np.nan
            peaks.append(PeakPoint(speed=float(v), frequency=float(f), boundary=True))
            continue
        em, e0, ep = row[j - 1], row[j], row[j + 1]
        denom = em - 2.0 * e0 + ep
        df = grid.frequencies[j + 1] - grid.frequencies[j]
        shift = 0.0 if denom == 0.0 else 0.5 * (em - ep) / denom
        peaks.append(PeakPoint(speed=float(v),
                               frequency=float(grid.frequencies[j] + shift * df),
                               boundary=False))
    return peaks


def _fmt(x) -> str:
    return format(float(x), ".17g")


TRAJECTORY_HEADER = ("t,X2x,X2y,X1x,X1y,vX2x,vX2y,vX1x,vX1y,comx,comy,"
                     "comvx,comvy,grf3z,grf2z,tau2y,tau2x,M3y,M3x,tau1y,tau1x")
# one trajectory row, formatted as `_fmt` formats a cell; CRLF ends it, as
# the csv module ends the rows of the other CSV files
_TRAJECTORY_ROW = ",".join(["%.17g"] * len(TRAJECTORY_HEADER.split(","))) + "\r\n"


def write_trajectory_csv(path: str | Path, traj: TrajectorySample) -> None:
    F = traj.forces
    block = np.column_stack([
        traj.t, traj.Q[:, 0:8], traj.com_pos, traj.com_vel,
        F.F3[:, 2], F.F2[:, 2], F.tau2[:, 1], F.tau2[:, 0],
        F.M3[:, 1], F.M3[:, 0], F.tau1[:, 1], F.tau1[:, 0]])
    with open(path, "w", newline="") as fh:
        fh.write(TRAJECTORY_HEADER + "\r\n")
        fh.writelines(_TRAJECTORY_ROW % tuple(row) for row in block.tolist())


def write_economy_csv(path: str | Path, grid: EconomyGrid) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["speed", "frequency", "tds_ratio", "economy", "feasible", "reason"])
        for i, v in enumerate(grid.speeds):
            for j, f in enumerate(grid.frequencies):
                out.writerow([_fmt(v), _fmt(f), _fmt(grid.tds_ratio[i, j]),
                              _fmt(grid.economy[i, j]),
                              "1" if grid.feasible[i, j] else "0", grid.reason[i, j]])


def write_peaks_csv(path: str | Path, peaks: list[PeakPoint]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["speed", "frequency", "boundary"])
        for p in peaks:
            out.writerow([_fmt(p.speed), _fmt(p.frequency), "1" if p.boundary else "0"])
