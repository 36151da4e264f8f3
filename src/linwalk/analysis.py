"""Trajectory reconstruction, CoM energetics, and walking-economy surfaces."""
from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# solve_forces is not called here: it is the reference for map_forces, and
# stays importable from this module, where benchmarks look it up
from .dynamics import DOUBLE, SINGLE, ForceSolution, map_forces, solve_forces  # noqa: F401
from .gaits import (
    GaitSolution, InfeasibleConstraintsError, NullSpaceDimensionError,
    synthesize_gait,
)
from .model import (
    BodyParams, DegenerateModelError, StrideTiming, com_position_matrix,
    com_velocity_matrix, mass_velocity_matrix,
)
from .transition import stride_maps


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


def com_work_per_distance(gait: GaitSolution) -> float:
    """Net positive mechanical work per unit mass and distance, J/(kg m).

    The work is the integral of the positive part of the mechanical power
    P = sum m v.a of the three moving masses over one stride: the sum of the
    kinetic-energy rises between its turning points.  The swing leg's
    pump-and-brake flow is what penalizes fast stepping.  Each phase's flow
    is exact Taylor polynomials on a few pieces (`PhaseMap.pieces`), so the
    kinetic energy KE = 1/2 sum m |Vm x|^2 is a polynomial on each piece,
    and its turning points there are the roots of dKE/ds
    (`_turning_points`).  The work is the positive variation of KE over
    those roots and the time-ordered piece junctions, phase ends included:
    a point that is no extremum adds nothing.  No grid, no exponential.
    """
    if gait.v_des == 0.0:
        raise ValueError("work per distance is undefined at zero speed")
    maps = stride_maps(gait.params, gait.timing)
    Vm = mass_velocity_matrix(gait.params)[:, 4:8]    # reads the 4 velocities
    masses = np.repeat([gait.params.m1, gait.params.m2, gait.params.m3], 2)
    G = Vm.T @ (masses[:, None] * Vm)                 # KE = 1/2 v.G v
    ds, ss = maps.pieces(gait.Q0)
    V = np.concatenate([ds[..., 4:8], ss[..., 4:8]])  # (m, K, 4), time order
    m, K = V.shape[:2]
    # 2 KE(s) = sum_kl gram[k, l] s^(k + l): the anti-diagonal sums, as the
    # column sums of gram's rows shifted right by k (rows of 2K + 1 read
    # back as rows of 2K)
    skew = np.zeros((m, K, 2 * K + 1))
    skew[..., :K] = V @ G @ V.transpose(0, 2, 1)
    ke2 = skew.reshape(m, -1)[:, :2 * K * K].reshape(m, K, 2 * K).sum(axis=1)
    p, s = _turning_points(ke2[:, 1:-1] * np.arange(1, 2 * K - 1))
    # piece starts j, roots j + s and the stride end, in time order
    v = np.concatenate([V[:, 0], np.einsum("rk,rkc->rc", s[:, None] ** np.arange(K), V[p]),
                        ss[-1:].sum(axis=1)[:, 4:8]])
    order = np.argsort(np.concatenate([np.arange(m), p + s, [m]]), kind="stable")
    ke = 0.5 * np.sum((v @ G) * v, axis=1)[order]
    work = np.sum(np.maximum(np.diff(ke), 0.0))
    distance = abs(gait.v_des) * gait.timing.T_stride
    return work / (gait.params.total_mass * distance)


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
    feasible: np.ndarray    # bool mask


_CELL_ERRORS = (NullSpaceDimensionError, InfeasibleConstraintsError,
                DegenerateModelError, np.linalg.LinAlgError,
                NonPositiveWorkError, TdsRatioError)


def economy_cell(params: BodyParams, speed: float, frequency: float,
                 ratio: float) -> float:
    """Economy (kg m / J) of the minimal-torque gait at one grid cell."""
    if not 0.0 < ratio < 1.0:
        raise TdsRatioError(f"T_ds ratio {ratio} outside (0, 1)")
    T_stride = 1.0 / frequency
    timing = StrideTiming(T_ds=ratio * T_stride, T_ss=(1.0 - ratio) * T_stride)
    gait = synthesize_gait(params, timing, v_des=speed)
    work = com_work_per_distance(gait)
    if not np.isfinite(work) or work <= 0.0:
        raise NonPositiveWorkError(f"CoM work per distance is {work}")
    return 1.0 / work


def _economy_row(args) -> list[tuple[float, bool]]:
    params, speed, frequencies, ratio = args
    row = []
    for f in frequencies:
        try:
            row.append((economy_cell(params, speed, float(f), ratio), True))
        except _CELL_ERRORS:
            row.append((np.nan, False))
    return row


def economy_surface(params: BodyParams, speeds, frequencies,
                    policy: TdsPolicy, workers: int | None = None) -> EconomyGrid:
    """Walking economy over a speed x frequency grid.

    Step frequency defines the stride time (T_stride = 1/f); the policy
    fixes the double-support share per speed.  Cells failing with a domain
    error in `_CELL_ERRORS` are flagged infeasible, never zeroed; any other
    error propagates.  Rows are independent and may be evaluated in
    parallel; output ordering is deterministic.
    """
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_economy_row, jobs))
    else:
        rows = [_economy_row(j) for j in jobs]
    econ = np.array([[c[0] for c in row] for row in rows])
    ok = np.array([[c[1] for c in row] for row in rows])
    ratio_grid = np.repeat(ratios[:, None], len(frequencies), axis=1)
    return EconomyGrid(speeds=speeds, frequencies=frequencies,
                       economy=econ, tds_ratio=ratio_grid, feasible=ok)


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
        out.writerow(["speed", "frequency", "tds_ratio", "economy", "feasible"])
        for i, v in enumerate(grid.speeds):
            for j, f in enumerate(grid.frequencies):
                out.writerow([_fmt(v), _fmt(f), _fmt(grid.tds_ratio[i, j]),
                              _fmt(grid.economy[i, j]),
                              "1" if grid.feasible[i, j] else "0"])


def write_peaks_csv(path: str | Path, peaks: list[PeakPoint]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["speed", "frequency", "boundary"])
        for p in peaks:
            out.writerow([_fmt(p.speed), _fmt(p.frequency), "1" if p.boundary else "0"])
