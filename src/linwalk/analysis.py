"""Trajectory reconstruction, CoM energetics, and walking-economy surfaces.

An economy surface is evaluated one speed row (one speed and double-support
share, all frequencies) at a time, as one array program: both phases' end
maps from one `phase_ends` evaluation each, the minimal-torque gaits from
one stacked null space and program (`gaits.minimal_torque_gaits`), and the
CoM work of all the row's gaits from one set of flow pieces per phase
(`transition.flow_pieces`).  The economy path builds and caches no stride
map.  A cell that fails keeps the class name of its error as its reason.
"""
from __future__ import annotations

import math
import os
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
from .transition import _DEGREES, flow_pieces, phase_ends, phase_template, stride_maps


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
    [0, T_stride], read off the closed form (`StrideMaps.states`): no
    map and no flow piece is formed."""
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


# the Bernstein coefficients on [0, 1] of a polynomial from its monomial ones
# a, b_i = sum_j C(i, j) / C(n, j) a_j, at the one degree `_turning_points`
# meets: dKE/ds on a flow piece of len(_DEGREES) = 18 terms, n = 33
_DKE_DEGREE = 2 * len(_DEGREES) - 3
_BERNSTEIN = np.array([[math.comb(i, j) / math.comb(_DKE_DEGREE, j)
                        for j in range(_DKE_DEGREE + 1)] for i in range(_DKE_DEGREE + 1)])
_BERNSTEIN.flags.writeable = False


def _turning_points(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points (p, s) that include every root in (0, 1) of the degree-33
    polynomials sum_j a[p, j] s^j.

    A polynomial whose Bernstein coefficients hold no sign change has no
    root in (0, 1), and one whose coefficients change sign once has exactly
    one (Lane and Riesenfeld, "Bounds on a polynomial", BIT 1981).  Those
    roots are solved at once by Newton's method from the crossing of the
    control polygon, safeguarded by bisection.  Any other polynomial takes
    the real parts in (0, 1) of the nearly real eigenvalues of its
    companion matrix; a point that is no root is harmless to the work.
    """
    n = a.shape[1] - 1
    b = a @ _BERNSTEIN.T
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

    Every stride's flow pieces come from one `transition.flow_pieces` call
    per phase, single support from the double-support ends, so the
    kinetic-energy polynomials, their turning points and the energies at
    those points and at the piece starts and stride ends are formed for
    all (stride, piece) pairs at once.  A stride's pieces already lie in
    time order (double support first, each run ascending), so sorting the
    points by (stride, piece index, u), a stride's end at index n, orders
    them in time; each stride's positive variation is summed over its own.
    """
    k = len(Q0)
    Vm = mass_velocity_matrix(params)[:, 4:8]         # reads the 4 velocities
    masses = np.repeat([params.m1, params.m2, params.m3], 2)
    G = Vm.T @ (masses[:, None] * Vm)                 # KE = 1/2 v.G v
    ds, run_ds, mid = flow_pieces(phase_template(params, DOUBLE), T_ds, Q0[:, None])
    ss, run_ss, end = flow_pieces(phase_template(params, SINGLE), T_ss, mid)
    V = np.concatenate([ds[:, :, 0, 4:8], ss[:, :, 0, 4:8]])   # (pieces, K, 4)
    cell = np.concatenate([run_ds, run_ss])                    # each piece's stride
    n, K = V.shape[:2]
    # 2 KE(s) = sum_kl gram[k, l] s^(k + l): the anti-diagonal sums, gram's
    # rows added in order, row k shifted right by k
    gram = V @ G @ V.transpose(0, 2, 1)
    ke2 = np.zeros((n, 2 * K))
    for i in range(K):
        ke2[:, i:i + K] += gram[:, i]
    p, s = _turning_points(ke2[:, 1:-1] * np.arange(1, 2 * K - 1))
    # piece starts (u = 0), roots (u = s) and the stride ends (index n)
    v = np.concatenate([V[:, 0], np.einsum("rk,rkc->rc", s[:, None] ** np.arange(K), V[p]),
                        end[:, 0, 4:8]])
    cells = np.concatenate([cell, cell[p], np.arange(k)])
    order = np.lexsort((np.concatenate([np.zeros(n), s, np.zeros(k)]),
                        np.concatenate([np.arange(n), p, np.full(k, n)]), cells))
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
    ratio: float | None = None  # the fixed share, in (0, 1)

    def __post_init__(self):
        if self.kind not in ("fixed", "human"):
            raise ValueError(f"unknown T_ds policy kind {self.kind!r}; "
                             "expected 'human' or 'fixed'")
        if self.kind == "fixed" and (self.ratio is None or not 0.0 < self.ratio < 1.0):
            raise ValueError(f"fixed T_ds ratio must be in (0, 1), got {self.ratio!r}")
        if self.kind == "human" and self.ratio is not None:
            raise ValueError(f"the human T_ds policy takes no ratio, got {self.ratio!r}")

    def ratio_at(self, speed: float) -> float:
        if self.kind == "fixed":
            return float(self.ratio)
        return 0.12 + (2.5 - speed) * 0.09


def parse_tds_policy(text: str) -> TdsPolicy:
    """Parse 'human' or 'fixed:R' (e.g. fixed:0.1)."""
    if text == "human":
        return TdsPolicy(kind="human")
    if text.startswith("fixed:"):
        try:
            ratio = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed T_ds ratio in {text!r}")
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
    jobs are submitted, which starts the processes, and restored after.
    The pool modules load here, so a serial run never imports them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
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
    peaks, feasible = [], grid.feasible
    for i, v in enumerate(grid.speeds):
        row = grid.economy[i]
        ok = feasible[i]
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


# The %.17g kernel.  A double's 17 digits are round(|x| 10^(16 - e)), e its
# decimal exponent; the product is carried as a double-double against 10^k
# split into hi + lo (Dekker, "A floating-point technique for extending the
# available precision", Numer. Math. 1971), for e in _E_RANGE.  A cell is
# rendered into a slot of four 8-byte words (more for a wide string column)
# that holds zeros where no byte goes, dropped when the block is joined: the
# sign and a "0.000" prefix (bytes 0-5), the digits with their dot (6-23),
# the "e+XX" suffix (24-28) and the separator (the last word's 5-6).
_E_RANGE = (-280, 280)
_SPLIT = 2.0 ** 27 + 1.0          # Veltkamp: splits a double into two halves
_TIE = 1e-12                      # > 2^-47, the fraction's error bound
_BLOCK_CELLS = 1024               # cells per pass


def _words(chunks: list[bytes]) -> np.ndarray:
    """Byte strings of up to 8 bytes as native 8-byte words, zero-padded,
    so that a word stored into a byte buffer lays down the same bytes."""
    return np.array(chunks, "S8").view(np.uint64)


@lru_cache(maxsize=1)
def _number_tables() -> dict:
    """The kernel's tables, per decimal exponent e from _E_RANGE[0] - 1 to
    _E_RANGE[1] + 1 (row i for e = _E_RANGE[0] - 1 + i): the smallest double
    at or above 10^(e + 1); the scale 10^(16 - e) as its nearest double hi,
    the 26-bit halves of hi, the double nearest 10^(16 - e) - hi, and the
    fraction from which a rounding is unsettled (past 1 where 10^(16 - e) is
    exact); the "0.000" prefix and "e+XX" suffix words; the dot's slot; and
    the digits the integer part keeps.  All from exact integer arithmetic,
    built on first use."""
    e0, e1 = _E_RANGE
    es = range(e0 - 1, e1 + 2)

    def nearest(j: int) -> tuple[float, float]:
        """The double nearest 10^j and the one nearest the remainder."""
        if j >= 0:
            hi = float(10 ** j)
            return hi, float(10 ** j - int(hi))
        d = 10 ** -j
        hi = 1 / d                     # int / int is correctly rounded
        num, den = hi.as_integer_ratio()
        return hi, (den - num * d) / (den * d)

    powers = {j: nearest(j) for j in range(e0, 18 - e0)}
    up = np.array([powers[e + 1] for e in es])
    hi, lo = np.array([powers[16 - e] for e in es]).T
    t = _SPLIT * hi
    hh = t - (t - hi)
    expo = [e < -4 or e > 16 for e in es]
    return {
        "floor_next": np.where(up[:, 1] > 0.0, np.nextafter(up[:, 0], np.inf), up[:, 0]),
        "scale": np.stack([hi, hh, hi - hh, lo], axis=1),
        "tie": np.where(lo != 0.0, 0.5 - _TIE, 2.0),
        "prefix": _words([b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                          for e in es]),
        "suffix": _words([(b"e-" if e < 0 else b"e+") + (b"%03d" % abs(e) if abs(e) > 99
                                                        else b"\0%02d" % abs(e))
                          if x else b"" for e, x in zip(es, expo)]),
        "dot": np.array([1 if x else e + 1 if e >= 0 else 17 for e, x in zip(es, expo)], np.uint8),
        "least": np.array([e + 1 if e >= 0 and not x else 0 for e, x in zip(es, expo)], np.uint8),
        "minus": _words([b"-"])[0],
    }


def _significands(x: np.ndarray, tab: dict) -> tuple[np.ndarray, ...]:
    """The 17-digit significands D (n,) in [10^16, 10^17) of the doubles x
    (n,), their exponents' table rows E (n,), the mask of the zeros (D 10^16,
    E that of e = 0) and the mask of the cells left to Python's own
    formatting: nan, +-inf, |x| with e outside _E_RANGE, and the roundings
    the error bound leaves unsettled.

    |x| 10^(16 - e) = h + r, with h = fl(|x| hi) and r its exact remainder
    (two-product) plus fl(|x| lo).  The 17 digits x rounds to are h +
    rint(r): h >= 2^53 is even, so round half to even of h + r is that of r.
    As |x| 10^(16 - e) < 2^57, |r| < 32, and the computed r is off by at
    most 2^-49 each from rounding |x| lo, from lo's own error (|lo| 2^-53)
    and from rounding the sum: 3 2^-49 < 2^-47 in all.  So rint(r) is the
    rounding unless r lies within _TIE of a half; where 10^(16 - e) is
    exact (lo = 0), r is exact and always settles it.
    """
    a = np.abs(x)
    fast = a >= tab["floor_next"][0]
    fast &= a < tab["floor_next"][-2]
    zero = a == 0.0
    a[~fast] = 1.0
    # floor(log10 a) is log10(2) e2 rounded down, or one more, for a in
    # [2^e2, 2^(e2 + 1)); 78913 / 2^18 stands for log10(2) for |e2| < 1650
    E = a.view(np.int64) >> 52
    E *= 78913
    E -= 1023 * 78913 + (_E_RANGE[0] - 1) * 2 ** 18
    E >>= 18
    E += a >= tab["floor_next"].take(E)
    hi, hh, hl, lo = tab["scale"].take(E, axis=0).T
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    h = a * hi
    r = ah * hh
    r -= h
    r += ah * hl
    r += al * hh
    r += al * hl
    r += a * lo
    del a, t, ah, al, hi, hh, hl, lo
    ri = np.rint(r)
    r -= ri
    slow = np.abs(r, out=r) >= tab["tie"].take(E)
    slow |= ~(fast | zero)
    D = h.astype(np.int64)
    D += ri.astype(np.int64)
    top = D == 10 ** 17                  # rounded up to the next power of ten
    D[top] = 10 ** 16
    E += top
    return D, E, zero, slow


def _digit_rows(D: np.ndarray, zero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of the significands D (n,), one row each, padded
    by a zero row on each side (19, n), a zero cell's reading 0 and sixteen
    zeros; and the count of digits up to the last nonzero one."""
    n = len(D)
    high = D // 10 ** 8
    pair = np.empty((2, n), np.int32)
    pair[1] = D - high * 10 ** 8
    lead = high // 10 ** 8
    pair[0] = high - lead * 10 ** 8
    quad = np.empty((4, n), np.int16)    # four groups of four digits
    upper = pair // 10 ** 4
    quad[0::2] = upper
    quad[1::2] = pair - upper * 10 ** 4
    digits = np.empty((19, n), np.uint8)
    digits[0] = digits[18] = 0
    np.multiply(lead, ~zero, out=digits[1], casting="unsafe")
    by1, by2, by3 = quad // 10, quad // 100, quad // 1000
    group = digits[2:18].reshape(4, 4, n)
    group[:, 0] = by3
    np.subtract(by2, 10 * by3, out=group[:, 1], casting="unsafe")
    np.subtract(by1, 10 * by2, out=group[:, 2], casting="unsafe")
    np.subtract(quad, 10 * by1, out=group[:, 3], casting="unsafe")
    place = (digits[1:18] != 0).view(np.uint8)
    place *= np.arange(1, 18, dtype=np.uint8)[:, None]
    digits[1:18] += 48
    return digits, place.max(axis=0)


def _render_numbers(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """`'%.17g' % v` for each v of x (n,) as its slot's first word (n,),
    digit bytes (18, n) and fourth word (n,), and the mask of the cells left
    to Python's own formatting (`_significands`)."""
    tab = _number_tables()
    D, E, zero, slow = _significands(x, tab)
    digits, last = _digit_rows(D, zero)
    del D
    # the digits kept: up to the last nonzero one or the integer part's
    # end, and the dot if one follows it
    dot = tab["dot"].take(E)
    kept = np.maximum(last, tab["least"].take(E))
    kept += kept > dot
    slot = np.arange(18, dtype=np.uint8)[:, None]
    body = digits[1:19] - digits[0:18]   # digit s before the dot, s - 1 after
    body *= (slot < dot).view(np.uint8)
    body += digits[0:18]
    del digits
    body += (slot == dot).view(np.uint8) * (46 - body)
    body *= (slot < kept).view(np.uint8)
    head = tab["prefix"].take(E)
    head |= np.signbit(x) * tab["minus"]
    return head, body, tab["suffix"].take(E), slow


def _render_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV bytes of rows of equal-length columns, in one pass."""
    k, c = len(columns[0]), len(columns)
    text = {j: col if col.dtype.kind == "S" else np.char.encode(col, "utf-8")
            for j, col in enumerate(columns) if col.dtype.kind in "US"}
    # a string, then its separator and a zero, in whole words
    words = max([4] + [-(-(s.itemsize + 3) // 8) for s in text.values()])
    blank = np.zeros(k) if text else None
    x = np.stack([blank if j in text else col for j, col in enumerate(columns)],
                 axis=1, dtype=float, casting="unsafe").reshape(-1)
    head, body, tail, slow = _render_numbers(x)
    buf = np.empty((k, c, words), np.uint64)
    buf[:, :, 0] = head.reshape(k, c)
    cells = buf.view(np.uint8).reshape(k * c, 8 * words)
    cells[:, 6:24] = body.T
    del body
    buf[:, :, 3] = tail.reshape(k, c)
    buf[:, :, 4:] = 0
    buf[:, :, -1] |= _words([b"\0" * 5 + b","] * (c - 1) + [b"\0" * 5 + b"\r\n"])
    for j, s in text.items():
        cell = cells.reshape(k, c, 8 * words)[:, j]
        cell[:, :-3] = 0
        cell[:, :s.itemsize] = s.view(np.uint8).reshape(k, s.itemsize)
    idx = np.flatnonzero(slow)
    if len(idx):
        fixed = np.array(["%.17g" % v for v in x[idx].tolist()], "S29")
        cells[idx, :29] = fixed.view(np.uint8).reshape(len(idx), 29)
    return buf.tobytes().translate(None, b"\0")


def write_table(path: str | Path, header: str, columns) -> None:
    """Write `header` and one CSV row per entry of the equal-size `columns`
    (each read in row-major order), every line ending in CRLF, in UTF-8.

    String columns are written as they are (a NUL character is dropped) and
    the others as `'%.17g' % float(v)` (bools as 0 and 1), byte for byte
    Python's: nan, inf, -inf and -0 as Python prints them.  A numeric cell
    is formatted by `_render_numbers` from a double-double product whose
    error is below 2^-47 units of the 17th digit (`_significands`); a cell
    whose rounding that bound cannot settle (within 1e-12 of a tie), a
    non-finite cell and one of magnitude outside 1e-280..1e281 go through
    Python's own `'%.17g'`.  The table streams in blocks of about
    _BLOCK_CELLS cells, so the memory it takes does not grow with it.
    """
    columns = [np.asarray(c).reshape(-1) for c in columns]   # views where they can be
    fields = header.count(",") + 1
    if fields != len(columns):
        raise ValueError(f"header has {fields} fields for {len(columns)} columns")
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError(f"columns of unequal size: {[len(c) for c in columns]}")
    step = max(1, _BLOCK_CELLS // len(columns))
    with open(path, "wb") as fh:
        fh.write((header + "\r\n").encode())
        for i in range(0, rows, step):
            fh.write(_render_rows([c[i:i + step] for c in columns]))


TRAJECTORY_HEADER = ("t,X2x,X2y,X1x,X1y,vX2x,vX2y,vX1x,vX1y,comx,comy,"
                     "comvx,comvy,grf3z,grf2z,tau2y,tau2x,M3y,M3x,tau1y,tau1x")


def write_trajectory_csv(path: str | Path, traj: TrajectorySample) -> None:
    F = traj.forces
    write_table(path, TRAJECTORY_HEADER, [
        traj.t, *traj.Q[:, 0:8].T, *traj.com_pos.T, *traj.com_vel.T,
        F.F3[:, 2], F.F2[:, 2], F.tau2[:, 1], F.tau2[:, 0],
        F.M3[:, 1], F.M3[:, 0], F.tau1[:, 1], F.tau1[:, 0]])


def write_economy_csv(path: str | Path, grid: EconomyGrid) -> None:
    speed, frequency = np.meshgrid(grid.speeds, grid.frequencies, indexing="ij")
    write_table(path, "speed,frequency,tds_ratio,economy,feasible,reason",
                [speed, frequency, grid.tds_ratio, grid.economy, grid.feasible, grid.reason])


def write_peaks_csv(path: str | Path, peaks: list[PeakPoint]) -> None:
    write_table(path, "speed,frequency,boundary",
                [[p.speed for p in peaks], [p.frequency for p in peaks],
                 [p.boundary for p in peaks]])
