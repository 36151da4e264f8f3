"""Periodic-gait search: symmetry system, null spaces, and gait optimization.

A periodic symmetric stride compares relative vectors (pelvis to each foot,
pelvis velocity) before and after one stride, with the feet exchanged and
lateral components mirrored.  Packing those comparisons against the
stride map H and the end-of-stride foot-velocity rows gives a matrix whose
null space holds every valid periodic gait, one affine map of H(T_stride):

    R_full = [ -M S_XP ] + [ O M T S_XP ] H(T_stride)   (6 symmetry rows)
             [    0    ]   [  S_Xdot2   ]               (2 foot-velocity rows)

Both 8 x 23 factors are timing-free and formed once, at import.

Dropping the columns for initial foot velocity, contact position, and
disturbances (all zero in a nominal gait) leaves R0 (8 x 15) with a
7-dimensional null space at any timing; dropping the eight torque columns
as well leaves R1 (8 x 7), whose null space holds torque-free gaits: a
step-in-place lateral sway exists at every stride time, and one special
stride time (the relaxed time) adds a sagittal, forward-progressing
solution.

Gait selection is an equality-constrained quadratic program over the
null-space coefficients, solved in closed form by the null-space method.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .dynamics import DOUBLE, SINGLE
from .layout import ID_SIDE, Q_DIM, selection_matrices
from .model import BodyParams, StrideTiming, com_velocity_matrix
from .roots import brentq
from .transition import StrideMaps, phase_ends, stride_maps

# relative-vector map on [X2, X1, Xdot1, P]: pelvis-to-swing-foot,
# pelvis-to-stance-foot, pelvis velocity
M_MAT = np.array([
    [-1, 0, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
], dtype=float)

# sagittal components repeat, lateral components flip after a stride
O_MAT = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

# swing and stance contact points exchange roles at the stride boundary
T_MAT = np.zeros((8, 8))
for _r, _c in ((0, 6), (1, 7), (2, 2), (3, 3), (4, 4), (5, 5), (6, 0), (7, 1)):
    T_MAT[_r, _c] = 1.0

# columns kept in the reduced systems (Q order): positions, pelvis
# velocity, torques, support side / then torque columns removed
R0_COLS = np.array((0, 1, 2, 3, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17, 22))
R1_COLS = np.array((0, 1, 2, 3, 6, 7, 22))
# sagittal sub-block of R1: symmetry rows 1/3/5 and the sagittal
# foot-velocity row, against the X2x / X1x / vX1x columns
_SAG = np.ix_((0, 2, 4, 6), (0, 2, 4))

# the timing-free factors of R_full = _R_START + _R_END @ H(T_stride)
_SEL = selection_matrices()
_R_START = np.vstack([-M_MAT @ _SEL.S_XP, np.zeros((2, Q_DIM))])
_R_END = np.vstack([O_MAT @ M_MAT @ T_MAT @ _SEL.S_XP, _SEL.S_Xdot2])
for _a in (M_MAT, O_MAT, T_MAT, R0_COLS, R1_COLS, *_SAG, _R_START, _R_END):
    _a.flags.writeable = False

NULL_RTOL = 1e-9  # singular values below this fraction of the largest are zero
EQP_RTOL = 1e-8   # solve_eqp: largest constraint residual per unit of 1 + max|b|
OBJECTIVE_SAMPLES = 50  # stride-time samples of the lateral-velocity objective
RELAX_SCAN_POINTS = 81  # relax scan grid; find_relax_time brackets on its even points
# widest relax bracket, s: its even points step at most 0.05 s, where adjacent
# roots on adult and kid bodies lie 0.38-0.53 s apart
RELAX_MAX_BRACKET = 2.0


class NoRelaxTimeError(RuntimeError):
    """No stride time in the bracket admits a torque-free forward gait."""


class NullSpaceDimensionError(RuntimeError):
    def __init__(self, found: int, expected: int):
        super().__init__(f"null space has dimension {found}, expected {expected}")
        self.found = found
        self.expected = expected


class InfeasibleConstraintsError(RuntimeError):
    """The equality constraints of the gait program are inconsistent."""

    def __init__(self, blocks: list[str]):
        super().__init__(f"infeasible constraint block(s): {', '.join(blocks)}")
        self.blocks = blocks


@dataclass(frozen=True)
class PeriodicitySystem:
    maps: StrideMaps    # its body and timing too
    R0: np.ndarray      # 8 x 15
    R1: np.ndarray      # 8 x 7


def build_periodicity(params: BodyParams, timing: StrideTiming) -> PeriodicitySystem:
    """Assemble the stride-symmetry system at one parameter/timing pair.

    R_full = _R_START + _R_END H(T_stride) is one product with the stride
    map, and R0 and R1 are column reads of it.  Its symmetry rows are
    written on the plain map: with the two foot-velocity rows they have
    the same null space as the H'-based form (H' v = H v whenever the
    foot-velocity rows hold), but they stay bounded at timings where the
    hip-torque-to-foot-velocity map degenerates and H' blows up.
    """
    maps = stride_maps(params, timing)
    R_full = _R_START + _R_END @ maps.H_stride
    return PeriodicitySystem(maps=maps, R0=R_full[:, R0_COLS], R1=R_full[:, R1_COLS])


def _reduced(system: PeriodicitySystem, which: str) -> tuple[np.ndarray, np.ndarray]:
    """The reduced system named by `which` and the Q columns it keeps."""
    if which == "R0":
        return system.R0, R0_COLS
    if which == "R1":
        return system.R1, R1_COLS
    raise ValueError("which must be 'R0' or 'R1'")


def singular_spectrum(system: PeriodicitySystem, which: str = "R0") -> np.ndarray:
    """Singular values (descending), the square roots of eig(R^T R)."""
    return np.linalg.svd(_reduced(system, which)[0], compute_uv=False)


def _null_spaces(R: np.ndarray, cols: np.ndarray,
                 width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The numerical null spaces of k stacked reduced systems R (k, 8, n)
    keeping the Q columns `cols`, lifted into the 23-entry layout: bases
    (k, 23, width) from each system's last `width` right singular vectors
    (by default the null dimension found, for one system), and the null
    dimension found for each (k,).  One batched SVD."""
    _, s, vt = np.linalg.svd(R)
    found = len(cols) - np.count_nonzero(s > NULL_RTOL * s[:, :1], axis=1)
    width = int(found[0]) if width is None else width
    V = np.zeros((len(R), Q_DIM, width))
    V[:, cols] = vt[:, len(cols) - width:].swapaxes(1, 2)
    return V, found


def null_basis(system: PeriodicitySystem, which: str = "R0") -> np.ndarray:
    """Orthonormal basis of the numerical null space, lifted into the full
    23-entry layout: the columns the reduced system drops (foot velocity,
    contact position, disturbances, and for R1 the torques) are zero.

    R0 must have exactly 7 null directions (23 x 7); R1 returns however
    many exist (one lateral step-in-place direction away from the relaxed
    time, two at it).  `_null_spaces` on a stack of one.
    """
    R, cols = _reduced(system, which)
    V, found = _null_spaces(R[None], cols, 7 if which == "R0" else None)
    if which == "R0" and found[0] != 7:
        raise NullSpaceDimensionError(found=int(found[0]), expected=7)
    return V[0]


def _stride_times(T_ds: float, bracket: tuple[float, float]) -> np.ndarray:
    """The relax grid: RELAX_SCAN_POINTS evenly spaced stride times over the
    bracket, clamped to leave a single-support phase of at least 1 ms."""
    if not all(math.isfinite(b) for b in bracket):
        raise ValueError(f"bracket ends must be finite, got {bracket!r}")
    if bracket[1] - bracket[0] > RELAX_MAX_BRACKET:
        raise ValueError(f"stride-time bracket {bracket!r} is {bracket[1] - bracket[0]:g} s "
                         f"wide, more than {RELAX_MAX_BRACKET:g} s")
    lo = max(bracket[0], T_ds + 1e-3)
    if bracket[1] <= lo:
        raise ValueError("empty stride-time bracket")
    return np.linspace(lo, bracket[1], RELAX_SCAN_POINTS)


def _relax_R1(params: BodyParams, T_ds: float):
    """R1 of one body at double-support time T_ds as a function of stride
    times ts (k,), giving (k, 8, 7): _R_START[:, R1_COLS] + _R_END
    H_ss(T - T_ds) H_ds(T_ds)[:, R1_COLS].  The double-support map is
    taken once, here; each call evaluates the single-support maps at all
    its times at once.  No stride map is built or cached."""
    right = phase_ends(params, DOUBLE, T_ds)[0][:, R1_COLS]
    start = _R_START[:, R1_COLS]
    return lambda ts: start + _R_END @ phase_ends(params, SINGLE, ts - T_ds) @ right


def relax_scan(params: BodyParams, T_ds: float, bracket: tuple[float, float]) -> np.ndarray:
    """Singular values of R1 over the relax grid; column 0 is T_stride."""
    ts = _stride_times(T_ds, bracket)
    return np.column_stack(
        [ts, np.linalg.svd(_relax_R1(params, T_ds)(ts), compute_uv=False)])


def find_relax_time(params: BodyParams, T_ds: float,
                    bracket: tuple[float, float] = (0.4, 1.5)) -> float:
    """Smallest stride time in the bracket admitting a torque-free forward
    (sagittal) gait, where the second-smallest singular value of R1 vanishes
    (the smallest, the lateral step in place, vanishes at every stride time).

    A sagittal minor of R1 is evaluated at all even points of the relax
    grid at once; going up the grid, each sign change, or zero, of it is
    Brent-polished (`roots.brentq`, xtol = 1e-10, one map per step) and the
    first root passing the rank check is returned.  Brent reads the grid's
    own values at its bracket ends: a one-point evaluation there may round
    to the other sign where the minor is near zero.
    """
    ts = _stride_times(T_ds, bracket)[::2].tolist()
    R1 = _relax_R1(params, T_ds)
    vals = np.linalg.det(R1(np.array(ts))[(..., *_SAG)][:, 1:])
    grid = dict(zip(ts, vals.tolist()))

    def minor(T: float) -> float:
        # one 3x3 minor of the sagittal block: zero where the block drops rank
        if T in grid:
            return grid[T]
        return float(np.linalg.det(R1(np.array([T]))[0][_SAG][1:]))

    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0):
        T = brentq(minor, ts[i], ts[i + 1], xtol=1e-10)
        s2 = np.linalg.svd(R1(np.array([T]))[0], compute_uv=False) ** 2
        if s2[-2] <= 1e-9 * s2[0]:
            return T
    raise NoRelaxTimeError(
        f"no stride time in {bracket} zeroes the sagittal singular value")


def cop_ramp_torque(params: BodyParams, foot_length: float) -> float:
    """Ramp ankle torque magnitude moving the CoP heel-to-toe over one foot.

    With the stance vertical load constant at total weight, a ramp moment
    of magnitude (m1+m2+m3) g L walks the centre of pressure linearly out
    to L.  The contact-moment convention makes the forward CoP offset
    -M_ay / Fz, so the scenario applies the ramp with a negative sign.
    """
    if not (np.isfinite(foot_length) and foot_length >= 0.0):
        raise ValueError(
            f"foot_length must be finite and non-negative, got {foot_length!r}")
    return params.total_mass * params.g * foot_length


class _Scenario(NamedTuple):     # one row of the scenario table
    zero_ankle: bool                   # all four ankle torques held at zero
    cop_ramp: bool                     # the ankle ramp walks the CoP out over the foot
    lateral_velocity_objective: bool   # minimize lateral CoM speed, not torque
    tds_scale: float                   # double support scaled, stride time kept
    lip_body: bool                     # leg mass moved to the pelvis, legs shortened


_SCENARIO_TABLE = {
    "pseudo-passive":      _Scenario(False, False, False, 1.0, False),
    "long-double-support": _Scenario(True,  False, False, 2.0, False),
    "stage-walk":          _Scenario(True,  False, True,  1.0, False),
    "cop-modulated":       _Scenario(False, True,  False, 1.0, False),
    "lip-like":            _Scenario(True,  False, False, 1.0, True),
    "minimal-torque":      _Scenario(False, False, False, 1.0, False),
}
SCENARIOS = tuple(_SCENARIO_TABLE)
FOOT_LENGTH = 0.24          # cop-modulated: default foot length, m
LIP_LEG_MASS_SHARE = 0.05   # lip-like: share of their mass the legs keep
LIP_HEIGHT_SHRINK = 0.1     # lip-like: factor on the leg-mass heights z2, z3


def _scenario(name: str) -> _Scenario:
    """The table row of a scenario name; anything else is refused."""
    if not isinstance(name, str) or name not in _SCENARIO_TABLE:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    return _SCENARIO_TABLE[name]


def scenario_foot_length(name: str, foot_length: float | None = None) -> float | None:
    """The foot length scenario `name` reads: cop-modulated's (FOOT_LENGTH
    when None is given), and None for the others, which refuse one."""
    if _scenario(name).cop_ramp:
        return FOOT_LENGTH if foot_length is None else foot_length
    if foot_length is not None:
        raise ValueError(f"only the cop-modulated scenario reads a foot length; "
                         f"{name!r} was given foot_length={foot_length!r}")
    return None


def scenario_model(params: BodyParams, timing: StrideTiming,
                   name: str) -> tuple[BodyParams, StrideTiming]:
    """Apply the named scenario's parameter/timing surgery."""
    row = _scenario(name)
    if row.lip_body:
        keep = LIP_LEG_MASS_SHARE
        moved = (1.0 - keep) * (params.m2 + params.m3)
        params = replace(params, m1=params.m1 + moved,
                         m2=params.m2 * keep, m3=params.m3 * keep,
                         z2=params.z2 * LIP_HEIGHT_SHRINK,
                         z3=params.z3 * LIP_HEIGHT_SHRINK)
    if row.tds_scale != 1.0:
        new_ds = row.tds_scale * timing.T_ds
        new_ss = timing.T_stride - new_ds
        if new_ss <= 0.0:
            raise ValueError("scaled double support exceeds the stride time")
        timing = StrideTiming(T_ds=new_ds, T_ss=new_ss)
    return params, timing


@dataclass(frozen=True)
class GaitSolution:
    """One synthesized periodic gait and its residual diagnostics."""

    params: BodyParams
    timing: StrideTiming
    scenario: str
    v_des: float
    d_sign: float
    alpha: np.ndarray      # 7, coefficients on the R0 null basis
    Q0: np.ndarray         # 23, initial augmented state
    diagnostics: dict = field(default_factory=dict)

    def to_record(self) -> str:
        payload = {
            "scenario": self.scenario,
            "timing": {"T_ds": self.timing.T_ds, "T_ss": self.timing.T_ss,
                       "T_stride": self.timing.T_stride},
            "v_des": self.v_des,
            "d_sign": self.d_sign,
            "params": vars(self.params),       # m1, m2, m3, z1, z2, z3, w, g
            "alpha": self.alpha.tolist(),
            "Q0": self.Q0.tolist(),
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_record(text: str) -> "GaitSolution":
        """The gait a `to_record` text holds; a field no gait has, or none,
        is refused by name."""
        data = json.loads(text)
        timing, params = data.get("timing"), data.get("params")
        names = [f.name for f in fields(BodyParams)]
        for key, ok, what in (
                ("scenario", data.get("scenario") in SCENARIOS, f"one of {SCENARIOS}"),
                ("d_sign", _finite(data.get("d_sign")) and abs(data["d_sign"]) == 1.0, "-1 or +1"),
                ("v_des", _finite(data.get("v_des")), "a finite number"),
                ("Q0", _finite(data.get("Q0"), Q_DIM), "23 finite numbers"),
                ("alpha", _finite(data.get("alpha"), 7), "7 finite numbers"),
                ("timing", isinstance(timing, dict) and _finite(timing.get("T_ds"))
                 and _finite(timing.get("T_ss")), "finite T_ds and T_ss"),
                ("params", isinstance(params, dict) and sorted(params) == sorted(names)
                 and all(map(_finite, params.values())), f"finite {', '.join(names)}")):
            if not ok:
                raise ValueError(f"record {key} must be {what}, got {data.get(key)!r}")
        return GaitSolution(params=BodyParams(**params),
                            timing=StrideTiming(timing["T_ds"], timing["T_ss"]),
                            scenario=data["scenario"], v_des=data["v_des"],
                            d_sign=data["d_sign"], alpha=np.array(data["alpha"]),
                            Q0=np.array(data["Q0"]), diagnostics=data.get("diagnostics", {}))


def _finite(value, n: int | None = None) -> bool:
    """Whether a record value is a finite number, or with n a list of n."""
    if n is not None:
        return isinstance(value, list) and len(value) == n and all(map(_finite, value))
    return type(value) in (int, float) and math.isfinite(value)    # JSON true is no number


def _lstsq(M: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`np.linalg.lstsq(M, y, rcond=None)` on stacks M (k, p, n), y (k, p),
    which lstsq does not take: the minimum-norm least-squares solutions
    (k, n), singular values at most eps max(p, n) times the largest
    counting as zero.  Also each M's rank (k,) and right singular vectors
    (k, n, n)."""
    U, s, vt = np.linalg.svd(M)
    q = s.shape[1]
    keep = s > np.finfo(float).eps * max(M.shape[1:]) * s[:, :1]
    c = (y[:, None] @ U[:, :, :q])[:, 0] / np.where(keep, s, np.inf)   # U^T y / s
    return (c[:, None] @ vt[:, :q])[:, 0], np.count_nonzero(keep, axis=1), vt


def _eqp(G: np.ndarray, blocks: list[tuple[str, np.ndarray, np.ndarray]]
         ) -> tuple[np.ndarray, list[list[str]]]:
    """`solve_eqp` on k stacked programs: G (k, g, n) with g >= n, and
    labeled blocks A (k, r, n), b (k, r).  Returns the minimizers (k, n)
    and, per program, the labels of the blocks it cannot meet (empty where
    it is feasible).  The null-space step spans the constraint matrix's
    right singular vectors past its rank, the others zeroed, so every
    program keeps its own rank."""
    A = np.concatenate([blk[1] for blk in blocks], axis=1)
    b = np.concatenate([blk[2] for blk in blocks], axis=1)
    a0, rank, vt = _lstsq(A, b)
    r = np.abs((A @ a0[:, :, None])[:, :, 0] - b)
    tol = EQP_RTOL * (1.0 + np.max(np.abs(b), axis=1))
    firsts = np.cumsum([0] + [blk[2].shape[1] for blk in blocks[:-1]])
    over = np.maximum.reduceat(r, firsts, axis=1) > tol[:, None]   # (k, blocks)
    bad = [[blk[0] for blk, o in zip(blocks, row) if o] for row in over.tolist()]
    N = vt.swapaxes(1, 2) * (np.arange(A.shape[2]) >= rank[:, None])[:, None]
    beta = _lstsq(G @ N, -(G @ a0[:, :, None])[:, :, 0])[0]
    return a0 + (N @ beta[:, :, None])[:, :, 0], bad


def solve_eqp(G: np.ndarray,
              blocks: list[tuple[str, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Minimize |G a|^2 subject to labeled equality blocks A a = b.

    Closed-form null-space method; a degenerate reduced Hessian falls back
    to the minimum-norm step.  Raises InfeasibleConstraintsError naming the
    blocks whose equations cannot be met.  `_eqp` on a stack of one.
    """
    alpha, bad = _eqp(np.asarray(G)[None], [(label, np.asarray(A)[None], np.asarray(b)[None])
                                            for label, A, b in blocks])
    if bad[0]:
        raise InfeasibleConstraintsError(bad[0])
    return alpha[0]


def _gait_diagnostics(maps: StrideMaps, Q0: np.ndarray) -> dict:
    Q_end = maps.H_stride @ Q0
    residual = M_MAT @ (_SEL.S_XP @ Q0) - O_MAT @ M_MAT @ T_MAT @ (_SEL.S_XP @ Q_end)
    return {
        "periodicity_residual": float(np.max(np.abs(residual))),
        "end_foot_speed": float(np.linalg.norm(_SEL.S_Xdot2 @ Q_end)),
        "torque_norm": float(np.linalg.norm(_SEL.S_U @ Q0)),
    }


def _gait_blocks(V: np.ndarray, v_des: float, T_stride, row: _Scenario,
                 d_sign: float, ramp: float = 0.0) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The labeled equality blocks of one scenario's program, its table row
    and its CoP ramp torque `ramp`, on the R0 basis V (23 x 7), or on a
    stack of them (k, 23, 7) with one stride time each (k,)."""
    lead = V.shape[:-2]
    blocks = [
        ("support-side", _SEL.S_d @ V, np.full(lead + (1,), d_sign)),
        ("speed", _SEL.S_X2x @ V, np.reshape(-v_des * np.asarray(T_stride), lead + (1,))),
    ]
    if row.zero_ankle or row.cop_ramp:
        ankle = np.concatenate([_SEL.S_Ma @ V, _SEL.S_rMa @ V], axis=-2)
    if row.zero_ankle:
        blocks.append(("ankle-torque", ankle, np.zeros(lead + (4,))))
    if row.cop_ramp:
        # negative sagittal ramp moment drives the stance CoP toe-ward
        blocks.append(("cop-ramp", ankle,
                       np.broadcast_to([0.0, 0.0, -ramp, 0.0], lead + (4,))))
    return blocks


def minimal_torque_gaits(H_stride: np.ndarray, v_des: float,
                         T_stride: np.ndarray) -> tuple[np.ndarray, list]:
    """The minimal-torque gaits of k strides of one body at once, on support
    side d = 1, from their stride maps H_stride (k, 23, 23) and stride
    times (k,): the initial states Q0 (k, 23), and per stride None or the
    error its gait fails with, `NullSpaceDimensionError` or
    `InfeasibleConstraintsError` (that stride's Q0 is then meaningless).
    `synthesize_gait` with the default scenario and side gives the same
    gait to roundoff, one stride at a time: the stacked R0 (k, 8, 15)
    takes one batched SVD for its null bases (k, 23, 7), and the programs
    two more (`_eqp`)."""
    R0 = (_R_START + _R_END @ H_stride)[:, :, R0_COLS]
    V, found = _null_spaces(R0, R0_COLS, 7)
    blocks = _gait_blocks(V, v_des, T_stride, _SCENARIO_TABLE["minimal-torque"], 1.0)
    alpha, bad = _eqp(_SEL.S_U @ V, blocks)
    Q0 = (V @ alpha[:, :, None])[:, :, 0]
    Q0[:, ID_SIDE] = 1.0
    errors = [NullSpaceDimensionError(found=int(f), expected=7) if f != 7
              else InfeasibleConstraintsError(labels) if labels else None
              for f, labels in zip(found, bad)]
    return Q0, errors


def synthesize_gait(params: BodyParams, timing: StrideTiming, v_des: float,
                    spec: str = "minimal-torque", d_sign: float = 1.0,
                    foot_length: float | None = None) -> GaitSolution:
    """End-to-end gait synthesis for one of the `SCENARIOS` at one speed and
    timing: the scenario's equality-constrained QP over the coefficients of
    the R0 null-space basis (`null_basis`) of its model's periodicity system."""
    if not np.isfinite(v_des):
        raise ValueError(f"v_des must be finite, got {v_des!r}")
    if d_sign not in (-1.0, 1.0):
        raise ValueError(f"support side d_sign must be -1 or +1, got {d_sign!r}")
    row = _scenario(spec)
    foot_length = scenario_foot_length(spec, foot_length)
    ramp = 0.0 if foot_length is None else cop_ramp_torque(params, foot_length)
    params, timing = scenario_model(params, timing, spec)
    system = build_periodicity(params, timing)
    V = null_basis(system, "R0")
    if row.lateral_velocity_objective:
        ts = np.linspace(0.0, timing.T_stride, OBJECTIVE_SAMPLES)
        G = com_velocity_matrix(params)[1] @ system.maps.states(V, ts)
    else:
        G = _SEL.S_U @ V
    alpha = solve_eqp(G, _gait_blocks(V, v_des, timing.T_stride, row, d_sign, ramp))
    Q0 = V @ alpha
    Q0[ID_SIDE] = d_sign  # the support-side row holds only to a few ulps
    diag = _gait_diagnostics(system.maps, Q0)
    if row.lateral_velocity_objective:
        diag["max_lateral_com_speed"] = float(np.max(np.abs(G @ alpha)))
    return GaitSolution(params=params, timing=timing, scenario=spec,
                        v_des=v_des, d_sign=d_sign, alpha=alpha, Q0=Q0,
                        diagnostics=diag)
