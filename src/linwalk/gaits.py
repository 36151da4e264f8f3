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
from dataclasses import dataclass, field, replace

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

# the timing-free factors of R_full = _R_START + _R_END @ H(T_stride)
_SEL = selection_matrices()
_R_START = np.vstack([-M_MAT @ _SEL.S_XP, np.zeros((2, Q_DIM))])
_R_END = np.vstack([O_MAT @ M_MAT @ T_MAT @ _SEL.S_XP, _SEL.S_Xdot2])
for _a in (R0_COLS, R1_COLS, _R_START, _R_END):
    _a.flags.writeable = False

NULL_RTOL = 1e-9  # singular values below this fraction of the largest are zero
EQP_RTOL = 1e-8   # solve_eqp: largest constraint residual per unit of 1 + max|b|
OBJECTIVE_SAMPLES = 50  # stride-time samples of the lateral-velocity objective
RELAX_SCAN_POINTS = 81  # relax scan grid; find_relax_time brackets on its even points


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
    params: BodyParams
    timing: StrideTiming
    maps: StrideMaps
    R_full: np.ndarray  # 8 x 23
    R0: np.ndarray      # 8 x 15
    R1: np.ndarray      # 8 x 7


def build_periodicity(params: BodyParams, timing: StrideTiming) -> PeriodicitySystem:
    """Assemble the stride-symmetry system at one parameter/timing pair.

    R_full = _R_START + _R_END H(T_stride) is one product with the stride
    map.  Its symmetry rows are written on the plain map: with the two
    foot-velocity rows they have the same null space as the H'-based form
    (H' v = H v whenever the foot-velocity rows hold), but they stay
    bounded at timings where the hip-torque-to-foot-velocity map
    degenerates and H' blows up.
    """
    maps = stride_maps(params, timing)
    R_full = _R_START + _R_END @ maps.H_stride
    return PeriodicitySystem(params=params, timing=timing, maps=maps,
                             R_full=R_full,
                             R0=R_full[:, R0_COLS], R1=R_full[:, R1_COLS])


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


# sagittal sub-block of R1: symmetry rows 1/3/5 and the sagittal
# foot-velocity row, against the X2x / X1x / vX1x columns
_SAG = np.ix_((0, 2, 4, 6), (0, 2, 4))


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


@dataclass(frozen=True)
class ScenarioSpec:
    """Extra constraints / objective shaping for one named gait scenario."""

    tag: str
    zero_ankle: bool = False
    cop_ramp: float | None = None
    lateral_velocity_objective: bool = False
    tds_scale: float = 1.0
    leg_mass_fraction: float | None = None
    z_shrink: float | None = None


SCENARIOS = ("pseudo-passive", "long-double-support", "stage-walk",
             "cop-modulated", "lip-like", "minimal-torque")


def scenario(tag: str, params: BodyParams | None = None,
             foot_length: float = 0.24) -> ScenarioSpec:
    """Build the spec for one of the named walking scenarios."""
    if tag in ("minimal-torque", "pseudo-passive"):
        return ScenarioSpec(tag=tag)
    if tag == "long-double-support":
        return ScenarioSpec(tag=tag, zero_ankle=True, tds_scale=2.0)
    if tag == "stage-walk":
        return ScenarioSpec(tag=tag, zero_ankle=True, lateral_velocity_objective=True)
    if tag == "cop-modulated":
        if params is None:
            raise ValueError("cop-modulated scenario needs body parameters")
        return ScenarioSpec(tag=tag, cop_ramp=cop_ramp_torque(params, foot_length))
    if tag == "lip-like":
        return ScenarioSpec(tag=tag, zero_ankle=True,
                            leg_mass_fraction=0.05, z_shrink=0.1)
    raise ValueError(f"unknown scenario {tag!r}; expected one of {SCENARIOS}")


def scenario_model(params: BodyParams, timing: StrideTiming,
                   spec: ScenarioSpec) -> tuple[BodyParams, StrideTiming]:
    """Apply the scenario's parameter/timing surgery."""
    if spec.leg_mass_fraction is not None:
        keep = spec.leg_mass_fraction
        moved = (1.0 - keep) * (params.m2 + params.m3)
        params = replace(params, m1=params.m1 + moved,
                         m2=params.m2 * keep, m3=params.m3 * keep,
                         z2=params.z2 * spec.z_shrink,
                         z3=params.z3 * spec.z_shrink)
    if spec.tds_scale != 1.0:
        new_ds = spec.tds_scale * timing.T_ds
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
    alpha: np.ndarray
    basis: np.ndarray      # 23 x 7, lifted null-space basis
    Q0: np.ndarray         # 23, initial augmented state
    diagnostics: dict = field(default_factory=dict)

    def to_record(self) -> str:
        payload = {
            "scenario": self.scenario,
            "timing": {"T_ds": self.timing.T_ds, "T_ss": self.timing.T_ss,
                       "T_stride": self.timing.T_stride},
            "v_des": self.v_des,
            "d_sign": self.d_sign,
            "params": {k: getattr(self.params, k)
                       for k in ("m1", "m2", "m3", "z1", "z2", "z3", "w", "g")},
            "alpha": self.alpha.tolist(),
            "Q0": self.Q0.tolist(),
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, indent=1)

    @staticmethod
    def from_record(text: str) -> "GaitSolution":
        data = json.loads(text)
        params = BodyParams(**data["params"])
        timing = StrideTiming(T_ds=data["timing"]["T_ds"], T_ss=data["timing"]["T_ss"])
        # the model's own params and timing: the basis is rebuilt bit for bit
        return GaitSolution(params=params, timing=timing,
                            scenario=data["scenario"], v_des=data["v_des"],
                            d_sign=data["d_sign"],
                            alpha=np.array(data["alpha"]),
                            basis=null_basis(build_periodicity(params, timing), "R0"),
                            Q0=np.array(data["Q0"]),
                            diagnostics=data["diagnostics"])


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


def _gait_diagnostics(system: PeriodicitySystem, Q0: np.ndarray) -> dict:
    Q_end = system.maps.H_stride @ Q0
    v0 = _SEL.S_XP @ Q0
    v1 = _SEL.S_XP @ Q_end
    residual = M_MAT @ v0 - O_MAT @ M_MAT @ T_MAT @ v1
    return {
        "periodicity_residual": float(np.max(np.abs(residual))),
        "end_foot_speed": float(np.linalg.norm(_SEL.S_Xdot2 @ Q_end)),
        "torque_norm": float(np.linalg.norm(_SEL.S_U @ Q0)),
    }


def _gait_blocks(V: np.ndarray, v_des: float, T_stride, spec: ScenarioSpec,
                 d_sign: float) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The labeled equality blocks of one scenario's program on the R0 basis
    V (23 x 7), or on a stack of them (k, 23, 7) with one stride time
    each (k,)."""
    lead = V.shape[:-2]
    blocks = [
        ("support-side", _SEL.S_d @ V, np.full(lead + (1,), d_sign)),
        ("speed", _SEL.S_X2x @ V, np.reshape(-v_des * np.asarray(T_stride), lead + (1,))),
    ]
    if spec.zero_ankle or spec.cop_ramp is not None:
        ankle = np.concatenate([_SEL.S_Ma @ V, _SEL.S_rMa @ V], axis=-2)
    if spec.zero_ankle:
        blocks.append(("ankle-torque", ankle, np.zeros(lead + (4,))))
    if spec.cop_ramp is not None:
        # negative sagittal ramp moment drives the stance CoP toe-ward
        blocks.append(("cop-ramp", ankle,
                       np.broadcast_to([0.0, 0.0, -spec.cop_ramp, 0.0], lead + (4,))))
    return blocks


def solve_gait(V: np.ndarray, system: PeriodicitySystem, v_des: float,
               spec: ScenarioSpec, d_sign: float = 1.0) -> GaitSolution:
    """Pick null-space coefficients for one scenario by an equality-constrained QP.

    V is the 23 x 7 basis of the R0 null space of `system` (`null_basis`).
    """
    T_stride = system.timing.T_stride
    blocks = _gait_blocks(V, v_des, T_stride, spec, d_sign)
    lateral_rows = None
    if spec.lateral_velocity_objective:
        C = com_velocity_matrix(system.params)[1]     # lateral CoM velocity row
        ts = np.linspace(0.0, T_stride, OBJECTIVE_SAMPLES)
        lateral_rows = C @ system.maps.states(V, ts)
        G = lateral_rows
    else:
        G = _SEL.S_U @ V

    alpha = solve_eqp(G, blocks)
    Q0 = V @ alpha
    Q0[ID_SIDE] = d_sign  # the support-side row holds only to a few ulps
    diag = _gait_diagnostics(system, Q0)
    if lateral_rows is not None:
        diag["max_lateral_com_speed"] = float(np.max(np.abs(lateral_rows @ alpha)))
    return GaitSolution(params=system.params, timing=system.timing,
                        scenario=spec.tag, v_des=v_des, d_sign=d_sign,
                        alpha=alpha, basis=V, Q0=Q0, diagnostics=diag)


def minimal_torque_gaits(H_stride: np.ndarray, v_des: float, T_stride: np.ndarray,
                         d_sign: float = 1.0) -> tuple[np.ndarray, list]:
    """The minimal-torque gaits of k strides of one body at once, from their
    stride maps H_stride (k, 23, 23) and stride times (k,): the initial
    states Q0 (k, 23), and per stride None or the error its gait fails
    with, `NullSpaceDimensionError` or `InfeasibleConstraintsError` (that
    stride's Q0 is then meaningless).  `synthesize_gait` with the default
    scenario gives the same gait, one stride at a time: the stacked R0
    (k, 8, 15) takes one batched SVD for its null bases (k, 23, 7), and
    the programs two more (`_eqp`)."""
    R0 = (_R_START + _R_END @ H_stride)[:, :, R0_COLS]
    V, found = _null_spaces(R0, R0_COLS, 7)
    blocks = _gait_blocks(V, v_des, T_stride, ScenarioSpec(tag="minimal-torque"), d_sign)
    alpha, bad = _eqp(_SEL.S_U @ V, blocks)
    Q0 = (V @ alpha[:, :, None])[:, :, 0]
    Q0[:, ID_SIDE] = d_sign
    errors = [NullSpaceDimensionError(found=int(f), expected=7) if f != 7
              else InfeasibleConstraintsError(labels) if labels else None
              for f, labels in zip(found, bad)]
    return Q0, errors


def synthesize_gait(params: BodyParams, timing: StrideTiming, v_des: float,
                    spec: ScenarioSpec | str | None = None,
                    d_sign: float = 1.0, foot_length: float = 0.24) -> GaitSolution:
    """End-to-end gait synthesis for one scenario at one speed and timing."""
    if not np.isfinite(v_des):
        raise ValueError(f"v_des must be finite, got {v_des!r}")
    if spec is None:
        spec = ScenarioSpec(tag="minimal-torque")
    elif isinstance(spec, str):
        spec = scenario(spec, params=params, foot_length=foot_length)
    model_params, model_timing = scenario_model(params, timing, spec)
    system = build_periodicity(model_params, model_timing)
    return solve_gait(null_basis(system, "R0"), system, v_des, spec, d_sign=d_sign)
