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

from .layout import Q_DIM, selection_matrices
from .model import BodyParams, StrideTiming, com_velocity_matrix
from .transition import StrideMaps, stride_maps

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
OBJECTIVE_SAMPLES = 50  # stride-time samples of the lateral-velocity objective


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


def _reduced(system: PeriodicitySystem, which: str) -> np.ndarray:
    if which == "R0":
        return system.R0
    if which == "R1":
        return system.R1
    raise ValueError("which must be 'R0' or 'R1'")


def singular_spectrum(system: PeriodicitySystem, which: str = "R0") -> np.ndarray:
    """Singular values (descending), the square roots of eig(R^T R)."""
    return np.linalg.svd(_reduced(system, which), compute_uv=False)


def null_basis(system: PeriodicitySystem, which: str = "R0") -> np.ndarray:
    """Orthonormal basis of the numerical null space, in reduced coordinates.

    R0 must have exactly 7 null directions; R1 returns however many exist
    (one lateral step-in-place direction away from the relaxed time, two
    at it).
    """
    R = _reduced(system, which)
    _, s, vt = np.linalg.svd(R)
    thr = NULL_RTOL * s[0]
    rank = int(np.sum(s > thr))
    V = vt[rank:].T
    if which == "R0" and V.shape[1] != 7:
        raise NullSpaceDimensionError(found=V.shape[1], expected=7)
    return V


def lift_reduced(V: np.ndarray, which: str = "R0") -> np.ndarray:
    """Embed reduced-coordinate vectors into the full 23-entry layout
    (zero foot velocity, contact at the origin, no disturbance)."""
    cols = R0_COLS if which == "R0" else R1_COLS
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] != len(cols):
        V = V.T
    out = np.zeros((Q_DIM, V.shape[1]))
    out[cols] = V
    return out


def _stride_times(T_ds: float, bracket: tuple[float, float], n: int,
                  name: str) -> np.ndarray:
    """n evenly spaced stride times over the bracket, clamped to leave a
    single-support phase of at least 1 ms; `name` is the argument holding n."""
    if not all(math.isfinite(b) for b in bracket):
        raise ValueError(f"bracket ends must be finite, got {bracket!r}")
    if n < 2:
        raise ValueError(f"{name} must be at least 2, got {n!r}")
    lo = max(bracket[0], T_ds + 1e-3)
    hi = bracket[1]
    if hi <= lo:
        raise ValueError("empty stride-time bracket")
    return np.linspace(lo, hi, n)


def relax_scan(params: BodyParams, T_ds: float,
               bracket: tuple[float, float], n: int = 81) -> np.ndarray:
    """Singular values of R1 over a stride-time grid; column 0 is T_stride."""
    ts = _stride_times(T_ds, bracket, n, "n")
    out = np.zeros((n, 8))
    for i, T in enumerate(ts):
        system = build_periodicity(params, StrideTiming(T_ds=T_ds, T_ss=T - T_ds))
        out[i, 0] = T
        out[i, 1:] = singular_spectrum(system, "R1")
    return out


# sagittal sub-block of R1: symmetry rows 1/3/5 and the sagittal
# foot-velocity row, against the X2x / X1x / vX1x columns
_SAG = np.ix_((0, 2, 4, 6), (0, 2, 4))


def _sagittal_minor(params: BodyParams, T_ds: float, T_stride: float) -> float:
    """Signed indicator of the torque-free sagittal gait: one 3x3 minor of
    the 4x3 sagittal block, which crosses zero when the block drops rank."""
    system = build_periodicity(params, StrideTiming(T_ds=T_ds, T_ss=T_stride - T_ds))
    return float(np.linalg.det(system.R1[_SAG][1:]))


def find_relax_time(params: BodyParams, T_ds: float,
                    bracket: tuple[float, float] = (0.4, 1.5),
                    scan_points: int = 41) -> float:
    """Stride time admitting a torque-free forward (sagittal) gait.

    The lateral step-in-place null direction exists at every stride time,
    so the zero of interest is the sagittal one: the second-smallest
    singular value of R1 vanishes.  The root is bracketed by sign changes
    of a sagittal minor and polished by Brent's method to xtol = 1e-10.
    """
    from scipy.optimize import brentq

    ts = _stride_times(T_ds, bracket, scan_points, "scan_points")
    vals = [_sagittal_minor(params, T_ds, T) for T in ts]

    candidates = []
    for i in range(len(ts) - 1):
        if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
            T = float(brentq(lambda T: _sagittal_minor(params, T_ds, T),
                             ts[i], ts[i + 1], xtol=1e-10))
            system = build_periodicity(params, StrideTiming(T_ds=T_ds, T_ss=T - T_ds))
            s2 = singular_spectrum(system, "R1") ** 2
            if s2[-2] <= 1e-9 * s2[0]:
                candidates.append(T)
    if not candidates:
        raise NoRelaxTimeError(
            f"no stride time in {bracket} zeroes the sagittal singular value")
    return min(candidates)


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
        return GaitSolution(params=params, timing=timing,
                            scenario=data["scenario"], v_des=data["v_des"],
                            d_sign=data["d_sign"],
                            alpha=np.array(data["alpha"]),
                            basis=np.zeros((Q_DIM, len(data["alpha"]))),
                            Q0=np.array(data["Q0"]),
                            diagnostics=data["diagnostics"])


def solve_eqp(G: np.ndarray, blocks: list[tuple[str, np.ndarray, np.ndarray]],
              rtol: float = 1e-8) -> np.ndarray:
    """Minimize |G a|^2 subject to labeled equality blocks A a = b.

    Closed-form null-space method; a degenerate reduced Hessian falls back
    to the minimum-norm step.  Raises InfeasibleConstraintsError naming the
    blocks whose equations cannot be met.
    """
    A = np.vstack([blk[1] for blk in blocks])
    b = np.concatenate([blk[2] for blk in blocks])
    a0, *_ = np.linalg.lstsq(A, b, rcond=None)
    tol = rtol * (1.0 + np.max(np.abs(b)))
    bad = []
    r = A @ a0 - b
    k = 0
    for label, Ab, bb in blocks:
        if np.max(np.abs(r[k:k + len(bb)]), initial=0.0) > tol:
            bad.append(label)
        k += len(bb)
    if bad:
        raise InfeasibleConstraintsError(bad)
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * s[0]))
    N = vt[rank:].T
    if N.shape[1] == 0:
        return a0
    beta, *_ = np.linalg.lstsq(G @ N, -G @ a0, rcond=None)
    return a0 + N @ beta


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


def solve_gait(V: np.ndarray, system: PeriodicitySystem, v_des: float,
               spec: ScenarioSpec, d_sign: float = 1.0) -> GaitSolution:
    """Pick null-space coefficients for one scenario by an equality-constrained QP.

    V is the lifted 23 x 7 basis from the R0 null space of `system`.
    """
    T_stride = system.timing.T_stride
    blocks = [
        ("support-side", _SEL.S_d @ V, np.array([d_sign])),
        ("speed", _SEL.S_X2x @ V, np.array([-v_des * T_stride])),
    ]
    if spec.zero_ankle or spec.cop_ramp is not None:
        ankle = np.vstack([_SEL.S_Ma @ V, _SEL.S_rMa @ V])
    if spec.zero_ankle:
        blocks.append(("ankle-torque", ankle, np.zeros(4)))
    if spec.cop_ramp is not None:
        # negative sagittal ramp moment drives the stance CoP toe-ward
        blocks.append(("cop-ramp", ankle,
                       np.array([0.0, 0.0, -spec.cop_ramp, 0.0])))

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
    diag = _gait_diagnostics(system, Q0)
    if lateral_rows is not None:
        diag["max_lateral_com_speed"] = float(np.max(np.abs(lateral_rows @ alpha)))
    return GaitSolution(params=system.params, timing=system.timing,
                        scenario=spec.tag, v_des=v_des, d_sign=d_sign,
                        alpha=alpha, basis=V, Q0=Q0, diagnostics=diag)


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
    V = lift_reduced(null_basis(system, "R0"), "R0")
    return solve_gait(V, system, v_des, spec, d_sign=d_sign)
