"""Per-phase constraint assembly, elimination, and force reconstruction.

The walker is three point masses on constant-height planes (one per leg,
one for the torso) joined by a massless pelvis of width w.  At any instant
the balance laws are linear in the unknown forces, torques and horizontal
accelerations:

    Newton, each mass:     m_i (ydd_i + g ez) = f_i + F_i
    moment about mass i:   (foot arm) x F_i + (hip arm) x f_i + M_i + tau_i = 0
    pelvis force:          -f1 - f2 - f3 = 0
    pelvis moment:         -tau1 - tau2 - tau3 - (w d / 2) ey x (f2 - f3) = 0

Single support prescribes zero swing-foot wrench and the hip/ankle torque
inputs (constant plus ramp).  Double support fixes both feet, prescribes
the contact-moment decay that keeps each foot's centre of pressure fixed,
and closes the remaining indeterminacy with the uniform transfer rule: the
residual system E in the hip torques and vertical ground loads, weighted by
its own Jacobians, is made proportional between the trailing and leading
leg with weights 1/(1 - t/T_ds) and 1/(t/T_ds).  The closure is assembled
in cleared-denominator form, which is regular at both phase endpoints.

The module works numerically: it assembles the equations at a given (Q, t),
eliminates dependent variables by linear solve, and recovers the phase ODE
matrices by probing the resulting linear map with basis vectors.  Time
enters the balance system only through s = t / T_phase, so the probing runs
once per (body, phase) at unit duration and is cached; each timing then
only rescales the time-linear part, K1 = K1_unit / T_phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layout import (
    Q_DIM, ID_SIDE, IP_X, IP_Y, IU_AX, IU_AY, IU_HX, IU_HY,
    IRU_AX, IRU_AY, IRU_HX, IRU_HY, IW_F1X, IW_F1Y, IW_M1X, IW_M1Y,
    IX_X1X, IX_X1Y, IX_X2X, IX_X2Y,
)
from .model import BodyParams, DegenerateModelError, StrideTiming

SINGLE = "single"
DOUBLE = "double"

EZ = np.array([0.0, 0.0, 1.0])
EY = np.array([0.0, 1.0, 0.0])


def _skew(r: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -r[2], r[1]],
                     [r[2], 0.0, -r[0]],
                     [-r[1], r[0], 0.0]])


@dataclass(frozen=True)
class ForceSolution:
    """All interaction and contact wrenches at one instant (3-vectors).

    f1..f3 are hip interaction forces on each mass, F1..F3 contact/external
    forces, M1..M3 contact/external moments, tau1..tau3 hip torques.  tau1
    is the torso-uprighting stance-hip torque.
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    F3: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray
    accel: np.ndarray  # (a2x, a2y, a1x, a1y)


class _LinearSystem:
    """Accumulates equations that are linear in a named unknown vector.

    Each physical quantity is a linear form [C | c]: value = C u + c over
    the unknown vector u.  Equations are linear forms required to vanish.
    """

    def __init__(self, names: list[str]):
        self.names = names
        self.ix = {n: i for i, n in enumerate(names)}
        self.n = len(names)
        self.rows: list[np.ndarray] = []
        self.labels: list[str] = []

    def const(self, vec) -> np.ndarray:
        L = np.zeros((3, self.n + 1))
        L[:, self.n] = vec
        return L

    def unknown3(self, base: str) -> np.ndarray:
        L = np.zeros((3, self.n + 1))
        for k, suffix in enumerate(("x", "y", "z")):
            L[k, self.ix[base + suffix]] = 1.0
        return L

    def with_entry(self, L: np.ndarray, component: int, name: str) -> np.ndarray:
        L = L.copy()
        L[component, :] = 0.0
        L[component, self.ix[name]] = 1.0
        return L

    def cross(self, r: np.ndarray, L: np.ndarray) -> np.ndarray:
        return _skew(np.asarray(r, dtype=float)) @ L

    def add(self, L: np.ndarray, label: str):
        for k, comp in enumerate("xyz"):
            self.rows.append(L[k])
            self.labels.append(f"{label}{comp}")

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        R = np.vstack(self.rows)
        return R[:, :self.n], -R[:, self.n]


def _assemble(params: BodyParams, timing: StrideTiming, phase: str,
              q: np.ndarray, t: float) -> _LinearSystem:
    """Build the full balance system at state q and phase time t."""
    q = np.asarray(q, dtype=float)
    m1, m2, m3, g = params.m1, params.m2, params.m3, params.g
    z1, z3, w = params.z1, params.z3, params.w
    kappa = params.kappa
    d = q[ID_SIDE]

    X1 = np.array([q[IX_X1X], q[IX_X1Y], z1])
    X2 = np.array([q[IX_X2X], q[IX_X2Y], 0.0])
    X3 = np.array([q[IP_X], q[IP_Y], 0.0])
    half = np.array([0.0, w * d / 2.0, 0.0])
    x2 = X1 + half
    x3 = X1 - half
    y1 = X1 + np.array([0.0, 0.0, z3])
    y2 = x2 + kappa * (X2 - x2)
    y3 = x3 + kappa * (X3 - x3)

    F1 = np.array([q[IW_F1X], q[IW_F1Y], 0.0])
    M1 = np.array([q[IW_M1X], q[IW_M1Y], 0.0])

    single = phase == SINGLE
    if single:
        names = ["a2x", "a2y", "a1x", "a1y"]
    else:
        names = ["a1x", "a1y"]
    for base in ("f1", "f2", "f3", "F3"):
        names += [base + s for s in "xyz"]
    if not single:
        names += ["F2x", "F2y", "F2z", "M2z"]
    names += ["M3z"] + ["tau1" + s for s in "xyz"]
    if single:
        names += ["tau2z"]
    else:
        names += ["tau2" + s for s in "xyz"]
    names += ["tau3" + s for s in "xyz"]

    sys = _LinearSystem(names)

    def accel1():
        L = np.zeros((3, sys.n + 1))
        L[0, sys.ix["a1x"]] = 1.0
        L[1, sys.ix["a1y"]] = 1.0
        return L

    a1 = accel1()
    if single:
        a2 = np.zeros((3, sys.n + 1))
        a2[0, sys.ix["a2x"]] = 1.0
        a2[1, sys.ix["a2y"]] = 1.0
        ydd2 = (1.0 - kappa) * a1 + kappa * a2
    else:
        ydd2 = (1.0 - kappa) * a1
    ydd1 = a1
    ydd3 = (1.0 - kappa) * a1

    f1 = sys.unknown3("f1")
    f2 = sys.unknown3("f2")
    f3 = sys.unknown3("f3")
    F3v = sys.unknown3("F3")
    tau1 = sys.unknown3("tau1")
    tau3 = sys.unknown3("tau3")
    F1v = sys.const(F1)
    M1v = sys.const(M1)

    if single:
        rt = t / timing.T_ss
        F2v = sys.const(np.zeros(3))
        M2v = sys.const(np.zeros(3))
        tau2 = sys.const([q[IU_HX] + rt * q[IRU_HX], q[IU_HY] + rt * q[IRU_HY], 0.0])
        tau2 = sys.with_entry(tau2, 2, "tau2z")
        M3v = sys.const([q[IU_AX] + rt * q[IRU_AX], q[IU_AY] + rt * q[IRU_AY], 0.0])
        M3v = sys.with_entry(M3v, 2, "M3z")
    else:
        s = t / timing.T_ds
        F2v = sys.unknown3("F2")
        tau2 = sys.unknown3("tau2")
        # trailing foot keeps its CoP: contact moment decays with the load
        M2v = sys.const([-(1.0 - s) * (q[IU_AX] + q[IRU_AX]),
                         (1.0 - s) * (q[IU_AY] + q[IRU_AY]), 0.0])
        M2v = sys.with_entry(M2v, 2, "M2z")
        M3v = sys.const([s * q[IU_AX], s * q[IU_AY], 0.0])
        M3v = sys.with_entry(M3v, 2, "M3z")

    gterm = sys.const(g * EZ)
    sys.add(m1 * (ydd1 + gterm) - f1 - F1v, "N1")
    sys.add(m2 * (ydd2 + gterm) - f2 - F2v, "N2")
    sys.add(m3 * (ydd3 + gterm) - f3 - F3v, "N3")
    sys.add(sys.cross(X1 - y1, f1) + M1v + tau1, "E1")
    sys.add(sys.cross(X2 - y2, F2v) + sys.cross(x2 - y2, f2) + M2v + tau2, "E2")
    sys.add(sys.cross(X3 - y3, F3v) + sys.cross(x3 - y3, f3) + M3v + tau3, "E3")
    sys.add(-f1 - f2 - f3, "PF")
    sys.add(-tau1 - tau2 - tau3 - (w * d / 2.0) * sys.cross(EY, f2 - f3), "PM")
    return sys


# variables of the double-support residual system E, in the order
# (tau2, F2z, tau3, F3z); E itself is what is left of the balance laws
# (pelvis moment + total vertical load) after eliminating everything else
_V2_NAMES = ("tau2x", "tau2y", "tau2z", "F2z")
_V3_NAMES = ("tau3x", "tau3y", "tau3z", "F3z")
_KEPT_LABELS = ("PMx", "PMy", "PMz", "PFz")


def _transfer_rows(sys: _LinearSystem, q: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Cleared-denominator uniform transfer rule rows for double support.

    Probes the residual E(V) by solving the remaining equations, extracts
    its Jacobians with respect to the trailing- and leading-leg variables,
    and returns s*J2 (V2 - V2hat) - (1-s)*J3 (V3 - V3hat) = 0 as four rows
    over the full unknown vector.
    """
    A, b = sys.matrices()
    v_idx = [sys.ix[n] for n in _V2_NAMES + _V3_NAMES]
    other_idx = [i for i in range(sys.n) if i not in v_idx]
    kept = [sys.labels.index(lbl) for lbl in _KEPT_LABELS]
    elim = [i for i in range(len(sys.labels)) if i not in kept]

    A_eo = A[np.ix_(elim, other_idx)]
    A_ev = A[np.ix_(elim, v_idx)]
    b_e = b[elim]
    A_ko = A[np.ix_(kept, other_idx)]
    A_kv = A[np.ix_(kept, v_idx)]
    b_k = b[kept]

    try:
        sol = np.linalg.solve(A_eo, np.column_stack([b_e[:, None], -A_ev]))
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError("double-support elimination is singular") from exc
    # residual E(V) = J V - c with both pieces from the eliminated solve
    J = A_kv + A_ko @ sol[:, 1:]
    c = b_k - A_ko @ sol[:, 0]
    J2, J3 = J[:, :4], J[:, 4:]

    v2_hat = np.array([q[IU_HX], q[IU_HY], 0.0, 0.0])
    v3_hat = np.array([-q[IU_HX] - q[IRU_HX], q[IU_HY] + q[IRU_HY], 0.0, 0.0])

    rows = np.zeros((4, sys.n))
    rows[:, v_idx[:4]] = s * J2
    rows[:, v_idx[4:]] = -(1.0 - s) * J3
    rhs = s * (J2 @ v2_hat) - (1.0 - s) * (J3 @ v3_hat)
    return rows, rhs


def solve_forces(params: BodyParams, timing: StrideTiming, phase: str,
                q: np.ndarray, t: float) -> ForceSolution:
    """Solve the assembled system at (q, t): accelerations and all wrenches."""
    duration = timing.T_ss if phase == SINGLE else timing.T_ds
    if t < -1e-12 or t > duration + 1e-12:
        raise ValueError(f"t={t} outside the {phase}-support phase [0, {duration}]")
    sys = _assemble(params, timing, phase, q, t)
    A, b = sys.matrices()
    if phase == DOUBLE:
        rows, rhs = _transfer_rows(sys, q, t / timing.T_ds)
        A = np.vstack([A, rows])
        b = np.concatenate([b, rhs])
    try:
        u = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(f"{phase}-support system is singular") from exc

    def vec3(base: str) -> np.ndarray:
        return np.array([u[sys.ix[base + s]] for s in "xyz"])

    q = np.asarray(q, dtype=float)
    single = phase == SINGLE
    if single:
        rt = t / timing.T_ss
        accel = np.array([u[sys.ix["a2x"]], u[sys.ix["a2y"]],
                          u[sys.ix["a1x"]], u[sys.ix["a1y"]]])
        F2 = np.zeros(3)
        M2 = np.zeros(3)
        tau2 = np.array([q[IU_HX] + rt * q[IRU_HX],
                         q[IU_HY] + rt * q[IRU_HY], u[sys.ix["tau2z"]]])
        M3 = np.array([q[IU_AX] + rt * q[IRU_AX],
                       q[IU_AY] + rt * q[IRU_AY], u[sys.ix["M3z"]]])
    else:
        s = t / timing.T_ds
        accel = np.array([0.0, 0.0, u[sys.ix["a1x"]], u[sys.ix["a1y"]]])
        F2 = vec3("F2")
        M2 = np.array([-(1.0 - s) * (q[IU_AX] + q[IRU_AX]),
                       (1.0 - s) * (q[IU_AY] + q[IRU_AY]), u[sys.ix["M2z"]]])
        tau2 = vec3("tau2")
        M3 = np.array([s * q[IU_AX], s * q[IU_AY], u[sys.ix["M3z"]]])
    return ForceSolution(
        f1=vec3("f1"), f2=vec3("f2"), f3=vec3("f3"),
        F1=np.array([q[IW_F1X], q[IW_F1Y], 0.0]),
        F2=F2, F3=vec3("F3"),
        M1=np.array([q[IW_M1X], q[IW_M1Y], 0.0]),
        M2=M2, M3=M3,
        tau1=vec3("tau1"), tau2=tau2, tau3=vec3("tau3"),
        accel=accel,
    )


def point_accel(params: BodyParams, timing: StrideTiming, phase: str,
                q: np.ndarray, t: float) -> np.ndarray:
    """Horizontal accelerations (a2x a2y a1x a1y) at one (q, t)."""
    return solve_forces(params, timing, phase, q, t).accel


@dataclass(frozen=True)
class PhaseODE:
    """Exact linear form of one phase: Xdd = (K0 + t K1) Q.

    K0/K1 are 4 x 23 and act on the full augmented vector.  The time-linear
    part K1 only touches entries that are constant within the phase: the
    torque/ramp/disturbance/support columns, plus the swing-foot position
    columns during double support (the trailing foot's decaying vertical
    load acts at that fixed point).
    """

    phase: str
    duration: float
    K0: np.ndarray
    K1: np.ndarray

    @property
    def A(self) -> np.ndarray:
        """Constant acceleration-from-position block (4 x 4)."""
        return self.K0[:, 0:4]

    @property
    def B0(self) -> np.ndarray:
        """Constant forcing on [P, U, rU, W, d] (4 x 15)."""
        return self.K0[:, 8:]

    @property
    def B1(self) -> np.ndarray:
        """Time-linear forcing on [P, U, rU, W, d] (4 x 15)."""
        return self.K1[:, 8:]

    def accel(self, q: np.ndarray, t: float) -> np.ndarray:
        return (self.K0 + t * self.K1) @ np.asarray(q, dtype=float)


# columns of Q allowed to carry time-linear acceleration coefficients
_CONST_COLS = {
    SINGLE: tuple(range(8, Q_DIM)),
    DOUBLE: (IX_X2X, IX_X2Y) + tuple(range(8, Q_DIM)),
}


# probing timing: both phases last 1 s, so phase time equals s = t / T_phase
_UNIT_TIMING = StrideTiming(T_ds=1.0, T_ss=1.0)


@lru_cache(maxsize=256)
def _extract_ode(params: BodyParams, phase: str) -> PhaseODE:
    """Phase ODE of one body at unit phase duration (read-only arrays)."""
    K = []
    for t in (0.0, 0.5, 1.0):
        base = point_accel(params, _UNIT_TIMING, phase, np.zeros(Q_DIM), t)
        if np.max(np.abs(base)) > 1e-9:
            raise DegenerateModelError(f"{phase}-support accelerations not homogeneous")
        cols = []
        for i in range(Q_DIM):
            e = np.zeros(Q_DIM)
            e[i] = 1.0
            cols.append(point_accel(params, _UNIT_TIMING, phase, e, t) - base)
        K.append(np.column_stack(cols))
    K0 = K[0]
    K1 = K[2] - K0
    # the differencing leaves ~1e-17 dust on genuinely constant columns;
    # true time-linear coefficients are many orders larger
    K1[np.abs(K1) < 1e-12 * max(np.max(np.abs(K1)), 1e-300)] = 0.0
    scale = max(np.max(np.abs(K0)), np.max(np.abs(K1)), 1.0)
    if np.max(np.abs(K0 + 0.5 * K1 - K[1])) > 1e-9 * scale:
        raise DegenerateModelError(f"{phase}-support forcing is not affine in time")
    allowed = _CONST_COLS[phase]
    stray = [i for i in range(Q_DIM)
             if i not in allowed and np.max(np.abs(K1[:, i])) > 1e-10 * scale]
    if stray:
        raise DegenerateModelError(
            f"time-linear coefficients on dynamic columns {stray} in {phase} support")
    K1[:, [i for i in range(Q_DIM) if i not in allowed]] = 0.0
    K0.flags.writeable = False
    K1.flags.writeable = False
    return PhaseODE(phase=phase, duration=1.0, K0=K0, K1=K1)


def assemble_single_support(params: BodyParams, timing: StrideTiming) -> PhaseODE:
    """Single-support phase ODE: swing foot free, stance foot fixed."""
    unit = _extract_ode(params, SINGLE)
    return PhaseODE(SINGLE, timing.T_ss, unit.K0, unit.K1 / timing.T_ss)


def assemble_double_support(params: BodyParams, timing: StrideTiming) -> PhaseODE:
    """Double-support phase ODE: both feet fixed, load transferring linearly."""
    unit = _extract_ode(params, DOUBLE)
    return PhaseODE(DOUBLE, timing.T_ds, unit.K0, unit.K1 / timing.T_ds)
