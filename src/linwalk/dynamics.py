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

The module works numerically, on stacks of instants: `_assemble` writes
the balance laws' coefficients at k states into one (k, n, n) array, with
each unknown at a fixed column of its phase, `_rhs` their right-hand sides
at k pairs (Q, t), double support forms its closure rows with one stacked
elimination, and `solve_forces` solves all k systems with one more.  The
phase ODE matrices come from one stacked solve per (body, phase), probing
the zero state and the 19 basis vectors of the entries the balance laws
read (all but the velocities) at three s at once: 20 probes, 60 systems.
A balance matrix reads Q only at the points and the side, and never s, so
it is assembled once per distinct state, 8 in single support and 14 in
double support, where the elimination runs over those 14 (the probes' 8
and the point states at d = 1 that the yaw split reads) in one stacked
call; each probe solves against a copy of its matrix, with its matrix's
Jacobian.
Time enters the balance system only through s = t / T_phase, so the probing
runs once per (body, phase) at unit duration and is cached; each timing
then only rescales the time-linear part, K1 = K1_unit / T_phase.

The same probe solve gives each phase's wrench map (`WrenchMap`).  The
vertical loads do not depend on Q, so every wrench entry but the yaw
torques is affine in Q, and it is affine (single support) or quadratic
(double support) in s: a table over [1, Q] fixed by the three probed s.
The yaw torques are bilinear and come in closed form from the z rows of
the balance laws, split in double support by the transfer Jacobians of
the same elimination.  A trajectory's wrenches come from these maps
(`map_forces`: one product per phase, no linear solve); `solve_forces`
stays the probe and the reference they are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layout import (
    Q_DIM, ID_SIDE, IP_X, IP_Y, IU_AX, IU_AY, IU_HX, IU_HY, IV_X1Y, IV_X2X,
    IRU_AX, IRU_AY, IRU_HX, IRU_HY, IW_F1X, IW_F1Y, IW_M1X, IW_M1Y,
    IX_X1X, IX_X1Y, IX_X2X, IX_X2Y,
)
from .model import BodyParams, DegenerateModelError, StrideTiming, geometry

SINGLE = "single"
DOUBLE = "double"


def check_phase(phase: str) -> None:
    """Raise ValueError, naming both phases, for a phase name other than
    SINGLE and DOUBLE."""
    if phase not in (SINGLE, DOUBLE):
        raise ValueError(f"unknown phase {phase!r}: expected {SINGLE!r} or {DOUBLE!r}")


def _skew(r: np.ndarray) -> np.ndarray:
    """Cross-product matrices of the rows of r: (k, 3) -> (k, 3, 3)."""
    S = np.zeros(r.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2] = -r[..., 2], r[..., 1]
    S[..., 1, 0], S[..., 1, 2] = r[..., 2], -r[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -r[..., 1], r[..., 0]
    return S


def _columns(*cols) -> np.ndarray:
    """Stack length-k columns, or constants, side by side: (k, len(cols))."""
    out = np.empty((next(len(c) for c in cols if np.ndim(c)), len(cols)))
    for j, c in enumerate(cols):
        out[:, j] = c
    return out


@dataclass(frozen=True)
class ForceSolution:
    """All interaction and contact wrenches at one instant (3-vectors), or
    at k instants ((k, 3) arrays, accel (k, 4)).

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

    def __getitem__(self, i) -> ForceSolution:
        """The wrenches at instant i of a stacked solution."""
        return ForceSolution(*(v[i] for v in vars(self).values()))


# column of each unknown (the first of three for a 3-vector) in the balance
# system of each phase; the order fixes the pivoting, and so the roundoff,
# of the solve
_COL = {
    SINGLE: dict(a2=0, a1=2, f1=4, f2=7, f3=10, F3=13, M3z=16, tau1=17,
                 tau2z=20, tau3=21),
    DOUBLE: dict(a1=0, f1=2, f2=5, f3=8, F3=11, F2=14, M2z=17, M3z=18,
                 tau1=19, tau2=22, tau3=25),
}
_N_UNKNOWN = {SINGLE: 24, DOUBLE: 28}
# first of the three rows of each balance law: Newton and moment about each
# mass, pelvis force, pelvis moment
_N1, _N2, _N3, _E1, _E2, _E3, _PF, _PM = range(0, 24, 3)


# the entries of Q that the balance laws read: all but the velocities; of
# those, the coefficients A read only the side d and the points of `_points`
_BALANCE_COLS = [i for i in range(Q_DIM) if not IV_X2X <= i <= IV_X1Y]
_POINT_COLS = [IX_X1X, IX_X1Y, IX_X2X, IX_X2Y, IP_X, IP_Y]


def _points(params: BodyParams, q: np.ndarray) -> tuple:
    """The pelvis and foot points X1, X2, X3 (k, 3) of the k states q, and
    their `geometry`."""
    X1 = _columns(q[:, IX_X1X], q[:, IX_X1Y], params.z1)
    X2 = _columns(q[:, IX_X2X], q[:, IX_X2Y], 0.0)
    X3 = _columns(q[:, IP_X], q[:, IP_Y], 0.0)
    return X1, X2, X3, geometry(params, X1, X2, X3, q[:, ID_SIDE])


def _given(phase: str, q: np.ndarray, s: np.ndarray) -> dict:
    """The prescribed wrenches at the k states q and phase fractions s, as
    fresh (k, 3) rows whose unknown z entries are zero: the torso
    disturbance F1, M1, and the contact moment M3, with the unloaded swing
    foot and the hip torque inputs in single support (torque inputs are
    constant plus ramp), and the trailing foot's moment in double support,
    which decays with its load so that its centre of pressure stays put."""
    k = len(q)
    given = dict(F1=_columns(q[:, IW_F1X], q[:, IW_F1Y], 0.0),
                 M1=_columns(q[:, IW_M1X], q[:, IW_M1Y], 0.0))
    if phase == SINGLE:
        given.update(
            F2=np.zeros((k, 3)), M2=np.zeros((k, 3)),
            tau2=_columns(q[:, IU_HX] + s * q[:, IRU_HX],
                          q[:, IU_HY] + s * q[:, IRU_HY], 0.0),
            M3=_columns(q[:, IU_AX] + s * q[:, IRU_AX],
                        q[:, IU_AY] + s * q[:, IRU_AY], 0.0))
    else:
        given.update(
            M2=_columns(-(1.0 - s) * (q[:, IU_AX] + q[:, IRU_AX]),
                        (1.0 - s) * (q[:, IU_AY] + q[:, IRU_AY]), 0.0),
            M3=_columns(s * q[:, IU_AX], s * q[:, IU_AY], 0.0))
    return given


def _assemble(params: BodyParams, phase: str, q: np.ndarray) -> np.ndarray:
    """The balance matrices A (k, n, n) at the k states q (k, 23): the
    coefficients of the unknowns in the balance laws, which read q only at
    the points and the side d, and never s.  In double support the last
    four rows are zero, left for the transfer rule (`_put_transfer_rows`)."""
    col = _COL[phase]
    A = np.zeros((len(q), _N_UNKNOWN[phase], _N_UNKNOWN[phase]))
    eye = np.eye(3)

    def put(row: int, name: str, block) -> None:
        A[:, row:row + 3, col[name]:col[name] + 3] = block

    X1, X2, X3, geo = _points(params, q)

    # Newton: the leg masses move with the pelvis and, for a free swing
    # foot, with it: ydd2 = (1 - kappa) a1 + kappa a2, ydd3 = (1 - kappa) a1
    kappa = params.kappa
    for j in range(2):
        A[:, _N1 + j, col["a1"] + j] = params.m1
        A[:, _N2 + j, col["a1"] + j] = params.m2 * (1.0 - kappa)
        A[:, _N3 + j, col["a1"] + j] = params.m3 * (1.0 - kappa)
    for row, f in ((_N1, "f1"), (_N2, "f2"), (_N3, "f3")):
        put(row, f, -eye)
        put(_PF, f, -eye)
    put(_N3, "F3", -eye)

    # moments about each mass
    put(_E1, "f1", _skew(X1 - geo["y1"]))
    put(_E1, "tau1", eye)
    put(_E2, "f2", _skew(geo["x2"] - geo["y2"]))
    put(_E3, "f3", _skew(geo["x3"] - geo["y3"]))
    put(_E3, "F3", _skew(X3 - geo["y3"]))
    put(_E3, "tau3", eye)
    A[:, _E3 + 2, col["M3z"]] = 1.0

    # pelvis moment: -tau1 - tau2 - tau3 - (w d / 2) ey x (f2 - f3)
    put(_PM, "tau1", -eye)
    put(_PM, "tau3", -eye)
    wd2 = params.w * q[:, ID_SIDE] / 2.0
    A[:, _PM, col["f2"] + 2] = -wd2
    A[:, _PM, col["f3"] + 2] = wd2
    A[:, _PM + 2, col["f2"]] = wd2
    A[:, _PM + 2, col["f3"]] = -wd2

    if phase == SINGLE:
        A[:, _N2, col["a2"]] = A[:, _N2 + 1, col["a2"] + 1] = params.m2 * kappa
        A[:, _E2 + 2, col["tau2z"]] = 1.0
        A[:, _PM + 2, col["tau2z"]] = -1.0
    else:
        put(_N2, "F2", -eye)
        put(_E2, "F2", _skew(X2 - geo["y2"]))
        put(_E2, "tau2", eye)
        put(_PM, "tau2", -eye)
        A[:, _E2 + 2, col["M2z"]] = 1.0
    return A


def _rhs(params: BodyParams, phase: str, q: np.ndarray,
         s: np.ndarray) -> tuple[np.ndarray, dict]:
    """The right-hand sides b (k, n) of the balance systems A u = b at the k
    states q (k, 23) and phase fractions s = t / T_phase (k,), and the
    prescribed wrenches (`_given`).  In double support the last four
    entries are left for the transfer rule (`_put_transfer_rows`)."""
    c = np.zeros((len(q), _N_UNKNOWN[phase]))     # the constant terms: A u + c = 0
    given = _given(phase, q, s)
    gez = np.array([0.0, 0.0, params.g])
    c[:, _N1:_N1 + 3] = params.m1 * gez - given["F1"]
    c[:, _N2:_N2 + 3] = params.m2 * gez
    c[:, _N3:_N3 + 3] = params.m3 * gez
    c[:, _E1:_E1 + 3] = given["M1"]
    if phase == SINGLE:
        c[:, _E2:_E2 + 3] = given["tau2"]
        c[:, _PM:_PM + 3] = -given["tau2"]
    else:
        c[:, _E2:_E2 + 3] = given["M2"]
    c[:, _E3:_E3 + 3] = given["M3"]
    return -c, given


# the double-support residual system E: its unknowns, in the order (tau2,
# F2z, tau3, F3z), and its equations (pelvis moment + total vertical load),
# which is what is left of the balance laws after eliminating the rest
_DS = _COL[DOUBLE]
_V_COLS = np.array([_DS["tau2"], _DS["tau2"] + 1, _DS["tau2"] + 2, _DS["F2"] + 2,
                    _DS["tau3"], _DS["tau3"] + 1, _DS["tau3"] + 2, _DS["F3"] + 2])
_OTHER_COLS = np.array([i for i in range(_N_UNKNOWN[DOUBLE]) if i not in _V_COLS])
_KEPT_ROWS = np.array([_PM, _PM + 1, _PM + 2, _PF + 2])
_ELIM_ROWS = np.array([i for i in range(24) if i not in _KEPT_ROWS])
for _a in (_V_COLS, _OTHER_COLS, _KEPT_ROWS, _ELIM_ROWS):
    _a.flags.writeable = False


def _transfer_jacobian(A: np.ndarray) -> np.ndarray:
    """The Jacobian J (k, 4, 8) of the double-support residual E(V) at the
    k balance systems A: everything but V is eliminated with one stacked
    solve."""
    elim, kept = _ELIM_ROWS[:, None], _KEPT_ROWS[:, None]
    try:
        sol = np.linalg.solve(A[:, elim, _OTHER_COLS], -A[:, elim, _V_COLS])
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError("double-support elimination is singular") from exc
    return A[:, kept, _V_COLS] + A[:, kept, _OTHER_COLS] @ sol


def _put_transfer_rows(J: np.ndarray, q: np.ndarray, s: np.ndarray,
                       A: np.ndarray, b: np.ndarray) -> None:
    """Write the cleared-denominator uniform transfer rule rows of double
    support into the last four rows of the k systems A (k, 28, 28) and
    their right-hand sides b (k, 28), which are zero there.

    Takes the Jacobians J (k, 4, 8) of the residual E(V) at the k systems
    (`_transfer_jacobian`), whose columns are the trailing- and leading-leg
    variables, and writes s*J2 (V2 - V2hat) - (1-s)*J3 (V3 - V3hat) = 0
    over the full unknown vector.
    """
    J2, J3 = J[..., :4], J[..., 4:]

    v2_hat = _columns(q[:, IU_HX], q[:, IU_HY], 0.0, 0.0)
    v3_hat = _columns(-q[:, IU_HX] - q[:, IRU_HX], q[:, IU_HY] + q[:, IRU_HY],
                      0.0, 0.0)
    rows = A[:, 24:]
    rows[..., _V_COLS[:4]] = s[:, None, None] * J2
    rows[..., _V_COLS[4:]] = -(1.0 - s)[:, None, None] * J3
    b[:, 24:] = (s[:, None] * (J2 @ v2_hat[..., None])[..., 0]
                 - (1.0 - s)[:, None] * (J3 @ v3_hat[..., None])[..., 0])


def _fractions(timing: StrideTiming, phase: str, qs: np.ndarray,
               t: float | np.ndarray) -> np.ndarray:
    """The phase fractions s = t / T_phase (k,) of the k states qs at their
    times t, which must lie in the phase."""
    check_phase(phase)
    duration = timing.T_ss if phase == SINGLE else timing.T_ds
    ts = np.broadcast_to(np.asarray(t, dtype=float), qs.shape[:1])
    outside = ~((ts >= -1e-12) & (ts <= duration + 1e-12))    # NaN too
    if np.any(outside):
        raise ValueError(f"t={ts[outside][0]} outside the {phase}-support "
                         f"phase [0, {duration}]")
    return ts / duration


def solve_forces(params: BodyParams, timing: StrideTiming, phase: str,
                 q: np.ndarray, t: float | np.ndarray) -> ForceSolution:
    """Accelerations and all wrenches at (q, t).

    q is one state (23,) with its phase time t, giving 3-vector fields, or
    k states (k, 23) with k times, giving (k, 3) fields; all k systems are
    assembled and solved as one stack.  This is the probe of the phase
    ODEs and wrench maps, and the reference for `map_forces`.
    """
    q = np.asarray(q, dtype=float)
    qs = np.atleast_2d(q)
    forces = _solve(params, phase, qs, _fractions(timing, phase, qs, t),
                    _assemble(params, phase, qs))
    return forces if q.ndim == 2 else forces[0]


def _solve(params: BodyParams, phase: str, qs: np.ndarray, s: np.ndarray,
           A: np.ndarray, J: np.ndarray | None = None) -> ForceSolution:
    """The stacked solve of `solve_forces` at the k states qs and phase
    fractions s, whose balance matrices (`_assemble`) are A (k, n, n), a
    stack the caller hands over: in double support the transfer rows are
    written into it.  There J (k, 4, 8) holds the systems' transfer
    Jacobians; without it they are eliminated from A here."""
    b, given = _rhs(params, phase, qs, s)
    if phase == DOUBLE:
        _put_transfer_rows(_transfer_jacobian(A) if J is None else J, qs, s, A, b)
    try:
        u = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(f"{phase}-support system is singular") from exc

    col = _COL[phase]

    def vec3(name: str) -> np.ndarray:
        return u[:, col[name]:col[name] + 3]

    accel = np.zeros((len(qs), 4))
    accel[:, 2:] = u[:, col["a1"]:col["a1"] + 2]
    given["M3"][:, 2] = u[:, col["M3z"]]
    if phase == SINGLE:
        accel[:, :2] = u[:, col["a2"]:col["a2"] + 2]
        given["tau2"][:, 2] = u[:, col["tau2z"]]
    else:
        given["M2"][:, 2] = u[:, col["M2z"]]
        given.update(F2=vec3("F2"), tau2=vec3("tau2"))
    return ForceSolution(f1=vec3("f1"), f2=vec3("f2"), f3=vec3("f3"), F3=vec3("F3"),
                         tau1=vec3("tau1"), tau3=vec3("tau3"), accel=accel, **given)


# the fields each phase solves for, each (k, 3) but accel (k, 4), which is
# last; the other fields are `_given`
_SOLVED = {SINGLE: ("f1", "f2", "f3", "F3", "tau1", "tau3", "accel"),
           DOUBLE: ("f1", "f2", "f3", "F2", "F3", "tau1", "tau2", "tau3", "accel")}
# the pelvis-z row of the transfer Jacobian, on (tau2y, F2z, tau3y, F3z)
_YAW_ROW, _YAW_COLS = 2, [1, 3, 5, 7]


@dataclass(frozen=True, eq=False)
class WrenchMap:
    """The solved wrenches of one body and phase as maps of the state.

    Each entry of the solved fields (`_SOLVED`) other than a yaw (z) torque
    is affine in Q, the side d included, and a polynomial in s = t / T_phase
    of degree P - 1, affine in single support and quadratic in double
    support: at the k states q (k, 23) the n entries are sum_p s^p c_p, with
    [c_0 ... c_P-1] = q[:, _BALANCE_COLS] @ table[1:] + table[0] and
    ``table`` (20, P n).  The
    yaw torque columns are zero; they are bilinear and come from
    `_yaw_moments`.  In double support ``yaw`` (7, 4) holds the entries of
    the pelvis-z row of the transfer Jacobian that split the yaw torque:
    they are d (q[:, _POINT_COLS] @ yaw[1:] + yaw[0]).  Both arrays are
    read-only.
    """

    table: np.ndarray
    yaw: np.ndarray | None = None


def _wrench_map(phase: str, forces: ForceSolution,
                yaw: np.ndarray | None) -> WrenchMap:
    """The wrench map of one body and phase from the solved probes
    (`_PROBES`): the zero state and the basis states of `_BALANCE_COLS`, at
    s = 0, 1/2 and 1.  In double support ``yaw`` (7, 4) holds the pelvis-z
    rows of the transfer Jacobians of the zero and point states at d = 1,
    from the elimination of `_extract_ode`."""
    names = _SOLVED[phase]
    v = np.concatenate([getattr(forces, name) for name in names], axis=1)
    v = v.reshape(3, len(_BALANCE_COLS) + 1, -1)
    v[..., [3 * names.index(name) + 2 for name in ("tau1", "tau2", "tau3")
            if name in names]] = 0.0
    v[:, 1:] -= v[:, :1]           # the value at Q = 0, then one slope per entry
    v0, vh, v1 = v
    # the polynomial in s through the nodes: single support is affine in s
    coef = ([v0, v1 - v0] if phase == SINGLE
            else [v0, 4.0 * vh - 3.0 * v0 - v1, 2.0 * (v0 + v1) - 4.0 * vh])
    table = np.concatenate(coef, axis=1)
    table.flags.writeable = False
    if phase == SINGLE:
        return WrenchMap(table)
    # the Jacobian is d times an affine map of the points
    yaw = np.concatenate([yaw[:1], yaw[1:] - yaw[:1]])
    yaw.flags.writeable = False
    return WrenchMap(table, yaw)


def _cz(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The z entries of the cross products of the rows of r and f."""
    return r[:, 0] * f[:, 1] - r[:, 1] * f[:, 0]


def _yaw_moments(params: BodyParams, phase: str, yaw: np.ndarray | None,
                 q: np.ndarray, s: np.ndarray, F: dict) -> None:
    """Write the yaw torques tau2z, tau3z, M2z and M3z into the wrenches F,
    whose other entries are set, from the z rows of the balance laws.

    The torso arm is vertical, so tau1z = 0 (its table column is zero), and
    the pelvis moment gives tau2z + tau3z = S = (w d / 2)(f2x - f3x).  In
    single support the moment about the swing mass fixes tau2z.  In double
    support the pelvis-z row of the transfer rule, -s tau2z + (1 - s) tau3z
    = R, splits S, and the moment about the trailing mass gives M2z.  The
    moment about the stance mass gives M3z.
    """
    X1, X2, X3, geo = _points(params, q)
    f2, f3, d = F["f2"], F["f3"], q[:, ID_SIDE]
    S = params.w * d / 2.0 * (f2[:, 0] - f3[:, 0])
    if phase == SINGLE:
        tau2z = -_cz(geo["x2"] - geo["y2"], f2)
        tau3z = S - tau2z
    else:
        J = d[:, None] * (q[:, _POINT_COLS] @ yaw[1:] + yaw[0])
        R = ((1.0 - s) * (J[:, 2] * (F["tau3"][:, 1] - q[:, IU_HY] - q[:, IRU_HY])
                          + J[:, 3] * F["F3"][:, 2])
             - s * (J[:, 0] * (F["tau2"][:, 1] - q[:, IU_HY]) + J[:, 1] * F["F2"][:, 2]))
        tau3z = R + s * S
        tau2z = S - tau3z
        F["M2"][:, 2] = (-_cz(X2 - geo["y2"], F["F2"]) - _cz(geo["x2"] - geo["y2"], f2)
                         - tau2z)
    F["tau2"][:, 2] = tau2z
    F["tau3"][:, 2] = tau3z
    F["M3"][:, 2] = -_cz(geo["x3"] - geo["y3"], f3) - _cz(X3 - geo["y3"], F["F3"]) - tau3z


def map_forces(params: BodyParams, timing: StrideTiming, phase: str,
               q: np.ndarray, t: float | np.ndarray) -> ForceSolution:
    """Accelerations and all wrenches at (q, t), as `solve_forces` gives
    them up to roundoff, from the body's wrench map of the phase
    (`WrenchMap`): one product and closed forms, no linear solve."""
    q = np.asarray(q, dtype=float)
    qs = np.atleast_2d(q)
    s = _fractions(timing, phase, qs, t)
    wrenches = _extract_ode(params, phase).wrenches
    names = _SOLVED[phase]
    n = 3 * len(names) + 1                          # accel has four entries
    c = qs[:, _BALANCE_COLS] @ wrenches.table[1:] + wrenches.table[0]
    c = c.reshape(len(qs), -1, n)
    v = c[:, -1]
    for p in range(c.shape[1] - 2, -1, -1):        # Horner in s
        v = c[:, p] + s[:, None] * v
    F = dict(zip(names, np.split(v, 3 * np.arange(1, len(names)), axis=1)))
    F.update(_given(phase, qs, s))
    _yaw_moments(params, phase, wrenches.yaw, qs, s, F)
    forces = ForceSolution(**F)
    return forces if q.ndim == 2 else forces[0]


@dataclass(frozen=True, eq=False)
class PhaseODE:
    """Exact linear form of one phase: Xdd = (K0 + t K1) Q.

    K0/K1 are 4 x 23 and act on the full augmented vector.  The time-linear
    part K1 only touches entries that are constant within the phase: the
    torque/ramp/disturbance/support columns, plus the swing-foot position
    columns during double support (the trailing foot's decaying vertical
    load acts at that fixed point).

    ``wrenches`` is the cached unit-duration ODE's `WrenchMap` (None on a
    rescaled ODE).
    """

    phase: str
    duration: float
    K0: np.ndarray
    K1: np.ndarray
    wrenches: WrenchMap | None = None

    def accel(self, q: np.ndarray, t: float) -> np.ndarray:
        return (self.K0 + t * self.K1) @ np.asarray(q, dtype=float)


# columns of Q allowed to carry time-linear acceleration coefficients
_CONST_COLS = {
    SINGLE: tuple(range(8, Q_DIM)),
    DOUBLE: (IX_X2X, IX_X2Y) + tuple(range(8, Q_DIM)),
}


# probing timing: both phases last 1 s, so phase time equals s = t / T_phase
UNIT_TIMING = StrideTiming(T_ds=1.0, T_ss=1.0)


# the probes of `_extract_ode`: the zero state and the basis states of the
# entries the balance laws read, at s = 0, 1/2 and 1.  A velocity probe
# would pose exactly the zero state's system, so its K columns are zeros.
_N_PROBES = len(_BALANCE_COLS) + 1
_PROBES = np.tile(np.vstack([np.zeros(Q_DIM), np.eye(Q_DIM)[_BALANCE_COLS]]), (3, 1))
_PROBE_S = np.repeat([0.0, 0.5, 1.0], _N_PROBES)
# the states whose balance matrices differ: the zero state, the six point
# states and the side state (the zero state at d = 1), then the point states
# at d = 1, which only the double-support yaw split reads; single support
# reads the first 8
_DISTINCT = np.vstack([np.zeros(Q_DIM), np.eye(Q_DIM)[_POINT_COLS]])
_DISTINCT = np.vstack([_DISTINCT, _DISTINCT + np.eye(Q_DIM)[ID_SIDE]])
_N_DISTINCT = {SINGLE: 8, DOUBLE: 14}
# the index in `_DISTINCT` of each probe's balance matrix: all but the point
# and side probes share the zero state's
_PROBE_MATRIX = np.zeros(Q_DIM, dtype=int)
_PROBE_MATRIX[_POINT_COLS + [ID_SIDE]] = np.arange(1, 8)
_PROBE_MATRIX = np.tile(np.concatenate([[0], _PROBE_MATRIX[_BALANCE_COLS]]), 3)
for _a in (_PROBES, _PROBE_S, _DISTINCT, _PROBE_MATRIX):
    _a.flags.writeable = False


# an entry with its wrench map takes about 12 kB (8 kB single support, 15 kB
# double): 128 entries (64 bodies) bound the cache near 1.5 MB
@lru_cache(maxsize=128)
def _extract_ode(params: BodyParams, phase: str) -> PhaseODE:
    """Phase ODE of one body at unit duration, with its wrench map
    (read-only arrays).

    One stacked solve probes the zero state and the 19 basis vectors of the
    entries the balance laws read (`_PROBES`), at s = 0, 0.5 and 1: 60
    systems.  A balance matrix reads a state only at its points and side,
    not at s, so it is assembled once per distinct state, 8 in single
    support and 14 in double support (`_DISTINCT`), and each probe solves
    against its own copy.  In double support the transfer Jacobians come
    from one stacked elimination over those 14, the last 7 of which only
    the wrench map's yaw split reads."""
    A = _assemble(params, phase, _DISTINCT[:_N_DISTINCT[phase]])
    J = yaw = None
    if phase == DOUBLE:
        J = _transfer_jacobian(A)
        yaw = J[7:, _YAW_ROW, _YAW_COLS]
        J = J[_PROBE_MATRIX]
    forces = _solve(params, phase, _PROBES, _PROBE_S, A[_PROBE_MATRIX], J)
    acc = forces.accel.reshape(3, _N_PROBES, 4)
    if np.max(np.abs(acc[:, 0])) > 1e-9:
        raise DegenerateModelError(f"{phase}-support accelerations not homogeneous")
    K = np.zeros((3, 4, Q_DIM))
    K[..., _BALANCE_COLS] = (acc[:, 1:] - acc[:, :1]).transpose(0, 2, 1)
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
    return PhaseODE(phase=phase, duration=1.0, K0=K0, K1=K1,
                    wrenches=_wrench_map(phase, forces, yaw))


def assemble_single_support(params: BodyParams, timing: StrideTiming) -> PhaseODE:
    """Single-support phase ODE: swing foot free, stance foot fixed."""
    unit = _extract_ode(params, SINGLE)
    return PhaseODE(SINGLE, timing.T_ss, unit.K0, unit.K1 / timing.T_ss)


def assemble_double_support(params: BodyParams, timing: StrideTiming) -> PhaseODE:
    """Double-support phase ODE: both feet fixed, load transferring linearly."""
    unit = _extract_ode(params, DOUBLE)
    return PhaseODE(DOUBLE, timing.T_ds, unit.K0, unit.K1 / timing.T_ds)
