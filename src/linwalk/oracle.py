"""Independent verification path: algebraically reduced accelerations + RK4.

The balance laws reduce by hand to small closed forms:

  single support, per axis, unknowns (pelvis accel a1, swing accel a2):
    the swing-leg moment row and the pelvis-moment row (with the stance-leg
    wrench substituted) form a constant 2x2 system;
  double support: the pelvis-moment rows close directly once the vertical
    loads follow the linear weight transfer F2z = (1 - t/T_ds) M g,
    F3z = (t/T_ds) M g.

RK4 integrates these at fixed step; it never touches the production
elimination or the stride maps.  At fixed t the closed forms are linear in
the state with coefficients affine in t, so the oracle probes them at the
two ends of a phase and interpolates the map K(t) to any stage time.  The
four stages of a step fold into one increment matrix (`_rk4_increments`),
a quadratic in the step's start u = t/T.  K(t) varies only on the entries
f frozen within a phase (torques, ramps, disturbance, side), so one step is
one constant increment on the row [active positions, velocities | f | u f |
u^2 f] (`_augmented_step`), and n steps are its n-th power, by repeated
squaring in about 2 log2 n products (`_power`).  Steps are fixed-size and
multiplied in a fixed order, so trajectories are bit-reproducible, and
memory does not grow with the number of steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layout import (
    Q_DIM, ID_SIDE, IP_X, IP_Y, IU_AX, IU_AY, IU_HX, IU_HY,
    IRU_AX, IRU_AY, IRU_HX, IRU_HY, IW_F1X, IW_F1Y, IW_M1X, IW_M1Y,
    IX_X1X, IX_X1Y, IX_X2X, IX_X2Y, W_SLICE,
)
from .model import BodyParams, DegenerateModelError, Push, StrideTiming


def _consts(params: BodyParams) -> dict[str, float]:
    m1, m_leg = params.m1, params.m2
    k = params.kappa
    return {
        "m1": m1, "m_leg": m_leg, "z1": params.z1, "z3": params.z3,
        "g": params.g, "k": k, "w": params.w,
        "Mg": (m1 + 2.0 * m_leg) * params.g,
        # effective masses of the pelvis-moment rows
        "mbar1": m1 + (1.0 - k) * (2.0 - k) * m_leg,      # one leg swinging
        "mbar": m1 + 2.0 * m_leg * (1.0 - k) ** 2,        # both feet planted
    }


def accel_single(params: BodyParams, T_ss: float, q: np.ndarray, t) -> np.ndarray:
    """Closed-form single-support accelerations (a2x a2y a1x a1y).

    Entries of q may broadcast against array-valued t.
    """
    c = _consts(params)
    k, z1, z3, g = c["k"], c["z1"], c["z3"], c["g"]
    m1, m_leg, Mg, w = c["m1"], c["m_leg"], c["Mg"], c["w"]
    d = q[ID_SIDE]
    rt = np.asarray(t, dtype=float) / T_ss

    r2x = q[IX_X2X] - q[IX_X1X]
    r2y = q[IX_X2Y] - q[IX_X1Y] - w * d / 2.0
    r3x = q[IP_X] - q[IX_X1X]
    r3y = q[IP_Y] - q[IX_X1Y] + w * d / 2.0
    tau2y = q[IU_HY] + rt * q[IRU_HY]
    tau2x = q[IU_HX] + rt * q[IRU_HX]
    M3y = q[IU_AY] + rt * q[IRU_AY]
    M3x = q[IU_AX] + rt * q[IRU_AX]

    # swing-leg moment row / pelvis moment row, per axis
    a11 = k * z1 * m_leg * (1.0 - k)
    a12 = k * k * z1 * m_leg
    a21 = z3 * m1 + z1 * c["mbar1"]
    a22 = z1 * k * m_leg
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-14 * (abs(a21) + 1.0) * (abs(a22) + abs(a12) + 1.0):
        raise DegenerateModelError("swing dynamics singular (massless or hip-borne leg mass)")

    b1s = -(tau2y + k * m_leg * g * r2x)
    b2s = (q[IW_M1Y] + (z1 + z3) * q[IW_F1X] - tau2y + M3y
           - r3x * Mg + k * m_leg * g * r3x)
    a1x = (a22 * b1s - a12 * b2s) / det
    a2x = (-a21 * b1s + a11 * b2s) / det

    b1l = tau2x - k * m_leg * g * r2y
    b2l = (-q[IW_M1X] + (z1 + z3) * q[IW_F1Y] + tau2x - M3x
           - r3y * Mg + k * m_leg * g * r3y + (w * d / 2.0) * Mg)
    a1y = (a22 * b1l - a12 * b2l) / det
    a2y = (-a21 * b1l + a11 * b2l) / det

    return np.stack([a2x, a2y, a1x, a1y])


def accel_double(params: BodyParams, T_ds: float, q: np.ndarray, t) -> np.ndarray:
    """Closed-form double-support accelerations (0 0 a1x a1y)."""
    c = _consts(params)
    k, z1, z3, g = c["k"], c["z1"], c["z3"], c["g"]
    m1, m_leg, Mg, w = c["m1"], c["m_leg"], c["Mg"], c["w"]
    d = q[ID_SIDE]
    s = np.asarray(t, dtype=float) / T_ds

    r2x = q[IX_X2X] - q[IX_X1X]
    r2y = q[IX_X2Y] - q[IX_X1Y] - w * d / 2.0
    r3x = q[IP_X] - q[IX_X1X]
    r3y = q[IP_Y] - q[IX_X1Y] + w * d / 2.0
    M2y = (1.0 - s) * (q[IU_AY] + q[IRU_AY])
    M2x = -(1.0 - s) * (q[IU_AX] + q[IRU_AX])
    M3y = s * q[IU_AY]
    M3x = s * q[IU_AX]
    F2z = (1.0 - s) * Mg
    F3z = s * Mg

    den = z3 * m1 + z1 * c["mbar"]
    a1x = (q[IW_M1Y] + (z1 + z3) * q[IW_F1X] + (M2y + M3y)
           - (r2x * F2z + r3x * F3z) + k * m_leg * g * (r2x + r3x)) / den
    a1y = (-q[IW_M1X] + (z1 + z3) * q[IW_F1Y] - (M2x + M3x)
           - (r2y * F2z + r3y * F3z) + k * m_leg * g * (r2y + r3y)
           + (w * d / 2.0) * (F3z - F2z)) / den

    zero = np.zeros_like(a1x)
    return np.stack([zero, zero, a1x, a1y])


def phase_operator(params: BodyParams, phase_T: float, single: bool,
                   ts: np.ndarray) -> np.ndarray:
    """Instantaneous acceleration maps K(t), shape (len(ts), 4, 23).

    The closed forms are linear in Q at fixed t; probing them with the zero
    state and the 23 basis vectors (one column each, broadcast against the
    stage times) recovers the map in one evaluation.
    """
    fn = accel_single if single else accel_double
    ts = np.asarray(ts, dtype=float)
    probes = np.hstack([np.zeros((Q_DIM, 1)), np.eye(Q_DIM)])
    acc = fn(params, phase_T, probes, ts[:, None])     # (4, len(ts), 1 + 23)
    return np.ascontiguousarray((acc[:, :, 1:] - acc[:, :, :1]).transpose(1, 0, 2))


def _check_step(step: float) -> None:
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"RK4 step must be finite and positive, got {step!r}")


@dataclass(frozen=True)
class OracleConfig:
    step: float = 1e-5
    pushes: tuple[Push, ...] = field(default_factory=tuple)
    save_every: int = 200

    def __post_init__(self):
        _check_step(self.step)
        if (isinstance(self.save_every, bool)
                or not isinstance(self.save_every, (int, np.integer)) or self.save_every < 1):
            raise ValueError(f"save_every must be an integer >= 1, got {self.save_every!r}")


@dataclass(frozen=True)
class OracleTrajectory:
    t: np.ndarray       # (n,)
    Q: np.ndarray       # (n, 23)

    @property
    def end(self) -> np.ndarray:
        return self.Q[-1]


def _rk4_increments(A: np.ndarray, h: float, na: int) -> np.ndarray:
    """RK4 increments D (m, 23, 2 na) from stage maps A (2m + 1, na, 23).

    The state is permuted so that its first 2 na entries are the active
    positions, then their velocities; A[2j], A[2j + 1], A[2j + 2] map it
    to the accelerations at the start, middle and end of step j.  Each
    stage acceleration k1..k4 is a linear map of the whole state (the
    frozen entries enter through A), so step j adds X @ D[j] to the first
    2 na entries of a state row X and leaves the rest.  D is formed
    directly, never as I + D: a matrix with 1 + delta on its diagonal
    would round every increment delta the same way on every step.
    """
    A0, Am, Ae = A[0:-1:2], A[1::2], A[2::2]
    AmP, AeP = Am[:, :, :na], Ae[:, :, :na]
    v = slice(na, 2 * na)
    k1 = A0
    k2 = Am.copy()                                  # at P + h/2 V
    k2[:, :, v] += (0.5 * h) * AmP
    k3 = k2 + (0.25 * h * h) * (AmP @ k1)           # at P + h/2 V + h^2/4 k1
    k4 = Ae.copy()                                  # at P + h V + h^2/2 k2
    k4[:, :, v] += h * AeP
    k4 += (0.5 * h * h) * (AeP @ k2)
    dP = (h * h / 6.0) * (k1 + k2 + k3)
    dP[:, :, v] += h * np.eye(na)
    dV = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.ascontiguousarray(np.concatenate([dP, dV], axis=1).transpose(0, 2, 1))


def _augmented_step(K0: np.ndarray, KT: np.ndarray, T: float, h: float,
                    na: int) -> np.ndarray:
    """Increment E of one RK4 step of size h on the row Y = [active P, V | f |
    u f | u^2 f], u = t / T, of a phase with stage maps K0 + u (KT - K0): the
    step takes Y to Y + Y @ E.

    A step's increment is quadratic in its start u (k3 and k4 take products
    of two stage maps): M0 + u (4 Mh - 3 M0 - M1) + u^2 (2 M0 - 4 Mh + 2 M1)
    through the steps at u = 0, 1/2 and 1.  With KT - K0 zero on the active
    columns, u enters only through f, and the u-powers advance exactly:
    u f by du f, u^2 f by 2 du (u f) + du^2 f.
    """
    a, nf = 2 * na, Q_DIM - 2 * na
    if np.any(KT[:, :a] != K0[:, :a]):
        raise ValueError("the stage maps vary within the phase on an active "
                         "column: the augmented RK4 step needs them constant")
    stages, slope = np.array([0.0, 0.5 * h, h]), (KT - K0) / T
    M0, Mh, M1 = (_rk4_increments(K0 + (t + stages)[:, None, None] * slope, h, na)[0]
                  for t in (0.0, 0.5 * T, T))
    f, uf, u2f = (slice(a + k * nf, a + (k + 1) * nf) for k in range(3))
    du, eye = h / T, np.eye(nf)
    E = np.zeros((a + 3 * nf, a + 3 * nf))
    E[:Q_DIM, :a] = M0
    E[uf, :a] = (4.0 * Mh - 3.0 * M0 - M1)[a:]
    E[u2f, :a] = (2.0 * M0 - 4.0 * Mh + 2.0 * M1)[a:]
    E[f, uf] = du * eye
    E[f, u2f] = (du * du) * eye
    E[uf, u2f] = (2.0 * du) * eye
    return E


def _power(E: np.ndarray, n: int) -> np.ndarray:
    """Increment R of n >= 1 steps of increment E, I + R = (I + E)^n, by
    binary powering: E -> 2 E + E E squares, R -> R + E + R E multiplies,
    so that, as in `_rk4_increments`, no matrix holds I + E."""
    R = None
    while True:
        if n & 1:
            R = E if R is None else R + E + R @ E
        n >>= 1
        if not n:
            return R
        E = 2.0 * E + E @ E


def _grid(duration: float, step: float) -> tuple[int, float]:
    """Step count and step size of the fixed-step march over `duration`."""
    n = max(1, int(round(duration / step)))
    return n, duration / n


def _rk4_phase(params: BodyParams, phase_T: float, single: bool,
               Q: np.ndarray, h: float, marks, t_local: float = 0.0) -> np.ndarray:
    """March a batch of states (n, 23) by RK4 steps of size h from t_local
    in one phase; return the states after each (non-decreasing) step count
    in `marks`, shape (len(marks), n, 23).  All non-state entries of Q,
    including the disturbance wrench, are held constant.  The steps from
    one mark to the next are one power of the augmented step, formed once
    per distinct gap and applied to the states once per mark.
    """
    pos = [0, 1, 2, 3] if single else [2, 3]
    a = 2 * len(pos)
    active = pos + [p + 4 for p in pos]
    perm = np.array(active + [i for i in range(Q_DIM) if i not in active])
    K0, KT = phase_operator(params, phase_T, single, [0.0, phase_T])[:, pos][..., perm]
    E = _augmented_step(K0, KT, phase_T, h, len(pos))
    X = Q[:, perm]                    # active positions, velocities, frozen
    u = t_local / phase_T
    Y = np.hstack([X, u * X[:, a:], (u * u) * X[:, a:]])
    out = np.empty((len(marks),) + X.shape)
    gaps = np.diff(marks, prepend=0)
    powers = {k: _power(E, int(k)) for k in set(gaps) if k}
    for i, k in enumerate(gaps):
        if k:
            Y += Y @ powers[k]
        out[i][:, perm] = Y[:, :Q_DIM]
    return out


def integrate_batch(params: BodyParams, timing: StrideTiming, Q0: np.ndarray,
                    step: float = 1e-5, phase: str | None = None) -> np.ndarray:
    """End states after one stride (or one phase, "single" or "double") for
    a batch (n, 23)."""
    if phase not in (None, "single", "double"):
        raise ValueError(f"unknown phase {phase!r}: expected 'single' or 'double' "
                         "(or None for the full stride)")
    _check_step(step)
    Q0 = np.atleast_2d(np.asarray(Q0, dtype=float))
    if not np.all(np.isfinite(Q0)):
        raise ValueError("initial states must be finite")

    def march(T: float, single: bool, Q: np.ndarray) -> np.ndarray:
        n, h = _grid(T, step)
        return _rk4_phase(params, T, single, Q, h, [n])[0]

    if phase == "single":
        return march(timing.T_ss, True, Q0)
    if phase == "double":
        return march(timing.T_ds, False, Q0)
    return march(timing.T_ss, True, march(timing.T_ds, False, Q0))


def integrate(params: BodyParams, timing: StrideTiming, Q0: np.ndarray,
              config: OracleConfig | None = None) -> OracleTrajectory:
    """RK4 trajectory over one full stride with optional scheduled pushes.

    The march is split at the phase boundary and at every push edge, so
    each RK4 segment sees constant forcing; pushes that overlap are refused.
    """
    config = config or OracleConfig()
    if config.step > min(timing.T_ds, timing.T_ss) / 100.0:
        raise ValueError("step too coarse: must be <= phase duration / 100")
    Q0 = np.asarray(Q0, dtype=float)
    if not np.all(np.isfinite(Q0)):
        raise ValueError("initial state must be finite")
    for i, p in enumerate(config.pushes):
        if p.t_on + p.duration > timing.T_stride + 1e-12:
            raise ValueError("push interval extends beyond the stride")
        for q in config.pushes[:i]:      # pushes that only touch are allowed
            if max(p.t_on, q.t_on) < min(p.t_on + p.duration, q.t_on + q.duration) - 1e-15:
                raise ValueError(f"pushes {q} and {p} overlap")

    base_w = Q0[W_SLICE].copy()

    def w_on(a: float, b: float) -> np.ndarray:
        for p in config.pushes:
            if p.t_on <= a + 1e-15 and b <= p.t_on + p.duration + 1e-15:
                return np.asarray(p.wrench, dtype=float)
        return base_w

    cuts = {0.0, timing.T_ds, timing.T_stride}
    cuts.update(t for p in config.pushes for t in (p.t_on, p.t_on + p.duration))
    edges = sorted(t for t in cuts if 0.0 <= t <= timing.T_stride + 1e-12)

    times, states = [np.zeros(1)], [Q0[None, :]]
    done = 0                          # steps so far: a state is kept every save_every
    Q = Q0[None, :].copy()
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-15:
            continue
        Q[:, W_SLICE] = w_on(a, b)
        single = a >= timing.T_ds - 1e-15
        phase_T = timing.T_ss if single else timing.T_ds
        t_local = a - timing.T_ds if single else a
        n, h = _grid(b - a, config.step)
        saves = np.arange(config.save_every - done % config.save_every, n + 1,
                          config.save_every)
        marched = _rk4_phase(params, phase_T, single, Q, h, np.append(saves, n),
                             t_local)
        times.append(a + saves * h)
        states.append(marched[:-1, 0])
        Q = marched[-1]
        done += n
    t, states = np.concatenate(times), np.concatenate(states)
    if t[-1] < timing.T_stride - 1e-12:       # the last step was not kept
        t, states = np.append(t, timing.T_stride), np.vstack([states, Q[:1]])
    states[-1, W_SLICE] = base_w
    return OracleTrajectory(t=t, Q=states)
