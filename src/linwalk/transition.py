"""Exact phase and stride transition maps for the augmented gait vector.

Each phase ODE is time-affine and second order: only the swing-foot (single
support) and pelvis positions p move, their accelerations read no velocity,
and every other entry of Q is constant within the phase, so

    p'' = A p + (K0_u + (t / T_phase) K1_u) u

with u the constant entries.  The sagittal and lateral axes decouple
exactly, so A is one 2 x 2 block per axis in single support and one scalar
per axis in double support.  With its real, distinct eigenvalues lambda and
spectral projectors P (A = sum lambda P), the flow is closed form: over a
time h, from phase time t0,

    c = cosh(sqrt(lambda) h)          s = sinh(sqrt(lambda) h) / sqrt(lambda)
    C = (c - 1) / lambda              S = (s - h) / lambda

(cos and sin where lambda < 0, a short series where |lambda| h^2 < 1/2), and

    p(h)  = p + sum P [lambda C p + s v + C K0_u u + (t0 C + S) / T K1_u u]
    p'(h) = v + sum P [lambda s p + lambda C v + s K0_u u + (t0 s + C) / T K1_u u]

So a map is the identity plus a feature vector phi(h, t0, T) of the four
functions s, C, (t0 C + S) / T and (t0 s + C) / T per eigenvalue times a
timing-free matrix Z on the moving rows.  `_map_template` builds the
eigenvalues and Z once per (body, phase), with the augmented generator
(below) and its clock columns, as a template that lives as long as the
cached phase ODE it comes from; `expm` evaluates the maps at any number of
(h, t0, T) at once.  Rows that do not move are the identity exactly, and no
entry couples the axes.  A complex or repeated eigenvalue pair raises
`DegenerateModelError`.  No template is keyed by a time value (only the
stride-map cache below is, by (params, timing)).

Dense output takes no map at all: the states x = [Q; t * Pi Q], with Pi
selecting the clocked entries (those with a time-linear coefficient), obey
the autonomous x' = generator x, and `PhaseMap.pieces` writes a phase's
whole flow from given states as Taylor polynomials of the generator on a
few pieces, on states scaled by powers of two (`_balance`); the states at
any times are those polynomials evaluated.

A full stride is double support followed by single support; only
`StrideMaps.flow` and `StrideMaps.states` split a stride time into its
phase.  H(t) and the back-transfer map G(tau), with G(tau) H(tau) = H(T),
are flows.

The constrained map H'(T) eliminates the constant hip-torque inputs to pin
the swing-foot velocity to zero at the stride end:

    H'(T) = H(T) - H(T) S_Mh^T (S_Xdot2 H(T) S_Mh^T)^-1 S_Xdot2 H(T)

It is formed on demand, never in a stride-map build: the inverted 2 x 2
block is singular at isolated timings, and only code reading H' fails there.

Stride maps are cached per (params, timing); construction is pure and the
cached objects are safe to share.  `phase_ends` gives one phase's end maps
at many durations from one evaluation, and builds and caches no stride map.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .dynamics import (
    SINGLE, UNIT_TIMING, PhaseODE, assemble_double_support, assemble_single_support,
)
from .layout import Q_DIM, Q_NAMES, W_SLICE, selection_matrices
from .model import BodyParams, DegenerateModelError, Push, StrideTiming


class ControlDegeneracyError(RuntimeError):
    """Hip torques cannot control the end-of-stride foot velocity."""


# one template per cached unit-duration phase ODE, i.e. per (body, phase);
# an entry lives only as long as its ODE does, so the `_extract_ode` bound
# bounds the templates too (a cached stride map holds its own two)
_TEMPLATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# 1 / k! for the Taylor terms k < 18 of a flow piece (`PhaseMap.pieces`)
_INV_FACTORIALS = 1.0 / np.cumprod(np.maximum(np.arange(18.0), 1.0))[:, None, None]

# s / h, C / h^2 and S / h^3 as power series in x = lambda h^2: the
# coefficients 1 / (2j + 1)!, 1 / (2j + 2)! and 1 / (2j + 3)!, j < 10,
# whose last terms are below 2^-52 of the first where |x| < 1/2
_SERIES = np.array([[1.0 / math.factorial(2 * j + i) for i in (1, 2, 3)]
                    for j in range(10)])
_POWERS = np.arange(10.0)


def _balance(A: np.ndarray) -> np.ndarray:
    """Powers of two d such that diag(1/d) A diag(d), an exact similarity,
    has each state's row and column of about equal 1-norm: Osborne's
    iteration as in LAPACK gebal, without its permutations.  Only states
    coupled both ways move; the sweeps run on their few nonzero entries."""
    M = np.abs(A) - np.diag(np.abs(np.diag(A)))
    nodes = [(j, [(i, v) for i, v in enumerate(M[:, j].tolist()) if v],
              [(k, v) for k, v in enumerate(M[j].tolist()) if v])
             for j in np.flatnonzero(M.any(axis=0) & M.any(axis=1)).tolist()]
    d = [1.0] * len(A)
    for _ in range(32):                 # sweeps; a few suffice
        moved = False
        for j, col, row in nodes:
            c = d[j] * sum(v / d[i] for i, v in col)
            r = sum(v * d[k] for k, v in row) / d[j]
            f = 2.0 ** round(0.5 * math.log2(r / c))
            if c * f + r / f < 0.95 * (c + r):
                d[j], moved = d[j] * f, True
        if not moved:
            break
    return np.array(d)


def _spectrum(A: np.ndarray, phase: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lambda (n,) and spectral projectors P (n, n, n) of one
    axis' position block A (n x n, n = 1 or 2), with A = sum lambda P.  The
    larger root of a 2 x 2 is taken without cancellation and the other
    from the determinant; a complex or repeated pair raises."""
    if len(A) == 1:
        return A[0].copy(), np.ones((1, 1, 1))
    (a, b), (c, d) = A.tolist()
    half, disc = 0.5 * (a + d), 0.25 * (a - d) ** 2 + b * c
    if not disc > (1e-8 * max(abs(a), abs(b), abs(c), abs(d))) ** 2:
        kind = "complex" if disc < 0.0 else "repeated"
        raise DegenerateModelError(
            f"{phase}-support position block has a {kind} eigenvalue pair")
    big = half + math.copysign(math.sqrt(disc), half)
    lam = np.array([big, (a * d - b * c) / big])
    eye = np.eye(2)
    P = np.array([(A - lam[1] * eye) / (lam[0] - lam[1]),
                  (A - lam[0] * eye) / (lam[1] - lam[0])])
    return lam, P


# the columns of Q each axis reads: the sagittal (even) or lateral (odd)
# entries, and the support side d, which only the lateral rows read
_AXIS_COLS = np.array([list(range(axis, Q_DIM - 1, 2)) + [Q_DIM - 1] for axis in (0, 1)])


@dataclass(frozen=True, eq=False)
class _Template:
    """The timing-free parts of one body's phase maps (read-only arrays).

    ``K0`` and ``K1`` are the unit ODE's, with ``clock_cols`` and ``pi``
    the entries K1 reads.  Per axis (sagittal, lateral) and eigenvalue
    lambda of its position block, ``lam`` (2, 1, n) holds lambda, ``reach``
    sqrt(1 / (2 |lambda|)), below which times take the series, and ``den``
    and ``root`` the lambda and sqrt(lambda) of the closed forms (imaginary
    where lambda < 0; a zero lambda, whose times all take the series, is 1
    there), all shaped to broadcast against (k, 1) times.  ``Z`` (2, 4n,
    2n * 12) is the map's increment over the identity on the axis' moving
    positions and velocities and its columns (`_AXIS_COLS`), per feature
    s, C, (t0 C + S) / T, (t0 s + C) / T of each eigenvalue (`expm`), and
    ``cells`` the flat indices of those entries in a 23 x 23 map.
    """

    phase: str
    K0: np.ndarray
    K1: np.ndarray
    clock_cols: tuple
    pi: np.ndarray
    lam: np.ndarray
    reach: np.ndarray
    den: np.ndarray
    root: np.ndarray
    Z: np.ndarray
    cells: np.ndarray

    @cached_property
    def generator(self) -> np.ndarray:
        """The augmented generator at unit duration, built on first use:
        only `PhaseMap.pieces` reads it."""
        nc = len(self.clock_cols)
        A = np.zeros((Q_DIM + nc, Q_DIM + nc))
        if self.phase == SINGLE:
            A[0:2, 4:6] = np.eye(2)       # swing foot moves in single support
        A[2:4, 6:8] = np.eye(2)
        A[4:8, :Q_DIM] = self.K0
        A[4:8, Q_DIM:] = self.K1[:, self.clock_cols]
        A[Q_DIM:, :Q_DIM] = self.pi
        A.flags.writeable = False
        return A

    @cached_property
    def scale(self) -> np.ndarray:
        """The power-of-two state scales that balance the generator
        (`_balance`)."""
        d = _balance(self.generator)
        d.flags.writeable = False
        return d


def _map_template(unit: PhaseODE) -> _Template:
    """The template of one body's phase, built on first use from its
    unit-duration ODE.  The closed form treats the axes apart and holds
    the entries that do not move constant; `DegenerateModelError` is raised
    where the ODE breaks that: an acceleration row reading an entry of the
    other axis, a nonzero acceleration of an entry that does not move, or a
    moving entry's acceleration reading a velocity of one or a time-linear
    coefficient on its position or velocity."""
    tpl = _TEMPLATES.get(unit)
    if tpl is not None:
        return tpl
    clock_cols = tuple(int(j) for j in
                       np.flatnonzero(np.max(np.abs(unit.K1), axis=0) > 1e-300))
    moving = (0, 2) if unit.phase == SINGLE else (2,)
    n = len(moving)
    still = [r for r in range(4) if r - r % 2 not in moving]
    if np.any(unit.K0[still]) or np.any(unit.K1[still]):
        raise DegenerateModelError(
            f"{unit.phase}-support dynamics accelerate an entry the phase holds fixed")
    lams, Zs = [], []
    for axis, cols in enumerate(_AXIS_COLS):
        pos = [axis + i for i in moving]
        K0, K1 = unit.K0[pos], unit.K1[pos]
        if np.any(np.delete(K0, cols, axis=1)) or np.any(np.delete(K1, cols, axis=1)):
            raise DegenerateModelError(
                f"{unit.phase}-support dynamics couple the sagittal and lateral axes")
        p = [i // 2 for i in moving]           # positions and velocities
        v = [i + 2 for i in p]                 # among the axis' columns
        forcing = K0[:, cols]
        if np.any(forcing[:, v]) or np.any(K1[:, cols][:, p + v]):
            raise DegenerateModelError(
                f"{unit.phase}-support accelerations read a moving velocity "
                "or ramp a moving position")
        forcing[:, p] = 0.0
        lam, P = _spectrum(K0[:, pos], unit.phase)
        Z = np.zeros((4, n, 2 * n, len(cols)))
        for k in range(n):
            s, C, ramp_p, ramp_v = Z[:, k]
            s[:n, v] = P[k]
            s[n:, p] = lam[k] * P[k]
            s[n:] += P[k] @ forcing
            C[:n, p] = C[n:, v] = lam[k] * P[k]
            C[:n] += P[k] @ forcing
            ramp_p[:n] = ramp_v[n:] = P[k] @ K1[:, cols]
        lams.append(lam)
        Zs.append(Z.reshape(4 * n, -1))
    rows = np.array([[axis + i for i in moving + tuple(j + 4 for j in moving)]
                     for axis in (0, 1)])
    lam = np.array(lams)[:, None]
    den = np.where(lam == 0.0, 1.0, lam)
    tpl = _Template(
        phase=unit.phase, K0=unit.K0, K1=unit.K1, clock_cols=clock_cols,
        pi=np.eye(Q_DIM)[list(clock_cols)], lam=lam,
        reach=np.where(lam == 0.0, np.inf, np.sqrt(0.5 / np.abs(den))),
        den=den, root=np.sqrt(den.astype(complex)), Z=np.array(Zs),
        cells=(rows[..., None] * Q_DIM + _AXIS_COLS[:, None]).reshape(2, -1))
    for a in (tpl.pi, lam, tpl.reach, den, tpl.root, tpl.Z, tpl.cells):
        a.flags.writeable = False
    _TEMPLATES[unit] = tpl
    return tpl


def expm(tpl: _Template, h, t0, T) -> np.ndarray:
    """The exact 23 x 23 maps of a phase from phase time t0 over h, for the
    phase lasting T, at k triples (h, t0, T) given as scalars or (k,)
    arrays: (k, 23, 23), in closed form from the template (module
    docstring), one product for all k.  Named for the matrix exponential
    it replaces: each map is the top-left block of E(h), with the clock
    states folded back in."""
    h, t0, T = (np.asarray(a, dtype=float).reshape(-1, 1) for a in (h, t0, T))
    z = tpl.root * h                                     # (2, k, n)
    s = (np.sinh(z) / tpl.root).real
    C = (np.cosh(z).real - 1.0) / tpl.den
    S = (s - h) / tpl.den
    near = h < tpl.reach                                 # |lambda| h^2 < 1/2
    if near.any():
        x = (tpl.lam * (h * h))[near, None] ** _POWERS
        hn = np.broadcast_to(h, near.shape)[near, None] ** _POWERS[1:4]
        s[near], C[near], S[near] = ((x @ _SERIES) * hn).T
    phi = np.concatenate([s, C, (t0 * C + S) / T, (t0 * s + C) / T], axis=2)
    out = np.zeros((phi.shape[1], Q_DIM * Q_DIM))
    out[:, tpl.cells] = (phi @ tpl.Z).swapaxes(0, 1)
    out[:, ::Q_DIM + 1] += 1.0
    return out.reshape(-1, Q_DIM, Q_DIM)


class PhaseMap:
    """Exact transition map of one phase, t in [0, duration].

    The closed-form maps and the generator's structure (its constant block,
    the clock columns and Pi) are a per-body template, built once per
    (body, phase); a timing copies the generator and writes only the 4 x nc
    clock block K1_unit[:, clock_cols] / T_phase, and the generator is
    read-only.  ``map_at`` and ``flow`` are one closed-form evaluation each
    (`expm`); ``pieces`` writes the flow of given states over the whole
    phase from the generator.
    """

    def __init__(self, ode: PhaseODE):
        self.phase = ode.phase
        self.duration = ode.duration
        self._tpl = _map_template(ode.unit or ode)
        self.clock_cols, self._pi = self._tpl.clock_cols, self._tpl.pi
        self._clock = ode.K1[:, self.clock_cols]

    @cached_property
    def generator(self) -> np.ndarray:
        """The augmented generator of this timing (read-only), built on
        first use."""
        A = self._tpl.generator.copy()
        A[4:8, Q_DIM:] = self._clock
        A.flags.writeable = False
        return A

    def pieces(self, x: np.ndarray) -> np.ndarray:
        """The exact flow from the augmented state x (n,), or the states x
        (k, n) one per row, over the phase duration, as Taylor polynomials on
        m equal pieces of length h = duration / m: x(j h + s h) =
        sum_i C[j, i] s^i for s in [0, 1].  Returns C (m, 18) + x.shape.

        They are formed on the states x / scale (clock states divided by
        T_phase, all by the template's powers of two), whose generator B
        takes m = ceil(T_phase |B|_1) pieces: then |(h B)^i / i!|_1 <= 1 / i!,
        and 1 / 18! < 2^-52.  The terms are formed once, by doubling; each
        piece starts where the previous one's Taylor sum ends.  The states
        are carried as columns, so all pieces of all states take one product
        with the terms.
        """
        n = len(self.generator)
        scale = np.where(np.arange(n) < Q_DIM, 1.0, self.duration) * self._tpl.scale
        B = self.generator * scale / scale[:, None]
        m = max(1, math.ceil(self.duration * np.abs(B).sum(axis=0).max()))
        terms = np.empty((18, n, n))
        terms[0], terms[1], k = np.eye(n), B * (self.duration / m), 2
        while k < 18:                       # powers k, ..., 2k - 2
            r = min(k - 1, 18 - k)
            terms[k:k + r] = terms[1:r + 1] @ terms[k - 1]
            k += r
        terms *= _INV_FACTORIALS
        step, y = terms.sum(axis=0), [np.transpose(x / scale)]
        for _ in range(1, m):
            y.append(step @ y[-1])
        C = terms @ np.asarray(y).swapaxes(0, 1).reshape(n, -1)   # (18, n, m k)
        return C.reshape(18, n, m, -1).transpose(2, 0, 3, 1).reshape(
            (m, 18) + x.shape) * scale

    def augment(self, Q: np.ndarray, t: float) -> np.ndarray:
        """Augmented state [Q; t * Pi Q] at phase time t; Q may hold one
        state per row."""
        return np.concatenate([Q, t * (Q @ self._pi.T)], axis=-1)

    def map_at(self, t: float) -> np.ndarray:
        """H_phase(t): exact 23 x 23 map from the phase start."""
        if t < -1e-12 or t > self.duration + 1e-9:
            raise ValueError(f"t={t} outside [0, {self.duration}]")
        return expm(self._tpl, t, 0.0, self.duration)[0]

    def flow(self, t: float, dt: float) -> np.ndarray:
        """Map from the state at phase time t to the state at t + dt."""
        if dt < -1e-12:
            raise ValueError("dt must be non-negative")
        return expm(self._tpl, dt, t, self.duration)[0]


def phase_ends(params: BodyParams, phase: str, durations) -> np.ndarray:
    """H_phase(T) of one body's phase at the end of each duration T in
    `durations` (k,): (k, 23, 23) from one closed-form evaluation.  No
    stride map is built or cached.  The body's unit ODE is fetched through
    the same `assemble_*` call as a stride-map build's, at the probing
    timing (any timing would do)."""
    assemble = assemble_single_support if phase == SINGLE else assemble_double_support
    T = np.asarray(durations, dtype=float)
    if not np.all((T > 0.0) & (T < np.inf)):
        raise ValueError(f"{phase}-support durations must be finite and positive")
    return expm(_map_template(assemble(params, UNIT_TIMING).unit), T, 0.0, T)


def constrain_foot_velocity(H: np.ndarray) -> np.ndarray:
    """Eliminate constant hip torques so the mapped foot velocity vanishes.

    B = S_Xdot2 H S_Mh^T counts as singular when its smallest singular value
    is at most 1e-12 max|S_Xdot2 H|; cond(B) cannot tell, as B = diag(b, -b).
    """
    sel = selection_matrices()
    rows = sel.S_Xdot2 @ H
    B = rows @ sel.S_Mh.T
    if np.linalg.svd(B, compute_uv=False)[-1] <= 1e-12 * np.max(np.abs(rows)):
        raise ControlDegeneracyError(
            "constant hip torques cannot control the end foot velocity "
            "(S_Xdot2 H S_Mh^T singular)")
    return H - H @ sel.S_Mh.T @ np.linalg.inv(B) @ sel.S_Xdot2 @ H


@dataclass(frozen=True)
class StrideMaps:
    """All transition maps of one stride (double support then single support)."""

    params: BodyParams
    timing: StrideTiming
    ds: PhaseMap
    ss: PhaseMap
    H_ds_end: np.ndarray
    H_stride: np.ndarray

    @property
    def Hprime_stride(self) -> np.ndarray:
        """H'(T_stride); raises ControlDegeneracyError where it does not exist."""
        return constrain_foot_velocity(self.H_stride)

    def H(self, t: float) -> np.ndarray:
        """Stride map from t = 0, valid on [0, T_stride]."""
        return self.flow(0.0, t)

    def G(self, tau: float) -> np.ndarray:
        """Back-transfer map: G(tau) H(tau) = H(T_stride)."""
        return self.flow(tau, self.timing.T_stride)

    def flow(self, t0: float, t1: float) -> np.ndarray:
        """Map from the state at stride time t0 to the state at t1 >= t0."""
        T_ds, T = self.timing.T_ds, self.timing.T_stride
        if t0 < -1e-12 or t1 > T + 1e-9 or t1 < t0 - 1e-12:
            raise ValueError(f"need 0 <= t0 <= t1 <= {T}, got {t0}, {t1}")
        if t1 <= T_ds:
            return self.ds.flow(t0, t1 - t0)
        if t0 >= T_ds:
            return self.ss.flow(t0 - T_ds, t1 - t0)
        return self.ss.flow(0.0, t1 - T_ds) @ self.ds.flow(t0, T_ds - t0)

    def pieces(self, Q0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both phases' flows from the stride-start state Q0 (23,), or the
        states Q0 (k, 23) one per row, as `PhaseMap.pieces`; single support
        starts where the double-support pieces end."""
        ds = self.ds.pieces(self.ds.augment(Q0, 0.0))
        return ds, self.ss.pieces(self.ss.augment(ds[-1].sum(axis=0)[..., :Q_DIM], 0.0))

    def states(self, Q0: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """H(t) Q0 at the non-decreasing stride times ts in [0, T_stride],
        shape (len(ts),) + Q0.shape, for one state Q0 (23,) or a block (23, k).

        The flow pieces (`pieces`) are evaluated at the times: no map is
        formed.  The times are sorted, so those on one piece form one run
        and take one product with its Taylor terms.
        """
        Q0 = np.asarray(Q0, dtype=float)
        ts = np.asarray(ts, dtype=float)
        T_ds, T = self.timing.T_ds, self.timing.T_stride
        for bad, what in ((~((ts >= -1e-12) & (ts <= T + 1e-9)), f"outside [0, {T}]"),
                          (np.diff(ts, prepend=-np.inf) < 0.0, "follows a later one")):
            if np.any(bad):
                raise ValueError(f"stride time {ts[np.argmax(bad)]} {what}")
        rows = Q0.reshape(Q_DIM, -1).T       # one state per row
        out = np.empty((len(ts),) + rows.shape)
        n_ds = int(np.searchsorted(ts, T_ds, side="right"))   # samples t <= T_ds
        for pm, C, tl, run in zip((self.ds, self.ss), self.pieces(rows),
                                  (ts[:n_ds], ts[n_ds:] - T_ds), (out[:n_ds], out[n_ds:])):
            m = len(C)
            u = tl * (m / pm.duration)                 # in pieces
            j = np.clip(np.floor(u), 0, m - 1).astype(int)
            s = (u - j)[:, None] ** np.arange(C.shape[1])
            C = C[..., :Q_DIM].reshape(m, C.shape[1], -1)
            ends = np.searchsorted(j, np.arange(m + 1))
            for Cp, a, b in zip(C, ends, ends[1:]):
                run[a:b] = (s[a:b] @ Cp).reshape((b - a,) + rows.shape)
        return out.transpose(0, 2, 1).reshape((len(ts),) + Q0.shape)


@lru_cache(maxsize=256)
def stride_maps(params: BodyParams, timing: StrideTiming) -> StrideMaps:
    """Build (or fetch) all transition maps for one parameter/timing pair:
    one closed-form evaluation per phase."""
    ds = PhaseMap(assemble_double_support(params, timing))
    ss = PhaseMap(assemble_single_support(params, timing))
    H_ds_end = ds.map_at(timing.T_ds)
    H_ds_end.flags.writeable = False
    return StrideMaps(params=params, timing=timing, ds=ds, ss=ss,
                      H_ds_end=H_ds_end,
                      H_stride=ss.map_at(timing.T_ss) @ H_ds_end)


def push_end_state(params: BodyParams, timing: StrideTiming, Q0: np.ndarray,
                   push: Push) -> np.ndarray:
    """Stride end state under one push, by piecewise map composition.

    The disturbance columns are constant within each segment, so the exact
    closed-form flows carry the state to the push onset, across the pushed
    window with the wrench substituted, and on to the stride end.
    """
    if push.t_on < 0.0 or push.t_on + push.duration > timing.T_stride + 1e-12:
        raise ValueError("push interval extends beyond the stride")
    maps = stride_maps(params, timing)
    Q = np.asarray(Q0, dtype=float).copy()
    base_w = Q[W_SLICE].copy()
    t1 = push.t_on
    t2 = push.t_on + push.duration
    if t1 > 0.0:
        Q = maps.flow(0.0, t1) @ Q
    Q[W_SLICE] = push.wrench
    if t2 > t1:
        Q = maps.flow(t1, t2) @ Q
    Q[W_SLICE] = base_w
    if t2 < timing.T_stride:
        Q = maps.flow(t2, timing.T_stride) @ Q
    return Q


def dump_stride_maps(params: BodyParams, timing: StrideTiming,
                     path: str | Path) -> None:
    """Write H(T_stride) and H'(T_stride) as row-major JSON with a layout header."""
    maps = stride_maps(params, timing)
    payload = {
        "layout": list(Q_NAMES),
        "T_ds": timing.T_ds,
        "T_ss": timing.T_ss,
        "T_stride": timing.T_stride,
        "H_stride": maps.H_stride.tolist(),
        "Hprime_stride": maps.Hprime_stride.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1))
