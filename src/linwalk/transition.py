"""Exact phase and stride transition maps for the augmented gait vector.

Each phase ODE is time-affine, so the flow is computed exactly by matrix
exponential of an augmented constant generator: every Q entry whose
acceleration coefficient is time-linear is constant within the phase, and
gets a companion clock state z = t * (that entry) with dz/dt = entry.  With
Pi selecting the clocked entries and t the phase-local time, the augmented
state x = [Q; t * Pi Q] obeys the autonomous x' = generator x, so one step
of any length h is exact: x(t + h) = E(h) x(t) with E(h) = expm(generator * h).
The 23 x 23 phase map H(t) is the top-left block of E(t), and the in-phase
flow from time t to t + dt on Q alone is

    Phi(t -> t+dt) = E_QQ(dt) + t * E_Qz(dt) * Pi

The generator's structure (the constant block, the clock columns, Pi and
the rows that stay put) depends only on the body and phase, and is built
once per (body, phase) as a template that lives as long as the cached phase
ODE it comes from.  The clock block K1_unit / T_phase is the only part that
depends on the timing: a map at a timing copies the template and writes
that block.  Each map is one exponential, and no template is keyed by a
time value (only the stride-map cache below is, by (params, timing)).
Dense output takes no exponential: `PhaseMap.pieces` writes a
phase's whole flow from given states as Taylor polynomials on a few pieces,
on states scaled by the exact powers of two that the template also holds,
and the states at any times are those polynomials evaluated.

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
cached objects are safe to share.  The double-support half of a stride map
depends only on the body and T_ds, so a build shares it (read-only) with the
last stride map built for the same body while that map is alive and has the
same T_ds: a relax run, which holds T_ds fixed, takes one exponential per
new stride time, not two.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .dynamics import (
    SINGLE, PhaseODE, assemble_double_support, assemble_single_support,
)
from .layout import Q_DIM, Q_NAMES, W_SLICE, selection_matrices
from .model import BodyParams, Push, StrideTiming


class ControlDegeneracyError(RuntimeError):
    """Hip torques cannot control the end-of-stride foot velocity."""


# one template per cached unit-duration phase ODE, i.e. per (body, phase);
# an entry lives only as long as its ODE does, so the `_extract_ode` bound
# (and the ODEs the cached stride maps hold) bound the templates too
_TEMPLATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# the last stride maps built per body, keyed like the templates by the unit
# double-support ODE and held weakly: once the `stride_maps` LRU (and every
# caller) drops a map it shares nothing, so `cache_clear()` makes builds cold
_LAST_BUILT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# 1 / k! for the Taylor terms k < 18 of a flow piece (`PhaseMap.pieces`)
_INV_FACTORIALS = 1.0 / np.cumprod(np.maximum(np.arange(18.0), 1.0))[:, None, None]


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


def _map_template(unit: PhaseODE) -> tuple:
    """The timing-free parts of a phase's augmented generator, read-only and
    built on first use: the generator with the unit-duration clock block,
    the clock columns, Pi, the rows of Q whose generator row is zero, and
    the power-of-two state scales that balance it (`_balance`)."""
    tpl = _TEMPLATES.get(unit)
    if tpl is not None:
        return tpl
    clock_cols = tuple(int(j) for j in
                       np.flatnonzero(np.max(np.abs(unit.K1), axis=0) > 1e-300))
    nc = len(clock_cols)
    A = np.zeros((Q_DIM + nc, Q_DIM + nc))
    if unit.phase == SINGLE:
        A[0:2, 4:6] = np.eye(2)           # swing foot moves in single support
    A[2:4, 6:8] = np.eye(2)
    A[4:8, :Q_DIM] = unit.K0
    A[4:8, Q_DIM:] = unit.K1[:, clock_cols]
    pi = np.eye(Q_DIM)[list(clock_cols)]
    A[Q_DIM:, :Q_DIM] = pi
    # entries with an identically zero generator row stay put exactly;
    # the Pade solve inside expm would otherwise leave eps-level dust
    rows = np.flatnonzero(~np.any(A[:Q_DIM], axis=1))
    d = _balance(A)
    for a in (A, pi, rows, d):
        a.flags.writeable = False
    tpl = _TEMPLATES[unit] = (A, clock_cols, pi, rows, d)
    return tpl


class PhaseMap:
    """Exact transition map of one phase, t in [0, duration].

    The generator's structure (its constant block, the clock columns, Pi
    and the identity rows) is a per-body template, built once per (body,
    phase); a timing copies it and writes only the 4 x nc clock block
    K1_unit[:, clock_cols] / T_phase, and the generator is read-only.  Every
    map comes from one uncached exponential of the generator: ``step(h)`` is
    E(h) itself, ``map_at`` and ``flow`` its Q blocks.  ``pieces`` writes the
    flow of given states over the whole phase without one.
    """

    def __init__(self, ode: PhaseODE):
        self.phase = ode.phase
        self.duration = ode.duration
        A, self.clock_cols, self._pi, self._identity_rows, self._scale = (
            _map_template(ode.unit or ode))
        self.generator = A.copy()
        self.generator[4:8, Q_DIM:] = ode.K1[:, self.clock_cols]
        self.generator.flags.writeable = False

    def step(self, h: float) -> np.ndarray:
        """E(h): exact map of the augmented state [Q; t * Pi Q] over h."""
        E = expm(self.generator * h)
        rows = self._identity_rows
        E[rows] = 0.0
        E[rows, rows] = 1.0
        return E

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
        scale = np.where(np.arange(n) < Q_DIM, 1.0, self.duration) * self._scale
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
        return self.step(t)[:Q_DIM, :Q_DIM]

    def flow(self, t: float, dt: float) -> np.ndarray:
        """Map from the state at phase time t to the state at t + dt."""
        if dt < -1e-12:
            raise ValueError("dt must be non-negative")
        E = self.step(dt)
        out = E[:Q_DIM, :Q_DIM].copy()
        if self.clock_cols:
            out += t * (E[:Q_DIM, Q_DIM:] @ self._pi)
        return out


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

        The flow pieces (`pieces`) are evaluated at the times: no
        exponential.  The times are sorted, so those on one piece form one
        run and take one product with its Taylor terms.
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
    """Build (or fetch) all transition maps for one parameter/timing pair.

    A build takes one exponential for single support.  Double support (`ds`
    and `H_ds_end`) comes from the last stride maps built for the same body
    when those are still alive and have the same T_ds, and from one more
    exponential otherwise; either way it is the same, bit for bit.
    """
    ode = assemble_double_support(params, timing)
    ref = _LAST_BUILT.get(ode.unit)
    last = ref() if ref is not None else None
    if last is not None and last.timing.T_ds == timing.T_ds:
        ds, H_ds_end = last.ds, last.H_ds_end
    else:
        ds = PhaseMap(ode)
        H_ds_end = ds.map_at(timing.T_ds)
        H_ds_end.flags.writeable = False
    ss = PhaseMap(assemble_single_support(params, timing))
    H_stride = ss.map_at(timing.T_ss) @ H_ds_end
    maps = StrideMaps(params=params, timing=timing, ds=ds, ss=ss,
                      H_ds_end=H_ds_end, H_stride=H_stride)
    _LAST_BUILT[ode.unit] = weakref.ref(maps)
    return maps


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
