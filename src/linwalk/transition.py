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

Each map is one fresh exponential and nothing is cached per time value;
dense output steps x with one E(h) per step length.  A full stride is
double support followed by single support; the back-transfer map G(tau)
carries any mid-stride state to the stride end and satisfies
G(tau) H(tau) = H(T).

The constrained map H'(t) eliminates the constant hip-torque inputs to pin
the swing-foot velocity to zero at the stride end:

    H'(t) = H(t) - H(t) S_Mh^T (S_Xdot2 H(t) S_Mh^T)^-1 S_Xdot2 H(t)

Stride maps are cached per (params, timing); construction is pure and the
cached objects are safe to share.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .dynamics import (
    DOUBLE, SINGLE, PhaseODE, assemble_double_support, assemble_single_support,
)
from .layout import Q_DIM, Q_NAMES, selection_matrices
from .model import BodyParams, StrideTiming


class ControlDegeneracyError(RuntimeError):
    """Hip torques cannot control the end-of-stride foot velocity."""


class PhaseMap:
    """Exact transition map of one phase, t in [0, duration].

    Every map comes from one uncached exponential of the clock-augmented
    generator: ``step(h)`` is E(h) itself, ``map_at`` and ``flow`` its Q
    blocks.
    """

    def __init__(self, ode: PhaseODE):
        self.ode = ode
        self.phase = ode.phase
        self.duration = ode.duration

        G0 = np.zeros((Q_DIM, Q_DIM))
        if ode.phase == SINGLE:
            G0[0:2, 4:6] = np.eye(2)      # swing foot moves in single support
        G0[2:4, 6:8] = np.eye(2)
        G0[4:8, :] = ode.K0

        self.clock_cols = tuple(
            j for j in range(Q_DIM) if np.max(np.abs(ode.K1[:, j])) > 1e-300
        )
        nc = len(self.clock_cols)
        A = np.zeros((Q_DIM + nc, Q_DIM + nc))
        A[:Q_DIM, :Q_DIM] = G0
        if nc:
            A[4:8, Q_DIM:] = ode.K1[:, list(self.clock_cols)]
            for k, j in enumerate(self.clock_cols):
                A[Q_DIM + k, j] = 1.0
        self.generator = A
        self._pi = np.zeros((nc, Q_DIM))
        for k, j in enumerate(self.clock_cols):
            self._pi[k, j] = 1.0
        # entries with an identically zero generator row stay put exactly;
        # the Pade solve inside expm would otherwise leave eps-level dust
        self._identity_rows = [i for i in range(Q_DIM)
                               if not np.any(A[i, :])]

    def step(self, h: float) -> np.ndarray:
        """E(h): exact map of the augmented state [Q; t * Pi Q] over h."""
        E = expm(self.generator * h)
        for i in self._identity_rows:
            E[i, :] = 0.0
            E[i, i] = 1.0
        return E

    def augment(self, Q: np.ndarray, t: float) -> np.ndarray:
        """Augmented state [Q; t * Pi Q] at phase time t."""
        return np.concatenate([Q, t * (self._pi @ Q)])

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
    """Eliminate constant hip torques so the mapped foot velocity vanishes."""
    sel = selection_matrices()
    B = sel.S_Xdot2 @ H @ sel.S_Mh.T
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise ControlDegeneracyError(
            "constant hip torques cannot control the end foot velocity "
            "(S_Xdot2 H S_Mh^T singular)") from exc
    if np.linalg.cond(B) > 1e12:
        raise ControlDegeneracyError(
            "foot-velocity elimination is ill-conditioned at this timing")
    return H - H @ sel.S_Mh.T @ Binv @ sel.S_Xdot2 @ H


@dataclass(frozen=True)
class StrideMaps:
    """All transition maps of one stride (double support then single support)."""

    params: BodyParams
    timing: StrideTiming
    ds: PhaseMap
    ss: PhaseMap
    H_ds_end: np.ndarray
    H_stride: np.ndarray
    Hprime_stride: np.ndarray

    def H(self, t: float) -> np.ndarray:
        """Stride map from t = 0, valid on [0, T_stride]."""
        T_ds = self.timing.T_ds
        if t <= T_ds:
            return self.ds.map_at(t)
        return self.ss.map_at(t - T_ds) @ self.H_ds_end

    def G(self, tau: float) -> np.ndarray:
        """Back-transfer map: G(tau) H(tau) = H(T_stride)."""
        T_ds, T_ss = self.timing.T_ds, self.timing.T_ss
        if tau < -1e-12 or tau > self.timing.T_stride + 1e-9:
            raise ValueError(f"tau={tau} outside [0, {self.timing.T_stride}]")
        if tau <= T_ds:
            H_ss_end = self.ss.map_at(T_ss)
            return H_ss_end @ self.ds.flow(tau, T_ds - tau)
        return self.ss.flow(tau - T_ds, self.timing.T_stride - tau)

    def flow(self, t0: float, t1: float) -> np.ndarray:
        """Map from the state at stride time t0 to the state at t1 >= t0."""
        if t1 < t0 - 1e-12:
            raise ValueError("t1 must not precede t0")
        T_ds = self.timing.T_ds
        if t1 <= T_ds:
            return self.ds.flow(t0, t1 - t0)
        if t0 >= T_ds:
            return self.ss.flow(t0 - T_ds, t1 - t0)
        return self.ss.flow(0.0, t1 - T_ds) @ self.ds.flow(t0, T_ds - t0)

    def propagate(self, Q0: np.ndarray, t: float) -> np.ndarray:
        return self.H(t) @ np.asarray(Q0, dtype=float)


@lru_cache(maxsize=4096)
def stride_maps(params: BodyParams, timing: StrideTiming) -> StrideMaps:
    """Build (or fetch) all transition maps for one parameter/timing pair."""
    ds = PhaseMap(assemble_double_support(params, timing))
    ss = PhaseMap(assemble_single_support(params, timing))
    H_ds_end = ds.map_at(timing.T_ds)
    H_stride = ss.map_at(timing.T_ss) @ H_ds_end
    Hprime = constrain_foot_velocity(H_stride)
    return StrideMaps(params=params, timing=timing, ds=ds, ss=ss,
                      H_ds_end=H_ds_end, H_stride=H_stride,
                      Hprime_stride=Hprime)


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
