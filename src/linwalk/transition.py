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

(cos and sin where lambda < 0, their power series in h where |lambda| h^2
< 1/2), and

    p(h)  = p + sum P [lambda C p + s v + C K0_u u + (t0 C + S) / T K1_u u]
    p'(h) = v + sum P [lambda s p + lambda C v + s K0_u u + (t0 s + C) / T K1_u u]

So a map is the identity plus a feature vector phi(h, t0, T) of the four
functions s, C, (t0 C + S) / T and (t0 s + C) / T per eigenvalue times a
timing-free matrix Z on the moving rows.  `_map_template` builds the
eigenvalues and Z once per (body, phase), as a template that lives as long
as the cached phase ODE it comes from; `expm` evaluates the maps at any
number of (h, t0, T) at once.  Rows that do not move are the identity
exactly, and no entry couples the axes.  A complex or repeated eigenvalue pair raises
`DegenerateModelError`.  No template is keyed by a time value (only the
stride-map cache below is, by (params, timing)).

Dense output takes no map at all: the power series of s, C and S (one
timing-free table of h^d coefficients in the template, which `expm` sums
for short times) let `flow_pieces` write a phase's whole flow from given
states as polynomials on a few pieces, short enough that
|lambda| h^2 <= 1/2, with the features' coefficients in place of their
values; the states at any times are those polynomials evaluated.  Each
piece after a phase's first starts from its exact closed-form state (the
features at its start time applied to the phase-start state), never from
the previous piece's end, so the pieces of many phases and start states
are written at once: `PhaseMap.pieces` is one run, `StrideMaps.pieces` one
stride, and the CoM work of a sweep row all its strides.

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
at many durations from one evaluation, and `stride_pieces` the flows of
many strides; neither builds nor caches a stride map, so the relax scan and
the economy rows never touch the cache.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
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

# the degrees d kept of s, C and S as power series in h (`_Template.series`),
# which are also those of a flow piece's polynomials: where |lambda| h^2
# <= 1/2 the first dropped term is below 1.3e-18 of the leading one
_DEGREES = np.arange(18.0)


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

    Per axis (sagittal, lateral) and eigenvalue lambda of its position
    block, shaped (2, 1, n) to broadcast against (k, 1) times: ``reach``
    sqrt(1 / (2 |lambda|)), below which s, C and S are read off their
    series, and ``den`` and ``root`` the lambda and sqrt(lambda) of their
    closed forms (imaginary where lambda < 0; a zero lambda, whose times
    all take the series, is 1 there).  ``series`` (3, 2, 18, n) is the one
    encoding of those series, for `expm` and `flow_pieces` alike: the
    coefficients of h^d in s, C and S (lambda^i / d! at d = 2i + 1, 2i + 2
    and 2i + 3).  ``Z`` (2, 4n, 2n * 12) is the map's increment over the
    identity on the axis' moving positions and velocities (``rows``, 2 x 2n)
    and its columns (`_AXIS_COLS`), per feature s, C, (t0 C + S) / T,
    (t0 s + C) / T of each eigenvalue (`expm`), and ``cells`` the flat
    indices of those entries in a 23 x 23 map.
    """

    reach: np.ndarray
    den: np.ndarray
    root: np.ndarray
    series: np.ndarray
    Z: np.ndarray
    rows: np.ndarray
    cells: np.ndarray


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
    # s, C and S (f = 0, 1, 2) take lambda^i / d! at the degrees d = 2i + f + 1
    i = (_DEGREES[:, None] - np.arange(1.0, 4.0)[:, None, None, None]) / 2   # (3, 1, 18, 1)
    term = (i >= 0.0) & (i % 1.0 == 0.0)
    inv_factorial = np.array([1.0 / math.factorial(d) for d in range(len(_DEGREES))])
    series = np.where(term, lam ** np.where(term, i, 0.0) * inv_factorial[:, None], 0.0)
    tpl = _Template(
        reach=np.where(lam == 0.0, np.inf, np.sqrt(0.5 / np.abs(den))),
        den=den, root=np.sqrt(den.astype(complex)), series=series, Z=np.array(Zs),
        rows=rows, cells=(rows[..., None] * Q_DIM + _AXIS_COLS[:, None]).reshape(2, -1))
    for a in (tpl.reach, den, tpl.root, series, tpl.Z, rows, tpl.cells):
        a.flags.writeable = False
    _TEMPLATES[unit] = tpl
    return tpl


def _features(tpl: _Template, h, t0, T) -> np.ndarray:
    """The feature vectors phi (2, k, 4n) of the closed form (module
    docstring) at k triples (h, t0, T), given as scalars or (k,) arrays:
    s, C, (t0 C + S) / T and (t0 s + C) / T of each eigenvalue, per axis."""
    h, t0, T = (np.asarray(a, dtype=float).reshape(-1, 1) for a in (h, t0, T))
    z = tpl.root * h                                     # (2, k, n)
    s = (np.sinh(z) / tpl.root).real
    C = (np.cosh(z).real - 1.0) / tpl.den
    S = (s - h) / tpl.den
    s, C, S = np.where(h < tpl.reach,                    # |lambda| h^2 < 1/2
                       h ** _DEGREES @ tpl.series, [s, C, S])
    return np.concatenate([s, C, (t0 * C + S) / T, (t0 * s + C) / T], axis=2)


def expm(tpl: _Template, h, t0, T) -> np.ndarray:
    """The exact 23 x 23 maps of a phase from phase time t0 over h, for the
    phase lasting T, at k triples (h, t0, T) given as scalars or (k,)
    arrays: (k, 23, 23), in closed form from the template (module
    docstring), one product for all k.  Named for the matrix exponential
    it replaces."""
    phi = _features(tpl, h, t0, T)
    out = np.zeros((phi.shape[1], Q_DIM * Q_DIM))
    out[:, tpl.cells] = (phi @ tpl.Z).swapaxes(0, 1)
    out[:, ::Q_DIM + 1] += 1.0
    return out.reshape(-1, Q_DIM, Q_DIM)


def _increments(tpl: _Template, phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """What the feature vectors phi (2, P, D, 4n) add to the states x
    (P, r, 23) on each axis' moving rows: sum_f phi[a, p, d, f] Z[a, f] x[p],
    shaped (P, D, r, 2, 2n) to scatter into ``tpl.rows``.  Z takes all the
    states in one product per axis, and each p's features one more; no
    map is formed."""
    (_, P, D, F), r = phi.shape, x.shape[1]
    xc = x[..., _AXIS_COLS].transpose(2, 3, 0, 1).reshape(2, len(_AXIS_COLS[0]), P * r)
    Zx = tpl.Z.reshape(2, -1, xc.shape[1]) @ xc
    Zx = Zx.reshape(2, F, -1, P, r).transpose(0, 3, 1, 2, 4).reshape(2, P, F, -1)
    return (phi @ Zx).reshape(2, P, D, -1, r).transpose(1, 2, 4, 0, 3)


def piece_runs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of m (k,) pieces laid end to end: each piece's run and its
    index j within the run."""
    run = np.repeat(np.arange(len(m)), m)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(m) - m, m)


def flow_pieces(tpl: _Template, T, X: np.ndarray):
    """The exact flows of k runs of one phase, run i lasting T[i] from the
    phase-start states X[i] (k, r, 23), as polynomials on m[i] equal
    pieces of length h = T[i] / m[i]: Q(j h + u h) = sum_d C[p, d] u^d for
    u in [0, 1] on the run's piece p (its j-th).  Returns the pieces C
    (sum m, 18, r, 23), run after run; m (k,); and the states (k, r, 23)
    where the runs end, their last pieces' sums.

    m = ceil(T max sqrt(2 |lambda|)) keeps |lambda| h^2 <= 1/2, where 18
    coefficients are exact to roundoff.  A run's first piece starts from
    its start state and every later piece from its exact closed-form state
    at t_j = j h: the features phi(t_j, 0, T) applied to the run's start
    state, all of them from one feature evaluation, with no map formed and
    no chaining.  The coefficient of u^d on a piece is the h^d coefficient
    of the features s, C, (t_j C + S) / T and (t_j s + C) / T (the
    template's ``series`` table) applied to the piece's start state.
    """
    T = np.asarray(T, dtype=float)
    m = np.maximum(1, np.ceil(T * np.max(1.0 / tpl.reach))).astype(int)
    run, j = piece_runs(m)
    h = (T / m)[run]
    t = h * j
    x = X[run]                                           # the piece starts
    later = np.flatnonzero(j)
    if len(later):
        y = x[later]
        phi = _features(tpl, t[later], 0.0, T[run[later]])[:, :, None]
        y[..., tpl.rows] += _increments(tpl, phi, y)[:, 0]
        x[later] = y
    s, C, S = tpl.series[:, :, None] * h[:, None, None] ** _DEGREES[:, None]
    t, Tp = t[:, None, None], T[run][:, None, None]
    phi = np.concatenate([s, C, (t * C + S) / Tp, (t * s + C) / Tp], axis=3)
    out = np.zeros((len(run), len(_DEGREES)) + x.shape[1:])
    out[:, 0] = x
    out[:, 1:][..., tpl.rows] = _increments(tpl, phi[:, :, 1:], x)
    return out, m, out[np.cumsum(m) - 1].sum(axis=1)


def stride_pieces(tpls: tuple[_Template, _Template], T_ds, T_ss, X: np.ndarray):
    """Both phases' `flow_pieces` of k strides from the stride-start states
    X (k, r, 23), phase durations T_ds and T_ss (k,), and the templates
    (double, single support): ((C_ds, m_ds), (C_ss, m_ss), stride-end
    states).  Single support starts from the double-support end states."""
    ds, m_ds, mid = flow_pieces(tpls[0], T_ds, X)
    ss, m_ss, end = flow_pieces(tpls[1], T_ss, mid)
    return (ds, m_ds), (ss, m_ss), end


class PhaseMap:
    """Exact transition map of one phase, t in [0, duration].

    The closed-form factors are a per-body template, built once per
    (body, phase).  ``map_at`` and ``flow`` are one closed-form evaluation
    each (`expm`); ``pieces`` writes the flow of given states over the
    whole phase as polynomials read off the same closed form.
    """

    def __init__(self, ode: PhaseODE):
        self.phase = ode.phase
        self.duration = ode.duration
        self._tpl = _map_template(ode.unit or ode)

    def pieces(self, Q: np.ndarray) -> np.ndarray:
        """The exact flow from the phase-start state Q (23,), or the states Q
        (k, 23) one per row, over the phase duration, as polynomials on m
        equal pieces of length h = duration / m: Q(j h + u h) =
        sum_d C[j, d] u^d for u in [0, 1].  Returns C (m, 18) + Q.shape,
        from `flow_pieces` (one run)."""
        C = flow_pieces(self._tpl, [self.duration], np.reshape(Q, (1, -1, Q_DIM)))[0]
        return C.reshape(C.shape[:2] + np.shape(Q))

    def map_at(self, t: float) -> np.ndarray:
        """H_phase(t): exact 23 x 23 map from the phase start."""
        return self.flow(0.0, t)

    def flow(self, t: float, dt: float) -> np.ndarray:
        """Map from the state at phase time t to the state at t + dt, both
        in [0, duration]."""
        if t < -1e-12 or dt < -1e-12 or t + dt > self.duration + 1e-9:
            raise ValueError(f"need 0 <= t <= t + dt <= {self.duration}, got t={t}, dt={dt}")
        return expm(self._tpl, dt, t, self.duration)[0]


def phase_ends(params: BodyParams, phase: str, durations) -> np.ndarray:
    """H_phase(T) of one body's phase at the end of each duration T in
    `durations` (k,): (k, 23, 23) from one closed-form evaluation.  No
    stride map is built or cached."""
    T = np.asarray(durations, dtype=float)
    if not np.all((T > 0.0) & (T < np.inf)):
        raise ValueError(f"{phase}-support durations must be finite and positive")
    return expm(phase_template(params, phase), T, 0.0, T)


def phase_template(params: BodyParams, phase: str) -> _Template:
    """The closed-form template of one body's phase.  The body's unit ODE is
    fetched through the same `assemble_*` call as a stride-map build's, at
    the probing timing (any timing would do)."""
    assemble = assemble_single_support if phase == SINGLE else assemble_double_support
    return _map_template(assemble(params, UNIT_TIMING).unit)


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
        states Q0 (k, 23) one per row, as `PhaseMap.pieces`
        (`stride_pieces`, one stride)."""
        (ds, _), (ss, _), _ = stride_pieces(
            (self.ds._tpl, self.ss._tpl), [self.timing.T_ds], [self.timing.T_ss],
            np.reshape(Q0, (1, -1, Q_DIM)))
        return tuple(C.reshape(C.shape[:2] + np.shape(Q0)) for C in (ds, ss))

    def states(self, Q0: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """H(t) Q0 at the non-decreasing stride times ts in [0, T_stride],
        shape (len(ts),) + Q0.shape, for one state Q0 (23,) or a block (23, k).

        The flow pieces (`pieces`) are evaluated at the times: no map is
        formed.  The times are sorted, so those on one piece form one run
        and take one product with its coefficients.
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
            C = C.reshape(m, C.shape[1], -1)
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
    if push.t_on + push.duration > timing.T_stride + 1e-12:
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
