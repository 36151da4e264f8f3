"""Machine-speed probe: a fixed kernel timed between ops.

The benchmark host is shared, and its speed drifts by tens of percent over
tens of seconds.  The kernel below does a fixed amount of the kind of work
linwalk does (small dense LAPACK solves driven from Python loops) and never
calls linwalk, so its time tracks only the machine.  Dividing op latency by
it gives a figure that code changes move and host load mostly does not.
The kernel must stay unchanged, or normalized figures stop being comparable.
"""
from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(160503036)
_MATS = _RNG.standard_normal((12, 24, 24)) + 24.0 * np.eye(24)
_RHS = _RNG.standard_normal((12, 24))
REPS = 150


def _kernel() -> float:
    acc = 0.0
    for A, b in zip(_MATS, _RHS):
        x = np.linalg.solve(A, b + acc)
        acc = float(x @ x) * 1e-3
        for j in range(48):
            acc += (j & 7) * 1e-6
    return acc


def probe() -> float:
    """Seconds one calibration slice takes right now."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _kernel()
    return time.perf_counter() - t0
