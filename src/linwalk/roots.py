"""Brent's root finder, standard library only.

A port of Brent's zeroin (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) in the form of ``scipy.optimize.brentq``: the
same bracket handling, tolerance and steps, so on the same function the two
land on the same root.
"""
from __future__ import annotations

import math
import sys

# scipy's defaults: the relative tolerance and the iteration limit
_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + 4 eps |x|.  Inverse quadratic interpolation, secant steps and
    bisection; returns an end whose value is zero at once.  Raises
    ValueError for xtol <= 0 or a bracket without a sign change, and
    RuntimeError if 100 steps do not converge."""
    if not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol}")
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre         # the bracket is [xcur, xblk]
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):           # xcur is the best estimate
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + _RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                           # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry     # accept the interpolation
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise RuntimeError(f"no convergence in {_MAXITER} iterations")
