"""The stdlib Brent port against scipy's brentq."""
import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from linwalk import gaits
from linwalk.model import default_params, scaled_body
from linwalk.roots import brentq


def _relax_minors(n, seed):
    """n seeded adult and kid bodies: the sagittal relax minor of each, as
    `find_relax_time` polishes it, and its first sign-change bracket on the
    relax grid."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        base = default_params(("adult", "kid")[k % 2])
        body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                           rng.uniform(0.9, 1.1))
        T_ds = float(rng.uniform(0.1, 0.35))
        R1 = gaits._relax_R1(body, T_ds)

        def minor(T, R1=R1):
            return float(np.linalg.det(R1(np.array([T]))[0][gaits._SAG][1:]))

        ts = gaits._stride_times(T_ds, (0.4, 1.5))[::2]
        vals = [minor(T) for T in ts]
        i = next(i for i in range(len(ts) - 1) if vals[i] * vals[i + 1] < 0)
        yield minor, float(ts[i]), float(ts[i + 1])


def test_port_lands_with_scipy_on_relax_minors():
    """On the relax minors of 12 seeded bodies both land within xtol of
    each other, at the solve's xtol and at a tight one, in either bracket
    order; at the solve's, the minor changes sign within xtol of the
    port's root."""
    for minor, lo, hi in _relax_minors(12, seed=31):
        for xtol in (1e-10, 1e-14):
            for a, b in ((lo, hi), (hi, lo)):
                ours = brentq(minor, a, b, xtol=xtol)
                assert abs(ours - scipy_brentq(minor, a, b, xtol=xtol)) <= xtol
                assert lo <= ours <= hi
        ours = brentq(minor, lo, hi, xtol=1e-10)
        assert minor(ours - 1e-10) * minor(ours + 1e-10) < 0.0


def test_port_handles_the_bracket_as_scipy():
    """Same bracket handling: a zero at either end is returned as is, and a
    bracket without a sign change and a non-positive xtol are refused."""
    def f(x):
        return x * x - 2.0

    for solve in (brentq, scipy_brentq):
        assert solve(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-10) == 1.0
        assert solve(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-10) == 3.0
        with pytest.raises(ValueError):
            solve(f, 2.0, 3.0, xtol=1e-10)
        with pytest.raises(ValueError):
            solve(f, 0.0, 2.0, xtol=0.0)
    assert brentq(f, 0.0, 2.0, xtol=1e-15) == scipy_brentq(f, 0.0, 2.0, xtol=1e-15)
