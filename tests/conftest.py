import numpy as np
import pytest

from linwalk.model import BodyParams, StrideTiming, default_params


@pytest.fixture(scope="session")
def adult() -> BodyParams:
    return default_params("adult")


@pytest.fixture(scope="session")
def kid() -> BodyParams:
    return default_params("kid")


@pytest.fixture(scope="session")
def timing() -> StrideTiming:
    return StrideTiming(T_ds=0.3, T_ss=0.56)


def random_states(n: int, seed: int = 0) -> np.ndarray:
    """Bounded random augmented states with physical support side."""
    rng = np.random.default_rng(seed)
    Q = np.zeros((n, 23))
    Q[:, 0:4] = rng.uniform(-0.5, 0.5, (n, 4))
    Q[:, 4:8] = rng.uniform(-1.0, 1.0, (n, 4))
    Q[:, 8:10] = rng.uniform(-0.3, 0.3, (n, 2))
    Q[:, 10:18] = rng.uniform(-20.0, 20.0, (n, 8))
    Q[:, 18:22] = rng.uniform(-30.0, 30.0, (n, 4))
    Q[:, 22] = rng.choice([-1.0, 1.0], n)
    return Q


def pade_flow(pm, t: float, dt: float) -> np.ndarray:
    """The reference phase flow from phase time t over dt: the top-left
    block of scipy's Pade exponential of the augmented generator, with the
    clock states folded back in, and the rows of Q whose generator row is
    zero reset to the identity (the Pade solve leaves eps-level dust)."""
    from scipy.linalg import expm

    E = expm(pm.generator * dt)
    rows = np.flatnonzero(~np.any(pm.generator[:23], axis=1))
    E[rows] = 0.0
    E[rows, rows] = 1.0
    return E[:23, :23] + t * (E[:23, 23:] @ pm._pi)


@pytest.fixture
def count_expm(monkeypatch) -> list:
    """The calls of `linwalk.transition.expm` made during the test, one
    entry each; clear it to start counting afresh."""
    import linwalk.transition as transition
    calls = []
    real = transition.expm

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(transition, "expm", counted)
    return calls


@pytest.fixture(scope="session")
def adult_config(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cfg") / "adult.yaml"
    path.write_text(
        "m1: 45.7\nm2: 12.15\nm3: 12.15\n"
        "z1: 0.89\nz2: 0.32\nz3: 0.36\nw: 0.20\ng: 9.81\n"
        "T_ds: 0.3\nT_ss: 0.56\n")
    return str(path)


@pytest.fixture(scope="session")
def hprime_crossing(adult) -> StrideTiming:
    """Adult timing (double-support share 0.12) at which b in
    S_Xdot2 H S_Mh^T = diag(b, -b) crosses zero near f = 1.646 strides/s,
    located by Brent's method to full precision."""
    from scipy.optimize import brentq

    from linwalk.layout import selection_matrices
    from linwalk.transition import stride_maps

    sel = selection_matrices()

    def timing(f):
        return StrideTiming(T_ds=0.12 / f, T_ss=0.88 / f)

    def b(f):
        H = stride_maps(adult, timing(f)).H_stride
        return (sel.S_Xdot2 @ H @ sel.S_Mh.T)[0, 0]

    return timing(brentq(b, 1.6, 1.7, xtol=1e-15))
