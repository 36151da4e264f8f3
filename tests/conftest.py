import numpy as np
import pytest

from linwalk.dynamics import SINGLE, assemble_double_support, assemble_single_support
from linwalk.layout import Q_DIM
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


def direct_generator(ode):
    """The augmented generator A of one timing's phase, built from its
    phase ODE alone, column by column: the states x = [Q; t * Q[cols]],
    with cols the entries K1 reads, obey x' = A x.  Returns A and cols."""
    G0 = np.zeros((Q_DIM, Q_DIM))
    if ode.phase == SINGLE:
        G0[0:2, 4:6] = np.eye(2)
    G0[2:4, 6:8] = np.eye(2)
    G0[4:8, :] = ode.K0
    cols = tuple(j for j in range(Q_DIM) if np.max(np.abs(ode.K1[:, j])) > 1e-300)
    A = np.zeros((Q_DIM + len(cols), Q_DIM + len(cols)))
    A[:Q_DIM, :Q_DIM] = G0
    for k, j in enumerate(cols):
        A[4:8, Q_DIM + k] = ode.K1[:, j]
        A[Q_DIM + k, j] = 1.0
    return A, cols


def generator_flow(ode, t: float, E: np.ndarray) -> np.ndarray:
    """The phase flow of the phase ODE `ode` from phase time t over a time
    dt, given E = expm(A dt) of its augmented generator A (`direct_generator`):
    the top-left block of E with the clock states folded back in, and the
    rows of Q whose generator row is zero reset to the identity (a
    numerical exponential leaves eps-level dust there)."""
    A, cols = direct_generator(ode)
    E = np.array(E, dtype=float)
    rows = np.flatnonzero(~np.any(A[:Q_DIM], axis=1))
    E[rows] = 0.0
    E[rows, rows] = 1.0
    H = E[:Q_DIM, :Q_DIM].copy()
    H[:, list(cols)] += t * E[:Q_DIM, Q_DIM:]
    return H


def pade_flow(ode, t: float, dt: float) -> np.ndarray:
    """`generator_flow` with scipy's Pade exponential."""
    from scipy.linalg import expm
    return generator_flow(ode, t, expm(direct_generator(ode)[0] * dt))


def phase_odes(maps) -> tuple:
    """The double- and single-support phase ODEs of a stride map's body and
    timing, as its build assembles them."""
    return (assemble_double_support(maps.params, maps.timing),
            assemble_single_support(maps.params, maps.timing))


def phase_pieces(pm, Q: np.ndarray) -> np.ndarray:
    """The flow of one phase map `pm` from the phase-start state Q (23,), or
    the states Q (k, 23) one per row, over its whole duration, as
    `transition.flow_pieces` writes it for one run: C (m, 18) + Q.shape,
    with Q(j h + u h) = sum_d C[j, d] u^d for u in [0, 1]."""
    from linwalk.transition import flow_pieces
    C = flow_pieces(pm.template, [pm.duration], np.reshape(Q, (1, -1, Q_DIM)))[0]
    return C.reshape(C.shape[:2] + np.shape(Q))


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
