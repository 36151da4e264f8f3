"""Fixed-step RK4 oracle: convergence, pushes, and energy bookkeeping."""
import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import random_states
from linwalk.dynamics import solve_forces
from linwalk.model import mass_velocity_matrix
from linwalk.oracle import OracleConfig, Push, integrate, integrate_batch
from linwalk.transition import push_end_state, stride_maps


def test_oracle_imports_no_production_path():
    """The oracle stays independent of the code it checks."""
    import linwalk.oracle as oracle
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    assert "model" in imported
    assert not imported & {"dynamics", "transition", "gaits", "analysis"}


def test_zero_state_stays_zero(adult, timing):
    traj = integrate(adult, timing, np.zeros(23), OracleConfig(step=1e-3))
    assert np.max(np.abs(traj.Q)) == 0.0


def test_rk4_fourth_order_convergence(adult, timing):
    """Halving the step cuts the defect against the exact map ~16x."""
    Q0 = random_states(1, seed=50)
    ref = (stride_maps(adult, timing).H_stride @ Q0.T).T
    errs = []
    for step in (8e-3, 4e-3, 2e-3):
        ends = integrate_batch(adult, timing, Q0, step=step)
        errs.append(np.max(np.abs(ends - ref)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 8.0 < r1 < 30.0, errs
    assert 8.0 < r2 < 30.0, errs


def test_config_validation(adult, timing):
    with pytest.raises(ValueError):
        OracleConfig(step=-1.0)
    with pytest.raises(ValueError):
        integrate(adult, timing, np.zeros(23), OracleConfig(step=0.1))
    with pytest.raises(ValueError):
        integrate(adult, timing, np.full(23, np.nan), OracleConfig(step=1e-3))
    with pytest.raises(ValueError):
        integrate(adult, timing, np.zeros(23), OracleConfig(
            step=1e-3, pushes=(Push(t_on=0.8, duration=0.2, wrench=(1, 0, 0, 0)),)))


def test_zero_push_is_noop(adult, timing):
    Q0 = random_states(1, seed=51)[0]
    Q0[18:22] = 0.0
    plain = integrate(adult, timing, Q0, OracleConfig(step=1e-3)).end
    pushed = integrate(adult, timing, Q0, OracleConfig(
        step=1e-3, pushes=(Push(0.2, 0.3, (0, 0, 0, 0)),))).end
    assert np.allclose(plain, pushed, atol=1e-14)


def test_constant_wrench_equals_initial_wrench(adult, timing):
    """A whole-stride push equals putting the wrench in the initial state."""
    Q0 = random_states(1, seed=52)[0]
    wrench = tuple(Q0[18:22])
    a = integrate(adult, timing, Q0, OracleConfig(
        step=1e-3, pushes=(Push(0.0, timing.T_stride, wrench),))).end
    b = integrate_batch(adult, timing, Q0[None, :], step=1e-3)[0]
    assert np.allclose(a, b, atol=1e-13)


def test_push_closed_form_matches_rk4(adult, timing):
    """Mid-stride sagittal push: piecewise map composition vs RK4."""
    Q0 = random_states(1, seed=53)[0]
    push = Push(t_on=0.4, duration=0.1, wrench=(50.0, 0.0, 0.0, 0.0))
    closed = push_end_state(adult, timing, Q0, push)
    rk4 = integrate(adult, timing, Q0, OracleConfig(step=1e-4, pushes=(push,))).end
    assert np.max(np.abs(closed - rk4)) <= 1e-7


def test_push_straddling_phase_boundary(adult, timing):
    Q0 = random_states(1, seed=54)[0]
    push = Push(t_on=0.25, duration=0.15, wrench=(0.0, 30.0, 5.0, -2.0))
    closed = push_end_state(adult, timing, Q0, push)
    rk4 = integrate(adult, timing, Q0, OracleConfig(step=1e-4, pushes=(push,))).end
    assert np.max(np.abs(closed - rk4)) <= 1e-7


def test_energy_bookkeeping(adult, timing):
    """Integrated force power equals the change of the masses' kinetic
    energy (gravity does no work on constant-height planes)."""
    Q0 = random_states(1, seed=55)[0]
    maps = stride_maps(adult, timing)
    Vm = mass_velocity_matrix(adult)
    masses = np.repeat([adult.m1, adult.m2, adult.m3], 2)
    n = 4001
    ts = np.linspace(0.0, timing.T_stride, n)
    power = np.zeros(n)
    Q = Q0.copy()
    t_prev = 0.0
    for k, t in enumerate(ts):
        if t > t_prev:
            Q = maps.flow(t_prev, t) @ Q
            t_prev = t
        phase = "double" if t <= timing.T_ds else "single"
        tl = t if t <= timing.T_ds else t - timing.T_ds
        F = solve_forces(adult, timing, phase, Q, tl)
        v = (Vm @ Q).reshape(3, 2)
        total = np.array([F.f1 + F.F1, F.f2 + F.F2, F.f3 + F.F3])[:, 0:2]
        power[k] = float(np.sum(v * total))
        if k == 0:
            ke0 = 0.5 * np.sum(masses * (Vm @ Q) ** 2)
    ke1 = 0.5 * np.sum(masses * (Vm @ Q) ** 2)
    work = np.trapezoid(power, ts)
    assert abs(work - (ke1 - ke0)) <= 1e-5 * max(abs(ke1 - ke0), abs(ke1), 1.0)


def test_trajectory_recording(adult, timing):
    Q0 = random_states(1, seed=56)[0]
    traj = integrate(adult, timing, Q0, OracleConfig(step=1e-3, save_every=50))
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(timing.T_stride)
    assert np.all(np.diff(traj.t) > 0)
    assert traj.Q.shape[1] == 23
