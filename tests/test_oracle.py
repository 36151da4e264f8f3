"""Fixed-step RK4 oracle: convergence, pushes, and energy bookkeeping."""
import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_states
from linwalk.dynamics import solve_forces
from linwalk.model import (
    StrideTiming, default_params, mass_velocity_matrix, scaled_body,
)
import linwalk.oracle as oracle
from linwalk.oracle import (
    OracleConfig, Push, _augmented_step, _power, _rk4_increments, accel_double,
    accel_single, integrate, integrate_batch, phase_operator,
)
from linwalk.transition import push_end_state, stride_maps


def test_oracle_imports_no_production_path():
    """The oracle stays independent of the code it checks: neither the
    modules nor the names it imports (`from . import dynamics`) may be
    production ones."""
    import linwalk.oracle as oracle
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    assert "model" in imported
    assert not imported & {"dynamics", "transition", "gaits", "analysis"}


def test_production_path_imports_no_oracle():
    """The mirror: no production module imports the oracle, as a module
    (`from . import oracle`) or a name from it (`from .oracle import Push`)."""
    import linwalk
    for name in ("layout", "model", "dynamics", "transition", "gaits", "analysis"):
        tree = ast.parse((Path(linwalk.__file__).parent / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            assert not any(m.rsplit(".", 1)[-1] == "oracle" for m in modules), name


def test_push_is_one_class():
    import linwalk
    import linwalk.model
    assert linwalk.Push is oracle.Push is linwalk.model.Push


ORACLE_ENDS = Path(__file__).parent / "data" / "oracle_ends_adult.json"


def test_integrate_batch_matches_pinned_ends():
    """End states match those pinned from the per-stage RK4 march (four
    matmuls per step on positions and velocities) that the increment
    stepping replaced."""
    ref = json.loads(ORACLE_ENDS.read_text())
    body = default_params(ref["body"])
    timing = StrideTiming(ref["T_ds"], ref["T_ss"])
    Q0 = random_states(ref["states"]["n"], seed=ref["states"]["seed"])
    for phase in ("double", "single", None):
        expected = np.array(ref["ends"][phase or "stride"])
        ends = integrate_batch(body, timing, Q0, step=ref["step"], phase=phase)
        assert np.max(np.abs(ends - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("single", [True, False])
def test_phase_operator_reproduces_closed_forms(adult, timing, single):
    """K(t) Q equals the closed-form accelerations at every stage time."""
    fn, T = (accel_single, timing.T_ss) if single else (accel_double, timing.T_ds)
    ts = np.linspace(0.0, T, 7)
    K = phase_operator(adult, T, single, ts)
    for Q in random_states(3, seed=59):
        direct = fn(adult, T, Q, ts).T                  # (len(ts), 4)
        assert np.allclose(K @ Q, direct, rtol=0.0,
                           atol=1e-12 * np.max(np.abs(direct)))


def _textbook_rk4(params, phase_T, single, Q, n_steps):
    """Classical RK4 on y = (P, V), y' = (V, a(t, P)), calling the closed
    forms at every stage; the other entries of Q stay fixed."""
    fn = accel_single if single else accel_double
    pos = [0, 1, 2, 3] if single else [2, 3]
    vel = [p + 4 for p in pos]
    h = phase_T / n_steps
    q = Q.T.copy()                                  # (23, n)

    def f(t, P, V):
        q[pos], q[vel] = P, V
        return V, fn(params, phase_T, q, t)[pos]

    P, V = Q.T[pos], Q.T[vel]
    for j in range(n_steps):
        t = j * h
        k1 = f(t, P, V)
        k2 = f(t + h / 2, P + h / 2 * k1[0], V + h / 2 * k1[1])
        k3 = f(t + h / 2, P + h / 2 * k2[0], V + h / 2 * k2[1])
        k4 = f(t + h, P + h * k3[0], V + h * k3[1])
        P = P + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        V = V + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    q[pos], q[vel] = P, V
    return q.T


def test_increment_stepping_matches_textbook_rk4(adult, timing):
    Q0 = random_states(3, seed=57)
    step = 2e-3
    mid = _textbook_rk4(adult, timing.T_ds, False, Q0, round(timing.T_ds / step))
    end = _textbook_rk4(adult, timing.T_ss, True, mid, round(timing.T_ss / step))
    for phase, ref in (("double", mid), (None, end)):
        ends = integrate_batch(adult, timing, Q0, step=step, phase=phase)
        assert np.max(np.abs(ends - ref)) <= 1e-13 * np.max(np.abs(ref))


def _active_operator(params, phase_T, single, ts):
    """Stage maps K(ts) of the active rows, columns permuted as the march
    permutes the state, with the active count na and the permutation."""
    pos = [0, 1, 2, 3] if single else [2, 3]
    active = pos + [p + 4 for p in pos]
    perm = np.array(active + [i for i in range(23) if i not in active])
    return phase_operator(params, phase_T, single, ts)[:, pos][:, :, perm], len(pos), perm


def _per_step_increments(params, phase_T, single, n_steps, h=None, t0=0.0):
    """Increments of n_steps steps of size h (phase_T / n_steps if None)
    from t0, from the closed forms at every stage time."""
    h = phase_T / n_steps if h is None else h
    ts = t0 + np.arange(2 * n_steps + 1) * (0.5 * h)
    A, na, _ = _active_operator(params, phase_T, single, ts)
    return _rk4_increments(A, h, na)


def _compose_steps(D, na):
    """Increment R of the steps D[0], D[1], ... taken in order, with
    I + R = (I + D[0])(I + D[1])...: neighbours merge pairwise as
    a + b + a b.  Pairwise, not one at a time, because a running product
    of 20000 steps drifts by up to 8e-15 of its largest entry."""
    while len(D) > 1:
        a, b = D[:-1:2], D[1::2]
        ab = a + b + a @ b[:, :2 * na]
        D = np.concatenate([ab, D[-1:]]) if len(D) % 2 else ab
    return D[0]


def _per_step_march(params, phase_T, single, Q, n_steps, h=None, t0=0.0):
    """The increment march one step at a time, as before steps were
    composed: the closed forms at every stage time, then
    X[:, :2 na] += X @ D[j] for each step j in turn."""
    _, na, perm = _active_operator(params, phase_T, single, [0.0])
    X = Q[:, perm]
    for D in _per_step_increments(params, phase_T, single, n_steps, h, t0):
        X[:, :2 * na] += X @ D
    out = np.empty_like(X)
    out[:, perm] = X
    return out


@pytest.mark.parametrize("n_steps", [1, 2, 499, 500, 501, 1001, 1023, 1024, 1025])
@pytest.mark.parametrize("phase", ["single", "double"])
def test_composed_march_matches_per_step_march(adult, timing, phase, n_steps):
    """Raising the augmented step to the step count by binary powering
    before touching the states, with the increments interpolated from the
    three probed at t = 0, T/2 and T, changes only the rounding: step
    counts on both sides of a power of two included."""
    single = phase == "single"
    T = timing.T_ss if single else timing.T_ds
    Q0 = random_states(4, seed=62)
    ref = _per_step_march(adult, T, single, Q0, n_steps)
    ends = integrate_batch(adult, timing, Q0, step=T / n_steps, phase=phase)
    assert np.max(np.abs(ends - ref)) <= 1e-13 * np.max(np.abs(ref))


def _short_phase_cases(adult, kid):
    """Seeded random adult and kid bodies at double-support shares down to
    0.005."""
    rng = np.random.default_rng(63)
    for k, share in enumerate((0.005, 0.005, 0.01, 0.02, 0.1, 0.4)):
        base = (adult, kid)[k % 2]
        body = scaled_body(base, base.total_mass * rng.uniform(0.75, 1.25),
                           rng.uniform(0.85, 1.15))
        T = rng.uniform(0.3, 1.2)
        yield body, StrideTiming(share * T, (1.0 - share) * T), rng


def test_phase_operator_is_affine_in_t(adult, kid):
    """K(t) = K(0) + t (K(T) - K(0)) / T, which lets the march probe the
    closed forms at the phase ends only."""
    for body, tm, rng in _short_phase_cases(adult, kid):
        for single, T in ((True, tm.T_ss), (False, tm.T_ds)):
            ts = np.append(np.linspace(0.0, T, 9), rng.uniform(0.0, T, 4))
            K = phase_operator(body, T, single, ts)
            line = K[0] + ts[:, None, None] * ((K[8] - K[0]) / T)
            assert np.max(np.abs(K - line)) <= 1e-12 * np.max(np.abs(K))


def test_interpolated_increments_match_per_step_increments(adult, kid):
    """The n-th power of the augmented step, built from the increments of
    three steps, equals the n increments formed from the closed forms at
    every stage time and composed in order, down to a double-support share
    of 0.005."""
    for body, tm, _ in _short_phase_cases(adult, kid):
        for single, T in ((True, tm.T_ss), (False, tm.T_ds)):
            (K0, KT), na, _ = _active_operator(body, T, single, [0.0, T])
            for n_steps in (15, 1000, 20000):
                E = _augmented_step(K0, KT, T, T / n_steps, na)
                R = _power(E, n_steps)[:23, :2 * na]
                ref = _compose_steps(_per_step_increments(body, T, single, n_steps), na)
                assert np.max(np.abs(R - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_march_probes_three_steps_per_phase(adult, monkeypatch):
    """A stride of n steps per phase forms the RK4 increments of three
    steps per phase march, not of every step, and moves the states by the
    n-th power of the augmented step, which equals the n per-step
    increments composed in order."""
    real_increments, real_power = oracle._rk4_increments, oracle._power

    def counted(A, h, na):
        D = real_increments(A, h, na)
        steps.append(len(D))
        return D

    def recorded(E, n):
        R = real_power(E, n)
        powers.append((n, R))
        return R

    monkeypatch.setattr(oracle, "_rk4_increments", counted)
    monkeypatch.setattr(oracle, "_power", recorded)
    timing = StrideTiming(0.3, 0.3)
    for n_steps in (15, 1000, 20000):
        steps, powers = [], []
        integrate_batch(adult, timing, random_states(2, seed=65), step=0.3 / n_steps)
        assert 0 < sum(steps) <= 2 * 3
        assert [n for n, _ in powers] == [n_steps, n_steps]
        for (_, R), single in zip(powers, (False, True)):
            na = 4 if single else 2
            ref = _compose_steps(_per_step_increments(adult, 0.3, single, n_steps), na)
            assert np.max(np.abs(R[:23, :2 * na] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("single", [True, False])
def test_march_refuses_stage_maps_varying_on_an_active_column(
        adult, timing, monkeypatch, single):
    """The augmented step needs K(t) constant on the active columns; the
    march checks that on its own probes of the closed forms."""
    real = oracle.phase_operator

    def drifting(params, phase_T, single, ts):
        K = real(params, phase_T, single, ts)
        K[:, :, 2] += 1e-3 * np.asarray(ts)[:, None]       # x1x, active in both
        return K

    monkeypatch.setattr(oracle, "phase_operator", drifting)
    with pytest.raises(ValueError, match="active column"):
        integrate_batch(adult, timing, random_states(1), step=1e-3,
                        phase="single" if single else "double")


def test_push_edges_in_single_support_match_per_step_march(adult, timing):
    """A push inside single support splits the march there, so two segments
    start mid-phase, their u-powers at t_local / T_ss; the end matches the
    per-step march of each segment from its own t_local."""
    Q0 = random_states(2, seed=66)
    push = Push(timing.T_ds + 0.15, 0.2, (40.0, -25.0, 3.0, 1.5))
    step = 1e-4
    ends = [integrate(adult, timing, Q, OracleConfig(step=step, pushes=(push,))).end
            for Q in Q0]
    Q = Q0.copy()
    edges = [0.0, timing.T_ds, push.t_on, push.t_on + push.duration, timing.T_stride]
    for a, b in zip(edges[:-1], edges[1:]):
        Q[:, 18:22] = push.wrench if a == push.t_on else Q0[:, 18:22]
        single = a >= timing.T_ds
        T, t0 = (timing.T_ss, a - timing.T_ds) if single else (timing.T_ds, a)
        n = round((b - a) / step)
        Q = _per_step_march(adult, T, single, Q, n, h=(b - a) / n, t0=t0)
    Q[:, 18:22] = Q0[:, 18:22]
    assert np.max(np.abs(np.array(ends) - Q)) <= 1e-13 * np.max(np.abs(Q))


def test_oracle_matches_maps_on_short_phases(adult, kid):
    """RK4 ends agree with the closed-form maps for each phase and for the
    stride, down to a double-support share of 0.005 (15 steps)."""
    for body, tm, rng in _short_phase_cases(adult, kid):
        maps = stride_maps(body, tm)
        Q0 = random_states(4, seed=int(rng.integers(1 << 30)))
        for phase, H in (("double", maps.H_ds_end),
                         ("single", maps.ss.map_at(tm.T_ss)),
                         (None, maps.H_stride)):
            ends = integrate_batch(body, tm, Q0, step=1e-4, phase=phase)
            exact = Q0 @ H.T
            assert np.max(np.abs(ends - exact)) <= 1e-10 * np.max(np.abs(exact))


def _save_grid(T_stride, step, save_every, edges):
    """Save times of the per-step march: a + k h at every save_every-th
    step, counted over the stride, then T_stride unless the last step was
    kept."""
    times, count = [0.0], 0
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, round((b - a) / step))
        for k in range(1, n + 1):
            count += 1
            if count % save_every == 0:
                times.append(a + k * ((b - a) / n))
    if times[-1] < T_stride - 1e-12:
        times.append(T_stride)
    return np.array(times)


@pytest.mark.parametrize("save_every", [1, 7, 200, 430])
@pytest.mark.parametrize("pushed", [False, True])
def test_integrate_saves_on_the_step_grid(adult, timing, save_every, pushed):
    """States are kept every save_every steps of the stride, at the step
    times, across segment ends; the last one is the end of integrate_batch.
    The push carries the state's own wrench, so it only splits the march
    at 0.25 s and 0.35 s, across T_ds."""
    Q0 = random_states(1, seed=64)[0]
    step = 1e-3
    edges = [0.0, timing.T_ds, timing.T_stride]
    pushes = ()
    if pushed:
        push = Push(0.25, 0.1, tuple(Q0[18:22]))
        pushes = (push,)
        edges = [0.0, push.t_on, timing.T_ds, push.t_on + push.duration,
                 timing.T_stride]
    traj = integrate(adult, timing, Q0, OracleConfig(
        step=step, save_every=save_every, pushes=pushes))
    assert np.array_equal(traj.t, _save_grid(timing.T_stride, step, save_every, edges))
    end = integrate_batch(adult, timing, Q0, step=step)[0]
    assert np.max(np.abs(traj.end - end)) <= 1e-12 * np.max(np.abs(end))
    maps = stride_maps(adult, timing)
    for t, Q in zip(traj.t, traj.Q):
        exact = maps.flow(0.0, t) @ Q0
        assert np.max(np.abs(Q - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_integrate_batch_memory_does_not_grow_with_steps(adult):
    """Peak allocation does not grow with the number of steps."""
    Q0 = random_states(20, seed=58)

    def peak(T_stride):
        timing = StrideTiming(0.25 * T_stride, 0.75 * T_stride)
        tracemalloc.start()
        try:
            integrate_batch(adult, timing, Q0, step=1e-4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.2)
    short, long = peak(0.2), peak(0.8)
    assert long <= 1.1 * short, (short, long)


@pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf])
def test_bad_step_rejected(adult, timing, step):
    with pytest.raises(ValueError, match="step"):
        integrate_batch(adult, timing, random_states(1), step=step)
    with pytest.raises(ValueError, match="step"):
        OracleConfig(step=step)


@pytest.mark.parametrize("phase", ["Single", "ss", ""])
def test_integrate_batch_refuses_an_unknown_phase(adult, timing, phase):
    with pytest.raises(ValueError, match=f"unknown phase '{phase}': expected 'single' or 'double'"):
        integrate_batch(adult, timing, random_states(1), phase=phase)


@pytest.mark.parametrize("phase", [None, "single", "double"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrate_batch_refuses_non_finite_states(adult, timing, phase, bad):
    Q0 = random_states(3)
    Q0[1, 5] = bad
    with pytest.raises(ValueError, match="initial states must be finite"):
        integrate_batch(adult, timing, Q0, step=1e-3, phase=phase)


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
    for save_every in (0, 2.5, True, np.nan):
        with pytest.raises(ValueError, match="save_every"):
            OracleConfig(save_every=save_every)
    for push in ((np.nan, 0.1, (1, 0, 0, 0)), (0.1, np.inf, (1, 0, 0, 0)),
                 (0.1, 0.1, (1, np.nan, 0, 0))):
        with pytest.raises(ValueError, match="finite"):
            Push(*push)


@pytest.mark.parametrize("t_on, duration", [(0.4, -0.1), (-0.1, 0.2), (-1e-300, 0.0)])
def test_push_with_negative_onset_or_duration_is_refused(t_on, duration):
    """A push runs forward from a non-negative onset: a negative duration
    would have the closed form flow a later state from an earlier time, and
    the oracle ignore the push."""
    with pytest.raises(ValueError, match="onset and duration must be non-negative"):
        Push(t_on=t_on, duration=duration, wrench=(50.0, 0.0, 0.0, 0.0))


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


def test_overlapping_pushes_refused_touching_allowed(adult, timing):
    """Pushes that overlap are refused naming both, whatever their order,
    rather than the first listed silently winning the overlap; pushes that
    only touch follow each other, as two calls of the closed form do."""
    Q0 = random_states(1, seed=56)[0]
    a = Push(0.1, 0.2, (50.0, 0.0, 0.0, 0.0))
    b = Push(0.2, 0.2, (0.0, 30.0, 0.0, 0.0))
    for pushes in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="overlap") as err:
            integrate(adult, timing, Q0, OracleConfig(step=1e-3, pushes=pushes))
        assert str(a) in str(err.value) and str(b) in str(err.value)
    c = Push(0.3, 0.1, (0.0, 30.0, 0.0, 0.0))     # a ends at 0.1 + 0.2, one ulp later
    end = integrate(adult, timing, Q0, OracleConfig(step=1e-4, pushes=(a, c))).end
    mid = integrate(adult, timing, Q0, OracleConfig(step=1e-4, pushes=(c, a))).end
    assert np.array_equal(end, mid)


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
