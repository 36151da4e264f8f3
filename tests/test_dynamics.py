"""Constraint assembly and elimination, cross-checked against the
independent algebraic reduction in the oracle module."""
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import random_states
from linwalk.dynamics import (
    _BALANCE_COLS, _CONST_COLS, _POINT_COLS, _YAW_COLS, _YAW_ROW, DOUBLE, SINGLE,
    UNIT_TIMING, DegenerateModelError, ForceSolution, PhaseODE, _assemble, _extract_ode,
    _transfer_jacobian, _wrench_map, assemble_double_support, assemble_single_support,
    map_forces, solve_forces,
)
from linwalk.layout import ID_SIDE, IV_X1Y, IV_X2X, Q_DIM
from linwalk.model import (
    BodyParams, StrideTiming, default_params, geometry, scaled_body,
)
from linwalk.oracle import accel_double, accel_single
from linwalk.transition import _AXIS_COLS, _DEGREES, _spectrum

FORCES_REF = Path(__file__).parent / "data" / "forces_adult.json"


def phase_cases(timing):
    return ((SINGLE, timing.T_ss, accel_single),
            (DOUBLE, timing.T_ds, accel_double))


@pytest.mark.parametrize("solve", [solve_forces, map_forces])
@pytest.mark.parametrize("phase", ["Single", "ss", ""])
def test_forces_refuse_an_unknown_phase(adult, timing, solve, phase):
    with pytest.raises(ValueError, match=f"unknown phase '{phase}': expected 'single' or 'double'"):
        solve(adult, timing, phase, random_states(1)[0], 0.1)


def test_equilibrium_zero_state(timing):
    """No offsets, no inputs, no side: the assembled system is at rest."""
    p0 = BodyParams(m1=45.7, m2=12.15, m3=12.15, z1=0.89, z2=0.32, z3=0.36, w=0.0)
    for phase, T, _ in phase_cases(timing):
        a = solve_forces(p0, timing, phase, np.zeros(23), 0.4 * T).accel
        assert np.max(np.abs(a)) < 1e-12


def test_accelerations_match_algebraic_reduction(adult, timing):
    """Production elimination vs the hand-reduced closed forms, 100 samples
    per phase, to 1e-10 relative."""
    Q = random_states(100, seed=11)
    rng = np.random.default_rng(12)
    for phase, T, reduced in phase_cases(timing):
        for q in Q:
            t = rng.uniform(0.0, T)
            a = solve_forces(adult, timing, phase, q, t).accel
            b = reduced(adult, T, q, t)
            assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_unit_hip_torque_case(adult, timing):
    """Pure sagittal constant hip torque at t = 0.1 s, both paths agree."""
    q = np.zeros(23)
    q[10] = 1.0  # M_hy
    a = solve_forces(adult, timing, SINGLE, q, 0.1).accel
    b = accel_single(adult, timing.T_ss, q, 0.1)
    assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))
    assert np.max(np.abs(a)) > 1e-3  # the torque actually moves something


def test_acceleration_linearity(adult, timing):
    rng = np.random.default_rng(2)
    for phase, T, _ in phase_cases(timing):
        for _ in range(20):
            q1 = rng.uniform(-1, 1, 23)
            q2 = rng.uniform(-1, 1, 23)
            t = rng.uniform(0, T)
            lhs = solve_forces(adult, timing, phase, q1 + q2, t).accel
            rhs = (solve_forces(adult, timing, phase, q1, t).accel
                   + solve_forces(adult, timing, phase, q2, t).accel)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_time_affinity(adult, timing):
    """At fixed state the accelerations are exactly affine in phase time."""
    rng = np.random.default_rng(3)
    for phase, T, _ in phase_cases(timing):
        q = rng.uniform(-1, 1, 23)
        ts = np.linspace(0.0, T, 10)
        acc = np.array([solve_forces(adult, timing, phase, q, t).accel for t in ts])
        coef = np.polyfit(ts, acc, 1)
        fit = np.outer(ts, coef[0]) + coef[1]
        scale = 1.0 + np.max(np.abs(acc))
        assert np.max(np.abs(acc - fit)) <= 1e-12 * scale


def test_side_mirror_symmetry(adult, timing):
    """Negating d and the lateral entries mirrors lateral accelerations and
    leaves sagittal ones unchanged."""
    lateral = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21]
    rng = np.random.default_rng(4)
    for phase, T, _ in phase_cases(timing):
        for _ in range(10):
            q = rng.uniform(-1, 1, 23)
            q[22] = 1.0
            qm = q.copy()
            qm[lateral] = -qm[lateral]
            qm[22] = -1.0
            t = rng.uniform(0, T)
            a = solve_forces(adult, timing, phase, q, t).accel
            am = solve_forces(adult, timing, phase, qm, t).accel
            assert np.allclose(a[[0, 2]], am[[0, 2]], atol=1e-10)
            assert np.allclose(a[[1, 3]], -am[[1, 3]], atol=1e-10)


def _balance_residuals(params, q, F):
    """Independent transcription of the balance laws for a ForceSolution."""
    X1 = np.array([q[2], q[3], params.z1])
    X2 = np.array([q[0], q[1], 0.0])
    X3 = np.array([q[8], q[9], 0.0])
    geo = geometry(params, X1, X2, X3, q[22])
    a2 = np.array([F.accel[0], F.accel[1], 0.0])
    a1 = np.array([F.accel[2], F.accel[3], 0.0])
    k = params.kappa
    ydd = {1: a1, 2: (1 - k) * a1 + k * a2, 3: (1 - k) * a1}
    gz = np.array([0, 0, params.g])
    res = []
    for i, (m, f, Fc) in enumerate(((params.m1, F.f1, F.F1),
                                    (params.m2, F.f2, F.F2),
                                    (params.m3, F.f3, F.F3)), start=1):
        res.append(m * (ydd[i] + gz) - f - Fc)
    res.append(np.cross(X1 - geo["y1"], F.f1) + F.M1 + F.tau1)
    res.append(np.cross(X2 - geo["y2"], F.F2)
               + np.cross(geo["x2"] - geo["y2"], F.f2) + F.M2 + F.tau2)
    res.append(np.cross(X3 - geo["y3"], F.F3)
               + np.cross(geo["x3"] - geo["y3"], F.f3) + F.M3 + F.tau3)
    res.append(-F.f1 - F.f2 - F.f3)
    ey = np.array([0.0, 1.0, 0.0])
    res.append(-F.tau1 - F.tau2 - F.tau3
               - (params.w * q[22] / 2.0) * np.cross(ey, F.f2 - F.f3))
    return np.concatenate(res)


def test_force_solution_satisfies_balance(adult, timing):
    """Newton/Euler balance holds to 1e-9 relative for random states, on the
    adult body and on random bodies and timings."""
    Q = random_states(20, seed=21)
    cases = [(adult, timing, np.random.default_rng(22))]
    cases += list(_random_bodies_and_timings(adult, 6, seed=23))
    for body, tm, rng in cases:
        for phase, T, _ in phase_cases(tm):
            for q in Q:
                t = rng.uniform(0, T)
                F = solve_forces(body, tm, phase, q, t)
                scale = max(np.max(np.abs(v)) for v in
                            (F.f1, F.f2, F.f3, F.F3, F.tau1, F.tau2, F.tau3))
                res = _balance_residuals(body, q, F)
                assert np.max(np.abs(res)) <= 1e-9 * max(scale, 1.0)


def test_mapped_forces_satisfy_balance(adult, timing):
    """The wrenches from the wrench maps satisfy the Newton/Euler balance
    laws to 1e-9 relative, on the adult body and on random bodies and
    timings, at random states on both sides and at both phase ends."""
    Q = random_states(20, seed=26)
    cases = [(adult, timing, np.random.default_rng(27))]
    cases += list(_random_bodies_and_timings(adult, 6, seed=28))
    for body, tm, rng in cases:
        for phase, T, _ in phase_cases(tm):
            ts = np.concatenate([[0.0, T], rng.uniform(0.0, T, len(Q) - 2)])
            mapped = map_forces(body, tm, phase, Q, ts)
            for q, F in zip(Q, mapped):
                scale = max(np.max(np.abs(v)) for v in
                            (F.f1, F.f2, F.f3, F.F3, F.tau1, F.tau2, F.tau3))
                res = _balance_residuals(body, q, F)
                assert np.max(np.abs(res)) <= 1e-9 * max(scale, 1.0)


def test_wrench_maps_are_read_only_and_built_with_the_ode(adult):
    """The unit ODE of each phase holds its wrench map, read-only; a
    rescaled ODE holds none and reads its unit's."""
    for phase, assemble in ((SINGLE, assemble_single_support),
                            (DOUBLE, assemble_double_support)):
        unit = _extract_ode(adult, phase)
        maps = [unit.wrenches.table] + ([unit.wrenches.yaw] if phase == DOUBLE else [])
        assert all(not a.flags.writeable for a in maps)
        ode = assemble(adult, StrideTiming(0.2, 0.5))
        assert ode.K0 is unit.K0 and ode.wrenches is None
    assert _extract_ode(adult, SINGLE).wrenches.yaw is None


def test_forces_and_phase_odes_match_pinned_reference(adult):
    """Every field of a stacked solve at 16 seeded (q, t) per phase, for
    the adult and a scaled body, and the unit-duration phase ODEs of the
    adult and kid bodies, equal those pinned from the per-sample assembly
    that the stacked one replaced."""
    ref = json.loads(FORCES_REF.read_text())
    timing = StrideTiming(ref["T_ds"], ref["T_ss"])
    bodies = {"adult": adult, "scaled": scaled_body(adult, **ref["scaled_body"])}
    Q = random_states(ref["states"]["n"], seed=ref["states"]["seed"])
    for name, body in bodies.items():
        for phase in (SINGLE, DOUBLE):
            F = solve_forces(body, timing, phase, Q, np.array(ref["times"][phase]))
            for field, expected in ref["forces"][name][phase].items():
                assert np.array_equal(getattr(F, field), expected), (name, phase, field)
    for size, odes in ref["ode_unit"].items():
        for phase, K in odes.items():
            ode = _extract_ode(default_params(size), phase)
            assert np.array_equal(ode.K0, K["K0"]), (size, phase)
            assert np.array_equal(ode.K1, K["K1"]), (size, phase)


def test_stacked_solve_equals_one_row_solves(adult, timing):
    """One solve over k stacked (q, t) gives, bit for bit, the k one-row
    solves, phase ends included."""
    Q = random_states(40, seed=24)
    rng = np.random.default_rng(25)
    for phase, T, _ in phase_cases(timing):
        ts = np.concatenate([[0.0, T], rng.uniform(0.0, T, len(Q) - 2)])
        stacked = solve_forces(adult, timing, phase, Q, ts)
        rows = [solve_forces(adult, timing, phase, q, t) for q, t in zip(Q, ts)]
        for f in fields(ForceSolution):
            one = np.array([getattr(F, f.name) for F in rows])
            assert getattr(stacked, f.name).tobytes() == one.tobytes(), (phase, f.name)


def test_swing_foot_unloaded_in_single_support(adult, timing):
    q = random_states(1, seed=30)[0]
    F = solve_forces(adult, timing, SINGLE, q, 0.2)
    assert np.all(F.F2 == 0.0)
    assert np.all(F.M2 == 0.0)


def test_static_standing_load(adult, timing):
    """Zero state: the stance leg carries the whole weight."""
    F = solve_forces(adult, timing, SINGLE, np.zeros(23), 0.1)
    assert F.F3[2] == pytest.approx(adult.total_mass * adult.g, rel=1e-12)
    assert F.f1[2] == pytest.approx(adult.m1 * adult.g, rel=1e-12)


def test_double_support_weight_transfer(adult, timing):
    """Trailing vertical load falls linearly from full weight to zero."""
    q = random_states(1, seed=31)[0]
    W = adult.total_mass * adult.g
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        F = solve_forces(adult, timing, DOUBLE, q, s * timing.T_ds)
        assert F.F2[2] == pytest.approx((1.0 - s) * W, abs=1e-9 * W)
        assert F.F3[2] == pytest.approx(s * W, abs=1e-9 * W)
        assert F.F2[2] + F.F3[2] == pytest.approx(W, rel=1e-12)


def test_phase_ode_structure(adult, timing):
    ss = assemble_single_support(adult, timing)
    ds = assemble_double_support(adult, timing)
    assert ss.K0.shape == ss.K1.shape == (4, 23)
    # sagittal/lateral decoupling of the state block K0[:, 0:4]
    for ode in (ss, ds):
        for i in range(4):
            for j in range(4):
                if (i - j) % 2:
                    assert abs(ode.K0[i, j]) <= 1e-12
    # single support has no time-linear state coefficients
    assert np.max(np.abs(ss.K1[:, 0:8])) == 0.0
    # double support: the swing-foot rows do not accelerate
    assert np.max(np.abs(ds.K0[0:2])) == 0.0
    assert np.max(np.abs(ds.K1[0:2])) == 0.0
    # but the swing-foot position columns do carry a time-linear term
    assert np.max(np.abs(ds.K1[:, 0:2])) > 0.0


def test_phase_ode_reproduces_assembly(adult, timing):
    rng = np.random.default_rng(7)
    ss = assemble_single_support(adult, timing)
    ds = assemble_double_support(adult, timing)
    for ode, phase, T in ((ss, SINGLE, timing.T_ss), (ds, DOUBLE, timing.T_ds)):
        for _ in range(10):
            q = rng.uniform(-1, 1, 23)
            t = rng.uniform(0, T)
            a = solve_forces(adult, timing, phase, q, t).accel
            b = ode.accel(q, t)
            assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + np.max(np.abs(a)))


def test_stance_hip_torque_profile_along_fast_gait(adult):
    """Along a 1.6 m/s gait the torso-uprighting hip torque crosses from
    extension to flexion near mid-stance, and its reconstruction matches
    the one rebuilt from the oracle accelerations."""
    from linwalk.analysis import sample_trajectory
    from linwalk.gaits import synthesize_gait
    from linwalk.oracle import accel_double, accel_single

    T = 1.0 / 1.8
    tm = StrideTiming(T_ds=0.2 * T, T_ss=0.8 * T)
    gait = synthesize_gait(adult, tm, v_des=1.6)
    samples = sample_trajectory(gait, 201)
    tau1y = []
    for s in samples:
        single = s.t > tm.T_ds
        tl = s.t - tm.T_ds if single else s.t
        fn, Tph = (accel_single, tm.T_ss) if single else (accel_double, tm.T_ds)
        acc = fn(adult, Tph, s.Q, tl)
        f1 = adult.m1 * np.array([acc[2], acc[3], adult.g]) \
            - np.array([s.Q[18], s.Q[19], 0.0])
        tau1 = (-np.array([s.Q[21], s.Q[20], 0.0])
                + adult.z3 * np.cross([0.0, 0.0, 1.0], f1))
        assert np.max(np.abs(tau1 - s.forces.tau1)) <= 1e-8
        if single:
            tau1y.append(s.forces.tau1[1])
    assert np.sum(np.diff(np.sign(tau1y)) != 0) == 1


def test_degenerate_geometry_raises(timing):
    degenerate = BodyParams(m1=45.7, m2=12.15, m3=12.15,
                            z1=0.89, z2=0.0, z3=0.36, w=0.2)
    with pytest.raises(DegenerateModelError):
        assemble_single_support(degenerate, timing)


def test_time_out_of_range(adult, timing):
    with pytest.raises(ValueError):
        solve_forces(adult, timing, SINGLE, np.zeros(23), timing.T_ss + 0.1)


@pytest.mark.parametrize("solve", [solve_forces, map_forces])
@pytest.mark.parametrize("phase", [SINGLE, DOUBLE])
@pytest.mark.parametrize("t", [np.nan, [0.1, np.nan]])
def test_forces_refuse_a_nan_time(adult, solve, phase, t):
    """A NaN phase time is refused by name, not turned into NaN wrenches."""
    q = random_states(np.size(t), seed=32).squeeze()
    with pytest.raises(ValueError, match=f"t=nan outside the {phase}-support phase"):
        solve(adult, StrideTiming(0.1, 0.4), phase, q, t)


def _random_bodies_and_timings(adult, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        body = scaled_body(adult, rng.uniform(50.0, 90.0), rng.uniform(0.85, 1.15))
        yield body, StrideTiming(rng.uniform(0.05, 0.4), rng.uniform(0.2, 0.8)), rng


def test_scaled_phase_ode_matches_solve_over_random_bodies(adult):
    """The per-body unit-time operators, rescaled to each timing, give the
    accelerations of a direct solve at random interior times."""
    for body, tm, rng in _random_bodies_and_timings(adult, 12, seed=31):
        for ode, phase, T in ((assemble_single_support(body, tm), SINGLE, tm.T_ss),
                              (assemble_double_support(body, tm), DOUBLE, tm.T_ds)):
            assert ode.duration == T
            for _ in range(4):
                q = rng.uniform(-1, 1, 23)
                q[22] = rng.choice([-1.0, 1.0])
                t = rng.uniform(0.0, T)
                a = solve_forces(body, tm, phase, q, t).accel
                assert np.max(np.abs(ode.accel(q, t) - a)) <= 1e-12 * np.max(np.abs(a))


def test_phase_ode_scales_with_phase_duration(adult):
    """K0 is the same and K1 * T_phase is the same at two timings of one body."""
    t1, t2 = StrideTiming(0.3, 0.56), StrideTiming(0.17, 0.91)
    for assemble, T in ((assemble_single_support, lambda tm: tm.T_ss),
                        (assemble_double_support, lambda tm: tm.T_ds)):
        a, b = assemble(adult, t1), assemble(adult, t2)
        assert np.array_equal(a.K0, b.K0)
        assert np.max(np.abs(a.K1)) > 0.0
        np.testing.assert_allclose(a.K1 * T(t1), b.K1 * T(t2), rtol=1e-14, atol=0.0)


def test_extraction_runs_once_per_body_and_phase(adult):
    """Stride maps at several timings of a new body probe each phase once,
    and build its template of each phase once; the later timings reuse the
    templates and reach no phase ODE."""
    from linwalk.transition import phase_template, stride_maps

    body = scaled_body(adult, 63.2871, 1.0437)
    before, templates = _extract_ode.cache_info(), phase_template.cache_info()
    for T_ds, T_ss in ((0.1, 0.4), (0.2, 0.5), (0.15, 0.65), (0.3, 0.3)):
        stride_maps(body, StrideTiming(T_ds, T_ss))
    after = _extract_ode.cache_info()
    assert after.misses - before.misses == 2 and after.hits == before.hits
    after = phase_template.cache_info()
    assert after.misses - templates.misses == 2
    assert after.hits - templates.hits == 6


def test_elimination_index_arrays_are_the_set_differences():
    """The double-support elimination's kept unknowns and rows, listed at
    import without `np.setdiff1d`, are the complements it would give."""
    import linwalk.dynamics as dynamics
    for part, whole, rest in ((dynamics._V_COLS, 28, dynamics._OTHER_COLS),
                              (dynamics._KEPT_ROWS, 24, dynamics._ELIM_ROWS)):
        expected = np.setdiff1d(np.arange(whole), part)
        assert rest.dtype == expected.dtype and np.array_equal(rest, expected)


def test_extraction_is_one_stacked_solve_per_phase(adult, monkeypatch):
    """Probing a new body's phase ODE assembles one balance matrix per
    distinct state, 8 in single support and 14 in double support, and
    solves its 60 probes (the zero state and the 19 entries the balance
    laws read, at three s) in one stacked call.  Double support first
    eliminates the 14 in one more (the zero, point and side states, and the
    point states at d = 1 for the yaw split); building the wrench map
    assembles and eliminates nothing."""
    import linwalk.dynamics as dynamics
    calls = []

    def counted(name, real, stacked):
        def call(*args):
            calls.append((name, len(args[stacked])))     # the stack size
            return real(*args)
        return call

    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve, 0))
    for name, stacked in (("_assemble", 2), ("_rhs", 2), ("_transfer_jacobian", 0)):
        monkeypatch.setattr(dynamics, name, counted(name, getattr(dynamics, name), stacked))
    body = scaled_body(adult, 71.3917, 0.9613)
    _extract_ode.__wrapped__(body, SINGLE)
    assert calls == [("_assemble", 8), ("_rhs", 60), ("solve", 60)]
    calls.clear()
    _extract_ode.__wrapped__(body, DOUBLE)
    assert calls == [("_assemble", 14), ("_transfer_jacobian", 14), ("solve", 14),
                     ("_rhs", 60), ("solve", 60)]


def _reference_extraction(body, phase):
    """Extraction as one assembly and, in double support, one elimination
    per probe: each of the 72 probes, the zero state and the 23 basis
    vectors at s = 0, 1/2 and 1, solves its own balance system
    (`solve_forces`), and the double-support yaw split assembles and
    eliminates 7 more states, the zero state and the six point states at
    d = 1.  Returns the unit ODE with its wrench map."""
    probes = np.tile(np.vstack([np.zeros(Q_DIM), np.eye(Q_DIM)]), (3, 1))
    forces = solve_forces(body, UNIT_TIMING, phase, probes,
                          np.repeat([0.0, 0.5, 1.0], Q_DIM + 1))
    acc = forces.accel.reshape(3, Q_DIM + 1, 4)
    K = (acc[:, 1:] - acc[:, :1]).transpose(0, 2, 1)
    K0, K1 = K[0], K[2] - K[0]
    K1[np.abs(K1) < 1e-12 * max(np.max(np.abs(K1)), 1e-300)] = 0.0
    K1[:, [i for i in range(Q_DIM) if i not in _CONST_COLS[phase]]] = 0.0
    yaw = None
    if phase == DOUBLE:
        at_side = probes[[0] + [1 + i for i in _POINT_COLS]].copy()
        at_side[:, ID_SIDE] = 1.0
        yaw = _transfer_jacobian(_assemble(body, DOUBLE, at_side))[:, _YAW_ROW, _YAW_COLS]
    balance = [p * (Q_DIM + 1) + i for p in range(3) for i in [0] + [1 + c for c in _BALANCE_COLS]]
    return PhaseODE(phase, 1.0, K0, K1, _wrench_map(phase, forces[balance], yaw))


def _reference_template(ode):
    """The closed-form template of a unit ODE built axis by axis and
    eigenvalue by eigenvalue, with no structure checks: (reach, den, root,
    series, Z)."""
    moving = (0, 2) if ode.phase == SINGLE else (2,)
    n = len(moving)
    p = [i // 2 for i in moving]
    v = [i + 2 for i in p]
    lams, Zs = [], []
    for axis, cols in enumerate(_AXIS_COLS):
        pos = [axis + i for i in moving]
        K0, K1 = ode.K0[pos], ode.K1[pos]
        forcing = K0[:, cols]
        forcing[:, p] = 0.0
        lam, P = _spectrum(K0[:, pos], ode.phase)
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
    lam = np.array(lams)[:, None]
    den = np.where(lam == 0.0, 1.0, lam)
    i = (_DEGREES[:, None] - np.arange(1.0, 4.0)[:, None, None, None]) / 2
    term = (i >= 0.0) & (i % 1.0 == 0.0)
    inv_factorial = np.array([1.0 / math.factorial(d) for d in range(len(_DEGREES))])
    series = np.where(term, lam ** np.where(term, i, 0.0) * inv_factorial[:, None], 0.0)
    return (np.where(lam == 0.0, np.inf, np.sqrt(0.5 / np.abs(den))), den,
            np.sqrt(den.astype(complex)), series, np.array(Zs))


def _wide_bodies(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m2, z1 = rng.uniform(0.2, 40.0), rng.uniform(0.3, 1.5)
        yield BodyParams(m1=rng.uniform(2.0, 150.0), m2=m2, m3=m2, z1=z1,
                         z2=rng.uniform(0.0, 1.0) * z1, z3=rng.uniform(0.0, 1.0),
                         w=rng.uniform(0.0, 0.5))


def test_shared_elimination_equals_one_elimination_per_probe(adult, kid):
    """Probing 20 states against one balance matrix per distinct state, and
    eliminating once per distinct matrix, gives, bit for bit, the K0, K1,
    wrench table and yaw split of one assembly and elimination per probe
    over all 24 probe states, in both phases, on the adult, the kid and 30
    seeded wide-drawn bodies; and the phase templates equal those built
    from the reference ODEs axis by axis and eigenvalue by eigenvalue."""
    from linwalk.transition import phase_template
    for body in [adult, kid, *_wide_bodies(30, seed=33)]:
        for phase in (SINGLE, DOUBLE):
            ode = _extract_ode.__wrapped__(body, phase)
            ref = _reference_extraction(body, phase)
            assert np.array_equal(ode.K0, ref.K0) and np.array_equal(ode.K1, ref.K1), body
            assert np.array_equal(ode.wrenches.table, ref.wrenches.table), body
            if phase == DOUBLE:
                assert np.array_equal(ode.wrenches.yaw, ref.wrenches.yaw), body
            else:
                assert ode.wrenches.yaw is None
            tpl = phase_template.__wrapped__(body, phase)
            got = (tpl.reach, tpl.den, tpl.root, tpl.series, tpl.Z)
            for name, a, b in zip(("reach", "den", "root", "series", "Z"), got,
                                  _reference_template(ref)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (body, phase, name)


def test_velocity_probes_pose_the_zero_state_system(adult, kid):
    """The balance laws read no velocity: at s = 0, 1/2 and 1 each velocity
    basis state's `solve_forces` solution equals the zero state's, bit for
    bit, in every field, so their K columns are exact zeros and extraction
    need not probe them."""
    states = np.vstack([np.zeros(Q_DIM), np.eye(Q_DIM)[IV_X2X:IV_X1Y + 1]])
    for body in [adult, kid, *_wide_bodies(8, seed=34)]:
        for phase in (SINGLE, DOUBLE):
            for s in (0.0, 0.5, 1.0):
                F = solve_forces(body, UNIT_TIMING, phase, states, np.full(len(states), s))
                for f in fields(ForceSolution):
                    v = getattr(F, f.name)
                    assert all(row.tobytes() == v[0].tobytes() for row in v[1:]), (
                        body, phase, s, f.name)


def test_degenerate_body_raises_on_every_call(timing):
    """Failed extractions are not cached: each call probes again and raises."""
    from linwalk.transition import stride_maps

    degenerate = BodyParams(m1=51.3, m2=12.15, m3=12.15,
                            z1=0.89, z2=0.0, z3=0.36, w=0.2)
    before = _extract_ode.cache_info()
    for _ in range(2):
        with pytest.raises(DegenerateModelError):
            assemble_single_support(degenerate, timing)
        with pytest.raises(DegenerateModelError):
            stride_maps(degenerate, timing)
    after = _extract_ode.cache_info()
    # the double-support extraction succeeds once and is then reused
    assert after.misses - before.misses == 4 + 1
