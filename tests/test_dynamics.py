"""Constraint assembly and elimination, cross-checked against the
independent algebraic reduction in the oracle module."""
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import random_states
from linwalk.dynamics import (
    DOUBLE, SINGLE, DegenerateModelError, ForceSolution, _extract_ode,
    assemble_double_support, assemble_single_support, map_forces, point_accel,
    solve_forces,
)
from linwalk.model import (
    BodyParams, StrideTiming, default_params, geometry, scaled_body,
)
from linwalk.oracle import accel_double, accel_single

FORCES_REF = Path(__file__).parent / "data" / "forces_adult.json"


def phase_cases(timing):
    return ((SINGLE, timing.T_ss, accel_single),
            (DOUBLE, timing.T_ds, accel_double))


def test_equilibrium_zero_state(timing):
    """No offsets, no inputs, no side: the assembled system is at rest."""
    p0 = BodyParams(m1=45.7, m2=12.15, m3=12.15, z1=0.89, z2=0.32, z3=0.36, w=0.0)
    for phase, T, _ in phase_cases(timing):
        a = point_accel(p0, timing, phase, np.zeros(23), 0.4 * T)
        assert np.max(np.abs(a)) < 1e-12


def test_accelerations_match_algebraic_reduction(adult, timing):
    """Production elimination vs the hand-reduced closed forms, 100 samples
    per phase, to 1e-10 relative."""
    Q = random_states(100, seed=11)
    rng = np.random.default_rng(12)
    for phase, T, reduced in phase_cases(timing):
        for q in Q:
            t = rng.uniform(0.0, T)
            a = point_accel(adult, timing, phase, q, t)
            b = reduced(adult, T, q, t)
            assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_unit_hip_torque_case(adult, timing):
    """Pure sagittal constant hip torque at t = 0.1 s, both paths agree."""
    q = np.zeros(23)
    q[10] = 1.0  # M_hy
    a = point_accel(adult, timing, SINGLE, q, 0.1)
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
            lhs = point_accel(adult, timing, phase, q1 + q2, t)
            rhs = (point_accel(adult, timing, phase, q1, t)
                   + point_accel(adult, timing, phase, q2, t))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_time_affinity(adult, timing):
    """At fixed state the accelerations are exactly affine in phase time."""
    rng = np.random.default_rng(3)
    for phase, T, _ in phase_cases(timing):
        q = rng.uniform(-1, 1, 23)
        ts = np.linspace(0.0, T, 10)
        acc = np.array([point_accel(adult, timing, phase, q, t) for t in ts])
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
            a = point_accel(adult, timing, phase, q, t)
            am = point_accel(adult, timing, phase, qm, t)
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
        assert ode.unit is unit and ode.wrenches is None
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
    assert ss.A.shape == (4, 4)
    # sagittal/lateral decoupling of the state block
    for ode in (ss, ds):
        for i in range(4):
            for j in range(4):
                if (i - j) % 2:
                    assert abs(ode.A[i, j]) <= 1e-12
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
            a = point_accel(adult, timing, phase, q, t)
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
                a = point_accel(body, tm, phase, q, t)
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
    """Stride maps at several timings of a new body probe each phase once."""
    from linwalk.transition import stride_maps

    body = scaled_body(adult, 63.2871, 1.0437)
    before = _extract_ode.cache_info()
    for T_ds, T_ss in ((0.1, 0.4), (0.2, 0.5), (0.15, 0.65), (0.3, 0.3)):
        stride_maps(body, StrideTiming(T_ds, T_ss))
    after = _extract_ode.cache_info()
    assert after.misses - before.misses == 2
    assert after.hits - before.hits == 6


def test_extraction_is_one_stacked_solve_per_phase(adult, monkeypatch):
    """Probing a new body's phase ODE solves all its probes in one call."""
    import linwalk.dynamics as dynamics
    calls = []
    real = dynamics.solve_forces

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(dynamics, "solve_forces", counted)
    body = scaled_body(adult, 71.3917, 0.9613)
    for phase in (SINGLE, DOUBLE):
        _extract_ode.__wrapped__(body, phase)
    assert calls == [SINGLE, DOUBLE]


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
