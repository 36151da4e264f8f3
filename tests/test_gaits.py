"""Periodicity system, relaxed timing, null spaces, and gait programs."""
import numpy as np
import pytest

from linwalk import gaits
from linwalk.analysis import TdsPolicy
from linwalk.dynamics import SINGLE, solve_forces
from linwalk.layout import Q_NAMES, selection_matrices
from linwalk.model import StrideTiming, default_params, scaled_body
from linwalk.gaits import (
    GaitSolution, InfeasibleConstraintsError, M_MAT, NoRelaxTimeError,
    NullSpaceDimensionError, O_MAT, R0_COLS, R1_COLS, SCENARIOS, ScenarioSpec, T_MAT,
    build_periodicity, cop_ramp_torque, find_relax_time, lift_reduced,
    null_basis, relax_scan, scenario, scenario_model, singular_spectrum,
    solve_eqp, synthesize_gait,
)
from linwalk.transition import stride_maps

SIIIC = StrideTiming(T_ds=0.1, T_ss=0.6028)


@pytest.fixture(scope="module")
def relax_03(adult):
    return find_relax_time(adult, 0.3)


def test_exchange_and_mirror_matrices():
    assert np.array_equal(O_MAT, np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]))
    M_expect = np.array([
        [-1, 0, 1, 0, 0, 0, 0, 0],
        [0, -1, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0]], dtype=float)
    assert np.array_equal(M_MAT, M_expect)
    # T exchanges the two contact points and keeps pelvis state
    assert np.array_equal(T_MAT @ T_MAT, np.eye(8))
    v = np.arange(1.0, 9.0)
    assert np.array_equal(T_MAT @ v, [7, 8, 3, 4, 5, 6, 1, 2])


def test_hand_built_mirror_pair_has_zero_residual():
    """A state and its exactly exchanged/mirrored image satisfy the
    symmetry comparison identically."""
    rng = np.random.default_rng(60)
    v0 = rng.normal(size=8)
    rel = O_MAT @ (M_MAT @ v0)
    w = np.zeros(8)
    w[0:2] = -rel[0:2]      # X2' with pelvis at the origin
    w[6:8] = -rel[2:4]      # P'
    w[4:6] = rel[4:6]       # pelvis velocity
    v_end = T_MAT.T @ w
    residual = -M_MAT @ v0 + O_MAT @ M_MAT @ T_MAT @ v_end
    assert np.max(np.abs(residual)) < 1e-12


def test_system_shapes(adult, timing):
    system = build_periodicity(adult, timing)
    assert system.R_full.shape == (8, 23)
    assert system.R0.shape == (8, 15)
    assert system.R1.shape == (8, 7)
    assert len(R0_COLS) == 15 and len(R1_COLS) == 7


@pytest.mark.parametrize("base", ["adult", "kid"])
def test_periodicity_rows_match_two_product_form(base):
    """R_full is the symmetry rows -M S_XP + O M T S_XP H over the
    foot-velocity rows S_Xdot2 H, bit for bit, on random bodies at short
    and human double-support shares; R0, R1 and the sagittal block of the
    relax minor are column reads of it."""
    sel = selection_matrices()
    rng = np.random.default_rng(72)
    base = default_params(base)
    for _ in range(3):
        body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                           rng.uniform(0.9, 1.1))
        speed, freq = rng.uniform(0.8, 1.8), rng.uniform(0.8, 2.5)
        for ratio in (0.005, 0.02, TdsPolicy("human").ratio_at(speed)):
            system = build_periodicity(
                body, StrideTiming(ratio / freq, (1.0 - ratio) / freq))
            H = system.maps.H_stride
            ref = np.vstack([-M_MAT @ sel.S_XP + O_MAT @ M_MAT @ T_MAT @ sel.S_XP @ H,
                             sel.S_Xdot2 @ H])
            assert np.array_equal(system.R_full, ref), ratio
            assert np.array_equal(system.R0, ref[:, list(R0_COLS)])
            assert np.array_equal(system.R1, ref[:, list(R1_COLS)])
            # symmetry rows 1/3/5 and the sagittal foot-velocity row
            # against the X2x, X1x and vX1x columns
            assert np.array_equal(system.R1[gaits._SAG],
                                  ref[np.ix_([0, 2, 4, 6], [0, 2, 6])])


def test_spectrum_descending_and_scale_invariant(adult, timing):
    system = build_periodicity(adult, timing)
    s = singular_spectrum(system, "R0")
    assert np.all(np.diff(s) <= 0)
    # rescaling the torque columns cannot change the zero/nonzero split
    R0s = system.R0.copy()
    R0s[:, 6:14] *= 1e3
    s2 = np.linalg.svd(R0s, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    rank2 = int(np.sum(s2 > 1e-9 * s2[0]))
    assert rank == rank2 == 8


def test_seven_null_directions_at_any_timing(adult):
    for T in (0.7, 0.9, 1.1):
        system = build_periodicity(adult, StrideTiming(0.3, T - 0.3))
        V = null_basis(system, "R0")
        assert V.shape == (15, 7)
        assert np.allclose(V.T @ V, np.eye(7), atol=1e-12)


def test_relax_time_adult(adult, relax_03):
    """The torque-free forward gait appears around 0.86 s of stride time."""
    assert 0.84 <= relax_03 <= 0.88


def test_relax_time_kid(kid):
    T = find_relax_time(kid, 0.3, bracket=(0.35, 1.5))
    assert 0.35 < T < 1.5


def test_relax_smallest_two_singular_values_vanish(adult, relax_03):
    system = build_periodicity(adult, StrideTiming(0.3, relax_03 - 0.3))
    s2 = singular_spectrum(system, "R1") ** 2
    assert s2[-1] <= 1e-9 * s2[0]
    assert s2[-2] <= 1e-9 * s2[0]


def test_away_from_relax_only_lateral_zero(adult):
    """Far from the relaxed time the sagittal channel is full rank; only
    the lateral step-in-place direction remains."""
    system = build_periodicity(adult, StrideTiming(0.3, 1.4 - 0.3))
    s = singular_spectrum(system, "R1")
    assert s[-1] <= 1e-9 * s[0]            # lateral sway, always present
    assert s[-2] > 1e-3 * s[0]             # no sagittal solution
    V = null_basis(system, "R1")
    assert V.shape[1] == 1
    sag = np.linalg.norm(V[[0, 2, 4], 0])
    assert sag < 1e-9


def test_relax_null_space_splits_by_parity(adult, relax_03):
    """The 2-d torque-free null space decomposes into one sagittal and one
    lateral direction (the basis itself may come back rotated)."""
    system = build_periodicity(adult, StrideTiming(0.3, relax_03 - 0.3))
    V = null_basis(system, "R1")
    assert V.shape[1] == 2
    # columns of R1: X2x X2y X1x X1y vX1x vX1y d -> sagittal rows 0,2,4
    sag = V[[0, 2, 4], :]
    lat = V[[1, 3, 5, 6], :]
    s_sag = np.linalg.svd(sag, compute_uv=False)
    s_lat = np.linalg.svd(lat, compute_uv=False)
    assert s_sag[0] > 0.1 and s_sag[1] < 1e-6      # one sagittal direction
    assert s_lat[0] > 0.1 and s_lat[1] < 1e-6      # one lateral direction


def test_no_relax_time_in_bad_bracket(adult):
    with pytest.raises(NoRelaxTimeError):
        find_relax_time(adult, 0.3, bracket=(1.0, 1.2))


@pytest.mark.parametrize("bracket", [(0.4, np.inf), (np.nan, 1.5)])
def test_relax_rejects_non_finite_bracket(adult, bracket):
    for solve in (relax_scan, find_relax_time):
        with pytest.raises(ValueError, match="bracket ends must be finite"):
            solve(adult, 0.3, bracket)


@pytest.mark.parametrize("n", [0, 1])
def test_relax_scan_rejects_fewer_than_two_points(adult, n):
    with pytest.raises(ValueError, match="n must be at least 2"):
        relax_scan(adult, 0.3, (0.4, 1.5), n=n)


def test_find_relax_time_rejects_fewer_than_two_scan_points(adult):
    with pytest.raises(ValueError, match="scan_points must be at least 2"):
        find_relax_time(adult, 0.3, scan_points=1)


def test_cold_relax_scan_takes_one_exponential_per_stride_time(adult, count_expm):
    """T_ds is fixed over the scan, so the double-support exponential is
    taken once: 81 single-support maps and one double-support map."""
    relax_scan(scaled_body(adult, 68.2291, 1.0437), 0.2, (0.4, 1.5), n=81)
    assert len(count_expm) == 82


def test_find_relax_time_takes_one_exponential_per_miss(adult, count_expm):
    """Once the body's double support at T_ds is live, each stride map the
    scan and the Brent polish build takes only its single-support map."""
    body = scaled_body(adult, 71.8443, 0.9917)
    live = stride_maps(body, StrideTiming(T_ds=0.25, T_ss=0.5))
    count_expm.clear()
    misses = stride_maps.cache_info().misses
    find_relax_time(body, live.timing.T_ds)
    assert len(count_expm) == stride_maps.cache_info().misses - misses > 0


def test_null_basis_dimension_error(adult, timing):
    system = build_periodicity(adult, timing)
    bad = system.__class__(**{**system.__dict__, "R0": np.zeros((8, 15))})
    with pytest.raises(NullSpaceDimensionError) as err:
        null_basis(bad, "R0")
    assert err.value.found == 15 and err.value.expected == 7


def test_lift_reduced_layout(adult, timing):
    system = build_periodicity(adult, timing)
    V = lift_reduced(null_basis(system, "R0"), "R0")
    assert V.shape == (23, 7)
    assert np.max(np.abs(V[4:6])) == 0.0       # foot velocity
    assert np.max(np.abs(V[8:10])) == 0.0      # contact position
    assert np.max(np.abs(V[18:22])) == 0.0     # disturbances
    # a 1-D vector and a transposed block (one reduced vector a row)
    # against a per-column loop
    rng = np.random.default_rng(73)
    block = rng.normal(size=(7, 15))
    for which, cols, given, columns in (
            ("R0", R0_COLS, block[0], block[0][:, None]),
            ("R1", R1_COLS, block[1, :7], block[1, :7][:, None]),
            ("R0", R0_COLS, block, block.T)):
        loop = np.zeros((23, columns.shape[1]))
        for k, c in enumerate(cols):
            loop[c] = columns[k]
        assert np.array_equal(lift_reduced(given, which), loop), (which, given.shape)


def test_cop_ramp_torque_value(adult):
    assert cop_ramp_torque(adult, 0.24) == pytest.approx(164.808, abs=1e-9)
    assert cop_ramp_torque(adult, 0.0) == 0.0
    with pytest.raises(ValueError):
        cop_ramp_torque(adult, -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gait_inputs_rejected(adult, timing, bad):
    with pytest.raises(ValueError, match="foot_length"):
        cop_ramp_torque(adult, bad)
    with pytest.raises(ValueError, match="foot_length"):
        synthesize_gait(adult, timing, 1.0, "cop-modulated", foot_length=bad)
    with pytest.raises(ValueError, match="v_des"):
        synthesize_gait(adult, timing, bad)


def test_pseudo_passive_recovered(adult, relax_03):
    gait = synthesize_gait(adult, StrideTiming(0.3, relax_03 - 0.3), 1.0,
                           "pseudo-passive")
    assert gait.diagnostics["torque_norm"] <= 1e-6
    assert gait.diagnostics["periodicity_residual"] <= 1e-7
    assert gait.diagnostics["end_foot_speed"] <= 1e-8


def test_zero_speed_steps_in_place(adult, timing):
    gait = synthesize_gait(adult, timing, 0.0)
    assert abs(gait.Q0[0]) <= 1e-10            # swing foot starts under stance


def test_speed_scaling_of_sagittal_solution(adult, relax_03):
    """At the relaxed time the sagittal solution scales with speed while
    staying torque-free; the lateral sway is speed-independent."""
    tm = StrideTiming(0.3, relax_03 - 0.3)
    g1 = synthesize_gait(adult, tm, 0.7, "pseudo-passive")
    g2 = synthesize_gait(adult, tm, 1.4, "pseudo-passive")
    assert g2.diagnostics["torque_norm"] <= 1e-6
    sag = [0, 2, 6]
    lat = [1, 3, 7]
    assert np.allclose(g2.Q0[sag], 2.0 * g1.Q0[sag], atol=1e-8)
    assert np.allclose(g2.Q0[lat], g1.Q0[lat], atol=1e-8)


# entries that flip with the support side: lateral (y) positions, velocities
# and forces, x-axis moments and their ramps, and d itself
LATERAL = [i for i, name in enumerate(Q_NAMES)
           if name == "d" or name.endswith("x" if "M" in name else "y")]


def test_side_flip_mirrors_lateral(adult, kid, timing):
    """d -> -d negates exactly the lateral entries of every scenario's
    gait and leaves the sagittal ones: the adult at the reference timing,
    then seeded random bodies, timings and speeds."""
    rng = np.random.default_rng(66)
    cases = [(adult, timing, 1.0)]
    for k in range(4):
        base = (adult, kid)[k % 2]
        cases.append((scaled_body(base, base.total_mass * rng.uniform(0.75, 1.25),
                                  rng.uniform(0.85, 1.15)),
                      StrideTiming(rng.uniform(0.05, 0.25), rng.uniform(0.4, 0.8)),
                      rng.uniform(0.5, 2.0)))
    sign = np.ones(len(Q_NAMES))
    sign[LATERAL] = -1.0
    for body, tm, speed in cases:
        for tag in SCENARIOS:
            pos = synthesize_gait(body, tm, speed, tag, d_sign=1.0).Q0
            neg = synthesize_gait(body, tm, speed, tag, d_sign=-1.0).Q0
            assert pos[-1] == pytest.approx(1.0)
            assert np.max(np.abs(neg - sign * pos)) <= 1e-12 * np.max(np.abs(pos)), (
                tag, body, tm)


def test_nesting_all_torques_zero_feasible_at_relax(adult, relax_03):
    """Constraining all eight torque entries to zero at the relaxed time
    still leaves a valid gait (the actuation block loses only 5 ranks)."""
    tm = StrideTiming(0.3, relax_03 - 0.3)
    system = build_periodicity(adult, tm)
    V = lift_reduced(null_basis(system, "R0"), "R0")
    sel = selection_matrices()
    alpha = solve_eqp(sel.S_U @ V, [
        ("support-side", sel.S_d @ V, np.array([1.0])),
        ("speed", sel.S_X2x @ V, np.array([-1.0 * tm.T_stride])),
        ("all-torques", sel.S_U @ V, np.zeros(8)),
    ])
    Q0 = V @ alpha
    assert np.max(np.abs(sel.S_U @ Q0)) <= 1e-8
    assert (sel.S_X2x @ Q0)[0] == pytest.approx(-tm.T_stride, abs=1e-8)


def test_stage_walk_kills_lateral_bounce(adult):
    gait = synthesize_gait(adult, SIIIC, 1.0, "stage-walk")
    assert gait.diagnostics["max_lateral_com_speed"] <= 1e-6
    assert gait.diagnostics["end_foot_speed"] <= 1e-8


def test_stage_walk_objective_takes_no_exponential(adult, count_expm):
    """On warm maps the lateral objective reads the flow pieces of the
    null-space basis: no exponential at all."""
    synthesize_gait(adult, SIIIC, 1.0, "stage-walk")
    count_expm.clear()
    synthesize_gait(adult, SIIIC, 1.0, "stage-walk")
    assert len(count_expm) == 0


def test_cop_modulated_ramp_and_cop_offset(adult):
    gait = synthesize_gait(adult, SIIIC, 1.0, "cop-modulated", foot_length=0.24)
    tau = cop_ramp_torque(adult, 0.24)
    assert gait.Q0[16] == pytest.approx(-tau, abs=1e-8)   # ramp ankle sagittal
    assert np.max(np.abs(gait.Q0[[12, 13, 17]])) <= 1e-8  # others zero
    # reconstructed stance CoP (-M_ay / Fz) walks out to the foot length by
    # the end of single support
    maps = stride_maps(adult, SIIIC)
    Q_end = maps.H_stride @ gait.Q0
    F = solve_forces(adult, SIIIC, SINGLE, Q_end, SIIIC.T_ss)
    assert -F.M3[1] / F.F3[2] == pytest.approx(0.24, abs=1e-9)


def test_long_double_support_timing_and_ankles(adult):
    spec = scenario("long-double-support")
    params2, timing2 = scenario_model(adult, SIIIC, spec)
    assert params2 == adult
    assert timing2.T_ds == pytest.approx(0.2)
    assert timing2.T_stride == pytest.approx(SIIIC.T_stride)
    gait = synthesize_gait(adult, SIIIC, 1.0, "long-double-support")
    assert gait.timing.T_ds == pytest.approx(0.2)
    assert np.max(np.abs(gait.Q0[[12, 13, 16, 17]])) <= 1e-8


def test_lip_like_parameter_surgery(adult):
    spec = scenario("lip-like")
    params2, _ = scenario_model(adult, SIIIC, spec)
    assert params2.total_mass == pytest.approx(adult.total_mass)
    assert params2.m2 == pytest.approx(0.05 * adult.m2)
    assert params2.z2 == pytest.approx(0.1 * adult.z2)
    assert params2.z3 == pytest.approx(0.1 * adult.z3)
    gait = synthesize_gait(adult, SIIIC, 1.0, "lip-like")
    assert gait.params.m1 == pytest.approx(params2.m1)
    assert gait.diagnostics["end_foot_speed"] <= 1e-8


def test_every_scenario_closes_periodically(adult):
    for tag in ("minimal-torque", "long-double-support", "stage-walk",
                "cop-modulated", "lip-like"):
        gait = synthesize_gait(adult, SIIIC, 1.0, tag)
        assert gait.diagnostics["periodicity_residual"] <= 1e-7, tag
        assert gait.diagnostics["end_foot_speed"] <= 1e-8, tag


def test_gaits_close_periodically_over_random_bodies(adult, kid):
    """Minimal-torque gaits of seeded random bodies, timings, speeds and
    sides close periodically with the swing foot at rest."""
    rng = np.random.default_rng(54)
    for k in range(10):
        base = (adult, kid)[k % 2]
        body = scaled_body(base, base.total_mass * rng.uniform(0.75, 1.25),
                           rng.uniform(0.85, 1.15))
        tm = StrideTiming(rng.uniform(0.05, 0.4), rng.uniform(0.2, 0.8))
        gait = synthesize_gait(body, tm, rng.uniform(0.5, 2.0),
                               d_sign=rng.choice([-1.0, 1.0]))
        assert gait.diagnostics["periodicity_residual"] <= 1e-7, (body, tm)
        assert gait.diagnostics["end_foot_speed"] <= 1e-8, (body, tm)


def test_infeasible_constraints_report_block(adult):
    spec = ScenarioSpec(tag="contradiction", zero_ankle=True,
                        cop_ramp=cop_ramp_torque(adult, 0.24))
    with pytest.raises(InfeasibleConstraintsError) as err:
        synthesize_gait(adult, SIIIC, 1.0, spec)
    assert any(b in ("ankle-torque", "cop-ramp") for b in err.value.blocks)


def test_unknown_scenario_rejected(adult):
    with pytest.raises(ValueError):
        scenario("moonwalk")


def test_gait_record_roundtrip(adult, timing):
    gait = synthesize_gait(adult, timing, 1.0)
    text = gait.to_record()
    back = GaitSolution.from_record(text)
    assert back.scenario == gait.scenario
    assert back.timing == gait.timing
    assert np.allclose(back.Q0, gait.Q0)
    assert np.allclose(back.alpha, gait.alpha)
    assert back.params == gait.params
