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
    NullSpaceDimensionError, O_MAT, R0_COLS, R1_COLS, SCENARIOS, T_MAT,
    build_periodicity, cop_ramp_torque, find_relax_time, null_basis,
    relax_scan, scenario_foot_length, scenario_model, singular_spectrum,
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
    assert system.R0.shape == (8, 15)
    assert system.R1.shape == (8, 7)
    assert len(R0_COLS) == 15 and len(R1_COLS) == 7


@pytest.mark.parametrize("base", ["adult", "kid"])
def test_periodicity_rows_match_two_product_form(base):
    """R0 and R1, and the sagittal block of the relax minor, are column
    reads of the symmetry rows -M S_XP + O M T S_XP H over the
    foot-velocity rows S_Xdot2 H, bit for bit, on random bodies at short
    and human double-support shares."""
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
            assert np.array_equal(system.R0, ref[:, list(R0_COLS)]), ratio
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
        assert V.shape == (23, 7)
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
    assert V.shape == (23, 1)
    sag = np.linalg.norm(V[[0, 2, 6], 0])
    assert sag < 1e-9


def test_relax_null_space_splits_by_parity(adult, relax_03):
    """The 2-d torque-free null space decomposes into one sagittal and one
    lateral direction (the basis itself may come back rotated)."""
    system = build_periodicity(adult, StrideTiming(0.3, relax_03 - 0.3))
    V = null_basis(system, "R1")
    assert V.shape == (23, 2)
    # sagittal X2x X1x vX1x are Q rows 0, 2, 6; lateral X2y X1y vX1y d are
    # rows 1, 3, 7, 22
    sag = V[[0, 2, 6], :]
    lat = V[[1, 3, 7, 22], :]
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


def test_relax_bracket_up_to_two_seconds_wide(adult):
    """A 2 s bracket still finds the default bracket's root; a wider one,
    whose even grid points could step over two roots at once, is refused
    by its width: on (0.4, 50) the grid steps 1.24 s, past the roots at
    0.864 s and 1.385 s."""
    assert abs(find_relax_time(adult, 0.3, (0.4, 2.4))
               - find_relax_time(adult, 0.3)) <= 1e-9
    for solve in (relax_scan, find_relax_time):
        with pytest.raises(ValueError, match="49.6 s wide, more than 2 s"):
            solve(adult, 0.3, (0.4, 50.0))


@pytest.mark.parametrize("T_ds", [-0.1, 0.0, np.nan])
def test_relax_rejects_bad_double_support_time(adult, T_ds):
    """The relax scan and solve build no `StrideTiming`, so the batched
    maps check the durations themselves."""
    for solve in (relax_scan, find_relax_time):
        with pytest.raises(ValueError, match="durations must be finite and positive"):
            solve(adult, T_ds, (0.4, 1.5))


def _relax_time_all_roots(params, T_ds, bracket):
    """Reference: evaluate the sagittal minor of the closed-form R1 at all
    41 points of the bracket grid, polish every sign change or zero with
    scipy's brentq, and return the smallest root whose R1 drops to rank 5.
    As in the solve, the minor at a grid point is the grid's batched value."""
    from scipy.optimize import brentq
    R1 = gaits._relax_R1(params, T_ds)
    ts = np.linspace(max(bracket[0], T_ds + 1e-3), bracket[1], 41)
    vals = np.linalg.det(R1(ts)[:, (2, 4, 6)][..., (0, 2, 4)])
    grid = dict(zip(ts.tolist(), vals.tolist()))

    def minor(T):
        if T in grid:
            return grid[T]
        return float(np.linalg.det(R1(np.array([T]))[0][np.ix_((2, 4, 6), (0, 2, 4))]))

    roots = []
    for i in range(len(ts) - 1):
        if np.sign(vals[i]) * np.sign(vals[i + 1]) <= 0:
            T = float(brentq(minor, float(ts[i]), float(ts[i + 1]), xtol=1e-10))
            s2 = np.linalg.svd(R1(np.array([T]))[0], compute_uv=False) ** 2
            if s2[-2] <= 1e-9 * s2[0]:
                roots.append(T)
    return min(roots)


def test_relax_time_is_smallest_valid_root_of_all_sign_changes(adult, kid):
    """The one-pass walk over the batched grid, polished by the stdlib
    Brent port, returns bit for bit the smallest valid root over every sign
    change of the grid, each polished by scipy, on 60 seeded bodies and
    brackets: both CLI brackets at each drawn T_ds."""
    rng = np.random.default_rng(18)
    cases = 0
    for base in (adult, kid):
        for _ in range(15):
            body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                               rng.uniform(0.9, 1.1))
            T_ds = float(rng.uniform(0.1, 0.35))
            for bracket in ((0.4, 1.5), (T_ds + 0.05, 1.6)):
                assert (find_relax_time(body, T_ds, bracket)
                        == _relax_time_all_roots(body, T_ds, bracket))
                cases += 1
    assert cases == 60


def _parent_relax(params, T_ds, bracket):
    """The relax scan and solve as they ran on Pade stride maps, one
    periodicity system per stride time: the scan's singular values, and
    the walk up the even grid points polished by scipy's brentq."""
    from scipy.optimize import brentq

    from conftest import pade_flow, phase_odes

    def R1(T):
        ds, ss = phase_odes(stride_maps(params, StrideTiming(T_ds=T_ds, T_ss=T - T_ds)))
        H_stride = pade_flow(ss, 0.0, T - T_ds) @ pade_flow(ds, 0.0, T_ds)
        return (gaits._R_START + gaits._R_END @ H_stride)[:, R1_COLS]

    def minor(T):
        return float(np.linalg.det(R1(T)[gaits._SAG][1:]))

    ts = gaits._stride_times(T_ds, bracket)
    scan = np.column_stack([ts, [np.linalg.svd(R1(T), compute_uv=False) for T in ts]])
    grid = [(T, minor(T)) for T in ts[::2]]
    for (lo, at_lo), (hi, at_hi) in zip(grid, grid[1:]):
        if np.sign(at_lo) * np.sign(at_hi) < 0:
            T = float(brentq(minor, lo, hi, xtol=1e-10))
            s2 = np.linalg.svd(R1(T), compute_uv=False) ** 2
            if s2[-2] <= 1e-9 * s2[0]:
                return scan, T
    raise NoRelaxTimeError("no root")


def test_relax_matches_pade_stride_maps(adult, kid):
    """The batched closed-form scan stays within 1e-12 of its largest
    singular value, and T_relax within 1e-10 s, of the scan and solve on
    Pade stride maps, on seeded adult and kid bodies."""
    rng = np.random.default_rng(23)
    for base in (adult, kid):
        for _ in range(3):
            body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                               rng.uniform(0.9, 1.1))
            T_ds = float(rng.uniform(0.1, 0.35))
            ref_scan, ref_T = _parent_relax(body, T_ds, (0.4, 1.5))
            scan = relax_scan(body, T_ds, (0.4, 1.5))
            assert np.array_equal(scan[:, 0], ref_scan[:, 0])
            assert np.max(np.abs(scan - ref_scan)) <= 1e-12 * np.max(ref_scan[:, 1:])
            assert abs(find_relax_time(body, T_ds) - ref_T) <= 1e-10


def test_relax_bracket_grid_is_even_points_of_scan_grid(adult):
    """The solve's 41-point bracket grid is every other scan point: the
    solve's brackets are intervals of the grid `relax_scan` reports."""
    rng = np.random.default_rng(19)
    for _ in range(200):
        T_ds = float(rng.uniform(0.05, 0.4))
        bracket = (float(rng.uniform(0.2, 0.6)), float(rng.uniform(1.0, 2.0)))
        ts = gaits._stride_times(T_ds, bracket)
        assert len(ts) == gaits.RELAX_SCAN_POINTS == 81
        assert np.array_equal(
            ts[::2], np.linspace(max(bracket[0], T_ds + 1e-3), bracket[1], 41))


def test_cold_relax_solve_polishes_one_root(adult, monkeypatch):
    """A cold solve walks the bracket grid only up to its first valid
    root: one Brent polish, and no stride map built."""
    polished = []
    real = gaits.brentq

    def counted(*args, **kwargs):
        polished.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gaits, "brentq", counted)
    body = scaled_body(adult, 63.5172, 1.0268)
    misses = stride_maps.cache_info().misses
    find_relax_time(body, 0.2)
    assert len(polished) == 1
    assert stride_maps.cache_info().misses == misses


def _synthetic_R1(root, at_grid):
    """A stand-in for `gaits._relax_R1`: R1(ts) whose sagittal minor is
    T - root, with rank 5 at the root, plus `at_grid` where the batch is the
    solve's grid (k > 1) and minus it at one point, as the roundoff of a
    many-row and a one-row product may differ."""
    def R1(ts):
        out = np.zeros((len(ts), 8, 7))
        out[:, (1, 3, 5, 4, 6), (1, 3, 5, 2, 4)] = 1.0
        out[:, 2, 0] = ts - root + (at_grid if len(ts) > 1 else -at_grid)
        return out
    return lambda params, T_ds: R1


@pytest.mark.parametrize("at_grid", [0.0, -1e-17, 1e-17])
def test_relax_root_on_a_grid_point(adult, monkeypatch, at_grid):
    """A minor zero, or within roundoff of it, at a grid point: the batched
    grid and a one-point evaluation may disagree in sign there, and Brent
    reads the grid's value at its bracket ends, so the root is found."""
    root = float(gaits._stride_times(0.2, (0.4, 1.5))[::2][10])
    monkeypatch.setattr(gaits, "_relax_R1", _synthetic_R1(root, at_grid))
    assert abs(find_relax_time(adult, 0.2) - root) <= 1e-10


@pytest.fixture
def map_rows(monkeypatch) -> list:
    """The number of maps each call of `linwalk.transition.expm` returns,
    one entry per call."""
    import linwalk.transition as transition
    rows = []
    real = transition.expm

    def counted(*args):
        out = real(*args)
        rows.append(len(out))
        return out

    monkeypatch.setattr(transition, "expm", counted)
    return rows


def test_cold_relax_scan_takes_one_exponential_per_stride_time(adult, map_rows):
    """T_ds is fixed over the scan, so the double-support map is taken once:
    two closed-form evaluations, one map per stride time and one more."""
    relax_scan(scaled_body(adult, 68.2291, 1.0437), 0.2, (0.4, 1.5))
    assert map_rows == [1, gaits.RELAX_SCAN_POINTS]


def test_find_relax_time_builds_no_stride_map(adult, map_rows, monkeypatch):
    """A cold solve builds no stride map and no periodicity system: one
    double-support map, one evaluation of the 41 grid points, then one map
    per Brent step and rank check."""
    built = []
    monkeypatch.setattr(gaits, "build_periodicity",
                        lambda *args: built.append(1))
    body = scaled_body(adult, 71.8443, 0.9917)
    misses = stride_maps.cache_info().misses
    find_relax_time(body, 0.25)
    assert stride_maps.cache_info().misses == misses and built == []
    assert map_rows[:2] == [1, 41] and set(map_rows[2:]) == {1}
    assert len(map_rows) <= 20


def test_null_basis_dimension_error(adult, timing):
    system = build_periodicity(adult, timing)
    bad = system.__class__(**{**system.__dict__, "R0": np.zeros((8, 15))})
    with pytest.raises(NullSpaceDimensionError) as err:
        null_basis(bad, "R0")
    assert err.value.found == 15 and err.value.expected == 7


def test_lift_reduced_layout(adult, timing):
    """The basis comes lifted: the columns R0 drops are zero rows, and an
    unknown system is refused."""
    system = build_periodicity(adult, timing)
    V = null_basis(system, "R0")
    assert V.shape == (23, 7)
    assert np.max(np.abs(V[4:6])) == 0.0       # foot velocity
    assert np.max(np.abs(V[8:10])) == 0.0      # contact position
    assert np.max(np.abs(V[18:22])) == 0.0     # disturbances
    with pytest.raises(ValueError):
        null_basis(system, "R2")


def test_null_basis_is_reduced_basis_zero_filled(adult, kid):
    """Against the reduced-coordinate basis (SVD of R0 or R1, rank cut at
    NULL_RTOL) zero-filled into Q rows by a per-column loop: bit for bit,
    on seeded adult and kid bodies and timings."""
    rng = np.random.default_rng(19)
    for base in (adult, kid):
        for _ in range(4):
            body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                               rng.uniform(0.9, 1.1))
            T_ds = rng.uniform(0.1, 0.3)
            system = build_periodicity(
                body, StrideTiming(T_ds, rng.uniform(0.4, 0.9)))
            for which, R, cols in (("R0", system.R0, R0_COLS),
                                   ("R1", system.R1, R1_COLS)):
                _, s, vt = np.linalg.svd(R)
                rank = int(np.sum(s > gaits.NULL_RTOL * s[0]))
                reduced = vt[rank:].T
                expected = np.zeros((23, reduced.shape[1]))
                for k, c in enumerate(cols):
                    expected[c] = reduced[k]
                assert np.array_equal(null_basis(system, which), expected), which


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


@pytest.mark.parametrize("d_sign", [np.nan, 0.0, 0.5, 2.0, -np.inf])
def test_non_physical_support_side_rejected(adult, timing, d_sign):
    """The support side d enters Q0 as given, so a side other than -1 or +1
    is refused by name, as `pack_state` refuses it for physical states."""
    with pytest.raises(ValueError, match="d_sign must be -1 or [+]1"):
        synthesize_gait(adult, timing, 1.0, d_sign=d_sign)


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


def test_support_side_is_exact(adult, kid, timing):
    """Every scenario's gait starts on the requested side exactly, as the
    state layout treats d as exactly +-1."""
    for body in (adult, kid):
        for tm in (SIIIC, timing):
            for tag in SCENARIOS:
                for d_sign in (1.0, -1.0):
                    gait = synthesize_gait(body, tm, 1.0, tag, d_sign=d_sign)
                    assert gait.Q0[-1] == d_sign, (tag, tm, d_sign)


def test_nesting_all_torques_zero_feasible_at_relax(adult, relax_03):
    """Constraining all eight torque entries to zero at the relaxed time
    still leaves a valid gait (the actuation block loses only 5 ranks)."""
    tm = StrideTiming(0.3, relax_03 - 0.3)
    system = build_periodicity(adult, tm)
    V = null_basis(system, "R0")
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
    """On warm maps the lateral objective reads the closed-form states of
    the null-space basis: no exponential at all."""
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
    params2, timing2 = scenario_model(adult, SIIIC, "long-double-support")
    assert params2 == adult
    assert timing2.T_ds == pytest.approx(0.2)
    assert timing2.T_stride == pytest.approx(SIIIC.T_stride)
    gait = synthesize_gait(adult, SIIIC, 1.0, "long-double-support")
    assert gait.timing.T_ds == pytest.approx(0.2)
    assert np.max(np.abs(gait.Q0[[12, 13, 16, 17]])) <= 1e-8


def test_lip_like_parameter_surgery(adult):
    params2, _ = scenario_model(adult, SIIIC, "lip-like")
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
    """Zero ankle torques and a nonzero CoP ramp on the same rows cannot
    both hold: the error names the blocks."""
    V = null_basis(build_periodicity(adult, SIIIC), "R0")
    sel = selection_matrices()
    ankle = np.vstack([sel.S_Ma @ V, sel.S_rMa @ V])
    ramp = cop_ramp_torque(adult, 0.24)
    with pytest.raises(InfeasibleConstraintsError) as err:
        solve_eqp(sel.S_U @ V, [
            ("support-side", sel.S_d @ V, np.array([1.0])),
            ("ankle-torque", ankle, np.zeros(4)),
            ("cop-ramp", ankle, np.array([0.0, 0.0, -ramp, 0.0])),
        ])
    assert any(b in ("ankle-torque", "cop-ramp") for b in err.value.blocks)
    assert "support-side" not in err.value.blocks


def test_unknown_scenario_rejected(adult):
    """A scenario is one of the named rows: another name, or an object in
    its place, is refused by `synthesize_gait` and `scenario_model`, and a
    row's fields cannot be set."""
    for bad in ("moonwalk", gaits._SCENARIO_TABLE["stage-walk"], None):
        with pytest.raises(ValueError, match="unknown scenario"):
            synthesize_gait(adult, SIIIC, 1.0, bad)
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_model(adult, SIIIC, bad)
    with pytest.raises(AttributeError):
        gaits._SCENARIO_TABLE["minimal-torque"].zero_ankle = True


@pytest.mark.parametrize("tag", [t for t in SCENARIOS if t != "cop-modulated"])
def test_foot_length_refused_where_unread(adult, tag):
    """Only cop-modulated reads a foot length: any other scenario refuses
    one by name."""
    assert scenario_foot_length(tag) is None
    with pytest.raises(ValueError, match=f"{tag!r} was given foot_length=0.24"):
        synthesize_gait(adult, SIIIC, 1.0, tag, foot_length=0.24)


def test_cop_modulated_default_foot_length(adult):
    """cop-modulated without a foot length is its gait at 0.24 m, bit for
    bit."""
    assert scenario_foot_length("cop-modulated") == 0.24
    plain = synthesize_gait(adult, SIIIC, 1.0, "cop-modulated")
    given = synthesize_gait(adult, SIIIC, 1.0, "cop-modulated", foot_length=0.24)
    assert plain.to_record() == given.to_record()


def test_gait_record_roundtrip(adult, timing):
    """A record reads back as the gait that was written, bit for bit, in
    every scenario and on both sides."""
    for tag in SCENARIOS:
        for d_sign in (1.0, -1.0):
            gait = synthesize_gait(adult, timing, 1.0, tag, d_sign=d_sign)
            back = GaitSolution.from_record(gait.to_record())
            assert back.scenario == gait.scenario == tag
            assert back.timing == gait.timing
            assert back.params == gait.params
            assert (back.v_des, back.d_sign) == (gait.v_des, gait.d_sign)
            assert np.array_equal(back.Q0, gait.Q0), (tag, d_sign)
            assert np.array_equal(back.alpha, gait.alpha), (tag, d_sign)
            assert back.diagnostics == gait.diagnostics


def test_gait_record_reads_back_without_maps(adult, timing, monkeypatch):
    """Reading a record only parses it: no stride map is looked up and no
    periodicity system or null basis is built."""
    text = synthesize_gait(adult, timing, 1.0, "stage-walk").to_record()
    built = []
    for name in ("build_periodicity", "null_basis", "stride_maps"):
        monkeypatch.setattr(gaits, name, lambda *args, name=name: built.append(name))
    lookups = stride_maps.cache_info()
    GaitSolution.from_record(text)
    assert built == [] and stride_maps.cache_info() == lookups


@pytest.mark.parametrize("key, value", [
    ("Q0", [0.0] * 5), ("Q0", [0.0] * 22 + [np.nan]), ("Q0", "X2x"),
    ("alpha", [0.0] * 8), ("alpha", [np.inf] + [0.0] * 6),
    ("v_des", np.nan), ("v_des", [1.0]), ("v_des", "fast"), ("v_des", True),
    ("d_sign", 0.0), ("d_sign", -0.5), ("d_sign", True), ("scenario", "moonwalk"),
])
def test_gait_record_refuses_a_field_no_gait_has(adult, timing, key, value):
    """A record whose Q0 or alpha is not 23 or 7 finite numbers, whose
    v_des is not finite, whose side is not -1 or +1 or whose scenario is
    unknown is refused by the field's name."""
    import json
    record = json.loads(synthesize_gait(adult, timing, 1.0).to_record())
    record[key] = value
    with pytest.raises(ValueError, match=f"record {key} must"):
        GaitSolution.from_record(json.dumps(record))


def test_gait_record_refuses_a_missing_field_or_parameter(adult, timing):
    """A record lacking a field (its diagnostics, a report, aside), or whose
    timing lacks a duration, or whose body parameters lack one or add an
    unknown one, is refused by the field's name with a ValueError, not a
    KeyError or TypeError."""
    import json
    text = synthesize_gait(adult, timing, 1.0).to_record()
    record = json.loads(text)
    del record["diagnostics"]
    assert GaitSolution.from_record(json.dumps(record)).diagnostics == {}
    cases = [(key, lambda r, key=key: r.pop(key)) for key in record]
    cases += [("timing", lambda r: r["timing"].pop("T_ss")),
              ("params", lambda r: r["params"].pop("m1")),
              ("params", lambda r: r["params"].update(m4=1.0)),
              ("params", lambda r: r["params"].update(g="9.81"))]
    for key, edit in cases:
        record = json.loads(text)
        edit(record)
        with pytest.raises(ValueError, match=f"record {key} must"):
            GaitSolution.from_record(json.dumps(record))


@pytest.mark.parametrize("policy", [TdsPolicy("human"), TdsPolicy("fixed", 0.1)])
def test_sweep_row_gaits_match_synthesized(adult, kid, policy):
    """The sweep's stacked minimal-torque gaits, on `phase_ends` maps, and
    `synthesize_gait` on each cell's stride map are the same gaits: Q0 to
    1e-12 of its largest entry and the row's economy to 1e-12 relative of
    1 / `com_work_per_distance`, on 10 seeded adult and kid bodies."""
    from linwalk.analysis import com_work_per_distance, economy_surface
    from linwalk.dynamics import DOUBLE
    from linwalk.transition import phase_ends
    rng = np.random.default_rng(28)
    for k in range(10):
        base = (adult, kid)[k % 2]
        body = scaled_body(base, base.total_mass * rng.uniform(0.75, 1.25),
                           rng.uniform(0.85, 1.15))
        speed = float(rng.uniform(0.8, 2.0))
        freqs = np.sort(rng.uniform(1.0, 2.5, 6))
        ratio = policy.ratio_at(speed)
        T = 1.0 / freqs
        T_ds, T_ss = ratio * T, (1.0 - ratio) * T
        H = phase_ends(body, SINGLE, T_ss) @ phase_ends(body, DOUBLE, T_ds)
        Q0, errors = gaits.minimal_torque_gaits(H, speed, T_ds + T_ss)
        economy = economy_surface(body, [speed], freqs, policy).economy[0]
        assert errors == [None] * len(freqs) and np.all(np.isfinite(economy))
        for j in range(len(freqs)):
            gait = synthesize_gait(body, StrideTiming(T_ds[j], T_ss[j]), speed)
            assert np.max(np.abs(Q0[j] - gait.Q0)) <= 1e-12 * np.max(np.abs(gait.Q0))
            assert abs(economy[j] * com_work_per_distance(gait) - 1.0) <= 1e-12
