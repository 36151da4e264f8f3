"""Trajectory reconstruction, CoM work, and economy surfaces."""
import gc
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linwalk.gaits import (
    GaitSolution, M_MAT, NullSpaceDimensionError, O_MAT, T_MAT, synthesize_gait,
)
from linwalk.layout import selection_matrices
from linwalk.model import (
    DegenerateModelError, StrideTiming, com_velocity_matrix, default_params,
    scaled_body,
)
from linwalk.analysis import (
    EconomyGrid, TdsPolicy, com_work_per_distance, economy_cell,
    economy_surface, parse_tds_policy, peak_line, sample_trajectory,
    usable_cpus, write_economy_csv, write_peaks_csv, write_trajectory_csv,
    TRAJECTORY_HEADER, _pool_map,
)
from linwalk.transition import StrideMaps

SIIIC = StrideTiming(T_ds=0.1, T_ss=0.6028)


@pytest.fixture(scope="module")
def gait(adult):
    return synthesize_gait(adult, SIIIC, 1.0)


@pytest.fixture(scope="module")
def body66(adult):
    return scaled_body(adult, 66.0)


def test_sampling_includes_phase_boundary(gait):
    samples = sample_trajectory(gait, 50)
    ts = [s.t for s in samples]
    assert any(abs(t - gait.timing.T_ds) < 1e-12 for t in ts)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(gait.timing.T_stride)


def test_endpoints_satisfy_mirror_relation(gait):
    samples = sample_trajectory(gait, 11)
    sel = selection_matrices()
    v0 = sel.S_XP @ samples[0].Q
    v1 = sel.S_XP @ samples[-1].Q
    residual = M_MAT @ v0 - O_MAT @ M_MAT @ T_MAT @ v1
    assert np.max(np.abs(residual)) <= 1e-7


def test_swing_foot_at_rest_at_stride_ends(gait):
    samples = sample_trajectory(gait, 11)
    assert np.max(np.abs(samples[0].Q[4:6])) <= 1e-8
    assert np.max(np.abs(samples[-1].Q[4:6])) <= 1e-8


def test_vertical_grf_is_trapezoidal(adult, gait):
    """Constant single-support plateau; affine double-support ramps that
    sum to body weight."""
    samples = sample_trajectory(gait, 201)
    W = adult.total_mass * adult.g
    ds = [s for s in samples if s.t <= gait.timing.T_ds + 1e-12]
    ss = [s for s in samples if s.t > gait.timing.T_ds + 1e-12]
    plateau = np.array([s.forces.F3[2] for s in ss])
    assert np.max(np.abs(plateau - W)) <= 1e-9 * W
    t_ds = np.array([s.t for s in ds])
    f2 = np.array([s.forces.F2[2] for s in ds])
    f3 = np.array([s.forces.F3[2] for s in ds])
    assert np.max(np.abs(f2 + f3 - W)) <= 1e-9 * W
    for trace in (f2, f3):
        coef = np.polyfit(t_ds, trace, 1)
        assert np.max(np.abs(np.polyval(coef, t_ds) - trace)) <= 1e-9 * W
    assert f2[0] == pytest.approx(W, rel=1e-9)
    assert f3[0] == pytest.approx(0.0, abs=1e-9 * W)


def test_com_velocity_matches_finite_differences(adult, gait):
    """CoM velocity from the linear operator equals the derivative of the
    sampled CoM positions."""
    from linwalk.analysis import propagate_states
    from linwalk.model import com_position_matrix
    dt = 1e-4
    t0 = 0.23
    states = propagate_states(gait, np.array([t0 - dt, t0, t0 + dt]))
    Cp = com_position_matrix(adult)
    Cv = com_velocity_matrix(adult)
    fd = (Cp @ states[2] - Cp @ states[0]) / (2 * dt)
    assert np.max(np.abs(fd - Cv @ states[1])) <= 1e-5


def test_constant_kinetic_energy_gives_zero_work(adult):
    """Degenerate check: a motionless stride does no CoM work."""
    frozen = GaitSolution(params=adult, timing=SIIIC, scenario="x", v_des=1.0,
                          d_sign=1.0, alpha=np.zeros(7),
                          basis=np.zeros((23, 7)), Q0=np.zeros(23))
    assert com_work_per_distance(frozen) == 0.0


def test_work_rejects_zero_speed(adult, gait):
    still = GaitSolution(params=adult, timing=SIIIC, scenario="x", v_des=0.0,
                         d_sign=1.0, alpha=gait.alpha, basis=gait.basis,
                         Q0=gait.Q0)
    with pytest.raises(ValueError):
        com_work_per_distance(still)


@pytest.mark.parametrize("body, speed, freq", [
    ("body66", 1.6, 1.8),
    # a kinetic-energy extremum inside the first or last grid interval
    ("adult", 1.2, 0.5),
])
def test_work_matches_dense_positive_power_integral(request, body, speed, freq):
    """Independent check of the refined-extrema evaluation: sum of positive
    kinetic-energy increments on a very dense grid."""
    from linwalk.analysis import propagate_states, sample_times
    from linwalk.model import mass_velocity_matrix
    body = request.getfixturevalue(body)
    ratio = TdsPolicy("human").ratio_at(speed)
    T = 1.0 / freq
    tm = StrideTiming(ratio * T, (1 - ratio) * T)
    g = synthesize_gait(body, tm, speed)
    work = com_work_per_distance(g)
    Vm = mass_velocity_matrix(body)
    masses = np.repeat([body.m1, body.m2, body.m3], 2)
    ts = sample_times(tm, 20000)
    ke = 0.5 * np.sum(masses * (propagate_states(g, ts) @ Vm.T) ** 2, axis=1)
    dense = np.sum(np.clip(np.diff(ke), 0.0, None))
    dense /= body.total_mass * speed * tm.T_stride
    assert work == pytest.approx(dense, rel=1e-4)


@pytest.mark.parametrize("base", ["adult", "kid"])
def test_work_matches_dense_kinetic_energy_scan(base):
    """The grid-free work equals the sum of positive kinetic-energy
    increments over 200 000 samples, on random bodies at short and human
    double-support shares."""
    from linwalk.analysis import propagate_states, sample_times
    from linwalk.model import mass_velocity_matrix
    rng = np.random.default_rng(67)
    base = default_params(base)
    for _ in range(2):
        body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                           rng.uniform(0.9, 1.1))
        speed, freq = rng.uniform(0.8, 2.0), rng.uniform(0.8, 3.0)
        Vm = mass_velocity_matrix(body)
        masses = np.repeat([body.m1, body.m2, body.m3], 2)
        for ratio in (0.005, 0.02, TdsPolicy("human").ratio_at(speed)):
            T = 1.0 / freq
            tm = StrideTiming(ratio * T, (1.0 - ratio) * T)
            g = synthesize_gait(body, tm, speed)
            ke = 0.5 * np.sum(masses * (propagate_states(g, sample_times(tm, 200_000))
                                        @ Vm.T) ** 2, axis=1)
            dense = np.sum(np.clip(np.diff(ke), 0.0, None))
            dense /= body.total_mass * speed * T
            work = com_work_per_distance(g)
            assert work == pytest.approx(dense, rel=1e-9), (ratio, speed, freq)


def test_lip_like_has_larger_sagittal_com_swings(adult):
    """Removing swing/torso mass dynamics costs more CoM speed variation."""
    def sagittal_range(tag):
        g = synthesize_gait(adult, SIIIC, 1.0, tag)
        samples = sample_trajectory(g, 400)
        vx = np.array([s.com_vel[0] for s in samples])
        return vx.max() - vx.min()
    assert sagittal_range("lip-like") > sagittal_range("minimal-torque")


def test_lip_like_costs_more_work(adult):
    """The mass-to-torso surgery raises the CoM work at matched speed and
    frequency."""
    w_lip = com_work_per_distance(synthesize_gait(adult, SIIIC, 1.0, "lip-like"))
    w_base = com_work_per_distance(synthesize_gait(adult, SIIIC, 1.0))
    assert w_lip > w_base


def test_peak_lines_differ_across_fixed_ratios(body66):
    """10 and 30 percent double-support shares give distinct optima."""
    freqs = np.arange(1.6, 3.01, 0.1)
    peaks = {}
    for ratio in (0.10, 0.30):
        grid = economy_surface(body66, [1.6], freqs, TdsPolicy("fixed", ratio))
        peaks[ratio] = peak_line(grid)[0].frequency
    assert abs(peaks[0.10] - peaks[0.30]) > 1e-3


def test_economy_mirror_invariance(body66):
    """Left- and right-support gaits burn identical energy."""
    g_pos = synthesize_gait(body66, SIIIC, 1.2, d_sign=+1.0)
    g_neg = synthesize_gait(body66, SIIIC, 1.2, d_sign=-1.0)
    w_pos = com_work_per_distance(g_pos)
    w_neg = com_work_per_distance(g_neg)
    assert abs(w_pos - w_neg) <= 1e-10 * w_pos


def test_tds_policy_values():
    human = TdsPolicy("human")
    assert human.ratio_at(0.8) == pytest.approx(0.273, abs=1e-12)
    assert human.ratio_at(2.5) == pytest.approx(0.12, abs=1e-12)
    fixed = parse_tds_policy("fixed:0.1")
    assert fixed.ratio_at(1.0) == 0.1
    assert parse_tds_policy("human") == human
    with pytest.raises(ValueError):
        parse_tds_policy("fixed:2")
    with pytest.raises(ValueError):
        parse_tds_policy("nonsense")


def test_economy_surface_and_flags(body66):
    grid = economy_surface(body66, [1.4, 1.6], [1.6, 1.8, 2.0],
                           TdsPolicy("human"))
    assert grid.economy.shape == (2, 3)
    assert np.all(grid.feasible)
    assert np.all(np.isfinite(grid.economy))
    assert np.all(grid.economy > 0)
    with pytest.raises(ValueError):
        economy_surface(body66, [], [1.0], TdsPolicy("human"))


def test_infeasible_cells_flagged_not_zeroed(body66):
    """A double-support share above one cannot time a stride: every cell of
    its row reads TdsRatioError."""
    bad = TdsPolicy("human")  # ratio_at(-12) = 1.425 > 1
    grid = economy_surface(body66, [-12.0, 1.4], [1.6, 1.8, 2.0], bad)
    assert grid.reason.tolist() == [["TdsRatioError"] * 3, [""] * 3]
    assert grid.feasible.tolist() == [[False] * 3, [True] * 3]
    assert np.all(np.isnan(grid.economy[0])) and np.all(grid.economy[1] > 0.0)


@pytest.mark.parametrize("speeds, freqs, bad", [
    ([1.4, 0.0], [1.8], "speed 0.0"),
    ([float("nan")], [1.8], "speed nan"),
    ([1.4], [0.0, 1.0], "frequency 0.0"),
    ([1.4], [-1.8], "frequency -1.8"),
    ([1.4], [float("inf")], "frequency inf"),
])
def test_economy_surface_rejects_bad_grid(body66, speeds, freqs, bad):
    with pytest.raises(ValueError, match=bad):
        economy_surface(body66, speeds, freqs, TdsPolicy("human"))


def test_unexpected_cell_error_propagates(body66, monkeypatch):
    """Only the named domain errors mark a cell infeasible."""
    import linwalk.analysis as analysis

    def broken(*args, **kwargs):
        raise ValueError("not a domain error")

    monkeypatch.setattr(analysis, "minimal_torque_gaits", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        economy_surface(body66, [1.4], [1.8], TdsPolicy("human"))


def test_degenerate_body_marks_its_rows(body66):
    """A body whose extraction fails gives every cell of its rows that
    reason; a row of one (`economy_cell`) raises it."""
    from dataclasses import replace
    flat = replace(body66, z2=0.0)              # a singular balance system
    grid = economy_surface(flat, [1.0, 1.4], [1.6, 1.8, 2.0], TdsPolicy("human"))
    assert grid.reason.tolist() == [["DegenerateModelError"] * 3] * 2
    assert not np.any(grid.feasible) and np.all(np.isnan(grid.economy))
    with pytest.raises(DegenerateModelError):
        economy_cell(flat, 1.0, 1.8, 0.2)


def _row(body, speed, freqs, ratio=0.15):
    return economy_surface(body, [speed], freqs, TdsPolicy("fixed", ratio))


def test_one_cell_fails_its_null_space_alone(body66, monkeypatch):
    """With the null-space tolerance set between the row's two smallest
    R0 gaps, only the cell with the smallest gap finds 8 null directions:
    it alone is masked, with its reason, and economy_cell raises there;
    its row-mates keep their values."""
    import linwalk.gaits as gaits
    freqs = np.array([1.2, 1.5, 1.8, 2.1, 2.4])
    ref = _row(body66, 1.3, freqs)
    gaps = []
    for f in freqs:
        tm = StrideTiming(0.15 / f, 0.85 / f)
        s = np.linalg.svd(gaits.build_periodicity(body66, tm).R0, compute_uv=False)
        gaps.append(s[7] / s[0])
    first, second = np.sort(gaps)[:2]
    monkeypatch.setattr(gaits, "NULL_RTOL", np.sqrt(first * second))
    grid = _row(body66, 1.3, freqs)
    bad = np.argmin(gaps)
    assert grid.reason[0].tolist() == ["NullSpaceDimensionError" if j == bad else ""
                                       for j in range(len(freqs))]
    keep = np.arange(len(freqs)) != bad
    assert np.isnan(grid.economy[0, bad])
    assert np.allclose(grid.economy[0, keep], ref.economy[0, keep], rtol=1e-12, atol=0.0)
    with pytest.raises(NullSpaceDimensionError):
        economy_cell(body66, 1.3, float(freqs[bad]), 0.15)


def test_one_cell_fails_its_speed_row_alone(body66, monkeypatch):
    """A basis that cannot move the swing foot, in one cell of the row,
    fails that cell's speed block: it alone is masked, with its reason,
    and its row-mates keep their values."""
    import linwalk.gaits as gaits
    freqs = np.array([1.2, 1.5, 1.8, 2.1])
    ref = _row(body66, 1.3, freqs)
    real = gaits._null_spaces

    def stuck(*args):
        V, found = real(*args)
        V[2, 0] = 0.0                          # the X2x row of the third cell
        return V, found

    monkeypatch.setattr(gaits, "_null_spaces", stuck)
    grid = _row(body66, 1.3, freqs)
    assert grid.reason[0].tolist() == ["", "", "InfeasibleConstraintsError", ""]
    assert np.isnan(grid.economy[0, 2])
    keep = [0, 1, 3]
    assert np.allclose(grid.economy[0, keep], ref.economy[0, keep], rtol=1e-12, atol=0.0)


def test_one_cell_fails_its_work_alone(body66, monkeypatch):
    """A cell whose work is not positive is masked alone, with its reason,
    and its row-mates keep their values."""
    import linwalk.analysis as analysis
    freqs = np.array([1.2, 1.5, 1.8])
    ref = _row(body66, 1.3, freqs)
    real = analysis._work_per_distance

    def negated(*args):
        work = real(*args)
        work[1] = -work[1]
        return work

    monkeypatch.setattr(analysis, "_work_per_distance", negated)
    grid = _row(body66, 1.3, freqs)
    assert grid.reason[0].tolist() == ["", "NonPositiveWorkError", ""]
    assert np.isnan(grid.economy[0, 1])
    assert np.array_equal(grid.economy[0, [0, 2]], ref.economy[0, [0, 2]])


def test_cells_alone_match_their_rows(body66):
    """Each cell evaluated alone (a row of one) agrees with its row to 1e-12
    relative, on rows of both acceptance grids."""
    speeds = np.round(np.arange(0.8, 2.0001, 0.3), 10)
    freqs = np.round(np.arange(0.8, 3.0001, 0.05), 10)
    for policy in (TdsPolicy("human"), TdsPolicy("fixed", 0.10)):
        grid = economy_surface(body66, speeds, freqs, policy)
        assert np.all(grid.feasible)
        alone = np.array([[economy_cell(body66, float(v), float(f), policy.ratio_at(v))
                           for f in freqs] for v in speeds])
        assert np.all(np.abs(alone - grid.economy) <= 1e-12 * np.abs(alone)), policy


@pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_parallel_surface_matches_serial(body66):
    """Worker processes produce bit-identical grids in the same order."""
    speeds = [1.5, 1.7]
    freqs = [1.8, 2.0]
    serial = economy_surface(body66, speeds, freqs, TdsPolicy("fixed", 0.2))
    parallel = economy_surface(body66, speeds, freqs, TdsPolicy("fixed", 0.2),
                               workers=2)
    assert np.array_equal(serial.economy, parallel.economy)
    assert np.array_equal(serial.feasible, parallel.feasible)


def test_more_workers_than_cpus_refused(body66, monkeypatch):
    """economy_surface refuses more workers than the CPUs this process may
    use, and fewer than one, before any cell is evaluated or worker started."""
    import linwalk.analysis as analysis

    def forbidden(*args):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(analysis, "_pool_map", forbidden)
    monkeypatch.setattr(analysis, "_economy_row", forbidden)
    for workers in (3, 0):
        with pytest.raises(ValueError, match=f"from 1 to the 2 usable CPUs, got {workers}"):
            economy_surface(body66, [1.4], [1.8], TdsPolicy("human"), workers=workers)


@pytest.mark.parametrize("parent", ["7", None])
def test_pool_workers_run_one_blas_thread(monkeypatch, parent):
    """Sweep workers start with one OpenBLAS thread; the parent's own
    setting, or its absence, is back once they have started."""
    if parent is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", parent)
    seen = _pool_map(os.getenv, ["OPENBLAS_NUM_THREADS"] * 3, 2)
    assert seen == ["1", "1", "1"]
    assert os.environ.get("OPENBLAS_NUM_THREADS") == parent


def test_peak_line_interior_and_boundary():
    grid = EconomyGrid(
        speeds=np.array([1.0, 2.0]),
        frequencies=np.array([1.0, 2.0, 3.0]),
        economy=np.array([[1.0, 3.0, 1.0], [1.0, 2.0, 4.0]]),
        tds_ratio=np.full((2, 3), 0.2), reason=np.full((2, 3), ""))
    peaks = peak_line(grid)
    assert peaks[0].frequency == pytest.approx(2.0)
    assert not peaks[0].boundary
    assert peaks[1].boundary and peaks[1].frequency == 3.0
    grid_bad = EconomyGrid(speeds=np.array([1.0]), frequencies=np.array([1.0]),
                           economy=np.array([[np.nan]]),
                           tds_ratio=np.array([[0.2]]),
                           reason=np.array([["NonPositiveWorkError"]]))
    [none] = peak_line(grid_bad)
    assert none.speed == 1.0 and np.isnan(none.frequency) and none.boundary


def test_trajectory_csv_matches_csv_module_rows(tmp_path, adult):
    """The preformatted rows are the bytes the csv module writes from one
    %.17g cell at a time, on every scenario."""
    import csv
    from linwalk.gaits import SCENARIOS
    for tag in SCENARIOS:
        samples = sample_trajectory(synthesize_gait(adult, SIIIC, 1.3, tag), 41)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(TRAJECTORY_HEADER.split(","))
            for s in samples:
                F = s.forces
                out.writerow([format(float(x), ".17g") for x in (
                    s.t, *s.Q[0:8], *s.com_pos, *s.com_vel,
                    F.F3[2], F.F2[2], F.tau2[1], F.tau2[0],
                    F.M3[1], F.M3[0], F.tau1[1], F.tau1[0])])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, samples)
        assert path.read_bytes() == ref.read_bytes(), tag


def test_csv_outputs(tmp_path, gait, body66):
    traj = tmp_path / "traj.csv"
    write_trajectory_csv(traj, sample_trajectory(gait, 11))
    lines = traj.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) >= 12
    assert len(lines[1].split(",")) == len(TRAJECTORY_HEADER.split(","))
    # 17-significant-digit round trip
    value = float(lines[1].split(",")[1])
    assert value == gait.Q0[0]

    grid = economy_surface(body66, [1.5], [1.7, 1.9], TdsPolicy("fixed", 0.2))
    econ = tmp_path / "econ.csv"
    write_economy_csv(econ, grid)
    rows = econ.read_text().splitlines()
    assert rows[0] == "speed,frequency,tds_ratio,economy,feasible,reason"
    assert len(rows) == 3
    peaks = tmp_path / "peaks.csv"
    write_peaks_csv(peaks, peak_line(grid))
    assert peaks.read_text().splitlines()[0] == "speed,frequency,boundary"


FIXTURE = Path(__file__).parent / "data" / "economy_adult_human.json"


def test_economy_grid_matches_pinned_fixture(adult):
    """Economy values and feasibility match a grid pinned from the
    golden-section work evaluation (turning points by golden-section search
    on H(t) Q0).  The cell at 1.2 m/s and 0.5 steps/s is pinned from the
    sign changes of the exact power: the older evaluations missed its
    extremum beside the stride boundary."""
    ref = json.loads(FIXTURE.read_text())
    grid = economy_surface(adult, ref["speeds"], ref["frequencies"],
                           TdsPolicy(ref["policy"]))
    feasible = np.array([[e is not None for e in row] for row in ref["economy"]])
    assert np.array_equal(grid.feasible, feasible)
    expected = np.array([[np.nan if e is None else e for e in row]
                         for row in ref["economy"]])
    assert np.all(np.abs(grid.economy[feasible] - expected[feasible])
                  <= 1e-9 * np.abs(expected[feasible]))


def test_propagate_states_straddling_phase_boundary_matches_maps(gait):
    """Non-uniform, repeated and boundary times agree with H(t) Q0."""
    from linwalk.analysis import propagate_states, sample_times
    from linwalk.transition import stride_maps
    T_ds, T = gait.timing.T_ds, gait.timing.T_stride
    ts = np.array([0.0, 0.013, 0.013, 0.05, T_ds - 1e-3, T_ds, T_ds,
                   T_ds + 2e-3, 0.3, 0.31, 0.5, T])
    maps = stride_maps(gait.params, gait.timing)
    states = propagate_states(gait, ts)
    for t, Q in zip(ts, states):
        ref = maps.H(t) @ gait.Q0
        assert np.max(np.abs(Q - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the 23 x 7 null-space basis block steps the same way
    blocks = maps.states(gait.basis, ts)
    assert blocks.shape == (len(ts),) + gait.basis.shape
    for t, B in zip(ts, blocks):
        ref = maps.H(t) @ gait.basis
        assert np.max(np.abs(B - ref)) <= 1e-12 * np.max(np.abs(ref))
    # long uniform runs, many samples to a piece, stay exact too
    ts = sample_times(gait.timing, 2000)
    states = propagate_states(gait, ts)
    for k in range(0, len(ts), 97):
        ref = maps.H(ts[k]) @ gait.Q0
        assert np.max(np.abs(states[k] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("base", ["adult", "kid"])
def test_propagate_states_matches_maps_on_random_bodies(base):
    """One state and the 23 x 7 null-space basis block agree with H(t) Q0
    on random bodies at short and human double-support shares, at repeated
    times, T_ds twice and both stride ends."""
    from linwalk.analysis import propagate_states, sample_times
    from linwalk.transition import stride_maps
    rng = np.random.default_rng(68)
    base = default_params(base)
    for _ in range(2):
        body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                           rng.uniform(0.9, 1.1))
        speed, freq = rng.uniform(0.8, 1.8), rng.uniform(1.0, 2.5)
        for ratio in (0.005, 0.02, TdsPolicy("human").ratio_at(speed)):
            T = 1.0 / freq
            g = synthesize_gait(body, StrideTiming(ratio * T, (1.0 - ratio) * T), speed)
            T_ds = g.timing.T_ds
            ts = np.sort(np.concatenate([
                sample_times(g.timing, 23), rng.uniform(0.0, T, 6),
                [0.0, 0.5 * T_ds, 0.5 * T_ds, T_ds, T_ds, T, T]]))
            maps = stride_maps(g.params, g.timing)
            for Q0, states in ((g.Q0, propagate_states(g, ts)),
                               (g.basis, maps.states(g.basis, ts))):
                assert states.shape == (len(ts),) + Q0.shape
                for t, Q in zip(ts, states):
                    ref = maps.H(t) @ Q0
                    assert np.max(np.abs(Q - ref)) <= 1e-12 * np.max(np.abs(ref)), (ratio, t)


def _sample_fields(traj) -> list:
    return [traj.t, traj.Q, traj.com_pos, traj.com_vel, *vars(traj.forces).values()]


def _solved_forces(traj, P, tm) -> list:
    """The two per-phase `solve_forces` solutions on the trajectory's own
    states and times, each with the rows of the trajectory it covers."""
    from linwalk.dynamics import DOUBLE, SINGLE, solve_forces
    k = np.count_nonzero(traj.t <= tm.T_ds)
    return [(solve_forces(P, tm, DOUBLE, traj.Q[:k], traj.t[:k]), slice(None, k)),
            (solve_forces(P, tm, SINGLE, traj.Q[k:], traj.t[k:] - tm.T_ds),
             slice(k, None))]


def _assert_fields_match(traj, solved, rtol=1e-11) -> None:
    """Every wrench field of the trajectory equals the solved one to rtol of
    that field's largest entry."""
    for F, rows in solved:
        for name, field in vars(F).items():
            got = getattr(traj.forces, name)[rows]
            scale = np.max(np.abs(field))
            assert np.max(np.abs(got - field)) <= rtol * scale, name


@pytest.mark.parametrize("base", ["adult", "kid"])
def test_stacked_trajectory_on_random_bodies(base):
    """The stacked trajectory of every scenario holds the maps' states bit
    for bit, and the two per-phase force solves to 1e-11 of each field's
    largest entry, with the sample at T_ds in the double-support block;
    index, iteration and slice read its rows."""
    from linwalk.gaits import SCENARIOS
    from linwalk.transition import stride_maps
    rng = np.random.default_rng(69)
    base = default_params(base)
    for _ in range(2):
        body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                           rng.uniform(0.9, 1.1))
        speed, freq = rng.uniform(0.8, 1.8), rng.uniform(1.0, 2.5)
        T = 1.0 / freq
        for ratio in (0.005, 0.02, TdsPolicy("human").ratio_at(speed)):
            for tag in SCENARIOS:
                g = synthesize_gait(body, StrideTiming(ratio * T, (1.0 - ratio) * T),
                                    speed, tag)
                P, tm = g.params, g.timing   # lip-like and long-double-support move them
                traj = sample_trajectory(g, 31)
                fields, n = _sample_fields(traj), len(traj.t)
                assert len(traj) == n and all(len(f) == n for f in fields)
                assert np.array_equal(traj.Q, stride_maps(P, tm).states(g.Q0, traj.t))
                k = np.count_nonzero(traj.t <= tm.T_ds)
                assert traj.t[k - 1] == tm.T_ds, (tag, ratio)
                _assert_fields_match(traj, _solved_forces(traj, P, tm))
                rows = list(traj)
                assert len(rows) == n
                for i, s in enumerate(rows):
                    assert all(np.array_equal(a, f[i])
                               for a, f in zip(_sample_fields(s), fields)), (tag, i)
                assert all(np.array_equal(a, f[k:])
                           for a, f in zip(_sample_fields(traj[k:]), fields))
                assert traj[-1].t == traj.t[n - 1]


@pytest.mark.parametrize("n", [1000, 100_000])
def test_propagation_takes_no_exponential(gait, count_expm, n):
    """States on a grid of any size, one state or the 23 x 7 basis block,
    come from the flow pieces without a matrix exponential."""
    from linwalk.analysis import propagate_states, sample_times
    from linwalk.transition import stride_maps
    maps = stride_maps(gait.params, gait.timing)
    count_expm.clear()
    ts = sample_times(gait.timing, n)
    propagate_states(gait, ts)
    maps.states(gait.basis, ts)
    assert len(count_expm) == 0


def test_cold_economy_row_takes_two_exponentials(adult, count_expm):
    """A speed row on a new body takes exactly two exponentials whatever its
    number of frequencies k: one `phase_ends` evaluation per phase.  The
    work's piece writer takes none (its piece starts are closed-form
    states, with no map formed), and a cell is a row of one."""
    policy = TdsPolicy("human")
    for mass, height, speed, freqs in (
            (72.3117, 0.9788, 1.1, (1.67,)),
            (72.3117, 0.9788, 0.85, (2.71, 1.13, 2.03)),
            (67.4193, 1.0213, 1.3, tuple(np.linspace(0.8, 3.0, 10))),
            (64.9021, 0.9641, 1.9, tuple(np.linspace(0.9, 2.9, 45)))):
        body = scaled_body(adult, mass, height)
        count_expm.clear()
        grid = economy_surface(body, [speed], freqs, policy)
        assert len(count_expm) == 2, (mass, speed, len(freqs))
        assert np.all(grid.feasible)
        count_expm.clear()
        economy_cell(body, speed, freqs[0], policy.ratio_at(speed))
        assert len(count_expm) == 2, (mass, speed)


def test_economy_cell_leaves_scipy_optimize_unimported():
    """The economy path needs no root finder from scipy."""
    import os
    import subprocess
    import sys
    import linwalk
    code = ("import sys\n"
            "from linwalk.analysis import economy_cell\n"
            "from linwalk.model import default_params\n"
            "economy_cell(default_params('adult'), 1.3, 1.8, 0.15)\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = str(Path(linwalk.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("base", ["adult", "kid"])
def test_series_flow_matches_exponential(base):
    """The exponential-free polynomial pieces that the work reads its
    turning points from equal E(delta) Q, with E scipy's Pade exponential
    of the generator built from the phase ODE, to 1e-13 of max|E Q| across
    a whole phase, on random bodies and states at short and human
    double-support shares; several phases need more than one piece."""
    from conftest import pade_flow, phase_odes, random_states
    from linwalk.transition import stride_maps
    rng = np.random.default_rng(61)
    base = default_params(base)
    split = 0
    for _ in range(3):
        body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                           rng.uniform(0.9, 1.1))
        speed, freq = rng.uniform(0.8, 2.0), rng.uniform(0.8, 3.0)
        for ratio in (0.005, 0.02, TdsPolicy("human").ratio_at(speed)):
            T = 1.0 / freq
            maps = stride_maps(body, StrideTiming(ratio * T, (1.0 - ratio) * T))
            for pm, ode in zip((maps.ds, maps.ss), phase_odes(maps)):
                Q = random_states(1, seed=int(rng.integers(1 << 30)))[0]
                C = pm.pieces(Q)
                dh = pm.duration / len(C)
                split += len(C) > 1
                for delta in np.append(np.linspace(0.0, pm.duration, 9),
                                       rng.uniform(0.0, pm.duration, 4)):
                    j = min(int(delta / dh), len(C) - 1)
                    x = (delta / dh - j) ** np.arange(C.shape[1]) @ C[j]
                    ref = pade_flow(ode, 0.0, delta) @ Q
                    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert split >= 3


def test_turning_points_isolate_two_roots_in_one_piece():
    """A piece whose Bernstein coefficients change sign twice yields both of
    its roots, from the fallback for two or more changes; a double change
    without a real root yields none, and a single change is solved by the
    certified Newton iteration."""
    from numpy.polynomial import polynomial as P
    from linwalk.analysis import _bernstein, _turning_points
    a = np.zeros((3, 4))
    a[0, :3] = P.polyfromroots([0.3, 0.6])           # two roots in one piece
    a[1, :3] = [0.26, -1.0, 1.0]                     # (s - 1/2)^2 + 0.01
    a[2] = P.polyfromroots([0.7, 2.0, -1.5])
    b = a @ _bernstein(3).T
    assert [np.count_nonzero(np.diff(np.sign(row))) for row in b] == [2, 2, 1]
    rows, s = _turning_points(a)
    assert np.all((s > 0.0) & (s < 1.0))
    values = np.array([P.polyval(x, a[r]) for r, x in zip(rows, s)])
    roots = sorted((r, x) for r, x, f in zip(rows.tolist(), s.tolist(), values)
                   if abs(f) <= 1e-14)
    assert [r for r, _ in roots] == [0, 0, 2]
    assert np.allclose([x for _, x in roots], [0.3, 0.6, 0.7], rtol=0.0, atol=1e-14)


def test_trajectory_takes_no_force_solve(gait, monkeypatch):
    """On a warm body the wrenches of a 401-sample stride come from the
    wrench maps: no `solve_forces` call, and no linear solve at all."""
    import linwalk.analysis as analysis
    import linwalk.dynamics as dynamics
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return counted

    sample_trajectory(gait, 11)                        # warm
    for module, name in ((analysis, "solve_forces"), (dynamics, "solve_forces"),
                         (np.linalg, "solve")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    samples = sample_trajectory(gait, 401)
    assert calls == []
    assert len(samples) == 402 and all(s.forces.F3.shape == (3,) for s in samples)


# the eight wrench columns of trajectory.csv, as (field, entry)
CSV_WRENCHES = (("F3", 2), ("F2", 2), ("tau2", 1), ("tau2", 0),
                ("M3", 1), ("M3", 0), ("tau1", 1), ("tau1", 0))


@pytest.mark.parametrize("base", ["adult", "kid"])
def test_wrench_maps_match_solve_on_random_trajectories(base):
    """On seeded random bodies, at shares 0.005, 0.02 and the human law, in
    every scenario and on both sides, the mapped wrenches of a trajectory
    equal `solve_forces` on the same (Q, t): every field to 1e-11 of its
    largest entry, and the CSV's eight wrench columns to 1e-13 of their
    largest entry."""
    from linwalk.gaits import SCENARIOS
    rng = np.random.default_rng(70)
    base = default_params(base)
    body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2), rng.uniform(0.9, 1.1))
    for d_sign in (1.0, -1.0):
        speed, freq = rng.uniform(0.8, 1.8), rng.uniform(1.0, 2.5)
        T = 1.0 / freq
        for ratio in (0.005, 0.02, TdsPolicy("human").ratio_at(speed)):
            for tag in SCENARIOS:
                g = synthesize_gait(body, StrideTiming(ratio * T, (1.0 - ratio) * T),
                                    speed, tag, d_sign=d_sign)
                traj = sample_trajectory(g, 61)
                assert np.allclose(traj.Q[:, 22], d_sign, rtol=0.0, atol=1e-9)
                solved = _solved_forces(traj, g.params, g.timing)
                _assert_fields_match(traj, solved)
                got = np.column_stack([getattr(traj.forces, f)[:, i] for f, i in CSV_WRENCHES])
                ref = np.concatenate([np.column_stack([getattr(F, f)[:, i]
                                                       for f, i in CSV_WRENCHES])
                                      for F, _ in solved])
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (tag, ratio)


def test_memory_bounded_over_economy_cells(body66):
    """Cells at distinct timings leave only their cached stride maps behind
    (~10 kB each); no per-time exponentials accumulate (~1.1 MB per cell
    when every phase map kept them)."""
    ratio = TdsPolicy("human").ratio_at(1.3)
    economy_cell(body66, 1.3, 1.7, ratio)     # warm imports and extraction
    n = 8
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(n):
            economy_cell(body66, 1.3, 1.71 + 0.0137 * k, ratio)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth / n < 200_000


def test_memory_bounded_over_long_sweep(body66):
    """A human-policy sweep shares no timing between cells, so each cell
    caches one more stride map (~10 kB, measured by tracemalloc as in the
    test above); over a long sweep at most the cache's 256 maps stay
    alive."""
    freqs = 1.2 + 0.004 * np.arange(300)
    economy_surface(body66, [1.3], freqs, TdsPolicy("human"))
    gc.collect()
    alive = sum(isinstance(o, StrideMaps) for o in gc.get_objects())
    assert alive <= 256
