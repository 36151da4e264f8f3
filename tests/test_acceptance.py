"""Acceptance gate: the quantitative exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) before
asserting, and pins its tolerance explicitly.
"""
import time

import numpy as np
import pytest

from conftest import random_states
from linwalk.layout import selection_matrices
from linwalk.model import StrideTiming, default_params, scaled_body
from linwalk.transition import stride_maps
from linwalk.gaits import build_periodicity, find_relax_time, synthesize_gait
from linwalk.analysis import (
    TdsPolicy, economy_surface, peak_line, sample_trajectory,
)
from linwalk.oracle import integrate_batch


def report(num: int, name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


@pytest.fixture(scope="module")
def adult():
    return default_params("adult")


def test_criterion_01_pseudo_passive_timing(adult):
    """T_relax for the adult body at T_ds = 0.3 s lies in [0.84, 0.88] s."""
    t0 = time.perf_counter()
    T_relax = find_relax_time(adult, 0.3)
    wall = time.perf_counter() - t0
    ok = 0.84 <= T_relax <= 0.88 and wall < 5.0
    report(1, "pseudo-passive timing",
           ok, f"T_relax={T_relax:.6f} s in [0.84, 0.88], {wall:.2f} s < 5 s")


def test_criterion_02_null_space_dimension(adult):
    """R0^T R0 has exactly 7 vanishing singular values at three timings."""
    ok = True
    details = []
    for T in (0.7, 0.9, 1.1):
        t0 = time.perf_counter()
        system = build_periodicity(adult, StrideTiming(0.3, T - 0.3))
        s = np.linalg.svd(system.R0, compute_uv=False)
        s_full = np.concatenate([s, np.zeros(15 - len(s))])
        s2 = s_full ** 2
        nzero = int(np.sum(s2 < 1e-10 * s2[0]))
        wall = time.perf_counter() - t0
        details.append(f"T={T}: {nzero} zeros ({wall:.2f} s)")
        ok = ok and nzero == 7 and wall < 2.0
    report(2, "null-space dimensionality", ok, "; ".join(details))


def test_criterion_03_oracle_equivalence(adult):
    """Closed-form stride propagation vs RK4 (1e-5 s) on 100 random states."""
    timing = StrideTiming(0.3, 0.56)
    Q0 = random_states(100, seed=123)
    t0 = time.perf_counter()
    maps = stride_maps(adult, timing)
    ends = integrate_batch(adult, timing, Q0, step=1e-5)
    err = float(np.max(np.abs(ends - Q0 @ maps.H_stride.T)))
    wall = time.perf_counter() - t0
    ok = err <= 1e-6 and wall < 60.0
    report(3, "oracle equivalence", ok,
           f"max component error {err:.3e} <= 1e-6, {wall:.1f} s < 60 s")


def test_criterion_04_back_transfer_identity(adult):
    timing = StrideTiming(0.3, 0.56)
    maps = stride_maps(adult, timing)
    rng = np.random.default_rng(99)
    worst = 0.0
    for tau in rng.uniform(0.0, timing.T_stride, 20):
        worst = max(worst, float(np.max(np.abs(
            maps.G(tau) @ maps.H(tau) - maps.H_stride))))
    ok = worst <= 1e-9
    report(4, "back-transfer identity", ok, f"max defect {worst:.3e} <= 1e-9")


SIIIC = StrideTiming(T_ds=0.1, T_ss=0.6028)
SCENARIO_TAGS = ("minimal-torque", "long-double-support", "stage-walk",
                 "cop-modulated", "lip-like")


def _all_gaits(adult):
    gaits = [synthesize_gait(adult, SIIIC, 1.0, tag) for tag in SCENARIO_TAGS]
    T_relax = find_relax_time(adult, 0.1, bracket=(0.2, 1.2))
    gaits.append(synthesize_gait(adult, StrideTiming(0.1, T_relax - 0.1),
                                 1.0, "pseudo-passive"))
    return gaits


def test_criterion_05_constraint_elimination(adult):
    sel = selection_matrices()
    maps = stride_maps(adult, StrideTiming(0.3, 0.56))
    elim = float(np.max(np.abs(sel.S_Xdot2 @ maps.Hprime_stride)))
    foot = max(g.diagnostics["end_foot_speed"] for g in _all_gaits(adult))
    ok = elim <= 1e-12 and foot <= 1e-8
    report(5, "constraint elimination", ok,
           f"|S_Xdot2 H'|={elim:.2e} <= 1e-12, "
           f"max end foot speed {foot:.2e} <= 1e-8")


def test_criterion_06_decoupling(adult):
    timing = StrideTiming(0.3, 0.56)
    maps = stride_maps(adult, timing)
    worst = 0.0
    for pm, T in ((maps.ds, timing.T_ds), (maps.ss, timing.T_ss)):
        for t in np.linspace(0.0, T, 10):
            H = pm.map_at(t)[0:8, 0:8]
            for i in range(8):
                for j in range(8):
                    if (i - j) % 2:
                        worst = max(worst, abs(H[i, j]))
    ok = worst <= 1e-12
    report(6, "sagittal/lateral decoupling", ok,
           f"max mixed-parity state entry {worst:.2e} <= 1e-12")


def _sagittal_com_range(gait, n=600):
    samples = sample_trajectory(gait, n)
    vx = np.array([s.com_vel[0] for s in samples])
    return float(vx.max() - vx.min())


def test_criterion_07_scenario_suite(adult):
    t0 = time.perf_counter()
    T_relax = find_relax_time(adult, 0.1, bracket=(0.2, 1.2))
    passive = synthesize_gait(adult, StrideTiming(0.1, T_relax - 0.1), 1.0,
                              "pseudo-passive")
    stage = synthesize_gait(adult, SIIIC, 1.0, "stage-walk")
    lip = synthesize_gait(adult, SIIIC, 1.0, "lip-like")
    cop = synthesize_gait(adult, SIIIC, 1.0, "cop-modulated")
    torque = passive.diagnostics["torque_norm"]
    lateral = stage.diagnostics["max_lateral_com_speed"]
    r_passive = _sagittal_com_range(passive)
    r_lip = _sagittal_com_range(lip)
    r_cop = _sagittal_com_range(cop)
    wall = time.perf_counter() - t0
    ok = (torque <= 1e-6 and lateral <= 1e-6 and r_lip > r_passive
          and r_cop < r_passive and wall < 10.0)
    report(7, "scenario suite", ok,
           f"(a) torque {torque:.2e} <= 1e-6; (b) lateral {lateral:.2e} <= 1e-6; "
           f"(c) LIP-like range {r_lip:.4f} > {r_passive:.4f}; "
           f"(d) CoP range {r_cop:.4f} < {r_passive:.4f}; {wall:.1f} s < 10 s")


def test_criterion_08_double_support_ratio_law():
    policy = TdsPolicy("human")
    r08 = policy.ratio_at(0.8)
    r25 = policy.ratio_at(2.5)
    ok = abs(r08 - 0.273) < 1e-12 and abs(r25 - 0.12) < 1e-12
    report(8, "double-support ratio law", ok,
           f"ratio(0.8)={r08!r}, ratio(2.5)={r25!r}")


def test_criterion_09_economy_optimum(adult):
    """Human-law peak frequency at 1.6 m/s within 1.8 steps/s +- 15 percent;
    interior maxima everywhere at the fixed 10 percent ratio."""
    body = scaled_body(adult, 66.0)
    speeds = np.round(np.arange(0.8, 2.0001, 0.05), 10)
    freqs = np.round(np.arange(0.8, 3.0001, 0.05), 10)
    t0 = time.perf_counter()
    grid_h = economy_surface(body, speeds, freqs, TdsPolicy("human"))
    peaks_h = peak_line(grid_h)
    wall = time.perf_counter() - t0
    f16 = next(p for p in peaks_h if abs(p.speed - 1.6) < 1e-9)
    band = (0.85 * 1.8, 1.15 * 1.8)

    fs = [p.frequency for p in peaks_h]
    monotone = all(b >= a - 1e-9 for a, b in zip(fs, fs[1:]))

    grid_f = economy_surface(body, speeds, freqs, TdsPolicy("fixed", 0.10))
    peaks_f = peak_line(grid_f)
    interior = all(not p.boundary for p in peaks_f)
    ok = (band[0] <= f16.frequency <= band[1] and not f16.boundary
          and interior and monotone and wall < 300.0)
    report(9, "economy optimum", ok,
           f"human-law peak at 1.6 m/s: {f16.frequency:.3f} steps/s in "
           f"[{band[0]:.2f}, {band[1]:.2f}]; fixed-10% interior maxima: "
           f"{interior}; peak line monotone: {monotone}; "
           f"human sweep {wall:.0f} s < 300 s")


def test_criterion_10_grf_shape(adult):
    """Trapezoidal vertical GRF for every synthesized gait."""
    W = adult.total_mass * adult.g
    worst_plateau = worst_sum = worst_fit = 0.0
    for gait in _all_gaits(adult):
        Wg = gait.params.total_mass * gait.params.g
        samples = sample_trajectory(gait, 201)
        ds = [s for s in samples if s.t <= gait.timing.T_ds + 1e-12]
        ss = [s for s in samples if s.t > gait.timing.T_ds + 1e-12]
        plateau = np.array([s.forces.F3[2] for s in ss])
        worst_plateau = max(worst_plateau, float(np.max(np.abs(plateau - Wg)) / Wg))
        t_ds = np.array([s.t for s in ds])
        f2 = np.array([s.forces.F2[2] for s in ds])
        f3 = np.array([s.forces.F3[2] for s in ds])
        worst_sum = max(worst_sum, float(np.max(np.abs(f2 + f3 - Wg)) / Wg))
        for trace in (f2, f3):
            coef = np.polyfit(t_ds, trace, 1)
            worst_fit = max(worst_fit, float(
                np.max(np.abs(np.polyval(coef, t_ds) - trace)) / Wg))
    ok = worst_plateau <= 1e-9 and worst_sum <= 1e-9 and worst_fit <= 1e-9
    report(10, "trapezoidal GRF", ok,
           f"plateau {worst_plateau:.2e}, ramp sum {worst_sum:.2e}, "
           f"ramp affinity {worst_fit:.2e} (all relative, <= 1e-9)")
