"""Phase/stride transition maps against the RK4 oracle and their algebra."""
import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest

from conftest import (
    direct_generator, generator_flow, pade_flow, phase_odes, phase_pieces, random_states,
)
from linwalk.dynamics import DOUBLE, SINGLE, PhaseODE
from linwalk.layout import Q_DIM, Q_NAMES, selection_matrices
from linwalk.model import (
    BodyParams, DegenerateModelError, Push, StrideTiming, default_params, scaled_body,
)
from linwalk.oracle import integrate_batch
from linwalk.transition import (
    ControlDegeneracyError, PhaseMap, _map_template, constrain_foot_velocity,
    dump_stride_maps, expm, flow_pieces, phase_ends, phase_template, push_end_state,
    stride_maps,
)


def test_identity_at_zero(adult, timing):
    maps = stride_maps(adult, timing)
    assert np.array_equal(maps.H(0.0), np.eye(Q_DIM))
    assert np.array_equal(maps.ss.map_at(0.0), np.eye(Q_DIM))


def test_identity_rows(adult, timing):
    """Forcing entries never change; the feet stay put in double support."""
    maps = stride_maps(adult, timing)
    I = np.eye(Q_DIM)
    for t in np.linspace(0.0, timing.T_ds, 5):
        H = maps.ds.map_at(t)
        assert np.array_equal(H[8:, :], I[8:, :])
        assert np.array_equal(H[0:2, :], I[0:2, :])   # swing-foot position
        assert np.array_equal(H[4:6, :], I[4:6, :])   # swing-foot velocity
    for t in np.linspace(0.0, timing.T_ss, 5):
        H = maps.ss.map_at(t)
        assert np.array_equal(H[8:, :], I[8:, :])


def test_state_block_decoupling(adult, timing):
    """Mixed sagittal/lateral entries of the state block vanish."""
    maps = stride_maps(adult, timing)
    for pm, T in ((maps.ds, timing.T_ds), (maps.ss, timing.T_ss)):
        for t in np.linspace(0.0, T, 10):
            H = pm.map_at(t)[0:8, 0:8]
            for i in range(8):
                for j in range(8):
                    if (i - j) % 2:
                        assert abs(H[i, j]) <= 1e-12


def _sagittal(name: str) -> bool:
    """Forces, positions and velocities along x, and moments about y, act in
    the sagittal plane; the support side d is lateral."""
    return name != "d" and (name[-1] == "y") == name.lstrip("r").startswith("M")


def test_sagittal_lateral_decoupling_is_exact():
    """No entry couples a sagittal state to a lateral one, exactly, in the
    flow pieces' coefficients, every phase flow, H and H' of random adult
    and kid bodies at double-support shares down to 0.005."""
    sag = [i for i, name in enumerate(Q_NAMES) if _sagittal(name)]
    lat = [i for i, name in enumerate(Q_NAMES) if not _sagittal(name)]
    assert len(sag) == 11 and len(lat) == 12

    def cross(M, a, b):
        return np.count_nonzero(M[np.ix_(a, b)]) + np.count_nonzero(M[np.ix_(b, a)])

    rng = np.random.default_rng(71)
    for base in (default_params("adult"), default_params("kid")):
        for _ in range(2):
            body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                               rng.uniform(0.9, 1.1))
            freq = rng.uniform(0.8, 3.0)
            for ratio in (0.005, 0.02, rng.uniform(0.1, 0.3)):
                maps = stride_maps(body, StrideTiming(ratio / freq, (1.0 - ratio) / freq))
                for pm, ode in zip((maps.ds, maps.ss), phase_odes(maps)):
                    for piece in phase_pieces(pm, np.eye(Q_DIM)):   # rows: basis states
                        for coef in piece:
                            assert cross(coef.T, sag, lat) == 0, (ratio, ode.phase)
                    for t in rng.uniform(0.0, pm.duration, 3):
                        flow = pm.flow(t, rng.uniform(0.0, pm.duration - t))
                        assert cross(flow, sag, lat) == 0, (ratio, ode.phase, t)
                for H in (maps.H_stride, maps.Hprime_stride):
                    assert cross(H, sag, lat) == 0, ratio


def test_phase_maps_match_rk4(adult, timing):
    """Propagated states agree with fixed-step RK4 on random states."""
    Q0 = random_states(5, seed=40)
    maps = stride_maps(adult, timing)
    for phase, H in (("double", maps.H_ds_end),
                     ("single", maps.ss.map_at(timing.T_ss)),
                     (None, maps.H_stride)):
        ends = integrate_batch(adult, timing, Q0, step=1e-4, phase=phase)
        assert np.max(np.abs(ends - Q0 @ H.T)) <= 1e-8


def test_semigroup_within_phase(adult, timing):
    """H(t1+t2) equals the shifted flow applied after H(t1)."""
    maps = stride_maps(adult, timing)
    for t1, t2 in ((0.1, 0.15), (0.05, 0.2), (0.2, 0.05)):
        lhs = maps.ds.map_at(t1 + t2)
        rhs = maps.ds.flow(t1, t2) @ maps.ds.map_at(t1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1, np.max(np.abs(lhs)))


def test_back_transfer_identity(adult, timing):
    """G(tau) H(tau) = H(T_stride) at random intermediate times."""
    maps = stride_maps(adult, timing)
    HT = maps.H_stride
    rng = np.random.default_rng(41)
    assert np.max(np.abs(maps.G(0.0) - HT)) <= 1e-9
    assert np.max(np.abs(maps.G(timing.T_stride) - np.eye(Q_DIM))) <= 1e-9
    for tau in rng.uniform(0.0, timing.T_stride, 20):
        err = np.max(np.abs(maps.G(tau) @ maps.H(tau) - HT))
        assert err <= 1e-9


def _random_bodies_and_timings(bases, n, seed):
    """n seeded (body, timing) draws, two timings per scaled body."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        if k % 2 == 0:
            base = bases[(k // 2) % len(bases)]
            body = scaled_body(base, base.total_mass * rng.uniform(0.75, 1.25),
                               rng.uniform(0.85, 1.15))
        yield body, StrideTiming(rng.uniform(0.01, 0.4), rng.uniform(0.2, 0.8)), rng


def test_back_transfer_identity_over_random_bodies(adult, kid):
    for body, tm, rng in _random_bodies_and_timings((adult, kid), 10, seed=53):
        maps = stride_maps(body, tm)
        for tau in np.append(rng.uniform(0.0, tm.T_stride, 4), tm.T_ds):
            err = np.max(np.abs(maps.G(tau) @ maps.H(tau) - maps.H_stride))
            assert err <= 1e-9, (body, tm, tau)


def test_map_template_matches_direct_construction(adult, kid):
    """A phase map on a template built afresh, past the template cache,
    equals the stride map's, whose template was built at first use of the
    body or shared from an earlier timing of it, bit for bit; the
    closed-form maps equal the Pade exponential of the generator built from
    each timing's phase ODE to 1e-13 of max|H|."""
    for body, tm, _ in _random_bodies_and_timings((adult, kid), 8, seed=52):
        maps = stride_maps(body, tm)
        direct = {}
        for pm, ode in zip((maps.ds, maps.ss), phase_odes(maps)):
            fresh = PhaseMap(phase_template.__wrapped__(body, ode.phase), ode.duration)
            assert np.array_equal(fresh.map_at(ode.duration), pm.map_at(pm.duration))
            direct[ode.phase] = pade_flow(ode, 0.0, ode.duration)
        for H, ref in ((maps.H_ds_end, direct["double"]),
                       (maps.H_stride, direct["single"] @ direct["double"])):
            assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_closed_form_matches_pade_exponential():
    """`map_at` and `flow(t, dt)` of both phases agree with scipy's Pade
    exponential of the generator to 1e-13 of max|H|, on seeded adult and kid
    bodies at double-support shares 0.005, 0.02 and 0.05-0.35, over whole
    phases and random sub-intervals (short ones take the series)."""
    rng = np.random.default_rng(81)
    for base in (default_params("adult"), default_params("kid")):
        for _ in range(4):
            body = scaled_body(base, base.total_mass * rng.uniform(0.8, 1.2),
                               rng.uniform(0.9, 1.1))
            freq = rng.uniform(0.8, 3.0)
            for ratio in (0.005, 0.02, rng.uniform(0.05, 0.35)):
                maps = stride_maps(body, StrideTiming(ratio / freq, (1.0 - ratio) / freq))
                for pm, ode in zip((maps.ds, maps.ss), phase_odes(maps)):
                    T = pm.duration
                    cases = [(0.0, T), (0.0, 1e-3 * T)] + [
                        (t, rng.uniform(0.0, T - t)) for t in rng.uniform(0.0, T, 3)]
                    for t, dt in cases:
                        ref = pade_flow(ode, t, dt)
                        got = pm.map_at(dt) if t == 0.0 else pm.flow(t, dt)
                        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (
                            ratio, ode.phase, t, dt)


def _wide_body(rng):
    """A body and timing from a wide draw: m1 2-150 kg, m2 0.2-40 kg, kappa
    0-1, z1 0.3-1.5 m, z3 0-1 m, w 0-0.5 m, T_ds 0.02-0.5 s, T_ss 0.2-1.2 s."""
    m2, z1 = rng.uniform(0.2, 40.0), rng.uniform(0.3, 1.5)
    body = BodyParams(m1=rng.uniform(2.0, 150.0), m2=m2, m3=m2, z1=z1,
                      z2=rng.uniform(0.0, 1.0) * z1, z3=rng.uniform(0.0, 1.0),
                      w=rng.uniform(0.0, 0.5))
    return body, StrideTiming(rng.uniform(0.02, 0.5), rng.uniform(0.2, 1.2))


@pytest.mark.parametrize("seed", [35, 79, 18])
def test_closed_form_matches_high_precision_exponential(seed):
    """`map_at(T)` and the flow pieces at T / 3 and 2T / 3 agree with
    mpmath's 40-digit exponential of the generator built from the phase ODE
    to 1e-13 of max|H|, in both phases of bodies from a wide draw; two of
    them have thin legs (kappa 0.036 and 0.083).  On these single-support
    phases scipy's Pade exponential errs by 1.7e-13 to 2.5e-13."""
    import mpmath
    maps = stride_maps(*_wide_body(np.random.default_rng(seed)))
    for pm, ode in zip((maps.ds, maps.ss), phase_odes(maps)):
        T = ode.duration
        A = direct_generator(ode)[0]
        with mpmath.workdps(40):            # E(j T / 3) = E(T / 3)^j
            third = mpmath.expm(mpmath.matrix((A * (T / 3)).tolist()))
            E = [third, third * third, third * third * third]
        ref = {j: generator_flow(ode, 0.0, E[j - 1].tolist()) for j in (1, 2, 3)}
        assert np.max(np.abs(pm.map_at(T) - ref[3])) <= 1e-13 * np.max(np.abs(ref[3]))
        C = phase_pieces(pm, np.eye(Q_DIM))     # C[j, d, k]: the flow of basis state k
        for j in (1, 2):
            u = j / 3 * len(C)
            H = np.tensordot((u - int(u)) ** np.arange(C.shape[1]), C[int(u)], 1).T
            assert np.max(np.abs(H - ref[j])) <= 1e-13 * np.max(np.abs(ref[j])), j


@pytest.mark.parametrize("seed", [35, 79, 18])
def test_short_time_series_meets_the_closed_form_at_its_reach(seed):
    """Each eigenvalue's s, C and S come from the template's series below
    its reach, where |lambda| h^2 = 1/2, and from the closed form above it:
    the series is longest and the closed form's cancellation worst at the
    switch.  `expm` one ulp below and one ulp above each reach, in both
    phases of the wide-draw bodies, agrees with mpmath's 40-digit
    exponential at the reach to 1e-13 of max|H| (an ulp of h moves a map
    by about 1e-16 of it)."""
    import mpmath
    maps = stride_maps(*_wide_body(np.random.default_rng(seed)))
    for pm, ode in zip((maps.ds, maps.ss), phase_odes(maps)):
        A = direct_generator(ode)[0]
        for h in np.unique(pm.template.reach):
            with mpmath.workdps(40):
                E = mpmath.expm(mpmath.matrix((A * h).tolist()))
            ref = generator_flow(ode, 0.0, E.tolist())
            for side in (0.0, np.inf):
                got = expm(pm.template, np.nextafter(h, side), 0.0, pm.duration)[0]
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (
                    ode.phase, h, side)


def test_phase_flow_stays_in_its_phase(adult, timing):
    """`PhaseMap.flow` refuses an interval that starts before the phase or
    ends after it, beyond `map_at`'s slack, as `map_at` refuses such a time;
    intervals within the slack are kept."""
    maps = stride_maps(adult, timing)
    T = maps.ss.duration
    for t, dt in ((0.5, 1.0), (-1e-6, 0.1), (0.1, -1e-6), (T, 1e-6)):
        with pytest.raises(ValueError, match="need 0 <= t <= t [+] dt"):
            maps.ss.flow(t, dt)
    with pytest.raises(ValueError, match="need 0 <= t <= t [+] dt"):
        maps.ss.map_at(T + 1e-6)
    assert np.allclose(maps.ss.flow(-1e-13, T + 1e-10), maps.ss.map_at(T), rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("block, kind", [
    ([[-2.0, 3.0], [-4.0, 1.0]], "complex"),
    ([[5.0, 1.0], [0.0, 5.0]], "repeated"),
    ([[5.0, 0.0], [0.0, 5.0]], "repeated"),
])
def test_complex_or_repeated_pair_raises(block, kind):
    """The closed form needs real, distinct eigenvalues of each axis'
    position block; a synthetic unit ODE without them is refused by name,
    with no fallback."""
    K0 = np.zeros((4, Q_DIM))
    for axis in (0, 1):
        K0[np.ix_([axis, axis + 2], [axis, axis + 2])] = block
    with pytest.raises(DegenerateModelError, match=f"{kind} eigenvalue pair"):
        _map_template(PhaseODE(SINGLE, 1.0, K0, np.zeros((4, Q_DIM))))


@pytest.mark.parametrize("phase, which, cell, what", [
    (DOUBLE, "K0", (0, 8), "holds fixed"),          # trailing foot accelerates
    (DOUBLE, "K1", (1, 9), "holds fixed"),
    (DOUBLE, "K0", (2, 6), "moving velocity"),      # pelvis reads its velocity
    (SINGLE, "K0", (0, 4), "moving velocity"),      # swing foot reads its own
    (DOUBLE, "K1", (2, 2), "ramp a moving position"),
    (SINGLE, "K1", (3, 5), "ramp a moving position"),
])
def test_structure_the_closed_form_assumes_is_checked(phase, which, cell, what):
    """The closed form holds the entries that do not move constant, treats
    K0's velocity columns as constant inputs and K1 as reading only
    constant entries; a synthetic unit ODE breaking one of these, within
    one axis, is refused by name rather than mapped wrongly."""
    K = {"K0": np.zeros((4, Q_DIM)), "K1": np.zeros((4, Q_DIM))}
    for axis in (0, 1):
        K["K0"][np.ix_([axis, axis + 2], [axis, axis + 2])] = [[5.0, 1.0], [0.0, 2.0]]
    if phase == DOUBLE:
        K["K0"][:2] = 0.0
    K[which][cell] = 1.0
    with pytest.raises(DegenerateModelError, match=what):
        _map_template(PhaseODE(phase, 1.0, K["K0"], K["K1"]))


def test_double_support_scalar_modes_take_any_sign():
    """Double support has one scalar mode per axis: a synthetic stiffness
    of either sign, or zero, gives the exact closed-form flow, and flow
    pieces that end on it."""
    for k in (9.1, -9.1, 0.0):
        K0 = np.zeros((4, Q_DIM))
        K0[2:4, 2:4] = k * np.eye(2)
        K0[2:4, 8:10] = np.eye(2)
        ode = PhaseODE(DOUBLE, 0.3, K0, np.zeros((4, Q_DIM)))
        pm = PhaseMap(_map_template(ode), ode.duration)
        for dt in (0.0, 0.01, 0.3):
            ref = pade_flow(ode, 0.0, dt)
            assert np.max(np.abs(pm.map_at(dt) - ref)) <= 1e-13 * np.max(np.abs(ref))
        end = phase_pieces(pm, np.eye(Q_DIM))[-1].sum(axis=0).T
        assert np.max(np.abs(end - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cross_phase_flow(adult, timing):
    maps = stride_maps(adult, timing)
    full = maps.flow(0.0, timing.T_stride)
    assert np.max(np.abs(full - maps.H_stride)) <= 1e-12 * np.max(np.abs(full))
    # three-way split composition
    a = maps.flow(0.0, 0.2)
    b = maps.flow(0.2, 0.5)
    c = maps.flow(0.5, timing.T_stride)
    assert np.max(np.abs(c @ b @ a - maps.H_stride)) <= 1e-10


def test_constrained_map_zeroes_foot_velocity(adult, timing):
    maps = stride_maps(adult, timing)
    sel = selection_matrices()
    assert np.max(np.abs(sel.S_Xdot2 @ maps.Hprime_stride)) <= 1e-12


def test_constrain_foot_velocity_singular():
    with pytest.raises(ControlDegeneracyError):
        constrain_foot_velocity(np.eye(Q_DIM))


def test_hprime_raises_where_hip_torques_lose_the_foot(adult, hprime_crossing):
    """B = diag(b, -b) has condition number 1 even as b crosses zero; the
    guard measures B against the rows S_Xdot2 H it is taken from.  Gait
    synthesis and the economy there never form H' and still succeed."""
    from linwalk.analysis import economy_cell
    maps = stride_maps(adult, hprime_crossing)
    with pytest.raises(ControlDegeneracyError):
        maps.Hprime_stride
    f = 1.0 / hprime_crossing.T_stride
    assert 0.0 < economy_cell(adult, 1.3, f, 0.12) < np.inf


def test_cold_build_never_forms_hprime(adult, monkeypatch):
    import linwalk.transition as transition

    def forbidden(H):
        raise AssertionError("stride_maps formed H'")

    monkeypatch.setattr(transition, "constrain_foot_velocity", forbidden)
    misses = stride_maps.cache_info().misses
    stride_maps(adult, StrideTiming(T_ds=0.1357, T_ss=0.4681))
    assert stride_maps.cache_info().misses == misses + 1


def test_shared_arrays_are_read_only(adult, timing):
    """A cached stride map's H_ds_end and H_stride and the per-body
    templates can be held by many callers, the selectors by every
    periodicity system and gait program, and the module-level index and
    matrix constants by every call that reads them."""
    import linwalk.analysis as analysis
    import linwalk.dynamics as dynamics
    import linwalk.gaits as gaits
    import linwalk.transition as transition
    maps = stride_maps(adult, timing)
    sel = selection_matrices()
    arrays = [maps.H_ds_end, maps.H_stride]
    arrays += [getattr(sel, f.name) for f in dataclasses.fields(sel)]
    for pm in (maps.ds, maps.ss):
        arrays += [getattr(pm.template, f.name) for f in dataclasses.fields(pm.template)]
    arrays += [gaits.M_MAT, gaits.O_MAT, gaits.T_MAT, *gaits._SAG,
               transition._AXIS_COLS, transition._OFF_AXIS_COLS, transition._DEGREES,
               transition._SERIES_POWER, transition._SERIES_TERM,
               transition._INV_FACTORIAL, dynamics._V_COLS, dynamics._OTHER_COLS,
               dynamics._KEPT_ROWS, dynamics._ELIM_ROWS, dynamics._PROBES,
               dynamics._PROBE_S, dynamics._DISTINCT, dynamics._PROBE_MATRIX,
               analysis._BERNSTEIN]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1


@pytest.mark.parametrize("phase", ["Single", "ss", ""])
def test_phase_ends_refuse_an_unknown_phase(adult, phase):
    with pytest.raises(ValueError, match=f"unknown phase '{phase}': expected 'single' or 'double'"):
        phase_ends(adult, phase, [0.3])


def test_flow_pieces_lie_in_time_order_per_run(adult):
    """`flow_pieces` lays k runs out one after another and returns each
    piece's run: a run's first piece starts at its start state, every
    later one where the one before it ends, and the run's end state is
    its last piece's end, H(T) X."""
    T = np.array([0.45, 0.2, 0.7])
    X = random_states(3, seed=25)
    C, run, ends = flow_pieces(phase_template(adult, SINGLE), T, X[:, None])
    assert np.array_equal(run, np.sort(run)) and np.all(np.bincount(run, minlength=3) > 1)
    starts, sums = C[:, 0, 0], C[:, :, 0].sum(axis=1)
    first = np.flatnonzero(np.diff(run, prepend=-1))
    assert np.array_equal(starts[first], X)
    later = np.setdiff1d(np.arange(len(run)), first)
    scale = np.max(np.abs(sums))
    assert np.max(np.abs(starts[later] - sums[later - 1])) <= 1e-13 * scale
    assert np.array_equal(ends[:, 0], sums[np.append(first[1:], len(run)) - 1])
    H = phase_ends(adult, SINGLE, T)
    assert np.max(np.abs(ends[:, 0] - (H @ X[..., None])[..., 0])) <= 1e-13 * scale


def test_cache_clear_leaves_the_next_build_cold(adult, count_expm):
    body = scaled_body(adult, 58.9317, 0.9623)
    stride_maps(body, StrideTiming(T_ds=0.1931, T_ss=0.5))
    stride_maps.cache_clear()
    gc.collect()
    count_expm.clear()
    stride_maps(body, StrideTiming(T_ds=0.1931, T_ss=0.6))
    assert len(count_expm) == 2


def test_shared_double_support_matches_a_fresh_build(adult, kid):
    """The relax path takes a body's double-support map once per T_ds and
    shares it across stride times: its R1 equals R1 of fresh stride maps at
    each stride time to roundoff.  A stride map is pure in its timing: a
    rebuild after the cache is cleared equals it bit for bit, and nothing
    of the first build stays alive."""
    from linwalk.gaits import _relax_R1, build_periodicity
    for body, tm, rng in _random_bodies_and_timings((adult, kid), 8, seed=54):
        ts = tm.T_ds + rng.uniform(0.2, 0.8, 3)
        shared = _relax_R1(body, tm.T_ds)(ts)
        for R1, T in zip(shared, ts):
            fresh = build_periodicity(body, StrideTiming(tm.T_ds, T - tm.T_ds)).R1
            assert np.max(np.abs(R1 - fresh)) <= 1e-13 * np.max(np.abs(fresh))
        first = stride_maps(body, tm)
        half = weakref.ref(first.ds)
        H_ds_end, H_stride = first.H_ds_end, first.H_stride
        del first
        stride_maps.cache_clear()
        gc.collect()
        assert half() is None
        fresh = stride_maps(body, tm)
        assert np.array_equal(fresh.H_ds_end, H_ds_end)
        assert np.array_equal(fresh.H_stride, H_stride)


@pytest.mark.parametrize("call", [
    lambda m: m.ss.flow(np.nan, 0.1), lambda m: m.ss.flow(0.1, np.nan),
    lambda m: m.ss.map_at(np.nan), lambda m: m.ds.map_at(np.nan),
    lambda m: m.flow(np.nan, 0.2), lambda m: m.H(np.nan), lambda m: m.G(np.nan),
], ids=["ss.flow-t", "ss.flow-dt", "ss.map_at", "ds.map_at", "flow", "H", "G"])
def test_flows_refuse_a_nan_time(adult, call):
    """A NaN time is refused like a time outside the phase or stride, not
    mapped to a NaN matrix."""
    maps = stride_maps(adult, StrideTiming(0.1, 0.4))
    with pytest.raises(ValueError, match="need 0 <= t"):
        call(maps)


def test_maps_are_cached(adult, timing):
    assert stride_maps(adult, timing) is stride_maps(
        adult, StrideTiming(T_ds=timing.T_ds, T_ss=timing.T_ss))


def test_out_of_range_times(adult, timing):
    maps = stride_maps(adult, timing)
    with pytest.raises(ValueError):
        maps.ds.map_at(timing.T_ds + 1.0)
    with pytest.raises(ValueError):
        maps.G(-0.5)


def test_states_reject_times_outside_stride_or_decreasing(adult, timing):
    """Times outside [0, T_stride] (beyond the slack of `flow`), NaN and
    decreasing times are rejected by name; times within the slack are
    kept."""
    maps = stride_maps(adult, timing)
    Q0 = random_states(1, seed=69)[0]
    T = timing.T_stride
    for bad, ts in ((-1e-6, [-1e-6, 0.1]), (T + 1e-6, [0.0, 0.1, T + 1e-6]),
                    (np.nan, [0.0, np.nan])):
        with pytest.raises(ValueError, match=f"stride time {bad} outside"):
            maps.states(Q0, np.array(ts))
    with pytest.raises(ValueError, match="stride time 0.2 follows a later one"):
        maps.states(Q0, np.array([0.0, 0.3, 0.2, 0.5]))
    ends = maps.states(Q0, np.array([-1e-13, T + 1e-10]))
    assert np.allclose(ends, [Q0, maps.H_stride @ Q0], rtol=0.0, atol=1e-7)


def test_states_reject_rows_and_take_one_phase_alone(adult, timing):
    """States given one per row (k, 23), the layout `flow_pieces` takes,
    are refused by shape rather than read as a block (23, k).  Times that
    all fall in one phase, or none, give H(t) Q0 for one state and a
    block alike."""
    maps = stride_maps(adult, timing)
    Q = random_states(5, seed=70)
    for bad in (Q, Q[:, :22], np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(str(np.shape(bad)))):
            maps.states(bad, np.array([0.3]))
    T_ds, T = timing.T_ds, timing.T_stride
    for ts in (np.linspace(0.0, T_ds, 4), np.linspace(T_ds + 1e-3, T, 4), np.array([T_ds]),
               np.array([])):
        for Q0 in (Q[0], Q.T):
            got = maps.states(Q0, ts)
            assert got.shape == (len(ts),) + Q0.shape
            for t, x in zip(ts, got):
                ref = maps.H(t) @ Q0
                assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref)), t



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_state_refused_by_entry(adult, timing, bad):
    """A non-finite entry of Q0 is refused by name, by the states of one
    state or a block and by the push end state, as the oracle refuses it,
    rather than carried into NaN states; the finite state beside it in a
    block does not hide it."""
    maps = stride_maps(adult, timing)
    good, Q0 = random_states(2, seed=71)
    Q0[3] = bad
    name = re.escape(f"Q0 entry 3 ({Q_NAMES[3]}) must be finite, got {bad}")
    for call in (lambda: maps.states(Q0, np.array([0.1, 0.5])),
                 lambda: maps.states(np.column_stack([good, Q0]), np.array([0.1])),
                 lambda: push_end_state(adult, timing, Q0, Push(0.1, 0.2, (5.0, 0.0, 0.0, 0.0)))):
        with pytest.raises(ValueError, match=name):
            call()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_push_end_state_of_a_block_matches_each_column(adult, timing, k):
    """A block Q0 (23, k) takes the push wrench in every column: its end
    states are the one-state calls' to roundoff, for k = 4 (where the
    wrench once landed along the wrong axis) as for any other k."""
    Q0 = random_states(k, seed=29).T
    push = Push(0.1, 0.2, (5.0, 1.0, 2.0, 3.0))
    block = push_end_state(adult, timing, Q0, push)
    each = np.column_stack([push_end_state(adult, timing, q, push) for q in Q0.T])
    assert block.shape == (23, k)
    assert np.max(np.abs(block - each)) <= 1e-12 * np.max(np.abs(each))


def test_dump_stride_maps(adult, timing, tmp_path):
    import json
    path = tmp_path / "maps.json"
    dump_stride_maps(adult, timing, path)
    data = json.loads(path.read_text())
    assert data["layout"][0] == "X2x" and data["layout"][-1] == "d"
    H = np.array(data["H_stride"])
    maps = stride_maps(adult, timing)
    assert H.shape == (Q_DIM, Q_DIM)
    assert np.allclose(H, maps.H_stride)
    assert np.allclose(np.array(data["Hprime_stride"]), maps.Hprime_stride)
    assert data["T_stride"] == pytest.approx(timing.T_stride)
