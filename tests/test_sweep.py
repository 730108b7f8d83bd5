import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import rabistark as rs
from rabistark import dissipation, observables, sweep
from rabistark.cli import sweep_csv
from rabistark.spectrum import edge_residuals, keeps_lowest_levels
from rabistark.sweep import (
    CERTIFY_TOL,
    CONVERGENCE_TOL,
    ERR_INVALID_PARAMS,
    ERR_NO_STEADY_STATE,
    ERR_NUMERIC,
    ERR_OK,
    ERR_ZERO_FLUX,
    AxisSpec,
    SweepSpec,
    evaluate_group,
    evaluate_point,
    run_sweep,
)

from conftest import sign_transitions

BASE_MODEL = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=40)
BASE_BATH = rs.BathParams()


def small_spec(**kwargs):
    defaults = dict(
        model=BASE_MODEL,
        bath=BASE_BATH,
        axis1=AxisSpec("g", 0.2, 1.0, 3),
        axis2=AxisSpec("r", 0.2, 1.6, 3),
        n_levels=20,
        check_convergence=False,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_axis_and_spec_validation():
    with pytest.raises(rs.InvalidParameterError):
        AxisSpec("delta", 0.0, 1.0, 5)
    with pytest.raises(rs.InvalidParameterError):
        AxisSpec("g", 1.0, 0.5, 5)
    for count in (1, 2.5, 3.0):     # a count is an integer, never rounded
        with pytest.raises(rs.InvalidParameterError):
            AxisSpec("g", 0.0, 1.0, count)
    with pytest.raises(rs.InvalidParameterError):
        small_spec(axis2=AxisSpec("g", 0.0, 1.0, 3))
    with pytest.raises(rs.InvalidParameterError):
        small_spec(observables=("g2", "bogus"))
    for n_levels in (2, 3):
        with pytest.raises(rs.InvalidParameterError, match="approx_g2/approx_g3"):
            small_spec(n_levels=n_levels)
    with pytest.raises(rs.InvalidParameterError):
        small_spec(n_levels=8.5)
    for workers in (0, 1.5):
        with pytest.raises(rs.InvalidParameterError):
            run_sweep(small_spec(), workers=workers)


def test_grid_is_row_major():
    result = run_sweep(small_spec(), workers=1)
    assert len(result.points) == 9
    g_values = np.linspace(0.2, 1.0, 3)
    r_values = np.linspace(0.2, 1.6, 3)
    for i in range(3):
        for j in range(3):
            pt = result[i, j]
            assert pt.model.g == g_values[i]
            assert pt.model.r == r_values[j]
            assert pt.error_code == ERR_OK


def test_grid_index_is_bounds_checked():
    # An index past an axis is an error, never another slot of the grid.
    line = run_sweep(small_spec(axis2=None), workers=1)
    assert line[2, 0].model.g == 1.0
    grid = run_sweep(small_spec(axis2=AxisSpec("kt", 0.05, 0.1, 2)), workers=1)
    assert grid[2, 1] is grid.points[5]
    for result, idx in ((line, (0, 1)), (line, (3, 0)), (grid, (0, 2)), (grid, (3, 0))):
        with pytest.raises(ValueError):
            result[idx]


def test_worker_counts_agree_exactly():
    spec = small_spec()
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=8)
    for a, b in zip(serial.points, parallel.points):
        assert a.error_code == b.error_code
        assert a.converged == b.converged
        assert a.near_degenerate == b.near_degenerate
        if a.report is None:
            assert b.report is None
            continue
        for name in ("g2", "g3", "g2_approx", "g3_approx", "xi_b2",
                     "n_photon", "flux_proxy", "eta1", "eta2", "eta3"):
            va, vb = getattr(a.report, name), getattr(b.report, name)
            assert va == vb or (np.isnan(va) and np.isnan(vb))


def test_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # A forked pool starts every worker at the first submit, so the pool size
    # is capped at the task count; no task, no pool.  The stand-in pool
    # records its size and maps in process.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    spec = small_spec(axis2=AxisSpec("kt", 0.05, 0.1, 2))     # 6 slots, 3 spectra
    assert sweep_csv(run_sweep(spec, workers=5000)) == sweep_csv(run_sweep(spec, workers=1))
    assert sizes == [6]
    invalid = small_spec(axis1=AxisSpec("u", 1.1, 1.5, 2), axis2=None)
    assert [pt.error_code for pt in run_sweep(invalid, workers=2).points] == [4, 4]
    assert sizes == [6]


def test_error_isolation_invalid_axis_points():
    # u axis reaching |u| >= omega0: those points are unphysical and must be
    # error-coded without aborting the sweep.
    spec = SweepSpec(
        model=BASE_MODEL,
        bath=BASE_BATH,
        axis1=AxisSpec("u", 0.5, 1.5, 3),
        n_levels=12,
        check_convergence=False,
    )
    result = run_sweep(spec, workers=1)
    codes = [pt.error_code for pt in result.points]
    assert codes[0] == ERR_OK
    assert codes[1] == ERR_INVALID_PARAMS  # u = 1.0
    assert codes[2] == ERR_INVALID_PARAMS  # u = 1.5
    assert result.points[0].report is not None
    assert result.points[1].report is None


def test_invalid_grid_points_report_their_coordinates():
    spec = SweepSpec(
        model=BASE_MODEL,
        bath=BASE_BATH,
        axis1=AxisSpec("u", -1.2, 0.0, 3),
        axis2=AxisSpec("kt", 0.05, 0.1, 2),
        n_levels=12,
        check_convergence=False,
    )
    result = run_sweep(spec, workers=1)
    codes = [pt.error_code for pt in result.points]
    assert codes == [ERR_INVALID_PARAMS] * 2 + [ERR_OK] * 4
    assert result.points[0].model is None and result.points[0].bath is None
    rows = [line.split(",") for line in sweep_csv(result).strip().split("\n")[1:]]
    assert [row[2:4] for row in rows] == [
        ["-1.2", "0.05"], ["-1.2", "0.1"], ["-0.6", "0.05"], ["-0.6", "0.1"],
        ["0", "0.05"], ["0", "0.1"],
    ]
    assert [row[0] for row in rows] == ["0.5"] * 6
    assert [row[-1] for row in rows] == [str(c) for c in codes]


def test_non_finite_parameters_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(rs.InvalidParameterError):
            rs.ModelParams(delta=1.0, g=bad)
        with pytest.raises(rs.InvalidParameterError):
            rs.ModelParams(delta=bad)
        with pytest.raises(rs.InvalidParameterError):
            rs.BathParams(kt_q=bad)
        with pytest.raises(rs.InvalidParameterError):
            rs.BathParams(alpha_c=bad)
        with pytest.raises(rs.InvalidParameterError):
            AxisSpec("g", 0.0, bad, 3)
        with pytest.raises(rs.InvalidParameterError):
            AxisSpec("g", bad, 1.0, 3)
    with pytest.raises(rs.InvalidParameterError):
        AxisSpec("g", -1e308, 1.7e308, 3)  # finite bounds, overflowing span
    huge = 10**400  # an int no float can hold
    with pytest.raises(rs.InvalidParameterError):
        rs.ModelParams(delta=1.0, g=huge)
    with pytest.raises(rs.InvalidParameterError):
        rs.BathParams(kt_q=huge)
    with pytest.raises(rs.InvalidParameterError):
        AxisSpec("g", 0, huge, 3)
    with pytest.raises(rs.InvalidParameterError):
        AxisSpec("g", -(10**308), 10**308, 3)  # finite int bounds, overflowing span

    # A grid point rebuilt from a non-finite value is invalid, not a solver failure.
    base = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=20)
    object.__setattr__(base, "g", math.nan)
    spec = SweepSpec(model=base, bath=BASE_BATH, axis1=AxisSpec("r", 0.2, 0.4, 2),
                     n_levels=8, check_convergence=False)
    result = run_sweep(spec, workers=1)
    assert [pt.error_code for pt in result.points] == [ERR_INVALID_PARAMS] * 2


def test_overflowing_hamiltonian_is_invalid_params():
    # g passes validation, but g*sqrt(n) overflows a double on the chain.
    pt = evaluate_point(rs.ModelParams(delta=1.0, g=1e308, n_tr=40), BASE_BATH)
    assert pt.error_code == ERR_INVALID_PARAMS
    assert pt.report is None


OVERFLOW_MODEL = rs.ModelParams(delta=1.0, g=0.5, r=0.5, n_tr=10)
OVERFLOW_BATH = rs.BathParams(alpha_q=1e160, alpha_c=1e160)


@pytest.mark.parametrize("model, bath", [
    (OVERFLOW_MODEL, OVERFLOW_BATH),
    (replace(OVERFLOW_MODEL, omega0=1e-160), rs.BathParams()),
])
def test_overflowing_elimination_is_a_numeric_failure(model, bath):
    # Rates near the top of the float range overflow the GTH elimination to
    # inf and NaN: the bath has no steady state to report, not an empty row
    # marked OK.
    pt = evaluate_point(model, bath, n_levels=12)
    assert (pt.error_code, pt.report, pt.converged) == (ERR_NUMERIC, None, False)
    assert "overflow" in pt.error_message


def test_overflowing_bath_leaves_its_group_alone():
    # A normal bath next to an overflowing one keeps its own bits, in either
    # order, and so do its populations in the stacked elimination.
    normal = rs.BathParams()
    alone = evaluate_point(OVERFLOW_MODEL, normal, n_levels=12)
    assert alone.error_code == ERR_OK
    for baths in ([normal, OVERFLOW_BATH], [OVERFLOW_BATH, normal]):
        points = evaluate_group(OVERFLOW_MODEL, baths, n_levels=12)
        assert [pt.error_code for pt in points] == [
            ERR_OK if b is normal else ERR_NUMERIC for b in baths]
        assert points[baths.index(normal)] == alone
    eigs = rs.eigensystem(OVERFLOW_MODEL, 12)
    state = rs.steady_populations(rs.transition_rates(eigs, OVERFLOW_MODEL, [normal, OVERFLOW_BATH]))
    solo = rs.steady_populations(rs.transition_rates(eigs, OVERFLOW_MODEL, [normal]))
    assert np.array_equal(state.populations[0], solo.populations[0])
    assert state.errors[0] is None and isinstance(state.errors[1], rs.NumericFailureError)
    assert np.isnan(state.populations[1]).all()


@pytest.mark.parametrize("n_levels", [1, 2, 3, 2.5, 20.0, math.nan, math.inf])
def test_invalid_level_count_is_error_code_4(n_levels):
    # Not cut to an integer, and not an uncaught ValueError or OverflowError.
    pt = evaluate_point(BASE_MODEL, BASE_BATH, n_levels=n_levels)
    assert (pt.error_code, pt.report, pt.converged) == (ERR_INVALID_PARAMS, None, False)


def test_zero_temperature_points_are_zero_flux():
    spec = SweepSpec(
        model=BASE_MODEL,
        bath=BASE_BATH,
        axis1=AxisSpec("kt", 0.0, 0.1, 3),
        n_levels=12,
        check_convergence=False,
    )
    result = run_sweep(spec, workers=1)
    assert result.points[0].error_code == ERR_ZERO_FLUX
    assert result.points[0].report is None
    assert result.points[1].error_code == ERR_OK
    assert result.points[2].error_code == ERR_OK


def test_near_degeneracy_flag_at_ground_crossing():
    gc = 0.9065966869
    spec = SweepSpec(
        model=rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=60),
        bath=BASE_BATH,
        axis1=AxisSpec("g", gc - 0.1, gc + 0.1, 5),
        n_levels=16,
        check_convergence=False,
    )
    result = run_sweep(spec, workers=1)
    flags = [pt.near_degenerate for pt in result.points]
    assert flags[2]  # center of the window sits on the crossing
    assert any(not f for f in flags)


def counting(monkeypatch, name, module=sweep):
    """Replace module.<name> by a wrapper that logs each call's first argument."""
    calls, real = [], getattr(module, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_convergence_flag(monkeypatch):
    resolved = counting(monkeypatch, "_n_photon_at")
    monkeypatch.setattr(sweep, "CONVERGENCE_DELTA_NTR", 20)
    pt = evaluate_point(
        rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.0, n_tr=60),
        BASE_BATH, n_levels=20, check_convergence=True,
    )
    assert pt.error_code == ERR_OK
    assert pt.converged
    assert resolved == []       # cleared by the edge certificate

    # At n_tr=2 every level is in use, so the certificate cannot clear the
    # point: it is re-solved at n_tr=22 and reads unconverged.
    rough = evaluate_point(
        rs.ModelParams(delta=1.0, g=1.5, r=1.0, u=0.0, n_tr=2),
        BASE_BATH, n_levels=6, check_convergence=True,
    )
    assert not rough.converged
    assert [[m.n_tr for m, _ in groups] for groups in resolved] == [[22]]

    # A truncation that does not grow is never certified, only re-solved.
    monkeypatch.setattr(sweep, "CONVERGENCE_DELTA_NTR", 0)
    same = evaluate_point(
        rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.0, n_tr=60),
        BASE_BATH, n_levels=20, check_convergence=True,
    )
    assert same.converged
    assert [[m.n_tr for m, _ in groups] for groups in resolved] == [[22], [60]]


@settings(max_examples=200, deadline=None)
@given(
    n_tr=st.integers(8, 300),   # past 158, eigensystem tries a head of the chains
    g=st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
    r=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    u=st.floats(-0.9, 0.9),
    kt=st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.02, 0.5)),
    n_levels=st.integers(2, 40),
)
@example(n_tr=16, g=0.0, r=1.547, u=-0.766, kt=0.45, n_levels=40)   # w = 0, unconverged
def test_certified_points_pass_the_resolve(n_tr, g, r, u, kt, n_levels):
    # Certified (no re-solve made) implies the n_tr+40 re-solve converges.
    model = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    bath = rs.BathParams(kt_q=kt, kt_c=kt)
    with pytest.MonkeyPatch.context() as mp:
        resolved = counting(mp, "_n_photon_at")
        pt = evaluate_point(model, bath, n_levels=n_levels)
    event("re-solved" if resolved else f"error {pt.error_code}" if pt.error_code else "certified")
    if pt.error_code != ERR_OK or resolved:
        return
    eigs = rs.eigensystem(model, n_levels)
    event("certified on a head" if eigs.states.shape[0] < n_tr + 1 else "certified, whole chains")
    table = rs.transition_rates(eigs, model, [bath])
    populations = rs.steady_populations(table).populations[0]
    w = (n_tr + 1) * float(populations @ edge_residuals(model, eigs))
    assert w <= CERTIFY_TOL
    assert pt.converged is True
    [[bigger]] = sweep._n_photon_at([(model.with_n_tr(n_tr + 40), [bath])], populations.size)
    scale = max(abs(pt.report.n_photon), abs(bigger))
    assert abs(bigger - pt.report.n_photon) < CONVERGENCE_TOL * (scale if scale >= 1e-6 else 1.0)


def test_decoupled_chain_is_not_certified_by_the_edge_alone(monkeypatch):
    # At g=0 the edge residual is 0, yet the sites past n_tr are low levels
    # of their own (u=-0.766 puts |n, e> at 0.5 + 0.234 n), so the re-solve
    # moves the photon number; the level count keeps the point uncertified.
    model = rs.ModelParams(delta=1.0, g=0.0, r=1.547, u=-0.766, n_tr=16)
    bath = rs.BathParams(kt_q=0.45, kt_c=0.45)
    eigs = rs.eigensystem(model, 20)
    assert not edge_residuals(model, eigs).any()
    assert not keeps_lowest_levels(model, eigs, 40)
    resolved = counting(monkeypatch, "_n_photon_at")
    pt = evaluate_point(model, bath, n_levels=40)
    assert resolved and pt.converged is False


def test_certified_point_solves_no_larger_spectrum(monkeypatch):
    solved = counting(monkeypatch, "eigensystem")
    model = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=40)
    pt = evaluate_point(model, BASE_BATH, n_levels=20)
    assert pt.error_code == ERR_OK and pt.converged is True
    assert solved == [model]


def test_failed_level_count_falls_back_to_the_resolve(monkeypatch):
    # A dstebz failure in the level count leaves the point uncleared, never
    # raised: the n_tr+40 re-solve decides the flag.  eigensystem calls no
    # dstebz, so the rest of the row is unchanged.
    model = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=40)
    eigs = rs.eigensystem(model, 20)
    assert keeps_lowest_levels(model, eigs, 40)
    cleared = evaluate_point(model, BASE_BATH, n_levels=20)
    monkeypatch.setattr(rs.spectrum, "dstebz", lambda *args: (0, np.empty(3), None, None, 1))
    assert keeps_lowest_levels(model, eigs, 40) is False
    resolved = counting(monkeypatch, "_n_photon_at")
    pt = evaluate_point(model, BASE_BATH, n_levels=20)
    assert pt.error_code == ERR_OK and pt.converged is True and len(resolved) == 1
    assert pt.report == cleared.report


def test_non_finite_certificate_falls_back_to_the_resolve(monkeypatch):
    # Huge couplings run without a RuntimeWarning (warnings fail the suite):
    # the residuals stay finite, the level count declines, and a certificate
    # overflowing to inf, or a NaN one, counts as uncertified.
    huge = rs.ModelParams(delta=1.0, g=1e300, n_tr=40)
    eigs = rs.eigensystem(huge, 20)
    assert np.isfinite(edge_residuals(huge, eigs)).all()
    assert not keeps_lowest_levels(huge, eigs, 40)
    failed = evaluate_point(huge, BASE_BATH, n_levels=20)
    assert failed.error_code == ERR_NO_STEADY_STATE and failed.converged is False
    wide = rs.ModelParams(delta=1.0, g=1e306, n_tr=200)
    populations = np.full(20, 0.05)    # evaluate_point's sum, in Python floats
    w = (wide.n_tr + 1) * float(populations @ edge_residuals(wide, rs.eigensystem(wide, 20)))
    assert w == math.inf and not w <= CERTIFY_TOL

    model = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=40)
    resolved = counting(monkeypatch, "_n_photon_at")
    for bad in (math.nan, math.inf):
        monkeypatch.setattr(sweep, "edge_residuals", lambda p, e: np.full(e.n_levels, bad))
        assert evaluate_point(model, BASE_BATH, n_levels=20).converged is True
    assert len(resolved) == 2


def test_unchecked_convergence_is_none():
    # None means "not checked"; False stays "did not converge" (or failed).
    model = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.0, n_tr=30)
    pt = evaluate_point(model, BASE_BATH, n_levels=12, check_convergence=False)
    assert pt.error_code == ERR_OK and pt.converged is None
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    for check, expected in ((False, None), (True, False)):
        failed = evaluate_point(model, cold, n_levels=12, check_convergence=check)
        assert failed.error_code != ERR_OK and failed.converged is expected
        spec = SweepSpec(model=model, bath=BASE_BATH, axis1=AxisSpec("u", 0.5, 1.5, 3),
                         n_levels=12, check_convergence=check)
        assert run_sweep(spec, workers=1).points[-1].converged is expected


def test_sign_transitions_counting():
    result = run_sweep(
        SweepSpec(model=BASE_MODEL, bath=BASE_BATH,
                  axis1=AxisSpec("g", 0.2, 1.0, 5),
                  n_levels=12, check_convergence=False),
        workers=1,
    )
    # constant column: flux_proxy > 0 everywhere, so threshold 0 never flips
    count, locations = sign_transitions(result, "flux_proxy", 0.0)
    assert count == 0 and locations == []

    # synthetic alternating column exercises the counting rules
    for pt, value in zip(result.points, (0.5, 2.0, 0.7, 1.0, 0.2)):
        pt.report.g2 = value
    count, locations = sign_transitions(result, "g2", 1.0)
    assert count == 2  # the exact-threshold row is skipped
    assert locations == [pytest.approx(0.4), pytest.approx(0.6)]

    # error rows are skipped entirely
    result.points[1].report = None
    count, _ = sign_transitions(result, "g2", 1.0)
    assert count == 0


def test_sign_transitions_rejects_2d():
    result = run_sweep(small_spec(), workers=1)
    with pytest.raises(rs.InvalidInputError):
        sign_transitions(result, "g2", 1.0)
    result1d = run_sweep(
        SweepSpec(model=BASE_MODEL, bath=BASE_BATH,
                  axis1=AxisSpec("g", 0.2, 0.6, 2),
                  n_levels=8, check_convergence=False),
        workers=1,
    )
    with pytest.raises(rs.InvalidInputError):
        sign_transitions(result1d, "not_a_column", 1.0)


def test_kt_axis_sets_both_bath_temperatures():
    spec = SweepSpec(
        model=BASE_MODEL, bath=BASE_BATH,
        axis1=AxisSpec("kt", 0.05, 0.15, 2),
        n_levels=8, check_convergence=False,
    )
    model, bath = spec.point_params(1, 0)
    assert bath.kt_q == 0.15 and bath.kt_c == 0.15
    assert model == BASE_MODEL


@pytest.mark.parametrize("check", [True, False])
def test_grouped_slots_equal_standalone_points(check):
    # A random u x kt grid with |u| >= 1 rows and a kT=0 column: every slot of
    # the grouped sweep is the standalone evaluate_point result, field for
    # field, and the CSV does not depend on the worker count.
    rng = np.random.default_rng(7 + check)
    u_max = float(rng.uniform(1.0, 1.4))
    spec = SweepSpec(
        model=rs.ModelParams(delta=1.0, g=float(rng.uniform(0.3, 1.2)),
                             r=float(rng.uniform(0.0, 1.5)), n_tr=16),
        bath=BASE_BATH,
        axis1=AxisSpec("u", -u_max, u_max, 5),
        axis2=AxisSpec("kt", 0.0, float(rng.uniform(0.05, 0.3)), 3),
        n_levels=10,
        check_convergence=check,
    )
    result = run_sweep(spec, workers=1)
    codes = {pt.error_code for pt in result.points}
    assert {ERR_OK, ERR_ZERO_FLUX, ERR_INVALID_PARAMS} <= codes
    for i in range(5):
        for j in range(3):
            got = result[i, j]
            try:
                model, bath = spec.point_params(i, j)
            except rs.InvalidParameterError as exc:
                assert (got.model, got.report, got.error_code) == (None, None, ERR_INVALID_PARAMS)
                assert got.error_message == str(exc)
                assert got.converged is (False if check else None)
                continue
            want = evaluate_point(model, bath, n_levels=10, check_convergence=check)
            assert repr(got) == repr(want)   # repr compares NaN fields too
    assert sweep_csv(result) == sweep_csv(run_sweep(spec, workers=2))


@pytest.mark.parametrize("check", [True, False])
def test_sweep_solves_each_spectrum_once(monkeypatch, check):
    # Every slot is cleared by the edge certificate, so even with the check
    # on no n_tr+40 spectrum is solved.
    solved = counting(monkeypatch, "eigensystem")
    spec = small_spec(axis2=AxisSpec("kt", 0.02, 0.2, 4), check_convergence=check)
    result = run_sweep(spec, workers=1)
    assert all(pt.error_code == ERR_OK for pt in result.points)
    models = {pt.model for pt in result.points}
    assert len(models) == 3
    assert len(solved) == len(models) and set(solved) == models


def test_uncertified_slots_solve_the_larger_spectrum_once(monkeypatch):
    # The grid of golden case n_tr_6_resolved: at n_tr=6 all 14 levels are in
    # use, so no slot is certified and each group solves its n_tr+40
    # spectrum once for all of its baths.  The task re-solves the 12 baths
    # of its 3 groups together: one _n_photon_at call, and one n_tr=46
    # elimination of 12 rows after the n_tr=6 one.
    solved = counting(monkeypatch, "eigensystem")
    resolved = counting(monkeypatch, "_n_photon_at")
    rates = counting(monkeypatch, "transition_rates")
    stacks = counting(monkeypatch, "steady_populations")
    spec = small_spec(model=replace(BASE_MODEL, n_tr=6), n_levels=14,
                      axis2=AxisSpec("kt", 0.02, 0.2, 4), check_convergence=True)
    result = run_sweep(spec, workers=1)
    assert all(pt.error_code == ERR_OK for pt in result.points)
    assert all(pt.converged is not None for pt in result.points)
    models = {pt.model for pt in result.points}
    expected = models | {m.with_n_tr(m.n_tr + 40) for m in models}
    assert len(solved) == len(expected) == 6 and set(solved) == expected
    assert [[m.n_tr for m, _ in groups] for groups in resolved] == [[46] * 3]
    assert [eigs.dim for eigs in rates] == [14] * 3 + [94] * 3   # 2 (n_tr + 1) levels
    assert [table.rate.shape[0] for table in stacks] == [12, 12]


def test_one_dimensional_kt_sweep_is_worker_independent():
    # One model, so the pool splits its single group into pieces.
    spec = SweepSpec(model=BASE_MODEL, bath=BASE_BATH, axis1=AxisSpec("kt", 0.0, 0.2, 7),
                     n_levels=12, check_convergence=True)
    assert sweep_csv(run_sweep(spec, workers=1)) == sweep_csv(run_sweep(spec, workers=2))


@pytest.mark.parametrize("n_tr, n_levels, resolves", [(40, 20, False), (6, 14, True)])
def test_bath_independent_work_runs_once_per_spectrum(monkeypatch, n_tr, n_levels, resolves):
    # A u x kT grid: |u| >= 1 rows, and per model a kT=0 bath and three warm ones.
    # Per spectrum, not per slot: the rate table and X+ take the matrix
    # elements once each (an n_tr+40 spectrum builds no X+), the truncation
    # check runs at most once per group, and X+^n (n = 1, 2, 3) once per
    # solved spectrum.  At n_tr=6 every warm slot misses the certificate;
    # the task re-solves all nine together, in one call.
    rates = counting(monkeypatch, "parity_odd_elements", dissipation)
    detection = counting(monkeypatch, "parity_odd_elements", observables)
    checked = counting(monkeypatch, "keeps_lowest_levels")
    powers = counting(monkeypatch, "matrix_power", np.linalg)
    resolved = counting(monkeypatch, "_n_photon_at")
    spec = SweepSpec(model=replace(BASE_MODEL, n_tr=n_tr), bath=BASE_BATH,
                     axis1=AxisSpec("u", -1.2, 1.2, 5), axis2=AxisSpec("kt", 0.0, 0.2, 4),
                     n_levels=n_levels, check_convergence=True)
    result = run_sweep(spec, workers=1)
    assert [pt.error_code for pt in result.points].count(ERR_OK) == 9
    models = {pt.model for pt in result.points if pt.model is not None}
    assert len(models) == 3
    assert [len(groups) for groups in resolved] == ([len(models)] if resolves else [])
    spectra = len(models) * (2 if resolves else 1)
    assert len(rates) == len({id(e) for e in rates}) == spectra
    assert len(detection) == len({id(e) for e in detection}) == len(models)
    assert {id(e) for e in detection} <= {id(e) for e in rates}
    # A re-solved slot fails the edge certificate before the level check.
    assert len(checked) == len(set(checked)) and set(checked) == (set() if resolves else models)
    assert len(powers) == 3 * len(models) and len({id(x) for x in powers}) == len(models)


@pytest.mark.parametrize("n_tr, n_levels, resolves", [(40, 20, False), (6, 14, True)])
def test_observables_run_once_per_group(monkeypatch, n_tr, n_levels, resolves):
    # A 7-bath group, one bath at kT=0: the observables are one pass over the
    # emitting baths' rows, and the field diagonals are taken once per solved
    # spectrum (the group's, and the n_tr+40 one when its baths miss the
    # certificate), not once per bath; the flux once, for the zero-flux
    # test and the pass.  No bath is taken out of the stack.
    diagonals = counting(monkeypatch, "field_diagonals", observables)
    passes = counting(monkeypatch, "_report")
    fluxes = counting(monkeypatch, "flux_proxy")

    def of_bath(self, b):
        raise AssertionError("evaluate_group took a bath out of the stack")

    monkeypatch.setattr(dissipation.SteadyState, "of_bath", of_bath)
    baths = [replace(BASE_BATH, kt_q=kt, kt_c=kt) for kt in (0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2)]
    results = evaluate_group(replace(BASE_MODEL, n_tr=n_tr), baths, n_levels=n_levels)
    assert [pt.error_code for pt in results] == [ERR_ZERO_FLUX] + [ERR_OK] * 6
    assert all(pt.converged is not None for pt in results)
    assert len(passes) == len(fluxes) == 1
    assert len(diagonals) == len({id(e) for e in diagonals}) == (2 if resolves else 1)
    assert diagonals[0] is passes[0]


def test_empty_group_has_no_results():
    assert evaluate_group(BASE_MODEL, []) == []


def test_group_without_a_steady_state_builds_no_detection_operator(monkeypatch):
    built = counting(monkeypatch, "detection_operator")
    huge = rs.ModelParams(delta=1.0, g=1e300, n_tr=40)
    results = evaluate_group(huge, [BASE_BATH, replace(BASE_BATH, kt_q=0.2)], n_levels=20)
    assert [pt.error_code for pt in results] == [ERR_NO_STEADY_STATE] * 2
    assert built == []


@pytest.mark.parametrize("g", [1e150, 1e300])
def test_cold_bath_at_huge_coupling_reports_zero_flux(g):
    # The kT=0 ground state gets X+, whose powers overflow at this coupling
    # (at 1e300 its emission norms are inf on the empty levels): the point
    # still reports zero flux, and without a RuntimeWarning.
    huge = rs.ModelParams(delta=1.0, g=g, n_tr=40)
    pt = evaluate_point(huge, rs.BathParams(kt_q=0.0, kt_c=0.0), n_levels=20)
    assert pt.error_code == ERR_ZERO_FLUX


@settings(max_examples=60, deadline=None)
@given(
    n_tr=st.integers(2, 30),
    g=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.9, 0.9),
    baths=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
                             st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
                             st.integers(4, 70)), min_size=1, max_size=9),
    check=st.booleans(),
)
@example(n_tr=2, g=1.5, r=1.0, u=0.0, baths=[(0.07, 0.07, 6), (0.0, 0.0, 6), (0.2, 0.0, 4)],
         check=True)
def test_shared_spectrum_matches_standalone_points(n_tr, g, r, u, baths, check):
    # All baths, in the drawn order, as one group at each drawn level count,
    # solved in stacks of 4 or fewer: each bath gets its standalone (group of
    # one) result.
    model = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    group = [rs.BathParams(kt_q=kt_q, kt_c=kt_c) for kt_q, kt_c, _ in baths]
    for n_levels in {n for _, _, n in baths}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "STACK_BATHS", 4)
            shared = evaluate_group(model, group, n_levels=n_levels, check_convergence=check)
        for bath, got in zip(group, shared, strict=True):
            alone = evaluate_point(model, bath, n_levels=n_levels, check_convergence=check)
            assert repr(got) == repr(alone)


def test_resolve_uses_the_levels_of_the_base_solve(monkeypatch):
    # n_levels beyond the model's 26 levels: the n_tr+40 re-solve (every
    # level is in use, so the point is not certified) keeps the same 26.
    solved, real = [], sweep.transition_rates

    def recording(eigs, model, baths):
        table = real(eigs, model, baths)
        solved.append((model.n_tr, table.n_levels))
        return table

    monkeypatch.setattr(sweep, "transition_rates", recording)
    model = rs.ModelParams(delta=1, g=0.5, r=0.5, u=0.1, n_tr=12)
    pt = evaluate_point(model, rs.BathParams(), n_levels=40)
    assert pt.error_code == ERR_OK and pt.converged is not None
    assert solved == [(12, 26), (52, 26)]


def _task_groups(n_tr, drawn):
    """(model, baths) groups sharing n_tr, from drawn (g, r, u, [(kt_q, kt_c)])."""
    return [(rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr),
             [rs.BathParams(kt_q=kt_q, kt_c=kt_c) for kt_q, kt_c in temps])
            for g, r, u, temps in drawn]


# Groups of a task: warm and kT=0 baths, unequal reservoirs, and couplings
# with no steady state (1e300) or no spectrum (1e308, its chain overflows).
TASK_GROUPS = st.lists(st.tuples(
    st.one_of(st.floats(0.0, 2.0), st.sampled_from([1e300, 1e308])),
    st.floats(0.0, 2.0),
    st.floats(-0.9, 0.9),
    st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
                       st.one_of(st.just(0.0), st.floats(0.0, 0.5))), min_size=1, max_size=6),
), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(n_tr=st.integers(4, 30), n_levels=st.integers(4, 40), stack=st.integers(1, 6),
       drawn=TASK_GROUPS)
def test_stacked_populations_equal_per_group_solves(n_tr, n_levels, stack, drawn):
    # Stacks of 1-6 rows straddle the groups; each group's populations and
    # errors are those of its own table solved alone.  A group with no
    # spectrum is returned as failed and adds no rows to the stack.
    groups = _task_groups(n_tr, drawn)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "STACK_BATHS", stack)
        solved, failed = sweep._solve_stage(groups, n_levels)
    assert sorted([k for k, _, _ in solved] + [k for k, _ in failed]) == list(range(len(groups)))
    for k, eigs, state in solved:
        model, baths = groups[k]
        alone = rs.steady_populations(rs.transition_rates(eigs, model, baths))
        assert np.array_equal(state.populations, alone.populations, equal_nan=True)
        assert [repr(err) for err in state.errors] == [repr(err) for err in alone.errors]


@settings(max_examples=60, deadline=None)
@given(n_tr=st.integers(4, 24), n_levels=st.integers(4, 30), stack=st.integers(3, 5),
       drawn=TASK_GROUPS, check=st.booleans())
@example(n_tr=8, n_levels=12, stack=3, check=True, drawn=[
    (0.5, 0.5, 0.1, [(0.0, 0.0), (0.07, 0.07)]), (1e300, 0.0, 0.0, [(0.07, 0.07), (0.2, 0.0)]),
    (1e308, 0.0, 0.0, [(0.1, 0.1)]), (1.2, 1.0, -0.3, [(0.05, 0.3), (0.0, 0.0), (0.1, 0.1)])])
@example(n_tr=8, n_levels=2.5, stack=3, check=True, drawn=[   # the level count fails
    (0.5, 0.5, 0.1, [(0.07, 0.07)] * 4), (1e308, 0.0, 0.0, [(0.1, 0.1)]), (0.9, 0.2, 0.2, [(0.1, 0.1)])])
def test_task_results_equal_each_group_alone(n_tr, n_levels, stack, drawn, check):
    # A task of several groups, solved in stacks of 3-5 that straddle them:
    # every result is the one evaluate_group gives its group on its own.
    groups = _task_groups(n_tr, drawn)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "STACK_BATHS", stack)
        got = sweep._evaluate_groups(groups, n_levels, check)
    want = [pt for model, baths in groups
            for pt in evaluate_group(model, baths, n_levels=n_levels, check_convergence=check)]
    assert [repr(pt) for pt in got] == [repr(pt) for pt in want]
    event(", ".join(sorted({f"error {pt.error_code}" for pt in got})))


def test_gkt_grid_solves_one_elimination_per_task(monkeypatch):
    # The (g, kT) grid of the benchmark: 16 models of 8 baths, a kT=0 column
    # among them, all cleared by the certificate.  The groups pack into tasks
    # of up to STACK_BATHS baths, so a task holds the spectra of one stack,
    # one elimination each, and each model's spectrum is solved once.
    solved = counting(monkeypatch, "eigensystem")
    stacks = counting(monkeypatch, "steady_populations")
    tasks = counting(monkeypatch, "_evaluate_groups")
    spec = SweepSpec(model=rs.ModelParams(delta=1.0, r=0.2, u=0.2, n_tr=60), bath=BASE_BATH,
                     axis1=AxisSpec("g", 0.05, 1.2, 16), axis2=AxisSpec("kt", 0.0, 0.2, 8))
    result = run_sweep(spec, workers=1)
    assert [pt.error_code for pt in result.points].count(ERR_ZERO_FLUX) == 16
    models = {pt.model for pt in result.points}
    assert len(solved) == len(models) == 16 and set(solved) == models
    rows = [table.rate.shape[0] for table in stacks]
    assert len(rows) == math.ceil(128 / sweep.STACK_BATHS)
    assert sum(rows) == 128 and max(rows) <= sweep.STACK_BATHS
    assert [sum(len(baths) for _, baths in groups) for groups in tasks] == rows


def test_one_bath_sweep_task_holds_only_the_levels_in_use(monkeypatch):
    # 33 one-bath groups at n_tr = 200: the first task holds 32 spectra at
    # once.  Each keeps the 40 state columns the pipeline reads, not all
    # 402, so the sweep peaks near 4 MB where full spectra took ~22 MB.
    kept = []
    real = sweep.eigensystem

    def wrapper(*args):
        eigs = real(*args)
        kept.append(eigs.states.shape[1])
        return eigs

    monkeypatch.setattr(sweep, "eigensystem", wrapper)
    spec = SweepSpec(model=rs.ModelParams(delta=1.0, r=0.7, u=0.2, n_tr=200), bath=BASE_BATH,
                     axis1=AxisSpec("g", 0.1, 1.5, 33), n_levels=40)
    tracemalloc.start()
    try:
        result = run_sweep(spec, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [pt.error_code for pt in result.points] == [ERR_OK] * 33
    assert len(kept) >= 33 and set(kept) == {40}
    assert peak < 13e6


def test_sweep_takes_each_axis_once(monkeypatch):
    # point_params builds both axes for its one slot; run_sweep builds each
    # axis once for the whole grid.
    grids = counting(monkeypatch, "linspace", np)
    axes = counting(monkeypatch, "values", AxisSpec)
    result = run_sweep(small_spec(axis2=AxisSpec("kt", 0.02, 0.2, 4)), workers=1)
    assert len(result.points) == 12
    assert len(grids) == len(axes) == 2


def test_sweep_builds_each_model_and_bath_once(monkeypatch):
    # A (g, kT) grid of 16 x 8 slots holds 16 models and 8 baths, each built
    # (and validated) once.  An invalid model is built again at each of its
    # slots and fails there: error code 4 with its own message.
    built = counting(monkeypatch, "replace")
    model = rs.ModelParams(delta=1.0, r=0.2, u=0.2, n_tr=8)
    spec = SweepSpec(model=model, bath=BASE_BATH, axis1=AxisSpec("g", 0.05, 1.2, 16),
                     axis2=AxisSpec("kt", 0.0, 0.2, 8), n_levels=8, check_convergence=False)
    result = run_sweep(spec, workers=1)
    assert len(result.points) == 128 and len({pt.model for pt in result.points}) == 16
    assert built.count(model) == 16 and built.count(BASE_BATH) == 8
    built.clear()
    spec = SweepSpec(model=model, bath=BASE_BATH, axis1=AxisSpec("u", -1.2, 1.2, 5),
                     axis2=AxisSpec("kt", 0.05, 0.15, 3), n_levels=8, check_convergence=False)
    result = run_sweep(spec, workers=1)
    with pytest.raises(rs.InvalidParameterError) as low:
        replace(model, u=-1.2)
    codes = [pt.error_code for pt in result.points]
    assert codes[:3] == codes[-3:] == [ERR_INVALID_PARAMS] * 3
    assert ERR_INVALID_PARAMS not in codes[3:-3]
    assert {pt.error_message for pt in result.points[:3]} == {str(low.value)}
    assert built.count(model) == 6 + 3 and built.count(BASE_BATH) == 3
