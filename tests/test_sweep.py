import math

import numpy as np
import pytest

import rabistark as rs
from rabistark.cli import sweep_csv
from rabistark.sweep import (
    ERR_INVALID_PARAMS,
    ERR_OK,
    ERR_ZERO_FLUX,
    AxisSpec,
    SweepSpec,
    evaluate_point,
    run_sweep,
    sign_transitions,
)

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
    with pytest.raises(rs.InvalidParameterError):
        AxisSpec("g", 0.0, 1.0, 1)
    with pytest.raises(rs.InvalidParameterError):
        small_spec(axis2=AxisSpec("g", 0.0, 1.0, 3))
    with pytest.raises(rs.InvalidParameterError):
        small_spec(observables=("g2", "bogus"))
    with pytest.raises(rs.InvalidParameterError):
        run_sweep(small_spec(), workers=0)


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


def test_convergence_flag():
    pt = evaluate_point(
        rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.0, n_tr=60),
        BASE_BATH, n_levels=20, check_convergence=True, delta_ntr=20,
    )
    assert pt.error_code == ERR_OK
    assert pt.converged

    rough = evaluate_point(
        rs.ModelParams(delta=1.0, g=1.5, r=1.0, u=0.0, n_tr=2),
        BASE_BATH, n_levels=6, check_convergence=True, delta_ntr=20,
    )
    assert not rough.converged


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
