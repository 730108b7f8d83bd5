import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import rabistark as rs
from rabistark.observables import DetectionOperator

from conftest import build_eigs, observables_pipeline, random_model, steady_pipeline

BATH = rs.BathParams()
N_TH = 1.0 / (math.exp(1.0 / 0.07) - 1.0)  # thermal occupation at gap 1, kT 0.07


def thermal_point(n_tr=60):
    model = rs.ModelParams(delta=1.0, g=1e-6, r=0.2, u=0.0, n_tr=n_tr)
    return observables_pipeline(model, BATH)


def test_detection_operator_structure():
    rng = np.random.default_rng(7)
    for _ in range(4):
        p = random_model(rng, n_tr=30)
        eigs = build_eigs(p)
        x = rs.detection_operator(eigs, rs.composite_position(p.n_tr), n_levels=12)
        assert np.max(np.abs(np.tril(x.xplus))) == 0.0
        ground = np.zeros(12)
        ground[0] = 1.0
        assert np.max(np.abs(x.xplus @ ground)) < 1e-10
        for j in range(12):
            for k in range(j + 1, 12):
                if eigs.parities[j] == eigs.parities[k]:
                    assert abs(x.xplus[j, k]) < 1e-10


def test_detection_operator_decoupled_entries():
    # Detuned near-decoupled model: within each qubit branch the gaps are
    # omega0 and the quadrature elements are sqrt(n), so the nonzero
    # entries are omega0 * sqrt(n).
    p = rs.ModelParams(delta=1.3, g=1e-6, r=0.2, u=0.0, n_tr=20)
    eigs = build_eigs(p)
    x = rs.detection_operator(eigs, rs.composite_position(p.n_tr), n_levels=8)
    entries = np.abs(x.xplus)
    nonzero = entries[entries > 1e-4]
    number_op = rs.composite_annihilation(p.n_tr).conj().T @ rs.composite_annihilation(p.n_tr)
    expected = []
    for level in range(8):
        n_ph = round(
            (eigs.states[:, level].conj() @ number_op @ eigs.states[:, level]).real
        )
        if n_ph >= 1:
            expected.append(math.sqrt(n_ph))
    assert np.allclose(np.sort(nonzero), np.sort(expected), atol=1e-4)


def test_flux_proxy_matches_matrix_product():
    rng = np.random.default_rng(13)
    for _ in range(4):
        p = random_model(rng, n_tr=40)
        eigs, table, ss, x, a = observables_pipeline(p, BATH, n_levels=16)
        direct = float(np.real(np.trace(
            np.diag(ss.populations) @ (x.xminus @ x.xplus)
        )))
        assert rs.flux_proxy(x, ss) == pytest.approx(direct, abs=1e-10, rel=1e-10)


def test_thermal_correlations():
    eigs, table, ss, x, a = thermal_point()
    assert rs.correlation_g_n(x, ss, eigs, 2) == pytest.approx(2.0, abs=1e-3)
    assert rs.correlation_g_n(x, ss, eigs, 3) == pytest.approx(6.0, abs=1e-2)
    # fourth order exists and follows n! to the same accuracy class
    assert rs.correlation_g_n(x, ss, eigs, 4) == pytest.approx(24.0, abs=1e-1)


def test_correlation_rejects_bad_order():
    eigs, table, ss, x, a = thermal_point(n_tr=30)
    with pytest.raises(rs.InvalidInputError):
        rs.correlation_g_n(x, ss, eigs, 1)
    with pytest.raises(rs.InvalidInputError):
        rs.correlation_g_n(x, ss, eigs, 5)


def test_zero_temperature_flux_error():
    model = rs.ModelParams(delta=1.0, g=0.8, r=0.5, u=0.2, n_tr=40)
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    eigs, table, ss, x, a = observables_pipeline(model, cold, n_levels=16)
    assert ss.populations[0] == 1.0
    with pytest.raises(rs.ZeroFluxError):
        rs.correlation_g_n(x, ss, eigs, 2)


def test_correlation_invariant_under_rescaling():
    model = rs.ModelParams(delta=1.0, g=0.6, r=0.3, u=0.1, n_tr=40)
    eigs, table, ss, x, a = observables_pipeline(model, BATH, n_levels=16)
    rng = np.random.default_rng(2)
    factor = complex(rng.normal(), rng.normal())
    scaled = x.rescaled(factor)
    for n in (2, 3):
        original = rs.correlation_g_n(x, ss, eigs, n)
        assert rs.correlation_g_n(scaled, ss, eigs, n) == pytest.approx(original, rel=1e-12)


def test_approx_g2_eta_definitions():
    model = rs.ModelParams(delta=1.0, g=0.4, r=0.2, u=0.2, n_tr=60)
    eigs, table, ss, x, a = observables_pipeline(model, BATH, n_levels=12)
    value, eta1, eta2 = rs.approx_g2(eigs, x, ss)
    d = rs.gaps(eigs)
    assert eta1 == pytest.approx(d[1, 0] - d[2, 1], abs=1e-12)
    assert eta2 == pytest.approx(d[1, 0] - d[3, 1], abs=1e-12)
    g3_value, eta3 = rs.approx_g3(eigs, x, 0.07)
    assert eta3 == pytest.approx(2 * d[1, 0] - d[2, 1] - d[3, 2], abs=1e-12)


def test_approx_g2_underflow_flag():
    model = rs.ModelParams(delta=1.0, g=0.4, r=0.2, u=0.2, n_tr=40)
    eigs = build_eigs(model)
    x = rs.detection_operator(eigs, rs.composite_position(model.n_tr), n_levels=8)
    frozen = rs.gibbs_state(eigs, 1e-4, n_levels=8)  # P1 underflows to zero
    value, eta1, eta2 = rs.approx_g2(eigs, x, frozen)
    assert math.isnan(value)
    assert math.isfinite(eta1) and math.isfinite(eta2)


def test_approx_g3_vanishes_when_first_pair_parity_matches():
    # Below the first excited crossing the two lowest excited states share
    # parity with each other's partner such that X12 = 0.
    model = rs.ModelParams(delta=1.0, g=0.2, r=0.2, u=0.2, n_tr=80)
    eigs, table, ss, x, a = observables_pipeline(model, BATH, n_levels=12)
    assert abs(x.xmat[1, 2]) < 1e-10
    value, eta3 = rs.approx_g3(eigs, x, 0.07)
    assert value < 1e-20


def test_single_path_regime_dominates_between_crossings():
    # Between the first excited crossing and the ground crossing the
    # cascade through consecutive levels carries essentially all of the
    # approximate two-photon weight.
    model = rs.ModelParams(delta=1.0, g=0.6, r=0.2, u=0.2, n_tr=80)
    eigs, table, ss, x, a = observables_pipeline(model, BATH, n_levels=12)
    e = eigs.energies
    ax = np.abs(x.xmat)
    p = ss.populations
    two_step = ((e[2] - e[0]) ** 2 * ax[0, 2] ** 2
                + (e[2] - e[1]) ** 2 * ax[1, 2] ** 2) \
        * (e[3] - e[2]) ** 2 * ax[2, 3] ** 2 * p[3] \
        + (e[1] - e[0]) ** 2 * ax[0, 1] ** 2 * (e[3] - e[1]) ** 2 * ax[1, 3] ** 2 * p[3]
    single_path = (e[1] - e[0]) ** 2 * ax[0, 1] ** 2 \
        * (e[2] - e[1]) ** 2 * ax[1, 2] ** 2 * p[2]
    assert single_path / (single_path + two_step) > 0.99


def test_approximants_diverge_at_ground_crossing():
    model = rs.ModelParams(delta=1.0, g=0.9065966869, r=0.2, u=0.2, n_tr=100)
    eigs, table, ss, x, a = observables_pipeline(model, BATH, n_levels=12)
    g2a, _, _ = rs.approx_g2(eigs, x, ss)
    g3a, _ = rs.approx_g3(eigs, x, 0.07)
    assert g2a > 1e3
    assert g3a > 1e3


def test_field_moments_thermal_and_symmetry():
    eigs, table, ss, x, a = thermal_point()
    assert np.max(np.abs(eigs.states.imag)) < 1e-12
    a_mean, n_photon, a_sq = rs.field_moments(ss, eigs, a)
    assert abs(a_mean) < 1e-10
    assert abs(a_sq.imag) < 1e-10
    assert n_photon == pytest.approx(N_TH, rel=0.05)
    # A complex field operator: a rotated by a phase keeps <a^dag a>.
    _, n_rotated, _ = rs.field_moments(ss, eigs, a * np.exp(0.3j))
    assert n_rotated == pytest.approx(n_photon, rel=1e-12)

    rng = np.random.default_rng(19)
    for _ in range(3):
        p = random_model(rng, n_tr=40)
        eigs, table, ss, x, a = observables_pipeline(p, BATH, n_levels=16)
        a_mean, n_photon, a_sq = rs.field_moments(ss, eigs, a)
        assert abs(a_mean) < 1e-10
        assert abs(a_sq.imag) < 1e-10
        assert n_photon >= 0


def test_squeezing_vacuum_limit():
    model = rs.ModelParams(delta=0.9, g=0.0, r=1.0, u=0.0, n_tr=20)
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    eigs, table, ss, x, a = observables_pipeline(model, cold, n_levels=8)
    xi, xi_closed, theta = rs.squeezing_factor(ss, eigs, a)
    assert xi == pytest.approx(1.0, abs=1e-9)
    assert xi_closed == pytest.approx(1.0, abs=1e-9)


def test_squeezing_thermal_limit():
    eigs, table, ss, x, a = thermal_point()
    xi, xi_closed, theta = rs.squeezing_factor(ss, eigs, a)
    assert xi == pytest.approx(1.0 + 2.0 * N_TH, abs=1e-8)


def test_squeezing_closed_form_agreement():
    rng = np.random.default_rng(37)
    for _ in range(6):
        p = random_model(rng, n_tr=50)
        eigs, table, ss, x, a = observables_pipeline(p, BATH, n_levels=24)
        moments = rs.field_moments(ss, eigs, a)
        xi, xi_closed, theta = rs.squeezing_factor(ss, eigs, a, moments=moments)
        a_mean, n_photon, a_sq = moments
        if a_sq.real >= 0:
            assert xi == pytest.approx(xi_closed, abs=1e-9)
        # theta convention: arg(<a^2>)/2 + pi/2
        assert theta == pytest.approx(cmath.phase(a_sq) / 2.0 + math.pi / 2.0, abs=1e-12)
        # explicit grid re-check against the analytic minimum
        base = 1.0 + 2.0 * (n_photon - abs(a_mean) ** 2)
        thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        grid = base + 2.0 * ((a_sq - a_mean**2) * np.exp(-2j * thetas)).real
        assert abs(grid.min() - xi) < 1e-9


def test_squeezed_region_exists_at_strong_coupling():
    model = rs.ModelParams(delta=1.0, g=0.8, r=0.5, u=0.0, n_tr=80)
    eigs, table, ss, x, a = observables_pipeline(model, BATH)
    xi, _, _ = rs.squeezing_factor(ss, eigs, a)
    assert xi < 1.0


moment = st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(moment, moment, st.floats(0.0, 10.0), moment, moment)
@example(0.0, 0.0, 0.1, 0.05 * math.cos(0.001), 0.05 * math.sin(0.001))  # off-grid minimum
def test_squeezing_minimum_matches_theta_minimization(a_re, a_im, n_photon, sq_re, sq_im):
    a_mean, a_sq = complex(a_re, a_im), complex(sq_re, sq_im)
    xi, _, _ = rs.squeezing_factor(None, None, None, moments=(a_mean, n_photon, a_sq))

    base = 1.0 + 2.0 * (n_photon - abs(a_mean) ** 2)
    centered = a_sq - a_mean**2

    def variance(theta):
        return base + 2.0 * (centered * cmath.exp(-2j * theta)).real

    thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    grid = base + 2.0 * (centered * np.exp(-2j * thetas)).real
    # The grid point nearest the true minimum brackets it within one step.
    best, step = thetas[np.argmin(grid)], thetas[1]
    found = minimize_scalar(variance, bounds=(best - step, best + step), method="bounded",
                            options={"xatol": 1e-10})
    scale = max(1.0, abs(base), abs(centered))
    assert abs(found.fun - xi) <= 1e-12 * scale
    assert np.all(xi <= grid + 1e-12 * scale)
