import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import rabistark as rs
from rabistark.observables import ZERO_FLUX_THRESHOLD

from conftest import (
    build_eigs, composite_annihilation, composite_states, cut_levels, gaps, gibbs_state,
    observables_pipeline, random_model,
)

BATH = rs.BathParams()
N_TH = 1.0 / (math.exp(1.0 / 0.07) - 1.0)  # thermal occupation at gap 1, kT 0.07


def thermal_point(n_tr=60):
    model = rs.ModelParams(delta=1.0, g=1e-6, r=0.2, u=0.0, n_tr=n_tr)
    return observables_pipeline(model, BATH)


def test_detection_operator_structure():
    rng = np.random.default_rng(7)
    for _ in range(4):
        p = random_model(rng, n_tr=30)
        eigs = build_eigs(p, 12)
        x = rs.detection_operator(eigs)
        assert np.max(np.abs(np.tril(x.xplus))) == 0.0
        ground = np.zeros(12)
        ground[0] = 1.0
        assert np.max(np.abs(x.xplus @ ground)) < 1e-10
        for j in range(12):
            for k in range(j + 1, 12):
                if eigs.parities[j] == eigs.parities[k]:
                    assert abs(x.xplus[j, k]) < 1e-10


class _Products(np.ndarray):
    """An array that counts the matrix products taken with it on the left."""

    taken = 0

    def __matmul__(self, other):
        _Products.taken += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("size", [1, 2, 4, 13, 40])
def test_detection_operator_norms_are_matrix_powers(size):
    # Two products, X+2 = X+ X+ and X+3 = X+2 X+, give matrix_power's bits
    # for n = 1, 2, 3, overflow included (inf and NaN where a power
    # overflows); numpy forms n = 3 as (x @ x) @ x.
    rng = np.random.default_rng(size)
    for scale in (1.0, 1e100, 1e160):
        xplus = np.triu(rng.normal(size=(size, size)) * scale, k=1)
        x = rs.DetectionOperator(xplus=xplus, xmat=xplus)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [np.sum(np.abs(np.linalg.matrix_power(xplus, n)) ** 2, axis=0)
                    for n in (1, 2, 3)]
        assert all(np.array_equal(got, ref, equal_nan=True) for got, ref in zip(x.norms, want))
    _Products.taken = 0
    rs.DetectionOperator(xplus=xplus.view(_Products), xmat=xplus)
    assert _Products.taken == 2


def test_detection_operator_spans_the_levels_of_its_spectrum():
    # The spectrum fixes the level count; eigensystem validates it.
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=10)
    assert rs.detection_operator(build_eigs(p)).n_levels == p.dim
    assert rs.detection_operator(build_eigs(p, np.int64(6))).n_levels == 6


def test_detection_operator_decoupled_entries():
    # Detuned near-decoupled model: within each qubit branch the gaps are
    # omega0 and the quadrature elements are sqrt(n), so the nonzero
    # entries are omega0 * sqrt(n).
    p = rs.ModelParams(delta=1.3, g=1e-6, r=0.2, u=0.0, n_tr=20)
    eigs = build_eigs(p, 8)
    x = rs.detection_operator(eigs)
    entries = np.abs(x.xplus)
    nonzero = entries[entries > 1e-4]
    a = composite_annihilation(p.n_tr)
    states = composite_states(eigs)
    expected = []
    for level in range(8):
        n_ph = round(states[:, level] @ (a.T @ a) @ states[:, level])
        if n_ph >= 1:
            expected.append(math.sqrt(n_ph))
    assert np.allclose(np.sort(nonzero), np.sort(expected), atol=1e-4)


def test_flux_proxy_matches_matrix_product():
    rng = np.random.default_rng(13)
    for _ in range(4):
        p = random_model(rng, n_tr=40)
        eigs, table, ss, x = observables_pipeline(p, BATH, n_levels=16)
        direct = float(np.real(np.trace(
            np.diag(ss.populations) @ (x.xplus.conj().T @ x.xplus)
        )))
        assert rs.flux_proxy(x, ss) == pytest.approx(direct, abs=1e-10, rel=1e-10)


def test_thermal_correlations():
    eigs, table, ss, x = thermal_point()
    assert rs.correlation_g_n(x, ss, 2) == pytest.approx(2.0, abs=1e-3)
    assert rs.correlation_g_n(x, ss, 3) == pytest.approx(6.0, abs=1e-2)


def test_correlation_rejects_bad_order():
    eigs, table, ss, x = thermal_point(n_tr=30)
    for n in (1, 4, 5):
        with pytest.raises(rs.InvalidInputError):
            rs.correlation_g_n(x, ss, n)


def test_emission_needs_the_levels_of_the_detection_operator():
    # The emission norms are taken over X+'s levels, so a steady state over
    # another level count is rejected rather than cut to fit.
    model = rs.ModelParams(delta=1.0, g=0.6, r=0.3, u=0.1, n_tr=40)
    eigs, table, ss, x = observables_pipeline(model, BATH, n_levels=16)
    full = build_eigs(model)
    for other in (rs.detection_operator(cut_levels(full, 12)),
                  rs.detection_operator(cut_levels(full, 20))):
        with pytest.raises(rs.InvalidInputError, match="levels"):
            rs.flux_proxy(other, ss)
        with pytest.raises(rs.InvalidInputError, match="levels"):
            rs.correlation_g_n(other, ss, 2)


def test_zero_temperature_flux_error():
    model = rs.ModelParams(delta=1.0, g=0.8, r=0.5, u=0.2, n_tr=40)
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    eigs, table, ss, x = observables_pipeline(model, cold, n_levels=16)
    assert ss.populations[0] == 1.0
    with pytest.raises(rs.ZeroFluxError):
        rs.correlation_g_n(x, ss, 2)


def test_correlation_invariant_under_rescaling():
    model = rs.ModelParams(delta=1.0, g=0.6, r=0.3, u=0.1, n_tr=40)
    eigs, table, ss, x = observables_pipeline(model, BATH, n_levels=16)
    rng = np.random.default_rng(2)
    factor = complex(rng.normal(), rng.normal())
    scaled = rs.DetectionOperator(xplus=x.xplus * factor, xmat=x.xmat)
    for n in (2, 3):
        original = rs.correlation_g_n(x, ss, n)
        assert rs.correlation_g_n(scaled, ss, n) == pytest.approx(original, rel=1e-12)


def test_approx_g2_eta_definitions():
    model = rs.ModelParams(delta=1.0, g=0.4, r=0.2, u=0.2, n_tr=60)
    eigs, table, ss, x = observables_pipeline(model, BATH, n_levels=12)
    value, eta1, eta2 = rs.approx_g2(eigs, x, ss)
    d = gaps(eigs)
    assert eta1 == pytest.approx(d[1, 0] - d[2, 1], abs=1e-12)
    assert eta2 == pytest.approx(d[1, 0] - d[3, 1], abs=1e-12)
    g3_value, eta3 = rs.approx_g3(eigs, x, 0.07)
    assert eta3 == pytest.approx(2 * d[1, 0] - d[2, 1] - d[3, 2], abs=1e-12)
    # eta3 > 0, so exp(eta3/kt) leaves a double's range as kt -> 0: the
    # value is inf, not an OverflowError.
    assert eta3 > 0 and rs.approx_g3(eigs, x, 1e-6)[0] == math.inf


def test_approx_g2_underflow_flag():
    model = rs.ModelParams(delta=1.0, g=0.4, r=0.2, u=0.2, n_tr=40)
    eigs = build_eigs(model, 8)
    x = rs.detection_operator(eigs)
    frozen = gibbs_state(eigs, 1e-4, n_levels=8)  # P1 underflows to zero
    value, eta1, eta2 = rs.approx_g2(eigs, x, frozen)
    assert math.isnan(value)
    assert math.isfinite(eta1) and math.isfinite(eta2)


def test_approx_g3_vanishes_when_first_pair_parity_matches():
    # Below the first excited crossing the two lowest excited states share
    # parity with each other's partner such that X12 = 0.
    model = rs.ModelParams(delta=1.0, g=0.2, r=0.2, u=0.2, n_tr=80)
    eigs, table, ss, x = observables_pipeline(model, BATH, n_levels=12)
    assert abs(x.xmat[1, 2]) < 1e-10
    value, eta3 = rs.approx_g3(eigs, x, 0.07)
    assert value < 1e-20


def test_single_path_regime_dominates_between_crossings():
    # Between the first excited crossing and the ground crossing the
    # cascade through consecutive levels carries essentially all of the
    # approximate two-photon weight.
    model = rs.ModelParams(delta=1.0, g=0.6, r=0.2, u=0.2, n_tr=80)
    eigs, table, ss, x = observables_pipeline(model, BATH, n_levels=12)
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
    eigs, table, ss, x = observables_pipeline(model, BATH, n_levels=12)
    g2a, _, _ = rs.approx_g2(eigs, x, ss)
    g3a, _ = rs.approx_g3(eigs, x, 0.07)
    assert g2a > 1e3
    assert g3a > 1e3


def test_field_moments_thermal_and_symmetry():
    eigs, table, ss, x = thermal_point()
    a_mean, n_photon, a_sq = rs.field_moments(ss, eigs)
    assert a_mean == 0.0
    assert n_photon == pytest.approx(N_TH, rel=0.05)

    # Against the dense composite-basis moments, <a> included.
    rng = np.random.default_rng(19)
    for _ in range(3):
        p = random_model(rng, n_tr=40)
        eigs, table, ss, x = observables_pipeline(p, BATH, n_levels=16)
        a_mean, n_photon, a_sq = rs.field_moments(ss, eigs)
        a = composite_annihilation(p.n_tr)
        states = composite_states(eigs)[:, :16]

        def moment(op):
            return ss.populations @ np.einsum("ij,ij->j", states, op @ states)

        assert a_mean == 0.0 and abs(moment(a)) < 1e-14
        assert n_photon >= 0
        assert n_photon == pytest.approx(moment(a.T @ a), rel=1e-12, abs=1e-14)
        assert a_sq == pytest.approx(moment(a @ a), rel=1e-12, abs=1e-14)


def test_squeezing_vacuum_limit():
    model = rs.ModelParams(delta=0.9, g=0.0, r=1.0, u=0.0, n_tr=20)
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    eigs, table, ss, x = observables_pipeline(model, cold, n_levels=8)
    _, n_photon, a_sq = rs.field_moments(ss, eigs)
    assert rs.squeezing_factor(ss, eigs) == pytest.approx(1.0, abs=1e-9)
    assert 1.0 + 2.0 * (n_photon - a_sq.real) == pytest.approx(1.0, abs=1e-9)


def test_squeezing_thermal_limit():
    eigs, table, ss, x = thermal_point()
    assert rs.squeezing_factor(ss, eigs) == pytest.approx(1.0 + 2.0 * N_TH, abs=1e-8)


def test_squeezing_closed_form_agreement():
    rng = np.random.default_rng(37)
    for _ in range(6):
        p = random_model(rng, n_tr=50)
        eigs, table, ss, x = observables_pipeline(p, BATH, n_levels=24)
        moments = rs.field_moments(ss, eigs)
        xi = rs.squeezing_factor(ss, eigs, moments=moments)
        a_mean, n_photon, a_sq = moments
        if a_sq.real >= 0:
            # the symmetry-reduced closed form 2*(<a^dag a> - Re<a^2>) + 1
            assert xi == pytest.approx(1.0 + 2.0 * (n_photon - a_sq.real), abs=1e-9)
        # explicit grid re-check against the analytic minimum
        base = 1.0 + 2.0 * (n_photon - abs(a_mean) ** 2)
        thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        grid = base + 2.0 * ((a_sq - a_mean**2) * np.exp(-2j * thetas)).real
        assert abs(grid.min() - xi) < 1e-9


def test_squeezed_region_exists_at_strong_coupling():
    model = rs.ModelParams(delta=1.0, g=0.8, r=0.5, u=0.0, n_tr=80)
    eigs, table, ss, x = observables_pipeline(model, BATH)
    xi = rs.squeezing_factor(ss, eigs)
    assert xi < 1.0


def same_rows(stacked, alone):
    """Row b of a stacked result is the 1-D result on row b, bit for bit
    (==, with NaN equal to NaN)."""
    assert np.shape(stacked) == (len(alone),)
    assert np.array_equal(stacked, np.array(alone, dtype=float), equal_nan=True)


TEMPERATURE = st.one_of(st.just(0.0), st.floats(0.0, 0.5))


@settings(max_examples=40, deadline=None)
@given(
    n_tr=st.integers(2, 40),
    g=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.9, 0.9),
    temps=st.lists(st.tuples(TEMPERATURE, TEMPERATURE), min_size=1, max_size=9),
    n_levels=st.integers(4, 60),
)
@example(n_tr=2, g=1.5, r=1.0, u=0.0, temps=[(0.07, 0.07), (0.0, 0.0), (0.2, 0.0)], n_levels=6)
@example(n_tr=40, g=0.4, r=0.2, u=0.2, temps=[(1e-4, 1e-4), (0.07, 0.07)], n_levels=8)  # P1 floor
def test_stacked_observables_equal_each_row_alone(n_tr, g, r, u, temps, n_levels):
    # On a real rate table with unequal reservoirs, every observable of a
    # stack of steady states gives, in row b, the bits of the same function
    # on row b's state alone.
    model = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    eigs = build_eigs(model, n_levels)
    baths = [rs.BathParams(alpha_q=2e-3, alpha_c=5e-4, kt_q=kq, kt_c=kc) for kq, kc in temps]
    states = rs.steady_populations(rs.transition_rates(eigs, model, baths))
    rows = [b for b, err in enumerate(states.errors) if err is None]
    assume(rows)
    stack = rs.SteadyState(states.populations[rows])
    alone = [states.of_bath(b) for b in rows]
    x = rs.detection_operator(eigs)

    same_rows(rs.flux_proxy(x, stack), [rs.flux_proxy(x, ss) for ss in alone])
    moments = rs.field_moments(stack, eigs)
    singles = [rs.field_moments(ss, eigs) for ss in alone]
    assert moments[0] == 0.0
    for k in (1, 2):
        same_rows(moments[k], [m[k] for m in singles])
    same_rows(rs.squeezing_factor(stack, eigs, moments=moments),
              [rs.squeezing_factor(ss, eigs) for ss in alone])
    g2a, eta1, eta2 = rs.approx_g2(eigs, x, stack)
    same_rows(g2a, [rs.approx_g2(eigs, x, ss)[0] for ss in alone])
    assert (eta1, eta2) == rs.approx_g2(eigs, x, alone[0])[1:]

    # The correlations and G3's approximant need a flux and a temperature.
    emitting = [k for k, ss in enumerate(alone) if rs.flux_proxy(x, ss) >= ZERO_FLUX_THRESHOLD]
    if len(emitting) < len(rows):
        with pytest.raises(rs.ZeroFluxError):
            rs.correlation_g_n(x, stack, 2)
    assume(emitting)
    lit = rs.SteadyState(stack.populations[emitting])
    for n in (2, 3):
        same_rows(rs.correlation_g_n(x, lit, n),
                  [rs.correlation_g_n(x, alone[k], n) for k in emitting])
    kt = [baths[rows[k]].kt_c or baths[rows[k]].kt_q for k in emitting]
    g3a, eta3 = rs.approx_g3(eigs, x, kt)
    same_rows(g3a, [rs.approx_g3(eigs, x, t)[0] for t in kt])
    assert eta3 == rs.approx_g3(eigs, x, kt[0])[1]


moment = st.floats(-3.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(moment, moment, st.floats(0.0, 10.0), moment, moment)
@example(0.0, 0.0, 0.1, 0.05 * math.cos(0.001), 0.05 * math.sin(0.001))  # off-grid minimum
@example(0.0, 0.0, 0.0, 2.0, 5e-324)  # subnormal phase of <a^2>
def test_squeezing_minimum_matches_theta_minimization(a_re, a_im, n_photon, sq_re, sq_im):
    a_mean, a_sq = complex(a_re, a_im), complex(sq_re, sq_im)
    xi = rs.squeezing_factor(None, None, moments=(a_mean, n_photon, a_sq))

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
