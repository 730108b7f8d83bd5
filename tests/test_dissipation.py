import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabistark as rs
from rabistark.dissipation import _pair_weights

from conftest import build_eigs, random_model, steady_pipeline

BATH = rs.BathParams()  # alpha 1e-3, cutoff 10, kT 0.07


def test_bose_occupation_values():
    assert rs.bose_occupation(1.0, 0.0) == 0.0
    # frozen by direct scalar evaluation of 1/(exp(gap/kt) - 1)
    assert rs.bose_occupation(1.0, 0.07) == pytest.approx(6.24875341415258e-07, rel=1e-9)
    assert rs.bose_occupation(0.07, 0.07) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)
    # large-argument branch stays finite and positive
    tiny = rs.bose_occupation(100.0, 0.07)
    assert 0.0 < tiny < 1e-300 or tiny == 0.0


def test_bose_occupation_array_matches_scalar():
    gaps = np.array([0.07, 1.0, 2.0, 100.0])
    got = rs.bose_occupation(gaps, 0.07)
    assert got.shape == gaps.shape
    assert list(got) == [rs.bose_occupation(g, 0.07) for g in gaps]
    assert np.all(rs.bose_occupation(gaps, 0.0) == 0.0)


def test_bose_occupation_rejects_bad_input():
    with pytest.raises(rs.InvalidInputError):
        rs.bose_occupation(0.0, 0.1)
    with pytest.raises(rs.InvalidInputError):
        rs.bose_occupation(np.array([1.0, 0.0]), 0.1)
    with pytest.raises(rs.InvalidInputError):
        rs.bose_occupation(-1.0, 0.1)
    with pytest.raises(rs.InvalidInputError):
        rs.bose_occupation(1.0, -0.1)


def test_bath_params_validation():
    with pytest.raises(rs.InvalidParameterError):
        rs.BathParams(alpha_q=0.0)
    with pytest.raises(rs.InvalidParameterError):
        rs.BathParams(omega_cutoff=-1.0)
    with pytest.raises(rs.InvalidParameterError):
        rs.BathParams(kt_c=-0.1)


def test_parity_selection_rules_zero_weights():
    rng = np.random.default_rng(17)
    for _ in range(6):
        p = random_model(rng, n_tr=30)
        eigs = build_eigs(p)
        table = rs.transition_rates(eigs, p, BATH, n_levels=14)
        for k in range(1, table.n_levels):
            for j in range(k):
                if eigs.parities[k] == eigs.parities[j]:
                    assert abs(table.m_q[j, k]) < 1e-10
                    assert abs(table.m_c[j, k]) < 1e-10
                    assert table.down_q[k, j] < 1e-20
                    assert table.down_c[k, j] < 1e-20


def test_weights_nonnegative_and_detailed_balance():
    rng = np.random.default_rng(29)
    for _ in range(4):
        p = random_model(rng, n_tr=30)
        eigs = build_eigs(p)
        table = rs.transition_rates(eigs, p, BATH, n_levels=12)
        for name in ("down_q", "up_q", "down_c", "up_c"):
            assert np.all(getattr(table, name) >= 0.0)
        for k in range(1, table.n_levels):
            for j in range(k):
                gap = table.gap[k, j]
                for down, up in ((table.down_q, table.up_q), (table.down_c, table.up_c)):
                    if down[k, j] > 1e-300 and up[k, j] > 1e-300:
                        ratio = up[k, j] / down[k, j]
                        assert ratio == pytest.approx(math.exp(-gap / 0.07), rel=1e-10)


def test_cavity_rate_matches_decoupled_hand_value():
    # Detuned near-decoupled model: first excited level is the one-photon
    # state, so Gamma_c = alpha_c * 1 * exp(-1/omega_c) * |<0|(a+a+)|1>|^2.
    p = rs.ModelParams(delta=1.3, g=1e-6, r=0.2, u=0.0, n_tr=20)
    eigs = build_eigs(p)
    table = rs.transition_rates(eigs, p, BATH, n_levels=6)
    n_th = rs.bose_occupation(1.0, 0.07)
    gamma_c = table.down_c[1, 0] / (1.0 + n_th)
    assert gamma_c == pytest.approx(1e-3 * math.exp(-0.1), rel=1e-6)


def test_degenerate_regularization_is_continuous():
    eps = 1e-9  # gap threshold at omega0 = 1
    for kt in (0.07, 0.3):
        above = _pair_weights(1e-3, eps * 1.001, 1.0, 10.0, 0.8, kt, eps)
        below = _pair_weights(1e-3, eps * 0.999, 1.0, 10.0, 0.8, kt, eps)
        for w_above, w_below in zip(above[:2], below[:2]):
            assert w_above == pytest.approx(w_below, rel=1e-6)


def test_degenerate_pair_freezes_at_zero_temperature():
    eps = 1e-9
    down, up, frozen = _pair_weights(1e-3, 1e-12, 1.0, 10.0, 0.8, 0.0, eps)
    assert down == 0.0 and up == 0.0 and frozen
    down, up, frozen = _pair_weights(1e-3, 1e-12, 1.0, 10.0, 0.8, 0.07, eps)
    assert down > 0.0 and down == up and not frozen


def _scalar_pair_weights(alpha, gap, omega_ref, omega_cutoff, melem_sq, kt, eps):
    """Per-pair transcription of the rate formula, the oracle for the vectorized kernel."""
    cutoff = math.exp(-abs(gap) / omega_cutoff)
    if gap < eps:
        if kt == 0.0:
            return 0.0, 0.0, True
        w = alpha * (kt / omega_ref) * melem_sq * cutoff
        return w, w, False
    gamma = alpha * (gap / omega_ref) * cutoff * melem_sq
    if kt == 0.0:
        n = 0.0
    elif gap / kt > 30.0:
        ex = math.exp(-gap / kt)
        n = ex / (1.0 - ex)
    else:
        n = 1.0 / math.expm1(gap / kt)
    return gamma * (1.0 + n), gamma * n, False


EPS = 1e-9
# Gaps at the degenerate switchover, plus ordinary gaps; gaps either side of
# the x = gap/kT > 30 Bose branch are added per temperature below.
GAPS = st.one_of(
    st.sampled_from([0.0, EPS * (1.0 - 1e-3), EPS, EPS * (1.0 + 1e-3)]),
    st.floats(0.0, 5.0),
)


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(st.tuples(GAPS, st.floats(0.0, 10.0)), min_size=1, max_size=12),
    bose_x=st.lists(st.floats(29.0, 31.0), max_size=4),
    kt=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    omega_ref=st.floats(0.1, 3.0),
)
def test_vectorized_pair_weights_match_scalar_formula(pairs, bose_x, kt, omega_ref):
    if kt > 0.0:
        pairs = pairs + [(kt * x, 0.5) for x in bose_x]
    gaps = np.array([g for g, _ in pairs])
    melem_sq = np.array([m for _, m in pairs])
    down, up, frozen = _pair_weights(1e-3, gaps, omega_ref, 10.0, melem_sq, kt, EPS)
    for idx, (gap, m2) in enumerate(pairs):
        want = _scalar_pair_weights(1e-3, gap, omega_ref, 10.0, m2, kt, EPS)
        assert down[idx] == pytest.approx(want[0], rel=1e-14, abs=0.0)
        assert up[idx] == pytest.approx(want[1], rel=1e-14, abs=0.0)
        assert frozen[idx] == want[2]


def test_transition_tables_match_scalar_formula():
    rng = np.random.default_rng(53)
    baths = (BATH, rs.BathParams(kt_q=0.0, kt_c=0.0), rs.BathParams(kt_q=0.02, kt_c=0.3))
    for bath in baths:
        p = random_model(rng, n_tr=30)
        table = rs.transition_rates(build_eigs(p), p, bath, n_levels=16)
        eps = 1e-9 * p.omega0
        for k in range(1, table.n_levels):
            for j in range(k):
                gap = table.gap[k, j]
                dq, uq, fq = _scalar_pair_weights(bath.alpha_q, gap, p.delta, bath.omega_cutoff,
                                                  abs(table.m_q[j, k]) ** 2, bath.kt_q, eps)
                dc, uc, fc = _scalar_pair_weights(bath.alpha_c, gap, p.omega0, bath.omega_cutoff,
                                                  abs(table.m_c[j, k]) ** 2, bath.kt_c, eps)
                got = (table.down_q[k, j], table.up_q[k, j], table.down_c[k, j], table.up_c[k, j])
                assert got == pytest.approx((dq, uq, dc, uc), rel=1e-14, abs=0.0)
                assert table.frozen[k, j] == (fq and fc)
        for arr in (table.down_q, table.up_q, table.down_c, table.up_c, table.frozen):
            assert not np.any(np.triu(arr))


def test_zero_temperature_freeze_and_up_weights():
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    p = rs.ModelParams(delta=1.0, g=0.4, r=0.5, u=0.1, n_tr=30)
    eigs = build_eigs(p)
    table = rs.transition_rates(eigs, p, cold, n_levels=10)
    assert np.all(table.up_q == 0.0)
    assert np.all(table.up_c == 0.0)
    ss = rs.steady_populations(table)
    assert ss.populations[0] == 1.0
    assert np.all(ss.populations[1:] == 0.0)


def test_steady_state_is_gibbs_at_equal_temperatures():
    rng = np.random.default_rng(41)
    for _ in range(3):
        p = random_model(rng, n_tr=50)
        eigs, table, ss = steady_pipeline(p, BATH, n_levels=30)
        gibbs = rs.gibbs_state(eigs, 0.07, n_levels=30)
        assert np.max(np.abs(ss.populations - gibbs.populations)) < 1e-10
        assert abs(ss.populations.sum() - 1.0) < 1e-10


def test_steady_state_detailed_balance_ratio():
    p = rs.ModelParams(delta=1.0, g=0.7, r=0.5, u=0.3, n_tr=50)
    eigs, table, ss = steady_pipeline(p, BATH, n_levels=20)
    for k, j in ((1, 0), (5, 2), (9, 4)):
        expected = math.exp(-(eigs.energies[k] - eigs.energies[j]) / 0.07)
        assert ss.populations[k] / ss.populations[j] == pytest.approx(expected, rel=1e-8)


def test_gibbs_stationarity_residual():
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.8, u=-0.2, n_tr=50)
    eigs, table, ss = steady_pipeline(p, BATH, n_levels=24)
    gibbs = rs.gibbs_state(eigs, 0.07, n_levels=24)
    from rabistark.dissipation import balance_residual
    assert balance_residual(table, gibbs) < 1e-10


def test_gibbs_state_values():
    energies = np.diag([0.0, 0.07, 0.5, 1.1])
    eigs = rs.diagonalize(energies.astype(complex), np.eye(4, dtype=complex))
    cold = rs.gibbs_state(eigs, 0.0)
    assert np.array_equal(cold.populations, [1.0, 0.0, 0.0, 0.0])
    warm = rs.gibbs_state(eigs, 0.07)
    assert warm.populations[1] / warm.populations[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert warm.populations.sum() == pytest.approx(1.0, abs=1e-12)


def test_disconnected_graph_raises_with_components():
    p = rs.ModelParams(delta=1.0, g=0.4, r=0.3, u=0.1, n_tr=30)
    eigs = build_eigs(p)
    table = rs.transition_rates(eigs, p, BATH, n_levels=4)
    for arr in (table.down_q, table.up_q, table.down_c, table.up_c):
        arr[2:, :2] = 0.0  # sever {0,1} from {2,3}
    with pytest.raises(rs.MultipleSteadyStateError) as err:
        rs.steady_populations(table)
    assert [0, 1] in err.value.components
    assert [2, 3] in err.value.components


def _dynamics_setup(n_levels=12):
    p = rs.ModelParams(delta=1.0, g=0.6, r=0.5, u=0.2, n_tr=50)
    bath = rs.BathParams(alpha_q=0.05, alpha_c=0.05, kt_q=0.07, kt_c=0.07)
    eigs, table, ss = steady_pipeline(p, bath, n_levels=n_levels)
    max_rate = table.flow_matrix().sum(axis=0).max()
    return eigs, table, ss, 0.09 / max_rate


def test_evolution_fixed_point():
    eigs, table, ss, dt = _dynamics_setup()
    rho_ss = np.diag(ss.populations).astype(complex)
    traj = rs.evolve_density(rho_ss, eigs, table, dt=dt, steps=1000, record_every=1000)
    assert np.max(np.abs(traj[-1] - rho_ss)) < 1e-9
    assert abs(np.trace(traj[-1]).real - 1.0) < 1e-9


def test_evolution_coherence_decays_monotonically():
    eigs, table, ss, dt = _dynamics_setup()
    rho = np.diag(ss.populations).astype(complex)
    amp = 0.4 * math.sqrt(ss.populations[0] * ss.populations[1])
    rho[0, 1] = amp
    rho[1, 0] = amp
    traj = rs.evolve_density(rho, eigs, table, dt=dt, steps=600, record_every=60)
    mags = [abs(state[0, 1]) for state in traj]
    assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))
    assert mags[-1] < mags[0]


def test_evolution_converges_to_steady_state():
    eigs, table, ss, dt = _dynamics_setup()
    rng = np.random.default_rng(3)
    weights = rng.random(table.n_levels)
    rho = np.diag(weights / weights.sum()).astype(complex)
    for _ in range(60):
        traj = rs.evolve_density(rho, eigs, table, dt=dt, steps=400, record_every=400)
        rho = traj[-1]
        if np.max(np.abs(np.diag(rho).real - ss.populations)) < 1e-7:
            break
    assert np.max(np.abs(np.diag(rho).real - ss.populations)) < 1e-6
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_evolution_input_validation():
    eigs, table, ss, dt = _dynamics_setup(n_levels=6)
    L = table.n_levels
    good = np.diag(ss.populations[:L] / ss.populations[:L].sum()).astype(complex)

    with pytest.raises(rs.StepSizeError):
        rs.evolve_density(good, eigs, table, dt=1e6, steps=10)

    not_hermitian = good.copy()
    not_hermitian[0, 1] = 0.3
    with pytest.raises(rs.InvalidInputError):
        rs.evolve_density(not_hermitian, eigs, table, dt=dt, steps=5)

    bad_trace = 2.0 * good
    with pytest.raises(rs.InvalidInputError):
        rs.evolve_density(bad_trace, eigs, table, dt=dt, steps=5)

    not_psd = good.copy()
    not_psd[0, 0] -= 0.2
    not_psd[1, 1] += 0.2
    amp = 0.9
    not_psd[0, 1] = amp
    not_psd[1, 0] = amp
    with pytest.raises(rs.InvalidInputError):
        rs.evolve_density(not_psd, eigs, table, dt=dt, steps=5)
