import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import connected_components

import rabistark as rs
from rabistark import dissipation
from rabistark.dissipation import (
    WEIGHT_FLOOR, TransitionTable, _graph_components, _pair_weights, balance_residual,
)

from conftest import (
    StepSizeError, build_eigs, cut_levels, evolve_density, gibbs_state, random_model,
    reference_populations, steady_pipeline,
)

BATH = rs.BathParams()  # alpha 1e-3, cutoff 10, kT 0.07


def test_bose_occupation_values():
    assert rs.bose_occupation(1.0, 0.0) == 0.0
    assert rs.bose_occupation(1.0, 5e-324) == 0.0   # gap/kt overflows to inf
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


def test_bose_occupation_per_bath_temperatures():
    # One row per bath: kt = 0 rows are zero, the others the scalar values.
    gaps = np.array([0.07, 1.0, 2.0, 100.0])
    kts = np.array([[0.0], [0.07], [5e-324], [0.3]])
    got = rs.bose_occupation(gaps, kts)
    assert got.shape == (4, 4)
    for row, kt in zip(got, kts[:, 0]):
        assert list(row) == [rs.bose_occupation(g, kt) for g in gaps]
    assert not got[0].any() and not got[2].any()
    with pytest.raises(rs.InvalidInputError):
        rs.bose_occupation(gaps, np.array([[0.07], [-0.1]]))


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


def test_rate_table_needs_baths_and_two_levels():
    # The table spans the levels its spectrum holds; a one-level spectrum
    # has no transition, and no bath is no table.
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=10)
    assert rs.transition_rates(build_eigs(p, np.int64(6)), p, [BATH]).n_levels == 6
    for eigs in (build_eigs(p, 1), cut_levels(build_eigs(p), 0)):
        with pytest.raises(rs.InvalidParameterError):
            rs.transition_rates(eigs, p, [BATH])
    with pytest.raises(rs.InvalidParameterError):
        rs.transition_rates(build_eigs(p, 6), p, [])


def test_parity_selection_rules_zero_weights():
    rng = np.random.default_rng(17)
    for _ in range(6):
        p = random_model(rng, n_tr=30)
        eigs = build_eigs(p, 14)
        table = rs.transition_rates(eigs, p, [BATH])
        m_q, m_c = eigs.parity_odd_elements
        for k in range(1, table.n_levels):
            for j in range(k):
                if eigs.parities[k] == eigs.parities[j]:
                    assert abs(m_q[j, k]) < 1e-10
                    assert abs(m_c[j, k]) < 1e-10
                    assert table.rate[0, k, j] < 1e-20
                    assert table.rate[0, j, k] < 1e-20


def test_weights_nonnegative_and_detailed_balance():
    rng = np.random.default_rng(29)
    for _ in range(4):
        p = random_model(rng, n_tr=30)
        eigs = build_eigs(p, 12)
        table = rs.transition_rates(eigs, p, [BATH])
        assert np.all(table.rate >= 0.0)
        # Both reservoirs sit at kT = 0.07, so their summed rates obey it too.
        rate = table.rate[0]
        for k in range(1, table.n_levels):
            for j in range(k):
                gap = eigs.energies[k] - eigs.energies[j]
                if rate[k, j] > 1e-300 and rate[j, k] > 1e-300:
                    ratio = rate[j, k] / rate[k, j]
                    assert ratio == pytest.approx(math.exp(-gap / 0.07), rel=1e-10)


def test_cavity_rate_matches_decoupled_hand_value():
    # Detuned near-decoupled model: first excited level is the one-photon
    # state, so Gamma_c = alpha_c * 1 * exp(-1/omega_c) * |<0|(a+a+)|1>|^2,
    # and the qubit reservoir adds a rate of relative order g^2.
    p = rs.ModelParams(delta=1.3, g=1e-6, r=0.2, u=0.0, n_tr=20)
    eigs = build_eigs(p, 6)
    table = rs.transition_rates(eigs, p, [BATH])
    assert eigs.parity_odd_elements[0][0, 1] ** 2 < 1e-10
    n_th = rs.bose_occupation(1.0, 0.07)
    gamma_c = table.rate[0, 1, 0] / (1.0 + n_th)
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
    down, up = _pair_weights(1e-3, 1e-12, 1.0, 10.0, 0.8, 0.0, eps)
    assert down == 0.0 and up == 0.0
    down, up = _pair_weights(1e-3, 1e-12, 1.0, 10.0, 0.8, 0.07, eps)
    assert down > 0.0 and down == up


def _scalar_pair_weights(alpha, gap, omega_ref, omega_cutoff, melem_sq, kt, eps):
    """Per-pair transcription of the rate formula, the oracle for the vectorized kernel."""
    cutoff = math.exp(-abs(gap) / omega_cutoff)
    if gap < eps:
        if kt == 0.0:
            return 0.0, 0.0
        w = alpha * (kt / omega_ref) * melem_sq * cutoff
        return w, w
    gamma = alpha * (gap / omega_ref) * cutoff * melem_sq
    if kt == 0.0:
        n = 0.0
    elif gap / kt > 30.0:
        ex = math.exp(-gap / kt)
        n = ex / (1.0 - ex)
    else:
        n = 1.0 / math.expm1(gap / kt)
    return gamma * (1.0 + n), gamma * n


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
    down, up = _pair_weights(1e-3, gaps, omega_ref, 10.0, melem_sq, kt, EPS)
    for idx, (gap, m2) in enumerate(pairs):
        want = _scalar_pair_weights(1e-3, gap, omega_ref, 10.0, m2, kt, EPS)
        assert down[idx] == pytest.approx(want[0], rel=1e-14, abs=0.0)
        assert up[idx] == pytest.approx(want[1], rel=1e-14, abs=0.0)


def test_transition_tables_match_scalar_formula():
    # Each bath's table in a stack is the per-pair formula with its own
    # parameters, summed over the two reservoirs: emission below the
    # diagonal, absorption above it.
    rng = np.random.default_rng(53)
    baths = (BATH, rs.BathParams(kt_q=0.0, kt_c=0.0),
             rs.BathParams(alpha_q=3e-3, alpha_c=5e-4, omega_cutoff=2.5, kt_q=0.02, kt_c=0.3))
    for _ in range(3):
        p = random_model(rng, n_tr=30)
        eigs = build_eigs(p, 16)
        table = rs.transition_rates(eigs, p, baths)
        assert table.rate.shape == (len(baths), 16, 16)
        m_q, m_c = eigs.parity_odd_elements
        eps = 1e-9 * p.omega0
        for b, bath in enumerate(baths):
            for k in range(1, table.n_levels):
                for j in range(k):
                    gap = eigs.energies[k] - eigs.energies[j]
                    dq, uq = _scalar_pair_weights(bath.alpha_q, gap, p.delta, bath.omega_cutoff,
                                                  abs(m_q[j, k]) ** 2, bath.kt_q, eps)
                    dc, uc = _scalar_pair_weights(bath.alpha_c, gap, p.omega0, bath.omega_cutoff,
                                                  abs(m_c[j, k]) ** 2, bath.kt_c, eps)
                    got = (table.rate[b, k, j], table.rate[b, j, k])
                    assert got == pytest.approx((dq + dc, uq + uc), rel=1e-14, abs=0.0)
        assert not np.any(np.diagonal(table.rate, axis1=1, axis2=2))


def test_zero_temperature_freeze_and_up_weights():
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    p = rs.ModelParams(delta=1.0, g=0.4, r=0.5, u=0.1, n_tr=30)
    eigs = build_eigs(p, 10)
    table = rs.transition_rates(eigs, p, [cold])
    assert np.all(np.triu(table.rate[0]) == 0.0)
    ss = rs.steady_populations(table).of_bath(0)
    assert ss.populations[0] == 1.0
    assert np.all(ss.populations[1:] == 0.0)


def test_steady_state_is_gibbs_at_equal_temperatures():
    rng = np.random.default_rng(41)
    for _ in range(3):
        p = random_model(rng, n_tr=50)
        eigs, table, ss = steady_pipeline(p, BATH, n_levels=30)
        gibbs = gibbs_state(eigs, 0.07, n_levels=30)
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
    gibbs = gibbs_state(eigs, 0.07, n_levels=24)
    from rabistark.dissipation import balance_residual
    assert balance_residual(table, gibbs) < 1e-10


def test_gibbs_state_values():
    eigs = rs.EigenSystem(
        energies=np.array([0.0, 0.07, 0.5, 1.1]), states=np.eye(4), parities=np.ones(4),
        dim=4,
    )
    cold = gibbs_state(eigs, 0.0)
    assert np.array_equal(cold.populations, [1.0, 0.0, 0.0, 0.0])
    warm = gibbs_state(eigs, 0.07)
    assert warm.populations[1] / warm.populations[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert warm.populations.sum() == pytest.approx(1.0, abs=1e-12)


def _cut(table, b, k, one_way):
    """Cut bath b's links from levels k.. down to levels ..k-1; one_way keeps the upward ones."""
    table.rate[b, k:, :k] = 0.0
    if not one_way:
        table.rate[b, :k, k:] = 0.0


def test_disconnected_graph_raises_with_components():
    p = rs.ModelParams(delta=1.0, g=0.4, r=0.3, u=0.1, n_tr=30)
    eigs = build_eigs(p, 4)
    table = rs.transition_rates(eigs, p, [BATH])
    _cut(table, 0, 2, one_way=False)  # sever {0,1} from {2,3}
    with pytest.raises(rs.MultipleSteadyStateError) as err:
        rs.steady_populations(table).of_bath(0)
    assert [0, 1] in err.value.components
    assert [2, 3] in err.value.components


def _four_level_table():
    p = rs.ModelParams(delta=1.0, g=0.4, r=0.3, u=0.1, n_tr=30)
    return rs.transition_rates(build_eigs(p, 4), p, [BATH])


def test_one_way_closed_block_is_numeric_failure():
    # {0,1} still feeds {2,3} upwards, but {2,3} never flows back down: one
    # component, no unique steady state holding level 0.
    table = _four_level_table()
    _cut(table, 0, 2, one_way=True)
    with pytest.raises(rs.NumericFailureError):
        rs.steady_populations(table).of_bath(0)


def test_link_at_weight_floor_counts_as_severed():
    table = _four_level_table()
    _cut(table, 0, 2, one_way=False)
    table.rate[0, 2, 1] = WEIGHT_FLOOR
    table.rate[0, 1, 2] = 1e-305
    with pytest.raises(rs.MultipleSteadyStateError) as err:
        rs.steady_populations(table).of_bath(0)
    assert err.value.components == [[0, 1], [2, 3]]


def test_linked_pair_keeps_its_rate_below_the_floor():
    # The emission rate links the pair, so the absorption rate, below
    # WEIGHT_FLOOR, still feeds level 1.
    table = TransitionTable(rate=np.array([[[0.0, 1e-305], [1.0, 0.0]]]),
                            kt_q=np.array([0.07]), kt_c=np.array([0.07]))
    populations = rs.steady_populations(table).of_bath(0).populations
    assert populations[1] == pytest.approx(1e-305, rel=1e-12, abs=0.0)


def test_connected_table_computes_no_components(monkeypatch):
    calls = []

    def counted(linked):
        calls.append(linked)
        return _graph_components(linked)

    monkeypatch.setattr(dissipation, "_graph_components", counted)
    table = _four_level_table()
    rs.steady_populations(table).of_bath(0)
    assert calls == []
    _cut(table, 0, 2, one_way=False)
    with pytest.raises(rs.MultipleSteadyStateError):
        rs.steady_populations(table).of_bath(0)
    assert len(calls) == 1


@st.composite
def severed_tables(draw):
    """Small rate tables whose levels fall into random blocks.

    Within a block each rate is cut or O(1); across blocks the rates sit at
    or below WEIGHT_FLOOR, so the blocks are unlinked.
    """
    n = draw(st.integers(2, 7))
    blocks = draw(st.integers(1, 3))
    block = draw(hnp.arrays(np.int64, n, elements=st.integers(0, blocks - 1)))
    same = block[:, None] == block[None, :]
    strong = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    weak = st.sampled_from([0.0, 1e-305, WEIGHT_FLOOR])
    inside = draw(hnp.arrays(float, (n, n), elements=strong))
    across = draw(hnp.arrays(float, (n, n), elements=weak))
    rate = np.where(same, inside, across)
    np.fill_diagonal(rate, 0.0)
    return TransitionTable(rate=rate[None], kt_q=np.array([0.07]),
                           kt_c=np.array([0.07]))


def _reaches_ground(rate):
    """Whether every level has a directed path of positive rates to level 0."""
    reach = np.zeros(rate.shape[0], dtype=bool)
    reach[0] = True
    while True:
        grown = reach | (rate[:, reach] > 0.0).any(axis=1)
        if np.array_equal(grown, reach):
            return bool(reach.all())
        reach = grown


@settings(max_examples=300, deadline=None)
@given(table=severed_tables())
def test_steady_state_classification_matches_components(table):
    linked = table.rate[0] > WEIGHT_FLOOR
    components = _graph_components(linked)
    rate = np.where(linked | linked.T, table.rate[0], 0.0)
    if len(components) > 1:
        with pytest.raises(rs.MultipleSteadyStateError) as err:
            rs.steady_populations(table).of_bath(0)
        assert err.value.components == components
    elif not _reaches_ground(rate):
        with pytest.raises(rs.NumericFailureError):
            rs.steady_populations(table).of_bath(0)
    else:
        ss = rs.steady_populations(table).of_bath(0)
        assert np.all(ss.populations >= 0.0)
        assert abs(ss.populations.sum() - 1.0) <= 1e-12
        assert balance_residual(table, ss) <= 1e-12 * table.flow_matrix().max()


@settings(max_examples=150, deadline=None)
@given(linked=st.integers(1, 12).flatmap(lambda n: hnp.arrays(bool, (n, n))))
def test_graph_components_match_scipy(linked):
    count, labels = connected_components(linked, directed=False)
    want = [np.flatnonzero(labels == c).tolist() for c in range(count)]
    assert _graph_components(linked) == want


def _same_outcome(state, b, table):
    """Bath b of the stacked state against the one-table reference: equal
    populations, or the same error with the same components."""
    try:
        want = reference_populations(table, b)
    except rs.RabiStarkError as exc:
        with pytest.raises(type(exc)) as err:
            state.of_bath(b)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "components", None) == getattr(exc, "components", None)
        assert np.isnan(state.populations[b]).all()
        return exc
    assert state.errors[b] is None
    assert np.array_equal(state.of_bath(b).populations, want)
    return None


TEMPERATURES = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    n_tr=st.integers(4, 79),
    n_levels=st.integers(4, 40),
    g=st.floats(0.0, 1.5),
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.8, 0.8),
    temps=st.lists(st.tuples(TEMPERATURES, TEMPERATURES), min_size=1, max_size=9),
    cuts=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 39), st.booleans()), max_size=2),
)
def test_stacked_populations_equal_the_reference(n_tr, n_levels, g, r, u, temps, cuts):
    # Every bath of a stack solves bit for bit as its own table; a bath cut
    # by a severed or one-way-closed block fails alone, with the reference's error.
    model = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    eigs = build_eigs(model, n_levels)
    baths = [rs.BathParams(kt_q=kq, kt_c=kc) for kq, kc in temps]
    table = rs.transition_rates(eigs, model, baths)
    for b, bath in enumerate(baths):
        alone = rs.transition_rates(eigs, model, [bath])
        assert np.array_equal(table.rate[b], alone.rate[0])
    for b, k, one_way in cuts:
        _cut(table, b % len(baths), 1 + k % (table.n_levels - 1), one_way)
    state = rs.steady_populations(table)
    assert state.populations.shape == (len(baths), table.n_levels)
    errors = {type(_same_outcome(state, b, table)).__name__ for b in range(len(baths))}
    event(", ".join(sorted(errors)))


def _all_pairs_rates(eigs, model, baths):
    """The rate table from every pair (k, j), k > j, equal parities included:
    the pair weights of their matrix elements, zero or not."""
    L = eigs.n_levels
    m_q, m_c = eigs.parity_odd_elements
    lower = np.tril(np.ones((L, L), dtype=bool), k=-1)
    gap = (eigs.energies[:L, None] - eigs.energies[None, :L])[lower]
    melem_sq = np.stack([m_q.T[lower] ** 2, m_c.T[lower] ** 2])[:, None]
    alpha, kt = np.array([[(b.alpha_q, b.kt_q), (b.alpha_c, b.kt_c)] for b in baths]).T[..., None]
    cutoff = np.array([[b.omega_cutoff] for b in baths])
    omega_ref = np.array([model.delta, model.omega0])[:, None, None]
    down, up = _pair_weights(alpha, gap, omega_ref, cutoff, melem_sq, kt,
                             dissipation.GAP_EPSILON_FRACTION * model.omega0)
    rate = np.zeros((len(baths), L, L))
    rate[:, lower] = down[0] + down[1]
    np.swapaxes(rate, -1, -2)[:, lower] = up[0] + up[1]
    return rate


@settings(max_examples=200, deadline=None)
@given(
    n_tr=st.integers(8, 79),
    n_levels=st.integers(2, 40),
    g=st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.9, 0.9),
    baths=st.lists(st.tuples(TEMPERATURES, TEMPERATURES, st.floats(1e-4, 1e-2),
                             st.floats(1e-4, 1e-2), st.floats(0.5, 20.0)), min_size=1, max_size=4),
)
def test_rate_table_equals_the_all_pairs_formula(n_tr, n_levels, g, r, u, baths):
    # Only opposite-parity pairs get a rate; the table is bit for bit the one
    # from every pair, and each equal-parity entry is exactly +0.0.
    model = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    eigs = build_eigs(model, n_levels)
    baths = [rs.BathParams(kt_q=kq, kt_c=kc, alpha_q=aq, alpha_c=ac, omega_cutoff=wc)
             for kq, kc, aq, ac, wc in baths]
    table = rs.transition_rates(eigs, model, baths)
    assert np.array_equal(table.rate, _all_pairs_rates(eigs, model, baths))
    parities = eigs.parities[:table.n_levels]
    same = table.rate[:, parities[:, None] == parities[None, :]]
    assert not same.any() and not np.signbit(same).any()


def test_failing_baths_leave_the_stack_alone():
    model = rs.ModelParams(delta=1.0, g=0.4, r=0.3, u=0.1, n_tr=30)
    warm, cold = rs.BathParams(kt_q=0.05, kt_c=0.2), rs.BathParams(kt_q=0.0, kt_c=0.0)
    table = rs.transition_rates(build_eigs(model, 8), model, [warm, BATH, cold, BATH, warm, BATH])
    _cut(table, 1, 3, one_way=False)
    _cut(table, 3, 3, one_way=True)
    _cut(table, 2, 3, one_way=False)    # the ground-state branch reads no rates
    _cut(table, 5, 1, one_way=True)     # stuck at the last step, level 1
    state = rs.steady_populations(table)
    outcomes = [_same_outcome(state, b, table) for b in range(6)]
    assert [type(e) for e in outcomes] == [
        type(None), rs.MultipleSteadyStateError, type(None), rs.NumericFailureError, type(None),
        rs.NumericFailureError]
    assert outcomes[1].components == [[0, 1, 2], [3, 4, 5, 6, 7]]
    assert str(outcomes[5]) == "level 1 has no downward flow during elimination"
    assert np.array_equal(state.populations[2], np.eye(1, 8)[0])
    assert np.array_equal(state.populations[0], state.populations[4])


def _dynamics_setup(n_levels=12):
    p = rs.ModelParams(delta=1.0, g=0.6, r=0.5, u=0.2, n_tr=50)
    bath = rs.BathParams(alpha_q=0.05, alpha_c=0.05, kt_q=0.07, kt_c=0.07)
    eigs, table, ss = steady_pipeline(p, bath, n_levels=n_levels)
    max_rate = table.flow_matrix()[0].sum(axis=0).max()
    return eigs, table, ss, 0.09 / max_rate


def test_evolution_fixed_point():
    eigs, table, ss, dt = _dynamics_setup()
    rho_ss = np.diag(ss.populations).astype(complex)
    traj = evolve_density(rho_ss, eigs, table, dt=dt, steps=1000, record_every=1000)
    assert np.max(np.abs(traj[-1] - rho_ss)) < 1e-9
    assert abs(np.trace(traj[-1]).real - 1.0) < 1e-9


def test_evolution_coherence_decays_monotonically():
    eigs, table, ss, dt = _dynamics_setup()
    rho = np.diag(ss.populations).astype(complex)
    amp = 0.4 * math.sqrt(ss.populations[0] * ss.populations[1])
    rho[0, 1] = amp
    rho[1, 0] = amp
    traj = evolve_density(rho, eigs, table, dt=dt, steps=600, record_every=60)
    mags = [abs(state[0, 1]) for state in traj]
    assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))
    assert mags[-1] < mags[0]


def test_evolution_converges_to_steady_state():
    eigs, table, ss, dt = _dynamics_setup()
    rng = np.random.default_rng(3)
    weights = rng.random(table.n_levels)
    rho = np.diag(weights / weights.sum()).astype(complex)
    for _ in range(60):
        traj = evolve_density(rho, eigs, table, dt=dt, steps=400, record_every=400)
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

    with pytest.raises(StepSizeError):
        evolve_density(good, eigs, table, dt=1e6, steps=10)

    not_hermitian = good.copy()
    not_hermitian[0, 1] = 0.3
    with pytest.raises(rs.InvalidInputError):
        evolve_density(not_hermitian, eigs, table, dt=dt, steps=5)

    bad_trace = 2.0 * good
    with pytest.raises(rs.InvalidInputError):
        evolve_density(bad_trace, eigs, table, dt=dt, steps=5)

    not_psd = good.copy()
    not_psd[0, 0] -= 0.2
    not_psd[1, 1] += 0.2
    amp = 0.9
    not_psd[0, 1] = amp
    not_psd[1, 0] = amp
    with pytest.raises(rs.InvalidInputError):
        evolve_density(not_psd, eigs, table, dt=dt, steps=5)
