import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import rabistark as rs
from rabistark.config import ScanConfig
from rabistark.spectrum import (
    DEGENERACY_FRACTION, GAP_CLOSURE_FRACTION, edge_residuals, field_diagonals,
    keeps_lowest_levels,
)

from conftest import (
    build_eigs, composite_states, cut_levels, dense_hamiltonian, eigensystem_levels,
    full_chain_eigensystem, gaps,
    observables_pipeline,
    parity_diagonal, random_model,
)


def jc_reference_energies(g, n_levels):
    """Resonant Jaynes-Cummings ladder: ground at -1/2, then doublets
    (n - 1/2) -/+ g*sqrt(n)."""
    energies = [-0.5]
    n = 1
    while len(energies) < n_levels + 2:
        energies.append((n - 0.5) - g * math.sqrt(n))
        energies.append((n - 0.5) + g * math.sqrt(n))
        n += 1
    return np.array(sorted(energies)[: n_levels])


def test_jc_doublets():
    p = rs.ModelParams(delta=1.0, g=0.1, r=0.0, u=0.0, n_tr=12)
    eigs = build_eigs(p)
    assert np.allclose(eigs.energies[:3], [-0.5, 0.4, 0.6], atol=1e-9)
    assert np.allclose(eigs.energies[:7], jc_reference_energies(0.1, 7), atol=1e-9)


def test_eigensystem_invariants():
    rng = np.random.default_rng(23)
    for _ in range(6):
        p = random_model(rng, n_tr=14)
        h = dense_hamiltonian(p)
        eigs = rs.eigensystem(p)
        assert eigs.states.shape == (p.n_tr + 1, p.dim)
        assert np.all(np.diff(eigs.energies) >= 0)
        states = composite_states(eigs)
        overlap = states.T @ states
        assert np.max(np.abs(overlap - np.eye(eigs.dim))) < 1e-10
        residual = h @ states - states * eigs.energies
        scale = np.maximum(1.0, np.abs(eigs.energies))
        assert np.all(np.linalg.norm(residual, axis=0) < 1e-9 * scale)
        assert set(np.unique(eigs.parities)) <= {-1.0, 1.0}


@settings(max_examples=150, deadline=None)
@given(
    g=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    r=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    u=st.one_of(st.sampled_from([-0.9, -0.8999, 0.8999, 0.9]), st.floats(-0.9, 0.9)),
    n_tr=st.integers(2, 60),
)
@example(g=0.0, r=1.0, u=0.0, n_tr=20)   # resonant, diagonal: same-parity degeneracies
@example(g=0.3, r=0.0, u=0.0, n_tr=20)   # Jaynes-Cummings: 2x2 blocks, tied components
@example(g=2.5, r=0.9375, u=-0.9, n_tr=48)  # ground doublet split by 9.7e-9 < threshold
def test_eigensystem_matches_dense_oracle(g, r, u, n_tr):
    p = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    eigs = rs.eigensystem(p)
    states = composite_states(eigs)
    h = dense_hamiltonian(p)
    reference = np.linalg.eigvalsh(h)
    scale = max(1.0, reference[-1] - reference[0])
    assert np.max(np.abs(eigs.energies - reference)) <= 1e-12 * scale

    # Every column is an eigenvector of H.  Under the level-order rule a
    # column may sit at a neighbour's energy, but no farther away than the
    # order threshold DEGENERACY_FRACTION * span.
    own = np.einsum("ij,ij->j", states, h @ states)
    residual = np.linalg.norm(h @ states - states * own, axis=0)
    assert np.all(residual <= 1e-9 * np.maximum(1.0, np.abs(own)))
    assert np.max(np.abs(own - eigs.energies)) <= (DEGENERACY_FRACTION + 1e-12) * scale
    assert np.max(np.abs(states.T @ states - np.eye(p.dim))) < 1e-12

    # The scatter puts each column in the sector of its label, so that sector
    # must be the one H is diagonal on: exp(i pi N) states = states * labels.
    # Its largest component is positive (ties between +/- components of
    # equal size occur in the resonant Jaynes-Cummings doublets).
    parity = parity_diagonal(n_tr)[:, None]
    assert np.array_equal(parity * states, states * eigs.parities[None, :])
    assert np.all(states.max(axis=0) >= -states.min(axis=0))


def test_level_order_rule_near_ground_crossing():
    # Levels closer than DEGENERACY_FRACTION * span are ordered odd parity
    # first, not by energy (the rule the critical-scan references rest on).
    # At g = 1.5491904, E1 - E0 = 2.45e-8: below the n_tr=200 threshold
    # (2.57e-8), so odd parity comes first although it lies higher; above the
    # n_tr=120 threshold (1.59e-8), so the energy order holds.
    model = rs.ModelParams(delta=1.0, g=1.5491904, r=1.0, u=0.2, n_tr=200)
    eigs = rs.eigensystem(model)
    assert eigs.energies[1] - eigs.energies[0] == pytest.approx(2.45e-8, rel=0.01)
    assert list(eigs.parities[:2]) == [-1.0, 1.0]
    assert list(rs.eigensystem(model.with_n_tr(120)).parities[:2]) == [1.0, -1.0]


def test_decoupled_parity_labels():
    # Off resonance the decoupled eigenvectors are bare basis states, so the
    # label of (qubit ground, n photons) must be (-1)^n.
    p = rs.ModelParams(delta=0.5, g=0.0, r=1.0, u=0.0, n_tr=8)
    eigs = build_eigs(p)
    states = composite_states(eigs)
    for n in range(6):
        basis_index = n  # qubit ground block comes first
        level = int(np.argmax(np.abs(states[basis_index, :])))
        assert abs(abs(states[basis_index, level]) - 1.0) < 1e-12
        assert eigs.parities[level] == (-1.0) ** n


def test_phase_fixing_largest_component_real_positive():
    p = rs.ModelParams(delta=1.0, g=0.7, r=0.4, u=0.3, n_tr=10)
    eigs = build_eigs(p)
    for k in range(eigs.dim):
        col = eigs.states[:, k]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_pipeline_arrays_are_real():
    p = rs.ModelParams(delta=1.0, g=0.6, r=0.5, u=0.2, n_tr=10)
    eigs, table, ss, x = observables_pipeline(p, rs.BathParams(), n_levels=12)
    arrays = (eigs.states, *eigs.parity_odd_elements, table.rate,
              ss.populations, x.xplus, x.xmat)
    assert all(arr.dtype == np.float64 for arr in arrays)
    assert all(isinstance(m, float) for m in rs.field_moments(ss, eigs))


def test_truncation_convergence_of_low_levels():
    rng = np.random.default_rng(31)
    for _ in range(3):
        p = rs.ModelParams(
            delta=1.0,
            g=float(rng.uniform(0.0, 1.2)),
            r=float(rng.uniform(0.0, 1.5)),
            u=float(rng.uniform(-0.5, 0.5)),
            n_tr=100,
        )
        small = build_eigs(p).energies[:11]
        large = build_eigs(p.with_n_tr(120)).energies[:11]
        assert np.max(np.abs(small - large)) < 1e-10


def test_gaps_antisymmetric_and_jc_value():
    p = rs.ModelParams(delta=1.0, g=0.1, r=0.0, u=0.0, n_tr=12)
    eigs = build_eigs(p)
    d = gaps(eigs)
    assert np.array_equal(d, -d.T)
    assert d[1, 0] == pytest.approx(0.9, abs=1e-9)
    assert d[2, 1] == pytest.approx(0.2, abs=1e-9)
    tri = d[np.triu_indices(eigs.dim, k=1)]
    assert np.all(tri <= 0)  # upper triangle is E_j - E_k with k > j

    decoupled = build_eigs(rs.ModelParams(delta=1.0, g=0.0, r=1.0, u=0.0, n_tr=8))
    assert gaps(decoupled)[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_gc_analytic_values():
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=10)
    assert rs.gc_analytic(p) == pytest.approx(0.9065968278, abs=1e-9)
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.0, u=0.0, n_tr=10)
    assert rs.gc_analytic(p) == pytest.approx(1.0, abs=1e-12)
    p = rs.ModelParams(delta=1.0, g=0.5, r=1.0, u=0.0, n_tr=10)
    assert rs.gc_analytic(p) is None
    p = rs.ModelParams(delta=1.0, g=0.5, r=2.0, u=0.1, n_tr=10)
    # denominator 0.1*5 + 1 - 4 < 0: no finite ground crossing
    assert rs.gc_analytic(p) is None


def test_find_crossings_jc_ground():
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.0, u=0.0, n_tr=40)
    cp = rs.find_crossings(p, 0.8, 1.2, steps=9, levels=((0, 1),))
    assert cp.gc_numeric is not None
    value, half = cp.gc_numeric
    assert value == pytest.approx(1.0, abs=0.01)
    assert half < 1e-4


def test_find_crossings_qrm_has_no_ground_crossing():
    p = rs.ModelParams(delta=1.0, g=0.5, r=1.0, u=0.0, n_tr=60)
    cp = rs.find_crossings(p, 0.05, 2.0, steps=17, levels=((0, 1),))
    assert cp.gc_numeric is None
    assert cp.gc_analytic is None
    assert cp.crossings == []


def test_gc_numeric_matches_analytic_within_refined_width():
    for r, u in ((0.3, 0.1), (0.7, 0.4)):
        p = rs.ModelParams(delta=1.0, g=0.5, r=r, u=u, n_tr=80)
        expected = rs.gc_analytic(p)
        window = 0.2
        cp = rs.find_crossings(p, expected - window, expected + window, steps=9,
                               levels=((0, 1),))
        assert cp.gc_numeric is not None
        value, half = cp.gc_numeric
        bisection_width = 2 * window / 2**14
        assert abs(value - expected) < bisection_width


def test_crossing_levels_swap_parity():
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=60)
    cp = rs.find_crossings(p, 0.8, 1.0, steps=9, levels=((0, 1),))
    value, half = cp.gc_numeric
    left = build_eigs(rs.ModelParams(delta=1.0, g=value - 0.01, r=0.2, u=0.2, n_tr=60))
    right = build_eigs(rs.ModelParams(delta=1.0, g=value + 0.01, r=0.2, u=0.2, n_tr=60))
    assert left.parities[0] == -right.parities[0]
    assert left.parities[1] == -right.parities[1]
    assert left.parities[0] == -left.parities[1]
    assert right.parities[0] == -right.parities[1]


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(0.0, 2.0),
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.9, 0.9),
    n_tr=st.integers(2, 40),
    k=st.integers(1, 90),
)
@example(g=1.5491904, r=1.0, u=0.2, n_tr=200, k=4)   # level-order rule at a ground crossing
def test_lowest_levels_match_eigensystem(g, r, u, n_tr, k):
    p = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    energies, labels = rs.spectrum.lowest_levels(p, k)
    want_e, want_p = eigensystem_levels(p, k)
    assert np.array_equal(labels, want_p)
    scale = max(1.0, float(np.max(np.abs(want_e))))
    assert np.allclose(energies, want_e, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("r, u", [(0.2, 0.2), (1.0, 0.2), (0.5, -0.4)])
def test_find_crossings_equals_eigensystem_labels(monkeypatch, r, u):
    # The chain-eigenvalue scan finds the very crossings the labels of the
    # full eigensystem give, on the three benchmark families.  They form
    # one list ascending in g that the pair order does not change, and the
    # numeric ground crossing is its first (0, 1) entry.  At 9 steps one
    # interval of the (0.5, -0.4) scan holds a (2, 3) crossing below the
    # (0, 1) one.  At n_tr = 30 the scan bisects the whole chains; at
    # n_tr = 120 it bisects a head of 32 sites and certifies it.
    models = [rs.ModelParams(delta=1.0, g=0.0, r=r, u=u, n_tr=n_tr) for n_tr in (30, 120)]
    scans = {(p, steps): rs.find_crossings(p, 0.05, 2.0, steps=steps)
             for p in models for steps in (41, 9)}
    for (p, steps), cp in scans.items():
        crossings = cp.crossings
        assert crossings
        shuffled = rs.find_crossings(p, 0.05, 2.0, steps=steps,
                                     levels=((2, 3), (0, 1), (1, 2)))
        assert shuffled.crossings == crossings
        values = [g for _, g, _ in crossings]
        assert values == sorted(values)
        ground = [(g, half) for pair, g, half in crossings if pair == (0, 1)]
        assert cp.gc_numeric == (ground[0] if ground else None)
    # The scan's one hook, on the grid and in the refinement, and its
    # fallback, replaced by the eigensystem's levels.
    oracle = []

    def levels_of_eigensystem(model, g, k):
        oracle.append(g)
        return eigensystem_levels(replace(model, g=g), k)

    monkeypatch.setattr(rs.spectrum, "_lowest",
                        lambda model, parts, g, k: levels_of_eigensystem(model, g, k))
    monkeypatch.setattr(rs.spectrum, "_scan_levels",
                        lambda scan, g, k, tol: levels_of_eigensystem(scan.p, g, k))
    for (p, steps), cp in scans.items():
        oracle.clear()
        assert cp == rs.find_crossings(p, 0.05, 2.0, steps=steps)
        assert len(oracle) > steps       # the grid and the refinements


def test_find_crossings_validation():
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=10)
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(p, 1.0, 0.5, steps=16)
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(p, 0.1, 1.0, steps=4)
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(p, 0.1, 1.0, steps=16, levels=((0, 2),))
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(p, 0.1, 1.0, steps=16, levels=((21, 22),))  # 22 levels at n_tr=10
    # A repeated pair would report its crossings again; no pair, no scan; a
    # fractional step count is not rounded for the caller, and a bool is not
    # an integer.  Pairs of another shape or kind, and a container that is no
    # list or tuple, are invalid parameters too, not raw errors.
    malformed = ([(0, 1, 2)], [(0,)], np.array([[0, 1]]), [0], [[0, 1]],
                 ((k, k + 1) for k in range(2)))
    for levels in (((0, 1), (0, 1)), ((0, 1), (1, 2), (0, 1)), (), ((0.5, 1.5),),
                   ((False, True),)) + malformed:
        with pytest.raises(rs.InvalidParameterError):
            rs.find_crossings(p, 0.1, 1.0, steps=16, levels=levels)
    for steps in (10.7, 16.0, True):
        with pytest.raises(rs.InvalidParameterError):
            rs.find_crossings(p, 0.1, 1.0, steps=steps)
    # Bounds are finite with 0 <= g_min: a negative coupling is not a model,
    # and an infinite one would reach np.linspace.
    for lo, hi in ((-0.1, 1.0), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(rs.InvalidParameterError):
            rs.find_crossings(p, lo, hi, steps=9)
    # The scan section of a config obeys the same rules.
    bad_scans = [dict(g_min=1.0, g_max=0.5), dict(g_min=0.5, g_max=0.5), dict(count=4),
                 dict(count=10.5), dict(count=16.0), dict(pairs=((0, 2),)),
                 dict(pairs=((-1, 0),)), dict(pairs=((0, 1), (0, 1))), dict(pairs=()),
                 dict(pairs=((0.5, 1.5),)), *(dict(pairs=pairs) for pairs in malformed),
                 dict(n_levels=1), dict(n_levels=8.5), dict(g_min=-0.1), dict(g_max=math.inf)]
    for bad in bad_scans:
        with pytest.raises(rs.InvalidParameterError):
            ScanConfig(**bad)


@pytest.mark.parametrize("r, u", [(0.2, 0.2), (1.0, 0.2), (0.5, -0.4)])
def test_find_crossings_equals_the_scan_at_max_level(monkeypatch, r, u):
    # Solving each coupling for only the levels read there moves no
    # crossing: the scan equals the one that bisects the whole chains for
    # max_level + 1 levels per chain at every coupling, grid and refinement
    # alike, on the benchmark families +/- 0.01 (at n_tr = 120 on a head of
    # the chains).
    lowest = rs.spectrum._lowest
    level_sets = (((0, 1), (1, 2), (2, 3)), ((2, 3), (0, 1), (1, 2)), ((1, 2), (4, 5)))
    cases = [(rs.ModelParams(delta=1.0, r=r + d, u=u + d, n_tr=n_tr), steps, levels)
             for d in (-0.01, 0.0, 0.01) for n_tr in (16, 30, 120) for steps in (41, 81)
             for levels in level_sets]
    scans = [rs.find_crossings(p, 0.05, 2.0, steps, levels=levels) for p, steps, levels in cases]
    assert sum(len(cp.crossings) for cp in scans) > len(cases)
    for (p, steps, levels), cp in zip(cases, scans):
        top = max(hi for _, hi in levels) + 1
        monkeypatch.setattr(rs.spectrum, "_scan_levels",
                            lambda scan, g, k, tol: lowest(scan.p, scan.parts, g, top))
        assert rs.find_crossings(p, 0.05, 2.0, steps, levels=levels) == cp


def test_find_crossings_solves_each_coupling_once(monkeypatch):
    # At the ground crossing level 1 swaps in the same grid interval as
    # level 0, so the (1, 2) refinement meets the (0, 1) one's couplings;
    # each is solved once, on the two parity chains one _parts call builds
    # per scan: no model per coupling.  Every solve goes through
    # _scan_levels: a grid coupling for the labels up to level 2 (the highest
    # lower level of the pairs) to GRID_TOL, then the refinement at tolerance
    # 0 for the levels read there: the ground interval's midpoints up to
    # level 1, a (2, 3) interval's up to level 2, and each bracket centre one
    # level more, for its gap.  On a head (n_tr = 120) and on the whole chains (n_tr = 30)
    # alike, it hands a coupling to _lowest only where its values leave it in
    # doubt.
    for n_tr in (30, 120):
        calls, cuts, fallbacks, builds, models = [], set(), [], [], []
        levels, solve = rs.spectrum._scan_levels, rs.spectrum._lowest
        build, check = rs.spectrum._parts, rs.ModelParams.__post_init__

        def hooked(scan, g, k, tol):
            calls.append((g, k, tol))
            cuts.add(scan.cut)
            return levels(scan, g, k, tol)

        def fallback(p, parts, g, k):
            fallbacks.append((g, k))
            assert (g, k) == calls[-1][:2]
            return solve(p, parts, g, k)

        def built(p):
            builds.append(p)
            return build(p)

        p = rs.ModelParams(delta=1.0, g=0.0, r=0.2, u=0.2, n_tr=n_tr)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rs.spectrum, "_scan_levels", hooked)
            patch.setattr(rs.spectrum, "_lowest", fallback)
            patch.setattr(rs.spectrum, "_parts", built)
            patch.setattr(rs.ModelParams, "__post_init__",
                          lambda model: models.append(model) or check(model))
            cp = rs.find_crossings(p, 0.05, 2.0, steps=41)
        assert [pair for pair, _, _ in cp.crossings] == [(2, 3), (0, 1), (2, 3)]
        assert cuts == {n_tr == 120}
        grid = np.linspace(0.05, 2.0, 41).tolist()
        assert calls[:41] == [(g, 3, rs.spectrum.GRID_TOL) for g in grid]
        refined = calls[41:]
        couplings = [g for g, _, _ in refined]
        assert len(couplings) == len(set(couplings)) and not set(couplings) & set(grid)
        assert [k for _, k, _ in refined] == [3] * 14 + [4] + [2] * 14 + [3] + [3] * 14 + [4]
        assert {tol for _, _, tol in refined} == {0.0}
        assert len(fallbacks) < len(calls) // 10
        assert builds == [p]
        assert models == []


def _labels_and_fallbacks(p, g, k, sites=None):
    """The grid's labels at (g, k), _scan_levels at GRID_TOL, of the scan of
    p that bisects the leading sites of each chain (the whole chains when
    None), the (g, k) it handed to _lowest, and the labels of _lowest itself."""
    fallbacks, solve = [], rs.spectrum._lowest
    parts = rs.spectrum._parts(p)
    scan = rs.spectrum._Scan(p, parts, sites or p.n_tr + 1, min(k, p.n_tr + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs.spectrum, "_lowest",
                      lambda *args: fallbacks.append(args[2:]) or solve(*args))
        labels = rs.spectrum._scan_levels(scan, g, k, rs.spectrum.GRID_TOL)[1]
    return labels, fallbacks, solve(p, parts, g, k)[1]


@settings(max_examples=300, deadline=None)
@given(
    where=st.sampled_from(["zero", "tiny", "window", "crossing", "huge"]),
    x=st.floats(0.0, 1.0),
    r=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
    u=st.floats(-0.9, 0.9),
    n_tr=st.integers(2, 150),
    k=st.integers(1, 8),
)
def test_grid_labels_equal_the_full_precision_labels(where, x, r, u, n_tr, k):
    # The coarse bisection's labels are those of _lowest wherever they are
    # certified; elsewhere _lowest gives them, on the whole chains and on a
    # head of 32 sites.  Couplings: g = 0, tiny, the scan window, within
    # 1e-5 of the ground crossing, and around the coupling where the
    # unscaled chain's squared hops would overflow.
    gc = rs.spectrum.gc_analytic(rs.ModelParams(delta=1.0, r=r, u=u))
    assume(where != "crossing" or gc is not None)
    g = {"zero": 0.0, "tiny": 1e-12 * 1e6**x, "window": 3.0 * x,
         "crossing": gc + (2.0 * x - 1.0) * 1e-5 if gc else 0.0,
         "huge": 10.0 ** (146.0 + 10.0 * x) / math.sqrt(n_tr)}[where]
    p = rs.ModelParams(delta=1.0, r=r, u=u, n_tr=n_tr)
    for sites in (None, 32):
        labels, fallbacks, want = _labels_and_fallbacks(p, g, k, sites)
        assert np.array_equal(labels, want)
        assert fallbacks in ([], [(g, k)])


@pytest.mark.parametrize("model, g, k, doubt", [
    # A generic coupling is certified.
    (dict(delta=1.0, r=1.0, u=0.2, n_tr=200), 0.7, 4, False),
    # The ground gap (2.45e-8) is inside the level-order shift (~1.1e-7):
    # _lowest puts the odd level first.
    (dict(delta=1.0, r=1.0, u=0.2, n_tr=200), 1.5491904, 4, True),
    # Levels 2 and 3 are an exact even/odd degeneracy at g = 0.
    (dict(delta=2.0, r=0.5, u=0.0, n_tr=10), 0.0, 4, True),
    # The ground gap (-1.59e-5) is inside the coarse radii (~6e-5), and the
    # coarse values are in the wrong order.
    (dict(delta=1.0, r=1.0, u=0.2, n_tr=200), 1.5473073, 2, True),
    # At a small energy unit the radii (2.9e-11) are inside the shift
    # (1e-10): a ground gap of -5.8e-11 is certified by the radii alone, but
    # _lowest puts the odd level first.
    (dict(delta=1e-5, omega0=1e-5, r=0.5, u=0.0, n_tr=4), 1.158271e-05, 2, True),
])
def test_grid_labels_fall_back_where_the_order_is_in_doubt(model, g, k, doubt):
    p = rs.ModelParams(**model)
    labels, fallbacks, want = _labels_and_fallbacks(p, g, k)
    assert np.array_equal(labels, want)
    assert fallbacks == ([(g, k)] if doubt else [])


@st.composite
def _scan_heads(draw):
    """(n_tr, m'): a chain of n_tr + 1 sites and a head the scan may pick,
    m' in {32, 64, 128} with 2 m' <= n_tr + 1 (spectrum._heads)."""
    n_tr = draw(st.integers(63, 400))
    return n_tr, draw(st.sampled_from([m for m in (32, 64, 128) if 2 * m <= n_tr + 1]))


@settings(max_examples=200, deadline=None)
@given(
    where=st.sampled_from(["zero", "window", "crossing", "wide"]),
    x=st.floats(0.0, 1.0),
    r=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
    u=st.one_of(st.sampled_from([-0.999, -0.99, 0.99, 0.999]), st.floats(-0.95, 0.95)),
    head=_scan_heads(),
    k=st.integers(1, 6),
)
@example(where="crossing", x=0.5, r=1.0, u=0.2, head=(200, 32), k=4)
@example(where="wide", x=1.0, r=1.0, u=0.2, head=(200, 32), k=4)
# The head the golden critical_r1_u02_n200_g3 scan picks, at its g_max = 3.
@example(where="wide", x=0.75, r=1.0, u=0.2, head=(200, 64), k=4)
def test_head_certificate_gives_the_full_chain_levels(where, x, r, u, head, k):
    # On a head of m' sites, wherever _bracket certifies the lowest levels,
    # the tolerance-0 values of the whole chains lie within its radius of the
    # head's, at both tolerances; the labels and the gap decisions the scan
    # takes from them (_scan_levels) are _lowest's, at both.  Couplings:
    # g = 0, the scan window, within 1e-5 of the ground crossing, and up to
    # g = 4, where the levels fill more than the head.
    gc = rs.spectrum.gc_analytic(rs.ModelParams(delta=1.0, r=r, u=u))
    assume(where != "crossing" or gc is not None)
    g = {"zero": 0.0, "window": 2.0 * x, "wide": 4.0 * x,
         "crossing": gc + (2.0 * x - 1.0) * 1e-5 if gc else 0.0}[where]
    n_tr, sites = head
    p = rs.ModelParams(delta=1.0, r=r, u=u, n_tr=n_tr)
    parts = rs.spectrum._parts(p)
    scan = rs.spectrum._Scan(p, parts, sites, min(k + 1, n_tr + 1))
    assert scan.cut
    low = min(k, p.n_tr + 1)
    chains, _ = rs.spectrum._coupled(p, parts, g)
    whole = [rs.spectrum._bisect(*chain, 0, low - 1) for chain in chains]
    energies, labels = rs.spectrum._lowest(p, parts, g, k)
    closure = GAP_CLOSURE_FRACTION * p.omega0
    for tol in (0.0, rs.spectrum.GRID_TOL):
        found = rs.spectrum._bracket(scan, g, k, tol)
        if found is not None:
            values, radius, _ = found
            for got, want in zip(values, whole):
                assert np.all(np.abs(got - want) <= radius)
        got_e, got_labels = rs.spectrum._scan_levels(scan, g, k, tol)
        assert np.array_equal(got_labels, labels)
        assert np.array_equal(np.diff(got_e) < closure, np.diff(energies) < closure)


def _full_chain_count(p, parts, g, sigma):
    """The scan certificate's count on both whole chains at g, one copy per
    shift: sigma holds one list of shifts per chain, the copies follow one
    another as in _bracket's stack, and all run at the larger scale."""
    chains, _ = rs.spectrum._coupled(p, parts, g)
    diag, off = rs.spectrum._stack(chains * len(sigma[0]))
    shifts = np.repeat([s for pair in zip(*sigma) for s in pair], p.n_tr + 1)
    return rs.spectrum._count(diag - shifts, off, max(chains[0][2], chains[1][2]))


@settings(max_examples=300, deadline=None)
@given(
    r=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.5)),
    u=st.one_of(st.sampled_from([-0.95, 0.95]), st.floats(-0.95, 0.95)),
    n_tr=st.integers(2, 250),
    head=st.integers(8, 64),
    g=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    k=st.integers(1, 6),
    tol=st.sampled_from([0.0, rs.spectrum.GRID_TOL]),
)
# A slowly rising site beside a large hop ends the shortest dominant prefix
# (130 of 131 sites): lowered by the whole hop, it would be a level below sigma.
@example(r=1.0420609596127015, u=-0.8479023180314862, n_tr=130, head=64, g=1.930625, k=3,
         tol=rs.spectrum.GRID_TOL)
# One site past the head, slowly rising: its row is dominant only with the
# hop the split charges to it.
@example(r=0.375, u=0.95, n_tr=8, head=8, g=0.4375, k=1, tol=rs.spectrum.GRID_TOL)
# Alternating hops (r = 1.5): the room of the first tail row, which sizes the
# split, must leave its own outward hop dominated.
@example(r=1.5, u=0.0, n_tr=84, head=16, g=1.59375, k=1, tol=rs.spectrum.GRID_TOL)
def test_prefix_certificate_holds_on_the_whole_chains(r, u, n_tr, head, g, k, tol):
    # Wherever _bracket certifies a head by counting the lowered prefixes,
    # the count of the whole chains at the same shifts finds low (low - 1)
    # too: each chain has exactly k eigenvalues at or below sigma_k.
    assume(head <= n_tr)
    p = rs.ModelParams(delta=1.0, r=r, u=u, n_tr=n_tr)
    parts = rs.spectrum._parts(p)
    found = rs.spectrum._bracket(rs.spectrum._Scan(p, parts, head, min(k, n_tr + 1)), g, k, tol)
    event("certified" if found else "refused")
    if found is not None:
        values, _, _ = found
        scales, _ = rs.spectrum._scales(p, parts, g)
        below = (rs.spectrum._radius(tol) + rs.spectrum._SLACK) * max(scales)
        low = len(values[0])
        sigma = [[x - below for x in mu] for mu in values]
        assert _full_chain_count(p, parts, g, sigma) == low * (low - 1)


def test_prefix_count_runs_on_the_shortest_dominant_prefix(monkeypatch):
    # On a benchmark coupling every row past the 32-site head is dominant:
    # the count stacks 2 * 3 blocks of 32 sites, not of the 121-site chains.
    # Past g_max = 3 at u = -0.85 the slowly rising sites keep 130 of 131.
    sizes, count = [], rs.spectrum._count
    monkeypatch.setattr(rs.spectrum, "_count",
                        lambda shifted, off, scale: sizes.append(shifted.size)
                        or count(shifted, off, scale))
    for model, head, g, k, want in (
            (dict(r=1.0, u=0.2, n_tr=120), 32, 1.2, 3, 6 * 32),
            (dict(r=1.0420609596127015, u=-0.8479023180314862, n_tr=130), 64, 1.930625, 3,
             6 * 130)):
        p = rs.ModelParams(delta=1.0, **model)
        sizes.clear()
        scan = rs.spectrum._Scan(p, rs.spectrum._parts(p), head, k)
        assert rs.spectrum._bracket(scan, g, k, rs.spectrum.GRID_TOL) is not None
        assert sizes == [want]


@pytest.mark.parametrize("fault", ["count", "info"])
def test_failed_head_certificate_falls_back_to_the_whole_chains(monkeypatch, fault):
    # A stacked count that finds a wrong number of eigenvalues, or that
    # LAPACK reports as failed, certifies nothing: every coupling after the
    # one that chose the head goes to _lowest, and the crossings are the
    # same.  Failing from the start, the scan takes the whole chains.
    p = rs.ModelParams(delta=1.0, g=0.0, r=1.0, u=0.2, n_tr=120)
    want = rs.find_crossings(p, 0.05, 2.0, 41)
    assert want.crossings
    lapack, lowest = rs.spectrum.dstebz, rs.spectrum._lowest
    counts, fallbacks, heads = [], [], []

    def faulty(d, e, mode, *args):
        m, w, block, split, info = lapack(d, e, mode, *args)
        if mode != 1:                 # a bisection, not a count
            return m, w, block, split, info
        counts.append(d.size)
        if len(counts) <= passing:
            return m, w, block, split, info
        return (m + 1, w, block, split, info) if fault == "count" else (m, w, block, split, 1)

    def counted(p, parts, g, k):
        fallbacks.append((g, k))
        return lowest(p, parts, g, k)

    monkeypatch.setattr(rs.spectrum, "dstebz", faulty)
    monkeypatch.setattr(rs.spectrum, "_lowest", counted)
    scan = rs.spectrum._Scan
    monkeypatch.setattr(rs.spectrum, "_Scan", lambda *args: heads.append(args[2]) or scan(*args))
    for passing in (1, 0):
        counts.clear(), fallbacks.clear(), heads.clear()
        assert rs.find_crossings(p, 0.05, 2.0, 41) == want
        assert heads == [32]
        if passing:
            # 41 grid couplings and every refinement solve.
            assert len(fallbacks) == len(counts) - 1 > 41
        else:
            # The head would double to 64 sites, more than half the chain:
            # the scan bisects the whole chains and counts nothing more.
            assert len(counts) == 1


def test_grid_labels_fall_back_on_a_bisection_failure(monkeypatch):
    # A failed or short coarse bisection goes to _lowest, which raises as before.
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=10)
    bisect = rs.spectrum.dstebz
    for failure in ((0, np.empty(3), None, None, 1), (2, np.zeros(3), None, None, 0)):
        def coarse_fails(*args, failure=failure):
            return failure if args[7] > 0.0 else bisect(*args)
        monkeypatch.setattr(rs.spectrum, "dstebz", coarse_fails)
        labels, fallbacks, want = _labels_and_fallbacks(p, 0.5, 3)
        assert np.array_equal(labels, want) and fallbacks == [(0.5, 3)]
    monkeypatch.setattr(rs.spectrum, "dstebz", lambda *args: (0, np.empty(3), None, None, 1))
    with pytest.raises(rs.NumericFailureError):
        rs.find_crossings(p, 0.1, 1.0, 9)


def test_top_bisection_runs_only_where_the_level_order_rule_acts(monkeypatch):
    # At g = 1.5491904 the ground gap (2.45e-8) is below the rule's threshold,
    # so the span is needed and the odd level comes first; a generic point
    # reads its labels off the energies alone.  eigensystem solves both on
    # certified 80-site heads and bisects the top of the full chains.
    tops = []
    bisect = rs.spectrum._bisect

    def recorded(diag, off, scale, lo, hi):
        if lo == diag.size - 1:
            tops.append(diag.size)
        return bisect(diag, off, scale, lo, hi)

    def head_labels(p):
        eigs = rs.eigensystem(p, 40)
        assert eigs.states.shape[0] == 80
        return eigs.parities

    monkeypatch.setattr(rs.spectrum, "_bisect", recorded)
    model = rs.ModelParams(delta=1.0, g=1.5491904, r=1.0, u=0.2, n_tr=200)
    for labels in (lambda p: rs.spectrum.lowest_levels(p, 4)[1], head_labels):
        tops.clear()
        assert list(labels(model)[:2]) == [-1.0, 1.0]
        assert tops == [201, 201]
        for g in (0.7, 0.9):
            tops.clear()
            labels(replace(model, g=g))
            assert tops == []


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.9, 0.9),
    n_tr=st.integers(10, 120),
    k=st.integers(1, 8),
    dg=st.floats(-1e-5, 1e-5),
)
@example(r=1.0, u=0.2, n_tr=200, k=4, dg=1.5491904 - 1.549193338482)
def test_lowest_levels_match_eigensystem_at_the_ground_crossing(r, u, n_tr, k, dg):
    # Where the level-order rule can act: within 1e-5 of the ground crossing.
    gc = rs.spectrum.gc_analytic(rs.ModelParams(delta=1.0, r=r, u=u))
    assume(gc is not None and gc < 3.0)
    p = rs.ModelParams(delta=1.0, g=gc + dg, r=r, u=u, n_tr=n_tr)
    assert np.array_equal(rs.spectrum.lowest_levels(p, k)[1], eigensystem_levels(p, k)[1])


@settings(max_examples=60, deadline=None)
@given(g=st.floats(0.0, 1e6), r=st.floats(0.0, 1e3), n_tr=st.integers(2, 300))
def test_scaled_chain_is_the_chain_at_g(g, r, n_tr):
    # The scan scales the g = 1 hops: the same bits as the hops written at g,
    # and the same Gershgorin bound, since rounding is monotone and g >= 0.
    p = rs.ModelParams(delta=1.0, g=g, r=r, u=0.3, n_tr=n_tr)
    n = np.arange(n_tr + 1)
    for odd in (0, 1):
        q = (n + odd) % 2
        _, unit, _, _ = rs.spectrum._parts(p)[odd]
        assert np.array_equal(g * unit, g * (np.sqrt(n[1:]) * np.where(q[:-1] == 1, 1.0, r)))
        assert np.max(np.abs(g * unit)) == g * np.max(np.abs(unit))


@settings(max_examples=200, deadline=None)
@given(
    model=st.one_of(
        st.tuples(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.0, 2.0)),
                  st.integers(2, 60)),
        # Short chains at couplings up to 1e150, where the grown chains' scale
        # lies far above the short chains' max|E|.
        st.tuples(st.floats(-3.0, 150.0).map(lambda x: 10.0**x), st.integers(2, 6)),
    ),
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.9, 0.9),
    n_levels=st.integers(1, 12),
    extra=st.one_of(st.integers(1, 3), st.just(40)),
)
@example(model=(0.0, 16), r=1.547, u=-0.766, n_levels=12, extra=40)
@example(model=(1.23, 7), r=1.57, u=-0.04, n_levels=8, extra=1)   # last old pivot < 0, cleared
# A gap of pure rounding passes the closure test, and sigma splits a
# degenerate pair: one even level is added, though no pivot past n_tr is < 0.
@example(model=(9.65e56, 12), r=1.0, u=0.3, n_levels=5, extra=1)
# The gap above level 2 (3.83) lies above 2^-44 max|E| (3.63), the floor's
# rounding term before it took the grown chains' scale S, and below 2^-48 S
# (4.0), within the count's error of sigma: refused by the floor.
@example(model=(4.5e13, 2), r=0.1, u=0.45, n_levels=3, extra=40)
def test_keeps_lowest_levels_counts_the_longer_chains(model, r, u, n_levels, extra):
    # The Sturm count against a count on the longer spectrum, per parity,
    # down to one added site (a 1x1 Schur complement), and at g = 0, where
    # the added sites are levels of their own.  A cleared cutoff gap is at
    # least 2^-48 of the grown chains' larger scale S, so sigma lies farther
    # than the count's error, 2^-49 S (spectrum._count), from both levels.
    g, n_tr = model
    p = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    eigs = rs.eigensystem(p)
    e = eigs.energies
    assume(n_levels < eigs.dim and e[n_levels] - e[n_levels - 1] >= GAP_CLOSURE_FRACTION)
    sigma = 0.5 * (e[n_levels - 1] + e[n_levels])
    grown = p.with_n_tr(n_tr + extra)
    chains, _ = rs.spectrum._coupled(grown, rs.spectrum._parts(grown), g)
    scale = max(chains[0][2], chains[1][2])
    longer = rs.eigensystem(grown)
    assume(np.min(np.abs(longer.energies - sigma)) > max(1e-9, 2.0**-40 * scale))
    same = all(np.sum((longer.energies < sigma) & (longer.parities == label))
               == np.sum((e < sigma) & (eigs.parities == label)) for label in (1.0, -1.0))
    cleared = keeps_lowest_levels(p, cut_levels(eigs, n_levels), extra)
    assert cleared == same
    assert not cleared or e[n_levels] - e[n_levels - 1] >= 2.0**-48 * scale


@settings(max_examples=200, deadline=None)
@given(
    n_tr=st.integers(2, 250),
    r=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    u=st.floats(-0.999, 0.999),
    reach=st.one_of(st.just(None), st.floats(0.0, 1.0)),
    copies=st.integers(1, 8),
    data=st.data(),
)
def test_stacked_count_equals_the_per_chain_counts(n_tr, r, u, reach, copies, data):
    # One count of copies copies of both chains, each block at its own sigma
    # and all at the larger scale, is the sum of the blocks' counts, each
    # taken alone at its chain's own scale by dstebz.  Couplings run from 0
    # up to 1/2 of the _coupled overflow edge, log-uniform from 2^-40; at
    # g = 0 a sigma may sit exactly on an eigenvalue (a diagonal entry).
    p = rs.ModelParams(delta=1.0, r=r, u=u, n_tr=n_tr)
    parts = rs.spectrum._parts(p)
    edge = min(np.finfo(float).max / (4.0 * umax) for *_, umax in parts)
    g = 0.0 if reach is None else 2.0 ** (-40.0 + reach * (math.log2(edge) + 39.0))
    chains, _ = rs.spectrum._coupled(p, parts, g)
    sigmas, want = [], 0
    for _ in range(copies):
        for diag, off, scale in chains:
            if g == 0.0 and data.draw(st.booleans(), label="on a level"):
                sigma = float(diag[data.draw(st.integers(0, n_tr), label="level")])
            else:
                sigma = data.draw(st.floats(-1.0, 1.0), label="where") * 0.5 * scale
            sigmas.append(sigma)
            want += rs.spectrum.dstebz((diag - sigma) / scale, off / scale, 1, -4.0, 0.0,
                                       0, 0, 4.0, "E")[0]
    diag, off = rs.spectrum._stack(chains * copies)
    scale = max(chains[0][2], chains[1][2])
    shifted = diag - np.repeat(sigmas, n_tr + 1)
    assert rs.spectrum._count(shifted, off, scale) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs.spectrum, "dstebz", lambda *args: (want, np.empty(0), None, None, 4))
        assert rs.spectrum._count(shifted, off, scale) is None


def test_find_crossings_bisects_the_whole_chains_where_a_head_does_not_pay(monkeypatch):
    # A head of more than half the chain, or chains that fall apart into
    # blocks of one or two sites (r = 0), gain nothing from the cut: those
    # scans count nothing, and their crossings are those of the scan that
    # solves every coupling by _lowest alone.
    def no_count(*args):
        raise AssertionError("_count was called")

    lowest = rs.spectrum._lowest
    monkeypatch.setattr(rs.spectrum, "_count", no_count)
    for r, n_tr in ((0.0, 120), (0.2, 40)):
        p = rs.ModelParams(delta=1.0, r=r, u=0.2, n_tr=n_tr)
        cp = rs.find_crossings(p, 0.05, 2.0, 41)
        assert cp.crossings
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rs.spectrum, "_scan_levels",
                          lambda scan, g, k, tol: lowest(scan.p, scan.parts, g, k))
            assert rs.find_crossings(p, 0.05, 2.0, 41) == cp


def test_keeps_lowest_levels_refuses_a_gap_of_rounding(monkeypatch):
    # At g = 9.65e56 the gap above level 4 is 4e-16 of the spectrum's scale,
    # pure rounding of a degenerate pair, though far above the absolute
    # closure threshold: the point is not cleared, and no count runs.
    p = rs.ModelParams(delta=1.0, g=9.65e56, r=1.0, u=0.3, n_tr=12)
    eigs = rs.eigensystem(p, 5)
    e = eigs.energies
    assert GAP_CLOSURE_FRACTION < e[5] - e[4] < 1e-15 * np.max(np.abs(e))

    def no_count(*args):
        raise AssertionError("_count was called")

    monkeypatch.setattr(rs.spectrum, "_count", no_count)
    assert keeps_lowest_levels(p, eigs, 1) is False


def test_keeps_lowest_levels_refuses_a_gap_within_the_counts_error(monkeypatch):
    # At g = 4.5e13, n_tr = 2, the gap above level 2 (3.83) clears the
    # closure threshold and 2^-44 max|E| (3.63), but lies below 2^-48 of the
    # chains' scale grown by 40 sites (4.0): sigma lies within the count's
    # error of the levels beside it, so the point is refused with no count.
    p = rs.ModelParams(delta=1.0, g=4.5e13, r=0.1, u=0.45, n_tr=2)
    eigs = rs.eigensystem(p, 3)
    e = eigs.energies
    grown = p.with_n_tr(42)
    chains, _ = rs.spectrum._coupled(grown, rs.spectrum._parts(grown), p.g)
    scale = max(chains[0][2], chains[1][2])
    assert 2.0**-44 * max(-e[0], rs.eigensystem(p).energies[-1]) < e[3] - e[2] < 2.0**-48 * scale

    def no_count(*args):
        raise AssertionError("_count was called")

    monkeypatch.setattr(rs.spectrum, "_count", no_count)
    assert keeps_lowest_levels(p, eigs, 40) is False


def test_lowest_levels_rejects_a_bad_count_before_lapack(monkeypatch):
    # k = 0 would reach dstebz as il=1, iu=0, which LAPACK rejects on stderr.
    def no_lapack(*args):
        raise AssertionError("dstebz was called")

    monkeypatch.setattr(rs.spectrum, "dstebz", no_lapack)
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=10)
    for k in (0, -1, 2.5, 4.0, math.nan, None, True):
        with pytest.raises(rs.InvalidParameterError):
            rs.spectrum.lowest_levels(p, k)


def test_keeps_lowest_levels_guards_an_exact_zero_pivot():
    # At g = 0 the pivots are a_i - sigma.  u = -0.625 puts the first grown
    # site of the even chain, |31, e>, at 0.5 + 0.375 * 31 = 12.125, exactly
    # the midpoint of the gap (11.75, 12.5) above level 38: its pivot is 0,
    # which the guard makes -pivmin (a level at sigma is not cleared) before
    # the next pivot divides by it.
    p = rs.ModelParams(delta=1.0, g=0.0, r=0.5, u=-0.625, n_tr=30)
    eigs = rs.eigensystem(p)
    assert eigs.energies[38:40].tolist() == [11.75, 12.5]
    assert rs.spectrum._parts(p.with_n_tr(70))[0][0][31] == 12.125
    assert keeps_lowest_levels(p, cut_levels(eigs, 39), 40) is False
    # With hops, sigma = -1/2 between two made-up levels is a_0 of the even
    # chain, a zero first pivot; the decision is the count on the spectra.
    p = replace(p, g=0.3, u=0.2)
    made = rs.spectrum.EigenSystem(np.array([-1.0, 0.0, 1.0]), np.zeros((31, 1)), np.ones(3),
                                   p.dim)
    assert rs.spectrum._parts(p)[0][0][0] == -0.5

    def below(spectrum, label):
        return np.sum((spectrum.energies < -0.5) & (spectrum.parities == label))

    old, longer = rs.eigensystem(p), rs.eigensystem(p.with_n_tr(70))
    same = all(below(old, label) == below(longer, label) for label in (1.0, -1.0))
    assert keeps_lowest_levels(p, made, 40) == same


@pytest.mark.parametrize("extra", [2.5, True, math.nan, math.inf, "3"])
def test_keeps_lowest_levels_rejects_a_non_integer_extra(extra):
    # A site count that is not an integer is refused, not rounded, run as 1
    # or left to fail inside numpy; extra < 1 still clears nothing.
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.5, u=0.1, n_tr=60)
    eigs = rs.eigensystem(p, 12)
    assert keeps_lowest_levels(p, eigs, 2) and not keeps_lowest_levels(p, eigs, 0)
    with pytest.raises(rs.InvalidParameterError, match="extra"):
        keeps_lowest_levels(p, eigs, extra)


def test_grown_chains_extend_the_spectrums_chains():
    # eigensystem keeps the chains it built; keeps_lowest_levels builds only
    # the extra sites and appends them, and its decision equals the one on a
    # spectrum made by hand (no chains kept, so both pieces are built) and
    # the count on the grown chains built whole.
    p = rs.ModelParams(delta=1.0, g=0.7, r=0.4, u=-0.3, n_tr=60)
    eigs = rs.eigensystem(p, 12)
    built = rs.spectrum._parts(p)
    for kept, fresh in zip(eigs.parts, built):
        assert all(np.array_equal(a, b) for a, b in zip(kept, fresh))
    grown, sites = rs.spectrum._parts(p.with_n_tr(100)), []
    build = rs.spectrum._parts

    def counted(model, first=0):
        sites.append(model.n_tr + 1 - first)
        return build(model, first)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs.spectrum, "_parts", counted)
        cleared = keeps_lowest_levels(p, eigs, 40)
        assert sites == [40]
        assert keeps_lowest_levels(p, cut_levels(eigs, 12), 40) == cleared
        assert sites == [40, 61, 40]
    coupled, _ = rs.spectrum._coupled(p.with_n_tr(100), grown, p.g)
    diag, off = rs.spectrum._stack(coupled)
    sigma = 0.5 * (eigs.energies[11] + eigs.energies[12])
    assert cleared == (rs.spectrum._count(diag - sigma, off,
                                          max(coupled[0][2], coupled[1][2])) == 12)


def test_keeps_lowest_levels_does_not_clear_non_finite_squared_hops():
    # g sqrt(n) passes ~1.34e154, where its square overflows, only on the
    # grown sites: the old chains square finite, the grown ones do not, and
    # the point is not cleared, with no overflow warning.
    p = rs.ModelParams(delta=1.0, g=1.8e153, r=0.2, u=0.2, n_tr=30)
    for odd in (0, 1):
        _, off, _, _ = rs.spectrum._parts(p.with_n_tr(70))[odd]
        with np.errstate(over="ignore"):
            hops = (p.g * off) * (p.g * off)
        assert np.isfinite(hops[:30]).all() and not np.isfinite(hops).all()
    assert keeps_lowest_levels(p, rs.eigensystem(p, 10), 40) is False


@pytest.mark.parametrize("n_levels", [1, 7, 40, 82])
def test_eigensystem_keeps_the_lowest_columns(n_levels):
    # The lowest n_levels + 1 energies and labels, and the lowest n_levels
    # columns of the full solve, bit for bit (82 is every level at n_tr = 40).
    p = rs.ModelParams(delta=1.0, g=0.7, r=0.4, u=0.2, n_tr=40)
    full, kept = rs.eigensystem(p), rs.eigensystem(p, n_levels)
    assert np.array_equal(kept.energies, full.energies[:n_levels + 1])
    assert np.array_equal(kept.parities, full.parities[:n_levels + 1])
    assert kept.dim == full.dim == 82
    assert kept.states.shape == (41, n_levels)
    assert np.array_equal(kept.states, full.states[:, :n_levels])


def _heads_tried(mp):
    """Log (m', certified) for each head eigensystem tries, via mp."""
    tried, real = [], rs.spectrum._certified_head

    def logged(p, chains, sites, levels):
        found = real(p, chains, sites, levels)
        tried.append((sites, found is not None))
        return found

    mp.setattr(rs.spectrum, "_certified_head", logged)
    return tried


def _chain_apply(diag, off, v):
    """The chain (diag, off) times v."""
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


@settings(max_examples=150, deadline=None)
@given(
    n_tr=st.integers(64, 400),
    g=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.0, 3.0)),
    r=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    u=st.one_of(st.sampled_from([-0.9, 0.9]), st.floats(-0.9, 0.9)),
    n_levels=st.integers(4, 40),
)
@example(n_tr=400, g=2.5, r=2.0, u=-0.8, n_levels=40)   # both heads refused
@example(n_tr=400, g=2.5, r=1.0, u=-0.8, n_levels=40)   # certified at m' = 160
@example(n_tr=200, g=0.0, r=1.0, u=0.0, n_levels=40)    # g = 0, resonant: degenerate pairs
def test_head_solve_matches_the_full_chains(n_tr, g, r, u, n_levels):
    # The spectrum on a certified head against the whole-chain oracle: equal
    # labels, energies to 1e-12 relative, and each state column, padded with
    # zeros, within the residuals of both solves over the level's gap in its
    # chain.  The states keep the head's rows, and edge_residuals bounds the
    # residual entry that the padded vector leaves past them.
    p = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    with pytest.MonkeyPatch.context() as mp:
        tried = _heads_tried(mp)
        eigs = rs.eigensystem(p, n_levels)
    want = full_chain_eigensystem(p, n_levels)
    certified = [sites for sites, ok in tried if ok]
    rows = certified[0] if certified else n_tr + 1
    event("head" if certified else "whole chains")
    L, m = n_levels, n_tr + 1
    assert eigs.states.shape == (rows, L) and (eigs.dim, eigs.n_levels) == (2 * m, L)
    assert np.array_equal(eigs.parities, want.parities[:L + 1])
    e = want.energies[:L + 1]
    assert np.all(np.abs(eigs.energies - e) <= 1e-12 * np.maximum(1.0, np.abs(e)))
    edge = edge_residuals(p, eigs)
    chains = {label: part[:2] for label, part in zip((1.0, -1.0), rs.spectrum._parts(p))}
    spectra = {label: np.sort(want.energies[want.parities == label]) for label in chains}
    for k in range(L):
        diag, unit = chains[eigs.parities[k]]
        off = g * unit
        v = np.zeros(m)
        v[:rows] = eigs.states[:, k]
        if rows < m:
            assert abs(off[rows - 1] * v[rows - 1]) <= edge[k] * (1.0 + 2.0**-50)
        theta = v @ _chain_apply(diag, off, v)
        others = spectra[eigs.parities[k]]
        gap = np.sort(np.abs(others - theta))[1]
        scale = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
        residual = sum(np.linalg.norm(_chain_apply(diag, off, x) - (x @ _chain_apply(diag, off, x)) * x)
                       for x in (v, want.states[:, k])) + 2.0**-40 * scale
        distance = min(np.linalg.norm(v - want.states[:, k]), np.linalg.norm(v + want.states[:, k]))
        assert distance * gap <= 2.0 * residual


def test_head_too_short_for_its_levels_is_refused(monkeypatch):
    # At g = 2.5, r = 2, u = -0.8 the lowest 41 levels reach past 160 of the
    # 401 sites: heads of 80 and 160 sites are refused, and the whole chains
    # give the oracle's spectrum bit for bit (dstevd called directly is
    # scipy's eigh_tridiagonal).
    p = rs.ModelParams(delta=1.0, g=2.5, r=2.0, u=-0.8, n_tr=400)
    tried = _heads_tried(monkeypatch)
    got, want = rs.eigensystem(p, 40), full_chain_eigensystem(p, 40)
    assert tried == [(80, False), (160, False)]
    assert np.array_equal(got.energies, want.energies[:41])
    assert np.array_equal(got.parities, want.parities[:41])
    assert np.array_equal(got.states, want.states)


@pytest.mark.parametrize("sites", [80, 160])
def test_head_refused_on_its_residuals_bisects_and_counts_nothing(monkeypatch, sites):
    # The same model: on heads of 80 and 160 sites some level below sigma
    # leaves an edge residual far above HEAD_RESIDUAL of its chain's scale,
    # so the head is refused before the stacked count, and nothing is bisected.
    p = rs.ModelParams(delta=1.0, g=2.5, r=2.0, u=-0.8, n_tr=400)
    chains, _ = rs.spectrum._coupled(p, rs.spectrum._parts(p), p.g)
    solved = rs.spectrum._solve(rs.spectrum._head(chains, sites))
    e = np.sort(np.concatenate([w for w, _ in solved]))
    sigma = 0.5 * (e[40] + e[41])
    h = p.g * math.sqrt(sites) * p.r
    assert max(np.max(h * np.abs(v[-1, w <= sigma])) / s
               for (w, v), (_, _, s) in zip(solved, chains)) > 1e3 * rs.spectrum.HEAD_RESIDUAL

    def forbidden(*args):
        raise AssertionError("a refused head was bisected or counted")

    monkeypatch.setattr(rs.spectrum, "_bisect", forbidden)
    monkeypatch.setattr(rs.spectrum, "_count", forbidden)
    assert rs.spectrum._certified_head(p, chains, sites, 41) is None


def test_level_past_the_head_is_found_by_the_count(monkeypatch):
    # A made-up even chain with one site far past the head, at site 300, below
    # every level: at g = 0 the head's residuals are all 0, so only the count
    # of the whole chains sees that level.  The head is refused, and the
    # spectrum is the whole chains'.
    build = rs.spectrum._parts

    def deep(p):
        (diag, unit, dmax, umax), odd = build(p)
        diag = diag.copy()
        diag[300] = -100.0
        return [(diag, unit, max(dmax, 100.0), umax), odd]

    monkeypatch.setattr(rs.spectrum, "_parts", deep)
    p = rs.ModelParams(delta=1.0, g=0.0, r=1.0, u=0.2, n_tr=400)
    tried = _heads_tried(monkeypatch)
    got, want = rs.eigensystem(p, 40), full_chain_eigensystem(p, 40)
    assert [ok for _, ok in tried] == [False, False]
    assert got.energies[0] == -100.0
    assert np.array_equal(got.energies, want.energies[:41])
    assert np.array_equal(got.states, want.states)


def test_lapack_failure_on_a_head_falls_back_to_the_whole_chains(monkeypatch):
    # A Sturm count that LAPACK reports as failed certifies no head: the
    # spectrum is the whole chains', bit for bit, and nothing is raised.
    p = rs.ModelParams(delta=1.0, g=0.9, r=0.6, u=0.2, n_tr=200)
    lapack = rs.spectrum.dstebz

    def failing(d, e, mode, *args):
        return (0, np.empty(0), None, None, 1) if mode == 1 else lapack(d, e, mode, *args)

    monkeypatch.setattr(rs.spectrum, "dstebz", failing)
    tried = _heads_tried(monkeypatch)
    got, want = rs.eigensystem(p, 40), full_chain_eigensystem(p, 40)
    assert tried == [(80, False)]
    assert np.array_equal(got.energies, want.energies[:41])
    assert np.array_equal(got.states, want.states)


def test_readers_take_the_levels_a_spectrum_holds():
    # eigensystem(p, 10) and the full spectrum cut to its lowest 10 columns
    # give the same rate table, X+ and moments, bit for bit.
    p = rs.ModelParams(delta=1.0, g=0.7, r=0.4, u=0.2, n_tr=20)
    kept, cut = rs.eigensystem(p, 10), cut_levels(rs.eigensystem(p), 10)
    got, want = (rs.transition_rates(e, p, [rs.BathParams()]) for e in (kept, cut))
    assert np.array_equal(got.rate, want.rate)
    assert np.array_equal(rs.detection_operator(kept).xplus, rs.detection_operator(cut).xplus)
    states = rs.steady_populations(got)
    for a, b in zip(rs.field_moments(states, kept), rs.field_moments(states, cut)):
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    n_tr=st.integers(2, 30),
    g=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    r=st.floats(0.0, 2.0),
    u=st.floats(-0.9, 0.9),
    kt=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    data=st.data(),
)
def test_everything_built_from_a_spectrum_spans_its_levels(n_tr, g, r, u, kt, data):
    # The level count is chosen once, by eigensystem(p, L): the rate table,
    # X+, the steady state, the moments and the edge residuals all span L,
    # and the moments reject a steady state over another count.
    p = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    L = data.draw(st.integers(2, p.dim), label="L")
    eigs = rs.eigensystem(p, L)
    assert eigs.n_levels == L
    table = rs.transition_rates(eigs, p, [rs.BathParams(kt_q=kt[0], kt_c=kt[1])])
    assert table.n_levels == L and table.rate.shape == (1, L, L)
    x = rs.detection_operator(eigs)
    assert x.n_levels == L and x.xplus.shape == (L, L)
    states = rs.steady_populations(table)
    assert states.n_levels == L
    assert all(d.shape == (L,) for d in field_diagonals(eigs))
    rs.field_moments(states, eigs)
    assert edge_residuals(p, eigs).shape == (L,)
    other = data.draw(st.integers(1, p.dim + 1).filter(lambda n: n != L), label="other")
    with pytest.raises(rs.InvalidInputError, match="levels"):
        rs.field_moments(rs.SteadyState(np.full(other, 1.0 / other)), eigs)


def test_eigensystem_rejects_a_bad_level_count():
    p = rs.ModelParams(delta=1.0, g=0.7, r=0.4, u=0.2, n_tr=10)
    for n_levels in (0, -1, 2.5, 4.0, math.nan, "4", True):
        with pytest.raises(rs.InvalidParameterError):
            rs.eigensystem(p, n_levels)
    [pt] = rs.evaluate_group(p, [rs.BathParams()], n_levels=4.0)
    assert pt.error_code == rs.sweep.ERR_INVALID_PARAMS


@pytest.mark.parametrize("g", [2.16e153, 1e154, 1e200])
def test_bisection_solves_past_squared_hop_overflow(g):
    # dstebz squares the hops, which overflow once g sqrt(n_tr) passes ~1e154
    # (LAPACK info=4 on the unscaled chains); the chains scaled by a power of
    # two solve like eigensystem, the inertia test's longer chains agree with
    # a count on the longer spectrum, and the scan runs.
    p = rs.ModelParams(delta=1.0, g=g, r=0.2, u=0.2, n_tr=30)
    energies, labels = rs.spectrum.lowest_levels(p, 8)
    want_e, want_p = eigensystem_levels(p, 8)
    assert np.array_equal(labels, want_p)
    assert np.allclose(energies, want_e, rtol=0.0, atol=1e-14 * np.max(np.abs(want_e)))
    eigs, longer = rs.eigensystem(p), rs.eigensystem(p.with_n_tr(70))
    sigma = 0.5 * (eigs.energies[9] + eigs.energies[10])

    def below(spectrum, label):
        return np.sum((spectrum.energies < sigma) & (spectrum.parities == label))

    same = all(below(eigs, label) == below(longer, label) for label in (1.0, -1.0))
    assert keeps_lowest_levels(p, cut_levels(eigs, 10), 40) == same
    assert rs.find_crossings(p, g, 2.0 * g, 9).crossings == []


def test_bisection_failure_is_a_numeric_failure(monkeypatch):
    monkeypatch.setattr(rs.spectrum, "dstebz", lambda *args: (0, np.empty(3), None, None, 1))
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=10)
    with pytest.raises(rs.NumericFailureError):
        rs.spectrum.lowest_levels(p, 4)
