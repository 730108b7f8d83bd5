import math

import numpy as np
import pytest

import rabistark as rs

from conftest import build_eigs, random_model


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
        h = rs.assemble_hamiltonian(p)
        eigs = rs.diagonalize(h, rs.parity_operator(p.n_tr))
        assert np.all(np.diff(eigs.energies) >= 0)
        overlap = eigs.states.conj().T @ eigs.states
        assert np.max(np.abs(overlap - np.eye(eigs.dim))) < 1e-10
        residual = h @ eigs.states - eigs.states * eigs.energies
        scale = np.maximum(1.0, np.abs(eigs.energies))
        assert np.all(np.linalg.norm(residual, axis=0) < 1e-9 * scale)
        assert set(np.unique(eigs.parities)) <= {-1.0, 1.0}


def test_decoupled_parity_labels():
    # Off resonance the decoupled eigenvectors are bare basis states, so the
    # label of (qubit ground, n photons) must be (-1)^n.
    p = rs.ModelParams(delta=0.5, g=0.0, r=1.0, u=0.0, n_tr=8)
    eigs = build_eigs(p)
    for n in range(6):
        basis_index = n  # qubit ground block comes first
        level = int(np.argmax(np.abs(eigs.states[basis_index, :])))
        assert abs(abs(eigs.states[basis_index, level]) - 1.0) < 1e-12
        assert eigs.parities[level] == (-1.0) ** n


def test_phase_fixing_largest_component_real_positive():
    p = rs.ModelParams(delta=1.0, g=0.7, r=0.4, u=0.3, n_tr=10)
    eigs = build_eigs(p)
    for k in range(eigs.dim):
        col = eigs.states[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real > 0


def test_diagonalize_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(rs.InvalidInputError):
        rs.diagonalize(m, np.eye(4, dtype=complex))


def test_diagonalize_requires_real_input():
    parity = np.diag([1.0, -1.0])
    h = np.array([[0.0, 0.1j], [-0.1j, 1.0]])  # Hermitian, not real
    with pytest.raises(rs.InvalidInputError):
        rs.diagonalize(h, parity)
    eigs = rs.diagonalize(np.diag([1.0, 0.0]).astype(complex), parity.astype(complex))
    assert eigs.states.dtype == np.float64
    assert np.array_equal(eigs.energies, [0.0, 1.0])
    assert np.array_equal(eigs.parities, [-1.0, 1.0])


def test_pipeline_arrays_are_real():
    p = rs.ModelParams(delta=1.0, g=0.6, r=0.5, u=0.2, n_tr=10)
    arrays = (*rs.build_field_ops(p.n_tr), rs.assemble_hamiltonian(p),
              rs.parity_operator(p.n_tr), rs.composite_annihilation(p.n_tr),
              rs.composite_position(p.n_tr), rs.eigensystem(p).states)
    assert all(arr.dtype == np.float64 for arr in arrays)


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
    d = rs.gaps(eigs)
    assert np.array_equal(d, -d.T)
    assert d[1, 0] == pytest.approx(0.9, abs=1e-9)
    assert d[2, 1] == pytest.approx(0.2, abs=1e-9)
    tri = d[np.triu_indices(eigs.dim, k=1)]
    assert np.all(tri <= 0)  # upper triangle is E_j - E_k with k > j

    decoupled = build_eigs(rs.ModelParams(delta=1.0, g=0.0, r=1.0, u=0.0, n_tr=8))
    assert rs.gaps(decoupled)[1, 0] == pytest.approx(1.0, abs=1e-12)


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
    assert cp.excited_crossings == []


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


def test_uniform_energy_shift_changes_nothing():
    p = rs.ModelParams(delta=1.0, g=0.6, r=0.5, u=0.2, n_tr=12)
    h = rs.assemble_hamiltonian(p)
    parity = rs.parity_operator(p.n_tr)
    base = rs.diagonalize(h, parity)
    shifted = rs.diagonalize(h + 3.7 * np.eye(h.shape[0]), parity)
    assert np.array_equal(base.parities, shifted.parities)
    assert np.allclose(rs.gaps(base), rs.gaps(shifted), atol=1e-10)


def test_find_crossings_validation():
    p = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=10)
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(p, 1.0, 0.5, steps=16)
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(p, 0.1, 1.0, steps=4)
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(p, 0.1, 1.0, steps=16, levels=((0, 2),))
