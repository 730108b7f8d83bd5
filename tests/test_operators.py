import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rabistark as rs
from rabistark.spectrum import _parity_chain, field_diagonals, parity_odd_elements

from conftest import (
    SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z, chain_index, composite_annihilation,
    composite_position, composite_sigma_x, composite_states, dense_hamiltonian, field_ops,
)


def chain_matrix(p):
    """Both parity chains of H scattered into one composite-basis matrix."""
    h = np.zeros((p.dim, p.dim))
    for odd in (0, 1):
        index = chain_index(p.n_tr, 1 - 2 * odd)
        diag, unit = _parity_chain(p, odd)
        off = p.g * unit
        h[index, index] = diag
        h[index[:-1], index[1:]] = off
        h[index[1:], index[:-1]] = off
    return h


def test_ladder_entries_and_vacuum():
    # The dense ladder operators of the test oracle.
    a, adag, num = field_ops(2)
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(np.sqrt(2.0), abs=0)
    assert np.count_nonzero(a) == 2
    vacuum = np.zeros(3)
    vacuum[0] = 1.0
    assert np.all(a @ vacuum == 0)
    assert np.array_equal(adag, a.conj().T)
    assert np.allclose(num, np.diag([0.0, 1.0, 2.0]))


def test_truncated_commutator_hand_computed():
    # 3x3 ladder matrices written out by hand: the product leaves
    # diag(1, 1, -n_tr), the known truncation artifact in the last entry.
    a = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    expected = a @ a.conj().T - a.conj().T @ a
    lib_a, lib_adag, _ = field_ops(2)
    comm = lib_a @ lib_adag - lib_adag @ lib_a
    assert np.allclose(comm, expected, atol=0)
    assert np.allclose(np.diag(comm).real, [1.0, 1.0, -2.0])


def test_decoupled_spectrum_multiset():
    p = rs.ModelParams(delta=1.0, omega0=1.0, g=0.0, r=1.0, u=0.0, n_tr=2)
    h = chain_matrix(p)
    assert np.array_equal(h, np.diag(np.diag(h)))
    assert np.allclose(rs.eigensystem(p).energies, [-0.5, 0.5, 0.5, 1.5, 1.5, 2.5], atol=1e-12)


def test_isotropic_coupling_block_exact():
    n_tr = 6
    g = 0.37
    p_on = rs.ModelParams(delta=0.9, g=g, r=1.0, u=0.0, n_tr=n_tr)
    p_off = rs.ModelParams(delta=0.9, g=0.0, r=1.0, u=0.0, n_tr=n_tr)
    coupling = chain_matrix(p_on) - chain_matrix(p_off)
    a, adag, _ = field_ops(n_tr)
    x_field = a + adag
    assert np.array_equal(coupling, g * np.kron(SIGMA_X, x_field))


def test_model_reductions_match_reference_assembly():
    # Independent reference matrices: Jaynes-Cummings, Rabi, anisotropic Rabi,
    # each against the scattered parity chains and the dense test oracle.  The
    # chains take the photon number n exactly; the references take it from
    # a^dag a, which is off by an ulp for some n, hence rtol.
    n_tr = 5
    delta, omega0, g, r = 0.8, 1.0, 0.3, 0.6
    a, adag, num = field_ops(n_tr)
    eye_f = np.eye(n_tr + 1)
    base = 0.5 * delta * np.kron(SIGMA_Z, eye_f) + omega0 * np.kron(np.eye(2), num)

    jc = base + g * (np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, adag))
    p_jc = rs.ModelParams(delta=delta, g=g, r=0.0, u=0.0, n_tr=n_tr)
    assert np.allclose(chain_matrix(p_jc), jc, rtol=1e-15, atol=0)
    assert np.array_equal(dense_hamiltonian(p_jc), jc)

    rabi = base + g * np.kron(SIGMA_X, a + adag)
    p_rabi = rs.ModelParams(delta=delta, g=g, r=1.0, u=0.0, n_tr=n_tr)
    assert np.allclose(chain_matrix(p_rabi), rabi, rtol=1e-15, atol=0)
    assert np.allclose(dense_hamiltonian(p_rabi), rabi, atol=0)

    anis = base + g * (
        np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, adag)
        + r * (np.kron(SIGMA_MINUS, a) + np.kron(SIGMA_PLUS, adag))
    )
    p_anis = rs.ModelParams(delta=delta, g=g, r=r, u=0.0, n_tr=n_tr)
    assert np.allclose(chain_matrix(p_anis), anis, rtol=1e-15, atol=0)
    assert np.array_equal(dense_hamiltonian(p_anis), anis)

    stark = anis + 0.3 * np.kron(SIGMA_Z, num)
    p_stark = rs.ModelParams(delta=delta, g=g, r=r, u=0.3, n_tr=n_tr)
    assert np.allclose(chain_matrix(p_stark), stark, rtol=1e-15, atol=0)
    assert np.allclose(dense_hamiltonian(p_stark), stark, rtol=1e-15, atol=0)


def test_parameter_validation():
    with pytest.raises(rs.InvalidParameterError):
        rs.ModelParams(delta=1.0, omega0=0.0)
    with pytest.raises(rs.InvalidParameterError):
        rs.ModelParams(delta=-1.0)
    with pytest.raises(rs.InvalidParameterError):
        rs.ModelParams(delta=1.0, g=-0.1)
    with pytest.raises(rs.InvalidParameterError):
        rs.ModelParams(delta=1.0, r=-0.5)
    with pytest.raises(rs.InvalidParameterError):
        rs.ModelParams(delta=1.0, u=1.0)  # |u| must stay below omega0
    with pytest.raises(rs.InvalidParameterError):
        rs.ModelParams(delta=1.0, n_tr=1)


@settings(max_examples=100, deadline=None)
@given(
    g=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    r=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    u=st.one_of(st.sampled_from([-0.9, 0.9]), st.floats(-0.9, 0.9)),
    n_tr=st.integers(2, 60),
)
@example(g=0.0, r=1.0, u=0.0, n_tr=20)   # decoupled, with same-parity degeneracies
@example(g=0.3, r=0.0, u=0.0, n_tr=20)   # Jaynes-Cummings
def test_chain_elements_match_dense_products(g, r, u, n_tr):
    # sigma_x, a + a^dag, a^dag a and a^2 taken on the parity chains equal
    # states^T @ op @ states with the Kronecker operators of the oracle.
    p = rs.ModelParams(delta=1.0, g=g, r=r, u=u, n_tr=n_tr)
    eigs = rs.eigensystem(p, 40)
    L = eigs.n_levels
    states = composite_states(eigs)
    a = composite_annihilation(n_tr)

    def dense(op):
        return states.T @ (op @ states)

    sigma_x, position = parity_odd_elements(eigs)
    number, a_sq = field_diagonals(eigs)
    scale = max(1.0, n_tr)
    assert np.max(np.abs(sigma_x - dense(composite_sigma_x(n_tr)))) <= 1e-13
    assert np.max(np.abs(position - dense(composite_position(n_tr)))) <= 1e-13 * scale
    assert np.max(np.abs(number - np.diag(dense(a.T @ a)))) <= 1e-13 * scale
    assert np.max(np.abs(a_sq - np.diag(dense(a @ a)))) <= 1e-13 * scale
    # Both odd operators vanish between equal labels, exactly.
    same = eigs.parities[:L, None] == eigs.parities[None, :L]
    assert not np.any(sigma_x[same]) and not np.any(position[same])
