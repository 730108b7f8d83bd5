"""Shared helpers for the test suite."""

import numpy as np

import rabistark as rs


build_eigs = rs.eigensystem

# Qubit matrices in the (ground, excited) basis, for the dense reference.
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|


def dense_hamiltonian(p):
    """Kronecker assembly of H on the qubit-major composite space, the
    reference the parity-chain solver is checked against:

    H = (delta/2 + u a^dag a) sigma_z + omega0 a^dag a
        + g [(a sigma_+ + a^dag sigma_-) + r (a sigma_- + a^dag sigma_+)]
    """
    a, adag, num = rs.build_field_ops(p.n_tr)
    eye_f = np.eye(p.n_tr + 1)
    h = 0.5 * p.delta * np.kron(SIGMA_Z, eye_f)
    h += p.u * np.kron(SIGMA_Z, num)
    h += p.omega0 * np.kron(np.eye(2), num)
    rotating = np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, adag)
    counter = np.kron(SIGMA_MINUS, a) + np.kron(SIGMA_PLUS, adag)
    h += p.g * (rotating + p.r * counter)
    return h


def parity_diagonal(n_tr):
    """Diagonal of exp(i pi N), N = a^dag a + (sigma_z + 1)/2, composite basis."""
    photon = np.arange(n_tr + 1)
    return np.concatenate([(-1.0) ** photon, (-1.0) ** (photon + 1)])


def steady_pipeline(model, bath, n_levels=40):
    """Diagonalize, build rates, and solve the steady state."""
    eigs = build_eigs(model)
    table = rs.transition_rates(eigs, model, bath, n_levels=n_levels)
    ss = rs.steady_populations(table)
    return eigs, table, ss


def observables_pipeline(model, bath, n_levels=40):
    """Full chain up to the detection operator and annihilation operator."""
    eigs, table, ss = steady_pipeline(model, bath, n_levels=n_levels)
    x = rs.detection_operator(
        eigs, rs.composite_position(model.n_tr), n_levels=table.n_levels
    )
    a = rs.composite_annihilation(model.n_tr)
    return eigs, table, ss, x, a


def random_model(rng, n_tr=40, g_max=1.5, r_max=2.0, u_max=0.8):
    return rs.ModelParams(
        delta=1.0,
        g=float(rng.uniform(0.0, g_max)),
        r=float(rng.uniform(0.0, r_max)),
        u=float(rng.uniform(-u_max, u_max)),
        n_tr=n_tr,
    )
