"""Shared helpers for the test suite."""

import numpy as np

import rabistark as rs


build_eigs = rs.eigensystem

# Qubit matrices in the (ground, excited) basis, for the dense reference.
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|


def field_ops(n_tr):
    """Dense (annihilation, creation, number) on the (n_tr+1)-dim Fock space."""
    a = np.diag(np.sqrt(np.arange(1, n_tr + 1, dtype=float)), k=1)
    return a, a.T, a.T @ a


def composite_annihilation(n_tr):
    """a on the qubit-major composite space (index = qubit*(n_tr+1) + photon)."""
    return np.kron(np.eye(2), field_ops(n_tr)[0])


def composite_position(n_tr):
    """a + a^dag on the composite space."""
    a = composite_annihilation(n_tr)
    return a + a.T


def composite_sigma_x(n_tr):
    """Qubit sigma_x on the composite space."""
    return np.kron(SIGMA_X, np.eye(n_tr + 1))


def dense_hamiltonian(p):
    """Kronecker assembly of H on the qubit-major composite space, the
    reference the parity-chain solver is checked against:

    H = (delta/2 + u a^dag a) sigma_z + omega0 a^dag a
        + g [(a sigma_+ + a^dag sigma_-) + r (a sigma_- + a^dag sigma_+)]
    """
    a, adag, num = field_ops(p.n_tr)
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


def chain_index(n_tr, parity):
    """Composite-basis index of each chain state |n, q(n)>, n = 0..n_tr.

    The qubit q (1 = excited) is fixed by the parity: q = n mod 2 for +1,
    q = (n + 1) mod 2 for -1.
    """
    n = np.arange(n_tr + 1)
    q = (n + (parity < 0)) % 2
    return q * (n_tr + 1) + n


def composite_states(eigs):
    """Scatter the chain-form eigenvectors into the composite basis."""
    n_tr = eigs.states.shape[0] - 1
    out = np.zeros((eigs.dim, eigs.dim))
    for parity in (1.0, -1.0):
        cols = np.flatnonzero(eigs.parities == parity)
        out[np.ix_(chain_index(n_tr, parity), cols)] = eigs.states[:, cols]
    return out


def eigensystem_levels(p, k):
    """Lowest k energies and parity labels read off the full eigensystem,
    the reference for spectrum.lowest_levels."""
    eigs = rs.eigensystem(p)
    return eigs.energies[:k], eigs.parities[:k]


def steady_pipeline(model, bath, n_levels=40):
    """Diagonalize, build rates, and solve the steady state."""
    eigs = build_eigs(model)
    table = rs.transition_rates(eigs, model, bath, n_levels=n_levels)
    ss = rs.steady_populations(table)
    return eigs, table, ss


def observables_pipeline(model, bath, n_levels=40):
    """Full chain up to the detection operator."""
    eigs, table, ss = steady_pipeline(model, bath, n_levels=n_levels)
    x = rs.detection_operator(eigs, n_levels=table.n_levels)
    return eigs, table, ss, x


def random_model(rng, n_tr=40, g_max=1.5, r_max=2.0, u_max=0.8):
    return rs.ModelParams(
        delta=1.0,
        g=float(rng.uniform(0.0, g_max)),
        r=float(rng.uniform(0.0, r_max)),
        u=float(rng.uniform(-u_max, u_max)),
        n_tr=n_tr,
    )
