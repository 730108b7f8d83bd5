"""Shared helpers for the test suite."""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

import rabistark as rs
from rabistark.dissipation import WEIGHT_FLOOR, _graph_components
from rabistark.sweep import OBSERVABLE_NAMES


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
    """Scatter the chain-form eigenvectors eigs holds into the composite basis."""
    n_tr = eigs.states.shape[0] - 1
    out = np.zeros((eigs.dim, eigs.n_levels))
    for parity in (1.0, -1.0):
        cols = np.flatnonzero(eigs.parities[:eigs.n_levels] == parity)
        out[np.ix_(chain_index(n_tr, parity), cols)] = eigs.states[:, cols]
    return out


def cut_levels(eigs, n_levels):
    """The spectrum eigs with only its lowest n_levels state columns, and the
    energies and labels of one level more, as eigensystem(p, n_levels) keeps
    them."""
    return replace(eigs, energies=eigs.energies[:n_levels + 1], states=eigs.states[:, :n_levels],
                   parities=eigs.parities[:n_levels + 1])


def full_chain_eigensystem(p, n_levels=None):
    """eigensystem solved on the whole chains, by scipy's eigh_tridiagonal:
    every energy and label, and the lowest n_levels state columns on all
    n_tr+1 sites.  The oracle for the head solve of rs.eigensystem."""
    m = p.n_tr + 1
    solved = [eigh_tridiagonal(diag, p.g * unit)
              for diag, unit, _, _ in rs.spectrum._parts(p)]
    energies = np.concatenate([w for w, _ in solved])
    parities = np.repeat([1.0, -1.0], m)
    # The level-order rule at the whole spectrum's span (spectrum._level_order).
    span = float(energies.max() - energies.min())
    shift = rs.spectrum.DEGENERACY_FRACTION * max(span, 1.0)
    order = np.argsort(energies - shift * (parities < 0), kind="stable")
    states = np.empty((m, order[:n_levels].size))
    for col, level in enumerate(order[:n_levels]):
        v = solved[level // m][1][:, level % m]
        states[:, col] = v * np.sign(v[np.argmax(np.abs(v))])
    return rs.EigenSystem(np.sort(energies), states, parities[order], 2 * m)


def eigensystem_levels(p, k):
    """Lowest k energies and parity labels read off the full eigensystem,
    the reference for spectrum.lowest_levels."""
    eigs = rs.eigensystem(p)
    return eigs.energies[:k], eigs.parities[:k]


def steady_pipeline(model, bath, n_levels=40):
    """Diagonalize over the lowest n_levels levels, build the rate table of
    one bath, and solve its steady state."""
    eigs = build_eigs(model, n_levels)
    table = rs.transition_rates(eigs, model, [bath])
    ss = rs.steady_populations(table).of_bath(0)
    return eigs, table, ss


def reference_populations(table, b):
    """GTH elimination of bath b of table alone, one level at a time on its
    own (L, L) rate table: the oracle for the stacked steady_populations."""
    L = table.n_levels
    pops = np.zeros(L)
    pops[0] = 1.0
    if table.kt_q[b] == 0.0 and table.kt_c[b] == 0.0:
        return pops
    rate = table.rate[b].copy()
    linked = rate > WEIGHT_FLOOR
    linked |= linked.T
    rate[~linked] = 0.0
    escape = np.zeros(L)
    for n in range(L - 1, 0, -1):
        s = rate[n, :n].sum()
        if s <= 0.0:
            components = _graph_components(linked)
            if len(components) > 1:
                raise rs.MultipleSteadyStateError(components)
            raise rs.NumericFailureError(f"level {n} has no downward flow during elimination")
        escape[n] = s
        rate[:n, :n] += rate[:n, n, None] * rate[n, :n] / s
    for n in range(1, L):
        pops[n] = np.dot(pops[:n], rate[:n, n]) / escape[n]
    return pops / pops.sum()


def observables_pipeline(model, bath, n_levels=40):
    """Full chain up to the detection operator."""
    eigs, table, ss = steady_pipeline(model, bath, n_levels=n_levels)
    x = rs.detection_operator(eigs)
    return eigs, table, ss, x


def random_model(rng, n_tr=40, g_max=1.5, r_max=2.0, u_max=0.8):
    return rs.ModelParams(
        delta=1.0,
        g=float(rng.uniform(0.0, g_max)),
        r=float(rng.uniform(0.0, r_max)),
        u=float(rng.uniform(-u_max, u_max)),
        n_tr=n_tr,
    )


def gaps(eigs):
    """Antisymmetric gap matrix: gaps[k, j] = E_k - E_j."""
    e = eigs.energies
    return e[:, None] - e[None, :]


def gibbs_state(eigs, kt, n_levels=None):
    """Canonical populations exp(-E_n/kt)/Z over the lowest levels, the
    reference the steady state must equal when both baths share kt."""
    if kt < 0:
        raise rs.InvalidParameterError(f"kt must be >= 0, got {kt}")
    L = eigs.dim if n_levels is None else min(int(n_levels), eigs.dim)
    energies = eigs.energies[:L]
    pops = np.zeros(L)
    if kt == 0.0:
        pops[0] = 1.0
        return rs.SteadyState(populations=pops)
    weights = np.exp(-(energies - energies[0]) / kt)
    return rs.SteadyState(populations=weights / weights.sum())


class StepSizeError(rs.RabiStarkError, ValueError):
    """Integrator step is too large for the fastest dissipative rate."""


def evolve_density(rho0, eigs, table, dt, steps, record_every=1):
    """Integrate the element-wise master equation with fixed-step RK4.

    The time-domain reference for steady_populations.  rho0 is the density
    matrix in the energy eigenbasis, restricted to the table's levels.
    Returns recorded density matrices, the initial state first and the
    final state last.
    """
    L = table.n_levels
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (L, L):
        raise rs.InvalidInputError(f"rho0 must be {L}x{L}, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise rs.InvalidInputError("rho0 must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise rs.InvalidInputError("rho0 must have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-10:
        raise rs.InvalidInputError(f"rho0 must be positive semidefinite, min eig {evals.min():.3e}")
    if steps < 1 or record_every < 1:
        raise rs.InvalidParameterError("steps and record_every must be >= 1")

    flow = table.flow_matrix()[0]       # flow[m, k]: k -> m, the table's one bath
    out_rate = flow.sum(axis=0)         # total escape rate per level
    max_rate = float(out_rate.max())
    if dt * max_rate > 0.1:
        raise StepSizeError(
            f"dt*max_rate = {dt * max_rate:.3e} exceeds 0.1; reduce dt below "
            f"{0.1 / max_rate if max_rate > 0 else math.inf:.3e}"
        )

    # Linear, element-wise generator: coherent phase + coherence decay act
    # entrywise, population gain couples diagonals only.
    decay = 0.5 * (out_rate[:, None] + out_rate[None, :])
    coeff = -1j * gaps(eigs)[:L, :L] - decay
    np.fill_diagonal(coeff, -out_rate)

    def rhs(r):
        dr = coeff * r
        dr[np.diag_indices(L)] += flow @ np.real(np.diag(r))
        return dr

    recorded = [rho.copy()]
    for step in range(1, steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % record_every == 0 or step == steps:
            recorded.append(rho.copy())
    return recorded


def sign_transitions(result, column, threshold):
    """Count strict sign changes of (column - threshold) along a 1-D sweep.

    Error-coded rows and rows sitting exactly on the threshold are skipped.
    Returns the count and the axis values at the right edge of each change.
    """
    if result.is_2d:
        raise rs.InvalidInputError("sign_transitions requires a 1-D sweep result")
    if column not in OBSERVABLE_NAMES:
        raise rs.InvalidInputError(f"unknown observable column {column!r}")
    values = result.column(column)
    axis = result.axis1_values

    count = 0
    locations = []
    prev_sign = 0
    for v, x in zip(values, axis):
        if not math.isfinite(v):
            continue
        sign = 1 if v > threshold else (-1 if v < threshold else 0)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            count += 1
            locations.append(float(x))
        prev_sign = sign
    return count, locations
