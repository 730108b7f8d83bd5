"""Bath-induced transition rates, steady-state balance, and time evolution.

Both the qubit and the cavity couple to independent Ohmic baths.  Rates are
built in the eigenbasis of the full Hamiltonian, so they stay valid deep into
the ultrastrong-coupling regime; parity conservation zeroes every matrix
element between equal-parity eigenstates, which shows up here as vanishing
transition weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    MultipleSteadyStateError,
    NumericFailureError,
    StepSizeError,
)
from .spectrum import EigenSystem, ModelParams, _is_finite, parity_odd_elements

GAP_EPSILON_FRACTION = 1e-9   # |gap| below this * omega0 uses the degenerate limit
DEFAULT_N_LEVELS = 40
WEIGHT_FLOOR = 1e-300         # connectivity cutoff for the transition graph


@dataclass(frozen=True)
class BathParams:
    """Ohmic bath parameters for the qubit and cavity reservoirs.

    alpha_q, alpha_c   dimensionless coupling strengths (> 0)
    omega_cutoff       exponential cutoff frequency (units of omega0)
    kt_q, kt_c         bath temperatures k_B T (units of omega0, >= 0)
    """

    alpha_q: float = 1e-3
    alpha_c: float = 1e-3
    omega_cutoff: float = 10.0
    kt_q: float = 0.07
    kt_c: float = 0.07

    def __post_init__(self):
        for name in ("alpha_q", "alpha_c", "omega_cutoff", "kt_q", "kt_c"):
            if not _is_finite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha_q <= 0 or self.alpha_c <= 0:
            raise InvalidParameterError("bath couplings alpha_q, alpha_c must be > 0")
        if self.omega_cutoff <= 0:
            raise InvalidParameterError("omega_cutoff must be > 0")
        if self.kt_q < 0 or self.kt_c < 0:
            raise InvalidParameterError("bath temperatures must be >= 0")


def bose_occupation(gap, kt: float):
    """Bose-Einstein occupation 1/(exp(gap/kt) - 1) for gap > 0, kt >= 0.

    gap may be a scalar or an array; a scalar gap gives a float.
    """
    gap = np.asarray(gap, dtype=float)
    if np.any(gap <= 0):
        raise InvalidInputError(f"gap must be > 0, got {gap.min()}")
    if kt < 0:
        raise InvalidInputError(f"kt must be >= 0, got {kt}")
    if kt == 0.0:
        n = np.zeros_like(gap)
    else:
        x = gap / kt
        # For x > 30, e^-x / (1 - e^-x) never overflows.
        ex = np.exp(-x)
        n = np.where(x > 30.0, ex / (1.0 - ex), 1.0 / np.expm1(np.minimum(x, 30.0)))
    return float(n) if n.ndim == 0 else n


@dataclass
class TransitionTable:
    """Per-pair gaps, coupling matrix elements, and regularized rate weights.

    All arrays are (n_levels, n_levels); entry [k, j] with k > j refers to
    the ordered pair (upper k, lower j).  down_* is the emission weight
    Gamma*(1+n) for k -> j, up_* the absorption weight Gamma*n for j -> k.
    frozen marks pairs that are degenerate at zero temperature, where both
    weights are set to zero.
    """

    n_levels: int
    gap: np.ndarray
    m_q: np.ndarray
    m_c: np.ndarray
    down_q: np.ndarray
    up_q: np.ndarray
    down_c: np.ndarray
    up_c: np.ndarray
    frozen: np.ndarray
    kt_q: float
    kt_c: float

    @property
    def down_total(self) -> np.ndarray:
        return self.down_q + self.down_c

    @property
    def up_total(self) -> np.ndarray:
        return self.up_q + self.up_c

    def flow_matrix(self) -> np.ndarray:
        """flow[m, k] = total transition rate from level k into level m."""
        down = self.down_total
        up = self.up_total
        return down.T + up


def _pair_weights(alpha, gap, omega_ref, omega_cutoff, melem_sq, kt, eps):
    """Down/up weights and frozen flags for one bath over pairs with gap >= 0.

    gap and melem_sq may be scalars or arrays of the same shape.  Pairs with
    gap < eps take the degenerate limit of both weights, which vanishes and
    marks the pair frozen at kt = 0.
    """
    gap = np.asarray(gap, dtype=float)
    cutoff = np.exp(-np.abs(gap) / omega_cutoff)
    degenerate = gap < eps
    safe = np.where(degenerate, 1.0, gap)     # keeps the Bose factor finite
    gamma = alpha * (safe / omega_ref) * cutoff * melem_sq
    n = bose_occupation(safe, kt)
    w = alpha * (kt / omega_ref) * melem_sq * cutoff
    down = np.where(degenerate, w, gamma * (1.0 + n))
    up = np.where(degenerate, w, gamma * n)
    return down, up, degenerate & (kt == 0.0)


def transition_rates(
    eigs: EigenSystem,
    model: ModelParams,
    bath: BathParams,
    n_levels: int = DEFAULT_N_LEVELS,
) -> TransitionTable:
    """Build the regularized rate table over the lowest n_levels eigenstates."""
    L = min(int(n_levels), eigs.dim)
    if L < 2:
        raise InvalidParameterError(f"need at least 2 levels, got {n_levels}")
    energies = eigs.energies[:L]
    m_q, m_c = parity_odd_elements(eigs, L)
    gap = energies[:, None] - energies[None, :]
    eps = GAP_EPSILON_FRACTION * model.omega0

    # Ordered pairs (upper k, lower j), k > j; matrix elements are <j|.|k>.
    lower = np.tril(np.ones((L, L), dtype=bool), k=-1)
    d = gap[lower]
    dq, uq, fq = _pair_weights(
        bath.alpha_q, d, model.delta, bath.omega_cutoff, m_q.T[lower] ** 2, bath.kt_q, eps
    )
    dc, uc, fc = _pair_weights(
        bath.alpha_c, d, model.omega0, bath.omega_cutoff, m_c.T[lower] ** 2, bath.kt_c, eps
    )

    def table(values):
        out = np.zeros((L, L), dtype=values.dtype)
        out[lower] = values
        return out

    return TransitionTable(
        n_levels=L, gap=gap, m_q=m_q, m_c=m_c,
        down_q=table(dq), up_q=table(uq), down_c=table(dc), up_c=table(uc),
        frozen=table(fq & fc), kt_q=bath.kt_q, kt_c=bath.kt_c,
    )


@dataclass
class SteadyState:
    """Diagonal steady-state populations over the lowest eigenstates."""

    populations: np.ndarray

    @property
    def n_levels(self) -> int:
        return self.populations.shape[0]


def _graph_components(linked: np.ndarray) -> list:
    """Connected components of the undirected graph with adjacency linked | linked.T.

    Each component lists its levels in ascending order; components are
    ordered by their lowest level.
    """
    adj = linked | linked.T
    unseen = np.ones(adj.shape[0], dtype=bool)
    components = []
    while unseen.any():
        reach = np.zeros_like(unseen)
        reach[np.argmax(unseen)] = True
        while True:
            grown = reach | adj[reach].any(axis=0)
            if np.array_equal(grown, reach):
                break
            reach = grown
        components.append(np.flatnonzero(reach).tolist())
        unseen &= ~reach
    return components


def steady_populations(table: TransitionTable) -> SteadyState:
    """Solve the diagonal balance equations for the steady populations.

    The balance system (flow in = flow out for every level, populations
    normalized) is solved by GTH state elimination, which uses no
    subtractions and therefore resolves every component with small
    *relative* error; Boltzmann tails far below machine epsilon come out
    correctly instead of as solver noise.  At zero temperature in both
    baths the ground state is returned directly.
    """
    L = table.n_levels
    if table.kt_q == 0.0 and table.kt_c == 0.0:
        pops = np.zeros(L)
        pops[0] = 1.0
        return SteadyState(populations=pops)

    components = _graph_components(
        (table.down_total > WEIGHT_FLOOR) | (table.up_total > WEIGHT_FLOOR)
    )
    if len(components) > 1:
        raise MultipleSteadyStateError(components)

    # rate[i, j]: transition rate from level i to level j.
    rate = table.flow_matrix().T.copy()
    np.fill_diagonal(rate, 0.0)

    # Fold states from the top down; record the escape rate and the inflow
    # column of each state at its elimination time for back-substitution.
    escape = np.zeros(L)
    for n in range(L - 1, 0, -1):
        s = rate[n, :n].sum()
        if s <= 0.0:
            raise NumericFailureError(
                f"level {n} has no downward flow during elimination"
            )
        escape[n] = s
        rate[:n, :n] += np.outer(rate[:n, n], rate[n, :n]) / s

    pops = np.zeros(L)
    pops[0] = 1.0
    for n in range(1, L):
        pops[n] = np.dot(pops[:n], rate[:n, n]) / escape[n]
    return SteadyState(populations=pops / pops.sum())


def gibbs_state(eigs: EigenSystem, kt: float, n_levels: int | None = None) -> SteadyState:
    """Canonical populations exp(-E_n/kt)/Z over the lowest levels."""
    if kt < 0:
        raise InvalidParameterError(f"kt must be >= 0, got {kt}")
    L = eigs.dim if n_levels is None else min(int(n_levels), eigs.dim)
    energies = eigs.energies[:L]
    pops = np.zeros(L)
    if kt == 0.0:
        pops[0] = 1.0
        return SteadyState(populations=pops)
    weights = np.exp(-(energies - energies[0]) / kt)
    return SteadyState(populations=weights / weights.sum())


def balance_residual(table: TransitionTable, state: SteadyState) -> float:
    """Max-norm residual of the steady-state balance equations."""
    flow = table.flow_matrix()
    p = state.populations
    return float(np.max(np.abs(flow @ p - flow.sum(axis=0) * p)))


def evolve_density(
    rho0: np.ndarray,
    eigs: EigenSystem,
    table: TransitionTable,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> list[np.ndarray]:
    """Integrate the element-wise master equation with fixed-step RK4.

    rho0 is the density matrix in the energy eigenbasis, restricted to the
    table's levels.  Returns recorded density matrices, the initial state
    first and the final state last.
    """
    L = table.n_levels
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (L, L):
        raise InvalidInputError(f"rho0 must be {L}x{L}, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise InvalidInputError("rho0 must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise InvalidInputError("rho0 must have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-10:
        raise InvalidInputError(f"rho0 must be positive semidefinite, min eig {evals.min():.3e}")
    if steps < 1 or record_every < 1:
        raise InvalidParameterError("steps and record_every must be >= 1")

    flow = table.flow_matrix()          # flow[m, k]: k -> m
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
    coeff = -1j * table.gap - decay
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
