"""Bath-induced transition rates and the steady-state balance.

Both the qubit and the cavity couple to independent Ohmic baths.  Rates are
built in the eigenbasis of the full Hamiltonian, so they stay valid deep into
the ultrastrong-coupling regime; parity conservation zeroes every matrix
element between equal-parity eigenstates, which shows up here as vanishing
transition weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    MultipleSteadyStateError,
    NumericFailureError,
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
        with np.errstate(over="ignore"):    # inf at a subnormal kt, where n = 0
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
    """

    n_levels: int
    gap: np.ndarray
    m_q: np.ndarray
    m_c: np.ndarray
    down_q: np.ndarray
    up_q: np.ndarray
    down_c: np.ndarray
    up_c: np.ndarray
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
    """Down/up weights for one bath over pairs with gap >= 0.

    gap and melem_sq may be scalars or arrays of the same shape.  Pairs with
    gap < eps take the degenerate limit of both weights, which vanishes at
    kt = 0.
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
    return down, up


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
    dq, uq = _pair_weights(
        bath.alpha_q, d, model.delta, bath.omega_cutoff, m_q.T[lower] ** 2, bath.kt_q, eps
    )
    dc, uc = _pair_weights(
        bath.alpha_c, d, model.omega0, bath.omega_cutoff, m_c.T[lower] ** 2, bath.kt_c, eps
    )

    def table(values):
        out = np.zeros((L, L), dtype=values.dtype)
        out[lower] = values
        return out

    return TransitionTable(
        n_levels=L, gap=gap, m_q=m_q, m_c=m_c,
        down_q=table(dq), up_q=table(uq), down_c=table(dc), up_c=table(uc),
        kt_q=bath.kt_q, kt_c=bath.kt_c,
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

    Elimination also decides uniqueness: a level left with no downward
    flow means some closed set of levels does not hold level 0.  Only then
    are the components of the transition graph computed: several raise
    MultipleSteadyStateError, one (a set closed in one direction only)
    raises NumericFailureError.
    """
    L = table.n_levels
    if table.kt_q == 0.0 and table.kt_c == 0.0:
        pops = np.zeros(L)
        pops[0] = 1.0
        return SteadyState(populations=pops)

    # rate[i, j]: transition rate from level i to level j.  A pair whose
    # weights all sit at or below WEIGHT_FLOOR is unlinked and carries no
    # rate, so a block cut off by such pairs has exactly zero escape.
    linked = (table.down_total > WEIGHT_FLOOR) | (table.up_total > WEIGHT_FLOOR)
    linked |= linked.T
    rate = np.where(linked, table.flow_matrix().T, 0.0)

    # Fold states from the top down; record the escape rate and the inflow
    # column of each state at its elimination time for back-substitution.
    escape = np.zeros(L)
    for n in range(L - 1, 0, -1):
        s = rate[n, :n].sum()
        if s <= 0.0:
            components = _graph_components(linked)
            if len(components) > 1:
                raise MultipleSteadyStateError(components)
            raise NumericFailureError(
                f"level {n} has no downward flow during elimination"
            )
        escape[n] = s
        rate[:n, :n] += rate[:n, n, None] * rate[n, :n] / s

    pops = np.zeros(L)
    pops[0] = 1.0
    for n in range(1, L):
        pops[n] = np.dot(pops[:n], rate[:n, n]) / escape[n]
    return SteadyState(populations=pops / pops.sum())


def balance_residual(table: TransitionTable, state: SteadyState) -> float:
    """Max-norm residual of the steady-state balance equations."""
    flow = table.flow_matrix()
    p = state.populations
    return float(np.max(np.abs(flow @ p - flow.sum(axis=0) * p)))
