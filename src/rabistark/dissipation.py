"""Bath-induced transition rates and the steady-state balance.

Both the qubit and the cavity couple to independent Ohmic baths.  Rates are
built in the eigenbasis of the full Hamiltonian, so they stay valid deep into
the ultrastrong-coupling regime; parity conservation zeroes every matrix
element between equal-parity eigenstates, so only the pairs of opposite
parity get a rate.  A bath's two reservoirs act on the same levels, so the
table keeps one rate matrix per bath, their sum, and that matrix is all the
steady state reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    MultipleSteadyStateError,
    NumericFailureError,
)
from .spectrum import EigenSystem, ModelParams, _is_finite, parity_odd_elements

GAP_EPSILON_FRACTION = 1e-9   # |gap| below this * omega0 uses the degenerate limit
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


def bose_occupation(gap, kt):
    """Bose-Einstein occupation 1/(exp(gap/kt) - 1) for gap > 0, kt >= 0.

    gap and kt may be scalars or arrays that broadcast together; scalars give
    a float.  kt = 0 gives n = 0.
    """
    gap = np.asarray(gap, dtype=float)
    kt = np.asarray(kt, dtype=float)
    if np.any(gap <= 0):
        raise InvalidInputError(f"gap must be > 0, got {gap.min()}")
    if np.any(kt < 0):
        raise InvalidInputError(f"kt must be >= 0, got {kt.min()}")
    # x = inf at kt = 0 or a subnormal kt, where n = 0.
    with np.errstate(over="ignore", divide="ignore"):
        x = gap / kt
    # For x > 30, e^-x / (1 - e^-x) never overflows.
    ex = np.exp(-x)
    n = np.where(x > 30.0, ex / (1.0 - ex), 1.0 / np.expm1(np.minimum(x, 30.0)))
    return float(n) if n.ndim == 0 else n


@dataclass
class TransitionTable:
    """Total transition rates of a batch of baths over one spectrum's levels.

    rate is (B, L, L), one table per bath over the L = n_levels levels of
    the spectrum, and kt_q, kt_c are (B,).  rate[b, k, j] is bath b's rate
    from level k to level j, the qubit and cavity reservoirs summed: below
    the diagonal (k > j) the emission rate Gamma*(1+n), above it the
    absorption rate Gamma*n.  The diagonal is zero.
    """

    rate: np.ndarray
    kt_q: np.ndarray
    kt_c: np.ndarray

    @property
    def n_levels(self) -> int:
        return self.rate.shape[-1]

    def flow_matrix(self) -> np.ndarray:
        """flow[b, m, k] = total transition rate of bath b from level k into
        level m, a transposed view of rate."""
        return np.swapaxes(self.rate, -1, -2)


def _pair_weights(alpha, gap, omega_ref, omega_cutoff, melem_sq, kt, eps):
    """Down/up weights over pairs with gap >= 0.

    gap is a scalar or an array of pairs; the other arguments but eps may be
    scalars or arrays that broadcast against it, such as one entry per
    reservoir and bath.  Pairs with gap < eps take the degenerate limit of
    both weights, which vanishes at kt = 0.
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
    baths: Sequence[BathParams],
) -> TransitionTable:
    """Build the regularized rate table of each bath over the eigs.n_levels
    levels eigs holds, stacked in the order of baths."""
    L = eigs.n_levels
    if not baths or L < 2:
        raise InvalidParameterError("need baths and a spectrum of 2 or more levels, got "
                                    f"{'' if baths else 'no baths, '}n_levels={L}")
    energies = eigs.energies[:L]
    m_q, m_c = parity_odd_elements(eigs)
    # The opposite-parity pairs (k, j), k > j, the only ones with a rate: their
    # gaps, and squared qubit and cavity elements <j|.|k>^2 as (2, 1, pairs).
    lower = np.tril(eigs.parities[:L, None] != eigs.parities[None, :L], k=-1)
    gap = (energies[:, None] - energies[None, :])[lower]
    melem_sq = np.stack([m_q.T[lower] ** 2, m_c.T[lower] ** 2])[:, None]

    # Both reservoirs of every bath in one pass: arrays run over (reservoir,
    # bath, pair), the qubit reservoir first.
    alpha, kt = np.array([[(b.alpha_q, b.kt_q), (b.alpha_c, b.kt_c)] for b in baths]).T[..., None]
    cutoff = np.array([[b.omega_cutoff] for b in baths])
    omega_ref = np.array([model.delta, model.omega0])[:, None, None]
    down, up = _pair_weights(alpha, gap, omega_ref, cutoff, melem_sq, kt,
                             GAP_EPSILON_FRACTION * model.omega0)
    rate = np.zeros((len(baths), L, L))
    rate[:, lower] = down[0] + down[1]
    np.swapaxes(rate, -1, -2)[:, lower] = up[0] + up[1]
    return TransitionTable(rate=rate, kt_q=kt[0, :, 0], kt_c=kt[1, :, 0])


@dataclass
class SteadyState:
    """Diagonal steady-state populations over the lowest eigenstates.

    populations is (n_levels,) for one bath, or (B, n_levels) with one row
    per bath as steady_populations returns it.  Then errors[b] is the
    exception bath b's balance raised, or None; a failed bath's row is NaN.
    """

    populations: np.ndarray
    errors: tuple = ()

    @property
    def n_levels(self) -> int:
        return self.populations.shape[-1]

    def of_bath(self, b: int) -> "SteadyState":
        """The steady state of bath b alone; raises the error its balance met."""
        if self.errors[b] is not None:
            raise self.errors[b]
        return SteadyState(populations=self.populations[b])


def _graph_components(linked: np.ndarray) -> list:
    """Connected components of the undirected graph with adjacency linked | linked.T.

    Each component lists its levels in ascending order; components are
    ordered by their lowest level.
    """
    from scipy.sparse.csgraph import connected_components   # only a failed bath needs it
    count, labels = connected_components(linked, directed=True, connection="weak")
    return [np.flatnonzero(labels == k).tolist() for k in range(count)]


def _no_steady_state(linked: np.ndarray, n: int):
    """The error of a bath whose elimination left level n with no downward flow."""
    components = _graph_components(linked)
    if len(components) > 1:
        return MultipleSteadyStateError(components)
    return NumericFailureError(f"level {n} has no downward flow during elimination")


def steady_populations(table: TransitionTable) -> SteadyState:
    """Solve the diagonal balance equations of every bath of the table.

    The balance system (flow in = flow out for every level, populations
    normalized) is solved by GTH state elimination, which uses no
    subtractions and therefore resolves every component with small
    *relative* error; Boltzmann tails far below machine epsilon come out
    correctly instead of as solver noise.  A bath at zero temperature in
    both reservoirs gets the ground state directly.  The other baths are
    eliminated together, one level at a time over the whole stack; each
    bath's arithmetic is the same as for a table of its own.

    Elimination also decides uniqueness: a level left with no downward
    flow means some closed set of levels does not hold level 0.  Only for
    such a bath are the components of its transition graph computed:
    several give MultipleSteadyStateError, one (a set closed in one
    direction only) NumericFailureError.  A bath whose rates overflow the
    elimination (an inf or NaN escape rate or population) gets a
    NumericFailureError too.  The error is kept in errors[b], for
    SteadyState.of_bath to raise, and the bath's row is NaN.
    """
    B, L = table.rate.shape[0], table.n_levels
    pops = np.zeros((B, L))
    pops[:, 0] = 1.0
    errors = [None] * B

    # A pair whose rates both sit at or below WEIGHT_FLOOR is unlinked and
    # carries no rate, so a block cut off by such pairs has exactly zero escape.
    live = (table.kt_q != 0.0) | (table.kt_c != 0.0)
    rate = table.rate[live]
    linked = rate > WEIGHT_FLOOR
    linked |= np.swapaxes(linked, -1, -2)
    rate[~linked] = 0.0

    # Fold states from the top down; record the escape rate and the inflow
    # column of each state at its elimination time for back-substitution.
    # A bath that meets a zero escape s divides by it from there on, and one
    # whose rates overflow meets inf: its slice turns NaN or inf without
    # touching the others.  After the loops an inf or NaN escape or
    # normalisation sum marks it (GTH makes no subtractions, so a finite sum
    # means finite populations), and a zero escape is judged at its first
    # (highest) such level.
    escape = [None] * L
    p = np.zeros((rate.shape[0], 1, L))
    p[:, :, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(L - 1, 0, -1):
            row = rate[:, n, None, :n]
            escape[n] = s = row.sum(axis=-1, keepdims=True)
            block = rate[:, :n, :n]
            block += rate[:, :n, n, None] * row / s
        for n in range(1, L):
            np.divide(p[:, :, :n] @ rate[:, :n, n, None], escape[n], out=p[:, :, n, None])
        total = p[:, 0].sum(axis=-1)
        pops[live] = p[:, 0] / total[:, None]

    escapes = np.concatenate(escape[1:], axis=1)
    stuck = escapes <= 0.0
    failed = ~(np.isfinite(escapes).all(axis=(1, 2)) & np.isfinite(total))
    if failed.any():
        at = np.flatnonzero(live)
        for k in np.flatnonzero(failed):
            levels = np.flatnonzero(stuck[k])
            errors[at[k]] = (_no_steady_state(linked[k], 1 + levels[-1]) if levels.size else
                             NumericFailureError("steady-state elimination overflowed: "
                                                 "rates out of floating-point range"))
            pops[at[k]] = np.nan
    return SteadyState(populations=pops, errors=tuple(errors))


def balance_residual(table: TransitionTable, state: SteadyState) -> float:
    """Max-norm residual of the steady-state balance equations over all baths."""
    flow = table.flow_matrix()
    p = state.populations
    return float(np.max(np.abs((flow @ p[..., None])[..., 0] - flow.sum(axis=-2) * p)))
