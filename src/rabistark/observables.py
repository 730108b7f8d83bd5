"""Dressed detection operator, photon correlations, and quadrature squeezing.

Emission observables use the gap-weighted lowering operator in the energy
eigenbasis instead of the bare annihilation operator, so the ground state of
the coupled system emits nothing and correlation ratios stay meaningful into
the ultrastrong-coupling regime.  Expectation values are taken in the
diagonal steady-state ensemble.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, ZeroFluxError
from .spectrum import EigenSystem
from .dissipation import SteadyState

ZERO_FLUX_THRESHOLD = 1e-30
P1_FLOOR = 1e-300


@dataclass
class DetectionOperator:
    """Gap-weighted emission operator in the energy eigenbasis.

    xplus[j, k] = -i * (E_k - E_j) * xmat[j, k] for k > j, zero elsewhere;
    xmat[j, k] = <phi_j| (a + a^dag) |phi_k> restricted to the same levels.
    """

    xplus: np.ndarray
    xmat: np.ndarray

    @property
    def n_levels(self) -> int:
        return self.xplus.shape[0]

    @property
    def xminus(self) -> np.ndarray:
        return self.xplus.conj().T

    def rescaled(self, factor: complex) -> "DetectionOperator":
        return DetectionOperator(xplus=self.xplus * factor, xmat=self.xmat.copy())


def detection_operator(
    eigs: EigenSystem, field_x: np.ndarray, n_levels: Optional[int] = None
) -> DetectionOperator:
    """Build the detection operator over the lowest n_levels eigenstates.

    field_x is a + a^dag in the bare basis.  The result is strictly upper
    triangular in the energy-sorted basis and annihilates the ground state.
    """
    L = eigs.dim if n_levels is None else min(int(n_levels), eigs.dim)
    states = eigs.states[:, :L]
    xmat = states.T @ (field_x @ states)
    gap = eigs.energies[:L][None, :] - eigs.energies[:L][:, None]  # gap[j,k] = E_k - E_j
    xplus = -1j * np.triu(gap * xmat, k=1)
    return DetectionOperator(xplus=xplus, xmat=xmat)


def flux_proxy(x: DetectionOperator, ss: SteadyState) -> float:
    """Steady-state emission flux <X^- X^+> (dimensionless proxy)."""
    L = min(x.n_levels, ss.n_levels)
    norms = np.sum(np.abs(x.xplus[:, :L]) ** 2, axis=0)
    return float(np.dot(ss.populations[:L], norms))


def correlation_g_n(
    x: DetectionOperator, ss: SteadyState, eigs: EigenSystem, n: int
) -> float:
    """Zero-delay n-photon correlation <X^-n X^+n> / <X^- X^+>^n."""
    if n not in (2, 3, 4):
        raise InvalidInputError(f"correlation order must be 2, 3, or 4, got {n}")
    L = min(x.n_levels, ss.n_levels)
    denom = flux_proxy(x, ss)
    if denom < ZERO_FLUX_THRESHOLD:
        raise ZeroFluxError(
            f"<X^- X^+> = {denom:.3e} is below {ZERO_FLUX_THRESHOLD}; the "
            "correlation ratio is 0/0 (non-emitting steady state)"
        )
    power = np.linalg.matrix_power(x.xplus[:L, :L], n)
    numer = float(np.dot(ss.populations[:L], np.sum(np.abs(power) ** 2, axis=0)))
    return numer / denom**n


def approx_g2(
    eigs: EigenSystem, x: DetectionOperator, ss: SteadyState
) -> tuple[float, float, float]:
    """Few-level approximation of the two-photon correlation.

    Evaluates the full three-term expression built from the lowest four
    levels and the steady populations; the returned diagnostics eta1 and
    eta2 are the level-separation differences that control where the
    antibunching window opens.  Returns (value, eta1, eta2); the value is
    NaN when the first excited state is effectively unpopulated.
    """
    if eigs.dim < 4 or x.n_levels < 4 or ss.n_levels < 4:
        raise InvalidInputError("approx_g2 needs at least 4 levels")
    e = eigs.energies
    d10, d20, d21 = e[1] - e[0], e[2] - e[0], e[2] - e[1]
    d31, d32 = e[3] - e[1], e[3] - e[2]
    eta1 = d10 - d21
    eta2 = d10 - d31
    p = ss.populations
    if p[1] < P1_FLOOR:
        return math.nan, eta1, eta2
    ax = np.abs(x.xmat)
    numer = (
        (d20**2 * ax[0, 2] ** 2 + d21**2 * ax[1, 2] ** 2) * d32**2 * ax[2, 3] ** 2 * p[3]
        + d10**2 * ax[0, 1] ** 2 * d31**2 * ax[1, 3] ** 2 * p[3]
        + d10**2 * ax[0, 1] ** 2 * d21**2 * ax[1, 2] ** 2 * p[2]
    )
    denom = d10**4 * ax[0, 1] ** 4 * p[1] ** 2
    if denom == 0.0:
        return math.inf if numer > 0 else math.nan, eta1, eta2
    return numer / denom, eta1, eta2


def approx_g3(
    eigs: EigenSystem, x: DetectionOperator, kt: float
) -> tuple[float, float]:
    """Single-path approximation of the three-photon correlation.

    Uses the cascade through the three lowest excited levels with a thermal
    weight exp(eta3/kt); eta3 = 2*(E1-E0) - (E2-E1) - (E3-E2) is the
    effective level separation.  Returns (value, eta3).
    """
    if eigs.dim < 4 or x.n_levels < 4:
        raise InvalidInputError("approx_g3 needs at least 4 levels")
    if kt <= 0:
        raise InvalidInputError(f"approx_g3 needs kt > 0, got {kt}")
    e = eigs.energies
    d10, d21, d32 = e[1] - e[0], e[2] - e[1], e[3] - e[2]
    eta3 = 2.0 * d10 - d21 - d32
    ax = np.abs(x.xmat)
    numer = d21**2 * d32**2 * ax[1, 2] ** 2 * ax[2, 3] ** 2 * math.exp(eta3 / kt)
    denom = d10**4 * ax[0, 1] ** 4
    if denom == 0.0:
        return math.inf if numer > 0 else 0.0, eta3
    return numer / denom, eta3


def _moment_diagonals(eigs: EigenSystem, a: np.ndarray, L: int):
    """Diagonal eigenbasis elements of a, a^dag a, and a^2 (lowest L levels)."""
    states = eigs.states[:, :L]
    av = a @ states
    a_diag = np.einsum("ij,ij->j", states, av)
    n_diag = np.einsum("ij,ij->j", av.conj(), av).real
    a2_diag = np.einsum("ij,ij->j", states, a @ av)
    return a_diag, n_diag, a2_diag


def field_moments(
    ss: SteadyState, eigs: EigenSystem, a: np.ndarray
) -> tuple[complex, float, complex]:
    """Steady-state field moments (<a>, <a^dag a>, <a^2>)."""
    L = min(ss.n_levels, eigs.dim)
    a_diag, n_diag, a2_diag = _moment_diagonals(eigs, a, L)
    p = ss.populations[:L]
    return complex(p @ a_diag), float(p @ n_diag), complex(p @ a2_diag)


def squeezing_factor(
    ss: SteadyState,
    eigs: EigenSystem,
    a: np.ndarray,
    moments: Optional[tuple[complex, float, complex]] = None,
) -> tuple[float, float, float]:
    """Principal quadrature squeezing of the cavity field.

    The variance of the rotated quadrature X_theta is
    1 + 2*(<a^dag a> - |<a>|^2) + 2*Re(<a^2>_c e^{-2i theta}) with
    <a^2>_c = <a^2> - <a>^2; its minimum over theta is taken in closed form
    by dropping the cosine to -1.  Also evaluates the symmetry-reduced
    closed form 2*(<a^dag a> - Re<a^2>) + 1.  Returns
    (xi_b2, xi_b2_closed, theta_min); squeezing means xi_b2 < 1.
    """
    if moments is None:
        moments = field_moments(ss, eigs, a)
    a_mean, n_photon, a_sq = moments

    centered = a_sq - a_mean**2
    base = 1.0 + 2.0 * (n_photon - abs(a_mean) ** 2)
    xi_b2 = base - 2.0 * abs(centered)

    xi_b2_closed = 1.0 + 2.0 * (n_photon - a_sq.real)
    theta_min = cmath.phase(a_sq) / 2.0 + math.pi / 2.0
    return xi_b2, xi_b2_closed, theta_min


@dataclass
class ObservableReport:
    """Photon observables of one steady state.

    Correlation values may be NaN when the point reported an error; the
    eta fields are the level-separation diagnostics of the few-level
    approximations.
    """

    g2: float
    g3: float
    g2_approx: float
    g3_approx: float
    xi_b2: float
    n_photon: float
    a_mean: complex
    a_sq: complex
    flux_proxy: float
    eta1: float
    eta2: float
    eta3: float
    gn: Optional[dict] = None
