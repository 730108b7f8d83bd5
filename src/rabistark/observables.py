"""Dressed detection operator, photon correlations, and quadrature squeezing.

Emission observables use the gap-weighted lowering operator in the energy
eigenbasis instead of the bare annihilation operator, so the ground state of
the coupled system emits nothing and correlation ratios stay meaningful into
the ultrastrong-coupling regime.  Expectation values are taken in the
diagonal steady-state ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError, ZeroFluxError
from .dissipation import SteadyState
from .spectrum import EigenSystem, field_diagonals, parity_odd_elements

ZERO_FLUX_THRESHOLD = 1e-30
P1_FLOOR = 1e-300


@dataclass
class DetectionOperator:
    """Gap-weighted emission operator in the energy eigenbasis.

    xplus[j, k] = (E_k - E_j) * xmat[j, k] for k > j, zero elsewhere;
    xmat[j, k] = <phi_j| (a + a^dag) |phi_k> restricted to the same levels.
    The physical operator carries a global factor -i, dropped here: every
    observable takes |.|^2 of its elements, so xplus stays real.
    norms[n-1][k] = sum_j |((X^+)^n)[j, k]|^2 = <k|X^-n X^+n|k>, n = 1, 2, 3,
    is computed once here for flux_proxy and correlation_g_n.
    """

    xplus: np.ndarray
    xmat: np.ndarray
    norms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # A power that overflows only feeds a ratio that is then inf or NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            self.norms = tuple(np.sum(np.abs(np.linalg.matrix_power(self.xplus, n)) ** 2, axis=0)
                               for n in (1, 2, 3))

    @property
    def n_levels(self) -> int:
        return self.xplus.shape[0]


def detection_operator(eigs: EigenSystem, n_levels: Optional[int] = None) -> DetectionOperator:
    """Build the detection operator over the lowest n_levels eigenstates.

    The result is strictly upper triangular in the energy-sorted basis and
    annihilates the ground state.
    """
    L = eigs.dim if n_levels is None else min(int(n_levels), eigs.dim)
    _, xmat = parity_odd_elements(eigs, L)
    gap = eigs.energies[:L][None, :] - eigs.energies[:L][:, None]  # gap[j,k] = E_k - E_j
    xplus = np.triu(gap * xmat, k=1)
    return DetectionOperator(xplus=xplus, xmat=xmat)


def _emission(x: DetectionOperator, ss: SteadyState, n: int) -> float:
    """<X^-n X^+n> in the steady state ss, which must span the levels of x."""
    if ss.n_levels != x.n_levels:
        raise InvalidInputError(
            f"steady state has {ss.n_levels} levels, the detection operator {x.n_levels}")
    # An empty level adds 0 even where its norm overflowed to inf (0 * inf).
    p = ss.populations
    return float(np.dot(p, np.where(p != 0.0, x.norms[n - 1], 0.0)))


def flux_proxy(x: DetectionOperator, ss: SteadyState) -> float:
    """Steady-state emission flux <X^- X^+> (dimensionless proxy)."""
    return _emission(x, ss, 1)


def correlation_g_n(x: DetectionOperator, ss: SteadyState, n: int) -> float:
    """Zero-delay n-photon correlation <X^-n X^+n> / <X^- X^+>^n, n = 2 or 3."""
    if n not in (2, 3):
        raise InvalidInputError(f"correlation order must be 2 or 3, got {n}")
    denom = flux_proxy(x, ss)
    if denom < ZERO_FLUX_THRESHOLD:
        raise ZeroFluxError(
            f"<X^- X^+> = {denom:.3e} is below {ZERO_FLUX_THRESHOLD}; the "
            "correlation ratio is 0/0 (non-emitting steady state)"
        )
    return _emission(x, ss, n) / denom**n


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
    try:
        weight = math.exp(float(eta3) / kt)
    except OverflowError:   # eta3/kt beyond ~709
        weight = math.inf
    numer = float(d21**2 * d32**2 * ax[1, 2] ** 2 * ax[2, 3] ** 2) * weight
    denom = d10**4 * ax[0, 1] ** 4
    if denom == 0.0:
        return math.inf if numer > 0 else 0.0, eta3
    return numer / denom, eta3


def field_moments(ss: SteadyState, eigs: EigenSystem) -> tuple[float, float, float]:
    """Steady-state field moments (<a>, <a^dag a>, <a^2>); <a> = 0 by parity."""
    L = min(ss.n_levels, eigs.dim)
    n_diag, a2_diag = field_diagonals(eigs, L)
    p = ss.populations[:L]
    return 0.0, float(p @ n_diag), float(p @ a2_diag)


def squeezing_factor(
    ss: SteadyState,
    eigs: EigenSystem,
    moments: Optional[tuple] = None,
) -> float:
    """Principal quadrature squeezing xi_b2 of the cavity field.

    The variance of the rotated quadrature X_theta is
    1 + 2*(<a^dag a> - |<a>|^2) + 2*Re(<a^2>_c e^{-2i theta}) with
    <a^2>_c = <a^2> - <a>^2; its minimum over theta is taken in closed form
    by dropping the cosine to -1.  moments, when given, may be complex.
    Squeezing means xi_b2 < 1.
    """
    if moments is None:
        moments = field_moments(ss, eigs)
    a_mean, n_photon, a_sq = moments
    base = 1.0 + 2.0 * (n_photon - abs(a_mean) ** 2)
    return base - 2.0 * abs(a_sq - a_mean**2)


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
    a_mean: float
    a_sq: float
    flux_proxy: float
    eta1: float
    eta2: float
    eta3: float
