"""Dressed detection operator, photon correlations, and quadrature squeezing.

Emission observables use the gap-weighted lowering operator in the energy
eigenbasis instead of the bare annihilation operator, so the ground state of
the coupled system emits nothing and correlation ratios stay meaningful into
the ultrastrong-coupling regime.  Expectation values are taken in the
diagonal steady-state ensemble: one state, populations (L,), or a stack of
them, (B, L), with one value per row.  Each row is reduced on its own (no
matrix product), so its bits do not depend on the stack it sits in.
"""

from __future__ import annotations

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


def detection_operator(eigs: EigenSystem) -> DetectionOperator:
    """Build the detection operator over the eigs.n_levels levels eigs holds.

    The result is strictly upper triangular in the energy-sorted basis and
    annihilates the ground state.
    """
    _, xmat = parity_odd_elements(eigs)
    e = eigs.energies[:eigs.n_levels]
    gap = e[None, :] - e[:, None]  # gap[j,k] = E_k - E_j
    xplus = np.triu(gap * xmat, k=1)
    return DetectionOperator(xplus=xplus, xmat=xmat)


def _rows(values):
    """values as a float for one steady state, as the array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _check_levels(ss: SteadyState, n_levels: int, of: str) -> None:
    """Raise InvalidInputError unless ss spans the n_levels levels of of."""
    if ss.n_levels != n_levels:
        raise InvalidInputError(f"steady state has {ss.n_levels} levels, {of} {n_levels}")


def _emission(x: DetectionOperator, ss: SteadyState, n: int):
    """<X^-n X^+n> in the steady state ss, which must span the levels of x."""
    _check_levels(ss, x.n_levels, "the detection operator")
    # An empty level adds 0 even where its norm overflowed to inf (0 * inf).
    p = ss.populations
    return (p * np.where(p != 0.0, x.norms[n - 1], 0.0)).sum(axis=-1)


def flux_proxy(x: DetectionOperator, ss: SteadyState):
    """Steady-state emission flux <X^- X^+> (dimensionless proxy)."""
    return _rows(_emission(x, ss, 1))


def correlation_g_n(x: DetectionOperator, ss: SteadyState, n: int):
    """Zero-delay n-photon correlation <X^-n X^+n> / <X^- X^+>^n, n = 2 or 3."""
    if n not in (2, 3):
        raise InvalidInputError(f"correlation order must be 2 or 3, got {n}")
    denom = _emission(x, ss, 1)
    if np.any(denom < ZERO_FLUX_THRESHOLD):
        raise ZeroFluxError(np.nanmin(denom), ZERO_FLUX_THRESHOLD)
    # Not **, which squares a float64 scalar by pow but an array by x * x.
    return _rows(_emission(x, ss, n) / np.power(denom, n))


def approx_g2(eigs: EigenSystem, x: DetectionOperator, ss: SteadyState) -> tuple:
    """Few-level approximation of the two-photon correlation.

    Evaluates the full three-term expression built from the lowest four
    levels and the steady populations; the returned diagnostics eta1 and
    eta2 are the level-separation differences that control where the
    antibunching window opens.  Returns (value, eta1, eta2); the value is
    NaN when the first excited state is effectively unpopulated, else the
    ratio, inf for x/0 and NaN for 0/0.
    """
    if eigs.dim < 4 or x.n_levels < 4 or ss.n_levels < 4:
        raise InvalidInputError("approx_g2 needs at least 4 levels")
    e = eigs.energies
    d10, d20, d21 = e[1] - e[0], e[2] - e[0], e[2] - e[1]
    d31, d32 = e[3] - e[1], e[3] - e[2]
    eta1 = d10 - d21
    eta2 = d10 - d31
    p = ss.populations
    ax = np.abs(x.xmat[:4, :4])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        numer = (
            (d20**2 * ax[0, 2] ** 2 + d21**2 * ax[1, 2] ** 2) * d32**2 * ax[2, 3] ** 2 * p[..., 3]
            + d10**2 * ax[0, 1] ** 2 * d31**2 * ax[1, 3] ** 2 * p[..., 3]
            + d10**2 * ax[0, 1] ** 2 * d21**2 * ax[1, 2] ** 2 * p[..., 2]
        )
        value = numer / (d10**4 * ax[0, 1] ** 4 * np.square(p[..., 1]))
    return np.where(p[..., 1] < P1_FLOOR, np.nan, value)[()], eta1, eta2


def approx_g3(eigs: EigenSystem, x: DetectionOperator, kt) -> tuple:
    """Single-path approximation of the three-photon correlation.

    Uses the cascade through the three lowest excited levels with a thermal
    weight exp(eta3/kt); eta3 = 2*(E1-E0) - (E2-E1) - (E3-E2) is the
    effective level separation.  kt is one temperature or one per row of a
    stack.  Returns (value, eta3).
    """
    if eigs.dim < 4 or x.n_levels < 4:
        raise InvalidInputError("approx_g3 needs at least 4 levels")
    kt = np.asarray(kt, dtype=float)
    if np.any(kt <= 0):
        raise InvalidInputError(f"approx_g3 needs kt > 0, got {kt}")
    e = eigs.energies
    d10, d21, d32 = e[1] - e[0], e[2] - e[1], e[3] - e[2]
    eta3 = 2.0 * d10 - d21 - d32
    ax = np.abs(x.xmat[:4, :4])
    denom = d10**4 * ax[0, 1] ** 4
    # exp(eta3/kt) is inf beyond eta3/kt ~ 709, and NaN times a zero amplitude.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        numer = float(d21**2 * d32**2 * ax[1, 2] ** 2 * ax[2, 3] ** 2) * np.exp(eta3 / kt)
        # With denom = 0, x/0 is inf and 0/0 (or NaN/0) is 0: no cascade.
        return np.where((denom == 0.0) & ~(numer > 0), 0.0, numer / denom)[()], eta3


def field_moments(ss: SteadyState, eigs: EigenSystem) -> tuple:
    """Steady-state field moments (<a>, <a^dag a>, <a^2>) of ss, which must
    span the levels of eigs; <a> = 0 by parity."""
    _check_levels(ss, eigs.n_levels, "the spectrum")
    n_diag, a2_diag = field_diagonals(eigs)
    p = ss.populations
    return 0.0, _rows((p * n_diag).sum(axis=-1)), _rows((p * a2_diag).sum(axis=-1))


def squeezing_factor(ss: SteadyState, eigs: EigenSystem, moments: Optional[tuple] = None):
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
