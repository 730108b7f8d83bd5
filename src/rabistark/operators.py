"""Truncated Hilbert space, model parameters, and canonical operators.

The composite space is qubit (x) field with qubit-major ordering: basis index
= qubit_index * (n_tr + 1) + photon_index, qubit index 0 = ground.  Operators
are dense real float64 arrays, since every matrix element of the model is
real.  The Hamiltonian itself is never built densely: spectrum.py solves it
as two parity chains.

Units: omega0 is the base energy unit and hbar = k_B = 1, so couplings and
temperatures are quoted in units of omega0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError

# Qubit sigma_x in the (ground, excited) basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _is_finite(value) -> bool:
    """math.isfinite, reading an int too large for a float as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the anisotropic Rabi-Stark Hamiltonian

    H = (delta/2 + u a^dag a) sigma_z + omega0 a^dag a
        + g [(a sigma_+ + a^dag sigma_-) + r (a sigma_- + a^dag sigma_+)].

    delta   qubit splitting (units of omega0)
    omega0  cavity frequency, the base energy unit (> 0)
    g       qubit-cavity coupling (>= 0)
    r       anisotropy weight of the counter-rotating terms (>= 0)
    u       nonlinear Stark coupling, |u| < omega0
    n_tr    photon Fock truncation: photon states 0..n_tr are kept
    """

    delta: float
    omega0: float = 1.0
    g: float = 0.0
    r: float = 1.0
    u: float = 0.0
    n_tr: int = 200

    def __post_init__(self):
        for name in ("delta", "omega0", "g", "r", "u"):
            if not _is_finite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega0 <= 0:
            raise InvalidParameterError(f"omega0 must be > 0, got {self.omega0}")
        if self.delta <= 0:
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")
        if self.g < 0:
            raise InvalidParameterError(f"g must be >= 0, got {self.g}")
        if self.r < 0:
            raise InvalidParameterError(f"r must be >= 0, got {self.r}")
        if abs(self.u) >= self.omega0:
            raise InvalidParameterError(
                f"|u| must be < omega0 (spectral collapse beyond), got u={self.u}"
            )
        if not isinstance(self.n_tr, (int, np.integer)) or self.n_tr < 2:
            raise InvalidParameterError(f"n_tr must be an integer >= 2, got {self.n_tr}")

    @property
    def dim(self) -> int:
        """Dimension of the composite qubit (x) field space."""
        return 2 * (self.n_tr + 1)

    def with_n_tr(self, n_tr: int) -> "ModelParams":
        return replace(self, n_tr=int(n_tr))


def build_field_ops(n_tr: int):
    """Return (annihilation, creation, number) on the (n_tr+1)-dim Fock space."""
    if not isinstance(n_tr, (int, np.integer)) or n_tr < 2:
        raise InvalidParameterError(f"n_tr must be an integer >= 2, got {n_tr}")
    a = np.diag(np.sqrt(np.arange(1, n_tr + 1, dtype=float)), k=1)
    adag = a.T
    return a, adag, adag @ a


def field_position(n_tr: int) -> np.ndarray:
    """a + a^dag on the bare field space (the cavity coupling quadrature)."""
    a, adag, _ = build_field_ops(n_tr)
    return a + adag


def lift_qubit(op: np.ndarray, n_tr: int) -> np.ndarray:
    """Embed a 2x2 qubit operator into the composite space."""
    return np.kron(op, np.eye(n_tr + 1))


def lift_field(op: np.ndarray, n_tr: int) -> np.ndarray:
    """Embed a field operator into the composite space."""
    return np.kron(np.eye(2), op)


def composite_annihilation(n_tr: int) -> np.ndarray:
    """Annihilation operator on the composite qubit (x) field space."""
    a, _, _ = build_field_ops(n_tr)
    return lift_field(a, n_tr)


def composite_position(n_tr: int) -> np.ndarray:
    """a + a^dag on the composite space (detection/coupling quadrature)."""
    return lift_field(field_position(n_tr), n_tr)
