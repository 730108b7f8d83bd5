"""Parity-resolved diagonalization, gaps, and level-crossing detection.

The Hamiltonian commutes with the parity operator, so every eigenvector
carries a label +/-1.  Degenerate clusters are rotated to simultaneous parity
eigenvectors; crossings of adjacent levels are located by tracking the swap of
the energy-sorted parity labels along a coupling scan and refining with
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .operators import (
    HERMITICITY_TOL,
    ModelParams,
    assemble_hamiltonian,
    hermiticity_defect,
    parity_operator,
)

DEGENERACY_FRACTION = 1e-10    # cluster threshold, fraction of spectral span
PARITY_PURITY_TOL = 1e-8
GAP_CLOSURE_FRACTION = 1e-3    # crossing accepted when gap < this * omega0
BISECTION_DEPTH = 14


@dataclass
class EigenSystem:
    """Sorted eigenvalues, orthonormal eigenvectors, and parity labels.

    energies  ascending real eigenvalues
    states    real eigenvector columns, states[:, n] belongs to energies[n]
    parities  +1/-1 labels from the parity expectation of each state
    """

    energies: np.ndarray
    states: np.ndarray
    parities: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[0]


def _real_matrix(m, name: str) -> np.ndarray:
    """m as a float64 array; a complex m must have a zero imaginary part."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if np.any(m.imag != 0):
            raise InvalidInputError(f"{name} has nonzero imaginary entries; it must be real")
        m = m.real
    return np.asarray(m, dtype=float)


def diagonalize(h: np.ndarray, parity: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric matrix and resolve parity labels.

    Within numerically degenerate clusters the eigenvectors are rotated to be
    simultaneous eigenvectors of the parity operator; every eigenvector sign
    is fixed so its largest-magnitude component is positive.
    """
    h = _real_matrix(h, "h")
    parity = _real_matrix(parity, "parity")
    if h.shape != parity.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"shape mismatch: h {h.shape}, parity {parity.shape}")
    if hermiticity_defect(h) >= HERMITICITY_TOL:
        raise InvalidInputError(
            f"matrix is not Hermitian within {HERMITICITY_TOL}: defect {hermiticity_defect(h):.3e}"
        )

    try:
        energies, states = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigensolver failed: {exc}") from None

    span = max(float(energies[-1] - energies[0]), 1.0)
    cluster_tol = DEGENERACY_FRACTION * span

    # Rotate each degenerate cluster to simultaneous parity eigenvectors.
    start = 0
    n = energies.shape[0]
    while start < n:
        stop = start + 1
        while stop < n and energies[stop] - energies[stop - 1] < cluster_tol:
            stop += 1
        if stop - start > 1:
            block = states[:, start:stop]
            sub = block.T @ (parity @ block)
            sub = 0.5 * (sub + sub.T)
            _, rot = np.linalg.eigh(sub)
            states[:, start:stop] = block @ rot
        start = stop

    # Fix the sign of every column: its largest-magnitude component is positive.
    states *= np.sign(states[np.argmax(np.abs(states), axis=0), np.arange(n)])

    pvals = np.einsum("ij,ij->j", states, parity @ states)
    if np.min(np.abs(pvals)) <= 1.0 - PARITY_PURITY_TOL:
        worst = int(np.argmin(np.abs(pvals)))
        raise NumericFailureError(
            f"state {worst} is not a parity eigenstate: <P> = {pvals[worst]:.12f}"
        )
    return EigenSystem(energies=energies, states=states, parities=np.sign(pvals))


def eigensystem(p: ModelParams) -> EigenSystem:
    """Assemble the model Hamiltonian of p and diagonalize it with parity labels."""
    return diagonalize(assemble_hamiltonian(p), parity_operator(p.n_tr))


def gaps(eigs: EigenSystem) -> np.ndarray:
    """Antisymmetric gap matrix: gaps[k, j] = E_k - E_j."""
    e = eigs.energies
    return e[:, None] - e[None, :]


def gc_analytic(p: ModelParams) -> Optional[float]:
    """First-order ground-state critical coupling, if finite.

    Returns None when the denominator u(1+r^2)/omega0 + 1 - r^2 is <= 0, in
    which case the ground level has no finite first-order crossing.
    """
    d = p.delta / p.omega0
    uu = p.u / p.omega0
    if abs(uu) >= 1.0:
        raise InvalidParameterError(f"|u| must be < omega0, got u={p.u}")
    denom = uu * (1.0 + p.r**2) + 1.0 - p.r**2
    if denom <= 0.0:
        return None
    return p.omega0 * math.sqrt(d * (1.0 - uu**2) / denom)


@dataclass
class CriticalPoints:
    """Detected level crossings along a coupling scan.

    gc_analytic        closed-form ground crossing, or None
    gc_numeric         refined ground crossing (value, half_width), or None
    excited_crossings  list of ((n, n+1), value, half_width) for tracked pairs
    """

    gc_analytic: Optional[float]
    gc_numeric: Optional[tuple[float, float]]
    excited_crossings: list = field(default_factory=list)

    def all_crossings(self) -> list:
        out = []
        if self.gc_numeric is not None:
            out.append(((0, 1), self.gc_numeric[0], self.gc_numeric[1]))
        out.extend(self.excited_crossings)
        return sorted(out, key=lambda item: item[1])


def _with_g(p: ModelParams, g: float) -> ModelParams:
    return replace(p, g=float(g))


def find_crossings(
    p: ModelParams,
    g_min: float,
    g_max: float,
    steps: int,
    levels: Sequence[tuple[int, int]] = ((0, 1), (1, 2), (2, 3)),
) -> CriticalPoints:
    """Scan the coupling axis and locate parity-swap level crossings.

    For each tracked adjacent pair (n, n+1) the scan looks for grid intervals
    where the parity label of level n changes; each detection is refined by
    bisection to a bracket of width (g_max - g_min)/2**14 and accepted when
    the pair gap at the refined point is below the closure threshold.  The
    closure test also rejects swaps of level n caused by a crossing of the
    pair below it.
    """
    if not g_min < g_max:
        raise InvalidParameterError(f"need g_min < g_max, got [{g_min}, {g_max}]")
    if steps < 8:
        raise InvalidParameterError(f"need steps >= 8, got {steps}")
    for lo, hi in levels:
        if hi != lo + 1 or lo < 0:
            raise InvalidParameterError(f"tracked pairs must be adjacent, got ({lo}, {hi})")

    max_level = max(hi for _, hi in levels)
    closure = GAP_CLOSURE_FRACTION * p.omega0
    grid = np.linspace(g_min, g_max, int(steps))

    def labels_at(g: float):
        eigs = eigensystem(_with_g(p, g))
        return eigs.parities[: max_level + 1], eigs.energies[: max_level + 2]

    scan = [labels_at(g) for g in grid]

    found: dict[tuple[int, int], list[tuple[float, float]]] = {pair: [] for pair in levels}
    for i in range(len(grid) - 1):
        labels_lo, _ = scan[i]
        labels_hi, _ = scan[i + 1]
        for pair in levels:
            n = pair[0]
            if labels_lo[n] == labels_hi[n]:
                continue
            lo, hi = float(grid[i]), float(grid[i + 1])
            ref = labels_lo[n]
            for _ in range(BISECTION_DEPTH):
                mid = 0.5 * (lo + hi)
                labels_mid, _ = labels_at(mid)
                if labels_mid[n] == ref:
                    lo = mid
                else:
                    hi = mid
            center = 0.5 * (lo + hi)
            _, energies = labels_at(center)
            if energies[n + 1] - energies[n] < closure:
                found[pair].append((center, 0.5 * (hi - lo)))

    ground = found.get((0, 1), [])
    gc_numeric = ground[0] if ground else None
    excited = []
    for pair in levels:
        if pair == (0, 1):
            for extra in found[pair][1:]:
                excited.append((pair, extra[0], extra[1]))
            continue
        for value, half in found[pair]:
            excited.append((pair, value, half))
    excited.sort(key=lambda item: item[1])
    return CriticalPoints(
        gc_analytic=gc_analytic(p), gc_numeric=gc_numeric, excited_crossings=excited
    )
