"""Parity-resolved spectrum, chain-form matrix elements, and level crossings.

The Hamiltonian conserves parity exp(i pi (a^dag a + (sigma_z + 1)/2)), and
within each parity sector it is a tridiagonal chain (Braak, PRL 107, 100401
(2011)), so the spectrum is solved chain by chain and every eigenvector
carries an exact label +/-1.  A model's chains are built once (_parts) and
kept on its spectrum, which the truncation check grows by the added sites
alone.  Eigenvectors stay in chain form, and the parity-odd matrix elements
are taken on the chains once per spectrum.  The levels read occupy a short
head of each chain, a view of the coupled chain at its scale, so eigensystem
and the crossing scan solve the heads alone (the whole chains where a head
does not pay).  Three certificates rest on one Sturm count at a shift,
with one error bound (_count): of the full chains for the head solve
(_certified_head) and the truncation check (keeps_lowest_levels), and of
each chain's shortest diagonally dominant prefix for the scan's values
(_bracket).  Crossings of adjacent levels are located by tracking
the swap of the energy-sorted parity labels along a coupling scan, each
coupling solved once through one hook (_scan_levels), and refined by
bisection (find_crossings).

Units: omega0 is the base energy unit and hbar = k_B = 1, so couplings and
temperatures are quoted in units of omega0.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy

from .errors import InvalidParameterError, NumericFailureError


def _load_flapack(scipy_dirs: Sequence[str]):
    """scipy's compiled LAPACK module scipy.linalg._flapack, whose routines
    scipy.linalg.lapack re-exports, without scipy.linalg's package init.

    That init costs about 0.25 s a process, most of it scipy's array-API
    shim importing numpy's submodules (numpy.f2py among them); the module
    itself loads in a few ms.  A module already imported is reused.
    Otherwise the first linalg/_flapack file with an extension suffix under
    scipy_dirs (the scipy package's folders) is loaded under its real name
    and registered in sys.modules, so a later `import scipy.linalg` reuses
    it: scipy.linalg.lapack.dstebz is this module's dstebz.  Where there is
    no such file (a zipped or frozen install), scipy.linalg.lapack itself is
    imported.  The caller imports scipy first: on Windows that also
    registers scipy's DLL directory.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    for folder in scipy_dirs:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = spec_from_file_location(name, path)
                module = module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
                return module
    from scipy.linalg import lapack
    return lapack


_flapack = _load_flapack(scipy.__path__)
dstebz, dstevd = _flapack.dstebz, _flapack.dstevd

DEGENERACY_FRACTION = 1e-10    # level-order threshold, fraction of spectral span
GAP_CLOSURE_FRACTION = 1e-3    # crossing accepted when gap < this * omega0
GAP_ROUNDING = 2.0**-44        # gap of rounding, in units of the grown scale (keeps_lowest_levels)
BISECTION_DEPTH = 14
GRID_TOL = 2.0**-24            # dstebz tolerance of the scan's grid labels, in units of scale
HEAD_SITES = 64                # leading sites per chain eigensystem first solves (at least 2L)
HEAD_RESIDUAL = 2.0**-52       # largest edge residual of a head's level, in units of scale
HEAD_GAP = 2.0**-32            # least distance of sigma from a head's levels, in units of scale
_FLOAT_MAX = np.finfo(float).max


def _is_finite(value) -> bool:
    """math.isfinite, reading an int too large for a float as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    """Whether value is a Python or numpy integer, not a bool or an integral float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_int(self.n_tr) or self.n_tr < 2:
            raise InvalidParameterError(f"n_tr must be an integer >= 2, got {self.n_tr}")

    @property
    def dim(self) -> int:
        """Number of levels: dimension of the qubit (x) field space."""
        return 2 * (self.n_tr + 1)

    def with_n_tr(self, n_tr: int) -> "ModelParams":
        return replace(self, n_tr=int(n_tr))


@dataclass
class EigenSystem:
    """Lowest eigenvalues, chain-form eigenvectors, and parity labels.

    energies  the lowest min(L+1, dim) real eigenvalues, ascending: the L
              levels every reader takes (see eigensystem) and the one above
    states    (m', L) real chain amplitudes of the lowest L = n_levels
              levels on the m' sites solved (n_tr+1, or a certified head):
              column k is level k's eigenvector on the chain of its parity,
              entry n the amplitude of |n, q(n)> (_parts); columns
              follow energies up to the level-order rule
    parities  +1/-1 label of the parity sector of each level in energies
    dim       number of levels of the model, 2(n_tr+1)
    parts     _parts of the model, kept by eigensystem; None if made by hand
    """

    energies: np.ndarray
    states: np.ndarray
    parities: np.ndarray
    dim: int
    parts: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_levels(self) -> int:
        return self.states.shape[1]

    @cached_property
    def parity_odd_elements(self) -> tuple[np.ndarray, np.ndarray]:
        """<j|sigma_x|k> and <j|a + a^dag|k> over the n_levels levels, once per spectrum.

        Both operators flip parity, so elements between equal labels are
        zero.  sigma_x maps |n, q> to |n, 1-q>, the same chain index on the
        other chain, so its elements are chain overlaps C^T C.  a maps |n, q>
        to sqrt(n) |n-1, q>, index n-1 on the other chain, so a + a^dag acts
        as the symmetric shift S + S^T with S[n-1, n] = sqrt(n).
        """
        c, L = self.states, self.n_levels
        root = np.sqrt(np.arange(1.0, c.shape[0]))[:, None]
        shifted = np.zeros_like(c)
        shifted[:-1] = root * c[1:]
        shifted[1:] += root * c[:-1]
        flips = self.parities[:L, None] != self.parities[None, :L]
        return np.where(flips, c.T @ c, 0.0), np.where(flips, c.T @ shifted, 0.0)


def _parts(p: ModelParams, first: int = 0) -> list:
    """The g = 1 chains of p on sites first..n_tr, (diag, unit, max|diag|,
    max|unit|) per parity, even (P=+1) first: the chain at g is (diag, g * unit).

    Site n is |n, q(n)>, q = (n + odd) mod 2 (1 = excited), at +/-(delta/2 +
    u n) + omega0 n, + where q = 1.  unit holds the hop into each site n > 0
    from n - 1: sqrt(n) rotating (|n-1, e> -> |n, g>), r sqrt(n) counter-rotating.
    """
    n = np.arange(first, p.n_tr + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        stark, photons = 0.5 * p.delta + p.u * n, p.omega0 * n
        low, high = photons - stark, photons + stark
    into, odd = n[n > 0], np.array([[0], [1]])          # one row per chain
    diag = np.where((n + odd) % 2 == 1, high, low)
    unit = np.sqrt(into) * np.where((into + odd) % 2 == 0, 1.0, p.r)
    dmax, umax = np.max(np.abs(diag), axis=1).tolist(), np.max(np.abs(unit), axis=1).tolist()
    return [(diag[k], unit[k], dmax[k], umax[k]) for k in (0, 1)]


def _bisect(diag: np.ndarray, off: np.ndarray, scale: float, lo: int, hi: int,
            tol: float = 0.0) -> np.ndarray:
    """Eigenvalues lo..hi (0-based, ascending) of the symmetric tridiagonal
    matrix with diagonal diag and off-diagonal off, by LAPACK bisection to
    the absolute tolerance tol in units of scale, a power of two at or above
    the matrix's Gershgorin bound (_coupled).

    At tol 0 dstebz gets the arguments scipy's eigvalsh_tridiagonal(select='i')
    passes it (index range, order E), so the eigenvalues are the same bits,
    without the wrapper's validation on every call.  dstebz squares the hops,
    so it sees the matrix divided by scale, and the eigenvalues are scaled
    back: both steps are exact.  The callers check that diag and off are
    finite first; a LAPACK failure is a NumericFailureError.
    """
    return _bisect_scaled(diag / scale, off / scale, scale, lo, hi, tol)


def _bisect_scaled(diag: np.ndarray, off: np.ndarray, scale: float, lo: int, hi: int,
                   tol: float) -> np.ndarray:
    """_bisect of the matrix whose diagonal and off-diagonal, divided by
    scale, are diag and off: for a reader that keeps them divided (_Scan)."""
    m, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, lo + 1, hi + 1, tol, "E")
    if info != 0:
        raise NumericFailureError(f"eigensolver failed: dstebz failed (LAPACK info={info})")
    return w[:m] * scale


def _stack(chains: list) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of chains (each a tuple that starts with its
    diagonal and off-diagonal: _parts, _coupled) laid one after another and
    joined by zero hops, where dstebz splits the matrix: block j is chain j."""
    hops = [piece for chain in chains for piece in (chain[1], [0.0])]
    return np.concatenate([chain[0] for chain in chains]), np.concatenate(hops[:-1])


def _count(shifted: np.ndarray, off: np.ndarray, scale: float) -> Optional[int]:
    """Number of eigenvalues at or below 0 of the blocks stacked in
    (shifted, off), each already shifted by its sigma: so the sum of each
    block's count at its sigma.  The blocks are chains (_stack) or lowered
    chain prefixes (_bracket), joined by zero hops; dstebz counts them in
    one Sturm pass (Sylvester's law of inertia), and None means it failed
    (info != 0).  scale is a power of two at or above every block's
    Gershgorin bound (_scales), up to 2^-49 scale (a lowered prefix), and
    every |sigma| < scale: each block reaches dstebz divided by scale, its
    eigenvalues in about (-2, 2), and the count runs over (-4, 0]; the
    tolerance 4 stops the bisection before it starts.  The pivmin guard
    counts an eigenvalue at sigma, reliably in IEEE arithmetic (Kahan 1966;
    Demmel, Dhillon and Ren, ETNA 3, 1995).

    Error.  The count is exact for a stack within 2^-49 scale of the shifted
    one in norm, so an eigenvalue farther than that from its block's sigma
    is counted as in exact arithmetic (Weyl): the shift, which the caller
    takes once per diagonal entry, rounds by at most 2^-52 since
    |T - sigma|/scale < 2 + 2^-49; the Sturm recurrence is exact for hops
    changed by 2.5 units of roundoff relative, below 2^-51 in norm since
    2 max|hop|/scale < 1; dstebz splits off a hop below
    2^-52 sqrt|d_j d_(j+1)| < 2^-51, at most 2^-50 in norm.  The margins of
    _bracket, _certified_head and keeps_lowest_levels cite this."""
    m, _, _, _, info = dstebz(shifted / scale, off / scale, 1, -4.0, 0.0, 0, 0, 4.0, "E")
    return m if info == 0 else None


def _scales(p: ModelParams, parts: list, g: float) -> tuple[list, float]:
    """Each chain's power of two at or above its Gershgorin bound at coupling
    g, from the maxima of parts = _parts(p), and an upper bound of the
    spectral span of the two: what _coupled attaches to the chains, for a
    reader that builds no full chain (_bracket).

    Coefficients whose Gershgorin bound overflows are rejected as invalid
    parameters before LAPACK sees them.
    """
    scales, span_hi = [], 0.0
    for *_, dmax, umax in parts:
        # Gershgorin: every eigenvalue lies within +/- bound, so a finite
        # 2*bound keeps the coefficients and the spectral span finite, and
        # 4*bound, kept finite, bounds the span with room for rounding.
        # max|g * unit| is g * umax, since g >= 0 and rounding is monotone.
        bound = dmax + 2.0 * (float(g) * umax)
        if not math.isfinite(2.0 * bound):
            raise InvalidParameterError(
                f"chain coefficients or spectral span overflow at n_tr={p.n_tr}: "
                f"g={g}, omega0={p.omega0}"
            )
        span_hi = max(span_hi, min(4.0 * bound, _FLOAT_MAX))
        scales.append(math.ldexp(1.0, math.frexp(bound)[1]))
    return scales, span_hi


def _coupled(p: ModelParams, parts: list, g: float) -> tuple[list, float]:
    """Both chains (diag, g * unit, scale) at coupling g from parts =
    _parts(p), each with the scale _bisect divides it by, and the span bound
    of the two (_scales)."""
    scales, span_hi = _scales(p, parts, g)
    return [(diag, g * unit, s) for (diag, unit, *_), s in zip(parts, scales)], span_hi


def _level_order(energies: np.ndarray, count: int, span_hi: float, tops: Iterable) -> np.ndarray:
    """The leading count entries of the permutation of energies (both
    chains' lowest eigenvalues, as many of each, ascending, even chain
    first) into the former dense solver's level order: levels closer than
    DEGENERACY_FRACTION * span, span = max(tops) - min(E) with tops each full
    chain's highest eigenvalue, odd parity first.  The critical-scan
    references depend on it, though it swaps a ground crossing's labels
    slightly before it (fixing that moves the r=1 crossings past their gate).

    The rule puts odd level i before even level j iff fl(E_i - shift) < E_j,
    monotone in the shift, and never reorders one parity: where no shift and
    the shift at span_hi >= span (_coupled) give the same leading entries,
    so does the shift at span, and tops, a generator, is not read.
    """
    odd = np.arange(energies.size) >= energies.size // 2

    def ordered(span: float) -> np.ndarray:
        shift = DEGENERACY_FRACTION * max(span, 1.0)
        return np.argsort(energies - shift * odd, kind="stable")[:count]

    plain = np.argsort(energies, kind="stable")[:count]
    if np.array_equal(plain, ordered(span_hi)):
        return plain
    return ordered(float(max(tops) - energies.min()))


def _head(chains: list, sites: int) -> list:
    """The leading sites of each chain of chains (_coupled), as views, each at
    its full chain's scale: that bounds the head's Gershgorin interval too."""
    return [(diag[:sites], off[:sites - 1], scale) for diag, off, scale in chains]


def _heads(n: int, sites: int):
    """The head lengths eigensystem and find_crossings try, shortest first:
    sites * 2^j while that is at most half of chains of n sites.  Past that a
    head no longer pays, and the whole chains are solved."""
    while 2 * sites <= n:
        yield sites
        sites *= 2


def _solve(chains: list) -> list:
    """(eigenvalues, eigenvectors) of each chain of _coupled, which has checked
    them finite, by LAPACK dstevd: eigh_tridiagonal's driver, called directly."""
    solved = [dstevd(diag, off) for diag, off, _ in chains]
    for *_, info in solved:
        if info != 0:
            raise NumericFailureError(f"eigensolver failed: dstevd failed (LAPACK info={info})")
    return [(w, v) for w, v, _ in solved]


def _edge_hop(p: ModelParams, sites: int) -> float:
    """The hop past site sites-1 of either chain at p.g, at most g sqrt(sites) max(1, r)."""
    return p.g * math.sqrt(sites) * max(1.0, p.r)


def _certified_head(p: ModelParams, chains: list, sites: int, levels: int):
    """eigensystem's solve of the leading sites of each chain (_head, _solve),
    where a certificate proves that its lowest levels = L+1 levels are the
    full chains' lowest (chains, at p.g: _coupled); else None.

    Notation: T is a full chain, T' its head of m' sites, s the larger scale
    of the two full chains, (theta_k, v_k) the eigenpairs dstevd returns on
    T', and sigma the midpoint of the gap above level L of both heads.

    Certificate.  [v_k; 0] leaves one residual entry in T, below
    h |v_k[m'-1]| (h = _edge_hop), which must be <= HEAD_RESIDUAL times its
    chain's scale for each level at or below sigma.  By the residual bound
    for an orthonormal set (Kahan; Parlett, The Symmetric Eigenvalue
    Problem, ch. 4 and 11), the j such levels of T' then have j eigenvalues
    of T within sqrt(j) times that plus dstevd's own backward error, a few
    m' ulps of s.  sigma lies farther than margin = max(DEGENERACY_FRACTION,
    HEAD_GAP s) from every theta_k, and 2^-32 s covers both and the count's
    error, below 2^-49 s (_count): those j eigenvalues lie below sigma.  One
    Sturm count of both full chains at sigma (_count on _stack) finds at
    least their sum, and exactly levels only when neither chain holds a
    further eigenvalue at or below sigma: then the heads' lowest levels are
    the full chains'.  A LAPACK failure certifies nothing; a head the
    residual test refuses costs no count.

    Level order.  margin is max(shift, HEAD_GAP s), shift =
    DEGENERACY_FRACTION max(span, 1) (_level_order), with no top eigenvalue
    found: span <= 2s and s is a power of two, so for s >= 1/2 the shift is
    at most 2e-10 s < 2^-32 s, and for s <= 1/4 it is DEGENERACY_FRACTION >
    2^-32 s.  So the rule never moves a level across sigma.
    """
    try:
        solved = _solve(_head(chains, sites))
    except NumericFailureError:
        return None
    energies = np.sort(np.concatenate([w for w, _ in solved]))
    sigma = 0.5 * (energies[levels - 1] + energies[levels])
    h = _edge_hop(p, sites)
    for (w, v), (_, _, s) in zip(solved, chains):
        if np.any(h * np.abs(v[-1, :np.searchsorted(w, sigma)]) > HEAD_RESIDUAL * s):
            return None
    scale = max(chains[0][2], chains[1][2])
    if energies[levels] - energies[levels - 1] <= 2.0 * max(DEGENERACY_FRACTION, HEAD_GAP * scale):
        return None
    diag, off = _stack(chains)
    return solved if _count(diag - sigma, off, scale) == levels else None


def eigensystem(p: ModelParams, n_levels: Optional[int] = None) -> EigenSystem:
    """The lowest levels of the model, solved as two tridiagonal parity
    chains, with the state columns of the lowest L = n_levels levels (all
    when None): the one place the level count L is chosen.  Every reader
    takes L from the spectrum it is given (EigenSystem.n_levels).

    The chains are solved on the leading m' sites only where a certificate
    proves that their lowest L+1 levels are the full chains' (_certified_head);
    m' starts at max(HEAD_SITES, 2L) and doubles (_heads), and past half the
    chain the whole chains are solved.  Each eigenvector stays on its own
    chain, so its parity label is exact; its largest component is made
    positive.  The top eigenvalue is found only where the level-order rule acts.
    """
    if not (n_levels is None or _is_int(n_levels) and n_levels >= 1):
        raise InvalidParameterError(f"n_levels must be an integer >= 1 or None, got {n_levels}")
    L = p.dim if n_levels is None else min(n_levels, p.dim)
    parts = _parts(p)
    chains, span_hi = _coupled(p, parts, p.g)
    solved = next(filter(None, (_certified_head(p, chains, sites, L + 1)
                                for sites in _heads(p.n_tr + 1, max(HEAD_SITES, 2 * L)))), None)
    tops = (_bisect(*chain, p.n_tr, p.n_tr)[0] for chain in chains)
    if solved is None:
        solved = _solve(chains)
        tops = (w[-1] for w, _ in solved)
    rows = solved[0][0].size
    energies = np.concatenate([w for w, _ in solved])
    order = _level_order(energies, L + 1, span_hi, tops)
    kept = order[:L]
    # Each chain's kept vectors go straight to their levels' columns: one
    # column-major array, the layout LAPACK returns, written once.
    states = np.empty((rows, kept.size), order="F")
    for k, (_, v) in enumerate(solved):
        at = np.flatnonzero(kept // rows == k)
        v = v[:, kept[at] - k * rows]
        v *= np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(at.size)])
        states[:, at] = v
    eigs = EigenSystem(np.sort(energies)[:L + 1], states, np.where(order < rows, 1.0, -1.0), p.dim)
    eigs.parts = parts
    return eigs


def lowest_levels(p: ModelParams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest min(k, dim) energies and parity labels of eigensystem(p),
    without vectors.

    Bisection by LAPACK dstebz, called directly (_bisect), gives each chain's
    lowest min(k, n_tr+1) eigenvalues, and its top one only where the
    level-order rule can act (_level_order).  Energies agree with
    eigensystem to ~1e-14 relative; labels follow the same rule.
    """
    if not _is_int(k) or k < 1:
        raise InvalidParameterError(f"need an integer level count k >= 1, got {k}")
    return _lowest(p, _parts(p), p.g, k)


def _lowest(p: ModelParams, parts: list, g: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """lowest_levels at coupling g, on the g = 1 chains parts = _parts(p)."""
    low = min(k, p.n_tr + 1)
    chains, span_hi = _coupled(p, parts, g)
    energies = np.concatenate([_bisect(*chain, 0, low - 1) for chain in chains])
    order = _level_order(energies, k, span_hi,
                         (_bisect(*chain, p.n_tr, p.n_tr)[0] for chain in chains))
    return np.sort(energies)[:k], np.where(order < low, 1.0, -1.0)


def _radius(tol: float) -> float:
    """How far a value _bisect returns at tolerance tol may lie from the
    eigenvalue of its index, in units of the chain's scale.

    _bisect gives dstebz the chain divided by its scale, so the Gershgorin
    interval and every bracket [a, b] lie within +/-2, and the hops are below
    1.  dstebz narrows a bracket until b - a < max(atol, pivmin, 2 ulp
    max(|a|, |b|)): atol is tol, or ulp times the Gershgorin bound at tol 0,
    ulp = 2^-52 and pivmin the safe minimum, so b - a < w = max(tol, 2^-50).
    It returns fl((a + b) / 2), within w/2 + 2^-52 of the eigenvalue in the
    bracket.  In index mode it then drops the values past index hi, and of
    two brackets closer than w at the top of the range it may drop the
    lower: a kept value lies within 2 w + 2^-51 of the eigenvalue of its
    index.  "Eigenvalue" is that of the floating-point Sturm count, monotone
    with LAPACK's pivmin guard: the exact eigenvalue of a chain within 2^-50
    of this one (_count's argument, with no shift; _bracket).
    """
    return 2.0 * max(tol, 2.0**-50) + 2.0**-51


CUT_SITES = 32                 # leading sites per chain the crossing scan first bisects
_SLACK = 2.0**-48              # backward-error budget of the scan's counts, in units of scale
_LOWERED = 2.0**-50            # rounding margin of a prefix's lowered entry, in units of scale
_DOMINANT = 2.0**-49           # rounding margin of the tail's dominance test, in units of scale


@dataclass(frozen=True)
class _Scan:
    """What find_crossings builds once per scan: the g = 1 arrays that each
    coupling slices and scales (_bracket), derived on first use.

    p       the model
    parts   _parts(p), the g = 1 chains
    sites   m', the leading sites of each chain that are bisected; the whole
            chains when m' > n_tr
    copies  the most levels per chain a coupling asks for: the copies of
            both chains the certificate's count stacks
    """

    p: ModelParams
    parts: list
    sites: int
    copies: int

    @property
    def cut(self) -> bool:
        return self.sites <= self.p.n_tr

    @cached_property
    def _scaled(self) -> dict:
        return {}

    def heads(self, scales: list) -> list:
        """The leading m' sites of each chain, diagonal and g = 1 hops,
        divided by its scale in scales, kept per scale: a scan's couplings
        share one or a few."""
        key = tuple(scales)
        if key not in self._scaled:
            self._scaled[key] = [(diag[:self.sites] / s, unit[:self.sites - 1] / s)
                                 for (diag, unit, *_), s in zip(self.parts, scales)]
        return self._scaled[key]

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The count's blocks over the whole chains: row 2c + j holds chain
        j's diagonal and, one column longer, the hop into each site (0 into
        site 0, and past the last one), for copy c."""
        hops = [np.concatenate(([0.0], unit, [0.0])) for _, unit, *_ in self.parts]
        return (np.stack([diag for diag, *_ in self.parts] * self.copies),
                np.stack(hops * self.copies))

    @cached_property
    def tails(self) -> tuple[np.ndarray, np.ndarray]:
        """Both chains' diagonals and hop sums |b_j| + |b_(j+1)| at g = 1 on
        sites m'-1..n_tr, interleaved: entry 2i + j is chain j's site
        m'-1+i.  Site m'-1 lies in every prefix, so its entries are set to
        fail the dominance test (-inf)."""
        start = self.sites - 1
        diag = np.stack([diag[start:] for diag, *_ in self.parts], axis=1)
        diag[0] = -np.inf
        hops = self.blocks[1][:2].T
        return diag.ravel(), (hops[start:-1] + hops[start + 1:]).ravel()


def _bracket(scan: _Scan, g: float, k: int, tol: float):
    """Each chain's lowest low = min(k, n_tr+1) eigenvalues at coupling g,
    bisected to tol on the scan's head, as lists; a radius within which
    every value _lowest returns lies of its own; and the span bound of the
    full chains (_scales).  None where the head does not certify them.

    Notation: T is a full chain at g, of n = n_tr+1 sites, with diagonal a_j
    and hop b_j into site j (b_0 = b_n = 0); T' its head of m' sites; s the
    larger scale (_scales) of the two full chains; mu_k the value _bisect
    returns on T' for index k (0-based); and r = _radius(tol) s.

    Certificate.  Let sigma_k = mu_k - r - slack, slack = _SLACK s.  If a
    count finds k eigenvalues of T at or below sigma_k, then lambda_k(T) >
    sigma_k, up to the count's backward error (Sylvester's law of inertia).
    The count runs on a prefix of T, its leading p >= m' sites T_p, where
    every row j >= p of T is diagonally dominant past the chain's largest
    shift sigma_top: a_j - sigma_top > |b_j| + |b_(j+1)|.  Splitting the hop
    b_p with 2 |b_p x_(p-1) x_p| <= |b_p| (t x_(p-1)^2 + x_p^2 / t), t > 0,
    gives, in the Loewner order, for every sigma <= sigma_top,

        T - sigma >= (T_p - t |b_p| e e^T - sigma) (+) (R - (|b_p| / t) e_0 e_0^T - sigma),

    R the rows past p - 1.  The second term is positive definite by
    Gershgorin while its first row keeps a_p - sigma_top - |b_p| / t >
    |b_(p+1)|, so by Weyl's monotonicity T has at most as many eigenvalues
    at or below sigma as T_p with its last diagonal entry lowered by t |b_p|.
    Row p's dominance admits t = 1.  The least lowering puts all of row p's
    room, room = a_p - sigma_top - |b_(p+1)| > |b_p|, on the tail: t =
    |b_p| / room < 1 lowers the prefix by |b_p|^2 / room, the Schur
    complement's leading term, where t = 1 would turn a slowly rising site
    p - 1 beside a large hop into a spurious level below sigma.  One
    vectorised test of both chains' rows past m' - 1 (_Scan.tails), against
    the larger sigma_top of the two, finds the shortest p for both, so the
    blocks have one length; at p = n the prefix is T, b_n = 0, and no entry
    is lowered.  All sigma_k of both chains are counted at once (_count on
    _Scan.blocks, each copy shifted by its sigma_k).

    Interlacing.  The lowered prefix's leading m' sites are T', lowered at
    its last entry where p = m', so its eigenvalue k is at most
    lambda_k(T') (Cauchy, then Weyl), at most mu_k + r + 2^-50 s (Slack).
    When sigma_k lies above mu_(k-1) + r + slack for every k >= 1 of a chain,
    each count finds at least k, within its backward error, so the sum finds
    low (low - 1) only when each finds exactly k; any other sum, or a LAPACK
    failure, is no certificate.

    Rounding.  |b_j| is the float hop of T, fl(g u_j), u the g = 1 hops,
    and |a_j| + |b_j| + |b_(j+1)| <= s.  The dominance test compares
    fl(a_j - fl(g fl(u_j + u_(j+1)))) with fl(sigma_top + 2^-49 s), at the
    larger sigma_top: the hop sum and T's hops round within 3 2^-53 s of
    each other, the difference within 2^-52 s and the threshold within
    2^-53 s, so a row that passes has a_j - sigma_top - |b_j| - |b_(j+1)| >
    10 2^-53 s > 0 for either chain's sigma_top.  room is
    taken as fl(fl(fl(a_p - sigma_top) - |b_(p+1)|) - 2^-49 s), below the
    exact room by more than its three roundings (2^-50 s), so t = |b_p| /
    room keeps the tail's first row dominant; where it is not above |b_p|,
    t = 1.  The lowered entry is
    fl(fl(a_(p-1) - fl(|b_p| fl(|b_p| / room))) - 2^-50 s), with |b_p| in
    place of the product at t = 1: the lowering rounds within 2^-52 s,
    since t |b_p| <= |b_p| <= s, and each subtraction within
    2^-53 s (1 + 2^-49), so the entry lies below a_(p-1) - t |b_p| and the
    prefix counted lies below the exact lowered prefix in the Loewner order.
    Its Gershgorin interval lies within (1 + 2^-49) s: _count's bound holds.

    Slack.  The counts run on (T_p - sigma_k)/s and the head's bisection on
    T' over T's scale, which bounds T' too, so neither shares the
    floating-point Sturm sequence of _lowest's bisection on T; each is exact
    for a nearby chain instead.  The count's error is below 2^-49 s (_count),
    and the two bisections, which shift nothing and see |d| below their
    scale, err by below 2^-50 s each (the same argument): slack = 2^-48 s
    covers the sum.

    Radius.  So lambda_k(T) lies in (sigma_k - 2^-49 s, mu_k + r + 2^-50 s],
    and _lowest's tolerance-0 value within _radius(0) s + 2^-50 s of it:
    within r + _radius(0) s + 2 slack of mu_k.  The radius returned adds 2
    slack more, for the rounding of the comparisons made with it
    (_scan_levels).  On the whole chains (no head) no count is needed, and
    the same radius holds; at tolerance 0 the values are _lowest's own.
    """
    low = min(k, scan.p.n_tr + 1)
    scales, span_hi = _scales(scan.p, scan.parts, g)
    m = scan.sites
    if m < low:
        return None
    try:
        values = [_bisect_scaled(diag, g * unit, s, 0, low - 1, tol).tolist()
                  for (diag, unit), s in zip(scan.heads(scales), scales)]
    except NumericFailureError:
        return None
    if len(values[0]) < low or len(values[1]) < low:
        return None
    scale = max(scales)
    below = (_radius(tol) + _SLACK) * scale
    if scan.cut:
        sigma = [[x - below for x in mu] for mu in values]
        if any(s <= x + below for mu, shifts in zip(values, sigma)
               for x, s in zip(mu, shifts[1:])):
            return None
        tops = [shifts[-1] for shifts in sigma]
        diag, sums = scan.tails
        failing = np.flatnonzero(diag - g * sums <= max(tops) + _DOMINANT * scale)
        sites = m + int(failing[-1]) // 2
        blocks, hops = scan.blocks
        ends = []
        for j, top in enumerate(tops):
            last, hop = blocks.item(j, sites - 1), g * hops.item(j, sites)
            if hop:
                room = (blocks.item(j, sites) - top - g * hops.item(j, sites + 1)
                        - _DOMINANT * scale)
                last = last - (hop if room <= hop else hop * (hop / room)) - _LOWERED * scale
            ends.append(last)
        shifts = [(s, end) for pair in zip(*sigma) for s, end in zip(pair, ends)]
        prefix = blocks[:2 * low, :sites] - np.array([[s] for s, _ in shifts])
        prefix[:, -1] = [end - s for s, end in shifts]
        off = (g * hops[:2 * low, :sites]).ravel()[1:]
        if _count(prefix.ravel(), off, scale) != low * (low - 1):
            return None
    return values, below + (_radius(0.0) + 3.0 * _SLACK) * scale, span_hi


def _scan_levels(scan: _Scan, g: float, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """In place of _lowest(p, parts, g, k) in the scan: the head's values
    bisected to tol, sorted, with their labels, where _bracket certifies
    them, every even/odd pair lies farther apart than twice the radius and
    the level-order shift at span_hi, and every adjacent gap lies farther
    than twice the radius from the closure threshold.  _lowest's values lie
    within the radius of these, so they are in this energy order with no
    even/odd pair within the shift, and _lowest returns that plain order
    with no chain top bisected; and each gap compares with the threshold as
    _lowest's does (an order statistic of values each within a radius moves
    by at most that radius).  Elsewhere (near a crossing or a degeneracy, or
    where a count or dstebz fails; _lowest raises its own errors), _lowest's.
    The tests run on Python floats, in the arithmetic of numpy's.
    """
    found = _bracket(scan, g, k, tol)
    if found is not None:
        (even, odd), radius, span_hi = found
        shift = DEGENERACY_FRACTION * max(span_hi, 1.0)
        if min(abs(a - b) for a in even for b in odd) > 2.0 * radius + shift * (1.0 + 2.0**-48):
            values = even + odd
            order = sorted(range(len(values)), key=values.__getitem__)[:k]
            e, closure = [values[i] for i in order], GAP_CLOSURE_FRACTION * scan.p.omega0
            if all(abs(b - a - closure) > 2.0 * radius for a, b in zip(e, e[1:])):
                return np.array(e), np.array([1.0 if i < len(even) else -1.0 for i in order])
    return _lowest(scan.p, scan.parts, g, k)


def field_diagonals(eigs: EigenSystem) -> tuple[np.ndarray, np.ndarray]:
    """<k|a^dag a|k> and <k|a^2|k> over the eigs.n_levels levels eigs holds.

    Both keep the chain: a^dag a is n on it and a^2 the shift by two with
    weight sqrt(n(n-1)).  <k|a|k> vanishes by parity.
    """
    c = eigs.states
    n = np.arange(float(c.shape[0]))
    pair = np.sqrt(n[2:] * (n[2:] - 1.0))
    return n @ c**2, pair @ (c[:-2] * c[2:])


def edge_residuals(p: ModelParams, eigs: EigenSystem) -> np.ndarray:
    """|h v_k[m'-1]| for the eigs.n_levels levels of eigs = eigensystem(p, L),
    m' the rows of its states (n_tr+1, or a certified head).

    Extending a chain past site m'-1 adds a hop of at most h = _edge_hop(p,
    m'), and (E_k, [v_k; 0]) keeps one nonzero residual entry, below h
    |v_k[m'-1]|, in any longer chain, which thus has an eigenvalue within
    that residual of E_k (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    """
    return _edge_hop(p, eigs.states.shape[0]) * np.abs(eigs.states[-1])


def keeps_lowest_levels(p: ModelParams, eigs: EigenSystem, extra: int) -> bool:
    """Whether the chains of p grown by extra sites hold exactly L =
    eigs.n_levels eigenvalues at or below sigma, the midpoint of the gap above
    level L-1 (_count).  The residual bound cannot rule out new levels (at g=0
    the sites past n_tr are levels of their own).  The grown count is not read
    from the pivots past n_tr: sigma must split the levels as eigensystem did.

    The grown chains are eigs.parts (or _parts(p)) with the extra sites
    appended.  An extra that is not an integer raises InvalidParameterError.

    Not cleared: extra < 1, no level above L-1, an overflowing grown chain
    (_coupled), a gap below the closure threshold or below GAP_ROUNDING S
    (256 ulps of the grown chains' larger scale S: at large g a gap of pure
    rounding passes the absolute threshold, and sigma could split a
    degenerate pair differently from eigensystem), a LAPACK failure.

    Error.  One count of both grown chains at S (_count on _stack) is exact
    within 2^-49 S, and sigma lies at least 2^-45 S from eigensystem's levels
    L-1 and L.  S bounds max|E| (Gershgorin, and interlacing with the
    shorter chains), so the floor is never below 2^-44 max|E|.
    """
    if not _is_int(extra):
        raise InvalidParameterError(f"extra must be an integer number of sites, got {extra!r}")
    e, L = eigs.energies, eigs.n_levels
    if extra < 1 or L >= p.dim or e[L] - e[L - 1] < GAP_CLOSURE_FRACTION * p.omega0:
        return False
    grown = p.with_n_tr(p.n_tr + extra)
    # Past an overflow every site overflows: max(), tail first, keeps either non-finite.
    parts = [(np.concatenate((diag, tail)), np.concatenate((unit, hops)),
              max(tail_dmax, dmax), max(hops_max, umax))
             for (diag, unit, dmax, umax), (tail, hops, tail_dmax, hops_max)
             in zip(eigs.parts or _parts(p), _parts(grown, p.n_tr + 1))]
    try:
        chains, _ = _coupled(grown, parts, p.g)
    except InvalidParameterError:
        return False
    scale = max(chains[0][2], chains[1][2])
    if e[L] - e[L - 1] < GAP_ROUNDING * scale:
        return False
    diag, off = _stack(chains)
    return _count(diag - 0.5 * (e[L - 1] + e[L]), off, scale) == L


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

    gc_analytic  closed-form ground crossing, or None
    crossings    ((n, n+1), value, half_width) of each accepted crossing,
                 ascending in value; crossings at one value keep the order
                 of the tracked pairs
    """

    gc_analytic: Optional[float]
    crossings: list

    @property
    def gc_numeric(self) -> Optional[tuple[float, float]]:
        """The first ground crossing (value, half_width), or None."""
        return next(((g, half) for pair, g, half in self.crossings if pair == (0, 1)), None)

    def all_crossings(self) -> list:
        return self.crossings


def _check_window(p: ModelParams, g_max: float) -> None:
    """Reject a coupling window of p whose chains overflow at its top g_max
    (_coupled) as an InvalidParameterError.  The chains' Gershgorin bound
    grows with g, so the top decides for every coupling below it."""
    _coupled(p, _parts(p), g_max)


def _check_scan(g_min: float, g_max: float, steps: int, levels: Sequence) -> None:
    """The scan rules of find_crossings and config.ScanConfig: finite bounds
    with 0 <= g_min < g_max, an integer step count >= 8, and a list or tuple
    of one or more distinct adjacent integer pairs, tuples (k, k+1), k >= 0."""
    if not (_is_finite(g_min) and _is_finite(g_max) and 0 <= g_min < g_max):
        raise InvalidParameterError(f"need finite 0 <= g_min < g_max, got [{g_min}, {g_max}]")
    if not _is_int(steps) or steps < 8:
        raise InvalidParameterError(f"need an integer step count >= 8, got {steps}")
    # Each pair's shape is checked before the pairs are hashed.
    if (not isinstance(levels, (list, tuple)) or not levels
            or not all(isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_int, pair))
                       and 0 <= pair[0] == pair[1] - 1 for pair in levels)
            or len(set(levels)) != len(levels)):
        raise InvalidParameterError(
            f"tracked pairs must be one or more distinct level pairs (k, k+1), k >= 0, "
            f"got {levels}")


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
    pair below it.  Accepted crossings go into one list, sorted by value.

    Each coupling is solved once per call (a ground crossing swaps level 1
    too, so the (1, 2) bisection meets the (0, 1) one's couplings again),
    for only the levels read there, by one hook, _scan_levels(scan, g, k,
    tol): a grid coupling for the labels up to the highest lower level of
    the pairs; in an interval where the pairs S swap, a bisection midpoint
    for the labels up to max(n) over S, and a bracket centre for one level
    more, the gap E_{n+1} - E_n.  A coupling held with fewer levels than
    asked is solved again.

    Each coupling bisects the lowest levels on the leading m' sites of each
    chain, grid couplings to GRID_TOL (2^-24 of the chain's power-of-two
    scale) and the refinement to tolerance 0, and one Sturm count
    certifies that every value lies within a radius of the full chains'.
    It counts each chain on its shortest prefix whose remaining rows are
    diagonally dominant, the prefix's last entry lowered for the hop it
    drops (_bracket), from the g = 1 arrays of the scan (_Scan).  m' starts
    at CUT_SITES and doubles at g_max until the certificate passes there
    (_heads, eigensystem's rule); once m' would pass half of n_tr + 1, and
    at r = 0, the scan bisects the whole chains as _lowest does, with no
    count.  Where their radii settle them,
    labels and gap decisions come from those values and equal those of the
    full chains' tolerance-0 solve; elsewhere (near a crossing or a
    degeneracy, where the certificate fails, or where dstebz fails) they
    come from that solve (_scan_levels, _lowest).  Grid labels are not kept
    for the refinement.  A window whose chains overflow at g_max is rejected
    before any solve.
    """
    _check_scan(g_min, g_max, steps, levels)
    max_level = max(hi for _, hi in levels)
    if max_level >= p.dim:
        raise InvalidParameterError(
            f"tracked level {max_level} is beyond the {p.dim} levels at n_tr={p.n_tr}")
    closure = GAP_CLOSURE_FRACTION * p.omega0
    grid = np.linspace(g_min, g_max, steps)
    parts = _parts(p)
    _coupled(p, parts, g_max)    # the chains' bound grows with g: reject before any solve
    # The shortest head of CUT_SITES * 2^j sites whose levels are certified
    # at g_max (occupation grows with g); each coupling is certified on its
    # own, so the head decides only the cost.  It pays only where it is at
    # most half the chains (_heads), and not at r = 0, where the chains fall
    # apart into 2 x 2 blocks that dstebz bisects whole at little cost.
    sites = CUT_SITES if p.r > 0 else p.n_tr + 1
    scan = _Scan(p, parts, sites, min(max_level + 1, p.n_tr + 1))
    scan = next((cut for cut in (replace(scan, sites=m) for m in _heads(p.n_tr + 1, sites))
                 if _bracket(cut, g_max, max_level + 1, GRID_TOL) is not None),
                replace(scan, sites=p.n_tr + 1))
    solved: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def solve(g: float, k: int):
        if g not in solved or solved[g][0].size < k:
            solved[g] = _scan_levels(scan, float(g), k, 0.0)
        return solved[g]

    labels = [_scan_levels(scan, g, max_level, GRID_TOL)[1] for g in grid.tolist()]
    crossings = []
    for i in range(len(grid) - 1):
        swapped = [pair for pair in levels if labels[i + 1][pair[0]] != labels[i][pair[0]]]
        k = max((n + 1 for n, _ in swapped), default=0)
        for pair in swapped:
            n = pair[0]
            ref = labels[i][n]
            lo, hi = float(grid[i]), float(grid[i + 1])
            for _ in range(BISECTION_DEPTH):
                mid = 0.5 * (lo + hi)
                if solve(mid, k)[1][n] == ref:
                    lo = mid
                else:
                    hi = mid
            center = 0.5 * (lo + hi)
            energies = solve(center, k + 1)[0]
            if energies[n + 1] - energies[n] < closure:
                crossings.append((pair, center, 0.5 * (hi - lo)))
    crossings.sort(key=lambda item: item[1])
    return CriticalPoints(gc_analytic=gc_analytic(p), crossings=crossings)
