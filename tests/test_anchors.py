"""Exact anchors that do not depend on LAPACK: the model's closed-form limits.

At r = 0 the counter-rotating hops vanish, and each parity chain falls
apart into 2 x 2 blocks {|n, e>, |n+1, g>}, n = 0..n_tr-1, with the 1 x 1
blocks |0, g> and |n_tr, e> at its ends (Braak, PRL 107, 100401 (2011)):
every level is a root of a quadratic.  At g = 0 the chains are diagonal.
The closed forms here are written from the Hamiltonian, not from the
chains the package builds, so a wrong chain (a Stark term of the wrong
sign, the factor r on the rotating hop) moves the solvers off them.

Bound.  Each solver's value lies within 2^-44 max|E| of the exact level,
max|E| the largest |level| of the model (the chains' 2-norm):
- dstevd (eigensystem) is backward stable, within a small multiple of
  eps max|E|; a certified head adds at most sqrt(L+1) HEAD_RESIDUAL s, and
  the scale s, a power of two at or above the Gershgorin bound max|d| +
  2 max|e| <= 3 max|E|, is below 6 max|E|: 6 sqrt(41) 2^-52 < 2^-46;
- dstebz at tolerance 0 (lowest_levels) returns a value within
  spectrum._radius(0) s = 2.5 2^-50 s < 2^-45 max|E| of the eigenvalue of a
  chain within 2^-50 s of this one (spectrum._radius);
- each closed form rounds a few times on terms below max|E|, within
  2^-50 max|E|.
Measured, both solvers stay within 2^-51 max|E| on 400 such draws.
"""

import numpy as np
from scipy.optimize import brentq

import rabistark as rs
from rabistark.spectrum import DEGENERACY_FRACTION

BOUND = 2.0**-44    # in units of max|E| (module docstring)


def block_levels(p, g):
    """The closed-form levels of p at r = 0 at each coupling of g, with their
    labels: (energies (len(g), dim), labels (dim,)), unsorted, one column per
    root of a 2 x 2 block and per end site."""
    g = np.asarray(g, dtype=float).reshape(-1, 1)
    n = np.arange(p.n_tr)
    excited = 0.5 * p.delta + (p.omega0 + p.u) * n                 # |n, e>
    ground = (p.omega0 - p.u) * (n + 1) - 0.5 * p.delta            # |n+1, g>
    mean, half = 0.5 * (excited + ground), 0.5 * (excited - ground)
    root = np.sqrt(half**2 + g**2 * (n + 1))
    ends = [-0.5 * p.delta, 0.5 * p.delta + (p.omega0 + p.u) * p.n_tr]   # |0, g>, |n_tr, e>
    energies = np.hstack([mean - root, mean + root, np.broadcast_to(ends, (g.shape[0], 2))])
    label = (-1.0) ** (n + 1)     # n + 1 excitations
    return energies, np.concatenate([label, label, [1.0, (-1.0) ** (p.n_tr + 1)]])


def diagonal_levels(p):
    """The levels of p at g = 0, any r: the sites |n, g> and |n, e>, with labels."""
    n = np.arange(p.n_tr + 1)
    energies = np.concatenate([(p.omega0 - p.u) * n - 0.5 * p.delta,
                               (p.omega0 + p.u) * n + 0.5 * p.delta])
    return energies, np.concatenate([(-1.0) ** n, (-1.0) ** (n + 1)])


def assert_levels(energies, labels, exact, exact_labels):
    """energies (ascending) within BOUND max|E| of the lowest exact levels,
    and each label equal to the exact one where that level lies farther from
    its neighbours than twice the bound and the level-order shift."""
    order = np.argsort(exact, kind="stable")
    exact, exact_labels = exact[order], exact_labels[order]
    top = float(np.max(np.abs(exact)))
    tol = BOUND * top
    k = energies.size
    assert np.all(np.abs(energies - exact[:k]) <= tol)
    apart = np.diff(exact) > 2.0 * tol + DEGENERACY_FRACTION * max(2.0 * top, 1.0)
    isolated = np.concatenate([[True], apart]) & np.concatenate([apart, [True]])
    assert np.array_equal(labels[isolated[:k]], exact_labels[:k][isolated[:k]])


def draw_model(rng, n_tr, **fixed):
    kw = dict(delta=float(rng.uniform(0.1, 3.0)), g=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
              r=float(rng.uniform(0.0, 2.0)), u=float(rng.uniform(-0.95, 0.95)), n_tr=n_tr)
    kw.update(fixed)
    return rs.ModelParams(**kw)


def test_r0_levels_are_the_block_roots():
    # The whole spectrum at n_tr up to 120, and the lowest L + 1 levels of
    # longer chains, where eigensystem solves a certified head; lowest_levels
    # bisects the same levels.
    rng = np.random.default_rng(12)
    for i in range(160):
        n_tr = int(rng.integers(2, 121)) if i % 4 else int(rng.integers(130, 400))
        p = draw_model(rng, n_tr, r=0.0)
        exact, labels = block_levels(p, [p.g])
        L = None if n_tr <= 120 else int(rng.integers(1, 41))
        eigs = rs.eigensystem(p, L)
        assert_levels(eigs.energies, eigs.parities, exact[0], labels)
        assert_levels(*rs.spectrum.lowest_levels(p, int(rng.integers(1, 41))), exact[0], labels)


def test_g0_levels_are_the_sites():
    rng = np.random.default_rng(13)
    for i in range(80):
        p = draw_model(rng, int(rng.integers(2, 200)), g=0.0)
        exact, labels = diagonal_levels(p)
        eigs = rs.eigensystem(p)
        assert_levels(eigs.energies, eigs.parities, exact, labels)
        assert_levels(*rs.spectrum.lowest_levels(p, int(rng.integers(1, 41))), exact, labels)


def exact_crossings(p, grid, sub=32):
    """(n, g) of each crossing of the closed-form levels n and n+1, n <= 2,
    of opposite labels on grid's window at r = 0, g found by brentq on the
    difference of the two block roots.  Crossings are sought between the
    roots that are among the lowest four levels somewhere on a grid sub
    times finer than grid."""
    fine = np.linspace(grid[0], grid[-1], (len(grid) - 1) * sub + 1)
    energies, labels = block_levels(p, fine)
    low = np.unique(np.argsort(energies, axis=1, kind="stable")[:, :4])
    found = []
    for a in low:
        for b in low[(low > a) & (labels[low] != labels[a])]:
            diff = energies[:, a] - energies[:, b]
            for s in np.flatnonzero(diff[:-1] * diff[1:] < 0.0):
                g = brentq(lambda x: np.subtract(*block_levels(p, [x])[0][0, [a, b]]),
                           fine[s], fine[s + 1], xtol=1e-14)
                at = block_levels(p, [g])[0][0]
                n = int(np.sum(at < min(at[a], at[b])))
                if n <= 2:
                    found.append((n, g))
    return found


def test_r0_crossings_are_found():
    # find_crossings reports every exact crossing of (n, n+1) that is the
    # only swap of level n's label in its grid interval, and every crossing
    # it reports is an exact one of its pair in its interval.  Crossings
    # within 1e-4 of a step of a grid coupling are left out either way: the
    # level-order rule labels a near-tie odd first, which can move a swap
    # across that coupling.
    rng = np.random.default_rng(11)
    required = 0
    for _ in range(120):
        p = draw_model(rng, int(rng.integers(4, 121)), r=0.0, g=0.0)
        g_max = float(rng.uniform(0.5, 3.0))
        grid = np.linspace(0.05, g_max, 81)
        margin = 1e-4 * (grid[1] - grid[0])
        exact = exact_crossings(p, grid)
        reported = rs.find_crossings(p, 0.05, g_max, 81).crossings

        def interval(g):
            return min(int(np.searchsorted(grid, g)) - 1, len(grid) - 2)

        for n, g in exact:
            i = interval(g)
            swaps = [x for m, x in exact if m in (n - 1, n)
                     and grid[i] - margin <= x <= grid[i + 1] + margin]
            if swaps == [g] and min(g - grid[i], grid[i + 1] - g) > margin:
                required += 1
                assert any(pair == (n, n + 1) and interval(c) == i for pair, c, _ in reported)
        for (n, _), c, _ in reported:
            i = interval(c)
            assert any(m == n and grid[i] - margin <= g <= grid[i + 1] + margin for m, g in exact)
    assert required > 250
