"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

import rabistark as rs
from rabistark.cli import main
from rabistark.sweep import AxisSpec, SweepSpec, run_sweep

from conftest import (
    build_eigs, evolve_density, gibbs_state, observables_pipeline, sign_transitions,
    steady_pipeline,
)

BATH = rs.BathParams()  # alpha_q = alpha_c = 1e-3, omega_c = 10, kT = 0.07
KT = 0.07
GC_ANCHOR = 0.9065966869  # refined ground crossing at (delta=1, r=0.2, u=0.2)
GC_STIFF = 1.5491904  # ground crossing at (delta=1, r=1.0, u=0.2), n_tr=200, to 1e-5

REPORT_FIELDS = ("g2", "g3", "g2_approx", "g3_approx", "xi_b2",
                 "n_photon", "flux_proxy", "eta1", "eta2", "eta3")


def report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def full_point(g, r, u, n_tr=120, kt=KT, n_levels=40):
    model = rs.ModelParams(delta=1.0, g=float(g), r=float(r), u=float(u), n_tr=n_tr)
    bath = rs.BathParams(kt_q=kt, kt_c=kt)
    return observables_pipeline(model, bath, n_levels=n_levels)


def exact_g2(g, r, u, n_tr=120):
    eigs, table, ss, x = full_point(g, r, u, n_tr=n_tr)
    return rs.correlation_g_n(x, ss, 2)


def test_criterion_1_gibbs_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        model = rs.ModelParams(
            delta=1.0,
            g=float(rng.uniform(0.0, 1.5)),
            r=float(rng.uniform(0.0, 2.0)),
            u=float(rng.uniform(-0.8, 0.8)),
            n_tr=60,
        )
        eigs, table, ss = steady_pipeline(model, BATH, n_levels=40)
        gibbs = gibbs_state(eigs, KT, n_levels=40)
        worst = max(worst, float(np.max(np.abs(ss.populations - gibbs.populations))))
    report("C1 Gibbs equivalence", worst < 1e-8,
           f"max |P_n - exp(-E_n/kT)/Z| = {worst:.3e} over 20 random sets (< 1e-8)")


def test_criterion_2_critical_points_anchor():
    model = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=0.2, n_tr=120)
    start = time.perf_counter()
    cp = rs.find_crossings(model, 0.05, 2.0, steps=128,
                           levels=((0, 1), (1, 2), (2, 3)))
    elapsed = time.perf_counter() - start

    ok_analytic = cp.gc_analytic is not None and abs(cp.gc_analytic - 0.9066) < 0.0005
    crossings = [value for _, value, _ in cp.crossings]
    windows = ((0.91, 0.01), (0.38, 0.02), (1.59, 0.02))
    hits = [any(abs(c - center) < tol for c in crossings) for center, tol in windows]
    ok = ok_analytic and all(hits) and elapsed < 60.0
    report("C2 critical-point reproduction", ok,
           f"gc_analytic={cp.gc_analytic:.4f} (0.9066+-0.0005), detections="
           f"{[f'{c:.4f}' for c in crossings]} vs windows 0.91/0.38/1.59, "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_3_gc_formula_vs_numeric():
    worst = 0.0
    checked = 0
    for r in np.linspace(0.1, 0.9, 5):
        for u in np.linspace(0.05, 0.6, 5):
            model = rs.ModelParams(delta=1.0, g=0.5, r=float(r), u=float(u), n_tr=100)
            expected = rs.gc_analytic(model)
            if expected is None or not 0.2 <= expected <= 2.0:
                continue
            checked += 1
            lo = max(0.01, expected - 0.3)
            cp = rs.find_crossings(model, lo, expected + 0.3, steps=16,
                                   levels=((0, 1),))
            values = [v for (pair, v, _) in cp.crossings if pair == (0, 1)]
            assert values, f"no ground crossing found near gc={expected:.3f} at r={r}, u={u}"
            worst = max(worst, min(abs(v - expected) for v in values))
    report("C3 analytic vs numeric critical coupling", worst < 0.01 and checked == 25,
           f"max |gc_numeric - gc_analytic| = {worst:.2e} over {checked} grid points (< 0.01)")


def test_criterion_4_parity_selection():
    rng = np.random.default_rng(404)
    worst_elem = 0.0
    worst_weight = 0.0
    for _ in range(100):
        model = rs.ModelParams(
            delta=1.0,
            g=float(rng.uniform(0.0, 1.5)),
            r=float(rng.uniform(0.0, 2.0)),
            u=float(rng.uniform(-0.8, 0.8)),
            n_tr=60,
        )
        eigs = build_eigs(model, 16)
        table = rs.transition_rates(eigs, model, [BATH])
        same = np.equal.outer(eigs.parities[:16], eigs.parities[:16])
        off = ~np.eye(16, dtype=bool)
        mask = same & off
        m_q, m_c = eigs.parity_odd_elements
        worst_elem = max(worst_elem,
                         float(np.max(np.abs(m_q[mask]))),
                         float(np.max(np.abs(m_c[mask]))))
        worst_weight = max(worst_weight, float(np.max(table.rate[0][mask])))
    ok = worst_elem < 1e-10 and worst_weight < 1e-20
    report("C4 parity selection rules", ok,
           f"max equal-parity |X_jk| = {worst_elem:.2e} (< 1e-10), "
           f"max equal-parity weight = {worst_weight:.2e} over 100 random sets")


def test_criterion_5_thermal_statistics_limit():
    eigs, table, ss, x = full_point(1e-6, 0.2, 0.0, n_tr=60)
    g2 = rs.correlation_g_n(x, ss, 2)
    g3 = rs.correlation_g_n(x, ss, 3)
    _, n_photon, _ = rs.field_moments(ss, eigs)
    xi = rs.squeezing_factor(ss, eigs)
    n_th = 1.0 / (math.exp(1.0 / KT) - 1.0)
    ok = (abs(g2 - 2.0) < 1e-3 and abs(g3 - 6.0) < 1e-2
          and abs(xi - (1.0 + 2.0 * n_th)) < 1e-8
          and abs(n_photon - n_th) / n_th < 0.05)
    report("C5 thermal statistics limit", ok,
           f"G2={g2:.6f} (2+-1e-3), G3={g3:.6f} (6+-1e-2), "
           f"xi_B2-1-2n_th={xi - 1 - 2 * n_th:.2e} (+-1e-8), "
           f"n={n_photon:.3e} vs n_th={n_th:.3e} (5%)")


def test_criterion_6_zero_temperature_limits():
    model = rs.ModelParams(delta=1.0, g=0.8, r=0.5, u=0.2, n_tr=60)
    cold = rs.BathParams(kt_q=0.0, kt_c=0.0)
    eigs, table, ss, x = observables_pipeline(model, cold, n_levels=20)
    ground_ok = ss.populations[0] == 1.0 and np.all(ss.populations[1:] == 0.0)
    raised = False
    try:
        rs.correlation_g_n(x, ss, 2)
    except rs.ZeroFluxError:
        raised = True
    report("C6 zero-temperature limits", ground_ok and raised,
           f"P0={ss.populations[0]} (=1), correlation raises zero-flux: {raised}")


def test_criterion_7_squeezing_consistency():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        model = rs.ModelParams(
            delta=1.0,
            g=float(rng.uniform(0.0, 1.5)),
            r=float(rng.uniform(0.0, 2.0)),
            u=float(rng.uniform(-0.8, 0.8)),
            n_tr=50,
        )
        kt = float(rng.uniform(0.02, 0.2))
        bath = rs.BathParams(kt_q=kt, kt_c=kt)
        eigs, table, ss, x = observables_pipeline(model, bath, n_levels=24)
        moments = rs.field_moments(ss, eigs)
        a_mean, n_photon, a_sq = moments
        xi = rs.squeezing_factor(ss, eigs, moments=moments)
        thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        grid = (1.0 + 2.0 * (n_photon - abs(a_mean) ** 2)
                + 2.0 * ((a_sq - a_mean**2) * np.exp(-2j * thetas)).real)
        worst = max(worst, abs(float(grid.min()) - xi))

    gs = np.linspace(0.1, 1.5, 29)
    xis = []
    for g in gs:
        eigs, table, ss, x = full_point(g, 0.5, 0.0, n_tr=100)
        xi = rs.squeezing_factor(ss, eigs)
        xis.append(xi)
    argmin_g = float(gs[int(np.argmin(xis))])
    ok = worst < 1e-9 and 0.7 <= argmin_g <= 0.9
    report("C7 squeezing consistency", ok,
           f"max |grid - analytic| = {worst:.2e} over 50 points (< 1e-9); "
           f"argmin_g xi_B2 = {argmin_g:.3f} (within [0.7, 0.9], min xi = {min(xis):.4f})")


def _g_sweep(u, n_tr):
    model = rs.ModelParams(delta=1.0, g=0.5, r=0.2, u=u, n_tr=n_tr)
    spec = SweepSpec(model=model, bath=BATH,
                     axis1=AxisSpec("g", 0.05, 2.0, 81),
                     n_levels=40, check_convergence=False)
    return run_sweep(spec, workers=1)


def test_criterion_8a_sign_structure_positive_stark():
    count, _ = sign_transitions(_g_sweep(0.2, 120), "g2", 1.0)
    report("C8a sign structure at U=+0.2", count >= 3,
           f"G2-1 sign changes along g in [0.05, 2.0] (81 pts) = {count} (>= 3)")


def test_criterion_8b_sign_structure_negative_stark():
    # At U=-0.8 and kT=0.07 the model has one antibunching window that closes
    # before the first-order transition: G2 changes sign at g=1.1469 and
    # 1.4638, bottoms out at 0.519 near g=1.29, and stays bunched from 1.46
    # to 2.0, through g_c(-0.8)=1.677 and the peak of 7.87 at g=1.78.  Both
    # locations are unchanged at n_tr 140/200/260, at 40/60 levels and on
    # 81/161-point grids, and the few-level approximant g2_approx changes
    # sign one grid step away from each (1.1713, 1.4394), so the window is
    # the model's, not a truncation artefact.  The count depends on
    # temperature (0 at kT=0.10, 2 at 0.05 and 0.07, 4 at 0.03), which is
    # why it is pinned at this kT rather than bounded for U=-0.8 alone.
    # Change locations are grid values, hence the half-step margin.
    result = _g_sweep(-0.8, 140)
    count, exact_at = sign_transitions(result, "g2", 1.0)
    approx_count, approx_at = sign_transitions(result, "g2_approx", 1.0)
    gc = rs.gc_analytic(result.spec.model)
    step = float(result.axis1_values[1] - result.axis1_values[0])
    below_gc = all(g < gc for g in exact_at)
    paired = approx_count == count and all(
        abs(a - e) <= 1.5 * step for a, e in zip(approx_at, exact_at))
    ok = count == 2 and below_gc and paired
    report("C8b sign structure at U=-0.8", ok,
           f"G2-1 sign changes along g in [0.05, 2.0] (81 pts) = {count} (== 2) "
           f"at g = {[f'{g:.4f}' for g in exact_at]} (< g_c = {gc:.4f}); "
           f"g2_approx changes = {approx_count} at "
           f"{[f'{g:.4f}' for g in approx_at]} (each within one grid step, "
           f"{step:.4f})")


def _classification_grid():
    agree = 0
    total = 0
    for g in np.linspace(0.1, 2.0, 15):
        for u in np.linspace(-0.8, 0.8, 15):
            eigs, table, ss, x = full_point(g, 0.2, u, n_tr=120)
            g2 = rs.correlation_g_n(x, ss, 2)
            g2a, _, _ = rs.approx_g2(eigs, x, ss)
            if math.isfinite(g2a):
                total += 1
                agree += int((g2 > 1.0) == (g2a > 1.0))
    return agree, total


def _divergence_window(r, u, centre, n_tr=120):
    exact2, exact3, approx2, approx3 = [], [], [], []
    for g in (centre - 0.004, centre - 0.002, centre,
              centre + 0.002, centre + 0.004):
        eigs, table, ss, x = full_point(g, r, u, n_tr=n_tr)
        exact2.append(rs.correlation_g_n(x, ss, 2))
        exact3.append(rs.correlation_g_n(x, ss, 3))
        approx2.append(rs.approx_g2(eigs, x, ss)[0])
        approx3.append(rs.approx_g3(eigs, x, KT)[0])
    return max(exact2), max(exact3), max(approx2), max(approx3)


def _emission_shares(g, r, u, n_tr=120):
    """Shares of <X^- X^+> emitted from level 1 (its only term, 1->0) and level 2."""
    eigs, table, ss, x = full_point(g, r, u, n_tr=n_tr)
    L = min(x.n_levels, ss.n_levels)
    per_level = ss.populations[:L] * np.sum(np.abs(x.xplus[:L, :L]) ** 2, axis=0)
    flux = rs.flux_proxy(x, ss)
    return per_level[1] / flux, per_level[2] / flux


def test_criterion_9a_approximant_classification():
    agree, total = _classification_grid()
    fraction = agree / total
    report("C9a approximant classification", fraction >= 0.90,
           f"bunched/antibunched agreement {agree}/{total} = {fraction:.3f} (>= 0.90)")


def test_criterion_9b_approximants_diverge_at_gc():
    _, _, a2, a3 = _divergence_window(0.2, 0.2, GC_ANCHOR)
    ok = a2 > 1e3 and a3 > 1e3
    report("C9b approximate divergence near g_c", ok,
           f"max approx G2 = {a2:.3g}, max approx G3 = {a3:.3g} within "
           f"|g - g_c| < 0.005 (> 1e3)")


def test_criterion_9c_exact_divergence_at_gc():
    # The gap-weighted X^+ (Ridolfo et al., PRL 109, 193602 (2012)) makes the
    # 1->0 part of <X^- X^+> scale as (E1-E0)^2, so it vanishes at a ground
    # crossing; level 2 still emits, which leaves the denominator a floor of
    # P2*sum_j|(E2-Ej) x_j2|^2, while the numerator's leading surviving term
    # comes from level 3.  The exact ratios therefore tend to a finite
    # plateau growing like exp((2E2-E3)/kT), energies from the ground level.
    # At (r=0.2, u=0.2) 2E2-E3 = -0.026 and the plateau is 2.84 (3.17 at
    # kT=0.10, 2.46 at 0.05, 0.95 at 0.02; identical at n_tr 120/200 and
    # 40/80 levels), so no temperature lifts it past 1e3 there; that anchor
    # is checked for the mechanism instead: the 1->0 share of the flux
    # vanishes and level 2 carries it.  The divergence itself is checked
    # where 2E2-E3 = +0.92, the (r=1.0, u=0.2) crossing (plateaus: 10 at
    # (0.2, -0.4) with +0.10, 36 at (0.5, 0.2) with +0.20).
    e2, e3, _, _ = _divergence_window(1.0, 0.2, GC_STIFF)
    share_10, share_2 = _emission_shares(GC_ANCHOR, 0.2, 0.2)
    f2, f3, _, _ = _divergence_window(0.2, 0.2, GC_ANCHOR)
    diverges = e2 > 1e3 and e3 > 1e3
    floor = share_10 < 1e-6 and share_2 > 0.99 and math.isfinite(f2) and math.isfinite(f3)
    report("C9c exact divergence near g_c", diverges and floor,
           f"at (r=1.0, u=0.2): max exact G2 = {e2:.3g}, max exact G3 = {e3:.3g} "
           f"within |g - g_c| < 0.005 (> 1e3); at (r=0.2, u=0.2) g_c: 1->0 flux "
           f"share = {share_10:.2e} (< 1e-6), level-2 share = {share_2:.4f} "
           f"(> 0.99), max exact G2 = {f2:.3g}, G3 = {f3:.3g} (finite)")


def test_criterion_10_dynamics_consistency():
    model = rs.ModelParams(delta=1.0, g=0.6, r=0.5, u=0.2, n_tr=60)
    bath = rs.BathParams(alpha_q=0.05, alpha_c=0.05, kt_q=KT, kt_c=KT)
    eigs, table, ss = steady_pipeline(model, bath, n_levels=12)
    L = table.n_levels
    max_rate = table.flow_matrix()[0].sum(axis=0).max()
    dt = 0.09 / max_rate

    rng = np.random.default_rng(1010)
    worst_dist = 0.0
    worst_trace = 0.0
    for _ in range(10):
        weights = rng.random(L)
        rho = np.diag(weights / weights.sum()).astype(complex)
        for _ in range(80):
            rho = evolve_density(rho, eigs, table, dt=dt, steps=400,
                                 record_every=400)[-1]
            if np.max(np.abs(np.diag(rho).real - ss.populations)) < 1e-7:
                break
        worst_dist = max(worst_dist,
                         float(np.max(np.abs(np.diag(rho).real - ss.populations))))
        worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))

    rho_ss = np.diag(ss.populations).astype(complex)
    traj = evolve_density(rho_ss, eigs, table, dt=dt, steps=10_000,
                          record_every=1000)
    drift = max(float(np.max(np.abs(state - rho_ss))) for state in traj)
    trace_err = max(abs(float(np.trace(state).real) - 1.0) for state in traj)
    ok = worst_dist < 1e-6 and drift < 1e-9 and worst_trace < 1e-9 and trace_err < 1e-9
    report("C10 dynamics consistency", ok,
           f"max distance to steady state = {worst_dist:.2e} (< 1e-6) over 10 "
           f"random starts; drift from steady state over 1e4 steps = {drift:.2e} "
           f"(< 1e-9); trace error = {max(worst_trace, trace_err):.2e} (< 1e-9)")


def test_criterion_11_engineering_determinism(tmp_path):
    spec = SweepSpec(
        model=rs.ModelParams(delta=1.0, g=0.5, r=0.3, u=0.1, n_tr=60),
        bath=BATH,
        axis1=AxisSpec("g", 0.2, 1.2, 4),
        axis2=AxisSpec("r", 0.2, 1.6, 3),
        n_levels=20,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=8)
    identical = True
    for a, b in zip(serial.points, parallel.points):
        if (a.error_code, a.converged, a.near_degenerate) != \
           (b.error_code, b.converged, b.near_degenerate):
            identical = False
            break
        if (a.report is None) != (b.report is None):
            identical = False
            break
        if a.report is not None:
            for name in REPORT_FIELDS:
                va, vb = getattr(a.report, name), getattr(b.report, name)
                if not (va == vb or (np.isnan(va) and np.isnan(vb))):
                    identical = False

    config = tmp_path / "config.json"
    config.write_text("""{
  "model": {"delta": 1.0, "g": 0.5, "r": 0.2, "u": 0.2, "n_tr": 50},
  "sweep": {"axis1": {"name": "g", "min": 0.2, "max": 1.2, "count": 3},
            "axis2": {"name": "r", "min": 0.2, "max": 1.6, "count": 3},
            "n_levels": 16},
  "output": {"column": "g2", "scale": "linear"}
}""", encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "one"),
                 "--plot", "--workers", "2"]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "two"),
                 "--plot", "--workers", "1"]) == 0
    csv_same = (tmp_path / "one" / "sweep.csv").read_bytes() == \
               (tmp_path / "two" / "sweep.csv").read_bytes()
    svg_same = (tmp_path / "one" / "heatmap_g2.svg").read_bytes() == \
               (tmp_path / "two" / "heatmap_g2.svg").read_bytes()
    ok = identical and csv_same and svg_same
    report("C11 engineering determinism", ok,
           f"sweep 1-vs-8-worker results identical: {identical}; CLI CSV bytes "
           f"identical: {csv_same}; SVG bytes identical: {svg_same}")
