"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller.  Its inputs come from a
seeded stream: the same seed gives the same sequence of passes, and no two
passes share inputs, so a cache that outlives one call cannot turn later
passes into repeats.  A pass is timed as a whole; `run.py` repeats passes
until the run's time is up, and gates each pass as soon as it ends.

  point-scan     25 random points per pass through `sweep.evaluate_point`
                 (n_tr=200, convergence re-solve on): the per-point cost.
  sweep-gkt      one `rabistark sweep --plot` call through `cli.main` on a
                 16 (g) x 8 (kT) grid at n_tr=60: the CLI, CSV/SVG output and
                 the dissipation stages, with 87.5% of points repeating a
                 spectrum along kT and a kT=0 column of zero-flux points.
  critical-scan  one `spectrum.find_crossings` call over the default 81-point
                 g window at n_tr=120: the spectrum layer alone.

Outputs are checked against stored references for the reference seed and
against seed-independent invariants for every seed.  `check` gates one pass
and adds its points to a `Verdict`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rabistark
from rabistark import cli, spectrum, sweep

REFERENCE_SEED = 0
RTOL = 1e-6          # BLAS thread counts shift the 12th digit; allow far more
ATOL = 1e-12

SIZES = {
    "point-scan": {
        "full": {"n_tr": 200, "pass_points": 25, "min_points": 100, "ref_points": 300},
        "tiny": {"n_tr": 32, "pass_points": 5, "min_points": 10, "ref_points": 20},
    },
    "sweep-gkt": {
        "full": {"n_tr": 60, "g_count": 16, "kt_count": 8, "min_passes": 3, "ref_passes": 3},
        "tiny": {"n_tr": 12, "g_count": 4, "kt_count": 3, "min_passes": 2, "ref_passes": 2},
    },
    "critical-scan": {
        "full": {"n_tr": 120, "steps": 81, "min_passes": 6, "ref_passes": 30},
        "tiny": {"n_tr": 16, "steps": 17, "min_passes": 3, "ref_passes": 6},
    },
}


@dataclass
class Pass:
    """One timed pass: wall time, per-point times, and raw outputs.

    `run.py` drops the outputs once the pass is checked, so the memory the
    harness holds does not grow with the number of passes.
    """

    wall: float
    point_ms: list
    points: int
    outputs: list
    error_coded: int = 0


@dataclass
class Verdict:
    """Outcome of the correctness gate over a run."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)


def _encode(x):
    """JSON-safe float: finite values as numbers, others as 'nan'/'inf'."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str) or a is None or b is None:
        return a == b
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


# ---------------------------------------------------------------- point-scan

POINT_FIELDS = ("g2", "g3", "g2_approx", "g3_approx", "xi_b2", "n_photon",
                "flux_proxy", "eta1", "eta2", "eta3")
POPULATION_CHECKS = 3   # points per run re-solved with the steady state captured


class PointScan:
    """Random (g, r, u) points, each through the full single-point pipeline."""

    name = "point-scan"

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.cfg = SIZES[self.name][size]
        self.rng = np.random.default_rng([seed, 1])
        self.bath = rabistark.BathParams(kt_q=0.07, kt_c=0.07)
        self.drawn = 0
        self.population_checks = 0

    def _model(self, g, r, u):
        return rabistark.ModelParams(delta=1.0, g=float(g), r=float(r), u=float(u),
                                     n_tr=self.cfg["n_tr"])

    def warm_up(self) -> None:
        sweep.evaluate_point(self._model(0.5, 0.5, 0.1), self.bath, check_convergence=True)

    def next_pass(self):
        pts = []
        for _ in range(self.cfg["pass_points"]):
            g, r, u = self.rng.uniform((0.0, 0.0, -0.8), (1.5, 2.0, 0.8))
            pts.append((self.drawn, self._model(g, r, u)))
            self.drawn += 1
        return pts

    def run_pass(self, pts) -> Pass:
        evaluate = sweep.evaluate_point    # looked up per pass so tracing applies
        outputs, times = [], []
        start = time.perf_counter()
        for idx, model in pts:
            t = time.perf_counter()
            try:
                res = evaluate(model, self.bath, check_convergence=True)
            except Exception as exc:       # a raised point is a failed request
                res = exc
            times.append(1e3 * (time.perf_counter() - t))
            outputs.append((idx, model, res))
        wall = time.perf_counter() - start
        coded = sum(1 for _, _, r in outputs if isinstance(r, Exception) or r.error_code)
        return Pass(wall, times, len(pts), outputs, coded)

    def done(self, passes) -> bool:
        return sum(p.points for p in passes) >= self.cfg["min_points"]

    @staticmethod
    def _record(res) -> list:
        row = [int(res.error_code), int(res.converged), int(res.near_degenerate)]
        rep = res.report
        row += [_encode(getattr(rep, f)) if rep is not None else None for f in POINT_FIELDS]
        return row

    def reference_data(self, passes) -> dict:
        rows = [self._record(res) for p in passes for _, _, res in p.outputs]
        return {"invariant": {}, "exact": {"points": rows[: self.cfg["ref_points"]]}}

    def check(self, p, v, invariant, exact) -> None:
        ref_rows = exact.get("points", [])
        for idx, model, res in p.outputs:
            v.attempted += 1
            problem = self._invariants(res)
            if problem is None and idx < len(ref_rows):
                got = self._record(res)
                if not all(_same(a, b) for a, b in zip(got, ref_rows[idx])):
                    problem = f"differs from reference: {got} vs {ref_rows[idx]}"
            if problem is None and self.population_checks < POPULATION_CHECKS:
                self.population_checks += 1
                problem = self._population_check(model, res)
            if problem is not None:
                v.fail(f"point {idx} {model}: {problem}")

    @staticmethod
    def _invariants(res):
        if isinstance(res, Exception):
            return f"raised {type(res).__name__}: {res}"
        # Every point of the sampled box has flux and a unique steady state,
        # and both sizes' n_tr converge it (n_tr=16 would not); an error code
        # or an unconverged point here is a failure.
        if res.error_code != 0:
            return f"error code {res.error_code}: {res.error_message}"
        if not res.converged:
            return "photon number not converged at n_tr+40"
        rep = res.report
        if not (rep.g2 >= 0 and rep.g3 >= 0 and rep.n_photon >= 0 and rep.flux_proxy > 0):
            return f"negative G_n, photon number or flux: {rep}"
        if abs(rep.a_mean) > 1e-9:
            return f"<a> = {rep.a_mean} breaks parity"
        closed = 1.0 + 2.0 * (rep.n_photon - rep.a_sq.real)
        if abs(rep.xi_b2 - closed) > 1e-9 * max(1.0, abs(closed)):
            return f"xi_b2 {rep.xi_b2!r} != closed form {closed!r}"
        return None

    def _population_check(self, model, res):
        """Re-run one point, capturing the steady populations it solves for."""
        solve = getattr(sweep, "steady_populations", None)
        if solve is None:
            return "sweep.steady_populations is gone, so populations cannot be checked"
        captured = []

        def capture(table):
            out = solve(table)
            captured.append(np.asarray(out.populations))
            return out

        sweep.steady_populations = capture
        try:
            again = sweep.evaluate_point(model, self.bath, check_convergence=True)
        finally:
            sweep.steady_populations = solve
        if not captured:
            return "no steady state was solved"
        for pops in captured:
            if pops.min() < 0 or abs(pops.sum() - 1.0) > 1e-12:
                return f"populations not a distribution: min {pops.min()}, sum {pops.sum()}"
        if self._record(again) != self._record(res):
            return "re-evaluation gives a different result"
        return None


# ----------------------------------------------------------------- sweep-gkt

SWEEP_NUMERIC = ("g2", "g3", "xi_b2", "n_photon", "flux_proxy", "eta1", "eta2", "eta3")
SWEEP_FLAGS = ("converged", "near_degenerate", "error_code")
G_RANGE = (0.05, 1.2)
KT_RANGE = (0.0, 0.2)
SWEEP_ANCHOR = (0.2, 0.2)
SWEEP_JITTER = 0.05


class SweepGkt:
    """`rabistark sweep --plot` over a (g, kT) grid, in-process via cli.main."""

    name = "sweep-gkt"

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.cfg = SIZES[self.name][size]
        self.rng = np.random.default_rng([seed, 2])
        self.work_dir = work_dir
        self.out_dir = work_dir / "sweep-out"
        self.drawn = 0

    def _config(self, r, u) -> dict:
        c = self.cfg
        return {
            "model": {"n_tr": c["n_tr"], "r": r, "u": u},
            "sweep": {
                "axis1": {"name": "g", "min": G_RANGE[0], "max": G_RANGE[1], "count": c["g_count"]},
                "axis2": {"name": "kt", "min": KT_RANGE[0], "max": KT_RANGE[1], "count": c["kt_count"]},
            },
            "output": {"scale": "log10", "column": "g2"},
        }

    def warm_up(self) -> None:
        path = self.work_dir / "sweep-warmup.json"
        path.write_text(json.dumps(self._config(*SWEEP_ANCHOR)))
        config = cli.load_config(str(path))
        model, bath = config.sweep.point_params(1, 1)
        sweep.evaluate_point(model, bath, check_convergence=True)

    def next_pass(self):
        k = self.drawn
        self.drawn += 1
        if k == 0:
            r, u = SWEEP_ANCHOR
        else:
            r, u = (float(x) for x in np.add(SWEEP_ANCHOR, self.rng.uniform(
                -SWEEP_JITTER, SWEEP_JITTER, 2)))
        path = self.work_dir / "sweep.json"
        path.write_text(json.dumps(self._config(r, u)))
        return k, r, u, path

    def run_pass(self, inp, workers: int = 1) -> Pass:
        k, r, u, path = inp
        argv = ["sweep", "--config", str(path), "--out", str(self.out_dir),
                "--plot", "--workers", str(workers)]
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:           # a raised sweep is a failed request
            rc = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        csv_text = svg_text = None
        if rc == 0:
            csv_text = (self.out_dir / "sweep.csv").read_text()
            svg_text = (self.out_dir / "heatmap_g2.svg").read_text()
        points = self.cfg["g_count"] * self.cfg["kt_count"]
        rows = list(csv.DictReader(io.StringIO(csv_text))) if csv_text else []
        coded = sum(1 for row in rows if row.get("error_code") != "0")
        return Pass(wall, [1e3 * wall / points], points,
                    [(k, r, u, rc, rows, svg_text)], coded)

    def done(self, passes) -> bool:
        return len(passes) >= self.cfg["min_passes"]

    def reference_data(self, passes) -> dict:
        out = []
        for p in passes:
            for k, r, u, rc, rows, _ in p.outputs:
                out.append({"r": r, "u": u, "rows": [
                    [row[c] for c in SWEEP_NUMERIC + SWEEP_FLAGS] for row in rows]})
        return {"invariant": {}, "exact": {"passes": out[: self.cfg["ref_passes"]]}}

    def check(self, p, v, invariant, exact) -> None:
        ref = exact.get("passes", [])
        g_vals = np.linspace(*G_RANGE, self.cfg["g_count"])
        kt_vals = np.linspace(*KT_RANGE, self.cfg["kt_count"])
        points = len(g_vals) * len(kt_vals)
        for k, r, u, rc, rows, svg_text in p.outputs:
            v.attempted += points
            if rc != 0:
                v.fail(f"pass {k}: cli exit {rc}", points)
                continue
            try:
                ET.fromstring(svg_text)
            except ET.ParseError as exc:
                v.fail(f"pass {k}: heatmap is not valid SVG: {exc}", points)
                continue
            if len(rows) != points:
                v.fail(f"pass {k}: {len(rows)} CSV rows, expected {points}", points)
                continue
            ref_rows = ref[k]["rows"] if k < len(ref) else None
            for flat, row in enumerate(rows):
                i, j = divmod(flat, len(kt_vals))
                problem = self._row_problem(row, g_vals[i], kt_vals[j], r, u)
                if problem is None and ref_rows is not None:
                    got = [row[c] for c in SWEEP_NUMERIC + SWEEP_FLAGS]
                    if not self._row_matches(got, ref_rows[flat]):
                        problem = f"differs from reference: {got} vs {ref_rows[flat]}"
                if problem is not None:
                    v.fail(f"pass {k} row {flat}: {problem}")

    def _row_problem(self, row, g, kt, r, u):
        coords = {"g": g, "kt": kt, "r": r, "u": u}
        for name, want in coords.items():
            if not _same(float(row[name]), float(want)):
                return f"{name}={row[name]} where the grid has {want!r}"
        if int(row["n_tr"]) != self.cfg["n_tr"]:
            return f"n_tr={row['n_tr']}"
        want_code = "1" if kt == 0.0 else "0"     # kT=0: ground state emits nothing
        if row["error_code"] != want_code:
            return f"error_code {row['error_code']}, expected {want_code}"
        if want_code == "1":
            filled = [c for c in SWEEP_NUMERIC if row[c] != ""]
            return f"error-coded row fills {filled}" if filled else None
        vals = {c: float(row[c]) for c in SWEEP_NUMERIC}
        if not all(math.isfinite(x) for x in vals.values()):
            return f"non-finite values {vals}"
        if not (vals["g2"] >= 0 and vals["g3"] >= 0 and vals["n_photon"] >= 0
                and vals["flux_proxy"] > 0 and vals["xi_b2"] > 0):
            return f"negative G_n, photon number, flux or variance: {vals}"
        return None

    @staticmethod
    def _row_matches(got, want) -> bool:
        n = len(SWEEP_NUMERIC)
        if got[n:] != want[n:]:
            return False
        return all((a == "" and b == "") or (a != "" and b != "" and _same(float(a), float(b)))
                   for a, b in zip(got[:n], want[:n]))


# ------------------------------------------------------------- critical-scan

G_WINDOW = (0.05, 2.0)
PAIRS = ((0, 1), (1, 2), (2, 3))
# Anchor (r, u) families; the first scan is the first anchor itself, later
# scans cycle the families with a small seeded jitter that keeps each
# family's crossing structure.
FAMILIES = ((0.2, 0.2), (1.0, 0.2), (0.5, -0.4))
CRITICAL_JITTER = 0.01
GC_AGREEMENT = 1e-4     # numeric vs closed-form ground crossing (they differ by ~4e-6)


class CriticalScan:
    """Level-crossing search along g, one `find_crossings` call per pass."""

    name = "critical-scan"

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.cfg = SIZES[self.name][size]
        self.rng = np.random.default_rng([seed, 3])
        self.drawn = 0

    def _model(self, r, u):
        return rabistark.ModelParams(delta=1.0, g=0.0, r=r, u=u, n_tr=self.cfg["n_tr"])

    def warm_up(self) -> None:
        # Below the first crossing of the first anchor: a short scan, no refinement.
        spectrum.find_crossings(self._model(*FAMILIES[0]), G_WINDOW[0], 0.3, 8, levels=PAIRS)

    def next_pass(self):
        k = self.drawn
        self.drawn += 1
        family = k % len(FAMILIES)
        r, u = FAMILIES[family]
        if k > 0:
            dr, du = self.rng.uniform(-CRITICAL_JITTER, CRITICAL_JITTER, 2)
            r, u = float(r + dr), float(u + du)
        return k, family, r, u

    def run_pass(self, inp) -> Pass:
        k, family, r, u = inp
        find = spectrum.find_crossings
        start = time.perf_counter()
        try:
            res = find(self._model(r, u), *G_WINDOW, self.cfg["steps"], levels=PAIRS)
        except Exception as exc:           # a raised scan is a failed request
            res = exc
        wall = time.perf_counter() - start
        steps = self.cfg["steps"]
        return Pass(wall, [1e3 * wall / steps], steps, [(k, family, r, u, res)],
                    int(isinstance(res, Exception)))

    def done(self, passes) -> bool:
        return len(passes) >= self.cfg["min_passes"]

    @staticmethod
    def _record(res) -> list:
        return [[lo, hi, float(value), float(half)]
                for (lo, hi), value, half in res.all_crossings()]

    def reference_data(self, passes) -> dict:
        scans = [{"r": r, "u": u, "family": fam, "crossings": self._record(res),
                  "gc_analytic": _encode(res.gc_analytic)}
                 for p in passes for k, fam, r, u, res in p.outputs]
        counts = [None] * len(FAMILIES)
        for scan in scans:
            if counts[scan["family"]] is None:
                counts[scan["family"]] = self._pair_counts(scan["crossings"])
        return {"invariant": {"family_counts": counts},
                "exact": {"scans": scans[: self.cfg["ref_passes"]]}}

    @staticmethod
    def _pair_counts(crossings) -> list:
        return [sum(1 for c in crossings if (c[0], c[1]) == pair) for pair in PAIRS]

    def check(self, p, v, invariant, exact) -> None:
        scans = exact.get("scans", [])
        counts = invariant.get("family_counts")
        max_half = (G_WINDOW[1] - G_WINDOW[0]) / 2 ** 14
        for k, family, r, u, res in p.outputs:
            v.attempted += 1
            if isinstance(res, Exception):
                v.fail(f"scan {k}: raised {type(res).__name__}: {res}")
                continue
            got = self._record(res)
            problem = None
            if counts is not None and self._pair_counts(got) != counts[family]:
                problem = f"crossings per pair {self._pair_counts(got)}, family has {counts[family]}"
            elif any(not G_WINDOW[0] < c[2] < G_WINDOW[1] or not 0 < c[3] <= max_half
                     for c in got):
                problem = f"crossing outside the window or too wide: {got}"
            elif res.gc_numeric is not None and res.gc_analytic is not None and \
                    abs(res.gc_numeric[0] - res.gc_analytic) > GC_AGREEMENT:
                problem = f"gc numeric {res.gc_numeric} vs analytic {res.gc_analytic}"
            elif k < len(scans):
                problem = self._reference_problem(got, res, scans[k])
            if problem is not None:
                v.fail(f"scan {k} (r={r}, u={u}): {problem}")

    @staticmethod
    def _reference_problem(got, res, want):
        if not _same(_encode(res.gc_analytic), want["gc_analytic"]):
            return f"gc_analytic {res.gc_analytic} vs reference {want['gc_analytic']}"
        ref = want["crossings"]
        if [c[:2] for c in got] != [c[:2] for c in ref]:
            return f"crossing pairs {got} vs reference {ref}"
        for c, w in zip(got, ref):
            # Both brackets must hold the same crossing.
            if abs(c[2] - w[2]) > c[3] + w[3] + ATOL:
                return f"crossing {c} outside reference bracket {w}"
        return None


WORKLOADS = {w.name: w for w in (PointScan, SweepGkt, CriticalScan)}
