"""Benchmark-side call tracing for the rabistark package.

Wrappers are put on the module-level names that `rabistark.sweep`,
`rabistark.spectrum` and `rabistark.cli` look up at call time, so the package
itself is not modified.  Each wrapped call records one span (name, start,
end, parent span, request id); spans stay in memory and are written out when
the run ends.  A span with no parent starts a request and every span below it
carries that request's id.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Names wrapped in each module namespace.  A name missing from the installed
# package is skipped with a warning on stderr, so its metrics read 0 instead
# of breaking the run.
WRAPPED = {
    "sweep": (
        "evaluate_point", "_n_photon_at", "assemble_hamiltonian",
        "parity_operator", "composite_annihilation", "composite_position",
        "diagonalize", "transition_rates",
        "steady_populations", "detection_operator", "field_moments",
        "flux_proxy", "correlation_g_n", "approx_g2", "approx_g3",
        "squeezing_factor",
    ),
    "spectrum": (
        "find_crossings", "assemble_hamiltonian", "parity_operator",
        "diagonalize", "gc_analytic",
    ),
    "cli": (
        "main", "load_config", "cmd_sweep", "run_sweep", "sweep_csv",
        "emit_heatmap", "_write_text", "_write_sidecar",
    ),
}

# Dense symmetric eigensolve with eigenvectors: ~9 n^3 flops (Golub & Van
# Loan, symmetric QR).  A computed count from the matrix size, not a
# hardware measurement.
EIGH_FLOP_FACTOR = 9


def _note_evaluate_point(args, kwargs, result):
    return {"key": args[0], "err": int(result.error_code),
            "converged": bool(result.converged)}


def _note_diagonalize(args, kwargs, result):
    n = int(args[0].shape[0])
    return {"flop": EIGH_FLOP_FACTOR * n**3}


def _note_transition_rates(args, kwargs, result):
    levels = int(result.n_levels)
    return {"pairs": levels * (levels - 1) // 2}


def _note_find_crossings(args, kwargs, result):
    return {"crossings": len(result.all_crossings())}


NOTES = {
    "sweep.evaluate_point": _note_evaluate_point,
    "spectrum.diagonalize": _note_diagonalize,
    "dissipation.transition_rates": _note_transition_rates,
    "spectrum.find_crossings": _note_find_crossings,
}


class Span:
    __slots__ = ("sid", "parent", "request", "name", "start", "end", "note")

    def __init__(self, sid, parent, request, name):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        for mod_name, names in WRAPPED.items():
            for attr in names:
                if not hasattr(package_modules[mod_name], attr):
                    print(f"trace: rabistark.{mod_name}.{attr} is missing; "
                          "the metrics built on it read 0", file=sys.stderr)

    def install(self) -> None:
        for mod_name, names in WRAPPED.items():
            module = self.modules[mod_name]
            for attr in names:
                func = getattr(module, attr, None)
                if func is None:
                    continue
                self._saved.append((module, attr, func))
                setattr(module, attr, self._wrap(func))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)

    def _wrap(self, func):
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.sid if parent else -1,
                        parent.request if parent else len(spans), name)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                try:
                    span.note = note(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    span.note = None
            return result

        traced.__wrapped__ = func
        return traced

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        out = list(self.spans)
        self.spans.clear()
        return out


def write_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines (times in seconds from the first span)."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "parent": s.parent, "request": s.request,
                "name": s.name, "start": s.start - origin, "end": s.end - origin,
            }) + "\n")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures for one traced pass."""
    by_id = {s.sid: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.duration - child_time[s.sid]
        total_s[s.name] += s.duration

    def notes(name, key):
        return [s.note[key] for s in spans
                if s.name == name and s.note is not None and key in s.note]

    def cover_min(name):
        shares = [child_time[s.sid] / s.duration
                  for s in spans if s.name == name and s.duration > 0]
        return min(shares) if shares else 0.0

    def root_name(s):
        while s.parent >= 0:
            s = by_id[s.parent]
        return s.name

    crossings = sum(notes("spectrum.find_crossings", "crossings"))
    scan_diags = sum(1 for s in spans if s.name == "spectrum.diagonalize"
                     and root_name(s) == "spectrum.find_crossings")
    keys = notes("sweep.evaluate_point", "key")
    errs = notes("sweep.evaluate_point", "err")
    converged = notes("sweep.evaluate_point", "converged")
    point_total = total_s["sweep.evaluate_point"]

    m = {
        "spectrum.diagonalize.calls": calls["spectrum.diagonalize"],
        "spectrum.diagonalize.self_s": self_s["spectrum.diagonalize"],
        "spectrum.diagonalize.flop_computed": sum(notes("spectrum.diagonalize", "flop")),
        "operators.assemble_hamiltonian.calls": calls["operators.assemble_hamiltonian"],
        "operators.assemble_hamiltonian.self_s": self_s["operators.assemble_hamiltonian"],
        "spectrum.find_crossings.self_s": self_s["spectrum.find_crossings"],
        "spectrum.find_crossings.diag_per_crossing":
            scan_diags / crossings if crossings else 0.0,
        "spectrum.find_crossings.child_cover_min": cover_min("spectrum.find_crossings"),
        "dissipation.transition_rates.calls": calls["dissipation.transition_rates"],
        "dissipation.transition_rates.self_s": self_s["dissipation.transition_rates"],
        "dissipation.transition_rates.pairs": sum(notes("dissipation.transition_rates", "pairs")),
        "dissipation.steady_populations.self_s": self_s["dissipation.steady_populations"],
        "observables.self_s": sum(v for k, v in self_s.items() if k.startswith("observables.")),
        "observables.field_moments.self_s": self_s["observables.field_moments"],
        "sweep.evaluate_point.calls": calls["sweep.evaluate_point"],
        "sweep.evaluate_point.self_s": self_s["sweep.evaluate_point"],
        "sweep.evaluate_point.child_cover_min": cover_min("sweep.evaluate_point"),
        "sweep.resolve_share": total_s["sweep._n_photon_at"] / point_total if point_total else 0.0,
        "sweep.repeat_spectrum_share": (len(keys) - len(set(keys))) / len(keys) if keys else 0.0,
        "sweep.unconverged_points": sum(1 for e, c in zip(errs, converged) if e == 0 and not c),
        "cli.sweep_csv.self_s": self_s["cli.sweep_csv"],
        "heatmap.emit_heatmap.self_s": self_s["heatmap.emit_heatmap"],
        "config.load_config.self_s": self_s["config.load_config"],
    }
    for code in (1, 2, 3, 4):
        m[f"sweep.err.{code}"] = sum(1 for e in errs if e == code)
    return m
