"""Command-line front end: spectrum, critical, observables, and sweep runs.

Every subcommand reads one strict JSON config and returns its files: CSV
(fixed header, 12 significant digits, LF endings), plus an SVG for
`sweep --plot`.  Only then does `main` create the output directory and write
them with a JSON metadata sidecar, so an unwritable one is found after the
computation.  It exits 0 on success, 2 on config or usage errors, 3 on
numeric failures (out of memory or a size numpy refuses among them), and 4
on I/O failures; an exit 2 or 3 creates no directory.  Error-coded sweep cells become empty CSV
fields with an integer error_code column, so a failing grid point never
aborts a run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .errors import ConfigError, InvalidParameterError, RabiStarkError
from .heatmap import emit_heatmap
from .spectrum import _check_window, find_crossings, lowest_levels
from .sweep import PointResult, SweepResult, evaluate_point, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# The observable CSV columns in order, each with the observable that fills it.
OBSERVABLE_COLUMNS = {
    "g2": "g2", "g3": "g3", "xi_b2": "xi_b2", "n_photon": "n_photon", "flux_proxy": "flux_proxy",
    "eta1": "g2_approx", "eta2": "g2_approx", "eta3": "g3_approx",
}


def format_number(x: float) -> str:
    """Pinned numeric formatting: x rounded to 12 significant digits, '.'
    separator.  Fixed point for 1e-6 <= |x| < 1e6, with trailing zeros and a
    trailing '.' stripped; otherwise d.ddde+XX (mantissa zeros stripped, at
    least two exponent digits).  Both zeros give "0"; NaN, +-inf and None
    give an empty field."""
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return ""
    if x == 0:
        return "0"
    mantissa, exp = f"{x:.11e}".split("e")
    exp = int(exp)
    if 1e-6 <= abs(x) < 1e6:
        # 11 - exp decimals keep the mantissa's 12 significant digits.
        return f"{x:.{11 - exp}f}".rstrip("0").rstrip(".")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exp:+03d}"


def _csv(lines) -> str:
    """CSV text of header and row lines: LF endings, a final newline."""
    return "\n".join(lines) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_sidecar(out_dir: Path, command: str, config: RunConfig,
                   outputs: list[str], wall_time: float) -> None:
    meta = {
        "command": command,
        "config": config.to_dict(),
        "version": __version__,
        "wall_time_s": wall_time,
        "outputs": outputs,
    }
    _write_text(out_dir / f"{command}.meta.json",
                json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _require_levels(config: RunConfig, top: int, field: str) -> None:
    """Reject a scan that asks for level top when the model has fewer levels."""
    if top >= config.model.dim:
        raise ConfigError(
            f"scan asks for level {top}, but n_tr={config.model.n_tr} gives "
            f"{config.model.dim} levels", [field])


def _require_window(config: RunConfig) -> None:
    """Reject, before any solve, a scan window whose chains overflow at scan.g_max."""
    try:
        _check_window(config.model, config.scan.g_max)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), ["scan.g_max"]) from None


def cmd_spectrum(config: RunConfig) -> dict[str, str]:
    """Scan the coupling axis and tabulate low-lying energies and parities."""
    scan = config.scan
    k = scan.n_levels
    _require_levels(config, k - 1, "scan.n_levels")
    _require_window(config)
    lines = ["g," + ",".join(f"e{i}" for i in range(k)) + ","
             + ",".join(f"p{i}" for i in range(k))]
    for g in np.linspace(scan.g_min, scan.g_max, scan.count):
        energies, parities = lowest_levels(replace(config.model, g=float(g)), k)
        cells = [format_number(float(g))] + [format_number(float(e)) for e in energies]
        lines.append(",".join(cells + [str(int(p)) for p in parities]))
    return {"spectrum.csv": _csv(lines)}


def cmd_critical(config: RunConfig) -> dict[str, str]:
    """Locate level crossings on the scan window and report the analytic
    ground critical coupling."""
    scan = config.scan
    _require_levels(config, max(hi for _, hi in scan.pairs), "scan.pairs")
    _require_window(config)
    points = find_crossings(config.model, scan.g_min, scan.g_max, scan.count, levels=scan.pairs)
    lines = ["kind,level_low,level_high,g,half_width"]
    ga = "" if points.gc_analytic is None else format_number(points.gc_analytic)
    lines.append(f"analytic,0,1,{ga},")
    lines += [f"crossing,{lo},{hi},{format_number(value)},{format_number(half)}"
              for (lo, hi), value, half in points.crossings]
    return {"critical.csv": _csv(lines)}


def _point_cells(coords: dict, pt: PointResult, filled: set[str]) -> list[str]:
    """CSV cells of one point: coordinates from coords, the filled observable
    columns, converged.

    converged is empty when the convergence check did not run.
    """
    cells = [format_number(coords[name]) for name in ("g", "r", "u", "kt")]
    cells.append(str(coords["n_tr"]))
    report = pt.report
    cells += ["" if report is None or col not in filled else format_number(getattr(report, col))
              for col in OBSERVABLE_COLUMNS]
    cells.append("" if pt.converged is None else str(int(pt.converged)))
    return cells


def _base_coords(model, bath) -> dict:
    return {"g": model.g, "r": model.r, "u": model.u, "kt": bath.kt_c, "n_tr": model.n_tr}


OBS_HEADER = ("g,r,u,kt,n_tr," + ",".join(OBSERVABLE_COLUMNS) + ",converged,error_code")
SWEEP_HEADER = ("g,r,u,kt,n_tr," + ",".join(OBSERVABLE_COLUMNS)
                + ",converged,near_degenerate,error_code")


def cmd_observables(config: RunConfig) -> dict[str, str]:
    """Evaluate the full pipeline at the configured single point."""
    pt = evaluate_point(config.model, config.bath)
    if pt.error_code != 0:
        print(f"point error_code {pt.error_code}: {pt.error_message}", file=sys.stderr)
    # Every observable is computed, so every column is filled.
    cells = _point_cells(_base_coords(config.model, config.bath), pt, set(OBSERVABLE_COLUMNS))
    cells.append(str(pt.error_code))
    return {"observables.csv": _csv([OBS_HEADER, ",".join(cells)])}


def sweep_csv(result: SweepResult) -> str:
    """Sweep table; each row's coordinates are read from the grid, so a
    point with invalid parameters still reports where it sits."""
    spec = result.spec
    filled = {col for col, name in OBSERVABLE_COLUMNS.items() if name in spec.observables}
    lines = [SWEEP_HEADER]
    for (i, j), pt in zip(np.ndindex(spec.shape), result.points):
        coords = _base_coords(spec.model, spec.bath)
        coords[spec.axis1.name] = float(result.axis1_values[i])
        if result.is_2d:
            coords[spec.axis2.name] = float(result.axis2_values[j])
        cells = _point_cells(coords, pt, filled)
        cells.append(str(int(pt.near_degenerate)))
        cells.append(str(pt.error_code))
        lines.append(",".join(cells))
    return _csv(lines)


def cmd_sweep(config: RunConfig, workers: int, plot: bool) -> dict[str, str]:
    """Run the grid sweep; optionally render an SVG heatmap of one column."""
    if config.sweep is None:
        raise ConfigError("sweep subcommand needs a 'sweep' config section",
                          ["sweep"])
    if plot and config.sweep.axis2 is None:
        raise ConfigError("--plot needs a 2-D sweep (axis2 missing)", ["sweep.axis2"])
    if plot and config.column not in config.sweep.observables:
        raise ConfigError(f"--plot column {config.column!r} is not in sweep.observables",
                          ["output.column"])
    result = run_sweep(config.sweep, workers=workers)
    files = {"sweep.csv": sweep_csv(result)}
    if plot:
        spec = result.spec
        axes = [(axis.name, axis.min, axis.max) for axis in (spec.axis1, spec.axis2)]
        files[f"heatmap_{config.column}.svg"] = emit_heatmap(
            result.column(config.column).reshape(spec.shape), *axes,
            label=config.column, scale=config.scale)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rabistark",
        description="Dissipative anisotropic quantum Rabi-Stark model simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "energies and parities along a coupling scan"),
        ("critical", "level crossings and the analytic critical coupling"),
        ("observables", "correlation/squeezing observables at one point"),
        ("sweep", "full pipeline over a 1-D or 2-D parameter grid"),
    ):
        cmdp = sub.add_parser(name, help=help_text)
        cmdp.add_argument("--config", required=True, help="JSON config path")
        cmdp.add_argument("--out", default=".", help="output directory")
        if name == "sweep":
            cmdp.add_argument("--workers", type=int, default=1, help="worker processes")
            cmdp.add_argument("--scale", choices=("linear", "log10"), default=None,
                              help="heatmap color scale (overrides config)")
            cmdp.add_argument("--plot", action="store_true",
                              help="emit an SVG heatmap of the configured column")
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.workers < 1:
        print(f"usage error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.command == "sweep" and args.scale is not None:
        config = replace(config, scale=args.scale)   # so meta.json echoes it

    start = time.perf_counter()
    try:
        if args.command == "spectrum":
            files = cmd_spectrum(config)
        elif args.command == "critical":
            files = cmd_critical(config)
        elif args.command == "observables":
            files = cmd_observables(config)
        else:
            files = cmd_sweep(config, args.workers, args.plot)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write_text(out_dir / name, text)
        _write_sidecar(out_dir, args.command, config, list(files),
                       time.perf_counter() - start)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RabiStarkError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:    # numpy's refusal of a size past intp
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
