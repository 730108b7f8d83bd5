"""Command-line front end: spectrum, critical, observables, and sweep runs.

Every subcommand reads one strict JSON config, writes CSV (fixed header,
12 significant digits, LF endings) plus a JSON metadata sidecar into the
output directory, and exits 0 on success, 2 on config errors, 3 on numeric
failures, and 4 on I/O failures.  Error-coded sweep cells become empty CSV
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
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .errors import ConfigError, RabiStarkError
from .heatmap import emit_heatmap
from .spectrum import eigensystem, find_crossings
from .sweep import OBSERVABLE_NAMES, PointResult, SweepResult, evaluate_point, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OBSERVABLE_COLUMNS = (
    "g2", "g3", "xi_b2", "n_photon", "flux_proxy", "eta1", "eta2", "eta3"
)
# observable name -> CSV columns it fills
_COLUMN_SOURCES = {
    "g2": ("g2",),
    "g3": ("g3",),
    "g2_approx": ("eta1", "eta2"),
    "g3_approx": ("eta3",),
    "xi_b2": ("xi_b2",),
    "n_photon": ("n_photon",),
    "flux_proxy": ("flux_proxy",),
}


def format_number(x: float) -> str:
    """Pinned numeric formatting: 12 significant digits, '.' separator,
    scientific notation only beyond |x| of 1e+-6."""
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return ""
    if x == 0:
        return "0"
    mantissa = f"{x:.11e}"
    d = Decimal(mantissa)
    a = abs(x)
    if 1e-6 <= a < 1e6:
        text = format(d, "f")
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text
    sign, digits, exponent = d.as_tuple()
    coeff = digits[0:1] + (".",) + digits[1:] if len(digits) > 1 else digits
    coeff_text = "".join(str(c) for c in coeff).rstrip("0").rstrip(".")
    exp10 = exponent + len(digits) - 1
    return f"{'-' if sign else ''}{coeff_text}e{exp10:+03d}"


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


def cmd_spectrum(config: RunConfig, out_dir: Path) -> list[str]:
    """Scan the coupling axis and tabulate low-lying energies and parities."""
    scan = config.scan
    k = scan.n_levels
    lines = ["g," + ",".join(f"e{i}" for i in range(k)) + ","
             + ",".join(f"p{i}" for i in range(k))]
    for g in np.linspace(scan.g_min, scan.g_max, scan.count):
        model = replace(config.model, g=float(g))
        eigs = eigensystem(model)
        cells = [format_number(float(g))]
        cells += [format_number(float(e)) for e in eigs.energies[:k]]
        cells += [str(int(p)) for p in eigs.parities[:k]]
        lines.append(",".join(cells))
    _write_text(out_dir / "spectrum.csv", "\n".join(lines) + "\n")
    return ["spectrum.csv"]


def cmd_critical(config: RunConfig, out_dir: Path) -> list[str]:
    """Locate level crossings on the scan window and report the analytic
    ground critical coupling."""
    scan = config.scan
    points = find_crossings(
        config.model, scan.g_min, scan.g_max, scan.count, levels=scan.pairs
    )
    lines = ["kind,level_low,level_high,g,half_width"]
    ga = "" if points.gc_analytic is None else format_number(points.gc_analytic)
    lines.append(f"analytic,0,1,{ga},")
    for (lo, hi), value, half in points.all_crossings():
        lines.append(
            f"crossing,{lo},{hi},{format_number(value)},{format_number(half)}"
        )
    _write_text(out_dir / "critical.csv", "\n".join(lines) + "\n")
    return ["critical.csv"]


def _point_cells(coords: dict, pt: PointResult, requested) -> list[str]:
    """CSV cells of one point: g, r, u, kt and n_tr from coords, then observables."""
    cells = [format_number(coords[name]) for name in ("g", "r", "u", "kt")]
    cells.append(str(coords["n_tr"]))
    filled = set()
    for name in requested:
        filled.update(_COLUMN_SOURCES.get(name, ()))
    for col in OBSERVABLE_COLUMNS:
        if pt.report is None or col not in filled:
            cells.append("")
        else:
            cells.append(format_number(getattr(pt.report, col)))
    return cells


def _base_coords(model, bath) -> dict:
    return {"g": model.g, "r": model.r, "u": model.u, "kt": bath.kt_c, "n_tr": model.n_tr}


OBS_HEADER = ("g,r,u,kt,n_tr," + ",".join(OBSERVABLE_COLUMNS) + ",converged,error_code")
SWEEP_HEADER = ("g,r,u,kt,n_tr," + ",".join(OBSERVABLE_COLUMNS)
                + ",converged,near_degenerate,error_code")


def cmd_observables(config: RunConfig, out_dir: Path) -> list[str]:
    """Evaluate the full pipeline at the configured single point."""
    pt = evaluate_point(config.model, config.bath)
    requested = set(OBSERVABLE_NAMES)
    cells = _point_cells(_base_coords(config.model, config.bath), pt, requested)
    cells.append(str(int(pt.converged)))
    cells.append(str(pt.error_code))
    _write_text(out_dir / "observables.csv", OBS_HEADER + "\n" + ",".join(cells) + "\n")
    return ["observables.csv"]


def sweep_csv(result: SweepResult) -> str:
    """Sweep table; each row's coordinates are read from the grid, so a
    point with invalid parameters still reports where it sits."""
    spec = result.spec
    requested = set(spec.observables)
    lines = [SWEEP_HEADER]
    cols = spec.shape[1]
    for flat, pt in enumerate(result.points):
        i, j = divmod(flat, cols)
        coords = _base_coords(spec.model, spec.bath)
        coords[spec.axis1.name] = float(result.axis1_values[i])
        if result.is_2d:
            coords[spec.axis2.name] = float(result.axis2_values[j])
        cells = _point_cells(coords, pt, requested)
        cells.append(str(int(pt.converged)))
        cells.append(str(int(pt.near_degenerate)))
        cells.append(str(pt.error_code))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_sweep(config: RunConfig, out_dir: Path, workers: int, plot: bool,
              scale: str) -> list[str]:
    """Run the grid sweep; optionally render an SVG heatmap of one column."""
    if config.sweep is None:
        raise ConfigError("sweep subcommand needs a 'sweep' config section",
                          ["sweep"])
    result = run_sweep(config.sweep, workers=workers)
    outputs = ["sweep.csv"]
    _write_text(out_dir / "sweep.csv", sweep_csv(result))

    if plot:
        if not result.is_2d:
            raise ConfigError("--plot needs a 2-D sweep (axis2 missing)", ["sweep.axis2"])
        spec = result.spec
        column = config.column
        values = result.column(column).reshape(spec.shape)
        svg = emit_heatmap(
            values,
            axis1=(spec.axis1.name, spec.axis1.min, spec.axis1.max),
            axis2=(spec.axis2.name, spec.axis2.min, spec.axis2.max),
            label=column,
            scale=scale,
        )
        name = f"heatmap_{column}.svg"
        _write_text(out_dir / name, svg)
        outputs.append(name)
    return outputs


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
        cmdp.add_argument("--workers", type=int, default=1, help="worker processes")
        cmdp.add_argument("--scale", choices=("linear", "log10"), default=None,
                          help="heatmap color scale (overrides config)")
        if name == "sweep":
            cmdp.add_argument("--plot", action="store_true",
                              help="emit an SVG heatmap of the configured column")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    scale = args.scale if args.scale is not None else config.scale

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    start = time.perf_counter()
    try:
        if args.command == "spectrum":
            outputs = cmd_spectrum(config, out_dir)
        elif args.command == "critical":
            outputs = cmd_critical(config, out_dir)
        elif args.command == "observables":
            outputs = cmd_observables(config, out_dir)
        else:
            outputs = cmd_sweep(config, out_dir, args.workers,
                                getattr(args, "plot", False), scale)
        _write_sidecar(out_dir, args.command, config, outputs,
                       time.perf_counter() - start)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RabiStarkError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
