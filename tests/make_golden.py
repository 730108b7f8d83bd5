"""Golden outputs of `rabistark sweep` for tests/test_golden.py.

Each case is one sweep config run through the command-line entry point.
Its sweep.csv, its SVG heatmap (2-D cases) and its sweep.meta.json, without
the wall time and the package version, are kept under tests/golden/<case>/.

Rewrite them only for a deliberate change of output, and list each changed
cell where the change is described:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from rabistark import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VOLATILE_META = ("wall_time_s", "version")


def _sweep(model, axis1, axis2=None, **sweep):
    out = {"model": {"delta": 1.0, **model}, "sweep": {"axis1": axis1, **sweep}}
    if axis2 is not None:
        out["sweep"]["axis2"] = axis2
    return out


def _axis(name, lo, hi, count):
    return {"name": name, "min": lo, "max": hi, "count": count}


# name -> (config, --plot)
CASES = {
    # The kT = 0 column has no flux: error code 1.
    "g_kt_zero_column": (
        {**_sweep({"r": 0.2, "u": 0.2, "n_tr": 20}, _axis("g", 0.1, 1.2, 5),
                  _axis("kt", 0.0, 0.2, 4), n_levels=16),
         "output": {"scale": "log10", "column": "g2"}},
        True,
    ),
    # |u| >= 1 rows are invalid parameters (error code 4), beside a kT = 0 column.
    "u_kt_checked": (
        {**_sweep({"g": 0.6, "r": 0.8, "n_tr": 16}, _axis("u", -1.2, 1.2, 5),
                  _axis("kt", 0.0, 0.15, 3), n_levels=12),
         "output": {"column": "xi_b2"}},
        True,
    ),
    "u_kt_unchecked": (
        {**_sweep({"g": 0.6, "r": 0.8, "n_tr": 16}, _axis("u", -1.2, 1.2, 5),
                  _axis("kt", 0.0, 0.15, 3), n_levels=12, check_convergence=False),
         "output": {"column": "xi_b2"}},
        True,
    ),
    # All 14 levels in use: no slot is certified, every one is re-solved.
    "n_tr_6_resolved": (
        _sweep({"g": 0.5, "r": 0.5, "u": 0.1, "n_tr": 6}, _axis("g", 0.2, 1.0, 3),
               _axis("kt", 0.02, 0.2, 4), n_levels=14),
        True,
    ),
    # Decoupled qubit and cavity along r and kT.
    "g_zero_edge": (
        _sweep({"g": 0.0, "u": -0.3, "n_tr": 20}, _axis("r", 0.0, 2.0, 3),
               _axis("kt", 0.05, 0.2, 3), n_levels=12),
        True,
    ),
    # Jaynes-Cummings limit, 1-D from g = 0.
    "r_zero_edge": (
        _sweep({"r": 0.0, "u": 0.3, "n_tr": 20}, _axis("g", 0.0, 1.5, 6),
               n_levels=12, observables=["g2", "g3", "xi_b2", "n_photon"]),
        False,
    ),
}


def run_case(name: str, out_dir: Path, workers: int = 1) -> dict:
    """Run one case into out_dir; return {file name: bytes} of its outputs,
    the meta.json without its volatile fields."""
    config, plot = CASES[name]
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    argv = ["sweep", "--config", str(path), "--out", str(out_dir),
            "--workers", str(workers)]
    code = cli.main(argv + (["--plot"] if plot else []))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"golden case {name} exited {code}")
    meta = json.loads((out_dir / "sweep.meta.json").read_text())
    files = {"sweep.meta.json": (json.dumps({k: v for k, v in meta.items()
                                             if k not in VOLATILE_META},
                                            indent=2, sort_keys=True) + "\n").encode()}
    for output in meta["outputs"]:
        files[output] = (out_dir / output).read_bytes()
    return files


def main() -> int:
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, Path(tmp))
        case_dir = GOLDEN_DIR / name
        case_dir.mkdir(parents=True, exist_ok=True)
        for old in case_dir.iterdir():
            old.unlink()
        for output, data in files.items():
            (case_dir / output).write_bytes(data)
        print(f"{name}: {', '.join(sorted(files))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
