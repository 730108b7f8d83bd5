"""Golden outputs of the rabistark commands for tests/test_golden.py.

Each case is one config run through the command-line entry point.  Its
outputs (the CSV, and for a plotted sweep the SVG heatmap) and its
<command>.meta.json, without the wall time and the package version, are
kept under tests/golden/<case>/.

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


# name -> (command and flags, config)
CASES = {
    # The kT = 0 column has no flux: error code 1.
    "g_kt_zero_column": (
        ["sweep", "--plot"],
        {**_sweep({"r": 0.2, "u": 0.2, "n_tr": 20}, _axis("g", 0.1, 1.2, 5),
                  _axis("kt", 0.0, 0.2, 4), n_levels=16),
         "output": {"scale": "log10", "column": "g2"}},
    ),
    # |u| >= 1 rows are invalid parameters (error code 4), beside a kT = 0 column.
    "u_kt_checked": (
        ["sweep", "--plot"],
        {**_sweep({"g": 0.6, "r": 0.8, "n_tr": 16}, _axis("u", -1.2, 1.2, 5),
                  _axis("kt", 0.0, 0.15, 3), n_levels=12),
         "output": {"column": "xi_b2"}},
    ),
    "u_kt_unchecked": (
        ["sweep", "--plot"],
        {**_sweep({"g": 0.6, "r": 0.8, "n_tr": 16}, _axis("u", -1.2, 1.2, 5),
                  _axis("kt", 0.0, 0.15, 3), n_levels=12, check_convergence=False),
         "output": {"column": "xi_b2"}},
    ),
    # All 14 levels in use: no slot is certified, every one is re-solved.
    "n_tr_6_resolved": (
        ["sweep", "--plot"],
        _sweep({"g": 0.5, "r": 0.5, "u": 0.1, "n_tr": 6}, _axis("g", 0.2, 1.0, 3),
               _axis("kt", 0.02, 0.2, 4), n_levels=14),
    ),
    # Decoupled qubit and cavity along r and kT.
    "g_zero_edge": (
        ["sweep", "--plot"],
        _sweep({"g": 0.0, "u": -0.3, "n_tr": 20}, _axis("r", 0.0, 2.0, 3),
               _axis("kt", 0.05, 0.2, 3), n_levels=12),
    ),
    # Jaynes-Cummings limit, 1-D from g = 0.
    "r_zero_edge": (
        ["sweep"],
        _sweep({"r": 0.0, "u": 0.3, "n_tr": 20}, _axis("g", 0.0, 1.5, 6),
               n_levels=12, observables=["g2", "g3", "xi_b2", "n_photon"]),
    ),
    # Across the r = 1 ground crossing at n_tr = 200, every point on a certified
    # 80-site head: at g = 1.5491904, 1.5491914 and 1.5491924 the level-order
    # rule puts the odd level first although it lies higher.
    "g_ground_crossing_n200": (
        ["sweep"],
        _sweep({"r": 1.0, "u": 0.2, "n_tr": 200}, _axis("g", 1.5491784, 1.5491944, 17)),
    ),
    # Crossings over the default scan (g 0.05..2, 81 steps, pairs (0,1),
    # (1,2), (2,3)).
    "critical_r02_u02": (["critical"], {"model": {"delta": 1.0, "r": 0.2, "u": 0.2, "n_tr": 30}}),
    "critical_r05_um04": (["critical"],
                          {"model": {"delta": 1.0, "r": 0.5, "u": -0.4, "n_tr": 30}}),
    # Isotropic: plain energy order in spectrum._level_order moves this
    # ground crossing (1.54919119 -> 1.54919268).
    "critical_r1_u02": (["critical"], {"model": {"delta": 1.0, "r": 1.0, "u": 0.2, "n_tr": 120}}),
    # A long chain and a wide window: three crossings, past the couplings
    # where the lowest levels fill the leading 32 sites of each chain.
    "critical_r1_u02_n200_g3": (["critical"],
                                {"model": {"delta": 1.0, "r": 1.0, "u": 0.2, "n_tr": 200},
                                 "scan": {"g_max": 3.0}}),
    # Jaynes-Cummings limit: at r = 0 the scan bisects the whole chains at
    # every coupling, however long they are.
    "critical_r0_u02": (["critical"], {"model": {"delta": 1.0, "r": 0.0, "u": 0.2, "n_tr": 120}}),
    "spectrum_r05_u01": (
        ["spectrum"],
        {"model": {"delta": 1.0, "r": 0.5, "u": 0.1, "n_tr": 30},
         "scan": {"g_min": 0.0, "g_max": 1.5, "count": 11, "n_levels": 6}},
    ),
    # A squeezed steady state (xi_b2 < 1) at the default bath.
    "observables_squeezed": (
        ["observables"], {"model": {"delta": 1.0, "g": 0.8, "r": 0.5, "u": 0.1, "n_tr": 30}},
    ),
    # Detuned, with the qubit and cavity reservoirs unequal in coupling and
    # temperature and a non-default cutoff: a swap of the two reservoirs
    # changes the steady state.
    "observables_unequal_baths": (
        ["observables"],
        {"model": {"delta": 0.8, "g": 0.7, "r": 0.6, "u": 0.15, "n_tr": 30},
         "bath": {"alpha_q": 3e-3, "alpha_c": 5e-4, "omega_cutoff": 4.0,
                  "kt_q": 0.04, "kt_c": 0.12}},
    ),
}
SWEEPS = sorted(name for name, (argv, _) in CASES.items() if argv[0] == "sweep")


def run_case(name: str, out_dir: Path, workers: int = 1) -> dict:
    """Run one case into out_dir; return {file name: bytes} of its outputs,
    the meta.json without its volatile fields."""
    argv, config = CASES[name]
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    pool = [] if workers == 1 else ["--workers", str(workers)]
    code = cli.main(argv + pool + ["--config", str(path), "--out", str(out_dir)])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"golden case {name} exited {code}")
    meta_name = f"{argv[0]}.meta.json"
    meta = json.loads((out_dir / meta_name).read_text())
    files = {meta_name: (json.dumps({k: v for k, v in meta.items()
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
