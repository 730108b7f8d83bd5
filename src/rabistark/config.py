"""Strict JSON run configuration for the command-line front end.

A config is a single JSON object with sections model, bath, scan, sweep, and
output; unknown keys anywhere are rejected.  Defaults follow the reference
operating point: delta = omega0 = 1, Ohmic baths with alpha = 1e-3, cutoff
10*omega0, and k_B T = 0.07*omega0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .dissipation import DEFAULT_N_LEVELS, BathParams
from .errors import ConfigError, InvalidParameterError
from .spectrum import ModelParams, _is_finite
from .sweep import OBSERVABLE_NAMES, AxisSpec, SweepSpec

MODEL_DEFAULTS = {"delta": 1.0, "omega0": 1.0, "g": 0.0, "r": 1.0, "u": 0.0, "n_tr": 200}
BATH_DEFAULTS = {"alpha_q": 1e-3, "alpha_c": 1e-3, "omega_cutoff": 10.0,
                 "kt_q": 0.07, "kt_c": 0.07}
SCAN_DEFAULTS = {"g_min": 0.05, "g_max": 2.0, "count": 81, "n_levels": 8,
                 "pairs": [[0, 1], [1, 2], [2, 3]]}
AXIS_KEYS = ("name", "min", "max", "count")
SWEEP_KEYS = ("axis1", "axis2", "observables", "n_levels", "check_convergence")
OUTPUT_DEFAULTS = {"scale": "linear", "column": "g2"}
SECTIONS = ("model", "bath", "scan", "sweep", "output")


@dataclass(frozen=True)
class ScanConfig:
    """Coupling-axis scan used by the spectrum and critical subcommands."""

    g_min: float = 0.05
    g_max: float = 2.0
    count: int = 81
    n_levels: int = 8
    pairs: tuple = ((0, 1), (1, 2), (2, 3))


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams = field(default_factory=lambda: ModelParams(**MODEL_DEFAULTS))
    bath: BathParams = field(default_factory=BathParams)
    scan: ScanConfig = field(default_factory=ScanConfig)
    sweep: Optional[SweepSpec] = None
    scale: str = "linear"
    column: str = "g2"

    def to_dict(self) -> dict:
        """Canonical dict form; parsing it back yields an equal RunConfig."""
        out = {
            "model": {k: getattr(self.model, k) for k in MODEL_DEFAULTS},
            "bath": {k: getattr(self.bath, k) for k in BATH_DEFAULTS},
            "scan": {
                "g_min": self.scan.g_min, "g_max": self.scan.g_max,
                "count": self.scan.count, "n_levels": self.scan.n_levels,
                "pairs": [list(p) for p in self.scan.pairs],
            },
            "output": {"scale": self.scale, "column": self.column},
        }
        if self.sweep is not None:
            sweep = {
                "axis1": dict(zip(AXIS_KEYS, (self.sweep.axis1.name, self.sweep.axis1.min,
                                              self.sweep.axis1.max, self.sweep.axis1.count))),
                "observables": list(self.sweep.observables),
                "n_levels": self.sweep.n_levels,
                "check_convergence": self.sweep.check_convergence,
            }
            if self.sweep.axis2 is not None:
                sweep["axis2"] = dict(zip(AXIS_KEYS, (self.sweep.axis2.name, self.sweep.axis2.min,
                                                      self.sweep.axis2.max, self.sweep.axis2.count)))
            out["sweep"] = sweep
        return out


def _check_keys(section: str, data: dict, allowed) -> list[str]:
    return [f"{section}.{k}" for k in data if k not in allowed]


def _is_integer(value) -> bool:
    """A JSON integer, or a float with no fractional part; never a bool."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and _is_finite(value) and float(value).is_integer())


def _number(section: str, data: dict, key: str, default, bad: list, integer: bool = False):
    """data[key] (default when absent) as a finite number, or as an int when
    integer is set; a value of the wrong type is recorded in bad and the
    default returned."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not _is_finite(value):
        bad.append(f"{section}.{key}")
        return default
    if integer:
        if not _is_integer(value):
            bad.append(f"{section}.{key} (must be an integer)")
            return default
        return int(value)
    return value


def _axis(name: str, data, bad: list) -> Optional[AxisSpec]:
    if data is None:
        return None
    if not isinstance(data, dict):
        bad.append(name)
        return None
    bad.extend(_check_keys(name, data, AXIS_KEYS))
    missing = [k for k in AXIS_KEYS if k not in data]
    if missing:
        bad.extend(f"{name}.{k}" for k in missing)
        return None
    lo = _number(name, data, "min", None, bad)
    hi = _number(name, data, "max", None, bad)
    count = _number(name, data, "count", None, bad, integer=True)
    if None in (lo, hi, count):
        return None
    try:
        return AxisSpec(name=str(data["name"]), min=float(lo), max=float(hi), count=count)
    except InvalidParameterError as exc:
        bad.append(f"{name} ({exc})")
        return None


def parse_config(data: dict) -> RunConfig:
    """Validate a config dict strictly and build a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    bad = _check_keys("", data, SECTIONS)
    bad = [b.lstrip(".") for b in bad]

    for section in SECTIONS:
        if section in data and not isinstance(data[section], dict):
            bad.append(section)
    if bad:
        raise ConfigError("unknown or malformed config entries", bad)

    model_in = data.get("model", {})
    bath_in = data.get("bath", {})
    scan_in = data.get("scan", {})
    output_in = data.get("output", {})
    bad.extend(_check_keys("model", model_in, MODEL_DEFAULTS))
    bad.extend(_check_keys("bath", bath_in, BATH_DEFAULTS))
    bad.extend(_check_keys("scan", scan_in, SCAN_DEFAULTS))
    bad.extend(_check_keys("output", output_in, OUTPUT_DEFAULTS))
    if bad:
        raise ConfigError("unknown config keys", bad)

    model_kw = {k: _number("model", model_in, k, MODEL_DEFAULTS[k], bad, integer=k == "n_tr")
                for k in MODEL_DEFAULTS}
    bath_kw = {k: _number("bath", bath_in, k, BATH_DEFAULTS[k], bad) for k in BATH_DEFAULTS}
    if bad:
        raise ConfigError("config values have wrong types or are not finite", bad)

    try:
        model = ModelParams(**model_kw)
    except InvalidParameterError as exc:
        raise ConfigError(f"model section invalid: {exc}", ["model"]) from None
    try:
        bath = BathParams(**bath_kw)
    except InvalidParameterError as exc:
        raise ConfigError(f"bath section invalid: {exc}", ["bath"]) from None

    scan_kw = {
        "g_min": _number("scan", scan_in, "g_min", SCAN_DEFAULTS["g_min"], bad),
        "g_max": _number("scan", scan_in, "g_max", SCAN_DEFAULTS["g_max"], bad),
        "count": _number("scan", scan_in, "count", SCAN_DEFAULTS["count"], bad, integer=True),
        "n_levels": _number("scan", scan_in, "n_levels", SCAN_DEFAULTS["n_levels"], bad,
                            integer=True),
    }
    pairs_in = scan_in.get("pairs", SCAN_DEFAULTS["pairs"])
    pairs = []
    if not isinstance(pairs_in, list) or not pairs_in:
        bad.append("scan.pairs (need a list of at least one pair)")
    else:
        for p in pairs_in:
            if (not isinstance(p, list) or len(p) != 2 or not all(map(_is_integer, p))
                    or p[1] != p[0] + 1 or p[0] < 0):
                bad.append(f"scan.pairs entry {p!r}")
            else:
                pairs.append((int(p[0]), int(p[1])))
    if scan_kw["count"] < 8:
        bad.append("scan.count (must be >= 8)")
    if not scan_kw["g_min"] < scan_kw["g_max"]:
        bad.append("scan.g_min/g_max (need g_min < g_max)")
    if scan_kw["n_levels"] < 2:
        bad.append("scan.n_levels (must be >= 2)")
    if bad:
        raise ConfigError("scan section invalid", bad)
    scan = ScanConfig(pairs=tuple(pairs), **scan_kw)

    sweep = None
    if "sweep" in data:
        sweep_in = data["sweep"]
        bad.extend(_check_keys("sweep", sweep_in, SWEEP_KEYS))
        if "axis1" not in sweep_in:
            bad.append("sweep.axis1 (required)")
        if bad:
            raise ConfigError("sweep section invalid", bad)
        axis1 = _axis("sweep.axis1", sweep_in["axis1"], bad)
        axis2 = _axis("sweep.axis2", sweep_in.get("axis2"), bad)
        observables = sweep_in.get("observables", list(OBSERVABLE_NAMES))
        if not isinstance(observables, list) or any(o not in OBSERVABLE_NAMES for o in observables):
            bad.append("sweep.observables")
        n_levels = _number("sweep", sweep_in, "n_levels", DEFAULT_N_LEVELS, bad, integer=True)
        if n_levels < 2:
            bad.append("sweep.n_levels (must be >= 2)")
        check_convergence = sweep_in.get("check_convergence", True)
        if not isinstance(check_convergence, bool):
            bad.append("sweep.check_convergence")
        if bad or axis1 is None:
            raise ConfigError("sweep section invalid", bad or ["sweep.axis1"])
        try:
            sweep = SweepSpec(
                model=model, bath=bath, axis1=axis1, axis2=axis2,
                observables=tuple(observables), n_levels=n_levels,
                check_convergence=check_convergence,
            )
        except InvalidParameterError as exc:
            raise ConfigError(f"sweep section invalid: {exc}", ["sweep"]) from None

    scale = output_in.get("scale", OUTPUT_DEFAULTS["scale"])
    column = output_in.get("column", OUTPUT_DEFAULTS["column"])
    if scale not in ("linear", "log10"):
        bad.append("output.scale (must be 'linear' or 'log10')")
    if column not in OBSERVABLE_NAMES:
        bad.append("output.column")
    if bad:
        raise ConfigError("output section invalid", bad)

    return RunConfig(model=model, bath=bath, scan=scan, sweep=sweep,
                     scale=scale, column=column)


def load_config(path: str) -> RunConfig:
    """Read and strictly parse a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(data)
