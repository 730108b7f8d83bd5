"""Strict JSON run configuration for the command-line front end.

A config is a single JSON object with sections model, bath, scan, sweep, and
output; unknown keys anywhere are rejected.  Each section maps onto the
dataclass it configures (ModelParams, BathParams, ScanConfig, SweepSpec and
its AxisSpec axes, and RunConfig for output), which holds the defaults and
the range rules; this module checks only the JSON types.  The defaults give
the reference operating point.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from types import SimpleNamespace
from typing import Optional

from .dissipation import BathParams
from .errors import ConfigError, InvalidParameterError
from .spectrum import ModelParams, _check_scan, _is_finite, _is_int
from .sweep import DEFAULT_N_LEVELS, OBSERVABLE_NAMES, AxisSpec, SweepSpec

SECTIONS = ("model", "bath", "scan", "sweep", "output")


@dataclass(frozen=True)
class ScanConfig:
    """Coupling-axis scan used by the spectrum and critical subcommands."""

    g_min: float = 0.05
    g_max: float = 2.0
    count: int = 81
    n_levels: int = 8
    pairs: tuple = ((0, 1), (1, 2), (2, 3))

    def __post_init__(self):
        _check_scan(self.g_min, self.g_max, self.count, self.pairs)
        if not _is_int(self.n_levels) or self.n_levels < 2:
            raise InvalidParameterError(f"n_levels must be an integer >= 2, got {self.n_levels}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams = field(default_factory=lambda: ModelParams(delta=1.0))
    bath: BathParams = field(default_factory=BathParams)
    scan: ScanConfig = field(default_factory=ScanConfig)
    sweep: Optional[SweepSpec] = None
    scale: str = "linear"
    column: str = "g2"

    def __post_init__(self):
        if self.scale not in ("linear", "log10"):
            raise InvalidParameterError(f"scale must be 'linear' or 'log10', got {self.scale!r}")
        if self.column not in OBSERVABLE_NAMES:
            raise InvalidParameterError(
                f"column must be one of {OBSERVABLE_NAMES}, got {self.column!r}")

    def to_dict(self) -> dict:
        """Canonical JSON form; parsing it back yields an equal RunConfig."""
        out = json.loads(json.dumps(asdict(self)))
        out["output"] = {"scale": out.pop("scale"), "column": out.pop("column")}
        sweep = out.pop("sweep")
        if sweep is not None:
            del sweep["model"], sweep["bath"]  # the model and bath sections
            out["sweep"] = {k: v for k, v in sweep.items() if v is not None}
        return out


def _is_integer(value) -> bool:
    """A JSON integer, or a float with no fractional part; never a bool."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and _is_finite(value) and float(value).is_integer())


def _number(name: str, value, bad: list, integer: bool = False):
    """value as a finite number, or as an int when integer is set; a value of
    the wrong type is recorded in bad."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not _is_finite(value):
        bad.append(name)
    elif not integer:
        return value
    elif _is_integer(value):
        return int(value)
    else:
        bad.append(f"{name} (must be an integer)")
    return value


def _pairs(name: str, value, bad: list):
    """A list of two-integer lists as a tuple of int pairs."""
    if not isinstance(value, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_integer, p)) for p in value):
        bad.append(f"{name} (need a list of [k, k+1] integer pairs)")
        return value
    return tuple((int(lo), int(hi)) for lo, hi in value)


def _names(name: str, value, bad: list):
    if not isinstance(value, list):
        bad.append(name)
        return value
    return tuple(value)


def _flag(name: str, value, bad: list):
    if not isinstance(value, bool):
        bad.append(name)
    return value


def _axis(name: str, value, bad: list):
    """An axis object; axis2 may be null, which makes the sweep 1-D."""
    if value is None and name == "sweep.axis2":
        return None
    return _section(name, AxisSpec, value)


def _section(section: str, cls, data, base=None, readers=None, **given):
    """Build cls from the config section data.

    The keys of data are the fields of cls less those given.  An absent key
    takes its value from base, or the field default when base is None, and
    is required when it has neither.  readers[key] reads a key that needs
    one; any other number must be finite, and integer-valued for an int
    field.  A range rule of cls itself is reported as a ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a JSON object", [section])
    keys = [f for f in fields(cls) if f.name not in given]
    bad = [f"{section}.{k}" for k in data if k not in {f.name for f in keys}]
    kw = dict(given)
    for f in keys:
        name = f"{section}.{f.name}"
        if f.name not in data:
            kw[f.name] = getattr(base, f.name, f.default)
            if kw[f.name] is MISSING:
                bad.append(f"{name} (required)")
        elif f.name in (readers or {}):
            kw[f.name] = readers[f.name](name, data[f.name], bad)
        elif f.type in ("int", "float"):
            kw[f.name] = _number(name, data[f.name], bad, integer=f.type == "int")
        else:
            kw[f.name] = data[f.name]
    if bad:
        raise ConfigError(f"{section} section invalid", bad)
    try:
        return cls(**kw)
    except InvalidParameterError as exc:
        raise ConfigError(f"{section} section invalid: {exc}", [section]) from None


def parse_config(data: dict) -> RunConfig:
    """Validate a config dict strictly and build a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = [k for k in data if k not in SECTIONS]
    if unknown:
        raise ConfigError("unknown config sections", unknown)
    defaults = RunConfig()
    model = _section("model", ModelParams, data.get("model", {}), defaults.model)
    bath = _section("bath", BathParams, data.get("bath", {}), defaults.bath)
    scan = _section("scan", ScanConfig, data.get("scan", {}), defaults.scan,
                    readers={"pairs": _pairs})
    sweep = None
    if "sweep" in data:
        # An absent n_levels reads as the default, or as every level of a smaller model.
        levels = SimpleNamespace(n_levels=min(DEFAULT_N_LEVELS, model.dim))
        sweep = _section("sweep", SweepSpec, data["sweep"], levels, model=model, bath=bath,
                         readers={"axis1": _axis, "axis2": _axis, "observables": _names,
                                  "check_convergence": _flag})
    return _section("output", RunConfig, data.get("output", {}), defaults,
                    model=model, bath=bath, scan=scan, sweep=sweep)


def load_config(path: str) -> RunConfig:
    """Read and strictly parse a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(data)
