import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rabistark as rs
from rabistark.cli import format_number, main
from rabistark.config import load_config, parse_config
from rabistark.sweep import AXIS_NAMES, OBSERVABLE_NAMES

THERMAL_CONFIG = {
    "model": {"delta": 1.0, "g": 1e-6, "r": 0.2, "u": 0.0, "n_tr": 50},
    "bath": {"kt_q": 0.07, "kt_c": 0.07},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- formatting

def test_format_number_rules():
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(1.5) == "1.5"
    assert format_number(-0.134846523636) == "-0.134846523636"
    assert format_number(123456.789012345) == "123456.789012"  # 12 significant digits
    assert format_number(1e6) == "1e+06"
    assert format_number(2.5e-7) == "2.5e-07"
    assert format_number(6.24875341415258e-07) == "6.24875341415e-07"
    assert format_number(float("nan")) == ""
    assert format_number(float("inf")) == ""


def reference_format_number(x):
    """The CSV number format computed through decimal.Decimal: the reference
    that format_number must equal."""
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


signs = st.sampled_from((1.0, -1.0))
# Any float, log-uniform magnitudes over 1e-8..1e8, and 12 significant digits
# followed by a 5: a tie in decimal, just above or below one in binary.
numbers = st.one_of(
    st.floats(),
    st.builds(lambda s, m, e: s * m * 10.0**e, signs, st.floats(1.0, 10.0), st.integers(-8, 7)),
    st.builds(lambda s, d, e: s * float(f"{d}5e{e}"), signs,
              st.integers(10**11, 10**12 - 1), st.integers(-20, -4)),
)


@settings(max_examples=500, deadline=None)
@given(numbers)
@example(999999.9999995)
@example(999999.99999949)
@example(999999.9999996)       # rounds up to 1e6 but stays fixed point
@example(1e6)
@example(1e-6)
@example(9.999999999995e-7)
@example(9.9999999999996e-7)   # rounds up to 1e-06 but stays scientific
@example(5e-324)
@example(-0.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_format_number_matches_decimal_reference(x):
    assert format_number(x) == reference_format_number(x)


# ------------------------------------------------------------------- config

def test_config_defaults_and_roundtrip():
    cfg = parse_config({})
    assert cfg.model.delta == 1.0
    assert cfg.model.n_tr == 200
    assert cfg.bath.alpha_q == 1e-3
    assert cfg.bath.omega_cutoff == 10.0
    assert cfg.bath.kt_c == 0.07
    assert parse_config(cfg.to_dict()) == cfg

    full = parse_config({
        "model": {"delta": 1.2, "g": 0.4, "r": 0.3, "u": -0.2, "n_tr": 80},
        "bath": {"alpha_c": 2e-3},
        "scan": {"g_min": 0.1, "g_max": 1.0, "count": 11, "pairs": [[0, 1]]},
        "sweep": {"axis1": {"name": "g", "min": 0.1, "max": 1.0, "count": 5},
                  "axis2": {"name": "u", "min": -0.5, "max": 0.5, "count": 4},
                  "n_levels": 24},
        "output": {"scale": "log10", "column": "g3"},
    })
    assert parse_config(full.to_dict()) == full


def readme_config():
    """The example config of README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


# Axis bounds are echoed as floats; every other number keeps its JSON type,
# with integer fields as ints.
INTEGER_CONFIG = {
    "model": {"delta": 2, "g": 1, "n_tr": 30.0},
    "bath": {"kt_c": 0},
    "scan": {"g_min": 0, "g_max": 2, "count": 9.0, "n_levels": 4.0, "pairs": [[0.0, 1]]},
    "sweep": {"axis1": {"name": "u", "min": 0, "max": 1, "count": 3},
              "axis2": {"name": "kt", "min": -1, "max": 2, "count": 2.0},
              "n_levels": 12.0},
}
ECHO_DEFAULT = (
    '{"bath": {"alpha_c": 0.001, "alpha_q": 0.001, "kt_c": 0.07, "kt_q": 0.07, '
    '"omega_cutoff": 10.0}, "model": {"delta": 1.0, "g": 0.0, "n_tr": 200, '
    '"omega0": 1.0, "r": 1.0, "u": 0.0}, "output": {"column": "g2", "scale": "linear"}, '
    '"scan": {"count": 81, "g_max": 2.0, "g_min": 0.05, "n_levels": 8, "pairs": [[0, 1], '
    '[1, 2], [2, 3]]}}'
)
ECHO_README = (
    '{"bath": {"alpha_c": 0.001, "alpha_q": 0.001, "kt_c": 0.07, "kt_q": 0.07, '
    '"omega_cutoff": 10.0}, "model": {"delta": 1.0, "g": 0.5, "n_tr": 120, '
    '"omega0": 1.0, "r": 0.2, "u": 0.2}, "output": {"column": "g2", "scale": "log10"}, '
    '"scan": {"count": 81, "g_max": 2.0, "g_min": 0.05, "n_levels": 8, "pairs": [[0, 1], '
    '[1, 2], [2, 3]]}, "sweep": {"axis1": {"count": 41, "max": 2.0, "min": 0.05, '
    '"name": "g"}, "axis2": {"count": 41, "max": 2.5, "min": 0.05, "name": "r"}, '
    '"check_convergence": true, "n_levels": 40, "observables": ["g2", "g3", "xi_b2", '
    '"n_photon", "flux_proxy"]}}'
)
ECHO_INTEGER = (
    '{"bath": {"alpha_c": 0.001, "alpha_q": 0.001, "kt_c": 0, "kt_q": 0.07, '
    '"omega_cutoff": 10.0}, "model": {"delta": 2, "g": 1, "n_tr": 30, "omega0": 1.0, '
    '"r": 1.0, "u": 0.0}, "output": {"column": "g2", "scale": "linear"}, '
    '"scan": {"count": 9, "g_max": 2, "g_min": 0, "n_levels": 4, "pairs": [[0, 1]]}, '
    '"sweep": {"axis1": {"count": 3, "max": 1.0, "min": 0.0, "name": "u"}, '
    '"axis2": {"count": 2, "max": 2.0, "min": -1.0, "name": "kt"}, '
    '"check_convergence": true, "n_levels": 12, "observables": ["g2", "g3", "g2_approx", '
    '"g3_approx", "xi_b2", "n_photon", "flux_proxy"]}}'
)


def test_config_echo_is_pinned():
    for data, echo in (({}, ECHO_DEFAULT), (readme_config(), ECHO_README),
                       (INTEGER_CONFIG, ECHO_INTEGER)):
        assert json.dumps(parse_config(data).to_dict(), sort_keys=True) == echo


def axes(name):
    """Valid axes; integer bounds give a JSON-integer max too."""
    return st.builds(lambda lo, span, count: {"name": name, "min": lo, "max": lo + span,
                                              "count": count},
                     st.integers(-5, 5) | st.floats(-5, 5),
                     st.integers(1, 5) | st.floats(0.01, 5), st.integers(2, 60))


@st.composite
def valid_configs(draw):
    names = draw(st.permutations(AXIS_NAMES))
    floats = st.floats(0.05, 3.0)
    sweep = st.fixed_dictionaries({"axis1": axes(names[0])}, optional={
        "axis2": axes(names[1]),
        "observables": st.lists(st.sampled_from(OBSERVABLE_NAMES), min_size=1, unique=True),
        "n_levels": st.integers(4, 60),
        "check_convergence": st.booleans(),
    })
    data = draw(st.fixed_dictionaries({}, optional={
        "model": st.fixed_dictionaries({}, optional={
            "delta": floats, "g": st.integers(0, 3) | floats, "r": floats,
            "u": st.floats(-0.9, 0.9), "n_tr": st.integers(2, 300)}),
        "bath": st.fixed_dictionaries({}, optional={"alpha_c": floats, "kt_q": st.floats(0, 1)}),
        "scan": st.fixed_dictionaries({}, optional={
            "count": st.integers(8, 200), "n_levels": st.integers(2, 20),
            "pairs": st.lists(st.integers(0, 10), min_size=1, unique=True).map(
                lambda ks: [[k, k + 1] for k in ks])}),
        "sweep": sweep,
        "output": st.fixed_dictionaries({}, optional={
            "scale": st.sampled_from(["linear", "log10"]),
            "column": st.sampled_from(OBSERVABLE_NAMES)}),
    }))
    # A sweep may use no more levels than the model has.
    levels = 2 * (data.get("model", {}).get("n_tr", 200) + 1)
    assume(data.get("sweep", {}).get("n_levels", 4) <= levels)
    return data


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_config_echo_round_trips_through_json(data):
    cfg = parse_config(data)
    assert parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(rs.ConfigError) as err:
        parse_config({"model": {"delta": 1.0, "coupling": 2.0}})
    assert "model.coupling" in str(err.value)
    with pytest.raises(rs.ConfigError):
        parse_config({"extra_section": {}})
    with pytest.raises(rs.ConfigError):
        parse_config({"sweep": {"axis1": {"name": "g", "min": 0, "max": 1,
                                          "count": 4, "step": 0.1}}})


def test_config_rejects_bad_values():
    with pytest.raises(rs.ConfigError) as err:
        parse_config({"model": {"n_tr": -3}})
    assert "model" in str(err.value)
    with pytest.raises(rs.ConfigError):
        parse_config({"model": {"delta": "one"}})
    with pytest.raises(rs.ConfigError):
        parse_config({"output": {"scale": "cubehelix"}})
    with pytest.raises(rs.ConfigError):
        parse_config({"scan": {"g_min": 2.0, "g_max": 1.0}})
    with pytest.raises(rs.ConfigError):
        parse_config({"sweep": {"axis1": {"name": "g", "min": 0, "max": 1, "count": 3},
                                "axis2": {"name": "g", "min": 0, "max": 2, "count": 3}}})
    axis = {"name": "g", "min": 0.1, "max": 0.5, "count": 5}
    for data in ({"scan": {"count": 81.5}}, {"scan": {"n_levels": 8.7}},
                 {"sweep": {"axis1": dict(axis, count=4.9)}},
                 {"sweep": {"axis1": dict(axis, min="0.1")}},
                 {"sweep": {"axis1": dict(axis, count="5")}},
                 {"scan": {"pairs": [[True, 2]]}}, {"scan": {"pairs": []}},
                 {"sweep": {"axis1": axis, "n_levels": 40.5}},
                 {"sweep": {"axis1": axis, "n_levels": "40"}},
                 {"sweep": {"axis1": axis, "n_levels": True}},
                 {"sweep": {"axis1": axis, "n_levels": 1}},
                 {"sweep": {"axis1": axis, "n_levels": 2}},
                 {"sweep": {"axis1": axis, "n_levels": 3}},
                 {"scan": {"count": 7}}, {"scan": {"n_levels": 1}},
                 {"scan": {"pairs": [[0, 2]]}}, {"scan": {"pairs": [[0, 1], [0, 1]]}},
                 {"output": {"column": "eta1"}},
                 {"sweep": {"axis1": axis, "observables": []}},
                 {"model": {"n_tr": 12}, "sweep": {"axis1": axis, "n_levels": 27}}):
        with pytest.raises(rs.ConfigError):
            parse_config(data)
    # sweep.n_levels follows the integer rule of every other integer field.
    sweep = parse_config({"sweep": {"axis1": axis, "n_levels": 40.0}}).sweep
    assert sweep.n_levels == 40 and isinstance(sweep.n_levels, int)
    # Up to every level of the model; an absent n_levels takes no more than that.
    for n_levels in (26, None):
        data = {"model": {"n_tr": 12}, "sweep": {"axis1": axis, "n_levels": n_levels}}
        if n_levels is None:
            del data["sweep"]["n_levels"]
        cfg = parse_config(data)
        assert cfg.sweep.n_levels == 26 and cfg.to_dict()["sweep"]["n_levels"] == 26


# ---------------------------------------------------------------------- cli

def test_cli_spectrum_jc_row(tmp_path):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.1, "r": 0.0, "u": 0.0, "n_tr": 20},
        "scan": {"g_min": 0.0, "g_max": 0.2, "count": 9, "n_levels": 3},
    })
    out = tmp_path / "run"
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["g", "e0", "e1", "e2", "p0", "p1", "p2"]
    by_g = {row[0]: row for row in rows}
    jc = by_g["0.1"]
    assert [float(v) for v in jc[1:4]] == pytest.approx([-0.5, 0.4, 0.6], abs=1e-9)
    decoupled = by_g["0"]
    assert [float(v) for v in decoupled[1:4]] == pytest.approx([-0.5, 0.5, 0.5], abs=1e-9)
    meta = json.loads((out / "spectrum.meta.json").read_text())
    assert meta["command"] == "spectrum"
    assert parse_config(meta["config"]) == load_config(config)


def test_cli_sweep_meta_echoes_scale_override(tmp_path):
    # --scale overrides the config's scale, and the meta.json echo reparses
    # to the configuration the run used.
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 0.2, "u": 0.2, "n_tr": 20},
        "sweep": {"axis1": {"name": "g", "min": 0.2, "max": 1.0, "count": 2},
                  "axis2": {"name": "kt", "min": 0.05, "max": 0.1, "count": 2},
                  "n_levels": 8, "check_convergence": False},
    })
    assert load_config(config).scale == "linear"
    out = tmp_path / "scaled"
    assert main(["sweep", "--config", config, "--out", str(out), "--plot",
                 "--scale", "log10"]) == 0
    meta = json.loads((out / "sweep.meta.json").read_text())
    echoed = parse_config(meta["config"])
    assert echoed.scale == "log10"
    assert echoed == replace(load_config(config), scale="log10")


def test_cli_critical_jc_and_isotropic(tmp_path):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 0.0, "u": 0.0, "n_tr": 40},
        "scan": {"g_min": 0.8, "g_max": 1.2, "count": 9, "pairs": [[0, 1]]},
    })
    out = tmp_path / "jc"
    assert main(["critical", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "critical.csv")
    assert header == ["kind", "level_low", "level_high", "g", "half_width"]
    assert rows[0][0] == "analytic"
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-9)
    crossings = [row for row in rows if row[0] == "crossing"]
    assert len(crossings) == 1
    assert float(crossings[0][3]) == pytest.approx(1.0, abs=0.01)

    config2 = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 1.0, "u": 0.0, "n_tr": 40},
        "scan": {"g_min": 0.2, "g_max": 1.6, "count": 9, "pairs": [[0, 1]]},
    }, name="qrm.json")
    out2 = tmp_path / "qrm"
    assert main(["critical", "--config", config2, "--out", str(out2)]) == 0
    header, rows = read_csv(out2 / "critical.csv")
    assert rows[0][0] == "analytic" and rows[0][3] == ""
    assert len(rows) == 1  # no crossings detected


def test_cli_observables_thermal_point(tmp_path):
    config = write_config(tmp_path, THERMAL_CONFIG)
    out = tmp_path / "obs"
    assert main(["observables", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "observables.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["g2"]) == pytest.approx(2.0, abs=1e-3)
    assert float(row["g3"]) == pytest.approx(6.0, abs=1e-2)
    n_th = 1.0 / (math.exp(1.0 / 0.07) - 1.0)
    assert float(row["xi_b2"]) == pytest.approx(1.0 + 2 * n_th, abs=1e-6)
    assert row["error_code"] == "0"
    assert row["converged"] == "1"


def test_cli_critical_anchor_point(tmp_path):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 0.2, "u": 0.2, "n_tr": 100},
        "scan": {"g_min": 0.05, "g_max": 2.0, "count": 48,
                 "pairs": [[0, 1], [1, 2], [2, 3]]},
    })
    out = tmp_path / "anchor"
    assert main(["critical", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "critical.csv")
    analytic = [row for row in rows if row[0] == "analytic"]
    assert float(analytic[0][3]) == pytest.approx(0.9066, abs=0.0005)
    found = [float(row[3]) for row in rows if row[0] == "crossing"]
    for center, tol in ((0.91, 0.01), (0.38, 0.02), (1.59, 0.02)):
        assert any(abs(v - center) < tol for v in found), (center, found)


def test_cli_critical_past_squared_hop_overflow(tmp_path):
    # g sqrt(n_tr) above ~1e154 overflows the squared hops of an unscaled
    # bisection; the scan solves it, with no crossing at such couplings.
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "r": 0.2, "u": 0.2, "n_tr": 30},
        "scan": {"g_min": 1e154, "g_max": 2e154},
    })
    out = tmp_path / "huge"
    assert main(["critical", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "critical.csv")
    assert [row[0] for row in rows] == ["analytic"]


def test_cli_observables_squeezed_point(tmp_path):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.8, "r": 0.5, "u": 0.0, "n_tr": 80},
    })
    out = tmp_path / "squeezed"
    assert main(["observables", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "observables.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["xi_b2"]) < 1.0


def test_cli_sweep_mini_replica_mixed_statistics(tmp_path):
    # Coarse replica of the coupling-anisotropy map at u = 0.2: the table
    # must contain both antibunched (g2 < 1) and bunched (g2 > 1) cells.
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 0.2, "u": 0.2, "n_tr": 60},
        "sweep": {"axis1": {"name": "g", "min": 0.05, "max": 2.0, "count": 21},
                  "axis2": {"name": "r", "min": 0.05, "max": 2.5, "count": 21},
                  "n_levels": 30, "check_convergence": False},
    })
    out = tmp_path / "map"
    assert main(["sweep", "--config", config, "--out", str(out), "--workers", "2"]) == 0
    header, rows = read_csv(out / "sweep.csv")
    idx = header.index("g2")
    values = [float(row[idx]) for row in rows if row[idx] != ""]
    assert len(values) == 441
    assert any(v < 1.0 for v in values)
    assert any(v > 1.0 for v in values)


def test_cli_observables_zero_temperature(tmp_path):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 0.5, "u": 0.1, "n_tr": 40},
        "bath": {"kt_q": 0.0, "kt_c": 0.0},
    })
    out = tmp_path / "cold"
    assert main(["observables", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "observables.csv")
    row = dict(zip(header, rows[0]))
    assert row["error_code"] == "1"  # zero flux
    for column in ("g2", "g3", "xi_b2", "n_photon", "flux_proxy"):
        assert row[column] == ""


def test_cli_observables_overflowing_elimination(tmp_path):
    # At omega0 = 1e-300 the rates overflow the steady-state elimination:
    # error code 3 with the observable cells empty, and no RuntimeWarning
    # (the suite turns one into an error).
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 0.5, "n_tr": 10, "omega0": 1e-300}})
    out = tmp_path / "overflow"
    assert main(["observables", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "observables.csv")
    row = dict(zip(header, rows[0]))
    assert row["error_code"] == "3"
    for column in ("g2", "g3", "xi_b2", "n_photon", "flux_proxy"):
        assert row[column] == ""


def test_cli_observables_reports_a_point_error_on_stderr(tmp_path, capsys):
    # An error-coded point still exits 0 with its row written; the reason
    # goes to stderr, one line.
    config = write_config(tmp_path, {"model": {"omega0": 1e-300, "n_tr": 12}})
    out = tmp_path / "overflow"
    assert main(["observables", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("point error_code 3: steady-state elimination "
                                       "overflowed: rates out of floating-point range\n")
    header, rows = read_csv(out / "observables.csv")
    assert dict(zip(header, rows[0]))["error_code"] == "3"
    assert json.loads((out / "observables.meta.json").read_text())["outputs"] == [
        "observables.csv"]


def test_cli_sweep_deterministic_with_plot(tmp_path):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.5, "r": 0.2, "u": 0.2, "n_tr": 40},
        "sweep": {"axis1": {"name": "g", "min": 0.2, "max": 1.4, "count": 4},
                  "axis2": {"name": "kt", "min": 0.0, "max": 0.1, "count": 3},
                  "n_levels": 16, "check_convergence": False},
        "output": {"column": "g2", "scale": "log10"},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", config, "--out", str(out1), "--plot",
                 "--workers", "2"]) == 0
    assert main(["sweep", "--config", config, "--out", str(out2), "--plot",
                 "--workers", "1"]) == 0
    csv1 = (out1 / "sweep.csv").read_bytes()
    csv2 = (out2 / "sweep.csv").read_bytes()
    assert csv1 == csv2
    svg1 = (out1 / "heatmap_g2.svg").read_bytes()
    svg2 = (out2 / "heatmap_g2.svg").read_bytes()
    assert svg1 == svg2
    # zero-temperature column is error-coded and renders as missing data
    assert b"#BBBBBB" in svg1
    header, rows = read_csv(out1 / "sweep.csv")
    zero_kt_rows = [row for row in rows if row[header.index("kt")] == "0"]
    assert zero_kt_rows and all(r[header.index("error_code")] == "1" for r in zero_kt_rows)


def test_cli_requested_observable_subset(tmp_path):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.4, "r": 0.4, "u": 0.0, "n_tr": 40},
        "sweep": {"axis1": {"name": "g", "min": 0.2, "max": 0.6, "count": 2},
                  "observables": ["n_photon"], "n_levels": 12,
                  "check_convergence": False},
    })
    out = tmp_path / "subset"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    for row in rows:
        record = dict(zip(header, row))
        assert record["n_photon"] != ""
        assert record["g2"] == "" and record["xi_b2"] == ""
        assert record["error_code"] == "0"


def test_cli_unchecked_convergence_is_empty(tmp_path):
    # With the check off, converged is an empty cell, not 0 ("did not
    # converge"), on ok rows and error-coded rows alike.
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "g": 0.4, "r": 0.4, "u": 0.0, "n_tr": 30},
        "sweep": {"axis1": {"name": "u", "min": 0.5, "max": 1.5, "count": 3},
                  "n_levels": 12, "check_convergence": False},
    })
    out = tmp_path / "unchecked"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    records = [dict(zip(header, row)) for row in rows]
    assert [r["error_code"] for r in records] == ["0", "4", "4"]
    assert all(r["converged"] == "" for r in records)


def test_cli_rejects_workers_below_one(tmp_path, capsys):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "n_tr": 20},
        "sweep": {"axis1": {"name": "g", "min": 0.1, "max": 0.5, "count": 3}},
    })
    for workers in ("0", "-3"):
        out = tmp_path / f"w{workers}"
        assert main(["sweep", "--config", config, "--out", str(out),
                     "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


def test_cli_plot_rejects_1d_sweep_before_running(tmp_path, capsys):
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "n_tr": 20},
        "sweep": {"axis1": {"name": "g", "min": 0.1, "max": 0.5, "count": 3}},
    })
    out = tmp_path / "plot1d"
    assert main(["sweep", "--config", config, "--out", str(out), "--plot"]) == 2
    assert "axis2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    bad = write_config(tmp_path, {"model": {"n_tr": -3}})
    assert main(["spectrum", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    assert "n_tr" in capsys.readouterr().err

    assert main(["spectrum", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 4

    # Malformed JSON, bytes that are not UTF-8, and nesting deeper than the
    # parser's recursion limit are all config errors, not tracebacks.
    not_json = tmp_path / "broken.json"
    for data in (b"{not json", b'{"model": {"g": 0.5\xff}}', b"[" * 200_000 + b"]" * 200_000):
        not_json.write_bytes(data)
        assert main(["spectrum", "--config", str(not_json),
                     "--out", str(tmp_path / "x")]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    no_sweep = write_config(tmp_path, {"model": {"delta": 1.0, "n_tr": 20}},
                            name="nosweep.json")
    out = tmp_path / "nosweep"
    assert main(["sweep", "--config", no_sweep, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()

    # An --out that names a regular file is an I/O failure; the file is kept.
    small = write_config(tmp_path, {"model": {"n_tr": 4}}, name="small.json")
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    assert main(["observables", "--config", small, "--out", str(taken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O failure:") and "Traceback" not in err
    assert taken.read_bytes() == b"not a directory\n"

    def fail(*args, **kwargs):
        raise rs.NumericFailureError("no crossing bracket")

    monkeypatch.setattr(rs.cli, "find_crossings", fail)
    out = tmp_path / "critical"
    assert main(["critical", "--config", small, "--out", str(out)]) == 3
    assert "numeric failure: no crossing bracket" in capsys.readouterr().err
    assert not out.exists()


# One field of a critical config and a value the config rules reject there.
CRITICAL_BREAKS = [("model", "delta", 0.0), ("model", "delta", -1.0), ("model", "u", 1.0),
                   ("model", "u", -1.0), ("model", "n_tr", 1), ("model", "n_tr", 2.5),
                   ("model", "n_tr", "12"), ("scan", "g_min", -0.1), ("scan", "g_max", 1e308),
                   ("scan", "count", 7), ("scan", "count", 8.5), ("scan", "count", True),
                   ("scan", "pairs", [[0, 2]]), ("scan", "pairs", [[170, 171]]),
                   ("scan", "pairs", [])]


@st.composite
def critical_configs(draw):
    """Tiny `critical` configs near the validity edges: n_tr from 2, |u| next
    to omega0, g = 0, a window up to near the chain overflow, the fewest
    steps; in about one of three, one field broken (CRITICAL_BREAKS)."""
    model = {
        "delta": draw(st.one_of(st.sampled_from([1.0, 1e-6]), st.floats(0.05, 3.0))),
        "r": draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0))),
        "u": draw(st.one_of(st.sampled_from([-0.999999, 0.999999]), st.floats(-0.99, 0.99))),
        "n_tr": draw(st.integers(2, 80)),
    }
    g_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    g_max = draw(st.one_of(st.floats(1e-6, 4.0).map(lambda w: g_min + w),
                           st.sampled_from([1e150, 1e305])))
    scan = {"g_min": g_min, "g_max": g_max, "count": draw(st.integers(8, 24)),
            "pairs": draw(st.sampled_from([[[0, 1]], [[0, 1], [1, 2], [2, 3]],
                                           [[1, 2], [4, 5]], [[2, 3], [0, 1]]]))}
    config = {"model": model, "scan": scan}
    broken = draw(st.one_of(st.just(None), st.just(None), st.sampled_from(CRITICAL_BREAKS)))
    if broken is not None:
        section, key, value = broken
        config[section][key] = value
    return config


@settings(max_examples=500, deadline=None)
@given(critical_configs())
@example({"model": {"delta": 1.0, "r": 1.0, "u": 0.2, "n_tr": 80},
          "scan": {"g_min": 0.0, "g_max": 3.0, "count": 24, "pairs": [[0, 1], [1, 2], [2, 3]]}})
def test_cli_critical_property(config):
    # Any critical config exits 0, 2 or 3 with no traceback, and an exit 2
    # or 3 leaves no --out.  On exit 0 the crossings are ascending, inside the
    # window, and refined to a half-width of at most (g_max - g_min) / 2^14.
    # n_tr up to 80 runs the scan on a head of the chains.
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp) / "config.json", Path(tmp) / "out", io.StringIO()
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stderr(err):
            code = main(["critical", "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert not out.exists()
            return
        _, rows = read_csv(out / "critical.csv")
    scan = config["scan"]
    width = scan["g_max"] - scan["g_min"]
    values = [float(row[3]) for row in rows if row[0] == "crossing"]
    assert values == sorted(values)
    assert all(scan["g_min"] * (1 - 1e-11) <= g <= scan["g_max"] * (1 + 1e-11) for g in values)
    assert all(float(row[4]) <= width / 2**14 * (1 + 1e-11) for row in rows if row[0] == "crossing")


def test_cli_rejects_scan_beyond_spectrum(tmp_path, capsys):
    # n_tr=2 gives 6 levels: level 7 (the default n_levels 8) and pair (10, 11)
    # do not exist.
    for command, scan in (("spectrum", {}), ("critical", {"pairs": [[10, 11]]})):
        config = write_config(tmp_path, {"model": {"n_tr": 2}, "scan": scan},
                              name=f"{command}.json")
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_negative_scan_start(tmp_path, capsys):
    # A negative coupling is a config error, found before any spectrum is solved.
    config = write_config(tmp_path, {"model": {"n_tr": 20}, "scan": {"g_min": -0.1}})
    for command in ("spectrum", "critical"):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_scan_window_past_chain_overflow(tmp_path, capsys, monkeypatch):
    # The chains' Gershgorin bound grows with g: a window whose chains overflow
    # at scan.g_max is a config error, found before any coupling is solved.
    solves, bisect = [], rs.spectrum._bisect
    monkeypatch.setattr(rs.spectrum, "_bisect", lambda *args: solves.append(args) or bisect(*args))
    config = write_config(tmp_path, {"model": {"n_tr": 30}, "scan": {"g_max": 1e307}})
    for command in ("spectrum", "critical"):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "scan.g_max" in err
        assert not out.exists()
    assert solves == []
    with pytest.raises(rs.InvalidParameterError):
        rs.find_crossings(rs.ModelParams(delta=1.0, n_tr=30), 0.0, 1e307, 9)
    assert solves == []


def test_cli_plot_rejects_unrequested_column_before_running(tmp_path, capsys):
    # The CSV leaves an unrequested observable blank, so the heatmap may not plot it.
    config = write_config(tmp_path, {
        "model": {"delta": 1.0, "n_tr": 20},
        "sweep": {"axis1": {"name": "g", "min": 0.1, "max": 0.5, "count": 2},
                  "axis2": {"name": "kt", "min": 0.05, "max": 0.1, "count": 2},
                  "observables": ["g3"], "n_levels": 12},
    })
    out = tmp_path / "plot-g2"
    assert main(["sweep", "--config", config, "--out", str(out), "--plot"]) == 2
    assert "output.column" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_of_memory_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # An input too large to allocate exits 3 with one line, not a traceback.
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(rs.cli, "run_sweep", exhaust)
    monkeypatch.setattr(rs.cli, "evaluate_point", exhaust)
    config = write_config(tmp_path, {
        "model": {"n_tr": 20},
        "sweep": {"axis1": {"name": "g", "min": 0.1, "max": 0.5, "count": 3}},
    })
    for command in ("sweep", "observables"):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: out of memory: Unable to allocate 7.28 TiB\n"
        assert not out.exists()

    # numpy refuses a size past intp with a ValueError, before it allocates.
    axis = {"name": "g", "min": 0.1, "max": 0.5, "count": 1e19}
    for k, (command, data) in enumerate((
        ("sweep", {"model": {"n_tr": 12}, "sweep": {"axis1": axis}}),
        ("spectrum", {"model": {"n_tr": 12}, "scan": {"count": 1e300}}),
        ("critical", {"model": {"n_tr": 12}, "scan": {"count": 1e300}}),
        ("observables", {"model": {"n_tr": 1e300}}),
        ("spectrum", {"model": {"n_tr": 1e300}}),
        ("critical", {"model": {"n_tr": 1e300}}),
    )):
        config = write_config(tmp_path, data, name=f"huge{k}.json")
        out = tmp_path / f"huge{k}"
        assert main([command, "--config", config, "--out", str(out)]) == 3, data
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


def test_cli_other_value_errors_are_not_numeric_failures(tmp_path, capsys, monkeypatch):
    # Only numpy's size refusal reads as exit 3: any other ValueError is a
    # programming error and propagates, so a property over the commands can
    # catch it.
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(rs.cli, "run_sweep", broken)
    config = write_config(tmp_path, {
        "model": {"n_tr": 20},
        "sweep": {"axis1": {"name": "g", "min": 0.1, "max": 0.5, "count": 3}},
    })
    out = tmp_path / "sweep"
    with pytest.raises(ValueError, match="broadcast"):
        main(["sweep", "--config", config, "--out", str(out)])
    assert "numeric failure" not in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_non_finite_config(tmp_path, capsys):
    axis = {"name": "g", "min": 0.1, "max": 0.5, "count": 3}
    configs = (
        {"model": {"g": math.nan}},
        {"model": {"g": 10**400}},
        {"bath": {"kt_q": math.inf}},
        {"scan": {"count": math.nan}},
        {"scan": {"g_max": math.inf}},
        {"sweep": {"axis1": dict(axis, max=math.inf)}},
        {"sweep": {"axis1": dict(axis, count=math.inf)}},
        {"scan": {"count": 81.5}},
        {"scan": {"n_levels": 8.7}},
        {"sweep": {"axis1": dict(axis, count=4.9)}},
        {"sweep": {"axis1": dict(axis, min="0.1")}},
        {"sweep": {"axis1": dict(axis, count="5")}},
        {"scan": {"pairs": [[True, 2]]}},
        {"scan": {"pairs": [[0, 1], [0, 1]]}},    # would write each crossing twice
        {"sweep": {"axis1": axis, "n_levels": 40.5}},
        {"sweep": {"axis1": axis, "n_levels": "40"}},
        {"sweep": {"axis1": axis, "n_levels": True}},
        # approx_g2/approx_g3 need 4 levels: such a sweep would only fill
        # error-coded rows.
        {"sweep": {"axis1": axis, "n_levels": 2}},
        {"sweep": {"axis1": axis, "n_levels": 3}},
        # No observable to write, or more levels than the model's 26.
        {"sweep": {"axis1": axis, "observables": []}},
        {"model": {"n_tr": 12}, "sweep": {"axis1": axis, "n_levels": 60}},
    )
    for k, data in enumerate(configs):
        path = write_config(tmp_path, data, name=f"nonfinite{k}.json")
        # A config without a sweep section would fail `sweep` for that reason alone.
        command = "sweep" if "sweep" in data else "spectrum"
        assert main([command, "--config", path, "--out", str(tmp_path / "x")]) == 2, data
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x" / f"{command}.csv").exists()


def test_cli_sweep_only_flags(tmp_path):
    config = write_config(tmp_path, {"model": {"n_tr": 20}})
    for command in ("spectrum", "critical", "observables"):
        for flag in (["--workers", "2"], ["--scale", "log10"], ["--plot"]):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", config, "--out", str(tmp_path / "x")] + flag)
            assert exc.value.code == 2
