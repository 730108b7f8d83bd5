import json
import math

import numpy as np
import pytest

import rabistark as rs
from rabistark.cli import format_number, main
from rabistark.config import load_config, parse_config

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


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, {"model": {"n_tr": -3}})
    assert main(["spectrum", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    assert "n_tr" in capsys.readouterr().err

    assert main(["spectrum", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 4

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert main(["spectrum", "--config", str(not_json),
                 "--out", str(tmp_path / "x")]) == 2

    no_sweep = write_config(tmp_path, {"model": {"delta": 1.0, "n_tr": 20}},
                            name="nosweep.json")
    assert main(["sweep", "--config", no_sweep, "--out", str(tmp_path / "x")]) == 2


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
    )
    for k, data in enumerate(configs):
        path = write_config(tmp_path, data, name=f"nonfinite{k}.json")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x")]) == 2, data
        assert "config error" in capsys.readouterr().err
