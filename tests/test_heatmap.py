import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rabistark as rs
from rabistark.heatmap import COLOR_STOPS, MISSING_COLOR, color_at, emit_heatmap

AXES = (("g", 0.0, 1.0), ("r", 0.0, 2.0))
SVG = "{http://www.w3.org/2000/svg}"


def cell_fills(svg):
    fills = []
    for line in svg.splitlines():
        if line.startswith("<rect") and 'width="10" height="10"' in line:
            fills.append(line.split('fill="')[1].split('"')[0])
    return fills


def test_color_stops_exact():
    for t, (r, g, b) in COLOR_STOPS:
        assert color_at(t) == "#%02X%02X%02X" % (r, g, b)
    assert color_at(-0.3) == "#440154"
    assert color_at(1.7) == "#FDE725"


def test_corner_colors_linear():
    values = np.array([[0.0, 2.0], [1.0, 3.0]])
    svg = emit_heatmap(values, *AXES)
    fills = cell_fills(svg)
    assert len(fills) == 4
    assert "#440154" in fills  # normalized 0
    assert "#FDE725" in fills  # normalized 1
    assert color_at(1.0 / 3.0) in fills
    assert color_at(2.0 / 3.0) in fills


def test_all_equal_maps_to_midpoint_color():
    values = np.full((3, 3), 1.25)
    fills = cell_fills(emit_heatmap(values, *AXES))
    assert fills == ["#21918C"] * 9


def test_log_scale_zero_is_missing():
    values = np.array([[0.0, 1.0], [10.0, 100.0]])
    fills = cell_fills(emit_heatmap(values, *AXES, scale="log10"))
    assert fills.count(MISSING_COLOR) == 1
    assert "#440154" in fills and "#FDE725" in fills


def test_nan_cells_are_missing_colored():
    values = np.array([[np.nan, 1.0], [2.0, 3.0]])
    fills = cell_fills(emit_heatmap(values, *AXES))
    assert fills.count(MISSING_COLOR) == 1


def test_rejects_non_2d():
    with pytest.raises(rs.InvalidInputError):
        emit_heatmap(np.arange(4.0), *AXES)
    with pytest.raises(rs.InvalidInputError):
        emit_heatmap(np.zeros((2, 2)), *AXES, scale="sqrt")


def test_deterministic_output_and_labels():
    values = np.array([[0.1, 0.4, 0.9], [1.0, 2.0, 3.0]])
    one = emit_heatmap(values, *AXES, label="g2")
    two = emit_heatmap(values, *AXES, label="g2")
    assert one == two
    assert ">g<" in one and ">r<" in one and ">g2<" in one
    assert "0</text>" in one  # axis endpoint labels present
    assert one.count("<stop") == 5


tables = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(lambda shape: hnp.arrays(
    float, shape, elements=st.one_of(st.just(math.nan), st.floats(-1e3, 1e3))))


@settings(max_examples=200, deadline=None)
@given(values=tables, scale=st.sampled_from(("linear", "log10")))
def test_svg_parses_with_every_element(values, scale):
    root = ET.fromstring(emit_heatmap(values, *AXES, label="g2", scale=scale))
    assert root.tag == f"{SVG}svg"
    rects = root.findall(f"{SVG}rect")
    cells = [r for r in rects if r.get("width") == r.get("height") == "10"]
    assert len(cells) == values.size
    assert len(rects) == values.size + 2  # plus the background and the colorbar
    assert len(root.findall(f"{SVG}defs/{SVG}linearGradient/{SVG}stop")) == 5
    assert len(root.findall(f"{SVG}line")) == 5
    # Six axis labels, five tick labels and the column label.
    texts = root.findall(f"{SVG}text")
    assert len(texts) == 12 and texts[-1].text == "g2"
    assert {t.text for t in texts[:6]} >= {"g", "r"}
