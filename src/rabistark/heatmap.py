"""Self-contained SVG heatmaps with a fixed five-stop colormap.

Output is deterministic text: no timestamps, pinned float formatting, one
rectangle per cell.  Cells that are non-finite (or non-positive under the
log10 scale) render in the missing-data color.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

COLOR_STOPS = (
    (0.00, (0x44, 0x01, 0x54)),
    (0.25, (0x3B, 0x52, 0x8B)),
    (0.50, (0x21, 0x91, 0x8C)),
    (0.75, (0x5E, 0xC9, 0x62)),
    (1.00, (0xFD, 0xE7, 0x25)),
)
MISSING_COLOR = "#BBBBBB"

CELL = 10          # pixels per cell edge, scaled SVG viewport
MARGIN_LEFT = 64
MARGIN_RIGHT = 96
MARGIN_TOP = 28
MARGIN_BOTTOM = 48


def color_at(t: float) -> str:
    """Hex color at normalized position t in [0, 1] (clamped)."""
    t = min(1.0, max(0.0, float(t)))
    for (t0, c0), (t1, c1) in zip(COLOR_STOPS, COLOR_STOPS[1:]):
        if t <= t1:
            local = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + (b - a) * local) for a, b in zip(c0, c1))
            return "#%02X%02X%02X" % rgb
    return "#%02X%02X%02X" % COLOR_STOPS[-1][1]


def _normalize(values: np.ndarray, scale: str):
    """Map values to [0, 1] (NaN = missing); returns (normed, lo, hi)."""
    if scale not in ("linear", "log10"):
        raise InvalidInputError(f"scale must be 'linear' or 'log10', got {scale!r}")
    work = np.array(values, dtype=float)
    if scale == "log10":
        with np.errstate(invalid="ignore", divide="ignore"):
            work = np.where(work > 0, np.log10(np.where(work > 0, work, 1.0)), np.nan)
    work[~np.isfinite(work)] = np.nan
    finite = work[np.isfinite(work)]
    if finite.size == 0:
        return np.full_like(work, np.nan), 0.0, 0.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi == lo:
        normed = np.where(np.isfinite(work), 0.5, np.nan)
    else:
        normed = (work - lo) / (hi - lo)
    return normed, lo, hi


def _fmt(x: float) -> str:
    return "%.6g" % x


def _element(tag: str, body: str | None = None, **attrs) -> str:
    """One SVG element, attributes in the order given ('_' in a name is
    written '-'); self-closing when there is no body."""
    head = tag + "".join(f' {name.replace("_", "-")}="{value}"' for name, value in attrs.items())
    return f"<{head}/>" if body is None else f"<{head}>{body}</{tag}>"


def emit_heatmap(
    values: np.ndarray,
    axis1: tuple[str, float, float],
    axis2: tuple[str, float, float],
    label: str = "value",
    scale: str = "linear",
) -> str:
    """Render a 2-D table as an SVG heatmap document (returned as text).

    values[i, j] is drawn at column i (axis1, horizontal) and row j (axis2,
    vertical, increasing upward).  Axis tuples are (name, min, max).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidInputError(f"heatmap needs a 2-D table, got shape {values.shape}")
    n1, n2 = values.shape
    normed, lo, hi = _normalize(values, scale)

    plot_w, plot_h = n1 * CELL, n2 * CELL
    width = MARGIN_LEFT + plot_w + MARGIN_RIGHT
    height = MARGIN_TOP + plot_h + MARGIN_BOTTOM
    bar_x = MARGIN_LEFT + plot_w + 24
    bar_w = 14

    stops = [_element("stop", offset=f"{_fmt(t * 100)}%", stop_color=color_at(t))
             for t, _ in COLOR_STOPS]
    gradient = _element("linearGradient", "\n".join(["", *stops, ""]),
                        id="cbar", x1="0", y1="1", x2="0", y2="0")
    out = [_element("defs", gradient), _element("rect", width=width, height=height, fill="#FFFFFF")]

    for i in range(n1):
        for j in range(n2):
            t = normed[i, j]
            fill = MISSING_COLOR if math.isnan(t) else color_at(t)
            x = MARGIN_LEFT + i * CELL
            y = MARGIN_TOP + (n2 - 1 - j) * CELL
            out.append(_element("rect", x=x, y=y, width=CELL, height=CELL, fill=fill))

    # Axis labels: parameter names plus range endpoints.
    name1, min1, max1 = axis1
    name2, min2, max2 = axis2
    y_axis_text = MARGIN_TOP + plot_h
    out += [
        _element("text", x=MARGIN_LEFT + plot_w // 2, y=y_axis_text + 34,
                 text_anchor="middle", font_size="12", body=name1),
        _element("text", x=MARGIN_LEFT, y=y_axis_text + 16,
                 text_anchor="middle", font_size="10", body=_fmt(min1)),
        _element("text", x=MARGIN_LEFT + plot_w, y=y_axis_text + 16,
                 text_anchor="middle", font_size="10", body=_fmt(max1)),
        _element("text", x=MARGIN_LEFT - 10, y=MARGIN_TOP + plot_h // 2,
                 text_anchor="middle", font_size="12",
                 transform=f"rotate(-90 {MARGIN_LEFT - 10} {MARGIN_TOP + plot_h // 2})",
                 body=name2),
        _element("text", x=MARGIN_LEFT - 6, y=y_axis_text,
                 text_anchor="end", font_size="10", body=_fmt(min2)),
        _element("text", x=MARGIN_LEFT - 6, y=MARGIN_TOP + 8,
                 text_anchor="end", font_size="10", body=_fmt(max2)),
    ]

    # Vertical colorbar with five tick labels in data units.
    out.append(_element("rect", x=bar_x, y=MARGIN_TOP, width=bar_w, height=plot_h,
                        fill="url(#cbar)", stroke="#000000", stroke_width="0.5"))
    for t, _ in COLOR_STOPS:
        y = MARGIN_TOP + plot_h - t * plot_h
        data_val = lo + t * (hi - lo)
        if scale == "log10":
            data_val = 10.0**data_val
        out.append(_element("line", x1=bar_x + bar_w, y1=_fmt(y), x2=bar_x + bar_w + 4,
                            y2=_fmt(y), stroke="#000000", stroke_width="0.5"))
        out.append(_element("text", x=bar_x + bar_w + 6, y=_fmt(y + 3), font_size="9",
                            body=_fmt(data_val)))
    out.append(_element("text", x=bar_x + bar_w // 2, y=MARGIN_TOP - 8,
                        text_anchor="middle", font_size="11", body=label))
    return _element("svg", "\n".join(["", *out, ""]), xmlns="http://www.w3.org/2000/svg",
                    width=width, height=height, viewBox=f"0 0 {width} {height}") + "\n"
