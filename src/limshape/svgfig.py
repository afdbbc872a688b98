"""Deterministic SVG 1.1 rendering of staircases, graphs and polygons.

Each `render_*` function lists its figure's items in drawing order, each
("polyline", points, dashed), ("polygon", points, hatched) or
("point", point, label), with int or Fraction coordinates, and `_svg` writes
them over the axes.  The frame is fixed: 48 units per unit of the figure, a
40-unit margin, y up, and extents of at least 1.  Over the common denominator
of the figure (the lcm of its coordinates' denominators) each point gets one
integer image, and each coordinate is written from it as a decimal of at most
twelve digits with a fixed rounding rule, so identical input always produces
byte-identical output.  Shaded regions use a diagonal hatch pattern.
"""

from __future__ import annotations

from itertools import islice

from .geometry import ShapePolygon, staircase_region
from .ideals import MonomialIdeal
from .planar import PLGraph
from .rationals import _scaled, format_rational
from .work import charge

__all__ = ["render_staircase", "render_graph", "render_polygon"]

_DIGITS = 12
_SCALE = 48  # SVG units per unit of the figure
_MARGIN = 40  # SVG units around the axes


def _dec_nd(n: int, d: int) -> str:
    """Decimal expansion of n/d, for d > 0 and n/d not necessarily in lowest
    terms: 12 fractional digits, zeros trimmed."""
    if n % d == 0:
        return str(n // d)
    sign = "-" if n < 0 else ""
    # round |n/d| * 10^12 half away from zero, deterministically
    units = (2 * abs(n) * 10**_DIGITS + d) // (2 * d)
    whole, frac = divmod(units, 10**_DIGITS)
    text = f"{whole}.{frac:0{_DIGITS}d}".rstrip("0").rstrip(".")
    return sign + (text or "0")


def _svg(items) -> str:
    """The SVG document of a figure's items (see the module docstring).

    `_scaled` reads each point as integers (X, Y) over the common
    denominator den; x = X/den maps to the numerator MARGIN*den + SCALE*X and
    y = Y/den to MARGIN*den + SCALE*(Y_max - Y), once per point."""
    ints, den = _scaled([p for kind, data, _ in items for p in ((data,) if kind == "point" else data)])
    xm = max([den, *(x for x, _ in ints)])
    ym = max([den, *(y for _, y in ints)])
    x0, y0 = _MARGIN * den, _MARGIN * den + _SCALE * ym
    images = iter([(x0 + _SCALE * x, y0 - _SCALE * y) for x, y in ints])

    def dec(n: int) -> str:
        return _dec_nd(n, den)

    def line(x1: int, y1: int, x2: int, y2: int) -> str:
        return (f'<line x1="{dec(x1)}" y1="{dec(y1)}" x2="{dec(x2)}" y2="{dec(y2)}" '
                'stroke="black" stroke-width="1"/>')

    width, height = dec(2 * x0 + _SCALE * xm), dec(y0 + x0)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">',
        "<defs>",
        '<pattern id="hatch" patternUnits="userSpaceOnUse" width="7" height="7">',
        '<path d="M0,7 L7,0" stroke="black" stroke-width="0.6"/>',
        "</pattern>",
        "</defs>",
        line(x0, y0, x0 + _SCALE * xm, y0),
        line(x0, y0, x0, y0 - _SCALE * ym),
    ]
    step = max(1, -(-max(xm, ym) // (10 * den)))  # ceil(max extent / 10)
    for k in range(step, xm // den + 1, step):
        x = x0 + _SCALE * k * den
        parts.append(line(x, y0 - 3 * den, x, y0 + 3 * den))
        parts.append(f'<text x="{dec(x - 3 * den)}" y="{dec(y0 + 16 * den)}" font-size="11">{k}</text>')
    for k in range(step, ym // den + 1, step):
        y = y0 - _SCALE * k * den
        parts.append(line(x0 - 3 * den, y, x0 + 3 * den, y))
        parts.append(f'<text x="{dec(x0 - 20 * den)}" y="{dec(y + 4 * den)}" font-size="11">{k}</text>')
    for kind, data, flag in items:
        if kind == "point":
            x, y = next(images)
            parts.append(f'<circle cx="{dec(x)}" cy="{dec(y)}" r="3" fill="black"/>')
            if flag:
                parts.append(
                    f'<text x="{dec(x + 5 * den)}" y="{dec(y - 5 * den)}" font-size="11">{flag}</text>')
            continue
        text = " ".join(f"{dec(x)},{dec(y)}" for x, y in islice(images, len(data)))
        if kind == "polyline":
            dash = ' stroke-dasharray="6,4"' if flag else ""
            parts.append(f'<polyline points="{text}" fill="none" stroke="black" stroke-width="1.5"{dash}/>')
        else:
            fill = "url(#hatch)" if flag else "none"
            parts.append(f'<polygon points="{text}" fill="{fill}" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _corner_triangle(prefix, slack) -> list:
    p0, p1 = prefix
    return [(p0, p1), (p0, slack - p0), (slack - p1, p1)]


def render_staircase(I: MonomialIdeal, m: int, t) -> str:
    """Staircase region of an ideal in three variables (or padded to three):
    hatched corner triangles inside the dashed simplex.  Up to one triangle
    per generator: the generators are charged to the "triangles" budget
    before the region is built."""
    charge("triangles", len(I.gens))
    region = staircase_region(I.padded(3) if I.nvars < 3 else I, m, t)
    if region.dim != 2:
        raise ValueError("staircase rendering needs a two-dimensional region")
    items = [("polyline", [(0, region.bound), (region.bound, 0)], True)]
    items += [("polygon", _corner_triangle(prefix, slack), True) for prefix, slack in region.corners]
    return _svg(items)


def render_graph(graph: PLGraph) -> str:
    """Polyline of a first-difference graph with labelled vertices."""
    items = [("polyline", graph.vertices, False)]
    items += [("point", (x, y), f"({format_rational(x)},{format_rational(y)})") for x, y in graph.vertices]
    return _svg(items)


def render_polygon(polygon: ShapePolygon, hatched: bool = True) -> str:
    """The polygon, filled if it has three vertices or more, and its closed
    boundary."""
    pts = list(polygon.vertices)
    items = [("polygon", pts, hatched)] if len(pts) > 2 else []
    if pts:
        items.append(("polyline", pts + pts[:1], False))
    return _svg(items)
