"""Deterministic SVG 1.1 rendering of staircases, graphs and polygons.

Coordinates are exact rationals until emission, where they are expanded to
at most twelve decimal digits with a fixed rounding rule, so identical input
always produces byte-identical output.  Shaded regions use a diagonal hatch
pattern.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .geometry import ShapePolygon, StaircaseRegion
from .ideals import MonomialIdeal
from .planar import PLGraph
from .rationals import format_rational

__all__ = ["SvgScene", "render_staircase", "render_graph", "render_polygon"]

_DIGITS = 12


def _dec(q) -> str:
    """Decimal expansion of a rational, 12 fractional digits, zeros trimmed."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    sign = "-" if n < 0 else ""
    # round |q| * 10^12 half away from zero, deterministically
    units = (2 * abs(n) * 10**_DIGITS + d) // (2 * d)
    whole, frac = divmod(units, 10**_DIGITS)
    text = f"{whole}.{frac:0{_DIGITS}d}".rstrip("0").rstrip(".")
    return sign + (text or "0")


class SvgScene:
    """Accumulates geometry in math coordinates (y up) and emits SVG."""

    def __init__(self, scale: int = 48, margin: int = 40):
        self.scale = scale
        self.margin = margin
        self._items: list = []  # ("polyline"|"polygon"|"point"|"label", data)
        self._xmax = Fraction(1)
        self._ymax = Fraction(1)

    def _track(self, points) -> None:
        for x, y in points:
            self._xmax = max(self._xmax, Fraction(x))
            self._ymax = max(self._ymax, Fraction(y))

    def add_polyline(self, points, dashed: bool = False, width: str = "1.5") -> None:
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        self._track(pts)
        self._items.append(("polyline", pts, dashed, width))

    def add_polygon(self, points, hatched: bool = True) -> None:
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        if len(pts) < 3:
            return
        self._track(pts)
        self._items.append(("polygon", pts, hatched))

    def add_point(self, point, label: str | None = None) -> None:
        p = (Fraction(point[0]), Fraction(point[1]))
        self._track([p])
        self._items.append(("point", p, label))

    def _map(self, p) -> tuple:
        x = self.margin + self.scale * Fraction(p[0])
        y = self.margin + self.scale * (self._ymax - Fraction(p[1]))
        return x, y

    def _fmt_points(self, pts) -> str:
        return " ".join(f"{_dec(x)},{_dec(y)}" for x, y in (self._map(p) for p in pts))

    def to_svg(self) -> str:
        width = _dec(2 * self.margin + self.scale * self._xmax)
        height = _dec(2 * self.margin + self.scale * self._ymax)
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">',
            "<defs>",
            '<pattern id="hatch" patternUnits="userSpaceOnUse" width="7" height="7">',
            '<path d="M0,7 L7,0" stroke="black" stroke-width="0.6"/>',
            "</pattern>",
            "</defs>",
        ]
        parts.extend(self._axes())
        for item in self._items:
            if item[0] == "polyline":
                _, pts, dashed, width_ = item
                dash = ' stroke-dasharray="6,4"' if dashed else ""
                parts.append(
                    f'<polyline points="{self._fmt_points(pts)}" fill="none" '
                    f'stroke="black" stroke-width="{width_}"{dash}/>'
                )
            elif item[0] == "polygon":
                _, pts, hatched = item
                fill = "url(#hatch)" if hatched else "none"
                parts.append(
                    f'<polygon points="{self._fmt_points(pts)}" fill="{fill}" '
                    'stroke="black" stroke-width="1"/>'
                )
            elif item[0] == "point":
                _, p, label = item
                x, y = self._map(p)
                parts.append(
                    f'<circle cx="{_dec(x)}" cy="{_dec(y)}" r="3" fill="black"/>'
                )
                if label:
                    parts.append(
                        f'<text x="{_dec(x + 5)}" y="{_dec(y - 5)}" '
                        f'font-size="11">{label}</text>'
                    )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def _axes(self) -> list:
        out = []
        origin = self._map((0, 0))
        xend = self._map((self._xmax, 0))
        yend = self._map((0, self._ymax))
        out.append(
            f'<line x1="{_dec(origin[0])}" y1="{_dec(origin[1])}" '
            f'x2="{_dec(xend[0])}" y2="{_dec(xend[1])}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_dec(origin[0])}" y1="{_dec(origin[1])}" '
            f'x2="{_dec(yend[0])}" y2="{_dec(yend[1])}" stroke="black" stroke-width="1"/>'
        )
        step = max(1, ceil(max(self._xmax, self._ymax) / 10))
        k = step
        while k <= self._xmax:
            x, y = self._map((k, 0))
            out.append(
                f'<line x1="{_dec(x)}" y1="{_dec(y - 3)}" x2="{_dec(x)}" '
                f'y2="{_dec(y + 3)}" stroke="black" stroke-width="1"/>'
            )
            out.append(f'<text x="{_dec(x - 3)}" y="{_dec(y + 16)}" font-size="11">{k}</text>')
            k += step
        k = step
        while k <= self._ymax:
            x, y = self._map((0, k))
            out.append(
                f'<line x1="{_dec(x - 3)}" y1="{_dec(y)}" x2="{_dec(x + 3)}" '
                f'y2="{_dec(y)}" stroke="black" stroke-width="1"/>'
            )
            out.append(f'<text x="{_dec(x - 20)}" y="{_dec(y + 4)}" font-size="11">{k}</text>')
            k += step
        return out


def _corner_triangle(prefix, slack) -> list:
    p0, p1 = Fraction(prefix[0]), Fraction(prefix[1])
    s = Fraction(slack)
    return [(p0, p1), (p0, s - p0), (s - p1, p1)]


def render_staircase(I: MonomialIdeal, m: int, t) -> str:
    """Staircase region of an ideal in three variables (or padded to three):
    hatched corner triangles inside the dashed simplex."""
    from .geometry import staircase_region

    region = staircase_region(I.padded(3) if I.nvars < 3 else I, m, t)
    if region.dim != 2:
        raise ValueError("staircase rendering needs a two-dimensional region")
    scene = SvgScene()
    bound = Fraction(region.bound)
    scene.add_polyline([(0, bound), (bound, 0)], dashed=True)
    for prefix, slack in region.corners:
        scene.add_polygon(_corner_triangle(prefix, slack), hatched=True)
    return scene.to_svg()


def render_graph(graph: PLGraph) -> str:
    """Polyline of a first-difference graph with labelled vertices."""
    scene = SvgScene()
    scene.add_polyline(graph.vertices)
    for x, y in graph.vertices:
        scene.add_point((x, y), label=f"({format_rational(x)},{format_rational(y)})")
    return scene.to_svg()


def render_polygon(polygon: ShapePolygon, hatched: bool = True) -> str:
    scene = SvgScene()
    if polygon.vertices:
        scene.add_polygon(list(polygon.vertices), hatched=hatched)
        closed = list(polygon.vertices) + [polygon.vertices[0]]
        scene.add_polyline(closed)
    return scene.to_svg()
