"""Deterministic SVG 1.1 rendering of staircases, graphs and polygons.

Coordinates are exact rationals until emission.  There every coordinate is
written as an integer numerator over one common denominator of the scene (the
lcm of the denominators of its points and extents) and expanded to at most
twelve decimal digits with a fixed rounding rule, so identical input always
produces byte-identical output.  Shaded regions use a diagonal hatch pattern.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .geometry import ShapePolygon, StaircaseRegion
from .ideals import MonomialIdeal, WorkBudgetError
from .planar import PLGraph
from .rationals import format_rational

__all__ = ["SvgScene", "render_staircase", "render_graph", "render_polygon"]

_DIGITS = 12
MAX_TRIANGLES = 10**4  # corner triangles of one staircase figure


def _dec(q) -> str:
    """Decimal expansion of a rational, 12 fractional digits, zeros trimmed."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return _dec_nd(q.numerator, q.denominator)


def _dec_nd(n: int, d: int) -> str:
    """`_dec` of n/d, for d > 0 and n/d not necessarily in lowest terms."""
    if n % d == 0:
        return str(n // d)
    sign = "-" if n < 0 else ""
    # round |n/d| * 10^12 half away from zero, deterministically
    units = (2 * abs(n) * 10**_DIGITS + d) // (2 * d)
    whole, frac = divmod(units, 10**_DIGITS)
    text = f"{whole}.{frac:0{_DIGITS}d}".rstrip("0").rstrip(".")
    return sign + (text or "0")


def _rat(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _over(v, den: int) -> int:
    """Numerator of v over den, a multiple of v's denominator."""
    return v.numerator * (den // v.denominator)


class SvgScene:
    """Accumulates geometry in math coordinates (y up) and emits SVG."""

    def __init__(self, scale: int = 48, margin: int = 40):
        self.scale = scale
        self.margin = margin
        self._items: list = []  # ("polyline"|"polygon"|"point"|"label", data)
        self._xmax = 1
        self._ymax = 1
        self._den = 1  # lcm of the denominators of every stored coordinate

    def _track(self, points) -> None:
        for x, y in points:
            self._xmax = max(self._xmax, x)
            self._ymax = max(self._ymax, y)
            self._den = lcm(self._den, x.denominator, y.denominator)

    def add_polyline(self, points, dashed: bool = False, width: str = "1.5") -> None:
        pts = [(_rat(x), _rat(y)) for x, y in points]
        self._track(pts)
        self._items.append(("polyline", pts, dashed, width))

    def add_polygon(self, points, hatched: bool = True) -> None:
        pts = [(_rat(x), _rat(y)) for x, y in points]
        if len(pts) < 3:
            return
        self._track(pts)
        self._items.append(("polygon", pts, hatched))

    def add_point(self, point, label: str | None = None) -> None:
        p = (_rat(point[0]), _rat(point[1]))
        self._track([p])
        self._items.append(("point", p, label))

    def _map(self, p, frame) -> tuple:
        """p's SVG coordinates (y down) as integer numerators over den."""
        den, x0, y0 = frame
        return x0 + self.scale * _over(p[0], den), y0 - self.scale * _over(p[1], den)

    def _fmt_points(self, pts, frame) -> str:
        return " ".join(",".join(_dec_nd(v, frame[0]) for v in self._map(p, frame)) for p in pts)

    def to_svg(self) -> str:
        # over the scene's common denominator den, x = X/den maps to the
        # numerator margin*den + scale*X and y = Y/den to margin*den + scale*(Y_max - Y)
        den, s, m = self._den, self.scale, self.margin
        frame = (den, m * den, m * den + s * _over(self._ymax, den))
        width = _dec_nd(2 * m * den + s * _over(self._xmax, den), den)
        height = _dec_nd(frame[2] + m * den, den)
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
        parts.extend(self._axes(frame))
        for item in self._items:
            if item[0] == "polyline":
                _, pts, dashed, width_ = item
                dash = ' stroke-dasharray="6,4"' if dashed else ""
                parts.append(
                    f'<polyline points="{self._fmt_points(pts, frame)}" fill="none" '
                    f'stroke="black" stroke-width="{width_}"{dash}/>'
                )
            elif item[0] == "polygon":
                _, pts, hatched = item
                fill = "url(#hatch)" if hatched else "none"
                parts.append(
                    f'<polygon points="{self._fmt_points(pts, frame)}" fill="{fill}" '
                    'stroke="black" stroke-width="1"/>'
                )
            elif item[0] == "point":
                _, p, label = item
                x, y = self._map(p, frame)
                parts.append(
                    f'<circle cx="{_dec_nd(x, den)}" cy="{_dec_nd(y, den)}" r="3" fill="black"/>'
                )
                if label:
                    parts.append(
                        f'<text x="{_dec_nd(x + 5 * den, den)}" y="{_dec_nd(y - 5 * den, den)}" '
                        f'font-size="11">{label}</text>'
                    )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def _axes(self, frame) -> list:
        den, x0, y0 = frame
        xm, ym = _over(self._xmax, den), _over(self._ymax, den)

        def dec(n: int) -> str:
            return _dec_nd(n, den)

        out = []
        for x, y in ((x0 + self.scale * xm, y0), (x0, y0 - self.scale * ym)):
            out.append(
                f'<line x1="{dec(x0)}" y1="{dec(y0)}" '
                f'x2="{dec(x)}" y2="{dec(y)}" stroke="black" stroke-width="1"/>'
            )
        step = max(1, -(-max(xm, ym) // (10 * den)))  # ceil(max extent / 10)
        for k in range(step, xm // den + 1, step):
            x = x0 + self.scale * k * den
            out.append(
                f'<line x1="{dec(x)}" y1="{dec(y0 - 3 * den)}" x2="{dec(x)}" '
                f'y2="{dec(y0 + 3 * den)}" stroke="black" stroke-width="1"/>'
            )
            out.append(f'<text x="{dec(x - 3 * den)}" y="{dec(y0 + 16 * den)}" font-size="11">{k}</text>')
        for k in range(step, ym // den + 1, step):
            y = y0 - self.scale * k * den
            out.append(
                f'<line x1="{dec(x0 - 3 * den)}" y1="{dec(y)}" x2="{dec(x0 + 3 * den)}" '
                f'y2="{dec(y)}" stroke="black" stroke-width="1"/>'
            )
            out.append(f'<text x="{dec(x0 - 20 * den)}" y="{dec(y + 4 * den)}" font-size="11">{k}</text>')
        return out


def _corner_triangle(prefix, slack) -> list:
    p0, p1 = prefix
    return [(p0, p1), (p0, slack - p0), (slack - p1, p1)]


def _charge_triangles(n: int) -> None:
    """Refuse a staircase figure of n > MAX_TRIANGLES corner triangles with
    WorkBudgetError."""
    if n > MAX_TRIANGLES:
        raise WorkBudgetError(f"{n} generators to draw, over {MAX_TRIANGLES}")


def render_staircase(I: MonomialIdeal, m: int, t) -> str:
    """Staircase region of an ideal in three variables (or padded to three):
    hatched corner triangles inside the dashed simplex.  Up to one triangle
    per generator: more than MAX_TRIANGLES generators are refused with
    WorkBudgetError before the region is built."""
    from .geometry import staircase_region

    _charge_triangles(len(I.gens))
    region = staircase_region(I.padded(3) if I.nvars < 3 else I, m, t)
    if region.dim != 2:
        raise ValueError("staircase rendering needs a two-dimensional region")
    scene = SvgScene()
    scene.add_polyline([(0, region.bound), (region.bound, 0)], dashed=True)
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
