"""Small deterministic SVG 1.1 writer for the study figures.

No timestamps, no randomness: the same data always serialises to the same
bytes. Coordinates are mapped from data space into a fixed-size canvas with
margins; the y axis points up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite coordinate {x!r} in SVG output")
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _column_text(values, fmt) -> list:
    """The strings of the elements of a 1-D array, formatting each distinct
    value once.

    `fmt` takes the list of the distinct values, as Python scalars, and
    returns their strings in the same order. Floats are told apart by bit
    pattern, so -0.0 and 0.0 are two values. The CSV lines of `cli` and
    `_fmt_all` both build their text here.
    """
    values = np.asarray(values)
    floats = values.dtype.kind == "f"
    if floats:
        values = values.astype(np.float64, copy=False)
    distinct, inverse = np.unique(values.view(np.int64) if floats else values,
                                  return_inverse=True)
    text = np.array(fmt(distinct.view(values.dtype).tolist()), dtype=object)
    return text[inverse].tolist()


def _fmt_list(values: list) -> list:
    """`_fmt` of each of a list of finite floats."""
    return ["0.000" if s == "-0.000" else s for s in map("{:.3f}".format, values)]


def _fmt_all(values) -> list:
    """`_fmt` of each value of a 1-D array of finite floats."""
    return _column_text(values, _fmt_list)


def _check_finite(*columns) -> None:
    """Raise `_fmt`'s error for the first non-finite value that a loop over
    the rows of the broadcast columns, each row in column order, would meet."""
    if all(np.isfinite(c).all() for c in columns):
        return
    for row in zip(*np.broadcast_arrays(*columns)):
        for v in row:
            _fmt(float(v))


def _page_text(to_page, values) -> list:
    """`_fmt_all` of the page coordinates `to_page` gives a 1-D array of data
    values; a non-finite one raises `_fmt`'s error."""
    values = np.asarray(values, dtype=float)
    page = np.broadcast_to(to_page(values), values.shape)
    _check_finite(page)
    return _fmt_all(page)


@dataclass
class Canvas:
    """Data-space to page-space mapping plus an element buffer."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    width: float = 640.0
    height: float = 480.0
    margin: float = 56.0
    elements: list = field(default_factory=list)

    def _sx(self, x: float) -> float:
        x0, x1 = self.x_range
        if x1 == x0:
            return self.width / 2.0
        frac = (x - x0) / (x1 - x0)
        return self.margin + frac * (self.width - 2.0 * self.margin)

    def _sy(self, y: float) -> float:
        y0, y1 = self.y_range
        if y1 == y0:
            return self.height / 2.0
        frac = (y - y0) / (y1 - y0)
        return self.height - self.margin - frac * (self.height - 2.0 * self.margin)

    def _page(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """Page coordinates of data points, as two float arrays."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return (np.broadcast_to(self._sx(xs), xs.shape),
                np.broadcast_to(self._sy(ys), ys.shape))

    def polyline(self, xs, ys, stroke="#000000", width=1.0, dashed=False):
        """One polyline through the points, mapped and formatted as whole
        arrays; a non-finite page coordinate raises `_fmt`'s error."""
        sx, sy = self._page(xs, ys)
        _check_finite(sx, sy)
        pts = " ".join(map("{},{}".format, _fmt_all(sx), _fmt_all(sy)))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.elements.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{dash} points="{pts}"/>')

    def segments(self, x1s, y1s, x2s, y2s, stroke="#000000", width=1.0, dashed=False):
        """One line element per (x1, y1, x2, y2), mapped and formatted as
        whole arrays.

        A non-finite page coordinate raises `_fmt`'s error for the first one
        in row order, x1, y1, x2, y2 within a row.
        """
        sx1, sy1 = self._page(x1s, y1s)
        sx2, sy2 = self._page(x2s, y2s)
        _check_finite(sx1, sy1, sx2, sy2)
        tail = f' stroke="{stroke}" stroke-width="{width}"'
        tail += ' stroke-dasharray="6,4"/>' if dashed else "/>"
        self.elements.extend([
            f'<line x1="{a}" y1="{b}" x2="{c}" y2="{d}"{tail}'
            for a, b, c, d in zip(*map(_fmt_all, (sx1, sy1, sx2, sy2)), strict=True)])

    def circles(self, xs, ys, radius_px=2.5, stroke="#000000", fill="none"):
        """One circle element per point, mapped and formatted as whole arrays.

        `stroke` is one colour or a sequence of one colour per point. A
        non-finite value raises `_fmt`'s error for the first one in point
        order, x, y and then the radius within a point.
        """
        sx, sy = self._page(xs, ys)
        if not sx.size:
            return
        _check_finite(sx, sy, radius_px)
        self.circles_at(_fmt_all(sx), _fmt_all(sy), radius_px, stroke, fill)

    def circles_at(self, cx, cy, radius_px=2.5, stroke="#000000", fill="none"):
        """`circles` at page coordinates given as text (`x_text`, `y_text`),
        so that a figure can reuse the text of a column that another figure
        with the same range has formatted."""
        strokes = [stroke] * len(cx) if isinstance(stroke, str) else stroke
        r = _fmt(radius_px)
        self.elements.extend([
            f'<circle cx="{x}" cy="{y}" r="{r}" stroke="{s}" fill="{fill}"/>'
            for x, y, s in zip(cx, cy, strokes, strict=True)])

    def x_text(self, xs) -> list:
        """`_fmt` of the page x coordinate of each data x."""
        return _page_text(self._sx, xs)

    def y_text(self, ys) -> list:
        """`_fmt` of the page y coordinate of each data y."""
        return _page_text(self._sy, ys)

    def data_circle(self, x, y, radius, stroke="#000000", fill="none"):
        """Circle whose radius lives in data units (x scale)."""
        x0, x1 = self.x_range
        scale = (self.width - 2.0 * self.margin) / (x1 - x0) if x1 != x0 else 1.0
        self.elements.append(
            f'<circle cx="{_fmt(self._sx(x))}" cy="{_fmt(self._sy(y))}"'
            f' r="{_fmt(abs(radius) * scale)}" stroke="{stroke}" fill="{fill}"/>')

    def page_text(self, px, py, label, size=12, anchor="start", color="#000000"):
        self.elements.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-family="sans-serif"'
            f' font-size="{size}" fill="{color}" text-anchor="{anchor}">{label}</text>')

    def axes(self, x_label="", y_label="", ticks=5):
        x0, x1 = self.x_range
        y0, y1 = self.y_range
        self.polyline([x0, x1], [y0, y0])
        self.polyline([x0, x0], [y0, y1])
        for k in range(ticks + 1):
            xt = x0 + (x1 - x0) * k / ticks
            yt = y0 + (y1 - y0) * k / ticks
            self.page_text(self._sx(xt), self.height - self.margin + 16,
                           f"{xt:.4g}", size=10, anchor="middle")
            self.page_text(self._sx(x0) - 6, self._sy(yt) + 4,
                           f"{yt:.4g}", size=10, anchor="end")
        if x_label:
            self.page_text(self.width / 2.0, self.height - 12, x_label,
                           anchor="middle")
        if y_label:
            self.elements.append(
                f'<text x="14" y="{_fmt(self.height / 2.0)}" font-family="sans-serif"'
                f' font-size="12" fill="#000000" text-anchor="middle"'
                f' transform="rotate(-90 14 {_fmt(self.height / 2.0)})">{y_label}</text>')

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
        )
        body = "\n".join(self.elements)
        return head + body + "\n</svg>\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render())


def padded_range(lo: float, hi: float, pad: float = 0.05) -> tuple[float, float]:
    if hi < lo:
        lo, hi = hi, lo
    span = hi - lo
    if span == 0.0:
        span = abs(hi) if hi != 0.0 else 1.0
    return lo - pad * span, hi + pad * span
