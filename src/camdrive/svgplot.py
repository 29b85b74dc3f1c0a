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


# the text of k thousandths is _INT_TEXT[k // 1000] + _FRAC_TEXT[k % 1000]
_INT_TEXT = np.array([f"{i}." for i in range(1000)], dtype=object)
_FRAC_TEXT = np.array([f"{i:03d}" for i in range(1000)], dtype=object)


def _fmt_all(values) -> list:
    """`_fmt` of each value of a 1-D float array, by integer lookup.

    A value v with y = fl(1000 v) more than 1e-6 from a half-integer and
    k = rint(y) in [0, 1e6) prints as k thousandths from the two tables.
    That is exact: below 2**20, y is within 1.2e-10 of the real 1000 v, so
    no half-integer lies between them and k is the integer that `{:.3f}`
    rounds 1000 v to; (-0.0005, 0] gives k = -0, "0.000", as `_fmt` does.
    Other values (negative, 1000 or more, near a tie, non-finite) go
    through `_fmt` in order, so the first non-finite one raises its error.
    """
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        y = v * 1000.0
        k = np.rint(y)
        table = (k >= 0.0) & (k < 1e6) & (np.abs(np.abs(y - k) - 0.5) > 1e-6)
    q, r = np.divmod(k[table].astype(np.int64), 1000)
    text = _INT_TEXT[q] + _FRAC_TEXT[r]
    if len(text) == len(v):
        return text.tolist()
    out = np.empty(len(v), dtype=object)
    out[table] = text
    out[~table] = [_fmt(x) for x in v[~table].tolist()]
    return out.tolist()


def _join_rows(text: list, gaps, sep: str, head: str, tail: str) -> str:
    """One join of `head`, the rows of `text` split by `sep`, and `tail`; a
    row is the next len(gaps) + 1 strings, split by `gaps`."""
    block = [sep, None, *(p for gap in gaps for p in (gap, None))]
    pieces = block * (len(text) // (len(gaps) + 1))
    pieces[1::2] = text
    pieces[:1] = [head]
    pieces.append(tail)
    return "".join(pieces)


@dataclass
class Canvas:
    """Data-space to page-space mapping plus a buffer of element text."""

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

    def _page(self, *xy) -> np.ndarray:
        """Page coordinates of data columns x, y, x, y, ..., row by row."""
        page = [np.asarray(c, dtype=float) for c in xy]
        return np.column_stack([np.broadcast_to((self._sy if i % 2 else self._sx)(c), c.shape)
                                for i, c in enumerate(page)]).ravel()

    def _rows(self, text: list, gaps, head: str, tail: str) -> None:
        """One block of elements, one line per row of `text`; see `_join_rows`."""
        if text:
            self.elements.append(_join_rows(text, gaps, tail + "\n" + head, head, tail))

    def polyline(self, xs, ys, stroke="#000000", width=1.0, dashed=False):
        """One polyline through the points, mapped and formatted as whole
        arrays; a non-finite page coordinate raises `_fmt`'s error for the
        first one in point order."""
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.elements.append(_join_rows(
            _fmt_all(self._page(xs, ys)), (",",), " ",
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{dash} points="', '"/>'))

    def segments(self, x1s, y1s, x2s, y2s, stroke="#000000", width=1.0, dashed=False):
        """One line element per (x1, y1, x2, y2), mapped and formatted as
        whole arrays.

        A non-finite page coordinate raises `_fmt`'s error for the first one
        in row order, x1, y1, x2, y2 within a row.
        """
        tail = f'" stroke="{stroke}" stroke-width="{width}"'
        tail += ' stroke-dasharray="6,4"/>' if dashed else "/>"
        self._rows(_fmt_all(self._page(x1s, y1s, x2s, y2s)),
                   ('" y1="', '" x2="', '" y2="'), '<line x1="', tail)

    def circles(self, xs, ys, radius_px=2.5, stroke="#000000", fill="none"):
        """One circle element per point, mapped and formatted as whole arrays.

        `stroke` is one colour or a sequence of one colour per point. A
        non-finite value raises `_fmt`'s error for the first one in point
        order, x, y and then the radius within a point.
        """
        page = self._page(xs, ys)
        if not page.size:
            return
        if not math.isfinite(radius_px):  # x and y of point 0 come first
            _fmt_all(page[:2])
        r = _fmt(radius_px)
        text = _fmt_all(page)
        if isinstance(stroke, str):
            gaps, tail = ('" cy="',), f'" r="{r}" stroke="{stroke}" fill="{fill}"/>'
        else:  # x, y and stroke of each point
            fields = [None] * (len(text) // 2 * 3)
            fields[0::3], fields[1::3], fields[2::3] = text[0::2], text[1::2], stroke
            text = fields
            gaps, tail = ('" cy="', f'" r="{r}" stroke="'), f'" fill="{fill}"/>'
        self._rows(text, gaps, '<circle cx="', tail)

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
