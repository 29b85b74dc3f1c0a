import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import camdrive.svgplot as svgplot
from camdrive.svgplot import Canvas, _fmt, _fmt_all

import oracles


def _half_thousandths(j: int, step: int) -> float:
    """The float nearest (j + 0.5) / 1000, moved `step` floats along."""
    x = (2 * j + 1) / 2000
    for _ in range(abs(step)):
        x = float(np.nextafter(x, math.copysign(math.inf, step)))
    return x


# page-like numbers and the ones next to where `{:.3f}` rounds: decimal
# half-thousandths and their neighbours, exact binary ties m + k/16 (k odd),
# -0.0 and (-0.0005, 0], and values of 1000 or more
FMT_VALUES = st.one_of(
    st.floats(-2e6, 2e6),
    st.builds(_half_thousandths, st.integers(-2_000_000, 2_000_000), st.integers(-2, 2)),
    st.builds(lambda m, k: m + k / 16, st.integers(-2000, 2000), st.sampled_from(range(1, 16, 2))),
    st.just(-0.0),
    st.floats(-0.0005, 0.0, exclude_min=True),
    st.floats(1000.0, 2e6),
)


class TestFmtAll:
    """`_fmt_all` of an array is `_fmt` of each of its values."""

    @pytest.mark.parametrize("values", [
        [1.5, 2.25, 1.5, 1.5, 300.0, 2.25],
        [-0.0, 0.0, -0.0, 0.0004, -0.0004, -0.0005, -0.00049, 0.0005, -0.0006],
        np.random.default_rng(13).uniform(-1.0, 700.0, 400).tolist(),
        np.random.default_rng(14).choice([56.0, 320.123456, -0.0001, 584.0], 200).tolist(),
        [],
    ])
    def test_matches_per_value_format(self, values):
        array = np.asarray(values, dtype=float)
        want = [_fmt(x) for x in values]
        assert _fmt_all(array) == want
        assert _fmt_all(np.broadcast_to(array, (2, len(values)))[1]) == want
        assert "-0.000" not in want

    def test_constant_page_coordinate(self):
        assert _fmt_all(np.broadcast_to(np.float64(320.0), (4,))) == ["320.000"] * 4

    @given(st.lists(FMT_VALUES, max_size=40))
    @example([1.0005, 123.4565, 1.0035, 2.0625, -0.0, -0.0004999, 999.9995, 1000.0])
    def test_matches_the_oracle(self, values):
        assert _fmt_all(np.array(values, dtype=float)) == list(map(oracles.svg_number, values))

    @given(st.lists(FMT_VALUES, max_size=20), st.lists(st.sampled_from(
        [math.nan, math.inf, -math.inf]), min_size=1, max_size=3), st.randoms())
    def test_non_finite_raises_the_first_error(self, values, bad, random):
        for v in bad:
            values.insert(random.randint(0, len(values)), v)
        with pytest.raises(ValueError) as want:
            list(map(oracles.svg_number, values))
        with pytest.raises(ValueError) as got:
            _fmt_all(np.array(values))
        assert str(got.value) == str(want.value)

    def test_page_coordinates_need_no_per_value_format(self, monkeypatch):
        # only values next to a rounding tie reach `_fmt`: here the 3 exact ties
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        values = canvas._sx(np.random.default_rng(15).uniform(0.0, 1.0, 997))
        values = np.concatenate([values, [100.0625, 320.4375, 56.5625]])
        calls = []

        def counted(x):
            calls.append(x)
            return _fmt(x)
        monkeypatch.setattr(svgplot, "_fmt", counted)
        assert _fmt_all(values) == list(map(oracles.svg_number, values.tolist()))
        assert calls == [100.0625, 320.4375, 56.5625]


def looped(canvas_args, xs, ys, radius_px, stroke, fill="none"):
    """Elements of `oracles.svg_circle`, one point at a time, one per line."""
    canvas = Canvas(*canvas_args)
    strokes = [stroke] * len(xs) if isinstance(stroke, str) else stroke
    return "\n".join(oracles.svg_circle(canvas, x, y, radius_px, s, fill)
                     for x, y, s in zip(xs, ys, strokes))


def batched(canvas_args, xs, ys, radius_px, stroke, fill="none"):
    """The text of `Canvas.circles`' elements, as `Canvas.render` joins it."""
    canvas = Canvas(*canvas_args)
    canvas.circles(np.asarray(xs), np.asarray(ys), radius_px, stroke=stroke, fill=fill)
    return "\n".join(canvas.elements)


class TestCircles:
    """`Canvas.circles` writes the elements of the per-point oracle."""

    def test_random_points(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 40.0, 500).tolist()
        ys = rng.uniform(300.0, 900.0, 500).tolist()
        args = ((-3.5, 41.0), (280.0, 910.0))
        text = batched(args, xs, ys, 2.2, "#aa3322")
        assert len(text.split("\n")) == 500
        assert text == looped(args, xs, ys, 2.2, "#aa3322")

    def test_fill(self):
        xs, ys = [0.1, 0.5, 0.9], [0.2, 0.4, 0.8]
        args = ((0.0, 1.0), (0.0, 1.0))
        text = batched(args, xs, ys, 2.4, "#000000", fill="#000000")
        assert text == looped(args, xs, ys, 2.4, "#000000", fill="#000000")
        assert all(e.endswith(' fill="#000000"/>') for e in text.split("\n"))

    def test_per_point_strokes(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0.0, 1.0, 60).tolist()
        ys = rng.uniform(0.0, 1.0, 60).tolist()
        strokes = [("#aa3322", "#2255aa", "#000000")[k % 3] for k in range(60)]
        args = ((0.0, 1.0), (0.0, 1.0))
        assert batched(args, xs, ys, 2.2, strokes) == looped(args, xs, ys, 2.2, strokes)

    def test_stroke_count_must_match(self):
        with pytest.raises(ValueError):
            Canvas((0.0, 1.0), (0.0, 1.0)).circles([0.1, 0.2], [0.1, 0.2],
                                                   stroke=["#000000"])

    def test_degenerate_ranges(self):
        xs, ys = [1.0, 2.0, 3.0], [5.0, 6.0, 7.0]
        args = ((2.0, 2.0), (6.0, 6.0))
        text = batched(args, xs, ys, 2.5, "#000000")
        assert text == looped(args, xs, ys, 2.5, "#000000")
        assert all('cx="320.000" cy="240.000"' in e for e in text.split("\n"))

    def test_negative_zero_prints_zero(self):
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        span = canvas.width - 2.0 * canvas.margin
        x = (-0.0004 - canvas.margin) / span
        assert f"{canvas._sx(x):.3f}" == "-0.000"
        args = ((0.0, 1.0), (0.0, 1.0))
        text = batched(args, [x], [0.5], 2.2, "#000000")
        assert text == looped(args, [x], [0.5], 2.2, "#000000")
        assert 'cx="0.000"' in text

    def test_text_columns_give_the_same_elements(self):
        # two figures that share the x range print the same x column alike
        rng = np.random.default_rng(9)
        xs, ys = rng.uniform(0.0, 3.0, 80), rng.uniform(-5.0, 5.0, 80)
        args, other = ((-0.2, 3.1), (-5.5, 5.5)), ((-0.2, 3.1), (-9.0, 1.0))
        text = batched(args, xs, ys, 2.2, "#2255aa")
        assert text == looped(args, xs.tolist(), ys.tolist(), 2.2, "#2255aa")
        cx = [e.split('"')[1] for e in text.split("\n")]
        assert cx == [e.split('"')[1]
                      for e in batched(other, xs, ys, 2.2, "#2255aa").split("\n")]
        with pytest.raises(ValueError, match="non-finite"):
            Canvas(*args).circles([0.1, 0.2], [0.0, math.nan])

    def test_empty_input_adds_nothing(self):
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        canvas.circles([], [], 2.2)
        assert canvas.elements == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y", "radius", "x and y"])
    def test_non_finite_raises_the_loop_error(self, bad, where):
        xs, ys, radius = [0.2, 0.4, 0.6], [0.3, 0.5, 0.7], 2.2
        if where == "x":
            xs[1] = bad
        elif where == "y":
            ys[2] = bad
        elif where == "radius":
            radius = bad
        else:  # the loop meets x before y, and a later point after both
            xs[1], ys[1], xs[2] = bad, (math.inf if math.isnan(bad) else math.nan), math.nan
        args = ((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError) as loop_error:
            looped(args, xs, ys, radius, "#000000")
        with pytest.raises(ValueError) as batch_error:
            batched(args, xs, ys, radius, "#000000")
        assert str(batch_error.value) == str(loop_error.value)
        assert "non-finite coordinate" in str(batch_error.value)


def looped_segments(canvas_args, x1s, y1s, x2s, y2s, **style):
    """Elements of `oracles.svg_line`, one segment at a time, one per line."""
    canvas = Canvas(*canvas_args)
    return "\n".join(oracles.svg_line(canvas, x1, y1, x2, y2, **style)
                     for x1, y1, x2, y2 in zip(x1s, y1s, x2s, y2s))


def batched_segments(canvas_args, x1s, y1s, x2s, y2s, **style):
    """The text of `Canvas.segments`' elements, as `Canvas.render` joins it."""
    canvas = Canvas(*canvas_args)
    canvas.segments(*(np.asarray(v, dtype=float) for v in (x1s, y1s, x2s, y2s)), **style)
    return "\n".join(canvas.elements)


class TestSegments:
    """`Canvas.segments` writes the elements of the per-segment oracle."""

    @pytest.mark.parametrize("dashed", [False, True])
    def test_random_segments(self, dashed):
        rng = np.random.default_rng(11)
        ends = [rng.uniform(lo, hi, 600).tolist()
                for lo, hi in ((0.0, 8.0), (1.0, 5.0), (0.0, 8.0), (1.0, 5.0))]
        args = ((-0.4, 8.4), (0.8, 5.2))
        style = {"stroke": "#228833", "width": 1.0, "dashed": dashed}
        text = batched_segments(args, *ends, **style)
        assert len(text.split("\n")) == 600
        assert text == looped_segments(args, *ends, **style)

    def test_degenerate_ranges(self):
        ends = ([1.0, 2.0], [5.0, 6.0], [3.0, 4.0], [7.0, 8.0])
        args = ((2.0, 2.0), (6.0, 6.0))
        text = batched_segments(args, *ends, stroke="#aa3322", dashed=True)
        assert text == looped_segments(args, *ends, stroke="#aa3322", dashed=True)
        assert all('x1="320.000" y1="240.000" x2="320.000" y2="240.000"' in e
                   for e in text.split("\n"))

    def test_negative_zero_prints_zero(self):
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        x = (-0.0004 - canvas.margin) / (canvas.width - 2.0 * canvas.margin)
        assert f"{canvas._sx(x):.3f}" == "-0.000"
        args = ((0.0, 1.0), (0.0, 1.0))
        ends = ([0.5], [0.5], [x], [0.25])
        text = batched_segments(args, *ends)
        assert text == looped_segments(args, *ends)
        assert 'x2="0.000"' in text

    def test_empty_input_adds_nothing(self):
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        canvas.segments([], [], [], [])
        assert canvas.elements == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(1, 0), (1, 1), (2, 2), (0, 3), "several"])
    def test_non_finite_raises_the_loop_error(self, bad, where):
        ends = [[0.2, 0.4, 0.6], [0.3, 0.5, 0.7], [0.1, 0.9, 0.5], [0.8, 0.2, 0.4]]
        if where == "several":  # the loop meets y2 of segment 1 first
            ends[3][1], ends[0][2], ends[1][2] = bad, math.nan, math.inf
        else:
            ends[where[1]][where[0]] = bad
        args = ((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError) as loop_error:
            looped_segments(args, *ends)
        with pytest.raises(ValueError) as batch_error:
            batched_segments(args, *ends)
        assert str(batch_error.value) == str(loop_error.value)
        assert "non-finite coordinate" in str(batch_error.value)


def polyline_oracle(canvas, xs, ys, stroke="#000000", width=1.0, dashed=False):
    """The polyline element written one point at a time."""
    pts = " ".join(f"{_fmt(canvas._sx(x))},{_fmt(canvas._sy(y))}"
                   for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}"'
            f'{dash} points="{pts}"/>')


class TestPolyline:
    """`Canvas.polyline` writes the element of the per-point formula."""

    @pytest.mark.parametrize("as_array", [False, True])
    def test_random_points(self, as_array):
        rng = np.random.default_rng(12)
        xs = np.cumsum(rng.uniform(0.0, 0.01, 2048))
        ys = rng.normal(0.0, 40.0, 2048)
        canvas = Canvas((-0.5, 21.0), (-150.0, 150.0))
        want = polyline_oracle(canvas, xs.tolist(), ys.tolist(), "#777777", 1.4, True)
        if not as_array:
            xs, ys = xs.tolist(), ys.tolist()
        canvas.polyline(xs, ys, stroke="#777777", width=1.4, dashed=True)
        assert canvas.elements == [want]

    def test_two_points_and_degenerate_range(self):
        canvas = Canvas((3.0, 3.0), (-1.0, 1.0))
        want = polyline_oracle(canvas, [1.0, 5.0], [0.0, 0.0], "#bbbbbb", 0.8)
        canvas.polyline([1.0, 5.0], [0.0, 0.0], stroke="#bbbbbb", width=0.8)
        assert canvas.elements == [want]
        assert 'points="320.000,240.000 320.000,240.000"' in want

    def test_negative_zero_prints_zero(self):
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        x = (-0.0004 - canvas.margin) / (canvas.width - 2.0 * canvas.margin)
        want = polyline_oracle(canvas, [x, 0.5], [0.5, 0.5])
        canvas.polyline([x, 0.5], [0.5, 0.5])
        assert canvas.elements == [want]
        assert 'points="0.000,' in want

    def test_empty_input(self):
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        want = polyline_oracle(canvas, [], [])
        canvas.polyline([], [])
        assert canvas.elements == [want]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y", "x and y"])
    def test_non_finite_raises_the_loop_error(self, bad, where):
        xs, ys = [0.2, 0.4, 0.6], [0.3, 0.5, 0.7]
        if where == "x":
            xs[2] = bad
        elif where == "y":
            ys[1] = bad
        else:  # the loop meets y of point 1 before x of point 2
            ys[1], xs[2] = bad, math.nan
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError) as loop_error:
            polyline_oracle(canvas, xs, ys)
        with pytest.raises(ValueError) as batch_error:
            canvas.polyline(xs, ys)
        assert str(batch_error.value) == str(loop_error.value)
        assert canvas.elements == []
