import math

import numpy as np
import pytest

from camdrive.svgplot import Canvas


def looped(canvas_args, xs, ys, radius_px, stroke):
    """Elements of one `Canvas.circle` call per point."""
    canvas = Canvas(*canvas_args)
    strokes = [stroke] * len(xs) if isinstance(stroke, str) else stroke
    for x, y, s in zip(xs, ys, strokes):
        canvas.circle(x, y, radius_px, stroke=s)
    return canvas.elements


def batched(canvas_args, xs, ys, radius_px, stroke):
    canvas = Canvas(*canvas_args)
    canvas.circles(np.asarray(xs), np.asarray(ys), radius_px, stroke=stroke)
    return canvas.elements


class TestCircles:
    """`Canvas.circles` writes the elements of a `Canvas.circle` loop."""

    def test_random_points(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 40.0, 500).tolist()
        ys = rng.uniform(300.0, 900.0, 500).tolist()
        args = ((-3.5, 41.0), (280.0, 910.0))
        elements = batched(args, xs, ys, 2.2, "#aa3322")
        assert len(elements) == 500
        assert elements == looped(args, xs, ys, 2.2, "#aa3322")

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
        elements = batched(args, xs, ys, 2.5, "#000000")
        assert elements == looped(args, xs, ys, 2.5, "#000000")
        assert all('cx="320.000" cy="240.000"' in e for e in elements)

    def test_negative_zero_prints_zero(self):
        canvas = Canvas((0.0, 1.0), (0.0, 1.0))
        span = canvas.width - 2.0 * canvas.margin
        x = (-0.0004 - canvas.margin) / span
        assert f"{canvas._sx(x):.3f}" == "-0.000"
        args = ((0.0, 1.0), (0.0, 1.0))
        elements = batched(args, [x], [0.5], 2.2, "#000000")
        assert elements == looped(args, [x], [0.5], 2.2, "#000000")
        assert 'cx="0.000"' in elements[0]

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
