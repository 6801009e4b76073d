"""Tests for the raster canvas drawing primitives."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.imaging import Canvas, Color
from repro.imaging.canvas import clamp_alpha
from repro.imaging.color import BLACK, PALETTE, WHITE


@pytest.fixture
def canvas():
    return Canvas(100, 80, background=WHITE)


class TestConstruction:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Canvas(0, 10)

    def test_shape_is_hwc(self, canvas):
        assert canvas.pixels.shape == (80, 100, 3)

    def test_background_applied(self, canvas):
        assert np.allclose(canvas.pixels, 1.0)

    def test_default_background_black(self):
        assert np.allclose(Canvas(4, 4).pixels, 0.0)

    def test_from_array_validates_shape(self):
        with pytest.raises(ValueError):
            Canvas.from_array(np.zeros((4, 4)))

    def test_from_array_clips(self):
        arr = np.full((4, 4, 3), 2.0)
        c = Canvas.from_array(arr)
        assert c.pixels.max() == 1.0

    def test_from_array_is_c_contiguous(self):
        # A masked blend writes through a reshaped view of each row.
        array = np.asfortranarray(
            np.random.default_rng(0).random((20, 30, 3), dtype=np.float32))
        canvas = Canvas.from_array(array)
        assert canvas.pixels.flags.c_contiguous
        canvas.fill_circle(15, 10, 6, BLACK)
        assert canvas.pixels[10, 15].max() == 0.0

    def test_to_array_is_copy(self, canvas):
        arr = canvas.to_array()
        arr[:] = 0.0
        assert np.allclose(canvas.pixels, 1.0)

    def test_copy_independent(self, canvas):
        clone = canvas.copy()
        clone.fill(BLACK)
        assert np.allclose(canvas.pixels, 1.0)


class TestFillRect:
    def test_opaque_fill(self, canvas):
        canvas.fill_rect(Rect(10, 10, 20, 20), BLACK)
        assert np.allclose(canvas.pixels[15, 15], 0.0)
        assert np.allclose(canvas.pixels[5, 5], 1.0)

    def test_alpha_blend(self, canvas):
        canvas.fill_rect(Rect(0, 0, 100, 80), BLACK, alpha=0.5)
        assert np.allclose(canvas.pixels[40, 50], 0.5, atol=1e-6)

    def test_zero_alpha_noop(self, canvas):
        canvas.fill_rect(Rect(0, 0, 100, 80), BLACK, alpha=0.0)
        assert np.allclose(canvas.pixels, 1.0)

    def test_offscreen_rect_ignored(self, canvas):
        canvas.fill_rect(Rect(500, 500, 10, 10), BLACK)
        assert np.allclose(canvas.pixels, 1.0)

    def test_partially_offscreen_clipped(self, canvas):
        canvas.fill_rect(Rect(-10, -10, 20, 20), BLACK)
        assert np.allclose(canvas.pixels[5, 5], 0.0)
        assert np.allclose(canvas.pixels[15, 15], 1.0)


class TestStrokeRect:
    def test_stroke_leaves_interior(self, canvas):
        canvas.stroke_rect(Rect(10, 10, 40, 40), BLACK, thickness=2)
        assert np.allclose(canvas.pixels[11, 30], 0.0)  # top edge
        assert np.allclose(canvas.pixels[30, 30], 1.0)  # interior


class TestRoundedRect:
    def test_corners_unpainted(self, canvas):
        canvas.fill_rounded_rect(Rect(10, 10, 40, 40), BLACK, radius=10)
        # Very corner pixel lies outside the rounded corner.
        assert canvas.pixels[10, 10].mean() > 0.9
        # Center is painted.
        assert np.allclose(canvas.pixels[30, 30], 0.0)

    def test_zero_radius_is_full_rect(self, canvas):
        canvas.fill_rounded_rect(Rect(10, 10, 40, 40), BLACK, radius=0)
        assert np.allclose(canvas.pixels[10, 10], 0.0, atol=0.05)

    def test_radius_clamped_to_half_min_side(self, canvas):
        # Radius larger than half the side must not raise.
        canvas.fill_rounded_rect(Rect(10, 10, 20, 40), BLACK, radius=100)
        assert np.allclose(canvas.pixels[30, 20], 0.0)


class TestCircle:
    def test_center_painted_edge_not(self, canvas):
        canvas.fill_circle(50, 40, 10, BLACK)
        assert np.allclose(canvas.pixels[40, 50], 0.0)
        assert canvas.pixels[40, 65].mean() > 0.9

    def test_antialiased_edge(self, canvas):
        canvas.fill_circle(50, 40, 10, BLACK)
        edge = canvas.pixels[40, 59].mean()
        assert 0.0 < edge < 1.0  # partially covered pixel


class TestLinesAndCross:
    def test_line_painted(self, canvas):
        canvas.draw_line(0, 0, 99, 79, BLACK, thickness=3)
        assert canvas.pixels[40, 50].mean() < 0.2

    def test_cross_covers_diagonals(self, canvas):
        canvas.draw_cross(50, 40, 20, BLACK, thickness=2)
        assert canvas.pixels[40, 50].mean() < 0.5  # center
        assert canvas.pixels[33, 43].mean() < 0.6  # upper-left arm


class TestGradient:
    def test_vertical_gradient_monotonic(self, canvas):
        canvas.fill_vertical_gradient(Rect(0, 0, 100, 80), BLACK, WHITE)
        top = canvas.pixels[2, 50].mean()
        mid = canvas.pixels[40, 50].mean()
        bot = canvas.pixels[78, 50].mean()
        assert top < mid < bot


class TestNanAlphaIsRejected:
    """A NaN alpha passed the old ``np.clip`` and blended NaN into every
    pixel it covered; every primitive now raises instead."""

    NAN = float("nan")

    @pytest.mark.parametrize("draw", [
        lambda c, a: c.fill_rect(Rect(10, 10, 20, 20), BLACK, alpha=a),
        lambda c, a: c.fill_rect(Rect(500, 500, 5, 5), BLACK, alpha=a),
        lambda c, a: c.stroke_rect(Rect(10, 10, 20, 20), BLACK, alpha=a),
        lambda c, a: c.fill_rounded_rect(Rect(10, 10, 20, 20), BLACK, 4,
                                         alpha=a),
        lambda c, a: c.fill_circle(40, 40, 6, BLACK, alpha=a),
        lambda c, a: c.draw_line(5, 5, 60, 30, BLACK, alpha=a),
        lambda c, a: c.draw_cross(40, 40, 12, BLACK, alpha=a),
        lambda c, a: c.draw_cross(-90, 40, 12, BLACK, alpha=a),
        lambda c, a: c.fill_vertical_gradient(Rect(0, 0, 100, 80), BLACK,
                                              WHITE, alpha=a),
        lambda c, a: c.blend_counts(0, 0, np.ones((4, 4), dtype=np.int64),
                                    BLACK, a),
    ], ids=["fill_rect", "fill_rect_offscreen", "stroke_rect",
            "fill_rounded_rect", "fill_circle", "draw_line", "draw_cross",
            "draw_cross_offscreen",
            "fill_vertical_gradient", "blend_counts"])
    @pytest.mark.parametrize("nan", [float("nan"), np.float32("nan")])
    def test_raises_and_leaves_pixels(self, canvas, draw, nan):
        before = canvas.to_array()
        with pytest.raises(ValueError, match="alpha must be a number, "
                                             "got nan"):
            draw(canvas, nan)
        assert np.array_equal(canvas.pixels, before)

    def test_clamp_keeps_every_other_value(self):
        for alpha, want in [(-1.0, 0.0), (0.0, 0.0), (0.25, 0.25),
                            (1, 1.0), (3.5, 1.0), (float("inf"), 1.0),
                            (float("-inf"), 0.0), (np.float32(0.5), 0.5)]:
            got = clamp_alpha(alpha)
            assert type(got) is float and got == want


class TestNoiseAndSampling:
    def test_noise_changes_pixels_but_stays_clipped(self, canvas):
        rng = np.random.default_rng(7)
        canvas.add_noise(rng, scale=0.05)
        assert not np.allclose(canvas.pixels, 1.0)
        assert canvas.pixels.max() <= 1.0 and canvas.pixels.min() >= 0.0

    def test_sample_mean(self, canvas):
        canvas.fill_rect(Rect(0, 0, 50, 80), BLACK)
        mean = canvas.sample_mean(Rect(0, 0, 50, 80))
        assert mean.r < 0.01

    def test_sample_mean_offscreen_is_black(self, canvas):
        mean = canvas.sample_mean(Rect(1000, 1000, 5, 5))
        assert mean == Color(0, 0, 0)


# -- reference equivalence ---------------------------------------------------


def _reference_add_noise(canvas, rng, scale):
    """The original full-frame formula ``add_noise`` must reproduce."""
    noise = rng.normal(0.0, scale, size=canvas.pixels.shape).astype(np.float32)
    canvas.pixels = np.clip(canvas.pixels + noise, 0.0, 1.0)


class TestNoiseMatchesFullFrameReference:
    @pytest.mark.parametrize("w,h", [(100, 80), (37, 23), (5, 40), (64, 16),
                                     (3, 1), (360, 33)])
    @pytest.mark.parametrize("scale", [0.0, 0.008, 0.3])
    def test_pixels_and_rng_stream(self, w, h, scale):
        base = np.random.default_rng(w * h).random((h, w, 3))
        fast = Canvas.from_array(base)
        ref = fast.copy()
        rng_fast = np.random.default_rng(11)
        rng_ref = np.random.default_rng(11)
        fast.add_noise(rng_fast, scale=scale)
        _reference_add_noise(ref, rng_ref, scale)
        assert fast.pixels.dtype == np.float32
        assert np.array_equal(fast.pixels.view(np.uint32),
                              ref.pixels.view(np.uint32))
        # The generator is left exactly where the full-frame draw left it.
        assert rng_fast.normal() == rng_ref.normal()

    def test_noise_is_applied_in_place(self, canvas):
        buffer = canvas.pixels
        canvas.add_noise(np.random.default_rng(3), scale=0.05)
        assert canvas.pixels is buffer


class TestConstructionMatchesZeroThenFill:
    @pytest.mark.parametrize("background", [None, WHITE, PALETTE["red"],
                                            Color(0.1, 0.2, 0.3)])
    def test_background_buffer(self, background):
        canvas = Canvas(13, 7, background=background)
        want = np.zeros((7, 13, 3), dtype=np.float32)
        if background is not None:
            want[:] = background.as_array()
        assert canvas.pixels.dtype == np.float32
        assert np.array_equal(canvas.pixels.view(np.uint32),
                              want.view(np.uint32))


class TestBlendCounts:
    def test_matches_one_fill_rect_per_count(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 4, size=(6, 9))
        fast = Canvas.from_array(rng.random((20, 30, 3)))
        ref = fast.copy()
        fast.blend_counts(4, 7, counts, PALETTE["blue"], 0.45)
        for (i, j), n in np.ndenumerate(counts):
            for _ in range(n):
                ref.fill_rect(Rect(7 + j, 4 + i, 1, 1), PALETTE["blue"],
                              alpha=0.45)
        assert np.array_equal(fast.pixels.view(np.uint32),
                              ref.pixels.view(np.uint32))

    def test_zero_counts_and_zero_alpha_are_noops(self, canvas):
        before = canvas.to_array()
        canvas.blend_counts(0, 0, np.zeros((4, 4), dtype=np.int64), BLACK, 1.0)
        canvas.blend_counts(0, 0, np.ones((4, 4), dtype=np.int64), BLACK, 0.0)
        assert np.array_equal(canvas.pixels, before)
