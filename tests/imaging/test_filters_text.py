"""Tests for image filters and pseudo-text rendering."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.imaging import (
    Canvas,
    box_blur,
    draw_pseudo_text,
    gaussian_blur,
    gradient_magnitude,
    pseudo_text_width,
    to_grayscale,
)
from repro.imaging.color import BLACK, PALETTE, WHITE
from repro.imaging.filters import blur_region, resize


def checkerboard(h=32, w=32):
    img = np.indices((h, w)).sum(axis=0) % 2
    return np.repeat(img[:, :, None], 3, axis=2).astype(np.float32)


class TestGrayscale:
    def test_shape(self):
        assert to_grayscale(checkerboard()).shape == (32, 32)

    def test_white_maps_to_one(self):
        img = np.ones((4, 4, 3), dtype=np.float32)
        assert np.allclose(to_grayscale(img), 1.0)

    def test_passthrough_for_2d(self):
        img = np.full((4, 4), 0.5, dtype=np.float32)
        assert np.allclose(to_grayscale(img), 0.5)


class TestBlur:
    def test_gaussian_reduces_variance(self):
        img = checkerboard()
        blurred = gaussian_blur(img, sigma=2.0)
        assert blurred.var() < img.var()

    def test_gaussian_sigma_zero_noop_copy(self):
        img = checkerboard()
        out = gaussian_blur(img, 0.0)
        assert np.array_equal(out, img)
        out[0, 0] = 9.0
        assert img[0, 0, 0] != 9.0

    def test_box_blur_reduces_variance(self):
        img = checkerboard()
        assert box_blur(img, 5).var() < img.var()

    def test_blur_region_only_touches_rect(self):
        img = checkerboard(32, 32)
        out = blur_region(img, Rect(0, 0, 16, 32), sigma=3.0)
        # Right half untouched.
        assert np.array_equal(out[:, 20:], img[:, 20:])
        # Left half changed.
        assert not np.array_equal(out[:, :12], img[:, :12])

    def test_blur_region_offscreen_noop(self):
        img = checkerboard()
        out = blur_region(img, Rect(100, 100, 10, 10), sigma=3.0)
        assert np.array_equal(out, img)


class TestGradient:
    def test_edge_has_high_gradient(self):
        img = np.zeros((16, 16, 3), dtype=np.float32)
        img[:, 8:] = 1.0
        mag = gradient_magnitude(img)
        assert mag[:, 7:9].max() > mag[:, 0:4].max()

    def test_flat_image_zero_gradient(self):
        img = np.full((8, 8, 3), 0.5, dtype=np.float32)
        assert np.allclose(gradient_magnitude(img), 0.0, atol=1e-5)


class TestResize:
    def test_exact_output_shape(self):
        img = checkerboard(33, 47)
        out = resize(img, 96, 96)
        assert out.shape == (96, 96, 3)

    def test_downscale_shape(self):
        out = resize(checkerboard(64, 64), 16, 24)
        assert out.shape == (16, 24, 3)

    def test_grayscale_input(self):
        out = resize(np.ones((10, 10), dtype=np.float32), 5, 5)
        assert out.shape == (5, 5)
        assert np.allclose(out, 1.0)

    def test_values_stay_in_unit_range(self):
        out = resize(checkerboard(), 100, 100)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestPseudoText:
    def test_width_scales_with_length(self):
        assert pseudo_text_width("abcd", 10) > pseudo_text_width("ab", 10)

    def test_width_empty(self):
        assert pseudo_text_width("", 10) == 0.0

    def test_draw_returns_bounds(self):
        canvas = Canvas(200, 60, background=WHITE)
        bounds = draw_pseudo_text(canvas, "Subscribe", 10, 20, 14, BLACK)
        assert bounds.x == 10 and bounds.y == 20 and bounds.h == 14
        assert bounds.w == pytest.approx(pseudo_text_width("Subscribe", 14))

    def test_draw_marks_pixels(self):
        canvas = Canvas(200, 60, background=WHITE)
        draw_pseudo_text(canvas, "XX", 10, 20, 20, BLACK)
        region = canvas.pixels[20:40, 10:40]
        assert region.min() < 0.1  # some strokes painted

    def test_space_renders_empty(self):
        canvas = Canvas(100, 40, background=WHITE)
        draw_pseudo_text(canvas, " ", 10, 10, 20, BLACK)
        assert np.allclose(canvas.pixels, 1.0)

    def test_deterministic_glyphs(self):
        c1 = Canvas(100, 40, background=WHITE)
        c2 = Canvas(100, 40, background=WHITE)
        draw_pseudo_text(c1, "close", 5, 5, 16, BLACK)
        draw_pseudo_text(c2, "close", 5, 5, 16, BLACK)
        assert np.array_equal(c1.pixels, c2.pixels)

    def test_different_text_different_pixels(self):
        c1 = Canvas(100, 40, background=WHITE)
        c2 = Canvas(100, 40, background=WHITE)
        draw_pseudo_text(c1, "open", 5, 5, 16, BLACK)
        draw_pseudo_text(c2, "shut", 5, 5, 16, BLACK)
        assert not np.array_equal(c1.pixels, c2.pixels)

    def test_rejects_nonpositive_size(self):
        canvas = Canvas(10, 10)
        with pytest.raises(ValueError):
            draw_pseudo_text(canvas, "x", 0, 0, 0, BLACK)


class TestPseudoTextRejectsNan:
    def test_nan_size_has_its_own_message(self):
        canvas = Canvas(10, 10)
        with pytest.raises(ValueError, match="text size must not be NaN"):
            draw_pseudo_text(canvas, "x", 0, 0, float("nan"), BLACK)

    def test_nan_alpha_raises_and_leaves_pixels(self):
        canvas = Canvas(30, 20)
        before = canvas.to_array()
        for x in (2.0, 500.0):  # on and off the canvas
            with pytest.raises(ValueError, match="alpha must be a number"):
                draw_pseudo_text(canvas, "Close", x, 2.0, 9.0, WHITE,
                                 alpha=float("nan"))
        assert np.array_equal(canvas.pixels, before)


# -- reference equivalence ---------------------------------------------------
#
# The per-cell loop below is the original pseudo-text renderer: one
# ``fill_rect`` per lit glyph cell.  ``draw_pseudo_text`` must reproduce
# its pixels bit for bit.


def _reference_glyph_bars(char):
    if char.isspace():
        return np.zeros((5, 3), dtype=bool)
    state = (ord(char) * 0x9E3779B1 + 0x85EBCA6B) & 0xFFFFFFFF
    bits = []
    for _ in range(15):
        state = (state * 0x2545F491 + 0x343FD) & 0xFFFFFFFF
        bits.append((state >> 16) & 1)
    pattern = np.array(bits, dtype=bool).reshape(5, 3)
    pattern[2, :] = True
    return pattern


def _reference_draw_pseudo_text(canvas, text, x, y, size, color, alpha=1.0):
    cursor = x
    glyph_w = size * 0.62
    gap = size * 0.14
    cell_h = size / 5.0
    cell_w = glyph_w / 3.0
    for char in text:
        pattern = _reference_glyph_bars(char)
        for row in range(5):
            for col in range(3):
                if pattern[row, col]:
                    canvas.fill_rect(
                        Rect(cursor + col * cell_w, y + row * cell_h,
                             cell_w, cell_h),
                        color, alpha=alpha)
        cursor += glyph_w + gap
    return Rect(x, y, pseudo_text_width(text, size), size)


def _noisy_canvas(seed, w=97, h=61):
    rng = np.random.default_rng(seed)
    return Canvas.from_array(rng.random((h, w, 3)).astype(np.float32))


def _assert_text_bit_identical(text, x, y, size, alpha, seed=0,
                               color=PALETTE["red"]):
    fast = _noisy_canvas(seed)
    ref = fast.copy()
    got = draw_pseudo_text(fast, text, x, y, size, color, alpha=alpha)
    want = _reference_draw_pseudo_text(ref, text, x, y, size, color,
                                       alpha=alpha)
    assert got == want
    assert np.array_equal(fast.pixels.view(np.uint32),
                          ref.pixels.view(np.uint32))


class TestPseudoTextMatchesPerCellReference:
    @pytest.mark.parametrize("text,x,y,size,alpha", [
        # fractional cells: neighbours share a pixel column and row
        ("Subscribe now", 3.3, 7.71, 7.7, 1.0),
        ("WWWW", 0.45, 0.45, 13.3, 0.37),
        ("close", 10.9, 20.2, 21.4, 0.83),
        # partly off-canvas on every side, and fully off-canvas
        ("overflowing label", -12.6, -3.2, 11.1, 0.5),
        ("edge", 80.3, 52.7, 14.0, 0.9),
        ("gone", 200.0, 10.0, 12.0, 1.0),
        ("gone", 10.0, -40.0, 12.0, 1.0),
        # whitespace, the empty string, and sub-pixel sizes
        ("   ", 5.0, 5.0, 10.0, 1.0),
        ("a b\tc", 5.5, 5.5, 10.0, 0.6),
        ("", 5.0, 5.0, 10.0, 1.0),
        ("tiny", 4.2, 9.9, 0.6, 0.7),
        ("tinier", 4.0, 9.0, 0.05, 1.0),
        # alpha is clipped to [0, 1] exactly as fill_rect clips it
        ("clip", 2.0, 2.0, 9.0, 1.7),
        ("none", 2.0, 2.0, 9.0, 0.0),
        ("none", 2.0, 2.0, 9.0, -0.5),
        # integer geometry: no shared pixels at all
        ("grid", 4, 4, 15, 1.0),
    ])
    def test_cases(self, text, x, y, size, alpha):
        _assert_text_bit_identical(text, x, y, size, alpha)

    def test_seeded_random_calls(self):
        rng = np.random.default_rng(2024)
        alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,!?-"
        for i in range(150):
            n = int(rng.integers(0, 14))
            text = "".join(rng.choice(list(alphabet), size=n))
            size = float(rng.choice([rng.uniform(0.2, 1.5),
                                     rng.uniform(1.5, 40.0)]))
            x = float(rng.uniform(-30.0, 110.0))
            y = float(rng.uniform(-20.0, 70.0))
            alpha = float(rng.choice([1.0, rng.uniform(0.0, 1.0)]))
            _assert_text_bit_identical(text, x, y, size, alpha, seed=i)

    def test_repeated_calls_share_glyph_patterns_safely(self):
        # Memoised glyph patterns must not leak state between calls.
        for _ in range(3):
            _assert_text_bit_identical("aaaa", 1.5, 1.5, 9.5, 0.4)
