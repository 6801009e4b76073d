"""The raster primitives against the straightforward code they replaced.

``Canvas`` and ``draw_pseudo_text`` take fast paths: an opaque fill
assigns the ink, a masked blend runs over each row's contiguous
channels, a cross is one coverage count and one ``blend_counts``, and a
pseudo-text coverage map is memoised.  ``_ReferenceCanvas`` and
``_reference_draw_pseudo_text`` below keep the versions they replaced
(one ``fill_rect`` blend per line square, an ``(h, w, 1)`` alpha
broadcast, ``np.clip``/``np.floor``/``np.ceil``, span arithmetic per
call).  Every pixel must carry the same float32 bits: over the seed-0
corpus screens rasterised without noise (windowed, full-screen and with
overlays), and as hypothesis properties of each primitive.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.android.renderer as renderer
import repro.imaging.text as text_module
from repro.android import LayoutParams, Screen, View, WindowManager
from repro.android.renderer import render_screen
from repro.datagen import build_corpus
from repro.geometry import Rect
from repro.imaging import Canvas, Color
from repro.imaging.color import PALETTE
from repro.imaging.text import (_GLYPH_ASPECT, _GLYPH_GAP, _glyph_bars,
                                draw_pseudo_text, pseudo_text_width)


def _bits(pixels):
    return np.ascontiguousarray(pixels).view(np.uint32)


# -- the replaced primitives -------------------------------------------------


class _ReferenceCanvas(Canvas):
    """A canvas drawing with the straightforward primitives."""

    def _clip(self, rect):
        r = rect.clipped_to(self.bounds)
        if r.is_empty():
            return None
        x0, y0 = int(np.floor(r.left)), int(np.floor(r.top))
        x1, y1 = int(np.ceil(r.right)), int(np.ceil(r.bottom))
        x0, x1 = max(0, x0), min(self.width, x1)
        y0, y1 = max(0, y0), min(self.height, y1)
        if x1 <= x0 or y1 <= y0:
            return None
        return y0, y1, x0, x1

    def _blend_region(self, y0, y1, x0, x1, color, alpha):
        alpha = float(np.clip(alpha, 0.0, 1.0))
        if alpha <= 0.0:
            return
        region = self.pixels[y0:y1, x0:x1]
        region *= 1.0 - alpha
        region += np.tile(alpha * color.as_array(), (x1 - x0, 1))

    def _blend_mask(self, y0, y1, x0, x1, mask, color, alpha):
        alpha = float(np.clip(alpha, 0.0, 1.0))
        if alpha <= 0.0:
            return
        a = (mask * alpha)[..., None].astype(np.float32)
        region = self.pixels[y0:y1, x0:x1]
        region *= 1.0 - a
        region += a * color.as_array()

    def blend_counts(self, y0, x0, counts, color, alpha):
        alpha = float(np.clip(alpha, 0.0, 1.0))
        if alpha <= 0.0:
            return
        h, w = counts.shape
        region = self.pixels[y0:y0 + h, x0:x0 + w]
        ink = alpha * color.as_array()
        for depth in range(1, int(counts.max(initial=0)) + 1):
            covered = counts >= depth
            layer = region[covered]
            layer *= 1.0 - alpha
            layer += ink
            region[covered] = layer

    def fill_rect(self, rect, color, alpha=1.0):
        clip = self._clip(rect)
        if clip is None:
            return
        self._blend_region(*clip, color=color, alpha=alpha)

    def stroke_rect(self, rect, color, thickness=2, alpha=1.0):
        t = max(1, int(thickness))
        for edge in (Rect(rect.left, rect.top, rect.w, t),
                     Rect(rect.left, rect.bottom - t, rect.w, t),
                     Rect(rect.left, rect.top, t, rect.h),
                     Rect(rect.right - t, rect.top, t, rect.h)):
            self.fill_rect(edge, color, alpha=alpha)

    def fill_rounded_rect(self, rect, color, radius, alpha=1.0):
        clip = self._clip(rect)
        if clip is None:
            return
        y0, y1, x0, x1 = clip
        radius = float(np.clip(radius, 0.0, min(rect.w, rect.h) / 2.0))
        ys = np.arange(y0, y1, dtype=np.float32)[:, None] + 0.5
        xs = np.arange(x0, x1, dtype=np.float32)[None, :] + 0.5
        inner_left = rect.left + radius
        inner_right = rect.right - radius
        inner_top = rect.top + radius
        inner_bottom = rect.bottom - radius
        dx = np.maximum(np.maximum(inner_left - xs, xs - inner_right), 0.0)
        dy = np.maximum(np.maximum(inner_top - ys, ys - inner_bottom), 0.0)
        dist = np.sqrt(dx * dx + dy * dy)
        mask = (np.clip(radius - dist + 0.5, 0.0, 1.0) if radius > 0
                else (dist <= 0).astype(np.float32))
        self._blend_mask(y0, y1, x0, x1, mask.astype(np.float32), color, alpha)

    def fill_circle(self, cx, cy, radius, color, alpha=1.0):
        clip = self._clip(Rect.from_center(cx, cy, 2 * radius, 2 * radius))
        if clip is None:
            return
        y0, y1, x0, x1 = clip
        ys = np.arange(y0, y1, dtype=np.float32)[:, None] + 0.5
        xs = np.arange(x0, x1, dtype=np.float32)[None, :] + 0.5
        dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
        mask = np.clip(radius - dist + 0.5, 0.0, 1.0)
        self._blend_mask(y0, y1, x0, x1, mask, color, alpha)

    def draw_line(self, x0, y0, x1, y1, color, thickness=2, alpha=1.0):
        length = max(abs(x1 - x0), abs(y1 - y0))
        steps = max(2, int(np.ceil(length)))
        t = max(1, int(thickness))
        for i in range(steps + 1):
            f = i / steps
            px = x0 + (x1 - x0) * f
            py = y0 + (y1 - y0) * f
            self.fill_rect(Rect.from_center(px, py, t, t), color, alpha=alpha)

    def draw_cross(self, cx, cy, size, color, thickness=2, alpha=1.0):
        half = size / 2.0
        self.draw_line(cx - half, cy - half, cx + half, cy + half, color,
                       thickness=thickness, alpha=alpha)
        self.draw_line(cx - half, cy + half, cx + half, cy - half, color,
                       thickness=thickness, alpha=alpha)


def _reference_cell_span(start, length, limit):
    lo = max(start, 0)
    hi = min(start + length, limit)
    if hi <= lo:
        return None
    p0 = max(0, math.floor(lo))
    p1 = min(limit, math.ceil(lo + (hi - lo)))
    return (p0, p1) if p1 > p0 else None


def _reference_draw_pseudo_text(canvas, text, x, y, size, color, alpha=1.0):
    """The un-memoised pseudo-text: spans and coverage on every call."""
    if size <= 0:
        raise ValueError("text size must be positive")
    cursor = x
    glyph_w = size * _GLYPH_ASPECT
    gap = size * _GLYPH_GAP
    cell_h = size / 5.0
    cell_w = glyph_w / 3.0
    bounds = Rect(x, y, pseudo_text_width(text, size), size)
    rows, row_spans = [], []
    for row in range(5):
        span = _reference_cell_span(y + row * cell_h, cell_h, canvas.height)
        if span is not None:
            rows.append(row)
            row_spans.append(span)
    col_spans, col_cells = [], []
    for char in text:
        pattern = _glyph_bars(char)
        if any(pattern):
            for col in range(3):
                span = _reference_cell_span(cursor + col * cell_w, cell_w,
                                            canvas.width)
                if span is not None:
                    col_spans.append(span)
                    col_cells.append(pattern[col::3])
        cursor += glyph_w + gap
    if not rows or not col_spans:
        return bounds
    y0 = min(s[0] for s in row_spans)
    y1 = max(s[1] for s in row_spans)
    x0 = min(s[0] for s in col_spans)
    x1 = max(s[1] for s in col_spans)
    lit = np.array(col_cells, dtype=np.int64)[:, rows].T
    starts = np.array([s[0] for s in col_spans]) - x0
    stops = np.array([s[1] for s in col_spans]) - x0
    steps = np.zeros((len(rows), x1 - x0 + 1), dtype=np.int64)
    np.add.at(steps, (slice(None), starts), lit)
    np.subtract.at(steps, (slice(None), stops), lit)
    lines = np.cumsum(steps[:, :-1], axis=1)
    counts = np.zeros((y1 - y0, x1 - x0), dtype=np.int64)
    for (p0, p1), line in zip(row_spans, lines):
        counts[p0 - y0:p1 - y0] += line
    canvas.blend_counts(y0, x0, counts, color, alpha)
    return bounds


# -- corpus screens ------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(seed=0)


def _window_manager(state, overlays):
    wm = WindowManager(Screen())
    wm.attach_app_window(state.root, "com.dataset.render",
                         fullscreen=state.fullscreen)
    for k in range(overlays):
        view = View(bounds=Rect(0, 0, 1, 1), bg_color=PALETTE["red"],
                    bg_alpha=0.5, text="flag", text_color=PALETTE["white"])
        wm.add_view(view, LayoutParams(x=20 + 40 * k, y=60 + 7.5 * k,
                                       width=90, height=30), "com.darpa")
    return wm


def test_corpus_screens_match_the_reference(corpus, monkeypatch):
    """Every seed-0 corpus screen, AUI and negative, windowed and
    full-screen; every third one with two overlays, so the overlays are
    drawn twice (under and over the system bars)."""
    states = [s.screen for s in corpus.samples] + list(corpus.negatives)
    assert {s.fullscreen for s in states} == {True, False}
    wms = [_window_manager(s, overlays=2 if i % 3 == 0 else 0)
           for i, s in enumerate(states)]
    got = [render_screen(wm).pixels for wm in wms]
    monkeypatch.setattr(renderer, "Canvas", _ReferenceCanvas)
    monkeypatch.setattr(renderer, "draw_pseudo_text",
                        _reference_draw_pseudo_text)
    for i, wm in enumerate(wms):
        want = render_screen(wm).pixels
        assert np.array_equal(_bits(got[i]), _bits(want)), i


# -- properties of each primitive ---------------------------------------------

W, H = 37, 23

#: Alphas: none, opaque, translucent, and above 1 (clamped to opaque).
alphas = st.one_of(st.sampled_from([0.0, 1.0, -0.25, 1.5, 7.0]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
#: Colour channels include signed zeros: an opaque blend of a -0.0 ink
#: must keep the blend's +0.0 result.
channels = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
colors = st.builds(Color, channels, channels, channels)
#: Coordinates reach past every canvas edge; sizes include zero.
xs = st.floats(-12.0, W + 12.0)
ys = st.floats(-12.0, H + 12.0)
extents = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 30.0))
rects = st.builds(Rect, xs, ys, extents, extents)
seeds = st.integers(0, 2**16)


def _base(seed):
    """A canvas of random pixels, a sixth of them signed zeros, and its
    reference twin."""
    rng = np.random.default_rng(seed)
    pixels = rng.random((H, W, 3), dtype=np.float32)
    zeros = rng.random((H, W, 3))
    pixels[zeros < 0.08] = -0.0
    pixels[zeros > 0.92] = 0.0
    fast = Canvas(W, H)
    fast.pixels = pixels
    ref = _ReferenceCanvas(W, H)
    ref.pixels = pixels.copy()
    return fast, ref


def _assert_same(fast, ref):
    assert np.array_equal(_bits(fast.pixels), _bits(ref.pixels))


@given(rect=rects, color=colors, alpha=alphas, seed=seeds)
@example(rect=Rect(-3.5, 2.25, 50.0, 4.75), color=Color(0.0, -0.0, 1.0),
         alpha=1.0, seed=1)
@settings(max_examples=200, deadline=None)
def test_fill_rect(rect, color, alpha, seed):
    fast, ref = _base(seed)
    fast.fill_rect(rect, color, alpha=alpha)
    ref.fill_rect(rect, color, alpha=alpha)
    _assert_same(fast, ref)


@given(rect=rects, color=colors, thickness=st.integers(0, 6), alpha=alphas,
       seed=seeds)
@settings(max_examples=150, deadline=None)
def test_stroke_rect(rect, color, thickness, alpha, seed):
    fast, ref = _base(seed)
    fast.stroke_rect(rect, color, thickness=thickness, alpha=alpha)
    ref.stroke_rect(rect, color, thickness=thickness, alpha=alpha)
    _assert_same(fast, ref)


#: Radii: square corners, sub-pixel, ordinary and clamped to the rect.
radii = st.one_of(st.sampled_from([0.0, 0.3, 100.0, -2.0]),
                  st.floats(0.0, 20.0))


@given(rect=rects, color=colors, radius=radii, alpha=alphas, seed=seeds)
@example(rect=Rect(1.5, 1.5, 30.0, 18.0), color=PALETTE["blue"], radius=6.0,
         alpha=1.0, seed=2)
@settings(max_examples=200, deadline=None)
def test_fill_rounded_rect(rect, color, radius, alpha, seed):
    fast, ref = _base(seed)
    fast.fill_rounded_rect(rect, color, radius, alpha=alpha)
    ref.fill_rounded_rect(rect, color, radius, alpha=alpha)
    _assert_same(fast, ref)


@given(cx=xs, cy=ys, radius=st.one_of(st.sampled_from([0.0, 0.2, 0.5]),
                                      st.floats(0.0, 25.0)),
       color=colors, alpha=alphas, seed=seeds)
@settings(max_examples=200, deadline=None)
def test_fill_circle(cx, cy, radius, color, alpha, seed):
    fast, ref = _base(seed)
    fast.fill_circle(cx, cy, radius, color, alpha=alpha)
    ref.fill_circle(cx, cy, radius, color, alpha=alpha)
    _assert_same(fast, ref)


@given(x0=xs, y0=ys, x1=xs, y1=ys, zero_length=st.booleans(),
       thickness=st.integers(0, 7), color=colors, alpha=alphas, seed=seeds)
@settings(max_examples=200, deadline=None)
def test_draw_line(x0, y0, x1, y1, zero_length, thickness, color, alpha,
                   seed):
    if zero_length:
        x1, y1 = x0, y0
    fast, ref = _base(seed)
    fast.draw_line(x0, y0, x1, y1, color, thickness=thickness, alpha=alpha)
    ref.draw_line(x0, y0, x1, y1, color, thickness=thickness, alpha=alpha)
    _assert_same(fast, ref)


@given(cx=xs, cy=ys, size=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
       thickness=st.integers(0, 7), color=colors, alpha=alphas, seed=seeds)
@example(cx=18.5, cy=11.5, size=14.4, thickness=1, color=PALETTE["white"],
         alpha=0.9, seed=3)
@settings(max_examples=200, deadline=None)
def test_draw_cross(cx, cy, size, thickness, color, alpha, seed):
    fast, ref = _base(seed)
    fast.draw_cross(cx, cy, size, color, thickness=thickness, alpha=alpha)
    ref.draw_cross(cx, cy, size, color, thickness=thickness, alpha=alpha)
    _assert_same(fast, ref)


texts = st.text(alphabet="abcXYZ019 .,!\t", max_size=12)
sizes = st.one_of(st.floats(0.05, 1.5), st.floats(1.5, 30.0))


@given(text=texts, x=st.floats(-40.0, W + 5.0), y=st.floats(-30.0, H + 5.0),
       size=sizes, color=colors, alpha=alphas, seed=seeds)
@example(text="Subscribe", x=-3.3, y=17.71, size=7.7,
         color=PALETTE["red"], alpha=0.6, seed=4)
@settings(max_examples=300, deadline=None)
def test_draw_pseudo_text(text, x, y, size, color, alpha, seed):
    fast, ref = _base(seed)
    got = draw_pseudo_text(fast, text, x, y, size, color, alpha=alpha)
    want = _reference_draw_pseudo_text(ref, text, x, y, size, color,
                                       alpha=alpha)
    assert got == want
    _assert_same(fast, ref)
    # Drawn again, the memoised coverage gives the same pixels.
    draw_pseudo_text(fast, text, x, y, size, color, alpha=alpha)
    _reference_draw_pseudo_text(ref, text, x, y, size, color, alpha=alpha)
    _assert_same(fast, ref)


# -- the pseudo-text memo -----------------------------------------------------


class TestCoverageMemo:
    def test_is_bounded(self):
        text_module._coverage.cache_clear()
        limit = text_module._COVERAGE_MEMO
        assert text_module._coverage.cache_info().maxsize == limit
        canvas = Canvas(W, H)
        for k in range(limit + 50):
            draw_pseudo_text(canvas, "ab", k * 0.01, 1.0, 5.0,
                             PALETTE["red"], alpha=0.01)
        assert text_module._coverage.cache_info().currsize == limit

    def test_holds_read_only_small_integer_maps(self):
        y0, x0, counts = text_module._coverage("WWW", 0.45, 0.45, 13.3,
                                               W, H)
        assert counts.dtype == np.uint8 and counts.max() >= 2
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0, 0] = 9
        # A thousand cells on one pixel need a wider dtype.
        _, _, deep = text_module._coverage("a" * 400, 0.0, 0.0, 0.001,
                                           W, H)
        assert deep.shape == (1, 1) and deep.max() > 255

    def test_hit_gives_the_bytes_of_a_miss(self):
        text_module._coverage.cache_clear()
        args = ("Close ad", 2.3, 4.6, 9.7)
        first, second = _base(9)[0], _base(9)[0]
        draw_pseudo_text(first, *args, PALETTE["gray"], alpha=0.55)
        info = text_module._coverage.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        draw_pseudo_text(second, *args, PALETTE["gray"], alpha=0.55)
        assert text_module._coverage.cache_info().hits == 1
        _assert_same(first, second)

    def test_canvas_size_is_part_of_the_key(self):
        # The same call on a narrower canvas clips its cells there.
        text_module._coverage.cache_clear()
        for width in (W, 20, W):
            fast = Canvas(width, H)
            ref = _ReferenceCanvas(width, H)
            draw_pseudo_text(fast, "overflowing", 3.3, 4.4, 8.0,
                             PALETTE["red"], alpha=0.7)
            _reference_draw_pseudo_text(ref, "overflowing", 3.3, 4.4, 8.0,
                                        PALETTE["red"], alpha=0.7)
            _assert_same(fast, ref)
        info = text_module._coverage.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_numpy_scalars_are_separate_entries(self):
        # np.float32 arithmetic can differ from float arithmetic.
        text_module._coverage.cache_clear()
        canvas = Canvas(W, H)
        draw_pseudo_text(canvas, "ab", 1.5, 2.25, 5.0, PALETTE["red"])
        draw_pseudo_text(canvas, "ab", np.float32(1.5), 2.25, 5.0,
                         PALETTE["red"])
        assert text_module._coverage.cache_info().misses == 2
