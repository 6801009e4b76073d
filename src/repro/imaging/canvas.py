"""A float RGB canvas with alpha-composited drawing primitives.

The simulated Android renderer draws view trees onto a ``Canvas``; the
dataset generator draws AUI screens directly.  All drawing is clipped to
the canvas bounds, and every primitive accepts an ``alpha`` so that the
generator can produce the translucent, low-salience UPOs the paper
describes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.imaging.color import Color


#: Rows of sensor noise per draw and per add-and-clip.  Each block
#: costs a thread that draws beside the rasterising thread three GIL
#: round trips; 64-row blocks keep that to 30 per 640-row frame.
NOISE_ROWS = 64


def draw_noise(rng: np.random.Generator, out: np.ndarray, scale: float,
               scratch: Optional[np.ndarray] = None) -> None:
    """Fill ``out`` (float32, ``(rows, W, 3)``) with sensor noise.

    The values of ``rng.normal(0.0, scale)``, drawn one block of
    ``NOISE_ROWS`` rows at a time, in row order.  ``Generator.normal``
    carries no spare draw from one call to the next (unlike the legacy
    ``RandomState``), so any split into blocks yields the same values,
    and leaves ``rng`` in the same state, as one full-frame draw.

    Each block is ``rng.standard_normal`` into ``scratch`` (float64,
    ``(NOISE_ROWS, W, 3)``; allocated here when None, so a caller that
    draws many frames passes one), multiplied by ``scale`` and then added
    to ``0.0``: the same draws and the same arithmetic as ``normal``'s
    ``loc + scale * z`` (the add turns a ``-0.0`` into ``+0.0``), without
    a float64 temporary per block.
    """
    rng.normal(0.0, scale, size=0)  # normal's own check of scale; draws nothing
    if scratch is None:
        scratch = np.empty((min(NOISE_ROWS, len(out)),) + out.shape[1:])
    for y0 in range(0, len(out), NOISE_ROWS):
        chunk = out[y0:y0 + NOISE_ROWS]
        draws = scratch[:len(chunk)]
        rng.standard_normal(out=draws)
        np.multiply(draws, scale, out=draws)
        np.add(draws, 0.0, out=chunk)


def apply_noise(pixels: np.ndarray, noise: np.ndarray) -> None:
    """Add ``noise`` to ``pixels`` in place, clipped to [0, 1], by blocks."""
    for y0 in range(0, len(pixels), NOISE_ROWS):
        block = pixels[y0:y0 + NOISE_ROWS]
        np.add(block, noise[y0:y0 + NOISE_ROWS], out=block)
        np.clip(block, 0.0, 1.0, out=block)


def clamp_alpha(alpha: float) -> float:
    """``alpha`` as a float clamped to [0, 1]; a NaN raises ``ValueError``.

    Every primitive's ``alpha`` goes through here: a NaN would otherwise
    pass the clamp and blend NaN into every pixel it covers.
    """
    alpha = float(alpha)
    if alpha != alpha:
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    return min(max(alpha, 0.0), 1.0)


class Canvas:
    """An ``(H, W, 3)`` float32 RGB raster with [0, 1] channels.

    ``pixels`` is C-contiguous (every constructor makes it so): a masked
    blend writes through a reshaped view of each region's rows.
    """

    def __init__(self, width: int, height: int, background: Optional[Color] = None):
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        # One pass over one buffer: fill the first row, copy it down.
        self.pixels = np.empty((self.height, self.width, 3), dtype=np.float32)
        self.pixels[0] = 0.0 if background is None else background.as_array()
        self.pixels[1:] = self.pixels[0]

    # -- bookkeeping ---------------------------------------------------

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    def copy(self) -> "Canvas":
        clone = Canvas(self.width, self.height)
        clone.pixels = self.pixels.copy()
        return clone

    def _clip(self, rect: Rect) -> Optional[Tuple[int, int, int, int]]:
        """Integer (y0, y1, x0, x1) slice bounds for a rect, or None."""
        return self._clip_box(rect.x, rect.y, rect.w, rect.h)

    def _clip_box(self, x: float, y: float, w: float,
                  h: float) -> Optional[Tuple[int, int, int, int]]:
        """:meth:`_clip` of ``Rect(x, y, w, h)``: the arithmetic of
        ``Rect.clipped_to(self.bounds)`` (whose right edge is
        ``left + (right - left)``), then floor and ceil, without
        building either rect."""
        left, top = max(x, 0), max(y, 0)
        right, bottom = min(x + w, self.width), min(y + h, self.height)
        if right <= left or bottom <= top:
            return None
        x0, y0 = max(0, math.floor(left)), max(0, math.floor(top))
        x1 = min(self.width, math.ceil(left + (right - left)))
        y1 = min(self.height, math.ceil(top + (bottom - top)))
        if x1 <= x0 or y1 <= y0:
            return None
        return y0, y1, x0, x1

    # -- compositing ------------------------------------------------------

    def _blend_region(
        self, y0: int, y1: int, x0: int, x1: int, color: Color, alpha: float
    ) -> None:
        """Blend ``color`` over a pixel box; ``alpha`` is clamped."""
        if alpha <= 0.0:
            return
        region = self.pixels[y0:y1, x0:x1]
        # The same float32 ink per pixel, laid out a whole row wide: a
        # bare (3,) operand would make NumPy's inner loop 3 elements long.
        ink = np.empty((x1 - x0, 3), dtype=np.float32)
        ink[...] = alpha * color.as_array()
        if alpha == 1.0 and not np.signbit(ink[0]).any():
            # x * 0.0 is +-0 for a finite x, and +-0 + ink is ink unless
            # ink is -0.0: the same bits as the blend below.
            region[...] = ink
        else:
            region *= 1.0 - alpha
            region += ink

    def _blend_mask(self, y0: int, y1: int, x0: int, x1: int, mask: np.ndarray,
                    color: Color, alpha: float) -> None:
        """Blend ``color`` weighted by ``mask`` (float in [0,1]) times
        ``alpha`` (clamped) over a pixel box."""
        if alpha <= 0.0:
            return
        h, w = mask.shape
        # Each row's channels as one contiguous run of 3w floats, with
        # the per-pixel weight repeated per channel and the ink tiled
        # along the row: the float32 arithmetic of an (h, w, 1) weight
        # broadcast over (h, w, 3), in row-long inner loops.
        region = self.pixels[y0:y1, x0:x1].reshape(h, 3 * w)
        a = np.repeat((mask * alpha).astype(np.float32, copy=False), 3, axis=1)
        region *= 1.0 - a
        a *= np.tile(color.as_array(), w)
        region += a

    def blend_counts(self, y0: int, x0: int, counts: np.ndarray, color: Color,
                     alpha: float) -> None:
        """Blend ``color`` ``counts[i, j]`` times over pixel ``(y0+i, x0+j)``.

        Bit-identical to that many ``fill_rect`` blends per pixel, but
        with one vectorised blend per overlap depth instead of one per
        rect.  ``counts`` must lie inside the canvas.
        """
        alpha = clamp_alpha(alpha)
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

    def _blend_boxes(self, boxes: Sequence[Tuple[int, int, int, int]],
                     color: Color, alpha: float) -> None:
        """One ``fill_rect`` blend per clipped box (all sharing colour
        and ``alpha``), as one :meth:`blend_counts` over their union."""
        if not boxes or alpha <= 0.0:
            return
        y0 = min(b[0] for b in boxes)
        y1 = max(b[1] for b in boxes)
        x0 = min(b[2] for b in boxes)
        x1 = max(b[3] for b in boxes)
        counts = np.zeros((y1 - y0, x1 - x0), dtype=np.intp)
        for by0, by1, bx0, bx1 in boxes:
            counts[by0 - y0:by1 - y0, bx0 - x0:bx1 - x0] += 1
        self.blend_counts(y0, x0, counts, color, alpha)

    # -- primitives ---------------------------------------------------------

    def fill(self, color: Color) -> None:
        self.pixels[:] = color.as_array()

    def fill_rect(self, rect: Rect, color: Color, alpha: float = 1.0) -> None:
        alpha = clamp_alpha(alpha)
        clip = self._clip(rect)
        if clip is None:
            return
        self._blend_region(*clip, color=color, alpha=alpha)

    def stroke_rect(self, rect: Rect, color: Color, thickness: int = 2,
                    alpha: float = 1.0) -> None:
        """Outline a rect; strokes grow inward from the rect edge."""
        t = max(1, int(thickness))
        edges = [
            Rect(rect.left, rect.top, rect.w, t),                 # top
            Rect(rect.left, rect.bottom - t, rect.w, t),          # bottom
            Rect(rect.left, rect.top, t, rect.h),                 # left
            Rect(rect.right - t, rect.top, t, rect.h),            # right
        ]
        for edge in edges:
            self.fill_rect(edge, color, alpha=alpha)

    def fill_rounded_rect(self, rect: Rect, color: Color, radius: float,
                          alpha: float = 1.0) -> None:
        """Rect with circular corners — the shape of most app buttons."""
        alpha = clamp_alpha(alpha)
        clip = self._clip(rect)
        if clip is None:
            return
        y0, y1, x0, x1 = clip
        radius = float(np.clip(radius, 0.0, min(rect.w, rect.h) / 2.0))
        ys = np.arange(y0, y1, dtype=np.float32)[:, None] + 0.5
        xs = np.arange(x0, x1, dtype=np.float32)[None, :] + 0.5
        # Distance from each pixel to the rounded-rect interior.
        inner_left = rect.left + radius
        inner_right = rect.right - radius
        inner_top = rect.top + radius
        inner_bottom = rect.bottom - radius
        dx = np.maximum(np.maximum(inner_left - xs, xs - inner_right), 0.0)
        dy = np.maximum(np.maximum(inner_top - ys, ys - inner_bottom), 0.0)
        dist = np.sqrt(dx * dx + dy * dy)
        mask = np.clip(radius - dist + 0.5, 0.0, 1.0) if radius > 0 else (dist <= 0).astype(np.float32)
        # For radius == 0 dist is 0 inside the rect, so mask is the full box.
        self._blend_mask(y0, y1, x0, x1, mask.astype(np.float32, copy=False),
                         color, alpha)

    def fill_circle(self, cx: float, cy: float, radius: float, color: Color,
                    alpha: float = 1.0) -> None:
        alpha = clamp_alpha(alpha)
        rect = Rect.from_center(cx, cy, 2 * radius, 2 * radius)
        clip = self._clip(rect)
        if clip is None:
            return
        y0, y1, x0, x1 = clip
        ys = np.arange(y0, y1, dtype=np.float32)[:, None] + 0.5
        xs = np.arange(x0, x1, dtype=np.float32)[None, :] + 0.5
        dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
        mask = np.clip(radius - dist + 0.5, 0.0, 1.0)
        self._blend_mask(y0, y1, x0, x1, mask, color, alpha)

    def draw_line(self, x0: float, y0: float, x1: float, y1: float,
                  color: Color, thickness: int = 2, alpha: float = 1.0) -> None:
        """A straight segment rendered as a series of filled squares."""
        alpha = clamp_alpha(alpha)
        self._blend_boxes(self._line_boxes(x0, y0, x1, y1, thickness),
                          color, alpha)

    def draw_cross(self, cx: float, cy: float, size: float, color: Color,
                   thickness: int = 2, alpha: float = 1.0) -> None:
        """An 'X' glyph — the universal close-button icon."""
        alpha = clamp_alpha(alpha)
        half = size / 2.0
        boxes = (self._line_boxes(cx - half, cy - half, cx + half, cy + half,
                                  thickness)
                 + self._line_boxes(cx - half, cy + half, cx + half,
                                    cy - half, thickness))
        self._blend_boxes(boxes, color, alpha)

    def _line_boxes(self, x0: float, y0: float, x1: float, y1: float,
                    thickness: int) -> List[Tuple[int, int, int, int]]:
        """The clipped pixel boxes of a line's squares: ``steps + 1``
        squares of side ``thickness`` centred at evenly spaced points,
        each placed as ``Rect.from_center`` places it."""
        length = max(abs(x1 - x0), abs(y1 - y0))
        steps = max(2, math.ceil(length))
        t = max(1, int(thickness))
        half = t / 2.0
        boxes = []
        for i in range(steps + 1):
            f = i / steps
            box = self._clip_box(x0 + (x1 - x0) * f - half,
                                 y0 + (y1 - y0) * f - half, t, t)
            if box is not None:
                boxes.append(box)
        return boxes

    def fill_vertical_gradient(self, rect: Rect, top: Color, bottom: Color,
                               alpha: float = 1.0) -> None:
        alpha = clamp_alpha(alpha)
        clip = self._clip(rect)
        if clip is None:
            return
        y0, y1, x0, x1 = clip
        span = max(1.0, rect.h)
        ts = ((np.arange(y0, y1, dtype=np.float32) + 0.5 - rect.top) / span)
        ts = np.clip(ts, 0.0, 1.0)[:, None, None]
        grad = (1.0 - ts) * top.as_array() + ts * bottom.as_array()
        region = self.pixels[y0:y1, x0:x1]
        region *= 1.0 - alpha
        region += alpha * grad

    def add_noise(self, rng: np.random.Generator, scale: float = 0.01) -> None:
        """Sensor/compression-like noise so screens aren't perfectly flat.

        Applied in place, one block of rows at a time: each block is
        :func:`draw_noise` into a block-sized buffer, then
        :func:`apply_noise`.  The values and the generator's final state
        are those of one full-frame draw.
        """
        noise = np.empty((NOISE_ROWS, self.width, 3), dtype=np.float32)
        scratch = np.empty(noise.shape)
        for y0 in range(0, self.height, NOISE_ROWS):
            block = self.pixels[y0:y0 + NOISE_ROWS]
            chunk = noise[:len(block)]
            draw_noise(rng, chunk, scale, scratch)
            apply_noise(block, chunk)

    # -- sampling -----------------------------------------------------------

    def sample_mean(self, rect: Rect) -> Color:
        """Mean color inside a rect (background estimation)."""
        clip = self._clip(rect)
        if clip is None:
            return Color(0.0, 0.0, 0.0)
        y0, y1, x0, x1 = clip
        mean = self.pixels[y0:y1, x0:x1].reshape(-1, 3).mean(axis=0)
        return Color.from_array(mean)

    def to_array(self) -> np.ndarray:
        """The raw (H, W, 3) float32 buffer (a defensive copy)."""
        return self.pixels.copy()

    @classmethod
    def from_array(cls, array: np.ndarray) -> "Canvas":
        if array.ndim != 3 or array.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) array, got {array.shape}")
        canvas = cls(array.shape[1], array.shape[0])
        canvas.pixels = np.clip(array.astype(np.float32, order="C"), 0.0, 1.0)
        return canvas
