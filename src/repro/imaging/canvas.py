"""A float RGB canvas with alpha-composited drawing primitives.

The simulated Android renderer draws view trees onto a ``Canvas``; the
dataset generator draws AUI screens directly.  All drawing is clipped to
the canvas bounds, and every primitive accepts an ``alpha`` so that the
generator can produce the translucent, low-salience UPOs the paper
describes.
"""

from __future__ import annotations

from typing import Optional, Tuple

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


class Canvas:
    """An ``(H, W, 3)`` float32 RGB raster with [0, 1] channels."""

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

    # -- compositing ------------------------------------------------------

    def _blend_region(
        self, y0: int, y1: int, x0: int, x1: int, color: Color, alpha: float
    ) -> None:
        alpha = float(np.clip(alpha, 0.0, 1.0))
        if alpha <= 0.0:
            return
        region = self.pixels[y0:y1, x0:x1]
        region *= 1.0 - alpha
        # The same float32 ink per pixel, laid out a whole row wide: a
        # bare (3,) operand would make NumPy's inner loop 3 elements long.
        region += np.tile(alpha * color.as_array(), (x1 - x0, 1))

    def _blend_mask(self, y0: int, y1: int, x0: int, x1: int, mask: np.ndarray,
                    color: Color, alpha: float) -> None:
        """Blend ``color`` where ``mask`` (float in [0,1]) is positive."""
        alpha = float(np.clip(alpha, 0.0, 1.0))
        if alpha <= 0.0:
            return
        a = (mask * alpha)[..., None].astype(np.float32)
        region = self.pixels[y0:y1, x0:x1]
        region *= 1.0 - a
        region += a * color.as_array()

    def blend_counts(self, y0: int, x0: int, counts: np.ndarray, color: Color,
                     alpha: float) -> None:
        """Blend ``color`` ``counts[i, j]`` times over pixel ``(y0+i, x0+j)``.

        Bit-identical to that many ``fill_rect`` blends per pixel, but
        with one vectorised blend per overlap depth instead of one per
        rect.  ``counts`` must lie inside the canvas.
        """
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

    # -- primitives ---------------------------------------------------------

    def fill(self, color: Color) -> None:
        self.pixels[:] = color.as_array()

    def fill_rect(self, rect: Rect, color: Color, alpha: float = 1.0) -> None:
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
        self._blend_mask(y0, y1, x0, x1, mask.astype(np.float32), color, alpha)

    def fill_circle(self, cx: float, cy: float, radius: float, color: Color,
                    alpha: float = 1.0) -> None:
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
        length = max(abs(x1 - x0), abs(y1 - y0))
        steps = max(2, int(np.ceil(length)))
        t = max(1, int(thickness))
        for i in range(steps + 1):
            f = i / steps
            px = x0 + (x1 - x0) * f
            py = y0 + (y1 - y0) * f
            self.fill_rect(Rect.from_center(px, py, t, t), color, alpha=alpha)

    def draw_cross(self, cx: float, cy: float, size: float, color: Color,
                   thickness: int = 2, alpha: float = 1.0) -> None:
        """An 'X' glyph — the universal close-button icon."""
        half = size / 2.0
        self.draw_line(cx - half, cy - half, cx + half, cy + half, color,
                       thickness=thickness, alpha=alpha)
        self.draw_line(cx - half, cy + half, cx + half, cy - half, color,
                       thickness=thickness, alpha=alpha)

    def fill_vertical_gradient(self, rect: Rect, top: Color, bottom: Color,
                               alpha: float = 1.0) -> None:
        clip = self._clip(rect)
        if clip is None:
            return
        y0, y1, x0, x1 = clip
        span = max(1.0, rect.h)
        ts = ((np.arange(y0, y1, dtype=np.float32) + 0.5 - rect.top) / span)
        ts = np.clip(ts, 0.0, 1.0)[:, None, None]
        grad = (1.0 - ts) * top.as_array() + ts * bottom.as_array()
        alpha = float(np.clip(alpha, 0.0, 1.0))
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
        canvas.pixels = np.clip(array.astype(np.float32), 0.0, 1.0)
        return canvas
