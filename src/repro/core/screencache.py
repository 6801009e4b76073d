"""Screen-fingerprint detection cache (serving-path optimization).

Mobile UI streams are massively repetitive: the same settled screen
re-appears every time a dialog is dismissed and re-opened, a tab is
revisited, or a scroll returns to its anchor.  Running the full CNN on
each recurrence wastes the costliest operation in DARPA's budget
(Table VII charges 100 CPU-ms per inference vs 30 per screenshot).

:class:`ScreenFingerprintCache` memoizes detector outputs behind a
perceptual fingerprint of the settled screenshot:

* the frame is average-pooled onto a small grid (16x16 by default),
  per channel, which is invariant to imperceptible pixel noise but
  sensitive to any real layout change — a moved button shifts cell
  means by whole color steps;
* cell means are quantized to a few intensity levels and the resulting
  byte string is the cache key;
* entries live in an LRU of bounded capacity, so a long session cannot
  grow memory without bound (the eviction order is recency-of-use, the
  access pattern screens actually exhibit).

The cache is consulted by :class:`repro.core.pipeline.DarpaService`
before the detector; a hit replays the stored detections and skips the
CNN entirely, charging only a cheap ``CACHE_PROBE`` op to the device
cost model (see :mod:`repro.android.device`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.geometry.nms import ScoredBox


class ScreenFingerprintCache:
    """An LRU of detector outputs keyed by perceptual screen hash."""

    def __init__(self, capacity: int = 64, grid: int = 16,
                 levels: int = 32):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if grid < 1:
            raise ValueError("fingerprint grid must be >= 1")
        if not 2 <= levels <= 256:
            raise ValueError("quantization levels must be in [2, 256]")
        self.capacity = capacity
        self.grid = grid
        self.levels = levels
        # Entries are tuples of frozen ScoredBoxes: handing out the
        # stored sequence by reference is safe because neither the tuple
        # nor its boxes can be mutated — a caller can't poison a future
        # hit, and hits don't pay a per-lookup copy.
        self._entries: "OrderedDict[bytes, Tuple[ScoredBox, ...]]" = OrderedDict()

    # -- fingerprinting --------------------------------------------------

    def fingerprint(self, pixels: np.ndarray) -> bytes:
        """Perceptual hash of one (H, W) or (H, W, C) screenshot."""
        raw = np.asarray(pixels)
        if raw.ndim == 2:
            raw = raw[:, :, None]
        if raw.ndim != 3:
            raise ValueError(f"expected (H, W[, C]) pixels, got {raw.shape}")
        if raw.size == 0:
            # Every empty frame would share the key b"" and replay the
            # detections of another.
            raise ValueError(f"cannot fingerprint an empty frame {raw.shape}")
        h, w, _ = raw.shape
        gy = min(self.grid, h)
        gx = min(self.grid, w)
        # Average-pool onto the (gy, gx) grid with near-equal cells.
        ys = np.linspace(0, h, gy + 1).astype(np.int64)
        xs = np.linspace(0, w, gx + 1).astype(np.int64)
        # Prefix sums make each cell mean O(1).  Only the integral
        # image's rows at the cell boundaries are read, so the column
        # sums are accumulated row by row, in the order a full
        # ``cumsum(axis=0)`` adds them (hence bit-identical to it), and
        # only the boundary rows are kept and summed along x.
        padded = np.zeros((gy + 1, w + 1, raw.shape[2]))
        column = None
        for j in range(gy):
            band = raw[ys[j]:ys[j + 1]].astype(np.float64)
            if np.issubdtype(raw.dtype, np.integer):
                band /= 255.0  # normalize 8-bit rasters to the [0, 1] range
            for row in band:
                if column is None:
                    column = row.copy()
                else:
                    column += row
            padded[j + 1, 1:] = column
        np.cumsum(padded[1:, 1:], axis=1, out=padded[1:, 1:])
        sums = (padded[1:, :, :][:, xs[1:], :]
                - padded[1:, :, :][:, xs[:-1], :]
                - padded[:-1, :, :][:, xs[1:], :]
                + padded[:-1, :, :][:, xs[:-1], :])
        areas = ((ys[1:] - ys[:-1])[:, None]
                 * (xs[1:] - xs[:-1])[None, :]).astype(np.float64)
        means = sums / areas[:, :, None]
        # Quantize to `levels` steps over the [0, 1] intensity range,
        # rounding to the *nearest* step rather than flooring: flat UI
        # regions produce cell means that sit exactly on step multiples
        # (palette colors are simple fractions), and floor quantization
        # would let per-screenshot sensor noise flip those cells across
        # a bucket boundary.  Round-to-nearest puts them at bucket
        # centers, a half-step away from the nearest boundary.
        quantized = np.clip(np.floor(means * self.levels + 0.5), 0,
                            self.levels - 1).astype(np.uint8)
        return quantized.tobytes()

    # -- LRU -------------------------------------------------------------

    def get(self, key: bytes) -> Optional[Tuple[ScoredBox, ...]]:
        """Return the cached detections for ``key`` (None on a miss)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: bytes, detections: Sequence[ScoredBox]) -> None:
        # Defensive copy into an immutable tuple: the caller keeps no
        # handle that could mutate this entry under future hits.
        self._entries[key] = tuple(detections)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
