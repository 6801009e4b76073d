"""Pseudo-text rendering.

We have no font rasterizer offline, and the paper's point (Table IV,
text-masked experiment) is precisely that DARPA does *not* read text —
only its visual footprint matters.  So we render "text" as deterministic
per-character glyph textures: each character becomes a small pattern of
bars derived from its code point.  The result has the visual statistics
of text (horizontal runs of high-frequency strokes) without any
linguistic content, which is exactly the signal a CV detector sees.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.imaging.canvas import Canvas, clamp_alpha
from repro.imaging.color import Color

#: Width of a glyph cell relative to the text size (height).
_GLYPH_ASPECT = 0.62
#: Gap between glyph cells relative to the text size.
_GLYPH_GAP = 0.14


def pseudo_text_width(text: str, size: float) -> float:
    """Advance width of ``text`` rendered at height ``size``."""
    if not text:
        return 0.0
    n = len(text)
    return n * size * _GLYPH_ASPECT + (n - 1) * size * _GLYPH_GAP


@lru_cache(maxsize=512)
def _glyph_bars(char: str) -> Tuple[bool, ...]:
    """A deterministic 5x3 on/off stroke pattern for a character.

    Row-major, 15 cells.  Spaces render empty.  Other characters hash
    their code point into a pattern with 6-10 lit cells, giving
    text-like stroke density.  Memoised: the tuple is immutable, so a
    cached pattern cannot be corrupted by a caller.
    """
    if char.isspace():
        return (False,) * 15
    code = ord(char)
    # A tiny splitmix-style scrambler keeps patterns well distributed.
    state = (code * 0x9E3779B1 + 0x85EBCA6B) & 0xFFFFFFFF
    bits = []
    for _ in range(15):
        state = (state * 0x2545F491 + 0x343FD) & 0xFFFFFFFF
        bits.append(bool((state >> 16) & 1))
    # Guarantee visible mass: force the middle row on.
    bits[6:9] = [True, True, True]
    return tuple(bits)


def _cell_span(start: float, length: float, limit: int) -> Optional[Tuple[int, int]]:
    """Pixel span ``[p0, p1)`` of one glyph cell along one axis.

    The exact arithmetic of ``Canvas.fill_rect`` — ``Rect.intersection``
    with the canvas bounds, then ``Canvas._clip`` — which is separable
    by axis: a cell covers pixels iff both its axes do.
    """
    lo = max(start, 0)
    hi = min(start + length, limit)
    if hi <= lo:
        return None
    p0 = max(0, math.floor(lo))
    p1 = min(limit, math.ceil(lo + (hi - lo)))
    return (p0, p1) if p1 > p0 else None


#: Coverage maps kept by :func:`_coverage`.  A session re-renders the
#: same views at the same positions; each entry is a few KB.
_COVERAGE_MEMO = 1024


@lru_cache(maxsize=_COVERAGE_MEMO, typed=True)
def _coverage(text: str, x: float, y: float, size: float, width: int,
              height: int) -> Optional[Tuple[int, int, np.ndarray]]:
    """``(y0, x0, counts)``: how many lit glyph cells of ``text`` at
    ``(x, y)`` and height ``size`` cover each pixel of a ``width`` x
    ``height`` canvas, over the box the cells touch; None when they
    touch no pixel.

    Memoised per argument tuple (``typed``, so a NumPy scalar and an
    equal float, whose arithmetic can differ, are separate entries);
    ``counts`` is a read-only array of the smallest unsigned dtype that
    holds it, so a cached map cannot be corrupted by a caller.
    """
    cursor = x
    glyph_w = size * _GLYPH_ASPECT
    gap = size * _GLYPH_GAP
    cell_h = size / 5.0
    cell_w = glyph_w / 3.0
    rows: List[int] = []
    row_spans: List[Tuple[int, int]] = []
    for row in range(5):
        span = _cell_span(y + row * cell_h, cell_h, height)
        if span is not None:
            rows.append(row)
            row_spans.append(span)
    # One entry per on-canvas glyph column: its span and its 5 cells.
    col_spans: List[Tuple[int, int]] = []
    col_cells: List[Tuple[bool, ...]] = []
    for char in text:
        pattern = _glyph_bars(char)
        if any(pattern):
            for col in range(3):
                span = _cell_span(cursor + col * cell_w, cell_w, width)
                if span is not None:
                    col_spans.append(span)
                    col_cells.append(pattern[col::3])
        cursor += glyph_w + gap
    if not rows or not col_spans:
        return None
    y0 = min(s[0] for s in row_spans)
    y1 = max(s[1] for s in row_spans)
    x0 = min(s[0] for s in col_spans)
    x1 = max(s[1] for s in col_spans)
    # Coverage count: how many lit cells cover each pixel.  Per glyph
    # row, a difference array over the column spans, summed along x;
    # then each row's line is added over that row's pixel span.  All
    # integer, so no BLAS call (and no BLAS thread) on the render path.
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
    counts = counts.astype(np.min_scalar_type(counts.max()))
    counts.flags.writeable = False
    return y0, x0, counts


def draw_pseudo_text(
    canvas: Canvas,
    text: str,
    x: float,
    y: float,
    size: float,
    color: Color,
    alpha: float = 1.0,
) -> Rect:
    """Draw ``text`` with its top-left at ``(x, y)``; returns its bounds.

    ``size`` is the text height in pixels.  Glyphs are drawn as 5x3 cell
    grids of filled blocks.  The pixels are exactly those of one
    ``fill_rect`` per lit cell: each pixel is blended once per lit cell
    that covers it (cells of one call share colour and alpha, so the
    order of those blends does not matter).
    """
    if math.isnan(size):
        raise ValueError(f"text size must not be NaN, got {size!r}")
    if size <= 0:
        raise ValueError("text size must be positive")
    alpha = clamp_alpha(alpha)
    bounds = Rect(x, y, pseudo_text_width(text, size), size)
    coverage = _coverage(text, x, y, size, canvas.width, canvas.height)
    if coverage is not None:
        y0, x0, counts = coverage
        canvas.blend_counts(y0, x0, counts, color, alpha)
    return bounds
