"""Background app content.

AUI dialogs float above ordinary app screens; detection difficulty
depends heavily on that clutter (a detector that only ever saw flat
backgrounds would overfit trivially).  This module builds randomized
view trees in five everyday layouts — feed, grid, article, form and
settings — reused both as scrim content under AUI dialogs and as whole
non-AUI screens.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.geometry.rect import Rect
from repro.imaging.color import Color, PALETTE, mix
from repro.android.resources import ResourceIdPolicy, make_resource_id
from repro.android.view import View, ViewGroup
from repro.scalars import pick

_WORDS = tuple((
    "daily deals super sale flash news video music live hot top new"
    " best free vip plus home mine cart shop feed game learn read"
).split())

_THUMB_COLORS = ("blue", "teal", "green", "orange", "purple", "pink",
                 "indigo", "cyan", "amber")


def _text(rng: np.random.Generator, n_words: int) -> str:
    return " ".join(pick(rng, _WORDS) for _ in range(n_words))


def _tint(rng: np.random.Generator) -> Color:
    base = PALETTE[pick(rng, _THUMB_COLORS)]
    return mix(base, PALETTE["white"], float(rng.uniform(0.0, 0.35)))


def _feed(root: ViewGroup, rng: np.random.Generator, area: Rect) -> None:
    """A vertically scrolling feed: thumbnail + two text lines per row."""
    row_h = float(rng.uniform(64, 92))
    y = area.top + 8
    while y + row_h < area.bottom:
        row = root.add_child(ViewGroup(bounds=Rect(area.left, y, area.w, row_h)))
        row.add_child(View(bounds=Rect(area.left + 10, y + 8, row_h - 16, row_h - 16),
                           bg_color=_tint(rng), corner_radius=6))
        tx = area.left + row_h + 8
        row.add_child(View(bounds=Rect(tx, y + 12, area.w - row_h - 40, 14),
                           text=_text(rng, 3), text_size=11,
                           text_color=PALETTE["dark_gray"]))
        row.add_child(View(bounds=Rect(tx, y + 36, area.w - row_h - 90, 10),
                           text=_text(rng, 2), text_size=8,
                           text_color=PALETTE["gray"]))
        y += row_h + 6


def _grid(root: ViewGroup, rng: np.random.Generator, area: Rect) -> None:
    """A 3-column tile grid (store front / gallery)."""
    cols = 3
    gap = 8.0
    tile_w = (area.w - (cols + 1) * gap) / cols
    tile_h = tile_w * float(rng.uniform(1.0, 1.35))
    y = area.top + gap
    while y + tile_h < area.bottom:
        for c in range(cols):
            x = area.left + gap + c * (tile_w + gap)
            root.add_child(View(bounds=Rect(x, y, tile_w, tile_h * 0.72),
                                bg_color=_tint(rng), corner_radius=5))
            root.add_child(View(bounds=Rect(x, y + tile_h * 0.78, tile_w, 9),
                                text=_text(rng, 2), text_size=7,
                                text_color=PALETTE["dark_gray"]))
        y += tile_h + gap


def _article(root: ViewGroup, rng: np.random.Generator, area: Rect) -> None:
    """A reading screen: headline, hero image, paragraph bars."""
    y = area.top + 14
    root.add_child(View(bounds=Rect(area.left + 14, y, area.w - 28, 18),
                        text=_text(rng, 4), text_size=15,
                        text_color=PALETTE["black"]))
    y += 34
    hero_h = float(rng.uniform(110, 160))
    root.add_child(View(bounds=Rect(area.left + 14, y, area.w - 28, hero_h),
                        bg_color=_tint(rng), corner_radius=8))
    y += hero_h + 16
    while y + 12 < area.bottom - 10:
        width = (area.w - 28) * float(rng.uniform(0.55, 1.0))
        root.add_child(View(bounds=Rect(area.left + 14, y, width, 8),
                            bg_color=PALETTE["light_gray"]))
        y += 18


def _form(root: ViewGroup, rng: np.random.Generator, area: Rect) -> None:
    """A login/checkout form: labeled fields plus one submit button."""
    y = area.top + 40
    for _ in range(int(rng.integers(2, 5))):
        root.add_child(View(bounds=Rect(area.left + 24, y, 90, 10),
                            text=_text(rng, 1), text_size=9,
                            text_color=PALETTE["gray"]))
        root.add_child(View(bounds=Rect(area.left + 24, y + 16, area.w - 48, 34),
                            bg_color=PALETTE["near_white"], corner_radius=6,
                            border_color=PALETTE["light_gray"], border_width=1))
        y += 66
    root.add_child(View(bounds=Rect(area.left + 24, y + 14, area.w - 48, 42),
                        bg_color=_tint(rng), corner_radius=21, clickable=True,
                        text=_text(rng, 1), text_size=13,
                        text_color=PALETTE["white"]))


def _settings(root: ViewGroup, rng: np.random.Generator, area: Rect) -> None:
    """A settings list: rows with a label and a trailing toggle."""
    y = area.top + 10
    while y + 46 < area.bottom:
        root.add_child(View(bounds=Rect(area.left + 16, y + 16, 150, 12),
                            text=_text(rng, 2), text_size=10,
                            text_color=PALETTE["dark_gray"]))
        on = bool(rng.integers(0, 2))
        root.add_child(View(
            bounds=Rect(area.right - 56, y + 14, 36, 18),
            bg_color=PALETTE["green"] if on else PALETTE["light_gray"],
            corner_radius=9, clickable=True,
        ))
        root.add_child(View(bounds=Rect(area.left + 10, y + 45, area.w - 20, 1),
                            bg_color=PALETTE["light_gray"]))
        y += 48


_LAYOUTS: Dict[str, Callable[[ViewGroup, np.random.Generator, Rect], None]] = {
    "feed": _feed,
    "grid": _grid,
    "article": _article,
    "form": _form,
    "settings": _settings,
}

LAYOUT_NAMES = tuple(_LAYOUTS)


def build_background_content(
    rng: np.random.Generator,
    width: int = 360,
    height: int = 568,
    layout: str = "",
    package: str = "com.example.app",
    id_policy: ResourceIdPolicy = ResourceIdPolicy.READABLE,
) -> ViewGroup:
    """Build one everyday app screen as a view tree.

    ``layout`` picks the archetype explicitly; empty chooses at random.
    A top app-bar with a title is always present.
    """
    if layout and layout not in _LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUT_NAMES}")
    name = layout or pick(rng, LAYOUT_NAMES)
    root = ViewGroup(bounds=Rect(0, 0, width, height),
                     bg_color=PALETTE["white"],
                     resource_id=make_resource_id(package, "root", ResourceIdPolicy.READABLE))
    bar_color = _tint(rng)
    root.add_child(View(bounds=Rect(0, 0, width, 48), bg_color=bar_color))
    root.add_child(View(bounds=Rect(16, 16, 120, 16), text=_text(rng, 2),
                        text_size=13, text_color=PALETTE["white"]))
    _LAYOUTS[name](root, rng, Rect(0, 48, width, height - 48))
    del id_policy  # content views are scenery; ids are minted by templates
    return root
