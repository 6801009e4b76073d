"""Colors, luminance, and contrast.

AUI patterns work by manipulating *visual salience*: an AGO is large,
central, and high-contrast; a UPO is small, peripheral, and low-contrast
or translucent (paper Section II-A).  The dataset generator quantifies
that manipulation with the relative-luminance / contrast-ratio math
standardized by WCAG 2.x, implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.scalars import clip


@dataclass(frozen=True)
class Color:
    """An RGB color with components in [0, 1]."""

    r: float
    g: float
    b: float

    def __post_init__(self) -> None:
        for name, v in (("r", self.r), ("g", self.g), ("b", self.b)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"channel {name} out of [0, 1]: {v}")

    @classmethod
    def from_hex(cls, code: str) -> "Color":
        code = code.lstrip("#")
        if len(code) != 6:
            raise ValueError(f"expected 6-digit hex color, got {code!r}")
        r, g, b = (int(code[i : i + 2], 16) / 255.0 for i in (0, 2, 4))
        return cls(r, g, b)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Color":
        r, g, b = (clip(v, 0.0, 1.0) for v in arr[:3])
        return cls(r, g, b)

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.g, self.b], dtype=np.float32)

    def lightened(self, amount: float) -> "Color":
        """Move linearly towards white by ``amount`` in [0, 1]."""
        return mix(self, WHITE, amount)

    def darkened(self, amount: float) -> "Color":
        """Move linearly towards black by ``amount`` in [0, 1]."""
        return mix(self, BLACK, amount)


def mix(a: Color, b: Color, t: float) -> Color:
    """Linear interpolation from ``a`` (t=0) to ``b`` (t=1)."""
    t = clip(t, 0.0, 1.0)
    return Color(
        a.r + (b.r - a.r) * t,
        a.g + (b.g - a.g) * t,
        a.b + (b.b - a.b) * t,
    )


def _linearize(channel: float) -> float:
    """sRGB -> linear-light transfer function (WCAG definition)."""
    if channel <= 0.03928:
        return channel / 12.92
    return ((channel + 0.055) / 1.055) ** 2.4


def relative_luminance(color: Color) -> float:
    """WCAG relative luminance: 0.0 for black, 1.0 for white."""
    return (
        0.2126 * _linearize(color.r)
        + 0.7152 * _linearize(color.g)
        + 0.0722 * _linearize(color.b)
    )


def contrast_ratio(a: Color, b: Color) -> float:
    """WCAG contrast ratio between two colors, in [1, 21].

    The dataset generator uses this to *construct* asymmetric salience
    (AGOs above ~4.5:1 against their background, UPOs near 1.2:1), and
    analyses use it to *verify* that asymmetry.
    """
    la, lb = relative_luminance(a), relative_luminance(b)
    lighter, darker = max(la, lb), min(la, lb)
    return (lighter + 0.05) / (darker + 0.05)


WHITE = Color(1.0, 1.0, 1.0)
BLACK = Color(0.0, 0.0, 0.0)

#: A material-like palette the synthetic app screens draw from.
PALETTE: Dict[str, Color] = {
    "white": WHITE,
    "black": BLACK,
    "near_white": Color.from_hex("#f5f5f5"),
    "light_gray": Color.from_hex("#e0e0e0"),
    "gray": Color.from_hex("#9e9e9e"),
    "dark_gray": Color.from_hex("#424242"),
    "red": Color.from_hex("#e53935"),
    "deep_orange": Color.from_hex("#f4511e"),
    "orange": Color.from_hex("#fb8c00"),
    "amber": Color.from_hex("#ffb300"),
    "yellow": Color.from_hex("#fdd835"),
    "green": Color.from_hex("#43a047"),
    "teal": Color.from_hex("#00897b"),
    "cyan": Color.from_hex("#00acc1"),
    "blue": Color.from_hex("#1e88e5"),
    "indigo": Color.from_hex("#3949ab"),
    "purple": Color.from_hex("#8e24aa"),
    "pink": Color.from_hex("#d81b60"),
    "gold": Color.from_hex("#d4af37"),
    "lucky_red": Color.from_hex("#c62828"),
}

#: Vivid hues the generator prefers for attention-grabbing AGOs.
AGO_ACCENTS: Tuple[str, ...] = (
    "red",
    "deep_orange",
    "orange",
    "amber",
    "green",
    "blue",
    "purple",
    "pink",
    "gold",
)

#: Muted tones the generator prefers for barely-noticeable UPOs.
#: (Real close buttons on dim scrims are light — a dark icon on a dark
#: scrim would be invisible even to an annotator.)
UPO_MUTED: Tuple[str, ...] = (
    "light_gray",
    "gray",
    "near_white",
    "white",
)
