"""Rendering corpus samples into detection tensors.

The detector consumes fixed-size NCHW tensors.  Screens are rendered at
native 360x640 through the exact runtime screenshot pipeline, optionally
text-masked (Table IV), then downscaled by 1/5 to 72x128 — preserving
the portrait aspect ratio so corner UPOs stay in corners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rect import Rect
from repro.imaging.filters import resize
from repro.datagen.corpus import AuiSample, render_state
from repro.datagen.masking import mask_option_texts

#: Class-index mapping used across every detector.
CLASS_NAMES: Tuple[str, str] = ("AGO", "UPO")
CLASS_TO_INDEX: Dict[str, int] = {"AGO": 0, "UPO": 1}

SCREEN_W, SCREEN_H = 360, 640
INPUT_W, INPUT_H = 72, 128
_SCALE = SCREEN_W / INPUT_W  # 5.0 on both axes


@dataclass
class DetectionDataset:
    """Images plus ground truth, in both input and screen coordinates."""

    images: np.ndarray                      # (N, 3, INPUT_H, INPUT_W) float32
    labels: List[List[Tuple[int, Rect]]]    # per-image (class_idx, input-space rect)
    screen_images: Optional[List[np.ndarray]] = None  # native-res renders
    screen_labels: List[List[Tuple[str, Rect]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise ValueError(f"expected (N, 3, H, W) images, got {self.images.shape}")
        if len(self.labels) != self.images.shape[0]:
            raise ValueError("labels/images length mismatch")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def input_size(self) -> Tuple[int, int]:
        """(width, height) of the detector input."""
        return (self.images.shape[3], self.images.shape[2])

    def class_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in CLASS_NAMES}
        for labs in self.labels:
            for cls, _ in labs:
                counts[CLASS_NAMES[cls]] += 1
        return counts


def to_input_tensor(screen_image: np.ndarray) -> np.ndarray:
    """One native screenshot (H, W, 3) -> (3, INPUT_H, INPUT_W) tensor.

    Raises ``ValueError`` for any other frame shape.
    """
    if screen_image.ndim != 3 or screen_image.shape[2] != 3:
        raise ValueError("detector input expects an (H, W, 3) frame, "
                         f"got shape {screen_image.shape}")
    small = resize(screen_image, INPUT_H, INPUT_W)
    return np.ascontiguousarray(small.transpose(2, 0, 1))


def input_rect_to_screen(rect: Rect) -> Rect:
    return rect.scaled(_SCALE)


def screen_rect_to_input(rect: Rect) -> Rect:
    return rect.scaled(1.0 / _SCALE)


def build_detection_dataset(
    samples: Sequence[AuiSample],
    masked: bool = False,
    noise_seed: int = 1000,
    keep_screen_images: bool = False,
) -> DetectionDataset:
    """Render samples into a ready-to-train dataset.

    ``masked`` applies the Figure-7 text-masking transform before
    downscaling.  ``keep_screen_images`` retains native-resolution
    renders (needed by evaluation paths that run box refinement).
    """
    images = np.zeros((len(samples), 3, INPUT_H, INPUT_W), dtype=np.float32)
    labels: List[List[Tuple[int, Rect]]] = []
    screen_labels: List[List[Tuple[str, Rect]]] = []
    screen_images: List[np.ndarray] = []
    for i, sample in enumerate(samples):
        img, labs = render_state(sample.screen, noise_seed=noise_seed + i)
        if masked:
            img = mask_option_texts(img, labs)
        images[i] = to_input_tensor(img)
        labels.append(
            [(CLASS_TO_INDEX[role], screen_rect_to_input(rect))
             for role, rect in labs]
        )
        screen_labels.append(list(labs))
        if keep_screen_images:
            screen_images.append(img)
    return DetectionDataset(
        images=images,
        labels=labels,
        screen_images=screen_images if keep_screen_images else None,
        screen_labels=screen_labels,
    )
