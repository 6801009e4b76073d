"""Box-refinement golden.

Pins what :func:`refine_detection_box` returns for a fixed list of
(seed-0 corpus screen, detector-like box) pairs.  The boxes sit on,
around and beside the labelled widgets: tight and loose, shifted,
oversized, and one large box per screen that only the raw-box strategy
sees.  Any change to the snap arithmetic that moves a refined edge by a
pixel, or turns a refinement into a pass-through, shows up here.

Regenerate (only for an intended change to refinement, and say why in
the change log)::

    PYTHONPATH=src python tests/vision/test_refine_golden.py
"""

import json
from typing import Dict, List, Tuple

import pytest

from repro.datagen import build_corpus
from repro.datagen.corpus import render_state
from repro.geometry import Rect
from repro.vision.refine import refine_detection_box

Box = Tuple[float, float, float, float]

#: screen name -> [(input box, refined box)], boxes as (x, y, w, h).
GOLDEN: Dict[str, List[Tuple[Box, Box]]] = {
    "aui-0-noise-0": [
        ((135.0, 487.0, 60.0, 25.0),
         (135.0, 487.0, 60.0, 25.0)),
        ((135.3, 486.8, 69.0, 22.5),
         (135.0, 487.0, 60.0, 25.0)),
        ((133.8, 486.4, 48.0, 31.2),
         (135.0, 487.0, 60.0, 25.0)),
        ((135.0, 487.0, 84.0, 35.0),
         (135.0, 487.0, 60.0, 25.0)),
        ((20.0, 200.0, 120.0, 95.0),
         (20.0, 200.0, 120.0, 95.0)),
    ],
    "aui-1-noise-1": [
        ((200.0, 540.0, 20.0, 21.0),
         (200.0, 540.0, 20.0, 21.0)),
        ((200.1, 539.8, 23.0, 18.9),
         (200.0, 540.0, 20.0, 21.0)),
        ((199.6, 539.5, 16.0, 26.2),
         (200.0, 540.0, 20.0, 21.0)),
        ((200.0, 540.0, 28.0, 29.4),
         (200.0, 540.0, 20.0, 21.0)),
        ((20.0, 200.0, 120.0, 95.0),
         (20.0, 200.0, 120.0, 95.0)),
    ],
    "aui-2-noise-2": [
        ((73.0, 244.0, 238.0, 53.0),
         (73.0, 244.0, 238.0, 53.0)),
        ((74.2, 243.5, 273.7, 47.7),
         (74.2, 243.5, 273.7, 47.7)),
        ((68.2, 242.7, 190.4, 66.2),
         (68.2, 242.7, 190.4, 66.2)),
        ((73.0, 244.0, 333.2, 74.2),
         (73.0, 244.0, 333.2, 74.2)),
        ((20.0, 200.0, 120.0, 95.0),
         (20.0, 200.0, 120.0, 95.0)),
    ],
    "aui-3-noise-3": [
        ((126.0, 369.0, 117.0, 118.0),
         (126.0, 369.0, 117.0, 118.0)),
        ((126.6, 367.8, 134.5, 106.2),
         (126.6, 367.8, 134.5, 106.2)),
        ((123.7, 366.1, 93.6, 147.5),
         (123.7, 366.1, 93.6, 147.5)),
        ((126.0, 369.0, 163.8, 165.2),
         (60.0, 305.0, 247.0, 247.0)),
        ((20.0, 200.0, 120.0, 95.0),
         (20.0, 200.0, 120.0, 95.0)),
    ],
    "aui-4-noise-4": [
        ((64.0, 268.0, 246.0, 52.0),
         (64.0, 268.0, 246.0, 52.0)),
        ((65.2, 267.5, 282.9, 46.8),
         (64.0, 268.0, 246.0, 52.0)),
        ((59.1, 266.7, 196.8, 65.0),
         (64.0, 268.0, 246.0, 52.0)),
        ((64.0, 268.0, 344.4, 72.8),
         (64.0, 268.0, 246.0, 52.0)),
        ((20.0, 200.0, 120.0, 95.0),
         (63.0, 188.0, 142.0, 112.0)),
    ],
    "aui-5-noise-5": [
        ((294.0, 21.0, 64.0, 26.0),
         (294.0, 21.0, 64.0, 26.0)),
        ((294.3, 20.7, 73.6, 23.4),
         (294.0, 21.0, 64.0, 26.0)),
        ((292.7, 20.4, 51.2, 32.5),
         (294.0, 21.0, 64.0, 26.0)),
        ((294.0, 21.0, 89.6, 36.4),
         (294.0, 21.0, 64.0, 26.0)),
        ((20.0, 200.0, 120.0, 95.0),
         (20.0, 200.0, 120.0, 95.0)),
    ],
}


def _frames():
    """(name, pixels, labelled boxes) for the pinned screens."""
    corpus = build_corpus(seed=0, n_negatives=0)
    for i in range(6):
        pixels, labels = render_state(corpus.samples[i].screen, noise_seed=i)
        yield f"aui-{i}-noise-{i}", pixels, [rect for _, rect in labels]


def _probe_boxes(labels: List[Rect]) -> List[Box]:
    """Detector-like boxes derived from the labels, rounded to 0.1 px."""
    boxes = []
    for r in labels:
        cx, cy = r.center
        for dx, dy, sw, sh in ((0.0, 0.0, 1.0, 1.0), (0.08, -0.06, 1.15, 0.9),
                               (-0.12, 0.1, 0.8, 1.25), (0.2, 0.2, 1.4, 1.4)):
            boxes.append(Rect.from_center(cx + dx * r.w, cy + dy * r.h,
                                          r.w * sw, r.h * sh))
    boxes.append(Rect(20.0, 200.0, 120.0, 95.0))
    return [tuple(round(float(v), 1) for v in b) for b in boxes]


def refine_table() -> Dict[str, List[Tuple[Box, Box]]]:
    out = {}
    for name, pixels, labels in _frames():
        rows = []
        for box in _probe_boxes(labels):
            refined = refine_detection_box(pixels, Rect(*box))
            rows.append((box, tuple(float(v) for v in refined)))
        out[name] = rows
    return out


@pytest.fixture(scope="module")
def table():
    return refine_table()


def test_golden_covers_every_case(table):
    assert sorted(table) == sorted(GOLDEN)
    for name, rows in table.items():
        assert [box for box, _ in rows] == [tuple(b) for b, _ in GOLDEN[name]]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_refined_boxes_match_golden(table, name):
    assert [refined for _, refined in table[name]] == \
        [tuple(r) for _, r in GOLDEN[name]]


def test_golden_contains_refinements():
    """The pinned pairs are not all pass-throughs."""
    moved = sum(tuple(box) != tuple(refined)
                for rows in GOLDEN.values() for box, refined in rows)
    assert moved >= 10


if __name__ == "__main__":
    print(json.dumps(refine_table(), indent=4, sort_keys=True))
