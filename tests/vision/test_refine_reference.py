"""Bit-identity of box refinement against the straightforward code.

The ``_reference_*`` functions below are the original region snap and
refinement: every snap rebuilds its window, its color medians (from
full-window broadcast masks) and its ``np.linalg.norm`` distance maps,
and gaps are bridged with ``scipy.ndimage.binary_closing``.
:func:`refine_detection_box` and :func:`snap_box_to_region` share that
work between snaps and use NumPy kernels instead, and must return the
same boxes for every input.
"""

from dataclasses import asdict
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from repro.datagen import build_corpus
from repro.datagen.corpus import render_state
from repro.geometry import Rect
from repro.vision.refine import (
    _close3x3,
    _distance,
    refine_detection_box,
    snap_box_to_region,
)
from repro.vision.yolo import Detection


# -- the original implementation ---------------------------------------------


def _reference_plausible(pred, probe, refined):
    cx, cy = pred.center
    if not refined.contains_point(cx, cy):
        return False
    rcx, rcy = refined.center
    max_shift = 0.55 * max(pred.w, pred.h) + 2.0
    if abs(rcx - cx) > max_shift or abs(rcy - cy) > max_shift:
        return False
    if refined.w > 2.1 * probe.w + 4 or refined.h > 2.1 * probe.h + 4:
        return False
    return True


def _reference_iterate_snap(image, start, iterations, **kwargs):
    current = start
    for _ in range(max(1, iterations)):
        nxt = _reference_snap_box_to_region(image, current, **kwargs)
        if nxt == current:
            break
        current = nxt
    return current


def _reference_refine_detection_box(image, rect, iterations=3,
                                    min_probe=14.0, max_probe=40.0):
    candidates = []
    first = _reference_iterate_snap(image, rect, iterations)
    if first != rect:
        candidates.append((rect, first))
    side_w = float(np.clip(rect.w, min_probe, max_probe))
    side_h = float(np.clip(rect.h, min_probe, max_probe))
    probe = Rect.from_center(*rect.center, side_w, side_h)
    if rect.w < 90 and rect.h < 90:
        second = _reference_iterate_snap(image, probe, iterations)
        if second != probe:
            candidates.append((probe, second))
        third = _reference_iterate_snap(image, probe, iterations,
                                        max_seed_dist=0.22, bridge_gaps=False)
        if third != probe:
            candidates.append((probe, third))
        fourth = _reference_iterate_snap(image, probe, iterations,
                                         max_seed_dist=0.5, expand_frac=0.75)
        if fourth != probe:
            candidates.append((probe, fourth))
    plausible = [refined for used_probe, refined in candidates
                 if _reference_plausible(rect, used_probe, refined)]
    if plausible:
        return max(plausible, key=lambda r: r.area)
    return rect


def _reference_snap_box_to_region(image, rect, expand_frac=0.55,
                                  max_seed_dist=0.38, bridge_gaps=True):
    h, w = image.shape[:2]
    r = rect.clipped_to(Rect(0, 0, w, h))
    if r.is_empty() or r.w < 3 or r.h < 3:
        return rect

    pad_x = max(4, int(r.w * expand_frac))
    pad_y = max(4, int(r.h * expand_frac))
    x0 = max(0, int(r.left) - pad_x)
    x1 = min(w, int(np.ceil(r.right)) + pad_x)
    y0 = max(0, int(r.top) - pad_y)
    y1 = min(h, int(np.ceil(r.bottom)) + pad_y)
    window = image[y0:y1, x0:x1].astype(np.float32)
    wh, ww = window.shape[:2]
    if wh < 6 or ww < 6:
        return rect

    cx = int(r.center[0]) - x0
    cy = int(r.center[1]) - y0
    sx = max(1, int(r.w * 0.18))
    sy = max(1, int(r.h * 0.18))
    patch = window[max(0, cy - sy):cy + sy + 1, max(0, cx - sx):cx + sx + 1]
    seed_center = np.median(patch.reshape(-1, 3), axis=0)
    annulus = _reference_annulus_pixels(window, cx, cy, r.w, r.h)
    seed_fill = (np.median(annulus.reshape(-1, 3), axis=0)
                 if annulus.size else seed_center)

    ring_pixels = _reference_ring_pixels(window, cx, cy, r.w, r.h)
    if ring_pixels.size == 0:
        return rect
    bg = np.median(ring_pixels.reshape(-1, 3), axis=0)

    sep_center = float(np.linalg.norm(seed_center - bg))
    sep_fill = float(np.linalg.norm(seed_fill - bg))
    if max(sep_center, sep_fill) < 0.05:
        return rect

    d_bg = np.linalg.norm(window - bg, axis=-1)
    d_seed = np.full_like(d_bg, np.inf)
    for seed, sep in ((seed_center, sep_center), (seed_fill, sep_fill)):
        if sep >= 0.05:
            d_seed = np.minimum(d_seed,
                                np.linalg.norm(window - seed, axis=-1))
    mask = (d_seed < d_bg) & (d_seed < max_seed_dist)

    if bridge_gaps:
        mask = ndimage.binary_closing(mask, structure=np.ones((3, 3)))
    labeled, n_regions = ndimage.label(mask)
    if n_regions == 0:
        return rect
    target = labeled[min(cy, wh - 1), min(cx, ww - 1)]
    if target == 0:
        sub = labeled[max(0, cy - sy):cy + sy + 1, max(0, cx - sx):cx + sx + 1]
        counts = np.bincount(sub.reshape(-1), minlength=n_regions + 1)
        counts[0] = 0
        if counts.max() == 0:
            return rect
        target = int(np.argmax(counts))

    ys, xs = np.where(labeled == target)
    spans_x = xs.min() == 0 and xs.max() == ww - 1
    spans_y = ys.min() == 0 and ys.max() == wh - 1
    if spans_x and spans_y:
        return rect
    refined = Rect.from_corners(x0 + xs.min(), y0 + ys.min(),
                                x0 + xs.max() + 1, y0 + ys.max() + 1)
    if refined.area < 0.2 * rect.area or refined.area > 5.0 * rect.area:
        return rect
    return refined


def _reference_annulus_pixels(window, cx, cy, box_w, box_h):
    wh, ww = window.shape[:2]
    in_x, in_y = int(box_w * 0.28), int(box_h * 0.28)
    out_x, out_y = max(in_x + 1, int(box_w * 0.42)), max(in_y + 1, int(box_h * 0.42))
    ys = np.arange(wh)[:, None]
    xs = np.arange(ww)[None, :]
    outside_inner = (np.abs(xs - cx) > in_x) | (np.abs(ys - cy) > in_y)
    inside_outer = (np.abs(xs - cx) <= out_x) & (np.abs(ys - cy) <= out_y)
    return window[outside_inner & inside_outer]


def _reference_ring_pixels(window, cx, cy, box_w, box_h):
    wh, ww = window.shape[:2]
    inner_x = int(box_w * 0.62)
    inner_y = int(box_h * 0.62)
    outer_x = inner_x + max(2, int(box_w * 0.2))
    outer_y = inner_y + max(2, int(box_h * 0.2))
    ys = np.arange(wh)[:, None]
    xs = np.arange(ww)[None, :]
    outside_inner = (np.abs(xs - cx) > inner_x) | (np.abs(ys - cy) > inner_y)
    inside_outer = (np.abs(xs - cx) <= outer_x) & (np.abs(ys - cy) <= outer_y)
    return window[outside_inner & inside_outer]


# -- cases ----------------------------------------------------------------------

#: The kwarg sets :func:`refine_detection_box` runs, plus one mixing
#: a wide window with no gap bridging.
STRATEGIES = [
    {},
    {"max_seed_dist": 0.22, "bridge_gaps": False},
    {"max_seed_dist": 0.5, "expand_frac": 0.75},
    {"max_seed_dist": 0.3, "expand_frac": 0.75, "bridge_gaps": False},
]


def _jittered_rects(rng, labels, h, w):
    """Seeded boxes of every kind refinement sees on a ``(h, w)`` frame."""
    rects = []
    for box in labels:  # detector-like: jittered around real widgets
        for spread in (0.05, 0.1, 0.1, 0.2, 0.2, 0.3):
            cx = box.center[0] + rng.uniform(-spread, spread) * box.w
            cy = box.center[1] + rng.uniform(-spread, spread) * box.h
            rects.append(Rect.from_center(
                cx, cy, box.w * rng.uniform(1 - spread, 1 + 2 * spread),
                box.h * rng.uniform(1 - spread, 1 + 2 * spread)))
    for _ in range(3):  # hugging an edge of the frame
        bw, bh = rng.uniform(8, 60, size=2)
        rects.append(Rect(rng.uniform(-1.5, 2.5), rng.uniform(0, h - bh),
                          bw, bh))
        rects.append(Rect(rng.uniform(0, w - bw), h - bh - rng.uniform(-1.5, 2.5),
                          bw, bh))
    for _ in range(3):  # partly off-frame
        bw, bh = rng.uniform(10, 70, size=2)
        rects.append(Rect(w - bw * rng.uniform(0.2, 0.8),
                          rng.uniform(0, h - bh), bw, bh))
        rects.append(Rect(rng.uniform(0, w - bw),
                          -bh * rng.uniform(0.2, 0.8), bw, bh))
    for _ in range(3):  # tiny, including boxes below the 3-px floor
        bw, bh = rng.uniform(1.5, 7.0, size=2)
        rects.append(Rect(rng.uniform(0, w - bw), rng.uniform(0, h - bh),
                          bw, bh))
    for _ in range(2):  # large: only the raw-box strategy runs
        bw, bh = rng.uniform(90, min(w, 240), size=2)
        rects.append(Rect(rng.uniform(0, w - bw), rng.uniform(0, h - bh),
                          bw, bh))
    return [Rect(*map(float, r)) for r in rects]


def _cases():
    """(name, frame, rects): seed-0 corpus screens plus thin strips of
    one, whose search windows fall below the 6-px minimum."""
    corpus = build_corpus(seed=0, n_negatives=2)
    states = [corpus.samples[i].screen for i in range(6)] + [corpus.negatives[0]]
    cases = []
    for i, state in enumerate(states):
        pixels, labels = render_state(state, noise_seed=i)
        rng = np.random.default_rng(100 + i)
        h, w = pixels.shape[:2]
        cases.append((f"screen-{i}", pixels,
                      _jittered_rects(rng, [r for _, r in labels], h, w)))
    pixels = cases[0][1]
    cases.append(("strip-5-rows", pixels[300:305],
                  [Rect(40, 0, 30, 5), Rect(100.5, -1.0, 12.0, 7.0)]))
    cases.append(("strip-5-cols", pixels[:, 200:205],
                  [Rect(0, 100, 5, 30), Rect(-1.0, 40.5, 8.0, 12.0)]))
    return cases


CASES = _cases()


def _same(got, want):
    assert got == want
    assert all(type(v) in (int, float) for v in asdict(got).values())


@pytest.mark.parametrize("name,frame,rects", CASES, ids=[c[0] for c in CASES])
def test_refine_matches_reference(name, frame, rects):
    for rect in rects:
        _same(refine_detection_box(frame, rect),
              _reference_refine_detection_box(frame, rect))


@pytest.mark.parametrize("kwargs", STRATEGIES, ids=str)
@pytest.mark.parametrize("name,frame,rects", CASES, ids=[c[0] for c in CASES])
def test_snap_matches_reference(name, frame, rects, kwargs):
    for rect in rects:
        _same(snap_box_to_region(frame, rect, **kwargs),
              _reference_snap_box_to_region(frame, rect, **kwargs))


def test_cases_exercise_every_outcome():
    """The cases reach refinements, unchanged boxes and small windows."""
    changed = unchanged = 0
    for _, frame, rects in CASES:
        for rect in rects:
            if refine_detection_box(frame, rect) == rect:
                unchanged += 1
            else:
                changed += 1
    assert changed >= 25 and unchanged >= 25


# -- kernels ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_distance_matches_linalg_norm(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 90, size=2)
    window = rng.random((h, w, 3)).astype(np.float32)
    color = rng.random(3).astype(np.float32)
    planes = np.ascontiguousarray(window.transpose(2, 0, 1))
    got = _distance(planes, color)
    want = np.linalg.norm(window - color, axis=-1)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@given(h=st.integers(1, 40), w=st.integers(1, 40),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(h=1, w=17, density=0.6, seed=0)
@example(h=17, w=1, density=0.6, seed=1)
@example(h=2, w=2, density=1.0, seed=2)
@example(h=2, w=2, density=0.5, seed=3)
@example(h=1, w=1, density=1.0, seed=4)
@settings(max_examples=200, deadline=None)
def test_close3x3_matches_scipy(h, w, density, seed):
    mask = np.random.default_rng(seed).random((h, w)) < density
    got = _close3x3(mask)
    want = ndimage.binary_closing(mask, structure=np.ones((3, 3)))
    assert got.dtype == np.bool_ and got.shape == mask.shape
    assert np.array_equal(got, want)


# -- refined boxes are plain data ---------------------------------------------


def test_refined_detection_round_trips_through_json():
    frame, rects = CASES[0][1], CASES[0][2]
    rect = next(r for r in rects if refine_detection_box(frame, r) != r)
    det = Detection(rect=refine_detection_box(frame, rect), label="upo",
                    score=0.9)
    decoded = json.loads(json.dumps(asdict(det)))
    assert Rect(**decoded["rect"]) == det.rect


# -- malformed frames -------------------------------------------------------------


@pytest.mark.parametrize("fn", [refine_detection_box, snap_box_to_region])
@pytest.mark.parametrize("shape", [(64, 48), (64, 48, 4), (64, 48, 1),
                                   (2, 64, 48, 3)], ids=str)
def test_malformed_frame_raises(fn, shape):
    frame = np.zeros(shape, dtype=np.float32)
    with pytest.raises(ValueError, match=r"expects an \(H, W, 3\) frame"):
        fn(frame, Rect(10, 10, 20, 20))


@pytest.mark.parametrize("fn", [refine_detection_box, snap_box_to_region])
@pytest.mark.parametrize("shape", [(0, 0, 3), (0, 48, 3), (0, 0), (0, 0, 4)],
                         ids=str)
def test_zero_size_frame_returns_rect(fn, shape):
    rect = Rect(10, 10, 20, 20)
    assert fn(np.zeros(shape, dtype=np.float32), rect) is rect
