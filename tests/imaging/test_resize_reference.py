"""Bit-identity of :func:`repro.imaging.filters.resize` against scipy.

``_reference_resize`` below is the original implementation: one
``ndimage.zoom(order=1)`` call, cropped or edge-padded to the requested
shape, cast to float32 and clipped.  The NumPy gather that replaced it
must return the same bits for every finite floating-point input, so
every comparison here goes through ``view(np.uint32)``.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from repro.datagen.corpus import render_state
from repro.datagen.specs import AuiType, SampleSpec
from repro.datagen.templates import build_aui_screen
from repro.imaging.filters import resize
from repro.vision.dataset import INPUT_H, INPUT_W, to_input_tensor


def _reference_resize(image, out_h, out_w):
    if image.ndim == 2:
        zoom = (out_h / image.shape[0], out_w / image.shape[1])
        out = ndimage.zoom(image, zoom, order=1)
    else:
        zoom = (out_h / image.shape[0], out_w / image.shape[1], 1)
        out = ndimage.zoom(image, zoom, order=1)
    out = out[:out_h, :out_w]
    pad_h, pad_w = out_h - out.shape[0], out_w - out.shape[1]
    if pad_h > 0 or pad_w > 0:
        pads = [(0, max(0, pad_h)), (0, max(0, pad_w))]
        if out.ndim == 3:
            pads.append((0, 0))
        out = np.pad(out, pads, mode="edge")
    return np.clip(out.astype(np.float32), 0.0, 1.0)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.fixture(scope="module")
def screen():
    """A rendered 640x360 AUI screen with sensor noise."""
    spec = SampleSpec(index=0, aui_type=AuiType.ADVERTISEMENT, has_ago=True,
                      n_upo=1, ago_central=True, upo_corner=True,
                      fullscreen=False, first_party=False, hard_upo=False,
                      style_seed=99)
    pixels, _ = render_state(build_aui_screen(spec), noise_seed=3)
    return pixels


# -- every shape the callers pass ---------------------------------------------

#: (name, crop of the screen or None for the full frame, output shape).
CALLER_SHAPES = [
    ("detector-input", None, (INPUT_H, INPUT_W)),          # to_input_tensor
    ("rcnn-proposals", None, (320, 180)),                  # downscale 2
    ("gray-detector", "gray", (INPUT_H, INPUT_W)),         # 2-D input
    ("crop-37x23-to-32", (slice(101, 138), slice(55, 78)), (32, 32)),
    ("crop-61x45-to-48", (slice(7, 68), slice(301, 346)), (48, 48)),
    ("crop-55x29-to-48", (slice(400, 455), slice(3, 32)), (48, 48)),
    ("crop-251x19-to-32", (slice(0, 251), slice(200, 219)), (32, 32)),
]


@pytest.mark.parametrize("crop,out_shape", [c[1:] for c in CALLER_SHAPES],
                         ids=[c[0] for c in CALLER_SHAPES])
def test_caller_shapes_match_reference(screen, crop, out_shape):
    if crop is None:
        image = screen
    elif crop == "gray":
        image = np.ascontiguousarray(screen[..., 1])
    else:
        image = screen[crop]  # a strided view, as features._crop passes
    _assert_same_bits(resize(image, *out_shape),
                      _reference_resize(image, *out_shape))


def test_detector_input_tensor_matches_reference(screen):
    tensor = to_input_tensor(screen)
    want = _reference_resize(screen, INPUT_H, INPUT_W).transpose(2, 0, 1)
    assert tensor.flags.c_contiguous
    _assert_same_bits(tensor, np.ascontiguousarray(want))


# -- property: random shapes, dtypes and values -------------------------------

sides = st.integers(1, 90)


@given(h=sides, w=sides, out_h=st.integers(0, 90), out_w=st.integers(0, 90),
       channels=st.sampled_from([0, 1, 3, 4]),
       dtype=st.sampled_from([np.float32, np.float64]),
       scale=st.sampled_from([1.0, 2.5]), seed=st.integers(0, 2**32 - 1))
@example(h=64, w=64, out_h=24, out_w=24, channels=3, dtype=np.float32,
         scale=1.0, seed=0)  # overshoots: cc = 63.00000000000001
@example(h=640, w=360, out_h=128, out_w=72, channels=3, dtype=np.float32,
         scale=1.0, seed=1)
@example(h=17, w=9, out_h=17, out_w=9, channels=3, dtype=np.float64,
         scale=2.5, seed=2)  # zoom 1 on both axes: a copy
@example(h=17, w=9, out_h=17, out_w=30, channels=0, dtype=np.float32,
         scale=2.5, seed=3)  # zoom 1 on one axis only
@example(h=1, w=1, out_h=5, out_w=1, channels=3, dtype=np.float32,
         scale=1.0, seed=4)
@example(h=5, w=7, out_h=0, out_w=4, channels=3, dtype=np.float32,
         scale=1.0, seed=5)
@settings(max_examples=300, deadline=None)
def test_resize_matches_reference(h, w, out_h, out_w, channels, dtype,
                                  scale, seed):
    """Values straddle [0, 1] (``scale`` 2.5 makes many negative), and a
    third of them are signed zeros, so the ``+0.0`` start of scipy's
    sum and the final clip are both exercised."""
    rng = np.random.default_rng(seed)
    shape = (h, w) if channels == 0 else (h, w, channels)
    image = (rng.random(shape) * scale - (scale - 1.0) / 2).astype(dtype)
    zeros = rng.random(shape)
    image[zeros < 0.15] = -0.0
    image[zeros > 0.85] = 0.0
    _assert_same_bits(resize(image, out_h, out_w),
                      _reference_resize(image, out_h, out_w))


def test_zoom_one_returns_a_clipped_copy():
    image = np.full((6, 5, 3), -0.0, dtype=np.float32)
    image[0, 0, 1] = 2.0
    out = resize(image, 6, 5)
    assert out[0, 0, 1] == 1.0 and image[0, 0, 1] == 2.0
    assert np.signbit(out[1:]).all()  # the copy keeps -0.0


# -- scipy's edge quirk, kept on purpose --------------------------------------


@pytest.mark.parametrize("side,out", [(64, 24), (28, 48), (55, 48), (250, 32)])
def test_overshoot_zeroes_last_row_and_column(side, out):
    """A sample coordinate past ``side - 1`` by rounding lies outside the
    input under scipy's ``mode='constant'``, so the whole last output row
    and column are 0.  Fixing this changes the RCNN baseline descriptors;
    it must be a deliberate change to this test."""
    assert (out - 1) * ((side - 1) / (out - 1)) > side - 1
    image = np.full((side, side, 3), 0.5, dtype=np.float32)
    got = resize(image, out, out)
    assert np.all(got[-1] == 0.0) and np.all(got[:, -1] == 0.0)
    assert np.all(got[:-1, :-1] == 0.5)


@pytest.mark.parametrize("shape,out", [((640, 360, 3), (INPUT_H, INPUT_W)),
                                       ((640, 360, 3), (320, 180))])
def test_serving_shapes_never_overshoot(shape, out):
    image = np.full(shape, 0.5, dtype=np.float32)
    assert np.all(resize(image, *out) == 0.5)


# -- malformed input -------------------------------------------------------------


@pytest.mark.parametrize("shape", [(0, 0, 3), (0, 48, 3), (48, 0), (48,),
                                   (2, 16, 16, 3)], ids=str)
def test_resize_rejects_malformed_shapes(shape):
    with pytest.raises(ValueError, match=r"resize expects a non-empty "
                       r"\(H, W\) or \(H, W, C\) image, got shape"):
        resize(np.zeros(shape, dtype=np.float32), 8, 8)


def test_resize_rejects_integer_images():
    with pytest.raises(ValueError, match="floating-point image, got uint8"):
        resize(np.zeros((8, 8, 3), dtype=np.uint8), 4, 4)


def test_resize_keeps_multichannel_input():
    image = np.full((16, 16, 5), 0.25, dtype=np.float32)
    assert np.all(resize(image, 8, 8) == 0.25)


@pytest.mark.parametrize("shape", [(640, 360), (640, 360, 4), (640, 360, 1),
                                   (2, 640, 360, 3)], ids=str)
def test_to_input_tensor_rejects_non_rgb_frames(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"detector input expects an (H, W, 3) frame, got shape {shape}")):
        to_input_tensor(np.zeros(shape, dtype=np.float32))


def test_to_input_tensor_rejects_empty_frames():
    with pytest.raises(ValueError, match=re.escape("got shape (0, 0, 3)")):
        to_input_tensor(np.zeros((0, 0, 3), dtype=np.float32))
