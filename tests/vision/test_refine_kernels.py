"""Bit-identity of the refine colour kernels against the NumPy forms.

``_median`` must equal ``np.median(pixels, axis=1)`` bit for bit, and
``_ring`` must return the same pixels, in any order, as masking the
inner box out of the outer box's slice (``_reference_ring``, the form
it replaced).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.vision.refine import _median, _ring


def _reference_ring(planes, cx, cy, in_x, in_y, out_x, out_y):
    ox0, oy0 = max(0, cx - out_x), max(0, cy - out_y)
    outer = planes[:, oy0:cy + out_y + 1, ox0:cx + out_x + 1]
    keep = np.ones(outer.shape[1:], dtype=bool)
    keep[max(0, cy - in_y - oy0):cy + in_y + 1 - oy0,
         max(0, cx - in_x - ox0):cx + in_x + 1 - ox0] = False
    return outer[:, keep]


# -- medians ----------------------------------------------------------------------

#: A few repeated values, signed zeros among them, so ties are common.
TIES = np.array([-0.0, 0.0, 0.25, 0.5, 0.5, 1.0], dtype=np.float32)


@given(n=st.integers(1, 300), ties=st.booleans(),
       nan_rows=st.sets(st.integers(0, 2), max_size=3),
       transposed=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=1, ties=True, nan_rows=set(), transposed=False, seed=0)
@example(n=2, ties=True, nan_rows=set(), transposed=False, seed=1)
@example(n=2, ties=False, nan_rows={1}, transposed=False, seed=2)
@example(n=1800, ties=False, nan_rows=set(), transposed=True, seed=3)
@settings(max_examples=300, deadline=None)
def test_median_matches_numpy(n, ties, nan_rows, transposed, seed):
    rng = np.random.default_rng(seed)
    pixels = (rng.choice(TIES, size=(3, n)) if ties
              else rng.random((3, n), dtype=np.float32))
    for row in nan_rows:
        pixels[row, rng.integers(0, n)] = np.nan
    if transposed:  # the (N, 3) -> (3, N) view an interleaved window gives
        pixels = np.ascontiguousarray(pixels.T).T
    before = pixels.copy()
    got = _median(pixels)
    want = np.median(pixels, axis=1)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert np.array_equal(pixels.view(np.uint32), before.view(np.uint32))


@pytest.mark.parametrize("values,want", [
    ([[-0.0]], 0.0),            # numpy's sum starts from +0.0
    ([[-0.0, -0.0]], 0.0),
    ([[0.25, 0.5]], 0.375),
    ([[1.0, 0.0, 0.5]], 0.5),
])
def test_median_small_sets(values, want):
    got = _median(np.array(values * 3, dtype=np.float32))
    assert np.array_equal(got.view(np.uint32),
                          np.full(3, want, np.float32).view(np.uint32))


# -- rings ------------------------------------------------------------------------


def _same_pixels(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.sort(got, axis=1).view(np.uint32),
                          np.sort(want, axis=1).view(np.uint32))


RINGS = {
    # name: (planes shape (h, w), cx, cy, in_x, in_y, out_x, out_y)
    "centred": ((40, 50), 25, 20, 5, 4, 9, 7),
    "off-centre": ((40, 50), 12, 30, 3, 6, 8, 9),
    "clipped-top-left": ((40, 50), 2, 1, 4, 3, 9, 8),
    "clipped-bottom-right": ((40, 50), 48, 38, 4, 5, 8, 9),
    "clipped-all-sides": ((12, 10), 5, 6, 2, 2, 30, 30),
    "inner-covers-outer": ((40, 50), 25, 20, 12, 12, 9, 7),
    "inner-empty": ((40, 50), 25, 20, -1, -1, 5, 5),
    "empty-planes": ((0, 50), 25, 0, 2, 2, 5, 5),
    "thin-strip": ((5, 60), 30, 2, 10, 1, 14, 3),
}


@pytest.mark.parametrize("shape,cx,cy,in_x,in_y,out_x,out_y",
                         list(RINGS.values()), ids=list(RINGS))
def test_ring_matches_mask_form(shape, cx, cy, in_x, in_y, out_x, out_y):
    planes = np.random.default_rng(0).random((3,) + shape, dtype=np.float32)
    _same_pixels(_ring(planes, cx, cy, in_x, in_y, out_x, out_y),
                 _reference_ring(planes, cx, cy, in_x, in_y, out_x, out_y))


def test_ring_cases_include_empty_rings():
    sizes = [_reference_ring(np.zeros((3,) + shape, np.float32), *args).size
             for shape, *args in RINGS.values()]
    assert 0 in sizes and min(s for s in sizes if s) > 0


@given(h=st.integers(0, 30), w=st.integers(0, 30),
       cx=st.integers(-3, 33), cy=st.integers(-3, 33),
       in_x=st.integers(-1, 15), in_y=st.integers(-1, 15),
       grow_x=st.integers(-3, 10), grow_y=st.integers(-3, 10),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_ring_matches_mask_form_property(h, w, cx, cy, in_x, in_y,
                                         grow_x, grow_y, seed):
    planes = np.random.default_rng(seed).random((3, h, w), dtype=np.float32)
    args = (cx, cy, in_x, in_y, in_x + grow_x, in_y + grow_y)
    _same_pixels(_ring(planes, *args), _reference_ring(planes, *args))
