"""Image filters used for augmentation, masking and classical features.

The text-masking experiment (paper Fig. 7 / Table IV) blurs all text on
AGO/UPO regions; the RCNN baselines' region proposers need gradient
magnitude; :func:`resize` builds the detector inputs, the RCNN
proposal images and the baseline descriptor crops with NumPy, in
scipy's order-1 zoom arithmetic.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.geometry.rect import Rect


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Luma-weighted grayscale, shape (H, W)."""
    if image.ndim == 2:
        return image.astype(np.float32)
    weights = np.array([0.2126, 0.7152, 0.0722], dtype=np.float32)
    return (image[..., :3] @ weights).astype(np.float32)


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Channel-wise Gaussian blur; no-op for sigma <= 0."""
    if sigma <= 0:
        return image.astype(np.float32, copy=True)
    if image.ndim == 2:
        return ndimage.gaussian_filter(image, sigma=sigma).astype(np.float32)
    out = np.empty_like(image, dtype=np.float32)
    for c in range(image.shape[2]):
        out[..., c] = ndimage.gaussian_filter(image[..., c], sigma=sigma)
    return out


def box_blur(image: np.ndarray, size: int) -> np.ndarray:
    """Uniform blur with a ``size x size`` kernel; no-op for size <= 1."""
    if size <= 1:
        return image.astype(np.float32, copy=True)
    if image.ndim == 2:
        return ndimage.uniform_filter(image, size=size).astype(np.float32)
    out = np.empty_like(image, dtype=np.float32)
    for c in range(image.shape[2]):
        out[..., c] = ndimage.uniform_filter(image[..., c], size=size)
    return out


def blur_region(image: np.ndarray, rect: Rect, sigma: float = 3.0) -> np.ndarray:
    """Blur only inside ``rect`` — the paper's text-masking operation."""
    out = image.astype(np.float32, copy=True)
    h, w = out.shape[:2]
    r = rect.clipped_to(Rect(0, 0, w, h)).rounded()
    if r.is_empty():
        return out
    y0, y1 = int(r.top), int(r.bottom)
    x0, x1 = int(r.left), int(r.right)
    out[y0:y1, x0:x1] = gaussian_blur(out[y0:y1, x0:x1], sigma)
    return out


def gradient_magnitude(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of the grayscale image, shape (H, W)."""
    gray = to_grayscale(image)
    gx = ndimage.sobel(gray, axis=1)
    gy = ndimage.sobel(gray, axis=0)
    return np.hypot(gx, gy).astype(np.float32)


def _zoom_taps(n_in: int, n_out: int):
    """One axis of scipy's order-1 zoom, cropped or
    edge-padded to ``n_out``: the two source indices and float64
    weights of every output sample, and which samples overshoot.

    scipy samples ``k * ((n_in - 1) / (n_zoom - 1))`` (step 1.0 for a
    single sample), takes ``w0 = 1 - (cc - floor(cc))`` and
    ``w1 = 1 - w0``.  The second tap of the last input sample has
    weight 0; it is clamped into the axis.
    """
    n_zoom = int(round(n_in * (n_out / n_in)))
    step = (n_in - 1) / (n_zoom - 1) if n_zoom != 1 else 1.0
    cc = np.minimum(np.arange(n_out), n_zoom - 1) * step
    start = np.floor(cc)
    w0 = 1.0 - (cc - start)
    first = start.astype(np.intp)
    second = np.minimum(first + 1, n_in - 1)
    return first, second, w0, 1.0 - w0, cc > n_in - 1


def resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a floating-point ``(H, W)`` or ``(H, W, C)``
    image, clipped to [0, 1] as float32.

    Bit-identical to scipy's order-1 zoom by ``(out_h / H, out_w / W[, 1])``
    on finite input (``tests/imaging/test_resize_reference.py``):
    each output is ``((v * wy) * wx)`` over the four neighbours in
    float64, summed from ``+0.0`` in scipy's order (top-left, top-right,
    bottom-left, bottom-right), then cast to the input dtype; an
    unchanged shape is returned as a copy.

    scipy's ``mode='constant'`` quirk is kept on purpose: a sample
    coordinate that rounds past ``n_in - 1``, even by one ulp (64 -> 24
    samples at 63.00000000000001), lies outside the input, so that
    whole output row or column is 0.  The detector (640x360 -> 128x72)
    and RCNN proposal (-> 320x180) shapes never overshoot; for the
    baseline descriptors' 32- and 48-px crops, about 2.5% of the
    possible 2-360 px patch sides do.

    Raises ``ValueError`` for an empty, 1-D or 4-D+ image, or a
    non-floating dtype.
    """
    if image.ndim not in (2, 3) or image.size == 0:
        raise ValueError("resize expects a non-empty (H, W) or (H, W, C) "
                         f"image, got shape {image.shape}")
    if not np.issubdtype(image.dtype, np.floating):
        raise ValueError("resize expects a floating-point image, "
                         f"got {image.dtype}")
    h, w = image.shape[:2]
    if out_h == h and out_w == w:
        out = image.copy()
    else:
        rows0, rows1, wy0, wy1, over_y = _zoom_taps(h, out_h)
        cols0, cols1, wx0, wx1, over_x = _zoom_taps(w, out_w)
        # Pixels as rows of C values: each neighbour is one take along
        # axis 0, and the products run over contiguous (out_h, out_w * C)
        # planes, with the column weights repeated per channel.
        pixels = image.reshape(h * w, -1)
        channels = pixels.shape[1]
        wy0, wy1 = wy0[:, None], wy1[:, None]
        wx0, wx1 = np.repeat(wx0, channels), np.repeat(wx1, channels)
        rows0, rows1 = rows0[:, None] * w, rows1[:, None] * w

        plane = (out_h, out_w * channels)

        def corner(rows, cols, wy, wx, out=None):
            vals = pixels.take(rows + cols, axis=0).reshape(plane)
            out = np.multiply(vals, wy, out=out, dtype=np.float64)
            out *= wx
            return out

        acc = corner(rows0, cols0, wy0, wx0)
        acc += 0.0  # scipy's sum starts from +0.0: a -0.0 term becomes +0.0
        term = np.empty_like(acc)
        for rows, cols, wy, wx in ((rows0, cols1, wy0, wx1),
                                   (rows1, cols0, wy1, wx0),
                                   (rows1, cols1, wy1, wx1)):
            acc += corner(rows, cols, wy, wx, out=term)
        acc = acc.reshape((out_h, out_w) + image.shape[2:])
        acc[over_y] = 0.0
        acc[:, over_x] = 0.0
        out = acc.astype(image.dtype, copy=False)
    out = out.astype(np.float32, copy=False)
    return np.clip(out, 0.0, 1.0, out=out)
