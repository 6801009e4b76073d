"""Inference-mode fast path for the NN library.

Training needs layer caches, per-step allocations and explicit
BatchNorm statistics; serving needs none of that.  This module compiles
a trained layer stack into an :class:`InferencePlan` that applies the
standard mobile-engine optimizations:

1. **BatchNorm folding** — every Conv→BN pair is fused into a single
   convolution with rescaled weights (the same transform the ncnn-like
   port in :mod:`repro.vision.porting` applies at export time), so the
   deployed graph runs fewer kernels;
2. **Channels-last execution** — the plan runs NHWC internally.  The
   GEMM output of a convolution *is* the next layer's NHWC activation
   (no transposes between layers), im2col patch rows become a few
   contiguous memcpy runs instead of per-element gathers, and 1x1
   convolutions skip im2col entirely (the activation itself is the
   GEMM operand).  Weights are pre-reordered to (kh*kw*c, oc) at
   compile time;
3. **Operator fusion with pool-first reordering** — each
   Conv→LeakyReLU→MaxPool run is one step, and the max-pool is applied
   *directly to the GEMM output*, before the bias add and activation.
   Both reorderings are bitwise-exact: adding a per-channel bias is a
   monotone translation within each pooling window
   (``fl(max_i(a_i) + b) == max_i(fl(a_i + b))`` since ``x -> fl(x+b)``
   is non-decreasing), and ``leaky(x) = max(x, s*x)`` with
   ``s in [0, 1]`` is monotone non-decreasing, so it too commutes with
   the windowed max.  The payoff: bias/activation run over the pooled
   tensor — 4x fewer elements for a 2x2 pool;
4. **Buffer reuse** — the padded input, im2col matrix, GEMM output and
   activation temporary of each step are preallocated once per
   (step, image shape) and overwritten for every image of every call,
   so batches of any size share one set of scratch buffers;
5. **Per-image GEMMs** — a plan forward over an ``(N, C, H, W)`` stack
   runs each conv step image by image: im2col, GEMM and pool back to
   back through image-sized scratch, with only the pooled result
   written to the batch-sized output.

**Determinism.**  BLAS results depend on call shape: ``matmul`` over M
rows is *not* bit-identical to the same rows split across several
calls for every (M, K, N) — measured on this platform it holds for the
TinyYolo step shapes but fails for e.g. ``K=72, N=8``.  The plan
therefore issues exactly one GEMM per image and step, whatever the
batch size, so every image's GEMM has the same shape in a batch of 32
as on its own: a batched forward is bit-identical to running the
images one at a time.  Daemon request coalescing relies on that
identity (see :mod:`repro.core.daemon`).
"""

from __future__ import annotations

import copy
import ctypes
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.vision.nn.layers import (
    BatchNorm2D,
    Conv2D,
    Layer,
    LeakyReLU,
    MaxPool2D,
    Parameter,
)


def fold_conv_bn(conv: Conv2D, bn: BatchNorm2D) -> Conv2D:
    """Return a new Conv2D computing ``bn(conv(x))`` in one op.

    Uses the BN *running* statistics, i.e. the inference-mode
    normalization.  A bias-free convolution gains a bias parameter to
    carry the folded shift.
    """
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    scale = bn.gamma.value * inv_std  # per out-channel
    folded = copy.deepcopy(conv)
    folded.weight.value = (conv.weight.value
                           * scale[:, None, None, None]).astype(np.float32)
    bias = conv.bias.value if conv.bias is not None else 0.0
    new_bias = (bias - bn.running_mean) * scale + bn.beta.value
    if folded.bias is None:
        folded.bias = Parameter(np.zeros(conv.weight.shape[0]),
                                name="conv.bias")
    folded.bias.value = new_bias.astype(np.float32)
    return folded


def fold_batchnorm(layers: Sequence[Layer]) -> List[Layer]:
    """Rewrite a layer list with every Conv→BN pair fused.

    Fused convolutions are fresh objects; all other layers are passed
    through unchanged (they hold no inference-relevant state).
    """
    out: List[Layer] = []
    i = 0
    seq = list(layers)
    while i < len(seq):
        layer = seq[i]
        nxt = seq[i + 1] if i + 1 < len(seq) else None
        if isinstance(layer, Conv2D) and isinstance(nxt, BatchNorm2D):
            out.append(fold_conv_bn(layer, nxt))
            i += 2
        else:
            out.append(layer)
            i += 1
    return out


#: OpenBLAS's thread-count setters: the ``scipy_openblas`` build that
#: NumPy 2.x wheels bundle, then other OpenBLAS builds.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _blas_library() -> Optional[ctypes.CDLL]:
    """NumPy's core extension module, opened through ctypes.

    The extension is already loaded, so this returns a handle to it, not
    a second copy, and a symbol lookup on that handle also searches the
    libraries it links, NumPy's BLAS among them.  ``None`` when the
    module cannot be found or opened.
    """
    for name in ("numpy._core._multiarray_umath",
                 "numpy.core._multiarray_umath"):
        path = getattr(sys.modules.get(name), "__file__", None)
        if path is not None:
            try:
                return ctypes.CDLL(path)
            except OSError:
                return None
    return None


def _pin_blas_to_one_thread() -> bool:
    """Set NumPy's OpenBLAS to one thread; ``False`` if it has no setter.

    After every multi-threaded GEMM, OpenBLAS's worker thread busy-waits
    for about 120 ms (DESIGN §5g).  The plan's per-image GEMMs gain
    nothing from a second thread, and the spinning worker would hold
    the core the renderer's noise helper draws on.  The setting is
    process-wide; with no OpenBLAS (or another BLAS) nothing changes.
    """
    library = _blas_library()
    for name in _BLAS_THREAD_SETTERS:
        setter = getattr(library, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return True
    return False


@dataclass(eq=False)
class _ConvStep:
    """A fused Conv [+ LeakyReLU] [+ MaxPool] execution step."""

    idx: int
    conv: Conv2D
    slope: Optional[float]  # LeakyReLU slope, or None
    pool: Optional[int]     # MaxPool size, or None
    #: weight matrix reordered for NHWC patches: (kh*kw*c, oc)
    wt: np.ndarray = field(repr=False)


@dataclass(eq=False)
class _LayerStep:
    """A pass-through step for any layer the compiler does not fuse.

    Pass-through layers see standard NCHW tensors; the executor
    converts layout around them.
    """

    layer: Layer


class InferencePlan:
    """A compiled, eval-only executor for a layer stack.

    Build one from a trained stack and call :meth:`forward` with any
    batch size; buffers are grown lazily per distinct image shape and
    reused afterwards.  The plan snapshots the weights at build time
    (folding and reordering copy the convolutions), so it must be
    rebuilt after the source model trains or loads new weights —
    :class:`TinyYolo` does this automatically.

    The returned array is freshly allocated per call and safe to keep.
    Building a plan sets NumPy's OpenBLAS to one thread, process-wide
    (:func:`_pin_blas_to_one_thread`).
    """

    def __init__(self, layers: Sequence[Layer]):
        _pin_blas_to_one_thread()
        self.layers: List[Layer] = fold_batchnorm(layers)
        #: Optional :class:`repro.core.observability.PlanProfiler` (or
        #: anything with ``start_forward(batch)`` / ``record_step(label,
        #: macs)``).  When attached, every forward reports its per-step
        #: multiply-accumulate counts so the tracing layer can attribute
        #: the flat inference charge across the executed graph.  None
        #: (the default) costs one predicate per forward.
        self.profiler = None
        self._steps = self._compile(self.layers)
        # Per-(step, image-shape) scratch buffers, all NHWC and shared
        # by every batch size ...
        self._pads: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        self._cols: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        self._outs: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        self._tmps: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}
        # ... and the batch-sized pooled outputs, per (step, batch shape).
        self._pools: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}

    @staticmethod
    def _compile(layers: Sequence[Layer]) -> List[object]:
        steps: List[object] = []
        i = 0
        while i < len(layers):
            layer = layers[i]
            if not isinstance(layer, Conv2D):
                steps.append(_LayerStep(layer))
                i += 1
                continue
            slope: Optional[float] = None
            pool: Optional[int] = None
            j = i + 1
            if (j < len(layers) and isinstance(layers[j], LeakyReLU)
                    and 0.0 <= layers[j].slope <= 1.0):
                slope = layers[j].slope
                j += 1
            if j < len(layers) and isinstance(layers[j], MaxPool2D):
                pool = layers[j].size
                j += 1
            # (oc, c, kh, kw) -> (kh, kw, c, oc) flattened to match the
            # NHWC patch layout of the im2col rows.
            wt = np.ascontiguousarray(
                layer.weight.value.transpose(2, 3, 1, 0).reshape(
                    -1, layer.weight.shape[0]))
            steps.append(_ConvStep(idx=i, conv=layer, slope=slope, pool=pool,
                                   wt=wt))
            i = j
        return steps

    # -- execution ------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the stack over an (N, C, H, W) batch; returns NCHW."""
        prof = self.profiler
        if prof is not None:
            prof.start_forward(batch=x.shape[0])
        h = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np.float32)
        for step in self._steps:
            if isinstance(step, _ConvStep):
                h = self._conv_forward(step, h)
            else:
                nchw = np.ascontiguousarray(h.transpose(0, 3, 1, 2))
                nchw = step.layer.forward(nchw, training=False)
                h = np.ascontiguousarray(nchw.transpose(0, 2, 3, 1))
                if prof is not None:
                    prof.record_step(type(step.layer).__name__.lower(),
                                     int(h.size))
        return np.ascontiguousarray(h.transpose(0, 3, 1, 2))

    __call__ = forward

    # -- internals ------------------------------------------------------

    def _buffer(self, pool: Dict, key, shape,
                zero: bool = False) -> np.ndarray:
        buf = pool.get(key)
        if buf is None:
            alloc = np.zeros if zero else np.empty
            buf = alloc(shape, dtype=np.float32)
            pool[key] = buf
        return buf

    def _conv_forward(self, step: _ConvStep, x: np.ndarray) -> np.ndarray:
        """One fused step over an NHWC activation; returns NHWC.

        The step runs image by image: each image goes im2col -> GEMM ->
        pool back to back through *image-sized* scratch buffers, so the
        patch matrix and GEMM output stay cache-resident.  Only the
        pooled result (1/ps^2 of the conv output) is written to the
        batch-sized buffer.  The bias add and the activation run over
        the pooled image — both commute bitwise with the windowed max
        (a per-channel translation and ``leaky(x) = max(x, s*x)``,
        ``s in [0, 1]``, are monotone within each pooling window),
        which is what makes the pool-first ordering safe.
        """
        conv = step.conv
        n, h, w, c = x.shape
        k, s, p = conv.kernel, conv.stride, conv.pad
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        oc = step.wt.shape[1]
        ps = step.pool or 1
        if oh % ps or ow % ps:
            raise ValueError(
                f"input {oh}x{ow} not divisible by pool size {ps}")
        fh, fw = oh // ps, ow // ps
        if self.profiler is not None:
            # MACs of the (pre-pool) GEMM — the step's true arithmetic.
            self.profiler.record_step(f"conv{step.idx}",
                                      n * oh * ow * k * k * c * oc)
        key = (step.idx, x.shape[1:])
        final = self._buffer(self._pools, (step.idx, x.shape),
                             (n, fh, fw, oc))
        rows = oh * ow
        one_by_one = k == 1 and s == 1 and p == 0
        if one_by_one:
            cols_all = x.reshape(n * h * w, c)  # 1x1: patches are rows
        elif p:
            # Zero-filled once; the border stays zero, only the
            # interior is rewritten per image.
            padded = self._buffer(self._pads, key,
                                  (h + 2 * p, w + 2 * p, c), zero=True)
        for i in range(n):
            if one_by_one:
                cols = cols_all[i * rows:(i + 1) * rows]
            else:
                if p:
                    padded[p:p + h, p:p + w, :] = x[i]
                else:
                    padded = x[i]
                sh, sw, sc = padded.strides
                windows = as_strided(
                    padded, shape=(oh, ow, k, k, c),
                    strides=(sh * s, sw * s, sh, sw, sc))
                cols = self._buffer(self._cols, key, (rows, k * k * c))
                # Each patch row is k contiguous runs of k*c floats —
                # the whole copy is memcpy-shaped, unlike the
                # per-element gathers an NCHW layout would force.
                np.copyto(cols.reshape(oh, ow, k, k, c), windows)
            out = self._buffer(self._outs, key, (rows, oc))
            # One BLAS call per image: float results depend on the
            # call's M dimension, so this is what keeps a batched
            # forward bit-identical to per-image execution.
            np.matmul(cols, step.wt, out=out)
            nhwc = out.reshape(oh, ow, oc)
            chunk = final[i]
            if step.pool is not None:
                wnd = nhwc.reshape(fh, ps, fw, ps, oc)
                # Pairwise maxima over the ps*ps window offsets: each
                # operand is a strided view whose innermost oc run is
                # contiguous.
                np.copyto(chunk, wnd[:, 0, :, 0])
                for dy in range(ps):
                    for dx in range(ps):
                        if dy == 0 and dx == 0:
                            continue
                        np.maximum(chunk, wnd[:, dy, :, dx], out=chunk)
            else:
                np.copyto(chunk, nhwc)
            # Epilogue per image, while the pooled chunk is still
            # cache-hot.  Elementwise, so chunking cannot change bits.
            if conv.bias is not None:
                chunk += conv.bias.value
            if step.slope is not None:
                # leaky(x) == max(x, slope*x) for slope in [0, 1]; two
                # passes over the scratch, no allocation.
                tmp = self._buffer(self._tmps, key, (fh, fw, oc))
                np.multiply(chunk, step.slope, out=tmp)
                np.maximum(chunk, tmp, out=chunk)
        return final
