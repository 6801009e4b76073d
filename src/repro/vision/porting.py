"""The ncnn-like mobile port (paper Section IV-C, Table IV).

The paper converts the trained PyTorch YOLOv5 to ONNX, "replaces
internal redundant calculations with constants", converts to ncnn, and
runs it on the phone — reporting a ~1.7-point F1 loss.  Our port
performs the same two transformations that cause that loss in practice:

1. **Constant folding** — BatchNorm layers are folded into the weights
   and biases of the preceding convolution, so the deployed graph has
   no normalization ops (fewer kernels, fewer round-trips);
2. **Weight quantization** — folded weights are stored in reduced
   precision (fp16 by default; int8 optionally), the format mobile
   inference engines execute on ARM CPUs.

The ported model exposes the same ``detect_screen`` API as the trained
one, plus a simulated mobile execution profile for overhead accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.vision.nn.infer import fold_batchnorm
from repro.vision.nn.layers import Sequential
from repro.vision.yolo import Detection, TinyYolo


@dataclass(frozen=True)
class PortConfig:
    """Porting options."""

    quantization: str = "fp16"  # "none" | "fp16" | "int8"
    #: Simulated speed-up of the mobile engine vs the unported graph
    #: (BN folding + half-precision arithmetic); used by the device
    #: cost model, not by correctness paths.
    speedup: float = 1.6

    def __post_init__(self) -> None:
        if self.quantization not in ("none", "fp16", "int8"):
            raise ValueError(f"unknown quantization {self.quantization!r}")


def quantize_symmetric(array: np.ndarray,
                       axis: Optional[int] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 quantization; returns ``(codes, scale)``.

    ``axis=None`` computes one per-tensor scale; an integer axis keeps
    that axis and reduces over all others (per-output-channel scales
    for conv weights).  The scale is ``absmax / 127`` with zero-range
    slices mapped to scale 1.0 (their codes are all zero anyway), so
    dequantization never divides by zero.
    """
    arr = np.asarray(array, dtype=np.float32)
    if axis is None:
        absmax = np.float32(np.max(np.abs(arr))) if arr.size else np.float32(0)
        scale = np.where(absmax > 0, absmax / np.float32(127.0),
                         np.float32(1.0)).astype(np.float32)
    else:
        reduce_axes = tuple(i for i in range(arr.ndim) if i != axis % arr.ndim)
        absmax = np.max(np.abs(arr), axis=reduce_axes)
        scale = np.where(absmax > 0, absmax / np.float32(127.0),
                         np.float32(1.0)).astype(np.float32)
        shape = [1] * arr.ndim
        shape[axis % arr.ndim] = -1
        scale = scale.reshape(shape)
    codes = np.clip(np.rint(arr / scale), -127, 127).astype(np.int8)
    return codes, np.squeeze(scale) if axis is not None else scale


def _quantize(array: np.ndarray, mode: str) -> np.ndarray:
    if mode == "none":
        return array.astype(np.float32)
    if mode == "fp16":
        return array.astype(np.float16).astype(np.float32)
    # int8: symmetric quantization.  Conv weights (4-D, out-channel
    # first) get one scale per output channel — one outlier channel no
    # longer inflates the step size of every other filter, which is the
    # scheme real mobile engines use and measurably tightens the
    # round-trip error (pinned by the porting regression tests).
    # Biases and other 1-D params keep a per-tensor scale.
    axis = 0 if array.ndim == 4 else None
    codes, scale = quantize_symmetric(array, axis=axis)
    if axis is not None:
        scale = np.reshape(scale, (-1,) + (1,) * (array.ndim - 1))
    return (codes.astype(np.float32) * scale).astype(np.float32)


class MobilePort:
    """A deployed (folded + quantized) TinyYolo with the same API."""

    def __init__(self, model: TinyYolo, config: Optional[PortConfig] = None):
        self.config = config or PortConfig()
        self.source_config = model.config
        # Clone the full model (parameters + BN stats), then rewrite it.
        ported = TinyYolo(model.config, seed=0)
        ported.load_state_dict(model.state_dict())
        ported.backbone = Sequential(fold_batchnorm(ported.backbone.layers))
        for p in ported.parameters():
            p.value = _quantize(p.value, self.config.quantization)
        self._model = ported

    # -- inference (same API as TinyYolo) --------------------------------

    def detect_screen(self, screen_image: np.ndarray,
                      conf_threshold: Optional[float] = None) -> List[Detection]:
        return self._model.detect_screen(screen_image,
                                         conf_threshold=conf_threshold)

    def detect_screens(self, screen_images,
                       conf_threshold: Optional[float] = None):
        """Batched screen-space inference (see TinyYolo.detect_screens)."""
        return self._model.detect_screens(screen_images,
                                          conf_threshold=conf_threshold)

    def detect_batch(self, images: np.ndarray,
                     conf_threshold: Optional[float] = None):
        return self._model.detect_batch(images, conf_threshold)

    @property
    def model(self) -> TinyYolo:
        return self._model

    # -- deployment accounting ---------------------------------------------

    def layer_count(self) -> int:
        return len(self._model.backbone.layers) + 1  # + head

    def model_size_bytes(self) -> int:
        """Serialized weight footprint at the ported precision."""
        bytes_per = {"none": 4, "fp16": 2, "int8": 1}[self.config.quantization]
        return sum(p.value.size * bytes_per for p in self._model.parameters())

    def inference_time_ms(self, base_ms: float = 38.0) -> float:
        """Simulated per-frame mobile inference latency."""
        return base_ms / self.config.speedup


def port_model(model: TinyYolo,
               config: Optional[PortConfig] = None) -> MobilePort:
    """Convenience wrapper mirroring the paper's export pipeline."""
    return MobilePort(model, config)
