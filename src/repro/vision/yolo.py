"""TinyYOLO — the one-stage AUI detector.

A faithful (if small) instance of the paradigm the paper deploys: a
convolutional backbone over the whole image, a 1x1 prediction head
emitting per-grid-cell objectness, class scores and a YOLO-parameterized
box, confidence thresholding, and class-wise NMS.  Trained with Adam on
a composite loss (BCE objectness with down-weighted empty cells, MSE
box regression, cross-entropy class loss on object cells) — the
standard YOLO recipe.

Boxes are sharpened by :mod:`repro.vision.refine` before screen-space
reporting; the strict IoU=0.9 metric needs that precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.grid import GridSpec
from repro.geometry.nms import ScoredBox, non_max_suppression
from repro.geometry.rect import Rect
from repro.vision.dataset import (
    CLASS_NAMES,
    DetectionDataset,
    INPUT_H,
    INPUT_W,
    input_rect_to_screen,
    to_input_tensor,
)
from repro.vision.nn import (
    Adam,
    BatchNorm2D,
    Conv2D,
    InferencePlan,
    LeakyReLU,
    MaxPool2D,
    Sequential,
    sigmoid,
    softmax,
)
from repro.vision.refine import refine_detection_box

#: A detection is a scored, classed box (screen or input coordinates
#: depending on the API that produced it).
Detection = ScoredBox


@dataclass(frozen=True)
class YoloConfig:
    """Architecture and loss hyperparameters."""

    input_w: int = INPUT_W
    input_h: int = INPUT_H
    channels: Tuple[int, ...] = (16, 24, 48, 48)
    n_classes: int = 2
    lambda_coord: float = 5.0
    lambda_noobj: float = 0.4
    #: Extra weight on UPO-cell objectness/box terms: UPOs are an order
    #: of magnitude smaller than AGOs and need the emphasis.
    lambda_upo: float = 2.0
    conf_threshold: float = 0.45
    nms_iou: float = 0.4

    @property
    def cells_x(self) -> int:
        return self.input_w // 8  # three 2x poolings

    @property
    def cells_y(self) -> int:
        return self.input_h // 8

    @property
    def out_channels(self) -> int:
        return 5 + self.n_classes  # obj + 4 box + classes

    def grid(self) -> GridSpec:
        return GridSpec(self.input_w, self.input_h, self.cells_x, self.cells_y)


class TinyYolo:
    """The detector: backbone + head, encode/decode, screen-space API."""

    def __init__(self, config: Optional[YoloConfig] = None, seed: int = 0):
        self.config = config or YoloConfig()
        rng = np.random.default_rng(seed)
        c = self.config.channels
        layers = []
        in_ch = 3
        for i, out_ch in enumerate(c):
            layers.append(Conv2D(in_ch, out_ch, kernel=3, rng=rng))
            layers.append(BatchNorm2D(out_ch))
            layers.append(LeakyReLU(0.1))
            if i < 3:
                layers.append(MaxPool2D(2))
            in_ch = out_ch
        self.backbone = Sequential(layers)
        self.head = Conv2D(in_ch, self.config.out_channels, kernel=1, pad=0,
                           rng=rng)
        self.grid = self.config.grid()
        self._plan: Optional[InferencePlan] = None

    # -- plumbing -------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            # Weights and BN statistics are about to change: any
            # compiled inference plan is stale.
            self._plan = None
        feats = self.backbone.forward(x, training=training)
        return self.head.forward(feats, training=training)

    def inference_plan(self) -> InferencePlan:
        """The compiled serving path: BN folded, buffers reused.

        Built lazily and invalidated whenever the model trains or loads
        new weights, so callers never see stale weights.
        """
        if self._plan is None:
            self._plan = InferencePlan([*self.backbone.layers, self.head])
        return self._plan

    def __getstate__(self):
        # The plan holds scratch buffers keyed by layer identity; it is
        # cheap to rebuild and meaningless across pickling (the parallel
        # runner ships models to worker processes).
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    def backward(self, grad: np.ndarray) -> None:
        self.backbone.backward(self.head.backward(grad))

    def parameters(self):
        return self.backbone.parameters() + self.head.parameters()

    def get_weights(self) -> List[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for p, w in zip(params, weights):
            if p.value.shape != w.shape:
                raise ValueError(f"shape mismatch for {p.name}: "
                                 f"{p.value.shape} vs {w.shape}")
            p.value = w.astype(np.float32).copy()
        self._plan = None

    def _batchnorms(self) -> List[BatchNorm2D]:
        return [l for l in self.backbone.layers if isinstance(l, BatchNorm2D)]

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Full inference state: parameters AND BatchNorm running stats.

        Keys are positional (``p000`` / ``bn000.mean`` …) so the dict
        round-trips safely through ``np.savez``.
        """
        state: Dict[str, np.ndarray] = {}
        for i, p in enumerate(self.parameters()):
            state[f"p{i:03d}"] = p.value.copy()
        for i, bn in enumerate(self._batchnorms()):
            state[f"bn{i:03d}.mean"] = bn.running_mean.copy()
            state[f"bn{i:03d}.var"] = bn.running_var.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = self.parameters()
        self.set_weights([state[f"p{i:03d}"] for i in range(len(params))])
        for i, bn in enumerate(self._batchnorms()):
            bn.running_mean = state[f"bn{i:03d}.mean"].astype(np.float32).copy()
            bn.running_var = state[f"bn{i:03d}.var"].astype(np.float32).copy()
        self._plan = None

    # -- target encoding ---------------------------------------------------

    def encode_targets(
        self, labels: Sequence[Sequence[Tuple[int, Rect]]]
    ) -> Dict[str, np.ndarray]:
        """Build dense target tensors for a batch of label lists."""
        n = len(labels)
        gy, gx = self.config.cells_y, self.config.cells_x
        obj = np.zeros((n, gy, gx), dtype=np.float32)
        box = np.zeros((n, 4, gy, gx), dtype=np.float32)
        cls = np.zeros((n, gy, gx), dtype=np.int64)
        for i, labs in enumerate(labels):
            for class_idx, rect in labs:
                col, row, t = self.grid.encode(rect)
                obj[i, row, col] = 1.0
                box[i, :, row, col] = t
                cls[i, row, col] = class_idx
        return {"obj": obj, "box": box, "cls": cls}

    # -- loss ---------------------------------------------------------------

    def loss_and_grad(
        self, raw: np.ndarray, targets: Dict[str, np.ndarray]
    ) -> Tuple[float, np.ndarray]:
        """Composite YOLO loss; returns (loss, d loss / d raw)."""
        cfg = self.config
        n = raw.shape[0]
        obj_t, box_t, cls_t = targets["obj"], targets["box"], targets["cls"]
        obj_mask = obj_t > 0.5
        n_obj = max(1.0, float(obj_mask.sum()))

        grad = np.zeros_like(raw)
        eps = 1e-7

        # Objectness: BCE over every cell; empty cells down-weighted,
        # UPO cells (tiny objects) up-weighted.
        obj_logit = raw[:, 0]
        p_obj = sigmoid(obj_logit)
        upo_cells = obj_mask & (cls_t == 1)
        pos_w = np.where(upo_cells, cfg.lambda_upo, 1.0)
        w_obj = np.where(obj_mask, pos_w, cfg.lambda_noobj)
        obj_loss = float(
            (w_obj * -(obj_t * np.log(p_obj + eps)
                       + (1 - obj_t) * np.log(1 - p_obj + eps))).sum() / n_obj
        )
        grad[:, 0] = w_obj * (p_obj - obj_t) / n_obj

        # Box regression: MSE on sigmoid outputs, object cells only,
        # with the same UPO emphasis.
        box_logit = raw[:, 1:5]
        p_box = sigmoid(box_logit)
        mask4 = (obj_mask * pos_w)[:, None, :, :]
        err = p_box - box_t
        box_loss = cfg.lambda_coord * float((err ** 2 * mask4).sum() / n_obj)
        grad[:, 1:5] = (cfg.lambda_coord * 2.0 * err * mask4
                        * p_box * (1 - p_box) / n_obj)

        # Classes: softmax CE on object cells.
        cls_logit = raw[:, 5:]  # (N, C, gy, gx)
        cls_swapped = np.moveaxis(cls_logit, 1, -1)  # (N, gy, gx, C)
        p_cls = softmax(cls_swapped, axis=-1)
        onehot = np.eye(cfg.n_classes, dtype=np.float32)[cls_t]
        ce = -(onehot * np.log(p_cls + eps)).sum(axis=-1)
        cls_loss = float((ce * obj_mask).sum() / n_obj)
        d_cls = (p_cls - onehot) * obj_mask[..., None] / n_obj
        grad[:, 5:] = np.moveaxis(d_cls, -1, 1)

        return obj_loss + box_loss + cls_loss, grad.astype(np.float32)

    # -- inference ------------------------------------------------------------

    def predict_raw(self, images: np.ndarray) -> np.ndarray:
        return self.inference_plan().forward(images)

    def decode(
        self,
        raw_single: np.ndarray,
        conf_threshold: Optional[float] = None,
    ) -> List[Detection]:
        """Raw (C, gy, gx) map -> thresholded, NMS-filtered detections
        in *input* coordinates."""
        cfg = self.config
        thr = cfg.conf_threshold if conf_threshold is None else conf_threshold
        p_obj = sigmoid(raw_single[0])
        p_box = sigmoid(raw_single[1:5])
        p_cls = softmax(np.moveaxis(raw_single[5:], 0, -1), axis=-1)
        detections: List[Detection] = []
        rows, cols = np.where(p_obj > thr)
        for row, col in zip(rows, cols):
            t = p_box[:, row, col]
            rect = self.grid.decode(int(col), int(row), t)
            class_idx = int(np.argmax(p_cls[row, col]))
            score = float(np.clip(p_obj[row, col] * p_cls[row, col, class_idx],
                                  0.0, 1.0))
            if rect.is_empty():
                continue
            detections.append(
                Detection(rect=rect, label=CLASS_NAMES[class_idx], score=score)
            )
        return non_max_suppression(detections, iou_threshold=cfg.nms_iou)

    def detect_batch(
        self,
        images: np.ndarray,
        conf_threshold: Optional[float] = None,
    ) -> List[List[Detection]]:
        raw = self.predict_raw(images)
        return [self.decode(raw[i], conf_threshold) for i in range(raw.shape[0])]

    def detect_screens(
        self,
        screen_images: Sequence[np.ndarray],
        conf_threshold: Optional[float] = None,
    ) -> List[List[Detection]]:
        """Batched end-to-end path: N native screenshots -> N box lists.

        All N frames are preprocessed into one (N, C, H, W) stack and
        run through a single plan forward — one im2col per layer into a
        reused scratch instead of N size-1 forwards.  Per-image results
        are bit-identical to calling :meth:`detect_screen` image by
        image (see :mod:`repro.vision.nn.infer`).
        """
        if len(screen_images) == 0:
            return []
        tensors = np.stack([to_input_tensor(img) for img in screen_images])
        batches = self.detect_batch(tensors, conf_threshold)
        out: List[List[Detection]] = []
        for img, dets in zip(screen_images, batches):
            per_image: List[Detection] = []
            for det in dets:
                rect = refine_detection_box(img, input_rect_to_screen(det.rect))
                per_image.append(Detection(rect=rect, label=det.label,
                                           score=det.score))
            out.append(per_image)
        return out

    def detect_screen(
        self,
        screen_image: np.ndarray,
        conf_threshold: Optional[float] = None,
    ) -> List[Detection]:
        """End-to-end: native screenshot (H, W, 3) -> screen-space boxes.

        This is the call DARPA's runtime makes per settled screenshot.
        """
        return self.detect_screens([screen_image],
                                   conf_threshold=conf_threshold)[0]


@dataclass
class TrainHistory:
    losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class YoloTrainer:
    """Mini-batch Adam training loop for :class:`TinyYolo`.

    Pass ``augment`` (an :class:`repro.vision.augment.AugmentConfig`)
    to enable photometric/translation augmentation per batch.
    """

    def __init__(self, model: TinyYolo, lr: float = 2e-3,
                 batch_size: int = 16, seed: int = 0,
                 augment=None):
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.augment = augment

    def train_epoch(self, dataset: DetectionDataset) -> float:
        order = self.rng.permutation(len(dataset))
        total, batches = 0.0, 0
        for start in range(0, len(order), self.batch_size):
            idx = order[start:start + self.batch_size]
            images = dataset.images[idx]
            labels = [dataset.labels[i] for i in idx]
            if self.augment is not None:
                from repro.vision.augment import augment_batch
                images, labels = augment_batch(images, labels, self.rng,
                                               self.augment)
            targets = self.model.encode_targets(labels)
            self.optimizer.zero_grad()
            raw = self.model.forward(images, training=True)
            loss, grad = self.model.loss_and_grad(raw, targets)
            self.model.backward(grad)
            self.optimizer.step()
            total += loss
            batches += 1
        return total / max(1, batches)

    def evaluate_loss(self, dataset: DetectionDataset) -> float:
        targets = self.model.encode_targets(dataset.labels)
        raw = self.model.forward(dataset.images, training=False)
        loss, _ = self.model.loss_and_grad(raw, targets)
        return loss

    def fit(
        self,
        dataset: DetectionDataset,
        epochs: int,
        val_dataset: Optional[DetectionDataset] = None,
        verbose: bool = False,
    ) -> TrainHistory:
        history = TrainHistory()
        for epoch in range(epochs):
            loss = self.train_epoch(dataset)
            history.losses.append(loss)
            if val_dataset is not None:
                history.val_losses.append(self.evaluate_loss(val_dataset))
            if verbose:
                msg = f"epoch {epoch + 1}/{epochs} loss={loss:.4f}"
                if history.val_losses:
                    msg += f" val={history.val_losses[-1]:.4f}"
                print(msg)
        return history
