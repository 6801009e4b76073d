"""Two-stage (R-CNN-style) baseline detectors for Table V.

Structure mirrors Faster/Mask RCNN: a class-agnostic *region proposal*
stage followed by a per-region *classification head*, with the "Mask"
variants adding a segmentation-based box refinement stage.  Proposals
come from connected components of a color-quantized downsampling — the
classical selective-search idea specialized for flat UI imagery — and
the heads are softmax classifiers over the backbone descriptors of
:mod:`repro.vision.features`.

The structural handicap these models reproduce is the paper's: their
localization is bounded by proposal quality, so at the strict IoU=0.9
threshold they trail the one-stage detector even when classification is
good — and the Mask variants (which refine boxes) beat the Faster ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from repro.geometry.iou import pairwise_iou
from repro.geometry.nms import ScoredBox, non_max_suppression
from repro.geometry.rect import Rect
from repro.imaging.filters import resize
from repro.vision.dataset import CLASS_NAMES, DetectionDataset
from repro.vision.features import Resnet50Backbone, Vgg16Backbone
from repro.vision.nn import Adam, Linear, softmax, softmax_cross_entropy
from repro.vision.refine import snap_box_to_region
from repro.wallclock import monotonic_ms

_BG_CLASS = 2  # after AGO=0, UPO=1


def propose_regions(
    image: np.ndarray,
    downscale: int = 2,
    quant_levels: int = 14,
    min_side: float = 7.0,
    max_area_frac: float = 0.5,
    max_proposals: int = 110,
    denoise_sigma: float = 0.8,
) -> List[Rect]:
    """Class-agnostic proposals from color-quantized segmentation.

    The image is downsampled, colors are quantized to ``quant_levels``
    per channel, and each connected same-color component becomes one
    proposal (its bounding box, scaled back to native coordinates).
    Flat-colored UI widgets — buttons, chips, cards — segment cleanly;
    photographs and gradients shatter into fragments that the size
    filters drop.
    """
    h, w = image.shape[:2]
    small = resize(image, h // downscale, w // downscale)
    if denoise_sigma > 0:
        from repro.imaging.filters import gaussian_blur
        small = gaussian_blur(small, denoise_sigma)
    quant = np.minimum((small * quant_levels).astype(np.int32),
                       quant_levels - 1)
    codes = (quant[..., 0] * quant_levels + quant[..., 1]) * quant_levels + quant[..., 2]
    proposals: List[Rect] = []
    for code in np.unique(codes):
        mask = codes == code
        if mask.sum() < (min_side / downscale) ** 2:
            continue
        labeled, n = ndimage.label(mask)
        slices = ndimage.find_objects(labeled)
        for sl in slices:
            if sl is None:
                continue
            ys, xs = sl
            rect = Rect.from_corners(
                xs.start * downscale, ys.start * downscale,
                xs.stop * downscale, ys.stop * downscale,
            )
            if rect.w < min_side or rect.h < min_side:
                continue
            if rect.area > max_area_frac * w * h:
                continue
            proposals.append(rect)
    proposals.extend(_edge_blob_proposals(image))
    proposals = _dedupe(proposals)
    # Deterministic order: large, salient regions first.
    proposals.sort(key=lambda r: r.area, reverse=True)
    return proposals[:max_proposals]


def _edge_blob_proposals(image: np.ndarray, threshold: float = 0.18,
                         min_side: float = 9.0,
                         max_side: float = 110.0) -> List[Rect]:
    """Second proposal modality: connected high-gradient blobs.

    Small widgets (close buttons, skip chips) shatter or merge under
    color quantization, but their icon strokes and outlines form
    compact edge blobs at full resolution — the classical complement
    to segmentation-based proposals.
    """
    from repro.imaging.filters import gradient_magnitude
    grad = gradient_magnitude(image)
    mask = grad > threshold
    mask = ndimage.binary_closing(mask, structure=np.ones((3, 3)))
    labeled, _ = ndimage.label(mask)
    out: List[Rect] = []
    for sl in ndimage.find_objects(labeled):
        if sl is None:
            continue
        ys, xs = sl
        rect = Rect.from_corners(xs.start, ys.start, xs.stop, ys.stop)
        if not (min_side <= rect.w <= max_side and min_side <= rect.h <= max_side):
            continue
        out.append(rect)
    return out


def _dedupe(proposals: List[Rect], iou_threshold: float = 0.8) -> List[Rect]:
    kept: List[Rect] = []
    for rect in proposals:
        if not any(_fast_iou(rect, k) > iou_threshold for k in kept):
            kept.append(rect)
    return kept


def _fast_iou(a: Rect, b: Rect) -> float:
    inter = a.intersection(b).area
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


@dataclass(frozen=True)
class RcnnConfig:
    """Training/inference hyper-parameters shared by all variants."""

    pos_iou: float = 0.5
    bg_per_image: int = 6
    epochs: int = 60
    lr: float = 5e-3
    score_threshold: float = 0.6
    nms_iou: float = 0.4
    #: Ridge strength for the closed-form bbox-regression head.
    bbox_ridge: float = 1.0


class BBoxRegressor:
    """Closed-form ridge regression of proposal->truth box deltas.

    Faster/Mask RCNN refine proposals with a learned regression head;
    ours predicts the standard parameterization — center offsets scaled
    by proposal size, log size ratios — from the backbone features, fit
    in one normal-equations solve.
    """

    def __init__(self, ridge: float = 1.0):
        self.ridge = ridge
        self._w: Optional[np.ndarray] = None  # (dim + 1, 4)

    @staticmethod
    def encode(proposal: Rect, truth: Rect) -> np.ndarray:
        return np.array([
            (truth.center[0] - proposal.center[0]) / max(1.0, proposal.w),
            (truth.center[1] - proposal.center[1]) / max(1.0, proposal.h),
            np.log(max(1.0, truth.w) / max(1.0, proposal.w)),
            np.log(max(1.0, truth.h) / max(1.0, proposal.h)),
        ], dtype=np.float32)

    @staticmethod
    def apply(proposal: Rect, deltas: np.ndarray) -> Rect:
        dx, dy, dw, dh = (float(v) for v in deltas)
        # Clamp to sane ranges: the head must adjust, not teleport.
        dx, dy = np.clip([dx, dy], -0.5, 0.5)
        dw, dh = np.clip([dw, dh], -0.7, 0.7)
        cx = proposal.center[0] + dx * proposal.w
        cy = proposal.center[1] + dy * proposal.h
        w = proposal.w * float(np.exp(dw))
        h = proposal.h * float(np.exp(dh))
        return Rect.from_center(cx, cy, w, h)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Solve ``min ||X w - t||^2 + ridge ||w||^2`` (bias unpenalized
        only in spirit — the ridge is small enough not to matter)."""
        if features.shape[0] < 8:
            return  # too little signal; stay disabled
        x = np.hstack([features, np.ones((features.shape[0], 1),
                                         dtype=np.float32)])
        a = x.T @ x + self.ridge * np.eye(x.shape[1], dtype=np.float32)
        b = x.T @ targets
        self._w = np.linalg.solve(a, b).astype(np.float32)

    @property
    def fitted(self) -> bool:
        return self._w is not None

    def predict(self, feature: np.ndarray) -> np.ndarray:
        if self._w is None:
            return np.zeros(4, dtype=np.float32)
        x = np.concatenate([feature, [1.0]]).astype(np.float32)
        return x @ self._w


class RcnnDetector:
    """One Table V row: a backbone plus optional mask-style refinement."""

    def __init__(
        self,
        backbone_name: str = "ResNet50",
        mask_refinement: bool = False,
        config: Optional[RcnnConfig] = None,
        seed: int = 0,
    ):
        if backbone_name == "VGG16":
            self.backbone = Vgg16Backbone()
        elif backbone_name == "ResNet50":
            self.backbone = Resnet50Backbone()
        else:
            raise ValueError(f"unknown backbone {backbone_name!r}")
        self.mask_refinement = mask_refinement
        self.config = config or RcnnConfig()
        self.head = Linear(self.backbone.dim, 3,
                           rng=np.random.default_rng(seed))
        self.bbox_head = BBoxRegressor(ridge=self.config.bbox_ridge)
        self.rng = np.random.default_rng(seed + 1)
        self._fitted = False
        self.last_inference_ms: float = 0.0

    @property
    def name(self) -> str:
        family = "Mask RCNN" if self.mask_refinement else "Faster RCNN"
        return f"{family}+{self.backbone.name}"

    # -- training -------------------------------------------------------

    def _training_rows(
        self, dataset: DetectionDataset
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if dataset.screen_images is None:
            raise ValueError("RCNN training needs keep_screen_images=True")
        feats: List[np.ndarray] = []
        labels: List[int] = []
        reg_feats: List[np.ndarray] = []
        reg_targets: List[np.ndarray] = []
        for img, truths in zip(dataset.screen_images, dataset.screen_labels):
            proposals = propose_regions(img)
            if not proposals:
                continue
            gt_rects = [rect for _, rect in truths]
            gt_classes = [0 if role == "AGO" else 1 for role, _ in truths]
            matrix = pairwise_iou(proposals, gt_rects) if gt_rects else None
            bg_pool: List[int] = []
            for pi, rect in enumerate(proposals):
                cls = _BG_CLASS
                ti = -1
                if matrix is not None and matrix.shape[1]:
                    ti = int(np.argmax(matrix[pi]))
                    if matrix[pi, ti] >= self.config.pos_iou:
                        cls = gt_classes[ti]
                if cls == _BG_CLASS:
                    bg_pool.append(pi)
                    continue
                feat = self.backbone.extract(img, rect)
                feats.append(feat)
                labels.append(cls)
                reg_feats.append(feat)
                reg_targets.append(BBoxRegressor.encode(rect, gt_rects[ti]))
            # Balanced background sampling keeps the head calibrated.
            self.rng.shuffle(bg_pool)
            for pi in bg_pool[: self.config.bg_per_image]:
                feats.append(self.backbone.extract(img, proposals[pi]))
                labels.append(_BG_CLASS)
        if not feats:
            raise ValueError("no training rows produced — dataset too small?")
        return (np.stack(feats).astype(np.float32), np.array(labels),
                np.stack(reg_feats).astype(np.float32) if reg_feats
                else np.zeros((0, self.backbone.dim), dtype=np.float32),
                np.stack(reg_targets).astype(np.float32) if reg_targets
                else np.zeros((0, 4), dtype=np.float32))

    def fit(self, dataset: DetectionDataset, verbose: bool = False) -> List[float]:
        """Train the softmax head and the bbox-regression head."""
        x, y, reg_x, reg_t = self._training_rows(dataset)
        self.bbox_head.fit(reg_x, reg_t)
        optimizer = Adam(self.head.parameters(), lr=self.config.lr)
        losses: List[float] = []
        n = x.shape[0]
        batch = 128
        for epoch in range(self.config.epochs):
            order = self.rng.permutation(n)
            total, count = 0.0, 0
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                optimizer.zero_grad()
                logits = self.head.forward(x[idx], training=True)
                loss, grad = softmax_cross_entropy(logits, y[idx])
                self.head.backward(grad)
                optimizer.step()
                total += loss
                count += 1
            losses.append(total / max(1, count))
            if verbose and epoch % 10 == 0:
                print(f"{self.name} epoch {epoch}: loss={losses[-1]:.4f}")
        self._fitted = True
        return losses

    # -- inference ----------------------------------------------------------

    def detect_screen(self, image: np.ndarray,
                      conf_threshold: Optional[float] = None
                      ) -> List[ScoredBox]:
        """One screenshot -> boxes.  ``conf_threshold`` is accepted so
        every detector takes one call, and ignored: the score threshold
        is in the config, and box refinement is ``mask_refinement``."""
        if not self._fitted:
            raise RuntimeError(f"{self.name} used before fit()")
        start = monotonic_ms()
        proposals = propose_regions(image)
        detections: List[ScoredBox] = []
        if proposals:
            # One stacked head forward for every proposal on the screen
            # (a single GEMM) instead of a size-1 forward per proposal.
            feats = np.stack([self.backbone.extract(image, rect)
                              for rect in proposals]).astype(np.float32)
            probs = softmax(self.head.forward(feats), axis=-1)
            for rect, feat, p in zip(proposals, feats, probs):
                cls = int(np.argmax(p))
                if cls == _BG_CLASS or p[cls] < self.config.score_threshold:
                    continue
                box = rect
                if self.bbox_head.fitted:
                    box = BBoxRegressor.apply(rect, self.bbox_head.predict(feat))
                if self.mask_refinement:
                    box = snap_box_to_region(image, box)
                detections.append(ScoredBox(rect=box, label=CLASS_NAMES[cls],
                                            score=float(np.clip(p[cls], 0, 1))))
        kept = non_max_suppression(detections, iou_threshold=self.config.nms_iou)
        self.last_inference_ms = monotonic_ms() - start
        return kept

    def detect_screens(self, images: Sequence[np.ndarray],
                       conf_threshold: Optional[float] = None
                       ) -> List[List[ScoredBox]]:
        """Batched evaluation entry point (Detector batch protocol).

        Proposal generation is inherently per-image; the win here is the
        stacked per-proposal head inside :meth:`detect_screen`.  Takes
        ``detect_screens(images, conf_threshold=None)`` like every
        detector and, like :meth:`detect_screen`, ignores the threshold.
        """
        return [self.detect_screen(img) for img in images]


def table5_model_suite(seed: int = 0) -> Dict[str, RcnnDetector]:
    """The four RCNN rows of Table V, ready to fit."""
    return {
        "Faster RCNN+VGG16": RcnnDetector("VGG16", mask_refinement=False, seed=seed),
        "Faster RCNN+ResNet50": RcnnDetector("ResNet50", mask_refinement=False, seed=seed),
        "Mask RCNN+VGG16": RcnnDetector("VGG16", mask_refinement=True, seed=seed),
        "Mask RCNN+ResNet50": RcnnDetector("ResNet50", mask_refinement=True, seed=seed),
    }
