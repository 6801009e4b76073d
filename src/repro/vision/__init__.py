"""The CV stack: NN library, detectors, porting, metrics.

No deep-learning framework is available offline, so this package
implements the paper's detection machinery from scratch on NumPy:

- :mod:`repro.vision.nn` — a layer library (Conv2D, BatchNorm, pooling,
  Linear) with manual backprop, SGD/Adam, and numerical grad checking;
- :mod:`repro.vision.yolo` — *TinyYOLO*, a one-stage grid detector in
  the spirit of the paper's YOLOv5 (objectness + class + box heads per
  cell, confidence thresholding, NMS);
- :mod:`repro.vision.refine` — classical region-snap refinement that
  sharpens regressed boxes to the strict IoU=0.9 evaluation regime
  (a gradient edge snap is kept for the ablation);
- :mod:`repro.vision.rcnn` — two-stage Faster/Mask-RCNN-style baselines
  with "VGG16"/"ResNet50" classical feature backbones (Table V);
- :mod:`repro.vision.porting` — the ncnn-like mobile port: BN constant
  folding and weight quantization (Table IV);
- :mod:`repro.vision.dataset` — rendering samples into training
  tensors and targets;
- :mod:`repro.vision.metrics` — IoU-thresholded P/R/F1 and screen-level
  confusion matrices (Tables III-VI).
"""

from repro.vision.dataset import DetectionDataset, build_detection_dataset
from repro.vision.nn import DeployConfig
from repro.vision.yolo import TinyYolo, YoloConfig, YoloTrainer, Detection
from repro.vision.refine import snap_box_to_edges
from repro.vision.metrics import (
    ClassMetrics,
    DetectionEvaluator,
    EvalResult,
    ScreenConfusion,
)
from repro.vision.porting import MobilePort, PortConfig, port_model
from repro.vision.adversarial import (
    AttackConfig,
    SmoothedDetector,
    attack_recall,
    craft_suppression_patch,
)

__all__ = [
    "AttackConfig",
    "SmoothedDetector",
    "attack_recall",
    "craft_suppression_patch",
    "DeployConfig",
    "DetectionDataset",
    "build_detection_dataset",
    "TinyYolo",
    "YoloConfig",
    "YoloTrainer",
    "Detection",
    "snap_box_to_edges",
    "ClassMetrics",
    "DetectionEvaluator",
    "EvalResult",
    "ScreenConfusion",
    "MobilePort",
    "PortConfig",
    "port_model",
]
